"""Seeded inputs for the three benchmark workloads.

Each builder turns a seed into a list of `Answer`s: one public jtcalc call
(the same functions the CLI calls) plus how to serialize, check and count
its result.  jtcalc is imported inside the builders, so the caller can time
set-up from before the first `import jtcalc`.

The seed only chooses among inputs of equal cost: which of several
same-dimension modules a table sweeps, which points a sampled sweep or a
single-point query draws, which types a value-space query pairs, which
curves on three of the four builtin charts a semicontinuity check follows,
and the order of the answers.  The number and kind of answers, and every
sweep size, are fixed per workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import comb
from typing import Any, Callable


@dataclass
class Answer:
    """One public call that returns a complete result."""

    kind: str
    desc: str
    call: Callable[[], Any]
    canon: Callable[[Any], str]
    check: Callable[[Any], str | None] = lambda res: None
    points: Callable[[Any], int] = lambda res: 0


@dataclass
class Workload:
    name: str
    answers: list            # in construction order, which the reference follows
    sizes: dict = field(default_factory=dict)
    order: list = field(default_factory=list)   # seeded run order of the answers


# -- canonical forms and independent oracles ------------------------------------


def _canon_table(table):
    return json.dumps(
        {
            "records": table.to_jsonl_records(),
            "zero_points": table.zero_count,
            "swept": table.swept,
            "mode": table.mode,
            "field": table.field_desc,
            "variant": table.variant,
        },
        sort_keys=True,
    )


def _check_table(m, mode):
    def check(table):
        total = table.zero_count + sum(e.count for e in table.entries.values())
        if table.swept != total:
            return f"swept {table.swept} != zero {table.zero_count} + counts"
        for a, entry in table.entries.items():
            if a.dim != m:
                return f"type {a.to_text()} has dimension {a.dim}, module has {m}"
            if entry.count < 1 or not entry.representatives:
                return f"empty stratum {a.to_text()}"
        if table.mode != mode:
            return f"sweep mode {table.mode}, expected {mode}"
        return None

    return check


def _check_dim(m):
    def check(jt):
        return None if jt.dim == m else f"type {jt.to_text()} has dimension {jt.dim}, expected {m}"

    return check


def _tensor_blocks(m, n, p):
    """[m] (x) [n] in characteristic p by the closed form, as a block list."""
    if m > n:
        m, n = n, m
    if m + n <= p:
        return [n - m + 2 * i - 1 for i in range(1, m + 1)]
    return [p] * (m + n - p) + [n - m + 2 * i - 1 for i in range(1, p - n + 1)]


def _tensor_oracle(a, b):
    counts = [0] * a.p
    for x in a.blocks():
        for y in b.blocks():
            for size in _tensor_blocks(x, y, a.p):
                counts[size - 1] += 1
    return tuple(counts)


def _boxcount_leq(a, b):
    """Dominance by comparing box counts of the top rows."""
    if a.dim != b.dim:
        return False
    ra, rb = a.blocks(), b.blocks()
    length = max(len(ra), len(rb))
    ra += [0] * (length - len(ra))
    rb += [0] * (length - len(rb))
    ta = tb = 0
    for x, y in zip(ra, rb):
        ta += x
        tb += y
        if ta > tb:
            return False
    return True


def _sample_points(S, chart, fld, rng, count):
    """`count` chart points over `fld` with a nonzero tuple, by rejection."""
    k = len(chart.params)
    out = []
    while len(out) < count:
        values = [fld.random_element(rng) for _ in range(k)]
        if chart.satisfies(values) and not chart.tuple_at(values).is_zero():
            out.append(values)
    return out


# -- sweep ------------------------------------------------------------------------

# (chart, p, chart kwargs, modules of one dimension, variant, budget, samples)
SWEEP_TABLES = (
    ("sl2_line", 5, {"r": 2},
     ("Sym(2,Std(2))*Tw(1,Sym(3,Std(2)))", "Sym(3,Std(2))*Tw(1,Sym(2,Std(2)))",
      "Sym(2,Std(2))*Sym(3,Std(2))", "Tw(1,Sym(2,Std(2)))*Sym(3,Std(2))"),
     "full", None, None),
    ("sl2_line", 7, {"r": 2},
     ("Std(2)*Tw(1,Std(2))", "Tw(1,Std(2))*Std(2)"),
     "full", 10**4, 800),
    ("upper_glN", 5, {"r": 2, "N": 3},
     ("Std(3)*Tw(1,Std(3))", "Tw(1,Std(3))*Std(3)"),
     "full", 10**4, 800),
    ("sl2_line", 3, {"r": 3},
     ("Std(2)*Tw(1,Std(2))*Tw(2,Std(2))", "Tw(2,Std(2))*Tw(1,Std(2))*Std(2)"),
     "exp", None, None),
)


def build_sweep(seed):
    from jtcalc import GF, parse_module_expr
    from jtcalc import strata as S

    rng = random.Random(seed)
    answers = []
    sizes = []
    for chart_name, p, kw, modules, variant, budget, samples in SWEEP_TABLES:
        chart = S.builtin_chart(chart_name, p, **kw)
        fld = GF(p)
        module = parse_module_expr(rng.choice(modules))
        m = module.dim()
        opts = {} if budget is None else {"budget": budget, "samples": samples, "seed": rng.randrange(10**6)}
        mode = S.sweep_mode(chart, fld, opts.get("budget", S.EXHAUSTIVE_DEFAULT_BUDGET))
        desc = f"{chart_name} {fld.descriptor()} r={chart.r} {module.to_text()} m={m} {variant} {mode}"
        answers.append(Answer(
            "table", desc,
            lambda c=chart, e=module, f=fld, v=variant, o=opts: S.tabulate_jt(c, e, f, v, **o),
            _canon_table, _check_table(m, mode), lambda t: t.swept,
        ))
        sizes.append({"chart": chart_name, "field": fld.descriptor(), "r": chart.r,
                      "module": module.to_text(), "m": m, "variant": variant, "mode": mode,
                      "points": samples if samples else None})
    return Workload("sweep", answers, {"tables": sizes})


# -- queries --------------------------------------------------------------------------

VALUE_PRIMES = (3, 5, 7)
VALUE_PER_OP = 40          # per prime and per value-space operation
VALUE_MAX_BOXES = 9

# (p, n, module): single-point slots on sl2_line r=2 over GF(p) and GF(p^n)
POINT_SLOTS = (
    (3, 1, "Std(2)*Tw(1,Std(2))"), (3, 1, "Sym(2,Std(2))*Tw(1,Std(2))"),
    (5, 1, "Std(2)*Tw(1,Std(2))"), (5, 1, "Sym(2,Std(2))*Tw(1,Std(2))"),
    (7, 1, "Std(2)*Tw(1,Std(2))"), (7, 1, "Sym(2,Std(2))*Tw(1,Std(2))"),
    (3, 2, "Std(2)*Tw(1,Std(2))"), (3, 2, "Sym(2,Std(2))*Tw(1,Std(2))"),
    (5, 2, "Std(2)*Tw(1,Std(2))"), (5, 2, "Sym(2,Std(2))*Tw(1,Std(2))"),
    (3, 3, "Std(2)*Tw(1,Std(2))"), (3, 3, "Sym(2,Std(2))*Tw(1,Std(2))"),
)
POINTS_PER_SLOT = 40       # split between jt_at_point and jt_power_at_point

# small p=3 sweeps over varied module trees, each run in both variants
SMALL_SWEEPS = (
    ("sl2_line", {"r": 2}, "Std(2)*Tw(1,Std(2))"),
    ("sl2_line", {"r": 2}, "Sym(2,Std(2))+Tw(1,Std(2))"),
    ("sl2_line", {"r": 2}, "Dual(Std(2))*Tw(1,Std(2))"),
    ("sl2_line", {"r": 2}, "Sym(2,Std(2))*Tw(1,Std(2))"),
    ("sl2_line", {"r": 2}, "Ext(2,Std(2)+Tw(1,Std(2)))"),
    ("sl2_line", {"r": 1}, "Sym(2,Std(2))*Std(2)"),
    ("sl2_line", {"r": 1}, "Ext(2,Std(2)*Std(2))"),
    ("sl2_line", {"r": 1}, "Dual(Sym(2,Std(2)))+Std(2)"),
    ("upper_glN", {"r": 1, "N": 3}, "Ext(2,Std(3))"),
    ("upper_glN", {"r": 1, "N": 3}, "Sym(2,Std(3))"),
    ("upper_glN", {"r": 1, "N": 3}, "Dual(Std(3))*Std(3)"),
    ("upper_glN", {"r": 2, "N": 3}, "Std(3)+Tw(1,Std(3))"),
)


def _value_answers(J, p, rng, types):
    by_dim = {}
    for t in types:
        by_dim.setdefault(t.dim, []).append(t)
    out = []
    for i in range(VALUE_PER_OP):
        # the dimensions set the size of the realization, so they are fixed;
        # the seed picks the types
        a = rng.choice(by_dim[1 + i % VALUE_MAX_BOXES])
        b = rng.choice(by_dim[1 + (4 * i + 3) % VALUE_MAX_BOXES])

        def check_tensor(ab, a=a, b=b):
            if ab.counts != _tensor_oracle(a, b):
                return f"{a} (x) {b} = {ab}, closed form differs"
            if J.jt_tensor(b, a) != ab:
                return f"{a} (x) {b} is not commutative"
            return None

        out.append(Answer("tensor", f"jt_tensor p={p} {a} {b}",
                          lambda a=a, b=b: J.jt_tensor(a, b), str, check_tensor))
    for _ in range(VALUE_PER_OP):
        a = rng.choice(types)
        b = rng.choice([t for t in types if t.dim == a.dim])
        out.append(Answer(
            "dominance", f"dominance_leq p={p} {a} {b}",
            lambda a=a, b=b: J.dominance_leq(a, b), str,
            lambda leq, a=a, b=b: None if leq == _boxcount_leq(a, b) else f"{a} <= {b} disagrees with box counts",
        ))
    for _ in range(VALUE_PER_OP):
        a = rng.choice(types)
        no_p = J.JordanType(p, a.counts[:-1] + (0,))

        def check_perp(ap, a=a, no_p=no_p):
            if J.jt_perp(ap) != no_p:
                return f"perp(perp({a})) != {no_p}"
            if ap.counts[-1] != 0:
                return f"perp({a}) has blocks of size p"
            return None

        out.append(Answer("perp", f"jt_perp p={p} {a}", lambda a=a: J.jt_perp(a), str, check_perp))
    for _ in range(VALUE_PER_OP):
        a = rng.choice(types)
        j = rng.randrange(1, p)

        def check_power(aj, a=a, j=j):
            if aj.dim != a.dim:
                return f"power {j} of {a} changed dimension"
            for s in range(1, p):
                want = J.jt_rank(a, j * s) if j * s < p else 0
                if J.jt_rank(aj, s) != want:
                    return f"rank of ({a})^{j} at s={s} is not rank of N^{j * s}"
            return None

        out.append(Answer("power", f"jt_power p={p} {a} j={j}",
                          lambda a=a, j=j: J.jt_power(a, j), str, check_power))
    return out


def build_queries(seed):
    from jtcalc import GF, parse_module_expr
    from jtcalc import jordan as J
    from jtcalc import strata as S
    from jtcalc import theta as T

    rng = random.Random(seed)
    answers = []
    for p in VALUE_PRIMES:
        types = [a for m in range(1, VALUE_MAX_BOXES + 1) for a in J.all_types_of_dim(p, m)]
        answers += _value_answers(J, p, rng, types)

    for p, n, text in POINT_SLOTS:
        fld = GF(p, n)
        chart = S.builtin_chart("sl2_line", p, r=2)
        module = parse_module_expr(text)
        m = module.dim()
        for i, values in enumerate(_sample_points(S, chart, fld, rng, POINTS_PER_SLOT)):
            where = f"{fld.descriptor()} {text} at {','.join(map(str, values))}"
            if i % 2 == 0:
                variant = ("full", "exp")[i % 4 // 2]
                call = lambda c=chart, e=module, v=values, var=variant: T.jt_at_point(e, c.tuple_at(v), var)
                desc = f"jt_at_point {variant} {where}"
            else:
                j = rng.randrange(1, p)
                call = lambda c=chart, e=module, v=values, j=j: T.jt_power_at_point(e, c.tuple_at(v), "full", j)
                desc = f"jt_power_at_point j={j} {where}"
            answers.append(Answer("point", desc, call, str, _check_dim(m), lambda res: 1))

    fld = GF(3)
    for chart_name, kw, text in SMALL_SWEEPS:
        chart = S.builtin_chart(chart_name, 3, **kw)
        module = parse_module_expr(text)
        mode = S.sweep_mode(chart, fld)
        for variant in ("full", "exp"):
            answers.append(Answer(
                "table", f"tabulate_jt {chart_name} r={chart.r} {text} {variant}",
                lambda c=chart, e=module, v=variant: S.tabulate_jt(c, e, fld, v),
                _canon_table, _check_table(module.dim(), mode), lambda t: t.swept,
            ))
    counts = {}
    for a in answers:
        counts[a.kind] = counts.get(a.kind, 0) + 1
    sizes = {
        "answers": counts,
        "value_space": {"primes": list(VALUE_PRIMES), "max_boxes": VALUE_MAX_BOXES},
        "points": [{"field": GF(p, n).descriptor(), "module": t, "count": POINTS_PER_SLOT}
                   for p, n, t in POINT_SLOTS],
        "small_sweeps": [{"chart": c, "field": "GF(3)", **kw, "module": t} for c, kw, t in SMALL_SWEEPS],
    }
    return Workload("queries", answers, sizes)


# -- loci ----------------------------------------------------------------------------

LOCUS_CHART = ("sl2_line", 3, {"r": 2})
LOCUS_MODULE = "Std(2)*Tw(1,Std(2))"
LOCUS_MINORS = ((1, 1), (1, 2), (2, 0), (2, 1))
# (chart, p, chart kwargs, module, curves, variants, curve seed).  A curve
# seed of None means the workload's seed draws the curves.  On sl2_line the
# cost of a check varies with the curve (0.15-1 s at p=5, and by a tenth of
# the set's total at p=3), so those curves are fixed and the work per seed
# stays comparable; the 100 seeded curves on the other three charts cost
# alike.  The p=5 Sym curve spends nearly all of its time in RatFunc matrix
# powers and Bareiss rank.
CURVE_SETS = (
    ("ga_r", 3, {"r": 2}, "explicit", 34, ("full", "exp"), None),
    ("multi_ga", 3, {"s": 2}, "explicit", 33, ("full", "exp"), None),
    ("upper_glN", 3, {"r": 2, "N": 3}, "Std(3)", 33, ("full", "exp"), None),
    ("sl2_line", 3, {"r": 2}, "Std(2)+Tw(1,Std(2))", 30, ("full", "exp"), 0),
    ("sl2_line", 5, {"r": 2}, "Std(2)*Tw(1,Std(2))", 1, ("full", "exp"), 0),
    ("sl2_line", 5, {"r": 2}, "Sym(2,Std(2))*Tw(1,Std(2))", 1, ("full",), 0),
)
# degree in t of each substituted parameter when no leading coefficient
# drawn by builtin_curves is zero; every other parameter has degree 2
FULL_DEGREE = {"sl2_line": {"a": 4, "c": 6}}


def _full_degree_curves(S, chart, seed, count):
    """The first `count` seeded builtin_curves whose parameters all have full degree.

    A curve whose random leading coefficients vanish is cheaper to check,
    sometimes a hundredfold, so keeping only full-degree curves keeps the
    work per seed comparable.
    """
    degrees = FULL_DEGREE.get(chart.name, {})
    drawn = 16 * count
    while True:
        # builtin_curves(chart, seed, n) is a prefix of the same call with a larger n
        full = [c for c in S.builtin_curves(chart, seed, drawn)
                if all(poly.degree() == degrees.get(v, 2) for v, poly in c.substitution.items())]
        if len(full) >= count:
            return full[:count]
        drawn *= 2


def _canon_semicont(rep):
    return json.dumps([rep.generic_type, rep.special_type, rep.ok])


def build_loci(seed):
    from jtcalc import GF, ExactMatrix, Explicit, parse_module_expr
    from jtcalc import strata as S

    rng = random.Random(seed)
    answers = []
    name, p, kw = LOCUS_CHART
    chart = S.builtin_chart(name, p, **kw)
    module = parse_module_expr(LOCUS_MODULE)
    m = module.dim()
    fld = GF(p)

    for variant in ("full", "exp"):
        for j, d in LOCUS_MINORS:
            want = comb(m, d + 1) ** 2 if d < m else 0
            answers.append(Answer(
                "minors", f"rank_locus_minors {variant} j={j} d={d}",
                lambda v=variant, j=j, d=d: S.rank_locus_minors(chart, module, v, j, d),
                lambda gens: "\n".join(str(g) for g in gens),
                lambda gens, want=want: None if len(gens) == want else f"{len(gens)} minors, expected {want}",
            ))

    table = S.tabulate_jt(chart, module, fld)
    for a in table.types():
        answers.append(Answer(
            "closed", f"verify_closed_stratum {a}",
            lambda a=a: S.verify_closed_stratum(chart, module, a, fld),
            lambda rep: json.dumps([rep.type_text, rep.checked, rep.mismatches]),
            lambda rep: None if rep.ok and rep.checked else f"closed stratum {rep.type_text} fails",
            lambda rep: rep.checked,
        ))
    for j in range(1, p):
        answers.append(Answer(
            "constant_rank", f"constant_rank_on_strata j={j}",
            lambda j=j: S.constant_rank_on_strata(table, chart, module, j, fld),
            lambda rep: json.dumps([rep.per_stratum, rep.global_constant, rep.homotopy_checked, rep.failures],
                                   sort_keys=True),
            lambda rep: None if rep.ok else f"constant rank fails: {rep.failures[:2]}",
            lambda rep: sum(len(v) for v in rep.per_stratum.values()),
        ))

    jmod = ExactMatrix.from_rows(GF(3), [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    explicit = Explicit((jmod, jmod @ jmod), label="chain3")
    curve_sizes = []
    for cname, cp, ckw, text, count, variants, curve_seed in CURVE_SETS:
        cchart = S.builtin_chart(cname, cp, **ckw)
        cmod = explicit if text == "explicit" else parse_module_expr(text)
        if curve_seed is None:
            curve_seed = rng.randrange(10**6)
        for curve in _full_degree_curves(S, cchart, curve_seed, count):
            for variant in variants:
                answers.append(_semicont_answer(S, curve, cmod, variant))
        curve_sizes.append({"chart": cname, "field": f"GF({cp})", "module": text, "curves": count,
                            "variants": list(variants), "curve_seed": curve_seed})

    sizes = {
        "strata_chart": {"chart": name, "field": fld.descriptor(), **kw, "module": LOCUS_MODULE, "m": m,
                         "strata": [a.to_text() for a in table.types()], "points": table.swept},
        "minors": [list(x) for x in LOCUS_MINORS],
        "curves": curve_sizes,
        "answers": len(answers),
    }
    return Workload("loci", answers, sizes)


def _semicont_answer(S, curve, module, variant):
    m = module.dim()

    def check(rep):
        if not rep.ok:
            return f"semicontinuity fails on {curve.label}: {rep.special_type} vs {rep.generic_type}"
        return None

    return Answer(
        "semicont", f"semicontinuity_check {variant} {curve.label} {module.to_text()} m={m}",
        lambda: S.semicontinuity_check(curve, module, variant),
        _canon_semicont, check, lambda rep: 1,
    )


BUILDERS = {"sweep": build_sweep, "queries": build_queries, "loci": build_loci}


def build(name, seed):
    """The workload's answers, in a seeded order."""
    wl = BUILDERS[name](seed)
    wl.order = list(range(len(wl.answers)))
    random.Random(seed ^ 0x5EED).shuffle(wl.order)
    return wl
