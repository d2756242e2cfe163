"""
The acceptance and property battery.

Each check returns a CheckResult; the CLI `suite` command and the pytest
acceptance module both drive these functions, so the battery is one body of
code.  Every expected value is either a closed form verified against the
matrix oracles or an independently computed brute-force value.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from .fields import GF
from .jordan import (
    JordanType,
    all_types_of_dim,
    dominance_leq,
    jt_of_nilpotent,
    jt_power,
    jt_rank,
    jt_sum,
    jt_tensor,
    realize_nilpotent,
)
from .linalg import ExactMatrix
from .modules import Explicit, Std, Sym, Tensor, Twist
from .strata import (
    Chart,
    builtin_chart,
    builtin_curves,
    curve_from_coeffs,
    enumerate_points,
    semicontinuity_check,
    tabulate_jt,
    verify_closed_stratum,
)
from .theta import (
    CommutingTuple,
    conjugate_tuple,
    jt_at_point,
    jt_homotopy_at_point,
    jt_exp_infinite,
    scale_tuple,
    theta_exp,
    theta_full,
)
from .fields import PolyRing


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str
    elapsed: float
    limit: float
    expected_defect: bool = False


def _result(name, passed, details, start, limit, expected_defect=False):
    return CheckResult(name, passed, details, time.perf_counter() - start, limit, expected_defect)


def _upper_E(field):
    return ExactMatrix.from_rows(field, [[0, 1], [0, 0]])


def _random_strictly_upper(field, size, rng):
    rows = [[field.zero()] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rows[i][j] = field.random_element(rng)
    return ExactMatrix.from_rows(field, rows)


def _random_commuting_family(field, size, count, rng):
    """Polynomials without constant term in one strictly upper nilpotent."""
    seed_mat = _random_strictly_upper(field, size, rng)
    fam = []
    for _ in range(count):
        acc = ExactMatrix.zeros(field, size, size)
        power = seed_mat
        for _ in range(1, size):
            acc = acc + power.scalar_mul(field.random_element(rng))
            power = power @ seed_mat
        fam.append(acc)
    return fam


def _regular_gar_module(p, r):
    """The regular module of the height-r additive kernel: u_i act by multiplication."""
    field = GF(p)
    basis = list(itertools.product(range(p), repeat=r))
    index = {b: i for i, b in enumerate(basis)}
    mats = []
    for i in range(r):
        rows = [[field.zero()] * len(basis) for _ in range(len(basis))]
        for b in basis:
            nb = list(b)
            nb[i] += 1
            if nb[i] < p:
                rows[index[tuple(nb)]][index[b]] = field.one()
        mats.append(ExactMatrix.from_rows(field, rows))
    return Explicit(tuple(mats), label=f"regular_ga{r}_p{p}")


def _ex74_module(p):
    """Direct sum of chains C_j (dim j); u_i acts as the full chain except on C_i."""
    field = GF(p)
    total = p * (p - 1) // 2
    mats = []
    for i in range(p):
        rows = [[field.zero()] * total for _ in range(total)]
        pos = 0
        for j in range(p):
            if j != i:
                for k in range(j - 1):
                    rows[pos + k][pos + k + 1] = field.one()
            pos += j
        mats.append(ExactMatrix.from_rows(field, rows))
    return Explicit(tuple(mats), label=f"ex74_p{p}")


def _e_line_chart(p):
    """Two-parameter chart (a0, a1) -> (a0 E, a1 E) with weights (1, p)."""
    ring = PolyRing(GF(p), ("a0", "a1"), (1, p))
    zero = ring.zero()
    t0 = ExactMatrix.from_rows(ring, [[zero, ring.var("a0")], [zero, zero]])
    t1 = ExactMatrix.from_rows(ring, [[zero, ring.var("a1")], [zero, zero]])
    return Chart("sl2_e_line", "gl", p, 2, 2, ring, (t0, t1), ())


def _sl2_tuple(field, a0, a1):
    e = _upper_E(field)
    return CommutingTuple.gl([e.scalar_mul(a0), e.scalar_mul(a1)])


# ---------------------------------------------------------------------------
# Acceptance criteria
# ---------------------------------------------------------------------------


def criterion_1(seed=20240601):
    """Closed forms for the twisted sl2 tensors at height 2."""
    start = time.perf_counter()
    bad = []
    for p in (3, 5):
        field = GF(p)
        ext = GF(p, 2)
        rng = random.Random(seed + p)
        ext_samples = [(ext.random_element(rng), ext.random_element(rng)) for _ in range(50)]
        for lam0 in range(p):
            for lam1 in range(p):
                module = Tensor(Sym(lam0, Std(2)), Twist(1, Sym(lam1, Std(2))))
                m, n = lam0 + 1, lam1 + 1
                type_mn = JordanType.of(p, tuple(m if i == n else 0 for i in range(1, p + 1)))
                type_nm = JordanType.of(p, tuple(n if i == m else 0 for i in range(1, p + 1)))
                type_tensor = jt_tensor(
                    JordanType.from_blocks(p, [m]), JordanType.from_blocks(p, [n])
                )
                sweeps = [
                    (field, [(a0, a1) for a0 in field.elements() for a1 in field.elements()]),
                    (ext, ext_samples),
                ]
                for fld, points in sweeps:
                    for a0, a1 in points:
                        if a0.is_zero() and a1.is_zero():
                            continue
                        jt = jt_at_point(module, _sl2_tuple(fld, a0, a1), "full")
                        if a1.is_zero():
                            want = type_mn
                        elif a0.is_zero():
                            want = type_nm
                        else:
                            want = type_tensor
                        if jt != want:
                            bad.append((p, lam0, lam1, str(a0), str(a1), jt.to_text(), want.to_text()))
    details = f"p in (3,5), all weights, full GF(p) sweeps + 50 GF(p^2) samples; {len(bad)} mismatches"
    return _result("1 sl2 height-2 closed forms", not bad, details, start, 10.0)


def criterion_2(seed=20240602):
    """theta_full equals theta_exp as matrices at height 2."""
    start = time.perf_counter()
    modules = [
        Tensor(Sym(1, Std(2)), Twist(1, Sym(1, Std(2)))),
        Sym(2, Std(2)) + Twist(1, Std(2)),
        Tensor(Std(2), Twist(1, Sym(2, Std(2)))),
    ]
    chart = builtin_chart("sl2_line", p=3, r=2)
    field3 = GF(3)
    bad = 0
    checked = 0
    for _, tup in enumerate_points(chart, field3):
        for module in modules:
            checked += 1
            if theta_full(module, tup) != theta_exp(module, tup):
                bad += 1
    for fld, count in ((GF(5), 100), (GF(3, 2), 100)):
        chart5 = builtin_chart("sl2_line", p=fld.p, r=2)
        rng_seed = seed + fld.order
        pts = list(enumerate_points(chart5, fld, budget=1, seed=rng_seed, samples=count))
        for _, tup in pts:
            for module in modules:
                checked += 1
                if theta_full(module, tup) != theta_exp(module, tup):
                    bad += 1
    details = f"{checked} matrix comparisons (exhaustive GF(3) chart + 200 samples), {bad} unequal"
    return _result("2 height-2 operator equality", bad == 0, details, start, 10.0)


def criterion_3(seed=20240603):
    """The exponential operator on additive-kernel modules is the stated linear form."""
    start = time.perf_counter()
    p, r = 3, 3
    field = GF(p)
    rng = random.Random(seed)
    bad = 0
    for _ in range(100):
        alphas = _random_commuting_family(field, 3, r, rng)
        module = Explicit(tuple(alphas))
        scalars = [field.random_element(rng) for _ in range(r)]
        tup = CommutingTuple.ga(scalars, field)
        got = theta_exp(module, tup)
        want = ExactMatrix.zeros(field, 3, 3)
        for i in range(r):
            want = want + alphas[i].scalar_mul(scalars[r - 1 - i] ** (p**i))
        if got != want:
            bad += 1
    return _result(
        "3 additive linear part", bad == 0, f"100 random height-3 samples, {bad} mismatches", start, 5.0
    )


def _criterion_4_observations():
    p = 3
    field = GF(p)
    chart = builtin_chart("sl2_line", p=p, r=3)
    module = Tensor(Std(2), Tensor(Twist(1, Std(2)), Twist(2, Std(2))))
    homotopy = [(1, 0), (0, 1), (1, 1), (1, 2)]
    observed = {"full": {}, "exp": {}}
    observed_h = {st: {} for st in homotopy}
    for values, tup in enumerate_points(chart, field):
        if tup.is_zero():
            continue
        key = tuple(str(v) for v in values)
        observed["full"][key] = jt_at_point(module, tup, "full")
        observed["exp"][key] = jt_at_point(module, tup, "exp")
        for s, t in homotopy:
            observed_h[(s, t)][key] = jt_homotopy_at_point(module, tup, field.from_int(s), field.from_int(t))
    types_full = set(observed["full"].values())
    maxima = [a for a in types_full if not any(b != a and dominance_leq(a, b) for b in types_full)]
    return observed, observed_h, maxima


def criterion_4():
    """Max-type point sets agree between variants and non-degenerate homotopy fibers."""
    start = time.perf_counter()
    observed, observed_h, maxima = _criterion_4_observations()
    if observed_h[(1, 0)] != observed["exp"] or observed_h[(0, 1)] != observed["full"]:
        return _result("4 max-type equivalence", False, "homotopy endpoints disagree", start, 30.0)
    if len(maxima) != 1:
        return _result(
            "4 max-type equivalence", False,
            "non-unique maxima " + ",".join(a.to_text() for a in maxima), start, 30.0,
        )
    max_type = maxima[0]
    set_full = {k for k, v in observed["full"].items() if v == max_type}
    set_exp = {k for k, v in observed["exp"].items() if v == max_type}
    ok = set_full == set_exp
    details = f"max type {max_type.to_text()} on {len(set_full)} of {len(observed['full'])} points"
    for st in [(1, 0), (0, 1), (1, 1)]:
        if {k for k, v in observed_h[st].items() if v == max_type} != set_full:
            ok = False
            details += f"; homotopy {st} differs"
    return _result("4 max-type equivalence", ok, details, start, 30.0)


def criterion_4b():
    """The (1:2) homotopy sample of the max-type battery, run unmodified.

    Over GF(3) this fiber has s + t = 0; on the sl2 line chart the full and
    exponential operators agree identically (the chart's nilpotents square
    to zero), so the fiber operator is (s+t) * theta = 0 and its max-type
    locus cannot match.  The clause fails for that reason; kept as a strict
    recorded defect so an unexpected pass would also be flagged.
    """
    start = time.perf_counter()
    observed, observed_h, maxima = _criterion_4_observations()
    max_type = maxima[0]
    set_full = {k for k, v in observed["full"].items() if v == max_type}
    set_12 = {k for k, v in observed_h[(1, 2)].items() if v == max_type}
    ok = set_12 == set_full
    zero_everywhere = all(v.to_text() == "8[1]" for v in observed_h[(1, 2)].values())
    details = (
        f"fiber (1:2) attains {max_type.to_text()} on {len(set_12)} points vs {len(set_full)}; "
        f"fiber operator identically zero: {zero_everywhere} (s+t = 0 in GF(3))"
    )
    return _result("4b homotopy sample (1:2) [recorded degenerate fiber]", ok, details, start, 30.0,
                   expected_defect=True)


def criterion_5(seed=20240605):
    """Semicontinuity along seeded curves on every builtin chart."""
    start = time.perf_counter()
    field3 = GF(3)
    violations = []
    checked = 0
    jmod = ExactMatrix.from_rows(field3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    zero3 = ExactMatrix.zeros(field3, 3, 3)
    configs = [
        (builtin_chart("ga_r", p=3, r=2), Explicit((jmod, jmod @ jmod), label="ga-mod")),
        (builtin_chart("multi_ga", p=3, s=2), Explicit((jmod, jmod @ jmod), label="mga-mod")),
        (builtin_chart("sl2_line", p=3, r=2), Tensor(Std(2), Twist(1, Std(2)))),
        (builtin_chart("upper_glN", p=3, r=2, N=3), Std(3)),
    ]
    for chart, module in configs:
        for curve in builtin_curves(chart, seed=seed, count=50):
            for variant in ("full", "exp"):
                rep = semicontinuity_check(curve, module, variant)
                checked += 1
                if not rep.ok:
                    violations.append((curve.label, variant, rep.generic_type, rep.special_type))
    # the worked curve
    sl2 = builtin_chart("sl2_line", p=3, r=2)
    worked = curve_from_coeffs(
        sl2, field3, {"a": [0], "b": [1], "c": [0], "l0": [0, 1], "l1": [1]}, label="worked"
    )
    rep = semicontinuity_check(worked, Tensor(Std(2), Twist(1, Std(2))), "full")
    worked_ok = rep.ok and rep.generic_type == "[3]+[1]" and rep.special_type == "2[2]"
    ok = not violations and worked_ok
    details = f"{checked} curve checks, {len(violations)} violations; worked curve {rep.generic_type} vs {rep.special_type}"
    return _result("5 semicontinuity on curves", ok, details, start, 30.0)


def criterion_6(seed=20240606, max_tensor_boxes=5):
    """The Jordan-calculus formulas against their matrix and box-count oracles."""
    start = time.perf_counter()
    problems = []
    for p in (2, 3, 5):
        field = GF(p)
        by_dim = {m: all_types_of_dim(p, m) for m in range(1, 10)}
        for m, types in by_dim.items():
            mats = {a: realize_nilpotent(a, field) for a in types}
            # jt_rank against matrix ranks, jt_power against the matrix oracle
            for a in types:
                mat = mats[a]
                power = mat
                for s in range(1, p):
                    if jt_rank(a, s) != power.rank():
                        problems.append(("rank", p, a.to_text(), s))
                    if jt_power(a, s) != jt_of_nilpotent(power, p):
                        problems.append(("power", p, a.to_text(), s))
                    power = power @ mat
            # dominance against the top-rows box-count comparison
            for a in types:
                for b in types:
                    boxes = _boxcount_leq(a, b)
                    if dominance_leq(a, b) != boxes:
                        problems.append(("dominance", p, a.to_text(), b.to_text()))
        # sampled tensor commutativity and associativity
        rng = random.Random(seed + p)
        pool = [a for m in range(1, max_tensor_boxes + 1) for a in by_dim[m]]
        for _ in range(200 if p > 2 else 100):
            a, b, c = (rng.choice(pool) for _ in range(3))
            ab = jt_tensor(a, b)
            if ab != jt_tensor(b, a):
                problems.append(("comm", p, a.to_text(), b.to_text()))
            if jt_tensor(ab, c) != jt_tensor(a, jt_tensor(b, c)):
                problems.append(("assoc", p, a.to_text(), b.to_text(), c.to_text()))
            if jt_tensor(a, jt_sum(b, c)) != jt_sum(jt_tensor(a, b), jt_tensor(a, c)):
                problems.append(("distrib", p, a.to_text()))
    details = f"exhaustive <= 9 boxes for p in (2,3,5); {len(problems)} failures"
    return _result("6 jordan calculus oracles", not problems, details, start, 20.0)


def _boxcount_leq(a, b):
    """Dominance by comparing box counts of the top rows (independent oracle)."""
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


def criterion_7():
    """Closed strata on the height-2 twisted line are exactly determinantal."""
    start = time.perf_counter()
    p = 3
    field = GF(p)
    chart = _e_line_chart(p)
    module = Tensor(Sym(1, Std(2)), Twist(1, Sym(1, Std(2))))
    table = tabulate_jt(chart, module, field, "full")
    failures = []
    for a in table.entries:
        rep = verify_closed_stratum(chart, module, a, field, "full")
        if not rep.ok:
            failures.append((a.to_text(), rep.mismatches))
    details = f"types {sorted(a.to_text() for a in table.entries)}; {len(failures)} failing strata"
    return _result("7 determinantal strata", not failures, details, start, 20.0)


def criterion_8():
    """The chain-sum module realizes the stated basis-point types and strata."""
    start = time.perf_counter()
    p = 5
    field = GF(p)
    module = _ex74_module(p)
    bad = []
    for i in range(p):
        scalars = [field.from_int(1 if k == i else 0) for k in range(p)]
        jt = jt_at_point(module, CommutingTuple.multi_ga(scalars, field), "full")
        counts = [0] * p
        for j in range(1, p):
            if j != i:
                counts[j - 1] += 1
        counts[0] += i
        if jt != JordanType.of(p, tuple(counts)):
            bad.append(("basis", i, jt.to_text()))
    # independent oracle for the full strata: on C_j the operator is (sum a_k - a_j) J_j
    chart = builtin_chart("multi_ga", p=p, s=p)
    table = tabulate_jt(chart, module, field, "full", max_reps=1)
    expected = set()
    for combo in itertools.product(range(p), repeat=p):
        if not any(combo):
            continue
        total = sum(combo) % p
        counts = [0] * p
        for j in range(1, p):
            if (total - combo[j]) % p:
                counts[j - 1] += 1
            else:
                counts[0] += j
        expected.add(JordanType.of(p, tuple(counts)))
    got = set(table.entries)
    if got != expected:
        bad.append(("strata", sorted(a.to_text() for a in got ^ expected)))
    details = f"{len(table.entries)} strata over 5^5 sweep; {len(bad)} failures"
    return _result("8 chain-sum module types", not bad, details, start, 5.0)


def criterion_9(seed=20240609):
    """Conjugation invariance and weighted-scaling homogeneity."""
    start = time.perf_counter()
    bad = 0
    rng = random.Random(seed)
    for field in (GF(5), GF(3, 2)):
        p = field.p
        module = Tensor(Std(2), Twist(1, Std(2)))
        e = _upper_E(field)
        base = CommutingTuple.gl([e, e.scalar_mul(field.from_int(p - 1))])
        theta0 = theta_full(module, base)
        jt0 = jt_at_point(module, base, "full")
        count = 0
        while count < 50:
            rows = [[field.random_element(rng) for _ in range(2)] for _ in range(2)]
            g = ExactMatrix.from_rows(field, rows)
            if g.rank() < 2:
                continue
            count += 1
            conj = conjugate_tuple(base, g)
            if jt_at_point(module, conj, "full") != jt0:
                bad += 1
            if jt_at_point(module, conj, "exp") != jt0:
                bad += 1
        for alpha in field.nonzero_elements():
            scaled = scale_tuple(base, alpha)
            target = theta0.scalar_mul(alpha ** (p ** 1))
            if theta_full(module, scaled) != target:
                bad += 1
            if theta_exp(module, scaled) != target:
                bad += 1
            if jt_at_point(module, scaled, "full") != jt0:
                bad += 1
    details = f"100 conjugations + all scalings over GF(5), GF(9); {bad} failures"
    return _result("9 invariance and homogeneity", bad == 0, details, start, 10.0)


def criterion_10():
    """The regular height-2 additive module has everywhere-maximal type."""
    start = time.perf_counter()
    p, r = 3, 2
    module = _regular_gar_module(p, r)
    want = JordanType.of(p, (0, 0, p ** r // p))
    bad = []
    for field in (GF(3), GF(3, 2)):
        for a0 in field.elements():
            for a1 in field.elements():
                if a0.is_zero() and a1.is_zero():
                    continue
                tup = CommutingTuple.ga([a0, a1], field)
                for variant in ("full", "exp"):
                    jt = jt_at_point(module, tup, variant)
                    if jt != want:
                        bad.append((field.descriptor(), str(a0), str(a1), variant, jt.to_text()))
    details = f"exhaustive GF(3) and GF(9) sweeps, both variants; {len(bad)} failures"
    return _result("10 injectivity criterion", not bad, details, start, 20.0)


def criterion_11():
    """Height-1 tensor formula on the product of two additive lines."""
    start = time.perf_counter()
    p = 5
    field = GF(p)
    j4 = realize_nilpotent(JordanType.from_blocks(p, [4]), field)
    j32 = realize_nilpotent(JordanType.from_blocks(p, [3, 2]), field)
    j221 = realize_nilpotent(JordanType.from_blocks(p, [2, 2, 1]), field)
    zero4 = ExactMatrix.zeros(field, 4, 4)
    zero5 = ExactMatrix.zeros(field, 5, 5)
    pairs = [
        (Explicit((j4, zero4)), Explicit((zero5, j32))),
        (Explicit((j4, j4 @ j4)), Explicit((j32, zero5))),
        (Explicit((j221, j221 @ j221)), Explicit((j4, j4.scalar_mul(field.from_int(2))))),
    ]
    bad = 0
    checked = 0
    for m_mod, n_mod in pairs:
        tensor = Tensor(m_mod, n_mod)
        for a0 in field.elements():
            for a1 in field.elements():
                if a0.is_zero() and a1.is_zero():
                    continue
                tup = CommutingTuple.multi_ga([a0, a1], field)
                left = jt_at_point(tensor, tup, "full")
                right = jt_tensor(jt_at_point(m_mod, tup, "full"), jt_at_point(n_mod, tup, "full"))
                checked += 1
                if left != right:
                    bad += 1
    details = f"{checked} exhaustive GF(5) tensor identities, {bad} failures"
    return _result("11 height-1 tensor formula", bad == 0, details, start, 10.0)


def criterion_12(seed=20240612):
    """Stable type is invariant under zero-padding of the operator family."""
    start = time.perf_counter()
    field = GF(3)
    rng = random.Random(seed)
    module = Tensor(Std(3), Twist(1, Std(3)))
    zero = ExactMatrix.zeros(field, 3, 3)
    bad = 0
    for _ in range(100):
        fam = _random_commuting_family(field, 3, rng.randrange(1, 4), rng)
        base = jt_exp_infinite(fam, module)
        for pad in range(1, 4):
            if jt_exp_infinite(fam + [zero] * pad, module) != base:
                bad += 1
    details = f"100 random families padded up to 3 zeros; {bad} failures"
    return _result("12 stabilization", bad == 0, details, start, 5.0)


ACCEPTANCE = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_4b,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
]


# ---------------------------------------------------------------------------
# Extra property checks for the CLI suite
# ---------------------------------------------------------------------------


def check_functoriality(seed=11):
    """rho(g h) = rho(g) rho(h) for random unipotent pairs over truncated rings."""
    from .fields import TruncatedCurveRing
    from .modules import Dual, eval_unipotent, texp_matrix

    start = time.perf_counter()
    field = GF(3)
    ring = TruncatedCurveRing(field, 2)
    rng = random.Random(seed)
    module = Tensor(Sym(2, Std(2)), Dual(Twist(1, Std(2))))
    bad = 0
    for _ in range(20):
        g = texp_matrix(_random_strictly_upper(field, 2, rng), ring)
        h = texp_matrix(_random_strictly_upper(field, 2, rng), ring)
        lhs = eval_unipotent(module, g * h).g
        rhs = eval_unipotent(module, g).g @ eval_unipotent(module, h).g
        if lhs != rhs:
            bad += 1
    return _result("functoriality", bad == 0, f"20 random pairs, {bad} failures", start, 10.0)


def check_dual_twist_laws(seed=12):
    from .fields import TruncatedCurveRing
    from .modules import Dual, eval_unipotent, texp_matrix

    start = time.perf_counter()
    field = GF(3)
    ring = TruncatedCurveRing(field, 2)
    rng = random.Random(seed)
    bad = 0
    for _ in range(10):
        b = _random_strictly_upper(field, 3, rng)
        g = texp_matrix(b, ring)
        m1 = eval_unipotent(Dual(Dual(Sym(2, Std(3)))), g).g
        m2 = eval_unipotent(Sym(2, Std(3)), g).g
        if m1 != m2:
            bad += 1
        t1 = eval_unipotent(Twist(1, Twist(1, Std(3))), g).g
        t2 = eval_unipotent(Twist(2, Std(3)), g).g
        if t1 != t2:
            bad += 1
    return _result("dual/twist laws", bad == 0, f"10 random checks, {bad} failures", start, 10.0)


def check_ga_homomorphism(seed=13):
    from .fields import TruncatedCurveRing, TruncElement
    from .modules import eval_ga_point

    start = time.perf_counter()
    field = GF(3)
    rng = random.Random(seed)
    bad = 0
    for _ in range(10):
        fam = _random_commuting_family(field, 3, 2, rng)
        module = Explicit(tuple(fam))
        inner = TruncatedCurveRing(field, 2, variable="u")
        ring = TruncatedCurveRing(inner, 2, variable="t")
        c1 = TruncElement(ring, {1: inner.one()})
        c2 = TruncElement(ring, {0: inner.t()})
        lhs = (eval_ga_point(module, c1) * eval_ga_point(module, c2)).g
        rhs = eval_ga_point(module, c1 + c2).g
        if lhs != rhs:
            bad += 1
    return _result("additive homomorphism", bad == 0, f"10 random modules, {bad} failures", start, 10.0)


PROPERTY_CHECKS = [check_functoriality, check_dual_twist_laws, check_ga_homomorphism]


def run_suite(level="full"):
    """The CLI battery: quick = fast subset, full = all criteria + properties."""
    if level == "quick":
        checks = [criterion_3, criterion_7, criterion_8, criterion_10, criterion_12]
        checks = checks + PROPERTY_CHECKS
    else:
        checks = list(ACCEPTANCE) + PROPERTY_CHECKS
    return [fn() for fn in checks]
