"""
Parameter charts for commuting tuples, point sweeps, Jordan-type tabulation,
determinantal rank loci, semicontinuity along curves, and constant-rank
audits on strata.

A chart names polynomial templates for the tuple entries plus constraint
polynomials; points are evaluated exactly over the swept finite field.  All
locus comparisons are by evaluation over finite point sweeps; no ideal
machinery is involved.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial
from math import comb

import numpy as np

from . import batch
from .errors import CapExceededError, ChartError, JTCalcError, ParseError
from .fields import GF, Polynomial, PolyRing
from .jordan import _jordan_types, dominance_leq, jt_rank
from .linalg import ExactMatrix, _Pointwise, _validate
from .parsing import parse_field_spec, parse_polynomial
from .theta import (
    KIND_GA,
    KIND_GL,
    KIND_MULTI_GA,
    CommutingTuple,
    _check_pairing,
    _typed_operator,
    by_variant,
    homotopy_ranks,
)

SYMBOLIC_DIM_CAP = 64
# minors the expansion of a rank locus may take (`_minor_count`)
MINORS_CAP = 500_000
EXHAUSTIVE_DEFAULT_BUDGET = 10**6
SAMPLE_DEFAULT = 10**4


@dataclass(frozen=True)
class Chart:
    """Polynomial parametrization of commuting tuples with constraints.

    Templates and constraints are compiled once per chart
    (`batch._CompiledPolys`), for single points and sweeps alike;
    `satisfies` and `tuple_at` evaluate the compiled form and raise for a bad
    point what `Polynomial.evaluate` raises (`PolyRing.point_field`).
    """

    name: str
    kind: str
    p: int
    r: int
    size: int
    ring: PolyRing
    templates: tuple
    constraints: tuple

    @property
    def params(self):
        return self.ring.variables

    @property
    def weights(self):
        return self.ring.weights

    def _compile(self, polys):
        if self.ring.field.n != 1:
            raise ChartError("chart template coefficients live over the prime field")
        return batch._CompiledPolys(polys, len(self.params), self.p)

    @cached_property
    def _compiled_templates(self):
        return self._compile([t.entry(i, j) for t in self.templates
                              for i in range(t.rows) for j in range(t.cols)])

    @cached_property
    def _compiled_constraints(self):
        return self._compile(self.constraints)

    def _evaluate(self, compiled, values):
        """(field of the point, the element indices of the compiled polynomials there)."""
        values = list(values)
        if not compiled.rows:
            # nothing is evaluated, so the point is not checked
            return (values[0].field if values else GF(self.p)), []
        field = self.ring.point_field(values)
        if field is None:
            field = GF(self.p)
        if field.n == 1:
            return field, compiled.at_ints([v.coeffs[0] for v in values])
        indices = [[sum(c * field.p**i for i, c in enumerate(v.coeffs)) for v in values]]
        return field, compiled.at_points(field, np.array(indices))[0]

    def satisfies(self, values):
        _, flat = self._evaluate(self._compiled_constraints, values)
        return not any(flat)

    def tuple_at(self, values):
        field, flat = self._evaluate(self._compiled_templates, values)
        data = batch._coords(field, np.array(flat, dtype=np.int64))
        mats, start = [], 0
        for tmpl in self.templates:
            end = start + tmpl.rows * tmpl.cols
            block = data[start:end].reshape(tmpl.rows, tmpl.cols, field.n)
            if self.kind != KIND_GL:
                block = block[0, 0].reshape(1, 1, field.n)
            mats.append(ExactMatrix.from_coords(field, block))
            start = end
        if self.kind == KIND_GL:
            return CommutingTuple.gl(mats)
        return CommutingTuple(self.kind, field, len(mats), 1, tuple(mats))

    def to_text(self):
        lines = [
            f"name {self.name}",
            f"field GF({self.p})",
            f"kind {self.kind}",
            f"r {self.r}",
            f"N {self.size}",
            "params " + " ".join(f"{v}:{w}" for v, w in zip(self.params, self.weights)),
        ]
        for tmpl in self.templates:
            lines.append("template")
            for i in range(tmpl.rows):
                lines.append(" ".join(tmpl.entry(i, j).compact_str() for j in range(tmpl.cols)))
        for c in self.constraints:
            lines.append("constraint " + c.compact_str())
        return "\n".join(lines) + "\n"


def parse_chart(text):
    """Parse the plain-text chart config emitted by Chart.to_text.

    Malformed lines raise `ChartError` or `ParseError` naming the line.
    """
    name = "chart"
    field = None
    kind = KIND_GL
    r = None
    size = None
    params = []
    weights = []
    template_rows = []
    constraints_text = []
    current = None
    field_line = r_line = lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        head, _, rest = ln.partition(" ")
        rest = rest.strip()
        if head == "name":
            name = rest
        elif head == "field":
            field, field_line = _located(parse_field_spec, rest, lineno), lineno
        elif head == "kind":
            if rest not in (KIND_GL, KIND_GA, KIND_MULTI_GA):
                raise ChartError(f"unknown chart kind {rest!r} (line {lineno})")
            kind = rest
        elif head == "r":
            r, r_line = _chart_int(rest, "r", lineno), lineno
        elif head == "N":
            size = _chart_int(rest, "N", lineno)
        elif head == "params":
            for chunk in rest.split():
                v, _, w = chunk.partition(":")
                if not v or v in params:
                    raise ChartError(f"parameter name {v!r} is empty or repeated (line {lineno})")
                params.append(v)
                weights.append(_chart_int(w, f"the weight of {v}", lineno) if w else 1)
        elif head == "template":
            current = []
            template_rows.append((lineno, current))
        elif head == "constraint":
            constraints_text.append((lineno, rest))
        else:
            if current is None:
                raise ChartError(f"unexpected line {lineno}: {raw!r}")
            current.append((lineno, ln.split()))
    if field is None or r is None or size is None or not params:
        raise ChartError(f"chart config needs field, r, N and params lines (line {lineno})")
    if field.n != 1:
        raise ChartError(f"chart template coefficients live over the prime field (line {field_line})")
    ring = PolyRing(field, params, weights)
    poly = partial(parse_polynomial, ring)
    templates = []
    for start, rows in template_rows:
        if len(rows) != size or any(len(row) != size for _, row in rows):
            raise ChartError(f"template grid must be {size} x {size} (line {start})")
        templates.append(ExactMatrix.from_rows(
            ring, [[_located(poly, cell, lineno) for cell in row] for lineno, row in rows]))
    if len(templates) != r:
        raise ChartError(f"expected {r} templates, found {len(templates)} (line {r_line})")
    constraints = tuple(_located(poly, c, lineno) for lineno, c in constraints_text)
    return Chart(name, kind, field.p, r, size, ring, tuple(templates), constraints)


def _chart_int(text, what, lineno):
    try:
        value = int(text)
    except ValueError:
        raise ChartError(f"{what} must be an integer, found {text!r} (line {lineno})") from None
    if value < 1:
        raise ChartError(f"{what} must be positive, found {text!r} (line {lineno})")
    return value


def _located(parse, text, lineno):
    """parse(text), with the chart line added to a ParseError's location."""
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(str(exc), lineno, exc.column) from None


# -- builtin charts ------------------------------------------------------------


def builtin_chart(name, p, r=1, N=2, s=2):
    """Charts shipped with the package: ga_r, multi_ga, sl2_line, upper_glN."""
    if name == "ga_r":
        ring = PolyRing(GF(p), tuple(f"a{i}" for i in range(r)), tuple(p**i for i in range(r)))
        templates = tuple(ExactMatrix.from_rows(ring, [[ring.var(f"a{i}")]]) for i in range(r))
        return Chart("ga_r", KIND_GA, p, r, 1, ring, templates, ())
    if name == "multi_ga":
        ring = PolyRing(GF(p), tuple(f"a{i}" for i in range(s)))
        templates = tuple(ExactMatrix.from_rows(ring, [[ring.var(f"a{i}")]]) for i in range(s))
        return Chart("multi_ga", KIND_MULTI_GA, p, s, 1, ring, templates, ())
    if name == "sl2_line":
        if p < 3:
            raise ChartError("sl2_line is defined for p >= 3")
        names = ("a", "b", "c") + tuple(f"l{i}" for i in range(r))
        weights = (1, 1, 1) + tuple(p**i for i in range(r))
        ring = PolyRing(GF(p), names, weights)
        a, b, c = ring.var("a"), ring.var("b"), ring.var("c")
        templates = []
        for i in range(r):
            l = ring.var(f"l{i}")
            templates.append(ExactMatrix.from_rows(ring, [[l * a, l * b], [l * c, -(l * a)]]))
        return Chart("sl2_line", KIND_GL, p, r, 2, ring, tuple(templates), (a * a + b * c,))
    if name == "upper_glN":
        if N > p:
            raise ChartError("upper_glN needs N <= p so strictly upper matrices are p-nilpotent")
        names = []
        weights = []
        for sidx in range(r):
            for i in range(N):
                for j in range(i + 1, N):
                    names.append(f"b{sidx}_{i}{j}")
                    weights.append(p**sidx)
        ring = PolyRing(GF(p), tuple(names), tuple(weights))
        templates = []
        for sidx in range(r):
            rows = [[ring.zero() for _ in range(N)] for _ in range(N)]
            for i in range(N):
                for j in range(i + 1, N):
                    rows[i][j] = ring.var(f"b{sidx}_{i}{j}")
            templates.append(ExactMatrix.from_rows(ring, rows))
        constraints = []
        for s1 in range(r):
            for s2 in range(s1 + 1, r):
                comm = templates[s1] @ templates[s2] - templates[s2] @ templates[s1]
                for i in range(N):
                    for j in range(i + 1, N):
                        constraints.append(comm.entry(i, j))
        return Chart("upper_glN", KIND_GL, p, r, N, ring, tuple(templates), tuple(constraints))
    raise ChartError(f"unknown builtin chart {name!r}")


# -- point enumeration ---------------------------------------------------------


def enumerate_points(chart, field, budget=EXHAUSTIVE_DEFAULT_BUDGET, seed=0,
                     samples=SAMPLE_DEFAULT):
    """Yield (values, tuple) pairs over the chart, exhaustively or sampled.

    Exhaustive when |field|^#params <= budget, else seeded rejection
    sampling emitting exactly `samples` constraint-satisfying points.
    Deterministic order either way.
    """
    if field.p != chart.p:
        raise ChartError("field characteristic differs from the chart's")
    if budget <= 0:
        raise ChartError("budget must be positive")
    k = len(chart.params)
    total = field.order**k
    if total > budget and samples < 0:
        raise ChartError(f"sample count {samples} is negative")
    if total <= budget:
        for combo in itertools.product(list(field.elements()), repeat=k):
            values = list(combo)
            if chart.satisfies(values):
                yield values, chart.tuple_at(values)
        return
    rng = random.Random(seed)
    emitted = 0
    attempts = 0
    limit = max(100 * samples, 1000)
    while emitted < samples and attempts < limit:
        attempts += 1
        values = [field.random_element(rng) for _ in range(k)]
        if chart.satisfies(values):
            yield values, chart.tuple_at(values)
            emitted += 1
    if emitted < samples:
        raise ChartError("rejection sampling failed to find enough chart points")


def sweep_mode(chart, field, budget=EXHAUSTIVE_DEFAULT_BUDGET):
    return "exhaustive" if field.order ** len(chart.params) <= budget else "sampled"


# -- tabulation ------------------------------------------------------------------


@dataclass
class StratumEntry:
    count: int = 0
    representatives: list = dc_field(default_factory=list)


@dataclass
class StrataTable:
    chart_name: str
    module_text: str
    field_desc: str
    variant: str
    mode: str
    seed: int
    entries: dict
    zero_count: int
    swept: int

    def types(self):
        return sorted(self.entries, key=lambda a: (a.blocks(),), reverse=True)

    def to_jsonl_records(self):
        recs = []
        for a in self.types():
            entry = self.entries[a]
            recs.append(
                {
                    "type": a.to_text(),
                    "count": entry.count,
                    "representatives": entry.representatives,
                }
            )
        return recs


def _serialize_values(field, values):
    return [str(field.from_index(i)) for i in values]


def tabulate_jt(chart, e, field, variant="full", budget=EXHAUSTIVE_DEFAULT_BUDGET,
                seed=0, samples=SAMPLE_DEFAULT, max_reps=4):
    """Group swept points by Jordan type; the zero tuple is reported separately.

    The Jordan type is a function on the projectivized P V_r(G): scaling a
    tuple by B_s -> alpha^(p^s) B_s (`scale_tuple`) scales the operator by
    alpha^(p^(r-1)).  So each weighted scaling orbit is evaluated once, and
    its type is counted for every swept point of the orbit, in sweep order.
    Every sweep, over any finite field and on every chart kind, runs on
    integer stacks (`batch.jordan_types`), which gives each point's orbit,
    the distinct types and each orbit's number among them.  Counts, the
    zero count and the first `max_reps` representatives of each type are
    then taken per type with array operations, with no Jordan type read per
    orbit.  The orbits are numbered in the order the sweep meets them, and
    the types in the order the orbits meet them, so the types come in the
    order of their first point.
    """
    values, orbit, orbit_type, types = batch.jordan_types(chart, e, field, variant, budget, seed, samples)
    point_type = orbit_type[orbit]
    counts = np.bincount(point_type[point_type >= 0], minlength=len(types)).tolist()
    entries = {}
    for t, jt in enumerate(types):
        reps = np.flatnonzero(point_type == t)[:max(max_reps, 0)]
        entries[jt] = StratumEntry(counts[t], [_serialize_values(field, row) for row in values[reps].tolist()])
    zero_count = len(values) - sum(counts)
    swept = len(values)
    return StrataTable(
        chart_name=chart.name,
        module_text=e.to_text(),
        field_desc=field.descriptor(),
        variant=variant,
        mode=sweep_mode(chart, field, budget),
        seed=seed,
        entries=entries,
        zero_count=zero_count,
        swept=swept,
    )


# -- determinantal rank loci -------------------------------------------------------


def rank_locus_minors(chart, e, variant, j, d):
    """Generators of the j-th power rank <= d locus: all (d+1)-minors of theta^j."""
    return _rank_loci(chart, e, [(j, d)], _theta_powers(chart, e, variant))


def _rank_loci(chart, e, bounds, power):
    """The minors of `rank_locus_minors` for each (j, d) of bounds, one list after the other.

    Every bound is checked, and the minors are counted (`_minor_count`),
    before `power(j)`, which gives (ring, theta^j), is called; it is called
    only for a bound that has minors to take.
    """
    m = e.dim()
    if m > SYMBOLIC_DIM_CAP:
        raise CapExceededError(f"symbolic dimension {m} exceeds cap {SYMBOLIC_DIM_CAP}")
    for j, d in bounds:
        if not 1 <= j < chart.p:
            raise JTCalcError(f"power {j} outside 1..p-1")
        if not 0 <= d <= m:
            raise JTCalcError(f"rank bound {d} outside 0..{m}")
    count = sum(_minor_count(m, d + 1) for _, d in bounds)
    if count > MINORS_CAP:
        raise CapExceededError(f"{count} rank-locus minors exceed cap {MINORS_CAP}")
    polys = []
    for j, d in bounds:
        if d < m:
            ring, op = power(j)
            polys += ring.minors(op, d + 1)
    return polys


def _minor_count(m, size):
    """The minors `monomials._Monomials.minors` takes for the size x size minors of an m x m
    matrix: at step i, the i-minors of each i-row prefix that still extends to `size` rows,
    C(m - size + i, i) C(m, i) of them.  The last step's are the C(m, size)^2 it returns;
    there are none for size > m."""
    return sum(comb(m - size + i, i) * comb(m, i) for i in range(1, size + 1)) if size <= m else 0


def _theta_powers(chart, e, variant):
    """power(j) = (ring, theta^j) for `_rank_loci`: theta is built on first use, once, and its
    powers are multiplied up from it.  The variant is checked at once, before any minors are
    known to be needed."""
    by_variant(variant, None, None)
    powers = []

    def power(j):
        if not powers:
            powers.append(_symbolic_theta(chart, e, variant))
        ring, theta = powers[0]
        while len(powers) < j:
            powers.append((ring, ring.reduce(ring.matmul(powers[-1][1], theta))))
        return powers[j - 1]

    return power


def _symbolic_theta(chart, e, variant):
    """(ring, theta): the variant's operator over the chart's coordinate ring, built by
    `batch.curve_operator` on the chart's templates, as an (L, m n, m n) stack of the monomial
    coefficients of a new `monomials._Monomials` ring, for this computation.  An additive
    chart's scalars are its templates' (0, 0) entries.  The templates are not checked: their
    conditions hold only modulo the chart's constraints."""
    # imported here, so that only runs that build a symbolic operator compile the module
    from .monomials import _Monomials

    _check_pairing(e, chart.kind, chart.p, chart.r)
    ring = _Monomials(chart.ring)
    mats = chart.templates
    if chart.kind != KIND_GL:
        mats = [ExactMatrix.from_rows(chart.ring, [[t.entry(0, 0)]]) for t in mats]
    return ring, batch.curve_operator(ring, chart.kind, e, variant, [ring.lift_matrix(m) for m in mats])


@dataclass
class ClosedStratumReport:
    chart_name: str
    type_text: str
    variant: str
    checked: int
    mismatches: list

    @property
    def ok(self):
        return not self.mismatches


def verify_closed_stratum(chart, e, a, field, variant="full",
                          budget=EXHAUSTIVE_DEFAULT_BUDGET, seed=0, samples=SAMPLE_DEFAULT):
    """Check {x : JT(x) <= a} equals the common zero set of the rank-locus minors.

    The minors are those of `rank_locus_minors` for j = 1, ..., p - 1, with
    theta built once.  Both sides are constant on a weighted scaling orbit:
    the type is, and a (d+1)-minor of theta^j vanishes at every point of an
    orbit or at none, since rank theta(x)^j <= d there and theta scales by
    a nonzero scalar along the orbit.  So the check reads the arrays of the
    table's sweep (`batch.jordan_types`) and evaluates the minors once per
    orbit (`_closed_check`); `checked` counts the nonzero swept points,
    and `mismatches` lists every point of an orbit that disagrees, in sweep
    order.
    """
    m = e.dim()
    if a.dim != m:
        raise ChartError("stratum type dimension differs from the module dimension")
    power = _theta_powers(chart, e, variant)
    polys = _rank_loci(chart, e, [(s, jt_rank(a, s)) for s in range(1, chart.p)], power)
    checked, mismatches = _closed_check(chart, e, a, field, variant, budget, seed, samples, polys)
    return ClosedStratumReport(chart.name, a.to_text(), variant, checked, mismatches)


def _closed_check(chart, e, a, field, variant, budget, seed, samples, polys):
    """(checked, mismatches) of `verify_closed_stratum` for the minors polys.

    Each orbit's minors are evaluated at its first swept point, and its
    answer (in the down-set of a, minors vanish) is broadcast to its points.
    """
    values, orbit, orbit_type, types = batch.jordan_types(chart, e, field, variant, budget, seed, samples)
    # orbits are numbered as the sweep meets them: orbit j first appears where the running
    # maximum of the numbers reaches j
    first = np.flatnonzero(np.diff(np.maximum.accumulate(orbit), prepend=-1))
    minors = batch._CompiledPolys(polys, len(chart.params), field.p)
    vanish = ~minors.at_points(field, values[first]).any(axis=1)
    # the zero orbit's number, -1, reads the padding entry
    below = np.array([dominance_leq(jt, a) for jt in types] + [False], dtype=bool)[orbit_type]
    live = orbit_type >= 0
    wrong = live & (below != vanish)
    mismatches = [
        {
            "point": _serialize_values(field, values[i].tolist()),
            "jordan_type": types[orbit_type[j]].to_text(),
            "in_downset": bool(below[j]),
            "minors_vanish": bool(vanish[j]),
        }
        for i, j in zip(np.flatnonzero(wrong[orbit]).tolist(), orbit[wrong[orbit]].tolist())
    ]
    return int(live[orbit].sum()), mismatches


# -- curves and semicontinuity --------------------------------------------------------


@dataclass(frozen=True)
class Curve:
    """A 1-parameter family inside a chart: each parameter becomes a polynomial in t.

    The polynomials are read once into integer arrays, the coordinates of
    their t-coefficients over the curve's field.  Each enters the chart's
    compiled templates and constraints, for the parameters they use, lifted
    once to its `batch._Polys` stack: the regular-representation blocks of
    its t-coefficients, the one layout of the operator along the curve.
    The constraints are substituted once, here, and the templates when the
    curve is first checked.
    """

    chart: Chart
    substitution: dict
    label: str = "curve"

    def __post_init__(self):
        for v in self.chart.params:
            if v not in self.substitution:
                raise ChartError(f"curve misses a value for parameter {v!r}")
            if len(self.substitution[v].ring.variables) != 1:
                raise ChartError(f"the value for parameter {v!r} is not a polynomial in one variable")
        object.__setattr__(self, "_coefficients", self._read_coefficients())
        compiled = self.chart._compiled_constraints
        if compiled.rows and self._substitute(compiled).any():
            raise ChartError("curve violates a chart constraint identically in t")

    @property
    def field(self):
        return self.substitution[self.chart.params[0]].ring.field

    @property
    def _ring(self):
        return batch._Polys(self.field)

    def _read_coefficients(self):
        """Per parameter, the (degree + 1, n) coordinates of its t^0, t^1, ... coefficients."""
        field = self.field
        zero = (0,) * field.n
        out = []
        for v in self.chart.params:
            poly = self.substitution[v]
            own = poly.ring.field == field
            rows = [zero] * (1 + max((e for (e,) in poly.terms), default=0))
            for (e,), c in poly.terms.items():
                rows[e] = c.coeffs if own else field.embed(c).coeffs
            out.append(np.array(rows, dtype=np.int64))
        return tuple(out)

    def _substitute(self, compiled):
        """The (len(polys), S, n, n) stacks of the compiled polynomials along the curve: each
        parameter they use enters as the lifted (degree + 1, n, n) stack of its coordinates."""
        ring, coeffs = self._ring, self._coefficients
        used = np.flatnonzero(compiled.occurs.any(axis=1)).tolist()
        stacks = {v: ring.lift(coeffs[v][:, None, None]) for v in used}
        return compiled.at_stacks(ring, stacks)

    @cached_property
    def tuple_stacks(self):
        """The tuple along the curve: one `batch._Polys` stack (S, N n, N n) per matrix, 1 x 1
        for the additive kinds."""
        chart, ring = self.chart, self._ring
        flat = self._substitute(chart._compiled_templates)
        mats = flat.reshape(chart.r, chart.size, chart.size, *flat.shape[1:])
        if chart.kind != KIND_GL:
            mats = mats[:, :1, :1]
        r, rows, cols, length, n, _ = mats.shape
        # each matrix's (rows, cols, S, n, n) blocks as its (S, rows n, cols n) stack
        stacks = mats.transpose(0, 3, 1, 4, 2, 5).reshape(r, length, rows * n, cols * n)
        return [ring.reduce(m) for m in stacks]

    def operator(self, e, variant):
        """The variant's operator along the curve: the `batch._Polys` stack (S, m n, m n) of its
        t^0, ..., t^(S-1) coefficients (`batch.curve_operator`)."""
        chart = self.chart
        by_variant(variant, None, None)
        _check_pairing(e, chart.kind, chart.p, chart.r)
        return batch.curve_operator(self._ring, chart.kind, e, variant, self.tuple_stacks)

    def validate(self):
        """Raise what `CommutingTuple` raises for the tuple along the curve unless it is a point
        identically in t (`linalg._validate`).  A curve that passed is not checked again."""
        if not self.__dict__.get("_valid"):
            _validate(self._ring, self.tuple_stacks)
            object.__setattr__(self, "_valid", True)

    def special_values(self, field):
        """The point t = 0 over `field`: each parameter's t^0 coefficient."""
        return [field.embed(self.field.element(c[0].tolist())) for c in self._coefficients]


def _polynomial(ring, row):
    """The polynomial row[0] + row[1] t + ... of a one-variable ring, from elements of its field."""
    return Polynomial(ring, {(i,): c for i, c in enumerate(row)})


def curve_from_coeffs(chart, field, coeff_map, label="curve"):
    """Build a curve from {param: [c0, c1, ...]} coefficient lists; a parameter not in the
    map is 0.

    A coefficient is an int, read mod p, or an element of `field` or of a
    field that embeds into it (`PolyRing.constant`).
    """
    ring1 = PolyRing(field, ("t",))
    residues = [field.from_int(c) for c in range(field.p)]

    def element(c):
        if isinstance(c, int):
            return residues[c % field.p]
        return c if c.field == field else field.embed(c)

    subs = {v: _polynomial(ring1, [element(c) for c in coeff_map.get(v, [0])]) for v in chart.params}
    return Curve(chart, subs, label)


def parse_curve_coeffs(text, chart):
    """{param: [c0, c1, ...]} from the `param=c0,c1,...` lines of a curve file.

    Every parameter named must be the chart's, once.  Malformed lines raise
    `ParseError` or `ChartError` naming the line.
    """
    coeffs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, vals = line.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ParseError(f"expected param=c0,c1,..., found {line!r}", line=lineno)
        if key not in chart.params or key in coeffs:
            raise ChartError(f"parameter {key!r} is not one of the chart's or is repeated (line {lineno})")
        try:
            coeffs[key] = [int(v) for v in vals.split(",")]
        except ValueError:
            raise ParseError(f"bad coefficient list {vals.strip()!r}", line=lineno) from None
    return coeffs


@dataclass
class SemicontReport:
    curve_label: str
    variant: str
    generic_type: str
    special_type: str
    ok: bool


def semicontinuity_check(curve, e, variant="full"):
    """JT at the special point t=0 must lie below JT at the generic point of the curve.

    The operator is evaluated once along the curve, as a stack of its
    GF(q)[t] coefficients (`Curve.operator`).  The generic type is read
    from the ranks of its powers over GF(q)(t), the special type from
    those of its t^0 coefficient, since t -> 0 is a ring map: that slice is
    the matrix of a one-point stack, ranked as every single point is.  Both
    go through the loop over the powers that ranks sweeps and single points
    (`jordan._jordan_types`), on the curve's `_Polys` stack and on that
    one-point stack.
    """
    chart, field = curve.chart, curve.field
    op = curve.operator(e, variant)
    generic_jt, = _jordan_types(curve._ring, op, f"matrix is not {chart.p}-nilpotent")
    if chart.kind == KIND_GL:
        curve.validate()
    # the special operator's p-th power vanishes, and its tuple is a point,
    # because the generic ones are
    special_jt, = _jordan_types(_Pointwise(field), op[:1], f"{variant} operator is not p-nilpotent")
    ok = dominance_leq(special_jt, generic_jt)
    return SemicontReport(curve.label, variant, generic_jt.to_text(), special_jt.to_text(), ok)


def builtin_curves(chart, seed, count):
    """Seeded random curves satisfying the chart constraints identically.

    The coefficients are `randrange(p)` draws, kept as integer arrays.  Each
    curve takes the same number of draws, in this order: on `sl2_line`,
    b, d and each l_i, of degree 2, with a = b*d and c = -b*d^2; on
    `upper_glN`, one degree-1 polynomial per entry of a strictly upper C(t),
    then one f_s per matrix, with B_s = f_s*C; on other charts, one of degree
    2 per parameter.  So all are drawn in one block (`batch._randrange`),
    the products are convolutions mod p on `batch._Polys`, and each
    `substitution` polynomial is built from its row of coefficients.
    """
    if count < 0:
        raise JTCalcError(f"curve count {count} is negative")
    p = chart.p
    field = GF(p)
    ring1 = PolyRing(field, ("t",))
    if chart.name == "sl2_line":
        widths = [3] * (2 + chart.r)
    elif chart.name == "upper_glN":
        pairs = [(i, j) for i in range(chart.size) for j in range(i + 1, chart.size)]
        widths = [2] * (len(pairs) + chart.r)
    else:
        widths = [3] * len(chart.params)
    draws = batch._randrange(random.Random(seed), p, count * sum(widths)).reshape(count, sum(widths))
    ring = batch._Polys(field)
    # one (degree + 1, 1, count) stack per drawn polynomial: a row of `count` of them
    stacks = ring.lift(draws.T.astype(np.int64)[:, None, :, None])
    drawn = [stacks[end - w:end] for w, end in zip(widths, itertools.accumulate(widths))]

    def mul(x, y):
        return ring.outer_columns(x, y) % p

    if chart.name == "sl2_line":
        b, d, *ls = drawn
        bd = mul(b, d)
        arrays = {"a": bd, "b": b, "c": -mul(bd, d) % p}
        arrays.update((f"l{i}", l) for i, l in enumerate(ls))
    elif chart.name == "upper_glN":
        entries, fs = drawn[:len(pairs)], drawn[len(pairs):]
        arrays = {f"b{s}_{i}{j}": mul(f, c) for s, f in enumerate(fs) for (i, j), c in zip(pairs, entries)}
    else:
        arrays = dict(zip(chart.params, drawn))
    residues = [field.from_int(c) for c in range(p)]
    rows = {v: a[:, 0].T.tolist() for v, a in arrays.items()}
    return [Curve(chart, {v: _polynomial(ring1, [residues[c] for c in rows[v][idx]]) for v in rows},
                  label=f"{chart.name}-curve-{seed}-{idx}")
            for idx in range(count)]


# -- constant rank audits ---------------------------------------------------------------


@dataclass
class ConstantRankReport:
    module_text: str
    j: int
    per_stratum: dict
    global_constant: bool
    homotopy_checked: int
    failures: list

    @property
    def ok(self):
        return not self.failures


def constant_rank_on_strata(table, chart, e, j, field, homotopy_samples=((1, 0), (0, 1), (1, 1))):
    """Audit rank/kernel/cokernel constancy of theta^j on each stratum.

    When the whole table shares one j-rank, additionally verify the
    homotopy-family operator has that same j-rank at sampled (s:t): at each
    representative every sample is ranked on the point's stack
    (`theta.homotopy_ranks`).  Each representative's tuple and the operator
    of the table's variant are built once, for the audit and the family.
    """
    failures = []
    per_stratum = {}
    m = e.dim()
    jranks = set()
    homotopy_checked = 0
    points = []  # (stratum, representative, tuple, {table variant: (ring, operator)})
    for a, entry in table.entries.items():
        expected_rank = jt_rank(a, j)
        jranks.add(expected_rank)
        audited = []
        for rep in entry.representatives:
            tup = chart.tuple_at(_parse_values(rep, field))
            jt, ring, op = _typed_operator(e, tup, table.variant)
            points.append((a, rep, tup, {table.variant: (ring, op)}))
            rk = jt_rank(jt, j)
            ker = m - rk
            coker = m - rk
            audited.append({"point": rep, "rank": rk, "kernel": ker, "cokernel": coker})
            if rk != expected_rank:
                failures.append(
                    {"stratum": a.to_text(), "point": rep, "rank": rk, "expected": expected_rank}
                )
        per_stratum[a.to_text()] = audited
    global_constant = len(jranks) == 1
    if global_constant and jranks:
        the_rank = jranks.pop()
        for a, rep, tup, built in points:
            for (sv, tv), rk in zip(homotopy_samples, homotopy_ranks(e, tup, homotopy_samples, j, built)):
                homotopy_checked += 1
                if rk != the_rank:
                    failures.append(
                        {
                            "stratum": a.to_text(),
                            "point": rep,
                            "homotopy": f"({sv}:{tv})",
                            "rank": rk,
                            "expected": the_rank,
                        }
                    )
    return ConstantRankReport(e.to_text(), j, per_stratum, global_constant, homotopy_checked, failures)


def _parse_values(texts, field):
    return [_parse_element(s, field) for s in texts]


# a term of an element of GF(p^n) as `FiniteField.element_to_str` writes it: c g^k, c g or c
_TERM = r"(\d*)g(?:\^(\d+))?|(\d+)"


def _parse_element(text, field):
    """The field element a text names: an integer over GF(p); over GF(p^n) a signed sum of
    terms c g^k, c g and c, coefficients c optional on g, k < n ("2g+1", "g^2", "0").

    Anything else raises ParseError naming the text.
    """
    s = re.sub(r"\s*([+-])\s*", r"\1", text.strip())
    if field.n == 1:
        if not re.fullmatch(r"[+-]?\d+", s):
            raise ParseError(f"{text!r} is not an element of {field}")
        return field.from_int(int(s))
    if not re.fullmatch(rf"[+-]?(?:{_TERM})(?:[+-](?:{_TERM}))*", s):
        raise ParseError(f"{text!r} is not an element of {field}")
    coeffs = [0] * field.n
    for sign, head, exp, const in re.findall(rf"([+-]?)(?:{_TERM})", s):
        k = 0 if const else int(exp or 1)
        if k >= field.n:
            raise ParseError(f"{text!r} is not an element of {field}: g^{k} is not a basis power")
        c = int(const or head or 1)
        coeffs[k] += -c if sign == "-" else c
    return field.element(coeffs)
