"""The per-point sweeps, kept as the oracles of the batched ones.

`_pointwise_jordan_types`, `_pointwise_closed_points` and `orbit_reduce` are
the per-point sweep code that `strata` ran for every sweep other than a
`gl` chart over GF(p), unchanged: points come from `enumerate_points`, each
tuple from `Chart.tuple_at`, and `jt_at_point` runs per point (per orbit
for tables); a closed stratum's minors are evaluated at every point by
`Polynomial.evaluate`, read back from their compiled arrays
(`compiled_polynomials`).  Under `pointwise()` they stand in for
`batch.jordan_types` and `strata._closed_check`, so that `tabulate_jt` and
`verify_closed_stratum` build their reports from them.
"""

import contextlib
from unittest import mock

import numpy as np

from jtcalc import batch, strata
from jtcalc.errors import JTCalcError
from jtcalc.fields import FiniteField, Polynomial
from jtcalc.jordan import dominance_leq
from jtcalc.strata import enumerate_points
from jtcalc.theta import KIND_MULTI_GA, jt_at_point, scale_tuple


def _pointwise_jordan_types(chart, e, field, variant, budget, seed, samples):
    """(values, Jordan type) per swept point, None for the zero tuple.

    Every tuple is validated first; `jt_at_point` then runs once per weighted
    scaling orbit, on the orbit's canonical tuple (`orbit_reduce`).
    """
    points = list(enumerate_points(chart, field, budget, seed, samples))
    types = {}
    for values, tup in points:
        if tup.is_zero():
            yield values, None
            continue
        rep = orbit_reduce(tup)
        key = str(rep.serialize())
        if key not in types:
            types[key] = jt_at_point(e, rep, variant)
        yield values, types[key]


def _pointwise_closed_points(chart, e, field, variant, budget, seed, samples, polys):
    """(values, Jordan type, whether every poly vanishes) per nonzero swept point."""
    for values, tup in enumerate_points(chart, field, budget, seed, samples):
        if tup.is_zero():
            continue
        jt = jt_at_point(e, tup, variant)
        yield values, jt, all(poly.evaluate(values).is_zero() for poly in polys)


def orbit_reduce(tup):
    """Canonical representative of the weighted scaling orbit of a nonzero tuple.

    The tuple is scaled (`scale_tuple`) so that its first nonzero entry is 1.
    """
    if tup.is_zero():
        raise JTCalcError("the zero tuple has no projective representative")
    field = tup.domain
    if not isinstance(field, FiniteField):
        raise JTCalcError("orbit reduction works over finite fields")
    entries = ((s, m.entry(i, j)) for s, m in enumerate(tup.mats)
               for i in range(m.rows) for j in range(m.cols))
    s, v = next((s, v) for s, v in entries if not v.is_zero())
    beta = v.inverse()
    # solve alpha^(p^s) = beta: invert the Frobenius, which is bijective;
    # a multi_ga point scales every entry by alpha itself
    if tup.kind == KIND_MULTI_GA or field.n == 1:
        return scale_tuple(tup, beta)
    return scale_tuple(tup, beta.frobenius((-s) % field.n))


def element_indices(values):
    """The element index of each field element (`FiniteField.from_index`), as batched sweeps give values."""
    return [sum(c * v.field.p**i for i, c in enumerate(v.coeffs)) for v in values]


def oracle_jordan_types(chart, *args):
    """The per-point types in the arrays `batch.jordan_types` returns, each point its own orbit."""
    points = list(_pointwise_jordan_types(chart, *args))
    values = np.array([element_indices(values) for values, _ in points], dtype=np.int64)
    index = {}
    orbit_type = np.array([-1 if jt is None else index.setdefault(jt, len(index)) for _, jt in points], dtype=np.intp)
    return values.reshape(len(points), len(chart.params)), np.arange(len(points)), orbit_type, list(index)


def compiled_polynomials(ring, compiled):
    """The `Polynomial`s over the `PolyRing` ring of `batch._CompiledPolys` polynomials, in order."""
    exps = list(map(tuple, compiled.exps.tolist()))
    return [Polynomial(ring, {exps[i]: ring.field.from_int(c) for i, c in enumerate(row)})
            for row in compiled.matrix.tolist()]


def dropped_polys(compiled, count):
    """The compiled polynomials without the first count of them."""
    return batch._CompiledPolys(compiled.exps, compiled.matrix[count:], compiled.p)


def oracle_closed_check(chart, e, a, field, variant, budget, seed, samples, minors):
    """(checked, mismatches) of `verify_closed_stratum`, point by point, for the compiled minors."""
    polys = compiled_polynomials(chart.ring, minors)
    checked, mismatches = 0, []
    for values, jt, vanish in _pointwise_closed_points(chart, e, field, variant, budget, seed, samples, polys):
        checked += 1
        below = dominance_leq(jt, a)
        if below != vanish:
            mismatches.append({"point": [str(v) for v in values], "jordan_type": jt.to_text(),
                               "in_downset": below, "minors_vanish": vanish})
    return checked, mismatches


@contextlib.contextmanager
def pointwise():
    """Within the block, `strata` sweeps through the per-point oracles."""
    with mock.patch.object(batch, "jordan_types", oracle_jordan_types), \
            mock.patch.object(strata, "_closed_check", oracle_closed_check):
        yield
