"""The object-walker route to the operator over symbolic domains, kept as an oracle.

`strata._symbolic_theta` builds the operator over the chart's polynomial
ring on `batch`'s stack walker (the `monomials._Monomials` ring), and
`strata.rank_locus_minors` takes its minors there.  Before, both went
through `modules.eval_unipotent` on truncated curve rings over the point's
domain, and the minors through `ExactMatrix.minors`; that route is kept
here verbatim, for any domain the object arithmetic supports, with the
additive curve point it reads (`ga_curve_element`).

A `CommutingTuple` is a point over a finite field, so the oracles read a
`SymbolicPoint`: the same fields, over any domain, and not checked.
`validate_commuting_tuple` is the object-arithmetic check of a tuple that
`modules.validate_commuting_tuple` made before it ran on stacks.
"""

from dataclasses import dataclass

import numpy as np

from jtcalc.batch import _check_pairing, by_variant
from jtcalc.errors import CapExceededError, JTCalcError
from jtcalc.fields import TruncElement
from jtcalc.linalg import ExactMatrix
from jtcalc.modules import (
    Explicit,
    _contains_dual,
    eval_ga_point,
    eval_unipotent,
    texp_element,
    texp_matrix,
)
from jtcalc.strata import SYMBOLIC_DIM_CAP, _symbolic_theta
from jtcalc.theta import KIND_GA, KIND_GL, KIND_MULTI_GA, _one_param, _trunc_ring


@dataclass(frozen=True)
class SymbolicPoint:
    """A tuple over any domain, unchecked: what the oracles, `_one_param` and `_trunc_ring` read
    of a `CommutingTuple`.  Over a polynomial ring its conditions hold only modulo the chart's
    constraints."""

    kind: str
    domain: object
    height: int
    size: int
    mats: tuple

    @property
    def p(self):
        return self.domain.p

    def scalars(self):
        return [m.entry(0, 0) for m in self.mats]


def gl_point(mats):
    mats = tuple(mats)
    return SymbolicPoint(KIND_GL, mats[0].domain, len(mats), mats[0].rows, mats)


def scalar_point(kind, scalars, domain):
    mats = tuple(ExactMatrix.from_rows(domain, [[a]]) for a in scalars)
    return SymbolicPoint(kind, domain, len(mats), 1, mats)


def chart_point(chart):
    """The chart's templates as a point over its polynomial ring; (0, 0) entries on the
    additive kinds."""
    if chart.kind == KIND_GL:
        return SymbolicPoint(KIND_GL, chart.ring, chart.r, chart.size, chart.templates)
    return scalar_point(chart.kind, [t.entry(0, 0) for t in chart.templates], chart.ring)


def monomial_matrix(ring, m):
    """The `ExactMatrix` over the polynomial ring of a stack of the `monomials._Monomials` ring."""
    n = ring.n
    count, rows, cols = m.shape
    data = m.reshape(count, rows // n, n, cols // n, n)[..., 0].transpose(1, 3, 0, 2)
    out = []
    for row in data:
        out.append([])
        for entry in row:
            monomials = np.flatnonzero(entry.any(axis=1))
            out[-1].append(ring._polynomial(monomials, entry[monomials]))
    return ExactMatrix.from_rows(ring.poly_ring, out)


def symbolic_theta(chart, e, variant):
    """The variant's operator over the chart's polynomial ring, as `strata` builds it, as an
    `ExactMatrix`."""
    return monomial_matrix(*_symbolic_theta(chart, e, variant))


def validate_commuting_tuple(matrices, p):
    """None when the tuple is pairwise commuting and p-nilpotent, else a report."""
    size = matrices[0].rows
    for idx, m in enumerate(matrices):
        if m.rows != m.cols or m.rows != size:
            return f"matrix {idx} is not square of size {size}"
        if not m.pow(p).is_zero():
            return f"matrix {idx} is not {p}-nilpotent"
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            if matrices[i] @ matrices[j] != matrices[j] @ matrices[i]:
                return f"matrices {i} and {j} do not commute"
    return None


def ga_curve_element(tup):
    """The additive one-parameter point  c(t) = sum_s a_s t^(p^s)."""
    ring = _trunc_ring(tup)
    coeffs = {}
    for s, a in enumerate(tup.scalars()):
        if not a.is_zero():
            coeffs[tup.p**s] = a
    return TruncElement(ring, coeffs)


def _explicit_leaves(e):
    return [leaf for leaf in e.leaves() if isinstance(leaf, Explicit)]


def _rho_full(e, tup):
    """Module evaluated on the full one-parameter group element, over a symbolic domain."""
    ring = _trunc_ring(tup)
    if tup.kind == KIND_GL:
        # g^-1 is read only by Dual nodes
        return eval_unipotent(e, _one_param(tup, _contains_dual(e)))
    if tup.kind == KIND_GA:
        c = ga_curve_element(tup)
        pairs = {leaf: eval_ga_point(leaf, c) for leaf in _explicit_leaves(e)}
        return eval_unipotent(e, None, pairs)
    # multi_ga: each additive line contributes exp(t a_i alpha_i) on every leaf
    t = ring.t()
    pairs = {}
    for leaf in _explicit_leaves(e):
        pair = None
        for a, alpha in zip(tup.scalars(), leaf.matrices):
            factor = texp_element(t * a, alpha)
            pair = factor if pair is None else pair * factor
        pairs[leaf] = pair
    return eval_unipotent(e, None, pairs)


def _rho_factor(e, tup, s):
    """Module evaluated on exp(t B_s) alone (untwisted), over a symbolic domain.

    The action matrices of Explicit leaves stay over their own prime field;
    truncated exponentials embed their scalars on the fly.
    """
    ring = _trunc_ring(tup)
    if tup.kind == KIND_GL:
        # g^-1 is read only by Dual nodes
        return eval_unipotent(e, texp_matrix(tup.mats[s], ring, with_inv=_contains_dual(e)))
    if tup.kind == KIND_GA:
        a = tup.scalars()[s]
        c = TruncElement(ring, {1: a})
        pairs = {leaf: eval_ga_point(leaf, c) for leaf in _explicit_leaves(e)}
        return eval_unipotent(e, None, pairs)
    raise JTCalcError("per-factor evaluation is undefined for multi_ga points")


def _theta_multi(e, tup):
    if isinstance(e, Explicit):
        # bare additive module: the t-coefficient is exactly sum_i a_i alpha_i
        mats = tuple(m.map_entries(tup.domain, tup.domain.embed_scalar) for m in e.matrices)
        total = None
        for a, alpha in zip(tup.scalars(), mats):
            term = alpha.scalar_mul(a)
            total = term if total is None else total + term
        return total
    return _rho_full(e, tup).g.coefficient(1)


def theta_full(e, tup):
    """The full operator's matrix at a point over a symbolic domain."""
    _check_pairing(e, tup.kind, tup.p, tup.height)
    if tup.kind == KIND_MULTI_GA:
        return _theta_multi(e, tup)
    return _rho_full(e, tup).g.coefficient(tup.p ** (tup.height - 1))


def theta_exp(e, tup):
    """The exponential operator's matrix at a point over a symbolic domain."""
    _check_pairing(e, tup.kind, tup.p, tup.height)
    if tup.kind == KIND_MULTI_GA:
        return _theta_multi(e, tup)
    r = tup.height
    total = None
    for s in range(r):
        coeff = _rho_factor(e, tup, s).g.coefficient(tup.p ** (r - 1 - s))
        total = coeff if total is None else total + coeff
    return total


def theta_variant(e, tup, variant):
    return by_variant(variant, theta_full, theta_exp)(e, tup)


def rank_locus_minors(chart, e, variant, j, d):
    """The generators as `rank_locus_minors` computed them: `ExactMatrix.minors` of theta^j."""
    m = e.dim()
    if m > SYMBOLIC_DIM_CAP:
        raise CapExceededError(f"symbolic dimension {m} exceeds cap {SYMBOLIC_DIM_CAP}")
    if not 1 <= j < chart.p:
        raise JTCalcError(f"power {j} outside 1..p-1")
    if not 0 <= d <= m:
        raise JTCalcError(f"rank bound {d} outside 0..{m}")
    if d >= m:
        return []
    return theta_variant(e, chart_point(chart), variant).pow(j).minors(d + 1)
