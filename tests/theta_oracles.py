"""The object-walker route to the operator over symbolic domains, kept as an oracle.

`theta` builds the operator over a `PolyRing` on `batch`'s stack walker
(the `monomials._Monomials` ring), and `strata.rank_locus_minors` takes
its minors there.  Before, both went through `modules.eval_unipotent` on truncated
curve rings over the point's domain, and the minors through
`ExactMatrix.minors`; that route is kept here verbatim, for any domain the
object arithmetic supports, with the additive curve point it reads
(`ga_curve_element`).
"""

from jtcalc.batch import _check_pairing, by_variant
from jtcalc.errors import CapExceededError, JTCalcError
from jtcalc.fields import TruncElement
from jtcalc.modules import (
    Explicit,
    _contains_dual,
    eval_ga_point,
    eval_unipotent,
    texp_element,
    texp_matrix,
)
from jtcalc.strata import SYMBOLIC_DIM_CAP
from jtcalc.theta import KIND_GA, KIND_GL, KIND_MULTI_GA, _one_param, _trunc_ring


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
    return theta_variant(e, chart.symbolic_tuple(), variant).pow(j).minors(d + 1)
