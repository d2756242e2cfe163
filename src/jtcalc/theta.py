"""
Pointwise realizations of the universal p-nilpotent operators.

A point is a commuting tuple: either r pairwise-commuting p-nilpotent N x N
matrices (matrix-group case, modules built from Std), r scalars (additive
curve of height r, modules are Explicit), or s scalars at height 1 (product
of additive lines).  The full operator reads off the t^(p^(r-1)) coefficient
of the module evaluated on the one-parameter group element

    g(t) = prod_s exp(t^(p^s) B_s),

and the exponential variant is the sum over s of the t^(p^(r-1-s))
coefficient of the module evaluated on exp(t B_s) alone.  At heights 1 and 2
the two coincide; from height 3 on they differ by higher product terms.

Every operator is evaluated by `batch`'s module walker on integer stacks,
the code that runs sweeps and curves.  A point is a tuple over a finite
field, checked once when its `CommutingTuple` is built: a point over any
other domain, or with matrices over different fields, is refused there,
and a `gl` tuple is validated as a sweep validates its points.  Every
point, of every kind, is a one-point `_Pointwise` stack, over GF(p^n)
with each entry its n x n GF(p) regular-representation block, and
`jt_at_point` ranks the operator on that stack.  The operator over the
chart's coordinate ring, whose minors cut out the closed strata, is built
from the chart itself (`strata._symbolic_theta`), not from a point.
`one_param` gives the group element itself, on a truncated curve ring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import KIND_GA, KIND_GL, KIND_MULTI_GA, curve_operator
from .errors import DomainMismatchError, JTCalcError, NotNilpotentError
from .fields import FiniteField, TruncatedCurveRing
from .jordan import _jordan_types, jt_power
from .linalg import ExactMatrix, _mpow, _Pointwise, _validate
from .modules import UnipotentPair, texp_matrix


@dataclass(frozen=True)
class CommutingTuple:
    """A point of the height-r commuting nilpotent variety over a finite field.

    kind "gl":        mats are N x N matrices, checked commuting p-nilpotent
                      when the tuple is built.
    kind "ga":        mats are 1 x 1 (scalars a_s); the additive restricted
                      structure is trivial, so no nilpotency is imposed.
    kind "multi_ga":  height-1 point of a product of s additive lines.

    Building a tuple is the one check of a point: a domain that is not a
    `FiniteField` raises a `JTCalcError` naming it, and matrices over
    another field than the tuple's a `DomainMismatchError`.  Each matrix is
    stored as its one-point `_Pointwise` stack (`ExactMatrix`), which
    validation and the walker read as it is (`_stacks`).
    """

    kind: str
    domain: object
    height: int
    size: int
    mats: tuple

    def __post_init__(self):
        if len(self.mats) != self.height:
            raise JTCalcError("tuple length disagrees with height")
        if not isinstance(self.domain, FiniteField):
            raise JTCalcError(f"points are tuples over finite fields, not over {self.domain}")
        if any(m.domain != self.domain for m in self.mats):
            raise DomainMismatchError("matrix domains differ")
        if self.kind == KIND_GL:
            _validate(*_stacks(self))

    @staticmethod
    def gl(mats):
        mats = tuple(mats)
        return CommutingTuple(KIND_GL, mats[0].domain, len(mats), mats[0].rows, mats)

    @staticmethod
    def _scalar_tuple(kind, scalars, domain):
        rows = [ExactMatrix.from_rows(domain, [[a]]) for a in scalars]
        return CommutingTuple(kind, domain, len(rows), 1, tuple(rows))

    @staticmethod
    def ga(scalars, field):
        return CommutingTuple._scalar_tuple(KIND_GA, scalars, field)

    @staticmethod
    def multi_ga(scalars, field):
        return CommutingTuple._scalar_tuple(KIND_MULTI_GA, scalars, field)

    @property
    def p(self):
        return self.domain.p

    def scalars(self):
        return [self.mats[s].entry(0, 0) for s in range(self.height)]

    def is_zero(self):
        return all(m.is_zero() for m in self.mats)

    def serialize(self):
        return [m.serialize() for m in self.mats]

    def _with_mats(self, mats):
        """This point with other matrices of the same shapes, not checked again.

        For scaling and conjugation, which keep a commuting p-nilpotent tuple so.
        """
        out = object.__new__(CommutingTuple)
        out.__dict__.update(self.__dict__, mats=tuple(mats))
        return out


def scale_tuple(tup, alpha):
    """Weighted scaling: B_s goes to alpha^(p^s) * B_s.

    Both operators of the scaled point are alpha^(p^(r-1)) times those of the
    point, so its Jordan type is the same.  A multi_ga point is a height-1
    point of a product of lines whose operator is linear in every a_i, so
    there all scalars go to alpha * a_i.
    """
    scaled = []
    factor = alpha
    for m in tup.mats:
        scaled.append(m.scalar_mul(factor))
        if tup.kind != KIND_MULTI_GA:
            factor = factor**tup.p
    return tup._with_mats(scaled)


def conjugate_tuple(tup, g):
    """Conjugate every matrix of a gl-kind tuple by an invertible g."""
    if tup.kind != KIND_GL:
        raise JTCalcError("conjugation applies to matrix tuples")
    ginv = g.inverse()
    return tup._with_mats(g @ m @ ginv for m in tup.mats)


def _trunc_ring(tup):
    # multi_ga points live on a product of height-1 lines: one curve parameter
    # with t^p = 0, regardless of how many lines there are.
    r_eff = 1 if tup.kind == KIND_MULTI_GA else tup.height
    return TruncatedCurveRing(tup.domain, r_eff)


def _stacks(tup):
    """The one-point `_Pointwise` ring of a point, and its matrices as stacks of it.

    Every point of every kind is a P = 1 stack, as in a sweep; over GF(p^n)
    each entry is its n x n regular-representation block.  The stacks are
    the matrices' own read-only storage.
    """
    return _Pointwise(tup.domain), [m._data for m in tup.mats]


def _stack_operator(e, tup, variant):
    """(ring, the variant's operator) at a point, built by `batch.curve_operator`.

    The operator is the matrix of the one-point stack; a `gl` tuple was
    checked when it was built.
    """
    ring, mats = _stacks(tup)
    return ring, curve_operator(ring, tup.kind, e, variant, mats)[0]


def _checked_operator(e, tup, variant):
    """`_stack_operator`, with the operator's p-th power checked to vanish."""
    ring, op = _stack_operator(e, tup, variant)
    _check_vanishes(ring, op, variant)
    return ring, op


def _check_vanishes(ring, op, name):
    """Raise unless op^p = 0, for the operator `name` of a one-point stack."""
    if _mpow(ring, op, ring.p).any():
        raise NotNilpotentError(f"{name} operator is not p-nilpotent")


def one_param(tup):
    """The one-parameter group element  prod_s exp(t^(p^s) B_s)  with inverse."""
    return _one_param(tup, with_inv=True)


def _one_param(tup, with_inv):
    """`one_param`; the inverse is multiplied out only when with_inv, else it is None."""
    if tup.kind != KIND_GL:
        raise JTCalcError("one_param needs a matrix tuple")
    ring = _trunc_ring(tup)
    pair = None
    for s, b in enumerate(tup.mats):
        factor = texp_matrix(b, ring, with_inv=with_inv)
        g_inv = factor.g_inv.subs_power(tup.p**s) if with_inv else None
        twisted = UnipotentPair(factor.g.subs_power(tup.p**s), g_inv, checked=False)
        pair = twisted if pair is None else pair * twisted
    return pair


def theta_full(e, tup):
    """Specialization of the universal operator at the point, checked p-nilpotent."""
    return _theta(e, tup, "full")


def theta_exp(e, tup):
    """The linearized (exponential) operator: sum of per-factor coefficients, checked
    p-nilpotent."""
    return _theta(e, tup, "exp")


def _theta(e, tup, variant):
    return ExactMatrix._of_stack(tup.domain, _checked_operator(e, tup, variant)[1][None])


def homotopy_theta(e, tup, s_val, t_val):
    """The projective-line family  s * theta_exp + t * theta_full  at the point, checked
    p-nilpotent."""
    ring, op, name = _homotopy_family(e, tup)(s_val, t_val)
    _check_vanishes(ring, op, name)
    return ExactMatrix._of_stack(tup.domain, op[None])


def jt_homotopy_at_point(e, tup, s_val, t_val):
    """Jordan type of  s * theta_exp + t * theta_full  at the point.

    theta_exp and theta_full are checked p-nilpotent as `homotopy_theta`
    checks them; the sum is checked once, by the final vanishing power of
    its rank profile, as in `jt_at_point`.
    """
    ring, op, name = _homotopy_family(e, tup)(s_val, t_val)
    return _jordan_types(ring, op[None], f"{name} operator is not p-nilpotent")[0]


def homotopy_ranks(e, tup, samples, j, built=None):
    """For each (s, t) of integer samples, the rank of (s theta_exp + t theta_full)^j at a
    point, the sums checked as `homotopy_theta` checks them.

    `built` maps a variant to the (ring, operator) `_typed_operator` gave at
    the point, which is used instead of building it again.
    """
    field = tup.domain
    family = _homotopy_family(e, tup, built)
    sums = []
    for s, t in samples:
        ring, op, name = family(field.from_int(s), field.from_int(t))
        _check_vanishes(ring, op, name)
        sums.append(op)
    if not sums:
        return []
    ring = _Pointwise(field)
    return ring.ranks(_mpow(ring, np.stack(sums), j)).tolist()


def _homotopy_family(e, tup, built=None):
    """sample(s_val, t_val) -> (ring, s theta_exp + t theta_full, its name) at a point, the
    operator of its one-point stack, its p-th power not checked.

    theta_exp and theta_full are built once, at the first sample, unless
    `built` holds them, checked.  The checks raise in this order: (0, 0) is
    excluded, then theta_exp and theta_full must be p-nilpotent; the caller
    checks the sum after them.
    """
    built = built or {}
    ops = []

    def sample(s_val, t_val):
        if s_val.is_zero() and t_val.is_zero():
            raise JTCalcError("homotopy parameters (0, 0) are excluded")
        if not ops:
            ops.extend(built.get(variant) or _checked_operator(e, tup, variant) for variant in ("exp", "full"))
        (ring, exp_op), (_, full_op) = ops
        op = (ring.scale(exp_op, s_val) + ring.scale(full_op, t_val)) % ring.p
        return ring, op, f"homotopy({s_val}:{t_val})"

    return sample


def jt_at_point(e, tup, variant="full"):
    """Local Jordan type of the selected operator at a point.

    The operator is ranked on the point's one-point stack by the loop that
    ranks sweeps and curves (`jordan._jordan_types`), and its p-nilpotency
    is checked once, by the final vanishing power of its rank profile.  The
    point itself was checked when it was built (`CommutingTuple`).
    """
    return _typed_operator(e, tup, variant)[0]


def _typed_operator(e, tup, variant):
    """(Jordan type, ring, operator) of the variant at a point: `jt_at_point`, with
    the operator of the point's one-point stack, checked p-nilpotent."""
    ring, op = _stack_operator(e, tup, variant)
    return _jordan_types(ring, op[None], f"{variant} operator is not p-nilpotent")[0], ring, op


def jt_power_at_point(e, tup, variant, j):
    """Jordan type of the j-th power of the selected operator, at a point.

    This is `jt_power` of the type at the point: under N^j a block [i] of N
    splits into one chain per residue mod j of the position in the block.
    So the operator's rank profile is taken once, and its final vanishing
    power is the one nilpotency check, as in `jt_at_point`.
    """
    if not 1 <= j < tup.p:
        raise JTCalcError(f"power {j} outside 1..p-1")
    return jt_power(jt_at_point(e, tup, variant), j)


def jt_exp_infinite(blist, e):
    """Stable exponential Jordan type of a finite commuting family.

    The family is reversed into a height-r point; appending zero matrices to
    the family does not change the result.
    """
    if not blist:
        raise JTCalcError("need at least one operator")
    reversed_mats = tuple(reversed(blist))
    first = blist[0]
    if first.rows == 1:
        tup = CommutingTuple.ga([m.entry(0, 0) for m in reversed_mats], first.domain)
    else:
        tup = CommutingTuple.gl(reversed_mats)
    return jt_at_point(e, tup, variant="exp")
