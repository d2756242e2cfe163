"""
Dense exact matrices over the coefficient domains of `fields`.

Two storage layouts sit behind one facade:

* finite-field matrices are numpy int arrays of shape (rows, cols, n),
  carrying GF(p^n) coordinates, with vectorized mod-p kernels;
* everything else (polynomial rings, function fields, truncated curve
  rings) is a plain tuple-of-tuples of ring elements.

The universal operator at a finite-field point is built on integer stacks
by `batch`, not on these matrices; it arrives here as a finite-field
matrix for its rank profile.

Over GF(p) the kernels are plain integer numpy products reduced mod p.
Over GF(p^n), n > 1, products, Kronecker products (full or column-paired)
and scalar multiples are one integer product each: the coordinate slices
of one factor are stacked against the regular representation of the other
(x^a times each entry), taken from the field's multiplication tensor.

Rank and kernels are only defined over fields.  Elimination runs over GF(p)
alone: pivots are inverted by Fermat's little theorem and each pivot step
is one outer-product update.  A GF(p^n) matrix is eliminated as its
(rows*n) x (cols*n) GF(p) regular representation; its rank is the GF(p)
rank divided by n, and its reduced echelon form is read back from the
blocks.  Over GF(q)(x) elimination clears denominators and runs
fraction-free (Bareiss) on dense integer coefficient stacks over GF(p)[x],
through the regular representation when q = p^n, n > 1; the same kernel
takes the powers and ranks of polynomial operators along a curve.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DomainMismatchError, JTCalcError
from .fields import (
    FFElement,
    FiniteField,
    RationalFunctionField,
    TruncatedCurveRing,
    _up_divmod,
    _up_mul,
    _up_trim,
    require_field,
)

_FF = "ff"
_OBJ = "obj"


def _freeze(arr):
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    arr.setflags(write=False)
    return arr


# -- vectorized GF(p^n) kernels ---------------------------------------------


def _regular(field, A):
    """Regular representation of each entry: out[..., a, c] = coefficient c of x^a * A[...].

    Entries are left unreduced (below n*p^2); callers reduce mod p.  The
    multiplication tensor is symmetric in its first two axes, so it contracts
    with A's coordinate axis as one (n, n*n) product.
    """
    n = field.n
    return (A @ field.mul_tensor.reshape(n, n * n)).reshape(A.shape[:-1] + (n, n))


def _ff_mmul(field, A, B):
    n = field.n
    if n == 1:
        return (A[..., 0] @ B[..., 0])[..., None] % field.p
    rows, inner, cols = A.shape[0], B.shape[0], B.shape[1]
    if not A[..., 1:].any():
        # GF(p) entries on the left (a lifted 0/1 map, say) scale every coordinate alike
        return (A[..., 0] @ B.reshape(inner, cols * n)).reshape(rows, cols, n) % field.p
    Breg = _regular(field, B).transpose(0, 2, 1, 3).reshape(inner * n, cols * n)
    return (A.reshape(rows, inner * n) @ Breg).reshape(rows, cols, n) % field.p


def _np_kron(Aa, Bb):
    ra, ca = Aa.shape
    rb, cb = Bb.shape
    return (Aa[:, None, :, None] * Bb[None, :, None, :]).reshape(ra * rb, ca * cb)


def _ff_kron(field, A, B):
    n = field.n
    ra, ca = A.shape[0], A.shape[1]
    rb, cb = B.shape[0], B.shape[1]
    if n == 1:
        return (_np_kron(A[..., 0], B[..., 0]) % field.p)[..., None]
    Breg = _regular(field, B).transpose(2, 0, 1, 3).reshape(n, rb * cb * n)
    prod = (A.reshape(ra * ca, n) @ Breg).reshape(ra, ca, rb, cb, n)
    return prod.transpose(0, 2, 1, 3, 4).reshape(ra * rb, ca * cb, n) % field.p


def _ff_column_kron(field, A, B):
    """Column-paired Kronecker product of (ra, c, n) and (rb, c, n) arrays.

    out[i*rb + v, k] = A[i, k] * B[v, k]; over GF(p^n) one batched integer
    product of A against the regular representation of B, column by column.
    """
    ra, c, n = A.shape
    rb = B.shape[0]
    if n == 1:
        return (A[:, None] * B[None]).reshape(ra * rb, c, 1) % field.p
    Breg = _regular(field, B).transpose(1, 2, 0, 3).reshape(c, n, rb * n)
    prod = A.transpose(1, 0, 2) @ Breg
    return prod.reshape(c, ra, rb, n).transpose(1, 2, 0, 3).reshape(ra * rb, c, n) % field.p


def _ff_scalar(field, A, s):
    if field.n == 1:
        return A * int(s[0]) % field.p
    return A @ _regular(field, s) % field.p


def _ff_frob(field, A, e):
    if field.n == 1 or e == 0:
        return A % field.p
    F = field.frobenius_matrix
    Fe = np.eye(field.n, dtype=np.int64)
    for _ in range(e % field.n):
        Fe = (F @ Fe) % field.p
    return np.tensordot(A, Fe.T, axes=([A.ndim - 1], [0])) % field.p


def _gfp_rref(M, p):
    """Reduced row echelon form over GF(p) of a 2-D integer array (on a copy); returns
    (matrix, pivot columns)."""
    M = M % p
    rows, cols = M.shape
    pivots = []
    pr = 0
    for col in range(cols):
        if pr >= rows:
            break
        nz = M[pr:, col].nonzero()[0]
        if not nz.size:
            continue
        piv = pr + int(nz[0])
        if piv != pr:
            row = M[piv].copy()
            M[piv] = M[pr]
            M[pr] = row
        v = int(M[pr, col])
        if v != 1:
            M[pr, col:] = M[pr, col:] * pow(v, p - 2, p) % p
        # every row but the pivot row is cleared, as a view
        rest = M[:, col:]
        factors = rest[:, :1].copy()
        factors[pr] = 0
        rest -= factors * M[pr, col:]
        rest %= p
        pivots.append(col)
        pr += 1
    return M, pivots


def _block_rank(M, p, n):
    """GF(p^n)-rank of a GF(p) matrix of n x n regular-representation blocks (the layout of
    `_regular_matrix`), by fraction-free block steps.

    Every block is the matrix of multiplication by an element of GF(p^n),
    so the blocks commute, a block is zero exactly when its column 0 is,
    and a nonzero block P is invertible.  With pivot block P in block
    column j, each block row i below, with block B_i there, becomes
    P row_i - B_i pivot_row: its block j vanishes, its blocks stay in the
    image of GF(p^n), and the rank is kept.  n = 1 is plain fraction-free
    elimination mod p.
    """
    rows, cols = M.shape[0] // n, M.shape[1] // n
    M = M.reshape(rows, n, cols * n) % p
    rank = 0
    for j in range(0, cols * n, n):
        if rank == rows:
            break
        # the block rows, from the rank-th on, of the nonzero entries of column j: sorted, with
        # one entry for each nonzero coordinate of a block's column 0
        nz = M[rank:, :, j].nonzero()[0]
        if not nz.size:
            continue
        if nz[0]:
            row = M[rank + nz[0]].copy()
            M[rank + nz[0]] = M[rank]
            M[rank] = row
        rank += 1
        if nz[-1] != nz[0]:
            pivot = M[rank - 1, :, j:]
            below = M[rank:, :, j:]
            below[:] = (pivot[:, :n] @ below - below[:, :, :n] @ pivot) % p
    return rank


def _regular_matrix(field, M):
    """The (rows*n) x (cols*n) GF(p) matrix of a GF(p^n) matrix acting on GF(p)-coordinates.

    Row (i, c) and column (j, a) hold coefficient c of M[i, j] * x^a.
    """
    rows, cols, n = M.shape
    if n == 1:
        return M[..., 0]
    return _regular(field, M).transpose(0, 3, 1, 2).reshape(rows * n, cols * n)


def _ff_rank(field, M):
    """GF(p^n)-rank, by block pivots on the regular representation (`_block_rank`)."""
    return _block_rank(_regular_matrix(field, M), field.p, field.n)


def _ff_rref(field, M):
    """Reduced row echelon form over GF(p^n); returns (matrix, pivot column list).

    The GF(p) reduced form of the regular representation is the regular
    representation of the GF(p^n) reduced form, so column (j, 0) of each
    block carries the entries back, and each GF(p^n) pivot column j shows
    up as the n GF(p) pivots (j, 0), ..., (j, n-1).
    """
    n = field.n
    rows, cols = M.shape[0], M.shape[1]
    R, pivots = _gfp_rref(_regular_matrix(field, M), field.p)
    R = R.reshape(rows, n, cols, n)[:, :, :, 0].transpose(0, 2, 1)
    return R, [c // n for c in pivots[::n]]


# -- generic object-entry kernels -------------------------------------------


def _obj_mmul(domain, A, B):
    cols = len(B[0]) if B else 0
    one = domain.one()
    out = []
    for a_row in A:
        # a lifted 0/1 map (Sym's mu_d) or a triangular factor is mostly zeros and
        # ones: zeros add nothing, and ones add without a multiplication
        terms = [(k, None if a == one else a) for k, a in enumerate(a_row) if not a.is_zero()]
        row = []
        for j in range(cols):
            acc = domain.zero()
            for k, a in terms:
                acc = acc + (B[k][j] if a is None else a * B[k][j])
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _obj_rref(domain, A, full=False):
    M = [list(r) for r in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    pr = 0
    for col in range(cols):
        if pr >= rows:
            break
        piv = -1
        for r in range(pr, rows):
            if not M[r][col].is_zero():
                piv = r
                break
        if piv == -1:
            continue
        M[pr], M[piv] = M[piv], M[pr]
        inv = M[pr][col].inverse()
        M[pr] = [v * inv for v in M[pr]]
        targets = range(rows) if full else range(pr + 1, rows)
        for r in targets:
            if r == pr or M[r][col].is_zero():
                continue
            f = M[r][col]
            M[r] = [a - f * b for a, b in zip(M[r], M[pr])]
        pivots.append(col)
        pr += 1
    return tuple(tuple(r) for r in M), pivots


def _det_subset_dp(domain, entries, rows, cols):
    """Determinant of the square submatrix entries[rows][cols] by subset DP.

    Choosing column c for the next row contributes one inversion per
    already-used column of larger index.
    """
    k = len(rows)
    if k == 0:
        return domain.one()
    states = {0: domain.one()}
    for ri in rows:
        nxt = {}
        for used, val in states.items():
            if val.is_zero():
                continue
            for jpos, cj in enumerate(cols):
                bit = 1 << jpos
                if used & bit:
                    continue
                e = entries[ri][cj]
                if e.is_zero():
                    continue
                inversions = bin(used >> (jpos + 1)).count("1")
                term = val * e
                if inversions % 2:
                    term = -term
                key = used | bit
                acc = nxt.get(key)
                nxt[key] = term if acc is None else acc + term
        states = nxt
        if not states:
            return domain.zero()
    return states.get((1 << k) - 1, domain.zero())


# -- dense GF(p)[x] kernel ---------------------------------------------------------
#
# A matrix over GF(p)[x] is an int64 stack of shape (L, rows, cols): slice k
# holds the x^k coefficients of the entries, padded with zeros to the common
# length L.  Coefficients are kept below p and reduced once per product, which
# is exact in int64 for any realistic length (Dumas, Giorgi & Pernet,
# FFLAS/FFPACK, ACM TOMS 2008).  Over GF(p^n), n > 1, a matrix is stacked as
# its (rows*n) x (cols*n) GF(p)[x] regular representation; GF(p^n)(x) is a
# degree-n extension of GF(p)(x), so ranks divide by n.  The operator along a
# curve (`batch._Polys`) keeps the same leading coefficient axis, with the
# GF(p^n) coordinates on a last axis, and multiplies through `_convolve` too.


def _px_trim(M):
    """Drop the trailing coefficients that are zero in every entry (keeping one)."""
    nz = M.any(axis=tuple(range(1, M.ndim))).nonzero()[0]
    return M[:nz[-1] + 1 if nz.size else 1]


def _skew_sum(prod):
    """out[k] = sum of prod[i, j] over i + j = k: the convolution of two coefficient sequences.

    Row i of prod is written into a buffer row one longer than the result,
    so reading the buffer back with the result's row length shifts row i by i.
    """
    sa, sb = prod.shape[:2]
    if sa == 1:
        return prod[0]
    if sb == 1:
        return prod[:, 0]
    rest = prod.shape[2:]
    width = sa + sb - 1
    buf = np.zeros((sa, width + 1) + rest, dtype=np.int64)
    buf[:, :sb] = prod
    return buf.reshape((sa * (width + 1),) + rest)[: sa * width].reshape((sa, width) + rest).sum(axis=0)


# int64 cells of the broadcast product of one block of `_convolve`: bounds its
# memory whatever the lengths of its factors.  On the semicontinuity answers
# of the `loci` bench, bounds up to 2^14 cells leave the peak RSS of a pass
# where it is, while 2^15 raises it by 0.6 MB and 2^16 by 1.9 MB; the time
# does not move measurably between 2^11 and 2^16.
_PAIR_CELLS = 1 << 13


def _convolve(A, B):
    """Unreduced product of two polynomials with matrix coefficients: out[k] = sum of
    A[i] @ B[j] over i + j = k.

    A is (la, ..., r, k) and B is (lb, ..., k, c), with the same batch axes.
    A block of A's coefficients is multiplied with all of B's in one
    broadcast integer product of at most `_PAIR_CELLS` cells (one
    coefficient of A at least), and its pairs are summed along anti-diagonals.
    """
    la, lb = len(A), len(B)
    cells = lb * math.prod(A.shape[1:-1]) * B.shape[-1]
    step = max(1, _PAIR_CELLS // max(cells, 1))
    if step >= la:
        return _skew_sum(A[:, None] @ B[None])
    out = np.zeros((la + lb - 1,) + A.shape[1:-1] + B.shape[-1:], dtype=np.int64)
    for start in range(0, la, step):
        part = _skew_sum(A[start:start + step, None] @ B[None])
        out[start:start + len(part)] += part
    return out


def _px_mmul(A, B, p):
    """Product of (la, r, k) and (lb, k, c) stacks."""
    return _px_trim(_convolve(A, B) % p)


def _px_series_inverse(b, length, p):
    """First `length` coefficients of 1/b as a power series (b[0] != 0), by Newton iteration."""
    inv = np.zeros(length, dtype=np.int64)
    inv[0] = pow(int(b[0]), p - 2, p)
    k = 1
    while k < length:
        k = min(2 * k, length)
        err = -np.convolve(b[:k], inv[:k])[:k] % p
        err[0] = (err[0] + 2) % p
        inv[:k] = np.convolve(inv[:k], err)[:k] % p
    return inv


def _px_exact_div(num, den, p):
    """num / den for a stack whose every entry den divides; den is trimmed.

    With L the stack length and d = deg den, reversing coefficients turns
    num = q * den into rev_L(num) = rev(q) * rev(den) with rev(den)(0) the
    leading coefficient of den, so rev(q) is rev_L(num) times the power-series
    inverse of rev(den), modulo x^(L - d): one product with a Toeplitz matrix.
    """
    d = len(den) - 1
    if len(num) <= d:
        num = np.pad(num, [(0, d + 1 - len(num))] + [(0, 0)] * (num.ndim - 1))
    k = len(num) - d
    inv = _px_series_inverse(den[::-1], k, p)
    lag = np.arange(k)[:, None] - np.arange(k)[None, :]
    toeplitz = np.where(lag >= 0, inv[lag % k], 0)
    quot = (toeplitz @ num[::-1][:k].reshape(k, -1) % p)[::-1].reshape((k,) + num.shape[1:])
    back = _px_mmul(den[:, None, None], quot.reshape(k, 1, -1), p).reshape((-1,) + num.shape[1:])
    if not np.array_equal(back, _px_trim(num)):
        raise JTCalcError("fraction-free elimination lost exactness")
    return quot


def _px_rank(M, p):
    """Rank over GF(p)(x) of an (L, rows, cols) GF(p)[x] stack by fraction-free (Bareiss) elimination.

    The pivot is the first nonzero entry of the first nonzero column.  Only
    the block below and right of it is kept; its entries become
    (pivot * entry - column entry * row entry) / previous pivot, an exact
    division by Sylvester's identity.
    """
    M = _px_trim(M % p)
    prev = None
    rank = 0
    while M.size:
        nonzero = M.any(axis=0)
        cols = nonzero.any(axis=0).nonzero()[0]
        if not cols.size:
            break
        col = int(cols[0])
        piv = int(nonzero[:, col].nonzero()[0][0])
        pivot = _px_trim(M[:, piv, col])
        rank += 1
        rest = np.delete(M, piv, axis=1)
        block = rest[:, :, col + 1:]
        if not block.size:
            break
        length, r, c = block.shape
        scaled = _px_mmul(pivot[:, None, None], block.reshape(length, 1, r * c), p).reshape(-1, r, c)
        cross = _px_mmul(rest[:, :, col, None], M[:, piv, None, col + 1:], p)
        num = np.zeros((max(len(scaled), len(cross)), r, c), dtype=np.int64)
        num[:len(scaled)] += scaled
        num[:len(cross)] -= cross
        num = _px_trim(num % p)
        if not num.any():
            # the quotient is zero too: no pivot is left
            break
        M = num if prev is None else _px_trim(_px_exact_div(num, prev, p))
        prev = pivot
    return rank


def _px_stack(field, rows):
    """GF(p)[x] stack of a GF(p^n)[x] matrix given as rows of {exponent: FFElement} maps."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    length = 1 + max((e for row in rows for entry in row for e in entry), default=0)
    data = np.zeros((length, nr, nc, field.n), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            for e, v in entry.items():
                data[e, i, j] = field.embed(v).coeffs
    return _px_of_coefficients(field, data)


def _px_of_coefficients(field, data):
    """GF(p)[x] stack of a GF(p^n)[x] matrix given as an (L, rows, cols, n) array:
    the coordinates of its x^0, ..., x^(L-1) coefficients."""
    if field.n == 1:
        return data[..., 0]
    length, nr, nc, n = data.shape
    # row (i, c), column (j, a): coefficient c of entry(i, j) * x^a, as in _regular_matrix
    reg = _regular(field, data) % field.p
    return reg.transpose(0, 1, 4, 2, 3).reshape(length, nr * n, nc * n)


class _PolyMatrix:
    """A matrix over GF(p^n)[x] as the GF(p)[x] stack of its regular representation.

    It has what `jordan.jt_of_nilpotent` and `modules.validate_commuting_tuple`
    read: shape, `is_zero`, `@`, `pow`, `==` and the rank over GF(p^n)(x).
    """

    __slots__ = ("rows", "cols", "n", "p", "_data")

    def __init__(self, rows, cols, n, p, data):
        self.rows = rows
        self.cols = cols
        self.n = n
        self.p = p
        self._data = data

    @staticmethod
    def of_coefficients(field, data):
        """The matrix over GF(p^n)[x] whose x^k coefficient has the coordinates data[k]."""
        return _PolyMatrix(data.shape[1], data.shape[2], field.n, field.p, _px_of_coefficients(field, data))

    def is_zero(self):
        return not self._data.any()

    def rank(self):
        return _px_rank(self._data, self.p) // self.n

    def __matmul__(self, other):
        return _PolyMatrix(self.rows, other.cols, self.n, self.p, _px_mmul(self._data, other._data, self.p))

    def __eq__(self, other):
        return np.array_equal(_px_trim(self._data), _px_trim(other._data))

    def pow(self, k):
        """self^k, k >= 1; the products stop at the first power that vanishes."""
        out = self
        for _ in range(k - 1):
            if out.is_zero():
                break
            out = out @ self
        return out


class ExactMatrix:
    """Immutable dense matrix over a fixed coefficient domain."""

    __slots__ = ("domain", "rows", "cols", "_backend", "_data")

    def __init__(self, domain, rows, cols, backend, data):
        self.domain = domain
        self.rows = rows
        self.cols = cols
        self._backend = backend
        self._data = data

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rows(domain, rows):
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(r) != nc for r in rows):
            raise JTCalcError("matrix rows must have equal length")
        if isinstance(domain, FiniteField):
            data = np.zeros((nr, nc, domain.n), dtype=np.int64)
            for i, row in enumerate(rows):
                for j, v in enumerate(row):
                    if isinstance(v, int):
                        v = domain.from_int(v)
                    elif v.field != domain:
                        v = domain.embed(v)
                    data[i, j] = v.coeffs
            return ExactMatrix(domain, nr, nc, _FF, _freeze(data))
        norm = []
        for row in rows:
            out = []
            for v in row:
                if isinstance(v, int):
                    v = domain.embed_int(v)
                elif isinstance(v, FFElement) and isinstance(domain, TruncatedCurveRing):
                    v = domain.constant(v)
                out.append(v)
            norm.append(tuple(out))
        return ExactMatrix(domain, nr, nc, _OBJ, tuple(norm))

    @staticmethod
    def from_coords(field, data):
        """A finite-field matrix from a (rows, cols, n) integer array of reduced coordinates."""
        return ExactMatrix(field, data.shape[0], data.shape[1], _FF, _freeze(data))

    @staticmethod
    def zeros(domain, rows, cols):
        if isinstance(domain, FiniteField):
            return ExactMatrix(domain, rows, cols, _FF, _freeze(np.zeros((rows, cols, domain.n))))
        z = domain.zero()
        return ExactMatrix(domain, rows, cols, _OBJ, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(domain, n):
        if isinstance(domain, FiniteField):
            data = np.zeros((n, n, domain.n), dtype=np.int64)
            one = domain.one().coeffs
            for i in range(n):
                data[i, i] = one
            return ExactMatrix(domain, n, n, _FF, _freeze(data))
        one, zero = domain.one(), domain.zero()
        return ExactMatrix(
            domain, n, n, _OBJ,
            tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)),
        )

    # -- entry access ----------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i, j):
        if self._backend == _FF:
            return FFElement(self.domain, tuple(int(v) for v in self._data[i, j]))
        return self._data[i][j]

    def to_rows(self):
        return [[self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def _obj_rows(self):
        if self._backend == _OBJ:
            return self._data
        return tuple(tuple(self.entry(i, j) for j in range(self.cols)) for i in range(self.rows))

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, ExactMatrix) or other.domain != self.domain:
            raise DomainMismatchError("matrix domains differ")
        return other

    def __add__(self, other):
        other = self._check(other)
        if self.shape != other.shape:
            raise JTCalcError("shape mismatch in matrix addition")
        if self._backend == _FF and other._backend == _FF:
            return ExactMatrix(self.domain, self.rows, self.cols, _FF,
                               _freeze((self._data + other._data) % self.domain.p))
        a, b = self._obj_rows(), other._obj_rows()
        return ExactMatrix(self.domain, self.rows, self.cols, _OBJ,
                           tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)))

    def __neg__(self):
        if self._backend == _FF:
            return ExactMatrix(self.domain, self.rows, self.cols, _FF,
                               _freeze((-self._data) % self.domain.p))
        return ExactMatrix(self.domain, self.rows, self.cols, _OBJ,
                           tuple(tuple(-x for x in r) for r in self._obj_rows()))

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        other = self._check(other)
        if self.cols != other.rows:
            raise JTCalcError("shape mismatch in matrix product")
        if self._backend == _FF and other._backend == _FF:
            return ExactMatrix(self.domain, self.rows, other.cols, _FF,
                               _freeze(_ff_mmul(self.domain, self._data, other._data)))
        return ExactMatrix(self.domain, self.rows, other.cols, _OBJ,
                           _obj_mmul(self.domain, self._obj_rows(), other._obj_rows()))

    def scalar_mul(self, s):
        if self._backend == _FF:
            s = self.domain.embed(s) if not isinstance(s, int) else self.domain.from_int(s)
            arr = _ff_scalar(self.domain, self._data, np.array(s.coeffs, dtype=np.int64))
            return ExactMatrix(self.domain, self.rows, self.cols, _FF, _freeze(arr))
        if isinstance(s, int):
            s = self.domain.embed_int(s)
        return ExactMatrix(self.domain, self.rows, self.cols, _OBJ,
                           tuple(tuple(x * s for x in r) for r in self._obj_rows()))

    def kron(self, other):
        other = self._check(other)
        if self._backend == _FF and other._backend == _FF:
            return ExactMatrix(self.domain, self.rows * other.rows, self.cols * other.cols, _FF,
                               _freeze(_ff_kron(self.domain, self._data, other._data)))
        a, b = self._obj_rows(), other._obj_rows()
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                row = []
                for j in range(self.cols):
                    for l in range(other.cols):
                        row.append(a[i][j] * b[k][l])
                out.append(tuple(row))
        return ExactMatrix(self.domain, self.rows * other.rows, self.cols * other.cols, _OBJ, tuple(out))

    def column_kron(self, other, left, right):
        """Column-paired Kronecker product: column c is self[:, left[c]] (x) other[:, right[c]].

        Rows are in Kronecker order (i, v) -> i * other.rows + v; left and
        right are equal-length integer index arrays.
        """
        other = self._check(other)
        head = (self.domain, self.rows * other.rows, len(left))
        if self._backend == _FF and other._backend == _FF:
            return ExactMatrix(*head, _FF, _freeze(
                _ff_column_kron(self.domain, self._data[:, left], other._data[:, right])))
        a, b = self._obj_rows(), other._obj_rows()
        pairs = list(zip(left.tolist(), right.tolist()))
        return ExactMatrix(*head, _OBJ, tuple(
            tuple(ra[l] * rb[r] for l, r in pairs) for ra in a for rb in b))

    def transpose(self):
        if self._backend == _FF:
            return ExactMatrix(self.domain, self.cols, self.rows, _FF,
                               _freeze(self._data.transpose(1, 0, 2)))
        rows = self._obj_rows()
        return ExactMatrix(self.domain, self.cols, self.rows, _OBJ,
                           tuple(tuple(rows[i][j] for i in range(self.rows)) for j in range(self.cols)))

    def pow(self, k):
        if self.rows != self.cols:
            raise JTCalcError("matrix power needs a square matrix")
        result = ExactMatrix.identity(self.domain, self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def frobenius(self, e=1):
        """Entry-wise x -> x^(p^e); a ring homomorphism in characteristic p."""
        if e == 0:
            return self
        if self._backend == _FF:
            return ExactMatrix(self.domain, self.rows, self.cols, _FF,
                               _freeze(_ff_frob(self.domain, self._data, e)))
        return ExactMatrix(self.domain, self.rows, self.cols, _OBJ,
                           tuple(tuple(x.frobenius(e) for x in r) for r in self._obj_rows()))

    # -- truncated-ring specials ------------------------------------------------

    def coefficient(self, e):
        """Coefficient of t^e, as a matrix over the base domain."""
        if not isinstance(self.domain, TruncatedCurveRing):
            raise JTCalcError("coefficient extraction needs a truncated curve ring")
        rows = [[self._data[i][j].coeff(e) for j in range(self.cols)] for i in range(self.rows)]
        return ExactMatrix.from_rows(self.domain.base, rows)

    def subs_power(self, k):
        """Substitute t -> t^k."""
        if not isinstance(self.domain, TruncatedCurveRing):
            raise JTCalcError("substitution needs a truncated curve ring")
        return ExactMatrix(self.domain, self.rows, self.cols, _OBJ,
                           tuple(tuple(x.subs_power(k) for x in r) for r in self._obj_rows()))

    # -- predicates ---------------------------------------------------------------

    def is_zero(self):
        if self._backend == _FF:
            return not self._data.any()
        return all(x.is_zero() for r in self._obj_rows() for x in r)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if other.domain != self.domain or other.shape != self.shape:
            return False
        if self._backend == _FF and other._backend == _FF:
            return bool((self._data == other._data).all())
        a, b = self._obj_rows(), other._obj_rows()
        return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))

    def __hash__(self):
        # equal matrices share domain and shape; hashing only those keeps it consistent with ==
        return hash((self.domain, self.rows, self.cols))

    # -- rank / kernel / determinants ----------------------------------------------

    def rank(self):
        """Exact rank; requires the coefficient domain to be a field."""
        if isinstance(self.domain, FiniteField):
            return _ff_rank(self.domain, self._data)
        if isinstance(self.domain, RationalFunctionField):
            field = self.domain.field
            rows = [[dict(enumerate(v)) for v in row] for row in self._cleared_rows()]
            return _px_rank(_px_stack(field, rows), field.p) // field.n
        require_field(self.domain)
        _, pivots = _obj_rref(self.domain, self._obj_rows())
        return len(pivots)

    def _cleared_rows(self):
        """Clear denominators row-wise; rows of dense coefficient tuples."""
        field = self.domain.field
        out = []
        for i in range(self.rows):
            entries = [self.entry(i, j) for j in range(self.cols)]
            row_den = (field.one(),)
            for v in entries:
                row_den = _up_mul(row_den, v.den, field)
            row = []
            for v in entries:
                quot, rem = _up_divmod(row_den, v.den, field)
                if _up_trim(rem):
                    raise JTCalcError("denominator clearing failed")
                row.append(_up_mul(v.num, quot, field))
            out.append(row)
        return out

    def kernel_basis(self):
        """Exact basis of the right kernel (list of column vectors as element lists)."""
        if isinstance(self.domain, FiniteField):
            R, pivots = _ff_rref(self.domain, self._data)
            field = self.domain
            free = [c for c in range(self.cols) if c not in pivots]
            basis = []
            for f in free:
                vec = [field.zero()] * self.cols
                vec[f] = field.one()
                for pr, pc in enumerate(pivots):
                    vec[pc] = -FFElement(field, tuple(int(v) for v in R[pr, f]))
                basis.append(vec)
            return basis
        require_field(self.domain)
        R, pivots = _obj_rref(self.domain, self._obj_rows(), full=True)
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for f in free:
            vec = [self.domain.zero()] * self.cols
            vec[f] = self.domain.one()
            for pr, pc in enumerate(pivots):
                vec[pc] = -R[pr][f]
            basis.append(vec)
        return basis

    def det(self):
        if self.rows != self.cols:
            raise JTCalcError("determinant needs a square matrix")
        return _det_subset_dp(self.domain, self._obj_rows(),
                              tuple(range(self.rows)), tuple(range(self.cols)))

    def minors(self, size):
        """All size x size minors, row-major over (row subset, column subset) pairs."""
        if not 1 <= size <= min(self.rows, self.cols):
            raise JTCalcError(f"minor size {size} out of range")
        rows = self._obj_rows()
        out = []
        for rsel in itertools.combinations(range(self.rows), size):
            for csel in itertools.combinations(range(self.cols), size):
                out.append(_det_subset_dp(self.domain, rows, rsel, csel))
        return out

    def inverse(self):
        if self.rows != self.cols:
            raise JTCalcError("inverse needs a square matrix")
        n = self.rows
        if isinstance(self.domain, FiniteField):
            aug = np.concatenate([self._data, ExactMatrix.identity(self.domain, n)._data], axis=1)
            R, pivots = _ff_rref(self.domain, aug)
            if len(pivots) < n or pivots[:n] != list(range(n)):
                raise JTCalcError("matrix is singular")
            return ExactMatrix(self.domain, n, n, _FF, _freeze(R[:, n:, :]))
        require_field(self.domain)
        ident = ExactMatrix.identity(self.domain, n)._obj_rows()
        aug = tuple(ra + rb for ra, rb in zip(self._obj_rows(), ident))
        R, pivots = _obj_rref(self.domain, aug, full=True)
        if len(pivots) < n or pivots[:n] != list(range(n)):
            raise JTCalcError("matrix is singular")
        return ExactMatrix(self.domain, n, n, _OBJ, tuple(r[n:] for r in R))

    # -- structure -------------------------------------------------------------------

    def map_entries(self, new_domain, f):
        rows = [[f(self.entry(i, j)) for j in range(self.cols)] for i in range(self.rows)]
        return ExactMatrix.from_rows(new_domain, rows)

    def embed_into(self, bigger_field):
        """Re-express a finite-field matrix over an extension of its prime field."""
        if not isinstance(self.domain, FiniteField) or not isinstance(bigger_field, FiniteField):
            raise JTCalcError("embed_into works on finite-field matrices")
        if self.domain == bigger_field:
            return self
        if self.domain.n != 1 or self.domain.p != bigger_field.p:
            raise DomainMismatchError(f"no embedding of {self.domain} into {bigger_field}")
        data = np.zeros((self.rows, self.cols, bigger_field.n), dtype=np.int64)
        data[:, :, 0] = self._data[:, :, 0]
        return ExactMatrix(bigger_field, self.rows, self.cols, _FF, _freeze(data))

    def serialize(self):
        """Row-major nested list of entry strings."""
        return [[str(self.entry(i, j)) for j in range(self.cols)] for i in range(self.rows)]

    def __str__(self):
        return "[" + "; ".join(", ".join(str(self.entry(i, j)) for j in range(self.cols))
                               for i in range(self.rows)) + "]"

    __repr__ = __str__


def block_diag(a, b):
    if a.domain != b.domain:
        raise DomainMismatchError("block_diag needs matching domains")
    dom = a.domain
    rows = []
    for i in range(a.rows):
        rows.append([a.entry(i, j) for j in range(a.cols)] + [dom.zero()] * b.cols)
    for i in range(b.rows):
        rows.append([dom.zero()] * a.cols + [b.entry(i, j) for j in range(b.cols)])
    return ExactMatrix.from_rows(dom, rows)
