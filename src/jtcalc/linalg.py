"""
Dense exact matrices over the coefficient domains of `fields`, and the one
GF(q) matrix kernel of the program.

The kernel is `_Pointwise`: a stack of P matrices over GF(q), q = p^n, as
one integer numpy array.  Over GF(p) it is the (P, rows, cols) stack of
entries; over GF(p^n) each entry is its n x n GF(p) regular-representation
block (`_Pointwise.lift`, through the field's multiplication tensor), a
ring homomorphism, so products, sums and zero tests are integer products
and sums reduced mod p.  `batch` evaluates the universal operator on
stacks of many points.  A finite-field `ExactMatrix` is stored as its
read-only one-point stack, reduced mod p, and each of its operations is
one operation of the kernel on it; coordinates are read only where
elements enter (`from_rows`, `from_coords`) or leave (`entry`).  Over
every other domain (polynomial rings, function fields, truncated curve
rings) a matrix is a tuple of tuples of ring elements.

Ranks, kernels and inverses are taken over finite fields only (a ring that
is not a field raises `NotAFieldError`, GF(q)(x) a `JTCalcError`).  A
GF(q) rank comes from block pivots on the regular representation
(`_block_rank`), and the ranks of a stack of many points from one batched
GF(p) elimination with a pivot row per matrix (`_ranks`).  Kernels and
inverses come from the GF(p) reduced echelon form of the regular
representation (`_gfp_rref`: pivots inverted by Fermat's little theorem,
one outer-product update per pivot), which is the regular representation
of the GF(q) reduced form.  The program's minors come from
`monomials._Monomials.minors`; `ExactMatrix.minors`, a subset DP over any
ring (`_det_subset_dp`), is the tests' oracle for them.  A tuple of stacks
is checked square, p-nilpotent and pairwise commuting by `_first_invalid`,
for points, sweeps, curves and `Explicit` modules alike.

A matrix over GF(q)[x] is the same block layout with the point axis read
as the coefficient axis: its (L, rows n, cols n) stack holds the lifted
x^0, ..., x^(L-1) coefficients.  Products convolve along that axis
(`_convolve`, any `_Pointwise` product on the broadcast grid of coefficient
pairs), and ranks over GF(q)(x) come from fraction-free (Bareiss)
elimination on the stack (`_px_rank`).  The operator along a curve
(`batch._Polys`) is such a stack, and the one matrix ranked over GF(q)(x).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import DomainMismatchError, JTCalcError, NotNilpotentError
from .fields import (
    FFElement,
    FiniteField,
    TruncatedCurveRing,
    require_field,
)

_FF = "ff"
_OBJ = "obj"


def _freeze(arr):
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    arr.setflags(write=False)
    return arr


# -- the GF(q) kernel --------------------------------------------------------


def _regular(field, A):
    """Regular representation of each entry: out[..., a, c] = coefficient c of x^a * A[...].

    Entries are left unreduced (below n*p^2); callers reduce mod p.  The
    multiplication tensor is symmetric in its first two axes, so it contracts
    with A's coordinate axis as one (n, n*n) product.
    """
    n = field.n
    return (A @ field.mul_tensor.reshape(n, n * n)).reshape(A.shape[:-1] + (n, n))


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
    """GF(p^n)-rank of a GF(p) matrix of n x n regular-representation blocks (a matrix of a
    `_Pointwise` stack), by fraction-free block steps.

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


@lru_cache(maxsize=None)
def _inverses(p):
    inv = np.array([pow(x, p - 2, p) if x else 0 for x in range(p)], dtype=np.int64)
    inv.setflags(write=False)
    return inv


def _ranks(m, p):
    """GF(p) ranks of a (P, rows, cols) stack by Gaussian elimination, one pivot row per matrix.

    Column by column, the first row with a nonzero entry there is the pivot
    row; scaled so its pivot is 1, it is subtracted from every row times the
    row's entry in the column, its own included (factor 1).  That clears the
    column and the pivot row and lowers the rank by one (rank-one
    reduction), so no row is swapped and every row left is free.
    """
    count, rows, cols = m.shape
    rank = np.zeros(count, dtype=np.int64)
    if not rows:
        return rank
    inv = _inverses(p)
    at = np.arange(count)
    for _ in range(cols):
        col = m[:, :, 0]
        nonzero = col != 0
        found = nonzero.any(axis=1)
        if found.any():
            piv = nonzero.argmax(axis=1)
            # a matrix without a pivot has a zero column: its scale inv[0] is 0
            pivot_rows = m[at, piv, 1:] * inv[col[at, piv]][:, None] % p
            m = m[:, :, 1:] - col[:, :, None] * pivot_rows[:, None, :]
            m %= p
            rank += found
        else:
            m = m[:, :, 1:]
    return rank


class _Pointwise:
    """Values at a stack of points over GF(q), q = p^n: products point by point.

    Over GF(p) a matrix is its (P, rows, cols) stack of entries.  Over
    GF(p^n) it is its (P, rows n, cols n) stack of GF(p) blocks (`lift`):
    block (i, j) is the n x n matrix of multiplication by M[i, j] on
    GF(p)-coordinates, so its column 0 holds the coordinates of M[i, j].
    That representation is a ring homomorphism, so products, sums,
    reduction and zero tests are those of GF(p) matrices; only what acts on
    single entries (`kron`, `outer_columns`, `lmul`, `scale`, `frobenius`,
    `transpose`, `columns`) works block by block.
    """

    def __init__(self, field, count=1):
        self.field = field
        self.p = field.p
        self.n = field.n
        self.count = count

    matmul = staticmethod(np.matmul)

    def dim(self, m):
        """The number of rows of each matrix of the stack, over GF(q)."""
        return m.shape[1] // self.n

    def lift(self, data):
        """The stack (P, rows n, cols n) of a (P, rows, cols, n) coordinate stack; a
        (rows, cols, n) array gives the one-point stack.

        Row (i, c) and column (j, a) of a matrix hold coefficient c of M[i, j] x^a.
        """
        if data.ndim == 3:
            data = data[None]
        if self.n == 1:
            return data[..., 0]
        count, rows, cols, n = data.shape
        blocks = _regular(self.field, data).transpose(0, 1, 4, 2, 3)
        return blocks.reshape(count, rows * n, cols * n) % self.p

    def coords(self, m):
        """The (rows, cols, n) coordinates of one matrix of the stack: column 0 of each block."""
        n = self.n
        rows, cols = m.shape[0] // n, m.shape[1] // n
        return m.reshape(rows, n, cols, n)[:, :, :, 0].transpose(0, 2, 1)

    def _blocks(self, m):
        """(..., rows, cols, n, n): the block of each entry."""
        s, n = m.shape, self.n
        return m.reshape(s[:-2] + (s[-2] // n, n, s[-1] // n, n)).swapaxes(-3, -2)

    def kron(self, a, b):
        """Kronecker products point by point; the leading axes of a and b broadcast."""
        if self.n > 1:
            # (..., ra, rb, ca, cb, n, n) blocks, laid out as rows (ra, rb, n) and columns (ca, cb, n)
            prod = self._blocks(a)[..., :, None, :, None, :, :] @ self._blocks(b)[..., None, :, None, :, :, :]
            s = prod.shape
            rows, cols = s[-6] * s[-5] * s[-2], s[-4] * s[-3] * s[-1]
            return prod.swapaxes(-4, -2).swapaxes(-3, -2).reshape(s[:-6] + (rows, cols))
        prod = a[..., :, None, :, None] * b[..., None, :, None, :]
        s = prod.shape
        return prod.reshape(s[:-4] + (s[-4] * s[-3], s[-2] * s[-1]))

    def outer_columns(self, x, y):
        """Column-wise tensor products: out[..., i*n + v, c] = x[..., i, c] * y[..., v, c]; the
        leading axes of x and y broadcast."""
        if self.n > 1:
            # (..., rx, ry, c, n, n) blocks, laid out as rows (rx, ry, n) and columns (c, n)
            prod = self._blocks(x)[..., :, None, :, :, :] @ self._blocks(y)[..., None, :, :, :, :]
            s = prod.shape
            return prod.swapaxes(-3, -2).reshape(s[:-5] + (s[-5] * s[-4] * s[-2], s[-3] * s[-1]))
        prod = x[..., :, None, :] * y[..., None, :, :]
        s = prod.shape
        return prod.reshape(s[:-3] + (s[-3] * s[-2], s[-1]))

    def lmul(self, mu, m):
        """mu (an integer matrix) times m: mu (x) I_n on the blocks."""
        count, rows, cols = m.shape
        return (mu @ m.reshape(count, rows // self.n, self.n * cols)).reshape(count, len(mu) * self.n, cols)

    def scale(self, m, x):
        """x m, reduced, for x in GF(q) and m a stack or one matrix of one: each block R(y)
        becomes R(x) R(y)."""
        *lead, rows, cols = m.shape
        block = self.lift(np.array([[x.coeffs]], dtype=np.int64))[0]
        return (block @ m.reshape(*lead, rows // self.n, self.n, cols) % self.p).reshape(m.shape)

    def columns(self, idx):
        """The stack columns that hold the columns idx of each matrix: their whole blocks."""
        if self.n == 1:
            return idx
        return (np.asarray(idx)[:, None] * self.n + np.arange(self.n)).ravel()

    def transpose(self, m):
        """The transposes: blocks swap places, each block stays as it is."""
        if self.n == 1:
            return np.swapaxes(m, 1, 2)
        count, rows, cols = m.shape
        n = self.n
        return m.reshape(count, rows // n, n, cols // n, n).transpose(0, 3, 2, 1, 4).reshape(count, cols, rows)

    @staticmethod
    def add(a, b, into=False):
        """a + b; with `into`, b is added into a, a fresh array of the caller's."""
        if into:
            a += b
            return a
        return a + b

    def reduce(self, m):
        return m % self.p

    def frobenius(self, m, i):
        """Entrywise x -> x^(p^i): each block R(x) goes to F^i R(x) F^(-i), F the Frobenius matrix."""
        n = self.n
        if i % n == 0:
            # x^p = x on GF(p); the Frobenius has order n on GF(p^n)
            return m
        count, rows, cols = m.shape
        p = self.p
        left = _frobenius_power(self.field, i) @ m.reshape(count, rows // n, n, cols) % p
        return (left.reshape(count, rows, cols // n, n) @ _frobenius_power(self.field, -i) % p).reshape(m.shape)

    def identity(self, d):
        # a copy per point: np.broadcast_to costs several times as much on one-point stacks
        return _eye(d * self.n)[None].repeat(self.count, 0)

    @staticmethod
    def nonzero(m):
        return m.any(axis=(1, 2))

    def ranks(self, m):
        """The GF(q) rank of each matrix of a stack: by block pivots (`_block_rank`) on a
        one-point stack, by batched elimination (`_ranks`) on more."""
        if len(m) == 1:
            return np.array([_block_rank(m[0], self.p, self.n)])
        return _ranks(m, self.p) // self.n


@lru_cache(maxsize=256)
def _eye(d):
    """The d x d identity, read-only: `_Pointwise.identity` copies it, once per point."""
    out = np.eye(d, dtype=np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _frobenius_power(field, i):
    out = np.eye(field.n, dtype=np.int64)
    for _ in range(i % field.n):
        out = field.frobenius_matrix @ out % field.p
    out.setflags(write=False)
    return out


# -- powers and tuple validation on stacks --------------------------------


def _mpow(ring, a, k):
    result = None
    while k:
        if k & 1:
            result = a if result is None else ring.reduce(ring.matmul(result, a))
        k >>= 1
        if k:
            a = ring.reduce(ring.matmul(a, a))
    return result


def _validate(ring, mats):
    """Raise what `CommutingTuple` raises for the first invalid tuple of the stacks mats[s]."""
    invalid = _first_invalid(ring, mats)
    if invalid is not None:
        raise NotNilpotentError(invalid[1])


def _first_invalid(ring, mats):
    """(point, report) for the first invalid tuple of the stacks mats[s], None if all are valid.

    The reports come in this order: per matrix, a shape other than the
    first matrix's square, then a nonzero p-th power; then every pair that
    does not commute.  Points are checked by `CommutingTuple`, sweeps and
    curves, and `Explicit` modules by `modules.validate_commuting_tuple`,
    on their one-point stacks.
    """
    p, r = ring.p, len(mats)
    size = mats[0].shape[1]
    square = next((s for s, m in enumerate(mats) if m.shape[1:3] != (size, size)), r)
    failed = [ring.nonzero(_mpow(ring, m, p)) for m in mats[:square]]
    reports = [f"matrix {s} is not {p}-nilpotent" for s in range(square)]
    if square < r:
        # fails at every point, so no later report can come first
        failed.append(np.ones_like(ring.nonzero(mats[square])))
        reports.append(f"matrix {square} is not square of size {ring.dim(mats[0])}")
    for i, j in itertools.combinations(range(square), 2):
        a, b = mats[i], mats[j]
        failed.append(ring.nonzero(ring.reduce(ring.matmul(a, b) - ring.matmul(b, a))))
        reports.append(f"matrices {i} and {j} do not commute")
    failed = np.array(failed)
    if not failed.any():
        return None
    point = int(failed.any(axis=0).argmax())
    return point, reports[int(failed[:, point].argmax())]


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
# its (rows*n) x (cols*n) GF(p)[x] regular representation, each coefficient
# lifted as a matrix of a `_Pointwise` stack; GF(p^n)(x) is a
# degree-n extension of GF(p)(x), so ranks divide by n.  This is the layout of
# `batch._Polys`, the `_Pointwise` ring whose point axis is the coefficient
# axis of a polynomial along a curve: the operator along a curve is built,
# multiplied (`_convolve`) and ranked (`_px_rank`) in it.


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


def _convolve(A, B, product=np.matmul, cells=None):
    """Unreduced product of two polynomials with matrix coefficients: out[k] = sum of
    product(A[i], B[j]) over i + j = k.

    product takes leading axes that broadcast, as np.matmul does, and
    `cells` is the size of its value on one pair of coefficients; by
    default, that of the matrix product of A's (la, ..., r, k) and B's
    (lb, ..., k, c) coefficients.  A block of A's coefficients goes
    against all of B's in one product on the broadcast grid of pairs,
    product(A[block, None], B[None]), of at most `_PAIR_CELLS` cells (one
    coefficient of A at least), and its pairs are summed along
    anti-diagonals.
    """
    la, lb = len(A), len(B)
    if cells is None:
        cells = math.prod(A.shape[1:-1]) * B.shape[-1]
    step = max(1, _PAIR_CELLS // max(lb * cells, 1))
    if step >= la:
        return _skew_sum(product(A[:, None], B[None]))
    out = None
    for start in range(0, la, step):
        part = _skew_sum(product(A[start:start + step, None], B[None]))
        if out is None:
            out = np.zeros((la + lb - 1,) + part.shape[1:], dtype=np.int64)
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


class ExactMatrix:
    """Immutable dense matrix over a fixed coefficient domain.

    Over a finite field `_data` is the matrix as a read-only one-point
    `_Pointwise` stack (1, rows n, cols n), reduced mod p; over any other
    domain it is a tuple of rows of elements.
    """

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
            return ExactMatrix.from_coords(domain, data)
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
        return ExactMatrix._of_stack(field, _Pointwise(field).lift(data))

    @staticmethod
    def _of_stack(field, m):
        """The finite-field matrix of a reduced one-point stack m of `_Pointwise(field)`."""
        n = field.n
        return ExactMatrix(field, m.shape[1] // n, m.shape[2] // n, _FF, _freeze(m))

    @staticmethod
    def zeros(domain, rows, cols):
        if isinstance(domain, FiniteField):
            return ExactMatrix._of_stack(domain, np.zeros((1, rows * domain.n, cols * domain.n)))
        z = domain.zero()
        return ExactMatrix(domain, rows, cols, _OBJ, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(domain, n):
        if isinstance(domain, FiniteField):
            return ExactMatrix._of_stack(domain, _Pointwise(domain).identity(n))
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
            # column 0 of the entry's block
            n = self.domain.n
            return FFElement(self.domain, tuple(self._data[0, i * n:(i + 1) * n, j * n].tolist()))
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
            return ExactMatrix._of_stack(self.domain, (self._data + other._data) % self.domain.p)
        a, b = self._obj_rows(), other._obj_rows()
        return ExactMatrix(self.domain, self.rows, self.cols, _OBJ,
                           tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)))

    def __neg__(self):
        if self._backend == _FF:
            return ExactMatrix._of_stack(self.domain, -self._data % self.domain.p)
        return ExactMatrix(self.domain, self.rows, self.cols, _OBJ,
                           tuple(tuple(-x for x in r) for r in self._obj_rows()))

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        other = self._check(other)
        if self.cols != other.rows:
            raise JTCalcError("shape mismatch in matrix product")
        if self._backend == _FF and other._backend == _FF:
            return ExactMatrix._of_stack(self.domain, self._data @ other._data % self.domain.p)
        return ExactMatrix(self.domain, self.rows, other.cols, _OBJ,
                           _obj_mmul(self.domain, self._obj_rows(), other._obj_rows()))

    def scalar_mul(self, s):
        if self._backend == _FF:
            s = self.domain.embed(s) if not isinstance(s, int) else self.domain.from_int(s)
            return ExactMatrix._of_stack(self.domain, _Pointwise(self.domain).scale(self._data, s))
        if isinstance(s, int):
            s = self.domain.embed_int(s)
        return ExactMatrix(self.domain, self.rows, self.cols, _OBJ,
                           tuple(tuple(x * s for x in r) for r in self._obj_rows()))

    def kron(self, other):
        other = self._check(other)
        if self._backend == _FF and other._backend == _FF:
            ring = _Pointwise(self.domain)
            return ExactMatrix._of_stack(self.domain, ring.reduce(ring.kron(self._data, other._data)))
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
        if self._backend == _FF and other._backend == _FF:
            ring = _Pointwise(self.domain)
            x, y = self._data[:, :, ring.columns(left)], other._data[:, :, ring.columns(right)]
            return ExactMatrix._of_stack(self.domain, ring.reduce(ring.outer_columns(x, y)))
        a, b = self._obj_rows(), other._obj_rows()
        pairs = list(zip(left.tolist(), right.tolist()))
        return ExactMatrix(self.domain, self.rows * other.rows, len(left), _OBJ, tuple(
            tuple(ra[l] * rb[r] for l, r in pairs) for ra in a for rb in b))

    def transpose(self):
        if self._backend == _FF:
            return ExactMatrix._of_stack(self.domain, _Pointwise(self.domain).transpose(self._data))
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
            return ExactMatrix._of_stack(self.domain, _Pointwise(self.domain).frobenius(self._data, e))
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

    # -- rank / kernel / minors ----------------------------------------------------

    def rank(self):
        """Exact rank over a finite field, by block pivots on the one-point stack (`_block_rank`).
        Other domains raise as `_finite_field` says."""
        field = self._finite_field("ranks")
        return _block_rank(self._data[0], field.p, field.n)

    def _finite_field(self, what):
        """The matrix's finite field: `what` (ranks, kernels, inverses) is computed over no other domain.
        A domain that is not a field raises `NotAFieldError`, GF(q)(x) a `JTCalcError`."""
        if not isinstance(self.domain, FiniteField):
            require_field(self.domain)
            raise JTCalcError(f"{what} are computed over finite fields, not over {self.domain}")
        return self.domain

    def kernel_basis(self):
        """Exact basis of the right kernel (list of column vectors as element lists), over a
        finite field.

        The GF(p) reduced form of the blocks is the regular representation of
        the GF(q) one: GF(q) pivot column j shows up as the n GF(p) pivots
        (j, 0), ..., (j, n-1).
        """
        field = self._finite_field("kernels")
        R, gfp_pivots = _gfp_rref(self._data[0], field.p)
        R, pivots = _Pointwise(field).coords(R), [c // field.n for c in gfp_pivots[::field.n]]
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for f in free:
            vec = [field.zero()] * self.cols
            vec[f] = field.one()
            for pr, pc in enumerate(pivots):
                vec[pc] = -FFElement(field, tuple(R[pr, f].tolist()))
            basis.append(vec)
        return basis

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
        """The inverse over a finite field.  Its blocks are the GF(p) inverse of the blocks (a
        ring homomorphism): the right half of the reduced form of [A | I], when its pivots are
        A's columns."""
        if self.rows != self.cols:
            raise JTCalcError("inverse needs a square matrix")
        field = self._finite_field("inverses")
        d = self.rows * field.n
        aug = np.concatenate([self._data[0], np.eye(d, dtype=np.int64)], axis=1)
        R, pivots = _gfp_rref(aug, field.p)
        if pivots != list(range(d)):
            raise JTCalcError("matrix is singular")
        return ExactMatrix._of_stack(field, R[None, :, d:])

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
            raise DomainMismatchError(f"no embedding of {self.domain.descriptor()} into {bigger_field.descriptor()}")
        # an element x of GF(p) is the block x I of the bigger field
        return ExactMatrix._of_stack(bigger_field, np.kron(self._data, np.eye(bigger_field.n, dtype=np.int64)))

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
