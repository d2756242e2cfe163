"""
The operator over the chart's coordinate ring, on `batch`'s module walker,
and the minors of its powers.

`strata._symbolic_theta` lifts the chart's templates into the `_Monomials`
ring and evaluates them by `batch.curve_operator`: a matrix is a stack of
integer coefficient matrices, one per monomial of a basis that grows as
products meet new monomials.  The minors of the operator's powers cut out
the closed strata.  `_Monomials.minors` takes all minors of one size by a
subset DP over row prefixes, and the results become `Polynomial`s only at
the end.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

import numpy as np

from .batch import CHUNK_CELLS, _Polys
from .errors import CapExceededError, JTCalcError
from .fields import FFElement, Polynomial
from .linalg import _Pointwise

# products of monomial terms one step of `_Monomials.minors` may take: a step's peak memory
# is about 200 bytes per product
MINOR_PRODUCTS_CAP = 1 << 21


class _Monomials(_Pointwise):
    """Polynomials over GF(q), q = p^n, in the variables of a `PolyRing`, on a monomial basis.

    A matrix is an (L, rows n, cols n) stack whose slice i holds the
    coefficients of basis monomial i, each entry as `_Pointwise` holds a
    point; so what acts on single entries (`lmul`, `columns`, `transpose`,
    a coefficient's Frobenius) is `_Pointwise`'s.  A product (`matmul`,
    `kron`, `outer_columns`) takes the `_Pointwise` product of every pair of
    nonzero slices and adds it into the slice of their product monomial,
    through the basis indices of the product monomials; a twist Tw(i) also
    raises every monomial to its p^i-th power.

    The basis starts at the monomial 1 and grows as products meet new
    monomials.  A monomial is found by a code, the dot product of its
    exponents with fixed odd 64-bit multipliers mod 2^64, so the code of a
    product is the sum of the codes; every lookup is checked against the
    exponents, so a collision of codes raises instead of merging two
    monomials.  A ring serves one computation (an operator, its powers and
    their minors) and keeps nothing but its basis.
    """

    def __init__(self, ring):
        super().__init__(ring.field)
        self.poly_ring = ring
        k = len(ring.variables)
        self.exps = np.zeros((1, k), dtype=np.int64)
        self.codes = np.zeros(1, dtype=np.uint64)
        self._order = np.zeros(1, dtype=np.intp)  # the basis by increasing code
        self._sorted = self.codes
        self._mult = _code_multipliers(k)
        if self.n == 1:
            self._residues = [FFElement(self.field, (c,)) for c in range(self.p)]

    def _index(self, codes, exps):
        """Basis indices of the monomials with these codes and (len(codes), k) exponents;
        monomials not yet in the basis are appended."""
        pos = np.minimum(np.searchsorted(self._sorted, codes), len(self._order) - 1)
        index = self._order[pos]
        new = self.codes[index] != codes
        if new.any():
            fresh, first, inverse = np.unique(codes[new], return_index=True, return_inverse=True)
            index[new] = len(self.codes) + inverse
            self.codes = np.concatenate([self.codes, fresh])
            self.exps = np.concatenate([self.exps, exps[new][first]])
            self._order = np.argsort(self.codes)
            self._sorted = self.codes[self._order]
        if not np.array_equal(self.exps[index], exps):
            raise JTCalcError("monomial codes collide")
        return index

    def _times(self, a, b):
        """Basis indices of the products of basis monomials a and b (index arrays that broadcast)."""
        codes = self.codes[a] + self.codes[b]
        exps = self.exps[a] + self.exps[b]
        return self._index(codes.ravel(), exps.reshape(codes.size, self.exps.shape[1])).reshape(codes.shape)

    @staticmethod
    def _support(m):
        """The slices of m that are not zero; slice 0 (the monomial 1) when all are."""
        support = np.flatnonzero(m.reshape(len(m), m[0].size).any(axis=1))
        return support if len(support) else np.zeros(1, dtype=np.intp)

    def _product(self, op, a, b):
        """op, a `_Pointwise` product, of every pair of nonzero slices, added into their product
        monomial's slice; on the broadcast grid of pairs, over blocks of it that keep within
        CHUNK_CELLS."""
        ia, ib = self._support(a), self._support(b)
        if not ia.any():
            index = ib[None]  # a is a constant: its products keep b's monomials
        elif not ib.any():
            index = ia[:, None]
        else:
            index = self._times(ia[:, None], ib[None])
        step = max(1, CHUNK_CELLS // max(1, len(ib) * a[0].size * b[0].size))
        right = b[ib][None]
        out = None
        for start in range(0, len(ia), step):
            prod = op(a[ia[start:start + step], None], right)
            prod = prod.reshape((prod.shape[0] * prod.shape[1],) + prod.shape[2:])
            if out is None:
                out = np.zeros((index.max() + 1,) + prod.shape[1:], dtype=np.int64)
            np.add.at(out, index[start:start + step].ravel(), prod)
        return out

    def matmul(self, a, b):
        return self._product(np.matmul, a, b)

    def kron(self, a, b):
        return self._product(super().kron, a, b)

    def outer_columns(self, x, y):
        return self._product(super().outer_columns, x, y)

    @staticmethod
    def add(a, b, into=False):
        return _Polys.add(a, b, into)

    def frobenius(self, m, i):
        """Entrywise x -> x^(p^i): each monomial to its p^i-th power, each coefficient by Frobenius."""
        if i == 0:
            return m
        m = super().frobenius(m, i)
        support, q = self._support(m), self.p**i
        index = self._index(self.codes[support] * np.uint64(q), self.exps[support] * q)
        out = np.zeros((index.max() + 1,) + m.shape[1:], dtype=np.int64)
        out[index] = m[support]
        return out

    def lift_matrix(self, matrix):
        """The stack of an `ExactMatrix` over the polynomial ring."""
        cells, exps, coords = [], [], []
        for i, row in enumerate(matrix._obj_rows()):
            for j, v in enumerate(row):
                for e, c in v.terms.items():
                    cells.append((i, j))
                    exps.append(e)
                    coords.append(c.coeffs)
        if not cells:
            return np.zeros((1, matrix.rows * self.n, matrix.cols * self.n), dtype=np.int64)
        exps = np.array(exps, dtype=np.int64).reshape(len(cells), -1)
        index = self._index(exps.astype(np.uint64) @ self._mult, exps)
        rows, cols = np.array(cells).T
        data = np.zeros((index.max() + 1, matrix.rows, matrix.cols, self.n), dtype=np.int64)
        data[index, rows, cols] = coords
        return self.lift(data)

    def _polynomial(self, monomials, coords):
        """The polynomial with these basis monomials and nonzero (len, n) GF(q) coordinates."""
        exps = map(tuple, self.exps[monomials].tolist())
        if self.n == 1:
            coeffs = map(self._residues.__getitem__, coords[:, 0].tolist())
        else:
            coeffs = (FFElement(self.field, tuple(c)) for c in coords.tolist())
        return Polynomial(self.poly_ring, dict(zip(exps, coeffs)))

    def minors(self, m, size):
        """All size x size minors of one (L, k, k) matrix over GF(p), as polynomials, row-major
        over (row subset, column subset) pairs, the order of `ExactMatrix.minors`.

        One subset DP per row prefix, shared by every row subset with that
        prefix: the state of prefix r_1 < ... < r_i holds the determinant of
        its rows on every i-subset of columns, and prefix + (r,) expands
        along row r, det(S) = sum_t (-1)^(i+t) m[r, S_t] det(S - S_t).  Only
        prefixes that still extend to `size` rows are kept.  A level's
        states are sparse, (state, monomial, coefficient) triples sorted by
        state, and all its products are taken at once: more than
        `MINOR_PRODUCTS_CAP` of them raise `CapExceededError` before any is.
        """
        if self.n != 1:
            raise JTCalcError("minors are taken over GF(p)")
        p, k = self.p, m.shape[1]
        # the entries' monomials and coefficients, grouped by entry r k + c
        mono, r, c = np.nonzero(m)
        order = np.argsort(r * k + c, kind="stable")
        e_mono, e_val = mono[order], m[mono, r, c][order]
        e_count = np.bincount(r * k + c, minlength=k * k)
        e_start = np.cumsum(e_count) - e_count
        # the empty prefix: its one (empty) column subset has determinant 1
        prefixes = np.zeros((1, 0), dtype=np.intp)
        s_sid = s_mono = np.zeros(1, dtype=np.intp)
        s_val = np.ones(1, dtype=np.int64)
        for i in range(size):
            sub, col, sign = _expansion(k, i)
            last = prefixes[:, -1] if i else np.full(len(prefixes), -1)
            rows = [(q, row) for q, top in enumerate(last.tolist()) for row in range(top + 1, k - size + i + 1)]
            old, row = np.array(rows, dtype=np.intp).reshape(len(rows), 2).T
            # one job per (new prefix, new column subset, position t): sign * old state * entry
            shape = (len(rows),) + sub.shape
            job_new = np.broadcast_to((np.arange(len(rows))[:, None] * len(sub) + np.arange(len(sub)))[:, :, None],
                                      shape).ravel()
            job_old = (old[:, None, None] * comb(k, i) + sub).ravel()
            job_entry = (row[:, None, None] * k + col).ravel()
            job_sign = np.broadcast_to(sign, shape).ravel()
            o_count = np.bincount(s_sid, minlength=len(prefixes) * comb(k, i))
            o_start = np.cumsum(o_count) - o_count
            left_n, right_n = o_count[job_old], e_count[job_entry]
            pairs = left_n * right_n
            total = int(pairs.sum())
            if total > MINOR_PRODUCTS_CAP:
                raise CapExceededError(f"{total} products of the {i + 1}-minors exceed cap {MINOR_PRODUCTS_CAP}")
            jobs = np.repeat(np.arange(len(pairs)), pairs)
            w = np.arange(len(jobs)) - np.repeat(np.cumsum(pairs) - pairs, pairs)
            left = o_start[job_old[jobs]] + w // right_n[jobs]
            right = e_start[job_entry[jobs]] + w % right_n[jobs]
            monomials = self._times(s_mono[left], e_mono[right])
            key = job_new[jobs] * len(self.codes) + monomials
            order = np.argsort(key, kind="stable")
            key = key[order]
            starts = np.flatnonzero(np.diff(key, prepend=-1))
            val = (job_sign[jobs] * s_val[left] * e_val[right])[order]
            sums = np.add.reduceat(val, starts) % p if len(starts) else val
            keep = sums != 0
            s_sid, s_mono = np.divmod(key[starts][keep], len(self.codes))
            s_val = sums[keep]
            prefixes = np.concatenate([prefixes[old], row[:, None]], axis=1)
        bounds = np.searchsorted(s_sid, np.arange(len(prefixes) * comb(k, size) + 1))
        return [self._polynomial(s_mono[a:b], s_val[a:b, None]) for a, b in zip(bounds[:-1], bounds[1:])]


@lru_cache(maxsize=None)
def _code_multipliers(k):
    """Fixed odd 64-bit multipliers of `_Monomials` codes, one per variable: the first k
    outputs of the splitmix64 generator from state 0 (Steele, Lea & Flood, OOPSLA 2014)."""
    out, state, mask = [], 0, 2**64 - 1
    for _ in range(k):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        out.append((z ^ (z >> 31)) | 1)
    mult = np.array(out, dtype=np.uint64)
    mult.setflags(write=False)
    return mult


@lru_cache(maxsize=64)
def _expansion(k, i):
    """(sub, col, sign) of the step from i- to (i+1)-subsets of range(k), each in
    `itertools.combinations` order: for (i+1)-subset S and position t, S without S_t is
    i-subset sub[S, t], S_t is col[S, t], and sign[S, t] = (-1)^(i+t)."""
    index = {s: j for j, s in enumerate(itertools.combinations(range(k), i))}
    subsets = list(itertools.combinations(range(k), i + 1))
    sub = np.array([[index[s[:t] + s[t + 1:]] for t in range(i + 1)] for s in subsets], dtype=np.intp)
    col = np.array(subsets, dtype=np.intp).reshape(len(subsets), i + 1)
    sign = np.where((i + np.arange(i + 1)) % 2, -1, 1)
    for arr in (sub, col, sign):
        arr.setflags(write=False)
    return sub, col, sign
