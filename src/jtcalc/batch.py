"""
Batched GF(p) evaluation of chart sweeps.

A sweep of a `gl` chart over GF(p) evaluates the universal operator at
every accepted point.  Here that pipeline runs on integer numpy stacks, one
chunk of points at a time:

* chart templates, constraints and rank-locus minors are evaluated as
  integer polynomials over a (P, k) array of parameter values;
* a table sweep evaluates the operator once per weighted scaling orbit:
  each tuple is scaled so its first nonzero entry is 1, and only canonical
  tuples not met earlier in the sweep go on;
* the one-parameter group element and the module tree are evaluated on
  series in t whose coefficients are (P, m, m) stacks mod p, truncated
  mod t^(D+1), where D is the t-degree the operator reads: p^(r-1) for the
  full operator, p^(r-1-s) for factor s of the exponential one.  Truncation
  is a ring homomorphism that commutes with Tw's t -> t^(p^i), so every node
  may truncate;
* Sym and Ext follow the equivariant recurrence
  Sym^d(g) = mu_d (Sym^(d-1)(g) (x) g) J_d, with the bases and cached maps
  of `modules.power_maps`, which the pointwise path uses too;
* rank profiles come from batched GF(p) elimination with a pivot per matrix.

Points, validation errors and Jordan types come out in the order and with
the messages of the pointwise path (`enumerate_points`, `CommutingTuple`,
`jt_at_point`), which covers every other field, chart kind and module and
is the reference the tests compare against.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from math import comb

import numpy as np

from .errors import ChartError, JTCalcError, NotNilpotentError
from .fields import FiniteField
from .jordan import RankProfile, jt_from_rank_profile
from .modules import (
    DirectSum,
    Dual,
    Explicit,
    Ext,
    Std,
    Sym,
    Tensor,
    Trivial,
    Twist,
    _contains_dual,
    power_maps,
)
from .theta import KIND_GL, by_variant

# int64 cells per (P, rows, cols) stack of a chunk: bounds a sweep's memory
# whatever its number of points.
CHUNK_CELLS = 1 << 16


def supports(chart, e, field):
    """True when the sweep runs batched: a `gl` chart over GF(p), no Explicit leaf."""
    return (
        chart.kind == KIND_GL
        and isinstance(field, FiniteField)
        and field.n == 1
        and not any(isinstance(leaf, Explicit) for leaf in e.leaves())
    )


def jordan_types(chart, e, field, variant, budget, seed, samples):
    """(values, Jordan type) per swept point, None for the zero tuple.

    Like `tabulate_jt`'s pointwise path, every tuple is validated before any
    operator is evaluated, and the operator is evaluated once per weighted
    scaling orbit: on its canonical tuple (`_orbit_reduce`), in the chunk
    that first meets the orbit.
    """
    sweep = _Sweep(chart, e, field.p, variant)
    # the accepted values (a byte per parameter and point) are kept, not drawn again
    accepted = list(sweep.points(budget, seed, samples))
    # canonical tuple as int8 bytes -> Jordan type; the zero tuple has none
    types = {bytes(chart.r * chart.size**2): None}
    for values in _regroup(accepted, sweep.chunk):
        mats = _orbit_reduce(sweep.tuples(values), sweep.p)
        keys = [row.tobytes() for row in mats.reshape(len(mats), -1).astype(np.int8)]
        new = {}
        for i, key in enumerate(keys):
            if key not in types:
                new.setdefault(key, i)
        types.update(zip(new, sweep.types(mats[list(new.values())])))
        yield from zip(values.tolist(), map(types.get, keys))


def closed_stratum_points(chart, e, field, variant, budget, seed, samples, polys):
    """(values, Jordan type, whether every poly vanishes) per nonzero swept point.

    Like `verify_closed_stratum`'s pointwise path, tuples are validated as
    the sweep reaches them.
    """
    sweep = _Sweep(chart, e, field.p, variant)
    minors = _PolySet(polys, len(chart.params), sweep.p)
    for values in _regroup(sweep.points(budget, seed, samples), sweep.chunk):
        mats = sweep.tuples(values)
        nonzero = mats.reshape(len(mats), -1).any(axis=1)
        if not nonzero.any():
            continue
        values, mats = values[nonzero], mats[nonzero]
        vanish = ~minors(values).any(axis=1)
        yield from zip(values.tolist(), sweep.types(mats), vanish.tolist())


# -- points ------------------------------------------------------------------------


class _PolySet:
    """Polynomials over GF(p) in k variables, evaluated at once over (P, k) value arrays."""

    def __init__(self, polys, k, p):
        monomials = {}
        terms = []
        for j, poly in enumerate(polys):
            for exps, c in poly.terms.items():
                terms.append((monomials.setdefault(exps, len(monomials)), j, c.coeffs[0]))
        self.p = p
        self.exps = np.array(list(monomials), dtype=np.int64).reshape(len(monomials), k)
        self.coeffs = np.zeros((len(monomials), len(polys)), dtype=np.int64)
        for i, j, c in terms:
            self.coeffs[i, j] = c

    def __call__(self, values):
        """(P, len(polys)) values mod p, over row blocks that keep within CHUNK_CELLS."""
        step = max(1, CHUNK_CELLS // (len(self.exps) + self.coeffs.shape[1] + 1))
        parts = [self._eval(values[i:i + step]) for i in range(0, len(values), step)]
        return np.concatenate(parts) if parts else np.zeros((0, self.coeffs.shape[1]), dtype=np.int64)

    def _eval(self, values):
        p = self.p
        mono = np.ones((len(values), len(self.exps)), dtype=np.int64)
        for v, col in enumerate(self.exps.T):
            top = int(col.max(initial=0))
            if not top:
                continue
            powers = np.ones((len(values), top + 1), dtype=np.int64)
            for k in range(1, top + 1):
                powers[:, k] = powers[:, k - 1] * values[:, v] % p
            mono = mono * powers[:, col] % p
        return mono @ self.coeffs % p


def _regroup(blocks, size):
    """Re-cut a stream of (P, k) value blocks into chunks of `size` points, in order."""
    pending, count = [], 0
    for block in blocks:
        pending.append(block)
        count += len(block)
        if count >= size:
            values = np.concatenate(pending)
            full = count - count % size
            yield from np.split(values[:full], full // size)
            pending, count = [values[full:]], count - full
    if count:
        yield np.concatenate(pending)


def _orbit_reduce(mats, p):
    """`orbit_reduce` over GF(p): scale each tuple so its first nonzero entry is 1.

    alpha^(p^s) = alpha in GF(p), so every matrix of the tuple scales alike.
    The zero tuple stays zero.
    """
    flat = mats.reshape(len(mats), -1)
    lead = flat[np.arange(len(flat)), (flat != 0).argmax(axis=1)]
    return mats * _inverses(p)[lead][:, None, None, None] % p


# -- the sweep -----------------------------------------------------------------------


class _Sweep:
    def __init__(self, chart, e, p, variant):
        self.chart = chart
        self.e = e
        self.p = p
        self.variant = variant
        k, size = len(chart.params), chart.size
        self.constraints = _PolySet(chart.constraints, k, p)
        self.templates = _PolySet(
            [t.entry(i, j) for t in chart.templates for i in range(size) for j in range(size)], k, p
        )
        terms = p ** (chart.r - 1) + 1
        self.chunk = max(1, CHUNK_CELLS // (terms * max(_cells(e), size * size)))
        self.with_inv = _contains_dual(e)
        self.cache = {}

    def points(self, budget, seed, samples):
        """Value blocks of the points `enumerate_points` yields, validated in the same order."""
        if self.p != self.chart.p:
            raise ChartError("field characteristic differs from the chart's")
        if budget <= 0:
            raise ChartError("budget must be positive")
        for values in self._accepted(budget, seed, samples):
            _validate(self.tuples(values), self.p)
            yield values

    def tuples(self, values):
        chart = self.chart
        return self.templates(values).reshape(len(values), chart.r, chart.size, chart.size)

    def _accepted(self, budget, seed, samples):
        p, k, chunk = self.p, len(self.chart.params), self.chunk
        total = p**k
        if total <= budget:
            digits = p ** np.arange(k - 1, -1, -1)
            for start in range(0, total, chunk):
                values = (np.arange(start, min(start + chunk, total))[:, None] // digits % p).astype(np.int8)
                yield values[~self.constraints(values).any(axis=1)]
            return
        rng = random.Random(seed)
        emitted = attempts = 0
        limit = max(100 * samples, 1000)
        while emitted < samples and attempts < limit:
            n = min(chunk, limit - attempts)
            attempts += n
            values = _randrange(rng, p, n * k).reshape(n, k)
            values = values[~self.constraints(values).any(axis=1)][: samples - emitted]
            emitted += len(values)
            yield values
        if emitted < samples:
            raise ChartError("rejection sampling failed to find enough chart points")

    def types(self, mats):
        """Jordan types of the selected operator at a stack of nonzero tuples."""
        if not len(mats):
            return []
        op = self._operator(mats)
        ranks = _rank_profiles(op, self.p, self.variant)
        out = []
        for row in map(tuple, ranks.tolist()):
            jt = self.cache.get(row)
            if jt is None:
                jt = self.cache[row] = jt_from_rank_profile(RankProfile(self.p, op.shape[1], row))
            out.append(jt)
        return out

    def _operator(self, mats):
        p, r = self.p, mats.shape[1]
        if by_variant(self.variant, True, False):
            top = p ** (r - 1)
            series = _Series(p, top)
            pair = None
            for s in range(r):
                factor = _texp(mats[:, s], p, top, p**s)
                if pair is None:
                    pair = factor
                else:
                    g_inv = series.mul(factor[1], pair[1]) if self.with_inv else None
                    pair = (series.mul(pair[0], factor[0]), g_inv)
            return series.coefficient(self._module(series, pair)[0], top)
        total = 0
        for s in range(r):
            top = p ** (r - 1 - s)
            series = _Series(p, top)
            g = self._module(series, _texp(mats[:, s], p, top, 1))[0]
            total = total + series.coefficient(g, top)
        return total % p

    def _module(self, series, pair):
        """The module tree on a (g, g^-1) pair of series; g^-1 is carried only for Dual."""
        pair = list(pair[: 1 + self.with_inv])
        size = pair[0][0].shape[1]
        count = len(pair[0][0])

        def walk(node):
            if isinstance(node, Std):
                if node.n != size:
                    raise JTCalcError(f"Std({node.n}) does not match group element size {size}")
                return pair
            if isinstance(node, Trivial):
                ident = {0: np.broadcast_to(np.eye(node.d, dtype=np.int64), (count, node.d, node.d))}
                return [ident] * len(pair)
            if isinstance(node, Dual):
                g, g_inv = walk(node.inner)
                return [series.transpose(g_inv), series.transpose(g)]
            if isinstance(node, Tensor):
                return [series.kron(a, b) for a, b in zip(walk(node.left), walk(node.right))]
            if isinstance(node, DirectSum):
                return [series.block_diag(a, b) for a, b in zip(walk(node.left), walk(node.right))]
            if isinstance(node, (Sym, Ext)):
                return [series.power(a, node.d, isinstance(node, Ext)) for a in walk(node.inner)]
            if isinstance(node, Twist):
                return [series.twist(a, node.i) for a in walk(node.inner)]
            raise JTCalcError(f"unknown module node {node!r}")

        return walk(self.e)


def _randrange(rng, p, count):
    """`count` successive `rng.randrange(p)` draws as int8, leaving rng where they would.

    randrange(p) takes 32-bit Mersenne Twister words w until w >> (32 - k),
    k = p.bit_length(), is below p, and returns that; getrandbits(32 W)
    returns W such words, the first as its lowest 32 bits.  So the words are
    drawn in bulk and filtered, and then the generator is restored and moved
    on by exactly the words the draws used.
    """
    state = rng.getstate()
    shift = 32 - p.bit_length()
    words = np.zeros(0, dtype=np.uint32)
    accepted = np.zeros(0, dtype=np.intp)
    while len(accepted) < count:
        # at least half the words are accepted, since 2^(k-1) <= p
        more = 2 * (count - len(accepted)) + 64
        block = np.frombuffer(rng.getrandbits(32 * more).to_bytes(4 * more, "little"), dtype="<u4")
        words = np.concatenate([words, block >> shift])
        accepted = np.flatnonzero(words < p)
    rng.setstate(state)
    if count:
        rng.getrandbits(32 * (int(accepted[count - 1]) + 1))
    return words[accepted[:count]].astype(np.int8)


def _cells(e):
    """Cells per point and t-degree of the largest stack that evaluating e builds."""
    cells = e.dim() ** 2
    if isinstance(e, (Sym, Ext)):
        n, ext = e.inner.dim(), isinstance(e, Ext)
        for d in range(2, e.d + 1):
            cells = max(cells, _power_dim(n, d - 1, ext) * n * _power_dim(n, d, ext))
    kids = [getattr(e, name) for name in ("inner", "left", "right") if hasattr(e, name)]
    return max([cells] + [_cells(kid) for kid in kids])


def _power_dim(n, d, ext):
    return comb(n, d) if ext else comb(n + d - 1, d)


def _validate(mats, p):
    """Raise what `CommutingTuple` raises for the first invalid tuple of the block."""
    r = mats.shape[1]
    failed = [_mpow(mats[:, s], p, p).any(axis=(1, 2)) for s in range(r)]
    reports = [f"matrix {s} is not {p}-nilpotent" for s in range(r)]
    for i, j in itertools.combinations(range(r), 2):
        a, b = mats[:, i], mats[:, j]
        failed.append(((a @ b - b @ a) % p).any(axis=(1, 2)))
        reports.append(f"matrices {i} and {j} do not commute")
    failed = np.array(failed)
    if failed.any():
        point = int(failed.any(axis=0).argmax())
        raise NotNilpotentError(reports[int(failed[:, point].argmax())])


# -- series in t with (P, rows, cols) coefficient stacks ------------------------------


def _texp(b, p, top, step):
    """exp(t^step B) and exp(-t^step B): the terms t^(i step) B^i / i!, i < p, up to t^top."""
    size = b.shape[1]
    power = np.broadcast_to(np.eye(size, dtype=np.int64), b.shape)
    g, g_inv = {}, {}
    fact = 1
    for i in range(p):
        if i * step > top:
            break
        if i:
            power = power @ b % p
            fact = fact * i % p
        term = power * pow(fact, p - 2, p) % p
        g[i * step] = term
        g_inv[i * step] = term if i % 2 == 0 else -term % p
    return g, g_inv


def _kron(a, b):
    count, ra, ca = a.shape
    rb, cb = b.shape[1:]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(count, ra * rb, ca * cb)


class _Series:
    """Polynomials in t with (P, rows, cols) coefficient stacks, mod (p, t^(top+1)).

    A series is a dict {degree: stack}; degree 0 is always present.
    """

    def __init__(self, p, top):
        self.p = p
        self.top = top

    def _convolve(self, a, b, product):
        out = {}
        for da, ma in a.items():
            for db, mb in b.items():
                d = da + db
                if d <= self.top:
                    term = product(ma, mb)
                    if d in out:
                        out[d] += term
                    else:
                        out[d] = term
        return {d: m % self.p for d, m in out.items()}

    def mul(self, a, b):
        return self._convolve(a, b, np.matmul)

    def kron(self, a, b):
        return self._convolve(a, b, _kron)

    def transpose(self, a):
        return {d: m.transpose(0, 2, 1) for d, m in a.items()}

    def twist(self, a, i):
        q = self.p**i
        return {d * q: m for d, m in a.items() if d * q <= self.top}

    def block_diag(self, a, b):
        count, ra, ca = a[0].shape
        rb, cb = b[0].shape[1:]
        out = {}
        for d in sorted(set(a) | set(b)):
            m = np.zeros((count, ra + rb, ca + cb), dtype=np.int64)
            if d in a:
                m[:, :ra, :ca] = a[d]
            if d in b:
                m[:, ra:, ca:] = b[d]
            out[d] = m
        return out

    def power(self, a, d, ext):
        """Sym^d (or Ext^d) of a series of square stacks, by the recurrence in d."""
        if d == 0:
            return {0: np.ones((len(a[0]), 1, 1), dtype=np.int64)}
        n = a[0].shape[1]
        out = a
        for k in range(2, d + 1):
            mu, cols, vecs = power_maps(n, k, ext)
            left = {e: m[:, :, cols] for e, m in out.items()}
            right = {e: m[:, :, vecs] for e, m in a.items()}
            pairs = self._convolve(left, right, _outer_columns)
            out = {e: mu @ m % self.p for e, m in pairs.items()}
        return out

    @staticmethod
    def coefficient(a, degree):
        m = a.get(degree)
        return np.zeros_like(a[0]) if m is None else m


def _outer_columns(x, y):
    """Column-wise tensor products: out[:, i*n + v, c] = x[:, i, c] * y[:, v, c]."""
    count, rx, c = x.shape
    return (x[:, :, None, :] * y[:, None, :, :]).reshape(count, rx * y.shape[1], c)


# -- rank profiles ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _inverses(p):
    inv = np.array([pow(x, p - 2, p) if x else 0 for x in range(p)], dtype=np.int64)
    inv.setflags(write=False)
    return inv


def _mpow(a, k, p):
    result = None
    while k:
        if k & 1:
            result = a if result is None else result @ a % p
        k >>= 1
        if k:
            a = a @ a % p
    return result


def _rank_profiles(op, p, variant):
    """Ranks of op, op^2, ..., op^(p-1) per matrix; op^p must vanish, as in `jt_at_point`."""
    ranks = np.zeros((len(op), p - 1), dtype=np.int64)
    power = op
    for s in range(p - 1):
        if power.any():
            ranks[:, s] = _ranks(power, p)
        power = power @ op % p
    if power.any():
        raise NotNilpotentError(f"{variant} operator is not p-nilpotent")
    return ranks


def _ranks(m, p):
    """GF(p) ranks of a (P, rows, cols) stack by Gaussian elimination, one pivot row per matrix."""
    count, rows, cols = m.shape
    rank = np.zeros(count, dtype=np.int64)
    if not rows:
        return rank
    m = m.copy()
    inv = _inverses(p)
    at = np.arange(count)
    row_ids = np.arange(rows)
    for c in range(cols):
        candidates = (m[:, :, c] != 0) & (row_ids >= rank[:, None])
        found = candidates.any(axis=1)
        if not found.any():
            continue
        # the pivot row moves to row `rank`; matrices without a pivot swap a row with itself
        top = np.minimum(rank, rows - 1)
        piv = np.where(found, candidates.argmax(axis=1), top)
        pivot_rows = m[at, piv]
        m[at, piv] = m[at, top]
        m[at, top] = pivot_rows
        scale = inv[pivot_rows[:, c]] * found
        factors = m[:, :, c] * (row_ids > rank[:, None]) * scale[:, None]
        m[:, :, c:] = (m[:, :, c:] - factors[:, :, None] * pivot_rows[:, None, c:]) % p
        rank += found
    return rank
