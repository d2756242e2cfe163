"""
Evaluation of the universal operator on integer numpy stacks: GF(p) chart
sweeps, single finite-field points, and the operator along a curve over
GF(q)[s].  This is the one finite-field evaluator; `modules.eval_unipotent`
is left for symbolic domains.

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
the messages of the pointwise sweep (`enumerate_points`, `CommutingTuple`,
`jt_at_point`), which covers every other field, chart kind and module and
is the reference the tests compare against.

Along a curve (`curve_operator`) the same series and module walker run on
a second coefficient ring, `_Polys`: each coefficient is an (S, m, m, n)
stack of the GF(p^n) coordinates of a polynomial in the curve parameter s.
Products convolve along s, and a twist Tw(i) stretches s by p^i as well as
t and maps the coordinates by Frobenius.  Explicit leaves act through a
stack form of `eval_ga_point` and `texp_element`.

A single finite-field point (`theta`) runs on the same code: every point,
of every chart kind, is a P = 1 `_Pointwise` stack through
`curve_operator`.  Over GF(p^n) that ring holds each entry as its n x n
GF(p) regular-representation block, so its products, validation
(`_validate`) and ranks (`_point_type`) are those of GF(p) matrices;
`_Polys` serves curves only.
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
from .linalg import _convolve, _gfp_rref, _px_trim, _regular, _regular_matrix
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

KIND_GL = "gl"
KIND_GA = "ga"
KIND_MULTI_GA = "multi_ga"

# int64 cells per (P, rows, cols) stack of a chunk: bounds a sweep's memory
# whatever its number of points.
CHUNK_CELLS = 1 << 16


def by_variant(variant, full, exp):
    """`full` when variant is "full", `exp` when it is "exp"; any other variant is an error.

    The one place that decides which operator a variant names.
    """
    if variant == "full":
        return full
    if variant == "exp":
        return exp
    raise JTCalcError(f"unknown operator variant {variant!r}: expected 'full' or 'exp'")


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
    sweep = _Sweep(chart, e, field, variant)
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
    sweep = _Sweep(chart, e, field, variant)
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
    def __init__(self, chart, e, field, variant):
        self.chart = chart
        self.e = e
        self.field = field
        p = self.p = field.p
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
            mats = self.tuples(values)
            _validate(_Pointwise(self.field, len(mats)), [mats[:, s] for s in range(mats.shape[1])])
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
        ring = _Pointwise(self.field, len(mats))
        return _gl_operator(ring, [mats[:, s] for s in range(mats.shape[1])], self.e, self.variant,
                            self.with_inv)


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


def _validate(ring, mats):
    """Raise what `CommutingTuple` raises for the first invalid tuple of the stacks mats[s].

    The reports come in the order of `modules.validate_commuting_tuple`: per
    matrix, a shape other than the first matrix's square, then a nonzero
    p-th power; then every pair that does not commute.
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
    if failed.any():
        point = int(failed.any(axis=0).argmax())
        raise NotNilpotentError(reports[int(failed[:, point].argmax())])


# -- coefficient rings: what a series in t holds at each degree ------------------------


class _Pointwise:
    """Values at a stack of points over GF(q), q = p^n: products point by point.

    Over GF(p) a matrix is its (P, rows, cols) stack of entries.  Over
    GF(p^n) it is its (P, rows n, cols n) stack of GF(p) blocks in the
    layout of `linalg._regular_matrix`: block (i, j) is the n x n matrix of
    multiplication by M[i, j] on GF(p)-coordinates, so its column 0 holds
    the coordinates of M[i, j].  That representation is a ring
    homomorphism, so products, sums, reduction and zero tests are those of
    GF(p) matrices; only what acts on single entries (`kron`,
    `outer_columns`, `lmul`, `frobenius`, `transpose`, `columns`) works
    block by block.
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
        """The one-point stack (1, rows n, cols n) of a (rows, cols, n) coordinate array."""
        if self.n == 1:
            return data[None, :, :, 0]
        return _regular_matrix(self.field, data)[None] % self.p

    def coords(self, m):
        """The (rows, cols, n) coordinates of one matrix of the stack: column 0 of each block."""
        n = self.n
        rows, cols = m.shape[0] // n, m.shape[1] // n
        return m.reshape(rows, n, cols, n)[:, :, :, 0].transpose(0, 2, 1)

    def _blocks(self, m):
        """(P, rows, cols, n, n): the block of each entry."""
        count, rows, cols = m.shape
        n = self.n
        return m.reshape(count, rows // n, n, cols // n, n).transpose(0, 1, 3, 2, 4)

    @staticmethod
    def _unblocks(b):
        count, rows, cols, n = b.shape[:4]
        return b.transpose(0, 1, 3, 2, 4).reshape(count, rows * n, cols * n)

    def kron(self, a, b):
        if self.n > 1:
            ba, bb = self._blocks(a), self._blocks(b)
            count, ra, ca, n = ba.shape[:4]
            rb, cb = bb.shape[1:3]
            prod = ba[:, :, None, :, None] @ bb[:, None, :, None, :]
            return self._unblocks(prod.reshape(count, ra * rb, ca * cb, n, n))
        count, ra, ca = a.shape
        rb, cb = b.shape[1:]
        return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(count, ra * rb, ca * cb)

    def outer_columns(self, x, y):
        """Column-wise tensor products: out[:, i*n + v, c] = x[:, i, c] * y[:, v, c]."""
        if self.n > 1:
            bx, by = self._blocks(x), self._blocks(y)
            count, rx, c, n = bx.shape[:4]
            prod = bx[:, :, None] @ by[:, None]
            return self._unblocks(prod.reshape(count, rx * by.shape[1], c, n, n))
        count, rx, c = x.shape
        return (x[:, :, None, :] * y[:, None, :, :]).reshape(count, rx * y.shape[1], c)

    def lmul(self, mu, m):
        """mu (an integer matrix) times m: mu (x) I_n on the blocks."""
        count, rows, cols = m.shape
        return (mu @ m.reshape(count, rows // self.n, self.n * cols)).reshape(count, len(mu) * self.n, cols)

    def columns(self, idx):
        """The stack columns that hold the columns idx of each matrix: their whole blocks."""
        if self.n == 1:
            return idx
        return (np.asarray(idx)[:, None] * self.n + np.arange(self.n)).ravel()

    def transpose(self, m):
        """The transposes: blocks swap places, each block stays as it is."""
        if self.n == 1:
            return np.swapaxes(m, 1, 2)
        return self._unblocks(self._blocks(m).swapaxes(1, 2))

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
        d *= self.n
        return np.broadcast_to(np.eye(d, dtype=np.int64), (self.count, d, d))

    @staticmethod
    def nonzero(m):
        return m.any(axis=(1, 2))


class _Polys:
    """Polynomials over GF(q), q = p^n, in a curve parameter s.

    A matrix is an (S, rows, cols, n) stack: the GF(p^n) coordinates of its
    s^0, ..., s^(S-1) coefficients, reduced mod p; `reduce` also drops
    trailing zero coefficients, keeping one.  This is the layout of the
    GF(p)[x] kernel in `linalg` with a coordinate axis added, and every
    product is its convolution along the s axis (`linalg._convolve`).
    Over GF(p^n) the right factor enters through its regular representation
    (`linalg._regular`), so the field's modulus reduces the coordinates;
    n = 1 is the same code with a 1 x 1 regular representation.
    """

    def __init__(self, field):
        self.field = field
        self.p = field.p
        self.n = field.n

    def _reg(self, b):
        """out[..., a, c]: coordinate c of x^a times each entry of b."""
        return b[..., None] if self.n == 1 else _regular(self.field, b)

    @staticmethod
    def dim(m):
        return m.shape[1]

    @staticmethod
    def lift(data):
        return data[None]

    @staticmethod
    def columns(idx):
        return idx

    @staticmethod
    def transpose(m):
        return np.swapaxes(m, 1, 2)

    def matmul(self, a, b):
        sa, r, k, n = a.shape
        sb, c = len(b), b.shape[2]
        breg = self._reg(b).transpose(0, 1, 3, 2, 4).reshape(sb, k * n, c * n)
        return _convolve(a.reshape(sa, r, k * n), breg).reshape(sa + sb - 1, r, c, n)

    def kron(self, a, b):
        sa, ra, ca, n = a.shape
        sb, rb, cb = b.shape[:3]
        breg = self._reg(b).transpose(0, 3, 1, 2, 4).reshape(sb, n, rb * cb * n)
        out = _convolve(a.reshape(sa, ra * ca, n), breg).reshape(sa + sb - 1, ra, ca, rb, cb, n)
        return out.transpose(0, 1, 3, 2, 4, 5).reshape(sa + sb - 1, ra * rb, ca * cb, n)

    def outer_columns(self, x, y):
        """Column-wise tensor products: out[:, i*n + v, c] = x[:, i, c] * y[:, v, c]."""
        sa, rx, c, n = x.shape
        sb, ry = y.shape[:2]
        yreg = self._reg(y).transpose(0, 2, 3, 1, 4).reshape(sb, c, n, ry * n)
        out = _convolve(x.transpose(0, 2, 1, 3), yreg).reshape(sa + sb - 1, c, rx, ry, n)
        return out.transpose(0, 2, 3, 1, 4).reshape(sa + sb - 1, rx * ry, c, n)

    @staticmethod
    def lmul(mu, m):
        s, k, c, n = m.shape
        return (mu @ m.reshape(s, k, c * n)).reshape(s, len(mu), c, n)

    @staticmethod
    def add(a, b, into=False):
        """a + b; with `into`, b is added into a, a fresh array of the caller's, where a is
        as long as b."""
        if len(a) < len(b):
            a, b, into = b, a, False
        out = a if into else a.copy()
        out[:len(b)] += b
        return out

    def reduce(self, m):
        return _px_trim(m % self.p)

    def frobenius(self, m, i):
        """Coefficientwise x -> x^(p^i): s is stretched to s^(p^i) and GF(p^n) coordinates map by Frobenius."""
        if i == 0:
            return m
        q = self.p**i
        out = np.zeros(((len(m) - 1) * q + 1,) + m.shape[1:], dtype=np.int64)
        out[::q] = m if self.n == 1 else m @ _frobenius_power(self.field, i).T % self.p
        return out

    def identity(self, d):
        out = np.zeros((1, d, d, self.n), dtype=np.int64)
        out[0, :, :, 0] = np.eye(d, dtype=np.int64)
        return out

    @staticmethod
    def nonzero(m):
        return np.array([m.any()])


@lru_cache(maxsize=None)
def _frobenius_power(field, i):
    out = np.eye(field.n, dtype=np.int64)
    for _ in range(i % field.n):
        out = field.frobenius_matrix @ out % field.p
    out.setflags(write=False)
    return out


# -- series in t over a coefficient ring --------------------------------------------------


class _Series:
    """Polynomials in t with coefficient stacks of a ring, mod t^(top+1).

    A series is a dict {degree: stack}; degree 0 is present in every series
    a module node returns.
    """

    def __init__(self, ring, top):
        self.ring = ring
        self.p = ring.p
        self.top = top

    def _convolve(self, a, b, product):
        ring = self.ring
        out = {}
        for da, ma in a.items():
            for db, mb in b.items():
                d = da + db
                if d <= self.top:
                    term = product(ma, mb)
                    out[d] = ring.add(out[d], term, into=True) if d in out else term
        return {d: ring.reduce(m) for d, m in out.items()}

    def mul(self, a, b):
        return self._convolve(a, b, self.ring.matmul)

    def kron(self, a, b):
        return self._convolve(a, b, self.ring.kron)

    def add(self, a, b):
        out = dict(a)
        for d, m in b.items():
            out[d] = self.ring.reduce(self.ring.add(out[d], m)) if d in out else m
        return out

    def neg(self, a):
        return {d: -m % self.p for d, m in a.items()}

    def transpose(self, a):
        return {d: self.ring.transpose(m) for d, m in a.items()}

    def twist(self, a, i):
        """The Frobenius twist: t -> t^(p^i), and coefficients to their p^i-th powers."""
        q = self.p**i
        return {d * q: self.ring.frobenius(m, i) for d, m in a.items() if d * q <= self.top}

    @staticmethod
    def block_diag(a, b):
        ra, ca = a[0].shape[1:3]
        rb, cb = b[0].shape[1:3]
        out = {}
        for d in sorted(set(a) | set(b)):
            ma, mb = a.get(d), b.get(d)
            lead = max(len(x) for x in (ma, mb) if x is not None)
            m = np.zeros((lead, ra + rb, ca + cb) + a[0].shape[3:], dtype=np.int64)
            if ma is not None:
                m[:len(ma), :ra, :ca] = ma
            if mb is not None:
                m[:len(mb), ra:, ca:] = mb
            out[d] = m
        return out

    def power(self, a, d, ext):
        """Sym^d (or Ext^d) of a series of square stacks, by the recurrence in d."""
        ring = self.ring
        if d == 0:
            return {0: ring.identity(1)}
        n = ring.dim(a[0])
        out = a
        for k in range(2, d + 1):
            mu, cols, vecs = power_maps(n, k, ext)
            cols, vecs = ring.columns(cols), ring.columns(vecs)
            left = {e: m[:, :, cols] for e, m in out.items()}
            right = {e: m[:, :, vecs] for e, m in a.items()}
            pairs = self._convolve(left, right, ring.outer_columns)
            out = {e: ring.reduce(ring.lmul(mu, m)) for e, m in pairs.items()}
        return out

    @staticmethod
    def coefficient(a, degree):
        m = a.get(degree)
        return np.zeros_like(a[0]) if m is None else m


def _texp(ring, b, top, step, with_inv):
    """[exp(t^step B)], with exp(-t^step B) when with_inv: the terms t^(i step) B^i / i!, i < p, up to t^top."""
    p = ring.p
    power = ring.identity(ring.dim(b))
    g, g_inv = {}, {}
    fact = 1
    for i in range(p):
        if i * step > top:
            break
        if i:
            power = ring.reduce(ring.matmul(power, b))
            fact = fact * i % p
        term = power * pow(fact, p - 2, p) % p
        g[i * step] = term
        if with_inv:
            g_inv[i * step] = term if i % 2 == 0 else -term % p
    return [g, g_inv] if with_inv else [g]


def _scalar_texp(series, c, terms, with_inv):
    """[exp(c alpha)], with exp(-c alpha) when with_inv, for a scalar series c without constant term.

    terms[i] is alpha^i / i! (i < p) as a constant stack; as `texp_element`.
    """
    g = {0: terms[0]}
    g_inv = {0: terms[0]}
    cpow = None
    for i in range(1, len(terms)):
        cpow = c if cpow is None else series.mul(cpow, c)
        if not cpow:
            break
        term = series.kron(cpow, {0: terms[i]})
        g = series.add(g, term)
        if with_inv:
            g_inv = series.add(g_inv, term if i % 2 == 0 else series.neg(term))
    return [g, g_inv] if with_inv else [g]


def _pair_mul(series, left, right):
    """(g h, h^-1 g^-1) of two [g] or [g, g^-1] pairs."""
    out = [series.mul(left[0], right[0])]
    if len(left) > 1:
        out.append(series.mul(right[1], left[1]))
    return out


def _module(series, e, pair, leaves=None):
    """The module tree on a [g] or [g, g^-1] pair of series; g^-1 is carried only for Dual.

    Std leaves take `pair`, Explicit leaves their own pair from `leaves`.
    """
    ring = series.ring
    width = len(pair) if pair is not None else len(next(iter(leaves.values())))

    def walk(node):
        if isinstance(node, Std):
            size = ring.dim(pair[0][0])
            if node.n != size:
                raise JTCalcError(f"Std({node.n}) does not match group element size {size}")
            return pair
        if isinstance(node, Explicit):
            return leaves[node]
        if isinstance(node, Trivial):
            return [{0: ring.identity(node.d)}] * width
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

    return walk(e)


def _gl_operator(ring, mats, e, variant, with_inv):
    """The variant's operator at the tuple of stacks mats[s], as `theta_full` / `theta_exp` build it.

    The full operator is the t^(p^(r-1)) coefficient of e on
    prod_s exp(t^(p^s) B_s); the exponential one sums the t^(p^(r-1-s))
    coefficients of e on exp(t B_s).
    """
    p, r = ring.p, len(mats)
    if by_variant(variant, True, False):
        top = p ** (r - 1)
        series = _Series(ring, top)
        pair = None
        for s, b in enumerate(mats):
            factor = _texp(ring, b, top, p**s, with_inv)
            pair = factor if pair is None else _pair_mul(series, pair, factor)
        return series.coefficient(_module(series, e, pair)[0], top)
    total = None
    for s, b in enumerate(mats):
        top = p ** (r - 1 - s)
        series = _Series(ring, top)
        term = series.coefficient(_module(series, e, _texp(ring, b, top, 1, with_inv))[0], top)
        total = term if total is None else ring.add(total, term)
    return ring.reduce(total)


# -- operators along a curve ------------------------------------------------------------


def curve_operator(ring, kind, e, variant, mats):
    """The variant's operator along a curve as a `_Polys` stack (S, m, m, n) of s-coefficients.

    mats holds the tuple along the curve, one `_Polys` stack per matrix
    (1 x 1 for the additive kinds); the module's pairing with the kind is
    checked by the caller.  A single point comes as P = 1 `_Pointwise`
    stacks instead, giving a (1, m n, m n) stack.  This is `theta_variant`
    over GF(q)[s], term for term: a `gl`
    tuple goes through `_gl_operator`; Explicit leaves act through
    `eval_ga_point` (`ga`: c = sum_s a_s t^(p^s), and a_s t alone for
    factor s of the exponential operator) or through the product of
    exp(t a_i alpha_i) (`multi_ga`, t^p = 0, both variants).
    """
    with_inv = _contains_dual(e)
    if kind == KIND_GL:
        return _gl_operator(ring, mats, e, variant, with_inv)
    leaves = {leaf: _explicit_terms(leaf, type(ring), ring.field) for leaf in e.leaves()
              if isinstance(leaf, Explicit)}
    if not leaves:
        raise JTCalcError("module evaluation needs a group element or additive point")
    p, r = ring.p, len(mats)
    if kind == KIND_MULTI_GA:
        parts = [(1, None)]
    elif by_variant(variant, True, False):
        parts = [(p ** (r - 1), {p**s: a for s, a in enumerate(mats) if a.any()})]
    else:
        parts = [(p ** (r - 1 - s), {1: a}) for s, a in enumerate(mats)]
    total = None
    for top, c in parts:
        series = _Series(ring, top)
        # leaf matrix j goes with t a_j on multi_ga, with c^(p^j) on ga
        scalars = [{1: a} for a in mats] if c is None else [series.twist(c, j) for j in range(r)]
        pairs = {}
        for leaf, powers in leaves.items():
            pair = None
            for c_j, terms in zip(scalars, powers):
                factor = _scalar_texp(series, c_j, terms, with_inv)
                pair = factor if pair is None else _pair_mul(series, pair, factor)
            pairs[leaf] = pair
        term = series.coefficient(_module(series, e, None, pairs)[0], top)
        total = term if total is None else ring.add(total, term)
    return ring.reduce(total)


@lru_cache(maxsize=64)
def _explicit_terms(leaf, ring_type, field):
    """alpha^i / i! (i < p) for each action matrix alpha of the leaf, as one-point stacks of the ring."""
    ring = ring_type(field)
    p = ring.p
    out = []
    for alpha in leaf.matrices:
        alpha = ring.lift(alpha.embed_into(field)._data)
        power = ring.identity(ring.dim(alpha))
        terms = [power]
        fact = 1
        for i in range(1, p):
            power = ring.reduce(ring.matmul(power, alpha))
            fact = fact * i % p
            terms.append(power * pow(fact, p - 2, p) % p)
        out.append(tuple(terms))
    return tuple(out)


# -- rank profiles ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _inverses(p):
    inv = np.array([pow(x, p - 2, p) if x else 0 for x in range(p)], dtype=np.int64)
    inv.setflags(write=False)
    return inv


def _mpow(ring, a, k):
    result = None
    while k:
        if k & 1:
            result = a if result is None else ring.reduce(ring.matmul(result, a))
        k >>= 1
        if k:
            a = ring.reduce(ring.matmul(a, a))
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


def _point_type(ring, op, variant):
    """Jordan type of one operator op (the matrix of a P = 1 `_Pointwise` stack), as `jt_at_point`.

    Powers are integer products mod p; a GF(p^n) rank is the GF(p) rank of
    the block matrix over n.  op^p must vanish, the one nilpotency check.
    """
    p = ring.p
    ranks = []
    power = op
    for _ in range(1, p):
        if power.any():
            ranks.append(len(_gfp_rref(power, p)[1]) // ring.n)
            power = power @ op % p
        else:
            ranks.append(0)
    if power.any():
        raise NotNilpotentError(f"{variant} operator is not p-nilpotent")
    return jt_from_rank_profile(RankProfile(p, len(op) // ring.n, tuple(ranks)))


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
