"""The unrestricted module walk, kept as an oracle for `batch`'s demand-driven walker.

`batch._module` evaluates a module tree only at the t-degrees the operator
reads, and `batch._GroupElement` forms the `gl` group element one degree
at a time from the base-p digits of the degree.  Before, every node
multiplied out every t-degree up to the truncation, and the group element
was the product of the per-factor exponentials (`pair_mul`).  That walk is
kept here as it was, with its own series arithmetic, for every coefficient
ring of the walker (`linalg._Pointwise`, `batch._Polys`, `monomials._Monomials`)
and for the coordinate ring that `batch._Polys` replaced
(`poly_oracles.CoordinatePolys`), whose Explicit leaves take their terms on
the ring itself (`explicit_terms`).
"""

import numpy as np

from jtcalc.batch import KIND_GL, KIND_MULTI_GA, by_variant
from jtcalc.errors import JTCalcError
from jtcalc.modules import (
    DirectSum,
    Dual,
    Explicit,
    Ext,
    Std,
    Sym,
    Tensor,
    Trivial,
    Twist,
    power_maps,
)


class FullSeries:
    """Polynomials in t with coefficient stacks of a ring, mod t^(top+1), every degree computed."""

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


def explicit_terms(leaf, ring):
    """alpha^i / i! (i < p) for each action matrix alpha of the leaf, as constants of the ring."""
    p = ring.p
    out = []
    for alpha in leaf.matrices:
        alpha = ring.lift(np.array([[v.coeffs for v in row] for row in alpha.embed_into(ring.field).to_rows()]))
        power = ring.identity(ring.dim(alpha))
        terms = [power]
        fact = 1
        for i in range(1, p):
            power = ring.reduce(ring.matmul(power, alpha))
            fact = fact * i % p
            terms.append(power * pow(fact, p - 2, p) % p)
        out.append(tuple(terms))
    return tuple(out)


def texp(ring, b, top, step, with_inv):
    """[exp(t^step B)], with exp(-t^step B) when with_inv: the terms t^(i step) B^i / i!, i < p, up to t^top."""
    p = ring.p
    power = ring.identity(ring.dim(b))
    g, g_inv = {}, {}
    fact = 1
    for i in range(p):
        if i * step > top:
            break
        if i:
            power = b if i == 1 else ring.reduce(ring.matmul(power, b))
            fact = fact * i % p
        term = power * pow(fact, p - 2, p) % p
        g[i * step] = term
        if with_inv:
            g_inv[i * step] = term if i % 2 == 0 else -term % p
    return [g, g_inv] if with_inv else [g]


def scalar_texp(series, c, terms, with_inv):
    """[exp(c alpha)], with exp(-c alpha) when with_inv, for a scalar series c without constant term."""
    g = {0: series.ring.identity(series.ring.dim(terms[0]))}
    g_inv = dict(g)
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


def pair_mul(series, left, right):
    """(g h, h^-1 g^-1) of two [g] or [g, g^-1] pairs."""
    out = [series.mul(left[0], right[0])]
    if len(left) > 1:
        out.append(series.mul(right[1], left[1]))
    return out


def module_walk(series, e, pair, leaves=None):
    """The module tree on a [g] or [g, g^-1] pair of series, every degree up to the truncation."""
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


def gl_operator(ring, mats, e, variant, with_inv):
    """The variant's operator at the tuple of stacks mats[s], the group element a product of factors."""
    p, r = ring.p, len(mats)
    if by_variant(variant, True, False):
        top = p ** (r - 1)
        series = FullSeries(ring, top)
        pair = None
        for s, b in enumerate(mats):
            factor = texp(ring, b, top, p**s, with_inv)
            pair = factor if pair is None else pair_mul(series, pair, factor)
        return series.coefficient(module_walk(series, e, pair)[0], top)
    total = None
    for s, b in enumerate(mats):
        top = p ** (r - 1 - s)
        series = FullSeries(ring, top)
        term = series.coefficient(module_walk(series, e, texp(ring, b, top, 1, with_inv))[0], top)
        total = term if total is None else ring.add(total, term)
    return ring.reduce(total)


def curve_operator(ring, kind, e, variant, mats):
    """`batch.curve_operator` by the unrestricted walk."""
    with_inv = e._has_dual
    if kind == KIND_GL:
        return gl_operator(ring, mats, e, variant, with_inv)
    leaves = {leaf: explicit_terms(leaf, ring) for leaf in e.leaves() if isinstance(leaf, Explicit)}
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
        series = FullSeries(ring, top)
        scalars = [{1: a} for a in mats] if c is None else [series.twist(c, j) for j in range(r)]
        pairs = {}
        for leaf, powers in leaves.items():
            pair = None
            for c_j, terms in zip(scalars, powers):
                factor = scalar_texp(series, c_j, terms, with_inv)
                pair = factor if pair is None else pair_mul(series, pair, factor)
            pairs[leaf] = pair
        term = series.coefficient(module_walk(series, e, None, pairs)[0], top)
        total = term if total is None else ring.add(total, term)
    return ring.reduce(total)
