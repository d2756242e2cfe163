"""
Evaluation of the universal operator on integer numpy stacks: chart sweeps,
single finite-field points, the operator along a curve over GF(q)[s], and
the operator over a polynomial ring in the chart parameters.  This is the
one module evaluator of the program.

A sweep of any chart over GF(q), q = p^n, runs one chunk of points at a
time:

* a point is a row of element indices (`FiniteField.from_index`), drawn
  in bulk by a sampled sweep, which asks the generator for exactly the
  words its draws use (`_randrange`); chart templates, constraints and
  rank-locus minors, compiled once into exponent and coefficient arrays
  (`_CompiledPolys`), are evaluated at a (P, k) array of points: mod p
  over GF(p), through the field's log tables over GF(p^n);
* a sweep validates each weighted scaling orbit once and evaluates its
  operator once, on the tuple scaled so its first nonzero entry is 1
  (`_orbit_reduce`), and gives each point its orbit (`jordan_types`):
  tables and closed strata read the same arrays;
* in the `_Pointwise` ring of `linalg` (the program's one GF(q) matrix
  kernel), where a GF(p^n) entry is its n x n GF(p) regular-representation
  block, the one-parameter group element and the
  module tree are evaluated on series in t with (P, m n, m n) coefficient
  stacks mod p, at the t-degrees the operator reads: 0 and D = p^(r-1)
  for the full operator, p^(r-1-s) for factor s of the exponential one.
  Each product node asks its factors only for the degrees that reach
  those (`_module`), and the `gl` group element is formed one degree at a
  time from the base-p digits of the degree (`_GroupElement`);
* Sym and Ext follow the equivariant recurrence
  Sym^d(g) = mu_d (Sym^(d-1)(g) (x) g) J_d, with the bases and cached maps
  of `modules.power_maps`, which the pointwise path uses too;
* a sweep finds Jordan types by the module's structure (`_type_plan`,
  built once per module tree, chart kind, variant, p and r, from the
  point-independent t-supports of `_support`): direct sums, and tensor
  products whose top coefficient is X (x) 1 + 1 (x) Y, split into leaves;
  one walk per chunk, sized from the largest leaf, gives every leaf's
  operator (`_operators`), each leaf is ranked, and each distinct
  combination of leaf rank rows is folded once by `jt_sum` / `jt_tensor`
  (`_typed`); single points, curves and minors walk the whole module;
* Jordan types come from the ranks of the operator's powers, by the one
  loop for sweeps, single points and curves (`jordan._rank_rows`); each
  ring ranks its stacks (`ranks`): many points by batched GF(p)
  elimination with a pivot row per matrix (`linalg._ranks`), one point by
  block pivots (`linalg._block_rank`).

Points, validation errors and Jordan types come out in the order and with
the messages of the per-point sweep (`enumerate_points`, `CommutingTuple`,
`jt_at_point`), which the tests keep as the reference.

Along a curve (`curve_operator`) the same series and module walker run on
`_Polys`, the `_Pointwise` ring whose point axis is the coefficient axis of
the curve parameter s: each coefficient is the (S, m n, m n) stack of the
blocks of a polynomial in s, the layout the GF(p)[x] kernel of `linalg`
multiplies and ranks.  Products convolve the `_Pointwise` products along
s, and a twist Tw(i) stretches s by p^i as well as t.  Explicit leaves act
through a stack form of `eval_ga_point` and `texp_element`, their terms
one-point `_Pointwise` stacks, constants of every ring.  A single
finite-field point (`theta`) is a P = 1 `_Pointwise` stack, checked by
`linalg._validate` when its tuple is built, and ranked by the sweep's loop
over the powers of the operator (`jordan._jordan_types`), as a curve is
over GF(q)(s).

The operator over the chart's coordinate ring (`strata._symbolic_theta`)
runs on the chart's templates in `monomials._Monomials`, a `_Pointwise`
ring whose stacks hold one coefficient matrix per monomial.
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from math import comb, isqrt

import numpy as np

from .errors import ChartError, DomainMismatchError, JTCalcError, NotNilpotentError
from .jordan import TENSOR_DIM_CAP, _profile_type, _rank_rows, jt_sum, jt_tensor
from .linalg import _convolve, _first_invalid, _Pointwise, _px_rank, _px_trim, _regular
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
    power_maps,
)

KIND_GL = "gl"
KIND_GA = "ga"
KIND_MULTI_GA = "multi_ga"

# int64 cells per (P, rows, cols) stack of a chunk: bounds a sweep's memory
# whatever its number of points.  Each stage derives its own chunk from it
# (`_Sweep`): the point stage (draws, chart evaluation, orbit reduction,
# validation) from a point's draws and lifted tuple, an operator walk from the
# largest stack of the type plan's leaves at every t-degree it keeps.
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


def _check_pairing(e, kind, p, height):
    """Raise unless the module's leaves pair with points of this kind, characteristic and height."""
    expl = [leaf for leaf in e.leaves() if isinstance(leaf, Explicit)]
    if kind == KIND_GL:
        if expl:
            raise JTCalcError("Explicit modules pair with additive points, not matrix tuples")
        return
    if any(isinstance(leaf, Std) for leaf in e.leaves()):
        raise JTCalcError("Std leaves pair with matrix tuples, not additive points")
    for leaf in expl:
        if leaf.field.p != p:
            raise DomainMismatchError("module characteristic differs from tuple field")
        if leaf.height != height:
            raise JTCalcError(f"Explicit module of height {leaf.height} used with a {height}-parameter point")


def jordan_types(chart, e, field, variant, budget, seed, samples):
    """(values, orbit, orbit_type, types) of a table sweep, as arrays over its points and orbits.

    values is the (P, k) array of the swept points' element indices, in
    sweep order; orbit[i] numbers the weighted scaling orbit of point i, in
    the order the sweep first meets the orbits (`_Orbits`); types lists the
    distinct Jordan types in the order the orbits first meet them, and
    orbit_type[j] is the number of orbit j's type in it, -1 for the zero
    tuple's orbit.  As in the per-point sweep, every tuple is checked before
    any operator is evaluated, once per orbit (`_Sweep.points`).  Then each
    orbit's operator is evaluated once, on its canonical tuple
    (`_orbit_reduce`), in walks of `sweep.chunk` orbits: the operators of
    the leaves of the module's type plan (`_type_plan`), whose types fold
    into the module's (`_Sweep.types`).
    """
    sweep = _Sweep(chart, e, field, variant)
    orbits = _Orbits(sweep.shape, sweep.dtype)
    # the tuples go out of scope with each chunk; the points and their orbits are kept
    chunks = list(sweep.points(orbits, budget, seed, samples))
    values = np.concatenate([np.zeros((0, len(chart.params)), sweep.dtype)] + [v for v, _ in chunks])
    ids = np.concatenate([np.zeros(0, np.intp)] + [i for _, i in chunks])
    reps = orbits.representatives()
    orbit_type = np.full(len(reps), -1, dtype=np.intp)
    index = {}  # Jordan type -> its number, in the order the orbits meet them
    live = np.flatnonzero(reps.any(axis=(1, 2, 3)))
    for start in range(0, len(live), sweep.chunk):
        part = live[start:start + sweep.chunk]
        numbers, found = sweep.types(reps[part])
        orbit_type[part] = np.array([index.setdefault(jt, len(index)) for jt in found], dtype=np.intp)[numbers]
    return values, ids, orbit_type, list(index)


# -- polynomials at points -----------------------------------------------------------


class _CompiledPolys:
    """Polynomials with GF(p) coefficients in k variables, compiled once for evaluation: the
    (monomials, k) exponents `exps` of the monomials that occur, and the (polys, monomials)
    coefficient matrix `matrix` mod p.  `at_ints` evaluates at one point of GF(p) ints,
    `at_points` at a stack of points over any GF(q), `at_stacks` along a curve.
    """

    def __init__(self, exps, matrix, p):
        self.exps, self.matrix, self.p = exps, matrix, p

    @classmethod
    def from_terms(cls, exps, count, poly, mono, coeffs, p):
        """count polynomials from their terms: coeffs[i] times monomial exps[mono[i]] in poly[i]."""
        occurs = np.zeros(len(exps), dtype=bool)
        occurs[mono] = True
        matrix = np.zeros((count, int(occurs.sum())), dtype=np.int64)
        matrix[poly, np.cumsum(occurs)[mono] - 1] = coeffs
        return cls(exps[occurs], matrix, p)

    @classmethod
    def from_polys(cls, polys, k, p):
        """`Polynomial`s compiled, their monomials in the order the terms first meet them."""
        index = {}
        terms = [(j, index.setdefault(e, len(index)), c.coeffs[0]) for j, poly in enumerate(polys)
                 for e, c in poly.terms.items()]
        exps = np.array(list(index), dtype=np.int64).reshape(len(index), k)
        return cls.from_terms(exps, len(polys), *np.array(terms, dtype=np.int64).reshape(len(terms), 3).T, p)

    @cached_property
    def _sparse(self):
        """Each monomial as its (variable, exponent) factors, and each polynomial as its
        (monomial, coefficient) pairs: the forms `at_ints` and `at_stacks` read."""
        return (tuple(tuple((v, k) for v, k in enumerate(exps) if k) for exps in self.exps.tolist()),
                tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in self.matrix.tolist()))

    def at_ints(self, values):
        """Values mod p at a point of GF(p) ints."""
        p = self.p
        monomials, rows = self._sparse
        mono = []
        for factors in monomials:
            m = 1
            for v, k in factors:
                m *= values[v] ** k
            mono.append(m % p)
        return [sum(c * mono[i] for i, c in row) % p for row in rows]

    def at_points(self, field, values):
        """(P, len(polys)) values at a (P, k) stack of points, as element indices both ways.

        Evaluated over row blocks that keep within CHUNK_CELLS.
        """
        step = max(1, CHUNK_CELLS // ((len(self.exps) + len(self.matrix) + 1) * field.n))
        if len(values) <= step:
            return self._eval(field, values)
        return np.concatenate([self._eval(field, values[i:i + step]) for i in range(0, len(values), step)])

    def _eval(self, field, values):
        """The values at a block of points, on the field's log tables: a monomial's log is the
        exponents times the variables' logs, mod q - 1."""
        log, exp, digits, weights = _log_tables(field)
        logs = log[values] @ self.exps.T % (field.order - 1)
        # a monomial vanishes where a variable it contains does
        zero = (values == 0) @ (self.exps.T > 0)
        mono = digits[np.where(zero, 0, exp[logs])]
        return (self.matrix @ mono % self.p) @ weights

    def at_stacks(self, ring, values):
        """Values along a curve, on the stacks of a `_Polys` ring: `values[v]`, for each
        variable v that occurs, is the (S, n, n) stack of a 1 x 1 matrix.  Returns the
        (len(polys), S, n, n) stacks of the values, padded to one length S.

        A value is a GF(p)-linear combination of monomials, and so is its block."""
        mono = []
        for factors in self._sparse[0]:
            m = None
            for v, k in factors:
                for _ in range(k):
                    m = values[v] if m is None else ring.reduce(ring.matmul(m, values[v]))
            mono.append(ring.identity(1) if m is None else m)
        length = max((len(m) for m in mono), default=1)
        n = ring.n
        table = np.zeros((len(mono), length, n, n), dtype=np.int64)
        for i, m in enumerate(mono):
            table[i, :len(m)] = m
        flat = self.matrix @ table.reshape(len(mono), length * n * n) % self.p
        return flat.reshape(len(self.matrix), length, n, n)


@lru_cache(maxsize=None)
def _log_tables(field):
    """(log, exp, digits, weights): GF(q) arithmetic on element indices (`FiniteField.from_index`).

    exp[k] is the index of g^k (k < q - 1, g the first primitive element) and log[exp[k]] = k;
    a zero factor is masked, not logged.  digits[i] = coordinates of i; coordinates @ weights = i.
    """
    p, n, q = field.p, field.n, field.order
    weights = p ** np.arange(n)
    digits = (np.arange(q)[:, None] // weights % p).astype(np.int8)
    divisors = {d for s in range(1, isqrt(q - 1) + 1) if (q - 1) % s == 0 for d in (s, (q - 1) // s)}
    g = next(x for x in map(field.from_index, range(1, q))
             if all(x**d != field.one() for d in divisors - {q - 1}))
    # g^0, ..., g^(2^j - 1), then those times g^(2^j)
    powers, x = digits[1:2], np.array(g.coeffs)
    while len(powers) < q - 1:
        powers = np.concatenate([powers, powers @ _regular(field, x) % p])
        x = x @ _regular(field, x) % p
    exp = powers[:q - 1] @ weights
    log = np.zeros(q, dtype=np.int64)
    log[exp] = np.arange(q - 1)
    for table in (log, exp, digits, weights):
        table.setflags(write=False)
    return log, exp, digits, weights


def _coords(field, indices):
    """The coordinates of elements given by their indices: a new last axis of length n."""
    if field.n == 1:
        return indices[..., None]
    return _log_tables(field)[2][indices]


def _index_dtype(q):
    return np.int8 if q <= 128 else np.int32


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


def _orbit_reduce(field, kind, mats):
    """Canonical tuples of the weighted scaling orbits of a (P, r, a, b) stack of element indices.

    Each tuple is scaled so that its first nonzero entry, beta^-1 in matrix
    s, becomes 1: B_s' goes to alpha^(p^s') B_s' = beta^(p^(s'-s)) B_s' for
    alpha = beta^(p^-s).  A `multi_ga` point scales every entry by beta.
    The zero tuple stays zero.
    """
    log, exp = _log_tables(field)[:2]
    q1 = field.order - 1
    count, r = mats.shape[:2]
    flat = mats.reshape(count, r, -1)
    entries = flat.reshape(count, -1)
    first = (entries != 0).argmax(axis=1)
    beta = -log[entries[np.arange(count), first]] % q1
    shift = 0 if kind == KIND_MULTI_GA else (np.arange(r) - first[:, None] // flat.shape[2]) % field.n
    scale = beta[:, None] * field.p**shift % q1
    return np.where(flat == 0, 0, exp[(log[flat] + scale[:, :, None]) % q1]).reshape(mats.shape)


# -- the sweep -----------------------------------------------------------------------


def _first_met(keys):
    """(numbers, first) for a 1-d array of keys: numbers[i] numbers the value of keys[i]
    among the distinct values, in the order the array first meets them, and value j first
    occurs at first[j]."""
    if not len(keys):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    # equal keys are neighbours in key order: each run of them is one value
    # (np.unique is not used: with numpy 2.4 its first call alone raised
    # the peak RSS of a sweep run by 0.3 to 1.5 MB)
    order = np.argsort(keys)
    ranked = keys[order]
    step = np.ones(len(keys), dtype=np.intp)
    step[1:] = ranked[1:] != ranked[:-1]
    first = np.minimum.reduceat(order, np.flatnonzero(step))
    met = np.argsort(first)
    number = np.empty_like(met)
    number[met] = np.arange(len(met))
    numbers = np.empty_like(order)
    numbers[order] = number[np.cumsum(step) - 1]
    return numbers, first[met]


class _Orbits:
    """The weighted scaling orbits a sweep has met, numbered in the order it met them.

    Orbit j is kept as the bytes of its canonical tuple (`_orbit_reduce`),
    at keys[j]: one tuple per orbit, none per point.
    """

    def __init__(self, shape, dtype):
        self.shape = shape
        self.dtype = np.dtype(dtype)
        self.keys = np.zeros(0, dtype=(np.void, int(np.prod(shape)) * self.dtype.itemsize))

    def add(self, reduced):
        """The orbit number of each canonical tuple of a (P, *shape) stack; orbits not met
        before are numbered next, in the order of the stack."""
        known = len(self.keys)
        keys = np.ascontiguousarray(reduced.reshape(len(reduced), -1), dtype=self.dtype).view(self.keys.dtype)
        both = np.concatenate([self.keys, keys.ravel()])
        # the known keys are distinct and come first, so they keep their numbers
        numbers, first = _first_met(both)
        self.keys = both[first]
        return numbers[known:]

    def representatives(self, start=0):
        """The canonical tuple of every orbit from number start on, in orbit order, as int64
        element indices."""
        keys = self.keys[start:]
        return keys.view(self.dtype).reshape(len(keys), *self.shape).astype(np.int64)


class _Sweep:
    """A chart sweep over GF(q), q = p^n.

    A point is a row of element indices, one per parameter; its tuple is an
    (r, a, a) array of them, a = N on `gl` charts and 1 on the additive
    kinds, as `Chart.tuple_at` builds it.  Each stage works in the chunk
    that keeps its stacks within CHUNK_CELLS:

    * `point_chunk` points are drawn (or enumerated), evaluated,
      orbit-reduced and checked at a time; a point costs about 8 cells per
      parameter in the draws and r (a n)^2 cells in its lifted tuple, the
      largest stacks of validation;
    * `chunk` orbits share one operator walk (`types`), which gives the
      operators of the leaves of the module's type plan (`_type_plan`); its
      stacks hold terms = p^(r-1) + 1 t-degrees of the largest matrix that
      the group element or a leaf builds.  `types` ranks each leaf and
      folds their types by the closed forms of direct sums and tensor
      products.  chunk is at most the point chunk's budget, and
      point_chunk is a multiple of it;
    * the walk of the whole module, where a leaf is not p-nilpotent, takes
      `whole_chunk` orbits at a time, sized in the same way from the whole
      module tree.
    """

    def __init__(self, chart, e, field, variant):
        self.chart = chart
        self.e = e
        self.field = field
        self.p, self.n = field.p, field.n
        self.variant = variant
        size = chart.size if chart.kind == KIND_GL else 1
        self.shape = (chart.r, size, size)
        self.dtype = _index_dtype(field.order)
        terms = self.p ** (chart.r - 1) + 1

        def walk_chunk(nodes):
            cells = max([_cells(node) for node in nodes] + [chart.size**2])
            return max(1, CHUNK_CELLS // (terms * cells * self.n**2))

        points = max(1, CHUNK_CELLS // (8 * len(chart.params) + chart.r * size * size * self.n**2))
        self.chunk = min(walk_chunk(_type_plan(e, chart.kind, variant, self.p, chart.r)[0]), points)
        self.point_chunk = points // self.chunk * self.chunk
        self.whole_chunk = walk_chunk([e])

    def points(self, orbits, budget, seed, samples):
        """(values, orbit) chunks of the points `enumerate_points` yields, in its order:
        orbit[i] is the number of point i's orbit in `orbits` (`_Orbits.add`).

        Validity is constant on a weighted scaling orbit: the matrices of a
        scaled tuple are scalar multiples of the tuple's, and so are
        p-nilpotent, and commute, where those are and do.  So each chunk
        checks only the canonical tuples of the orbits it adds, in orbit
        order.  The first invalid orbit is that of the chunk's first invalid
        point, with its report, since the orbits before it are met first and
        the known ones are valid.  So this raises where `enumerate_points`
        raises: at the first invalid tuple, or after the last chunk of a
        sampled sweep that runs out of attempts.
        """
        chart, field = self.chart, self.field
        if field.p != chart.p:
            raise ChartError("field characteristic differs from the chart's")
        if budget <= 0:
            raise ChartError("budget must be positive")
        total = field.order ** len(chart.params)
        if total > budget and samples < 0:
            raise ChartError(f"sample count {samples} is negative")
        emitted = 0
        for values in _regroup(self._accepted(total <= budget, seed, samples), self.point_chunk):
            known = len(orbits.keys)
            numbers = orbits.add(_orbit_reduce(field, chart.kind, self.tuples(values)))
            if chart.kind == KIND_GL:
                invalid = _first_invalid(*self._stacks(orbits.representatives(known)))
                if invalid is not None:
                    raise NotNilpotentError(invalid[1])
            emitted += len(values)
            yield values, numbers
        if total > budget and emitted < samples:
            raise ChartError("rejection sampling failed to find enough chart points")

    def tuples(self, values):
        """The (P, r, a, a) tuples at a (P, k) block of points."""
        chart = self.chart
        mats = chart._compiled_templates.at_points(self.field, values)
        mats = mats.reshape(len(values), chart.r, chart.size, chart.size)
        return mats if chart.kind == KIND_GL else mats[:, :, :1, :1]

    def _accepted(self, exhaustive, seed, samples):
        field, k, chunk = self.field, len(self.chart.params), self.point_chunk
        q = field.order
        constraints = self.chart._compiled_constraints

        def accepted(values):
            return values[~constraints.at_points(field, values).any(axis=1)]

        if exhaustive:
            total = q**k
            digits = q ** np.arange(k - 1, -1, -1)
            for start in range(0, total, chunk):
                indices = np.arange(start, min(start + chunk, total))
                yield accepted((indices[:, None] // digits % q).astype(self.dtype))
            return
        rng = random.Random(seed)
        emitted = attempts = 0
        limit = max(100 * samples, 1000)
        while emitted < samples and attempts < limit:
            # the attempts that the acceptance so far expects the missing samples to take
            need = chunk if not emitted else -(-(samples - emitted) * attempts // emitted)
            n = min(need, chunk, limit - attempts)
            attempts += n
            values = accepted(_randrange(rng, q, n * k).reshape(n, k))[: samples - emitted]
            emitted += len(values)
            yield values

    def types(self, mats):
        """(numbers, types) at a stack of nonzero tuples: types lists the distinct Jordan types
        of the selected operator in the order the stack meets them, and numbers[i] is the
        number of tuple i's.

        Each leaf of the module's type plan (`_type_plan`) is ranked, and
        each distinct combination of the leaves' rank rows is folded once by
        the closed forms of tensor products and direct sums (`_typed`).  A
        leaf's operator need not be p-nilpotent where the module's is
        (X (x) 1 + 1 (x) Y is when X^p = -Y^p is a nonzero scalar), so a
        leaf that is not sends the stack to the walk of the whole module,
        which answers or raises as a sweep without a plan.  That walk's
        stacks are larger than the leaves', so it takes the stack in pieces
        of `whole_chunk` tuples.
        """
        kind = self.chart.kind
        report = f"{self.variant} operator is not p-nilpotent"
        ring, ops = self._operator(mats)
        try:
            rows = [_rank_rows(ring, op, report) for op in ops]
        except NotNilpotentError:
            whole = []
            for start in range(0, len(mats), self.whole_chunk):
                ring, stacks = self._stacks(mats[start:start + self.whole_chunk])
                whole.append(_rank_rows(ring, curve_operator(ring, kind, self.e, self.variant, stacks), report))
            return _typed(self.p, 0, (self.e.dim(),), [np.concatenate(whole)])
        tree = _type_plan(self.e, kind, self.variant, self.p, self.chart.r)[1]
        return _typed(self.p, tree, tuple(ring.dim(op) for op in ops), rows)

    def _operator(self, mats):
        """The `_Pointwise` ring of a stack of tuples, and the operators of the type plan's
        leaves at them as its stacks: one walk of the module's group elements."""
        ring, stacks = self._stacks(mats)
        leaves = _type_plan(self.e, self.chart.kind, self.variant, self.p, self.chart.r)[0]
        return ring, _operators(ring, self.chart.kind, self.e, self.variant, stacks, leaves)

    def _stacks(self, mats):
        """The `_Pointwise` ring of a stack of tuples, and their matrices as its stacks."""
        ring = _Pointwise(self.field, len(mats))
        return ring, [ring.lift(_coords(self.field, mats[:, s])) for s in range(mats.shape[1])]


@lru_cache(maxsize=64)
def _type_plan(e, kind, variant, p, r):
    """(leaves, tree): how a sweep finds the Jordan types of module e, from its structure.

    At a point, the operator of a direct sum is the block sum of its
    summands' operators, and that of a tensor product is X (x) 1 + 1 (x) Y,
    X and Y its factors', when the t^D coefficient of the product's series
    has no cross terms: no degrees 0 < i < D of the left factor's support
    and j of the right's (`_support`) with i + j = D, for the top degree D
    of every operator term (`_terms`), the degree-0 coefficients being
    identities.  Then the type is jt_sum or jt_tensor of the factors' types
    (Carlson, Friedlander & Pevtsova, "Modules of constant Jordan type",
    2008, for the tensor rule).  So a DirectSum node always splits, a Tensor
    node splits when it passes that test and its type stays within
    TENSOR_DIM_CAP, and every other node is a leaf, whose operator is
    walked and ranked.  The supports of Std leaves are those of the group
    element, of Explicit leaves every degree up to top: supersets of theirs
    at any point, so a split found here holds at every point.

    leaves lists the leaf nodes in walk order; tree is a leaf's index into
    them, or ("tensor" | "sum", left tree, right tree).  An unknown variant
    gives the one leaf e, whose walk raises the variant's error.
    """
    try:
        terms = _terms(kind, variant, p, r)
    except JTCalcError:
        return (e,), 0
    explicit = [leaf for leaf in e.leaves() if isinstance(leaf, Explicit)]
    keys = [(top, *_plan_key(p, r, top, s, explicit)) for top, s in terms]
    leaves = []
    tree = _plan(e, p, keys, leaves)
    return tuple(leaves), tree


def _plan_key(p, r, top, s, explicit):
    """The (std, explicit) `_support` key of the operator term (top, s) in a type plan: Std
    leaves have the degrees of the `_GroupElement` of matrix s, or of the whole tuple, and the
    Explicit leaves in explicit every degree up to top."""
    every = frozenset(range(top + 1))
    return min(top, p ** (r if s is None else 1) - 1), tuple((leaf, every) for leaf in explicit)


def _plan(node, p, keys, leaves):
    """The tree of `_type_plan` below node, appending its leaves to leaves in walk order; keys
    holds the (top, std, explicit) `_support` key of each operator term."""
    if isinstance(node, Tensor) and node.left.dim() * node.right.dim() <= TENSOR_DIM_CAP:
        split = not any(0 < i < top and top - i in _support(node.right, top, p, std, explicit)
                        for top, std, explicit in keys for i in _support(node.left, top, p, std, explicit))
    else:
        split = isinstance(node, DirectSum)
    if split:
        return ("sum" if isinstance(node, DirectSum) else "tensor",
                _plan(node.left, p, keys, leaves), _plan(node.right, p, keys, leaves))
    leaves.append(node)
    return len(leaves) - 1


# the closed form of the Jordan type of each kind of split node
_FOLDS = {"tensor": jt_tensor, "sum": jt_sum}


def _typed(p, tree, dims, rows):
    """(numbers, types) of `_Sweep.types` from the rank rows (`_rank_rows`) of the type plan's
    leaves, dims their dimensions: each distinct combination of rows is folded once."""
    keys = np.ascontiguousarray(np.concatenate(rows, axis=1))
    combos, first = _first_met(keys.view((np.void, keys.shape[1] * keys.itemsize)).ravel())
    index = {}  # Jordan type -> its number, in the order the stack meets them
    numbers = [index.setdefault(_fold(tree, p, dims, tuple(row)), len(index)) for row in keys[first].tolist()]
    return np.array(numbers, dtype=np.intp)[combos], list(index)


def _fold_tree(tree, p, dims, ranks):
    """The Jordan type of a module from its type plan's leaves (`_type_plan`): leaf k has
    dimension dims[k] and the ranks of its operator's powers at ranks[k (p-1):(k+1) (p-1)]."""
    if isinstance(tree, int):
        return _profile_type(p, dims[tree], ranks[tree * (p - 1):(tree + 1) * (p - 1)])
    op, left, right = tree
    return _FOLDS[op](_fold_tree(left, p, dims, ranks), _fold_tree(right, p, dims, ranks))


# few combinations of leaf ranks occur, so each is folded once; the subtrees are not cached,
# since their keys hold the whole combination too
_fold = lru_cache(maxsize=4096)(_fold_tree)


def _randrange(rng, q, count):
    """`count` successive `rng.randrange(q)` draws, leaving rng where they would.

    randrange(q) takes 32-bit Mersenne Twister words w until w >> (32 - k),
    k = q.bit_length(), is below q, and returns that; getrandbits(32 W)
    returns W such words, the first as its lowest 32 bits.  So the words are
    drawn in bulk and filtered, each round exactly as many as draws are
    still missing: those draws take at least that many words, so every word
    drawn is one that the draws use, and the generator ends where they leave
    it.  The draws are int8 while q <= 128.
    """
    shift = 32 - q.bit_length()
    rounds = [np.zeros(0, dtype=np.uint32)]
    missing = count
    while missing:
        words = np.frombuffer(rng.getrandbits(32 * missing).to_bytes(4 * missing, "little"), dtype="<u4") >> shift
        rounds.append(words[words < q])
        missing -= len(rounds[-1])
    return np.concatenate(rounds).astype(_index_dtype(q))


def _cells(e):
    """Cells per point and t-degree of the largest stack that evaluating e builds."""
    cells = e.dim() ** 2
    if isinstance(e, (Sym, Ext)):
        n, ext = e.inner.dim(), isinstance(e, Ext)
        for d in range(2, e.d + 1):
            cells = max(cells, _power_dim(n, d - 1, ext) * n * _power_dim(n, d, ext))
    return max([cells] + [_cells(child) for child in e.children])


def _power_dim(n, d, ext):
    return comb(n, d) if ext else comb(n + d - 1, d)


# -- coefficient rings: what a series in t holds at each degree ------------------------
#
# Points over GF(q) are stacks of `linalg._Pointwise`; this module adds the
# ring of polynomials along a curve, the same stacks with the point axis read
# as the coefficient axis of the curve parameter.


class _Polys(_Pointwise):
    """Polynomials over GF(q), q = p^n, in a curve parameter s.

    A matrix is the (S, rows n, cols n) stack of the `_Pointwise` blocks of
    its s^0, ..., s^(S-1) coefficients, the layout of the GF(p)[x] kernel
    of `linalg`; `reduce` also drops trailing zero coefficients, keeping
    one.  What acts on single coefficients (`lift`, `lmul`, `transpose`,
    `columns`, `identity`) is `_Pointwise`'s, and every product is the
    convolution along s of a `_Pointwise` product (`linalg._convolve`).  A
    twist Tw(i) stretches s by p^i as well as mapping each coefficient by
    Frobenius.  The rank is the one over GF(q)(s) (`linalg._px_rank`).
    """

    matmul = staticmethod(_convolve)

    def kron(self, a, b):
        return _convolve(a, b, super().kron, a[0].size * b[0].size // self.n**2)

    def outer_columns(self, x, y):
        """Column-wise tensor products: out[:, i*n + v, c] = x[:, i, c] * y[:, v, c]."""
        return _convolve(x, y, super().outer_columns, x[0].size * y.shape[1] // self.n)

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
        """Coefficientwise x -> x^(p^i): s is stretched to s^(p^i) and each coefficient maps by Frobenius."""
        if i == 0:
            return m
        q = self.p**i
        out = np.zeros(((len(m) - 1) * q + 1,) + m.shape[1:], dtype=np.int64)
        out[::q] = super().frobenius(m, i)
        return out

    @staticmethod
    def nonzero(m):
        return np.array([m.any()])

    def ranks(self, m):
        """The rank over GF(q)(s) of a matrix of the ring, as the one entry of an array, as
        `nonzero` gives its one zero test."""
        return np.array([_px_rank(m, self.p) // self.n])


# -- series in t over a coefficient ring --------------------------------------------------


class _Series:
    """Polynomials in t with coefficient stacks of a ring, mod t^(top+1).

    A series is a dict {degree: stack}; degree 0 is present in every series
    a module node returns.  A product computes only the output degrees in
    `want`; `degrees` holds them all.
    """

    def __init__(self, ring, top):
        self.ring = ring
        self.p = ring.p
        self.top = top
        self.degrees = range(top + 1)

    def _convolve(self, a, b, product, want):
        ring = self.ring
        out = {}
        for da, ma in a.items():
            for db, mb in b.items():
                d = da + db
                if d in want:
                    term = product(ma, mb)
                    out[d] = ring.add(out[d], term, into=True) if d in out else term
        return {d: ring.reduce(m) for d, m in out.items()}

    def mul(self, a, b, want):
        return self._convolve(a, b, self.ring.matmul, want)

    def kron(self, a, b, want):
        return self._convolve(a, b, self.ring.kron, want)

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
        """The Frobenius twist: t -> t^(p^i), and coefficients to their p^i-th powers.

        A degree-0 coefficient passes through untwisted: in every series twisted here it is
        either absent (the scalar series c) or the identity (a module node), which a twist keeps.
        """
        q = self.p**i
        return {d * q: self.ring.frobenius(m, i) if d else m for d, m in a.items() if d * q <= self.top}

    @staticmethod
    def block_diag(a, b):
        ra, ca = a[0].shape[1:]
        rb, cb = b[0].shape[1:]
        out = {}
        for d in sorted(set(a) | set(b)):
            ma, mb = a.get(d), b.get(d)
            lead = max(len(x) for x in (ma, mb) if x is not None)
            m = np.zeros((lead, ra + rb, ca + cb), dtype=np.int64)
            if ma is not None:
                m[:len(ma), :ra, :ca] = ma
            if mb is not None:
                m[:len(mb), ra:, ca:] = mb
            out[d] = m
        return out

    def power(self, a, d, ext, steps):
        """Sym^d (or Ext^d) of a series of square stacks, by the recurrence in d.

        steps[k - 2] = (want, left, right) for level k: it gives the degrees
        want, from the degrees left of level k - 1 and right of a.
        """
        ring = self.ring
        if d == 0:
            return {0: ring.identity(1)}
        n = ring.dim(a[0])
        out = a
        for k, (want, left, right) in zip(range(2, d + 1), steps):
            mu, cols, vecs = power_maps(n, k, ext)
            cols, vecs = ring.columns(cols), ring.columns(vecs)
            left = {x: out[x][:, :, cols] for x in left if x in out}
            right = {y: a[y][:, :, vecs] for y in right if y in a}
            pairs = self._convolve(left, right, ring.outer_columns, want)
            out = {x: ring.reduce(ring.lmul(mu, m)) for x, m in pairs.items()}
        return out

    @staticmethod
    def shifts(want, other, own):
        """The degrees d - y in own, d in want and y in other: what a factor with support own
        gives to the degrees want of its product with a factor of support other."""
        return {d - y for d in want for y in other if d - y in own}

    @staticmethod
    def coefficient(a, degree):
        m = a.get(degree)
        return np.zeros_like(a[0]) if m is None else m


class _GroupElement:
    """g = prod_s exp(t^(p^s) B_s) mod t^(top+1) at the stacks B_s of `mats`, with g^-1 when
    with_inv, one t-degree at a time.

    Factor s has one term per degree i p^s, i < p: B_s^i / i!.  So the
    coefficient of t^d is the product, in factor order, of the terms of the
    base-p digits i_s of d, identity factors left out.  g^-1 is
    prod_s exp(-t^(p^s) B_s) in reverse factor order: its coefficient is
    (-1)^(sum i_s) times the product of the same terms in reverse order,
    which is not -g[d] where the B_s do not commute.
    """

    def __init__(self, ring, mats, top, with_inv):
        self.ring = ring
        self.dim = ring.dim(mats[0])
        for s, m in enumerate(mats):
            if m.shape[1:] != mats[0].shape[1:] or m.shape[1] != m.shape[2]:
                raise JTCalcError(f"matrix {s} is not square of size {self.dim}")
        self.width = 2 if with_inv else 1
        self.degrees = range(min(top, ring.p ** len(mats) - 1) + 1)
        self.terms = [[ring.reduce(b)] for b in mats]  # B_s^i / i! at terms[s][i - 1]
        one = ring.identity(self.dim)
        self.coeffs = {0: [one, one]}  # degree -> [g, g^-1] coefficients

    def pair(self, want):
        """[g] or [g, g^-1] at the degrees of want that g has."""
        coeffs = self.coeffs
        for d in want:
            if d not in coeffs and d in self.degrees:
                coeffs[d] = self._coefficients(d)
        return [{d: coeffs[d][w] for d in want if d in coeffs} for w in range(self.width)]

    def _term(self, s, i):
        ring, p = self.ring, self.ring.p
        terms = self.terms[s]
        while len(terms) < i:
            k = len(terms) + 1
            terms.append(ring.reduce(ring.matmul(terms[-1], terms[0]) * pow(k, p - 2, p)))
        return terms[i - 1]

    def _coefficients(self, d):
        """[g[d]] or [g[d], g^-1[d]], for a degree d > 0."""
        ring, p = self.ring, self.ring.p
        terms, odd = [], 0
        for s in range(len(self.terms)):
            d, i = divmod(d, p)
            if i:
                terms.append(self._term(s, i))
                odd ^= i & 1
        g = terms[0]
        for term in terms[1:]:
            g = ring.reduce(ring.matmul(g, term))
        if self.width == 1:
            return [g]
        g_inv = terms[-1]
        for term in terms[-2::-1]:
            g_inv = ring.reduce(ring.matmul(g_inv, term))
        return [g, -g_inv % p if odd else g_inv]


def _scalar_texp(series, c, terms, with_inv):
    """[exp(c alpha)], with exp(-c alpha) when with_inv, for a scalar series c without constant term.

    terms[i] is alpha^i / i! (i < p) as a one-point stack; as `texp_element`.  They enter as
    right Kronecker factors of the powers of c, which span every point of the ring's stacks;
    the constant term is the ring's identity, which does too.
    """
    every = series.degrees
    g = {0: series.ring.identity(series.ring.dim(terms[0]))}
    g_inv = dict(g)
    cpow = None
    for i in range(1, len(terms)):
        cpow = c if cpow is None else series.mul(cpow, c, every)
        if not cpow:
            break
        term = series.kron(cpow, {0: terms[i]}, every)
        g = series.add(g, term)
        if with_inv:
            g_inv = series.add(g_inv, term if i % 2 == 0 else series.neg(term))
    return [g, g_inv] if with_inv else [g]


def _pair_mul(series, left, right):
    """(g h, h^-1 g^-1) of two [g] or [g, g^-1] pairs, every degree."""
    out = [series.mul(left[0], right[0], series.degrees)]
    if len(left) > 1:
        out.append(series.mul(right[1], left[1], series.degrees))
    return out


@lru_cache(maxsize=1024)
def _support(node, top, p, std, explicit):
    """The degrees a node's series can have mod t^(top+1), as a frozenset: those of the Std
    leaves' series are 0, ..., std, those of an Explicit leaf's its degrees in explicit, a
    tuple of (leaf, degrees) pairs.  A tensor product's support is the sums x + y up to top,
    x and y in its factors' supports.  Supports depend on the node and the leaves' supports
    alone, not on any point.
    """
    key = top, p, std, explicit
    if isinstance(node, Std):
        return frozenset(range(std + 1))
    if isinstance(node, Explicit):
        return dict(explicit)[node]
    if isinstance(node, Dual):
        return _support(node.inner, *key)
    if isinstance(node, (Sym, Ext)) and node.d:
        return _levels(node, *key)[-1]
    if isinstance(node, Tensor):
        return _sums(_support(node.left, *key), _support(node.right, *key), top)
    if isinstance(node, DirectSum):
        return _support(node.left, *key) | _support(node.right, *key)
    if isinstance(node, Twist):
        q = p**node.i
        return frozenset(d * q for d in _support(node.inner, *key) if d * q <= top)
    # Trivial, Sym^0 and Ext^0 are constant; an unknown node raises when walked
    return frozenset({0})


@lru_cache(maxsize=1024)
def _levels(node, top, p, std, explicit):
    """The supports (`_support`) of Sym^k (or Ext^k) of a Sym (Ext) node's inner series,
    k = 1, ..., d."""
    out = [_support(node.inner, top, p, std, explicit)]
    for _ in range(1, node.d):
        out.append(_sums(out[-1], out[0], top))
    return tuple(out)


def _sums(a, b, top):
    return frozenset(x + y for x in a for y in b if x + y <= top)


def _walk_key(element, pairs):
    """The (std, explicit) `_support` key of the leaves of a walk (`_module`): the group
    element's top degree, or each Explicit leaf with the degrees of its series."""
    if element is not None:
        return element.degrees[-1], ()
    return None, tuple((leaf, frozenset(pair[0])) for leaf, pair in pairs.items())


def _module(series, node, want, element, pairs, supports):
    """The [g] or [g, g^-1] pair of series of a node of the module tree, at least at the
    degrees of want in its support; g^-1 is carried only for Dual.  The operator reads
    degrees 0 and top of the root.

    Std leaves take the pair of `element` (a `_GroupElement`), Explicit
    leaves theirs from `pairs`; supports is their `_walk_key`.  A tensor
    product, and each level of the Sym/Ext recurrence, asks each factor only
    for the degrees d - y, y in the other factor's support; Tw(i) asks for
    d / p^i.
    Every node's series is the identity at degree 0, so a tensor product's
    degree-0 coefficient is the identity, not a Kronecker product.
    """
    ring, p, top = series.ring, series.p, series.top
    if isinstance(node, Std):
        if node.n != element.dim:
            raise JTCalcError(f"Std({node.n}) does not match group element size {element.dim}")
        return element.pair(want)
    if isinstance(node, Explicit):
        return pairs[node]
    if isinstance(node, Trivial):
        width = element.width if element is not None else len(next(iter(pairs.values())))
        return [{0: ring.identity(node.d)}] * width
    if isinstance(node, Dual):
        g, g_inv = _module(series, node.inner, want, element, pairs, supports)
        return [series.transpose(g_inv), series.transpose(g)]
    if isinstance(node, Tensor):
        left, right = _support(node.left, top, p, *supports), _support(node.right, top, p, *supports)
        a = _module(series, node.left, series.shifts(want, right, left), element, pairs, supports)
        b = _module(series, node.right, series.shifts(want, left, right), element, pairs, supports)
        out = [series.kron(x, y, want - {0}) for x, y in zip(a, b)]
        if 0 in want:
            one = ring.identity(ring.dim(a[0][0]) * ring.dim(b[0][0]))
            for g in out:
                g[0] = one
        return out
    if isinstance(node, DirectSum):
        a = _module(series, node.left, want, element, pairs, supports)
        b = _module(series, node.right, want, element, pairs, supports)
        return [series.block_diag(x, y) for x, y in zip(a, b)]
    if isinstance(node, (Sym, Ext)):
        # from level d down: the degrees each level gives, and takes of the level below and
        # of the inner series
        sup = _levels(node, top, p, *supports)
        steps, inner = [], {0}
        for k in range(node.d, 1, -1):
            below = series.shifts(want, sup[0], sup[k - 2])
            right = series.shifts(want, sup[k - 2], sup[0])
            steps.append((want, below, right))
            inner |= right
            want = below
        if node.d:
            inner |= want
        ext = isinstance(node, Ext)
        return [series.power(a, node.d, ext, steps[::-1])
                for a in _module(series, node.inner, inner, element, pairs, supports)]
    if isinstance(node, Twist):
        q = p**node.i
        want = {d // q for d in want if d % q == 0}
        return [series.twist(a, node.i) for a in _module(series, node.inner, want, element, pairs, supports)]
    raise JTCalcError(f"unknown module node {node!r}")


def _terms(kind, variant, p, r):
    """The terms of the variant's operator on a tuple of r matrices, as (top, s) pairs: the
    operator sums, over its terms, the t^top coefficient of the module on the group element
    of matrix s alone, or of the whole tuple where s is None.

    The full operator is the t^(p^(r-1)) coefficient of e on prod_s exp(t^(p^s) B_s)
    (`ga`: on exp(c) for c = sum_s a_s t^(p^s)); the exponential one sums the t^(p^(r-1-s))
    coefficients of e on exp(t B_s) (`ga`: exp(a_s t)).  A `multi_ga` point has one term of
    both variants, the t coefficient on the product of exp(t a_i alpha_i), t^p = 0.  Any
    other variant raises, on every kind.
    """
    terms = by_variant(variant, [(p ** (r - 1), None)], [(p ** (r - 1 - s), s) for s in range(r)])
    return [(1, None)] if kind == KIND_MULTI_GA else terms


def _leaf_pairs(series, kind, mats, s, leaves, with_inv):
    """The [g] or [g, g^-1] pair of series of each Explicit leaf at the additive point mats,
    for the operator term of matrix s (`_terms`), as `eval_ga_point` builds it on `ga` and
    the product of exp(t a_i alpha_i) on `multi_ga`.  leaves maps each leaf to the terms
    alpha^i / i! of its matrices (`_explicit_terms`)."""
    p, r = series.p, len(mats)
    # leaf matrix j goes with t a_j on multi_ga, with c^(p^j) on ga
    if kind == KIND_MULTI_GA:
        scalars = [{1: a} for a in mats]
    else:
        c = {p**j: a for j, a in enumerate(mats) if a.any()} if s is None else {1: mats[s]}
        scalars = [series.twist(c, j) for j in range(r)]
    pairs = {}
    for leaf, powers in leaves.items():
        pair = None
        for c_j, terms in zip(scalars, powers):
            factor = _scalar_texp(series, c_j, terms, with_inv)
            pair = factor if pair is None else _pair_mul(series, pair, factor)
        pairs[leaf] = pair
    return pairs


# -- operators along a curve ------------------------------------------------------------


def curve_operator(ring, kind, e, variant, mats):
    """The variant's operator on the stacks of a `_Pointwise` ring: along a curve, the `_Polys`
    stack (S, m n, m n) of its s-coefficients.

    mats holds the tuple, one stack of the ring per matrix (1 x 1 for the
    additive kinds); the variant and the module's pairing with the kind are
    checked by `_operators`.  Points come as `_Pointwise` stacks, giving the (P, m n, m n)
    stack of the operators at the points, and the chart's templates as
    `monomials._Monomials` stacks.  This is `theta_full` or `theta_exp`
    over GF(q)[s], term for term (`_terms`): Std leaves act through the
    group element of a `gl` tuple, Explicit leaves through `eval_ga_point`
    (`ga`) or through the product of exp(t a_i alpha_i) (`multi_ga`).
    """
    return _operators(ring, kind, e, variant, mats, (e,))[0]


def _operators(ring, kind, e, variant, mats, nodes):
    """The variant's operator of each subtree in `nodes` of the module tree e, at the tuple
    of stacks mats: what `curve_operator` gives for that subtree.  Each term's group element
    on a `gl` tuple, or its Explicit leaves' series on an additive point, is built once, for
    e, and every node is walked on it; a term is built after the one before it is walked.

    The one check of what an operator is asked for, in this order: the
    variant (`_terms`), the module's pairing with the point kind
    (`_check_pairing`), and Explicit leaves for an additive point.
    """
    terms = _terms(kind, variant, ring.p, len(mats))
    _check_pairing(e, kind, ring.p, len(mats))
    with_inv = e._has_dual
    leaves = None
    if kind != KIND_GL:
        leaves = {leaf: _explicit_terms(leaf, ring.field) for leaf in e.leaves() if isinstance(leaf, Explicit)}
        if not leaves:
            raise JTCalcError("module evaluation needs a group element or additive point")
    totals = None
    for top, s in terms:
        series = _Series(ring, top)
        if leaves is None:
            element, pairs = _GroupElement(ring, mats if s is None else [mats[s]], top, with_inv), None
        else:
            element, pairs = None, _leaf_pairs(series, kind, mats, s, leaves, with_inv)
        supports = _walk_key(element, pairs)
        ops = [series.coefficient(_module(series, node, {0, top}, element, pairs, supports)[0], top)
               for node in nodes]
        totals = ops if totals is None else [ring.reduce(ring.add(a, b)) for a, b in zip(totals, ops)]
    return totals


@lru_cache(maxsize=64)
def _explicit_terms(leaf, field):
    """alpha^i / i! (i < p) for each action matrix alpha of the leaf, as one-point `_Pointwise`
    stacks: constants of every ring of the walker."""
    ring = _Pointwise(field)
    p = ring.p
    out = []
    for alpha in leaf.matrices:
        alpha = alpha.embed_into(field)._data
        power = ring.identity(ring.dim(alpha))
        terms = [power]
        fact = 1
        for i in range(1, p):
            power = ring.reduce(ring.matmul(power, alpha))
            fact = fact * i % p
            terms.append(power * pow(fact, p - 2, p) % p)
        out.append(tuple(terms))
    return tuple(out)
