"""
The value space of Jordan types: Young diagrams with at most p columns.

A Jordan type records how many blocks of each size 1..p a p-nilpotent
operator has.  The dominance order, sums, tensor products, perp, powers and
rank profiles all live here; every combinatorial formula has a brute-force
matrix oracle next to it in the test suite.  The program's one loop from
operator powers to Jordan types lives here too (`_rank_rows`, read as
types by `_jordan_types`): it ranks sweeps, single points and matrices over
finite fields, and curves over GF(q)(s).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapExceededError, DomainMismatchError, JTCalcError, NotNilpotentError
from .fields import GF
from .linalg import ExactMatrix, _Pointwise

TENSOR_DIM_CAP = 4096


@dataclass(frozen=True)
class JordanType:
    """Block-size multiset <a_1, ..., a_p>; a_i blocks of size i."""

    p: int
    counts: tuple

    def __post_init__(self):
        if len(self.counts) != self.p:
            raise JTCalcError("counts must list block numbers for sizes 1..p")
        if any(c < 0 for c in self.counts):
            raise JTCalcError("block counts must be nonnegative")

    @staticmethod
    def of(p, counts):
        return JordanType(p, tuple(counts))

    @staticmethod
    def from_blocks(p, blocks):
        counts = [0] * p
        for b in blocks:
            if not 1 <= b <= p:
                raise JTCalcError(f"block size {b} outside 1..{p}")
            counts[b - 1] += 1
        return JordanType(p, tuple(counts))

    @property
    def dim(self):
        return sum(i * c for i, c in enumerate(self.counts, start=1))

    def blocks(self):
        """Block sizes in descending order."""
        out = []
        for size in range(self.p, 0, -1):
            out.extend([size] * self.counts[size - 1])
        return out

    def count(self, size):
        return self.counts[size - 1]

    def is_zero(self):
        return all(c == 0 for c in self.counts)

    def to_text(self):
        if self.is_zero():
            return "0"
        chunks = []
        for size in range(self.p, 0, -1):
            c = self.counts[size - 1]
            if c == 0:
                continue
            chunks.append(f"[{size}]" if c == 1 else f"{c}[{size}]")
        return "+".join(chunks)

    def to_json(self):
        return {"p": self.p, "counts": list(self.counts)}

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"JT({self.to_text()}, p={self.p})"


@dataclass(frozen=True)
class RankProfile:
    """Ranks r_s of the s-th operator powers, s = 1..p-1, on an m-dim module."""

    p: int
    m: int
    ranks: tuple

    def __post_init__(self):
        if len(self.ranks) != self.p - 1:
            raise JTCalcError("rank profile needs p-1 entries")

    def validate(self):
        seq = (self.m,) + self.ranks + (0, 0)
        for i in range(len(seq) - 1):
            if seq[i] < seq[i + 1]:
                raise JTCalcError(f"rank profile not monotone at position {i}")
        for i in range(1, self.p + 1):
            if seq[i - 1] - 2 * seq[i] + seq[i + 1] < 0:
                raise JTCalcError(f"rank profile not convex at s={i}")
        return self


def jt_from_rank_profile(rp):
    """Second differences of the rank sequence give the block counts."""
    rp.validate()
    seq = (rp.m,) + rp.ranks + (0, 0)
    counts = tuple(seq[i - 1] - 2 * seq[i] + seq[i + 1] for i in range(1, rp.p + 1))
    jt = JordanType(rp.p, counts)
    if jt.dim != rp.m:
        raise JTCalcError("rank profile dimension mismatch")
    return jt


def jt_of_nilpotent(n, p):
    """Jordan type of a p-nilpotent matrix over a finite field of characteristic p, ranked on
    its one-point stack by the loop that ranks sweeps, points and curves (`_jordan_types`)."""
    if n.rows != n.cols:
        raise JTCalcError("operator matrix must be square")
    field = n._finite_field("Jordan types")
    if p != field.p:
        raise DomainMismatchError(f"p={p} is not the characteristic of {field}")
    return _jordan_types(_Pointwise(field), n._data, f"matrix is not {p}-nilpotent")[0]


def _jordan_types(ring, op, report):
    """Jordan types of the operators of a stack of the ring, one per entry of `ring.nonzero(op)`:
    per point of a `_Pointwise` stack, or the one operator along a curve of a `_Polys` stack.
    Their rank rows come from `_rank_rows`, which checks op^p = 0.
    """
    dim = ring.dim(op)
    return [_profile_type(ring.p, dim, row) for row in map(tuple, _rank_rows(ring, op, report).tolist())]


def _rank_rows(ring, op, report):
    """The (points, p - 1) array of the ranks of op, op^2, ..., op^(p-1) at each entry of
    `ring.nonzero(op)`, from `ring.ranks`; op^p must vanish, the one nilpotency check,
    otherwise NotNilpotentError(report).
    """
    p = ring.p
    ranks = np.zeros((len(ring.nonzero(op)), p - 1), dtype=np.int64)
    power = op
    for s in range(p - 1):
        if not power.any():
            break
        ranks[:, s] = ring.ranks(power)
        power = ring.reduce(ring.matmul(power, op))
    if power.any():
        raise NotNilpotentError(report)
    return ranks


@lru_cache(maxsize=4096)
def _profile_type(p, dim, ranks):
    """The Jordan type of a rank profile: few profiles occur, so each is read once."""
    return jt_from_rank_profile(RankProfile(p, dim, ranks))


def jt_rank(a, s):
    """Rank of the s-th power of any matrix realization of a."""
    if not 1 <= s < a.p:
        raise JTCalcError(f"s={s} outside 1..p-1")
    return sum(a.counts[i - 1] * (i - s) for i in range(s + 1, a.p + 1))


def rank_profile(a):
    return RankProfile(a.p, a.dim, tuple(jt_rank(a, s) for s in range(1, a.p)))


def dominance_leq_checked(a, b):
    """(a <= b, dimensions comparable); incomparable dimensions compare False."""
    if a.p != b.p:
        raise JTCalcError("characteristic mismatch in dominance comparison")
    if a.dim != b.dim:
        return False, False
    for s in range(1, a.p):
        if jt_rank(a, s) > jt_rank(b, s):
            return False, True
    return True, True


def dominance_leq(a, b):
    leq, _ = dominance_leq_checked(a, b)
    return leq


def jt_sum(a, b):
    if a.p != b.p:
        raise JTCalcError("characteristic mismatch in sum")
    return JordanType(a.p, tuple(x + y for x, y in zip(a.counts, b.counts)))


def realize_nilpotent(a, field=None):
    """Block-diagonal matrix over GF(p) (or a given field) with Jordan type a."""
    field = field if field is not None else GF(a.p)
    m = a.dim
    mat = ExactMatrix.zeros(field, m, m)
    rows = [[field.zero() for _ in range(m)] for _ in range(m)]
    pos = 0
    for size in a.blocks():
        for i in range(size - 1):
            rows[pos + i][pos + i + 1] = field.one()
        pos += size
    return ExactMatrix.from_rows(field, rows) if m else mat


def _block_tensor(m, n, p):
    """Block sizes of [m] (x) [n] in characteristic p, for block sizes 1 <= m, n <= p."""
    if m > n:
        m, n = n, m
    if m + n <= p:
        return [n - m + 2 * i - 1 for i in range(1, m + 1)]
    return [p] * (m + n - p) + [n - m + 2 * i - 1 for i in range(1, p - n + 1)]


def jt_tensor(a, b):
    """Tensor pairing on the value space, by the closed form for two blocks.

    For blocks 1 <= m <= n <= p, [m] (x) [n] is the sum over i = 1..m of
    [n - m + 2i - 1] when m + n <= p; otherwise it is (m + n - p)[p] plus the
    sum over i = 1..p - n of [n - m + 2i - 1].  Sums of blocks pair
    bilinearly.  References: Iima & Iwamatsu, "On the Jordan decomposition
    of tensored matrices of Jordan canonical forms" (2009); Glasby, Praeger
    & Xia, "Decomposing modular tensor products: 'Jordan partitions', their
    parts and p-parts" (2015).  The matrix realization N (x) 1 + 1 (x) N is
    the oracle in the test suite.
    """
    if a.p != b.p:
        raise JTCalcError("characteristic mismatch in tensor")
    if a.is_zero() or b.is_zero():
        return JordanType(a.p, (0,) * a.p)
    if a.dim * b.dim > TENSOR_DIM_CAP:
        raise CapExceededError(f"tensor dimension {a.dim * b.dim} exceeds cap {TENSOR_DIM_CAP}")
    counts = [0] * a.p
    for m, am in enumerate(a.counts, start=1):
        for n, bn in enumerate(b.counts, start=1):
            if am and bn:
                for size in _block_tensor(m, n, a.p):
                    counts[size - 1] += am * bn
    return JordanType(a.p, tuple(counts))


def jt_power(a, j):
    """Jordan type of N^j for any realization N of a, by the chain count."""
    if not 1 <= j < a.p:
        raise JTCalcError(f"power {j} outside 1..p-1")
    counts = [0] * a.p
    for i in range(1, a.p + 1):
        ai = a.counts[i - 1]
        if ai == 0:
            continue
        for c in range(j):
            if i > c:
                size = -((i - c) // -j)
                counts[size - 1] += ai
    return JordanType(a.p, tuple(counts))


def jt_perp(a):
    """a^perp: block count a_{p-i} becomes the number of blocks of size i."""
    counts = [0] * a.p
    for i in range(1, a.p):
        counts[i - 1] = a.counts[a.p - i - 1]
    return JordanType(a.p, tuple(counts))


@lru_cache(maxsize=None)
def _partitions_capped(m, cap):
    if m == 0:
        return ((),)
    out = []
    for first in range(min(m, cap), 0, -1):
        for rest in _partitions_capped(m - first, first):
            out.append((first,) + rest)
    return tuple(out)


def all_types_of_dim(p, m):
    """Every Jordan type of dimension m in characteristic p."""
    return [JordanType.from_blocks(p, blocks) for blocks in _partitions_capped(m, p)]


def parse_jordan_type(text, p):
    """Parse the canonical 'c[s]+...' text form."""
    text = text.strip().replace(" ", "")
    if text in ("0", ""):
        return JordanType(p, (0,) * p)
    counts = [0] * p
    for chunk in text.split("+"):
        if "[" not in chunk or not chunk.endswith("]"):
            raise JTCalcError(f"bad Jordan type term {chunk!r}")
        head, size_s = chunk[:-1].split("[")
        mult = int(head) if head else 1
        size = int(size_s)
        if not 1 <= size <= p:
            raise JTCalcError(f"block size {size} outside 1..{p}")
        counts[size - 1] += mult
    return JordanType(p, tuple(counts))
