"""
Constructor trees for finite-dimensional representations and their evaluation
on unipotent group elements over arbitrary commutative coefficient rings.

A tree is built from Std(N), Trivial(d), Dual, Tensor, DirectSum, Sym, Ext,
Twist and Explicit leaves.  Explicit leaves carry the action matrices of an
additive-group module and are evaluated through truncated exponentials of a
nilpotent curve parameter rather than through a matrix group element.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .errors import CapExceededError, DomainMismatchError, JTCalcError, NotNilpotentError, ParseError
from .fields import FiniteField, TruncElement
from .linalg import ExactMatrix, _first_invalid, _Pointwise, block_diag

SYM_EXT_DIM_CAP = 2000


@dataclass(frozen=True)
class UnipotentPair:
    """A square matrix with its exact inverse; g * g_inv = 1 is checked.

    Internal evaluation may drop the inverse (g_inv None) when no Dual node
    will consume it; such pairs are never checked.
    """

    g: ExactMatrix
    g_inv: ExactMatrix
    checked: bool = True

    def __post_init__(self):
        if self.g.rows != self.g.cols:
            raise JTCalcError("unipotent pair needs a square matrix")
        if self.g_inv is not None and self.g.shape != self.g_inv.shape:
            raise JTCalcError("inverse shape differs")
        if self.checked:
            if self.g_inv is None:
                raise JTCalcError("cannot check a pair without its inverse")
            ident = ExactMatrix.identity(self.g.domain, self.g.rows)
            if self.g @ self.g_inv != ident:
                raise JTCalcError("g * g_inv is not the identity")

    @property
    def size(self):
        return self.g.rows

    @property
    def domain(self):
        return self.g.domain

    def __mul__(self, other):
        inv = None
        if self.g_inv is not None and other.g_inv is not None:
            inv = other.g_inv @ self.g_inv
        return UnipotentPair(self.g @ other.g, inv, checked=False)


# -- expression tree ----------------------------------------------------------


class ModuleExpr:
    def dim(self):
        raise NotImplementedError

    def leaves(self):
        yield self

    @cached_property
    def _has_dual(self):
        # nodes are frozen dataclasses holding their children, so this is computed once per node
        if isinstance(self, Dual):
            return True
        if isinstance(self, (Tensor, DirectSum)):
            return self.left._has_dual or self.right._has_dual
        if isinstance(self, (Sym, Ext, Twist)):
            return self.inner._has_dual
        return False

    def __mul__(self, other):
        return Tensor(self, other)

    def __add__(self, other):
        return DirectSum(self, other)

    def __str__(self):
        return self.to_text()


@dataclass(frozen=True)
class Std(ModuleExpr):
    n: int

    def dim(self):
        return self.n

    def to_text(self):
        return f"Std({self.n})"


@dataclass(frozen=True)
class Trivial(ModuleExpr):
    d: int

    def dim(self):
        return self.d

    def to_text(self):
        return f"Trivial({self.d})"


@dataclass(frozen=True)
class Dual(ModuleExpr):
    inner: ModuleExpr

    def dim(self):
        return self.inner.dim()

    def leaves(self):
        yield from self.inner.leaves()

    def to_text(self):
        return f"Dual({self.inner.to_text()})"


@dataclass(frozen=True)
class Tensor(ModuleExpr):
    left: ModuleExpr
    right: ModuleExpr

    def dim(self):
        return self.left.dim() * self.right.dim()

    def leaves(self):
        yield from self.left.leaves()
        yield from self.right.leaves()

    def to_text(self):
        return f"{self.left.to_text()}*{self.right.to_text()}"


@dataclass(frozen=True)
class DirectSum(ModuleExpr):
    left: ModuleExpr
    right: ModuleExpr

    def dim(self):
        return self.left.dim() + self.right.dim()

    def leaves(self):
        yield from self.left.leaves()
        yield from self.right.leaves()

    def to_text(self):
        return f"{self.left.to_text()}+{self.right.to_text()}"


@dataclass(frozen=True)
class Sym(ModuleExpr):
    d: int
    inner: ModuleExpr

    def __post_init__(self):
        if self.d < 0:
            raise JTCalcError("Sym degree must be nonnegative")
        if self.dim() > SYM_EXT_DIM_CAP:
            raise CapExceededError(f"Sym dimension {self.dim()} exceeds cap {SYM_EXT_DIM_CAP}")

    def dim(self):
        n = self.inner.dim()
        return comb(n + self.d - 1, self.d) if self.d > 0 else 1

    def leaves(self):
        yield from self.inner.leaves()

    def to_text(self):
        return f"Sym({self.d},{self.inner.to_text()})"


@dataclass(frozen=True)
class Ext(ModuleExpr):
    d: int
    inner: ModuleExpr

    def __post_init__(self):
        if self.d < 0:
            raise JTCalcError("Ext degree must be nonnegative")
        if self.dim() > SYM_EXT_DIM_CAP:
            raise CapExceededError(f"Ext dimension {self.dim()} exceeds cap {SYM_EXT_DIM_CAP}")

    def dim(self):
        return comb(self.inner.dim(), self.d)

    def leaves(self):
        yield from self.inner.leaves()

    def to_text(self):
        return f"Ext({self.d},{self.inner.to_text()})"


@dataclass(frozen=True)
class Twist(ModuleExpr):
    i: int
    inner: ModuleExpr

    def __post_init__(self):
        if self.i < 0:
            raise JTCalcError("Twist exponent must be nonnegative")

    def dim(self):
        return self.inner.dim()

    def leaves(self):
        yield from self.inner.leaves()

    def to_text(self):
        return f"Tw({self.i},{self.inner.to_text()})"


@dataclass(frozen=True)
class Explicit(ModuleExpr):
    """Module given by the commuting p-nilpotent action matrices of u_0..u_{r-1}."""

    matrices: tuple
    label: str = ""

    def __post_init__(self):
        if not self.matrices:
            raise JTCalcError("Explicit module needs at least one matrix")
        report = validate_commuting_tuple(list(self.matrices), self.field.p)
        if report is not None:
            raise NotNilpotentError(f"Explicit module invalid: {report}")

    @property
    def height(self):
        return len(self.matrices)

    @property
    def field(self):
        return self.matrices[0].domain

    def dim(self):
        return self.matrices[0].rows

    def to_text(self):
        return f"Explicit({self.label or 'inline'})"

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other


def dim(e):
    return e.dim()


def validate_commuting_tuple(matrices, p):
    """None when the tuple is pairwise commuting and p-nilpotent, else a report.

    The matrices' own one-point stacks are checked by `linalg._first_invalid`,
    the check of every sweep.  Matrices over different fields, or a p other
    than their characteristic, raise a `DomainMismatchError`.
    """
    field = matrices[0]._finite_field("tuple checks")
    if any(m.domain != field for m in matrices):
        raise DomainMismatchError("matrix domains differ")
    if p != field.p:
        raise DomainMismatchError(f"p={p} is not the characteristic of {field}")
    invalid = _first_invalid(_Pointwise(field), [m._data for m in matrices])
    return None if invalid is None else invalid[1]


# -- truncated exponentials ----------------------------------------------------


def texp_matrix(b, ring, with_inv=True):
    """Truncated exponential  sum_{i<p} t^i B^i / i!  with its inverse (t -> -t).

    B^p = 0 and g * g_inv = 1 are checked over finite fields.  For symbolic
    entries (polynomial coefficients) both checks are skipped: they hold
    only modulo the chart's constraint ideal and are re-verified at every
    evaluated point.  With with_inv=False the inverse is not built (g_inv is
    None), and only B^p = 0 is checked, which implies the other.
    """
    p = ring.p
    base = b.domain
    check = isinstance(base, FiniteField)
    if check and not b.pow(p).is_zero():
        raise NotNilpotentError("truncated exponential needs a p-nilpotent matrix")
    coeffs = {}
    power = ExactMatrix.identity(base, b.rows)
    fact = 1
    for i in range(p):
        if i:
            power = power @ b
            fact = fact * i
        term = power.scalar_mul(base.inv_int(fact))
        if not term.is_zero():
            coeffs[i] = term
    g = _matrix_from_tcoeffs(ring, b.rows, coeffs)
    if not with_inv:
        return UnipotentPair(g, None, checked=False)
    neg = {i: term if i % 2 == 0 else -term for i, term in coeffs.items()}
    return UnipotentPair(g, _matrix_from_tcoeffs(ring, b.rows, neg), checked=check)


def _matrix_from_tcoeffs(ring, size, coeffs):
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            row.append(TruncElement(ring, {e: m.entry(i, j) for e, m in coeffs.items()}))
        rows.append(row)
    return ExactMatrix.from_rows(ring, rows)


def texp_element(c, b):
    """Truncated exponential of c*B for a nilpotent ring element c.

    The inverse comes from c -> -c; the product identity is a theorem here
    (commuting powers of one matrix), exercised by the property suite rather
    than re-verified on every call.
    """
    ring = c.ring
    p = ring.p
    base = b.domain
    power = ExactMatrix.identity(base, b.rows)
    cpow = ring.one()
    fact = 1
    pos = ExactMatrix.zeros(ring, b.rows, b.rows)
    neg = pos
    for i in range(p):
        if i:
            power = power @ b
            cpow = cpow * c
            fact = fact * i
        inv = base.inv_int(fact)
        term_mat = power.scalar_mul(inv)
        if term_mat.is_zero() or cpow.is_zero():
            continue
        lifted = term_mat.map_entries(ring, ring.embed_scalar).scalar_mul(cpow)
        pos = pos + lifted
        neg = neg + (lifted if i % 2 == 0 else -lifted)
    return UnipotentPair(pos, neg, checked=False)


def eval_ga_point(e, c):
    """Group element of an additive point c (c^(p^r) = 0) on an Explicit module."""
    if not isinstance(e, Explicit):
        raise JTCalcError("eval_ga_point needs an Explicit module")
    ring = c.ring
    r = e.height
    ctest = c
    for _ in range(r):
        ctest = ctest.frobenius(1)
    if not ctest.is_zero():
        raise NotNilpotentError(f"point is not p^{r}-nilpotent")
    pair = None
    cpj = c
    for j in range(r):
        factor = texp_element(cpj, e.matrices[j])
        pair = factor if pair is None else pair * factor
        cpj = cpj.frobenius(1)
    return pair


# -- functorial evaluation -------------------------------------------------------


def sym_basis(n, d):
    """Exponent vectors of total degree d in n variables, lexicographic descending."""
    if n == 0:
        return [()] if d == 0 else []
    out = []
    for first in range(d, -1, -1):
        for rest in sym_basis(n - 1, d - first):
            out.append((first,) + rest)
    return out


@lru_cache(maxsize=None)
def power_maps(n, d, ext):
    """Maps (mu_d, cols, vecs) of the recurrence Sym^d(g) = mu_d (Sym^(d-1)(g) (x) g) J_d.

    The one construction of Sym^d and Ext^d (d >= 1) of an n-dimensional
    space, shared by the pointwise `power_matrix` and the batched sweeps.
    Bases are `sym_basis` (lex descending) for Sym and index subsets in lex
    order for Ext.  mu_d is the 0/+-1 integer matrix of Sym^(d-1) (x) V ->
    Sym^d (multiplication; for Ext the signed wedge product), with columns
    in Kronecker order (i, v) -> i*n + v.  The 0/1 section J_d is given by
    two index arrays: basis element c of degree d is the image of (basis
    element cols[c] of degree d-1) (x) e_vecs[c].  The identity holds over
    any commutative ring and for any matrix g.
    """
    if ext:
        low = list(itertools.combinations(range(n), d - 1))
        high = list(itertools.combinations(range(n), d))
    else:
        low, high = sym_basis(n, d - 1), sym_basis(n, d)
    index = {b: i for i, b in enumerate(high)}
    lookup = {b: i for i, b in enumerate(low)}
    mu = np.zeros((len(high), len(low) * n), dtype=np.int64)
    for i, b in enumerate(low):
        for v in range(n):
            if ext:
                if v in b:
                    continue
                sign = -1 if sum(x > v for x in b) % 2 else 1
                mu[index[tuple(sorted(b + (v,)))], i * n + v] = sign
            else:
                mu[index[b[:v] + (b[v] + 1,) + b[v + 1:]], i * n + v] = 1
    cols = np.zeros(len(high), dtype=np.int64)
    vecs = np.zeros(len(high), dtype=np.int64)
    for c, b in enumerate(high):
        if ext:
            v, rest = b[-1], b[:-1]
        else:
            v = max(i for i, x in enumerate(b) if x)
            rest = b[:v] + (b[v] - 1,) + b[v + 1:]
        cols[c], vecs[c] = lookup[rest], v
    for arr in (mu, cols, vecs):
        arr.setflags(write=False)
    return mu, cols, vecs


@lru_cache(maxsize=256)
def _lifted_mu(domain, n, d, ext):
    return ExactMatrix.from_rows(domain, power_maps(n, d, ext)[0].tolist())


def power_matrix(a, d, ext):
    """Sym^d(a), or Ext^d(a) when ext, on the bases of `power_maps`.

    Each step is mu_d P, where column c of P is (column cols[c] of
    Sym^(d-1)(a)) (x) (column vecs[c] of a); mu_d is lifted to a's domain
    once and cached.
    """
    if d == 0:
        return ExactMatrix.identity(a.domain, 1)
    n = a.rows
    if ext and d > n:
        return ExactMatrix.zeros(a.domain, 0, 0)
    out = a
    for k in range(2, d + 1):
        _, cols, vecs = power_maps(n, k, ext)
        out = _lifted_mu(a.domain, n, k, ext) @ out.column_kron(a, cols, vecs)
    return out


def _contains_dual(e):
    """Whether the tree has a Dual node (cached on the node)."""
    return e._has_dual


def eval_unipotent(e, gp, explicit_pairs=None):
    """Evaluate the module functor on a unipotent pair.

    Std leaves receive gp itself; Explicit leaves are served from
    explicit_pairs (a mapping leaf -> UnipotentPair) when given, since
    additive-group modules act through eval_ga_point rather than a matrix
    group element.  Inverses are carried along only when a Dual node will
    consume them.
    """
    if gp is None and not explicit_pairs:
        raise JTCalcError("module evaluation needs a group element or additive point")
    ring = gp.domain if gp is not None else next(iter(explicit_pairs.values())).domain
    with_inv = _contains_dual(e)

    def inv(pair, f):
        if with_inv and pair.g_inv is not None:
            return f(pair.g_inv)
        return None

    def inv2(lt, rt, f):
        if with_inv and lt.g_inv is not None and rt.g_inv is not None:
            return f(lt.g_inv, rt.g_inv)
        return None

    def walk(node):
        if isinstance(node, Std):
            if gp is None:
                raise JTCalcError("Std leaf evaluated without a matrix group element")
            if node.n != gp.size:
                raise JTCalcError(f"Std({node.n}) does not match group element size {gp.size}")
            return gp
        if isinstance(node, Trivial):
            ident = ExactMatrix.identity(ring, node.d)
            return UnipotentPair(ident, ident, checked=False)
        if isinstance(node, Explicit):
            if explicit_pairs is None or node not in explicit_pairs:
                raise JTCalcError("Explicit leaf reached without an additive point")
            return explicit_pairs[node]
        if isinstance(node, Dual):
            inner = walk(node.inner)
            if inner.g_inv is None:
                raise JTCalcError("Dual needs the inverse of the group element")
            return UnipotentPair(inner.g_inv.transpose(), inner.g.transpose(), checked=False)
        if isinstance(node, Tensor):
            lt, rt = walk(node.left), walk(node.right)
            return UnipotentPair(lt.g.kron(rt.g), inv2(lt, rt, lambda a, b: a.kron(b)), checked=False)
        if isinstance(node, DirectSum):
            lt, rt = walk(node.left), walk(node.right)
            return UnipotentPair(
                block_diag(lt.g, rt.g), inv2(lt, rt, block_diag), checked=False
            )
        if isinstance(node, (Sym, Ext)):
            inner, ext = walk(node.inner), isinstance(node, Ext)
            return UnipotentPair(
                power_matrix(inner.g, node.d, ext), inv(inner, lambda m: power_matrix(m, node.d, ext)),
                checked=False,
            )
        if isinstance(node, Twist):
            inner = walk(node.inner)
            return UnipotentPair(
                inner.g.frobenius(node.i), inv(inner, lambda m: m.frobenius(node.i)), checked=False
            )
        raise JTCalcError(f"unknown module node {node!r}")

    return walk(e)


# -- text grammar -----------------------------------------------------------------


_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|[(),*+=]|\S)")


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            break
        tok = m.group(1)
        tokens.append((tok, m.start(1)))
        pos = m.end()
    return tokens


class _ExprParser:
    def __init__(self, text, loader=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.loader = loader

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self):
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of module expression", column=len(self.text))
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, want):
        tok, col = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r}, found {tok!r}", column=col)
        return tok

    def parse(self):
        e = self.parse_sum()
        if self.pos != len(self.tokens):
            tok, col = self.tokens[self.pos]
            raise ParseError(f"trailing input {tok!r}", column=col)
        return e

    def parse_sum(self):
        e = self.parse_product()
        while self.peek() == "+":
            self.next()
            e = DirectSum(e, self.parse_product())
        return e

    def parse_product(self):
        e = self.parse_atom()
        while self.peek() == "*":
            self.next()
            e = Tensor(e, self.parse_atom())
        return e

    def parse_int(self):
        tok, col = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected an integer, found {tok!r}", column=col)
        return int(tok)

    def parse_atom(self):
        tok, col = self.next()
        if tok == "(":
            e = self.parse_sum()
            self.expect(")")
            return e
        name = tok
        if name == "Std":
            self.expect("(")
            n = self.parse_int()
            self.expect(")")
            return Std(n)
        if name in ("Trivial", "Triv"):
            self.expect("(")
            d = self.parse_int()
            self.expect(")")
            return Trivial(d)
        if name == "Dual":
            self.expect("(")
            e = self.parse_sum()
            self.expect(")")
            return Dual(e)
        if name in ("Sym", "Ext"):
            self.expect("(")
            d = self.parse_int()
            self.expect(",")
            e = self.parse_sum()
            self.expect(")")
            return Sym(d, e) if name == "Sym" else Ext(d, e)
        if name in ("Tw", "Twist"):
            self.expect("(")
            i = self.parse_int()
            self.expect(",")
            e = self.parse_sum()
            self.expect(")")
            return Twist(i, e)
        if name == "Explicit":
            self.expect("(")
            key, kcol = self.next()
            if key != "file":
                raise ParseError("Explicit takes file=<path>", column=kcol)
            self.expect("=")
            path_tokens = []
            while self.peek() not in (")", None):
                path_tokens.append(self.next()[0])
            self.expect(")")
            if self.loader is None:
                raise ParseError("no file loader available for Explicit(...)", column=col)
            return self.loader("".join(path_tokens))
        raise ParseError(f"unknown constructor {name!r}", column=col)


def parse_module_expr(text, loader=None):
    """Parse the module grammar; loader maps a path to an Explicit node."""
    return _ExprParser(text, loader).parse()


def load_explicit_file(path, label=None):
    """The Explicit module of a tuple file (`read_tuple_file`)."""
    return Explicit(read_tuple_file(path), label=label or path)


def read_tuple_file(path):
    """The matrices of a tuple file: field, size and (optional) height lines, then matrices.

    Each matrix follows a `matrix` line, one row of `size` entries a line.  A
    malformed file raises a `ParseError` naming the line.  The matrices are
    not checked to commute or to be p-nilpotent.
    """
    with open(path) as fh:
        text = fh.read()
    field = size = height = None
    blocks = []  # (line of `matrix`, rows)
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        head, _, rest = ln.partition(" ")
        rest = rest.strip()
        if blocks and head in ("field", "size", "height"):
            raise ParseError(f"{head} line after the first matrix", line=lineno)
        if head == "field":
            from .parsing import parse_field_spec

            try:
                field = parse_field_spec(rest)
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno) from None
        elif head == "size":
            size = _header_int(rest, "size", lineno)
        elif head == "height":
            height = _header_int(rest, "height", lineno)
        elif ln == "matrix":
            blocks.append((lineno, []))
        else:
            if not blocks or field is None or size is None:
                raise ParseError("matrix data before header", line=lineno)
            entries = [_parse_entry(chunk, field, lineno) for chunk in ln.split()]
            if len(entries) != size:
                raise ParseError(f"expected {size} entries", line=lineno)
            blocks[-1][1].append(entries)
    if field is None or size is None or not blocks:
        raise ParseError("explicit module file missing field/size/matrix sections", line=lineno)
    for k, (start, rows) in enumerate(blocks):
        if len(rows) != size:
            raise ParseError(f"matrix {k} has {len(rows)} rows, expected {size}", line=start)
    if height is not None and height != len(blocks):
        raise ParseError(f"height {height} but {len(blocks)} matrices", line=blocks[-1][0])
    return tuple(ExactMatrix.from_rows(field, rows) for _, rows in blocks)


def _header_int(text, what, lineno):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ParseError(f"{what} must be a positive integer, found {text!r}", line=lineno)
    return value


def _parse_entry(chunk, field, lineno):
    """A matrix entry: an integer, or the GF(p^n) coordinates (c0,c1,...) of one."""
    try:
        if chunk.startswith("(") and chunk.endswith(")"):
            coeffs = [int(v) for v in chunk[1:-1].split(",")]
            if len(coeffs) <= field.n:
                return field.element(coeffs + [0] * (field.n - len(coeffs)))
        else:
            return field.from_int(int(chunk))
    except ValueError:
        pass
    raise ParseError(f"bad matrix entry {chunk!r}", line=lineno)
