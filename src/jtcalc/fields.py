"""
Exact coefficient domains: GF(p), GF(p^n), sparse multivariate polynomial
rings, univariate rational function fields, and truncated curve rings
k[t]/t^(p^r).

Every element is immutable and every operation is a pure function, so all
values are safe to share across threads.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DomainMismatchError, JTCalcError, NotAFieldError

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
MAX_EXT_DEGREE = 4

# Default moduli (Conway polynomials), ascending coefficients, for small (p, n).
CONWAY = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 2): (3, 6, 1),
    (7, 3): (4, 0, 6, 1),
}


def _poly_is_irreducible(coeffs, p):
    """Exhaustive irreducibility check over GF(p) for degree <= 4 monic polys."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    for a in range(p):
        if sum(c * pow(a, i, p) for i, c in enumerate(coeffs)) % p == 0:
            return False
    if deg <= 3:
        return True
    # degree 4 with no roots: rule out products of two monic irreducible quadratics
    for b in range(p):
        for c in range(p):
            _, rem = _dense_divmod(coeffs, (c, b, 1), p)
            if not any(rem):
                return False
    return True


def _dense_divmod(num, den, p):
    """Polynomial division of dense int coefficient lists over GF(p)."""
    num = list(num)
    dden = len(den) - 1
    while dden >= 0 and den[dden] == 0:
        dden -= 1
    if dden < 0:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(den[dden], p - 2, p)
    quot = [0] * max(len(num) - dden, 1)
    for i in range(len(num) - 1, dden - 1, -1):
        if num[i] % p == 0:
            continue
        q = (num[i] * inv_lead) % p
        quot[i - dden] = q
        for j in range(dden + 1):
            num[i - dden + j] = (num[i - dden + j] - q * den[j]) % p
    return quot, [v % p for v in num]


class FFElement:
    """Element of a FiniteField, stored as a coefficient tuple over GF(p)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other):
        if isinstance(other, int):
            return self.field.from_int(other)
        if not isinstance(other, FFElement) or other.field is not self.field:
            if isinstance(other, FFElement) and other.field == self.field:
                return other
            raise DomainMismatchError(f"{self!r} and {other!r} live in different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        p = self.field.p
        return FFElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FFElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + self._check(other)

    def __mul__(self, other):
        other = self._check(other)
        return FFElement(self.field, self.field._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        if field.n == 1:
            return FFElement(field, (pow(self.coeffs[0], field.p - 2, field.p),))
        return self ** (field.order - 2)

    def frobenius(self, e=1):
        return FFElement(self.field, self.field._frob(self.coeffs, e))

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return (
            isinstance(other, FFElement)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field._hash, self.coeffs))

    def __str__(self):
        return self.field.element_to_str(self)

    def __repr__(self):
        return f"{self}:{self.field}"


class FiniteField:
    """GF(p^n) as a quotient of GF(p)[x] by a stored monic irreducible."""

    is_field = True

    def __init__(self, p, n=1, modulus=None):
        if p not in SUPPORTED_PRIMES:
            raise JTCalcError(f"characteristic {p} unsupported (need a prime <= 31)")
        if not 1 <= n <= MAX_EXT_DEGREE:
            raise JTCalcError(f"extension degree {n} unsupported (need 1 <= n <= {MAX_EXT_DEGREE})")
        self.p = p
        self.n = n
        self.order = p**n
        if n == 1:
            modulus = (0, 1)
        elif modulus is None:
            if (p, n) not in CONWAY:
                raise JTCalcError(
                    f"no default modulus for GF({p}^{n}); supply one explicitly"
                )
            modulus = CONWAY[(p, n)]
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != n + 1 or modulus[n] != 1:
            raise JTCalcError("modulus must be monic of degree n")
        if n > 1 and not _poly_is_irreducible(modulus, p):
            raise JTCalcError(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = modulus
        self._hash = hash((p, n, modulus))
        # reduction table: x^k mod modulus for k < 2n-1, shape (2n-1, n)
        red = np.zeros((max(2 * n - 1, 1), n), dtype=np.int64)
        for k in range(red.shape[0]):
            if k < n:
                red[k, k] = 1
            else:
                prev = red[k - 1]
                shifted = [0] + list(prev)
                lead = shifted[n]
                row = [(shifted[i] - lead * modulus[i]) % p for i in range(n)]
                red[k] = row
        red.setflags(write=False)
        self.reduction = red
        self._reduction_rows = tuple(tuple(int(v) for v in row) for row in red)
        # multiplication tensor: x^a * x^b = sum_c mul_tensor[a, b, c] x^c
        idx = np.arange(n)
        mul = red[idx[:, None] + idx[None, :]]
        mul.setflags(write=False)
        self.mul_tensor = mul
        # Frobenius x -> x^p as a GF(p)-linear map: column i = coeffs of (x^i)^p
        frob = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            frob[:, i] = self._pow_int(self._basis(i), p)
        frob.setflags(write=False)
        self.frobenius_matrix = frob

    def _basis(self, i):
        return tuple(1 if j == i else 0 for j in range(self.n))

    def _mul(self, a, b):
        n = self.n
        if n == 1:
            return ((a[0] * b[0]) % self.p,)
        conv = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        out = [0] * n
        for ck, row in zip(conv, self._reduction_rows):
            if ck:
                for j in range(n):
                    out[j] += ck * row[j]
        return tuple(v % self.p for v in out)

    def _pow_int(self, a, k):
        result = self._basis(0)
        base = a
        while k:
            if k & 1:
                result = self._mul(result, base)
            base = self._mul(base, base)
            k >>= 1
        return result

    def _frob(self, coeffs, e=1):
        out = coeffs
        for _ in range(e % self.n if self.n > 1 else 0):
            vec = self.frobenius_matrix @ np.array(out, dtype=np.int64)
            out = tuple(int(v) % self.p for v in vec)
        return out

    # -- element constructors ------------------------------------------------

    def element(self, coeffs):
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.n:
            raise JTCalcError("coefficient tuple has wrong length")
        return FFElement(self, coeffs)

    def from_int(self, v):
        return FFElement(self, ((v % self.p),) + (0,) * (self.n - 1))

    def from_index(self, idx):
        """Element number idx in the canonical order (base-p digits, ascending)."""
        digits = []
        for _ in range(self.n):
            digits.append(idx % self.p)
            idx //= self.p
        return FFElement(self, tuple(digits))

    def zero(self):
        return FFElement(self, (0,) * self.n)

    def one(self):
        return self.from_int(1)

    def gen(self):
        if self.n == 1:
            return self.one()
        return FFElement(self, self._basis(1))

    def elements(self):
        for idx in range(self.order):
            yield self.from_index(idx)

    def nonzero_elements(self):
        for idx in range(1, self.order):
            yield self.from_index(idx)

    def random_element(self, rng):
        return self.from_index(rng.randrange(self.order))

    def embed(self, a):
        """Embed an element of the prime field (or this field) into this field."""
        if isinstance(a, int):
            return self.from_int(a)
        if a.field == self:
            return FFElement(self, a.coeffs)
        if a.field.n == 1 and a.field.p == self.p:
            return self.from_int(a.coeffs[0])
        raise DomainMismatchError(f"cannot embed {a!r} into {self}")

    def embed_scalar(self, a):
        return self.embed(a)

    def embed_int(self, k):
        return self.from_int(k)

    def inv_int(self, k):
        """1/k as a field element; k an integer not divisible by p."""
        if k % self.p == 0:
            raise ZeroDivisionError(f"{k} is divisible by {self.p}")
        return self.from_int(pow(k % self.p, self.p - 2, self.p))

    # -- text forms ----------------------------------------------------------

    def element_to_str(self, a):
        if self.n == 1:
            return str(a.coeffs[0])
        if a.is_zero():
            return "0"
        terms = []
        for i in reversed(range(self.n)):
            c = a.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}g" + (f"^{i}" if i > 1 else ""))
        return "+".join(terms)

    def modulus_str(self):
        terms = []
        for i in reversed(range(len(self.modulus))):
            c = self.modulus[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}x" + (f"^{i}" if i > 1 else ""))
        return "+".join(terms)

    def descriptor(self):
        if self.n == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.n}; modulus={self.modulus_str()})"

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and other.p == self.p
            and other.n == self.n
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return self._hash

    def __str__(self):
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"

    __repr__ = __str__


def GF(p, n=1, modulus=None):
    return FiniteField(p, n, modulus)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Sparse polynomial: map from exponent vectors to nonzero field elements."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise DomainMismatchError("polynomials from different rings")
            return other
        if isinstance(other, (int, FFElement)):
            return self.ring.constant(other)
        raise DomainMismatchError(f"cannot combine polynomial with {other!r}")

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        # every coefficient lies in the ring's field (`PolyRing.constant` embeds), so
        # coordinates multiply directly, and their sums stay plain ints until reduced once
        field = self.ring.field
        p = field.p
        acc = {}
        if field.n == 1:
            for e1, c1 in self.terms.items():
                a = c1.coeffs[0]
                for e2, c2 in other.terms.items():
                    e = tuple(map(operator.add, e1, e2))
                    acc[e] = acc.get(e, 0) + a * c2.coeffs[0]
            return Polynomial(self.ring, {e: FFElement(field, (v % p,)) for e, v in acc.items()})
        mul = field._mul
        for e1, c1 in self.terms.items():
            a = c1.coeffs
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                prod = mul(a, c2.coeffs)
                s = acc.get(e)
                acc[e] = prod if s is None else tuple(map(operator.add, s, prod))
        return Polynomial(self.ring, {e: FFElement(field, tuple(v % p for v in c)) for e, c in acc.items()})

    __rmul__ = __mul__

    def __pow__(self, k):
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, FFElement)):
            other = self.ring.constant(other)
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted((e, c.coeffs) for e, c in self.terms.items()))))

    def frobenius(self, e=1):
        q = self.ring.field.p**e
        return Polynomial(
            self.ring,
            {tuple(x * q for x in exp): c.frobenius(e) for exp, c in self.terms.items()},
        )

    def degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def weighted_degree(self):
        w = self.ring.weights
        return max((sum(x * wi for x, wi in zip(e, w)) for e in self.terms), default=-1)

    def evaluate(self, point):
        """Exact evaluation at field elements (base field or an extension of it)."""
        domain = self.ring.point_field(point)
        if domain is None:
            return self.constant_value()
        return self.evaluate_in(domain, point)

    def evaluate_in(self, domain, point):
        """Evaluation with values in any commutative domain (internal use)."""
        acc = domain.zero()
        for e, c in self.terms.items():
            term = domain.embed_scalar(c)
            for v, k in zip(point, e):
                if k:
                    term = term * v**k
            acc = acc + term
        return acc

    def constant_value(self):
        for e, c in self.terms.items():
            if any(e):
                raise JTCalcError("polynomial is not constant")
        return self.terms.get((0,) * len(self.ring.variables), self.ring.field.zero())

    def sorted_terms(self):
        """Graded-lexicographic order: total degree descending, then exponents descending."""
        return sorted(self.terms.items(), key=lambda item: (-sum(item[0]), tuple(-x for x in item[0])))

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for e, c in self.sorted_terms():
            vars_part = " ".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.ring.variables, e)
                if k
            )
            cs = str(c)
            if vars_part:
                chunks.append(f"{cs} * {vars_part}" if cs != "1" else vars_part)
            else:
                chunks.append(cs)
        return " + ".join(chunks)

    def compact_str(self):
        """Whitespace-free form with explicit '*', for config grids."""
        if not self.terms:
            return "0"
        chunks = []
        for e, c in self.sorted_terms():
            factors = [f"{v}^{k}" if k > 1 else v for v, k in zip(self.ring.variables, e) if k]
            cs = str(c)
            if factors:
                if cs != "1":
                    factors.insert(0, cs)
                chunks.append("*".join(factors))
            else:
                chunks.append(cs)
        return "+".join(chunks)

    __repr__ = __str__


class PolyRing:
    """Polynomial ring over a finite field with named, optionally weighted variables."""

    is_field = False

    def __init__(self, field, variables, weights=None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise JTCalcError("variable names must be unique")
        weights = tuple(weights) if weights is not None else (1,) * len(variables)
        if len(weights) != len(variables) or any(w <= 0 for w in weights):
            raise JTCalcError("weights must be positive, one per variable")
        self.field = field
        self.p = field.p
        self.variables = variables
        self.weights = weights

    def constant(self, c):
        if isinstance(c, int):
            c = self.field.from_int(c)
        elif c.field != self.field:
            c = self.field.embed(c)
        return Polynomial(self, {(0,) * len(self.variables): c})

    def point_field(self, point):
        """The field a point's values live in, None for the empty point of no variables.

        Raises for a point that `Polynomial.evaluate` cannot take: a wrong
        length, values from mixed fields, or a field that is neither the
        coefficient field nor, for prime coefficients, a field of its
        characteristic.
        """
        if len(point) != len(self.variables):
            raise JTCalcError("point length does not match variable count")
        if not point:
            return None
        domain = point[0].field
        for v in point:
            if v.field != domain:
                raise DomainMismatchError("point entries in mixed fields")
        if domain != self.field and not (self.field.n == 1 and domain.p == self.field.p):
            raise DomainMismatchError(f"cannot evaluate over {domain}")
        return domain

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(1)

    def var(self, name):
        i = self.variables.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(self.variables)))
        return Polynomial(self, {e: self.field.one()})

    def gens(self):
        return [self.var(v) for v in self.variables]

    def embed_scalar(self, c):
        return self.constant(c)

    def embed_int(self, k):
        return self.constant(k)

    def inv_int(self, k):
        return self.constant(self.field.inv_int(k))

    def descriptor(self):
        inner = ",".join(f"{v}:{w}" for v, w in zip(self.variables, self.weights))
        return f"{self.field.descriptor()}[{inner}]"

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.variables == self.variables
            and other.weights == self.weights
        )

    def __hash__(self):
        return hash((self.field, self.variables, self.weights))

    def __str__(self):
        return self.descriptor()

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Univariate rational function fields
# ---------------------------------------------------------------------------


def _up_trim(c):
    i = len(c)
    while i > 0 and c[i - 1].is_zero():
        i -= 1
    return tuple(c[:i])


def _up_add(a, b, field):
    n = max(len(a), len(b))
    zero = field.zero()
    return _up_trim(tuple(
        (a[i] if i < len(a) else zero) + (b[i] if i < len(b) else zero) for i in range(n)
    ))


def _up_neg(a):
    return tuple(-c for c in a)


def _up_mul(a, b, field):
    if not a or not b:
        return ()
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return _up_trim(tuple(out))


def _up_divmod(a, b, field):
    b = _up_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, lead_inv = len(b) - 1, b[-1].inverse()
    quot = [field.zero()] * max(len(a) - db, 1)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i].is_zero():
            continue
        q = a[i] * lead_inv
        quot[i - db] = q
        for j in range(db + 1):
            a[i - db + j] = a[i - db + j] - q * b[j]
    return _up_trim(tuple(quot)), _up_trim(tuple(a))


def _up_gcd(a, b, field):
    a, b = _up_trim(a), _up_trim(b)
    while b:
        _, r = _up_divmod(a, b, field)
        a, b = b, r
    if a:
        inv = a[-1].inverse()
        a = tuple(c * inv for c in a)
    return a


class RatFunc:
    """Reduced fraction of univariate polynomials with monic denominator."""

    __slots__ = ("parent", "num", "den")

    def __init__(self, parent, num, den, reduce=True):
        field = parent.field
        num, den = _up_trim(num), _up_trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if reduce and num:
            g = _up_gcd(num, den, field)
            if len(g) > 1:
                num, _ = _up_divmod(num, g, field)
                den, _ = _up_divmod(den, g, field)
        if not num:
            den = (field.one(),)
        lead_inv = den[-1].inverse()
        num = tuple(c * lead_inv for c in num)
        den = tuple(c * lead_inv for c in den)
        self.parent = parent
        self.num = num
        self.den = den

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.parent != self.parent:
                raise DomainMismatchError("rational functions over different fields")
            return other
        if isinstance(other, (int, FFElement)):
            return self.parent.constant(other)
        raise DomainMismatchError(f"cannot combine rational function with {other!r}")

    def __add__(self, other):
        other = self._coerce(other)
        f = self.parent.field
        num = _up_add(_up_mul(self.num, other.den, f), _up_mul(other.num, self.den, f), f)
        return RatFunc(self.parent, num, _up_mul(self.den, other.den, f))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.parent, _up_neg(self.num), self.den, reduce=False)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        f = self.parent.field
        return RatFunc(
            self.parent, _up_mul(self.num, other.num, f), _up_mul(self.den, other.den, f)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __pow__(self, k):
        result = self.parent.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.parent, self.den, self.num)

    def frobenius(self, e=1):
        q = self.parent.field.p**e

        def stretch(poly):
            out = {}
            for i, c in enumerate(poly):
                out[i * q] = c.frobenius(e)
            size = max(out) + 1 if out else 0
            zero = self.parent.field.zero()
            return tuple(out.get(i, zero) for i in range(size))

        return RatFunc(self.parent, stretch(self.num), stretch(self.den), reduce=False)

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        if isinstance(other, (int, FFElement)):
            other = self.parent.constant(other)
        return (
            isinstance(other, RatFunc)
            and other.parent == self.parent
            and other.num == self.num
            and other.den == self.den
        )

    def __hash__(self):
        return hash((self.parent, tuple(c.coeffs for c in self.num), tuple(c.coeffs for c in self.den)))

    def __str__(self):
        def poly_str(c):
            if not c:
                return "0"
            bits = []
            for i in reversed(range(len(c))):
                if c[i].is_zero():
                    continue
                v = self.parent.variable
                cs = str(c[i])
                if i == 0:
                    bits.append(cs)
                else:
                    head = "" if cs == "1" else f"{cs}*"
                    bits.append(f"{head}{v}" + (f"^{i}" if i > 1 else ""))
            return "+".join(bits)

        if len(self.den) == 1:
            return poly_str(self.num)
        return f"({poly_str(self.num)})/({poly_str(self.den)})"

    __repr__ = __str__


class RationalFunctionField:
    """GF(q)(x): the field of fractions of the univariate polynomial ring."""

    is_field = True

    def __init__(self, field, variable="x"):
        self.field = field
        self.p = field.p
        self.variable = variable

    def constant(self, c):
        if isinstance(c, int):
            c = self.field.from_int(c)
        else:
            c = self.field.embed(c)
        return RatFunc(self, (c,), (self.field.one(),), reduce=False)

    def zero(self):
        return RatFunc(self, (), (self.field.one(),), reduce=False)

    def one(self):
        return self.constant(1)

    def var(self):
        return RatFunc(self, (self.field.zero(), self.field.one()), (self.field.one(),), reduce=False)

    def from_coeffs(self, num, den=None):
        num = tuple(self.field.embed(c) if not isinstance(c, int) else self.field.from_int(c) for c in num)
        if den is None:
            den = (self.field.one(),)
        else:
            den = tuple(self.field.embed(c) if not isinstance(c, int) else self.field.from_int(c) for c in den)
        return RatFunc(self, num, den)

    def embed_scalar(self, c):
        return self.constant(c)

    def embed_int(self, k):
        return self.constant(k)

    def inv_int(self, k):
        return self.constant(self.field.inv_int(k))

    def descriptor(self):
        return f"{self.field.descriptor()}({self.variable})"

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunctionField)
            and other.field == self.field
            and other.variable == self.variable
        )

    def __hash__(self):
        return hash((self.field, self.variable))

    def __str__(self):
        return self.descriptor()

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Truncated curve rings k[t]/t^(p^r)
# ---------------------------------------------------------------------------


class TruncElement:
    """Element of base[t]/t^q, stored as a sparse exponent -> coefficient map."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = {
            e: c
            for e, c in coeffs.items()
            if e < ring.q and not c.is_zero()
        }

    def _coerce(self, other):
        if isinstance(other, TruncElement):
            if other.ring != self.ring:
                raise DomainMismatchError("truncated elements from different rings")
            return other
        if isinstance(other, int):
            return self.ring.constant(other)
        return self.ring.constant(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return TruncElement(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncElement(self.ring, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        q = self.ring.q
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e >= q:
                    continue
                prod = c1 * c2
                s = out.get(e)
                out[e] = prod if s is None else s + prod
        return TruncElement(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def frobenius(self, e=1):
        q = self.ring.q
        scale = self.ring.base.p**e
        out = {}
        for exp, c in self.coeffs.items():
            ne = exp * scale
            if ne < q:
                out[ne] = c.frobenius(e)
        return TruncElement(self.ring, out)

    def subs_power(self, k):
        """Substitute t -> t^k (used for Frobenius-twisted one-parameter factors)."""
        out = {}
        for exp, c in self.coeffs.items():
            ne = exp * k
            if ne < self.ring.q:
                out[ne] = c
        return TruncElement(self.ring, out)

    def coeff(self, e):
        c = self.coeffs.get(e)
        return c if c is not None else self.ring.base_zero()

    def degree(self):
        return max(self.coeffs, default=-1)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return (
            isinstance(other, TruncElement)
            and other.ring == self.ring
            and other.coeffs == self.coeffs
        )

    def __str__(self):
        if not self.coeffs:
            return "0"
        v = self.ring.variable
        bits = []
        for e in sorted(self.coeffs):
            c = str(self.coeffs[e])
            if e == 0:
                bits.append(c)
            else:
                head = "" if c == "1" else f"{c}*"
                bits.append(f"{head}{v}" + (f"^{e}" if e > 1 else ""))
        return "+".join(bits)

    __repr__ = __str__


class TruncatedCurveRing:
    """base[t]/t^(p^r); the coordinate algebra of a height-r additive curve."""

    is_field = False

    def __init__(self, base, r, variable="t"):
        self.base = base
        self.p = base.p
        self.r = r
        self.q = base.p**r
        self.variable = variable

    def base_zero(self):
        return self.base.zero()

    def constant(self, c):
        if isinstance(c, int):
            c = self.base.embed_int(c) if not isinstance(self.base, FiniteField) else self.base.from_int(c)
        elif isinstance(c, FFElement) and isinstance(self.base, FiniteField):
            c = self.base.embed(c)
        elif isinstance(c, FFElement):
            c = self.base.embed_scalar(c)
        return TruncElement(self, {0: c})

    def zero(self):
        return TruncElement(self, {})

    def one(self):
        return self.constant(1)

    def t(self):
        one = self.constant(1).coeffs.get(0)
        return TruncElement(self, {1: one})

    def monomial(self, e, c=None):
        if c is None:
            c = self.constant(1).coeffs.get(0)
        return TruncElement(self, {e: c})

    def embed_scalar(self, c):
        return self.constant(c)

    def embed_int(self, k):
        return self.constant(k)

    def inv_int(self, k):
        return self.constant(self.base.inv_int(k))

    def descriptor(self):
        return f"{self.base.descriptor()}[{self.variable}]/{self.variable}^{self.q}"

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedCurveRing)
            and other.base == self.base
            and other.q == self.q
            and other.variable == self.variable
        )

    def __hash__(self):
        return hash((self.base, self.q, self.variable))

    def __str__(self):
        return self.descriptor()

    __repr__ = __str__


def require_field(domain):
    if not getattr(domain, "is_field", False):
        raise NotAFieldError(f"{domain} is not a field")
