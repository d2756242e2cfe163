"""Parsers for the plain-text interchange forms: field specs, polynomial
expressions, Jordan types, and chart/curve files."""

from __future__ import annotations

import re

from .errors import JTCalcError, ParseError
from .fields import GF, MAX_EXT_DEGREE, SUPPORTED_PRIMES

_FIELD_RE = re.compile(r"^GF\(\s*(\d+)(?:\s*\^\s*(\d+))?\s*(?:;\s*modulus\s*=\s*([^)]+))?\s*\)$")


def parse_field_spec(text):
    """Parse "GF(p)", "GF(p^n)", "GF(q)" or "GF(p^n; modulus=...)"."""
    text = text.strip()
    m = _FIELD_RE.match(text)
    if not m:
        raise ParseError(f"bad field spec {text!r}")
    try:
        return _field_of_match(m)
    except ParseError:
        raise
    except JTCalcError as exc:
        # a degree or modulus that GF refuses
        raise ParseError(str(exc)) from None
    except ValueError:
        # an integer too long to convert
        raise ParseError(f"bad field spec {text!r}") from None


def _field_of_match(m):
    base = int(m.group(1))
    n = int(m.group(2)) if m.group(2) else 1
    if m.group(2) is None and base not in SUPPORTED_PRIMES:
        # allow GF(q) with q = p^n for small p
        for p in SUPPORTED_PRIMES:
            for k in (2, 3, 4):
                if p**k == base:
                    base, n = p, k
                    break
            if n > 1:
                break
        if n == 1:
            raise ParseError(f"{base} is not a supported field order")
    modulus = None
    if m.group(3):
        modulus = parse_modulus(m.group(3).strip())
    return GF(base, n, modulus)


def parse_modulus(text):
    """Parse a univariate modulus like "x^2+2x+2" into ascending coefficients."""
    text = text.replace(" ", "").replace("-", "+-")
    coeffs = {}
    for term in text.split("+"):
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        m = re.match(r"^(\d*)\*?([A-Za-z]?)(?:\^(\d+))?$", term)
        if not m or (not m.group(1) and not m.group(2)):
            raise ParseError(f"bad modulus term {term!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        if m.group(2):
            exp = int(m.group(3)) if m.group(3) else 1
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, 0) + (-coeff if neg else coeff)
    if not coeffs:
        raise ParseError("empty modulus")
    deg = max(coeffs)
    if deg > MAX_EXT_DEGREE:
        raise ParseError(f"modulus degree {deg} above {MAX_EXT_DEGREE}")
    return tuple(coeffs.get(i, 0) for i in range(deg + 1))


_POLY_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|\*\*|[-+*^()])")


class _PolyParser:
    """Recursive-descent parser for +, -, *, ^ polynomial expressions."""

    def __init__(self, ring, text):
        self.ring = ring
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _POLY_TOKEN.match(text, pos)
            if not m:
                raise ParseError(f"bad character in polynomial {text[pos]!r}", column=pos)
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self):
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of polynomial", column=len(self.text))
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        e = self.parse_sum()
        if self.pos != len(self.tokens):
            tok, col = self.tokens[self.pos]
            raise ParseError(f"trailing input {tok!r}", column=col)
        return e

    def parse_sum(self):
        if self.peek() == "-":
            self.next()
            e = -self.parse_term()
        else:
            e = self.parse_term()
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            rhs = self.parse_term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def parse_term(self):
        e = self.parse_power()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.next()
                e = e * self.parse_power()
            elif nxt is not None and (nxt.isdigit() or nxt[0].isalpha() or nxt == "("):
                # implicit multiplication: 2x, x y, 3(x+y)
                e = e * self.parse_power()
            else:
                return e

    def parse_power(self):
        e = self.parse_atom()
        while self.peek() in ("^", "**"):
            self.next()
            tok, col = self.next()
            if not tok.isdigit():
                raise ParseError("exponent must be an integer", column=col)
            e = e**_int(tok, col)
        return e

    def parse_atom(self):
        tok, col = self.next()
        if tok == "(":
            e = self.parse_sum()
            closing, ccol = self.next()
            if closing != ")":
                raise ParseError("expected ')'", column=ccol)
            return e
        if tok.isdigit():
            return self.ring.constant(_int(tok, col))
        if tok in self.ring.variables:
            return self.ring.var(tok)
        raise ParseError(f"unknown variable {tok!r}", column=col)


def _int(tok, col):
    try:
        return int(tok)
    except ValueError:
        # int() refuses numbers longer than its digit limit
        raise ParseError(f"bad integer {tok!r}", column=col) from None


def parse_polynomial(ring, text):
    return _PolyParser(ring, text).parse()
