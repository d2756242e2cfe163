"""The coordinate ring of polynomials along a curve, kept as the oracle of `batch._Polys`.

`batch._Polys` is a `linalg._Pointwise` ring whose point axis is the
coefficient axis of the curve parameter: a matrix is the (S, rows n, cols n)
stack of the regular-representation blocks of its coefficients.  Before, a
matrix was an (S, rows, cols, n) stack of GF(p^n) coordinates, with its own
products against the regular representation of the right factor.  That
ring is kept here verbatim as `CoordinatePolys`; every operation of the
block ring must be the `lift` of its result.
"""

import numpy as np

from jtcalc.linalg import _convolve, _frobenius_power, _px_trim, _regular


class CoordinatePolys:
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

