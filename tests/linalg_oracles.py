"""Object-entry elimination and determinants, kept as oracles of `linalg.ExactMatrix`.

`ExactMatrix` solves (kernels, inverses) only over finite fields, on the
GF(p) reduced form of the regular representation, and ranks GF(q)(x)
matrices by fraction-free elimination on their cleared stack.  Before,
kernels and inverses over any other field went through the generic
elimination `obj_rref` below, on entries of the field's own arithmetic,
and `ExactMatrix.det` was the subset-DP determinant.  Both are kept here
verbatim: `obj_rref` as the second route to a rational-function rank, and
`det` for the determinant identities of Sym and Ext.
"""

from jtcalc.errors import JTCalcError
from jtcalc.linalg import _det_subset_dp


def obj_rref(domain, A, full=False):
    """Row echelon form of a tuple of rows over a field domain, by elimination on its
    elements; with `full`, reduced.  Returns (rows, pivot columns)."""
    M = [list(r) for r in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    pr = 0
    for col in range(cols):
        if pr >= rows:
            break
        piv = -1
        for r in range(pr, rows):
            if not M[r][col].is_zero():
                piv = r
                break
        if piv == -1:
            continue
        M[pr], M[piv] = M[piv], M[pr]
        inv = M[pr][col].inverse()
        M[pr] = [v * inv for v in M[pr]]
        targets = range(rows) if full else range(pr + 1, rows)
        for r in targets:
            if r == pr or M[r][col].is_zero():
                continue
            f = M[r][col]
            M[r] = [a - f * b for a, b in zip(M[r], M[pr])]
        pivots.append(col)
        pr += 1
    return tuple(tuple(r) for r in M), pivots


def det(matrix):
    """The determinant of a square `ExactMatrix`, by subset DP over its entries."""
    if matrix.rows != matrix.cols:
        raise JTCalcError("determinant needs a square matrix")
    return _det_subset_dp(matrix.domain, matrix._obj_rows(),
                          tuple(range(matrix.rows)), tuple(range(matrix.cols)))
