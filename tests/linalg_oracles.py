"""Object-entry elimination, determinants, rational-function ranks and rank profiles,
kept as oracles of `linalg.ExactMatrix` and `jordan.jt_of_nilpotent`.

`ExactMatrix` ranks and solves (kernels, inverses) only over finite fields,
on the regular representation of its one-point stack, and `jt_of_nilpotent`
ranks a finite-field matrix's powers by the program's one loop from
operator powers to Jordan types (`jordan._jordan_types`).  Before, kernels
and inverses over any other field went through the generic elimination
`obj_rref` below, on entries of the field's own arithmetic;
`ExactMatrix.det` was the subset-DP determinant; a GF(q)(x) matrix was
ranked by clearing its denominators into a GF(p)[x] stack (`cleared_rows`,
`px_stack`) for fraction-free elimination (`ratfunc_rank`); and
`jt_of_nilpotent` ranked the powers of any matrix one by one
(`power_ranks`).  All are kept here verbatim: `obj_rref` as the second
route to a rational-function rank, `det` for the determinant identities of
Sym and Ext, `ratfunc_rank` and `px_stack` for the GF(q)(x) kernel of
`linalg`, and `power_ranks` as the second route to a Jordan type.
"""

import numpy as np

from jtcalc.errors import JTCalcError, NotNilpotentError
from jtcalc.fields import _up_divmod, _up_mul, _up_trim, require_field
from jtcalc.linalg import _det_subset_dp, _Pointwise, _px_rank


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


def cleared_rows(matrix):
    """Clear denominators row-wise; rows of dense coefficient tuples."""
    field = matrix.domain.field
    out = []
    for i in range(matrix.rows):
        entries = [matrix.entry(i, j) for j in range(matrix.cols)]
        row_den = (field.one(),)
        for v in entries:
            row_den = _up_mul(row_den, v.den, field)
        row = []
        for v in entries:
            quot, rem = _up_divmod(row_den, v.den, field)
            if _up_trim(rem):
                raise JTCalcError("denominator clearing failed")
            row.append(_up_mul(v.num, quot, field))
        out.append(row)
    return out


def px_stack(field, rows):
    """GF(p)[x] stack of a GF(p^n)[x] matrix given as rows of {exponent: FFElement} maps."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    length = 1 + max((e for row in rows for entry in row for e in entry), default=0)
    data = np.zeros((length, nr, nc, field.n), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            for e, v in entry.items():
                data[e, i, j] = field.embed(v).coeffs
    return _Pointwise(field).lift(data)


def ratfunc_rank(matrix):
    """Exact rank of a matrix over a rational function field GF(q)(x): its rows, cleared of
    denominators, ranked by fraction-free elimination on their GF(p)[x] stack."""
    require_field(matrix.domain)
    field = matrix.domain.field
    rows = [[dict(enumerate(v)) for v in row] for row in cleared_rows(matrix)]
    return _px_rank(px_stack(field, rows), field.p) // field.n


def power_ranks(n, p):
    """Ranks of n, n^2, ..., n^(p-1); once a power vanishes the rest are 0."""
    ranks = []
    power = n
    for _ in range(1, p):
        if power.is_zero():
            ranks.append(0)
            continue
        ranks.append(power.rank())
        power = power @ n
    if not power.is_zero():
        raise NotNilpotentError(f"matrix is not {p}-nilpotent")
    return tuple(ranks)
