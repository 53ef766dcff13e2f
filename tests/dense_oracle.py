"""Dense reference implementations that the sparse code is checked against.

``dense_rref`` is the column-by-column Gauss-Jordan loop on dense rows that
``Matrix.rref`` ran before elimination moved to sparse rows, and
``dense_is_central_simple`` is the dense n^2 x n^2 sandwich rank that
``is_central_simple`` took before it built sparse rows.  They are kept
only as oracles for the tests.
"""
from dgbr.dg import center


def dense_rref(field, rows, ncols):
    """Reduced row echelon form of dense rows: (reduced rows, pivot columns)."""
    f = field
    rows = [list(r) for r in rows]
    m = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, m):
            if not f.is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(m):
            if i != r and not f.is_zero(rows[i][c]):
                t = rows[i][c]
                rows[i] = [f.sub(x, f.mul(t, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return [tuple(row) for row in rows], tuple(pivots)


def dense_kernel_basis(field, rows, ncols):
    """Right kernel basis with free variables set to 1, from ``dense_rref``."""
    R, pivots = dense_rref(field, rows, ncols)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        col = [field.zero] * ncols
        col[j] = field.one
        for r, pc in enumerate(pivots):
            col[pc] = field.neg(R[r][j])
        basis.append(tuple(col))
    return basis, pivots


def dense_solve(field, rows, ncols, rhs):
    """Solution of rows * x = rhs with free variables zero, or None."""
    R, pivots = dense_rref(field, [tuple(r) + (b,) for r, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        return None
    sol = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = R[r][ncols]
    return tuple(sol)


def dense_inverse(field, rows):
    """Inverse of a square matrix as a tuple of rows, or None when singular."""
    n = len(rows)
    eye = [tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)]
    R, pivots = dense_rref(field, [tuple(r) + e for r, e in zip(rows, eye)], 2 * n)
    if pivots[:n] != tuple(range(n)):
        return None
    return tuple(r[n:] for r in R)


def dense_sandwich_rank(A):
    """Rank of the n^2 x n^2 matrix whose column (i, j) is x -> e_i x e_j."""
    n, f = A.dim, A.field
    one = f.one
    cols = []
    for i in range(n):
        for j in range(n):
            col = [f.zero] * (n * n)
            for x in range(n):
                for t, c in A.mul({i: one}, A.table.get((x, j), {})).items():
                    col[x * n + t] = c
            cols.append(col)
    rows = [tuple(col[r] for col in cols) for r in range(n * n)]
    return len(dense_rref(f, rows, n * n)[1])


def dense_is_central_simple(A):
    """Center of dimension 1 and a sandwich map of full rank n^2."""
    n = A.dim
    return n > 0 and center(A).space.total_dim == 1 and dense_sandwich_rank(A) == n * n
