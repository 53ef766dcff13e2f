from fractions import Fraction

import pytest
from dense_oracle import dense_inverse, dense_kernel_basis, dense_rref, dense_solve
from hypothesis import given, settings, strategies as st

from dgbr.errors import FieldMismatch, ShapeMismatch
from dgbr.fields import GF, QQ
from dgbr.graded import GradedVectorSpace, HomogeneousMap
from dgbr.linalg import Factored, Matrix, coset_basis, kernel_columns, rref_rows, transpose


def mat(rows, field=QQ):
    return Matrix(field, [[field.coerce(x) for x in r] for r in rows])


def sparse(field, vec) -> dict:
    return {i: x for i, x in enumerate(vec) if not field.is_zero(x)}


def sparse_rows(field, rows):
    return [sparse(field, r) for r in rows]


def sparse_columns(field, rows, n):
    """The columns of dense rows with n columns, as sparse dicts."""
    return [sparse(field, [r[j] for r in rows]) for j in range(n)]


def matvec(field, rows, x):
    """Dense rows times the column x, as a tuple."""
    add, mul = field.add, field.mul
    out = []
    for r in rows:
        acc = field.zero
        for a, b in zip(r, x):
            acc = add(acc, mul(a, b))
        out.append(acc)
    return tuple(out)


def solve(solver: Factored, field, rhs, n):
    """``solver.solve`` on a dense rhs, densified back like ``Matrix.solve``."""
    sol = solver.solve(sparse(field, rhs))
    return None if sol is None else tuple(sol.get(j, field.zero) for j in range(n))


def square_map(field, rows):
    """The degree-0 map of a square matrix on a space concentrated in degree 0."""
    k = len(rows)
    V = GradedVectorSpace({0: k})
    return HomogeneousMap(field, V, V, 0, dict(enumerate(sparse_columns(field, rows, k))))


def map_rows(m: HomogeneousMap, k):
    """The matrix of a map on a k-dimensional space as a tuple of rows."""
    zero = m.field.zero
    return tuple(tuple(m.cols.get(j, {}).get(i, zero) for j in range(k)) for i in range(k))


def test_rref_and_rank():
    m = mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    R, pivots = m.rref()
    assert pivots == (0, 1)
    assert len(rref_rows(QQ, sparse_rows(QQ, m.rows))[1]) == 2
    # pivot columns are cleared above and below
    assert R.rows[0][0] == 1 and R.rows[1][1] == 1
    assert R.rows[0][1] == 0
    assert R.rows[2] == (0, 0, 0)


def test_kernel_basis_exact():
    rows = mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]]).rows
    basis, pivots = kernel_columns(QQ, dict(enumerate(sparse_columns(QQ, rows, 3))), 3)
    assert pivots == (0, 1)
    assert list(basis) == [2]
    v = basis[2]
    assert v[2] == 1  # free variable set to one
    dense = [v.get(j, 0) for j in range(3)]
    assert matvec(QQ, rows, dense) == (0, 0, 0)


def test_kernel_of_injective_map_is_empty():
    rows = [[1, 0], [0, 1], [3, 7]]
    assert kernel_columns(QQ, dict(enumerate(sparse_columns(QQ, rows, 2))), 2)[0] == {}


def test_zero_row_matrix_with_ncols_hint():
    m = Matrix(QQ, [], ncols=3)
    R, pivots = m.rref()
    assert pivots == () and (R.nrows, R.ncols) == (0, 3)
    assert len(kernel_columns(QQ, {}, 3)[0]) == 3
    assert m.solve(()) == (0, 0, 0)


def test_solve_particular_and_inconsistent():
    m = mat([[1, 1], [0, 1]])
    sol = m.solve((Fraction(3), Fraction(1)))
    assert sol == (Fraction(2), Fraction(1))
    m2 = mat([[1, 1], [2, 2]])
    assert m2.solve((Fraction(1), Fraction(3))) is None
    with pytest.raises(ShapeMismatch):
        m.solve((Fraction(1),))


def test_solve_picks_canonical_solution():
    # underdetermined: free variables stay zero
    m = mat([[1, 1, 1]])
    assert m.solve((Fraction(5),)) == (Fraction(5), Fraction(0), Fraction(0))


def test_ragged_rows_are_rejected():
    with pytest.raises(ShapeMismatch):
        Matrix(QQ, [[1, 2], [3]])


def test_inverse():
    inv = square_map(QQ, [[2, 1], [1, 1]]).inverse()
    assert map_rows(inv, 2) == ((1, -1), (-1, 2))
    assert square_map(QQ, [[1, 2], [2, 4]]).inverse() is None


def test_prime_field_elimination():
    F = GF(5)
    assert len(rref_rows(F, sparse_rows(F, mat([[2, 1], [3, 4]], F).rows))[1]) == 1  # det = 5 = 0
    rows = mat([[2, 1], [3, 3]], F).rows
    assert len(rref_rows(F, sparse_rows(F, rows))[1]) == 2
    inv = map_rows(square_map(F, rows).inverse(), 2)
    prod = [[sum(rows[i][k] * inv[k][j] for k in range(2)) % 5 for j in range(2)]
            for i in range(2)]
    assert prod == [[1, 0], [0, 1]]


def test_column_space_pivots():
    rows = [[1, 2, 0], [2, 4, 1]]
    assert kernel_columns(QQ, dict(enumerate(sparse_columns(QQ, rows, 3))), 3)[1] == (0, 2)


def test_operations_reject_mixed_fields():
    a, b = square_map(QQ, [[1]]), square_map(GF(7), [[1]])
    with pytest.raises(FieldMismatch):
        a.compose(b)


# -- the factored solver against the one-shot oracle ------------------------------

entries = st.integers(-3, 3)
# mostly zero, like the structure matrices built from matrix units
sparse_entries = st.sampled_from((0,) * 8 + (1, -1, 2, 3))


@st.composite
def matrices(draw, values=entries, max_side=6):
    """(field, rows, ncols): dense rows over QQ or GF(7), often rank deficient,
    possibly with 0 rows or columns."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    m, n = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))

    def rand(rows, cols):
        return [[field.coerce(draw(values)) for _ in range(cols)] for _ in range(rows)]

    if draw(st.booleans()):
        k = draw(st.integers(0, min(m, n)))  # rank at most k
        left, right = rand(m, k), rand(k, n)
        return field, [matvec(field, zip(*right), r) if k else (field.zero,) * n
                       for r in left], n
    return field, rand(m, n), n


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_factored_solve_matches_one_shot_solve(data):
    f, rows, n = data.draw(matrices())
    A = Matrix(f, rows, ncols=n)
    solver = Factored(f, sparse_columns(f, rows, n))
    x = [f.coerce(data.draw(entries)) for _ in range(n)]
    in_span = matvec(f, rows, x)
    anything = tuple(f.coerce(data.draw(entries)) for _ in range(len(rows)))
    assert solve(solver, f, in_span, n) == A.solve(in_span)
    assert solve(solver, f, in_span, n) is not None
    assert solve(solver, f, anything, n) == A.solve(anything)
    assert solver.pivots == A.rref()[1]


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_factored_solve_on_empty_shapes(field, shape):
    m, n = shape
    rows = [[field.zero] * n for _ in range(m)]
    A = Matrix(field, rows, ncols=n)
    solver = Factored(field, sparse_columns(field, rows, n))
    zero = (field.zero,) * m
    assert solve(solver, field, zero, n) == A.solve(zero) == (field.zero,) * n
    if m:
        b = (field.one,) + (field.zero,) * (m - 1)
        assert solver.solve(sparse(field, b)) is None and A.solve(b) is None


def test_factored_solve_treats_keys_in_no_column_as_zero_rows():
    solver = Factored(QQ, [{"x": QQ.one}, {"x": QQ.coerce(2), ("y", 1): QQ.one}])
    assert solver.solve({"x": QQ.coerce(3)}) == {0: QQ.coerce(3)}
    assert solver.solve({"x": QQ.one, ("y", 1): QQ.one}) == {0: QQ.coerce(-1), 1: QQ.one}
    assert solver.solve({"x": QQ.one, "z": QQ.one}) is None
    assert solver.solve({"z": QQ.zero}) == {}


# -- the sparse elimination kernel against the dense Gauss-Jordan oracle ----------


@pytest.mark.parametrize("values, max_side", [(entries, 6), (sparse_entries, 10)],
                         ids=["dense", "sparse"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_elimination_matches_the_dense_oracle(data, values, max_side):
    f, rows, n = data.draw(matrices(values, max_side))
    m = len(rows)
    A = Matrix(f, rows, ncols=n)
    R, pivots = A.rref()
    oracle, oracle_pivots = dense_rref(f, rows, n)
    assert R.rows == tuple(oracle) and pivots == oracle_pivots
    reduced, row_pivots = rref_rows(f, sparse_rows(f, rows))
    assert row_pivots == oracle_pivots
    assert reduced == sparse_rows(f, oracle[:len(oracle_pivots)])

    basis, pivots = kernel_columns(f, dict(enumerate(sparse_columns(f, rows, n))), n)
    assert ([tuple(v.get(j, f.zero) for j in range(n)) for v in basis.values()], pivots) == \
        dense_kernel_basis(f, rows, n)

    solver = Factored(f, sparse_columns(f, rows, n))
    assert solver.pivots == oracle_pivots
    in_span = matvec(f, rows, [f.coerce(data.draw(values)) for _ in range(n)])
    anything = tuple(f.coerce(data.draw(values)) for _ in range(m))
    for rhs in (in_span, anything):
        assert solve(solver, f, rhs, n) == A.solve(rhs) == dense_solve(f, rows, n, rhs)

    k = min(m, n)
    block = [tuple(r[:k]) for r in rows[:k]]
    inv = square_map(f, block).inverse()
    assert (None if inv is None else map_rows(inv, k)) == dense_inverse(f, block)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_rref_rows_does_not_depend_on_row_order(data):
    f, rows, _ = data.draw(matrices(sparse_entries, 10))
    rows = sparse_rows(f, rows)
    copies = [dict(r) for r in rows]
    shuffled = data.draw(st.permutations(rows))
    assert rref_rows(f, shuffled) == rref_rows(f, rows)
    assert rows == copies  # the input rows are left alone


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_coset_basis_matches_the_dense_oracle(data):
    """Columns split into mod and sub: the picks are the sub pivots of [mod | sub],
    and a vector's coordinates on them modulo span(mod) are its unique solution
    on [mod pivots | picks], whatever the order of mod."""
    f, rows, n = data.draw(matrices(sparse_entries, 8))
    k = data.draw(st.integers(0, n))
    cols = sparse_columns(f, rows, n)
    picks, project = coset_basis(f, cols[:k], cols[k:])
    _, pivots = dense_rref(f, rows, n)
    assert picks == tuple(p - k for p in pivots if p >= k)
    kept = [p for p in pivots if p < k] + [k + q for q in picks]
    in_span = matvec(f, rows, [f.coerce(data.draw(sparse_entries)) for _ in range(n)])
    anything = tuple(f.coerce(data.draw(sparse_entries)) for _ in range(len(rows)))
    _, reshuffled = coset_basis(f, data.draw(st.permutations(cols[:k])), cols[k:])
    for rhs in (in_span, anything):
        want = dense_solve(f, [[r[p] for p in kept] for r in rows], len(kept), rhs)
        if want is not None:
            want = {q: c for q, c in enumerate(want[len(kept) - len(picks):]) if not f.is_zero(c)}
        assert project(sparse(f, rhs)) == reshuffled(sparse(f, rhs)) == want
    assert project(sparse(f, in_span)) is not None


def test_transpose_of_no_columns_is_no_rows():
    assert transpose({}) == {}
    assert transpose({0: {}, 1: {}}) == {}


def test_transpose_keeps_row_keys_in_first_seen_order():
    cols = {2: {"b": 1, (0, 1): 2}, 0: {"a": 3, "b": 4}, 5: {(0, 1): 5}}
    rows = transpose(cols)
    assert rows == {"b": {2: 1, 0: 4}, (0, 1): {2: 2, 5: 5}, "a": {0: 3}}
    assert list(rows) == ["b", (0, 1), "a"]
    assert [list(row) for row in rows.values()] == [[2, 0], [2, 5], [0]]


@given(cols=st.dictionaries(st.integers(-3, 20), st.dictionaries(
    st.one_of(st.integers(0, 9), st.text(max_size=2), st.tuples(st.integers(0, 3), st.integers(0, 3))),
    st.integers(1, 9), min_size=1, max_size=6), max_size=8))
@settings(max_examples=100, deadline=None)
def test_transpose_twice_gives_back_nonempty_columns(cols):
    assert transpose(transpose(cols)) == cols


# -- inverses read off the transform ------------------------------------------------


@st.composite
def invertible(draw, max_side=6):
    """(field, rows): L * U with a row permutation, L lower triangular with a
    nonzero diagonal and U upper unitriangular, over QQ, GF(2) or GF(10007)."""
    field = draw(st.sampled_from([QQ, GF(2), GF(10007)]))
    k = draw(st.integers(1, max_side))
    nonzero = st.integers(1, 9).map(field.coerce).filter(lambda x: not field.is_zero(x))

    def entry(i, j, diagonal):
        if i == j:
            return draw(nonzero) if diagonal else field.one
        return field.coerce(draw(sparse_entries))
    L = [[entry(i, j, True) if j <= i else field.zero for j in range(k)] for i in range(k)]
    U = [[entry(i, j, False) if j >= i else field.zero for j in range(k)] for i in range(k)]
    rows = [matvec(field, zip(*U), r) for r in L]
    return field, draw(st.permutations(rows))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_inverse_is_read_off_the_transform(data):
    f, rows = data.draw(invertible())
    k = len(rows)
    inv = square_map(f, rows).inverse()
    assert map_rows(inv, k) == dense_inverse(f, rows)
    solver = Factored(f, sparse_columns(f, rows, k))
    assert inv.cols == {i: solver.solve({i: f.one}) for i in range(k)}
    # repeating the first row in place of the last makes the map singular
    if k > 1:
        singular = [*rows[:-1], rows[0]]
        assert square_map(f, singular).inverse() is None is dense_inverse(f, singular)


def test_inverse_makes_no_solve(monkeypatch):
    solves = []
    real = Factored.solve
    monkeypatch.setattr(Factored, "solve", lambda self, rhs: solves.append(rhs) or real(self, rhs))
    F = GF(10007)
    rows = mat([[2, 1, 0], [0, 1, 5], [3, 0, 1]], F).rows
    inv = square_map(F, rows).inverse()
    assert solves == []
    assert map_rows(inv, 3) == dense_inverse(F, rows)


def test_factored_inverse_needs_as_many_nonzero_rows_as_pivots():
    with pytest.raises(ShapeMismatch):
        Factored(QQ, [{0: QQ.one, 1: QQ.one}]).inverse()
