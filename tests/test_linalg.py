from fractions import Fraction

import pytest
from dense_oracle import dense_inverse, dense_kernel_basis, dense_rref, dense_solve
from hypothesis import given, settings, strategies as st

from dgbr.errors import ShapeMismatch
from dgbr.fields import GF, QQ
from dgbr.linalg import Factored, Matrix, kernel_columns, rref_rows


def mat(rows, field=QQ):
    return Matrix(field, [[field.coerce(x) for x in r] for r in rows])


def sparse(field, vec) -> dict:
    return {i: x for i, x in enumerate(vec) if not field.is_zero(x)}


def factored(A: Matrix) -> Factored:
    """The sparse solver over the columns of A."""
    return Factored(A.field, [sparse(A.field, col) for col in A.columns()])


def solve(solver: Factored, A: Matrix, rhs):
    """``solver.solve`` on a dense rhs, densified back like ``Matrix.solve``."""
    sol = solver.solve(sparse(A.field, rhs))
    return None if sol is None else tuple(sol.get(j, A.field.zero) for j in range(A.ncols))


def test_rref_and_rank():
    m = mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    R, pivots = m.rref()
    assert pivots == (0, 1)
    assert m.rank() == 2
    # pivot columns are cleared above and below
    assert R.rows[0][0] == 1 and R.rows[1][1] == 1
    assert R.rows[0][1] == 0


def test_kernel_basis_exact():
    m = mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    ker = m.kernel_basis()
    assert len(ker) == 1
    (v,) = ker
    assert v[2] == 1  # free variable set to one
    for row in m.rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_kernel_of_injective_map_is_empty():
    assert mat([[1, 0], [0, 1], [3, 7]]).kernel_basis() == []


def test_zero_row_matrix_with_ncols_hint():
    m = Matrix(QQ, [], ncols=3)
    assert m.rank() == 0
    assert len(m.kernel_basis()) == 3


def test_solve_particular_and_inconsistent():
    m = mat([[1, 1], [0, 1]])
    sol = m.solve((Fraction(3), Fraction(1)))
    assert sol == (Fraction(2), Fraction(1))
    m2 = mat([[1, 1], [2, 2]])
    assert m2.solve((Fraction(1), Fraction(3))) is None


def test_solve_picks_canonical_solution():
    # underdetermined: free variables stay zero
    m = mat([[1, 1, 1]])
    assert m.solve((Fraction(5),)) == (Fraction(5), Fraction(0), Fraction(0))


def test_inverse():
    m = mat([[2, 1], [1, 1]])
    inv = m.inverse()
    assert inv.rows[0] == (Fraction(1), Fraction(-1))
    assert mat([[1, 2], [2, 4]]).inverse() is None


def test_prime_field_elimination():
    F = GF(5)
    assert mat([[2, 1], [3, 4]], F).rank() == 1  # det = 5 = 0 here
    m = mat([[2, 1], [3, 3]], F)
    assert m.rank() == 2
    inv = m.inverse()
    prod = [
        [sum(m.rows[i][k] * inv.rows[k][j] for k in range(2)) % 5 for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]


def test_from_columns_shape_checks():
    cols = [(Fraction(1), Fraction(0)), (Fraction(2), Fraction(1))]
    m = Matrix.from_columns(QQ, cols, 2)
    assert m.column(1) == (Fraction(2), Fraction(1))
    with pytest.raises(ShapeMismatch):
        Matrix.from_columns(QQ, [(Fraction(1),)], 2)


def test_column_space_pivots():
    m = mat([[1, 2, 0], [2, 4, 1]])
    assert m.column_space_pivots() == (0, 2)


def test_hstack():
    a = mat([[1], [0]])
    b = mat([[0], [1]])
    assert a.hstack(b).rank() == 2


# -- the factored solver against the one-shot oracle ------------------------------

entries = st.integers(-3, 3)
# mostly zero, like the structure matrices built from matrix units
sparse_entries = st.sampled_from((0,) * 8 + (1, -1, 2, 3))


@st.composite
def matrices(draw, values=entries, max_side=6):
    """A matrix over QQ or GF(7), often rank deficient, possibly with 0 rows or columns."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    m, n = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))

    def rand(rows, cols):
        return Matrix(field, [[draw(values) for _ in range(cols)] for _ in range(rows)],
                      ncols=cols)

    if draw(st.booleans()):
        k = draw(st.integers(0, min(m, n)))  # rank at most k
        return rand(m, k) * rand(k, n)
    return rand(m, n)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_factored_solve_matches_one_shot_solve(data):
    A = data.draw(matrices())
    f = A.field
    solver = factored(A)
    x = [f.coerce(data.draw(entries)) for _ in range(A.ncols)]
    in_span = A.apply(x)
    anything = tuple(f.coerce(data.draw(entries)) for _ in range(A.nrows))
    assert solve(solver, A, in_span) == A.solve(in_span)
    assert solve(solver, A, in_span) is not None
    assert solve(solver, A, anything) == A.solve(anything)
    assert solver.pivots == A.column_space_pivots()


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_factored_solve_on_empty_shapes(field, shape):
    m, n = shape
    A = Matrix.zeros(field, m, n)
    solver = factored(A)
    zero = (field.zero,) * m
    assert solve(solver, A, zero) == A.solve(zero) == (field.zero,) * n
    if m:
        b = (field.one,) + (field.zero,) * (m - 1)
        assert solver.solve(sparse(field, b)) is None and A.solve(b) is None


def test_factored_solve_treats_keys_in_no_column_as_zero_rows():
    solver = Factored(QQ, [{"x": QQ.one}, {"x": QQ.coerce(2), ("y", 1): QQ.one}])
    assert solver.solve({"x": QQ.coerce(3)}) == {0: QQ.coerce(3)}
    assert solver.solve({"x": QQ.one, ("y", 1): QQ.one}) == {0: QQ.coerce(-1), 1: QQ.one}
    assert solver.solve({"x": QQ.one, "z": QQ.one}) is None
    assert solver.solve({"z": QQ.zero}) == {}


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_raw_constructor_equals_coercing_constructor(data):
    field = data.draw(st.sampled_from([QQ, GF(7)]))
    m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    rows = [[field.coerce(data.draw(entries)) for _ in range(n)] for _ in range(m)]
    raw, checked = Matrix._raw(field, rows, n), Matrix(field, rows, ncols=n)
    assert raw == checked
    assert hash(raw) == hash(checked)
    assert raw.shape == checked.shape == (m, n)


def test_kernel_basis_and_pivots_from_one_rref():
    m = mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert m.kernel_basis_and_pivots() == (m.kernel_basis(), m.column_space_pivots())


def test_operations_reject_mixed_fields():
    a, b = mat([[1]]), mat([[1]], GF(7))
    with pytest.raises(ShapeMismatch):
        a.hstack(b)
    with pytest.raises(ShapeMismatch):
        a * b


# -- the sparse elimination kernel against the dense Gauss-Jordan oracle ----------


@pytest.mark.parametrize("values, max_side", [(entries, 6), (sparse_entries, 10)],
                         ids=["dense", "sparse"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_elimination_matches_the_dense_oracle(data, values, max_side):
    A = data.draw(matrices(values, max_side))
    f, m, n = A.field, A.nrows, A.ncols
    R, pivots = A.rref()
    oracle, oracle_pivots = dense_rref(f, A.rows, n)
    assert R.rows == tuple(oracle) and pivots == oracle_pivots
    assert A.rank() == len(oracle_pivots)
    assert A.column_space_pivots() == oracle_pivots
    assert A.kernel_basis_and_pivots() == dense_kernel_basis(f, A.rows, n)

    basis, pivots = kernel_columns(f, dict(enumerate(sparse(f, col) for col in A.columns())), n)
    assert ([tuple(v.get(j, f.zero) for j in range(n)) for v in basis.values()], pivots) == \
        dense_kernel_basis(f, A.rows, n)

    solver = factored(A)
    assert solver.pivots == oracle_pivots
    in_span = A.apply([f.coerce(data.draw(values)) for _ in range(n)])
    anything = tuple(f.coerce(data.draw(values)) for _ in range(m))
    for rhs in (in_span, anything):
        assert solve(solver, A, rhs) == A.solve(rhs) == dense_solve(f, A.rows, n, rhs)

    k = min(m, n)
    block = [r[:k] for r in A.rows[:k]]
    inv = Matrix._raw(f, block, k).inverse()
    assert (None if inv is None else inv.rows) == dense_inverse(f, block)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_rref_rows_does_not_depend_on_row_order(data):
    A = data.draw(matrices(sparse_entries, 10))
    rows = [{j: x for j, x in enumerate(r) if not A.field.is_zero(x)} for r in A.rows]
    copies = [dict(r) for r in rows]
    shuffled = data.draw(st.permutations(rows))
    assert rref_rows(A.field, shuffled) == rref_rows(A.field, rows)
    assert rows == copies  # the input rows are left alone
