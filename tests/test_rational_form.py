"""QQ stores integral values as int: the same answers as an all-Fraction field.

Every input runs through ``QQ`` and through ``FRACTION_QQ``, the rational
field as it was when every value was a ``Fraction``.  The outputs must be
equal (``int`` and ``Fraction`` compare equal and print alike, so canonical
JSON and violation texts are compared as text), and every QQ value the
package hands back must be in normal form: an ``int`` that is not a ``bool``,
or a ``Fraction`` with denominator > 1.
"""
from fractions import Fraction

from dense_oracle import FRACTION_QQ
from hypothesis import given, settings, strategies as st

from dgbr.catalog import generators
from dgbr.dg import DgAlgebra, homology, kernel_subalgebra, tensor_product, validate_structure
from dgbr.fields import QQ
from dgbr.formats import serialize_algebra
from dgbr.linalg import Factored, Matrix, rref_rows

FIELDS = (QQ, FRACTION_QQ)
_GENS = {f: [A for _, A in generators(f)] for f in FIELDS}
_DIMS = [A.dim for A in _GENS[QQ]]

rationals = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
nonzero = rationals.filter(bool)


def _is_normal(v) -> bool:
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def _assert_normal(values):
    bad = [v for v in values if not _is_normal(v)]
    assert not bad, bad


def _algebra_values(A):
    yield from A.unit.values()
    for cols in (A.table, A.dcols):
        for col in cols.values():
            yield from col.values()


# -- field arithmetic ----------------------------------------------------------------


@given(a=rationals, b=rationals)
@settings(deadline=None, derandomize=True, max_examples=300)
def test_arithmetic_matches_the_fraction_field(a, b):
    out = {}
    for f in FIELDS:
        x, y = f.coerce(a), f.coerce(b)
        res = [x, f.parse(str(a)), f.add(x, y), f.sub(x, y), f.mul(x, y), f.neg(x)]
        if b:
            res.append(f.inv(y))
        out[f] = res
    assert out[QQ] == out[FRACTION_QQ]
    assert [QQ.format(v) for v in out[QQ]] == [FRACTION_QQ.format(v) for v in out[FRACTION_QQ]]
    _assert_normal(out[QQ])


def test_zero_and_one_are_ints():
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1
    assert type(QQ.coerce(Fraction(6, 3))) is int
    assert type(QQ.parse("-8/4")) is int
    assert type(QQ.inv(QQ.coerce(Fraction(1, 3)))) is int
    assert QQ.inv(QQ.coerce(-2)) == Fraction(-1, 2)


# -- elimination ---------------------------------------------------------------------


@st.composite
def linear_systems(draw):
    """A small matrix with many zeros, and a right-hand side that is either
    random or the image of a random vector (so both verdicts occur)."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.just(0), rationals)
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        x = [draw(rationals) for _ in range(n)]
        rhs = [sum((Fraction(a) * b for a, b in zip(r, x)), Fraction(0)) for r in rows]
    else:
        rhs = [draw(rationals) for _ in range(m)]
    return rows, rhs


@given(system=linear_systems())
@settings(deadline=None, derandomize=True, max_examples=200)
def test_rref_and_factored_solve_match_the_fraction_field(system):
    rows, rhs = system
    out = {}
    for f in FIELDS:
        M = Matrix(f, rows)
        reduced, pivots = rref_rows(f, M._sparse_rows())
        cols = [{i: x for i, x in enumerate(col) if x} for col in M.columns()]
        sol = Factored(f, cols).solve({i: f.coerce(b) for i, b in enumerate(rhs)})
        out[f] = (reduced, pivots, sol)
    assert out[QQ] == out[FRACTION_QQ]
    reduced, _, sol = out[QQ]
    _assert_normal([v for row in reduced for v in row.values()])
    _assert_normal((sol or {}).values())


# -- algebras ------------------------------------------------------------------------


def _rescale(A, scales):
    """A in the basis c_i * e_i: same algebra, non-integral structure constants."""
    f = A.field
    c = [f.coerce(s) for s in scales]
    ic = [f.inv(x) for x in c]
    mul = f.mul
    table = {(i, j): {k: mul(mul(c[i], c[j]), mul(t, ic[k])) for k, t in col.items()}
             for (i, j), col in A.table.items()}
    dcols = {i: {k: mul(c[i], mul(t, ic[k])) for k, t in col.items()}
             for i, col in A.dcols.items()}
    unit = {k: mul(u, ic[k]) for k, u in A.unit.items()}
    return DgAlgebra.build(f, A.space, unit, table, dcols)


@st.composite
def algebra_specs(draw):
    """A catalog algebra or a tensor product of two (dim <= 36), optionally in
    a rescaled basis, plus up to three changed product coefficients."""
    a = draw(st.integers(0, len(_DIMS) - 1))
    b = draw(st.one_of(st.none(), st.integers(0, len(_DIMS) - 1)))
    if b is not None and _DIMS[a] * _DIMS[b] > 36:
        b = None
    dim = _DIMS[a] * (_DIMS[b] if b is not None else 1)
    scales = draw(st.one_of(st.none(), st.lists(nonzero, min_size=dim, max_size=dim)))
    edits = draw(st.lists(
        st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                  st.integers(0, dim - 1), rationals),
        max_size=3))
    return a, b, scales, edits


def _build(f, spec):
    a, b, scales, _ = spec
    A = _GENS[f][a]
    if b is not None:
        A = tensor_product(A, _GENS[f][b])
    if scales is not None:
        A = _rescale(A, scales)
    return A


@given(spec=algebra_specs())
@settings(deadline=None, derandomize=True, max_examples=60)
def test_algebras_homology_and_kernels_match_the_fraction_field(spec):
    out = {}
    for f in FIELDS:
        A = _build(f, spec)
        H = homology(A)
        K = kernel_subalgebra(A).algebra
        out[f] = (serialize_algebra(A), H.space.dims, K.space.dims,
                  serialize_algebra(H), serialize_algebra(K))
        if f is QQ:
            for B in (A, H, K):
                _assert_normal(_algebra_values(B))
    assert out[QQ] == out[FRACTION_QQ]


@given(spec=algebra_specs())
@settings(deadline=None, derandomize=True, max_examples=60)
def test_violation_lists_on_perturbed_tables_match_the_fraction_field(spec):
    out = {}
    for f in FIELDS:
        A = _build(f, spec)
        table = {k: dict(v) for k, v in A.table.items()}
        for i, j, k, c in spec[3]:
            col = table.setdefault((i, j), {})
            col[k] = f.coerce(c)
            if f.is_zero(col[k]):
                del col[k]
        table = {key: col for key, col in table.items() if col}
        out[f] = validate_structure(f, A.space, A.unit, table, A.dcols)
    assert out[QQ] == out[FRACTION_QQ]
