"""Constructors that skip the coercion of ``DgAlgebra.build`` build what it would.

``tensor_product``, ``opposite``, ``kernel_subalgebra``, ``homology``,
``good_grading_matrix_algebra``, ``end_dg_algebra`` and ``inner_differential``
hand their own tables straight to validation.  Each result must equal the
algebra ``build`` makes from the same unit, table, d and hint, and its data
must already be what ``clean_coeffs`` returns.  ``graded.apply``, which now
starts each sum from a copy of a column, is checked against dense products.
"""
import copy
import random

import pytest
from dense_oracle import FRACTION_QQ, _dense_matrix, _dense_product
from hypothesis import given, settings, strategies as st

from dgbr import brauer, catalog, dg
from dgbr.brauer import equivalence_sides, structure_realize, verify_dg_iso
from dgbr.catalog import generators, mat2_inner, neutral, random_algebra, unit_equivalence_witness
from dgbr.dg import DgAlgebra, KComplex, homology, kernel_subalgebra, opposite, tensor_product
from dgbr.fields import GF, QQ
from dgbr.graded import apply, clean_coeffs, clean_columns, operators
from dgbr.homs import end_dg_algebra
from dgbr.matrix_algebras import good_grading_matrix_algebra, inner_differential

FIELDS = [QQ, GF(2), GF(7)]


def _unchanged(vec, cleaned):
    # equal values of the same types in the same order
    assert cleaned == vec and repr(cleaned) == repr(vec)


def assert_as_built(X):
    """X's data and kept hint are clean, and ``build`` on it gives X again, hint alike."""
    f, n = X.field, X.dim
    _unchanged(X.unit, clean_coeffs(f, X.unit, n, "unit index"))
    for out in X.table.values():
        _unchanged(out, clean_coeffs(f, out, n, "product row"))
    _unchanged(X.dcols, clean_columns(f, X.dcols, n, n, "differential"))
    Y = DgAlgebra.build(f, X.space, X.unit, X.table, X.dcols, hom=X.hom, generators=X.generators)
    assert Y == X
    assert Y.generators == X.generators  # certified on both, or None on both
    for s in X.generators or ():  # nonempty and homogeneous, of field values
        assert s and len({X.degree_of(i) for i in s}) == 1
        _unchanged(s, clean_coeffs(f, s, n, "generator index"))
    assert (X.left, X.right) == operators(X.table)


def assert_constructions_as_built(A, B):
    """Every constructor that skips the coercion, on A (and B for the tensor product)."""
    for X in (A, opposite(A), tensor_product(A, B), tensor_product(B, A),
              kernel_subalgebra(A).algebra, homology(A), end_dg_algebra(A.complex())):
        assert_as_built(X)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_catalog_generators_build_as_build_would(field):
    pool = [A for _, A in generators(field)]
    for A in pool:
        assert_constructions_as_built(A, pool[1])  # the dual numbers


@given(field=st.sampled_from(FIELDS), seed=st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_random_algebras_build_as_build_would(field, seed):
    rng = random.Random(seed)
    A = random_algebra(rng, field)
    assert_constructions_as_built(A, random_algebra(rng, field))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("f", [(1,), (1, 0), (1, -1), (1, 0, 1), (1, 1, -1)])
def test_good_graded_matrix_algebras_build_as_build_would(field, f):
    """Good-graded Mat_2 - Mat_4 and their inner differential d = [e12, -]."""
    M = good_grading_matrix_algebra(field, len(f) + 1, f)
    assert_as_built(M)
    A = inner_differential(M, M.element({"e12": 1}))
    assert A.dcols
    assert_as_built(A)
    assert_constructions_as_built(A, mat2_inner(field))


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_unit_equivalence_witness_builds_only_end_of_the_point(field, monkeypatch):
    """End(L) is the verified target of the structure witness, not built again;
    the sides and checks are those of ``equivalence_sides``."""
    A = mat2_inner(field)
    sr = structure_realize(A)
    built = []

    def spy(C):
        built.append(C)
        return end_dg_algebra(C)

    for module in (catalog, brauer):
        monkeypatch.setattr(module, "end_dg_algebra", spy)
    w = unit_equivalence_witness(A, sr)
    assert built == [KComplex.point(field)]
    monkeypatch.undo()

    T1, T2 = equivalence_sides(A, neutral(field), KComplex.point(field), sr.L)
    assert (w.source, w.target) == (T1, T2)
    assert (w.target.generators is None) == (T2.generators is None)
    assert w.checks == verify_dg_iso(T1, T2, w.map).checks and w.verified


def _random_cols(rng, field, n_in, n_out):
    cols = {}
    for j in range(n_in):
        col = clean_coeffs(field, {i: rng.randint(-3, 3) for i in range(n_out) if rng.random() < 0.6},
                           n_out, "row")
        if col and rng.random() < 0.8:  # some columns absent
            cols[j] = col
    return cols


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7), FRACTION_QQ], ids=repr)
def test_apply_matches_the_dense_product_and_returns_a_new_dict(field):
    rng = random.Random(7)
    one = field.one
    other = [c for c in (field.coerce(x) for x in (2, 3, -1, 5)) if not field.is_zero(c) and c != one]
    n_in, n_out = 5, 4
    for _ in range(30):
        cols = _random_cols(rng, field, n_in, n_out)
        present = sorted(cols) or [0]
        terms = rng.sample(range(n_in), rng.randint(2, n_in))
        cases = [
            {present[0]: one},  # one term, coefficient one
            {t: one for t in terms},  # several terms, all one
            {terms[0]: field.zero, **{t: one for t in terms[1:]}},  # a zero coefficient first
        ]
        if other:  # GF(2) has no coefficient other than zero and one
            cases += [
                {present[0]: rng.choice(other)},  # one term, coefficient not one
                {t: rng.choice([one, *other]) for t in terms},  # several terms, mixed
            ]
        dense = _dense_matrix(field, cols, n_out, n_in)
        for u in cases:
            column = _dense_product(field, dense, [[u.get(j, field.zero)] for j in range(n_in)])
            want = {r: row[0] for r, row in enumerate(column) if not field.is_zero(row[0])}
            before = copy.deepcopy(cols)
            got = apply(field, cols, u)
            assert got == want
            got.clear()
            assert cols == before


def test_each_algebra_forms_its_operators_once(monkeypatch):
    """Validation forms the operators of every algebra built, and nothing forms
    them again: central simplicity, the structure and unit-equivalence witnesses
    of Mat_3 and Mat_4 with d = [e12, -], and the sandwich of Mat_3, make one
    ``operators`` call per algebra they build."""
    built, formed = [], []
    operators_, checked = dg.operators, DgAlgebra._checked.__func__

    def operators_spy(table):
        formed.append(table)
        return operators_(table)

    def checked_spy(cls, *args, **kwargs):
        built.append(checked(cls, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(dg, "operators", operators_spy)
    monkeypatch.setattr(DgAlgebra, "_checked", classmethod(checked_spy))
    f = GF(10007)
    for n in (3, 4):
        M = good_grading_matrix_algebra(f, n, (1,) * (n - 1))
        A = inner_differential(M, M.element({"e12": 1}))
        assert brauer.is_central_simple(A)
        unit_equivalence_witness(A, structure_realize(A))
        if n == 3:
            assert brauer.sandwich_iso(A).verified
    assert len(built) > 8
    assert len(formed) == len(built)
    assert all(X.table is table for X, table in zip(built, formed))
