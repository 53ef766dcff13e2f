"""Hom complexes of complexes, and endomorphism dg-algebras."""
import random

import pytest
from dense_oracle import dense_hom_differential

from dgbr.catalog import mat2_inner, random_complex
from dgbr.dg import KComplex, validate_structure
from dgbr.errors import ShapeMismatch
from dgbr.fields import GF, QQ
from dgbr.graded import GradedVectorSpace, HomogeneousMap
from dgbr.homs import end_dg_algebra, hom_of_complexes


def two_step(field=QQ):
    # a in degree -1, b in degree 0, d(a) = b
    space = GradedVectorSpace({-1: 1, 0: 1}, {-1: ("a",), 0: ("b",)})
    return KComplex(field, space, {0: {1: field.one}})


def test_hom_space_dims_and_unit_order():
    L = two_step()
    H = hom_of_complexes(L, L)
    assert dict(H.space.dims) == {-1: 1, 0: 2, 1: 1}
    labels = H.space.all_labels()
    assert labels == ("b>a", "a>a", "b>b", "a>b")


def test_hom_differential_frozen_table():
    L = two_step()
    H = hom_of_complexes(L, L)
    lbl = {H.space.label_of(i): i for i in range(H.space.total_dim)}
    C = H.complex()

    def d_of(name):
        return {
            H.space.label_of(i): QQ.format(c)
            for i, c in C.d_apply({lbl[name]: QQ.one}).items()
        }

    assert d_of("b>a") == {"a>a": "1", "b>b": "1"}
    assert d_of("a>a") == {"a>b": "1"}
    assert d_of("b>b") == {"a>b": "-1"}
    assert d_of("a>b") == {}


def test_hom_differential_formula_agrees():
    # d(f) = d o f - (-1)^{|f|} f o d on every unit, for seeded pairs of complexes
    rng = random.Random(5)
    for field in (QQ, GF(2), GF(7)):
        pairs = [(two_step(field), two_step(field))] + [
            (random_complex(rng, field, max_total=4), random_complex(rng, field, max_total=4))
            for _ in range(25)]
        for C, D in pairs:
            H = hom_of_complexes(C, D)
            assert H.dcols == dense_hom_differential(H)


def test_end_algebra_composition_and_unit():
    L = two_step()
    E = end_dg_algebra(L)
    assert E.validate() == []
    lbl = {E.label_of(i): i for i in range(E.dim)}
    one = QQ.one
    # (a>b) after (b>a) factors through b, landing on b>b
    assert E.mul({lbl["a>b"]: one}, {lbl["b>a"]: one}) == {lbl["b>b"]: one}
    assert E.mul({lbl["b>a"]: one}, {lbl["a>b"]: one}) == {lbl["a>a"]: one}
    # inner source/target mismatch composes to zero
    assert E.mul({lbl["a>a"]: one}, {lbl["a>b"]: one}) == {}
    ident = E.unit
    assert {E.label_of(i) for i in ident} == {"a>a", "b>b"}


def test_end_of_mat2_walkthrough_dims():
    A = mat2_inner(QQ)
    E = end_dg_algebra(KComplex.from_algebra(A))
    assert E.dim == 16
    assert dict(E.space.dims) == {-2: 1, -1: 4, 0: 6, 1: 4, 2: 1}


def test_end_rejects_zero_complex():
    with pytest.raises(ShapeMismatch):
        end_dg_algebra(KComplex(QQ, GradedVectorSpace({}), {}))


def test_hom_between_different_complexes():
    L = two_step()
    P = KComplex.point(QQ)
    H = hom_of_complexes(L, P)
    assert dict(H.space.dims) == {0: 1, 1: 1}
    H2 = hom_of_complexes(P, L)
    assert dict(H2.space.dims) == {-1: 1, 0: 1}


def test_hom_rejects_field_mismatch():
    with pytest.raises(ShapeMismatch):
        hom_of_complexes(two_step(QQ), two_step(GF(2)))


def test_from_map_reads_unit_coordinates():
    L = two_step()
    H = hom_of_complexes(L, L)
    two, minus = QQ.coerce(2), QQ.neg(QQ.one)
    lm = HomogeneousMap(QQ, L.space, L.space, 1, {0: {1: two}})
    assert H.from_map(lm) == {H.unit_index[(0, 1)]: two}
    assert H.from_map(HomogeneousMap.identity(QQ, L.space) + HomogeneousMap(
        QQ, L.space, L.space, 0, {1: {1: minus}})) == {H.unit_index[(0, 0)]: QQ.one}


def test_from_map_rejects_a_map_between_other_spaces():
    H = hom_of_complexes(two_step(), two_step())
    A = mat2_inner(QQ)
    with pytest.raises(ShapeMismatch):
        H.from_map(HomogeneousMap.identity(QQ, A.space))


def test_base_field_hom_flavor_matches_full_space():
    A = mat2_inner(QQ)
    H = hom_of_complexes(A.complex(), A.complex())
    assert H.space.total_dim == A.dim * A.dim


def test_hom_differential_leibniz_for_composition():
    # the complete check, with no generator hint: associativity, unit, d^2 = 0
    # and d(fg) = d(f) g + (-1)^{|f|} f d(g) on every basis tuple of End(C)
    rng = random.Random(9)
    for field in (QQ, GF(2), GF(7)):
        for C in [two_step(field)] + [random_complex(rng, field, max_total=4) for _ in range(15)]:
            E = end_dg_algebra(C)
            assert validate_structure(field, E.space, E.unit, E.table, E.dcols) == []
