"""Good gradings on matrix algebras and inner differentials."""
import pytest

from dgbr.dg import homology
from dgbr.errors import ShapeMismatch, ValidationError
from dgbr.fields import GF, QQ
from dgbr.matrix_algebras import (
    GoodGrading,
    enumerate_good_gradings,
    good_grading_matrix_algebra,
    inner_differential,
)


def test_good_grading_degree_rule():
    g = GoodGrading(3, (1, 0))
    assert g.degree(1, 2) == 1
    assert g.degree(2, 3) == 0
    assert g.degree(1, 3) == 1
    assert g.degree(3, 1) == -1
    assert g.degree(2, 2) == 0


def test_good_grading_rejects_bad_shape():
    with pytest.raises(ShapeMismatch):
        GoodGrading(3, (1,))
    with pytest.raises(ShapeMismatch):
        GoodGrading(0, ())


def test_mat3_dims_frozen():
    A = good_grading_matrix_algebra(QQ, 3, (1, 0))
    assert dict(A.space.dims) == {-1: 2, 0: 5, 1: 2}
    by_label = {A.label_of(i): i for i in range(A.dim)}
    assert A.degree_of(by_label["e13"]) == 1
    assert A.degree_of(by_label["e23"]) == 0
    assert A.validate() == []


def test_matrix_units_multiply_by_composition():
    A = good_grading_matrix_algebra(QQ, 3, (1, 1))
    unit = {A.label_of(i): i for i in range(A.dim)}
    one = QQ.one
    assert A.mul({unit["e12"]: one}, {unit["e23"]: one}) == {unit["e13"]: one}
    assert A.mul({unit["e12"]: one}, {unit["e12"]: one}) == {}
    assert A.unit == {unit[f"e{i}{i}"]: one for i in (1, 2, 3)}


def test_trivial_grading_by_default():
    A = good_grading_matrix_algebra(GF(5), 2)
    assert dict(A.space.dims) == {0: 4}


def test_enumerate_good_gradings_count():
    gs = enumerate_good_gradings(3, 1)
    assert len(gs) == 9
    assert len({g.f for g in gs}) == 9
    assert all(isinstance(g, GoodGrading) for g in gs)
    assert len(enumerate_good_gradings(2, 2)) == 5


def test_inner_differential_mat2_frozen_values():
    A = good_grading_matrix_algebra(QQ, 2, (1,))
    D = inner_differential(A, A.element({"e12": 1}))
    by_label = {D.label_of(i): i for i in range(D.dim)}
    one = QQ.one

    def d(lbl):
        return {D.label_of(i): QQ.format(c)
                for i, c in D.d_apply({by_label[lbl]: one}).items()}

    assert d("e11") == {"e12": "-1"}
    assert d("e22") == {"e12": "1"}
    assert d("e21") == {"e11": "1", "e22": "1"}
    assert d("e12") == {}
    assert D.validate() == []
    assert homology(D).space.is_zero()


def test_inner_differential_accepts_coefficient_dict():
    A = good_grading_matrix_algebra(QQ, 2, (1,))
    by_label = {A.label_of(i): i for i in range(A.dim)}
    D = inner_differential(A, {by_label["e12"]: QQ.one})
    assert D.dcols


def test_inner_differential_requires_degree_one():
    A = good_grading_matrix_algebra(QQ, 2, (1,))
    with pytest.raises(ShapeMismatch):
        inner_differential(A, A.element({"e21": 1}))  # degree -1
    with pytest.raises(ShapeMismatch):
        inner_differential(A, A.element({"e12": 1, "e11": 1}))  # mixed degrees


def test_inner_differential_rejects_noncentral_square():
    A = good_grading_matrix_algebra(QQ, 3, (1, 1))
    z = A.element({"e12": 1, "e23": 1})  # z^2 = e13, not central
    with pytest.raises(ValidationError) as err:
        inner_differential(A, z)
    assert any("central" in v.detail for v in err.value.violations)


def test_inner_differential_mat3_square_zero():
    A = good_grading_matrix_algebra(QQ, 3, (1, 1))
    D = inner_differential(A, A.element({"e12": 1}))
    assert D.validate() == []
    # d is the graded commutator with z
    by_label = {D.label_of(i): i for i in range(D.dim)}
    one = QQ.one
    out = D.d_apply({by_label["e21"]: one})
    assert {D.label_of(i): QQ.format(c) for i, c in out.items()} == {
        "e11": "1", "e22": "1"
    }


def test_zero_z_gives_zero_differential():
    A = good_grading_matrix_algebra(QQ, 2, (1,))
    D = inner_differential(A, {})
    assert D.dcols == {}


def test_unit_labels_large_sizes_stay_unambiguous():
    A = good_grading_matrix_algebra(QQ, 10, tuple([0] * 9))
    labels = set(A.space.all_labels())
    assert len(labels) == 100
    assert "e10_10" in labels or "e10,10" in labels or any("10" in l for l in labels)
