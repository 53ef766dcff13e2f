"""Good gradings on matrix algebras and inner differentials."""
import itertools
import random

import pytest

from dgbr.brauer import verify_dg_iso
from dgbr.catalog import random_complex
from dgbr.dg import DgAlgebra, KComplex, homology
from dgbr.errors import ShapeMismatch, ValidationError
from dgbr.fields import GF, QQ
from dgbr.graded import GradedVectorSpace, HomogeneousMap
from dgbr.homs import end_dg_algebra
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
    # |e_ij| + |e_jk| = |e_ik| on both triangles
    g = GoodGrading(4, (2, -1, 3))
    assert [g.degree(1, j) for j in range(1, 5)] == [0, 2, 1, 4]
    for i, j, k in itertools.product(range(1, 5), repeat=3):
        assert g.degree(i, j) + g.degree(j, k) == g.degree(i, k)
    with pytest.raises(ShapeMismatch, match=r"unit index \(0,2\) out of range for size 4"):
        g.degree(0, 2)


def test_good_grading_rejects_bad_shape():
    with pytest.raises(ShapeMismatch):
        GoodGrading(3, (1,))
    with pytest.raises(ShapeMismatch):
        GoodGrading(0, ())


@pytest.mark.parametrize("bad", [1.5, "2", None, True])
def test_good_grading_takes_only_integer_degrees(bad):
    with pytest.raises(ShapeMismatch, match=f"superdiagonal degree must be an integer, got {bad!r}"):
        GoodGrading(3, (1, bad))
    with pytest.raises(ShapeMismatch):
        good_grading_matrix_algebra(QQ, 2, (bad,))


@pytest.mark.parametrize("bad", [2.0, 1.5, "2", None, True])
def test_sizes_and_bounds_take_only_integers(bad):
    for build in (lambda: GoodGrading(bad, (1,)), lambda: good_grading_matrix_algebra(QQ, bad, (1,)),
                  lambda: good_grading_matrix_algebra(QQ, bad), lambda: enumerate_good_gradings(bad, 1)):
        with pytest.raises(ShapeMismatch, match=f"matrix size must be an integer, got {bad!r}"):
            build()
    with pytest.raises(ShapeMismatch, match=f"bound must be an integer, got {bad!r}"):
        enumerate_good_gradings(2, bad)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2", None])
def test_unit_indices_take_only_integers(bad):
    g = GoodGrading(3, (1, 0))
    for call in (lambda: g.degree(bad, 2), lambda: g.degree(1, bad)):
        with pytest.raises(ShapeMismatch, match=f"unit index must be an integer, got {bad!r}"):
            call()


@pytest.mark.parametrize("n", [0, -2])
def test_enumerating_gradings_of_no_matrix_size_is_a_shape_mismatch(n):
    with pytest.raises(ShapeMismatch, match="matrix size must be at least 1"):
        enumerate_good_gradings(n, 1)


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


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_cycle_hint_is_minimal_and_each_arc_is_needed(field):
    """Mat_n and End(C) for dim C = m are certified from a cycle of n (or m)
    matrix units, the fewest that generate.  Without any one arc the words
    miss some unit, so the hint is not certified and is dropped, and the
    complete check still passes.  Mat_1 and End of a line have an empty
    hint, which certifies nothing."""
    rng = random.Random(5)
    complexes = [random_complex(rng, field, max_total=6) for _ in range(12)]
    ends = [end_dg_algebra(C) for C in complexes if C.space.total_dim > 1]
    assert sorted({C.space.total_dim for C in complexes}) == [1, 2, 3, 4, 5, 6]
    mats = [good_grading_matrix_algebra(field, n, (1,) * (n - 1)) for n in range(2, 7)]
    for A in mats + ends:
        m = round(A.dim ** 0.5)
        cycle = A.generators
        assert cycle is not None
        assert len({i for s in cycle for i in s}) == len(cycle) == m
        for r in range(m):
            B = DgAlgebra.build(A.field, A.space, A.unit, A.table, A.dcols,
                                generators=cycle[:r] + cycle[r + 1:])
            assert B.generators is None and B.validate() == []

    one_dim = [good_grading_matrix_algebra(field, 1),
               end_dg_algebra(random_complex(rng, field, max_total=1))]
    assert [A.generators for A in one_dim] == [None, None]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_good_gradings_are_end_of_a_graded_space(field):
    """With P_i = f_1 + ... + f_{i-1} and v_i of degree -P_i, e_ij -> (v_j -> v_i)
    is an isomorphism from the good-graded Mat_n onto End(V), d = 0."""
    for n in range(1, 5):
        for g in enumerate_good_gradings(n, 1):
            M = good_grading_matrix_algebra(field, n, g.f)
            space, keys = GradedVectorSpace.numbered(
                "v", [(-sum(g.f[:i - 1]), i) for i in range(1, n + 1)])
            pos = {i: t for t, i in enumerate(keys)}
            E = end_dg_algebra(KComplex(field, space, {}))
            cols = {t: {E.hom.unit_index[(pos[j], pos[i])]: field.one}
                    for t, (i, j) in enumerate((int(l[1]), int(l[2])) for l in M.space.all_labels())}
            assert verify_dg_iso(M, E, HomogeneousMap(field, M.space, E.space, 0, cols)).verified, g.f
