"""Hom complexes, endomorphism dg-algebras, and the algebra-linear variant."""
import itertools

import pytest
from dense_oracle import looped_algebra_linear_hom

from dgbr.catalog import generators, mat2_inner
from dgbr.dg import DgModule, KComplex, ksign, tensor_product
from dgbr.errors import ShapeMismatch, ValidationError
from dgbr.fields import GF, QQ
from dgbr.graded import GradedVectorSpace, HomogeneousMap
from dgbr.homs import end_dg_algebra, hom_complex, hom_differential, hom_of_complexes


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
    # d_Hom(f) = d o f - (-1)^{|f|} f o d, computed two ways
    L = two_step()
    H = hom_of_complexes(L, L)
    C = H.complex()
    for t in range(H.space.total_dim):
        f = H.basis_map(t)
        direct = hom_differential(H, f)
        via_units = H.to_map(C.d_apply({t: QQ.one}))
        assert direct == via_units


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


def test_to_map_from_map_roundtrip():
    L = two_step()
    H = hom_of_complexes(L, L)
    coeffs = {0: QQ.coerce(2), 3: QQ.neg(QQ.one)}
    lm = H.to_map(coeffs)
    assert H.from_map(lm) == coeffs
    assert H.to_map(H.from_map(lm)) == lm


def test_from_map_rejects_a_map_between_other_spaces():
    H = hom_of_complexes(two_step(), two_step())
    A = mat2_inner(QQ)
    with pytest.raises(ShapeMismatch):
        H.from_map(HomogeneousMap.identity(QQ, A.space))


def test_algebra_linear_hom_of_regular_module():
    # right-linear endomorphisms of the regular module are left multiplications
    A = mat2_inner(QQ)
    M = DgModule.regular(A)
    H = hom_complex(M, M, linearity="algebra-linear")
    assert dict(H.space.dims) == dict(A.space.dims)
    # each solution really is right-linear
    one = QQ.one
    for t in range(H.space.total_dim):
        f = H.basis_map(t)
        for m in range(A.dim):
            for a in range(A.dim):
                lhs = f.apply_flat(M.act({m: one}, {a: one}))
                rhs = M.act(f.apply_flat({m: one}), {a: one})
                assert lhs == rhs


def test_algebra_linear_differential_closes():
    A = mat2_inner(QQ)
    M = DgModule.regular(A)
    H = hom_complex(M, M, linearity="algebra-linear")
    C = H.complex()  # raises if d leaves the solution space
    for i, col in C.dcols.items():
        for j in col:
            assert C.space.degree_of(j) == C.space.degree_of(i) + 1


def test_base_field_hom_flavor_matches_full_space():
    A = mat2_inner(QQ)
    M = DgModule.regular(A)
    H = hom_complex(M, M, linearity="base-field")
    assert H.space.total_dim == A.dim * A.dim


def test_hom_differential_leibniz_for_composition():
    L = two_step()
    H = hom_of_complexes(L, L)
    one = QQ.one
    for s in range(H.space.total_dim):
        for t in range(H.space.total_dim):
            f = H.basis_map(s)
            g = H.basis_map(t)
            lhs = hom_differential(H, f.compose(g))
            # d(fg) = d(f) g + (-1)^{|f|} f d(g)
            part = f.compose(hom_differential(H, g))
            if ksign(H.space.degree_of(s), 1) < 0:
                part = -part
            assert lhs == hom_differential(H, f).compose(g) + part


def _hom_modules(field):
    """Regular and left-regular modules of the catalog generators and of their
    pairwise tensor products up to dimension 18."""
    gens = [A for _, A in generators(field)]
    algebras = gens + [tensor_product(A, B) for A, B in itertools.combinations_with_replacement(gens, 2)
                       if A.dim * B.dim <= 18]
    return [M for A in algebras for M in (DgModule.regular(A), DgModule.left_regular_as_op(A))]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_algebra_linear_hom_matches_the_looped_oracle(field):
    """Space, labels, solution coordinates and d, entry for entry."""
    for M in _hom_modules(field):
        H = hom_complex(M, M, "algebra-linear")
        space, coords, dcols = looped_algebra_linear_hom(M, M)
        assert H.space == space and H.space.all_labels() == space.all_labels()
        assert H.coords == coords
        assert H.dcols == dcols
