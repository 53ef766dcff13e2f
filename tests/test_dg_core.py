"""Core dg-algebra layer: validation, opposites, tensors, homology, kernels."""
import pytest

from dgbr import dg
from dgbr.catalog import dual_numbers, mat2_inner, mat3_inner, neutral, split_pair
from dgbr.dg import (
    DgAlgebra,
    KComplex,
    center,
    contracting_element,
    homology,
    is_semisimple_ungraded,
    is_tgr_semisimple,
    kernel_subalgebra,
    ksign,
    opposite,
    regrade_trivial,
    swap_map,
    tensor_product,
    trivial_dg,
    unsigned_swap_map,
)
from dgbr.errors import ShapeMismatch, ValidationError
from dgbr.fields import GF, QQ
from dgbr.graded import GradedVectorSpace
from dgbr.homs import end_dg_algebra
from dgbr.matrix_algebras import good_grading_matrix_algebra


def coeffs_by_label(A, d):
    return {A.label_of(i): A.field.format(c) for i, c in d.items()}


def test_ksign_parity():
    assert ksign(1, 1) == -1
    assert ksign(-1, -1) == -1
    assert ksign(2, 3) == 1
    assert ksign(-1, 2) == 1
    assert ksign(0, 5) == 1


def test_dual_numbers_validates_and_differential():
    A = dual_numbers(QQ)
    assert A.validate() == []
    assert dict(A.space.dims) == {-1: 1, 0: 1}
    x = {0: QQ.one}  # X sits below the unit in flat order
    assert coeffs_by_label(A, A.d_apply(x)) == {"1": "1"}
    assert A.d_apply(A.d_apply(x)) == {}
    assert A.mul(x, x) == {}


def test_mat2_walkthrough_differential_table():
    A = mat2_inner(QQ)
    by_label = {A.label_of(i): i for i in range(A.dim)}
    d_of = {
        lbl: coeffs_by_label(A, A.d_apply({by_label[lbl]: QQ.one}))
        for lbl in ("e11", "e22", "e21", "e12")
    }
    assert d_of["e11"] == {"e12": "-1"}
    assert d_of["e22"] == {"e12": "1"}
    assert d_of["e21"] == {"e11": "1", "e22": "1"}
    assert d_of["e12"] == {}


def test_validation_catches_broken_unit():
    one = QQ.one
    space = GradedVectorSpace({0: 2})
    # right multiplication by the would-be unit moves b1 to b0
    table = {(0, 0): {0: one}, (1, 1): {1: one}, (0, 1): {1: one}, (1, 0): {0: one}}
    with pytest.raises(ValidationError) as err:
        DgAlgebra.build(QQ, space, {0: one}, table, {})
    assert any(v.axiom == "unit-law" for v in err.value.violations)


def test_validation_catches_inhomogeneous_product():
    one = QQ.one
    space = GradedVectorSpace({0: 1, 1: 1})
    # unit * y lands in the wrong degree on purpose
    table = {(0, 0): {0: one}, (0, 1): {0: one}, (1, 0): {1: one}}
    with pytest.raises(ValidationError) as err:
        DgAlgebra.build(QQ, space, {0: one}, table, {})
    axioms = {v.axiom for v in err.value.violations}
    assert "degree-additivity" in axioms


def test_validation_catches_wrong_d_degree():
    one = QQ.one
    space = GradedVectorSpace({0: 1})
    with pytest.raises(ValidationError) as err:
        DgAlgebra.build(QQ, space, {0: one}, {(0, 0): {0: one}}, {0: {0: one}})
    assert any(v.axiom == "d-degree" for v in err.value.violations)


def test_validation_catches_leibniz_failure():
    one = QQ.one
    space = GradedVectorSpace({0: 1, 1: 1})
    table = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {}}
    # d(1) = y breaks both d(unit) = 0 and the product rule
    with pytest.raises(ValidationError) as err:
        DgAlgebra.build(QQ, space, {0: one}, table, {0: {1: one}})
    assert err.value.violations


def test_hinted_constructions_are_certified_from_their_generators(monkeypatch):
    """Mat_3 with d, its opposite, its tensor with a factor that has no hint,
    and End of its complex never run the complete associativity enumeration."""
    A, D = mat3_inner(QQ), dual_numbers(QQ)
    complete = []
    spied = dg._associativity_failures

    def spy(field, on, table, only=None):
        if only is None:
            complete.append(len(on))
        return spied(field, on, table, only)

    monkeypatch.setattr(dg, "_associativity_failures", spy)
    built = [opposite(A), tensor_product(D, A), end_dg_algebra(A.complex())]
    assert all(B.validate() == [] for B in [A, *built])
    assert complete == []
    assert len(built[1].generators) == 1 + len(A.generators)


def test_certificate_words_grow_from_generator_operators(monkeypatch):
    """Mat_3 with d tensored with its opposite is certified from its hint, and
    no word of the certificate is multiplied through ``DgAlgebra.mul``."""
    A = mat3_inner(GF(10007))
    T = tensor_product(A, opposite(A))
    calls = []
    product = DgAlgebra.mul

    def spy(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(DgAlgebra, "mul", spy)
    violations = T.validate()
    assert violations == [] and violations.certified
    assert calls == []


def test_opposite_signs_and_involution():
    A = mat2_inner(QQ)
    B = opposite(A)
    assert B.validate() == []
    by_label = {A.label_of(i): i for i in range(A.dim)}
    e12, e21 = by_label["e12"], by_label["e21"]
    one = QQ.one
    # |e12| = 1, |e21| = -1: x *op y = -(y x) here
    assert B.mul({e12: one}, {e21: one}) == {
        i: QQ.neg(c) for i, c in A.mul({e21: one}, {e12: one}).items()
    }
    assert opposite(B) == A


def test_opposite_shares_differential():
    A = dual_numbers(QQ)
    assert opposite(A).dcols == A.dcols


def test_tensor_dims_and_koszul_sign():
    A = dual_numbers(QQ)
    T = tensor_product(A, A)
    assert T.validate() == []
    assert dict(T.space.dims) == {-2: 1, -1: 2, 0: 1}
    # (X(x)1)(1(x)X) = X(x)X but (1(x)X)(X(x)1) = -X(x)X
    lbl = {T.label_of(i): i for i in range(T.dim)}
    one = QQ.one
    x1, x2, xx = lbl["X@1"], lbl["1@X"], lbl["X@X"]
    assert T.mul({x1: one}, {x2: one}) == {xx: one}
    assert T.mul({x2: one}, {x1: one}) == {xx: QQ.neg(one)}


def test_tensor_with_colliding_labels_numbers_its_basis():
    # p (x) q@r and p@q (x) r would both be labelled p@q@r
    one = QQ.one
    table = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}}
    T = tensor_product(trivial_dg(QQ, ("p", "p@q"), {0: one}, table),
                       trivial_dg(QQ, ("r", "q@r"), {0: one}, table))
    assert T.space.all_labels() == ("t0_0", "t0_1", "t0_2", "t0_3")
    plain = tensor_product(trivial_dg(QQ, ("p", "q"), {0: one}, table),
                           trivial_dg(QQ, ("r", "s"), {0: one}, table))
    assert plain.space.all_labels() == ("p@r", "p@s", "q@r", "q@s")
    assert (T.unit, T.table, T.dcols) == (plain.unit, plain.table, plain.dcols)


def test_tensor_square_f2_frozen_example():
    A = dual_numbers(GF(2))
    T = tensor_product(A, A)
    assert dict(T.space.dims) == {0: 1, -1: 2, -2: 1}
    lbl = {T.label_of(i): i for i in range(T.dim)}
    dxx = T.d_apply({lbl["X@X"]: 1})
    assert dxx == {lbl["X@1"]: 1, lbl["1@X"]: 1}
    ker = kernel_subalgebra(T)
    assert dict(ker.algebra.space.dims) == {0: 1, -1: 1}
    # the degree -1 kernel generator squares to zero
    z = ker.inclusion.apply_flat({0: 1})
    assert T.mul(z, z) == {}


def test_tensor_rejects_field_mismatch():
    with pytest.raises(ShapeMismatch):
        tensor_product(dual_numbers(QQ), dual_numbers(GF(2)))


def test_swap_map_signs():
    A = dual_numbers(QQ)
    B = mat2_inner(QQ)
    T1 = tensor_product(A, B)
    T2 = tensor_product(B, A)
    sw = swap_map(A, B)
    # X (degree -1) against e21 (degree -1) picks up a sign
    l1 = {T1.label_of(i): i for i in range(T1.dim)}
    l2 = {T2.label_of(i): i for i in range(T2.dim)}
    out = sw.apply_flat({l1["X@e21"]: QQ.one})
    assert out == {l2["e21@X"]: QQ.neg(QQ.one)}
    out0 = sw.apply_flat({l1["1@e11"]: QQ.one})
    assert out0 == {l2["e11@1"]: QQ.one}
    un = unsigned_swap_map(A, B)
    assert un.apply_flat({l1["X@e21"]: QQ.one}) == {l2["e21@X"]: QQ.one}


def test_homology_of_acyclic_is_zero():
    for A in (dual_numbers(QQ), mat2_inner(QQ)):
        H = homology(A)
        assert H.space.is_zero()
        assert H.dim == 0


def test_homology_of_zero_differential_is_identity_dims():
    A = good_grading_matrix_algebra(QQ, 2, (1,))
    H = homology(A)
    assert dict(H.space.dims) == dict(A.space.dims)
    assert H.validate() == []


def test_homology_is_unital_quotient():
    A = split_pair(QQ)
    H = homology(A)
    assert H.dim == 2
    assert H.mul({0: QQ.one}, {0: QQ.one}) == {0: QQ.one}


def test_kernel_subalgebra_closed_under_product():
    A = mat2_inner(QQ)
    ker = kernel_subalgebra(A)
    K = ker.algebra
    assert dict(K.space.dims) == {0: 1, 1: 1}
    assert K.validate() == []
    # kernel inclusion commutes with multiplication
    one = QQ.one
    for i in range(K.dim):
        for j in range(K.dim):
            inside = K.mul({i: one}, {j: one})
            outside = A.mul(ker.inclusion.apply_flat({i: one}),
                            ker.inclusion.apply_flat({j: one}))
            assert ker.inclusion.apply_flat(inside) == outside


def test_contracting_element_dual_numbers():
    A = dual_numbers(QQ)
    r = contracting_element(A)
    assert r is not None and r.certified
    assert coeffs_by_label(A, r.z) == {"X": "1"}
    assert r.kernel_dims == {0: 1}


def test_contracting_element_mat2():
    A = mat2_inner(QQ)
    r = contracting_element(A)
    assert r is not None and r.certified
    assert coeffs_by_label(A, r.z) == {"e21": "1"}
    assert r.kernel_dims == {0: 1, 1: 1}
    assert r.dims_add_up and r.intersection_trivial and r.retraction_ok


def test_contracting_element_absent():
    A = good_grading_matrix_algebra(QQ, 2, (1,))  # zero differential
    assert contracting_element(A) is None


def test_center_of_matrix_algebra():
    A = mat2_inner(QQ)
    c = center(A)
    assert dict(c.space.dims) == {0: 1}
    v = c.inclusion.apply_flat({0: QQ.one})
    assert coeffs_by_label(A, v) == {"e11": "1", "e22": "1"}


def test_center_of_commutative_algebra_is_everything():
    A = dual_numbers(QQ)
    assert center(A).space.total_dim == A.dim


def test_semisimple_ungraded_verdicts():
    assert is_semisimple_ungraded(split_pair(QQ)).verdict is True
    assert is_semisimple_ungraded(mat2_inner(QQ)).verdict is True
    rep = is_semisimple_ungraded(dual_numbers(QQ))
    assert rep.verdict is False
    assert rep.radical  # the nilpotent generator is exhibited


def test_semisimple_exhaustive_branch_small_f2():
    T = tensor_product(dual_numbers(GF(2)), dual_numbers(GF(2)))
    ker = kernel_subalgebra(T).algebra
    rep = is_semisimple_ungraded(ker)
    assert rep.verdict is False
    assert rep.method == "exhaustive"


def test_semisimple_indeterminate_past_cap():
    A = dual_numbers(GF(2))
    T = A
    for _ in range(4):
        T = tensor_product(T, A)
    ker = kernel_subalgebra(T).algebra
    assert ker.dim == 16  # 2^16 candidate subsets, past the search cap
    rep = is_semisimple_ungraded(ker)
    assert rep.verdict is None


def test_tgr_semisimple_verdicts():
    assert is_tgr_semisimple(dual_numbers(QQ)).verdict is True
    # K with zero differential is not acyclic, so it fails the criterion
    rep = is_tgr_semisimple(neutral(QQ))
    assert rep.verdict is False and not rep.acyclic
    assert rep.kernel_report.verdict is True


def test_tgr_semisimple_decides_the_eighth_tensor_power_over_qq():
    # dual numbers to the 8th, dim 256: acyclic, but the kernel (binomial
    # dims, 128 in all) has a nonzero radical
    A = dual_numbers(QQ)
    T = A
    for _ in range(7):
        T = tensor_product(T, A)
    assert T.dim == 256
    rep = is_tgr_semisimple(T)
    assert rep.acyclic and rep.verdict is False
    assert rep.kernel_dims == {-k: c for k, c in enumerate((1, 7, 21, 35, 35, 21, 7, 1))}
    assert rep.kernel_report.verdict is False


def test_tgr_false_even_when_kernel_indeterminate():
    A = dual_numbers(GF(2))
    big = tensor_product(tensor_product(A, A), tensor_product(A, A))
    K = tensor_product(big, A)  # kernel too large to search, but acyclicity decides
    ungraded = trivial_dg(GF(2), tuple(f"g{i}" for i in range(K.dim)),
                          {i: c for i, c in K.unit.items()},
                          {k: dict(v) for k, v in K.table.items()})
    rep = is_tgr_semisimple(ungraded)
    assert rep.verdict is False and not rep.acyclic


def test_mat2_walkthrough_not_tgr():
    rep = is_tgr_semisimple(mat2_inner(QQ))
    assert rep.acyclic
    assert rep.verdict is False
    assert rep.kernel_dims == {0: 1, 1: 1}


def test_trivial_dg_and_regrade():
    A = split_pair(QQ)
    assert dict(A.space.dims) == {0: 2}
    assert regrade_trivial(A) == A
    B = regrade_trivial(mat2_inner(QQ))
    assert dict(B.space.dims) == {0: 4}
    assert B.dcols == {}


def test_kcomplex_rejects_bad_differential():
    space = GradedVectorSpace({0: 1, 1: 1})
    with pytest.raises(ValidationError) as err:
        KComplex(QQ, space, {0: {0: QQ.one}})  # degree 0, not +1
    assert [(v.axiom, v.witness, v.detail) for v in err.value.violations] == [
        ("d-degree", (0,), "d hits degree 0 from degree 0"),
        ("d-squared", (0,), "d(d(e0)) = 1*b0_0"),
    ]
    ok = KComplex(QQ, space, {0: {1: QQ.one}})
    assert ok.d_apply({0: QQ.one}) == {1: QQ.one}


def test_kcomplex_d_squared_checked():
    space = GradedVectorSpace({0: 1, 1: 1, 2: 1})
    with pytest.raises(ValidationError) as err:
        KComplex(QQ, space, {0: {1: QQ.one}, 1: {2: QQ.one}})
    assert [(v.axiom, v.witness, v.detail) for v in err.value.violations] == [
        ("d-squared", (0,), "d(d(e0)) = 1*b2_0"),
    ]


def _bad_index_cases():
    one = QQ.one
    point = GradedVectorSpace({0: 1})
    pair = GradedVectorSpace({0: 1, 1: 1})
    return {
        "product-row": lambda: DgAlgebra.build(QQ, point, {0: one}, {(0, 0): {5: one}}, {}),
        "product-row-negative": lambda: DgAlgebra.build(
            QQ, point, {0: one}, {(0, 0): {0: one, -1: one}}, {}),
        "algebra-d-row": lambda: DgAlgebra.build(
            QQ, point, {0: one}, {(0, 0): {0: one}}, {0: {1: one}}),
        "complex-d-row": lambda: KComplex(QQ, pair, {0: {-1: one}}),
        "complex-d-column": lambda: KComplex(QQ, pair, {2: {1: one}}),
        # indices that are not ints are rejected, never truncated or read as 0/1
        "unit-float": lambda: DgAlgebra.build(QQ, point, {0.2: one}, {(0, 0): {0: one}}, {}),
        "unit-bool": lambda: DgAlgebra.build(QQ, point, {False: one}, {(0, 0): {0: one}}, {}),
        "unit-zero-past-end": lambda: DgAlgebra.build(QQ, point, {0: one, 3: 0}, {(0, 0): {0: one}}, {}),
        "product-key-float": lambda: DgAlgebra.build(QQ, point, {0: one}, {(0.3, 0.4): {0: one}}, {}),
        "product-key-bool": lambda: DgAlgebra.build(QQ, point, {0: one}, {(0, False): {0: one}}, {}),
        "product-key-not-a-pair": lambda: DgAlgebra.build(QQ, point, {0: one}, {0: {0: one}}, {}),
        "product-row-float": lambda: DgAlgebra.build(QQ, point, {0: one}, {(0, 0): {0.5: one}}, {}),
        "float-unit-key-and-row": lambda: DgAlgebra.build(QQ, point, {0.2: 1}, {(0.3, 0.4): {0.5: 1}}, {}),
        "algebra-d-column-float": lambda: DgAlgebra.build(
            QQ, point, {0: one}, {(0, 0): {0: one}}, {0.9: {0: one}}),
        "product-key-past-end": lambda: DgAlgebra.build(QQ, point, {0: one}, {(0, 1): {0: one}}, {}),
        "algebra-d-row-bool": lambda: DgAlgebra.build(
            QQ, point, {0: one}, {(0, 0): {0: one}}, {0: {True: one}}),
        "algebra-d-column-bool": lambda: DgAlgebra.build(
            QQ, point, {0: one}, {(0, 0): {0: one}}, {False: {0: one}}),
        "algebra-d-column-past-end": lambda: DgAlgebra.build(
            QQ, point, {0: one}, {(0, 0): {0: one}}, {1: {0: one}}),
        "complex-d-row-bool": lambda: KComplex(QQ, pair, {0: {True: one}}),
        "complex-d-column-float": lambda: KComplex(QQ, pair, {0.0: {1: one}}),
        "element-float": lambda: dual_numbers(QQ).coeffs({0.9: one}),
        "element-bool": lambda: dual_numbers(QQ).coeffs({True: one}),
    }


@pytest.mark.parametrize("case", sorted(_bad_index_cases()))
def test_indices_outside_the_basis_are_shape_mismatches(case):
    with pytest.raises(ShapeMismatch, match="outside the bas"):
        _bad_index_cases()[case]()


@pytest.mark.parametrize("hint", [[{0.5: 1}], [{0: "x"}], [{0: 1.5}], [{True: 1}], [{-1: 1}], [{2: 1}]],
                         ids=["float-index", "text-value", "float-value", "bool-index", "negative", "past-end"])
def test_malformed_hints_fall_back_to_the_complete_check(hint):
    """A hint that ``clean_coeffs`` rejects is kept as given, certifies nothing
    and leaves the algebra exactly as it is without a hint."""
    A = dual_numbers(QQ)
    plain = DgAlgebra.build(A.field, A.space, A.unit, A.table, A.dcols)
    hinted = DgAlgebra.build(A.field, A.space, A.unit, A.table, A.dcols, generators=hint)
    assert hinted == plain and hinted.table == plain.table
    assert hinted.validate() == plain.validate() == []
    assert hinted.generators is hint and not hinted.generators_certified


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("hint", [[{99: 1}], [{"x": 1}]], ids=["past-end", "text-index"])
def test_tensor_product_ignores_a_hint_that_certified_nothing(field, hint):
    """A factor whose hint fell back to the complete check is generated by its
    basis in the tensor product, as if it had no hint."""
    D = dual_numbers(field)
    A = DgAlgebra.build(field, D.space, D.unit, D.table, D.dcols, generators=hint)
    assert not A.generators_certified
    assert tensor_product(A, D) == tensor_product(D, A) == tensor_product(D, D)
