"""Sandwich isomorphism, structure realization, equivalence witnesses, quaternions."""
import copy
import itertools
import random

import pytest
import dense_oracle
from dense_oracle import dense_candidates, dense_is_central_simple

from dgbr import brauer
from dgbr.brauer import (
    _diagonal_candidates,
    choose_structure_idempotent,
    forget_descriptor,
    idempotent_containment,
    is_central_simple,
    kunneth_check,
    lambda_map,
    quaternion_algebra,
    rho_map,
    sandwich_iso,
    sandwich_map,
    structure_realize,
    verify_dg_iso,
    verify_equivalence,
)
from dgbr.catalog import (
    dual_numbers,
    generators,
    mat2_inner,
    mat3_inner,
    neutral,
    random_algebra,
    random_small,
    split_pair,
    unit_equivalence_witness,
)
from dgbr.dg import (
    DgAlgebra,
    KComplex,
    center,
    homology,
    is_tgr_semisimple,
    ksign,
    negate_coeffs,
    opposite,
    regrade_trivial,
    swap_map,
    tensor_product,
    trivial_dg,
    unsigned_swap_map,
)
from dgbr.errors import (
    FieldMismatch,
    NoSuitableIdempotent,
    NotCentralSimple,
    ShapeMismatch,
    ValidationError,
)
from dgbr.fields import GF, QQ
from dgbr.graded import HomogeneousMap
from dgbr.homs import end_dg_algebra
from dgbr.matrix_algebras import good_grading_matrix_algebra, inner_differential


def test_lambda_rho_commute_up_to_sign():
    A = mat2_inner(QQ)
    one = QQ.one
    for a in range(A.dim):
        for b in range(A.dim):
            la = lambda_map(A, {a: one})
            rb = rho_map(A, {b: one})
            rhs = la.compose(rb).flat_columns()
            if ksign(A.degree_of(a), A.degree_of(b)) < 0:
                rhs = {j: negate_coeffs(QQ, c) for j, c in rhs.items()}
            assert rb.compose(la).flat_columns() == rhs


def test_rho_is_multiplicative_for_opposite():
    A = mat2_inner(QQ)
    B = opposite(A)
    one = QQ.one
    for a in range(A.dim):
        for b in range(A.dim):
            prod_op = B.mul({a: one}, {b: one})
            direct = rho_map(A, prod_op)
            composed = rho_map(A, {a: one}).compose(rho_map(A, {b: one}))
            assert direct == composed


@pytest.mark.parametrize("action", [lambda_map, rho_map])
def test_actions_of_an_element_that_mixes_degrees_are_shape_mismatches(action):
    A = mat2_inner(QQ)
    assert (A.label_of(0), A.label_of(3)) == ("e21", "e12")
    with pytest.raises(ShapeMismatch, match=r"element mixes degrees \[-1, 1\]"):
        action(A, {0: 1, 3: 1})


def test_central_simplicity_classifier():
    assert is_central_simple(mat2_inner(QQ))
    assert is_central_simple(good_grading_matrix_algebra(QQ, 3, (1, 0)))
    assert not is_central_simple(dual_numbers(QQ))
    assert not is_central_simple(split_pair(QQ))


def upper_triangular(field):
    """Upper triangular 2x2 matrices: center K, but not semisimple."""
    one = field.one
    return trivial_dg(field, ("e11", "e12", "e22"), {0: one, 2: one},
                      {(0, 0): {0: one}, (0, 1): {1: one}, (1, 2): {1: one}, (2, 2): {2: one}})


@pytest.mark.parametrize("field", [QQ, GF(10007), GF(2), GF(3)], ids=repr)
def test_central_simplicity_matches_the_dense_sandwich_rank(field):
    # the dense n^2 x n^2 rank is the oracle up to dimension 16; every pairwise
    # tensor product is also checked against: A (x) B is central simple iff A and B are
    gens = [A for _, A in generators(field)]
    cases = list(gens)
    for A, B in itertools.product(gens, repeat=2):
        T = tensor_product(A, B)
        assert is_central_simple(T) == (is_central_simple(A) and is_central_simple(B))
        if T.dim <= 9:
            cases.append(T)
    if field.characteristic() != 2:
        cases.append(quaternion_algebra(field, field.one, field.neg(field.one)))
    for n in (2, 3, 4):
        M = good_grading_matrix_algebra(field, n, (1,) * (n - 1))
        cases.append(inner_differential(M, M.element({"e12": 1})))
    T2 = upper_triangular(field)
    cases += [T2, tensor_product(T2, mat2_inner(field))]
    verdicts = [is_central_simple(A) for A in cases]
    assert verdicts == [dense_is_central_simple(A) for A in cases]
    assert True in verdicts and False in verdicts
    assert not is_central_simple(T2) and center(T2).space.total_dim == 1


def test_sandwich_mat2_walkthrough():
    w = sandwich_iso(mat2_inner(QQ))
    assert w.verified
    assert w.source.dim == 16 and w.target.dim == 16
    c = w.checks
    assert (c.is_algebra_hom, c.is_unital, c.commutes_with_d, c.is_bijective) == (
        True, True, True, True)


def test_sandwich_quaternions():
    Q = quaternion_algebra(QQ, QQ.neg(QQ.one), QQ.neg(QQ.one))
    w = sandwich_iso(Q)
    assert w.verified
    assert w.source.dim == 16


def test_sandwich_good_graded_mat4():
    """A (x) A^op and End(A) have dimension 256 and are each validated."""
    M = good_grading_matrix_algebra(GF(10007), 4, (1, 1, 1))
    w = sandwich_iso(inner_differential(M, M.element({"e12": 1})))
    assert w.verified
    assert w.source.dim == 256 and w.target.dim == 256


def test_sandwich_good_graded_mat5():
    """The dim-625 builds are certified from generators, so this takes seconds."""
    M = good_grading_matrix_algebra(GF(10007), 5, (1, 0, 0, 0))
    w = sandwich_iso(inner_differential(M, M.element({"e12": 1})))
    assert w.verified
    assert w.source.dim == 625 and w.target.dim == 625


def test_sandwich_requires_central_simple():
    # the last two have center K, so the witness's bijectivity refuses them
    T2 = upper_triangular(QQ)
    for A, dims in ((dual_numbers(QQ), "dim 2, center dim 2"), (T2, "dim 3, center dim 1"),
                    (tensor_product(T2, mat2_inner(QQ)), "dim 12, center dim 1")):
        with pytest.raises(NotCentralSimple,
                           match=f"^sandwich construction needs a central simple algebra; {dims}$"):
            sandwich_iso(A)


def test_sandwich_iso_builds_the_rows_once_and_ranks_them_only_in_the_witness(monkeypatch):
    passes, ranks = [], []
    rows, rref = brauer._sandwich_rows, brauer.rref_rows
    monkeypatch.setattr(brauer, "_sandwich_rows", lambda A, pairs: passes.append(A) or rows(A, pairs))
    monkeypatch.setattr(brauer, "rref_rows", lambda *args: ranks.append(args) or rref(*args))
    M = good_grading_matrix_algebra(GF(10007), 3, (1, 0))
    assert sandwich_iso(inner_differential(M, M.element({"e12": 1}))).verified
    assert (len(passes), len(ranks)) == (1, 0)


def test_sandwich_map_alone_on_prime_field():
    A = good_grading_matrix_algebra(GF(3), 2, (1,))
    T = tensor_product(A, opposite(A))
    E = end_dg_algebra(A.complex())
    m = sandwich_map(A, T, E)
    w = verify_dg_iso(T, E, m)
    assert w.verified


def test_idempotent_certificates_frozen():
    A = mat2_inner(QQ)
    cert1, wit1 = idempotent_containment(A, 1)
    assert not cert1.contained
    assert cert1.ideal_dims == {-1: 1, 0: 1}
    assert cert1.span_dims == {0: 1, 1: 1}
    assert wit1 is not None
    cert2, wit2 = idempotent_containment(A, 2)
    assert cert2.contained
    assert cert2.ideal_dims == cert2.span_dims == {0: 1, 1: 1}
    assert wit2 is None
    choice = choose_structure_idempotent(A)
    assert choice.index == 1


def test_idempotent_search_falls_back_without_presentation():
    A = mat2_inner(QQ)
    rebuilt = regrade_trivial(A)
    assert len(_diagonal_candidates(rebuilt)) == 2


def test_diagonal_candidates_read_squares_from_the_table(monkeypatch):
    """The same list as squaring by ``A.mul``, with no ``A.mul`` call."""
    rng = random.Random(20)
    algebras = [A for F in (QQ, GF(2), GF(7)) for _, A in generators(F)]
    algebras += [random_algebra(rng, F) for F in (QQ, GF(3)) for _ in range(15)]
    for f in ((1, 0, 1), (1, 0, 1, 0)):
        A = good_grading_matrix_algebra(GF(10007), len(f) + 1, f)
        algebras.append(inner_differential(A, A.element({"e12": 1})))
    # the field on the basis a = 2: a * a = 2a, so no basis element is idempotent
    algebras.append(trivial_dg(QQ, ("a",), {0: QQ.inv(QQ.coerce(2))}, {(0, 0): {0: 2}}))

    def no_mul(self, u, v):
        raise AssertionError("DgAlgebra.mul called")

    for A in algebras:
        want = dense_candidates(A)
        with monkeypatch.context() as m:
            m.setattr(DgAlgebra, "mul", no_mul)
            assert _diagonal_candidates(A) == want


def test_no_suitable_idempotent_carries_certificates():
    from dgbr.errors import ContainmentCertificate

    certs = [ContainmentCertificate(1, {0: 1}, {0: 1}, True),
             ContainmentCertificate(2, {0: 1}, {0: 1}, True)]
    err = NoSuitableIdempotent(certs)
    assert len(err.certificates) == 2
    assert "2" in str(err)


def test_containment_index_out_of_range():
    with pytest.raises(ShapeMismatch):
        idempotent_containment(mat2_inner(QQ), 3)


@pytest.mark.parametrize("bad", [1.5, True, "1", None])
def test_containment_takes_only_an_integer_index(bad):
    with pytest.raises(ShapeMismatch, match=f"diagonal index must be an integer, got {bad!r}"):
        idempotent_containment(mat2_inner(QQ), bad)


def test_no_idempotent_basis_element_means_no_suitable_idempotent():
    # K on the basis a with a * a = 2a: central simple, no candidate at all
    K = trivial_dg(QQ, ("a",), {0: QQ.inv(QQ.coerce(2))}, {(0, 0): {0: QQ.coerce(2)}})
    with pytest.raises(NoSuitableIdempotent) as exc:
        structure_realize(K)
    assert exc.value.certificates == [] and exc.value.chosen is None
    assert "no degree-0 basis element is idempotent" in str(exc.value)
    with pytest.raises(ShapeMismatch, match="out of range for 0 idempotents"):
        idempotent_containment(K, 1)


def test_structure_realize_walkthrough():
    A = mat2_inner(QQ)
    sr = structure_realize(A)
    assert dict(sr.L.space.dims) == {-1: 1, 0: 1}
    assert sr.witness.verified
    assert sr.idempotent.index == 1


def test_structure_target_orientation():
    # left multiplication composes covariantly, so the verified target is the
    # endomorphism algebra itself; against its opposite the same map fails
    # multiplicativity, and it verifies again between the two opposites
    A = mat2_inner(QQ)
    sr = structure_realize(A)
    E = sr.witness.target
    bad = verify_dg_iso(A, opposite(E), sr.witness.map)
    assert not bad.checks.is_algebra_hom
    assert bad.checks.failures
    good_op = verify_dg_iso(opposite(A), opposite(E), sr.witness.map)
    assert good_op.verified


def test_structure_realize_trivially_graded_mat3():
    A = good_grading_matrix_algebra(QQ, 3, (0, 0))
    sr = structure_realize(A)
    assert dict(sr.L.space.dims) == {0: 3}
    assert sr.witness.verified


@pytest.mark.parametrize("make", [
    DgAlgebra.zero_algebra,
    dual_numbers,
    split_pair,
    lambda f: tensor_product(split_pair(f), split_pair(f)),
], ids=["zero", "dual-numbers", "split-pair", "split-pair-squared"])
def test_structure_realize_rejects_non_central_simple(make):
    with pytest.raises(NotCentralSimple,
                       match="^structure theorem applies to central simple algebras$"):
        structure_realize(make(QQ))


def test_structure_realize_decides_central_simplicity_only_on_failure(monkeypatch):
    # a verified witness A = End(L) proves A central simple, so success needs no check
    calls = []

    def spy(A):
        calls.append(A)
        return is_central_simple(A)

    monkeypatch.setattr(brauer, "is_central_simple", spy)
    field = GF(10007)
    M = good_grading_matrix_algebra(field, 4, (1, 0, 1))
    assert structure_realize(inner_differential(M, M.element({"e12": 1}))).witness.verified
    assert calls == []
    with pytest.raises(NotCentralSimple):
        structure_realize(split_pair(field))
    assert len(calls) == 1


def test_unit_equivalence_from_structure_witness():
    A = mat2_inner(QQ)
    sr = structure_realize(A)
    w = unit_equivalence_witness(A, sr)
    assert w.verified


def test_verify_equivalence_rejects_dim_mismatch():
    A = mat2_inner(QQ)
    K = neutral(QQ)
    C1 = KComplex.point(QQ)
    m = HomogeneousMap(QQ, KComplex.point(QQ).space, KComplex.point(QQ).space, 0,
                       {0: {0: QQ.one}})
    with pytest.raises(ShapeMismatch):
        verify_equivalence(A, K, C1, C1, m)


@pytest.mark.parametrize("build, index", [
    (inner_differential, -1), (inner_differential, 7), (lambda_map, -2), (rho_map, 4),
    (inner_differential, 1.5), (lambda_map, 0.9), (rho_map, True),
], ids=["inner-negative", "inner-past-end", "lambda-negative", "rho-past-end",
        "inner-float", "lambda-float", "rho-bool"])
def test_element_indices_outside_the_basis_are_shape_mismatches(build, index):
    A = good_grading_matrix_algebra(QQ, 2, (1,))
    with pytest.raises(ShapeMismatch, match="outside the basis"):
        build(A, {index: 1})


def test_verify_dg_iso_rejects_a_map_over_another_field():
    A = mat2_inner(QQ)
    with pytest.raises(FieldMismatch):
        verify_dg_iso(A, A, HomogeneousMap.identity(GF(7), A.space))


def test_verify_dg_iso_reports_failures_with_labels():
    A = dual_numbers(QQ)
    sw = HomogeneousMap(
        QQ, A.space, A.space, 0, {0: {0: QQ.coerce(2)}, 1: {1: QQ.one}}
    )
    w = verify_dg_iso(A, A, sw)
    assert not w.verified
    assert w.checks.commutes_with_d is False
    assert ("differential", "X") in w.checks.failures


@pytest.mark.parametrize("make, failures", [
    (mat2_inner, (("product", "e21", "e11"), ("product", "e11", "e12"), ("product", "e12", "e21"),
                  ("unit",), ("differential", "e21"), ("differential", "e11"), ("bijectivity",))),
    (mat3_inner, (("product", "e31", "e11"), ("product", "e21", "e11"), ("product", "e11", "e12"),
                  ("product", "e11", "e13"), ("product", "e12", "e21"), ("product", "e13", "e31"),
                  ("unit",), ("differential", "e21"))),
], ids=["mat2", "mat3-capped"])
def test_verify_dg_iso_lists_failures_in_check_order_up_to_eight(make, failures):
    """The identity with the e11 column dropped fails all four checks; on Mat_3
    the cap of eight cuts off the later differential and bijectivity failures."""
    A = make(QQ)
    drop = A.space.all_labels().index("e11")
    m = HomogeneousMap(QQ, A.space, A.space, 0, {i: {i: QQ.one} for i in range(A.dim) if i != drop})
    checks = verify_dg_iso(A, A, m).checks
    assert (checks.is_algebra_hom, checks.is_unital, checks.commutes_with_d, checks.is_bijective) == (
        False, False, False, False)
    assert checks.failures == failures


def _count_mul(monkeypatch):
    """Count DgAlgebra.mul calls per algebra, keyed by id."""
    calls: dict = {}
    mul = DgAlgebra.mul

    def spy(self, u, v):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return mul(self, u, v)

    monkeypatch.setattr(DgAlgebra, "mul", spy)
    return calls


def _mat3_inner(field):
    M = good_grading_matrix_algebra(field, 3, (1, 1))
    return inner_differential(M, M.element({"e12": 1}))


def test_sandwich_map_rejects_an_end_algebra_of_another_complex():
    A = mat2_inner(QQ)
    T = tensor_product(A, opposite(A))
    with pytest.raises(ShapeMismatch, match="End of the complex of A"):
        sandwich_map(A, T, end_dg_algebra(dual_numbers(QQ).complex()))
    with pytest.raises(ShapeMismatch, match="End of the complex of A"):
        sandwich_map(A, T, end_dg_algebra(mat2_inner(GF(7)).complex()))


def _count_target_rows(monkeypatch, *algebras):
    """Count, per algebra B, the ``operator_of`` calls of ``brauer`` over
    ``B.left``, keyed by ``id(B.table)``.  ``verify_dg_iso`` makes one over the
    target's for each row i it checks, the operator of m(e_i).  Algebras built
    while the spy runs are seen through the constructor; ``algebras`` are
    those built before it."""
    owners, calls = list(algebras), {}
    op_of, checked = brauer.operator_of, DgAlgebra._checked.__func__

    def checked_spy(cls, *args, **kwargs):
        B = checked(cls, *args, **kwargs)
        owners.append(B)
        return B

    def operator_of_spy(field, o, u):
        for B in owners:
            if o is B.left:
                calls[id(B.table)] = calls.get(id(B.table), 0) + 1
        return op_of(field, o, u)

    monkeypatch.setattr(DgAlgebra, "_checked", classmethod(checked_spy))
    monkeypatch.setattr(brauer, "operator_of", operator_of_spy)
    return calls


def test_sandwich_iso_checks_products_only_on_the_hint_rows(monkeypatch):
    """T = A (x) A^op of Mat_3 has a certified hint with 18 basis terms: each
    factor's 3 cycle units tensored with the other's unit, a sum of 3 terms.
    So the target's operator is formed for 18 rows instead of all 81."""
    A = _mat3_inner(GF(10007))
    calls = _count_target_rows(monkeypatch)
    w = sandwich_iso(A)
    assert w.verified and w.source.generators is not None
    assert len({i for s in w.source.generators for i in s}) == 2 * 3 * 3
    assert calls[id(w.target.table)] == 18


def test_verify_dg_iso_falls_back_to_every_pair(monkeypatch):
    """A hint that does not generate Mat_3 is not certified and is dropped, and a map
    that is not unital is never checked on the hint alone: either way all 9
    rows are checked.  The identity on the certified algebra takes only the
    3 rows of its cycle hint."""
    A = _mat3_inner(GF(10007))
    e12 = A.element({"e12": 1})
    partial = DgAlgebra.build(A.field, A.space, A.unit, A.table, A.dcols, generators=[e12])
    assert A.generators is not None and partial.generators is None
    ident = HomogeneousMap.identity(A.field, A.space)
    zero = HomogeneousMap.zero(A.field, A.space, A.space)
    calls = _count_target_rows(monkeypatch, A, partial)
    for B, m, rows in ((partial, ident, 9), (A, zero, 9), (A, ident, 3)):
        calls.clear()
        w = verify_dg_iso(B, B, m)
        assert calls == {id(B.table): rows}
        assert w.checks.is_algebra_hom and w.checks.is_unital == (m is ident)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("n", [2, 3])
def test_verify_dg_iso_finds_failures_zero_on_one_side(field, n):
    """The pairs skipped are those zero on both sides, so failures zero on one
    side are all found, in the complete loop's order.  Sending every e_ab to
    1 fails only where e_ab e_cd = 0 (b != c) yet 1 * 1 = 1: j lies outside
    A's left operator of e_i.  Sending every e_ab to e12, whose square is
    zero, and the identity with e12 sent to 0, fail only where m(e_i e_j) is
    nonzero and m(e_i)m(e_j) = 0: no term of m(e_j) meets the operator of
    m(e_i).  The last map is unital, so it first runs the hint rows."""
    A = good_grading_matrix_algebra(field, n, (0,) * (n - 1))
    e12, one = A.element({"e12": 1}), A.field.one
    maps = [
        {i: dict(A.unit) for i in range(A.dim)},
        {i: e12 for i in range(A.dim)},
        {i: {i: one} for i in range(A.dim) if {i: one} != e12},
    ]
    for cols in maps:
        m = HomogeneousMap(field, A.space, A.space, 0, cols)
        checks = verify_dg_iso(A, A, m).checks
        assert not checks.is_algebra_hom
        assert checks == dense_oracle.full_iso_checks(A, A, m)


def test_central_simplicity_builds_no_sandwich_rows_when_the_center_is_not_k(monkeypatch):
    """The sandwich rows are built only when the center is K."""
    built = []
    monkeypatch.setattr(brauer, "_sandwich_rows", lambda A, pairs: built.append(A) or [])
    for A in (dual_numbers(QQ), split_pair(QQ), dual_numbers(GF(7)), split_pair(GF(7))):
        assert center(A).space.total_dim == 2
        assert not is_central_simple(A)
    assert built == []


def _spy_criteria(monkeypatch):
    """Count the calls of the two central-simplicity criteria: (gram, rows)."""
    calls = {"gram": 0, "rows": 0}
    gram, rows = brauer._trace_form_radical, brauer._sandwich_rows

    def gram_spy(A):
        calls["gram"] += 1
        return gram(A)

    def rows_spy(A, pairs):
        calls["rows"] += 1
        return rows(A, pairs)
    monkeypatch.setattr(brauer, "_trace_form_radical", gram_spy)
    monkeypatch.setattr(brauer, "_sandwich_rows", rows_spy)
    return calls


def test_central_simplicity_forms_no_gram_when_the_center_is_not_k(monkeypatch):
    """Neither the trace form nor the sandwich rows are formed when the center is not K."""
    calls = _spy_criteria(monkeypatch)
    for A in (dual_numbers(QQ), split_pair(QQ), dual_numbers(GF(7)), split_pair(GF(7)),
              split_pair(GF(10007)), tensor_product(split_pair(QQ), mat2_inner(QQ))):
        assert center(A).space.total_dim > 1
        assert not is_central_simple(A)
    assert calls == {"gram": 0, "rows": 0}


def _inner_mat(field, n):
    M = good_grading_matrix_algebra(field, n, (1,) + (0,) * (n - 2))
    return inner_differential(M, M.element({"e12": 1}))


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=repr)
def test_central_simplicity_in_large_characteristic_builds_no_sandwich_rows(monkeypatch, field):
    calls = _spy_criteria(monkeypatch)
    for n in (2, 3, 4, 5):
        assert is_central_simple(_inner_mat(field, n))
    assert calls == {"gram": 4, "rows": 0}


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=repr)
def test_central_simplicity_in_small_characteristic_ranks_the_sandwich_rows_once(monkeypatch, field):
    calls, seen = _spy_criteria(monkeypatch), []
    for n in (2, 3):
        A = _inner_mat(field, n)
        assert A.dim >= field.characteristic()
        assert is_central_simple(A)
        seen.append(calls["rows"])
    assert seen == [1, 2]


def test_central_simplicity_matches_the_dense_oracle_on_both_branches(monkeypatch):
    """Both criteria against the dense n^2 x n^2 sandwich rank of the oracle.

    Over QQ and GF(10007) every case goes through the trace form; over GF(7)
    the cases of dimension 7 and up, and Mat_2 over GF(3), go through the
    sandwich rows.
    """
    rng = random.Random(37)
    cases = []
    for field in (QQ, GF(7), GF(10007)):
        draws = [random_algebra(rng, field) for _ in range(12)]
        draws += [random_small(rng, field) for _ in range(6)]
        draws = [A for A in draws if A.dim <= 16]
        cases += draws
        cases += [T for A, B in zip(draws, draws[1:]) for T in [tensor_product(A, B)] if T.dim <= 16]
        T2 = upper_triangular(field)
        cases += [T2, tensor_product(T2, mat2_inner(field)), neutral(field),
                  DgAlgebra.zero_algebra(field)]
    Q = quaternion_algebra(QQ, -1, -1)
    cases += [Q, tensor_product(Q, Q)]
    cases += [good_grading_matrix_algebra(GF(p), 2, (1,)) for p in (5, 3)]
    calls = _spy_criteria(monkeypatch)
    verdicts = [is_central_simple(A) for A in cases]
    assert verdicts == [dense_is_central_simple(A) for A in cases]
    assert True in verdicts and False in verdicts
    assert calls["gram"] > 0 and calls["rows"] > 0
    assert verdicts[-4:] == [True, True, True, True]


def test_multiplication_operators_are_read_off_the_table(monkeypatch):
    """lambda, rho, the containment test and inner differentials call no
    DgAlgebra.mul: each reads the operators of the element off the table."""
    M = good_grading_matrix_algebra(QQ, 3, (1, 1))
    A = _mat3_inner(QQ)
    u = A.element({"e12": 2, "e23": -3})
    calls = _count_mul(monkeypatch)
    lambda_map(A, u), rho_map(A, u), lambda_map(A, {0: QQ.one}), rho_map(A, {0: QQ.one})
    for i in range(1, 4):
        idempotent_containment(A, i)
    inner_differential(M, M.element({"e12": 2}))
    with pytest.raises(ValidationError, match="z\\^2 is not central"):
        inner_differential(M, M.element({"e12": 1, "e23": 1}))
    assert calls == {}


@pytest.mark.parametrize("make", [mat2_inner, mat3_inner])
def test_results_share_no_column_with_the_table(make):
    """For u = e_m the operator of u is the table's own columns; what the
    library hands out is a copy, so changing it leaves the algebra alone."""
    A = make(QQ)
    table = copy.deepcopy(A.table)
    one = QQ.one
    results = [action(A, {a: one}).flat_columns() for a in range(A.dim)
               for action in (lambda_map, rho_map)]
    results.append(inner_differential(A, A.element({"e12": 1})).dcols)
    results.append(dict(enumerate(idempotent_containment(A, i)[1] or {}
                                  for i in range(1, len(_diagonal_candidates(A)) + 1))))
    sr = structure_realize(A)
    results += [sr.witness.map.flat_columns(), {0: sr.idempotent.witness}]
    assert A.table == table
    for cols in results:
        for col in cols.values():
            col.clear()
    assert A.table == table


def test_a_rejected_inner_differential_leaves_the_table_alone():
    """z = e12 + e23 squares to e13, whose operators are table columns; the
    witness d(d(a)) is formed in a copy."""
    M = good_grading_matrix_algebra(QQ, 3, (1, 1))
    table = copy.deepcopy(M.table)
    with pytest.raises(ValidationError, match=r"d\(d\(e31\)\) = 1\*e11 \+ -1\*e33"):
        inner_differential(M, M.element({"e12": 1, "e23": 1}))
    assert M.table == table


def test_swap_iso_and_unsigned_failure():
    A = dual_numbers(QQ)
    B = mat2_inner(QQ)
    T1 = tensor_product(A, B)
    T2 = tensor_product(B, A)
    assert verify_dg_iso(T1, T2, swap_map(A, B)).verified
    bad = verify_dg_iso(T1, T2, unsigned_swap_map(A, B))
    assert not bad.checks.is_algebra_hom


def test_quaternion_table_and_descriptor():
    a = QQ.neg(QQ.one)
    b = QQ.neg(QQ.one)
    Q = quaternion_algebra(QQ, a, b)
    lbl = {Q.label_of(t): t for t in range(Q.dim)}
    one = QQ.one

    def mul(x, y):
        return {Q.label_of(t): QQ.format(c)
                for t, c in Q.mul({lbl[x]: one}, {lbl[y]: one}).items()}

    assert mul("i", "j") == {"k": "1"}
    assert mul("j", "i") == {"k": "-1"}
    assert mul("i", "i") == {"1": "-1"}
    assert mul("k", "k") == {"1": "-1"}
    assert is_central_simple(Q)
    d = forget_descriptor(Q)
    assert (d.dimension, d.center_dimension, d.is_central_simple) == (4, 1, True)


def test_quaternion_rejections():
    with pytest.raises(ShapeMismatch):
        quaternion_algebra(GF(2), 1, 1)
    with pytest.raises(ShapeMismatch):
        quaternion_algebra(QQ, QQ.zero, QQ.one)


def test_split_quaternions_still_central_simple():
    Q = quaternion_algebra(QQ, QQ.one, QQ.one)
    assert is_central_simple(Q)
    assert forget_descriptor(Q).is_central_simple


@pytest.mark.parametrize("field, a, b", [(GF(7), -1, -1), (QQ, 1, 1), (QQ, -1, -1)])
def test_quaternions_whose_only_basis_idempotent_is_the_unit_have_none_suitable(field, a, b):
    # the first two are Mat_2 and their unit is not primitive; the last is a
    # division algebra; in all three L is all of A, and 4^2 != 4
    with pytest.raises(NoSuitableIdempotent) as exc:
        structure_realize(quaternion_algebra(field, a, b))
    err = exc.value
    assert err.certificates == []
    assert err.chosen == (1, "1", {0: 4}, 4)
    assert str(err) == ("diagonal idempotent 1 (basis element '1') does not split A: "
                        "L has dims {0: 4}, and 4^2 = 16 != dim A = 4, so e is not "
                        "primitive or A is not split; 0 candidates rejected before it")


def test_forget_descriptor_ignores_grading():
    graded = good_grading_matrix_algebra(QQ, 3, (1, 0))
    flat = good_grading_matrix_algebra(QQ, 3, (0, 0))
    assert forget_descriptor(graded) == forget_descriptor(flat)
    assert forget_descriptor(regrade_trivial(graded)) == forget_descriptor(graded)


def test_kunneth_frozen_pairs():
    r = kunneth_check(mat2_inner(QQ), dual_numbers(QQ))
    assert r.matches and r.left == {} and r.right == {}
    r2 = kunneth_check(good_grading_matrix_algebra(QQ, 2, (1,)), split_pair(QQ))
    assert r2.matches
    assert r2.left == {-1: 2, 0: 4, 1: 2}


def test_kunneth_convolution_shifts_degrees():
    A = good_grading_matrix_algebra(QQ, 2, (1,))
    r = kunneth_check(A, A)
    assert r.matches
    assert r.left == {-2: 1, -1: 4, 0: 6, 1: 4, 2: 1}


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=repr)
def test_kunneth_right_side_is_the_convolution_of_the_factor_homologies(field):
    gens = [A for _, A in generators(field)]
    dims = [dict(homology(A).space.dims) for A in gens]
    for (A, HA), (B, HB) in itertools.product(zip(gens, dims), repeat=2):
        conv: dict = {}
        for (k, a), (l, b) in itertools.product(HA.items(), HB.items()):
            conv[k + l] = conv.get(k + l, 0) + a * b
        r = kunneth_check(A, B)
        assert r.right == conv and r.matches


def test_kunneth_builds_no_algebra_and_tgr_only_the_kernel(monkeypatch):
    """Both reports are read off the complexes: ``kunneth_check`` builds no
    algebra, and ``is_tgr_semisimple`` only the kernel algebra its trace form
    needs.  Every algebra, through ``build`` or from a constructor, is
    validated and wrapped by ``DgAlgebra._checked``, so that is spied on."""
    gens = [A for _, A in generators(QQ)]
    built = []
    checked = DgAlgebra._checked.__func__

    def spy(cls, field, space, *args, **kwargs):
        built.append(dict(space.dims))
        return checked(cls, field, space, *args, **kwargs)

    monkeypatch.setattr(DgAlgebra, "_checked", classmethod(spy))
    for A, B in itertools.product(gens, repeat=2):
        assert kunneth_check(A, B).matches
    assert built == []
    for A in gens:
        rep = is_tgr_semisimple(A)
        assert built == [rep.kernel_dims]
        built.clear()


def test_kunneth_refuses_factors_over_different_fields():
    with pytest.raises(ShapeMismatch, match="^tensor factors over different fields$"):
        kunneth_check(dual_numbers(QQ), dual_numbers(GF(2)))


def test_mat3_structure_with_inner_differential():
    A = mat3_inner(QQ)
    assert is_central_simple(A)
    sr = structure_realize(A)
    assert sr.witness.verified
    assert sr.L.space.total_dim * sr.L.space.total_dim == A.dim
