"""Acceptance gate.

Each test exercises one numbered acceptance criterion end to end and prints a
single PASS line on success (run with -s to see them; a failure is a failure
of that criterion).  Everything here is exact arithmetic; no tolerances.
"""
import itertools
import random
import time

from dgbr.brauer import (
    UngradedDescriptor,
    forget_descriptor,
    idempotent_containment,
    is_central_simple,
    kunneth_check,
    quaternion_algebra,
    sandwich_iso,
    structure_realize,
    verify_dg_iso,
    verify_equivalence,
)
from dgbr.catalog import (
    dual_numbers,
    generators,
    mat2_inner,
    neutral,
    random_algebra,
    random_complex,
    unit_equivalence_witness,
)
from dgbr.dg import (
    KComplex,
    center,
    homology,
    is_semisimple_ungraded,
    is_tgr_semisimple,
    kernel_subalgebra,
    opposite,
    regrade_trivial,
    tensor_product,
    unsigned_swap_map,
    swap_map,
)
from dgbr.fields import GF, QQ
from dgbr.homs import end_dg_algebra
from dgbr.matrix_algebras import enumerate_good_gradings, good_grading_matrix_algebra


def test_criterion_1_dual_numbers_invariants():
    A = dual_numbers(QQ)
    assert A.validate() == []
    assert homology(A).dim == 0
    assert dict(kernel_subalgebra(A).algebra.space.dims) == {0: 1}
    assert is_tgr_semisimple(A).verdict is True
    assert is_central_simple(A) is False
    d = forget_descriptor(A)
    assert (d.dimension, d.center_dimension, d.is_central_simple) == (2, 2, False)
    print("PASS criterion 1: dual numbers acyclic, tgr-semisimple, not central simple")


def test_criterion_2_char_two_tensor_square_non_closure():
    f = GF(2)
    A = dual_numbers(f)
    T = tensor_product(A, A)
    assert dict(T.space.dims) == {0: 1, -1: 2, -2: 1}
    labs = list(T.space.all_labels())
    d_xx = T.d_apply({labs.index("X@X"): f.one})
    assert d_xx == {labs.index("X@1"): f.one, labs.index("1@X"): f.one}
    ker = kernel_subalgebra(T)
    assert dict(ker.algebra.space.dims) == {0: 1, -1: 1}
    cycle = {labs.index("X@1"): f.one, labs.index("1@X"): f.one}
    assert T.mul(cycle, cycle) == {}
    rep = is_semisimple_ungraded(ker.algebra)
    assert rep.verdict is False
    assert is_tgr_semisimple(A).verdict is True
    assert is_tgr_semisimple(T).verdict is False
    print("PASS criterion 2: tensor square over GF(2) breaks tgr-semisimplicity")


def test_criterion_3_double_centralizer_witnesses():
    cases = [
        ("matrix with inner differential", mat2_inner(QQ)),
        ("quaternions", quaternion_algebra(QQ, QQ.coerce(-1), QQ.coerce(-1))),
    ]
    C = random_complex(random.Random(314), QQ, max_total=3)
    assert C.space.total_dim <= 3
    cases.append(("endomorphisms of a random complex", end_dg_algebra(C)))
    for name, A in cases:
        w = sandwich_iso(A)
        c = w.checks
        assert (c.is_algebra_hom, c.is_unital, c.commutes_with_d,
                c.is_bijective) == (True, True, True, True), name
        assert w.source.dim == A.dim ** 2, name
    print("PASS criterion 3: enveloping algebra matches endomorphisms in 3 cases")


def test_criterion_4_twenty_random_pairs_need_the_sign():
    rng = random.Random(41)
    pool = generators(QQ)
    unsigned_failed_odd = 0
    for _ in range(20):
        (na, A), (nb, B) = rng.choice(pool), rng.choice(pool)
        assert A.validate() == [] and B.validate() == []
        T1, T2 = tensor_product(A, B), tensor_product(B, A)
        w = verify_dg_iso(T1, T2, swap_map(A, B))
        assert w.verified, (na, nb, w.checks.failures)
        has_odd = any(d % 2 for d in A.space.dims) and any(d % 2 for d in B.space.dims)
        if has_odd:
            u = verify_dg_iso(T1, T2, unsigned_swap_map(A, B))
            if not u.checks.is_algebra_hom:
                unsigned_failed_odd += 1
    assert unsigned_failed_odd >= 1
    print(f"PASS criterion 4: signed swap verified on 20 pairs; "
          f"unsigned swap broke multiplicativity on {unsigned_failed_odd} odd pairs")


def test_criterion_5_structure_walkthrough():
    A = mat2_inner(QQ)
    sr = structure_realize(A)
    assert dict(sr.L.space.dims) == {-1: 1, 0: 1}
    assert sr.witness.verified
    assert sr.idempotent.index == 1
    cert2, witness2 = idempotent_containment(A, 2)
    assert cert2.contained is True
    assert witness2 is None
    assert cert2.ideal_dims == cert2.span_dims == {0: 1, 1: 1}
    # Orientation note: left multiplication composes covariantly, so the map
    # that actually verifies lands in the endomorphism algebra itself; the
    # same matrix fails multiplicativity against its opposite, and verifies
    # again once both sides are replaced by their opposites.
    E = sr.witness.target
    assert sr.witness.source is A
    flipped = verify_dg_iso(A, opposite(E), sr.witness.map)
    assert not flipped.checks.is_algebra_hom and flipped.checks.failures
    both_op = verify_dg_iso(opposite(A), opposite(E), sr.witness.map)
    assert both_op.verified
    print("PASS criterion 5: rank-one realization verified; idempotent 1 chosen, "
          "idempotent 2 rejected by ideal containment")


def test_criterion_6_equivalence_with_the_ground_field():
    A = mat2_inner(QQ)
    sr = structure_realize(A)
    w = unit_equivalence_witness(A, sr)
    assert verify_equivalence(A, neutral(QQ), KComplex.point(QQ), sr.L, w.map).verified

    def stable(B):
        d1 = forget_descriptor(B)
        d2 = forget_descriptor(regrade_trivial(B))
        assert d1 == d2, B
        return d1

    q = stable(quaternion_algebra(QQ, QQ.coerce(-1), QQ.coerce(-1)))
    assert q == UngradedDescriptor(4, 1, True)
    base = forget_descriptor(good_grading_matrix_algebra(QQ, 3, (0, 0)))
    for g in enumerate_good_gradings(3, 1):
        assert stable(good_grading_matrix_algebra(QQ, 3, g.f)) == base
    print("PASS criterion 6: unit class certified; regrading round-trip fixes "
          "descriptors for quaternions and all 9 gradings")


def test_criterion_7_homology_of_tensors_multiplies():
    gens = [a for _, a in generators(QQ)]
    pairs = list(itertools.product(gens, repeat=2))
    assert len(pairs) >= 10
    for A, B in pairs:
        rep = kunneth_check(A, B)
        assert rep.matches, (rep.left, rep.right)
    print(f"PASS criterion 7: homology of the tensor matched the convolution "
          f"on all {len(pairs)} pairs")


def test_criterion_8_nine_gradings_of_the_three_by_three_algebra():
    gradings = enumerate_good_gradings(3, 1)
    assert len(gradings) == 9
    assert len({g.f for g in gradings}) == 9
    tables = {tuple(g.degree(i, j) for i in range(1, 4) for j in range(1, 4)) for g in gradings}
    assert len(tables) == 9
    for g in gradings:
        A = good_grading_matrix_algebra(QQ, 3, g.f)
        assert A.validate() == []
        assert A.dcols == {}
        assert center(A).space.total_dim == 1
    print("PASS criterion 8: 9 distinct gradings, all valid with zero "
          "differential and trivial center")


def test_criterion_9_axiom_closure_under_constructions():
    rng = random.Random(2026)
    t0 = time.perf_counter()
    for k in range(100):
        field = QQ if k % 2 == 0 else GF(5)
        A = random_algebra(rng, field)
        assert A.validate() == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 9: 100 randomized constructions clean in {elapsed:.2f}s")
