"""Ready-made algebras, random desk-scale generators, and demo scenarios.

The scenario registry backs the command line's `catalog` subcommand; each
entry recomputes a full worked example from scratch and reports what it
checked, so a passing run is a live verification rather than a claim.
"""
from __future__ import annotations

import random

from .brauer import (
    forget_descriptor,
    idempotent_containment,
    kunneth_check,
    quaternion_algebra,
    sandwich_iso,
    structure_realize,
    verify_dg_iso,
)
from .dg import (
    DgAlgebra,
    KComplex,
    is_tgr_semisimple,
    opposite,
    regrade_trivial,
    swap_map,
    tensor_product,
    trivial_dg,
    unsigned_swap_map,
)
from .errors import ShapeMismatch
from .fields import GF, QQ
from .graded import GradedVectorSpace, HomogeneousMap, add_into
from .homs import end_dg_algebra
from .linalg import kernel_columns
from .matrix_algebras import (
    GoodGrading,
    _unit_label,
    enumerate_good_gradings,
    good_grading_matrix_algebra,
    inner_differential,
)


# -- named constructions --------------------------------------------------------


def neutral(field) -> DgAlgebra:
    """The base field as a one-dimensional dg-algebra in degree 0."""
    return good_grading_matrix_algebra(field, 1, ())


def dual_numbers(field) -> DgAlgebra:
    """Basis 1 and X with |X| = -1, X*X = 0, d(X) = 1; acyclic."""
    one = field.one
    space = GradedVectorSpace({-1: 1, 0: 1}, {-1: ("X",), 0: ("1",)})
    table = {(1, 1): {1: one}, (1, 0): {0: one}, (0, 1): {0: one}}
    return DgAlgebra.build(field, space, {1: one}, table, {0: {1: one}})


def mat2_inner(field=QQ) -> DgAlgebra:
    """2x2 matrices, superdiagonal degree 1, differential by z = e12."""
    A = good_grading_matrix_algebra(field, 2, (1,))
    return inner_differential(A, A.element({"e12": 1}))


def mat3_inner(field=QQ) -> DgAlgebra:
    """3x3 matrices, degrees (1,1), differential by the square-zero z = e12."""
    A = good_grading_matrix_algebra(field, 3, (1, 1))
    return inner_differential(A, A.element({"e12": 1}))


def split_pair(field) -> DgAlgebra:
    """K x K in degree 0: two orthogonal idempotents, center of dimension 2."""
    one = field.one
    return trivial_dg(field, ("p", "q"), {0: one, 1: one},
                      {(0, 0): {0: one}, (1, 1): {1: one}})


def generators(field):
    """Named small algebras used for pairwise property checks."""
    out = [
        ("neutral", neutral(field)),
        ("dual-numbers", dual_numbers(field)),
        ("mat2-graded", good_grading_matrix_algebra(field, 2, (1,))),
        ("mat2-inner", mat2_inner(field)),
        ("mat2-flat", good_grading_matrix_algebra(field, 2, (0,))),
        ("mat3-inner", mat3_inner(field)),
        ("split-pair", split_pair(field)),
    ]
    if field.characteristic() != 2:
        out.append(("quaternions", quaternion_algebra(field, -1, -1)))
    return out


# -- randomized constructions ----------------------------------------------------


def random_complex(rng: random.Random, field, max_total: int = 3,
                   degree_window=(-2, 2)) -> KComplex:
    """A random bounded complex; d is sampled inside the kernel of the next d.

    Building columns of each differential block from the kernel of the block
    above keeps d squared exactly zero without rejection sampling.
    """
    total = rng.randint(1, max_total)
    lo, hi = degree_window
    space, _ = GradedVectorSpace.numbered("v", [(rng.randint(lo, hi), None) for _ in range(total)])
    dims = space.dims

    dcols: dict = {}
    kernel: dict = {}  # degree -> flat vectors of that degree killed by d
    for k in sorted(dims, reverse=True):
        base = space.flat_index(k, 0)
        if k + 1 not in dims:
            kernel[k] = [{base + s: field.one} for s in range(dims[k])]
            continue
        cols = {}
        for s in range(dims[k]):
            acc: dict = {}
            for kc in kernel[k + 1]:
                c = field.coerce(rng.randint(-1, 1))
                if not field.is_zero(c):
                    add_into(field, acc, kc, scale=c)
            cols[s] = dcols[base + s] = acc
        basis, _ = kernel_columns(field, cols, dims[k])
        kernel[k] = [{base + t: x for t, x in v.items()} for v in basis.values()]
    return KComplex(field, space, dcols)


def random_square_zero_inner(rng: random.Random, field, n: int = None) -> DgAlgebra:
    """A good-graded matrix algebra with a random single-unit inner differential."""
    n = n or rng.choice([2, 3])
    g = GoodGrading(n, tuple(rng.randint(-1, 1) for _ in range(n - 1)))
    A = good_grading_matrix_algebra(field, n, g.f)
    deg1 = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and g.degree(i, j) == 1
    ]
    if not deg1 or rng.random() < 0.25:
        return A
    i, j = rng.choice(deg1)
    # a single off-diagonal unit squares to zero, so d_z is always accepted
    return inner_differential(A, A.element({_unit_label(n, i, j): 1}))


def random_algebra(rng: random.Random, field) -> DgAlgebra:
    """One random desk-scale construction; used by the axiom-closure suite."""
    kind = rng.randrange(5)
    if kind == 0:
        return tensor_product(random_small(rng, field), random_small(rng, field))
    if kind == 1:
        return opposite(random_algebra(rng, field))
    if kind == 2:
        return end_dg_algebra(random_complex(rng, field))
    if kind == 3:
        return random_square_zero_inner(rng, field)
    return random_small(rng, field)


def random_small(rng: random.Random, field) -> DgAlgebra:
    pool = generators(field)
    return rng.choice(pool)[1]


# -- scenario registry for the command line ---------------------------------------


def _fmt_dims(dims: dict) -> str:
    return "{" + ", ".join(f"{k}: {v}" for k, v in sorted(dims.items())) + "}"


def scenario_dual_numbers():
    A = dual_numbers(QQ)
    rep = is_tgr_semisimple(A)
    desc = forget_descriptor(A)
    ok = (
        rep.acyclic
        and rep.kernel_dims == {0: 1}
        and rep.verdict is True
        and (desc.dimension, desc.center_dimension, desc.is_central_simple) == (2, 2, False)
    )
    lines = [
        f"homology dims: {_fmt_dims(rep.homology_dims)} (expected empty)",
        f"kernel dims: {_fmt_dims(rep.kernel_dims)}",
        f"acyclic with semisimple kernel: {rep.verdict}",
        f"central simple: {desc.is_central_simple}",
        f"ungraded descriptor: dim {desc.dimension}, center {desc.center_dimension}, "
        f"central simple {desc.is_central_simple}",
    ]
    payload = {
        "homology_dims": rep.homology_dims,
        "kernel_dims": rep.kernel_dims,
        "tgr_semisimple": rep.verdict,
        "central_simple": desc.is_central_simple,
        "descriptor": [desc.dimension, desc.center_dimension, desc.is_central_simple],
    }
    return ok, lines, payload


def scenario_dual_tensor_square():
    A = dual_numbers(GF(2))
    T = tensor_product(A, A)
    repA = is_tgr_semisimple(A)
    repT = is_tgr_semisimple(T)
    krep = repT.kernel_report
    ok = (
        dict(T.space.dims) == {0: 1, -1: 2, -2: 1}
        and repT.kernel_dims == {0: 1, -1: 1}
        and krep.verdict is False
        and repA.verdict is True
        and repT.verdict is False
    )
    lines = [
        f"tensor square dims: {_fmt_dims(dict(T.space.dims))}",
        f"kernel dims: {_fmt_dims(repT.kernel_dims)}",
        f"kernel semisimple: {krep.verdict} ({krep.method})",
        f"factor semisimple: {repA.verdict}; tensor square semisimple: {repT.verdict}",
    ]
    payload = {
        "tensor_dims": dict(T.space.dims),
        "kernel_dims": repT.kernel_dims,
        "kernel_semisimple": krep.verdict,
        "factor_tgr": repA.verdict,
        "square_tgr": repT.verdict,
    }
    return ok, lines, payload


def scenario_tensor_swap():
    A = dual_numbers(QQ)
    B = mat2_inner(QQ)
    T1 = tensor_product(A, B)
    T2 = tensor_product(B, A)
    good = verify_dg_iso(T1, T2, swap_map(A, B))
    bad = verify_dg_iso(T1, T2, unsigned_swap_map(A, B))
    ok = good.verified and not bad.checks.is_algebra_hom
    lines = [
        f"signed swap verified: {good.verified}",
        f"unsigned swap multiplicative: {bad.checks.is_algebra_hom} "
        f"(failing pairs: {list(bad.checks.failures[:2])})",
    ]
    payload = {
        "signed_verified": good.verified,
        "unsigned_multiplicative": bad.checks.is_algebra_hom,
    }
    return ok, lines, payload


def scenario_sandwich_mat2():
    A = mat2_inner(QQ)
    w = sandwich_iso(A)
    c = w.checks
    ok = w.verified and w.source.dim == 16
    lines = [
        f"source dim: {w.source.dim} (expected 16)",
        f"algebra hom: {c.is_algebra_hom}, unital: {c.is_unital}, "
        f"d-compatible: {c.commutes_with_d}, bijective: {c.is_bijective}",
    ]
    payload = {
        "dim": w.source.dim,
        "checks": [c.is_algebra_hom, c.is_unital, c.commutes_with_d, c.is_bijective],
    }
    return ok, lines, payload


def scenario_structure_mat2():
    A = mat2_inner(QQ)
    sr = structure_realize(A)
    cert2, _ = idempotent_containment(A, 2)
    ok = (
        dict(sr.L.space.dims) == {-1: 1, 0: 1}
        and sr.witness.verified
        and sr.idempotent.index == 1
        and cert2.contained
    )
    lines = [
        f"L dims: {_fmt_dims(dict(sr.L.space.dims))}",
        f"witness verified: {sr.witness.verified}",
        f"chosen idempotent: {sr.idempotent.index}; "
        f"index 2 contained: {cert2.contained} "
        f"(ideal dims {_fmt_dims(cert2.ideal_dims)} inside {_fmt_dims(cert2.span_dims)})",
    ]
    payload = {
        "L_dims": dict(sr.L.space.dims),
        "verified": sr.witness.verified,
        "idempotent": sr.idempotent.index,
        "index2_contained": cert2.contained,
    }
    return ok, lines, payload


def unit_equivalence_witness(A: DgAlgebra, sr) -> "IsoWitness":
    """A (x) End(point) -> K (x) End(L) assembled from a structure witness.

    The sides are those of ``equivalence_sides(A, K, point, sr.L)``, but End(L)
    is the target of ``sr.witness``, which ``structure_realize`` built and
    verified, so only End(point) is built here.  Both unit identifications
    are index-faithful: tensoring with the one-dimensional factor keeps the
    flat order of the other side, so the realization map's columns transfer
    verbatim.
    """
    field = A.field
    T1 = tensor_product(A, end_dg_algebra(KComplex.point(field)))
    T2 = tensor_product(neutral(field), sr.witness.target)
    m = HomogeneousMap(field, T1.space, T2.space, 0, sr.witness.map.flat_columns())
    return verify_dg_iso(T1, T2, m)


def scenario_equivalence_unit():
    A = mat2_inner(QQ)
    sr = structure_realize(A)
    w = unit_equivalence_witness(A, sr)
    Q = quaternion_algebra(QQ, -1, -1)
    all_match = forget_descriptor(Q) == forget_descriptor(regrade_trivial(Q))
    flat = forget_descriptor(good_grading_matrix_algebra(QQ, 3, (0, 0)))
    for g in enumerate_good_gradings(3, 1):
        M = good_grading_matrix_algebra(QQ, 3, g.f)
        all_match &= forget_descriptor(M) == forget_descriptor(regrade_trivial(M)) == flat
    ok = w.verified and all_match
    lines = [
        f"tensor-unit equivalence verified: {w.verified}",
        "descriptors stable under regrading: " + str(all_match),
    ]
    payload = {"equivalence_verified": w.verified, "descriptors_stable": all_match}
    return ok, lines, payload


def scenario_kunneth():
    pairs = [
        (mat2_inner(QQ), dual_numbers(QQ)),
        (good_grading_matrix_algebra(QQ, 2, (1,)), good_grading_matrix_algebra(QQ, 2, (0,))),
        (dual_numbers(QQ), split_pair(QQ)),
    ]
    reports = [kunneth_check(a, b) for a, b in pairs]
    ok = all(r.matches for r in reports)
    lines = [
        f"pair {t}: homology dims {_fmt_dims(r.left)} == convolution {_fmt_dims(r.right)}: {r.matches}"
        for t, r in enumerate(reports)
    ]
    payload = {"matches": [r.matches for r in reports]}
    return ok, lines, payload


SCENARIOS = {
    "dual-numbers": scenario_dual_numbers,
    "dual-tensor-square-f2": scenario_dual_tensor_square,
    "tensor-swap": scenario_tensor_swap,
    "sandwich-mat2": scenario_sandwich_mat2,
    "structure-mat2": scenario_structure_mat2,
    "equivalence-unit": scenario_equivalence_unit,
    "kunneth": scenario_kunneth,
}


def run_scenario(name: str):
    if name not in SCENARIOS:
        raise ShapeMismatch(
            f"unknown catalog entry {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    return SCENARIOS[name]()
