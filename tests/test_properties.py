"""Randomized invariants.  Example counts stay small; every case is exact."""
import itertools
import random

import pytest
from dense_oracle import (
    dense_candidates,
    dense_center,
    dense_homology,
    dense_inverse,
    dense_kernel_basis,
    dense_nil_members,
    dense_realization,
    dense_rref,
    dense_solve,
    dense_span_member,
    dense_trace_radical,
    dense_validate_structure,
    full_iso_checks,
    table_product,
)
from hypothesis import given, settings, strategies as st

from dgbr.brauer import (
    choose_structure_idempotent,
    forget_descriptor,
    idempotent_containment,
    is_central_simple,
    lambda_map,
    rho_map,
    sandwich_map,
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
    random_complex,
    split_pair,
    unit_equivalence_witness,
)
from dgbr import dg
from dgbr.brauer import structure_realize
from dgbr.dg import (
    DgAlgebra,
    KComplex,
    center,
    homology,
    homology_dims,
    is_semisimple_ungraded,
    kernel_subalgebra,
    ksign,
    negate_coeffs,
    opposite,
    regrade_trivial,
    swap_map,
    tensor_complex,
    tensor_product,
    unsigned_swap_map,
    validate_structure,
)
from dgbr.errors import DgError, NoSuitableIdempotent, NotCentralSimple
from dgbr.fields import GF, QQ
from dgbr.formats import parse_algebra_text, serialize_algebra
from dgbr.graded import (
    GradedVectorSpace,
    HomogeneousMap,
    add_into,
    clean_coeffs,
    kernel_of,
    operator_of,
    operators,
    quotient_by,
)
from dgbr.homs import end_dg_algebra
from dgbr.linalg import Factored
from dgbr.matrix_algebras import good_grading_matrix_algebra, inner_differential

FIELDS = [QQ, GF(2), GF(3), GF(5)]
fields = st.sampled_from(FIELDS)
seeds = st.integers(0, 10**6)

_POOLS = {f: [A for _, A in generators(f)] for f in FIELDS}
_SMALL = {f: [A for A in pool if A.dim <= 4] for f, pool in _POOLS.items()}

LARGE_PRIME = GF(1000003)
_NAMED = {f: dict(generators(f)) for f in (QQ, LARGE_PRIME)}


@given(m=st.integers(-30, 30), n=st.integers(-30, 30), k=st.integers(-30, 30))
def test_ksign_symmetric_and_biadditive(m, n, k):
    assert ksign(m, n) == ksign(n, m)
    assert ksign(m + k, n) == ksign(m, n) * ksign(k, n)
    assert ksign(m, n + k) == ksign(m, n) * ksign(m, k)


@given(field=fields, i=st.integers(0, 10**9), j=st.integers(0, 10**9))
@settings(max_examples=15, deadline=None)
def test_swap_is_an_isomorphism_of_tensor_factors(field, i, j):
    pool = _SMALL[field]
    A, B = pool[i % len(pool)], pool[j % len(pool)]
    w = verify_dg_iso(tensor_product(A, B), tensor_product(B, A), swap_map(A, B))
    assert w.verified, w.failure


@given(field=fields, i=st.integers(0, 10**9), a=st.integers(0, 10**9),
       b=st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_left_and_right_actions_commute_up_to_parity(field, i, a, b):
    pool = _POOLS[field]
    A = pool[i % len(pool)]
    a %= A.dim
    b %= A.dim
    one = A.field.one
    la, rb = lambda_map(A, {a: one}), rho_map(A, {b: one})
    expected = la.compose(rb).flat_columns()
    if ksign(A.degree_of(a), A.degree_of(b)) < 0:
        expected = {j: negate_coeffs(A.field, c) for j, c in expected.items()}
    assert rb.compose(la).flat_columns() == expected


@given(field=fields, i=st.integers(0, 10**9), a=st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_action_maps_intertwine_the_differential(field, i, a):
    pool = _POOLS[field]
    A = pool[i % len(pool)]
    a %= A.dim
    E = end_dg_algebra(A.complex())
    u = {a: A.field.one}
    du = A.d_apply(u)
    for action in (lambda_map, rho_map):
        assert E.hom.from_map(action(A, du)) == E.d_apply(E.hom.from_map(action(A, u)))


@given(field=st.sampled_from([QQ, GF(2), GF(7)]), seed=seeds, named=st.booleans())
@settings(max_examples=40, deadline=None)
def test_operator_of_an_element_is_multiplication_by_it(field, seed, named):
    """Over L column k is u * e_k, over R it is e_k * u, for u with several
    terms and coefficients other than one; an absent column is a zero product."""
    rng = random.Random(seed)
    if named:
        A = rng.choice([A for _, A in generators(field)])
    else:
        A = random_algebra(rng, field)
    terms = rng.sample(range(A.dim), min(A.dim, rng.randint(1, 3)))
    u = A.coeffs({i: rng.choice([2, 3, -1, 5]) for i in terms})
    L, R = operators(A.table)
    left, right = operator_of(field, L, u), operator_of(field, R, u)
    for k in range(A.dim):
        assert left.get(k, {}) == A.mul(u, {k: field.one})
        assert right.get(k, {}) == A.mul({k: field.one}, u)


@given(field=st.sampled_from([QQ, GF(2), GF(7)]), seed=seeds, named=st.booleans())
@settings(max_examples=60, deadline=None)
def test_mul_is_the_table_summed_over_both_factors(field, seed, named):
    """``A.mul`` agrees with the table summed term by term, on random sparse
    elements with several terms, coefficients other than one, and zero."""
    rng = random.Random(seed)
    A = rng.choice([A for _, A in generators(field)]) if named else random_algebra(rng, field)

    def element():
        terms = rng.sample(range(A.dim), min(A.dim, rng.randint(0, 4)))
        return A.coeffs({i: rng.choice([1, 2, 3, -1, 5]) for i in terms})

    for _ in range(5):
        u, v = element(), element()
        assert A.mul(u, v) == table_product(A, u, v)
        assert A.mul(u, {}) == A.mul({}, v) == {}


@given(field=fields, seed=seeds)
@settings(max_examples=20, deadline=None)
def test_double_opposite_restores_the_algebra(field, seed):
    A = random_algebra(random.Random(seed), field)
    assert opposite(opposite(A)) == A


@given(field=fields, seed=seeds)
@settings(max_examples=20, deadline=None)
def test_random_constructions_satisfy_all_axioms(field, seed):
    A = random_algebra(random.Random(seed), field)
    assert A.validate() == []


@given(field=fields, seed=seeds)
@settings(max_examples=20, deadline=None)
def test_serialization_roundtrip_on_random_algebras(field, seed):
    A = random_algebra(random.Random(seed), field)
    text = serialize_algebra(A)
    B = parse_algebra_text(text)
    assert B == A
    assert serialize_algebra(B) == text


@given(field=fields, seed=seeds)
@settings(max_examples=20, deadline=None)
def test_random_complex_differential_squares_to_zero(field, seed):
    C = random_complex(random.Random(seed), field, max_total=5)
    d = C.differential_map()
    for j in range(C.space.total_dim):
        assert d.apply_flat(d.apply_flat({j: field.one})) == {}


def test_equivalence_witness_is_symmetric():
    A = mat2_inner(QQ)
    sr = structure_realize(A)
    w = unit_equivalence_witness(A, sr)
    B = neutral(QQ)
    pt = KComplex.point(QQ)
    assert verify_equivalence(A, B, pt, sr.L, w.map).verified
    inv = w.map.inverse()
    assert inv is not None
    assert verify_equivalence(B, A, sr.L, pt, inv).verified


def test_forgetting_the_grading_of_a_split_pair():
    d = forget_descriptor(split_pair(QQ))
    assert (d.dimension, d.center_dimension, d.is_central_simple) == (2, 2, False)


def _elimination_dims(A):
    return (
        homology(A).space.dims,
        kernel_subalgebra(A).algebra.space.dims,
        center(A).space.dims,
    )


@pytest.mark.parametrize("left,right", list(itertools.combinations_with_replacement(
    [name for name, _ in generators(QQ)], 2)))
def test_elimination_dims_agree_over_qq_and_a_large_prime(left, right):
    """homology, kernel and center see the same dims over QQ and GF(1000003)."""
    over = {
        f: _elimination_dims(tensor_product(_NAMED[f][left], _NAMED[f][right]))
        for f in _NAMED
    }
    assert over[QQ] == over[LARGE_PRIME]


_ORACLE_GENS = {f: [A for _, A in generators(f)] for f in (QQ, GF(7))}


def _basis_cases(field):
    """The catalog generators, their pairwise tensor products and twenty random constructions."""
    gens = [A for _, A in generators(field)]
    cases = gens + [tensor_product(A, B) for A in gens for B in gens]
    rng = random.Random(7)
    return cases + [random_algebra(rng, field) for _ in range(20)]


def _sparse(v):
    """A radical vector as a sparse dict; a per-degree vector is read through ``flat``."""
    return v.flat() if hasattr(v, "flat") else v


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_center_and_trace_radical_bases_match_the_dense_oracle(field):
    traced = 0
    for A in _basis_cases(field):
        assert center(A).inclusion.flat_columns() == dict(enumerate(dense_center(A)))
        rep = is_semisimple_ungraded(A)
        if rep.method == "trace-form" and A.dim:
            assert [_sparse(v) for v in rep.radical] == dense_trace_radical(A)
            traced += 1
    assert traced


def _certified_center_cases(field):
    """Good-graded Mat_2-Mat_4 with d = [e12, -], two tensor products of them
    and End of random complexes: every hint here certifies its algebra."""
    mats = []
    for n in (2, 3, 4):
        M = good_grading_matrix_algebra(field, n, (1,) * (n - 1))
        mats.append(inner_differential(M, M.element({"e12": 1})))
    rng = random.Random(13)
    ends = [end_dg_algebra(C) for C in (random_complex(rng, field, max_total=4) for _ in range(8))
            if C.space.total_dim > 1]
    return mats + [tensor_product(mats[0], mats[0]), tensor_product(mats[0], mats[1])] + ends


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_center_rows_come_from_certified_generators(field, monkeypatch):
    """A certified hint restricts the commutator rows (j, m) to j among its
    basis terms and leaves the center's basis that of the dense oracle; a hint
    one unit short certifies nothing and keeps every row."""
    rows = []
    kernel_columns = dg.kernel_columns

    def spy(f, cols, n):
        rows.append({j for col in cols.values() for j, _ in col})
        return kernel_columns(f, cols, n)

    monkeypatch.setattr(dg, "kernel_columns", spy)
    for A in _certified_center_cases(field):
        assert A.generators_certified
        assert center(A).inclusion.flat_columns() == dict(enumerate(dense_center(A)))
        assert rows[-1] <= {i for s in A.generators for i in s}
    M = good_grading_matrix_algebra(field, 3, (1, 1))
    B = DgAlgebra.build(field, M.space, M.unit, M.table, M.dcols, generators=M.generators[1:])
    assert not B.generators_certified
    assert center(B).inclusion.flat_columns() == dict(enumerate(dense_center(B)))
    every = {j for s in range(B.dim) for j in range(B.dim)
             if B.table.get((s, j), {}) != B.table.get((j, s), {})}
    assert rows[-1] == every and not every <= {i for s in B.generators for i in s}


@pytest.mark.parametrize("p", [2, 3])
def test_nil_members_are_the_radical_span(p):
    """{x : xa nilpotent for all a} is closed under addition and is the span of
    the radical that ``is_semisimple_ungraded`` reports, on catalog algebras and
    their tensor products with p^dim <= 256."""
    gens = [A for _, A in generators(GF(p)) if p ** A.dim <= 256]
    cases = gens + [T for A, B in itertools.combinations_with_replacement(gens, 2)
                    if p ** (T := tensor_product(A, B)).dim <= 256]
    for A in cases:
        members = dense_nil_members(A)
        sums = {tuple((a + b) % p for a, b in zip(x, y)) for x in members for y in members}
        assert sums == members
        radical = [[_sparse(v).get(i, 0) for i in range(A.dim)]
                   for v in is_semisimple_ungraded(A).radical]
        span = {
            tuple(sum(c * v[i] for c, v in zip(cs, radical)) % p for i in range(A.dim))
            for cs in itertools.product(range(p), repeat=len(radical))
        }
        assert span == members


# -- cosets: the structure theorem and homology against the dense oracle ------------


def _rebased(A, s, v):
    """A in the basis whose slot s holds v, of the same degree, in place of e_s."""
    basis = [v if t == s else {t: A.field.one} for t in range(A.dim)]
    solve = Factored(A.field, basis).solve
    table = {(i, j): solve(A.mul(x, y)) for i, x in enumerate(basis) for j, y in enumerate(basis)}
    dcols = {i: solve(A.d_apply(x)) for i, x in enumerate(basis)}
    return DgAlgebra.build(A.field, A.space, solve(A.unit), table, dcols)


def _inner_matrix_cases(field):
    """Good-graded Mat_2-Mat_4 (superdiagonal degrees -1..2) with d = [u, -] for
    each degree-1 unit u, and their opposites.  Mat_4 keeps every fourth grading.
    When e12 has degree 0, the Mat_3 cases also come with e12 replaced by
    e11 + e12 in the basis, so that e21 * e11 and (e11 + e12) * e11 coincide."""
    out = []
    for n in (2, 3, 4):
        grads = list(itertools.product(range(-1, 3), repeat=n - 1))
        for f in grads[::4] if n == 4 else grads:
            A = good_grading_matrix_algebra(field, n, f)
            unit = {A.label_of(u): u for u in range(A.dim)}
            for i, j in itertools.product(range(1, n + 1), repeat=2):
                u = unit[f"e{i}{j}"]
                if i != j and A.degree_of(u) == 1:
                    B = inner_differential(A, {u: field.one})
                    out += [B, opposite(B)]
                    if n == 3 and f[0] == 0:
                        e11, e12 = unit["e11"], unit["e12"]
                        out.append(_rebased(B, e12, {e11: field.one, e12: field.one}))
    return out


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_structure_realization_matches_the_dense_oracle(field):
    """L's dims, labels and d, the witness map, the chosen idempotent and every
    candidate's containment certificate, entry for entry."""
    cases = _inner_matrix_cases(field)
    realized = 0
    for A in cases:
        want = dense_realization(A)
        for i, (ideal_dims, span_dims, contained, witness) in enumerate(want["certs"], 1):
            cert, wit = idempotent_containment(A, i)
            assert (cert.index, cert.ideal_dims, cert.span_dims, cert.contained) == \
                (i, ideal_dims, span_dims, contained)
            assert wit == witness
        if want["index"] is None:
            with pytest.raises(NoSuitableIdempotent):
                choose_structure_idempotent(A)
            continue
        sr = structure_realize(A)
        choice = sr.idempotent
        assert choice.index == want["index"]
        assert choice.witness == want["certs"][choice.index - 1][3]
        assert [c.index for c in choice.rejected] == list(range(1, choice.index))
        assert sr.L.space.dims == want["dims"]
        assert sr.L.space.all_labels() == want["labels"]
        assert sr.L.dcols == want["dcols"]
        E = sr.witness.target
        for a in range(A.dim):
            assert sr.witness.map.cols.get(a, {}) == {
                E.hom.unit_index[(s, t)]: c for s, col in want["lmaps"][a].items() for t, c in col.items()}
        realized += 1
    assert realized == len(cases)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_structure_realize_refuses_exactly_the_non_central_simple(field):
    """NotCentralSimple exactly when is_central_simple is False; any other
    outcome, a realization or another refusal, is on a central simple algebra."""
    gens = [A for _, A in generators(field)]
    rng = random.Random(12)
    cases = [tensor_product(A, B) for A, B in itertools.combinations_with_replacement(gens, 2)] \
        + [random_algebra(rng, field) for _ in range(40)]
    outcomes = []
    for A in cases:
        try:
            structure_realize(A)
            outcome = "realized"
        except NotCentralSimple:
            outcome = "not central simple"
        except DgError:
            outcome = "refused"
        assert (outcome == "not central simple") == (not is_central_simple(A))
        outcomes.append(outcome)
    assert {"realized", "not central simple"} <= set(outcomes)


def _homology_cases(field):
    gens = [A for _, A in generators(field)]
    rng = random.Random(11)
    return [tensor_product(A, B) for A, B in itertools.combinations_with_replacement(gens, 2)] \
        + [random_algebra(rng, field) for _ in range(30)]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_homology_matches_the_dense_oracle(field):
    """Representatives from the pivots of [B | Z] and the product table by dense solves."""
    for A in _homology_cases(field):
        dims, table, unit = dense_homology(A)
        H = homology(A)
        assert (H.space.dims, H.table, H.unit) == (dims, table, unit)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_boundaries_are_an_ideal_of_the_cycles(field):
    """b*z and z*b lie in span(B) for every boundary b and cycle z, which
    ``homology`` takes from the Leibniz rule; Z and B by dense elimination."""
    for A in _homology_cases(field):
        n = A.dim
        rows = [tuple(A.dcols.get(j, {}).get(i, field.zero) for j in range(n)) for i in range(n)]
        basis, pivots = dense_kernel_basis(field, rows, n)
        cycles = [{i: x for i, x in enumerate(v) if not field.is_zero(x)} for v in basis]
        boundaries = [A.dcols[j] for j in pivots]
        in_b = dense_span_member(field, n, boundaries)
        for b in boundaries:
            for z in cycles:
                assert in_b(A.mul(b, z)) and in_b(A.mul(z, b))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_structure_ideal_n_is_d_stable(field):
    """d(A*d(e)) lies in A*d(e) for every diagonal idempotent e, which the
    structure theorem takes from the Leibniz rule; decided by dense elimination."""
    for A in _inner_matrix_cases(field):
        for e in dense_candidates(A):
            de = A.d_apply(e)
            n = [p for p in (A.mul({k: field.one}, de) for k in range(A.dim)) if p]
            in_n = dense_span_member(field, A.dim, n)
            assert all(in_n(A.d_apply(v)) for v in n)


# -- isomorphism checks against the complete loop --------------------------------


def _iso_cases(field):
    """(A, B, m): signed and unsigned swaps of the pairwise tensor products of
    the catalog and the ungraded dual numbers, structure witnesses against
    End(L), its opposite and between the two opposites, and the sandwich maps
    of good-graded Mat_2 and Mat_3, with and without d = [e12, -]."""
    gens = [A for _, A in generators(field)] + [regrade_trivial(dual_numbers(field))]
    out = []
    for A, B in itertools.product(gens, repeat=2):
        T1, T2 = tensor_product(A, B), tensor_product(B, A)
        out += [(T1, T2, swap_map(A, B)), (T1, T2, unsigned_swap_map(A, B))]
    for A in (mat2_inner(field), mat3_inner(field), good_grading_matrix_algebra(field, 3, (0, 1))):
        w = structure_realize(A).witness
        E, m = w.target, w.map
        out += [(A, E, m), (A, opposite(E), m), (opposite(A), opposite(E), m)]
    for n in (2, 3):
        M = good_grading_matrix_algebra(field, n, (1,) * (n - 1))
        for A in (M, inner_differential(M, M.element({"e12": 1}))):
            T, E = tensor_product(A, opposite(A)), end_dg_algebra(A.complex())
            out.append((T, E, sandwich_map(A, T, E)))
    return out


def _broken(A, m):
    """m with the column of the first hint term doubled, with the image of the
    first degree-0 hint term added to the column of the unit's first term, with
    the last column outside the hint zeroed, and the zero map, which is not
    unital.  On the ungraded dual numbers, 1 -> 1 + X and X -> X is not unital
    but multiplicative on the hint row X."""
    f = A.field
    cols = m.flat_columns()
    hint = sorted({i for s in A.generators or () for i in s})
    rest = [i for i in range(A.dim) if i not in hint]
    out = [{}]
    if hint:
        out.append({**cols, hint[0]: {k: f.add(c, c) for k, c in cols.get(hint[0], {}).items()}})
    h = next((i for i in hint if A.degree_of(i) == 0), None)
    if h is not None:
        u = min(A.unit)
        shifted = dict(cols.get(u, {}))
        add_into(f, shifted, cols.get(h, {}))
        out.append({**cols, u: shifted})
    if rest:
        out.append({k: v for k, v in cols.items() if k != rest[-1]})
    return [HomogeneousMap(f, m.source, m.target, 0, c) for c in out]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_iso_checks_match_the_complete_loop(field):
    """Every field of IsoChecks, the failures tuple included, equals the loop
    over all basis pairs, on verified maps and on maps broken on and off the hint."""
    hinted = verified = 0
    for A, B, m in _iso_cases(field):
        w = verify_dg_iso(A, B, m)
        assert w.checks == full_iso_checks(A, B, m)
        if not w.verified:
            continue
        verified += 1
        hinted += A.generators_certified
        for bad in _broken(A, m):
            assert verify_dg_iso(A, B, bad).checks == full_iso_checks(A, B, bad)
    assert verified and hinted


DEFECTS = ("new-product", "coefficient", "delete", "d-column", "d-entry")


def _perturb(draw, field, cols, keys, rows, defect, n):
    """A copy of sparse columns with one defect: a column at a key that had
    none, one entry of a present column changed, a column deleted, or one
    entry of any column (a d column) changed; the entry's row is from ``rows``."""
    cols = {k: dict(v) for k, v in cols.items()}
    present = sorted(cols)
    absent = [k for k in keys if k not in cols]
    row = draw(st.sampled_from(rows))
    if defect == "new-product" and absent:
        cols[draw(st.sampled_from(absent))] = {row: draw(st.sampled_from((1, 2, -1)))}
    elif defect == "delete" and present:
        del cols[draw(st.sampled_from(present))]
    else:
        key = draw(st.sampled_from(present if defect == "coefficient" and present else keys))
        cols.setdefault(key, {})[row] = draw(st.sampled_from((0, 1, 2, -1)))
    return {k: c for k, c in ((k, clean_coeffs(field, v, n, "row")) for k, v in cols.items()) if c}


def _hinted(draw, field):
    """An algebra built with a generator hint: a good-graded Mat_2-4 with or
    without d = [e12, -], maybe opposite, a tensor product of two small ones,
    or End of a random complex."""
    def matrix(sizes):
        n = draw(st.sampled_from(sizes))
        f = draw(st.lists(st.integers(-1, 1), min_size=n - 1, max_size=n - 1))
        inner = draw(st.booleans())
        A = good_grading_matrix_algebra(field, n, [1, *f[1:]] if inner else f)
        if inner:
            A = inner_differential(A, A.element({"e12": 1}))
        return opposite(A) if draw(st.booleans()) else A

    kind = draw(st.sampled_from(("matrix", "tensor", "end")))
    if kind == "matrix":
        return matrix((2, 3, 4))
    if kind == "tensor":
        return tensor_product(matrix((2, 3)), matrix((2,)))
    return end_dg_algebra(random_complex(random.Random(draw(seeds)), field, max_total=4))


def _other_hints(A):
    """No hint, and bad hints: empty, one basis element, the algebra's own
    hint without its last vector (homogeneous but, for a matrix cycle, not
    generating), and its own hint plus a vector that may be inhomogeneous or
    one out of range."""
    one, n = A.field.one, A.dim
    own = list(A.generators or [])
    return [None, [], [{0: one}], own[:-1], own + [{0: one, n - 1: one}], own + [{n: one}]]


@st.composite
def perturbed_structures(draw):
    """(hint, arguments of ``validate_structure``) for a catalog algebra, a
    tensor product of two or a hinted algebra, with up to three defects in
    its product table and its differential.  The hint is the algebra's own
    or, as often, one from ``_other_hints``."""
    field = draw(st.sampled_from(list(_ORACLE_GENS)))
    gens = _ORACLE_GENS[field]
    if draw(st.booleans()):
        A = draw(st.sampled_from(gens))
        if draw(st.booleans()):
            A = tensor_product(A, draw(st.sampled_from(gens)))
    else:
        A = _hinted(draw, field)
    table, dcols, n = A.table, A.dcols, A.dim
    keys = [(i, j) for i in range(n) for j in range(n)]
    deg = A.space.flat_degrees()
    for _ in range(draw(st.integers(0, 3))):
        defect = draw(st.sampled_from(DEFECTS))
        if defect == "d-column":
            dcols = _perturb(draw, field, dcols, range(n), range(n), defect, n)
        elif defect == "d-entry":  # a row one degree up, so d keeps degree +1
            key = draw(st.integers(0, n - 1))
            rows = [k for k in range(n) if deg[k] == deg[key] + 1]
            if rows:
                dcols = _perturb(draw, field, dcols, [key], rows, defect, n)
        else:
            table = _perturb(draw, field, table, keys, range(n), defect, n)
    hint = draw(st.one_of(st.just(A.generators), st.sampled_from(_other_hints(A))))
    return hint, (field, A.space, A.unit, table, dcols)


@given(case=perturbed_structures())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_support_validation_matches_the_dense_oracle(case):
    """The same (axiom, witness, detail) list, in order, as the loops over
    every basis triple and pair."""
    hint, args = case
    assert validate_structure(*args, generators=hint) == dense_validate_structure(*args)


@pytest.mark.parametrize("field", list(_ORACLE_GENS), ids=str)
def test_each_deleted_product_is_judged_as_by_the_dense_oracle(field):
    """Deleting one product can leave a basis element that multiplies to
    zero with everything but still has a differential; Leibniz must reach it.
    The algebra's own hint and one basis element as a hint give the same list."""
    for A in _ORACLE_GENS[field]:
        for key in sorted(A.table):
            table = {k: v for k, v in A.table.items() if k != key}
            args = (field, A.space, A.unit, table, A.dcols)
            expected = dense_validate_structure(*args)
            for hint in (None, A.generators, [{0: field.one}]):
                assert validate_structure(*args, generators=hint) == expected


@pytest.mark.parametrize("change", ["scaled", "extra-term"])
@pytest.mark.parametrize("field", list(_ORACLE_GENS), ids=str)
def test_each_rescaled_or_widened_product_is_judged_as_by_the_dense_oracle(field, change):
    """One product scaled by 2, so (ei*ej)*ek combines operators with a
    coefficient other than one, or given one more term in its degree, so
    ei*ej has several terms.  A field where 2 = 0 gets the extra term instead."""
    two = field.add(field.one, field.one)
    for A in _ORACLE_GENS[field]:
        deg = A.space.flat_degrees()
        for (i, j), out in sorted(A.table.items()):
            if change == "scaled" and not field.is_zero(two):
                out = {m: field.mul(two, c) for m, c in out.items()}
            else:
                free = [m for m in range(A.dim) if deg[m] == deg[i] + deg[j] and m not in out]
                if not free:
                    continue
                out = {**out, free[0]: field.one}
            args = (field, A.space, A.unit, {**A.table, (i, j): out}, A.dcols)
            expected = dense_validate_structure(*args)
            for hint in (None, A.generators, [{0: field.one}]):
                assert validate_structure(*args, generators=hint) == expected


def test_associativity_violations_come_in_order_of_i_then_j_then_k():
    """Three violations share i = x, two with j = x and one with j = y, where
    x*y = 0 and y is reached only because y*x has the term x and x*x != 0."""
    space = GradedVectorSpace({0: 3}, {0: ["1", "x", "y"]})
    one, minus = QQ.one, QQ.neg(QQ.one)
    table = {(0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (1, 0): {1: one},
             (2, 0): {2: one}, (1, 1): {2: minus}, (2, 1): {1: minus}, (2, 2): {2: minus}}
    args = (QQ, space, {0: one}, table, {})
    got = validate_structure(*args)
    assert [(v.axiom, v.witness, v.detail) for v in got] == [
        ("associativity", (1, 1, 1), "(e1*e1)*e1 = 1*x but e1*(e1*e1) = 0"),
        ("associativity", (1, 1, 2), "(e1*e1)*e2 = 1*y but e1*(e1*e2) = 0"),
        ("associativity", (1, 2, 1), "(e1*e2)*e1 = 0 but e1*(e2*e1) = 1*y"),
    ]
    assert got == dense_validate_structure(*args)


@pytest.mark.parametrize("field", list(_ORACLE_GENS), ids=str)
def test_each_changed_d_entry_is_judged_as_by_the_dense_oracle(field):
    """Adding 1 to one entry of d, in a row one degree up, can break the
    Leibniz rule alone; the generator certificate must fall back then, with
    the algebra's own hint or with one basis element as a hint."""
    for A in _ORACLE_GENS[field]:
        deg = A.space.flat_degrees()
        for i, k in itertools.product(range(A.dim), repeat=2):
            if deg[k] != deg[i] + 1:
                continue
            col = dict(A.dcols.get(i, {}))
            col[k] = field.add(col.get(k, field.zero), field.one)
            args = (field, A.space, A.unit, A.table, {**A.dcols, i: clean_coeffs(field, col, A.dim, "row")})
            expected = dense_validate_structure(*args)
            for hint in (A.generators, [{0: field.one}]):
                assert validate_structure(*args, generators=hint) == expected


# -- the sparse map layer against the dense oracle ---------------------------------

# mostly zero, so blocks are often rank deficient
_MAP_ENTRIES = st.sampled_from((0,) * 5 + (1, -1, 2, 3))


def _positions(space, k):
    """Flat indices of degree k, in order; empty when the degree is."""
    return [space.flat_index(k, p) for p in range(space.dim(k))]


@st.composite
def graded_maps(draw):
    """A map over QQ or GF(7) of degree 0 or +-1; the spaces often have empty degrees."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    degree = draw(st.sampled_from([0, 0, 1, -1]))

    def space():
        return GradedVectorSpace({k: draw(st.integers(0, 3)) for k in range(-1, 3)})

    source = space()
    target = source if degree == 0 and draw(st.booleans()) else space()
    cols = {}
    for j in range(source.total_dim):
        rows = _positions(target, source.degree_of(j) + degree)
        cols[j] = {i: field.coerce(draw(_MAP_ENTRIES)) for i in rows}
    return HomogeneousMap(field, source, target, degree, cols)


def _block(m, rows, cols):
    """Dense entries of m with the given target rows and source columns."""
    zero = m.field.zero
    return [tuple(m.cols.get(j, {}).get(i, zero) for j in cols) for i in rows]


def _image_inclusion(m):
    """m's columns at the pivots of each dense block, included into m's target."""
    picked = {}
    for k in m.source.degrees():
        src = _positions(m.source, k)
        _, pivots = dense_rref(m.field, _block(m, _positions(m.target, k + m.degree), src),
                               len(src))
        if pivots:
            picked[k + m.degree] = [m.cols[src[p]] for p in pivots]
    image = GradedVectorSpace({k: len(v) for k, v in picked.items()})
    cols = [v for k in sorted(picked) for v in picked[k]]
    return HomogeneousMap(m.field, image, m.target, 0, dict(enumerate(cols)))


def _check_quotient(space, inclusion):
    """quotient_by against the per-degree oracle: pivots of [W | I], inverse of [W | R]."""
    f = inclusion.field
    q = quotient_by(space, inclusion)
    for k in space.degrees():
        amb, sub, quo = (_positions(space, k), _positions(inclusion.source, k),
                         _positions(q.space, k))
        W = _block(inclusion, amb, sub)
        eye = [tuple(f.one if r == c else f.zero for c in amb) for r in amb]
        _, pivots = dense_rref(f, [w + e for w, e in zip(W, eye)], len(sub) + len(amb))
        assert pivots[:len(sub)] == tuple(range(len(sub)))
        reps = [amb[p - len(sub)] for p in pivots[len(sub):]]
        assert [i for c in quo for i in q.section.cols[c]] == reps
        assert [q.space.label_of(c) for c in quo] == [space.label_of(r) for r in reps]
        full = [w + tuple(f.one if i == r else f.zero for r in reps) for w, i in zip(W, amb)]
        assert _block(q.projection, quo, amb) == list(dense_inverse(f, full)[len(sub):])
    assert q.projection.compose(q.section) == HomogeneousMap.identity(f, q.space)
    assert q.projection.compose(inclusion).is_zero()


@given(m=graded_maps(), data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_sparse_map_layer_matches_the_dense_oracle(m, data):
    f, d = m.field, m.degree
    ker = kernel_of(m)
    full = Factored(f, [m.cols.get(j, {}) for j in range(m.source.total_dim)])
    x = {j: f.coerce(data.draw(_MAP_ENTRIES)) for j in range(m.source.total_dim)}
    anything = {i: f.coerce(data.draw(_MAP_ENTRIES)) for i in range(m.target.total_dim)}
    want_any: dict = {}
    for k in m.source.degrees():
        src, tgt = _positions(m.source, k), _positions(m.target, k + d)
        rows = _block(m, tgt, src)
        # kernel_of: the kernel basis of each block, entry for entry
        basis, _ = dense_kernel_basis(f, rows, len(src))
        got = [tuple(ker.inclusion.cols[c].get(j, f.zero) for j in src)
               for c in _positions(ker.space, k)]
        assert got == basis
        # Factored.solve on all columns at once: the canonical solution of each block
        in_span = m.apply_flat({j: x[j] for j in src})
        sol = full.solve(in_span)
        assert sol is not None and all(j in src for j in sol)
        assert tuple(sol.get(j, f.zero) for j in src) == \
            dense_solve(f, rows, len(src), [in_span.get(i, f.zero) for i in tgt])
        one = dense_solve(f, rows, len(src), [anything.get(i, f.zero) for i in tgt])
        if want_any is not None:
            want_any = None if one is None else {**want_any, **{
                j: c for j, c in zip(src, one) if not f.is_zero(c)}}
    # a degree of the target no column reaches is a zero block
    reached = {k + d for k in m.source.degrees()}
    if any(not f.is_zero(c) for i, c in anything.items() if m.target.degree_of(i) not in reached):
        want_any = None
    assert full.solve(anything) == want_any

    if d == 0:
        inv = m.inverse()
        blocks = {k: dense_inverse(f, _block(m, _positions(m.target, k), _positions(m.source, k)))
                  for k in m.source.degrees()} if m.source == m.target else None
        if blocks is None or None in blocks.values():
            assert inv is None
        else:
            for k, want in blocks.items():
                pos = _positions(m.source, k)
                assert tuple(_block(inv, pos, pos)) == want
            assert inv.compose(m) == HomogeneousMap.identity(f, m.source)

    _check_quotient(m.source, ker.inclusion)
    _check_quotient(m.target, _image_inclusion(m))


# -- the same structure constants over QQ and over GF(p) ----------------------------


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=repr)
def test_homology_dims_match_homology_and_the_dense_oracle(field):
    """Rank-nullity on d agrees, key for key and in order, with the built H(A)
    and with the dense per-degree oracle, on every catalog factor, every
    ordered tensor product of two of them, and random draws; the tensor
    complex is the complex of the tensor product."""
    gens = [A for _, A in generators(field)]
    cases = list(gens) + [random_algebra(random.Random(seed), field) for seed in range(60)]
    for A, B in itertools.product(gens, repeat=2):
        T = tensor_product(A, B)
        C = tensor_complex(A, B)
        assert (C.space, C.dcols) == (T.space, T.dcols)
        cases.append(T)
    for A in cases:
        dims = homology_dims(A)
        assert list(dims.items()) == list(homology(A).space.dims.items())
        assert dims == dense_homology(A)[0]


def test_random_algebras_reduce_mod_p():
    """A catalog draw over QQ with integral constants, rebuilt over GF(p), is
    still a dg-algebra, and its center and homology are at least as large in
    every degree: both are kernels (and homology a cokernel) of integral
    matrices, whose ranks can only drop mod p.  They are equal for all but
    finitely many p; the exceptions met on these seeds are pinned."""
    exceptions = set()
    for seed in range(60):
        A = random_algebra(random.Random(seed), QQ)
        values = [c for col in (*A.table.values(), *A.dcols.values(), A.unit) for c in col.values()]
        assert all(type(c) is int for c in values), seed
        over_qq = (center(A).space.dims, homology(A).space.dims)
        for p in (2, 3, 5, 7, 10007):
            B = DgAlgebra.build(GF(p), A.space, A.unit, A.table, A.dcols)
            assert B.validate() == []
            over_gf = (center(B).space.dims, homology(B).space.dims)
            for q, r in zip(over_qq, over_gf):
                assert all(r.get(k, 0) >= d for k, d in q.items()), (seed, p)
            if over_gf != over_qq:
                exceptions.add((seed, p))
    assert exceptions == {(2, 2), (18, 2), (22, 2), (31, 2), (59, 2)}
