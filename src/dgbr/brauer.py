"""Sandwich maps, central simplicity, the structure theorem, and equivalence.

Every isomorphism here is handled as an explicit witness: a degree-0 map that
the machine checks for multiplicativity, unitality, compatibility with the
differentials, and bijectivity.  Nothing is accepted on faith; failed checks
are recorded on the witness rather than silently dropped.
"""
from __future__ import annotations

from dataclasses import dataclass

from .dg import (
    DgAlgebra,
    KComplex,
    center,
    homology,
    ksign,
    opposite,
    tensor_product,
    trivial_dg,
)
from .errors import (
    AxiomViolation,
    ContainmentCertificate,
    FieldMismatch,
    NoSuitableIdempotent,
    NotCentralSimple,
    ShapeMismatch,
    ValidationError,
)
from .graded import GradedVector, HomogeneousMap, TensorBasis, apply, operators, quotient_by, span_of
from .homs import end_dg_algebra
from .linalg import Factored, rref_rows


@dataclass(frozen=True)
class IsoChecks:
    """The four machine-verified facts about a candidate isomorphism."""

    is_algebra_hom: bool
    is_unital: bool
    commutes_with_d: bool
    is_bijective: bool
    failures: tuple = ()

    @property
    def all_pass(self) -> bool:
        return (self.is_algebra_hom and self.is_unital
                and self.commutes_with_d and self.is_bijective)


@dataclass(frozen=True)
class IsoWitness:
    source: DgAlgebra
    target: DgAlgebra
    map: HomogeneousMap
    checks: IsoChecks

    @property
    def verified(self) -> bool:
        return self.checks.all_pass


def verify_dg_iso(A: DgAlgebra, B: DgAlgebra, m: HomogeneousMap) -> IsoWitness:
    """Check a degree-0 map on every basis pair; nothing is assumed.

    Failed checks are recorded on the returned witness (with up to eight
    failing basis pairs) instead of raising.
    """
    if A.field != B.field:
        raise ShapeMismatch("algebras over different fields")
    if m.field != A.field:
        raise FieldMismatch("map over a different field from the algebras")
    if m.source != A.space or m.target != B.space or m.degree != 0:
        raise ShapeMismatch("expected a degree-0 map between the two underlying spaces")
    f = A.field
    cols = m.flat_columns()
    empty: dict = {}
    failures = []

    is_hom = True
    for i in range(A.dim):
        ci = cols.get(i, empty)
        for j in range(A.dim):
            lhs = apply(f, cols, A.table.get((i, j), empty))
            rhs = B.mul(ci, cols.get(j, empty))
            if lhs != rhs:
                is_hom = False
                if len(failures) < 8:
                    failures.append(("product", A.label_of(i), A.label_of(j)))

    is_unital = apply(f, cols, A.unit) == B.unit
    if not is_unital and len(failures) < 8:
        failures.append(("unit",))

    commutes = True
    for i in range(A.dim):
        if apply(f, cols, A.dcols.get(i, empty)) != B.d_apply(cols.get(i, empty)):
            commutes = False
            if len(failures) < 8:
                failures.append(("differential", A.label_of(i)))

    bijective = m.inverse() is not None
    if not bijective and len(failures) < 8:
        failures.append(("bijectivity",))

    return IsoWitness(A, B, m, IsoChecks(is_hom, is_unital, commutes, bijective,
                                         tuple(failures)))


# -- left and right multiplication operators ----------------------------------


def _flat_of(A: DgAlgebra, a) -> dict:
    if isinstance(a, GradedVector):
        if a.space != A.space:
            raise ShapeMismatch("element lives in a different space")
        return a.flat()
    f = A.field
    out = {int(i): f.coerce(c) for i, c in dict(a).items()}
    return {i: c for i, c in out.items() if not f.is_zero(c)}


def _shift(A: DgAlgebra, aflat: dict):
    """The degree of an element: 0 for zero, None when it mixes degrees."""
    degrees = {A.degree_of(i) for i in aflat} or {0}
    return degrees.pop() if len(degrees) == 1 else None


def lambda_map(A: DgAlgebra, a) -> HomogeneousMap:
    """Left multiplication x -> a*x on the underlying complex of A."""
    aflat = _flat_of(A, a)
    f = A.field
    one = f.one
    cols = {}
    for x in range(A.dim):
        col = A.mul(aflat, {x: one})
        if col:
            cols[x] = col
    return HomogeneousMap(f, A.space, A.space, _shift(A, aflat), cols)


def rho_map(A: DgAlgebra, a) -> HomogeneousMap:
    """Signed right multiplication x -> (-1)^{|a||x|} x*a.

    This is left multiplication by a inside the opposite algebra, so
    a -> rho_a is multiplicative for the opposite product.
    """
    aflat = _flat_of(A, a)
    f = A.field
    one = f.one
    deg = A.space.flat_degrees()
    cols = {}
    for x in range(A.dim):
        signed = {ai: c if ksign(deg[ai], deg[x]) > 0 else f.neg(c) for ai, c in aflat.items()}
        col = A.mul({x: one}, signed)
        if col:
            cols[x] = col
    return HomogeneousMap(f, A.space, A.space, _shift(A, aflat), cols)


# -- central simplicity --------------------------------------------------------


def is_central_simple(A: DgAlgebra) -> bool:
    """Center of dimension 1 and bijective sandwich map A (x) A^op -> End_K(A).

    The sandwich map sends e_i (x) e_j to x -> e_i x e_j, ungraded and with
    no signs.  Both sides have dimension n^2, so it is bijective exactly when
    these n^2 maps are independent.  Each map is one sparse row, whose entry
    x*n + t is the e_t coefficient of e_i e_x e_j, read off the left and right
    operators of the table; the rank comes from the sparse elimination
    kernel.  The criterion is exact in every characteristic.
    """
    n = A.dim
    if n == 0:
        return False
    if center(A).space.total_dim != 1:
        return False
    f = A.field
    L, R = operators(A.table)
    empty: dict = {}
    rows = []
    for i in range(n):
        Li = L.get(i, empty)
        for j in range(n):
            Rj = R.get(j, empty)
            row = {}
            for x, ix in Li.items():
                for t, c in apply(f, Rj, ix).items():
                    row[x * n + t] = c
            rows.append(row)
    return len(rref_rows(f, rows)[1]) == n * n


@dataclass(frozen=True)
class UngradedDescriptor:
    """What remains of a dg-algebra after dropping grading and differential."""

    dimension: int
    center_dimension: int
    is_central_simple: bool


def forget_descriptor(A: DgAlgebra) -> UngradedDescriptor:
    return UngradedDescriptor(A.dim, center(A).space.total_dim, is_central_simple(A))


# -- the sandwich isomorphism --------------------------------------------------


def sandwich_map(A: DgAlgebra, T: DgAlgebra, E: DgAlgebra) -> HomogeneousMap:
    """a (x) b -> lambda_a o rho_b, in the unit coordinates of E = End(A)."""
    f = A.field
    one = f.one
    # slot t of T corresponds to pairs[t]; the pair order is deterministic
    pairs = TensorBasis(A.space, A.space).pairs
    lam = [lambda_map(A, {i: one}) for i in range(A.dim)]
    rho = [rho_map(A, {j: one}) for j in range(A.dim)]
    cols = {}
    for t, (i, j) in enumerate(pairs):
        coeffs = E.hom.from_map(lam[i].compose(rho[j]))
        if coeffs:
            cols[t] = coeffs
    return HomogeneousMap(f, T.space, E.space, 0, cols)


def sandwich_iso(A: DgAlgebra) -> IsoWitness:
    """Verified isomorphism A (x) A-op -> End(A as complex).

    Requires A central simple; without that the map can fail injectivity.
    """
    if not is_central_simple(A):
        raise NotCentralSimple(
            f"sandwich construction needs a central simple algebra; dim {A.dim}, "
            f"center dim {center(A).space.total_dim}"
        )
    T = tensor_product(A, opposite(A))
    E = end_dg_algebra(A.complex())
    w = verify_dg_iso(T, E, sandwich_map(A, T, E))
    return w


# -- structure theorem ---------------------------------------------------------


@dataclass(frozen=True)
class IdempotentChoice:
    """The chosen diagonal idempotent index plus rejection certificates."""

    index: int
    witness: GradedVector
    rejected: tuple


def _ideal_columns(A: DgAlgebra, gens) -> dict:
    """Per degree, the nonzero products e_k * g spanning sum of A*g over the given elements."""
    one = A.field.one
    by_deg: dict[int, list] = {}
    for g in gens:
        for k in range(A.dim):
            p = A.mul({k: one}, g)
            if p:
                by_deg.setdefault(A.space.degree_of(next(iter(p))), []).append(p)
    return by_deg


def _pivot_subspace(A: DgAlgebra, by_deg: dict, prefix: str):
    """The vectors of each degree independent of those before them, as a graded subspace."""
    picked: dict = {}
    for d, vecs in sorted(by_deg.items()):
        rref_rows(A.field, vecs, picked.setdefault(d, []).append)
    return span_of(A.field, A.space, picked, prefix)


def _diagonal_candidates(A: DgAlgebra):
    """Diagonal idempotents to try, in index order.

    With a matrix-unit presentation these are the e_{i,i}; otherwise every
    degree-0 basis element squaring to itself, in flat order.  On an algebra
    built by the matrix constructor the two lists coincide.
    """
    pres = A.presentation
    f = A.field
    if pres is not None:
        return [{pres.flat(i, i): f.one} for i in range(1, pres.n + 1)]
    out = []
    for i in range(A.dim):
        if A.degree_of(i) != 0:
            continue
        if A.mul({i: f.one}, {i: f.one}) == {i: f.one}:
            out.append({i: f.one})
    if not out:
        raise ShapeMismatch("no diagonal idempotents among the degree-0 basis")
    return out


def idempotent_containment(A: DgAlgebra, i: int):
    """Decide whether A*e_{i,i} sits inside A*d(e_{i,i}), by exact elimination.

    Returns (certificate, witness): the certificate holds per-degree span
    dimensions of both left ideals, and the witness is an element of the
    difference when containment fails (None otherwise).
    """
    cands = _diagonal_candidates(A)
    if not (1 <= i <= len(cands)):
        raise ShapeMismatch(f"diagonal index {i} out of range for {len(cands)} idempotents")
    f = A.field
    e = cands[i - 1]
    de = A.d_apply(e)
    ae = _ideal_columns(A, [e])
    ade = _ideal_columns(A, [de]) if de else {}
    inside = Factored(f, [v for vs in ade.values() for v in vs])
    witness_vec = next((v for d, vs in sorted(ae.items()) for v in vs if inside.solve(v) is None), None)
    ideal_dims = {d: len(rref_rows(f, vs)[1]) for d, vs in ae.items()}
    span_dims = {d: len(rref_rows(f, vs)[1]) for d, vs in ade.items()}
    cert = ContainmentCertificate(i, ideal_dims, span_dims, witness_vec is None)
    witness = None if witness_vec is None else GradedVector.from_flat(f, A.space, witness_vec)
    return cert, witness


def choose_structure_idempotent(A: DgAlgebra) -> IdempotentChoice:
    """Least diagonal idempotent e with A*e not inside A*d(e), certified.

    Each rejected index keeps its containment certificate; total failure
    raises with all of them.
    """
    rejected = []
    for i in range(1, len(_diagonal_candidates(A)) + 1):
        cert, witness = idempotent_containment(A, i)
        if cert.contained:
            rejected.append(cert)
        else:
            return IdempotentChoice(i, witness, tuple(rejected))
    raise NoSuitableIdempotent(rejected)


@dataclass(frozen=True)
class StructureRealization:
    L: KComplex
    witness: IsoWitness
    idempotent: IdempotentChoice


def structure_realize(A: DgAlgebra) -> StructureRealization:
    """Split a central simple dg matrix algebra as endomorphisms of a complex.

    With e the chosen idempotent, M = A*e + A*d(e) and N = A*d(e) are
    d-stable left ideals and L = M/N inherits a differential; left
    multiplication on coset representatives gives the verified isomorphism
    onto End(L) under composition.  The same underlying map, read between the
    opposite algebras, is an isomorphism of those as well.
    """
    f = A.field
    one = f.one
    if not is_central_simple(A):
        raise NotCentralSimple("structure theorem applies to central simple algebras")
    choice = choose_structure_idempotent(A)
    e = _diagonal_candidates(A)[choice.index - 1]
    de = A.d_apply(e)

    M = _pivot_subspace(A, _ideal_columns(A, [e, de] if de else [e]), "m")
    N = _pivot_subspace(A, _ideal_columns(A, [de]) if de else {}, "n")
    # coordinates in M and N: their inclusion columns are their bases, in order
    m_cols, n_cols = M.inclusion.flat_columns(), N.inclusion.flat_columns()
    m_solver, n_solver = Factored(f, list(m_cols.values())), Factored(f, list(n_cols.values()))

    # d restricted to M, in M coordinates; also certify d(N) <= N
    dM: dict = {}
    for s in range(M.space.total_dim):
        img = A.d_apply(m_cols.get(s, {}))
        if not img:
            continue
        coords = m_solver.solve(img)
        if coords is None:
            raise ValidationError([AxiomViolation(
                "structure", (s,), "differential does not preserve M")])
        dM[s] = coords
    for s in range(N.space.total_dim):
        img = A.d_apply(n_cols.get(s, {}))
        if img and n_solver.solve(img) is None:
            raise ValidationError([AxiomViolation(
                "structure", (s,), "differential does not preserve N")])

    # N in M coordinates, then the quotient L = M/N
    n_in_m_cols = {}
    for s in range(N.space.total_dim):
        coords = m_solver.solve(n_cols.get(s, {}))
        if coords is None:
            raise ValidationError([AxiomViolation("structure", (s,), "N is not inside M")])
        n_in_m_cols[s] = coords
    n_in_m = HomogeneousMap(f, N.space, M.space, 0, n_in_m_cols)
    Q = quotient_by(M.space, n_in_m)

    dM_map = HomogeneousMap(f, M.space, M.space, 1, dM)
    dL_cols = {}
    for s in range(Q.space.total_dim):
        img = Q.projection.apply_flat(dM_map.apply_flat(Q.section.apply_flat({s: one})))
        if img:
            dL_cols[s] = img
    L = KComplex(f, Q.space, dL_cols)
    # A -> End(L) can be bijective only if dim A = (dim L)^2; an idempotent
    # that is not primitive (the unit of a split quaternion algebra), or any
    # idempotent of a division algebra, fails here, before End(L) is built
    if L.space.total_dim ** 2 != A.dim:
        raise NoSuitableIdempotent(choice.rejected, (
            choice.index, A.label_of(next(iter(e))), dict(L.space.dims), A.dim))
    E = end_dg_algebra(L)

    cols = {}
    for a in range(A.dim):
        lcols = {}
        for s in range(Q.space.total_dim):
            v = M.inclusion.apply_flat(Q.section.apply_flat({s: one}))
            p = A.mul({a: one}, v)
            if not p:
                continue
            coords = m_solver.solve(p)
            if coords is None:
                raise ValidationError([AxiomViolation(
                    "structure", (a, s), "left multiplication leaves M")])
            img = Q.projection.apply_flat(coords)
            if img:
                lcols[s] = img
        coeffs = E.hom.from_map(HomogeneousMap(f, Q.space, Q.space, A.degree_of(a), lcols))
        if coeffs:
            cols[a] = coeffs
    m = HomogeneousMap(f, A.space, E.space, 0, cols)
    w = verify_dg_iso(A, E, m)
    if not w.verified:
        raise ValidationError([AxiomViolation(
            "structure", (), f"realization map failed checks: {w.checks}")])
    return StructureRealization(L, w, choice)


# -- equivalence witnesses -----------------------------------------------------


def verify_equivalence(A: DgAlgebra, B: DgAlgebra, C1: KComplex, C2: KComplex,
                       m: HomogeneousMap) -> IsoWitness:
    """Verify A (x) End(C1) -> B (x) End(C2) as dg-algebras via the given map."""
    if not (A.field == B.field == C1.field == C2.field):
        raise ShapeMismatch("equivalence data over different fields")
    lhs = tensor_product(A, end_dg_algebra(C1))
    rhs = tensor_product(B, end_dg_algebra(C2))
    if lhs.dim != rhs.dim:
        raise ShapeMismatch(
            f"sides have different dimensions: {lhs.dim} vs {rhs.dim}")
    return verify_dg_iso(lhs, rhs, m)


@dataclass(frozen=True)
class KunnethReport:
    left: dict
    right: dict
    matches: bool


def kunneth_check(A: DgAlgebra, B: DgAlgebra) -> KunnethReport:
    """Compare homology dims of a tensor product with the graded convolution."""
    HA = dict(homology(A).space.dims)
    HB = dict(homology(B).space.dims)
    left = dict(homology(tensor_product(A, B)).space.dims)
    right: dict = {}
    for k, a in HA.items():
        for l, b in HB.items():
            right[k + l] = right.get(k + l, 0) + a * b
    right = {k: v for k, v in right.items() if v}
    return KunnethReport(left, right, left == right)


# -- concrete ungraded classes -------------------------------------------------


def quaternion_algebra(field, a, b) -> DgAlgebra:
    """Basis 1, i, j, k with i*i = a, j*j = b, i*j = k = -j*i; degree 0, d = 0."""
    if field.characteristic() == 2:
        raise ShapeMismatch("quaternion construction needs characteristic not 2")
    a = field.coerce(a)
    b = field.coerce(b)
    if field.is_zero(a) or field.is_zero(b):
        raise ShapeMismatch("parameters must be nonzero")
    one = field.one
    neg = field.neg
    mul = field.mul
    ab = mul(a, b)
    table = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
        (1, 0): {1: one}, (2, 0): {2: one}, (3, 0): {3: one},
        (1, 1): {0: a}, (1, 2): {3: one}, (1, 3): {2: a},
        (2, 1): {3: neg(one)}, (2, 2): {0: b}, (2, 3): {1: neg(b)},
        (3, 1): {2: neg(a)}, (3, 2): {1: b}, (3, 3): {0: neg(ab)},
    }
    return trivial_dg(field, ("1", "i", "j", "k"), {0: one}, table)
