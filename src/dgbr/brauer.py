"""Sandwich maps, central simplicity, the structure theorem, and equivalence.

Every isomorphism here is handled as an explicit witness: a degree-0 map that
the machine checks for multiplicativity, unitality, compatibility with the
differentials, and bijectivity.  Nothing is accepted on faith; failed checks
are recorded on the witness rather than silently dropped.  Multiplication by
an element (lambda, rho, the left ideals A*e and A*d(e) of the structure
theorem, the sandwich rows, the products a witness is checked on) is read
off the algebra's ``left``/``right`` with ``graded.operator_of``.  Where
most products vanish, only the tuples on which a side can be nonzero are
visited: the sandwich rows come from the nonzero triple products e_i e_x e_j, and
``verify_dg_iso`` skips each pair (i, j) on which both m(e_i e_j) and
m(e_i)m(e_j) are zero by their supports.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .dg import (
    DgAlgebra,
    KComplex,
    _trace_form_radical,
    _unless_certified,
    center,
    coords,
    homology_dims,
    ksign,
    negate_coeffs,
    opposite,
    tensor_complex,
    tensor_product,
    trivial_dg,
)
from .errors import (
    AxiomViolation,
    ContainmentCertificate,
    DgError,
    FieldMismatch,
    NoSuitableIdempotent,
    NotCentralSimple,
    ShapeMismatch,
    ValidationError,
)
from .graded import GradedVectorSpace, HomogeneousMap, TensorBasis, _require_int, apply, operator_of
from .homs import end_dg_algebra
from .linalg import coset_basis, rref_rows, transpose


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
    """Check that a degree-0 map is a unital, d-compatible, bijective algebra map.

    Failed checks are recorded on the returned witness instead of raising:
    the first eight failures of products, unit, d and bijectivity, in that
    order.  Unitality, d and bijectivity are checked on the whole basis.
    Multiplicativity may be checked on fewer pairs: for linear unital m
    between associative A and B, the x with m(xy) = m(x)m(y) for every y
    form a subspace that holds 1 and is closed under products, since
    m(x1 x2 y) = m(x1)m(x2 y) = m(x1)m(x2)m(y) = m(x1 x2)m(y).  When A keeps
    ``generators`` (validation certified that they generate A), products are
    therefore checked with x a basis term of them, against every basis y,
    by ``dg._unless_certified``, the rule validation settles associativity
    and Leibniz by: if m is not unital, A keeps no hint, or a product fails
    there, every basis pair is checked, so the failures are those of the
    complete loop, in its order.

    Each row i forms B's left operator of m(e_i) once, and m(e_i)m(e_j) is
    that operator applied to m(e_j).  Only the j with e_i e_j nonzero or with
    a term of m(e_j) that the operator moves are compared: on every other j,
    m(e_i e_j) = 0 = m(e_i)m(e_j), so skipping them changes no failure.
    """
    if A.field != B.field:
        raise ShapeMismatch("algebras over different fields")
    if m.field != A.field:
        raise FieldMismatch("map over a different field from the algebras")
    if m.source != A.space or m.target != B.space or m.degree != 0:
        raise ShapeMismatch("expected a degree-0 map between the two underlying spaces")
    f = A.field
    cols = m.flat_columns()
    hits = transpose(cols)  # target index t -> the j with t a term of m(e_j)
    empty: dict = {}

    def product_failures(rows):
        for i in range(A.dim) if rows is None else rows:
            li, mi = A.left.get(i, empty), operator_of(f, B.left, cols.get(i, empty))
            for j in sorted(set(li).union(*(hits.get(t, ()) for t in mi))):
                if apply(f, cols, li.get(j, empty)) != apply(f, mi, cols.get(j, empty)):
                    yield i, j

    is_unital = apply(f, cols, A.unit) == B.unit
    hint = A.generators if is_unital else None
    bad = list(itertools.islice(_unless_certified(product_failures, hint), 8))
    d_fails = [i for i in range(A.dim)
               if apply(f, cols, A.dcols.get(i, empty)) != B.d_apply(cols.get(i, empty))]
    bijective = m.inverse() is not None
    failures = ([("product", A.label_of(i), A.label_of(j)) for i, j in bad]
                + [("unit",)] * (not is_unital)
                + [("differential", A.label_of(i)) for i in d_fails]
                + [("bijectivity",)] * (not bijective))
    return IsoWitness(A, B, m, IsoChecks(not bad, is_unital, not d_fails, bijective,
                                         tuple(failures[:8])))


# -- left and right multiplication operators ----------------------------------


def _shift(A: DgAlgebra, aflat: dict) -> int:
    """The degree of a homogeneous element, 0 for zero."""
    degrees = {A.degree_of(i) for i in aflat} or {0}
    if len(degrees) > 1:
        raise ShapeMismatch(f"element mixes degrees {sorted(degrees)}")
    return degrees.pop()


def lambda_map(A: DgAlgebra, a) -> HomogeneousMap:
    """Left multiplication x -> a*x by a homogeneous element, on the complex of A."""
    aflat = A.coeffs(a)
    return HomogeneousMap(A.field, A.space, A.space, _shift(A, aflat), operator_of(A.field, A.left, aflat))


def rho_map(A: DgAlgebra, a) -> HomogeneousMap:
    """Signed right multiplication x -> (-1)^{|a||x|} x*a by a homogeneous a.

    This is left multiplication by a inside the opposite algebra, so
    a -> rho_a is multiplicative for the opposite product.
    """
    aflat = A.coeffs(a)
    f, s = A.field, _shift(A, aflat)
    cols = {x: col if ksign(s, A.degree_of(x)) > 0 else negate_coeffs(f, col)
            for x, col in operator_of(f, A.right, aflat).items()}
    return HomogeneousMap(f, A.space, A.space, s, cols)


# -- central simplicity --------------------------------------------------------


def is_central_simple(A: DgAlgebra) -> bool:
    """Center of dimension 1 and A simple, forgetting grading and differential.

    ``forget_descriptor`` computes it, exactly in every characteristic: by
    the trace-form radical when char K = 0 or char K > dim A, else by the
    rank of the sandwich map A (x) A^op -> End_K(A).
    """
    return forget_descriptor(A).is_central_simple


def _sandwich_rows(A: DgAlgebra, pairs):
    """For each (i, j) of ``pairs``, the row whose entry x*n + t is the e_t
    coefficient of e_i e_x e_j.

    One pass over the nonzero triple products builds every row: for each i
    and each x with e_i e_x nonzero, column j of the left operator of e_i e_x
    is (e_i e_x) e_j, and its entries go into row (i, j) at x*n + t.  For
    Mat_n that is n^4 nonzero triples, not n^5 products of which nearly all
    are zero.
    """
    n, f = A.dim, A.field
    rows: dict = {}
    for i, li in A.left.items():
        for x, ix in li.items():
            base = x * n
            for j, col in operator_of(f, A.left, ix).items():
                row = rows.setdefault((i, j), {})
                for t, c in col.items():
                    row[base + t] = c
    for pair in pairs:
        yield rows.get(pair, {})


@dataclass(frozen=True)
class UngradedDescriptor:
    """What remains of a dg-algebra after dropping grading and differential."""

    dimension: int
    center_dimension: int
    is_central_simple: bool


def forget_descriptor(A: DgAlgebra) -> UngradedDescriptor:
    """Dimension, center dimension and central simplicity, with the center computed once.

    A is central simple when its center is K and it is simple; the center is
    tested first, and nothing else is formed when it is not K.  Then, with
    n = dim A and p = char K:

    - p = 0 or p > n: A is simple iff the trace-form radical I of
      ``dg._trace_form_radical`` (x with tr(L_x L_y) = 0 for all y, from an
      n x n Gram matrix) is zero.  I is a two-sided ideal, as
      tr(L_{y(zx)}) = tr(L_{(yz)x}) and tr(L_{y(xz)}) = tr(L_y L_x L_z) =
      tr(L_{(zy)x}).  For x in I, tr(L_x^k) = tr(L_{x x^(k-1)}) = 0 for every
      k >= 1, so L_x is nilpotent by Newton's identities (p = 0 or p > n),
      and x = L_x(1) is nilpotent.  So I is a nil ideal, inside rad(A); and
      rad(A) lies in I, as x y is nilpotent for x in rad(A).  Hence
      I = rad(A).  A semisimple A with center K has one Wedderburn
      component, as each adds a dimension to the center, so it is simple.
    - 0 < p <= n: the sandwich map e_i (x) e_j -> (x -> e_i x e_j),
      ungraded and with no signs, is bijective exactly when A is central
      simple.  Both sides have dimension n^2, so that holds exactly when the
      n^2 ``_sandwich_rows`` are independent; the rank comes from the sparse
      elimination kernel, and the rows from the nonzero triple products.
    """
    n = A.dim
    c = center(A).space.total_dim
    if c != 1:
        return UngradedDescriptor(n, c, False)
    radical = _trace_form_radical(A)
    if radical is not None:
        return UngradedDescriptor(n, c, not radical)
    rank = len(rref_rows(A.field, _sandwich_rows(A, itertools.product(range(n), repeat=2)))[1])
    return UngradedDescriptor(n, c, rank == n * n)


# -- the sandwich isomorphism --------------------------------------------------


def sandwich_map(A: DgAlgebra, T: DgAlgebra, E: DgAlgebra) -> HomogeneousMap:
    """a (x) b -> lambda_a o rho_b, in the unit coordinates of E = End(A).

    lambda_{e_i} o rho_{e_j} is e_x -> (-1)^{|e_j||e_x|} e_i e_x e_j: its unit
    e_x -> e_t coordinate is entry x*n + t of the (i, j) ``_sandwich_rows``, signed.
    """
    f, n = A.field, A.dim
    if E.field != f or E.hom is None or E.hom.source.space != A.space:
        raise ShapeMismatch("E must be End of the complex of A, over its field")
    deg = A.space.flat_degrees()
    unit_index = E.hom.unit_index
    # slot t of T corresponds to pairs[t]; the pair order is deterministic
    pairs = TensorBasis(A.space, A.space).pairs
    cols = {}
    for t, (i, j), row in zip(itertools.count(), pairs, _sandwich_rows(A, pairs)):
        if row:
            cols[t] = {unit_index[divmod(xt, n)]: c if ksign(deg[j], deg[xt // n]) > 0 else f.neg(c)
                       for xt, c in row.items()}
    return HomogeneousMap(f, T.space, E.space, 0, cols)


def sandwich_iso(A: DgAlgebra) -> IsoWitness:
    """Verified isomorphism A (x) A-op -> End(A as complex).

    Requires A central simple.  Only the center is checked up front; when it
    is K, the witness's bijectivity decides.  If A is central simple, the
    parity x -> (-1)^{|x|} x is inner (Skolem-Noether), so the signed map has
    the rank of the unsigned one, which is n^2 exactly when A is central
    simple (``forget_descriptor`` ranks it only when 0 < char K <= dim A).
    If the map is a verified isomorphism, T = End_K(A) is simple, so A's
    graded radical R, with R (x) A^op an ideal of T, is zero, and A with
    center K is central simple.
    """
    c = center(A).space.total_dim
    if c == 1:
        T = tensor_product(A, opposite(A))
        E = end_dg_algebra(A.complex())
        w = verify_dg_iso(T, E, sandwich_map(A, T, E))
        if w.checks.is_bijective:
            return w
    raise NotCentralSimple(
        f"sandwich construction needs a central simple algebra; dim {A.dim}, center dim {c}")


# -- structure theorem ---------------------------------------------------------


@dataclass(frozen=True)
class IdempotentChoice:
    """The chosen diagonal idempotent index plus rejection certificates."""

    index: int
    witness: dict
    rejected: tuple


def _cosets(A: DgAlgebra, e: dict):
    """L = M/N for M = A*e + A*d(e) and N = A*d(e): ``(basis, n, picks, project)``.

    ``n`` holds the nonzero e_k * d(e), k ascending, and ``basis`` the e_k * e
    independent of those before them, so M = span(n + basis); ``picks`` and
    ``project`` are the ``coset_basis`` of ``basis`` modulo N.  Both are read
    off the right operators of e and d(e), whose columns they may share.
    """
    f = A.field
    ae, de = operator_of(f, A.right, e), operator_of(f, A.right, A.d_apply(e))
    n = [de[k] for k in sorted(de)]
    basis: list = []
    rref_rows(f, (ae[k] for k in sorted(ae)), basis.append)
    return (basis, n, *coset_basis(f, n, basis))


def _diagonal_candidates(A: DgAlgebra):
    """Degree-0 basis elements squaring to themselves, in flat order: the e_{i,i} of Mat_n."""
    one = A.field.one
    return [{i: one} for i in range(A.dim)
            if A.degree_of(i) == 0 and A.table.get((i, i)) == {i: one}]


def idempotent_containment(A: DgAlgebra, i: int):
    """Decide whether A*e_{i,i} sits inside A*d(e_{i,i}), by exact elimination.

    Returns (certificate, witness): the certificate holds per-degree span
    dimensions of both left ideals, and the witness is a sparse element of
    A*e_{i,i} outside A*d(e_{i,i}) when containment fails (None otherwise):
    the first product e_k * e_{i,i} outside, which is the first coset
    representative of L = M/N.
    """
    cands = _diagonal_candidates(A)
    if not (1 <= _require_int(i, "diagonal index") <= len(cands)):
        raise ShapeMismatch(f"diagonal index {i} out of range for {len(cands)} idempotents")
    basis, n, picks, _ = _cosets(A, cands[i - 1])
    witness = dict(basis[picks[0]]) if picks else None
    span: list = []
    rref_rows(A.field, n, span.append)

    def dims(vecs):
        return dict(sorted(Counter(A.degree_of(next(iter(v))) for v in vecs).items()))
    return ContainmentCertificate(i, dims(basis), dims(span), witness is None), witness


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
    d-stable left ideals and L = M/N inherits a differential.  One coset
    elimination gives L: its basis is the e_k * e of M's basis outside
    span(N) and those before them, labelled m{k}_{i} by their position i in
    M's basis, and dL and left multiplication by e_a are projections.  Left
    multiplication gives the verified isomorphism onto End(L) under
    composition.  The same underlying map, read between the opposite
    algebras, is an isomorphism of those as well.

    A map that passes ``verify_dg_iso`` is, forgetting grading and d, an
    algebra isomorphism A = End_K(L) with L nonzero, so the witness proves A
    central simple and nothing is checked up front.  Only a failed
    realization decides ``is_central_simple``: NotCentralSimple when it is
    False, else the failure is re-raised as it came.
    """
    try:
        return _realize(A)
    except DgError:
        if not is_central_simple(A):
            raise NotCentralSimple(
                "structure theorem applies to central simple algebras") from None
        raise


def _realize(A: DgAlgebra) -> StructureRealization:
    """The construction of ``structure_realize``, raising whenever a step fails."""
    f = A.field
    choice = choose_structure_idempotent(A)
    e = _diagonal_candidates(A)[choice.index - 1]
    basis, _, picks, project = _cosets(A, e)

    # dL is d projected from M = span(N + basis); N = span(A*d(e)) needs no
    # check, as d(a*d(e)) = d(a)*d(e) by Leibniz and d(d(e)) = 0
    q_of = {p: q for q, p in enumerate(picks)}
    dL_cols = {}
    for s, v in enumerate(basis):
        img = coords(project, A.d_apply(v), "structure", (s,), "differential does not preserve M")
        if img and s in q_of:
            dL_cols[q_of[s]] = img

    # M's basis lists the e_k * e first in each degree, so i counts among those
    deg = [A.degree_of(next(iter(v))) for v in basis]
    space, _ = GradedVectorSpace.from_entries(
        (deg[p], f"m{deg[p]}_{p - deg.index(deg[p])}", p) for p in picks)
    L = KComplex(f, space, dL_cols)
    # A -> End(L) can be bijective only if dim A = (dim L)^2; an idempotent
    # that is not primitive (the unit of a split quaternion algebra), or any
    # idempotent of a division algebra, fails here, before End(L) is built
    if L.space.total_dim ** 2 != A.dim:
        raise NoSuitableIdempotent(choice.rejected, (
            choice.index, A.label_of(next(iter(e))), dict(L.space.dims), A.dim))
    E = end_dg_algebra(L)

    acts = [operator_of(f, A.right, basis[p]) for p in picks]  # acts[s][a] = e_a * rep s
    cols = {}
    for a in range(A.dim):
        lcols = {}
        for s, act in enumerate(acts):
            if a in act:
                img = coords(project, act[a], "structure", (a, s), "left multiplication leaves M")
                if img:
                    lcols[s] = img
        coeffs = E.hom.from_map(HomogeneousMap(f, L.space, L.space, A.degree_of(a), lcols))
        if coeffs:
            cols[a] = coeffs
    m = HomogeneousMap(f, A.space, E.space, 0, cols)
    w = verify_dg_iso(A, E, m)
    if not w.verified:
        raise ValidationError([AxiomViolation(
            "structure", (), f"realization map failed checks: {w.checks}")])
    return StructureRealization(L, w, choice)


# -- equivalence witnesses -----------------------------------------------------


def equivalence_sides(A: DgAlgebra, B: DgAlgebra, C1: KComplex, C2: KComplex):
    """The two sides (A (x) End(C1), B (x) End(C2)) of an equivalence witness.

    Raises ShapeMismatch when the data lie over different fields or the sides
    have different dimensions.
    """
    if not (A.field == B.field == C1.field == C2.field):
        raise ShapeMismatch("equivalence data over different fields")
    lhs = tensor_product(A, end_dg_algebra(C1))
    rhs = tensor_product(B, end_dg_algebra(C2))
    if lhs.dim != rhs.dim:
        raise ShapeMismatch(
            f"sides have different dimensions: {lhs.dim} vs {rhs.dim}")
    return lhs, rhs


def verify_equivalence(A: DgAlgebra, B: DgAlgebra, C1: KComplex, C2: KComplex,
                       m: HomogeneousMap) -> IsoWitness:
    """Verify A (x) End(C1) -> B (x) End(C2) as dg-algebras via the given map."""
    return verify_dg_iso(*equivalence_sides(A, B, C1, C2), m)


@dataclass(frozen=True)
class KunnethReport:
    left: dict
    right: dict
    matches: bool


def kunneth_check(A: DgAlgebra, B: DgAlgebra) -> KunnethReport:
    """Compare homology dimensions computed from the tensor complex with the convolution.

    ``left`` holds the homology dims of ``tensor_complex(A, B)``, ``right``
    the graded convolution of those of A and B.  All three come from
    ``homology_dims``, so no algebra is built.  Over a field the Kunneth
    theorem makes the two sides equal.
    """
    left = homology_dims(tensor_complex(A, B))
    hB = homology_dims(B)
    conv: Counter = Counter()
    for p, x in homology_dims(A).items():
        for q, y in hB.items():
            conv[p + q] += x * y
    right = dict(sorted(conv.items()))
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
