"""ker d and H(A) through one cycle-algebra routine: counts, pins and oracles.

``kernel_subalgebra`` and ``homology`` build through one routine that takes
well-definedness from the Leibniz rule instead of multiplying boundaries by
cycles.  The count below holds that no such product is left: one left
operator per representative, applied once to each.  The pins were recorded
while the two functions still ran their own loops, so they hold that sharing
the routine changes no label, column or serialized byte.  The kernel algebra
is also checked against dense elimination, and closure against algebras that
break the Leibniz rule.

The algebras built on a validated algebra's own table (inner differentials,
and tensor products with a one-dimensional factor) inherit its certificate
the same way.  They are checked here against the complete check and against
``dense_tensor``, and so are the hints that validation must drop, not raise on.
"""
import hashlib
import random

import pytest
from dense_oracle import bucketed_numbered, dense_kernel_basis, dense_solve, dense_tensor

from dgbr import dg
from dgbr.brauer import structure_realize
from dgbr.catalog import (dual_numbers, generators, mat2_inner, mat3_inner, neutral,
                          random_algebra, split_pair)
from dgbr.dg import DgAlgebra, KComplex, homology, kernel_subalgebra, opposite, tensor_product
from dgbr.errors import AxiomViolation, ValidationError
from dgbr.fields import GF, QQ
from dgbr.formats import serialize_algebra, serialize_map
from dgbr.graded import GradedVectorSpace
from dgbr.homs import end_dg_algebra
from dgbr.matrix_algebras import good_grading_matrix_algebra, inner_differential

FIELDS = [QQ, GF(2), GF(7)]


def test_homology_multiplies_only_representatives(monkeypatch):
    """One left operator per representative of H, applied once to each representative."""
    A = mat3_inner(QQ)
    T = tensor_product(A, A)
    ops, products = [], []
    operator_of, apply = dg.operator_of, dg.apply

    def counted_operator(field, L, u):
        # validating H forms operators over H's own table; count those over T's
        op = operator_of(field, L, u)
        if L is T.left:
            ops.append(op)
        return op

    def counted_apply(field, cols, u):
        if any(cols is op for op in ops):
            products.append(1)
        return apply(field, cols, u)

    monkeypatch.setattr(dg, "operator_of", counted_operator)
    monkeypatch.setattr(dg, "apply", counted_apply)
    H = homology(T)
    monkeypatch.undo()
    assert H.dim == 1
    assert len(ops) == H.dim
    assert len(products) == H.dim ** 2


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_acyclic_homology_is_the_zero_algebra(field):
    d = dual_numbers(field)
    zero = DgAlgebra.zero_algebra(field)
    for A in (d, tensor_product(d, d)):
        H = homology(A)
        assert H == zero
        assert serialize_algebra(H) == serialize_algebra(zero)


def _kernel_cases(field):
    d, m = dual_numbers(field), mat2_inner(field)
    return generators(field) + [("dual@dual", tensor_product(d, d)),
                                ("dual@mat2-inner", tensor_product(d, m)),
                                ("mat2-inner-op", opposite(m))]


KERNEL_LABELS = {
    "neutral": ("z0_0",),
    "dual-numbers": ("z0_0",),
    "mat2-graded": ("z-1_0", "z0_0", "z0_1", "z1_0"),
    "mat2-inner": ("z0_0", "z1_0"),
    "mat2-flat": ("z0_0", "z0_1", "z0_2", "z0_3"),
    "mat3-inner": ("z-1_0", "z0_0", "z0_1", "z1_0", "z2_0"),
    "split-pair": ("z0_0", "z0_1"),
    "quaternions": ("z0_0", "z0_1", "z0_2", "z0_3"),
    "dual@dual": ("z-1_0", "z0_0"),
    "dual@mat2-inner": ("z-1_0", "z0_0", "z0_1", "z1_0"),
    "mat2-inner-op": ("z0_0", "z1_0"),
}


def test_kernel_subalgebra_labels_and_inclusions_are_pinned():
    """Labels over QQ; inclusion columns and the kernel algebra over QQ, GF(2), GF(7)."""
    digest = hashlib.sha256()
    for field in FIELDS:
        for name, A in _kernel_cases(field):
            K = kernel_subalgebra(A)
            if field == QQ:
                assert K.algebra.space.all_labels() == KERNEL_LABELS[name], name
            digest.update(serialize_map(K.inclusion).encode("utf-8"))
            digest.update(serialize_algebra(K.algebra).encode("utf-8"))
    assert digest.hexdigest() == "b2b951c13abfe6d23f47d961a55c343c23a81b12b3050c23279a6b4c036355f7"


def _dense_kernel_algebra(A):
    """ker d by ``dense_kernel_basis`` over the whole flat basis, its products
    ``A.mul`` of basis pairs solved by ``dense_solve``, handed to ``build``."""
    f, n = A.field, A.dim
    rows = [[A.dcols.get(j, {}).get(i, f.zero) for j in range(n)] for i in range(n)]
    zs = [{i: x for i, x in enumerate(v) if not f.is_zero(x)} for v in dense_kernel_basis(f, rows, n)[0]]
    zrows = [[z.get(i, f.zero) for z in zs] for i in range(n)]

    def solve(v):
        sol = dense_solve(f, zrows, len(zs), [v.get(i, f.zero) for i in range(n)])
        return {q: x for q, x in enumerate(sol) if not f.is_zero(x)}

    table = {(i, j): solve(A.mul(u, v)) for i, u in enumerate(zs) for j, v in enumerate(zs)}
    space, cols = bucketed_numbered("z", [(A.degree_of(min(z)), z) for z in zs])
    return DgAlgebra.build(f, space, solve(A.unit), table, {}), dict(enumerate(cols))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_subalgebra_matches_the_dense_oracle(field):
    """Read-off coordinates and operator products give the kernel algebra that
    dense elimination and ``A.mul`` give: labels, inclusion, table and unit."""
    gens = [A for _, A in generators(field)]
    rng = random.Random(31)
    cases = (gens + [T for A in gens for B in gens if (T := tensor_product(A, B)).dim <= 32]
             + [random_algebra(rng, field) for _ in range(12)])
    for A in cases:
        K = kernel_subalgebra(A)
        algebra, inclusion = _dense_kernel_algebra(A)
        assert K.algebra.space.all_labels() == algebra.space.all_labels()
        assert K.inclusion.flat_columns() == inclusion
        assert K.algebra == algebra and K.algebra.unit == algebra.unit


def _leibniz_breakers(field):
    """Two algebras that only a skipped validation lets through.

    In the first, the cycle a squares to c with d(c) = b, so ker d is not
    closed; b is a boundary and a is not, so H's product leaves the cycles
    too.  In the second, d(1) = b.
    """
    one = field.one
    # flat order 1, a, c in degree 0, then b in degree 1
    V = GradedVectorSpace({0: 3, 1: 1}, {0: ("1", "a", "c"), 1: ("b",)})
    table = {(0, i): {i: one} for i in range(4)} | {(i, 0): {i: one} for i in range(4)}
    table[(1, 1)] = {2: one}
    square = DgAlgebra.build(field, V, {0: one}, table, {2: {3: one}})
    W = GradedVectorSpace({0: 1, 1: 1}, {0: ("1",), 1: ("b",)})
    unit = DgAlgebra.build(field, W, {0: one}, {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}},
                           {0: {1: one}})
    return square, unit


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_closure_is_checked_on_every_product_and_the_unit(field, monkeypatch):
    """With validation switched off, a product of cycles that is no cycle and
    a unit that is no cycle raise the one-violation errors with their witnesses.
    The stand-in reports no violation but hands over the operators validation
    formed, which the algebra keeps as ``left`` and ``right``."""
    validate = dg.validate_structure

    def no_violations(*args, **kw):
        v = dg._Violations()
        v.ops = validate(*args, **kw).ops
        return v

    monkeypatch.setattr(dg, "validate_structure", no_violations)
    square, unit = _leibniz_breakers(field)
    monkeypatch.undo()
    cases = [(kernel_subalgebra, "kernel-closure"), (homology, "homology")]
    for build, axiom in cases:
        for A, witness, detail in ((square, (1, 1), "product of cycles is not a cycle"),
                                   (unit, (), "unit is not a cycle")):
            with pytest.raises(ValidationError) as err:
                build(A)
            assert err.value.violations == [AxiomViolation(axiom, witness, detail)]


def _inheritance_cases(field):
    """Every pair of catalog factors tensored, random algebras, and dual^k for k <= 6."""
    gens = [A for _, A in generators(field)]
    rng = random.Random(47)
    cases = [tensor_product(A, B) for A in gens for B in gens]
    cases += [random_algebra(rng, field) for _ in range(8)]
    power = dual_numbers(field)
    cases.append(power)
    for _ in range(5):
        power = tensor_product(power, dual_numbers(field))
        cases.append(power)
    return cases


def _spy(monkeypatch, name):
    """The calls to ``dg.<name>``, recorded from now until the patch is undone."""
    calls = []
    wrapped = getattr(dg, name)
    monkeypatch.setattr(dg, name, lambda *a: calls.append(1) or wrapped(*a))
    return calls


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_inherited_associativity_agrees_with_the_complete_check(field, monkeypatch):
    """ker d and H skip the associativity enumeration, as they inherit it from A;
    the complete check (``validate`` passes no parent) finds nothing on them."""
    cases = _inheritance_cases(field)
    calls = _spy(monkeypatch, "_associativity_failures")
    built = [(kernel_subalgebra(A).algebra, homology(A)) for A in cases]
    assert calls == []
    monkeypatch.undo()
    for Z, H in built:
        assert Z.generators is None and H.generators is None
        assert Z.validate() == [] and H.validate() == []


def test_uncertified_tensor_products_still_enumerate(monkeypatch):
    S = split_pair(QQ)
    calls = _spy(monkeypatch, "_associativity_failures")
    assert tensor_product(S, S).generators is None
    assert calls


def _axioms(err):
    return [v.axiom for v in err.value.violations]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_inherited_route_keeps_the_unit_and_degree_checks(field):
    """A parent skips only associativity: a wrong unit or a product of the wrong
    degree still raises, and a nonzero d falls back to the complete check."""
    one = field.one
    flat = good_grading_matrix_algebra(field, 2, (0,))  # e11, e12, e21, e22; d = 0
    with pytest.raises(ValidationError) as err:
        DgAlgebra._checked(field, flat.space, {0: one}, flat.table, {}, parent=flat)
    assert "unit-law" in _axioms(err)
    Z = kernel_subalgebra(mat2_inner(field)).algebra  # z0_0 = 1, z1_0
    table = dict(Z.table)
    table[(1, 1)] = {1: one}
    with pytest.raises(ValidationError) as err:
        DgAlgebra._checked(field, Z.space, Z.unit, table, {}, parent=Z)
    assert _axioms(err) == ["degree-additivity"]
    for A in (flat, mat2_inner(field)):
        table = dict(A.table)
        e11 = A.space.all_labels().index("e11")
        del table[(e11, e11)]  # e11*e11 = 0: breaks the unit law and associativity
        args = (field, A.space, A.unit, table, A.dcols)
        complete = dg.validate_structure(*args)
        assert "associativity" in [v.axiom for v in complete]
        inherited = dg.validate_structure(*args, parent=A)
        if A.dcols:
            assert inherited == complete
        else:
            assert inherited == [v for v in complete if v.axiom != "associativity"]
        assert dg.validate_structure(*args, parent="not an algebra") == complete


# -- the shared-table route ------------------------------------------------------


def _complete(X):
    """The complete check on X's data: no hint, no parent."""
    return dg.validate_structure(X.field, X.space, X.unit, X.table, X.dcols)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_shared_table_constructions_inherit_the_certificate(field, monkeypatch):
    """An inner differential on Mat_3, A (x) End(point), K (x) End(L) and K (x) K
    neither enumerate associativity nor grow certificate words; each keeps its
    parent's table, operators and hint, and the complete check finds nothing."""
    M = good_grading_matrix_algebra(field, 3, (1, 1))
    A = mat3_inner(field)
    point, K = end_dg_algebra(KComplex.point(field)), neutral(field)
    EndL = structure_realize(A).witness.target
    assoc, certify = _spy(monkeypatch, "_associativity_failures"), _spy(monkeypatch, "_generators_certify")
    built = [(inner_differential(M, M.element({"e12": 1})), M), (tensor_product(A, point), A),
             (tensor_product(K, EndL), EndL), (tensor_product(K, K), K)]
    assert assoc == [] and certify == []
    monkeypatch.undo()
    for T, X in built:
        assert T.table is X.table and T.unit is X.unit
        assert T.left is X.left and T.right is X.right
        assert T.generators is X.generators
        assert _complete(T) == []
    assert built[0][0] == A and built[0][0].dcols


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_leibniz_breakers_on_a_shared_table_give_the_complete_list(field):
    """d(e12) = e13 on graded Mat_3 is of degree +1, squares to zero and kills 1,
    but d(e12 e22) = e13 while d(e12)e22 - e12 d(e22) = 0.  On A's own table the
    failure shows on the hint, and the list is the complete check's, with a hint
    or without one."""
    one = field.one
    M = good_grading_matrix_algebra(field, 3, (1, 1))
    bare = DgAlgebra.build(field, M.space, M.unit, M.table, {})  # no hint
    assert M.generators and bare.generators is None
    labels = M.space.all_labels()
    e12, e13 = labels.index("e12"), labels.index("e13")
    for parent in (M, bare):
        for d in ({e12: {e13: one}}, {e12: {e13: one}, e13: {e12: one}}):
            args = (field, parent.space, parent.unit, parent.table, d)
            complete = dg.validate_structure(*args)
            assert "leibniz" in [v.axiom for v in complete]
            assert dg.validate_structure(*args, parent=parent) == complete
            with pytest.raises(ValidationError) as err:
                DgAlgebra._checked(*args, parent=parent)
            assert err.value.violations == complete
        good = inner_differential(parent, parent.element({"e12": 1}))
        assert good.table is parent.table and _complete(good) == []


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_copies_and_other_spaces_do_not_take_the_shared_route(field, monkeypatch):
    """A copied unit, a copied table or a space with other dims enumerates
    associativity again, and the list is the complete check's."""
    A = mat3_inner(field)
    flat = good_grading_matrix_algebra(field, 3, (0, 0)).space  # dim 9, all of degree 0
    cases = [(A.space, dict(A.unit), A.table), (A.space, A.unit, dict(A.table)), (flat, A.unit, A.table)]
    for space, unit, table in cases:
        args = (field, space, unit, table, A.dcols)
        complete = dg.validate_structure(*args)
        calls = _spy(monkeypatch, "_associativity_failures")
        got = dg.validate_structure(*args, parent=A)
        monkeypatch.undo()
        assert calls and got == complete
        assert (got == []) == (space is A.space)


def _tensor_cases(field):
    """Every pair of catalog factors, and End(point) and K on either side of
    Mat_3 with d and of End(L)."""
    gens = [A for _, A in generators(field)]
    A = mat3_inner(field)
    EndL = structure_realize(A).witness.target
    ones = (end_dg_algebra(KComplex.point(field)), neutral(field))
    return ([(X, Y) for X in gens for Y in gens]
            + [pair for X in (A, EndL) for Y in ones for pair in ((X, Y), (Y, X))])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_tensor_product_matches_the_dense_definition(field):
    """``tensor_product`` gives ``dense_tensor``'s labels, unit, table and d, and
    the serialized bytes of the algebra ``build`` makes from them, whether or
    not a factor is one-dimensional."""
    for X, Y in _tensor_cases(field):
        T = tensor_product(X, Y)
        space, unit, table, dcols = dense_tensor(X, Y)
        assert T.space.all_labels() == space.all_labels()
        assert (T.unit, T.table, T.dcols) == (unit, table, dcols)
        G = DgAlgebra.build(field, space, unit, table, dcols)
        assert T == G and serialize_algebra(T) == serialize_algebra(G)


BAD_HINTS = [[[1]], [None], 5, "ab"]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("hint", BAD_HINTS, ids=repr)
def test_a_malformed_hint_falls_back_to_the_complete_check(field, hint):
    """A hint that is no list of sparse vectors is dropped, never an error: the
    algebra keeps no hint, and the list is the one without a hint."""
    D = dual_numbers(field)
    assert DgAlgebra.build(field, D.space, D.unit, D.table, D.dcols, generators=hint).generators is None
    broken = dict(D.table)
    del broken[(1, 1)]  # 1*1 = 0
    for table in (D.table, broken):
        args = (field, D.space, D.unit, table, D.dcols)
        got = dg.validate_structure(*args, generators=hint)
        assert got == dg.validate_structure(*args) and got.generators is None
