"""Finite-dimensional differential graded algebras with complete validation.

An algebra is stored as structure constants over the flat basis order of its
graded space: ``table[(i, j)]`` is the sparse product of basis elements i and
j, ``dcols[i]`` the sparse differential column.  Absent entries are zero.
Every constructor re-checks every axiom.  A caller's unit, table, d, elements
and hint meet the one index check of ``graded.clean_coeffs``; ``build``
checks each index of a product key too.  ``tensor_product``, ``opposite``,
the kernel and homology algebras, ``matrix_algebras._matrix_unit_algebra``
(good-graded Mat_n and End(C)) and ``inner_differential`` write only nonzero
field values at basis indices, so they skip that coercion and go straight to
validation (``DgAlgebra._checked``).  They skip no axiom, though the kernel
and homology algebras, and the algebras built on a validated algebra's own
table, take what they inherit instead of enumerating it.

There is one validation path.  ``validate_complex`` checks a (space, d) pair:
d of degree +1 and d squared zero; ``KComplex`` raises on its result.
``validate_structure`` is that plus the product axioms (degree additivity,
unit laws, associativity, graded Leibniz, d(1) = 0).  Every product in it is
an ``apply`` of a left or right multiplication operator.  ``_checked`` keeps
the operators validation formed as the algebra's ``left`` and ``right``, which
every other product routine reads; they share the table's columns, so copy a
column before changing it.
Associativity is checked one pair (i, j) at a time, as two operators in k:
k -> (ei*ej)*ek, the left operator of ei*ej, and k -> ei*(ej*ek).  They are
compared whole, and the k are walked only when they differ.  Leibniz is
checked on the pairs where a side can be nonzero.  Both visit only the tuples
the support of the tables reaches; a skipped tuple has both sides zero, so
the list is that of a loop over all triples and pairs, in order.

A constructor may pass ``generators``, a hint S of homogeneous sparse
vectors.  When every other axiom holds, ``validate_structure`` first tries to
certify associativity and Leibniz from S: the words s1(s2(...(sk*1))) over S,
grown by elimination from the left operator of each s, built once, must span
A, and both axioms must hold with x a basis term of S, against every basis y
and z.  If that fails, or the hint is empty, rejected by ``clean_coeffs``, not
homogeneous or has basis terms in over half the basis, the complete
enumeration runs unchanged, so the list never depends on the hint.  The
algebra keeps as ``generators`` only what the certificate proved: S after
``clean_coeffs`` when it succeeded, else None, so a hint that fell back is
dropped.  A kept S generates A, so ``tensor_product``, ``center`` and
``brauer.verify_dg_iso`` may work from it alone.

The certificate is exact.  N = {x : (xy)z = x(yz) for all y, z} is a
subspace holding S, and 1 by the unit laws.  It is closed under products:
((x1 x2)y)z = (x1(x2 y))z = x1((x2 y)z) = x1(x2(yz)) = (x1 x2)(yz).  So N
holds every word, and N = A.  Then, with d(1) = 0, the homogeneous x with
d(xy) = d(x)y + (-1)^|x| x d(y) for all y form, degree by degree, a subspace
that holds 1 and S and is closed under products by the same computation; the
words are homogeneous, so it spans A too.

The kernel and homology algebras take a third route: ``_cycle_algebra``
passes the validated A as ``parent``, and when d = 0 ``validate_structure``
skips only the associativity enumeration (Leibniz is void with d = 0); the
degree, unit and complex checks still run.  For Z = ker d, the map
iota: Z -> A sending basis vector q to its cycle is injective of degree 0.
The closure check d(p) = 0 on every product p of two cycles means the
coordinates read off p reconstruct it, so iota(xy) = iota(x)iota(y) on basis
pairs, and iota(1) = 1 as the unit is checked to be a cycle too.  Then
iota((xy)z) = iota(x(yz)) by associativity in A, and Z is associative.  For
H, the coset projection pi: Z -> H is onto with kernel B, an ideal of Z by
A's Leibniz rule, so pi(xy) = pi(x)pi(y) and associativity passes from Z down
to H.  The closure check is thus the certificate; it always runs.

An algebra built on a validated algebra P's own dicts takes the shared-table
route: ``inner_differential``, and ``tensor_product`` with a one-dimensional
factor, pass P as ``parent`` with ``P.table is table``, ``P.unit is unit``
and ``P.space == space`` (equal dims give equal flat degrees, as flat order
is degree-ascending).  Nothing product-related is new then.  L and R are P's,
associativity was certified on these very objects and is not enumerated
again, and P's certified generators still generate, as the words depend only
on table and unit; they are not grown again.  Leibniz is void when d is
P's d too.  Otherwise it is checked with x a basis term of P's generators,
against every basis y: by the argument above, the x satisfying it form a
subspace closed under products, which needs associativity, degree
additivity and d(1) = 0, the last two checked here.  If P keeps no hint, or
a failure shows up there, the complete Leibniz loop runs, so the list is
the complete check's.  The degree, unit, complex and d(1) = 0 checks run as
always.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import AxiomViolation, DgError, ShapeMismatch, ValidationError
from .fields import Field
from .graded import (
    GradedVectorSpace,
    HomogeneousMap,
    Subspace,
    TensorBasis,
    add_into,
    apply,
    clean_coeffs,
    clean_columns,
    kernel_of,
    operator_of,
    operators,
    span_of,
)
from .linalg import Factored, coset_basis, kernel_columns, rref_rows, transpose


def ksign(m: int, n: int) -> int:
    """The Koszul sign (-1)**(m*n) as an int, safe for negative degrees."""
    return -1 if (m * n) % 2 else 1


def negate_coeffs(field: Field, coeffs: dict) -> dict:
    return {i: field.neg(x) for i, x in coeffs.items()}


class DgAlgebra:
    """A validated dg-algebra over an exact field."""

    def __init__(self, field, space, unit, table, dcols, *, hom=None, generators=None,
                 _validated=False, _ops=None):
        if not _validated:
            raise ShapeMismatch("use DgAlgebra.build so the axioms get checked")
        self.field = field
        self.space = space
        self.unit = unit
        self.table = table
        self.dcols = dcols
        self.hom = hom
        self.generators = generators  # the certified hint, clean, or None
        self.left, self.right = _ops  # left[i][j] = right[j][i] = ei*ej

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, field, space, unit, table, diff, *, hom=None, generators=None):
        """Coerce a caller's structure data, validate it and wrap it; raises when bad.

        The unit, the product rows and d go through ``clean_coeffs``, a product
        key must be a pair of basis indices, and empty products are dropped;
        ``_checked`` then validates.  ``generators`` is passed on to
        ``validate_structure``; the algebra keeps it, cleaned, only if it
        certified the algebra, and None otherwise.
        """
        n = space.total_dim
        unit = clean_coeffs(field, unit, n, "unit index")
        tbl = {}
        for key, out in table.items():
            i, j = key if type(key) is tuple and len(key) == 2 else (key, None)
            if type(i) is not int or type(j) is not int or not (0 <= i < n and 0 <= j < n):
                raise ShapeMismatch(f"product entry {key!r} outside the basis")
            out = clean_coeffs(field, out, n, "product row")
            if out:
                tbl[key] = out
        dc = clean_columns(field, diff, n, n, "differential")
        return cls._checked(field, space, unit, tbl, dc, hom=hom, generators=generators)

    @classmethod
    def _checked(cls, field, space, unit, table, dcols, *, hom=None, generators=None, parent=None):
        """Validate data that ``build`` would leave unchanged, and wrap its dicts.

        Validation goes through the module-level name ``validate_structure``,
        which the benchmark tracer wraps; ``parent`` is passed on to it.  The
        algebra keeps the hint that validation certified, or None.
        """
        violations = validate_structure(field, space, unit, table, dcols, generators=generators,
                                        parent=parent)
        if violations:
            raise ValidationError(violations)
        return cls(field, space, unit, table, dcols, hom=hom, generators=violations.generators,
                   _validated=True, _ops=violations.ops)

    @classmethod
    def zero_algebra(cls, field):
        return cls.build(field, GradedVectorSpace.zero(), {}, {}, {})

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.space.total_dim

    def degree_of(self, i: int) -> int:
        return self.space.degree_of(i)

    def label_of(self, i: int) -> str:
        return self.space.label_of(i)

    def element(self, terms) -> dict:
        """Sparse element from {label: coefficient}; labels must be unique."""
        labels = {self.label_of(i): i for i in range(self.dim)}
        unknown = [lbl for lbl in terms if lbl not in labels]
        if unknown:
            raise ShapeMismatch(f"no basis label {unknown[0]!r}")
        return self.coeffs({labels[lbl]: c for lbl, c in terms.items()})

    def coeffs(self, u) -> dict:
        """Sparse element from {flat index: coefficient}; the indices must lie in the basis."""
        return clean_coeffs(self.field, u, self.dim, "element index")

    # -- arithmetic on sparse elements --------------------------------------

    def mul(self, u: dict, v: dict) -> dict:
        """The product u * v of sparse elements, as an ``apply`` over the left operators."""
        return apply(self.field, {i: apply(self.field, self.left.get(i, {}), v) for i in u}, u)

    def d_apply(self, u: dict) -> dict:
        return apply(self.field, self.dcols, u)

    def complex(self) -> "KComplex":
        return KComplex(self.field, self.space, self.dcols)

    def validate(self):
        return validate_structure(self.field, self.space, self.unit, self.table, self.dcols,
                                  generators=self.generators)

    def __eq__(self, other):
        return (
            isinstance(other, DgAlgebra)
            and self.field == other.field
            and self.space == other.space
            and self.unit == other.unit
            and self.table == other.table
            and self.dcols == other.dcols
        )

    def __repr__(self):
        return f"DgAlgebra(dim={self.dim}, degrees={dict(self.space.dims)})"


def _show(field, space, vec) -> str:
    fmt = field.format
    return " + ".join(f"{fmt(c)}*{space.label_of(i)}" for i, c in sorted(vec.items())) or "0"


def validate_complex(field, space, dcols):
    """d of degree +1 and d squared zero; returns every violation found."""
    v: list[AxiomViolation] = []
    deg = space.flat_degrees()
    for i, out in sorted(dcols.items()):
        for k in out:
            if deg[k] != deg[i] + 1:
                v.append(AxiomViolation(
                    "d-degree", (i,),
                    f"d hits degree {deg[k]} from degree {deg[i]}",
                ))
                break
    for i, col in sorted(dcols.items()):
        dd = apply(field, dcols, col)
        if dd:
            v.append(AxiomViolation("d-squared", (i,), f"d(d(e{i})) = {_show(field, space, dd)}"))
    return v


def _associativity_failures(field, L, table, only=None):
    """(i, j, k, (ei*ej)*ek, ei*(ej*ek)) for each basis triple whose sides differ, in order.

    ``L[i][j] = ei*ej`` is the left multiplication operator of ``table``, as
    ``graded.operators`` gives it.  For each i and j the two sides are
    compared as operators in k: k -> (ei*ej)*ek is the left operator of
    ei*ej, and k -> ei*(ej*ek) applies ``L[i]`` to each ``L[j][k]``.  The
    right side needs a term em of some ej*ek with ei*em nonzero, so j runs
    over ``L[i]`` and the j that reach such an em; on every other pair both
    operators are zero.  The k are walked only when the operators differ.
    ``only`` (sorted indices) limits i.
    """
    reach: dict = {}  # m -> the j with em a term of some ej*ek
    for (j, _), out in table.items():
        for m in out:
            reach.setdefault(m, set()).add(j)
    empty: dict = {}
    for i in sorted(L) if only is None else only:
        li = L.get(i, empty)
        for j in sorted(set(li).union(*(reach.get(m, ()) for m in li))):
            left = operator_of(field, L, li.get(j, empty))
            right = {k: v for k, jk in L.get(j, empty).items() if (v := apply(field, li, jk))}
            if left != right:
                for k in sorted(left.keys() | right.keys()):
                    lk, rk = left.get(k, empty), right.get(k, empty)
                    if lk != rk:
                        yield i, j, k, lk, rk


def _leibniz_failures(field, L, R, dcols, deg, only=None):
    """(i, j, d(ei*ej), d(ei)*ej + (-1)^|ei| ei*d(ej)) for each pair whose sides differ, in order.

    ``L[i][j] = R[j][i] = ei*ej`` are the multiplication operators of the
    table, as ``graded.operators`` gives them, and ``dcols`` is the
    differential.  A side is nonzero only if ei*ej is, d(ei) has a term ek
    with ek*ej nonzero, or d(ej) has a term ek with ei*ek nonzero; other
    pairs are zero on both sides.  ``only`` (sorted indices) limits i.
    """
    if not dcols:  # d = 0: both sides vanish on every pair
        return
    hits = transpose(dcols)
    empty: dict = {}
    minus = field.neg(field.one)
    for i in sorted(set(L) | set(dcols)) if only is None else only:
        li, di = L.get(i, empty), dcols.get(i, empty)
        cand = set(li).union(*(L.get(k, empty) for k in di), *(hits.get(k, ()) for k in li))
        sign = None if ksign(deg[i], 1) > 0 else minus
        for j in sorted(cand):
            lhs = apply(field, dcols, li.get(j, empty))
            rhs = apply(field, R.get(j, empty), di)
            add_into(field, rhs, apply(field, li, dcols.get(j, empty)), scale=sign)
            if lhs != rhs:
                yield i, j, lhs, rhs


def _generators_certify(field, deg, unit, table, dcols, L, R, generators):
    """The hint after ``clean_coeffs`` when associativity and Leibniz follow from it, else None.

    See the module docstring for why.  None, never an error, for a hint that
    is no list or tuple of dicts, empty, not homogeneous or not generating, or
    that ``clean_coeffs`` rejects (an index that is not an int in range, a
    value that is no scalar), or on any failure; also when the hint's basis
    terms are over half the basis, as the complete check then costs less than
    the certificate.
    """
    n = len(deg)
    if not isinstance(generators, (list, tuple)) or not all(isinstance(s, dict) for s in generators):
        return None
    try:
        gens = [s for s in (clean_coeffs(field, s, n, "generator index") for s in generators) if s]
    except DgError:
        return None
    support = sorted({i for s in gens for i in s})
    if not support or 2 * len(support) > n or any(len({deg[i] for i in s}) > 1 for s in gens):
        return None
    # the words s1(s2(...(sk*1))): each product that rref_rows reports as
    # independent of those before it is appended and multiplied on in turn;
    # s*w applies the left operator of s, built once per generator
    ops = [operator_of(field, L, s) for s in gens]
    words: list = []
    products = (apply(field, op, w) for w in words for op in ops if len(words) < n)
    rref_rows(field, itertools.chain([unit], products), words.append)
    if (len(words) == n
            and next(_associativity_failures(field, L, table, support), None) is None
            and next(_leibniz_failures(field, L, R, dcols, deg, support), None) is None):
        return gens
    return None


class _Violations(list):
    """A list of violations, the hint that certified it (clean) or None, and the operators (L, R)."""

    generators = None
    ops = None


def validate_structure(field, space, unit, table, dcols, *, generators=None, parent=None):
    """Complete axiom check; returns every violation found.

    The product axioms are checked around ``validate_complex``: every
    product becomes an ``apply`` of a left or right multiplication operator.
    Associativity and Leibniz skip only tuples whose two sides are both zero.
    ``generators`` (a list of sparse vectors, or None) may certify those two
    axioms from fewer checks, as the module docstring explains; the list
    returned is the same with or without it, and its ``generators`` is the
    hint after ``clean_coeffs`` when it certified them, else None.

    ``parent`` is a validated ``DgAlgebra``.  When ``parent.table is table``,
    ``parent.unit is unit`` and ``parent.space == space`` (the shared-table
    route of the module docstring), L and R are the parent's operators,
    associativity is not enumerated, the list's ``generators`` is
    ``parent.generators`` and ``generators`` is not read; Leibniz is void
    when ``dcols is parent.dcols`` and otherwise checked on the basis terms of
    ``parent.generators``, falling back to the complete loop.  Any other
    parent is one whose data ``_cycle_algebra`` read off through a checked
    multiplicative map: it skips the associativity enumeration when d = 0,
    and nothing else.
    """
    v = _Violations()
    n = space.total_dim
    deg = space.flat_degrees()

    def show(vec):
        return _show(field, space, vec)

    # degree additivity of the product
    for (i, j), out in sorted(table.items()):
        want = deg[i] + deg[j]
        for k in out:
            if deg[k] != want:
                v.append(AxiomViolation(
                    "degree-additivity", (i, j),
                    f"product hits degree {deg[k]}, expected {want}",
                ))
                break

    # unit: homogeneous of degree 0, two-sided neutral
    if n == 0:
        if unit:
            v.append(AxiomViolation("unit-degree", (), "nonzero unit in the zero algebra"))
    else:
        if not unit:
            v.append(AxiomViolation("unit-law", (), "unit is zero"))
        for i in unit:
            if deg[i] != 0:
                v.append(AxiomViolation("unit-degree", (i,), f"unit has a degree-{deg[i]} component"))
                break

    shared = (isinstance(parent, DgAlgebra) and parent.table is table and parent.unit is unit
              and parent.space == space)
    L, R = v.ops = (parent.left, parent.right) if shared else operators(table)
    empty: dict = {}
    one = field.one
    if unit:
        for i in range(n):
            e = {i: one}
            if apply(field, R.get(i, empty), unit) != e:
                v.append(AxiomViolation("unit-law", (i,), "1*e differs from e"))
            if apply(field, L.get(i, empty), unit) != e:
                v.append(AxiomViolation("unit-law", (i,), "e*1 differs from e"))

    complex_v = validate_complex(field, space, dcols)
    du = apply(field, dcols, unit)
    clean = not v and not complex_v and not du
    leibniz_holds = False
    if shared:
        v.generators = parent.generators
        terms = sorted({i for s in parent.generators or () for i in s})
        leibniz_holds = dcols is parent.dcols or (
            clean and terms and next(_leibniz_failures(field, L, R, dcols, deg, terms), None) is None)
    elif (generators is not None and clean
            and (gens := _generators_certify(field, deg, unit, table, dcols, L, R, generators))):
        v.generators = gens
        return v

    inherited = shared or (not dcols and isinstance(parent, DgAlgebra))
    for i, j, k, left, right in () if inherited else _associativity_failures(field, L, table):
        v.append(AxiomViolation(
            "associativity", (i, j, k),
            f"(e{i}*e{j})*e{k} = {show(left)} but e{i}*(e{j}*e{k}) = {show(right)}",
        ))

    v += complex_v

    for i, j, lhs, rhs in () if leibniz_holds else _leibniz_failures(field, L, R, dcols, deg):
        v.append(AxiomViolation(
            "leibniz", (i, j),
            f"d(e{i}*e{j}) = {show(lhs)} but the rule gives {show(rhs)}",
        ))

    # d(1) = 0: implied by Leibniz, still checked to catch corrupt input
    if du:
        v.append(AxiomViolation("d-unit", (), f"d(1) = {show(du)}"))

    return v


# -- derived constructions --------------------------------------------------


def opposite(A: DgAlgebra) -> DgAlgebra:
    """Same space and differential, product reversed with the Koszul sign."""
    deg = A.space.flat_degrees()
    table = {}
    for (i, j), out in A.table.items():
        if ksign(deg[i], deg[j]) < 0:
            out = negate_coeffs(A.field, out)
        table[(j, i)] = out
    return DgAlgebra._checked(A.field, A.space, A.unit, table, A.dcols, generators=A.generators)


def _tensor_basis(A, B) -> TensorBasis:
    if A.field != B.field:
        raise ShapeMismatch("tensor factors over different fields")
    return TensorBasis(A.space, B.space)


def _tensor_dcols(A, B, tb: TensorBasis) -> dict:
    """The flat columns of d on A (x) B, the one writer of the tensor differential.

    d(e_i @ e_j) = d(e_i) @ e_j + (-1)^{|e_i|} e_i @ d(e_j); d has degree +1,
    so no slot of the first sum is one of the second.
    """
    f, idx = A.field, tb.index
    degA = A.space.flat_degrees()
    dcols: dict = {}
    for t, (i, j) in enumerate(tb.pairs):
        sgn = ksign(degA[i], 1)
        col = {idx[(k, j)]: c for k, c in A.dcols.get(i, {}).items()}
        col.update((idx[(i, l)], f.neg(c) if sgn < 0 else c) for l, c in B.dcols.get(j, {}).items())
        if col:
            dcols[t] = col
    return dcols


def tensor_complex(A, B) -> "KComplex":
    """The complex underlying ``tensor_product(A, B)``: its space and d, no product.

    A and B are anything with ``field``, ``space`` and ``dcols``.  The
    ``KComplex`` checks d-degree and d squared zero as usual.
    """
    tb = _tensor_basis(A, B)
    return KComplex(A.field, tb.space, _tensor_dcols(A, B, tb))


def tensor_product(A: DgAlgebra, B: DgAlgebra) -> DgAlgebra:
    """Graded tensor product with the sign rule on interchanged factors.

    When one factor Y has dimension 1 and unit 1 (``neutral``, End(point)),
    validation made e0*e0 = e0 of degree 0 and d = 0 on it.  The tensor basis
    then keeps the flat order of the other factor X, every Koszul sign is +1
    and every coefficient is multiplied by 1, so the unit, table and d of
    X (x) Y are X's entry for entry.  The product is built on X's own dicts,
    with X as ``parent`` (the shared-table route of the module docstring),
    and keeps X's certified hint; only its labels are the tensor basis's.
    """
    tb = _tensor_basis(A, B)
    f = A.field
    for X, Y in ((A, B), (B, A)):
        if Y.dim == 1 and Y.unit == {0: f.one}:
            return DgAlgebra._checked(f, tb.space, X.unit, X.table, X.dcols, parent=X)
    idx = tb.index
    degA = A.space.flat_degrees()
    degB = B.space.flat_degrees()

    unit: dict = {}
    for i, a in A.unit.items():
        for j, b in B.unit.items():
            unit[idx[(i, j)]] = f.mul(a, b)

    table: dict = {}
    for (i1, i2), outA in A.table.items():
        for (j1, j2), outB in B.table.items():
            sgn = ksign(degB[j1], degA[i2])
            out: dict = {}
            for k, a in outA.items():
                for l, b in outB.items():
                    c = f.mul(a, b)
                    out[idx[(k, l)]] = f.neg(c) if sgn < 0 else c
            if out:
                table[(idx[(i1, j1)], idx[(i2, j2)])] = out

    def hint(X):
        # a factor without a certified hint is generated by its basis elements other than 1
        return X.generators or [e for e in ({i: f.one} for i in range(X.dim)) if e != X.unit]

    gens = [{idx[(i, j)]: f.mul(a, b) for i, a in s.items() for j, b in B.unit.items()}
            for s in hint(A)]
    gens += [{idx[(i, j)]: f.mul(a, b) for i, a in A.unit.items() for j, b in s.items()}
             for s in hint(B)]
    return DgAlgebra._checked(f, tb.space, unit, table, _tensor_dcols(A, B, tb), generators=gens)


def swap_map(A: DgAlgebra, B: DgAlgebra) -> HomogeneousMap:
    """The signed flip a@b -> (-1)^{|a||b|} b@a between the two tensor spaces."""
    f = A.field
    tab = TensorBasis(A.space, B.space)
    tba = TensorBasis(B.space, A.space)
    degA = A.space.flat_degrees()
    degB = B.space.flat_degrees()
    cols = {}
    for t, (i, j) in enumerate(tab.pairs):
        c = f.one if ksign(degA[i], degB[j]) > 0 else f.neg(f.one)
        cols[t] = {tba.index[(j, i)]: c}
    return HomogeneousMap(f, tab.space, tba.space, 0, cols)


def unsigned_swap_map(A: DgAlgebra, B: DgAlgebra) -> HomogeneousMap:
    """The naive flip with no signs; fails multiplicativity in odd degrees."""
    f = A.field
    tab = TensorBasis(A.space, B.space)
    tba = TensorBasis(B.space, A.space)
    cols = {t: {tba.index[(j, i)]: f.one} for t, (i, j) in enumerate(tab.pairs)}
    return HomogeneousMap(f, tab.space, tba.space, 0, cols)


# -- homology and kernel ------------------------------------------------------


def _cycles(A: DgAlgebra):
    """The kernel basis of d in flat order, its projection, and the pivot columns of d.

    ``basis[q]`` from ``kernel_columns`` has 1 at its free column j_q and 0 at
    the other free columns, so a cycle's coordinates on the basis are its
    entries at those columns, read off with no elimination.  ``project(v)``
    returns them, q ascending, when d(v) = 0 and None otherwise.
    """
    basis, pivots = kernel_columns(A.field, A.dcols, A.dim)
    q_of = {j: q for q, j in enumerate(basis)}

    def project(v: dict):
        if A.d_apply(v):
            return None
        return {q_of[j]: x for j, x in sorted(v.items()) if j in q_of}

    return list(basis.values()), project, pivots


def homology_dims(C) -> dict:
    """{k: dim H^k} for each k with H^k nonzero, ascending, as ``dict(homology(C).space.dims)``.

    ``C`` is anything with ``field``, ``space`` and ``dcols`` (a ``KComplex``
    or a ``DgAlgebra``); nothing is built.  One ``kernel_columns`` over d
    gives dim H^k: the cycles of degree k, its free columns there, minus the
    rank of d into degree k, its pivot columns of degree k - 1.
    """
    cycles, pivots = kernel_columns(C.field, C.dcols, C.space.total_dim)
    deg = C.space.flat_degrees()
    dims = Counter(deg[j] for j in cycles)
    dims.subtract(deg[j] + 1 for j in pivots)
    return {k: v for k, v in sorted(dims.items()) if v}


def coords(project, vec: dict, axiom: str, witness: tuple, detail: str) -> dict:
    """``project(vec)``, raising a one-violation ValidationError when it is None."""
    sol = project(vec)
    if sol is None:
        raise ValidationError([AxiomViolation(axiom, witness, detail)])
    return sol


@dataclass(frozen=True)
class KernelAlgebra:
    algebra: DgAlgebra
    inclusion: HomogeneousMap


def _cycle_algebra(A: DgAlgebra, reps, project, prefix: str, axiom: str) -> KernelAlgebra:
    """The algebra on the cycles ``reps`` (flat order, labelled ``{prefix}{k}_{i}``), d = 0.

    ``project(v)`` gives the coordinates of a cycle v on ``reps`` (modulo the
    boundaries, for H), or None when v is no cycle; the inclusion sends each
    representative to its vector in A.  The product of reps i and j is the
    left operator of rep i, formed once by ``operator_of``, applied to rep j,
    and the table holds its coordinates.  Closure is checked on each product
    and on the unit: a None raises ``axiom`` with witness (i, j), or () for
    the unit.  It cannot fail on a validated A: by the graded Leibniz rule
    and d(1) = 0, for cycles z, z' and homogeneous x, d(zz') = 0,
    d(x)z = d(xz) and z d(x) = (-1)^|z| d(zx), so Z is a subalgebra holding 1
    and the boundaries B = d(A) are a two-sided ideal of Z.  These checks
    make the map to A (or from Z, for H) multiplicative, so the algebra is
    validated with A as ``parent`` and inherits its associativity (see the
    module docstring); every other axiom is checked.
    """
    f = A.field
    sub = span_of(f, A.space, reps, prefix)
    table: dict = {}
    for i, u in enumerate(reps):
        Lu = operator_of(f, A.left, u)
        for j, v in enumerate(reps):
            p = apply(f, Lu, v)
            if p:
                out = coords(project, p, axiom, (i, j), "product of cycles is not a cycle")
                if out:
                    table[(i, j)] = out
    unit = coords(project, A.unit, axiom, (), "unit is not a cycle") if A.unit else {}
    return KernelAlgebra(DgAlgebra._checked(f, sub.space, unit, table, {}, parent=A), sub.inclusion)


def kernel_subalgebra(A: DgAlgebra) -> KernelAlgebra:
    """ker(d) with its inherited product and its inclusion into A; coordinates are read off."""
    zcols, project, _ = _cycles(A)
    return _cycle_algebra(A, zcols, project, "z", "kernel-closure")


def homology(A: DgAlgebra) -> DgAlgebra:
    """H(A) = Z/B with its induced product, as a dg-algebra with zero differential.

    When B = d(A) is nonzero, one ``coset_basis`` call gives it: the
    representatives of each degree are the cycles independent of the
    boundaries and of the cycles before them, and a cycle's coordinates on
    them modulo B are zero exactly when it is a boundary; when B = 0 they are
    read off as for ker d.  That the product is well defined is not checked:
    it follows from the Leibniz rule that validation certified (see
    ``_cycle_algebra``).  Associativity is inherited from A through the
    projection Z -> H, whose kernel B is an ideal; it is not enumerated.
    """
    zcols, project, pivots = _cycles(A)
    if pivots:
        picks, project = coset_basis(A.field, [A.dcols[j] for j in pivots], zcols)
        zcols = [zcols[p] for p in picks]
    return _cycle_algebra(A, zcols, project, "h", "homology").algebra


# -- contracting elements ----------------------------------------------------


@dataclass(frozen=True)
class ContractingElement:
    """A degree -1 solution z of d(z) = 1 plus the decomposition certificate."""

    z: dict
    kernel_dims: dict
    dims_add_up: bool
    intersection_trivial: bool
    retraction_ok: bool

    @property
    def certified(self) -> bool:
        return self.dims_add_up and self.intersection_trivial and self.retraction_ok


def contracting_element(A: DgAlgebra):
    """Solve d(z) = 1 in degree -1; None when the system has no solution.

    The choice is canonical: the reduced-echelon particular solution with free
    variables zero.  When a solution exists the direct sum
    A = ker(d) + z ker(d) is certified degree by degree.
    """
    f = A.field
    if not A.unit or A.space.dim(-1) == 0:
        return None
    base = A.space.flat_index(-1, 0)
    sol = Factored(f, [A.dcols.get(base + t, {}) for t in range(A.space.dim(-1))]).solve(A.unit)
    if sol is None:
        return None
    z = {base + t: c for t, c in sol.items()}

    ker = kernel_of(HomogeneousMap(f, A.space, A.space, 1, A.dcols))
    kcols = ker.inclusion.flat_columns()
    lz = operator_of(f, A.left, z)
    # per degree: the kernel basis there and z times the kernel basis one above
    by_deg: dict[int, list] = {}
    retraction_ok = True
    for i, ncol in kcols.items():
        zn = apply(f, lz, ncol)
        k = ker.space.degree_of(i)
        by_deg.setdefault(k, []).append(ncol)
        by_deg.setdefault(k - 1, []).append(zn)
        if A.d_apply(zn) != ncol:
            retraction_ok = False

    dims_add_up = ker.space.total_dim * 2 == A.dim
    intersection_trivial = True
    for k in A.space.degrees():
        vecs = by_deg.get(k, [])
        if len(rref_rows(f, vecs)[1]) != len(vecs):
            intersection_trivial = False
        if len(vecs) != A.space.dim(k):
            dims_add_up = False
    return ContractingElement(z, dict(ker.space.dims), dims_add_up, intersection_trivial, retraction_ok)


# -- center and semisimplicity -----------------------------------------------


def center(A: DgAlgebra) -> Subspace:
    """The graded subspace of elements commuting with every basis element.

    Column s holds the e_m coefficient of e_s e_j - e_j e_s at row (j, m), and
    the center is the kernel of these columns.  A homogeneous column meets only
    rows with |m| - |j| = |s|, so the system is block diagonal by degree, and
    its kernel in flat order is the kernel of each degree's block, entry for entry.
    When A keeps a certified hint, the rows are only those with j a basis
    term of a generator: the centralizer of x is a subalgebra holding 1, so x
    commutes with every e_j once it commutes with generators of A.  The kernel
    is the same, hence so are the row space, its reduced form and the basis.
    """
    f = A.field
    minus = f.neg(f.one)
    empty: dict = {}
    gens = None if A.generators is None else {i for s in A.generators for i in s}
    cols: dict = {}
    for s in range(A.dim):
        Ls, Rs = A.left.get(s, empty), A.right.get(s, empty)
        col = cols[s] = {}
        js = Ls.keys() | Rs.keys()
        for j in js if gens is None else js & gens:
            comm = dict(Ls.get(j, empty))
            add_into(f, comm, Rs.get(j, empty), scale=minus)
            col.update(((j, m), c) for m, c in comm.items())
    basis, _ = kernel_columns(f, cols, A.dim)
    return span_of(f, A.space, list(basis.values()), "c")


@dataclass(frozen=True)
class SemisimplicityReport:
    """verdict True/False, or None when the method cannot decide.

    ``radical`` holds sparse vectors forming a basis of the radical.
    """

    verdict: bool | None
    method: str
    radical: tuple = ()
    detail: str = ""


_EXHAUSTIVE_CAP = 4096


def _trace_form_radical(A: DgAlgebra):
    """Basis of the kernel of the trace form (x, y) -> tr(L_x L_y), or None when 0 < p <= dim.

    Built from the n x n Gram matrix only when the characteristic p of K is 0
    or exceeds n = dim A: that is when the kernel is the radical of A (see
    ``is_semisimple_ungraded``).
    """
    f, n = A.field, A.dim
    if 0 < f.characteristic() <= n:
        return None
    # tr(L_x L_y) = tr(L_{xy}); precompute traces of left multiplications
    trace: dict = {}
    for (m, k), out in A.table.items():
        if k in out:
            trace[m] = f.add(trace.get(m, f.zero), out[k])
    # column j of the Gram matrix holds tr(L_{e_i e_j}) at row i
    gram: dict = {}
    for (i, j), out in A.table.items():
        acc = f.zero
        for m, c in out.items():
            if m in trace:
                acc = f.add(acc, f.mul(c, trace[m]))
        if not f.is_zero(acc):
            gram.setdefault(j, {})[i] = acc
    return tuple(kernel_columns(f, gram, n)[0].values())


def is_semisimple_ungraded(A: DgAlgebra) -> SemisimplicityReport:
    """Semisimplicity of the underlying ungraded algebra.

    Characteristic zero or p > dim: radical = kernel of the trace form
    tr(L_x L_y).  For x in the kernel every tr(L_x^k) vanishes, and Newton's
    identities make L_x nilpotent from that only when p = 0 or p > dim (the
    proof is in ``brauer.forget_descriptor``).  For 0 < p <= dim the form can
    vanish on a simple algebra: on Mat_p over GF(p), tr(L_x) = p tr(x) = 0.
    Small finite cases: exhaustive search for the maximal nil ideal.
    Anything else is reported as indeterminate rather than guessed.
    """
    f = A.field
    n = A.dim
    if n == 0:
        return SemisimplicityReport(True, "trace-form", (), "zero algebra")
    radical = _trace_form_radical(A)
    if radical is not None:
        return SemisimplicityReport(not radical, "trace-form", radical)
    p = f.characteristic()
    if p ** n <= _EXHAUSTIVE_CAP:
        elems = [
            {i: c for i, c in enumerate(tup) if c}
            for tup in itertools.product(range(p), repeat=n)
        ]

        def nilpotent(vec):
            y = vec
            e = 1
            while y and e <= n:
                y = A.mul(y, y)
                e *= 2
            return not y

        # x with xa nilpotent for all a: xA is a nil right ideal, so x lies in the
        # Jacobson radical J, and J is nilpotent, so the members are exactly J
        members = [x for x in elems if all(nilpotent(A.mul(x, a)) for a in elems)]
        # the members independent of those before them span the radical
        radical: list = []
        rref_rows(f, members, radical.append)
        return SemisimplicityReport(not radical, "exhaustive", tuple(radical))

    return SemisimplicityReport(
        None, "indeterminate", (),
        f"characteristic {p} <= dim {n} and {p}^{n} > {_EXHAUSTIVE_CAP}",
    )


@dataclass(frozen=True)
class TgrReport:
    """Whether bounded + acyclic + semisimple kernel all hold."""

    verdict: bool | None
    acyclic: bool
    homology_dims: dict
    kernel_dims: dict
    kernel_report: SemisimplicityReport
    reasons: tuple


def is_tgr_semisimple(A: DgAlgebra) -> TgrReport:
    """Acyclic with semisimple kernel subalgebra (boundedness is automatic).

    Acyclicity reads ``homology_dims(A)``; the kernel algebra is the one
    algebra built, as the trace form needs its product table.
    """
    hdims = homology_dims(A)
    acyclic = not hdims
    ker = kernel_subalgebra(A)
    krep = is_semisimple_ungraded(ker.algebra)
    reasons = ["bounded: yes (finite dimensional)"]
    reasons.append("acyclic: " + ("yes" if acyclic else f"no, homology dims {hdims}"))
    if krep.verdict is None:
        reasons.append(f"kernel semisimple: indeterminate ({krep.detail})")
        verdict = False if not acyclic else None
    else:
        reasons.append("kernel semisimple: " + ("yes" if krep.verdict else "no"))
        verdict = acyclic and krep.verdict
    return TgrReport(
        verdict, acyclic, hdims, dict(ker.algebra.space.dims), krep, tuple(reasons)
    )


# -- degree-zero wrappers ------------------------------------------------------


def trivial_dg(field, labels, unit, table) -> DgAlgebra:
    """An ordinary algebra viewed as a dg-algebra: degree 0, zero differential."""
    labels = tuple(labels)
    space = GradedVectorSpace({0: len(labels)}, {0: labels})
    return DgAlgebra.build(field, space, unit, table, {})


def regrade_trivial(A: DgAlgebra) -> DgAlgebra:
    """Forget the grading and differential of A, keeping its product table."""
    return trivial_dg(A.field, A.space.all_labels(), A.unit, A.table)


# -- complexes ----------------------------------------------------------------


class KComplex:
    """A graded space with a degree +1 square-zero map; validated on build."""

    def __init__(self, field, space, dcols):
        self.field = field
        self.space = space
        self.dcols = clean_columns(field, dcols, space.total_dim, space.total_dim, "differential")
        violations = validate_complex(field, space, self.dcols)
        if violations:
            raise ValidationError(violations)

    @classmethod
    def point(cls, field):
        return cls(field, GradedVectorSpace({0: 1}, {0: ("1",)}), {})

    def d_apply(self, u: dict) -> dict:
        return apply(self.field, self.dcols, u)

    def differential_map(self) -> HomogeneousMap:
        return HomogeneousMap(self.field, self.space, self.space, 1, self.dcols)

    def __eq__(self, other):
        return (
            isinstance(other, KComplex)
            and self.field == other.field
            and self.space == other.space
            and self.dcols == other.dcols
        )

    def __repr__(self):
        return f"KComplex(dims={dict(self.space.dims)})"

