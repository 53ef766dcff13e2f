"""Full matrix algebras graded so that every matrix unit is homogeneous.

Such a grading is fixed by the degrees of the superdiagonal units: given
integers f(1), ..., f(n-1), the unit e_{i,j} gets degree f(i) + ... + f(j-1)
for i < j and minus the reverse sum for i > j.  Degree-1 inner differentials
d_z(a) = za - (-1)^{|a|} az supply the differentials; d_z squares to zero
exactly when z^2 is central, and that condition is checked with a witness.

A good-graded Mat_n is End of a graded space with d = 0, so it and
``homs.end_dg_algebra`` build through one constructor,
``_matrix_unit_algebra``, from their lists of matrix units.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .dg import DgAlgebra, _show, ksign
from .errors import AxiomViolation, ShapeMismatch, ValidationError
from .fields import Field
from .graded import GradedVectorSpace, _require_int, add_into, apply, operator_of, operators


def _matrix_unit_algebra(field: Field, space: GradedVectorSpace, units, dcols, *, hom=None) -> DgAlgebra:
    """The algebra on ``space`` whose basis element t is the matrix unit ``units[t]`` = (a, b).

    e_ab e_bc = e_ac, other products of units are zero, the unit is the sum of
    the e_aa and d is ``dcols``.  With indices k1 < ... < km, the hint is the
    cycle e_{k1,k2}, ..., e_{km,k1}: e_ab is the product along its path
    a -> ... -> b, and e_aa the full loop.  No hint is shorter: words in matrix
    units span the paths of the graph they form, which reach every e_ab only if
    that graph is strongly connected, so it has m arcs at least.
    """
    one = field.one
    index = {u: t for t, u in enumerate(units)}
    starting: dict = {}  # b -> the units e_bc, in flat order
    for t, (b, c) in enumerate(units):
        starting.setdefault(b, []).append((t, c))
    table = {(s, t): {index[(a, c)]: one} for s, (a, b) in enumerate(units) for t, c in starting[b]}
    keys = sorted(starting)
    cycle = [{index[pair]: one} for pair in zip(keys, keys[1:] + keys[:1])] if len(keys) > 1 else []
    return DgAlgebra._checked(field, space, {index[(k, k)]: one for k in keys}, table, dcols,
                              hom=hom, generators=cycle)


@dataclass(frozen=True)
class GoodGrading:
    """A grading of the n-by-n matrix algebra by superdiagonal degrees."""

    n: int
    f: tuple

    def __post_init__(self):
        if _require_int(self.n, "matrix size") < 1:
            raise ShapeMismatch("matrix size must be at least 1")
        if len(self.f) != self.n - 1:
            raise ShapeMismatch(
                f"need {self.n - 1} superdiagonal degrees for size {self.n}, got {len(self.f)}"
            )
        object.__setattr__(self, "f", tuple(_require_int(x, "superdiagonal degree") for x in self.f))

    def degree(self, i: int, j: int) -> int:
        """Degree of e_{i,j}; 1-based indices."""
        i, j = _require_int(i, "unit index"), _require_int(j, "unit index")
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ShapeMismatch(f"unit index ({i},{j}) out of range for size {self.n}")
        return sum(self.f[:j - 1]) - sum(self.f[:i - 1])


def _unit_label(n: int, i: int, j: int) -> str:
    return f"e{i}{j}" if n < 10 else f"e{i}_{j}"


def good_grading_matrix_algebra(field: Field, n: int, f=()) -> DgAlgebra:
    """Mat_n over the field, graded by the given superdiagonal degrees, d = 0.

    An empty f means the zero grading, whatever the size.
    """
    f = tuple(f)
    g = GoodGrading(n, f if f or _require_int(n, "matrix size") <= 1 else (0,) * (n - 1))
    space, units = GradedVectorSpace.from_entries(
        (g.degree(i, j), _unit_label(n, i, j), (i, j))
        for i in range(1, n + 1) for j in range(1, n + 1))
    return _matrix_unit_algebra(field, space, units, {})


def inner_differential(A: DgAlgebra, z) -> DgAlgebra:
    """Equip A with d(a) = za - (-1)^{|a|} az for a degree-1 element z.

    Rejected when z is not homogeneous of degree 1 or when z^2 fails to be
    central; the latter comes with a witness basis element a and the value of
    d(d(a)) = z^2 a - a z^2.
    """
    f = A.field
    zvec = A.coeffs(z)
    deg = A.space.flat_degrees()
    if any(deg[i] != 1 for i in zvec):
        bad = sorted({deg[i] for i in zvec})
        raise ShapeMismatch(f"element is not homogeneous of degree 1 (degrees {bad})")

    # d = lambda_z - rho_z, column a signed; z^2 is central when its two operators agree
    L, R = operators(A.table)
    lz, rz = operator_of(f, L, zvec), operator_of(f, R, zvec)
    z2 = apply(f, lz, zvec)
    left, right = operator_of(f, L, z2), operator_of(f, R, z2)
    minus = f.neg(f.one)
    for a in sorted(left.keys() | right.keys()):
        dd = dict(left.get(a, {}))
        add_into(f, dd, right.get(a, {}), scale=minus)
        if dd:
            raise ValidationError([AxiomViolation(
                "inner-square", (a,),
                f"z^2 is not central: d(d({A.space.label_of(a)})) = {_show(f, A.space, dd)}",
            )])

    dcols = {}
    for a in sorted(lz.keys() | rz.keys()):
        col = dict(lz.get(a, {}))
        add_into(f, col, rz.get(a, {}), scale=minus if ksign(deg[a], 1) > 0 else None)
        if col:
            dcols[a] = col
    return DgAlgebra._checked(f, A.space, A.unit, A.table, dcols, generators=A.generators)


def enumerate_good_gradings(n: int, bound: int) -> list:
    """All gradings with superdiagonal degrees in [-bound, bound]."""
    if _require_int(bound, "bound") < 0:
        raise ShapeMismatch("bound must be nonnegative")
    rng = range(-bound, bound + 1)
    repeat = max(_require_int(n, "matrix size") - 1, 0)  # GoodGrading rejects n < 1
    return [GoodGrading(n, f) for f in itertools.product(rng, repeat=repeat)]
