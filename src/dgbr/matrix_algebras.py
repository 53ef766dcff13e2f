"""Full matrix algebras graded so that every matrix unit is homogeneous.

Such a grading is fixed by the degrees of the superdiagonal units: given
integers f(1), ..., f(n-1), the unit e_{i,j} gets degree f(i) + ... + f(j-1)
for i < j and minus the reverse sum for i > j.  Degree-1 inner differentials
d_z(a) = za - (-1)^{|a|} az supply the differentials; d_z squares to zero
exactly when z^2 is central, and that condition is checked with a witness.

The generator hint is the cycle e12, e23, ..., e_{n1}: e_{ij} is the product
along its path i -> ... -> j, and e_{ii} the full loop.  No hint is shorter:
words in matrix units span the paths of the graph they form, which reach every
e_{ij} only if that graph is strongly connected, so it has n arcs at least.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .dg import DgAlgebra, _show, ksign
from .errors import AxiomViolation, ShapeMismatch, ValidationError
from .fields import Field
from .graded import GradedVectorSpace, add_into


@dataclass(frozen=True)
class GoodGrading:
    """A grading of the n-by-n matrix algebra by superdiagonal degrees."""

    n: int
    f: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ShapeMismatch("matrix size must be at least 1")
        if len(self.f) != self.n - 1:
            raise ShapeMismatch(
                f"need {self.n - 1} superdiagonal degrees for size {self.n}, got {len(self.f)}"
            )
        object.__setattr__(self, "f", tuple(int(x) for x in self.f))

    def degree(self, i: int, j: int) -> int:
        """Degree of e_{i,j}; 1-based indices."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ShapeMismatch(f"unit index ({i},{j}) out of range for size {self.n}")
        if i <= j:
            return sum(self.f[i - 1:j - 1])
        return -sum(self.f[j - 1:i - 1])

    def degree_table(self) -> dict:
        return {
            (i, j): self.degree(i, j)
            for i in range(1, self.n + 1)
            for j in range(1, self.n + 1)
        }


def _unit_label(n: int, i: int, j: int) -> str:
    return f"e{i}{j}" if n < 10 else f"e{i}_{j}"


def good_grading_matrix_algebra(field: Field, n: int, f=()) -> DgAlgebra:
    """Mat_n over the field, graded by the given superdiagonal degrees, d = 0.

    An empty f means the zero grading, whatever the size.
    """
    f = tuple(f)
    g = GoodGrading(n, f if f or n <= 1 else (0,) * (n - 1))
    space, units = GradedVectorSpace.from_entries(
        (g.degree(i, j), _unit_label(n, i, j), (i, j))
        for i in range(1, n + 1) for j in range(1, n + 1))
    unit_index = {u: t for t, u in enumerate(units)}
    one = field.one
    table = {}
    for (i, j), s in unit_index.items():
        for (k, l), t in unit_index.items():
            if j == k:
                table[(s, t)] = {unit_index[(i, l)]: one}
    unit = {unit_index[(i, i)]: one for i in range(1, n + 1)}
    cycle = [{unit_index[(i, i % n + 1)]: one} for i in range(1, n + 1)] if n > 1 else []
    return DgAlgebra.build(field, space, unit, table, {}, generators=cycle)


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

    z2 = A.mul(zvec, zvec)
    one = f.one
    minus = f.neg(one)
    for a in range(A.dim):
        left = A.mul(z2, {a: one})
        right = A.mul({a: one}, z2)
        if left != right:
            add_into(f, left, right, scale=minus)
            raise ValidationError([AxiomViolation(
                "inner-square", (a,),
                f"z^2 is not central: d(d({A.space.label_of(a)})) = {_show(f, A.space, left)}",
            )])

    dcols = {}
    for a in range(A.dim):
        col = A.mul(zvec, {a: one})
        add_into(f, col, A.mul({a: one}, zvec), scale=minus if ksign(deg[a], 1) > 0 else None)
        if col:
            dcols[a] = col
    return DgAlgebra.build(f, A.space, A.unit, A.table, dcols, generators=A.generators)


def enumerate_good_gradings(n: int, bound: int) -> list:
    """All gradings with superdiagonal degrees in [-bound, bound]."""
    if bound < 0:
        raise ShapeMismatch("bound must be nonnegative")
    rng = range(-bound, bound + 1)
    return [GoodGrading(n, f) for f in itertools.product(rng, repeat=n - 1)]
