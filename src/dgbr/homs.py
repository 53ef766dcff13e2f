"""Hom complexes between complexes, and endomorphism dg-algebras.

The degree-n part of Hom(C, D) consists of the linear maps shifting degree by
n.  Its basis is the family of matrix units between graded components,
ordered by (source degree, source position, target position), which keeps
serialized output stable.  Hom elements are only their unit coordinates, which
``HomComplex.from_map`` reads off a map; the differential, built once as ``dcols``,

    d(f) = d_D o f - (-1)^{|f|} f o d_C

and composition make Hom(C, C) the dg-algebra ``end_dg_algebra``.
"""
from __future__ import annotations

from .dg import DgAlgebra, KComplex, ksign
from .errors import FieldMismatch, ShapeMismatch
from .graded import GradedVectorSpace, HomogeneousMap, add_into


class HomComplex:
    """Hom(C, D) of two complexes as a complex.

    ``units`` lists its matrix-unit basis as (source flat index, target flat
    index) pairs, in flat order; ``unit_index`` inverts it.
    """

    def __init__(self, source, target, space, units, unit_index, dcols):
        self.field = source.field
        self.source = source
        self.target = target
        self.space = space
        self.units = units
        self.unit_index = unit_index
        self.dcols = dcols

    @property
    def dim(self):
        return self.space.total_dim

    def complex(self) -> KComplex:
        return KComplex(self.field, self.space, self.dcols)

    def from_map(self, m: HomogeneousMap) -> dict:
        """Coefficients of a linear map between the two spaces."""
        if m.field != self.field:
            raise FieldMismatch("map over a different field from the Hom space")
        if m.source != self.source.space or m.target != self.target.space:
            raise ShapeMismatch("map between other spaces than those of the Hom space")
        return {self.unit_index[(mi, nj)]: c for mi, col in m.cols.items() for nj, c in col.items()}

    def __repr__(self):
        return f"HomComplex(dims={dict(self.space.dims)})"


def hom_of_complexes(C: KComplex, D: KComplex) -> HomComplex:
    if C.field != D.field:
        raise ShapeMismatch("complexes over different fields")
    field = C.field
    degM = C.space.flat_degrees()
    degN = D.space.flat_degrees()
    space, units = GradedVectorSpace.from_entries(
        (degN[nj] - degM[mi], f"{C.space.label_of(mi)}>{D.space.label_of(nj)}", (mi, nj))
        for mi in range(len(degM)) for nj in range(len(degN)))
    unit_index = {pair: t for t, pair in enumerate(units)}

    # transpose of the source differential: which basis vectors map onto mi
    rev: dict[int, dict] = {}
    for src, col in C.dcols.items():
        for tgt, c in col.items():
            rev.setdefault(tgt, {})[src] = c

    dcols: dict = {}
    for t, (mi, nj) in enumerate(units):
        k = degN[nj] - degM[mi]
        col: dict = {}
        for nj2, c in D.dcols.get(nj, {}).items():
            add_into(field, col, {unit_index[(mi, nj2)]: c})
        sgn = ksign(k, 1)
        for mi2, c in rev.get(mi, {}).items():
            c = field.neg(c) if sgn > 0 else c
            add_into(field, col, {unit_index[(mi2, nj)]: c})
        if col:
            dcols[t] = col
    return HomComplex(C, D, space, tuple(units), unit_index, dcols)


def end_dg_algebra(C: KComplex) -> DgAlgebra:
    """Hom(C, C) as a dg-algebra under composition.

    The product of matrix units is composition, the unit is the identity map,
    the differential is the Hom differential; the result passes the full
    dg-algebra validation and its total dimension is m^2, m = dim C.  The hint
    is the cycle of units (k, k+1) and (m-1, 0), each unit a path product around
    it; fewer units cannot generate, as the ``matrix_algebras`` docstring proves.
    """
    if C.space.is_zero():
        raise ShapeMismatch("endomorphisms of the zero complex")
    H = hom_of_complexes(C, C)
    f = C.field
    one = f.one
    idx, m = H.unit_index, C.space.total_dim
    table: dict = {}
    for t1, (mi1, nj1) in enumerate(H.units):
        # compose: t2 = (mi2 -> mi1) first, then t1; only those pairs chain
        for mi2 in range(m):
            table[(t1, idx[(mi2, mi1)])] = {idx[(mi2, nj1)]: one}
    unit = {idx[(mi, mi)]: one for mi in range(m)}
    cycle = [{idx[(k, (k + 1) % m)]: one} for k in range(m)] if m > 1 else []
    return DgAlgebra.build(f, H.space, unit, table, H.dcols, hom=H, generators=cycle)
