"""Hom complexes between complexes, and endomorphism dg-algebras.

The degree-n part of Hom(C, D) consists of the linear maps shifting degree by
n.  Its basis is the family of matrix units between graded components,
ordered by (source degree, source position, target position), which keeps
serialized output stable.  Hom elements are only their unit coordinates, which
``HomComplex.from_map`` reads off a map; the differential, built once as ``dcols``,

    d(f) = d_D o f - (-1)^{|f|} f o d_C

and composition make Hom(C, C) the dg-algebra ``end_dg_algebra``, which
``matrix_algebras._matrix_unit_algebra`` builds, as it builds a graded Mat_n.
"""
from __future__ import annotations

from .dg import DgAlgebra, KComplex, ksign
from .errors import FieldMismatch, ShapeMismatch
from .graded import GradedVectorSpace, HomogeneousMap
from .linalg import transpose
from .matrix_algebras import _matrix_unit_algebra


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
    space, units = GradedVectorSpace.joined("u", (
        (degN[nj] - degM[mi], f"{C.space.label_of(mi)}>{D.space.label_of(nj)}", (mi, nj))
        for mi in range(len(degM)) for nj in range(len(degN))))
    unit_index = {pair: t for t, pair in enumerate(units)}

    rev = transpose(C.dcols)  # which basis vectors d_C maps onto mi

    # d has degree +1, so no unit mi -> nj2 of d_D o f is a unit mi2 -> nj of f o d_C
    dcols: dict = {}
    for t, (mi, nj) in enumerate(units):
        sgn = ksign(degN[nj] - degM[mi], 1)
        col = {unit_index[(mi, nj2)]: c for nj2, c in D.dcols.get(nj, {}).items()}
        col.update((unit_index[(mi2, nj)], field.neg(c) if sgn > 0 else c)
                   for mi2, c in rev.get(mi, {}).items())
        if col:
            dcols[t] = col
    return HomComplex(C, D, space, tuple(units), unit_index, dcols)


def end_dg_algebra(C: KComplex) -> DgAlgebra:
    """Hom(C, C) under composition: the Hom unit mi -> nj is the matrix unit (nj, mi)
    of ``matrix_algebras._matrix_unit_algebra``, d is ``dcols``, the hint the units k+1 -> k.
    """
    if C.space.is_zero():
        raise ShapeMismatch("endomorphisms of the zero complex")
    H = hom_of_complexes(C, C)
    return _matrix_unit_algebra(C.field, H.space, [(nj, mi) for mi, nj in H.units], H.dcols, hom=H)
