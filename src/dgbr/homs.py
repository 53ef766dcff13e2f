"""Hom complexes between modules or complexes, and endomorphism dg-algebras.

The degree-n part of Hom(M, N) consists of the linear maps shifting degree by
n.  Its basis is the family of matrix units between graded components,
ordered by (source degree, source position, target position), which keeps
serialized output stable.  The differential is

    d(f) = d_N o f - (-1)^{|f|} f o d_M

and composition makes Hom(C, C) a dg-algebra.
"""
from __future__ import annotations

from .dg import DgAlgebra, DgModule, KComplex, ksign
from .errors import AxiomViolation, FieldMismatch, ShapeMismatch, ValidationError
from .graded import GradedVectorSpace, HomogeneousMap, add_into, apply, clean_coeffs, operators
from .linalg import Factored, kernel_columns


class HomComplex:
    """Hom(M, N) as a complex, for either linearity flavor.

    ``units`` lists the matrix-unit basis of the full base-field Hom space as
    (source flat index, target flat index) pairs, in flat order.  For the
    algebra-linear flavor ``coords`` expresses each basis vector of the
    (generally smaller) solution space in unit coordinates; for the base-field
    flavor the units themselves are the basis and ``coords`` is None.
    Coordinates over the smaller space come from one factorization of the
    ``coords`` columns, made on first use.
    """

    def __init__(self, field, source_space, target_space, space, units, unit_index,
                 dcols, coords=None, linearity="base-field", source=None, target=None):
        self.field = field
        self.source_space = source_space
        self.target_space = target_space
        self.space = space
        self.units = units
        self.unit_index = unit_index
        self.dcols = dcols
        self.coords = coords
        self.linearity = linearity
        self.source = source
        self.target = target
        self._solver = None

    @property
    def dim(self):
        return self.space.total_dim

    def complex(self) -> KComplex:
        return KComplex(self.field, self.space, self.dcols)

    def unit_coords(self, coeffs: dict) -> dict:
        """Expand coefficients over self.space into full unit coordinates."""
        if self.coords is None:
            return dict(coeffs)
        return apply(self.field, self.coords, coeffs)

    def basis_map(self, t: int) -> HomogeneousMap:
        return self.to_map({t: self.field.one})

    def to_map(self, coeffs: dict) -> HomogeneousMap:
        """The actual linear map with the given coefficients; its degree is None."""
        cols: dict = {}
        for u, c in self.unit_coords(clean_coeffs(self.field, coeffs)).items():
            mi, nj = self.units[u]  # units are distinct (source, target) pairs
            cols.setdefault(mi, {})[nj] = c
        return HomogeneousMap(self.field, self.source_space, self.target_space, None, cols)

    def from_map(self, m: HomogeneousMap) -> dict:
        """Coefficients of a linear map; fails if it lies outside the space."""
        if m.field != self.field:
            raise FieldMismatch("map over a different field from the Hom space")
        if m.source != self.source_space or m.target != self.target_space:
            raise ShapeMismatch("map between other spaces than those of the Hom space")
        ucoords = {self.unit_index[(mi, nj)]: c for mi, col in m.cols.items() for nj, c in col.items()}
        if self.coords is None:
            return ucoords
        out = self._coords_of(ucoords)
        if out is None:
            raise ShapeMismatch("map is not algebra-linear")
        return out

    def _coords_of(self, ucoords: dict):
        """Coordinates over self.space of a vector in unit coordinates; None when outside."""
        if self._solver is None:
            self._solver = Factored(self.field, [self.coords[s] for s in range(len(self.coords))])
        return self._solver.solve(ucoords)

    def __repr__(self):
        return f"HomComplex(dims={dict(self.space.dims)}, {self.linearity})"


def _full_hom_data(field, Ms: GradedVectorSpace, Ns: GradedVectorSpace, dM: dict, dN: dict):
    """Unit basis and d columns for the base-field Hom of two complexes."""
    degM = Ms.flat_degrees()
    degN = Ns.flat_degrees()
    space, units = GradedVectorSpace.from_entries(
        (degN[nj] - degM[mi], f"{Ms.label_of(mi)}>{Ns.label_of(nj)}", (mi, nj))
        for mi in range(len(degM)) for nj in range(len(degN)))
    unit_index = {pair: t for t, pair in enumerate(units)}

    # transpose of the source differential: which basis vectors map onto mi
    rev: dict[int, dict] = {}
    for src, col in dM.items():
        for tgt, c in col.items():
            rev.setdefault(tgt, {})[src] = c

    dcols: dict = {}
    for t, (mi, nj) in enumerate(units):
        k = degN[nj] - degM[mi]
        col: dict = {}
        for nj2, c in dN.get(nj, {}).items():
            add_into(field, col, {unit_index[(mi, nj2)]: c})
        sgn = ksign(k, 1)
        for mi2, c in rev.get(mi, {}).items():
            c = field.neg(c) if sgn > 0 else c
            add_into(field, col, {unit_index[(mi2, nj)]: c})
        if col:
            dcols[t] = col
    return space, tuple(units), unit_index, dcols


def hom_of_complexes(C: KComplex, D: KComplex) -> HomComplex:
    if C.field != D.field:
        raise ShapeMismatch("complexes over different fields")
    space, units, unit_index, dcols = _full_hom_data(
        C.field, C.space, D.space, C.dcols, D.dcols
    )
    return HomComplex(C.field, C.space, D.space, space, units, unit_index, dcols,
                      source=C, target=D)


def hom_complex(M: DgModule, N: DgModule, linearity: str = "base-field") -> HomComplex:
    """Hom(M, N) for modules over one algebra.

    base-field: all degree-shifting linear maps.  algebra-linear: the
    subcomplex of maps with f(m*a) = f(m)*a; the constraint is solved degree
    by degree and the induced differential is checked to stay inside.
    """
    if linearity not in ("base-field", "algebra-linear"):
        raise ShapeMismatch(f"unknown linearity {linearity!r}")
    if M.field != N.field:
        raise ShapeMismatch("modules over different fields")
    if M.algebra is not N.algebra and M.algebra != N.algebra:
        raise ShapeMismatch("modules over different algebras")
    f = M.field
    space, units, unit_index, dcols = _full_hom_data(
        f, M.space, N.space, M.dcols, N.dcols
    )
    full = HomComplex(f, M.space, N.space, space, units, unit_index, dcols,
                      source=M, target=N)
    if linearity == "base-field":
        return full

    # the column of unit (mi, nj) has rows (module m, algebra a, output):
    # f(m*a) reads the m*a that hit mi, f(m)*a reads m = mi and nj*a
    hit: dict = {}
    for (m, a), out in M.action.items():
        for k, c in out.items():
            hit.setdefault(k, []).append((m, a, c))
    acts, _ = operators(N.action)

    def column(mi, nj):
        entries = {(m, a, nj): c for m, a, c in hit.get(mi, ())}
        for a, out in acts.get(nj, {}).items():
            for out_n, c in out.items():
                key = (mi, a, out_n)
                entries[key] = f.sub(entries.get(key, f.zero), c)
        return {key: c for key, c in entries.items() if not f.is_zero(c)}

    solutions = []  # (degree, unit coordinates) of each solution basis vector
    for k in space.degrees():
        base, nk = space.flat_index(k, 0), space.dim(k)
        basis, _ = kernel_columns(f, {t: column(*units[base + t]) for t in range(nk)}, nk)
        solutions += [(k, {base + t: c for t, c in col.items()}) for col in basis.values()]

    sub_space, coords = GradedVectorSpace.numbered("al", solutions)
    coords = dict(enumerate(coords))  # solution basis index -> unit coordinates
    H = HomComplex(f, M.space, N.space, sub_space, units, unit_index, {},
                   coords=coords, linearity="algebra-linear", source=M, target=N)
    for s in range(sub_space.total_dim):
        img = apply(f, dcols, coords[s])
        if not img:
            continue
        out = H._coords_of(img)
        if out is None:
            raise ValidationError([AxiomViolation(
                "hom-subcomplex", (s,), "differential leaves the linearity solution space")])
        if out:
            H.dcols[s] = out
    return H


def hom_differential(H: HomComplex, lm: HomogeneousMap) -> HomogeneousMap:
    """d_N o f - (-1)^{|f|} f o d_M, applied per homogeneous component of f."""
    f = H.field
    degM = H.source_space.flat_degrees()
    degN = H.target_space.flat_degrees()
    parts: dict[int, dict] = {}
    for mi, col in lm.cols.items():
        for nj, c in col.items():
            parts.setdefault(degN[nj] - degM[mi], {}).setdefault(mi, {})[nj] = c
    dM = H.source.dcols if H.source is not None else {}
    dN = H.target.dcols if H.target is not None else {}
    minus = f.neg(f.one)
    out_cols: dict = {}
    for k, cols in parts.items():
        sign = minus if ksign(k, 1) > 0 else None
        for mi, col in cols.items():  # d_N o f, column by column
            add_into(f, out_cols.setdefault(mi, {}), apply(f, dN, col))
        for src, dcol in dM.items():  # f o d_M
            add_into(f, out_cols.setdefault(src, {}), apply(f, cols, dcol), scale=sign)
    return HomogeneousMap(f, H.source_space, H.target_space, None, out_cols)


def end_dg_algebra(C: KComplex) -> DgAlgebra:
    """Hom(C, C) as a dg-algebra under composition.

    The product of matrix units is composition, the unit is the identity map,
    the differential is the Hom differential; the result passes the full
    dg-algebra validation and its total dimension is (dim C)^2.
    """
    if C.space.is_zero():
        raise ShapeMismatch("endomorphisms of the zero complex")
    H = hom_of_complexes(C, C)
    f = C.field
    one = f.one
    idx = H.unit_index
    table: dict = {}
    for t1, (mi1, nj1) in enumerate(H.units):
        # compose: t2 = (mi2 -> mi1) first, then t1; only those pairs chain
        for mi2 in range(C.space.total_dim):
            table[(t1, idx[(mi2, mi1)])] = {idx[(mi2, nj1)]: one}
    unit = {}
    for mi in range(C.space.total_dim):
        unit[idx[(mi, mi)]] = one
    adjacent = [{idx[u]: one} for k in range(C.space.total_dim - 1)
                for u in ((k, k + 1), (k + 1, k))]
    return DgAlgebra.build(f, H.space, unit, table, H.dcols, hom=H, generators=adjacent)
