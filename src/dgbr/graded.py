"""Integer-graded vector spaces, linear maps between them, and their calculus.

A space is a finite dict ``degree -> dimension`` (zero dimensions are never
stored).  Basis elements get a canonical flat ordering: degrees ascending,
positions within a degree in order.  Sparse coefficient dicts over flat
indices ("coeffs") are the internal currency of the whole package, and
``clean_coeffs`` (``clean_columns``) the one check of a caller's: every index
an int in range.  Every built basis (a tensor product, a Hom space, a graded
matrix algebra, a parsed file, a kernel, a quotient, a homology) gets that
order in one place, ``GradedVectorSpace.from_entries``, which sorts (degree,
label, key) entries stably by degree; ``GradedVectorSpace.numbered`` is the
same with the labels ``{prefix}{k}_{i}``, and ``joined`` falls back to those
when composite labels coincide.

There is one map type, ``HomogeneousMap``.  It stores flat columns
``{source index: {target index: value}}``, the form ``apply`` runs on, with a
degree: the int that every entry shifts by, checked on construction.
Kernels, quotients and inverses eliminate these columns in flat order, which
keeps the order inside each degree, so they come out as a per-degree
elimination would give them.
A quotient is one ``coset_basis`` call: its representatives are the vectors
it picks and its projection is the coordinates it gives.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter

from .errors import FieldMismatch, ShapeMismatch
from .fields import Field
from .linalg import Factored, coset_basis, kernel_columns


def _require_int(x, what: str) -> int:
    """x itself when it is an int (a bool is not), else ShapeMismatch naming it."""
    if type(x) is not int:
        raise ShapeMismatch(f"{what} must be an integer, got {x!r}")
    return x


def clean_coeffs(field: Field, coeffs, n: int, what: str, space: str = "basis") -> dict:
    """Coerce a caller's ``{index: value}`` and drop exact zeros: the one index check.

    Each index must be an int (a bool is not) in [0, n), else ShapeMismatch
    "<what> <index> outside the <space>"."""
    out = {}
    for i, c in coeffs.items():
        if type(i) is not int or not 0 <= i < n:
            raise ShapeMismatch(f"{what} {i!r} outside the {space}")
        v = field.coerce(c)
        if not field.is_zero(v):
            out[i] = v
    return out


def clean_columns(field: Field, cols, n_in: int, n_out: int, what: str, spaces=("basis",) * 2) -> dict:
    """The nonzero ``clean_coeffs`` of ``{j: {i: value}}``, j in [0, n_in) of ``spaces[0]``."""
    out = {}
    for j, col in cols.items():
        if type(j) is not int or not 0 <= j < n_in:
            raise ShapeMismatch(f"{what} column {j!r} outside the {spaces[0]}")
        col = clean_coeffs(field, col, n_out, what + " row", spaces[1])
        if col:
            out[j] = col
    return out


def add_into(field: Field, acc: dict, coeffs: dict, scale=None) -> None:
    """acc += scale * coeffs, in place, dropping zeros."""
    for i, c in coeffs.items():
        v = c if scale is None else field.mul(scale, c)
        s = field.add(acc.get(i, field.zero), v)
        if field.is_zero(s):
            acc.pop(i, None)
        else:
            acc[i] = s


def apply(field: Field, cols, u: dict) -> dict:
    """Sum of u[i] * cols[i] over sparse columns ``{col: {row: coeff}}``.

    The one sparse operator of the package: differentials, multiplication
    tables and maps all apply through it.  Absent columns are zero.  The sum
    starts from a copy of the first column with a nonzero coefficient, scaled
    only when that coefficient is not one, so the result is always a new dict.
    """
    acc = None
    for i, c in u.items():
        col = cols.get(i)
        if not col:
            continue
        if acc is not None:
            add_into(field, acc, col, scale=c)
        elif c == field.one:
            acc = dict(col)
        elif not field.is_zero(c):
            acc = {k: field.mul(c, x) for k, x in col.items()}
    return {} if acc is None else acc


def operators(table) -> tuple:
    """Left and right operators of a bilinear table: L[i][j] = R[j][i] = table[(i, j)].

    Both are ``{i: {j: column}}`` dicts that share the table's columns, so
    ``apply(field, L[i], v)`` is e_i * v and ``apply(field, R[j], u)`` is u * e_j.
    """
    L: dict = {}
    R: dict = {}
    for (i, j), out in table.items():
        L.setdefault(i, {})[j] = out
        R.setdefault(j, {})[i] = out
    return L, R


def operator_of(field: Field, ops, u: dict) -> dict:
    """{k: column}, the nonzero columns of multiplication by the element u.

    ``ops`` is the L or R of ``operators``: over L column k is u * e_k, over
    R it is e_k * u.  For u = e_m it is ``ops[m]`` itself, which shares the
    table's columns: copy a column before changing it or handing it out.
    """
    if len(u) == 1:
        (m, c), = u.items()
        if c == field.one:
            return ops.get(m, {})
    op: dict = {}
    for m, c in u.items():
        for k, col in ops.get(m, {}).items():
            add_into(field, op.setdefault(k, {}), col, scale=c)
    return {k: col for k, col in op.items() if col}


def bilinear(field: Field, table, u: dict, v: dict) -> dict:
    """Sum of u[i] * v[j] * table[(i, j)]: a product table applied to two vectors."""
    mul = field.mul
    coeffs = {}
    for i, a in u.items():
        for j, b in v.items():
            if (i, j) in table:
                coeffs[i, j] = mul(a, b)
    return apply(field, table, coeffs)


class GradedVectorSpace:
    """Finite-dimensional graded space; equality compares dimension data only."""

    __slots__ = ("dims", "labels", "_flat", "_offsets")

    def __init__(self, dims, labels=None):
        norm = {}
        for k, v in sorted((_require_int(k, "degree"), _require_int(v, "dimension"))
                           for k, v in dims.items()):
            if v < 0:
                raise ShapeMismatch(f"negative dimension {v} in degree {k}")
            if v:
                norm[k] = v
        self.dims = norm
        flat = []
        offsets = {}
        for k, v in norm.items():
            offsets[k] = len(flat)
            flat.extend((k, i) for i in range(v))
        self._flat = tuple(flat)
        self._offsets = offsets
        if labels is not None:
            labels = {_require_int(k, "degree"): tuple(map(str, v))
                      for k, v in labels.items() if k in norm or v}
            for k, names in labels.items():
                if len(names) != norm.get(k, 0):
                    raise ShapeMismatch(f"{len(names)} labels for degree {k} of dimension {norm.get(k, 0)}")
        self.labels = labels
        # labels name basis elements in files, so two slots may not share one
        names = self.all_labels() if labels else ()
        if len(set(names)) < len(names):
            raise ShapeMismatch(f"duplicate label {next(x for x in names if names.count(x) > 1)!r}")

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def from_entries(cls, entries):
        """The space of ``(degree, label, key)`` entries and their keys, in flat order.

        Entries are sorted stably by degree, so the given order is kept within
        a degree; flat index t of the space is the entry of ``keys[t]``.
        """
        entries = sorted(entries, key=itemgetter(0))
        labels: dict = {}
        for k, label, _ in entries:
            labels.setdefault(k, []).append(label)
        return cls({k: len(v) for k, v in labels.items()}, labels), [key for _, _, key in entries]

    @classmethod
    def numbered(cls, prefix: str, entries):
        """``from_entries`` of ``(degree, key)`` entries, labelled ``{prefix}{k}_{i}``.

        i counts the entries of degree k in the given order, which flat order keeps.
        """
        count = defaultdict(itertools.count)
        return cls.from_entries([(k, f"{prefix}{k}_{next(count[k])}", key) for k, key in entries])

    @classmethod
    def joined(cls, prefix: str, entries):
        """``from_entries``, or ``numbered(prefix, ...)`` if two labels coincide,
        as ``a@b`` labels do when factor labels hold the ``@`` (p@q@r twice)."""
        entries = list(entries)
        if len({label for _, label, _ in entries}) < len(entries):
            return cls.numbered(prefix, [(k, key) for k, _, key in entries])
        return cls.from_entries(entries)

    def degrees(self):
        return tuple(self.dims)

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    @property
    def total_dim(self) -> int:
        return len(self._flat)

    def is_zero(self) -> bool:
        return not self._flat

    def flat_index(self, degree: int, pos: int) -> int:
        if pos < 0 or pos >= self.dim(degree):
            raise ShapeMismatch(f"no basis slot {pos} in degree {degree}")
        return self._offsets[degree] + pos

    def degree_of(self, i: int) -> int:
        return self._flat[i][0]

    def flat_degrees(self):
        return tuple(k for k, _ in self._flat)

    def label_of(self, i: int) -> str:
        k, pos = self._flat[i]
        if self.labels and k in self.labels:
            return self.labels[k][pos]
        return f"b{k}_{pos}"

    def all_labels(self):
        return tuple(self.label_of(i) for i in range(self.total_dim))

    def __eq__(self, other):
        return isinstance(other, GradedVectorSpace) and self.dims == other.dims

    def __hash__(self):
        return hash(tuple(self.dims.items()))

    def __repr__(self):
        return f"GradedVectorSpace({self.dims})"


class HomogeneousMap:
    """A linear map between graded spaces, as sparse flat columns.

    ``cols[j]`` is the image of source basis vector j as target coeffs;
    absent columns are zero.  Every entry shifts degree by ``degree``, an int.
    """

    __slots__ = ("field", "source", "target", "degree", "cols")

    def __init__(self, field, source, target, degree, cols):
        degree = _require_int(degree, "map degree")
        sdeg, tdeg = source.flat_degrees(), target.flat_degrees()
        cols = clean_columns(field, cols, len(sdeg), len(tdeg), "map", ("source space", "target space"))
        for j, col in cols.items():
            for i in col:
                if tdeg[i] != sdeg[j] + degree:
                    raise ShapeMismatch(f"column {j} (degree {sdeg[j]}) hits degree {tdeg[i]}, "
                                        f"expected {sdeg[j] + degree}")
        self.field = field
        self.source = source
        self.target = target
        self.degree = degree
        self.cols = cols

    @classmethod
    def zero(cls, field, source, target, degree=0):
        return cls(field, source, target, degree, {})

    @classmethod
    def identity(cls, field, space):
        return cls(field, space, space, 0, {i: {i: field.one} for i in range(space.total_dim)})

    def is_zero(self):
        return not self.cols

    def apply_flat(self, coeffs: dict) -> dict:
        return apply(self.field, self.cols, coeffs)

    def flat_columns(self) -> dict:
        """The columns ``{source index: {target index: value}}``, shared, not copied."""
        return self.cols

    def compose(self, other: "HomogeneousMap") -> "HomogeneousMap":
        """self after other (no signs)."""
        if other.target != self.source:
            raise ShapeMismatch("composition shape mismatch")
        if other.field != self.field:
            raise FieldMismatch("composition over different fields")
        return HomogeneousMap(self.field, other.source, self.target, self.degree + other.degree,
                              {j: self.apply_flat(c) for j, c in other.cols.items()})

    def __eq__(self, other):
        """Same spaces and columns; the degree is not compared.

        Nonzero equal columns already fix the degree, and a zero map is
        homogeneous of every degree, so zero maps of any two degrees are equal.
        """
        if not isinstance(other, HomogeneousMap):
            return NotImplemented
        return self.source == other.source and self.target == other.target and self.cols == other.cols

    def inverse(self) -> "HomogeneousMap | None":
        """Inverse of a degree-0 map, solved column by column; None when singular."""
        if self.degree != 0:
            raise ShapeMismatch("only degree-0 maps are inverted")
        if self.source != self.target:
            return None
        n = self.source.total_dim
        solver = Factored(self.field, [self.cols.get(j, {}) for j in range(n)])
        if solver.pivots != tuple(range(n)):
            return None
        one = self.field.one
        return HomogeneousMap(self.field, self.target, self.source, 0,
                              {i: solver.solve({i: one}) for i in range(n)})

    def __repr__(self):
        return f"HomogeneousMap(degree={self.degree}, {len(self.cols)} nonzero columns)"


@dataclass(frozen=True)
class Subspace:
    """A graded subspace presented by an inclusion map of degree 0."""

    space: GradedVectorSpace
    inclusion: HomogeneousMap


@dataclass(frozen=True)
class Quotient:
    """V/W with the projection and a section picking coset representatives."""

    space: GradedVectorSpace
    projection: HomogeneousMap
    section: HomogeneousMap


def span_of(field, ambient: GradedVectorSpace, vecs, prefix: str) -> Subspace:
    """The subspace with basis ``vecs``, independent homogeneous flat vectors.

    ``vecs`` must be in flat order (degrees ascending), so that ``vecs[i]`` is
    basis element i of the span; it is labelled ``{prefix}{k}_{i}``.
    """
    space, cols = GradedVectorSpace.numbered(prefix, [(ambient.degree_of(next(iter(v))), v) for v in vecs])
    return Subspace(space, HomogeneousMap(field, space, ambient, 0, dict(enumerate(cols))))


def kernel_of(f: HomogeneousMap) -> Subspace:
    """ker(f), labelled k{k}_{i}: one basis vector per free column of f's reduced form (free variable 1)."""
    basis, _ = kernel_columns(f.field, f.cols, f.source.total_dim)
    return span_of(f.field, f.source, list(basis.values()), "k")


def quotient_by(space: GradedVectorSpace, inclusion: HomogeneousMap) -> Quotient:
    """Quotient of ``space`` by the image of an injective degree-0 inclusion W.

    Coset representatives are standard basis vectors of ``space`` chosen by
    column pivoting of ``[W | I]``, so the section lands on honest basis
    elements and the quotient inherits their labels.  The projection sends a
    vector to its coordinates on the representatives in the basis W, R.
    """
    field = inclusion.field
    if inclusion.target != space or inclusion.degree != 0:
        raise ShapeMismatch("expected a degree-0 inclusion into the ambient space")
    w, n = inclusion.source.total_dim, space.total_dim
    picks, project = coset_basis(field, [], [inclusion.cols.get(j, {}) for j in range(w)]
                                 + [{i: field.one} for i in range(n)])
    if picks[:w] != tuple(range(w)):
        lost = next(j for j in range(w) if j not in picks)
        raise ShapeMismatch(f"inclusion not injective in degree {inclusion.source.degree_of(lost)}")
    qspace, reps = GradedVectorSpace.from_entries(
        (space.degree_of(r), space.label_of(r), r) for r in (p - w for p in picks[w:]))
    proj = {i: {q - w: c for q, c in project({i: field.one}).items() if q >= w}
            for i in range(n)}
    projection = HomogeneousMap(field, space, qspace, 0, proj)
    section = HomogeneousMap(field, qspace, space, 0, {q: {r: field.one} for q, r in enumerate(reps)})
    return Quotient(qspace, projection, section)


class TensorBasis:
    """The tensor product of two graded spaces with its basis bookkeeping.

    Basis vectors are ordered pairs, left factor major within a degree;
    ``pairs[t]`` gives the flat factor indices of tensor slot t and ``index``
    inverts that.
    """

    __slots__ = ("space", "pairs", "index")

    def __init__(self, left: GradedVectorSpace, right: GradedVectorSpace):
        ldeg, rdeg = left.flat_degrees(), right.flat_degrees()
        self.space, pairs = GradedVectorSpace.joined("t", (
            (ldeg[i] + rdeg[j], f"{left.label_of(i)}@{right.label_of(j)}", (i, j))
            for i in range(len(ldeg)) for j in range(len(rdeg))))
        self.pairs = tuple(pairs)
        self.index = {pq: t for t, pq in enumerate(pairs)}
