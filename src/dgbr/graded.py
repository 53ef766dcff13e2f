"""Integer-graded vector spaces, linear maps between them, and their calculus.

A space is a finite dict ``degree -> dimension`` (zero dimensions are never
stored).  Basis elements get a canonical flat ordering: degrees ascending,
positions within a degree in order.  Sparse coefficient dicts over flat
indices ("coeffs") are the internal currency of the whole package.  Every
built basis (a tensor product, a Hom space, a graded matrix algebra, a parsed
file, a kernel, a quotient, a homology) gets that order in one place,
``GradedVectorSpace.from_entries``, which sorts (degree, label, key) entries
stably by degree; ``GradedVectorSpace.numbered`` is the same with the labels
``{prefix}{k}_{i}``.

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


def clean_coeffs(field: Field, coeffs) -> dict:
    """Coerce a sparse coefficient dict and drop exact zeros."""
    out = {}
    for i, c in coeffs.items():
        v = field.coerce(c)
        if not field.is_zero(v):
            out[int(i)] = v
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
    tables and maps all apply through it.  Absent columns are zero.
    """
    acc: dict = {}
    for i, c in u.items():
        col = cols.get(i)
        if col:
            add_into(field, acc, col, scale=c)
    return acc


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
        for k, v in sorted((int(k), int(v)) for k, v in dims.items()):
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
            labels = {int(k): tuple(map(str, v)) for k, v in labels.items() if k in norm or v}
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
        degree = int(degree)
        sdeg, tdeg = source.flat_degrees(), target.flat_degrees()
        checked = {}
        for j, col in cols.items():
            j = int(j)
            if not 0 <= j < len(sdeg):
                raise ShapeMismatch(f"column index {j} outside the source space")
            col = clean_coeffs(field, col)
            for i in col:
                if not 0 <= i < len(tdeg):
                    raise ShapeMismatch(f"row index {i} outside the target space")
                if tdeg[i] != sdeg[j] + degree:
                    raise ShapeMismatch(
                        f"column {j} (degree {sdeg[j]}) hits degree {tdeg[i]}, expected {sdeg[j] + degree}"
                    )
            if col:
                checked[j] = col
        self.field = field
        self.source = source
        self.target = target
        self.degree = degree
        self.cols = checked

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

    def __add__(self, other):
        if (not isinstance(other, HomogeneousMap) or other.source != self.source
                or other.target != self.target or other.degree != self.degree):
            raise ShapeMismatch("can only add maps with the same spaces and degree")
        if other.field != self.field:
            raise FieldMismatch("sum over different fields")
        cols = {j: dict(c) for j, c in self.cols.items()}
        for j, c in other.cols.items():
            add_into(self.field, cols.setdefault(j, {}), c)
        return HomogeneousMap(self.field, self.source, self.target, self.degree, cols)

    def __neg__(self):
        neg = self.field.neg
        return HomogeneousMap(self.field, self.source, self.target, self.degree,
                              {j: {i: neg(x) for i, x in c.items()} for j, c in self.cols.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
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


def kernel_of(f: HomogeneousMap, label_prefix: str = "k") -> Subspace:
    """ker(f), with one basis vector per free column of f's reduced form (free variable 1)."""
    basis, _ = kernel_columns(f.field, f.cols, f.source.total_dim)
    return span_of(f.field, f.source, list(basis.values()), label_prefix)


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
        self.space, pairs = GradedVectorSpace.from_entries(
            (ldeg[i] + rdeg[j], f"{left.label_of(i)}@{right.label_of(j)}", (i, j))
            for i in range(len(ldeg)) for j in range(len(rdeg)))
        self.pairs = tuple(pairs)
        self.index = {pq: t for t, pq in enumerate(pairs)}
