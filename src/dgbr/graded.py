"""Integer-graded vector spaces, homogeneous maps, and their calculus.

A space is a finite dict ``degree -> dimension`` (zero dimensions are never
stored).  Basis elements get a canonical flat ordering: degrees ascending,
positions within a degree in order.  Sparse coefficient dicts over flat
indices ("coeffs") are the internal currency of the whole package.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import FieldMismatch, ShapeMismatch
from .fields import Field
from .linalg import Matrix


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

    @classmethod
    def zero(cls):
        return cls({})

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

    def flat_info(self, i: int):
        return self._flat[i]

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


class GradedVector:
    """An element of a graded space, stored per degree."""

    __slots__ = ("field", "space", "components")

    def __init__(self, field: Field, space: GradedVectorSpace, components):
        comp = {}
        for k, col in components.items():
            k = int(k)
            if len(col) != space.dim(k):
                raise ShapeMismatch(f"component length {len(col)} in degree {k} of dim {space.dim(k)}")
            col = tuple(field.coerce(x) for x in col)
            if any(not field.is_zero(x) for x in col):
                comp[k] = col
        self.field = field
        self.space = space
        self.components = comp

    @classmethod
    def from_flat(cls, field, space, coeffs):
        comp = {}
        for i, c in clean_coeffs(field, coeffs).items():
            k, pos = space.flat_info(i)
            if k not in comp:
                comp[k] = [field.zero] * space.dim(k)
            comp[k][pos] = c
        return cls(field, space, comp)

    def flat(self) -> dict:
        out = {}
        for k, col in self.components.items():
            base = self.space.flat_index(k, 0) if col else 0
            for pos, x in enumerate(col):
                if not self.field.is_zero(x):
                    out[base + pos] = x
        return out

    def is_zero(self):
        return not self.components

    @property
    def degree(self):
        """Degree of a homogeneous nonzero vector."""
        if len(self.components) != 1:
            raise ShapeMismatch("degree of a non-homogeneous or zero vector")
        return next(iter(self.components))

    def __eq__(self, other):
        return (
            isinstance(other, GradedVector)
            and self.field == other.field
            and self.space == other.space
            and self.components == other.components
        )

    def __repr__(self):
        f = self.field
        terms = []
        for i, c in sorted(self.flat().items()):
            lbl = self.space.label_of(i)
            terms.append(lbl if c == f.one else f"{f.format(c)}*{lbl}")
        return " + ".join(terms) if terms else "0"


class HomogeneousMap:
    """Degree-d linear map between graded spaces, as one block per source degree.

    ``blocks[k]`` sends the degree-k slice of the source into degree k+d of
    the target; absent blocks are zero.
    """

    __slots__ = ("field", "source", "target", "degree", "blocks")

    def __init__(self, field, source, target, degree, blocks):
        self.field = field
        self.source = source
        self.target = target
        self.degree = int(degree)
        checked = {}
        for k, blk in blocks.items():
            k = int(k)
            want = (target.dim(k + self.degree), source.dim(k))
            if blk.shape != want:
                raise ShapeMismatch(f"block at degree {k} has shape {blk.shape}, expected {want}")
            if blk.field != field:
                raise FieldMismatch("block over the wrong field")
            if not blk.is_zero():
                checked[k] = blk
        self.blocks = checked

    @classmethod
    def zero(cls, field, source, target, degree=0):
        return cls(field, source, target, degree, {})

    @classmethod
    def identity(cls, field, space):
        blocks = {k: Matrix.identity(field, space.dim(k)) for k in space.degrees()}
        return cls(field, space, space, 0, blocks)

    def block(self, k: int) -> Matrix:
        blk = self.blocks.get(k)
        if blk is None:
            blk = Matrix.zeros(self.field, self.target.dim(k + self.degree), self.source.dim(k))
        return blk

    def is_zero(self):
        return not self.blocks

    def apply(self, v: GradedVector) -> GradedVector:
        if v.space != self.source:
            raise ShapeMismatch("vector not in the source space")
        comp = {}
        for k, col in v.components.items():
            out = self.block(k).apply(col)
            if any(not self.field.is_zero(x) for x in out):
                comp[k + self.degree] = out
        return GradedVector(self.field, self.target, comp)

    def apply_flat(self, coeffs: dict) -> dict:
        return apply(self.field, {i: self._flat_column(i) for i in coeffs}, coeffs)

    def _flat_column(self, i: int) -> dict:
        """Source basis vector i's image as target flat coeffs."""
        k, pos = self.source.flat_info(i)
        blk = self.blocks.get(k)
        if blk is None:
            return {}
        base = self.target.flat_index(k + self.degree, 0)
        return {base + r: x for r, x in enumerate(blk.column(pos)) if not self.field.is_zero(x)}

    def compose(self, other: "HomogeneousMap") -> "HomogeneousMap":
        """self after other (matrix product, blockwise; no signs)."""
        if other.target != self.source:
            raise ShapeMismatch("composition shape mismatch")
        if other.field != self.field:
            raise FieldMismatch("composition over different fields")
        blocks = {}
        for k in other.source.degrees():
            blocks[k] = self.block(k + other.degree) * other.block(k)
        return HomogeneousMap(self.field, other.source, self.target, self.degree + other.degree, blocks)

    def __add__(self, other):
        if (
            not isinstance(other, HomogeneousMap)
            or other.source != self.source
            or other.target != self.target
            or other.degree != self.degree
        ):
            raise ShapeMismatch("can only add maps with identical shape data")
        keys = set(self.blocks) | set(other.blocks)
        return HomogeneousMap(
            self.field, self.source, self.target, self.degree,
            {k: self.block(k) + other.block(k) for k in keys},
        )

    def __neg__(self):
        return HomogeneousMap(
            self.field, self.source, self.target, self.degree,
            {k: -blk for k, blk in self.blocks.items()},
        )

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, HomogeneousMap):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        if self.degree != other.degree:
            # maps that are both zero agree regardless of declared degree
            return self.is_zero() and other.is_zero()
        keys = set(self.blocks) | set(other.blocks)
        return all(self.block(k) == other.block(k) for k in keys)

    def flat_columns(self) -> dict:
        """Columns as flat-index coeff dicts: source index -> target coeffs."""
        cols = {}
        for k, blk in self.blocks.items():
            sbase = self.source.flat_index(k, 0)
            for j in range(blk.ncols):
                col = self._flat_column(sbase + j)
                if col:
                    cols[sbase + j] = col
        return cols

    @classmethod
    def from_flat_columns(cls, field, source, target, degree, cols):
        for j, col in cols.items():
            if not 0 <= j < source.total_dim:
                raise ShapeMismatch(f"column index {j} outside the source space")
            for i in col:
                if not 0 <= i < target.total_dim:
                    raise ShapeMismatch(f"row index {i} outside the target space")
        blocks = {}
        for k in source.degrees():
            m, n = target.dim(k + degree), source.dim(k)
            data = [[field.zero] * n for _ in range(m)]
            sbase = source.flat_index(k, 0) if n else 0
            for j in range(n):
                for ti, c in cols.get(sbase + j, {}).items():
                    tk, tpos = target.flat_info(ti)
                    if tk != k + degree:
                        raise ShapeMismatch(
                            f"column {sbase + j} (degree {k}) hits degree {tk}, expected {k + degree}"
                        )
                    data[tpos][j] = field.coerce(c)
            blocks[k] = Matrix._raw(field, data, n)
        return cls(field, source, target, degree, blocks)

    def inverse(self) -> "HomogeneousMap | None":
        """Blockwise inverse of a degree-0 map; None when any block is singular."""
        if self.degree != 0:
            raise ShapeMismatch("only degree-0 maps are inverted")
        blocks = {}
        for k in set(self.source.degrees()) | set(self.target.degrees()):
            if self.source.dim(k) != self.target.dim(k):
                return None
            if self.source.dim(k) == 0:
                continue
            inv = self.block(k).inverse()
            if inv is None:
                return None
            blocks[k] = inv
        return HomogeneousMap(self.field, self.target, self.source, 0, blocks)

    def __repr__(self):
        return f"HomogeneousMap(degree={self.degree}, blocks={sorted(self.blocks)})"


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


def kernel_of(f: HomogeneousMap, label_prefix: str = "k") -> Subspace:
    field = f.field
    dims = {}
    blocks = {}
    labels = {}
    for k in f.source.degrees():
        basis = f.block(k).kernel_basis()
        if not basis:
            continue
        dims[k] = len(basis)
        blocks[k] = Matrix.from_columns(field, basis, f.source.dim(k))
        labels[k] = tuple(f"{label_prefix}{k}_{i}" for i in range(len(basis)))
    space = GradedVectorSpace(dims, labels)
    incl = HomogeneousMap(field, space, f.source, 0, {k: blocks[k] for k in dims})
    return Subspace(space, incl)


def image_of(f: HomogeneousMap, label_prefix: str = "im") -> Subspace:
    field = f.field
    dims = {}
    blocks = {}
    labels = {}
    for k in f.source.degrees():
        blk = f.block(k)
        pivots = blk.column_space_pivots()
        if not pivots:
            continue
        tdeg = k + f.degree
        cols = [blk.column(j) for j in pivots]
        dims[tdeg] = len(cols)
        blocks[tdeg] = Matrix.from_columns(field, cols, f.target.dim(tdeg))
        labels[tdeg] = tuple(f"{label_prefix}{tdeg}_{i}" for i in range(len(cols)))
    space = GradedVectorSpace(dims, labels)
    incl = HomogeneousMap(field, space, f.target, 0, {k: blocks[k] for k in dims})
    return Subspace(space, incl)


def quotient_by(space: GradedVectorSpace, inclusion: HomogeneousMap) -> Quotient:
    """Quotient of ``space`` by the image of an injective degree-0 inclusion.

    Coset representatives are standard basis vectors of ``space`` chosen by
    column pivoting, so the section lands on honest basis elements and the
    quotient inherits their labels.
    """
    field = inclusion.field
    if inclusion.target != space or inclusion.degree != 0:
        raise ShapeMismatch("expected a degree-0 inclusion into the ambient space")
    qdims = {}
    proj_blocks = {}
    sect_blocks = {}
    qlabels = {}
    for k in space.degrees():
        n = space.dim(k)
        W = inclusion.block(k)
        if W.rank() != W.ncols:
            raise ShapeMismatch(f"inclusion not injective in degree {k}")
        aug = W.hstack(Matrix.identity(field, n))
        pivots = aug.column_space_pivots()
        if len([p for p in pivots if p < W.ncols]) != W.ncols:
            raise ShapeMismatch(f"inclusion columns dependent in degree {k}")
        rep_idx = [p - W.ncols for p in pivots if p >= W.ncols]
        q = len(rep_idx)
        if q == 0:
            continue
        R = Matrix.from_columns(field, [tuple(field.one if r == j else field.zero for r in range(n)) for j in rep_idx], n)
        full = W.hstack(R)
        inv = full.inverse()
        assert inv is not None
        proj = Matrix._raw(field, inv.rows[W.ncols:], n)
        qdims[k] = q
        proj_blocks[k] = proj
        sect_blocks[k] = R
        qlabels[k] = tuple(space.label_of(space.flat_index(k, j)) for j in rep_idx)
    qspace = GradedVectorSpace(qdims, qlabels)
    projection = HomogeneousMap(field, space, qspace, 0, {k: proj_blocks[k] for k in qdims})
    section = HomogeneousMap(field, qspace, space, 0, {k: sect_blocks[k] for k in qdims})
    return Quotient(qspace, projection, section)


class TensorBasis:
    """The tensor product of two graded spaces with its basis bookkeeping.

    Basis vectors are ordered pairs, left factor major; ``pairs[t]`` gives the
    flat factor indices of tensor slot t and ``index`` inverts that.
    """

    __slots__ = ("left", "right", "space", "pairs", "index")

    def __init__(self, left: GradedVectorSpace, right: GradedVectorSpace):
        buckets: dict[int, list] = {}
        for i in range(left.total_dim):
            di = left.degree_of(i)
            for j in range(right.total_dim):
                buckets.setdefault(di + right.degree_of(j), []).append((i, j))
        dims = {k: len(v) for k, v in buckets.items()}
        labels = {
            k: tuple(f"{left.label_of(i)}@{right.label_of(j)}" for i, j in v)
            for k, v in buckets.items()
        }
        self.left = left
        self.right = right
        self.space = GradedVectorSpace(dims, labels)
        pairs = []
        for k in sorted(buckets):
            pairs.extend(buckets[k])
        self.pairs = tuple(pairs)
        self.index = {pq: t for t, pq in enumerate(pairs)}


class LinearMap:
    """A not-necessarily-homogeneous linear map via sparse flat columns."""

    __slots__ = ("field", "source", "target", "cols")

    def __init__(self, field, source, target, cols):
        self.field = field
        self.source = source
        self.target = target
        self.cols = {int(j): clean_coeffs(field, c) for j, c in cols.items() if c}
        self.cols = {j: c for j, c in self.cols.items() if c}
        for j, c in self.cols.items():
            if j < 0 or j >= source.total_dim:
                raise ShapeMismatch(f"column index {j} outside the source space")
            for i in c:
                if i < 0 or i >= target.total_dim:
                    raise ShapeMismatch(f"row index {i} outside the target space")

    def apply_flat(self, coeffs: dict) -> dict:
        return apply(self.field, self.cols, coeffs)

    def compose(self, other: "LinearMap") -> "LinearMap":
        if other.target != self.source:
            raise ShapeMismatch("composition shape mismatch")
        cols = {}
        for j, c in other.cols.items():
            out = self.apply_flat(c)
            if out:
                cols[j] = out
        return LinearMap(self.field, other.source, self.target, cols)

    def homogeneous_degree(self):
        """The unique degree shift, or None for the zero map; mixed maps raise."""
        deg = None
        for j, col in self.cols.items():
            sk = self.source.degree_of(j)
            for i in col:
                d = self.target.degree_of(i) - sk
                if deg is None:
                    deg = d
                elif d != deg:
                    raise ShapeMismatch(f"map mixes degree shifts {deg} and {d}")
        return deg

    def to_homogeneous(self, degree: int | None = None) -> HomogeneousMap:
        d = self.homogeneous_degree()
        if d is None:
            d = 0 if degree is None else degree
        if degree is not None and d != degree:
            raise ShapeMismatch(f"map has degree {d}, not {degree}")
        return HomogeneousMap.from_flat_columns(self.field, self.source, self.target, d, self.cols)

    @classmethod
    def from_homogeneous(cls, m: HomogeneousMap) -> "LinearMap":
        return cls(m.field, m.source, m.target, m.flat_columns())

    def __add__(self, other):
        if not isinstance(other, LinearMap) or other.source != self.source or other.target != self.target:
            raise ShapeMismatch("can only add maps with the same spaces")
        cols = {j: dict(c) for j, c in self.cols.items()}
        for j, c in other.cols.items():
            acc = cols.setdefault(j, {})
            add_into(self.field, acc, c)
        return LinearMap(self.field, self.source, self.target, cols)

    def scaled(self, c) -> "LinearMap":
        c = self.field.coerce(c)
        return LinearMap(
            self.field, self.source, self.target,
            {j: {i: self.field.mul(c, x) for i, x in col.items()} for j, col in self.cols.items()},
        )

    def __neg__(self):
        return self.scaled(self.field.neg(self.field.one))

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.source == other.source
            and self.target == other.target
            and self.cols == other.cols
        )

    def is_zero(self):
        return not self.cols

    def rank(self) -> int:
        cols = []
        n = self.target.total_dim
        for j in range(self.source.total_dim):
            col = self.cols.get(j, {})
            cols.append(tuple(col.get(i, self.field.zero) for i in range(n)))
        return Matrix.from_columns(self.field, cols, n).rank()

    def __repr__(self):
        return f"LinearMap({len(self.cols)} nonzero columns)"
