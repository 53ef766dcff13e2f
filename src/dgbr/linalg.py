"""Exact matrices over a Field: stored dense, eliminated sparse.

Entries are raw field values: for QQ an int when integral and a reduced
Fraction otherwise, for GF(p) a residue int.  The public
``Matrix(field, rows)`` constructor coerces every entry, because it is where
outside values enter.  Everything computed inside the
package (elimination results, arithmetic, stacking, inverses) is built with
the trusted ``Matrix._raw``, which takes rows that already hold field values
and coerces nothing.

All elimination runs through one kernel, ``rref_rows``, which works on rows
stored as sparse ``{col: value}`` dicts: structure matrices built from
matrix units are mostly zero, and the kernel touches only their nonzeros.
``Matrix.rref`` converts to sparse rows and back; ``rank`` and
``column_space_pivots`` read the sparse rows directly.

Maps and subspaces are sparse flat columns, so their elimination never builds
a ``Matrix``.  ``kernel_columns`` gives the kernel of sparse columns, and
``Factored`` reduces sparse columns once and solves against many sparse
right-hand sides, each solve one sparse product ``T * b``.  ``Matrix.solve``
and ``Factored.solve`` return the same canonical solution, entry for entry:
the reduced echelon form is unique, and free variables are set to zero.
"""
from __future__ import annotations

from .errors import ShapeMismatch
from .fields import Field


def rref_rows(field: Field, rows, on_pivot=None):
    """Reduced row echelon form of sparse rows ``{col: nonzero value}`` (Gauss-Jordan).

    Returns ``(reduced, pivots)``: the nonzero rows of the reduced echelon
    form as new dicts, ordered by their pivot columns, and those columns
    ascending.  The input dicts are not modified.  The form is unique, so the
    order of the input rows does not change the result.  ``on_pivot(row)``
    is called with each input row that is independent of the rows before it,
    before the next row is read, so ``rows`` may be a generator that grows
    from those calls.

    Each row is reduced against the pivot rows found so far.  A nonzero
    remainder is scaled to 1 at its smallest column, which becomes a new
    pivot, and that column is cleared from the earlier pivot rows.  Pivot
    rows are kept without their pivot entry (it is 1) and hold no other
    pivot column, so subtracting one never creates a pivot-column entry.
    """
    sub, mul, neg, inv, is_zero = field.sub, field.mul, field.neg, field.inv, field.is_zero
    one = field.one
    tails: dict = {}    # pivot column -> rest of its reduced row
    holders: dict = {}  # free column -> pivot columns whose tails may hold it

    def subtract(row, t, tail):
        # row -= t * tail, dropping cancelled entries; returns the new columns
        new = []
        for k, y in tail.items():
            x = row.get(k)
            if x is None:
                row[k] = neg(mul(t, y))
                new.append(k)
            else:
                x = sub(x, mul(t, y))
                if is_zero(x):
                    del row[k]
                else:
                    row[k] = x
        return new

    for given in rows:
        row = dict(given)
        for c in [c for c in row if c in tails]:
            subtract(row, row.pop(c), tails[c])
        if not row:
            continue
        c = min(row)
        s = inv(row.pop(c))
        tail = {k: mul(s, x) for k, x in row.items()}
        for p in holders.pop(c, ()):
            prow = tails[p]
            t = prow.pop(c, None)
            if t is not None:
                for k in subtract(prow, t, tail):
                    holders.setdefault(k, set()).add(p)
        tails[c] = tail
        for k in tail:
            holders.setdefault(k, set()).add(c)
        if on_pivot is not None:
            on_pivot(given)
    pivots = sorted(tails)
    return [{c: one, **tails[c]} for c in pivots], tuple(pivots)


def kernel_columns(field: Field, cols, n: int):
    """Kernel of the sparse columns ``cols[j] = {row key: value}``, j in [0, n).

    Returns ``(basis, pivots)``: ``basis[j]`` for each free column j ascending
    is the kernel vector with 1 at j, zero at the other free columns and minus
    the j entry of each pivot row at its pivot; ``pivots`` are the leftmost
    independent columns.  Absent columns are zero.
    """
    rows: dict = {}
    for j, col in cols.items():
        for key, x in col.items():
            rows.setdefault(key, {})[j] = x
    reduced, pivots = rref_rows(field, rows.values())
    is_pivot = set(pivots)
    basis = {j: {j: field.one} for j in range(n) if j not in is_pivot}
    for p, row in zip(pivots, reduced):
        for j, x in row.items():
            if j != p:
                basis[j][p] = field.neg(x)
    return basis, pivots


class Matrix:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows, ncols: int | None = None):
        rows = [tuple(field.coerce(x) for x in r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ShapeMismatch("ragged rows")
        elif ncols is None:
            ncols = 0
        self.field = field
        self.rows = tuple(rows)
        self.nrows = len(rows)
        self.ncols = ncols

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, field, rows, ncols: int):
        """Trusted constructor: rows already hold field values of one length.

        Nothing is coerced or checked, so only code that computed the entries
        with ``field`` itself may call it.
        """
        self = object.__new__(cls)
        self.field = field
        self.rows = tuple(map(tuple, rows))
        self.nrows = len(self.rows)
        self.ncols = ncols
        return self

    @classmethod
    def zeros(cls, field, m, n):
        z = field.zero
        return cls._raw(field, [(z,) * n] * m, n)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls._raw(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, field, cols, nrows: int):
        z = field.zero
        rows = [[z] * len(cols) for _ in range(nrows)]
        for j, col in enumerate(cols):
            if len(col) != nrows:
                raise ShapeMismatch(f"column {j} has length {len(col)}, expected {nrows}")
            for i, x in enumerate(col):
                rows[i][j] = field.coerce(x)
        return cls._raw(field, rows, len(cols))

    # -- basics ------------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.ncols))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            c = self.field.coerce(other)
            mul = self.field.mul
            return Matrix._raw(self.field, [[mul(c, x) for x in r] for r in self.rows], self.ncols)
        if self.field != other.field:
            raise ShapeMismatch("matrix operands must share a field")
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"cannot multiply {self.shape} by {other.shape}")
        f = self.field
        add, mul, zero, is_zero = f.add, f.mul, f.zero, f.is_zero
        cols = other.rows
        out = []
        for r in self.rows:
            row = [zero] * other.ncols
            for k, a in enumerate(r):
                if is_zero(a):
                    continue
                ck = cols[k]
                for j in range(other.ncols):
                    b = ck[j]
                    if not is_zero(b):
                        row[j] = add(row[j], mul(a, b))
            out.append(row)
        return Matrix._raw(self.field, out, other.ncols)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ShapeMismatch("hstack needs equal row counts")
        if self.field != other.field:
            raise ShapeMismatch("matrix operands must share a field")
        return Matrix._raw(
            self.field,
            [a + b for a, b in zip(self.rows, other.rows)],
            self.ncols + other.ncols,
        )

    def apply(self, vec):
        """Matrix times a column given as a sequence; returns a tuple."""
        if len(vec) != self.ncols:
            raise ShapeMismatch(f"vector length {len(vec)} vs {self.ncols} columns")
        f = self.field
        vec = [f.coerce(x) for x in vec]
        out = []
        for r in self.rows:
            acc = f.zero
            for a, x in zip(r, vec):
                if not f.is_zero(a) and not f.is_zero(x):
                    acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return tuple(out)

    # -- elimination -------------------------------------------------------

    def _sparse_rows(self):
        """The rows as ``{col: value}`` dicts of their nonzero entries."""
        is_zero = self.field.is_zero
        return [{j: x for j, x in enumerate(r) if not is_zero(x)} for r in self.rows]

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column indices)."""
        f = self.field
        reduced, pivots = rref_rows(f, self._sparse_rows())
        zero, n = f.zero, self.ncols
        rows = []
        for row in reduced:
            dense = [zero] * n
            for j, x in row.items():
                dense[j] = x
            rows.append(dense)
        rows += [(zero,) * n] * (self.nrows - len(rows))
        return Matrix._raw(f, rows, n), pivots

    def rank(self):
        return len(self.column_space_pivots())

    def kernel_basis(self):
        """Basis of the right kernel, as column tuples (free variables = 1)."""
        return self.kernel_basis_and_pivots()[0]

    def kernel_basis_and_pivots(self):
        """``(kernel_basis(), column_space_pivots())`` from a single rref."""
        f = self.field
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis = []
        for j in free:
            col = [f.zero] * self.ncols
            col[j] = f.one
            for r, pc in enumerate(pivots):
                col[pc] = f.neg(R.rows[r][j])
            basis.append(tuple(col))
        return basis, pivots

    def column_space_pivots(self):
        """Indices of a maximal independent set of columns (leftmost first)."""
        return rref_rows(self.field, self._sparse_rows())[1]

    def solve(self, rhs):
        """One exact solution of self * x = rhs, or None if inconsistent.

        Free variables are set to zero, which makes the answer canonical for
        the fixed column order.  rhs may be a sequence or a 1-column Matrix.
        """
        if isinstance(rhs, Matrix):
            if rhs.ncols != 1:
                raise ShapeMismatch("solve expects a single column")
            rhs = rhs.column(0)
        if len(rhs) != self.nrows:
            raise ShapeMismatch(f"rhs length {len(rhs)} vs {self.nrows} rows")
        f = self.field
        aug = Matrix._raw(f, [r + (f.coerce(b),) for r, b in zip(self.rows, rhs)], self.ncols + 1)
        R, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        sol = [f.zero] * self.ncols
        for r, pc in enumerate(pivots):
            sol[pc] = R.rows[r][self.ncols]
        return tuple(sol)

    def inverse(self):
        if self.nrows != self.ncols:
            raise ShapeMismatch("inverse of a non-square matrix")
        n = self.nrows
        R, pivots = self.hstack(Matrix.identity(self.field, n)).rref()
        if tuple(pivots[:n]) != tuple(range(n)):
            return None
        return Matrix._raw(self.field, [r[n:] for r in R.rows], n)

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(" ".join(fmt(x) for x in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


class Factored:
    """Sparse columns A reduced once, for solving A * x = b against many b.

    ``cols`` is a sequence of sparse columns ``{row key: value}``; the row keys
    may be any hashable values, and a key in no column is a zero row.  One
    reduction of the rows of ``[A | I]`` yields the pivot columns of A and an
    invertible transform T with ``T * A = rref(A)``.  T is kept column by
    column, with only its nonzero entries, so a solve costs one pass over the
    nonzeros of b.
    """

    __slots__ = ("field", "pivots", "_tcols")

    def __init__(self, field: Field, cols):
        n = len(cols)
        rows: dict = {}  # row key -> that row of [A | I]
        for j, col in enumerate(cols):
            for key, x in col.items():
                row = rows.get(key)
                if row is None:
                    row = rows[key] = {n + len(rows): field.one}
                row[j] = x
        reduced, pivots = rref_rows(field, rows.values())
        self.field = field
        self.pivots = tuple(p for p in pivots if p < n)
        tcols: list = [[] for _ in rows]
        for i, row in enumerate(reduced):
            for k, x in row.items():
                if k >= n:
                    tcols[k - n].append((i, x))
        self._tcols = dict(zip(rows, tcols))

    def solve(self, rhs: dict):
        """Canonical solution ``{column: value}`` of A * x = rhs, or None if inconsistent.

        rhs is a sparse ``{row key: value}`` dict of field values (trusted, not
        coerced).  None when rhs is nonzero on a zero row of A or a row of
        ``T * rhs`` past the rank is nonzero; otherwise x holds ``(T * rhs)[r]``
        at the r-th pivot column and leaves out the free variables, which are zero.
        """
        f = self.field
        add, mul, is_zero = f.add, f.mul, f.is_zero
        y: dict = {}
        for key, b in rhs.items():
            if is_zero(b):
                continue
            tcol = self._tcols.get(key)
            if tcol is None:
                return None
            for i, t in tcol:
                y[i] = add(y.get(i, f.zero), mul(t, b))
        rank = len(self.pivots)
        if any(i >= rank and not is_zero(x) for i, x in y.items()):
            return None
        return {self.pivots[i]: y[i] for i in sorted(y) if not is_zero(y[i])}
