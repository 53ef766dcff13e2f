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
``Matrix.rref`` converts to sparse rows and back; ``rank``,
``column_space_pivots`` and ``Factored`` read the sparse rows directly.

``Matrix.solve`` eliminates afresh on every call.  When one matrix is solved
against many right-hand sides, ``Matrix.factor()`` reduces ``[A | I]`` once
and returns a ``Factored`` solver that keeps the pivots and the transform
``T`` with ``T * A = rref(A)``.  Each of its solves is one sparse product
``T * b``.  Both paths return the same canonical solution, entry for entry:
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

    def transpose(self):
        return Matrix._raw(self.field, zip(*self.rows), self.nrows)

    def is_zero(self):
        zero = self.field.is_zero
        return all(zero(x) for r in self.rows for x in r)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.ncols))

    def __add__(self, other):
        self._same_shape(other)
        add = self.field.add
        return Matrix._raw(
            self.field,
            [[add(a, b) for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __sub__(self, other):
        self._same_shape(other)
        sub = self.field.sub
        return Matrix._raw(
            self.field,
            [[sub(a, b) for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __neg__(self):
        neg = self.field.neg
        return Matrix._raw(self.field, [[neg(x) for x in r] for r in self.rows], self.ncols)

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

    def _same_shape(self, other):
        if not isinstance(other, Matrix) or self.field != other.field:
            raise ShapeMismatch("matrix operands must share a field")
        if self.shape != other.shape:
            raise ShapeMismatch(f"shape mismatch {self.shape} vs {other.shape}")

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

    def factor(self) -> "Factored":
        """Factor once for many ``solve`` calls; see ``Factored``."""
        return Factored(self)

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
    """A matrix A reduced once, for solving A * x = b against many b.

    One reduction of ``[A | I]`` yields the pivot columns of A and an invertible
    transform T with ``T * A = rref(A)``.  T is kept column by column, with
    only its nonzero entries, so a solve costs one pass over the nonzeros of
    b.  The answer is the one ``Matrix.solve`` gives: None when a row of
    ``T * b`` at or below the rank is nonzero, otherwise ``(T * b)[r]`` at
    the r-th pivot column and zero at every free variable.
    """

    __slots__ = ("field", "nrows", "ncols", "pivots", "_tcols")

    def __init__(self, A: Matrix):
        f = A.field
        m, n = A.nrows, A.ncols
        rows = A._sparse_rows()
        for i, row in enumerate(rows):
            row[n + i] = f.one
        reduced, pivots = rref_rows(f, rows)
        self.field = f
        self.nrows = m
        self.ncols = n
        self.pivots = tuple(p for p in pivots if p < n)
        self._tcols = [[] for _ in range(m)]
        for i, row in enumerate(reduced):
            for k, x in row.items():
                if k >= n:
                    self._tcols[k - n].append((i, x))

    def solve(self, rhs):
        """Canonical solution of A * x = rhs, or None if inconsistent.

        rhs is a sequence of field values (trusted, not coerced).
        """
        if len(rhs) != self.nrows:
            raise ShapeMismatch(f"rhs length {len(rhs)} vs {self.nrows} rows")
        f = self.field
        add, mul, is_zero, zero = f.add, f.mul, f.is_zero, f.zero
        y = [zero] * self.nrows
        for j, b in enumerate(rhs):
            if is_zero(b):
                continue
            for i, t in self._tcols[j]:
                y[i] = add(y[i], mul(t, b))
        rank = len(self.pivots)
        if not all(is_zero(x) for x in y[rank:]):
            return None
        sol = [zero] * self.ncols
        for r, pc in enumerate(self.pivots):
            sol[pc] = y[r]
        return tuple(sol)
