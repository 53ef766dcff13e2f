"""Exact sparse elimination over a Field.

Every subspace, map and system in the package is held as sparse dicts, and
all elimination runs through one kernel, ``rref_rows``, a Gauss-Jordan on
rows stored as ``{col: value}`` dicts of field values: structure matrices
built from matrix units are mostly zero, and it touches only their nonzeros.
``transpose`` is the one regrouping of sparse columns into such rows.  The
entry points are ``rref_rows`` itself, ``kernel_columns`` for the kernel of
sparse columns, ``Factored``, which reduces sparse columns once and solves
against many sparse right-hand sides, each solve one sparse product ``T * b``,
and ``coset_basis``, which takes span(mod + sub) modulo span(mod) from one
``Factored``: every quotient in the package (a homology, the structure
theorem's L = M/N, ``quotient_by``) is one call of it.

No dense path is left in the library.  ``Matrix`` keeps dense rows only for
the benchmark harness, which patches its ``__init__``, ``rref`` and
``solve`` by name; the package never builds one.
"""
from __future__ import annotations

from .errors import ShapeMismatch
from .fields import Field


def transpose(cols) -> dict:
    """The rows ``{row key: {col: value}}`` of sparse columns, row keys in first-seen order."""
    rows: dict = {}
    for j, col in cols.items():
        for key, x in col.items():
            rows.setdefault(key, {})[j] = x
    return rows


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
    reduced, pivots = rref_rows(field, transpose(cols).values())
    is_pivot = set(pivots)
    basis = {j: {j: field.one} for j in range(n) if j not in is_pivot}
    for p, row in zip(pivots, reduced):
        for j, x in row.items():
            if j != p:
                basis[j][p] = field.neg(x)
    return basis, pivots


class Matrix:
    """Dense rows of field values, eliminated through ``rref_rows``.

    Nothing in the package builds one.  It stays because the benchmark
    harness patches ``__init__``, ``rref`` and ``solve`` by name and reads
    ``nrows`` and ``ncols``; the tests check it against the dense oracle.
    """

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

    def _sparse_rows(self):
        """The rows as ``{col: value}`` dicts of their nonzero entries."""
        is_zero = self.field.is_zero
        return [{j: x for j, x in enumerate(r) if not is_zero(x)} for r in self.rows]

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column indices)."""
        f, n = self.field, self.ncols
        reduced, pivots = rref_rows(f, self._sparse_rows())
        rows = [[row.get(j, f.zero) for j in range(n)] for row in reduced]
        rows += [[f.zero] * n] * (self.nrows - len(rows))
        return Matrix(f, rows, n), pivots

    def solve(self, rhs):
        """One exact solution of self * x = rhs, or None if inconsistent.

        Free variables are set to zero, which makes the answer canonical for
        the fixed column order.
        """
        if len(rhs) != self.nrows:
            raise ShapeMismatch(f"rhs length {len(rhs)} vs {self.nrows} rows")
        f, n = self.field, self.ncols
        rows = self._sparse_rows()
        for row, b in zip(rows, rhs):
            b = f.coerce(b)
            if not f.is_zero(b):
                row[n] = b
        reduced, pivots = rref_rows(f, rows)
        if n in pivots:
            return None
        sol = [f.zero] * n
        for row, p in zip(reduced, pivots):
            sol[p] = row.get(n, f.zero)
        return tuple(sol)


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
        rows = transpose(dict(enumerate(cols)))  # row key -> that row of A, then of [A | I]
        for r, row in enumerate(rows.values()):
            row[n + r] = field.one
        reduced, pivots = rref_rows(field, rows.values())
        self.field = field
        self.pivots = tuple(p for p in pivots if p < n)
        tcols: list = [[] for _ in rows]  # T's half only: transposing all of [A | I] is slower
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

    def inverse(self) -> dict:
        """A^-1 as sparse columns ``{row key: {column: value}}``, when every column is a pivot.

        With as many nonzero rows as pivots, rref(A) = I and T * A = I, so
        column t of A^-1 is T's column at row key t, read off with no solve.
        The caller checks that every column is a pivot.
        """
        if len(self.pivots) != len(self._tcols):
            raise ShapeMismatch("A has more nonzero rows than pivots")
        return {key: dict(tcol) for key, tcol in self._tcols.items()}


def coset_basis(field: Field, mod, sub):
    """span(mod + sub) modulo span(mod), from one elimination of sparse vectors.

    ``mod`` and ``sub`` are sequences of sparse vectors ``{key: value}``.
    Returns ``(picks, project)``.  ``picks`` are the positions in ``sub`` of
    the vectors independent of ``mod`` and of the vectors of ``sub`` before
    them, ascending; their cosets are a basis of the quotient.
    ``project(v)`` gives the coordinates ``{q: value}`` of v on
    ``sub[picks[q]]`` modulo span(mod), q ascending, or None when v lies
    outside span(mod + sub).  Those coordinates are unique, so they do not
    depend on which vectors of ``mod`` the elimination keeps.
    """
    m = len(mod)
    solver = Factored(field, [*mod, *sub])
    picks = tuple(p - m for p in solver.pivots if p >= m)
    q_of = {m + p: q for q, p in enumerate(picks)}

    def project(v: dict):
        sol = solver.solve(v)
        if sol is None:
            return None
        return {q_of[p]: c for p, c in sol.items() if p >= m}

    return picks, project
