"""Dense reference implementations that the sparse code is checked against.

``dense_rref`` is the column-by-column Gauss-Jordan loop on dense rows that
``Matrix.rref`` ran before elimination moved to sparse rows, and
``dense_is_central_simple`` is the dense n^2 x n^2 sandwich rank that
``is_central_simple`` took before it built sparse rows.  ``dense_center``
and ``dense_trace_radical`` are the per-degree dense commutator kernel and
the dense Gram-matrix kernel that ``center`` and ``is_semisimple_ungraded``
took before they eliminated sparse columns.
``dense_validate_structure`` and ``dense_validate_module`` are the
validators as they were before associativity and Leibniz were checked only
on the support of the tables: they visit every basis triple and pair.
``FractionField`` is the rational field as it was before integral values
became ``int``: every value it makes is a ``Fraction``.  All of them are kept
only as oracles for the tests.
"""
from fractions import Fraction

from dgbr.dg import DgModule, _show, center, ksign, validate_complex
from dgbr.errors import AxiomViolation, DgError, ParseError
from dgbr.fields import Field
from dgbr.graded import add_into, apply, operators


def dense_rref(field, rows, ncols):
    """Reduced row echelon form of dense rows: (reduced rows, pivot columns)."""
    f = field
    rows = [list(r) for r in rows]
    m = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, m):
            if not f.is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(m):
            if i != r and not f.is_zero(rows[i][c]):
                t = rows[i][c]
                rows[i] = [f.sub(x, f.mul(t, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return [tuple(row) for row in rows], tuple(pivots)


def dense_kernel_basis(field, rows, ncols):
    """Right kernel basis with free variables set to 1, from ``dense_rref``."""
    R, pivots = dense_rref(field, rows, ncols)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        col = [field.zero] * ncols
        col[j] = field.one
        for r, pc in enumerate(pivots):
            col[pc] = field.neg(R[r][j])
        basis.append(tuple(col))
    return basis, pivots


def dense_solve(field, rows, ncols, rhs):
    """Solution of rows * x = rhs with free variables zero, or None."""
    R, pivots = dense_rref(field, [tuple(r) + (b,) for r, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        return None
    sol = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = R[r][ncols]
    return tuple(sol)


def dense_inverse(field, rows):
    """Inverse of a square matrix as a tuple of rows, or None when singular."""
    n = len(rows)
    eye = [tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)]
    R, pivots = dense_rref(field, [tuple(r) + e for r, e in zip(rows, eye)], 2 * n)
    if pivots[:n] != tuple(range(n)):
        return None
    return tuple(r[n:] for r in R)


def dense_sandwich_rank(A):
    """Rank of the n^2 x n^2 matrix whose column (i, j) is x -> e_i x e_j."""
    n, f = A.dim, A.field
    one = f.one
    cols = []
    for i in range(n):
        for j in range(n):
            col = [f.zero] * (n * n)
            for x in range(n):
                for t, c in A.mul({i: one}, A.table.get((x, j), {})).items():
                    col[x * n + t] = c
            cols.append(col)
    rows = [tuple(col[r] for col in cols) for r in range(n * n)]
    return len(dense_rref(f, rows, n * n)[1])


def dense_is_central_simple(A):
    """Center of dimension 1 and a sandwich map of full rank n^2."""
    n = A.dim
    return n > 0 and center(A).space.total_dim == 1 and dense_sandwich_rank(A) == n * n


def dense_center(A):
    """Basis of the center as flat sparse vectors, degree by degree.

    Column s of the degree-k system holds the e_m coefficient of
    e_s e_j - e_j e_s at row (j, m); the center in degree k is its dense
    kernel (free variables 1), read back at the flat indices of degree k.
    """
    f, n = A.field, A.dim
    out = []
    for k in A.space.degrees():
        base, nk = A.space.flat_index(k, 0), A.space.dim(k)
        cols = []
        for s in range(base, base + nk):
            col: dict = {}
            for j in range(n):
                comm = dict(A.table.get((s, j), {}))
                add_into(f, comm, A.table.get((j, s), {}), scale=f.neg(f.one))
                col.update(((j, m), c) for m, c in comm.items())
            cols.append(col)
        keys = sorted({key for col in cols for key in col})
        rows = [[col.get(key, f.zero) for col in cols] for key in keys]
        basis, _ = dense_kernel_basis(f, rows, nk)
        out += [{base + r: x for r, x in enumerate(v) if not f.is_zero(x)} for v in basis]
    return out


def dense_trace_radical(A):
    """Kernel of the dense Gram matrix tr(L_{e_i e_j}), as flat sparse vectors."""
    f, n = A.field, A.dim
    tr = [f.zero] * n
    for (m, k), out in A.table.items():
        if k in out:
            tr[m] = f.add(tr[m], out[k])
    gram = [[f.zero] * n for _ in range(n)]
    for (i, j), out in A.table.items():
        for m, c in out.items():
            gram[i][j] = f.add(gram[i][j], f.mul(c, tr[m]))
    basis, _ = dense_kernel_basis(f, gram, n)
    return [{i: x for i, x in enumerate(v) if not f.is_zero(x)} for v in basis]


def dense_validate_structure(field, space, unit, table, dcols):
    """Exhaustive axiom check; returns every violation found.

    The product axioms are checked around ``validate_complex``: every
    product becomes an ``apply`` of a left or right multiplication operator.
    """
    v: list[AxiomViolation] = []
    n = space.total_dim
    deg = space.flat_degrees()

    def show(vec):
        return _show(field, space, vec)

    # degree additivity of the product
    for (i, j), out in sorted(table.items()):
        want = deg[i] + deg[j]
        for k in out:
            if deg[k] != want:
                v.append(AxiomViolation(
                    "degree-additivity", (i, j),
                    f"product hits degree {deg[k]}, expected {want}",
                ))
                break

    # unit: homogeneous of degree 0, two-sided neutral
    if n == 0:
        if unit:
            v.append(AxiomViolation("unit-degree", (), "nonzero unit in the zero algebra"))
    else:
        if not unit:
            v.append(AxiomViolation("unit-law", (), "unit is zero"))
        for i in unit:
            if deg[i] != 0:
                v.append(AxiomViolation("unit-degree", (i,), f"unit has a degree-{deg[i]} component"))
                break

    L, R = operators(table)
    empty: dict = {}
    one = field.one
    if unit:
        for i in range(n):
            e = {i: one}
            if apply(field, R.get(i, empty), unit) != e:
                v.append(AxiomViolation("unit-law", (i,), "1*e differs from e"))
            if apply(field, L.get(i, empty), unit) != e:
                v.append(AxiomViolation("unit-law", (i,), "e*1 differs from e"))

    # associativity on every basis triple: (e_i e_j) e_k = R_k(t_ij), e_i (e_j e_k) = L_i(t_jk)
    for i in range(n):
        Li = L.get(i, empty)
        for j in range(n):
            tij = table.get((i, j))
            for k in range(n):
                tjk = table.get((j, k))
                if tij is None and tjk is None:
                    continue
                left = apply(field, R.get(k, empty), tij) if tij else {}
                right = apply(field, Li, tjk) if tjk else {}
                if left != right:
                    v.append(AxiomViolation(
                        "associativity", (i, j, k),
                        f"(e{i}*e{j})*e{k} = {show(left)} but e{i}*(e{j}*e{k}) = {show(right)}",
                    ))

    v += validate_complex(field, space, dcols)

    # graded Leibniz rule on every basis pair: d(e_i e_j) = R_j(d e_i) +- L_i(d e_j)
    minus = field.neg(one)
    for i in range(n):
        di = dcols.get(i, empty)
        Li = L.get(i, empty)
        sign = None if ksign(deg[i], 1) > 0 else minus
        for j in range(n):
            lhs = apply(field, dcols, table.get((i, j), empty))
            rhs = apply(field, R.get(j, empty), di)
            add_into(field, rhs, apply(field, Li, dcols.get(j, empty)), scale=sign)
            if lhs != rhs:
                v.append(AxiomViolation(
                    "leibniz", (i, j),
                    f"d(e{i}*e{j}) = {show(lhs)} but the rule gives {show(rhs)}",
                ))

    # d(1) = 0: implied by Leibniz, still checked to catch corrupt input
    du = apply(field, dcols, unit)
    if du:
        v.append(AxiomViolation("d-unit", (), f"d(1) = {show(du)}"))

    return v


def dense_validate_module(M: DgModule):
    """All module axioms, exhaustively; returns the violations found.

    ``validate_complex`` on (space, d) with ``module-`` axiom names, plus the
    action axioms as applies of the action operators.
    """
    A = M.algebra
    f = M.field
    v: list[AxiomViolation] = []
    mdeg = M.space.flat_degrees()
    adeg = A.space.flat_degrees()
    nm, na = M.space.total_dim, A.dim

    for (m, a), out in sorted(M.action.items()):
        want = mdeg[m] + adeg[a]
        for k in out:
            if mdeg[k] != want:
                v.append(AxiomViolation(
                    "module-degree", (m, a), f"action hits degree {mdeg[k]}, expected {want}"))
                break

    # on_m[m][a] = by_a[a][m] = (module basis m) * (algebra basis a)
    on_m, by_a = operators(M.action)
    empty: dict = {}
    one = f.one
    for m in range(nm):
        if apply(f, on_m.get(m, empty), A.unit) != {m: one}:
            v.append(AxiomViolation("module-unit", (m,), "m*1 differs from m"))

    for m in range(nm):
        om = on_m.get(m, empty)
        for a in range(na):
            ma = M.action.get((m, a))
            for b in range(na):
                ab = A.table.get((a, b))
                if ma is None and ab is None:
                    continue
                left = apply(f, by_a.get(b, empty), ma) if ma else {}
                right = apply(f, om, ab) if ab else {}
                if left != right:
                    v.append(AxiomViolation(
                        "module-associativity", (m, a, b),
                        "(m*a)*b differs from m*(a*b)"))

    v += [AxiomViolation("module-" + x.axiom, x.witness, x.detail)
          for x in validate_complex(f, M.space, M.dcols)]

    minus = f.neg(one)
    for m in range(nm):
        dm = M.dcols.get(m, empty)
        om = on_m.get(m, empty)
        sign = None if ksign(mdeg[m], 1) > 0 else minus
        for a in range(na):
            lhs = apply(f, M.dcols, M.action.get((m, a), empty))
            rhs = apply(f, by_a.get(a, empty), dm)
            add_into(f, rhs, apply(f, om, A.dcols.get(a, empty)), scale=sign)
            if lhs != rhs:
                v.append(AxiomViolation(
                    "module-leibniz", (m, a),
                    "d(m*a) differs from d(m)*a + (-1)^{|m|} m*d(a)"))
    return v


class FractionField(Field):
    """The rationals with every value a ``Fraction``, integral ones included."""

    kind = "rationals"
    zero = Fraction(0)
    one = Fraction(1)

    def characteristic(self):
        return 0

    def coerce(self, x):
        if isinstance(x, bool):
            raise DgError("bool is not a scalar")
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        raise DgError(f"cannot coerce {type(x).__name__} into the rationals")

    def parse(self, text):
        text = text.strip()
        if "." in text or "e" in text.lower():
            raise ParseError(f"not an exact rational literal: {text!r}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {text!r}: {exc}") from None

    def format(self, a):
        return str(a)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def is_zero(self, a):
        return not a

    def describe(self):
        return {"kind": "rationals"}

    def __eq__(self, other):
        return isinstance(other, FractionField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ[Fraction]"


FRACTION_QQ = FractionField()
