"""Dense reference implementations that the sparse code is checked against.

``dense_rref`` is the column-by-column Gauss-Jordan loop on dense rows that
``Matrix.rref`` ran before elimination moved to sparse rows, and
``dense_is_central_simple`` is the dense n^2 x n^2 sandwich rank that
``is_central_simple`` took before it built sparse rows.  ``dense_center``
and ``dense_trace_radical`` are the per-degree dense commutator kernel and
the dense Gram-matrix kernel that ``center`` and ``is_semisimple_ungraded``
took before they eliminated sparse columns.
``dense_validate_structure`` is the validator as it was before
associativity and Leibniz were checked only on the support of the tables:
it visits every basis triple and pair.
``dense_realization`` and ``dense_homology`` are the structure theorem and
homology as they ran before one coset elimination replaced their subspace
solvers: dense per-degree picks of M = A*e + A*d(e) and N = A*d(e), the
quotient M/N from the pivots of [W | I] in M coordinates, and H = Z/B from
the pivots of [B | Z].
``full_iso_checks`` is ``verify_dg_iso`` as it was before multiplicativity
could be checked on certified generators: it multiplies out every basis pair.
``dense_candidates`` is the structure theorem's list of diagonal idempotents
as it was found before it read squares from the table: by ``A.mul``.
``bucketed_space`` and ``bucketed_numbered`` are the bucket-and-sort loop
that each constructor of a graded basis ran before they all went through
``GradedVectorSpace.from_entries`` and ``GradedVectorSpace.numbered``.
``dense_span_member`` decides membership in a span by ``dense_rref``,
for the ideal properties that homology and the structure theorem take from
the Leibniz rule instead of checking them at run time.
``dense_nil_members`` is the exhaustive search of ``is_semisimple_ungraded``
over GF(p)^n, on dense tuples, for the fact that let its closure check go:
the x with xa nilpotent for all a are the Jacobson radical, a subspace.
``dense_hom_differential`` is d(f) = d_D f - (-1)^|f| f d_C on the units of
Hom(C, D), multiplied out as dense matrices, as ``hom_differential`` applied it
to a map before Hom elements were kept only as unit coordinates.
``table_product`` is the product of two elements summed term by term from
the table, which ``DgAlgebra.mul`` is checked against; every oracle here
multiplies through it, so none shares the product routine under test.
``dense_tensor`` is the signed tensor product from its definition, on
every pair of basis pairs, for ``tensor_product`` and the shortcut it takes
when a factor is one-dimensional.
``FractionField`` is the rational field as it was before integral values
became ``int``: every value it makes is a ``Fraction``.  All of them are kept
only as oracles for the tests.
"""
import functools
import itertools
from fractions import Fraction

from dgbr.brauer import IsoChecks
from dgbr.dg import _show, center, ksign, validate_complex
from dgbr.errors import AxiomViolation, DgError, ParseError
from dgbr.fields import Field
from dgbr.graded import GradedVectorSpace, add_into, apply, operators


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
                for t, c in table_product(A, {i: one}, A.table.get((x, j), {})).items():
                    col[x * n + t] = c
            cols.append(col)
    rows = [tuple(col[r] for col in cols) for r in range(n * n)]
    return len(dense_rref(f, rows, n * n)[1])


def dense_is_central_simple(A):
    """Center of dimension 1 and a sandwich map of full rank n^2.

    The oracle for both criteria of ``brauer.forget_descriptor``: the
    trace-form radical (char K = 0 or char K > n) and the sparse sandwich
    rank (0 < char K <= n).  It ranks the dense rows in every characteristic.
    """
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


def dense_nil_members(A):
    """Every x in GF(p)^n, as a dense tuple, with x*a nilpotent for all a."""
    p, n = A.field.characteristic(), A.dim
    zero = (0,) * n

    def mul(x, y):
        z = [0] * n
        for (i, j), out in A.table.items():
            c = x[i] * y[j] % p
            for k, v in out.items():
                z[k] = (z[k] + c * v) % p
        return tuple(z)

    def nilpotent(x):
        for _ in range(n.bit_length()):  # x^(2^k) with 2^k > n
            x = mul(x, x)
        return x == zero

    elems = list(itertools.product(range(p), repeat=n))
    return {x for x in elems if all(nilpotent(mul(x, a)) for a in elems)}


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


def _positions(space, k):
    """Flat indices of degree k, in order."""
    return [space.flat_index(k, p) for p in range(space.dim(k))]


def _by_degree(space, vecs):
    """Nonzero homogeneous flat vectors grouped by degree, in order; degrees ascending."""
    out: dict = {}
    for v in vecs:
        if v:
            out.setdefault(space.degree_of(min(v)), []).append(v)
    return dict(sorted(out.items()))


def _dense_cols(field, space, k, vecs):
    """The degree-k rows of the matrix whose columns are the given flat vectors."""
    return [tuple(v.get(i, field.zero) for v in vecs) for i in _positions(space, k)]


def _dense_picks(field, space, k, vecs):
    """The degree-k vectors independent of those before them: the column pivots."""
    _, pivots = dense_rref(field, _dense_cols(field, space, k, vecs), len(vecs))
    return [vecs[p] for p in pivots]


def _dense_coords(field, space, k, basis, v):
    """Coordinates of a degree-k vector on the given columns by ``dense_solve``, or None."""
    rhs = [v.get(i, field.zero) for i in _positions(space, k)]
    return dense_solve(field, _dense_cols(field, space, k, basis), len(basis), rhs)


def table_product(A, u, v):
    """The sum of u_i v_j A.table[(i, j)], over every pair of terms of u and v."""
    f = A.field
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            for k, c in A.table.get((i, j), {}).items():
                out[k] = f.add(out.get(k, f.zero), f.mul(f.mul(a, b), c))
    return {k: x for k, x in out.items() if not f.is_zero(x)}


def dense_tensor(A, B):
    """``(space, unit, table, dcols)`` of A (x) B, straight from the definition.

    The basis is a@b over pairs of basis elements, left factor major within
    a degree, laid out by ``bucketed_space``.  The unit is 1@1, the product is
    (a@b)(a'@b') = (-1)^{|b||a'|} aa'@bb' and d(a@b) = d(a)@b + (-1)^{|a|} a@d(b),
    each summed term by term on every pair.
    """
    f = A.field
    space, pairs = bucketed_space(
        (A.degree_of(i) + B.degree_of(j), f"{A.label_of(i)}@{B.label_of(j)}", (i, j))
        for i in range(A.dim) for j in range(B.dim))
    index = {pair: t for t, pair in enumerate(pairs)}

    def tensor(u, v, scale):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                c = f.mul(f.mul(scale, a), b)
                if not f.is_zero(c):
                    out[index[(i, j)]] = c
        return out

    one = f.one

    def sign(m, n):
        return one if ksign(m, n) > 0 else f.neg(one)

    table, dcols = {}, {}
    for s, (i1, j1) in enumerate(pairs):
        for t, (i2, j2) in enumerate(pairs):
            out = tensor(table_product(A, {i1: one}, {i2: one}), table_product(B, {j1: one}, {j2: one}),
                         sign(B.degree_of(j1), A.degree_of(i2)))
            if out:
                table[(s, t)] = out
        col = tensor(A.dcols.get(i1, {}), {j1: one}, one)
        add_into(f, col, tensor({i1: one}, B.dcols.get(j1, {}), sign(A.degree_of(i1), 1)))
        if col:
            dcols[s] = col
    return space, tensor(A.unit, B.unit, one), table, dcols


def dense_candidates(A):
    """The degree-0 basis elements that square to themselves, in flat order."""
    one = A.field.one
    return [{i: one} for i in range(A.dim)
            if A.degree_of(i) == 0 and table_product(A, {i: one}, {i: one}) == {i: one}]


def bucketed_space(entries):
    """``(space, keys)`` for ``(degree, label, key)`` entries: buckets by degree, laid out ascending."""
    buckets: dict = {}
    for k, label, key in entries:
        buckets.setdefault(k, []).append((label, key))
    space = GradedVectorSpace({k: len(v) for k, v in buckets.items()},
                              {k: tuple(label for label, _ in v) for k, v in buckets.items()})
    return space, [key for k in sorted(buckets) for _, key in buckets[k]]


def bucketed_numbered(prefix, entries):
    """``(space, keys)`` for ``(degree, key)`` entries, labelled ``{prefix}{k}_{i}`` per bucket."""
    buckets: dict = {}
    for k, key in entries:
        buckets.setdefault(k, []).append(key)
    dims = {k: len(v) for k, v in buckets.items()}
    labels = {k: tuple(f"{prefix}{k}_{i}" for i in range(m)) for k, m in dims.items()}
    return GradedVectorSpace(dims, labels), [key for k in sorted(buckets) for key in buckets[k]]


def _ideal(A, g):
    """Nonzero products e_k * g grouped by degree, k ascending within a degree."""
    one = A.field.one
    return _by_degree(A.space, [table_product(A, {k: one}, g) for k in range(A.dim)] if g else [])


def dense_containment(A, e):
    """(ideal_dims, span_dims, contained, witness) for A*e against A*d(e), densely."""
    f = A.field
    ae, ade = _ideal(A, e), _ideal(A, A.d_apply(e))
    witness = next((v for k, vs in ae.items() for v in vs
                    if _dense_coords(f, A.space, k, ade.get(k, []), v) is None), None)
    ideal_dims = {k: len(_dense_picks(f, A.space, k, vs)) for k, vs in ae.items()}
    span_dims = {k: len(_dense_picks(f, A.space, k, vs)) for k, vs in ade.items()}
    return ideal_dims, span_dims, witness is None, witness


def dense_realization(A):
    """The structure theorem's data for A, by the route it took with subspace solvers.

    Returns a dict: every candidate's containment result, the chosen index
    (None when every candidate is contained), and for that choice L's dims,
    labels and d columns plus ``lmaps[a]``, the columns of left
    multiplication by e_a on L.
    """
    f, one = A.field, A.field.one
    cands = dense_candidates(A)
    certs = [dense_containment(A, e) for e in cands]
    index = next((i for i, c in enumerate(certs, 1) if not c[2]), None)
    out = {"certs": certs, "index": index}
    if index is None:
        return out
    e = cands[index - 1]
    ae, ade = _ideal(A, e), _ideal(A, A.d_apply(e))
    cosets: dict = {}  # degree -> (N's basis, (M position, vector) of each representative)
    for k in sorted(set(ae) | set(ade)):
        M = _dense_picks(f, A.space, k, ae.get(k, []) + ade.get(k, []))
        N = _dense_picks(f, A.space, k, ade.get(k, []))
        W = [_dense_coords(f, A.space, k, M, v) for v in N]  # N in M coordinates
        rows = [tuple(w[r] for w in W) + tuple(one if c == r else f.zero for c in range(len(M)))
                for r in range(len(M))]
        _, pivots = dense_rref(f, rows, len(N) + len(M))
        cosets[k] = (N, [(p - len(N), M[p - len(N)]) for p in pivots if p >= len(N)])
    flat = [(k, r, v) for k, (_, rs) in cosets.items() for r, v in rs]
    start = {k: next((s for s, x in enumerate(flat) if x[0] == k), None) for k in cosets}

    def project(v):
        """Coordinates of v in M on the representatives, modulo N."""
        if not v:
            return {}
        k = A.space.degree_of(min(v))
        N, rs = cosets.get(k, ([], []))
        sol = _dense_coords(f, A.space, k, N + [r for _, r in rs], v)
        assert sol is not None, "outside M"
        return {start[k] + q: c for q, c in enumerate(sol[len(N):]) if not f.is_zero(c)}

    dcols = {}
    for s, (_, _, v) in enumerate(flat):
        img = project(A.d_apply(v))
        if img:
            dcols[s] = img
    lmaps = {}
    for a in range(A.dim):
        lmaps[a] = {}
        for s, (_, _, v) in enumerate(flat):
            img = project(table_product(A, {a: one}, v))
            if img:
                lmaps[a][s] = img
    out.update(dims={k: len(rs) for k, (_, rs) in cosets.items() if rs},
               labels=tuple(f"m{k}_{r}" for k, r, _ in flat), dcols=dcols, lmaps=lmaps)
    return out


def dense_homology(A):
    """(dims, table, unit) of H(A) from the pivots of [B | Z] per degree.

    Z is the dense kernel basis of each block of d (free variables 1), B the
    images d(e_j) at the pivot columns j of the block below; the product of
    two representatives is solved on [B | reps] by ``dense_solve``.
    """
    f = A.field
    Z: dict = {}
    B: dict = {}
    for k in A.space.degrees():
        src = _positions(A.space, k)
        tgt = _positions(A.space, k + 1)
        rows = [tuple(A.dcols.get(j, {}).get(i, f.zero) for j in src) for i in tgt]
        basis, pivots = dense_kernel_basis(f, rows, len(src))
        Z[k] = [{src[r]: x for r, x in enumerate(v) if not f.is_zero(x)} for v in basis]
        if pivots:
            B[k + 1] = [A.dcols[src[p]] for p in pivots]
    reps: dict = {}
    for k, zs in Z.items():
        bs = B.get(k, [])
        _, pivots = dense_rref(f, _dense_cols(f, A.space, k, bs + zs), len(bs) + len(zs))
        picked = [zs[p - len(bs)] for p in pivots if p >= len(bs)]
        if picked:
            reps[k] = picked
    flat = [(k, v) for k, vs in reps.items() for v in vs]
    start = {k: next(s for s, x in enumerate(flat) if x[0] == k) for k in reps}

    def project(v):
        if not v:
            return {}
        k = A.space.degree_of(min(v))
        bs = B.get(k, [])
        sol = _dense_coords(f, A.space, k, bs + reps.get(k, []), v)
        assert sol is not None, "not a cycle"
        return {start[k] + q: c for q, c in enumerate(sol[len(bs):]) if not f.is_zero(c)}

    table = {}
    for i, (_, u) in enumerate(flat):
        for j, (_, v) in enumerate(flat):
            img = project(table_product(A, u, v))
            if img:
                table[(i, j)] = img
    unit = project(A.unit) if flat else {}
    return {k: len(v) for k, v in reps.items()}, table, unit


def dense_span_member(field, n, vecs):
    """A test of membership in the span of sparse vectors of length n, by ``dense_rref``."""
    R, pivots = dense_rref(field, [tuple(u.get(i, field.zero) for i in range(n)) for u in vecs], n)

    def member(v):
        row = [v.get(i, field.zero) for i in range(n)]
        for r, pc in enumerate(pivots):
            c = row[pc]
            if not field.is_zero(c):
                row = [field.sub(x, field.mul(c, y)) for x, y in zip(row, R[r])]
        return all(field.is_zero(x) for x in row)
    return member


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


def _dense_matrix(field, cols, nrows, ncols):
    """Sparse columns ``{col: {row: value}}`` as dense rows."""
    return [[cols.get(c, {}).get(r, field.zero) for c in range(ncols)] for r in range(nrows)]


def _dense_product(field, X, Y):
    """The matrix product X Y of dense rows."""
    return [[functools.reduce(field.add, (field.mul(x, Y[k][c]) for k, x in enumerate(row)), field.zero)
             for c in range(len(Y[0]))] for row in X]


def dense_hom_differential(H):
    """The columns of d on the units of H = Hom(C, D), as dense matrix products.

    Unit t = (mi, nj) is the matrix E with one entry 1 at row nj, column mi;
    d(E) = d_D E - (-1)^|E| E d_C is read back entry by entry through
    ``H.unit_index``.
    """
    f = H.field
    m, n = H.source.space.total_dim, H.target.space.total_dim
    dC = _dense_matrix(f, H.source.dcols, m, m)
    dD = _dense_matrix(f, H.target.dcols, n, n)
    out = {}
    for t, (mi, nj) in enumerate(H.units):
        E = _dense_matrix(f, {mi: {nj: f.one}}, n, m)
        left, right = _dense_product(f, dD, E), _dense_product(f, E, dC)
        combine = f.sub if ksign(H.space.degree_of(t), 1) > 0 else f.add
        col = {H.unit_index[(c, r)]: combine(left[r][c], right[r][c]) for r in range(n) for c in range(m)}
        col = {u: x for u, x in col.items() if not f.is_zero(x)}
        if col:
            out[t] = col
    return out


def full_iso_checks(A, B, m):
    """The ``IsoChecks`` of a degree-0 map, with every basis pair multiplied out."""
    f = A.field
    cols = m.flat_columns()
    empty: dict = {}
    failures = []

    is_hom = True
    for i in range(A.dim):
        ci = cols.get(i, empty)
        for j in range(A.dim):
            lhs = apply(f, cols, A.table.get((i, j), empty))
            rhs = table_product(B, ci, cols.get(j, empty))
            if lhs != rhs:
                is_hom = False
                if len(failures) < 8:
                    failures.append(("product", A.label_of(i), A.label_of(j)))

    is_unital = apply(f, cols, A.unit) == B.unit
    if not is_unital and len(failures) < 8:
        failures.append(("unit",))

    commutes = True
    for i in range(A.dim):
        if apply(f, cols, A.dcols.get(i, empty)) != B.d_apply(cols.get(i, empty)):
            commutes = False
            if len(failures) < 8:
                failures.append(("differential", A.label_of(i)))

    bijective = m.inverse() is not None
    if not bijective and len(failures) < 8:
        failures.append(("bijectivity",))

    return IsoChecks(is_hom, is_unital, commutes, bijective, tuple(failures))
