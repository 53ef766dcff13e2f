"""Independent checks behind the benchmark's failure count.

Nothing here imports dgbr.  Each oracle recomputes a fact about a job's
answer from raw structure data (degrees, differential columns, product
table) with its own elimination, so a wrong answer from the package under
test cannot also produce a matching oracle value.

Structure data is plain Python: ``p`` is 0 for the rationals (Fraction
arithmetic) or a prime; ``degrees`` lists the degree of each flat basis
index; ``dcols`` maps a basis index to its image ``{index: coefficient}``;
``table`` maps ``(i, j)`` to the product of basis elements i and j.
"""
from __future__ import annotations

import json
from fractions import Fraction


def _norm(p: int, x):
    return Fraction(x) if p == 0 else int(x) % p


def _inv(p: int, x):
    return 1 / x if p == 0 else pow(x, p - 2, p)


class Echelon:
    """Incrementally maintained row echelon basis over QQ (p = 0) or GF(p)."""

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, dict] = {}  # pivot column -> row with leading 1

    def reduce(self, vec: dict) -> dict:
        p = self.p
        v = {k: _norm(p, c) for k, c in vec.items()}
        v = {k: c for k, c in v.items() if c}
        for col in sorted(self.rows):
            c = v.get(col)
            if not c:
                continue
            for k, r in self.rows[col].items():
                x = v.get(k, 0) - c * r
                if p:
                    x %= p
                if x:
                    v[k] = x
                else:
                    v.pop(k, None)
        return v

    def add(self, vec: dict) -> bool:
        """Insert a vector; True when it was independent of the basis."""
        v = self.reduce(vec)
        if not v:
            return False
        lead = min(v)
        s = _inv(self.p, v[lead])
        self.rows[lead] = {k: (c * s) % self.p if self.p else c * s for k, c in v.items()}
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def rank(p: int, vectors) -> int:
    e = Echelon(p)
    for v in vectors:
        e.add(v)
    return e.rank


def in_span(p: int, vectors, vec: dict) -> bool:
    e = Echelon(p)
    for v in vectors:
        e.add(v)
    return not e.reduce(vec)


def d_ranks(p: int, degrees, dcols) -> dict:
    """Rank of d restricted to each degree (rank-nullity input)."""
    by_deg: dict[int, list] = {}
    for i, col in dcols.items():
        by_deg.setdefault(degrees[i], []).append(col)
    return {k: rank(p, cols) for k, cols in by_deg.items()}


def degree_dims(degrees) -> dict:
    out: dict = {}
    for d in degrees:
        out[d] = out.get(d, 0) + 1
    return out


def cycle_dims(p: int, degrees, dcols) -> dict:
    """dim ker d in each degree, by rank-nullity."""
    r = d_ranks(p, degrees, dcols)
    dims = {k: n - r.get(k, 0) for k, n in degree_dims(degrees).items()}
    return {k: v for k, v in dims.items() if v}


def homology_dims(p: int, degrees, dcols) -> dict:
    """dim H_k = dim A_k - rank d_k - rank d_(k-1)."""
    r = d_ranks(p, degrees, dcols)
    dims = {k: n - r.get(k, 0) - r.get(k - 1, 0) for k, n in degree_dims(degrees).items()}
    return {k: v for k, v in dims.items() if v}


def convolve(dim_dicts) -> dict:
    """Graded convolution of per-factor dimension dicts (Kunneth for fields)."""
    acc = {0: 1}
    for dims in dim_dicts:
        nxt: dict = {}
        for a, x in acc.items():
            for b, y in dims.items():
                nxt[a + b] = nxt.get(a + b, 0) + x * y
        acc = nxt
    return {k: v for k, v in acc.items() if v}


def center_dims(p: int, degrees, table) -> dict:
    """Dims of {x : x*e_j = e_j*x for every basis e_j}, degree by degree.

    The commutator x -> [x, e_j] is linear in x, so the rows of the system
    are indexed by (j, output index) and its columns by the degree-k basis.
    """
    n = len(degrees)
    dims = {}
    for k, nk in degree_dims(degrees).items():
        idx = [i for i in range(n) if degrees[i] == k]
        e = Echelon(p)
        rows: dict = {}
        for pos, s in enumerate(idx):
            for j in range(n):
                left = table.get((s, j), {})
                right = table.get((j, s), {})
                for m in set(left) | set(right):
                    c = _norm(p, left.get(m, 0)) - _norm(p, right.get(m, 0))
                    if p:
                        c %= p
                    if c:
                        rows.setdefault((j, m), {})[pos] = c
        for row in rows.values():
            if e.add(row) and e.rank == nk:
                break
        if nk - e.rank:
            dims[k] = nk - e.rank
    return dims


def opposite_matches(p: int, src: "AlgebraData", op: "AlgebraData") -> bool:
    """op's product is the signed transpose of src's, matched by label."""
    if sorted(zip(src.labels, src.degrees)) != sorted(zip(op.labels, op.degrees)):
        return False
    where = {lab: i for i, lab in enumerate(op.labels)}
    perm = [where[lab] for lab in src.labels]
    n = len(src.labels)
    for i in range(n):
        for j in range(n):
            expect = src.table.get((j, i), {})
            sign = -1 if (src.degrees[i] * src.degrees[j]) % 2 else 1
            expect = {perm[m]: _norm(p, sign * c) for m, c in expect.items()}
            got = op.table.get((perm[i], perm[j]), {})
            if {m: c for m, c in expect.items() if c} != {m: _norm(p, c) for m, c in got.items()}:
                return False
    return True


# -- reading the package's JSON outputs without the package -------------------


class AlgebraData:
    """An algebra or complex file read with json alone; indices as in the file."""

    __slots__ = ("p", "labels", "degrees", "unit", "table", "dcols")

    def __init__(self, text: str):
        obj = json.loads(text)
        fld = obj["field"]
        self.p = 0 if fld["kind"] == "rationals" else int(fld["p"])
        self.labels = [b["label"] for b in obj["basis"]]
        self.degrees = [int(b["degree"]) for b in obj["basis"]]
        self.unit = self._sparse(obj.get("unit", []))
        self.table = {(e["left"], e["right"]): self._sparse(e["out"]) for e in obj.get("mult", [])}
        self.dcols = {e["in"]: self._sparse(e["out"]) for e in obj.get("diff", [])}

    def _sparse(self, items) -> dict:
        out = {}
        for i, c in items:
            v = _norm(self.p, Fraction(c) if isinstance(c, str) else c)
            if v:
                out[int(i)] = v
        return out

    @property
    def dims(self) -> dict:
        return degree_dims(self.degrees)
