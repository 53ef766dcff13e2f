"""Seeded job streams for the three benchmark workloads, and how to run a job.

A workload turns a seed into a stream of plain-data job specs
(``generate``), builds the package-side inputs once (``prepare``: the
catalog factor algebras, the JSON files), and runs one spec
(``run``), returning a deterministic record of every verdict and output.
A job whose answer disagrees with an oracle raises ``JobFailed``.

Streams are stratified: each block of ``len(BLOCK)`` jobs has the same
composition of job classes, shuffled within the block, so the seed changes
which factors, gradings and files a run sees but not the share of cheap and
expensive jobs.  That keeps medians comparable across seeds.

The package is reached only through the ``lib`` namespace of freshly
imported modules, so a traced run sees every call through the wrappers.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys

import oracles

PRIME = 10007


class JobFailed(Exception):
    """A job's answer disagreed with an oracle or its expected exit code."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise JobFailed(what)


def _dims(space) -> dict:
    return {int(k): int(v) for k, v in dict(space.dims).items() if v}


def _blocks(rng: random.Random, block, nblocks: int):
    """``nblocks`` shuffled copies of ``block``, concatenated."""
    out = []
    for _ in range(nblocks):
        b = list(block)
        rng.shuffle(b)
        out.extend(b)
    return out


# -- tensor-powers --------------------------------------------------------------

FACTOR_DIMS = {
    "neutral": 1, "dual-numbers": 2, "split-pair": 2, "mat2-inner": 4,
    "mat2-graded": 4, "mat2-flat": 4, "quaternions": 4,
}
ACYCLIC = {"dual-numbers", "mat2-inner"}


class TensorPowers:
    """Tensor 2-6 catalog factors over QQ; homology, kernel, center, Kunneth."""

    name = "tensor-powers"
    # which factors a job tensors sets its cost, so every block holds the
    # same factor multisets and the seed orders the factors of each job and
    # the jobs of each block.  Dim 16 and 32, all seven catalog factors,
    # acyclic products (homology zero) and d = 0 ones (homology with a
    # product to check).
    BLOCK = [
        ("dual-numbers",) * 4,
        ("dual-numbers", "mat2-graded", "split-pair"),
        ("dual-numbers", "mat2-inner", "split-pair"),
        ("mat2-inner", "mat2-graded"),
        ("mat2-inner", "mat2-flat"),
        ("mat2-inner", "mat2-inner", "neutral"),
        ("dual-numbers", "dual-numbers", "mat2-flat"),
        ("dual-numbers", "split-pair", "split-pair", "split-pair"),
        ("dual-numbers", "mat2-flat", "neutral", "split-pair"),
        ("mat2-inner", "split-pair", "split-pair"),
        ("dual-numbers", "dual-numbers", "split-pair", "split-pair"),
        ("mat2-inner", "dual-numbers", "dual-numbers"),
        ("mat2-inner", "quaternions"),
        ("dual-numbers", "quaternions", "split-pair"),
        # dual^5 three times: its cost does not depend on factor order, and
        # with mat2-inner^2 (x) dual it is the top 18% of a block, where p90 sits
        ("dual-numbers",) * 5,
        ("dual-numbers",) * 5,
        ("dual-numbers",) * 5,
        ("mat2-inner", "mat2-inner", "dual-numbers"),
        ("dual-numbers", "mat2-flat", "mat2-graded"),
        ("dual-numbers", "dual-numbers", "mat2-flat", "split-pair"),
        ("mat2-graded", "mat2-graded"),
        ("mat2-flat", "split-pair", "split-pair", "neutral"),
    ]

    def generate(self, seed: int, nblocks: int):
        rng = random.Random(seed)
        out = []
        for factors in _blocks(rng, self.BLOCK, nblocks):
            factors = list(factors)
            rng.shuffle(factors)
            dim = 1
            for n in factors:
                dim *= FACTOR_DIMS[n]
            acyclic = any(n in ACYCLIC for n in factors)
            out.append({"kind": f"tensor-{dim}-{'acyclic' if acyclic else 'closed'}",
                        "field": "QQ", "dim": dim, "factors": factors})
        return out

    def prepare(self, lib, specs, workdir):
        algs = dict(lib.catalog.generators(lib.fields.QQ))
        hdims = {n: oracles.homology_dims(0, algs[n].space.flat_degrees(), algs[n].dcols)
                 for n in FACTOR_DIMS}
        return {"factors": algs, "hdims": hdims}

    def run(self, lib, ctx, spec):
        dg = lib.dg
        algs = [ctx["factors"][n] for n in spec["factors"]]
        prefix = algs[0]
        for a in algs[1:-1]:
            prefix = dg.tensor_product(prefix, a)
        T = dg.tensor_product(prefix, algs[-1])
        rep = dg.is_tgr_semisimple(T)
        H = dg.homology(T)
        K = dg.kernel_subalgebra(T)
        Z = dg.center(T)
        kr = lib.brauer.kunneth_check(prefix, algs[-1])

        degrees = T.space.flat_degrees()
        expect_h = oracles.convolve(ctx["hdims"][n] for n in spec["factors"])
        cycles = oracles.cycle_dims(0, degrees, T.dcols)
        check(T.dim == spec["dim"], "tensor dimension")
        check(oracles.homology_dims(0, degrees, T.dcols) == expect_h,
              "rank-nullity homology of d disagrees with the Kunneth convolution")
        check(_dims(H.space) == expect_h, "homology dims differ from the Kunneth convolution")
        check(_dims(K.algebra.space) == cycles, "kernel dims differ from rank-nullity")
        check(rep.homology_dims == expect_h and rep.kernel_dims == cycles,
              "tgr report dims")
        check(rep.acyclic == (not expect_h), "tgr acyclicity")
        check(bool(expect_h) <= (rep.verdict is False), "non-acyclic algebra called semisimple")
        check(kr.matches and kr.left == expect_h, "kunneth report")
        zcols = list(Z.inclusion.flat_columns().values())
        check(oracles.in_span(0, zcols, T.unit), "unit is not in the center")
        return ("tensor", tuple(spec["factors"]), sorted(expect_h.items()),
                sorted(cycles.items()), sorted(_dims(Z.space).items()), rep.verdict)


# -- matrix-witnesses -----------------------------------------------------------


class MatrixWitnesses:
    """Mat_n over GF(10007), good grading, d = [e12, -]: structure witnesses."""

    name = "matrix-witnesses"
    # n = 4 is the cheapest accepted job and holds the median; the three n = 5
    # jobs hold p90; "reject" uses z = e12 + e23 with f2 = 1, whose square is
    # not central
    BLOCK = [4] * 6 + [3] * 2 + [5] * 3 + ["reject"] * 5

    def generate(self, seed: int, nblocks: int):
        rng = random.Random(seed)
        out = []
        for cls in _blocks(rng, self.BLOCK, nblocks):
            reject = cls == "reject"
            n = rng.choice((3, 4, 5)) if reject else cls
            f = [1] + [rng.randint(-1, 1) for _ in range(n - 2)]
            if reject:
                f[1] = 1
            out.append({"kind": "reject" if reject else f"mat{n}", "field": f"GF({PRIME})",
                        "dim": n * n, "n": n, "f": f, "reject": reject})
        return out

    def prepare(self, lib, specs, workdir):
        return {"field": lib.fields.GF(PRIME)}

    def run(self, lib, ctx, spec):
        ma = lib.matrix_algebras
        n, f = spec["n"], tuple(spec["f"])
        A0 = ma.good_grading_matrix_algebra(ctx["field"], n, f)
        if spec["reject"]:
            try:
                ma.inner_differential(A0, A0.element({"e12": 1, "e23": 1}))
            except lib.errors.ValidationError as e:
                return ("reject", n, f, str(e))
            raise JobFailed("a z whose square is not central was accepted")
        A = ma.inner_differential(A0, A0.element({"e12": 1}))
        br = lib.brauer
        cs = br.is_central_simple(A)
        sr = br.structure_realize(A)
        w = lib.catalog.unit_equivalence_witness(A, sr)
        sandwich = br.sandwich_iso(A).verified if n <= 3 else None
        ldims = _dims(sr.L.space)
        check(cs is True, "Mat_n is central simple")
        check(sum(ldims.values()) ** 2 == A.dim, "(sum of dims of L)^2 != dim A")
        check(sr.witness.verified, "structure witness not verified")
        check(w.verified, "unit equivalence witness not verified")
        check(sandwich in (True, None), "sandwich witness not verified")
        return ("mat", n, f, sorted(ldims.items()), sr.idempotent.index, sandwich)


# -- cli-pipelines --------------------------------------------------------------

# verdicts of `check tgr-semisimple` on tensor products of two catalog factors;
# the same in every field used here (dual (x) dual over GF(2) is the package's
# documented non-closure example)
TGR_VERDICTS = {
    ("dual-numbers", "dual-numbers"): False,
    ("dual-numbers", "mat2-inner"): True,
    ("mat2-inner", "mat2-inner"): False,
    ("dual-numbers", "split-pair"): True,
    ("mat2-inner", "split-pair"): False,
    ("dual-numbers", "mat2-flat"): True,
    ("mat2-inner", "mat2-graded"): False,
}
SCENARIOS = ("dual-numbers", "dual-tensor-square-f2", "tensor-swap", "sandwich-mat2",
             "structure-mat2", "equivalence-unit", "kunneth")
FILE_OPS = ("op", "homology", "kernel", "center", "validate", "contracting")
MALFORMED = ("bad-index", "axiom-violation", "mixed-field")
MALFORMED_BASES = (("dual-numbers", "dual-numbers"), ("mat2-inner", "neutral"),
                   ("dual-numbers", "split-pair"), ("split-pair", "dual-numbers"))
FIELDS = {"QQ": ("rationals", None), f"GF({PRIME})": ("prime", PRIME), "GF(2)": ("prime", 2)}


def run_cli(lib, argv, stdin: str = ""):
    """dgbr.cli.main in process with stdin and stdout in memory."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lib.cli.main(list(argv))
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class CliPipelines:
    """dgbr.cli.main on README pipelines, file commands, catalog, bad files."""

    name = "cli-pipelines"
    # every class and every cost-setting parameter (matrix size and field,
    # file dim and field, scenario) appears once per block; the seed picks
    # gradings, the pipe-tensor pairs and fields, the malformed files and the
    # order
    BLOCK = ([("catalog", name) for name in SCENARIOS]
             + [("pipe-matrix", n, fld) for n in (2, 3, 4) for fld in ("QQ", f"GF({PRIME})")]
             + [("pipe-tensor", "GF(2)"), ("pipe-tensor", None)]
             + [("sandwich", 3, "QQ"), ("sandwich", 2, f"GF({PRIME})")]
             + [("file", op, dim, ("QQ", f"GF({PRIME})")[t % 2])
                for t, op in enumerate(FILE_OPS) for dim in (8, 16, 32, 64)]
             + [("malformed", defect) for defect in MALFORMED])
    # the generated algebra files: catalog tensor products, the same for every
    # seed, because their dims and factors set most of a block's cost; dim 8
    # has d = 0, the others are acyclic
    FILES = {
        8: ["mat2-flat", "split-pair"],
        16: ["dual-numbers", "mat2-graded", "split-pair"],
        32: ["dual-numbers", "mat2-inner", "mat2-graded"],
        64: ["mat2-inner", "mat2-flat", "split-pair", "split-pair"],
    }

    def generate(self, seed: int, nblocks: int):
        rng = random.Random(seed)
        out = []
        for cls, *param in _blocks(rng, self.BLOCK, nblocks):
            if cls == "file":
                op, dim, fld = param
                spec = {"kind": op, "dim": dim, "factors": self.FILES[dim]}
            elif cls == "pipe-matrix":
                n, fld = param
                spec = {"kind": cls, "n": n, "dim": n * n}
            elif cls == "pipe-tensor":
                # the README pipeline over GF(2), and a seeded pair over QQ or GF(p)
                fld = param[0] or rng.choice(("QQ", f"GF({PRIME})"))
                pair = (("dual-numbers", "dual-numbers") if param[0]
                        else rng.choice(sorted(TGR_VERDICTS)))
                spec = {"kind": cls, "factors": list(pair),
                        "dim": FACTOR_DIMS[pair[0]] * FACTOR_DIMS[pair[1]]}
            elif cls == "sandwich":
                n, fld = param
                spec = {"kind": cls, "n": n, "dim": n * n}
            elif cls == "catalog":
                spec = {"kind": cls, "scenario": param[0], "dim": None}
                fld = None
            else:
                fld = rng.choice(("QQ", f"GF({PRIME})"))
                spec = {"kind": cls, "defect": param[0], "dim": 4,
                        "factors": list(rng.choice(MALFORMED_BASES))}
            if "n" in spec:
                spec["f"] = [1] + [rng.randint(-1, 1) for _ in range(spec["n"] - 2)]
            spec["field"] = fld
            out.append(spec)
        return out

    def prepare(self, lib, specs, workdir):
        """Write each file the specs name once; keep the factors' homology dims."""
        gens = {}
        files = {}
        hdims = {}

        def write(key, text):
            path = os.path.join(workdir, f"a{len(files)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            files[key] = (path, text)

        def factors_of(fld):
            if fld not in gens:
                p = FIELDS[fld][1]
                gens[fld] = dict(lib.catalog.generators(lib.fields.GF(p) if p else lib.fields.QQ))
            return gens[fld]

        def algebra_file(fld, names):
            key = (fld, tuple(names))
            if key not in files:
                g = factors_of(fld)
                A = g[names[0]]
                for n in names[1:]:
                    A = lib.dg.tensor_product(A, g[n])
                write(key, lib.formats.serialize_algebra(A))
                for n in names:
                    hdims.setdefault((fld, n), oracles.homology_dims(
                        FIELDS[fld][1] or 0, g[n].space.flat_degrees(), g[n].dcols))
            return files[key]

        for s in specs:
            fld = s["field"]
            if s["kind"] in FILE_OPS:
                algebra_file(fld, s["factors"])
            elif s["kind"] == "pipe-tensor":
                for n in s["factors"]:
                    algebra_file(fld, [n])
            elif s["kind"] == "sandwich":
                key = (fld, "mat", s["n"], tuple(s["f"]))
                if key not in files:
                    ma = lib.matrix_algebras
                    A = ma.good_grading_matrix_algebra(factors_of(fld)["neutral"].field,
                                                       s["n"], tuple(s["f"]))
                    write(key, lib.formats.serialize_algebra(
                        ma.inner_differential(A, A.element({"e12": 1}))))
            elif s["kind"] == "malformed":
                key = (fld, tuple(s["factors"]), s["defect"])
                if key not in files:
                    write(key, _break(algebra_file(fld, s["factors"])[1], s["defect"]))
        return {"files": files, "hdims": hdims}

    def run(self, lib, ctx, spec):
        kind, fld = spec["kind"], spec["field"]
        if kind in FILE_OPS:
            return self._file_op(lib, ctx, spec)
        if kind == "pipe-matrix":
            field_kind, p = FIELDS[fld]
            argv = ["matrix", "-n", str(spec["n"]), "--inner", "e12", "--field", field_kind,
                    "--good-grading=" + ",".join(map(str, spec["f"]))]
            if p:
                argv += ["--prime", str(p)]
            rc1, a_txt, _ = run_cli(lib, argv)
            rc2, l_txt, _ = run_cli(lib, ["structure", "-", "--emit-complex"], a_txt)
            rc3, e_txt, _ = run_cli(lib, ["end", "-"], l_txt)
            rc4, verdict, _ = run_cli(lib, ["check", "central-simple", "-"], e_txt)
            check((rc1, rc2, rc3, rc4) == (0, 0, 0, 0), f"pipeline exit codes {rc1, rc2, rc3, rc4}")
            n2 = spec["n"] ** 2
            check(len(oracles.AlgebraData(a_txt).labels) == n2, "matrix dim")
            ldim = len(oracles.AlgebraData(l_txt).labels)
            check(ldim ** 2 == n2, "(dim L)^2 != dim A")
            check(len(oracles.AlgebraData(e_txt).labels) == n2, "End(L) dim")
            check(verdict.strip() == "central simple: True", "End(L) not central simple")
            return (kind, fld, spec["n"], tuple(spec["f"]), _digest(a_txt + l_txt + e_txt), verdict)
        if kind == "pipe-tensor":
            a, b = (ctx["files"][(fld, (n,))][0] for n in spec["factors"])
            rc1, t_txt, _ = run_cli(lib, ["tensor", a, b])
            rc2, rep, _ = run_cli(lib, ["check", "tgr-semisimple", "--json", "-"], t_txt)
            expect = TGR_VERDICTS[tuple(spec["factors"])]
            check((rc1, rc2) == (0, 0 if expect else 1), f"tensor | check exit codes {rc1, rc2}")
            T = oracles.AlgebraData(t_txt)
            payload = json.loads(rep)
            expect_h = oracles.convolve(ctx["hdims"][(fld, n)] for n in spec["factors"])
            check(oracles.homology_dims(T.p, T.degrees, T.dcols) == expect_h,
                  "rank-nullity homology of the tensor vs Kunneth")
            check(_intkeys(payload["homology_dims"]) == expect_h, "reported homology dims")
            check(_intkeys(payload["kernel_dims"]) == oracles.cycle_dims(T.p, T.degrees, T.dcols),
                  "reported kernel dims vs rank-nullity")
            return (kind, fld, tuple(spec["factors"]), _digest(t_txt), rep)
        if kind == "sandwich":
            path, _ = ctx["files"][(fld, "mat", spec["n"], tuple(spec["f"]))]
            rc, rep, _ = run_cli(lib, ["sandwich", "--json", path])
            payload = json.loads(rep)
            check(rc == 0 and payload["verified"] and payload["is_bijective"],
                  "sandwich witness not verified")
            return (kind, fld, spec["n"], tuple(spec["f"]), rep)
        if kind == "catalog":
            rc, out, _ = run_cli(lib, ["catalog", spec["scenario"]])
            check(rc == 0 and out.rstrip().endswith("result: ok"), f"catalog {spec['scenario']}")
            return (kind, spec["scenario"], out)
        path, _ = ctx["files"][(fld, tuple(spec["factors"]), spec["defect"])]
        rc, out, err = run_cli(lib, ["validate", path])
        check(rc == 2 and not out and err.startswith("invalid input"),
              f"malformed file ({spec['defect']}) gave exit {rc}")
        # the message names the file, whose directory differs between runs
        return (kind, fld, spec["defect"], err.replace(path, "FILE"))

    def _file_op(self, lib, ctx, spec):
        kind, fld = spec["kind"], spec["field"]
        path, text = ctx["files"][(fld, tuple(spec["factors"]))]
        src = oracles.AlgebraData(text)
        p = src.p
        json_flag = ["--json"] if kind in ("center", "validate", "contracting") else []
        rc, out, _ = run_cli(lib, [kind, *json_flag, path])
        if kind == "contracting":
            # d(z) = 1 is solvable exactly when the unital algebra is acyclic
            acyclic = not oracles.homology_dims(p, src.degrees, src.dcols)
            payload = json.loads(out)
            check(rc == (0 if acyclic else 1) and payload["found"] == acyclic,
                  f"contracting exit code {rc} for an algebra with acyclic={acyclic}")
            if acyclic:
                check(payload["certified"] and _intkeys(payload["kernel_dims"])
                      == oracles.cycle_dims(p, src.degrees, src.dcols), "contracting kernel dims")
            return (kind, fld, spec["dim"], out)
        check(rc == 0, f"{kind} exit code {rc}")
        if kind == "validate":
            payload = json.loads(out)
            check(payload["total_dim"] == spec["dim"] and _intkeys(payload["dims"]) == src.dims,
                  "validate dims")
            return (kind, fld, spec["dim"], out)
        if kind == "center":
            payload = json.loads(out)
            expect = oracles.center_dims(p, src.degrees, src.table)
            check(_intkeys(payload["dims"]) == expect, "center dims vs the commutator system")
            return (kind, fld, spec["dim"], out)
        res = oracles.AlgebraData(out)
        if kind == "op":
            check(oracles.opposite_matches(p, src, res), "op is not the signed transpose")
        elif kind == "homology":
            expect = oracles.convolve(ctx["hdims"][(fld, n)] for n in spec["factors"])
            check(res.dims == expect and not res.dcols, "homology dims vs Kunneth")
            check(oracles.homology_dims(p, src.degrees, src.dcols) == expect,
                  "rank-nullity vs Kunneth")
        else:
            check(res.dims == oracles.cycle_dims(p, src.degrees, src.dcols),
                  "kernel dims vs rank-nullity")
        return (kind, fld, spec["dim"], _digest(out))


def _intkeys(d: dict) -> dict:
    return {int(k): v for k, v in d.items() if v}


def _break(text: str, defect: str) -> str:
    """A malformed copy of an algebra file; each defect must exit 2."""
    obj = json.loads(text)
    n = len(obj["basis"])
    if defect == "bad-index":
        obj["mult"][0]["out"][0][0] = n + 7
    elif defect == "axiom-violation":
        # doubling the unit's coefficient breaks the unit axiom
        obj["unit"] = [[i, "2"] for i, _ in obj["unit"]]
    else:
        # rational syntax in a prime-field file (the converse is accepted)
        obj["field"] = {"kind": "prime", "p": PRIME}
        obj["unit"] = [[i, "1/2"] for i, _ in obj["unit"]]
    return json.dumps(obj, indent=2) + "\n"


WORKLOADS = {w.name: w for w in (TensorPowers(), MatrixWitnesses(), CliPipelines())}
