"""Tests of the benchmark itself: seeded generation, oracles, spans.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, run.SRC)

# layer -> the workload the benchmark's layer table says it should move; each
# traced name must show up (a span with time, or a nonzero count) there
EXPECTED = {
    "tensor-powers": [
        "fields.coerce_calls", "fields.inv_calls", "dg.mul_calls", "linalg.rref_calls",
        "linalg.solve_calls", "linalg.matrix_new_calls", "linalg.rref_self_s",
        "linalg.solve_self_s", "linalg.matrix_new_self_s", "dg.validate_self_s",
        "dg.tensor_product_self_s", "dg.homology_self_s", "dg.kernel_subalgebra_self_s",
        "dg.center_self_s", "dg.semisimple_self_s", "brauer.kunneth_self_s",
    ],
    "matrix-witnesses": [
        "linalg.rref_cells", "graded.quotient_by_self_s", "graded.map_inverse_self_s",
        "graded.flat_columns_calls", "dg.opposite_self_s", "homs.end_dg_algebra_self_s",
        "homs.from_map_calls", "homs.from_map_self_s", "matrix_algebras.build_self_s",
        "brauer.is_central_simple_self_s", "brauer.structure_realize_self_s",
        "brauer.sandwich_iso_self_s", "brauer.verify_dg_iso_self_s",
        "brauer.idempotent_useful_ratio",
    ],
    "cli-pipelines": [
        "formats.parse_self_s", "formats.serialize_self_s", "formats.bytes_in",
        "formats.bytes_out", "cli.main_self_s", "cli.rejected_inputs",
        "catalog.scenario_self_s", "dg.validate_calls", "dg.validation_rejects",
        # contracting_element is the only caller of kernel_of
        "graded.kernel_of_self_s",
    ],
}


@pytest.fixture(scope="module")
def lib():
    return run.import_dgbr()


def prepared(lib, name, specs, tmp_path):
    wl = WORKLOADS[name]
    return wl, wl.prepare(lib, specs, str(tmp_path))


def failed_ratio(wl, lib, ctx, specs) -> float:
    p = run.run_fixed(wl, lib, ctx, specs)
    return p.failed / len(p.latencies)


def replaced(lib, module: str, **overrides):
    """A copy of ``lib`` whose ``module`` returns injected wrong answers."""
    mod = types.SimpleNamespace(**vars(getattr(lib, module)))
    for k, v in overrides.items():
        setattr(mod, k, v)
    return types.SimpleNamespace(**{**vars(lib), module: mod})


def pick(name, kinds, count=2, seed=1):
    specs = WORKLOADS[name].generate(seed, 4)
    out = []
    for kind in kinds:
        out += [s for s in specs if s["kind"] == kind][:count]
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    wl = WORKLOADS[name]
    assert wl.generate(7, 3) == wl.generate(7, 3)
    assert wl.generate(7, 3) != wl.generate(8, 3)
    # every block holds the same mix of job kinds
    specs = wl.generate(7, 3)
    n = len(wl.BLOCK)
    mixes = [sorted(s["kind"] for s in specs[b * n:(b + 1) * n]) for b in range(3)]
    assert mixes[0] == mixes[1] == mixes[2]


def test_tensor_oracles_flag_wrong_answers(lib, tmp_path):
    specs = pick("tensor-powers", ["tensor-16-acyclic", "tensor-16-closed"])
    wl, ctx = prepared(lib, "tensor-powers", specs, tmp_path)
    assert failed_ratio(wl, lib, ctx, specs) == 0
    dg, br, graded = lib.dg, lib.brauer, lib.graded
    pair = lib.catalog.split_pair(lib.fields.QQ)
    wrong_h = replaced(lib, "dg", homology=lambda A: dg.homology(pair))
    assert failed_ratio(wl, wrong_h, ctx, specs) == 1

    def no_center(A):
        z = dg.center(A)
        return graded.Subspace(z.space, graded.HomogeneousMap.zero(A.field, z.space, A.space))

    assert failed_ratio(wl, replaced(lib, "dg", center=no_center), ctx, specs) == 1
    wrong_k = replaced(lib, "brauer", kunneth_check=lambda A, B: br.KunnethReport(
        {0: 1}, {0: 1}, True))
    assert failed_ratio(wl, wrong_k, ctx, specs) == 1
    wrong_ker = replaced(lib, "dg", kernel_subalgebra=lambda A: dg.kernel_subalgebra(
        dg.tensor_product(A, pair)))
    assert failed_ratio(wl, wrong_ker, ctx, specs) == 1


def _unverified(w):
    return dataclasses.replace(w, checks=dataclasses.replace(w.checks, is_bijective=False))


def test_matrix_oracles_flag_wrong_answers(lib, tmp_path):
    specs = pick("matrix-witnesses", ["mat3", "mat4", "reject"], count=1)
    wl, ctx = prepared(lib, "matrix-witnesses", specs, tmp_path)
    assert failed_ratio(wl, lib, ctx, specs) == 0
    br, ma = lib.brauer, lib.matrix_algebras
    bad_sr = replaced(lib, "brauer", structure_realize=lambda A: dataclasses.replace(
        br.structure_realize(A), witness=_unverified(br.structure_realize(A).witness)))
    assert failed_ratio(wl, bad_sr, ctx, specs) > 0
    bad_sw = replaced(lib, "brauer", sandwich_iso=lambda A: _unverified(br.sandwich_iso(A)))
    assert failed_ratio(wl, bad_sw, ctx, specs[:1]) == 1
    accepts = replaced(lib, "matrix_algebras", inner_differential=lambda A, z: (
        ma.inner_differential(A, A.element({"e12": 1}))))
    assert failed_ratio(wl, accepts, ctx, specs[2:]) == 1


def test_cli_oracles_flag_wrong_exit_codes_and_outputs(lib, tmp_path):
    specs = pick("cli-pipelines", ["malformed", "pipe-tensor", "homology", "kernel", "op",
                                   "center", "contracting", "validate"], count=4)
    wl, ctx = prepared(lib, "cli-pipelines", specs, tmp_path)
    assert failed_ratio(wl, lib, ctx, specs) == 0
    main = lib.cli.main
    flipped = replaced(lib, "cli", main=lambda argv: main(argv) ^ 1)
    assert failed_ratio(wl, flipped, ctx, specs) == 1

    # homology answered with the kernel: wrong whenever d is not zero
    acyclic = [s for s in specs if s["kind"] == "homology" and s["dim"] > 8]
    wrong = replaced(lib, "cli", main=lambda argv: main(
        ["kernel", *argv[1:]] if argv[0] == "homology" else argv))
    assert failed_ratio(wl, wrong, ctx, acyclic) == 1


def test_digest_does_not_depend_on_the_work_directory(lib, tmp_path):
    wl = WORKLOADS["cli-pipelines"]
    specs = pick("cli-pipelines", ["malformed", "validate", "sandwich"], count=3)
    digests = []
    for sub in ("one", "two"):
        (tmp_path / sub).mkdir()
        ctx = wl.prepare(lib, specs, str(tmp_path / sub))
        digests.append(run.run_fixed(wl, lib, ctx, specs).digest)
    assert digests[0] == digests[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_layers_emit_on_their_workload(lib, tmp_path, name):
    wl = WORKLOADS[name]
    specs = wl.generate(1, 1)
    ctx = wl.prepare(lib, specs, str(tmp_path))
    plain, counted, traced, rec = run.traced_passes(wl, lib, ctx, specs)
    assert plain.digest == counted.digest == traced.digest
    assert plain.failed == 0
    metrics = tracing.layer_metrics(rec)
    silent = [m for m in EXPECTED[name] if not metrics[m][0] > 0]
    assert not silent, f"no span or count on {name}: {silent}"
    # wrappers are gone again
    assert lib.dg.homology.__module__ == "dgbr.dg" and not hasattr(lib.dg.homology, "__wrapped__")


def test_every_traced_name_is_expected_somewhere():
    names = {n + "_self_s" for n in tracing.span_names()}
    covered = {m for ms in EXPECTED.values() for m in ms}
    assert names <= covered


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tensor-powers", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
