#!/usr/bin/env python3
"""dgbr benchmark: seeded closed-loop workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload tensor-powers --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One caller in one process sends the next job when the previous one is
checked (closed loop, one client, no threads).

``--trace 0`` runs jobs for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed prefix of the same job stream three
times: untraced, with call counters on field arithmetic and products, and
with spans on every traced layer; it reports the per-layer metrics.  All
three passes must give the same output digest.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The line before it is a report with the job mix, sample counts,
failed_ratio and the output digests.  Exit code 0 means the run completed;
``correct`` says whether every answer passed its oracle.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
import types
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS, JobFailed  # noqa: E402

SETUP_REPEATS = 5
STREAM_BLOCKS = 60  # blocks of jobs generated per run; far more than a run completes
TRACE_MIN_JOBS = 20  # the traced run replays the fewest whole blocks holding this many
# Shared virtual machines can change speed by up to half within seconds,
# for every process alike.  A fixed pure-Python loop that never touches dgbr
# is timed around each job and before each set-up, and the reported times are
# scaled to a host on which that loop takes REF_NOMINAL_S.  The raw times are
# in the report line.
REF_NOMINAL_S = 0.005
MODULES = ("fields", "linalg", "graded", "dg", "homs", "matrix_algebras", "brauer",
           "formats", "catalog", "cli", "errors")


def reference_loop() -> None:
    s = Fraction(0)
    for i in range(1, 600):
        s += Fraction(1, i) * 3 % 7
    d: dict = {}
    for i in range(12000):
        d[i % 977] = d.get(i % 977, 0) + i


def host_scale() -> float:
    """REF_NOMINAL_S over the time the reference loop takes now."""
    t0 = perf_counter()
    reference_loop()
    return REF_NOMINAL_S / (perf_counter() - t0)


def import_dgbr():
    """A fresh import of every dgbr module (part of the timed set-up)."""
    for name in [m for m in sys.modules if m == "dgbr" or m.startswith("dgbr.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dgbr")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "dgbr"):
        raise ImportError(f"dgbr imported from {pkg.__file__}, not from {SRC}")
    mods = {m: importlib.import_module("dgbr." + m) for m in MODULES}
    return types.SimpleNamespace(all_modules=[pkg, *mods.values()], **mods)


def setup(wl, seed: int, workdir: str):
    """Returns the inputs and the median set-up time, raw and scaled."""
    lib = ctx = specs = None
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        scale = host_scale()
        t0 = perf_counter()
        lib = import_dgbr()
        specs = wl.generate(seed, STREAM_BLOCKS)
        ctx = wl.prepare(lib, specs, workdir)
        raw.append(perf_counter() - t0)
        scaled.append(raw[-1] * scale)
    return lib, ctx, specs, (statistics.median(raw), statistics.median(scaled))


def run_one(wl, lib, ctx, spec):
    """(ok, record); an unexpected exception is a failed job, not a crash."""
    try:
        return True, wl.run(lib, ctx, spec)
    except JobFailed as e:
        print(f"job failed: {spec}: {e}", file=sys.stderr)
        return False, ("failed", str(e))
    except Exception as e:  # noqa: BLE001 - any raise is counted as a failure
        print(f"job raised: {spec}:\n{traceback.format_exc()}", file=sys.stderr)
        return False, ("raised", type(e).__name__, str(e))


class Pass:
    """Latencies, failures and the running output digest of a job sequence."""

    def __init__(self):
        self.latencies: list = []  # raw seconds
        self.scaled: list = []  # seconds at the nominal host speed
        self.failed = 0
        self.sha = hashlib.sha256()
        self.prefix_digest = None
        self.wall = 0.0

    def add(self, ok: bool, record, latency: float, scale: float) -> None:
        self.latencies.append(latency)
        self.scaled.append(latency * scale)
        self.failed += not ok
        self.sha.update(repr(record).encode())
        self.sha.update(b"\n")

    @property
    def digest(self) -> str:
        return self.sha.hexdigest()


def trace_jobs(wl) -> int:
    block = len(wl.BLOCK)
    return -(-TRACE_MIN_JOBS // block) * block


def run_job(wl, lib, ctx, spec, p: Pass, rec=None) -> None:
    """Time one job from a clean heap: garbage left by earlier jobs is
    collected before the clock starts, so no job pays for another's."""
    gc.collect()
    before = host_scale()
    idx = rec.begin_job(len(p.latencies)) if rec is not None else None
    t0 = perf_counter()
    try:
        ok, record = run_one(wl, lib, ctx, spec)
    finally:
        t1 = perf_counter()
        if rec is not None:
            rec.close(idx)
    # the host can change speed during a long job: average both sides
    p.add(ok, record, t1 - t0, (before + host_scale()) / 2)


def run_timed(wl, lib, ctx, specs, seconds: float, prefix: int) -> Pass:
    """Closed loop: the next job starts when the previous one is checked.

    The run ends at the first block boundary after ``seconds``, so every
    run holds whole blocks and the same job mix.
    """
    p = Pass()
    start = perf_counter()
    deadline = start + seconds
    block = len(wl.BLOCK)
    i = 0
    while i % block or perf_counter() < deadline:
        run_job(wl, lib, ctx, specs[i % len(specs)], p)
        i += 1
        if i == prefix:
            p.prefix_digest = p.digest
    p.wall = perf_counter() - start
    return p


def run_fixed(wl, lib, ctx, specs, rec=None) -> Pass:
    p = Pass()
    start = perf_counter()
    for spec in specs:
        run_job(wl, lib, ctx, spec, p, rec)
    p.wall = perf_counter() - start
    return p


def block_rates(latencies, block: int) -> list:
    """Jobs per second of job time in each whole block.  The median of these
    moves less under a burst of load on the host than one overall rate."""
    return [block / sum(latencies[b:b + block]) for b in range(0, len(latencies), block)]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def job_mix(specs) -> dict:
    kinds: dict = {}
    fields: dict = {}
    dims = [s["dim"] for s in specs if s.get("dim")]
    for s in specs:
        kinds[s["kind"]] = kinds.get(s["kind"], 0) + 1
        f = s.get("field") or "catalog"
        fields[f] = fields.get(f, 0) + 1
    return {"kinds": dict(sorted(kinds.items())), "fields": dict(sorted(fields.items())),
            "min_dim": min(dims) if dims else None, "max_dim": max(dims) if dims else None}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_metrics(setup_s: float, times: list, block: int) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (statistics.median(block_rates(times, block)), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (percentile(times, 0.9), "s"),
    }


def end_to_end(wl, lib, ctx, specs, setup_s, args):
    prefix = trace_jobs(wl)
    p = run_timed(wl, lib, ctx, specs, args.seconds, prefix)
    n = len(p.latencies)
    block = len(wl.BLOCK)
    metrics = time_metrics(setup_s[1], p.scaled, block)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    raw = time_metrics(setup_s[0], p.latencies, block)
    report = {
        "workload": wl.name, "seed": args.seed, "trace": 0, "jobs": n,
        "samples_above_p90": n - math.ceil(0.9 * n),
        "failed_ratio": p.failed / n, "wall_s": p.wall,
        "block_rates": block_rates(p.scaled, block),
        "raw_metrics": {k: f"{v:.6g} {u}" for k, (v, u) in raw.items()},
        "host_scale_median": statistics.median(s / r for s, r in zip(p.scaled, p.latencies)),
        "digest": p.digest, "prefix_jobs": prefix, "prefix_digest": p.prefix_digest,
        "mix": job_mix([specs[i % len(specs)] for i in range(n)]),
    }
    return report, metrics, n, p.failed, p.failed == 0


def traced_passes(wl, lib, ctx, jobs):
    """The same jobs untraced, with call counters, and with spans."""
    plain = run_fixed(wl, lib, ctx, jobs)
    rec = tracing.Recorder()
    undo = tracing.install(lib, rec, counts_only=True)
    try:
        counted = run_fixed(wl, lib, ctx, jobs)
    finally:
        tracing.uninstall(undo)
    undo = tracing.install(lib, rec, counts_only=False)
    try:
        traced = run_fixed(wl, lib, ctx, jobs, rec)
    finally:
        tracing.uninstall(undo)
    return plain, counted, traced, rec


def per_layer(wl, lib, ctx, specs, setup_s, args):
    jobs = specs[:trace_jobs(wl)]
    plain, counted, traced, rec = traced_passes(wl, lib, ctx, jobs)
    metrics = tracing.layer_metrics(rec)
    metrics["trace_overhead_ratio"] = (sum(traced.scaled) / sum(plain.scaled), "ratio")
    passes = (plain, counted, traced)
    same = len({q.digest for q in passes}) == 1
    failed = max(q.failed for q in passes) if same else len(jobs)
    report = {
        "workload": wl.name, "seed": args.seed, "trace": 1, "jobs": len(jobs),
        "digest_untraced": plain.digest, "digest_counted": counted.digest,
        "digest_traced": traced.digest, "digests_equal": same, "spans": len(rec.spans),
        "wall_s": {"untraced": plain.wall, "counted": counted.wall, "traced": traced.wall},
        "mix": job_mix(jobs),
    }
    return report, metrics, len(jobs), failed, same and failed == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dgbr", "__init__.py")):
        print(f"error: no dgbr sources under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = WORKLOADS[args.workload]
    # a terminated run still removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        lib, ctx, specs, setup_s = setup(wl, args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        report, metrics, attempted, failed, correct = measure(wl, lib, ctx, specs, setup_s, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["metrics"] = {k: f"{v:.6g} {u}" for k, (v, u) in metrics.items()}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
