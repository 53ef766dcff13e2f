"""Spans and counters attached to dgbr from outside the package.

``install`` replaces each traced public function in every dgbr module
namespace that bound it (``brauer``, ``catalog`` and ``cli`` each import
``homology`` and ``tensor_product`` themselves), and traced methods on their
class.  ``uninstall`` puts the originals back.  Spans stay in memory until
the run ends; ``layer_metrics`` folds them into per-layer self times.

Hot field operations and ``DgAlgebra.mul`` are only counted, in a pass of
their own (``COUNT_TARGETS``), because a span per call would swamp the run.
"""
from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

JOB = "job"


class Recorder:
    """Spans as (name, start, end, parent index, job id), plus counters."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.job = None
        self.counts: Counter = Counter()
        self._solved: dict = {}  # id -> matrix, kept alive so ids stay unique

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, perf_counter(), None, self.stack[-1] if self.stack else -1,
                           self.job))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        name, t0, _, parent, job = self.spans[idx]
        self.spans[idx] = (name, t0, perf_counter(), parent, job)
        self.stack.pop()

    def begin_job(self, job_id) -> int:
        self.job = job_id
        self._solved.clear()
        return self.open(JOB)

    def solved(self, matrix) -> None:
        """Count distinct Matrix objects solved within one job."""
        if id(matrix) not in self._solved:
            self._solved[id(matrix)] = matrix
            self.counts["linalg.solve_distinct"] += 1


def _span(rec: Recorder, name: str, hook=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if hook is not None:
                hook(rec, args, result)
            return result
        return wrapper
    return deco


def _count(rec: Recorder, name: str):
    counts = rec.counts

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    return deco


# -- hooks: counters taken where the work happens --------------------------------


def _rref(rec, args, result):
    m = args[0]
    rec.counts["linalg.rref_calls"] += 1
    rec.counts["linalg.rref_cells"] += m.nrows * m.ncols


def _solve(rec, args, result):
    rec.counts["linalg.solve_calls"] += 1
    rec.solved(args[0])


def _counter(name):
    def hook(rec, args, result):
        rec.counts[name] += 1
    return hook


def _validate(rec, args, result):
    rec.counts["dg.validate_calls"] += 1
    if result:
        rec.counts["dg.validation_rejects"] += 1


def _parse(rec, args, result):
    rec.counts["formats.bytes_in"] += len(args[0].encode("utf-8"))


def _serialize(rec, args, result):
    rec.counts["formats.bytes_out"] += len(result.encode("utf-8"))


def _cli_main(rec, args, result):
    if result == 2:
        rec.counts["cli.rejected_inputs"] += 1


# (module, attribute, span name, hook); "Class.method" patches the class
SPAN_TARGETS = [
    ("linalg", "Matrix.__init__", "linalg.matrix_new", _counter("linalg.matrix_new_calls")),
    ("linalg", "Matrix.rref", "linalg.rref", _rref),
    ("linalg", "Matrix.solve", "linalg.solve", _solve),
    ("graded", "kernel_of", "graded.kernel_of", None),
    ("graded", "quotient_by", "graded.quotient_by", None),
    ("graded", "HomogeneousMap.inverse", "graded.map_inverse", None),
    ("dg", "validate_structure", "dg.validate", _validate),
    ("dg", "tensor_product", "dg.tensor_product", None),
    ("dg", "opposite", "dg.opposite", None),
    ("dg", "homology", "dg.homology", None),
    ("dg", "kernel_subalgebra", "dg.kernel_subalgebra", None),
    ("dg", "center", "dg.center", None),
    ("dg", "is_semisimple_ungraded", "dg.semisimple", None),
    ("dg", "is_tgr_semisimple", "dg.semisimple", None),
    ("homs", "end_dg_algebra", "homs.end_dg_algebra", None),
    ("homs", "HomComplex.from_map", "homs.from_map", _counter("homs.from_map_calls")),
    ("matrix_algebras", "good_grading_matrix_algebra", "matrix_algebras.build", None),
    ("matrix_algebras", "inner_differential", "matrix_algebras.build", None),
    ("brauer", "is_central_simple", "brauer.is_central_simple", None),
    ("brauer", "structure_realize", "brauer.structure_realize", None),
    ("brauer", "sandwich_iso", "brauer.sandwich_iso", None),
    ("brauer", "verify_dg_iso", "brauer.verify_dg_iso", None),
    ("brauer", "kunneth_check", "brauer.kunneth", None),
    ("formats", "parse_algebra_text", "formats.parse", _parse),
    ("formats", "parse_complex_text", "formats.parse", _parse),
    ("formats", "serialize_algebra", "formats.serialize", _serialize),
    ("formats", "serialize_complex", "formats.serialize", _serialize),
    ("formats", "serialize_map", "formats.serialize", _serialize),
    ("cli", "main", "cli.main", _cli_main),
    ("catalog", "run_scenario", "catalog.scenario", None),
]
# counted in the span pass too: cheap, and not hot enough to distort it
SPAN_COUNTERS = [
    ("graded", "HomogeneousMap.flat_columns", "graded.flat_columns_calls"),
    ("brauer", "idempotent_containment", "brauer.idempotents_tried"),
    ("brauer", "choose_structure_idempotent", "brauer.idempotent_choices"),
]
COUNT_TARGETS = [
    ("fields", "RationalField.coerce", "fields.coerce_calls"),
    ("fields", "PrimeField.coerce", "fields.coerce_calls"),
    ("fields", "RationalField.inv", "fields.inv_calls"),
    ("fields", "PrimeField.inv", "fields.inv_calls"),
    ("dg", "DgAlgebra.mul", "dg.mul_calls"),
]


def _patch(lib, module: str, attr: str, make, undo: list) -> None:
    mod = getattr(lib, module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        orig = cls.__dict__[meth]
        setattr(cls, meth, make(orig))
        undo.append((cls, meth, orig))
        return
    orig = getattr(mod, attr)
    wrapped = make(orig)
    for m in lib.all_modules:
        for name, value in list(vars(m).items()):
            if value is orig:
                setattr(m, name, wrapped)
                undo.append((m, name, orig))


def install(lib, rec: Recorder, counts_only: bool) -> list:
    """Wrap the traced functions; returns what ``uninstall`` needs."""
    undo: list = []
    if counts_only:
        for module, attr, name in COUNT_TARGETS:
            _patch(lib, module, attr, _count(rec, name), undo)
        return undo
    for module, attr, name, hook in SPAN_TARGETS:
        _patch(lib, module, attr, _span(rec, name, hook), undo)
    for module, attr, name in SPAN_COUNTERS:
        _patch(lib, module, attr, _count(rec, name), undo)
    return undo


def uninstall(undo: list) -> None:
    for obj, name, orig in reversed(undo):
        setattr(obj, name, orig)


def self_times(spans) -> Counter:
    """Span time minus the time its direct children cover, summed by name."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: Counter = Counter()
    for i, (name, t0, t1, _, _) in enumerate(spans):
        out[name] += (t1 - t0) - child[i]
    return out


def span_names() -> list:
    return sorted({name for _, _, name, _ in SPAN_TARGETS})


def layer_metrics(rec: Recorder) -> dict:
    """Every per-layer metric as (value, unit), from one span pass's recorder."""
    st = self_times(rec.spans)
    c = rec.counts
    job_time = sum(t1 - t0 for name, t0, t1, _, _ in rec.spans if name == JOB)
    out = {}
    for name in span_names():
        out[name + "_self_s"] = (st[name], "s")
    for key in ("fields.coerce_calls", "fields.inv_calls", "dg.mul_calls",
                "linalg.rref_calls", "linalg.rref_cells", "linalg.solve_calls",
                "linalg.matrix_new_calls", "graded.flat_columns_calls", "dg.validate_calls",
                "dg.validation_rejects", "homs.from_map_calls", "formats.bytes_in",
                "formats.bytes_out", "cli.rejected_inputs"):
        out[key] = (c[key], "count")
    out["linalg.solve_distinct_ratio"] = (
        c["linalg.solve_distinct"] / c["linalg.solve_calls"] if c["linalg.solve_calls"] else 0.0,
        "ratio")
    out["brauer.idempotent_useful_ratio"] = (
        c["brauer.idempotent_choices"] / c["brauer.idempotents_tried"]
        if c["brauer.idempotents_tried"] else 0.0, "ratio")
    out["trace.unattributed_share"] = (st[JOB] / job_time if job_time else 0.0, "ratio")
    return out
