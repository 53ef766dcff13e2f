"""Command-line front end.

One subcommand per library operation.  Exit codes: 0 the claim holds or the
construction succeeded, 1 the claim is false or the sought object is absent,
2 the input is invalid, 3 an I/O failure.  `-` names standard input, and
constructor subcommands write canonical JSON so commands compose in a pipe.
`build_parser` is one table: each row names a subcommand, its handler and
its positional files, and only report commands take `--json`.  The file
constructors share the handler `_construct(fn)`, which loads each file,
applies fn and writes the result.
The parser is built on the first `main` call and reused, since it holds no
per-call state, so patching a `cmd_*` function after that call has no effect;
`build_parser()` returns a fresh one.  `--max-dim`, given before the
subcommand, bounds the dimension of every algebra or complex read from a
file, of `matrix -n N` (N squared), of the outputs of `tensor` (the product
of the dimensions), `end` (the square) and `hom` (the product), and of the
algebras that `sandwich` (A (x) A-op and End(A), dim A squared), `kunneth`
(A (x) B) and `verify-equiv` (A (x) End(C1) and B (x) End(C2)) build; a
larger input or output exits 2 before the table that would exceed it is
built.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import catalog
from .brauer import (
    equivalence_sides,
    forget_descriptor,
    is_central_simple,
    kunneth_check,
    sandwich_iso,
    structure_realize,
    verify_dg_iso,
)
from .dg import (
    DgAlgebra,
    KComplex,
    _show,
    center,
    contracting_element,
    homology,
    is_semisimple_ungraded,
    is_tgr_semisimple,
    kernel_subalgebra,
    opposite,
    tensor_product,
)
from .errors import (
    DgError,
    FieldMismatch,
    NoSuitableIdempotent,
    NotCentralSimple,
    ParseError,
    ShapeMismatch,
    ValidationError,
)
from .fields import QQ, ascii_int
from .formats import (
    _parse_coeff,
    _parse_field,
    load_json,
    map_from_obj,
    parse_algebra_text,
    parse_complex_text,
    serialize_algebra,
    serialize_complex,
)
from .homs import end_dg_algebra, hom_of_complexes
from .matrix_algebras import good_grading_matrix_algebra, inner_differential


# above every shipped, README, test and benchmark input (Mat_64 has dimension 4096)
MAX_DIM = 4096


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e}", path if path != "-" else "stdin") from None


def _load_algebra(args, name: str = "file") -> DgAlgebra:
    path = getattr(args, name)
    return parse_algebra_text(_read_text(path), path if path != "-" else "stdin", args.max_dim)


def _load_complex(args, name: str = "file") -> KComplex:
    path = getattr(args, name)
    return parse_complex_text(_read_text(path), path if path != "-" else "stdin", args.max_dim)


def _strkeys(d: dict) -> dict:
    return {str(k): v for k, v in sorted(d.items())}


def _dims_line(dims: dict) -> str:
    if not dims:
        return "(zero)"
    return ", ".join(f"{k}: {v}" for k, v in sorted(dims.items()))


def _emit(args, ok: bool, lines, payload: dict) -> int:
    if args.json:
        print(json.dumps({**payload, "ok": ok}, indent=2, sort_keys=True))
    else:
        for ln in lines:
            print(ln)
    return 0 if ok else 1


# -- constructors ------------------------------------------------------------------


def cmd_validate(args) -> int:
    A = _load_algebra(args)
    lines = [
        f"valid dg-algebra over {A.field}: total dim {A.dim}",
        f"degrees: {_dims_line(dict(A.space.dims))}",
    ]
    payload = {"dims": _strkeys(dict(A.space.dims)), "total_dim": A.dim}
    return _emit(args, True, lines, payload)


def _construct(fn, load=_load_algebra, write=lambda X: serialize_algebra(X), out_dim=None):
    """The handler of a file constructor: load each positional file, apply
    ``fn`` and write the result as canonical JSON.  Rows pass lambdas, which
    look up the library function on each call, so a tracer that rebinds
    ``tensor_product`` here also reaches a parser built before it did.
    ``out_dim`` maps the inputs' dimensions to the output's, which must not
    exceed ``--max-dim``; it is checked before ``fn`` runs.
    """
    def handler(args) -> int:
        inputs = [load(args, a) for a in args.inputs]
        if out_dim:
            _bound(args, "output dimension", out_dim(*(X.space.total_dim for X in inputs)))
        sys.stdout.write(write(fn(*inputs)))
        return 0
    return handler


def _bound(args, what: str, dim: int) -> None:
    """Refuse to build something of dimension ``dim`` above ``--max-dim``."""
    if dim > args.max_dim:
        raise ShapeMismatch(f"{args.command}: {what} {dim} exceeds --max-dim {args.max_dim}")


def _parse_cli_field(args):
    if args.field == "rationals":
        if args.prime is not None:
            raise ParseError("--prime only applies to --field prime", "--prime")
        return QQ
    if args.prime is None:
        raise ParseError("--field prime requires --prime P", "--prime")
    return _parse_field({"kind": "prime", "p": args.prime}, "--prime")


def _int_flag(text: str) -> int:
    """An integer flag read by ``ascii_int``, rejected with argparse's message for int."""
    try:
        return ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_grading(text):
    text = (text or "").strip()
    try:
        return tuple(ascii_int(t) for t in text.split(",")) if text else ()
    except ValueError:
        raise ParseError(f"bad grading {text!r}: comma-separated integers", "--good-grading")


def _parse_inner(A: DgAlgebra, text: str):
    by_label = {A.label_of(i): i for i in range(A.dim)}
    coeffs = {}
    for term in text.split(","):
        term = term.strip()
        if not term:
            continue
        label, sep, raw = term.partition(":")
        label = label.strip()
        if label not in by_label:
            raise ParseError(f"unknown basis label {label!r}", "--inner")
        c = _parse_coeff(A.field, raw.strip(), "--inner") if sep else A.field.one
        i = by_label[label]
        coeffs[i] = A.field.add(coeffs.get(i, A.field.zero), c)
    return coeffs


def cmd_matrix(args) -> int:
    dim = args.size ** 2
    if dim > args.max_dim:
        raise ShapeMismatch(f"-n {args.size}: dimension {dim} exceeds --max-dim {args.max_dim}")
    field = _parse_cli_field(args)
    A = good_grading_matrix_algebra(field, args.size, _parse_grading(args.good_grading))
    if args.inner:
        A = inner_differential(A, _parse_inner(A, args.inner))
    sys.stdout.write(serialize_algebra(A))
    return 0


# -- checks and witnesses -----------------------------------------------------------


def cmd_contracting(args) -> int:
    A = _load_algebra(args)
    r = contracting_element(A)
    if r is None:
        return _emit(args, False,
                     ["no contracting element: d(z) = 1 has no degree -1 solution"],
                     {"found": False})
    lines = [
        f"z = {_show(A.field, A.space, r.z)}",
        f"kernel dims: {_dims_line(r.kernel_dims)}",
        f"dimensions add up: {r.dims_add_up}",
        f"ker(d) and z*ker(d) meet trivially: {r.intersection_trivial}",
        f"multiplication by z retracts onto the complement: {r.retraction_ok}",
    ]
    payload = {
        "found": True,
        "z": {str(i): A.field.format(c) for i, c in sorted(r.z.items())},
        "kernel_dims": _strkeys(r.kernel_dims),
        "certified": r.certified,
    }
    return _emit(args, r.certified, lines, payload)


def cmd_center(args) -> int:
    A = _load_algebra(args)
    sub = center(A)
    dims = dict(sub.space.dims)
    lines = [f"center dims: {_dims_line(dims)}", f"total: {sub.space.total_dim}"]
    payload = {"dims": _strkeys(dims), "total_dim": sub.space.total_dim}
    return _emit(args, True, lines, payload)


def cmd_check(args) -> int:
    A = _load_algebra(args)
    if args.property == "central-simple":
        verdict = is_central_simple(A)
        return _emit(args, verdict, [f"central simple: {verdict}"], {"verdict": verdict})
    if args.property == "semisimple":
        rep = is_semisimple_ungraded(A)
        lines = [f"semisimple (ungraded): {rep.verdict}", f"method: {rep.method}"]
        if rep.detail:
            lines.append(rep.detail)
        if rep.verdict is False and rep.radical:
            lines.append(f"radical dimension: {len(rep.radical)}")
        payload = {"verdict": rep.verdict, "method": rep.method,
                   "radical_dim": len(rep.radical)}
        return _emit(args, rep.verdict is True, lines, payload)
    rep = is_tgr_semisimple(A)
    lines = [f"acyclic with semisimple kernel: {rep.verdict}"] + list(rep.reasons)
    payload = {
        "verdict": rep.verdict,
        "acyclic": rep.acyclic,
        "homology_dims": _strkeys(rep.homology_dims),
        "kernel_dims": _strkeys(rep.kernel_dims),
    }
    return _emit(args, rep.verdict is True, lines, payload)


def _emit_witness(args, w, head=(), payload=()) -> int:
    """Report the checks of an isomorphism witness after ``head`` and ``payload``."""
    c = w.checks
    lines = [
        *head,
        f"algebra hom: {c.is_algebra_hom}",
        f"unital: {c.is_unital}",
        f"commutes with d: {c.commutes_with_d}",
        f"bijective: {c.is_bijective}",
        f"verified: {w.verified}",
    ]
    if c.failures:
        lines.append(f"failures: {list(c.failures)}")
    return _emit(args, w.verified, lines, {
        **dict(payload),
        "is_algebra_hom": c.is_algebra_hom,
        "is_unital": c.is_unital,
        "commutes_with_d": c.commutes_with_d,
        "is_bijective": c.is_bijective,
        "verified": w.verified,
    })


def cmd_sandwich(args) -> int:
    A = _load_algebra(args)
    _bound(args, "A (x) A-op dimension", A.dim ** 2)
    w = sandwich_iso(A)
    return _emit_witness(args, w, [f"source dim {w.source.dim}, target dim {w.target.dim}"])


def cmd_structure(args) -> int:
    if args.emit_complex and args.json:
        args.parser.error("argument --json: not allowed with argument --emit-complex")
    A = _load_algebra(args)
    sr = structure_realize(A)
    if args.emit_complex:
        sys.stdout.write(serialize_complex(sr.L))
        return 0
    lines = [
        f"idempotent index: {sr.idempotent.index}",
        f"rejected idempotents: {[c.index for c in sr.idempotent.rejected]}",
        f"module dims: {_dims_line(dict(sr.L.space.dims))}",
    ]
    payload = {
        "idempotent": sr.idempotent.index,
        "rejected": [c.index for c in sr.idempotent.rejected],
        "module_dims": _strkeys(dict(sr.L.space.dims)),
    }
    return _emit_witness(args, sr.witness, lines, payload)


def _verify_map(args, lhs: DgAlgebra, rhs: DgAlgebra, head=()) -> int:
    """Load ``args.map`` as a map lhs -> rhs, verify it and report after ``head``."""
    obj = load_json(_read_text(args.map), args.map)
    m = map_from_obj(obj, lhs.field, lhs.space, rhs.space, args.map)
    return _emit_witness(args, verify_dg_iso(lhs, rhs, m), head)


def cmd_verify_iso(args) -> int:
    A = _load_algebra(args, "source")
    B = _load_algebra(args, "target")
    if A.field != B.field:
        raise FieldMismatch(f"{A.field} vs {B.field}")
    return _verify_map(args, A, B)


def cmd_verify_equiv(args) -> int:
    A = _load_algebra(args, "left")
    B = _load_algebra(args, "right")
    C1 = _load_complex(args, "left_complex")
    C2 = _load_complex(args, "right_complex")
    if A.field != B.field:
        raise FieldMismatch(f"{A.field} vs {B.field}")
    _bound(args, "A (x) End(C1) dimension", A.dim * C1.space.total_dim ** 2)
    _bound(args, "B (x) End(C2) dimension", B.dim * C2.space.total_dim ** 2)
    lhs, rhs = equivalence_sides(A, B, C1, C2)
    return _verify_map(args, lhs, rhs, [f"lhs dim {lhs.dim}, rhs dim {rhs.dim}"])


def cmd_forget(args) -> int:
    d = forget_descriptor(_load_algebra(args))
    lines = [
        f"dimension: {d.dimension}",
        f"center dimension: {d.center_dimension}",
        f"central simple: {d.is_central_simple}",
    ]
    payload = {
        "dimension": d.dimension,
        "center_dimension": d.center_dimension,
        "central_simple": d.is_central_simple,
    }
    return _emit(args, True, lines, payload)


def cmd_kunneth(args) -> int:
    A = _load_algebra(args, "left")
    B = _load_algebra(args, "right")
    _bound(args, "A (x) B dimension", A.dim * B.dim)
    r = kunneth_check(A, B)
    lines = [
        f"homology dims of tensor: {_dims_line(r.left)}",
        f"degreewise convolution of factor homologies: {_dims_line(r.right)}",
        f"match: {r.matches}",
    ]
    payload = {"tensor": _strkeys(r.left), "convolution": _strkeys(r.right),
               "match": r.matches}
    return _emit(args, r.matches, lines, payload)


def cmd_catalog(args) -> int:
    if not args.name:
        for name in sorted(catalog.SCENARIOS):
            print(name)
        return 0
    ok, lines, payload = catalog.run_scenario(args.name)
    lines = [f"[{args.name}]"] + lines + [f"result: {'ok' if ok else 'FAILED'}"]
    return _emit(args, ok, lines, payload)


# -- wiring -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dgbr",
        description="Exact-arithmetic toolkit for finite-dimensional dg-algebras.",
    )
    p.add_argument("--max-dim", type=_int_flag, default=MAX_DIM,
                   help=f"largest dimension of an input file or of an algebra built (default {MAX_DIM})")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *positionals, report=True):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(fn=handler, inputs=positionals, parser=sp)
        if report:
            sp.add_argument("--json", action="store_true", help="machine-readable report")
        for arg in positionals:
            sp.add_argument(arg)
        return sp

    add("validate", cmd_validate, "parse and fully validate an algebra file", "file")
    add("op", _construct(lambda A: opposite(A)), "opposite algebra, canonical JSON on stdout",
        "file", report=False)
    add("tensor", _construct(lambda A, B: tensor_product(A, B), out_dim=lambda a, b: a * b),
        "graded tensor product of two algebra files", "left", "right", report=False)
    add("homology", _construct(lambda A: homology(A)), "homology algebra (zero differential)",
        "file", report=False)
    add("kernel", _construct(lambda A: kernel_subalgebra(A).algebra),
        "kernel of d as a dg-subalgebra", "file", report=False)
    add("contracting", cmd_contracting, "solve d(z) = 1 and certify the splitting", "file")
    add("center", cmd_center, "graded center dimensions", "file")
    sp = add("check", cmd_check, "decide a property of an algebra file")
    sp.add_argument("property",
                    choices=("central-simple", "tgr-semisimple", "semisimple"))
    sp.add_argument("file")
    add("end", _construct(lambda C: end_dg_algebra(C), _load_complex, out_dim=lambda c: c * c),
        "endomorphism dg-algebra of a complex file", "file", report=False)
    add("hom", _construct(lambda C, D: hom_of_complexes(C, D).complex(), _load_complex,
                          lambda H: serialize_complex(H), lambda c, d: c * d),
        "hom complex of two complex files", "source", "target", report=False)
    sp = add("matrix", cmd_matrix, "good-graded matrix algebra constructor", report=False)
    sp.add_argument("--field", choices=("rationals", "prime"), default="rationals")
    sp.add_argument("--prime", type=_int_flag)
    sp.add_argument("-n", "--size", type=_int_flag, required=True)
    sp.add_argument("--good-grading", dest="good_grading",
                    help="comma-separated superdiagonal degrees, e.g. 1,0")
    sp.add_argument("--inner",
                    help="inner differential element, e.g. e12 or e12:1,e23:-1")
    add("sandwich", cmd_sandwich, "verify A (x) A-op = End(A) for the file", "file")
    sp = add("structure", cmd_structure,
             "realize the algebra as endomorphisms of a complex", "file")
    sp.add_argument("--emit-complex", action="store_true",
                    help="print the realized complex as canonical JSON")
    add("verify-iso", cmd_verify_iso, "check a map file is a dg-isomorphism",
        "source", "target", "map")
    add("verify-equiv", cmd_verify_equiv, "check an equivalence witness between two algebras",
        "left", "right", "left_complex", "right_complex", "map")
    add("forget", cmd_forget, "ungraded descriptor: dim, center, simplicity", "file")
    add("kunneth", cmd_kunneth, "compare H(A (x) B) with the convolution", "left", "right")
    sp = add("catalog", cmd_catalog, "list or rerun the built-in worked examples")
    sp.add_argument("name", nargs="?")
    return p


_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
        if [getattr(args, a) for a in args.inputs].count("-") > 1:
            raise ParseError("'-' (standard input) can name only one input", args.command)
        return args.fn(args)
    except SystemExit as e:
        # argparse exits 2 on bad usage, which matches the invalid-input code
        return int(e.code or 0)
    except (NotCentralSimple, NoSuitableIdempotent) as e:
        print(f"claim does not hold: {e}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError, FieldMismatch, ShapeMismatch) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2
    except DgError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
