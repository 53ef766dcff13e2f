"""Command-line front end.

One subcommand per library operation.  Exit codes: 0 the claim holds or the
construction succeeded, 1 the claim is false or the sought object is absent,
2 the input is invalid, 3 an I/O failure.  `-` names standard input, and
constructor subcommands write canonical JSON so commands compose in a pipe.
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
from .fields import QQ
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


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e}", path if path != "-" else "stdin") from None


def _load_algebra(path: str) -> DgAlgebra:
    return parse_algebra_text(_read_text(path), path if path != "-" else "stdin")


def _load_complex(path: str) -> KComplex:
    return parse_complex_text(_read_text(path), path if path != "-" else "stdin")


def _strkeys(d: dict) -> dict:
    return {str(k): v for k, v in sorted(d.items())}


def _dims_line(dims: dict) -> str:
    if not dims:
        return "(zero)"
    return ", ".join(f"{k}: {v}" for k, v in sorted(dims.items()))


def _emit(args, ok: bool, lines, payload: dict) -> int:
    if getattr(args, "json", False):
        payload = dict(payload)
        payload["ok"] = ok
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for ln in lines:
            print(ln)
    return 0 if ok else 1


# -- constructors ------------------------------------------------------------------


def cmd_validate(args) -> int:
    A = _load_algebra(args.file)
    lines = [
        f"valid dg-algebra over {A.field}: total dim {A.dim}",
        f"degrees: {_dims_line(dict(A.space.dims))}",
    ]
    payload = {"dims": _strkeys(dict(A.space.dims)), "total_dim": A.dim}
    return _emit(args, True, lines, payload)


def cmd_op(args) -> int:
    sys.stdout.write(serialize_algebra(opposite(_load_algebra(args.file))))
    return 0


def cmd_tensor(args) -> int:
    A = _load_algebra(args.left)
    B = _load_algebra(args.right)
    sys.stdout.write(serialize_algebra(tensor_product(A, B)))
    return 0


def cmd_homology(args) -> int:
    sys.stdout.write(serialize_algebra(homology(_load_algebra(args.file))))
    return 0


def cmd_kernel(args) -> int:
    sys.stdout.write(serialize_algebra(kernel_subalgebra(_load_algebra(args.file)).algebra))
    return 0


def cmd_end(args) -> int:
    sys.stdout.write(serialize_algebra(end_dg_algebra(_load_complex(args.file))))
    return 0


def cmd_hom(args) -> int:
    C = _load_complex(args.source)
    D = _load_complex(args.target)
    sys.stdout.write(serialize_complex(hom_of_complexes(C, D).complex()))
    return 0


def _parse_cli_field(args):
    if args.field == "rationals":
        if args.prime is not None:
            raise ParseError("--prime only applies to --field prime", "--prime")
        return QQ
    if args.prime is None:
        raise ParseError("--field prime requires --prime P", "--prime")
    return _parse_field({"kind": "prime", "p": args.prime}, "--prime")


def _parse_grading(text, n):
    if text is None:
        return ()
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ParseError(f"bad grading {text!r}: comma-separated integers", "--good-grading")


def _parse_inner(A: DgAlgebra, text: str):
    by_label = {A.label_of(i): i for i in range(A.dim)}
    coeffs = {}
    for term in text.split(","):
        term = term.strip()
        if not term:
            continue
        label, _, raw = term.partition(":")
        label = label.strip()
        if label not in by_label:
            raise ParseError(f"unknown basis label {label!r}", "--inner")
        c = _parse_coeff(A.field, raw.strip(), "--inner") if raw else A.field.one
        i = by_label[label]
        coeffs[i] = A.field.add(coeffs.get(i, A.field.zero), c)
    return coeffs


def cmd_matrix(args) -> int:
    field = _parse_cli_field(args)
    A = good_grading_matrix_algebra(field, args.size, _parse_grading(args.good_grading, args.size))
    if args.inner:
        A = inner_differential(A, _parse_inner(A, args.inner))
    sys.stdout.write(serialize_algebra(A))
    return 0


# -- checks and witnesses -----------------------------------------------------------


def cmd_contracting(args) -> int:
    A = _load_algebra(args.file)
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
    A = _load_algebra(args.file)
    sub = center(A)
    dims = dict(sub.space.dims)
    lines = [f"center dims: {_dims_line(dims)}", f"total: {sub.space.total_dim}"]
    payload = {"dims": _strkeys(dims), "total_dim": sub.space.total_dim}
    return _emit(args, True, lines, payload)


def cmd_check(args) -> int:
    A = _load_algebra(args.file)
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


def _witness_lines(w) -> list:
    c = w.checks
    lines = [
        f"algebra hom: {c.is_algebra_hom}",
        f"unital: {c.is_unital}",
        f"commutes with d: {c.commutes_with_d}",
        f"bijective: {c.is_bijective}",
        f"verified: {w.verified}",
    ]
    if c.failures:
        lines.append(f"failures: {list(c.failures)}")
    return lines


def _witness_payload(w) -> dict:
    c = w.checks
    return {
        "is_algebra_hom": c.is_algebra_hom,
        "is_unital": c.is_unital,
        "commutes_with_d": c.commutes_with_d,
        "is_bijective": c.is_bijective,
        "verified": w.verified,
    }


def cmd_sandwich(args) -> int:
    A = _load_algebra(args.file)
    w = sandwich_iso(A)
    lines = [f"source dim {w.source.dim}, target dim {w.target.dim}"]
    lines += _witness_lines(w)
    return _emit(args, w.verified, lines, _witness_payload(w))


def cmd_structure(args) -> int:
    A = _load_algebra(args.file)
    sr = structure_realize(A)
    if args.emit_complex:
        sys.stdout.write(serialize_complex(sr.L))
        return 0
    lines = [
        f"idempotent index: {sr.idempotent.index}",
        f"rejected idempotents: {[c.index for c in sr.idempotent.rejected]}",
        f"module dims: {_dims_line(dict(sr.L.space.dims))}",
    ]
    lines += _witness_lines(sr.witness)
    payload = {
        "idempotent": sr.idempotent.index,
        "rejected": [c.index for c in sr.idempotent.rejected],
        "module_dims": _strkeys(dict(sr.L.space.dims)),
    }
    payload.update(_witness_payload(sr.witness))
    return _emit(args, sr.witness.verified, lines, payload)


def cmd_verify_iso(args) -> int:
    A = _load_algebra(args.source)
    B = _load_algebra(args.target)
    if A.field != B.field:
        raise FieldMismatch(f"{A.field} vs {B.field}")
    obj = load_json(_read_text(args.map), args.map)
    m = map_from_obj(obj, A.field, A.space, B.space, args.map)
    w = verify_dg_iso(A, B, m)
    return _emit(args, w.verified, _witness_lines(w), _witness_payload(w))


def cmd_verify_equiv(args) -> int:
    A = _load_algebra(args.left)
    B = _load_algebra(args.right)
    C1 = _load_complex(args.left_complex)
    C2 = _load_complex(args.right_complex)
    if A.field != B.field:
        raise FieldMismatch(f"{A.field} vs {B.field}")
    lhs, rhs = equivalence_sides(A, B, C1, C2)
    obj = load_json(_read_text(args.map), args.map)
    m = map_from_obj(obj, A.field, lhs.space, rhs.space, args.map)
    w = verify_dg_iso(lhs, rhs, m)
    lines = [f"lhs dim {lhs.dim}, rhs dim {rhs.dim}"] + _witness_lines(w)
    return _emit(args, w.verified, lines, _witness_payload(w))


def cmd_forget(args) -> int:
    d = forget_descriptor(_load_algebra(args.file))
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
    A = _load_algebra(args.left)
    B = _load_algebra(args.right)
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
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(fn=fn)
        sp.add_argument("--json", action="store_true", help="machine-readable report")
        return sp

    sp = add("validate", cmd_validate, "parse and fully validate an algebra file")
    sp.add_argument("file")
    sp = add("op", cmd_op, "opposite algebra, canonical JSON on stdout")
    sp.add_argument("file")
    sp = add("tensor", cmd_tensor, "graded tensor product of two algebra files")
    sp.add_argument("left")
    sp.add_argument("right")
    sp = add("homology", cmd_homology, "homology algebra (zero differential)")
    sp.add_argument("file")
    sp = add("kernel", cmd_kernel, "kernel of d as a dg-subalgebra")
    sp.add_argument("file")
    sp = add("contracting", cmd_contracting, "solve d(z) = 1 and certify the splitting")
    sp.add_argument("file")
    sp = add("center", cmd_center, "graded center dimensions")
    sp.add_argument("file")
    sp = add("check", cmd_check, "decide a property of an algebra file")
    sp.add_argument("property",
                    choices=("central-simple", "tgr-semisimple", "semisimple"))
    sp.add_argument("file")
    sp = add("end", cmd_end, "endomorphism dg-algebra of a complex file")
    sp.add_argument("file")
    sp = add("hom", cmd_hom, "hom complex of two complex files")
    sp.add_argument("source")
    sp.add_argument("target")
    sp = add("matrix", cmd_matrix, "good-graded matrix algebra constructor")
    sp.add_argument("--field", choices=("rationals", "prime"), default="rationals")
    sp.add_argument("--prime", type=int)
    sp.add_argument("-n", "--size", type=int, required=True)
    sp.add_argument("--good-grading", dest="good_grading",
                    help="comma-separated superdiagonal degrees, e.g. 1,0")
    sp.add_argument("--inner",
                    help="inner differential element, e.g. e12 or e12:1,e23:-1")
    sp = add("sandwich", cmd_sandwich, "verify A (x) A-op = End(A) for the file")
    sp.add_argument("file")
    sp = add("structure", cmd_structure,
             "realize the algebra as endomorphisms of a complex")
    sp.add_argument("file")
    sp.add_argument("--emit-complex", action="store_true",
                    help="print the realized complex as canonical JSON")
    sp = add("verify-iso", cmd_verify_iso, "check a map file is a dg-isomorphism")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("map")
    sp = add("verify-equiv", cmd_verify_equiv,
             "check an equivalence witness between two algebras")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("left_complex")
    sp.add_argument("right_complex")
    sp.add_argument("map")
    sp = add("forget", cmd_forget, "ungraded descriptor: dim, center, simplicity")
    sp.add_argument("file")
    sp = add("kunneth", cmd_kunneth, "compare H(A (x) B) with the convolution")
    sp.add_argument("left")
    sp.add_argument("right")
    sp = add("catalog", cmd_catalog, "list or rerun the built-in worked examples")
    sp.add_argument("name", nargs="?")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad usage, which matches the invalid-input code
        return int(e.code or 0)
    try:
        return args.fn(args)
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
