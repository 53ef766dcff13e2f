"""JSON interchange for algebras, complexes, and explicit maps.

The on-disk basis order is free; parsing stably re-sorts by degree, so file
indices are remapped to the internal degree-major flat order.  Serialization
always emits the canonical form: basis in flat order, entries sorted, every
coefficient rendered through the field's formatter.  parse(serialize(x))
reproduces x, and serialize(parse(file)) is byte-stable.
"""
from __future__ import annotations

import json
import sys

from .dg import DgAlgebra, KComplex
from .errors import ParseError
from .fields import Field, field_from_description
from .graded import GradedVectorSpace, HomogeneousMap


def load_json(text: str, where: str = "input") -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}", where) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply", where) from None
    except ValueError:  # json parses integers with int(), which has a digit limit
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"integer literal longer than {limit} digits", where) from None
    if not isinstance(obj, dict):
        raise ParseError("top level must be a JSON object", where)
    return obj


def _check_keys(obj: dict, allowed, required, where: str):
    for key in obj:
        if key not in allowed:
            raise ParseError(f"unknown key {key!r}", where)
    for key in required:
        if key not in obj:
            raise ParseError(f"missing key {key!r}", where)


def _parse_field(obj, where) -> Field:
    if not isinstance(obj, dict):
        raise ParseError("field must be an object", where)
    return field_from_description(obj)


def _parse_basis(items, where):
    """Returns (space, perm) with perm[file index] = flat index."""
    if not isinstance(items, list):
        raise ParseError("basis must be a list", where)
    seen = set()
    rows = []
    for t, entry in enumerate(items):
        here = f"{where}[{t}]"
        if not isinstance(entry, dict):
            raise ParseError("basis entry must be an object", here)
        _check_keys(entry, {"label", "degree"}, {"label", "degree"}, here)
        label = entry["label"]
        degree = entry["degree"]
        if not isinstance(label, str) or not label:
            raise ParseError("label must be a nonempty string", here)
        if label in seen:
            raise ParseError(f"duplicate label {label!r}", here)
        seen.add(label)
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise ParseError("degree must be an integer", here)
        rows.append((degree, label, t))
    space, order = GradedVectorSpace.from_entries(rows)
    perm = {fi: flat for flat, fi in enumerate(order)}
    return space, perm


def _parse_coeff(field, value, where):
    if isinstance(value, bool):
        raise ParseError("coefficient must be a string or integer", where)
    if isinstance(value, int):
        return field.coerce(value)
    if isinstance(value, str):
        try:
            return field.parse(value)
        except ParseError as e:
            if e.location:
                raise
            raise ParseError(str(e), where) from None
    raise ParseError("coefficient must be a string or integer", where)


def _parse_sparse(field, items, n, perm, where) -> dict:
    """A sparse vector [[index, coeff], ...] with file indices remapped."""
    if not isinstance(items, list):
        raise ParseError("expected a list of [index, coefficient] pairs", where)
    out: dict = {}
    for t, pair in enumerate(items):
        here = f"{where}[{t}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError("expected an [index, coefficient] pair", here)
        idx, value = pair
        if not isinstance(idx, int) or isinstance(idx, bool) or not (0 <= idx < n):
            raise ParseError(f"index {idx!r} out of range", here)
        if perm[idx] in out:
            raise ParseError(f"duplicate index {idx}", here)
        out[perm[idx]] = _parse_coeff(field, value, here)
    return out


def _parse_diff(field, items, n, perm, where) -> dict:
    """Differential columns [{"in": index, "out": sparse}, ...], indices remapped."""
    if not isinstance(items, list):
        raise ParseError("diff must be a list", where)
    dcols: dict = {}
    for t, entry in enumerate(items):
        here = f"{where}[{t}]"
        if not isinstance(entry, dict):
            raise ParseError("differential entry must be an object", here)
        _check_keys(entry, {"in", "out"}, {"in", "out"}, here)
        i = entry["in"]
        if not isinstance(i, int) or isinstance(i, bool) or not (0 <= i < n):
            raise ParseError(f"index {i!r} out of range", here)
        if perm[i] in dcols:
            raise ParseError(f"duplicate differential entry {i}", here)
        dcols[perm[i]] = _parse_sparse(field, entry["out"], n, perm, f"{here}.out")
    return dcols


def algebra_from_obj(obj: dict, where: str = "algebra") -> DgAlgebra:
    _check_keys(obj, {"field", "basis", "unit", "mult", "diff"},
                {"field", "basis", "unit"}, where)
    field = _parse_field(obj["field"], f"{where}.field")
    space, perm = _parse_basis(obj["basis"], f"{where}.basis")
    n = space.total_dim
    unit = _parse_sparse(field, obj["unit"], n, perm, f"{where}.unit")

    mult = obj.get("mult", [])
    if not isinstance(mult, list):
        raise ParseError("mult must be a list", f"{where}.mult")
    table: dict = {}
    for t, entry in enumerate(mult):
        here = f"{where}.mult[{t}]"
        if not isinstance(entry, dict):
            raise ParseError("product entry must be an object", here)
        _check_keys(entry, {"left", "right", "out"}, {"left", "right", "out"}, here)
        l, r = entry["left"], entry["right"]
        for name, idx in (("left", l), ("right", r)):
            if not isinstance(idx, int) or isinstance(idx, bool) or not (0 <= idx < n):
                raise ParseError(f"{name} index {idx!r} out of range", here)
        key = (perm[l], perm[r])
        if key in table:
            raise ParseError(f"duplicate product entry ({l},{r})", here)
        table[key] = _parse_sparse(field, entry["out"], n, perm, f"{here}.out")

    dcols = _parse_diff(field, obj.get("diff", []), n, perm, f"{where}.diff")
    return DgAlgebra.build(field, space, unit, table, dcols)


def complex_from_obj(obj: dict, where: str = "complex") -> KComplex:
    _check_keys(obj, {"field", "basis", "diff"}, {"field", "basis"}, where)
    field = _parse_field(obj["field"], f"{where}.field")
    space, perm = _parse_basis(obj["basis"], f"{where}.basis")
    dcols = _parse_diff(field, obj.get("diff", []), space.total_dim, perm, f"{where}.diff")
    return KComplex(field, space, dcols)


def map_from_obj(obj: dict, field, source: GradedVectorSpace,
                 target: GradedVectorSpace, where: str = "map") -> HomogeneousMap:
    """A map of the given ``degree`` (0 when absent), by columns over the flat orders of two spaces."""
    _check_keys(obj, {"entries", "degree"}, {"entries"}, where)
    degree = obj.get("degree", 0)
    if not isinstance(degree, int) or isinstance(degree, bool):
        raise ParseError("degree must be an integer", f"{where}.degree")
    ns, nt = source.total_dim, target.total_dim
    ident = {i: i for i in range(max(ns, nt))}
    if not isinstance(obj["entries"], list):
        raise ParseError("entries must be a list", f"{where}.entries")
    cols: dict = {}
    for t, entry in enumerate(obj["entries"]):
        here = f"{where}.entries[{t}]"
        if not isinstance(entry, dict):
            raise ParseError("map entry must be an object", here)
        _check_keys(entry, {"in", "out"}, {"in", "out"}, here)
        i = entry["in"]
        if not isinstance(i, int) or isinstance(i, bool) or not (0 <= i < ns):
            raise ParseError(f"index {i!r} out of range", here)
        if i in cols:
            raise ParseError(f"duplicate map entry {i}", here)
        cols[i] = _parse_sparse(field, entry["out"], nt, ident, f"{here}.out")
    return HomogeneousMap(field, source, target, degree, cols)


# -- canonical serialization ---------------------------------------------------


def _sparse_obj(field, coeffs: dict) -> list:
    return [[i, field.format(c)] for i, c in sorted(coeffs.items())]


def _basis_obj(space: GradedVectorSpace) -> list:
    return [
        {"label": space.label_of(i), "degree": space.degree_of(i)}
        for i in range(space.total_dim)
    ]


def algebra_to_obj(A: DgAlgebra) -> dict:
    return {
        "field": A.field.describe(),
        "basis": _basis_obj(A.space),
        "unit": _sparse_obj(A.field, A.unit),
        "mult": [
            {"left": i, "right": j, "out": _sparse_obj(A.field, out)}
            for (i, j), out in sorted(A.table.items())
        ],
        "diff": [
            {"in": i, "out": _sparse_obj(A.field, out)}
            for i, out in sorted(A.dcols.items())
        ],
    }


def complex_to_obj(C: KComplex) -> dict:
    return {
        "field": C.field.describe(),
        "basis": _basis_obj(C.space),
        "diff": [
            {"in": i, "out": _sparse_obj(C.field, out)}
            for i, out in sorted(C.dcols.items())
        ],
    }


def to_canonical_json(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def serialize_algebra(A: DgAlgebra) -> str:
    return to_canonical_json(algebra_to_obj(A))


def serialize_complex(C: KComplex) -> str:
    return to_canonical_json(complex_to_obj(C))


def parse_algebra_text(text: str, where: str = "input") -> DgAlgebra:
    return algebra_from_obj(load_json(text, where), where)


def parse_complex_text(text: str, where: str = "input") -> KComplex:
    return complex_from_obj(load_json(text, where), where)


def map_to_obj(m: HomogeneousMap) -> dict:
    obj: dict = {}
    if m.degree:
        obj["degree"] = m.degree
    obj["entries"] = [
        {"in": i, "out": _sparse_obj(m.field, out)}
        for i, out in sorted(m.flat_columns().items())
    ]
    return obj


def serialize_map(m: HomogeneousMap) -> str:
    return to_canonical_json(map_to_obj(m))
