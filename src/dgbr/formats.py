"""JSON interchange for algebras, complexes, and explicit maps.

The on-disk basis order is free; parsing stably re-sorts by degree, so file
indices are remapped to the internal degree-major flat order.  Serialization
always emits the canonical form: basis in flat order, entries sorted, every
coefficient rendered through the field's formatter.  parse(serialize(x))
reproduces x, and serialize(parse(file)) is byte-stable.  Every indexed
section (``mult``, ``diff``, ``entries``) is read by ``_parse_columns`` and
written by ``_columns_obj``.
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


def _check_keys(obj: dict, required: tuple, where: str, optional: tuple = ()):
    """``required`` is in documented order, so the first missing key is the one named."""
    for key in obj:
        if key not in required and key not in optional:
            raise ParseError(f"unknown key {key!r}", where)
    for key in required:
        if key not in obj:
            raise ParseError(f"missing key {key!r}", where)


def _parse_field(obj, where) -> Field:
    if not isinstance(obj, dict):
        raise ParseError("field must be an object", where)
    try:
        return field_from_description(obj)
    except ParseError as e:
        raise ParseError(str(e), where) from None


def _parse_basis(items, where, max_dim=None):
    """Returns (space, perm) with perm[file index] = flat index; at most ``max_dim`` entries."""
    if not isinstance(items, list):
        raise ParseError("basis must be a list", where)
    if max_dim is not None and len(items) > max_dim:
        raise ParseError(f"a basis of {len(items)} elements exceeds the size limit {max_dim}", where)
    seen = set()
    rows = []
    for t, entry in enumerate(items):
        here = f"{where}[{t}]"
        if not isinstance(entry, dict):
            raise ParseError("basis entry must be an object", here)
        _check_keys(entry, ("label", "degree"), here)
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
    if isinstance(value, int) and not isinstance(value, bool):
        return field.coerce(value)
    if isinstance(value, str):
        try:
            return field.parse(value)
        except ParseError as e:
            if e.location:
                raise
            raise ParseError(str(e), where) from None
    raise ParseError("coefficient must be a string or integer", where)


def _parse_index(idx, n: int, what: str, where: str) -> int:
    if not isinstance(idx, int) or isinstance(idx, bool) or not (0 <= idx < n):
        raise ParseError(f"{what} {idx!r} out of range", where)
    return idx


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
        _parse_index(idx, n, "index", here)
        if perm[idx] in out:
            raise ParseError(f"duplicate index {idx}", here)
        out[perm[idx]] = _parse_coeff(field, value, here)
    return out


def _parse_columns(field, items, noun, keys: dict, n, perm, where, out=None) -> dict:
    """A section [{<keys>: index, "out": sparse}, ...] whose location ``where`` ends in its key.

    ``keys`` maps each index key, in documented order, to the name its range
    error uses; two keys give a table keyed by pairs.  ``out`` is the (size,
    perm) of the ``out`` vectors when they index another space.
    """
    if not isinstance(items, list):
        raise ParseError(f"{where.rpartition('.')[2]} must be a list", where)
    out_n, out_perm = out or (n, perm)
    cols: dict = {}
    for t, entry in enumerate(items):
        here = f"{where}[{t}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{noun} entry must be an object", here)
        _check_keys(entry, (*keys, "out"), here)
        idx = [_parse_index(entry[k], n, what, here) for k, what in keys.items()]
        key = perm[idx[0]] if len(idx) == 1 else tuple(perm[i] for i in idx)
        if key in cols:
            shown = idx[0] if len(idx) == 1 else f"({','.join(map(str, idx))})"
            raise ParseError(f"duplicate {noun} entry {shown}", here)
        cols[key] = _parse_sparse(field, entry["out"], out_n, out_perm, f"{here}.out")
    return cols


_IN = {"in": "index"}
_LEFT_RIGHT = {"left": "left index", "right": "right index"}


def algebra_from_obj(obj: dict, where: str = "algebra", max_dim=None) -> DgAlgebra:
    _check_keys(obj, ("field", "basis", "unit"), where, ("mult", "diff"))
    field = _parse_field(obj["field"], f"{where}.field")
    space, perm = _parse_basis(obj["basis"], f"{where}.basis", max_dim)
    n = space.total_dim
    unit = _parse_sparse(field, obj["unit"], n, perm, f"{where}.unit")
    table = _parse_columns(field, obj.get("mult", []), "product", _LEFT_RIGHT,
                           n, perm, f"{where}.mult")
    dcols = _parse_columns(field, obj.get("diff", []), "differential", _IN,
                           n, perm, f"{where}.diff")
    return DgAlgebra.build(field, space, unit, table, dcols)


def complex_from_obj(obj: dict, where: str = "complex", max_dim=None) -> KComplex:
    _check_keys(obj, ("field", "basis"), where, ("diff",))
    field = _parse_field(obj["field"], f"{where}.field")
    space, perm = _parse_basis(obj["basis"], f"{where}.basis", max_dim)
    dcols = _parse_columns(field, obj.get("diff", []), "differential", _IN,
                           space.total_dim, perm, f"{where}.diff")
    return KComplex(field, space, dcols)


def map_from_obj(obj: dict, field, source: GradedVectorSpace,
                 target: GradedVectorSpace, where: str = "map") -> HomogeneousMap:
    """A map of the given ``degree`` (0 when absent), by columns over the flat orders of two spaces."""
    _check_keys(obj, ("entries",), where, ("degree",))
    degree = obj.get("degree", 0)
    if not isinstance(degree, int) or isinstance(degree, bool):
        raise ParseError("degree must be an integer", f"{where}.degree")
    ns, nt = source.total_dim, target.total_dim
    cols = _parse_columns(field, obj["entries"], "map", _IN, ns, range(ns),
                          f"{where}.entries", out=(nt, range(nt)))
    return HomogeneousMap(field, source, target, degree, cols)


# -- canonical serialization ---------------------------------------------------


def _sparse_obj(field, coeffs: dict) -> list:
    return [[i, field.format(c)] for i, c in sorted(coeffs.items())]


def _columns_obj(field, cols: dict) -> list:
    """Inverse of _parse_columns: entries by sorted key, a pair key giving left/right."""
    return [
        {**(dict(zip(_LEFT_RIGHT, key)) if isinstance(key, tuple) else {"in": key}),
         "out": _sparse_obj(field, out)}
        for key, out in sorted(cols.items())
    ]


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
        "mult": _columns_obj(A.field, A.table),
        "diff": _columns_obj(A.field, A.dcols),
    }


def complex_to_obj(C: KComplex) -> dict:
    return {
        "field": C.field.describe(),
        "basis": _basis_obj(C.space),
        "diff": _columns_obj(C.field, C.dcols),
    }


def to_canonical_json(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def serialize_algebra(A: DgAlgebra) -> str:
    return to_canonical_json(algebra_to_obj(A))


def serialize_complex(C: KComplex) -> str:
    return to_canonical_json(complex_to_obj(C))


def parse_algebra_text(text: str, where: str = "input", max_dim=None) -> DgAlgebra:
    return algebra_from_obj(load_json(text, where), where, max_dim)


def parse_complex_text(text: str, where: str = "input", max_dim=None) -> KComplex:
    return complex_from_obj(load_json(text, where), where, max_dim)


def map_to_obj(m: HomogeneousMap) -> dict:
    obj = {"degree": m.degree} if m.degree else {}
    obj["entries"] = _columns_obj(m.field, m.flat_columns())
    return obj


def serialize_map(m: HomogeneousMap) -> str:
    return to_canonical_json(map_to_obj(m))
