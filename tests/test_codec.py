"""The JSON codec at the trust boundary: pinned messages, key order, fuzzing."""
import contextlib
import copy
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from dgbr.brauer import is_central_simple, lambda_map, rho_map, sandwich_map, structure_realize
from dgbr.catalog import dual_numbers, generators, mat2_inner, random_algebra
from dgbr.cli import main
from dgbr.dg import KComplex, opposite, swap_map, tensor_product
from dgbr.errors import DgError, NoSuitableIdempotent, ParseError
from dgbr.fields import GF, QQ
from dgbr.formats import (
    algebra_to_obj,
    complex_to_obj,
    load_json,
    map_from_obj,
    parse_algebra_text,
    parse_complex_text,
    serialize_algebra,
    serialize_complex,
    serialize_map,
)
from dgbr.graded import HomogeneousMap
from dgbr.homs import end_dg_algebra

ROOT = pathlib.Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "algebras"

# dual numbers over QQ, flat order = file order:
#   basis X (degree -1), 1 (degree 0); products (0,1), (1,0), (1,1); d(X) = 1
DUAL = algebra_to_obj(dual_numbers(QQ))


def _set(key, value):
    return lambda o: o.__setitem__(key, value)


def _add(key, entry):
    return lambda o: o[key].append(entry)


def _drop(key):
    return lambda o: o.pop(key)


ALGEBRA_MESSAGES = [
    (_drop("field"), "input: missing key 'field'"),
    (_drop("basis"), "input: missing key 'basis'"),
    (_drop("unit"), "input: missing key 'unit'"),
    (_set("x", 1), "input: unknown key 'x'"),
    (lambda o: o["basis"][0].pop("label"), "input.basis[0]: missing key 'label'"),
    (lambda o: o["basis"][0].pop("degree"), "input.basis[0]: missing key 'degree'"),
    # unit: a sparse vector
    (_set("unit", 5), "input.unit: expected a list of [index, coefficient] pairs"),
    (_set("unit", {}), "input.unit: expected a list of [index, coefficient] pairs"),
    (_set("unit", [5]), "input.unit[0]: expected an [index, coefficient] pair"),
    (_set("unit", [[1]]), "input.unit[0]: expected an [index, coefficient] pair"),
    (_set("unit", [[1, "1", 0]]), "input.unit[0]: expected an [index, coefficient] pair"),
    (_set("unit", [[True, "1"]]), "input.unit[0]: index True out of range"),
    (_set("unit", [["1", "1"]]), "input.unit[0]: index '1' out of range"),
    (_set("unit", [[2, "1"]]), "input.unit[0]: index 2 out of range"),
    (_set("unit", [[-1, "1"]]), "input.unit[0]: index -1 out of range"),
    (_set("unit", [[1, "1"], [1, "1"]]), "input.unit[1]: duplicate index 1"),
    (_set("unit", [[1, True]]), "input.unit[0]: coefficient must be a string or integer"),
    (_set("unit", [[1, 1.0]]), "input.unit[0]: coefficient must be a string or integer"),
    # mult
    (_set("mult", None), "input.mult: mult must be a list"),
    (_set("mult", {}), "input.mult: mult must be a list"),
    (_add("mult", "x"), "input.mult[3]: product entry must be an object"),
    (_add("mult", {"left": 0, "right": 0, "out": [], "in": 0}),
     "input.mult[3]: unknown key 'in'"),
    (_add("mult", {"right": 0, "out": []}), "input.mult[3]: missing key 'left'"),
    (_add("mult", {"left": 0, "out": []}), "input.mult[3]: missing key 'right'"),
    (_add("mult", {"left": 0, "right": 0}), "input.mult[3]: missing key 'out'"),
    (_add("mult", {"left": True, "right": 0, "out": []}),
     "input.mult[3]: left index True out of range"),
    (_add("mult", {"left": 2, "right": 9, "out": []}),
     "input.mult[3]: left index 2 out of range"),
    (_add("mult", {"left": 0, "right": False, "out": []}),
     "input.mult[3]: right index False out of range"),
    (_add("mult", {"left": 0, "right": -1, "out": []}),
     "input.mult[3]: right index -1 out of range"),
    (_add("mult", {"left": 1, "right": 0, "out": 5}),
     "input.mult[3]: duplicate product entry (1,0)"),
    (_add("mult", {"left": 0, "right": 0, "out": 5}),
     "input.mult[3].out: expected a list of [index, coefficient] pairs"),
    (_add("mult", {"left": 0, "right": 0, "out": [[2, "1"]]}),
     "input.mult[3].out[0]: index 2 out of range"),
    (_add("mult", {"left": 0, "right": 0, "out": [[0, "1"], [0, "2"]]}),
     "input.mult[3].out[1]: duplicate index 0"),
    # diff
    (_set("diff", 5), "input.diff: diff must be a list"),
    (_add("diff", {"in": 1, "out": [], "left": 0}), "input.diff[1]: unknown key 'left'"),
    (_add("diff", {"out": []}), "input.diff[1]: missing key 'in'"),
    (_add("diff", {"in": True, "out": []}), "input.diff[1]: index True out of range"),
    (_add("diff", {"in": -1, "out": []}), "input.diff[1]: index -1 out of range"),
    (_add("diff", {"in": 0, "out": 5}), "input.diff[1]: duplicate differential entry 0"),
    (_add("diff", {"in": 1, "out": 5}),
     "input.diff[1].out: expected a list of [index, coefficient] pairs"),
    (_add("diff", {"in": 1, "out": [[0, "0.5"]]}),
     "input.diff[1].out[0]: not an exact rational literal: '0.5'"),
]


@pytest.mark.parametrize("mutate,message", ALGEBRA_MESSAGES)
def test_algebra_codec_messages_are_pinned(mutate, message):
    obj = json.loads(json.dumps(DUAL))
    mutate(obj)
    with pytest.raises(ParseError) as err:
        parse_algebra_text(json.dumps(obj))
    assert str(err.value) == message


def test_duplicate_messages_name_file_indices():
    # basis listed as [1, X]: file index 0 is flat index 1 and the reverse
    obj = {
        "field": DUAL["field"],
        "basis": DUAL["basis"][::-1],
        "unit": [[0, "1"]],
        "mult": [{"left": 0, "right": 1, "out": [[1, "1"]]},
                 {"left": 0, "right": 1, "out": []}],
    }
    with pytest.raises(ParseError) as err:
        parse_algebra_text(json.dumps(obj))
    assert str(err.value) == "input.mult[1]: duplicate product entry (0,1)"
    obj["mult"].pop()
    obj["diff"] = [{"in": 1, "out": [[0, "1"]]}, {"in": 1, "out": []}]
    with pytest.raises(ParseError) as err:
        parse_algebra_text(json.dumps(obj))
    assert str(err.value) == "input.diff[1]: duplicate differential entry 1"


COMPLEX_MESSAGES = [
    (_drop("field"), "input: missing key 'field'"),
    (_drop("basis"), "input: missing key 'basis'"),
    (_set("unit", []), "input: unknown key 'unit'"),
    (_set("diff", None), "input.diff: diff must be a list"),
    (_add("diff", 3), "input.diff[1]: differential entry must be an object"),
    (_add("diff", {"in": 1}), "input.diff[1]: missing key 'out'"),
    (_add("diff", {"in": 2, "out": []}), "input.diff[1]: index 2 out of range"),
    (_add("diff", {"in": 0, "out": []}), "input.diff[1]: duplicate differential entry 0"),
    (_add("diff", {"in": 1, "out": [[2, "1"]]}), "input.diff[1].out[0]: index 2 out of range"),
]


@pytest.mark.parametrize("mutate,message", COMPLEX_MESSAGES)
def test_complex_codec_messages_are_pinned(mutate, message):
    obj = complex_to_obj(dual_numbers(QQ).complex())
    mutate(obj)
    with pytest.raises(ParseError) as err:
        parse_complex_text(json.dumps(obj))
    assert str(err.value) == message


# maps from the dual numbers (dim 2) to Mat_2 (dim 4): `in` is checked against
# the source size and `out` against the target size
MAP_MESSAGES = [
    ({}, "map: missing key 'entries'"),
    ({"entries": [], "x": 0}, "map: unknown key 'x'"),
    ({"entries": [], "degree": "1"}, "map.degree: degree must be an integer"),
    ({"entries": [], "degree": True}, "map.degree: degree must be an integer"),
    ({"entries": 3}, "map.entries: entries must be a list"),
    ({"entries": ["x"]}, "map.entries[0]: map entry must be an object"),
    ({"entries": [{"in": 0, "out": [], "left": 0}]}, "map.entries[0]: unknown key 'left'"),
    ({"entries": [{"out": []}]}, "map.entries[0]: missing key 'in'"),
    ({"entries": [{"in": 0}]}, "map.entries[0]: missing key 'out'"),
    ({"entries": [{"in": True, "out": []}]}, "map.entries[0]: index True out of range"),
    ({"entries": [{"in": 2, "out": []}]}, "map.entries[0]: index 2 out of range"),
    ({"entries": [{"in": 1, "out": []}, {"in": 1, "out": 5}]},
     "map.entries[1]: duplicate map entry 1"),
    ({"entries": [{"in": 0, "out": {}}]},
     "map.entries[0].out: expected a list of [index, coefficient] pairs"),
    ({"entries": [{"in": 0, "out": [[4, "1"]]}]}, "map.entries[0].out[0]: index 4 out of range"),
    ({"entries": [{"in": 0, "out": [[3, "1"], [3, "1"]]}]},
     "map.entries[0].out[1]: duplicate index 3"),
]


@pytest.mark.parametrize("obj,message", MAP_MESSAGES)
def test_map_codec_messages_are_pinned(obj, message):
    with pytest.raises(ParseError) as err:
        map_from_obj(obj, QQ, dual_numbers(QQ).space, mat2_inner(QQ).space)
    assert str(err.value) == message


def test_map_out_indices_range_over_the_target():
    m = map_from_obj({"degree": 1, "entries": [{"in": 1, "out": [[3, "2"]]}]}, QQ,
                     dual_numbers(QQ).space, mat2_inner(QQ).space)
    assert m.flat_columns() == {1: {3: 2}}


def _built_maps(field, A, B):
    """Every kind of map dgbr builds on A and B, of every degree they take."""
    one = field.one
    for a in range(A.dim):
        for u in ({a: one}, A.d_apply({a: one})):
            yield lambda_map(A, u)
            yield rho_map(A, u)
        yield lambda_map(A, {a: one}).compose(rho_map(A, {A.dim - 1 - a: one}))
    yield HomogeneousMap.identity(field, A.space)
    yield swap_map(A, B)
    if A.dim <= 4 and is_central_simple(A):
        T = tensor_product(A, opposite(A))
        yield sandwich_map(A, T, end_dg_algebra(A.complex()))
        with contextlib.suppress(NoSuitableIdempotent):
            yield structure_realize(A).witness.map


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_built_maps_survive_the_map_format(field):
    rng = random.Random(17)
    algebras = [A for _, A in generators(field)] + [random_algebra(rng, field) for _ in range(6)]
    degrees = set()
    for A, B in zip(algebras, algebras[1:] + algebras[:1]):
        for m in _built_maps(field, A, B):
            back = map_from_obj(load_json(serialize_map(m)), field, m.source, m.target)
            assert back == m and back.degree == m.degree
            degrees.add(m.degree)
    assert {-1, 0, 1} <= degrees


# -- several missing keys: the first in documented order is named ------------------

SEED_CASES = [
    ("algebra", {}, "input: missing key 'field'"),
    ("complex", {}, "input: missing key 'field'"),
    ("algebra", {**DUAL, "basis": [{}, DUAL["basis"][1]]}, "input.basis[0]: missing key 'label'"),
    ("algebra", {**DUAL, "mult": DUAL["mult"] + [{}]}, "input.mult[3]: missing key 'left'"),
    ("algebra", {**DUAL, "diff": DUAL["diff"] + [{}]}, "input.diff[1]: missing key 'in'"),
    ("map", {"entries": [{}]}, "map.entries[0]: missing key 'in'"),
]

SEED_SCRIPT = """
import json, sys
from dgbr.catalog import dual_numbers
from dgbr.errors import ParseError
from dgbr.fields import QQ
from dgbr.formats import map_from_obj, parse_algebra_text, parse_complex_text

V = dual_numbers(QQ).space
for kind, doc in json.load(sys.stdin):
    try:
        if kind == "map":
            map_from_obj(doc, QQ, V, V)
        else:
            (parse_algebra_text if kind == "algebra" else parse_complex_text)(json.dumps(doc))
    except ParseError as e:
        print(e)
"""


def test_missing_key_message_does_not_depend_on_the_hash_seed():
    cases = json.dumps([[kind, doc] for kind, doc, _ in SEED_CASES])
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for seed in range(8):
        r = subprocess.run(
            [sys.executable, "-c", SEED_SCRIPT], input=cases, capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path},
        )
        assert r.stdout.splitlines() == [message for _, _, message in SEED_CASES], (seed, r.stderr)


# -- mutation fuzzing of the three formats ------------------------------------------

IDENTITY = HomogeneousMap(QQ, dual_numbers(QQ).space, dual_numbers(QQ).space, 0,
                          {i: {i: QQ.one} for i in range(2)})
FUZZ_BASES = [("algebra", json.loads(p.read_text())) for p in sorted(SAMPLES.glob("*.json"))]
FUZZ_BASES += [
    ("complex", json.loads(serialize_complex(mat2_inner(QQ).complex()))),
    ("map", json.loads(serialize_map(IDENTITY))),
]
FUZZ_VALUES = [
    [], {}, [[]], [0], True, False, None, 0, -1, 2, 10**40, -(10**40), 2**64, 1.5, -0.0,
    "", "x", "1/0", "2/3", "-7/2", "0.5", "1e3", "9" * 5000,
    {"kind": "rationals"}, {"kind": "prime", "p": 2}, {"kind": "prime", "p": 4},
]


def _paths(doc, path=()):
    """The path of every value below the root of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def mutated_files(draw):
    """(kind, text): a base file after 1-2 drops, replacements, duplicated entries
    or reversed lists; reversing a section keeps the file's meaning."""
    kind, doc = draw(st.sampled_from(FUZZ_BASES))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        op = draw(st.sampled_from(["drop", "replace", "duplicate", "reverse"]))
        if op == "drop":
            del parent[path[-1]]
        elif op == "duplicate" and isinstance(parent, list):
            parent.append(copy.deepcopy(parent[path[-1]]))
        elif op == "reverse" and isinstance(parent, list):
            parent.reverse()
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
    return kind, json.dumps(doc)


def _parse(kind, text):
    """Parse and re-serialize; the map's spaces are those of the dual numbers."""
    if kind == "map":
        V = dual_numbers(QQ).space
        return serialize_map(map_from_obj(load_json(text, "map"), QQ, V, V, "map"))
    if kind == "complex":
        return serialize_complex(parse_complex_text(text))
    return serialize_algebra(parse_algebra_text(text))


def _run_cli(kind, text):
    dual = str(SAMPLES / "dual_numbers.json")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = {"algebra": ["validate", path], "complex": ["end", path],
                "map": ["verify-iso", dual, dual, path]}[kind]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


@given(case=mutated_files())
@settings(max_examples=300, deadline=None, derandomize=True)
@example(case=("algebra", '{"field": {"kind": "prime", "p": []}, "basis": [], "unit": []}'))
def test_mutated_files_parse_or_are_rejected_cleanly(case):
    kind, text = case
    try:
        canonical = _parse(kind, text)
    except DgError:
        canonical = None
    if canonical is not None:
        assert _parse(kind, canonical) == canonical
    code, err = _run_cli(kind, text)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if kind != "map":  # the cli rejects exactly the files the parser rejects
        assert (code == 2) == (canonical is None)
