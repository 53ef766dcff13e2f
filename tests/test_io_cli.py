"""File formats and the command-line surface, including exit codes and pipes."""
import json
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

from dgbr import cli, formats
from dgbr.catalog import dual_numbers, mat2_inner, mat3_inner, split_pair
from dgbr.cli import main
from dgbr.dg import KComplex, tensor_product, trivial_dg
from dgbr.errors import ParseError
from dgbr.fields import GF, QQ
from dgbr.formats import (
    algebra_to_obj,
    complex_to_obj,
    map_from_obj,
    map_to_obj,
    parse_algebra_text,
    parse_complex_text,
    serialize_algebra,
    serialize_complex,
    serialize_map,
)
from dgbr.graded import HomogeneousMap

ROOT = pathlib.Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "algebras"


def run_cli(*argv, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "dgbr", *argv],
        input=stdin, capture_output=True, text=True, cwd=ROOT,
    )


# -- formats ---------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: dual_numbers(QQ),
    lambda: dual_numbers(GF(2)),
    lambda: mat2_inner(QQ),
    lambda: mat3_inner(QQ),
    lambda: split_pair(QQ),
])
def test_algebra_roundtrip_is_identity(make):
    A = make()
    text = serialize_algebra(A)
    B = parse_algebra_text(text)
    assert B == A
    assert serialize_algebra(B) == text


def test_complex_roundtrip_is_identity():
    C = mat2_inner(QQ).complex()
    text = serialize_complex(C)
    D = parse_complex_text(text)
    assert D == C
    assert serialize_complex(D) == text


def test_map_roundtrip_is_identity():
    A = dual_numbers(QQ)
    m = HomogeneousMap(
        QQ, A.space, A.space, 0,
        {0: {0: QQ.coerce(3)}, 1: {1: QQ.one}},
    )
    obj = map_to_obj(m)
    again = map_from_obj(obj, QQ, A.space, A.space)
    assert again == m
    assert serialize_map(again) == serialize_map(m)


def test_basis_reordered_file_parses_to_same_algebra():
    A = dual_numbers(QQ)
    obj = algebra_to_obj(A)
    # put the degree-0 unit first in the file; flat order must not change
    perm = [1, 0]
    obj2 = {
        "field": obj["field"],
        "basis": [obj["basis"][i] for i in perm],
        "unit": [[perm.index(i), c] for i, c in obj["unit"]],
        "mult": [
            {"left": perm.index(e["left"]), "right": perm.index(e["right"]),
             "out": [[perm.index(i), c] for i, c in e["out"]]}
            for e in obj["mult"]
        ],
        "diff": [
            {"in": perm.index(e["in"]),
             "out": [[perm.index(i), c] for i, c in e["out"]]}
            for e in obj["diff"]
        ],
    }
    B = parse_algebra_text(json.dumps(obj2))
    assert B == A


@pytest.mark.parametrize("mutate,loc", [
    (lambda o: o.pop("unit"), "unit"),
    (lambda o: o.update(extra=1), "extra"),
    (lambda o: o["basis"].append({"label": "X", "degree": 0}), "basis"),
    (lambda o: o["mult"].append({"left": 0, "right": 0, "out": [[99, "1"]]}), "out"),
    (lambda o: o["unit"].append([0, "0.5"]), "unit"),
    (lambda o: o.update(mult=None), "mult"),
    (lambda o: o.update(diff=5), "diff"),
])
def test_parse_errors_carry_location(mutate, loc):
    obj = algebra_to_obj(dual_numbers(QQ))
    mutate(obj)
    with pytest.raises(ParseError) as err:
        parse_algebra_text(json.dumps(obj))
    assert loc in str(err.value)


def test_wrong_degree_differential_names_the_axiom():
    obj = {
        "field": {"kind": "rationals"},
        "basis": [{"label": "x", "degree": 0}, {"label": "y", "degree": 0}],
        "unit": [[0, "1"]],
        "mult": [{"left": 0, "right": 0, "out": [[0, "1"]]},
                 {"left": 0, "right": 1, "out": [[1, "1"]]},
                 {"left": 1, "right": 0, "out": [[1, "1"]]}],
        "diff": [{"in": 1, "out": [[0, "1"]]}],
    }
    r = run_cli("validate", "-", stdin=json.dumps(obj))
    assert r.returncode == 2
    assert "d-degree" in r.stderr


@pytest.mark.parametrize("entry,message", [
    ("x", "input.diff[1]: differential entry must be an object"),
    ({"in": 0}, "input.diff[1]: missing key 'out'"),
    ({"in": 9, "out": []}, "input.diff[1]: index 9 out of range"),
    ({"in": 0, "out": []}, "input.diff[1]: duplicate differential entry 0"),
    ({"in": 1, "out": [[0, "1/0"]]}, "input.diff[1].out[0]: bad rational literal"),
])
def test_diff_errors_read_the_same_for_algebras_and_complexes(entry, message):
    A = dual_numbers(QQ)
    objs = [algebra_to_obj(A), complex_to_obj(A.complex())]
    for obj, parse in zip(objs, (parse_algebra_text, parse_complex_text)):
        obj["diff"].append(entry)
        with pytest.raises(ParseError) as err:
            parse(json.dumps(obj))
        assert str(err.value).startswith(message)


def test_non_list_sections_are_parse_errors():
    obj = {"field": {"kind": "rationals"}, "basis": [], "diff": {"in": 0}}
    with pytest.raises(ParseError, match=r"input\.diff: diff must be a list"):
        parse_complex_text(json.dumps(obj))
    V = dual_numbers(QQ).space
    with pytest.raises(ParseError, match=r"map\.entries: entries must be a list"):
        map_from_obj({"entries": 3}, QQ, V, V)


def test_field_mixing_rejected():
    obj = algebra_to_obj(dual_numbers(GF(2)))
    obj["unit"] = [[1, "1/2"]]
    with pytest.raises(ParseError):
        parse_algebra_text(json.dumps(obj))


# -- CLI -------------------------------------------------------------------------


def test_cli_check_tgr_on_shipped_dual_numbers():
    r = run_cli("check", "tgr-semisimple", str(SAMPLES / "dual_numbers.json"))
    assert r.returncode == 0
    assert "True" in r.stdout


def test_cli_tensor_pipe_check_exits_one():
    f2 = str(SAMPLES / "dual_numbers_f2.json")
    t = run_cli("tensor", f2, f2)
    assert t.returncode == 0
    r = run_cli("check", "tgr-semisimple", "-", stdin=t.stdout)
    assert r.returncode == 1


def test_cli_sandwich_shipped_walkthrough():
    r = run_cli("sandwich", str(SAMPLES / "mat2_f1_z12.json"))
    assert r.returncode == 0
    for flag in ("algebra hom: True", "unital: True",
                 "commutes with d: True", "bijective: True"):
        assert flag in r.stdout


def test_cli_constructor_output_reparses():
    r = run_cli("matrix", "-n", "2", "--good-grading", "1", "--inner", "e12")
    assert r.returncode == 0
    A = parse_algebra_text(r.stdout)
    assert A == mat2_inner(QQ)


def test_cli_op_is_canonical():
    src = serialize_algebra(mat2_inner(QQ))
    r = run_cli("op", "-", stdin=src)
    assert r.returncode == 0
    twice = run_cli("op", "-", stdin=r.stdout)
    assert twice.stdout == src


def test_cli_homology_kernel_pipe():
    r = run_cli("homology", str(SAMPLES / "dual_numbers.json"))
    assert r.returncode == 0
    v = run_cli("validate", "-", stdin=r.stdout)
    assert v.returncode == 0
    k = run_cli("kernel", str(SAMPLES / "mat2_f1_z12.json"))
    K = parse_algebra_text(k.stdout)
    assert dict(K.space.dims) == {0: 1, 1: 1}


def test_cli_contracting_found_and_absent():
    r = run_cli("contracting", str(SAMPLES / "mat2_f1_z12.json"))
    assert r.returncode == 0
    assert "e21" in r.stdout
    flat = run_cli("matrix", "-n", "2")
    r2 = run_cli("contracting", "-", stdin=flat.stdout)
    assert r2.returncode == 1


def test_cli_structure_pipeline_composes():
    built = run_cli("matrix", "-n", "2", "--good-grading", "1", "--inner", "e12")
    emitted = run_cli("structure", "-", "--emit-complex", stdin=built.stdout)
    assert emitted.returncode == 0
    ended = run_cli("end", "-", stdin=emitted.stdout)
    assert ended.returncode == 0
    final = run_cli("check", "central-simple", "-", stdin=ended.stdout)
    assert final.returncode == 0


def test_cli_end_and_hom_on_complex_files(tmp_path):
    built = run_cli("matrix", "-n", "2", "--good-grading", "1", "--inner", "e12")
    emitted = run_cli("structure", "-", "--emit-complex", stdin=built.stdout)
    p = tmp_path / "L.json"
    p.write_text(emitted.stdout)
    h = run_cli("hom", str(p), str(p))
    assert h.returncode == 0
    C = parse_complex_text(h.stdout)
    assert dict(C.space.dims) == {-1: 1, 0: 2, 1: 1}


def test_cli_verify_iso_and_exit_codes(tmp_path):
    A = dual_numbers(QQ)
    ident = HomogeneousMap(
        QQ, A.space, A.space, 0, {i: {i: QQ.one} for i in range(A.dim)}
    )
    good = tmp_path / "id.json"
    good.write_text(serialize_map(ident))
    src = str(SAMPLES / "dual_numbers.json")
    assert run_cli("verify-iso", src, src, str(good)).returncode == 0
    bad = HomogeneousMap(
        QQ, A.space, A.space, 0, {0: {0: QQ.coerce(2)}, 1: {1: QQ.one}}
    )
    badf = tmp_path / "bad.json"
    badf.write_text(serialize_map(bad))
    r = run_cli("verify-iso", src, src, str(badf))
    assert r.returncode == 1
    assert "verified: False" in r.stdout


def test_cli_verify_equiv_unit_class(tmp_path):
    from dgbr.brauer import structure_realize
    from dgbr.catalog import neutral, unit_equivalence_witness

    A = mat2_inner(QQ)
    sr = structure_realize(A)
    w = unit_equivalence_witness(A, sr)
    files = {
        "A.json": serialize_algebra(A),
        "K.json": serialize_algebra(neutral(QQ)),
        "pt.json": serialize_complex(KComplex.point(QQ)),
        "L.json": serialize_complex(sr.L),
        "m.json": serialize_map(w.map),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    r = run_cli(
        "verify-equiv",
        str(tmp_path / "A.json"), str(tmp_path / "K.json"),
        str(tmp_path / "pt.json"), str(tmp_path / "L.json"),
        str(tmp_path / "m.json"),
    )
    assert r.returncode == 0
    assert "verified: True" in r.stdout


def test_cli_kunneth_and_forget():
    a = str(SAMPLES / "mat2_f1_z12.json")
    b = str(SAMPLES / "dual_numbers.json")
    assert run_cli("kunneth", a, b).returncode == 0
    r = run_cli("forget", a, "--json")
    out = json.loads(r.stdout)
    assert out == {"dimension": 4, "center_dimension": 1,
                   "central_simple": True, "ok": True}


def test_cli_catalog_list_and_all_entries_pass():
    listing = run_cli("catalog")
    names = listing.stdout.split()
    assert len(names) == 7
    for name in names:
        r = run_cli("catalog", name)
        assert r.returncode == 0, (name, r.stdout, r.stderr)
        assert "result: ok" in r.stdout


def test_cli_kunneth_over_different_fields_exits_two(capsys):
    a, b = str(SAMPLES / "dual_numbers.json"), str(SAMPLES / "dual_numbers_f2.json")
    assert main(["kunneth", a, b]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid input: tensor factors over different fields\n"


def test_cli_json_reports_are_stable():
    for argv in (
        ("check", "tgr-semisimple", str(SAMPLES / "dual_numbers.json"), "--json"),
        ("catalog", "kunneth", "--json"),
        ("center", str(SAMPLES / "mat2_f1_z12.json"), "--json"),
    ):
        r = run_cli(*argv)
        parsed = json.loads(r.stdout)
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == r.stdout


def test_cli_exit_code_io_error():
    r = run_cli("validate", "/no/such/file.json")
    assert r.returncode == 3


def test_cli_exit_code_bad_input():
    r = run_cli("validate", "-", stdin="{not json")
    assert r.returncode == 2
    r2 = run_cli("tensor", str(SAMPLES / "dual_numbers.json"),
                 str(SAMPLES / "dual_numbers_f2.json"))
    assert r2.returncode == 2


@pytest.mark.parametrize("argv", [
    ("tensor", "-", "-"),
    ("kunneth", "-", "-"),
    ("verify-iso", "-", "-", "map.json"),
])
def test_cli_rejects_standard_input_named_twice(argv):
    """Standard input can be read once: naming it for two inputs exits 2 before
    reading anything, even when what it holds is valid."""
    r = run_cli(*argv, stdin=serialize_algebra(dual_numbers(QQ)))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"invalid input: {argv[0]}: '-' (standard input) can name only one input\n"


def test_cli_tensor_with_colliding_labels_numbers_the_basis(tmp_path, capsys):
    # x (x) y@z and x@y (x) z would both be labelled x@y@z
    paths = []
    one = QQ.one
    table = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}}
    for labels in (("x", "x@y"), ("z", "y@z")):
        D = trivial_dg(QQ, labels, {0: one}, table)
        paths.append(tmp_path / f"{labels[0]}.json")
        paths[-1].write_text(serialize_algebra(D))
    assert main(["tensor", *map(str, paths)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    T = parse_algebra_text(captured.out)
    assert T.space.all_labels() == ("t0_0", "t0_1", "t0_2", "t0_3")
    plain = tensor_product(trivial_dg(QQ, "ab", {0: one}, table),
                           trivial_dg(QQ, "cd", {0: one}, table))
    assert (T.unit, T.table) == (plain.unit, plain.table)


def test_cli_labels_holding_the_separators_are_accepted(tmp_path, capsys):
    # A (x) A-op would label both p (x) q@r and p@q (x) r as p@q@r, and
    # End(C) both a -> a>a and a>a -> a as a>a>a
    obj = json.loads((SAMPLES / "mat2_f1_z12.json").read_text())
    for entry, label in zip(obj["basis"], ("p", "p@q", "r", "q@r"), strict=True):
        entry["label"] = label
    path = str(tmp_path / "relabelled.json")
    pathlib.Path(path).write_text(json.dumps(obj))
    assert main(["validate", path]) == 0
    assert main(["sandwich", path]) == 0
    assert capsys.readouterr().out.endswith("verified: True\n")
    assert main(["tensor", path, path]) == 0
    assert parse_algebra_text(capsys.readouterr().out).dim == 16
    assert main(["structure", path, "--emit-complex"]) == 0
    emitted = capsys.readouterr().out
    assert parse_complex_text(emitted).space.all_labels() == ("m-1_0", "m0_0")
    complex_path = tmp_path / "complex.json"
    complex_path.write_text(emitted.replace('"m-1_0"', '"a"').replace('"m0_0"', '"a>a"'))
    assert main(["end", str(complex_path)]) == 0
    E = parse_algebra_text(capsys.readouterr().out)
    assert E.space.all_labels() == ("u-1_0", "u0_0", "u0_1", "u1_0")


def test_cli_deeply_nested_json_exits_two(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    r = run_cli("validate", str(path))
    assert r.returncode == 2
    assert r.stderr == f"invalid input: {path}: JSON nested too deeply\n"


def test_cli_non_utf8_file_exits_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    r = run_cli("validate", str(path))
    assert r.returncode == 2
    assert r.stderr.startswith(f"invalid input: {path}: not UTF-8 text:")
    assert r.stderr.count("\n") == 1


@pytest.mark.parametrize("field, coeff, reason", [
    ('"rationals"', "1" + "0" * 5000, "integer literal longer than 4300 digits"),
    ('"rationals"', '"1' + "0" * 5000 + '/3"', "bad rational literal '1000"),
    ('"prime", "p": 7', '"1' + "0" * 5000 + '"', "bad residue literal '1000"),
], ids=["json-integer", "string", "prime-string"])
def test_cli_overlong_coefficient_exits_two_with_one_short_line(tmp_path, field, coeff, reason):
    """5,001 digits are past Python's int conversion limit; the literal is
    not echoed in full, and the message only says it is too long."""
    text = json.dumps(json.loads((SAMPLES / "dual_numbers.json").read_text()))
    assert '"unit": [[1, "1"]]' in text and '"kind": "rationals"' in text
    path = tmp_path / "long.json"
    text = text.replace('"kind": "rationals"', f'"kind": {field}')
    path.write_text(text.replace('"unit": [[1, "1"]]', f'"unit": [[1, {coeff}]]'))
    r = run_cli("validate", str(path))
    assert r.returncode == 2
    assert r.stderr.startswith(f"invalid input: {path}") and reason in r.stderr
    assert "longer than 4300 digits" in r.stderr
    assert "set_int_max_str_digits" not in r.stderr
    assert r.stderr.count("\n") == 1 and len(r.stderr) < 400


@pytest.mark.parametrize("field, coeff, message", [
    ('"rationals"', "1_0", "bad rational literal '1_0': Invalid literal for Fraction: '1_0'"),
    ('"rationals"', "\u0663", "bad rational literal '\u0663': Invalid literal for Fraction: '\u0663'"),
    ('"prime", "p": 7', "1_0", "bad residue literal '1_0'"),
    ('"prime", "p": 7', "\u0663", "bad residue literal '\u0663'"),
    ('"rationals"', "\uff11", "bad rational literal '\uff11': Invalid literal for Fraction: '\uff11'"),
    ('"prime", "p": 7', "\uff11", "bad residue literal '\uff11'"),
], ids=["rationals-underscore", "rationals-arabic-indic", "prime-underscore", "prime-arabic-indic",
        "rationals-fullwidth", "prime-fullwidth"])
def test_cli_coefficients_take_only_ascii_digits(tmp_path, capsys, field, coeff, message):
    """The same on every Python: Fraction reads "1_0" as 10 from 3.11 on, and
    int and Fraction read any Unicode decimal digit, so a fullwidth one made a
    valid unit."""
    text = json.dumps(json.loads((SAMPLES / "dual_numbers.json").read_text()))
    text = text.replace('"kind": "rationals"', f'"kind": {field}')
    path = tmp_path / "coeff.json"
    path.write_text(text.replace('"unit": [[1, "1"]]', f'"unit": [[1, "{coeff}"]]'),
                    encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {path}.unit[0]: {message}\n"


def test_cli_unknown_subcommand_exits_two():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_cli_unknown_catalog_entry_exits_two():
    r = run_cli("catalog", "nope")
    assert r.returncode == 2


def test_cli_check_semisimple_indeterminate_exits_one():
    A = dual_numbers(GF(2))
    from dgbr.dg import tensor_product

    T = A
    for _ in range(4):
        T = tensor_product(T, A)
    from dgbr.dg import kernel_subalgebra

    ker = kernel_subalgebra(T).algebra
    r = run_cli("check", "semisimple", "-", stdin=serialize_algebra(ker))
    assert r.returncode == 1
    assert "None" in r.stdout


@pytest.mark.parametrize("field, a, b", [(GF(7), -1, -1), (QQ, 1, 1)])
def test_cli_structure_of_split_quaternions_exits_one(field, a, b, tmp_path):
    from dgbr.brauer import quaternion_algebra

    path = tmp_path / "q.json"
    path.write_text(serialize_algebra(quaternion_algebra(field, a, b)))
    r = run_cli("structure", str(path))
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("claim does not hold: diagonal idempotent 1 ")
    assert r.stderr.count("\n") == 1


def test_cli_structure_without_an_idempotent_basis_element_exits_one(tmp_path):
    # K itself on the basis a, with a * a = 2a and unit a/2: central simple,
    # but no basis element squares to itself, so no claim can be certified
    path = tmp_path / "k.json"
    path.write_text(serialize_algebra(
        trivial_dg(QQ, ("a",), {0: QQ.inv(QQ.coerce(2))}, {(0, 0): {0: QQ.coerce(2)}})))
    r = run_cli("structure", str(path))
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == ("claim does not hold: no degree-0 basis element is idempotent, "
                        "so there is no candidate\n")
    r = run_cli("check", "central-simple", str(path))
    assert r.returncode == 0
    assert "central simple: True" in r.stdout


def test_cli_matrix_prime_field():
    r = run_cli("matrix", "--field", "prime", "--prime", "5", "-n", "2",
                "--good-grading", "1")
    A = parse_algebra_text(r.stdout)
    assert A.field == GF(5)
    bad = run_cli("matrix", "--field", "prime", "-n", "2")
    assert bad.returncode == 2


@pytest.mark.parametrize("p", [
    "318665857834031151167461",  # strong pseudoprime to every base up to 37
    "618970019642690137449562111",  # prime, but above the exact-test bound
])
def test_cli_rejects_untrusted_prime_orders(p):
    r = run_cli("matrix", "--field", "prime", "--prime", p, "-n", "2",
                "--good-grading", "1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.strip().splitlines()) == 1
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command", ["validate", "sandwich"])
@pytest.mark.parametrize("p", [[], {}, 2.0])
def test_cli_non_integer_prime_order_exits_two(tmp_path, capsys, command, p):
    GF(2)  # cached, so an order equal to 2 but not an int must not find it
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"field": {"kind": "prime", "p": p}, "basis": [], "unit": []}))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {path}.field: prime field order must be prime, got {p!r}\n"


@pytest.mark.parametrize("field, message", [
    ({"kind": "prime", "p": 4}, "prime field order must be prime, got 4"),
    ({"kind": "0.5"}, "unknown field kind '0.5'"),
    ({"kind": "rationals", "p": 2}, "unexpected keys in field description: ['p']"),
    ({"kind": "prime"}, "prime field description needs exactly 'kind' and 'p'"),
    ({"p": 2}, "field description must be an object with a 'kind'"),
])
def test_cli_bad_field_descriptions_name_the_field(tmp_path, capsys, field, message):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"field": field, "basis": [], "unit": []}))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {path}.field: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["--field", "prime", "--prime", "4"], "--prime: prime field order must be prime, got 4"),
    (["--good-grading", "1", "--inner", "e12:x"],
     "--inner: bad rational literal 'x': Invalid literal for Fraction: 'x'"),
    (["--good-grading", "1", "--inner", "e12:1.5"], "--inner: not an exact rational literal: '1.5'"),
    (["--field", "prime", "--prime", "7", "--good-grading", "1", "--inner", "e12:1/2"],
     "--inner: fractions are not residues: '1/2'"),
    (["--good-grading", "1", "--inner", "e99:1"], "--inner: unknown basis label 'e99'"),
    (["--good-grading", "1", "--inner", "e12:"],
     "--inner: bad rational literal '': Invalid literal for Fraction: ''"),
    (["--good-grading", "1", "--inner", "e12: "],
     "--inner: bad rational literal '': Invalid literal for Fraction: ''"),
    (["--field", "prime", "--prime", "7", "--good-grading", "1", "--inner", "e12:"],
     "--inner: bad residue literal ''"),
    (["--good-grading", "1", "--inner", "e12:1_0"],
     "--inner: bad rational literal '1_0': Invalid literal for Fraction: '1_0'"),
    (["--good-grading", "1", "--inner", "e12:\u0663"],
     "--inner: bad rational literal '\u0663': Invalid literal for Fraction: '\u0663'"),
    (["--field", "prime", "--prime", "7", "--good-grading", "1", "--inner", "e12:1_0"],
     "--inner: bad residue literal '1_0'"),
    (["--field", "prime", "--prime", "7", "--good-grading", "1", "--inner", "e12:\uff11"],
     "--inner: bad residue literal '\uff11'"),
])
def test_cli_bad_matrix_flags_name_the_flag(capsys, argv, message):
    assert main(["matrix", "-n", "2", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["-n", "\u0662", "--good-grading", "\u0663"],
     "dgbr matrix: error: argument -n/--size: invalid int value: '\u0662'"),
    (["-n", "2_0"], "dgbr matrix: error: argument -n/--size: invalid int value: '2_0'"),
    (["-n", "2", "--good-grading", "1", "--field", "prime", "--prime", "1_1"],
     "dgbr matrix: error: argument --prime: invalid int value: '1_1'"),
    (["-n", "2", "--good-grading", "1", "--field", "prime", "--prime", "\uff17"],
     "dgbr matrix: error: argument --prime: invalid int value: '\uff17'"),
    (["-n", "2", "--good-grading", "\u0663"],
     "invalid input: --good-grading: bad grading '\u0663': comma-separated integers"),
    (["-n", "2", "--good-grading", "1_0"],
     "invalid input: --good-grading: bad grading '1_0': comma-separated integers"),
], ids=["arabic-indic-size", "underscore-size", "underscore-prime", "fullwidth-prime",
        "arabic-indic-grading", "underscore-grading"])
def test_cli_integer_flags_take_only_ascii_digits(capsys, argv, message):
    """-n, --prime and --good-grading read the coefficient grammar [+-]?[0-9]+."""
    assert main(["matrix", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == message


def test_cli_integer_flags_keep_signs_and_spaces(capsys):
    assert main(["matrix", "-n", " +3 ", "--good-grading", " +1 , -1 ",
                 "--field", "prime", "--prime", " 7 "]) == 0
    padded = capsys.readouterr().out
    assert main(["matrix", "-n", "3", "--good-grading", "1,-1", "--field", "prime", "--prime", "7"]) == 0
    assert capsys.readouterr().out == padded
    assert parse_algebra_text(padded).field == GF(7)


def test_importing_the_cli_builds_no_parser():
    code = textwrap.dedent("""
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__
        argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(a) or init(self, *a, **k)
        import dgbr.cli
        assert dgbr.cli._PARSER is None and not built, built
    """)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT)
    assert r.returncode == 0, r.stderr


@pytest.fixture
def parser_builds(monkeypatch):
    """Start from no parser and record each `build_parser` call."""
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    return builds


def test_main_builds_the_parser_once(parser_builds, capsys):
    for _ in range(5):
        assert main(["catalog"]) == 0
    assert len(parser_builds) == 1


def test_reused_parser_answers_like_a_fresh_one(parser_builds, monkeypatch, capsys):
    usage_error = ["check", "semisimple"]
    sequence = [usage_error, ["--help"], ["matrix", "-n", "0"],
                ["validate", str(SAMPLES / "dual_numbers.json")], ["catalog", "kunneth"],
                usage_error]
    reused, fresh = [], []
    for argv in sequence:
        reused.append((main(argv), *capsys.readouterr()))
    for argv in sequence:
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        fresh.append((main(argv), *capsys.readouterr()))
    assert [r[0] for r in reused] == [2, 0, 2, 0, 0, 2]
    assert reused == fresh
    assert reused[0] == reused[-1]
    assert len(parser_builds) == 1 + len(sequence)


def test_constructors_look_up_library_functions_on_each_call(parser_builds, monkeypatch, capsys):
    """A function rebound in dgbr.cli after the parser is built is the one a
    constructor calls, as perfbench's tracer rebinds them."""
    path = str(SAMPLES / "mat2_f1_z12.json")
    assert main(["op", path]) == 0
    calls = []
    for name in ("opposite", "serialize_algebra"):
        monkeypatch.setattr(cli, name, lambda *a, f=getattr(cli, name), name=name:
                            calls.append(name) or f(*a))
    assert main(["op", path]) == 0
    assert calls == ["opposite", "serialize_algebra"]
    assert len(parser_builds) == 1


# the usage line of every subcommand, whitespace runs read as one space (argparse
# wraps at the terminal width); file constructors take no --json
USAGE = {
    "validate": "dgbr validate [-h] [--json] file",
    "op": "dgbr op [-h] file",
    "tensor": "dgbr tensor [-h] left right",
    "homology": "dgbr homology [-h] file",
    "kernel": "dgbr kernel [-h] file",
    "contracting": "dgbr contracting [-h] [--json] file",
    "center": "dgbr center [-h] [--json] file",
    "check": "dgbr check [-h] [--json] {central-simple,tgr-semisimple,semisimple} file",
    "end": "dgbr end [-h] file",
    "hom": "dgbr hom [-h] source target",
    "matrix": "dgbr matrix [-h] [--field {rationals,prime}] [--prime PRIME] -n SIZE"
              " [--good-grading GOOD_GRADING] [--inner INNER]",
    "sandwich": "dgbr sandwich [-h] [--json] file",
    "structure": "dgbr structure [-h] [--json] [--emit-complex] file",
    "verify-iso": "dgbr verify-iso [-h] [--json] source target map",
    "verify-equiv": "dgbr verify-equiv [-h] [--json] left right left_complex right_complex map",
    "forget": "dgbr forget [-h] [--json] file",
    "kunneth": "dgbr kunneth [-h] [--json] left right",
    "catalog": "dgbr catalog [-h] [--json] [name]",
}


def test_every_subcommand_has_its_usage_line(capsys):
    assert main(["--help"]) == 0
    listed = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1)
    assert listed.split(",") == list(USAGE)
    for name, usage in USAGE.items():
        assert main([name, "--help"]) == 0
        assert " ".join(capsys.readouterr().out.split("\n\n")[0].split()) == "usage: " + usage


@pytest.mark.parametrize("argv", [
    ["op", "--json", "algebras/dual_numbers.json"],
    ["tensor", "--json", "algebras/dual_numbers.json", "algebras/dual_numbers.json"],
    ["homology", "--json", "algebras/dual_numbers.json"],
    ["kernel", "--json", "algebras/dual_numbers.json"],
    ["end", "--json", "algebras/dual_numbers.json"],
    ["hom", "--json", "algebras/dual_numbers.json", "algebras/dual_numbers.json"],
    ["matrix", "--json", "-n", "2"],
], ids=lambda argv: argv[0])
def test_constructors_refuse_json(monkeypatch, capsys, argv):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("\ndgbr: error: unrecognized arguments: --json\n")


def test_structure_refuses_json_with_the_complex(capsys):
    path = str(SAMPLES / "mat2_f1_z12.json")
    for argv in (["structure", "--json", "--emit-complex", path],
                 ["structure", path, "--emit-complex", "--json"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"usage: {USAGE['structure']}\n"
            "dgbr structure: error: argument --json: not allowed with argument --emit-complex\n")


def test_shipped_samples_parse_to_catalog_algebras():
    assert parse_algebra_text(
        (SAMPLES / "dual_numbers.json").read_text()) == dual_numbers(QQ)
    assert parse_algebra_text(
        (SAMPLES / "dual_numbers_f2.json").read_text()) == dual_numbers(GF(2))
    assert parse_algebra_text(
        (SAMPLES / "mat2_f1_z12.json").read_text()) == mat2_inner(QQ)


def test_max_dim_refuses_larger_inputs_before_building(monkeypatch, capsys, tmp_path):
    """Above ``--max-dim``, ``matrix -n N`` (dimension N squared) and a file whose
    basis is larger exit 2 with one line; no table is parsed or built.  So do
    the outputs of ``tensor`` (dim A * dim B), ``end`` (dim C squared) and
    ``hom`` (dim C * dim D): their inputs are read, and nothing is built."""
    cplx, two = tmp_path / "mat2.json", str(tmp_path / "dual.json")
    cplx.write_text(serialize_complex(mat2_inner(QQ).complex()))
    (tmp_path / "dual.json").write_text(serialize_complex(dual_numbers(QQ).complex()))
    dual, mat2 = str(SAMPLES / "dual_numbers.json"), str(SAMPLES / "mat2_f1_z12.json")
    for argv in (["matrix", "-n", "2"], ["tensor", dual, dual], ["end", two], ["hom", two, two]):
        assert main(["--max-dim", "4", *argv]) == 0
    assert cli.build_parser().parse_args(["catalog"]).max_dim == cli.MAX_DIM
    capsys.readouterr()
    parse_columns, built = formats._parse_columns, []
    monkeypatch.setattr(cli, "good_grading_matrix_algebra", lambda *a: built.append(a))
    monkeypatch.setattr(formats, "_parse_columns", lambda *a, **k: built.append(a))
    over = "{}.basis: a basis of {} elements exceeds the size limit {}".format
    cases = [
        (["--max-dim", "3", "matrix", "-n", "2"], "-n 2: dimension 4 exceeds --max-dim 3"),
        (["--max-dim", "1", "validate", dual], over(dual, 2, 1)),
        (["--max-dim", "3", "end", str(cplx)], over(cplx, 4, 3)),
        (["--max-dim", "3", "kunneth", mat2, dual], over(mat2, 4, 3)),
    ]
    for argv, message in cases:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: {message}\n"
    assert built == []

    monkeypatch.setattr(formats, "_parse_columns", parse_columns)
    for name in ("tensor_product", "end_dg_algebra", "hom_of_complexes"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: built.append(name))
    out = "{}: output dimension 4 exceeds --max-dim 3".format
    for argv in (["tensor", dual, dual], ["end", two], ["hom", two, two]):
        assert main(["--max-dim", "3", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: {out(argv[0])}\n"
    assert built == []
