"""CLI stdout pinned byte for byte over QQ.

Each case runs ``dgbr.cli.main`` in process; a pipeline stage reads the
previous stage's stdout from a file.  The SHA-256 digests of the last stage's
stdout were recorded while every rational was still a ``Fraction``, so they
pin that storing integral rationals as ``int`` changes no output byte.
"""
import hashlib
import pathlib

import pytest

from dgbr.cli import main

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "algebras"
DUAL = str(SAMPLES / "dual_numbers.json")
PREV = object()  # stands for the file holding the previous stage's stdout
# good-graded Mat_3 with d = [2*e12 + 3*e13, -]: its homology has a -3/2 product
MAT3 = ["matrix", "-n", "3", "--good-grading", "1,0", "--inner", "e12:2,e13:3"]

CASES = {
    "tensor-chain": (
        [["tensor", DUAL, DUAL], ["tensor", PREV, DUAL]],
        0,
        "ea08701aa98dd216fa17d4ce6be90d9d63997e9de9f7c193120ff52dfc6b64f1",
    ),
    "matrix-structure-end": (
        [MAT3, ["structure", PREV, "--emit-complex"], ["end", PREV]],
        0,
        "89915101b94578001835c9214884cbda69e5a9da9b31b08f6fcd002bc0c0ca07",
    ),
    "homology": (
        [MAT3, ["homology", PREV]],
        0,
        "0536f59b3534331457c53a08893b641f32955d0d302c65035019987778d57dab",
    ),
    "sandwich-json": (
        [["sandwich", "--json", str(SAMPLES / "mat2_f1_z12.json")]],
        0,
        "1c819c8f5a9d6961ba17817574403b0c32d5ddd72994f465ab06a30f5242e11d",
    ),
    "catalog-kunneth": (
        [["catalog", "kunneth"]],
        0,
        "00ddeae0ef7e2b4a2769cc636245db4f341ca0cf3486a51532ba165a2c51ff4e",
    ),
    "check-tgr-semisimple-json": (
        [["tensor", DUAL, DUAL], ["check", "tgr-semisimple", "--json", PREV]],
        1,
        "fad76cc7084f455072ed67e51949914c953735ac5dbbacca261b176e8035860c",
    ),
}


def _run_pipeline(stages, tmp_path, capsys):
    prev = None
    for n, stage in enumerate(stages):
        argv = [str(prev) if a is PREV else a for a in stage]
        rc = main(argv)
        out = capsys.readouterr().out
        prev = tmp_path / f"stage{n}.out"
        prev.write_text(out, encoding="utf-8")
    return rc, out


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_digest(name, tmp_path, capsys):
    stages, want_rc, want_digest = CASES[name]
    rc, out = _run_pipeline(stages, tmp_path, capsys)
    assert rc == want_rc
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want_digest
