"""CLI stdout and witness maps pinned byte for byte over QQ.

Each case runs ``dgbr.cli.main`` in process; a pipeline stage reads the
previous stage's stdout from a file.  The SHA-256 digests of the last stage's
stdout were recorded while every rational was still a ``Fraction``, so they
pin that storing integral rationals as ``int`` changes no output byte.  The
``kernel`` and ``contracting`` cases, and the serialized structure and
sandwich maps that no command prints, were recorded while maps still kept
dense per-degree blocks, so they pin that sparse flat columns change no byte.
The ``hom`` case was recorded while each graded basis was still laid out by
its own bucket-and-sort loop, so it pins that building them all through
``GradedVectorSpace.from_entries`` changes no byte.  The three ``catalog``
scenarios were recorded while they still rebuilt homology, kernel algebras
and descriptors that their reports already held, so they pin that reading
those reports changes no byte.
"""
import hashlib
import pathlib

import pytest

from dgbr.brauer import sandwich_map, structure_realize
from dgbr.cli import main
from dgbr.dg import opposite, tensor_product
from dgbr.fields import QQ
from dgbr.formats import serialize_map
from dgbr.homs import end_dg_algebra
from dgbr.matrix_algebras import good_grading_matrix_algebra, inner_differential

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "algebras"
DUAL = str(SAMPLES / "dual_numbers.json")
PREV = object()  # stands for the file holding the previous stage's stdout
FIRST = object()  # stands for the file holding the first stage's stdout
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
    # a 5-dim kernel algebra
    "kernel": (
        [MAT3, ["kernel", PREV]],
        0,
        "d8356ff57a59b082ae478d614251acc0e7e52e0ef39ed424fccb229b209248f0",
    ),
    # Hom(L2, L3) for the complexes that realize two different matrix algebras
    "hom": (
        [["structure", str(SAMPLES / "mat2_f1_z12.json"), "--emit-complex"], MAT3,
         ["structure", PREV, "--emit-complex"], ["hom", FIRST, PREV]],
        0,
        "7b5d682d9c7181183c4a3fe68bd22c4a3bd0d9336e6cc4961588cc8126c4f484",
    ),
    # z is basis element 1
    "contracting-json": (
        [["tensor", DUAL, DUAL], ["contracting", "--json", PREV]],
        0,
        "6449fb8011fa96e8f914d5a9bcff145a83f305b786638454b34e80b6e4b9b067",
    ),
    "catalog-dual-numbers": (
        [["catalog", "dual-numbers"]],
        0,
        "c73efeea537cf40015fdddc08bc4421bd9100a4739f447c1256f156eb1448ac1",
    ),
    "catalog-dual-numbers-json": (
        [["catalog", "dual-numbers", "--json"]],
        0,
        "fd636a5b07cd021454a6592a26e1e4deb4dce712447609d49ab6ebbcc2c59748",
    ),
    "catalog-dual-tensor-square-f2": (
        [["catalog", "dual-tensor-square-f2"]],
        0,
        "38d8df603731b9c06c609341fb5ba37111b69e6afabb4369c6a9dcce5c4b8e1e",
    ),
    "catalog-dual-tensor-square-f2-json": (
        [["catalog", "dual-tensor-square-f2", "--json"]],
        0,
        "2419962ff4f737343149ea9e1de836c44e30d89010e334b1ef5dbb88f45c024d",
    ),
    "catalog-equivalence-unit": (
        [["catalog", "equivalence-unit"]],
        0,
        "db653ecb6567ec314fcea10c8cd5f51235c77b83d39e915ff2ba7a3e187f16ca",
    ),
    "catalog-equivalence-unit-json": (
        [["catalog", "equivalence-unit", "--json"]],
        0,
        "ffc6cd646be8ca7cb740a8be7720cf20a7c80197c00b5bbd62d23bcdc005b27c",
    ),
}


def _run_pipeline(stages, tmp_path, capsys):
    first = prev = None
    for n, stage in enumerate(stages):
        argv = [str(prev) if a is PREV else str(first) if a is FIRST else a for a in stage]
        rc = main(argv)
        out = capsys.readouterr().out
        prev = tmp_path / f"stage{n}.out"
        prev.write_text(out, encoding="utf-8")
        first = first or prev
    return rc, out


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_digest(name, tmp_path, capsys):
    stages, want_rc, want_digest = CASES[name]
    rc, out = _run_pipeline(stages, tmp_path, capsys)
    assert rc == want_rc
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want_digest


def test_structure_and_sandwich_map_digests():
    """Good-graded Mat_3 with d = [e12, -]: both witness maps, serialized."""
    A0 = good_grading_matrix_algebra(QQ, 3, (1, 0))
    A = inner_differential(A0, A0.element({"e12": 1}))
    T, E = tensor_product(A, opposite(A)), end_dg_algebra(A.complex())
    digests = [hashlib.sha256(serialize_map(m).encode("utf-8")).hexdigest()
               for m in (structure_realize(A).witness.map, sandwich_map(A, T, E))]
    assert digests == [
        "83c11aa6c17850e5087c96f4e594b740de86507b952afc7185c0077e75f99a37",
        "55a5ad4361b72f56c1d0494adbcfd69708b43061834a38c1bbf684f49092b2ac",
    ]
