"""ker d and H(A) through one cycle-algebra routine: counts and pins.

``kernel_subalgebra`` and ``homology`` build through one routine that takes
well-definedness from the Leibniz rule instead of multiplying boundaries by
cycles.  The count below holds that no such product is left; the pins were
recorded while the two functions still ran their own loops, so they hold that
sharing the routine changes no label, column or serialized byte.
"""
import hashlib

import pytest

from dgbr.catalog import dual_numbers, generators, mat2_inner, mat3_inner
from dgbr.dg import DgAlgebra, homology, kernel_subalgebra, opposite, tensor_product
from dgbr.fields import GF, QQ
from dgbr.formats import serialize_algebra, serialize_map

FIELDS = [QQ, GF(2), GF(7)]


def test_homology_multiplies_only_representatives(monkeypatch):
    A = mat3_inner(QQ)
    T = tensor_product(A, A)
    calls = []
    mul = DgAlgebra.mul

    def counted(self, u, v):
        calls.append(1)
        return mul(self, u, v)

    monkeypatch.setattr(DgAlgebra, "mul", counted)
    H = homology(T)
    monkeypatch.undo()
    assert H.dim == 1
    assert len(calls) == H.dim ** 2


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_acyclic_homology_is_the_zero_algebra(field):
    d = dual_numbers(field)
    zero = DgAlgebra.zero_algebra(field)
    for A in (d, tensor_product(d, d)):
        H = homology(A)
        assert H == zero
        assert serialize_algebra(H) == serialize_algebra(zero)


def _kernel_cases(field):
    d, m = dual_numbers(field), mat2_inner(field)
    return generators(field) + [("dual@dual", tensor_product(d, d)),
                                ("dual@mat2-inner", tensor_product(d, m)),
                                ("mat2-inner-op", opposite(m))]


KERNEL_LABELS = {
    "neutral": ("z0_0",),
    "dual-numbers": ("z0_0",),
    "mat2-graded": ("z-1_0", "z0_0", "z0_1", "z1_0"),
    "mat2-inner": ("z0_0", "z1_0"),
    "mat2-flat": ("z0_0", "z0_1", "z0_2", "z0_3"),
    "mat3-inner": ("z-1_0", "z0_0", "z0_1", "z1_0", "z2_0"),
    "split-pair": ("z0_0", "z0_1"),
    "quaternions": ("z0_0", "z0_1", "z0_2", "z0_3"),
    "dual@dual": ("z-1_0", "z0_0"),
    "dual@mat2-inner": ("z-1_0", "z0_0", "z0_1", "z1_0"),
    "mat2-inner-op": ("z0_0", "z1_0"),
}


def test_kernel_subalgebra_labels_and_inclusions_are_pinned():
    """Labels over QQ; inclusion columns and the kernel algebra over QQ, GF(2), GF(7)."""
    digest = hashlib.sha256()
    for field in FIELDS:
        for name, A in _kernel_cases(field):
            K = kernel_subalgebra(A)
            if field == QQ:
                assert K.algebra.space.all_labels() == KERNEL_LABELS[name], name
            digest.update(serialize_map(K.inclusion).encode("utf-8"))
            digest.update(serialize_algebra(K.algebra).encode("utf-8"))
    assert digest.hexdigest() == "b2b951c13abfe6d23f47d961a55c343c23a81b12b3050c23279a6b4c036355f7"
