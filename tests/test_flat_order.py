"""Flat basis order: the two constructors against the old bucket loop, and label pins.

``GradedVectorSpace.from_entries`` and ``GradedVectorSpace.numbered`` decide
the flat order of every built basis.  The property tests check them against
``bucketed_space`` and ``bucketed_numbered``, the loop each constructor ran
before.  The pins below were recorded while each site still ran its own
loop, so they hold that routing the sites through the constructors changes
no label and no serialized byte.
"""
import hashlib
import random

from dense_oracle import bucketed_numbered, bucketed_space
from hypothesis import given, settings, strategies as st

from dgbr.catalog import dual_numbers, generators, mat2_inner, random_complex
from dgbr.dg import center, opposite, tensor_product
from dgbr.fields import GF, QQ
from dgbr.formats import serialize_complex
from dgbr.graded import GradedVectorSpace, kernel_of, quotient_by

_DEGREES = st.lists(st.integers(-3, 3), max_size=12)


def _check_flat_order(degrees, space, keys):
    """Degrees ascending, the given order kept within a degree, keys and labels aligned."""
    assert list(space.flat_degrees()) == sorted(degrees)
    assert sorted(keys) == list(range(len(degrees)))
    for t, key in enumerate(keys):
        assert space.degree_of(t) == degrees[key]
    for k in set(degrees):
        assert [key for key in keys if degrees[key] == k] == [t for t, d in enumerate(degrees) if d == k]


@given(degrees=_DEGREES, data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_from_entries_matches_the_bucket_loop(degrees, data):
    names = data.draw(st.permutations([f"x{t}" for t in range(len(degrees))]))
    entries = [(k, names[t], t) for t, k in enumerate(degrees)]
    space, keys = GradedVectorSpace.from_entries(entries)
    want_space, want_keys = bucketed_space(entries)
    assert keys == want_keys
    assert space == want_space and space.all_labels() == want_space.all_labels()
    _check_flat_order(degrees, space, keys)
    assert space.all_labels() == tuple(names[key] for key in keys)


@given(degrees=_DEGREES, prefix=st.sampled_from(["", "c", "h", "al", "v"]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_numbered_matches_the_bucket_loop(degrees, prefix):
    entries = [(k, t) for t, k in enumerate(degrees)]
    space, keys = GradedVectorSpace.numbered(prefix, entries)
    want_space, want_keys = bucketed_numbered(prefix, entries)
    assert keys == want_keys
    assert space == want_space and space.all_labels() == want_space.all_labels()
    _check_flat_order(degrees, space, keys)
    for t, key in enumerate(keys):
        k = degrees[key]
        assert space.label_of(t) == f"{prefix}{k}_{t - space.flat_index(k, 0)}"


def _pinned_algebras():
    d, m = dual_numbers(QQ), mat2_inner(QQ)
    return generators(QQ) + [
        ("dual@dual", tensor_product(d, d)),
        ("dual@mat2-inner", tensor_product(d, m)),
        ("mat2-inner-op", opposite(m)),
    ]


# name: (center labels, labels of A / ker d)
LABELS = {
    "neutral": (("c0_0",), ()),
    "dual-numbers": (("c-1_0", "c0_0"), ("X",)),
    "mat2-graded": (("c0_0",), ()),
    "mat2-inner": (("c0_0",), ("e21", "e11")),
    "mat2-flat": (("c0_0",), ()),
    "mat3-inner": (("c0_0",), ("e31", "e21", "e11", "e23")),
    "split-pair": (("c0_0", "c0_1"), ()),
    "quaternions": (("c0_0",), ()),
    "dual@dual": (("c-2_0", "c0_0"), ("X@X", "X@1")),
    "dual@mat2-inner": (("c-1_0", "c0_0"), ("X@e21", "X@e11", "X@e22", "X@e12")),
    "mat2-inner-op": (("c0_0",), ("e21", "e11")),
}


def test_center_and_quotient_labels_are_pinned():
    got = {}
    for name, A in _pinned_algebras():
        quotient = quotient_by(A.space, kernel_of(A.complex().differential_map()).inclusion)
        got[name] = (center(A).space.all_labels(), quotient.space.all_labels())
    assert got == LABELS


def test_random_complex_serializations_are_pinned():
    digest = hashlib.sha256()
    for field in (QQ, GF(2), GF(7)):
        for seed in range(40):
            digest.update(serialize_complex(random_complex(random.Random(seed), field)).encode("utf-8"))
    assert digest.hexdigest() == "58e64d95ac06f86188ecad628f9daf5fb0f30d5cb6a19d63dfcb387d77683e28"
