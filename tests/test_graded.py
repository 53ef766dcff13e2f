import re

import pytest

from dgbr.errors import ShapeMismatch
from dgbr.fields import QQ
from dgbr.graded import (
    GradedVectorSpace,
    HomogeneousMap,
    TensorBasis,
    clean_coeffs,
    clean_columns,
    kernel_of,
    quotient_by,
)

V = GradedVectorSpace({-1: 1, 0: 2, 2: 1}, {-1: ("a",), 0: ("b", "c"), 2: ("d",)})


def test_flat_order_is_degree_major():
    assert V.total_dim == 4
    assert V.flat_degrees() == (-1, 0, 0, 2)
    assert V.all_labels() == ("a", "b", "c", "d")
    assert V.flat_index(0, 1) == 2
    assert V.degree_of(3) == 2


def test_space_drops_zero_degrees():
    W = GradedVectorSpace({0: 0, 1: 2})
    assert W.dims == {1: 2}
    assert W.dim(0) == 0


@pytest.mark.parametrize("dims, bad", [
    ({0: 1.5}, "dimension must be an integer, got 1.5"),
    ({0.7: 2}, "degree must be an integer, got 0.7"),
    ({"1": "2"}, "degree must be an integer, got '1'"),
    ({1: "2"}, "dimension must be an integer, got '2'"),
    ({True: 1}, "degree must be an integer, got True"),
    ({0: None}, "dimension must be an integer, got None"),
])
def test_space_takes_only_integer_degrees_and_dimensions(dims, bad):
    with pytest.raises(ShapeMismatch, match=bad):
        GradedVectorSpace(dims)


@pytest.mark.parametrize("labels, bad", [({0.5: ("a",)}, "0.5"), ({True: ("a",)}, "True"),
                                         ({"0": ("a",)}, "'0'")])
def test_label_degrees_must_be_integers(labels, bad):
    with pytest.raises(ShapeMismatch, match=f"degree must be an integer, got {bad}"):
        GradedVectorSpace({0: 1, 1: 1}, labels)


def test_clean_coeffs_names_the_bad_index():
    assert clean_coeffs(QQ, {0: 1, 1: 0, 2: "1/2"}, 3, "x") == {0: 1, 2: QQ.coerce("1/2")}
    for bad in (0.9, True, "1", -1, 3, None):
        with pytest.raises(ShapeMismatch, match=f"^x {re.escape(repr(bad))} outside the basis$"):
            clean_coeffs(QQ, {bad: 1}, 3, "x")
    assert clean_columns(QQ, {1: {0: 0}, 2: {1: 2}}, 3, 2, "d") == {2: {1: 2}}
    with pytest.raises(ShapeMismatch, match="^d column 3 outside the source$"):
        clean_columns(QQ, {3: {}}, 3, 2, "d", ("source", "target"))
    with pytest.raises(ShapeMismatch, match="^d row 2 outside the target$"):
        clean_columns(QQ, {0: {2: 1}}, 3, 2, "d", ("source", "target"))


def test_space_equality_ignores_labels():
    assert V == GradedVectorSpace({-1: 1, 0: 2, 2: 1})
    assert V != GradedVectorSpace({0: 2})


def test_label_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        GradedVectorSpace({0: 2}, {0: ("x",)})


@pytest.mark.parametrize("labels", [
    {0: ("x", "y"), 1: ("x",)},
    {0: ("x", "x"), 1: ("y",)},
    {0: ("b1_0", "y")},  # the default label of the unlabelled degree-1 slot
], ids=["across-degrees", "within-a-degree", "default-label"])
def test_duplicate_labels_rejected(labels):
    with pytest.raises(ShapeMismatch, match="duplicate label"):
        GradedVectorSpace({0: 2, 1: 1}, labels)


def test_homogeneous_map_blocks_and_apply():
    W = GradedVectorSpace({0: 1, 1: 2})
    m = HomogeneousMap(
        QQ, W, W, 1, {0: {1: QQ.one, 2: QQ.coerce(2)}}
    )
    assert m.degree == 1
    out = m.apply_flat({0: QQ.coerce(3)})
    assert out == {1: QQ.coerce(3), 2: QQ.coerce(6)}
    assert m.flat_columns() == {0: {1: QQ.one, 2: QQ.coerce(2)}}


@pytest.mark.parametrize("cols", [{0: {5: 1}}, {0: {-1: 1}}, {2: {0: 1}}, {-1: {0: 1}},
                                  {0.9: {1.7: 1}}, {0: {1.7: 1}}, {True: {0: 1}}, {0: {False: 1}},
                                  {0: {9: 0}}],
                         ids=["row-past-end", "negative-row", "column-past-end", "negative-column",
                              "float-column", "float-row", "bool-column", "bool-row", "zero-past-end"])
def test_flat_columns_outside_the_spaces_are_shape_mismatches(cols):
    W = GradedVectorSpace({0: 2})
    with pytest.raises(ShapeMismatch, match="outside the (source|target) space"):
        HomogeneousMap(QQ, W, W, 0, cols)


def test_map_compose_degrees_add():
    W = GradedVectorSpace({0: 1, 1: 1, 2: 1})
    up = HomogeneousMap(QQ, W, W, 1, {0: {1: QQ.one}, 1: {2: QQ.one}})
    sq = up.compose(up)
    assert sq.degree == 2
    assert sq.apply_flat({0: QQ.one}) == {2: QQ.one}


def test_degree_zero_inverse():
    W = GradedVectorSpace({0: 2})
    m = HomogeneousMap(
        QQ, W, W, 0,
        {0: {0: QQ.coerce(2), 1: QQ.one}, 1: {0: QQ.one, 1: QQ.one}},
    )
    inv = m.inverse()
    assert inv.compose(m).apply_flat({0: QQ.one}) == {0: QQ.one}
    singular = HomogeneousMap(QQ, W, W, 0, {0: {0: QQ.one}})
    assert singular.inverse() is None


def test_inverse_requires_matching_dims():
    W1 = GradedVectorSpace({0: 1})
    W2 = GradedVectorSpace({0: 1, 1: 1})
    m = HomogeneousMap(QQ, W1, W2, 0, {0: {0: QQ.one}})
    assert m.inverse() is None


def test_kernel_image_quotient_dims():
    W = GradedVectorSpace({0: 2, 1: 1})
    # d(b0) = t, d(b1) = t
    d = HomogeneousMap(QQ, W, W, 1, {0: {2: QQ.one}, 1: {2: QQ.one}})
    ker = kernel_of(d)
    assert dict(ker.space.dims) == {0: 1, 1: 1}
    q = quotient_by(W, ker.inclusion)
    assert dict(q.space.dims) == {0: 1}
    # projection then section is identity on the quotient
    s = q.section.apply_flat({0: QQ.one})
    assert q.projection.apply_flat(s) == {0: QQ.one}


def test_tensor_of_spaces_order_and_labels():
    A = GradedVectorSpace({0: 1, 1: 1}, {0: ("x",), 1: ("y",)})
    B = GradedVectorSpace({0: 1, 1: 1}, {0: ("u",), 1: ("v",)})
    T = TensorBasis(A, B)
    assert dict(T.space.dims) == {0: 1, 1: 2, 2: 1}
    assert T.space.all_labels() == ("x@u", "x@v", "y@u", "y@v")
    i = T.index[(0, 1)]
    assert T.pairs[i] == (0, 1)
    assert T.space.degree_of(i) == 1


def test_linear_map_roundtrip_homogeneous():
    W = GradedVectorSpace({0: 1, 1: 1})
    hm = HomogeneousMap(QQ, W, W, 1, {0: {1: QQ.one}})
    assert HomogeneousMap(QQ, W, W, hm.degree, hm.flat_columns()) == hm
    with pytest.raises(ShapeMismatch, match="hits degree 1, expected 0"):
        HomogeneousMap(QQ, W, W, 0, hm.flat_columns())
    for degree in (0, 1):
        with pytest.raises(ShapeMismatch):
            HomogeneousMap(QQ, W, W, degree, {0: {0: QQ.one, 1: QQ.one}})


def test_every_map_has_an_integer_degree():
    W = GradedVectorSpace({0: 1, 1: 1})
    for bad in (None, 1.5, True, "1"):
        with pytest.raises(ShapeMismatch, match=f"map degree must be an integer, got {bad!r}"):
            HomogeneousMap(QQ, W, W, bad, {})
    shift = HomogeneousMap(QQ, W, W, 1, {0: {1: QQ.one}})
    ident = HomogeneousMap.identity(QQ, W)
    assert shift.compose(ident).degree == ident.compose(shift).degree == 1
    assert shift.compose(shift).degree == 2 and shift.compose(shift).is_zero()


def test_linear_map_arithmetic():
    W = GradedVectorSpace({0: 2})
    a = HomogeneousMap(QQ, W, W, 0, {0: {0: QQ.one}})
    b = HomogeneousMap(QQ, W, W, 0, {0: {0: QQ.one}, 1: {1: QQ.one}})
    assert a.apply_flat({0: QQ.coerce(3), 1: QQ.one}) == {0: QQ.coerce(3)}
    assert a != b and b == HomogeneousMap.identity(QQ, W)
    # a zero map is homogeneous of every degree, so equality ignores the degree
    assert HomogeneousMap.zero(QQ, W, W) == HomogeneousMap.zero(QQ, W, W, -2)
