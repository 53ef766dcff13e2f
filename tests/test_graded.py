import pytest

from dgbr.errors import ShapeMismatch
from dgbr.fields import QQ
from dgbr.graded import (
    GradedVectorSpace,
    HomogeneousMap,
    TensorBasis,
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


@pytest.mark.parametrize("cols", [{0: {5: 1}}, {0: {-1: 1}}, {2: {0: 1}}, {-1: {0: 1}}],
                         ids=["row-past-end", "negative-row", "column-past-end", "negative-column"])
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
    with pytest.raises(TypeError):
        HomogeneousMap(QQ, W, W, None, {})
    shift = HomogeneousMap(QQ, W, W, 1, {0: {1: QQ.one}})
    ident = HomogeneousMap.identity(QQ, W)
    assert shift.compose(ident).degree == ident.compose(shift).degree == 1
    assert shift.compose(shift).degree == 2 and shift.compose(shift).is_zero()
    with pytest.raises(ShapeMismatch, match="same spaces and degree"):
        shift + ident
    with pytest.raises(ShapeMismatch, match="same spaces and degree"):
        HomogeneousMap.zero(QQ, W, W) - HomogeneousMap.zero(QQ, W, W, 1)


def test_linear_map_arithmetic():
    W = GradedVectorSpace({0: 2})
    a = HomogeneousMap(QQ, W, W, 0, {0: {0: QQ.one}})
    b = HomogeneousMap(QQ, W, W, 0, {0: {0: QQ.one}, 1: {1: QQ.one}})
    assert (b - a).flat_columns() == {1: {1: QQ.one}}
    assert (a + a).flat_columns() == {0: {0: QQ.coerce(2)}}
    assert (a - a).is_zero()
    assert b == HomogeneousMap.identity(QQ, W)
