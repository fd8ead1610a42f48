"""Unit and property tests for key codecs."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import KeyCodecError
from repro.storage.codec import CompositeKeyCodec


def test_int_codec_roundtrip():
    codec = CompositeKeyCodec([31])
    values = np.array([0, 1, 5, (1 << 31) - 1])
    encoded = codec.encode([values])
    assert np.array_equal(codec.decode(encoded)[0], values)


def test_int_codec_rejects_out_of_range():
    codec = CompositeKeyCodec([8])
    with pytest.raises(KeyCodecError):
        codec.encode([np.array([256])])
    with pytest.raises(KeyCodecError):
        codec.encode([np.array([-1])])


def test_int_codec_rejects_bad_bits():
    with pytest.raises(KeyCodecError):
        CompositeKeyCodec([0])
    with pytest.raises(KeyCodecError):
        CompositeKeyCodec([64])


def test_composite_rejects_overflowing_bits():
    with pytest.raises(KeyCodecError):
        CompositeKeyCodec([32, 32])


def test_composite_roundtrip():
    codec = CompositeKeyCodec([20, 21])
    a = np.array([0, 5, (1 << 20) - 1])
    b = np.array([7, 0, (1 << 21) - 1])
    encoded = codec.encode([a, b])
    da, db = codec.decode(encoded)
    assert np.array_equal(da, a)
    assert np.array_equal(db, b)


@given(
    st.lists(
        st.tuples(
            st.integers(0, (1 << 20) - 1), st.integers(0, (1 << 21) - 1)
        ),
        min_size=2,
        max_size=200,
    )
)
def test_composite_encoding_preserves_lexicographic_order(pairs):
    codec = CompositeKeyCodec([20, 21])
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    encoded = codec.encode([a, b])
    by_encoding = np.argsort(encoded, kind="stable")
    by_tuple = sorted(range(len(pairs)), key=lambda i: (pairs[i], i))
    assert [pairs[i] for i in by_encoding] == [pairs[i] for i in by_tuple]


@given(st.integers(0, (1 << 20) - 1), st.integers(0, (1 << 21) - 1))
def test_composite_scalar_matches_vector(a, b):
    codec = CompositeKeyCodec([20, 21])
    scalar = codec.encode_scalar([a, b])
    vector = codec.encode([np.array([a]), np.array([b])])[0]
    assert scalar == int(vector)


def test_range_for_bounding_box():
    codec = CompositeKeyCodec([8, 8])
    lo, hi = codec.range_for([(1, 2), (10, 20)])
    assert lo == codec.encode_scalar([1, 10])
    assert hi == codec.encode_scalar([2, 20])


def test_prefix_bounds_cover_all_trailing_values():
    codec = CompositeKeyCodec([8, 8])
    lo, hi = codec.prefix_bounds(np.array([3]))
    assert lo[0] == codec.encode_scalar([3, 0])
    assert hi[0] == codec.encode_scalar([3, 255])


def test_with_trailing_range():
    codec = CompositeKeyCodec([8, 8])
    lo, hi = codec.with_trailing_range(np.array([4, 5]), 10, 20)
    assert lo[0] == codec.encode_scalar([4, 10])
    assert hi[1] == codec.encode_scalar([5, 20])


def test_with_trailing_range_needs_two_columns():
    codec = CompositeKeyCodec([8, 8, 8])
    with pytest.raises(KeyCodecError):
        codec.with_trailing_range(np.array([1]), 0, 1)


def test_int_codec_range_for():
    codec = CompositeKeyCodec([16])
    assert codec.range_for([(3, 9)]) == (3, 9)
