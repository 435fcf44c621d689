from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veiltrain.errors import MagnitudeOverflow
from veiltrain.fixedpoint import RingConfig, decode, encode, to_signed, truncate

RING = RingConfig()


def test_encode_half():
    assert encode(0.5, RING) == 524288


def test_encode_negative_wraps():
    assert encode(-0.25, RING) == 2**64 - 262144


def test_encode_one():
    assert encode(1.0, RING) == 1048576


def test_decode_one():
    assert decode(np.uint64(1048576), RING) == 1.0


def test_decode_negative():
    assert decode(np.uint64(2**64 - 262144), RING) == -0.25


def test_round_trip_pi():
    assert abs(decode(encode(np.pi, RING), RING) - np.pi) < 2**-21


def test_round_trip_bulk():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1000, 1000, 100_000)
    err = np.abs(decode(encode(x, RING), RING) - x)
    assert err.max() <= 2**-21


def test_truncate_product():
    # raw product of encodings carries 2l fractional bits
    raw = encode(1.5, RING) * encode(2.0, RING)
    got = to_signed(truncate(raw, RING.frac_bits)).astype(np.int64)
    want = int(encode(3.0, RING))
    assert abs(got - want) <= 1


def test_truncate_zero():
    assert truncate(np.uint64(0), RING.frac_bits) == 0


def test_truncate_negative_product():
    raw = encode(-1.0, RING) * encode(1.0, RING)
    got = truncate(raw, RING.frac_bits)
    diff = int(got.view(np.int64)) - int(encode(-1.0, RING).view(np.int64))
    assert abs(diff) <= 1


def test_product_error_bound():
    # operands on a representable grid so the real product is exact
    rng = np.random.default_rng(1)
    grid = 2.0 ** -8
    x = np.round(rng.uniform(-2**11, 2**11, 5000) / grid) * grid
    y = np.round(rng.uniform(-2**11, 2**11, 5000) / grid) * grid
    raw = encode(x, RING) * encode(y, RING)
    got = decode(truncate(raw, RING.frac_bits), RING)
    assert np.abs(got - x * y).max() <= 2 * 2.0**-RING.frac_bits


def test_addition_exact():
    rng = np.random.default_rng(2)
    grid = 2.0 ** -RING.frac_bits
    x = np.round(rng.uniform(-100, 100, 1000) / grid) * grid
    y = np.round(rng.uniform(-100, 100, 1000) / grid) * grid
    assert np.array_equal(encode(x, RING) + encode(y, RING), encode(x + y, RING))


def test_order_preserving():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-1e6, 1e6, 1000))
    signed = to_signed(encode(x, RING))
    assert np.all(np.diff(signed) >= 0)


def test_overflow_raises():
    with pytest.raises(MagnitudeOverflow):
        encode(2.0**44, RING)


def test_config_invariants():
    # the ring is 2^64: frac_bits is RingConfig's one parameter
    assert [f.name for f in fields(RingConfig)] == ["frac_bits"]
    assert (RingConfig.lam, RingConfig.udtype, RingConfig.sdtype) == (64, np.uint64, np.int64)
    with pytest.raises(TypeError):
        RingConfig(64, 20)
    with pytest.raises(ValueError):
        RingConfig(frac_bits=32)
    assert RingConfig(frac_bits=8).int_bits == 47
    assert RING.int_bits == 23


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-2.0**20, max_value=2.0**20,
                 allow_nan=False, allow_infinity=False))
def test_round_trip_property(x):
    assert abs(decode(encode(x, RING), RING) - x) <= 2**-21
