"""The additive share algebra as the engine runs it: owners split secrets with
split_raw, parties compute on their halves through MpcEngine, and open."""

import threading

import numpy as np
import pytest
from scipy import stats

from veiltrain.dealer import MaterialCursor, MaterialSource
from veiltrain.engine import MpcEngine
from veiltrain.errors import Exhausted, SessionMismatch
from veiltrain.fixedpoint import RingConfig, decode, encode
from veiltrain.ingest import split_raw
from veiltrain.session import PartyRuntime
from veiltrain.transport import queue_pair

from conftest import run_both

RING = RingConfig()


def as_ring(v):
    """Ring elements as they are; small signed integers wrapped into the ring."""
    v = np.asarray(v)
    return v if v.dtype == np.uint64 else v.astype(np.int64).view(np.uint64)


def joint(fn, *secrets, seed=1):
    """fn(eng, *shares) on both parties, each holding its split_raw half of
    every secret; returns both parties' results."""
    rng = np.random.default_rng(seed)
    halves = [split_raw(as_ring(s), rng) for s in secrets]
    results, _ = run_both(lambda eng: fn(eng, *(h[eng.party] for h in halves)), seed=seed)
    return results


def test_share_sums_to_secret():
    s0, s1 = split_raw(np.uint64(42), np.random.default_rng(0))
    assert s0 + s1 == 42


def test_share_zero_halves_negate():
    s0, s1 = split_raw(np.uint64(0), np.random.default_rng(1))
    assert s0 + s1 == 0
    assert s1 == np.uint64(0) - s0


def test_share_first_half_uniform():
    halves, _ = split_raw(np.full(100_000, 7, dtype=np.uint64), np.random.default_rng(2))
    counts, _ = np.histogram(halves.astype(np.float64), bins=64, range=(0, float(2**64)))
    assert stats.chisquare(counts).pvalue > 0.01


def test_reconstruct_wraps():
    (r0, r1), _ = run_both(lambda eng: eng.open(as_ring([-5, 12])[eng.party]))
    assert r0 == r1 == 7


def test_reconstruct_round_trip_bulk():
    secrets = np.random.default_rng(3).integers(0, 2**64, 10_000, dtype=np.uint64)
    r0, r1 = joint(lambda eng, x: eng.open(x), secrets)
    assert np.array_equal(r0, secrets) and np.array_equal(r1, secrets)


def test_reconstruct_session_mismatch():
    ch0, ch1 = queue_pair()
    source = MaterialSource(1, RING)
    eng0, eng1 = (MpcEngine(PartyRuntime(party, session, ch, RING),
                            MaterialCursor(source, party, {}))
                  for party, session, ch in ((0, 1, ch0), (1, 2, ch1)))
    errors = []

    def open0():
        try:
            eng0.open(np.uint64(1))
        except SessionMismatch as exc:
            errors.append(exc)

    t = threading.Thread(target=open0)
    t.start()
    with pytest.raises(SessionMismatch):
        eng1.open(np.uint64(2))
    t.join(timeout=10)
    assert not t.is_alive() and len(errors) == 1


def test_linear_add_sub_neg():
    r0, _ = joint(lambda eng, x, y: eng.open(eng.stack([eng.add(x, y), eng.sub(x, y),
                                                        eng.neg(x)])), 30, 12)
    assert list(r0.view(np.int64)) == [42, 18, -30]


def test_linear_scale():
    r0, _ = joint(lambda eng, x: eng.open(eng.mul_public_int(x, [5, -3])), [10, 10])
    assert list(r0.view(np.int64)) == [50, -30]


def test_linear_offset_party0_only():
    def fn(eng, x):
        y = eng.add_public(x, 7)
        return x, y, eng.open(y)

    (x0, y0, o0), (x1, y1, o1) = joint(fn, 10)
    assert y0 == x0 + np.uint64(7)
    assert y1 == x1  # party 1 untouched
    assert o0 == o1 == 17  # the offset is added once


def test_beaver_hand_example():
    r0, _ = joint(lambda eng, x, y: eng.open(eng.mul(x, y)), [3, -3], [4, 4])
    assert list(r0.view(np.int64)) == [12, -12]


def test_beaver_zero_operand():
    r0, _ = joint(lambda eng, x, y: eng.open(eng.mul(x, y)), [0, 0, 0], [0, 5, 123456], seed=8)
    assert not r0.any()


def test_beaver_random_products_exact():
    rng = np.random.default_rng(9)
    xs, ys = rng.integers(0, 2**64, (2, 200), dtype=np.uint64)
    r0, _ = joint(lambda eng, x, y: eng.open(eng.mul(x, y)), xs, ys, seed=31)
    assert all(int(z) == int(x) * int(y) % 2**64 for x, y, z in zip(xs, ys, r0))


def test_triple_reuse_rejected():
    # consecutive takes read consecutive windows of the dealer's stream, and a
    # cursor at its cap raises rather than wrap back to items it handed out
    source = MaterialSource(33, RING)
    n = 5
    for party in (0, 1):
        cursor = MaterialCursor(source, party, {("triple",): 2 * n})
        want = source.halves(("triple",), 0, 2 * n)[party]
        for window in (slice(0, n), slice(n, 2 * n)):
            got = cursor.take_triples(n)
            assert all(np.array_equal(a, b[window]) for a, b in zip(got, want))
        with pytest.raises(Exhausted):
            cursor.take_triples(1)


def test_distributive_law():
    # x*(y+z) = x*y + x*z through MpcEngine.mul on full-ring shares
    rng = np.random.default_rng(12)
    x, y, z = rng.integers(0, 2**64, (3, 20), dtype=np.uint64)

    def fn(eng, x, y, z):
        lhs = eng.mul(x, eng.add(y, z))
        rhs = eng.add(eng.mul(x, y), eng.mul(x, z))
        return eng.open(eng.stack([lhs, rhs]))

    r0, _ = joint(fn, x, y, z, seed=33)
    assert np.array_equal(r0[0], r0[1])
    assert all(int(v) == int(a) * (int(b) + int(c)) % 2**64 for v, a, b, c in zip(r0[0], x, y, z))
