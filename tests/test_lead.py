"""Leading-leaf normalization (engine op lead): exact against the true bits
and the clear-text mirror, oblivious, exactly provisioned by the dry run,
and at its pinned per-element cost.

The leaf ops (msb and lead) take whole 3-bit leaves. Values of fewer bits
go to lead at the width rounded up, as the kernels give them
(kernels._normalize)."""

import functools

import numpy as np
import pytest

from veiltrain.dealer import _SPLIT_WORDS, MaterialSource
from veiltrain.engine import PlainEngine, estimate_counts, leaf_layout
from veiltrain.errors import Exhausted
from veiltrain.fixedpoint import RingConfig

from conftest import run_both

RING = RingConfig()
FRAME_BYTES = 13  # length, kind, session and round fields of one round's frame


def _whole(bits):
    return -(-bits // 3) * 3


def _inputs(width, seed):
    """Values below 2^width: 0, every leaf boundary 2^p and the value 2^p - 1
    below it, the top value, and random values of every magnitude."""
    rng = np.random.default_rng(seed)
    edge = [0, 1, (1 << width) - 1]
    for p in leaf_layout(_whole(width))[1:]:
        edge += [1 << p, (1 << p) - 1, (1 << p) + 1]
    tops = rng.integers(0, width, 64).astype(np.uint64)
    spread = (np.uint64(1) << tops) | (rng.integers(0, 1 << 62, 64, dtype=np.uint64)
                                      & ((np.uint64(1) << tops) - np.uint64(1)))
    return np.concatenate([np.array(edge, dtype=np.uint64), spread])


def _want_lead(values, width):
    top = np.array([int(v).bit_length() - 1 for v in values])
    rows = [(p <= top) & (top < p + 3) for p in leaf_layout(_whole(width))]
    rows[0] |= top < 0  # a = 0 marks the lowest leaf
    return np.array(rows, dtype=np.uint64)


def _lead_fn(values, width):
    def fn(eng):
        return eng.open(eng.lead(eng.from_public(values), _whole(width))[1])

    return fn


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 21, 26, 43])
def test_lead_exact_and_oblivious(width):
    values = _inputs(width, width)
    fn = _lead_fn(values, width)
    (r0, r1), engines = run_both(fn, seed=width)
    mirror = fn(PlainEngine(MaterialSource(width, RING), RING))
    assert np.array_equal(mirror, _want_lead(values, width))
    assert np.array_equal(r0, mirror) and np.array_equal(r1, mirror)

    _, engines_other = run_both(_lead_fn(np.zeros_like(values), width), seed=width + 100)
    ta, tb = engines[0].rt.transcript, engines_other[0].rt.transcript
    assert ta.n_rounds == tb.n_rounds
    assert ta.bytes_sent == tb.bytes_sent


@pytest.mark.parametrize("width", [0, 2, 4, 26, 64])
def test_leaf_ops_refuse_a_width_of_partial_leaves(width):
    with pytest.raises(ValueError):
        leaf_layout(width)
    for op in ("msb", "lead"):
        def fn(eng, op=op):
            return getattr(eng, op)(eng.from_public(np.ones(4, dtype=np.uint64)), width)

        with pytest.raises(ValueError):
            fn(PlainEngine(MaterialSource(1, RING), RING))
        with pytest.raises(ValueError):
            run_both(fn, seed=1, counts={})


@pytest.mark.parametrize("make", [_lead_fn])
def test_consumes_the_dry_run_exactly(make):
    fn = make(_inputs(26, 1), 26)
    counts = estimate_counts(fn, 1, RING)
    _, engines = run_both(fn, seed=1, counts=counts)
    for eng in engines:
        assert {k: v for k, v in eng.material.pos.items() if isinstance(k, tuple)} == counts
    for key in counts:
        starved = dict(counts)
        starved[key] -= 1
        with pytest.raises(Exhausted):
            run_both(fn, seed=1, counts=starved)


@pytest.mark.parametrize("op, width, rounds, material, wire", [
    ("lead", 21, 8, {("bit",): 49, ("triple",): 22}, 45),
    ("lead", 27, 8, {("bit",): 63, ("triple",): 37}, 75),
    ("lead", 45, 10, {("bit",): 105, ("triple",): 76}, 153),
])
def test_cost_per_element(op, width, rounds, material, wire):
    n = 10

    def only(eng):
        return getattr(eng, op)(eng.from_public(np.ones(n, dtype=np.uint64)), width)

    counts = estimate_counts(only, 1, RING)
    assert counts == {k: v * n for k, v in material.items()}
    _, engines = run_both(only, seed=1)
    tr = engines[0].rt.transcript
    assert tr.n_rounds == rounds
    assert tr.bytes_sent - FRAME_BYTES * rounds == 8 * wire * n
    words = sum(_SPLIT_WORDS[k[0]] * v for k, v in material.items())
    assert words == {("lead", 21): 115, ("lead", 27): 174, ("lead", 45): 333}[op, width]


# --- lead of tmul-style summands, truncated in its opening round ---

def _summands(ring, n, seed):
    """Two summands and their shifts, one per row for the first (a row taken
    as it is among them), whose truncations sum to values in [1, 2^20)."""
    l, rng = ring.frac_bits, np.random.default_rng(seed)
    v = rng.integers(2, 1 << 18, (3, n)).astype(np.uint64)
    w = rng.integers(0, 2, (3, n)).astype(np.uint64)
    x1 = np.stack([v[0] << np.uint64(l), v[1], v[2] << np.uint64(l + 1)])
    return [x1, w << np.uint64(l + 2)], [[l, None, l + 1], l + 2]


def _summed_lead_fn(xs, shifts, width=21):
    def fn(eng):
        a, hot = eng.lead([eng.from_public(x) for x in xs], width, shifts)
        return eng.open(a), eng.open(hot)

    return fn


@pytest.mark.parametrize("frac_bits", [12, 20, 22])
def test_lead_of_summands_matches_the_mirror_and_the_truncations(frac_bits):
    ring = RingConfig(frac_bits)
    xs, shifts = _summands(ring, 60, frac_bits)
    fn = _summed_lead_fn(xs, shifts)
    (r0, r1), _ = run_both(fn, seed=frac_bits, cfg=ring)
    mirror = fn(PlainEngine(MaterialSource(frac_bits, ring), ring))
    for got in (r0, r1):
        assert all(np.array_equal(g, m) for g, m in zip(got, mirror))
    a, hot = mirror
    with np.errstate(over="ignore"):  # each truncation within one of the exact shift
        want = np.stack([xs[0][0] >> np.uint64(frac_bits), xs[0][1],
                         xs[0][2] >> np.uint64(frac_bits + 1)])
        want += xs[1] >> np.uint64(frac_bits + 2)
    assert np.abs(a.astype(np.int64) - want.astype(np.int64)).max() <= 2
    assert np.array_equal(hot, _want_lead(a.ravel(), 21).reshape(hot.shape))


def test_lead_of_summands_opens_each_x_plus_r_and_width_bits_of_the_masks():
    # the parties open every truncated x_i + r_i, as tmul does, and the low
    # width bits of r - rs alone: each party sends only those bits, and
    # their sum, for one operand repeated, spreads uniformly over 2^width
    n, width = 3000, 21
    xs = [np.full((2, n), 5 << 20, dtype=np.uint64), np.full((2, n), 7 << 22, dtype=np.uint64)]
    shifts = [20, 22]
    sent, opened = {0: [], 1: []}, []

    def fn(eng):
        if isinstance(eng, PlainEngine):  # the dry run
            return eng.lead([eng.from_public(x) for x in xs], width, shifts)
        real_open, real_exchange = eng.open, eng.rt.exchange

        def record_open(a, shift=None):
            out = real_open(a, shift)
            opened.append(out)
            return out

        def record_exchange(payload):
            sent[eng.party].append(payload.copy())
            return real_exchange(payload)

        eng.open, eng.rt.exchange = record_open, record_exchange
        eng.lead([eng.from_public(x) for x in xs], width, shifts)

    run_both(fn, seed=8)
    source = MaterialSource(8, RING)
    masked = []
    for x, s in zip(xs, shifts):
        r0, _, r1, _ = source.trunc_pairs(s, 0, x.size)
        with np.errstate(over="ignore"):
            masked.append(x.ravel() + r0 + r1)
    first = opened[0]  # one per party: the opening round, the lead's first
    assert len(first) == 3 * 2 * n
    assert np.array_equal(first[:4 * n], np.concatenate(masked))
    for payloads in sent.values():  # the opening round is each party's first
        assert payloads[0].size == 3 * 2 * n and payloads[0][4 * n:].max() < 1 << width
    rest = first[4 * n:] & np.uint64((1 << width) - 1)
    assert abs(rest.mean() / (1 << width) - 0.5) < 0.02
    assert abs((rest >> np.uint64(width - 1)).mean() - 0.5) < 0.03


def test_lead_of_summands_transcript_is_value_independent():
    xs, shifts = _summands(RING, 40, 3)
    _, engines = run_both(_summed_lead_fn(xs, shifts), seed=4)
    _, other = run_both(_summed_lead_fn([np.zeros_like(x) for x in xs], shifts), seed=5)
    ta, tb = engines[0].rt.transcript, other[0].rt.transcript
    assert ta.n_rounds == tb.n_rounds and ta.bytes_sent == tb.bytes_sent


def test_lead_of_summands_consumes_the_dry_run_exactly():
    xs, shifts = _summands(RING, 40, 6)
    fn = _summed_lead_fn(xs, shifts)
    counts = estimate_counts(fn, 7, RING)
    assert counts[("trunc", 20)] == counts[("trunc", 21)] == 40
    assert counts[("trunc", 22)] == 3 * 40 and ("trunc", None) not in counts
    _, engines = run_both(fn, seed=7, counts=counts)
    for eng in engines:
        assert {k: v for k, v in eng.material.pos.items() if isinstance(k, tuple)} == counts
    for key in counts:
        starved = dict(counts)
        starved[key] -= 1
        with pytest.raises(Exhausted):
            run_both(fn, seed=7, counts=starved)


def test_truncation_then_lead_takes_one_round_fewer_in_one():
    # the same truncations and the same lead, from the same material, in
    # one round fewer and with the same words: the round's frame alone goes
    xs, shifts = _summands(RING, 50, 9)

    def apart(eng):
        a = functools.reduce(eng.add, eng.tmul([eng.from_public(x) for x in xs], shifts))
        return eng.open(a), eng.open(eng.lead(a, 21)[1])

    (got, _), engines = run_both(_summed_lead_fn(xs, shifts), seed=10)
    (want, _), others = run_both(apart, seed=10)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    ta, tb = engines[0].rt.transcript, others[0].rt.transcript
    assert ta.n_rounds == tb.n_rounds - 1
    assert ta.bytes_sent == tb.bytes_sent - FRAME_BYTES
