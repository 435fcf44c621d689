"""Fused truncate-multiply (engine op tmul): exact against the clear-text
mirror, opening x + r once and then only uniformly masked words, oblivious,
exactly provisioned by the dry run, and at its pinned per-element cost."""

import numpy as np
import pytest

from veiltrain.dealer import MaterialSource
from veiltrain.engine import PlainEngine, estimate_counts
from veiltrain.errors import Exhausted
from veiltrain.fixedpoint import RingConfig, encode, from_signed, to_signed

from conftest import run_both

RING = RingConfig()
FRAME_BYTES = 13  # length, kind, session and round fields of one round's frame
SHIFT = 20


def _x(shape, seed):
    """Values at 2l bits up to 2^12 in magnitude, edges included."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0 ** 12, 2.0 ** 12, shape).ravel()
    x[:4] = [0.0, 2.0 ** -20, -2.0 ** -20, -2.0 ** 12]
    return encode(x * 2.0 ** 20, RING).reshape(shape)


def _y(shape, seed):
    return encode(np.random.default_rng(seed).uniform(-4, 4, shape), RING)


def _tmul_fn(x, y, square, rows=None):
    def fn(eng):
        yy = None if y is None else eng.from_public(y)
        out = eng.tmul(eng.from_public(x), SHIFT, yy, square=square, rows=rows)
        return [eng.open(v) for v in out]

    return fn


CASES = {  # (x shape, y shape or None, square, rows)
    "product": ((30,), (30,), False, None),
    "broadcast": ((4,), (6, 4), False, None),
    "square": ((3, 10), None, True, None),
    "both": ((2, 12), (2, 12), True, None),
    "some rows": ((4, 5), (2, 5), [0, 3], [1, 3]),
    "truncation only": ((7,), None, False, None),
    # pairs t[i] * t[j]: equal indices and indices repeated across pairs
    "pairs": ((6, 3), (2, 3), ([0, 2, 2, 5, 1], [2, 2, 0, 5, 5]), [1, 4]),
    "pairs alone": ((9,), None, (np.array([0, 0, 3, 8]), np.array([4, 0, 3, 0])), None),
}


def _rows(a, idx):
    return a if idx is None else a[idx]


@pytest.mark.parametrize("case", CASES)
def test_tmul_matches_the_mirror_and_the_truncation(case):
    xs, ys, square, rows = CASES[case]
    x, y = _x(xs, 1), None if ys is None else _y(ys, 2)
    fn = _tmul_fn(x, y, square, rows)
    (r0, r1), _ = run_both(fn, seed=5)
    mirror = fn(PlainEngine(MaterialSource(5, RING), RING))
    assert len(mirror) == 1 + (y is not None) + (square is not False)
    for a, b, m in zip(r0, r1, mirror):
        assert np.array_equal(a, m) and np.array_equal(b, m)
    t, *prods = mirror
    exact = to_signed(x) >> SHIFT
    assert np.abs(to_signed(t) - exact).max() <= 1  # trunc's one-ulp carry
    with np.errstate(over="ignore"):
        if y is not None:
            assert np.array_equal(prods[0], _rows(t, rows) * y)
        if square is not False:
            i, j = (square if isinstance(square, tuple)
                    else (None, None) if square is True else (square, square))
            assert np.array_equal(prods[-1], _rows(t, i) * _rows(t, j))


def test_tmul_opens_x_plus_r_and_uniformly_masked_words():
    x, y = _x((3, 4), 3), _y((5, 1, 4), 4)
    opened = []

    def fn(eng):
        real = eng.open

        def record(a):
            out = real(a)
            opened.append(out)
            return out

        eng.open = record
        eng.tmul(eng.from_public(x), SHIFT, eng.from_public(y), square=[2], rows=None)

    run_both(fn, seed=6)
    source = MaterialSource(6, RING)
    r0, rs0, r1, rs1 = source.trunc_pairs(SHIFT, 0, 12)
    u0, v0, _, u1, v1, _ = source.triples(0, 64)
    with np.errstate(over="ignore"):
        r, rs = (r0 + r1).reshape(3, 4), (rs0 + rs1).reshape(3, 4)
        a, b = u0 + u1, v0 + v1
        want = np.concatenate([
            (x + r).ravel(),
            (np.broadcast_to(rs, (5, 3, 4)).ravel() + a[:60]),
            (np.broadcast_to(y, (5, 3, 4)).ravel() - b[:60]),
            rs[2] + a[60:], rs[2] + b[60:]])
    assert len(opened) == 2  # one call per party, one exchange each
    assert all(np.array_equal(o, want) for o in opened)


@pytest.mark.parametrize("case", CASES)
def test_tmul_transcript_is_value_independent(case):
    xs, ys, square, rows = CASES[case]
    _, engines = run_both(
        _tmul_fn(_x(xs, 7), None if ys is None else _y(ys, 8), square, rows), seed=9)
    zeros = None if ys is None else np.zeros(ys, dtype=np.uint64)
    _, other = run_both(_tmul_fn(np.zeros(xs, dtype=np.uint64), zeros, square, rows), seed=10)
    ta, tb = engines[0].rt.transcript, other[0].rt.transcript
    assert ta.n_rounds == tb.n_rounds
    assert ta.bytes_sent == tb.bytes_sent


@pytest.mark.parametrize("case", CASES)
def test_tmul_consumes_the_dry_run_exactly(case):
    xs, ys, square, rows = CASES[case]
    fn = _tmul_fn(_x(xs, 11), None if ys is None else _y(ys, 12), square, rows)
    counts = estimate_counts(fn, 13, RING)
    _, engines = run_both(fn, seed=13, counts=counts)
    for eng in engines:
        assert {k: v for k, v in eng.material.pos.items() if isinstance(k, tuple)} == counts
    for key in counts:
        starved = dict(counts)
        starved[key] -= 1
        with pytest.raises(Exhausted):
            run_both(fn, seed=13, counts=starved)


@pytest.mark.parametrize("y, square, triples, wire", [
    (False, False, 0, 1),
    (True, False, 1, 3),
    (False, True, 1, 3),
    (True, True, 2, 5),
])
def test_tmul_cost_per_element(y, square, triples, wire):
    # as trunc and mul would spend, in one round instead of two
    n = 10

    def fn(eng):
        zero = eng.zeros(n)
        return eng.tmul(zero, SHIFT, zero if y else None, square=square)

    counts = estimate_counts(fn, 1, RING)
    assert counts == {("trunc", SHIFT): n, **({("triple",): triples * n} if triples else {})}
    _, engines = run_both(fn, seed=1)
    tr = engines[0].rt.transcript
    assert tr.n_rounds == 1
    assert tr.bytes_sent - FRAME_BYTES == 8 * wire * n


def test_tmul_of_a_shifted_value_is_exact():
    # x with zero low bits truncates without a carry: the kernels lean on
    # this to fold exact rescalings into a tmul round
    x = encode(np.linspace(-3, 3, 25), RING)
    fn = _tmul_fn(from_signed(to_signed(x) << SHIFT), None, True)
    ((t, tt), _), _ = run_both(fn, seed=14)
    assert np.array_equal(t, x)
    with np.errstate(over="ignore"):
        assert np.array_equal(tt, x * x)


@pytest.mark.parametrize("shift", [20, 40])
def test_trunc_mirror_matches_the_parties_on_the_whole_ring(shift):
    # words anywhere in the ring, where x + r wraps: the mirror truncates
    # x + r and subtracts the truncated mask, as the parties do
    x = np.random.default_rng(3).integers(0, 2**64, 20_000, dtype=np.uint64)

    def fn(eng):
        return eng.open(eng.trunc(eng.from_public(x), shift))

    (r0, r1), _ = run_both(fn, seed=3)
    want = fn(PlainEngine(MaterialSource(3, RING), RING))
    assert np.array_equal(r0, want) and np.array_equal(r1, want)


# --- summed truncations: x and shift as matching sequences ---

SUMMED = {  # (shifts, x shape, y shape or None)
    "one": ((SHIFT,), (6,), (6,)),
    "one, no product": ((SHIFT,), (6,), None),
    "two": ((SHIFT, SHIFT + 9), (2, 6), (2, 6)),
    "two, no product": ((SHIFT + 9, SHIFT), (2, 6), None),
    "three": ((SHIFT, 12, SHIFT + 9), (8,), (8,)),
    "three, no product": ((SHIFT, 12, SHIFT + 9), (8,), None),
    "broadcast column": ((SHIFT, SHIFT + 9), (5, 1), (5, 4)),
    # a summand with shift None is taken as it is, and opens nothing
    "as is": ((None, SHIFT), (2, 6), (2, 6)),
    "as is, no product": ((SHIFT, None), (6,), None),
}


def _summed_fn(xs, shifts, y):
    def fn(eng):
        yy = None if y is None else eng.from_public(y)
        out = eng.tmul([eng.from_public(x) for x in xs], list(shifts), yy)
        return [eng.open(v) for v in out]

    return fn


def _summed_inputs(case, seed):
    shifts, xs, ys = SUMMED[case]
    x = [_x(xs, seed + i) for i in range(len(shifts))]
    return shifts, x, None if ys is None else _y(ys, seed + 10)


@pytest.mark.parametrize("case", SUMMED)
def test_summed_tmul_matches_the_mirror_and_the_truncations(case):
    shifts, xs, y = _summed_inputs(case, 20)
    fn = _summed_fn(xs, shifts, y)
    (r0, r1), _ = run_both(fn, seed=21)
    mirror = fn(PlainEngine(MaterialSource(21, RING), RING))
    assert len(mirror) == len(shifts) + (y is not None)
    for a, b, m in zip(r0, r1, mirror):
        assert np.array_equal(a, m) and np.array_equal(b, m)
    ts = mirror[:len(shifts)]
    for t, x, s in zip(ts, xs, shifts):
        if s is None:  # taken as it is
            assert np.array_equal(t, x)
        else:
            assert np.abs(to_signed(t) - (to_signed(x) >> s)).max() <= 1
    if y is not None:
        with np.errstate(over="ignore"):
            assert np.array_equal(mirror[-1], sum(ts) * y)


def test_summed_tmul_opens_each_x_plus_r_and_the_summed_mask():
    shifts, x1, x2, y = (SHIFT, SHIFT + 9), _x((4,), 22), _x((4,), 23), _y((3, 4), 24)
    opened = []

    def fn(eng):
        real = eng.open

        def record(a):
            out = real(a)
            opened.append(out)
            return out

        eng.open = record
        eng.tmul([eng.from_public(x1), eng.from_public(x2)], list(shifts), eng.from_public(y))

    run_both(fn, seed=25)
    source = MaterialSource(25, RING)
    masks = []
    for s in shifts:
        r0, rs0, r1, rs1 = source.trunc_pairs(s, 0, 4)
        with np.errstate(over="ignore"):
            masks.append((r0 + r1, rs0 + rs1))
    u0, v0, _, u1, v1, _ = source.triples(0, 12)
    with np.errstate(over="ignore"):
        rs = np.broadcast_to(masks[0][1] + masks[1][1], (3, 4)).ravel()
        want = np.concatenate([x1 + masks[0][0], x2 + masks[1][0], rs + (u0 + u1),
                               y.ravel() - (v0 + v1)])
    assert len(opened) == 2  # one call per party, one exchange each
    assert all(np.array_equal(o, want) for o in opened)


@pytest.mark.parametrize("case", SUMMED)
def test_summed_tmul_transcript_is_value_independent(case):
    shifts, xs, y = _summed_inputs(case, 26)
    _, engines = run_both(_summed_fn(xs, shifts, y), seed=27)
    zeros = [np.zeros_like(x) for x in xs]
    _, other = run_both(_summed_fn(zeros, shifts, None if y is None else np.zeros_like(y)),
                        seed=28)
    ta, tb = engines[0].rt.transcript, other[0].rt.transcript
    # one round for the tmul, then one per opened output
    assert ta.n_rounds == tb.n_rounds == 1 + len(shifts) + (y is not None)
    assert ta.bytes_sent == tb.bytes_sent


@pytest.mark.parametrize("case", SUMMED)
def test_summed_tmul_consumes_the_dry_run_exactly(case):
    shifts, xs, y = _summed_inputs(case, 29)
    fn = _summed_fn(xs, shifts, y)
    counts = estimate_counts(fn, 30, RING)
    n = np.size(xs[0])
    for s in set(shifts) - {None}:
        assert counts[("trunc", s)] == n * shifts.count(s)
    assert ("trunc", None) not in counts
    _, engines = run_both(fn, seed=30, counts=counts)
    for eng in engines:
        assert {k: v for k, v in eng.material.pos.items() if isinstance(k, tuple)} == counts
    for key in counts:
        starved = dict(counts)
        starved[key] -= 1
        with pytest.raises(Exhausted):
            run_both(fn, seed=30, counts=starved)


def test_summed_tmul_takes_one_shift_per_summand():
    eng = PlainEngine(MaterialSource(31, RING), RING)
    x = eng.zeros(3)
    for shift in (SHIFT, [SHIFT], [SHIFT, SHIFT, SHIFT]):
        with pytest.raises(ValueError):
            eng.tmul([x, x], shift)


# --- open with shifts: tmul-style summands released in one round ---

def _release(w, xs, shifts):
    """w as it is plus the truncated xs, opened in one call."""
    def fn(eng):
        return eng.open([eng.from_public(w)] + [eng.from_public(x) for x in xs],
                        [None] + list(shifts))

    return fn


# w broadcast against the (5, 4) output; the second summand broadcast too
RELEASE = (_y((4,), 40), [_x((5, 4), 41), _x((5, 1), 42)], (SHIFT, SHIFT + 9))


def test_open_with_shifts_matches_the_mirror_in_one_round():
    w, xs, shifts = RELEASE
    fn = _release(w, xs, shifts)
    (r0, r1), engines = run_both(fn, seed=43)
    mirror = fn(PlainEngine(MaterialSource(43, RING), RING))
    assert mirror.shape == (5, 4)
    assert np.array_equal(r0, mirror) and np.array_equal(r1, mirror)
    exact = sum(to_signed(x) >> s for x, s in zip(xs, shifts))
    with np.errstate(over="ignore"):
        assert np.abs(to_signed(mirror - w) - exact).max() <= 2  # a carry a truncation
    tr = engines[0].rt.transcript
    assert tr.n_rounds == 1
    # a word per truncated element and one per output element
    assert tr.bytes_sent - FRAME_BYTES == 8 * (20 + 5 + 20)


def test_open_with_shifts_opens_each_x_plus_r_and_w_minus_the_masks():
    w, xs, shifts = RELEASE
    opened = []

    def fn(eng):
        real = eng.open

        def record(a, shift=None):
            out = real(a, shift)
            if shift is None:  # the one exchange
                opened.append(out)
            return out

        eng.open = record
        _release(w, xs, shifts)(eng)

    run_both(fn, seed=44)
    source = MaterialSource(44, RING)
    masks = []
    for x, s in zip(xs, shifts):
        r0, rs0, r1, rs1 = source.trunc_pairs(s, 0, x.size)
        with np.errstate(over="ignore"):
            masks.append(((r0 + r1).reshape(x.shape), (rs0 + rs1).reshape(x.shape)))
    with np.errstate(over="ignore"):
        rest = w - masks[0][1] - masks[1][1]
        want = np.concatenate([(xs[0] + masks[0][0]).ravel(), (xs[1] + masks[1][0]).ravel(),
                               rest.ravel()])
    assert len(opened) == 2  # one call per party, one exchange each
    assert all(np.array_equal(o, want) for o in opened)


def test_open_with_shifts_consumes_the_dry_run_exactly():
    # the mirror's open truncates through its trunc, so the dry run counts
    # the pairs the parties take
    fn = _release(*RELEASE)
    counts = estimate_counts(fn, 45, RING)
    assert counts == {("trunc", SHIFT): 20, ("trunc", SHIFT + 9): 5}
    _, engines = run_both(fn, seed=45, counts=counts)
    for eng in engines:
        assert {k: v for k, v in eng.material.pos.items() if isinstance(k, tuple)} == counts
    for key in counts:
        starved = dict(counts)
        starved[key] -= 1
        with pytest.raises(Exhausted):
            run_both(fn, seed=45, counts=starved)
