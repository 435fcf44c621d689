"""Sign extraction (engine op msb): exact against the true sign and the
clear-text mirror, oblivious, exactly provisioned by the dry run, and at
its pinned per-element cost. The op takes whole 3-bit leaves; values of
fewer bits take the width rounded up, as the kernels give it."""

import numpy as np
import pytest

from veiltrain.dealer import _SPLIT_WORDS, MaterialSource
from veiltrain.engine import PlainEngine, estimate_counts
from veiltrain.errors import Exhausted
from veiltrain.fixedpoint import RingConfig

from conftest import run_both

RING = RingConfig()
FRAME_BYTES = 13  # length, kind, session and round fields of one round's frame


def _whole(bits):
    return -(-bits // 3) * 3


def _inputs(width, seed):
    half = 1 << (width - 1)
    edge = [0, 1, -1, half >> 1, -(half >> 1), -half]
    rand = np.random.default_rng(seed).integers(-half, half, 64, dtype=np.int64)
    return np.concatenate([np.array(edge, dtype=np.int64), rand])


def _msb_fn(values, width):
    raw = values.astype(np.int64).view(np.uint64)

    def fn(eng):
        return eng.open(eng.msb(eng.from_public(raw), width))

    return fn


@pytest.mark.parametrize("width", [2, 3, 4, 5, 34, 45, 63])
def test_msb_exact_and_oblivious(width):
    values = _inputs(width, width)
    want = (values < 0).astype(np.uint64)
    fn = _msb_fn(values, _whole(width))
    (r0, r1), engines = run_both(fn, seed=width)
    mirror = fn(PlainEngine(MaterialSource(width, RING), RING))
    assert np.array_equal(mirror, want)
    assert np.array_equal(r0, mirror) and np.array_equal(r1, mirror)

    other = np.zeros_like(values) - 1
    _, engines_other = run_both(_msb_fn(other, _whole(width)), seed=width + 100)
    ta, tb = engines[0].rt.transcript, engines_other[0].rt.transcript
    assert ta.n_rounds == tb.n_rounds
    assert ta.bytes_sent == tb.bytes_sent


def test_msb_consumes_the_dry_run_exactly():
    fn = _msb_fn(_inputs(34, 1), 36)
    counts = estimate_counts(fn, 1, RING)
    _, engines = run_both(fn, seed=1, counts=counts)
    for eng in engines:
        assert {k: v for k, v in eng.material.pos.items() if isinstance(k, tuple)} == counts
    starved = dict(counts)
    starved[("bit",)] -= 1
    with pytest.raises(Exhausted):
        run_both(fn, seed=1, counts=starved)


@pytest.mark.parametrize("width, rounds, material, wire", [
    (36, 5, {("bit",): 84, ("triple",): 18}, 37),
    (45, 5, {("bit",): 105, ("triple",): 24}, 49),
])
def test_msb_cost_per_element(width, rounds, material, wire):
    n = 10

    def sign_only(eng):
        return eng.msb(eng.from_public(np.zeros(n, dtype=np.uint64)), width)

    counts = estimate_counts(sign_only, 1, RING)
    assert counts == {k: v * n for k, v in material.items()}
    _, engines = run_both(sign_only, seed=1)
    tr = engines[0].rt.transcript
    assert tr.n_rounds == rounds
    assert tr.bytes_sent - FRAME_BYTES * rounds == 8 * wire * n
    words = sum(_SPLIT_WORDS[k[0]] * v for k, v in material.items())
    assert words == {36: 138, 45: 177}[width]
