"""Leading-leaf normalization (engine op lead): exact against the true bits
and the clear-text mirror, oblivious, exactly provisioned by the dry run,
and at its pinned per-element cost.

The leaf ops (msb and lead) take whole 3-bit leaves. Values of fewer bits
go to lead at the width rounded up, as the kernels give them
(kernels._normalize)."""

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
        return eng.open(eng.lead(eng.from_public(values), _whole(width)))

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
