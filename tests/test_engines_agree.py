"""The secure engine agrees with the clear-text one as a property: on random
shapes and tmul-style summands (1 to 3, each with a scalar shift, one shift
per row, or none), MpcEngine's tmul, mul, open and lead reconstruct to what
PlainEngine returns, bit for bit, and so do its jointly sampled uniforms and
geometric exponents on random shapes and rings; each takes exactly the
material its dry run counts."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from veiltrain.dealer import MaterialSource
from veiltrain.engine import PlainEngine, estimate_counts
from veiltrain.fixedpoint import RingConfig

from conftest import ACCEPTED_RINGS, run_both

ONE_SHIFT = st.one_of(st.none(), st.integers(1, 60))


@st.composite
def cases(draw):
    """Summands of one shape with their shifts, a product asked of tmul
    (y with rows, or square as True, a row list or a pair of index
    arrays), mul's second operand and lead's width."""
    rows = draw(st.integers(1, 4))
    shape = (rows,) + tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    k = draw(st.integers(1, 3))
    shift = st.one_of(ONE_SHIFT, st.lists(ONE_SHIFT, min_size=rows, max_size=rows))
    row = st.integers(0, rows - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def words(shape):
        return rng.integers(0, 2 ** 64, shape, dtype=np.uint64, endpoint=False)

    case = {"xs": [words(shape) for _ in range(k)], "shifts": [draw(shift) for _ in range(k)],
            "listed": k > 1 or draw(st.booleans()), "y": None, "rows": None, "square": False,
            "b": words(draw(st.sampled_from([shape, shape[1:]]))),
            "width": draw(st.sampled_from(range(3, 64, 3))),
            "frac_bits": draw(st.sampled_from(ACCEPTED_RINGS)), "seed": draw(st.integers(1, 999))}
    product = draw(st.sampled_from(["y", "square", "both", None]))
    if product in ("y", "both"):
        case["rows"] = draw(st.one_of(st.none(), st.lists(row, min_size=1, max_size=4)))
        lead = rows if case["rows"] is None else len(case["rows"])
        case["y"] = words(draw(st.sampled_from([(lead,) + shape[1:], shape[1:]])))
    if product in ("square", "both"):
        m = draw(st.integers(1, 4))
        pair = st.tuples(*[st.lists(row, min_size=m, max_size=m)] * 2)
        case["square"] = draw(st.one_of(st.just(True), st.lists(row, min_size=1, max_size=4),
                                        pair.map(lambda p: tuple(map(np.array, p)))))
    return case


def _ops(case):
    def fn(eng):
        xs = [eng.from_public(x) for x in case["xs"]]
        shifts = case["shifts"]
        x, shift = (xs, shifts) if case["listed"] else (xs[0], shifts[0])
        y = None if case["y"] is None else eng.from_public(case["y"])
        out = list(eng.tmul(x, shift, y, square=case["square"], rows=case["rows"]))
        out.append(eng.mul(xs[0], eng.from_public(case["b"])))
        out += eng.lead(xs, case["width"], shifts)
        return [eng.open(v) for v in out] + [eng.open(x, shift), eng.open(xs, shifts)]

    return fn


@settings(max_examples=60, deadline=None)
@given(cases())
def test_tmul_mul_open_and_lead_match_the_plain_engine(case):
    ring, seed, fn = RingConfig(case["frac_bits"]), case["seed"], _ops(case)
    mirror = fn(PlainEngine(MaterialSource(seed, ring), ring))
    counts = estimate_counts(fn, seed, ring)
    results, engines = run_both(fn, seed=seed, cfg=ring, counts=counts)
    for got in results:
        assert len(got) == len(mirror)
        for g, m in zip(got, mirror):
            assert g.shape == m.shape and np.array_equal(g, m)
    for eng in engines:
        assert {k: v for k, v in eng.material.pos.items() if isinstance(k, tuple)} == counts


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=2), st.sampled_from(ACCEPTED_RINGS),
       st.integers(1, 999))
def test_joint_uniform_and_geometric_match_the_plain_engine(shape, frac_bits, seed):
    ring, shape = RingConfig(frac_bits), tuple(shape)

    def fn(eng):
        return [eng.open(eng.joint_uniform(shape)), eng.open(eng.joint_geometric(shape)),
                eng.open(eng.joint_uniform(shape[:1]))]

    mirror = fn(PlainEngine(MaterialSource(seed, ring), ring))
    counts = estimate_counts(fn, seed, ring)
    results, engines = run_both(fn, seed=seed, cfg=ring, counts=counts)
    for got in results:
        assert all(g.shape == m.shape and np.array_equal(g, m) for g, m in zip(got, mirror))
    for eng in engines:
        assert {k: v for k, v in eng.material.pos.items() if isinstance(k, tuple)} == counts
