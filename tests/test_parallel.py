"""eng.parallel: independent branches side by side in shared rounds.

PlainEngine runs the branches in turn and reserves their material windows in
that order; MpcEngine runs them at once, each on its own window, and sends
every round's payloads in one exchange. So the joint run reproduces the
mirror bit for bit in as many rounds as its longest branch. A branch may
call parallel itself: its branches' rounds ride in the enclosing call's.
"""

import re
import sys
import threading
import time

import numpy as np
import pytest

from veiltrain.dealer import MaterialSource
from veiltrain.engine import PlainEngine, estimate_counts, run_two_party
from veiltrain.fixedpoint import RingConfig, encode
from veiltrain.kernels import joint_uniform
from veiltrain.session import run_report

RING = RingConfig()
L = RING.frac_bits
X = encode(np.linspace(-2.0, 2.0, 6), RING)


def long_branch(eng):
    """Five rounds, in nested phases: products, truncations, a uniform draw."""
    with eng.phase("outer"):
        x = eng.from_public(X)
        with eng.phase("inner"):
            y = eng.trunc(eng.mul(x, x), L)           # 2 rounds
            y = eng.mul(y, x)                         # 1 round
        u = joint_uniform(eng, (3,))                  # 1 round
        return eng.stack([eng.trunc(y, L), eng.add(y, np.concatenate([u, u]))])


def short_branch(eng):
    """Three rounds: a uniform draw and a truncated square."""
    with eng.phase("short"):
        u = joint_uniform(eng, (6,))
        return eng.trunc(eng.mul(u, u), L)


def local_branch(eng):
    """No round at all."""
    return eng.mul_public_int(eng.add(eng.from_public(X), eng.from_public(X)), 3)


BRANCHES = (long_branch, short_branch, local_branch)


def two_rounds(eng):
    """Two rounds of products."""
    with eng.phase("two"):
        x = eng.from_public(X)
        return eng.mul(eng.mul(x, x), x)


def nesting(eng):
    """Four rounds: a parallel call of the short branch (3 rounds) beside
    two_rounds, whose 2 ride in its first ones, then one product."""
    with eng.phase("nest"):
        s, y = eng.parallel(short_branch, two_rounds)
        return eng.mul(s, y)


def nested(eng):
    """The long branch (5 rounds) beside the nesting one (4)."""
    return eng.parallel(long_branch, nesting)


def opened_nested(eng):
    return [eng.open(r) for r in nested(eng)]


def merged(eng):
    return eng.parallel(*BRANCHES)


def opened(eng):
    return [eng.open(r) for r in merged(eng)]


def mirror(fn, seed):
    return fn(PlainEngine(MaterialSource(seed, RING), RING))


def alone(branch, seed=3):
    """Party 0's transcript of the branch run by itself."""
    _, engines = run_two_party(branch, session_seed=seed, cfg=RING)
    return engines[0].rt.transcript


def _column(rows, column):
    """A column of a report's path rows, at the rows where it is nonzero."""
    return {path: row[column] for path, row in rows.items() if row[column]}


def test_parallel_matches_the_mirror_bit_for_bit(over_tcp):
    want = mirror(opened, 3)
    for transport in ("queue", "tcp"):
        if transport == "tcp":
            over_tcp()
        results, _ = run_two_party(opened, session_seed=3, cfg=RING)
        for got in results:
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


def test_parallel_equals_the_branches_in_turn():
    # the same values as running the branches one after another on MpcEngine
    def in_turn(eng):
        return [eng.open(branch(eng)) for branch in BRANCHES]

    seq, _ = run_two_party(in_turn, session_seed=4, cfg=RING)
    par, _ = run_two_party(opened, session_seed=4, cfg=RING)
    for a, b in zip(seq[0], par[0]):
        assert np.array_equal(a, b)


def test_merged_rounds_are_the_longest_branch():
    each = [alone(b) for b in BRANCHES]
    assert [tr.n_rounds for tr in each] == [5, 3, 0]
    _, engines = run_two_party(merged, session_seed=3, cfg=RING)
    tr = engines[0].rt.transcript
    assert tr.n_rounds == 5
    # the same payload words; the short branch's 3 rounds save their frames'
    # 13-byte headers (length, kind, session, round)
    assert tr.bytes_sent == sum(t.bytes_sent for t in each) - 3 * 13


def test_many_branches_under_fast_thread_switching():
    # more branches than cores, of 1 to 6 rounds, with the interpreter
    # switching threads every 10 us: the merged run still equals the mirror,
    # in as many rounds as the longest branch
    def branch(rounds):
        def run(eng):
            x = eng.from_public(X)
            for _ in range(rounds):
                x = eng.mul(x, x)
            return x
        return run

    def fn(eng):
        return eng.open(eng.stack(list(eng.parallel(*(branch(k) for k in (3, 6, 1, 4, 2, 5))))))

    want = mirror(fn, 6)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        box = _within(60, lambda: run_two_party(fn, session_seed=6, cfg=RING))
    finally:
        sys.setswitchinterval(old)
    assert "exc" not in box, box.get("exc")
    results, engines = box["out"]
    assert np.array_equal(results[0], want) and np.array_equal(results[1], want)
    assert engines[0].rt.transcript.n_rounds == 6 + 1


def test_nested_branches_under_fast_thread_switching():
    # calls nested two deep, with the interpreter switching threads every
    # 10 us: the merged run equals the mirror in as many rounds as its
    # longest branch
    def branch(rounds):
        def run(eng):
            x = eng.from_public(X)
            for _ in range(rounds):
                x = eng.mul(x, x)
            return x
        return run

    def inner(eng):
        return eng.stack(list(eng.parallel(branch(4), branch(2), local_branch)))

    def middle(eng):
        a, b, c = eng.parallel(branch(6), branch(1), inner)
        return eng.stack([a, b, *c])

    def fn(eng):
        a, b, c = eng.parallel(branch(3), middle, branch(5))
        return eng.open(eng.stack([a, *b, c]))

    want = mirror(fn, 7)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        box = _within(60, lambda: run_two_party(fn, session_seed=7, cfg=RING))
    finally:
        sys.setswitchinterval(old)
    assert "exc" not in box, box.get("exc")
    results, engines = box["out"]
    assert np.array_equal(results[0], want) and np.array_equal(results[1], want)
    assert engines[0].rt.transcript.n_rounds == 6 + 1


def test_report_paths_sum_to_rounds_and_record_the_overlap():
    _, engines = run_two_party(merged, session_seed=3, cfg=RING)
    report = run_report(engines[0].rt.transcript, 0, 1)
    rows = report["paths"]
    assert sum(row["rounds"] for row in rows.values()) == report["rounds"] == 5
    # rounds go under the long branch's nested phases, the short one rides
    assert _column(rows, "rounds") == {"outer/inner": 3, "outer/uniform": 1, "outer": 1}
    assert _column(rows, "rode") == {"short/uniform": 1, "short": 2}


def test_cursors_end_exactly_at_the_dry_run_counts():
    dry = PlainEngine(MaterialSource(0, RING), RING)
    merged(dry)
    counts = estimate_counts(merged, 0, RING)
    assert counts == dry.counts() and len(counts.windows) == 1
    _, engines = run_two_party(merged, session_seed=3, counts=counts, cfg=RING)
    for eng in engines:
        assert eng.material.pos == {k: v for k, v in dry.pos.items() if v}


def test_branches_run_in_threads_of_the_callers_name():
    names = []

    def named(eng):
        if not isinstance(eng, PlainEngine):  # not the dry run
            names.append((eng.party, threading.current_thread().name))
        return short_branch(eng)

    run_two_party(lambda eng: eng.parallel(named, named, named), session_seed=3, cfg=RING)
    assert sorted(names) == [(0, "party0")] * 3 + [(1, "party1")] * 3


def test_each_branch_starts_in_the_callers_phases():
    seen = {}

    def first(eng):
        with eng.phase("first"):
            time.sleep(0.05)  # inside its phase while the other branch starts
            return short_branch(eng)

    def second(eng):
        if not isinstance(eng, PlainEngine):  # not the dry run
            seen[eng.party] = list(eng.rt.transcript.phase_stack)
        return short_branch(eng)

    def fn(eng):
        with eng.phase("outer"):
            return eng.parallel(first, second)

    run_two_party(fn, session_seed=3, cfg=RING)
    assert seen == {0: ["-", "outer"], 1: ["-", "outer"]}


@pytest.mark.parametrize("transport", ["queue", "tcp"])
def test_nested_parallel_matches_the_mirror(transport, over_tcp):
    if transport == "tcp":
        over_tcp()
    want = mirror(opened_nested, 5)
    results, engines = run_two_party(opened_nested, session_seed=5, cfg=RING)
    for got in results:
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert [tr.n_rounds for tr in (alone(long_branch, 5), alone(nesting, 5))] == [5, 4]
    assert engines[0].rt.transcript.n_rounds == 5 + 2  # and one opening per result


def test_nested_parallel_in_a_process_session_matches_the_mirror(tmp_path):
    # a session's noise runs its own parallel call inside the branch that
    # runs beside training; over dealer and party processes, the models
    # equal the mirror's (the noisy ones as printed, to 10 digits)
    from veiltrain.datasets import synth_data
    from veiltrain.fixedpoint import decode
    from veiltrain.harness import dp_params, party_pipeline, run_mpc_process, training_config
    from veiltrain.ingest import ingest_partitions
    from veiltrain.shareio import DEFAULTS, ring_from_config

    X, t = synth_data(40, 4, seed=10, separability=1.0)
    cfg = dict(DEFAULTS, noise_draws=2, epsilon=1.0, seed=15)
    res = run_mpc_process([(X, t)], "horizontal", cfg, seed=15, draws=2,
                          workdir=str(tmp_path / "run"))
    ring = ring_from_config(cfg)
    (X0, t0), (X1, t1) = ingest_partitions([(X, t)], "horizontal", ring)
    with np.errstate(over="ignore"):
        out = party_pipeline(PlainEngine(MaterialSource(15, ring), ring), X0 + X1, t0 + t1,
                             training_config(cfg), dp_params(cfg, 40, 4), 2)
    assert np.array_equal(res["w_raw"], out["w_share"])
    printed = np.vectorize(lambda v: float(f"{v:.10g}"))(decode(out["noisy"], ring))
    assert np.array_equal(res["noisy_models"], printed)


def test_nested_windows_sit_under_their_branch():
    counts = estimate_counts(nested, 0, RING)
    [(bounds, inner)] = counts.windows
    assert len(bounds) == 3 and inner[0] == ()
    [(nest_bounds, nest_inner)] = inner[1]
    # the nested call's windows start where its branch's does
    assert nest_bounds[0] == bounds[1] and nest_inner == ((), ())
    _, engines = run_two_party(nested, session_seed=3, counts=counts, cfg=RING)
    dry = PlainEngine(MaterialSource(0, RING), RING)
    nested(dry)
    for eng in engines:
        assert eng.material.pos == {k: v for k, v in dry.pos.items() if v}


def test_a_nested_call_must_match_the_dry_run():
    from veiltrain.errors import Exhausted

    def three(eng):
        with eng.phase("nest"):
            return eng.parallel(short_branch, two_rounds, local_branch)

    counts = estimate_counts(nested, 0, RING)
    flat = estimate_counts(lambda eng: eng.parallel(long_branch, short_branch), 0, RING)
    for fn, provisioned in ((lambda eng: eng.parallel(long_branch, three), counts),
                            (nested, flat)):
        box = _within(10, lambda: run_two_party(fn, session_seed=3, counts=provisioned,
                                                cfg=RING))
        assert isinstance(box.get("exc"), Exhausted)


def test_report_counts_every_branch_that_rode():
    _, engines = run_two_party(nested, session_seed=3, cfg=RING)
    rows = run_report(engines[0].rt.transcript, 0, 1)["paths"]
    assert _column(rows, "rounds") == {"outer/inner": 3, "outer/uniform": 1, "outer": 1}
    # the nesting branch's 4 rounds ride, and in its inner call's first 2
    # the two_rounds branch rides beside the short one
    assert _column(rows, "rode") == {"nest/short/uniform": 1, "nest/short": 2,
                                     "nest/two": 2, "nest": 1}


def test_parallel_call_must_match_the_dry_run():
    counts = estimate_counts(lambda eng: eng.parallel(short_branch, short_branch), 0, RING)
    from veiltrain.errors import Exhausted

    with pytest.raises(Exhausted, match="dry run"):
        run_two_party(lambda eng: eng.parallel(short_branch, short_branch, short_branch),
                      session_seed=3, counts=counts, cfg=RING)


class Boom(Exception):
    pass


def _three_rounds_then_fail(eng):
    """Three rounds; party 1 then fails (the dry run plays party 0)."""
    x = eng.from_public(X)
    for _ in range(3):
        x = eng.mul(x, x)
    if eng.party == 1:
        raise Boom("party 1 failed after round 3")
    return eng.mul(x, x)


def _within(seconds, fn):
    """fn() in a daemon thread; its result or exception, which must come
    within the given seconds."""
    box = {}

    def call():
        try:
            box["out"] = fn()
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            box["exc"] = exc

    t = threading.Thread(target=call, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"no result within {seconds} s"
    return box


def _fails_fast(fn):
    before = set(threading.enumerate())
    box = _within(5, lambda: run_two_party(fn, session_seed=3, cfg=RING))
    assert isinstance(box.get("exc"), Boom)
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("transport", ["queue", "tcp"])
def test_a_failing_party_stops_its_peer_at_once(transport, over_tcp):
    if transport == "tcp":
        over_tcp()
    _fails_fast(_three_rounds_then_fail)


def test_a_failing_branch_stops_its_siblings_and_its_peer():
    _fails_fast(lambda eng: eng.parallel(_long_rounds, _three_rounds_then_fail, local_branch))


def _long_rounds(eng):
    x = eng.from_public(X)
    for _ in range(8):
        x = eng.mul(x, x)
    return x


def test_a_failing_inner_branch_stops_the_session():
    _fails_fast(lambda eng: eng.parallel(
        _long_rounds, lambda e: e.parallel(_long_rounds, _three_rounds_then_fail)))


def test_a_failing_outer_branch_stops_the_nested_ones():
    _fails_fast(lambda eng: eng.parallel(
        _three_rounds_then_fail, lambda e: e.parallel(_long_rounds, two_rounds, local_branch)))


def _in_a_dict(eng):
    """The short branch's rounds, its result in a dict."""
    return {"u": short_branch(eng)}


@pytest.mark.parametrize("engine", ["mirror", "parties"])
def test_a_branch_that_returns_neither_an_array_nor_results_is_named(engine):
    # what the callers count (np.size) must be an array or engine.Results;
    # the parties run on the material of a branch that returns its array
    def fn(eng):
        return eng.parallel(long_branch, _in_a_dict)

    match = r"^parallel branch 1 \(_in_a_dict\) returned dict, not an array"
    if engine == "mirror":
        with pytest.raises(TypeError, match=match):
            mirror(fn, 3)
        return
    counts = estimate_counts(lambda eng: eng.parallel(long_branch, short_branch), 3, RING)
    box = _within(5, lambda: run_two_party(fn, session_seed=3, counts=counts, cfg=RING))
    assert isinstance(box.get("exc"), TypeError) and re.match(match, str(box["exc"]))
