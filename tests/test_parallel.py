"""eng.parallel: independent branches side by side in shared rounds.

PlainEngine runs the branches in turn and reserves their material windows in
that order; MpcEngine runs them at once, each on its own window, and sends
every round's payloads in one exchange. So the joint run reproduces the
mirror bit for bit in as many rounds as its longest branch.
"""

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


def test_report_paths_sum_to_rounds_and_record_the_overlap():
    _, engines = run_two_party(merged, session_seed=3, cfg=RING)
    report = run_report(engines[0].rt.transcript, 0, 1)
    paths = {k: v for k, v in report.items()
             if k.startswith("path.") and k.endswith(".rounds")}
    assert sum(paths.values()) == report["rounds"] == 5
    # rounds go under the long branch's nested phases, the short one rides
    assert paths == {"path.outer/inner.rounds": 3, "path.outer/uniform.rounds": 1,
                     "path.outer.rounds": 1}
    assert {k: v for k, v in report.items() if k.startswith("overlap.")} == {
        "overlap.short/uniform.rounds": 1, "overlap.short.rounds": 2}


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


def test_parallel_does_not_nest():
    def nested(eng):
        return eng.parallel(short_branch, lambda e: e.parallel(short_branch))

    with pytest.raises(ValueError, match="nest"):
        mirror(nested, 3)
    counts = estimate_counts(lambda eng: eng.parallel(short_branch, short_branch), 0, RING)
    with pytest.raises(ValueError, match="nest"):
        run_two_party(nested, session_seed=3, counts=counts, cfg=RING)


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
    def long_rounds(eng):
        x = eng.from_public(X)
        for _ in range(8):
            x = eng.mul(x, x)
        return x

    _fails_fast(lambda eng: eng.parallel(long_rounds, _three_rounds_then_fail, local_branch))
