import numpy as np
import pytest
from scipy import stats

from veiltrain.engine import MpcEngine, estimate_counts, run_two_party
from veiltrain.errors import (ConfigMismatch, ConnectTimeout, LabelDomainError,
                              MagnitudeOverflow)
from veiltrain.fixedpoint import RingConfig, decode, encode, to_signed
from veiltrain.ingest import ingest_partitions, ingest_shares
from veiltrain.session import run_report
from veiltrain.training import TrainingConfig, l2_normalize, train_pipeline

from conftest import run_both

RING = RingConfig()


def test_handshake_agrees():
    def fn(eng):
        return eng.open(eng.from_public(np.uint64(5)))

    (r0, r1), engines = run_both(fn, public={"frac_bits": 20, "seed": 1})
    assert r0 == r1 == 5
    assert engines[0].rt.session_id == engines[1].rt.session_id == 1


def _handshake_errors(public0, public1):
    """Handshake two parties holding the given public configs; returns the
    exception each party raised, or None."""
    import threading

    from veiltrain.session import PartyRuntime, handshake
    from veiltrain.transport import queue_pair

    ch0, ch1 = queue_pair()
    errors = [None, None]

    def run(party, chan, public):
        try:
            handshake(PartyRuntime(party, 1, chan, RING), public)
        except Exception as exc:  # noqa: BLE001
            errors[party] = exc

    threads = [threading.Thread(target=run, args=(0, ch0, public0)),
               threading.Thread(target=run, args=(1, ch1, public1))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


def test_handshake_bytes_are_pinned():
    # the HELLO frame a party sends: length, kind 1, session 1, frame 0, then
    # the public config's sorted key=value lines with the protocol version
    from veiltrain.session import PartyRuntime, handshake
    from veiltrain.transport import queue_pair

    hello = (b"9\x00\x00\x00\x01\x01\x00\x00\x00\x00\x00\x00\x00"
             b"frac_bits=20\nprotocol_version=veiltrain/1\nseed=1")
    ch0, ch1 = queue_pair()
    ch1.send_bytes(hello)  # the peer's identical hello, already waiting
    rt = PartyRuntime(0, 1, ch0, RING)
    handshake(rt, {"seed": 1, "frac_bits": 20})
    assert ch1.recv_bytes() == hello and rt.io.sent == rt.io.received == 1


def test_an_exchanged_share_is_a_read_only_view_of_the_frame():
    # the peer's words are read in place, so a write into them raises
    from veiltrain.session import PartyRuntime
    from veiltrain.transport import KIND_OPEN, queue_pair, u64_payload

    ch0, ch1 = queue_pair()
    rt0, rt1 = PartyRuntime(0, 1, ch0, RING), PartyRuntime(1, 1, ch1, RING)
    rt1.io.send(KIND_OPEN, u64_payload(np.arange(6)))  # the peer's share, already waiting
    got = rt0.exchange(np.zeros((2, 3), dtype=np.uint64))
    assert got.shape == (2, 3) and np.array_equal(got.ravel(), np.arange(6))
    with pytest.raises(ValueError):
        got[0, 0] = 1


def test_handshake_mismatch_names_key():
    # parties loading different fractional precision must abort on that key
    errors = _handshake_errors({"frac_bits": 20, "seed": 1}, {"frac_bits": 16, "seed": 1})
    assert isinstance(errors[0], ConfigMismatch)
    assert errors[0].key == "frac_bits"


def test_handshake_covers_lambda_reg():
    # lambda_reg sets the step count, which shapes the transcript, so the
    # public section must carry it
    from veiltrain.shareio import DEFAULTS, public_section

    mine = public_section(dict(DEFAULTS, lambda_reg=1.0))
    theirs = public_section(dict(DEFAULTS, lambda_reg=0.5))
    errors = _handshake_errors(mine, theirs)
    for exc in errors:
        assert isinstance(exc, ConfigMismatch)
        assert exc.key == "lambda_reg"


def test_unreachable_peer_times_out():
    from veiltrain.transport import connect

    with pytest.raises(ConnectTimeout):
        connect("127.0.0.1", 9, deadline=0.3)


def test_ingest_zeros():
    rng = np.random.default_rng(0)
    (x0, t0), (x1, t1) = ingest_shares(np.zeros((2, 2)), np.zeros(2), RING, rng)
    assert np.array_equal(x0 + x1, np.zeros((2, 2), dtype=np.uint64))


def test_ingest_small_row():
    rng = np.random.default_rng(1)
    (x0, _), (x1, _) = ingest_shares(np.array([[3.0, 4.0]]), np.array([1.0]), RING, rng)
    # 0.8 rounds up with 0.6, past norm 1, and gives its ulp back
    assert np.abs(decode(x0 + x1, RING) - [0.6, 0.8]).max() <= 2**-20


def test_ingest_round_trip_200x20():
    rng = np.random.default_rng(2)
    X = rng.uniform(-50, 50, (200, 20))
    t = rng.integers(0, 2, 200).astype(float)
    (x0, t0), (x1, t1) = ingest_shares(X, t, RING, rng)
    unit = X / np.linalg.norm(X, axis=1, keepdims=True)
    # the rounding's half ulp, and the ulps a row's largest coordinate gives
    # back where rounding overshot norm 1: about d/2 = 10 at most
    assert np.abs(decode(x0 + x1, RING) - unit).max() <= 2**-16
    assert np.array_equal(t0 + t1, encode(t, RING))


def test_ingest_overflow_reports_cell():
    rng = np.random.default_rng(3)
    for bad in (np.inf, -np.inf, np.nan):
        X = np.zeros((3, 4))
        X[1, 2] = bad
        with pytest.raises(MagnitudeOverflow, match="row 1, col 2"):
            ingest_shares(X, np.zeros(3), RING, rng)


def test_ingest_rejects_labels_outside_0_1():
    rng = np.random.default_rng(4)
    with pytest.raises(LabelDomainError, match="index 2"):
        ingest_shares(np.ones((4, 2)), np.array([0.0, 1.0, 0.5, 1.0]), RING, rng)


def test_ingest_rejects_rows_outside_the_normalization_domain():
    # the owner's scaling takes every finite row, however large or small;
    # a row with a non-finite cell has no direction to keep
    rng = np.random.default_rng(5)
    ok = np.array([[0.0, 0.0], [1e-320, 0.0], [1e300, -1e300], [3e-300, 4e-300]])
    (x0, _), (x1, _) = ingest_shares(ok, np.zeros(4), RING, rng)
    assert np.array_equal(x0 + x1, l2_normalize(np.array([[0, 0], [1, 0], [1, -1], [3, 4]]), RING))
    for bad in (np.nan, np.inf):
        X = np.vstack([ok, [[0.0, bad]]])
        with pytest.raises(MagnitudeOverflow, match="row 4, col 1"):
            ingest_shares(X, np.zeros(5), RING, rng)


def test_vertical_pieces_share_the_cap():
    # each of k vertical owners scales its block of a row to norm 1/sqrt(k),
    # so the assembled row's squared norm is at most 1, exactly in integers
    X = np.array([[3.0, 4.0, 0.0], [1.0, 1.0, 1e-9], [0.0, 0.0, 0.0]])
    t = np.array([0.0, 1.0, 1.0])
    owners = [(X[:, :1], t), (X[:, 1:], None)]
    (x0, _), (x1, _) = ingest_partitions(owners, "vertical", RING, seed=6)
    squared = np.sum(to_signed(x0 + x1) ** 2, axis=1)
    assert np.all(squared <= 1 << 40) and squared[-1] == 0
    assert np.abs(decode(x0 + x1, RING)[0] - [2**-0.5, 2**-0.5, 0]).max() <= 2**-20


@pytest.mark.parametrize("mode", ["horizontal", "vertical"])
def test_owner_splits_ignore_the_session_seed(mode):
    # every role reads the session seed, so no owner's split may derive from
    # it: two calls with one seed draw different halves of equal sums
    X = np.random.default_rng(7).uniform(-0.5, 0.5, (6, 4))
    t = np.array([0.0, 1.0] * 3)
    owners = ([(X[:3], t[:3]), (X[3:], t[3:])] if mode == "horizontal"
              else [(X[:, :2], t), (X[:, 2:], None)])
    (a0, s0), (a1, s1) = ingest_partitions(owners, mode, RING, seed=6)
    (b0, r0), (b1, r1) = ingest_partitions(owners, mode, RING, seed=6)
    assert not np.any(a0 == b0) and not np.any(s0 == r0)
    scaled = (l2_normalize(X, RING) if mode == "horizontal" else
              np.hstack([l2_normalize(X[:, :2], RING, 2), l2_normalize(X[:, 2:], RING, 2)]))
    with np.errstate(over="ignore"):
        assert np.array_equal(a0 + a1, scaled) and np.array_equal(a0 + a1, b0 + b1)
        assert np.array_equal(s0 + s1, encode(t, RING)) and np.array_equal(s0 + s1, r0 + r1)


def test_report_empty_session():
    from veiltrain.session import Transcript

    report = run_report(Transcript(), 0, 1)
    assert report["rounds"] == 0
    assert report["bytes_sent"] == 0


def test_thread_report_survives_json_and_its_rows_sum_to_its_totals():
    import json

    from veiltrain.datasets import synth_data
    from veiltrain.harness import run_mpc_threaded
    from veiltrain.shareio import DEFAULTS

    X, t = synth_data(20, 4, seed=3, separability=1.0)
    report = run_mpc_threaded([(X, t)], "horizontal", DEFAULTS, 1, 3)["report"]
    assert json.loads(json.dumps(report)) == report
    rows = report["paths"].values()
    for column in ("rounds", "bytes_sent", "bytes_received"):
        assert sum(row[column] for row in rows) == report[column] > 0
    assert abs(sum(row["seconds"] for row in rows) - report["seconds"]) <= 1e-6 * len(rows)
    assert sum(row["rode"] for row in rows) > 0  # the noise rode in training's rounds
    assert not any(k.startswith(("phase.", "path.", "overlap.")) for k in report)


def test_single_multiplication_round_and_bytes():
    def fn(eng):
        a = eng.from_public(encode(np.float64(3.0), RING))
        b = eng.from_public(encode(np.float64(4.0), RING))
        return eng.mul(a, b)

    _, engines = run_both(fn)
    tr = engines[0].rt.transcript
    assert tr.n_rounds == 1
    # one multiplication opens exactly 2 ring elements per party
    frame_overhead = 4 + 1 + 4 + 4  # length, kind, session, frame number
    assert tr.bytes_sent == 2 * 8 + frame_overhead


def test_bytes_monotone_in_epochs():
    # every full-batch step is one epoch, and a smaller lambda takes more of
    # them: 7, 10 and 14
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, (12, 3))
    t = rng.integers(0, 2, 12).astype(float)
    totals = []
    for lam in (1.0, 0.5, 0.25):
        tc = TrainingConfig(lambda_reg=lam)

        def fn(eng):
            return train_pipeline(eng, eng.from_public(l2_normalize(X, RING)),
                                  eng.from_public(encode(t, RING)), tc)

        _, engines = run_both(fn)
        totals.append(engines[0].rt.transcript.bytes_sent)
    assert totals[0] < totals[1] < totals[2]


def test_per_phase_breakdown_present():
    # lambda 0.4 is below the linear tier: the step loop runs the sigmoid
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, (8, 3))
    t = rng.integers(0, 2, 8).astype(float)
    tc = TrainingConfig(lambda_reg=0.4)

    def fn(eng):
        return train_pipeline(eng, eng.from_public(l2_normalize(X, RING)),
                              eng.from_public(encode(t, RING)), tc)

    _, engines = run_both(fn)
    rows = run_report(engines[0].rt.transcript, 0, 1)["paths"]
    assert rows["sigmoid"]["rounds"] > 0
    assert rows["forward"]["rounds"] > 0


def test_deterministic_replay():
    rng = np.random.default_rng(6)
    X = rng.uniform(-1, 1, (10, 4))
    t = rng.integers(0, 2, 10).astype(float)
    tc = TrainingConfig()

    def fn(eng):
        return eng.open(train_pipeline(eng, eng.from_public(l2_normalize(X, RING)),
                                       eng.from_public(encode(t, RING)), tc))

    (a0, _), eng_a = run_both(fn, seed=55)
    (b0, _), eng_b = run_both(fn, seed=55)
    assert np.array_equal(a0, b0)
    assert eng_a[0].rt.transcript.bytes_sent == eng_b[0].rt.transcript.bytes_sent
    assert eng_a[0].rt.transcript.n_rounds == eng_b[0].rt.transcript.n_rounds
    # both parties consumed dealer material in the same order and amounts
    assert eng_a[0].material.pos == eng_a[1].material.pos


def test_masked_openings_look_uniform():
    # Beaver openings are uniformly masked; check byte-level uniformity of
    # the d/e values a party receives across many multiplications.
    rng = np.random.default_rng(7)
    x = rng.uniform(-4, 4, 4000)
    y = rng.uniform(-4, 4, 4000)

    def fn(eng):
        a = eng.from_public(encode(x, RING))
        b = eng.from_public(encode(y, RING))
        return eng.mul(a, b)  # openings are d, e

    # capture the raw exchanged payload by tapping exchange
    captured = []

    from veiltrain.session import PartyRuntime

    orig = PartyRuntime.exchange

    def tap(self, payload):
        out = orig(self, payload)
        if self.party_id == 0:
            captured.append(np.asarray(out, dtype=np.uint64).ravel().copy())
        return out

    PartyRuntime.exchange = tap
    try:
        run_both(fn, seed=8)
    finally:
        PartyRuntime.exchange = orig
    words = np.concatenate(captured)
    data = words.view(np.uint8)
    counts = np.bincount(data, minlength=256)
    assert stats.chisquare(counts).pvalue > 0.001


def test_tcp_transport_matches_queue(over_tcp):
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, (10, 3))
    t = rng.integers(0, 2, 10).astype(float)
    tc = TrainingConfig()

    def fn(eng):
        return eng.open(train_pipeline(eng, eng.from_public(l2_normalize(X, RING)),
                                       eng.from_public(encode(t, RING)), tc))

    (q0, _), _ = run_both(fn, seed=10)
    over_tcp()
    (t0_, _), _ = run_both(fn, seed=10)
    assert np.array_equal(q0, t0_)
