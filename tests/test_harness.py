import os
import subprocess
import sys
import time

import numpy as np
import pytest

from veiltrain.datasets import evaluate, make_plan, partition, synth_data
from veiltrain.dealer import with_slack
from veiltrain.engine import estimate_counts, run_two_party
from veiltrain.errors import VeiltrainError
from veiltrain.harness import (ExperimentReport, dp_params, party_pipeline, pipeline_counts,
                               run_experiment, run_mpc_threaded, training_config, write_report)
from veiltrain.ingest import ingest_partitions
from veiltrain.shareio import DEFAULTS, ring_from_config

from conftest import ACCEPTED_RINGS, block_scaled_session, mirror_weights


def tiny_cfg(**over):
    cfg = dict(DEFAULTS)
    cfg.update({"n": 80, "m": 6, "noise_draws": 4, "folds": 2,
                "owners": "2", "modes": "horizontal", "executor": "thread",
                "epsilon": 1.0, "separability": 1.0, "seed": 5})
    cfg.update(over)
    return cfg


def test_mpc_equals_mirror_without_noise():
    # a single owner and no noise: the opened coefficients equal the
    # clear-text mirror trainer exactly, so accuracy matches exactly
    X, t = synth_data(60, 5, seed=1, separability=1.0)
    cfg = tiny_cfg(epsilon=0.0)
    res = run_mpc_threaded([(X, t)], "horizontal", cfg, seed=9, draws=0)
    mirror = mirror_weights(X, t, training_config(cfg), seed=9)
    from veiltrain.fixedpoint import decode

    assert np.array_equal(decode(res["w_raw"]), mirror)


@pytest.mark.parametrize("frac_bits", ACCEPTED_RINGS)
def test_a_session_matches_its_mirror_on_every_accepted_ring(frac_bits):
    # from 12, the coarsest ring ring_from_config accepts, to 22, the finest
    # on which secure_rsqrt's correction operand, (1 - m y^2) at 3l + 3
    # fractional bits, stays inside the truncation masks' range on every
    # mantissa. Training and the noise match the mirror bit for bit
    from veiltrain.dealer import MaterialSource
    from veiltrain.engine import PlainEngine
    from veiltrain.fixedpoint import decode, encode
    from veiltrain.training import l2_normalize

    cfg = tiny_cfg(frac_bits=frac_bits)
    ring = ring_from_config(cfg)
    X, t = synth_data(20, 4, seed=6, separability=1.0)
    X = l2_normalize(X, ring)
    tc, dp = training_config(cfg), dp_params(cfg, 20, 4)

    def fn(eng):
        out = party_pipeline(eng, eng.from_public(X), eng.from_public(encode(t, ring)),
                             tc, dp, 3)
        return eng.open(out["w_share"]), out["noisy"]

    (r0, r1), _ = run_two_party(fn, session_seed=7, cfg=ring)
    mirror = fn(PlainEngine(MaterialSource(7, ring), ring))
    for got in (r0, r1):
        assert all(np.array_equal(a, b) for a, b in zip(got, mirror))
    w, noisy = decode(mirror[0], ring), decode(mirror[1], ring)
    # the noise's norm is Gamma(4, 2/(20 epsilon lambda)): mean 0.4
    assert np.all(np.linalg.norm(noisy - w, axis=1) < 4.0) and np.any(w != 0)


def test_partition_modes_identical_coefficients():
    # horizontal owners scale whole rows, so every split gives the same
    # session; vertical owners scale their blocks, so a vertical session is
    # the one-owner session on the block-scaled matrix they produce
    X, t = synth_data(64, 8, seed=2, separability=1.0)
    cfg = tiny_cfg()
    outs = []
    for mode, k in (("horizontal", 2), ("horizontal", 4), ("vertical", 2)):
        parts = partition(X, t, make_plan(mode, k, 64, 8))
        outs.append(run_mpc_threaded(parts, mode, cfg, seed=11, draws=2))
    assert np.array_equal(outs[0]["w_raw"], outs[1]["w_raw"])
    # noisy draws share the same randomness streams too
    assert np.array_equal(outs[0]["noisy_models"], outs[1]["noisy_models"])
    w_raw, noisy = block_scaled_session(partition(X, t, make_plan("vertical", 2, 64, 8)),
                                        cfg, 11, 2)
    assert np.array_equal(outs[2]["w_raw"], w_raw)
    assert np.array_equal(outs[2]["noisy_models"], noisy)


def test_experiment_report_structure(tmp_path):
    cfg = tiny_cfg(modes="horizontal,vertical", owners="2,3")
    report = run_experiment(cfg)
    lines = report.csv_text().strip().splitlines()
    assert lines[0] == "owners,mode,method,mean_acc,std_acc,runtime_s,bytes"
    rows = {tuple(l.split(",")[:3]): l.split(",") for l in lines[1:]}
    assert rows[("2", "vertical", "baseline")][3] == "-"  # marked like Table 2
    mpc = {k[:2]: float(v[3]) for k, v in rows.items() if k[2] == "mpc_dp"}
    # horizontal owners give one model whatever their count; vertical owners
    # scale their blocks of a row, at a small cost in accuracy
    assert mpc[("2", "horizontal")] == mpc[("3", "horizontal")]
    assert all(abs(acc - mpc[("2", "horizontal")]) <= 0.05 for acc in mpc.values())
    # four opened copies of one model at epsilon 1 compose to 4 (basic composition)
    assert report.meta["epsilon_total"] == 4.0
    assert "epsilon_total = 4.0" in report.text()
    write_report(report, tmp_path)
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "report.txt").exists()


def test_experiment_regenerable(tmp_path):
    cfg = tiny_cfg()
    a = run_experiment(cfg)
    b = run_experiment(cfg)

    def strip_runtime(report):
        rows = []
        for line in report.csv_text().splitlines():
            parts = line.split(",")
            if len(parts) >= 6:
                parts[5] = "-"
            rows.append(",".join(parts))
        return "\n".join(rows)

    assert strip_runtime(a) == strip_runtime(b)
    assert a.meta["data_hash"] == b.meta["data_hash"]


def test_ingest_reconstruction_partition_invariant():
    # owners split the matrix differently, but the assembled secret dataset
    # reconstructs bit for bit to the rows as one owner scales them, or under
    # vertical partitioning to the blocks as their owners scale them
    from veiltrain.fixedpoint import RingConfig, encode
    from veiltrain.training import l2_normalize

    ring = RingConfig()
    X, t = synth_data(40, 6, seed=21, separability=1.0)
    blocks = np.concatenate([l2_normalize(X[:, a:b], ring, 3) for a, b in ((0, 2), (2, 4), (4, 6))],
                            axis=1)
    for mode, k, want in (("horizontal", 2, l2_normalize(X, ring)),
                          ("horizontal", 5, l2_normalize(X, ring)), ("vertical", 3, blocks)):
        plan = make_plan(mode, k, 40, 6)
        parts = partition(X, t, plan)
        (X0, t0), (X1, t1) = ingest_partitions(parts, mode, ring, seed=22)
        assert np.array_equal(X0 + X1, want)
        assert np.array_equal(t0 + t1, encode(t, ring))


def test_pipeline_counts_cover_consumption():
    # the dry run on zeros is exact: both parties of a session on real shares
    # consume exactly its counts, which pipeline_counts provisions unpadded
    # by default, windows of the parallel noise branch included
    X, t = synth_data(40, 5, seed=3, separability=1.0)
    cfg = tiny_cfg()
    ring = ring_from_config(cfg)
    tc, dp = training_config(cfg), dp_params(cfg, 40, 5)
    shares = ingest_partitions([(X, t)], "horizontal", ring, seed=12)
    counts = pipeline_counts(40, 5, cfg, draws=2)
    _, engines = run_two_party(lambda eng: party_pipeline(eng, *shares[eng.party], tc, dp, 2),
                               session_seed=12, counts=counts, cfg=ring)
    dry = estimate_counts(lambda eng: party_pipeline(eng, eng.zeros((40, 5)), eng.zeros(40),
                                                     tc, dp, 2), 0, ring)
    for eng in engines:
        assert {k: v for k, v in eng.material.pos.items() if isinstance(k, tuple)} == dry
    assert counts == dry and counts.windows == dry.windows
    assert with_slack(counts, 0.5).windows == dry.windows


def test_report_contains_traffic():
    X, t = synth_data(40, 5, seed=4, separability=1.0)
    cfg = tiny_cfg()
    res = run_mpc_threaded([(X, t)], "horizontal", cfg, seed=13, draws=2)
    assert res["bytes"] > 0
    rows = res["report"]["paths"]
    assert rows["forward"]["rounds"] > 0
    # the noise's 33 rounds (odd d) ride in training's 37, where the report
    # counts them in its rows' rode, its own branches' 6 shared rounds twice;
    # one more opens the models
    rode = {path: row["rode"] for path, row in rows.items() if path.startswith("perturb")}
    assert rode["perturb"] > 0 and sum(rode.values()) == 33 + 6
    assert res["rounds"] == 37 + 1


class _RecordingLauncher:
    """Stands in for the subprocess module inside veiltrain.harness, as the
    benchmark's launcher does: Popen and PIPE only. Keeps every process it
    starts; replace(argv) may alter a role's command line first."""

    PIPE = subprocess.PIPE

    def __init__(self, replace=lambda argv: argv):
        self.procs = []
        self.replace = replace

    def Popen(self, argv, **kwargs):  # noqa: N802 - mirrors subprocess.Popen
        proc = subprocess.Popen(self.replace(argv), **kwargs)
        self.procs.append(proc)
        return proc


def _process_session(monkeypatch, tmp_path, launcher):
    from veiltrain import harness

    monkeypatch.setattr(harness, "subprocess", launcher)
    X, t = synth_data(40, 4, seed=10, separability=1.0)
    cfg = dict(DEFAULTS, noise_draws=2, epsilon=1.0, seed=15)
    start = time.monotonic()
    with pytest.raises(VeiltrainError) as err:
        harness.run_mpc_process([(X, t)], "horizontal", cfg, seed=15, draws=2,
                                workdir=str(tmp_path / "run"))
    assert len(launcher.procs) == 3
    assert all(proc.returncode is not None for proc in launcher.procs)  # all reaped
    return str(err.value), time.monotonic() - start


def test_a_failing_role_stops_the_process_session_at_once(monkeypatch, tmp_path):
    # party 1 cannot read its share file; the dealer and party 0 would wait
    # 15 s for it to connect, but are killed once it exits
    def unreadable(argv):
        if argv[-1] == "party1":
            shares = os.path.join(os.path.dirname(argv[argv.index("--config") + 1]),
                                  "data.party1.shares")
            os.remove(shares)
            os.mkdir(shares)
        return argv

    msg, took = _process_session(monkeypatch, tmp_path, _RecordingLauncher(unreadable))
    assert took < 10
    assert msg.startswith("subprocess pipeline failed: party1 exited with status 1\n")
    assert "IsADirectoryError" in msg
    assert all(f"[{role}] exit" in msg for role in ("dealer", "party0", "party1"))


def test_a_hanging_process_session_is_killed_at_its_deadline(monkeypatch, tmp_path):
    from veiltrain import harness

    def hang(argv):
        return [sys.executable, "-c", "import time; time.sleep(60)"]

    monkeypatch.setattr(harness, "ROLE_DEADLINE_S", 1.0)
    msg, took = _process_session(monkeypatch, tmp_path, _RecordingLauncher(hang))
    assert took < 10
    assert msg.startswith("subprocess pipeline failed: dealer, party0, party1 still running "
                          "after 1 s\n")
