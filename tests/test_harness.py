import contextlib
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from veiltrain import kernels
from veiltrain.datasets import evaluate, make_plan, partition, synth_data
from veiltrain.dealer import MaterialSource, with_slack
from veiltrain.engine import PlainEngine, estimate_counts, run_two_party
from veiltrain.errors import VeiltrainError
from veiltrain.fixedpoint import RingConfig, encode, to_signed
from veiltrain.noise import DpParams, noise_shift, sample_noise
from veiltrain.training import TrainingConfig, l2_normalize, mean_bits
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
    # from 12 to 22, the coarsest and the finest rings ring_from_config
    # accepts (shareio.COARSEST_FRAC_BITS, FINEST_FRAC_BITS). Training and
    # the noise match the mirror bit for bit
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


def test_experiment_rows_match_across_executors(tmp_path):
    # the process executor, the CLI's default, reports the thread
    # executor's rows, the vertical baseline's "-" included, runtime aside
    cfg = tiny_cfg(modes="horizontal,vertical", noise_draws=2)

    def rows(executor):
        report = run_experiment(dict(cfg, executor=executor), str(tmp_path / executor))
        return [row.split(",")[:5] + row.split(",")[6:] for row in report.csv_text().splitlines()]

    process = rows("process")
    assert process == rows("thread")
    assert ["2", "vertical", "baseline", "-", "-", "-"] in process


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
    # at lambda 0.4, below the linear tier, training is the sigmoid's step
    # loop: 10 steps after the first of 7 rounds each, 72 rounds
    X, t = synth_data(40, 5, seed=4, separability=1.0)
    cfg = tiny_cfg(lambda_reg=0.4)
    res = run_mpc_threaded([(X, t)], "horizontal", cfg, seed=13, draws=2)
    assert res["bytes"] > 0
    rows = res["report"]["paths"]
    assert rows["forward"]["rounds"] > 0
    # all of the noise's 24 rounds (odd d; its last truncation is left to
    # the opening) ride in training's, where the report counts them in its
    # rows' rode, its own branches' 4 shared rounds twice; one more round
    # opens the models
    rode = {path: row["rode"] for path, row in rows.items() if path.startswith("perturb")}
    assert rode["perturb"] > 0 and sum(rode.values()) == 24 + 4
    assert res["rounds"] == 72 + 1


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


def test_each_process_role_holds_only_its_own_seed_and_the_session_replays(tmp_path):
    # a replayed process session (seed 15) writes each role a config with
    # its own seed alone: the dealer's dealer_seed, a party's bit_seed, and
    # nowhere the session seed, the split seed or another role's seed; the
    # share files and the handshake carry none either. The session still
    # equals its mirror, PlainEngine(MaterialSource(15)), bit for bit
    import re

    from veiltrain.dealer import role_seeds, split_seed
    from veiltrain.fixedpoint import decode
    from veiltrain.harness import run_mpc_process
    from veiltrain.shareio import load_config, public_section, read_share_file

    X, t = synth_data(40, 4, seed=10, separability=1.0)
    cfg = tiny_cfg(noise_draws=2, seed=15)
    res = run_mpc_process([(X, t)], "horizontal", cfg, seed=15, draws=2, workdir=str(tmp_path))
    seeds = role_seeds(15)
    every = {**seeds, "split": split_seed(seeds["dealer"])}  # and no role reads seed itself
    own_key = {"dealer": "dealer_seed", "party0": "bit_seed", "party1": "bit_seed"}
    for role, key in own_key.items():
        text = (tmp_path / f"{role}.cfg").read_text()
        keys = {line.split("=")[0].strip() for line in text.splitlines()}
        assert keys & {"seed", "dealer_seed", "bit_seed"} == {key}
        assert load_config(tmp_path / f"{role}.cfg")[key] == seeds[role]
        numbers = set(map(int, re.findall(r"\d+", text)))
        assert numbers & set(every.values()) == {seeds[role]}
    for party in (0, 1):
        meta = read_share_file(str(tmp_path / f"data.party{party}.shares"))[1]
        hello = public_section(load_config(tmp_path / f"party{party}.cfg"))
        held = {str(v) for v in [*meta.values(), *hello.values()]}
        assert not held & {str(v) for v in every.values()}
        assert not [k for k in [*meta, *hello] if "seed" in k]

    ring = ring_from_config(cfg)
    (X0, t0), (X1, t1) = ingest_partitions([(X, t)], "horizontal", ring)
    with np.errstate(over="ignore"):
        mirror = party_pipeline(PlainEngine(MaterialSource(15, ring), ring), X0 + X1, t0 + t1,
                                training_config(cfg), dp_params(cfg, 40, 4), 2)
    assert np.array_equal(res["w_raw"], mirror["w_share"])
    # noisy.party0.csv carries 10 significant digits
    want = np.vectorize(lambda v: float(f"{v:.10g}"))(decode(mirror["noisy"], ring))
    assert np.array_equal(res["noisy_models"], want)
    threaded = run_mpc_threaded([(X, t)], "horizontal", cfg, seed=15, draws=2)
    assert np.array_equal(threaded["w_raw"], mirror["w_share"])
    assert np.array_equal(threaded["noisy_models"], decode(mirror["noisy"], ring))


class _TruncationPeaks(PlainEngine):
    """The mirror, recording the largest |x| it truncates per phase path
    and shift."""

    def __init__(self, *args):
        super().__init__(*args)
        self.at, self.peaks = [], {}

    @contextlib.contextmanager
    def phase(self, name):
        self.at.append(name)
        try:
            yield
        finally:
            self.at.pop()

    def trunc(self, a, shift):
        if np.size(a):
            key = ("/".join(self.at), shift)
            top = float(np.abs(to_signed(a).astype(np.float64)).max())
            self.peaks[key] = max(self.peaks.get(key, 0.0), top)
        return super().trunc(a, shift)

    def lead(self, a, width, shift=None):
        """The truncations lead takes in its opening round, recorded under
        the phase path and "lead"."""
        with self.phase("lead"):
            return super().lead(a, width, shift)

    def below(self, path):
        """The largest value truncated under the phase path (its phases
        below it included), or 0."""
        return max([v for (at, _), v in self.peaks.items()
                    if at == path or at.startswith(path + "/")], default=0.0)


@pytest.mark.parametrize("frac_bits", [12, 20, 22])
def test_every_session_truncation_keeps_its_hiding_floor(frac_bits):
    # a value x opened under the truncation masks, uniform on [-2^62,
    # 2^62), keeps about 62 - log2 |x| bits hidden. Over a whole session
    # on worst-case rows (one-hot, or all alike, with constant labels),
    # training's operands stay below 2^(2l + q + 1): the Gram entries are
    # at most alpha 2^q at 2l bits. Every truncation of rsqrt stays below
    # 2^56: its lead's, which opens in its first round, its power chain's
    # and start's (kernels.top_bits), its scaled y and products with [E;
    # Gamma], and its Newton operand 1 - m y0^2 (at 2l + 9 bits, 2^(2l +
    # 9) at m = 0); so do its correction, truncated in the tmul that forms
    # R K (kernels.rsqrt_shifts), and the summands of the power chain's top
    # powers, truncated in sin/cos's rounds. The noise alone at 2000 draws
    # checks those on more radii. 300 x 30 takes the step loop
    ring, l = RingConfig(frac_bits), frac_bits
    correction = ("perturb", kernels.rsqrt_shifts(l)[1])
    newton = ("perturb/rsqrt", l + 1)

    def check_noise(eng):
        floor = 2.0 ** kernels.HIDING_FLOOR_BITS
        assert 0 < eng.peaks[newton] and 0 < eng.below("perturb/rsqrt/lead")
        assert eng.below("perturb/rsqrt") < floor
        assert 0 < eng.peaks[correction] < floor
        assert 0 < eng.below("perturb/sin_cos") < floor

    for n, m in ((300, 12), (2000, 12), (300, 30)):
        rows = {"one-hot": np.eye(m)[np.arange(n) % m], "alike": np.tile(np.eye(m)[0], (n, 1)),
                "aligned": np.tile(np.random.default_rng(80).uniform(-1, 1, m), (n, 1))}
        for X in rows.values():
            for label in (0.0, 1.0):
                for bias in (False, True):
                    tc = TrainingConfig(add_bias=bias)
                    dp = DpParams(1.0, tc.lambda_reg, n, m + bias, tc.row_norm)
                    eng = _TruncationPeaks(MaterialSource(81, ring), ring)
                    party_pipeline(eng, eng.from_public(l2_normalize(X, ring)),
                                   eng.from_public(encode(np.full(n, label), ring)), tc, dp, 1)
                    floor = 2.0 ** (2 * l + mean_bits(n, tc.alpha) + 1)
                    training = [v for (path, _), v in eng.peaks.items()
                                if not path.startswith("perturb")]
                    assert training and max(training) < floor
                    check_noise(eng)
    for d in (12, 13, 50):
        eng = _TruncationPeaks(MaterialSource(82, ring), ring)
        sample_noise(eng, DpParams(1.0, 1.0, 300, d), (2000,))
        check_noise(eng)
    # every path of the noise, at every scale c = 2/epsilon (n = 2): the
    # exponentials' pinned sums (kernels._poly_2l) reach twice their
    # powers' sum at v = -1, and stay below the floor too
    seen = set()
    for d in (1, 2, 3, 12, 13, 50):
        for c in (10, 1 / 150, 2.0 ** -30):
            eng = _TruncationPeaks(MaterialSource(82, ring), ring)
            sample_noise(eng, DpParams(2 / c, 1.0, 2, d), (200,))
            for (path, _), v in eng.peaks.items():
                assert v < 2.0 ** kernels.HIDING_FLOOR_BITS, (path, d, c)
                seen.add("/".join(path.split("/")[:2]))
    assert seen == {"perturb", "perturb/exponential", "perturb/rsqrt", "perturb/sin_cos"}


# the noise's largest truncation operands on the finest ring, at d = 1874
# and c = 10 (n = 2, epsilon 0.1), in the mirror over the draws below: R_i
# K (truncated by f), eta 2^a (by l + a), the Gamma (beside sin and cos)
# and K (in rsqrt, by l + 2), at 2^59.95, 2^59.70, 2^58.22 and 2^59.80.
# They pass 2^56 and are pinned here, so that they cannot grow unnoticed
LARGE_D_PEAK_BITS = {"R K": 60.0, "eta": 59.8, "gamma": 58.3, "K": 59.9}


def test_the_noise_largest_operands_on_the_finest_ring_are_pinned():
    ring, l, d = RingConfig(22), 22, 1874
    dp = DpParams(0.1, 1.0, 2, d)
    f, a = dp.scale_code(ring)[1], noise_shift(dp, ring) - l
    eng = _TruncationPeaks(MaterialSource(82, ring), ring)
    sample_noise(eng, dp, (4,))
    keys = {"R K": ("perturb", f), "eta": ("perturb", l + a), "gamma": ("perturb/sin_cos", l),
            "K": ("perturb/rsqrt", l + kernels._TIMES_EXTRA)}
    for name, key in keys.items():
        assert 2.0 ** 56 < eng.peaks[key] < 2.0 ** LARGE_D_PEAK_BITS[name], name
