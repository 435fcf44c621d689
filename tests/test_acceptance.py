"""Acceptance gate: every criterion at its stated size and tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live). The
heavier artifacts (the 200x20 training run, the 10^4-draw perturbation batch)
are computed once per session and shared. The Gaussian criterion runs
gaussian_vector, which no session runs; the noise criteria (its direction
and its magnitude) run the session's sampler, sample_noise, through
perturb_weights or directly.
"""

import time

import numpy as np
import pytest
from scipy import stats

from veiltrain import kernels
from veiltrain.cleartext import train_lr_clear
from veiltrain.dealer import MaterialSource
from veiltrain.datasets import (evaluate, make_plan, partition,
                                stratified_folds, synth_data)
from veiltrain.engine import PlainEngine
from veiltrain.fixedpoint import RingConfig, decode, encode, to_signed
from veiltrain.harness import run_experiment, run_mpc_threaded
from veiltrain.ingest import split_raw
from veiltrain.noise import (DpParams, gaussian_pair_count, gaussian_vector,
                             perturb_weights, sample_noise)
from veiltrain.shareio import DEFAULTS
from veiltrain.training import TrainingConfig, l2_normalize, train_pipeline

from conftest import block_scaled_session, mirror_weights, run_both

RING = RingConfig()


def gate(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------- criterion 1

def test_share_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    secrets = rng.integers(0, 2**64, 100_000, dtype=np.uint64)
    n_pairs = 10_000
    xs = rng.integers(0, 2**64, n_pairs, dtype=np.uint64)
    ys = rng.integers(0, 2**64, n_pairs, dtype=np.uint64)
    halves = [split_raw(v, rng) for v in (secrets, xs, ys)]

    def full_ring(eng):
        mine = [h[eng.party] for h in halves]
        with eng.phase("products"):
            z = eng.mul(mine[1], mine[2])
        return eng.open(mine[0]), eng.open(z)

    ((opened, z), _), engines = run_both(full_ring, seed=102)
    exact = np.array_equal(opened, secrets)
    with np.errstate(over="ignore"):
        products_ok = np.array_equal(z, xs * ys)
    product_rounds = engines[0].rt.transcript.paths["products"]["rounds"]

    # fixed-point products for representable operands up to 2^8
    grid = 2.0 ** -10
    x = np.round(rng.uniform(-2**8, 2**8, 10_000) / grid) * grid
    y = np.round(rng.uniform(-2**8, 2**8, 10_000) / grid) * grid

    def fn(eng):
        a = eng.from_public(encode(x, RING))
        b = eng.from_public(encode(y, RING))
        return eng.open(eng.trunc(eng.mul(a, b), RING.frac_bits))

    (r0, _), _ = run_both(fn, seed=103)
    fp_err = np.abs(decode(r0, RING) - x * y).max()
    elapsed = time.perf_counter() - start
    gate("share-algebra",
         exact and products_ok and product_rounds == 1 and fp_err <= 2 * 2.0**-20
         and elapsed < 60,
         f"product_rounds={product_rounds} fp_err={fp_err:.2e} elapsed={elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2

def test_kernel_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(201)
    n = 10_000
    results = {}

    b = np.exp2(rng.uniform(-8, 8, n)) * np.where(rng.random(n) < 0.5, -1, 1)
    a = rng.uniform(-1, 1, n) * 2.0**10 * b

    def fn_div(eng):
        return eng.open(kernels.secure_div(eng, eng.from_public(encode(a, RING)),
                                           eng.from_public(encode(b, RING))))

    (r0, _), _ = run_both(fn_div, 202)
    want = decode(encode(a, RING), RING) / decode(encode(b, RING), RING)
    results["div"] = (np.abs(decode(r0, RING) - want).max(), 2.0**-14)

    sq = np.exp2(rng.uniform(-10, 10, n))

    def fn_sqrt(eng):
        return eng.open(kernels.secure_sqrt(eng, eng.from_public(encode(sq, RING))))

    (r0, _), _ = run_both(fn_sqrt, 203)
    results["sqrt"] = (np.abs(decode(r0, RING) - np.sqrt(decode(encode(sq, RING), RING))).max(),
                       2.0**-12)

    lx = np.exp2(rng.uniform(-RING.frac_bits + 0.01, 10, n))

    def fn_ln(eng):
        return eng.open(kernels.secure_ln(eng, eng.from_public(encode(lx, RING))))

    (r0, _), _ = run_both(fn_ln, 204)
    results["ln"] = (np.abs(decode(r0, RING) - np.log(decode(encode(lx, RING), RING))).max(),
                     2.0**-12)

    th = rng.uniform(0, 2 * np.pi, n)

    def fn_trig(eng):
        s, c = kernels.secure_sin_cos(eng, eng.from_public(encode(th, RING)))
        return eng.open(s), eng.open(c)

    (pair, _), _ = run_both(fn_trig, 205)
    turns = 2 ** (RING.frac_bits + 1)  # secure_sin_cos rounds the turns to 2^-(l + 1)
    v = np.round(decode(encode(th, RING), RING) / (2 * np.pi) * turns) / turns
    results["sin"] = (np.abs(decode(pair[0], RING) - np.sin(2 * np.pi * v)).max(), 2.0**-12)
    results["cos"] = (np.abs(decode(pair[1], RING) - np.cos(2 * np.pi * v)).max(), 2.0**-12)

    z = rng.uniform(-16, 16, n)

    def fn_sig(eng):
        return eng.open(kernels.secure_sigmoid(eng, eng.from_public(encode(z, RING))))

    (r0, _), _ = run_both(fn_sig, 206)
    want = np.where(z < -8, 0.0, np.where(z > 8, 1.0, 1 / (1 + np.exp(-z))))
    results["sigmoid"] = (np.abs(decode(r0, RING) - want).max(), 1e-3)

    # transcripts depend on input sizes only
    def make(vals):
        def fn(eng):
            return eng.open(kernels.secure_div(
                eng, eng.from_public(encode(vals[0], RING)),
                eng.from_public(encode(vals[1], RING))))
        return fn

    _, eng_a = run_both(make((np.ones(32), np.full(32, 2.0))), 207)
    _, eng_b = run_both(make((np.full(32, 100.0), np.full(32, 0.01))), 207)
    oblivious = (eng_a[0].rt.transcript.bytes_sent == eng_b[0].rt.transcript.bytes_sent
                 and eng_a[0].rt.transcript.n_rounds == eng_b[0].rt.transcript.n_rounds)

    elapsed = time.perf_counter() - start
    ok = all(err <= bound for err, bound in results.values()) and oblivious
    detail = " ".join(f"{k}={err:.2e}" for k, (err, _) in results.items())
    gate("kernel-suite", ok and elapsed < 600,
         f"{detail} oblivious={oblivious} elapsed={elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 3

def test_norm_protocol():
    # owners scale their rows before sharing them: every row's norm within
    # 1e-3 of 1 and, exactly in integers, never above it
    rng = np.random.default_rng(301)
    small = l2_normalize(np.array([[3.0, 4.0]]), RING)
    wide = l2_normalize(rng.integers(0, 2, (1, 1874)).astype(float), RING)
    mid = l2_normalize(rng.uniform(-4, 4, (16, 200)), RING)
    squares = [np.sum(to_signed(x) ** 2, axis=1) for x in (small, wide, mid)]
    at_most_one = all(np.all(s <= 1 << 2 * RING.frac_bits) for s in squares)
    small, wide, mid = (decode(x, RING) for x in (small, wide, mid))
    ok_small = np.abs(small - [0.6, 0.8]).max() <= 1e-3
    ok_wide = abs(np.linalg.norm(wide) - 1) <= 1e-3
    ok_mid = np.abs(np.linalg.norm(mid, axis=1) - 1).max() <= 1e-3
    gate("norm-protocol", ok_small and ok_wide and ok_mid and at_most_one,
         f"[3,4]->{np.round(small[0], 4)} d1874_norm_err={abs(np.linalg.norm(wide)-1):.1e} "
         f"at_most_one={at_most_one}")


# ---------------------------------------------------------------- criterion 4

def test_training_oracle_equivalence(over_tcp):
    start = time.perf_counter()
    X, t = synth_data(200, 20, seed=401, separability=1.0)
    tc = TrainingConfig()

    def fn(eng):
        return eng.open(train_pipeline(eng, eng.from_public(l2_normalize(X, RING)),
                                       eng.from_public(encode(t, RING)), tc))

    over_tcp()
    (r0, r1), _ = run_both(fn, 402)
    mirror = mirror_weights(X, t, tc, seed=402)
    float_model = train_lr_clear(X, t, tc, seed=402)
    bit_exact = (np.array_equal(r0, encode(mirror, RING))
                 and np.array_equal(r1, encode(mirror, RING)))
    float_gap = np.abs(decode(r0, RING) - float_model.weights).max()
    elapsed = time.perf_counter() - start
    gate("training-oracle-equivalence",
         bit_exact and float_gap <= 1e-2 and elapsed < 900,
         f"bit_exact={bit_exact} float_gap={float_gap:.2e} elapsed={elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 5

def test_gaussian_sampler():
    def fn(eng):
        return eng.open(gaussian_vector(eng, 10_000))

    (r0, _), _ = run_both(fn, 501)
    s = decode(r0, RING)
    ks = stats.kstest(s, stats.norm.cdf).statistic

    def fn_odd(eng):
        gaussian_vector(eng, 11)
        return None

    eng = PlainEngine(MaterialSource(502, RING), RING)
    fn_odd(eng)
    pairs = eng.pos["local_bits"] // 2  # one local word per uniform
    odd_ok = pairs == gaussian_pair_count(11) == (11 + 1) // 2 + 1
    ok = abs(s.mean()) <= 0.05 and abs(s.var() - 1) <= 0.1 and ks < 0.02 and odd_ok
    gate("gaussian-sampler", ok,
         f"mean={s.mean():.3f} var={s.var():.3f} ks={ks:.4f} odd_pairs={pairs}")


@pytest.mark.parametrize("d", [12, 13])
def test_noise_direction_law(d):
    # the session's sampler: each squared coordinate of eta / ||eta|| of a
    # uniform direction in d dimensions is Beta(1/2, (d - 1)/2)
    dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=300, d=d)

    def fn(eng):
        return eng.open(sample_noise(eng, dp, (10_000,)))

    (r0, _), _ = run_both(fn, 701 + d)
    eta = decode(r0, RING)
    u2 = (eta / np.linalg.norm(eta, axis=1, keepdims=True)) ** 2
    law = stats.beta(0.5, (d - 1) / 2).cdf
    pooled = stats.kstest(u2.ravel(), law).statistic
    worst = max(stats.kstest(u2[:, j], law).statistic for j in range(d))
    gate(f"noise-direction-law d={d}", pooled < 0.01 and worst < 0.025,
         f"ks_pooled={pooled:.4f} ks_worst_coordinate={worst:.4f}")


# ---------------------------------------------------------------- criterion 6

def test_perturbation_magnitude_law():
    dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=1000, d=10)
    assert dp.scale == 0.002

    def fn(eng):
        w = eng.from_public(encode(np.zeros(10), RING))
        return eng.open(perturb_weights(eng, w, dp, batch=(10_000,)))

    (r0, _), _ = run_both(fn, 601)
    norms = np.linalg.norm(decode(r0, RING), axis=1)
    mean_ok = abs(norms.mean() - dp.d * dp.scale) <= 0.03 * dp.d * dp.scale
    var_ok = abs(norms.var() - dp.d * dp.scale**2) <= 0.10 * dp.d * dp.scale**2
    ks = stats.kstest(norms, stats.gamma(a=dp.d, scale=dp.scale).cdf).statistic

    # effectively infinite budget drives the noise to zero
    dp_inf = DpParams(epsilon=2.0**30, lambda_reg=1.0, n=1000, d=10)
    rng = np.random.default_rng(602)
    w_in = rng.uniform(-1, 1, 10)

    def fn_inf(eng):
        w = eng.from_public(encode(w_in, RING))
        return eng.open(perturb_weights(eng, w, dp_inf))

    (ri, _), _ = run_both(fn_inf, 603)
    inf_gap = np.abs(decode(ri, RING) - decode(encode(w_in, RING), RING)).max()
    gate("perturbation-magnitude-law",
         mean_ok and var_ok and ks < 0.03 and inf_gap < 1e-4,
         f"mean={norms.mean():.5f} var={norms.var():.2e} ks={ks:.4f} "
         f"inf_eps_gap={inf_gap:.1e}")


# ---------------------------------------------------------------- criterion 7

def test_partition_invariance():
    # horizontal owners scale whole rows: one model whatever their count.
    # Vertical owners scale their blocks of a row (to norm 1/sqrt(k) each):
    # each such session is the one-owner session on the matrix of those
    # blocks, at a small cost in accuracy
    X_all, t_all = synth_data(300, 12, seed=701, separability=1.0)
    X, t = X_all[:240], t_all[:240]
    test_X, test_t = X_all[240:], t_all[240:]
    cfg = dict(DEFAULTS)
    cfg.update({"epsilon": 8.0, "executor": "thread"})
    coeffs, accs, blocks_ok = {}, {}, True
    for mode, k in (("horizontal", 2), ("horizontal", 4), ("horizontal", 8),
                    ("vertical", 2), ("vertical", 4)):
        plan = make_plan(mode, k, 240, 12)
        parts = partition(X, t, plan)
        res = run_mpc_threaded(parts, mode, cfg, seed=703, draws=10)
        coeffs[mode, k] = res["w_raw"]
        accs[mode, k] = float(np.mean([evaluate(w, test_X, test_t)
                                     for w in res["noisy_models"]]))
        if mode == "vertical":
            w_raw, noisy = block_scaled_session(parts, cfg, 703, 10)
            blocks_ok &= (np.array_equal(w_raw, res["w_raw"])
                          and np.array_equal(noisy, res["noisy_models"]))
    horizontal = [key for key in coeffs if key[0] == "horizontal"]
    identical = all(np.array_equal(coeffs[horizontal[0]], coeffs[key]) for key in horizontal)
    same_acc = len({round(accs[key], 12) for key in horizontal}) == 1
    gap = max(abs(accs[key] - accs["horizontal", 2]) for key in accs)
    gate("partition-invariance", identical and same_acc and blocks_ok and gap <= 0.05,
         f"identical_coeffs={identical} blocks_exact={blocks_ok} "
         f"accs={ {f'{m}{k}': round(a, 4) for (m, k), a in accs.items()} }")


# ---------------------------------------------------------------- criterion 8

def test_baseline_trend():
    start = time.perf_counter()
    X, t = synth_data(2000, 50, seed=801, separability=1.0)
    folds = stratified_folds(t, 5, 801)
    te = folds == 0
    X_tr, t_tr, X_te, t_te = X[~te], t[~te], X[te], t[te]
    tc = TrainingConfig()

    central = train_lr_clear(X_tr, t_tr, tc, seed=802)
    central_acc = evaluate(central.weights, X_te, t_te)

    cfg = dict(DEFAULTS)
    cfg.update({"epsilon": 1.0, "executor": "thread", "noise_draws": 100})
    res = run_mpc_threaded([(X_tr, t_tr)], "horizontal", cfg, seed=803, draws=100)
    mpc_acc = float(np.mean([evaluate(w, X_te, t_te) for w in res["noisy_models"]]))

    from veiltrain.cleartext import baseline_fl

    base = {}
    for k in (2, 4, 8):
        plan = make_plan("horizontal", k, len(X_tr), 50)
        parts = partition(X_tr, t_tr, plan)
        accs = []
        for draw in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([804, k, draw]))
            model = baseline_fl(parts, tc, 1.0, rng)
            accs.append(evaluate(model.weights, X_te, t_te))
        base[k] = float(np.mean(accs))

    monotone = base[2] >= base[4] >= base[8]
    dominated = all(base[k] <= mpc_acc for k in (2, 4, 8))
    elapsed = time.perf_counter() - start
    gate("baseline-trend",
         central_acc >= 0.9 and monotone and dominated,
         f"central={central_acc:.3f} mpc={mpc_acc:.3f} "
         f"baseline={[round(base[k], 3) for k in (2, 4, 8)]} elapsed={elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 9

def test_determinism_and_obliviousness():
    cfg = dict(DEFAULTS)
    cfg.update({"n": 100, "m": 6, "noise_draws": 5, "folds": 2,
                "owners": "2", "modes": "horizontal,vertical",
                "executor": "thread", "epsilon": 1.0, "seed": 901})
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

    deterministic = (strip_runtime(a) == strip_runtime(b)
                     and a.meta == b.meta)

    # transcript sizes must not depend on the secret values
    tc = TrainingConfig()

    def make(data):
        X, t = data

        def fn(eng):
            return train_pipeline(eng, eng.from_public(l2_normalize(X, RING)),
                                  eng.from_public(encode(t, RING)), tc)
        return fn

    rng = np.random.default_rng(902)
    d1 = (rng.uniform(-1, 1, (30, 5)), rng.integers(0, 2, 30).astype(float))
    d2 = (rng.uniform(-8, 8, (30, 5)), np.ones(30))
    _, eng_a = run_both(make(d1), 903)
    _, eng_b = run_both(make(d2), 903)
    oblivious = (eng_a[0].rt.transcript.bytes_sent == eng_b[0].rt.transcript.bytes_sent
                 and eng_a[0].rt.transcript.n_rounds == eng_b[0].rt.transcript.n_rounds)
    gate("determinism-obliviousness", deterministic and oblivious,
         f"deterministic={deterministic} oblivious={oblivious}")
