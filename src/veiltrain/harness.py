"""Experiment orchestration: k-fold evaluation of the joint MPC+DP pipeline
against the local-DP federated baseline, over horizontal and vertical owner
partitions, with accuracy/traffic reporting.

The pipeline per fold and partition plan: owners scale and ingest their
blocks, the parties assemble the global secret-shared matrix, train, perturb
(one batched run covers all noise draws), open the noisy models, and score
them on the held-out fold. Folds run sequentially so dealer provisioning
stays deterministic.
"""

from __future__ import annotations

import csv
import io
import json
import os
import queue
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .cleartext import baseline_fl
from .datasets import (evaluate, load_csv, make_plan, partition,
                       stratified_folds, synth_data)
from .dealer import with_slack
from .engine import estimate_counts, run_two_party
from .errors import VeiltrainError
from .fixedpoint import decode
from .ingest import ingest_partitions
from .noise import DpParams, noise_shift, sample_noise
from .session import run_report
from .shareio import format_config, public_section, ring_from_config, write_share_file
from .training import TrainingConfig, train_pipeline


ROLE_DEADLINE_S = 600.0  # a process-mode session's dealer and parties all end within it


def training_config(cfg: dict) -> TrainingConfig:
    return TrainingConfig(**{k: cfg[k] for k in TrainingConfig().public()})


def party_pipeline(eng, X, t, tc: TrainingConfig, dp: DpParams | None, draws: int):
    """The staged protocol one computing party executes after ingestion.

    The noise for the draws models needs neither data nor weights, so it is
    sampled beside training, in training's rounds (eng.parallel). The noisy
    models are then opened in one round, which also takes the noise's last
    truncation: eng.open opens eta 2^a + r with w - rs, whose sum is the
    model w + eta (see README, "The release")."""
    if dp is None:
        return {"w_share": train_pipeline(eng, X, t, tc)}
    w, eta = eng.parallel(lambda e: train_pipeline(e, X, t, tc),
                          lambda e: sample_noise(e, dp, batch=(draws,), truncate=False))
    return {"w_share": w, "noisy": eng.open([w, eta], [None, noise_shift(dp, eng.cfg)])}


def epsilon_total(cfg: dict, draws: int) -> float:
    """The budget the session's opened models spend: draws noisy copies of
    one model compose to draws * epsilon; no noise opens no model."""
    return float(draws * cfg["epsilon"]) if cfg["epsilon"] > 0 else 0.0


def pipeline_counts(n: int, m: int, cfg: dict, draws: int) -> dict:
    """Dealer-material requirements and branch windows via an oblivious dry
    run on zeros, padded by the provisioning slack (none by default)."""
    tc, dp = training_config(cfg), dp_params(cfg, n, m)

    def dry(eng):
        party_pipeline(eng, eng.zeros((n, m)), eng.zeros(n), tc, dp, draws)

    counts = estimate_counts(dry, session_seed=0, cfg=ring_from_config(cfg))
    return with_slack(counts, cfg["provision_slack"])


def dp_params(cfg: dict, n: int, m: int) -> DpParams | None:
    """The noise's parameters for n rows of m features: its dimension is
    the model's, and its row bound the training rows', the bias column
    included. None without noise (epsilon 0)."""
    if cfg["epsilon"] <= 0:
        return None
    tc = training_config(cfg)
    return DpParams(epsilon=cfg["epsilon"], lambda_reg=tc.lambda_reg, n=n,
                    d=m + tc.add_bias, row_norm=tc.row_norm)


def run_threaded_session(shares, cfg: dict, seed: int, draws: int):
    """One session of party_pipeline on the parties' shares ((X0, t0),
    (X1, t1)), over in-process loopback channels, with the noise
    calibrated to the shares' own n. Returns each party's outputs and
    report, and the session's seconds."""
    ring = ring_from_config(cfg)
    tc = training_config(cfg)
    n, m = shares[0][0].shape
    dp = dp_params(cfg, n, m)
    counts = pipeline_counts(n, m, cfg, draws)

    def fn(eng):
        X, t = shares[eng.party]
        return party_pipeline(eng, X, t, tc, dp, draws)

    t0_clock = time.perf_counter()
    results, engines = run_two_party(fn, session_seed=seed, counts=counts, cfg=ring,
                                     session_id=cfg["session_id"],
                                     handshake_public=public_section(cfg))
    elapsed = time.perf_counter() - t0_clock
    reports = [run_report(eng.rt.transcript, eng.party, cfg["session_id"],
                          epsilon_total(cfg, draws)) for eng in engines]
    return results, reports, elapsed


def run_mpc_threaded(owner_datasets, mode: str, cfg: dict, seed: int, draws: int):
    """In-process execution of the full two-party pipeline over loopback
    channels. Returns pre-noise shares, opened noisy models, and transcripts."""
    ring = ring_from_config(cfg)
    shares = ingest_partitions(owner_datasets, mode, ring)
    results, reports, elapsed = run_threaded_session(shares, cfg, seed, draws)
    w_shares = (results[0]["w_share"], results[1]["w_share"])
    noisy = decode(results[0]["noisy"], ring) if "noisy" in results[0] else None
    return {
        "w_raw": w_shares[0] + w_shares[1],
        "w_shares": w_shares,
        "noisy_models": noisy,
        "rounds": reports[0]["rounds"],
        "bytes": reports[0]["bytes_sent"] + reports[0]["bytes_received"],
        "runtime_s": elapsed,
        "report": reports[0],
    }


def _free_port() -> int:
    import socket

    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def _supervise(procs: dict, deadline: float):
    """Wait for every role process at once. On the first nonzero exit, or
    when the deadline (seconds) passes, kill the roles still running; reap
    every role in any case. Raises VeiltrainError naming the failing role
    first (or the roles still running at the deadline), then every role's
    exit status and stderr tail."""
    ended = queue.Queue()
    errs = {}

    def wait(role, proc):
        errs[role] = proc.communicate()[1]  # drains both pipes, then reaps
        ended.put(role)

    waiters = [threading.Thread(target=wait, args=item, daemon=True) for item in procs.items()]
    for waiter in waiters:
        waiter.start()
    end = time.monotonic() + deadline
    pending, failure = list(procs), None
    while pending and failure is None:
        try:
            role = ended.get(timeout=max(0.0, end - time.monotonic()))
        except queue.Empty:
            failure = f"{', '.join(pending)} still running after {deadline:g} s"
            break
        pending.remove(role)
        if procs[role].returncode != 0:
            failure = f"{role} exited with status {procs[role].returncode}"
    for proc in procs.values():
        if proc.poll() is None:
            proc.kill()
    for waiter in waiters:
        waiter.join()
    if failure is not None:
        tails = [f"[{role}] exit {proc.returncode}:\n{errs[role].decode()[-2000:]}"
                 for role, proc in procs.items()]
        raise VeiltrainError(f"subprocess pipeline failed: {failure}\n" + "\n".join(tails))


def run_mpc_process(owner_datasets, mode: str, cfg: dict, seed: int, draws: int,
                    workdir: str):
    """Same pipeline, but supervised as OS processes: a dealer and two party
    processes over loopback TCP, with file-based share hand-off. A role
    that fails stops the others at once, and all must end within
    ROLE_DEADLINE_S (_supervise)."""
    ring = ring_from_config(cfg)
    os.makedirs(workdir, exist_ok=True)
    (X0, t0), (X1, t1) = ingest_partitions(owner_datasets, mode, ring)
    n, m = X0.shape
    prefix = os.path.join(workdir, "data")
    session = cfg["session_id"]
    write_share_file(prefix + ".party0.shares", session, 0, X0, t0, ring)
    write_share_file(prefix + ".party1.shares", session, 1, X1, t1, ring)

    run_cfg = dict(cfg)
    run_cfg.update({
        "seed": seed, "noise_draws": draws, "shares_prefix": prefix,
        "out_dir": workdir, "party0_host": "127.0.0.1", "party0_port": _free_port(),
        "dealer_host": "127.0.0.1", "dealer_port": _free_port(),
    })
    cfg_path = os.path.join(workdir, "session.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(format_config(run_cfg))

    def spawn(role):
        return subprocess.Popen(
            [sys.executable, "-m", "veiltrain.cli", "party", "--config", cfg_path,
             "--role", role],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    t0_clock = time.perf_counter()
    _supervise({role: spawn(role) for role in ("dealer", "party0", "party1")}, ROLE_DEADLINE_S)
    elapsed = time.perf_counter() - t0_clock

    from .shareio import read_weights_file

    _, w0 = read_weights_file(os.path.join(workdir, "weights.party0.bin"))
    _, w1 = read_weights_file(os.path.join(workdir, "weights.party1.bin"))
    noisy = None
    noisy_path = os.path.join(workdir, "noisy.party0.csv")
    if os.path.exists(noisy_path):
        noisy = np.loadtxt(noisy_path, delimiter=",", ndmin=2)
    with open(os.path.join(workdir, "report.party0.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    return {
        "w_raw": w0 + w1,
        "w_shares": (w0, w1),
        "noisy_models": noisy,
        "rounds": report["rounds"],
        "bytes": report["bytes_sent"] + report["bytes_received"],
        "runtime_s": elapsed,
        "report": report,
    }


def run_mpc_pipeline(owner_datasets, mode: str, cfg: dict, seed: int, draws: int,
                     workdir: str | None = None):
    """One session under cfg["executor"]; a process session without a
    workdir runs in a temporary one."""
    if cfg["executor"] == "thread":
        return run_mpc_threaded(owner_datasets, mode, cfg, seed, draws)
    if workdir is None:
        with tempfile.TemporaryDirectory() as tmp:
            return run_mpc_process(owner_datasets, mode, cfg, seed, draws, tmp)
    return run_mpc_process(owner_datasets, mode, cfg, seed, draws, workdir)


@dataclass
class ExperimentReport:
    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def csv_text(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["owners", "mode", "method", "mean_acc", "std_acc",
                         "runtime_s", "bytes"])
        for row in self.rows:
            if np.isnan(row["mean_acc"]):
                writer.writerow([row["owners"], row["mode"], row["method"],
                                 "-", "-", "-", "-"])
            else:
                writer.writerow([row["owners"], row["mode"], row["method"],
                                 f"{row['mean_acc']:.6f}", f"{row['std_acc']:.6f}",
                                 f"{row['runtime_s']:.3f}", row["bytes"]])
        return out.getvalue()

    def text(self) -> str:
        lines = [f"{k} = {v}" for k, v in sorted(self.meta.items())]
        lines.append("")
        lines.append(self.csv_text().rstrip("\n"))
        return "\n".join(lines) + "\n"


def run_experiment(cfg: dict, workdir: str | None = None, log=lambda msg: None):
    """K-fold comparison of MPC+DP vs the federated baseline across owner
    counts and partition modes; emits an ExperimentReport."""
    seed = cfg["seed"]
    if cfg.get("data_csv"):
        X, t = load_csv(cfg["data_csv"])
    else:
        X, t = synth_data(cfg["n"], cfg["m"], seed=seed, separability=cfg["separability"])
    n, m = X.shape
    owners = [int(k) for k in str(cfg["owners"]).split(",")]
    modes = [s.strip() for s in str(cfg["modes"]).split(",") if s.strip()]
    draws = cfg["noise_draws"]
    folds = cfg["folds"]
    fold_of = stratified_folds(t, folds, seed)
    tc = training_config(cfg)

    cells: dict = {}
    data_hash = hash_array(X) ^ hash_array(t)
    for fold in range(folds):
        test_mask = fold_of == fold
        X_tr, t_tr = X[~test_mask], t[~test_mask]
        X_te, t_te = X[test_mask], t[test_mask]
        fold_seed = int(np.random.SeedSequence([seed, 17, fold]).generate_state(1)[0])
        for mode in modes:
            for k in owners:
                if mode == "vertical" and k > m:
                    continue
                plan = make_plan(mode, k, len(X_tr), m)
                parts = partition(X_tr, t_tr, plan)
                sub = None
                if workdir is not None:
                    sub = os.path.join(workdir, f"fold{fold}_{mode}{k}")
                log(f"fold {fold} {mode} k={k}: mpc pipeline")
                res = run_mpc_pipeline(parts, mode, cfg, fold_seed, draws, sub)
                accs = [evaluate(wn, X_te, t_te, add_bias=tc.add_bias)
                        for wn in res["noisy_models"]]
                cell = cells.setdefault((k, mode, "mpc_dp"), {"accs": [], "runtime": 0.0,
                                                              "bytes": 0})
                cell["accs"].extend(accs)
                cell["runtime"] += res["runtime_s"]
                cell["bytes"] += res["bytes"]
                if mode == "horizontal":
                    log(f"fold {fold} horizontal k={k}: baseline")
                    t0_clock = time.perf_counter()
                    base_accs = []
                    for draw in range(draws):
                        rng = np.random.default_rng(
                            np.random.SeedSequence([seed, 23, fold, k, draw]))
                        model = baseline_fl(parts, tc, cfg["epsilon"], rng)
                        base_accs.append(evaluate(model.weights, X_te, t_te,
                                                  add_bias=tc.add_bias))
                    cell = cells.setdefault((k, mode, "baseline"),
                                            {"accs": [], "runtime": 0.0, "bytes": 0})
                    cell["accs"].extend(base_accs)
                    cell["runtime"] += time.perf_counter() - t0_clock

    report = ExperimentReport()
    report.meta = {
        "n": n, "m": m, "folds": folds, "lambda_reg": cfg["lambda_reg"],
        "epsilon": cfg["epsilon"], "noise_draws": draws, "seed": seed,
        "epsilon_total": epsilon_total(cfg, draws),
        "data_hash": f"{data_hash:016x}",
        "owners": ",".join(str(k) for k in owners), "modes": ",".join(modes),
    }
    for mode in modes:
        for k in owners:
            if mode == "vertical" and k > m:
                continue
            for method in ("baseline", "mpc_dp"):
                if method == "baseline" and mode == "vertical":
                    report.rows.append({"owners": k, "mode": mode, "method": method,
                                        "mean_acc": float("nan"), "std_acc": float("nan"),
                                        "runtime_s": 0.0, "bytes": 0})
                    continue
                cell = cells[(k, mode, method)]
                accs = np.asarray(cell["accs"])
                report.rows.append({"owners": k, "mode": mode, "method": method,
                                    "mean_acc": float(accs.mean()),
                                    "std_acc": float(accs.std()),
                                    "runtime_s": cell["runtime"],
                                    "bytes": cell["bytes"]})
    return report


def hash_array(a) -> int:
    import zlib

    return zlib.crc32(np.ascontiguousarray(a).tobytes())


def write_report(report: ExperimentReport, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.text())
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write(report.csv_text())
