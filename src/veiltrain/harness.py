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
import os
import queue
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from .cleartext import baseline_fl
from .datasets import (evaluate, load_csv, make_plan, partition,
                       stratified_folds, synth_data)
from .dealer import role_seeds, with_slack
from .engine import estimate_counts, run_two_party
from .errors import VeiltrainError
from .fixedpoint import decode
from .ingest import ingest_partitions
from .noise import DpParams, noise_shift, sample_noise
from .partyproc import read_party_outputs, write_party_shares
from .session import run_report
from .shareio import format_config, public_section, ring_from_config
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


def party_session(cfg: dict, n: int, m: int, draws: int):
    """One computing party's session on n rows of m features, under either
    executor: the dealer material it takes (pipeline_counts), and run(eng,
    X, t), which runs party_pipeline on the party's shares and returns its
    outputs with the party's report (session.run_report)."""
    tc, dp = training_config(cfg), dp_params(cfg, n, m)
    counts = pipeline_counts(n, m, cfg, draws)

    def run(eng, X, t):
        out = party_pipeline(eng, X, t, tc, dp, draws)
        return out, run_report(eng.rt.transcript, eng.party, cfg["session_id"],
                               epsilon_total(cfg, draws))

    return counts, run


def run_threaded_session(shares, cfg: dict, seed: int, draws: int):
    """One session (party_session) on the parties' shares ((X0, t0), (X1,
    t1)), over in-process loopback channels, with the noise calibrated to
    the shares' own n. Returns each party's (outputs, report), and the
    session's seconds."""
    counts, run = party_session(cfg, *shares[0][0].shape, draws)
    t0_clock = time.perf_counter()
    results, _ = run_two_party(lambda eng: run(eng, *shares[eng.party]), session_seed=seed,
                               counts=counts, cfg=ring_from_config(cfg),
                               session_id=cfg["session_id"], handshake_public=public_section(cfg))
    return results, time.perf_counter() - t0_clock


def _result(w_shares, noisy, report: dict, elapsed: float) -> dict:
    """A session's result under either executor: the pre-noise weights as
    ring elements and their shares, the opened noisy models (None without
    noise), party 0's report and its totals, and the session's seconds."""
    return {
        "w_raw": w_shares[0] + w_shares[1],
        "w_shares": w_shares,
        "noisy_models": noisy,
        "rounds": report["rounds"],
        "bytes": report["bytes_sent"] + report["bytes_received"],
        "runtime_s": elapsed,
        "report": report,
    }


def run_mpc_threaded(owner_datasets, mode: str, cfg: dict, seed: int, draws: int):
    """In-process execution of the full two-party pipeline over loopback
    channels. Returns pre-noise shares, opened noisy models, and transcripts."""
    ring = ring_from_config(cfg)
    shares = ingest_partitions(owner_datasets, mode, ring)
    ((out0, report), (out1, _)), elapsed = run_threaded_session(shares, cfg, seed, draws)
    noisy = decode(out0["noisy"], ring) if "noisy" in out0 else None
    return _result((out0["w_share"], out1["w_share"]), noisy, report, elapsed)


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
    processes over loopback TCP, with file-based share hand-off. The
    session replays MaterialSource(seed): each role's config,
    <role>.cfg in workdir, holds that role's own seed (role_seeds) and no
    other, and no role's holds seed itself. A role that fails stops the
    others at once, and all must end within ROLE_DEADLINE_S
    (_supervise)."""
    ring = ring_from_config(cfg)
    os.makedirs(workdir, exist_ok=True)
    prefix = os.path.join(workdir, "data")
    for party, (X, t) in enumerate(ingest_partitions(owner_datasets, mode, ring)):
        write_party_shares(prefix, cfg["session_id"], party, X, t, ring)

    run_cfg = {key: value for key, value in cfg.items() if key != "seed"}
    run_cfg.update({
        "noise_draws": draws, "shares_prefix": prefix,
        "out_dir": workdir, "party0_host": "127.0.0.1", "party0_port": _free_port(),
        "dealer_host": "127.0.0.1", "dealer_port": _free_port(),
    })
    seeds, paths = role_seeds(seed), {}
    for role, key in (("dealer", "dealer_seed"), ("party0", "bit_seed"), ("party1", "bit_seed")):
        paths[role] = os.path.join(workdir, f"{role}.cfg")
        with open(paths[role], "w", encoding="utf-8") as fh:
            fh.write(format_config(dict(run_cfg, **{key: seeds[role]})))

    def spawn(role):
        return subprocess.Popen(
            [sys.executable, "-m", "veiltrain.cli", "party", "--config", paths[role],
             "--role", role],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    t0_clock = time.perf_counter()
    _supervise({role: spawn(role) for role in ("dealer", "party0", "party1")}, ROLE_DEADLINE_S)
    elapsed = time.perf_counter() - t0_clock

    (w0, noisy, report), (w1, _, _) = (read_party_outputs(workdir, party) for party in (0, 1))
    return _result((w0, w1), noisy, report, elapsed)


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
            figures = ["-"] * 4 if np.isnan(row["mean_acc"]) else [
                f"{row['mean_acc']:.6f}", f"{row['std_acc']:.6f}", f"{row['runtime_s']:.3f}",
                row["bytes"]]
            writer.writerow([row["owners"], row["mode"], row["method"], *figures])
        return out.getvalue()

    def text(self) -> str:
        lines = [f"{k} = {v}" for k, v in sorted(self.meta.items())]
        return "\n".join(lines + ["", self.csv_text()])


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

    # one cell per report row, in row order; vertical partitions have no
    # baseline, so theirs stays empty and reads "-"
    grid = [(k, mode) for mode in modes for k in owners if mode != "vertical" or k <= m]
    cells = {(k, mode, method): {"accs": [], "runtime": 0.0, "bytes": 0}
             for k, mode in grid for method in ("baseline", "mpc_dp")}
    data_hash = hash_array(X) ^ hash_array(t)
    for fold in range(folds):
        test_mask = fold_of == fold
        X_tr, t_tr = X[~test_mask], t[~test_mask]
        X_te, t_te = X[test_mask], t[test_mask]
        fold_seed = int(np.random.SeedSequence([seed, 17, fold]).generate_state(1)[0])
        for k, mode in grid:
            parts = partition(X_tr, t_tr, make_plan(mode, k, len(X_tr), m))
            sub = None if workdir is None else os.path.join(workdir, f"fold{fold}_{mode}{k}")
            log(f"fold {fold} {mode} k={k}: mpc pipeline")
            res = run_mpc_pipeline(parts, mode, cfg, fold_seed, draws, sub)
            cell = cells[(k, mode, "mpc_dp")]
            cell["accs"] += [evaluate(wn, X_te, t_te, add_bias=tc.add_bias)
                             for wn in res["noisy_models"]]
            cell["runtime"] += res["runtime_s"]
            cell["bytes"] += res["bytes"]
            if mode == "horizontal":
                log(f"fold {fold} horizontal k={k}: baseline")
                t0_clock = time.perf_counter()
                cell = cells[(k, mode, "baseline")]
                for draw in range(draws):
                    rng = np.random.default_rng(np.random.SeedSequence([seed, 23, fold, k, draw]))
                    w = baseline_fl(parts, tc, cfg["epsilon"], rng).weights
                    cell["accs"].append(evaluate(w, X_te, t_te, add_bias=tc.add_bias))
                cell["runtime"] += time.perf_counter() - t0_clock

    report = ExperimentReport()
    report.meta = {
        "n": n, "m": m, "folds": folds, "lambda_reg": cfg["lambda_reg"],
        "epsilon": cfg["epsilon"], "noise_draws": draws, "seed": seed,
        "epsilon_total": epsilon_total(cfg, draws),
        "data_hash": f"{data_hash:016x}",
        "owners": ",".join(str(k) for k in owners), "modes": ",".join(modes),
    }
    for (k, mode, method), cell in cells.items():
        accs = np.asarray(cell["accs"])
        mean, std = (float(accs.mean()), float(accs.std())) if accs.size else (np.nan, np.nan)
        report.rows.append({"owners": k, "mode": mode, "method": method, "mean_acc": mean,
                            "std_acc": std, "runtime_s": cell["runtime"],
                            "bytes": cell["bytes"]})
    return report


def hash_array(a) -> int:
    return zlib.crc32(np.ascontiguousarray(a).tobytes())


def write_report(report: ExperimentReport, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.text())
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write(report.csv_text())
