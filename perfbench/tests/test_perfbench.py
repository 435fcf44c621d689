"""Tests of the benchmark itself: exact counts repeat, material sizes match
the dealer's wire encoding, tracing perturbs nothing, per-path rounds add
up, and the contract files agree.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import pickle
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from veiltrain import dealer, harness, partyproc, session  # noqa: E402


def _bench(workload, seed, seconds=1, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def test_contract_file_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_exact_counts_repeat_across_runs_and_seeds():
    seen = []
    for seed in (3, 3, 4):
        proc = _bench("deploy-s", seed)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        seen.append({k: result["metrics"][k]["value"]
                     for k in ("rounds", "wire_mb", "dealer_mb", "comm_lan_s", "comm_wan_s")})
    assert seen[0] == seen[1] == seen[2]


TINY = {
    "train": workloads.Workload("tiny-train", 40, 4, 3, "train", "thread", "test"),
    "noise": workloads.Workload("tiny-noise", 40, 4, 3, "noise", "thread", "test"),
    "deploy": workloads.Workload("tiny-deploy", 40, 4, 3, "train", "process", "test"),
}


def test_dealer_bytes_match_the_dealer_wire_payloads():
    w = TINY["deploy"]
    counts = harness.pipeline_counts(w.n, w.m, workloads.CFG, w.draws)
    source = dealer.MaterialSource(1, w.ring)
    halves = {"triple": lambda key, n: source.triples(0, n)[:3],
              "trunc": lambda key, n: source.trunc_pairs(key[1], 0, n)[:2],
              "bit": lambda key, n: source.bit_shares(0, n)[:1]}
    shipped = sum(len(partyproc._material_payload(key, halves[key[0]](key, n))) - 2
                  for key, n in counts.items())
    assert w.dealer_bytes() == shipped


def _session(w, case, traced, workdir):
    """One session of w, traced or not; returns (result, harvested spans)."""
    os.makedirs(workdir, exist_ok=True)
    launcher = run.RoleLauncher()
    launcher.out_dir, launcher.trace = workdir, traced
    tracer = spans.Tracer()
    saved = harness.subprocess
    harness.subprocess = launcher
    if traced:
        tracer.install()
    try:
        res = w.session(case, workdir)
    finally:
        if traced:
            tracer.uninstall()
        harness.subprocess = saved
        launcher.reap()
    harvested = tracer.harvest()
    if traced and w.executor == "process":
        with open(os.path.join(workdir, "spans.party0.pkl"), "rb") as fh:
            harvested.update(pickle.load(fh))
    return res, harvested


@pytest.mark.parametrize("kind", sorted(TINY))
def test_tracing_changes_no_output_and_paths_sum_to_rounds(kind, tmp_path):
    w = TINY[kind]
    case = w.cases(5)[0]
    plain, _ = _session(w, case, False, str(tmp_path / "plain"))
    traced, harvested = _session(w, case, True, str(tmp_path / "traced"))
    assert np.array_equal(plain["w_raw"], traced["w_raw"])
    assert np.array_equal(plain["noisy_models"], traced["noisy_models"])
    w.check(case, plain)
    w.check(case, traced)
    layers = spans.layer_metrics(harvested)
    path_rounds = sum(v for k, v in layers.items()
                      if k.startswith("session.") and k.endswith(".rounds"))
    assert path_rounds == traced["rounds"] == plain["rounds"]
    assert layers["engine.mul.calls"] > 0 and layers["session.exchange_s"] > 0


def test_uninstall_restores_every_patched_name():
    from veiltrain import engine, kernels, training

    before = (training.secure_sigmoid, kernels.secure_sigmoid, engine.MpcEngine.mul,
              session.PartyRuntime.exchange, "add" in vars(engine.MpcEngine))
    tracer = spans.Tracer()
    tracer.install()
    assert training.secure_sigmoid is not before[0]
    tracer.uninstall()
    after = (training.secure_sigmoid, kernels.secure_sigmoid, engine.MpcEngine.mul,
             session.PartyRuntime.exchange, "add" in vars(engine.MpcEngine))
    assert before == after


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _bench("deploy-s", 1, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
