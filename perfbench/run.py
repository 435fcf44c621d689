"""veiltrain session benchmark.

Runs one secure two-party session at a time (closed loop, one client, from a
single process) for --seconds, then prints every metric by name with its
unit and, as the last line, one JSON object:

    python3 perfbench/run.py --workload deploy-s --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced sessions and reports the per-layer metrics of the traced ones. See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# network model for the projected communication time: (round-trip s, bit/s)
LAN = (0.2e-3, 1e9)
WAN = (40e-3, 100e6)

# a session that has not finished by then is a stall
DEADLINE_S = 60.0

END_TO_END = (
    ("session_s", "s"), ("setup_s", "s"), ("online_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("rounds", "count"), ("wire_mb", "MB"), ("dealer_mb", "MB"),
    ("comm_lan_s", "s_model"), ("comm_wan_s", "s_model"), ("accuracy", "ratio"),
)

_PHASE_PATHS = (
    "top", "normalize", "normalize.sqrt", "normalize.div", "epoch_setup", "forward",
    "sigmoid", "backward", "finalize", "perturb.gaussian.uniform", "perturb.gaussian.ln",
    "perturb.gaussian.sqrt", "perturb.gaussian.sin_cos", "perturb.gaussian",
    "perturb.normalize", "perturb.normalize.sqrt", "perturb.normalize.div",
    "perturb.gamma.uniform", "perturb.gamma.ln", "perturb.gamma", "perturb",
)

PER_LAYER = (
    ("ingest.s", "s"), ("engine.dry_run_s", "s"),
    ("dealer.gen_s", "s"), ("dealer.triples", "count"), ("dealer.trunc_pairs", "count"),
    ("dealer.bits", "count"), ("dealer.local_bits", "count"),
    ("dealer.provisioned_ratio", "ratio"),
    *((f"engine.{op}.{k}", u) for op in ("mul", "trunc", "bits", "open", "joint_uniform")
      for k, u in (("calls", "count"), ("elems", "count"), ("self_s", "s"))),
    ("engine.local_s", "s"),
    ("session.exchange_s", "s"), ("session.round_ms.p50", "ms"),
    ("session.round_ms.p99", "ms"),
    *((f"session.{p}.{k}", u) for p in _PHASE_PATHS
      for k, u in (("rounds", "count"), ("mb", "MB"))),
    ("transport.frames", "count"), ("transport.send_s", "s"), ("transport.recv_wait_s", "s"),
    *((f"kernels.{k}.{m}", u) for k in ("sigmoid", "div", "sqrt", "ln", "sin_cos", "uniform")
      for m, u in (("s", "s"), ("rounds", "count"))),
    *((f"{layer}.{k}.{m}", u)
      for layer, names in (("training", ("normalize", "forward", "backward", "epoch_setup")),
                           ("noise", ("gaussian", "gamma", "perturb")))
      for k in names for m, u in (("s", "s"), ("rounds", "count"), ("mb", "MB"))),
    ("partyproc.provision_s", "s"), ("partyproc.dealer_s", "s"),
    ("partyproc.connect_s", "s"), ("shareio.io_s", "s"),
    ("noise.law_err", "ratio"),
    ("harness.trace_overhead", "ratio"), ("harness.online_accounted", "ratio"),
)


def import_program():
    """Put the checkout's src/ first on the path; refuse any other veiltrain."""
    if not os.path.isfile(os.path.join(SRC, "veiltrain", "__init__.py")):
        raise SystemExit(f"perfbench: no veiltrain sources under {SRC}")
    sys.path.insert(0, SRC)
    import veiltrain

    if not os.path.abspath(veiltrain.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported veiltrain from {veiltrain.__file__}")


class RoleLauncher:
    """Stands in for the ``subprocess`` module inside ``veiltrain.harness``,
    so that ``run_mpc_process`` starts its dealer and parties through
    perfbench/role.py, with the source tree on PYTHONPATH (the package is
    not installed). Keeps every process it starts so a stall can kill them."""

    PIPE = subprocess.PIPE

    def __init__(self):
        self.procs = []
        self.out_dir = None
        self.trace = False

    def Popen(self, argv, **kwargs):  # noqa: N802 - mirrors subprocess.Popen
        cli = argv.index("veiltrain.cli")
        cmd = [sys.executable, os.path.join(HERE, "role.py"), "--out", self.out_dir,
               "--trace", "1" if self.trace else "0", "--", *argv[cli + 1:]]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(cmd, env=env, **kwargs)
        self.procs.append(proc)
        return proc

    def kill(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()

    def reap(self):
        """Kill whatever still runs and wait for every process to end."""
        self.kill()
        for proc in self.procs:
            proc.communicate()
        self.procs = []


def call_with_deadline(fn, deadline: float, on_stall):
    """Run fn in a daemon thread named "main" (the role its spans belong to).

    Returns (result, error, wedged): error is "stall" past the deadline,
    after on_stall(); wedged means the thread still had not ended then."""
    box = {}

    def target():
        try:
            box["res"] = fn()
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            box["exc"] = exc

    th = threading.Thread(target=target, name="main", daemon=True)
    th.start()
    th.join(deadline)
    if th.is_alive():
        on_stall()
        th.join(10.0)
        return None, f"stall: no result within {deadline:.0f} s", th.is_alive()
    if "exc" in box:
        exc = box["exc"]
        return None, f"{type(exc).__name__}: {str(exc)[-300:]}", False
    return box["res"], None, False


def _cpu_seconds():
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Runner:
    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        from spans import FirstRound, Tracer

        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer() if trace else None
        self.probe = FirstRound()
        self.launcher = RoleLauncher()
        self.workdir = os.path.join(ROOT, ".perfbench-work", f"{workload.name}-{os.getpid()}")
        self.records = []
        self.failures = []
        self.attempted = 0

    def run(self):
        from veiltrain import harness

        w = self.w
        self.cases = w.cases(self.seed)
        self.dealer_mb = w.dealer_bytes() / 1e6
        saved = harness.subprocess
        harness.subprocess = self.launcher
        try:
            start = time.perf_counter()
            while True:
                traced = self.trace and self.attempted % 2 == 1
                wedged = self._session(self.cases[self.attempted % len(self.cases)], traced)
                if wedged:
                    break
                if time.perf_counter() - start >= self.seconds and (
                        self._enough() or self.failures):
                    break
        finally:
            harness.subprocess = saved
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(self.workdir))
            except OSError:
                pass

    def _enough(self):
        kinds = {r["traced"] for r in self.records}
        return kinds == ({False, True} if self.trace else {False})

    def _session(self, case, traced: bool) -> bool:
        from spans import layer_metrics
        from workloads import GateFailure

        w = self.w
        self.attempted += 1
        sdir = os.path.join(self.workdir, f"s{self.attempted}")
        os.makedirs(sdir, exist_ok=True)
        self.launcher.out_dir, self.launcher.trace = sdir, traced
        hook = self.tracer if traced else self.probe
        gc.collect()
        hook.install()
        c0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            res, err, wedged = call_with_deadline(
                lambda: w.session(case, sdir), DEADLINE_S, self.launcher.kill)
            t1, c1 = time.perf_counter(), _cpu_seconds()
        finally:
            hook.uninstall()
            self.launcher.reap()
        harvested = self.tracer.harvest() if traced else None
        try:
            if err is not None:
                raise GateFailure(err)
            if traced and w.executor == "process":
                for role in ("dealer", "party0", "party1"):
                    with open(os.path.join(sdir, f"spans.{role}.pkl"), "rb") as fh:
                        harvested.update(pickle.load(fh))
            first = self._first_round(sdir, traced, harvested)
            law = w.check(case, res)
            if self.records and (res["rounds"], res["bytes"]) != (
                    self.records[0]["rounds"], self.records[0]["bytes"]):
                raise GateFailure("round or byte count changed between sessions")
        except (GateFailure, OSError, ValueError) as exc:
            self.failures.append(str(exc))
            print(f"session {self.attempted} failed: {exc}", file=sys.stderr)
            return wedged
        finally:
            shutil.rmtree(sdir, ignore_errors=True)
        rec = {"traced": traced, "session_s": t1 - t0, "setup_s": first - t0,
               "online_s": t1 - first, "cpu_s": c1 - c0, "rounds": res["rounds"],
               "bytes": res["bytes"], "law": law}
        if traced:
            rec["layers"] = layer_metrics(harvested)
        self.records.append(rec)
        return False

    def _first_round(self, sdir, traced, harvested) -> float:
        if traced:
            return min(s[1] for s in harvested["party0"]["spans"]
                       if s[0] == "session.exchange")
        if self.w.executor == "process":
            with open(os.path.join(sdir, "firstround.party0.txt"), encoding="utf-8") as fh:
                return float(fh.read())
        if self.probe.stamp is None:
            raise ValueError("party 0 never entered a round")
        return self.probe.stamp

    # -- results ---------------------------------------------------------

    def end_to_end(self) -> dict:
        plain = [r for r in self.records if not r["traced"]]
        out = {}
        for key in ("session_s", "setup_s", "online_s", "cpu_s"):
            out[key] = statistics.median(r[key] for r in plain)
        who = resource.RUSAGE_CHILDREN if self.w.executor == "process" else resource.RUSAGE_SELF
        out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        rounds, nbytes = plain[0]["rounds"], plain[0]["bytes"]
        out["rounds"] = rounds
        out["wire_mb"] = nbytes / 1e6
        out["dealer_mb"] = self.dealer_mb
        out["comm_lan_s"] = rounds * LAN[0] + 8 * nbytes / LAN[1]
        out["comm_wan_s"] = rounds * WAN[0] + 8 * nbytes / WAN[1]
        out["accuracy"] = statistics.fmean(c.accuracy for c in self.cases)
        return out

    def per_layer(self) -> dict:
        traced = [r for r in self.records if r["traced"]]
        plain = [r for r in self.records if not r["traced"]]
        out = {}
        for key in sorted({k for r in traced for k in r["layers"]}):
            out[key] = statistics.median(r["layers"].get(key, 0) for r in traced)
        out["noise.law_err"] = statistics.median(r["law"] for r in traced)
        out["harness.trace_overhead"] = (statistics.median(r["session_s"] for r in traced)
                                         / statistics.median(r["session_s"] for r in plain))
        out["harness.online_accounted"] = statistics.median(
            r["layers"]["accounted_s"] / r["online_s"] for r in traced)
        del out["accounted_s"]
        return out

    def report(self) -> dict:
        """Print the metric table; return the contract's result object."""
        failed = len(self.failures)
        table = dict(PER_LAYER if self.trace else END_TO_END)
        print(f"perfbench {self.w.name}: seed {self.seed}, {self.seconds:g} s, "
              f"trace {int(self.trace)}; {self.attempted} sessions, {failed} failed")
        print(f"  {'error_rate':28s} {failed / self.attempted:.4f} ratio")
        ok = bool(self.records) and self._enough()
        metrics = {}
        if ok:
            values = self.per_layer() if self.trace else self.end_to_end()
            if not self.trace:
                print(f"  {'noise_law_err':28s} "
                      f"{statistics.median(r['law'] for r in self.records):.6f} ratio")
            for key, value in values.items():
                unit = table.get(key, "count" if key.endswith("rounds") else
                                 "MB" if key.endswith(".mb") else "s")
                print(f"  {key:28s} {value:.6g} {unit}")
            metrics = {k: {"value": float(values.get(k, 0.0)), "unit": u}
                       for k, u in table.items()}
        return {"correct": ok and failed == 0, "attempted": self.attempted,
                "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process, one after the other."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    return combined


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(args)
    elif args.workload in WORKLOADS:
        runner = Runner(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        runner.run()
        result = runner.report()
    else:
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{', '.join(WORKLOADS)} or all")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
