"""Command-line entry points.

Subcommands: synth (make a dataset), ingest (owner-side share splitting),
party (run one role of a networked session), train (one whole session over
in-process loopback: training, the noise beside it, one opening), baseline
(federated local-DP reference), kernel-bench (kernel accuracy and round
counts), and experiment (the full k-fold comparison harness).

Each command imports the modules it runs, so a role loads only its own:
the dealer (party --role dealer) no protocol module at all.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import VeiltrainError
from .shareio import DEFAULTS, load_config, ring_from_config


def _load_cfg(args) -> dict:
    cfg = load_config(args.config) if getattr(args, "config", None) else dict(DEFAULTS)
    for key in ("lambda_reg", "seed", "epsilon"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def cmd_synth(args):
    from . import datasets

    X, t = datasets.synth_data(args.n, args.m, args.seed, args.separability)
    datasets.save_csv(args.out, X, t)
    print(f"wrote {args.n}x{args.m} dataset to {args.out}")


def cmd_ingest(args):
    from . import datasets
    from .ingest import ingest_shares
    from .partyproc import write_party_shares

    cfg = _load_cfg(args)
    ring = ring_from_config(cfg)
    X, t = datasets.load_csv(args.owner_csv)
    # the owner's split draws fresh entropy: no seed regenerates either half
    (x0, t0), (x1, t1) = ingest_shares(X, t, ring, np.random.default_rng())
    for party, (xs, ts) in enumerate(((x0, t0), (x1, t1))):
        path = write_party_shares(args.out, cfg["session_id"], party, xs, ts, ring)
        print(f"wrote {path} ({X.shape[0]}x{X.shape[1]})")


def cmd_party(args):
    from .partyproc import run_party, serve_dealer

    cfg = load_config(args.config)
    if args.role == "dealer":
        serve_dealer(cfg)
    else:
        run_party(cfg, int(args.role[-1]))


def cmd_train(args):
    from .harness import run_threaded_session
    from .partyproc import read_party_shares, write_party_outputs

    cfg = dict(_load_cfg(args), shares_prefix=args.shares, out_dir=args.out_dir)
    shares = [read_party_shares(cfg, party) for party in (0, 1)]
    results, _ = run_threaded_session(shares, cfg, cfg["seed"], cfg["noise_draws"])
    for party, (out, report) in enumerate(results):
        write_party_outputs(cfg, party, out, report)
    out, report = results[0]
    print(f"wrote weight shares, {len(out.get('noisy', ()))} noisy model(s) and "
          f"reports to {args.out_dir}")
    print(f"rounds={report['rounds']} bytes={report['bytes_sent'] + report['bytes_received']} "
          f"epsilon_total={report['epsilon_total']:g}")


def cmd_baseline(args):
    from . import datasets
    from .cleartext import baseline_fl
    from .harness import training_config

    cfg = _load_cfg(args)
    tc = training_config(cfg)
    X, t = datasets.load_csv(args.csv)
    plan = datasets.make_plan("horizontal", args.owners, len(X), X.shape[1])
    parts = datasets.partition(X, t, plan)
    rng = np.random.default_rng(cfg["seed"])
    model = baseline_fl(parts, tc, cfg["epsilon"], rng)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("coefficient\n")
        for w in model.weights:
            fh.write(f"{w:.12g}\n")
    print(f"wrote baseline model ({args.owners} owners) to {args.out}")


def cmd_kernel_bench(args):
    from . import kernels
    from .engine import run_two_party
    from .fixedpoint import decode, encode
    from .noise import box_muller_radius

    cfg = _load_cfg(args)
    ring = ring_from_config(cfg)
    rng = np.random.default_rng(cfg["seed"])
    n = args.samples
    b = np.exp2(rng.uniform(-8, 8, n)) * np.where(rng.random(n) < 0.5, -1, 1)
    a = rng.uniform(-1, 1, n) * 2.0 ** 10 * b
    sq = np.exp2(rng.uniform(-10, 10, n))
    lx = np.exp2(rng.uniform(-ring.frac_bits + 0.01, 10, n))
    th = rng.uniform(0, 2 * np.pi, n)
    z = rng.uniform(-16, 16, n)
    z4 = rng.uniform(-kernels.SIGMOID_BOUND, kernels.SIGMOID_BOUND, n)
    # E = -2 ln u on the Box-Muller domain: u on the l-bit grid of (0, 1], u = 1 included
    bm = -2 * np.log(np.append(rng.integers(1, 2 ** ring.frac_bits, n - 1), 2 ** ring.frac_bits)
                     * 2.0 ** -ring.frac_bits)

    def exact(x):
        return decode(encode(x, ring), ring)

    def sigmoid(x):
        return 1 / (1 + np.exp(-x))

    # each row: its inputs, its kernel on their shares, and its float reference
    rows = [
        ("div", (a, b), kernels.secure_div, exact(a) / exact(b)),
        ("sqrt", (sq,), kernels.secure_sqrt, np.sqrt(exact(sq))),
        ("rsqrt", (sq,), kernels.secure_rsqrt, 1 / np.sqrt(exact(sq))),
        ("ln", (lx,), kernels.secure_ln, np.log(exact(lx))),
        ("sin", (th,), lambda eng, x: kernels.secure_sin_cos(eng, x)[0], np.sin(th)),
        ("cos", (th,), lambda eng, x: kernels.secure_sin_cos(eng, x)[1], np.cos(th)),
        ("sigmoid", (z,), kernels.secure_sigmoid,
         np.where(z < -8, 0, np.where(z > 8, 1, sigmoid(z)))),
        ("sigmoid_b4", (z4,),
         lambda eng, x: kernels.secure_sigmoid(eng, x, bound=kernels.SIGMOID_BOUND), sigmoid(z4)),
        ("bm_radius", (bm,), box_muller_radius, np.sqrt(exact(bm))),
    ]

    print(f"{'kernel':13s} {'max_err':>12s} {'mean_err':>12s} {'bound':>12s} {'rounds':>7s}")
    for name, inputs, kernel, want in rows:
        def fn(eng, inputs=inputs, kernel=kernel):
            return eng.open(kernel(eng, *(eng.from_public(encode(x, ring)) for x in inputs)))

        (got, _), engines = run_two_party(fn, session_seed=cfg["seed"], cfg=ring)
        err = np.abs(decode(got, ring) - want)
        bound = kernels.KERNEL_TOLERANCES[name].bound
        print(f"{name:13s} {err.max():12.3e} {err.mean():12.3e} {bound:12.3e} "
              f"{engines[0].rt.transcript.n_rounds:7d}")


def cmd_experiment(args):
    from .harness import run_experiment, write_report

    cfg = _load_cfg(args)
    out_dir = args.out_dir or cfg.get("out_dir") or "experiment_out"
    log = (lambda msg: print(msg, flush=True)) if not args.quiet else (lambda msg: None)
    report = run_experiment(cfg, workdir=os.path.join(out_dir, "work"), log=log)
    write_report(report, out_dir)
    print(report.text())
    print(f"report written to {out_dir}/report.csv")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="veiltrain", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("synth", help="generate a synthetic binary-feature dataset")
    for key in ("n", "m", "seed", "separability"):
        s.add_argument(f"--{key}", type=type(DEFAULTS[key]), default=DEFAULTS[key])
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_synth)

    s = sub.add_parser("ingest", help="encode and secret-share an owner's CSV")
    s.add_argument("--owner-csv", required=True)
    s.add_argument("--config", default=None)
    s.add_argument("--out", required=True, help="share-file prefix")
    s.set_defaults(fn=cmd_ingest)

    s = sub.add_parser("party", help="run one networked role of a session")
    s.add_argument("--config", required=True)
    s.add_argument("--role", choices=("party0", "party1", "dealer"), required=True)
    s.set_defaults(fn=cmd_party)

    s = sub.add_parser("train", help="run one whole session over loopback from share files")
    s.add_argument("--config", default=None)
    s.add_argument("--shares", required=True, help="share-file prefix from ingest")
    s.add_argument("--out-dir", required=True, help="weights, noisy models and reports")
    s.add_argument("--lambda-reg", dest="lambda_reg", type=float, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.set_defaults(fn=cmd_train)

    s = sub.add_parser("baseline", help="federated local-DP baseline")
    s.add_argument("--csv", required=True)
    s.add_argument("--owners", type=int, default=2)
    s.add_argument("--config", default=None)
    s.add_argument("--epsilon", type=float, default=None)
    s.add_argument("--lambda-reg", dest="lambda_reg", type=float, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_baseline)

    s = sub.add_parser("kernel-bench", help="kernel accuracy and round counts")
    s.add_argument("--samples", type=int, default=2000)
    s.add_argument("--config", default=None)
    s.add_argument("--seed", type=int, default=None)
    s.set_defaults(fn=cmd_kernel_bench)

    s = sub.add_parser("experiment", help="full k-fold comparison harness")
    s.add_argument("--config", default=None)
    s.add_argument("--out-dir", default=None)
    s.add_argument("--quiet", action="store_true")
    s.set_defaults(fn=cmd_experiment)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except VeiltrainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
