import json
import os
import subprocess
import sys

import numpy as np
import pytest

from veiltrain.cli import main
from veiltrain.datasets import evaluate, load_csv


def run_cli(*args):
    assert main(list(args)) == 0


def read_weights(out_dir):
    """Both parties' weight shares from train's output directory."""
    from veiltrain.shareio import read_weights_file

    return [read_weights_file(out_dir / f"weights.party{p}.bin")[1] for p in (0, 1)]


def test_full_stage_flow(tmp_path):
    # synth -> ingest -> train writes what the thread executor returns for
    # the same data and seed: one session, its noise calibrated to the
    # shares' own n, the bias column's row bound included
    from veiltrain.harness import run_mpc_threaded
    from veiltrain.shareio import load_config

    data = tmp_path / "data.csv"
    run_cli("synth", "--n", "60", "--m", "5", "--seed", "3", "--out", str(data))
    cfg = tmp_path / "session.cfg"
    cfg.write_text("noise_draws = 2\nadd_bias = 1\n")
    shares, out = tmp_path / "shares", tmp_path / "run"
    run_cli("ingest", "--config", str(cfg), "--owner-csv", str(data), "--out", str(shares))
    run_cli("train", "--config", str(cfg), "--shares", str(shares), "--out-dir", str(out),
            "--seed", "21")

    X, t = load_csv(data)
    res = run_mpc_threaded([(X, t)], "horizontal", dict(load_config(cfg), seed=21),
                           seed=21, draws=2)
    w0, w1 = read_weights(out)
    assert np.array_equal(w0 + w1, res["w_raw"])
    noisy = np.loadtxt(out / "noisy.party0.csv", delimiter=",", ndmin=2)
    assert noisy.shape == (2, 6)
    assert np.array_equal(noisy, np.array([[float(f"{v:.10g}") for v in row]
                                           for row in res["noisy_models"]]))
    assert np.array_equal(noisy, np.loadtxt(out / "noisy.party1.csv", delimiter=",", ndmin=2))

    def untimed(report):
        paths = {p: {k: v for k, v in row.items() if k != "seconds"}
                 for p, row in report["paths"].items()}
        return dict({k: v for k, v in report.items() if k != "seconds"}, paths=paths)

    report = json.loads((out / "report.party0.json").read_text())
    assert untimed(report) == untimed(res["report"])
    assert report["epsilon_total"] == 2.0  # two opened copies at epsilon 1
    assert json.loads((out / "report.party1.json").read_text())["party"] == 1
    assert all(0.0 <= evaluate(w, X, t, add_bias=1) <= 1.0 for w in noisy)


def test_train_without_noise_matches_mirror(tmp_path):
    from conftest import mirror_weights
    from veiltrain.fixedpoint import decode
    from veiltrain.harness import training_config
    from veiltrain.shareio import DEFAULTS

    data = tmp_path / "data.csv"
    run_cli("synth", "--n", "40", "--m", "4", "--seed", "6", "--out", str(data))
    cfg = tmp_path / "plain.cfg"
    cfg.write_text("epsilon = 0\n")
    shares, out = tmp_path / "s", tmp_path / "run"
    run_cli("ingest", "--owner-csv", str(data), "--out", str(shares))
    run_cli("train", "--config", str(cfg), "--shares", str(shares), "--out-dir", str(out),
            "--lambda-reg", "0.5", "--seed", "33")
    w = decode(sum(read_weights(out)))
    X, t = load_csv(data)
    # the session ran the config with the command line's lambda, and
    # without noise it opens no model and spends no budget
    mirror = mirror_weights(X, t, training_config(dict(DEFAULTS, lambda_reg=0.5)), seed=33)
    assert np.abs(w - mirror).max() < 1e-12
    assert not (out / "noisy.party0.csv").exists()
    assert json.loads((out / "report.party0.json").read_text())["epsilon_total"] == 0.0


def test_ingest_splits_with_fresh_entropy(tmp_path):
    # two ingests of one CSV draw different halves of the same encodings,
    # and train on either releases the same outputs
    from veiltrain.shareio import read_share_file

    data = tmp_path / "data.csv"
    run_cli("synth", "--n", "30", "--m", "4", "--seed", "6", "--out", str(data))
    cfg = tmp_path / "small.cfg"
    cfg.write_text("noise_draws = 2\n")
    halves, outs = [], []
    for k in range(2):
        shares, out = tmp_path / f"s{k}", tmp_path / f"run{k}"
        run_cli("ingest", "--owner-csv", str(data), "--out", str(shares))
        halves.append([read_share_file(f"{shares}.party{p}.shares")[2:] for p in (0, 1)])
        run_cli("train", "--config", str(cfg), "--shares", str(shares), "--out-dir", str(out))
        outs.append(out)
    (a0, a1), (b0, b1) = halves
    assert not np.array_equal(a0[0], b0[0]) and not np.array_equal(a0[1], b0[1])
    assert np.array_equal(a0[0] + a1[0], b0[0] + b1[0])
    assert np.array_equal(a0[1] + a1[1], b0[1] + b1[1])
    assert np.array_equal(sum(read_weights(outs[0])), sum(read_weights(outs[1])))
    for name in ("noisy.party0.csv", "noisy.party1.csv"):
        assert (outs[0] / name).read_text() == (outs[1] / name).read_text()


def test_stages_reject_inputs_of_another_ring(tmp_path, capsys):
    # shares made on a 16-bit ring must not be read on the default 20-bit
    # one: train stops with exit status 2 and writes nothing
    data = tmp_path / "data.csv"
    run_cli("synth", "--n", "30", "--m", "4", "--seed", "6", "--out", str(data))
    cfg = tmp_path / "ring16.cfg"
    cfg.write_text("frac_bits = 16\nepsilon = 0\n")
    shares = tmp_path / "s"
    run_cli("ingest", "--config", str(cfg), "--owner-csv", str(data), "--out", str(shares))
    capsys.readouterr()
    assert main(["train", "--shares", str(shares), "--out-dir", str(tmp_path / "w20")]) == 2
    assert "frac_bits" in capsys.readouterr().err
    assert not (tmp_path / "w20").exists()
    run_cli("train", "--config", str(cfg), "--shares", str(shares),
            "--out-dir", str(tmp_path / "w16"))
    assert len(read_weights(tmp_path / "w16")[0]) == 4


def test_train_refuses_a_share_file_of_another_session(tmp_path, capsys):
    # the share files' session must be the config's: train stops with exit
    # status 2 before it runs anything
    data = tmp_path / "data.csv"
    run_cli("synth", "--n", "20", "--m", "4", "--seed", "6", "--out", str(data))
    other = tmp_path / "other.cfg"
    other.write_text("session_id = 5\n")
    run_cli("ingest", "--config", str(other), "--owner-csv", str(data),
            "--out", str(tmp_path / "s"))
    capsys.readouterr()
    assert main(["train", "--shares", str(tmp_path / "s"),
                 "--out-dir", str(tmp_path / "run")]) == 2
    assert "'session'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [["perturb"], ["open"],
                                  ["ingest", "--owner-csv", "d.csv", "--out", "s",
                                   "--share-seed", "7"],
                                  ["train", "--shares", "s", "--out-weights", "w"]],
                         ids=["perturb", "open", "ingest-share-seed", "train-out-weights"])
def test_removed_stages_and_options_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_the_subcommands_are_one_session_each():
    from veiltrain.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "cmd")
    assert list(sub.choices) == ["synth", "ingest", "party", "train", "baseline",
                                 "kernel-bench", "experiment"]


def test_party_refuses_a_share_file_of_another_session(tmp_path, capsys):
    # the share file's session must be the config's: the party role stops
    # with exit status 2 before it asks the dealer for anything
    data = tmp_path / "data.csv"
    run_cli("synth", "--n", "20", "--m", "4", "--seed", "6", "--out", str(data))
    other = tmp_path / "other.cfg"
    other.write_text("session_id = 5\n")
    run_cli("ingest", "--config", str(other), "--owner-csv", str(data),
            "--out", str(tmp_path / "s"))
    cfg = tmp_path / "party.cfg"
    cfg.write_text(f"session_id = 1\nshares_prefix = {tmp_path / 's'}\n"
                   "dealer_host = 127.0.0.1\ndealer_port = 9\nconnect_deadline = 1\n")
    capsys.readouterr()
    assert main(["party", "--config", str(cfg), "--role", "party0"]) == 2
    assert "'session'" in capsys.readouterr().err


def test_baseline_cli(tmp_path):
    data = tmp_path / "data.csv"
    run_cli("synth", "--n", "80", "--m", "6", "--seed", "9", "--out", str(data))
    out = tmp_path / "base.csv"
    run_cli("baseline", "--csv", str(data), "--owners", "2", "--out", str(out))
    w = [float(v) for v in out.read_text().splitlines()[1:]]
    assert len(w) == 6


def test_kernel_bench_runs(capsys):
    run_cli("kernel-bench", "--samples", "200")
    out = capsys.readouterr().out
    assert "sigmoid" in out and "sqrt" in out
    row = next(line.split() for line in out.splitlines() if line.startswith("sigmoid_b4"))
    assert float(row[1]) <= 3.9e-5  # max error
    assert row[4] == "7"  # the kernel's 6 rounds and the opening of its result
    row = next(line.split() for line in out.splitlines() if line.startswith("bm_radius"))
    assert float(row[1]) <= float(row[3])  # E rsqrt(E) against sqrt(E), within its bound
    assert row[4] == "17"  # rsqrt's 15 rounds, the product in them, its truncation, the opening


def test_synth_with_one_feature_is_an_error_line(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert main(["synth", "--n", "20", "--m", "1", "--out", str(data)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not data.exists()
    run_cli("synth", "--n", "20", "--m", "3", "--out", str(data))
    assert load_csv(data)[0].shape == (20, 3)


def test_synth_with_a_separability_outside_0_1_is_an_error_line(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert main(["synth", "--separability", "2", "--out", str(data)]) == 2
    assert capsys.readouterr().err.startswith("error: separability")
    assert not data.exists()


def test_synth_defaults_are_the_config_defaults(tmp_path):
    from veiltrain.datasets import synth_data
    from veiltrain.shareio import DEFAULTS

    data = tmp_path / "data.csv"
    run_cli("synth", "--out", str(data))
    X, t = load_csv(data)
    want = synth_data(DEFAULTS["n"], DEFAULTS["m"], DEFAULTS["seed"], DEFAULTS["separability"])
    assert np.array_equal(X, want[0]) and np.array_equal(t, want[1])


def test_train_from_a_share_file_without_labels_is_an_error_line(tmp_path, capsys):
    data, prefix = tmp_path / "data.csv", tmp_path / "s"
    run_cli("synth", "--n", "20", "--m", "4", "--out", str(data))
    run_cli("ingest", "--owner-csv", str(data), "--out", str(prefix))
    shares = tmp_path / "s.party1.shares"
    shares.write_bytes(shares.read_bytes()[:-(13 + 8 * 20)])  # its LABELS frame cut
    capsys.readouterr()
    assert main(["train", "--shares", str(prefix), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {shares}: missing labels frame\n"


def test_baseline_with_a_nonpositive_lambda_is_an_error_line(tmp_path, capsys):
    data = tmp_path / "data.csv"
    run_cli("synth", "--n", "20", "--m", "4", "--out", str(data))
    capsys.readouterr()
    assert main(["baseline", "--csv", str(data), "--lambda-reg", "0",
                 "--out", str(tmp_path / "base.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: lambda_reg")


@pytest.mark.parametrize("role, missing", [("party0", "shares_prefix"),
                                           ("dealer", "dealer_port")])
def test_a_role_names_the_deployment_key_it_lacks(tmp_path, capsys, role, missing):
    cfg = tmp_path / "role.cfg"
    cfg.write_text("dealer_host = 127.0.0.1\nconnect_deadline = 1\n")
    assert main(["party", "--config", str(cfg), "--role", role]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(missing) in err


@pytest.mark.parametrize("role, foreign", [("party0", "dealer_seed"), ("party1", "dealer_seed"),
                                           ("dealer", "bit_seed")])
def test_a_role_refuses_a_config_holding_a_seed_it_does_not_read(tmp_path, capsys, role,
                                                                 foreign):
    # one config for every role, with both seeds, would hand each party
    # the dealer's seed (every mask) and both parties one bit seed (the
    # noise a public constant): each role stops, naming the other's seed
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(f"shares_prefix = {tmp_path / 's'}\ndealer_host = 127.0.0.1\n"
                   "dealer_port = 9\nconnect_deadline = 1\ndealer_seed = 5\nbit_seed = 6\n")
    assert main(["party", "--config", str(cfg), "--role", role]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(foreign) in err


def test_a_dealer_nobody_dials_is_an_error_line(tmp_path, capsys):
    from veiltrain.harness import _free_port

    cfg = tmp_path / "dealer.cfg"
    cfg.write_text(f"dealer_host = 127.0.0.1\ndealer_port = {_free_port()}\n"
                   "connect_deadline = 0.3\n")
    assert main(["party", "--config", str(cfg), "--role", "dealer"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 2 of 2 peers did not connect") and "Traceback" not in err


@pytest.mark.parametrize("frac_bits", [11, 23, 30])
def test_a_ring_no_session_can_run_on_is_an_error_line(tmp_path, capsys, frac_bits):
    # at 11 the row normalization keeps no squared norm accurate; from 23
    # secure_div's error passes its bound
    data = tmp_path / "data.csv"
    run_cli("synth", "--n", "20", "--m", "4", "--out", str(data))
    cfg = tmp_path / "ring.cfg"
    cfg.write_text(f"frac_bits = {frac_bits}\n")
    capsys.readouterr()
    assert main(["ingest", "--config", str(cfg), "--owner-csv", str(data),
                 "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.startswith(f"error: frac_bits = {frac_bits} ")


def test_a_config_setting_the_ring_width_is_an_error_line(tmp_path, capsys):
    cfg = tmp_path / "width.cfg"
    cfg.write_text("lambda = 64\n")
    assert main(["ingest", "--config", str(cfg), "--owner-csv", str(tmp_path / "none.csv"),
                 "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == "error: line 1: unknown config key 'lambda'\n"


def test_experiment_cli_thread(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 60\nm = 5\nnoise_draws = 3\nfolds = 2\n"
                   "owners = 2\nmodes = horizontal\nexecutor = thread\nseed = 4\n")
    out_dir = tmp_path / "out"
    run_cli("experiment", "--config", str(cfg), "--out-dir", str(out_dir), "--quiet")
    text = (out_dir / "report.csv").read_text()
    assert text.startswith("owners,mode,method")


def test_subprocess_party_trio(tmp_path):
    # end-to-end over OS processes: dealer + two parties on loopback TCP
    from veiltrain.datasets import make_plan, partition, synth_data
    from veiltrain.harness import run_mpc_process, run_mpc_threaded
    from veiltrain.shareio import DEFAULTS

    X, t = synth_data(40, 4, seed=10, separability=1.0)
    cfg = dict(DEFAULTS)
    cfg.update({"noise_draws": 2, "epsilon": 1.0, "seed": 15})
    res = run_mpc_process([(X, t)], "horizontal", cfg, seed=15, draws=2,
                          workdir=str(tmp_path / "run"))
    assert res["noisy_models"].shape == (2, 4)
    assert res["rounds"] > 0 and res["bytes"] > 0
    # one report schema: the same keys, types and values as in thread mode,
    # timings aside
    threaded = run_mpc_threaded([(X, t)], "horizontal", cfg, seed=15, draws=2)

    def untimed(report):
        paths = {p: {k: (type(v), v) for k, v in row.items() if k != "seconds"}
                 for p, row in report["paths"].items()}
        return dict({k: (type(v), v) for k, v in report.items() if k != "seconds"},
                    paths=paths)

    assert untimed(res["report"]) == untimed(threaded["report"])
    # two opened noisy copies at epsilon 1 compose to 2
    assert res["report"]["epsilon_total"] == 2.0


def test_cli_module_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "veiltrain.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "experiment" in proc.stdout


def test_the_dealer_role_loads_no_protocol_module(tmp_path):
    # veiltrain party --role dealer imports the dealer and its wire code
    # alone; here it listens for 0.2 s, nobody dials, and it exits 2
    from veiltrain.harness import _free_port

    cfg = tmp_path / "dealer.cfg"
    cfg.write_text(f"dealer_host = 127.0.0.1\ndealer_port = {_free_port()}\n"
                   "connect_deadline = 0.2\n")
    probe = ("import sys\nfrom veiltrain import cli\n"
             f"rc = cli.main(['party', '--config', {str(cfg)!r}, '--role', 'dealer'])\n"
             "print(rc, *sorted(m for m in sys.modules if m.startswith('veiltrain')))")
    import veiltrain

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(veiltrain.__file__)))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    rc, *modules = proc.stdout.split()
    assert rc == "2" and "veiltrain.partyproc" in modules and "veiltrain.dealer" in modules
    loaded = {m.split(".", 1)[1] for m in modules if "." in m}
    assert not loaded & {"engine", "kernels", "noise", "training", "harness"}, loaded
