import os
import subprocess
import sys

import numpy as np
import pytest

from veiltrain.cli import main
from veiltrain.datasets import evaluate, load_csv


def run_cli(*args):
    assert main(list(args)) == 0


def test_full_stage_flow(tmp_path):
    data = tmp_path / "data.csv"
    run_cli("synth", "--n", "60", "--m", "5", "--seed", "3", "--out", str(data))
    shares = tmp_path / "shares"
    run_cli("ingest", "--owner-csv", str(data), "--out", str(shares))
    weights = tmp_path / "weights"
    run_cli("train", "--shares", str(shares), "--out-weights", str(weights), "--seed", "21")
    noisy = tmp_path / "noisy"
    run_cli("perturb", "--in-weights", str(weights), "--out-weights", str(noisy),
            "--n", "60", "--epsilon", "1.0", "--seed", "21")
    from veiltrain.shareio import read_weights_file

    header = read_weights_file(f"{noisy}.party0.bin")[0]
    assert float(header["epsilon_total"]) == 1.0
    assert float(header["noise_scale"]) == 2 / 60
    twice = tmp_path / "twice"
    run_cli("perturb", "--in-weights", str(noisy), "--out-weights", str(twice),
            "--n", "60", "--epsilon", "0.5", "--seed", "21")
    assert float(read_weights_file(f"{twice}.party1.bin")[0]["epsilon_total"]) == 1.5
    model_csv = tmp_path / "model.csv"
    run_cli("open", "--in-weights", str(noisy), "--out", str(model_csv))
    lines = model_csv.read_text().strip().splitlines()
    assert lines[0] == "coefficient"
    w = np.array([float(v) for v in lines[1:]])
    assert w.shape == (5,)
    # the noisy model must equal trained weights plus a plausible noise draw
    trained = sum(read_weights_file(f"{weights}.party{p}.bin")[1] for p in (0, 1))
    from veiltrain.fixedpoint import decode

    eta = w - decode(trained)
    assert 0 < np.linalg.norm(eta) < 1.0  # scale c*d = 2*5/60 with Gamma tails
    X, t = load_csv(data)
    assert 0.0 <= evaluate(w, X, t) <= 1.0


def test_open_without_noise_matches_mirror(tmp_path):
    from conftest import mirror_weights
    from veiltrain.harness import training_config
    from veiltrain.shareio import DEFAULTS

    data = tmp_path / "data.csv"
    run_cli("synth", "--n", "40", "--m", "4", "--seed", "6", "--out", str(data))
    shares = tmp_path / "s"
    run_cli("ingest", "--owner-csv", str(data), "--out", str(shares))
    weights = tmp_path / "w"
    run_cli("train", "--shares", str(shares), "--out-weights", str(weights),
            "--lambda-reg", "0.5", "--seed", "33")
    out = tmp_path / "model.csv"
    run_cli("open", "--in-weights", str(weights), "--out", str(out))
    w = np.array([float(v) for v in out.read_text().splitlines()[1:]])
    X, t = load_csv(data)
    # the session ran the default config with the command line's lambda
    mirror = mirror_weights(X, t, training_config(dict(DEFAULTS, lambda_reg=0.5)), seed=33)
    assert np.abs(w - mirror).max() < 1e-12


def test_stages_reject_inputs_of_another_ring(tmp_path, capsys):
    # shares and weights made on a 16-bit ring must not be read on the
    # default 20-bit one: train and open stop with exit status 2
    data = tmp_path / "data.csv"
    run_cli("synth", "--n", "30", "--m", "4", "--seed", "6", "--out", str(data))
    cfg = tmp_path / "ring16.cfg"
    cfg.write_text("frac_bits = 16\n")
    shares, weights = tmp_path / "s", tmp_path / "w"
    run_cli("ingest", "--config", str(cfg), "--owner-csv", str(data), "--out", str(shares))
    run_cli("train", "--config", str(cfg), "--shares", str(shares),
            "--out-weights", str(weights))
    capsys.readouterr()
    assert main(["train", "--shares", str(shares), "--out-weights",
                 str(tmp_path / "w20")]) == 2
    assert "frac_bits" in capsys.readouterr().err
    assert not (tmp_path / "w20.party0.bin").exists()
    assert main(["open", "--in-weights", str(weights), "--out", str(tmp_path / "m.csv")]) == 2
    assert "frac_bits" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()
    run_cli("open", "--config", str(cfg), "--in-weights", str(weights),
            "--out", str(tmp_path / "m.csv"))


def test_perturb_calibrates_to_the_bias_column_row_norm(tmp_path):
    # with the bias column rows have norm sqrt 2, and perturb scales its
    # noise as the session does: c = 2 sqrt(2) / (n epsilon lambda)
    from veiltrain.shareio import read_weights_file

    data = tmp_path / "data.csv"
    run_cli("synth", "--n", "30", "--m", "4", "--seed", "6", "--out", str(data))
    cfg = tmp_path / "bias.cfg"
    cfg.write_text("add_bias = 1\n")
    shares, weights, noisy = tmp_path / "s", tmp_path / "w", tmp_path / "n"
    run_cli("ingest", "--config", str(cfg), "--owner-csv", str(data), "--out", str(shares))
    run_cli("train", "--config", str(cfg), "--shares", str(shares), "--out-weights", str(weights))
    run_cli("perturb", "--config", str(cfg), "--in-weights", str(weights),
            "--out-weights", str(noisy), "--n", "30", "--epsilon", "0.5")
    header = read_weights_file(f"{noisy}.party0.bin")[0]
    assert int(header["d"]) == 5
    assert float(header["noise_scale"]) == 2 * np.sqrt(2) / (30 * 0.5 * 1.0)


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
    assert row[4] == "8"  # the kernel's 7 rounds and the opening of its result
    row = next(line.split() for line in out.splitlines() if line.startswith("bm_radius"))
    assert float(row[1]) <= float(row[3])  # E rsqrt(E) against sqrt(E), within its bound
    assert row[4] == "24"  # rsqrt's 21 rounds, the product, its truncation, the opening
    row = next(line.split() for line in out.splitlines() if line.startswith("sigmoid_b1.25"))
    assert float(row[1]) <= float(row[3]) == 2e-5  # max error, within its bound
    assert row[4] == "5"  # the kernel's 3 rounds, its truncation and the opening


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


@pytest.mark.parametrize("frac_bits", [11, 23, 30])
def test_a_ring_no_session_can_run_on_is_an_error_line(tmp_path, capsys, frac_bits):
    # at 11 the row normalization keeps no squared norm accurate; from 23
    # secure_rsqrt's correction operand can leave the truncation masks' range
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
        return {k: (type(v), v) for k, v in report.items() if not k.endswith("seconds")}

    assert untimed(res["report"]) == untimed(threaded["report"])
    # two opened noisy copies at epsilon 1 compose to 2
    assert res["report"]["epsilon_total"] == 2.0


def test_cli_module_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "veiltrain.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "experiment" in proc.stdout
