"""Pinned communication budget of one tiny session.

Round and byte counts are data-independent, so they are exact regression
gates. A change that lowers them updates these numbers on purpose and says
so in CHANGES.md; a change that raises them has to justify it there.
"""

from veiltrain import harness
from veiltrain.datasets import make_plan, partition, synth_data
from veiltrain.engine import run_two_party
from veiltrain.noise import DpParams, perturb_weights
from veiltrain.shareio import DEFAULTS

# 20x4 horizontal, the defaults' linear tier, 3 noise draws, thread
# executor. Training is the recurrence: the Gram, 3 doublings (7 steps
# round up to 8) and the final truncation, 5 rounds; the noise (22 rounds,
# its last truncation left to the opening) runs beside it, so the noise
# sets the length, its first 5 rounds ride in training's and the other 17
# are recorded under its own paths; the last round opens the models and
# truncates the noise.
ROUNDS_BY_PATH = {
    "-": 1,
    "gram": 1, "doubling": 3, "finalize": 1,
    "perturb/sin_cos": 2, "perturb/rsqrt": 13, "perturb": 2,
}
# the noise's rounds that rode in another branch's: its first 5 in
# training's (its 2 uniform draws and the 3 rounds of sin/cos's power
# chain), and the 6 in which two of its own branches ran (4 with the
# exponents beside the uniforms and the power chain, 2 with rsqrt's lead
# beside sin/cos's pair products and the truncation of sin, cos and the
# Gamma), so 11 riders
OVERLAP_BY_PATH = {
    "perturb/uniform": 2, "perturb/geometric": 4, "perturb/sin_cos": 3, "perturb/rsqrt": 2,
}
WIRE_BYTES = 43_702  # party 0, sent plus received

# the noise alone at d = 50 with 100 draws, then the opening of the models:
# the noise-wide benchmark's shape at a tenth of its batch
NOISE_ROUNDS = 24
NOISE_SENT_BYTES = 4_754_712  # party 0


def _column(report, column):
    """A column of the report's path table, at the rows where it is nonzero."""
    return {path: row[column] for path, row in report["paths"].items() if row[column]}


def test_tiny_session_budget():
    cfg = dict(DEFAULTS, executor="thread")
    X, t = synth_data(20, 4, seed=3, separability=1.0)
    parts = partition(X, t, make_plan("horizontal", 2, 20, 4))
    res = harness.run_mpc_threaded(parts, "horizontal", cfg, 1, 3)
    report = res["report"]
    assert _column(report, "rounds") == ROUNDS_BY_PATH
    assert _column(report, "rode") == OVERLAP_BY_PATH
    assert res["rounds"] == sum(ROUNDS_BY_PATH.values())
    assert res["bytes"] == WIRE_BYTES


def test_noise_alone_budget():
    dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=2000, d=50)

    def fn(eng):
        return eng.open(perturb_weights(eng, eng.zeros(dp.d), dp, batch=(100,)))

    _, engines = run_two_party(fn, session_seed=1)
    transcript = engines[0].rt.transcript
    assert transcript.n_rounds == NOISE_ROUNDS
    assert transcript.bytes_sent == NOISE_SENT_BYTES
