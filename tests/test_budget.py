"""Pinned communication budget of one tiny session.

Round and byte counts are data-independent, so they are exact regression
gates. A change that lowers them updates these numbers on purpose and says
so in CHANGES.md; a change that raises them has to justify it there.
"""

from veiltrain import harness
from veiltrain.datasets import make_plan, partition, synth_data
from veiltrain.shareio import DEFAULTS

# 20x4 horizontal, the defaults' 7 steps, 3 noise draws, thread executor.
# The noise (49 rounds) runs beside training (37), so it sets the length:
# its first 37 rounds are recorded under training's path, its last 12 under
# its own; the last round opens the models.
ROUNDS_BY_PATH = {
    "-": 1,
    "forward": 7, "sigmoid": 21, "backward": 8, "finalize": 1,
    "perturb": 4, "perturb/rsqrt": 8,
}
# the noise's rounds that rode in training's
OVERLAP_BY_PATH = {
    "perturb/uniform": 2, "perturb/ln": 15, "perturb/sin_cos": 7, "perturb/rsqrt": 13,
}
WIRE_BYTES = 127_908  # party 0, sent plus received


def _rows(report, prefix):
    return {k[len(prefix):-len(".rounds")]: v for k, v in report.items()
            if k.startswith(prefix) and k.endswith(".rounds")}


def test_tiny_session_budget():
    cfg = dict(DEFAULTS, executor="thread")
    X, t = synth_data(20, 4, seed=3, separability=1.0)
    parts = partition(X, t, make_plan("horizontal", 2, 20, 4))
    res = harness.run_mpc_threaded(parts, "horizontal", cfg, 1, 3)
    report = res["report"]
    assert _rows(report, "path.") == ROUNDS_BY_PATH
    assert _rows(report, "overlap.") == OVERLAP_BY_PATH
    assert res["rounds"] == sum(ROUNDS_BY_PATH.values())
    assert res["bytes"] == WIRE_BYTES
