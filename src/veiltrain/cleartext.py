"""The float reference trainer and the federated local-DP baseline.

The reference trainer shares the protocol's update rule but runs in doubles
with the true logistic function: the independent numerical oracle. (The
bit-exact twin of a session is train_pipeline on the plain engine.)

The baseline is local DP: every owner normalizes, trains, and perturbs its
own model with the *owner's* example count setting the noise scale; the
published models are averaged coefficient-wise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import VerticalUnsupported
from .noise import DpParams
from .training import TrainingConfig, unit_rows


@dataclass
class ClearModel:
    """A plaintext coefficient vector with enough metadata to reproduce it."""

    weights: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return len(self.weights)


def normalize_rows(X: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm as the owners scale them before encoding
    (training.unit_rows); a zero row stays zero."""
    return unit_rows(np.asarray(X, dtype=np.float64))


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def train_lr_clear(X, t, cfg: TrainingConfig, seed: int = 0) -> ClearModel:
    """Reference trainer in doubles with the true sigmoid: the session's
    schedule (cfg.steps() steps of cfg.alpha from zero; the session's
    recurrence rounds them up to a power of two) on normalized rows. seed
    is recorded in the model's meta."""
    X = normalize_rows(np.asarray(X, dtype=np.float64))
    t = np.asarray(t, dtype=np.float64)
    if cfg.add_bias:
        X = np.hstack([X, np.ones((len(X), 1))])
    w = np.zeros(X.shape[1])
    for _ in range(cfg.steps()):
        grad = X.T @ (sigmoid(X @ w) - t) / len(t)
        w = w - cfg.alpha * (grad + cfg.lambda_reg * w)
    return ClearModel(w, {"seed": seed, **cfg.public()})


def perturb_clear(model: ClearModel, dp: DpParams, rng: np.random.Generator) -> ClearModel:
    """Output perturbation in the clear: add gamma * s_hat with s_hat uniform
    on the unit sphere and gamma ~ Gamma(d, c); c uses the owner's n."""
    d = model.d
    g = rng.normal(size=d)
    direction = g / np.linalg.norm(g)
    gamma = rng.gamma(shape=d, scale=dp.scale)
    noisy = model.weights + gamma * direction
    return ClearModel(noisy, {**model.meta, "epsilon": dp.epsilon, "noise_n": dp.n})


def baseline_fl(owner_datasets, cfg: TrainingConfig, epsilon: float,
                rng: np.random.Generator) -> ClearModel:
    """Federated baseline: every owner normalizes, trains, and perturbs
    locally (noise scale from its own example count), then the noisy models
    are averaged unweighted."""
    dims = {np.asarray(X).shape[1] for X, _ in owner_datasets}
    if len(dims) != 1:
        raise VerticalUnsupported("owners hold different feature sets; the "
                                  "baseline needs horizontally partitioned data")
    noisy = []
    for X, t in owner_datasets:
        model = train_lr_clear(X, t, cfg)
        dp = DpParams(epsilon=epsilon, lambda_reg=cfg.lambda_reg, n=len(X), d=model.d,
                      row_norm=cfg.row_norm)
        noisy.append(perturb_clear(model, dp, rng).weights)
    return ClearModel(np.mean(noisy, axis=0),
                      {"method": "baseline_fl", "owners": len(owner_datasets),
                       "epsilon": epsilon})
