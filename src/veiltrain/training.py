"""Secure logistic-regression training on secret-shared data.

The pipeline is: L2-normalize every example row (sum of squared shares, then
one reciprocal square root, then rescale), initialize weights publicly with a
Glorot uniform draw, and run full-batch gradient descent with momentum and L2
weight decay:

    velocity <- momentum * velocity - alpha * gradient - reg * alpha * weights
    weights  <- weights + velocity

The update itself is affine in the shares with public ring constants, so it
costs zero communication rounds. Weights and velocity are carried at double
fractional precision between epochs. The forward pass truncates the weights
in the same round as it multiplies them by the examples (engine op tmul),
and the velocity's truncation rides with one of the sigmoid's, so an epoch
spends no round of its own on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixedpoint import encode
from .kernels import secure_rsqrt, secure_sigmoid

# |x . w| stays far below this during regularized training on unit-norm rows
_FORWARD_MAGNITUDE_BITS = 12


@dataclass
class TrainingConfig:
    """Public hyperparameters agreed by both parties.

    batch_size 0 means full-batch; otherwise contiguous slices of that size
    are visited in order within every epoch.
    """

    alpha: float = 0.1
    lambda_reg: float = 1.0
    momentum: float = 0.9
    epochs: int = 100
    add_bias: bool = False
    skip_norm: bool = False
    batch_size: int = 0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.lambda_reg < 0:
            raise ValueError("lambda_reg must be nonnegative")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 0:
            raise ValueError("batch_size must be nonnegative")

    def public(self) -> dict:
        return {"alpha": self.alpha, "lambda_reg": self.lambda_reg,
                "momentum": self.momentum, "epochs": self.epochs,
                "add_bias": int(self.add_bias), "skip_norm": int(self.skip_norm),
                "batch_size": self.batch_size}


@dataclass
class ModelState:
    """Secret-shared weights and velocity, carried at 2l fractional bits."""

    w2l: object
    v2l: object
    epoch: int = 0


def l2_normalize(eng, x):
    """Scale vectors along the last axis to unit L2 norm.

    Sum of squared products, reciprocal square root, rescale. Zero vectors
    are out of domain (the reciprocal is unspecified there).
    """
    l = eng.frac_bits
    with eng.phase("normalize"):
        squares = eng.mul(x, x, l)
        total = eng.sum(squares, axis=-1)
        return eng.mul(x, secure_rsqrt(eng, total)[..., None], l)


def glorot_limit(fan_in: int, fan_out: int = 1) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def glorot_init(eng, d: int):
    """Public Glorot uniform draw from the session's agreed seed, then
    trivially shared. Init is data-independent, so publishing it leaks
    nothing, and it keeps the clear-text mirror exactly in step."""
    rng = eng.public_rng()
    limit = glorot_limit(d)
    w = rng.uniform(-limit, limit, size=d)
    return eng.from_public(encode(w, eng.cfg))


def forward(eng, X, state: ModelState):
    """Predictions sigmoid(X . w) on shares, from the weights at 2l bits.

    Returns (predictions, w, v): the weights and the velocity truncated to
    l bits for the update. The product round truncates the weights (tmul),
    and v rides with one of the sigmoid's truncations."""
    l = eng.frac_bits
    with eng.phase("forward"):
        w_l, xw = eng.tmul(state.w2l, l, X)
        z2l = eng.sum(xw, axis=1)
    predictions, v_l = secure_sigmoid(
        eng, z2l, magnitude_bits=_FORWARD_MAGNITUDE_BITS, frac_bits=2 * l, ride=state.v2l)
    return predictions, w_l, v_l


def _log2_ceil(n: int) -> int:
    return (n - 1).bit_length()


def scale_rows(eng, X, step: int):
    """X with the rows of every step-row batch (the last may be shorter)
    times 2^q / b at l bits, for a batch of b rows and 2^q >= b, in one
    truncation. The backward pass on such rows takes a batch's mean as a
    shift by l + q, in the same truncation that drops the product's extra
    fractional bits."""
    l = eng.frac_bits
    n = X.shape[0]
    sizes = [min(step, n - at) for at in range(0, n, step)]
    factors = np.repeat([round(2.0 ** (l + _log2_ceil(b)) / b) for b in sizes], sizes)
    return eng.trunc(eng.mul_public_int(X, factors[:, None]), l)


def backward(eng, scaled, predictions, t):
    """Mean gradient (1/n) X^T (predictions - t) on shares, from the n rows
    of X as scale_rows gives them: one product round, one truncation."""
    l = eng.frac_bits
    with eng.phase("backward"):
        err = eng.sub(predictions, t)
        g = eng.sum(eng.mul(scaled, err[:, None]), axis=0)
        return eng.trunc(g, l + _log2_ceil(scaled.shape[0]))


def update(eng, state: ModelState, w_l, v_l, grad, cfg: TrainingConfig) -> ModelState:
    """One momentum step; public ring constants only, zero communication.

    The C term applies to the previous velocity and the alpha term to the
    fresh gradient; outputs stay at 2l fractional bits.
    """
    ring = eng.cfg
    c_raw = int(encode(cfg.momentum, ring))
    a_raw = int(encode(cfg.alpha, ring))
    la_raw = int(encode(cfg.lambda_reg * cfg.alpha, ring))
    v2l = eng.sub(eng.sub(eng.mul_public_int(v_l, c_raw), eng.mul_public_int(grad, a_raw)),
                  eng.mul_public_int(w_l, la_raw))
    w2l = eng.add(state.w2l, v2l)
    return ModelState(w2l, v2l, state.epoch + 1)


def train_logreg(eng, X, t, cfg: TrainingConfig):
    """Gradient-descent training on normalized shares; returns weight shares."""
    l = eng.frac_bits
    n, d = X.shape
    step = cfg.batch_size if cfg.batch_size else n
    w0 = glorot_init(eng, d)
    state = ModelState(eng.mul_public_int(w0, 1 << l), eng.zeros(d))
    with eng.phase("backward"):
        scaled = scale_rows(eng, X, step)
    for _ in range(cfg.epochs):
        for at in range(0, n, step):
            predictions, w_l, v_l = forward(eng, X[at:at + step], state)
            grad = backward(eng, scaled[at:at + step], predictions, t[at:at + step])
            state = update(eng, state, w_l, v_l, grad, cfg)
    with eng.phase("finalize"):
        return eng.trunc(state.w2l, l)


def append_bias(eng, X):
    """Append an always-one feature column (after normalization)."""
    n = X.shape[0]
    ones = eng.from_public(np.full(n, encode(1.0, eng.cfg), dtype=eng.cfg.udtype))
    return np.concatenate([X, ones[:, None]], axis=1)


def train_pipeline(eng, X, t, cfg: TrainingConfig):
    """The full training stage: optional row normalization, optional bias
    column, then regularized gradient descent. Returns weight shares."""
    if not cfg.skip_norm:
        X = l2_normalize(eng, X)
    if cfg.add_bias:
        X = append_bias(eng, X)
    return train_logreg(eng, X, t, cfg)
