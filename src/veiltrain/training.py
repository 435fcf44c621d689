"""Secure logistic-regression training on secret-shared data.

The pipeline is: L2-normalize every example row (sum of squared shares, then
one reciprocal square root, then rescale), initialize weights publicly with a
Glorot uniform draw, and run full-batch gradient descent with momentum and L2
weight decay:

    velocity <- momentum * velocity - alpha * gradient - reg * alpha * weights
    weights  <- weights + velocity

A public bound on the sigmoid's input (sigmoid_input_bound) lets the
sigmoid skip its clamp where the bound is at most 4, as at the defaults.
The update itself is affine in the shares with public ring constants, so it
costs zero communication rounds. Weights and velocity are carried at double
fractional precision between epochs.

An epoch (or mini-batch step) is 8 rounds on the bounded sigmoid: forward
1, sigmoid 6, backward 1. No truncation takes a round of its own; each
rides in the round of the product it feeds (engine op tmul):

* forward truncates the weights and the last step's pending gradient
  term, and multiplies their sum by the rows;
* the sigmoid returns its output at 2l bits (truncate=False), and backward
  truncates the error in its product with the rows;
* the rows are scaled by alpha 2^q / b once, so backward's sum is alpha
  times the mean gradient at l + q extra bits, left for the next forward;
* the velocity's truncation rides with one of the sigmoid's, and the
  normalization's reciprocal square root is truncated in its product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fixedpoint import RingConfig, decode, encode
from .kernels import KERNEL_TOLERANCES, secure_rsqrt, secure_sigmoid

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
    epochs: int = 40
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
    """Secret-shared weights and velocity at 2l fractional bits, short of
    the last step's gradient term: grad, -alpha times the mean gradient,
    which a shift by grad_shift takes to l fractional bits (None before the
    first step), is still to be added to both. The next forward pass
    truncates it in its product round."""

    w2l: object
    v2l: object
    grad: object = None
    grad_shift: int = 0


def l2_normalize(eng, x):
    """Scale vectors along the last axis to unit L2 norm.

    Sum of squared products, truncated once, reciprocal square root,
    rescale. A zero vector stays zero. Within 2^-10 of unit norm
    (KERNEL_TOLERANCES["normalize"]) on rows whose squared norm lies in
    row_norm_domain.
    """
    l = eng.frac_bits
    with eng.phase("normalize"):
        total = eng.trunc(eng.sum(eng.mul(x, x), axis=-1), l)
        _, scaled = eng.tmul(secure_rsqrt(eng, total, truncate=False)[..., None], l, x)
        return eng.trunc(scaled, l)


def row_norm_domain(ring: RingConfig):
    """(floor, cap) of the squared row norms l2_normalize keeps accurate.

    At the floor 2^(10 - l) the squared norm's one-ulp truncation moves the
    norm by 2^-11 relatively; at the cap 2^(2l - 24) one ulp of the
    reciprocal square root does so by 2^-12, and the cap also keeps the
    squares at 2l bits inside the truncation masks' range (below
    2^(int_bits - 1)). 2^-10 and 2^16 at the default ring."""
    l = ring.frac_bits
    return 2.0 ** (10 - l), 2.0 ** min(2 * l - 24, ring.int_bits - 1)


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


def _weights(eng, state: ModelState, X=None):
    """The weights at l bits, with their products by X's rows in the same
    round (tmul): the weights at 2l bits and the pending gradient are
    truncated together and summed. Returns the state with the gradient
    added to w and v, the weights at l bits and the products (if X)."""
    l = eng.frac_bits
    if state.grad is None:
        w_l, *prods = eng.tmul(state.w2l, l, X)
        return state, w_l, prods
    w_l, g_l, *prods = eng.tmul([state.w2l, state.grad], [l, state.grad_shift], X)
    g2l = eng.mul_public_int(g_l, 1 << l)
    landed = ModelState(eng.add(state.w2l, g2l), eng.add(state.v2l, g2l))
    return landed, eng.add(w_l, g_l), prods


def forward(eng, X, state: ModelState, bound=None):
    """Predictions sigmoid(X . w) on shares, at 2l fractional bits, from the
    state's weights and pending gradient.

    Returns (predictions, state, w, v): the state with the gradient added,
    and the weights and the velocity truncated to l bits for the update.
    The product round truncates the weights and the gradient (tmul), and v
    rides with one of the sigmoid's truncations. bound: a public bound on
    |X . w| (sigmoid_input_bound), which lets the sigmoid skip its clamp."""
    l = eng.frac_bits
    with eng.phase("forward"):
        state, w_l, (xw,) = _weights(eng, state, X)
        z2l = eng.sum(xw, axis=1)
    predictions, v_l = secure_sigmoid(
        eng, z2l, magnitude_bits=_FORWARD_MAGNITUDE_BITS, frac_bits=2 * l, ride=state.v2l,
        bound=bound, truncate=False)
    return predictions, state, w_l, v_l


def sigmoid_input_bound(cfg: TrainingConfig, n: int, d: int, ring: RingConfig) -> float:
    """A bound on |x . w| over every forward pass of train_logreg on n rows
    of d features (the bias column included), from public values only;
    inf with skip_norm, whose rows may have any norm.

    The update is linear in (w, v): (w, v) <- A (w, v) + (u, u) for
    A = [[1 - alpha lambda, momentum], [-alpha lambda, momentum]], at the
    ring's encodings of the constants, with the drive u = -alpha g plus
    the truncation errors of w, v and alpha g. So w_k = f_k w_0 +
    sum_j h_(k-1-j) u_j with the free response f_k = (A^k)_ww and the
    impulse response h_m = (A^m (1, 1))_w, and |x . w_k| <= R (|f_k| |w_0|
    + sum_m |h_m| |u|) for a row norm R: 1 + eps after l2_normalize, times
    sqrt(2) with the bias column. |w_0| is at most the Glorot box's
    half-diagonal sqrt(6d / (d + 1)). The labels are 0 or 1, so the
    gradient's data term is at most R (1 + the bounded sigmoid's error);
    alpha is the largest one scale_rows' rounded factors apply. The row
    scaling adds at most alpha ulps per coordinate and step, and every
    truncation (w, v, alpha g, the sigmoid's powers) at most an ulp.
    """
    if cfg.skip_norm:
        return float("inf")
    l = ring.frac_bits
    ulp = 2.0 ** -l
    decay, momentum = (float(decode(encode(c, ring), ring))
                       for c in (cfg.alpha * cfg.lambda_reg, cfg.momentum))
    step = min(cfg.batch_size or n, n)
    alpha = max(_row_factor(b, cfg.alpha, l) * b / 2.0 ** (l + mean_bits(b, cfg.alpha))
                for b in set(_batch_sizes(n, step)))
    row = (1 + KERNEL_TOLERANCES["normalize"].bound) * (np.sqrt(2.0) if cfg.add_bias else 1.0)
    # |sigmoid - label|; the 8 ulps cover the sigmoid's rounding on coarser rings
    err = 1 + KERNEL_TOLERANCES["sigmoid_b4"].bound + 8 * ulp
    spread = np.sqrt(d) * ulp  # one ulp on every coordinate
    drive = alpha * (row + spread) * err + spread * (1 + momentum + decay)
    w0 = np.sqrt(6.0 * d / (d + 1)) + spread
    fw, fv, hw, hv = 1.0, 0.0, 1.0, 1.0  # A^k (1, 0) and A^k (1, 1)
    summed, bound = 0.0, 0.0
    for _ in range(cfg.epochs * -(-n // step)):
        bound = max(bound, row * (abs(fw) * w0 + drive * summed + spread))
        summed += abs(hw)
        fw, fv = fw - decay * fw + momentum * fv, momentum * fv - decay * fw
        hw, hv = hw - decay * hw + momentum * hv, momentum * hv - decay * hw
    return bound


def _batch_sizes(n: int, step: int):
    """Rows of every step-row batch of n rows; the last may be shorter."""
    return [min(step, n - at) for at in range(0, n, step)]


def mean_bits(b: int, alpha: float) -> int:
    """q with alpha 2^q / b in [1, 2): rows scaled by that factor give alpha
    times a b-row batch's mean gradient as a shift by q."""
    m, e = math.frexp(b / alpha)
    return e - 1 if m == 0.5 else e


def _row_factor(b: int, alpha: float, l: int) -> int:
    """alpha 2^q / b at l fractional bits, rounded (mean_bits)."""
    return round(alpha * 2.0 ** (l + mean_bits(b, alpha)) / b)


def scale_rows(eng, X, step: int, alpha: float):
    """X with the rows of every step-row batch times alpha 2^q / b at l
    bits (mean_bits), in one truncation. The backward pass on such rows
    gives alpha times a batch's mean gradient as a shift by l + q, which
    the next forward pass's truncation takes, with the product's extra
    fractional bits."""
    l = eng.frac_bits
    sizes = _batch_sizes(X.shape[0], step)
    factors = np.repeat([_row_factor(b, alpha, l) for b in sizes], sizes)
    return eng.trunc(eng.mul_public_int(X, factors[:, None]), l)


def backward(eng, scaled, predictions, t):
    """alpha 2^q times the mean gradient (1/b) X^T (predictions - t) on
    shares, at 2l fractional bits, from the b rows of X as scale_rows gives
    them and the predictions at 2l bits: one round, which truncates the
    error and multiplies it by the rows (tmul). The labels' terms are
    multiples of 2^l, so the truncation is the sigmoid's own."""
    l = eng.frac_bits
    with eng.phase("backward"):
        err = eng.sub(predictions, eng.mul_public_int(t, 1 << l))
        _, prods = eng.tmul(err[:, None], l, scaled)
        return eng.sum(prods, axis=0)


def update(eng, state: ModelState, w_l, v_l, grad, grad_shift: int,
           cfg: TrainingConfig) -> ModelState:
    """One momentum step; public ring constants only, zero communication.

    The momentum term applies to the previous velocity and the decay term
    to the weights, at 2l fractional bits. The gradient term, alpha times
    the mean gradient as backward gives it (a shift by grad_shift takes it
    to l bits), is left pending for the next forward pass to truncate."""
    ring = eng.cfg
    c_raw = int(encode(cfg.momentum, ring))
    la_raw = int(encode(cfg.lambda_reg * cfg.alpha, ring))
    v2l = eng.sub(eng.mul_public_int(v_l, c_raw), eng.mul_public_int(w_l, la_raw))
    return ModelState(eng.add(state.w2l, v2l), v2l, eng.neg(grad), grad_shift)


def train_logreg(eng, X, t, cfg: TrainingConfig):
    """Gradient-descent training on normalized shares; returns weight shares."""
    l = eng.frac_bits
    n, d = X.shape
    step = cfg.batch_size if cfg.batch_size else n
    w0 = glorot_init(eng, d)
    state = ModelState(eng.mul_public_int(w0, 1 << l), eng.zeros(d))
    bound = sigmoid_input_bound(cfg, n, d, eng.cfg)
    with eng.phase("backward"):
        scaled = scale_rows(eng, X, step, cfg.alpha)
    for _ in range(cfg.epochs):
        for at in range(0, n, step):
            rows = slice(at, at + step)
            predictions, state, w_l, v_l = forward(eng, X[rows], state, bound)
            grad = backward(eng, scaled[rows], predictions, t[rows])
            state = update(eng, state, w_l, v_l, grad,
                           l + mean_bits(min(step, n - at), cfg.alpha), cfg)
    with eng.phase("finalize"):
        return _weights(eng, state)[1]


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
