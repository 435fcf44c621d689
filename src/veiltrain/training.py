"""Secure logistic-regression training on secret-shared data.

The owners scale their own rows before they share them (l2_normalize, run
by ingest): every row's norm is then at most 1, exactly, at the encoded
values. The parties start from zero weights and run full-batch gradient
descent on an L2-regularized loss:

    weights <- (1 - alpha lambda) weights - alpha gradient

Only lambda is a hyperparameter. For rows of norm at most R (1, sqrt 2
with the bias column) the loss is mu = lambda strongly convex and L
smooth, so the step alpha = 2/(L + mu) contracts the distance to the
minimizer by 1 - alpha lambda per step, and the step count follows from
the precision (TrainingConfig.steps). At every step the iterate, like the
minimizer, has L2 sensitivity at most 2R/(n lambda) while the loss's
derivative in x . w is at most 1 (Wu et al., SIGMOD 2017): that is what
the noise is calibrated to.

The linear tier (lambda >= R^2/2, TrainingConfig.linear) replaces the
sigmoid by 1/2 + z/4: gradient descent on the logistic loss's
second-order surrogate z^2/8 + (1/2 - t) z, as the functional mechanism
(Zhang et al., PVLDB 2012) approximates it. It is L = lambda + R^2/4
smooth, and its derivative z/4 + 1/2 - t is at most 1/2 + B/4 <= 1 for
|z| <= B = 2R^2/(4 lambda - R^2) <= 2. The gradient is then affine in the
weights, w <- M w + c with M = (1 - alpha lambda) I - (alpha/4) X^T X / n
and c = alpha X^T (t - 1/2) / n, so 2^k steps (recurrence) take k + 2
rounds: one forms X^T X and X^T (t - 1/2), k square (P, v) -> (P^2,
P v + v) from (M, c), and one truncates w. Where d is so wide that the
Gram deals more triples, the tier runs the step loop with the local
prediction 1/2 + z/4 (takes_recurrence): 2 rounds a step.

Below R^2/2 the loop runs the sigmoid, under a public bound on its input
(sigmoid_input_bound, about R^2 / lambda) that lets it skip its clamp
where it is at most 4: a step is then 8 rounds, forward 1, sigmoid 6,
backward 1. On either loop the first step is backward alone: at the zero
weights every prediction is exactly the public 1/2. No truncation takes a
round of its own; each rides in the round of the product it feeds (engine
op tmul):

* forward truncates the weights and the last step's pending gradient
  term, and multiplies their sum by the rows;
* the sigmoid returns its output at 2l bits (truncate=False), and backward
  truncates the error in its product with the rows;
* the first backward scales the rows by alpha 2^q / n, truncated in its
  product with the exact error 1/2 - t, so every backward's sum is alpha
  times the mean gradient at l + q extra bits, left for the next forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, MagnitudeOverflow, VeiltrainError
from .fixedpoint import RingConfig, decode, encode, from_signed, to_signed
from .kernels import (CLAMPED_SIGMOID_MIN_FRAC_BITS, KERNEL_TOLERANCES, SIGMOID_BOUND,
                      secure_sigmoid)
from .schedule import SLOPE_SLACK, TrainingConfig  # noqa: F401 - SLOPE_SLACK re-exported

# the least magnitude width the clamped sigmoid's msb is given for x . w:
# sigmoid_input_bound, about R^2 / lambda, is below 2^12 for lambda above
# 2^-12
_FORWARD_MAGNITUDE_BITS = 12
@dataclass
class ModelState:
    """Secret-shared weights at 2l fractional bits, short of the last
    step's gradient term: grad, -alpha times the mean gradient, which a
    shift by grad_shift takes to l fractional bits, is still to be added.
    The next forward pass truncates both in its product round."""

    w2l: object
    grad: object
    grad_shift: int


def unit_rows(X, owners: int = 1) -> np.ndarray:
    """Float rows scaled to norm 1/sqrt(owners); a zero row stays zero.
    Each row is divided by its largest |x| first, so that its norm neither
    overflows nor underflows."""
    peak = np.abs(X).max(axis=1, initial=0.0, keepdims=True)
    X = X / np.where(peak == 0, 1.0, peak)
    norm = np.linalg.norm(X, axis=1, keepdims=True) * math.sqrt(owners)
    return X / np.where(norm == 0, 1.0, norm)


def l2_normalize(X, ring: RingConfig, owners: int = 1) -> np.ndarray:
    """An owner's rows, scaled to norm at most 1/sqrt(owners) and encoded.

    The float rows are scaled by unit_rows. Where rounding leaves the
    encoded row's sum of squares above 2^(2l) / owners, checked exactly in
    integers, its largest coordinate moves one ulp toward zero until it
    does not. A zero row stays zero. owners: how many owners hold
    a block of every row (vertical partitioning); their blocks' squares add
    up to at most 2^(2l). A non-finite cell raises MagnitudeOverflow.
    """
    X = np.asarray(X, dtype=np.float64)
    bad = ~np.isfinite(X)
    if np.any(bad):
        row, col = np.argwhere(bad)[0]
        raise MagnitudeOverflow(f"value at row {row}, col {col} is not finite")
    s = to_signed(encode(unit_rows(X, owners), ring))
    # a row's squares sum to about 2^(2l), below 2^63 on every ring
    cap = (1 << 2 * ring.frac_bits) // owners
    over = np.flatnonzero(np.sum(s * s, axis=1) > cap)
    while over.size:
        top = np.abs(s[over]).argmax(axis=1)
        s[over, top] -= np.sign(s[over, top])
        over = over[np.sum(s[over] * s[over], axis=1) > cap]
    return from_signed(s)


def _weights(eng, state: ModelState, X=None):
    """The weights at l bits, with their products by X's rows in the same
    round (tmul): the weights at 2l bits and the pending gradient are
    truncated together and summed. Returns the weights and the products."""
    l = eng.frac_bits
    w_l, g_l, *prods = eng.tmul([state.w2l, state.grad], [l, state.grad_shift], X)
    return eng.add(w_l, g_l), prods


def forward(eng, X, state: ModelState, bound=None, linear=False):
    """Predictions on shares from the state's weights and pending gradient,
    and the weights w at l bits: sigmoid(X . w) at 2l fractional bits, or
    with linear 1/2 + X . w / 4, local, at 2l + 2.

    The product round truncates the weights and the gradient (tmul). bound:
    a public bound on |X . w| (sigmoid_input_bound), which lets the sigmoid
    skip its clamp, and sets the clamp's width (forward_magnitude_bits)."""
    l = eng.frac_bits
    with eng.phase("forward"):
        w_l, (xw,) = _weights(eng, state, X)
        z2l = eng.sum(xw, axis=1)
        if linear:
            return eng.add_public(z2l, np.uint64(1 << 2 * l + 1)), w_l
    bits = _FORWARD_MAGNITUDE_BITS if bound is None else forward_magnitude_bits(bound, eng.cfg)
    predictions = secure_sigmoid(eng, z2l, magnitude_bits=bits,
                                 frac_bits=2 * l, bound=bound, truncate=False)
    return predictions, w_l


def sigmoid_input_bound(cfg: TrainingConfig, n: int, d: int, ring: RingConfig) -> float:
    """A bound on |x . w| over every forward pass of train_pipeline's
    sigmoid tiers on n rows of d features (the bias column included), from
    public values only.

    The step is w <- c w + u, with c = 1 - alpha lambda at its ring encoding
    and the drive u = -alpha g plus the truncation errors of w and alpha g.
    From w = 0 that gives |w| <= |u| / (1 - c), about R / lambda, and
    |x . w| <= R |w| for a row norm R: 1 (l2_normalize), times sqrt(2)
    with the bias column. The labels are 0 or 1, so the gradient's
    data term is at most R (1 + the bounded sigmoid's error); alpha is the
    one backward's rounded row factor applies. The row scaling adds at most
    alpha ulps per coordinate and step, and each truncation one ulp. It
    is infinite where c encodes as 1.
    """
    l = ring.frac_bits
    ulp = 2.0 ** -l
    keep = float(decode(encode(1 - cfg.alpha * cfg.lambda_reg, ring), ring))
    alpha = _row_factor(n, cfg.alpha, l) * n / 2.0 ** (l + mean_bits(n, cfg.alpha))
    # |sigmoid - label|; the 8 ulps cover the sigmoid's rounding on coarser rings
    err = 1 + KERNEL_TOLERANCES["sigmoid_b4"].bound + 8 * ulp
    spread = np.sqrt(d) * ulp  # one ulp on every coordinate
    drive = alpha * (cfg.row_norm + spread) * err + 2 * spread
    return cfg.row_norm * drive / (1 - keep) if keep < 1 else math.inf


def forward_magnitude_bits(bound: float, ring: RingConfig) -> int:
    """The clamped sigmoid's magnitude width for |x . w| <= bound: the bits
    of the bound, and at least _FORWARD_MAGNITUDE_BITS. A bound of 2^(int_bits
    - 1) or more is refused: x . w at 2l fractional bits would leave the
    truncation masks' range 2^62, and so would the weights."""
    if not bound < 2.0 ** (ring.int_bits - 1):
        raise VeiltrainError(f"lambda_reg is too small: |x . w| may reach {bound:.6g}, beyond "
                             f"the ring's integer range 2^{ring.int_bits - 1}")
    return max(_FORWARD_MAGNITUDE_BITS, math.frexp(bound)[1])


def _check_clamped_ring(cfg: TrainingConfig, bound: float, frac_bits: int) -> None:
    """InvalidArgument where the clamped sigmoid tier (lambda below R^2/2,
    and a bound on |x . w| above SIGMOID_BOUND) would run on a ring coarser
    than CLAMPED_SIGMOID_MIN_FRAC_BITS."""
    if bound > SIGMOID_BOUND and frac_bits < CLAMPED_SIGMOID_MIN_FRAC_BITS:
        raise InvalidArgument(
            f"lambda_reg = {cfg.lambda_reg:g} is below R^2/2 = {(1 + cfg.add_bias) / 2:g} "
            f"and |x . w| may reach {bound:.4g}, so the sigmoid is clamped, which needs "
            f"frac_bits >= {CLAMPED_SIGMOID_MIN_FRAC_BITS}; frac_bits = {frac_bits}")


def mean_bits(b: int, alpha: float) -> int:
    """q with alpha 2^q / b in [1, 2): rows scaled by that factor give alpha
    times a b-row mean gradient as a shift by q."""
    m, e = math.frexp(b / alpha)
    return e - 1 if m == 0.5 else e


def _row_factor(b: int, alpha: float, l: int) -> int:
    """alpha 2^q / b at l fractional bits, rounded (mean_bits)."""
    return round(alpha * 2.0 ** (l + mean_bits(b, alpha)) / b)


def backward(eng, rows, predictions, t, alpha=None, frac_bits=None):
    """alpha 2^q times the mean gradient (1/n) X^T (predictions - t) on
    shares, at 2l fractional bits, and the rows of X scaled by alpha 2^q /
    n at l bits (mean_bits) that it multiplied, in one round (tmul).

    The first step passes X's rows and alpha, and no predictions: at the
    zero weights they are the public 1/2, so the error 1/2 - t is exact at
    l bits, and the round truncates the scaled rows. Later steps pass
    those rows and the predictions at frac_bits (2l by default), and the
    round truncates the error to l bits; the labels' terms are multiples
    of the shift, so that truncation is the prediction's own. The scaled
    rows are at most 2^(2l + 1), and the error at 2l bits is as well."""
    l = eng.frac_bits
    with eng.phase("backward"):
        if predictions is None:
            err = eng.add_public(eng.neg(t), 1 << l - 1)
            factor = _row_factor(rows.shape[0], alpha, l)
            rows, prods = eng.tmul(eng.mul_public_int(rows, factor), l, err[:, None])
        else:
            shift = (2 * l if frac_bits is None else frac_bits) - l
            err = eng.sub(predictions, eng.mul_public_int(t, 1 << shift))
            _, prods = eng.tmul(err[:, None], shift, rows)
        return eng.sum(prods, axis=0), rows


def update(eng, w_l, grad, grad_shift: int, cfg: TrainingConfig) -> ModelState:
    """One gradient step; public ring constants only, zero communication.

    The weights at l bits times 1 - alpha lambda give the new weights at 2l
    bits. The gradient term, alpha times the mean gradient as backward
    gives it (a shift by grad_shift takes it to l bits), is left pending
    for the next forward pass to truncate."""
    keep = int(encode(1 - cfg.alpha * cfg.lambda_reg, eng.cfg))
    return ModelState(eng.mul_public_int(w_l, keep), eng.neg(grad), grad_shift)


def append_bias(eng, X):
    """Append an always-one feature column."""
    n = X.shape[0]
    ones = eng.from_public(np.full(n, encode(1.0, eng.cfg), dtype=np.uint64))
    return np.concatenate([X, ones[:, None]], axis=1)


def doublings(steps: int) -> int:
    """k = ceil(log2 steps): the recurrence runs 2^k >= steps steps."""
    return (steps - 1).bit_length()


def takes_recurrence(n: int, d: int, steps: int) -> bool:
    """Whether the linear tier trains n rows of d features (the bias column
    included) by the recurrence rather than the step loop: the one that
    deals fewer triples, from public values only.

    The loop's T steps take n d products in each backward and each
    forward but the first step's: n d (2T - 1). The recurrence's Gram takes
    n d (d + 3)/2 (the upper triangle of X^T X, and X^T (t - 1/2)), each
    doubling d^2 (d + 3)/2 more (P^2's upper triangle and P v) and the last
    one d^2 (P v alone). Under 2 steps there is nothing to double."""
    if steps < 2:
        return False
    pairs = d * (d + 3) // 2
    recurrence = n * pairs + (doublings(steps) - 1) * d * pairs + d * d
    return recurrence <= n * d * (2 * steps - 1)


def _pair_products(d: int):
    """The upper triangle's indices of a symmetric d x d matrix P
    (np.triu_indices), and tmul's pairs on the vector [P's upper triangle,
    v] for a d-vector v: those of P^2's upper triangle (P_am P_mb,
    m-minor) and those of P v (P_am v_m)."""
    upper = np.triu_indices(d)
    at = np.empty((d, d), dtype=np.intp)  # at[a, b]: P_ab's index
    at[upper] = at[upper[::-1]] = np.arange(len(upper[0]))
    a, b = (u[:, None] for u in upper)
    m = np.arange(d)
    square = (at[a, m].ravel(), at[m, b].ravel())
    times_v = (at.ravel(), np.tile(len(upper[0]) + m, d))
    return upper, square, times_v


def recurrence(eng, X, t, cfg: TrainingConfig, k: int):
    """The weights after 2^k >= 1 steps of gradient descent on the linear
    tier's surrogate, w <- M w + c from w = 0, in k + 2 rounds (tmul).

    Round 1 (gram): the rows scaled by F = alpha 2^q / n are truncated
    while their columns multiply X's and t - 1/2: the upper triangle of A
    = alpha 2^q X^T X / n and 2^q c at 2l bits. Each doubling (P, v) ->
    (P^2, P v + v) truncates P's upper triangle and v and forms the
    products of both in one round (tmul's pairs). The first truncates A
    and 2^q c at one shift, l + q, and forms 16 M^2 = 16 K^2 - 8 K A + A^2
    and 16 (M c + c) = 16 (K + 1) c - 4 A c at 2l bits, with K = 1 - alpha
    lambda public; its truncation shift is l + 4. The last doubling forms
    P v alone, and a final round truncates v, which is w at l bits. The
    Gram's truncated values are below 2^(2l + q + 1) (|A_ab| <= alpha 2^q),
    the later ones below 2^(2l + 5): |P_ab| <= |M|^2 <= 1/25 and |v| <=
    R (1/2 + B/4) / lambda <= 2, at most 16 times at 2l bits."""
    l = eng.frac_bits
    n, d = X.shape
    keep = int(encode(1 - cfg.alpha * cfg.lambda_reg, eng.cfg))
    upper, square, times_v = _pair_products(d)
    size = len(upper[0])
    diagonal = np.where(upper[0] == upper[1], np.uint64(16 * keep * keep), np.uint64(0))
    with eng.phase("gram"):
        err = eng.add_public(t, encode(-0.5, eng.cfg))  # t - 1/2 at l bits
        y = np.concatenate([X.T[upper[1]], np.broadcast_to(err, (d, n))])
        rows = np.concatenate([upper[0], np.arange(d)])
        scaled = eng.mul_public_int(X, _row_factor(n, cfg.alpha, l)).T
        _, prods = eng.tmul(scaled, l, y, rows=rows)
        x, shift = eng.sum(prods, axis=1), l + mean_bits(n, cfg.alpha)
    for j in range(k):
        last = j == k - 1
        pairs = times_v if last else tuple(map(np.concatenate, zip(square, times_v)))
        with eng.phase("doubling"):
            p_v, prods = eng.tmul(x, shift, square=pairs)
        p, v = p_v[:size], p_v[size:]
        pv = eng.sum(prods[-d * d:].reshape(d, d), axis=1)
        pp = None if last else eng.sum(prods[:size * d].reshape(size, d), axis=1)
        if j == 0:  # p is A and v is c, at l bits
            v = eng.sub(eng.mul_public_int(v, 16 * (keep + (1 << l))), eng.mul_public_int(pv, 4))
            if not last:
                pp = eng.add_public(eng.sub(pp, eng.mul_public_int(p, 8 * keep)), diagonal)
            shift = l + 4
        else:
            v, shift = eng.add(pv, eng.mul_public_int(v, 1 << l)), l
        x = v if last else np.concatenate([pp, v])
    with eng.phase("finalize"):
        return eng.trunc(x, shift)


def train_pipeline(eng, X, t, cfg: TrainingConfig):
    """The full training stage on the owners' scaled rows (l2_normalize):
    optional bias column, then cfg.steps() gradient steps from zero, 2^k
    of them on the recurrence (takes_recurrence). Returns weight shares. A
    lambda_reg whose sigmoid_input_bound leaves the ring is refused before
    any round (forward_magnitude_bits), and so is the clamped tier on a
    ring too coarse for it (_check_clamped_ring)."""
    if cfg.add_bias:
        X = append_bias(eng, X)
    n, d = X.shape
    l, steps = eng.frac_bits, cfg.steps(eng.cfg)
    if cfg.linear and takes_recurrence(n, d, steps):
        return recurrence(eng, X, t, cfg, doublings(steps))
    bound = None
    if not cfg.linear:
        bound = sigmoid_input_bound(cfg, n, d, eng.cfg)
        forward_magnitude_bits(bound, eng.cfg)  # refuses a bound beyond the ring
        _check_clamped_ring(cfg, bound, l)
    shift, frac_bits = l + mean_bits(n, cfg.alpha), 2 * l + 2 * cfg.linear
    state = ModelState(eng.zeros(d), eng.zeros(d), shift)
    if steps:
        grad, rows = backward(eng, X, None, t, cfg.alpha)
        state = update(eng, eng.zeros(d), grad, shift, cfg)
    for _ in range(steps - 1):
        predictions, w_l = forward(eng, X, state, bound, cfg.linear)
        grad = backward(eng, rows, predictions, t, frac_bits=frac_bits)[0]
        state = update(eng, w_l, grad, shift, cfg)
    with eng.phase("finalize"):
        return _weights(eng, state)[0]
