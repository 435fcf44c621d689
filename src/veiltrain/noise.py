"""Jointly sampled model perturbation, seen by no party: Gamma * g / ||g||, g a
Box-Muller Gaussian (a uniform direction), Gamma ~ Gamma(d, 2R/(n*epsilon*reg))
the scaled sum of d unit exponentials, added to the shared weights. Each
exponential is -ln U = e ln 2 - ln m for U = m 2^-e: a geometric exponent e
and a uniform mantissa m, drawn apart (kernels.unit_exponentials)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Results
from .errors import InvalidArgument
from .kernels import (_exponentials_2l, _normalize, _rsqrt, _sin_cos_turns,
                      _stack_rows, _turn_powers, joint_uniform, rsqrt_shifts, secure_ln,
                      secure_rsqrt, unit_exponentials)

# uniforms live in (0, 1]; -ln u <= l ln 2 (gaussian_vector, gamma_magnitude),
# and an exponential e ln 2 - ln m < (W + 1) ln 2 with W <= 24 bits, so
# E = 2 (e ln 2 - ln m) < 2^6
_LN_MAGNITUDE_BITS = 1
_BOX_MULLER_BITS = 6
_SCALE_BITS = 16  # significant bits the encoded noise scale keeps, within 2l fractional bits


@dataclass(frozen=True)
class DpParams:
    """Public privacy parameters of the output perturbation; row_norm is
    the bound R on a training row's norm."""

    epsilon: float
    lambda_reg: float
    n: int
    d: int
    row_norm: float = 1.0

    def __post_init__(self):
        for name in ("epsilon", "lambda_reg", "n", "d", "row_norm"):
            if getattr(self, name) <= 0:
                raise InvalidArgument(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def scale(self) -> float:
        """Noise scale c = 2 R / (n * epsilon * lambda_reg): the L2
        sensitivity 2R/(n lambda) of the trained weights over epsilon."""
        return 2.0 * self.row_norm / (self.n * self.epsilon * self.lambda_reg)

    def scale_code(self, cfg) -> tuple:
        """(C, f), C / 2^f >= c: c rounded up at f = l bits, or up to 2l while
        it has fewer than _SCALE_BITS significant bits there."""
        f = min(2 * cfg.frac_bits, max(cfg.frac_bits, _SCALE_BITS - int(np.frexp(self.scale)[1])))
        return int(np.ceil(np.ldexp(self.scale, f))), f


def gaussian_pair_count(d: int) -> int:
    """Box-Muller pairs drawn for dimension d: an odd d adds a tail pair."""
    return (d + 1) // 2 + d % 2


def _coordinates(x, d: int, batch: tuple):
    """(2, pairs, *batch) Box-Muller outputs as (*batch, d): cos, sin per pair."""
    return np.ascontiguousarray(np.moveaxis(x, (0, 1), (-1, -2)).reshape(*batch, -1)[..., :d])


def box_muller_radius(eng, e):
    """sqrt(E) = E rsqrt(E) at l bits, E >= 0 at l bits; exactly 0 at E = 0."""
    return secure_rsqrt(eng, e, _BOX_MULLER_BITS, times=e)


def gaussian_vector(eng, d: int, batch: tuple = ()):
    """Shares of d independent N(0, 1) samples (leading batch axes): pairs
    r (cos theta, sin theta), theta = 2 pi v (v in turns), r^2 = -2 ln u."""
    with eng.phase("gaussian"):
        # an odd d keeps the first (d-1)/2 pairs and the tail, whose cos is
        # the last coordinate
        k = gaussian_pair_count(d)
        used = np.r_[0:d // 2, k - 1] if d % 2 else np.arange(k)
        u, v = joint_uniform(eng, (2, k, *batch))[:, used]
        e = eng.mul_public_int(secure_ln(eng, u, _LN_MAGNITUDE_BITS), -2)
        sin, cos = _sin_cos_turns(eng, _turn_powers(eng, eng.mul_public_int(v, 2)))
        radius = secure_rsqrt(eng, e, _BOX_MULLER_BITS, False, times=e)  # box_muller_radius
        *_, out = eng.tmul(radius, rsqrt_shifts(eng.frac_bits), eng.stack([cos, sin]))
        return _coordinates(eng.trunc(out, eng.frac_bits), d, batch)


def gamma_magnitude(eng, dp: DpParams, batch: tuple = ()):
    """Secret share of one Gamma(d, c) draw: the sum of d unit exponentials
    -ln(u_i), scaled by the public c rounded up (DpParams.scale_code)."""
    code, f = dp.scale_code(eng.cfg)
    with eng.phase("gamma"):
        ln_u = secure_ln(eng, joint_uniform(eng, (*batch, dp.d)), _LN_MAGNITUDE_BITS)
        return eng.trunc(eng.mul_public_int(eng.neg(eng.sum(ln_u, axis=-1)), code), f)


def _exponents(eng, shape):
    with eng.phase("geometric"):
        return eng.joint_geometric(shape)


def _pair_bits(d: int) -> int:
    """a with 4^a >= k = ceil(d/2): S/4^a, S the sum of the k Box-Muller
    radii squared, is the sample's rsqrt operand."""
    return ((((d + 1) // 2) - 1).bit_length() + 1) // 2


def noise_shift(dp: DpParams, cfg) -> int:
    """The shift sample_noise(..., truncate=False) leaves to its caller:
    its draws come at l + noise_shift fractional bits."""
    return dp.scale_code(cfg)[1] if dp.d == 1 else cfg.frac_bits + _pair_bits(dp.d)


def _angles_and_mantissas(eng, d: int, batch: tuple):
    """The power chain (kernels._turn_powers) of sample_noise's uniforms:
    the turns of k = ceil(d/2) angles (none at d = 1), then the turns 2u of
    the max(d, 2) mantissas' uniforms u."""
    k, rows = (d + 1) // 2, []
    if d > 1:
        v = joint_uniform(eng, (k, *batch))
        turns = eng.mul_public_int(v, 2)  # v at l + 1 bits
        if d % 2:  # the tail's angle is pi v, its double 2 pi v
            turns = np.insert(turns, k - 1, v[k - 1], axis=0)
        rows.append(turns)
    rows.append(eng.mul_public_int(joint_uniform(eng, (max(d, 2), *batch)), 2))
    return _turn_powers(eng, np.concatenate(rows))


def sample_noise(eng, dp: DpParams, batch: tuple = (), truncate=True):
    """Shares of Gamma * g / ||g||, (*batch, d): one independent draw per
    batch row. It needs neither data nor weights. With truncate False the
    draws are left at l + noise_shift fractional bits, for the caller's
    opening to truncate in its round (eng.open with shifts).

    The d unit exponentials X_i = e_i ln 2 - ln m_i come from d mantissa
    uniforms and d geometric exponents (kernels.unit_exponentials); the
    Gamma is c sum X_i. At d = 1 the noise is c (X_1 - X_2), Laplace(c):
    Gamma(1, c) times a sign, with no Gaussian.

    Otherwise k = ceil(d/2) Box-Muller pairs take the first k of the
    exponentials as E_i = 2 X_i, so that ||g||^2 / 2 is part of the Gamma's
    sum, which is independent of g / ||g||. An odd d takes only the last
    pair's cos, at theta = pi v where the others have 2 pi v, so that 2
    theta is within sin/cos's one period (R cos theta keeps its law).

    The schedule: the exponents, which only sin/cos's product round reads,
    are drawn beside the uniforms and their power chain (eng.parallel),
    which leaves its top powers at 2l bits (kernels._powers); ln m rides in
    sin/cos's rounds. At even d, rsqrt's normalization (its lead) opens in
    sin/cos's product round, which also truncates the sum of all d
    exponentials at 2l bits: the lead's summands are E_i = 2 X_i and S/4^a
    (S = ||g||^2 = sum E_i, 4^a >= k) at 2l bits, truncated in its opening
    round (engine lead with shifts). The next round truncates sin, cos and
    the Gamma, c times that sum, while the lead runs on. The rest of rsqrt
    (kernels._rsqrt: the mantissa product, its degree-8 start's power chain
    in 3 rounds, then 3 product rounds) then gives R_i = E_i rsqrt(E_i) and
    K = Gamma 2^a / ||g|| as its products with [E; Gamma], its one Newton
    correction applied to them, as summands
    that the round forming R_i K, tmul's pairs, takes; R_i K is truncated
    while it multiplies (cos, sin): k products a draw, not the 2k of
    scaling R_i (cos, sin) by K. At odd d the tail's E (1 + cos 2 theta) /
    2 joins S: its exponential is truncated in the squaring round, E cos 2
    theta rides in the round that truncates sin and cos, and the lead opens
    in the next, truncating that term, so odd d takes two rounds more than
    even.
    The last round truncates eta 2^a by l + a (by f at d = 1), or the
    caller does (truncate False).
    The angles' and the mantissas' uniforms are two draws, though one would
    save a round: measured on the benchmark's noise-wide (d = 50, 1000
    draws), one merged draw raised the setup time from 0.033 to 0.047 s."""
    l, d, k = eng.frac_bits, dp.d, (dp.d + 1) // 2
    a, shift = _pair_bits(d), noise_shift(dp, eng.cfg)
    code, f = dp.scale_code(eng.cfg)
    with eng.phase("perturb"):
        e, powers = eng.parallel(lambda eng: _exponents(eng, (max(d, 2), *batch)),
                                 lambda eng: _angles_and_mantissas(eng, d, batch))
        if d == 1:
            x = unit_exponentials(eng, e, powers)
            eta = eng.mul_public_int(eng.sub(x[0], x[1]), code)[..., None]  # at l + f bits
            return eng.trunc(eta, shift) if truncate else eta
        angles, pairs = k + d % 2, d // 2  # the chain's angle rows; the E_i that join S whole
        turns, mant = powers.rows(slice(angles)), powers.rows(slice(angles, None))
        # rsqrt's operand [E_i, the odd tail's E, S/4^a]: E_i and S at 2l bits,
        # with their shifts to l bits, truncated in the lead's opening round
        radii = _exponentials_2l(eng, e[:pairs], mant.rows(slice(pairs)), 2)
        norm = _exponentials_2l(eng, e[:pairs], mant.rows(slice(pairs)), 2, total=True)
        norm = norm[0], [s + 2 * a for s in norm[1]]
        squared = [_exponentials_2l(eng, e, mant, total=True)]  # the Gamma's sum
        if d % 2:
            squared.append(_exponentials_2l(eng, e[pairs:k], mant.rows(slice(pairs, k))))

        def scaled_angles(eng):
            sin, cos, x = _sin_cos_turns(eng, turns, squared, truncate=False)
            gamma = eng.mul_public_int(x[0], code)  # at l + f bits
            with eng.phase("sin_cos"):  # at odd d E cos 2 theta rides here
                tail = dict(y=x[1:], rows=[1 + angles + k]) if d % 2 else {}
                return Results((eng.tmul(np.concatenate([gamma[None], sin, cos]), l, **tail),
                                x[1:]))

        def normalize(eng, tail=None):
            parts, summands, shifts = [radii, norm], [], []
            if tail is not None:  # the odd tail's X and X cos 2 theta, at l and 2l bits
                (x, prod), count = tail, len(radii[0])
                parts.insert(1, ([eng.mul_public_int(x, 2)] + [eng.zeros(x.shape)] * (count - 1),
                                 [None] * count))
                term = eng.zeros((k + 1, *batch))  # S's X (1 + cos 2 theta), by l + 2a
                term[k] = eng.add(eng.mul_public_int(x[0], 1 << l), prod[0])
                summands, shifts = [term], [[None] * k + [l + 2 * a]]
            xs, ss = _stack_rows(parts)
            with eng.phase("rsqrt"):  # a branch returns an array or Results
                return Results(_normalize(eng, xs + summands, _BOX_MULLER_BITS, ss + shifts))

        if d % 2:
            (t, prod), x = scaled_angles(eng)
            normal = normalize(eng, (x, prod))
        else:
            ((t,), _), normal = eng.parallel(scaled_angles, normalize)
        gamma, sin, cos = t[0], t[1:1 + k], t[1 + angles:1 + angles + k]
        with eng.phase("rsqrt"):  # R_i and K with their correction
            y = _rsqrt(eng, normal, np.concatenate([normal[0][:k], gamma[None]]), False)
        *_, rk = eng.tmul(y, rsqrt_shifts(l), square=(range(k), [k] * k))  # R K at l + f bits
        _, eta = eng.tmul(rk, f, eng.stack([cos, sin]))  # eta 2^a at 2l bits
        eta = _coordinates(eta, d, batch)
        return eng.trunc(eta, shift) if truncate else eta


def perturb_weights(eng, w, dp: DpParams, batch: tuple = ()):
    """w + sample_noise: with a batch shape, each batch row is an
    independent noise draw added to the same coefficients."""
    return eng.add(w, sample_noise(eng, dp, batch))
