"""Jointly sampled model perturbation, seen by no party: Gamma * g / ||g||, g a
Box-Muller Gaussian (a uniform direction), Gamma ~ Gamma(d, 2R/(n*epsilon*reg))
the scaled sum of d unit exponentials, added to the shared weights. Each
exponential is -ln U = e ln 2 - ln m for U = m 2^-e: a geometric exponent e
and a uniform mantissa m, drawn apart (kernels.unit_exponentials)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .kernels import (_exponentials_2l, _sin_cos_turns, _turn_powers, joint_uniform, secure_ln,
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
    """sqrt(E) = E rsqrt(E) at 2l bits, E >= 0 at l bits; exactly 0 at E = 0."""
    l = eng.frac_bits
    return eng.tmul(secure_rsqrt(eng, e, _BOX_MULLER_BITS, truncate=False), [l, 2 * l], e)[-1]


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
        _, out = eng.tmul(box_muller_radius(eng, e), eng.frac_bits, eng.stack([cos, sin]))
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


def sample_noise(eng, dp: DpParams, batch: tuple = ()):
    """Shares of Gamma * g / ||g||, (*batch, d): one independent draw per
    batch row. It needs neither data nor weights.

    The d unit exponentials X_i = e_i ln 2 - ln m_i come from d mantissa
    uniforms and d geometric exponents (kernels.unit_exponentials); the
    Gamma is c sum X_i. At d = 1 the noise is c (X_1 - X_2), Laplace(c):
    Gamma(1, c) times a sign, with no Gaussian.

    Otherwise k = ceil(d/2) Box-Muller pairs take the first k of the
    exponentials as E_i = 2 X_i, so that ||g||^2 / 2 is part of the Gamma's
    sum, which is independent of g / ||g||. An odd d takes only the last
    pair's cos, at theta = pi v where the others have 2 pi v, so that 2
    theta is within sin/cos's one period (R cos theta keeps its law).

    The schedule: the exponents, which only sin/cos's squaring round reads,
    are drawn beside the uniforms and their power chain (eng.parallel); ln
    m rides in sin/cos's rounds, and S/4^a (S = ||g||^2 = sum E_i, 4^a >=
    k) is truncated from the exponentials at 2l bits beside sin/cos's
    squaring round. One rsqrt over [E_i, S/4^a] then gives R_i = E_i
    rsqrt(E_i) and K = Gamma 2^a / ||g||, while sin, cos and the Gamma are
    truncated beside it. At odd d the tail's E (1 + cos 2 theta) / 2 joins
    S first: E cos 2 theta rides in the round that truncates sin and cos,
    and one truncation follows, so odd d takes two rounds more than even.
    The angles' and the mantissas' uniforms are two draws, though one would
    save a round: measured on the benchmark's noise-wide (d = 50, 1000
    draws), one merged draw raised the setup time from 0.033 to 0.047 s."""
    l, d, k = eng.frac_bits, dp.d, (dp.d + 1) // 2
    a = ((k - 1).bit_length() + 1) // 2
    code, f = dp.scale_code(eng.cfg)
    with eng.phase("perturb"):
        e, powers = eng.parallel(lambda eng: _exponents(eng, (max(d, 2), *batch)),
                                 lambda eng: _angles_and_mantissas(eng, d, batch))
        if d == 1:
            x = unit_exponentials(eng, e, powers)
            return eng.trunc(eng.mul_public_int(eng.sub(x[0], x[1]), code), f)[..., None]
        angles = k + d % 2  # the power chain's angle rows
        x2l = _exponentials_2l(eng, e, powers[:, angles:])
        norm = eng.mul_public_int(eng.sum(x2l[:k - d % 2], axis=0), 2)  # S at 2l, odd tail aside
        (sin, cos, x), s4 = eng.parallel(
            lambda eng: _sin_cos_turns(eng, powers[:, :angles], x2l, truncate=False),
            lambda eng: eng.trunc(norm, l + 2 * a))
        r2 = eng.mul_public_int(x[:k], 2)  # the radii squared, E = 2 X, (k, *batch)
        gamma = eng.mul_public_int(eng.sum(x, axis=0), code)
        beside = [gamma, eng.stack([sin, cos])]  # truncated beside rsqrt
        if d % 2:  # E cos 2 theta rides in the round that truncates sin and cos
            with eng.phase("sin_cos"):
                t, (tail,) = eng.tmul(np.concatenate([sin, cos]), l, r2[-1], rows=[2 * k + 1])
            beside, sin, cos = beside[:1], t[:k], t[k + 1:-1]
            tail = eng.add(eng.mul_public_int(r2[-1], 1 << l), tail)  # E (1 + cos 2 theta)
            s4 = eng.add(s4, eng.trunc(tail, l + 2 * a + 1))

        def truncate_beside(eng):
            with eng.phase("sin_cos"):
                return eng.tmul(beside, [l] * len(beside))

        y, (gamma, *trig) = eng.parallel(
            lambda eng: secure_rsqrt(eng, np.concatenate([r2, s4[None]]), _BOX_MULLER_BITS,
                                     truncate=False),
            truncate_beside)
        if trig:
            sin, cos = trig[0]
        *_, rk = eng.tmul(y, [l, 2 * l], np.concatenate([r2, gamma[None]]))  # R at 2l, K at l + f
        t, g = eng.tmul(rk, l, eng.stack([cos, sin]), rows=range(k))  # g = R (cos, sin) at 2l
        _, eta = eng.tmul(g, l, t[k])  # eta 2^a at l + f bits
        return _coordinates(eng.trunc(eta, f + a), d, batch)


def perturb_weights(eng, w, dp: DpParams, batch: tuple = ()):
    """w + sample_noise: with a batch shape, each batch row is an
    independent noise draw added to the same coefficients."""
    return eng.add(w, sample_noise(eng, dp, batch))
