"""Jointly sampled model perturbation: no party ever sees the noise.

Direction and magnitude are sampled separately. A standard Gaussian vector
(Box-Muller over jointly generated uniforms) is normalized onto the unit
sphere; its spherical symmetry makes the direction uniform. The magnitude is
a Gamma(d, 2/(n*epsilon*reg)) draw built from d unit-rate exponentials, each
obtained as -ln(u) by inverse transform sampling, summed and scaled. The
scaled direction is added to the secret-shared coefficients; opening the sum
publishes the privacy-protected model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixedpoint import encode
from .kernels import _sin_cos_turns, joint_uniform, secure_ln, secure_sqrt
from .training import l2_normalize

# uniforms live in (0, 1]; -2 ln(u) <= 2 * l * ln 2 < 2^6 at default precision
_LN_MAGNITUDE_BITS = 1
_SQRT_MAGNITUDE_BITS = 6


@dataclass(frozen=True)
class DpParams:
    """Public privacy parameters of the output perturbation."""

    epsilon: float
    lambda_reg: float
    n: int
    d: int

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.lambda_reg <= 0:
            raise ValueError("lambda_reg must be positive")
        if self.n <= 0 or self.d <= 0:
            raise ValueError("n and d must be positive")

    @property
    def scale(self) -> float:
        """Noise scale c = 2 / (n * epsilon * lambda_reg)."""
        return 2.0 / (self.n * self.epsilon * self.lambda_reg)


def gaussian_pair_count(d: int) -> int:
    """Box-Muller pairs one sampling of dimension d consumes."""
    pairs = (d + 1) // 2
    if d % 2 == 1:
        pairs += 1  # the odd tail re-enters with a length-2 sampling
    return pairs


def _ln(eng, u):
    return secure_ln(eng, u, magnitude_bits=_LN_MAGNITUDE_BITS)


def gaussian_vector(eng, d: int, batch: tuple = (), draws=None):
    """Secret shares of d independent N(0, 1) samples (leading batch axes).

    ceil(d/2) Box-Muller pairs: r = sqrt(-2 ln u), theta = 2 pi v, emitting
    (r cos theta, r sin theta); sin and cos take v as the angle in turns.
    An odd d takes one more pair and keeps its first coordinate in place of
    the last one. draws holds (ln u, v) for gaussian_pair_count(d) pairs;
    drawn here when not given.
    """
    l = eng.frac_bits
    pairs = gaussian_pair_count(d)
    with eng.phase("gaussian"):
        if draws is None:
            u, v = joint_uniform(eng, (2, *batch, pairs))
            draws = _ln(eng, u), v
        ln_u, v = draws
        r = secure_sqrt(eng, eng.mul_public_int(ln_u, -2), magnitude_bits=_SQRT_MAGNITUDE_BITS)
        sin, cos = _sin_cos_turns(eng, v)
        out = eng.mul(eng.stack([r, r]), eng.stack([cos, sin]), l)
        out = np.moveaxis(out, 0, -1).reshape(*batch, 2 * pairs)
        if d % 2 == 1:
            out[..., d - 1] = out[..., -2]
        return np.ascontiguousarray(out[..., :d])


def gamma_magnitude(eng, dp: DpParams, batch: tuple = (), ln_u=None):
    """Secret share of one Gamma(d, c) draw: the sum of d unit exponentials
    -ln(u_i), scaled by the public constant c. ln_u holds the d logarithms;
    drawn here when not given."""
    l = eng.frac_bits
    with eng.phase("gamma"):
        if ln_u is None:
            ln_u = _ln(eng, joint_uniform(eng, (*batch, dp.d)))
        exp_sum = eng.neg(eng.sum(ln_u, axis=-1))
        return eng.trunc(eng.mul_public_int(exp_sum, int(encode(dp.scale, eng.cfg))), l)


def perturb_weights(eng, w, dp: DpParams, batch: tuple = ()):
    """Output perturbation on shares: w + gamma * s with s uniform on the
    unit sphere and gamma ~ Gamma(d, c). With a batch shape, each batch row
    is an independent noise draw added to the same coefficients.

    The logarithms of both samplers come from one ln call. Their uniforms
    come from two draws, the Gaussian's and the Gamma's: a draw's transient
    memory grows with its size, about 4 KB per uniform with both parties
    in one process, and one draw of both would double the peak."""
    pairs = gaussian_pair_count(dp.d)
    with eng.phase("perturb"):
        u, v = joint_uniform(eng, (2, *batch, pairs))
        u_gamma = joint_uniform(eng, (*batch, dp.d))
        ln_u = _ln(eng, np.concatenate([u, u_gamma], axis=-1))
        direction = gaussian_vector(eng, dp.d, batch, (ln_u[..., :pairs], v))
        direction = l2_normalize(eng, direction)
        gamma = gamma_magnitude(eng, dp, batch, ln_u[..., pairs:])
        eta = eng.mul(direction, gamma[..., None], eng.frac_bits)
        return eng.add(w, eta)
