"""Secure fixed-point math kernels evaluated on shares.

Division, square root, and logarithm first find the leaf (a group of one or
three bits, see engine.leaf_layout) that holds the operand's top set bit
with the engine's log-depth lead op, rescale by that leaf's power of two to
a coarse mantissa in [1/8, 1), then run fixed-count Goldschmidt iterations
with one residual correction at 2l bits, or a power-basis polynomial. Sine
and cosine split the angle in turns into its quarter-period fraction and
quadrant bits with the engine's split op. Signs alone (the division's sign,
the sigmoid's clamps) come from the engine's msb op. The sigmoid is a
clamped odd polynomial with oblivious segment selection. Every polynomial
is evaluated in the power basis: the powers take one stacked product per
doubling, and the sum is local. Iteration counts and degrees are fixed, so
transcripts depend only on input sizes, never on values.

Polynomial coefficients are Chebyshev interpolants (degree chosen so the
float-side fit error sits well below each kernel's tolerance), converted to
the power basis at import:
  LN_CHEB:  ln(m) on m in [1/8, 1],  argument (16m - 9)/7; LN_POWER in
            powers of u = 2m - 1
  SIN_CHEB: sin(2 pi f) on f in [0, 0.25], argument 8f - 1
  COS_CHEB: cos(2 pi f) likewise
  SIG_CHEB: (sigmoid(8t) - 1/2)/t as a function of u = t^2 on [0, 1],
            argument v = 2u - 1
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import leaf_layout
from .fixedpoint import encode, to_signed

LN_CHEB = (
    -0.7808278095447015, 0.9551844992272576, -0.22809435560293073,
    0.07262406125225465, -0.02601351000267974, 0.009939066299792068,
    -0.00395565297894257, 0.0016192366223765921, -0.0006765174240610995,
    0.00028686669177073075, -0.00012256587527888433, 5.156715977687598e-05,
    -1.888238927282925e-05,
)
SIN_CHEB = (
    0.6021947012555465, 0.5136251666791071, -0.10354634426296364,
    -0.013732034234358455, 0.0013586698380907065, 0.00010726309440585774,
    -7.0462967931116435e-06, -3.9639025192167405e-07, 1.9499558692841777e-08,
)
COS_CHEB = (
    0.6021947012555464, -0.513625166679107, -0.10354634426296369,
    0.013732034234358668, 0.0013586698380901965, -0.00010726309440573161,
    -7.046296793789603e-06, 3.963902519129643e-07, 1.9499558375752683e-08,
)
SIG_CHEB = (
    0.9179788279261364, -0.5978454057785887, 0.26131485960880796,
    -0.11957835605318305, 0.05532870227597527, -0.025677346204693134,
    0.011926600586948034, -0.005540988206614879, 0.002574437375242915,
    -0.0011960771705892565, 0.0005555374662430875, -0.0002576838921734763,
    0.00011878306069975032, -5.315364180733871e-05, 2.0312068077371395e-05,
)
# the same fits in the power basis of their arguments: sum_k a[k] v^k. The
# constant of LN_POWER is pinned to ln(1/2) (a shift of 7.6e-6): one is
# m = 1/2 in its top leaf at the Box-Muller width, so ln(1) is exactly 0
# and -2 ln(u) never goes negative
LN_POWER = (-np.log(2.0),) + tuple(np.polynomial.Chebyshev(LN_CHEB, domain=[-0.75, 1.0])
                                   .convert(kind=np.polynomial.Polynomial).coef[1:])
SIN_POWER = tuple(np.polynomial.chebyshev.cheb2poly(SIN_CHEB))
COS_POWER = tuple(np.polynomial.chebyshev.cheb2poly(COS_CHEB))
SIG_POWER = tuple(np.polynomial.chebyshev.cheb2poly(SIG_CHEB))

# linear starts on the coarse mantissa m in [1/8, 1): y0 = a - b m
RECIP_START = (5.097, 4.531)   # 1/m, relative error below 0.44
RSQRT_START = (2.516, 1.689)   # 1/sqrt(m)
_RECIP_STEPS = 4
_RSQRT_STEPS = 3
SIGMOID_CLAMP = 8.0


@dataclass(frozen=True)
class KernelTolerance:
    """Documented absolute error bound of a kernel on its test domain."""

    name: str
    bound: float
    domain: str


KERNEL_TOLERANCES = {
    "div": KernelTolerance("div", 2.0 ** -14, "|b| in [2^-18, 2^23), |a/b| <= 2^10"),
    "sqrt": KernelTolerance("sqrt", 2.0 ** -12, "a in [2^-10, 2^10]"),
    "ln": KernelTolerance("ln", 2.0 ** -12, "a in [2^-20, 2^10]"),
    "sin": KernelTolerance("sin", 2.0 ** -12, "theta in [0, 2pi]"),
    "cos": KernelTolerance("cos", 2.0 ** -12, "theta in [0, 2pi]"),
    "sigmoid": KernelTolerance("sigmoid", 1e-3, "any z; exact 0/1 beyond |z| = 8"),
}


def _enc(eng, x):
    return encode(x, eng.cfg)


def _combine_int(eng, z, weights):
    """Local weighted sum of the one-hot rows with public integer weights."""
    w = np.asarray(weights, dtype=np.int64).reshape((len(weights),) + (1,) * (z.ndim - 1))
    return eng.sum(eng.mul_public_int(z, w), axis=0)


def _powers(eng, powers, degree):
    """Extend [v, ..., v^k] at l bits to v .. v^degree, stacked: each round
    multiplies the top power by all the powers below it."""
    l = eng.frac_bits
    powers = list(powers)
    while len(powers) < degree:
        k = min(len(powers), degree - len(powers))
        powers.extend(eng.mul(powers[-1], eng.stack(powers[:k]), l))
    return eng.stack(powers)


def _poly_2l(eng, powers, coeffs):
    """sum_k coeffs[k] v^k at 2l fractional bits, from the stacked powers
    v .. v^degree at l bits (local)."""
    l = eng.frac_bits
    q2l = _combine_int(eng, powers, to_signed(_enc(eng, coeffs[1:]), eng.cfg))
    return eng.add_public(q2l, _enc(eng, coeffs[0] * 2.0 ** l))


def _scale_const(eng, a, b, x):
    """a - b x for public reals a, b and x at l bits: one truncation round."""
    bx = eng.trunc(eng.mul_public_int(x, int(_enc(eng, b))), eng.frac_bits)
    return eng.add_public(eng.neg(bx), _enc(eng, a))


def _width(eng, magnitude_bits):
    mag = eng.cfg.int_bits if magnitude_bits is None else magnitude_bits
    return min(eng.cfg.lam, eng.frac_bits + mag + 2)


def _normalize(eng, a, magnitude_bits):
    """Normalization of a > 0 whose top bit lies below _width - 2.

    Returns the one-hot z over the leaves of that width, every leaf's top
    T (so a = m 2^(T - l) with the mantissa m in [1/8, 1)), the mantissa
    precision p = max(2l, width), and the factor sum_i z_i 2^(p - T_i):
    a times it is m at p fractional bits, exactly."""
    width = _width(eng, magnitude_bits) - 2
    prec = max(2 * eng.frac_bits, width)
    tops = [p + k for p, k in leaf_layout(width)]
    z = eng.lead(a, width)
    return z, tops, prec, _combine_int(eng, z, [1 << (prec - t) for t in tops])


def _recip_mantissa(eng, m, m_prec, prec):
    """1/m for the mantissa m in [1/8, 1): Goldschmidt at l bits, y <- y(1+e),
    e <- e^2 from e = 1 - m y0, then one correction from the exact mantissa
    m_prec at prec bits. Returns (y at l bits, y(1 - m y) at 2l bits)."""
    l = eng.frac_bits
    one = _enc(eng, 1.0)
    y = _scale_const(eng, *RECIP_START, m)
    e = eng.add_public(eng.neg(eng.mul(m, y, l)), one)
    for _ in range(_RECIP_STEPS - 1):
        y, e = eng.mul(eng.stack([y, e]), eng.stack([eng.add_public(e, one), e]), l)
    y = eng.mul(y, eng.add_public(e, one), l)
    # 1 - m y at prec + l bits: m y sits near 2^(prec + l), which may wrap the
    # ring, but the difference is exact and small enough to truncate
    unit = np.asarray((1 << (prec + l)) % eng.cfg.modulus).astype(eng.cfg.udtype)
    r2l = eng.trunc(eng.add_public(eng.neg(eng.mul(m_prec, y)), unit), prec - l)
    return y, eng.mul(y, r2l, l)


def secure_div(eng, a, b, magnitude_bits=None):
    """a / b on shares; |result| is accurate to well under 2^-14 absolute for
    quotients up to 2^10. Out-of-domain inputs produce garbage obliviously."""
    l = eng.frac_bits
    with eng.phase("div"):
        sgn = eng.msb(b, _width(eng, magnitude_bits))
        ba = eng.stack(np.broadcast_arrays(b, a))
        ba = eng.sub(ba, eng.mul_public_int(eng.mul(sgn, ba), 2))  # |b|, a sign(b)
        z, tops, prec, factor = _normalize(eng, ba[0], magnitude_bits)
        # |b|'s mantissa and a sign(b) 2^(l - T), both exact at prec bits
        scaled = eng.mul(ba, factor)
        m, a2 = eng.trunc(scaled, prec - l)
        y, c2l = _recip_mantissa(eng, m, scaled[0], prec)
        prods = eng.mul(a2, eng.stack([y, c2l]))
        return eng.trunc(eng.add(prods[0], eng.trunc(prods[1], l)), l)


def secure_sqrt(eng, a, magnitude_bits=None):
    """sqrt(a) for a >= 0 on shares, within 2^-12 absolute on [2^-10, 2^10]."""
    l = eng.frac_bits
    with eng.phase("sqrt"):
        z, tops, prec, factor = _normalize(eng, a, magnitude_bits)
        m_prec = eng.mul(a, factor)
        m = eng.trunc(m_prec, prec - l)
        # Goldschmidt: g -> sqrt(m), h -> 1/(2 sqrt(m)), from h0 = y0 / 2
        half = _scale_const(eng, RSQRT_START[0] / 2, RSQRT_START[1] / 2, m)
        g = eng.mul_public_int(eng.mul(m, half, l), 2)
        for _ in range(_RSQRT_STEPS):
            r = eng.add_public(eng.neg(eng.mul(g, half, l)), _enc(eng, 1.5))
            g, half = eng.mul(eng.stack([g, half]), r, l)
        # one correction at 2l bits: sqrt(m) ~ g + h (m - g^2), m - g^2 exact at prec bits
        g2 = eng.mul_public_int(eng.mul(g, g), 1 << (prec - 2 * l))
        c2l = eng.mul(half, eng.sub(m_prec, g2), prec - l)
        scale = _combine_int(eng, z, [int(round(2 ** (l + (t - l) / 2))) for t in tops])
        prods = eng.mul(eng.stack([g, c2l]), scale)
        return eng.trunc(eng.add(prods[0], eng.trunc(prods[1], l)), l)


def secure_ln(eng, a, magnitude_bits=None):
    """ln(a) for a > 0 on shares, within 2^-12 absolute down to one ulp."""
    l = eng.frac_bits
    with eng.phase("ln"):
        z, tops, prec, factor = _normalize(eng, a, magnitude_bits)
        m = eng.mul(a, factor, prec - l)
        u = eng.add_public(eng.mul_public_int(m, 2), _enc(eng, -1.0))
        q2l = _poly_2l(eng, _powers(eng, [u], len(LN_POWER) - 1), LN_POWER)
        ln2 = int(_enc(eng, np.log(2.0) * 2.0 ** l))  # at 2l bits
        q2l = eng.add(q2l, _combine_int(eng, z, [(t - l) * ln2 for t in tops]))
        return eng.trunc(q2l, l)


def secure_sin_cos(eng, theta):
    """(sin, cos) of theta in [0, 2pi], via the quarter-period split of the
    angle in turns (any theta works modulo 2pi)."""
    l = eng.frac_bits
    with eng.phase("sin_cos"):
        turns = eng.trunc(eng.mul_public_int(theta, int(_enc(eng, 1 / (2 * np.pi)))), l)
        f, q0, q1 = eng.split(turns, l + 1)  # turns mod 1/4, quadrant bits
        x = eng.add_public(eng.mul_public_int(f, 8), _enc(eng, -1.0))
        powers = _powers(eng, [x], len(SIN_POWER) - 1)
        s, c = eng.trunc(eng.stack([_poly_2l(eng, powers, SIN_POWER),
                                    _poly_2l(eng, powers, COS_POWER)]), l)
        q0s, q0c, q1q0 = eng.mul(eng.stack([q0, q0, q1]), eng.stack([s, c, q0]))
        inner_sin = eng.add(eng.sub(s, q0s), q0c)
        inner_cos = eng.add(eng.sub(c, q0c), q0s)
        q_xor = eng.sub(eng.add(q1, q0), eng.mul_public_int(q1q0, 2))
        inner = eng.stack([inner_sin, inner_cos])
        sin, cos = eng.sub(inner, eng.mul_public_int(eng.mul(eng.stack([q1, q_xor]), inner), 2))
        return sin, cos


def secure_sigmoid(eng, z, magnitude_bits=None):
    """Logistic function on shares: odd polynomial on |z| <= 8, exact 0/1
    clamp outside, all three segments blended obliviously.

    Both clamp signs come from one msb call. The core is t = z/8 times a
    polynomial q in v = 2 t^2 - 1, evaluated in the power basis: the powers
    v .. v^14 take four stacked products, and the sum is local. The
    middle-segment indicator multiplies t inside the first power level, so
    outside |z| <= 8 the core is exactly zero and no blend product is left.
    On |z| <= 8 every truncated value holds at most 2l fractional bits of a
    number below 4 (outside, what it holds is multiplied by zero), so the
    sigmoid works on any ring with 2l + 4 <= lambda.
    """
    l = eng.frac_bits
    width = _width(eng, magnitude_bits)
    with eng.phase("sigmoid"):
        bounds = eng.stack([eng.add_public(eng.neg(z), _enc(eng, SIGMOID_CLAMP)),
                            eng.add_public(z, _enc(eng, SIGMOID_CLAMP))])
        hi, lo = eng.msb(bounds, width)  # z > 8, z < -8
        mid = eng.sub(eng.sub(eng.add_public(eng.zeros(np.shape(z)), np.uint64(1)), hi), lo)
        t = eng.trunc(z, 3)  # z / 8
        v = eng.add_public(eng.mul_public_int(eng.mul(t, t, l), 2), _enc(eng, -1.0))
        # mid * t rides along with v^2; mid at l bits makes its truncation exact
        first = eng.mul(eng.stack([v, eng.mul_public_int(mid, 1 << l)]), eng.stack([v, t]), l)
        powers = _powers(eng, [v, first[0]], len(SIG_POWER) - 1)
        core = eng.mul(first[1], eng.trunc(_poly_2l(eng, powers, SIG_POWER), l), l)
        out = eng.add(eng.mul_public_int(hi, int(_enc(eng, 1.0))),
                      eng.mul_public_int(mid, int(_enc(eng, 0.5))))
        return eng.add(out, core)


def joint_uniform(eng, shape):
    """Jointly sampled uniforms on (0, 1]: each party contributes l local bits
    per value, the secret value is their bitwise XOR plus one ulp."""
    with eng.phase("uniform"):
        return eng.joint_uniform(shape)
