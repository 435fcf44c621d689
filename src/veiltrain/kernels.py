"""Secure fixed-point math kernels evaluated on shares.

Division, square root, and logarithm first extract the operand's most
significant bit with dealer random bits, rescale to a mantissa in [0.5, 1),
then run fixed-iteration Newton refinement or Chebyshev evaluation; sine and
cosine reduce the angle to a quarter period through the argument's bits.
Signs alone (the division's sign, the sigmoid's clamps) come from the
engine's log-depth msb op. The sigmoid is a clamped odd polynomial with
oblivious segment selection, evaluated in the power basis from four stacked
products. Iteration counts and degrees are fixed, so transcripts depend
only on input sizes, never on values.

Polynomial coefficients are Chebyshev interpolants (degree chosen so the
float-side fit error sits well below each kernel's tolerance):
  LN_CHEB:  ln(m) on m in [0.5, 1],   argument 4m - 3
  SIN_CHEB: sin(2 pi f) on f in [0, 0.25], argument 8f - 1
  COS_CHEB: cos(2 pi f) likewise
  SIG_CHEB: (sigmoid(8t) - 1/2)/t as a function of u = t^2 on [0, 1],
            argument v = 2u - 1; SIG_POWER is the same fit in powers of v
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixedpoint import encode, to_signed

LN_CHEB = (
    -0.31669436764074993, 0.3431457505076194, -0.029437251522857588,
    0.003367089255553031, -0.0004332758885396537, 5.947071155137555e-05,
    -8.502964804915375e-06, 1.2504501863321355e-06, -1.8761954501532007e-07,
    2.7940690599361138e-08,
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
# the same fit in the power basis of v: sum_k SIG_POWER[k] v^k
SIG_POWER = tuple(np.polynomial.chebyshev.cheb2poly(SIG_CHEB))

_NEWTON_ITERS = 3
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


def _clenshaw(eng, cheb, v):
    """Evaluate a Chebyshev series at fixed-point v in [-1, 1]."""
    l = eng.frac_bits
    two_v = eng.mul_public_int(v, 2)
    b1 = eng.zeros(np.shape(v))
    b2 = eng.zeros(np.shape(v))
    for c in cheb[:0:-1]:
        b1, b2 = eng.add_public(eng.sub(eng.mul(two_v, b1, l), b2), _enc(eng, c)), b1
    return eng.add_public(eng.sub(eng.mul(v, b1, l), b2), _enc(eng, cheb[0]))


def _msb_onehot(eng, bits):
    """One-hot indicator of the most significant set bit (suffix-OR scan)."""
    width = bits.shape[0]
    z = [None] * width
    seen = eng.zeros(bits.shape[1:])
    for k in range(width - 1, -1, -1):
        prod = eng.mul(bits[k], seen)
        z[k] = eng.sub(bits[k], prod)
        seen = eng.sub(eng.add(seen, bits[k]), prod)
    return eng.stack(z)


def _combine_int(eng, z, weights):
    """Local weighted sum of the one-hot rows with public integer weights."""
    w = np.asarray(weights, dtype=np.int64).reshape((len(weights),) + (1,) * (z.ndim - 1))
    return eng.sum(eng.mul_public_int(z, w), axis=0)


def _width(eng, magnitude_bits):
    mag = eng.cfg.int_bits if magnitude_bits is None else magnitude_bits
    return min(eng.cfg.lam, eng.frac_bits + mag + 2)


def _normalize(eng, a, width):
    """For a > 0: mantissa at 2l fractional bits in [0.5, 1) plus the one-hot.

    The mantissa is exact: a's raw value times 2^(2l-1-k) where k is the MSB
    position, computed as one product with a one-hot-derived factor.
    """
    l = eng.frac_bits
    b = eng.bits(a, width)
    z = _msb_onehot(eng, b)
    factor = _combine_int(eng, z, [1 << (2 * l - 1 - k) if k <= 2 * l - 1 else 0
                                   for k in range(width)])
    m2l = eng.mul(a, factor)  # raw product lands exactly in [2^(2l-1), 2^2l)
    return m2l, z


def _recip_mantissa(eng, m2l):
    """1/m for mantissa m in [0.5, 1): Newton at l bits plus one refinement
    step carried at 2l bits. Returns (hi part at l bits, correction at 2l)."""
    l = eng.frac_bits
    m = eng.trunc(m2l, l)
    y = eng.sub(eng.from_public(_enc(eng, 48 / 17)), eng.mul(eng.from_public(_enc(eng, 32 / 17)), m, l))
    for _ in range(_NEWTON_ITERS):
        t = eng.add_public(eng.neg(eng.mul(m, y, l)), _enc(eng, 2.0))
        y = eng.mul(y, t, l)
    p2l = eng.mul(m2l, y, l)
    r2l = eng.add_public(eng.neg(p2l), np.uint64(1) << np.uint64(2 * l))
    c2l = eng.mul(y, r2l, l)
    return y, c2l


def secure_div(eng, a, b, magnitude_bits=None):
    """a / b on shares; |result| is accurate to well under 2^-14 absolute for
    quotients up to 2^10. Out-of-domain inputs produce garbage obliviously."""
    l = eng.frac_bits
    width = _width(eng, magnitude_bits)
    with eng.phase("div"):
        sgn = eng.msb(b, width)
        b_abs = eng.sub(b, eng.mul_public_int(eng.mul(sgn, b), 2))
        m2l, z = _normalize(eng, b_abs, width)
        y, c2l = _recip_mantissa(eng, m2l)
        factor = _combine_int(eng, z, [1 << (2 * l - 1 - k) if k <= 2 * l - 1 else 0
                                       for k in range(width)])
        a2_2l = eng.mul(a, factor)          # a * 2^(l-1-k), exact at 2l bits
        a2 = eng.trunc(a2_2l, l)
        q2l = eng.add(eng.mul(a2, y), eng.mul(a2, c2l, l))
        q = eng.trunc(q2l, l)
        return eng.sub(q, eng.mul_public_int(eng.mul(q, sgn), 2))


def secure_sqrt(eng, a, magnitude_bits=None):
    """sqrt(a) for a >= 0 on shares, within 2^-12 absolute on [2^-10, 2^10]."""
    l = eng.frac_bits
    width = _width(eng, magnitude_bits)
    with eng.phase("sqrt"):
        m2l, z = _normalize(eng, a, width)
        m = eng.trunc(m2l, l)
        y = eng.sub(eng.from_public(_enc(eng, 1.7780960666044185)),
                    eng.mul(eng.from_public(_enc(eng, 0.7977571033068371)), m, l))
        for _ in range(_NEWTON_ITERS):
            y2 = eng.mul(y, y, l)
            half_my2 = eng.trunc(eng.mul(m, y2), l + 1)
            y = eng.mul(y, eng.add_public(eng.neg(half_my2), _enc(eng, 1.5)), l)
        s0 = eng.mul(m, y, l)
        r2l = eng.sub(m2l, eng.mul(s0, s0))
        c2l = eng.trunc(eng.mul(y, r2l), l + 1)  # r * y / 2
        factor = _combine_int(
            eng, z, [int(round(2 ** (l + (k + 1 - l) / 2))) for k in range(width)])
        out2l = eng.add(eng.mul(s0, factor), eng.mul(c2l, factor, l))
        return eng.trunc(out2l, l)


def secure_ln(eng, a, magnitude_bits=None):
    """ln(a) for a > 0 on shares, within 2^-12 absolute down to one ulp."""
    l = eng.frac_bits
    width = _width(eng, magnitude_bits)
    with eng.phase("ln"):
        m2l, z = _normalize(eng, a, width)
        m = eng.trunc(m2l, l)
        v = eng.add_public(eng.mul_public_int(m, 4), _enc(eng, -3.0))
        poly = _clenshaw(eng, LN_CHEB, v)
        e_int = _combine_int(eng, z, [k + 1 - l for k in range(width)])
        return eng.add(poly, eng.mul_public_int(e_int, int(_enc(eng, np.log(2.0)))))


def secure_sin_cos(eng, theta):
    """(sin, cos) of theta in [0, 2pi], via quarter-period bit reduction."""
    l = eng.frac_bits
    with eng.phase("sin_cos"):
        v = eng.mul(theta, eng.from_public(_enc(eng, 1 / (2 * np.pi))), l)
        b = eng.bits(v, l + 4)
        q0, q1 = b[l - 2], b[l - 1]
        f = _combine_int(eng, b[: l - 2], [1 << j for j in range(l - 2)])
        x = eng.add_public(eng.mul_public_int(f, 8), _enc(eng, -1.0))
        s = _clenshaw(eng, SIN_CHEB, x)
        c = _clenshaw(eng, COS_CHEB, x)
        q0s = eng.mul(q0, s)
        q0c = eng.mul(q0, c)
        inner_sin = eng.add(eng.sub(s, q0s), q0c)
        inner_cos = eng.add(eng.sub(c, q0c), q0s)
        sin = eng.sub(inner_sin, eng.mul_public_int(eng.mul(q1, inner_sin), 2))
        q_xor = eng.sub(eng.add(q1, q0), eng.mul_public_int(eng.mul(q1, q0), 2))
        cos = eng.sub(inner_cos, eng.mul_public_int(eng.mul(q_xor, inner_cos), 2))
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
    degree = len(SIG_POWER) - 1
    with eng.phase("sigmoid"):
        bounds = eng.stack([eng.add_public(eng.neg(z), _enc(eng, SIGMOID_CLAMP)),
                            eng.add_public(z, _enc(eng, SIGMOID_CLAMP))])
        hi, lo = eng.msb(bounds, width)  # z > 8, z < -8
        mid = eng.sub(eng.sub(eng.add_public(eng.zeros(np.shape(z)), np.uint64(1)), hi), lo)
        t = eng.trunc(z, 3)  # z / 8
        v = eng.add_public(eng.mul_public_int(eng.mul(t, t, l), 2), _enc(eng, -1.0))
        # mid * t rides along with v^2; mid at l bits makes its truncation exact
        first = eng.mul(eng.stack([v, eng.mul_public_int(mid, 1 << l)]), eng.stack([v, t]), l)
        powers, t_mid = [v, first[0]], first[1]
        while len(powers) < degree:
            k = min(len(powers), degree - len(powers))
            powers.extend(eng.mul(powers[-1], eng.stack(powers[:k]), l))
        q2l = _combine_int(eng, eng.stack(powers), to_signed(_enc(eng, SIG_POWER[1:]), eng.cfg))
        q2l = eng.add_public(q2l, _enc(eng, SIG_POWER[0] * 2.0 ** l))
        core = eng.mul(t_mid, eng.trunc(q2l, l), l)
        out = eng.add(eng.mul_public_int(hi, int(_enc(eng, 1.0))),
                      eng.mul_public_int(mid, int(_enc(eng, 0.5))))
        return eng.add(out, core)


def joint_uniform(eng, shape):
    """Jointly sampled uniforms on (0, 1]: each party contributes l local bits
    per value, the secret value is their bitwise XOR plus one ulp."""
    with eng.phase("uniform"):
        return eng.joint_uniform(shape)
