"""Secure fixed-point math kernels evaluated on shares.

Division, square root, and logarithm first find the leaf (a block of three
bits, see engine.leaf_layout) that holds the operand's top set bit with the
engine's log-depth lead op, rescale by that leaf's power of two to
a coarse mantissa in [1/8, 1), then run fixed-count Goldschmidt iterations
with one residual correction at 2l bits, or a power-basis polynomial. The
square root's iteration tracks e = g h = 2 m h^2 (which tends to 1/2) in
place of forming g h, so a step is two rounds: r = 3/2 - e is truncated
while it multiplies the carried values and itself, and e r^2 is (3/2 - r)
times r^2, taken while r^2 and the carried values are truncated. Sine and
cosine need no range reduction: a half-angle polynomial covers the whole
period, and one squaring round doubles the angle. Unit exponentials need
no normalization either: -ln U = e ln 2 - ln m, with the exponent e from
the engine's joint_geometric and ln m a fit in the mantissa's own uniform.
Signs alone (the division's sign, the sigmoid's clamps) come from the
engine's msb op. The sigmoid is an odd polynomial: on an input with a
public bound |z| <= 5/4 it is of degree 5 and takes 3 rounds, on one with
|z| <= 4 it needs no clamp, otherwise it clamps its input to |z| <= 8.
Every polynomial is evaluated in the power basis: the powers take one
fused truncate and multiply round (engine op tmul) per doubling, and the
sum is local. Iteration counts and degrees are fixed, so transcripts
depend only on input sizes, never on values.

Polynomial coefficients are Chebyshev series (degree chosen so the
float-side fit error sits well below each kernel's tolerance, and so that
the fused power chain reaches it in few rounds: degree 6 and 12 take one
round fewer than 8 and 14), converted to the power basis at import:
  LN_CHEB:  ln(m) on m in [1/8, 1],  argument (16m - 9)/7; LN_POWER in
            powers of u = 2m - 1
  LNM_CHEB: ln((1 + u)/2) on u in [0, 1], argument x = 2u - 1 (degree 8,
            2^-24.8): the mantissa's log of an exponential (unit_exponentials)
  SIN_CHEB: sin(pi x / 2) on x in [-1, 1] (odd, degree 7)
  COS_CHEB: cos(pi x / 2) likewise (even, degree 8)
  SIG_CHEB: (sigmoid(8t) - 1/2)/t as a function of u = t^2 on [0, 1],
            argument v = 2u - 1
  SIG4_CHEB: (sigmoid(4t) - 1/2)/t likewise, weighted by t (Lawson
            iterations) so the sigmoid's own error t (q~ - q) is minimax:
            1.7e-5 on |z| <= 4, where the unweighted fit has 3.3e-5
The degree-5 fit is already in the power basis:
  SIG5_ODD: sigmoid(2t) - 1/2 = c1 t + c3 t^3 + c5 t^5 on |t| <= 5/8, the
            minimax fit (a linear program on a 20001-point grid): 1.12e-5
            on |z| <= 5/4, with the slope in [0.1735, 0.24994]
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dealer import SIGN_BLOCK
from .engine import Results, leaf_layout, whole_leaves
from .fixedpoint import encode, to_signed

LN_CHEB = (
    -0.7808278095447015, 0.9551844992272576, -0.22809435560293073,
    0.07262406125225465, -0.02601351000267974, 0.009939066299792068,
    -0.00395565297894257, 0.0016192366223765921, -0.0006765174240610995,
    0.00028686669177073075, -0.00012256587527888433, 5.156715977687598e-05,
    -1.888238927282925e-05,
)
SIN_CHEB = (
    0.0, 1.133648177811748, 0.0, -0.13807177658719216, 0.0, 0.004490714246554834,
    0.0, -6.770127584258697e-05,
)
COS_CHEB = (
    0.4720012157682348, 0.0, -0.49940325827040705, 0.0, 0.027992079617547648,
    0.0, -0.0005966951965487954, 0.0, 6.704394869800126e-06,
)
SIG_CHEB = (
    0.9179788279261364, -0.5978454057785887, 0.26131485960880796,
    -0.11957835605318305, 0.05532870227597527, -0.025677346204693134,
    0.011926600586948034, -0.005540988206614879, 0.002574437375242915,
    -0.0011960771705892565, 0.0005555374662430875, -0.0002576838921734763,
    0.00011878306069975032,
)
SIG4_CHEB = (
    0.681443716932279, -0.24494559652438352, 0.05620327175379739,
    -0.013198595785737557, 0.0030916296948200533, -0.000705124472112535,
    0.00014117099591461153,
)
LNM_CHEB = (
    -0.3166943676407499, 0.3431457505076198, -0.02943725152285946, 0.0033670892555644075,
    -0.0004332758886100403, 5.9470711989546305e-05, -8.502967541137037e-06,
    1.2504673620643344e-06, -1.8772799545560474e-07,
)
SIG5_ODD = (0.4998713763046532, -0.1639070067247261, 0.05146248930881692)  # c1, c3, c5
# the same fits in the power basis of their arguments: sum_k a[k] v^k. The
# constant of LN_POWER is pinned to ln(1/2) (a shift of 7.6e-6): one is
# m = 1/2 in its top leaf at the Box-Muller width, so ln(1) is exactly 0
# and -2 ln(u) never goes negative
LN_POWER = (-np.log(2.0),) + tuple(np.polynomial.Chebyshev(LN_CHEB, domain=[-0.75, 1.0])
                                   .convert(kind=np.polynomial.Polynomial).coef[1:])
# LNM_POWER's constant is pinned in ring integers where it is used
# (_exponentials_2l), so that ln 1 is exactly 0 there too
LNM_POWER = tuple(np.polynomial.chebyshev.cheb2poly(LNM_CHEB))
SIN_POWER = tuple(np.polynomial.chebyshev.cheb2poly(SIN_CHEB))
COS_POWER = tuple(np.polynomial.chebyshev.cheb2poly(COS_CHEB))
SIG_POWER = tuple(np.polynomial.chebyshev.cheb2poly(SIG_CHEB))
SIG4_POWER = tuple(np.polynomial.chebyshev.cheb2poly(SIG4_CHEB))

# starts on the coarse mantissa m in [1/8, 1): 1/m ~ a - b m, with relative
# error below 0.44; 1/sqrt(m) ~ a0 + a1 m + a2 m^2, the minimax fit of
# |1 - m y0^2| (0.147 on a 200001-point grid)
RECIP_START = (5.097, 4.531)
RSQRT_START = (3.188401186, -4.964418283, 2.846981376)
_RECIP_STEPS = 4
_RSQRT_STEPS = 2
# after those steps secure_rsqrt's correction operand 1 - m y^2 is below
# 2^-RSQRT_RESIDUAL_BITS in magnitude for every mantissa m in [1/8, 1) on
# every accepted ring: rounding makes it largest on the coarsest, 2^-8.8 at
# l = 12, where the float iteration alone reaches 2^-12.2
RSQRT_RESIDUAL_BITS = 8
_MANTISSA_EXTRA = 3  # fractional bits above l on the mantissa and on div's numerator
SIGMOID_CLAMP_BITS = 3  # the sigmoid clamps at |z| = 2^3
SIGMOID_BOUND_BITS = 2  # with a public bound |z| <= 2^2 it needs no clamp
SIGMOID_BOUND = 2.0 ** SIGMOID_BOUND_BITS
SIGMOID_ODD_BOUND = 1.25  # with a public bound |z| <= 5/4 the degree-5 fit runs
_TURNS_EXTRA = 8        # fractional bits above l on sin_cos's 1/(2 pi)


@dataclass(frozen=True)
class KernelTolerance:
    """Documented absolute error bound of a kernel on its test domain."""

    name: str
    bound: float
    domain: str


KERNEL_TOLERANCES = {
    "div": KernelTolerance("div", 2.0 ** -14, "|b| in [2^-18, 2^23), |a/b| <= 2^10"),
    "sqrt": KernelTolerance("sqrt", 2.0 ** -12, "a in [2^-10, 2^10]"),
    "rsqrt": KernelTolerance("rsqrt", 2.0 ** -12, "a in [2^-10, 2^10]"),
    "ln": KernelTolerance("ln", 2.0 ** -12, "a in [2^-20, 2^10]"),
    "sin": KernelTolerance("sin", 2.0 ** -12, "theta in [0, 2pi]"),
    "cos": KernelTolerance("cos", 2.0 ** -12, "theta in [0, 2pi]"),
    "sigmoid": KernelTolerance("sigmoid", 1e-3, "any z; its value at +-8 beyond |z| = 8"),
    # sigmoid_b4 also bounds the degree-5 tier's error, for training's analysis
    "sigmoid_b4": KernelTolerance("sigmoid_b4", 3.9e-5, "|z| <= 4 under a public bound"),
    "sigmoid_b1.25": KernelTolerance("sigmoid_b1.25", 2e-5, "|z| <= 5/4 under a public bound"),
    # noise.box_muller_radius: E rsqrt(E) for sqrt(E), E = -2 ln u
    "bm_radius": KernelTolerance("bm_radius", 2.0 ** -12, "E = -2 ln u, u in (0, 1] at l bits"),
}


def _enc(eng, x):
    return encode(x, eng.cfg)


def _combine_int(eng, z, weights):
    """Local weighted sum of the one-hot rows with public integer weights."""
    w = np.asarray(weights, dtype=np.int64).reshape((len(weights),) + (1,) * (z.ndim - 1))
    return eng.sum(eng.mul_public_int(z, w), axis=0)


def _partners(rows, low, degree):
    """For the exponents in rows (powers at 2l bits, squared this round
    where the square is new and at most degree), the exponent of a power in
    low (at l bits) to multiply each by, chosen so that the products add as
    many new exponents up to degree as they can. Returns {row: partner} for
    the rows whose product adds one; the others take no product."""
    have = set(low) | set(rows) | {2 * h for h in rows}
    partners = {}
    for h in sorted(rows, reverse=True):
        new = [h + j for j in low if h + j <= degree and h + j not in have]
        if new:
            have.add(max(new))
            partners[h] = max(new) - h
    return partners


def _powers(eng, x, shift, degree):
    """v .. v^degree at l bits, stacked, from v at l + shift fractional bits.

    One tmul truncates v and squares it. Every later round truncates each
    power still at 2l bits and, in the same tmul, takes only the squares
    and the products with a power already at l bits (_partners) that add
    new exponents up to degree: the exponents at hand about double per
    round. A last round truncates the powers left at 2l bits."""
    l = eng.frac_bits
    t, sq = eng.tmul(x, shift, square=True)
    low, high = {1: t}, {2: sq}  # powers at l and at 2l fractional bits
    while len(low) + len(high) < degree:
        rows = sorted(high)
        partners = _partners(rows, low, degree)
        times = [i for i, h in enumerate(rows) if h in partners]
        squares = [i for i, h in enumerate(rows)
                   if 2 * h <= degree and 2 * h not in low and 2 * h not in high]
        y = eng.stack([low[partners[rows[i]]] for i in times]) if times else None
        t, *prods = eng.tmul(eng.stack([high[h] for h in rows]), l, y,
                             square=squares or False, rows=times)
        made = dict(zip((rows[i] + partners[rows[i]] for i in times), prods[0])) if times else {}
        if squares:
            made.update(zip((2 * rows[i] for i in squares), prods[-1]))
        low.update(zip(rows, t))
        high = made
    left = [high[k] for k in sorted(high)]
    low.update(zip(sorted(high), eng.tmul(left, [l] * len(left)) if left else []))
    return eng.stack([low[k] for k in range(1, degree + 1)])


def _poly_2l(eng, powers, coeffs):
    """sum_k coeffs[k] v^k at 2l fractional bits, from the stacked powers
    v, v^2 .. at l bits, as many as the coefficients need or more (local)."""
    l = eng.frac_bits
    q2l = _combine_int(eng, powers[:len(coeffs) - 1], to_signed(_enc(eng, coeffs[1:])))
    return eng.add_public(q2l, _enc(eng, coeffs[0] * 2.0 ** l))


def _scale_const(eng, a, b, x, frac_bits):
    """a - b x at l bits for public reals a, b and x at frac_bits: one
    truncation round."""
    bx = eng.trunc(eng.mul_public_int(x, int(_enc(eng, b))), frac_bits)
    return eng.add_public(eng.neg(bx), _enc(eng, a))


def _width(eng, magnitude_bits):
    """Bits of an input of magnitude_bits integer bits with headroom. A mask
    of it rounded up to whole leaves (engine.whole_leaves) hides an input of
    the narrower range as well, and at most 65 - l bits stays within the
    ring for l >= 3."""
    mag = eng.cfg.int_bits if magnitude_bits is None else magnitude_bits
    return min(eng.cfg.lam, eng.frac_bits + mag + 2)


def _normalize(eng, a, magnitude_bits):
    """Normalization of a > 0 whose top bit lies below width = _width - 2.

    Returns the one-hot z over the leaves of that width rounded up to
    whole leaves, every leaf's top T, at most width (so a = m 2^(T - l)
    with the mantissa m in [1/8, 1)), the mantissa precision p = max(2l,
    width), and the factor sum_i z_i 2^(p - T_i): a times it is m at p
    fractional bits, exactly."""
    width = _width(eng, magnitude_bits) - 2
    prec = max(2 * eng.frac_bits, width)
    leaves = whole_leaves(width)
    tops = [min(p + SIGN_BLOCK, width) for p in leaf_layout(leaves)]
    z = eng.lead(a, leaves)
    return z, tops, prec, _combine_int(eng, z, [1 << (prec - t) for t in tops])


def _unit(eng, bits, value=1):
    """The integer value at the given fractional bits, as a ring element:
    value 2^bits mod 2^64."""
    return np.uint64((value << bits) % eng.cfg.modulus)


def _recip_mantissa(eng, m, m_prec, prec):
    """1/m for the mantissa m in [1/8, 1), given at l + _MANTISSA_EXTRA
    bits: Goldschmidt at l bits, y <- y(1+e), e <- e^2 from e = 1 - m y0,
    then one correction from the exact mantissa m_prec at prec bits.
    Returns (y at l bits, y(1 - m y) at 2l - _MANTISSA_EXTRA bits)."""
    l, wide = eng.frac_bits, eng.frac_bits + _MANTISSA_EXTRA
    one = _enc(eng, 1.0)
    y = _scale_const(eng, *RECIP_START, m, wide)
    e = eng.add_public(eng.neg(eng.trunc(eng.mul(m, y), wide)), one)
    for _ in range(_RECIP_STEPS - 1):
        y, e = eng.trunc(eng.mul(eng.stack([y, e]), eng.stack([eng.add_public(e, one), e])), l)
    y = eng.trunc(eng.mul(y, eng.add_public(e, one)), l)
    # 1 - m y at prec + l bits: m y sits near 2^(prec + l), which may wrap the
    # ring, but the difference is exact and small enough to truncate
    r2l = eng.trunc(eng.add_public(eng.neg(eng.mul(m_prec, y)), _unit(eng, prec + l)), prec - l)
    return y, eng.trunc(eng.mul(y, r2l), wide)


def secure_div(eng, a, b, magnitude_bits=None):
    """a / b on shares; |result| is accurate to well under 2^-14 absolute for
    quotients up to 2^10. Out-of-domain inputs produce garbage obliviously."""
    l, wide = eng.frac_bits, eng.frac_bits + _MANTISSA_EXTRA
    with eng.phase("div"):
        sgn = eng.msb(b, whole_leaves(_width(eng, magnitude_bits)))
        ba = eng.stack(np.broadcast_arrays(b, a))
        ba = eng.sub(ba, eng.mul_public_int(eng.mul(sgn, ba), 2))  # |b|, a sign(b)
        z, tops, prec, factor = _normalize(eng, ba[0], magnitude_bits)
        # |b|'s mantissa m and a2 = a sign(b) 2^(l - T), exact at prec bits, then
        # at l + 3: the quotient a2 / m multiplies a2's error by up to 8
        scaled = eng.mul(ba, factor)
        m, a2 = eng.trunc(scaled, prec - wide)
        y, c = _recip_mantissa(eng, m, scaled[0], prec)
        prods = eng.mul(a2, eng.stack([y, c]))  # at 2l + 3 and 3l bits
        return eng.trunc(eng.add(prods[0], eng.trunc(prods[1], l - _MANTISSA_EXTRA)), wide)


def _sqrt_mantissa(eng, a, magnitude_bits, with_g):
    """Normalize a >= 0 and run Goldschmidt on its mantissa m: h -> 1/(2
    sqrt(m)) from h0 = y0 / 2 and, with_g, g = 2 m h -> sqrt(m). The step
    tracks e = g h = 2 m h^2 -> 1/2: r = 3/2 - e, then h r (g r) and e r^2
    = (3/2 - r) r^2, in two rounds. The start takes two: h0 and m h0 with
    one truncation, then e0 from m h0 truncated; m^2, which h0 needs, is
    taken in the round that truncates m. The last step squares the first
    carried value (g, else h) as it truncates. Returns z, tops, prec, m
    exact at prec bits, m at l + _MANTISSA_EXTRA bits, the carried values
    at l bits (g and h, or h, stacked) and that square at 2l."""
    l, wide = eng.frac_bits, eng.frac_bits + _MANTISSA_EXTRA
    z, tops, prec, factor = _normalize(eng, a, magnitude_bits)
    m_prec = eng.mul(a, factor)
    m, mm = eng.tmul(m_prec, prec - wide, square=True)  # m at wide bits, m^2 at 2 wide
    # h0 = b0 + b1 m + b2 m^2 (b = RSQRT_START / 2) at l bits, and m h0 at l +
    # wide bits. b2 < 2 at c bits keeps b2 m^2 below 2^(2 wide + c + 1),
    # within the truncation masks' range 2^(lam - 2)
    b0, b1, b2 = (x / 2 for x in RSQRT_START)
    c = min(l, eng.cfg.lam - 4 - 2 * wide)
    *bm, mbm = eng.tmul([eng.mul_public_int(m, to_signed(_enc(eng, b1))),
                         eng.mul_public_int(mm, int(round(b2 * 2.0 ** c)))],
                        [wide, 2 * wide + c - l], m)
    h = eng.add_public(eng.add(*bm), _enc(eng, b0))
    mh = eng.add(mbm, eng.mul_public_int(m, int(_enc(eng, b0))))
    mh, mhh = eng.tmul(mh, wide, h)
    e = eng.mul_public_int(mhh, 2)  # at 2l bits
    carry = eng.stack([eng.mul_public_int(mh, 2), h] if with_g else [h])
    k = len(carry)
    three_halves = _unit(eng, 2 * l - 1, 3)  # at 2l bits
    for step in range(_RSQRT_STEPS):
        r, rc, rr = eng.tmul(eng.add_public(eng.neg(e), three_halves), l, carry, square=True)
        if step == _RSQRT_STEPS - 1:
            carry, (sq,) = eng.tmul(rc, l, square=[0])
        else:
            t, (e,) = eng.tmul(np.concatenate([rc, rr[None]]), l,
                               eng.add_public(eng.neg(r), _enc(eng, 1.5)), rows=[k])
            carry = t[:k]
    return z, tops, prec, m_prec, m, carry, sq


def secure_sqrt(eng, a, magnitude_bits=None):
    """sqrt(a) for a >= 0 on shares, within 2^-12 absolute on [2^-10, 2^10]."""
    l = eng.frac_bits
    with eng.phase("sqrt"):
        z, tops, prec, m_prec, _, (g, half), gg = _sqrt_mantissa(eng, a, magnitude_bits, True)
        # one correction at 2l bits: sqrt(m) ~ g + h (m - g^2), m - g^2 exact at
        # prec bits; its truncation to 2l and g's exact one ride with the scale
        d = eng.mul(half, eng.sub(m_prec, eng.mul_public_int(gg, 1 << (prec - 2 * l))))
        scale = _combine_int(eng, z, [int(round(2 ** (l + (t - l) / 2))) for t in tops])
        _, prods = eng.tmul(eng.stack([eng.mul_public_int(g, 1 << (prec - l)), d]),
                            prec - l, scale)
        return eng.trunc(eng.add(prods[0], eng.trunc(prods[1], l)), l)


def rsqrt_operand_bits(frac_bits: int) -> int:
    """Bits the magnitude of secure_rsqrt's correction operand 1 - m y^2
    stays below as a ring integer: it is under 2^-RSQRT_RESIDUAL_BITS at
    3l + _MANTISSA_EXTRA fractional bits. Its truncation is exact while
    this is at most the truncation masks' lam - 2 bits."""
    return 3 * frac_bits + _MANTISSA_EXTRA - RSQRT_RESIDUAL_BITS


def secure_rsqrt(eng, a, magnitude_bits=None, truncate=True):
    """1/sqrt(a) for a > 0 on shares, within 2^-12 absolute on [2^-10, 2^10],
    from the square root's iteration: its h converges to 1/(2 sqrt(m)).
    Zero is out of domain, but its result is finite. The result is y at 2l
    bits plus its correction at 3l, which one tmul truncates (by l and by
    2l) and adds; with truncate False they are returned as Results (y,
    correction), that tmul's summands, for the caller's next product to
    take in its round."""
    l, wide = eng.frac_bits, eng.frac_bits + _MANTISSA_EXTRA
    with eng.phase("rsqrt"):
        z, tops, _, _, m, (half,), hh = _sqrt_mantissa(eng, a, magnitude_bits, False)
        scale = _combine_int(eng, z, [int(round(2 ** (l + (l - t) / 2))) for t in tops])
        # one Newton correction at 2l bits for y = 2h: y + h (1 - m y^2). m y^2
        # sits near 2^(3l + 3) at 3l + 3 bits, which may wrap the ring, but
        # 1 - m y^2 is exact and small enough to truncate (rsqrt_operand_bits)
        m_hh, ys = eng.mul(eng.stack([m, eng.mul_public_int(half, 2)]), eng.stack([hh, scale]))
        e = eng.add_public(eng.neg(eng.mul_public_int(m_hh, 4)), _unit(eng, 2 * l + wide))
        _, he = eng.tmul(e, wide, half)  # h (1 - m y^2) at 3l bits
        _, hes = eng.tmul(he, l, scale)
        return eng.add(*eng.tmul([ys, hes], [l, 2 * l])) if truncate else Results((ys, hes))


def secure_ln(eng, a, magnitude_bits=None):
    """ln(a) for a > 0 on shares, within 2^-12 absolute down to one ulp."""
    l = eng.frac_bits
    with eng.phase("ln"):
        z, tops, prec, factor = _normalize(eng, a, magnitude_bits)
        # u = 2m - 1, exact at prec bits; the powers' first round truncates it
        u = eng.add_public(eng.mul_public_int(eng.mul(a, factor), 2), _unit(eng, prec, -1))
        q2l = _poly_2l(eng, _powers(eng, u, prec - l, len(LN_POWER) - 1), LN_POWER)
        ln2 = int(_enc(eng, np.log(2.0) * 2.0 ** l))  # at 2l bits
        q2l = eng.add(q2l, _combine_int(eng, z, [(t - l) * ln2 for t in tops]))
        return eng.trunc(q2l, l)


def secure_sin_cos(eng, theta):
    """(sin, cos) of theta in [0, 2pi]. The angle in turns takes one
    truncation, to l + 1 bits, with 1/(2 pi) at l + _TURNS_EXTRA bits: the
    constant's rounding error at l bits would grow with theta, to 2.4 ulps
    of the turns at 2 pi with 16 fractional bits."""
    shift = eng.frac_bits + _TURNS_EXTRA
    inv = int(round(2.0 ** shift / (2 * np.pi)))
    turns = eng.trunc(eng.mul_public_int(theta, inv), shift - 1)
    return _sin_cos_turns(eng, _turn_powers(eng, turns))


def _turn_powers(eng, turns):
    """The power chain of sin/cos: x = 2 turns - 1, exact at 2l bits, and
    its powers 1 .. 8 at l bits, stacked, for turns in [0, 1] at l + 1
    fractional bits, rows on axis 0 (a value v at l bits, as it is, is the
    half turn count v/2). For a uniform u at l bits the turns 2u give x =
    2u - 1, whose powers a unit exponential's mantissa log takes."""
    l = eng.frac_bits
    with eng.phase("sin_cos"):
        x2l = eng.add_public(eng.mul_public_int(turns, 1 << l), _unit(eng, 2 * l, -1))
        return _powers(eng, x2l, l, len(COS_POWER) - 1)


def _sin_cos_turns(eng, powers, rows=None, truncate=True):
    """(sin, cos) of 2 pi turns from the powers of x = 2 turns - 1
    (_turn_powers).

    The angle is pi x + pi, so from the half-angle fits s = sin(pi x / 2)
    and c = cos(pi x / 2), sin = -2 s c = s^2 + c^2 - (s + c)^2 and cos =
    s^2 - c^2: one tmul truncates and squares s, c and s + c, one
    truncation follows. With truncate False sin and cos stay at 2l bits,
    for the caller's next tmul to truncate.

    rows: values at 2l bits, rows on axis 0, such as unit exponentials
    (_exponentials_2l), truncated in the round that squares s, c and s + c;
    the result is then (sin, cos, rows at l bits)."""
    l = eng.frac_bits
    with eng.phase("sin_cos"):
        k = powers.shape[1]
        s, c = (_poly_2l(eng, powers, coeffs) for coeffs in (SIN_POWER, COS_POWER))
        halves = eng.stack([s, c, eng.add(s, c)])
        x = halves.reshape((3 * k,) + halves.shape[2:])
        if rows is not None:
            x = np.concatenate([x, rows])
        t, squares = eng.tmul(x, l, square=range(3 * k))
        ss, cc, both = squares.reshape(halves.shape)
        sin_cos = eng.stack([eng.sub(eng.add(ss, cc), both), eng.sub(ss, cc)])
        sin, cos = eng.trunc(sin_cos, l) if truncate else sin_cos
        return Results((sin, cos) if rows is None else (sin, cos, t[3 * k:]))


def _exponentials_2l(eng, e, powers):
    """e ln 2 - ln((1 + u)/2) at 2l bits, from integer exponents e and the
    powers of x = 2u - 1 at l bits (LNM_POWER). The fit's constant is
    pinned in ring integers so that x = 1 gives exactly 0: so e = 0 and
    u = 1 give exactly 0, and no value is negative."""
    l = eng.frac_bits
    coeffs = to_signed(_enc(eng, LNM_POWER[1:]))
    ln_m = eng.add_public(_combine_int(eng, powers[:len(coeffs)], coeffs),
                          _unit(eng, l, -int(coeffs.sum())))
    return eng.sub(eng.mul_public_int(e, int(_enc(eng, np.log(2.0) * 2.0 ** l))), ln_m)


def unit_exponentials(eng, e, powers):
    """-ln U = e ln 2 - ln m at l bits, Exp(1) samples cut at (W + 1) ln 2,
    from geometric exponents e on [0, W] (joint_geometric) and uniforms u
    at l bits of e's shape, given as the powers _turn_powers takes of the
    turns 2u: U = m 2^-e with m = (1 + u)/2 uniform on [1/2, 1) and
    independent of e. ln m is a degree-8 fit in x = 2u - 1, which needs no
    normalization: after the power chain, one truncation."""
    with eng.phase("exponential"):
        return eng.trunc(_exponentials_2l(eng, e, powers), eng.frac_bits)


def secure_sigmoid(eng, z, magnitude_bits=None, frac_bits=None, bound=None, truncate=True):
    """Logistic function on shares: 1/2 + t q(2 t^2 - 1), t = z/2^k.

    With a public bound |z| <= bound <= SIGMOID_ODD_BOUND, k = 1 and t q is
    the odd degree-5 fit SIG5_ODD, in 3 rounds (_odd5). With bound <=
    SIGMOID_BOUND, k = 2 and q is the degree-6 fit SIG4_POWER; nothing is
    clamped. Otherwise k = 3 and q is the degree-12 fit SIG_POWER on |z| <=
    8, and t is clamped to [-1, 1] before any power is taken (_clamp), so
    beyond |z| = 8 the sigmoid is its value at +-8: both clamp signs come
    from one msb call on 1 - t and 1 + t, and one product with the middle
    segment's indicator clamps t and t^2.

    z carries frac_bits fractional bits (l by default); the first round
    truncates it to t at l bits and squares it. The powers of v come from
    _powers. On every domain each truncated value holds at most 2l
    fractional bits of a number below 4, so the sigmoid works on any ring
    with 2l + 4 <= 64. With truncate False the sigmoid stays at 2l
    fractional bits (1/2 at 2l bits plus the core), for the
    caller's next tmul to truncate.
    """
    l = eng.frac_bits
    odd = bound is not None and bound <= SIGMOID_ODD_BOUND
    bounded = bound is not None and bound <= SIGMOID_BOUND
    k = 1 if odd else SIGMOID_BOUND_BITS if bounded else SIGMOID_CLAMP_BITS
    coeffs = SIG4_POWER if bounded else SIG_POWER
    shift = (l if frac_bits is None else frac_bits) - l + k
    with eng.phase("sigmoid"):
        t, tt = eng.tmul(z, shift, square=True)  # z/2^k at l bits, its square at 2l
        if not bounded:
            t, tt = _clamp(eng, t, tt, magnitude_bits)
        if odd:
            core = _odd5(eng, t, tt)
        else:
            v = eng.add_public(eng.mul_public_int(tt, 2), _unit(eng, 2 * l, -1))
            powers = _powers(eng, v, l, len(coeffs) - 1)
            _, core = eng.tmul(_poly_2l(eng, powers, coeffs), l, t)
        if truncate:
            return eng.add_public(eng.trunc(core, l), _unit(eng, l - 1))
        return eng.add_public(core, _unit(eng, 2 * l - 1))


def _odd5(eng, t, u):
    """c1 t + c3 t u + c5 t u^2 at 2l bits (SIG5_ODD), from t at l bits and
    u = t^2 at 2l, in two rounds: u and c5 t are truncated while u is
    squared, then u^2 + (c3/c5) u is truncated while it multiplies c5 t."""
    l = eng.frac_bits
    c1, c3, c5 = SIG5_ODD
    c1, ratio, c5 = (to_signed(_enc(eng, c)) for c in (c1, c3 / c5, c5))
    (u, c5t), (uu,) = eng.tmul(eng.stack([u, eng.mul_public_int(t, c5)]), l, square=[0])
    _, _, core = eng.tmul([uu, eng.mul_public_int(u, ratio)], [l, l], c5t)
    return eng.add(core, eng.mul_public_int(t, c1))


def _clamp(eng, t, tt, magnitude_bits):
    """t and t^2 clamped to |t| <= 1: with the middle segment's indicator
    mid and the signs hi (t > 1) and lo (t < -1), mid t + hi - lo and mid
    t^2 + hi + lo, from one product."""
    mag = (eng.cfg.int_bits if magnitude_bits is None else magnitude_bits) - SIGMOID_CLAMP_BITS
    l, one = eng.frac_bits, _enc(eng, 1.0)
    hi, lo = eng.msb(eng.stack([eng.add_public(eng.neg(t), one), eng.add_public(t, one)]),
                     whole_leaves(_width(eng, mag)))  # t > 1, t < -1
    mid = eng.sub(eng.sub(eng.add_public(eng.zeros(np.shape(t)), np.uint64(1)), hi), lo)
    t, tt = eng.mul(mid, eng.stack([t, tt]))
    return (eng.add(t, eng.mul_public_int(eng.sub(hi, lo), 1 << l)),
            eng.add(tt, eng.mul_public_int(eng.add(hi, lo), 1 << 2 * l)))


def joint_uniform(eng, shape):
    """Jointly sampled uniforms on (0, 1]: each party contributes l local bits
    per value, the secret value is their bitwise XOR plus one ulp. Dealer
    bit words mask the bits, so the XOR is one opening of one word per value
    (MpcEngine.joint_uniform)."""
    with eng.phase("uniform"):
        return eng.joint_uniform(shape)
