"""Secure fixed-point math kernels evaluated on shares.

Division, the (reciprocal) square root and the logarithm first find the
leaf (a block of three bits, see engine.leaf_layout) that holds the
operand's top set bit with the engine's log-depth lead op, and rescale by
that leaf's power of two to a coarse mantissa m in [1/8, 1). Division then
runs fixed-count Goldschmidt iterations with one residual correction at 2l
bits, the logarithm a power-basis polynomial. The reciprocal square root
starts from a power-basis polynomial too, accurate enough (2^-9.87 in 1 -
m y0^2) that one Newton correction, applied to the products the caller
wants, finishes it; the square root is that kernel times m. Sine and
cosine need no range reduction: a half-angle polynomial covers the whole
period, and one round of pair products doubles the angle. Unit
exponentials need no normalization either: -ln U = e ln 2 - ln m, with the
exponent e from the engine's joint_geometric and ln m a fit in the
mantissa's own uniform.
Signs alone (the division's sign, the sigmoid's clamps) come from the
engine's msb op. The sigmoid is an odd polynomial: on an input with a
public bound |z| <= 4 it needs no clamp, otherwise it clamps its input to
|z| <= 8.
Every polynomial is evaluated in the power basis: the powers take one
fused truncate and multiply round (engine op tmul) per doubling, the top
ones are left at 2l bits, and the sum is local, its top powers' part a
second summand the consumer's tmul truncates. Iteration counts and
degrees are fixed, so transcripts depend only on input sizes, never on
values.

Polynomial coefficients are Chebyshev series (degree chosen so the
float-side fit error sits well below each kernel's tolerance; the fused
power chain takes j rounds to degree 2^j: 3 for degrees 5 to 8, 4 for 9
to 16), converted to the power basis at import:
  LN_CHEB:  ln(m) on m in [1/8, 1],  argument (16m - 9)/7; LN_POWER in
            powers of u = 2m - 1
  RSQRT_CHEB: 1/sqrt(m) on m in [1/8, 1] likewise (degree 8): the minimax
            fit of its relative error sqrt(m) y0 - 1 (a linear program on
            20001 points), 2^-10.87, so |1 - m y0^2| <= 2^-9.87; RSQRT_POWER
            in powers of u
  LNM_CHEB: ln((1 + u)/2) on u in [0, 1], argument x = 2u - 1 (degree 8,
            2^-24.8): the mantissa's log of an exponential (unit_exponentials)
  SIN_CHEB: sin(pi x / 2) on x in [-1, 1] (odd, degree 7)
  COS_CHEB: cos(pi x / 2) likewise (even, degree 8)
  SIG_CHEB: (sigmoid(8t) - 1/2)/t as a function of u = t^2 on [0, 1],
            argument v = 2u - 1 (degree 12): the minimax fit of the
            sigmoid's own error t (q~ - q) (a linear program on 4001 points
            of t) with its slope (q + 4 t^2 q')/8 held in [6e-5, 1/4 -
            6e-5], so it is monotone as encoded from 13 fractional bits;
            2.5e-5 in float. In SIG_POWER its constant is a multiple of
            2^-12 and its top coefficients (of v^9 .. v^12) multiples of
            2^-14, which every ring that keeps them at top_bits encodes
            exactly; from 14 fractional bits every summand of q(1) is then
            a whole ulp, its truncations are exact, and the clamped sigmoid
            beyond |z| = 8 is one value
  SIG4_CHEB: (sigmoid(4t) - 1/2)/t likewise, weighted by t (Lawson
            iterations) so the sigmoid's own error t (q~ - q) is minimax:
            1.7e-5 on |z| <= 4, where the unweighted fit has 3.3e-5
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dealer import SIGN_BLOCK
from .engine import Results, leaf_layout, whole_leaves
from .fixedpoint import encode

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
    0.9179527895841594, -0.5977974244007902, 0.26126620611988477, -0.11953016081706487,
    0.055277098182194596, -0.025626228207259967, 0.01188503832377676,
    -0.005487432351072706, 0.0025184383385319278, -0.0011549592018127441,
    0.0005137920379638672, -0.00019282102584838867, 6.514787673950195e-05,
)
SIG4_CHEB = (
    0.681443716932279, -0.24494559652438352, 0.05620327175379739,
    -0.013198595785737557, 0.0030916296948200533, -0.000705124472112535,
    0.00014117099591461153,
)
RSQRT_CHEB = (
    1.5747401897060282, -0.7764010671977427, 0.28114641742520363, -0.11251762253330802,
    0.04717902624451542, -0.020323807537239145, 0.008908622447857574,
    -0.003947496641446554, 0.001750458183973482,
)
LNM_CHEB = (
    -0.3166943676407499, 0.3431457505076198, -0.02943725152285946, 0.0033670892555644075,
    -0.0004332758886100403, 5.9470711989546305e-05, -8.502967541137037e-06,
    1.2504673620643344e-06, -1.8772799545560474e-07,
)
# the same fits in the power basis of their arguments: sum_k a[k] v^k. The
# constant of LN_POWER is pinned to ln(1/2) (a shift of 7.6e-6): one is
# m = 1/2 in its top leaf at the Box-Muller width, so ln(1) is exactly 0
# and -2 ln(u) never goes negative
LN_POWER = (-np.log(2.0),) + tuple(np.polynomial.Chebyshev(LN_CHEB, domain=[-0.75, 1.0])
                                   .convert(kind=np.polynomial.Polynomial).coef[1:])
RSQRT_POWER = tuple(np.polynomial.Chebyshev(RSQRT_CHEB, domain=[-0.75, 1.0])
                    .convert(kind=np.polynomial.Polynomial).coef)
# LNM_POWER's constant is pinned in ring integers where it is used
# (_exponentials_2l), so that ln 1 is exactly 0 there too
LNM_POWER = tuple(np.polynomial.chebyshev.cheb2poly(LNM_CHEB))
SIN_POWER = tuple(np.polynomial.chebyshev.cheb2poly(SIN_CHEB))
COS_POWER = tuple(np.polynomial.chebyshev.cheb2poly(COS_CHEB))
SIG_POWER = tuple(np.polynomial.chebyshev.cheb2poly(SIG_CHEB))
SIG4_POWER = tuple(np.polynomial.chebyshev.cheb2poly(SIG4_CHEB))
# the fits sin/cos's power chain feeds (_turn_powers)
_TURN_FITS = (SIN_POWER, COS_POWER, LNM_POWER)

# the reciprocal's start on the coarse mantissa m in [1/8, 1): 1/m ~ a - b m,
# with relative error below 0.44
RECIP_START = (5.097, 4.531)
_RECIP_STEPS = 4
# after the start (RSQRT_POWER) secure_rsqrt's correction operand 1 - m y^2
# is below 2^-RSQRT_RESIDUAL_BITS in magnitude for every mantissa m in [1/8,
# 1) on every accepted ring: rounding makes it largest on the coarsest,
# 2^-8.79 at l = 12 and 2^-9.83 at 20, where the float fit alone reaches
# 2^-9.87
RSQRT_RESIDUAL_BITS = 8
# the summands this module bounds by its encodings (a fit's top powers,
# top_bits; the mantissa log, _exponentials_2l) stay below
# 2^HIDING_FLOOR_BITS: a value opened under the truncation masks, uniform
# on [-2^62, 2^62), keeps 62 - log2 |x| bits hidden
HIDING_FLOOR_BITS = 56
# the fewest fractional bits (or l, if fewer) a fit's top coefficients may
# keep for its power chain to leave the top powers at 2l bits: at most four
# of them then add at most 2^-14 to the fit, within every kernel's bound
TOP_COEFF_BITS = 14
_MANTISSA_EXTRA = 3  # fractional bits above l on the mantissa and on div's numerator
# fractional bits above l on rsqrt's (1 - m y^2)/2, below 2^-(RSQRT_RESIDUAL_BITS + 1)
_CORRECTION_BITS = RSQRT_RESIDUAL_BITS + 1
# fractional bits above l on rsqrt's y^2 as the correction operand reads it:
# with m at l + _MANTISSA_EXTRA, m y^2 lands at 2l + _CORRECTION_BITS
_SQUARE_EXTRA = _CORRECTION_BITS - _MANTISSA_EXTRA
# fractional bits above l on rsqrt's scaled y where it multiplies times:
# its quantization, times |times|, stays below 2^-12 at times 2^9
_TIMES_EXTRA = 2
SIGMOID_CLAMP_BITS = 3  # the sigmoid clamps at |z| = 2^3
SIGMOID_BOUND_BITS = 2  # with a public bound |z| <= 2^2 it needs no clamp
SIGMOID_BOUND = 2.0 ** SIGMOID_BOUND_BITS
# the coarsest ring the clamped sigmoid runs on: below 14 fractional bits
# SIG_POWER as encoded is not monotone (its slope dips to -4.0e-4 at 12) and
# its outputs beyond the clamp take two values at 12 and 13
CLAMPED_SIGMOID_MIN_FRAC_BITS = 14
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
    "sigmoid_b4": KernelTolerance("sigmoid_b4", 3.9e-5, "|z| <= 4 under a public bound"),
    # noise.box_muller_radius: E rsqrt(E) for sqrt(E), E = -2 ln u
    "bm_radius": KernelTolerance("bm_radius", 2.0 ** -12, "E = -2 ln u, u in (0, 1] at l bits"),
}


def _enc(eng, x):
    return encode(x, eng.cfg)


def _combine_int(eng, z, weights):
    """Local weighted sum of the one-hot rows with public integer weights."""
    w = np.asarray(weights, dtype=np.int64).reshape((len(weights),) + (1,) * (z.ndim - 1))
    return eng.sum(eng.mul_public_int(z, w), axis=0)


class Powers(Results):
    """A power chain's output (_powers): v .. v^M at l fractional bits
    (low) and v^(M+1) .. v^degree at 2l (top; none where the chain
    truncated them too), each stacked on axis 0. As Results, it is what an
    eng.parallel branch may return."""

    @property
    def low(self):
        return self[0]

    @property
    def top(self):
        return self[1]

    def rows(self, idx):
        """The powers of the chain's rows idx (axis 1)."""
        return Powers((self.low[:, idx], self.top[:, idx]))


def top_bits(frac_bits: int, coeffs) -> int:
    """Fractional bits of a fit's top coefficients, those of the powers a
    chain leaves at 2l bits (_powers): 2l, or fewer where their summand
    sum_k a_k v^k, |v| <= 1, at 2l + c bits would reach 2^HIDING_FLOOR_BITS."""
    c = 2 * frac_bits
    while c > 0 and (sum(abs(int(round(float(a) * 2.0 ** c))) for a in coeffs)
                     << 2 * frac_bits) >= 1 << HIDING_FLOOR_BITS:
        c -= 1
    return c


def _powers(eng, x, shift, fits):
    """The powers of v from v at l + shift fractional bits, up to the
    degree of the longest of fits (coefficient tuples), as Powers.

    One tmul truncates v and squares it. Every later round truncates the
    powers at 2l bits and, in the same tmul, forms each new exponent up to
    the degree once: the top power v^M times v^b, b <= M, as a pair product
    with a power truncated in this round (tmul's square=(i, j)) or a
    product with one already at l bits. The powers at hand are always v ..
    v^M, and M doubles every round, so degree <= 2^j takes j rounds: degree
    - 1 products and M truncations an element, M the largest power of two
    below the degree. The chain leaves v^(M+1) .. v^degree at 2l bits for
    the consumer's tmul (_poly_2l), unless a fit's top coefficients would
    keep fewer than min(l, TOP_COEFF_BITS) bits (top_bits); then one more
    round truncates them too, degree truncations an element."""
    l = eng.frac_bits
    degree = max(map(len, fits)) - 1
    top = 1 << (degree - 1).bit_length() - 1  # M
    keep = all(top_bits(l, fit[top + 1:]) >= min(l, TOP_COEFF_BITS) for fit in fits)
    t, sq = eng.tmul(x, shift, square=True)
    low, high = {1: t}, {2: sq}  # powers at l and at 2l fractional bits
    while high:
        rows = sorted(high)
        top, at = rows[-1], len(rows) - 1
        new = range(1, min(top, degree - top) + 1)  # the exponents top + b
        if keep and not new:
            break
        ones = [b for b in new if b in low]
        pairs = [rows.index(b) for b in new if b in high]
        y = eng.stack([low[b] for b in ones]) if ones else None
        t, *prods = eng.tmul(eng.stack([high[h] for h in rows]), l, y,
                             square=(pairs, [at] * len(pairs)) if pairs else False,
                             rows=[at] * len(ones))
        low.update(zip(rows, t))
        high = dict(zip([top + b for b in ones] + [top + rows[i] for i in pairs],
                        [p for prod in prods for p in prod]))
    none = np.zeros((0,) + np.shape(low[1]), dtype=np.uint64)
    return Powers(eng.stack([v[k] for k in sorted(v)]) if v else none for v in (low, high))


def _poly_2l(eng, powers, coeffs, scale=1, total=False, extra=0, pin=False):
    """scale sum_k coeffs[k] v^k as tmul-style summands (arrays, shifts),
    the shifts taking each to l bits: over v .. v^M (Powers.low) at 2l +
    extra fractional bits, with the constant, and, where the chain left the
    top powers at 2l bits, over those at 2l + c bits, c their coefficients'
    top_bits. With total, the sum over the rows (axis 1 of the powers), as
    one row; c then keeps the sum of the rows' summands below
    2^HIDING_FLOOR_BITS. With pin, each summand gets a constant, in ring
    integers, that makes it exactly 0 at v = 1: the sum is then 0 there
    once truncated, and its constant is minus that of the coefficients as
    encoded. At v = -1 a pinned top summand reaches twice its powers' sum,
    so c is budgeted for twice their coefficients."""
    l = eng.frac_bits
    low, top = powers
    rows = 1
    if total:
        rows = low.shape[1]
        low, top = (eng.sum(p, axis=1)[:, None] for p in (low, top))
    a = np.asarray(coeffs, dtype=np.float64) * scale
    codes = [int(round(v * 2.0 ** (l + extra))) for v in a[1:len(low) + 1]]
    xs, shifts = [_combine_int(eng, low[:len(codes)], codes)], [l + extra]
    pins = [-rows * sum(codes) << l]  # minus the low summand at v = 1
    if len(a) > len(low) + 1:
        c = top_bits(l, (1 + pin) * rows * a[len(low) + 1:])
        tops = [int(round(v * 2.0 ** c)) for v in a[len(low) + 1:]]
        xs.append(_combine_int(eng, top[:len(tops)], tops))
        shifts.append(l + c)
        pins.append(-rows * sum(tops) << 2 * l)
    if not pin:  # the fit's constant, in the low summand
        pins = [int(round(a[0] * rows * 2.0 ** (2 * l + extra)))]
    for i, const in enumerate(pins):
        xs[i] = eng.add_public(xs[i], _unit(eng, 0, const))
    return xs, shifts


def _stack_rows(parts):
    """One tmul summand list from parts, (arrays, shifts) pairs of one
    summand count (as _poly_2l gives) with rows on axis 0: each summand's
    arrays concatenated, with one shift per row."""
    xs = [np.concatenate(arrays) for arrays in zip(*(p[0] for p in parts))]
    shifts = [[s for arrays, ss in parts for s in [ss[i]] * len(arrays[i])]
              for i in range(len(xs))]
    return xs, shifts


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


def _normalize(eng, a, magnitude_bits, shift=None):
    """Normalization of a > 0 whose top bit lies below width = _width - 2.

    Returns a, the one-hot z over the leaves of that width rounded up to
    whole leaves, every leaf's top T, at most width (so a = m 2^(T - l)
    with the mantissa m in [1/8, 1)), the mantissa precision p = max(2l,
    width), and the factor sum_i z_i 2^(p - T_i): a times it is m at p
    fractional bits, exactly. With shift, a is the sum of tmul-style
    summands, truncated in lead's opening round (engine lead)."""
    width = _width(eng, magnitude_bits) - 2
    prec = max(2 * eng.frac_bits, width)
    leaves = whole_leaves(width)
    tops = [min(p + SIGN_BLOCK, width) for p in leaf_layout(leaves)]
    a, z = eng.lead(a, leaves, shift)
    return a, z, tops, prec, _combine_int(eng, z, [1 << (prec - t) for t in tops])


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
        _, z, tops, prec, factor = _normalize(eng, ba[0], magnitude_bits)
        # |b|'s mantissa m and a2 = a sign(b) 2^(l - T), exact at prec bits, then
        # at l + 3: the quotient a2 / m multiplies a2's error by up to 8
        scaled = eng.mul(ba, factor)
        m, a2 = eng.trunc(scaled, prec - wide)
        y, c = _recip_mantissa(eng, m, scaled[0], prec)
        prods = eng.mul(a2, eng.stack([y, c]))  # at 2l + 3 and 3l bits
        return eng.trunc(eng.add(prods[0], eng.trunc(prods[1], l - _MANTISSA_EXTRA)), wide)


def secure_sqrt(eng, a, magnitude_bits=None):
    """sqrt(a) for a >= 0 on shares, within 2^-12 absolute on [2^-10, 2^10];
    exactly 0 at a = 0: the reciprocal square root's kernel (_rsqrt) on the
    mantissa m times m, scaled by the leaf's 2^((T - l)/2)."""
    with eng.phase("sqrt"):
        return _rsqrt(eng, _normalize(eng, a, magnitude_bits), None, True, root=True)


def rsqrt_shifts(frac_bits: int) -> list:
    """The shifts of secure_rsqrt's summands with truncate False, for the
    caller's tmul: y (or y times) as it is, the correction from
    _CORRECTION_BITS bits above it."""
    return [None, frac_bits + _CORRECTION_BITS]


def secure_rsqrt(eng, a, magnitude_bits=None, truncate=True, times=None):
    """1/sqrt(a) for a > 0 on shares, within 2^-12 absolute on [2^-10, 2^10].
    Zero is out of domain, but its result is finite. With times, an array
    at l bits of a's shape (or one at l + f bits, f <= l), the result is
    y times it, as a times rsqrt(a) = sqrt(a) where times is a (see
    _rsqrt)."""
    with eng.phase("rsqrt"):
        return _rsqrt(eng, _normalize(eng, a, magnitude_bits), times, truncate)


def _rsqrt(eng, normal, times, truncate, root=False):
    """secure_rsqrt from a's normalization (_normalize), which a caller
    may have taken in a round of its own (engine lead with shifts).

    The mantissa product gives m exact at prec bits and u = 2m - 1; the
    start y0 ~ 1/sqrt(m) is the degree-8 fit RSQRT_POWER in u, from its
    power chain (_powers, 3 rounds while the top powers stay at 2l bits).
    One tmul truncates y0 and m (to l + _MANTISSA_EXTRA bits), rows of its
    summands, while it forms y0 times the leaf's scale 2^((l - T)/2) and
    y0^2. The next truncates that scaled y to l bits (l + _TIMES_EXTRA
    where times is given) and y0^2 to l + _SQUARE_EXTRA, while it forms y
    times, where times is given, and m y0^2 (pair products with m, taken
    as it is). The last truncates (1 - m y0^2)/2 to l + _CORRECTION_BITS
    bits and the product with times to l, while it multiplies the two: the
    Newton correction y + y (1 - m y0^2)/2 applies to the products the
    caller wants, with no round of their own. The result is y (or y times)
    plus that correction truncated by l + _CORRECTION_BITS; with truncate
    False the two are returned as Results (y, correction), summands for
    the caller's next tmul to take in its round (rsqrt_shifts).

    With root, the scale is 2^((T - l)/2) and times is m itself: y m =
    sqrt(m) 2^((T - l)/2) = sqrt(a), whose quantization, unlike that of y
    a, does not grow with a (secure_sqrt)."""
    l, wide = eng.frac_bits, eng.frac_bits + _MANTISSA_EXTRA
    a, z, tops, prec, factor = normal
    m = eng.mul(a, factor)
    u = eng.add_public(eng.mul_public_int(m, 2), _unit(eng, prec, -1))
    q, shifts = _poly_2l(eng, _powers(eng, u, prec - l, (RSQRT_POWER,)), RSQRT_POWER)
    # m at wide bits as a second row of the start's summands (none of the rest)
    rest = [eng.zeros((1,) + np.shape(m))] * (len(q) - 1)
    xs, ss = _stack_rows([([x[None] for x in q], shifts),
                          ([m[None]] + rest, [prec - wide] + [None] * len(rest))])
    sign = 1 if root else -1
    scale = _combine_int(eng, z, [int(round(2 ** (l + sign * (t - l) / 2))) for t in tops])
    *t, (ys,), (yy,) = eng.tmul(xs, ss, scale, square=[0], rows=[0])
    m = functools.reduce(eng.add, t)[1]
    # y (scaled) at l bits, y0^2 at l + _SQUARE_EXTRA; with root y m, else
    # y times, and m y0^2 at 2l + _CORRECTION_BITS
    pairs = ([0, 2], [2, 1]) if root else ([2], [1])
    extra = 0 if times is None else _TIMES_EXTRA
    t, *prods = eng.tmul(eng.stack([ys, yy, m]), [l - extra, l - _SQUARE_EXTRA, None], times,
                         square=pairs, rows=[0])
    y, y_shift = t[0], None
    if root:
        y, y_shift = prods[-1][0], wide
    elif times is not None:
        y, y_shift = prods[0][0], l + extra
    e = eng.add_public(eng.neg(prods[-1][-1]), _unit(eng, 2 * l + _CORRECTION_BITS))
    # at one bit more e is (1 - m y^2)/2, truncated to l + _CORRECTION_BITS
    t, fix = eng.tmul(eng.stack([e, y]), [l + 1, y_shift], square=([0], [1]))
    if truncate:
        return eng.add(t[1], eng.trunc(fix[0], l + _CORRECTION_BITS))
    return Results((t[1], fix[0]))


def secure_ln(eng, a, magnitude_bits=None):
    """ln(a) for a > 0 on shares, within 2^-12 absolute down to one ulp."""
    l = eng.frac_bits
    with eng.phase("ln"):
        a, z, tops, prec, factor = _normalize(eng, a, magnitude_bits)
        # u = 2m - 1, exact at prec bits; the powers' first round truncates it
        u = eng.add_public(eng.mul_public_int(eng.mul(a, factor), 2), _unit(eng, prec, -1))
        q, shifts = _poly_2l(eng, _powers(eng, u, prec - l, (LN_POWER,)), LN_POWER)
        ln2 = int(_enc(eng, np.log(2.0) * 2.0 ** l))  # at 2l bits
        q[0] = eng.add(q[0], _combine_int(eng, z, [(t - l) * ln2 for t in tops]))
        return functools.reduce(eng.add, eng.tmul(q, shifts))


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
    its powers 1 .. 8 (Powers, for the fits _TURN_FITS), for turns in [0,
    1] at l + 1 fractional bits, rows on axis 0 (a value v at l bits, as it
    is, is the half turn count v/2). For a uniform u at l bits the turns 2u
    give x = 2u - 1, whose powers a unit exponential's mantissa log takes."""
    l = eng.frac_bits
    with eng.phase("sin_cos"):
        x2l = eng.add_public(eng.mul_public_int(turns, 1 << l), _unit(eng, 2 * l, -1))
        return _powers(eng, x2l, l, _TURN_FITS)


def _sin_cos_turns(eng, powers, rows=(), truncate=True):
    """(sin, cos) of 2 pi turns from the powers of x = 2 turns - 1
    (_turn_powers).

    The angle is pi x + pi, so from the half-angle fits s = sin(pi x / 2)
    and c = cos(pi x / 2), sin = -2 s c and cos = s^2 - c^2: one tmul
    truncates s and c (each fit's summands, _poly_2l) and forms s c, s^2
    and c^2 as pair products, one truncation follows. With truncate False
    sin and cos stay at 2l bits, for the caller's next tmul to truncate.

    rows: more summands of that tmul, (arrays, shifts) pairs like
    _poly_2l's with rows on axis 0, such as unit exponentials
    (_exponentials_2l); the result is then (sin, cos, their rows at l
    bits)."""
    l = eng.frac_bits
    with eng.phase("sin_cos"):
        k = powers.low.shape[1]
        halves = [_poly_2l(eng, powers, fit) for fit in (SIN_POWER, COS_POWER)]
        s, c = list(range(k)), list(range(k, 2 * k))
        *t, prods = eng.tmul(*_stack_rows(halves + list(rows)), square=(s + s + c, c + s + c))
        sc, ss, cc = prods.reshape((3, k) + prods.shape[1:])
        sin_cos = eng.stack([eng.mul_public_int(sc, -2), eng.sub(ss, cc)])
        sin, cos = eng.trunc(sin_cos, l) if truncate else sin_cos
        if not rows:
            return Results((sin, cos))
        return Results((sin, cos, functools.reduce(eng.add, t)[2 * k:]))


def _exponentials_2l(eng, e, powers, scale=1, total=False):
    """scale (e ln 2 - ln((1 + u)/2)) as tmul-style summands (_poly_2l),
    from integer exponents e and the powers of x = 2u - 1 (LNM_POWER), rows
    on axis 0 (Powers: axis 1); with total, their sum, as one row. An
    exponential is below (W + 1) ln 2 (joint_geometric), so the low
    summand takes the extra bits that keep it below 2^HIDING_FLOOR_BITS. The
    fit's constant is pinned in ring integers so that x = 1 gives exactly 0
    once truncated: so e = 0 and u = 1 give exactly 0, and no value is
    negative."""
    l = eng.frac_bits
    rows = np.shape(e)[0] if total else 1
    bound = rows * scale * (whole_leaves(l) + 1) * np.log(2.0)
    extra = int(np.clip(np.ceil(HIDING_FLOOR_BITS - 2 * l - np.log2(bound)) - 1, 0, l))
    xs, shifts = _poly_2l(eng, powers, LNM_POWER, -scale, total, extra, pin=True)
    e = eng.sum(e, axis=0)[None] if total else e
    ln2 = scale * int(round(np.log(2.0) * 2.0 ** (2 * l + extra)))
    xs[0] = eng.add(xs[0], eng.mul_public_int(e, ln2))
    return xs, shifts


def unit_exponentials(eng, e, powers):
    """-ln U = e ln 2 - ln m at l bits, Exp(1) samples cut at (W + 1) ln 2,
    from geometric exponents e on [0, W] (joint_geometric) and uniforms u
    at l bits of e's shape, given as the powers _turn_powers takes of the
    turns 2u: U = m 2^-e with m = (1 + u)/2 uniform on [1/2, 1) and
    independent of e. ln m is a degree-8 fit in x = 2u - 1, which needs no
    normalization: after the power chain, one truncation round."""
    with eng.phase("exponential"):
        return functools.reduce(eng.add, eng.tmul(*_exponentials_2l(eng, e, powers)))


def secure_sigmoid(eng, z, magnitude_bits=None, frac_bits=None, bound=None, truncate=True):
    """Logistic function on shares: 1/2 + t q(2 t^2 - 1), t = z/2^k.

    With a public bound |z| <= bound <= SIGMOID_BOUND, k = 2 and q is the
    degree-6 fit SIG4_POWER; nothing is clamped. Otherwise k = 3 and q is
    the degree-12 fit SIG_POWER on |z| <= 8, and t is clamped to [-1, 1]
    before any power is taken (_clamp), so beyond |z| = 8 the sigmoid is
    its value at +-8: both clamp signs come from one msb call on 1 - t and
    1 + t, and one product with the middle segment's indicator clamps t
    and t^2.

    z carries frac_bits fractional bits (l by default); the first round
    truncates it to t at l bits and squares it. The powers of v come from
    _powers. On every domain each truncated value holds at most 2l
    fractional bits of a number below 4, so the sigmoid works on any ring
    with 2l + 4 <= 64. With truncate False the sigmoid stays at 2l
    fractional bits (1/2 at 2l bits plus the core), for the
    caller's next tmul to truncate.
    """
    l = eng.frac_bits
    bounded = bound is not None and bound <= SIGMOID_BOUND
    k = SIGMOID_BOUND_BITS if bounded else SIGMOID_CLAMP_BITS
    coeffs = SIG4_POWER if bounded else SIG_POWER
    shift = (l if frac_bits is None else frac_bits) - l + k
    with eng.phase("sigmoid"):
        t, tt = eng.tmul(z, shift, square=True)  # z/2^k at l bits, its square at 2l
        if not bounded:
            t, tt = _clamp(eng, t, tt, magnitude_bits)
        v = eng.add_public(eng.mul_public_int(tt, 2), _unit(eng, 2 * l, -1))
        *_, core = eng.tmul(*_poly_2l(eng, _powers(eng, v, l, (coeffs,)), coeffs), t)
        if truncate:
            return eng.add_public(eng.trunc(core, l), _unit(eng, l - 1))
        return eng.add_public(core, _unit(eng, 2 * l - 1))


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
