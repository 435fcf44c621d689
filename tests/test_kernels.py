import numpy as np
import pytest
from scipy import stats

from veiltrain import kernels
from veiltrain.dealer import SIGN_BLOCK, SINGLE_BITS, MaterialSource
from veiltrain.engine import PlainEngine, estimate_counts, whole_leaves
from veiltrain.errors import Exhausted
from veiltrain.fixedpoint import RingConfig, decode, encode, to_signed
from veiltrain.noise import DpParams, perturb_weights
from veiltrain.session import PartyRuntime

from conftest import ACCEPTED_RINGS, run_both

RING = RingConfig()


def plain(seed=1, cfg=RING):
    return PlainEngine(MaterialSource(seed, cfg), cfg)


def open_plain(eng, value):
    return decode(eng.open(value), eng.cfg)


def enc_pub(eng, x):
    return eng.from_public(encode(x, eng.cfg))


# --- division ---

def test_div_one_over_one():
    eng = plain()
    got = open_plain(eng, kernels.secure_div(eng, enc_pub(eng, 1.0), enc_pub(eng, 1.0)))
    assert abs(got - 1.0) <= 2**-20 * 4


def test_div_examples():
    eng = plain()
    got = open_plain(eng, kernels.secure_div(eng, enc_pub(eng, np.array([1.0, 3.0])),
                                             enc_pub(eng, np.array([4.0, 0.5]))))
    assert np.abs(got - [0.25, 6.0]).max() <= 2**-14


def test_div_tolerance_sweep():
    rng = np.random.default_rng(2)
    n = 10_000
    b = np.exp2(rng.uniform(-8, 8, n)) * np.where(rng.random(n) < 0.5, -1, 1)
    a = rng.uniform(-1, 1, n) * 2.0**10 * b
    eng = plain(3)
    got = open_plain(eng, kernels.secure_div(eng, enc_pub(eng, a), enc_pub(eng, b)))
    want = decode(encode(a, RING), RING) / decode(encode(b, RING), RING)
    assert np.abs(got - want).max() <= 2**-14


def _boundaries(lowest, highest):
    """Raw ring values 2^k and 2^k - 1 for lowest <= k <= highest: the edges
    of every leaf lead can select, whatever the width's layout."""
    ks = np.arange(lowest, highest + 1)
    return np.concatenate([2.0 ** ks, 2.0 ** ks - 1]) / 2.0 ** RING.frac_bits


def test_div_edges_up_to_the_top_of_its_domain():
    # |b| from 2^-18 to just below 2^23, leaf edges included, both signs; the
    # mantissa is exact at 43 bits, so b >= 2^20 no longer reads as 0
    b = _boundaries(2, 43)
    b = np.concatenate([b[b < 2.0 ** 23], [2.0 ** 23 - 2.0 ** -20, 2.0 ** 20, 2.0 ** 22.9]])
    b = np.concatenate([b, -b])
    q = np.random.default_rng(30).uniform(-2.0 ** 10, 2.0 ** 10, len(b))
    eng = plain(31)
    got = open_plain(eng, kernels.secure_div(eng, enc_pub(eng, q * b), enc_pub(eng, b)))
    want = decode(encode(q * b, RING), RING) / decode(encode(b, RING), RING)
    assert np.abs(got - want).max() <= 2**-14


# --- square root ---

def test_sqrt_examples():
    eng = plain(4)
    got = open_plain(eng, kernels.secure_sqrt(
        eng, enc_pub(eng, np.array([4.0, 2.0, 1e-3]))))
    want = np.sqrt(decode(encode(np.array([4.0, 2.0, 1e-3]), RING), RING))
    assert np.abs(got - want).max() <= 2**-12


def test_sqrt_tolerance_sweep():
    rng = np.random.default_rng(5)
    x = np.exp2(rng.uniform(-10, 10, 10_000))
    eng = plain(6)
    got = open_plain(eng, kernels.secure_sqrt(eng, enc_pub(eng, x)))
    assert np.abs(got - np.sqrt(decode(encode(x, RING), RING))).max() <= 2**-12


def test_sqrt_edges_up_to_the_top_of_its_domain():
    x = _boundaries(10, 30)
    x = np.concatenate([x[x >= 2.0 ** -10], [2.0 ** 10, 0.0]])
    eng = plain(32)
    got = open_plain(eng, kernels.secure_sqrt(eng, enc_pub(eng, x)))
    assert np.abs(got - np.sqrt(decode(encode(x, RING), RING))).max() <= 2**-12
    assert got[-1] == 0.0


# --- reciprocal square root ---

def test_rsqrt_tolerance_sweep_and_edges():
    x = np.concatenate([np.exp2(np.random.default_rng(35).uniform(-10, 10, 5000)),
                        _boundaries(10, 30)])
    x = x[(x >= 2.0 ** -10) & (x <= 2.0 ** 10)]
    eng = plain(36)
    got = open_plain(eng, kernels.secure_rsqrt(eng, enc_pub(eng, x)))
    want = 1 / np.sqrt(decode(encode(x, RING), RING))
    assert np.abs(got - want).max() <= kernels.KERNEL_TOLERANCES["rsqrt"].bound


@pytest.mark.parametrize("truncate, pairs", [(True, 11), (False, 10)])
def test_rsqrt_material_per_element_is_pinned(truncate, pairs):
    # the dealer material rsqrt takes per element. After the lead and the
    # mantissa product the start's power chain takes 7 triples and 4 pairs,
    # the start's sum 2 pairs and m's truncation beside it 1; y0 times the
    # scale and y0^2 take 2 triples, then the scaled y and y0^2 2 pairs, m
    # y0^2 a triple, and the correction a triple and a pair, with one more
    # pair for its last truncation unless the caller's tmul takes it (89
    # triples and 12 pairs with the quadratic start and two Goldschmidt steps)
    x = np.exp2(np.linspace(-9, 9, 100))
    counts = estimate_counts(
        lambda eng: kernels.secure_rsqrt(eng, enc_pub(eng, x), truncate=truncate), 49, RING)
    assert counts[("triple",)] == 88 * len(x)
    assert sum(v for k, v in counts.items() if k[0] == "trunc") == pairs * len(x)


def test_rsqrt_applies_its_correction_to_the_products_it_is_given():
    # with times, rsqrt forms y times in the round that truncates y and
    # corrects that product, as E rsqrt(E) = sqrt(E) where times is E: one
    # triple and one pair an element more than rsqrt alone, what the
    # caller's own product and its truncation would take, in no round of
    # their own. The parties match the mirror
    x = np.exp2(np.linspace(-9, 9, 100))

    def fn(eng, truncate=True):
        a = enc_pub(eng, x)
        return kernels.secure_rsqrt(eng, a, truncate=truncate, times=a)

    for truncate, pairs in ((True, 12), (False, 11)):
        counts = estimate_counts(lambda eng: fn(eng, truncate), 49, RING)
        assert counts[("triple",)] == 89 * len(x)
        assert sum(v for k, v in counts.items() if k[0] == "trunc") == pairs * len(x)
    (r0, r1), engines = run_both(lambda eng: eng.open(fn(eng)), seed=50)
    assert np.array_equal(r0, fn(plain(50))) and np.array_equal(r1, r0)
    got = decode(r0, RING)
    assert np.abs(got - np.sqrt(decode(encode(x, RING), RING))).max() <= 2.0 ** -12
    _, alone = run_both(lambda eng: eng.open(kernels.secure_rsqrt(eng, enc_pub(eng, x))), seed=50)
    assert engines[0].rt.transcript.n_rounds == alone[0].rt.transcript.n_rounds


def test_rsqrt_matches_mirror_bit_exact():
    x = np.exp2(np.linspace(-9, 9, 37))

    def fn(eng):
        return eng.open(kernels.secure_rsqrt(eng, enc_pub(eng, x)))

    (r0, r1), _ = run_both(fn, seed=37)
    mirror = fn(plain(37))
    assert np.array_equal(r0, mirror) and np.array_equal(r1, mirror)


def test_rsqrt_start_and_steps_on_the_mantissa_range():
    # the degree-8 start y0 = RSQRT_POWER in u = 2m - 1, in floats: its
    # residual 1 - m y0^2 on [1/8, 1) (2^-9.87), then after the one Newton
    # step y <- y (3 - m y^2)/2 that secure_rsqrt applies
    m = np.linspace(1 / 8, 1, 1_000_001, endpoint=False)
    y = np.polynomial.polynomial.polyval(2 * m - 1, kernels.RSQRT_POWER)
    assert np.abs(1 - m * y * y).max() <= 2.0 ** -9.85
    y = y * (3 - m * y * y) / 2
    assert np.abs(1 - m * y * y).max() < 2.0 ** -19


def test_rsqrt_correction_operand_stays_within_its_bound():
    # secure_rsqrt's Newton correction truncates 1 - m y0^2, at 2l +
    # _CORRECTION_BITS fractional bits, by l + 1: (1 - m y0^2)/2 at l +
    # _CORRECTION_BITS bits keeps l significant bits while the residual is
    # below 2^-RSQRT_RESIDUAL_BITS. The inputs M 2^(T - l - 3), T the top
    # of the leaf holding bit l + 2, have the mantissas M 2^-(l + 3): every
    # one on rings up to 14 bits, about 2^16 spread over [1/8, 1) on finer
    # ones. No other truncation of rsqrt has the shift l + 1
    worst = {}
    for l in ACCEPTED_RINGS:
        ring = RingConfig(l)
        wide = l + kernels._MANTISSA_EXTRA
        grid = np.arange(1 << l, 8 << l, max(1, (7 << l) >> 16), dtype=np.uint64)
        top = -(-wide // SIGN_BLOCK) * SIGN_BLOCK
        eng = _PeakEngine(MaterialSource(53, ring), ring)
        kernels.secure_rsqrt(eng, eng.from_public(grid << np.uint64(top - wide)))
        worst[l] = eng.peaks[l + 1] * 2.0 ** -(2 * l + kernels._CORRECTION_BITS)
        assert worst[l] < 2.0 ** -kernels.RSQRT_RESIDUAL_BITS, l
    # rounding makes it largest on the coarsest ring, within a bit of the bound
    assert worst[12] >= 2.0 ** -(kernels.RSQRT_RESIDUAL_BITS + 1)


# --- natural log ---

def test_ln_examples():
    eng = plain(7)
    x = np.array([1.0, 0.5, np.e])
    got = open_plain(eng, kernels.secure_ln(eng, enc_pub(eng, x)))
    want = np.log(decode(encode(x, RING), RING))
    assert np.abs(got - want).max() <= 2**-12


def test_ln_tolerance_sweep():
    rng = np.random.default_rng(8)
    x = np.exp2(rng.uniform(-RING.frac_bits + 0.01, 10, 10_000))
    eng = plain(9)
    got = open_plain(eng, kernels.secure_ln(eng, enc_pub(eng, x)))
    assert np.abs(got - np.log(decode(encode(x, RING), RING))).max() <= 2**-12


@pytest.mark.parametrize("magnitude_bits", [None, 1])
def test_ln_edges_up_to_the_top_of_its_domain(magnitude_bits):
    top = 10 if magnitude_bits is None else 0  # the Box-Muller width ends at 1
    x = _boundaries(1, RING.frac_bits + top)
    x = x[(x > 0) & (x <= 2.0 ** top)]
    eng = plain(33)
    got = open_plain(eng, kernels.secure_ln(eng, enc_pub(eng, x), magnitude_bits))
    assert np.abs(got - np.log(decode(encode(x, RING), RING))).max() <= 2**-12


def test_ln_of_one_is_exactly_zero_at_the_box_muller_width():
    # -2 ln(u) feeds the square root, which must not see a negative value
    eng = plain(34)
    got = eng.open(kernels.secure_ln(eng, enc_pub(eng, np.ones(500)), magnitude_bits=1))
    assert not got.any()


# --- power chain ---

def _small_fit(degree):
    """A fit of the given degree whose one top coefficient keeps the chain's
    top powers at 2l bits (kernels.top_bits)."""
    return (0.0,) * degree + (2.0 ** -8,)


def _power_chain(v, degree, fit=None):
    """kernels._powers of v, given exactly at 2l bits (shift l), for a fit
    of the degree (_small_fit by default), opened in one round: the powers
    at l bits, then those at 2l."""
    l = RING.frac_bits

    def fn(eng):
        x = eng.mul_public_int(eng.from_public(encode(v, RING)), 1 << l)
        powers = kernels._powers(eng, x, l, (fit or _small_fit(degree),))
        return eng.open(np.concatenate(powers)), len(powers.low)

    return fn


def _power_values(opened):
    """The float powers from _power_chain's opening."""
    raw, low = opened
    top = to_signed(raw[low:]).astype(np.float64) * 2.0 ** (-2 * RING.frac_bits)
    return np.concatenate([decode(raw[:low], RING), top])


@pytest.mark.parametrize("degree", range(2, 17))
def test_power_chain_doubles_its_top_exponent_every_round(degree):
    # degree <= 2^j takes j rounds, degree - 1 products and M truncations
    # an element, M the largest power of two below the degree: the chain
    # leaves v^(M+1) .. v^degree at 2l bits. The parties match the mirror
    # bit for bit
    v = np.random.default_rng(degree).uniform(-1, 1, 50)
    fn = _power_chain(v, degree)
    top = 1 << (degree - 1).bit_length() - 1
    counts = estimate_counts(fn, 60, RING)
    assert counts == {("triple",): (degree - 1) * v.size, ("trunc", RING.frac_bits): top * v.size}
    (r0, r1), engines = run_both(fn, seed=60, counts=counts)
    mirror = fn(plain(60))
    assert mirror[1] == top and mirror[0].shape == (degree, v.size)
    assert np.array_equal(r0[0], mirror[0]) and np.array_equal(r1[0], mirror[0])
    for eng in engines:  # the chain's rounds and the opening's
        assert eng.rt.transcript.n_rounds == (degree - 1).bit_length() + 1
        assert {k: n for k, n in eng.material.pos.items() if isinstance(k, tuple)} == counts


@pytest.mark.parametrize("frac_bits", [12, 20, 22])
def test_power_chain_truncates_the_top_powers_a_fit_would_outgrow(frac_bits):
    # where a fit's top coefficients, kept below 2^56 at 2l + c bits, would
    # keep fewer than min(l, 14) bits, one more round truncates the top
    # powers as well: degree truncations an element. Of the kernels' fits
    # only the degree-12 ones (ln, the clamped sigmoid) do so, at 22 bits
    ring, l = RingConfig(frac_bits), frac_bits
    keeps = {name: kernels.top_bits(l, fit[9 if len(fit) > 9 else 5:]) >= min(l, 14)
             for name, fit in (("ln", kernels.LN_POWER), ("sigmoid", kernels.SIG_POWER),
                               ("sigmoid_b4", kernels.SIG4_POWER))}
    keeps["sin_cos"] = all(kernels.top_bits(l, fit[5:]) >= min(l, 14)
                           for fit in kernels._TURN_FITS)
    assert keeps == {"ln": l < 22, "sigmoid": l < 22, "sigmoid_b4": True, "sin_cos": True}
    v = np.random.default_rng(63).uniform(-1, 1, 40)

    def fn(eng):
        x = eng.mul_public_int(eng.from_public(encode(v, ring)), 1 << l)
        powers = kernels._powers(eng, x, l, (kernels.LN_POWER,))
        return eng.open(np.concatenate(powers)), len(powers.low)

    counts = estimate_counts(fn, 64, ring)
    truncations = 12 if l == 22 else 8
    assert counts[("trunc", l)] == truncations * v.size
    (r0, _), engines = run_both(fn, seed=64, cfg=ring, counts=counts)
    assert r0[1] == truncations and np.array_equal(r0[0], fn(plain(64, ring))[0])
    assert engines[0].rt.transcript.n_rounds == 4 + (l == 22) + 1


def test_power_chain_values_against_float_powers():
    # each power at l bits is a product of two truncated ones, truncated:
    # on |v| <= 1/2 within 2 ulps of the float power of v, and on [-1, 1]
    # v^k within k - 1 ulps (the errors of v^M and v^b add, plus the
    # truncation's); the top powers, left at 2l bits, within k - 2
    v = np.concatenate([np.random.default_rng(61).uniform(-1, 1, 20_000), [-1, 1, 0.5, -0.5]])
    v = decode(encode(v, RING), RING)
    got = _power_values(_power_chain(v, 16)(plain(62)))
    k = np.arange(1, 17)[:, None]
    err = np.abs(got - v ** k) * 2.0 ** RING.frac_bits
    assert np.all(err <= np.maximum(k - 1 - (k > 8), 0))
    assert err[:, np.abs(v) <= 0.5].max() <= 2


# --- sine / cosine ---

def test_sincos_quarter_points():
    # 0, pi and 2 pi are x = -1, 0 and 1, the ends and middle of the half-angle fit
    eng = plain(10)
    th = np.array([0.0, np.pi / 2, np.pi / 4, np.pi, 3 * np.pi / 2, 2 * np.pi])
    s, c = kernels.secure_sin_cos(eng, enc_pub(eng, th))
    r = np.sqrt(0.5)
    assert np.abs(decode(eng.open(s), RING) - [0, 1, r, 0, -1, 0]).max() <= 2**-12
    assert np.abs(decode(eng.open(c), RING) - [1, 0, r, -1, 0, 1]).max() <= 2**-12


def test_sin_cos_turns_at_the_ends_of_the_fit():
    # turns 0, 1/2 and 1 at l + 1 bits (x = -1, 0, 1), and the half-angle
    # rows noise.sample_noise gives: v at l bits as it is, the turns v/2
    l = RING.frac_bits
    halves = encode(np.array([1.0, 0.5]), RING)  # half a turn and a quarter
    turns = np.concatenate([np.array([0, 1 << l, 2 << l], dtype=np.uint64), halves])
    eng = plain(49)
    s, c = kernels._sin_cos_turns(eng, kernels._turn_powers(eng, eng.from_public(turns)))
    assert np.abs(decode(eng.open(s), RING) - [0, 0, 0, 0, 1]).max() <= 2**-12
    assert np.abs(decode(eng.open(c), RING) - [1, -1, 1, -1, 0]).max() <= 2**-12


@pytest.mark.parametrize("frac_bits", [12, 20, 22])
def test_sin_cos_turns_truncates_two_fits_and_takes_three_pair_products_an_angle(frac_bits):
    # sin = -2 s c and cos = s^2 - c^2: one tmul truncates the two
    # half-angle fits' summands (at 2l, and the top powers' at 2l + c, c
    # their top_bits) and forms s c, s^2 and c^2, then sin and cos are
    # truncated; a dry run after the power chain spends just that
    ring, l, n = RingConfig(frac_bits), frac_bits, 7
    eng = plain(50, ring)
    powers = kernels._turn_powers(eng, eng.from_public(np.arange(n, dtype=np.uint64) << l - 2))
    before = dict(eng.pos)
    kernels._sin_cos_turns(eng, powers)
    spent = {k: v - before.get(k, 0) for k, v in eng.pos.items() if v != before.get(k, 0)}
    want = {("triple",): 3 * n, ("trunc", l): 4 * n}
    for fit in (kernels.SIN_POWER, kernels.COS_POWER):
        top = ("trunc", l + kernels.top_bits(l, fit[len(powers.low) + 1:]))
        want[top] = want.get(top, 0) + n
    assert spent == want


def test_sincos_tolerance_sweep_and_pythagoras():
    rng = np.random.default_rng(11)
    th = rng.uniform(0, 2 * np.pi, 10_000)
    eng = plain(12)
    s, c = kernels.secure_sin_cos(eng, enc_pub(eng, th))
    sv, cv = decode(eng.open(s), RING), decode(eng.open(c), RING)
    # reference at the angle the kernel actually sees after fixed-point steps
    turns = 2 ** (RING.frac_bits + 1)  # secure_sin_cos rounds the turns to 2^-(l + 1)
    v = np.round(decode(encode(th, RING), RING) / (2 * np.pi) * turns) / turns
    assert np.abs(sv - np.sin(2 * np.pi * v)).max() <= 2**-12
    assert np.abs(cv - np.cos(2 * np.pi * v)).max() <= 2**-12
    assert np.abs(sv**2 + cv**2 - 1).max() <= 2**-10


# --- sigmoid ---

def test_sigmoid_examples():
    eng = plain(13)
    z = np.array([0.0, 2.0])
    got = open_plain(eng, kernels.secure_sigmoid(eng, enc_pub(eng, z)))
    assert abs(got[0] - 0.5) <= 1e-3
    assert abs(got[1] - 1 / (1 + np.exp(-2))) <= 1e-3


def test_sigmoid_symmetry():
    rng = np.random.default_rng(14)
    z = rng.uniform(-8, 8, 2000)
    eng = plain(15)
    a = open_plain(eng, kernels.secure_sigmoid(eng, enc_pub(eng, z)))
    b = open_plain(eng, kernels.secure_sigmoid(eng, enc_pub(eng, -z)))
    assert np.abs(a + b - 1).max() <= 2e-3


def test_sigmoid_tolerance_and_clamp():
    rng = np.random.default_rng(16)
    z = rng.uniform(-20, 20, 10_000)
    eng = plain(17)
    got = open_plain(eng, kernels.secure_sigmoid(eng, enc_pub(eng, z)))
    want = np.where(z < -8, 0.0, np.where(z > 8, 1.0, 1 / (1 + np.exp(-z))))
    assert np.abs(got - want).max() <= 1e-3
    big = np.array([9.0, 500.0, -9.0, -500.0, 8.0, -8.0])
    got = open_plain(eng, kernels.secure_sigmoid(eng, enc_pub(eng, big)))
    assert np.array_equal(got[:4], got[[4, 4, 5, 5]])  # the input clamps: no jump at |z| = 8


@pytest.mark.parametrize("frac_bits", range(14, 23))
def test_clamped_sigmoid_is_one_value_beyond_the_clamp(frac_bits):
    # from 14 fractional bits every summand of q(1) is a whole ulp
    # (kernels.SIG_CHEB), so its truncations at the clamped input are exact
    # and no mask's carry moves an output
    eng = plain(17, RingConfig(frac_bits))
    big = np.repeat([8.0, 9.0, 500.0], 100)
    got = open_plain(eng, kernels.secure_sigmoid(eng, enc_pub(eng, np.concatenate([big, -big]))))
    assert len(set(got[:300])) == len(set(got[300:])) == 1


def _ring_id(value):
    """Names a ring parameter as the ring, width-fractional bits: 64-24."""
    return f"{RingConfig.lam}-{value}" if isinstance(value, int) else None


@pytest.mark.parametrize("frac_bits", [24, 30], ids=_ring_id)
def test_sigmoid_tolerance_on_other_rings(frac_bits):
    # every product keeps at most 2l fractional bits, so the sigmoid holds
    # its tolerance up to the ring's headroom limit 2l + 4 = 64
    ring = RingConfig(frac_bits)
    reach = min(20.0, 2.0 ** ring.int_bits)  # what the sign width covers
    z = np.random.default_rng(25).uniform(-reach, reach, 4000)
    eng = plain(26, ring)
    got = open_plain(eng, kernels.secure_sigmoid(eng, enc_pub(eng, z)))
    want = np.where(z < -8, 0.0, np.where(z > 8, 1.0, 1 / (1 + np.exp(-z))))
    assert np.abs(got - want).max() <= 1e-3


def test_sigmoid_matches_mirror_on_a_finer_ring():
    ring = RingConfig(frac_bits=24)
    z = np.linspace(-10, 10, 41)

    def fn(eng):
        return eng.open(kernels.secure_sigmoid(eng, enc_pub(eng, z)))

    (r0, r1), _ = run_both(fn, seed=27, cfg=ring)
    mirror = fn(plain(27, ring))
    assert np.array_equal(r0, mirror) and np.array_equal(r1, mirror)
    assert np.abs(decode(mirror, ring) - 1 / (1 + np.exp(-np.clip(z, -8, 8)))
                  * (np.abs(z) <= 8) - (z > 8)).max() <= 1e-3


# --- sigmoid under a public bound |z| <= 4 ---

def test_bounded_sigmoid_tolerance():
    z = np.concatenate([np.random.default_rng(42).uniform(-4, 4, 10_000),
                        np.linspace(-4, 4, 1001)])
    eng = plain(43)
    got = open_plain(eng, kernels.secure_sigmoid(eng, enc_pub(eng, z), bound=4.0))
    want = 1 / (1 + np.exp(-decode(encode(z, RING), RING)))
    assert np.abs(got - want).max() <= kernels.KERNEL_TOLERANCES["sigmoid_b4"].bound


@pytest.mark.parametrize("frac_bits, bound", [(24, 3.9e-5), (30, 3.9e-5)], ids=_ring_id)
def test_bounded_sigmoid_tolerance_on_other_rings(frac_bits, bound):
    ring = RingConfig(frac_bits)
    z = np.random.default_rng(44).uniform(-4, 4, 4000)
    eng = plain(45, ring)
    got = open_plain(eng, kernels.secure_sigmoid(eng, enc_pub(eng, z), bound=4.0))
    assert np.abs(got - 1 / (1 + np.exp(-decode(encode(z, ring), ring)))).max() <= bound


def test_bounded_sigmoid_matches_mirror_in_half_the_rounds():
    z = np.linspace(-4, 4, 41)

    def fn(bound):
        return lambda eng: eng.open(kernels.secure_sigmoid(eng, enc_pub(eng, z), bound=bound))

    (r0, r1), engines = run_both(fn(4.0), seed=46)
    mirror = fn(4.0)(plain(46))
    assert np.array_equal(r0, mirror) and np.array_equal(r1, mirror)
    _, clamped = run_both(fn(4.01), seed=46)  # above 4 the clamped kernel runs
    assert engines[0].rt.transcript.n_rounds == 6 + 1  # the last one opens the result
    assert clamped[0].rt.transcript.n_rounds == 13 + 1


# --- other rings and mask headroom ---

# 22 is the finest ring ring_from_config accepts; at 24 the division's
# two-party error is 3.9e-3, above its bound
@pytest.mark.parametrize("frac_bits", [16, 22])
def test_div_sqrt_ln_tolerance_on_other_rings(frac_bits):
    ring = RingConfig(frac_bits)
    rng = np.random.default_rng(38)
    n = 2000
    eng = plain(39, ring)

    def run(fn, *args):
        return decode(eng.open(fn(eng, *(eng.from_public(encode(a, ring)) for a in args))), ring)

    def exact(x):
        return decode(encode(x, ring), ring)

    b = np.exp2(rng.uniform(-8, 8, n)) * np.where(rng.random(n) < 0.5, -1, 1)
    a = rng.uniform(-1, 1, n) * 2.0 ** 10 * b
    x = np.exp2(rng.uniform(-10, 10, n))
    lx = np.exp2(rng.uniform(-frac_bits + 0.01, 10, n))
    errs = {"div": np.abs(run(kernels.secure_div, a, b) - exact(a) / exact(b)).max(),
            "sqrt": np.abs(run(kernels.secure_sqrt, x) - np.sqrt(exact(x))).max(),
            "rsqrt": np.abs(run(kernels.secure_rsqrt, x) - 1 / np.sqrt(exact(x))).max(),
            "ln": np.abs(run(kernels.secure_ln, lx) - np.log(exact(lx))).max()}
    for name, err in errs.items():
        assert err <= kernels.KERNEL_TOLERANCES[name].bound, (name, err)


@pytest.mark.parametrize("frac_bits", [16, 24])
def test_sincos_tolerance_on_other_rings(frac_bits):
    ring = RingConfig(frac_bits)
    th = np.random.default_rng(47).uniform(0, 2 * np.pi, 2000)
    eng = plain(48, ring)
    s, c = kernels.secure_sin_cos(eng, eng.from_public(encode(th, ring)))
    exact = decode(encode(th, ring), ring)
    tol = kernels.KERNEL_TOLERANCES
    assert np.abs(decode(eng.open(s), ring) - np.sin(exact)).max() <= tol["sin"].bound
    assert np.abs(decode(eng.open(c), ring) - np.cos(exact)).max() <= tol["cos"].bound


class _PeakEngine(PlainEngine):
    """The mirror, recording the largest |value| it truncates, tmul's
    inputs included. Truncation masks are uniform on [-2^62, 2^62), so only
    values below 2^62 stay hidden by the masked opening."""

    def __init__(self, *args):
        super().__init__(*args)
        self.peaks = {}  # the largest |value| truncated, by shift

    @property
    def peak(self):
        return max(self.peaks.values(), default=0.0)

    def trunc(self, a, shift):
        if np.size(a):
            top = float(np.abs(to_signed(a).astype(np.float64)).max())
            self.peaks[shift] = max(self.peaks.get(shift, 0.0), top)
        return super().trunc(a, shift)


def test_every_truncated_value_stays_below_the_mask_range():
    from veiltrain.datasets import synth_data
    from veiltrain.training import (ModelState, TrainingConfig, forward, l2_normalize, mean_bits,
                                    train_pipeline)

    def peak(fn):
        eng = _PeakEngine(MaterialSource(40, RING), RING)
        fn(eng)
        return eng.peak

    limit = 2.0 ** 62
    z = np.concatenate([2.0 ** np.arange(12), -2.0 ** np.arange(12), [0.0, 8.0, -8.0]])
    assert peak(lambda e: kernels.secure_sigmoid(e, enc_pub(e, z))) < limit
    X = np.eye(len(z))  # X w = z through the forward pass, weights at 2l bits

    def fwd(e):
        w2l = e.mul_public_int(enc_pub(e, z), 1 << e.frac_bits)
        return forward(e, enc_pub(e, X), ModelState(w2l, e.zeros(len(z)), e.frac_bits))

    assert peak(fwd) < limit
    z4 = np.concatenate([np.linspace(-4, 4, 33), [4.0, -4.0]])  # the bounded path's domain
    assert peak(lambda e: kernels.secure_sigmoid(e, enc_pub(e, z4), bound=4.0)) < limit

    def fwd4(e):
        w2l = e.mul_public_int(enc_pub(e, z4), 1 << e.frac_bits)
        return forward(e, enc_pub(e, np.eye(len(z4))),
                       ModelState(w2l, e.zeros(len(z4)), e.frac_bits), 4.0)

    assert peak(fwd4) < limit
    # training's other truncation operands, in the mirror: the error at 2l
    # bits (backward), and the weights at 2l bits summed with the pending
    # gradient alpha 2^q g at 2l bits (forward, finalize); identical rows
    # and constant labels drive the error and the gradient
    n, m = 40, 6
    X, _ = synth_data(n, m, seed=42, separability=1.0)
    aligned = np.tile(np.random.default_rng(43).uniform(-1, 1, m), (n, 1))
    for data in (X, aligned, -aligned):
        for t in (np.zeros(n), np.ones(n)):
            for lam, bias in ((1.0, False), (1.0, True), (0.1, False)):
                tc = TrainingConfig(lambda_reg=lam, add_bias=bias)
                eng = _PeakEngine(MaterialSource(40, RING), RING)
                train_pipeline(eng, eng.from_public(l2_normalize(data, RING)), enc_pub(eng, t), tc)
                assert eng.peak < limit
                assert RING.frac_bits + mean_bits(n, tc.alpha) in eng.peaks
    b = np.concatenate([_boundaries(2, 42), [2.0 ** 23 - 2.0 ** -20]])
    b = np.concatenate([b, -b])
    q = np.random.default_rng(41).uniform(-2.0 ** 10, 2.0 ** 10, len(b))
    assert peak(lambda e: kernels.secure_div(e, enc_pub(e, q * b), enc_pub(e, b))) < limit
    x = _boundaries(10, 30)
    x = x[(x >= 2.0 ** -10) & (x <= 2.0 ** 10)]
    assert peak(lambda e: kernels.secure_sqrt(e, enc_pub(e, x))) < limit
    assert peak(lambda e: kernels.secure_rsqrt(e, enc_pub(e, x))) < limit
    lx = _boundaries(1, 30)
    lx = lx[(lx > 0) & (lx <= 2.0 ** 10)]
    assert peak(lambda e: kernels.secure_ln(e, enc_pub(e, lx))) < limit
    assert peak(lambda e: kernels.secure_ln(e, enc_pub(e, lx[lx <= 1]), 1)) < limit
    # the perturbation's chain: c = 2^-30, 2e-6, 1e-3 and 10, the last at n = 2, epsilon 0.1
    for d in (3, 12, 50, 1874):
        for n, eps in ((2, 2.0 ** 30), (10 ** 6, 1.0), (2000, 1.0), (2, 0.1)):
            dp = DpParams(epsilon=eps, lambda_reg=1.0, n=n, d=d)
            assert peak(lambda e: perturb_weights(e, e.zeros(d), dp, batch=(8,))) < limit


# --- joint uniforms ---

def test_uniform_small_ring_enumeration():
    ring = RingConfig(frac_bits=2)
    eng = PlainEngine(MaterialSource(18, ring), ring)
    u = decode(eng.open(kernels.joint_uniform(eng, (2000,))), ring)
    assert set(np.unique(u)) == {0.25, 0.5, 0.75, 1.0}


def test_uniform_mean():
    eng = plain(19)
    u = open_plain(eng, kernels.joint_uniform(eng, (10_000,)))
    assert abs(u.mean() - (0.5 + 2.0**-(RING.frac_bits + 1))) <= 0.02


def test_uniform_autocorrelation():
    eng = plain(20)
    u = open_plain(eng, kernels.joint_uniform(eng, (10_000,)))
    x = u - u.mean()
    rho = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
    assert abs(rho) < 0.05


def test_uniform_ks():
    eng = plain(21)
    u = open_plain(eng, kernels.joint_uniform(eng, (10_000,)))
    assert stats.kstest(u, stats.uniform.cdf).statistic < 0.02


def _uniform_openings(monkeypatch, n, seed):
    """Run joint_uniform on n values on both parties; returns the words each
    party sent, its share of the values and its engine."""
    sent = {0: [], 1: []}
    exchange = PartyRuntime.exchange

    def tap(rt, payload):
        sent[rt.party_id].append(np.array(payload, dtype=np.uint64))
        return exchange(rt, payload)

    monkeypatch.setattr(PartyRuntime, "exchange", tap)
    shares, engines = run_both(lambda e: kernels.joint_uniform(e, (n,)), seed=seed)
    return sent, shares, engines


def _local_bits(seed, party, n):
    return MaterialSource(seed, RING).party_bit_stream(party, 0, n, RING.frac_bits)


def test_uniform_opening_sends_one_masked_word_per_uniform(monkeypatch):
    n, l, seed = 10_000, RING.frac_bits, 32
    sent, (s0, s1), engines = _uniform_openings(monkeypatch, n, seed)
    with np.errstate(over="ignore"):
        assert np.array_equal(s0 + s1, kernels.joint_uniform(plain(seed), (n,)))
    se = np.sqrt(0.25 / n)
    for party in (0, 1):
        assert engines[party].rt.transcript.n_rounds == 1
        [words] = sent[party]
        assert words.shape == (n,)
        assert not np.any(words >> np.uint64(l))  # no bit at or above l
        # the dealer's bits mask the party's own: the peer never receives them
        own = _local_bits(seed, party, n)
        assert np.count_nonzero(words == own) <= n * 2.0 ** -l * 4
        freq = ((words[:, None] >> np.arange(l, dtype=np.uint64)) & np.uint64(1)).mean(axis=0)
        assert np.all(np.abs(freq - 0.5) <= 4 * se)


def test_uniform_spends_bit_words_only():
    # one single bit ("bit", 1) per jointly sampled bit, and no block words:
    # n uniforms of l bits take l n words, in takes that cross a uniform
    n, l = 10_001, RING.frac_bits
    want = {SINGLE_BITS: l * n}

    def fn(eng):
        return kernels.joint_uniform(eng, (n,))

    assert dict(estimate_counts(fn, 33, RING)) == want
    _, engines = run_both(fn, seed=33)
    for eng in engines:
        assert {k: v for k, v in eng.material.pos.items() if isinstance(k, tuple)} == want


# --- joint geometric exponents ---

FRAME_BYTES = 13  # length, kind, session and round fields of one round's frame


def _leading_zeros(seed, ring, n):
    """The count of leading zeros, top bit first, of each of the n values
    of whole_leaves bits that both parties' bit streams XOR to; the
    width where all are zero."""
    width, src = whole_leaves(ring.frac_bits), MaterialSource(seed, ring)
    words = src.party_bit_stream(0, 0, n, width) ^ src.party_bit_stream(1, 0, n, width)
    top_first = (words[:, None] >> np.arange(width, dtype=np.uint64)[::-1]) & np.uint64(1)
    return np.where(top_first.any(axis=1), top_first.argmax(axis=1), width)


@pytest.mark.parametrize("frac_bits, width", [(12, 12), (20, 21), (22, 24)])
def test_geometric_counts_the_leading_zeros_of_the_joint_bits(frac_bits, width):
    ring = RingConfig(frac_bits)
    assert whole_leaves(frac_bits) == width
    e = plain(34, ring).joint_geometric((2, 10_000))
    assert np.array_equal(e.ravel(), _leading_zeros(34, ring, 20_000))


@pytest.mark.parametrize("frac_bits", [12, 20])
def test_geometric_matches_its_mirror(frac_bits):
    ring = RingConfig(frac_bits)

    def fn(eng):
        return eng.open(eng.joint_geometric((4, 5000)))

    (r0, r1), _ = run_both(fn, seed=35, cfg=ring)
    mirror = fn(plain(35, ring))
    assert np.array_equal(r0, mirror) and np.array_equal(r1, mirror)
    if frac_bits == 12:  # 2^-12 of the draws have every bit zero: the cap
        assert mirror.max() == whole_leaves(frac_bits)


@pytest.mark.parametrize("frac_bits", [12, 20])
def test_geometric_law(frac_bits):
    # P(e = j) = 2^-(j+1) below the cap W, P(e = W) = 2^-W: the bins j < J
    # and the tail j >= J, of probability 2^-J, cap included
    ring, n = RingConfig(frac_bits), 200_000
    width = whole_leaves(frac_bits)
    top = min(width, 14)
    e = plain(36, ring).joint_geometric((n,)).astype(np.int64)
    counts = np.bincount(np.minimum(e, top), minlength=top + 1)
    assert counts.size == top + 1
    expected = n * np.exp2(-np.r_[np.arange(1, top + 1), top])
    assert stats.chisquare(counts, expected).pvalue > 0.01


def test_geometric_costs_four_rounds_and_nineteen_words_per_value():
    # one opening of one word, then a 3-round prefix over 7 leaves with 9
    # Beaver products: 49 bit words (7 leaves of 7 monomials) and 9 triples
    n = 1000

    def fn(eng):
        return eng.joint_geometric((n,))

    counts = estimate_counts(fn, 37, RING)
    assert dict(counts) == {("bit",): 49 * n, ("triple",): 9 * n}
    _, engines = run_both(fn, seed=37)
    for eng in engines:
        tr = eng.rt.transcript
        assert tr.n_rounds == 4
        assert tr.bytes_sent - FRAME_BYTES * tr.n_rounds == 8 * 19 * n
        assert {k: v for k, v in eng.material.pos.items() if isinstance(k, tuple)} \
            == dict(counts)
        assert eng.material.pos["local_bits"] == n  # one word per value


# --- unit exponentials ---

def _exponentials(eng, e, u):
    """unit_exponentials of exponents e and uniforms u at l bits, whose
    power chain is that of the turns 2u."""
    return kernels.unit_exponentials(eng, e, kernels._turn_powers(eng, eng.mul_public_int(u, 2)))


@pytest.mark.parametrize("frac_bits", ACCEPTED_RINGS)
def test_exponentials_are_never_negative(frac_bits):
    # at e = 0 the exponential is -ln m, which falls to 0 as u rises to 1:
    # the 4096 uniforms nearest 1 give no negative value (E = -1 ulp would
    # leave rsqrt's domain), and u = 1 gives exactly 0. With the fit's float
    # constant in place of the pinned one, 7 of these 11 rings fail
    ring = RingConfig(frac_bits)
    eng = plain(38, ring)
    raw = np.arange((1 << frac_bits) - 4095, (1 << frac_bits) + 1, dtype=np.uint64)
    x = to_signed(eng.open(_exponentials(eng, eng.zeros(raw.shape), eng.from_public(raw))))
    assert x.min() >= 0 and x[-1] == 0


def test_exponentials_follow_the_float_identity_and_law():
    # e ln 2 - ln((1 + u)/2) within 2 ulps of its float value, and Exp(1)
    # in law, cut at (W + 1) ln 2
    n, l = 100_000, RING.frac_bits
    eng = plain(39)
    e, u = eng.joint_geometric((n,)), kernels.joint_uniform(eng, (n,))
    x = open_plain(eng, _exponentials(eng, e, u))
    ref = e * np.log(2) - np.log((1 + decode(u, RING)) / 2)
    assert np.abs(x - ref).max() <= 2 * 2.0 ** -l
    assert x.max() < (whole_leaves(l) + 1) * np.log(2)
    assert stats.kstest(x, stats.expon.cdf).pvalue > 0.01


# --- obliviousness and MPC equivalence ---

def test_kernel_transcripts_input_independent():
    def make(values):
        def fn(eng):
            return eng.open(kernels.secure_sqrt(eng, enc_pub(eng, values)))
        return fn

    _, eng_a = run_both(make(np.full(64, 2.0)), seed=22)
    _, eng_b = run_both(make(np.exp2(np.linspace(-9, 9, 64))), seed=22)
    ta, tb = eng_a[0].rt.transcript, eng_b[0].rt.transcript
    assert ta.n_rounds == tb.n_rounds
    assert ta.bytes_sent == tb.bytes_sent


def test_kernels_match_mirror_bit_exact():
    x = np.exp2(np.linspace(-6, 6, 40))

    def fn(eng):
        return eng.open(kernels.secure_ln(eng, enc_pub(eng, x)))

    (r0, r1), _ = run_both(fn, seed=23)
    mirror = fn(plain(23))
    assert np.array_equal(r0, mirror)
    assert np.array_equal(r1, mirror)


def test_exhausted_randomness():
    def fn(eng):
        return eng.open(kernels.joint_uniform(eng, (50,)))

    counts = estimate_counts(fn, 24, RING)
    starved = {k: v // 2 for k, v in counts.items()}
    with pytest.raises(Exhausted):
        run_both(fn, seed=24, counts=starved)
