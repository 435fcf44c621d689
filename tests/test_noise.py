import numpy as np
import pytest
from scipy import stats

from veiltrain.dealer import MaterialSource
from veiltrain.engine import PlainEngine, whole_leaves
from veiltrain.fixedpoint import RingConfig, decode, encode
from veiltrain.kernels import _turn_powers, joint_uniform, unit_exponentials
from veiltrain.noise import (DpParams, box_muller_radius, gamma_magnitude,
                             gaussian_pair_count, gaussian_vector, perturb_weights,
                             sample_noise)

from conftest import ACCEPTED_RINGS, run_both

RING = RingConfig()


def plain(seed=1):
    return PlainEngine(MaterialSource(seed, RING), RING)


def test_scale_formula():
    # epsilon 3, reg 1, 1713 pooled training examples
    dp = DpParams(epsilon=3.0, lambda_reg=1.0, n=1713, d=1874)
    assert dp.scale == 2.0 / 5139
    assert abs(dp.scale - 3.8918e-4) < 1e-8


def test_dp_params_validation():
    with pytest.raises(ValueError):
        DpParams(epsilon=0.0, lambda_reg=1.0, n=10, d=2)
    with pytest.raises(ValueError):
        DpParams(epsilon=1.0, lambda_reg=0.0, n=10, d=2)


def test_gaussian_pair_counts():
    assert gaussian_pair_count(2) == 1
    assert gaussian_pair_count(3) == 3  # ceil(3/2) in the loop plus the odd tail
    assert gaussian_pair_count(10) == 5
    assert gaussian_pair_count(11) == 7


def test_gss_d2_consumes_one_pair_and_matches_box_muller():
    eng = plain(2)
    out = decode(eng.open(gaussian_vector(eng, 2)), RING)
    assert eng.pos["local_bits"] == 2  # one (u, v) pair, one local word each
    # regenerate the uniforms the protocol consumed and check the transform
    ref = plain(2)
    u = decode(ref.open(joint_uniform(ref, (1,))), RING)[0]
    v = decode(ref.open(joint_uniform(ref, (1,))), RING)[0]
    r = np.sqrt(-2 * np.log(u))
    theta = 2 * np.pi * v
    assert abs(out[0] - r * np.cos(theta)) <= 1e-2
    assert abs(out[1] - r * np.sin(theta)) <= 1e-2


def test_gss_odd_path_consumption():
    eng = plain(3)
    out = decode(eng.open(gaussian_vector(eng, 3)), RING)
    pairs_consumed = eng.pos["local_bits"] // 2
    assert pairs_consumed == gaussian_pair_count(3) == 3
    assert out.shape == (3,)


@pytest.mark.parametrize("d", [3, 11, 12])
def test_perturbation_draws_exactly_its_pairs(d):
    # per draw: k = ceil(d/2) Box-Muller angles, and the d exponentials'
    # mantissa uniforms and geometric exponents, whose first k are also the
    # radii; no more, one local word each
    dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=100, d=d)
    eng = plain(5)
    perturb_weights(eng, eng.zeros(d), dp, batch=(4,))
    assert eng.pos["local_bits"] == 4 * ((d + 1) // 2 + 2 * d)


def test_gss_mirror_equals_mpc():
    def fn(eng):
        return eng.open(gaussian_vector(eng, 7, batch=(4,)))

    (r0, _), _ = run_both(fn, seed=4)
    assert np.array_equal(r0, fn(plain(4)))


def test_gss_statistics_quick():
    eng = plain(5)
    s = decode(eng.open(gaussian_vector(eng, 4000)), RING)
    assert abs(s.mean()) <= 0.05
    assert abs(s.var() - 1.0) <= 0.1


def test_gamma_single_exponential():
    dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=1000, d=1)
    eng = plain(6)
    got = decode(eng.open(gamma_magnitude(eng, dp)), RING)
    ref = plain(6)
    u = decode(ref.open(joint_uniform(ref, (1,))), RING)[0]
    assert abs(got - dp.scale * (-np.log(u))) <= 1e-3 * dp.scale + 2**-18


def test_gamma_moments_d5():
    dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=200, d=5)
    eng = plain(7)
    g = decode(eng.open(gamma_magnitude(eng, dp, batch=(10_000,))), RING)
    assert abs(g.mean() - 5 * dp.scale) <= 0.03 * 5 * dp.scale
    assert abs(g.var() - 5 * dp.scale**2) <= 0.10 * 5 * dp.scale**2


def test_perturb_effectively_infinite_epsilon():
    dp = DpParams(epsilon=2.0**30, lambda_reg=1.0, n=1000, d=6)
    rng = np.random.default_rng(8)
    w = rng.uniform(-1, 1, 6)
    eng = plain(9)
    got = decode(eng.open(perturb_weights(eng, eng.from_public(encode(w, RING)), dp)), RING)
    assert np.abs(got - decode(encode(w, RING), RING)).max() < 1e-4


def test_perturb_zero_weights_norm_law():
    dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=500, d=8)
    eng = plain(10)
    noisy = decode(eng.open(perturb_weights(eng, eng.zeros(8), dp, batch=(2000,))), RING)
    norms = np.linalg.norm(noisy, axis=1)
    ks = stats.kstest(norms, stats.gamma(a=8, scale=dp.scale).cdf)
    assert ks.statistic < 0.05


@pytest.mark.parametrize("sampler, d", [("gaussian_vector", 6), ("sample_noise", 6),
                                        ("sample_noise", 7)])
def test_direction_uniformity(sampler, d):
    # the session's noise (sample_noise, even and odd d) points in a
    # uniform direction, as the Gaussian vector does
    eng = plain(11)
    if sampler == "gaussian_vector":
        draws = gaussian_vector(eng, d, batch=(5000,))
    else:
        draws = sample_noise(eng, DpParams(epsilon=1.0, lambda_reg=1.0, n=300, d=d),
                             batch=(5000,))
    s = decode(eng.open(draws), RING)
    s = s / np.linalg.norm(s, axis=1, keepdims=True)
    assert np.abs(s.mean(axis=0)).max() <= 0.05
    corr = np.corrcoef(s.T)
    off = corr[~np.eye(d, dtype=bool)]
    assert np.abs(off).max() < 0.05


def test_perturb_transcript_independent_of_weights():
    dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=300, d=5)

    def make(w):
        def fn(eng):
            return eng.open(perturb_weights(eng, eng.from_public(encode(w, RING)), dp))
        return fn

    _, eng_a = run_both(make(np.zeros(5)), seed=12)
    _, eng_b = run_both(make(np.full(5, 123.456)), seed=12)
    assert eng_a[0].rt.transcript.n_rounds == eng_b[0].rt.transcript.n_rounds
    assert eng_a[0].rt.transcript.bytes_sent == eng_b[0].rt.transcript.bytes_sent


def test_noise_share_marginals_uniform():
    # no single party's share of the noisy weights should reveal anything:
    # party-0 share values look uniform on the ring
    dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=300, d=4)

    def fn(eng):
        return perturb_weights(eng, eng.zeros(4), dp, batch=(400,))

    (share0, _), _ = run_both(fn, seed=13)
    top_bytes = (np.asarray(share0).ravel() >> np.uint64(56)).astype(np.int64)
    counts = np.bincount(top_bytes, minlength=256)
    assert stats.chisquare(counts).pvalue > 0.001


def test_perturb_batch_rows_are_independent_draws():
    dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=100, d=3)
    eng = plain(14)
    noisy = decode(eng.open(perturb_weights(eng, eng.zeros(3), dp, batch=(50,))), RING)
    assert noisy.shape == (50, 3)
    assert len(np.unique(np.round(noisy, 6), axis=0)) == 50


class _ChosenUniforms(PlainEngine):
    """The mirror with chosen draws: each joint_uniform call draws as usual,
    consuming the same bits, then passes its raw values through the next of
    the given edits (None keeps them); so does each joint_geometric call
    with the next of the geometric edits."""

    def __init__(self, seed, *edits, geometric=()):
        super().__init__(MaterialSource(seed, RING), RING)
        self.edits, self.geometric = list(edits), list(geometric)

    def joint_uniform(self, shape):
        u = super().joint_uniform(shape)
        edit = self.edits.pop(0)
        return u if edit is None else edit(u)

    def joint_geometric(self, shape):
        e = super().joint_geometric(shape)
        edit = self.geometric.pop(0)
        return e if edit is None else edit(e)


W = whole_leaves(RING.frac_bits)
# the largest exponential: e = W, u = one ulp, so m = (1 + 2^-l)/2
X_MAX = W * np.log(2) - np.log((1 + 2.0 ** -RING.frac_bits) / 2)


def _first_pair_at_one(u):
    u = u.copy()
    u[0, 0] = np.uint64(1 << RING.frac_bits)
    return u


def _rows_set(rows, value, rest=None):
    """An edit setting the given rows of a draw (rows on axis 0) to the raw
    value, and every other row to rest (None keeps them)."""
    def edit(x):
        x = x.copy() if rest is None else np.full_like(x, rest)
        x[rows] = value
        return x
    return edit


@pytest.mark.parametrize("n", [300, 2000, 10**5, 10**6])
def test_effective_noise_scale_is_never_below_the_calibrated_one(n):
    dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=n, d=50)
    code, f = dp.scale_code(RING)
    assert code / 2.0 ** f >= dp.scale
    # with every exponential at its largest (e = W, u at one ulp), ||eta||
    # = c d X_MAX up to the ln m fit's and rsqrt's relative errors; at n =
    # 10^6 c is 2.097 ulps, which rounded to 2 at l bits would show as -4.6 %
    eng = _ChosenUniforms(15, None, np.ones_like, geometric=[lambda e: np.full_like(e, W)])
    eta = decode(eng.open(perturb_weights(eng, eng.zeros(dp.d), dp, batch=(50,))), RING)
    effective = np.linalg.norm(eta, axis=1).mean() / (dp.d * X_MAX)
    assert effective >= dp.scale * (1 - 1e-3)


def test_perturbation_magnitude_law_at_odd_d():
    # the tolerances of the acceptance test's Gamma law, at odd d
    dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=1000, d=11)
    eng = plain(16)
    eta = decode(eng.open(perturb_weights(eng, eng.zeros(dp.d), dp, batch=(5000,))), RING)
    norms = np.linalg.norm(eta, axis=1)
    assert abs(norms.mean() - dp.d * dp.scale) <= 0.03 * dp.d * dp.scale
    assert abs(norms.var() - dp.d * dp.scale**2) <= 0.10 * dp.d * dp.scale**2
    assert stats.kstest(norms, stats.gamma(a=dp.d, scale=dp.scale).cdf).statistic < 0.03
    # the direction is uniform: every coordinate, the tail's too, holds 1/d of it
    share = (eta / norms[:, None]) ** 2
    assert np.abs(share.mean(axis=0) * dp.d - 1).max() < 0.1


@pytest.mark.parametrize("frac_bits", ACCEPTED_RINGS)
def test_every_accepted_ring_releases_noise_at_its_scale(frac_bits):
    # the mirror's noise at 300x12, epsilon 1: no draw vanishes, and the mean
    # of ||eta|| ~ Gamma(d, c) is within four standard errors of d c, the
    # benchmark's noise-law bound
    ring = RingConfig(frac_bits)
    dp, draws = DpParams(epsilon=1.0, lambda_reg=1.0, n=300, d=12), 400
    eta = decode(sample_noise(PlainEngine(MaterialSource(9, ring), ring), dp, (draws,)), ring)
    norms = np.linalg.norm(eta, axis=1)
    assert norms.min() > 0
    assert abs(norms.mean() / (dp.d * dp.scale) - 1) <= 4 / np.sqrt(dp.d * draws)


def test_box_muller_radius_tolerance():
    from veiltrain.kernels import KERNEL_TOLERANCES

    l = RING.frac_bits  # u on the l-bit grid of (0, 1], both ends included
    u = np.concatenate([[1, 2, 3], np.random.default_rng(21).integers(1, 2**l, 20_000), [2**l]])
    e = encode(-2 * np.log(u * 2.0**-l), RING)
    eng = plain(22)
    got = decode(eng.open(eng.trunc(box_muller_radius(eng, eng.from_public(e)), l)), RING)
    assert np.abs(got - np.sqrt(decode(e, RING))).max() <= KERNEL_TOLERANCES["bm_radius"].bound
    assert got[-1] == 0  # u = 1


def test_unit_uniform_gives_zero_radius_and_finite_noise():
    eng = _ChosenUniforms(17, _first_pair_at_one)
    g = decode(eng.open(gaussian_vector(eng, 4, batch=(8,))), RING)
    assert np.all(g[:, :2] == 0) and np.all(g[:, 2:] != 0)
    # e = 0 with u = 1 gives the exponential 0 exactly
    eng, one = plain(18), 1 << RING.frac_bits
    powers = _turn_powers(eng, eng.from_public(np.full(8, 2 * one)))  # the turns 2u
    x = unit_exponentials(eng, eng.zeros(8), powers)
    assert np.all(eng.open(x) == 0)
    # so E = 0 for the first pair: its coordinates are exactly 0, and the
    # norm is still the Gamma draw, c (d - 1) X_MAX with every other
    # exponential at its largest (the first pair's is 0)
    dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=300, d=5)
    gamma = dp.scale * (dp.d - 1) * X_MAX
    eng = _ChosenUniforms(18, None, _rows_set(0, one, rest=1),
                          geometric=[_rows_set(0, 0, rest=W)])
    eta = decode(eng.open(perturb_weights(eng, eng.zeros(dp.d), dp, batch=(20,))), RING)
    assert np.all(eta[:, :2] == 0)
    assert np.abs(np.linalg.norm(eta, axis=1) / gamma - 1).max() < 1e-3
    # every pair's E = 0: ||g|| = 0, rsqrt(0) stays finite and eta is
    # exactly 0, though the Gamma, from the other d - k exponentials, is not
    k = (dp.d + 1) // 2
    eng = _ChosenUniforms(19, None, _rows_set(slice(k), one),
                          geometric=[_rows_set(slice(k), 0)])
    w = encode(np.linspace(-1, 1, dp.d), RING)
    assert np.array_equal(eng.open(perturb_weights(eng, eng.from_public(w), dp, batch=(4,))),
                          np.broadcast_to(w, (4, dp.d)))


def test_perturbation_round_budget():
    import veiltrain.noise as noise

    assert not hasattr(noise, "secure_sqrt") and not hasattr(noise, "l2_normalize")

    def rounds(d):
        dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=300, d=d)
        _, engs = run_both(lambda eng: perturb_weights(eng, eng.zeros(d), dp, batch=(2,)), 20)
        return engs[0].rt.transcript.n_rounds

    even = {d: rounds(d) for d in (2, 10, 50)}
    assert set(even.values()) == {31}
    for d in (3, 11, 51):  # the odd tail's E cos^2 takes one product and one truncation
        assert rounds(d) <= even[d - 1] + 2


def test_session_noise_is_calibrated_to_the_row_bound():
    # without the bias column the session's parameters are the plain ones;
    # with it the rows have norm sqrt 2 and the scale is 2 sqrt(2)/(n eps lambda)
    from veiltrain.harness import dp_params
    from veiltrain.shareio import DEFAULTS

    assert dp_params(DEFAULTS, 300, 12) == DpParams(epsilon=1.0, lambda_reg=1.0, n=300, d=12)
    dp = dp_params(dict(DEFAULTS, add_bias=1), 300, 12)
    assert (dp.d, dp.row_norm) == (13, np.sqrt(2))
    assert dp.scale == 2 * np.sqrt(2) / 300
    with pytest.raises(ValueError, match="row_norm"):
        DpParams(epsilon=1.0, lambda_reg=1.0, n=300, d=12, row_norm=0.0)


def _exponentials(seed, d, draws):
    """The unit exponentials e ln 2 - ln m, m = (1 + u)/2, in floats, from
    the draws sample_noise makes at this seed and dimension: the exponents
    of its d exponentials (2 at d = 1), then the angles' uniforms (none at
    d = 1), then the mantissas' uniforms; (exponentials, draws)."""
    ref, rows = plain(seed), max(d, 2)
    e = ref.joint_geometric((rows, draws))
    if d > 1:
        joint_uniform(ref, ((d + 1) // 2, draws))
    u = decode(joint_uniform(ref, (rows, draws)), RING)
    return e * np.log(2) - np.log((1 + u) / 2)


@pytest.mark.parametrize("d", [6, 7, 12, 13])
def test_every_draw_has_its_gamma_magnitude(d):
    # ||eta|| = Gamma per draw, not only in the mean: regenerate the draws
    # sample_noise made and check each norm against c sum (e ln 2 - ln m)
    # over all d exponentials, the k radii's among them. An odd d's tail,
    # whose cos 2 theta enters ||g||, must agree with its coordinate's angle
    dp, draws = DpParams(epsilon=1.0, lambda_reg=1.0, n=300, d=d), 500
    eta = decode(sample_noise(plain(23), dp, (draws,)), RING)
    gamma = dp.scale * _exponentials(23, d, draws).sum(axis=0)
    assert np.abs(np.linalg.norm(eta, axis=1) / gamma - 1).max() < 1e-3


def test_the_session_noise_takes_no_logarithm(monkeypatch):
    import veiltrain.kernels as kernels
    import veiltrain.noise as noise

    def refuse(*args, **kwargs):
        raise AssertionError("secure_ln ran")

    for module in (noise, kernels):
        monkeypatch.setattr(module, "secure_ln", refuse)
    for d in (1, 2, 7):
        sample_noise(plain(28), DpParams(epsilon=1.0, lambda_reg=1.0, n=300, d=d), (3,))


@pytest.mark.parametrize("seed", range(1, 6))
def test_laplace_at_one_dimension_matches_its_mirror(seed):
    dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=300, d=1)

    def fn(eng):
        return eng.open(sample_noise(eng, dp, (4000,)))

    (r0, r1), _ = run_both(fn, seed=seed)
    mirror = fn(plain(seed))
    assert np.array_equal(r0, mirror) and np.array_equal(r1, mirror)


@pytest.mark.parametrize("d", [2, 3, 12, 13, 50])
def test_sample_noise_matches_its_mirror(d):
    # both schedules of the nested parallel calls: at even d sin, cos and
    # the Gamma are truncated beside rsqrt, at odd d the tail's product
    # rides with sin and cos first and only the Gamma is beside it
    dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=300, d=d)

    def fn(eng):
        return eng.open(sample_noise(eng, dp, (50,)))

    (r0, r1), _ = run_both(fn, seed=27)
    mirror = fn(plain(27))
    assert mirror.shape == (50, d)
    assert np.array_equal(r0, mirror) and np.array_equal(r1, mirror)


def test_laplace_at_one_dimension_is_the_difference_of_two_exponentials():
    # eta = c (X_1 - X_2) per draw: no Box-Muller pair, so no angle near
    # pi/2 can pull |eta| off the Gamma, as it could by up to 0.66 c
    dp, draws = DpParams(epsilon=1.0, lambda_reg=1.0, n=300, d=1), 4000
    eta = decode(sample_noise(plain(26), dp, (draws,)), RING)
    assert eta.shape == (draws, 1)
    x = _exponentials(26, 1, draws)
    assert np.abs(eta[:, 0] - dp.scale * (x[0] - x[1])).max() <= 1e-3 * dp.scale


def test_laplace_at_one_dimension_follows_its_law():
    dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=300, d=1)
    eta = decode(sample_noise(plain(27), dp, (20_000,)), RING)[:, 0]
    assert stats.kstest(eta, stats.laplace(scale=dp.scale).cdf).pvalue > 0.01


@pytest.mark.parametrize("d", [7, 12])
def test_first_coordinate_follows_the_float_law(d):
    # Gamma shares its logs with the Box-Muller radii, yet eta's first
    # coordinate has the law of Gamma(d, c) times a uniform direction's
    # first coordinate, sampled in floats
    dp, draws = DpParams(epsilon=1.0, lambda_reg=1.0, n=300, d=d), 5000
    eta = decode(sample_noise(plain(24), dp, (draws,)), RING)[:, 0]
    rng = np.random.default_rng(25)
    g = rng.standard_normal((200_000, d))
    ref = rng.gamma(d, dp.scale, len(g)) * g[:, 0] / np.linalg.norm(g, axis=1)
    assert stats.ks_2samp(eta, ref).pvalue > 0.01
