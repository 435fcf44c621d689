import contextlib
import functools
from dataclasses import fields

import numpy as np
import pytest

from veiltrain import kernels
from veiltrain.cleartext import normalize_rows, sigmoid, train_lr_clear
from veiltrain.dealer import MaterialSource
from veiltrain.datasets import synth_data
from veiltrain.engine import PlainEngine, estimate_counts
from veiltrain.errors import InvalidArgument, VeiltrainError
from veiltrain.fixedpoint import RingConfig, decode, encode, to_signed
from veiltrain.kernels import CLAMPED_SIGMOID_MIN_FRAC_BITS, SIG4_POWER, SIG_POWER, SIGMOID_BOUND
from veiltrain.training import (SLOPE_SLACK, ModelState, TrainingConfig, l2_normalize, backward,
                                doublings, forward, forward_magnitude_bits, mean_bits,
                                sigmoid_input_bound, takes_recurrence, train_pipeline, update)

from conftest import mirror_weights, run_both

RING = RingConfig()


def regularized_loss(w, X, t, lambda_reg):
    z = X @ w
    # log(1 + exp(-margin)) stabilized
    margin = np.where(t > 0.5, z, -z)
    loss = np.mean(np.logaddexp(0.0, -margin))
    return loss + 0.5 * lambda_reg * float(w @ w)


def plain(seed=1):
    return PlainEngine(MaterialSource(seed, RING), RING)


def enc_pub(eng, x):
    return eng.from_public(encode(x, eng.cfg))


def enc2l(eng, x):
    """x shared at 2l fractional bits."""
    return eng.mul_public_int(enc_pub(eng, x), 1 << eng.frac_bits)


def dec2l(eng, a):
    return decode(eng.open(a), RING) / (1 << eng.frac_bits)


def owner_rows(eng, X):
    """X's rows as their owner scales and encodes them, shared publicly."""
    return eng.from_public(l2_normalize(X, eng.cfg))


def squared_norms(raw):
    """Each encoded row's sum of squares, exactly, as Python integers."""
    return [sum(int(v) ** 2 for v in row) for row in to_signed(raw)]


def test_normalize_3_4_5():
    got = decode(l2_normalize(np.array([[3.0, 4.0]]), RING), RING)
    assert np.abs(got - [0.6, 0.8]).max() <= 1e-3


def test_normalize_unit_vector_idempotent():
    e1 = np.zeros((1, 8))
    e1[0, 0] = 1.0
    assert np.array_equal(l2_normalize(e1, RING), encode(e1, RING))
    assert np.array_equal(l2_normalize(decode(l2_normalize(e1, RING), RING), RING),
                          encode(e1, RING))


def test_normalize_wide_binary_vector():
    rng = np.random.default_rng(3)
    x = l2_normalize(rng.integers(0, 2, (1, 1874)).astype(float), RING)
    assert abs(np.linalg.norm(decode(x, RING)) - 1.0) <= 1e-3
    assert squared_norms(x)[0] <= 1 << 40


def test_normalize_batch_of_rows():
    rng = np.random.default_rng(5)
    got = decode(l2_normalize(rng.uniform(-5, 5, (30, 12)), RING), RING)
    assert np.abs(np.linalg.norm(got, axis=1) - 1.0).max() <= 1e-3


@pytest.mark.parametrize("frac_bits", [16, 20, 24])
def test_normalize_within_its_tolerance_across_the_ingest_domain(frac_bits):
    # every finite row, from 1e-300 to 1e300 and subnormal, at d = 12 and
    # 1874, whole or as one of k = 3 vertical blocks: the encoded squares
    # sum to at most 2^(2l) / k exactly, and the norm is within 1e-3 of
    # 1/sqrt(k); zero rows stay zero
    ring = RingConfig(frac_bits)
    rng = np.random.default_rng(44)
    for d in (12, 1874):
        X = rng.normal(size=(40, d)) * 10.0 ** rng.uniform(-300, 300, (40, 1))
        X[0], X[1, :2], X[2, 1] = 0, [1e200, 1e200], 1e-320
        for k in (1, 3):
            x = l2_normalize(X, ring, k)
            assert max(squared_norms(x)) <= (1 << 2 * frac_bits) // k
            norms = np.linalg.norm(decode(x, ring), axis=1)
            assert np.abs(norms[1:] - k ** -0.5).max() <= 1e-3 and norms[0] == 0


def test_normalize_moves_the_largest_coordinate_where_rounding_overshoots():
    # at 4 fractional bits [0.6, 0.8] rounds to [10, 13] sixteenths, whose
    # squares sum to 269 > 256: the larger coordinate moves one ulp toward
    # zero, whatever the sign, and nothing else moves
    ring = RingConfig(4)
    assert list(to_signed(encode(np.array([0.6, 0.8]), ring))) == [10, 13]
    got = to_signed(l2_normalize(np.array([[3.0, 4.0, 0.0], [-3.0, -4.0, 0.0]]), ring))
    assert got.tolist() == [[10, 12, 0], [-10, -12, 0]]


def _state(eng, w, g=None):
    """Model state holding w at 2l fractional bits and the pending gradient
    term g (zeros by default) at 2l bits."""
    g = np.zeros_like(w) if g is None else g
    return ModelState(enc2l(eng, w), enc2l(eng, g), eng.frac_bits)


def test_forward_zero_weights():
    rng = np.random.default_rng(8)
    X = normalize_rows(rng.uniform(-1, 1, (20, 5)))
    eng = plain(9)
    p = dec2l(eng, forward(eng, enc_pub(eng, X), _state(eng, np.zeros(5)))[0])
    assert np.abs(p - 0.5).max() <= 1e-3


def test_forward_single_row():
    eng = plain(10)
    X = np.zeros((1, 4))
    X[0, 0] = 1.0
    w = np.zeros(4)
    w[0] = 2.0
    p = dec2l(eng, forward(eng, enc_pub(eng, X), _state(eng, w))[0])
    assert abs(p[0] - sigmoid(2.0)) <= 2e-3


def test_forward_returns_the_state_at_working_precision():
    # the weights plus the pending gradient term, each truncated once
    rng = np.random.default_rng(25)
    w, g = rng.uniform(-1, 1, 6), rng.uniform(-0.1, 0.1, 6)
    eng = plain(26)
    _, w_l = forward(eng, enc_pub(eng, rng.uniform(-1, 1, (4, 6))), _state(eng, w, g))
    assert np.abs(decode(eng.open(w_l), RING) - (w + g)).max() <= 2**-19


def test_forward_matches_mirror_within_tolerance():
    rng = np.random.default_rng(11)
    X = normalize_rows(rng.uniform(-1, 1, (200, 20)))
    w = rng.uniform(-0.5, 0.5, 20)

    def fn(eng):
        return eng.open(forward(eng, enc_pub(eng, X), _state(eng, w))[0])

    (r0, _), _ = run_both(fn, seed=12)
    mirror = fn(plain(12))
    assert np.array_equal(r0, mirror)  # identical arithmetic, bit for bit


def _gradient(eng, g_raw, b, alpha=1.0):
    """backward's output for a batch of b rows as alpha times the mean gradient."""
    return decode(eng.open(g_raw), RING) / 2.0 ** (eng.frac_bits + mean_bits(b, alpha))


def _scaled(eng, X, alpha=1.0):
    """X's rows as the first step's backward scales them, by alpha 2^q / n."""
    return backward(eng, enc_pub(eng, X), None, eng.zeros(len(X)), alpha)[1]


def test_backward_zero_when_predictions_match():
    rng = np.random.default_rng(13)
    X = normalize_rows(rng.uniform(-1, 1, (10, 4)))
    t = rng.integers(0, 2, 10).astype(float)
    eng = plain(14)
    g = _gradient(eng, backward(eng, _scaled(eng, X), enc2l(eng, t), enc_pub(eng, t))[0], 10)
    assert np.abs(g).max() <= 2**-18


def test_backward_single_example():
    eng = plain(15)
    X = np.zeros((1, 3))
    X[0, 0] = 1.0
    preds = np.array([0.75])
    t = np.array([0.25])
    g = _gradient(eng, backward(eng, _scaled(eng, X), enc2l(eng, preds), enc_pub(eng, t))[0], 1)
    assert np.abs(g - [0.5, 0.0, 0.0]).max() <= 2**-16


def test_backward_is_the_mean_gradient_of_every_batch():
    # alpha / b for 300, 128 and 44 rows is folded into the rows' scale and
    # the truncation's shift; the first step's predictions are 1/2
    rng = np.random.default_rng(27)
    X = normalize_rows(rng.uniform(-1, 1, (300, 5)))
    p = rng.uniform(0, 1, 300)
    t = rng.integers(0, 2, 300).astype(float)
    eng = plain(28)
    for alpha in (1.0, 0.1, TrainingConfig().alpha):
        for rows in (slice(0, 300), slice(0, 128), slice(256, 300)):
            b = len(t[rows])
            first, scaled = backward(eng, enc_pub(eng, X[rows]), None, enc_pub(eng, t[rows]),
                                     alpha)
            g = _gradient(eng, backward(eng, scaled, enc2l(eng, p[rows]),
                                        enc_pub(eng, t[rows]))[0], b, alpha)
            want = alpha * X[rows].T @ (p[rows] - t[rows]) / b
            assert np.abs(g - want).max() <= 2**-17
            want = alpha * X[rows].T @ (0.5 - t[rows]) / b
            assert np.abs(_gradient(eng, first, b, alpha) - want).max() <= 2**-17


def test_backward_matches_mirror_on_200x20():
    rng = np.random.default_rng(16)
    X = normalize_rows(rng.uniform(-1, 1, (200, 20)))
    p = rng.uniform(0, 1, 200)
    t = rng.integers(0, 2, 200).astype(float)

    def fn(eng):
        first, scaled = backward(eng, enc_pub(eng, X), None, enc_pub(eng, t), 0.1)
        grad, _ = backward(eng, scaled, enc2l(eng, p), enc_pub(eng, t))
        return eng.open(np.concatenate([first, grad]))

    (r0, _), _ = run_both(fn, seed=17)
    assert np.array_equal(r0, fn(plain(17)))


class _BackwardPeak(PlainEngine):
    """The mirror, recording the largest |value| that backward truncates."""

    def __init__(self, *args):
        super().__init__(*args)
        self.peak, self.at = 0, []

    @contextlib.contextmanager
    def phase(self, name):
        self.at.append(name)
        try:
            yield
        finally:
            self.at.pop()

    def trunc(self, a, shift):
        if "backward" in self.at and np.size(a):
            self.peak = max(self.peak, int(np.abs(to_signed(a)).max()))
        return super().trunc(a, shift)


def test_backward_truncates_values_below_2_to_the_2l_plus_2():
    # the truncation masks are uniform on [-2^62, 2^62): a value x opened
    # under them keeps about 62 - log2 |x| bits hidden. backward truncates
    # the rows times alpha 2^q / n (first step) and the error sigma - t at
    # 2l bits, both at most 2^(2l + 1); identical rows with one label drive
    # the error furthest. The lambdas are below the linear tier, whose
    # recurrence has no backward pass
    # recurrence has no backward pass. The clamped tier (lambda 0.1) runs
    # from CLAMPED_SIGMOID_MIN_FRAC_BITS, and is refused below
    n, m = 300, 6
    aligned = np.tile(np.random.default_rng(53).uniform(-1, 1, m), (n, 1))
    for ring in (RingConfig(12), RingConfig(CLAMPED_SIGMOID_MIN_FRAC_BITS), RING,
                 RingConfig(22)):
        for t in (np.zeros(n), np.ones(n)):
            for lam, bias in ((0.45, False), (0.9, True), (0.1, False)):
                eng = _BackwardPeak(MaterialSource(54, ring), ring)
                run = functools.partial(train_pipeline, eng, owner_rows(eng, aligned),
                                        enc_pub(eng, t), TrainingConfig(lambda_reg=lam,
                                                                        add_bias=bias))
                if lam == 0.1 and ring.frac_bits < CLAMPED_SIGMOID_MIN_FRAC_BITS:
                    with pytest.raises(InvalidArgument, match="clamped"):
                        run()
                    continue
                run()
                assert 2 ** (2 * ring.frac_bits - 2) <= eng.peak < 2 ** (2 * ring.frac_bits + 2)


def _run_update(eng, w, g, cfg):
    """The weights after one update from w with the mean gradient g: alpha
    g enters at l bits, as the pending gradient the next forward pass
    truncates."""
    new = update(eng, enc_pub(eng, w), enc_pub(eng, cfg.alpha * g), eng.frac_bits, cfg)
    return dec2l(eng, new.w2l) + decode(eng.open(new.grad), RING)


def test_update_plain_gd_when_degenerate():
    # a plain gradient step on the regularized loss; as lambda vanishes,
    # the decay does too
    w = np.array([0.5, -0.25])
    g = np.array([0.125, 0.5])
    for lam in (1.0, 0.1, 2.0 ** -12):
        cfg = TrainingConfig(lambda_reg=lam)
        w2 = _run_update(plain(18), w, g, cfg)
        assert np.abs(w2 - (w - cfg.alpha * (g + lam * w))).max() <= 2**-19 * (1 + cfg.alpha)


def test_update_pure_weight_decay():
    # without a gradient the step keeps 1 - alpha lambda of the weights,
    # the contraction rate (L - mu)/(L + mu): 1/9 at lambda 1 on unit rows,
    # where L = lambda + 1/4
    w = np.array([1.0, -2.0])
    w2 = _run_update(plain(19), w, np.zeros(2), TrainingConfig())
    assert np.abs(w2 - w / 9).max() <= 2**-19


def test_update_zero_communication():
    rng = np.random.default_rng(20)
    w = rng.uniform(-1, 1, 6)
    g = rng.uniform(-1, 1, 6)
    cfg = TrainingConfig()

    def fn(eng):
        before = eng.rt.transcript.n_rounds if hasattr(eng, "rt") else 0
        update(eng, enc_pub(eng, w), enc_pub(eng, g), eng.frac_bits, cfg)
        return (eng.rt.transcript.n_rounds if hasattr(eng, "rt") else 0) - before

    (rounds0, rounds1), engines = run_both(fn, seed=21)
    assert rounds0 == rounds1 == 0


def test_update_bit_exact_vs_mirror():
    rng = np.random.default_rng(22)
    w = rng.uniform(-1, 1, 5)
    g = rng.uniform(-1, 1, 5)
    cfg = TrainingConfig()

    def fn(eng):
        new = update(eng, enc_pub(eng, w), enc_pub(eng, g), eng.frac_bits, cfg)
        return eng.open(eng.stack([new.w2l, new.grad]))

    (r0, _), _ = run_both(fn, seed=23)
    assert np.array_equal(r0, fn(plain(23)))


def test_train_zero_epochs_returns_init():
    # at a lambda so large that R / lambda is below one ulp no step is
    # taken, and training returns the zero init
    rng = np.random.default_rng(24)
    X = rng.uniform(-1, 1, (10, 4))
    t = rng.integers(0, 2, 10).astype(float)
    tc = TrainingConfig(lambda_reg=2.0 ** 21)
    assert tc.steps(RING) == 0 and TrainingConfig(lambda_reg=2.0 ** 19).steps(RING) == 1
    eng = plain(25)
    w = decode(eng.open(train_pipeline(eng, owner_rows(eng, X), enc_pub(eng, t), tc)), RING)
    assert np.abs(w).max() <= 2**-19


def test_train_separable_sign():
    # single informative feature: the learned weight sign must match
    X = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    t = np.array([1.0, 1.0, 0.0, 0.0])
    tc = TrainingConfig()
    eng = plain(26)
    w = decode(eng.open(train_pipeline(eng, owner_rows(eng, X), enc_pub(eng, t), tc)), RING)
    ref = train_lr_clear(X, t, tc, seed=26)
    assert np.sign(w[0]) == np.sign(ref.weights[0]) == 1.0


def test_train_mirror_bit_exact_50x5():
    X, t = synth_data(50, 5, seed=30, separability=1.0)
    tc = TrainingConfig(lambda_reg=0.1)

    def fn(eng):
        return eng.open(train_pipeline(eng, owner_rows(eng, X), enc_pub(eng, t), tc))

    (r0, r1), _ = run_both(fn, seed=31)
    mirror = mirror_weights(X, t, tc, seed=31)
    assert np.array_equal(r0, encode(mirror, RING))
    assert np.array_equal(r1, encode(mirror, RING))


def _iterates(monkeypatch, X, t, tc, seed):
    """Mirror training: the weights at l bits of every forward pass (from
    the second step on), then the final weights."""
    from veiltrain import training

    seen = []
    real = training.forward

    def spy(eng, *args):
        predictions, w_l = real(eng, *args)
        seen.append(decode(eng.open(w_l), eng.cfg))
        return predictions, w_l

    monkeypatch.setattr(training, "forward", spy)
    eng = plain(seed)
    w = train_pipeline(eng, owner_rows(eng, X), enc_pub(eng, t), tc)
    return seen + [decode(eng.open(w), RING)]


def test_training_loss_monotone_shadow(monkeypatch):
    X, t = synth_data(80, 8, seed=32, separability=1.0)
    Xn = normalize_rows(X)
    for lam in (0.4, 0.1):  # below the linear tier: the step loop
        # the zero init, which no forward pass sees
        iterates = [np.zeros(8)] + _iterates(monkeypatch, X, t, TrainingConfig(lambda_reg=lam), 33)
        losses = [regularized_loss(w, Xn, t, lam) for w in iterates]
        assert all(b - a <= 1e-6 for a, b in zip(losses, losses[1:]))


def test_first_step_runs_backward_alone(monkeypatch):
    # step 1 starts from the public predictions 1/2 of the zero weights, so
    # a run of k steps calls forward k - 1 times; one step is one backward.
    # One step has nothing to double, so the linear tier runs it as the
    # loop; the other lambdas are below the linear tier
    X, t = synth_data(30, 4, seed=39, separability=1.0)
    one = TrainingConfig(lambda_reg=2.0 ** 19)
    assert one.steps(RING) == 1 and one.linear
    for tc in (one, TrainingConfig(lambda_reg=0.4), TrainingConfig(lambda_reg=0.1)):
        forward_passes = len(_iterates(monkeypatch, X, t, tc, 40)) - 1
        assert forward_passes == tc.steps(RING) - 1

    def fn(eng):
        train_pipeline(eng, owner_rows(eng, X), enc_pub(eng, t), one)

    _, engines = run_both(fn, seed=41)
    rounds = {p: v["rounds"] for p, v in engines[0].rt.transcript.paths.items() if v["rounds"]}
    assert rounds == {"backward": 1, "finalize": 1}


def test_partition_independence_of_training():
    from veiltrain.datasets import make_plan, partition
    from veiltrain.ingest import ingest_partitions

    X, t = synth_data(48, 8, seed=34, separability=1.0)
    tc = TrainingConfig()
    outputs = []
    for mode, k in (("horizontal", 2), ("horizontal", 4), ("vertical", 2)):
        plan = make_plan(mode, k, 48, 8)
        parts = partition(X, t, plan)
        (X0, t0), (X1, t1) = ingest_partitions(parts, mode, RING, seed=35)

        def fn(eng):
            Xs = X0 if eng.party == 0 else X1
            ts = t0 if eng.party == 0 else t1
            return eng.open(train_pipeline(eng, Xs, ts, tc))

        (r0, _), _ = run_both(fn, seed=36)
        outputs.append(r0)
    assert np.array_equal(outputs[0], outputs[1])
    # vertical owners scale their blocks: the session trains on the matrix
    # those blocks assemble to, as one owner's would
    blocks = X0 + X1
    (r0, _), _ = run_both(lambda eng: eng.open(train_pipeline(
        eng, eng.from_public(blocks), eng.from_public(encode(t, RING)), tc)), seed=36)
    assert np.array_equal(outputs[2], r0)


def test_bias_column_appended_after_normalization():
    rng = np.random.default_rng(37)
    X = rng.uniform(-2, 2, (12, 3))
    t = rng.integers(0, 2, 12).astype(float)
    tc = TrainingConfig(add_bias=True)
    eng = plain(38)
    w = eng.open(train_pipeline(eng, owner_rows(eng, X), enc_pub(eng, t), tc))
    assert len(w) == 4  # bias coefficient present


def test_training_config_validation():
    assert [f.name for f in fields(TrainingConfig)] == ["lambda_reg", "add_bias"]
    for lam in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="lambda_reg"):
            TrainingConfig(lambda_reg=lam)


@pytest.mark.parametrize("lam, bias, alpha, steps", [
    (1.0, False, 0.8889, 7), (1.0, True, 0.8, 9), (0.5, False, 1.6, 10), (0.1, False, 4.4348, 28)])
def test_schedule_follows_from_lambda_and_the_row_bound(lam, bias, alpha, steps):
    # alpha = 2/(L + mu) with mu = lambda, and the fewest steps whose
    # contraction takes R / lambda below an ulp. From lambda = R^2/2 the
    # linear tier trains, with L = lambda + R^2/4 and the bound B =
    # 2R^2/(4 lambda - R^2) <= 2 on |x . w|; below it the sigmoid tiers,
    # with L = lambda + R^2 (1/4 + slack). The bias column at lambda 1 and
    # lambda 1/2 without it sit at the edge, B = 2 exactly, and are inside
    tc = TrainingConfig(lambda_reg=lam, add_bias=bias)
    R = np.sqrt(2.0) if bias else 1.0
    assert tc.row_norm == R
    r2 = 1 + bias  # R^2, exactly
    linear = lam >= r2 / 2
    assert tc.linear == linear
    if linear:
        assert tc.alpha == 2 / (2 * lam + r2 / 4)
        assert 2 * r2 / (4 * lam - r2) == (2 / 3 if lam == 1 and not bias else 2)
    else:
        assert tc.alpha == 2 / (2 * lam + r2 * (0.25 + SLOPE_SLACK))
    assert round(tc.alpha, 4) == alpha and tc.steps(RING) == steps
    rate = 1 - tc.alpha * lam
    assert rate ** steps * R / lam < 2.0 ** -20 <= rate ** (steps - 1) * R / lam
    assert tc.steps(RingConfig(frac_bits=16)) < steps
    # the recurrence rounds the steps up to the next power of two, 2^k
    assert 2 ** doublings(steps) // 2 < steps <= 2 ** doublings(steps)


def test_training_consumes_the_dry_run_exactly():
    # the linear tier's recurrence takes no bits, the clamped sigmoid
    # (lambda 1/4) does
    X, t = synth_data(20, 4, seed=42, separability=1.0)
    kinds = []
    for tc in (TrainingConfig(), TrainingConfig(lambda_reg=0.25)):
        def fn(eng):
            return eng.open(train_pipeline(eng, owner_rows(eng, X), enc_pub(eng, t), tc))

        counts = estimate_counts(fn, 43, RING)
        kinds.append({key[0] for key in counts})
        _, engines = run_both(fn, seed=43, counts=counts)
        for eng in engines:
            assert {k: v for k, v in eng.material.pos.items() if isinstance(k, tuple)} == counts
    assert kinds == [{"trunc", "triple"}, {"trunc", "triple", "bit"}]


@pytest.mark.parametrize("lams, sigmoid_rounds", [((2.0, 1.0), 0), ((0.45, 0.4), 5),
                                                   ((0.25, 0.2), 12)],
                         ids=["linear", "bounded", "clamped"])
def test_every_step_costs_its_pinned_rounds(lams, sigmoid_rounds):
    # a step of the loop adds: forward 1 (the weights' and the last
    # gradient's truncations with the product), the sigmoid (none on the
    # linear tier, whose prediction 1/2 + z/4 is local; 5 where the bound is
    # at most 4, clamped 12 above; its output stays at 2l bits), backward 1
    # (the error's truncation with the product); nothing else. Both lambdas
    # of a pair fall in one tier. 12 rows of 8 features are wide enough for
    # the linear tier to take the loop
    X, t = synth_data(12, 8, seed=46, separability=1.0)

    def rounds(lam):
        tc = TrainingConfig(lambda_reg=lam)
        bound = sigmoid_input_bound(tc, 12, 8, RING)
        tier = 0 if tc.linear else 5 if bound <= SIGMOID_BOUND else 12
        assert tier == sigmoid_rounds
        assert not (tc.linear and takes_recurrence(12, 8, tc.steps()))

        def fn(eng):
            train_pipeline(eng, owner_rows(eng, X), enc_pub(eng, t), tc)

        _, engines = run_both(fn, seed=47)
        return {p: v["rounds"] for p, v in engines[0].rt.transcript.paths.items()}, tc.steps()

    (one, k1), (two, k2) = rounds(lams[0]), rounds(lams[1])
    steps = k2 - k1
    assert steps > 0
    added = {p: two[p] - one.get(p, 0) for p in two if two[p] != one.get(p, 0)}
    want = {"forward": steps, "sigmoid": sigmoid_rounds * steps, "backward": steps}
    assert added == {p: v for p, v in want.items() if v}


def _largest_sigmoid_input(monkeypatch, X, t, tc, seed, ring=RING):
    """Mirror training: the largest |z| the sigmoid sees, and the bound it is given."""
    from veiltrain import training

    seen, bounds = [0.0], set()
    real = training.secure_sigmoid

    def spy(eng, z, **kw):
        top = float(np.abs(to_signed(z)).max()) / 2.0 ** kw["frac_bits"]
        seen[0] = max(seen[0], top)
        bounds.add(kw["bound"])
        return real(eng, z, **kw)

    monkeypatch.setattr(training, "secure_sigmoid", spy)
    eng = PlainEngine(MaterialSource(seed, ring), ring)
    train_pipeline(eng, owner_rows(eng, X), enc_pub(eng, t), tc)
    (bound,) = bounds
    return seen[0], bound


def test_sigmoid_input_stays_within_its_public_bound(monkeypatch):
    # from the zero init |w| grows toward the minimizer, at most R / lambda;
    # identical rows with one label drive it furthest along them, on the
    # default ring and the finest
    n, m, seed = 8, 4, 50
    X, _ = synth_data(n, m, seed=51, separability=1.0)
    aligned = np.tile(np.random.default_rng(52).uniform(-1, 1, m), (n, 1))
    ratios = []
    for ring in (RING, RingConfig(22)):
        for data in (X, aligned):
            for t in (np.zeros(n), np.ones(n), np.arange(n) % 2.0):
                for lam, bias in ((0.45, False), (0.9, True), (0.25, False), (0.1, True)):
                    tc = TrainingConfig(lambda_reg=lam, add_bias=bias)
                    top, bound = _largest_sigmoid_input(monkeypatch, data, t, tc, seed, ring)
                    assert bound == sigmoid_input_bound(tc, n, m + bias, ring)
                    assert top <= bound
                    ratios.append(top / bound)
        # about R^2 / lambda: 2.2223 at lambda 0.45, just below the linear
        # tier, and with the bias column at 0.9, both bounded; the clamp
        # runs from lambda 1/4 (4.0002)
        assert sigmoid_input_bound(TrainingConfig(lambda_reg=0.45), n, m,
                                   ring) == pytest.approx(1 / 0.45, abs=2e-4)
        assert sigmoid_input_bound(TrainingConfig(lambda_reg=0.9, add_bias=True), n, m + 1,
                                   ring) == pytest.approx(2 / 0.9, abs=2e-4)
        assert sigmoid_input_bound(TrainingConfig(lambda_reg=0.25), n, m, ring) > SIGMOID_BOUND
    print(f"largest |z| / B over the sweep: {max(ratios):.3f}")


def test_polynomial_sigmoid_slope_stays_in_the_smoothness_constant():
    # L = lambda + R^2 (1/4 + SLOPE_SLACK) needs each sigmoid's slope in
    # [0, 1/4 + SLOPE_SLACK], with its coefficients as fitted and as
    # encoded: the bounded one on |z| <= 4 (t = z/4); the clamped one on
    # |z| <= 8 (t = z/8; beyond, the clamp holds its value), on every ring
    # from 13 fractional bits, as _poly_2l encodes it there (the top
    # coefficients at top_bits where the power chain keeps them at 2l
    # bits); at 12, rounding its coefficients to 2^-13 breaks it
    def within(coeffs, bound):
        t = np.linspace(-1, 1, 80_001)
        v = 2 * t ** 2 - 1
        q = np.polynomial.Polynomial(coeffs)
        slope = (q(v) + 4 * t ** 2 * q.deriv()(v)) / bound
        assert slope.min() >= 0
        assert slope.max() <= 0.25 + SLOPE_SLACK

    within(SIG4_POWER, 4)
    within(decode(encode(np.array(SIG4_POWER), RING), RING), 4)
    within(SIG_POWER, 8)
    for l in range(13, 23):
        top = kernels.top_bits(l, SIG_POWER[9:])
        bits = [l] * 9 + [top if top >= min(l, kernels.TOP_COEFF_BITS) else l] * 4
        within([round(a * 2.0 ** b) / 2.0 ** b for a, b in zip(SIG_POWER, bits)], 8)


def test_forward_magnitude_width_follows_the_input_bound():
    # 12 bits for every lambda whose bound is below 2^12, so no transcript
    # of today's settings moves; more bits above, up to the ring's integer
    # range 2^(int_bits - 1), past which the lambda is refused
    n, d = 300, 12
    for lam in (1.0, 0.25, 2.0 ** -10):
        assert forward_magnitude_bits(sigmoid_input_bound(TrainingConfig(lambda_reg=lam), n, d,
                                                          RING), RING) == 12
    bound = sigmoid_input_bound(TrainingConfig(lambda_reg=2.0 ** -15), n, d, RING)
    assert 2.0 ** 14 < bound < 2.0 ** 15
    assert forward_magnitude_bits(bound, RING) == 15
    assert forward_magnitude_bits(np.nextafter(2.0 ** 22, 0), RING) == 22
    for bound in (2.0 ** 22, np.inf):
        with pytest.raises(VeiltrainError, match="lambda_reg"):
            forward_magnitude_bits(bound, RING)
    # the bound passes 2^22 at lambda 2^-23; from 2^-24, 1 - alpha lambda
    # encodes as 1 and the bound is infinite
    for lam, bound in ((2.0 ** -23, 8.356e6), (2.0 ** -24, np.inf)):
        tc = TrainingConfig(lambda_reg=lam)
        assert sigmoid_input_bound(tc, n, d, RING) == pytest.approx(bound, rel=1e-3)
        eng = plain(63)
        with pytest.raises(VeiltrainError, match="lambda_reg"):
            train_pipeline(eng, eng.zeros((n, d)), eng.zeros(n), tc)
        assert eng.counts() == {}  # refused before any round


@pytest.mark.parametrize("frac_bits", [12, 13, 14])
def test_the_clamped_tier_is_refused_below_14_fractional_bits(frac_bits):
    # below 14 bits SIG_POWER as encoded is not monotone (its slope dips to
    # -4.0e-4 at 12) and its outputs beyond the clamp take two values (12
    # and 13): training on the clamped tier is refused there before any
    # round, naming lambda, R^2/2 and the ring. The degree-6 tier (lambda
    # 0.45, its bound below 4) and the linear tier still train
    ring = RingConfig(frac_bits)
    n, d = 20, 3
    clamped = TrainingConfig(lambda_reg=0.25)
    assert sigmoid_input_bound(clamped, n, d, ring) > SIGMOID_BOUND
    assert sigmoid_input_bound(TrainingConfig(lambda_reg=0.45), n, d, ring) <= SIGMOID_BOUND
    for tc in (clamped, TrainingConfig(lambda_reg=0.45), TrainingConfig()):
        eng = PlainEngine(MaterialSource(64, ring), ring)
        run = functools.partial(train_pipeline, eng, eng.zeros((n, d)), eng.zeros(n), tc)
        if tc is clamped and frac_bits < CLAMPED_SIGMOID_MIN_FRAC_BITS:
            with pytest.raises(InvalidArgument, match=r"^lambda_reg = 0.25 is below R\^2/2 = "
                               rf"0.5 .* frac_bits >= 14; frac_bits = {frac_bits}$"):
                run()
            assert eng.counts() == {}
        else:
            run()
            assert eng.counts()
    assert CLAMPED_SIGMOID_MIN_FRAC_BITS == 14


@pytest.mark.parametrize("bias", [False, True])
def test_mirror_sensitivity_within_the_calibration(bias):
    # neighbouring datasets (one row replaced, its label flipped): the
    # trained weights differ by at most 2R/(n lambda), plus each run's
    # fixed-point error. On the linear tier (lambda 1; the bias column sits
    # at its edge, B = 2) the surrogate's derivative is at most 1, so the
    # gradient moves by at most 2R/n, and the recurrence runs 2^k steps.
    # Its fixed-point term: each of its k + 2 rounds truncates P and v once,
    # an ulp per entry, and the row scaling adds at most alpha ulps to each
    # entry of the Gram's; an error in v is at most sqrt(d) ulps, one in P
    # reaches w through |v| <= V = R (1/2 + B/4) / lambda and is at most d
    # ulps, and the doublings left, like the contraction, amplify either by
    # at most 1/(1 - rate) = 1/(alpha lambda). So a run errs by at most
    # (k + 2)(1 + alpha)(sqrt(d) + d V) ulps / (alpha lambda), and the pair
    # by twice that. At lambda 1/4 (below R^2/2, and |x . w| bounded above
    # 4) the step loop runs the clamped sigmoid. The loss's derivative,
    # sigma - t, is then at most 1 plus the sigmoid's error, and a step
    # errs by an ulp on each coordinate of w and of the pending gradient,
    # alpha ulps on each from the row scaling, and alpha R times the
    # error's: an ulp from its truncation, and the 8 ulps of the sigmoid's
    # rounding that sigmoid_input_bound allows. The contraction amplifies
    # that by at most 1/(alpha lambda)
    for lam in (1.0, 0.25):
        _within_the_calibration(TrainingConfig(lambda_reg=lam, add_bias=bias))


def _within_the_calibration(tc):
    n, m = 24, 4
    d, r2, ulp = m + tc.add_bias, 1 + tc.add_bias, 2.0 ** -RING.frac_bits
    derivative = 1.0
    if tc.linear:
        k = doublings(tc.steps(RING))
        assert takes_recurrence(n, d, tc.steps(RING))
        big_b = 2 * r2 / (4 * tc.lambda_reg - r2)
        v = tc.row_norm * (0.5 + big_b / 4) / tc.lambda_reg
        step = (k + 2) * (1 + tc.alpha) * (np.sqrt(d) + d * v) * ulp
    else:
        assert sigmoid_input_bound(tc, n, d, RING) > SIGMOID_BOUND
        derivative += kernels.KERNEL_TOLERANCES["sigmoid"].bound
        step = ((2 + tc.alpha) * np.sqrt(d) + 9 * tc.alpha * tc.row_norm) * ulp
    run = step / (tc.alpha * tc.lambda_reg)
    bound = 2 * tc.row_norm * derivative / (n * tc.lambda_reg) + 2 * run
    rng = np.random.default_rng(60)
    gaps = []
    for pair in range(24):
        X, t = synth_data(n, m, seed=61 + pair, separability=1.0)
        X2, t2 = X.copy(), t.copy()
        i = pair % n
        X2[i] = -X[i] if pair % 2 else rng.uniform(-1, 1, m)
        t2[i] = 1 - t[i]
        gap = np.linalg.norm(mirror_weights(X, t, tc, seed=62) - mirror_weights(X2, t2, tc, seed=62))
        assert gap <= bound
        gaps.append(gap)
    print(f"lambda {tc.lambda_reg:g}: largest gap / (2R/(n lambda)): {max(gaps) * n * tc.lambda_reg / (2 * tc.row_norm):.3f}")


def _surrogate_descent(X, t, tc, steps):
    """Gradient descent in doubles on the linear tier's surrogate, from zero,
    on X's rows as their owner encodes them (l2_normalize)."""
    X = decode(l2_normalize(X, RING), RING)
    if tc.add_bias:
        X = np.hstack([X, np.ones((len(X), 1))])
    w = np.zeros(X.shape[1])
    for _ in range(steps):
        w = w - tc.alpha * (X.T @ (X @ w / 4 + 0.5 - t) / len(t) + tc.lambda_reg * w)
    return w


def test_linear_tier_lands_within_4_ulps_of_surrogate_descent():
    # the recurrence's 2^k steps, and the loop's T, against as many steps
    # in doubles: over these shapes and seeds the largest distance is 3.1
    # ulps (the fixed-point term bounding it is derived in
    # test_mirror_sensitivity_within_the_calibration)
    shapes = ((300, 12, 1.0, False), (300, 12, 1.0, True), (2000, 12, 1.0, False),
              (300, 12, 0.5, False), (60, 30, 1.0, False))
    for seed in range(4):
        for n, m, lam, bias in shapes:
            X, t = synth_data(n, m, seed=70 + seed, separability=1.0)
            tc = TrainingConfig(lambda_reg=lam, add_bias=bias)
            steps = tc.steps(RING)
            gram = takes_recurrence(n, m + bias, steps)
            assert gram == (m < 30)
            want = _surrogate_descent(X, t, tc, 2 ** doublings(steps) if gram else steps)
            gap = np.abs(mirror_weights(X, t, tc, seed=71) - want).max()
            assert gap <= 4 * 2.0 ** -RING.frac_bits


def test_the_linear_tier_takes_the_recurrence_where_it_deals_fewer_triples():
    # the Gram's n d (d + 3)/2 products and the doublings' against the
    # loop's n d (2T - 1): at T = 7 and 2000 rows the crossover is at d = 23
    assert takes_recurrence(2000, 22, 7) and not takes_recurrence(2000, 23, 7)
    assert takes_recurrence(300, 12, 7) and not takes_recurrence(2000, 50, 7)
    assert not takes_recurrence(300, 12, 1)  # one step: nothing to double
    # the rule's counts are the dry run's triples
    tc = TrainingConfig()
    steps = tc.steps(RING)
    for n, d in ((40, 6), (40, 20)):
        gram = takes_recurrence(n, d, steps)
        pairs, k = d * (d + 3) // 2, doublings(steps)
        want = n * pairs + (k - 1) * d * pairs + d * d if gram else n * d * (2 * steps - 1)
        counts = estimate_counts(lambda eng: train_pipeline(eng, eng.zeros((n, d)), eng.zeros(n),
                                                            tc), 0, RING)
        assert gram == (d == 6) and counts[("triple",)] == want
