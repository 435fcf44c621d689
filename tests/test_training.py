import numpy as np
import pytest

from veiltrain.cleartext import normalize_rows, sigmoid, train_lr_clear
from veiltrain.dealer import MaterialSource
from veiltrain.datasets import synth_data
from veiltrain.engine import PlainEngine, estimate_counts
from veiltrain.fixedpoint import RingConfig, decode, encode, to_signed
from veiltrain.kernels import KERNEL_TOLERANCES, SIGMOID_BOUND
from veiltrain.training import (ModelState, TrainingConfig, glorot_init,
                                glorot_limit, l2_normalize, backward, forward, mean_bits,
                                row_norm_domain, scale_rows, sigmoid_input_bound, train_pipeline,
                                update)

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


def test_normalize_3_4_5():
    eng = plain()
    got = decode(eng.open(l2_normalize(eng, enc_pub(eng, np.array([3.0, 4.0])))), RING)
    assert np.abs(got - [0.6, 0.8]).max() <= 1e-3


def test_normalize_unit_vector_idempotent():
    eng = plain(2)
    e1 = np.zeros(8)
    e1[0] = 1.0
    got = decode(eng.open(l2_normalize(eng, enc_pub(eng, e1))), RING)
    assert np.abs(got - e1).max() <= 1e-3


def test_normalize_wide_binary_vector():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 2, 1874).astype(float)
    eng = plain(4)
    got = decode(eng.open(l2_normalize(eng, enc_pub(eng, x))), RING)
    assert abs(np.linalg.norm(got) - 1.0) <= 1e-3


def test_normalize_batch_of_rows():
    rng = np.random.default_rng(5)
    X = rng.uniform(-5, 5, (30, 12))
    eng = plain(6)
    got = decode(eng.open(l2_normalize(eng, enc_pub(eng, X))), RING)
    assert np.abs(np.linalg.norm(got, axis=1) - 1.0).max() <= 1e-3


@pytest.mark.parametrize("frac_bits", [16, 20, 24])
def test_normalize_within_its_tolerance_across_the_ingest_domain(frac_bits):
    ring = RingConfig(64, frac_bits)
    floor, cap = row_norm_domain(ring)
    rng = np.random.default_rng(44)
    squared = np.exp2(rng.uniform(np.log2(floor), np.log2(cap), 2000))
    squared[:2] = floor * 1.001, cap * 0.999
    X = rng.normal(size=(2000, 12))
    X = encode(X * np.sqrt(squared / np.sum(X ** 2, axis=1))[:, None], ring)
    X[-1] = 0
    exact = np.sum(decode(X, ring) ** 2, axis=1)
    assert np.all((exact == 0) | ((exact >= floor) & (exact <= cap)))
    eng = PlainEngine(MaterialSource(45, ring), ring)
    norms = np.linalg.norm(decode(eng.open(l2_normalize(eng, X)), ring), axis=1)
    assert np.abs(norms[:-1] - 1).max() <= KERNEL_TOLERANCES["normalize"].bound
    assert norms[-1] == 0


def test_glorot_deterministic_and_bounded():
    a = decode(glorot_init(plain(7), 10_000), RING)
    b = decode(glorot_init(plain(7), 10_000), RING)
    assert np.array_equal(a, b)
    limit = glorot_limit(10_000)
    assert np.abs(a).max() <= limit
    # draws actually use the range
    assert np.abs(a).max() > 0.5 * limit


def _state(eng, w, v=None):
    """Model state holding w and v (zeros by default) at 2l fractional bits."""
    v = np.zeros_like(w) if v is None else v
    return ModelState(*(enc2l(eng, a) for a in (w, v)))


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
    rng = np.random.default_rng(25)
    w, v = rng.uniform(-1, 1, 6), rng.uniform(-0.1, 0.1, 6)
    eng = plain(26)
    _, _, w_l, v_l = forward(eng, enc_pub(eng, rng.uniform(-1, 1, (4, 6))), _state(eng, w, v))
    assert np.abs(decode(eng.open(w_l), RING) - w).max() <= 2**-20
    assert np.abs(decode(eng.open(v_l), RING) - v).max() <= 2**-20


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


def test_backward_zero_when_predictions_match():
    rng = np.random.default_rng(13)
    X = normalize_rows(rng.uniform(-1, 1, (10, 4)))
    t = rng.integers(0, 2, 10).astype(float)
    eng = plain(14)
    scaled = scale_rows(eng, enc_pub(eng, X), 10, 1.0)
    g = _gradient(eng, backward(eng, scaled, enc2l(eng, t), enc_pub(eng, t)), 10)
    assert np.abs(g).max() <= 2**-18


def test_backward_single_example():
    eng = plain(15)
    X = np.zeros((1, 3))
    X[0, 0] = 1.0
    preds = np.array([0.75])
    t = np.array([0.25])
    scaled = scale_rows(eng, enc_pub(eng, X), 1, 1.0)
    g = _gradient(eng, backward(eng, scaled, enc2l(eng, preds), enc_pub(eng, t)), 1)
    assert np.abs(g - [0.5, 0.0, 0.0]).max() <= 2**-16


def test_backward_is_the_mean_gradient_of_every_batch():
    # alpha / b for batches of 128 and 44 rows is folded into the rows'
    # scale and the truncation's shift
    rng = np.random.default_rng(27)
    X = normalize_rows(rng.uniform(-1, 1, (300, 5)))
    p = rng.uniform(0, 1, 300)
    t = rng.integers(0, 2, 300).astype(float)
    eng = plain(28)
    for alpha in (1.0, 0.1):
        scaled = scale_rows(eng, enc_pub(eng, X), 128, alpha)
        for at in (0, 128, 256):
            rows = slice(at, at + 128)
            b = len(t[rows])
            g = _gradient(eng, backward(eng, scaled[rows], enc2l(eng, p[rows]),
                                        enc_pub(eng, t[rows])), b, alpha)
            want = alpha * X[rows].T @ (p[rows] - t[rows]) / b
            assert np.abs(g - want).max() <= 2**-17


def test_backward_matches_mirror_on_200x20():
    rng = np.random.default_rng(16)
    X = normalize_rows(rng.uniform(-1, 1, (200, 20)))
    p = rng.uniform(0, 1, 200)
    t = rng.integers(0, 2, 200).astype(float)

    def fn(eng):
        return eng.open(backward(eng, scale_rows(eng, enc_pub(eng, X), 200, 0.1),
                                 enc2l(eng, p), enc_pub(eng, t)))

    (r0, _), _ = run_both(fn, seed=17)
    assert np.array_equal(r0, fn(plain(17)))


def _run_update(eng, w, v, g, cfg):
    """The state after one update from w and v with the mean gradient g:
    alpha g enters at l bits, as the pending gradient the next forward
    pass truncates."""
    l = eng.frac_bits
    w_l = enc_pub(eng, w)
    v_l = enc_pub(eng, v)
    state = ModelState(eng.mul_public_int(w_l, 1 << l), eng.mul_public_int(v_l, 1 << l))
    new = update(eng, state, w_l, v_l, enc_pub(eng, cfg.alpha * g), l, cfg)
    pending = decode(eng.open(new.grad), RING)
    return dec2l(eng, new.w2l) + pending, dec2l(eng, new.v2l) + pending


def test_update_plain_gd_when_degenerate():
    eng = plain(18)
    w = np.array([0.5, -0.25])
    g = np.array([0.125, 0.5])
    cfg = TrainingConfig(alpha=0.125, lambda_reg=0.0, momentum=0.0, epochs=1)
    w2, v2 = _run_update(eng, w, np.zeros(2), g, cfg)
    assert np.abs(w2 - (w - 0.125 * g)).max() <= 2**-19


def test_update_pure_weight_decay():
    eng = plain(19)
    w = np.array([1.0, -2.0])
    cfg = TrainingConfig(alpha=0.25, lambda_reg=1.0, momentum=0.0, epochs=1)
    w2, _ = _run_update(eng, w, np.zeros(2), np.zeros(2), cfg)
    assert np.abs(w2 - (1 - 0.25) * w).max() <= 2**-19


def test_update_zero_communication():
    rng = np.random.default_rng(20)
    w = rng.uniform(-1, 1, 6)
    g = rng.uniform(-1, 1, 6)
    cfg = TrainingConfig(epochs=1)

    def fn(eng):
        l = eng.frac_bits
        w_l = enc_pub(eng, w)
        v_l = eng.zeros(6)
        state = ModelState(eng.mul_public_int(w_l, 1 << l), eng.zeros(6))
        before = eng.rt.transcript.n_rounds if hasattr(eng, "rt") else 0
        update(eng, state, w_l, v_l, enc_pub(eng, g), l, cfg)
        return (eng.rt.transcript.n_rounds if hasattr(eng, "rt") else 0) - before

    (rounds0, rounds1), engines = run_both(fn, seed=21)
    assert rounds0 == rounds1 == 0


def test_update_bit_exact_vs_mirror():
    rng = np.random.default_rng(22)
    w = rng.uniform(-1, 1, 5)
    v = rng.uniform(-0.1, 0.1, 5)
    g = rng.uniform(-1, 1, 5)
    cfg = TrainingConfig()

    def fn(eng):
        l = eng.frac_bits
        state = ModelState(eng.mul_public_int(enc_pub(eng, w), 1 << l),
                           eng.mul_public_int(enc_pub(eng, v), 1 << l))
        new = update(eng, state, enc_pub(eng, w), enc_pub(eng, v), enc_pub(eng, g), l, cfg)
        return eng.open(eng.stack([new.w2l, new.grad]))

    (r0, _), _ = run_both(fn, seed=23)
    assert np.array_equal(r0, fn(plain(23)))


def test_train_zero_epochs_returns_init():
    rng = np.random.default_rng(24)
    X = rng.uniform(-1, 1, (10, 4))
    t = rng.integers(0, 2, 10).astype(float)
    tc = TrainingConfig(epochs=0, skip_norm=True)
    eng = plain(25)
    w = eng.open(train_pipeline(eng, enc_pub(eng, X), enc_pub(eng, t), tc))
    init = glorot_init(plain(25), 4)
    assert np.array_equal(w, init)


def test_train_separable_sign():
    # single informative feature: the learned weight sign must match
    X = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    t = np.array([1.0, 1.0, 0.0, 0.0])
    tc = TrainingConfig(epochs=60, skip_norm=True)
    eng = plain(26)
    w = decode(eng.open(train_pipeline(eng, enc_pub(eng, X), enc_pub(eng, t), tc)), RING)
    ref = train_lr_clear(X, t, tc, seed=26)
    assert np.sign(w[0]) == np.sign(ref.weights[0]) == 1.0


def test_train_mirror_bit_exact_50x5():
    X, t = synth_data(50, 5, seed=30, separability=1.0)
    tc = TrainingConfig(epochs=20)

    def fn(eng):
        return eng.open(train_pipeline(eng, enc_pub(eng, X), enc_pub(eng, t), tc))

    (r0, r1), _ = run_both(fn, seed=31)
    mirror = mirror_weights(X, t, tc, seed=31)
    assert np.array_equal(r0, encode(mirror, RING))
    assert np.array_equal(r1, encode(mirror, RING))


def test_training_loss_monotone_shadow():
    X, t = synth_data(80, 8, seed=32, separability=1.0)
    Xn = normalize_rows(X)
    losses = []
    for epochs in range(0, 51, 10):
        w = mirror_weights(X, t, TrainingConfig(epochs=epochs), seed=33)
        losses.append(regularized_loss(w, Xn, t, 1.0))
    assert all(b - a <= 1e-3 for a, b in zip(losses, losses[1:]))


def test_partition_independence_of_training():
    from veiltrain.datasets import make_plan, partition
    from veiltrain.ingest import ingest_partitions

    X, t = synth_data(48, 8, seed=34, separability=1.0)
    tc = TrainingConfig(epochs=5)
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
    assert np.array_equal(outputs[0], outputs[2])


def test_bias_column_appended_after_normalization():
    rng = np.random.default_rng(37)
    X = rng.uniform(-2, 2, (12, 3))
    t = rng.integers(0, 2, 12).astype(float)
    tc = TrainingConfig(epochs=0, add_bias=True)
    eng = plain(38)
    w = eng.open(train_pipeline(eng, enc_pub(eng, X), enc_pub(eng, t), tc))
    assert len(w) == 4  # bias coefficient present


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(alpha=0.0)
    with pytest.raises(ValueError):
        TrainingConfig(momentum=1.0)
    with pytest.raises(ValueError):
        TrainingConfig(epochs=-1)


def test_training_consumes_the_dry_run_exactly():
    X, t = synth_data(20, 4, seed=42, separability=1.0)
    tc = TrainingConfig(epochs=2, batch_size=8)

    def fn(eng):
        return eng.open(train_pipeline(eng, enc_pub(eng, X), enc_pub(eng, t), tc))

    counts = estimate_counts(fn, 43, RING)
    assert {key[0] for key in counts} == {"trunc", "triple", "bit"}
    _, engines = run_both(fn, seed=43, counts=counts)
    for eng in engines:
        assert {k: v for k, v in eng.material.pos.items() if isinstance(k, tuple)} == counts


def test_minibatch_mirror_bit_exact():
    X, t = synth_data(30, 4, seed=40, separability=1.0)
    tc = TrainingConfig(epochs=4, batch_size=8)

    def fn(eng):
        return eng.open(train_pipeline(eng, enc_pub(eng, X), enc_pub(eng, t), tc))

    (r0, _), _ = run_both(fn, seed=41)
    mirror = mirror_weights(X, t, tc, seed=41)
    assert np.array_equal(r0, encode(mirror, RING))
    # mini-batch training differs from full batch
    full = mirror_weights(X, t, TrainingConfig(epochs=4), seed=41)
    assert not np.array_equal(mirror, full)


@pytest.mark.parametrize("batch, steps", [(0, 1), (4, 3)])
@pytest.mark.parametrize("alpha, sigmoid_rounds", [(0.1, 6), (2.0, 13)])
def test_every_step_costs_its_pinned_rounds(batch, steps, alpha, sigmoid_rounds):
    # an epoch adds per step: forward 1 (the weights' and the last gradient's
    # truncations with the product), the sigmoid (bounded 6; clamped 13, as
    # the large step's bound exceeds 4; its output stays at 2l bits),
    # backward 1 (the error's truncation with the product); nothing else
    X, t = synth_data(12, 4, seed=46, separability=1.0)

    def rounds(epochs):
        tc = TrainingConfig(alpha=alpha, epochs=epochs, batch_size=batch)
        assert (sigmoid_input_bound(tc, 12, 4, RING) <= SIGMOID_BOUND) == (sigmoid_rounds == 6)

        def fn(eng):
            train_pipeline(eng, enc_pub(eng, X), enc_pub(eng, t), tc)

        _, engines = run_both(fn, seed=47)
        return {p: v["rounds"] for p, v in engines[0].rt.transcript.by_path().items()}

    one, two = rounds(2), rounds(3)
    added = {p: two[p] - one.get(p, 0) for p in two if two[p] != one.get(p, 0)}
    assert added == {"forward": steps, "sigmoid": sigmoid_rounds * steps, "backward": steps}


def _largest_sigmoid_input(monkeypatch, X, t, tc, seed):
    """Mirror training: the largest |z| the sigmoid sees, and the bound it is given."""
    from veiltrain import training

    seen, bounds = [0.0], set()
    real = training.secure_sigmoid

    def spy(eng, z, **kw):
        top = float(np.abs(to_signed(z, eng.cfg)).max()) / 2.0 ** kw["frac_bits"]
        seen[0] = max(seen[0], top)
        bounds.add(kw["bound"])
        return real(eng, z, **kw)

    monkeypatch.setattr(training, "secure_sigmoid", spy)
    eng = plain(seed)
    train_pipeline(eng, enc_pub(eng, X), enc_pub(eng, t), tc)
    (bound,) = bounds
    return seen[0], bound


def test_sigmoid_input_stays_within_its_public_bound(monkeypatch):
    n, m, seed = 8, 4, 50
    X, _ = synth_data(n, m, seed=51, separability=1.0)
    aligned = np.tile(decode(glorot_init(plain(seed), m), RING), (n, 1))  # rows along w0
    ratios = []
    for data in (X, aligned):
        for t in (np.zeros(n), np.ones(n), np.arange(n) % 2.0):
            for batch, bias in ((0, False), (4, False), (1, False), (0, True)):
                tc = TrainingConfig(epochs=40 if batch == 0 else 10, batch_size=batch,
                                    add_bias=bias)
                top, bound = _largest_sigmoid_input(monkeypatch, data, t, tc, seed)
                assert bound == sigmoid_input_bound(tc, n, m + bias, RING)
                assert top <= bound
                ratios.append(top / bound)
    # the bias column's sqrt(2) on the row norms selects the clamped sigmoid
    assert sigmoid_input_bound(TrainingConfig(epochs=40), n, m, RING) <= SIGMOID_BOUND
    assert sigmoid_input_bound(TrainingConfig(epochs=40, add_bias=True), n, m + 1,
                               RING) > SIGMOID_BOUND
    assert sigmoid_input_bound(TrainingConfig(skip_norm=True), n, m, RING) == np.inf
    print(f"largest |z| / B over the sweep: {max(ratios):.3f}")
