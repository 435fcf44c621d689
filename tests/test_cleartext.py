import numpy as np
import pytest
from scipy.optimize import minimize

from veiltrain.cleartext import (ClearModel, baseline_fl, normalize_rows, perturb_clear,
                                 sigmoid, train_lr_clear)
from veiltrain.datasets import evaluate, synth_data
from veiltrain.errors import VerticalUnsupported
from veiltrain.noise import DpParams
from veiltrain.training import TrainingConfig


def test_normalize_rows_neither_overflows_nor_underflows():
    X = np.array([[1e200, 1e200], [1e-320, 0.0], [0.0, 0.0]])
    with np.errstate(all="raise"):
        Xn = normalize_rows(X)
    assert np.allclose(Xn, [[2 ** -0.5, 2 ** -0.5], [1.0, 0.0], [0.0, 0.0]], rtol=0, atol=1e-15)


def test_float_trainer_separable_2d():
    rng = np.random.default_rng(0)
    n = 200
    X = rng.normal(size=(n, 2))
    t = (X[:, 0] + X[:, 1] > 0).astype(float)
    tc = TrainingConfig(lambda_reg=0.01)
    m = train_lr_clear(X, t, tc, seed=1)
    preds = (X @ m.weights > 0).astype(float)
    assert np.mean(preds == t) == 1.0


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("lam", [1.0, 0.1])
def test_float_trainer_reaches_the_regularized_minimizer(lam, bias):
    # the derived schedule (alpha = 2/(L + mu), steps to one ulp) ends at
    # the minimizer of the regularized loss
    X, t = synth_data(300, 12, seed=19, separability=1.0)
    Xn = normalize_rows(X)
    if bias:
        Xn = np.hstack([Xn, np.ones((len(Xn), 1))])

    def loss(w):
        z = Xn @ w
        return np.mean(np.logaddexp(0.0, z) - t * z) + 0.5 * lam * w @ w

    def grad(w):
        return Xn.T @ (sigmoid(Xn @ w) - t) / len(t) + lam * w

    best = minimize(loss, np.zeros(Xn.shape[1]), jac=grad, method="BFGS",
                    options={"gtol": 1e-12}).x
    model = train_lr_clear(X, t, TrainingConfig(lambda_reg=lam, add_bias=bias), seed=1)
    assert np.abs(model.weights - best).max() <= 2.0 ** -19


def test_strong_regularization_shrinks_weights():
    X, t = synth_data(200, 10, seed=2, separability=1.0)
    norms = []
    for lam in (1.0, 100.0, 1000.0):
        m = train_lr_clear(X, t, TrainingConfig(lambda_reg=lam), seed=3)
        norms.append(np.linalg.norm(m.weights))
    assert norms[0] > norms[1] > norms[2]


def test_perturb_clear_infinite_epsilon():
    model = ClearModel(np.array([0.5, -0.5, 1.0]))
    dp = DpParams(epsilon=1e12, lambda_reg=1.0, n=100, d=3)
    rng = np.random.default_rng(4)
    noisy = perturb_clear(model, dp, rng)
    assert np.abs(noisy.weights - model.weights).max() < 1e-6


def test_perturb_clear_expected_norm():
    d, n_owner, eps = 8, 400, 1.0
    dp = DpParams(epsilon=eps, lambda_reg=1.0, n=n_owner, d=d)
    model = ClearModel(np.zeros(d))
    rng = np.random.default_rng(5)
    norms = [np.linalg.norm(perturb_clear(model, dp, rng).weights)
             for _ in range(10_000)]
    want = d * 2.0 / (n_owner * eps * 1.0)
    assert abs(np.mean(norms) - want) <= 0.03 * want


def test_perturb_clear_deterministic_given_seed():
    model = ClearModel(np.arange(4, dtype=float))
    dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=50, d=4)
    a = perturb_clear(model, dp, np.random.default_rng(6)).weights
    b = perturb_clear(model, dp, np.random.default_rng(6)).weights
    assert np.array_equal(a, b)


def test_baseline_single_owner_is_train_plus_perturb():
    X, t = synth_data(120, 6, seed=7, separability=1.0)
    tc = TrainingConfig()
    model = baseline_fl([(X, t)], tc, epsilon=1.0, rng=np.random.default_rng(8))
    trained = train_lr_clear(X, t, tc)
    dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=len(X), d=6)
    reference = perturb_clear(trained, dp, np.random.default_rng(8))
    assert np.array_equal(model.weights, reference.weights)


def test_baseline_identical_owners_infinite_epsilon():
    X, t = synth_data(100, 5, seed=10, separability=1.0)
    tc = TrainingConfig()
    model = baseline_fl([(X, t), (X, t)], tc, epsilon=1e12, rng=np.random.default_rng(11))
    # both owners train the same model; with eps -> inf the average is it
    assert np.abs(model.weights - train_lr_clear(X, t, tc).weights).max() < 1e-6


def test_baseline_rejects_vertical():
    X, t = synth_data(60, 8, seed=14, separability=1.0)
    with pytest.raises(VerticalUnsupported):
        baseline_fl([(X[:, :3], t), (X[:, 3:], t)], TrainingConfig(),
                    epsilon=1.0, rng=np.random.default_rng(15))


def test_baseline_noise_uses_owner_counts():
    # with very different owner sizes, the noise scale must follow each
    # owner's n: tiny owners produce much larger perturbations
    X, t = synth_data(1100, 6, seed=16, separability=1.0)
    tc = TrainingConfig()
    big = (X[:1000], t[:1000])
    small = (X[1000:], t[1000:])
    rng = np.random.default_rng(17)
    deltas = {"big": [], "small": []}
    for name, owner in (("big", big), ("small", small)):
        trained = train_lr_clear(owner[0], owner[1], tc, seed=18)
        dp = DpParams(epsilon=1.0, lambda_reg=1.0, n=len(owner[0]), d=6)
        for _ in range(300):
            noisy = perturb_clear(trained, dp, rng)
            deltas[name].append(np.linalg.norm(noisy.weights - trained.weights))
    assert np.mean(deltas["small"]) > 5 * np.mean(deltas["big"])

