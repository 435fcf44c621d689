import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veiltrain.cleartext import train_lr_clear
from veiltrain.datasets import (evaluate, load_csv, make_plan, partition,
                                save_csv, stratified_folds, synth_data)
from veiltrain.errors import (DimensionMismatch, LabelDomainError, ParseError,
                              PlanInvalid, VeiltrainError)
from veiltrain.harness import hash_array
from veiltrain.training import TrainingConfig


def test_load_csv_well_formed(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,label\n1.0,2.0,1\n3.5,-1.0,0\n0,0,1\n")
    X, t = load_csv(path)
    assert X.shape == (3, 2)
    assert np.array_equal(t, [1, 0, 1])


def test_load_csv_label_domain(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,label\n1.0,1\n2.0,2\n")
    with pytest.raises(LabelDomainError) as info:
        load_csv(path)
    assert info.value.line == 3


def test_load_csv_parse_error_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,label\n1.0,1\nnope,0\n")
    with pytest.raises(ParseError, match="line 3"):
        load_csv(path)


def test_load_csv_wide_schema(tmp_path):
    # the competition scale: 1874 boolean attribute columns
    rng = np.random.default_rng(0)
    X = rng.integers(0, 2, (3, 1874)).astype(float)
    t = np.array([0.0, 1.0, 1.0])
    path = tmp_path / "wide.csv"
    save_csv(path, X, t)
    X2, t2 = load_csv(path)
    assert X2.shape == (3, 1874)
    assert np.array_equal(X, X2) and np.array_equal(t, t2)


def test_partition_horizontal_even():
    plan = make_plan("horizontal", 2, 10, 4)
    assert plan.ranges == ((0, 5), (5, 10))


def test_partition_vertical_1874():
    plan = make_plan("vertical", 2, 100, 1874)
    assert plan.ranges == ((0, 937), (937, 1874))


def test_partition_uneven_blocks():
    plan = make_plan("horizontal", 3, 10, 4)
    sizes = [stop - start for start, stop in plan.ranges]
    assert sorted(sizes) == [3, 3, 4] and sum(sizes) == 10


def test_partition_invalid():
    with pytest.raises(PlanInvalid):
        make_plan("horizontal", 11, 10, 4)
    with pytest.raises(PlanInvalid):
        make_plan("diagonal", 2, 10, 4)


def reassemble(parts, plan):
    """Inverse of partition: stack the owners' blocks back in plan order."""
    if plan.mode == "horizontal":
        X = np.vstack([p[0] for p in parts])
        t = np.concatenate([p[1] for p in parts])
    else:
        X = np.hstack([p[0] for p in parts])
        t = parts[0][1]
    return X, t


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 30), st.integers(2, 12), st.integers(1, 6),
       st.sampled_from(["horizontal", "vertical"]), st.integers(0, 2**31))
def test_partition_reassemble_identity(n, m, k, mode, seed):
    k = min(k, n if mode == "horizontal" else m)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    t = rng.integers(0, 2, n).astype(float)
    plan = make_plan(mode, k, n, m)
    X2, t2 = reassemble(partition(X, t, plan), plan)
    assert np.array_equal(X, X2) and np.array_equal(t, t2)


def test_synth_calibration_separable():
    # frozen from the generator calibration run: m=30, seed=1
    X, t = synth_data(2000, 30, seed=1, separability=1.0)
    te = stratified_folds(t, 5, 1) == 0
    m = train_lr_clear(X[~te], t[~te], TrainingConfig(), seed=5)
    assert evaluate(m.weights, X[te], t[te]) >= 0.95


def test_synth_zero_separability_is_noise():
    X, t = synth_data(2000, 30, seed=1, separability=0.0)
    te = stratified_folds(t, 5, 1) == 0
    m = train_lr_clear(X[~te], t[~te], TrainingConfig(), seed=5)
    assert abs(evaluate(m.weights, X[te], t[te]) - 0.5) <= 0.05


def test_synth_deterministic_hash():
    X1, t1 = synth_data(100, 10, seed=9, separability=0.8)
    X2, t2 = synth_data(100, 10, seed=9, separability=0.8)
    assert hash_array(X1) == hash_array(X2)
    assert np.array_equal(t1, t2)


@pytest.mark.parametrize("m", [2, 3])
def test_synth_few_features_plants_one_pair(m):
    X, t = synth_data(20, m, seed=3, separability=1.0)
    assert X.shape == (20, m) and t.sum() == 10


def test_synth_refuses_fewer_than_two_features():
    with pytest.raises(VeiltrainError, match="at least 2 features"):
        synth_data(20, 1, seed=3)


def test_synth_draws_at_the_benchmark_widths_are_pinned():
    # clamping the planted support to m // 2 pairs moves no draw with m >= 4
    for (n, m), pins in {(300, 12): (2112435184, 4046896540),
                         (2000, 50): (2075190931, 2821108387)}.items():
        X, t = synth_data(n, m, seed=1, separability=1.0)
        assert (hash_array(X), hash_array(t)) == pins


def test_evaluate_zero_model_base_rate():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 3))
    t = rng.integers(0, 2, 50).astype(float)
    # sigma(0) = 0.5 >= 0.5 resolves ties to class 1
    assert evaluate(np.zeros(3), X, t) == t.mean()


def test_evaluate_perfect_model():
    # labels defined by the scoring rule itself: accuracy must be exactly 1
    rng = np.random.default_rng(2)
    X = rng.normal(size=(300, 10))
    w = rng.normal(size=10)
    from veiltrain.cleartext import normalize_rows, sigmoid

    t = (sigmoid(normalize_rows(X) @ w) >= 0.5).astype(float)
    assert evaluate(w, X, t) == 1.0


def test_evaluate_matches_counting_oracle():
    from veiltrain.cleartext import normalize_rows, sigmoid

    rng = np.random.default_rng(4)
    X = rng.normal(size=(1000, 5))
    t = rng.integers(0, 2, 1000).astype(float)
    w = rng.normal(size=5)
    acc = evaluate(w, X, t)
    # independent confusion-matrix count
    p = sigmoid(normalize_rows(X) @ w) >= 0.5
    tp = int(np.sum(p & (t == 1)))
    tn = int(np.sum(~p & (t == 0)))
    assert acc == (tp + tn) / 1000


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        evaluate(np.zeros(3), np.zeros((4, 5)), np.zeros(4))


def test_stratified_folds_balanced():
    t = np.array([0.0] * 60 + [1.0] * 40)
    folds = stratified_folds(t, 5, 0)
    for f in range(5):
        mask = folds == f
        assert mask.sum() == 20
        assert t[mask].sum() == 8  # 40/5 positives in every fold
