"""Dataset loading, synthesis, owner partitioning, and model scoring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cleartext import normalize_rows, sigmoid
from .errors import (DimensionMismatch, InvalidArgument, LabelDomainError, ParseError,
                     PlanInvalid)


def load_csv(path):
    """Read a labeled dataset: header row, real feature columns, and a final
    binary label column. Returns (X, t)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.strip():
            raise ParseError("empty file", line=1)
        width = len(header.rstrip("\n").split(","))
        if width < 2:
            raise ParseError("need at least one feature column and a label", line=1)
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            if len(parts) != width:
                raise ParseError(f"expected {width} columns, got {len(parts)}", line=lineno)
            try:
                values = [float(p) for p in parts]
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno)
            if values[-1] not in (0.0, 1.0):
                raise LabelDomainError(values[-1], line=lineno)
            rows.append(values)
    if not rows:
        raise ParseError("no data rows", line=2)
    data = np.asarray(rows, dtype=np.float64)
    return data[:, :-1], data[:, -1]


def save_csv(path, X, t):
    X = np.asarray(X)
    header = ",".join([f"f{j}" for j in range(X.shape[1])] + ["label"])
    body = np.hstack([X, np.asarray(t, dtype=np.float64)[:, None]])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in body:
            fh.write(",".join(f"{v:g}" for v in row) + "\n")


def synth_data(n: int, m: int, seed: int, separability: float = 1.0):
    """Binary-feature dataset labeled by a planted sparse logistic model.

    Features are fair coin flips; labels are the sign of a sparse linear
    score of the centered features, then flipped independently with
    probability (1 - separability) / 2. separability=1 gives clean planted
    labels; separability=0 makes labels independent of the features.
    """
    if not 0.0 <= separability <= 1.0:
        raise InvalidArgument(f"separability must be in [0, 1], got {separability}")
    if m < 2:
        raise InvalidArgument(f"a synthetic dataset needs at least 2 features, got m = {m}")
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n, m)).astype(np.float64)
    half = min(max(2, round(m / 5)), m // 2)
    support = rng.choice(m, size=2 * half, replace=False)
    # antisymmetric +/- pairs keep the planted boundary through the feature
    # mean, where a bias-free regularized model can actually find it
    magnitudes = rng.uniform(2.0, 4.0, size=half)
    w = np.zeros(m)
    w[support[:half]] = magnitudes
    w[support[half:]] = -magnitudes
    score = (X - 0.5) @ w + rng.normal(0, 1e-9, size=n)  # jitter breaks ties
    # exactly half the rows per class: a bias-free model under strong L2
    # shrinkage cannot absorb any base-rate offset
    t = np.zeros(n)
    t[np.argsort(score)[n - n // 2:]] = 1.0
    flips = rng.random(n) < (1.0 - separability) / 2.0
    t = np.where(flips, 1.0 - t, t)
    return X, t


@dataclass(frozen=True)
class PartitionPlan:
    """How the training matrix is split across data owners."""

    mode: str  # "horizontal" | "vertical"
    ranges: tuple  # ((start, stop), ...) over rows or columns

    @property
    def k(self) -> int:
        return len(self.ranges)


def make_plan(mode: str, k: int, n: int, m: int) -> PartitionPlan:
    if mode not in ("horizontal", "vertical"):
        raise PlanInvalid(f"unknown mode {mode!r}")
    total = n if mode == "horizontal" else m
    if not 1 <= k <= total:
        raise PlanInvalid(f"cannot split {total} {mode} units among {k} owners")
    base, extra = divmod(total, k)
    ranges, at = [], 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        ranges.append((at, at + size))
        at += size
    return PartitionPlan(mode, tuple(ranges))


def _check_plan(plan: PartitionPlan, n: int, m: int):
    total = n if plan.mode == "horizontal" else m
    at = 0
    for start, stop in plan.ranges:
        if start != at or stop <= start:
            raise PlanInvalid("ranges must be disjoint, ordered, and non-empty")
        at = stop
    if at != total:
        raise PlanInvalid(f"ranges cover {at} of {total} units")


def partition(X, t, plan: PartitionPlan):
    """Split (X, t) into per-owner datasets.

    Horizontal owners get row blocks with their labels; vertical owners get
    column blocks, with the labels held by the designated first owner.
    """
    X = np.asarray(X)
    t = np.asarray(t)
    _check_plan(plan, len(X), X.shape[1])
    out = []
    for i, (start, stop) in enumerate(plan.ranges):
        if plan.mode == "horizontal":
            out.append((X[start:stop], t[start:stop]))
        else:
            out.append((X[:, start:stop], t if i == 0 else None))
    return out


def evaluate(weights, X_test, t_test, add_bias: bool = False) -> float:
    """Accuracy of a published model: rows are L2-normalized as one owner
    scales them for training, and sigmoid(w . x) >= 0.5 predicts class 1."""
    weights = np.asarray(weights, dtype=np.float64)
    X = normalize_rows(np.asarray(X_test, dtype=np.float64))
    if add_bias:
        X = np.hstack([X, np.ones((len(X), 1))])
    if X.shape[1] != len(weights):
        raise DimensionMismatch(f"model has {len(weights)} coefficients but "
                                f"data has {X.shape[1]} features")
    predictions = (sigmoid(X @ weights) >= 0.5).astype(np.float64)
    return float(np.mean(predictions == np.asarray(t_test, dtype=np.float64)))


def stratified_folds(t, n_folds: int, seed: int):
    """Deterministic stratified k-fold assignment; returns fold index per row."""
    t = np.asarray(t)
    rng = np.random.default_rng(seed)
    fold = np.empty(len(t), dtype=np.int64)
    for label in (0.0, 1.0):
        idx = np.flatnonzero(t == label)
        rng.shuffle(idx)
        fold[idx] = np.arange(len(idx)) % n_folds
    return fold
