"""Data-owner side: scale and encode real-valued rows, split them into
additive shares, and hand the halves to the computing parties (in files or
in memory)."""

from __future__ import annotations

import numpy as np

from .errors import LabelDomainError
from .fixedpoint import RingConfig, encode
from .training import l2_normalize


def split_raw(raw: np.ndarray, rng: np.random.Generator):
    """Split ring elements into two additive halves: x0 + x1 = x (mod 2^64),
    with x0 uniform, so either half alone is uniform noise."""
    raw = np.asarray(raw, dtype=np.uint64)
    half0 = rng.integers(0, RingConfig.modulus, size=raw.shape, dtype=np.uint64)
    return half0, raw - half0


def check_domain(t):
    """Reject labels outside {0, 1}, which training's public bounds rule out."""
    t = np.asarray(t, dtype=np.float64)
    bad = (t != 0) & (t != 1)
    if np.any(bad):
        index = int(np.argmax(bad))
        raise LabelDomainError(float(t[index]), index=index)


def ingest_shares(X, t, ring: RingConfig, rng: np.random.Generator, owners: int = 1):
    """Scale and encode a dataset's rows (training.l2_normalize), and split
    every entry into two additive shares.

    Returns ((X0, t0), (X1, t1)); t may be None for owners who hold no labels
    (vertical partitioning keeps labels with one designated owner). owners:
    how many owners hold a block of every row.
    """
    X0, X1 = split_raw(l2_normalize(X, ring, owners), rng)
    if t is None:
        return (X0, None), (X1, None)
    check_domain(t)
    t0, t1 = split_raw(encode(t, ring), rng)
    return (X0, t0), (X1, t1)


def ingest_partitions(owner_datasets, mode: str, ring: RingConfig, seed: int | None = None):
    """Each owner ingests with fresh entropy, as `veiltrain ingest` does; the
    parties' halves are then assembled into the global secret-shared matrix.

    Returns (X0, t0), (X1, t1) for the assembled dataset. Under horizontal
    partitioning, reconstruction is bit-identical to ingesting the
    unpartitioned matrix, whatever the split. Under vertical partitioning
    each of the k owners scales its block of every row to norm at most
    1/sqrt(k), so reconstruction is the matrix of those scaled blocks.
    seed is unused: a split seeded from a seed the harness also derives the
    roles' seeds from would let whoever holds it rebuild both halves.
    """
    parts0, parts1 = [], []
    labels0, labels1 = [], []
    owners = len(owner_datasets) if mode == "vertical" else 1
    for X_i, t_i in owner_datasets:
        (x0, t0), (x1, t1) = ingest_shares(X_i, t_i, ring, np.random.default_rng(), owners)
        parts0.append(x0)
        parts1.append(x1)
        if t0 is not None:
            labels0.append(t0)
            labels1.append(t1)
    axis = 0 if mode == "horizontal" else 1
    X0 = np.concatenate(parts0, axis=axis)
    X1 = np.concatenate(parts1, axis=axis)
    t0 = np.concatenate(labels0)
    t1 = np.concatenate(labels1)
    return (X0, t0), (X1, t1)
