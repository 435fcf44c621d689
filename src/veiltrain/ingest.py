"""Data-owner side: encode real-valued data, split it into additive shares,
and hand the halves to the computing parties (in files or in memory)."""

from __future__ import annotations

import numpy as np

from .errors import LabelDomainError, MagnitudeOverflow, RowNormDomainError
from .fixedpoint import RingConfig, decode, encode
from .training import row_norm_domain


def split_raw(raw: np.ndarray, rng: np.random.Generator):
    """Split ring elements into two additive halves: x0 + x1 = x (mod 2^64),
    with x0 uniform, so either half alone is uniform noise."""
    raw = np.asarray(raw, dtype=np.uint64)
    half0 = rng.integers(0, RingConfig.modulus, size=raw.shape, dtype=np.uint64)
    return half0, raw - half0


def encode_matrix(X, ring: RingConfig) -> np.ndarray:
    """Encode with per-cell overflow reporting."""
    X = np.asarray(X, dtype=np.float64)
    limit = 2.0 ** (ring.lam - ring.frac_bits - 1)
    bad = ~np.isfinite(X) | (np.abs(X) >= limit)
    if np.any(bad):
        where = np.argwhere(bad)[0]
        pos = f"row {where[0]}, col {where[1]}" if X.ndim == 2 else f"index {where[0]}"
        raise MagnitudeOverflow(f"value at {pos} outside the representable range")
    return encode(X, ring)


def check_domain(X_raw, t, ring: RingConfig, owners: int = 1):
    """Reject what training's public bounds rule out: labels outside {0, 1},
    and rows whose squared norm (at the encoded values) is neither zero nor
    in [floor, cap / owners] of training.row_norm_domain. With vertical
    partitioning each of the owners holds a piece of every row, and the
    pieces' squared norms add up."""
    floor, cap = row_norm_domain(ring)
    squared = np.sum(decode(X_raw, ring) ** 2, axis=1)
    bad = (squared != 0) & ((squared < floor) | (squared > cap / owners))
    if np.any(bad):
        row = int(np.argmax(bad))
        raise RowNormDomainError(row, float(squared[row]), floor, cap / owners)
    if t is not None:
        t = np.asarray(t, dtype=np.float64)
        bad = (t != 0) & (t != 1)
        if np.any(bad):
            index = int(np.argmax(bad))
            raise LabelDomainError(float(t[index]), index=index)


def ingest_shares(X, t, ring: RingConfig, rng: np.random.Generator, owners: int = 1):
    """Encode a dataset and split every entry into two additive shares.

    Returns ((X0, t0), (X1, t1)); t may be None for owners who hold no labels
    (vertical partitioning keeps labels with one designated owner). owners:
    how many owners hold a piece of every row (check_domain).
    """
    X_raw = encode_matrix(X, ring)
    check_domain(X_raw, t, ring, owners)
    X0, X1 = split_raw(X_raw, rng)
    if t is None:
        return (X0, None), (X1, None)
    t_raw = encode_matrix(np.asarray(t, dtype=np.float64), ring)
    t0, t1 = split_raw(t_raw, rng)
    return (X0, t0), (X1, t1)


def ingest_partitions(owner_datasets, mode: str, ring: RingConfig, seed: int | None = None):
    """Each owner ingests with fresh entropy, as `veiltrain ingest` does; the
    parties' halves are then assembled into the global secret-shared matrix.

    Returns (X0, t0), (X1, t1) for the assembled dataset. Reconstruction is
    bit-identical to ingesting the unpartitioned matrix, whatever the split.
    seed is unused: a split seeded from the session seed, which every role
    reads, would let a party rebuild the other's halves.
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
