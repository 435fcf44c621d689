"""Fixed-point encoding of reals as integers modulo 2**lam.

All parties in a session share one RingConfig. Reals are scaled by 2**frac_bits
and stored as unsigned ring elements; negatives wrap two's-complement style so
the top bit doubles as the sign bit. Arithmetic on encodings is plain modular
integer arithmetic (numpy unsigned arrays wrap silently), and every product of
two encodings carries 2*frac_bits fractional bits until truncated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, MagnitudeOverflow

_DTYPES = {32: (np.uint32, np.int32), 64: (np.uint64, np.int64)}


@dataclass(frozen=True)
class RingConfig:
    """Parameters of the power-of-two ring Z_{2^lam} with frac_bits of precision.

    int_bits is the headroom exponent lam - 2*frac_bits - 1: the product of two
    encoded values stays representable as long as the product of the real
    values is below 2**int_bits.
    """

    lam: int = 64
    frac_bits: int = 20

    def __post_init__(self):
        if self.lam not in _DTYPES:
            raise InvalidArgument(f"ring width must be 32 or 64, got {self.lam}")
        if 2 * self.frac_bits + 2 > self.lam:
            raise InvalidArgument(
                f"frac_bits={self.frac_bits} leaves no headroom in a {self.lam}-bit ring"
            )

    @property
    def int_bits(self) -> int:
        return self.lam - 2 * self.frac_bits - 1

    @property
    def udtype(self):
        return _DTYPES[self.lam][0]

    @property
    def sdtype(self):
        return _DTYPES[self.lam][1]

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def modulus(self) -> int:
        return 1 << self.lam

    def public(self) -> dict:
        return {"lambda": self.lam, "frac_bits": self.frac_bits}


DEFAULT_RING = RingConfig()


def encode(x, cfg: RingConfig = DEFAULT_RING) -> np.ndarray:
    """Encode reals as ring elements: round(x * 2^frac_bits) mod 2^lam.

    Rounding is half-away-from-zero so that every party computes the same
    encoding bit for bit. Raises MagnitudeOverflow outside the representable
    signed range |x| < 2^(lam - frac_bits - 1).
    """
    x = np.asarray(x, dtype=np.float64)
    limit = 2.0 ** (cfg.lam - cfg.frac_bits - 1)
    if np.any(~np.isfinite(x)) or np.any(np.abs(x) >= limit):
        bad = np.argwhere(~np.isfinite(x) | (np.abs(x) >= limit))
        idx = tuple(bad[0]) if bad.size else ()
        raise MagnitudeOverflow(f"value at index {idx} outside |x| < 2^{cfg.lam - cfg.frac_bits - 1}")
    scaled = np.where(x >= 0, np.floor(x * cfg.scale + 0.5), -np.floor(-x * cfg.scale + 0.5))
    return scaled.astype(np.int64).astype(cfg.sdtype).view(cfg.udtype)


def decode(r, cfg: RingConfig = DEFAULT_RING) -> np.ndarray:
    """Interpret ring elements as signed two's complement and rescale to reals."""
    r = np.asarray(r, dtype=cfg.udtype)
    return r.view(cfg.sdtype).astype(np.float64) / cfg.scale


def to_signed(r, cfg: RingConfig = DEFAULT_RING) -> np.ndarray:
    return np.asarray(r, dtype=cfg.udtype).view(cfg.sdtype)


def from_signed(s, cfg: RingConfig = DEFAULT_RING) -> np.ndarray:
    return np.asarray(s).astype(cfg.sdtype).view(cfg.udtype)


def truncate(r, bits: int, cfg: RingConfig = DEFAULT_RING) -> np.ndarray:
    """Arithmetic right shift in the signed interpretation (public operation).

    After a raw fixed-point product this drops the extra frac_bits; floor
    semantics make the decode error at most one unit in the last place.
    """
    s = to_signed(r, cfg)
    return from_signed(s >> np.asarray(bits, dtype=cfg.sdtype), cfg)
