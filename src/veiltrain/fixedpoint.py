"""Fixed-point encoding of reals as integers modulo 2**64.

All parties in a session share one RingConfig. Reals are scaled by 2**frac_bits
and stored as unsigned ring elements; negatives wrap two's-complement style so
the top bit doubles as the sign bit. Arithmetic on encodings is plain modular
integer arithmetic (numpy unsigned arrays wrap silently), and every product of
two encodings carries 2*frac_bits fractional bits until truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidArgument, MagnitudeOverflow


@dataclass(frozen=True)
class RingConfig:
    """The ring Z_{2^64} with frac_bits of precision.

    int_bits is the headroom exponent lam - 2*frac_bits - 1: the product of two
    encoded values stays representable as long as the product of the real
    values is below 2**int_bits.
    """

    lam: ClassVar[int] = 64
    modulus: ClassVar[int] = 1 << 64
    udtype: ClassVar = np.uint64
    sdtype: ClassVar = np.int64

    frac_bits: int = 20

    def __post_init__(self):
        if 2 * self.frac_bits + 2 > self.lam:
            raise InvalidArgument(f"frac_bits={self.frac_bits} leaves no headroom in the ring")

    @property
    def int_bits(self) -> int:
        return self.lam - 2 * self.frac_bits - 1

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    def public(self) -> dict:
        return {"frac_bits": self.frac_bits}


DEFAULT_RING = RingConfig()


def encode(x, cfg: RingConfig = DEFAULT_RING) -> np.ndarray:
    """Encode reals as ring elements: round(x * 2^frac_bits) mod 2^64.

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
    return scaled.astype(np.int64).view(np.uint64)


def decode(r, cfg: RingConfig = DEFAULT_RING) -> np.ndarray:
    """Interpret ring elements as signed two's complement and rescale to reals."""
    return to_signed(r).astype(np.float64) / cfg.scale


def to_signed(r) -> np.ndarray:
    return np.asarray(r, dtype=np.uint64).view(np.int64)


def from_signed(s) -> np.ndarray:
    return np.asarray(s, dtype=np.int64).view(np.uint64)


def truncate(r, bits: int) -> np.ndarray:
    """Arithmetic right shift in the signed interpretation (public operation).

    After a raw fixed-point product this drops the extra frac_bits; floor
    semantics make the decode error at most one unit in the last place.
    """
    return from_signed(to_signed(r) >> np.asarray(bits, dtype=np.int64))
