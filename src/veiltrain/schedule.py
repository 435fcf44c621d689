"""The public training hyperparameters and the schedule they imply
(TrainingConfig), apart from the protocol code that trains, so that a
config reader needs no protocol module."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidArgument
from .fixedpoint import RingConfig

# slack on the sigmoid's slope 1/4 in the smoothness constant L of the
# sigmoid tiers: it covers the bounded sigmoid's slope (at most 0.24994 on
# |z| <= 4)
SLOPE_SLACK = 2.0 ** -10


@dataclass
class TrainingConfig:
    """Public hyperparameters agreed by both parties: the L2 weight and the
    bias column. The step, the step count and the row bound follow."""

    lambda_reg: float = 1.0
    add_bias: bool = False

    def __post_init__(self):
        if not self.lambda_reg > 0:
            raise InvalidArgument(f"lambda_reg must be positive, got {self.lambda_reg}")

    def public(self) -> dict:
        return {"lambda_reg": self.lambda_reg, "add_bias": int(self.add_bias)}

    @property
    def row_norm(self) -> float:
        """R, the bound on a training row's norm: 1, sqrt 2 with the bias column."""
        return math.sqrt(2.0) if self.add_bias else 1.0

    @property
    def linear(self) -> bool:
        """Whether the linear-sigmoid tier trains: lambda >= R^2/2, so that
        its public bound B = 2R^2/(4 lambda - R^2) on |x . w| is at most 2.
        R^2 = 1 + add_bias is exact, where sqrt(2)^2 rounds above 2."""
        return 2 * self.lambda_reg >= 1 + self.add_bias

    @property
    def alpha(self) -> float:
        """The step 2/(L + mu), mu = lambda: L = lambda + R^2/4 on the linear
        tier, lambda + R^2 (1/4 + SLOPE_SLACK) on the sigmoid ones."""
        slope = 0.25 if self.linear else 0.25 + SLOPE_SLACK
        return 2.0 / (2 * self.lambda_reg + (1 + self.add_bias) * slope)

    def steps(self, ring: RingConfig = RingConfig()) -> int:
        """The fewest k with ((L - mu)/(L + mu))^k R / lambda below one ulp
        of the ring: from zero, the distance to the minimizer (at most
        R / lambda) shrinks by that rate, 1 - alpha lambda, every step."""
        rate = 1 - self.alpha * self.lambda_reg
        target = 2.0 ** -ring.frac_bits * self.lambda_reg / self.row_norm
        return max(0, math.floor(math.log(target) / math.log(rate)) + 1)
