"""The blending objective: expected reciprocal rank over two intents
with per-position abandonment.

For an ordered page of candidates carrying per-intent satisfaction
probabilities R, the score is

    sum over positions r of  discount(r) * sum over intents t of
        P(t) * prod_{i<r} (1 - R_t_i) * R_t_r

where discount(r) is p_break**r (the default) or p_break**(r-1).  The
second variant charges abandonment only for continuing past a position,
so a perfect top result scores exactly 1.  The score is the probability
that a user scanning top-down under this model is satisfied by the page.

`kernels.err_iaa_batch` scores a batch of pages, one intent distribution
per page; the optimizer is `kernels.greedy_blend`.  Their scalar
references (one greedy step folded into the per-intent survival masses,
and a from-scratch evaluation of the whole page) live in tests/oracles.py.
"""

import enum
from dataclasses import dataclass

from .errors import ValidationError


class BreakExponent(enum.Enum):
    POSITION = "r"
    POSITION_MINUS_ONE = "r-1"

    @property
    def shift(self) -> int:
        """Kernel encoding: 1 when the discount starts at exponent 0."""
        return 1 if self is BreakExponent.POSITION_MINUS_ONE else 0


@dataclass(frozen=True)
class MetricConfig:
    p_break: float = 0.85
    break_exponent: BreakExponent = BreakExponent.POSITION
    depth: int = 10

    def __post_init__(self):
        if not 0.0 < self.p_break < 1.0:
            raise ValidationError(f"p_break out of (0,1): {self.p_break!r}")
        if self.depth < 1:
            raise ValidationError(f"depth must be >= 1, got {self.depth}")


DEFAULT_METRIC_CONFIG = MetricConfig()

