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

`err_iaa` scores a page with one call into `kernels.err_iaa_batch`.
`marginal_gain` and `advance` maintain the per-intent survival masses
incrementally, one appended candidate at a time: they are the scalar
reference for one greedy step, against which the tests check the
optimizer, `kernels.greedy_blend`.
"""

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .calibration import CalibratedCandidate
from .errors import ValidationError


class BreakExponent(enum.Enum):
    POSITION = "r"
    POSITION_MINUS_ONE = "r-1"

    @property
    def shift(self) -> int:
        """Kernel encoding: 1 when the discount starts at exponent 0."""
        return 1 if self is BreakExponent.POSITION_MINUS_ONE else 0


@dataclass(frozen=True)
class IntentDistribution:
    p_fresh: float
    p_any: float

    def __post_init__(self):
        if not 0.0 <= self.p_fresh <= 1.0 or not 0.0 <= self.p_any <= 1.0:
            raise ValidationError(
                f"intent probabilities out of [0,1]: ({self.p_fresh!r}, {self.p_any!r})"
            )
        if abs(self.p_fresh + self.p_any - 1.0) > 1e-12:
            raise ValidationError(
                f"intent probabilities must sum to 1, got {self.p_fresh + self.p_any!r}"
            )

    @classmethod
    def from_p_fresh(cls, p_fresh: float) -> "IntentDistribution":
        return cls(p_fresh, 1.0 - p_fresh)


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


@dataclass(frozen=True)
class PrefixState:
    """Survival masses of both intents after a placed prefix."""

    survive_fresh: float = 1.0
    survive_any: float = 1.0
    next_position: int = 1


def initial_state() -> PrefixState:
    return PrefixState()


def discount(position: int, config: MetricConfig = DEFAULT_METRIC_CONFIG) -> float:
    if position < 1:
        raise ValidationError(f"position must be >= 1, got {position}")
    exponent = position - config.break_exponent.shift
    return config.p_break**exponent


def _check_probability(candidate: CalibratedCandidate) -> None:
    if not 0.0 <= candidate.r_fresh <= 1.0 or not 0.0 <= candidate.r_any <= 1.0:
        raise ValidationError(
            f"candidate {candidate.doc_id!r} has probabilities out of [0,1]"
        )


def err_iaa(
    ordered: Sequence[CalibratedCandidate],
    dist: IntentDistribution,
    config: MetricConfig = DEFAULT_METRIC_CONFIG,
) -> float:
    """Score an ordered page; pages longer than config.depth are truncated."""
    page = ordered[: config.depth]
    for candidate in page:
        _check_probability(candidate)
    scores = kernels.err_iaa_batch(
        np.array([[c.r_fresh for c in page]], dtype=np.float64),
        np.array([[c.r_any for c in page]], dtype=np.float64),
        np.array([dist.p_fresh]),
        np.array([dist.p_any]),
        config.p_break,
        config.break_exponent.shift,
    )
    return float(scores[0])


def marginal_gain(
    state: PrefixState,
    candidate: CalibratedCandidate,
    dist: IntentDistribution,
    config: MetricConfig = DEFAULT_METRIC_CONFIG,
) -> float:
    """Increase of the objective from placing `candidate` next."""
    _check_probability(candidate)
    disc = discount(state.next_position, config)
    return disc * (
        dist.p_fresh * state.survive_fresh * candidate.r_fresh
        + dist.p_any * state.survive_any * candidate.r_any
    )


def advance(state: PrefixState, candidate: CalibratedCandidate) -> PrefixState:
    """Fold one placed candidate into the survival masses."""
    _check_probability(candidate)
    return PrefixState(
        survive_fresh=state.survive_fresh * (1.0 - candidate.r_fresh),
        survive_any=state.survive_any * (1.0 - candidate.r_any),
        next_position=state.next_position + 1,
    )
