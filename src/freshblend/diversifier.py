"""Greedy construction of the blended result page."""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .calibration import CalibratedCandidate
from .errors import ValidationError
from .metric import DEFAULT_METRIC_CONFIG, IntentDistribution, MetricConfig

_NO_RANK = 1 << 30


@dataclass(frozen=True)
class BlendedResult:
    doc_ids: tuple[str, ...]
    gains: tuple[float, ...]
    total: float
    dist: IntentDistribution


def tie_break_key(candidate: CalibratedCandidate):
    """Deterministic ordering for equal marginal gains: higher r_any,
    then lower ordinary rank, then doc_id."""
    rank = candidate.ordinary_rank if candidate.ordinary_rank is not None else _NO_RANK
    return (-candidate.r_any, rank, candidate.doc_id)


def candidate_arrays(pools: Sequence[Sequence[CalibratedCandidate]]):
    """Pack pools into the padded (B, M) arrays the blend kernel consumes.

    Each pool is sorted by tie_break_key, so column j of row b holds
    ``ordered[b][j]``.  Returns ``(ordered, r_fresh, r_any, sizes)``;
    columns past ``sizes[b]`` are zero padding.
    """
    ordered = tuple(tuple(sorted(pool, key=tie_break_key)) for pool in pools)
    sizes = np.fromiter((len(pool) for pool in ordered), dtype=np.int64, count=len(ordered))
    m = int(sizes.max()) if sizes.size else 0
    r_fresh = np.zeros((len(ordered), m), dtype=np.float64)
    r_any = np.zeros((len(ordered), m), dtype=np.float64)
    for b, pool in enumerate(ordered):
        r_fresh[b, : len(pool)] = [c.r_fresh for c in pool]
        r_any[b, : len(pool)] = [c.r_any for c in pool]
    return ordered, r_fresh, r_any, sizes


def blend(
    candidates: Sequence[CalibratedCandidate],
    dist: IntentDistribution,
    config: MetricConfig = DEFAULT_METRIC_CONFIG,
) -> BlendedResult:
    """Greedily order the pool, taking the largest marginal gain at each
    position, until the page depth or the pool is exhausted."""
    if not candidates:
        raise ValidationError("cannot blend an empty candidate pool")
    ordered, r_fresh, r_any, sizes = candidate_arrays([candidates])
    order, gains = kernels.greedy_blend(
        r_fresh,
        r_any,
        sizes,
        np.array([dist.p_fresh]),
        np.array([dist.p_any]),
        config.p_break,
        config.break_exponent.shift,
        config.depth,
    )
    doc_ids = tuple(ordered[0][int(i)].doc_id for i in order[0])
    gain_list = tuple(float(g) for g in gains[0])
    return BlendedResult(doc_ids, gain_list, float(gains[0].sum()), dist)

