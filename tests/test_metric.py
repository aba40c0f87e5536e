"""Metric oracles and invariants.

The expected values here were frozen from an independent brute
evaluation (`oracles.brute_err_iaa`): discounts recomputed via pow and
the survival products re-multiplied from scratch at every position,
sharing no code with the implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshblend.calibration import CalibratedCandidate
from freshblend.errors import ValidationError
from freshblend.metric import (
    BreakExponent,
    IntentDistribution,
    MetricConfig,
    err_iaa,
)
from oracles import (
    PrefixState,
    advance,
    brute_err_iaa,
    discount,
    err_iaa_batch_loop,
    initial_state,
    marginal_gain,
)


def cand(doc_id, r_any, r_fresh, rank=1):
    return CalibratedCandidate(doc_id, r_any, r_fresh, ordinary_rank=rank)


ANY_ONLY = IntentDistribution(0.0, 1.0)
EVEN = IntentDistribution(0.5, 0.5)
CFG = MetricConfig()


probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def pages(draw, max_size=8):
    n = draw(st.integers(min_value=1, max_value=max_size))
    return [
        cand(f"d{i}", draw(probabilities), draw(probabilities), rank=i + 1)
        for i in range(n)
    ]


@st.composite
def distributions(draw):
    p = draw(probabilities)
    return IntentDistribution.from_p_fresh(p)


class TestErrIaaFixtures:
    def test_empty_page_scores_zero(self):
        assert err_iaa([], EVEN, CFG) == 0.0

    def test_single_perfect_result(self):
        assert err_iaa([cand("a", 1.0, 0.0)], ANY_ONLY, CFG) == pytest.approx(0.85, abs=1e-15)

    def test_two_halves(self):
        page = [cand("a", 0.5, 0.0), cand("b", 0.5, 0.0, rank=2)]
        value = err_iaa(page, ANY_ONLY, CFG)
        assert value == pytest.approx(0.605625, abs=1e-12)
        assert value == pytest.approx(brute_err_iaa(page, ANY_ONLY, CFG), abs=1e-12)

    def test_two_intents(self):
        page = [cand("A", 0.6, 0.6), cand("B", 0.6, 0.0, rank=2)]
        value = err_iaa(page, EVEN, CFG)
        assert value == pytest.approx(0.5967, abs=1e-12)
        assert value == pytest.approx(brute_err_iaa(page, EVEN, CFG), abs=1e-12)

    def test_perfect_top_scores_one_with_shifted_exponent(self):
        config = MetricConfig(break_exponent=BreakExponent.POSITION_MINUS_ONE)
        assert err_iaa([cand("a", 1.0, 0.0)], ANY_ONLY, config) == 1.0

    def test_probability_out_of_range_rejected(self):
        bad = CalibratedCandidate.__new__(CalibratedCandidate)
        object.__setattr__(bad, "doc_id", "x")
        object.__setattr__(bad, "r_any", 1.5)
        object.__setattr__(bad, "r_fresh", 0.0)
        object.__setattr__(bad, "ordinary_rank", 1)
        object.__setattr__(bad, "fresh_rank", None)
        with pytest.raises(ValidationError):
            err_iaa([bad], ANY_ONLY, CFG)


class TestValidation:
    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            IntentDistribution(0.5, 0.6)

    def test_distribution_bounds(self):
        with pytest.raises(ValidationError):
            IntentDistribution(-0.1, 1.1)

    def test_p_break_bounds(self):
        with pytest.raises(ValidationError):
            MetricConfig(p_break=1.0)
        with pytest.raises(ValidationError):
            MetricConfig(p_break=0.0)

    def test_depth_bounds(self):
        with pytest.raises(ValidationError):
            MetricConfig(depth=0)


class TestAdvance:
    def test_hand_multiplication(self):
        state = advance(initial_state(), cand("a", 0.25, 0.5))
        assert state == PrefixState(0.5, 0.75, 2)

    def test_zero_probabilities_leave_survival_unchanged(self):
        state = advance(initial_state(), cand("a", 0.0, 0.0))
        assert state == PrefixState(1.0, 1.0, 2)

    def test_certain_satisfaction_absorbs(self):
        state = advance(initial_state(), cand("a", 1.0, 1.0))
        assert state == PrefixState(0.0, 0.0, 2)


class TestMarginalGain:
    def test_zero_candidate_gains_nothing(self):
        assert marginal_gain(initial_state(), cand("a", 0.0, 0.0), EVEN, CFG) == 0.0

    def test_first_position_matches_single_doc_metric(self):
        gain = marginal_gain(initial_state(), cand("a", 1.0, 0.0), ANY_ONLY, CFG)
        assert gain == pytest.approx(0.85, abs=1e-15)

    @given(pages(), distributions())
    @settings(max_examples=150, deadline=None)
    def test_gains_telescope_to_err_iaa(self, page, dist):
        state = initial_state()
        total = 0.0
        for candidate in page[: CFG.depth]:
            total += marginal_gain(state, candidate, dist, CFG)
            state = advance(state, candidate)
        assert total == pytest.approx(err_iaa(page, dist, CFG), abs=1e-12)
        assert total == pytest.approx(brute_err_iaa(page, dist, CFG), abs=1e-12)
        top = page[: CFG.depth]
        assert err_iaa(page, dist, CFG) == err_iaa_batch_loop(
            np.array([[c.r_fresh for c in top]]),
            np.array([[c.r_any for c in top]]),
            np.array([dist.p_fresh]),
            np.array([dist.p_any]),
            CFG.p_break,
            CFG.break_exponent.shift,
        )[0]


class TestInvariants:
    @given(pages(), probabilities)
    @settings(max_examples=100, deadline=None)
    def test_intent_linearity(self, page, p):
        mixed = err_iaa(page, IntentDistribution.from_p_fresh(p), CFG)
        fresh = err_iaa(page, IntentDistribution(1.0, 0.0), CFG)
        anyi = err_iaa(page, IntentDistribution(0.0, 1.0), CFG)
        assert mixed == pytest.approx(p * fresh + (1.0 - p) * anyi, abs=1e-12)

    @given(pages(), distributions(), st.integers(min_value=0, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_prefix_never_beats_full_page(self, page, dist, cut):
        full = err_iaa(page, dist, CFG)
        prefix = err_iaa(page[:cut], dist, CFG)
        assert prefix <= full + 1e-15

    @given(pages(max_size=6), distributions(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_promoting_a_dominant_candidate_never_hurts(self, page, dist, position):
        if position + 1 >= len(page):
            return
        earlier, later = page[position], page[position + 1]
        if not (earlier.r_any < later.r_any and earlier.r_fresh < later.r_fresh):
            return
        swapped = list(page)
        swapped[position], swapped[position + 1] = later, earlier
        assert err_iaa(swapped, dist, CFG) >= err_iaa(page, dist, CFG) - 1e-12

    @given(pages(), distributions())
    @settings(max_examples=100, deadline=None)
    def test_score_stays_within_discount_mass(self, page, dist):
        value = err_iaa(page, dist, CFG)
        bound = sum(discount(r, CFG) for r in range(1, min(len(page), CFG.depth) + 1))
        assert 0.0 <= value <= bound + 1e-12

    def test_truncation_at_depth(self):
        page = [cand(f"d{i}", 0.3, 0.2, rank=i + 1) for i in range(15)]
        deep = MetricConfig(depth=10)
        assert err_iaa(page, EVEN, deep) == err_iaa(page[:10], EVEN, deep)
