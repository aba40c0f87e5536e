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

from freshblend.errors import ValidationError
from freshblend.kernels import err_iaa_batch
from freshblend.metric import BreakExponent, MetricConfig
from oracles import (
    Candidate,
    PrefixState,
    advance,
    brute_err_iaa,
    discount,
    err_iaa_batch_loop,
    initial_state,
    marginal_gain,
    page_arrays,
)


def cand(doc_id, r_any, r_fresh, rank=1):
    return Candidate(doc_id, r_any, r_fresh, ordinary_rank=rank)


CFG = MetricConfig()
KNOBS = (CFG.p_break, CFG.break_exponent.shift)


def one_intent(p_fresh):
    """The kernel's per-page intent arrays of a one-page batch."""
    return np.array([p_fresh]), np.array([1.0 - p_fresh])


probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def pages(draw, max_size=8):
    n = draw(st.integers(min_value=1, max_value=max_size))
    return [
        cand(f"d{i}", draw(probabilities), draw(probabilities), rank=i + 1)
        for i in range(n)
    ]


class TestErrIaaFixtures:
    def test_empty_page_scores_zero(self):
        assert err_iaa_batch(*page_arrays([]), *one_intent(0.5), *KNOBS)[0] == 0.0

    def test_single_perfect_result(self):
        value = err_iaa_batch(*page_arrays([cand("a", 1.0, 0.0)]), *one_intent(0.0), *KNOBS)[0]
        assert value == pytest.approx(0.85, abs=1e-15)

    def test_two_halves(self):
        page = [cand("a", 0.5, 0.0), cand("b", 0.5, 0.0, rank=2)]
        value = err_iaa_batch(*page_arrays(page), *one_intent(0.0), *KNOBS)[0]
        assert value == pytest.approx(0.605625, abs=1e-12)
        assert value == pytest.approx(brute_err_iaa(page, 0.0, CFG), abs=1e-12)

    def test_two_intents(self):
        page = [cand("A", 0.6, 0.6), cand("B", 0.6, 0.0, rank=2)]
        value = err_iaa_batch(*page_arrays(page), *one_intent(0.5), *KNOBS)[0]
        assert value == pytest.approx(0.5967, abs=1e-12)
        assert value == pytest.approx(brute_err_iaa(page, 0.5, CFG), abs=1e-12)

    def test_perfect_top_scores_one_with_shifted_exponent(self):
        shift = BreakExponent.POSITION_MINUS_ONE.shift
        page = page_arrays([cand("a", 1.0, 0.0)])
        assert err_iaa_batch(*page, *one_intent(0.0), CFG.p_break, shift)[0] == 1.0


class TestValidation:
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
        assert marginal_gain(initial_state(), cand("a", 0.0, 0.0), 0.5, CFG) == 0.0

    def test_first_position_matches_single_doc_metric(self):
        gain = marginal_gain(initial_state(), cand("a", 1.0, 0.0), 0.0, CFG)
        assert gain == pytest.approx(0.85, abs=1e-15)

    @given(pages(), probabilities)
    @settings(max_examples=150, deadline=None)
    def test_gains_telescope_to_err_iaa(self, page, p):
        state = initial_state()
        total = 0.0
        for candidate in page[: CFG.depth]:
            total += marginal_gain(state, candidate, p, CFG)
            state = advance(state, candidate)
        top = page_arrays(page[: CFG.depth])
        value = err_iaa_batch(*top, *one_intent(p), *KNOBS)[0]
        assert total == pytest.approx(value, abs=1e-12)
        assert total == pytest.approx(brute_err_iaa(page, p, CFG), abs=1e-12)
        assert value == err_iaa_batch_loop(*top, *one_intent(p), *KNOBS)[0]


class TestInvariants:
    @given(pages(), probabilities)
    @settings(max_examples=100, deadline=None)
    def test_intent_linearity(self, page, p):
        # one batch: the page under p, under the fresh intent alone and
        # under the any intent alone
        p_fresh = np.array([p, 1.0, 0.0])
        stacked = [np.repeat(row, 3, axis=0) for row in page_arrays(page)]
        mixed, fresh, anyi = err_iaa_batch(*stacked, p_fresh, 1.0 - p_fresh, *KNOBS)
        assert mixed == pytest.approx(p * fresh + (1.0 - p) * anyi, abs=1e-12)

    @given(pages(), probabilities, st.integers(min_value=0, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_prefix_never_beats_full_page(self, page, p, cut):
        full = err_iaa_batch(*page_arrays(page), *one_intent(p), *KNOBS)[0]
        prefix = err_iaa_batch(*page_arrays(page[:cut]), *one_intent(p), *KNOBS)[0]
        assert prefix <= full + 1e-15

    @given(pages(max_size=6), probabilities, st.integers(min_value=0, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_promoting_a_dominant_candidate_never_hurts(self, page, p, position):
        if position + 1 >= len(page):
            return
        earlier, later = page[position], page[position + 1]
        if not (earlier.r_any < later.r_any and earlier.r_fresh < later.r_fresh):
            return
        swapped = list(page)
        swapped[position], swapped[position + 1] = later, earlier
        scores = [err_iaa_batch(*page_arrays(order), *one_intent(p), *KNOBS)[0]
                  for order in (swapped, page)]
        assert scores[0] >= scores[1] - 1e-12

    @given(pages(), probabilities)
    @settings(max_examples=100, deadline=None)
    def test_score_stays_within_discount_mass(self, page, p):
        value = err_iaa_batch(*page_arrays(page), *one_intent(p), *KNOBS)[0]
        bound = sum(discount(r, CFG) for r in range(1, len(page) + 1))
        assert 0.0 <= value <= bound + 1e-12
