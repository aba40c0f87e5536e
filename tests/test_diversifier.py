"""Greedy blending against hand fixtures, exhaustive per-step rechecks
and the brute-force oracle."""

import numpy as np
import pytest

from freshblend.calibration import CalibratedCandidate
from freshblend.diversifier import blend
from freshblend.errors import ValidationError
from freshblend.metric import BreakExponent, IntentDistribution, MetricConfig, err_iaa
from oracles import advance, brute_force_best, initial_state, marginal_gain, scan_best

CFG = MetricConfig()
EVEN = IntentDistribution(0.5, 0.5)


def cand(doc_id, r_any, r_fresh, rank):
    return CalibratedCandidate(doc_id, r_any, r_fresh, ordinary_rank=rank)


def random_pool(rng, n):
    return [
        cand(f"d{i}", float(rng.random()), float(rng.random()), rank=i + 1)
        for i in range(n)
    ]


class TestBlendFixtures:
    def test_two_doc_instance_orders_fresh_capable_doc_first(self):
        a = cand("A", 0.6, 0.6, 1)
        b = cand("B", 0.6, 0.0, 2)
        result = blend([a, b], EVEN, CFG)
        assert result.doc_ids == ("A", "B")
        assert result.total == pytest.approx(0.5967, abs=1e-12)
        assert result.total == pytest.approx(sum(result.gains), abs=1e-12)

    def test_pure_any_intent_reproduces_ordinary_order(self):
        pool = [cand(f"d{i}", p, 0.0, rank=i + 1) for i, p in enumerate((0.6, 0.5, 0.4, 0.3))]
        result = blend(pool, IntentDistribution(0.0, 1.0), CFG)
        assert result.doc_ids == ("d0", "d1", "d2", "d3")

    def test_pure_fresh_intent_fronts_fresh_docs_descending(self):
        pool = [
            cand("s1", 0.6, 0.0, 1),
            cand("f1", 0.5, 0.3, 2),
            cand("s2", 0.4, 0.0, 3),
            cand("f2", 0.3, 0.6, 4),
        ]
        result = blend(pool, IntentDistribution(1.0, 0.0), CFG)
        assert result.doc_ids[:2] == ("f2", "f1")
        assert set(result.doc_ids[2:]) == {"s1", "s2"}

    def test_result_length_is_pool_or_depth(self):
        pool = random_pool(np.random.default_rng(0), 7)
        assert len(blend(pool, EVEN, MetricConfig(depth=4)).doc_ids) == 4
        assert len(blend(pool, EVEN, MetricConfig(depth=12)).doc_ids) == 7

    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError):
            blend([], EVEN, CFG)

    def test_depth_one_pick_ignores_p_break_under_shifted_exponent(self):
        pool = random_pool(np.random.default_rng(3), 6)
        picks = set()
        for p_break in (0.1, 0.5, 0.85, 0.99):
            config = MetricConfig(
                p_break=p_break, break_exponent=BreakExponent.POSITION_MINUS_ONE, depth=1
            )
            picks.add(blend(pool, EVEN, config).doc_ids)
        assert len(picks) == 1


class TestGreedyStepOptimality:
    def test_every_pick_maximizes_marginal_gain(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            pool = random_pool(rng, int(rng.integers(1, 9)))
            dist = IntentDistribution.from_p_fresh(float(rng.random()))
            result = blend(pool, dist, CFG)
            by_id = {c.doc_id: c for c in pool}
            state = initial_state()
            remaining = dict(by_id)
            for doc_id, gain in zip(result.doc_ids, result.gains):
                picked = remaining.pop(doc_id)
                picked_gain = marginal_gain(state, picked, dist, CFG)
                assert gain == pytest.approx(picked_gain, abs=1e-12)
                for other in remaining.values():
                    assert marginal_gain(state, other, dist, CFG) <= picked_gain
                state = advance(state, picked)

    def test_first_pick_is_best_single_document(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pool = random_pool(rng, int(rng.integers(1, 9)))
            dist = IntentDistribution.from_p_fresh(float(rng.random()))
            result = blend(pool, dist, CFG)
            best_single = max(err_iaa([c], dist, CFG) for c in pool)
            assert result.gains[0] == pytest.approx(best_single, abs=1e-12)


def tied_pool(rng, n):
    """A random pool with engineered ties: repeated (r_any, r_fresh) pairs
    under different ranks, zero candidates, or one pair for all."""
    pool = random_pool(rng, n)
    kind = rng.integers(0, 3)
    for i in range(1, n):
        if kind == 0 and rng.random() < 0.5:
            source = pool[int(rng.integers(0, i))]
            pool[i] = cand(f"d{i}", source.r_any, source.r_fresh, rank=i + 1)
        elif kind == 1 and rng.random() < 0.3:
            pool[i] = cand(f"d{i}", 0.0, 0.0, rank=i + 1)
        elif kind == 2:
            pool[i] = cand(f"d{i}", pool[0].r_any, pool[0].r_fresh, rank=i + 1)
    return [pool[i] for i in rng.permutation(n)]


class TestBruteForceOracle:
    def test_equals_a_scalar_strict_improvement_scan(self):
        rng = np.random.default_rng(99)
        for _ in range(150):
            pool = tied_pool(rng, int(rng.integers(1, 9)))
            p_fresh = float(rng.choice([0.0, 1.0, rng.random()]))
            config = MetricConfig(
                break_exponent=list(BreakExponent)[int(rng.integers(0, 2))],
                depth=int(rng.integers(1, 7)),
            )
            max_positions = int(rng.integers(1, 6))
            dist = IntentDistribution.from_p_fresh(p_fresh)
            assert brute_force_best(pool, dist, config, max_positions) == scan_best(
                pool, dist, config, max_positions
            )

    def test_single_candidate(self):
        only = cand("x", 0.4, 0.2, 1)
        ids, score = brute_force_best([only], EVEN, CFG)
        assert ids == ("x",)
        assert score == pytest.approx(err_iaa([only], EVEN, CFG), abs=1e-15)

    def test_two_doc_instance(self):
        a = cand("A", 0.6, 0.6, 1)
        b = cand("B", 0.6, 0.0, 2)
        ids, score = brute_force_best([a, b], EVEN, CFG)
        assert ids == ("A", "B")
        assert score == pytest.approx(0.5967, abs=1e-12)

    def test_identical_candidates_make_order_irrelevant(self):
        pool = [cand(f"d{i}", 0.4, 0.3, i + 1) for i in range(4)]
        _, score = brute_force_best(pool, EVEN, CFG, max_positions=3)
        assert score == pytest.approx(err_iaa(pool[:3], EVEN, CFG), abs=1e-12)

    def test_size_guards(self):
        pool = random_pool(np.random.default_rng(1), 9)
        with pytest.raises(ValidationError):
            brute_force_best(pool, EVEN, CFG)
        for max_positions in (6, 0, -1):
            with pytest.raises(ValidationError):
                brute_force_best(pool[:4], EVEN, CFG, max_positions=max_positions)

    def test_greedy_stays_within_5_percent_of_oracle(self):
        rng = np.random.default_rng(2024)
        worst = 1.0
        for _ in range(100):
            pool = random_pool(rng, int(rng.integers(2, 7)))
            dist = IntentDistribution.from_p_fresh(float(rng.random()))
            config = MetricConfig(depth=int(rng.integers(1, 5)))
            greedy = blend(pool, dist, config)
            _, best = brute_force_best(pool, dist, config, max_positions=config.depth)
            if best > 0:
                worst = min(worst, greedy.total / best)
        assert worst >= 0.95
