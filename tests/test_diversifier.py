"""Greedy blending against hand fixtures, exhaustive per-step rechecks
and the brute-force oracle, on one-pool batches of `kernels.greedy_blend`;
and, on prepared tables through `blend_pages`, the pure-fresh-intent page
and the independence of each row's blend from the batch it is blended in."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshblend import kernels

from freshblend.errors import ValidationError
from freshblend.experiments import blend_pages, prepare_queries
from freshblend.kernels import err_iaa_batch, greedy_blend
from freshblend.metric import BreakExponent, MetricConfig
from oracles import (
    Candidate,
    Ranking,
    advance,
    brute_force_best,
    generated_corpora,
    hand_built,
    initial_state,
    marginal_gain,
    page_arrays,
    scan_best,
    tie_key,
)

CFG = MetricConfig()


def cand(doc_id, r_any, r_fresh, rank):
    return Candidate(doc_id, r_any, r_fresh, ordinary_rank=rank)


def random_pool(rng, n):
    return [
        cand(f"d{i}", float(rng.random()), float(rng.random()), rank=i + 1)
        for i in range(n)
    ]


class TestBlendFixtures:
    # each pool below is listed in tie order, as the kernel reads it

    def test_two_doc_instance_orders_fresh_capable_doc_first(self):
        pool = [cand("A", 0.6, 0.6, 1), cand("B", 0.6, 0.0, 2)]
        order, gains = greedy_blend(*page_arrays(pool), np.array([2]), np.array([0.5]),
                                    np.array([0.5]), CFG.p_break, 0, CFG.depth)
        assert order.tolist() == [[0, 1]]
        assert gains.sum() == pytest.approx(0.5967, abs=1e-12)

    def test_pure_any_intent_reproduces_ordinary_order(self):
        pool = [cand(f"d{i}", p, 0.0, rank=i + 1) for i, p in enumerate((0.6, 0.5, 0.4, 0.3))]
        order, _ = greedy_blend(*page_arrays(pool), np.array([4]), np.array([0.0]),
                                np.array([1.0]), CFG.p_break, 0, CFG.depth)
        assert order.tolist() == [[0, 1, 2, 3]]

    def test_result_length_is_pool_or_depth(self):
        pool = sorted(random_pool(np.random.default_rng(0), 7), key=tie_key)
        for depth, length in ((4, 4), (12, 7)):
            order, gains = greedy_blend(*page_arrays(pool), np.array([7]), np.array([0.5]),
                                        np.array([0.5]), CFG.p_break, 0, depth)
            assert order.shape == gains.shape == (1, length)
            assert (order >= 0).all()

    def test_empty_pool_blends_to_an_empty_page(self):
        prepared = prepare_queries(*hand_built({"q": Ranking(())}, 1000), CFG,
                                   require_latents=False)
        orders, gains = blend_pages(prepared, 0.5, CFG)
        assert prepared.sizes.tolist() == [0]
        assert orders.shape == gains.shape == (1, 0)

    def test_depth_one_pick_ignores_p_break_under_shifted_exponent(self):
        pool = sorted(random_pool(np.random.default_rng(3), 6), key=tie_key)
        picks = set()
        for p_break in (0.1, 0.5, 0.85, 0.99):
            order, _ = greedy_blend(*page_arrays(pool), np.array([6]), np.array([0.5]),
                                    np.array([0.5]), p_break, 1, 1)
            picks.add(int(order[0, 0]))
        assert len(picks) == 1


class TestGreedyStepOptimality:
    def test_every_pick_maximizes_marginal_gain(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            pool = sorted(random_pool(rng, int(rng.integers(1, 9))), key=tie_key)
            p = float(rng.random())
            order, gains = greedy_blend(*page_arrays(pool), np.array([len(pool)]),
                                        np.array([p]), np.array([1.0 - p]), CFG.p_break,
                                        CFG.break_exponent.shift, CFG.depth)
            state = initial_state()
            remaining = set(range(len(pool)))
            for column, gain in zip(order[0], gains[0]):
                remaining.remove(column)
                picked_gain = marginal_gain(state, pool[column], p, CFG)
                assert gain == pytest.approx(picked_gain, abs=1e-12)
                for other in remaining:
                    assert marginal_gain(state, pool[other], p, CFG) <= picked_gain
                state = advance(state, pool[column])

    def test_first_pick_is_best_single_document(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pool = sorted(random_pool(rng, int(rng.integers(1, 9))), key=tie_key)
            p = float(rng.random())
            _, gains = greedy_blend(*page_arrays(pool), np.array([len(pool)]), np.array([p]),
                                    np.array([1.0 - p]), CFG.p_break,
                                    CFG.break_exponent.shift, CFG.depth)
            # every candidate alone, as a batch of one-document pages
            r_fresh, r_any = page_arrays(pool)
            singles = err_iaa_batch(r_fresh.T, r_any.T, np.full(len(pool), p),
                                    np.full(len(pool), 1.0 - p), CFG.p_break,
                                    CFG.break_exponent.shift)
            assert gains[0, 0] == pytest.approx(singles.max(), abs=1e-12)


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
            assert brute_force_best(pool, p_fresh, config, max_positions) == scan_best(
                pool, p_fresh, config, max_positions
            )

    def test_single_candidate(self):
        only = cand("x", 0.4, 0.2, 1)
        ids, score = brute_force_best([only], 0.5, CFG)
        assert ids == ("x",)
        expected = err_iaa_batch(*page_arrays([only]), np.array([0.5]), np.array([0.5]),
                                 CFG.p_break, CFG.break_exponent.shift)[0]
        assert score == pytest.approx(expected, abs=1e-15)

    def test_two_doc_instance(self):
        a = cand("A", 0.6, 0.6, 1)
        b = cand("B", 0.6, 0.0, 2)
        ids, score = brute_force_best([a, b], 0.5, CFG)
        assert ids == ("A", "B")
        assert score == pytest.approx(0.5967, abs=1e-12)

    def test_identical_candidates_make_order_irrelevant(self):
        pool = [cand(f"d{i}", 0.4, 0.3, i + 1) for i in range(4)]
        _, score = brute_force_best(pool, 0.5, CFG, max_positions=3)
        expected = err_iaa_batch(*page_arrays(pool[:3]), np.array([0.5]), np.array([0.5]),
                                 CFG.p_break, CFG.break_exponent.shift)[0]
        assert score == pytest.approx(expected, abs=1e-12)

    def test_size_guards(self):
        pool = random_pool(np.random.default_rng(1), 9)
        with pytest.raises(ValidationError):
            brute_force_best(pool, 0.5, CFG)
        for max_positions in (6, 0, -1):
            with pytest.raises(ValidationError):
                brute_force_best(pool[:4], 0.5, CFG, max_positions=max_positions)

    def test_greedy_stays_within_5_percent_of_oracle(self):
        rng = np.random.default_rng(2024)
        worst = 1.0
        for _ in range(100):
            pool = sorted(random_pool(rng, int(rng.integers(2, 7))), key=tie_key)
            p = float(rng.random())
            config = MetricConfig(depth=int(rng.integers(1, 5)))
            _, gains = greedy_blend(*page_arrays(pool), np.array([len(pool)]), np.array([p]),
                                    np.array([1.0 - p]), config.p_break,
                                    config.break_exponent.shift, config.depth)
            _, best = brute_force_best(pool, p, config, max_positions=config.depth)
            if best > 0:
                worst = min(worst, float(gains.sum()) / best)
        assert worst >= 0.95


class TestPureFreshIntent:
    @given(generated_corpora())
    @settings(max_examples=40, deadline=None)
    def test_fresh_candidates_lead_by_r_fresh_then_the_rest_by_rank(self, drawn):
        # at p_fresh = 1 every page opens with its pool's fresh candidates
        # (cal_fresh > 0) in non-increasing r_fresh, then the rest in
        # ascending ordinary rank, and holds min(depth, pool size) documents
        corpus, window, table, config = drawn
        prepared = prepare_queries(corpus.queries, corpus.rankings, config, window, table)
        orders, _ = blend_pages(prepared, 1.0, config)
        for b, order in enumerate(orders):
            size = int(prepared.sizes[b])
            page = order[order >= 0]
            assert page.size == min(config.depth, size)
            assert (order[page.size:] == -1).all()
            r_fresh = prepared.cal_fresh[b, page]
            lead = min(page.size, int((prepared.cal_fresh[b, :size] > 0).sum()))
            assert (r_fresh[:lead] > 0).all() and (r_fresh[lead:] == 0).all()
            assert (np.diff(r_fresh[:lead]) <= 0).all()
            ranks = prepared.table.rank[prepared.candidates[b, page[lead:]]]
            assert (np.diff(ranks) > 0).all()


def rows_of(prepared, lo, hi):
    """The prepared queries of rows lo:hi, every per-query field sliced."""
    per_query = {field.name: getattr(prepared, field.name)[lo:hi]
                 for field in dataclasses.fields(prepared) if field.name != "table"}
    return dataclasses.replace(prepared, **per_query)


class TestSplitBatches:
    @given(generated_corpora(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_whole_batch_equals_the_blends_of_a_split(self, drawn, data):
        # the kernel walks its rows in chunks of kernels._CHUNK; however the
        # rows are split into batches and chunks, each row's page and gains
        # are the same
        corpus, window, table, config = drawn
        prepared = prepare_queries(corpus.queries, corpus.rankings, config, window, table)
        b = len(prepared.query_ids)
        p_fresh = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=b, max_size=b)))
        cuts = sorted(data.draw(st.lists(st.integers(0, b), max_size=4)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_CHUNK", data.draw(st.integers(1, b + 1)))
            whole = blend_pages(prepared, p_fresh, config)
            patch.setattr(kernels, "_CHUNK", data.draw(st.integers(1, 8)))
            pieces = [blend_pages(rows_of(prepared, lo, hi), p_fresh[lo:hi], config)
                      for lo, hi in zip([0, *cuts], [*cuts, b])]
        for whole_part, piece_parts in zip(whole, zip(*pieces)):
            assert np.array_equal(whole_part, np.concatenate(piece_parts))
