"""Every numpy kernel must agree bit-for-bit with a scalar-loop reference
(tests/oracles.py) that performs the same float64 operations one element
at a time."""

import numpy as np
import pytest

from freshblend import kernels
from oracles import (
    best_split_loop,
    err_iaa_batch_loop,
    greedy_blend_loop,
    simulate_clicks_loop,
    tree_apply_loop,
)

# ---------------------------------------------------------------------------
# numpy kernels against the references
# ---------------------------------------------------------------------------


def random_pool(rng, m):
    r_fresh = rng.random(m)
    r_any = rng.random(m)
    # engineered ties: duplicate some probabilities so tie-breaking paths run
    if m >= 4:
        r_fresh[1] = r_fresh[0]
        r_any[1] = r_any[0]
        r_fresh[3] = 0.0
        r_any[3] = r_any[2]
    if rng.random() < 0.2:  # a pool where every candidate ties
        r_fresh[:] = r_fresh[0]
        r_any[:] = r_any[0]
    tie_rank = rng.permutation(m).astype(np.int64)
    return r_fresh, r_any, tie_rank


# patched kernels._CHUNK values: every seam between chunks, a short last
# chunk, and (None, the default) a batch smaller than one chunk
CHUNKS = {"chunk1": 1, "chunk2": 2, "chunk3": 3, "chunk7": 7, "default": None}


def patch_chunk(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(kernels, "_CHUNK", chunk)


class TestLoopOracles:
    @pytest.mark.parametrize("chunk", CHUNKS.values(), ids=CHUNKS.keys())
    def test_greedy_blend_row_by_row(self, monkeypatch, chunk):
        patch_chunk(monkeypatch, chunk)
        rng = np.random.default_rng(0)
        for _ in range(60):
            b = int(rng.integers(1, 10))
            sizes = rng.integers(1, 25, b)
            m = int(sizes.max()) + int(rng.integers(0, 3))  # extra all-padding columns
            depth = int(rng.integers(1, 30))  # both below and above m
            shift = int(rng.integers(0, 2))
            p_fresh = rng.random(b)
            p_fresh[rng.random(b) < 0.2] = 0.0
            r_fresh = np.zeros((b, m))
            r_any = np.zeros((b, m))
            expected = []
            for i, size in enumerate(sizes):
                rf, ra, tie_rank = random_pool(rng, size)
                order_i, gains_i = greedy_blend_loop(
                    rf, ra, tie_rank, p_fresh[i], 1.0 - p_fresh[i], 0.85, shift, depth
                )
                # the kernel takes each pool laid out in tie-break order
                by_tie = np.argsort(tie_rank)
                r_fresh[i, :size] = rf[by_tie]
                r_any[i, :size] = ra[by_tie]
                expected.append((by_tie, order_i, gains_i))
            order, gains = kernels.greedy_blend(
                r_fresh, r_any, sizes, p_fresh, 1.0 - p_fresh, 0.85, shift, depth
            )
            assert order.shape == gains.shape == (b, min(depth, m))
            for i, (by_tie, order_i, gains_i) in enumerate(expected):
                k = order_i.size
                assert np.array_equal(by_tie[order[i, :k]], order_i)
                assert np.array_equal(gains[i, :k], gains_i)
                assert (order[i, k:] == -1).all()
                assert (gains[i, k:] == 0.0).all()

    @pytest.mark.parametrize("chunk", CHUNKS.values(), ids=CHUNKS.keys())
    @pytest.mark.parametrize("b, m, depth", [(0, 5, 3), (0, 0, 2), (4, 0, 3), (5, 4, 9)])
    def test_greedy_blend_empty_batches_and_depth_past_the_pool(self, monkeypatch, chunk,
                                                                b, m, depth):
        patch_chunk(monkeypatch, chunk)
        rng = np.random.default_rng(b + m)
        r_fresh, r_any = rng.random((b, m)), rng.random((b, m))
        sizes = np.full(b, m)
        p_fresh = rng.random(b)
        order, gains = kernels.greedy_blend(r_fresh, r_any, sizes, p_fresh, 1.0 - p_fresh,
                                            0.85, 0, depth)
        assert order.dtype == np.int64 and gains.dtype == np.float64
        assert order.shape == gains.shape == (b, min(depth, m))
        for i in range(b):
            order_i, gains_i = greedy_blend_loop(r_fresh[i], r_any[i], np.arange(m),
                                                 p_fresh[i], 1.0 - p_fresh[i], 0.85, 0, depth)
            assert np.array_equal(order[i], order_i)
            assert np.array_equal(gains[i], gains_i)

    @pytest.mark.parametrize("chunk", CHUNKS.values(), ids=CHUNKS.keys())
    @pytest.mark.parametrize("shift", [0, 1])
    def test_greedy_blend_all_padding_rows(self, monkeypatch, chunk, shift):
        # rows of size 0 beside full and partial rows, at every chunk seam:
        # an all-padding row places nothing and leaves its neighbours alone
        patch_chunk(monkeypatch, chunk)
        rng = np.random.default_rng(5 + shift)
        sizes = np.array([0, 6, 0, 0, 3, 6, 0, 1, 0])
        b, m = sizes.size, 6
        padding = np.arange(m)[None, :] >= sizes[:, None]
        r_fresh = np.where(padding, 0.0, rng.random((b, m)))
        r_any = np.where(padding, 0.0, rng.random((b, m)))
        p_fresh = rng.random(b)
        order, gains = kernels.greedy_blend(r_fresh, r_any, sizes, p_fresh, 1.0 - p_fresh,
                                            0.85, shift, 4)
        assert (order[sizes == 0] == -1).all() and (gains[sizes == 0] == 0.0).all()
        for i, size in enumerate(sizes):
            order_i, gains_i = greedy_blend_loop(r_fresh[i, :size], r_any[i, :size],
                                                 np.arange(size), p_fresh[i], 1.0 - p_fresh[i],
                                                 0.85, shift, 4)
            k = order_i.size
            assert np.array_equal(order[i, :k], order_i)
            assert np.array_equal(gains[i, :k], gains_i)
            assert (order[i, k:] == -1).all() and (gains[i, k:] == 0.0).all()

    def test_err_iaa_batch(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            b = int(rng.integers(1, 40))
            d = int(rng.integers(1, 12))
            r_fresh = rng.random((b, d))
            r_any = rng.random((b, d))
            p_fresh = rng.random(b)
            args = (r_fresh, r_any, p_fresh, 1.0 - p_fresh, 0.85, int(rng.integers(0, 2)))
            assert np.array_equal(kernels.err_iaa_batch(*args), err_iaa_batch_loop(*args))

    def test_simulate_clicks(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            b = int(rng.integers(1, 60))
            d = int(rng.integers(1, 12))
            r_user = rng.random((b, d))
            u_cont = rng.random((b, d))
            u_click = rng.random((b, d))
            args = (r_user, u_cont, u_click, 0.85, int(rng.integers(0, 2)))
            assert np.array_equal(kernels.simulate_clicks_batch(*args),
                                  simulate_clicks_loop(*args))

    @pytest.mark.parametrize("shift", [0, 1])
    @pytest.mark.parametrize("b, d", [(0, 4), (5, 0), (0, 0)])
    def test_simulate_clicks_empty_blocks(self, b, d, shift):
        args = (np.zeros((b, d)), np.zeros((b, d)), np.zeros((b, d)), 0.85, shift)
        pos = kernels.simulate_clicks_batch(*args)
        assert pos.dtype == np.int64
        assert np.array_equal(pos, simulate_clicks_loop(*args))

    @pytest.mark.parametrize("shift", [0, 1])
    @pytest.mark.parametrize("p_break", [0.0, 0.5, 1.0])
    def test_simulate_clicks_boundary_values_on_column_slices(self, p_break, shift):
        # r of 0 and 1, and draws exactly equal to p_break or to r, on the
        # [:, :width] slices of full-depth draws that the A/B test passes
        rng = np.random.default_rng(int(p_break * 4) + shift)
        depth, width = 10, 6
        draws = np.array([0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)])
        r_user = rng.choice([0.0, 0.25, 0.5, 1.0], (3000, width))
        u_cont = rng.choice(draws, (3000, depth))[:, :width]
        u_click = rng.choice(draws, (3000, depth))[:, :width]
        before = [a.copy() for a in (r_user, u_cont, u_click)]
        args = (r_user, u_cont, u_click, p_break, shift)
        assert np.array_equal(kernels.simulate_clicks_batch(*args), simulate_clicks_loop(*args))
        for a, copy in zip((r_user, u_cont, u_click), before):
            assert np.array_equal(a, copy)

    def test_best_split(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(1, 80))
            r = int(rng.integers(1, 8))
            values = np.sort(rng.integers(0, 8, (r, n)).astype(np.float64), axis=1)
            values[rng.random(r) < 0.2] = 3.0  # rows where every value ties
            targets = rng.normal(0, 1, (r, n))
            # the fit scans a column slice of a wider matrix
            pad = int(rng.integers(0, 3))
            wide_values = np.zeros((r, n + 2 * pad))
            wide_targets = np.zeros((r, n + 2 * pad))
            wide_values[:, pad:pad + n] = values
            wide_targets[:, pad:pad + n] = targets
            gains, cuts = kernels.best_split(wide_values[:, pad:pad + n],
                                             wide_targets[:, pad:pad + n])
            assert gains.shape == cuts.shape == (r,)
            for row in range(r):
                gain, cut = best_split_loop(values[row], targets[row])
                assert cuts[row] == cut
                assert gains[row] == gain

    def test_best_split_short_rows(self):
        # two values: a gain, no gain, and two equal values
        values = np.array([[1.0, 2.0], [1.0, 2.0], [4.0, 4.0]])
        targets = np.array([[0.5, -0.5], [0.25, 0.25], [1.0, 0.0]])
        gains, cuts = kernels.best_split(values, targets)
        assert list(cuts) == [1, -1, -1]
        for row in range(3):
            assert (gains[row], cuts[row]) == best_split_loop(values[row], targets[row])
        # one value per row: nothing to split
        gains, cuts = kernels.best_split(np.zeros((4, 1)), np.ones((4, 1)))
        assert (gains == 0.0).all() and (cuts == -1).all()
        assert best_split_loop(np.zeros(1), np.ones(1)) == (0.0, -1)

    def test_tree_apply(self):
        rng = np.random.default_rng(4)
        #        0: f0 <= 0.5 ? 1 : 2      1: leaf      2: f1 <= 0.3 ? 3 : 4
        feature = np.array([0, -1, 1, -1, -1], dtype=np.int64)
        threshold = np.array([0.5, 0.0, 0.3, 0.0, 0.0])
        left = np.array([1, -1, 3, -1, -1], dtype=np.int64)
        right = np.array([2, -1, 4, -1, -1], dtype=np.int64)
        x = rng.random((200, 2))
        assert np.array_equal(
            kernels.tree_apply(x, feature, threshold, left, right),
            tree_apply_loop(x, feature, threshold, left, right),
        )


class TestBackendSelection:
    def test_active_backend_is_reported(self):
        assert kernels.backend_name() == "numpy"
