"""Hot numeric kernels in vectorized numpy.

Each kernel works on a whole batch per call and loops in Python only over
the short axis, or not at all: pools or pages by page position
(`greedy_blend`, `err_iaa_batch`), impressions by position
(`simulate_clicks_batch`), every feature row of one tree node at once
(`best_split`), and rows by tree depth (`tree_apply`).  `greedy_blend`
also walks its rows in cache-sized chunks of `_CHUNK` pools, each blended
position by position in preallocated buffers; a row's result does not
depend on the chunk it falls in.
tests/test_kernels.py checks every kernel bit-for-bit against a
scalar-loop reference in tests/oracles.py that performs the same float64
operations one element at a time; `best_split` row by row.

Kernels draw no randomness and read no global state: callers pass any
required uniform variates in as arrays, which keeps results reproducible.

The ``shift`` argument selects the position discount: 0 discounts position
r by p_break**r, 1 by p_break**(r-1).
"""

import numpy as np


def backend_name() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


# ---------------------------------------------------------------------------
# greedy blend: for each of B pools, place candidates one position at a
# time, always taking the largest marginal gain.  Row b holds sizes[b]
# candidates in its leading columns, already sorted in tie-break order, so
# np.argmax's first-maximum rule breaks gain ties; the remaining columns
# are padding and never placed.  The argmax uses the undiscounted gain; the
# positive per-position discount cannot change it.  Returns (order, gains),
# both (B, min(depth, M)): order holds the placed column per position, -1
# once a row's pool is exhausted, where its gain is 0.
#
# Rows are blended _CHUNK at a time, so that a chunk's (chunk, M) float64
# buffers stay in cache, and every position writes into them with out=
# instead of allocating.  Padded and placed columns are excluded by one
# additive penalty, 0 on open columns and -2 elsewhere.  Precondition: the
# (B, M) r_fresh, r_any and the (B,) p_fresh, p_any are float64 arrays with
# values in [0, 1] and p_fresh + p_any = 1, as every caller passes them, so
# every gain lies in [0, 1] up to rounding.  Adding 0.0 then leaves an open
# gain exact, and a penalized one lies below -0.9, under every open one, so
# the argmax and its first-maximum tie-break see what masking the placed
# columns would show.  Picks, gathers and placements go through flat
# indices row * M + column.  A row whose pool is exhausted keeps picking
# some penalized column; its order and gains are set to -1 and 0 once,
# after the loop.
# ---------------------------------------------------------------------------

_CHUNK = 1024


def greedy_blend(r_fresh, r_any, sizes, p_fresh, p_any, p_break, shift, depth):
    b, m = r_fresh.shape
    k = depth if depth < m else m
    order = np.empty((b, k), dtype=np.int64)
    gains = np.empty((b, k), dtype=np.float64)
    c = max(min(_CHUNK, b), 1)
    u, tmp, penalty = np.empty((3, c, m))
    wf, wa, sf, sa, taken = np.empty((5, c))
    pick, flat = np.empty((2, c), dtype=np.intp)
    row_start = np.arange(c, dtype=np.intp) * m
    columns = np.arange(m)
    for lo in range(0, b, c):
        hi = min(lo + c, b)
        n = hi - lo
        rf, ra = r_fresh[lo:hi], r_any[lo:hi]
        pf, pa = p_fresh[lo:hi], p_any[lo:hi]
        uc, tc, pc = u[:n], tmp[:n], penalty[:n]
        wfc, wac, sfc, sac = wf[:n], wa[:n], sf[:n], sa[:n]
        tk, pk, fl = taken[:n], pick[:n], flat[:n]
        pc.fill(0.0)
        pc[columns >= sizes[lo:hi, None]] = -2.0
        sfc.fill(1.0)
        sac.fill(1.0)
        disc = 1.0 if shift == 1 else p_break
        for pos in range(k):
            np.multiply(pf, sfc, out=wfc)
            np.multiply(pa, sac, out=wac)
            np.multiply(wfc[:, None], rf, out=uc)
            np.multiply(wac[:, None], ra, out=tc)
            uc += tc
            uc += pc
            np.argmax(uc, axis=1, out=pk)
            order[lo:hi, pos] = pk
            np.add(row_start[:n], pk, out=fl)
            np.take(uc, fl, out=tk)
            np.multiply(disc, tk, out=gains[lo:hi, pos])
            np.put(pc, fl, -2.0)
            np.take(rf, fl, out=tk)
            np.subtract(1.0, tk, out=tk)
            sfc *= tk
            np.take(ra, fl, out=tk)
            np.subtract(1.0, tk, out=tk)
            sac *= tk
            disc = disc * p_break
    past = np.arange(k) >= sizes[:, None]
    order[past] = -1
    gains[past] = 0.0
    return order, gains


# ---------------------------------------------------------------------------
# batched metric evaluation over fixed-width pages.  Rows shorter than the
# page width must be padded with zeros; a zero satisfaction probability
# contributes nothing and leaves the survival mass unchanged, so padding is
# exact.  p_fresh / p_any are per-row arrays.
# ---------------------------------------------------------------------------


def err_iaa_batch(r_fresh, r_any, p_fresh, p_any, p_break, shift):
    b, d = r_fresh.shape
    total = np.zeros(b, dtype=np.float64)
    sf = np.ones(b, dtype=np.float64)
    sa = np.ones(b, dtype=np.float64)
    disc = 1.0 if shift == 1 else p_break
    for j in range(d):
        rf = r_fresh[:, j]
        ra = r_any[:, j]
        total += disc * (p_fresh * sf * rf + p_any * sa * ra)
        sf = sf * (1.0 - rf)
        sa = sa * (1.0 - ra)
        disc = disc * p_break
    return total


# ---------------------------------------------------------------------------
# cascade click scan.  One row per simulated impression: before examining a
# position (every position for shift=0, every position after the first for
# shift=1) the user continues only when the continuation uniform is below
# p_break; an examined position is clicked, ending the scan, when the click
# uniform is below that position's satisfaction probability.  Returns the
# 1-based click position, 0 when nothing was clicked.  Both comparisons run
# once over the whole block; the scan over positions then reads only bool
# columns, and a row clicks at most once, so adding j + 1 where it clicks
# records its position.  The inputs are not written.
# ---------------------------------------------------------------------------


def simulate_clicks_batch(r_user, u_cont, u_click, p_break, shift):
    b, d = r_user.shape
    cont = u_cont < p_break
    hit = u_click < r_user
    pos = np.zeros(b, dtype=np.int64)
    alive = np.ones(b, dtype=np.bool_)
    for j in range(d):
        if not (shift == 1 and j == 0):
            alive &= cont[:, j]
        clicked = alive & hit[:, j]
        pos += clicked * (j + 1)
        alive &= ~clicked
    return pos


# ---------------------------------------------------------------------------
# best axis-aligned split by variance reduction, for each row of an (R, n)
# pair of matrices: row r holds one feature's n values in ascending order
# and the targets in the same order.  Returns (gains, cuts), both (R,):
# the best split of row r puts values[r, :cut] left and values[r, cut:]
# right; cuts[r] = -1 and gains[r] = 0 when no split has positive gain.
# Cuts are only considered between distinct values, and a gain tie within
# a row goes to the smallest cut.  np.cumsum(axis=1) adds each row in
# sequence, so every row's sums are those of a one-row scan.
# ---------------------------------------------------------------------------


def best_split(values, targets):
    r, n = values.shape
    gains = np.zeros(r, dtype=np.float64)
    cuts = np.full(r, -1, dtype=np.int64)
    if n < 2:
        return gains, cuts
    csum = np.cumsum(targets, axis=1)
    total = csum[:, -1:]
    nl = np.arange(1, n, dtype=np.float64)
    sl = csum[:, :-1]
    # the gain of every cut, sl * sl / nl + sr * sr / (n - nl) - total * total / n:
    # the same operations in the same order, in place to save temporaries
    scan = sl * sl
    scan /= nl
    sr = total - sl
    sr *= sr
    sr /= n - nl
    scan += sr
    scan -= total * total / n
    scan[values[:, 1:] == values[:, :-1]] = -np.inf
    best = np.argmax(scan, axis=1)
    gain = scan[np.arange(r), best]
    positive = gain > 0.0
    gains[positive] = gain[positive]
    cuts[positive] = best[positive] + 1
    return gains, cuts


# ---------------------------------------------------------------------------
# decision-tree descent over array-coded nodes.  feature[i] == -1 marks a
# leaf; routing is x <= threshold -> left.  Returns the leaf node index per
# row.
# ---------------------------------------------------------------------------


def tree_apply(x, feature, threshold, left, right):
    n = x.shape[0]
    node = np.zeros(n, dtype=np.int64)
    while True:
        f = feature[node]
        active = f >= 0
        if not active.any():
            return node
        col = np.where(active, f, 0)
        xv = x[np.arange(n), col]
        nxt = np.where(xv <= threshold[node], left[node], right[node])
        node = np.where(active, nxt, node)
