"""Independent reference implementations the tests check the library
against.

The library keeps one implementation of each rule.  Its scalar
references live here: a scalar loop per numpy kernel performing the same
float64 operations one element at a time, the boosted-tree fit one node
at a time, the candidate pools built one query and one document at a
time, the greedy step folded into per-intent survival masses,
from-scratch evaluations of the objective, exhaustive searches,
rank-based Mann-Whitney tests, the A/B test drawn whole in one shot,
the rankings reader and the corpus generator one line and one
`DocEntry` at a time, and the small-file loaders one row at a time, each
value checked as it is read (`load_queries_rows` and the others).  A
ranking here is a `Ranking` of `DocEntry` records, and `hand_built`
turns such rankings into the tables the library reads.  A page or pool
is a list of `Candidate` records; `page_arrays` packs one into the (1, n)
rows the page kernels read.  It also holds the hypothesis strategy that
draws generated corpora with the tables and metric settings to prepare
them under.
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from hypothesis import strategies as st

from freshblend import experiments, kernels
from freshblend.calibration import PositionPriorTable
from freshblend.corpus import (GRADE_VALUES, FeatureTable, GeneratorConfig, JudgmentTable,
                               QueryTable, RankingTable, generate_corpus)
from freshblend.errors import ParseError, ValidationError
from freshblend.fileio import TsvRows, parse_int, parse_real
from freshblend.freshness import FreshnessWindow, is_fresh
from freshblend.metric import DEFAULT_METRIC_CONFIG, BreakExponent, MetricConfig
from freshblend.recency_classifier import (GbrtHyperparams, GbrtModel, RegressionTree,
                                           _training_arrays)


@dataclass(frozen=True)
class Candidate:
    """One document of a page or pool with its per-intent satisfaction
    probabilities, and its ranks where the pool builder knows them."""

    doc_id: str
    r_any: float
    r_fresh: float
    ordinary_rank: int | None = None
    fresh_rank: int | None = None


def tie_key(candidate: Candidate):
    """The pool order that breaks gain ties: higher r_any, then lower
    ordinary rank, then doc_id."""
    rank = candidate.ordinary_rank if candidate.ordinary_rank is not None else 1 << 30
    return (-candidate.r_any, rank, candidate.doc_id)


def page_arrays(page):
    """A page's r_fresh and r_any as (1, n) kernel rows."""
    return (np.array([[c.r_fresh for c in page]], dtype=np.float64),
            np.array([[c.r_any for c in page]], dtype=np.float64))


# ---------------------------------------------------------------------------
# scalar loops of the numpy kernels
# ---------------------------------------------------------------------------


def greedy_blend_loop(r_fresh, r_any, tie_rank, p_fresh, p_any, p_break, shift, depth):
    """One pool in any column order; ties on the gain go to the smaller
    tie_rank."""
    m = r_fresh.shape[0]
    k = depth if depth < m else m
    order = np.empty(k, dtype=np.int64)
    gains = np.empty(k, dtype=np.float64)
    placed = np.zeros(m, dtype=np.bool_)
    sf = 1.0
    sa = 1.0
    disc = 1.0 if shift == 1 else p_break
    for pos in range(k):
        wf = p_fresh * sf
        wa = p_any * sa
        best_u = -1.0
        best_i = -1
        best_tie = 0
        for i in range(m):
            if placed[i]:
                continue
            u = wf * r_fresh[i] + wa * r_any[i]
            if u > best_u or (u == best_u and tie_rank[i] < best_tie):
                best_u = u
                best_i = i
                best_tie = tie_rank[i]
        order[pos] = best_i
        gains[pos] = disc * best_u
        placed[best_i] = True
        sf = sf * (1.0 - r_fresh[best_i])
        sa = sa * (1.0 - r_any[best_i])
        disc = disc * p_break
    return order, gains


def err_iaa_batch_loop(r_fresh, r_any, p_fresh, p_any, p_break, shift):
    b, d = r_fresh.shape
    total = np.zeros(b, dtype=np.float64)
    for i in range(b):
        sf = 1.0
        sa = 1.0
        disc = 1.0 if shift == 1 else p_break
        acc = 0.0
        for j in range(d):
            rf = r_fresh[i, j]
            ra = r_any[i, j]
            acc += disc * (p_fresh[i] * sf * rf + p_any[i] * sa * ra)
            sf = sf * (1.0 - rf)
            sa = sa * (1.0 - ra)
            disc = disc * p_break
        total[i] = acc
    return total


def simulate_clicks_loop(r_user, u_cont, u_click, p_break, shift):
    b, d = r_user.shape
    pos = np.zeros(b, dtype=np.int64)
    for i in range(b):
        p = 0
        for j in range(d):
            if not (shift == 1 and j == 0):
                if u_cont[i, j] >= p_break:
                    break
            if u_click[i, j] < r_user[i, j]:
                p = j + 1
                break
        pos[i] = p
    return pos


def best_split_loop(values, targets):
    n = values.shape[0]
    if n < 2:
        return 0.0, -1
    total = 0.0
    for i in range(n):
        total += targets[i]
    parent = total * total / n
    best_gain = 0.0
    best_cut = -1
    s = 0.0
    for i in range(1, n):
        s += targets[i - 1]
        if values[i] == values[i - 1]:
            continue
        nl = float(i)
        sr = total - s
        gain = s * s / nl + sr * sr / (n - nl) - parent
        if gain > best_gain:
            best_gain = gain
            best_cut = i
    if best_cut == -1:
        return 0.0, -1
    return best_gain, best_cut


def tree_apply_loop(x, feature, threshold, left, right):
    n = x.shape[0]
    node = np.zeros(n, dtype=np.int64)
    for i in range(n):
        cur = 0
        while feature[cur] >= 0:
            if x[i, feature[cur]] <= threshold[cur]:
                cur = left[cur]
            else:
                cur = right[cur]
        node[i] = cur
    return node


# ---------------------------------------------------------------------------
# the boosted ensemble fit one node at a time: every node argsorts each
# feature over its own rows and scans them with the scalar split loop, and
# the recursion numbers nodes in depth-first preorder
# ---------------------------------------------------------------------------


class TreeBuilder:
    def __init__(self, x: np.ndarray, residual: np.ndarray, max_depth: int):
        self.x = x
        self.residual = residual
        self.max_depth = max_depth
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.leaf: list[float] = []

    def build(self, idx: np.ndarray, depth: int) -> int:
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.leaf.append(0.0)

        y = self.residual[idx]
        split = self._best_split(idx) if depth < self.max_depth and idx.size >= 2 else None
        if split is None:
            self.leaf[node] = float(y.sum() / y.size)
            return node

        feature, threshold = split
        mask = self.x[idx, feature] <= threshold
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = self.build(idx[mask], depth + 1)
        self.right[node] = self.build(idx[~mask], depth + 1)
        return node

    def _best_split(self, idx: np.ndarray):
        best_gain = 0.0
        best = None
        y = self.residual[idx]
        for feature in range(self.x.shape[1]):
            column = self.x[idx, feature]
            order = np.argsort(column, kind="stable")
            gain, cut = best_split_loop(column[order], y[order])
            if cut >= 0 and gain > best_gain:
                best_gain = gain
                # threshold is the left boundary value; routing is <=
                best = (feature, float(column[order][cut - 1]))
        return best

    def tree(self) -> RegressionTree:
        return RegressionTree(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            leaf=np.asarray(self.leaf, dtype=np.float64),
        )


def train_gbrt_per_node(x, y, hyperparams: GbrtHyperparams = GbrtHyperparams(),
                        seed: int = 0, feature_names=None) -> GbrtModel:
    """train_gbrt's ensemble, each tree grown by TreeBuilder."""
    x, y = _training_arrays(x, y)
    if feature_names is None:
        names = tuple(f"f{i}" for i in range(x.shape[1]))
    else:
        names = tuple(feature_names)
    rng = np.random.default_rng(seed)
    base = float(y.sum() / y.size)
    prediction = np.full(y.size, base, dtype=np.float64)
    trees = []
    for _ in range(hyperparams.n_trees):
        residual = y - prediction
        if hyperparams.subsample < 1.0:
            take = max(1, int(round(y.size * hyperparams.subsample)))
            idx = np.sort(rng.permutation(y.size)[:take]).astype(np.int64)
        else:
            idx = np.arange(y.size, dtype=np.int64)
        builder = TreeBuilder(x, residual, hyperparams.max_depth)
        builder.build(idx, 0)
        tree = builder.tree()
        trees.append(tree)
        prediction = prediction + hyperparams.learning_rate * tree.apply(x)
    return GbrtModel(names, base, hyperparams.learning_rate, hyperparams.max_depth, tuple(trees))


# ---------------------------------------------------------------------------
# the objective, one appended candidate at a time and from scratch
# ---------------------------------------------------------------------------


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


def marginal_gain(state: PrefixState, candidate, p_fresh: float,
                  config: MetricConfig = DEFAULT_METRIC_CONFIG) -> float:
    """Increase of the objective from placing `candidate` next, with the
    fresh intent at probability `p_fresh` and the any intent at the rest."""
    disc = discount(state.next_position, config)
    return disc * (
        p_fresh * state.survive_fresh * candidate.r_fresh
        + (1.0 - p_fresh) * state.survive_any * candidate.r_any
    )


def advance(state: PrefixState, candidate) -> PrefixState:
    """Fold one placed candidate into the survival masses."""
    return PrefixState(
        survive_fresh=state.survive_fresh * (1.0 - candidate.r_fresh),
        survive_any=state.survive_any * (1.0 - candidate.r_any),
        next_position=state.next_position + 1,
    )


def brute_err_iaa(page, p_fresh, config):
    """Independent transcription of the objective, O(n^2): discounts
    recomputed via pow and the survival products re-multiplied from
    scratch at every position."""
    page = page[: config.depth]
    total = 0.0
    for r in range(1, len(page) + 1):
        disc = config.p_break ** (r - config.break_exponent.shift)
        for p_t, attr in ((p_fresh, "r_fresh"), (1.0 - p_fresh, "r_any")):
            survive = 1.0
            for i in range(r - 1):
                survive *= 1.0 - getattr(page[i], attr)
            total += disc * p_t * survive * getattr(page[r - 1], attr)
    return total


# ---------------------------------------------------------------------------
# rankings, one line and one document at a time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DocEntry:
    """One ranked document, its values checked as the rankings reader
    checks a row's; an absent latent is None."""

    doc_id: str
    rank: int
    timestamp: int
    latent_rel_any: float | None = None
    latent_rel_fresh: float | None = None

    def __post_init__(self):
        if self.rank < 1:
            raise ValidationError(f"rank must be >= 1, got {self.rank}")
        if not 0 <= self.timestamp < 2**63:
            raise ValidationError(f"timestamp must be in [0, 2**63), got {self.timestamp}")
        for label in ("latent_rel_any", "latent_rel_fresh"):
            value = getattr(self, label)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValidationError(f"{label} out of [0,1]: {value!r}")


@dataclass(frozen=True)
class Ranking:
    """One query's documents in rank order, each doc id once."""

    entries: tuple[DocEntry, ...]

    def __post_init__(self):
        seen = set()
        for i, entry in enumerate(self.entries):
            if entry.doc_id in seen:
                raise ValidationError(f"duplicate doc_id {entry.doc_id!r} in ranking")
            seen.add(entry.doc_id)
            if entry.rank != i + 1:
                raise ValidationError(
                    f"ranks must be contiguous from 1; position {i + 1} has rank {entry.rank}"
                )


def hand_built(rankings: dict[str, Ranking], issue_time=0) -> tuple[QueryTable, RankingTable]:
    """The tables of hand-built rankings, in the mapping's order: their
    queries, issued at `issue_time` (one time, or one per query) with no
    grade or volume, and their RankingTable."""
    query_ids = tuple(rankings)
    held = [rankings[qid].entries for qid in query_ids]
    entries = [entry for ranking in held for entry in ranking]
    lengths = np.fromiter(map(len, held), dtype=np.int64, count=len(held))
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    query = np.repeat(np.arange(len(held)), lengths)
    timestamps = np.fromiter((e.timestamp for e in entries), dtype=np.int64, count=len(entries))
    latent_any, latent_fresh = np.array([[e.latent_rel_any for e in entries],
                                         [e.latent_rel_fresh for e in entries]], dtype=np.float64)
    rank = np.arange(1, len(entries) + 1) - offsets[query]
    table = RankingTable(query_ids, offsets, query, rank, tuple(e.doc_id for e in entries),
                         timestamps, latent_any, latent_fresh)
    n = len(query_ids)
    queries = QueryTable(query_ids, np.broadcast_to(np.asarray(issue_time, np.int64), n).copy(),
                         np.full(n, np.nan), np.zeros(n, dtype=np.int64))
    return queries, table


def load_rankings(path: str) -> dict[str, Ranking]:
    """Read a rankings TSV into per-query rankings sorted by rank, each
    line checked by `TsvRows`, for a new (query_id, doc_id) pair and by
    `DocEntry`, each query by `Ranking`."""
    per_query: dict[str, list[DocEntry]] = {}
    seen = set()
    with TsvRows(path, (4, 6)) as rows:
        for fields in rows:
            pair = (fields[0], fields[1])
            if not all(pair):
                raise ParseError("empty query_id or doc_id")
            if pair in seen:
                raise ParseError(f"duplicate query_id/doc_id {pair!r}")
            seen.add(pair)
            entry = DocEntry(
                fields[1],
                parse_int(fields[2], "rank"),
                parse_int(fields[3], "timestamp"),
                opt_real(fields[4], "latent_rel_any") if len(fields) > 4 else None,
                opt_real(fields[5], "latent_rel_fresh") if len(fields) > 5 else None,
            )
            per_query.setdefault(fields[0], []).append(entry)

    rankings: dict[str, Ranking] = {}
    for qid, entries in per_query.items():
        entries.sort(key=lambda e: e.rank)
        try:
            rankings[qid] = Ranking(tuple(entries))
        except ValidationError as exc:
            raise ParseError(f"query {qid!r}: {exc}", path) from None
    return rankings


def opt_real(token: str, what: str) -> float | None:
    return None if token == "-" else parse_real(token, what)


# ---------------------------------------------------------------------------
# the small files, one row at a time
# ---------------------------------------------------------------------------


def _new_key(qid: str, seen: set) -> str:
    """A row's query_id, which must be non-empty and new."""
    if not qid:
        raise ParseError("empty query_id")
    if qid in seen:
        raise ParseError(f"duplicate query_id {qid!r}")
    seen.add(qid)
    return qid


def _on_scale(grade: float, what: str) -> float:
    if grade not in GRADE_VALUES:
        raise ValidationError(f"{what} {grade!r} not in {GRADE_VALUES}")
    return grade


def load_queries_rows(path: str) -> QueryTable:
    query_ids, times, grades, volumes, seen = [], [], [], [], set()
    with TsvRows(path, (4, 4)) as rows:
        for qid, issue_time, grade, volume in rows:
            _new_key(qid, seen)
            times.append(parse_int(issue_time, "issue_time"))
            grade = opt_real(grade, "true_grade")
            volume = None if volume == "-" else parse_int(volume, "volume")
            grades.append(math.nan if grade is None else _on_scale(grade, "true_grade"))
            if volume is not None and volume < 1:
                raise ValidationError(f"volume must be positive, got {volume}")
            query_ids.append(qid)
            volumes.append(volume or 0)
    return QueryTable(tuple(query_ids), np.array(times, np.int64),
                      np.array(grades, np.float64), np.array(volumes, np.int64))


def load_judgments_rows(path: str) -> JudgmentTable:
    query_ids, grades, seen = [], [], set()
    with TsvRows(path, (4, 4)) as rows:
        for qid, *tokens in rows:
            query_ids.append(_new_key(qid, seen))
            grades.append([parse_real(token, "grade") for token in tokens])
            for grade in grades[-1]:
                _on_scale(grade, "assessor grade")
    return JudgmentTable(tuple(query_ids), np.array(grades, np.float64).reshape(-1, 3))


def load_features_rows(path: str) -> FeatureTable:
    query_ids, rows, seen = [], [], set()
    with TsvRows(path) as reader:
        header = next(iter(reader), None)
        if header is None:
            return FeatureTable((), (), np.empty((0, 0)))
        if header[0] != "query_id":
            raise ValidationError(f"header must start with 'query_id', got {header[0]!r}")
        names = tuple(header[1:])
        if not names:
            raise ValidationError("header names no feature")
        if not all(names):
            raise ValidationError("empty feature name in header")
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValidationError(f"duplicate feature name {name!r}")
        reader.width = (len(names) + 1, len(names) + 1)
        for qid, *tokens in reader:  # goes on after the header
            query_ids.append(_new_key(qid, seen))
            rows.append([parse_real(token, "feature value") for token in tokens])
    return FeatureTable(names, tuple(query_ids),
                        np.array(rows, np.float64).reshape(len(rows), len(names)))


def load_predictions_rows(path: str) -> dict[str, float]:
    seen = set()
    with TsvRows(path, (2, 2)) as rows:
        return {_new_key(qid, seen): parse_real(p_fresh, "p_fresh") for qid, p_fresh in rows}


def load_query_log_rows(path: str) -> list[tuple[str, int, int]]:
    log = []
    with TsvRows(path, (3, 3)) as rows:
        for qid, day, count in rows:
            day, count = parse_int(day, "day_index"), parse_int(count, "count")
            if count < 0:
                raise ValidationError(f"negative count {count}")
            log.append((qid, day, count))
    return log


def generate_per_document(config: GeneratorConfig, seed: int):
    """The generated corpus drawn one query and one document at a time:
    (queries as (issue_time, true_grade, volume), rankings as `Ranking`s,
    judgments as three grades, feature rows), each a dict by query id."""
    rng = np.random.default_rng(seed)
    grades = tuple(config.grade_mixture)
    probs = np.asarray([config.grade_mixture[g] for g in grades], dtype=np.float64)
    grade_draw = rng.choice(len(grades), size=config.n_queries, p=probs)
    kappa = config.latent_concentration
    priors = config.position_priors
    depth = config.ranking_depth

    def prior(rank):
        return priors[rank - 1] if rank <= len(priors) else priors[-1]

    def clip01(value):
        return min(1.0, max(0.0, float(value)))

    queries, rankings, judgments, feature_rows = {}, {}, {}, {}
    for i in range(config.n_queries):
        qid = f"q{i:06d}"
        grade = grades[int(grade_draw[i])]
        issue_time = 1_300_000_000 + int(rng.integers(0, 86_400))
        volume = max(1, int(round(rng.lognormal(config.volume_log_mean, config.volume_log_sigma))))
        fresh_rate = min(1.0, config.fresh_base + config.fresh_slope * grade)
        is_fresh_doc = rng.random(depth) < fresh_rate
        fresh_age = rng.integers(0, config.window_seconds, size=depth)
        stale_age = rng.integers(config.window_seconds + 1, 365 * 86_400, size=depth)
        fresh_rank = np.cumsum(is_fresh_doc)
        entries = []
        for r in range(depth):
            rank = r + 1
            age = int(fresh_age[r]) if is_fresh_doc[r] else int(stale_age[r])
            if rank <= config.page_depth:
                mean_any = prior(rank)
            elif is_fresh_doc[r] and fresh_rank[r] <= config.page_depth:
                mean_any = prior(int(fresh_rank[r]))
            else:
                mean_any = prior(rank)
            lat_any = float(rng.beta(mean_any * kappa, (1.0 - mean_any) * kappa))
            lat_fresh = 0.0
            if is_fresh_doc[r]:
                mean_fresh = prior(int(fresh_rank[r]))
                lat_fresh = float(rng.beta(mean_fresh * kappa, (1.0 - mean_fresh) * kappa))
            entries.append(DocEntry(f"{qid}-d{rank:03d}", rank, issue_time - age,
                                    lat_any, lat_fresh))
        rankings[qid] = Ranking(tuple(entries))
        noise = rng.normal(0.0, config.feature_noise, size=4)
        background = rng.random(2)
        feature_rows[qid] = np.asarray([
            clip01(0.05 + 0.90 * grade + noise[0]), clip01(0.85 * grade * grade + noise[1]),
            clip01(0.80 * math.sqrt(grade) + noise[2]), clip01(0.10 + 0.70 * grade + noise[3]),
            background[0], background[1]])
        true_index = GRADE_VALUES.index(grade)
        keep = rng.random(3) < config.assessor_accuracy
        step_up = rng.random(3) < 0.5
        judgments[qid] = tuple(
            GRADE_VALUES[true_index] if keep[j]
            else GRADE_VALUES[min(true_index + 1, len(GRADE_VALUES) - 1)] if step_up[j]
            else GRADE_VALUES[max(true_index - 1, 0)]
            for j in range(3))
        queries[qid] = (issue_time, grade, volume)
    return queries, rankings, judgments, feature_rows


def rankings_of(table: RankingTable) -> dict[str, Ranking]:
    """A table's rankings as one `Ranking` per query, in table order."""
    def latent(value):
        return None if math.isnan(value) else value

    return {qid: Ranking(tuple(
        DocEntry(table.doc_ids[row], int(table.rank[row]), int(table.timestamps[row]),
                 latent(table.latent_any[row]), latent(table.latent_fresh[row]))
        for row in range(table.offsets[q], table.offsets[q + 1])))
        for q, qid in enumerate(table.query_ids)}


# ---------------------------------------------------------------------------
# candidate pools, one query and one document at a time
# ---------------------------------------------------------------------------


def derive_fresh_ranking(ranking: Ranking, query_time: int, window) -> Ranking:
    """Drop stale entries, keep relative order, renumber ranks from 1."""
    kept = [e for e in ranking.entries if is_fresh(e.timestamp, query_time, window)]
    return Ranking(tuple(replace(e, rank=i + 1) for i, e in enumerate(kept)))


def build_candidates(ordinary: Ranking, fresh: Ranking, table, depth: int):
    """One query's pool joined from its two rankings by doc id: the
    ordinary top page by ordinary rank, then the fresh-only candidates by
    fresh rank."""
    priors = table.priors

    def prior(rank):
        return priors[min(rank, len(priors)) - 1]

    ordinary_ranks = {e.doc_id: e.rank for e in ordinary.entries}
    fresh_ranks = {e.doc_id: e.rank for e in fresh.entries}
    in_ordinary_top = {e.doc_id for e in ordinary.entries[:depth]}

    def make(doc_id: str) -> Candidate:
        ord_rank = ordinary_ranks[doc_id]
        frs_rank = fresh_ranks.get(doc_id)
        r_any = prior(ord_rank if doc_id in in_ordinary_top else frs_rank)
        in_fresh_top = frs_rank is not None and frs_rank <= depth
        r_fresh = prior(frs_rank) if in_fresh_top else 0.0
        return Candidate(doc_id, r_any, r_fresh, ord_rank, frs_rank)

    pool = [make(e.doc_id) for e in ordinary.entries[:depth]]
    pool.extend(make(e.doc_id) for e in fresh.entries[:depth]
                if e.doc_id not in in_ordinary_top)
    return pool


def prepared_pools(queries: QueryTable, rankings, depth, window, table):
    """Each query's fresh ranking and its pool sorted by tie_key, in the
    order of the table `queries`."""
    pools = []
    for qid, issue_time in zip(queries.query_ids, queries.issue_time.tolist()):
        fresh = derive_fresh_ranking(rankings[qid], issue_time, window)
        pool = build_candidates(rankings[qid], fresh, table, depth)
        pools.append((fresh, sorted(pool, key=tie_key)))
    return pools


@st.composite
def generated_corpora(draw):
    """A small generated corpus and the window, prior table and metric
    config to prepare it under; the generator's latent means follow the
    same table and page depth.  Priors lie in [0.001, 0.999], so the
    survival products of a 14-deep page stay far above float underflow."""
    priors = draw(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=12))
    table = PositionPriorTable(tuple(sorted(priors, reverse=True)))
    config = MetricConfig(p_break=draw(st.floats(0.3, 0.99)),
                          break_exponent=draw(st.sampled_from(list(BreakExponent))),
                          depth=draw(st.integers(1, 14)))
    generator = GeneratorConfig(n_queries=draw(st.integers(1, 40)),
                                ranking_depth=draw(st.integers(1, 39)),
                                fresh_base=draw(st.floats(0.0, 1.0)),
                                page_depth=config.depth, position_priors=table.priors)
    corpus = generate_corpus(generator, draw(st.integers(0, 2**32 - 1)))
    return corpus, FreshnessWindow(generator.window_seconds), table, config


# ---------------------------------------------------------------------------
# exhaustive page search
# ---------------------------------------------------------------------------


def brute_force_best(candidates, p_fresh, config: MetricConfig = DEFAULT_METRIC_CONFIG,
                     max_positions: int = 5) -> tuple[tuple[str, ...], float]:
    """Exhaustive maximizer over all ordered selections.

    Guarded to |candidates| <= 8 and 1 <= max_positions <= 5.  Every ordered
    selection, enumerated in tie-break order, is scored in one kernel
    call; np.argmax keeps the first maximum, so ties resolve exactly as
    the greedy kernel's per-position rules do.
    """
    if not candidates:
        raise ValidationError("cannot search an empty candidate pool")
    if len(candidates) > 8:
        raise ValidationError(
            f"brute force refused: {len(candidates)} candidates exceeds the guard of 8"
        )
    if not 1 <= max_positions <= 5:
        raise ValidationError(
            f"brute force refused: max_positions {max_positions} is outside the guard of [1, 5]"
        )
    k = min(max_positions, len(candidates), config.depth)
    ranked = sorted(candidates, key=tie_key)
    perms = np.array(list(itertools.permutations(range(len(ranked)), k)), dtype=np.int64)
    n = len(perms)
    scores = kernels.err_iaa_batch(
        np.array([c.r_fresh for c in ranked])[perms],
        np.array([c.r_any for c in ranked])[perms],
        np.full(n, p_fresh),
        np.full(n, 1.0 - p_fresh),
        config.p_break,
        config.break_exponent.shift,
    )
    best = int(np.argmax(scores))
    return tuple(ranked[i].doc_id for i in perms[best]), float(scores[best])


def scan_best(candidates, p_fresh, config, max_positions):
    """Score each ordered selection, in tie-break enumeration order, with
    a scalar loop and keep only strict improvements."""
    k = min(max_positions, len(candidates), config.depth)
    ranked = sorted(candidates, key=tie_key)
    best_ids, best_score = None, -1.0
    for ordering in itertools.permutations(ranked, k):
        score = err_iaa_batch_loop(
            *page_arrays(ordering),
            np.array([p_fresh]),
            np.array([1.0 - p_fresh]),
            config.p_break,
            config.break_exponent.shift,
        )[0]
        if score > best_score:
            best_ids, best_score = tuple(c.doc_id for c in ordering), score
    return best_ids, best_score


# ---------------------------------------------------------------------------
# Mann-Whitney
# ---------------------------------------------------------------------------


def u_of(a, b):
    """U of the first sample by counting every pair."""
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def exact_two_sided_p(a, b):
    """Enumerate every assignment of the pooled values to the two groups."""
    pooled = list(a) + list(b)
    n_a = len(a)
    u_obs = u_of(a, b)
    us = []
    for subset in itertools.combinations(range(len(pooled)), n_a):
        chosen = set(subset)
        group_a = [pooled[i] for i in chosen]
        group_b = [pooled[i] for i in range(len(pooled)) if i not in chosen]
        us.append(u_of(group_a, group_b))
    lower = sum(1 for u in us if u <= u_obs) / len(us)
    upper = sum(1 for u in us if u >= u_obs) / len(us)
    return min(1.0, 2.0 * min(lower, upper))


def midranks(values: np.ndarray) -> np.ndarray:
    """Each value's rank in a stable sort, tied values sharing the mean
    rank of their run."""
    n = values.size
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_values[1:] != sorted_values[:-1]
    run_id = np.cumsum(boundary) - 1
    run_start = np.flatnonzero(boundary)
    run_end = np.append(run_start[1:], n)
    midrank = 0.5 * (run_start + run_end - 1) + 1.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = midrank[run_id]
    return ranks


def midrank_mann_whitney(sample_a, sample_b) -> tuple[float, float]:
    """Rank every observation, sum the first sample's ranks, and take the
    tie counts from np.unique."""
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    n_a, n_b = a.size, b.size
    n = n_a + n_b
    combined = np.concatenate([a, b])
    u_a = float(midranks(combined)[:n_a].sum()) - n_a * (n_a + 1) / 2.0
    mean = n_a * n_b / 2.0
    _, counts = np.unique(combined, return_counts=True)
    tie_term = float((counts.astype(np.float64) ** 3 - counts).sum())
    variance = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0.0:
        return u_a, 1.0
    z = max(0.0, abs(u_a - mean) - 0.5) / math.sqrt(variance)
    return u_a, min(1.0, math.erfc(z / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# the A/B test drawn whole
# ---------------------------------------------------------------------------


def one_shot_bucket(seed, pages, p_fresh, weights, n, config):
    """One A/B bucket drawn whole from default_rng(seed), in the order
    query choice, u_intent (n), u_cont (n, depth), u_click (n, depth), then
    the click-time normals (n); the (2, Q, K) pages are zero-padded to the
    depth.  Returns every impression's click position and the click times
    of the clicked ones."""
    depth = config.depth
    padded = np.zeros((2, pages.shape[1], depth))
    padded[:, :, : pages.shape[2]] = pages
    rng = np.random.default_rng(seed)
    qidx = rng.choice(pages.shape[1], size=n, p=weights)
    u_intent = rng.random(n)
    u_cont = rng.random((n, depth))
    u_click = rng.random((n, depth))
    fresh_intent = u_intent < p_fresh[qidx]
    r_user = np.where(fresh_intent[:, None], padded[0][qidx], padded[1][qidx])
    pos = simulate_clicks_loop(r_user, u_cont, u_click, config.p_break,
                               config.break_exponent.shift)
    noise = np.clip(rng.normal(0.0, 1.0, n), -experiments._CLICK_TIME_NOISE_CLIP_S,
                    experiments._CLICK_TIME_NOISE_CLIP_S)
    clicked = pos > 0
    times = (experiments._CLICK_TIME_BASE_S
             + experiments._CLICK_TIME_PER_POSITION_S * (pos[clicked] - 1.0) + noise[clicked])
    return pos, times


def one_shot_ab_report(corpus, control_policy, treatment_policy, n, seed, config):
    """The A/B report from whole-sample draws and midrank tests, one 0/1
    or float observation per impression."""
    prepared = experiments.prepare_queries(corpus.queries, corpus.rankings, config)
    weights = prepared.volume / prepared.volume.sum()
    samples = []
    for policy, child in zip((control_policy, treatment_policy),
                             np.random.SeedSequence(seed).spawn(2)):
        pages = experiments._page_matrices(prepared, policy(prepared, config))
        pos, times = one_shot_bucket(child, pages, prepared.true_grade, weights, n, config)
        clicked = pos > 0
        samples.append({
            "abandonment_rate": (~clicked).astype(np.float64),
            "time_to_first_click": times,
            "ctr_position_1": (pos == 1).astype(np.float64),
            "ctr_position_2": (pos == 2).astype(np.float64),
            "first_click_position": pos[clicked].astype(np.float64),
        })
    metrics = {}
    for name, scale in (("abandonment_rate", 100.0), ("time_to_first_click", 1.0),
                        ("ctr_position_1", 100.0), ("ctr_position_2", 100.0),
                        ("first_click_position", 1.0)):
        a, b = samples[0][name], samples[1][name]
        if a.size == 0 or b.size == 0:
            metrics[name] = experiments.MetricComparison(
                float(a.mean()) if a.size else None, float(b.mean()) if b.size else None,
                None, None)
        else:
            u, p = midrank_mann_whitney(a, b)
            metrics[name] = experiments.MetricComparison(float(a.mean() * scale),
                                                         float(b.mean() * scale), u, p)
    return experiments.AbReport(n_queries=n, metrics=metrics)
