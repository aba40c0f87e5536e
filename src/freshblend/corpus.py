"""Data model, TSV ingestion and synthetic corpus generation.

The corpus bundles four tables, keyed by query_id, each a column per
field, from the file or the generator to the experiments:

* queries     - `QueryTable`: issue time, graded recency need (NaN where
                absent), traffic volume (0 where absent)
* rankings    - `RankingTable`: the initial (ordinary) document ranking
                of every query, a row per ranked document, optionally
                carrying latent per-intent relevances (NaN where absent)
                used as simulation ground truth
* judgments   - `JudgmentTable`: three assessor grades per query; their
                mean is the consensus the classifier trains on
* features    - `FeatureTable`: the numeric feature vector the
                classifier consumes

One helper joins them by query id (`RankingTable.select`,
`QueryTable.select`, `training_set`).  Every file but features.tsv is
read by `fileio.read_tsv`, a block of lines at a time, into the columns
its loader declares, each with its value rule; the writers format the
columns.

File formats (read under the shared rules of `fileio`: UTF-8, '-' for an
absent optional value, '.' decimal separator):

* rankings.tsv   query_id<TAB>doc_id<TAB>rank<TAB>timestamp
                 [<TAB>latent_rel_any<TAB>latent_rel_fresh]
* judgments.tsv  query_id<TAB>grade1<TAB>grade2<TAB>grade3
* features.tsv   header: query_id<TAB>name1<TAB>...<TAB>nameK, then rows
* queries.tsv    query_id<TAB>issue_time<TAB>true_grade<TAB>volume

The generator builds a corpus where every piece is mutually consistent:
feature values are noisy monotone transforms of the query's true grade,
fresh documents appear in the initial ranking at a rate that grows with
the grade, and latent relevances are Beta draws whose means track the
position-prior table, so that calibrated probabilities are unbiased
estimates of the latent ground truth.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError, ValidationError
from .fileio import BLOCK_LINES, Column, TsvRows, fmt, parse_real, read_tsv, write_lines

GRADE_VALUES = (0.0, 0.25, 0.75, 0.95)

#: Share of all search traffic per grade; the default generator mixture.
TRAFFIC_MIXTURE = {0.0: 0.9326, 0.25: 0.049, 0.75: 0.0111, 0.95: 0.0073}

#: Mixture resembling a judged query pool, where preselection has already
#: removed most of the zero-need traffic.  Used for experiment corpora.
JUDGED_POOL_MIXTURE = {0.0: 0.40, 0.25: 0.30, 0.75: 0.15, 0.95: 0.15}

FEATURE_NAMES = (
    "query_lm_recent",
    "social_lm_recent",
    "news_lm_recent",
    "news_click_prob",
    "background_a",
    "background_b",
)

_BASE_ISSUE_TIME = 1_300_000_000  # arbitrary fixed epoch for generated data
MAX_GENERATED_ROWS = 10**8  # ranked documents, n_queries x ranking_depth


def _positions(query_ids: tuple[str, ...], wanted, missing: str) -> np.ndarray:
    """The position in `query_ids` of each id of `wanted`, in its order: the
    one join by query id.  The first id absent is refused with the message
    `missing`, formatted with it."""
    index = dict(zip(query_ids, range(len(query_ids))))
    try:
        return np.fromiter(map(index.__getitem__, wanted), np.int64, len(wanted))
    except KeyError as exc:
        raise ValidationError(missing.format(exc.args[0])) from None


@dataclass(frozen=True)
class RankingTable:
    """Rankings as columns, one row per document: query q's documents are
    rows offsets[q]:offsets[q + 1] in rank order, `query` and `rank` hold
    each row's query index and rank, and a latent is NaN where absent."""

    query_ids: tuple[str, ...]
    offsets: np.ndarray
    query: np.ndarray
    rank: np.ndarray
    doc_ids: tuple[str, ...]
    timestamps: np.ndarray
    latent_any: np.ndarray
    latent_fresh: np.ndarray

    def require_latent_any(self, rows: np.ndarray, why: str) -> None:
        """Refuse the first of `rows` that has no latent_rel_any."""
        missing = rows[np.isnan(self.latent_any[rows])]
        if missing.size:
            row = missing[0]
            raise ValidationError(
                f"query {self.query_ids[self.query[row]]!r} doc {self.doc_ids[row]!r} {why}")

    def select(self, query_ids) -> "RankingTable":
        """The table of the rankings of `query_ids`, in that order, in one
        gather; the table itself when that is already its order."""
        query_ids = tuple(query_ids)
        if query_ids == self.query_ids:
            return self
        picked = _positions(self.query_ids, query_ids, "query {!r} has no ranking")
        lengths = np.diff(self.offsets)[picked]
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        query = np.repeat(np.arange(len(picked)), lengths)
        rows = np.arange(offsets[-1]) - offsets[query] + self.offsets[picked][query]
        return RankingTable(query_ids, offsets, query, self.rank[rows],
                            tuple(map(self.doc_ids.__getitem__, rows.tolist())),
                            self.timestamps[rows], self.latent_any[rows],
                            self.latent_fresh[rows])


class _ByQuery:
    """A table of one row per query id."""

    def __len__(self) -> int:
        return len(self.query_ids)


@dataclass(frozen=True)
class QueryTable(_ByQuery):
    """Queries as columns: each one's issue time (int64), true grade
    (NaN where absent) and volume (0 where absent)."""

    query_ids: tuple[str, ...]
    issue_time: np.ndarray
    true_grade: np.ndarray
    volume: np.ndarray

    def select(self, query_ids) -> "QueryTable":
        """The rows of the ranked queries `query_ids`, in that order; the
        table itself when that is already its order."""
        query_ids = tuple(query_ids)
        if query_ids == self.query_ids:
            return self
        rows = _positions(self.query_ids, query_ids,
                          "query {!r} in rankings but not in queries file")
        return QueryTable(query_ids, self.issue_time[rows], self.true_grade[rows],
                          self.volume[rows])


@dataclass(frozen=True)
class JudgmentTable(_ByQuery):
    """Each query's three assessor grades, a row of the (n, 3) `grades`."""

    query_ids: tuple[str, ...]
    grades: np.ndarray


@dataclass(frozen=True)
class FeatureTable(_ByQuery):
    """Each query's feature vector, a row of the (n, k) `rows`, a column
    per name."""

    names: tuple[str, ...]
    query_ids: tuple[str, ...]
    rows: np.ndarray


@dataclass(frozen=True)
class Corpus:
    queries: QueryTable
    rankings: RankingTable
    judgments: JudgmentTable
    features: FeatureTable


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def _on_scale(label: str, what: str, optional: bool = False) -> Column:
    """A grade column: a grade is one of GRADE_VALUES."""
    return Column(label, np.float64, optional, lambda grades: ~np.isin(grades, GRADE_VALUES),
                  f"{what} {{!r}} not in {GRADE_VALUES}")


_RANKING_COLUMNS = (
    Column("query_id"), Column("doc_id"),
    Column("rank", np.int64, False, lambda rank: rank < 1, "rank must be >= 1, got {}"),
    Column("timestamp", np.int64, False, lambda timestamp: timestamp < 0,
           "timestamp must be in [0, 2**63), got {}"),
    *(Column(label, np.float64, True, lambda latent: (latent < 0.0) | (latent > 1.0),
             label + " out of [0,1]: {!r}") for label in ("latent_rel_any", "latent_rel_fresh")))
_QUERY_COLUMNS = (Column("query_id"), Column("issue_time", np.int64),
                  _on_scale("true_grade", "true_grade", True),
                  Column("volume", np.int64, True, lambda volume: volume < 1,
                         "volume must be positive, got {}"))
_JUDGMENT_COLUMNS = (Column("query_id"), *[_on_scale("grade", "assessor grade")] * 3)


def load_ranking_table(path: str) -> RankingTable:
    """Read a rankings TSV into a table by `fileio.read_tsv`.

    Queries keep the order of their first line; a query's lines may come
    in any order, and its ranks must run 1, 2, ... once sorted.  A line
    has 4-6 fields, and a (query_id, doc_id) pair may appear once; a rank
    is >= 1, a timestamp in [0, 2**63) and a latent in [0,1].
    """
    query_ids, doc_ids, rank, timestamps, latent_any, latent_fresh = read_tsv(
        path, _RANKING_COLUMNS, fewest=4, key=2)
    index, query = _query_index(query_ids)

    order = np.lexsort((rank, query))
    query, rank = query[order], rank[order]
    offsets = np.concatenate(([0], np.cumsum(np.bincount(query, minlength=len(index)))))
    position = np.arange(1, rank.size + 1) - offsets[query]
    gaps = np.flatnonzero(rank != position)
    if gaps.size:
        row = gaps[0]
        raise ParseError(f"query {list(index)[query[row]]!r}: ranks must be contiguous "
                         f"from 1; position {position[row]} has rank {rank[row]}", path)
    return RankingTable(tuple(index), offsets, query, rank, tuple(doc_ids[order]),
                        timestamps[order], latent_any[order], latent_fresh[order])


def _query_index(query_ids: np.ndarray) -> tuple[dict[str, int], np.ndarray]:
    """Each query id's index, by first appearance, and each row's: a run
    of one query id takes that query's index."""
    index: dict[str, int] = {}
    head = np.flatnonzero(np.concatenate(([True], query_ids[1:] != query_ids[:-1])))
    head = head[:query_ids.size]  # no run in an empty column
    query = np.fromiter((index.setdefault(qid, len(index)) for qid in query_ids[head]),
                        np.int64, head.size)
    return index, np.repeat(query, np.diff(np.append(head, query_ids.size)))


def load_judgments(path: str) -> JudgmentTable:
    """Read a judgments TSV of three assessor grades per query."""
    query_ids, *grades = read_tsv(path, _JUDGMENT_COLUMNS, key=1)
    return JudgmentTable(tuple(query_ids), np.column_stack(grades))


def load_features(path: str) -> FeatureTable:
    """Read a features TSV (header `query_id` and the names, at least one
    and each once, then one row per query).

    Its rows are still read one at a time: read by `read_tsv`, `predict`
    often ends within one 50 ms period of perfbench's host probe, which
    fails the `quickstart` run (ROADMAP item 1)."""
    query_ids, rows, seen = [], [], set()
    with TsvRows(path) as reader:
        names = next(iter(reader), None)
        if names is None:
            return FeatureTable((), (), np.empty((0, 0)))
        if names[0] != "query_id":
            raise ValidationError(f"header must start with 'query_id', got {names[0]!r}")
        names = tuple(names[1:])
        if not names:
            raise ValidationError("header names no feature")
        if not all(names):
            raise ValidationError("empty feature name in header")
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValidationError(f"duplicate feature name {name!r}")
        reader.width, reader.key = (len(names) + 1, len(names) + 1), ("query_id",)
        for qid, *tokens in reader:
            if qid in seen:
                raise ValidationError(f"duplicate query_id {qid!r}")
            seen.add(qid)
            query_ids.append(qid)
            rows.append([parse_real(token, "feature value") for token in tokens])
    return FeatureTable(names, tuple(query_ids),
                        np.array(rows, np.float64).reshape(len(rows), len(names)))


def training_set(features: FeatureTable, judgments: JudgmentTable,
                 query_ids) -> tuple[np.ndarray, np.ndarray]:
    """The classifier's training data for `query_ids`, in order, each a
    gather of table rows: their feature matrix and consensus grades, the
    mean of each query's three.  Names the first query that has no feature
    vector, else the first that has no judgment."""
    query_ids = tuple(query_ids)
    x = features.rows[_positions(features.query_ids, query_ids,
                                 "query {!r} has no feature vector")]
    grades = judgments.grades[_positions(judgments.query_ids, query_ids,
                                         "query {!r} has no judgment")]
    return x, grades.sum(axis=1) / 3


def load_queries(path: str) -> QueryTable:
    """Read a queries TSV (query_id, issue_time, true_grade, volume), '-'
    for an absent grade or volume."""
    query_ids, issue_time, true_grade, volume = read_tsv(path, _QUERY_COLUMNS, key=1)
    return QueryTable(tuple(query_ids), issue_time, true_grade, volume)


def load_predictions(path: str) -> dict[str, float]:
    """Read a predictions TSV (query_id, p_fresh).  The range of p_fresh
    is checked where it is used, so that every estimate source is
    checked alike."""
    query_ids, p_fresh = read_tsv(path, (Column("query_id"), Column("p_fresh", np.float64)), key=1)
    return dict(zip(query_ids.tolist(), p_fresh.tolist()))


def load_corpus(directory: str) -> Corpus:
    """Load the four corpus files from a directory.  Judgments and
    features are optional; each file is held once, as a table.  Every
    ranked query needs a record in queries.tsv."""
    queries = load_queries(os.path.join(directory, "queries.tsv"))
    rankings = load_ranking_table(os.path.join(directory, "rankings.tsv"))
    queries.select(rankings.query_ids)  # refuses a ranked query without a record
    judgments_path = os.path.join(directory, "judgments.tsv")
    judgments = (load_judgments(judgments_path) if os.path.exists(judgments_path)
                 else JudgmentTable((), np.empty((0, 3))))
    features_path = os.path.join(directory, "features.tsv")
    features = (load_features(features_path) if os.path.exists(features_path)
                else FeatureTable((), (), np.empty((0, 0))))
    return Corpus(queries, rankings, judgments, features)


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def write_rankings(rankings: RankingTable, path: str) -> None:
    """Write a table's rows in table order, '-' for an absent latent,
    formatting `BLOCK_LINES` rows at a time."""
    query_ids = np.asarray(rankings.query_ids, dtype=object)

    def lines(start: int) -> str:
        rows = slice(start, start + BLOCK_LINES)
        columns = (query_ids[rankings.query[rows]], rankings.doc_ids[rows],
                   map(str, rankings.rank[rows].tolist()),
                   map(str, rankings.timestamps[rows].tolist()),
                   _fmt_column(rankings.latent_any[rows]),
                   _fmt_column(rankings.latent_fresh[rows]))
        return "\n".join(map("\t".join, zip(*columns)))

    # a block's lines joined by '\n' pass as one line, which write_lines ends
    write_lines(path, map(lines, range(0, len(rankings.doc_ids), BLOCK_LINES)))


def _fmt_column(values: np.ndarray) -> list[str]:
    """`fmt` of each value, '-' where it is NaN (absent)."""
    text = list(map(fmt, values.tolist()))
    for row in np.flatnonzero(np.isnan(values)).tolist():
        text[row] = "-"
    return text


def write_judgments(judgments: JudgmentTable, path: str) -> None:
    write_lines(path, ("\t".join((qid, *map(fmt, row)))
                       for qid, row in zip(judgments.query_ids, judgments.grades.tolist())))


def write_features(features: FeatureTable, path: str) -> None:
    rows = zip(features.query_ids, features.rows.tolist())
    write_lines(path, ["\t".join(("query_id", *features.names)),
                       *("\t".join((qid, *map(fmt, row))) for qid, row in rows)])


def write_queries(queries: QueryTable, path: str) -> None:
    """'-' for an absent grade or volume."""
    volumes = ["-" if volume == 0 else str(volume) for volume in queries.volume.tolist()]
    write_lines(path, map("\t".join, zip(queries.query_ids, map(str, queries.issue_time.tolist()),
                                          _fmt_column(queries.true_grade), volumes)))


def write_corpus(corpus: Corpus, directory: str) -> None:
    write_queries(corpus.queries, os.path.join(directory, "queries.tsv"))
    write_rankings(corpus.rankings, os.path.join(directory, "rankings.tsv"))
    write_judgments(corpus.judgments, os.path.join(directory, "judgments.tsv"))
    write_features(corpus.features, os.path.join(directory, "features.tsv"))


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic corpus.

    fresh_base/fresh_slope set the probability that a ranked document is
    fresh: base + slope * true_grade.  feature_noise is the sigma of the
    additive gaussian noise on the signal features.  latent_concentration
    is the Beta concentration of latent relevance draws around the
    position prior; page_depth names the result-page depth the latent
    means are made consistent with.
    """

    n_queries: int = 4000
    grade_mixture: dict[float, float] = field(
        default_factory=lambda: dict(TRAFFIC_MIXTURE)
    )
    ranking_depth: int = 30
    fresh_base: float = 0.08
    fresh_slope: float = 0.35
    feature_noise: float = 0.12
    latent_concentration: float = 40.0
    assessor_accuracy: float = 0.85
    volume_log_mean: float = 3.0
    volume_log_sigma: float = 1.0
    window_seconds: int = 259_200
    page_depth: int = 10
    position_priors: tuple[float, ...] = (
        0.60, 0.50, 0.42, 0.35, 0.29, 0.24, 0.20, 0.16, 0.13, 0.10,
    )

    def __post_init__(self):
        if self.n_queries < 1:
            raise ConfigError(f"n_queries must be positive, got {self.n_queries}")
        if self.ranking_depth < 1:
            raise ConfigError(f"ranking_depth must be positive, got {self.ranking_depth}")
        if self.n_queries * self.ranking_depth > MAX_GENERATED_ROWS:
            raise ConfigError(f"n_queries x ranking_depth exceeds {MAX_GENERATED_ROWS} documents")
        if self.page_depth < 1:
            raise ConfigError(f"page_depth must be positive, got {self.page_depth}")
        if self.window_seconds < 1:
            raise ConfigError(f"window_seconds must be positive, got {self.window_seconds}")
        if abs(sum(self.grade_mixture.values()) - 1.0) > 1e-9:
            raise ConfigError("grade_mixture must sum to 1")
        for grade in self.grade_mixture:
            if grade not in GRADE_VALUES:
                raise ConfigError(f"grade_mixture key {grade!r} not in {GRADE_VALUES}")
        if not 0.0 <= self.fresh_base <= 1.0 or not 0.0 <= self.fresh_slope < math.inf:
            raise ConfigError("fresh_base must be in [0,1] and fresh_slope finite and >= 0")
        if not 0.0 <= self.feature_noise < math.inf:
            raise ConfigError(f"feature_noise must be finite and >= 0, got {self.feature_noise!r}")
        if self.latent_concentration <= 0:
            raise ConfigError("latent_concentration must be positive")
        if not 0.0 <= self.assessor_accuracy <= 1.0:
            raise ConfigError("assessor_accuracy must be in [0,1]")


def generate_corpus(config: GeneratorConfig, seed: int) -> Corpus:
    """Produce a fully consistent synthetic corpus, deterministic in seed.

    Latent relevance means mirror the calibration rule: a document inside
    the ordinary top page keeps the prior of its ordinary rank, a fresh
    document promoted from below the page takes the prior of its fresh
    rank, and the fresh-intent latent of a fresh document tracks the
    prior of its fresh rank.  Stale documents have zero fresh-intent
    relevance.

    One stream serves every query in turn: its issue time, volume, fresh
    flags, fresh and stale ages, Beta latents (a document's any-intent draw
    before its fresh-intent one, in document order), feature noise and
    assessor draws.  The loop only draws; timestamps, features and grades
    are then computed a column at a time, straight into the columns of
    the four tables.
    """
    rng = np.random.default_rng(seed)
    grades = tuple(config.grade_mixture)
    probs = np.asarray([config.grade_mixture[g] for g in grades], dtype=np.float64)
    grade_draw = rng.choice(len(grades), size=config.n_queries, p=probs)

    n, depth = config.n_queries, config.ranking_depth
    grade = np.asarray(grades, dtype=np.float64)[grade_draw]
    fresh_rate = np.minimum(1.0, config.fresh_base + config.fresh_slope * grade)
    year = 365 * 86_400
    rank = np.arange(1, depth + 1)
    below_page = rank > config.page_depth
    # the Beta parameters of mean prior(k) at index k, a rank
    priors = np.asarray(config.position_priors, dtype=np.float64)
    prior = priors[np.minimum(np.arange(depth + 1), priors.size) - 1]
    kappa = config.latent_concentration
    beta_a, beta_b = prior * kappa, (1.0 - prior) * kappa

    issue_offset = np.empty(n, dtype=np.int64)
    volume = np.empty(n, dtype=np.int64)
    is_fresh = np.empty((n, depth), dtype=bool)
    ages = np.empty((2, n, depth), dtype=np.int64)  # fresh, stale
    # latents[i, r] holds document r's any-intent and fresh-intent latents;
    # read row-major, `drawn` marks one query's draws in draw order
    latents = np.zeros((n, depth, 2), dtype=np.float64)
    drawn = np.ones((depth, 2), dtype=bool)
    mean_rank = np.empty((depth, 2), dtype=np.int64)  # the rank whose prior is the mean
    noise = np.empty((n, 4), dtype=np.float64)
    uniforms = np.empty((n, 8), dtype=np.float64)  # 2 background features, keep, step up

    for i in range(n):
        issue_offset[i] = rng.integers(0, 86_400)
        volume[i] = max(1, int(round(rng.lognormal(config.volume_log_mean,
                                                   config.volume_log_sigma))))
        fresh = is_fresh[i] = rng.random(depth) < fresh_rate[i]
        ages[0, i] = rng.integers(0, config.window_seconds, size=depth)
        ages[1, i] = rng.integers(config.window_seconds + 1, year, size=depth)

        fresh_rank = np.cumsum(fresh)  # read only at fresh positions
        promoted = below_page & fresh & (fresh_rank <= config.page_depth)
        mean_rank[:, 0] = np.where(promoted, fresh_rank, rank)
        mean_rank[:, 1] = fresh_rank
        drawn[:, 1] = fresh
        means = mean_rank[drawn]
        latents[i][drawn] = list(map(rng.beta, beta_a[means].tolist(), beta_b[means].tolist()))

        noise[i] = rng.normal(0.0, config.feature_noise, size=4)
        rng.random(out=uniforms[i])  # a double per draw: one call or three alike

    issue_time = _BASE_ISSUE_TIME + issue_offset
    query_ids = tuple(f"q{i:06d}" for i in range(n))
    suffixes = [f"-d{r:03d}" for r in rank.tolist()]
    rankings = RankingTable(
        query_ids=query_ids,
        offsets=np.arange(0, n * depth + 1, depth),
        query=np.repeat(np.arange(n), depth),
        rank=np.tile(rank, n),
        doc_ids=tuple([qid + suffix for qid in query_ids for suffix in suffixes]),
        timestamps=(issue_time[:, None] - np.where(is_fresh, ages[0], ages[1])).ravel(),
        latent_any=latents[:, :, 0].ravel(),
        latent_fresh=latents[:, :, 1].ravel(),
    )

    signals = (0.05 + 0.90 * grade + noise[:, 0], 0.85 * grade * grade + noise[:, 1],
               0.80 * np.sqrt(grade) + noise[:, 2], 0.10 + 0.70 * grade + noise[:, 3])
    values = np.column_stack([*(np.minimum(1.0, np.maximum(0.0, v)) for v in signals),
                              uniforms[:, :2]])

    # an assessor keeps the true grade, or else steps one grade up or down
    true_index = np.asarray([GRADE_VALUES.index(g) for g in grades])[grade_draw][:, None]
    top = len(GRADE_VALUES) - 1
    assessed = np.where(uniforms[:, 2:5] < config.assessor_accuracy, true_index,
                        np.where(uniforms[:, 5:] < 0.5, np.minimum(true_index + 1, top),
                                 np.maximum(true_index - 1, 0)))
    return Corpus(QueryTable(query_ids, issue_time, grade, volume), rankings,
                  JudgmentTable(query_ids, np.asarray(GRADE_VALUES)[assessed]),
                  FeatureTable(FEATURE_NAMES, query_ids, values))
