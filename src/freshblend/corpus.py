"""Data model, TSV ingestion and synthetic corpus generation.

The corpus bundles four aligned pieces of data, keyed by query_id:

* queries     - issue time, graded recency need, traffic volume
* rankings    - the initial (ordinary) document ranking per query,
                optionally carrying latent per-intent relevances used as
                simulation ground truth
* judgments   - three assessor grades per query; their mean is the
                consensus the classifier trains on
* features    - the numeric feature vector the classifier consumes

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
from typing import Mapping

import numpy as np

from .errors import ConfigError, ParseError, ValidationError
from .fileio import TsvRows, fmt, fmt_opt, opt_real, parse_int, parse_real, write_lines

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


@dataclass(frozen=True)
class QueryRecord:
    query_id: str
    issue_time: int
    true_grade: float | None = None
    volume: int | None = None

    def __post_init__(self):
        if not self.query_id:
            raise ValidationError("query_id must be non-empty")
        if not -2**63 <= self.issue_time < 2**63:
            raise ValidationError(f"issue_time does not fit in 64 bits: {self.issue_time}")
        if self.true_grade is not None and self.true_grade not in GRADE_VALUES:
            raise ValidationError(
                f"true_grade {self.true_grade!r} not in {GRADE_VALUES}"
            )
        if self.volume is not None and self.volume < 1:
            raise ValidationError(f"volume must be positive, got {self.volume}")


@dataclass(frozen=True)
class DocEntry:
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
        for label, value in (
            ("latent_rel_any", self.latent_rel_any),
            ("latent_rel_fresh", self.latent_rel_fresh),
        ):
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValidationError(f"{label} out of [0,1]: {value!r}")


@dataclass(frozen=True)
class Ranking:
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

    def __len__(self) -> int:
        return len(self.entries)


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


def ranking_table(rankings: Mapping[str, Ranking], query_ids=None) -> RankingTable:
    """The table of the rankings of `query_ids` (default: all), in order."""
    query_ids = tuple(rankings if query_ids is None else query_ids)
    try:
        held = [rankings[qid].entries for qid in query_ids]
    except KeyError as exc:
        raise ValidationError(f"query {exc.args[0]!r} has no ranking") from None
    entries = [entry for ranking in held for entry in ranking]
    lengths = np.fromiter(map(len, held), dtype=np.int64, count=len(held))
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    query = np.repeat(np.arange(len(held)), lengths)
    timestamps = np.fromiter((e.timestamp for e in entries), dtype=np.int64, count=len(entries))
    latent_any, latent_fresh = np.array([[e.latent_rel_any for e in entries],
                                         [e.latent_rel_fresh for e in entries]], dtype=np.float64)
    rank = np.arange(1, len(entries) + 1) - offsets[query]
    return RankingTable(query_ids, offsets, query, rank, tuple(e.doc_id for e in entries),
                        timestamps, latent_any, latent_fresh)


@dataclass(frozen=True)
class JudgedQuery:
    query_id: str
    assessor_grades: tuple[float, float, float]

    def __post_init__(self):
        if len(self.assessor_grades) != 3:
            raise ValidationError(
                f"expected exactly 3 assessor grades, got {len(self.assessor_grades)}"
            )
        for grade in self.assessor_grades:
            if grade not in GRADE_VALUES:
                raise ValidationError(f"assessor grade {grade!r} not in {GRADE_VALUES}")

    @property
    def consensus_grade(self) -> float:
        """Consensus label: arithmetic mean of the assessor grades."""
        return sum(self.assessor_grades) / len(self.assessor_grades)


@dataclass(frozen=True)
class FeatureTable:
    names: tuple[str, ...]
    rows: dict[str, np.ndarray] = field(default_factory=dict)

    def matrix(self, query_ids) -> np.ndarray:
        rows = [self.rows[qid] for qid in query_ids]
        return np.stack(rows) if rows else np.empty((0, len(self.names)))


@dataclass(frozen=True)
class Corpus:
    queries: dict[str, QueryRecord]
    rankings: dict[str, Ranking]
    judgments: dict[str, JudgedQuery]
    features: FeatureTable


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def load_rankings(path: str) -> dict[str, Ranking]:
    """Read a rankings TSV into per-query rankings sorted by rank."""
    per_query: dict[str, list[DocEntry]] = {}
    with TsvRows(path, (4, 6), key=("query_id", "doc_id")) as rows:
        for fields in rows:
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


def load_judgments(path: str) -> dict[str, JudgedQuery]:
    """Read a judgments TSV of three assessor grades per query."""
    judgments: dict[str, JudgedQuery] = {}
    with TsvRows(path, 4, key=("query_id",)) as rows:
        for qid, *tokens in rows:
            judgments[qid] = JudgedQuery(qid, tuple(parse_real(t, "grade") for t in tokens))
    return judgments


def load_features(path: str) -> FeatureTable:
    """Read a features TSV (header `query_id` and the names, one row per
    query)."""
    rows: dict[str, np.ndarray] = {}
    with TsvRows(path) as reader:
        header = next(iter(reader), None)
        if header is None:
            return FeatureTable(names=())
        if header[0] != "query_id":
            raise ValidationError(f"header must start with 'query_id', got {header[0]!r}")
        names = tuple(header[1:])
        if not all(names):
            raise ValidationError("empty feature name in header")
        reader.width, reader.key = len(names) + 1, ("query_id",)
        for qid, *tokens in reader:
            rows[qid] = np.asarray([parse_real(token, "feature value") for token in tokens],
                                   dtype=np.float64)
    return FeatureTable(names=names, rows=rows)


def training_set(features: FeatureTable, judgments: dict[str, JudgedQuery],
                 query_ids) -> tuple[np.ndarray, np.ndarray]:
    """The classifier's training data for `query_ids`, in order: their
    feature matrix and consensus grades.  Names the first query that has
    no feature vector or no judgment."""
    for qid in query_ids:
        if qid not in features.rows:
            raise ValidationError(f"query {qid!r} has no feature vector")
        if qid not in judgments:
            raise ValidationError(f"query {qid!r} has no judgment")
    y = np.asarray([judgments[qid].consensus_grade for qid in query_ids], dtype=np.float64)
    return features.matrix(query_ids), y


def load_queries(path: str) -> dict[str, QueryRecord]:
    """Read a queries TSV (query_id, issue_time, true_grade, volume)."""
    queries: dict[str, QueryRecord] = {}
    with TsvRows(path, 4, key=("query_id",)) as rows:
        for qid, issue_time, grade, volume in rows:
            queries[qid] = QueryRecord(
                qid,
                parse_int(issue_time, "issue_time"),
                opt_real(grade, "true_grade"),
                None if volume == "-" else parse_int(volume, "volume"),
            )
    return queries


def load_predictions(path: str) -> dict[str, float]:
    """Read a predictions TSV (query_id, p_fresh).  The range of p_fresh
    is checked where it is used, so that every estimate source is
    checked alike."""
    with TsvRows(path, 2, key=("query_id",)) as rows:
        return {qid: parse_real(p_fresh, "p_fresh") for qid, p_fresh in rows}


def require_queries(rankings, queries) -> None:
    """Refuse a ranked query that has no query record."""
    for qid in rankings:
        if qid not in queries:
            raise ValidationError(f"query {qid!r} in rankings but not in queries file")


def load_corpus(directory: str) -> Corpus:
    """Load the four corpus files from a directory.  Judgments and
    features are optional; each file is held once, keyed by query_id.
    Every ranked query needs a record in queries.tsv."""
    queries = load_queries(os.path.join(directory, "queries.tsv"))
    rankings = load_rankings(os.path.join(directory, "rankings.tsv"))
    require_queries(rankings, queries)
    judgments_path = os.path.join(directory, "judgments.tsv")
    judgments = load_judgments(judgments_path) if os.path.exists(judgments_path) else {}
    features_path = os.path.join(directory, "features.tsv")
    features = load_features(features_path) if os.path.exists(features_path) else FeatureTable(())
    return Corpus(queries, rankings, judgments, features)


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def write_rankings(rankings: dict[str, Ranking], path: str) -> None:
    lines = []
    for qid, ranking in rankings.items():
        for entry in ranking.entries:
            lines.append(
                "\t".join(
                    (
                        qid,
                        entry.doc_id,
                        str(entry.rank),
                        str(entry.timestamp),
                        fmt_opt(entry.latent_rel_any),
                        fmt_opt(entry.latent_rel_fresh),
                    )
                )
            )
    write_lines(path, lines)


def write_judgments(judgments: dict[str, JudgedQuery], path: str) -> None:
    lines = [
        "\t".join((qid, *(fmt(g) for g in judged.assessor_grades)))
        for qid, judged in judgments.items()
    ]
    write_lines(path, lines)


def write_features(features: FeatureTable, path: str) -> None:
    lines = ["\t".join(("query_id", *features.names))]
    for qid, values in features.rows.items():
        lines.append("\t".join((qid, *(fmt(v) for v in values))))
    write_lines(path, lines)


def write_queries(queries: dict[str, QueryRecord], path: str) -> None:
    lines = []
    for qid, record in queries.items():
        volume = "-" if record.volume is None else str(record.volume)
        lines.append("\t".join((qid, str(record.issue_time), fmt_opt(record.true_grade), volume)))
    write_lines(path, lines)


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


def _prior_at(priors: tuple[float, ...], rank: int) -> float:
    return priors[rank - 1] if rank <= len(priors) else priors[-1]


def _assessor_grade(true_index: int, keep: bool, step_up: bool) -> float:
    if keep:
        return GRADE_VALUES[true_index]
    if step_up:
        return GRADE_VALUES[min(true_index + 1, len(GRADE_VALUES) - 1)]
    return GRADE_VALUES[max(true_index - 1, 0)]


def generate_corpus(config: GeneratorConfig, seed: int) -> Corpus:
    """Produce a fully consistent synthetic corpus, deterministic in seed.

    Latent relevance means mirror the calibration rule: a document inside
    the ordinary top page keeps the prior of its ordinary rank, a fresh
    document promoted from below the page takes the prior of its fresh
    rank, and the fresh-intent latent of a fresh document tracks the
    prior of its fresh rank.  Stale documents have zero fresh-intent
    relevance.
    """
    rng = np.random.default_rng(seed)
    grades = tuple(config.grade_mixture)
    probs = np.asarray([config.grade_mixture[g] for g in grades], dtype=np.float64)
    grade_draw = rng.choice(len(grades), size=config.n_queries, p=probs)

    kappa = config.latent_concentration
    priors = config.position_priors
    depth = config.ranking_depth
    year = 365 * 86_400

    queries: dict[str, QueryRecord] = {}
    rankings: dict[str, Ranking] = {}
    judgments: dict[str, JudgedQuery] = {}
    feature_rows: dict[str, np.ndarray] = {}

    for i in range(config.n_queries):
        qid = f"q{i:06d}"
        grade = grades[int(grade_draw[i])]
        issue_time = _BASE_ISSUE_TIME + int(rng.integers(0, 86_400))
        volume = max(1, int(round(rng.lognormal(config.volume_log_mean, config.volume_log_sigma))))

        fresh_rate = min(1.0, config.fresh_base + config.fresh_slope * grade)
        is_fresh_doc = rng.random(depth) < fresh_rate
        fresh_age = rng.integers(0, config.window_seconds, size=depth)
        stale_age = rng.integers(config.window_seconds + 1, year, size=depth)

        fresh_rank = np.cumsum(is_fresh_doc)  # read only at fresh positions

        entries = []
        for r in range(depth):
            rank = r + 1
            age = int(fresh_age[r]) if is_fresh_doc[r] else int(stale_age[r])
            if rank <= config.page_depth:
                mean_any = _prior_at(priors, rank)
            elif is_fresh_doc[r] and fresh_rank[r] <= config.page_depth:
                mean_any = _prior_at(priors, int(fresh_rank[r]))
            else:
                mean_any = _prior_at(priors, rank)
            lat_any = float(rng.beta(mean_any * kappa, (1.0 - mean_any) * kappa))
            if is_fresh_doc[r]:
                mean_fresh = _prior_at(priors, int(fresh_rank[r]))
                lat_fresh = float(rng.beta(mean_fresh * kappa, (1.0 - mean_fresh) * kappa))
            else:
                lat_fresh = 0.0
            entries.append(
                DocEntry(
                    doc_id=f"{qid}-d{rank:03d}",
                    rank=rank,
                    timestamp=issue_time - age,
                    latent_rel_any=lat_any,
                    latent_rel_fresh=lat_fresh,
                )
            )
        rankings[qid] = Ranking(tuple(entries))

        noise = rng.normal(0.0, config.feature_noise, size=4)
        background = rng.random(2)
        values = np.asarray(
            [
                _clip01(0.05 + 0.90 * grade + noise[0]),
                _clip01(0.85 * grade * grade + noise[1]),
                _clip01(0.80 * math.sqrt(grade) + noise[2]),
                _clip01(0.10 + 0.70 * grade + noise[3]),
                background[0],
                background[1],
            ],
            dtype=np.float64,
        )
        feature_rows[qid] = values

        true_index = GRADE_VALUES.index(grade)
        keep = rng.random(3) < config.assessor_accuracy
        step_up = rng.random(3) < 0.5
        assessor = tuple(
            _assessor_grade(true_index, bool(keep[j]), bool(step_up[j])) for j in range(3)
        )
        judgments[qid] = JudgedQuery(qid, assessor)

        queries[qid] = QueryRecord(
            query_id=qid,
            issue_time=issue_time,
            true_grade=grade,
            volume=volume,
        )

    features = FeatureTable(names=FEATURE_NAMES, rows=feature_rows)
    return Corpus(queries, rankings, judgments, features)


def _clip01(value: float) -> float:
    return min(1.0, max(0.0, float(value)))
