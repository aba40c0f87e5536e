"""Recency-aware blending of search rankings.

Estimates each query's probability of needing recent content, then
greedily rebuilds the result page to maximize an intent-aware expected
reciprocal rank with abandonment, trading ordinary relevance against
freshness in exactly that proportion.
"""

from .calibration import (
    DEFAULT_PRIOR_TABLE,
    DEFAULT_PRIORS,
    PositionPriorTable,
    build_candidates,
    position_prior,
)
from .corpus import (
    Corpus,
    DocEntry,
    GeneratorConfig,
    JudgedQuery,
    QueryRecord,
    Ranking,
    generate_corpus,
    load_corpus,
    load_judgments,
    load_rankings,
    ranking_table,
    training_set,
    write_corpus,
)
from .errors import (
    ConfigError,
    FreshblendError,
    ParseError,
    UnknownQueryError,
    ValidationError,
)
from .experiments import (
    AbReport,
    BucketReport,
    SweepCurve,
    ab_test,
    blend_pages,
    bucket_comparison,
    mann_whitney_u,
    prepare_queries,
    sweep_estimate,
)
from .freshness import (
    DEFAULT_WINDOW,
    FreshnessWindow,
    burst_profile,
    derive_fresh_ranking,
    is_fresh,
)
from .metric import BreakExponent, MetricConfig
from .recency_classifier import (
    GbrtHyperparams,
    GbrtModel,
    average_pairwise_kappa,
    cohen_kappa,
    predict_batch,
    preselect,
    traffic_coverage,
    train_gbrt,
)

__version__ = "0.1.0"
