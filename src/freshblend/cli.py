"""Command-line interface wiring the modules into reproducible pipelines.

Shared configuration keys (p_break, break_exponent, depth, window_days,
priors, grid, seed) resolve in order: built-in defaults, then a JSON
config file (--config or $FRESHBLEND_CONFIG), then explicit flags.  Every
subcommand that writes into an output directory echoes the resolved
configuration there as effective_config.json; all file writes are atomic
(write-then-rename).

Exit codes: 0 success, 1 validation/input error (diagnostic on stderr),
2 usage error.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .calibration import DEFAULT_PRIORS, CalibratedCandidate, PositionPriorTable
from .corpus import (
    JUDGED_POOL_MIXTURE,
    TRAFFIC_MIXTURE,
    GeneratorConfig,
    QueryRecord,
    generate_corpus,
    load_corpus,
    load_features,
    load_judgments,
    load_predictions,
    load_rankings,
    load_queries,
    write_corpus,
)
from .errors import ConfigError, FreshblendError, ValidationError
from .experiments import (
    DEFAULT_SWEEP_GRID,
    ab_test,
    blend_pages,
    blend_policy,
    bucket_comparison,
    estimates_for,
    initial_ranking_policy,
    prepare_queries,
    sweep_estimate,
    write_ab_report,
    write_buckets_csv,
    write_sweep_csv,
)
from .fileio import atomic_write_text, fmt
from .freshness import FreshnessWindow, burst_profile, load_query_log, write_burst_csv
from .metric import BreakExponent, IntentDistribution, MetricConfig, err_iaa
from .recency_classifier import (
    GbrtHyperparams,
    load_model,
    predict_batch,
    save_model,
    traffic_coverage,
    train_gbrt,
)

_SHARED_KEYS = ("p_break", "break_exponent", "depth", "window_days", "priors", "grid", "seed")


@dataclass
class RunConfig:
    p_break: float = 0.85
    break_exponent: str = "r"
    depth: int = 10
    window_days: float = 3.0
    priors: tuple[float, ...] = DEFAULT_PRIORS
    grid: tuple[float, ...] = DEFAULT_SWEEP_GRID
    seed: int = 0

    def metric_config(self) -> MetricConfig:
        return MetricConfig(
            p_break=self.p_break,
            break_exponent=BreakExponent(self.break_exponent),
            depth=self.depth,
        )

    def window(self) -> FreshnessWindow:
        seconds = int(round(self.window_days * 86_400))
        return FreshnessWindow(window_seconds=seconds)

    def prior_table(self) -> PositionPriorTable:
        return PositionPriorTable(tuple(self.priors))

    def as_dict(self) -> dict:
        return {
            "p_break": self.p_break,
            "break_exponent": self.break_exponent,
            "depth": self.depth,
            "window_days": self.window_days,
            "priors": list(self.priors),
            "grid": list(self.grid),
            "seed": self.seed,
        }


def _u64(token: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {token!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be an unsigned 64-bit value: {token}")
    return value


def _real_list(token: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in token.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of reals: {token!r}") from None


def _load_config_file(path: str | None) -> dict:
    if path is None:
        path = os.environ.get("FRESHBLEND_CONFIG") or None
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ValidationError(f"config file does not exist: {path}")
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, "
                          f"got {type(document).__name__}")
    unknown = set(document) - set(_SHARED_KEYS)
    if unknown:
        raise ConfigError(f"config file {path} has unknown keys: {sorted(unknown)}")
    return document


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    document = _load_config_file(getattr(args, "config", None))
    for key in _SHARED_KEYS:
        if key in document:
            value = document[key]
            try:
                if key in ("priors", "grid"):
                    value = tuple(float(v) for v in value)
                elif key in ("p_break", "window_days"):
                    value = float(value)
                elif key in ("depth", "seed"):
                    value = int(value)
            except (TypeError, ValueError):
                raise ConfigError(f"config key {key!r} has a malformed value: {value!r}") from None
            setattr(config, key, value)
    for key in _SHARED_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    if config.break_exponent not in ("r", "r-1"):
        raise ConfigError(f"break_exponent must be 'r' or 'r-1': {config.break_exponent!r}")
    if not 0 <= config.seed < 2**64:
        raise ConfigError(f"seed must be an unsigned 64-bit value: {config.seed}")
    if config.window_days <= 0:
        raise ConfigError(f"window_days must be positive: {config.window_days}")
    return config


def _require_file(path: str | None, what: str) -> str:
    if path is None:
        raise ValidationError(f"missing required {what} path")
    if not os.path.exists(path):
        raise ValidationError(f"{what} path does not exist: {path}")
    return path


def _require_out(args: argparse.Namespace) -> str:
    if args.out is None:
        raise ValidationError("missing required --out directory")
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _echo_config(out_dir: str, config: RunConfig, command: str, extra: dict) -> None:
    document = {"schema_version": 1, "command": command}
    document.update(config.as_dict())
    document.update(extra)
    atomic_write_text(
        os.path.join(out_dir, "effective_config.json"),
        json.dumps(document, indent=2, sort_keys=True) + "\n",
    )


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; defaults to $FRESHBLEND_CONFIG")
    parser.add_argument("--pbreak", dest="p_break", type=float, metavar="REAL",
                        help="per-position abandonment probability")
    parser.add_argument("--break-exponent", dest="break_exponent", choices=["r", "r-1"],
                        help="discount position r by pbreak^r or pbreak^(r-1)")
    parser.add_argument("--depth", type=int, help="result page depth")
    parser.add_argument("--window-days", dest="window_days", type=float,
                        help="freshness window in days")
    parser.add_argument("--priors", type=_real_list, metavar="LIST",
                        help="comma list of position priors")
    parser.add_argument("--grid", type=_real_list, metavar="LIST",
                        help="comma list of sweep estimates")
    parser.add_argument("--seed", type=_u64, help="unsigned 64-bit seed")
    parser.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freshblend",
        description="Blend fresh documents into a search ranking in proportion "
        "to the query's estimated need for recent content.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic corpus")
    _add_shared_flags(p)
    p.add_argument("--n-queries", type=int, default=4000)
    p.add_argument("--mixture", choices=["traffic", "judged"], default="traffic",
                   help="grade mixture: raw-traffic shares or a judged-pool mix")
    p.add_argument("--ranking-depth", type=int, default=30)
    p.add_argument("--fresh-base", type=float, default=0.08)
    p.add_argument("--fresh-slope", type=float, default=0.35)
    p.add_argument("--feature-noise", type=float, default=0.12)
    p.add_argument("--assessor-accuracy", type=float, default=0.85)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train the recency-need regressor")
    _add_shared_flags(p)
    p.add_argument("--features", required=True)
    p.add_argument("--judgments", required=True)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--tree-depth", type=int, default=3)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--subsample", type=float, default=1.0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="score queries with a trained model")
    _add_shared_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("blend", help="produce blended result pages")
    _add_shared_flags(p)
    p.add_argument("--rankings", required=True)
    p.add_argument("--queries", help="queries.tsv supplying per-query issue times")
    p.add_argument("--query-time", type=int,
                   help="issue time applied to every query when --queries is absent")
    p.add_argument("--p-fresh", dest="p_fresh", type=float,
                   help="fixed recency-need probability for every query")
    p.add_argument("--predictions", help="predictions TSV (query_id<TAB>p_fresh)")
    p.set_defaults(func=_cmd_blend)

    p = sub.add_parser("eval", help="score ranking files under the page metric")
    _add_shared_flags(p)
    p.add_argument("--rankings", required=True)
    p.add_argument("--p-fresh", dest="p_fresh", type=float, default=0.0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="score blending across an estimate grid")
    _add_shared_flags(p)
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("buckets", help="four-strategy comparison by true need")
    _add_shared_flags(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--tree-depth", type=int, default=3)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--subsample", type=float, default=1.0)
    p.set_defaults(func=_cmd_buckets)

    p = sub.add_parser("abtest", help="simulate a control/treatment experiment")
    _add_shared_flags(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--n-queries", type=int, default=100_000)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--tree-depth", type=int, default=3)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--subsample", type=float, default=1.0)
    p.set_defaults(func=_cmd_abtest)

    p = sub.add_parser("profile", help="burst-profile a query log")
    _add_shared_flags(p)
    p.add_argument("--query-log", dest="query_log", required=True)
    p.set_defaults(func=_cmd_profile)

    return parser


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    out = _require_out(args)
    mixture = TRAFFIC_MIXTURE if args.mixture == "traffic" else JUDGED_POOL_MIXTURE
    gen = GeneratorConfig(
        n_queries=args.n_queries,
        grade_mixture=dict(mixture),
        ranking_depth=args.ranking_depth,
        fresh_base=args.fresh_base,
        fresh_slope=args.fresh_slope,
        feature_noise=args.feature_noise,
        assessor_accuracy=args.assessor_accuracy,
        window_seconds=config.window().window_seconds,
        page_depth=config.depth,
        position_priors=tuple(config.priors),
    )
    corpus = generate_corpus(gen, config.seed)
    write_corpus(corpus, out)
    _echo_config(out, config, "generate", {
        "n_queries": args.n_queries,
        "mixture": args.mixture,
        "ranking_depth": args.ranking_depth,
        "fresh_base": args.fresh_base,
        "fresh_slope": args.fresh_slope,
        "feature_noise": args.feature_noise,
        "assessor_accuracy": args.assessor_accuracy,
    })
    coverage = traffic_coverage(
        (q.true_grade, q.volume) for q in corpus.queries.values()
        if q.true_grade is not None and q.volume is not None
    )
    for grade in sorted(coverage):
        print(f"traffic coverage of grade {fmt(grade)}: {coverage[grade]:.2f}%")
    return 0


def _hyperparams(args: argparse.Namespace) -> GbrtHyperparams:
    return GbrtHyperparams(
        n_trees=args.trees,
        max_depth=args.tree_depth,
        learning_rate=args.learning_rate,
        subsample=args.subsample,
    )


def _cmd_train(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    out = _require_out(args)
    features = load_features(_require_file(args.features, "features"))
    judgments = load_judgments(_require_file(args.judgments, "judgments"))
    dataset = []
    for qid, vector in features.rows.items():
        if qid not in judgments:
            raise ValidationError(f"query {qid!r} has features but no judgment")
        dataset.append((vector, judgments[qid].consensus_grade))
    model = train_gbrt(dataset, _hyperparams(args), seed=config.seed,
                       feature_names=features.names)
    save_model(model, os.path.join(out, "model.json"))
    _echo_config(out, config, "train", {
        "features": args.features,
        "judgments": args.judgments,
        "trees": args.trees,
        "tree_depth": args.tree_depth,
        "learning_rate": args.learning_rate,
        "subsample": args.subsample,
    })
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    out = _require_out(args)
    model = load_model(_require_file(args.model, "model"))
    features = load_features(_require_file(args.features, "features"))
    qids = list(features.rows)
    p_hat = predict_batch(model, features.matrix(qids)) if qids else ()
    lines = [f"{qid}\t{fmt(p)}" for qid, p in zip(qids, p_hat)]
    atomic_write_text(os.path.join(out, "predictions.tsv"),
                      "".join(line + "\n" for line in lines))
    _echo_config(out, config, "predict", {
        "model": args.model,
        "features": args.features,
    })
    return 0


def _blend_queries(args: argparse.Namespace, rankings) -> dict[str, QueryRecord]:
    """The query records to blend: one per ranked query, in ranking order,
    carrying the issue time its freshness checks use."""
    if args.queries is not None:
        queries = load_queries(_require_file(args.queries, "queries"))
        for qid in rankings:
            if qid not in queries:
                raise ValidationError(f"query {qid!r} in rankings but not in queries file")
        return {qid: queries[qid] for qid in rankings}
    if args.query_time is not None:
        return {qid: QueryRecord(qid, args.query_time) for qid in rankings}
    raise ValidationError("blend needs --queries or --query-time for freshness checks")


def _cmd_blend(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    out = _require_out(args)
    rankings = load_rankings(_require_file(args.rankings, "rankings"))
    queries = _blend_queries(args, rankings)
    if args.predictions is not None:
        p_by_query = load_predictions(_require_file(args.predictions, "predictions"))
    elif args.p_fresh is not None:
        p_by_query = {qid: args.p_fresh for qid in rankings}
    else:
        raise ValidationError("blend needs --p-fresh or --predictions")

    metric_config = config.metric_config()
    prepared = prepare_queries(queries, rankings, metric_config, config.window(),
                               config.prior_table(), require_latents=False)
    orders, gains = blend_pages(prepared, estimates_for(prepared, p_by_query), metric_config)
    lines = []
    for qid, pool, order, row_gains in zip(prepared.query_ids, prepared.candidates,
                                           orders, gains):
        for position, (column, gain) in enumerate(zip(order, row_gains), start=1):
            if column < 0:
                break
            lines.append(f"{qid}\t{position}\t{pool[column].doc_id}\t{fmt(gain)}")
    atomic_write_text(os.path.join(out, "blended.tsv"),
                      "".join(line + "\n" for line in lines))
    _echo_config(out, config, "blend", {
        "rankings": args.rankings,
        "queries": args.queries,
        "predictions": args.predictions,
        "p_fresh": args.p_fresh,
        "query_time": args.query_time,
    })
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    rankings = load_rankings(_require_file(args.rankings, "rankings"))
    metric_config = config.metric_config()
    dist = IntentDistribution.from_p_fresh(args.p_fresh)
    for qid, ranking in rankings.items():
        page = []
        for entry in ranking.entries:
            if entry.latent_rel_any is None:
                raise ValidationError(
                    f"query {qid!r} doc {entry.doc_id!r} has no latent_rel_any; "
                    "eval scores the stored latent relevances"
                )
            page.append(CalibratedCandidate(
                doc_id=entry.doc_id,
                r_any=entry.latent_rel_any,
                r_fresh=entry.latent_rel_fresh if entry.latent_rel_fresh is not None else 0.0,
                ordinary_rank=entry.rank,
            ))
        print(f"{qid}\t{err_iaa(page, dist, metric_config):.12g}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    out = _require_out(args)
    corpus = load_corpus(_require_file(args.corpus, "corpus"))
    curves = sweep_estimate(corpus, config.grid, config.metric_config(),
                            config.window(), config.prior_table())
    write_sweep_csv(curves, os.path.join(out, "sweep.csv"))
    _echo_config(out, config, "sweep", {"corpus": args.corpus})
    return 0


def _cmd_buckets(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    out = _require_out(args)
    corpus = load_corpus(_require_file(args.corpus, "corpus"))
    report = bucket_comparison(corpus, _hyperparams(args), config.metric_config(),
                               config.seed, config.window(), config.prior_table())
    write_buckets_csv(report, os.path.join(out, "buckets.csv"))
    _echo_config(out, config, "buckets", {
        "corpus": args.corpus,
        "trees": args.trees,
        "tree_depth": args.tree_depth,
        "learning_rate": args.learning_rate,
        "subsample": args.subsample,
    })
    return 0


def _cmd_abtest(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    out = _require_out(args)
    corpus = load_corpus(_require_file(args.corpus, "corpus"))
    if not corpus.judgments or not corpus.features.rows:
        raise ValidationError("abtest needs judgments.tsv and features.tsv in the corpus")
    dataset = []
    for qid, vector in corpus.features.rows.items():
        if qid not in corpus.judgments:
            raise ValidationError(f"query {qid!r} has features but no judgment")
        dataset.append((vector, corpus.judgments[qid].consensus_grade))
    model = train_gbrt(dataset, _hyperparams(args), seed=config.seed,
                       feature_names=corpus.features.names)
    qids = list(corpus.features.rows)
    p_hat = predict_batch(model, corpus.features.matrix(qids))
    p_by_query = {qid: float(p) for qid, p in zip(qids, p_hat)}
    report = ab_test(
        corpus,
        control_policy=initial_ranking_policy(),
        treatment_policy=blend_policy(p_by_query),
        n_queries=args.n_queries,
        seed=config.seed,
        metric_config=config.metric_config(),
        window=config.window(),
        table=config.prior_table(),
    )
    write_ab_report(report, os.path.join(out, "abreport.json"))
    _echo_config(out, config, "abtest", {
        "corpus": args.corpus,
        "n_queries": args.n_queries,
        "trees": args.trees,
        "tree_depth": args.tree_depth,
        "learning_rate": args.learning_rate,
        "subsample": args.subsample,
    })
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    out = _require_out(args)
    log = load_query_log(_require_file(args.query_log, "query log"))
    profile = burst_profile(log)
    write_burst_csv(profile, os.path.join(out, "burst.csv"))
    _echo_config(out, config, "profile", {"query_log": args.query_log})
    for day, share in enumerate(profile.average, start=1):
        print(f"average share on day {day}: {share:.4f}")
    return 0


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except FreshblendError as exc:
        print(f"freshblend: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"freshblend: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
