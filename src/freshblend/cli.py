"""Command-line interface wiring the modules into reproducible pipelines.

The shared configuration keys are the fields of `RunConfig`; each declares
its flag, kind and help text once and takes its default from the library
object that owns it.  A key resolves in order: that default, then a JSON
config file (--config or $FRESHBLEND_CONFIG), then its flag.  A config
value must already have its kind's JSON type (a bool is not a number, a
float is not an integer, a string is neither a number nor a list, a real
is finite); a flag's text is converted by its kind and then passes the
same check.  Ranges are checked by the library constructors that own them.

Subcommands that write into an output directory echo the resolved keys
and their own flags there as effective_config.json; all file writes are
atomic (write-then-rename).  The directory is made at the first write, so
a refused input creates none.

Exit codes: 0 success, 1 validation/input error, a wrongly typed config
value or running out of memory included (one-line diagnostic on stderr),
2 usage error, a malformed flag value included.
"""

import argparse
import inspect
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

import numpy as np

from .calibration import DEFAULT_PRIORS, PositionPriorTable
from .corpus import (
    JUDGED_POOL_MIXTURE,
    MAX_GENERATED_ROWS,
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
    ranking_table,
    require_queries,
    training_set,
    write_corpus,
)
from .errors import ConfigError, FreshblendError, ParseError, ValidationError
from .experiments import (
    DEFAULT_SWEEP_GRID,
    MAX_AB_IMPRESSIONS,
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
from .fileio import atomic_write_text, fmt, json_int, json_real, write_lines
from .freshness import (DEFAULT_WINDOW, FreshnessWindow, burst_profile, load_query_log,
                        write_burst_csv)
from .kernels import err_iaa_batch
from .metric import BreakExponent, MetricConfig
from .recency_classifier import (
    GbrtHyperparams,
    load_model,
    predict_batch,
    save_model,
    traffic_coverage,
    train_gbrt,
)

_SECONDS_PER_DAY = 86_400


# ---------------------------------------------------------------------------
# value kinds.  `check` takes a JSON-typed value and returns the config
# value or raises ValueError naming the value as JSON; `parse` turns a
# flag's text into that JSON type, so a flag and a config file pass the
# same check.
# ---------------------------------------------------------------------------


def _positive_real(value) -> float:
    value = json_real(value)
    if value <= 0:
        raise ValueError(f"expected a positive number, got {json.dumps(value)}")
    return value


def _u64(value) -> int:
    if not 0 <= json_int(value) < 2**64:
        raise ValueError(f"expected an unsigned 64-bit integer, got {json.dumps(value)}")
    return value


def _reals(value) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list of numbers, got {json.dumps(value)}")
    return tuple(json_real(item) for item in value)


def _split_reals(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part != ""]


@dataclass(frozen=True)
class _Kind:
    parse: Callable[[str], object]
    check: Callable[[object], object]
    metavar: str | None = None

    def from_flag(self, text: str):
        try:
            return self.check(self.parse(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None


def _choice(values: tuple[str, ...]) -> _Kind:
    def check(value) -> str:
        if value not in values:
            raise ValueError(f"expected one of {json.dumps(values)}, got {json.dumps(value)}")
        return value

    return _Kind(str, check, "{" + ",".join(values) + "}")


_REAL = _Kind(float, json_real, "REAL")
_POSITIVE_REAL = _Kind(float, _positive_real, "REAL")
_INT = _Kind(int, json_int)
_U64 = _Kind(int, _u64)
_REAL_LIST = _Kind(_split_reals, _reals, "LIST")


def _key(default, flag: str, kind: _Kind, help: str):
    return field(default=default, metadata={"flag": flag, "kind": kind, "help": help})


_METRIC_DEFAULTS = MetricConfig()


@dataclass(frozen=True)
class RunConfig:
    """The shared configuration keys, each with its flag, kind and help."""

    p_break: float = _key(_METRIC_DEFAULTS.p_break, "--pbreak", _REAL,
                          "per-position abandonment probability")
    break_exponent: str = _key(_METRIC_DEFAULTS.break_exponent.value, "--break-exponent",
                               _choice(tuple(e.value for e in BreakExponent)),
                               "discount position r by pbreak^r or pbreak^(r-1)")
    depth: int = _key(_METRIC_DEFAULTS.depth, "--depth", _INT, "result page depth")
    window_days: float = _key(DEFAULT_WINDOW.window_seconds / _SECONDS_PER_DAY, "--window-days",
                              _POSITIVE_REAL, "freshness window in days")
    priors: tuple[float, ...] = _key(DEFAULT_PRIORS, "--priors", _REAL_LIST,
                                     "comma list of position priors")
    grid: tuple[float, ...] = _key(DEFAULT_SWEEP_GRID, "--grid", _REAL_LIST,
                                   "comma list of sweep estimates")
    seed: int = _key(inspect.signature(train_gbrt).parameters["seed"].default, "--seed", _U64,
                     "unsigned 64-bit seed")

    def metric_config(self) -> MetricConfig:
        return MetricConfig(
            p_break=self.p_break,
            break_exponent=BreakExponent(self.break_exponent),
            depth=self.depth,
        )

    def window(self) -> FreshnessWindow:
        seconds = self.window_days * _SECONDS_PER_DAY
        if not math.isfinite(seconds):
            raise ConfigError(f"window_days is too large: {self.window_days!r}")
        return FreshnessWindow(window_seconds=int(round(seconds)))

    def prior_table(self) -> PositionPriorTable:
        return PositionPriorTable(self.priors)


# Flags that set library fields: flag dest -> field of the owner, whose
# default and type the flag takes.
_GENERATOR_FLAGS = {name: name for name in ("n_queries", "ranking_depth", "fresh_base",
                                             "fresh_slope", "feature_noise", "assessor_accuracy")}
_GBRT_FLAGS = {"trees": "n_trees", "tree_depth": "max_depth",
               "learning_rate": "learning_rate", "subsample": "subsample"}
_ROWS_LIMIT = f"n-queries x ranking-depth at most {MAX_GENERATED_ROWS:,}"
_OWNED_FLAG_HELP = {"n_queries": f"queries to generate; {_ROWS_LIMIT}",
                    "ranking_depth": f"ranked documents per query; {_ROWS_LIMIT}"}


def _add_owned_flags(parser: argparse.ArgumentParser, owner: type, flags: dict) -> None:
    for dest, name in flags.items():
        default = getattr(owner, name)
        parser.add_argument("--" + dest.replace("_", "-"), type=type(default), default=default,
                            help=_OWNED_FLAG_HELP.get(dest))


def _owned_values(args: argparse.Namespace, flags: dict) -> dict:
    return {name: getattr(args, dest) for dest, name in flags.items()}


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
        except (ValueError, RecursionError) as exc:  # bad or deep JSON, or not UTF-8
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, "
                          f"got {type(document).__name__}")
    unknown = set(document) - {key.name for key in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"config file {path} has unknown keys: {sorted(unknown)}")
    return document


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    document = _load_config_file(args.config)
    values = {}
    for key in fields(RunConfig):
        if key.name in document:
            try:
                values[key.name] = key.metadata["kind"].check(document[key.name])
            except ValueError as exc:
                raise ConfigError(f"config key {key.name!r}: {exc}") from None
        if getattr(args, key.name) is not None:
            values[key.name] = getattr(args, key.name)
    return RunConfig(**values)


def _require_file(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise ValidationError(f"{what} path does not exist: {path}")
    return path


def _require_out(args: argparse.Namespace) -> str:
    if args.out is None:
        raise ValidationError("missing required --out directory")
    return args.out


def _echo_config(args: argparse.Namespace, config: RunConfig) -> None:
    """Write the resolved shared keys, the command and the subcommand's own
    flags to effective_config.json."""
    document = {**vars(args), **asdict(config), "schema_version": 1}
    for key in ("config", "out", "func"):
        del document[key]
    atomic_write_text(
        os.path.join(args.out, "effective_config.json"),
        json.dumps(document, indent=2, sort_keys=True) + "\n",
    )


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; defaults to $FRESHBLEND_CONFIG")
    for key in fields(RunConfig):
        kind = key.metadata["kind"]
        parser.add_argument(key.metadata["flag"], dest=key.name, type=kind.from_flag,
                            metavar=kind.metavar, help=key.metadata["help"])
    parser.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freshblend",
        description="Blend fresh documents into a search ranking in proportion "
        "to the query's estimated need for recent content.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        _add_shared_flags(p)
        p.set_defaults(func=func)
        return p

    p = command("generate", _cmd_generate, "write a synthetic corpus")
    p.add_argument("--mixture", choices=["traffic", "judged"], default="traffic",
                   help="grade mixture: raw-traffic shares or a judged-pool mix")
    _add_owned_flags(p, GeneratorConfig, _GENERATOR_FLAGS)

    p = command("train", _cmd_train, "train the recency-need regressor")
    p.add_argument("--features", required=True)
    p.add_argument("--judgments", required=True)
    _add_owned_flags(p, GbrtHyperparams, _GBRT_FLAGS)

    p = command("predict", _cmd_predict, "score queries with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)

    p = command("blend", _cmd_blend, "produce blended result pages")
    p.add_argument("--rankings", required=True)
    times = p.add_mutually_exclusive_group()
    times.add_argument("--queries", help="queries.tsv supplying per-query issue times")
    times.add_argument("--query-time", type=int, help="issue time applied to every query")
    estimates = p.add_mutually_exclusive_group()
    estimates.add_argument("--p-fresh", dest="p_fresh", type=float,
                           help="fixed recency-need probability for every query")
    estimates.add_argument("--predictions", help="predictions TSV (query_id<TAB>p_fresh)")

    p = command("eval", _cmd_eval, "score ranking files under the page metric")
    p.add_argument("--rankings", required=True)
    p.add_argument("--p-fresh", dest="p_fresh", type=float, default=0.0)

    p = command("sweep", _cmd_sweep, "score blending across an estimate grid")
    p.add_argument("--corpus", required=True, help="corpus directory")

    p = command("buckets", _cmd_buckets, "four-strategy comparison by true need")
    p.add_argument("--corpus", required=True)
    _add_owned_flags(p, GbrtHyperparams, _GBRT_FLAGS)

    p = command("abtest", _cmd_abtest, "simulate a control/treatment experiment")
    p.add_argument("--corpus", required=True)
    p.add_argument("--n-queries", type=int, default=100_000,
                   help=f"impressions per bucket, 2 to {MAX_AB_IMPRESSIONS:,}")
    _add_owned_flags(p, GbrtHyperparams, _GBRT_FLAGS)

    p = command("profile", _cmd_profile, "burst-profile a query log")
    p.add_argument("--query-log", dest="query_log", required=True)

    return parser


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace, config: RunConfig) -> int:
    out = _require_out(args)
    mixture = TRAFFIC_MIXTURE if args.mixture == "traffic" else JUDGED_POOL_MIXTURE
    gen = GeneratorConfig(
        **_owned_values(args, _GENERATOR_FLAGS),
        grade_mixture=dict(mixture),
        window_seconds=config.window().window_seconds,
        page_depth=config.depth,
        position_priors=config.priors,
    )
    corpus = generate_corpus(gen, config.seed)
    write_corpus(corpus, out)
    _echo_config(args, config)
    coverage = traffic_coverage(
        (q.true_grade, q.volume) for q in corpus.queries.values()
        if q.true_grade is not None and q.volume is not None
    )
    for grade in sorted(coverage):
        print(f"traffic coverage of grade {fmt(grade)}: {coverage[grade]:.2f}%")
    return 0


def _hyperparams(args: argparse.Namespace) -> GbrtHyperparams:
    return GbrtHyperparams(**_owned_values(args, _GBRT_FLAGS))


def _cmd_train(args: argparse.Namespace, config: RunConfig) -> int:
    out = _require_out(args)
    features = load_features(_require_file(args.features, "features"))
    judgments = load_judgments(_require_file(args.judgments, "judgments"))
    x, y = training_set(features, judgments, list(features.rows))
    model = train_gbrt(x, y, _hyperparams(args), seed=config.seed, feature_names=features.names)
    save_model(model, os.path.join(out, "model.json"))
    _echo_config(args, config)
    return 0


def _check_feature_header(path: str, names: tuple[str, ...], model_names: tuple[str, ...]):
    """The model reads feature columns by position, so the header must name
    the model's features in the model's order."""
    for number, (name, expected) in enumerate(itertools.zip_longest(names, model_names), 1):
        if name is None:
            raise ParseError(f"header feature {number} is missing; the model's feature "
                             f"{number} is {expected!r}", path)
        if expected is None:
            raise ParseError(f"header feature {number} {name!r} is not in the model, which "
                             f"has {len(model_names)} features", path)
        if name != expected:
            raise ParseError(f"header feature {number} is {name!r}, but the model's feature "
                             f"{number} is {expected!r}", path)


def _cmd_predict(args: argparse.Namespace, config: RunConfig) -> int:
    out = _require_out(args)
    model = load_model(_require_file(args.model, "model"))
    path = _require_file(args.features, "features")
    features = load_features(path)
    qids = list(features.rows)
    if features.names or qids:  # an empty file has no header to check
        _check_feature_header(path, features.names, model.feature_names)
    p_hat = predict_batch(model, features.matrix(qids)) if qids else ()
    lines = [f"{qid}\t{fmt(p)}" for qid, p in zip(qids, p_hat)]
    write_lines(os.path.join(out, "predictions.tsv"), lines)
    _echo_config(args, config)
    return 0


def _blend_queries(args: argparse.Namespace, rankings) -> dict[str, QueryRecord]:
    """The query records to blend: one per ranked query, in ranking order,
    carrying the issue time its freshness checks use."""
    if args.queries is not None:
        queries = load_queries(_require_file(args.queries, "queries"))
        require_queries(rankings, queries)
        return {qid: queries[qid] for qid in rankings}
    if args.query_time is not None:
        return {qid: QueryRecord(qid, args.query_time) for qid in rankings}
    raise ValidationError("blend needs --queries or --query-time for freshness checks")


def _cmd_blend(args: argparse.Namespace, config: RunConfig) -> int:
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
    placed = orders >= 0
    rows = np.take_along_axis(prepared.candidates, np.where(placed, orders, 0), axis=1)
    doc_ids = prepared.table.doc_ids
    query, position = np.nonzero(placed)
    lines = [f"{prepared.query_ids[b]}\t{p + 1}\t{doc_ids[row]}\t{fmt(gain)}"
             for b, p, row, gain in zip(query.tolist(), position.tolist(),
                                        rows[placed].tolist(), gains[placed].tolist())]
    write_lines(os.path.join(out, "blended.tsv"), lines)
    _echo_config(args, config)
    return 0


def _cmd_eval(args: argparse.Namespace, config: RunConfig) -> int:
    table = ranking_table(load_rankings(_require_file(args.rankings, "rankings")))
    metric_config = config.metric_config()
    p_fresh = args.p_fresh
    if not 0.0 <= p_fresh <= 1.0:
        raise ValidationError(f"intent probabilities out of [0,1]: --p-fresh {p_fresh!r}")
    table.require_latent_any(np.arange(len(table.doc_ids)), "has no latent_rel_any; eval "
                             "scores the stored latent relevances")
    # Each page is its ranking cut to the depth and zero-padded, which the
    # kernel scores exactly.
    n = len(table.query_ids)
    width = min(metric_config.depth, int(np.diff(table.offsets).max(initial=0)))
    pages = np.zeros((2, n, width), dtype=np.float64)
    on_page = table.rank <= width
    pages[:, table.query[on_page], table.rank[on_page] - 1] = np.nan_to_num(
        (table.latent_fresh[on_page], table.latent_any[on_page]))
    totals = err_iaa_batch(*pages, np.full(n, p_fresh), np.full(n, 1.0 - p_fresh),
                           metric_config.p_break, metric_config.break_exponent.shift)
    for qid, total in zip(table.query_ids, totals):
        print(f"{qid}\t{fmt(total)}")
    return 0


def _cmd_sweep(args: argparse.Namespace, config: RunConfig) -> int:
    out = _require_out(args)
    corpus = load_corpus(_require_file(args.corpus, "corpus"))
    curves = sweep_estimate(corpus, config.grid, config.metric_config(),
                            config.window(), config.prior_table())
    write_sweep_csv(curves, os.path.join(out, "sweep.csv"))
    _echo_config(args, config)
    return 0


def _cmd_buckets(args: argparse.Namespace, config: RunConfig) -> int:
    out = _require_out(args)
    corpus = load_corpus(_require_file(args.corpus, "corpus"))
    report = bucket_comparison(corpus, _hyperparams(args), config.metric_config(),
                               config.seed, config.window(), config.prior_table())
    write_buckets_csv(report, os.path.join(out, "buckets.csv"))
    _echo_config(args, config)
    return 0


def _cmd_abtest(args: argparse.Namespace, config: RunConfig) -> int:
    if args.n_queries > MAX_AB_IMPRESSIONS:
        raise ValidationError(f"--n-queries {args.n_queries} is above the limit of "
                              f"{MAX_AB_IMPRESSIONS} impressions per bucket")
    out = _require_out(args)
    corpus = load_corpus(_require_file(args.corpus, "corpus"))
    if not corpus.judgments or not corpus.features.rows:
        raise ValidationError("abtest needs judgments.tsv and features.tsv in the corpus")
    qids = list(corpus.features.rows)
    x, y = training_set(corpus.features, corpus.judgments, qids)
    model = train_gbrt(x, y, _hyperparams(args), seed=config.seed,
                       feature_names=corpus.features.names)
    p_hat = predict_batch(model, x)
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
    _echo_config(args, config)
    return 0


def _cmd_profile(args: argparse.Namespace, config: RunConfig) -> int:
    out = _require_out(args)
    log = load_query_log(_require_file(args.query_log, "query log"))
    profile = burst_profile(log)
    write_burst_csv(profile, os.path.join(out, "burst.csv"))
    _echo_config(args, config)
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
        return args.func(args, _resolve_config(args))
    except (FreshblendError, OSError) as exc:
        print(f"freshblend: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"freshblend: error: {args.command}: out of memory", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
