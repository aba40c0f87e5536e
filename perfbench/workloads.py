"""The benchmark's workloads: which CLI stages run in set-up and in a pass.

Every stage runs from the work directory with relative paths, because
effective_config.json records the input paths and its digest would
otherwise depend on where the work directory is.
"""

from dataclasses import dataclass

N_QUERIES = 4000
AB_IMPRESSIONS = 1_000_000


@dataclass(frozen=True)
class Stage:
    name: str  # CLI subcommand
    out: str   # output directory, relative to the work directory
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    setup: tuple[Stage, ...]
    passes: tuple[Stage, ...]
    # Layers (freshblend modules) whose wrapped functions must record at
    # least one call in a traced pass.
    layers: tuple[str, ...]


def _generate(mixture: str, seed: int) -> Stage:
    return Stage("generate", "corpus", ("generate", "--out", "corpus", "--n-queries",
                                        str(N_QUERIES), "--mixture", mixture,
                                        "--seed", str(seed)))


def workload(name: str, seed: int) -> Workload:
    """Build a workload's stages for one seed."""
    s = str(seed)
    if name == "quickstart":
        # The README pipeline: per-query dispatch in predict and blend, and
        # the only large writes.
        return Workload(
            setup=(),
            passes=(
                _generate("judged", seed),
                Stage("train", "model", ("train", "--features", "corpus/features.tsv",
                                         "--judgments", "corpus/judgments.tsv",
                                         "--out", "model", "--seed", s)),
                Stage("predict", "pred", ("predict", "--model", "model/model.json",
                                          "--features", "corpus/features.tsv",
                                          "--out", "pred")),
                Stage("blend", "blended", ("blend", "--rankings", "corpus/rankings.tsv",
                                           "--queries", "corpus/queries.tsv",
                                           "--predictions", "pred/predictions.tsv",
                                           "--out", "blended")),
            ),
            layers=("corpus", "recency_classifier", "freshness", "calibration",
                    "diversifier", "kernels", "fileio"),
        )
    if name == "offline_eval":
        # The blend and metric kernels do most of the work.
        return Workload(
            setup=(_generate("judged", seed),),
            passes=(
                Stage("sweep", "sweep", ("sweep", "--corpus", "corpus", "--out", "sweep")),
                Stage("buckets", "buckets", ("buckets", "--corpus", "corpus",
                                             "--out", "buckets", "--seed", s)),
            ),
            layers=("corpus", "recency_classifier", "freshness", "calibration",
                    "diversifier", "experiments", "kernels", "fileio"),
        )
    if name == "abtest_traffic":
        # A million impressions per bucket on a raw-traffic corpus: click
        # simulation, RNG draws and rank statistics lead; the peak-memory case.
        return Workload(
            setup=(_generate("traffic", seed),),
            passes=(
                Stage("abtest", "ab", ("abtest", "--corpus", "corpus", "--n-queries",
                                       str(AB_IMPRESSIONS), "--out", "ab", "--seed", s)),
            ),
            layers=("corpus", "recency_classifier", "freshness", "calibration",
                    "diversifier", "experiments", "kernels", "fileio"),
        )
    raise KeyError(name)


NAMES = ("quickstart", "offline_eval", "abtest_traffic")
STAGES = ("generate", "train", "predict", "blend", "sweep", "buckets", "abtest")
