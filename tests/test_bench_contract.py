"""The benchmark's worker (perfbench/worker.py) must run against this
package: it calls `freshblend.cli.run` for every stage and
`freshblend.kernels.backend_name` for its facts, and its traced pass wraps
library functions by name.  A name it needs that goes missing fails here
rather than only in a benchmark run."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import freshblend
from freshblend.cli import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(freshblend.__file__)))


def _workloads():
    """perfbench/workloads.py, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STAGES = [
    ["generate", ["generate", "--out", "corpus", "--n-queries", "50", "--mixture", "judged",
                  "--seed", "3"]],
    ["train", ["train", "--features", "corpus/features.tsv", "--judgments",
               "corpus/judgments.tsv", "--trees", "5", "--out", "model", "--seed", "3"]],
    ["predict", ["predict", "--model", "model/model.json", "--features", "corpus/features.tsv",
                 "--out", "pred"]],
    ["blend", ["blend", "--rankings", "corpus/rankings.tsv", "--queries", "corpus/queries.tsv",
               "--predictions", "pred/predictions.tsv", "--out", "blended"]],
]

# Small versions of the other workloads: (generate's mixture, the pass's
# stages).  Their corpus is generated before the traced pass, as the
# benchmark sets it up.
OTHER_WORKLOADS = {
    "offline_eval": ("judged", [
        ["sweep", ["sweep", "--corpus", "corpus", "--out", "sweep"]],
        ["buckets", ["buckets", "--corpus", "corpus", "--trees", "2", "--out", "buckets",
                     "--seed", "3"]],
    ]),
    "abtest_traffic": ("traffic", [
        ["abtest", ["abtest", "--corpus", "corpus", "--n-queries", "200", "--trees", "2",
                    "--out", "ab", "--seed", "3"]],
    ]),
}


def _run_worker(tmp_path, stages, trace: bool) -> dict:
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"stages": stages, "trace": trace}), encoding="utf-8")
    result_path = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, WORKER, str(spec), str(result_path)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC, "OMP_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert [(stage["name"], stage["exit"]) for stage in result["stages"]] == [
        (name, 0) for name, _ in stages
    ], done.stderr
    assert result["facts"]["backend"] == "numpy"
    return result


def _assert_no_silent_layer(stats: dict, name: str, stages) -> None:
    """The benchmark's traced pass fails a layer that records no call."""
    workload = _workloads().workload(name, 3)
    assert [stage_name for stage_name, _ in stages] == [stage.name for stage in workload.passes]
    silent = [layer for layer in workload.layers
              if not any(stat[0] for span, stat in stats.items()
                         if span.startswith(layer + "."))]
    assert silent == []


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_worker_runs_every_stage(tmp_path, trace):
    result = _run_worker(tmp_path, STAGES, trace)
    if trace:
        stats = result["trace"]["stats"]
        for name, _ in STAGES:
            assert stats[f"cli.{name}"][0] == 1
        assert stats["kernels.greedy_blend"][0] >= 1
        # only the train stage fits trees
        assert stats["recency_classifier.train_gbrt"][0] == 1
        assert stats["kernels.best_split"][0] >= 1
        # the loader items perfbench sums into corpus.rows_parsed: the 50
        # feature rows read by train and by predict, the judgments read by
        # train and the queries read by blend
        items = {name: stats[f"corpus.{name}"][2]
                 for name in ("load_features", "load_judgments", "load_queries")}
        assert items == {"load_features": 100, "load_judgments": 50, "load_queries": 50}
        _assert_no_silent_layer(stats, "quickstart", STAGES)


@pytest.mark.parametrize("name", sorted(OTHER_WORKLOADS))
def test_traced_pass_of_each_other_workload_records_every_layer(tmp_path, name):
    mixture, stages = OTHER_WORKLOADS[name]
    assert run(["generate", "--out", str(tmp_path / "corpus"), "--n-queries", "60",
                "--mixture", mixture, "--seed", "3"]) == 0
    stats = _run_worker(tmp_path, stages, trace=True)["trace"]["stats"]
    for stage_name, _ in stages:
        assert stats[f"cli.{stage_name}"][0] == 1
    _assert_no_silent_layer(stats, name, stages)
