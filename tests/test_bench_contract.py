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


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_worker_runs_every_stage(tmp_path, trace):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"stages": STAGES, "trace": trace}), encoding="utf-8")
    result_path = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, WORKER, str(spec), str(result_path)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC, "OMP_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert [(stage["name"], stage["exit"]) for stage in result["stages"]] == [
        (name, 0) for name, _ in STAGES
    ], done.stderr
    assert result["facts"]["backend"] == "numpy"
    if trace:
        stats = result["trace"]["stats"]
        for name, _ in STAGES:
            assert stats[f"cli.{name}"][0] == 1
        assert stats["kernels.greedy_blend"][0] >= 1
        # only the train stage fits trees
        assert stats["recency_classifier.train_gbrt"][0] == 1
        assert stats["kernels.best_split"][0] >= 1
        # these are quickstart's stages, whose traced pass fails a layer
        # that records no call
        quickstart = _workloads().workload("quickstart", 3)
        assert [name for name, _ in STAGES] == [stage.name for stage in quickstart.passes]
        silent = [layer for layer in quickstart.layers
                  if not any(stat[0] for name, stat in stats.items()
                             if name.startswith(layer + "."))]
        assert silent == []
