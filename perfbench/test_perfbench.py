"""Tests of the benchmark's own helpers.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import random
import shutil
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from freshblend import cli, experiments, freshness  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # root [0, 100] holds a [10, 40], which holds b [20, 30], then c [50, 90]
    tracer = spans.Tracer(clock=FakeClock([0, 10, 20, 30, 40, 50, 90, 100]))
    with tracer.span("root") as root:
        def a():
            tracer.call("b", lambda: None, (), {})

        tracer.call("a", a, (), {})
        tracer.call("c", lambda: None, (), {})
    assert root[0] == 100
    assert {name: stat[1] for name, stat in tracer.stats.items()} == {
        "root": 30, "a": 20, "b": 10, "c": 40}
    assert tracer.self_ns_total() == 100


def test_self_times_never_negative_and_sum_to_root():
    rng = random.Random(7)
    tracer = spans.Tracer()

    def nest(depth):
        for _ in range(rng.randint(0, 3)):
            if depth < 4:
                tracer.call(f"level{depth}", nest, (depth + 1,), {})

    with tracer.span("root") as root:
        nest(0)
    assert all(stat[1] >= 0 for stat in tracer.stats.values())
    assert tracer.self_ns_total() == root[0]


def test_bookkeeping_is_not_charged_to_the_caller():
    # caller [0, 100] holds f [10, 20], then f's item counting [30, 70]
    tracer = spans.Tracer(clock=FakeClock([0, 10, 20, 30, 70, 100]))
    f = spans._wrap(tracer, "m.f", lambda rows: rows, lambda args, result: len(result))
    with tracer.span("caller") as caller:
        f([1, 2, 3])
    assert tracer.stats == {"m.f": [1, 10, 3], spans.BOOKKEEPING: [1, 40, 0],
                            "caller": [1, 50, 0]}
    assert tracer.self_ns_total() == caller[0]


def _generate(work, n_queries=30):
    out = os.path.join(work, "corpus")
    assert cli.run(["generate", "--out", out, "--n-queries", str(n_queries),
                    "--mixture", "judged", "--seed", "3"]) == 0


def _blend(work):
    corpus = os.path.join(work, "corpus")
    assert cli.run(["blend", "--rankings", os.path.join(corpus, "rankings.tsv"),
                    "--queries", os.path.join(corpus, "queries.tsv"), "--p-fresh", "0.5",
                    "--out", os.path.join(work, "blended")]) == 0


def test_instrument_binds_where_callers_look_names_up(tmp_path):
    work = str(tmp_path)
    _generate(work)
    original = freshness.derive_fresh_ranking
    tracer = spans.Tracer()
    targets = spans.TARGETS + (("corpus", "no_such_function", None),)
    absent, restore = spans.instrument(tracer, targets=targets)
    try:
        assert absent == ["corpus.no_such_function"]
        assert cli.derive_fresh_ranking.__wrapped__ is original
        assert experiments.derive_fresh_ranking.__wrapped__ is original
        _blend(work)
    finally:
        restore()
    assert cli.derive_fresh_ranking is original
    assert tracer.stats["freshness.derive_fresh_ranking"][0] == 30
    assert tracer.stats["diversifier.blend"][0] == 30
    assert tracer.stats["kernels.greedy_blend"][0] == 30
    assert tracer.stats["corpus.load_rankings"][2] == 30 * 30  # 30 documents per query
    assert tracer.blends[0] == 30


@pytest.fixture(scope="module")
def blended_work(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("work"))
    _generate(work)
    _blend(work)
    return work


def _corrupt(work, edit):
    path = os.path.join(work, "blended", "blended.tsv")
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(edit(lines))


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:-1],
    lambda lines: [lines[0].replace("\t1\t", "\t1\tnot-a-doc-", 1)] + lines[1:],
    lambda lines: [lines[1]] + [lines[0]] + lines[2:],
], ids=["missing-row", "foreign-document", "positions-out-of-order"])
def test_blend_check_rejects_corrupted_file(blended_work, tmp_path, edit):
    work = str(tmp_path / "copy")
    shutil.copytree(blended_work, work)
    assert checks.check_blend(work) == []
    _corrupt(work, edit)
    assert checks.check_blend(work) != []


def test_stage_check_rejects_changed_digest(blended_work, tmp_path):
    work = str(tmp_path / "copy")
    shutil.copytree(blended_work, work)
    stage = workloads.Stage("blend", "blended", ())
    digests, problems = checks.check_stage(work, stage, None)
    assert problems == []
    assert checks.check_stage(work, stage, digests)[1] == []
    _corrupt(work, lambda lines: lines[:-1] + [lines[-1].rstrip("\n") + "0\n"])
    assert checks.check_blend(work) == []
    problems = checks.check_stage(work, stage, digests)[1]
    assert any("blended/blended.tsv: sha256" in p for p in problems)


def test_scaled_time_removes_probe_runs_and_scales_to_nominal_speed():
    # 10 probe runs took twice PROBE_NOMINAL_S each: the host ran at half speed
    probe = [10, 20 * run.PROBE_NOMINAL_S]
    assert run.host_factor(probe) == pytest.approx(0.5)
    assert run.scaled_time(1.0 + probe[1], probe) == pytest.approx(0.5)
    assert run.scaled_time(1.0, [0, 0.0]) is None


def test_host_probe_ticks_while_entered_only():
    probe = worker.HostProbe()
    with probe:
        end = time.monotonic() + 4 * probe.PERIOD_S
        while time.monotonic() < end:
            pass
    count = probe.count
    assert count >= 1 and probe.sum_s > 0
    time.sleep(2 * probe.PERIOD_S)
    assert probe.count == count


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    reported = run.layer_metrics({}, (0, 0), 1.0)
    assert [m["name"] for m in bench["per_layer"]] == list(reported)
    assert [m["unit"] for m in bench["per_layer"]] == [u for _, u in reported.values()]
    assert {m["name"] for m in bench["end_to_end"]} == {"total_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "quickstart", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
