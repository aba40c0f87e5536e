"""Stage x layer benchmark for freshblend.

Usage, from the root of a freshblend checkout:

    python3 perfbench/run.py --workload quickstart --seed 42 --seconds 20 --trace 0

Each workload generates its inputs from --seed, then runs its CLI stages
through ``freshblend.cli.run`` in a fresh worker process per set-up or
pass (``worker.py``), with numpy's thread pools pinned to one thread.
Every file a stage writes is checked (``checks.py``).

--trace 0 sets up several times, then runs passes until --seconds is
spent (at least one) and reports medians of the end-to-end metrics.
Their times are scaled to a nominal host speed, which the worker
measures as it runs (``worker.HostProbe``).
--trace 1 sets up once, runs one untraced and one traced pass, and
reports the per-layer metrics of the traced pass (``spans.py``).

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when a result was printed, 2 on a usage error or when the
current directory holds no freshblend sources.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# Set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S is
# spent, so a short set-up is still timed over enough repetitions.
SETUP_REPEATS = 5
SETUP_MIN_S = 6.0
# The host's speed swings by up to 2x within minutes.  End-to-end times
# are scaled by PROBE_NOMINAL_S over the mean duration of the worker's
# host probe (worker.HostProbe) during the timed interval.
# PROBE_NOMINAL_S is roughly its duration on the 2-CPU host the
# baseline was recorded on.
PROBE_NOMINAL_S = 0.002
# Every run must end within 180 s; the pass loop stops starting passes
# that could not finish before this.
DEADLINE_S = 165.0


def _load_json(name: str) -> dict:
    with open(os.path.join(HERE, name), encoding="utf-8") as handle:
        return json.load(handle)


def _git_commit(root: str) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


@contextlib.contextmanager
def work_dir(root: str, name: str):
    """A fresh work directory inside the checkout, removed afterwards."""
    base = os.path.join(root, ".perfbench_work", f"{name}-{os.getpid()}")
    work = os.path.join(base, "w")
    os.makedirs(work)
    try:
        yield work
    finally:
        shutil.rmtree(base, ignore_errors=True)


class Bench:
    """One benchmark run: a work directory, the worker launcher and the
    tally of stage invocations and failed checks."""

    def __init__(self, root: str, work: str, load, expected: dict | None, deadline: float):
        self.work = work
        self.load = load
        self.expected = expected
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.facts: dict = {}
        self.env = dict(os.environ)
        path = [os.path.join(root, "src")]
        if self.env.get("PYTHONPATH"):
            path.append(self.env["PYTHONPATH"])
        self.env.update({
            "PYTHONPATH": os.pathsep.join(path),
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "NUMEXPR_NUM_THREADS": "1",
        })

    def run(self, stages, trace: bool = False):
        """Run ``stages`` in one worker and check their outputs.

        Returns ``(wall_s, result, digests)``; ``result`` is None when
        the worker died or a stage failed.
        """
        for stage in stages:
            shutil.rmtree(os.path.join(self.work, stage.out), ignore_errors=True)
        base = os.path.dirname(self.work)
        spec = os.path.join(base, "spec.json")
        out = os.path.join(base, "result.json")
        with open(spec, "w", encoding="utf-8") as handle:
            json.dump({"stages": [[s.name, list(s.argv)] for s in stages], "trace": trace},
                      handle)
        if os.path.exists(out):
            os.unlink(out)
        start = time.perf_counter()
        worker = subprocess.Popen([sys.executable, WORKER, spec, out], cwd=self.work,
                                  env=self.env, stdin=subprocess.DEVNULL)
        # wait() without a timeout blocks in waitpid, so the wall time is
        # exact (a timed wait polls in steps of up to 50 ms); the timer
        # kills a worker that would overrun the run's deadline.
        killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), worker.kill)
        killer.start()
        try:
            code = worker.wait()
        finally:
            killer.cancel()
            if worker.poll() is None:
                worker.kill()
                worker.wait()
        wall = time.perf_counter() - start
        if code != 0:
            self.attempted += len(stages)
            self.failed += len(stages)
            self.problems.append(f"worker for {[s.name for s in stages]} ended with {code}")
            return wall, None, {}
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        self.facts = result["facts"]
        digests = {}
        ok = len(result["stages"]) == len(stages)
        for stage, record in zip(stages, result["stages"]):
            self.attempted += 1
            if record["exit"] != 0:
                problems = [f"{stage.name} exited with {record['exit']}"]
            else:
                found, problems = checks.check_stage(self.work, stage, self.expected)
                digests.update(found)
            if problems:
                self.failed += 1
                ok = False
                self.problems += problems
        return wall, (result if ok else None), digests

    def same_outputs(self, digests: dict, reference: dict, what: str) -> None:
        problems = checks.compare_digests(digests, reference)
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def host_factor(probe) -> float | None:
    """PROBE_NOMINAL_S over the mean duration of the probe runs in
    ``probe`` (``[count, sum_s]``), or None when the probe never ran.

    Multiplying a time by the factor gives the time on a host running
    at the nominal speed.
    """
    count, sum_s = probe
    return PROBE_NOMINAL_S * count / sum_s if count else None


def scaled_time(wall_s: float, probe) -> float | None:
    """``wall_s`` less the probe runs in it, at the nominal host speed."""
    factor = host_factor(probe)
    return None if factor is None else (wall_s - probe[1]) * factor


def _pass_probe(result) -> list:
    return [sum(s["probe"][0] for s in result["stages"]),
            sum(s["probe"][1] for s in result["stages"])]


def end_to_end(bench: Bench, seconds: float) -> dict:
    load = bench.load
    setup = []  # (wall_s, probe) per set-up

    def set_up(repeats, min_s):
        while len(setup) < repeats or sum(wall for wall, _ in setup) < min_s:
            wall, result, _ = bench.run(load.setup)
            if result is None:
                return False
            setup.append((wall, result["probe"]))
        return True

    # Half the set-ups run before the passes and half after them, so their
    # median spans the whole run.
    if not set_up(SETUP_REPEATS // 2 + 1, SETUP_MIN_S / 2):
        return {}

    passes = []
    reference = None
    start = time.monotonic()
    while True:
        wall, result, digests = bench.run(load.passes)
        if result is None:
            return {}
        if reference is None:
            reference = digests
        else:
            bench.same_outputs(digests, reference, f"pass {len(passes) + 1} vs pass 1")
        passes.append(result)
        now = time.monotonic()
        if now - start + wall > seconds or now + wall > bench.deadline:
            break

    if not set_up(SETUP_REPEATS, SETUP_MIN_S):
        return {}

    timed = {"setup_s": setup, "total_s": [(p["total_s"], _pass_probe(p)) for p in passes]}
    for i, stage in enumerate(load.passes):
        timed[f"{stage.name}_s"] = [(p["stages"][i]["wall_s"], p["stages"][i]["probe"])
                                    for p in passes]
    values = {}
    for name, runs in timed.items():
        values[name] = [scaled_time(wall, probe) for wall, probe in runs]
        if None in values[name]:
            bench.problems.append(f"{name}: the host probe never ran in a timed interval")
            return {}
        walls = [wall for wall, _ in runs]
        factors = [host_factor(probe) for _, probe in runs]
        print(f"{name} {statistics.median(values[name]):.4f} s at nominal host speed "
              f"(median of {len(runs)}); wall {statistics.median(walls):.4f} s, "
              f"host factor {statistics.median(factors):.4f}")
    print(f"passes {len(passes)}")
    values["peak_rss_mb"] = [p["peak_rss_mb"] for p in passes]
    units = {"setup_s": "s", "total_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: (statistics.median(values[name]), unit) for name, unit in units.items()}
    for name, unit in units.items():
        q1, q3 = _quartiles(values[name])
        print(f"{name} quartiles {q1:.4f} {q3:.4f} {unit} over {len(values[name])}")
    return metrics


def per_layer(bench: Bench) -> dict:
    load = bench.load
    _, result, _ = bench.run(load.setup)
    if result is None:
        return {}
    _, plain, plain_digests = bench.run(load.passes)
    if plain is None:
        return {}
    _, traced, traced_digests = bench.run(load.passes, trace=True)
    if traced is None:
        return {}
    bench.same_outputs(traced_digests, plain_digests, "traced vs untraced")

    trace = traced["trace"]
    stats = trace["stats"]
    for name in trace["absent"]:
        print(f"absent {name}")
    for layer in load.layers:
        present = [n for n in stats if n.startswith(layer + ".")]
        if not any(stats[n][0] for n in present):
            bench.problems.append(f"layer {layer} recorded no calls in the traced pass")
    for record in traced["stages"]:
        if record["self_sum_ns"] != record["span_ns"]:
            bench.problems.append(f"cli.{record['name']}: self times do not sum to the stage")
        print(f"traced {record['name']}_s {record['span_ns'] / 1e9:.4f} s "
              f"(self times sum to {record['self_sum_ns'] / 1e9:.4f} s)")
    # The untraced pass runs the host probe; its runs are not pass time.
    plain_s = plain["total_s"] - _pass_probe(plain)[1]
    return layer_metrics(stats, trace["blends"], traced["total_s"] / plain_s)


def layer_metrics(stats: dict, blends, overhead: float) -> dict:
    """Every per-layer metric, by name: (value, unit)."""
    def stat(name):
        return stats.get(name, (0, 0, 0))

    metrics = {}
    for module, attr, _ in spans.TARGETS:
        name = spans.target_name(module, attr)
        calls, self_ns, n = stat(name)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_ns / 1e9, "s")
        if module == "kernels":
            metrics[f"{name}.items"] = (n, "count")
    metrics["corpus.rows_parsed"] = (sum(stat(n)[2] for n in spans.LOADERS), "count")
    metrics["fileio.bytes_written"] = (stat("fileio.atomic_write_text")[2], "bytes")
    for stage in workloads.STAGES:
        metrics[f"cli.{stage}.self_s"] = (stat(f"cli.{stage}")[1] / 1e9, "s")
    attempted, changed = blends
    metrics["diversifier.pages_changed_ratio"] = (changed / attempted if attempted else 0.0,
                                                  "ratio")
    metrics["trace.bookkeeping.self_s"] = (stat(spans.BOOKKEEPING)[1] / 1e9, "s")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def _compare_to_baseline(load_name: str, facts: dict, metrics: dict) -> None:
    baseline = _load_json("baseline.json")
    recorded = baseline["workloads"].get(load_name, {})
    if baseline["facts"]["backend"] != facts.get("backend"):
        print(f"WARNING: baseline backend {baseline['facts']['backend']} differs from "
              f"{facts.get('backend')}; the comparison below is across backends")
    for name, (value, unit) in metrics.items():
        if name in recorded:
            ref = recorded[name]["median"]
            print(f"vs baseline {name} {value:.4f} {unit} / {ref:.4f} {unit} = {value / ref:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit value")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "freshblend", "cli.py")):
        print("perfbench: src/freshblend not found; run from the root of a freshblend "
              "checkout", file=sys.stderr)
        return 2
    load = workloads.workload(args.workload, args.seed)
    expected = None
    if args.seed == checks.DIGEST_SEED:
        expected = _load_json("digests.json")["workloads"][args.workload]
    with work_dir(root, args.workload) as work:
        bench = Bench(root, work, load, expected, time.monotonic() + DEADLINE_S)
        if args.trace:
            metrics = per_layer(bench)
        else:
            metrics = end_to_end(bench, args.seconds)

    facts = dict(bench.facts, commit=_git_commit(root), workload=args.workload,
                 seed=args.seed, trace=args.trace)
    print("facts " + json.dumps(facts, sort_keys=True))
    if not args.trace and metrics:
        _compare_to_baseline(args.workload, facts, metrics)
    for problem in bench.problems:
        print(f"FAILED CHECK {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    correct = bool(metrics) and not bench.problems and bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
