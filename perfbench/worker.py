"""Run freshblend CLI stages in this process, one at a time, and time them.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC holds ``{"stages": [[name, argv], ...], "trace": bool}``.  The
stages run through ``freshblend.cli.run(argv)`` from the current
directory with their stdout discarded, so terminal I/O is not timed.  A
pass stops at the first stage that exits nonzero.  RESULT receives each
stage's exit code, wall time and host probe runs (untraced), the pass's
total time and peak RSS, the probe runs of the whole process, the
machine facts and, when traced, the per-span aggregates.
"""

import contextlib
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback

import numpy


class HostProbe:
    """Time a fixed piece of work every PERIOD_S, from a SIGALRM handler.

    The shared host's speed swings by up to 2x within minutes.  The work
    runs on the same CPU as the stages, between their bytecodes, so its
    mean duration over an interval says how fast the host ran them then.
    It mixes what the stages spend their time on: interpreted Python,
    numpy calls on small arrays and system calls.  ``count`` and
    ``sum_s`` accumulate the probes run so far; timed intervals subtract
    ``sum_s`` from their wall time.
    """

    LOOPS = 20_000
    CALLS = 150
    PERIOD_S = 0.05

    def __init__(self):
        self.count = 0
        self.sum_s = 0.0
        self.row = numpy.linspace(0.0, 1.0, 20)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        total = 0
        for i in range(self.LOOPS):
            total += i % 7
        for _ in range(self.CALLS):
            self.row.argmax()
            self.row[3:9].sum()
            os.stat(".")
        self.sum_s += time.perf_counter() - start
        self.count += 1

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _run_stage(cli, argv) -> int:
    try:
        return cli.run(list(argv))
    except Exception:  # a crash is a failed operation, not a dead benchmark
        traceback.print_exc()
        return 70


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    # Traced runs report self times, which the probe's runs would inflate.
    probe = HostProbe()
    with contextlib.nullcontext() if spec["trace"] else probe:
        result = _run(spec, probe)
    result["probe"] = [probe.count, probe.sum_s]
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _run(spec: dict, probe: HostProbe) -> dict:
    from freshblend import cli, kernels

    tracer = None
    absent = []
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        absent, _ = spans.instrument(tracer)

    stages = []
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        for name, argv in spec["stages"]:
            before = (probe.count, probe.sum_s)
            stage_start = time.perf_counter()
            if tracer is None:
                code = _run_stage(cli, argv)
                record = {}
            else:
                self_before = tracer.self_ns_total()
                with tracer.span(f"cli.{name}") as duration:
                    code = _run_stage(cli, argv)
                record = {"span_ns": duration[0],
                          "self_sum_ns": tracer.self_ns_total() - self_before}
            record.update(name=name, exit=code, wall_s=time.perf_counter() - stage_start,
                          probe=[probe.count - before[0], probe.sum_s - before[1]])
            stages.append(record)
            if code != 0:
                break
        total_s = time.perf_counter() - start

    result = {
        "stages": stages,
        "total_s": total_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "facts": {
            "backend": kernels.backend_name(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
        },
    }
    if tracer is not None:
        result["trace"] = {"stats": tracer.stats, "blends": tracer.blends, "absent": absent}
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
