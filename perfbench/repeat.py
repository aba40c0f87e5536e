"""Run the benchmark once per seed and summarise every metric.

Usage, from the root of a freshblend checkout:

    python3 perfbench/repeat.py --workload quickstart --seeds 1-10 [--trace 1] [--out FILE]

For each workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  An end-to-end
metric whose spread reaches a third of its bound in BENCHMARK.json is
marked.  --out writes the summary as JSON, in the format of
baseline.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, q3 = statistics.quantiles(values, n=4)[::2] if len(values) > 1 else (median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"seeds": args.seeds, "workloads": {}}
    status = 0
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        units = {}
        for seed in args.seeds:
            command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]),
                                          "--trace", str(args.trace)]
            done = subprocess.run(command, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            for line in lines:
                if line.startswith("facts "):
                    summary["facts"] = json.loads(line[len("facts "):])
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is None or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: FAILED\n{done.stdout}{done.stderr}")
                status = 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        summary["workloads"][workload] = {}
        for name, series in values.items():
            stats = summarise(series)
            summary["workloads"][workload][name] = stats
            bound = bounds.get(name)
            mark = ""
            if bound is not None and stats["spread"] >= bound / 3:
                mark = f"  <-- spread reaches a third of bound {bound}"
            print(f"{workload} {name} median {stats['median']:.6g} {units[name]} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                  f"spread {stats['spread']:.4f} (n={len(series)}){mark}")
    if args.out:
        summary["facts"] = {k: v for k, v in summary.get("facts", {}).items()
                            if k not in ("workload", "seed", "trace")}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
