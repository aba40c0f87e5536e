"""Record the sha256 digest of every output file for the digest seed.

Usage, from the root of a freshblend checkout:

    python3 perfbench/record_digests.py

Runs each workload's set-up and one pass on seed 42 and rewrites
digests.json.  Only a change that deliberately alters output bytes
should re-record them, and it should say so.
"""

import json
import os
import sys
import time

import checks
import run
import workloads


def main() -> int:
    root = os.getcwd()
    recorded = {}
    for name in workloads.NAMES:
        load = workloads.workload(name, checks.DIGEST_SEED)
        with run.work_dir(root, name) as work:
            bench = run.Bench(root, work, load, None, time.monotonic() + 600)
            _, setup, setup_digests = bench.run(load.setup)
            _, result, pass_digests = bench.run(load.passes)
        if setup is None or result is None:
            print("\n".join(bench.problems), file=sys.stderr)
            return 1
        recorded[name] = dict(sorted({**setup_digests, **pass_digests}.items()))
    document = {"seed": checks.DIGEST_SEED, "workloads": recorded}
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
