"""Re-record tests/golden_digests.json from the current code.

Usage, from the root of a freshblend checkout:

    PYTHONPATH=src python tests/record_golden.py

Runs the pipeline of tests/test_golden.py in a temporary directory and
writes every output's sha256 with the Python and numpy versions.  A
change that re-records must list each changed file, and why, in
CHANGES.md.
"""

import json
import os
import tempfile

from test_golden import DIGESTS_PATH, pipeline_digests, toolchain


def main() -> None:
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            files = pipeline_digests()
        finally:
            os.chdir(here)
    document = {"toolchain": toolchain(), "files": files}
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(files)} digests in {DIGESTS_PATH}")


if __name__ == "__main__":
    main()
