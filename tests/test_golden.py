"""Golden digests: the byte-identity contract as a test.

Runs the acceptance suite's criterion-10 pipeline once (generate, train,
predict, blend, sweep, buckets, abtest, profile, plus `eval` stdout), with
one more train of deep trees on row subsamples, in a scratch directory
with relative paths, and compares the sha256 of every output with
tests/golden_digests.json.  Two hand-written rankings files, with lines
out of rank order, blank lines, CRLF endings and rows without latents,
go through `blend` and `eval` too, so the row-by-row read of such blocks
is pinned as well as the typed read of the generated corpus.  A change
that moves any output byte fails here, with every differing file named.

Re-record only with `python tests/record_golden.py`, and say in the
change log which files changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import platform

import numpy as np

from freshblend.cli import run

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")

QUERY_LOG = "q1\t1\t73\nq1\t2\t20\nq1\t3\t4\nq1\t4\t3\n"

# Queries interleaved and out of rank order, blank lines, mixed '\n' and
# '\r\n' endings, 4-, 5- and 6-field rows and '-' latents.  At query time
# 1,000,000 and the default 3-day window, a timestamp from 740,800 on is
# fresh.
IRREGULAR_RANKINGS = (
    "qb\tb2\t2\t999000\t0.4\t0.3\r\n"
    "qa\ta3\t3\t990000\r\n"
    "qa\ta1\t1\t500000\t0.7\t-\n"
    "\r\n"
    "qb\tb1\t1\t100000\t0.6\n"
    "qa\ta2\t2\t995000\t0.5\t0.4\r\n"
    "qc\tc1\t1\t999999\n"
    "qb\tb4\t4\t200000\n"
    "\n"
    "qb\tb3\t3\t998000\t-\t0.8\n"
    "qa\ta5\t5\t300000\t0.1\t-\r\n"
    "qa\ta4\t4\t999500\t0.2\t0.6\r\n"
)
# The same layout with a latent_rel_any on every row, which `eval` needs.
SCORED_RANKINGS = (
    "qb\tb2\t2\t999000\t0.4\t0.3\r\n"
    "qa\ta3\t3\t990000\t0.45\r\n"
    "qa\ta1\t1\t500000\t0.7\t-\n"
    "\r\n"
    "qb\tb1\t1\t100000\t0.6\n"
    "qa\ta2\t2\t995000\t0.5\t0.4\r\n"
    "qc\tc1\t1\t999999\t0.9\t0.95\n"
    "\n"
    "qb\tb3\t3\t998000\t0.05\t0.8\n"
    "qa\ta4\t4\t999500\t0.2\t0.6\r\n"
)
INPUTS = {"log.tsv": QUERY_LOG, "irregular.tsv": IRREGULAR_RANKINGS,
          "scored.tsv": SCORED_RANKINGS}

# (output directory, argv); every path is relative to the working directory.
PIPELINE = (
    ("corpus", ["generate", "--n-queries", "300", "--mixture", "judged", "--seed", "5"]),
    ("model", ["train", "--features", "corpus/features.tsv",
               "--judgments", "corpus/judgments.tsv", "--trees", "30", "--seed", "5"]),
    # deeper trees on row subsamples: the fit paths the default train leaves out
    ("model_sub", ["train", "--features", "corpus/features.tsv",
                   "--judgments", "corpus/judgments.tsv", "--trees", "20", "--tree-depth", "6",
                   "--subsample", "0.7", "--seed", "9"]),
    ("pred", ["predict", "--model", "model/model.json", "--features", "corpus/features.tsv"]),
    ("blended", ["blend", "--rankings", "corpus/rankings.tsv", "--queries", "corpus/queries.tsv",
                 "--predictions", "pred/predictions.tsv"]),
    ("sweep", ["sweep", "--corpus", "corpus", "--seed", "5"]),
    ("buckets", ["buckets", "--corpus", "corpus", "--trees", "30", "--seed", "5"]),
    ("ab", ["abtest", "--corpus", "corpus", "--n-queries", "4000", "--trees", "30",
            "--seed", "5"]),
    ("profile", ["profile", "--query-log", "log.tsv"]),
    ("irregular", ["blend", "--rankings", "irregular.tsv", "--query-time", "1000000",
                   "--p-fresh", "0.6", "--depth", "3"]),
)
# (stdout key, argv) of the runs whose output is their stdout
EVALS = (
    ("eval.stdout", ["eval", "--rankings", "corpus/rankings.tsv", "--p-fresh", "0.3"]),
    ("irregular_eval.stdout", ["eval", "--rankings", "scored.tsv", "--p-fresh", "0.6",
                               "--depth", "3"]),
)


def toolchain() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline_digests() -> dict[str, str]:
    """Run the pipeline in the current directory; sha256 of every output
    file by relative path, and of each eval's stdout under its key."""
    for name, text in INPUTS.items():
        with open(name, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    digests = {}
    for out, argv in PIPELINE:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(argv + ["--out", out])
        assert code == 0, f"{argv[0]} exited {code}"
        for dirpath, _, filenames in os.walk(out):
            for name in filenames:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as handle:
                    digests[path.replace(os.sep, "/")] = _sha256(handle.read())
    for key, argv in EVALS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert run(argv) == 0, f"{argv} failed"
        digests[key] = _sha256(stdout.getvalue().encode("utf-8"))
    return dict(sorted(digests.items()))


def test_outputs_match_the_golden_digests(tmp_path, monkeypatch):
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    monkeypatch.chdir(tmp_path)
    actual = pipeline_digests()
    expected = golden["files"]
    problems = [f"{name}: missing" for name in expected if name not in actual]
    problems += [f"{name}: not in the golden digests" for name in actual if name not in expected]
    problems += [f"{name}: sha256 differs" for name in expected
                 if name in actual and actual[name] != expected[name]]
    assert not problems, (
        f"{len(problems)} outputs differ from the golden digests "
        f"(recorded with {golden['toolchain']}, running {toolchain()}):\n" + "\n".join(problems)
    )
