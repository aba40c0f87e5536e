"""Golden digests: the byte-identity contract as a test.

Runs the acceptance suite's criterion-10 pipeline once (generate, train,
predict, blend, sweep, buckets, abtest, profile, plus `eval` stdout), with
one more train of deep trees on row subsamples, in a scratch directory with relative paths, and compares the sha256 of every
output with tests/golden_digests.json.  A change that moves any output
byte fails here, with every differing file named.

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
)
EVAL_ARGV = ["eval", "--rankings", "corpus/rankings.tsv", "--p-fresh", "0.3"]
EVAL_KEY = "eval.stdout"


def toolchain() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline_digests() -> dict[str, str]:
    """Run the pipeline in the current directory; sha256 of every output
    file by relative path, and of eval's stdout under EVAL_KEY."""
    with open("log.tsv", "w", encoding="utf-8") as handle:
        handle.write(QUERY_LOG)
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
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run(EVAL_ARGV) == 0
    digests[EVAL_KEY] = _sha256(stdout.getvalue().encode("utf-8"))
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
