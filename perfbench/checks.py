"""Output checks for every stage a pass runs.

Two kinds of check, both on the files a stage wrote into its output
directory:

* digests: for the seed the digests were recorded on, every file must
  hash to its recorded sha256 (any change of bytes is a change of
  behaviour, not of speed);
* structure, for any seed: row counts, ranges and cross-file relations
  that any correct run must satisfy.

Each check returns a list of problems; an empty list means the output
passed.
"""

import csv
import hashlib
import io
import json
import math
import os

DIGEST_SEED = 42
AB_METRICS = ("abandonment_rate", "time_to_first_click", "ctr_position_1",
              "ctr_position_2", "first_click_position")
DEPTH = 10
GRID_POINTS = 20
BUCKET_ROWS = 40


def digest_dir(work: str, out: str) -> dict[str, str]:
    """sha256 of every file in ``work/out``, keyed by ``out/name``."""
    digests = {}
    directory = os.path.join(work, out)
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            digests[f"{out}/{name}"] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def compare_digests(actual: dict[str, str], expected: dict[str, str]) -> list[str]:
    problems = []
    for path in sorted(set(actual) | set(expected)):
        if path not in actual:
            problems.append(f"{path}: missing")
        elif path not in expected:
            problems.append(f"{path}: not expected")
        elif actual[path] != expected[path]:
            problems.append(f"{path}: sha256 {actual[path][:12]} != recorded {expected[path][:12]}")
    return problems


def _tsv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n").split("\t") for line in handle if line.strip()]


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as handle:
        text = "".join(line for line in handle if not line.startswith("#"))
    rows = list(csv.reader(io.StringIO(text)))
    return rows[1:]  # drop the header


def _probability(token: str) -> bool:
    try:
        value = float(token)
    except ValueError:
        return False
    return 0.0 <= value <= 1.0


def _query_ids(work: str) -> list[str]:
    return [row[0] for row in _tsv(os.path.join(work, "corpus", "queries.tsv"))]


def _rankings(work: str) -> dict[str, set[str]]:
    docs: dict[str, set[str]] = {}
    for row in _tsv(os.path.join(work, "corpus", "rankings.tsv")):
        docs.setdefault(row[0], set()).add(row[1])
    return docs


def check_generate(work: str) -> list[str]:
    queries = _query_ids(work)
    problems = []
    if len(queries) != len(set(queries)):
        problems.append("corpus/queries.tsv: duplicate query ids")
    rankings = _rankings(work)
    if set(rankings) != set(queries):
        problems.append("corpus/rankings.tsv: query ids differ from queries.tsv")
    judged = {row[0] for row in _tsv(os.path.join(work, "corpus", "judgments.tsv"))}
    if judged != set(queries):
        problems.append("corpus/judgments.tsv: query ids differ from queries.tsv")
    featured = {row[0] for row in _tsv(os.path.join(work, "corpus", "features.tsv"))[1:]}
    if featured != set(queries):
        problems.append("corpus/features.tsv: query ids differ from queries.tsv")
    return problems


def check_train(work: str) -> list[str]:
    with open(os.path.join(work, "model", "model.json"), encoding="utf-8") as handle:
        document = json.load(handle)
    if not document.get("trees") or len(document["trees"]) != document.get("n_trees"):
        return ["model/model.json: tree count does not match n_trees"]
    return []


def check_predict(work: str) -> list[str]:
    rows = _tsv(os.path.join(work, "pred", "predictions.tsv"))
    featured = [row[0] for row in _tsv(os.path.join(work, "corpus", "features.tsv"))[1:]]
    if [row[0] for row in rows] != featured:
        return ["pred/predictions.tsv: query ids differ from features.tsv"]
    if not all(len(row) == 2 and _probability(row[1]) for row in rows):
        return ["pred/predictions.tsv: a prediction is not a probability"]
    return []


def check_blend(work: str) -> list[str]:
    """``DEPTH`` rows per query, positions 1..DEPTH, distinct documents
    drawn from that query's ranking, finite gains."""
    rankings = _rankings(work)
    pages: dict[str, list[list[str]]] = {}
    for row in _tsv(os.path.join(work, "blended", "blended.tsv")):
        if len(row) != 4:
            return [f"blended/blended.tsv: row with {len(row)} fields"]
        pages.setdefault(row[0], []).append(row)
    if set(pages) != set(rankings):
        return ["blended/blended.tsv: query ids differ from rankings.tsv"]
    for qid, page in pages.items():
        docs = [row[2] for row in page]
        if [row[1] for row in page] != [str(p) for p in range(1, DEPTH + 1)]:
            return [f"blended/blended.tsv: query {qid} does not have positions 1..{DEPTH}"]
        if len(set(docs)) != DEPTH or not set(docs) <= rankings[qid]:
            return [f"blended/blended.tsv: query {qid} has documents outside its ranking"]
        if not all(math.isfinite(float(row[3])) for row in page):
            return [f"blended/blended.tsv: query {qid} has a non-finite gain"]
    return []


def _grades(work: str) -> set[str]:
    return {row[2] for row in _tsv(os.path.join(work, "corpus", "queries.tsv"))}


def check_sweep(work: str) -> list[str]:
    rows = _csv_rows(os.path.join(work, "sweep", "sweep.csv"))
    expected = GRID_POINTS * len(_grades(work))
    if len(rows) != expected:
        return [f"sweep/sweep.csv: {len(rows)} rows, expected {expected}"]
    if not all(len(row) == 3 and _probability(row[2]) for row in rows):
        return ["sweep/sweep.csv: a score is not in [0, 1]"]
    return []


def check_buckets(work: str) -> list[str]:
    rows = _csv_rows(os.path.join(work, "buckets", "buckets.csv"))
    if len(rows) != BUCKET_ROWS:
        return [f"buckets/buckets.csv: {len(rows)} rows, expected {BUCKET_ROWS}"]
    total = sum(int(row[4]) for row in rows) // 4
    if total != len(_query_ids(work)):
        return [f"buckets/buckets.csv: buckets hold {total} queries"]
    return []


def check_abtest(work: str) -> list[str]:
    with open(os.path.join(work, "ab", "abreport.json"), encoding="utf-8") as handle:
        metrics = json.load(handle).get("metrics", {})
    if sorted(metrics) != sorted(AB_METRICS):
        return [f"ab/abreport.json: metrics {sorted(metrics)}"]
    for name, values in metrics.items():
        p = values.get("p_value")
        if not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
            return [f"ab/abreport.json: {name} p-value {p!r} not in [0, 1]"]
    return []


STRUCTURE = {
    "generate": check_generate,
    "train": check_train,
    "predict": check_predict,
    "blend": check_blend,
    "sweep": check_sweep,
    "buckets": check_buckets,
    "abtest": check_abtest,
}


def check_stage(work: str, stage, expected: dict[str, str] | None) -> tuple[dict, list[str]]:
    """Digest the stage's output directory and check it.

    ``expected`` holds the recorded digests for this workload, or None
    when the seed has none.  Returns the digests and the problems found.
    """
    try:
        digests = digest_dir(work, stage.out)
    except OSError as exc:
        return {}, [f"{stage.out}: {exc}"]
    problems = []
    config = f"{stage.out}/effective_config.json"
    if config not in digests:
        problems.append(f"{config}: missing")
    if expected is not None:
        mine = {k: v for k, v in expected.items() if k.startswith(stage.out + "/")}
        problems += compare_digests(digests, mine)
    try:
        problems += STRUCTURE[stage.name](work)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        problems.append(f"{stage.out}: unreadable output ({exc!r})")
    return digests, problems
