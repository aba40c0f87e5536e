"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  Expected values are either hand-computable
fixtures, independently recomputed oracles (brute evaluation, exhaustive
enumeration), or direction checks on seeded synthetic corpora.
"""

import json
import os
import time

import numpy as np
import pytest

from freshblend import experiments
from freshblend.cli import run
from freshblend.corpus import (
    GeneratorConfig,
    JUDGED_POOL_MIXTURE,
    generate_corpus,
    training_set,
)
from freshblend.experiments import (
    ab_test,
    blend_pages,
    blend_policy,
    bucket_comparison,
    initial_ranking_policy,
    mann_whitney_u,
    prepare_queries,
    sweep_estimate,
)
from freshblend.kernels import err_iaa_batch, greedy_blend
from freshblend.metric import BreakExponent, MetricConfig
from freshblend.recency_classifier import (
    GbrtHyperparams,
    cohen_kappa,
    predict_batch,
    train_gbrt,
    training_loss_curve,
)
from oracles import (
    Candidate,
    DocEntry,
    Ranking,
    advance,
    brute_err_iaa,
    brute_force_best,
    exact_two_sided_p,
    hand_built,
    initial_state,
    marginal_gain,
    page_arrays,
    tie_key,
)

_SUITE_START = time.monotonic()
_SUITE_BUDGET_S = 600.0

DAY = 86_400
CFG = MetricConfig()


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def experiment_corpus():
    config = GeneratorConfig(n_queries=4000, grade_mixture=dict(JUDGED_POOL_MIXTURE))
    return generate_corpus(config, seed=42)


def _cand(doc_id, r_any, r_fresh, rank=1):
    return Candidate(doc_id, r_any, r_fresh, ordinary_rank=rank)


def test_criterion_01_metric_oracle():
    t0 = time.perf_counter()
    fixtures = [
        ([_cand("a", 1.0, 0.0)], 0.0, 0.85),
        ([_cand("a", 0.5, 0.0), _cand("b", 0.5, 0.0, 2)], 0.0, 0.605625),
        ([_cand("A", 0.6, 0.6), _cand("B", 0.6, 0.0, 2)], 0.5, 0.5967),
    ]
    worst = 0.0
    for page, p_fresh, expected in fixtures:
        value = err_iaa_batch(*page_arrays(page), np.array([p_fresh]), np.array([1.0 - p_fresh]),
                              CFG.p_break, CFG.break_exponent.shift)[0]
        worst = max(worst, abs(value - expected), abs(value - brute_err_iaa(page, p_fresh, CFG)))
    elapsed = time.perf_counter() - t0
    _report(1, "metric oracle", worst <= 1e-12 and elapsed < 1.0,
            f"max deviation {worst:.2e}, {elapsed:.2f}s < 1s")


def test_criterion_02_greedy_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_ratio = 1.0
    steps_verified = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        pool = sorted((_cand(f"d{i}", float(rng.random()), float(rng.random()), i + 1)
                       for i in range(n)), key=tie_key)
        p = float(rng.random())
        config = MetricConfig(depth=int(rng.integers(1, 5)))
        order, gains = greedy_blend(*page_arrays(pool), np.array([n]), np.array([p]),
                                    np.array([1.0 - p]), config.p_break,
                                    config.break_exponent.shift, config.depth)

        remaining = set(range(n))
        state = initial_state()
        for column in order[0]:
            remaining.remove(column)
            picked_gain = marginal_gain(state, pool[column], p, config)
            for other in remaining:
                assert marginal_gain(state, pool[other], p, config) <= picked_gain
                steps_verified += 1
            state = advance(state, pool[column])

        _, best = brute_force_best(pool, p, config, max_positions=config.depth)
        if best > 0:
            worst_ratio = min(worst_ratio, float(gains.sum()) / best)
    elapsed = time.perf_counter() - t0
    _report(2, "greedy soundness", worst_ratio >= 0.95 and elapsed < 10.0,
            f"worst greedy/oracle ratio {worst_ratio:.4f}, "
            f"{steps_verified} step comparisons, {elapsed:.1f}s < 10s")


def _blend_one_query(ranking, now, p_fresh):
    """Blend a one-query table; returns the page's doc ids and each one's
    calibrated r_fresh, and the pool's r_fresh values."""
    prepared = prepare_queries(*hand_built({"q": ranking}, now), CFG, require_latents=False)
    orders, _ = blend_pages(prepared, p_fresh, CFG)
    page = orders[0][orders[0] >= 0]
    doc_ids = tuple(prepared.table.doc_ids[row] for row in prepared.candidates[0, page])
    pool_fresh = prepared.cal_fresh[0, : prepared.sizes[0]].tolist()
    return doc_ids, prepared.cal_fresh[0, page].tolist(), pool_fresh


def test_criterion_03_degenerate_blending():
    now = 100 * DAY
    stale_ts, fresh_ts = now - 30 * DAY, now - DAY

    ordinary = Ranking(tuple(
        DocEntry(f"d{i:02d}", i + 1, stale_ts) for i in range(12)
    ))
    doc_ids, _, _ = _blend_one_query(ordinary, now, 0.0)
    ordinary_ok = doc_ids == tuple(e.doc_id for e in ordinary.entries[:10])

    mixed = Ranking(tuple(
        DocEntry(f"m{i:02d}", i + 1, fresh_ts if i % 3 == 1 else stale_ts)
        for i in range(12)
    ))
    _, fresh_values, pool_fresh = _blend_one_query(mixed, now, 1.0)
    n_fresh = sum(1 for v in fresh_values if v > 0)
    partition_ok = (
        all(v > 0 for v in fresh_values[:n_fresh])
        and all(v == 0 for v in fresh_values[n_fresh:])
        and fresh_values[:n_fresh] == sorted(fresh_values[:n_fresh], reverse=True)
        and n_fresh == min(10, sum(1 for v in pool_fresh if v > 0))
    )
    _report(3, "degenerate blending", ordinary_ok and partition_ok,
            f"p=0 exact ordinary order: {ordinary_ok}; "
            f"p=1 fresh-first descending: {partition_ok}")


def test_criterion_04_estimate_sweep(experiment_corpus):
    t0 = time.perf_counter()
    curves = {c.true_grade: c for c in sweep_estimate(experiment_corpus)}
    peak_offsets = {g: abs(curves[g].best_p_hat() - g) for g in (0.25, 0.75, 0.95)}
    high = curves[0.95]
    rise = high.value_at(0.95) - high.value_at(0.0)
    elapsed = time.perf_counter() - t0
    ok = all(offset <= 0.10 + 1e-9 for offset in peak_offsets.values()) and rise >= 0.1
    _report(4, "estimate sweep shape", ok and elapsed < 120.0,
            f"peak offsets {peak_offsets}, 0.95-curve rise {rise:.3f} >= 0.1, "
            f"{elapsed:.1f}s < 120s")


def test_criterion_05_bucket_comparison(experiment_corpus):
    t0 = time.perf_counter()
    report = bucket_comparison(experiment_corpus, seed=7)
    populated = [row for row in report.rows if row.n > 0]
    mid = [row for row in populated if row.lo >= 0.3 - 1e-9 and row.hi <= 0.8 + 1e-9]
    ideal_mean = float(np.mean([row.means["ideal_diversified"] for row in mid]))
    initial_mean = float(np.mean([row.means["initial_only"] for row in mid]))
    bound_ok = all(
        row.means["ideal_diversified"] >= row.means["learned_diversified"] - 0.01
        for row in populated
    )
    halves = len(experiment_corpus.queries) // 2
    elapsed = time.perf_counter() - t0
    ok = bool(mid) and ideal_mean > initial_mean and bound_ok and halves == 2000
    _report(5, "bucket comparison", ok and elapsed < 180.0,
            f"mid-need ideal {ideal_mean:.4f} > initial {initial_mean:.4f}, "
            f"ideal >= learned - 0.01 in all {len(populated)} buckets: {bound_ok}, "
            f"{elapsed:.1f}s < 180s")


def test_criterion_06_classifier_quality(experiment_corpus):
    t0 = time.perf_counter()
    corpus = experiment_corpus
    qids = corpus.queries.query_ids
    x, y_consensus = training_set(corpus.features, corpus.judgments, qids)
    y_true = corpus.queries.true_grade

    rng = np.random.default_rng(3)
    perm = rng.permutation(len(qids))
    half = len(qids) // 2
    folds = (perm[:half], perm[half:])
    p_hat = np.empty(len(qids))
    model = None
    for k, test_idx in enumerate(folds):
        train_idx = folds[1 - k]
        model = train_gbrt(x[train_idx], y_consensus[train_idx],
                           feature_names=corpus.features.names)
        p_hat[test_idx] = predict_batch(model, x[test_idx])
    rmse = float(np.sqrt(np.mean((p_hat - y_true) ** 2)))
    in_range = bool(np.all((p_hat >= 0.0) & (p_hat <= 1.0)))
    losses = training_loss_curve(model, x[folds[0]], y_consensus[folds[0]])
    monotone = bool(np.all(np.diff(losses) <= 1e-12))
    elapsed = time.perf_counter() - t0
    _report(6, "classifier quality",
            rmse <= 0.15 and in_range and monotone and elapsed < 60.0,
            f"CV RMSE {rmse:.4f} <= 0.15, predictions in [0,1]: {in_range}, "
            f"loss non-increasing: {monotone}, {elapsed:.1f}s < 60s")


def test_criterion_07_click_model_consistency():
    rng = np.random.default_rng(5)
    worst_z = 0.0
    n = 100_000
    for trial in range(10):
        n_docs = int(rng.integers(1, 11))
        page = [_cand(f"d{i}", float(rng.random()), float(rng.random()), i + 1)
                for i in range(n_docs)]
        p = np.array([float(rng.random())])
        config = MetricConfig(
            break_exponent=BreakExponent.POSITION if trial % 2 == 0
            else BreakExponent.POSITION_MINUS_ONE
        )
        r_fresh, r_any = page_arrays(page)
        analytic = err_iaa_batch(r_fresh, r_any, p, 1.0 - p, config.p_break,
                                 config.break_exponent.shift)[0]
        # the page as a one-query A/B bucket: every impression lands on it
        counts, _ = experiments._simulate_bucket(trial, np.stack([r_fresh, r_any]), p,
                                                 np.array([1.0]), n, config, config.depth + 1)
        frequency = 1.0 - counts[0] / n
        se = float(np.sqrt(analytic * (1.0 - analytic) / n))
        worst_z = max(worst_z, abs(frequency - analytic) / se)
    _report(7, "click-model consistency", worst_z <= 3.0,
            f"max |z| over 10 pages x {n} trials: {worst_z:.2f} <= 3")


def test_criterion_08_ab_direction(experiment_corpus):
    t0 = time.perf_counter()
    corpus = experiment_corpus
    qids = corpus.queries.query_ids
    x, y = training_set(corpus.features, corpus.judgments, qids)
    model = train_gbrt(x, y, GbrtHyperparams(), seed=1, feature_names=corpus.features.names)
    p_by_query = dict(zip(qids, predict_batch(model, x).tolist()))
    report = ab_test(corpus, initial_ranking_policy(), blend_policy(p_by_query),
                     n_queries=100_000, seed=11)
    m = report.metrics
    abandonment_down = m["abandonment_rate"].treatment < m["abandonment_rate"].control
    position_down = m["first_click_position"].treatment < m["first_click_position"].control
    ctr1_up = m["ctr_position_1"].treatment > m["ctr_position_1"].control
    significant = m["abandonment_rate"].p_value < 0.01
    elapsed = time.perf_counter() - t0
    ok = abandonment_down and position_down and ctr1_up and significant
    _report(8, "A/B direction", ok and elapsed < 120.0,
            f"abandonment {m['abandonment_rate'].control:.2f}->{m['abandonment_rate'].treatment:.2f} "
            f"(p={m['abandonment_rate'].p_value:.2e}), "
            f"first click {m['first_click_position'].control:.3f}->{m['first_click_position'].treatment:.3f}, "
            f"ctr@1 {m['ctr_position_1'].control:.2f}->{m['ctr_position_1'].treatment:.2f}, "
            f"{elapsed:.1f}s < 120s")


def test_criterion_09_statistics_oracles():
    kappa = cohen_kappa((0, 0, 1, 1), (0, 1, 1, 1))
    kappa_ok = kappa == 0.5

    a, b = (1.0, 2.0, 3.0), (4.0, 5.0, 6.0)
    u, _ = mann_whitney_u(a, b)
    exact_p = exact_two_sided_p(a, b)
    mw_ok = u == 0.0 and abs(exact_p - 0.1) <= 1e-12
    _report(9, "statistics oracles", kappa_ok and mw_ok,
            f"kappa = {kappa} (exactly 0.5), U_a = {u}, exact p = {exact_p}")


def _tree_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def test_criterion_10_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    base = str(tmp_path)

    log = os.path.join(base, "log.tsv")
    with open(log, "w", encoding="utf-8") as handle:
        handle.write("q1\t1\t73\nq1\t2\t20\nq1\t3\t4\nq1\t4\t3\n")

    outputs: dict[str, dict[str, dict[str, bytes]]] = {}

    def both(name: str, argv: list[str]) -> str:
        """Run one step twice with identical argv apart from --out."""
        outputs[name] = {}
        for tag in ("one", "two"):
            out = os.path.join(base, f"{tag}-{name}")
            assert run(argv + ["--out", out]) == 0
            outputs[name][tag] = _tree_bytes(out)
        return os.path.join(base, f"one-{name}")

    corpus = both("generate", ["generate", "--n-queries", "300",
                               "--mixture", "judged", "--seed", "5"])
    model_dir = both("train", [
        "train", "--features", os.path.join(corpus, "features.tsv"),
        "--judgments", os.path.join(corpus, "judgments.tsv"),
        "--trees", "30", "--seed", "5",
    ])
    pred_dir = both("predict", [
        "predict", "--model", os.path.join(model_dir, "model.json"),
        "--features", os.path.join(corpus, "features.tsv"),
    ])
    both("blend", [
        "blend", "--rankings", os.path.join(corpus, "rankings.tsv"),
        "--queries", os.path.join(corpus, "queries.tsv"),
        "--predictions", os.path.join(pred_dir, "predictions.tsv"),
    ])
    both("sweep", ["sweep", "--corpus", corpus, "--seed", "5"])
    both("buckets", ["buckets", "--corpus", corpus, "--trees", "30", "--seed", "5"])
    both("abtest", ["abtest", "--corpus", corpus, "--n-queries", "4000",
                    "--trees", "30", "--seed", "5"])
    both("profile", ["profile", "--query-log", log])

    identical = True
    compared = 0
    for name, by_tag in outputs.items():
        assert set(by_tag["one"]) == set(by_tag["two"])
        for relpath in by_tag["one"]:
            compared += 1
            if by_tag["one"][relpath] != by_tag["two"][relpath]:
                identical = False
    elapsed = time.perf_counter() - t0
    suite_elapsed = time.monotonic() - _SUITE_START
    _report(10, "determinism", identical and suite_elapsed < _SUITE_BUDGET_S,
            f"{compared} files bit-identical across reruns, pipeline {elapsed:.1f}s, "
            f"suite total {suite_elapsed:.1f}s < 600s")
