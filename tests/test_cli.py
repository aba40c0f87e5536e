"""CLI contracts: exit codes, file outputs, config precedence."""

import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import freshblend
from freshblend.cli import run
from freshblend.corpus import (
    FEATURE_NAMES,
    JUDGED_POOL_MIXTURE,
    GeneratorConfig,
    generate_corpus,
    load_features,
    write_corpus,
)
from freshblend.fileio import fmt
from freshblend.kernels import err_iaa_batch
from freshblend.metric import BreakExponent, MetricConfig
from freshblend.recency_classifier import load_model, predict_batch
from oracles import Candidate, load_rankings, page_arrays

TWO_DOC_RANKINGS = "q1\td1\t1\t1000\t0.5\t-\nq1\td2\t2\t1000\t0.5\t-\n"
SHARED_KEYS = ("p_break", "break_exponent", "depth", "window_days", "priors", "grid", "seed")
GBRT_KEYS = {"trees", "tree_depth", "learning_rate", "subsample"}


@pytest.fixture
def corpus_dir(tmp_path):
    config = GeneratorConfig(n_queries=60, ranking_depth=12,
                             grade_mixture=dict(JUDGED_POOL_MIXTURE))
    corpus = generate_corpus(config, seed=31)
    path = tmp_path / "corpus"
    write_corpus(corpus, str(path))
    return str(path)


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert run(["eval", "--rankings", "x", "--no-such-flag"]) == 2

    def test_missing_input_exits_one_and_names_the_path(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.tsv")
        assert run(["eval", "--rankings", missing]) == 1
        assert missing in capsys.readouterr().err


class TestEval:
    def test_two_doc_fixture_value(self, tmp_path, capsys):
        path = tmp_path / "r.tsv"
        path.write_text(TWO_DOC_RANKINGS, encoding="utf-8")
        code = run(["eval", "--rankings", str(path), "--p-fresh", "0.0",
                    "--pbreak", "0.85"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.605625" in out
        assert out.startswith("q1\t")

    @pytest.mark.parametrize("depth, exponent", [("5", "r"), ("40", "r-1")])
    def test_batch_scores_equal_the_scalar_metric(self, corpus_dir, capsys, depth, exponent):
        rankings = load_rankings(os.path.join(corpus_dir, "rankings.tsv"))
        config = MetricConfig(break_exponent=BreakExponent(exponent), depth=int(depth))
        expected = []
        for qid, ranking in rankings.items():
            page = [Candidate(e.doc_id, e.latent_rel_any, e.latent_rel_fresh or 0.0)
                    for e in ranking.entries[: config.depth]]
            score = err_iaa_batch(*page_arrays(page), np.array([0.37]), np.array([1.0 - 0.37]),
                                  config.p_break, config.break_exponent.shift)[0]
            expected.append(f"{qid}\t{fmt(score)}\n")
        assert run(["eval", "--rankings", os.path.join(corpus_dir, "rankings.tsv"),
                    "--p-fresh", "0.37", "--depth", depth, "--break-exponent", exponent]) == 0
        assert capsys.readouterr().out == "".join(expected)

    @pytest.mark.parametrize("p_fresh, code", [
        ("nan", 1), ("inf", 1), ("1.5", 1), ("-0.1", 1), ("-0.0", 0), ("1.0", 0),
    ])
    def test_p_fresh_must_be_a_probability(self, tmp_path, capsys, p_fresh, code):
        path = tmp_path / "r.tsv"
        path.write_text(TWO_DOC_RANKINGS, encoding="utf-8")
        assert run(["eval", "--rankings", str(path), "--p-fresh", p_fresh]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("freshblend: error: intent probabilities out of [0,1]")
            assert err.count("\n") == 1
        else:
            assert err == ""

    def test_latents_are_required(self, tmp_path, capsys):
        path = tmp_path / "r.tsv"
        path.write_text("q1\td1\t1\t1000\n", encoding="utf-8")
        assert run(["eval", "--rankings", str(path)]) == 1
        assert "latent" in capsys.readouterr().err


class TestBlend:
    def test_blended_page_is_written_with_gains(self, tmp_path, capsys):
        rankings = tmp_path / "r.tsv"
        rankings.write_text(
            "q1\tstale\t1\t0\t-\t-\nq1\tfresh\t2\t999000\t-\t-\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        code = run(["blend", "--rankings", str(rankings), "--query-time", "999999",
                    "--p-fresh", "0.9", "--out", str(out)])
        assert code == 0
        lines = (out / "blended.tsv").read_text().splitlines()
        assert len(lines) == 2
        first = lines[0].split("\t")
        assert first[0] == "q1" and first[1] == "1" and first[2] == "fresh"
        assert (out / "effective_config.json").exists()

    def test_needs_an_estimate_source(self, tmp_path, capsys):
        rankings = tmp_path / "r.tsv"
        rankings.write_text("q1\td1\t1\t0\n", encoding="utf-8")
        code = run(["blend", "--rankings", str(rankings), "--query-time", "10",
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert "--p-fresh or --predictions" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--query-time", "10", "--p-fresh", "1.0", "--predictions", "p.tsv"],
        ["--query-time", "10", "--queries", "q.tsv", "--p-fresh", "0.5"],
    ], ids=["estimate", "issue_time"])
    def test_two_sources_of_one_input_are_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                        flags):
        # each pair was once accepted, the second flag of it silently ignored
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.tsv").write_text(TWO_DOC_RANKINGS, encoding="utf-8")
        (tmp_path / "p.tsv").write_text("q1\t0.5\n", encoding="utf-8")
        (tmp_path / "q.tsv").write_text("q1\t10\t-\t-\n", encoding="utf-8")
        assert run(["blend", "--rankings", "r.tsv", "--out", "o", *flags]) == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_query_time_beyond_64_bits_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.tsv").write_text(TWO_DOC_RANKINGS, encoding="utf-8")
        assert run(["blend", "--rankings", "r.tsv", "--query-time", str(2**63),
                    "--p-fresh", "0.5", "--out", "o"]) == 1
        assert capsys.readouterr().err == (
            f"freshblend: error: issue_time does not fit in 64 bits: {2**63}\n")

    @pytest.mark.parametrize("estimate, predictions, message", [
        (["--p-fresh", "1.5"], "", "intent probabilities out of [0,1]"),
        (["--predictions", "p.tsv"], "q1\t-0.25\n", "intent probabilities out of [0,1]"),
        (["--predictions", "p.tsv"], "q1\t0.5\nq1\t0.25\n", "p.tsv:2: duplicate query_id 'q1'"),
    ])
    def test_bad_estimate_exits_one(self, tmp_path, capsys, monkeypatch, estimate,
                                    predictions, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.tsv").write_text(TWO_DOC_RANKINGS, encoding="utf-8")
        (tmp_path / "p.tsv").write_text(predictions, encoding="utf-8")
        code = run(["blend", "--rankings", "r.tsv", "--query-time", "10",
                    "--out", "o", *estimate])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_depth_beyond_the_pools_is_sized_by_the_data(self, tmp_path, capsys, monkeypatch):
        # pages were once allocated queries x depth: 72.8 TiB here
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.tsv").write_text(TWO_DOC_RANKINGS, encoding="utf-8")
        pages = {}
        for depth in ("10000000000000", "2"):
            code = run(["blend", "--rankings", "r.tsv", "--query-time", "2000",
                        "--p-fresh", "0.5", "--depth", depth, "--out", depth])
            assert code == 0, capsys.readouterr().err
            pages[depth] = (tmp_path / depth / "blended.tsv").read_bytes()
        assert pages["10000000000000"] == pages["2"]
        assert len(pages["2"].splitlines()) == 2


_ADDRESS_SPACE = 1536 * 2**20


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


def _run_capped(cwd, argv):
    """Run the CLI in a subprocess limited to 1.5 GB of address space."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(freshblend.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "freshblend.cli", *argv],
        cwd=cwd, env={**os.environ, "PYTHONPATH": src},
        preexec_fn=_cap_address_space, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture
def c50(tmp_path):
    """A directory holding a 50-query corpus as c50/."""
    corpus = generate_corpus(GeneratorConfig(n_queries=50, ranking_depth=12,
                                             grade_mixture=dict(JUDGED_POOL_MIXTURE)), seed=7)
    write_corpus(corpus, str(tmp_path / "c50"))
    return tmp_path


class TestOutOfMemory:
    def test_memory_error_exits_one_with_one_line(self, c50):
        # u_cont alone would take 800 GB per drawn row at this depth
        result = _run_capped(c50, ["abtest", "--corpus", "c50", "--depth", "100000000000",
                                   "--n-queries", "1000", "--out", "ab"])
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert result.stderr.splitlines() == ["freshblend: error: abtest: out of memory"]


class TestOversizedFlags:
    @pytest.mark.parametrize("argv, message", [
        (["abtest", "--corpus", "c50", "--n-queries", "200000000", "--out", "ab"],
         "n_queries must be in [2, 47453132], got 200000000"),
        (["generate", "--ranking-depth", "1000000000000", "--out", "g"],
         "n_queries x ranking_depth exceeds 100000000 documents"),
    ])
    def test_oversized_flag_exits_one_with_one_line(self, c50, argv, message):
        result = _run_capped(c50, argv)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert result.stderr.splitlines() == [f"freshblend: error: {message}"]

    @pytest.mark.parametrize("n_queries", ["1", "-3", "47453133"])
    def test_abtest_bucket_size_refused_before_any_input_is_read(self, tmp_path, capsys,
                                                                 n_queries):
        missing = str(tmp_path / "no_such_corpus")
        assert run(["abtest", "--corpus", missing, "--n-queries", n_queries,
                    "--out", str(tmp_path / "ab")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"freshblend: error: n_queries must be in [2, 47453132], got {n_queries}"]
        assert not (tmp_path / "ab").exists()

    def test_sweep_depth_beyond_the_pools_is_sized_by_the_data(self, c50):
        # a (50, 1e11) int64 page array once took 36.4 TiB
        sweeps = {}
        for depth in ("100000000000", "12"):
            result = _run_capped(c50, ["sweep", "--corpus", "c50", "--depth", depth,
                                       "--out", depth])
            assert result.returncode == 0
            assert result.stderr == ""
            sweeps[depth] = (c50 / depth / "sweep.csv").read_bytes()
        assert sweeps["100000000000"] == sweeps["12"]

    @pytest.mark.parametrize("command, limit", [("abtest", "47,453,132"),
                                                ("generate", "100,000,000")])
    def test_help_states_the_limit(self, capsys, command, limit):
        assert run([command, "--help"]) == 0
        assert limit in " ".join(capsys.readouterr().out.split())


class TestConfigPrecedence:
    def test_config_file_overrides_defaults_and_flags_override_config(
        self, tmp_path, capsys, monkeypatch
    ):
        rankings = tmp_path / "r.tsv"
        rankings.write_text(TWO_DOC_RANKINGS, encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"p_break": 0.5}), encoding="utf-8")

        run(["eval", "--rankings", str(rankings), "--config", str(config)])
        from_config = capsys.readouterr().out
        assert from_config.strip().split("\t")[1] == "0.3125"  # 0.5*0.5 + 0.25*0.25

        run(["eval", "--rankings", str(rankings), "--config", str(config),
             "--pbreak", "0.85"])
        assert "0.605625" in capsys.readouterr().out

        monkeypatch.setenv("FRESHBLEND_CONFIG", str(config))
        run(["eval", "--rankings", str(rankings)])
        assert capsys.readouterr().out == from_config

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        rankings = tmp_path / "r.tsv"
        rankings.write_text(TWO_DOC_RANKINGS, encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text('{"pbreak": 0.5}', encoding="utf-8")
        assert run(["eval", "--rankings", str(rankings), "--config", str(config)]) == 1

    @pytest.mark.parametrize("document", ["[{}]", "5"])
    def test_config_top_level_must_be_an_object(self, tmp_path, capsys, document):
        rankings = tmp_path / "r.tsv"
        rankings.write_text(TWO_DOC_RANKINGS, encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(document, encoding="utf-8")
        assert run(["eval", "--rankings", str(rankings), "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert str(config) in err and "JSON object" in err

    def test_bad_seed_is_a_usage_error(self, capsys):
        assert run(["generate", "--out", "x", "--seed", "-3"]) == 2

    @pytest.mark.parametrize("config, flags, code, message", [
        (b'{"depth": 2.7}', [], 1, "'depth'"),
        (b'{"seed": true}', [], 1, "'seed'"),
        (b'{"window_days": "3"}', [], 1, "'window_days'"),
        (b'{"depth": "10"}', [], 1, "'depth'"),
        (b'{"grid": "05"}', [], 1, "'grid'"),
        (b'{"seed": -1.5}', [], 1, "'seed'"),
        (b'{"depth": 1e999}', [], 1, "'depth'"),
        (b'{"seed": 1e999}', [], 1, "'seed'"),
        (b'{"window_days": NaN}', [], 1, "'window_days'"),
        (b'{"window_days": 1e305}', [], 1, "window_days"),
        (b'{"p_break": 1e400}', [], 1, "'p_break'"),
        (b'{"priors": [0.5, Infinity]}', [], 1, "'priors'"),
        (b'\xff', [], 1, "not valid JSON"),
        (None, ["--window-days", "nan"], 2, "--window-days"),
        (None, ["--window-days", "inf"], 2, "--window-days"),
        (None, ["--depth", "2.7"], 2, "--depth"),
        (None, ["--priors", "0.5,nan"], 2, "--priors"),
        (None, ["--priors", "0.5,,0.4"], 2, "--priors"),
        (None, ["--priors", "0.5,0.4,"], 2, "--priors"),
        (None, ["--break-exponent", "r-2"], 2, "--break-exponent"),
    ])
    def test_wrongly_typed_values_are_refused(self, tmp_path, capsys, config, flags, code,
                                              message):
        rankings = tmp_path / "r.tsv"
        rankings.write_text(TWO_DOC_RANKINGS, encoding="utf-8")
        argv = ["blend", "--rankings", str(rankings), "--query-time", "2000",
                "--p-fresh", "0.5", "--out", str(tmp_path / "out"), *flags]
        if config is not None:
            (tmp_path / "config.json").write_bytes(config)
            argv += ["--config", str(tmp_path / "config.json")]
        assert run(argv) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        if code == 1:
            assert err.startswith("freshblend: error: ") and err.count("\n") == 1
            assert not (tmp_path / "out" / "blended.tsv").exists()

    @pytest.mark.parametrize("config, flags", [(None, ["--grid", ""]), (b'{"grid": []}', [])],
                             ids=["empty-flag", "empty-config-list"])
    def test_an_empty_sweep_grid_exits_one(self, tmp_path, corpus_dir, capsys, config, flags):
        argv = ["sweep", "--corpus", corpus_dir, "--out", str(tmp_path / "out"), *flags]
        if config is not None:
            (tmp_path / "config.json").write_bytes(config)
            argv += ["--config", str(tmp_path / "config.json")]
        assert run(argv) == 1
        assert capsys.readouterr().err == "freshblend: error: the sweep grid is empty\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, flags", [(None, ["--grid", "0.5,0.5,0.25"]),
                                               (b'{"grid": [0.25, 0.5, 0.25]}', [])],
                             ids=["repeat-flag", "repeat-config-list"])
    def test_a_repeated_sweep_grid_value_exits_one(self, tmp_path, corpus_dir, capsys, config,
                                                   flags):
        argv = ["sweep", "--corpus", corpus_dir, "--out", str(tmp_path / "out"), *flags]
        if config is not None:
            (tmp_path / "config.json").write_bytes(config)
            argv += ["--config", str(tmp_path / "config.json")]
        assert run(argv) == 1
        repeated = "0.5" if config is None else "0.25"
        assert capsys.readouterr().err == (
            f"freshblend: error: the sweep grid repeats {repeated}\n")
        assert not (tmp_path / "out").exists()

    @given(key=st.sampled_from(SHARED_KEYS), value=st.floats() | st.integers() | st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda children: st.lists(children) | st.dictionaries(st.text(), children),
        max_leaves=6,
    ))
    @example(key="depth", value=math.inf)
    @example(key="seed", value=-math.inf)
    @settings(max_examples=150, deadline=None)
    def test_any_json_value_exits_zero_or_one(self, key, value):
        with tempfile.TemporaryDirectory() as tmp:
            rankings = os.path.join(tmp, "r.tsv")
            config = os.path.join(tmp, "config.json")
            with open(rankings, "w", encoding="utf-8") as handle:
                handle.write(TWO_DOC_RANKINGS)
            with open(config, "w", encoding="utf-8") as handle:
                json.dump({key: value}, handle)
            assert run(["eval", "--rankings", rankings, "--config", config]) in (0, 1)


class TestGenerate:
    @pytest.mark.parametrize("flags, message", [
        (["--feature-noise", "-1"], "feature_noise"),
        (["--feature-noise", "nan"], "feature_noise"),
        (["--fresh-slope", "nan"], "fresh_slope"),
    ])
    def test_bad_generator_knob_exits_one(self, tmp_path, capsys, flags, message):
        out = tmp_path / "corpus"
        assert run(["generate", "--out", str(out), "--n-queries", "20", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("freshblend: error: ") and err.count("\n") == 1
        assert message in err
        assert not (out / "rankings.tsv").exists()


class TestPredictFeatureHeader:
    """predict reads feature columns by position, so it refuses a header
    that does not name the model's features in the model's order."""

    @pytest.fixture
    def model_path(self, tmp_path, corpus_dir):
        assert run(["train", "--features", os.path.join(corpus_dir, "features.tsv"),
                    "--judgments", os.path.join(corpus_dir, "judgments.tsv"),
                    "--trees", "3", "--out", str(tmp_path / "model")]) == 0
        return str(tmp_path / "model" / "model.json")

    def _predict(self, tmp_path, model_path, features: str):
        path = tmp_path / "features.tsv"
        path.write_text(features, encoding="utf-8")
        code = run(["predict", "--model", model_path, "--features", str(path),
                    "--out", str(tmp_path / "pred")])
        return code, path, tmp_path / "pred" / "predictions.tsv"

    def test_swapped_columns_are_refused(self, tmp_path, corpus_dir, model_path, capsys):
        with open(os.path.join(corpus_dir, "features.tsv"), encoding="utf-8") as handle:
            rows = [line.split("\t") for line in handle.read().splitlines()]
        swapped = "".join("\t".join([row[0], row[2], row[1], *row[3:]]) + "\n" for row in rows)
        code, path, predictions = self._predict(tmp_path, model_path, swapped)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{path}: header feature 1 is {FEATURE_NAMES[1]!r}" in err
        assert not predictions.exists()

    def test_renamed_columns_are_refused(self, tmp_path, corpus_dir, model_path, capsys):
        with open(os.path.join(corpus_dir, "features.tsv"), encoding="utf-8") as handle:
            lines = handle.read().splitlines(keepends=True)
        header = "\t".join(["query_id", *(f"x{i}" for i in range(len(FEATURE_NAMES)))]) + "\n"
        code, path, predictions = self._predict(tmp_path, model_path, header + "".join(lines[1:]))
        assert code == 1
        assert f"{path}: header feature 1 is 'x0'" in capsys.readouterr().err
        assert not predictions.exists()

    def test_matching_header_predicts_every_row(self, tmp_path, corpus_dir, model_path):
        with open(os.path.join(corpus_dir, "features.tsv"), encoding="utf-8") as handle:
            features = handle.read()
        code, _, predictions = self._predict(tmp_path, model_path, features)
        assert code == 0
        table = load_features(os.path.join(corpus_dir, "features.tsv"))
        qids = table.query_ids
        expected = predict_batch(load_model(model_path), table.rows)
        assert predictions.read_text(encoding="utf-8") == "".join(
            f"{qid}\t{fmt(p)}\n" for qid, p in zip(qids, expected))

    def test_empty_file_writes_empty_predictions(self, tmp_path, model_path):
        code, _, predictions = self._predict(tmp_path, model_path, "")
        assert code == 0
        assert predictions.read_bytes() == b""


class TestTrainingSetErrors:
    """train, buckets and abtest join features and judgments in one place,
    which names the first query that lacks either."""

    def test_train_names_a_featured_query_without_a_judgment(self, tmp_path, corpus_dir,
                                                              capsys):
        judgments = tmp_path / "judgments.tsv"
        with open(os.path.join(corpus_dir, "judgments.tsv"), encoding="utf-8") as handle:
            lines = handle.read().splitlines(keepends=True)
        judgments.write_text("".join(lines[:2] + lines[3:]), encoding="utf-8")
        assert run(["train", "--features", os.path.join(corpus_dir, "features.tsv"),
                    "--judgments", str(judgments), "--out", str(tmp_path / "model")]) == 1
        assert capsys.readouterr().err == "freshblend: error: query 'q000002' has no judgment\n"

    def test_train_on_a_header_only_features_file_exits_one(self, tmp_path, corpus_dir,
                                                              capsys):
        features = tmp_path / "features.tsv"
        features.write_text("\t".join(("query_id", *FEATURE_NAMES)) + "\n", encoding="utf-8")
        assert run(["train", "--features", str(features), "--judgments",
                    os.path.join(corpus_dir, "judgments.tsv"),
                    "--out", str(tmp_path / "model")]) == 1
        assert capsys.readouterr().err == "freshblend: error: training dataset is empty\n"

    def test_train_on_a_header_that_names_no_feature_exits_one(self, tmp_path, corpus_dir,
                                                                capsys):
        features = tmp_path / "features.tsv"
        features.write_text("query_id\nq000000\nq000001\n", encoding="utf-8")
        assert run(["train", "--features", str(features), "--judgments",
                    os.path.join(corpus_dir, "judgments.tsv"),
                    "--out", str(tmp_path / "model")]) == 1
        assert capsys.readouterr().err == (
            f"freshblend: error: {features}:1: header names no feature\n")
        assert not (tmp_path / "model").exists()

    def test_buckets_names_the_first_query_without_features(self, tmp_path, corpus_dir,
                                                             capsys):
        os.remove(os.path.join(corpus_dir, "features.tsv"))
        assert run(["buckets", "--corpus", corpus_dir, "--trees", "2",
                    "--out", str(tmp_path / "buckets")]) == 1
        assert capsys.readouterr().err == (
            "freshblend: error: query 'q000000' has no feature vector\n")


class TestRankedQueryWithoutRecord:
    """A corpus whose rankings.tsv holds a query that queries.tsv lacks is
    refused, as `blend --queries` refuses it.  A refused input creates no
    --out directory."""

    @pytest.mark.parametrize("argv", [
        ["sweep"],
        ["buckets", "--trees", "2"],
        ["abtest", "--trees", "2", "--n-queries", "200"],
    ], ids=lambda argv: argv[0])
    def test_command_exits_one(self, tmp_path, corpus_dir, capsys, argv):
        queries = os.path.join(corpus_dir, "queries.tsv")
        with open(queries, encoding="utf-8") as handle:
            lines = [line for line in handle if not line.startswith("q000003\t")]
        with open(queries, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        out = tmp_path / "out"
        assert run([argv[0], "--corpus", corpus_dir, "--out", str(out), *argv[1:]]) == 1
        assert capsys.readouterr().err == (
            "freshblend: error: query 'q000003' in rankings but not in queries file\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep"],
        ["buckets", "--trees", "2"],
        ["abtest", "--trees", "2", "--n-queries", "200"],
    ], ids=lambda argv: argv[0])
    def test_missing_corpus_exits_one(self, tmp_path, capsys, argv):
        missing, out = tmp_path / "absent", tmp_path / "out"
        assert run([argv[0], "--corpus", str(missing), "--out", str(out), *argv[1:]]) == 1
        assert capsys.readouterr().err == (
            f"freshblend: error: corpus path does not exist: {missing}\n")
        assert not out.exists()


class TestPipeline:
    def test_generate_train_predict_blend(self, tmp_path, corpus_dir, capsys):
        model_dir = tmp_path / "model"
        assert run(["train", "--features", os.path.join(corpus_dir, "features.tsv"),
                    "--judgments", os.path.join(corpus_dir, "judgments.tsv"),
                    "--out", str(model_dir), "--trees", "30"]) == 0
        assert (model_dir / "model.json").exists()

        pred_dir = tmp_path / "pred"
        assert run(["predict", "--model", str(model_dir / "model.json"),
                    "--features", os.path.join(corpus_dir, "features.tsv"),
                    "--out", str(pred_dir)]) == 0
        predictions = {}
        for line in (pred_dir / "predictions.tsv").read_text().splitlines():
            qid, p = line.split("\t")
            predictions[qid] = float(p)
        assert predictions
        assert all(0.0 <= p <= 1.0 for p in predictions.values())

        blend_dir = tmp_path / "blend"
        assert run(["blend", "--rankings", os.path.join(corpus_dir, "rankings.tsv"),
                    "--queries", os.path.join(corpus_dir, "queries.tsv"),
                    "--predictions", str(pred_dir / "predictions.tsv"),
                    "--out", str(blend_dir)]) == 0
        lines = (blend_dir / "blended.tsv").read_text().splitlines()
        assert {line.split("\t")[0] for line in lines} == set(predictions)

    def test_sweep_buckets_abtest_profile(self, tmp_path, corpus_dir, capsys):
        sweep_dir = tmp_path / "sweep"
        assert run(["sweep", "--corpus", corpus_dir, "--out", str(sweep_dir),
                    "--grid", "0.0,0.5,0.95"]) == 0
        assert (sweep_dir / "sweep.csv").read_text().splitlines()[0] == "# freshblend.sweep.v1"

        buckets_dir = tmp_path / "buckets"
        assert run(["buckets", "--corpus", corpus_dir, "--out", str(buckets_dir),
                    "--trees", "20", "--seed", "3"]) == 0
        assert (buckets_dir / "buckets.csv").exists()

        ab_dir = tmp_path / "ab"
        assert run(["abtest", "--corpus", corpus_dir, "--out", str(ab_dir),
                    "--n-queries", "800", "--trees", "20", "--seed", "3"]) == 0
        report = json.loads((ab_dir / "abreport.json").read_text())
        assert report["n_queries"] == 800

        log = tmp_path / "log.tsv"
        log.write_text("q1\t1\t73\nq1\t2\t20\nq1\t3\t4\nq1\t4\t3\n", encoding="utf-8")
        prof_dir = tmp_path / "prof"
        assert run(["profile", "--query-log", str(log), "--out", str(prof_dir)]) == 0
        assert "q1,1,0.73" in (prof_dir / "burst.csv").read_text()
        assert "day 1: 0.7300" in capsys.readouterr().out

    def test_identical_invocations_write_identical_bytes(self, tmp_path, corpus_dir):
        outputs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert run(["abtest", "--corpus", corpus_dir, "--out", str(out),
                        "--n-queries", "500", "--trees", "10", "--seed", "8"]) == 0
            outputs.append((out / "abreport.json").read_bytes())
        assert outputs[0] == outputs[1]


class TestEffectiveConfig:
    def test_each_subcommand_echoes_its_exact_keys(self, tmp_path, corpus_dir):
        def corpus(name):
            return os.path.join(corpus_dir, name)

        log = tmp_path / "log.tsv"
        log.write_text("q1\t1\t73\nq1\t2\t20\n", encoding="utf-8")
        invocations = [
            (["generate", "--n-queries", "20"],
             {"n_queries", "mixture", "ranking_depth", "fresh_base", "fresh_slope",
              "feature_noise", "assessor_accuracy"}),
            (["train", "--features", corpus("features.tsv"),
              "--judgments", corpus("judgments.tsv"), "--trees", "5"],
             {"features", "judgments", *GBRT_KEYS}),
            (["predict", "--model", str(tmp_path / "train" / "model.json"),
              "--features", corpus("features.tsv")], {"model", "features"}),
            (["blend", "--rankings", corpus("rankings.tsv"), "--query-time", "2000000000",
              "--p-fresh", "0.37"],
             {"rankings", "queries", "predictions", "p_fresh", "query_time"}),
            (["sweep", "--corpus", corpus_dir, "--grid", "0.5"], {"corpus"}),
            (["buckets", "--corpus", corpus_dir, "--trees", "5"], {"corpus", *GBRT_KEYS}),
            (["abtest", "--corpus", corpus_dir, "--trees", "5", "--n-queries", "200"],
             {"corpus", "n_queries", *GBRT_KEYS}),
            (["profile", "--query-log", str(log)], {"query_log"}),
        ]
        for argv, own in invocations:
            out = tmp_path / argv[0]
            assert run([*argv, "--out", str(out)]) == 0
            document = json.loads((out / "effective_config.json").read_text())
            assert set(document) == {"schema_version", "command", *SHARED_KEYS, *own}


# ---------------------------------------------------------------------------
# fuzzed inputs: one input of one subcommand is replaced by arbitrary bytes
# or by a mix of its own valid lines and arbitrary fields; the others stay
# valid.  Whatever the input, run() returns 0, 1 or 2 and raises nothing.
# ---------------------------------------------------------------------------

CORPUS_FILES = ("queries.tsv", "rankings.tsv", "judgments.tsv", "features.tsv")
FUZZ_ARGV = {
    "eval": ("--rankings", "rankings.tsv", "--config", "config.json"),
    "blend": ("--rankings", "rankings.tsv", "--queries", "queries.tsv",
              "--predictions", "predictions.tsv", "--config", "config.json"),
    "train": ("--features", "features.tsv", "--judgments", "judgments.tsv", "--trees", "2"),
    "predict": ("--model", "model.json", "--features", "features.tsv"),
    "sweep": ("--corpus", "corpus", "--grid", "0.5"),
    "buckets": ("--corpus", "corpus", "--trees", "2"),
    "abtest": ("--corpus", "corpus", "--trees", "2", "--n-queries", "50"),
    "profile": ("--query-log", "log.tsv"),
}
FUZZ_TARGETS = [(command, name) for command, argv in FUZZ_ARGV.items()
                for name in (CORPUS_FILES if "corpus" in argv else argv[1::2])
                if name.endswith((".tsv", ".json"))]
TOKENS = (st.sampled_from(["", "-", "0", "1", "2", "-1", "0.25", "0.5", "0.95", "1.5", "nan",
                           "inf", "1e999", "9" * 25, "q000000", "q000001", "query_id", "\r"])
          | st.integers().map(str) | st.floats().map(repr)
          | st.text(st.characters(blacklist_categories=("Cs",)), max_size=5))
# A line mix: each line is line i (mod the count) of the valid input or
# arbitrary fields, with one of the two accepted line endings.  A field
# swap: the valid input with field j of line i (mod the counts) replaced.
LINE_MIXES = st.tuples(st.lists(st.integers(0, 63) | st.lists(TOKENS, max_size=7), max_size=10),
                       st.sampled_from(["\n", "\r\n"]))
FIELD_SWAPS = st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 9), TOKENS),
                       min_size=1, max_size=3)


def fuzzed(valid: str, content) -> bytes:
    if isinstance(content, bytes):
        return content
    lines = valid.splitlines()
    if isinstance(content, tuple):
        picks, ending = content
        return "".join((lines[pick % len(lines)] if isinstance(pick, int) else "\t".join(pick))
                       + ending for pick in picks).encode()
    rows = [line.split("\t") for line in lines]
    for i, j, token in content:
        row = rows[i % len(rows)]
        row[j % len(row)] = token
    return "".join("\t".join(row) + "\n" for row in rows).encode()


def model_bytes(root: dict) -> bytes:
    """A one-tree model over the corpus's six features whose root split is
    `root`; feature 6 is one past the last."""
    leaf = {"feature": None, "threshold": None, "left": None, "right": None, "leaf": 0.5}
    return json.dumps({"schema_version": 1, "feature_names": list(FEATURE_NAMES),
                       "base_prediction": 0.25, "learning_rate": 0.1, "max_depth": 1,
                       "n_trees": 1, "trees": [[{"leaf": None, **root}, leaf, leaf]]}).encode()


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """Every input the fuzzed subcommands read, all valid."""
    root = tmp_path_factory.mktemp("valid")
    config = GeneratorConfig(n_queries=12, ranking_depth=6, grade_mixture=dict(JUDGED_POOL_MIXTURE))
    write_corpus(generate_corpus(config, seed=5), str(root / "corpus"))
    for name in CORPUS_FILES:
        shutil.copy(root / "corpus" / name, root / name)
    assert run(["train", "--features", str(root / "features.tsv"), "--judgments",
                str(root / "judgments.tsv"), "--trees", "2", "--out", str(root)]) == 0
    assert run(["predict", "--model", str(root / "model.json"), "--features",
                str(root / "features.tsv"), "--out", str(root)]) == 0
    (root / "log.tsv").write_text("q1\t1\t73\nq1\t2\t20\nq2\t5\t4\n", encoding="utf-8")
    (root / "config.json").write_text('{\n  "depth": 5,\n  "p_break": 0.7\n}\n',
                                      encoding="utf-8")
    return root


class TestFuzzedInputs:
    @given(target=st.sampled_from(FUZZ_TARGETS),
           content=st.binary(max_size=300) | LINE_MIXES | FIELD_SWAPS)
    @example(target=("eval", "rankings.tsv"),
             content=b"q1\td1\t1\t1000\t0.5\t-\nq1\t\xff\t2\t1000\t0.5\t-\n")
    @example(target=("predict", "model.json"),
             content=model_bytes({"feature": 0, "threshold": 0.5, "left": 0, "right": 0}))
    @example(target=("predict", "model.json"),
             content=model_bytes({"feature": 6, "threshold": 0.5, "left": 1, "right": 2}))
    @example(target=("predict", "model.json"),
             content=b"\xff" + model_bytes({"feature": 0, "threshold": 0.5, "left": 1, "right": 2}))
    @example(target=("abtest", "queries.tsv"), content=b"")
    @settings(max_examples=120, deadline=None)
    def test_any_input_exits_zero_one_or_two(self, valid_inputs, target, content):
        command, name = target
        argv = FUZZ_ARGV[command]
        with tempfile.TemporaryDirectory() as tmp:
            if "corpus" in argv:
                shutil.copytree(valid_inputs / "corpus", os.path.join(tmp, "corpus"))
                path = os.path.join(tmp, "corpus", name)
            else:
                path = os.path.join(tmp, name)
            with open(path, "wb") as handle:
                handle.write(fuzzed((valid_inputs / name).read_text(encoding="utf-8"), content))
            paths = [os.path.join(tmp, item) if item in (name, "corpus")
                     else str(valid_inputs / item) if item.endswith((".tsv", ".json")) else item
                     for item in argv]
            assert run([command, *paths, "--out", os.path.join(tmp, "out")]) in (0, 1, 2)
