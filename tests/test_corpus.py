"""Loaders, writers, and the synthetic generator."""

import collections
import math
import os
import re

import numpy as np
import pytest

from freshblend.corpus import (
    GRADE_VALUES,
    JUDGED_POOL_MIXTURE,
    Corpus,
    DocEntry,
    FeatureTable,
    GeneratorConfig,
    JudgedQuery,
    QueryRecord,
    Ranking,
    generate_corpus,
    load_corpus,
    load_features,
    load_judgments,
    load_predictions,
    load_queries,
    load_rankings,
    training_set,
    write_corpus,
    write_rankings,
)
from freshblend.errors import ConfigError, ParseError, ValidationError
from freshblend.freshness import FreshnessWindow, is_fresh, load_query_log


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadRankings:
    def test_empty_file_gives_empty_map(self, tmp_path):
        assert load_rankings(_write(tmp_path, "r.tsv", "")) == {}

    def test_two_rows_one_query(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "q1\td1\t1\t100\t0.5\t-\nq1\td2\t2\t90\t0.25\t0.1\n")
        rankings = load_rankings(path)
        assert set(rankings) == {"q1"}
        ranking = rankings["q1"]
        assert len(ranking) == 2
        assert ranking.entries[0].doc_id == "d1"
        assert ranking.entries[1].latent_rel_fresh == 0.1

    def test_rows_may_arrive_out_of_rank_order(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "q1\td2\t2\t90\nq1\td1\t1\t100\n")
        ranking = load_rankings(path)["q1"]
        assert [e.doc_id for e in ranking.entries] == ["d1", "d2"]

    def test_gap_in_ranks_rejected(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "q1\td1\t1\t100\nq1\td3\t3\t90\n")
        with pytest.raises(ValidationError, match="contiguous"):
            load_rankings(path)

    def test_malformed_line_names_its_number(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "q1\td1\t1\t100\nq1\td2\toops\t90\n")
        with pytest.raises(ParseError, match=r":2:"):
            load_rankings(path)

    def test_duplicate_doc_rejected(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "q1\td1\t1\t100\nq1\td1\t2\t90\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_rankings(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_rankings(str(tmp_path / "nope.tsv"))


class TestLoadJudgments:
    def test_unanimous_grades(self, tmp_path):
        path = _write(tmp_path, "j.tsv", "q1\t0.75\t0.75\t0.75\n")
        judged = load_judgments(path)["q1"]
        assert judged.consensus_grade == pytest.approx(0.75, abs=1e-15)

    def test_consensus_is_the_mean(self, tmp_path):
        path = _write(tmp_path, "j.tsv", "q1\t0.95\t0.75\t0.25\n")
        judged = load_judgments(path)["q1"]
        assert judged.consensus_grade == pytest.approx(0.65, abs=1e-12)

    def test_off_scale_grade_rejected(self, tmp_path):
        path = _write(tmp_path, "j.tsv", "q1\t0.5\t0.75\t0.25\n")
        with pytest.raises(ValidationError):
            load_judgments(path)


class TestLoadPredictions:
    def test_rows_load_in_file_order(self, tmp_path):
        path = _write(tmp_path, "p.tsv", "q2\t0.25\nq1\t0.5\n")
        assert list(load_predictions(path).items()) == [("q2", 0.25), ("q1", 0.5)]

    @pytest.mark.parametrize("line", ["q1\t0.5\textra", "q1\tlikely"])
    def test_malformed_line_is_a_parse_error_naming_path_and_line(self, tmp_path, line):
        path = _write(tmp_path, "p.tsv", "q0\t0.1\n" + line + "\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{path}:2: ")):
            load_predictions(path)

    def test_repeated_query_id_rejected(self, tmp_path):
        path = _write(tmp_path, "p.tsv", "q1\t0.5\nq2\t0.1\nq1\t0.75\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{path}:3: duplicate query_id 'q1'")):
            load_predictions(path)


class TestLineFormat:
    """The reading rules every loader shares."""

    @pytest.mark.parametrize("loader, data, line, message", [
        (load_rankings, b"q1\td1\t1\t100\nq1\t\xffd\t2\t90\n", 2, "line is not valid UTF-8"),
        (load_rankings, b"q1\td1\t1\n", 1, "expected 4-6 fields, got 3"),
        (load_rankings, b"q1\t\t1\t100\n", 1, "empty query_id or doc_id"),
        (load_rankings, b"q1\td1\t1\t100\n\nq1\td1\t2\t90\n", 3,
         "duplicate query_id/doc_id ('q1', 'd1')"),
        (load_rankings, b"q1\td1\t1\t99999999999999999999\n", 1,
         "timestamp does not fit in 64 bits"),
        (load_rankings, b"q1\td1\t1\t100\t1.5\n", 1, "latent_rel_any out of [0,1]: 1.5"),
        (load_judgments, b"q1\t0.25\t0.25\t0.25\nq1\t0\t0\t0\n", 2, "duplicate query_id 'q1'"),
        (load_judgments, b"q1\t0.5\t0.75\t0.25\n", 1, "assessor grade 0.5 not in"),
        (load_queries, b"\t100\t-\t-\n", 1, "empty query_id"),
        (load_queries, b"q1\t100\t-\tmany\n", 1, "bad volume: 'many'"),
        (load_queries, b"q1\t100\t0.5\t3\n", 1, "true_grade 0.5 not in"),
        (load_features, b"query_id\ta\tb\nq1\t0.5\n", 2, "expected 3 fields, got 2"),
        (load_features, b"query_id\ta\nq1\tinf\n", 2, "feature value is not finite: 'inf'"),
        (load_features, b"q1\t0.5\t0.25\nq2\t0.1\t0.2\n", 1,
         "header must start with 'query_id', got 'q1'"),
        (load_predictions, b"q1\tnan\n", 1, "p_fresh is not finite: 'nan'"),
        (load_query_log, b"q1\t1\tmany\n", 1, "bad count: 'many'"),
        (load_query_log, b"q1\t1\t3\r\nq1\t2\t-3\r\n", 2, "negative count -3"),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_fault_is_a_parse_error_at_its_line(self, tmp_path, loader, data, line, message):
        path = tmp_path / "input.tsv"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="^" + re.escape(f"{path}:{line}: {message}")):
            loader(str(path))

    def test_crlf_endings_and_blank_lines_are_accepted(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_bytes(b"\r\nq1\td1\t1\t100\t-\t-\r\n\n\r\nq1\td2\t2\t90\t0.5\t0.25\r\n")
        entries = load_rankings(str(path))["q1"].entries
        assert entries == (DocEntry("d1", 1, 100), DocEntry("d2", 2, 90, 0.5, 0.25))

    def test_a_fault_without_a_line_names_the_file(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "q1\td1\t1\t100\nq1\td3\t3\t90\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{path}: query 'q1': ")):
            load_rankings(path)


class TestTypes:
    def test_query_grade_must_be_on_the_scale(self):
        with pytest.raises(ValidationError):
            QueryRecord("q1", 0, true_grade=0.5)

    def test_rank_and_timestamp_bounds(self):
        with pytest.raises(ValidationError):
            DocEntry("d", 0, 100)
        with pytest.raises(ValidationError):
            DocEntry("d", 1, -5)

    def test_ranking_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            Ranking((DocEntry("d", 1, 0), DocEntry("d", 2, 0)))

    def test_judged_query_grade_scale(self):
        with pytest.raises(ValidationError):
            JudgedQuery("q", (0.1, 0.25, 0.75))


class TestTrainingSet:
    TABLE = FeatureTable(("a", "b"), {"q1": np.array([0.1, 0.2]), "q2": np.array([0.3, 0.4])})
    JUDGMENTS = {"q1": JudgedQuery("q1", (0.95, 0.75, 0.25)),
                 "q2": JudgedQuery("q2", (0.0, 0.0, 0.25))}

    def test_rows_follow_the_given_order(self):
        x, y = training_set(self.TABLE, self.JUDGMENTS, ["q2", "q1"])
        assert x.tolist() == [[0.3, 0.4], [0.1, 0.2]]
        assert y.tolist() == [0.25 / 3, (0.95 + 0.75 + 0.25) / 3]

    @pytest.mark.parametrize("qids, message", [
        (["q1", "q9", "q8"], "query 'q9' has no feature vector"),
        (["q1", "q3"], "query 'q3' has no judgment"),
    ])
    def test_first_unmatched_query_is_named(self, qids, message):
        table = FeatureTable(("a", "b"), {**self.TABLE.rows, "q3": np.array([0.0, 0.0])})
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            training_set(table, self.JUDGMENTS, qids)

    def test_no_queries_give_an_empty_matrix_of_the_table_width(self):
        x, y = training_set(FeatureTable(("a", "b")), {}, [])
        assert x.shape == (0, 2) and y.shape == (0,)


class TestGenerator:
    def test_nonpositive_count_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(n_queries=0)

    def test_ranked_documents_are_capped_at_one_hundred_million(self):
        GeneratorConfig(n_queries=10_000, ranking_depth=10_000)
        with pytest.raises(ConfigError, match="n_queries x ranking_depth exceeds 100000000"):
            GeneratorConfig(n_queries=10_000, ranking_depth=10_001)

    def test_mixture_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(grade_mixture={0.0: 0.5, 0.25: 0.4})

    @pytest.mark.parametrize("knob", [
        {"feature_noise": -1.0},
        {"feature_noise": math.nan},
        {"feature_noise": math.inf},
        {"fresh_slope": math.nan},
        {"fresh_slope": math.inf},
    ])
    def test_noise_and_slope_must_be_finite_and_nonnegative(self, knob):
        with pytest.raises(ConfigError, match=next(iter(knob))):
            GeneratorConfig(**knob)

    def test_requested_count_is_delivered(self):
        corpus = generate_corpus(GeneratorConfig(n_queries=50, ranking_depth=5), seed=1)
        assert len(corpus.queries) == 50
        assert set(corpus.queries) == set(corpus.rankings)

    def test_same_seed_is_byte_identical(self, tmp_path):
        config = GeneratorConfig(n_queries=40, ranking_depth=8)
        for run in ("a", "b"):
            write_corpus(generate_corpus(config, seed=99), str(tmp_path / run))
        for name in ("queries.tsv", "rankings.tsv", "judgments.tsv", "features.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_traffic_mixture_shares_at_100k(self):
        corpus = generate_corpus(GeneratorConfig(n_queries=100_000, ranking_depth=1), seed=123)
        counts = collections.Counter(q.true_grade for q in corpus.queries.values())
        for grade, target in ((0.25, 4.9), (0.75, 1.11), (0.95, 0.73)):
            share = counts[grade] * 100.0 / 100_000
            assert abs(share - target) <= 0.5

    def test_freshness_window_separates_timestamps(self):
        config = GeneratorConfig(n_queries=30, ranking_depth=10)
        corpus = generate_corpus(config, seed=4)
        window = FreshnessWindow(config.window_seconds)
        for qid, ranking in corpus.rankings.items():
            issue = corpus.queries[qid].issue_time
            for entry in ranking.entries:
                fresh = is_fresh(entry.timestamp, issue, window)
                if entry.latent_rel_fresh and entry.latent_rel_fresh > 0:
                    assert fresh
                else:
                    assert not fresh

    def test_latents_and_features_are_in_range(self):
        corpus = generate_corpus(GeneratorConfig(n_queries=30, ranking_depth=10), seed=5)
        for ranking in corpus.rankings.values():
            for entry in ranking.entries:
                assert 0.0 <= entry.latent_rel_any <= 1.0
                assert 0.0 <= entry.latent_rel_fresh <= 1.0
        for values in corpus.features.rows.values():
            assert np.all((values >= 0.0) & (values <= 1.0))

    def test_signal_features_rise_with_grade(self):
        corpus = generate_corpus(
            GeneratorConfig(n_queries=2000, ranking_depth=1,
                            grade_mixture=dict(JUDGED_POOL_MIXTURE)),
            seed=6,
        )
        by_grade = {g: [] for g in GRADE_VALUES}
        for qid, record in corpus.queries.items():
            by_grade[record.true_grade].append(corpus.features.rows[qid][0])
        means = [float(np.mean(by_grade[g])) for g in GRADE_VALUES]
        assert means == sorted(means)


class TestRoundTrip:
    def test_written_files_reload_to_identical_bytes(self, tmp_path):
        corpus = generate_corpus(GeneratorConfig(n_queries=25, ranking_depth=6), seed=11)
        first = tmp_path / "first"
        write_corpus(corpus, str(first))
        reloaded = load_corpus(str(first))
        second = tmp_path / "second"
        write_corpus(reloaded, str(second))
        for name in ("queries.tsv", "rankings.tsv", "judgments.tsv", "features.tsv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_rankings_round_trip(self, tmp_path):
        rankings = {
            "q1": Ranking((
                DocEntry("d1", 1, 100, 0.5, None),
                DocEntry("d2", 2, 90, None, 0.25),
            ))
        }
        path = tmp_path / "r.tsv"
        write_rankings(rankings, str(path))
        assert load_rankings(str(path)) == rankings

    def test_load_corpus_reloads_features_and_grades(self, tmp_path):
        corpus = generate_corpus(GeneratorConfig(n_queries=5, ranking_depth=3), seed=2)
        write_corpus(corpus, str(tmp_path))
        reloaded = load_corpus(str(tmp_path))
        assert reloaded.features.names == corpus.features.names
        assert list(reloaded.features.rows) == list(corpus.features.rows)
        for qid, values in corpus.features.rows.items():
            assert np.array_equal(reloaded.features.rows[qid], values)
        assert list(reloaded.queries) == list(corpus.queries)
        for qid, record in reloaded.queries.items():
            assert record.true_grade == corpus.queries[qid].true_grade
