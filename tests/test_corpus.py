"""Loaders, writers, and the synthetic generator."""

import collections
import dataclasses
import math
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshblend import corpus as corpus_module
from freshblend import fileio
from freshblend.corpus import (
    GRADE_VALUES,
    JUDGED_POOL_MIXTURE,
    Corpus,
    FeatureTable,
    GeneratorConfig,
    JudgmentTable,
    generate_corpus,
    load_corpus,
    load_features,
    load_judgments,
    load_predictions,
    load_queries,
    load_ranking_table,
    training_set,
    write_corpus,
    write_queries,
    write_rankings,
)
from freshblend.errors import ConfigError, ParseError, ValidationError
from freshblend.fileio import fmt
from freshblend.freshness import FreshnessWindow, is_fresh, load_query_log
from oracles import (DocEntry, Ranking, generate_per_document, generated_corpora, hand_built,
                     load_features_rows, load_judgments_rows, load_predictions_rows,
                     load_queries_rows, load_query_log_rows, load_rankings, rankings_of)

def assert_same_table(actual, expected):
    """The same table, every column equal, NaN to NaN, and of the same
    dtype and shape; or, for what is not a table, the same value."""
    if not dataclasses.is_dataclass(expected):
        assert actual == expected
        return
    for name in (field.name for field in dataclasses.fields(expected)):
        a, b = getattr(actual, name), getattr(expected, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b, equal_nan=b.dtype.kind == "f"), name
        else:
            assert a == b, name


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadRankings:
    def test_empty_file_gives_empty_table(self, tmp_path):
        table = load_ranking_table(_write(tmp_path, "r.tsv", ""))
        assert_same_table(table, hand_built({})[1])

    def test_two_rows_one_query(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "q1\td1\t1\t100\t0.5\t-\nq1\td2\t2\t90\t0.25\t0.1\n")
        table = load_ranking_table(path)
        assert table.query_ids == ("q1",)
        assert table.offsets.tolist() == [0, 2]
        assert table.doc_ids == ("d1", "d2")
        assert table.latent_fresh[1] == 0.1
        assert math.isnan(table.latent_fresh[0])

    def test_rows_may_arrive_out_of_rank_order(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "q1\td2\t2\t90\nq1\td1\t1\t100\n")
        table = load_ranking_table(path)
        assert table.doc_ids == ("d1", "d2")
        assert table.timestamps.tolist() == [100, 90]

    def test_gap_in_ranks_rejected(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "q1\td1\t1\t100\nq1\td3\t3\t90\n")
        with pytest.raises(ValidationError, match="contiguous"):
            load_ranking_table(path)

    def test_malformed_line_names_its_number(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "q1\td1\t1\t100\nq1\td2\toops\t90\n")
        with pytest.raises(ParseError, match=r":2:"):
            load_ranking_table(path)

    def test_duplicate_doc_rejected(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "q1\td1\t1\t100\nq1\td1\t2\t90\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_ranking_table(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_ranking_table(str(tmp_path / "nope.tsv"))

    def test_same_doc_id_under_two_queries_is_no_repeat(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "q1\td1\t1\t100\nq2\td1\t1\t90\n")
        assert load_ranking_table(path).doc_ids == ("d1", "d1")

    def test_doc_ids_of_equal_hash_are_told_apart(self, tmp_path):
        # every doc id hashes alike, so the repeat check compares the ids
        text = "q1\td1\t1\t100\nq1\td2\t2\t90\nq1\td3\t3\t80\n"
        path = _write(tmp_path, "r.tsv", text + "q1\td2\t4\t70\n")
        with mock.patch.object(fileio, "hash", lambda _: 7, create=True):
            assert load_ranking_table(_write(tmp_path, "ok.tsv", text)).doc_ids == (
                "d1", "d2", "d3")
            with pytest.raises(ParseError, match="^" + re.escape(
                    f"{path}:4: duplicate query_id/doc_id ('q1', 'd2')")):
                load_ranking_table(path)


def _irregular_text(table, random) -> str:
    """The table's rows as rankings.tsv text: lines in a random order, each
    of 4, 5 or 6 fields with '-' for some latents and ending in '\\n' or
    '\\r\\n', and blank lines between."""
    lines = []
    for row in range(len(table.doc_ids)):
        latents = [random.choice([fmt(value), "-"])
                   for value in (table.latent_any[row], table.latent_fresh[row])]
        fields = [table.query_ids[table.query[row]], table.doc_ids[row],
                  str(table.rank[row]), str(table.timestamps[row]), *latents]
        lines.append("\t".join(fields[:random.randint(4, 6)]))
    random.shuffle(lines)
    for _ in range(random.randint(0, 5)):
        lines.insert(random.randint(0, len(lines)), "")
    return "".join(line + random.choice(["\n", "\r\n"]) for line in lines)


def _regular_text(table, random) -> str:
    """The table's rows as rankings.tsv text in a random line order, each
    line of six fields and ending in '\\n': the text the typed block
    read takes."""
    lines = ["\t".join((table.query_ids[table.query[row]], table.doc_ids[row],
                        str(table.rank[row]), str(table.timestamps[row]),
                        fmt(table.latent_any[row]), fmt(table.latent_fresh[row])))
             for row in range(len(table.doc_ids))]
    random.shuffle(lines)
    return "".join(line + "\n" for line in lines)


class TestAgainstTheRowByRowReader:
    @given(generated_corpora(), st.randoms(use_true_random=False),
           st.sampled_from([_irregular_text, _regular_text]),
           st.sampled_from([fileio.BLOCK_LINES, 1, 2, 7, 64]))
    @settings(max_examples=80, deadline=None)
    def test_table_equals_the_reference_field_by_field(self, tmp_path_factory, drawn, random,
                                                       text_of, block_lines):
        path = tmp_path_factory.mktemp("drawn") / "rankings.tsv"
        path.write_bytes(text_of(drawn[0].rankings, random).encode("utf-8"))
        # one block, or blocks of a few lines, so that queries span several
        with mock.patch.object(fileio, "BLOCK_LINES", block_lines):
            loaded = load_ranking_table(str(path))
        assert_same_table(loaded, hand_built(load_rankings(str(path)))[1])

    @given(generated_corpora(), st.randoms(use_true_random=False),
           st.sampled_from([_irregular_text, _regular_text]),
           st.sampled_from([fileio.BLOCK_LINES, 1, 3, 16]))
    @settings(max_examples=120, deadline=None)
    def test_faulty_files_get_the_reference_diagnostic(self, tmp_path_factory, drawn, random,
                                                       text_of, block_lines):
        lines = text_of(drawn[0].rankings, random).encode("utf-8").split(b"\n")
        for _ in range(random.randint(1, 3)):
            at = random.randrange(len(lines))
            fields = lines[at].rstrip(b"\r").split(b"\t")
            if random.random() < 0.3:  # take another line's query and doc id: a repeat
                lines[at] = b"\t".join(random.choice(lines).split(b"\t")[:2] + fields[2:])
            else:
                lines[at] = random.choice(FAULTS)(fields, random)
        path = tmp_path_factory.mktemp("faulty") / "rankings.tsv"
        path.write_bytes(b"\n".join(lines))
        with mock.patch.object(fileio, "BLOCK_LINES", block_lines):
            loaded = _outcome(load_ranking_table, str(path))
        expected = _outcome(load_rankings, str(path))
        if isinstance(expected, str):
            assert loaded == expected
        else:
            assert_same_table(loaded, hand_built(expected)[1])


#: Tokens on which a typed `np.loadtxt` and the row-by-row token parsers
#: could disagree.
TYPED_TOKENS = ["\x1c5", "5\x0c", "1_0", "\u0665", "\uff11\uff12", "+5", " 5", "-0", "00",
                "1e3", "nan", "inf", ".5", "1" * 20, "", "-5", "1.5"]


class TestTypedBlockRead:
    """Blocks of regular lines are read by one typed `np.loadtxt`; every
    other block row by row by `TsvRows`.  Both accept the same input."""

    @pytest.mark.parametrize("width, field", [(w, f) for w in (4, 5, 6) for f in range(w)])
    @pytest.mark.parametrize("token", TYPED_TOKENS)
    def test_a_token_gets_the_reference_outcome(self, tmp_path, width, field, token):
        fields = ["q1", "d1", "1", "100", "0.5", "0.25"][:width]
        fields[field] = token
        first = "\t".join(["q0", "d0", "1", "90", "0.5", "0.25"][:width])
        path = _write(tmp_path, "r.tsv", first + "\n" + "\t".join(fields) + "\n")
        loaded = _outcome(load_ranking_table, path)
        expected = _outcome(load_rankings, path)
        if isinstance(expected, str):
            assert loaded == expected
        else:
            assert_same_table(loaded, hand_built(expected)[1])

    @pytest.mark.parametrize("ending, width", [("\n", 6), ("\r\n", 6), ("\n", 4), ("\n", 5)],
                             ids=["lf", "crlf", "4-fields", "5-fields"])
    @pytest.mark.parametrize("mixture, seed", [(corpus_module.TRAFFIC_MIXTURE, 3),
                                               (JUDGED_POOL_MIXTURE, 11)],
                             ids=["traffic", "judged"])
    def test_written_generated_rankings_never_take_the_general_path(self, tmp_path, mixture,
                                                                    seed, ending, width):
        table = generate_corpus(GeneratorConfig(n_queries=400, grade_mixture=mixture),
                                seed).rankings
        path = tmp_path / "rankings.tsv"
        write_rankings(table, str(path))
        assert len(table.doc_ids) > fileio.BLOCK_LINES  # more than one block
        lines = path.read_bytes().decode("utf-8").splitlines()
        path.write_bytes("".join("\t".join(line.split("\t")[:width]) + ending
                                 for line in lines).encode("utf-8"))
        absent = np.full(len(table.doc_ids), np.nan)
        expected = dataclasses.replace(table,
                                       latent_any=table.latent_any if width > 4 else absent,
                                       latent_fresh=table.latent_fresh if width > 5 else absent)
        with mock.patch.object(fileio, "_row_block", side_effect=AssertionError("row path taken")):
            assert_same_table(load_ranking_table(str(path)), expected)

    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("mixture, seed", [(corpus_module.TRAFFIC_MIXTURE, 3),
                                               (JUDGED_POOL_MIXTURE, 11)],
                             ids=["traffic", "judged"])
    def test_written_generated_corpus_files_never_take_the_general_path(self, tmp_path, mixture,
                                                                       seed, ending):
        # features.tsv is still read row by row, outside `read_tsv`
        corpus = generate_corpus(GeneratorConfig(n_queries=400, ranking_depth=3,
                                                 grade_mixture=mixture), seed)
        write_corpus(corpus, str(tmp_path))
        loaders = {"queries": load_queries, "rankings": load_ranking_table,
                   "judgments": load_judgments}
        row_path = AssertionError("row path taken")
        for name, load in loaders.items():
            path = tmp_path / f"{name}.tsv"
            path.write_bytes(path.read_bytes().replace(b"\n", ending.encode()))
            # blocks of 64 lines, so that each file spans several
            with mock.patch.object(fileio, "_row_block", side_effect=row_path), \
                    mock.patch.object(fileio, "BLOCK_LINES", 64):
                assert_same_table(load(str(path)), getattr(corpus, name))


def _outcome(load, path):
    """What `load` returns, or the message of the ParseError it raises."""
    try:
        return load(path)
    except ParseError as exc:
        return str(exc)


def _field(j, token):
    """A fault that sets field j (appending up to it) to `token`."""
    def fault(fields, random):
        fields = fields + [b"-"] * (j + 1 - len(fields))
        fields[j] = token
        return b"\t".join(fields)
    return fault


FAULTS = (
    lambda fields, random: b"\t".join(fields[:random.randint(1, 3)]),
    lambda fields, random: b"\t".join(fields + [b"0.5"] * 3),
    lambda fields, random: b"\t".join(fields) + b"\xff",
    lambda fields, random: b"",
    _field(0, b""), _field(1, b""),
    _field(2, b"x"), _field(2, b"0"), _field(2, b"2"), _field(2, b"99"),
    _field(2, str(2**63).encode()), _field(2, b" 1_0 "),
    _field(3, b"-5"), _field(3, b"1e3"), _field(3, str(2**63).encode()),
    _field(4, b"1.5"), _field(4, b"nan"), _field(4, b""), _field(4, b"-0.0"),
    _field(5, b"inf"), _field(5, b"1"), _field(5, b"0x1"),
)


def _consensus(path):
    """The consensus grades of a judgments file, in file order."""
    judged = load_judgments(path)
    no_features = FeatureTable((), judged.query_ids, np.empty((len(judged), 0)))
    return training_set(no_features, judged, judged.query_ids)[1].tolist()


class TestLoadJudgments:
    def test_unanimous_grades(self, tmp_path):
        path = _write(tmp_path, "j.tsv", "q1\t0.75\t0.75\t0.75\n")
        assert _consensus(path) == [pytest.approx(0.75, abs=1e-15)]

    def test_consensus_is_the_mean(self, tmp_path):
        path = _write(tmp_path, "j.tsv", "q2\t0.0\t0.0\t0.25\nq1\t0.95\t0.75\t0.25\n")
        assert load_judgments(path).grades.tolist() == [[0.0, 0.0, 0.25], [0.95, 0.75, 0.25]]
        assert _consensus(path) == [0.25 / 3, pytest.approx(0.65, abs=1e-12)]

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
        (load_ranking_table, b"q1\td1\t1\t100\nq1\t\xffd\t2\t90\n", 2,
         "line is not valid UTF-8"),
        (load_ranking_table, b"q1\td1\t1\n", 1, "expected 4-6 fields, got 3"),
        (load_ranking_table, b"q1\t\t1\t100\n", 1, "empty query_id or doc_id"),
        (load_ranking_table, b"q1\td1\t1\t100\n\nq1\td1\t2\t90\n", 3,
         "duplicate query_id/doc_id ('q1', 'd1')"),
        (load_ranking_table, b"q1\td1\t1\t99999999999999999999\n", 1,
         "timestamp does not fit in 64 bits"),
        (load_ranking_table, b"q1\td1\t1\t100\t1.5\n", 1, "latent_rel_any out of [0,1]: 1.5"),
        (load_ranking_table, b"q1\td1\t0\t100\n", 1, "rank must be >= 1, got 0"),
        (load_ranking_table, b"q1\td1\t1\t-5\n", 1, "timestamp must be in [0, 2**63), got -5"),
        (load_ranking_table, b"q1\td1\t1\t100\nq1\td1\t2\t90\n", 2,
         "duplicate query_id/doc_id ('q1', 'd1')"),
        (load_judgments, b"q1\t0.25\t0.25\t0.25\nq1\t0\t0\t0\n", 2, "duplicate query_id 'q1'"),
        # on one line a repeat comes before a refused token or value
        (load_ranking_table, b"q1\td1\t1\t100\nq1\td1\tx\t90\n", 2,
         "duplicate query_id/doc_id ('q1', 'd1')"),
        (load_ranking_table, b"q1\td1\t1\t100\nq1\td1\t0\t90\n", 2,
         "duplicate query_id/doc_id ('q1', 'd1')"),
        (load_judgments, b"q1\t0\t0\t0\nq1\tx\t0.5\t0\n", 2, "duplicate query_id 'q1'"),
        (load_queries, b"q1\t1\t-\t-\nq1\t1\t0.5\t0\n", 2, "duplicate query_id 'q1'"),
        # on one line the value rules are checked in field order
        (load_ranking_table, b"q1\td1\t0\t-5\t2\n", 1, "rank must be >= 1, got 0"),
        (load_judgments, b"q1\t0.25\t0.5\t0.1\n", 1, "assessor grade 0.5 not in"),
        (load_queries, b"q1\t1\t0.5\t0\n", 1, "true_grade 0.5 not in"),
        (load_judgments, b"q1\t0.5\t0.75\t0.25\n", 1, "assessor grade 0.5 not in"),
        (load_judgments, b"q1\t0.25\t0.1\t0.75\n", 1, "assessor grade 0.1 not in"),
        (load_queries, b"\t100\t-\t-\n", 1, "empty query_id"),
        (load_queries, b"q1\t100\t-\tmany\n", 1, "bad volume: 'many'"),
        (load_queries, b"q1\t100\t0.5\t3\n", 1, "true_grade 0.5 not in"),
        (load_queries, b"q1\t100\t-\t-\nq2\t100\t0.25\t0\n", 2,
         "volume must be positive, got 0"),
        (load_queries, b"q1\t99999999999999999999\t-\t-\n", 1,
         "issue_time does not fit in 64 bits"),
        (load_features, b"query_id\ta\tb\nq1\t0.5\n", 2, "expected 3 fields, got 2"),
        (load_features, b"query_id\ta\nq1\tinf\n", 2, "feature value is not finite: 'inf'"),
        (load_features, b"q1\t0.5\t0.25\nq2\t0.1\t0.2\n", 1,
         "header must start with 'query_id', got 'q1'"),
        (load_features, b"query_id\ta\ta\nq1\t0.5\t0.25\n", 1, "duplicate feature name 'a'"),
        (load_features, b"query_id\nq1\nq2\n", 1, "header names no feature"),
        (load_features, b"\r\n\nquery_id\r\n", 3, "header names no feature"),
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
        expected = {"q1": Ranking((DocEntry("d1", 1, 100), DocEntry("d2", 2, 90, 0.5, 0.25)))}
        assert_same_table(load_ranking_table(str(path)), hand_built(expected)[1])

    def test_a_fault_without_a_line_names_the_file(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "q1\td1\t1\t100\nq1\td3\t3\t90\n")
        with pytest.raises(ParseError, match="^" + re.escape(
                f"{path}: query 'q1': ranks must be contiguous from 1; position 2 has rank 3")):
            load_ranking_table(path)


# Lines of three-line blocks: line 4 opens the second block.
GOOD = [b"q1\td1\t1\t100\n", b"q1\td2\t2\t90\n", b"q1\td3\t3\t80\n",
        b"q1\td4\t4\t70\n", b"q1\td5\t5\t60\n"]


def _with(lines: dict[int, bytes]) -> bytes:
    """GOOD with the lines numbered in `lines` replaced."""
    return b"".join(lines.get(number, line) for number, line in enumerate(GOOD, start=1))


class TestBlockedDiagnostics:
    """A fault names the first bad line with the row-by-row reader's message,
    wherever the block boundaries fall."""

    @pytest.mark.parametrize("data, line, message", [
        # a fault on the first line of the second block
        (_with({4: b"q1\td4\tfour\t70\n"}), 4, "bad rank: 'four'"),
        (_with({4: b"q1\td4\n"}), 4, "expected 4-6 fields, got 2"),
        (_with({4: b"q1\td4\t4\t70\xff\n"}), 4, "line is not valid UTF-8"),
        (_with({4: b"q1\td2\t4\t70\n"}), 4, "duplicate query_id/doc_id ('q1', 'd2')"),
        # two faults in one block: the earlier line's kind is checked later
        (_with({1: b"q1\td1\t1\t100\t1.5\n", 2: b"q1\td2\n"}), 1,
         "latent_rel_any out of [0,1]: 1.5"),
        (_with({1: b"q1\td1\t0\t100\n", 3: b"q1\t\xffd3\t3\t80\n"}), 1,
         "rank must be >= 1, got 0"),
        (_with({2: b"q1\td2\t2\t-90\n", 3: b"q1\td1\t3\t80\n"}), 2,
         "timestamp must be in [0, 2**63), got -90"),
        (_with({2: b"q1\td1\t2\t90\n", 3: b"q1\t\t3\t80\n"}), 2,
         "duplicate query_id/doc_id ('q1', 'd1')"),
        # two faults in different blocks: the earlier line's kind is checked later
        (_with({3: b"q1\td3\t3\t80\t0.5\tnan\n", 4: b"q1\td4\xff\t4\t70\n"}), 3,
         "latent_rel_fresh is not finite: 'nan'"),
        (_with({2: b"q1\td2\t2\t90\t0.5\t2\n", 5: b"q1\td1\t5\t60\n"}), 2,
         "latent_rel_fresh out of [0,1]: 2.0"),
        (_with({3: b"q1\td1\t3\t80\n", 4: b"q1\td4\t4\n"}), 3,
         "duplicate query_id/doc_id ('q1', 'd1')"),
    ])
    def test_first_bad_line_is_named(self, tmp_path, data, line, message):
        path = tmp_path / "r.tsv"
        path.write_bytes(data)
        expected = "^" + re.escape(f"{path}:{line}: {message}")
        with pytest.raises(ParseError, match=expected):
            load_rankings(str(path))  # the row-by-row reader agrees
        with mock.patch.object(fileio, "BLOCK_LINES", 3):
            with pytest.raises(ParseError, match=expected):
                load_ranking_table(str(path))


def _queries_lines(corpus, random):
    queries = corpus.queries
    return [f"{qid}\t{time}\t{random.choice([fmt(grade), '-'])}\t{random.choice([volume, '-'])}"
            for qid, time, grade, volume in zip(queries.query_ids, queries.issue_time.tolist(),
                                                 queries.true_grade.tolist(),
                                                 queries.volume.tolist())]


def _judgments_lines(corpus, random):
    judgments = corpus.judgments
    return ["\t".join((qid, *map(fmt, row)))
            for qid, row in zip(judgments.query_ids, judgments.grades.tolist())]


def _features_lines(corpus, random):
    features = corpus.features
    return ["\t".join(("query_id", *features.names)),
            *("\t".join((qid, *map(fmt, row)))
              for qid, row in zip(features.query_ids, features.rows.tolist()))]


def _predictions_lines(corpus, random):
    return [f"{qid}\t{fmt(row[0])}" for qid, row in zip(corpus.features.query_ids,
                                                        corpus.features.rows.tolist())]


def _query_log_lines(corpus, random):
    return [f"{random.choice(corpus.queries.query_ids)}\t{random.randint(-3, 40)}\t"
            f"{random.randint(0, 10**6)}" for _ in range(random.randint(0, 60))]


#: Each small-file loader, its row-by-row reference and the lines of a
#: generated file it reads.
SMALL_FILES = [
    (load_queries, load_queries_rows, _queries_lines),
    (load_judgments, load_judgments_rows, _judgments_lines),
    (load_features, load_features_rows, _features_lines),
    (load_predictions, load_predictions_rows, _predictions_lines),
    (load_query_log, load_query_log_rows, _query_log_lines),
]

#: Tokens a fault writes into a field of a small file.
SMALL_FAULT_TOKENS = (b"", b"x", b"-", b"nan", b"inf", b"1e3", b"-5", b"0", b"-0.0", b"0.5",
                      b"0.25", b" 1_0 ", b"1.5", str(2**63).encode(), b"q000001")


class TestSmallFilesAgainstTheRowByRowReaders:
    """Each small-file loader gives its row-by-row reference's table, or
    its message, wherever the block boundaries fall."""

    @pytest.mark.parametrize("load, reference, lines_of", SMALL_FILES,
                             ids=[load.__name__ for load, _, _ in SMALL_FILES])
    @given(drawn=generated_corpora(), random=st.randoms(use_true_random=False),
           block_lines=st.sampled_from([fileio.BLOCK_LINES, 1, 2, 5]), faults=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_loader_equals_its_reference(self, tmp_path_factory, load, reference, lines_of,
                                         drawn, random, block_lines, faults):
        lines = [line.encode() for line in lines_of(drawn[0], random)]
        at = random.randrange(len(lines)) if lines else None
        for _ in range(faults if lines else 0):
            if random.random() < 0.5:  # else one more fault on the same line
                at = random.randrange(len(lines))
            fields = lines[at].split(b"\t")
            fault = random.randrange(5)
            if fault == 0:  # too few or too many fields
                fields = fields[:random.randrange(len(fields))] or fields + [b"0.5"] * 3
            elif fault == 1:
                fields[-1] += b"\xff"
            elif fault == 2:  # another line's query id: a repeat
                fields[0] = random.choice(lines).split(b"\t")[0]
            else:
                fields[random.randrange(len(fields))] = random.choice(SMALL_FAULT_TOKENS)
            lines[at] = b"\t".join(fields)
        for _ in range(random.randint(0, 3)):
            lines.insert(random.randint(0, len(lines)), b"")
        path = tmp_path_factory.mktemp("small") / "input.tsv"
        path.write_bytes(b"".join(line + random.choice([b"\n", b"\r\n"]) for line in lines))
        with mock.patch.object(fileio, "BLOCK_LINES", block_lines):
            loaded = _outcome(load, str(path))
        assert_same_table(loaded, _outcome(reference, str(path)))

    @pytest.mark.parametrize("load, reference, field", [
        (load_queries, load_queries_rows, 1), (load_judgments, load_judgments_rows, 2),
    ], ids=["issue_time", "grade"])
    @pytest.mark.parametrize("token", TYPED_TOKENS)
    def test_a_token_gets_the_reference_outcome(self, tmp_path, load, reference, field, token):
        fields = ["q1", "100", "0.25", "0.75"]
        fields[field] = token
        path = _write(tmp_path, "small.tsv", "q0\t90\t0.25\t0.75\n" + "\t".join(fields) + "\n")
        assert_same_table(_outcome(load, path), _outcome(reference, path))


class TestTrainingSet:
    TABLE = FeatureTable(("a", "b"), ("q1", "q2"), np.array([[0.1, 0.2], [0.3, 0.4]]))
    JUDGMENTS = JudgmentTable(("q1", "q2"), np.array([[0.95, 0.75, 0.25], [0.0, 0.0, 0.25]]))

    def test_rows_follow_the_given_order(self):
        x, y = training_set(self.TABLE, self.JUDGMENTS, ["q2", "q1"])
        assert x.tolist() == [[0.3, 0.4], [0.1, 0.2]]
        assert y.tolist() == [0.25 / 3, (0.95 + 0.75 + 0.25) / 3]

    @pytest.mark.parametrize("qids, message", [
        (["q1", "q9", "q8"], "query 'q9' has no feature vector"),
        (["q1", "q3"], "query 'q3' has no judgment"),
    ])
    def test_first_unmatched_query_is_named(self, qids, message):
        table = FeatureTable(("a", "b"), ("q1", "q2", "q3"),
                             np.vstack([self.TABLE.rows, [0.0, 0.0]]))
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            training_set(table, self.JUDGMENTS, qids)

    def test_no_queries_give_an_empty_matrix_of_the_table_width(self):
        x, y = training_set(FeatureTable(("a", "b"), (), np.empty((0, 2))),
                            JudgmentTable((), np.empty((0, 3))), [])
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
        assert corpus.rankings.query_ids == corpus.queries.query_ids

    def test_same_seed_is_byte_identical(self, tmp_path):
        config = GeneratorConfig(n_queries=40, ranking_depth=8)
        for run in ("a", "b"):
            write_corpus(generate_corpus(config, seed=99), str(tmp_path / run))
        for name in ("queries.tsv", "rankings.tsv", "judgments.tsv", "features.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_traffic_mixture_shares_at_100k(self):
        corpus = generate_corpus(GeneratorConfig(n_queries=100_000, ranking_depth=1), seed=123)
        counts = collections.Counter(corpus.queries.true_grade.tolist())
        for grade, target in ((0.25, 4.9), (0.75, 1.11), (0.95, 0.73)):
            share = counts[grade] * 100.0 / 100_000
            assert abs(share - target) <= 0.5

    def test_freshness_window_separates_timestamps(self):
        config = GeneratorConfig(n_queries=30, ranking_depth=10)
        corpus = generate_corpus(config, seed=4)
        table = corpus.rankings
        issued = corpus.queries.issue_time[table.query]
        fresh = is_fresh(table.timestamps, issued, FreshnessWindow(config.window_seconds))
        assert fresh.any() and not fresh.all()
        assert np.array_equal(fresh, table.latent_fresh > 0)

    def test_latents_and_features_are_in_range(self):
        corpus = generate_corpus(GeneratorConfig(n_queries=30, ranking_depth=10), seed=5)
        for latents in (corpus.rankings.latent_any, corpus.rankings.latent_fresh):
            assert np.all((latents >= 0.0) & (latents <= 1.0))
        values = corpus.features.rows
        assert np.all((values >= 0.0) & (values <= 1.0))

    @given(st.builds(
        GeneratorConfig,
        n_queries=st.integers(1, 30), ranking_depth=st.integers(1, 25),
        grade_mixture=st.sampled_from([dict(JUDGED_POOL_MIXTURE), {0.95: 1.0}, {0.0: 1.0}]),
        fresh_base=st.floats(0.0, 1.0), fresh_slope=st.floats(0.0, 3.0),
        feature_noise=st.floats(0.0, 2.0), latent_concentration=st.floats(0.1, 100.0),
        assessor_accuracy=st.floats(0.0, 1.0), window_seconds=st.integers(1, 10**7),
        page_depth=st.integers(1, 30),
        position_priors=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=12).map(
            lambda p: tuple(sorted(p, reverse=True)))),
        st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_corpus_equals_the_per_document_generator(self, config, seed):
        corpus = generate_corpus(config, seed)
        queries, rankings, judgments, feature_rows = generate_per_document(config, seed)
        for table in (corpus.queries, corpus.judgments, corpus.features):
            assert table.query_ids == tuple(queries)
        columns = (corpus.queries.issue_time, corpus.queries.true_grade, corpus.queries.volume)
        assert [column.dtype for column in columns] == [np.int64, np.float64, np.int64]
        assert list(zip(*(column.tolist() for column in columns))) == list(queries.values())
        assert corpus.judgments.grades.tolist() == list(map(list, judgments.values()))
        assert rankings_of(corpus.rankings) == rankings
        assert_same_table(corpus.rankings, hand_built(rankings)[1])
        assert corpus.features.rows.tolist() == [row.tolist() for row in feature_rows.values()]

    def test_signal_features_rise_with_grade(self):
        corpus = generate_corpus(
            GeneratorConfig(n_queries=2000, ranking_depth=1,
                            grade_mixture=dict(JUDGED_POOL_MIXTURE)),
            seed=6,
        )
        means = [float(corpus.features.rows[corpus.queries.true_grade == g, 0].mean())
                 for g in GRADE_VALUES]
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
        write_rankings(hand_built(rankings)[1], str(path))
        assert load_rankings(str(path)) == rankings
        assert_same_table(load_ranking_table(str(path)), hand_built(rankings)[1])

    def test_generated_table_equals_its_written_file_reread(self, tmp_path):
        corpus = generate_corpus(GeneratorConfig(n_queries=25, ranking_depth=6), seed=12)
        write_rankings(corpus.rankings, str(tmp_path / "r.tsv"))
        assert_same_table(load_ranking_table(str(tmp_path / "r.tsv")), corpus.rankings)
        assert rankings_of(corpus.rankings) == load_rankings(str(tmp_path / "r.tsv"))

    def test_load_corpus_reloads_features_and_grades(self, tmp_path):
        corpus = generate_corpus(GeneratorConfig(n_queries=5, ranking_depth=3), seed=2)
        write_corpus(corpus, str(tmp_path))
        reloaded = load_corpus(str(tmp_path))
        assert reloaded.features.names == corpus.features.names
        assert reloaded.features.query_ids == corpus.features.query_ids
        assert np.array_equal(reloaded.features.rows, corpus.features.rows)
        assert reloaded.queries.query_ids == corpus.queries.query_ids
        assert np.array_equal(reloaded.queries.true_grade, corpus.queries.true_grade)

    def test_absent_grades_and_volumes_read_as_nan_and_zero_and_write_as_dashes(self, tmp_path):
        text = "q1\t100\t-\t-\nq2\t200\t0.25\t7\nq3\t300\t0.95\t-\nq4\t400\t-\t1\n"
        queries = load_queries(_write(tmp_path, "queries.tsv", text))
        assert queries.query_ids == ("q1", "q2", "q3", "q4")
        assert np.array_equal(queries.true_grade, [np.nan, 0.25, 0.95, np.nan], equal_nan=True)
        assert queries.volume.tolist() == [0, 7, 0, 1]
        write_queries(queries, str(tmp_path / "again.tsv"))
        assert (tmp_path / "again.tsv").read_text(encoding="utf-8") == text
