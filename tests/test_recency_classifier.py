"""Boosted-tree training, prediction, serialization, and the
assessment statistics (kappa, traffic coverage)."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshblend.corpus import (GRADE_VALUES, GeneratorConfig, JUDGED_POOL_MIXTURE,
                               generate_corpus, training_set)
from freshblend.errors import ValidationError
from freshblend.recency_classifier import (
    GbrtHyperparams,
    GbrtModel,
    cohen_kappa,
    deserialize_model,
    load_model,
    predict_batch,
    serialize_model,
    traffic_coverage,
    train_gbrt,
    training_loss_curve,
)
from freshblend.recency_classifier import _group_by_node  # the fit's node-id sort
from oracles import train_gbrt_per_node


def predict_one(model, vector):
    """The clipped prediction for one feature vector."""
    return float(predict_batch(model, np.asarray([vector], dtype=np.float64))[0])


class TestTraining:
    def test_constant_target_is_predicted_everywhere(self):
        model = train_gbrt([[0.1], [0.9], [0.4]], [0.25, 0.25, 0.25])
        for vector in ([0.0], [0.5], [123.0]):
            assert predict_one(model, vector) == pytest.approx(0.25, abs=1e-12)

    def test_perfectly_separable_binary_feature(self):
        n = 8
        x = [[0.0]] * n + [[1.0]] * n
        y = [0.0] * n + [0.95] * n
        params = GbrtHyperparams(n_trees=100, max_depth=1, learning_rate=0.1)
        model = train_gbrt(x, y, params)
        base = 0.475
        # residual shrinks geometrically, leaving (1-lr)^T of the gap
        remaining = (1.0 - params.learning_rate) ** params.n_trees
        for target in (0.0, 0.95):
            expected = target - remaining * (target - base)
            got = predict_one(model, [target / 0.95])
            assert got == pytest.approx(expected, abs=1e-9)
            assert abs(got - target) <= 0.01

    def test_training_loss_never_increases(self):
        rng = np.random.default_rng(8)
        x = rng.random((200, 4))
        y = np.clip(x[:, 0] * 0.8 + rng.normal(0, 0.1, 200), 0, 1)
        model = train_gbrt(x, y, GbrtHyperparams(n_trees=30))
        losses = training_loss_curve(model, x, y)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_subsampling_is_deterministic_in_seed(self):
        rng = np.random.default_rng(9)
        x = rng.random((100, 3))
        y = np.clip(x[:, 1], 0, 1)
        params = GbrtHyperparams(n_trees=10, subsample=0.5)
        a = train_gbrt(x, y, params, seed=3)
        b = train_gbrt(x, y, params, seed=3)
        grid = rng.random((20, 3))
        assert np.array_equal(predict_batch(a, grid), predict_batch(b, grid))


@st.composite
def bad_training_sets(draw):
    """A training set with non-finite features and out-of-range or NaN
    targets at random rows, and the message naming its lowest bad row:
    features are checked before the target of the same row."""
    n = draw(st.integers(1, 40))
    width = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.random((n, width))
    y = rng.choice([0.0, 0.25, 1.0, 0.5], n)
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, max(width - 1, 0)),
                      st.sampled_from([np.nan, np.inf, -np.inf]))
    bad_x = draw(st.lists(cells, max_size=3)) if width else []
    bad_y = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.sampled_from([np.nan, -1e-9, 1.5, np.inf, -np.inf])),
                          min_size=0 if bad_x else 1, max_size=3))
    for row, column, value in bad_x:
        x[row, column] = value
    for row, value in bad_y:
        y[row] = value
    row = min(r for r, *_ in bad_x + bad_y)
    if any(r == row for r, _, _ in bad_x):
        return x, y, f"row {row}: feature values must be finite"
    return x, y, f"row {row}: target out of [0,1]: {float(y[row])!r}"


class TestTrainingChecks:
    @pytest.mark.parametrize("case", [
        None,  # drawn by bad_training_sets
        (np.zeros(3), np.zeros(3), "got shapes (3,) and (3,)"),
        (np.zeros((3, 2, 1)), np.zeros(3), "got shapes (3, 2, 1) and (3,)"),
        (np.zeros((3, 2)), np.zeros(2), "got shapes (3, 2) and (2,)"),
        (np.zeros((3, 2)), np.zeros((3, 1)), "got shapes (3, 2) and (3, 1)"),
        (np.zeros((0, 2)), np.zeros(0), "training dataset is empty"),
        ([[0.0], [1.0, 2.0]], [0.0, 1.0], "training data is not a numeric matrix"),
    ], ids=["bad-rows", "1-d-matrix", "3-d-matrix", "short-targets", "2-d-targets", "empty",
            "ragged-rows"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_first_bad_row_is_named(self, case, data):
        x, y, message = case or data.draw(bad_training_sets())
        with pytest.raises(ValidationError, match=re.escape(message) + "$"):
            train_gbrt(x, y)


@st.composite
def fit_cases(draw):
    """A dataset with engineered ties, hyperparameters and a seed."""
    n = draw(st.integers(1, 300))
    width = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.random((n, width))
    decimals = draw(st.sampled_from([None, 0, 1, 2]))
    if decimals is not None:  # few distinct values per column
        x = np.round(x, decimals)
    constant = draw(st.one_of(st.none(), st.integers(0, width - 1)))
    if constant is not None:
        x[:, constant] = 0.5
    y = rng.choice(GRADE_VALUES, n) if draw(st.booleans()) else rng.random(n)
    params = GbrtHyperparams(n_trees=draw(st.integers(0, 8)), max_depth=draw(st.integers(1, 8)),
                             subsample=draw(st.sampled_from([1.0, 0.9, 0.5])))
    return x, y, params, draw(st.integers(0, 2**32 - 1))


class TestLevelWiseFit:
    """The presorted, level-by-level fit against the per-node oracle."""

    @given(fit_cases())
    @settings(max_examples=120, deadline=None)
    def test_model_bytes_equal_the_per_node_fit(self, case):
        x, y, params, seed = case
        assert serialize_model(train_gbrt(x, y, params, seed)) == serialize_model(
            train_gbrt_per_node(x, y, params, seed))

    def test_no_feature_columns_fit_single_leaf_trees(self):
        x, y = np.zeros((5, 0)), [0.0, 0.25, 0.25, 0.75, 0.95]
        params = GbrtHyperparams(n_trees=3, subsample=0.5)
        model = train_gbrt(x, y, params, seed=1)
        assert [tree.feature.tolist() for tree in model.trees] == [[-1]] * 3
        assert serialize_model(model) == serialize_model(train_gbrt_per_node(x, y, params, 1))

    @pytest.mark.parametrize("n_nodes", [2, 256, 257, 40_000, 70_000])
    def test_grouping_keeps_node_ids_past_every_key_width(self, n_nodes):
        # 255 and 65,535 ids fit 8 and 16 unsigned bits; a signed 16-bit
        # key would wrap past 32,767
        rng = np.random.default_rng(n_nodes)
        node_of = rng.integers(0, n_nodes, 70_000)
        node_of[:2] = (0, n_nodes - 1)
        rows = np.stack([rng.permutation(node_of.size) for _ in range(2)])
        expected = np.take_along_axis(
            rows, np.argsort(node_of[rows], axis=1, kind="stable"), axis=1)
        assert np.array_equal(_group_by_node(rows, node_of, n_nodes), expected)


class TestPredict:
    def _constant_model(self, base):
        return GbrtModel(feature_names=("f0",), base_prediction=base,
                         learning_rate=0.1, max_depth=3, trees=())

    def test_negative_raw_output_clips_to_zero(self):
        assert predict_one(self._constant_model(-0.1), [0.0]) == 0.0

    def test_in_range_output_passes_through(self):
        assert predict_one(self._constant_model(0.5), [0.0]) == 0.5

    def test_empty_ensemble_returns_base(self):
        assert predict_one(self._constant_model(0.7), [0.0]) == 0.7

    def test_schema_mismatch_rejected(self):
        model = self._constant_model(0.5)
        with pytest.raises(ValidationError):
            predict_one(model, [0.0, 1.0])
        with pytest.raises(ValidationError):
            predict_batch(model, np.zeros(1))

    def test_predictions_always_land_in_unit_interval(self):
        rng = np.random.default_rng(10)
        x = rng.random((150, 3))
        y = np.clip(1.5 * x[:, 0] - 0.2, 0, 1)
        model = train_gbrt(x, y, GbrtHyperparams(n_trees=40))
        out = predict_batch(model, rng.random((300, 3)) * 3 - 1)
        assert np.all((out >= 0.0) & (out <= 1.0))


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(11)
        x = rng.random((120, 5))
        y = np.clip(x[:, 2] + rng.normal(0, 0.05, 120), 0, 1)
        model = train_gbrt(x, y, GbrtHyperparams(n_trees=25))
        clone = deserialize_model(serialize_model(model))
        grid = rng.random((50, 5))
        assert np.array_equal(predict_batch(model, grid), predict_batch(clone, grid))

    def test_document_shape(self):
        model = train_gbrt([[0.0], [1.0]], [0.0, 0.95], GbrtHyperparams(n_trees=2, max_depth=1))
        import json

        document = json.loads(serialize_model(model))
        assert document["schema_version"] == 1
        assert document["n_trees"] == 2
        node = document["trees"][0][0]
        assert set(node) == {"feature", "threshold", "left", "right", "leaf"}

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(ValidationError):
            deserialize_model('{"schema_version": 99, "trees": []}')


def one_feature_model_bytes(fields=(), **split) -> bytes:
    """A one-feature, one-tree model whose root split and top-level
    `fields` are overridden."""
    model = train_gbrt([[0.0], [1.0]], [0.0, 0.95], GbrtHyperparams(n_trees=1, max_depth=1))
    document = json.loads(serialize_model(model))
    document["trees"][0][0].update(split)
    document.update(fields)
    return json.dumps(document).encode("utf-8")


class TestLoadModel:
    @pytest.mark.parametrize("data, message", [
        (one_feature_model_bytes(left=0, right=0), "child"),  # predict would never end
        (one_feature_model_bytes(feature=5), "split feature"),  # indexed past the row
        (b"\xff" + one_feature_model_bytes(), "utf-8"),
        (one_feature_model_bytes({"feature_names": "abc"}), "feature_names"),
        (one_feature_model_bytes({"feature_names": [1, None]}), "feature_names"),
        (one_feature_model_bytes({"n_trees": 7, "trees": []}), "n_trees"),
        (one_feature_model_bytes({"feature_names": ["a", "b", "a"]}), "feature_names repeats 'a'"),
    ], ids=["child-loop", "feature-out-of-range", "not-utf-8", "feature-names-a-string",
            "feature-names-not-strings", "n-trees-not-the-tree-count", "feature-name-repeated"])
    def test_malformed_model_is_a_validation_error_naming_the_file(self, tmp_path, data,
                                                                   message):
        path = tmp_path / "model.json"
        path.write_bytes(data)
        with pytest.raises(ValidationError, match="^" + re.escape(f"{path}: ") + f".*{message}"):
            load_model(str(path))


class TestKappa:
    def test_identical_sequences(self):
        assert cohen_kappa([0, 0.25, 0.75], [0, 0.25, 0.75]) == 1.0

    def test_hand_fixture(self):
        assert cohen_kappa((0, 0, 1, 1), (0, 1, 1, 1)) == 0.5

    def test_degenerate_total_chance_agreement(self):
        assert cohen_kappa([0.25, 0.25], [0.25, 0.25]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            cohen_kappa([0], [0, 1])


class TestTrafficCoverage:
    def test_reference_distribution(self):
        records = [(0.0, 9326), (0.25, 490), (0.75, 111), (0.95, 73)]
        coverage = traffic_coverage(records)
        assert coverage[0.25] == pytest.approx(4.9, abs=1e-12)
        assert coverage[0.75] == pytest.approx(1.11, abs=1e-12)
        assert coverage[0.95] == pytest.approx(0.73, abs=1e-12)

    def test_only_zero_grade_traffic(self):
        coverage = traffic_coverage([(0.0, 10), (0.0, 5)])
        assert coverage == {0.25: 0.0, 0.75: 0.0, 0.95: 0.0}

    def test_single_high_grade_record(self):
        assert traffic_coverage([(0.95, 3)])[0.95] == 100.0

    def test_nonpositive_volume_rejected(self):
        with pytest.raises(ValidationError):
            traffic_coverage([(0.25, 0)])


class TestOnSyntheticCorpus:
    def test_monotone_response_to_the_signal_feature(self):
        config = GeneratorConfig(n_queries=1500, ranking_depth=1,
                                 grade_mixture=dict(JUDGED_POOL_MIXTURE))
        corpus = generate_corpus(config, seed=21)
        x, y = training_set(corpus.features, corpus.judgments, corpus.queries.query_ids)
        model = train_gbrt(x, y, GbrtHyperparams(n_trees=60),
                           feature_names=corpus.features.names)
        predictions = predict_batch(model, x)
        signal = x[:, 0]
        deciles = np.quantile(signal, np.linspace(0, 1, 11))
        means = []
        for lo, hi in zip(deciles[:-1], deciles[1:]):
            mask = (signal >= lo) & (signal <= hi)
            if mask.sum():
                means.append(float(predictions[mask].mean()))
        assert all(b >= a - 0.01 for a, b in zip(means, means[1:]))
