"""Recency-need regression with gradient boosted trees, plus the
assessment-side statistics: preselection filter, Cohen's kappa and the
traffic coverage report.

The ensemble is plain squared-loss boosting: the base prediction is the
mean target, every tree fits the current residuals by greedy variance
reduction over axis-aligned splits, and each tree's contribution is
shrunk by the learning rate.  Raw ensemble output is clipped into [0,1]
at prediction time, since the regression itself is unbounded while the
target is a probability.
"""

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import kernels
from .corpus import GRADE_VALUES
from .errors import ParseError, ValidationError
from .fileio import atomic_write_text, json_int, json_real

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class GbrtHyperparams:
    n_trees: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    subsample: float = 1.0

    def __post_init__(self):
        if self.n_trees < 0:
            raise ValidationError(f"n_trees must be >= 0, got {self.n_trees}")
        if self.max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {self.max_depth}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValidationError(f"learning_rate out of (0,1]: {self.learning_rate!r}")
        if not 0.0 < self.subsample <= 1.0:
            raise ValidationError(f"subsample out of (0,1]: {self.subsample!r}")


@dataclass(frozen=True)
class RegressionTree:
    """Array-coded binary tree: feature[i] == -1 marks a leaf, routing is
    x <= threshold -> left."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        nodes = kernels.tree_apply(x, self.feature, self.threshold, self.left, self.right)
        return self.leaf[nodes]


@dataclass(frozen=True)
class GbrtModel:
    feature_names: tuple[str, ...]
    base_prediction: float
    learning_rate: float
    max_depth: int
    trees: tuple[RegressionTree, ...]

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def _dataset_arrays(dataset) -> tuple[np.ndarray, np.ndarray]:
    rows = []
    targets = []
    width = None
    for features, target in dataset:
        vector = np.asarray(features, dtype=np.float64)
        if vector.ndim != 1:
            raise ValidationError("feature vectors must be one-dimensional")
        if width is None:
            width = vector.size
        elif vector.size != width:
            raise ValidationError(
                f"inconsistent feature vector length: {vector.size} vs {width}"
            )
        if not np.all(np.isfinite(vector)):
            raise ValidationError("feature values must be finite")
        if not 0.0 <= target <= 1.0:
            raise ValidationError(f"target out of [0,1]: {target!r}")
        rows.append(vector)
        targets.append(float(target))
    if not rows:
        raise ValidationError("training dataset is empty")
    return np.stack(rows), np.asarray(targets, dtype=np.float64)


class _TreeBuilder:
    def __init__(self, x: np.ndarray, residual: np.ndarray, max_depth: int):
        self.x = x
        self.residual = residual
        self.max_depth = max_depth
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.leaf: list[float] = []

    def build(self, idx: np.ndarray, depth: int) -> int:
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.leaf.append(0.0)

        y = self.residual[idx]
        split = self._best_split(idx) if depth < self.max_depth and idx.size >= 2 else None
        if split is None:
            self.leaf[node] = float(y.sum() / y.size)
            return node

        feature, threshold = split
        mask = self.x[idx, feature] <= threshold
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = self.build(idx[mask], depth + 1)
        self.right[node] = self.build(idx[~mask], depth + 1)
        return node

    def _best_split(self, idx: np.ndarray):
        best_gain = 0.0
        best = None
        y = self.residual[idx]
        for feature in range(self.x.shape[1]):
            column = self.x[idx, feature]
            order = np.argsort(column, kind="stable")
            gain, cut = kernels.best_split(column[order], y[order])
            if cut >= 0 and gain > best_gain:
                best_gain = gain
                # threshold is the left boundary value; routing is <=
                best = (feature, float(column[order][cut - 1]))
        return best

    def tree(self) -> RegressionTree:
        return RegressionTree(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            leaf=np.asarray(self.leaf, dtype=np.float64),
        )


def train_gbrt(
    dataset,
    hyperparams: GbrtHyperparams = GbrtHyperparams(),
    seed: int = 0,
    feature_names: Sequence[str] | None = None,
) -> GbrtModel:
    """Fit the boosted ensemble on (feature vector, target) pairs.

    Deterministic given the seed; the seed only matters when subsampling
    is enabled.
    """
    x, y = _dataset_arrays(dataset)
    if feature_names is None:
        names = tuple(f"f{i}" for i in range(x.shape[1]))
    else:
        names = tuple(feature_names)
        if len(names) != x.shape[1]:
            raise ValidationError(
                f"{len(names)} feature names for {x.shape[1]} feature columns"
            )

    rng = np.random.default_rng(seed)
    base = float(y.sum() / y.size)
    prediction = np.full(y.size, base, dtype=np.float64)
    trees = []
    for _ in range(hyperparams.n_trees):
        residual = y - prediction
        if hyperparams.subsample < 1.0:
            take = max(1, int(round(y.size * hyperparams.subsample)))
            idx = np.sort(rng.permutation(y.size)[:take]).astype(np.int64)
        else:
            idx = np.arange(y.size, dtype=np.int64)
        builder = _TreeBuilder(x, residual, hyperparams.max_depth)
        builder.build(idx, 0)
        tree = builder.tree()
        trees.append(tree)
        prediction = prediction + hyperparams.learning_rate * tree.apply(x)
    return GbrtModel(names, base, hyperparams.learning_rate, hyperparams.max_depth, tuple(trees))


def predict_batch(model: GbrtModel, x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != len(model.feature_names):
        raise ValidationError(
            f"expected shape (n, {len(model.feature_names)}), got {x.shape}"
        )
    out = np.full(x.shape[0], model.base_prediction, dtype=np.float64)
    for tree in model.trees:
        out += model.learning_rate * tree.apply(x)
    return np.clip(out, 0.0, 1.0)


def training_loss_curve(model: GbrtModel, dataset) -> np.ndarray:
    """Mean squared training loss after 0, 1, ..., n_trees stages."""
    x, y = _dataset_arrays(dataset)
    prediction = np.full(y.size, model.base_prediction, dtype=np.float64)
    losses = [float(np.mean((y - prediction) ** 2))]
    for tree in model.trees:
        prediction = prediction + model.learning_rate * tree.apply(x)
        losses.append(float(np.mean((y - prediction) ** 2)))
    return np.asarray(losses)


# ---------------------------------------------------------------------------
# model serialization: a schema-versioned JSON document
# ---------------------------------------------------------------------------


def serialize_model(model: GbrtModel) -> str:
    trees = []
    for tree in model.trees:
        nodes = []
        for i in range(tree.feature.size):
            if tree.feature[i] < 0:
                nodes.append(
                    {"feature": None, "threshold": None, "left": None, "right": None,
                     "leaf": float(tree.leaf[i])}
                )
            else:
                nodes.append(
                    {"feature": int(tree.feature[i]), "threshold": float(tree.threshold[i]),
                     "left": int(tree.left[i]), "right": int(tree.right[i]), "leaf": None}
                )
        trees.append(nodes)
    document = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "feature_names": list(model.feature_names),
        "base_prediction": model.base_prediction,
        "learning_rate": model.learning_rate,
        "max_depth": model.max_depth,
        "n_trees": model.n_trees,
        "trees": trees,
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def deserialize_model(text: str) -> GbrtModel:
    try:
        document = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"model file is not valid JSON: {exc}") from None
    if not isinstance(document, dict) or document.get("schema_version") != MODEL_SCHEMA_VERSION:
        version = document.get("schema_version") if isinstance(document, dict) else None
        raise ValidationError(f"unsupported model schema version {version!r}")
    try:
        return _model_from_document(document)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed model document: {exc}") from None


def _index(value, low: int, high: int, what: str) -> int:
    if not low <= json_int(value) < high:
        raise ValueError(f"{what} {value!r} is not in [{low}, {high})")
    return value


def _tree_from_nodes(nodes: list, n_features: int) -> RegressionTree:
    """Check one serialized tree: a split names a feature of the model and
    two children after it, so that every path ends at a leaf with a value."""
    if not nodes:
        raise ValueError("a tree has no nodes")
    size = len(nodes)
    feature, left, right = np.full((3, size), -1, dtype=np.int64)
    threshold, leaf = np.zeros((2, size), dtype=np.float64)
    for i, node in enumerate(nodes):
        if node["feature"] is None:
            leaf[i] = json_real(node["leaf"])
        else:
            feature[i] = _index(node["feature"], 0, n_features, "split feature")
            threshold[i] = json_real(node["threshold"])
            left[i] = _index(node["left"], i + 1, size, f"node {i} child")
            right[i] = _index(node["right"], i + 1, size, f"node {i} child")
    return RegressionTree(feature, threshold, left, right, leaf)


def _model_from_document(document: dict) -> GbrtModel:
    names = tuple(document["feature_names"])
    return GbrtModel(
        feature_names=names,
        base_prediction=json_real(document["base_prediction"]),
        learning_rate=json_real(document["learning_rate"]),
        max_depth=json_int(document["max_depth"]),
        trees=tuple(_tree_from_nodes(nodes, len(names)) for nodes in document["trees"]),
    )


def save_model(model: GbrtModel, path: str) -> None:
    atomic_write_text(path, serialize_model(model))


def load_model(path: str) -> GbrtModel:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return deserialize_model(data.decode("utf-8"))
    except (UnicodeDecodeError, ValidationError) as exc:
        raise ParseError(str(exc), path) from None


# ---------------------------------------------------------------------------
# assessment-side statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreselectThresholds:
    """Per-feature minimum values; features without an entry cannot
    qualify a query for assessment."""

    thresholds: Mapping[str, float]

    def __post_init__(self):
        for name, value in self.thresholds.items():
            if not math.isfinite(value):
                raise ValidationError(f"threshold for {name!r} is not finite")


def preselect(features, thresholds: PreselectThresholds) -> bool:
    """True when at least one thresholded feature strictly exceeds its
    threshold; vacuously true when no thresholds are configured."""
    if isinstance(features, Mapping):
        by_name = dict(features)
    else:
        by_name = {name: value for name, value in features}
    if not thresholds.thresholds:
        return True
    for name, minimum in thresholds.thresholds.items():
        if name not in by_name:
            raise ValidationError(f"threshold names unknown feature {name!r}")
        if by_name[name] > minimum:
            return True
    return False


def cohen_kappa(a: Sequence, b: Sequence) -> float:
    """Chance-corrected agreement; 1.0 when chance agreement is total."""
    if len(a) != len(b):
        raise ValidationError(f"label sequences differ in length: {len(a)} vs {len(b)}")
    if not a:
        raise ValidationError("label sequences must be non-empty")
    n = len(a)
    observed = sum(1 for x, y in zip(a, b) if x == y) / n
    labels = set(a) | set(b)
    expected = 0.0
    for label in labels:
        expected += (sum(1 for x in a if x == label) / n) * (
            sum(1 for y in b if y == label) / n
        )
    if expected == 1.0:
        return 1.0
    return (observed - expected) / (1.0 - expected)


def average_pairwise_kappa(assessor_matrix: Sequence[Sequence]) -> float:
    """Mean of cohen_kappa over all unordered assessor pairs."""
    assessors = [list(column) for column in assessor_matrix]
    if len(assessors) < 2:
        raise ValidationError("need at least 2 assessors")
    total = 0.0
    pairs = 0
    for i in range(len(assessors)):
        for j in range(i + 1, len(assessors)):
            total += cohen_kappa(assessors[i], assessors[j])
            pairs += 1
    return total / pairs


def traffic_coverage(records: Iterable[tuple[float, int]]) -> dict[float, float]:
    """Volume-weighted percent of total traffic per nonzero grade."""
    volume_by_grade = {grade: 0 for grade in GRADE_VALUES}
    total = 0
    for grade, volume in records:
        if grade not in GRADE_VALUES:
            raise ValidationError(f"grade {grade!r} not in {GRADE_VALUES}")
        if volume <= 0:
            raise ValidationError(f"volume must be positive, got {volume}")
        volume_by_grade[grade] += volume
        total += volume
    if total == 0:
        return {grade: 0.0 for grade in GRADE_VALUES if grade != 0.0}
    return {
        grade: volume_by_grade[grade] * 100.0 / total
        for grade in GRADE_VALUES
        if grade != 0.0
    }
