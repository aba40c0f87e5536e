"""Recency-need regression with gradient boosted trees, plus the
assessment-side statistics: Cohen's kappa and the traffic coverage
report.

The ensemble is plain squared-loss boosting: the base prediction is the
mean target, every tree fits the current residuals by greedy variance
reduction over axis-aligned splits, and each tree's contribution is
shrunk by the learning rate.  Raw ensemble output is clipped into [0,1]
at prediction time, since the regression itself is unbounded while the
target is a probability.

The fit argsorts each feature column once.  A tree grows one depth level
at a time over that presorted (features x rows) index, cut down to the
tree's row sample: one stable sort of the index by node id puts each
node's rows in one slice, still in value order, and one
`kernels.best_split` call scans every feature of a node.  A node splits on
the first feature with the largest positive gain, a leaf holds the mean
residual of its rows summed in ascending row order, and nodes are
numbered in depth-first preorder, so the model is the one a recursive
per-node fit gives, bit for bit.
"""

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def _training_arrays(x, y) -> tuple[np.ndarray, np.ndarray]:
    """The (n, k) feature matrix and its n targets as float64 arrays.  A
    fault names the first bad row, its features checked before its target."""
    try:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
    except (TypeError, ValueError):  # ragged rows or non-numeric values
        raise ValidationError("training data is not a numeric matrix") from None
    if x.ndim != 2 or y.shape != x.shape[:1]:
        raise ValidationError(f"expected an (n, k) feature matrix and n targets, "
                              f"got shapes {x.shape} and {y.shape}")
    if not y.size:
        raise ValidationError("training dataset is empty")
    bad_x = ~np.isfinite(x).all(axis=1)
    bad = bad_x | ~((y >= 0.0) & (y <= 1.0))  # a NaN target is bad
    if bad.any():
        row = int(np.argmax(bad))
        if bad_x[row]:
            raise ValidationError(f"row {row}: feature values must be finite")
        raise ValidationError(f"row {row}: target out of [0,1]: {float(y[row])!r}")
    return x, y


def _take_rows(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """table[f, index[f]] for every row f, as np.take_along_axis(table,
    index, axis=1) gives it, through one flat gather, which is about three
    times faster."""
    offsets = np.arange(table.shape[0])[:, None] * table.shape[1]
    return table.ravel().take(index + offsets)


def _group_by_node(rows: np.ndarray, node_of: np.ndarray, n_nodes: int) -> np.ndarray:
    """Sort every row of the index stably by the node its entries belong
    to, so that each node's entries form one slice, still in value order.
    The key is the narrowest unsigned type that holds every node id: numpy
    radix-sorts keys of up to 16 bits, about ten times faster than int64."""
    key = node_of.astype(np.min_scalar_type(n_nodes - 1))[rows]
    return _take_rows(rows, np.argsort(key, axis=1, kind="stable"))


def _fit_tree(x_t: np.ndarray, rows: np.ndarray, sample: np.ndarray, residual: np.ndarray,
              max_depth: int) -> tuple[RegressionTree, np.ndarray]:
    """Grow one tree a depth level at a time; returns it and the leaf value
    of each row of the sample, the value the tree routes that row to.

    x_t is the (features, n) transposed design matrix, sample the tree's
    rows in ascending order, and rows its presorted index: row f lists the
    sample ordered by feature f's value, ties by row.  Nodes get ids in the
    order they are made (breadth-first); the finished tree is renumbered
    in depth-first preorder.
    """
    feature, threshold, left, right = [-1], [0.0], [-1], [-1]
    node_of = np.zeros(x_t.shape[1], dtype=np.int64)
    level = [(0, 0, sample.size)]  # (node, start, stop): its slice of every index row
    for depth in range(max_depth if x_t.shape[0] else 0):  # no feature column: one leaf
        values = _take_rows(x_t, rows)
        targets = residual[rows]
        # columns of this level's leaves: their ids are below every child's,
        # so they sort first and are cut off
        dropped = 0
        children = []
        for node, start, stop in level:
            gains, cuts = kernels.best_split(values[:, start:stop], targets[:, start:stop])
            best = int(np.argmax(gains))  # a gain tie goes to the lowest feature
            if gains[best] <= 0.0:
                dropped += stop - start
                continue
            cut = start + int(cuts[best])
            # threshold is the left boundary value; routing is <=
            feature[node], threshold[node] = best, float(values[best, cut - 1])
            left[node], right[node] = len(feature), len(feature) + 1
            for child, lo, hi in ((left[node], start, cut), (right[node], cut, stop)):
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                node_of[rows[best, lo:hi]] = child
                children.append((child, hi - lo))
        if not children or depth == max_depth - 1:  # the deepest level's children are leaves
            break
        rows = _group_by_node(rows, node_of, len(feature))[:, dropped:]
        level, start = [], 0
        for child, size in children:
            level.append((child, start, start + size))
            start += size

    # a leaf's value is the mean residual over its rows in ascending order
    owner = node_of[sample]
    leaf = np.zeros(len(feature), dtype=np.float64)
    for node in range(len(feature)):
        if feature[node] < 0:
            y = residual[sample[owner == node]]
            leaf[node] = float(y.sum() / y.size)
    return _preorder(feature, threshold, left, right, leaf), leaf[owner]


def _preorder(feature, threshold, left, right, leaf) -> RegressionTree:
    """The tree with its nodes renumbered in depth-first preorder, left
    subtree first."""
    order = []
    stack = [0]
    while stack:
        node = stack.pop()
        order.append(node)
        if feature[node] >= 0:
            stack += (right[node], left[node])
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    feature = np.asarray(feature, dtype=np.int64)[order]
    split = feature >= 0
    return RegressionTree(
        feature=feature,
        threshold=np.asarray(threshold, dtype=np.float64)[order],
        left=np.where(split, rank[np.asarray(left)[order]], -1),
        right=np.where(split, rank[np.asarray(right)[order]], -1),
        leaf=leaf[order],
    )


def train_gbrt(
    x,
    y,
    hyperparams: GbrtHyperparams = GbrtHyperparams(),
    seed: int = 0,
    feature_names: Sequence[str] | None = None,
) -> GbrtModel:
    """Fit the boosted ensemble on an (n, k) feature matrix `x` and its n
    targets `y` in [0,1].

    Deterministic given the seed; the seed only matters when subsampling
    is enabled.
    """
    x, y = _training_arrays(x, y)
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
    x_t = np.ascontiguousarray(x.T)
    presorted = np.argsort(x_t, axis=1, kind="stable")
    trees = []
    for _ in range(hyperparams.n_trees):
        residual = y - prediction
        if hyperparams.subsample < 1.0:
            take = max(1, int(round(y.size * hyperparams.subsample)))
            idx = np.sort(rng.permutation(y.size)[:take]).astype(np.int64)
            in_sample = np.zeros(y.size, dtype=np.bool_)
            in_sample[idx] = True
            rows = presorted[in_sample[presorted]].reshape(x_t.shape[0], take)
        else:
            idx = np.arange(y.size, dtype=np.int64)
            rows = presorted
        tree, fitted = _fit_tree(x_t, rows, idx, residual, hyperparams.max_depth)
        trees.append(tree)
        # a split cuts between distinct values, as routing by <= does, so a
        # fitted row's leaf is where the tree sends it; only rows left out
        # of the sample need the descent
        step = tree.apply(x) if idx.size < y.size else fitted
        prediction = prediction + hyperparams.learning_rate * step
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


def training_loss_curve(model: GbrtModel, x, y) -> np.ndarray:
    """Mean squared loss on the feature matrix `x` and targets `y` after
    0, 1, ..., n_trees stages."""
    x, y = _training_arrays(x, y)
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
    names, trees = document["feature_names"], document["trees"]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ValueError(f"feature_names must be a list of strings, got {json.dumps(names)}")
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise ValueError(f"feature_names repeats {repeated[0]!r}")
    if json_int(document["n_trees"]) != len(trees):
        raise ValueError(f"n_trees is {document['n_trees']} but there are {len(trees)} trees")
    return GbrtModel(
        feature_names=tuple(names),
        base_prediction=json_real(document["base_prediction"]),
        learning_rate=json_real(document["learning_rate"]),
        max_depth=json_int(document["max_depth"]),
        trees=tuple(_tree_from_nodes(nodes, len(names)) for nodes in trees),
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
