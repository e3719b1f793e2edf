"""Random forest classifier, built from scratch on CART with Gini impurity.

Everything is deterministic given (data, hyperparameters, seed): bootstrap
draws, per-split feature subsets and tie-breaking all follow fixed rules, so
two training runs serialize to byte-identical JSON.
"""

from __future__ import annotations

import json
import math
import random
import sys
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter

from .features import FEATURE_NAMES
from .visual import decode_json


class EmptyClassError(ValueError):
    """Raised when a dataset is missing one of the two classes."""


@dataclass
class Dataset:
    """Labeled feature rows; label 1 marks a directory page."""

    rows: list[tuple[tuple[float, ...], int]]

    def __post_init__(self):
        arity = None
        for x, y in self.rows:
            if y not in (0, 1):
                raise ValueError(f"labels must be 0 or 1, got {y!r}")
            if arity is None:
                arity = len(x)
            elif len(x) != arity:
                raise ValueError("all rows must have the same number of features")

    @property
    def n_features(self) -> int:
        return len(self.rows[0][0]) if self.rows else 0

    def class_counts(self) -> tuple[int, int]:
        return _class_counts(self.rows)


@dataclass(frozen=True)
class ForestHyperparams:
    n_trees: int = 20
    max_depth: "int | None" = None  # None means unlimited
    max_features_fraction: float = 0.8
    min_samples_leaf: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if not 0 < self.max_features_fraction <= 1:
            raise ValueError("max_features_fraction must be in (0, 1]")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")

    def to_json(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "max_features_fraction": self.max_features_fraction,
            "min_samples_leaf": self.min_samples_leaf,
            "seed": self.seed,
        }


@dataclass
class LeafNode:
    counts: tuple[int, int]  # (negatives, positives)

    @property
    def positive_fraction(self) -> float:
        total = self.counts[0] + self.counts[1]
        return self.counts[1] / total if total else 0.0


@dataclass
class SplitNode:
    feature: int
    threshold: float
    left: "SplitNode | LeafNode"   # rows with x[feature] <= threshold
    right: "SplitNode | LeafNode"


@dataclass
class ForestModel:
    hyperparams: ForestHyperparams
    feature_order: tuple[str, ...]
    trees: list["SplitNode | LeafNode"]
    importances: list[float] = field(default_factory=list)


def splitmix64(x: int) -> int:
    """Mix an integer into a well-scrambled 64-bit value."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def gini(counts: tuple[int, int]) -> float:
    total = counts[0] + counts[1]
    if total == 0:
        return 0.0
    p0 = counts[0] / total
    p1 = counts[1] / total
    return 1.0 - p0 * p0 - p1 * p1


def resample(d: Dataset, target_pos: int, target_neg: int, seed: int) -> Dataset:
    """Rebalance to exact class counts.

    Sampling is uniform without replacement when the target does not exceed
    the supply, with replacement otherwise.
    """
    pos = [row for row in d.rows if row[1] == 1]
    neg = [row for row in d.rows if row[1] == 0]
    if not pos or not neg:
        raise EmptyClassError("resample requires at least one row of each class")
    rng = random.Random(splitmix64(seed))

    def draw(rows, target):
        if target <= len(rows):
            return rng.sample(rows, target)
        return rng.choices(rows, k=target)

    return Dataset(rows=draw(pos, target_pos) + draw(neg, target_neg))


def _best_split(rows, feature_ids, min_leaf):
    """Lowest weighted-Gini split over the candidate features.

    Candidate thresholds are midpoints of consecutive distinct values.  Ties
    break toward the lowest feature index, then the lowest threshold.

    Each feature's values are counted per class once, then the thresholds
    are swept in ascending order with running (negative, positive) counts.
    A row goes left when its value is ``<= thr``, so the left counts are the
    prefix up to ``bisect_right(values, thr)``: a midpoint of two adjacent
    floats may round up to the upper value, and one whose sum overflows is
    ``inf`` and sends every row left.
    """
    n = len(rows)
    neg = [x for x, y in rows if not y]
    pos = [x for x, y in rows if y]
    n_neg, n_pos = len(neg), len(pos)
    best = None  # (weighted_gini, feature, threshold)
    for f in sorted(feature_ids):
        value_of = itemgetter(f)
        neg_counts = Counter(map(value_of, neg))
        pos_counts = Counter(map(value_of, pos))
        values = sorted(neg_counts.keys() | pos_counts.keys())
        below_neg = [0, *accumulate(neg_counts[v] for v in values)]
        below_pos = [0, *accumulate(pos_counts[v] for v in values)]
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            k = bisect_right(values, thr)
            ln, lp = below_neg[k], below_pos[k]
            rn, rp = n_neg - ln, n_pos - lp
            left_total = ln + lp
            right_total = rn + rp
            if left_total < min_leaf or right_total < min_leaf:
                continue
            weighted = (left_total / n) * gini((ln, lp)) + (right_total / n) * gini((rn, rp))
            key = (weighted, f, thr)
            if best is None or key < best:
                best = key
    return best


def _class_counts(rows) -> tuple[int, int]:
    """(negatives, positives) of labeled rows."""
    pos = sum(y for _, y in rows)
    return len(rows) - pos, pos


def _grow(rows, depth, hp, n_features, n_root, rng, importance_acc):
    counts = _class_counts(rows)
    node_gini = gini(counts)
    if (
        node_gini == 0.0
        or (hp.max_depth is not None and depth >= hp.max_depth)
        or len(rows) < 2 * hp.min_samples_leaf
    ):
        return LeafNode(counts=counts)
    k = math.ceil(hp.max_features_fraction * n_features)
    feature_ids = rng.sample(range(n_features), k)
    best = _best_split(rows, feature_ids, hp.min_samples_leaf)
    if best is None:
        return LeafNode(counts=counts)
    _, f, thr = best
    left_rows = [row for row in rows if row[0][f] <= thr]
    right_rows = [row for row in rows if row[0][f] > thr]
    decrease = (len(rows) / n_root) * (
        node_gini
        - (len(left_rows) / len(rows)) * gini(_class_counts(left_rows))
        - (len(right_rows) / len(rows)) * gini(_class_counts(right_rows))
    )
    importance_acc[f] += decrease
    return SplitNode(
        feature=f,
        threshold=thr,
        left=_grow(left_rows, depth + 1, hp, n_features, n_root, rng, importance_acc),
        right=_grow(right_rows, depth + 1, hp, n_features, n_root, rng, importance_acc),
    )


def train(d: Dataset, hp: "ForestHyperparams | None" = None) -> ForestModel:
    """Train a forest on a dataset containing both classes.

    The procedure is fully pinned down so results are reproducible: tree i
    uses ``random.Random(splitmix64(seed + i))``, draws a bootstrap of n rows
    via n ``randrange(n)`` calls, then grows depth-first (left child before
    right), sampling ``ceil(max_features_fraction * n_features)`` candidate
    features without replacement at each split via ``rng.sample``.
    """
    hp = hp or ForestHyperparams()
    neg, pos = d.class_counts()
    if not neg or not pos:
        raise EmptyClassError("training requires at least one row of each class")
    n = len(d.rows)
    n_features = d.n_features
    per_feature = [0.0] * n_features
    trees = []
    for i in range(hp.n_trees):
        rng = random.Random(splitmix64(hp.seed + i))
        sample = [d.rows[rng.randrange(n)] for _ in range(n)]
        trees.append(_grow(sample, 0, hp, n_features, len(sample), rng, per_feature))
    total = sum(per_feature)
    if total > 0:
        importances = [v / total for v in per_feature]
    else:
        importances = [0.0] * n_features  # no split anywhere: degenerate forest
    if n_features == len(FEATURE_NAMES):
        names = FEATURE_NAMES
    else:
        names = tuple(f"x{i + 1}" for i in range(n_features))
    return ForestModel(
        hyperparams=hp,
        feature_order=names,
        trees=trees,
        importances=importances,
    )


def _leaf_for(node, x):
    while isinstance(node, SplitNode):
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node


def predict_score(model: ForestModel, x) -> float:
    """Mean positive fraction over the leaves the vector lands in."""
    if hasattr(x, "as_list"):
        x = x.as_list()
    return sum(_leaf_for(t, x).positive_fraction for t in model.trees) / len(model.trees)


def predict(model: ForestModel, x) -> tuple[int, float]:
    """(label, score); label 1 when the score reaches 0.5."""
    score = predict_score(model, x)
    return (1 if score >= 0.5 else 0), score


def _node_to_json(node) -> dict:
    if isinstance(node, LeafNode):
        return {"kind": "leaf", "counts": [node.counts[0], node.counts[1]]}
    return {
        "kind": "split",
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_json(node.left),
        "right": _node_to_json(node.right),
    }


def _nonneg_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _node_from_json(obj):
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "leaf":
        counts = obj.get("counts")
        if not (isinstance(counts, list) and len(counts) == 2 and all(map(_nonneg_int, counts))):
            raise ValueError(f"model leaf counts must be two non-negative integers: {counts!r}")
        return LeafNode(counts=tuple(counts))
    if kind != "split":
        raise ValueError(f"model node kind must be 'leaf' or 'split', got {kind!r}")
    feature, threshold = obj.get("feature"), obj.get("threshold")
    if not (_nonneg_int(feature) and feature < len(FEATURE_NAMES)):
        raise ValueError(f"model split feature out of range: {feature!r}")
    # Bounded by the largest float: rejects NaN, infinities and integers
    # too large to convert.
    if not (isinstance(threshold, (int, float)) and abs(threshold) <= sys.float_info.max):
        raise ValueError(f"model split threshold must be a finite number: {threshold!r}")
    return SplitNode(
        feature=feature,
        threshold=float(threshold),
        left=_node_from_json(obj.get("left")),
        right=_node_from_json(obj.get("right")),
    )


def model_to_json(model: ForestModel) -> dict:
    return {
        "version": 1,
        "hyperparams": model.hyperparams.to_json(),
        "feature_order": list(model.feature_order),
        "importances": list(model.importances),
        "trees": [_node_to_json(t) for t in model.trees],
    }


def model_from_json(data: "bytes | str | dict") -> ForestModel:
    """Parse and check a model; a malformed one raises ValueError."""
    if isinstance(data, (bytes, str)):
        data = decode_json(data)
    if not isinstance(data, dict):
        raise ValueError("model must be a JSON object")
    if data.get("version") != 1:
        raise ValueError(f"unsupported model version: {data.get('version')!r}")
    try:
        hp_obj = data["hyperparams"]
        hp = ForestHyperparams(
            n_trees=int(hp_obj["n_trees"]),
            max_depth=None if hp_obj["max_depth"] is None else int(hp_obj["max_depth"]),
            max_features_fraction=float(hp_obj["max_features_fraction"]),
            min_samples_leaf=int(hp_obj["min_samples_leaf"]),
            seed=int(hp_obj["seed"]),
        )
        importances = [float(v) for v in data["importances"]]
        feature_order, trees = data["feature_order"], data["trees"]
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed model, missing or mistyped: {e}") from e
    if feature_order != list(FEATURE_NAMES):
        raise ValueError(f"model feature_order must be {list(FEATURE_NAMES)}")
    if not isinstance(trees, list) or not trees:
        raise ValueError("model must have at least one tree")
    return ForestModel(
        hyperparams=hp,
        feature_order=FEATURE_NAMES,
        trees=[_node_from_json(t) for t in trees],
        importances=importances,
    )


def save_model(model: ForestModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_model(model))


def load_model(path: str) -> ForestModel:
    with open(path, "rb") as f:
        return model_from_json(f.read())


def dumps_model(model: ForestModel) -> str:
    """Canonical serialization: same model, same bytes."""
    return json.dumps(model_to_json(model), sort_keys=True, separators=(",", ":")) + "\n"
