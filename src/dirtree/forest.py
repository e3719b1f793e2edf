"""Random forest classifier, built from scratch on CART with Gini impurity.

Everything is deterministic given (data, hyperparameters, seed): bootstrap
draws, per-split feature subsets and tie-breaking all follow fixed rules, so
two training runs serialize to byte-identical JSON.

Training bins the rows once per ``train`` call, as LightGBM does (Ke et
al., 2017): each feature's distinct values, ascending, take a run of
slots, the runs of all features lie end to end, and each row is coded once
as a tuple of slots; bootstraps draw coded rows.  A node keeps its rows
split by class, and its histogram as two dicts (negatives, positives) of
only the slots its rows have; the larger of two children takes its
parent's counts less its smaller sibling's, so only the smaller child's
rows are counted and a node's work grows with its rows, not with the
dataset's distinct values.  Each drawn feature's thresholds are then swept
in ascending order (see ``_Rows.search``).
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left, bisect_right
from collections import _count_elements  # the C helper Counter counts with
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import itemgetter, not_
from typing import NamedTuple

from .features import FEATURE_NAMES
from .jsonin import (
    SchemaError, array, finite, integer, items, json_path, load_json, nullable, obj, one_of, top,
)


class EmptyClassError(ValueError):
    """Raised when a dataset is missing one of the two classes."""


class Dataset:
    """Labeled feature rows; label 1 marks a directory page."""

    __slots__ = ("rows",)

    def __init__(self, rows: "list[tuple[tuple[float, ...], int]]"):
        arity = None
        for x, y in rows:
            if y not in (0, 1):
                raise ValueError(f"labels must be 0 or 1, got {y!r}")
            if arity is None:
                arity = len(x)
            elif len(x) != arity:
                raise ValueError("all rows must have the same number of features")
        self.rows = rows

    @property
    def n_features(self) -> int:
        return len(self.rows[0][0]) if self.rows else 0

    def class_counts(self) -> tuple[int, int]:
        """(negatives, positives)."""
        pos = sum(y for _, y in self.rows)
        return len(self.rows) - pos, pos


class _ForestHyperparamFields(NamedTuple):
    n_trees: int = 20
    max_depth: "int | None" = None  # None means unlimited
    max_features_fraction: float = 0.8
    min_samples_leaf: int = 2
    seed: int = 0


class ForestHyperparams(_ForestHyperparamFields):
    """Training settings, checked whenever a value is made: by position, by
    keyword, through ``_make`` or ``_replace``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if not 0 < self.max_features_fraction <= 1:
            raise ValueError("max_features_fraction must be in (0, 1]")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        return self

    @classmethod
    def _make(cls, iterable):
        # The base's ``_make`` (which ``_replace`` calls) skips ``__new__``.
        return cls(*iterable)


class LeafNode(NamedTuple):
    counts: tuple[int, int]  # (negatives, positives)

    @property
    def positive_fraction(self) -> float:
        total = self.counts[0] + self.counts[1]
        return self.counts[1] / total if total else 0.0


class SplitNode(NamedTuple):
    feature: int
    threshold: float
    left: "SplitNode | LeafNode"   # rows with x[feature] <= threshold
    right: "SplitNode | LeafNode"


class ForestModel(NamedTuple):
    hyperparams: ForestHyperparams
    feature_order: tuple[str, ...]
    trees: list["SplitNode | LeafNode"]
    importances: "list[float] | tuple[float, ...]" = ()


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
    for name, target in (("target_pos", target_pos), ("target_neg", target_neg)):
        if target < 1:
            raise ValueError(f"{name} must be >= 1, got {target}")
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


class _Bins:
    """Rows coded once: feature ``f``'s distinct values, ascending, are
    ``values[offsets[f]:offsets[f + 1]]``, each value's index its slot;
    ``rows`` holds each row as (its slots, its label)."""

    __slots__ = ("values", "offsets", "rows")

    def __init__(self, rows):
        xs = [x for x, _ in rows]
        self.values, self.offsets, codes = [], [0], []
        for f in range(len(xs[0]) if xs else 0):
            column = list(map(itemgetter(f), xs))  # the one read of each value
            values = sorted(set(column))
            codes.append(map(dict(zip(values, count(len(self.values)))).__getitem__, column))
            self.values += values
            self.offsets.append(len(self.values))
        coded = list(zip(*codes)) or [()] * len(xs)  # rows of no features
        self.rows = list(zip(coded, map(itemgetter(1), rows)))

    def node(self, rows):
        return _Rows(self, [x for x, y in rows if not y], [x for x, y in rows if y])


def _less(whole, part):
    """Slot counts ``whole`` minus ``part``, without the slots left empty."""
    counts = whole.copy()
    for slot, k in part.items():
        if left := counts.pop(slot) - k:
            counts[slot] = left
    return counts


class _Rows:
    """One node's coded rows split by class, and their histogram once built:
    the larger of two children keeps its parent and smaller sibling."""

    __slots__ = ("bins", "neg", "pos", "hist", "parent", "sibling")

    def __init__(self, bins, neg, pos):
        self.bins, self.neg, self.pos = bins, neg, pos
        self.hist = self.parent = self.sibling = None

    def histogram(self):
        """Negative and positive rows per slot held: counted in one pass per
        class, or for a larger child, its parent's less its smaller sibling's."""
        if self.hist is None:
            if self.parent is None:
                self.hist = [{}, {}]
                for counts, xs in zip(self.hist, (self.neg, self.pos)):
                    _count_elements(counts, chain.from_iterable(xs))
            else:
                pairs = zip(self.parent.hist, self.sibling.histogram())
                self.hist = [_less(whole, part) for whole, part in pairs]
        return self.hist

    def __len__(self):
        return len(self.neg) + len(self.pos)

    def counts(self) -> tuple[int, int]:
        return len(self.neg), len(self.pos)

    def split(self, f, thr):
        """(left, right) children: the rows with ``x[f] <= thr`` and the rest."""
        cut = bisect_right(self.bins.values, thr, *self.bins.offsets[f:f + 2])  # first slot right
        sides = []
        for xs in (self.neg, self.pos):
            go_left = list(map(cut.__gt__, map(itemgetter(f), xs)))
            sides.append((list(compress(xs, go_left)), list(compress(xs, map(not_, go_left)))))
        left, right = (_Rows(self.bins, *halves) for halves in zip(*sides))
        small, large = (left, right) if len(left) <= len(right) else (right, left)
        large.parent, large.sibling = self, small
        return left, right

    def search(self, feature_ids, min_leaf):
        """Lowest weighted-Gini split as ``(weighted_gini, feature, threshold)``, or None.

        Candidate thresholds are midpoints of consecutive distinct values.
        Ties break toward the lowest feature index, then the lowest threshold.

        Each feature's histogram (its distinct values ascending, with
        per-class row counts) is swept in ascending order with running
        (negative, positive) counts, and Gini is computed inline by the same
        float expression as ``gini``.  A row goes left when its value is
        ``<= thr``, so the left counts are the prefix through the lower
        value, except where the midpoint of two adjacent floats rounds up to
        the upper one or its sum overflows to ``inf`` (every row left) or
        ``-inf`` (none): only then is the prefix found by
        ``bisect_right(values, thr)``.  Only a strictly lower Gini replaces
        the best so far.
        """
        neg_counts, pos_counts = self.histogram()
        slots = sorted(neg_counts.keys() | pos_counts.keys())
        all_values, offsets = self.bins.values, self.bins.offsets
        n_neg, n_pos = self.counts()
        n = n_neg + n_pos
        best_w, best = math.inf, None
        for f in sorted(feature_ids):
            held = slots[bisect_left(slots, offsets[f]):bisect_left(slots, offsets[f + 1])]
            values = list(map(all_values.__getitem__, held))
            neg, pos = (list(map(c.get, held, repeat(0))) for c in (neg_counts, pos_counts))
            # For adjacent values lo < hi the rows at or below lo go left,
            # unless the midpoint rounds to hi or overflows.
            for lo, hi, ln, lp in zip(values, islice(values, 1, None),
                                      accumulate(neg), accumulate(pos)):
                thr = (lo + hi) / 2.0
                if not lo <= thr < hi:
                    k = bisect_right(values, thr)
                    ln, lp = sum(neg[:k]), sum(pos[:k])
                left_total = ln + lp
                if left_total < min_leaf:
                    continue
                right_total = n - left_total
                if right_total < min_leaf:
                    break  # the left side only grows from here
                rn, rp = n_neg - ln, n_pos - lp
                # gini() of each side, inlined.
                p0, p1 = ln / left_total, lp / left_total
                q0, q1 = rn / right_total, rp / right_total
                weighted = ((left_total / n) * (1.0 - p0 * p0 - p1 * p1)
                            + (right_total / n) * (1.0 - q0 * q0 - q1 * q1))
                # Features and thresholds come in ascending order, so only a
                # strictly lower Gini beats the (weighted, f, thr) best.
                if weighted < best_w:
                    best_w, best = weighted, (weighted, f, thr)
        return best


def _grow(node, depth, hp, n_features, n_root, rng, importance_acc):
    counts = node.counts()
    n = len(node)
    node_gini = gini(counts)
    if (
        node_gini == 0.0
        or (hp.max_depth is not None and depth >= hp.max_depth)
        or n < 2 * hp.min_samples_leaf
    ):
        return LeafNode(counts=counts)
    k = math.ceil(hp.max_features_fraction * n_features)
    feature_ids = rng.sample(range(n_features), k)
    best = node.search(feature_ids, hp.min_samples_leaf)
    if best is None:
        return LeafNode(counts=counts)
    _, f, thr = best
    left, right = node.split(f, thr)
    decrease = (n / n_root) * (
        node_gini
        - (len(left) / n) * gini(left.counts())
        - (len(right) / n) * gini(right.counts())
    )
    importance_acc[f] += decrease
    return SplitNode(
        feature=f,
        threshold=thr,
        left=_grow(left, depth + 1, hp, n_features, n_root, rng, importance_acc),
        right=_grow(right, depth + 1, hp, n_features, n_root, rng, importance_acc),
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
    bins = _Bins(d.rows)
    trees = []
    for i in range(hp.n_trees):
        rng = random.Random(splitmix64(hp.seed + i))
        sample = [bins.rows[rng.randrange(n)] for _ in range(n)]
        trees.append(_grow(bins.node(sample), 0, hp, n_features, n, rng, per_feature))
    total = sum(per_feature)
    if total > 0:
        importances = [v / total for v in per_feature]
    else:
        importances = [0.0] * n_features  # no split anywhere: degenerate forest
    names = FEATURE_NAMES if n_features == len(FEATURE_NAMES) else tuple(
        f"x{i + 1}" for i in range(n_features))
    return ForestModel(hyperparams=hp, feature_order=names, trees=trees, importances=importances)


def _leaf_for(node, x):
    at_most = getattr(x, "at_most", None) or (lambda f, t: x[f] <= t)
    while isinstance(node, SplitNode):
        node = node.left if at_most(node.feature, node.threshold) else node.right
    return node


def predict_score(model: ForestModel, x, threshold: "float | None" = None) -> float:
    """Mean positive fraction over the leaves the vector lands in.  ``x`` is
    read by feature index, or asked ``x.at_most(feature, threshold)`` when
    it has that method, so a ``FeatureVector`` computes only the features
    that the paths taken test, and sums a count only until its split is
    decided.

    With ``threshold`` the result is only on the same side of it as the
    mean (``>= threshold`` or not), and the vote stops once that side is
    known.  The trees are read grouped by the feature their root tests, in
    order of first appearance, so a page whose side the trees of its first
    feature settle reads no other feature.  After each group the mean is
    bounded by the in-order float sum with each unread tree's fraction set
    to 0.0 and then to 1.0; float addition is monotone, so the bounds hold
    exactly.
    """
    trees = model.trees
    if threshold is None:
        return _mean([_leaf_for(t, x).positive_fraction for t in trees])
    by_feature = {}
    for i, tree in enumerate(trees):
        by_feature.setdefault(getattr(tree, "feature", None), []).append(i)
    fractions = [None] * len(trees)
    for group in by_feature.values():
        for i in group:
            fractions[i] = _leaf_for(trees[i], x).positive_fraction
        low = _mean([0.0 if f is None else f for f in fractions])
        if low >= threshold:
            return low
        high = _mean([1.0 if f is None else f for f in fractions])
        if high < threshold:
            return high
    return low


def _mean(fractions: "list[float]") -> float:
    """The mean, added in order: ``sum`` compensates float additions from
    Python 3.12 on, and the bounds above need plain ones."""
    total = 0.0
    for f in fractions:
        total += f
    return total / len(fractions)


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


def _node_from_json(holder, key, where: tuple):
    node = obj(holder, key, where)
    where += (key,)
    if one_of(node, "kind", where, ("leaf", "split")) == "leaf":
        counts = array(node, "counts", where)
        at = where + ("counts",)
        if len(counts) != 2 or min(integer(counts, 0, at), integer(counts, 1, at)) < 0:
            raise SchemaError(json_path(at), "expected two non-negative integers")
        return LeafNode(counts=tuple(counts))
    feature = integer(node, "feature", where)
    if not 0 <= feature < len(FEATURE_NAMES):
        raise SchemaError(json_path(where + ("feature",)), f"must be in [0, {len(FEATURE_NAMES)})")
    return SplitNode(
        feature=feature,
        threshold=finite(node, "threshold", where),
        left=_node_from_json(node, "left", where),
        right=_node_from_json(node, "right", where),
    )


def model_to_json(model: ForestModel) -> dict:
    return {
        "version": 1,
        "hyperparams": model.hyperparams._asdict(),
        "feature_order": list(model.feature_order),
        "importances": list(model.importances),
        "trees": [_node_to_json(t) for t in model.trees],
    }


_WHERE = ("model: $",)


def model_from_json(data: "bytes | str | dict") -> ForestModel:
    """Parse and check a model; a malformed one raises ValueError."""
    model = top(data, _WHERE)
    version = integer(model, "version", _WHERE)
    if version != 1:
        raise SchemaError(json_path(_WHERE + ("version",)), "must be 1")
    hp = obj(model, "hyperparams", _WHERE)
    at = _WHERE + ("hyperparams",)
    values = dict(
        n_trees=integer(hp, "n_trees", at),
        max_depth=nullable(integer, hp, "max_depth", at),
        max_features_fraction=finite(hp, "max_features_fraction", at),
        min_samples_leaf=integer(hp, "min_samples_leaf", at),
        seed=integer(hp, "seed", at),
    )
    try:
        hp = ForestHyperparams(**values)
    except ValueError as e:
        raise SchemaError(json_path(at), str(e)) from None
    importances = items(finite, model, "importances", _WHERE)
    if array(model, "feature_order", _WHERE) != list(FEATURE_NAMES):
        raise SchemaError(json_path(_WHERE + ("feature_order",)), f"expected {list(FEATURE_NAMES)}")
    trees = items(_node_from_json, model, "trees", _WHERE)
    if not trees:
        raise SchemaError(json_path(_WHERE + ("trees",)), "a model must have at least one tree")
    return ForestModel(
        hyperparams=hp,
        feature_order=FEATURE_NAMES,
        trees=trees,
        importances=importances,
    )


def save_model(model: ForestModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_model(model))


def load_model(path: str) -> ForestModel:
    return model_from_json(load_json(path))


def dumps_model(model: ForestModel) -> str:
    """Canonical serialization: same model, same bytes."""
    return json.dumps(model_to_json(model), sort_keys=True, separators=(",", ":")) + "\n"
