import hashlib
import math
import random
import re
import sys
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from dirtree import forest
from dirtree.features import FEATURE_NAMES, FeatureVector
from dirtree.forest import (
    Dataset,
    EmptyClassError,
    ForestHyperparams,
    ForestModel,
    LeafNode,
    SplitNode,
    _Bins,
    dumps_model,
    gini,
    load_model,
    model_from_json,
    model_to_json,
    predict_score,
    resample,
    save_model,
    splitmix64,
    train,
)

from conftest import make_margin_rows


def test_splitmix64_reference_vectors():
    # first two outputs of the reference generator seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4


def test_splitmix64_range_and_determinism():
    for x in (0, 1, 2, 2**63, 2**64 - 1):
        v = splitmix64(x)
        assert 0 <= v < 2**64
        assert splitmix64(x) == v
    assert splitmix64(3) != splitmix64(4)


def test_gini():
    assert gini((0, 0)) == 0.0
    assert gini((5, 0)) == 0.0
    assert gini((0, 5)) == 0.0
    assert gini((1, 1)) == pytest.approx(0.5)
    assert gini((3, 1)) == pytest.approx(0.375)


def test_dataset_validation():
    with pytest.raises(ValueError, match="labels"):
        Dataset([((1.0,), 2)])
    with pytest.raises(ValueError, match="same number"):
        Dataset([((1.0,), 0), ((1.0, 2.0), 1)])
    d = Dataset([((1.0, 2.0), 0), ((3.0, 4.0), 1), ((5.0, 6.0), 1)])
    assert d.n_features == 2
    assert d.class_counts() == (1, 2)
    assert Dataset([]).n_features == 0


# --- resampling ---

def _unique_rows(n, label):
    return [((float(i),), label) for i in range(n)]


def test_resample_deterministic():
    d = Dataset(_unique_rows(50, 1) + [((100.0 + i,), 0) for i in range(50)])
    a = resample(d, 20, 30, seed=3)
    b = resample(d, 20, 30, seed=3)
    assert a.rows == b.rows
    assert resample(d, 20, 30, seed=4).rows != a.rows


def test_resample_class_order_and_counts():
    d = Dataset(_unique_rows(10, 1) + [((100.0 + i,), 0) for i in range(10)])
    out = resample(d, 4, 7, seed=0)
    assert [y for _, y in out.rows] == [1] * 4 + [0] * 7


def test_undersample_has_no_duplicates():
    d = Dataset(_unique_rows(30, 1) + [((100.0,), 0)])
    out = resample(d, 12, 1, seed=5)
    pos_rows = [r for r in out.rows if r[1] == 1]
    assert len(pos_rows) == len(set(pos_rows)) == 12
    assert all(r in d.rows for r in out.rows)


def test_oversample_repeats_source_rows():
    d = Dataset(_unique_rows(3, 1) + [((100.0,), 0)])
    out = resample(d, 10, 2, seed=5)
    pos_rows = [r for r in out.rows if r[1] == 1]
    assert len(pos_rows) == 10
    assert set(pos_rows) <= set(_unique_rows(3, 1))
    assert len(set(pos_rows)) < 10  # pigeonhole: some row repeats


def test_resample_requires_both_classes():
    with pytest.raises(EmptyClassError):
        resample(Dataset(_unique_rows(5, 1)), 2, 2, seed=0)


def test_resample_rejects_counts_below_one():
    d = Dataset(_unique_rows(5, 1) + [((100.0,), 0)])
    for pos, neg, message in [(0, 2, "target_pos must be >= 1, got 0"),
                              (2, -1, "target_neg must be >= 1, got -1")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            resample(d, pos, neg, seed=0)


# --- split search ---

def _brute_best(rows, feature_ids, min_leaf):
    """Exhaustive reference: exact rational arithmetic, same tie-break."""
    n = len(rows)
    best = None
    for f in sorted(feature_ids):
        values = sorted({x[f] for x, _ in rows})
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            left = [(x, y) for x, y in rows if x[f] <= thr]
            right = [(x, y) for x, y in rows if x[f] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue

            def g(rs):
                p = sum(y for _, y in rs)
                return 1 - Fraction(p, len(rs)) ** 2 - Fraction(len(rs) - p, len(rs)) ** 2

            w = Fraction(len(left), n) * g(left) + Fraction(len(right), n) * g(right)
            if best is None or (w, f, thr) < best:
                best = (w, f, thr)
    return best


def _search_rows(rows, feature_ids, min_leaf):
    """The split search ``train`` runs, at a root node of ``rows`` binned for it."""
    bins = _Bins(rows)
    return bins.node(bins.rows).search(feature_ids, min_leaf)


def test_best_split_four_point_line():
    rows = [((0.0,), 0), ((2.0,), 0), ((10.0,), 1), ((12.0,), 1)]
    got = _search_rows(rows, [0], 1)
    assert got == (0.0, 0, 6.0)
    assert 2.0 < got[2] < 10.0


def test_best_split_midpoint_and_min_leaf():
    rows = [((0.0,), 0), ((1.0,), 1)]
    assert _search_rows(rows, [0], 1) == (0.0, 0, 0.5)
    assert _search_rows(rows, [0], 2) is None
    assert _search_rows([((5.0,), 0), ((5.0,), 1)], [0], 1) is None


def _float_edge_cases():
    """(rows, feature_ids, min_leaf) cases where float rounding decides the split."""
    up = math.nextafter(1.0, 2.0)
    up2 = math.nextafter(up, 2.0)
    assert (up + up2) / 2.0 == up2  # the midpoint rounds up to the upper value
    big = sys.float_info.max
    assert big + big / 2 == math.inf
    rng = random.Random(7)
    return [
        # Adjacent floats: the first threshold sends the upper value left too.
        ([((up,), 0), ((up2,), 1), ((3.0,), 1)], [0], 1),
        ([((up,), 1), ((up2,), 0), ((up2,), 1), ((3.0,), 0)], [0], 1),
        # Signed zeros are one value.
        ([((-0.0,), 0), ((0.0,), 1), ((1.0,), 1), ((-1.0,), 0)], [0], 1),
        ([((0.0, -0.0), 1), ((-0.0, 0.0), 0), ((2.0, -3.0), 1)], [0, 1], 1),
        # Sums that overflow to +inf (every row left) or -inf (none left).
        ([((big / 2,), 0), ((big,), 1), ((0.0,), 0)], [0], 1),
        ([((-big,), 1), ((-big / 2,), 0), ((0.0,), 1)], [0], 1),
        # Many distinct floats.
        *(
            (
                [((rng.uniform(-1e3, 1e3), rng.random()), rng.randint(0, 1)) for _ in range(40)],
                [0, 1],
                rng.randint(1, 3),
            )
            for _ in range(10)
        ),
    ]


def test_best_split_matches_brute_force():
    rng = random.Random(42)
    cases = []
    for trial in range(60):
        n = rng.randint(2, 12)
        n_feat = rng.randint(1, 3)
        rows = [
            (tuple(float(rng.randint(0, 4)) for _ in range(n_feat)), rng.randint(0, 1))
            for _ in range(n)
        ]
        cases.append((rows, list(range(n_feat)), rng.randint(1, 2)))
    for rows, feature_ids, min_leaf in cases + _float_edge_cases():
        got = _search_rows(rows, feature_ids, min_leaf)
        want = _brute_best(rows, feature_ids, min_leaf)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert (got[1], got[2]) == (want[1], want[2])
            assert got[0] == pytest.approx(float(want[0]), abs=1e-12)


class _CountingVector(tuple):
    reads = 0

    def __getitem__(self, i):
        _CountingVector.reads += 1
        return tuple.__getitem__(self, i)


def test_best_split_reads_each_value_once():
    rng = random.Random(3)
    rows = [(_CountingVector((rng.random(), rng.random())), i % 2) for i in range(50)]
    _CountingVector.reads = 0
    assert _search_rows(rows, [0, 1], 1) is not None
    # A rescan per candidate threshold would read about 2 * 50 * 49 values.
    assert _CountingVector.reads == 2 * len(rows)


# --- training ---

def test_train_requires_both_classes():
    with pytest.raises(EmptyClassError):
        train(Dataset(_unique_rows(5, 1)))


def test_train_deterministic_bytes():
    d = Dataset(make_margin_rows(30, 30, seed=1))
    hp = ForestHyperparams(n_trees=8, seed=5)
    assert dumps_model(train(d, hp)) == dumps_model(train(d, hp))
    assert dumps_model(train(d, ForestHyperparams(n_trees=8, seed=6))) != dumps_model(train(d, hp))


def _noisy_rows(n, seed, grid, n_features=5):
    """Two overlapping classes with about 15% of the labels flipped, on a
    coarse grid or as continuous draws."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        y = i % 2
        if grid:
            x = tuple(float(rng.randint(0, 6) + 2 * y) for _ in range(n_features))
        else:
            x = tuple(rng.gauss(y, 1.5) for _ in range(n_features))
        rows.append((x, 1 - y if rng.random() < 0.15 else y))
    return rows


@pytest.mark.parametrize(
    "grid, hp, digest",
    [
        (True, ForestHyperparams(n_trees=6, seed=3),
         "84ba420470590ae68892f75c08bd08ebb9d5956f3b9b09d01e79caab0afea523"),
        (False, ForestHyperparams(n_trees=4, min_samples_leaf=1, max_features_fraction=0.6, seed=8),
         "e08a550109c08b68ff7cc95dab8df44d9326d714cf31bdf4eed33320039a875b"),
    ],
    ids=["grid", "continuous"],
)
def test_model_bytes_pinned(grid, hp, digest):
    # Digests of models trained before the split search was rewritten: the
    # same data and hyperparameters must keep giving the same bytes.
    model = train(Dataset(_noisy_rows(160, 11, grid)), hp)
    assert hashlib.sha256(dumps_model(model).encode()).hexdigest() == digest


def test_bench_shaped_model_bytes_pinned():
    # Shaped like the training benchmark's rows: 15 features on a coarse
    # grid, flipped labels, duplicate rows and default hyperparameters.  The
    # digest was taken before rows were binned once per training call.
    rows = _noisy_rows(400, 23, True, 15)
    rows += random.Random(23).choices(rows, k=100)
    model = train(Dataset(rows))
    assert hashlib.sha256(dumps_model(model).encode()).hexdigest() == (
        "9bf56630b268fb2b1e1a629a6f91be24bcab36c5e9c6d77f6908abbfa886003c")


# --- reference: the count-and-sweep search before histogram subtraction ---
# Each node recounts every drawn feature over all of its rows and re-sums
# its children's class counts.  Kept to pin the current search to the same
# models, and to count the feature values it reads.

def _ref_class_counts(rows):
    pos = sum(y for _, y in rows)
    return len(rows) - pos, pos


def _ref_best_split(rows, feature_ids, min_leaf):
    n = len(rows)
    neg = [x for x, y in rows if not y]
    pos = [x for x, y in rows if y]
    n_neg, n_pos = len(neg), len(pos)
    best = None
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


def _ref_grow(rows, depth, hp, n_features, n_root, rng, importance_acc):
    counts = _ref_class_counts(rows)
    node_gini = gini(counts)
    if (
        node_gini == 0.0
        or (hp.max_depth is not None and depth >= hp.max_depth)
        or len(rows) < 2 * hp.min_samples_leaf
    ):
        return LeafNode(counts=counts)
    k = math.ceil(hp.max_features_fraction * n_features)
    feature_ids = rng.sample(range(n_features), k)
    best = _ref_best_split(rows, feature_ids, hp.min_samples_leaf)
    if best is None:
        return LeafNode(counts=counts)
    _, f, thr = best
    left_rows = [row for row in rows if row[0][f] <= thr]
    right_rows = [row for row in rows if row[0][f] > thr]
    decrease = (len(rows) / n_root) * (
        node_gini
        - (len(left_rows) / len(rows)) * gini(_ref_class_counts(left_rows))
        - (len(right_rows) / len(rows)) * gini(_ref_class_counts(right_rows))
    )
    importance_acc[f] += decrease
    return SplitNode(
        feature=f,
        threshold=thr,
        left=_ref_grow(left_rows, depth + 1, hp, n_features, n_root, rng, importance_acc),
        right=_ref_grow(right_rows, depth + 1, hp, n_features, n_root, rng, importance_acc),
    )


def _ref_train(d, hp=None):
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
        trees.append(_ref_grow(sample, 0, hp, n_features, len(sample), rng, per_feature))
    total = sum(per_feature)
    if total > 0:
        importances = [v / total for v in per_feature]
    else:
        importances = [0.0] * n_features
    if n_features == len(FEATURE_NAMES):
        names = FEATURE_NAMES
    else:
        names = tuple(f"x{i + 1}" for i in range(n_features))
    return ForestModel(hyperparams=hp, feature_order=names, trees=trees, importances=importances)


_UP = math.nextafter(1.0, 2.0)
_BIG = sys.float_info.max
# Signed zeros; adjacent floats whose midpoint rounds up to the upper one;
# values whose sums overflow to +inf or -inf.
_EDGE_VALUES = [-0.0, 0.0, 1.0, _UP, math.nextafter(_UP, 2.0), 3.0,
                _BIG / 2, _BIG, -_BIG / 2, -_BIG]


@st.composite
def _datasets(draw):
    n_features = draw(st.integers(1, 5))
    value = st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0]),                           # grid
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),         # continuous
        st.sampled_from(_EDGE_VALUES),
    )
    row = st.tuples(st.tuples(*[value] * n_features), st.integers(0, 1))
    rows = draw(st.lists(row, min_size=2, max_size=40))
    rows[0], rows[1] = (rows[0][0], 0), (rows[1][0], 1)  # both classes
    copies = draw(st.lists(st.integers(0, len(rows) - 1), max_size=len(rows)))
    return Dataset(rows + [rows[i] for i in copies])


@settings(max_examples=300, deadline=None)
@given(
    d=_datasets(),
    n_trees=st.integers(1, 3),
    max_depth=st.one_of(st.none(), st.integers(1, 4)),
    min_leaf=st.integers(1, 3),
    fraction=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**16),
)
def test_train_matches_reference(d, n_trees, max_depth, min_leaf, fraction, seed):
    hp = ForestHyperparams(n_trees=n_trees, max_depth=max_depth, min_samples_leaf=min_leaf,
                           max_features_fraction=fraction, seed=seed)
    assert dumps_model(train(d, hp)) == dumps_model(_ref_train(d, hp))


@pytest.mark.parametrize("fraction", [0.2, 0.8, 1.0])
@pytest.mark.parametrize("grid", [True, False], ids=["grid", "continuous"])
def test_train_reads_no_more_values_than_reference(grid, fraction):
    # As many features as the page classifier has: with few, histograms
    # built eagerly for every feature could still read fewer values.
    d = Dataset([(_CountingVector(x), y) for x, y in _noisy_rows(300, 5, grid, 15)])
    hp = ForestHyperparams(n_trees=4, max_features_fraction=fraction, seed=2)
    reads = {}
    for name, fit in (("current", train), ("reference", _ref_train)):
        _CountingVector.reads = 0
        reads[name] = (dumps_model(fit(d, hp)), _CountingVector.reads)
    assert reads["current"][0] == reads["reference"][0]
    assert reads["current"][1] <= reads["reference"][1]
    if fraction == ForestHyperparams().max_features_fraction:
        # The one-pass partition alone reads about 0.93 of the reference
        # here; histogram subtraction brings it near 0.5.
        assert reads["current"][1] < 0.75 * reads["reference"][1]


def test_node_histograms_hold_only_their_rows_slots(monkeypatch):
    # A node's histogram, and the search over it, grows with the node's own
    # rows, not with the dataset's distinct values: on continuous rows there
    # are about as many slots as rows times features, and a deep node with
    # a handful of rows must not hold, copy or scan all of them.
    sizes = []
    search = forest._Rows.search

    def checked(node, feature_ids, min_leaf):
        neg_counts, pos_counts = node.histogram()
        assert dict(neg_counts) == dict(Counter(chain.from_iterable(node.neg)))
        assert dict(pos_counts) == dict(Counter(chain.from_iterable(node.pos)))
        sizes.append(len(node))
        return search(node, feature_ids, min_leaf)

    monkeypatch.setattr(forest._Rows, "search", checked)
    d = Dataset(_noisy_rows(300, 5, False, 15))
    hp = ForestHyperparams(n_trees=3, seed=2)
    assert dumps_model(train(d, hp)) == dumps_model(_ref_train(d, hp))
    assert len(sizes) > 100 and min(sizes) < 8

def test_importances_sum_to_one():
    model = train(Dataset(make_margin_rows(30, 30, seed=2)), ForestHyperparams(n_trees=10, seed=0))
    assert len(model.importances) == 15
    assert all(v >= 0 for v in model.importances)
    assert sum(model.importances) == pytest.approx(1.0, abs=1e-9)


def test_degenerate_forest_has_zero_importances():
    d = Dataset([((5.0,), 0), ((5.0,), 1)])
    model = train(d, ForestHyperparams(n_trees=3, seed=0))
    assert model.importances == [0.0]
    assert all(isinstance(t, LeafNode) for t in model.trees)
    assert 0.0 <= predict_score(model, [5.0]) <= 1.0


def test_feature_order_naming():
    wide = train(Dataset(make_margin_rows(10, 10, seed=3)), ForestHyperparams(n_trees=2))
    assert wide.feature_order == FEATURE_NAMES
    narrow = train(
        Dataset([((0.0, 0.0, 0.0), 0), ((1.0, 1.0, 1.0), 1)] * 3),
        ForestHyperparams(n_trees=2, min_samples_leaf=1),
    )
    assert narrow.feature_order == ("x1", "x2", "x3")


def test_depth_one_stump_recovers_margin():
    rows = [((0.0,), 0), ((2.0,), 0), ((10.0,), 1), ((12.0,), 1)]
    model = train(
        Dataset(rows),
        ForestHyperparams(n_trees=1, max_depth=1, min_samples_leaf=1, max_features_fraction=1.0, seed=0),
    )
    (tree,) = model.trees
    if isinstance(tree, SplitNode):  # bootstrap may collapse to one class
        assert 2.0 < tree.threshold < 10.0
    assert (predict_score(model, [-5.0]) >= 0.5) in (False, True)


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        ForestHyperparams(n_trees=0)
    with pytest.raises(ValueError):
        ForestHyperparams(max_depth=0)
    with pytest.raises(ValueError):
        ForestHyperparams(max_features_fraction=0.0)
    with pytest.raises(ValueError):
        ForestHyperparams(min_samples_leaf=0)


# One bad value per checked hyperparameter, and the message it raises.
BAD_HYPERPARAMS = [
    ("n_trees", 0, "n_trees must be >= 1"),
    ("max_depth", 0, "max_depth must be >= 1 or None"),
    ("max_features_fraction", 1.5, "max_features_fraction must be in (0, 1]"),
    ("min_samples_leaf", 0, "min_samples_leaf must be >= 1"),
]


@pytest.mark.parametrize("name, value, message", BAD_HYPERPARAMS,
                         ids=[name for name, _, _ in BAD_HYPERPARAMS])
def test_hyperparams_are_checked_however_they_are_made(name, value, message):
    values = list(ForestHyperparams())
    values[ForestHyperparams._fields.index(name)] = value
    makers = {
        "keyword": lambda: ForestHyperparams(**{name: value}),
        "position": lambda: ForestHyperparams(*values),
        "_make": lambda: ForestHyperparams._make(values),
        "_replace": lambda: ForestHyperparams()._replace(**{name: value}),
    }
    for make in makers.values():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()
    # A model file names where the bad value sits.
    model = model_to_json(train(Dataset(make_margin_rows(5, 5, seed=1)), ForestHyperparams(n_trees=1)))
    model["hyperparams"][name] = value
    with pytest.raises(ValueError, match=f"^{re.escape('model: $.hyperparams: ' + message)}$"):
        model_from_json(model)


def test_model_survives_json_equal():
    model = train(Dataset(make_margin_rows(20, 20, seed=5)), ForestHyperparams(n_trees=4, seed=2))
    again = model_from_json(model_to_json(model))
    assert again == model and again is not model
    assert type(again.hyperparams) is ForestHyperparams
    assert again.trees == model.trees and type(again.trees[0]) is type(model.trees[0])
    assert hash(again.hyperparams) == hash(model.hyperparams) == hash(tuple(model.hyperparams))
    assert model._replace(importances=[]) != model


# --- prediction ---

def test_predict_score_and_label():
    hp = ForestHyperparams()
    model = ForestModel(hp, ("x1",), trees=[LeafNode((0, 1)), LeafNode((1, 0))])
    assert predict_score(model, [0.0]) == pytest.approx(0.5)
    score = predict_score(model, [0.0])
    assert (score >= 0.5, score) == (True, 0.5)  # ties go positive
    model = ForestModel(hp, ("x1",), trees=[LeafNode((1, 0))])
    score = predict_score(model, [0.0])
    assert (score >= 0.5, score) == (False, 0.0)


def test_split_boundary_goes_left():
    tree = SplitNode(feature=0, threshold=6.0, left=LeafNode((2, 0)), right=LeafNode((0, 2)))
    model = ForestModel(ForestHyperparams(), ("x1",), trees=[tree])
    assert predict_score(model, [6.0]) == 0.0
    assert predict_score(model, [6.0001]) == 1.0


def test_predict_accepts_feature_vector():
    tree = SplitNode(feature=0, threshold=6.0, left=LeafNode((2, 0)), right=LeafNode((0, 2)))
    model = ForestModel(ForestHyperparams(), FEATURE_NAMES, trees=[tree])
    assert predict_score(model, FeatureVector(f1=7.0)) == 1.0


def test_holdout_f1_on_margin_data():
    model = train(Dataset(make_margin_rows(60, 60, seed=4)), ForestHyperparams(n_trees=15, seed=9))
    holdout = make_margin_rows(40, 40, seed=99)
    tp = fp = fn = 0
    for x, y in holdout:
        label = predict_score(model, list(x)) >= 0.5
        tp += label and y
        fp += label and not y
        fn += y and not label
    f1 = 2 * tp / (2 * tp + fp + fn)
    assert f1 >= 0.95


# --- serialization ---

def test_model_json_round_trip(tmp_path):
    model = train(Dataset(make_margin_rows(20, 20, seed=5)), ForestHyperparams(n_trees=4, seed=2))
    again = model_from_json(model_to_json(model))
    assert dumps_model(again) == dumps_model(model)

    path = tmp_path / "m.json"
    save_model(model, str(path))
    assert dumps_model(load_model(str(path))) == dumps_model(model)
    # canonical form is newline-terminated compact JSON
    text = path.read_text()
    assert text.endswith("\n") and "\n" not in text[:-1] and ": " not in text


def test_model_version_rejected():
    obj = model_to_json(train(Dataset([((0.0,), 0), ((1.0,), 1)] * 2), ForestHyperparams(n_trees=1)))
    # true and 1.0 both equal 1 in Python; neither is the JSON integer 1.
    for version, message in [(2, "must be 1"), (True, "expected integer, got bool"),
                             (1.0, "expected integer, got float")]:
        obj["version"] = version
        with pytest.raises(ValueError, match=re.escape(f"model: $.version: {message}")):
            model_from_json(obj)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda m: m.update(feature_order=["x1"]), "feature_order"),
        (lambda m: m["trees"][0].update(kind="stump"), "kind"),
        (lambda m: m["trees"][0].update(kind="leaf", counts=[-1, 2]), "counts"),
        (lambda m: m["trees"][0].update(kind="leaf", counts=[1.5, 2]), "counts"),
        (lambda m: m["trees"][0].update(threshold="high"), "threshold"),
        (lambda m: m["trees"][0].update(threshold=math.nan), "threshold"),
        (lambda m: m["trees"][0].update(threshold=-math.inf), "threshold"),
        (lambda m: m["trees"][0].update(threshold=10**400), "threshold"),
        (lambda m: m["hyperparams"].pop("seed"), "seed"),
        (lambda m: m["hyperparams"].update(n_trees=math.inf),
         re.escape("model: $.hyperparams.n_trees: expected integer, got float")),
        (lambda m: m["hyperparams"].update(n_trees=True),
         re.escape("model: $.hyperparams.n_trees: expected integer, got bool")),
        (lambda m: m["hyperparams"].update(max_depth="20"),
         re.escape("model: $.hyperparams.max_depth: expected integer, got str")),
        (lambda m: m["hyperparams"].update(min_samples_leaf=2.9), "min_samples_leaf"),
        (lambda m: m["hyperparams"].update(seed=-math.inf),
         re.escape("model: $.hyperparams.seed: expected integer, got float")),
        (lambda m: m["hyperparams"].update(max_features_fraction=math.nan),
         re.escape("model: $.hyperparams.max_features_fraction: must be finite")),
        (lambda m: m["hyperparams"].update(max_features_fraction=10**400),
         re.escape("model: $.hyperparams.max_features_fraction: must be finite")),
        (lambda m: m["importances"].append(math.inf), "importances"),
        (lambda m: m.update(importances="0.5"), "importances"),
    ],
    ids=[
        "feature_order", "kind", "negative_count", "float_count", "threshold",
        "nan_threshold", "inf_threshold", "huge_threshold", "no_seed",
        "inf_trees", "bool_trees", "string_depth", "float_leaf", "inf_seed", "nan_fraction",
        "huge_fraction", "inf_importance", "string_importances",
    ],
)
def test_model_schema_rejected(mutate, message):
    obj = model_to_json(train(Dataset(make_margin_rows(20, 20, seed=5)), ForestHyperparams(n_trees=2)))
    assert obj["trees"][0]["kind"] == "split"
    mutate(obj)
    with pytest.raises(ValueError, match=message):
        model_from_json(obj)


# --- settling the vote at a threshold ---

_FRACTION_LEAVES = st.sampled_from([(1, 0), (0, 1), (1, 1), (1, 2), (0, 0)]).map(LeafNode)


def _trees(depth):
    if depth == 0:
        return _FRACTION_LEAVES
    return st.one_of(_FRACTION_LEAVES, st.builds(
        SplitNode, st.integers(0, 2), st.sampled_from([0.5, 1.5, 2.5]),
        _trees(depth - 1), _trees(depth - 1)))


@settings(max_examples=400)
@given(trees=st.lists(_trees(3), min_size=1, max_size=20),
       x=st.lists(st.integers(0, 3).map(float), min_size=3, max_size=3),
       threshold=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0, 1)))
def test_settled_vote_is_on_the_side_of_the_mean(trees, x, threshold):
    # Leaves of 0, 1/3, 1/2 and 1 put the mean exactly on the threshold
    # often (10 of 20 trees at 1.0 against 0.5, say).
    model = ForestModel(ForestHyperparams(n_trees=len(trees)), ("x1", "x2", "x3"), trees)
    assert (predict_score(model, x, threshold) >= threshold) == (
        predict_score(model, x) >= threshold)
