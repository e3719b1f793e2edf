"""Output checks built apart from the program.

Block checks compare the CLI's blocks with blocks the generators derived
from the fixture or from the grid construction.  The forest check redoes the
training procedure that ``dirtree.forest`` documents (resample, per-tree
bootstrap, candidate features) with its own code and exact fractions.  Every
check returns one pass/fail flag per operation: per page, or per tree.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

N_FEATURES = 15
MASK64 = 0xFFFFFFFFFFFFFFFF


# --- blocks ----------------------------------------------------------------

def parse_blocks(data: bytes, n_pages: int):
    """{page: [(headers, body), ...]} from ``dirtree blocks`` JSON, or None
    when the output is malformed or names a page outside the document."""
    try:
        blocks = json.loads(data)["blocks"]
        out = {}
        for b in blocks:
            page = b["page"]
            if not isinstance(page, int) or not 0 <= page < n_pages:
                return None
            out.setdefault(page, []).append((tuple(b["headers"]), b["body"]))
        return out
    except (ValueError, KeyError, TypeError):
        return None


def check_blocks(by_page, expected: list) -> list:
    """One flag per page: the page's blocks equal ``expected[page]`` in order
    (an empty list for a page that must emit nothing)."""
    if by_page is None:
        return [False] * len(expected)
    return [by_page.get(i, []) == exp for i, exp in enumerate(expected)]


# --- forest ----------------------------------------------------------------

def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def resample(rows, pos: int, neg: int, seed: int):
    """Exact class counts: positives then negatives, each drawn without
    replacement when the supply allows it, with replacement otherwise."""
    rng = random.Random(splitmix64(seed))
    out = []
    for label, target in ((1, pos), (0, neg)):
        pool = [r for r in rows if r[1] == label]
        out += rng.sample(pool, target) if target <= len(pool) else rng.choices(pool, k=target)
    return out


def bootstrap(rows, seed: int, tree: int, max_features: float):
    """Tree ``tree``'s bootstrap and its root's candidate features, drawn in
    the documented order from ``Random(splitmix64(seed + tree))``: n
    ``randrange(n)`` calls, then ``ceil(max_features * 15)`` features by
    ``sample``."""
    rng = random.Random(splitmix64(seed + tree))
    n = len(rows)
    sample = [rows[rng.randrange(n)] for _ in range(n)]
    return sample, rng.sample(range(N_FEATURES), math.ceil(max_features * N_FEATURES))


def root_candidates(sample, features, min_leaf: int) -> dict:
    """{(feature, threshold): score} for every admissible root split, where
    the score is sum over sides of (neg^2 + pos^2) / size.  The weighted Gini
    is 1 - score / n, so the least Gini is the greatest score; Fractions keep
    it exact."""
    out = {}
    n = len(sample)
    neg = sum(1 for _, y in sample if y == 0)
    for f in features:
        column = sorted((x[f], y) for x, y in sample)
        ln = lp = 0
        for j, (lo, y) in enumerate(column[:-1]):
            ln, lp = ln + (y == 0), lp + (y == 1)
            hi = column[j + 1][0]
            if hi == lo:
                continue
            thr = (lo + hi) / 2.0
            a, b = ln, lp
            if thr >= hi:  # midpoint of adjacent floats rounded up: count by comparison
                a = sum(1 for v, w in column if v <= thr and w == 0)
                b = sum(1 for v, w in column if v <= thr and w == 1)
            left, right = a + b, n - a - b
            if left < min_leaf or right < min_leaf:
                continue
            rn, rp = neg - a, right - (neg - a)
            out[(f, thr)] = Fraction(a * a + b * b, left) + Fraction(rn * rn + rp * rp, right)
    return out


def _leaves(node):
    stack = [node]
    while stack:
        node = stack.pop()
        if node["kind"] == "leaf":
            yield node["counts"]
        else:
            stack += (node["left"], node["right"])


def check_tree(tree: dict, sample, features, min_leaf: int) -> bool:
    """Leaf counts sum to the bootstrap size, every leaf holds at least
    ``min_leaf`` rows, and a split root has the greatest exact score."""
    counts = list(_leaves(tree))
    if sum(a + b for a, b in counts) != len(sample) or min(a + b for a, b in counts) < min_leaf:
        return False
    if tree["kind"] == "leaf":
        return len({y for _, y in sample}) < 2
    cands = root_candidates(sample, features, min_leaf)
    key = (tree["feature"], tree["threshold"])
    return key in cands and cands[key] == max(cands.values())


def check_forest(data: bytes, rows, pos: int, neg: int, seed: int, n_trees: int,
                 min_leaf: int, max_features: float) -> list:
    """One flag per tree of a ``dirtree train`` model file."""
    try:
        trees = json.loads(data)["trees"]
    except (ValueError, KeyError, TypeError):
        return [False] * n_trees
    flags = [False] * n_trees
    balanced = resample(rows, pos, neg, seed)
    for i, tree in enumerate(trees[:n_trees]):
        sample, features = bootstrap(balanced, seed, i, max_features)
        try:
            flags[i] = check_tree(tree, sample, features, min_leaf)
        except (KeyError, TypeError, ValueError):
            flags[i] = False
    if len(trees) != n_trees:
        flags[-1] = False
    return flags
