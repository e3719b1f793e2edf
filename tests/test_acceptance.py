"""End-to-end acceptance checks.

One test per shipped guarantee.  Each prints a single [PASS]/[FAIL] line
(run with -s to see them all) and asserts the same condition, so the
suite stays red whenever a guarantee is broken.
"""

import json
import random
import time
from fractions import Fraction

from dirtree import cli, forest
from dirtree.annotate import Gazetteer, annotate
from dirtree.metrics import PRF, eval_classifier, eval_tree
from dirtree.segment import (
    EmptyPageError,
    RULE_COLON_DASH,
    RULE_DEFAULT_BODY,
    RULE_ENTITY_BODY,
    RULE_ENTITY_HEADER,
    RULE_PAGE_FURNITURE,
    RULE_ROLE_ADDRESS,
    RULE_STYLE_BOLD_ITALIC,
    RULE_STYLE_COLOR,
    RULE_STYLE_FAMILY,
    RULE_STYLE_SIZE,
    SpanLabel,
    segment_page,
)
from dirtree.tree import (
    TreeInvariantError,
    TreeParams,
    build_tree,
    reading_sequence,
    validate_tree,
)
from dirtree.visual import parse_document

from conftest import (
    EXPECTED_BLOCKS,
    WALKTHROUGH_REVERSED,
    doc,
    make_margin_rows,
    mkspan,
    page,
    text_group,
)
from test_metrics import six_block_trees
from test_segment import BALLAST, assert_tiling

GAZ = Gazetteer.default()


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# 1. The sample page yields its six directory blocks, fast.

def test_sample_page_blocks(fig1a_path, tmp_path):
    out = tmp_path / "blocks.json"
    t0 = time.perf_counter()
    rc = cli.run(["blocks", str(fig1a_path), "--pages", "0", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    got = []
    if rc == 0:
        got = [(b["headers"], b["body"]) for b in json.loads(out.read_text())["blocks"]]
    ok = rc == 0 and got == EXPECTED_BLOCKS and elapsed < 1.0
    report(
        "sample page emits its six directory blocks",
        ok,
        f"{len(got)} blocks in {elapsed * 1000:.0f}ms",
    )


# 2. Reversing the reading sequence walks the sample page bottom-up in
#    the documented order.

def test_sample_page_walk_order(fig1a_page):
    spans = [
        s
        for s in segment_page(fig1a_page, annotate(fig1a_page, GAZ))
        if s.label is not SpanLabel.NEITHER
    ]
    ordered = reading_sequence(spans, TreeParams())
    got = [s.text for s in reversed(ordered)][: len(WALKTHROUGH_REVERSED)]
    ok = got == WALKTHROUGH_REVERSED
    report("reversed reading sequence matches the documented walk", ok)


# 3. Trees built from fuzzed span pages never violate an invariant.

_WORDS = ["fund", "office", "custodian", "acme", "street", "agent", "kpmg"]


def random_span_page(rng):
    spans = []
    for i in range(rng.randint(0, 12)):
        if spans and rng.random() < 0.1:
            prev = spans[-1].bbox  # duplicate geometry on purpose
            left, top, right, bottom = prev.left, prev.top, prev.right, prev.bottom
        else:
            left = round(rng.uniform(0.0, 500.0), 1)
            top = round(rng.uniform(0.0, 700.0), 1)
            right = left + round(rng.uniform(20.0, 200.0), 1)
            bottom = top + round(rng.uniform(0.0, 18.0), 1)
        label = rng.choices(
            [SpanLabel.HEADER, SpanLabel.BODY, SpanLabel.NEITHER], weights=[4, 5, 1]
        )[0]
        gi = i if i == 0 or rng.random() < 0.8 else rng.randrange(i)
        spans.append(
            mkspan(
                " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 4))),
                left, top, right, bottom, label,
                gi=gi,
                size=rng.choice([8.0, 10.0, 10.0, 12.0, 14.0]),
                bold=rng.random() < 0.4,
                italic=rng.random() < 0.15,
                color=rng.choice([0, 0, 255]),
            )
        )
    return spans


def test_tree_invariants_under_fuzz():
    params = TreeParams()
    violations = 0
    first = ""
    t0 = time.perf_counter()
    for seed in range(1000):
        if seed == 0:
            spans = []
        elif seed == 1:
            spans = [
                mkspan("Page 1", 200.0, 780.0, 260.0, 790.0, SpanLabel.NEITHER, gi=0)
            ]
        elif seed == 2:
            spans = [mkspan("lone body", 10.0, 10.0, 90.0, 20.0, gi=0)]
        else:
            spans = random_span_page(random.Random(seed))
        try:
            validate_tree(build_tree(spans, params))
        except TreeInvariantError as e:
            violations += 1
            first = first or f"seed {seed}: {e}"
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    report(
        "1000 fuzzed pages build valid trees",
        ok,
        first or f"{elapsed:.1f}s",
    )


# 4. Every labeling rule fires on a fixture built for it.

BRANCH_FIXTURES = [
    ("footer furniture", text_group("Page 3 of 118", 200, 760, 320, 770, footer=True),
     SpanLabel.NEITHER, RULE_PAGE_FURNITURE),
    ("entity with trailing text", text_group("Acme Capital S.A. 15 Main Street", 40, 50, 300, 60),
     SpanLabel.BODY, RULE_ENTITY_BODY),
    ("entity at the end", text_group("Acme Capital S.A.", 40, 50, 200, 60),
     SpanLabel.HEADER, RULE_ENTITY_HEADER),
    ("trailing colon", text_group("Registered Office:", 40, 50, 200, 60),
     SpanLabel.HEADER, RULE_COLON_DASH),
    ("contact colon exemption", text_group("Tel: +352 26 12 34 56", 40, 50, 230, 60),
     SpanLabel.BODY, RULE_DEFAULT_BODY),
    ("role phrase", text_group("Prime Broker", 40, 50, 220, 60),
     SpanLabel.HEADER, RULE_ROLE_ADDRESS),
    ("off-color text", text_group("plain words only", 40, 50, 200, 60, color=255),
     SpanLabel.HEADER, RULE_STYLE_COLOR),
    ("bold text", text_group("plain words only", 40, 50, 200, 60, bold=True),
     SpanLabel.HEADER, RULE_STYLE_BOLD_ITALIC),
    ("oversized text", text_group("plain words only", 40, 50, 200, 60, size=14.0),
     SpanLabel.HEADER, RULE_STYLE_SIZE),
    ("off-family text", text_group("plain words only", 40, 50, 200, 60, family="Sans"),
     SpanLabel.HEADER, RULE_STYLE_FAMILY),
    ("unremarkable text", text_group("continuation of the narrative", 40, 50, 260, 60),
     SpanLabel.BODY, RULE_DEFAULT_BODY),
]


def test_every_rule_branch_fires():
    misses = []
    for name, g, want_label, want_rule in BRANCH_FIXTURES:
        vp = parse_document(doc(page(g, BALLAST)))[0]
        spans = [
            s
            for s in segment_page(vp, annotate(vp, GAZ))
            if s.group_index == 0
        ]
        got = [(s.label, s.fired_rule) for s in spans]
        if got != [(want_label, want_rule)]:
            misses.append(f"{name}: {got}")
    report(
        "each labeling rule fires on its fixture",
        not misses,
        misses[0] if misses else f"{len(BRANCH_FIXTURES)} branches",
    )


# 5. The forest finds the right split, separates a margin, and is
#    reproducible.

_LINE_POINTS = [((0.0,), 0), ((2.0,), 0), ((10.0,), 1), ((12.0,), 1)]


def _gini_fraction(labels):
    n = len(labels)
    if n == 0:
        return Fraction(0)
    pos = Fraction(sum(labels), n)
    neg = 1 - pos
    return 1 - pos * pos - neg * neg


def _brute_threshold(rows):
    """Exact-arithmetic best midpoint threshold for 1-D rows."""
    xs = sorted({x for (x,), _ in rows})
    best = None
    for a, b in zip(xs, xs[1:]):
        thr = (a + b) / 2
        left = [y for (x,), y in rows if x <= thr]
        right = [y for (x,), y in rows if x > thr]
        w = (
            Fraction(len(left), len(rows)) * _gini_fraction(left)
            + Fraction(len(right), len(rows)) * _gini_fraction(right)
        )
        if best is None or (w, thr) < best:
            best = (w, thr)
    return best[1]


def _bootstrap_rows(seed):
    rng = random.Random(forest.splitmix64(seed))
    return [_LINE_POINTS[rng.randrange(4)] for _ in range(4)]


def test_forest_mechanism(tmp_path):
    problems = []

    # (a) a depth-1 tree lands in the only sensible split region
    seed = next(
        s for s in range(200) if {y for _, y in _bootstrap_rows(s)} == {0, 1}
    )
    model = forest.train(
        forest.Dataset(_LINE_POINTS),
        forest.ForestHyperparams(
            n_trees=1, max_depth=1, min_samples_leaf=1,
            max_features_fraction=1.0, seed=seed,
        ),
    )
    (stump,) = model.trees
    if not isinstance(stump, forest.SplitNode):
        problems.append("stump did not split")
    else:
        if not 2.0 < stump.threshold < 10.0:
            problems.append(f"threshold {stump.threshold} outside (2, 10)")
        if stump.threshold != _brute_threshold(_bootstrap_rows(seed)):
            problems.append("threshold disagrees with exhaustive search")

    # (b) margin-separated features classify a held-out set
    train_rows = make_margin_rows(80, 120, seed=21)
    held_out = make_margin_rows(40, 60, seed=22)
    balanced = forest.resample(forest.Dataset(train_rows), 83, 800, seed=5)
    margin_model = forest.train(balanced, forest.ForestHyperparams(n_trees=15, seed=9))
    f1 = eval_classifier(
        [y for _, y in held_out],
        [int(forest.predict_score(margin_model, list(x)) >= 0.5) for x, _ in held_out],
    ).f1
    if f1 < 0.95:
        problems.append(f"holdout F1 {f1:.3f} < 0.95")

    # (c) the same seed reproduces the model byte for byte
    again = forest.train(balanced, forest.ForestHyperparams(n_trees=15, seed=9))
    if forest.dumps_model(margin_model) != forest.dumps_model(again):
        problems.append("same seed gave a different model")

    # (d) importances form a distribution
    if abs(sum(margin_model.importances) - 1.0) > 1e-9:
        problems.append(f"importances sum to {sum(margin_model.importances)}")

    report(
        "forest splits, separates, and reproduces",
        not problems,
        problems[0] if problems else f"holdout F1 {f1:.3f}",
    )


# 6. Tree metrics match hand computation on a known corruption.

def test_metric_hand_oracle():
    problems = []
    gold, pred = six_block_trees()
    scores = eval_tree(gold, pred)
    for name in ("blocks", "parents"):
        m = scores[name]
        for value in (m.precision, m.recall, m.f1):
            if abs(value - 5 / 6) > 1e-12:
                problems.append(f"{name} {value} != 5/6")
    prf = PRF.from_counts(24, 1, 2)
    for got, want in ((prf.precision, 0.960), (prf.recall, 0.923), (prf.f1, 0.941)):
        if abs(got - want) > 0.001:
            problems.append(f"count metric {got} != {want}")
    report(
        "metrics equal the hand-computed values",
        not problems,
        problems[0] if problems else "blocks = parents = 5/6",
    )


# 7. Labeled spans always tile their group's text exactly.

def test_spans_tile_text(fig1a_page):
    checked = 0
    failures = []

    def check(vp):
        nonlocal checked
        try:
            spans = segment_page(vp, annotate(vp, GAZ))
        except EmptyPageError:
            return
        try:
            assert_tiling(vp, spans)
        except AssertionError as e:
            failures.append(str(e))
        checked += 1

    check(fig1a_page)
    for _, g, _, _ in BRANCH_FIXTURES:
        check(parse_document(doc(page(g, BALLAST)))[0])
    from conftest import random_page_dict

    for seed in range(300):
        check(parse_document(doc(random_page_dict(random.Random(seed))))[0])
    report(
        "spans tile every group exactly",
        not failures,
        failures[0][:80] if failures else f"{checked} pages",
    )


# 8. The whole pipeline is deterministic.

def test_pipeline_determinism(fig1a_path, trained_model_path, tmp_path):
    stages = [
        ("classify", ["classify", str(fig1a_path), "--model", str(trained_model_path)]),
        ("segment", ["segment", str(fig1a_path), "--pages", "0"]),
        ("tree", ["tree", str(fig1a_path), "--pages", "0"]),
        ("blocks", ["blocks", str(fig1a_path), "--pages", "0"]),
    ]

    def run_all(tag):
        outputs = {}
        for name, argv in stages:
            out = tmp_path / f"{name}-{tag}.json"
            assert cli.run(argv + ["--out", str(out)]) == 0
            outputs[name] = out.read_bytes()
        return outputs

    first, second = run_all("a"), run_all("b")
    diff = [name for name in first if first[name] != second[name]]
    report(
        "pipeline output is byte-identical across runs",
        not diff,
        f"differs: {diff}" if diff else f"{len(stages)} stages compared",
    )
