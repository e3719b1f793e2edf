import math
import re
import statistics
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from dirtree import tree as tree_module
from dirtree.annotate import Gazetteer, annotate
from dirtree.segment import SpanLabel, segment_page
from dirtree.tree import (
    NodeLabel,
    ROOT_ID,
    ReadingTree,
    TreeInvariantError,
    TreeNode,
    TreeParamError,
    TreeParams,
    _same_band,
    blocks_to_json,
    build_tree,
    can_parent,
    casing_class,
    cluster_headers,
    directory_blocks,
    median_line_height,
    nearest_header_above,
    reading_sequence,
    same_entry,
    tree_from_json,
    tree_to_json,
    validate_tree,
)

from conftest import EXPECTED_BLOCKS, mkspan

H = SpanLabel.HEADER
B = SpanLabel.BODY


def build_fixture_tree(fig1a_page):
    spans = segment_page(fig1a_page, annotate(fig1a_page, Gazetteer.default()))
    return build_tree(spans)


# --- parameters ---

def test_param_validation():
    with pytest.raises(TreeParamError):
        TreeParams(band_overlap_frac=0.0)
    with pytest.raises(TreeParamError):
        TreeParams(align_tol=-1)
    with pytest.raises(TreeParamError):
        TreeParams(gap_factor=-0.1)
    with pytest.raises(TreeParamError):
        TreeParams(min_x_overlap_frac=1.5)
    with pytest.raises(TreeParamError):
        TreeParams(size_cluster_tol=-1)
    # NaN compares False with everything, so it must fail every check.
    for name in TreeParams._fields:
        with pytest.raises(TreeParamError, match=name):
            TreeParams(**{name: math.nan})
    assert isinstance(TreeParamError("x"), ValueError)
    assert isinstance(TreeInvariantError("x"), RuntimeError)


# One bad value per parameter, and the message it raises.
BAD_TREE_PARAMS = [
    ("band_overlap_frac", 0.0, "band_overlap_frac must be in (0, 1]"),
    ("align_tol", -1.0, "align_tol must be finite and >= 0"),
    ("gap_factor", -0.5, "gap_factor must be finite and >= 0"),
    ("min_x_overlap_frac", 1.5, "min_x_overlap_frac must be in (0, 1]"),
    ("size_cluster_tol", -1.0, "size_cluster_tol must be finite and >= 0"),
]


@pytest.mark.parametrize("name, value, message", BAD_TREE_PARAMS,
                         ids=[name for name, _, _ in BAD_TREE_PARAMS])
def test_tree_params_are_checked_however_they_are_made(name, value, message):
    values = list(TreeParams())
    values[TreeParams._fields.index(name)] = value
    makers = {
        "keyword": lambda: TreeParams(**{name: value}),
        "position": lambda: TreeParams(*values),
        "_make": lambda: TreeParams._make(values),
        "_replace": lambda: TreeParams()._replace(**{name: value}),
    }
    for make in makers.values():
        with pytest.raises(TreeParamError, match=f"^{re.escape(message)}$"):
            make()


def test_tree_params_are_values():
    p = TreeParams(align_tol=2.0)
    assert p == TreeParams(0.5, 2.0) == TreeParams()._replace(align_tol=2.0)
    assert hash(p) == hash(TreeParams(0.5, 2.0)) == hash(tuple(p))
    assert type(p._replace(gap_factor=1.0)) is TreeParams
    assert p._asdict()["align_tol"] == 2.0
    with pytest.raises(AttributeError):
        p.align_tol = 3.0


def test_equal_labeled_spans_are_one_dict_key():
    # A LabeledSpan is a dict key in ``cluster_headers``: two spans with the
    # same values are one key, and hash as the tuple of their values.
    a = mkspan("Head", 0, 0, 50, 10, H, gi=3)
    twin = mkspan("Head", 0, 0, 50, 10, H, gi=3)
    assert a == twin and a is not twin and hash(a) == hash(twin) == hash(tuple(a))
    assert len({a: 1, twin: 2}) == 1
    assert list(cluster_headers([a, twin], TreeParams()).values()) == [1]
    assert a != mkspan("Head", 0, 0, 50, 10, H, gi=4)


# --- casing and clustering ---

def test_casing_class():
    assert casing_class("DIRECTORY") == "all_caps"
    assert casing_class("Registered Office") == "title"
    assert casing_class("as per the laws") == "other"
    assert casing_class("(As Per)") == "title"
    assert casing_class("iPhone Fund") == "other"
    assert casing_class("123 - 456") == "other"


def test_cluster_headers_ignores_bodies():
    spans = [mkspan("body", 0, 0, 50, 10, B), mkspan("Head", 0, 20, 50, 30, H)]
    clusters = cluster_headers(spans, TreeParams())
    assert list(clusters.values()) == [1]
    assert cluster_headers([], TreeParams()) == {}


def test_cluster_single_linkage_chains_sizes():
    spans = [
        mkspan("Aaa", 0, 0, 50, 10, H, size=10.0),
        mkspan("Bbb", 0, 20, 50, 30, H, size=10.4),
        mkspan("Ccc", 0, 40, 50, 50, H, size=10.8),
        mkspan("Ddd", 0, 60, 50, 70, H, size=12.0),
    ]
    clusters = cluster_headers(spans, TreeParams())
    assert clusters[spans[0]] == clusters[spans[1]] == clusters[spans[2]]
    assert clusters[spans[3]] != clusters[spans[0]]


def test_cluster_splits_on_style_within_size():
    plain = mkspan("Alpha", 0, 0, 50, 10, H)
    bold = mkspan("Beta", 0, 20, 50, 30, H, bold=True)
    caps = mkspan("GAMMA", 0, 40, 50, 50, H)
    red = mkspan("Delta", 0, 60, 50, 70, H, color=255)
    clusters = cluster_headers([plain, bold, caps, red], TreeParams())
    assert len(set(clusters.values())) == 4
    # ids are dense from 1, smaller size group first, plain before bold
    big = mkspan("Epsilon", 0, 80, 50, 90, H, size=16.0)
    clusters = cluster_headers([plain, bold, big], TreeParams())
    assert clusters[plain] == 1 and clusters[bold] == 2 and clusters[big] == 3


def test_cluster_identical_spans_share_id():
    a = mkspan("Same", 0, 0, 50, 10, H, gi=1)
    b = mkspan("Same", 0, 100, 50, 110, H, gi=2)
    clusters = cluster_headers([a, b], TreeParams())
    assert clusters[a] == clusters[b] == 1


# --- reading order ---

def test_reading_sequence_bands():
    right = mkspan("right", 300, 0, 400, 10)
    left = mkspan("left", 0, 2, 100, 12)
    below = mkspan("below", 0, 50, 100, 60)
    assert [s.text for s in reading_sequence([below, right, left])] == ["left", "right", "below"]


def test_reading_sequence_band_transitivity():
    a = mkspan("a", 200, 0, 300, 10)
    b = mkspan("b", 100, 5, 200, 15)
    c = mkspan("c", 0, 10, 100, 20)
    # a-c overlap nothing vertically, but both overlap b enough to band
    assert [s.text for s in reading_sequence([a, b, c])] == ["c", "b", "a"]


def test_reading_sequence_band_threshold():
    a = mkspan("a", 0, 0, 100, 10)
    b = mkspan("b", 200, 6, 300, 16)  # 4pt overlap < half of 10pt height
    assert [s.text for s in reading_sequence([a, b])] == ["a", "b"]
    c = mkspan("c", 200, 5, 300, 15)  # exactly half: same band, ordered by left
    assert [s.text for s in reading_sequence([c, a])] == ["a", "c"]


def test_reading_sequence_zero_height_spans():
    a = mkspan("a", 0, 5, 100, 5)
    b = mkspan("b", 200, 5, 300, 5)  # touching: same band
    c = mkspan("c", 200, 6, 300, 6)  # disjoint: next band
    assert [s.text for s in reading_sequence([b, a])] == ["a", "b"]
    assert [s.text for s in reading_sequence([c, a])] == ["a", "c"]
    assert reading_sequence([]) == []


def test_reading_sequence_input_order_independent():
    spans = [
        mkspan("one", 0, 0, 80, 10),
        mkspan("two", 120, 0, 200, 10),
        mkspan("three", 0, 30, 80, 40),
        mkspan("four", 120, 30, 200, 40),
    ]
    expected = ["one", "two", "three", "four"]
    assert [s.text for s in reading_sequence(spans)] == expected
    assert [s.text for s in reading_sequence(spans[::-1])] == expected


def _reading_sequence_all_pairs(spans, p):
    """Reference: band by testing every pair of spans, then order as
    reading_sequence does."""
    n = len(spans)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if _same_band(spans[i].bbox, spans[j].bbox, p):
                parent[find(i)] = find(j)
    bands = {}
    for i in range(n):
        bands.setdefault(find(i), []).append(i)
    ordered = []
    for members in sorted(
        bands.values(),
        key=lambda m: (min(spans[i].bbox.top for i in m), min(spans[i].bbox.left for i in m)),
    ):
        members.sort(key=lambda i: (*spans[i].bbox, spans[i].text, i))
        ordered.extend(spans[i] for i in members)
    return ordered


_coords = st.one_of(
    st.integers(-20, 40).map(float),
    st.sampled_from([0.0, -0.0]),
    st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)
# Zero, subnormal, negative (inverted box) and ordinary heights.
_heights = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, -1.0]),
    st.integers(-3, 15).map(float),
    st.floats(-5, 30, allow_nan=False, allow_infinity=False),
)


@st.composite
def _span_boxes(draw):
    boxes = []
    for k in range(draw(st.integers(0, 20))):
        left, top = draw(_coords), draw(_coords)
        boxes.append(mkspan(f"s{k}", left, top, left + 50, top + draw(_heights)))
    return boxes


@settings(max_examples=300)
@given(
    spans=_span_boxes(),
    frac=st.one_of(st.sampled_from([0.5, 1.0]), st.floats(1e-300, 1.0)),
)
@example(
    spans=[mkspan("a", 0, 0, 50, 5e-324), mkspan("b", 0, 30, 50, 40), mkspan("c", 0, 60, 50, 60)],
    frac=0.5,
)
def test_reading_sequence_matches_all_pairs(spans, frac):
    p = TreeParams(band_overlap_frac=frac)
    got, want = reading_sequence(spans, p), _reading_sequence_all_pairs(spans, p)
    assert [id(s) for s in got] == [id(s) for s in want]


def test_reading_sequence_tests_only_overlapping_spans(monkeypatch):
    calls = []

    def counting_same_band(a, b, p):
        calls.append(1)
        return _same_band(a, b, p)

    monkeypatch.setattr(tree_module, "_same_band", counting_same_band)
    # 60 rows of 5 spans; rows are 10 pt apart, so only spans in one row meet.
    spans = [mkspan(f"{r}.{c}", c * 60, r * 20, c * 60 + 50, r * 20 + 10)
             for r in range(60) for c in range(5)]
    ordered = reading_sequence(spans[::-1])
    assert [s.text for s in ordered] == [s.text for s in spans]
    assert len(calls) == 60 * (5 * 4 // 2)  # all pairs would be 300 * 299 / 2


def test_reading_sequence_hairline_span_keeps_its_band():
    hair = mkspan("hair", 200, 0, 250, 5e-324)  # 0.5 * height underflows to 0.0
    box = mkspan("box", 0, 100, 50, 110)
    assert not _same_band(hair.bbox, box.bbox, TreeParams())
    assert [s.text for s in reading_sequence([box, hair])] == ["hair", "box"]


# --- dominance ---

def test_can_parent_requires_below():
    c = mkspan("head", 50, 50, 140, 70, H, bold=True)
    n = mkspan("body", 60, 110, 200, 130)
    clusters = {}
    assert can_parent(c, n, clusters)
    at_tol = mkspan("body", 60, 55, 200, 70)
    assert not can_parent(c, at_tol, clusters)  # tolerance is strict


def test_can_parent_overlap_arm():
    c = mkspan("head", 100, 0, 200, 10, H)
    n = mkspan("wide", 50, 50, 180, 60)  # left of c but 80pt overlap
    assert can_parent(c, n, {})
    thin = mkspan("thin", 0, 50, 90, 60)  # no overlap, left of c
    assert not can_parent(c, thin, {})


def test_can_parent_left_edge_arm():
    c = mkspan("head", 50, 0, 140, 10, H)
    n = mkspan("far right", 300, 50, 400, 60)  # zero overlap, but not left of c
    assert can_parent(c, n, {})
    n2 = mkspan("slightly left", 46, 50, 140, 60)  # within align_tol of c's edge
    assert can_parent(c, n2, {})


def test_can_parent_same_cluster_blocked():
    c = mkspan("Head One", 0, 0, 100, 10, H, bold=True)
    n = mkspan("Head Two", 0, 50, 100, 60, H, bold=True)
    clusters = cluster_headers([c, n], TreeParams())
    assert not can_parent(c, n, clusters)
    other = mkspan("Head Two", 0, 50, 100, 60, H, size=16.0)
    clusters = cluster_headers([c, other], TreeParams())
    assert can_parent(c, other, clusters)


def test_can_parent_bodies_not_cluster_blocked():
    c = mkspan("body a", 0, 0, 100, 10, B)
    n = mkspan("body b", 0, 50, 100, 60, B)
    assert can_parent(c, n, {})


# --- nearest header ---

def test_nearest_header_above_picks_smallest_gap():
    far = mkspan("Far", 0, 0, 100, 10, H)
    near = mkspan("Near", 0, 30, 100, 40, H)
    x = mkspan("body", 0, 60, 100, 70)
    spans = [far, near, x]
    assert nearest_header_above(x, spans) is near


def test_nearest_header_above_requires_overlap():
    off = mkspan("Off", 200, 0, 300, 10, H)
    x = mkspan("body", 0, 60, 100, 70)
    assert nearest_header_above(x, [off, x]) is None
    # 30 of 100 points of width is exactly the minimum
    edge = mkspan("Edge", 70, 0, 300, 10, H)
    assert nearest_header_above(x, [edge, x]) is edge


def test_nearest_header_above_ignores_headers_below():
    below = mkspan("Below", 0, 100, 100, 110, H)
    x = mkspan("body", 0, 60, 100, 70)
    assert nearest_header_above(x, [below, x]) is None


def test_nearest_header_tie_prefers_lower_top():
    tall = mkspan("Tall", 0, 10, 100, 30, H)
    short = mkspan("Short", 0, 20, 100, 30, H)  # same bottom, same gap
    x = mkspan("body", 0, 60, 100, 70)
    assert nearest_header_above(x, [tall, short, x]) is short


def test_median_line_height():
    spans = [mkspan("a", 0, 0, 10, 10), mkspan("b", 0, 20, 10, 50), mkspan("c", 0, 60, 10, 74)]
    assert median_line_height(spans) == 14.0
    assert median_line_height(spans[:2]) == 20.0
    assert median_line_height([]) == 0.0


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=9))
def test_median_line_height_matches_statistics_median(heights):
    # A box from 0 to h has height h exactly, for any finite h.
    spans = [mkspan("x", 0, 0, 10, h) for h in heights]
    assert median_line_height(spans) == statistics.median(heights)


# --- entry membership ---

def test_same_entry_within_group():
    a = mkspan("x", 0, 0, 10, 10, gi=7)
    b = mkspan("y", 500, 500, 510, 510, gi=7)
    assert same_entry(a, b, [a, b])


def test_same_entry_across_groups():
    a = mkspan("line one", 60, 330, 230, 342)
    b = mkspan("line two", 60, 344, 230, 356)
    assert same_entry(a, b, [a, b])
    shifted = mkspan("line two", 66.1, 344, 230, 356)
    assert not same_entry(a, shifted, [a, shifted])


def test_same_entry_gap_limit():
    a = mkspan("line one", 60, 0, 230, 12)
    b = mkspan("line two", 60, 100, 230, 112)
    # median height 12, allowed gap 18, actual 88
    assert not same_entry(a, b, [a, b])


def test_same_entry_requires_same_nearest_header():
    c = mkspan("narrow", 0, 50, 40, 60)
    b = mkspan("wide body", 0, 70, 200, 80)
    h = mkspan("Head", 100, 10, 180, 20, H)  # overlaps b, misses c
    assert not same_entry(c, b, [c, b, h])


def test_same_entry_blocked_by_intervening_header():
    c = mkspan("upper", 60, 0, 230, 12)
    h = mkspan("Interloper", 60, 20, 230, 30, H)
    b = mkspan("lower", 60, 40, 230, 52)
    assert not same_entry(c, b, [c, h, b])


# --- tree building ---

def parent_text(tree, node):
    return tree.nodes[node.parent].text if node.parent != ROOT_ID else "<root>"


def tree_shape(tree):
    return {
        n.text: parent_text(tree, n)
        for n in tree.nodes.values()
        if n.node_id != ROOT_ID
    }


def test_empty_and_neither_only_trees():
    for spans in ([], [mkspan("Page 1", 0, 0, 50, 10, SpanLabel.NEITHER)]):
        tree = build_tree(spans)
        validate_tree(tree)
        assert list(tree.nodes) == [ROOT_ID]
        assert directory_blocks(tree) == []


def test_single_body_hangs_off_root():
    tree = build_tree([mkspan("only body", 0, 0, 100, 10)])
    validate_tree(tree)
    blocks = directory_blocks(tree)
    assert len(blocks) == 1
    assert blocks[0].headers == ()
    assert blocks[0].body == "only body"


def test_adjacent_bodies_chain():
    spans = [
        mkspan("first line", 60, 100, 230, 110),
        mkspan("second line", 60, 112, 230, 122),
    ]
    tree = build_tree(spans)
    validate_tree(tree)
    assert tree_shape(tree) == {"first line": "<root>", "second line": "first line"}
    blocks = directory_blocks(tree)
    assert [b.body for b in blocks] == ["first line second line"]


def test_distant_bodies_stay_separate():
    spans = [
        mkspan("first line", 60, 100, 230, 110),
        mkspan("second line", 60, 300, 230, 310),
    ]
    tree = build_tree(spans)
    validate_tree(tree)
    assert tree_shape(tree) == {"first line": "<root>", "second line": "<root>"}
    assert len(directory_blocks(tree)) == 2


def test_header_claims_chained_bodies():
    spans = [
        mkspan("Custodian", 60, 50, 150, 62, H, bold=True),
        mkspan("Acme Capital S.A.", 60, 70, 230, 82),
        mkspan("14, boulevard Royal", 60, 84, 230, 96),
    ]
    tree = build_tree(spans)
    validate_tree(tree)
    assert tree_shape(tree) == {
        "Custodian": "<root>",
        "Acme Capital S.A.": "Custodian",
        "14, boulevard Royal": "Acme Capital S.A.",
    }
    blocks = directory_blocks(tree)
    assert [(list(b.headers), b.body) for b in blocks] == [
        (["Custodian"], "Acme Capital S.A. 14, boulevard Royal")
    ]


def test_childless_header_demoted_to_root():
    spans = [
        mkspan("BIG TITLE", 0, 0, 500, 20, H, size=16.0, bold=True),
        mkspan("Side Note", 300, 50, 400, 62, H, bold=True),
        mkspan("far left body", 0, 100, 200, 112),
    ]
    tree = build_tree(spans)
    validate_tree(tree)
    shape = tree_shape(tree)
    assert shape["Side Note"] == "<root>"
    assert shape["far left body"] == "BIG TITLE"
    assert [(list(b.headers), b.body) for b in directory_blocks(tree)] == [
        (["BIG TITLE"], "far left body")
    ]


def test_demotion_cascades():
    spans = [
        mkspan("BIG TITLE", 0, 0, 500, 20, H, size=16.0, bold=True),
        mkspan("Side Note", 300, 50, 400, 62, H, bold=True),
    ]
    tree = build_tree(spans)
    validate_tree(tree)
    assert tree_shape(tree) == {"BIG TITLE": "<root>", "Side Note": "<root>"}
    assert directory_blocks(tree) == []


def test_same_cluster_headers_never_nest():
    spans = [
        mkspan("Section One", 60, 50, 180, 62, H, bold=True),
        mkspan("Section Two", 60, 100, 180, 112, H, bold=True),
        mkspan("the body", 60, 120, 180, 132),
    ]
    tree = build_tree(spans)
    validate_tree(tree)
    shape = tree_shape(tree)
    assert shape["Section Two"] == "<root>"
    assert shape["Section One"] == "<root>"
    assert shape["the body"] == "Section Two"


def test_children_sorted_in_reading_order():
    spans = [
        mkspan("TITLE", 0, 0, 500, 20, H, size=16.0, bold=True),
        mkspan("left body", 0, 50, 200, 62),
        mkspan("right body", 300, 50, 500, 62),
    ]
    tree = build_tree(spans)
    validate_tree(tree)
    nodes = tree_to_json(tree)["nodes"]
    title = next(n for n in nodes if n["text"] == "TITLE")
    assert [nodes[c]["text"] for c in title["children"]] == ["left body", "right body"]


def test_node_ids_follow_reading_order():
    spans = [
        mkspan("second", 0, 50, 100, 60),
        mkspan("first", 0, 0, 100, 10),
    ]
    tree = build_tree(spans)
    assert tree.nodes[1].text == "first"
    assert tree.nodes[2].text == "second"


def _build_tree_all_pairs(spans, p):
    """Reference: build_tree testing each span against every earlier-visited
    unparented span, keeping each node's children in a list of its own."""
    sequence = reading_sequence([s for s in spans if s.label is not SpanLabel.NEITHER], p)
    clusters = cluster_headers(sequence, p)
    line_height = median_line_height(sequence)
    node_of = {id(s): i + 1 for i, s in enumerate(sequence)}
    nodes = {ROOT_ID: TreeNode(ROOT_ID, NodeLabel.ROOT, "", None)}
    for s in sequence:
        label = NodeLabel.HEADER if s.label is H else NodeLabel.BODY
        nodes[node_of[id(s)]] = TreeNode(
            node_of[id(s)], label, s.text, None, cluster_id=clusters.get(s), bbox=s.bbox,
        )
    children = {node_id: [] for node_id in nodes}
    traversed = []
    for current in reversed(sequence):
        cur_node = nodes[node_of[id(current)]]
        for earlier in traversed:
            node = nodes[node_of[id(earlier)]]
            if node.parent is not None:
                continue
            if current.label is B:
                claims = earlier.label is B and same_entry(
                    current, earlier, sequence, p, line_height)
            else:
                claims = can_parent(current, earlier, clusters, p)
            if claims:
                node.parent = cur_node.node_id
                children[cur_node.node_id].append(node.node_id)
        traversed.append(current)
    for s in sequence:
        node = nodes[node_of[id(s)]]
        if node.parent is None:
            node.parent = ROOT_ID
            children[ROOT_ID].append(node.node_id)
    changed = True
    while changed:  # demote childless headers until nothing moves
        changed = False
        for node in nodes.values():
            if (node.label is NodeLabel.HEADER and not children[node.node_id]
                    and node.parent != ROOT_ID):
                children[node.parent].remove(node.node_id)
                node.parent = ROOT_ID
                children[ROOT_ID].append(node.node_id)
                changed = True
    return ReadingTree(nodes=nodes)


@st.composite
def _scattered_spans(draw):
    # Few styles, groups and grid positions, so that clusters hold several
    # headers, groups several spans, and boxes stack, align and overlap.
    spans = []
    for k in range(draw(st.integers(0, 16))):
        label = draw(st.sampled_from([H, H, B, B, B, SpanLabel.NEITHER]))
        left = draw(st.integers(0, 6)) * 40.0 + draw(st.sampled_from([0.0, 3.0, 7.5]))
        top = draw(st.integers(0, 12)) * 12.0 + draw(st.sampled_from([0.0, 2.0, 6.0]))
        width = draw(st.sampled_from([30.0, 100.0, 250.0]))
        height = draw(st.sampled_from([10.0, 12.0, 30.0]))
        spans.append(mkspan(
            draw(st.sampled_from(["Title", "TITLE", "entry", f"s{k}"])),
            left, top, left + width, top + height, label,
            gi=draw(st.integers(0, 5)),
            size=draw(st.sampled_from([10.0, 10.4, 12.0, 16.0])),
            bold=draw(st.booleans()),
        ))
    return spans


@st.composite
def _column_spans(draw):
    """Left-aligned one-line bodies, each its own group, on a pitch near the
    line height, with optional headers above the column, beside its rows or
    on a row of their own between bodies."""
    def header(text, left, top, right):
        return mkspan(text, left, top, right, top + 10.0, H,
                      size=draw(st.sampled_from([10.0, 12.0, 16.0])), bold=draw(st.booleans()))

    column, pitch = 120.0, draw(st.sampled_from([10.0, 12.0, 14.0]))
    spans = [header(f"top {k}", draw(st.sampled_from([0.0, 120.0])), 12.0 * k, 400.0)
             for k in range(draw(st.integers(0, 2)))]
    top = 30.0
    for i in range(draw(st.integers(2, 12))):
        beside = draw(st.sampled_from([None, None, "left", "right", "row"]))
        if beside == "row":
            spans.append(header(f"row {i}", column, top, column + 150.0))
            top += pitch
        elif beside is not None:
            left = 0.0 if beside == "left" else 340.0
            spans.append(header(f"{beside} {i}", left, top, left + 100.0))
        left = column + draw(st.sampled_from([0.0, 0.0, 3.0, 8.0]))
        spans.append(mkspan(f"b{i}", left, top, left + 200.0, top + 10.0))
        top += pitch
    return spans


def _tree_spans():
    return _scattered_spans() | _column_spans()


@settings(max_examples=300)
@given(
    spans=_tree_spans(),
    p=st.builds(
        TreeParams,
        band_overlap_frac=st.sampled_from([0.2, 0.5, 1.0]),
        align_tol=st.sampled_from([0.0, 5.0, 20.0]),
        gap_factor=st.sampled_from([0.0, 1.5, 6.0]),
        min_x_overlap_frac=st.sampled_from([0.1, 0.3, 1.0]),
        size_cluster_tol=st.sampled_from([0.0, 0.5, 3.0]),
    ),
)
def test_build_tree_matches_all_pairs_claim(spans, p):
    tree = build_tree(spans, p)
    assert tree_to_json(tree) == tree_to_json(_build_tree_all_pairs(spans, p))
    # No Neither span becomes a node.
    assert len(tree.nodes) == sum(s.label is not SpanLabel.NEITHER for s in spans) + 1


def _grid_page(k, columns=5):
    """A title above k cells, each a header above one body line."""
    spans = [mkspan("DIRECTORY", 0, 0, 255 * columns, 20, H, size=16.0, bold=True)]
    for i in range(k):
        left, top = (i % columns) * 255.0, 40.0 + (i // columns) * 80.0
        spans.append(mkspan(f"Head {i}", left, top, left + 150, top + 12, H, bold=True))
        spans.append(mkspan(f"body {i}", left, top + 16, left + 200, top + 28))
    return spans


@pytest.mark.parametrize("k", [50, 200])
def test_build_tree_can_parent_calls_linear_on_grid(monkeypatch, k):
    calls = []

    def counting_can_parent(*args):
        calls.append(1)
        return can_parent(*args)

    monkeypatch.setattr(tree_module, "can_parent", counting_can_parent)
    tree = build_tree(_grid_page(k))
    validate_tree(tree)
    assert [(b.headers, b.body) for b in directory_blocks(tree)] == [
        (("DIRECTORY", f"Head {i}"), f"body {i}") for i in range(k)
    ]
    assert len(calls) <= 4 * (2 * k + 1)  # all earlier spans would be about k * k / 2


def _column_page(n):
    """One header over n left-aligned bodies, each its own group, 10 pt high
    on a 12 pt pitch, so that they chain into one entry."""
    return [mkspan("DIRECTORY", 0, 0, 300, 20, H, size=16.0, bold=True)] + [
        mkspan(f"body {i}", 0, 30 + 12.0 * i, 200, 40 + 12.0 * i) for i in range(n)]


@pytest.mark.parametrize("spans", [_column_page(250), _column_page(500), _column_page(1000),
                                   _grid_page(50), _grid_page(200)],
                         ids=["column250", "column500", "column1000", "grid50", "grid200"])
def test_build_tree_header_scans_linear(monkeypatch, spans):
    # The body-chain test reads only headers, so it is handed the page's
    # headers, not every span: on the column that is one header per call.
    scanned = []

    def counting_nearest_header_above(x, candidates, p=None):
        scanned.append(len(candidates))
        return nearest_header_above(x, candidates, p)

    monkeypatch.setattr(tree_module, "nearest_header_above", counting_nearest_header_above)
    tree = build_tree(spans)
    validate_tree(tree)
    if spans[1].label is B:  # the column: one entry, so every pair reaches the scans
        assert [(b.headers, b.body) for b in directory_blocks(tree)] == [
            (("DIRECTORY",), " ".join(s.text for s in spans[1:]))]
    assert sum(scanned) <= 4 * len(spans)  # every span per call would be about 2 * n * n


# --- the worked example ---

def test_fixture_tree_shape(fig1a_page):
    tree = build_fixture_tree(fig1a_page)
    validate_tree(tree)
    assert len(tree.nodes) == 15  # root + 14 spans
    shape = tree_shape(tree)
    texts = {gi: tree.nodes[i].text for gi, i in zip(
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13],
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14],
    )}
    assert texts[0] == "DIRECTORY"
    assert shape[texts[1]] == "DIRECTORY"          # Registered Office
    assert shape[texts[2]] == "DIRECTORY"          # Administrator
    assert shape[texts[3]] == texts[1]             # its address body
    assert shape[texts[4]] == texts[2]
    assert shape[texts[5]] == "DIRECTORY"          # Auditor
    assert shape[texts[6]] == texts[5]
    assert shape[texts[7]] == "DIRECTORY"          # Legal Counsel
    assert shape[texts[8]] == texts[7]             # Hong Kong variant
    assert shape[texts[9]] == texts[7]             # Singapore variant
    assert shape[texts[10]] == texts[8]
    assert shape[texts[11]] == texts[9]
    assert shape[texts[12]] == texts[7]            # Cayman variant
    assert shape[texts[13]] == texts[12]


def test_fixture_clusters(fig1a_page):
    tree = build_fixture_tree(fig1a_page)
    by_text = {n.text: n for n in tree.nodes.values()}
    as_per = [n for t, n in by_text.items() if t.startswith("(as per")]
    assert len({n.cluster_id for n in as_per}) == 1
    sections = [
        by_text["Registered Office of the Fund"],
        by_text["Administrator of the Fund"],
        by_text["Auditor of the Fund"],
    ]
    assert len({n.cluster_id for n in sections}) == 1
    lc = by_text["Legal Counsel to the Fund and Master Fund"]
    top = by_text["DIRECTORY"]
    ids = {
        as_per[0].cluster_id,
        sections[0].cluster_id,
        lc.cluster_id,
        top.cluster_id,
    }
    assert len(ids) == 4
    assert as_per[0].cluster_id == 1  # smallest font size gets the first id
    assert top.cluster_id == 4


def test_fixture_blocks(fig1a_page):
    blocks = directory_blocks(build_fixture_tree(fig1a_page))
    assert [(list(b.headers), b.body) for b in blocks] == EXPECTED_BLOCKS


# --- invariant checking ---

def make_valid_tree():
    spans = [
        mkspan("Custodian", 60, 50, 150, 62, H, bold=True),
        mkspan("Acme Capital S.A.", 60, 70, 230, 82),
        mkspan("14, boulevard Royal", 60, 84, 230, 96),
    ]
    return build_tree(spans)


def test_validate_accepts_built_trees():
    validate_tree(make_valid_tree())


def test_validate_missing_root():
    tree = make_valid_tree()
    del tree.nodes[ROOT_ID]
    tree.nodes[1].parent = None
    with pytest.raises(TreeInvariantError, match="root"):
        validate_tree(tree)


def test_validate_root_must_be_orphan():
    tree = make_valid_tree()
    tree.nodes[ROOT_ID].parent = 1
    with pytest.raises(TreeInvariantError, match="root"):
        validate_tree(tree)


def test_validate_dangling_parent():
    tree = make_valid_tree()
    tree.nodes[2].parent = 99
    with pytest.raises(TreeInvariantError, match="valid parent"):
        validate_tree(tree)


# A tree's children lists exist only in its JSON form, so the tests that
# break them edit that form; ``data["nodes"][i]`` is node i.

def test_validate_unknown_child():
    data = tree_to_json(make_valid_tree())
    data["nodes"][2]["children"].append(99)
    with pytest.raises(ValueError, match="unknown child 99"):
        tree_from_json(data)


def test_validate_unmirrored_link():
    data = tree_to_json(make_valid_tree())
    data["nodes"][2]["parent"] = ROOT_ID  # root's children don't list node 2
    with pytest.raises(ValueError, match="invalid tree"):
        tree_from_json(data)


def test_validate_duplicate_child_entry():
    data = tree_to_json(make_valid_tree())
    data["nodes"][ROOT_ID]["children"].append(1)
    with pytest.raises(ValueError, match="invalid tree"):
        tree_from_json(data)


def test_validate_cycle():
    tree = make_valid_tree()
    a, b = tree.nodes[2], tree.nodes[3]
    a.parent, b.parent = b.node_id, a.node_id
    with pytest.raises(TreeInvariantError, match="cycle"):
        validate_tree(tree)


def test_validate_childless_header_below_root():
    nodes = {
        ROOT_ID: TreeNode(ROOT_ID, NodeLabel.ROOT, "", None),
        1: TreeNode(1, NodeLabel.HEADER, "Outer", ROOT_ID),
        2: TreeNode(2, NodeLabel.HEADER, "Inner", 1),
    }
    with pytest.raises(TreeInvariantError, match="childless header"):
        validate_tree(ReadingTree(nodes))


def test_validate_header_under_body():
    nodes = {
        ROOT_ID: TreeNode(ROOT_ID, NodeLabel.ROOT, "", None),
        1: TreeNode(1, NodeLabel.BODY, "body", ROOT_ID),
        2: TreeNode(2, NodeLabel.HEADER, "Head", 1),
        3: TreeNode(3, NodeLabel.BODY, "leaf", 2),
    }
    with pytest.raises(TreeInvariantError):
        validate_tree(ReadingTree(nodes))


def test_validate_same_cluster_parent_child():
    nodes = {
        ROOT_ID: TreeNode(ROOT_ID, NodeLabel.ROOT, "", None),
        1: TreeNode(1, NodeLabel.HEADER, "Outer", ROOT_ID, cluster_id=5),
        2: TreeNode(2, NodeLabel.HEADER, "Inner", 1, cluster_id=5),
        3: TreeNode(3, NodeLabel.BODY, "leaf", 2),
    }
    with pytest.raises(TreeInvariantError, match="cluster"):
        validate_tree(ReadingTree(nodes))


def _equality_tests(make_nodes, k, work):
    """Equality tests made on node ids while ``work`` runs on the nodes
    ``make_nodes(k, Id)`` builds, where ``Id`` makes a node id that counts
    them: a scan of a list of ids for an id tests every id it passes."""
    count = [0]

    class Id(int):
        __hash__ = int.__hash__

        def __eq__(self, other):
            count[0] += 1
            return int.__eq__(self, other)

    nodes = make_nodes(k, Id)
    count[0] = 0
    work(nodes)
    return count[0]


def _root_of_bodies(k, Id):
    """A root with k body children, each a block of its own."""
    nodes = {Id(ROOT_ID): TreeNode(Id(ROOT_ID), NodeLabel.ROOT, "", None)}
    for i in range(1, k + 1):
        nodes[Id(i)] = TreeNode(Id(i), NodeLabel.BODY, f"body {i}", Id(ROOT_ID))
    return nodes


def _header_over_headers(k, Id):
    """A header under the root over k childless headers, given by their
    parent links alone, as ``build_tree`` hands them to demotion."""
    nodes = {
        Id(ROOT_ID): TreeNode(Id(ROOT_ID), NodeLabel.ROOT, "", None),
        Id(1): TreeNode(Id(1), NodeLabel.HEADER, "Title", Id(ROOT_ID), cluster_id=1),
    }
    for i in range(2, k + 2):
        nodes[Id(i)] = TreeNode(Id(i), NodeLabel.HEADER, f"Head {i}", Id(1), cluster_id=2)
    return nodes


def _demote_and_check(nodes):
    tree_module._demote_childless_headers(nodes)
    assert all(node.parent == ROOT_ID for node_id, node in nodes.items() if node_id != ROOT_ID)
    listed = {node["id"]: node["children"] for node in tree_to_json(ReadingTree(nodes))["nodes"]}
    assert sorted(listed[ROOT_ID]) == sorted(set(nodes) - {ROOT_ID})
    assert listed[1] == []


@pytest.mark.parametrize("make_nodes, work", [
    (_root_of_bodies, lambda nodes: validate_tree(ReadingTree(nodes))),
    (_header_over_headers, _demote_and_check),
], ids=["validate_tree", "demote_childless_headers"])
def test_tree_checks_linear_in_child_count(make_nodes, work):
    # A membership test or a remove per child, on a node with k children,
    # would make k * k / 2 equality tests.
    small, large = (_equality_tests(make_nodes, k, work) for k in (500, 1000))
    assert large <= 2.2 * small + 20, (small, large)


def _bodies_partitioned(tree):
    """The partition check ``validate_tree`` once ended with: every body is
    in the body subtree of exactly one chain head (a body whose parent is
    not a body)."""
    nodes = tree.nodes
    body_children = {}
    for node in nodes.values():
        if node.label is NodeLabel.BODY:
            body_children.setdefault(node.parent, []).append(node)
    covered = set()
    for head in nodes.values():
        if head.label is not NodeLabel.BODY or nodes[head.parent].label is NodeLabel.BODY:
            continue
        stack = [head]
        while stack:
            node = stack.pop()
            if node.node_id in covered:
                return False
            covered.add(node.node_id)
            stack.extend(body_children.get(node.node_id, ()))
    return covered == {n.node_id for n in nodes.values() if n.label is NodeLabel.BODY}


@st.composite
def _node_dicts(draw):
    """Small trees in their JSON form, most of them close to valid.  Labels
    and clusters are random.  A parent is usually an earlier node,
    sometimes any node (so cycles occur), missing, the node itself or a
    dangling id.  Children lists mirror the parents, with a few entries
    added, repeated or dropped.  Node i is ``data["nodes"][i]``."""
    n = draw(st.integers(1, 9))
    dangling = n + 1
    nodes = []
    for i in range(n):
        if i == 0 and draw(st.integers(0, 9)):
            label, parent = NodeLabel.ROOT, None
        else:
            label = draw(st.sampled_from([*[NodeLabel.BODY] * 4, *[NodeLabel.HEADER] * 2,
                                          NodeLabel.ROOT]))
            kind = draw(st.integers(0, 19))
            if i and kind > 1:
                parent = draw(st.integers(0, i - 1))
            elif kind == 1:
                parent = draw(st.integers(0, n - 1))
            else:
                parent = draw(st.sampled_from([None, i, dangling]))
        nodes.append({"id": i, "label": label.value, "text": f"text {i}", "parent": parent,
                      "children": [], "cluster": draw(st.sampled_from([None, 1, 2]))})
    for node in nodes:
        if node["parent"] in range(n):
            nodes[node["parent"]]["children"].append(node["id"])
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        children = nodes[draw(st.integers(0, n - 1))]["children"]
        edit = draw(st.sampled_from(["add", "repeat", "drop"]))
        if edit == "add":
            children.insert(draw(st.integers(0, len(children))),
                            draw(st.sampled_from([*range(n), dangling])))
        elif children:
            k = draw(st.integers(0, len(children) - 1))
            if edit == "repeat":
                children.append(children[k])
            else:
                del children[k]
    return {"nodes": nodes}


def _validate_tree_reference(data):
    """``validate_tree`` as it was when each node also held its children
    list, run on a tree's JSON form: the first fault's message, or None."""
    nodes = {
        node["id"]: SimpleNamespace(node_id=node["id"], label=NodeLabel(node["label"]),
                                    parent=node["parent"], children=node["children"],
                                    cluster_id=node["cluster"])
        for node in data["nodes"]
    }
    if ROOT_ID not in nodes or nodes[ROOT_ID].label is not NodeLabel.ROOT:
        return "missing root node"
    listed = {(node_id, c) for node_id, node in nodes.items() for c in node.children}
    for node in nodes.values():
        if node.node_id == ROOT_ID:
            if node.parent is not None:
                return "root must have no parent"
            continue
        if node.parent is None or node.parent not in nodes:
            return f"node {node.node_id} has no valid parent"
        if (node.parent, node.node_id) not in listed:
            return f"node {node.node_id} missing from its parent's children"

    seen_children = set()
    for node in nodes.values():
        for c in node.children:
            if c not in nodes:
                return f"node {node.node_id} lists unknown child {c}"
            if c in seen_children:
                return f"node {c} appears under two parents"
            seen_children.add(c)
            if nodes[c].parent != node.node_id:
                return f"child link {node.node_id}->{c} not mirrored"

    reaches_root = {ROOT_ID}
    for node in nodes.values():
        visited = set()
        cur = node.node_id
        while cur not in reaches_root:
            if cur in visited:
                return f"cycle involving node {cur}"
            visited.add(cur)
            cur = nodes[cur].parent
        reaches_root |= visited

    for node in nodes.values():
        if node.node_id == ROOT_ID:
            continue
        parent = nodes[node.parent]
        if not node.children and node.label is NodeLabel.HEADER and node.parent != ROOT_ID:
            return f"childless header {node.node_id} not attached to root"
        if node.label is NodeLabel.HEADER and parent.label is NodeLabel.BODY:
            return f"header {node.node_id} parented by a body"
        if node.label is NodeLabel.BODY and node.children:
            if any(nodes[c].label is not NodeLabel.BODY for c in node.children):
                return f"body {node.node_id} has a non-body child"
        if (
            node.label is NodeLabel.HEADER
            and parent.label is NodeLabel.HEADER
            and node.cluster_id is not None
            and node.cluster_id == parent.cluster_id
        ):
            return f"header {node.node_id} shares a cluster with its parent"
    return None


@settings(max_examples=1000)
@given(_node_dicts())
def test_tree_from_json_faults_as_the_reference(data):
    # The file's lists are checked when the tree is read and then dropped;
    # the first fault reported is the one validate_tree reported when the
    # nodes kept their lists.
    expected = _validate_tree_reference(data)
    try:
        validate_tree(tree_from_json(data, ("pred.json: $", "pages", 0, "tree")))
    except ValueError as e:
        assert str(e) == f"pred.json: $.pages[0].tree: invalid tree: {expected}"
    else:
        assert expected is None


@settings(max_examples=500)
@given(_node_dicts())
def test_validated_trees_partition_bodies_into_blocks(data):
    # validate_tree no longer checks the partition itself: its structural
    # checks, which tree_from_json runs, imply it, so every tree read must
    # pass the old check.
    try:
        tree = tree_from_json(data)
    except ValueError:
        return
    assert _bodies_partitioned(tree)


# --- blocks ---

def test_blocks_order_by_last_chain_member():
    nodes = {
        ROOT_ID: TreeNode(ROOT_ID, NodeLabel.ROOT, "", None),
        1: TreeNode(1, NodeLabel.BODY, "early start", ROOT_ID),
        2: TreeNode(2, NodeLabel.BODY, "middle", ROOT_ID),
        4: TreeNode(4, NodeLabel.BODY, "late finish", 1),
    }
    tree = ReadingTree(nodes)
    blocks = directory_blocks(tree)
    assert [b.body for b in blocks] == ["middle", "early start late finish"]


def test_blocks_header_stack_root_down():
    nodes = {
        ROOT_ID: TreeNode(ROOT_ID, NodeLabel.ROOT, "", None),
        1: TreeNode(1, NodeLabel.HEADER, "Outer", ROOT_ID, cluster_id=1),
        2: TreeNode(2, NodeLabel.HEADER, "Inner", 1, cluster_id=2),
        3: TreeNode(3, NodeLabel.BODY, "leaf", 2),
    }
    blocks = directory_blocks(ReadingTree(nodes))
    assert blocks[0].headers == ("Outer", "Inner")


# --- serialization ---

def test_tree_json_round_trip(fig1a_page):
    tree = build_fixture_tree(fig1a_page)
    data = tree_to_json(tree)
    assert [n["id"] for n in data["nodes"]] == sorted(n["id"] for n in data["nodes"])
    root_obj = data["nodes"][0]
    assert root_obj["id"] == ROOT_ID and root_obj["parent"] is None

    again = tree_from_json(data)
    validate_tree(again)
    assert directory_blocks(again) == directory_blocks(tree)
    for node_id, node in tree.nodes.items():
        other = again.nodes[node_id]
        assert (other.label, other.text, other.parent, other.cluster_id) == (
            node.label, node.text, node.parent, node.cluster_id
        )
    # The children lists written again from the parents are the ones read.
    assert tree_to_json(again) == data


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["nodes"][1].update(text=5), "$.nodes[1].text: expected string, got int"),
        (lambda d: d["nodes"][1].update(children="ab"),
         "$.nodes[1].children: expected array, got str"),
        (lambda d: d["nodes"][1].pop("parent"), "$.nodes[1].parent: missing required field"),
        (lambda d: d["nodes"].append([]), "$.nodes[4]: expected object, got list"),
        (lambda d: d.update(nodes={}), "$.nodes: expected array, got dict"),
        (lambda d: d["nodes"][1].update(id=math.inf), "$.nodes[1].id: expected integer, got float"),
        (lambda d: d["nodes"][1].update(id=2.5), "$.nodes[1].id: expected integer, got float"),
        (lambda d: d["nodes"][1].update(parent="0"),
         "$.nodes[1].parent: expected integer, got str"),
        (lambda d: d["nodes"][1].update(parent=True),
         "$.nodes[1].parent: expected integer, got bool"),
        (lambda d: d["nodes"][0]["children"].append(1.0),
         "$.nodes[0].children[1]: expected integer, got float"),
    ],
    ids=["text", "children", "no_parent", "node_not_object", "nodes_not_array",
         "inf_id", "float_id", "string_parent", "bool_parent", "float_child"],
)
def test_tree_from_json_rejects_malformed(mutate, message):
    data = tree_to_json(make_valid_tree())
    mutate(data)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tree_from_json(data)


def test_tree_from_json_rejects_a_node_id_given_twice():
    # Keeping only the last of the two would drop "first" from a tree that
    # still validates, with one block: H -> second.
    data = {"nodes": [
        {"id": 0, "label": "Root", "text": "", "parent": None, "children": [1]},
        {"id": 1, "label": "Header", "text": "H", "parent": 0, "children": [2]},
        {"id": 2, "label": "Body", "text": "first", "parent": 1, "children": []},
        {"id": 2, "label": "Body", "text": "second", "parent": 1, "children": []},
    ]}
    with pytest.raises(ValueError, match=r"^\$\.nodes\[3\]\.id: node id 2 given twice$"):
        tree_from_json(data)
    with pytest.raises(ValueError, match=r"^pred\.json: \$\.pages\[0\]\.tree\.nodes\[3\]\.id: "):
        tree_from_json(data, ("pred.json: $", "pages", 0, "tree"))
    data["nodes"][3]["id"] = 10**400
    with pytest.raises(ValueError) as raised:
        tree_from_json(dict(data, nodes=data["nodes"] + data["nodes"][3:]))
    assert len(str(raised.value)) < 100


def test_blocks_to_json():
    blocks = directory_blocks(make_valid_tree())
    plain = blocks_to_json(blocks)
    assert plain == [{"headers": ["Custodian"], "body": "Acme Capital S.A. 14, boulevard Royal"}]
    paged = blocks_to_json(blocks, page_index=3)
    assert paged[0]["page"] == 3
