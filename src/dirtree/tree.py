"""Bottom-up construction of the hierarchical reading tree.

Spans are visited in reverse reading order (bottom band first, rightmost span
first).  Each Body claims earlier-visited bodies that belong to the same
entry; each Header claims everything it visually dominates: the space below
it and to its right, unless a nearer node already claimed it.  Headers with
indistinguishable styling sit in one cluster and never parent each other,
which is what keeps sibling sections from swallowing one another.
"""

from __future__ import annotations

import reprlib
from collections import Counter
from enum import Enum
from math import inf
from typing import NamedTuple

from .jsonin import (
    ROOT, SchemaError, finite, integer, items, json_path, nullable, obj, one_of, string, top,
)
from .segment import LabeledSpan, SpanLabel
from .visual import BBox, v_gap, x_overlap


class TreeParamError(ValueError):
    pass


class TreeInvariantError(RuntimeError):
    """The constructed tree violates a structural invariant."""


class _TreeParamFields(NamedTuple):
    band_overlap_frac: float = 0.5
    align_tol: float = 5.0
    gap_factor: float = 1.5
    min_x_overlap_frac: float = 0.3
    size_cluster_tol: float = 0.5


class TreeParams(_TreeParamFields):
    """The tree builder's tolerances, checked whenever a value is made: by
    position, by keyword, through ``_make`` or ``_replace``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # Every check is written so that NaN, which compares False, and the
        # infinities fail it.
        if not 0 < self.band_overlap_frac <= 1:
            raise TreeParamError("band_overlap_frac must be in (0, 1]")
        if not 0 <= self.align_tol < inf:
            raise TreeParamError("align_tol must be finite and >= 0")
        if not 0 <= self.gap_factor < inf:
            raise TreeParamError("gap_factor must be finite and >= 0")
        if not 0 < self.min_x_overlap_frac <= 1:
            raise TreeParamError("min_x_overlap_frac must be in (0, 1]")
        if not 0 <= self.size_cluster_tol < inf:
            raise TreeParamError("size_cluster_tol must be finite and >= 0")
        return self

    @classmethod
    def _make(cls, iterable):
        # The base's ``_make`` (which ``_replace`` calls) skips ``__new__``.
        return cls(*iterable)


ROOT_ID = 0


class NodeLabel(str, Enum):
    ROOT = "Root"
    HEADER = "Header"
    BODY = "Body"


class TreeNode:
    """One node of a reading tree.  Its ``parent`` is the tree's one record
    of the edge above it."""

    __slots__ = ("node_id", "label", "text", "parent", "cluster_id", "bbox")

    def __init__(self, node_id: int, label: NodeLabel, text: str, parent: "int | None",
                 cluster_id: "int | None" = None, bbox: "BBox | None" = None):
        self.node_id, self.label, self.text, self.parent = node_id, label, text, parent
        self.cluster_id, self.bbox = cluster_id, bbox


class ReadingTree(NamedTuple):
    nodes: dict[int, TreeNode]


class DirectoryBlock(NamedTuple):
    headers: tuple[str, ...]
    body: str


# --- header clustering -----------------------------------------------------

_CASING_ALL_CAPS = "all_caps"
_CASING_TITLE = "title"
_CASING_OTHER = "other"


def casing_class(text: str) -> str:
    # filter and map test each character without a Python frame per character.
    letters = "".join(filter(str.isalpha, text))
    if not letters:
        return _CASING_OTHER
    if all(map(str.isupper, letters)):
        return _CASING_ALL_CAPS
    return _CASING_TITLE if letters[0].isupper() else _CASING_OTHER


def cluster_headers(spans: "list[LabeledSpan]", p: TreeParams) -> "dict[LabeledSpan, int]":
    """Cluster id per header span.

    Sizes are grouped first by single linkage (a chain of gaps, each within
    the tolerance, stays one group), then each size group splits on the exact
    (bold, italic, color, casing) tuple.  Ids are dense from 1, assigned in
    ascending size order.
    """
    headers = [s for s in spans if s.label is SpanLabel.HEADER]
    if not headers:
        return {}
    sizes = sorted({s.style_summary.font_size for s in headers})
    size_group_of: dict[float, int] = {sizes[0]: 0}
    group = 0
    for prev, cur in zip(sizes, sizes[1:]):
        if cur - prev > p.size_cluster_tol:
            group += 1
        size_group_of[cur] = group

    keys = []  # one per header: casing_class runs once per header
    for s in headers:
        st = s.style_summary
        keys.append((size_group_of[st.font_size], st.bold, st.italic, st.color, casing_class(s.text)))
    ids = {key: i + 1 for i, key in enumerate(sorted(set(keys)))}
    return {s: ids[key] for s, key in zip(headers, keys)}


# --- reading order ---------------------------------------------------------

def _same_band(a: BBox, b: BBox, p: TreeParams) -> bool:
    # The heights and the vertical overlap, written out: this runs once per pair.
    shorter = min(a.bottom - a.top, b.bottom - b.top)
    if shorter <= 0:
        # Degenerate zero-height boxes: band together only when touching.
        return max(a.top, b.top) <= min(a.bottom, b.bottom)
    overlap = min(a.bottom, b.bottom) - max(a.top, b.top)
    # overlap > 0 first: band_overlap_frac * shorter can underflow to 0.0.
    return overlap > 0 and overlap >= p.band_overlap_frac * shorter


def _tie_key(s: LabeledSpan, i: int) -> tuple:
    """Left edge first, then the rest of the geometry and the text, so that
    the index (the order of groups in the JSON) breaks only full ties."""
    return (*s.bbox, s.text, i)


def reading_sequence(spans: "list[LabeledSpan]", p: "TreeParams | None" = None) -> "list[LabeledSpan]":
    """Spans in natural reading order: bands top to bottom, left to right
    within a band.  ``reversed()`` of the result walks the page bottom-up,
    rightmost first."""
    p = p or TreeParams()
    n = len(spans)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    # Sweep in ascending top order.  Two boxes band together only when their
    # y-intervals meet (an inverted box meets nothing), so each span is
    # tested only against earlier spans whose bottom reaches its top.
    boxes = [s.bbox for s in spans]
    tops = [b.top for b in boxes]
    open_spans: list[int] = []
    for j in sorted(range(n), key=tops.__getitem__):
        top, box = tops[j], boxes[j]
        open_spans = [i for i in open_spans if boxes[i].bottom >= top]
        for i in open_spans:
            if _same_band(boxes[i], box, p):
                union(i, j)
        open_spans.append(j)

    bands: dict[int, list[int]] = {}
    for i in range(n):
        bands.setdefault(find(i), []).append(i)

    def band_key(members):
        return min(tops[i] for i in members), min(boxes[i].left for i in members)

    tie_keys = [_tie_key(s, i) for i, s in enumerate(spans)]
    ordered = []
    for members in sorted(bands.values(), key=band_key):
        members.sort(key=tie_keys.__getitem__)
        ordered.extend(spans[i] for i in members)
    return ordered


# --- dominance and entry membership ----------------------------------------

def can_parent(
    c: LabeledSpan,
    n: LabeledSpan,
    clusters: "dict[LabeledSpan, int]",
    p: "TreeParams | None" = None,
) -> bool:
    """Whether candidate ``c`` may become the parent of node ``n``.

    ``n`` must start below ``c``; it must either overlap ``c`` horizontally
    by a minimum fraction of its own width or sit to the right of ``c``'s
    left edge; and two headers from the same cluster are never related.
    """
    p = p or TreeParams()
    cb, nb = c.bbox, n.bbox
    if nb.top <= cb.top + p.align_tol:
        return False
    admissible = (
        x_overlap(cb, nb) >= p.min_x_overlap_frac * (nb.right - nb.left)
        or nb.left >= cb.left - p.align_tol
    )
    if not admissible:
        return False
    if (
        c.label is SpanLabel.HEADER
        and n.label is SpanLabel.HEADER
        and clusters.get(c) == clusters.get(n)
    ):
        return False
    return True


def nearest_header_above(
    x: LabeledSpan,
    spans: "list[LabeledSpan]",
    p: "TreeParams | None" = None,
) -> "LabeledSpan | None":
    """The closest header above ``x`` with enough horizontal overlap, or None
    for the synthetic root.  ``spans`` may be just headers, in reading order."""
    p = p or TreeParams()
    best = None
    best_key = None
    for idx, h in enumerate(spans):
        if h.label is not SpanLabel.HEADER:
            continue
        if x.bbox.top <= h.bbox.top + p.align_tol:
            continue
        if x_overlap(h.bbox, x.bbox) < p.min_x_overlap_frac * x.bbox.width:
            continue
        key = (x.bbox.top - h.bbox.bottom, -h.bbox.top, _tie_key(h, idx))
        if best_key is None or key < best_key:
            best = h
            best_key = key
    return best


def median_line_height(spans: "list[LabeledSpan]") -> float:
    """Median span height, used as the page's line-height estimate.

    Most spans on a directory page are single lines, so the median is robust
    to the occasional multi-line body box.
    """
    heights = sorted(s.bbox.height for s in spans)
    if not heights:
        return 0.0
    i = len(heights) // 2
    # The middle height, or the mean of the two middle ones, as
    # statistics.median computes it.
    return heights[i] if len(heights) % 2 else (heights[i - 1] + heights[i]) / 2


def same_entry(
    c: LabeledSpan,
    b: LabeledSpan,
    spans: "list[LabeledSpan]",
    p: "TreeParams | None" = None,
    line_height: "float | None" = None,
) -> bool:
    """Whether body ``b`` continues the entry started by body ``c``.

    True within one group; across groups both hang under one nearest header,
    are left-aligned, at most ``gap_factor`` line heights apart, no admissible
    header between.  Given ``line_height``, ``spans`` may be just the headers.
    """
    p = p or TreeParams()
    if c.group_index == b.group_index:
        return True
    if line_height is None:
        line_height = median_line_height(spans)
    if abs(c.bbox.left - b.bbox.left) > p.align_tol:
        return False
    if v_gap(c.bbox, b.bbox) > p.gap_factor * line_height:
        return False
    if nearest_header_above(c, spans, p) is not nearest_header_above(b, spans, p):
        return False
    for h in spans:
        if h.label is not SpanLabel.HEADER:
            continue
        if (
            h.bbox.top > c.bbox.top + p.align_tol
            and h.bbox.top < b.bbox.top - p.align_tol
            and x_overlap(h.bbox, b.bbox) >= p.min_x_overlap_frac * b.bbox.width
        ):
            return False
    return True


# --- tree construction -----------------------------------------------------

def build_tree(spans: "list[LabeledSpan]", p: "TreeParams | None" = None) -> ReadingTree:
    """Assemble the reading tree from labeled spans.

    Walks the reading sequence in reverse.  A Body claims earlier unparented
    bodies of the same entry (chaining multi-line bodies); a Header claims
    every earlier unparented node it can dominate, and never scans the
    headers of its own cluster, which it cannot parent.  Whatever is left
    joins the synthetic root.  Headers that end up childless are moved under
    the root and later excluded from the emitted blocks.
    """
    p = p or TreeParams()
    live = [s for s in spans if s.label is not SpanLabel.NEITHER]
    sequence = reading_sequence(live, p)
    headers = [s for s in sequence if s.label is SpanLabel.HEADER]
    clusters = cluster_headers(headers, p)
    line_height = median_line_height(sequence)

    # A span's node id is its reading position + 1, and a header's cluster
    # id is looked up once, so the claim loop hashes no span.
    nodes: dict[int, TreeNode] = {ROOT_ID: TreeNode(ROOT_ID, NodeLabel.ROOT, "", None)}
    for node_id, s in enumerate(sequence, 1):
        header = s.label is SpanLabel.HEADER
        nodes[node_id] = TreeNode(node_id, NodeLabel.HEADER if header else NodeLabel.BODY, s.text,
                                  None, clusters[s] if header else None, s.bbox)

    # Unclaimed earlier node ids, bucketed: bodies under None, headers under
    # their cluster id.  A body can claim only bodies, and a header anything
    # outside its own cluster, so each scans only the buckets it could claim.
    unclaimed: "dict[int | None, list[int]]" = {}
    for node_id in range(len(sequence), 0, -1):
        current, cur_node = sequence[node_id - 1], nodes[node_id]
        key = cur_node.cluster_id  # None for a body
        for k in [None] if key is None else [k for k in unclaimed if k != key]:
            kept = []
            for earlier in unclaimed.get(k, ()):
                if (
                    same_entry(current, sequence[earlier - 1], headers, p, line_height)
                    if key is None
                    else can_parent(current, sequence[earlier - 1], clusters, p)
                ):
                    nodes[earlier].parent = node_id
                else:
                    kept.append(earlier)
            unclaimed[k] = kept
        unclaimed.setdefault(key, []).append(node_id)

    for node_id in range(1, len(sequence) + 1):
        if nodes[node_id].parent is None:
            nodes[node_id].parent = ROOT_ID

    _demote_childless_headers(nodes)
    return ReadingTree(nodes=nodes)


def _demote_childless_headers(nodes: "dict[int, TreeNode]") -> None:
    """Move headers without children under the root (cascading upward).

    A node claims only spans later in the reading sequence, so a child's id
    is larger than its parent's: in descending id order every header is
    visited after all of its children.
    """
    child_count = Counter(node.parent for node in nodes.values())
    for node_id in sorted(nodes, reverse=True):
        node = nodes[node_id]
        if node.label is NodeLabel.HEADER and node.parent != ROOT_ID and not child_count[node_id]:
            child_count[node.parent] -= 1
            node.parent = ROOT_ID


def _check_parents(nodes: "dict[int, TreeNode]",
                   lists: "dict[int, list[int]] | None" = None) -> None:
    """Raise the first fault of the parent links: a missing root, then node
    by node a bad parent id or, given a file's ``children`` lists by node
    id, a node its parent's list leaves out; then a list's unknown,
    repeated or unmirrored child."""
    if ROOT_ID not in nodes or nodes[ROOT_ID].label is not NodeLabel.ROOT:
        raise TreeInvariantError("missing root node")
    lists = lists or {}
    # Every (parent, child) link the lists hold, so that each test below
    # costs the same however many children a node has.
    listed = {(node_id, c) for node_id, children in lists.items() for c in children}
    for node in nodes.values():
        if node.node_id == ROOT_ID:
            if node.parent is not None:
                raise TreeInvariantError("root must have no parent")
            continue
        if node.parent is None or node.parent not in nodes:
            raise TreeInvariantError(f"node {node.node_id} has no valid parent")
        if lists and (node.parent, node.node_id) not in listed:
            raise TreeInvariantError(f"node {node.node_id} missing from its parent's children")

    seen_children: set = set()
    for node_id, children in lists.items():
        for c in children:
            if c not in nodes:
                raise TreeInvariantError(f"node {node_id} lists unknown child {c}")
            if c in seen_children:
                raise TreeInvariantError(f"node {c} appears under two parents")
            seen_children.add(c)
            if nodes[c].parent != node_id:
                raise TreeInvariantError(f"child link {node_id}->{c} not mirrored")


def validate_tree(tree: ReadingTree) -> None:
    """Check the structural invariants; raise TreeInvariantError on failure.

    Leaves are Body nodes (childless headers may hang off the root); headers
    never have a Body parent; a header's parent is never in its own cluster.
    These checks imply that the bodies split cleanly into blocks: each body
    walks up through body parents to exactly one chain head (a body whose
    parent is not a body), and only that head's chain reaches it.
    """
    nodes = tree.nodes
    _check_parents(nodes)

    # Acyclicity: every node must reach the root.  A walk stops at a node
    # an earlier walk has shown to reach it.
    reaches_root = {ROOT_ID}
    for node in nodes.values():
        visited = set()
        cur = node.node_id
        while cur not in reaches_root:
            if cur in visited:
                raise TreeInvariantError(f"cycle involving node {cur}")
            visited.add(cur)
            cur = nodes[cur].parent
        reaches_root |= visited

    # Children per (parent, whether the child is a body), from the parents.
    child_count = Counter((node.parent, node.label is NodeLabel.BODY) for node in nodes.values())
    for node in nodes.values():
        if node.node_id == ROOT_ID:
            continue
        parent = nodes[node.parent]
        bodies, others = child_count[node.node_id, True], child_count[node.node_id, False]
        if not bodies + others and node.label is NodeLabel.HEADER and node.parent != ROOT_ID:
            raise TreeInvariantError(f"childless header {node.node_id} not attached to root")
        if node.label is NodeLabel.HEADER and parent.label is NodeLabel.BODY:
            raise TreeInvariantError(f"header {node.node_id} parented by a body")
        if node.label is NodeLabel.BODY and others:
            raise TreeInvariantError(f"body {node.node_id} has a non-body child")
        if (
            node.label is NodeLabel.HEADER
            and parent.label is NodeLabel.HEADER
            and node.cluster_id is not None
            and node.cluster_id == parent.cluster_id
        ):
            raise TreeInvariantError(f"header {node.node_id} shares a cluster with its parent")


def directory_blocks(tree: ReadingTree) -> "list[DirectoryBlock]":
    """One block per body chain: the header texts from just under the root
    down to the immediate parent, plus the chain's concatenated body text.
    Blocks come out in the reading order (node id order) of their last body."""
    nodes = tree.nodes
    body_children: "dict[int, list[TreeNode]]" = {}
    for node in nodes.values():
        if node.label is NodeLabel.BODY:
            body_children.setdefault(node.parent, []).append(node)
    blocks = []
    for head in nodes.values():
        # A chain's head is a body whose parent is not a body.
        if head.label is not NodeLabel.BODY or nodes[head.parent].label is NodeLabel.BODY:
            continue
        headers = []
        cur = nodes[head.parent]
        while cur.node_id != ROOT_ID:
            headers.append(cur.text)
            cur = nodes[cur.parent]
        headers.reverse()
        chain = [head]
        for node in chain:  # the chain grows as it is read: breadth first
            chain.extend(body_children.get(node.node_id, ()))
        chain.sort(key=lambda n: n.node_id)
        body = " ".join(n.text for n in chain)
        blocks.append((chain[-1].node_id, DirectoryBlock(headers=tuple(headers), body=body)))
    blocks.sort(key=lambda t: t[0])
    return [b for _, b in blocks]


# --- serialization ---------------------------------------------------------

def tree_to_json(tree: ReadingTree) -> dict:
    """The tree as JSON.  Each node's ``children`` list is filled by one pass
    over the parents in node id order, so it comes out ascending."""
    ids = sorted(tree.nodes)
    children: "dict[int, list[int]]" = {node_id: [] for node_id in ids}
    nodes = []
    for node_id in ids:
        node = tree.nodes[node_id]
        if node.parent in children:
            children[node.parent].append(node_id)
        nodes.append({"id": node.node_id, "label": node.label.value, "text": node.text,
                      "parent": node.parent, "children": children[node_id],
                      "cluster": node.cluster_id,
                      "bbox": node.bbox.to_json() if node.bbox is not None else None})
    return {"nodes": nodes}


def _tree_node(holder, i: int, where: tuple) -> "tuple[TreeNode, list[int]]":
    """A node, and the ``children`` list its file gives."""
    node = obj(holder, i, where)
    where += (i,)
    bbox = nullable(obj, node, "bbox", where, None)
    node_id, label, text, parent, children = (
        integer(node, "id", where),
        NodeLabel(one_of(node, "label", where, tuple(NodeLabel))),
        string(node, "text", where),
        nullable(integer, node, "parent", where),
        items(integer, node, "children", where),
    )
    return TreeNode(
        node_id, label, text, parent, nullable(integer, node, "cluster", where, None),
        None if bbox is None else BBox(*[finite(bbox, e, where + ("bbox",)) for e in "ltrb"]),
    ), children


def tree_from_json(data: "bytes | str | dict", where: tuple = ROOT) -> ReadingTree:
    """Rebuild a tree from its JSON form, found at ``where`` in its file.
    Spans are not recoverable; the result carries labels, texts and
    structure, which is all evaluation needs.  A malformed node, one whose
    id an earlier node has, ``children`` lists that do not mirror the
    parents, or a tree that ``validate_tree`` rejects raise ValueError.
    The lists are dropped once checked: a node's parent is its one link."""
    nodes: "dict[int, TreeNode]" = {}
    lists: "dict[int, list[int]]" = {}
    for i, (node, children) in enumerate(items(_tree_node, top(data, where), "nodes", where)):
        if node.node_id in nodes:
            raise SchemaError(json_path(where + ("nodes", i, "id")),
                              f"node id {reprlib.repr(node.node_id)} given twice")
        nodes[node.node_id], lists[node.node_id] = node, children
    tree = ReadingTree(nodes=nodes)
    try:
        _check_parents(nodes, lists)
        validate_tree(tree)
    except TreeInvariantError as e:
        raise SchemaError(json_path(where), f"invalid tree: {e}") from e
    return tree


def blocks_to_json(blocks: "list[DirectoryBlock]", page_index: "int | None" = None) -> list:
    out = []
    for b in blocks:
        obj = {"headers": list(b.headers), "body": b.body}
        if page_index is not None:
            obj["page"] = page_index
        out.append(obj)
    return out
