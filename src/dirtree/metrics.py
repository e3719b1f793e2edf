"""Precision/recall/F1 scoring for the classifier, the segmenter and the
tree builder.

Tree quality is scored three ways: recovered blocks (header path plus body,
order-insensitive), parent assignment per body node, and node-level accuracy
after aligning predicted to gold blocks by body overlap.  ``evaluate`` scores
a prediction file against a gold file for one stage: the report ``dirtree
eval`` prints.
"""

from __future__ import annotations

import reprlib
from collections import Counter
from typing import NamedTuple

from . import EVAL_STAGES
from .segment import SpanLabel
from .tree import (
    DirectoryBlock,
    NodeLabel,
    ReadingTree,
    ROOT_ID,
    TreeInvariantError,
    TreeNode,
    directory_blocks,
    tree_from_json,
    validate_tree,
)
from .jsonin import SchemaError, boolean, integer, items, json_path, nullable, obj, one_of, top
from .visual import group_text

ROOT_MARKER = "<ROOT>"


class PageSetMismatch(ValueError):
    """Gold and predicted results cover different page sets."""


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "PRF":
        # All-zero denominators score zero rather than raising.
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        return cls(p, r, f, tp, fp, fn)

    def to_json(self) -> dict:
        return self._asdict()


def normalize_text(s: str) -> str:
    return " ".join(s.split())


# --- page classifier -------------------------------------------------------

def eval_classifier(gold: "list[int]", pred: "list[int]") -> PRF:
    """Positive-class scores over aligned label lists."""
    if len(gold) != len(pred):
        raise ValueError("gold and pred must be the same length")
    tp = sum(1 for g, q in zip(gold, pred) if g == 1 and q == 1)
    fp = sum(1 for g, q in zip(gold, pred) if g == 0 and q == 1)
    fn = sum(1 for g, q in zip(gold, pred) if g == 1 and q == 0)
    return PRF.from_counts(tp, fp, fn)


# --- span segmentation -----------------------------------------------------

def span_keys(records: list) -> "set[tuple]":
    """Match keys (group, start, end, label) of checked span records (see
    ``span_record``); Neither spans are left out."""
    return {(s["group"], s["start"], s["end"], s["label"])
            for s in records if s["label"] != SpanLabel.NEITHER.value}


def eval_span_keys(gold: "set[tuple]", pred: "set[tuple]") -> PRF:
    """Scores of predicted against gold span keys; only exact matches count."""
    return PRF.from_counts(len(gold & pred), len(pred - gold), len(gold - pred))


# --- tree quality ----------------------------------------------------------

def _block_key(b: DirectoryBlock) -> tuple:
    return (
        tuple(normalize_text(h) for h in b.headers),
        normalize_text(b.body),
    )


def _multiset_prf(gold: Counter, pred: Counter) -> PRF:
    """Scores of a predicted against a gold multiset: each key matches as
    many times as both hold it."""
    tp = sum((gold & pred).values())
    return PRF.from_counts(tp, sum(pred.values()) - tp, sum(gold.values()) - tp)


def eval_blocks(gold: "list[DirectoryBlock]", pred: "list[DirectoryBlock]") -> PRF:
    """Multiset match on (header path, body) pairs."""
    return _multiset_prf(Counter(map(_block_key, gold)), Counter(map(_block_key, pred)))


def _parent_pairs(tree: ReadingTree) -> "Counter[tuple[str, str]]":
    pairs: Counter = Counter()
    for node in tree.nodes.values():
        if node.label is not NodeLabel.BODY:
            continue
        parent = tree.nodes[node.parent]
        parent_text = ROOT_MARKER if parent.node_id == ROOT_ID else normalize_text(parent.text)
        pairs[(normalize_text(node.text), parent_text)] += 1
    return pairs


def eval_parents(gold: ReadingTree, pred: ReadingTree) -> PRF:
    """Multiset match on (body text, parent text) pairs; the synthetic root
    shows up as a reserved marker."""
    return _multiset_prf(_parent_pairs(gold), _parent_pairs(pred))


def _block_nodes(b: DirectoryBlock) -> "list[str]":
    return [normalize_text(h) for h in b.headers] + [normalize_text(b.body)]


def eval_aligned_nodes(gold: "list[DirectoryBlock]", pred: "list[DirectoryBlock]") -> PRF:
    """Greedy alignment of predicted to gold blocks by shared node count, in
    prediction order (ties go to the earliest gold block); then each aligned
    pair contributes position-wise node matches."""
    gold_nodes = [_block_nodes(b) for b in gold]
    pred_nodes = [_block_nodes(b) for b in pred]
    gold_counts = [Counter(gn) for gn in gold_nodes]
    taken = [False] * len(gold_nodes)
    tp = fp = 0
    matched_gold = 0
    for pn in pred_nodes:
        best = -1
        best_overlap = 0
        pred_count = Counter(pn)
        for gi, gold_count in enumerate(gold_counts):
            if taken[gi]:
                continue
            overlap = sum((pred_count & gold_count).values())
            if overlap > best_overlap:
                best = gi
                best_overlap = overlap
        if best < 0:
            fp += len(pn)
            continue
        taken[best] = True
        gn = gold_nodes[best]
        matched_gold += len(gn)
        hits = sum(1 for a, b in zip(pn, gn) if a == b)
        tp += hits
        fp += len(pn) - hits
    fn = sum(len(gn) for gi, gn in enumerate(gold_nodes) if not taken[gi])
    fn += matched_gold - tp
    return PRF.from_counts(tp, fp, fn)


def eval_tree(gold: ReadingTree, pred: ReadingTree) -> "dict[str, PRF]":
    gold_blocks = directory_blocks(gold)
    pred_blocks = directory_blocks(pred)
    return {
        "blocks": eval_blocks(gold_blocks, pred_blocks),
        "parents": eval_parents(gold, pred),
        "aligned_nodes": eval_aligned_nodes(gold_blocks, pred_blocks),
    }


# --- gold and prediction files ----------------------------------------------

_GOLD = ("gold: $",)


def span_record(holder, i: int, where: tuple) -> dict:
    """A gold or predicted span record: an object with integer "group",
    "start" and "end" and a span "label"."""
    record = obj(holder, i, where)
    for key in ("group", "start", "end"):
        integer(record, key, where + (i,))
    one_of(record, "label", where + (i,), tuple(SpanLabel))
    return record


def load_gold(data: "bytes | str | dict") -> dict:
    """Parse and validate a gold file.

    Shape: {"pages": [{"page": int, "is_directory": bool,
    "spans": [{"group": g, "start": s, "end": e, "label": str,
    "parent": span-index-or-null}]}]}.  Everything past "page" is optional
    so one file can carry gold for any subset of stages; "parent" indices
    point into the same page's spans array and define the gold tree.
    """
    gold = top(data, _GOLD)
    for i, page in enumerate(items(obj, gold, "pages", _GOLD)):
        at = _GOLD + ("pages", i)
        integer(page, "page", at)
        boolean(page, "is_directory", at, None)
        for j, record in enumerate(items(span_record, page, "spans", at, ())):
            nullable(integer, record, "parent", at + ("spans", j), None)
    return gold


def read_predictions(pred, key: str, name: str) -> dict:
    """Check a prediction file the way gold files are checked and map each
    integer "page" to its ``key`` value: a "label" of 0 or 1, the match keys
    of its "spans", or its validated "tree".  The spans of records that name
    one page are merged; a page given a label or a tree twice raises.
    ``name`` (the file) begins each message."""
    where = (f"{name}: $",)
    out: dict = {}
    for i, record in enumerate(items(obj, top(pred, where), "pages", where)):
        at = where + ("pages", i)
        page = integer(record, "page", at)
        if key == "spans":
            out.setdefault(page, set()).update(span_keys(items(span_record, record, "spans", at)))
            continue
        if page in out:
            raise SchemaError(json_path(at), f"page {reprlib.repr(page)} has its {key} given twice")
        if key == "label":
            value = integer(record, "label", at)
            if value not in (0, 1):
                raise SchemaError(json_path(at + ("label",)),
                                  f"must be 0 or 1, got {reprlib.repr(value)}")
        else:
            value = tree_from_json(obj(record, "tree", at), at + ("tree",))
        out[page] = value
    return out


def _gold_records(gold: dict, key: str) -> dict:
    """The checked gold file's page records that hold ``key``, by page; a
    page given ``key`` twice raises."""
    out = {}
    for i, record in enumerate(gold["pages"]):
        if key in record:
            if record["page"] in out:
                raise SchemaError(json_path(_GOLD + ("pages", i)),
                                  f"page {reprlib.repr(record['page'])} has its {key} given twice")
            out[record["page"]] = record
    return out


def gold_page_labels(gold: dict) -> "dict[int, int]":
    return {page: int(record["is_directory"])
            for page, record in _gold_records(gold, "is_directory").items()}


def gold_tree_for_page(gold_page: dict, visual_page) -> ReadingTree:
    """Materialize the gold tree for one page.

    Span records become nodes (Neither spans are checked, then skipped);
    parent indices refer to positions in the spans array, null meaning the
    root, and a Neither span's parent must be null.  Node texts are sliced
    out of the visual page's group text, which is why the caller must
    supply the source document.
    """
    spans = gold_page.get("spans", [])
    page_no = gold_page["page"]
    labels = [SpanLabel(s["label"]) for s in spans]
    nodes: dict[int, TreeNode] = {
        ROOT_ID: TreeNode(ROOT_ID, NodeLabel.ROOT, "", None)
    }
    for i, s in enumerate(spans):
        gi = s["group"]
        if gi < 0 or gi >= len(visual_page.groups):
            raise ValueError(f"gold page {page_no} span {i}: no group {reprlib.repr(gi)}")
        text = group_text(visual_page.groups[gi])
        if not 0 <= s["start"] < s["end"] <= len(text):
            raise ValueError(
                f"gold page {page_no} span {i}: offsets outside group text"
            )
        parent = s.get("parent")
        if labels[i] is SpanLabel.NEITHER:
            if parent is not None:
                raise ValueError(f"gold page {page_no} span {i}: a Neither span's parent "
                                 "must be null")
            continue
        if parent is not None:
            if not 0 <= parent < len(spans):
                raise ValueError(f"gold page {page_no} span {i}: bad parent index")
            if labels[parent] is SpanLabel.NEITHER:
                raise ValueError(
                    f"gold page {page_no} span {i}: parent is a Neither span"
                )
        nodes[i + 1] = TreeNode(
            node_id=i + 1,
            label=NodeLabel.HEADER if labels[i] is SpanLabel.HEADER else NodeLabel.BODY,
            text=text[s["start"]:s["end"]],
            parent=ROOT_ID if parent is None else parent + 1,
        )
    out = ReadingTree(nodes=nodes)
    try:
        validate_tree(out)
    except TreeInvariantError as e:
        raise ValueError(f"gold page {page_no}: invalid gold tree: {e}") from e
    return out


def check_page_sets(gold_pages: "set[int]", pred_pages: "set[int]") -> None:
    if gold_pages != pred_pages:
        missing = sorted(gold_pages - pred_pages)
        extra = sorted(pred_pages - gold_pages)
        raise PageSetMismatch(
            f"gold and prediction cover different pages: missing={missing} extra={extra}"
        )


# --- one call per eval stage -----------------------------------------------

def _combine(prfs: "list[PRF]") -> PRF:
    return PRF.from_counts(
        sum(p.tp for p in prfs), sum(p.fp for p in prfs), sum(p.fn for p in prfs))


def evaluate(stage: str, pred, gold, doc=None, *, name: str = "prediction") -> dict:
    """Score a prediction file against a gold file: the report ``dirtree
    eval`` prints.

    ``pred`` and ``gold`` are the decoded JSON files; ``stage`` is one of
    ``EVAL_STAGES``.  The tree stage also needs ``doc``, the parsed
    document whose group texts the gold spans index.  ``name`` (the
    prediction file) begins each message about it.  Bad input raises
    ValueError.
    """
    if stage not in EVAL_STAGES:
        raise ValueError(f"unknown eval stage {stage!r}")
    if stage == "tree" and doc is None:
        raise ValueError("the tree stage needs the source document")
    key = {"classifier": "label", "segmentation": "spans"}.get(stage, "tree")
    preds = read_predictions(pred, key, name)
    gold = load_gold(gold)
    if stage == "classifier":
        labels = gold_page_labels(gold)
        check_page_sets(set(labels), set(preds))
        ordered = sorted(labels)
        prf = eval_classifier([labels[i] for i in ordered], [preds[i] for i in ordered])
        return {"stage": "classifier", "overall": prf.to_json()}
    if stage == "segmentation":
        gold_keys: "dict[int, set[tuple]]" = {}
        for record in gold["pages"]:
            if "spans" in record:
                gold_keys.setdefault(record["page"], set()).update(span_keys(record["spans"]))
        check_page_sets(set(gold_keys), set(preds))
        per_page = {page: eval_span_keys(gold_keys[page], preds[page])
                    for page in sorted(gold_keys)}
        return {
            "stage": "segmentation",
            "overall": _combine(list(per_page.values())).to_json(),
            "pages": {str(k): v.to_json() for k, v in per_page.items()},
        }
    gold_records = _gold_records(gold, "spans")
    check_page_sets(set(gold_records), set(preds))
    per_page = {}
    for page in sorted(gold_records):
        if page < 0 or page >= len(doc):
            raise ValueError(f"gold page {page} not present in --doc")
        per_page[page] = eval_tree(gold_tree_for_page(gold_records[page], doc[page]),
                                   preds[page])
    metric_names = ("blocks", "parents", "aligned_nodes")
    report = {"stage": "tree"}
    for metric in metric_names:
        report[metric] = _combine([m[metric] for m in per_page.values()]).to_json()
    report["pages"] = {
        str(k): {metric: m[metric].to_json() for metric in metric_names}
        for k, m in per_page.items()
    }
    return report
