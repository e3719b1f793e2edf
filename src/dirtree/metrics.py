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
from dataclasses import dataclass

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
from .visual import decode_json, group_text, is_json_int

ROOT_MARKER = "<ROOT>"


class PageSetMismatch(ValueError):
    """Gold and predicted results cover different page sets."""


@dataclass(frozen=True)
class PRF:
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
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
        }


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
    ``check_span_record``); Neither spans are left out."""
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


def eval_blocks(gold: "list[DirectoryBlock]", pred: "list[DirectoryBlock]") -> PRF:
    """Multiset match on (header path, body) pairs."""
    g = Counter(_block_key(b) for b in gold)
    q = Counter(_block_key(b) for b in pred)
    tp = sum((g & q).values())
    return PRF.from_counts(tp, sum(q.values()) - tp, sum(g.values()) - tp)


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
    g = _parent_pairs(gold)
    q = _parent_pairs(pred)
    tp = sum((g & q).values())
    return PRF.from_counts(tp, sum(q.values()) - tp, sum(g.values()) - tp)


def _block_nodes(b: DirectoryBlock) -> "list[str]":
    return [normalize_text(h) for h in b.headers] + [normalize_text(b.body)]


def eval_aligned_nodes(gold: "list[DirectoryBlock]", pred: "list[DirectoryBlock]") -> PRF:
    """Greedy alignment of predicted to gold blocks by shared node count, in
    prediction order (ties go to the earliest gold block); then each aligned
    pair contributes position-wise node matches."""
    gold_nodes = [_block_nodes(b) for b in gold]
    pred_nodes = [_block_nodes(b) for b in pred]
    taken = [False] * len(gold_nodes)
    tp = fp = 0
    matched_gold = 0
    for pn in pred_nodes:
        best = -1
        best_overlap = 0
        for gi, gn in enumerate(gold_nodes):
            if taken[gi]:
                continue
            overlap = sum((Counter(pn) & Counter(gn)).values())
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

def check_span_record(s, where: str) -> None:
    """A gold or predicted span record: an object with integer "group",
    "start" and "end" and a span "label"; ``where`` begins each message."""
    if not isinstance(s, dict):
        raise ValueError(f"{where}: must be an object")
    for key in ("group", "start", "end"):
        if not is_json_int(s.get(key)):
            raise ValueError(f"{where}: missing integer '{key}'")
    try:
        SpanLabel(s.get("label"))
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def load_gold(data: "bytes | str | dict") -> dict:
    """Parse and validate a gold file.

    Shape: {"pages": [{"page": int, "is_directory": bool,
    "spans": [{"group": g, "start": s, "end": e, "label": str,
    "parent": span-index-or-null}]}]}.  Everything past "page" is optional
    so one file can carry gold for any subset of stages; "parent" indices
    point into the same page's spans array and define the gold tree.
    """
    if isinstance(data, (bytes, str)):
        data = decode_json(data)
    if not isinstance(data, dict) or not isinstance(data.get("pages"), list):
        raise ValueError("gold file must be an object with a 'pages' array")
    for p in data["pages"]:
        if not isinstance(p, dict) or not is_json_int(p.get("page")):
            raise ValueError("every gold page needs an integer 'page' index")
        if "is_directory" in p and not isinstance(p["is_directory"], bool):
            raise ValueError(f"gold page {p['page']}: is_directory must be a bool")
        spans = p.get("spans", [])
        if not isinstance(spans, list):
            raise ValueError(f"gold page {p['page']}: spans must be an array")
        for i, s in enumerate(spans):
            check_span_record(s, f"gold page {p['page']} span {i}")
            parent = s.get("parent")
            if parent is not None and not is_json_int(parent):
                raise ValueError(
                    f"gold page {p['page']} span {i}: parent must be an index or null"
                )
    return data


def read_predictions(pages: list, key: str, name: str) -> "list[tuple[int, object]]":
    """Check a prediction file's page records the way gold files are checked
    and pair each integer "page" with its ``key`` value: a "label" of 0 or
    1, the match keys of its "spans", or its validated "tree".  ``name``
    (the file) begins each message."""
    out = []
    for p in pages:
        if not isinstance(p, dict) or "page" not in p or key not in p:
            raise ValueError(f"{name}: every page needs 'page' and '{key}'")
        page, value = p["page"], p[key]
        where = f"{name}: page {reprlib.repr(page)}"
        if not is_json_int(page):
            raise ValueError(f"{where}: page must be an integer")
        if key == "label":
            if not is_json_int(value) or value not in (0, 1):
                raise ValueError(f"{where}: label must be 0 or 1, got {reprlib.repr(value)}")
        elif key == "spans":
            if not isinstance(value, list):
                raise ValueError(f"{where}: spans must be an array")
            for i, s in enumerate(value):
                check_span_record(s, f"{where} span {i}")
            value = span_keys(value)
        else:
            try:
                value = tree_from_json(value)
                validate_tree(value)
            except (ValueError, TreeInvariantError) as e:
                raise ValueError(f"{where}: invalid tree: {e}") from e
        out.append((page, value))
    return out


def gold_page_labels(gold: dict) -> "dict[int, int]":
    out = {}
    for p in gold["pages"]:
        if "is_directory" in p:
            out[p["page"]] = 1 if p["is_directory"] else 0
    return out


def gold_tree_for_page(gold_page: dict, visual_page) -> ReadingTree:
    """Materialize the gold tree for one page.

    Span records become nodes (Neither spans are skipped); parent indices
    refer to positions in the spans array, null meaning the root.  Node
    texts are sliced out of the visual page's group text, which is why the
    caller must supply the source document.
    """
    spans = gold_page.get("spans", [])
    page_no = gold_page["page"]
    labels = [SpanLabel(s["label"]) for s in spans]
    nodes: dict[int, TreeNode] = {
        ROOT_ID: TreeNode(ROOT_ID, NodeLabel.ROOT, "", None)
    }
    for i, s in enumerate(spans):
        if labels[i] is SpanLabel.NEITHER:
            continue
        gi = s["group"]
        if gi < 0 or gi >= len(visual_page.groups):
            raise ValueError(f"gold page {page_no} span {i}: no group {gi}")
        text = group_text(visual_page.groups[gi])
        if not 0 <= s["start"] < s["end"] <= len(text):
            raise ValueError(
                f"gold page {page_no} span {i}: offsets outside group text"
            )
        parent = s.get("parent")
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
    for node in nodes.values():
        if node.node_id != ROOT_ID:
            nodes[node.parent].children.append(node.node_id)
    for node in nodes.values():
        node.children.sort()
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

EVAL_STAGES = ("classifier", "segmentation", "tree")


def _combine(prfs: "list[PRF]") -> PRF:
    return PRF.from_counts(
        sum(p.tp for p in prfs), sum(p.fp for p in prfs), sum(p.fn for p in prfs))


def _keys_by_page(pages: "list[tuple[int, set[tuple]]]") -> "dict[int, set[tuple]]":
    """Each page's span keys, from records that may name a page twice."""
    out: "dict[int, set[tuple]]" = {}
    for page, keys in pages:
        out.setdefault(page, set()).update(keys)
    return out


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
    if not isinstance(pred, dict) or not isinstance(pred.get("pages"), list):
        raise ValueError(f"{name} must be an object with a 'pages' array")
    gold = load_gold(gold)
    if stage == "classifier":
        labels = gold_page_labels(gold)
        pred_labels = dict(read_predictions(pred["pages"], "label", name))
        check_page_sets(set(labels), set(pred_labels))
        ordered = sorted(labels)
        prf = eval_classifier([labels[i] for i in ordered], [pred_labels[i] for i in ordered])
        return {"stage": "classifier", "overall": prf.to_json()}
    if stage == "segmentation":
        preds = read_predictions(pred["pages"], "spans", name)
        golds = [(p["page"], span_keys(p["spans"])) for p in gold["pages"] if "spans" in p]
        check_page_sets({page for page, _ in golds}, {page for page, _ in preds})
        gold_keys, pred_keys = _keys_by_page(golds), _keys_by_page(preds)
        per_page = {page: eval_span_keys(gold_keys[page], pred_keys[page])
                    for page in sorted(gold_keys)}
        return {
            "stage": "segmentation",
            "overall": _combine(list(per_page.values())).to_json(),
            "pages": {str(k): v.to_json() for k, v in per_page.items()},
        }
    pred_trees = dict(read_predictions(pred["pages"], "tree", name))
    gold_records = {p["page"]: p for p in gold["pages"] if "spans" in p}
    check_page_sets(set(gold_records), set(pred_trees))
    per_page = {}
    for page in sorted(gold_records):
        if page < 0 or page >= len(doc):
            raise ValueError(f"gold page {page} not present in --doc")
        per_page[page] = eval_tree(gold_tree_for_page(gold_records[page], doc[page]),
                                   pred_trees[page])
    metric_names = ("blocks", "parents", "aligned_nodes")
    report = {"stage": "tree"}
    for metric in metric_names:
        report[metric] = _combine([m[metric] for m in per_page.values()]).to_json()
    report["pages"] = {
        str(k): {metric: m[metric].to_json() for metric in metric_names}
        for k, m in per_page.items()
    }
    return report
