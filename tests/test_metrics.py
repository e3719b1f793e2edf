import json
import random
import re

import pytest

from dirtree.metrics import (
    PRF,
    PageSetMismatch,
    ROOT_MARKER,
    check_page_sets,
    eval_aligned_nodes,
    eval_blocks,
    eval_classifier,
    eval_parents,
    eval_tree,
    evaluate,
    gold_page_labels,
    gold_tree_for_page,
    load_gold,
    normalize_text,
)
from dirtree.segment import SpanLabel
from dirtree.tree import (
    DirectoryBlock,
    NodeLabel,
    ROOT_ID,
    ReadingTree,
    TreeNode,
    directory_blocks,
    tree_to_json,
    validate_tree,
)

from conftest import EXPECTED_BLOCKS


# --- scores ---

def test_prf_from_counts():
    m = PRF.from_counts(24, 1, 2)
    assert m.precision == pytest.approx(24 / 25)
    assert m.recall == pytest.approx(24 / 26)
    assert m.f1 == pytest.approx(48 / 51)
    assert (m.precision, m.recall, m.f1) == pytest.approx((0.960, 0.923, 0.941), abs=1e-3)
    assert (m.tp, m.fp, m.fn) == (24, 1, 2)


def test_prf_zero_denominators():
    z = PRF.from_counts(0, 0, 0)
    assert (z.precision, z.recall, z.f1) == (0.0, 0.0, 0.0)
    assert PRF.from_counts(0, 3, 0).recall == 0.0
    assert PRF.from_counts(0, 0, 3).precision == 0.0


def test_prf_to_json():
    assert PRF.from_counts(1, 0, 0).to_json() == {
        "precision": 1.0, "recall": 1.0, "f1": 1.0, "tp": 1, "fp": 0, "fn": 0,
    }


def test_normalize_text():
    assert normalize_text("  a \n  b\tc ") == "a b c"
    assert normalize_text("") == ""


def test_eval_classifier():
    m = eval_classifier([1, 1, 0, 0, 1], [1, 0, 1, 0, 1])
    assert (m.tp, m.fp, m.fn) == (2, 1, 1)
    with pytest.raises(ValueError):
        eval_classifier([1], [1, 0])


# --- segmentation ---

def make_spans(n, label="Body"):
    return [{"group": i, "start": 0, "end": 10, "label": label} for i in range(n)]


def eval_segmentation(gold, pred):
    """Scores of one page's predicted span records against its gold ones."""
    report = evaluate("segmentation", {"pages": [{"page": 0, "spans": pred}]},
                      {"pages": [{"page": 0, "spans": gold}]})
    return PRF(**report["overall"])


def test_eval_segmentation_exact_match():
    gold = make_spans(10)
    m = eval_segmentation(gold, list(gold))
    assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)


def test_eval_segmentation_boundary_error():
    gold = make_spans(10)
    pred = list(gold)
    pred[0] = dict(gold[0], end=11)
    m = eval_segmentation(gold, pred)
    assert (m.tp, m.fp, m.fn) == (9, 1, 1)
    assert m.precision == pytest.approx(0.9)


def test_eval_segmentation_label_matters():
    gold = make_spans(4)
    pred = [dict(g, label="Header") for g in gold]
    m = eval_segmentation(gold, pred)
    assert m.tp == 0


def test_eval_segmentation_ignores_neither():
    gold = make_spans(3) + [{"group": 50, "start": 0, "end": 6, "label": "Neither"}]
    pred = make_spans(3)
    m = eval_segmentation(gold, pred)
    assert (m.precision, m.recall) == (1.0, 1.0)


# --- block and tree metrics ---

def chain_tree(*texts, cluster_ids=None):
    """root -> texts[0] -> texts[1] -> ... with the last node a Body."""
    nodes = {ROOT_ID: TreeNode(ROOT_ID, NodeLabel.ROOT, "", None)}
    for i, text in enumerate(texts, start=1):
        label = NodeLabel.BODY if i == len(texts) else NodeLabel.HEADER
        cluster = None
        if cluster_ids and i <= len(cluster_ids):
            cluster = cluster_ids[i - 1]
        nodes[i] = TreeNode(i, label, text, i - 1, cluster_id=cluster)
    return ReadingTree(nodes)


def six_block_trees():
    """The directory tree and a copy with the last body under the wrong header."""

    def build(corrupt):
        nodes = {ROOT_ID: TreeNode(ROOT_ID, NodeLabel.ROOT, "", None)}
        nodes[1] = TreeNode(1, NodeLabel.HEADER, "D", ROOT_ID, cluster_id=9)
        next_id = 2
        header_ids = {}
        for k in range(1, 7):
            h = next_id
            b = next_id + 1
            next_id += 2
            header_ids[k] = h
            nodes[h] = TreeNode(h, NodeLabel.HEADER, f"H{k}", 1, cluster_id=1)
            nodes[b] = TreeNode(b, NodeLabel.BODY, f"B{k}", h)
        if corrupt:
            b6 = 13
            nodes[b6].parent = header_ids[5]
            # the childless header moves under the root, as the builder would
            nodes[header_ids[6]].parent = ROOT_ID
        return ReadingTree(nodes)

    return build(False), build(True)


def test_six_block_oracle():
    gold, pred = six_block_trees()
    validate_tree(gold)
    validate_tree(pred)
    report = eval_tree(gold, pred)

    for name in ("blocks", "parents"):
        m = report[name]
        assert m.precision == pytest.approx(5 / 6, abs=1e-12)
        assert m.recall == pytest.approx(5 / 6, abs=1e-12)
        assert m.f1 == pytest.approx(5 / 6, abs=1e-12)
        assert (m.tp, m.fp, m.fn) == (5, 1, 1)

    aligned = report["aligned_nodes"]
    assert (aligned.tp, aligned.fp, aligned.fn) == (17, 1, 1)
    assert aligned.precision == pytest.approx(17 / 18, abs=1e-12)
    assert aligned.recall == pytest.approx(17 / 18, abs=1e-12)


def test_eval_blocks_multiset():
    a = DirectoryBlock(("H",), "twice")
    gold = [a, a]
    pred = [a]
    m = eval_blocks(gold, pred)
    assert (m.tp, m.fp, m.fn) == (1, 0, 1)


def test_eval_blocks_normalizes_whitespace():
    gold = [DirectoryBlock(("A  Header",), "body   text")]
    pred = [DirectoryBlock(("A Header",), "body text")]
    assert eval_blocks(gold, pred).f1 == 1.0


def test_eval_parents_root_marker():
    tree = chain_tree("only body")  # single body under root
    pairs_gold = chain_tree("only body")
    assert eval_parents(pairs_gold, tree).f1 == 1.0
    lifted = chain_tree("Head", "only body")
    m = eval_parents(tree, lifted)
    assert m.tp == 0
    assert ROOT_MARKER == "<ROOT>"


def test_parent_metric_forgives_flattened_stacks():
    gold = chain_tree("H1", "H2", "B", cluster_ids=[1, 2, None])
    pred = chain_tree("H2", "B", cluster_ids=[2, None])
    blocks = eval_blocks(directory_blocks(gold), directory_blocks(pred))
    parents = eval_parents(gold, pred)
    assert blocks.f1 == 0.0
    assert parents.f1 == 1.0  # immediate parent is right even when the stack is not


def random_blocks(rng, pool):
    out = []
    for _ in range(rng.randint(0, 6)):
        headers = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
        out.append(DirectoryBlock(headers, rng.choice(pool)))
    return out


def test_block_and_parent_symmetry():
    rng = random.Random(7)
    pool = ["alpha", "beta", "gamma", "delta"]
    for _ in range(50):
        g = random_blocks(rng, pool)
        p = random_blocks(rng, pool)
        ab = eval_blocks(g, p)
        ba = eval_blocks(p, g)
        assert ab.precision == pytest.approx(ba.recall)
        assert ab.recall == pytest.approx(ba.precision)


def test_aligned_nodes_no_overlap_is_unmatched():
    gold = [DirectoryBlock(("A",), "b")]
    pred = [DirectoryBlock(("X",), "y")]
    m = eval_aligned_nodes(gold, pred)
    assert (m.tp, m.fp, m.fn) == (0, 2, 2)


def test_aligned_nodes_extra_and_missing_blocks():
    gold = [DirectoryBlock(("A",), "b"), DirectoryBlock(("C",), "d")]
    pred = [DirectoryBlock(("A",), "b")]
    m = eval_aligned_nodes(gold, pred)
    assert (m.tp, m.fp, m.fn) == (2, 0, 2)


# --- gold files ---

def test_load_gold_validation():
    with pytest.raises(ValueError, match="pages"):
        load_gold({"pages": 3})
    with pytest.raises(ValueError, match="page"):
        load_gold({"pages": [{"spans": []}]})
    with pytest.raises(ValueError, match="is_directory"):
        load_gold({"pages": [{"page": 0, "is_directory": "yes"}]})
    with pytest.raises(ValueError, match="group"):
        load_gold({"pages": [{"page": 0, "spans": [{"start": 0, "end": 1, "label": "Body"}]}]})
    with pytest.raises(ValueError):
        load_gold({"pages": [{"page": 0, "spans": [
            {"group": 0, "start": 0, "end": 1, "label": "Bogus"}]}]})
    with pytest.raises(ValueError, match="parent"):
        load_gold({"pages": [{"page": 0, "spans": [
            {"group": 0, "start": 0, "end": 1, "label": "Body", "parent": "x"}]}]})


def test_load_gold_round_trip(fig1a_gold_path):
    gold = load_gold(fig1a_gold_path.read_bytes())
    assert gold_page_labels(gold) == {0: 1}
    spans = [s for p in gold["pages"] for s in p["spans"]]
    assert len(spans) == 15
    assert {SpanLabel(s["label"]) for s in spans} == {
        SpanLabel.HEADER, SpanLabel.BODY, SpanLabel.NEITHER
    }


def test_gold_labels_only_for_annotated_pages():
    gold = load_gold({"pages": [{"page": 0, "is_directory": False}, {"page": 3}]})
    assert gold_page_labels(gold) == {0: 0}


def test_gold_tree_matches_fixture(fig1a_gold, fig1a_page):
    tree = gold_tree_for_page(fig1a_gold["pages"][0], fig1a_page)
    validate_tree(tree)
    blocks = directory_blocks(tree)
    assert [(list(b.headers), b.body) for b in blocks] == EXPECTED_BLOCKS


def test_gold_tree_error_paths(fig1a_page):
    base = {"page": 0, "spans": [{"group": 0, "start": 0, "end": 9, "label": "Body", "parent": None}]}

    bad_group = json.loads(json.dumps(base))
    bad_group["spans"][0]["group"] = 99
    with pytest.raises(ValueError, match="group"):
        gold_tree_for_page(bad_group, fig1a_page)

    bad_offsets = json.loads(json.dumps(base))
    bad_offsets["spans"][0]["end"] = 10_000
    with pytest.raises(ValueError, match="offsets"):
        gold_tree_for_page(bad_offsets, fig1a_page)

    bad_parent = json.loads(json.dumps(base))
    bad_parent["spans"][0]["parent"] = 5
    with pytest.raises(ValueError, match="parent"):
        gold_tree_for_page(bad_parent, fig1a_page)

    self_parent = json.loads(json.dumps(base))
    self_parent["spans"][0]["parent"] = 0
    with pytest.raises(ValueError):
        gold_tree_for_page(self_parent, fig1a_page)

    neither_parent = {
        "page": 0,
        "spans": [
            {"group": 0, "start": 0, "end": 9, "label": "Neither", "parent": None},
            {"group": 1, "start": 0, "end": 9, "label": "Body", "parent": 0},
        ],
    }
    with pytest.raises(ValueError, match="Neither"):
        gold_tree_for_page(neither_parent, fig1a_page)


def test_check_page_sets():
    check_page_sets({0, 1}, {0, 1})
    with pytest.raises(PageSetMismatch) as e:
        check_page_sets({0, 1, 2}, {1, 3})
    assert "missing=[0, 2]" in str(e.value)
    assert "extra=[3]" in str(e.value)


# --- one call per stage ---

def test_evaluate_checks_stage_and_document(fig1a_gold):
    with pytest.raises(ValueError, match="unknown eval stage 'blocks'"):
        evaluate("blocks", {"pages": []}, fig1a_gold)
    with pytest.raises(ValueError, match="tree stage needs the source document"):
        evaluate("tree", {"pages": []}, fig1a_gold)
    with pytest.raises(ValueError,
                       match=f"^{re.escape('preds.json: $.pages: expected array, got int')}$"):
        evaluate("classifier", {"pages": 3}, fig1a_gold, name="preds.json")



@pytest.mark.parametrize("case", ["label", "tree", "is_directory", "spans"])
def test_evaluate_rejects_a_page_given_twice(case, fig1a_gold, fig1a_page):
    # Scoring one of the two records would hide the other.
    gold_page = fig1a_gold["pages"][0]
    tree = tree_to_json(gold_tree_for_page(gold_page, fig1a_page))
    stage, pred, gold, where = {
        "label": ("classifier", [{"page": 0, "label": 1}, {"page": 0, "label": 0}],
                  fig1a_gold, "preds.json"),
        "tree": ("tree", [{"page": 0, "tree": tree}] * 2, fig1a_gold, "preds.json"),
        "is_directory": ("classifier", [{"page": 0, "label": 1}],
                         {"pages": [dict(gold_page, is_directory=False), gold_page]}, "gold"),
        "spans": ("tree", [{"page": 0, "tree": tree}], {"pages": [gold_page] * 2}, "gold"),
    }[case]
    message = f"{where}: $.pages[1]: page 0 has its {case} given twice"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluate(stage, {"pages": pred}, gold, [fig1a_page], name="preds.json")


def test_segmentation_merges_the_records_of_a_page(fig1a_gold):
    gold_page = fig1a_gold["pages"][0]
    spans = gold_page["spans"]
    pred = {"pages": [{"page": 0, "spans": spans[:4]}, {"page": 0, "spans": spans[4:]}]}
    gold = {"pages": [dict(gold_page, spans=spans[:9]), dict(gold_page, spans=spans[9:])]}
    overall = evaluate("segmentation", pred, gold)["overall"]
    assert [overall[k] for k in ("tp", "fp", "fn")] == [14, 0, 0]
