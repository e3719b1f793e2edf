"""A page's run computes each stage once, and only the stages it reads."""

import importlib
import json

import pytest

from dirtree import cli, pipeline, visual
from dirtree.annotate import AnnotationLabel, Gazetteer
from dirtree.features import FEATURE_NAMES
from dirtree.forest import ForestHyperparams, ForestModel, LeafNode, SplitNode
from dirtree.visual import group_text, parse_document

from conftest import doc, page, text_group

# The package exports the function ``annotate`` under the module's name.
annotate_module = importlib.import_module("dirtree.annotate")

GAZ = Gazetteer.default()

# Prose that carries every kind of label the classifier counts.
NARRATIVE = page(
    text_group("Annual Report 2020", 40, 20, 300, 32, header=True),
    text_group("The Custodian, Acme Capital S.A. of Luxembourg, L-2449, received", 40, 60, 560, 70),
    text_group("EUR 1,000 on 15 March 2021; write to info@fund.lu or +352 26 12 34 56.",
               40, 80, 560, 90),
    text_group("Page 3", 280, 780, 320, 790, footer=True),
)


def _constant_model(score):
    """A one-leaf forest that gives every page ``score``, 0 or 1."""
    return ForestModel(ForestHyperparams(n_trees=1), FEATURE_NAMES,
                       [LeafNode((1 - score, score))])


def _split_model(*features):
    """A forest of one tree per feature index, each splitting there and
    giving 0 on both sides."""
    return ForestModel(ForestHyperparams(n_trees=len(features)), FEATURE_NAMES,
                       [SplitNode(f, 0.5, LeafNode((1, 0)), LeafNode((1, 0))) for f in features])


def _counting_annotations(monkeypatch):
    built = []
    real = annotate_module.Annotation

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(annotate_module, "Annotation", counting)
    return built


def _counting_annotate(monkeypatch):
    calls = []
    real = pipeline.annotate

    def counting(page, gaz):
        calls.append(page)
        return real(page, gaz)

    monkeypatch.setattr(pipeline, "annotate", counting)
    return calls


def test_scored_only_page_builds_no_annotations(monkeypatch):
    pages = parse_document(doc(NARRATIVE))
    built, calls = _counting_annotations(monkeypatch), _counting_annotate(monkeypatch)
    assert list(pipeline.page_runs(pages, GAZ, "auto", _constant_model(0))) == []
    assert len(calls) == 1  # the page was annotated and scored
    assert built == []
    # The same page, selected, is segmented, which reads its annotations.
    (run,) = pipeline.page_runs(pages, GAZ, "auto", _constant_model(1))
    assert built and len(calls) == 2


def test_features_then_spans_annotate_once(fig1a_page, monkeypatch):
    built, calls = _counting_annotations(monkeypatch), _counting_annotate(monkeypatch)
    run = pipeline.PageRun(fig1a_page, 0, GAZ)
    assert run.features.f10 == 6
    assert built == []
    assert run.spans
    assert built and len(calls) == 1


# The labels a regex finds, not the phrase pass.
SURFACE_LABELS = {AnnotationLabel.POSTCODE, AnnotationLabel.CARDINAL, AnnotationLabel.CURRENCY,
                  AnnotationLabel.DATE, AnnotationLabel.PHONE, AnnotationLabel.EMAIL}


class _CountingRegex:
    def __init__(self, label, regex, calls, texts):
        self.label, self.regex, self.calls, self.texts = label, regex, calls, texts

    def finditer(self, text):
        self.calls.append((self.label, "finditer"))
        self.texts.append((self.label, text))
        return self.regex.finditer(text)

    def search(self, text):
        self.calls.append((self.label, "search"))
        return self.regex.search(text)


def _counting_scans(monkeypatch, texts=None):
    """The surface scans made, as (label, "finditer" or "search"); each
    text a ``finditer`` reads is added to ``texts`` as (label, text)."""
    calls = []
    texts = [] if texts is None else texts
    scans = {label: _CountingRegex(label, regex, calls, texts)
             for label, regex in annotate_module._SURFACE_SCANS.items()}
    assert set(scans) == SURFACE_LABELS
    monkeypatch.setattr(annotate_module, "_SURFACE_SCANS", scans)
    return calls


def _counting_phrase_passes(monkeypatch):
    texts = []
    real = annotate_module._PhraseIndex.find

    def counting(index, text):
        texts.append(text)
        return real(index, text)

    monkeypatch.setattr(annotate_module._PhraseIndex, "find", counting)
    return texts


def test_scored_only_page_lists_no_numbers_or_postcodes(monkeypatch):
    calls = _counting_scans(monkeypatch)
    pages = parse_document(doc(NARRATIVE))
    # A one-leaf model reads no feature, so nothing is scanned.
    assert list(pipeline.page_runs(pages, GAZ, "auto", _constant_model(0))) == []
    assert calls == []
    # A model testing phones (f4) and address blocks (f10) lists the phones.
    assert list(pipeline.page_runs(pages, GAZ, "auto", _split_model(3, 9))) == []
    listed = {label for label, how in calls if how == "finditer"}
    assert listed == {AnnotationLabel.PHONE}
    # The page's numbers and its postcode were asked for by search alone.
    assert (AnnotationLabel.CARDINAL, "search") in calls
    assert (AnnotationLabel.POSTCODE, "search") in calls


def test_scoring_on_currency_and_date_scans_only_those(monkeypatch):
    texts = []
    calls = _counting_scans(monkeypatch, texts)
    passes = _counting_phrase_passes(monkeypatch)
    pages, gaz = parse_document(doc(NARRATIVE)), Gazetteer.default()
    assert list(pipeline.page_runs(pages, gaz, "auto", _split_model(0, 1))) == []
    assert passes == [] and "phrase_index" not in vars(gaz)  # the index was not built
    # Each tree's split (f1, then f2, at 0.5) is decided at group 2, which
    # holds the page's one amount and one date, so the footer is never read.
    decided = [group_text(g) for g in pages[0].groups[:3]]
    assert texts == ([(AnnotationLabel.CURRENCY, text) for text in decided]
                     + [(AnnotationLabel.DATE, text) for text in decided])
    assert calls == [(label, "finditer") for label, _ in texts]
    # Named, the page is segmented, which runs the phrase pass once on each
    # group that is not page furniture.
    (run,) = pipeline.page_runs(pages, gaz, [0], _split_model(0, 1))
    assert passes == [group_text(g) for g in run.page.groups if not g.is_furniture]


def test_segmenting_builds_no_surface_annotations(fig1a_page, monkeypatch):
    built = _counting_annotations(monkeypatch)
    run = pipeline.PageRun(fig1a_page, 0, GAZ)
    assert run.spans
    assert built and {args[0] for args in built}.isdisjoint(SURFACE_LABELS)


# --- lines are built on segmented pages only ---

def _counting_line_builds(monkeypatch):
    """The group objects whose lines are built, one entry per build."""
    built = []
    real = visual._built_lines

    def counting(obj):
        built.append(obj)
        return real(obj)

    monkeypatch.setattr(visual, "_built_lines", counting)
    return built


def _document_file(tmp_path, *pages):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc(*pages)))
    return str(path)


@pytest.mark.parametrize("command", [
    ("validate",), ("features",), ("classify", "--model"), ("blocks", "--pages", "auto", "--model"),
], ids=lambda c: c[0])
def test_lines_built_once_on_segmented_pages_only(
    command, fig1a_path, trained_model_path, tmp_path, monkeypatch, capsys
):
    fig1a = json.loads(fig1a_path.read_text())["pages"][0]
    path = _document_file(tmp_path, NARRATIVE, fig1a, NARRATIVE)
    built = _counting_line_builds(monkeypatch)
    model = [str(trained_model_path)] if command[-1] == "--model" else []
    assert cli.run([command[0], path, *command[1:], *model]) == 0
    out = capsys.readouterr().out
    if command[0] != "blocks":
        assert built == []
        return
    # Only fig1a (page 1) is flagged and segmented: each of its groups is
    # built once, and no group of the narrative pages is built.
    assert {block["page"] for block in json.loads(out)["blocks"]} == {1}
    assert len({id(obj) for obj in built}) == len(built)
    assert sorted(map(json.dumps, built)) == sorted(map(json.dumps, fig1a["groups"]))


def test_eval_tree_builds_no_lines(fig1a_path, fig1a_gold_path, tmp_path, monkeypatch, capsys):
    pred = tmp_path / "tree.json"
    assert cli.run(["tree", str(fig1a_path), "--out", str(pred)]) == 0
    built = _counting_line_builds(monkeypatch)
    assert cli.run(["eval", "--stage", "tree", "--pred", str(pred),
                    "--gold", str(fig1a_gold_path), "--doc", str(fig1a_path)]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[0])["blocks"]["f1"] == 1.0
    assert built == []
