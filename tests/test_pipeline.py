"""A page's run computes each stage once, and only the stages it reads."""

import importlib

from dirtree import pipeline
from dirtree.annotate import Gazetteer
from dirtree.features import FEATURE_NAMES
from dirtree.forest import ForestHyperparams, ForestModel, LeafNode
from dirtree.visual import parse_document

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
