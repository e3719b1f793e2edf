"""The traced benchmark reads per-layer metrics by span and counter name.

``bench/trace.py`` wraps pipeline functions under fixed names; a renamed or
unwrapped function would silently read as a zero per-layer metric, so one
traced ``dirtree blocks`` run must still emit every name, and a predicate
that ``build_tree`` stopped calling through the ``tree`` module would read
as a zero count.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

STAGE_SPANS = {
    "visual.parse",
    "annotate",
    "segment",
    "tree.build",
    "tree.reading_sequence",
    "tree.cluster",
    "tree.validate",
    "tree.blocks",
}
COUNTERS = {"tree.same_entry", "tree.can_parent"}


def traced(tmp_path, *argv):
    """Span names and counts of one traced ``dirtree`` run."""
    spans_file = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, "bench/trace.py", "--spans", str(spans_file), "--trace", "1",
         "--", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    head, *spans, tail = [json.loads(l) for l in spans_file.read_text().splitlines()]
    assert head["exit"] == 0
    return {s["name"] for s in spans}, tail["counts"]


def test_traced_blocks_emits_every_stage_name(tmp_path):
    names, counts = traced(tmp_path, "blocks", "tests/fixtures/fig1a.json", "--pages", "all")
    assert STAGE_SPANS <= names
    assert all(counts.get(name, 0) > 0 for name in COUNTERS), counts


def test_traced_auto_blocks_emits_classifier_spans(tmp_path, trained_model_path):
    names, counts = traced(tmp_path, "blocks", "tests/fixtures/fig1a.json",
                           "--pages", "auto", "--model", str(trained_model_path))
    assert STAGE_SPANS | {"features", "forest.load", "forest.predict"} <= names
    assert all(counts.get(name, 0) > 0 for name in COUNTERS), counts
