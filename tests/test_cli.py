import ast
import contextlib
import copy
import errno
import gc
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from dirtree import cli, jsonin, pipeline, visual
from dirtree.annotate import MAX_FIRST_WORD, Gazetteer
from dirtree.features import FEATURE_NAMES, FeatureVector, write_features_csv
from dirtree.forest import Dataset, ForestHyperparams, model_to_json, train
from dirtree.metrics import evaluate, gold_tree_for_page
from dirtree.segment import spans_to_json
from dirtree.tree import (
    NodeLabel,
    ROOT_ID,
    ReadingTree,
    TreeNode,
    TreeParams,
    directory_blocks,
    tree_from_json,
    tree_to_json,
    validate_tree,
)
from dirtree.visual import parse_document

from conftest import (
    DEEP_ARRAY,
    EXPECTED_BLOCKS,
    FIXTURES,
    FLOAT_PAST_RANGE,
    ODD_JSON,
    fault_text,
    faulty_documents,
    make_margin_rows,
    parent_of,
    random_page_dict,
    with_cycle,
    with_faults,
)
from test_pipeline import NARRATIVE
from test_tree import BAD_TREE_PARAMS


def run_cli(*argv):
    return cli.run(list(argv))


def write_csv(path, rows):
    with open(path, "w", newline="") as f:
        write_features_csv(
            f, [(FeatureVector(*x), y) for x, y in rows]
        )


# --- plumbing and error codes ---

def test_validate_ok(fig1a_path, capsys):
    assert run_cli("validate", str(fig1a_path)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"pages": 1, "groups": 15}


def test_validate_rejects_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("validate", str(bad)) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_missing_file(tmp_path, capsys):
    assert run_cli("validate", str(tmp_path / "gone.json")) == 1
    assert "error:" in capsys.readouterr().err


def test_no_command_prints_usage(capsys):
    assert run_cli() == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw",
    [b'{"pages": [{"width": %s}]}' % (b"9" * 5001), b"\xff\xfe{"],
    ids=["over_digit_limit", "not_utf"],
)
def test_validate_rejects_undecodable_json(raw, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    assert run_cli("validate", str(bad)) == 1
    assert capsys.readouterr().err.startswith("error: $: invalid JSON")


@pytest.mark.parametrize(
    "kind", ["document", "gazetteer", "model", "config", "gold", "pred"])
def test_deeply_nested_json_is_an_input_error(kind, fig1a_path, fig1a_gold_path, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_bytes(b"[" * 200_000 + b"]" * 200_000)
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"pages": [{"page": 0, "label": 1}]}))
    doc, gold = str(fig1a_path), str(fig1a_gold_path)
    argv = {
        "document": ["validate", str(deep)],
        "gazetteer": ["blocks", doc, "--pages", "all", "--gazetteer", str(deep)],
        "model": ["classify", doc, "--model", str(deep)],
        "config": ["validate", doc],
        "gold": ["eval", "--stage", "classifier", "--pred", str(pred), "--gold", str(deep)],
        "pred": ["eval", "--stage", "classifier", "--pred", str(deep), "--gold", gold],
    }[kind]
    env = {k: v for k, v in os.environ.items() if k != cli.CONFIG_ENV}
    if kind == "config":
        env[cli.CONFIG_ENV] = str(deep)
    proc = subprocess.run([sys.executable, "-m", "dirtree", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error:") and "nested too deeply" in line


@pytest.mark.parametrize(
    "kind, raw",
    [
        ("gazetteer", b"{not json"),
        ("model", b"{not json"),
        ("config", b"{not json"),
        ("gold", b"[" * 200_000 + b"]" * 200_000),
        ("pred", b"[" * 200_000 + b"]" * 200_000),
    ],
    ids=["gazetteer", "model", "config", "gold", "pred"],
)
def test_json_decode_error_names_the_file(kind, raw, fig1a_path, fig1a_gold_path, tmp_path,
                                          monkeypatch, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"pages": [{"page": 0, "label": 1}]}))
    doc, gold = str(fig1a_path), str(fig1a_gold_path)
    argv = {
        "gazetteer": ["blocks", doc, "--pages", "all", "--gazetteer", str(bad)],
        "model": ["classify", doc, "--model", str(bad)],
        "config": ["validate", doc],
        "gold": ["eval", "--stage", "classifier", "--pred", str(pred), "--gold", str(bad)],
        "pred": ["eval", "--stage", "classifier", "--pred", str(bad), "--gold", gold],
    }[kind]
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    if kind == "config":
        monkeypatch.setenv(cli.CONFIG_ENV, str(bad))
    assert run_cli(*argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {bad} is not valid JSON: ")


@pytest.mark.parametrize("flag", ["--align-tol", "--gap-factor", "--size-cluster-tol"])
def test_nan_tree_param_flag_rejected(flag, fig1a_path, capsys):
    assert run_cli("blocks", str(fig1a_path), "--pages", "all", flag, "nan") == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "tree_params, flags",
    [({"align_tol": 10**399}, []), ({"align_tol": FLOAT_PAST_RANGE}, []),
     ({}, ["--align-tol", "inf"])],
    ids=["400_digit_config", "1e400_config", "inf_flag"],
)
def test_infinite_tree_param_rejected(tree_params, flags, fig1a_path, tmp_path, monkeypatch,
                                      capsys):
    # An infinite parameter would change the blocks.  Like NaN it is
    # rejected, as 1e400, as an integer past the float range or as a flag.
    config = tmp_path / "config.json"
    config.write_text(fault_text({"tree_params": tree_params}))
    monkeypatch.setenv(cli.CONFIG_ENV, str(config))
    assert run_cli("blocks", str(fig1a_path), "--pages", "all", *flags) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == ("error: align_tol must be finite and >= 0" if flags
                    else "error: config: $.tree_params.align_tol: must be finite")


def test_unknown_flag(fig1a_path, capsys):
    assert run_cli("validate", str(fig1a_path), "--bogus") == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["width", "group_r"])
def test_blocks_rejects_integer_beyond_float_range(where, fig1a_path, tmp_path):
    doc = json.loads(fig1a_path.read_text())
    page = doc["pages"][0]
    if where == "width":
        page["width"] = 10**400
    else:
        page["groups"][0]["bbox"]["r"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "dirtree", "blocks", str(path)],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error:") and "coordinates must be finite" in line


@pytest.mark.parametrize("extra", [0, 1], ids=["at_bound", "past_bound"])
def test_gazetteer_first_word_length_is_bounded(extra, fig1a_path, tmp_path, capsys):
    # The gazetteer format bounds the length of a phrase's first word.
    gaz = tmp_path / "gazetteer.json"
    gaz.write_text(json.dumps({"roles": ["x" * (MAX_FIRST_WORD + extra) + " of the Fund"]}))
    rc = run_cli("blocks", str(fig1a_path), "--pages", "all", "--gazetteer", str(gaz))
    err = capsys.readouterr().err
    if extra:
        assert rc == 1
        (line,) = err.splitlines()
        assert line == (f"error: gazetteer: $.roles[0]: a phrase's first word is over "
                        f"{MAX_FIRST_WORD} characters long")
    else:
        assert (rc, err) == (0, "")


def _fails_cleanly(*argv):
    """Run a command: it exits 0, or 1 with one short error line, within 10 s.
    The exit code."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_cli(*argv)
    assert time.perf_counter() - start < 10
    assert code in (0, 1)
    if code == 1:
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error:") and len(line) < 1000
    return code


@settings(max_examples=100)
@given(faulty_documents())
def test_cli_fuzzed_documents_fail_cleanly(document):
    # A document with one to four faults either runs or exits 1 with one
    # error line; no exception escapes and no example hangs.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as f:
            json.dump(document, f)
        for argv in (["validate", path], ["blocks", path, "--pages", "all"]):
            _fails_cleanly(*argv)


# --- a document read one page at a time ---

def _outcome(*argv):
    """(exit code, stdout, stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(*argv)
    return code, out.getvalue(), err.getvalue()


def _on_the_list_path():
    """The CLI reading each document whole, as a list of pages."""
    return mock.patch.object(cli, "parse_document", lambda data, stream=False: parse_document(data))


_DOCUMENT_COMMANDS = [["validate"], ["blocks", "--pages", "all"], ["blocks", "--pages", "auto"],
                      ["blocks", "--pages", "0"]]


def _argv(command, path, model):
    return [command[0], str(path), *command[1:], *(["--model", str(model)] * ("auto" in command))]


@settings(max_examples=50, deadline=None)
@given(document=faulty_documents())
def test_streamed_commands_report_the_first_document_fault(document, trained_model_path):
    # A page's fault stops the run, and the rest of the document is checked
    # for a fault of the JSON itself, so the error is the one parse_document
    # raises for it.
    data = json.dumps(document).encode()
    try:
        parse_document(data)
    except ValueError as e:
        expected = (1, "", f"error: {e}\n")
    else:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as f:
            f.write(data)
        for command in _DOCUMENT_COMMANDS:
            assert _outcome(*_argv(command, path, trained_model_path)) == expected


_FIG1A_PAGE = json.loads((FIXTURES / "fig1a.json").read_text())["pages"][0]


@pytest.mark.parametrize("flags", [["--model", "no-such-model.json"],
                                   ["--gazetteer", "no-such-gazetteer.json"],
                                   ["--threshold", "2"], ["--align-tol", "-1"]],
                         ids=["missing_model", "bad_gazetteer", "bad_threshold", "bad_tree_param"])
@pytest.mark.parametrize("command", _DOCUMENT_COMMANDS[1:], ids=["all", "auto", "list"])
def test_document_fault_is_reported_before_a_bad_flag(command, flags, trained_model_path,
                                                      tmp_path):
    # The fault is in the second page: a streamed run meets the flag first.
    faulty = copy.deepcopy(_FIG1A_PAGE)
    faulty["groups"][3]["bbox"]["l"] = -1
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"pages": [_FIG1A_PAGE, faulty]}))
    with pytest.raises(ValueError) as fault:
        parse_document(path.read_bytes())
    argv = _argv(command, path, trained_model_path) + flags
    assert _outcome(*argv) == (1, "", f"error: {fault.value}\n")


_PAGE_TEXT = json.dumps(_FIG1A_PAGE)
_DEEP = "[" * 100_000 + "]" * 100_000
# Documents whose top level a page-by-page read must take as json.loads does.
_DOCUMENT_SHAPES = {
    "utf16": json.dumps({"pages": [_FIG1A_PAGE]}).encode("utf-16"),
    "utf8_bom": "\ufeff{\"pages\": [%s]}" % _PAGE_TEXT,
    "repeated_pages": '{"pages": [7], "pages": [%s]}' % _PAGE_TEXT,
    "repeated_pages_last_longer": '{"pages": [%s], "pages": [%s, %s]}' % ((_PAGE_TEXT,) * 3),
    "repeated_pages_last_faulty": '{"pages": [%s], "pages": {}}' % _PAGE_TEXT,
    "unknown_keys": '{"title": {"a": [1, "]"]}, "pages": [%s],\n"notes": [null]} ' % _PAGE_TEXT,
    "trailing_data": '{"pages": [%s]} {}' % _PAGE_TEXT,
    "trailing_comma": '{"pages": [%s, %s,]}' % (_PAGE_TEXT, _PAGE_TEXT),
    "deep_page": '{"pages": [%s, %s]}' % (_PAGE_TEXT, _DEEP),
    "deep_key_after": '{"pages": [%s], "notes": %s}' % (_PAGE_TEXT, _DEEP),
    "no_pages": '{"page": [%s]}' % _PAGE_TEXT,
    "pages_not_an_array": '{"pages": {"0": %s}}' % _PAGE_TEXT,
    "not_an_object": "[%s]" % _PAGE_TEXT,
}


@pytest.mark.parametrize("name", sorted(_DOCUMENT_SHAPES))
@pytest.mark.parametrize("command", _DOCUMENT_COMMANDS, ids=["validate", "all", "auto", "list"])
def test_streamed_document_reads_as_the_list_does(name, command, trained_model_path, tmp_path):
    shape = _DOCUMENT_SHAPES[name]
    path = tmp_path / "doc.json"
    path.write_bytes(shape if isinstance(shape, bytes) else shape.encode())
    argv = _argv(command, path, trained_model_path)
    streamed = _outcome(*argv)
    with _on_the_list_path():
        assert _outcome(*argv) == streamed
    assert "Traceback" not in streamed[2]


@pytest.mark.parametrize("command, faulty", [(_DOCUMENT_COMMANDS[0], False),
                                             (_DOCUMENT_COMMANDS[2], False),
                                             (_DOCUMENT_COMMANDS[0], True),
                                             (_DOCUMENT_COMMANDS[1], True)],
                         ids=["validate", "auto", "validate_faulty_last_page",
                              "all_faulty_last_page"])
def test_peak_memory_grows_under_three_bytes_per_byte_of_json(command, faulty,
                                                              trained_model_path, tmp_path):
    # Each page is decoded, checked and run alone, so what grows with the
    # document is its bytes and its text, one byte per character each.  A
    # faulty last page stops the run, and no page is read twice.
    sizes, peaks = [], []
    for n_pages in (20, 20, 200):  # the first run fills the caches
        rng = random.Random(n_pages)
        pages = [random_page_dict(rng) for _ in range(n_pages)]
        if faulty:
            pages[-1]["groups"][0]["bbox"]["l"] = -1
        data = json.dumps({"pages": pages}).encode()
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            assert _outcome(*_argv(command, path, trained_model_path))[0] == int(faulty)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(len(data))
    assert (peaks[2] - peaks[1]) / (sizes[2] - sizes[1]) <= 3


_FAULTY_PAGE = copy.deepcopy(_FIG1A_PAGE)
_FAULTY_PAGE["groups"][3]["bbox"]["l"] = -1
_LATE_FAULT = json.dumps({"pages": [_FIG1A_PAGE, _FIG1A_PAGE, _FAULTY_PAGE]})
# (command, document, an invalid tree built) of commands that fail.
_FAILED_READS = {
    "bad_flag": (["blocks", "--pages", "all", "--align-tol", "-1"],
                 json.dumps({"pages": [_FIG1A_PAGE] * 3}), False),
    **{name: (command, _LATE_FAULT, False)
       for name, command in zip(["validate", "all", "auto", "list"], _DOCUMENT_COMMANDS)},
    "invalid_tree": (["blocks", "--pages", "all"],
                     json.dumps({"pages": [_FIG1A_PAGE, _FAULTY_PAGE]}), True),
    "declined": (["validate"],
                 '{"pages": [7], "pages": %s}' % json.dumps([_FIG1A_PAGE, _FAULTY_PAGE]), False),
}


@pytest.mark.parametrize("name", sorted(_FAILED_READS))
def test_failed_command_checks_each_page_once(name, trained_model_path, tmp_path, monkeypatch):
    # A command that fails checks the pages it did not read, and reads the
    # whole text only when the document cannot be read page by page.  Its
    # outcome is the list path's: a tree found invalid on page 0 exits 1
    # with the later page's fault.
    command, text, invalid_tree = _FAILED_READS[name]
    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = _argv(command, path, trained_model_path)
    if invalid_tree:
        monkeypatch.setattr(pipeline, "build_tree", lambda spans, params: ReadingTree(
            {1: TreeNode(1, NodeLabel.BODY, "orphan", None)}))
    with _on_the_list_path():
        expected = _outcome(*argv)
    checked, whole = [], []  # page indexes checked; for each decode, whether of the text
    real_check, real_decode = visual._parse_page, jsonin.decode_json

    def check(holder, page_i, where):
        checked.append(page_i)
        return real_check(holder, page_i, where)

    def decode(data):
        whole.append(data in (text, text.encode()))
        return real_decode(data)

    monkeypatch.setattr(visual, "_parse_page", check)
    monkeypatch.setattr(jsonin, "decode_json", decode)
    assert _outcome(*argv) == expected and expected[0] == 1
    assert any(whole) == (name == "declined")
    if name != "declined":
        assert len(checked) == len(set(checked))


# Documents with a page nested d deep (its "extra" value), each read page by
# page to some point and then whole.
_NEAR_THE_DEPTH_LIMIT = {
    "page_fault_then_deep_page": '{"pages": [%s, %%s]}' % json.dumps(_FAULTY_PAGE),
    "page_fault_then_deep_page_then_trailing_comma":
        '{"pages": [%s, %%s,]}' % json.dumps(_FAULTY_PAGE),
    "repeated_pages_then_deep_page": '{"pages": [], "pages": [%s]}',
}


@pytest.mark.parametrize("name", sorted(_NEAR_THE_DEPTH_LIMIT))
@pytest.mark.parametrize("command", _DOCUMENT_COMMANDS[:2], ids=["validate", "all"])
def test_streamed_read_near_the_depth_limit_reads_as_the_list_does(name, command, tmp_path,
                                                                   monkeypatch):
    # Where the whole read gives up differs between Pythons (the recursion
    # limit up to 3.11, a C stack budget from 3.12), so the test finds it.
    # Around it, a command that reads page by page ends as the whole read
    # does: the scan that follows a fault goes no deeper than the reads.
    # Each depth runs three times, as from 3.12 a loop the interpreter has
    # specialized may resume a generator with less of that budget.
    page = json.dumps(dict(_FIG1A_PAGE, extra=0))
    path = tmp_path / "doc.json"

    def outcome(shape, depth, whole):
        path.write_text(shape % page.replace('"extra": 0', '"extra": ' + "[" * depth + "]" * depth))
        with monkeypatch.context() as m:
            if whole:  # every document declined, so read whole where the CLI reads it
                m.setattr(visual, "streamed_items", _declined)
            return _outcome(*_argv(command, path, None))

    low, high = 1, 1 << 15  # taken and refused by the whole read
    assert outcome('{"pages": [%s]}', low, True)[0] == 0
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if outcome('{"pages": [%s]}', mid, True)[0] == 0 else (low, mid)
    shape = _NEAR_THE_DEPTH_LIMIT[name]
    for depth in [*range(low - 3, low + 4)] * 3:
        assert outcome(shape, depth, False) == outcome(shape, depth, True)


def _declined(read, data, key):
    raise jsonin.DeclinedError("$", "declined")
    yield


FIG1A = str(FIXTURES / "fig1a.json")
# A small model (two trees) and the fig1a page's predicted tree, as files
# hold them.
_MODEL = model_to_json(train(Dataset(make_margin_rows(20, 20, seed=5)),
                             ForestHyperparams(n_trees=2)))
_PREDICTED = {"pages": [{"page": 0, "tree": tree_to_json(
    pipeline.PageRun(parse_document(Path(FIG1A).read_bytes())[0], 0, Gazetteer.default()).tree)}]}


def _with(document, path, value):
    """A copy of ``document`` with ``value`` at ``path``."""
    document = copy.deepcopy(document)
    parent_of(document, path)[path[-1]] = value
    return document


@settings(max_examples=100, deadline=None)
@given(with_faults(_MODEL, ODD_JSON, grow=True))
@example(_with(_MODEL, ("hyperparams", "n_trees"), FLOAT_PAST_RANGE))
@example(_with(_MODEL, ("hyperparams", "max_depth"), FLOAT_PAST_RANGE))
@example(_with(_MODEL, ("hyperparams", "seed"), True))
@example(_with(_MODEL, ("hyperparams", "min_samples_leaf"), "20"))
@example(_with(_MODEL, ("importances", 0), math.nan))
@example(_with(_MODEL, ("trees",), []))
@example(_with(_MODEL, ("trees",), _MODEL["trees"] * 2001))
@example(_with(_MODEL, ("trees", 0, "left"), DEEP_ARRAY))
@example(_with(_MODEL, ("hyperparams", "n_trees"), list(range(10_000))))
@example(_with(_MODEL, ("trees", 0, "left"), {"kind": "leaf", "counts": list(range(10_000))}))
def test_cli_fuzzed_models_fail_cleanly(model):
    # A model with one to four faults: classify and blocks --pages auto run
    # or exit 1 with one error line.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w") as f:
            f.write(fault_text(model))
        for argv in (["classify", FIG1A], ["blocks", FIG1A, "--pages", "auto"]):
            _fails_cleanly(*argv, "--model", path)


@settings(max_examples=100, deadline=None)
@given(with_faults(_PREDICTED, ODD_JSON, grow=True))
@example(_with(_PREDICTED, ("pages", 0, "tree", "nodes", 1, "id"), FLOAT_PAST_RANGE))
@example(_with(_PREDICTED, ("pages", 0, "tree", "nodes", 1, "parent"), FLOAT_PAST_RANGE))
@example(_with(_PREDICTED, ("pages", 0, "tree", "nodes", 0, "children", 0), 2.5))
@example(_with(_PREDICTED, ("pages", 0, "tree", "nodes", 1, "children"), "x" * 10_000))
@example(_with(_PREDICTED, ("pages", 0, "page"), list(range(10_000))))
def test_cli_fuzzed_predicted_trees_fail_cleanly(pred):
    # Predicted trees with one to four faults: eval --stage tree runs or
    # exits 1 with one error line.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pred.json")
        with open(path, "w") as f:
            f.write(fault_text(pred))
        _fails_cleanly("eval", "--stage", "tree", "--gold", str(FIXTURES / "fig1a_gold.json"),
                       "--pred", path, "--doc", FIG1A)


# Each kind of input file but the document, the model and the predicted tree
# (fuzzed above): a small valid file, and the commands that read it.  The
# training CSV is held as rows of cells, which faults reach like JSON values.
_GOLD = str(FIXTURES / "fig1a_gold.json")
_SEGMENTED = {"pages": [spans_to_json(0, pipeline.PageRun(
    parse_document(Path(FIG1A).read_bytes())[0], 0, Gazetteer.default()).spans)]}
_FILES = {
    "gazetteer": {"roles": ["Custodian", "Auditor"], "org_suffixes": ["S.A."],
                  "gpe": ["Luxembourg"]},
    "config": {"gazetteer": str(resources.files("dirtree") / "data" / "gazetteer.json"),
               "output_dir": None, "threshold": 0.5,
               "tree_params": {"align_tol": 5.0, "gap_factor": 1.5}},
    "gold": json.loads(Path(_GOLD).read_text()),
    "classifier": {"pages": [{"page": 0, "label": 1}]},
    "segmentation": _SEGMENTED,
    "training": {"rows": [[*FEATURE_NAMES, "label"],
                          *([*x, y] for x, y in make_margin_rows(5, 5, seed=2))]},
}
# Cells that open a quoted field, quote a line break, or break a line.
_ODD_CELLS = ['"', '"1\n"', "1\n0"]


def _csv_text(document):
    """A training CSV: each row one line of its cells, a faulty row that is
    no longer a list one cell."""
    rows = document.get("rows", [])
    rows = rows if isinstance(rows, list) else [rows]
    return "".join((",".join(map(str, row)) if isinstance(row, list) else str(row)) + "\n"
                   for row in rows)


def _commands(kind, path):
    if kind == "training":
        return [["train", "--csv", path, "--pos", "5", "--neg", "5", "--seed", "1",
                 "--out", os.path.join(os.path.dirname(path), "model.json")]]
    if kind == "gazetteer":
        return [["blocks", FIG1A, "--pages", "all", "--gazetteer", path]]
    if kind == "config":
        return [["blocks", FIG1A, "--pages", "all"]]
    if kind == "gold":
        preds = {"classifier": _FILES["classifier"], "segmentation": _SEGMENTED,
                 "tree": _PREDICTED}
        commands = []
        for stage, pred in preds.items():
            pred_path = os.path.join(os.path.dirname(path), f"{stage}.json")
            with open(pred_path, "w") as f:
                json.dump(pred, f)
            commands.append(["eval", "--stage", stage, "--pred", pred_path, "--gold", path,
                             "--doc", FIG1A])
        return commands
    return [["eval", "--stage", kind, "--pred", path, "--gold", _GOLD]]


@settings(max_examples=360, deadline=None)
@given(st.sampled_from(sorted(_FILES)).flatmap(lambda kind: st.tuples(st.just(kind), with_faults(
    _FILES[kind], ODD_JSON + (_ODD_CELLS if kind == "training" else []), grow=True))))
@example(("config", _with(_FILES["config"], ("tree_params", "align_tol"), 10**399)))
@example(("classifier", {"pages": [{"page": 0, "label": 1}, {"page": 0, "label": 0}]}))
@example(("training", _with(_FILES["training"], ("rows", 3, 0), "x" * 131_073)))
@example(("training", _with(_FILES["training"], ("rows", 0, 15), "x" * 131_073)))
def test_cli_fuzzed_input_files_fail_cleanly(kind_and_file):
    # A gazetteer, config, gold, prediction or training file with one to four
    # faults: every command that reads it runs or exits 1 with one error line.
    # A field past the csv module's 131,072-character limit comes only from
    # the examples, since growing an array may repeat it 2,001 times.
    kind, document = kind_and_file
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, kind)
        with open(path, "w") as f:
            f.write(_csv_text(document) if kind == "training" else fault_text(document))
        env = {cli.CONFIG_ENV: path} if kind == "config" else {}
        with mock.patch.dict(os.environ, env):
            for argv in _commands(kind, path):
                _fails_cleanly(*argv)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["pred", "gold"]).flatmap(lambda kind: st.tuples(
    st.just(kind), with_cycle(_PREDICTED if kind == "pred" else _FILES["gold"]))))
def test_cli_cyclic_trees_fail_cleanly(kind_and_file):
    # A predicted tree whose parent and children links loop, or gold whose
    # parent links loop: eval --stage tree exits 1 with one error line.
    kind, document = kind_and_file
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{kind}.json")
        with open(path, "w") as f:
            json.dump(document, f)
        pred, gold = (path, _GOLD) if kind == "pred" else (os.path.join(tmp, "pred.json"), path)
        if kind == "gold":
            with open(pred, "w") as f:
                json.dump(_PREDICTED, f)
        assert _fails_cleanly("eval", "--stage", "tree", "--pred", pred, "--gold", gold,
                              "--doc", FIG1A) == 1


def test_help_via_module():
    proc = subprocess.run(
        [sys.executable, "-m", "dirtree", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "usage" in proc.stdout


# Modules that would pull in ``fractions``, ``decimal`` and ``numbers`` on
# every command, ``importlib.resources`` with the temporary-file and archive
# modules it imports, and ``pathlib`` with ``fnmatch``, ``ipaddress`` and
# ``urllib``.
_HEAVY_MODULES = {"statistics", "fractions", "decimal", "importlib.resources", "tempfile",
                  "shutil", "bz2", "lzma", "zlib", "pathlib"}
# Modules only some commands use (``csv`` for CSV files, ``metrics`` for
# ``eval``), and ``dataclasses`` with the ``inspect`` it imports.
_DEFERRED_MODULES = {"dataclasses", "inspect", "csv", "dirtree.metrics"}


def test_cli_imports_only_the_standard_library():
    # A fresh interpreter without site-packages: every module the import adds
    # is the package's own or the standard library's.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import dirtree.cli; print(sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = ast.literal_eval(proc.stdout)
    assert "dirtree.cli" in added
    outside = [m for m in added if m.split(".")[0] not in sys.stdlib_module_names
               and m.split(".")[0] != "dirtree"]
    assert outside == []
    assert _HEAVY_MODULES.isdisjoint(added)
    assert _DEFERRED_MODULES.isdisjoint(added)


def test_eval_names_load_when_first_read(fig1a_gold_path, tmp_path):
    # In a fresh interpreter, ``metrics`` loads when the package is asked
    # for one of its names, and ``dirtree eval`` loads it to score.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dirtree; "
            "assert 'dirtree.metrics' not in sys.modules; "
            "from dirtree import evaluate; import dirtree.metrics; "
            "assert evaluate is dirtree.metrics.evaluate is dirtree.evaluate; "
            "assert dirtree.metrics.EVAL_STAGES is dirtree.EVAL_STAGES; "
            "assert not hasattr(dirtree, 'no_such_name'); print('ok')")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"pages": [{"page": 0, "label": 1}]}))
    proc = subprocess.run(
        [sys.executable, "-m", "dirtree", "eval", "--stage", "classifier",
         "--pred", str(pred), "--gold", str(fig1a_gold_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout.splitlines()[0])["overall"]["f1"] == 1.0


def test_every_exported_name_resolves():
    # A name left in ``__all__`` after its export is gone breaks star-imports.
    import dirtree

    missing = []
    for name in dirtree.__all__:
        try:
            getattr(dirtree, name)
        except AttributeError:
            missing.append(name)
    assert missing == []
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys; sys.path.insert(0, sys.argv[1]); from dirtree import *; print('ok')"
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_outputs_do_not_depend_on_the_hash_seed(fig1a_path, tmp_path):
    # String hashes, and so the iteration order of sets and dicts keyed by
    # strings, change with PYTHONHASHSEED; no output may.
    csv = tmp_path / "rows.csv"
    write_csv(csv, make_margin_rows(25, 35, seed=3))
    model = tmp_path / "model.json"
    commands = [
        ["blocks", str(fig1a_path), "--pages", "all"],
        ["tree", str(fig1a_path)],
        ["train", "--csv", str(csv), "--pos", "40", "--neg", "40", "--seed", "5",
         "--out", str(model)],
    ]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    outputs = {}
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "dirtree", *argv],
                                  capture_output=True, env=env, timeout=120)
            assert (proc.returncode, proc.stderr) == (0, b""), argv
            written = model.read_bytes() if argv[0] == "train" else b""
            outputs.setdefault(argv[0], []).append((proc.stdout, written))
    for name, (first, second) in outputs.items():
        assert first == second, name
        assert first[0], name


def test_out_writes_file(fig1a_path, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert run_cli("validate", str(fig1a_path), "--out", str(target)) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text()) == {"pages": 1, "groups": 15}


# --- annotate / features ---

def test_annotate_shape(fig1a_path, capsys):
    assert run_cli("annotate", str(fig1a_path), "--pages", "0") == 0
    out = json.loads(capsys.readouterr().out)
    assert [p["page"] for p in out["pages"]] == [0]
    anns = out["pages"][0]["annotations"]
    assert anns, "the fixture page carries entities"
    assert set(anns[0]) == {"group", "label", "start", "end", "surface"}
    assert any(a["label"] == "ROLE" for a in anns)


def test_features_stdout(fig1a_path, capsys):
    assert run_cli("features", str(fig1a_path)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("f1,f2,") and lines[0].endswith(",label")
    assert len(lines) == 2
    row = lines[1].split(",")
    assert len(row) == 16
    assert row[5] == "15.0"  # group count
    assert row[8] == "116.0"  # word count
    assert row[15] == ""  # unlabeled


def test_features_to_file(fig1a_path, tmp_path):
    target = tmp_path / "rows.csv"
    assert run_cli("features", str(fig1a_path), "--csv", str(target)) == 0
    assert target.read_text().startswith("f1,")


# --- train ---

def test_train_and_determinism(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    write_csv(csv, make_margin_rows(25, 35, seed=3))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    common = ["train", "--csv", str(csv), "--pos", "40", "--neg", "40",
              "--seed", "5", "--trees", "8"]
    assert run_cli(*common, "--out", str(a)) == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["rows"] == 80
    assert summary["trees"] == 8
    assert summary["model"] == str(a)
    assert set(summary["importances"]) == {f"f{i}" for i in range(1, 16)}
    assert run_cli(*common, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_single_class_fails(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    write_csv(csv, [(x, y) for x, y in make_margin_rows(10, 10, seed=1) if y == 1])
    rc = run_cli("train", "--csv", str(csv), "--pos", "5", "--neg", "5",
                 "--seed", "1", "--out", str(tmp_path / "m.json"))
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_train_no_rows(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    write_csv(csv, [])
    rc = run_cli("train", "--csv", str(csv), "--pos", "5", "--neg", "5",
                 "--seed", "1", "--out", str(tmp_path / "m.json"))
    assert rc == 1
    assert "no labeled rows" in capsys.readouterr().err


def test_train_rejects_non_finite_rows(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    write_csv(csv, make_margin_rows(10, 10, seed=2))
    lines = csv.read_text().splitlines()
    lines[4] = "nan," + lines[4].split(",", 1)[1]
    csv.write_text("\n".join(lines) + "\n")
    rc = run_cli("train", "--csv", str(csv), "--pos", "5", "--neg", "5",
                 "--seed", "1", "--out", str(tmp_path / "m.json"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 5: f1 must be finite" in err
    assert not (tmp_path / "m.json").exists()


def test_train_bad_hyperparams(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    write_csv(csv, make_margin_rows(10, 10, seed=2))
    for flag, value, message in [
        ("--trees", "0", "n_trees must be >= 1"),
        ("--depth", "0", "max_depth must be >= 1 or None"),
        ("--max-features", "1.5", "max_features_fraction must be in (0, 1]"),
        ("--min-leaf", "0", "min_samples_leaf must be >= 1"),
    ]:
        rc = run_cli("train", "--csv", str(csv), "--pos", "5", "--neg", "5",
                     "--seed", "1", flag, value, "--out", str(tmp_path / "m.json"))
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_train_bad_counts(tmp_path, capsys):
    # Both classes are present: a count below 1 is named, not blamed on the
    # data or on random.sample.
    csv = tmp_path / "rows.csv"
    write_csv(csv, make_margin_rows(10, 10, seed=2))
    for pos, neg, message in [("-1", "5", "target_pos must be >= 1, got -1"),
                              ("0", "5", "target_pos must be >= 1, got 0"),
                              ("5", "0", "target_neg must be >= 1, got 0")]:
        rc = run_cli("train", "--csv", str(csv), "--pos", pos, "--neg", neg,
                     "--seed", "1", "--out", str(tmp_path / "m.json"))
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "m.json").exists()


# --- classify ---

def test_classify_fixture_page(fig1a_path, trained_model_path, capsys):
    assert run_cli("classify", str(fig1a_path), "--model", str(trained_model_path)) == 0
    out = json.loads(capsys.readouterr().out)
    (entry,) = out["pages"]
    assert entry["page"] == 0
    assert entry["label"] == 1
    assert 0.0 <= entry["score"] <= 1.0


def test_classify_requires_model(fig1a_path, capsys):
    assert run_cli("classify", str(fig1a_path)) == 1
    assert "--model" in capsys.readouterr().err


def test_classify_threshold_flag(fig1a_path, trained_model_path, capsys):
    rc = run_cli("classify", str(fig1a_path), "--model", str(trained_model_path),
                 "--threshold", "1.5")
    assert rc == 1
    assert "threshold" in capsys.readouterr().err


def _directory_and_narrative(tmp_path):
    """A document of fig1a, which the test model labels 1, and a narrative
    page, which it labels 0 at the default threshold."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"pages": [_FIG1A_PAGE, NARRATIVE]}))
    return str(path)


def test_threshold_flag_sets_the_labels(trained_model_path, tmp_path, monkeypatch, capsys):
    classify = ["classify", _directory_and_narrative(tmp_path), "--model", str(trained_model_path)]

    def labels(*flags):
        assert run_cli(*classify, *flags) == 0
        return [entry["label"] for entry in json.loads(capsys.readouterr().out)["pages"]]

    assert labels() == [1, 0]
    assert labels("--threshold", "0") == [1, 1]
    set_config(monkeypatch, tmp_path, {"threshold": 1.0})
    assert labels("--threshold", "0") == [1, 1]  # the flag wins over the config


def test_threshold_flag_selects_the_pages(trained_model_path, tmp_path, monkeypatch, capsys):
    blocks = ["blocks", _directory_and_narrative(tmp_path), "--pages", "auto",
              "--model", str(trained_model_path)]
    segmented = []
    real = pipeline.segment_page
    monkeypatch.setattr(pipeline, "segment_page",
                        lambda page, anns: segmented.append(page) or real(page, anns))

    def selected(*flags):
        segmented.clear()
        assert run_cli(*blocks, *flags) == 0
        capsys.readouterr()
        return len(segmented)

    assert selected() == 1
    assert selected("--threshold", "0") == 2
    set_config(monkeypatch, tmp_path, {"threshold": 1.0})
    assert selected("--threshold", "0") == 2


@pytest.mark.parametrize("argv", [["blocks", "--pages", "all", "--gazetteer", ""],
                                  ["classify", "--model", ""]], ids=["gazetteer", "model"])
def test_empty_path_flag_is_an_error(argv, fig1a_path):
    # A given flag is used even when empty; it is not read as "not given".
    code, out, err = _outcome(argv[0], str(fig1a_path), *argv[1:])
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith("error: ") and line.endswith(": ''")


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("argv", [["blocks", "--pages", "all"], ["classify"]],
                         ids=["gazetteer", "model"])
def test_unreadable_path_names_where_it_came_from(argv, source, fig1a_path, tmp_path,
                                                   monkeypatch):
    # A directory passes the config's existence check and cannot be read.
    key = "gazetteer" if argv[0] == "blocks" else "model"
    argv = [argv[0], str(fig1a_path), *argv[1:]]
    if source == "flag":
        argv += ["--" + key, str(tmp_path)]
        where = "--" + key
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: str(tmp_path)}))
        monkeypatch.setenv(cli.CONFIG_ENV, str(config))
        where = f"config: $.{key}"
    code, out, err = _outcome(*argv)
    assert (code, out) == (1, "")
    reason = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(tmp_path)!r}"
    assert err == f"error: {where}: {reason}\n"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda m: m.pop("hyperparams"), "hyperparams"),
        (lambda m: m["trees"][0].update(feature=99), "feature"),
        (lambda m: m.update(trees=[]), "at least one tree"),
    ],
    ids=["no_hyperparams", "feature_99", "no_trees"],
)
def test_classify_rejects_malformed_model(
    mutate, message, fig1a_path, trained_model_path, tmp_path, capsys
):
    model = json.loads(trained_model_path.read_text())
    assert model["trees"][0]["kind"] == "split"
    mutate(model)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert run_cli("classify", str(fig1a_path), "--model", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


# --- segment ---

def test_segment_explicit_page(fig1a_path, capsys):
    assert run_cli("segment", str(fig1a_path), "--pages", "0") == 0
    out = json.loads(capsys.readouterr().out)
    (page,) = out["pages"]
    assert page["page"] == 0
    assert len(page["spans"]) == 15


def test_segment_page_out_of_range(fig1a_path, capsys):
    assert run_cli("segment", str(fig1a_path), "--pages", "5") == 1
    assert "out of range" in capsys.readouterr().err


def test_segment_bad_pages_token(fig1a_path, capsys):
    assert run_cli("segment", str(fig1a_path), "--pages", "abc") == 1
    assert "comma list" in capsys.readouterr().err


def test_segment_empty_pages_list(fig1a_path, capsys):
    assert run_cli("segment", str(fig1a_path), "--pages", ",") == 1
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["segment", "tree", "blocks"])
def test_pages_list_rejects_a_repeated_index(fig1a_path, capsys, command):
    # Written out twice, a page's tree would then fail eval as given twice.
    assert run_cli(command, str(fig1a_path), "--pages", "0,0") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: page 0 given twice"]
    with pytest.raises(ValueError, match="page 0 given twice"):
        next(pipeline.page_runs(parse_document(fig1a_path.read_bytes()),
                                Gazetteer.default(), [0, 0]))


def test_segment_auto_needs_model(fig1a_path, capsys):
    assert run_cli("segment", str(fig1a_path), "--pages", "auto") == 1
    assert "--model" in capsys.readouterr().err


def test_segment_auto_with_model(fig1a_path, trained_model_path, capsys):
    rc = run_cli("segment", str(fig1a_path), "--pages", "auto",
                 "--model", str(trained_model_path))
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert [p["page"] for p in out["pages"]] == [0]


# --- tree / blocks ---

def test_tree_output_is_valid(fig1a_path, capsys):
    assert run_cli("tree", str(fig1a_path), "--pages", "0") == 0
    out = json.loads(capsys.readouterr().out)
    (page,) = out["pages"]
    tree = tree_from_json(page["tree"])
    validate_tree(tree)
    assert len(tree.nodes) == 15  # root plus one node per labeled span


def test_blocks_match_reference(fig1a_path, capsys):
    assert run_cli("blocks", str(fig1a_path), "--pages", "0") == 0
    out = json.loads(capsys.readouterr().out)
    got = [(b["headers"], b["body"]) for b in out["blocks"]]
    assert got == EXPECTED_BLOCKS
    assert all(b["page"] == 0 for b in out["blocks"])


def test_blocks_compose_from_tree(fig1a_path, tmp_path):
    tree_out = tmp_path / "tree.json"
    blocks_out = tmp_path / "blocks.json"
    assert run_cli("tree", str(fig1a_path), "--pages", "0", "--out", str(tree_out)) == 0
    assert run_cli("blocks", str(fig1a_path), "--pages", "0", "--out", str(blocks_out)) == 0
    tree = tree_from_json(json.loads(tree_out.read_text())["pages"][0]["tree"])
    rebuilt = [
        {"headers": list(b.headers), "body": b.body, "page": 0}
        for b in directory_blocks(tree)
    ]
    assert rebuilt == json.loads(blocks_out.read_text())["blocks"]


def test_blocks_deterministic(fig1a_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("blocks", str(fig1a_path), "--pages", "0", "--out", str(a)) == 0
    assert run_cli("blocks", str(fig1a_path), "--pages", "0", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_invariant_violation_exits_2(fig1a_path, capsys, monkeypatch):
    def broken_build(spans, params):
        return ReadingTree({1: TreeNode(1, NodeLabel.BODY, "orphan", None)})

    monkeypatch.setattr(pipeline, "build_tree", broken_build)
    assert run_cli("tree", str(fig1a_path), "--pages", "0") == 2
    assert "internal error" in capsys.readouterr().err


# (arguments after the document, an invalid tree built, exit code)
_GC_CASES = [(["--pages", "0"], False, 0), (["--pages", "7"], False, 1),
             (["--pages", "0", "--no-such-flag"], False, 1), (["--pages", "0"], True, 2)]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("args, invalid_tree, code", _GC_CASES)
def test_run_pauses_gc_and_restores_its_state(enabled, args, invalid_tree, code, fig1a_path,
                                              capsys, monkeypatch):
    seen = []  # the collector's state wherever the command reached
    real_read, real_build = cli._read_doc, pipeline.build_tree

    def reading(path, *stream):
        seen.append(gc.isenabled())
        return real_read(path, *stream)

    def building(spans, params):
        seen.append(gc.isenabled())
        if invalid_tree:
            return ReadingTree({1: TreeNode(1, NodeLabel.BODY, "orphan", None)})
        return real_build(spans, params)

    monkeypatch.setattr(cli, "_read_doc", reading)
    monkeypatch.setattr(pipeline, "build_tree", building)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert run_cli("tree", str(fig1a_path), *args) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert ("error" in capsys.readouterr().err) == bool(code)
    if "--no-such-flag" in args:
        assert seen == []  # a usage error stops before the document is read
    else:
        assert seen and not any(seen)


@pytest.mark.parametrize("command", ["annotate", "segment", "blocks"])
def test_auto_annotates_each_page_once(
    command, fig1a_path, trained_model_path, monkeypatch, capsys
):
    calls = []
    real = pipeline.annotate

    def counting(page, gaz):
        calls.append(page)
        return real(page, gaz)

    monkeypatch.setattr(pipeline, "annotate", counting)
    rc = run_cli(command, str(fig1a_path), "--pages", "auto",
                 "--model", str(trained_model_path))
    assert rc == 0
    assert '"page": 0' in capsys.readouterr().out  # the page was flagged
    assert len(calls) == 1


# --- eval ---

def eval_lines(capsys):
    out = capsys.readouterr().out.splitlines()
    return json.loads(out[0]), out[1:]


def test_eval_classifier_perfect(fig1a_gold_path, tmp_path, capsys):
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"pages": [{"page": 0, "label": 1}]}))
    rc = run_cli("eval", "--stage", "classifier",
                 "--pred", str(pred), "--gold", str(fig1a_gold_path))
    assert rc == 0
    report, table = eval_lines(capsys)
    assert report["stage"] == "classifier"
    assert report["overall"]["f1"] == 1.0
    assert any(line.startswith("overall") for line in table)


def test_eval_segmentation_perfect(fig1a_path, fig1a_gold_path, tmp_path, capsys):
    pred = tmp_path / "seg.json"
    assert run_cli("segment", str(fig1a_path), "--pages", "0", "--out", str(pred)) == 0
    rc = run_cli("eval", "--stage", "segmentation",
                 "--pred", str(pred), "--gold", str(fig1a_gold_path))
    assert rc == 0
    report, _ = eval_lines(capsys)
    assert report["overall"]["f1"] == 1.0
    assert report["pages"]["0"]["tp"] == 14  # page furniture does not count


def test_eval_tree_perfect(fig1a_path, fig1a_gold_path, tmp_path, capsys):
    pred = tmp_path / "tree.json"
    assert run_cli("tree", str(fig1a_path), "--pages", "0", "--out", str(pred)) == 0
    rc = run_cli("eval", "--stage", "tree", "--doc", str(fig1a_path),
                 "--pred", str(pred), "--gold", str(fig1a_gold_path))
    assert rc == 0
    report, table = eval_lines(capsys)
    for name in ("blocks", "parents", "aligned_nodes"):
        assert report[name]["f1"] == 1.0
    assert any(line.startswith("aligned_nodes") for line in table)


def test_eval_tree_requires_doc(fig1a_gold_path, tmp_path, capsys):
    pred = tmp_path / "tree.json"
    pred.write_text(json.dumps({"pages": []}))
    rc = run_cli("eval", "--stage", "tree",
                 "--pred", str(pred), "--gold", str(fig1a_gold_path))
    assert rc == 1
    assert "--doc" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, reason", [
    ("parent", 999, "a Neither span's parent must be null"),
    ("parent", 14, "a Neither span's parent must be null"),
    ("group", 999, "no group 999"),
    ("end", 10_000, "offsets outside group text"),
])
def test_eval_tree_checks_neither_gold_spans(key, value, reason, fig1a_gold, tmp_path, capsys):
    # Span 14 of the fig1a gold is Neither: left out of the gold tree, but
    # checked like every other span.
    assert fig1a_gold["pages"][0]["spans"][14]["label"] == "Neither"
    gold, pred = tmp_path / "gold.json", tmp_path / "pred.json"
    gold.write_text(json.dumps(_with(fig1a_gold, ("pages", 0, "spans", 14, key), value)))
    pred.write_text(json.dumps(_PREDICTED))
    rc = run_cli("eval", "--stage", "tree", "--doc", FIG1A, "--pred", str(pred), "--gold", str(gold))
    assert (rc, capsys.readouterr().err) == (1, f"error: gold page 0 span 14: {reason}\n")


def test_eval_page_set_mismatch(fig1a_gold_path, tmp_path, capsys):
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"pages": [{"page": 0, "label": 1},
                                          {"page": 7, "label": 0}]}))
    rc = run_cli("eval", "--stage", "classifier",
                 "--pred", str(pred), "--gold", str(fig1a_gold_path))
    assert rc == 1
    assert "extra=[7]" in capsys.readouterr().err


def test_eval_rejects_malformed_pred(fig1a_gold_path, tmp_path, capsys):
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"pages": 3}))
    rc = run_cli("eval", "--stage", "classifier",
                 "--pred", str(pred), "--gold", str(fig1a_gold_path))
    assert rc == 1
    assert capsys.readouterr().err == f"error: {pred}: $.pages: expected array, got int\n"


def test_eval_segmentation_per_page(fig1a_path, fig1a_gold, tmp_path, capsys):
    seg = tmp_path / "seg.json"
    assert run_cli("segment", str(fig1a_path), "--pages", "0", "--out", str(seg)) == 0
    page0 = json.loads(seg.read_text())["pages"][0]
    labeled = [s for s in page0["spans"] if s["label"] != "Neither"]
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"pages": [page0, dict(page0, page=1, spans=labeled[1:])]}))
    gold_page = fig1a_gold["pages"][0]
    gold = tmp_path / "gold.json"
    gold.write_text(json.dumps({"pages": [gold_page, dict(gold_page, page=1)]}))
    rc = run_cli("eval", "--stage", "segmentation", "--pred", str(pred), "--gold", str(gold))
    assert rc == 0
    report, _ = eval_lines(capsys)
    assert report["pages"]["0"]["f1"] == 1.0
    assert [report["pages"]["1"][k] for k in ("tp", "fp", "fn")] == [13, 0, 1]
    assert [report["overall"][k] for k in ("tp", "fp", "fn")] == [27, 0, 1]


def test_eval_rejects_malformed_gold_span(tmp_path, capsys):
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"pages": [{"page": 0, "spans": []}]}))
    gold = tmp_path / "gold.json"
    gold.write_text(json.dumps({"pages": [{"page": 0, "spans": [1]}]}))
    rc = run_cli("eval", "--stage", "segmentation", "--pred", str(pred), "--gold", str(gold))
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: gold: $.pages[0].spans[0]: expected object, got int\n"


@pytest.mark.parametrize(
    "page, label, gold_page, reason",
    [(0, 7, 0, "$.pages[0].label: must be 0 or 1, got 7"),
     (True, 1, 1, "$.pages[0].page: expected integer, got bool"),
     (0.7, 1, 0, "$.pages[0].page: expected integer, got float")],
    ids=["label_7", "page_true", "page_fraction"],
)
def test_eval_classifier_rejects_malformed_pred(page, label, gold_page, reason, tmp_path, capsys):
    # Each prediction would read as a gold page if coerced with int().
    pred, gold = tmp_path / "pred.json", tmp_path / "gold.json"
    pred.write_text(json.dumps({"pages": [{"page": page, "label": label}]}))
    gold.write_text(json.dumps({"pages": [{"page": gold_page, "is_directory": True}]}))
    rc = run_cli("eval", "--stage", "classifier", "--pred", str(pred), "--gold", str(gold))
    assert rc == 1
    assert capsys.readouterr().err == f"error: {pred}: {reason}\n"


@pytest.mark.parametrize("key, value", [("group", 0.9), ("start", "0")])
def test_eval_segmentation_rejects_non_integer_span_field(
    key, value, fig1a_path, fig1a_gold_path, tmp_path, capsys
):
    pred = tmp_path / "seg.json"
    assert run_cli("segment", str(fig1a_path), "--pages", "0", "--out", str(pred)) == 0
    seg = json.loads(pred.read_text())
    seg["pages"][0]["spans"][0][key] = value
    pred.write_text(json.dumps(seg))
    rc = run_cli("eval", "--stage", "segmentation",
                 "--pred", str(pred), "--gold", str(fig1a_gold_path))
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {pred}: $.pages[0].spans[0].{key}: "
                                       f"expected integer, got {type(value).__name__}\n")


@pytest.mark.parametrize("where", ["gold", "pred"])
@pytest.mark.parametrize("label", ["Bogus", ["Body"], None])
def test_eval_bad_span_label_names_its_record(where, label, fig1a_gold, tmp_path, capsys):
    gold_page = copy.deepcopy(fig1a_gold["pages"][0])
    pred_page = {"page": 0, "spans": copy.deepcopy(gold_page["spans"])}
    (gold_page if where == "gold" else pred_page)["spans"][2]["label"] = label
    pred, gold = tmp_path / "pred.json", tmp_path / "gold.json"
    pred.write_text(json.dumps({"pages": [pred_page]}))
    gold.write_text(json.dumps({"pages": [gold_page]}))
    rc = run_cli("eval", "--stage", "segmentation", "--pred", str(pred), "--gold", str(gold))
    assert rc == 1
    (line,) = capsys.readouterr().err.splitlines()
    root = "gold" if where == "gold" else pred
    reason = ("expected one of Header, Body, Neither, got 'Bogus'" if label == "Bogus"
              else f"expected string, got {type(label).__name__}")
    assert line == f"error: {root}: $.pages[0].spans[2].label: {reason}"


def _eval_prediction(stage, kind, fig1a_path, capsys):
    """A perfect prediction for the fig1a gold, or one with a single fault:
    a flipped page label, a span start shifted by one, or body 5 moved from
    header 3 to header 2 (header 3, left childless, then hangs off the root)."""
    if stage == "classifier":
        return {"pages": [{"page": 0, "label": 1 if kind == "perfect" else 0}]}
    command = "segment" if stage == "segmentation" else "tree"
    assert run_cli(command, str(fig1a_path), "--pages", "0") == 0
    pred = json.loads(capsys.readouterr().out)
    if kind == "perfect":
        return pred
    if stage == "segmentation":
        pred["pages"][0]["spans"][3]["start"] += 1
        return pred
    nodes = {n["id"]: n for n in pred["pages"][0]["tree"]["nodes"]}
    nodes[5]["parent"], nodes[2]["children"] = 2, [4, 5]
    nodes[3]["parent"], nodes[3]["children"] = 0, []
    nodes[1]["children"].remove(3)
    nodes[0]["children"] = [1, 3]
    return pred


# SHA-256 of the stdout of ``eval`` on the fig1a gold, computed while the
# eval logic still lived in the CLI.
EVAL_PINNED = {
    ("classifier", "perfect"):
        "a886c29c5e0ddfad483d25e824f29f536602669875dfc84bcb1177ba7fef0f1a",
    ("classifier", "imperfect"):
        "225a5cb617d9fd4984d45140094157a16f1311fc77d0292d177a5adbe554b43e",
    ("segmentation", "perfect"):
        "ed8dab5d373ac252555802cfc9ef65d5a045a3ad78ba945b9f69bf1c97878dc8",
    ("segmentation", "imperfect"):
        "2a3b71d7651b8a2ff5395cc9aa28da7b848f01b359962078dbcb5ed356577d29",
    ("tree", "perfect"):
        "cbd2744d0268a28437619b4d43d0ab074c49fd343b2975128692d829e190f0e6",
    ("tree", "imperfect"):
        "1e15f63158512747b07a9058a4a422c695c45dd1b6c743de13557d9b99907cf0",
}


@pytest.mark.parametrize("stage, kind", list(EVAL_PINNED))
def test_eval_bytes_pinned(stage, kind, fig1a_path, fig1a_gold_path, tmp_path, capsys):
    prediction = _eval_prediction(stage, kind, fig1a_path, capsys)
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(prediction))
    rc = run_cli("eval", "--stage", stage, "--doc", str(fig1a_path),
                 "--pred", str(pred), "--gold", str(fig1a_gold_path))
    assert rc == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EVAL_PINNED[(stage, kind)]
    # The report line is the library's report.
    doc = parse_document(fig1a_path.read_bytes())
    gold = json.loads(fig1a_gold_path.read_text())
    assert json.loads(out.splitlines()[0]) == evaluate(stage, prediction, gold, doc)


@pytest.mark.parametrize("kind", ["perfect", "imperfect"])
def test_eval_tree_gold_parents_may_point_forward(kind, fig1a_path, fig1a_gold_path, tmp_path,
                                                  capsys):
    # The fig1a gold spans in reverse order, so that every parent index
    # points to a later span: the gold tree's children lists, as written,
    # still come out ascending, and the report is the one the gold in
    # reading order gives.
    gold = json.loads(fig1a_gold_path.read_text())
    spans = gold["pages"][0]["spans"]
    last = len(spans) - 1
    gold["pages"][0]["spans"] = [
        dict(s, parent=None if s["parent"] is None else last - s["parent"])
        for s in reversed(spans)]
    assert any(s["parent"] is not None for s in gold["pages"][0]["spans"])
    assert all(s["parent"] is None or s["parent"] > i
               for i, s in enumerate(gold["pages"][0]["spans"]))
    tree = gold_tree_for_page(gold["pages"][0], parse_document(fig1a_path.read_bytes())[0])
    listed = [node["children"] for node in tree_to_json(tree)["nodes"]]
    assert all(children == sorted(children) for children in listed)
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(_eval_prediction("tree", kind, fig1a_path, capsys)))
    reversed_gold = tmp_path / "gold.json"
    reversed_gold.write_text(json.dumps(gold))
    rc = run_cli("eval", "--stage", "tree", "--doc", str(fig1a_path),
                 "--pred", str(pred), "--gold", str(reversed_gold))
    assert rc == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EVAL_PINNED[("tree", kind)]


def tree_json(*nodes):
    return {"nodes": [
        {"id": i, "label": label, "text": label.lower(), "parent": parent, "children": children}
        for i, label, parent, children in nodes
    ]}


def body_node_with(**fields):
    tree = tree_json((0, "Root", None, [1]), (1, "Body", 0, []))
    tree["nodes"][1].update(fields)
    return tree


@pytest.mark.parametrize(
    "tree, reason",
    [
        # Two headers parenting each other: walking up from the body never
        # reaches the root.
        (tree_json((0, "Root", None, []), (1, "Header", 2, [2]),
                   (2, "Header", 1, [1, 3]), (3, "Body", 2, [])),
         ": invalid tree: cycle involving node 1"),
        (tree_json((0, "Root", None, [1]), (1, "Body", 0, [7])),
         ": invalid tree: node 1 lists unknown child 7"),
        (body_node_with(text=5), ".nodes[1].text: expected string, got int"),
        (body_node_with(children=None), ".nodes[1].children: expected array, got NoneType"),
        (tree_json((0, "Root", None, [1]), (1, "Header", 0, [2]), (2, "Body", 1, []),
                   (2, "Body", 1, [])),
         ".nodes[3].id: node id 2 given twice"),
    ],
    ids=["cycle", "unknown_child", "text_not_string", "children_not_array", "duplicate_id"],
)
def test_eval_tree_rejects_invalid_pred(tree, reason, fig1a_path, fig1a_gold_path, tmp_path):
    pred = tmp_path / "tree.json"
    pred.write_text(json.dumps({"pages": [{"page": 0, "tree": tree}]}))
    # A child process, so that a hang fails the test instead of stalling it.
    proc = subprocess.run(
        [sys.executable, "-m", "dirtree", "eval", "--stage", "tree", "--doc", str(fig1a_path),
         "--pred", str(pred), "--gold", str(fig1a_gold_path)],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: {pred}: $.pages[0].tree{reason}\n"


# --- config file ---

def set_config(monkeypatch, tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    monkeypatch.setenv(cli.CONFIG_ENV, str(path))
    return path


def test_config_unknown_key(fig1a_path, tmp_path, monkeypatch, capsys):
    set_config(monkeypatch, tmp_path, {"bogus": 1})
    assert run_cli("validate", str(fig1a_path)) == 1
    assert capsys.readouterr().err == "error: config: $: unknown key 'bogus'\n"


def test_config_bad_threshold(fig1a_path, tmp_path, monkeypatch, capsys):
    # true is an int to Python and NaN fails no ordered comparison; neither
    # is a threshold.
    for threshold in (2, True, math.nan):
        set_config(monkeypatch, tmp_path, {"threshold": threshold})
        assert run_cli("validate", str(fig1a_path)) == 1
        assert "threshold" in capsys.readouterr().err


def test_config_missing_gazetteer(fig1a_path, tmp_path, monkeypatch, capsys):
    # A config path is read only by a command that needs the file, and its
    # fault is the read's own, named by the config key.
    missing = tmp_path / "nope.json"
    set_config(monkeypatch, tmp_path, {"gazetteer": str(missing)})
    assert run_cli("validate", str(fig1a_path)) == 0
    capsys.readouterr()
    assert run_cli("segment", str(fig1a_path)) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: config: $.gazetteer: [Errno 2] No such file or directory: '{missing}'"


def test_config_unreadable(fig1a_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CONFIG_ENV, str(tmp_path / "gone.json"))
    assert run_cli("validate", str(fig1a_path)) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["gazetteer", "model", "output_dir"])
@pytest.mark.parametrize("value", [["a"], True, 0], ids=["array", "true", "zero"])
def test_config_paths_must_be_strings(key, value, fig1a_path, tmp_path, monkeypatch, capsys):
    # true and 0 would pass os.path.exists as file descriptors, and 0 was
    # read as "no gazetteer given".
    set_config(monkeypatch, tmp_path, {key: value})
    assert run_cli("validate", str(fig1a_path)) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: config: $.{key}: expected string, got {type(value).__name__}"


def test_config_output_dir(fig1a_path, tmp_path, monkeypatch):
    outdir = tmp_path / "results"
    set_config(monkeypatch, tmp_path, {"output_dir": str(outdir)})
    assert run_cli("validate", str(fig1a_path), "--out", "report.json") == 0
    assert (outdir / "report.json").exists()


def test_config_gazetteer_and_flag_override(fig1a_path, tmp_path, monkeypatch, capsys):
    empty = tmp_path / "empty_gazetteer.json"
    empty.write_text(json.dumps({"roles": []}))
    roles = tmp_path / "roles.json"
    roles.write_text(json.dumps({"roles": ["Legal Counsel"]}))
    set_config(monkeypatch, tmp_path, {"gazetteer": str(empty)})

    assert run_cli("annotate", str(fig1a_path), "--pages", "0") == 0
    labels = {a["label"] for a in json.loads(capsys.readouterr().out)["pages"][0]["annotations"]}
    assert "ROLE" not in labels

    assert run_cli("annotate", str(fig1a_path), "--pages", "0",
                   "--gazetteer", str(roles)) == 0
    labels = {a["label"] for a in json.loads(capsys.readouterr().out)["pages"][0]["annotations"]}
    assert "ROLE" in labels


@pytest.mark.parametrize(
    "tree_params, message",
    [({"bogus": 1}, "bogus"), ({"gap_factor": "x"}, "gap_factor"),
     ({"align_tol": True}, "align_tol"), ({"size_cluster_tol": math.nan}, "size_cluster_tol")],
    ids=["unknown_key", "not_a_number", "boolean", "nan"],
)
def test_config_bad_tree_params(tree_params, message, fig1a_path, tmp_path, monkeypatch, capsys):
    set_config(monkeypatch, tmp_path, {"tree_params": tree_params})
    assert run_cli("validate", str(fig1a_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("name, value, message", BAD_TREE_PARAMS,
                         ids=[name for name, _, _ in BAD_TREE_PARAMS])
def test_bad_tree_param_from_config_or_flag(name, value, message, fig1a_path, tmp_path,
                                            monkeypatch, capsys):
    # The same check and message, from a config file (which names where the
    # value sits) or from a flag over a valid config.
    set_config(monkeypatch, tmp_path, {"tree_params": {name: value}})
    assert run_cli("blocks", str(fig1a_path), "--pages", "all") == 1
    assert capsys.readouterr().err == f"error: config: $.tree_params: {message}\n"
    set_config(monkeypatch, tmp_path, {"tree_params": {"align_tol": 4.0}})
    flag = "--" + name.replace("_", "-")
    assert run_cli("blocks", str(fig1a_path), "--pages", "all", flag, str(value)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_tree_param_flags_override_the_config(fig1a_path, tmp_path, monkeypatch):
    seen = []
    build_tree = pipeline.build_tree
    monkeypatch.setattr(pipeline, "build_tree", lambda spans, p: seen.append(p) or build_tree(spans, p))
    set_config(monkeypatch, tmp_path, {"tree_params": {"align_tol": 4.0, "gap_factor": 2.0}})
    assert run_cli("blocks", str(fig1a_path), "--pages", "all", "--gap-factor", "1.25") == 0
    assert seen == [TreeParams(align_tol=4.0, gap_factor=1.25)] and type(seen[0]) is TreeParams
