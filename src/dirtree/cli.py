"""Command-line interface.

Subcommands cover each pipeline stage (validate, annotate, features, train,
classify, segment, tree, blocks) plus an eval harness.  Exit codes: 0 on
success, 1 on any input or usage error, 2 when an internal invariant is
violated.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import NamedTuple

from . import EVAL_STAGES, forest, pipeline
from .annotate import AnnotationLabel, Gazetteer
from .features import read_features_csv, write_features_csv
from .jsonin import SchemaError, file_path, finite, json_path, load_json, nullable, obj, top
from .segment import spans_to_json
from .tree import TreeInvariantError, TreeParamError, TreeParams, blocks_to_json, tree_to_json
from .visual import parse_document

CONFIG_ENV = "DIRTREE_CONFIG"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2


class UsageError(ValueError):
    """Bad arguments; reported, like any input error, with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class PipelineConfig(NamedTuple):
    gazetteer: "str | None" = None
    model: "str | None" = None
    tree_params: TreeParams = TreeParams()
    threshold: float = 0.5
    output_dir: "str | None" = None

    @classmethod
    def from_json(cls, data) -> "PipelineConfig":
        where = ("config: $",)
        data = top(data, where, known=set(cls._fields))
        paths = {key: nullable(file_path, data, key, where, None)
                 for key in ("gazetteer", "model", "output_dir")}
        at = where + ("tree_params",)
        tp = obj(data, "tree_params", where, {}, known=set(TreeParams._fields))
        try:
            params = TreeParams(**{key: finite(tp, key, at) for key in tp})
        except TreeParamError as e:
            raise SchemaError(json_path(at), str(e)) from None
        threshold = finite(data, "threshold", where, 0.5)
        if not 0 <= threshold <= 1:
            raise SchemaError(json_path(where + ("threshold",)), "must be in [0, 1]")
        return cls(paths["gazetteer"], paths["model"], params, threshold, paths["output_dir"])

    @classmethod
    def from_environment(cls) -> "PipelineConfig":
        path = os.environ.get(CONFIG_ENV)
        if not path:
            return cls()
        try:
            data = load_json(path)
        except OSError as e:
            raise ValueError(f"cannot read {CONFIG_ENV} file: {e}") from e
        return cls.from_json(data)


# --- shared plumbing -------------------------------------------------------

def _read_doc(path: str, stream: bool = False):
    """The document's pages: a list, or with ``stream`` a generator that
    reads them one at a time."""
    with open(path, "rb") as f:
        return parse_document(f.read(), stream=stream)


def _setting(args, cfg, key: str):
    """The flag ``key`` when it was given, even empty, else ``cfg``'s value
    (``cfg`` is the config or its ``tree_params``)."""
    value = getattr(args, key, None)
    return getattr(cfg, key) if value is None else value


def _load(args, cfg: PipelineConfig, key: str, load):
    """``load`` of the file that the flag or config key ``key`` names, or
    None.  An OSError names where the path came from: ``--key`` or
    ``config: $.key``."""
    path = _setting(args, cfg, key)
    try:
        return None if path is None else load(path)
    except OSError as e:
        source = json_path(("config: $", key)) if getattr(args, key, None) is None else "--" + key
        raise OSError(f"{source}: {e}") from e


def _runs(args, cfg: PipelineConfig, skip_empty: bool = True, needs_model: bool = False):
    """Read the document and resolve the flags and config to page runs.

    --pages is "auto" (model required), "all" or a comma list of distinct
    page indexes; ``needs_model`` requires a model whatever it is.  Errors
    come in the order: document, gazetteer, model, threshold, page list,
    tree parameters; the runs then raise segmentation errors when read.
    """
    pages = _read_doc(args.doc, args.stream)
    gaz = _load(args, cfg, "gazetteer", Gazetteer.load) or Gazetteer.default()
    which = getattr(args, "pages", "all")
    model, threshold = None, cfg.threshold
    if which == "auto" or needs_model:
        model = _load(args, cfg, "model", forest.load_model)
        if model is None:
            raise UsageError("a model is required here; pass --model")
        threshold = _setting(args, cfg, "threshold")
        if not 0 <= threshold <= 1:
            raise UsageError("--threshold must be in [0, 1]")
    elif which != "all":
        try:
            which = [int(tok) for tok in which.split(",") if tok.strip() != ""]
        except ValueError:
            raise UsageError(f"--pages must be auto, all or a comma list: {args.pages!r}")
        if not which:
            raise UsageError("--pages list is empty")
        pipeline.check_indexes(which, len(pages))
    # Made anew from the merged values, so that a bad flag fails the checks.
    params = TreeParams(*[_setting(args, cfg.tree_params, k) for k in TreeParams._fields])
    return pipeline.page_runs(pages, gaz, which, model, threshold, params, skip_empty)


def _out_path(args, cfg: PipelineConfig, attr: str = "out") -> "str | None":
    path = getattr(args, attr, None)
    if path is None:
        return None
    if cfg.output_dir and not os.path.isabs(path):
        os.makedirs(cfg.output_dir, exist_ok=True)
        return os.path.join(cfg.output_dir, path)
    return path


def _emit(payload: dict, args, cfg: PipelineConfig) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    path = _out_path(args, cfg)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


# --- subcommands -----------------------------------------------------------

def _cmd_validate(args, cfg):
    pages = groups = 0
    for page in _read_doc(args.doc, args.stream):
        pages += 1
        groups += len(page.groups)
    _emit({"pages": pages, "groups": groups}, args, cfg)
    return EXIT_OK


def _cmd_annotate(args, cfg):
    out = [
        {
            "page": run.index,
            "annotations": [
                {"group": gi, "label": a.label.value, "start": a.start, "end": a.end,
                 "surface": a.surface}
                for gi, anns in enumerate(run.annotations)
                for a in anns.select(*AnnotationLabel)
            ],
        }
        for run in _runs(args, cfg, skip_empty=False)
    ]
    _emit({"pages": out}, args, cfg)
    return EXIT_OK


def _cmd_features(args, cfg):
    rows = [(run.features, None) for run in _runs(args, cfg, skip_empty=False)]
    path = _out_path(args, cfg, attr="csv")
    if path is None:
        write_features_csv(sys.stdout, rows)
    else:
        with open(path, "w", newline="") as f:
            write_features_csv(f, rows)
    return EXIT_OK


def _cmd_train(args, cfg):
    with open(args.csv, newline="") as f:
        rows = read_features_csv(f)
    if not rows:
        raise ValueError(f"no labeled rows in {args.csv}")
    data = forest.Dataset([(tuple(x), y) for x, y in rows])
    balanced = forest.resample(data, args.pos, args.neg, args.seed)
    hp = forest.ForestHyperparams(
        n_trees=args.trees,
        max_depth=args.depth,
        max_features_fraction=args.max_features,
        min_samples_leaf=args.min_leaf,
        seed=args.seed,
    )
    model = forest.train(balanced, hp)
    out = _out_path(args, cfg)
    forest.save_model(model, out)
    print(json.dumps({
        "rows": len(balanced.rows),
        "trees": hp.n_trees,
        "model": out,
        "importances": dict(zip(model.feature_order, model.importances)),
    }))
    return EXIT_OK


def _cmd_classify(args, cfg):
    out = [
        {"page": run.index, "score": run.score, "label": run.label}
        for run in _runs(args, cfg, skip_empty=False, needs_model=True)
    ]
    _emit({"pages": out}, args, cfg)
    return EXIT_OK


def _cmd_segment(args, cfg):
    out = [spans_to_json(run.index, run.spans) for run in _runs(args, cfg)]
    _emit({"pages": out}, args, cfg)
    return EXIT_OK


def _cmd_tree(args, cfg):
    out = [{"page": run.index, "tree": tree_to_json(run.tree)} for run in _runs(args, cfg)]
    _emit({"pages": out}, args, cfg)
    return EXIT_OK


def _cmd_blocks(args, cfg):
    out = [
        block
        for run in _runs(args, cfg)
        for block in blocks_to_json(run.blocks, page_index=run.index)
    ]
    _emit({"blocks": out}, args, cfg)
    return EXIT_OK


# --- eval ------------------------------------------------------------------

def _report_table(report: dict) -> "list[str]":
    rows = [(k, v) for k, v in report.items() if isinstance(v, dict) and "precision" in v]
    lines = [f"{'metric':<14} {'P':>7} {'R':>7} {'F1':>7} {'tp':>5} {'fp':>5} {'fn':>5}"]
    for name, v in rows:
        lines.append(
            f"{name:<14} {v['precision']:>7.3f} {v['recall']:>7.3f} "
            f"{v['f1']:>7.3f} {v['tp']:>5} {v['fp']:>5} {v['fn']:>5}"
        )
    return lines


def _cmd_eval(args, cfg):
    from .metrics import evaluate

    if args.stage == "tree" and not args.doc:
        raise UsageError("--doc is required for --stage tree (gold texts live there)")
    pred, gold = load_json(args.pred), load_json(args.gold)
    doc = _read_doc(args.doc) if args.stage == "tree" else None
    report = evaluate(args.stage, pred, gold, doc, name=args.pred)
    # Line 1 is the machine-readable report; the table below it is for eyes.
    print(json.dumps(report, sort_keys=True))
    print("\n".join(_report_table(report)))
    return EXIT_OK


# --- parser ----------------------------------------------------------------

def _add_doc(p):
    p.add_argument("doc", help="visual-model document JSON")
    p.set_defaults(stream=True)


def _add_gazetteer(p):
    p.add_argument("--gazetteer", help="gazetteer JSON (default: packaged)")


def _add_pages(p, default):
    p.add_argument(
        "--pages",
        default=default,
        help=f"auto, all, or comma list of distinct page indexes (default: {default})",
    )


def _add_model(p):
    p.add_argument("--model", help="trained classifier model JSON")
    p.add_argument("--threshold", type=float, help="positive-class threshold")


def _add_tree_params(p):
    for name in TreeParams._fields:
        p.add_argument("--" + name.replace("_", "-"), type=float, dest=name)


def _add_out(p):
    p.add_argument("--out", help="write output JSON here instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="dirtree", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = sub.add_parser("validate", help="check a document file")
    _add_doc(p)
    _add_out(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("annotate", help="entity annotations per page")
    _add_doc(p)
    _add_gazetteer(p)
    _add_pages(p, "all")
    _add_model(p)
    _add_out(p)
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("features", help="per-page feature CSV")
    _add_doc(p)
    _add_gazetteer(p)
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("train", help="train the page classifier")
    p.add_argument("--csv", required=True, help="labeled feature CSV")
    p.add_argument("--pos", required=True, type=int, help="resampled positive count")
    p.add_argument("--neg", required=True, type=int, help="resampled negative count")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--trees", type=int, default=20)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--max-features", type=float, default=0.8, dest="max_features")
    p.add_argument("--min-leaf", type=int, default=2, dest="min_leaf")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("classify", help="score pages with a model")
    _add_doc(p)
    _add_gazetteer(p)
    _add_model(p)
    _add_out(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("segment", help="label spans on pages")
    _add_doc(p)
    _add_gazetteer(p)
    _add_pages(p, "all")
    _add_model(p)
    _add_out(p)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("tree", help="build reading trees")
    _add_doc(p)
    _add_gazetteer(p)
    _add_pages(p, "all")
    _add_model(p)
    _add_tree_params(p)
    _add_out(p)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("blocks", help="end-to-end directory blocks")
    _add_doc(p)
    _add_gazetteer(p)
    _add_pages(p, "auto")
    _add_model(p)
    _add_tree_params(p)
    _add_out(p)
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("eval", help="score predictions against gold")
    p.add_argument("--pred", required=True, help="prediction JSON from this tool")
    p.add_argument("--gold", required=True, help="gold JSON")
    p.add_argument("--stage", required=True, choices=EVAL_STAGES)
    p.add_argument("--doc", help="source document (required for --stage tree)")
    p.set_defaults(func=_cmd_eval)

    return parser


def run(argv: "list[str] | None" = None) -> int:
    """Run one command; its exit code.  The cyclic garbage collector is
    paused for the command, and its earlier state restored: what a command
    builds stays alive until it returns, so a collection during it would
    walk those objects and free next to nothing."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run(argv: "list[str] | None") -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except SystemExit as e:  # --help
        return EXIT_OK if e.code in (0, None) else EXIT_INPUT
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_INPUT
    try:
        cfg = PipelineConfig.from_environment()
        # Read whole, a document is checked before anything else and before
        # any page runs, so its first fault is reported ahead of a bad flag
        # or file and of a later page's error.  A command that read every
        # page one at a time and failed runs again on the whole document,
        # which reports the error it always reported; output is written
        # only at the end of a run that succeeds, so the failed run shows
        # nothing.  (Run here, not in a helper, so that the whole-document
        # decode has the stack depth it always had.)
        args.stream = (getattr(args, "stream", False)
                       and getattr(args, "pages", "all") in ("all", "auto"))
        if args.stream:
            try:
                return args.func(args, cfg)
            except Exception:  # whatever it was, the run on the whole document reports it
                args.stream = False
        return args.func(args, cfg)
    except TreeInvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())
