"""Run one ``dirtree`` command in this process, optionally traced.

    python3 bench/trace.py --spans FILE --trace 0|1 -- <dirtree arguments>

With ``--trace 1`` the public functions of each pipeline module are wrapped
at their module attributes before ``dirtree.cli`` is imported, so the CLI's
own imports and calls made inside ``build_tree`` go through the wrappers.
Spans (name, start, end, parent, size) are kept in memory and written to
FILE as JSON lines when the command ends, after one header line with the
import time, the ``cli.run`` wall time and its exit code.  With ``--trace 0``
nothing is wrapped and only the header line is written, which gives the
untraced wall time of the same in-process call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Recorder:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, size]
        self.stack = []
        self.counts = {}  # name -> [total]

    def span(self, name, fn, size=None, tally=None):
        """Wrap ``fn`` so each call records a span; ``size(args)`` is stored
        with it and ``tally(result)`` is added to the counter ``name``."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None,
                   size(args) if size else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if tally:
                self.counts.setdefault(name, [0])[0] += tally(result)
            return result

        return wrapper

    def count(self, name, fn):
        """Wrap ``fn`` so each call only bumps a counter (for per-pair
        predicates, where a span per call would cost more than the call)."""
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def lines(self):
        for name, start, end, parent, size in self.spans:
            yield {"name": name, "start": start, "end": end, "parent": parent, "size": size}
        yield {"counts": {k: v[0] for k, v in self.counts.items()}}


def _nodes(model) -> int:
    stack, n = list(model.trees), 0
    while stack:
        node = stack.pop()
        n += 1
        if hasattr(node, "left"):
            stack += (node.left, node.right)
    return n


def install(rec: Recorder) -> None:
    # The package re-exports functions under module names (dirtree.annotate
    # is a function there), so take the modules themselves.
    annotate, features, forest, segment, tree, visual = (
        sys.modules[f"dirtree.{m}"]
        for m in ("annotate", "features", "forest", "segment", "tree", "visual"))
    first_len = lambda args: len(args[0])  # noqa: E731
    plan = [
        (visual, "parse_document", "visual.parse", None, None),
        (annotate, "annotate", "annotate", None, None),
        (features, "extract_features", "features", None, None),
        (features, "read_features_csv", "features.read_csv", None, None),
        (forest, "load_model", "forest.load", None, None),
        (forest, "predict_score", "forest.predict", None, None),
        (forest, "resample", "forest.resample", None, None),
        (forest, "train", "forest.train", None, _nodes),
        (segment, "segment_page", "segment", None, len),
        (tree, "build_tree", "tree.build", first_len, None),
        (tree, "reading_sequence", "tree.reading_sequence", first_len, None),
        (tree, "cluster_headers", "tree.cluster", None, None),
        (tree, "validate_tree", "tree.validate", None, None),
        (tree, "directory_blocks", "tree.blocks", None, None),
    ]
    for module, attr, name, size, tally in plan:
        setattr(module, attr, rec.span(name, getattr(module, attr), size, tally))
    for attr in ("default", "load"):
        fn = annotate.Gazetteer.__dict__[attr].__func__
        setattr(annotate.Gazetteer, attr, classmethod(rec.span("annotate.gazetteer", fn)))
    tree.can_parent = rec.count("tree.can_parent", tree.can_parent)
    tree.same_entry = rec.count("tree.same_entry", tree.same_entry)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spans", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    sys.path.insert(0, str(ROOT / "src"))
    t1 = time.perf_counter()
    import dirtree  # noqa: F401  (every pipeline module but the CLI)
    t2 = time.perf_counter()
    rec = None
    if args.trace:
        rec = Recorder()
        install(rec)
    t3 = time.perf_counter()
    import dirtree.cli
    t4 = time.perf_counter()
    run = dirtree.cli.run
    if rec:
        run = rec.span("cli.run", run)
    start = time.perf_counter()
    code = run(argv)
    end = time.perf_counter()
    head = {"import_ms": ((t2 - t1) + (t4 - t3)) * 1e3, "run_ms": (end - start) * 1e3,
            "exit": code}
    with open(args.spans, "w", encoding="utf-8") as f:
        f.write(json.dumps(head) + "\n")
        for line in rec.lines() if rec else ():
            f.write(json.dumps(line) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
