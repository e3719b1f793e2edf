"""dirtree benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (closed loop, one ``dirtree`` process at a time):

  prospectus       dirtree blocks on a 200-page document, 1 page in 20 a
                   shifted fig1a directory page, the rest narrative prose
  dense_directory  dirtree blocks on grid directory pages of 15..901 spans
  train            dirtree train on overlapping-class feature rows

Set-up (untimed) writes the seeded inputs, trains the page classifier the
two ``blocks`` workloads use, runs the command once to warm the caches and
self-tests the output checks: each check must reject a corrupted copy of
that output.  Then, for ``--seconds``, the loop runs rounds: each round runs
the command twice on the same input, checks both outputs (one operation per
page or per tree) and checks they are byte-identical (one more operation).

With ``--trace 0`` each command is a fresh ``python3 -m dirtree`` process
and the end-to-end metrics are reported.  Their times are scaled to a fixed
machine speed (see ``Clock``), because the speed of a shared host drifts by
up to 2x over minutes.  With ``--trace 1`` each round
runs the command once traced and once untraced through ``bench/trace.py``
and the per-module metrics are reported.  The last stdout line is one JSON
object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import oracle  # noqa: E402

ROOT = gen.ROOT
WORK = ROOT / ".bench_work"
TRACE = Path(__file__).resolve().parent / "trace.py"

# The classifier's training corpus is drawn with a seed apart from the
# timed documents'.
CORPUS_SEED_OFFSET = 1_000_003
SETUP_PROBES = 9
# A command normally takes a few seconds; one that hangs is killed after
# this long and counted as failed, which keeps a run under three minutes.
CHILD_LIMIT_S = 40.0

# The reference task (see ``reference``) takes about REF_S seconds, and a
# fresh interpreter running REF_START about REF_START_S seconds, on the
# 2-vCPU VM the reference figures in README.md come from.
REF_LOOP = 1_000_000
REF_TABLE = [[(i * 7919 + j * 104729) % 1000 / 10.0 for j in range(8)] + [i % 3 == 0]
             for i in range(400)]
REF_S = 0.19
# The standard-library modules dirtree imports.
REF_START = "import argparse, csv, dataclasses, enum, io, json, math, random, re, statistics"
REF_START_S = 0.085

# Training arguments of the train workload (CLI defaults for the rest).
TRAIN_TREES = 20
TRAIN_MIN_LEAF = 2
TRAIN_MAX_FEATURES = 0.8

CURVE = (15, 225, 450, 900)
PER_LAYER_UNITS = {
    "visual.parse_ms": "ms",
    "annotate.ms": "ms",
    "annotate.calls_per_page": "calls/page",
    "annotate.gazetteer_ms": "ms",
    "features.ms": "ms",
    "features.read_csv_ms": "ms",
    "forest.load_ms": "ms",
    "forest.predict_ms": "ms",
    "forest.resample_ms": "ms",
    "forest.train_ms": "ms",
    "forest.nodes": "count",
    "segment.ms": "ms",
    "segment.spans": "count",
    "tree.reading_sequence_ms": "ms",
    "tree.cluster_ms": "ms",
    "tree.build_self_ms": "ms",
    "tree.validate_ms": "ms",
    "tree.blocks_ms": "ms",
    "tree.can_parent_calls": "count",
    "tree.same_entry_calls": "count",
    **{f"tree.build_ms.n{n}": "ms" for n in CURVE},
    **{f"tree.reading_sequence_ms.n{n}": "ms" for n in CURVE},
    "cli.import_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_ms": "ms",
}
# Span name -> metric holding its total time per command.
SPAN_TOTALS = {
    "visual.parse": "visual.parse_ms",
    "annotate": "annotate.ms",
    "annotate.gazetteer": "annotate.gazetteer_ms",
    "features": "features.ms",
    "features.read_csv": "features.read_csv_ms",
    "forest.load": "forest.load_ms",
    "forest.predict": "forest.predict_ms",
    "forest.resample": "forest.resample_ms",
    "forest.train": "forest.train_ms",
    "segment": "segment.ms",
    "tree.reading_sequence": "tree.reading_sequence_ms",
    "tree.cluster": "tree.cluster_ms",
    "tree.validate": "tree.validate_ms",
    "tree.blocks": "tree.blocks_ms",
}
COUNTERS = {
    "forest.train": "forest.nodes",
    "segment": "segment.spans",
    "tree.can_parent": "tree.can_parent_calls",
    "tree.same_entry": "tree.same_entry_calls",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DIRTREE_CONFIG"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd, err_path) -> tuple:
    """Run ``cmd`` to completion: (exit code, wall seconds, peak RSS in MiB).

    The process is reaped with wait4 so its own peak RSS is read; a timer
    kills it if it outlives CHILD_LIMIT_S."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def reference() -> float:
    """Seconds a fixed pure-Python task takes now: REF_LOOP float additions,
    then a threshold search over REF_TABLE (sets, sorting, list indexing)."""
    start = time.perf_counter()
    x = 0.0
    for k in range(REF_LOOP):
        x += k * 0.5
    for f in range(8):
        for threshold in sorted({row[f] for row in REF_TABLE})[::2]:
            sides = [[0, 0], [0, 0]]
            for row in REF_TABLE:
                sides[row[f] > threshold][row[-1]] += 1
    return time.perf_counter() - start


def start_reference(work: Path) -> float:
    """Seconds a fresh interpreter takes to start and run REF_START now."""
    code, wall, _ = spawn([sys.executable, "-c", REF_START], work / "probe.err")
    if code != 0:
        raise SystemExit("reference process failed:\n"
                         + (work / "probe.err").read_text(errors="replace"))
    return wall


class Clock:
    """Wall times scaled to a fixed machine speed.

    A reference runs before and after every timed process, and the
    process's wall time is multiplied by ``nominal`` over the mean of the
    two reference times, so a time reads as it would where the reference
    takes ``nominal`` seconds.  Each reference does work like the process
    it scales: the in-process task for CLI commands, which are mostly
    Python computation, and a fresh interpreter importing standard modules
    for set-up probes, which are mostly start-up and imports.  When the
    host slows, both slow alike and the ratio stays; a change to the
    program moves only the process's time."""

    def __init__(self, reference, nominal: float):
        self.reference, self.nominal = reference, nominal
        self.last = reference()

    def scaled(self, wall: float) -> float:
        now = self.reference()
        wall *= 2 * self.nominal / (self.last + now)
        self.last = now
        return wall


def dirtree(work: Path, argv) -> None:
    """Run a set-up step through the CLI; stop the benchmark if it fails."""
    code, _, _ = spawn([sys.executable, "-m", "dirtree", *argv], work / "setup.err")
    if code != 0:
        raise SystemExit(f"set-up step failed: dirtree {' '.join(argv)}\n"
                         + (work / "setup.err").read_text(errors="replace"))


def train_classifier(work: Path, seed: int) -> Path:
    """Train the page classifier on features of a labelled corpus."""
    doc, labels = gen.labelled_corpus(seed + CORPUS_SEED_OFFSET)
    gen.write_json(work / "corpus.json", doc)
    dirtree(work, ["features", str(work / "corpus.json"), "--csv", str(work / "corpus.csv")])
    lines = (work / "corpus.csv").read_text(encoding="utf-8").splitlines()
    body = [row[: row.rindex(",") + 1] + str(y) for row, y in zip(lines[1:], labels)]
    (work / "labelled.csv").write_text("\n".join(lines[:1] + body) + "\n", encoding="utf-8")
    model = work / "classifier.json"
    dirtree(work, ["train", "--csv", str(work / "labelled.csv"), "--pos", str(sum(labels)),
                   "--neg", str(len(labels) - sum(labels)), "--seed", str(seed), "--out", str(model)])
    return model


# --- workloads -------------------------------------------------------------

class Workload:
    """Inputs, command and output checks of one workload."""

    item = "item"
    probe = "import dirtree.cli"
    probe_args = ()
    ops = 0     # checked operations per command output
    items = 0   # pages, spans or rows one command processes
    pages = 0   # pages in the input document

    def argv(self, out: Path) -> list:
        raise NotImplementedError

    def check(self, data: bytes) -> list:
        raise NotImplementedError

    def corruptions(self, data: bytes) -> dict:
        raise NotImplementedError


class Blocks(Workload):
    """``dirtree blocks DOC --model M`` with one expected block list per page."""

    probe = ("import sys, dirtree.cli\n"
             "from dirtree import forest\n"
             "from dirtree.annotate import Gazetteer\n"
             "Gazetteer.default()\n"
             "forest.load_model(sys.argv[1])\n")

    def __init__(self, work: Path, seed: int, doc, expected):
        self.doc = work / "doc.json"
        gen.write_json(self.doc, doc)
        self.expected = expected
        self.ops = self.pages = len(expected)
        self.model = train_classifier(work, seed)
        self.probe_args = (str(self.model),)

    def argv(self, out):
        return ["blocks", str(self.doc), "--model", str(self.model), "--out", str(out)]

    def check(self, data):
        return oracle.check_blocks(oracle.parse_blocks(data, len(self.expected)), self.expected)

    def corruptions(self, data):
        obj = json.loads(data)
        blocks = obj["blocks"]
        dropped = dict(obj, blocks=blocks[1:])
        i, j = next((i, j) for i in range(len(blocks)) for j in range(i + 1, len(blocks))
                    if blocks[i]["headers"] != blocks[j]["headers"])
        swapped = [dict(b) for b in blocks]
        swapped[i]["headers"], swapped[j]["headers"] = blocks[j]["headers"], blocks[i]["headers"]
        out = {"dropped block": dropped, "swapped header": dict(obj, blocks=swapped)}
        return {k: json.dumps(v).encode() for k, v in out.items()}


class Prospectus(Blocks):
    item = "page"

    def __init__(self, work, seed):
        doc, planted = gen.prospectus(seed)
        super().__init__(work, seed, doc, [planted.get(i, []) for i in range(len(doc["pages"]))])
        self.items = len(self.expected)

    def corruptions(self, data):
        out = super().corruptions(data)
        obj = json.loads(data)
        narrative = self.expected.index([])
        planted = next(i for i, e in enumerate(self.expected) if e)
        extra = [dict(b, page=narrative) for b in obj["blocks"] if b["page"] == planted]
        out["narrative page flagged"] = json.dumps(dict(obj, blocks=obj["blocks"] + extra)).encode()
        return out


class DenseDirectory(Blocks):
    item = "span"

    def __init__(self, work, seed):
        doc, expected = gen.dense_directory(seed)
        super().__init__(work, seed, doc, expected)
        # Every span of a grid page is labelled Header or Body: the title,
        # and a header and a body per cell.
        self.items = sum(1 + 2 * len(e) for e in expected)


class Train(Workload):
    item = "row"

    def __init__(self, work, seed):
        self.rows = gen.training_rows(seed)
        self.csv = work / "rows.csv"
        gen.write_rows(self.csv, self.rows)
        self.seed = seed
        self.ops = TRAIN_TREES
        self.items = gen.TRAIN_POS + gen.TRAIN_NEG

    def argv(self, out):
        return ["train", "--csv", str(self.csv), "--pos", str(gen.TRAIN_POS),
                "--neg", str(gen.TRAIN_NEG), "--seed", str(self.seed), "--out", str(out)]

    def check(self, data):
        return oracle.check_forest(data, self.rows, gen.TRAIN_POS, gen.TRAIN_NEG, self.seed,
                                   TRAIN_TREES, TRAIN_MIN_LEAF, TRAIN_MAX_FEATURES)

    def corruptions(self, data):
        """Tree 0's root moved to its admissible split of highest Gini."""
        model = json.loads(data)
        root = model["trees"][0]
        balanced = oracle.resample(self.rows, gen.TRAIN_POS, gen.TRAIN_NEG, self.seed)
        sample, features = oracle.bootstrap(balanced, self.seed, 0, TRAIN_MAX_FEATURES)
        cands = oracle.root_candidates(sample, features, TRAIN_MIN_LEAF)
        root["feature"], root["threshold"] = min(cands, key=cands.get)
        return {"non-minimal root split": json.dumps(model).encode()}


WORKLOADS = {"prospectus": Prospectus, "dense_directory": DenseDirectory, "train": Train}


# --- runs ------------------------------------------------------------------

class Tally:
    """Operations attempted and failed; outputs are checked once per digest."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.cache = {}
        self.attempted = self.failed = self.wrong = 0

    def round(self, outputs) -> None:
        """Two commands' outputs (None when the command failed): one
        operation per page or tree of each, plus one for their byte
        equality.  ``wrong`` counts the failures that are wrong output
        rather than a failed command."""
        for data in outputs:
            self.attempted += self.workload.ops
            if data is None:
                self.failed += self.workload.ops
                continue
            key = hashlib.sha256(data).hexdigest()
            if key not in self.cache:
                self.cache[key] = self.workload.check(data).count(False)
            self.failed += self.cache[key]
            self.wrong += self.cache[key]
        self.attempted += 1
        if None in outputs:
            self.failed += 1
        elif outputs[0] != outputs[1]:
            self.failed += 1
            self.wrong += 1


def read_output(code: int, path: Path):
    if code != 0 or not path.exists():
        return None
    data = path.read_bytes()
    path.unlink()
    return data


def self_test(workload: Workload, data: bytes) -> None:
    """Each check must pass the real output and reject every corruption."""
    if not all(workload.check(data)):
        return  # the program is wrong: the loop counts it
    for name, bad in workload.corruptions(data).items():
        if all(workload.check(bad)):
            raise SystemExit(f"self-test failed: the check accepts a {name}")


def warm_up(workload, work: Path):
    """Run the command once untimed (fills the bytecode and file caches),
    self-test the checks on its output and return that output."""
    out = work / "out.json"
    code, _, _ = spawn([sys.executable, "-m", "dirtree", *workload.argv(out)], work / "cli.err")
    data = read_output(code, out)
    if data is not None:
        self_test(workload, data)
    return data


def measure(workload, work: Path, seconds: float) -> tuple:
    warm = warm_up(workload, work)
    cmd = [sys.executable, "-m", "dirtree"]
    out = work / "out.json"
    start_clock = Clock(lambda: start_reference(work), REF_START_S)
    probes, raw_probes = [], []
    for _ in range(SETUP_PROBES):
        code, wall, _ = spawn([sys.executable, "-c", workload.probe, *workload.probe_args],
                              work / "probe.err")
        if code != 0:
            raise SystemExit("set-up probe failed:\n"
                             + (work / "probe.err").read_text(errors="replace"))
        raw_probes.append(wall)
        probes.append(start_clock.scaled(wall))
    clock = Clock(reference, REF_S)
    tally = Tally(workload)
    walls, raw_walls, rss = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        outputs = []
        for _ in range(2):
            code, wall, peak = spawn(cmd + workload.argv(out), work / "cli.err")
            raw_walls.append(wall)
            walls.append(clock.scaled(wall))
            rss.append(peak)
            outputs.append(read_output(code, out))
        tally.round(outputs)
        if time.perf_counter() >= deadline:
            break
    wall, raw = statistics.median(walls), statistics.median(raw_walls)
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "items_per_s": (workload.items / wall, "items/s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
    }
    notes = {f"{workload.item}s_per_s": f"{workload.items / wall:.6g} {workload.item}s/s",
             f"unscaled {workload.item}s_per_s": f"{workload.items / raw:.6g} {workload.item}s/s",
             "unscaled setup_s": f"{statistics.median(raw_probes):.6g} s",
             "commands": len(walls), "output_sha256": hashlib.sha256(warm or b"").hexdigest()}
    return tally, metrics, notes


def layer_metrics(lines: list, pages: int) -> dict:
    """Per-module metrics of one traced command from its span lines."""
    head, spans, counts = lines[0], lines[1:-1], lines[-1]["counts"]
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    child_ms = [0.0] * len(spans)
    curves = {}
    for s in spans:
        ms = (s["end"] - s["start"]) * 1e3
        if s["parent"] is not None:
            child_ms[s["parent"]] += ms
        if s["name"] in SPAN_TOTALS:
            m[SPAN_TOTALS[s["name"]]] += ms
        if s["name"] in ("tree.build", "tree.reading_sequence"):
            n = min(CURVE, key=lambda c: abs(c - s["size"]))
            if abs(n - s["size"]) <= 0.1 * n:
                metric = "tree.build_ms" if s["name"] == "tree.build" else "tree.reading_sequence_ms"
                curves.setdefault(f"{metric}.n{n}", []).append(ms)
    for s, kids in zip(spans, child_ms):
        ms = (s["end"] - s["start"]) * 1e3
        if s["name"] == "tree.build":
            m["tree.build_self_ms"] += ms - kids
        elif s["name"] == "cli.run":
            m["cli.self_ms"] += ms - kids
    for name, values in curves.items():
        m[name] = statistics.median(values)
    for name, metric in COUNTERS.items():
        m[metric] = float(counts.get(name, 0))
    m["annotate.calls_per_page"] = (
        sum(1 for s in spans if s["name"] == "annotate") / pages if pages else 0.0)
    m["cli.import_ms"] = head["import_ms"]
    return m


def measure_traced(workload, work: Path, seconds: float) -> tuple:
    warm_up(workload, work)
    out = work / "out.json"
    tally = Tally(workload)
    per_run, overheads = [], []
    spans = work / "spans.jsonl"
    deadline = time.perf_counter() + seconds
    order = (1, 0)
    while True:
        outputs, run_ms = [], {}
        for traced in order:
            code, _, _ = spawn([sys.executable, str(TRACE), "--spans", str(spans), "--trace",
                                str(traced), "--", *workload.argv(out)], work / "cli.err")
            outputs.append(read_output(code, out))
            if spans.exists():
                lines = [json.loads(l) for l in spans.read_text(encoding="utf-8").splitlines()]
                run_ms[traced] = lines[0]["run_ms"]
                if traced:
                    per_run.append(layer_metrics(lines, workload.pages))
                spans.unlink()
        if len(run_ms) == 2:
            overheads.append(run_ms[1] - run_ms[0])
        tally.round(outputs)
        order = order[::-1]
        if time.perf_counter() >= deadline:
            break
    metrics = {name: (statistics.median(r[name] for r in per_run) if per_run else 0.0, unit)
               for name, unit in PER_LAYER_UNITS.items()}
    # Each round's traced and untraced commands ran back to back, so their
    # difference is taken per round before the median.
    metrics["trace.overhead_ms"] = (statistics.median(overheads) if overheads else 0.0, "ms")
    return tally, metrics, {"traced_commands": len(per_run)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    # A terminated run still stops its child and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    missing = [p for p in ("src/dirtree/cli.py", "tests/fixtures/fig1a.json",
                           "tests/fixtures/fig1a_gold.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from a dirtree source checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        run = measure_traced if args.trace else measure
        tally, metrics, notes = run(workload, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, value in notes.items():
        print(f"  {name}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    print(f"  attempted {tally.attempted} failed {tally.failed}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
