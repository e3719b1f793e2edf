"""Run every workload untraced and traced and print one table.

    python3 bench/report.py [--seed N] [--seconds S]

Each row is one metric of one workload with its unit; each workload also
gets its attempted and failed operation counts and the SHA-256 of its CLI
output (compare these between two commits to confirm byte-identical
output).  Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("prospectus", "dense_directory", "train")


def run(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=RUN.parent.parent,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    notes = dict(line.strip().split(": ", 1) for line in lines if line.startswith("  ") and ": " in line)
    return json.loads(lines[-1]), notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args()
    print(f"{'workload':<16} {'metric':<30} {'value':>14}  unit")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, notes = run(workload, args.seed, args.seconds, trace)
            for name, m in result["metrics"].items():
                print(f"{workload:<16} {name:<30} {m['value']:>14.6g}  {m['unit']}")
            print(f"{workload:<16} {'attempted/failed (trace ' + str(trace) + ')':<30} "
                  f"{result['attempted']:>8}/{result['failed']:<5}  correct={result['correct']}")
            if not trace:
                print(f"{workload:<16} {'output_sha256':<30} {notes.get('output_sha256')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
