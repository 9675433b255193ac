"""Run every workload untraced and traced and keep both results as a baseline.

    python3 perfbench/baseline.py --seed 1 --seconds 32 --out perfbench/results/baseline.json

Each run is its own process, as the benchmark requires; the script collects
the full result files that ``run.py`` writes under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
from workloads import WORKLOADS


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    baseline = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        runs = {}
        for trace, label in ((0, "untraced"), (1, "traced")):
            subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(trace)], check=True, cwd=run.ROOT)
            path = run.OUT / f"result-{name}-seed{args.seed}-trace{trace}.json"
            with open(path, encoding="utf-8") as fh:
                runs[label] = json.load(fh)
        baseline["workloads"][name] = runs
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
