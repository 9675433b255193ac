"""Regenerate ``perfbench/reference.json``, the stored output values per seed.

    python3 perfbench/record_reference.py

For each run workload and each seed below, runs one pass and stores every
op's output signature: the final cumulative regret and the final iterate's
sum, L1 norm, squared L2 norm and support size for run_rounds ops, and the
last CSV row plus the column sums for ``ocokit run`` ops.  The benchmark
fails any op whose output moves from these by more than 1e-9 relative.
Record only at a commit whose outputs are known to be right.  The certify
workload has no such values; its ops are checked for FAIL lines and for
repeating the same lines on every pass.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run
from workloads import WORKLOADS

SEEDS = range(16)
RECORDED = ("bound-sweep", "long-horizon", "high-dim")


def main():
    if not run.use_sources():
        print(f"record_reference: no ocokit sources under {run.SRC}", file=sys.stderr)
        return 2
    run.OUT.mkdir(exist_ok=True)
    reference = {}
    for name in RECORDED:
        reference[name] = {}
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
                runner = run.Runner(WORKLOADS[name](run.fresh_import(), seed, workdir), None)
                runner.run_pass()
            if runner.failures:
                print(f"record_reference: {name} seed {seed}: {runner.failures[0]}",
                      file=sys.stderr)
                return 1
            reference[name][str(seed)] = runner.first
            print(f"{name} seed {seed}: {len(runner.first)} ops", flush=True)
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
