"""Write the reference check records the benchmark compares every pass against.

Usage (from the repository root):
    python3 perfbench/make_reference.py [--workload NAME]

Runs one pass per workload and variant (two at a time) and writes
``reference/<workload>.json``.  It refuses to write a workload in which any
check fails: a reference must record verdicts that hold.  Rerun it only when
a change is meant to alter check output, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import run
import workloads


def build(workload: str) -> dict:
    with ThreadPoolExecutor(max_workers=2) as pool:
        passes = list(pool.map(lambda v: run.run_pass(workload, v), range(workloads.VARIANTS)))
    variants = []
    for v, p in enumerate(passes):
        failing = [(t["label"], r["name"]) for t in p.tasks for r in t["records"] if not r["ok"]]
        if failing:
            raise SystemExit(f"{workload} variant {v}: failing checks {failing}")
        inp = workloads.inputs(v)
        variants.append(
            {
                "variant": v,
                "inputs": {**inp, "family": {k: str(x) for k, x in inp["family"].items()}},
                "digest": run.digest(p.tasks),
                "tasks": run.strip_times(p.tasks),
            }
        )
        print(f"{workload} variant {v}: {sum(len(t['records']) for t in p.tasks)} checks ok, wall {p.wall_s:.2f} s")
    return {"workload": workload, "variants": variants}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    args = ap.parse_args(argv)
    for workload in (args.workload,) if args.workload else workloads.WORKLOADS:
        data = build(workload)
        path = run.reference_path(workload)
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
