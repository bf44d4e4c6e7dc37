"""One benchmark pass in a fresh interpreter: import cpverify, run the tasks.

Usage: python3 worker.py --workload NAME --variant K [--trace SPANS_FILE]
       python3 worker.py --setup-only

Prints one JSON object: the monotonic clock when the program was imported
(``t_ready``) and when the last task ended (``t_done``), and the records and
wall time of every task.  With ``--trace`` the pass runs under the tracer,
adds the per-layer metrics to the object and writes the calls and self time
of every span name to SPANS_FILE.
"""

from __future__ import annotations

import time

import cpverify.checks  # noqa: F401  (the import a CLI user pays for)
import cpverify.cli  # noqa: F401

T_READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--variant", type=int, default=0)
    ap.add_argument("--trace", metavar="SPANS_FILE")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"t_ready": T_READY}))
        return 0

    import workloads

    task_list = workloads.tasks(args.workload, args.variant)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_start = time.monotonic()
    try:
        results = workloads.run_tasks(task_list, time.monotonic)
    finally:
        if tracer is not None:
            tracer.restore()
    t_done = time.monotonic()
    out = {"t_ready": T_READY, "t_start": t_start, "t_done": t_done, "tasks": results}
    if tracer is not None:
        table = tracer.table()
        out["layers"] = tracer.metrics(table)
        with open(args.trace, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
