"""cpverify benchmark: time to a verdict, checked against reference records.

Usage (from the repository root):
    python3 perfbench/run.py --workload exact --seed 3 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 55

Every pass runs one workload's task list in a fresh interpreter (the cold
start every CLI user pays), one client, tasks back to back.  An untraced run
(``--trace 0``) repeats passes for ``--seconds`` seconds, at least
``MIN_PASSES`` times.  It reports the mean over its passes of ``wall_s`` and
``cpu_s`` (the run's total time per pass; on a shared machine that estimate
spreads less from run to run than the median) and the median of
``setup_s`` and ``peak_rss_mb``.  A
traced run (``--trace 1``) makes one untraced and one traced pass and reports
the per-layer metrics.  Every pass's check records are compared field by
field with the reference records in ``reference/``; the last line of output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import tracer  # noqa: E402  (sys.path[0] is HERE when run as a script)
import workloads  # noqa: E402

SETUP_PROBES = 5  # extra interpreter starts per run, for a steady setup_s median
MIN_PASSES = 3
PASS_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("match_ratio", "ratio"),
)


class BenchError(Exception):
    """The benchmark could not measure: no program to run, or a pass died."""


@dataclass
class Pass:
    setup_s: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    tasks: list
    layers: dict | None


def _spawn(worker_args) -> tuple[dict, object, float]:
    """Run worker.py in a fresh interpreter; return its JSON, rusage and spawn time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"  # same iteration orders, so counts repeat exactly
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *worker_args], stdout=subprocess.PIPE, env=env, cwd=ROOT
    )
    timer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        # wait4 gives this child's own CPU time and peak memory
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(worker_args)} exited with code {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1]), usage, t_spawn


def setup_probe() -> float:
    data, _, t_spawn = _spawn(["--setup-only"])
    return data["t_ready"] - t_spawn


def run_pass(workload: str, variant: int, spans_file: Path | None = None) -> Pass:
    args = ["--workload", workload, "--variant", str(variant)]
    if spans_file is not None:
        args += ["--trace", str(spans_file)]
    data, usage, t_spawn = _spawn(args)
    return Pass(
        setup_s=data["t_ready"] - t_spawn,
        wall_s=data["t_done"] - data["t_start"],
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        tasks=data["tasks"],
        layers=data.get("layers"),
    )


# ---------------------------------------------------------------------------
# Reference records
# ---------------------------------------------------------------------------


def strip_times(tasks) -> list[dict]:
    return [{"label": t["label"], "records": t["records"]} for t in tasks]


def digest(tasks) -> str:
    blob = json.dumps(strip_times(tasks), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def reference_path(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.json"


def load_reference(workload: str, variant: int) -> dict:
    path = reference_path(workload)
    if not path.is_file():
        raise BenchError(f"no reference records at {path}")
    with open(path) as fh:
        return json.load(fh)["variants"][variant]


def compare(tasks, reference_tasks) -> dict:
    """Count checks attempted, failed (raised or ok=False) and drifted from the reference.

    Records are matched by task label and position; a check present on one
    side only counts as attempted and drifted.
    """
    got = {t["label"]: t["records"] for t in tasks}
    ref = {t["label"]: t["records"] for t in reference_tasks}
    labels = list(ref) + [label for label in got if label not in ref]
    attempted = failed = drifted = bad = 0
    for label in labels:
        g, r = got.get(label, []), ref.get(label, [])
        for i in range(max(len(g), len(r))):
            gi = g[i] if i < len(g) else None
            ri = r[i] if i < len(r) else None
            is_failed = gi is None or not gi["ok"]
            is_drifted = gi != ri
            attempted += 1
            failed += is_failed
            drifted += is_drifted
            bad += is_failed or is_drifted
    return {"attempted": attempted, "failed": failed, "drifted": drifted, "bad": bad}


def _tally(passes, reference) -> tuple[dict, list[str]]:
    total = {"attempted": 0, "failed": 0, "drifted": 0, "bad": 0}
    digests = []
    for p in passes:
        for k, v in compare(p.tasks, reference["tasks"]).items():
            total[k] += v
        digests.append(digest(p.tasks))
    return total, digests


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def timed_run(workload: str, variant: int, seconds: float, reference: dict) -> tuple[dict, dict, list[str]]:
    setups = [setup_probe() for _ in range(SETUP_PROBES)]
    passes: list[Pass] = []
    t0 = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - t0 + passes[-1].wall_s <= seconds:
        passes.append(run_pass(workload, variant))
    tally, digests = _tally(passes, reference)
    n = tally["attempted"]
    metrics = {
        "setup_s": statistics.median(setups + [p.setup_s for p in passes]),
        "wall_s": statistics.fmean(p.wall_s for p in passes),
        "cpu_s": statistics.fmean(p.cpu_s for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "ok_ratio": (n - tally["failed"]) / n,
        "match_ratio": (n - tally["drifted"]) / n,
    }
    units = dict(END_TO_END)
    return tally, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, digests


def traced_run(workload: str, variant: int, seed: int, reference: dict) -> tuple[dict, dict, list[str]]:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    plain = run_pass(workload, variant)
    traced = run_pass(workload, variant, out_dir / f"spans-{workload}-{seed}.json")
    tally, digests = _tally([plain, traced], reference)
    values = dict(traced.layers)
    task_s = [t["s"] for t in plain.tasks]
    values["checks.tasks"] = len(plain.tasks)
    values["checks.task_p50_s"] = statistics.median(task_s)
    values["checks.task_max_s"] = max(task_s)
    values["trace.wall_s"] = traced.wall_s
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in tracer.METRICS}
    return tally, metrics, digests


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    variant = seed % workloads.VARIANTS
    reference = load_reference(workload, variant)
    if trace:
        tally, metrics, digests = traced_run(workload, variant, seed, reference)
    else:
        tally, metrics, digests = timed_run(workload, variant, seconds, reference)
    n = tally["attempted"]
    ref_digest = reference["digest"]
    print(
        f"{workload} seed={seed} variant={variant} passes={len(digests)} digest={digests[0]} reference={ref_digest} "
        f"fail_ratio={tally['failed'] / n:.4f} drift_ratio={tally['drifted'] / n:.4f}"
    )
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    correct = tally["bad"] == 0 and set(digests) == {ref_digest}
    return {"correct": correct, "attempted": n, "failed": tally["bad"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cpverify" / "__init__.py").is_file():
        print(f"error: no cpverify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_one(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
