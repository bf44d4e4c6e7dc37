"""Machine-readable verification reports.

The JSON layout is versioned; residuals are decimal strings so diffs are
stable across float formatting changes.  With the same seed (and timings
disabled, the default) a report is byte identical between runs.
"""

from __future__ import annotations

import json
import platform
import sys

import mpmath

from . import __version__
from .checks import CheckRecord

SCHEMA = 1


def aggregate_status(checks: list[CheckRecord]) -> str:
    if any(not c.ok for c in checks):
        return "fail"
    if any(c.resolved for c in checks):
        return "resolved-with-correction"
    return "pass"


def build_report(task: dict, checks: list[CheckRecord], *, precision: int | None = None, timings: bool = False) -> dict:
    return {
        "schema": SCHEMA,
        "task": task,
        "status": aggregate_status(checks),
        "checks": [
            {
                "name": c.name,
                "anchor": c.anchor,
                "ok": c.ok,
                "resolved": c.resolved,
                "residual": c.residual,
                "detail": c.detail,
                "ms": c.ms if timings else 0,
            }
            for c in checks
        ],
        "environment": {
            "package": __version__,
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "precision_bits": precision,
        },
    }


def emit(report: dict, *, json_out=None, human_out=None, timings: bool = False) -> int:
    """Print JSON to stdout and a human summary to stderr; return exit code.

    With ``timings`` the summary ends with the five slowest checks.
    """
    json_out = json_out or sys.stdout
    human_out = human_out or sys.stderr
    json_out.write(json.dumps(report, indent=2, sort_keys=False) + "\n")
    status = report["status"]
    print(f"[{status}] {_task_line(report['task'])}", file=human_out)
    for c in report["checks"]:
        mark = "ok " if c["ok"] else "FAIL"
        if c["ok"] and c["resolved"]:
            mark = "ok*"
        line = f"  {mark} {c['name']}"
        if c["residual"]:
            line += f"  (residual {c['residual']})"
        print(line, file=human_out)
        if c["detail"] and (not c["ok"] or c["resolved"]):
            print(f"       {c['detail']}", file=human_out)
    if any(c["resolved"] for c in report["checks"]):
        print("  (* identity holds after an explicitly solved correction; see detail lines)", file=human_out)
    if timings:
        print("  slowest checks:", file=human_out)
        for c in sorted(report["checks"], key=lambda c: -c["ms"])[:5]:
            print(f"  {c['ms']:>8} ms  {c['name']}", file=human_out)
    return 0 if status in ("pass", "resolved-with-correction") else 1


def _task_line(task: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in task.items())
