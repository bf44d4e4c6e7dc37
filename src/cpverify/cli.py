"""Command-line surface: ``cpverify VERB TASK [flags]``.

A task takes only the flags and --params keys it reads; any other is a usage
error.  --config FILE appends one flag per `key = value` line of FILE.  JSON
reports go to stdout, the human summary to stderr.  Exit codes: 0 pass (or
resolved-with-correction), 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import checks, diffop, families, moments, radial
from .errors import DomainError, UsageError
from .exact import session_registry
from .params import parse_hbar, parse_params, parse_rational
from .report import build_report, emit

USAGE_EXIT = 2

N = ("N", dict(type=int, default=2))
M = ("m", dict(type=int, default=2))
SEED = ("seed", dict(type=int, default=42))
PREC = ("prec", dict(type=int, default=192, help="working precision in bits"))
REPORT = (
    ("json", dict(action="store_true", default=False, help="suppress the human summary (JSON always goes to stdout)")),
    ("timings", dict(action="store_true", default=False, help="include wall-clock timings (breaks byte-identical reports)")),
)
PARAMS = ("params", dict(default="", help="rational parameters, e.g. b=-1/3,c=-1/5"))
CP_KEYS = tuple(dict.fromkeys(k for fam in families.TABLE for k in fam.cp_keys))
THETA_KEYS = tuple(dict.fromkeys(k for fam in families.TABLE for k in fam.radial_keys))
# the smallest size, precision, grid level, trial count and seed any task accepts;
# random.Random(-s) draws the stream of s, so a negative seed is no seed of its own
LOWER = (("N", 1), ("m", 1), ("prec", 53), ("level", 0), ("trials", 1), ("seed", 0))


@dataclass(frozen=True)
class Task:
    """One task: the flags and ``--params`` keys it reads, and its runner.

    ``run(args)`` returns (records, echo, precision_bits), with the parsed
    ``--params`` in ``args.params``.  Where a flag's value decides what else
    is read, ``by`` names that flag and ``only`` maps each flag or key read
    under some of its values to those values.  A task with ``report`` false
    prints instead of reporting.
    """

    run: Callable
    flags: tuple
    keys: tuple = ()
    by: str | None = None
    only: dict = field(default_factory=dict)
    report: bool = True

    @property
    def argspecs(self) -> tuple:
        return self.flags + (REPORT if self.report else ()) + (PARAMS,)

    def reads(self, args, name) -> bool:
        return name not in self.only or getattr(args, self.by) in self.only[name]


def _radial(args):
    echo = {"family": args.family, "N": args.N, "trials": args.trials, "seed": args.seed}
    return checks.run_radial(args.family, args.N, args.trials, args.seed), echo, None


def _gauge(args):
    n_values = (args.N,) if args.N else (2, 3)
    hb_values = (parse_hbar(args.hbar),) if args.hbar is not None else (Fraction(1, 2), Fraction(1, 3), Fraction(2))
    echo = {"N": list(n_values), "hbar": [str(h) for h in hb_values]}
    return checks.run_gauge(n_values, hb_values), echo, None


def _table1(args):
    fams = (args.family,) if args.family else checks.FAMS
    modes = (args.mode,) if args.mode else ("ungauged", "gauged")
    hb = (parse_hbar(args.hbar),) if args.hbar is not None else (Fraction(1, 2), Fraction(2))
    echo = {"families": list(fams), "modes": list(modes), "N": args.N, "m": args.m}
    return checks.run_table1(fams, modes, hb, (args.N,), args.m), echo, None


def _family_reads(args, keys):
    """Reject a --params key that the family never reads."""
    for key in args.params:
        if key not in keys:
            raise UsageError(f"{key} is not a parameter of family {args.family}")


def _pde(args):
    J, hbar = args.family, parse_hbar(args.hbar)
    _family_reads(args, families.weighted(J).cp_keys)
    if args.mode == "symbolic" and hbar.denominator != 1:
        raise UsageError("the symbolic path needs a positive integer hbar; use --mode numeric")
    # the numeric path defaults a missing t, or missing params, alone; pde_params
    # derives a (and d for VI) from the solvability conditions
    t = parse_rational(args.t) if args.t is not None else None
    base = {}
    if args.mode == "numeric" and (t is None or not args.params):
        if J not in checks.NUMERIC_POINTS:
            raise UsageError(f"family {J} has no default numeric point: give both t and params")
        default_t, base = checks.NUMERIC_POINTS[J][0]
        t = default_t if t is None else t
    params = moments.pde_params(J, args.m, hbar, **(args.params or base))
    echo = {"family": J, "N": args.N, "m": args.m, "hbar": args.hbar, "mode": args.mode}
    echo["params"] = {k: str(v) for k, v in params.items()}
    if args.mode == "symbolic":
        return checks.run_pde_symbolic(J, args.N, args.m, int(hbar), params, controls=args.controls), echo, None
    echo["t"] = str(t)
    prec = min(args.prec, 128)
    return checks.run_pde_numeric(J, args.N, args.m, hbar, t, params, prec=prec, level=args.level), echo, prec


def _print_hamiltonian(args):
    hbar = parse_hbar(args.hbar)
    if args.kind == "radial":
        _family_reads(args, families.family("II" if args.family == "II_pre" else args.family).radial_keys)
    else:
        _family_reads(args, ("a",) * (args.kind == "nagoya") + families.weighted(args.family).cp_keys)
    if args.kind == "cp":
        op = diffop.build_cp_hamiltonian(session_registry(args.N), args.family, args.N, args.m, hbar, **args.params)
    elif args.kind == "nagoya":
        op = diffop.build_nagoya_single(session_registry(1), args.family, hbar, **args.params)
    else:
        kappa = parse_rational(args.kappa)
        op = radial.build_radial_hamiltonian(session_registry(args.N), args.family, args.N, hbar, kappa, **args.params)
    for rho, coeff in enumerate(op.A):
        print(f"A[{rho + 1}] (d^2/dz{rho + 1}^2): {coeff.to_str()}")
    for rho, coeff in enumerate(op.B):
        print(f"B[{rho + 1}] (d/dz{rho + 1}):   {coeff.to_str()}")
    print(f"C (multiplication):  {op.C.to_str()}")
    return [], {}, None


def _oracle(args):
    echo = {"family": args.family, "kmax": args.kmax, "prec": args.prec, "seed": args.seed}
    return checks.run_oracle_moments(args.family, kmax=args.kmax, prec=args.prec, seed=args.seed), echo, args.prec


def _timed(tag: str, fn) -> list:
    """One block of the suite: its records, tagged and timed.

    A runner that timed its own records keeps those times.  The rest of the
    block's time is split evenly over the other records, with the integer
    remainder on the last, so that a block's records add up to the block.
    """
    start = time.perf_counter()
    recs = fn()
    block_ms = int((time.perf_counter() - start) * 1000)
    untimed = [r for r in recs if not r.ms]
    if untimed:
        share, extra = divmod(max(0, block_ms - sum(r.ms for r in recs)), len(untimed))
        for r in untimed:
            r.ms = share
        untimed[-1].ms += extra
    for r in recs:
        r.name = f"[{tag}] {r.name}"
    return recs


def acceptance_suite(args):
    """The full acceptance matrix, one timed record block per entry."""
    level = 3 if args.fast else 4
    records = [rec for _, tag, fn in checks.acceptance_matrix(args.seed, args.prec, level) for rec in _timed(tag, fn)]
    return records, {"seed": args.seed, "prec": args.prec}, args.prec


TASKS = {
    ("verify", "weyl"): Task(
        lambda args: (checks.run_weyl(args.N, expr=args.expr), {"N": args.N}, None),
        (N, ("expr", dict(help="evaluate an operator expression, e.g. 'Tr(p*q*p*q)' or '[Tr(p*p), q]'"))),
    ),
    ("verify", "eom"): Task(lambda args: (checks.run_eom(args.N), {"N": args.N}, None), (N,)),
    ("verify", "zero-curvature"): Task(lambda args: (checks.run_zero_curvature(), {}, None), ()),
    ("verify", "radial"): Task(
        _radial, (("family", dict(default="VI", choices=families.NAMES)), N, ("trials", dict(type=int, default=5)), SEED)
    ),
    ("verify", "gauge"): Task(_gauge, (("N", dict(type=int)), ("hbar", {}))),
    ("verify", "table1"): Task(
        _table1, (("family", dict(choices=checks.FAMS)), ("mode", dict(choices=("ungauged", "gauged"))), ("hbar", {}), N, M)
    ),
    ("verify", "n1"): Task(
        lambda args: (checks.run_n1(args.m, parse_hbar(args.hbar)), {"m": args.m, "hbar": args.hbar}, None),
        (M, ("hbar", dict(default="1/2"))),
    ),
    ("verify", "pde"): Task(
        _pde,
        (
            ("family", dict(required=True, choices=checks.FAMS)), N, M, ("hbar", dict(default="1")),
            ("mode", dict(default="symbolic", choices=("symbolic", "numeric"))), ("t", {}),
            ("level", dict(type=int, default=4)),
            ("controls", dict(action="store_true", default=False, help="also run the negative control")), PREC,
        ),
        keys=("b", "c"),
        by="mode",
        only={"controls": ("symbolic",), "t": ("numeric",), "level": ("numeric",), "prec": ("numeric",)},
    ),
    ("print", "hamiltonian"): Task(
        _print_hamiltonian,
        (
            ("family", dict(required=True)), ("kind", dict(default="cp", choices=("cp", "radial", "nagoya"))), N, M,
            ("hbar", dict(default="1/2")), ("kappa", dict(default="0")),
        ),
        keys=CP_KEYS + THETA_KEYS,
        by="kind",
        only={"N": ("cp", "radial"), "m": ("cp",), "kappa": ("radial",)}
        | dict.fromkeys(CP_KEYS, ("cp", "nagoya"))
        | dict.fromkeys(THETA_KEYS, ("radial",)),
        report=False,
    ),
    ("oracle", "moments"): Task(
        _oracle, (("family", dict(required=True, choices=checks.FAMS)), ("kmax", dict(type=int, default=6)), SEED, PREC)
    ),
    ("suite", "acceptance"): Task(
        acceptance_suite,
        (SEED, PREC, ("fast", dict(action="store_true", default=False, help="smaller numeric grids (still meets the stated tolerances)"))),
    ),
}


class _Parser(argparse.ArgumentParser):
    """Parser errors become one ``usage error:`` line from main, exit 2."""

    def error(self, message):
        raise UsageError(message)


def build_parser():
    ap = _Parser(prog="cpverify", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    verbs = ap.add_subparsers(dest="verb", required=True)
    tasks = {v: verbs.add_parser(v).add_subparsers(dest="task", required=True) for v in dict.fromkeys(v for v, _ in TASKS)}
    for (verb, name), task in TASKS.items():
        p = tasks[verb].add_parser(name)
        for flag, spec in task.argspecs:
            # an absent flag stays off the namespace, so _read can tell it from a given one
            p.add_argument(f"--{flag}", **{**spec, "default": argparse.SUPPRESS})
    return ap


def _apply_config(argv):
    # a config file holds one `key = value` per line, mirroring long flags
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise UsageError("--config needs a file path")
    try:
        with open(argv[i + 1]) as fh:
            lines = [line.split("#", 1)[0].strip() for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {argv[i + 1]!r}: {getattr(exc, 'strerror', None) or exc}") from exc
    extra = []
    for line in filter(None, lines):
        key, _, value = (part.strip() for part in line.partition("="))
        if not value:
            raise UsageError(f"config line needs key = value: {line!r}")
        extra += [f"--{key}"] if value.lower() in ("true", "yes", "on") else [f"--{key}", value]
    return argv[:i] + argv[i + 2 :] + extra


# the flags that take a value; the store_true switches never take one
VALUED = {f"--{flag}" for task in TASKS.values() for flag, spec in task.argspecs if spec.get("action") != "store_true"}


def _attach_negative_values(argv):
    """``--hbar -1/3`` as ``--hbar=-1/3``: argparse takes a token like -1/3 or -p for a flag.

    A flag in ``VALUED`` takes the next token when it starts with a single -,
    unless it is -h.
    """
    out = []
    for arg in argv:
        if out and out[-1] in VALUED and arg.startswith("-") and not arg.startswith("--") and arg != "-h":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return run(build_parser().parse_args(_attach_negative_values(_apply_config(argv))))
    except (UsageError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT


def _read(task: Task, args) -> dict:
    """Fill in the defaults, reject what the task does not read, return the parsed --params."""
    where = f"{args.verb} {args.task}"
    given = set(vars(args))
    for name, spec in task.argspecs:
        if name not in given:
            setattr(args, name, spec.get("default"))
    where_by = f"{where} --{task.by} {getattr(args, task.by)}" if task.by else where
    for name, _ in task.argspecs:
        if name in given and not task.reads(args, name):
            raise UsageError(f"--{name} is not read by {where_by}")
    params = parse_params(args.params)
    for key in params:
        if hasattr(args, key):
            raise UsageError(f"{key} is set by --{key}, not by --params")
        if key not in task.keys:
            raise UsageError(f"{key} is not a parameter of {where}")
        if not task.reads(args, key):
            raise UsageError(f"{key} is not a parameter of {where_by}")
    return params


def run(args) -> int:
    task = TASKS[args.verb, args.task]
    args.params = _read(task, args)
    for name, low in LOWER:
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise UsageError(f"--{name} must be at least {low}, got {value}")
    start = time.time()
    records, echo, precision = task.run(args)
    if not task.report:
        return 0
    report = build_report({"verb": args.verb, "task": args.task, **echo}, records, precision=precision, timings=args.timings)
    if args.verb == "suite":
        report["elapsed_s"] = round(time.time() - start, 1) if args.timings else 0
    return emit(report, human_out=io.StringIO() if args.json else None)


if __name__ == "__main__":
    sys.exit(main())
