"""Command-line surface.

Verbs:
  verify {weyl,eom,zero-curvature,radial,gauge,table1,n1,pde}
  print hamiltonian --family V --kind cp|radial|nagoya ...
  oracle moments --family V --kmax 6
  suite acceptance

JSON reports go to stdout, the human summary to stderr.  Exit codes: 0 pass
(or resolved-with-correction), 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from . import checks, diffop, families, moments, radial
from .errors import DomainError, UsageError
from .exact import session_registry
from .params import parse_hbar, parse_params, parse_rational
from .report import build_report, emit

USAGE_EXIT = 2


def _add_common(p):
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--prec", type=int, default=192, help="working precision in bits for numeric tasks")
    p.add_argument("--json", action="store_true", help="suppress the human summary (JSON always goes to stdout)")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings (breaks byte-identical reports)")
    p.add_argument("--config", help="key = value file mirroring the flags")
    p.add_argument("--params", default="", help="rational parameters, e.g. b=-1/3,c=-1/5")


def build_parser():
    ap = argparse.ArgumentParser(prog="cpverify", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="verb", required=True)

    ver = sub.add_parser("verify", help="run a verification task")
    vsub = ver.add_subparsers(dest="task", required=True)
    for name in ("weyl", "eom", "zero-curvature", "radial", "gauge", "table1", "n1", "pde"):
        p = vsub.add_parser(name)
        _add_common(p)
        if name in ("weyl", "eom", "radial"):
            p.add_argument("--N", type=int, default=2)
        if name == "weyl":
            p.add_argument("--expr", help="evaluate an operator expression, e.g. 'Tr(p*q*p*q)' or '[Tr(p*p), q]'")
        if name == "radial":
            p.add_argument("--family", default="VI", choices=families.NAMES)
            p.add_argument("--trials", type=int, default=5)
        if name == "table1":
            p.add_argument("--family", default=None, choices=checks.FAMS)
            p.add_argument("--mode", default=None, choices=("ungauged", "gauged"))
            p.add_argument("--hbar", default=None)
            p.add_argument("--N", type=int, default=2)
            p.add_argument("--m", type=int, default=2)
        if name == "n1":
            p.add_argument("--m", type=int, default=2)
            p.add_argument("--hbar", default="1/2")
        if name == "gauge":
            p.add_argument("--N", type=int, default=None)
            p.add_argument("--hbar", default=None)
        if name == "pde":
            p.add_argument("--family", required=True, choices=checks.FAMS)
            p.add_argument("--N", type=int, default=2)
            p.add_argument("--m", type=int, default=2)
            p.add_argument("--hbar", default="1")
            p.add_argument("--mode", default="symbolic", choices=("symbolic", "numeric"))
            p.add_argument("--t", default=None)
            p.add_argument("--level", type=int, default=4)
            p.add_argument("--controls", action="store_true", help="also run the negative control")

    pr = sub.add_parser("print", help="print an operator")
    psub = pr.add_subparsers(dest="task", required=True)
    ph = psub.add_parser("hamiltonian")
    _add_common(ph)
    ph.add_argument("--family", required=True)
    ph.add_argument("--kind", default="cp", choices=("cp", "radial", "nagoya"))
    ph.add_argument("--N", type=int, default=2)
    ph.add_argument("--m", type=int, default=2)
    ph.add_argument("--hbar", default="1/2")
    ph.add_argument("--kappa", default="0")

    orc = sub.add_parser("oracle", help="numeric oracle duties")
    osub = orc.add_subparsers(dest="task", required=True)
    om = osub.add_parser("moments")
    _add_common(om)
    om.add_argument("--family", required=True, choices=checks.FAMS)
    om.add_argument("--kmax", type=int, default=6)

    su = sub.add_parser("suite", help="run a full suite")
    ssub = su.add_subparsers(dest="task", required=True)
    sa = ssub.add_parser("acceptance")
    _add_common(sa)
    sa.add_argument("--fast", action="store_true", help="smaller numeric grids (still meets the stated tolerances)")
    return ap


def _apply_config(argv):
    # a config file holds one `key = value` per line, mirroring long flags
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    path = argv[i + 1]
    extra = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not value:
                raise UsageError(f"config line needs key = value: {line!r}")
            if value.lower() in ("true", "yes", "on"):
                extra.append(f"--{key}")
            else:
                extra.extend([f"--{key}", value])
    return argv[:i] + argv[i + 2 :] + extra


def _print_hamiltonian(args, ps) -> int:
    reg = session_registry(args.N)
    hbar = parse_hbar(args.hbar)
    kwargs = ps.family_kwargs()
    if args.kind == "cp":
        op = diffop.build_cp_hamiltonian(reg, args.family, args.N, args.m, hbar, **kwargs)
    elif args.kind == "nagoya":
        reg = session_registry(1)
        op = diffop.build_nagoya_single(reg, args.family, hbar, **kwargs)
    else:
        op = radial.build_radial_hamiltonian(
            reg, args.family, args.N, hbar, parse_rational(args.kappa), **ps.theta_kwargs()
        )
    for rho, coeff in enumerate(op.A):
        print(f"A[{rho + 1}] (d^2/dz{rho + 1}^2): {coeff.to_str()}")
    for rho, coeff in enumerate(op.B):
        print(f"B[{rho + 1}] (d/dz{rho + 1}):   {coeff.to_str()}")
    print(f"C (multiplication):  {op.C.to_str()}")
    return 0


def acceptance_suite(seed: int, prec: int, fast: bool, timings: bool):
    """The full acceptance matrix; one record block per criterion."""
    t0 = time.time()
    records = []

    def timed(tag, fn):
        # a runner that timed its own records keeps those times
        start = time.time()
        recs = fn()
        for r in recs:
            r.ms = r.ms or int((time.time() - start) * 1000)
            r.name = f"[{tag}] {r.name}"
        records.extend(recs)

    for N in (1, 2, 3):
        timed("weyl", lambda n=N: checks.run_weyl(n))
    timed("eom", lambda: checks.run_eom(2))
    timed("zero-curvature", checks.run_zero_curvature)
    for J in families.NAMES:
        for N in (2, 3):
            timed("radial", lambda j=J, n=N: checks.run_radial(j, n, trials=5, seed=seed))
    timed("gauge-scalar", checks.run_gauge_transformation)
    timed("gauge", checks.run_gauge)
    timed("table1", checks.run_table1)
    timed("n1", checks.run_n1)
    for J in checks.FAMS:
        for (n, m) in ((1, 1), (1, 2), (2, 1), (2, 2)):
            timed("pde-symbolic", lambda j=J, nn=n, mm=m: checks.run_pde_symbolic(j, nn, mm, 1, controls=(nn, mm) == (2, 2)))
    for J in ("II", "IV"):
        timed("pde-symbolic", lambda j=J: checks.run_pde_symbolic(j, 2, 2, 2))
    level = 3 if fast else 4
    for J in ("V", "VI"):
        for t, base in checks.NUMERIC_POINTS[J]:
            params = checks.numeric_pde_params(J, 2, Fraction(1, 2), base)
            timed(
                "pde-numeric",
                lambda j=J, tt=t, pp=params: checks.run_pde_numeric(j, 2, 2, Fraction(1, 2), tt, pp, prec=64, level=level),
            )
    for J in checks.FAMS:
        timed("oracle", lambda j=J: checks.run_oracle_moments(j, kmax=6, prec=prec, points=3, seed=seed))
    timed("cross-path", lambda: checks.run_andreief(prec=96))
    total = time.time() - t0
    return records, total


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
        args = build_parser().parse_args(argv)
        return run(args)
    except (UsageError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT


def _emit(args, report) -> int:
    import io

    human = io.StringIO() if getattr(args, "json", False) else None
    return emit(report, human_out=human)


def run(args) -> int:
    # the smallest size, precision, grid level and trial count any task accepts
    for name, low in (("N", 1), ("m", 1), ("prec", 53), ("level", 0), ("trials", 1)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise UsageError(f"--{name} must be at least {low}, got {value}")
    task_echo = {"verb": args.verb, "task": getattr(args, "task", None)}
    ps = parse_params(getattr(args, "params", "") or "")
    # keys that a flag of their own sets; --params never overrides them
    for key in ("family", "N", "m", "hbar", "kappa", "t"):
        if getattr(ps, key) is not None:
            if hasattr(args, key):
                raise UsageError(f"{key} is set by --{key}, not by --params")
            raise UsageError(f"{key} is not a parameter of {args.verb} {args.task}")
    if args.verb == "print":
        return _print_hamiltonian(args, ps)

    if args.verb == "oracle":
        recs = checks.run_oracle_moments(args.family, kmax=args.kmax, prec=args.prec, seed=args.seed)
        task_echo.update({"family": args.family, "kmax": args.kmax, "prec": args.prec, "seed": args.seed})
        return _emit(args, build_report(task_echo, recs, precision=args.prec, timings=args.timings))

    if args.verb == "suite":
        recs, total = acceptance_suite(args.seed, args.prec, args.fast, args.timings)
        task_echo.update({"seed": args.seed, "prec": args.prec})
        report = build_report(task_echo, recs, precision=args.prec, timings=args.timings)
        report["elapsed_s"] = round(total, 1) if args.timings else 0
        return _emit(args, report)

    # verify subcommands
    t = args.task
    precision = getattr(args, "prec", None)
    if t == "weyl":
        recs = checks.run_weyl(args.N, expr=getattr(args, "expr", None))
        task_echo.update({"N": args.N})
    elif t == "eom":
        recs = checks.run_eom(args.N)
        task_echo.update({"N": args.N})
    elif t == "zero-curvature":
        recs = checks.run_zero_curvature()
    elif t == "radial":
        recs = checks.run_radial(args.family, args.N, args.trials, args.seed)
        task_echo.update({"family": args.family, "N": args.N, "trials": args.trials, "seed": args.seed})
    elif t == "gauge":
        n_values = (args.N,) if args.N else (2, 3)
        hb_values = (parse_hbar(args.hbar),) if args.hbar else (Fraction(1, 2), Fraction(1, 3), Fraction(2))
        recs = checks.run_gauge(n_values, hb_values)
        task_echo.update({"N": list(n_values), "hbar": [str(h) for h in hb_values]})
    elif t == "table1":
        fams = (args.family,) if args.family else checks.FAMS
        modes = (args.mode,) if args.mode else ("ungauged", "gauged")
        hb = (parse_hbar(args.hbar),) if args.hbar else (Fraction(1, 2), Fraction(2))
        recs = checks.run_table1(fams, modes, hb, (args.N,), args.m)
        task_echo.update({"families": list(fams), "modes": list(modes), "N": args.N, "m": args.m})
    elif t == "n1":
        recs = checks.run_n1(args.m, parse_hbar(args.hbar))
        task_echo.update({"m": args.m, "hbar": args.hbar})
    elif t == "pde":
        hbar = parse_hbar(args.hbar)
        task_echo.update({"family": args.family, "N": args.N, "m": args.m, "hbar": args.hbar, "mode": args.mode})
        if args.mode == "symbolic":
            if hbar.denominator != 1:
                raise UsageError("the symbolic path needs a positive integer hbar; use --mode numeric")
            params = None
            if ps.family_kwargs():
                params = moments.pde_params(args.family, args.m, hbar, b=ps.b, c=ps.c)
            recs = checks.run_pde_symbolic(args.family, args.N, args.m, int(hbar), params, controls=args.controls)
        else:
            t_point = parse_rational(args.t) if args.t else None
            params = None
            if ps.b is not None:
                params = moments.pde_params(args.family, args.m, hbar, b=ps.b, c=ps.c)
            precision = min(args.prec, 128)
            recs = checks.run_pde_numeric(args.family, args.N, args.m, hbar, t_point, params, prec=precision, level=args.level)
    else:
        raise UsageError(f"unknown task {t!r}")
    return _emit(args, build_report(task_echo, recs, precision=precision, timings=args.timings))


if __name__ == "__main__":
    sys.exit(main())
