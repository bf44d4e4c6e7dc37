"""The benchmark's workloads: task lists and the inputs each seed draws.

A task is one call into ``cpverify.checks`` (the calls ``cpverify suite
acceptance`` makes), labelled uniquely within its workload.  Every task
returns check records as plain dicts with the fields the reference
comparison reads.

The seed selects one of ``VARIANTS`` input sets (``seed % VARIANTS``), so the
reference records shipped in ``reference/`` cover every seed.  Variant 0
uses the acceptance suite's own values; the others draw the radial matrix
points, the oracle's admissible points and the table1 family parameters
``a, b, c, d`` from the variant number.

This module imports ``cpverify`` only inside ``tasks()``, so the parent
process never loads the program it measures.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("exact", "numeric")
VARIANTS = 16

ACCEPTANCE_SEED = 42
ACCEPTANCE_FAMILY = {"a": Fraction(2, 7), "b": Fraction(-1, 3), "c": Fraction(-1, 5), "d": Fraction(3, 11)}


def inputs(variant: int) -> dict:
    """The seed-drawn inputs of one variant; variant 0 is the acceptance suite's."""
    if variant == 0:
        return {"radial_seed": ACCEPTANCE_SEED, "oracle_seed": ACCEPTANCE_SEED, "family": dict(ACCEPTANCE_FAMILY)}
    rng = random.Random(variant)

    def frac(sign):
        return sign * Fraction(rng.randint(1, 5), rng.randint(2, 7))

    return {
        "radial_seed": rng.randrange(1, 10**6),
        "oracle_seed": rng.randrange(1, 10**6),
        "family": {"a": frac(1), "b": frac(-1), "c": frac(-1), "d": frac(1)},
    }


def record(name: str, ok: bool, resolved: bool = False, residual=None, detail=None) -> dict:
    return {"name": name, "ok": bool(ok), "resolved": bool(resolved), "residual": residual, "detail": detail}


def _records(check_records) -> list[dict]:
    return [record(r.name, r.ok, r.resolved, r.residual, r.detail) for r in check_records]


def _table1(J: str, mode: str, hbar: Fraction, N: int, family: dict) -> list[dict]:
    """One table1 resolution with seed-drawn family parameters.

    ``checks.run_table1`` always uses the acceptance family, so the benchmark
    calls ``table1_resolve`` itself and records every field of its verdict.
    """
    from cpverify import checks

    rep = checks.table1_resolve(J, mode, hbar, 2, N, family=family)
    solved = ", ".join(f"{k} = {v} (printed {rep['printed'].get(k)})" for k, v in sorted(rep["solved"].items()))
    detail = f"solved: {solved or 'none'}; time reflected: {rep['time_reflected']}"
    return [
        record(
            f"parameter table {J} {mode}, hbar={hbar}, N={N}, m=2",
            rep["ok"],
            resolved=rep["ok"] and not rep["exact_as_printed"],
            residual=rep["scalar_residual"],
            detail=detail,
        )
    ]


def tasks(workload: str, variant: int) -> list[tuple[str, object]]:
    """(label, thunk) pairs; each thunk returns a list of record dicts."""
    from cpverify import checks

    inp = inputs(variant)
    family = inp["family"]
    half, two = Fraction(1, 2), Fraction(2)
    out: list[tuple[str, object]] = []

    def add(label, fn, *args, **kwargs):
        out.append((label, lambda: _records(fn(*args, **kwargs))))

    if workload == "exact":
        # small operands first: per-operation overhead in the kernel shows here
        for N in (1, 2, 3):
            add(f"weyl N={N}", checks.run_weyl, N)
        add("eom N=2", checks.run_eom, 2)
        add("zero-curvature", checks.run_zero_curvature)
        for J in ("I",) + checks.FAMS:
            add(f"radial {J} N=2", checks.run_radial, J, 2, trials=5, seed=inp["radial_seed"])
        add("gauge-scalar", checks.run_gauge_transformation)
        add("n1", checks.run_n1)
        for J in checks.FAMS:
            for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
                if (J, n, m) != ("VI", 2, 2):
                    add(f"pde-symbolic {J} N={n} m={m}", checks.run_pde_symbolic, J, n, m, 1, controls=(n, m) == (2, 2))
        for J in ("II", "IV"):
            add(f"pde-symbolic {J} N=2 m=2 hbar=2", checks.run_pde_symbolic, J, 2, 2, 2)
        for J in checks.FAMS:
            modes = (("gauged", half),) if J == "VI" else (("ungauged", Fraction(1)), ("gauged", half), ("gauged", two))
            for mode, hb in modes:
                out.append((f"table1 {J} {mode} hbar={hb} N=2", lambda j=J, md=mode, h=hb: _table1(j, md, h, 2, family)))
        # then expression swell: a 190x303-term multiply, a 972-term denominator
        for J, hb in (("II", half), ("IV", two)):
            out.append((f"table1 {J} gauged hbar={hb} N=3", lambda j=J, h=hb: _table1(j, "gauged", h, 3, family)))
    elif workload == "numeric":
        t, base = checks.NUMERIC_POINTS["V"][0]
        params = checks.numeric_pde_params("V", 2, half, base)
        add("pde-numeric V", checks.run_pde_numeric, "V", 2, 2, half, t, params, prec=64, level=3)
        for J in ("II", "V"):
            add(f"oracle {J}", checks.run_oracle_moments, J, kmax=4, prec=128, points=3, seed=inp["oracle_seed"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def run_tasks(task_list, clock) -> list[dict]:
    """Run tasks back to back; a task that raises yields one failed record."""
    results = []
    for label, thunk in task_list:
        start = clock()
        try:
            recs = thunk()
        except Exception as exc:  # one failing task must not abort the run
            recs = [record("task raised", False, detail=f"{type(exc).__name__}: {exc}")]
        results.append({"label": label, "s": clock() - start, "records": recs})
    return results
