"""Verification tasks: each runner yields its CheckRecords in report order,
and ``_records`` hands its callers the list of them, each record timed.

These glue the algebraic engines to the CLI and the acceptance suite.  Every
record carries a short anchor phrase from the source text of the identity it
verifies.  A record may be marked ``resolved``: the identity holds after an
explicitly solved correction (and the correction is reported); silent fixes
never happen.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, wraps

import mpmath

from . import diffop, families, moments, quadrature, radial, weyl
from .errors import QuadratureError, UsageError
from .exact import RatFun, as_rat, fit, session_registry

FAMS = families.WEIGHTED
MAX_ORACLE_KMAX = 64  # the oracle's largest kmax; --kmax 60 takes 10-15 s for V


@dataclass
class CheckRecord:
    name: str
    anchor: str
    ok: bool
    resolved: bool = False
    residual: str | None = None
    detail: str | None = None
    ms: int = 0  # the wall time of this record's own work, set by _records


def _rec(name, anchor, ok, **kw):
    return CheckRecord(name=name, anchor=anchor, ok=bool(ok), **kw)


def _records(runner):
    """Run a generator of records to the list of them, each timed.

    A record's ``ms`` is the time from the record before it (for the first,
    from the call) until it is yielded: the work done for it alone, so a
    record whose work came from a cache reads about 0.
    """

    @wraps(runner)
    def collect(*args, **kwargs) -> list[CheckRecord]:
        out = []
        start = time.perf_counter()
        for rec in runner(*args, **kwargs):
            now = time.perf_counter()
            rec.ms = int((now - start) * 1000)
            out.append(rec)
            start = now
        return out

    return collect


# ---------------------------------------------------------------------------
# Weyl-algebra tasks
# ---------------------------------------------------------------------------


@_records
def run_weyl(N: int, expr: str | None = None):
    for name, diffp in weyl.trace_identity_residuals(N):
        yield _rec(f"trace identity N={N}: {name}", "is not equal to", diffp.is_zero())
    rep = weyl.worked_commutator(N)
    yield _rec(
        f"worked commutator N={N}: [p, Tr(pqpq)] = 2 hbar pqp + hbar^2 N p",
        "using the commutation relation",
        # the printed remainder hbar^2 p must fail at N > 1 and hold at N = 1
        rep["derived_ok"] and rep["printed_ok"] == (N == 1),
        resolved=N > 1,
        detail=(
            None
            if N == 1
            else "printed remainder hbar^2 p is the N=1 value; the matrix relation pq-qp = hbar N Id gives hbar^2 N p"
        ),
    )
    yield _rec(f"classical bracket N={N}: {{p, Tr(pqpq)}} = 2 pqp", "the cyclicity of the trace", weyl.worked_bracket(N))
    if expr:
        value = weyl.evaluate_expression(weyl.WeylAlgebra(N), expr)
        yield _rec(f"expression {expr!r}", "using the commutation relation", True, detail=value.to_str())


@_records
def run_eom(N: int):
    rep = weyl.verify_eom_vi(N)
    yield _rec(
        f"equations of motion N={N}: [t(t-1)H_VI, q] = hbar t(t-1) A and [.., p] = hbar t(t-1) B",
        "non-commutative polynomials A, B are given",
        rep["ok"],
        detail=rep["convention"] if rep["ok"] else f"first difference: {rep['failures'][:1]}",
    )


@_records
def run_zero_curvature():
    for label, ok, offenders in weyl.verify_zero_curvature():
        if label is None:
            yield _rec(
                "zero curvature: dA/dt - dB/dzeta + [A, B] = 0 in the free algebra",
                "zero-curvature equations for the pair",
                ok,
                detail=None if ok else f"offenders: {offenders[:2]}",
            )
        else:
            yield _rec(f"Lax pair structure: {label}", "where the matrices are explicitly given", ok)


# ---------------------------------------------------------------------------
# Radial reduction
# ---------------------------------------------------------------------------

_RESOLVED_RADIAL_CACHE: dict = {}


def resolved_radial_corrections(J: str, N: int, hbar):
    key = (J, N, as_rat(hbar))
    if key not in _RESOLVED_RADIAL_CACHE:
        corr, rep = radial.resolve_radial_corrections(J, N, hbar)
        _RESOLVED_RADIAL_CACHE[key] = (None if rep["printed_exact"] else corr, rep)
    return _RESOLVED_RADIAL_CACHE[key]


# the worked reduction is family-independent: run once per argument set
_WORKED_REDUCTION_CACHE: dict = {}


def worked_reduction(N: int, kmax: int, trials: int, seed: int, hbar):
    key = (N, kmax, trials, seed, as_rat(hbar))
    if key not in _WORKED_REDUCTION_CACHE:
        _WORKED_REDUCTION_CACHE[key] = radial.verify_qkp2(N, kmax, trials, seed, hbar)
    return _WORKED_REDUCTION_CACHE[key]


@_records
def run_radial(family: str, N: int, trials: int, seed: int, hbar=Fraction(1, 2)):
    if family in ("I", "II", "III", "IV", "V"):
        [rep] = radial.verify_radial_match(family, N, [(None, trials)], seed, hbar=hbar)
        yield _rec(
            f"radial reduction {family}, N={N}: matrix operator equals printed eigenvalue form ({trials} random points)",
            "is called the Harish-Chandra map",
            rep["ok"],
            detail=None if rep["ok"] else str(rep["mismatches"][:1]),
        )
    else:
        # corr is None where the printed form is exact or no correction fits; either fails the record
        corr, rep = resolved_radial_corrections("VI", N, hbar)
        # one matrix side: the printed form at the first trials // 2 points, the corrected one at all
        forms = [(None, max(1, trials // 2)), (corr, trials)]
        printed, check = radial.verify_radial_match("VI", N, forms, seed, hbar=hbar)
        # the printed form needs first_order[1]; every other fitted unknown must vanish
        fitted = {}
        if corr:
            fitted = {f"first_order[{k}]": pair for k, pair in enumerate(corr["first_order"])}
            fitted.update(scalar=corr["scalar"], sum_z=corr["sum_z"])
        a10, a11 = fitted.pop("first_order[1]", (0, 0))
        stray = [f"{k} = ({a}, {b})" for k, (a, b) in fitted.items() if (a, b) != (0, 0)]
        shift = -as_rat(hbar) ** 2
        detail = (
            "printed first-order z-coefficient -hbar(1+t) must read -2 hbar(1+t): "
            f"fitted additive correction ({a10} + {a11} t) sum_rho z_rho d_rho inside t(t-1)"
        )
        yield _rec(
            f"radial reduction VI, N={N}: exact after solved first-order correction",
            "is called the Harish-Chandra map",
            (not printed["ok"]) and check["ok"] and rep["verified"] and (a10, a11) == (shift, shift) and not stray,
            resolved=True,
            detail=rep["reason"] or detail + (f"; also fitted {', '.join(stray)}" if stray else ""),
        )
    qk = worked_reduction(N, 3, 2, seed + 1, hbar)
    yield _rec(
        f"worked reduction Tr(q^k p^2), k <= 3, N={N}",
        "quantum radial reduction of the",
        qk["ok"],
        detail=None if qk["ok"] else str(qk["mismatches"][:1]),
    )


@_records
def run_gauge_transformation(N: int = 2):
    """The scalar gauge e^{S/hbar} carrying the pre-gauge form to the printed one."""
    reg = session_registry(N)
    hbar = Fraction(1, 3)
    kappa = Fraction(2, 5)
    th = Fraction(-3, 7)
    zs, t = diffop.symbols(reg, N)
    pre = radial.build_radial_hamiltonian(zs, t, "II_pre", hbar, kappa, th=th)
    s = reg.zero()
    for z in zs:
        s = s + z**3 * Fraction(1, 3) + t * z * Fraction(1, 2)
    gauged = radial.gauge_scalar_conjugate(pre, s, hbar)
    target = radial.build_radial_hamiltonian(zs, t, "II", hbar, kappa, th=th)
    yield _rec(
        f"scalar gauge N={N}: exp(S/hbar) conjugation recovers the printed gauged form",
        "a gauge transformation of the form",
        diffop.operator_equal(gauged, target),
    )


# ---------------------------------------------------------------------------
# Gauge theorems (power sequences and the printed lemma)
# ---------------------------------------------------------------------------


GAUGE_N = (2, 3)
GAUGE_HBAR = (Fraction(1, 2), Fraction(1, 3), Fraction(2))
# the report's names for table_params' two gauged kappa choices, in its order
KAPPA_BRANCHES = ("kappa=1/hbar-1", "kappa=-1/hbar")


def _one_coupling(maps: dict) -> bool:
    """Every printed kappa choice gives the coupling kappa(kappa+1) = R(R+1) of
    the Vandermonde gauge Delta^R (R = 0 ungauged), so one operator serves all."""
    R = maps.get("R", 0)
    return all(k * (k + 1) == R * (R + 1) for k in maps["kappa_choices"])


@_records
def run_gauge(N_values=GAUGE_N, hbar_values=GAUGE_HBAR, m: int = 2):
    """The power records of every (N, hbar), then the printed lemma's records."""
    # family II's gauged rows: their kappa choices, and the theta the lemma reads
    rows = [(N, hb, diffop.table_params("II", hb, "gauged", m, N)) for N in N_values for hb in hbar_values]
    for N, hb, maps in rows:
        lam_seen = []
        ok_all = _one_coupling(maps)
        resolved_any = False
        for a in (0, 1, 2, 3):
            rep = diffop.theorem_gauge_check(N, a, hb, maps["kappa_choices"][0])
            resolved = rep["status"] == "resolved-with-correction"
            # the printed a = 2, 3 corrections carry the factor N - 2 and
            # need exactly the prefactor hbar^2 - 1; every other power holds as printed
            if a >= 2 and N >= 3:
                ok_all &= resolved and rep["lambda"] == as_rat(hb) ** 2 - 1
            else:
                ok_all &= rep["status"] == "pass"
            resolved_any |= resolved
            if a in (2, 3):
                lam_seen.append((a, rep.get("lambda")))
        detail = ", ".join(f"a={a}: lambda={lam}" for a, lam in lam_seen)
        for branch in KAPPA_BRANCHES:
            yield _rec(
                f"gauge conjugation powers a=0..3, N={N}, hbar={hb}, {branch}",
                "Define the two sequences of differential operators",
                ok_all,
                resolved=resolved_any,
                detail=f"printed corrections need the prefactor hbar^2-1 ({detail})" if resolved_any else detail,
            )
    for N, hb, maps in rows:
        # printed lemma for family II: solve theta and compare
        rep = table1_resolve("II", "gauged", hb, m, N)
        solved = rep["solved"].get("theta")
        printed = maps["theta"]
        theta = printed if solved is None else solved
        resolved = solved is not None and solved != printed
        yield _rec(
            f"gauged identification, family II, N={N}, hbar={hb}, m={m}: theta solved exactly",
            "equivalent to the action of",
            rep["ok"] and theta == Fraction(3, 2) - N - as_rat(hb) * (1 + m),
            resolved=resolved,
            detail=f"theta solved = {solved}; printed = {printed}"
            + (" (printed value holds only at N = 1 or hbar = 1)" if resolved else ""),
        )


# ---------------------------------------------------------------------------
# Parameter table resolution
# ---------------------------------------------------------------------------


TABLE1_MODES = ("ungauged", "gauged")
# the ungauged identification holds at hbar = 1 only
TABLE1_HBAR = {"ungauged": (Fraction(1),), "gauged": (Fraction(1, 2), Fraction(2))}


def table1_resolve(J: str, mode: str, hbar, m: int, N: int, family: dict | None = None):
    """Compare CP_J with the (conjugated) radial form under the printed maps.

    Any mismatch is resolved into: a solved parameter (theta for II, k^2 for
    VI), a scalar-in-t gauge residual, and for family III the documented time
    reflection t -> -t with a Hamiltonian sign flip.  The radial form is built
    and resolved once: kappa enters only through kappa(kappa+1), which every
    printed kappa choice must share.  Returns a report dict.
    """
    hb = as_rat(hbar)
    if family is None:
        family = {"a": Fraction(2, 7), "b": Fraction(-1, 3), "c": Fraction(-1, 5), "d": Fraction(3, 11)}
    maps = diffop.table_params(J, hb, mode, m, N, **family)
    reg = session_registry(N)
    cp = diffop.build_cp_hamiltonian(reg, J, N, m, hb, **family)
    # the table names II's th "theta"
    theta_kwargs = {k: maps["theta" if k == "th" else k] for k in families.weighted(J).radial_keys}
    out = {
        "ok": False,
        "exact_as_printed": False,
        "solved": {},
        "printed": {k: v for k, v in maps.items() if k not in ("kappa_choices", "R")},
        "time_reflected": False,
        "scalar_residual": None,
        "reason": None,
    }
    corr = None
    if J == "VI":
        corr, rep = resolved_radial_corrections("VI", N, hb)
        if not rep["verified"]:
            return {**out, "reason": f"radial VI has no verified correction: {rep['reason']}"}
    kappa = maps["kappa_choices"][0]
    ht = radial.build_radial_hamiltonian(*diffop.symbols(reg, N), J, hb, kappa, corrections=corr, **theta_kwargs)
    conj = diffop.conjugate_by_vandermonde(ht, maps["R"]) if mode == "gauged" else ht
    reflected = False
    diff = conj - cp
    if not all(x.is_zero() for x in diff.A + diff.B):
        diff, reflected = conj.time_reflected() - cp, True
        if not all(x.is_zero() for x in diff.A + diff.B):
            return out  # the derivative coefficients differ
    # the zeroth order must be alpha(t) + beta(t) sum z; theta enters beta as
    # itself, k^2 as k^2 / (4 t (t - 1)), and no other family may leave a beta
    split = fit(diff.C, [1, diffop.power_sum(reg, N, 1)], diffop.zvars(reg)[:N])
    if split is None:
        return out
    alpha, beta = split
    solved = {}
    ok = True
    if not beta.is_zero():
        t = RatFun.var(reg, "t")
        key, unit = {"II": ("theta", 1), "VI": ("k2", 1 / (4 * t * (t - 1)))}.get(J, (None, None))
        c = None if key is None else fit(beta, [unit], reg.names)
        if c is None:
            ok = False
        else:
            solved[key] = maps[key] + c[0]
    residual = None if alpha.is_zero() else alpha.to_str()
    out.update(ok=ok and _one_coupling(maps), solved=solved, time_reflected=reflected, scalar_residual=residual)
    out["exact_as_printed"] = out["ok"] and not solved and residual is None and not reflected
    return out


@_records
def run_table1(
    families=FAMS,
    modes=TABLE1_MODES,
    hbar_values=None,
    N_values=(2, 3),
    m: int = 2,
):
    """Every table1 row; each mode runs at ``hbar_values``, by default at its ``TABLE1_HBAR``."""
    for J in families:
        for mode in modes:
            for hb in TABLE1_HBAR[mode] if hbar_values is None else hbar_values:
                for N in N_values:
                    rep = table1_resolve(J, mode, hb, m, N)
                    # the printed gauged theta of II and k^2 of VI hold only at N = 1 or
                    # hbar = 1; elsewhere they are re-solved, and nothing else ever is
                    resolves = J in ("II", "VI") and mode == "gauged" and N > 1 and hb != 1
                    ok = rep["ok"] and bool(rep["solved"]) == resolves
                    resolved = ok and not rep["exact_as_printed"]
                    bits = []
                    if rep["time_reflected"]:
                        bits.append("needs the time reflection t -> -t (with H -> -H)")
                    if rep["solved"]:
                        bits.append(
                            "; ".join(f"{k} solved = {v} (printed {rep['printed'].get(k)})" for k, v in rep["solved"].items())
                        )
                    if rep["scalar_residual"]:
                        bits.append(f"scalar gauge residual {rep['scalar_residual']}")
                    if J == "VI":
                        bits.append(rep["reason"] or "radial VI taken with the solved first-order correction")
                    yield _rec(
                        f"parameter table {J} {mode}, hbar={hb}, N={N}, m={m}",
                        "correspondence of parameters between",
                        ok,
                        resolved=resolved,
                        detail="; ".join(bits) or ("exact as printed" if ok else "the operators differ under the printed map"),
                    )


# ---------------------------------------------------------------------------
# N = 1 reduction
# ---------------------------------------------------------------------------


@_records
def run_n1(m: int = 2, hbar=Fraction(1, 2)):
    hb = as_rat(hbar)
    reg = session_registry(1)
    full = moments.pde_params("VI", m, hb)
    for J in FAMS:
        nag = diffop.build_nagoya_single(reg, J, hb, **full)
        cp = diffop.build_cp_hamiltonian(reg, J, 1, m, hb, **full)
        ok = diffop.operator_equal(cp, nag)
        cond = "a = m hbar" + (" and b+c+d = (m-1) hbar" if J == "VI" else "")
        yield _rec(
            f"N=1 reduction {J}: multi-particle operator equals the single-particle one under {cond}",
            "reduce to the Hamiltonian operators",
            ok,
        )
    # negative control: family VI without the extra condition must differ
    skew = dict(full, d=full["b"] + full["c"])
    bad = diffop.build_cp_hamiltonian(reg, "VI", 1, m, hb, **skew)
    nag = diffop.build_nagoya_single(reg, "VI", hb, **skew)
    yield _rec(
        "N=1 reduction negative control: family VI without b+c+d = (m-1) hbar differs",
        "reduce to the Hamiltonian operators",
        not diffop.operator_equal(bad, nag),
    )


# ---------------------------------------------------------------------------
# Schroedinger checks (symbolic and numeric)
# ---------------------------------------------------------------------------


@_records
def run_pde_symbolic(J: str, N: int, m: int, hbar: int, params: dict | None = None, controls: bool = False):
    """The symbolic check and, with ``controls``, its m_shift control on the same wave function."""
    rep = moments.verify_pde_symbolic(J, N, m, hbar, params)
    # an ok record has tau = N, so the printed hbar d/dt holds exactly at N = 1
    resolved = rep["ok"] and N > 1
    detail = f"time normalization tau = {rep['time_factor']}"
    if resolved:
        detail += " (the stated hbar d/dt holds only at N = 1; the derivations carry hbar N d/dt)"
    elif not rep["ok"] and rep["time_factor"]:
        detail += f" instead of N = {N}"
    yield _rec(
        f"Schroedinger identity {J}, N={N}, m={m}, hbar={hbar}: residual exactly zero",
        "solution to the multi-variable version",
        rep["ok"],
        resolved=resolved,
        detail=detail,
    )
    if controls:
        bad = moments.verify_pde_symbolic(J, N, m, hbar, params, mutate="m_shift", wave=rep["wave"])
        yield _rec(
            f"negative control {J}, N={N}, m={m}: shifted m hbar coefficient leaves a residual",
            "solution to the multi-variable version",
            not bad["ok"],
        )


NUMERIC_POINTS = {
    "V": [
        (Fraction(3, 2), {"b": Fraction(-1, 3), "c": Fraction(-1, 5)}),
        (Fraction(-5, 4), {"b": Fraction(-2, 3), "c": Fraction(-1, 2)}),
    ],
    "VI": [
        (Fraction(7, 4), {"b": Fraction(-3, 2), "c": Fraction(-1, 5)}),
        (Fraction(5, 2), {"b": Fraction(-7, 4), "c": Fraction(-1, 2)}),
    ],
}


def numeric_pde_params(J: str, m: int, hbar, base: dict) -> dict:
    return moments.pde_params(J, m, hbar, **base)


@_records
def run_pde_numeric(J: str, N: int, m: int, hbar, t, params: dict, prec: int = 64, level: int = 4):
    name = f"numeric Schroedinger residual {J}, N={N}, m={m}, hbar={hbar}, t={t}"
    anchor = "satisfying the Schrodinger equation"
    try:
        rep = quadrature.pde_residual_numeric(J, N, m, hbar, t, params, prec=prec, level=level)
    except QuadratureError as exc:
        yield _rec(name, anchor, False, detail=f"quadrature failed: {exc}")
        return
    # the two dPhi/dt computations must agree before the residual means anything
    ok = rep["residual"] < mpmath.mpf("1e-6") and rep["dt_agreement"] < mpmath.mpf("1e-8")
    yield _rec(
        name,
        anchor,
        ok,
        residual=mpmath.nstr(rep["residual"], 6),
        detail=f"d/dt cross-check {mpmath.nstr(rep['dt_agreement'], 4)}; grid error {mpmath.nstr(rep['grid_error'], 4)}; tau = {rep['time_factor']}",
    )


def _half_digits(prec: int):
    """2^(-prec/2): a numeric residual at or above it claims digits its precision does not carry."""
    return mpmath.mpf(2) ** (-prec / 2)


@_records
def run_oracle_moments(J: str, kmax: int = 6, prec: int = 192, points: int = 3, seed: int = 11):
    """Validate every divergence relation against high-precision quadrature."""
    if kmax < 2:
        raise UsageError(f"kmax must be at least 2: k = 0..{kmax} holds no recursion to check")
    if kmax > MAX_ORACLE_KMAX:
        raise UsageError(f"kmax must be at most {MAX_ORACLE_KMAX}, the oracle's bound, got {kmax}")
    rng = random.Random(seed)
    reg = session_registry(1)
    # the worst residual, and the worst grid error estimate over the largest moment
    worst = grid = mpmath.mpf(0)
    for _ in range(points):
        t, params = families.weighted(J).sample(rng)
        mf = moments.MasterFunction(J, reg, params)
        relations = [moments.ibp_relation(mf, n) for n in range(0, kmax - 1)]
        if mf.dt_log[2]:
            relations += [moments.ibp_relation_partial(mf, n) for n in range(0, kmax - 1)]
        # every moment the relations reference, evaluated in one pass: (k, s), s = 1 for rho_k
        keys = sorted({(k, int(kind == "rho")) for rel in relations for (kind, k) in rel})
        found = quadrature.moments_numeric(J, keys, t, params, prec=prec)
        nu = {key: value for key, (value, _) in found.items()}

        def residual(rel):
            # normalized by sum|c_k| * max|moment|: degenerate relations whose
            # only surviving term itself vanishes then score ~0, as they should
            total = mpmath.mpf(0)
            coeff_sum = mpmath.mpf(0)
            mom_max = mpmath.mpf(0)
            for (kind, k), coeff in rel.items():
                cv = coeff.eval({"t": t})
                mom = nu[(k, int(kind == "rho"))]
                total += (mpmath.mpf(cv.numerator) / cv.denominator) * mom
                coeff_sum += abs(mpmath.mpf(cv.numerator) / cv.denominator)
                mom_max = max(mom_max, abs(mom))
            return abs(total) / (coeff_sum * mom_max)

        with mpmath.mp.workprec(prec):
            for rel in relations:
                worst = max(worst, residual(rel))
            grid = max(grid, max(err for _, err in found.values()) / max(abs(value) for value in nu.values()))
    yield _rec(
        f"moment recursions {J}, k = 0..{kmax}, {points} admissible points",
        "viewed as the divergence of",
        worst < mpmath.mpf("1e-10") and grid < mpmath.mpf("1e-10") and worst < _half_digits(prec),
        residual=mpmath.nstr(worst, 4),
    )


@_records
def run_andreief(prec: int = 96):
    params = {"b": Fraction(-1, 3)}
    t = Fraction(1, 3)
    z = [Fraction(3, 2), Fraction(-2, 3)]
    coeffs, _, _ = quadrature.simplex_phi_coeffs("IV", 2, 2, 1, t, params, prec=prec, level=5, with_dt=False)
    with mpmath.mp.workprec(prec):
        simplex_val = quadrature.phi_value(coeffs, [mpmath.mpf(x.numerator) / x.denominator for x in z], 2)
        det_val = quadrature.andreief_phi("IV", z, t, 2, params, prec=prec)
        rel = abs(2 * simplex_val - det_val) / abs(det_val)
    yield _rec(
        "determinant identity: m! det of modified moments equals the m-fold integral (IV, m=2, hbar=1)",
        "product of characteristic polynomials",
        rel < mpmath.mpf("1e-8") and rel < _half_digits(prec),
        residual=mpmath.nstr(rel, 4),
    )


# ---------------------------------------------------------------------------
# The acceptance matrix
# ---------------------------------------------------------------------------


def acceptance_matrix(seed: int = 42, prec: int = 192, level: int = 4) -> list:
    """The acceptance suite's blocks in report order, as (criterion, tag, thunk).

    Each thunk returns its block's records; a criterion holds when every
    record of its blocks is ok.  The weyl blocks carry criteria 1 and 2.
    ``cpverify suite acceptance`` and the tier-1 acceptance test both read
    this list, at the suite's defaults unless given other settings.
    """
    half = Fraction(1, 2)
    blocks = [(1, "weyl", partial(run_weyl, N)) for N in (1, 2, 3)]
    blocks += [(3, "eom", partial(run_eom, 2)), (4, "zero-curvature", run_zero_curvature)]
    blocks += [(5, "radial", partial(run_radial, J, N, trials=5, seed=seed)) for J in families.NAMES for N in (2, 3)]
    blocks += [(6, "gauge-scalar", run_gauge_transformation), (6, "gauge", run_gauge), (7, "table1", run_table1), (8, "n1", run_n1)]
    blocks += [
        (9, "pde-symbolic", partial(run_pde_symbolic, J, N, m, 1, controls=(N, m) == (2, 2)))
        for J in FAMS
        for (N, m) in ((1, 1), (1, 2), (2, 1), (2, 2))
    ]
    blocks += [(9, "pde-symbolic", partial(run_pde_symbolic, J, 2, 2, 2)) for J in ("II", "IV")]
    blocks += [
        (10, "pde-numeric", partial(run_pde_numeric, J, 2, 2, half, t, numeric_pde_params(J, 2, half, base), prec=64, level=level))
        for J in ("V", "VI")
        for t, base in NUMERIC_POINTS[J]
    ]
    blocks += [(11, "oracle", partial(run_oracle_moments, J, kmax=6, prec=prec, points=3, seed=seed)) for J in FAMS]
    blocks.append((11, "cross-path", partial(run_andreief, prec=96)))
    return blocks
