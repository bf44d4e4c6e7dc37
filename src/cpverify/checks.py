"""Verification tasks: each runner returns a list of CheckRecord.

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
from functools import partial

import mpmath

from . import diffop, families, moments, quadrature, radial, weyl
from .errors import QuadratureError, UsageError
from .exact import RatFun, as_rat, fit, session_registry

FAMS = families.WEIGHTED


@dataclass
class CheckRecord:
    name: str
    anchor: str
    ok: bool
    resolved: bool = False
    residual: str | None = None
    detail: str | None = None
    ms: int = 0


def _rec(name, anchor, ok, **kw):
    return CheckRecord(name=name, anchor=anchor, ok=bool(ok), **kw)


# ---------------------------------------------------------------------------
# Weyl-algebra tasks
# ---------------------------------------------------------------------------


def run_weyl(N: int, expr: str | None = None) -> list[CheckRecord]:
    out = []
    for name, diffp in weyl.trace_identity_residuals(N):
        out.append(_rec(f"trace identity N={N}: {name}", "is not equal to", diffp.is_zero()))
    rep = weyl.check_worked_commutator(N)
    out.append(
        _rec(
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
    )
    out.append(
        _rec(
            f"classical bracket N={N}: {{p, Tr(pqpq)}} = 2 pqp",
            "the cyclicity of the trace",
            rep["classical_ok"],
        )
    )
    if expr:
        value = weyl.evaluate_expression(weyl.WeylAlgebra(N), expr)
        out.append(
            _rec(
                f"expression {expr!r}",
                "using the commutation relation",
                True,
                detail=value.to_str(),
            )
        )
    return out


def run_eom(N: int) -> list[CheckRecord]:
    rep = weyl.verify_eom_vi(N)
    detail = rep["convention"] if rep["ok"] else f"first difference: {rep['failures'][:1]}"
    return [
        _rec(
            f"equations of motion N={N}: [t(t-1)H_VI, q] = hbar t(t-1) A and [.., p] = hbar t(t-1) B",
            "non-commutative polynomials A, B are given",
            rep["ok"],
            detail=detail,
        )
    ]


def run_zero_curvature() -> list[CheckRecord]:
    rep = weyl.verify_zero_curvature()
    out = [
        _rec(f"Lax pair structure: {label}", "where the matrices are explicitly given", ok)
        for label, ok in rep["residue_checks"]
    ]
    out.append(
        _rec(
            "zero curvature: dA/dt - dB/dzeta + [A, B] = 0 in the free algebra",
            "zero-curvature equations for the pair",
            rep["ok"],
            detail=None if rep["ok"] else f"offenders: {rep['offenders'][:2]}",
        )
    )
    return out


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


def run_radial(family: str, N: int, trials: int, seed: int, hbar=Fraction(1, 2)) -> list[CheckRecord]:
    out = []
    if family in ("I", "II", "III", "IV", "V"):
        rep = radial.verify_radial_match(family, N, trials, seed, hbar=hbar)
        out.append(
            _rec(
                f"radial reduction {family}, N={N}: matrix operator equals printed eigenvalue form ({trials} random points)",
                "is called the Harish-Chandra map",
                rep["ok"],
                detail=None if rep["ok"] else str(rep["mismatches"][:1]),
            )
        )
    else:
        # corr is None only where the printed form is exact, which fails the record
        corr, rep = resolved_radial_corrections("VI", N, hbar)
        printed = radial.verify_radial_match("VI", N, max(1, trials // 2), seed, hbar=hbar)
        check = radial.verify_radial_match("VI", N, trials, seed, hbar=hbar, corrections=corr)
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
        out.append(
            _rec(
                f"radial reduction VI, N={N}: exact after solved first-order correction",
                "is called the Harish-Chandra map",
                (not printed["ok"]) and check["ok"] and rep["verified"] and (a10, a11) == (shift, shift) and not stray,
                resolved=True,
                detail=detail + (f"; also fitted {', '.join(stray)}" if stray else ""),
            )
        )
    qk = radial.verify_qkp2(N, kmax=3, trials=2, seed=seed + 1, hbar=hbar)
    out.append(
        _rec(
            f"worked reduction Tr(q^k p^2), k <= 3, N={N}",
            "quantum radial reduction of the",
            qk["ok"],
            detail=None if qk["ok"] else str(qk["mismatches"][:1]),
        )
    )
    return out


def run_gauge_transformation(N: int = 2) -> list[CheckRecord]:
    """The scalar gauge e^{S/hbar} carrying the pre-gauge form to the printed one."""
    reg = session_registry(N)
    hbar = Fraction(1, 3)
    kappa = Fraction(2, 5)
    th = Fraction(-3, 7)
    pre = radial.build_radial_hamiltonian(reg, "II_pre", N, hbar, kappa, th=th)
    s = reg.zero()
    for zn in diffop.zvars(reg)[:N]:
        z = reg.var(zn)
        s = s + z**3 * Fraction(1, 3) + reg.var("t") * z * Fraction(1, 2)
    gauged = radial.gauge_scalar_conjugate(pre, s, hbar)
    target = radial.build_radial_hamiltonian(reg, "II", N, hbar, kappa, th=th)
    return [
        _rec(
            f"scalar gauge N={N}: exp(S/hbar) conjugation recovers the printed gauged form",
            "a gauge transformation of the form",
            diffop.operator_equal(gauged, target),
        )
    ]


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


def run_gauge(N_values=GAUGE_N, hbar_values=GAUGE_HBAR, m: int = 2) -> list[CheckRecord]:
    powers, lemmas = [], []
    for N in N_values:
        for hb in hbar_values:
            # family II's gauged row: its kappa choices, and the theta the lemma below reads
            maps = diffop.table_params("II", hb, "gauged", m, N)
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
                powers.append(
                    _rec(
                        f"gauge conjugation powers a=0..3, N={N}, hbar={hb}, {branch}",
                        "Define the two sequences of differential operators",
                        ok_all,
                        resolved=resolved_any,
                        detail=f"printed corrections need the prefactor hbar^2-1 ({detail})" if resolved_any else detail,
                    )
                )
            # printed lemma for family II: solve theta and compare
            rep = table1_resolve("II", "gauged", hb, m, N)
            solved = rep["solved"].get("theta")
            printed = maps["theta"]
            theta = printed if solved is None else solved
            resolved = solved is not None and solved != printed
            lemmas.append(
                _rec(
                    f"gauged identification, family II, N={N}, hbar={hb}, m={m}: theta solved exactly",
                    "equivalent to the action of",
                    rep["ok"] and theta == Fraction(3, 2) - N - as_rat(hb) * (1 + m),
                    resolved=resolved,
                    detail=f"theta solved = {solved}; printed = {printed}"
                    + (" (printed value holds only at N = 1 or hbar = 1)" if resolved else ""),
                )
            )
    return powers + lemmas


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
    corr = None
    if J == "VI":
        corr, rep = resolved_radial_corrections("VI", N, hb)
    ht = radial.build_radial_hamiltonian(reg, J, N, hb, maps["kappa_choices"][0], corrections=corr, **theta_kwargs)
    conj = diffop.conjugate_by_vandermonde(ht, maps["R"]) if mode == "gauged" else ht
    out = {
        "ok": False,
        "exact_as_printed": False,
        "solved": {},
        "printed": {k: v for k, v in maps.items() if k not in ("kappa_choices", "R")},
        "time_reflected": False,
        "scalar_residual": None,
    }
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


def run_table1(
    families=FAMS,
    modes=TABLE1_MODES,
    hbar_values=None,
    N_values=(2, 3),
    m: int = 2,
) -> list[CheckRecord]:
    """Every table1 row; each mode runs at ``hbar_values``, by default at its ``TABLE1_HBAR``."""
    out = []
    for J in families:
        for mode in modes:
            for hb in TABLE1_HBAR[mode] if hbar_values is None else hbar_values:
                for N in N_values:
                    start = time.perf_counter()
                    rep = table1_resolve(J, mode, hb, m, N)
                    ms = int((time.perf_counter() - start) * 1000)
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
                        bits.append("radial VI taken with the solved first-order correction")
                    out.append(
                        _rec(
                            f"parameter table {J} {mode}, hbar={hb}, N={N}, m={m}",
                            "correspondence of parameters between",
                            ok,
                            resolved=resolved,
                            detail="; ".join(bits) or ("exact as printed" if ok else "the operators differ under the printed map"),
                            ms=ms,
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# N = 1 reduction
# ---------------------------------------------------------------------------


def run_n1(m: int = 2, hbar=Fraction(1, 2)) -> list[CheckRecord]:
    hb = as_rat(hbar)
    reg = session_registry(1)
    out = []
    full = moments.pde_params("VI", m, hb)
    for J in FAMS:
        nag = diffop.build_nagoya_single(reg, J, hb, **full)
        cp = diffop.build_cp_hamiltonian(reg, J, 1, m, hb, **full)
        ok = diffop.operator_equal(cp, nag)
        cond = "a = m hbar" + (" and b+c+d = (m-1) hbar" if J == "VI" else "")
        out.append(
            _rec(
                f"N=1 reduction {J}: multi-particle operator equals the single-particle one under {cond}",
                "reduce to the Hamiltonian operators",
                ok,
            )
        )
    # negative control: family VI without the extra condition must differ
    skew = dict(full, d=full["b"] + full["c"])
    bad = diffop.build_cp_hamiltonian(reg, "VI", 1, m, hb, **skew)
    nag = diffop.build_nagoya_single(reg, "VI", hb, **skew)
    out.append(
        _rec(
            "N=1 reduction negative control: family VI without b+c+d = (m-1) hbar differs",
            "reduce to the Hamiltonian operators",
            not diffop.operator_equal(bad, nag),
        )
    )
    return out


# ---------------------------------------------------------------------------
# Schroedinger checks (symbolic and numeric)
# ---------------------------------------------------------------------------


def run_pde_symbolic(J: str, N: int, m: int, hbar: int, params: dict | None = None, controls: bool = False) -> list[CheckRecord]:
    rep = moments.verify_pde_symbolic(J, N, m, hbar, params)
    # an ok record has tau = N, so the printed hbar d/dt holds exactly at N = 1
    resolved = rep["ok"] and N > 1
    detail = f"time normalization tau = {rep['time_factor']}"
    if resolved:
        detail += " (the stated hbar d/dt holds only at N = 1; the derivations carry hbar N d/dt)"
    elif not rep["ok"] and rep["time_factor"]:
        detail += f" instead of N = {N}"
    out = [
        _rec(
            f"Schroedinger identity {J}, N={N}, m={m}, hbar={hbar}: residual exactly zero",
            "solution to the multi-variable version",
            rep["ok"],
            resolved=resolved,
            detail=detail,
        )
    ]
    if controls:
        bad = moments.verify_pde_symbolic(J, N, m, hbar, params, mutate="m_shift")
        out.append(
            _rec(
                f"negative control {J}, N={N}, m={m}: shifted m hbar coefficient leaves a residual",
                "solution to the multi-variable version",
                not bad["ok"],
            )
        )
    return out


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


def run_pde_numeric(J: str, N: int, m: int, hbar, t, params: dict, prec: int = 64, level: int = 4) -> list[CheckRecord]:
    name = f"numeric Schroedinger residual {J}, N={N}, m={m}, hbar={hbar}, t={t}"
    anchor = "satisfying the Schrodinger equation"
    try:
        rep = quadrature.pde_residual_numeric(J, N, m, hbar, t, params, prec=prec, level=level)
    except QuadratureError as exc:
        return [_rec(name, anchor, False, detail=f"quadrature failed: {exc}")]
    # the two dPhi/dt computations must agree before the residual means anything
    ok = rep["residual"] < mpmath.mpf("1e-6") and rep["dt_agreement"] < mpmath.mpf("1e-8")
    return [
        _rec(
            name,
            anchor,
            ok,
            residual=mpmath.nstr(rep["residual"], 6),
            detail=f"d/dt cross-check {mpmath.nstr(rep['dt_agreement'], 4)}; grid error {mpmath.nstr(rep['grid_error'], 4)}; tau = {rep['time_factor']}",
        )
    ]


def run_oracle_moments(J: str, kmax: int = 6, prec: int = 192, points: int = 3, seed: int = 11) -> list[CheckRecord]:
    """Validate every divergence relation against high-precision quadrature."""
    if kmax < 2:
        raise UsageError(f"kmax must be at least 2: k = 0..{kmax} holds no recursion to check")
    rng = random.Random(seed)
    reg = session_registry(1, seeds=("nu0", "nu1"))
    out = []
    worst = mpmath.mpf(0)
    for _ in range(points):
        t, params = families.weighted(J).sample(rng)
        mf = moments.MasterFunction(J, reg, params)
        relations = [(moments.ibp_relation(mf, n), False) for n in range(0, kmax - 1)]
        if J == "VI":
            relations += [(moments.ibp_relation_partial_vi(mf, n), True) for n in range(0, kmax - 1)]

        def moment_key(kind, k, with_rho):
            return k, 1 if (with_rho and kind == "rho") else 0

        # every moment the relations reference, evaluated in one pass
        keys = sorted({moment_key(kind, k, with_rho) for rel, with_rho in relations for (kind, k) in rel})
        nu = {key: value for key, (value, _) in quadrature.moments_numeric(J, keys, t, params, prec=prec).items()}

        def residual(rel, with_rho):
            # normalized by sum|c_k| * max|moment|: degenerate relations whose
            # only surviving term itself vanishes then score ~0, as they should
            total = mpmath.mpf(0)
            coeff_sum = mpmath.mpf(0)
            mom_max = mpmath.mpf(0)
            for (kind, k), coeff in rel.items():
                cv = coeff.eval({"t": t, "nu0": 0, "nu1": 0})
                mom = nu[moment_key(kind, k, with_rho)]
                total += (mpmath.mpf(cv.numerator) / cv.denominator) * mom
                coeff_sum += abs(mpmath.mpf(cv.numerator) / cv.denominator)
                mom_max = max(mom_max, abs(mom))
            return abs(total) / (coeff_sum * mom_max)

        with mpmath.mp.workprec(prec):
            for rel, with_rho in relations:
                worst = max(worst, residual(rel, with_rho))
    out.append(
        _rec(
            f"moment recursions {J}, k = 0..{kmax}, {points} admissible points",
            "viewed as the divergence of",
            worst < mpmath.mpf("1e-10"),
            residual=mpmath.nstr(worst, 4),
        )
    )
    return out


def run_andreief(prec: int = 96) -> list[CheckRecord]:
    params = {"b": Fraction(-1, 3)}
    t = Fraction(1, 3)
    z = [Fraction(3, 2), Fraction(-2, 3)]
    coeffs, _, _ = quadrature.simplex_phi_coeffs("IV", 2, 2, 1, t, params, prec=prec, level=5, with_dt=False)
    with mpmath.mp.workprec(prec):
        simplex_val = quadrature.phi_value(coeffs, [mpmath.mpf(x.numerator) / x.denominator for x in z], 2)
        det_val = quadrature.andreief_phi("IV", z, t, 2, params, prec=prec)
        rel = abs(2 * simplex_val - det_val) / abs(det_val)
    return [
        _rec(
            "determinant identity: m! det of modified moments equals the m-fold integral (IV, m=2, hbar=1)",
            "product of characteristic polynomials",
            rel < mpmath.mpf("1e-8"),
            residual=mpmath.nstr(rel, 4),
        )
    ]


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
