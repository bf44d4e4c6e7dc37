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

import mpmath

from . import diffop, moments, quadrature, radial, weyl
from .errors import UsageError
from .exact import RatFun, as_rat, session_registry

FAMS = ("II", "III", "IV", "V", "VI")


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
            rep["derived_ok"],
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
                detail=value.to_str() if hasattr(value, "to_str") else str(value),
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
        corr, rep = resolved_radial_corrections("VI", N, hbar)
        printed = radial.verify_radial_match("VI", N, max(1, trials // 2), seed, hbar=hbar)
        if corr is None:
            out.append(
                _rec(
                    f"radial reduction VI, N={N}: printed eigenvalue form exact",
                    "is called the Harish-Chandra map",
                    printed["ok"],
                )
            )
        else:
            check = radial.verify_radial_match("VI", N, trials, seed, hbar=hbar, corrections=corr)
            a10, a11 = corr["first_order"][1]
            out.append(
                _rec(
                    f"radial reduction VI, N={N}: exact after solved first-order correction",
                    "is called the Harish-Chandra map",
                    (not printed["ok"]) and check["ok"] and rep["verified"],
                    resolved=True,
                    detail=(
                        "printed first-order z-coefficient -hbar(1+t) must read -2 hbar(1+t): "
                        f"fitted additive correction ({a10} + {a11} t) sum_rho z_rho d_rho inside t(t-1)"
                    ),
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


def run_gauge(N_values=(2, 3), hbar_values=(Fraction(1, 2), Fraction(1, 3), Fraction(2)), m: int = 2) -> list[CheckRecord]:
    out = []
    for N in N_values:
        for hb in hbar_values:
            for branch, kappa in (("kappa=1/hbar-1", 1 / as_rat(hb) - 1), ("kappa=-1/hbar", -1 / as_rat(hb))):
                lam_seen = []
                ok_all = True
                resolved_any = False
                for a in (0, 1, 2, 3):
                    rep = diffop.theorem_gauge_check(N, a, hb, kappa)
                    ok_all &= rep["status"] in ("pass", "resolved-with-correction")
                    resolved_any |= rep["status"] == "resolved-with-correction"
                    if a in (2, 3):
                        lam_seen.append((a, rep.get("lambda")))
                detail = ", ".join(f"a={a}: lambda={lam}" for a, lam in lam_seen)
                out.append(
                    _rec(
                        f"gauge conjugation powers a=0..3, N={N}, hbar={hb}, {branch}",
                        "Define the two sequences of differential operators",
                        ok_all,
                        resolved=resolved_any,
                        detail=f"printed corrections need the prefactor hbar^2-1 ({detail})" if resolved_any else detail,
                    )
                )
    # printed lemma for family II: solve theta and compare
    for N in N_values:
        for hb in hbar_values:
            rep = table1_resolve("II", "gauged", hb, m, N)
            solved = rep["solved"].get("theta")
            printed = diffop.table_params("II", hb, "gauged", m, N)["theta"]
            out.append(
                _rec(
                    f"gauged identification, family II, N={N}, hbar={hb}, m={m}: theta solved exactly",
                    "equivalent to the action of",
                    rep["ok"],
                    resolved=solved != printed,
                    detail=f"theta solved = {solved}; printed = {printed}"
                    + ("" if solved == printed else " (printed value holds only at N = 1 or hbar = 1)"),
                )
            )
    return out


# ---------------------------------------------------------------------------
# Parameter table resolution
# ---------------------------------------------------------------------------


def _ratfun_constant(r: RatFun):
    reg = r.reg
    point = {n: Fraction(13, 3) for n in reg.names}
    try:
        c = r.eval(point)
    except ZeroDivisionError:
        return None
    return c if (r - RatFun.const(reg, c)).is_zero() else None


def _split_scalar_sumz(expr: RatFun, reg, N: int):
    """expr(z, t) = alpha(t) + beta(t) sum_rho z_rho, or None if not of that shape."""
    zs = diffop.zvars(reg)[:N]
    pts0 = {zn: Fraction(2 + 3 * i, 7) for i, zn in enumerate(zs)}
    pts1 = {zn: Fraction(5 + 2 * i, 3) for i, zn in enumerate(zs)}
    e0, e1 = expr.subs(pts0), expr.subs(pts1)
    s0, s1 = sum(pts0.values()), sum(pts1.values())
    beta = (e1 - e0) * (1 / Fraction(s1 - s0))
    alpha = e0 - beta * s0
    sumz = RatFun.const(reg, 0)
    for zn in zs:
        sumz = sumz + RatFun.var(reg, zn)
    if (expr - alpha - beta * sumz).is_zero():
        return alpha, beta
    return None


def table1_resolve(J: str, mode: str, hbar, m: int, N: int, family: dict | None = None):
    """Compare CP_J with the (conjugated) radial form under the printed maps.

    Any mismatch is resolved into: a solved parameter (theta for II, k^2 for
    VI), a scalar-in-t gauge residual, and for family III the documented time
    reflection t -> -t with a Hamiltonian sign flip.  Returns a report dict.
    """
    hb = as_rat(hbar)
    if family is None:
        family = {"a": Fraction(2, 7), "b": Fraction(-1, 3), "c": Fraction(-1, 5), "d": Fraction(3, 11)}
    family = {k: v for k, v in family.items() if k in ("a", "b", "c", "d")}
    reg = session_registry(N)
    cp_kwargs = {
        "II": {},
        "III": {"b": family["b"]},
        "IV": {"b": family["b"]},
        "V": {"b": family["b"], "c": family["c"]},
        "VI": family,
    }[J]
    cp = diffop.build_cp_hamiltonian(reg, J, N, m, hb, **cp_kwargs)
    maps = diffop.table_params(J, hb, mode, m, N, **family)
    theta_kwargs = {k: v for k, v in maps.items() if k in ("th", "th0", "th1", "th2", "tht", "k2")}
    if J == "II":
        theta_kwargs = {"th": maps["theta"]}
    corr = None
    if J == "VI":
        corr, rep = resolved_radial_corrections("VI", N, hb)
    results = []
    for kappa in maps["kappa_choices"]:
        ht = radial.build_radial_hamiltonian(reg, J, N, hb, kappa, corrections=corr, **theta_kwargs)
        conj = diffop.conjugate_by_vandermonde(ht, maps["R"]) if mode == "gauged" else ht
        reflected = False
        diff = conj - cp
        if not all(x.is_zero() for x in diff.A) or not all(x.is_zero() for x in diff.B):
            refl = conj.time_reflected() - cp
            if all(x.is_zero() for x in refl.A) and all(x.is_zero() for x in refl.B):
                diff, reflected = refl, True
            else:
                results.append({"kappa": kappa, "ok": False, "why": "derivative coefficients differ"})
                continue
        split = _split_scalar_sumz(diff.C, reg, N)
        if split is None:
            results.append({"kappa": kappa, "ok": False, "why": "zeroth order not scalar + sum z"})
            continue
        alpha, beta = split
        solved = {}
        ok = True
        if not beta.is_zero():
            t = RatFun.var(reg, "t")
            if J == "II":
                delta = _ratfun_constant(beta)
                if delta is None:
                    ok = False
                else:
                    solved["theta"] = maps["theta"] + delta
            elif J == "VI":
                k2c = _ratfun_constant(beta * 4 * t * (t - 1) * (1 if not reflected else 1))
                if k2c is None:
                    ok = False
                else:
                    solved["k2"] = maps["k2"] + k2c
            else:
                ok = False
        alpha_str = None if alpha.is_zero() else alpha.to_str()
        results.append(
            {
                "kappa": kappa,
                "ok": ok,
                "time_reflected": reflected,
                "scalar_residual": alpha_str,
                "solved": solved,
            }
        )
    ok = all(r["ok"] for r in results)
    solved = results[0].get("solved", {}) if results else {}
    exact_as_printed = ok and all(
        not r.get("solved") and r.get("scalar_residual") is None and not r.get("time_reflected") for r in results
    )
    # both kappa branches must agree (kappa enters through kappa(kappa+1) only)
    branches_agree = len({str(sorted((r.get("solved") or {}).items())) for r in results}) <= 1
    return {
        "ok": ok and branches_agree,
        "exact_as_printed": exact_as_printed,
        "results": results,
        "solved": solved,
        "printed": {k: v for k, v in maps.items() if k not in ("kappa_choices", "R")},
        "time_reflected": any(r.get("time_reflected") for r in results),
        "scalar_residual": results[0].get("scalar_residual") if results else None,
    }


def run_table1(
    families=FAMS,
    modes=("ungauged", "gauged"),
    hbar_values=(Fraction(1, 2), Fraction(2)),
    N_values=(2, 3),
    m: int = 2,
) -> list[CheckRecord]:
    out = []
    for J in families:
        for mode in modes:
            hb_list = (Fraction(1),) if mode == "ungauged" else hbar_values
            for hb in hb_list:
                for N in N_values:
                    start = time.perf_counter()
                    rep = table1_resolve(J, mode, hb, m, N)
                    ms = int((time.perf_counter() - start) * 1000)
                    resolved = rep["ok"] and not rep["exact_as_printed"]
                    bits = []
                    if rep["time_reflected"]:
                        bits.append("needs the time reflection t -> -t (with H -> -H)")
                    if rep["solved"]:
                        bits.append(
                            "; ".join(f"{k} solved = {v} (printed {rep['printed'].get(k if k != 'theta' else 'theta')})" for k, v in rep["solved"].items())
                        )
                    if rep["scalar_residual"]:
                        bits.append(f"scalar gauge residual {rep['scalar_residual']}")
                    if J == "VI":
                        bits.append("radial VI taken with the solved first-order correction")
                    out.append(
                        _rec(
                            f"parameter table {J} {mode}, hbar={hb}, N={N}, m={m}",
                            "correspondence of parameters between",
                            rep["ok"],
                            resolved=resolved,
                            detail="; ".join(bits) if bits else "exact as printed",
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
    b, c = Fraction(-1, 3), Fraction(-1, 5)
    for J in FAMS:
        a = m * hb
        kwargs = {"II": {}, "III": {"b": b}, "IV": {"b": b}, "V": {"b": b, "c": c}}.get(J)
        if J == "VI":
            d = (m - 1) * hb - b - c
            kwargs = {"a": a, "b": b, "c": c, "d": d}
            nag = diffop.build_nagoya_single(reg, J, hb, a=a, b=b, c=c, d=d)
        else:
            nag = diffop.build_nagoya_single(reg, J, hb, a=a, b=b, c=c)
        cp = diffop.build_cp_hamiltonian(reg, J, 1, m, hb, **kwargs)
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
    bad = diffop.build_cp_hamiltonian(reg, "VI", 1, m, hb, a=m * hb, b=b, c=c, d=b + c)
    nag = diffop.build_nagoya_single(reg, "VI", hb, a=m * hb, b=b, c=c, d=b + c)
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
    detail = f"time normalization tau = {rep.get('time_factor')}"
    if N > 1 and rep["ok"]:
        detail += " (the stated hbar d/dt holds only at N = 1; the derivations carry hbar N d/dt)"
    out = [
        _rec(
            f"Schroedinger identity {J}, N={N}, m={m}, hbar={hbar}: residual exactly zero",
            "solution to the multi-variable version",
            rep["ok"],
            resolved=rep["ok"] and not rep["naive_time_factor_ok"],
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
    p = dict(base)
    if J == "VI":
        p["a"] = m * as_rat(hbar)
        p["d"] = (m - 1) * as_rat(hbar) - p["b"] - p["c"]
    return p


def run_pde_numeric(
    J: str,
    N: int = 2,
    m: int = 2,
    hbar=Fraction(1, 2),
    t=None,
    params: dict | None = None,
    prec: int = 64,
    level: int = 4,
) -> list[CheckRecord]:
    if t is None or params is None:
        t, base = NUMERIC_POINTS[J][0]
        params = numeric_pde_params(J, m, hbar, base)
    rep = quadrature.pde_residual_numeric(J, N, m, hbar, t, params, prec=prec, level=level)
    ok = rep["residual"] < mpmath.mpf("1e-6") and rep["dt_agreement"] < mpmath.mpf("1e-8")
    return [
        _rec(
            f"numeric Schroedinger residual {J}, N={N}, m={m}, hbar={hbar}, t={t}",
            "satisfying the Schrodinger equation",
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
        t, params = _random_admissible(J, rng)
        mf = moments.MasterFunction(J, reg, params)
        cache: dict = {}

        def nu(k, s=0):
            if (k, s) not in cache:
                cache[(k, s)] = quadrature.moment_numeric(J, k, s, t, params, prec=prec)[0]
            return cache[(k, s)]

        def residual(rel, with_rho=False):
            # normalized by sum|c_k| * max|moment|: degenerate relations whose
            # only surviving term itself vanishes then score ~0, as they should
            total = mpmath.mpf(0)
            coeff_sum = mpmath.mpf(0)
            mom_max = mpmath.mpf(0)
            for key, coeff in rel.terms.items():
                ((kind, k),) = key
                cv = coeff.eval({"t": t, "nu0": 0, "nu1": 0})
                mom = nu(k, 1 if (with_rho and kind == "rho") else 0)
                total += (mpmath.mpf(cv.numerator) / cv.denominator) * mom
                coeff_sum += abs(mpmath.mpf(cv.numerator) / cv.denominator)
                mom_max = max(mom_max, abs(mom))
            return abs(total) / (coeff_sum * mom_max)

        with mpmath.mp.workprec(prec):
            for n in range(0, kmax - 1):
                worst = max(worst, residual(moments.ibp_relation(mf, n)))
            if J == "VI":
                for n in range(0, kmax - 1):
                    worst = max(worst, residual(moments.ibp_relation_partial_vi(mf, n), with_rho=True))
    out.append(
        _rec(
            f"moment recursions {J}, k = 0..{kmax}, {points} admissible points",
            "viewed as the divergence of",
            worst < mpmath.mpf("1e-10"),
            residual=mpmath.nstr(worst, 4),
        )
    )
    return out


def _random_admissible(J: str, rng: random.Random):
    def neg():
        return -Fraction(rng.randint(1, 6), rng.randint(2, 9))

    if J == "II":
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3)), {}
    if J == "III":
        return -Fraction(rng.randint(1, 5), rng.randint(1, 3)), {"b": neg()}
    if J == "IV":
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3)), {"b": neg()}
    if J == "V":
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3)), {"b": neg(), "c": neg()}
    a = neg()
    return 1 + Fraction(rng.randint(1, 5), rng.randint(1, 4)), {
        "a": a,
        "b": neg() / 2,
        "c": neg(),
        "d": Fraction(rng.randint(1, 5), rng.randint(2, 7)),
    }


def run_andreief(prec: int = 96) -> list[CheckRecord]:
    params = {"b": Fraction(-1, 3)}
    t = Fraction(1, 3)
    z = [Fraction(3, 2), Fraction(-2, 3)]
    coeffs, err = quadrature.phi_numeric("IV", 2, 2, 1, t, params, prec=prec, level=5)
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
