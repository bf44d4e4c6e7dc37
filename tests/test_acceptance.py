"""Acceptance suite: one test per criterion, each timed against its budget.

Every criterion prints one PASS/FAIL line (visible with ``pytest -s``; the
same matrix is runnable via ``cpverify suite acceptance``).  Where a printed
identity holds only after an explicitly solved correction, the criterion line
says so; the correction is part of the assertion, never a silent fix.
"""

import time
from fractions import Fraction

import mpmath
import pytest

from cpverify import checks, diffop, moments, quadrature, radial, weyl


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, f"{self.name}: {self.elapsed:.1f}s exceeds {self.seconds}s budget"


def report(line):
    print(line, flush=True)


def test_criterion_1_trace_identities():
    with Budget("criterion 1", 5):
        for N in (1, 2, 3):
            for name, diffp in weyl.trace_identity_residuals(N):
                assert diffp.is_zero(), f"N={N}: {name}"
    report("criterion 1: PASS - five trace-reordering identities exact for N = 1, 2, 3 with symbolic hbar")


def test_criterion_2_worked_example():
    with Budget("criterion 2", 5):
        for N in (2, 3):
            rep = weyl.check_worked_commutator(N)
            assert rep["derived_ok"], f"derived identity failed at N={N}"
            assert rep["classical_ok"], f"classical bracket failed at N={N}"
            # the printed remainder hbar^2 p is provably the N=1 value
            assert not rep["printed_ok"], f"printed N-independent form unexpectedly held at N={N}"
        assert weyl.check_worked_commutator(1)["printed_ok"]
    report(
        "criterion 2: PASS with documented correction - [p, Tr(pqpq)] = 2 hbar pqp + hbar^2 N p exactly for "
        "N = 2, 3 (printed constant hbar^2 p is its N = 1 value); classical bracket gives 2 pqp"
    )


def test_criterion_3_equations_of_motion():
    with Budget("criterion 3", 60):
        rep = weyl.verify_eom_vi(2)
        assert rep["ok"], rep["failures"][:1]
    report("criterion 3: PASS - [t(t-1)H_VI, q] = hbar t(t-1) A and [.., p] = hbar t(t-1) B exactly at N = 2")


def test_criterion_4_zero_curvature():
    with Budget("criterion 4", 60):
        rep = weyl.verify_zero_curvature()
        assert all(ok for _, ok in rep["residue_checks"]), rep["residue_checks"]
        assert rep["ok"], rep["offenders"][:2]
    report("criterion 4: PASS - Lax residual vanishes identically in the free algebra; pole structure as printed")


def test_criterion_5_radial_reduction():
    checks._RESOLVED_RADIAL_CACHE.clear()
    with Budget("criterion 5", 60):
        hbar = Fraction(1, 2)
        for N in (2, 3):
            for J in ("I", "II", "III", "IV", "V"):
                rep = radial.verify_radial_match(J, N, trials=5, seed=42, hbar=hbar)
                assert rep["ok"], (J, N, rep["mismatches"][:1])
            qk = radial.verify_qkp2(N, kmax=3, trials=2, seed=43, hbar=hbar)
            assert qk["ok"], (N, qk["mismatches"][:1])
            # family VI: the printed eigenvalue form fails; the engine solves the
            # unique first-order correction and the match is then exact
            printed = radial.verify_radial_match("VI", N, trials=2, seed=44, hbar=hbar)
            assert not printed["ok"], "printed VI form unexpectedly matches"
            corr, rep = radial.resolve_radial_corrections("VI", N, hbar, seed=9)
            assert rep["verified"], rep
            assert corr["first_order"][1] == (-hbar * hbar, -hbar * hbar)
            fixed = radial.verify_radial_match("VI", N, trials=5, seed=45, hbar=hbar, corrections=corr)
            assert fixed["ok"], fixed["mismatches"][:1]
    report(
        "criterion 5: PASS with documented correction - matrix operators equal the printed eigenvalue forms "
        "exactly on random rational points (N = 2, 3; families I..V and Tr(q^k p^2), k <= 3); family VI matches "
        "after the solved correction (printed z-coefficient -hbar(1+t) must read -2 hbar(1+t))"
    )


def test_criterion_6_gauge_theorems():
    with Budget("criterion 6", 30):
        lambdas = set()
        for N in (2, 3):
            for hb in (Fraction(1, 2), Fraction(1, 3), Fraction(2)):
                k_plus, k_minus = 1 / hb - 1, -1 / hb
                # kappa enters the operators only through kappa(kappa+1); the
                # two printed branches coincide there, so one run covers both
                # (the full double sweep runs in the regular suite)
                assert k_plus * (k_plus + 1) == k_minus * (k_minus + 1)
                for a in (0, 1, 2, 3):
                    rep = diffop.theorem_gauge_check(N, a, hb, k_plus)
                    assert rep["orders_ok"] and rep["scalar_ok"], (N, hb, a, rep)
                    if N == 3 and a in (2, 3):
                        assert rep["status"] == "resolved-with-correction"
                        assert rep["lambda"] == hb * hb - 1, (N, hb, a, rep)
                        lambdas.add((hb, rep["lambda"]))
                    else:
                        assert rep["status"] == "pass"
        # the printed lemma: theta solved for the gauged family-II identification
        for N in (2, 3):
            for hb in (Fraction(1, 2), Fraction(1, 3), Fraction(2)):
                rep = checks.table1_resolve("II", "gauged", hb, 2, N)
                assert rep["ok"]
                assert rep["solved"]["theta"] == Fraction(3, 2) - N - 3 * hb
    report(
        "criterion 6: PASS with documented correction - gauge conjugation exact for powers a = 0..3 at "
        f"hbar in (1/2, 1/3, 2), both kappa branches, N = 2, 3; printed a = 2, 3 corrections need the solved "
        f"prefactor lambda = hbar^2 - 1 {sorted(lambdas)}; the printed lemma theta is replaced by the solved "
        "3/2 - N - hbar(1+m) (they agree at N = 1 or hbar = 1)"
    )


def test_criterion_7_parameter_table():
    with Budget("criterion 7", 60):
        N = 2
        for J in checks.FAMS:
            rep = checks.table1_resolve(J, "ungauged", 1, 2, N)
            assert rep["ok"], (J, rep)
            for hb in (Fraction(1, 2), Fraction(2)):
                rep = checks.table1_resolve(J, "gauged", hb, 2, N)
                assert rep["ok"], (J, hb, rep)
                if J == "VI":
                    assert "k2" in rep["solved"], "gauged k^2 must be re-solved"
    report(
        "criterion 7: PASS with documented corrections - parameter table verified at hbar = 1 (ungauged) and "
        "hbar in (1/2, 2) (gauged, both kappa branches): II exact ungauged, gauged theta re-solved; III holds "
        "under the time reflection t -> -t; IV, V leave scalar-in-t gauge residuals only; VI holds with the "
        "printed ungauged k^2 = A and a re-solved gauged k^2 (printed B differs)"
    )


def test_criterion_8_n1_reduction():
    with Budget("criterion 8", 5):
        recs = checks.run_n1(m=2, hbar=Fraction(1, 2))
        assert all(r.ok for r in recs), [r.name for r in recs if not r.ok]
        recs3 = checks.run_n1(m=3, hbar=Fraction(1, 3))
        assert all(r.ok for r in recs3)
    report(
        "criterion 8: PASS - multi-particle operators at N = 1 equal the single-particle ones under a = m hbar "
        "(plus b+c+d = (m-1) hbar for VI); negative control without the extra condition differs"
    )


def test_criterion_9_symbolic_pde():
    with Budget("criterion 9", 600):
        for J in checks.FAMS:
            for (N, m) in ((1, 1), (1, 2), (2, 1), (2, 2)):
                rep = moments.verify_pde_symbolic(J, N, m, 1)
                assert rep["ok"], (J, N, m, rep)
                assert rep["time_factor"] == str(N)
        for J in ("II", "IV"):
            rep = moments.verify_pde_symbolic(J, 2, 2, 2)
            assert rep["ok"] and rep["time_factor"] == "2"
        bad = moments.verify_pde_symbolic("II", 2, 2, 1, mutate="m_shift")
        assert not bad["ok"]
        bad6 = moments.verify_pde_symbolic("VI", 2, 1, 1, mutate="m_shift")
        assert not bad6["ok"]
    report(
        "criterion 9: PASS - Schroedinger residual exactly zero for J = II..VI at (N,m) in "
        "{(1,1),(1,2),(2,1),(2,2)}, hbar = 1, and for II, IV at (2,2), hbar = 2; negative controls leave "
        "nonzero residuals; the solved time normalization is hbar N d/dt throughout"
    )


@pytest.mark.slow
def test_criterion_10_numeric_pde():
    with Budget("criterion 10", 600):
        worst = mpmath.mpf(0)
        for J in ("V", "VI"):
            for t, base in checks.NUMERIC_POINTS[J]:
                params = checks.numeric_pde_params(J, 2, Fraction(1, 2), base)
                rep = quadrature.pde_residual_numeric(J, 2, 2, Fraction(1, 2), t, params, prec=64, level=4)
                assert rep["residual"] < mpmath.mpf("1e-6"), (J, t, rep)
                assert rep["dt_agreement"] < mpmath.mpf("1e-8"), (J, t, rep)
                worst = max(worst, rep["residual"])
    report(
        f"criterion 10: PASS - numeric Schroedinger residual < 1e-6 (worst {mpmath.nstr(worst, 3)}) for "
        "J = V, VI at hbar = 1/2, (N,m) = (2,2), two admissible (t, params) points each; the two dPhi/dt "
        "computations agree to 1e-8"
    )


@pytest.mark.slow
def test_criterion_11_cross_path():
    with Budget("criterion 11", 300):
        worst = mpmath.mpf(0)
        for J in checks.FAMS:
            recs = checks.run_oracle_moments(J, kmax=6, prec=192, points=3, seed=11)
            assert all(r.ok for r in recs), (J, [r.residual for r in recs])
            worst = max(worst, mpmath.mpf(recs[0].residual))
        recs = checks.run_andreief(prec=96)
        assert all(r.ok for r in recs), [r.residual for r in recs]
    report(
        f"criterion 11: PASS - moment recursions validated numerically to 1e-10 (worst {mpmath.nstr(worst, 3)}) "
        "for k = 0..6, all five families, three admissible points each; the determinant form matches the "
        "m-fold integral to 1e-8 at hbar = 1, m = 2"
    )
