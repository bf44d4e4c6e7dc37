import dataclasses
import time
from fractions import Fraction

import pytest

from cpverify import checks, diffop, families, radial
from cpverify.cli import main
from cpverify.checks import table1_resolve
from cpverify.errors import QuadratureError, UsageError
from cpverify.params import parse_params
from cpverify.weyl import WeylAlgebra, evaluate_expression


def ok_all(recs):
    return all(r.ok for r in recs)


# the runner calls the acceptance matrix makes (checks.acceptance_matrix) are
# asserted by tests/test_acceptance.py only; the runner calls here take other
# arguments


def test_run_weyl_and_eom():
    recs = checks.run_weyl(2, expr="Tr(p*q) - Tr(q*p)")
    assert ok_all(recs)
    assert any(r.resolved for r in recs)  # the worked-example constant carries N
    assert ok_all(checks.run_eom(1))


def test_run_weyl_charges_each_record_its_own_work(monkeypatch):
    # the classical bracket's time is its record's alone, not its neighbours'
    bracket = checks.weyl.worked_bracket

    def slow(N):
        time.sleep(0.2)
        return bracket(N)

    monkeypatch.setattr(checks.weyl, "worked_bracket", slow)
    recs = checks.run_weyl(1, expr="[Tr(p*p), q]")
    assert len(recs) == 8 and ok_all(recs)
    assert [r.ms >= 200 for r in recs] == [False] * 6 + [True, False]


def test_a_cached_worked_reduction_reads_near_zero(monkeypatch):
    # the reduction runs once per N; the radial block's record used to read half of the block
    qkp2 = radial.verify_qkp2

    def slow(*args):
        time.sleep(0.2)
        return qkp2(*args)

    monkeypatch.setattr(radial, "verify_qkp2", slow)
    monkeypatch.setattr(checks, "_WORKED_REDUCTION_CACHE", {})
    first = checks.run_radial("I", 2, trials=1, seed=3)
    second = checks.run_radial("III", 2, trials=1, seed=3)
    assert ok_all(first + second)
    assert first[0].ms < 200 <= first[1].ms
    assert second[0].ms < 200 and second[1].ms < 100


def test_the_curvature_record_carries_the_residual(monkeypatch):
    # the structure checks are computed before the residual, each as its record is due
    d_dt_free = checks.weyl.d_dt_free

    def slow(*args):
        time.sleep(0.05)  # once per entry of the 2x2 A
        return d_dt_free(*args)

    monkeypatch.setattr(checks.weyl, "d_dt_free", slow)
    *structure, curvature = checks.run_zero_curvature()
    assert len(structure) == 6 and ok_all(structure + [curvature])
    assert curvature.ms >= 200 and all(r.ms < 200 for r in structure)


def test_run_radial_families():
    assert ok_all(checks.run_radial("III", 2, trials=2, seed=3))
    recs = checks.run_radial("VI", 2, trials=2, seed=3)
    assert ok_all(recs)
    assert any(r.resolved for r in recs)


def worked_records(monkeypatch, qkp2_radial_op):
    """The six families' worked-reduction records at N = 2, seed 42, from cold caches.

    ``qkp2_radial_op`` replaces the worked reduction's radial operator, built at each point.
    """
    monkeypatch.setattr(checks, "_WORKED_REDUCTION_CACHE", {})
    monkeypatch.setattr(checks, "_RESOLVED_RADIAL_CACHE", {})
    monkeypatch.setattr(radial, "qkp2_radial_op", qkp2_radial_op)
    recs = [rec for J in families.NAMES for rec in checks.run_radial(J, 2, 5, 42)]
    return [rec for rec in recs if rec.name.startswith("worked reduction")]


def test_the_worked_reduction_runs_once_per_argument_set(monkeypatch):
    runs, ks = [], []
    verify, real = radial.verify_qkp2, radial.qkp2_radial_op
    monkeypatch.setattr(radial, "verify_qkp2", lambda *a: runs.append(a) or verify(*a))

    def counted(zs, k, hbar, kappa):
        ks.append(k)
        return real(zs, k, hbar, kappa)

    recs = worked_records(monkeypatch, counted)
    assert runs == [(2, 3, 2, 43, Fraction(1, 2))]  # one run serves the six families
    assert ks == [0, 0, 1, 1, 2, 2, 3, 3]  # one operator per point: two points per k
    assert len(recs) == 6 and all(rec.ok for rec in recs)


def test_a_wrong_worked_reduction_fails_every_record_that_carries_it(monkeypatch):
    real = radial.qkp2_radial_op

    def wrong(zs, k, hbar, kappa):
        op = real(zs, k, hbar, kappa)
        op.C = op.C + 1
        return op

    recs = worked_records(monkeypatch, wrong)
    assert len(recs) == 6 and not any(rec.ok for rec in recs)


def test_a_vi_gap_outside_the_ansatz_fails_by_name(monkeypatch, capsys):
    fam = families.family("VI")
    mutant = dataclasses.replace(fam, hamiltonian=lambda t, p: [*fam.hamiltonian(t, p), (1, "qqqq")])
    monkeypatch.setitem(families._BY_NAME, "VI", mutant)
    monkeypatch.setattr(checks, "_RESOLVED_RADIAL_CACHE", {})
    reason = "no first-order correction of the fitted shape (inconsistent linear system)"
    rec, _ = checks.run_radial("VI", 2, 5, 42)
    assert not rec.ok and reason in rec.detail
    rep = checks.table1_resolve("VI", "gauged", Fraction(1, 2), 2, 2)
    assert not rep["ok"] and reason in rep["reason"]
    (rec,) = checks.run_table1(("VI",), ("gauged",), (Fraction(1, 2),), (2,))
    assert not rec.ok and reason in rec.detail
    # a failed check, not a usage error
    assert main(["verify", "radial", "--family", "VI", "--json"]) == 1
    assert "usage error" not in capsys.readouterr().err


def test_run_gauge_scalar():
    assert ok_all(checks.run_gauge_transformation(3))


def test_run_gauge_lambda():
    # hbar = 3/2 lies outside the gauge block's (1/2, 1/3, 2)
    recs = checks.run_gauge(N_values=(3,), hbar_values=(Fraction(3, 2),))
    assert ok_all(recs)
    assert any("hbar^2-1" in (r.detail or "") for r in recs)


@pytest.mark.parametrize("J,expect_solved,expect_reflect", [
    ("II", "theta", False),
    ("III", None, True),
    ("IV", None, False),
    ("V", None, False),
    ("VI", "k2", False),
])
def test_table1_gauged_resolutions(J, expect_solved, expect_reflect):
    rep = table1_resolve(J, "gauged", Fraction(3, 2), 2, 2)
    assert rep["ok"]
    assert rep["time_reflected"] == expect_reflect
    if expect_solved:
        assert expect_solved in rep["solved"]
    else:
        assert not rep["solved"]


def test_table1_ungauged_ii_exact():
    rep = table1_resolve("II", "ungauged", 1, 3, 2)
    assert rep["ok"] and rep["exact_as_printed"]


def test_gauge_lemma_with_nothing_solved_is_not_resolved():
    # at hbar = 1 the printed theta holds, so nothing is solved and nothing resolved
    lemma = checks.run_gauge(N_values=(2,), hbar_values=(Fraction(1),))[-1]
    assert lemma.ok and not lemma.resolved
    assert lemma.detail == "theta solved = None; printed = -7/2"


def test_one_build_per_coupling(monkeypatch):
    builds, powers = [], []
    build, check = radial.build_radial_hamiltonian, diffop.theorem_gauge_check
    monkeypatch.setattr(radial, "build_radial_hamiltonian", lambda *a, **kw: builds.append(a) or build(*a, **kw))
    monkeypatch.setattr(diffop, "theorem_gauge_check", lambda *a: powers.append(a) or check(*a))
    assert table1_resolve("IV", "gauged", Fraction(1, 2), 2, 2)["ok"]
    assert len(builds) == 1
    assert ok_all(checks.run_gauge())
    assert len(powers) == 24  # (N, hbar, a) over 2 x 3 x 4, each serving both kappa branches


def test_a_kappa_choice_with_another_coupling_fails(monkeypatch):
    table_params = diffop.table_params

    def mutant(J, hbar, mode, *args, **kwargs):
        out = table_params(J, hbar, mode, *args, **kwargs)
        if mode == "gauged":
            # kappa = 1/hbar gives kappa(kappa+1) = (1/hbar)(1/hbar + 1), not R(R+1)
            out["kappa_choices"] = (out["kappa_choices"][0], 1 / Fraction(hbar))
        return out

    monkeypatch.setattr(diffop, "table_params", mutant)
    (rec,) = checks.run_table1(("IV",), ("gauged",), (Fraction(1, 2),), (2,))
    assert not rec.ok
    recs = checks.run_gauge(N_values=(2,), hbar_values=(Fraction(1, 2),))
    powers = [r for r in recs if r.name.startswith("gauge conjugation powers")]
    assert len(powers) == 2 and not any(r.ok for r in powers)


def test_run_n1():
    assert ok_all(checks.run_n1(m=3, hbar=Fraction(1, 3)))


def test_a_quadrature_failure_is_a_failed_record(monkeypatch):
    def fail(*args, **kwargs):
        raise QuadratureError("wave function vanished identically on the grid")

    monkeypatch.setattr(checks.quadrature, "pde_residual_numeric", fail)
    t, base = checks.NUMERIC_POINTS["V"][0]
    params = checks.numeric_pde_params("V", 2, Fraction(1, 2), base)
    (rec,) = checks.run_pde_numeric("V", 2, 2, Fraction(1, 2), t, params)
    assert not rec.ok
    assert rec.detail == "quadrature failed: wave function vanished identically on the grid"


def test_run_pde_symbolic_with_controls():
    recs = checks.run_pde_symbolic("III", 2, 2, 2, controls=True)
    assert ok_all(recs)
    assert len(recs) == 2


@pytest.mark.parametrize("J", checks.FAMS)
def test_the_control_shares_the_wave_function(J, monkeypatch):
    built = []
    build_phi = checks.moments.build_phi

    def counted(*args):
        built.append(args[:4])
        return build_phi(*args)

    monkeypatch.setattr(checks.moments, "build_phi", counted)
    check, control = checks.run_pde_symbolic(J, 2, 2, 1, controls=True)
    assert built == [(J, 2, 2, 1)]
    assert (check.name, check.ok, check.resolved, check.detail) == (
        f"Schroedinger identity {J}, N=2, m=2, hbar=1: residual exactly zero",
        True,
        True,
        "time normalization tau = 2 (the stated hbar d/dt holds only at N = 1; the derivations carry hbar N d/dt)",
    )
    assert (control.name, control.ok, control.resolved, control.detail) == (
        f"negative control {J}, N=2, m=2: shifted m hbar coefficient leaves a residual",
        True,
        False,
        None,
    )


def test_pde_symbolic_records_time_their_own_work(monkeypatch):
    # the check's time includes the shared wave function's build, the control's does not
    build_phi = checks.moments.build_phi

    def slow(*args):
        time.sleep(0.2)
        return build_phi(*args)

    monkeypatch.setattr(checks.moments, "build_phi", slow)
    check, control = checks.run_pde_symbolic("II", 1, 1, 1, controls=True)
    assert check.ms >= 200 > control.ms


def test_expression_grammar():
    alg = WeylAlgebra(2)
    tr = evaluate_expression(alg, "Tr(p*q*p*q)")
    assert tr == alg.trace_word("pqpq")
    t2 = evaluate_expression(alg, "Tr(q^2)")
    assert t2 == alg.trace_word("qq")
    ent = evaluate_expression(alg, "p[1][2]")
    assert ent == alg.p(1, 2)
    comm = evaluate_expression(alg, "[Tr(p*p), q[1][1]]")
    hb = alg.registry.var("hbar")
    assert comm == alg.p(1, 1).scale(2 * hb)
    combo = evaluate_expression(alg, "Tr(p*q) - Tr(q*p) - 4*hbar")
    assert combo.is_zero()
    with pytest.raises(UsageError):
        evaluate_expression(alg, "Tr(x)")
    with pytest.raises(UsageError):
        evaluate_expression(alg, "p[1][2")


def test_parse_params():
    # every pair parses to a Fraction; which keys a task reads is the CLI's rule
    ps = parse_params("b=-1/3,c=-1/5,N=2,hbar=1/2")
    assert ps == {"b": Fraction(-1, 3), "c": Fraction(-1, 5), "N": 2, "hbar": Fraction(1, 2)}
    assert all(type(v) is Fraction for v in ps.values())
    assert parse_params("k2=4/9")["k2"] == Fraction(4, 9)
    for bad in ("b=1/x", "b", "b=1,b=2"):
        with pytest.raises(UsageError):
            parse_params(bad)


@pytest.mark.parametrize("kmax", [-1, 0, 1])
def test_oracle_moments_rejects_kmax_below_two(kmax):
    with pytest.raises(UsageError):
        checks.run_oracle_moments("VI", kmax=kmax, prec=64, points=1)


def test_table1_records_carry_their_own_time():
    start = time.perf_counter()
    recs = checks.run_table1(("II",), ("ungauged",), (Fraction(1),), (2, 2), m=3)
    elapsed_ms = (time.perf_counter() - start) * 1000
    assert len(recs) == 2 and all(r.ms > 0 for r in recs)
    assert sum(r.ms for r in recs) <= elapsed_ms  # not the block's cumulative time


@pytest.mark.parametrize("seed", [-1, 1, 2, 4, 6, 7, 8])
def test_oracle_moments_iv_passes_at_64_bits(seed):
    # one mpmath.quad per k on (0, inf) missed the u^(-b-1) endpoint at these seeds
    recs = checks.run_oracle_moments("IV", kmax=4, prec=64, points=3, seed=seed)
    assert ok_all(recs), recs[0].residual


def test_oracle_fails_on_a_moment_error_estimate_at_its_bound(monkeypatch):
    # the residual alone passes: only the moments' own error estimate fails it
    moments_numeric = checks.quadrature.moments_numeric

    def one_large_error(*args, **kwargs):
        out = moments_numeric(*args, **kwargs)
        key = min(out)
        out[key] = (out[key][0], abs(out[key][0]))
        return out

    (rec,) = checks.run_oracle_moments("V", kmax=2, prec=64, points=1, seed=42)
    assert rec.ok
    monkeypatch.setattr(checks.quadrature, "moments_numeric", one_large_error)
    (bad,) = checks.run_oracle_moments("V", kmax=2, prec=64, points=1, seed=42)
    assert not bad.ok and bad.residual == rec.residual
