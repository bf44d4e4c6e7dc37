import time
from fractions import Fraction

import pytest

from cpverify import checks
from cpverify.checks import table1_resolve
from cpverify.errors import UsageError
from cpverify.params import parse_params
from cpverify.weyl import WeylAlgebra, evaluate_expression


def ok_all(recs):
    return all(r.ok for r in recs)


def test_run_weyl_and_eom():
    recs = checks.run_weyl(2)
    assert ok_all(recs)
    assert any(r.resolved for r in recs)  # the worked-example constant carries N
    assert ok_all(checks.run_eom(1))


def test_run_zero_curvature():
    assert ok_all(checks.run_zero_curvature())


def test_run_radial_families():
    assert ok_all(checks.run_radial("III", 2, trials=2, seed=3))
    recs = checks.run_radial("VI", 2, trials=2, seed=3)
    assert ok_all(recs)
    assert any(r.resolved for r in recs)


def test_run_gauge_scalar():
    assert ok_all(checks.run_gauge_transformation())


def test_run_gauge_lambda():
    recs = checks.run_gauge(N_values=(3,), hbar_values=(Fraction(1, 2),))
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
    rep = table1_resolve(J, "gauged", Fraction(1, 2), 2, 2)
    assert rep["ok"]
    assert rep["time_reflected"] == expect_reflect
    if expect_solved:
        assert expect_solved in rep["solved"]
    else:
        assert not rep["solved"]


def test_table1_ungauged_ii_exact():
    rep = table1_resolve("II", "ungauged", 1, 2, 2)
    assert rep["ok"] and rep["exact_as_printed"]


def test_table1_gauged_ii_theta_formula():
    # solved theta = 3/2 - N - hbar(1+m) for the gauged identification
    for N in (2, 3):
        for hb in (Fraction(1, 2), Fraction(2)):
            rep = table1_resolve("II", "gauged", hb, 2, N)
            assert rep["solved"]["theta"] == Fraction(3, 2) - N - hb * 3


def test_table1_vi_ungauged_k2_printed_exact():
    rep = table1_resolve("VI", "ungauged", 1, 2, 2)
    assert rep["ok"]
    assert "k2" not in rep["solved"]  # the printed ungauged k^2 is exact


def test_run_n1():
    assert ok_all(checks.run_n1())


@pytest.mark.slow
def test_final_theorem_n3():
    # conjugated identification at N = 3 for every family (the VI resolve
    # dominates the runtime; hbar = 1/3 is exercised by the gauge sweep)
    for J in checks.FAMS:
        for hb in (Fraction(1, 2), Fraction(2)):
            rep = table1_resolve(J, "gauged", hb, 2, 3)
            assert rep["ok"], (J, hb)


def test_run_pde_symbolic_with_controls():
    recs = checks.run_pde_symbolic("III", 2, 2, 1, controls=True)
    assert ok_all(recs)
    assert len(recs) == 2


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
    ps = parse_params("b=-1/3,c=-1/5,N=2,hbar=1/2")
    assert ps.b == Fraction(-1, 3) and ps.N == 2 and ps.hbar == Fraction(1, 2)
    assert parse_params("k2=4/9").k2 == Fraction(4, 9)
    with pytest.raises(UsageError):
        parse_params("hbar=0")
    with pytest.raises(UsageError):
        parse_params("zz=1")
    with pytest.raises(UsageError):
        parse_params("b=1/x")


@pytest.mark.parametrize("kmax", [-1, 0, 1])
def test_oracle_moments_rejects_kmax_below_two(kmax):
    with pytest.raises(UsageError):
        checks.run_oracle_moments("VI", kmax=kmax, prec=64, points=1)


def test_table1_records_carry_their_own_time():
    start = time.perf_counter()
    recs = checks.run_table1(("II",), ("ungauged",), (Fraction(1),), (2, 2))
    elapsed_ms = (time.perf_counter() - start) * 1000
    assert len(recs) == 2 and all(r.ms > 0 for r in recs)
    assert sum(r.ms for r in recs) <= elapsed_ms  # not the block's cumulative time


@pytest.mark.parametrize("seed", [-1, 1, 2, 4, 6, 7, 8])
def test_oracle_moments_iv_passes_at_64_bits(seed):
    # one mpmath.quad per k on (0, inf) missed the u^(-b-1) endpoint at these seeds
    recs = checks.run_oracle_moments("IV", kmax=4, prec=64, points=3, seed=seed)
    assert ok_all(recs), recs[0].residual
