import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpverify.errors import UsageError
from cpverify.exact import RatFun, ratfun_equal, session_registry
from cpverify.moments import (
    MasterFunction,
    MomentExpr,
    MomentReducer,
    build_phi,
    d_dt,
    ibp_relation,
    ibp_relation_partial_vi,
    pde_params,
    phi_time_derivative,
    rho_reduction,
    verify_pde_symbolic,
)

REG = session_registry(2, seeds=("nu0", "nu1"))
PARAMS = {"a": Fraction(1, 2), "b": Fraction(-1, 3), "c": Fraction(-1, 5), "d": Fraction(2, 7)}


def coeff_map(expr):
    return {key: v for key, v in expr.terms.items()}


def test_ibp_relation_ii():
    mf = MasterFunction("II", REG, {})
    for n in (0, 1, 3):
        rel = coeff_map(ibp_relation(mf, n))
        # n nu_{n-1} - t nu_n - 2 nu_{n+2}
        if n:
            assert rel[(("nu", n - 1),)].equal(RatFun.const(REG, n))
        assert rel[(("nu", n),)].equal(-RatFun.var(REG, "t"))
        assert rel[(("nu", n + 2),)].equal(RatFun.const(REG, -2))


def test_ibp_relation_iv():
    mf = MasterFunction("IV", REG, {"b": Fraction(-1, 3)})
    # (n - b) nu_n - t nu_{n+1} - nu_{n+2}  (equivalently (k-b-1) nu_{k-1} ... at k = n+1)
    rel = coeff_map(ibp_relation(mf, 2))
    assert rel[(("nu", 2),)].equal(RatFun.const(REG, 2 + Fraction(1, 3)))
    assert rel[(("nu", 3),)].equal(-RatFun.var(REG, "t"))
    assert rel[(("nu", 4),)].equal(RatFun.const(REG, -1))


def test_ibp_relation_v():
    mf = MasterFunction("V", REG, {"b": Fraction(-1, 3), "c": Fraction(-1, 5)})
    # (n-b) nu_n + (b+c-n+t) nu_{n+1} - t nu_{n+2}
    t = RatFun.var(REG, "t")
    rel = coeff_map(ibp_relation(mf, 1))
    assert rel[(("nu", 1),)].equal(RatFun.const(REG, 1 + Fraction(1, 3)))
    assert rel[(("nu", 2),)].equal(RatFun.const(REG, -Fraction(1, 3) - Fraction(1, 5) - 1) + t)
    assert rel[(("nu", 3),)].equal(-t)


def test_reduce_examples():
    mf = MasterFunction("II", REG, {})
    red = MomentReducer(mf)
    nu3 = red.reduce(MomentExpr.symbol(REG, "nu", 3))
    expect = MomentExpr.symbol(REG, "nu", 0, Fraction(1, 2)) + MomentExpr.symbol(
        REG, "nu", 1, -RatFun.var(REG, "t") * Fraction(1, 2)
    )
    assert (nu3 - expect).is_zero()
    # seeds are fixed points
    for s in (0, 1):
        assert (red.reduce(MomentExpr.symbol(REG, "nu", s)) - MomentExpr.symbol(REG, "nu", s)).is_zero()


def test_rho_reduction_and_partial_relation():
    mf = MasterFunction("VI", REG, PARAMS)
    red = MomentReducer(mf)
    # rho_1 = t rho_0 - nu_0 (division identity)
    r1 = rho_reduction(mf, 1)
    expect = MomentExpr.symbol(REG, "rho", 0, RatFun.var(REG, "t")) + MomentExpr.symbol(REG, "nu", 0, -1)
    assert (r1 - expect).is_zero()
    # rho_0 reduces to seeds through the partial-clearing relation
    rho0 = red.reduce(MomentExpr.symbol(REG, "rho", 0))
    assert all(sym[0] == "nu" and sym[1] in (0, 1) for sym in rho0.symbols())
    # and the partial relation itself is annihilated by the reduction
    rel = ibp_relation_partial_vi(mf, 2)
    assert red.reduce(rel).is_zero()


def test_vi_full_relation_consistent_with_partial():
    # the nu-only relation must also reduce to zero (it is implied)
    mf = MasterFunction("VI", REG, PARAMS)
    red = MomentReducer(mf)
    for n in range(0, 4):
        assert red.reduce(ibp_relation(mf, n)).is_zero(), n


@st.composite
def moment_exprs(draw):
    mf = MasterFunction("II", REG, {})
    expr = MomentExpr(REG)
    for _ in range(draw(st.integers(1, 3))):
        key = tuple(sorted(("nu", draw(st.integers(0, 5))) for _ in range(draw(st.integers(0, 2)))))
        c = draw(st.integers(-4, 4))
        expr = expr + MomentExpr(REG, {key: RatFun.const(REG, c)})
    return expr


@settings(max_examples=25, deadline=None)
@given(moment_exprs(), moment_exprs())
def test_reduce_idempotent_and_linear(e1, e2):
    red = MomentReducer(MasterFunction("II", REG, {}))
    r1 = red.reduce(e1)
    assert (red.reduce(r1) - r1).is_zero()
    assert (red.reduce(e1 + e2) - (red.reduce(e1) + red.reduce(e2))).is_zero()


@settings(max_examples=15, deadline=None)
@given(moment_exprs())
def test_d_dt_commutes_with_reduce(e):
    red = MomentReducer(MasterFunction("II", REG, {}))
    lhs = d_dt(red.reduce(e), red)
    # d_dt requires reduced input; the commutation statement is that reducing
    # first cannot change the outcome of differentiating any equal expression
    e2 = red.reduce(e + ibp_relation(red.mf, 1))  # add a vanishing relation
    rhs = d_dt(e2, red)
    assert (lhs - rhs).is_zero()


def test_build_phi_shapes():
    r1 = session_registry(1, seeds=("nu0", "nu1"))
    phi, _ = build_phi("II", 1, 1, 1, {}, r1)
    z, nu0, nu1 = (RatFun.var(r1, n) for n in ("z1", "nu0", "nu1"))
    assert (phi - (z * nu0 - nu1)).is_zero()

    phi2, red2 = build_phi("II", 2, 1, 1, {}, REG)
    z1, z2, nu0, nu1, t = (RatFun.var(REG, n) for n in ("z1", "z2", "nu0", "nu1", "t"))
    nu2 = -t * nu0 * Fraction(1, 2)
    assert (phi2 - (z1 * z2 * nu0 - (z1 + z2) * nu1 + nu2)).is_zero()

    # m=2, hbar=1: top z-coefficient is <(u1-u2)^2> = 2(nu0 nu2 - nu1^2), reduced
    phi3, red3 = build_phi("II", 1, 2, 1, {}, r1)
    za, n0, n1, tt = (RatFun.var(r1, n) for n in ("z1", "nu0", "nu1", "t"))
    nu2r = -tt * n0 * Fraction(1, 2)
    expected_top = 2 * (n0 * nu2r - n1 * n1)
    num = phi3.num
    z_idx = r1.index["z1"]
    from cpverify.exact import MPoly

    coeff2 = MPoly(r1, {e[:z_idx] + (0,) + e[z_idx + 1 :]: c for e, c in num.terms.items() if e[z_idx] == 2})
    assert RatFun(coeff2, phi3.den).equal(expected_top)


def test_build_phi_symmetric_and_degree():
    phi, _ = build_phi("V", 2, 2, 1, pde_params("V", 2, 1), REG)
    swapped = RatFun(phi.num.permute_vars({"z1": "z2", "z2": "z1"}), phi.den.permute_vars({"z1": "z2", "z2": "z1"}))
    assert phi.equal(swapped)
    assert phi.num.degree_in("z1") == 2 and phi.num.degree_in("z2") == 2


def test_build_phi_rejects_nonint_hbar():
    with pytest.raises(UsageError):
        build_phi("II", 1, 1, Fraction(1, 2), {})


# criterion 9 of the acceptance matrix runs (N, m) up to (2, 2) at hbar = 1,
# and (2, 2) at hbar = 2 for II and IV; these points lie outside it
@pytest.mark.parametrize("J", ["II", "III", "IV", "V", "VI"])
@pytest.mark.parametrize("N,m,hbar", [(1, 3, 1), (3, 1, 1), (1, 1, 2), (2, 1, 2)])
def test_pde_symbolic_off_the_acceptance_matrix(J, N, m, hbar):
    rep = verify_pde_symbolic(J, N, m, hbar)
    assert rep["ok"], rep  # ok needs the solved time factor tau = N


def test_pde_negative_control():
    rep = verify_pde_symbolic("II", 2, 1, 1, mutate="m_shift")
    assert not rep["ok"]
    assert not verify_pde_symbolic("VI", 2, 1, 1, mutate="m_shift")["ok"]


def test_vi_resonant_seed_basis():
    params = pde_params("VI", 1, 1)
    mf = MasterFunction("VI", REG, params)
    red = MomentReducer(mf)
    assert red.resonant_n == 0
    assert ("nu", 2) in red.seed_map
    # nu_1 is pinned to nu_0 by the resonant constraint
    repl = red.replacement(("nu", 1))
    assert all(sym == ("nu", 0) for key in repl.terms for sym in key)
