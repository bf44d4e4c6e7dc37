import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpverify.errors import UsageError
from cpverify.exact import RatFun, ratfun_equal, session_registry
from cpverify.moments import (
    MasterFunction,
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


def combine(terms):
    """The sum of c * form over (c, form) pairs, zero terms dropped."""
    out = {}
    for c, form in terms:
        for sym, v in form.items():
            out[sym] = out[sym] + c * v if sym in out else c * v
    return {sym: v for sym, v in out.items() if not v.is_zero()}


def reduce_form(red, form):
    return combine((c, red.reduce(sym)) for sym, c in form.items())


def same_form(a, b):
    return a.keys() == b.keys() and all(a[sym].equal(b[sym]) for sym in a)


def test_ibp_relation_ii():
    mf = MasterFunction("II", REG, {})
    for n in (0, 1, 3):
        rel = ibp_relation(mf, n)
        # n nu_{n-1} - t nu_n - 2 nu_{n+2}
        if n:
            assert rel[("nu", n - 1)].equal(RatFun.const(REG, n))
        assert rel[("nu", n)].equal(-RatFun.var(REG, "t"))
        assert rel[("nu", n + 2)].equal(RatFun.const(REG, -2))


def test_ibp_relation_iv():
    mf = MasterFunction("IV", REG, {"b": Fraction(-1, 3)})
    # (n - b) nu_n - t nu_{n+1} - nu_{n+2}  (equivalently (k-b-1) nu_{k-1} ... at k = n+1)
    rel = ibp_relation(mf, 2)
    assert rel[("nu", 2)].equal(RatFun.const(REG, 2 + Fraction(1, 3)))
    assert rel[("nu", 3)].equal(-RatFun.var(REG, "t"))
    assert rel[("nu", 4)].equal(RatFun.const(REG, -1))


def test_ibp_relation_v():
    mf = MasterFunction("V", REG, {"b": Fraction(-1, 3), "c": Fraction(-1, 5)})
    # (n-b) nu_n + (b+c-n+t) nu_{n+1} - t nu_{n+2}
    t = RatFun.var(REG, "t")
    rel = ibp_relation(mf, 1)
    assert rel[("nu", 1)].equal(RatFun.const(REG, 1 + Fraction(1, 3)))
    assert rel[("nu", 2)].equal(RatFun.const(REG, -Fraction(1, 3) - Fraction(1, 5) - 1) + t)
    assert rel[("nu", 3)].equal(-t)


def test_reduce_examples():
    mf = MasterFunction("II", REG, {})
    red = MomentReducer(mf)
    nu3 = red.reduce(("nu", 3))
    expect = {("nu", 0): RatFun.const(REG, Fraction(1, 2)), ("nu", 1): -RatFun.var(REG, "t") * Fraction(1, 2)}
    assert same_form(nu3, expect)
    # seeds are fixed points
    for s in (0, 1):
        assert same_form(red.reduce(("nu", s)), {("nu", s): RatFun.const(REG, 1)})


def test_rho_reduction_and_partial_relation():
    mf = MasterFunction("VI", REG, PARAMS)
    red = MomentReducer(mf)
    # rho_1 = t rho_0 - nu_0 (division identity)
    r1 = rho_reduction(mf, 1)
    expect = {("rho", 0): RatFun.var(REG, "t"), ("nu", 0): RatFun.const(REG, -1)}
    assert same_form(r1, expect)
    # rho_0 reduces to seeds through the partial-clearing relation
    rho0 = red.reduce(("rho", 0))
    assert all(sym[0] == "nu" and sym[1] in (0, 1) for sym in rho0)
    # and the partial relation itself is annihilated by the reduction
    rel = ibp_relation_partial_vi(mf, 2)
    assert not reduce_form(red, rel)


def test_vi_full_relation_consistent_with_partial():
    # the nu-only relation must also reduce to zero (it is implied)
    mf = MasterFunction("VI", REG, PARAMS)
    red = MomentReducer(mf)
    for n in range(0, 4):
        assert not reduce_form(red, ibp_relation(mf, n)), n


@st.composite
def moment_forms(draw):
    one = RatFun.const(REG, 1)
    terms = [(draw(st.integers(-4, 4)), {("nu", draw(st.integers(0, 5))): one}) for _ in range(draw(st.integers(1, 3)))]
    return combine(terms)


@settings(max_examples=25, deadline=None)
@given(moment_forms(), moment_forms())
def test_reduce_idempotent_and_linear(e1, e2):
    red = MomentReducer(MasterFunction("II", REG, {}))
    r1 = reduce_form(red, e1)
    assert same_form(reduce_form(red, r1), r1)
    one = RatFun.const(REG, 1)
    total = reduce_form(red, combine([(one, e1), (one, e2)]))
    assert same_form(total, combine([(one, r1), (one, reduce_form(red, e2))]))


@pytest.mark.parametrize("J", ["II", "III", "IV", "V", "VI"])
def test_d_dt_annihilates_every_relation(J):
    # each relation holds for all t, so its t-derivative reduces to zero;
    # a sign-flipped d/dt log Theta breaks that for every family
    mf = MasterFunction(J, REG, PARAMS)
    red = MomentReducer(mf)

    def dt_relation(red, n):
        rel = ibp_relation(mf, n)
        terms = [(c.deriv("t"), red.reduce(sym)) for sym, c in rel.items()]
        return combine(terms + [(c, d_dt(sym, red)) for sym, c in rel.items()])

    for n in range(4):
        assert not dt_relation(red, n), n
    rate, shift, s = mf.dt_log
    mf.dt_log = (-rate, shift, s)
    flipped = MomentReducer(mf)
    assert any(dt_relation(flipped, n) for n in range(4))


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
    assert all(sym == ("nu", 0) for sym in repl)
