import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, fzero, mpf_add, mpf_mul, round_nearest

from cpverify import families, moments
from cpverify.errors import DomainError, QuadratureError, UsageError
from cpverify.exact import session_registry
from cpverify import quadrature
from cpverify.moments import MasterFunction, ibp_relation, ibp_relation_partial_vi
from cpverify.quadrature import (
    andreief_phi,
    check_domain,
    moment_numeric,
    moments_numeric,
    pde_residual_numeric,
    simplex_phi_coeffs,
    ts_nodes,
)

REG = session_registry(1, seeds=("nu0", "nu1"))

ADMISSIBLE = {
    "II": (Fraction(1, 2), {}),
    "III": (Fraction(-3, 2), {"b": Fraction(-1, 3)}),
    "IV": (Fraction(1, 3), {"b": Fraction(-1, 3)}),
    "V": (Fraction(3, 2), {"b": Fraction(-1, 3), "c": Fraction(-1, 5)}),
    "VI": (Fraction(7, 4), {"a": Fraction(-1, 4), "b": Fraction(-1, 3), "c": Fraction(-1, 5), "d": Fraction(2, 7)}),
}


def mpq(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def relation_residual(J, n, t, params, prec=192):
    mf = MasterFunction(J, REG, params)
    rel = ibp_relation(mf, n)
    # every moment of the relation from one pass
    nu = moments_numeric(J, sorted({(k, 0) for (_, k) in rel}), t, params, prec=prec)
    with mpmath.mp.workprec(prec):
        total = mpmath.mpf(0)
        scale = mpmath.mpf(0)
        for (kind, k), coeff in rel.items():
            c = mpq(coeff.eval({"t": t, "nu0": 0, "nu1": 0}))
            mom = nu[(k, 0)][0]
            total += c * mom
            scale = max(scale, abs(c * mom))
        return abs(total) / scale


def test_domain_constraints():
    with pytest.raises(DomainError):
        check_domain("III", Fraction(1, 2), {"b": Fraction(-1, 3)})
    with pytest.raises(DomainError):
        check_domain("V", Fraction(1, 2), {"b": Fraction(1, 3), "c": Fraction(-1, 5)})
    with pytest.raises(DomainError):
        check_domain("VI", Fraction(1, 2), ADMISSIBLE["VI"][1])  # t must exceed 1
    check_domain("II", Fraction(0), {})
    with pytest.raises(UsageError):
        moment_numeric("V", 0, 1, Fraction(3, 2), ADMISSIBLE["V"][1])


def test_airy_type_moment_finite_and_stable():
    v1, e1 = moment_numeric("II", 0, 0, 0, {}, prec=128)
    v2, _ = moment_numeric("II", 0, 0, 0, {}, prec=192)
    assert abs(v1) > 0.1
    assert abs(v1 - v2) < mpmath.mpf("1e-35")
    assert e1 < mpmath.mpf("1e-30")


@pytest.mark.parametrize("J", ["II", "III", "IV", "V", "VI"])
def test_moment_recursions_numeric(J):
    t, params = ADMISSIBLE[J]
    for n in range(0, 5):  # covers moments k = 0..6 for every family
        assert relation_residual(J, n, t, params) < mpmath.mpf("1e-10"), (J, n)


def test_vi_partial_relation_with_rho():
    t, params = ADMISSIBLE["VI"]
    mf = MasterFunction("VI", REG, params)
    rel = ibp_relation_partial_vi(mf, 1)
    nu = moments_numeric("VI", sorted({(k, int(kind == "rho")) for (kind, k) in rel}), t, params, prec=192)
    with mpmath.mp.workprec(192):
        total = mpmath.mpf(0)
        scale = mpmath.mpf(0)
        for (kind, k), coeff in rel.items():
            c = mpq(coeff.eval({"t": t, "nu0": 0, "nu1": 0}))
            mom = nu[(k, int(kind == "rho"))][0]
            total += c * mom
            scale = max(scale, abs(c * mom))
        assert abs(total) / scale < mpmath.mpf("1e-10")


def test_phi_numeric_matches_seed_moments():
    # N=1, m=1: Phi(z) = z nu0 - nu1 numerically
    t, params = ADMISSIBLE["V"]
    coeffs, _, _ = simplex_phi_coeffs("V", 1, 1, 1, t, params, prec=96, level=5, with_dt=False)
    nu0 = moment_numeric("V", 0, 0, t, params, prec=96)[0]
    nu1 = moment_numeric("V", 1, 0, t, params, prec=96)[0]
    assert abs(coeffs[(0,)] - nu0) / abs(nu0) < mpmath.mpf("1e-20")
    assert abs(coeffs[(1,)] - nu1) / abs(nu1) < mpmath.mpf("1e-20")


def test_phi_coeffs_symmetric_under_index_swap():
    t, params = ADMISSIBLE["V"]
    coeffs, _, _ = simplex_phi_coeffs("V", 2, 2, Fraction(1, 2), t, params, prec=64, level=3)
    for k in coeffs:
        # equal up to accumulation order (last-bit rounding)
        assert abs(coeffs[k] - coeffs[k[::-1]]) <= mpmath.mpf("1e-16") * abs(coeffs[k])


def test_pde_residual_numeric_v():
    t, params = ADMISSIBLE["V"]
    rep = pde_residual_numeric("V", 2, 2, Fraction(1, 2), t, params, prec=64, level=3)
    assert rep["residual"] < mpmath.mpf("1e-6")
    assert rep["dt_agreement"] < mpmath.mpf("1e-8")
    assert rep["time_factor"] == 2


def test_pde_residual_negative_control(monkeypatch):
    # V's printed prefactor t dropped, as in test_families.WRONG_PREFACTOR: the
    # builder then divides out 1, and tau = N no longer balances the equation
    wrong = dataclasses.replace(families.weighted("V"), prefactor=lambda t: 1)
    monkeypatch.setitem(families._BY_NAME, "V", wrong)
    t, params = ADMISSIBLE["V"]
    rep = pde_residual_numeric("V", 2, 2, Fraction(1, 2), t, params, prec=64, level=3)
    assert rep["residual"] > mpmath.mpf("0.1")


@pytest.mark.parametrize("J", ["III", "IV"])
def test_the_shifted_ts_share_one_window(J):
    # III's and IV's windows grow with |t|; a window per shift made the
    # difference quotient differentiate the grid (gaps of 1e-2 and 4e-2 here)
    t, base = ADMISSIBLE[J]
    rep = pde_residual_numeric(J, 2, 2, 1, t, moments.pde_params(J, 2, 1, **base), prec=64, level=2)
    assert rep["dt_agreement"] < mpmath.mpf("1e-8")


def test_andreief_agrees_with_its_higher_precision_value():
    # the determinant's modified moments come from the moment grid, which
    # reaches IV's u^(-b-1) endpoint
    z = [Fraction(3, 2), Fraction(-2, 3)]
    for J in ("IV", "V"):
        t, params = ADMISSIBLE[J]
        low = andreief_phi(J, z, t, 2, params, prec=96)
        high = andreief_phi(J, z, t, 2, params, prec=192)
        with mpmath.mp.workprec(192):
            assert abs(low - high) / abs(high) < mpmath.mpf("1e-20"), J


def test_half_line_moments_agree_with_their_higher_precision_values():
    t, params = ADMISSIBLE["IV"]
    keys = [(k, 0) for k in range(3)]
    low = moments_numeric("IV", keys, t, params, prec=128)
    high = moments_numeric("IV", keys, t, params, prec=192)
    with mpmath.mp.workprec(192):
        for key in keys:
            assert abs(low[key][0] - high[key][0]) / abs(high[key][0]) < mpmath.mpf("1e-35"), key


def test_andreief_m1_trivial():
    params = {"b": Fraction(-1, 3)}
    t = Fraction(1, 3)
    det_val = andreief_phi("IV", [Fraction(2)], t, 1, params, prec=96)
    # m = 1: the determinant is the single modified moment z nu0 - nu1
    nu0 = moment_numeric("IV", 0, 0, t, params, prec=96)[0]
    nu1 = moment_numeric("IV", 1, 0, t, params, prec=96)[0]
    assert abs(det_val - (2 * nu0 - nu1)) / abs(det_val) < mpmath.mpf("1e-12")


# ---------------------------------------------------------------------------
# Bit identity: each weight value is computed once per node and reused for
# every t, k and s, with the same arithmetic as one evaluation per (t, k, s).
# The digests hash the full-precision mpf tuples of values taken from the
# one-evaluation-per-(t, k, s) implementation.
# ---------------------------------------------------------------------------


def _bits(x):
    if isinstance(x, mpmath.mpf):
        return ("mpf",) + tuple(int(f) for f in x._mpf_)
    if isinstance(x, mpmath.mpc):
        return ("mpc", _bits(x.real), _bits(x.imag))
    if isinstance(x, dict):
        return tuple((k, _bits(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(_bits(v) for v in x)
    return repr(x)


def digest(x):
    return hashlib.sha256(repr(_bits(x)).encode()).hexdigest()[:16]


T_V, P_V = ADMISSIBLE["V"]
SHIFTS = [T_V, T_V + Fraction(1, 512), T_V - Fraction(1, 512), T_V + Fraction(1, 1024), T_V - Fraction(1, 1024)]

# (N, m, level) -> t -> digests of (coeffs, dt_coeffs, err) of family V at hbar = 1/2, 64 bits
GOLDEN_SIMPLEX_V = {
    (2, 2, 3): {
        "3/2": ("e507854b68f82ddd", "f89db25c75df602f", "02b3b9069788b640"),
        "769/512": ("da6a5215e2dfd6e8", "4299e8f215774d5a", "1dbf3d3d3434ae8e"),
        "767/512": ("b11a8f8410cd728a", "33a0542811b7f1cc", "8dbf20755b26c534"),
        "1537/1024": ("0def90d4b2a98d83", "bb052cd2a282539f", "93994d89dfe82ca6"),
        "1535/1024": ("feb405e26697896a", "76d7fd3f8d98651a", "dc1252673070037b"),
    },
    # m = 3: the deepest branch of the simplex recursion.  err is level 1's
    # gap to its level-0 grid: 0.0675 at t = 3/2, the gap to the
    # coefficients of a level-0 sweep
    (1, 3, 1): {
        "3/2": ("72667ed17aa3f3be", "dc7ab280e7f7cfac", "16f6b4957883111f"),
        "769/512": ("eab1f4379bd713e8", "d763dfb8cc35bd86", "99a649d783a313e4"),
        "767/512": ("c07f2e8ec1fa774e", "69a89d723c314180", "90b531f7e1c22367"),
        "1537/1024": ("e824cae5220f5293", "99f0c317c58f84cd", "1ccedd438a226177"),
        "1535/1024": ("60d60c45346ab562", "195b8b01ef1e83f8", "03aa587dab9a57b6"),
    },
}

# families on a finite window (0, L(t)), N = 2, level 2, hbar = 1/2, 64 bits
GOLDEN_SIMPLEX_WINDOW = {
    ("IV", 1): ("bc2a2c2f051b1d32", "629d9c3d6c46c148", "8b97feda41e09be9"),
    ("IV", 2): ("797ac5feb4cb5224", "858e7371d7d5f594", "6d8cab00983495b4"),
    ("III", 1): ("6449edcc1d417c5a", "067beacb6efa8d1d", "cb5c6366b9a84095"),
    ("III", 2): ("b5b46c0443e5d9d4", "1e0519c771bda078", "f561c68fdb4e9215"),
}

# VI with tail power 2.2: at 128 bits the fine list has 628 nodes and the
# coarse list 315, whose last node lies one index past the fine list
VI_TAIL = (Fraction(7, 4), {"a": Fraction(-1, 2), "b": Fraction(-1, 2), "c": Fraction(-5, 6), "d": Fraction(2, 7)})

# name -> (family, point, s values, kmax, digest of [(value, error) per key]) at 128 bits
GOLDEN_MOMENTS = {
    "II": ("II", (Fraction(1, 2), {}), (0,), 4, "00db88b570633f95"),
    "IV": ("IV", ADMISSIBLE["IV"], (0,), 2, "e6ff96d0b13be709"),
    "V": ("V", ADMISSIBLE["V"], (0,), 4, "45e112aa8af37929"),
    "VI": ("VI", ADMISSIBLE["VI"], (0, 1), 4, "3e73a4eef503bf4f"),
    "VI_TAIL": ("VI", VI_TAIL, (0, 1), 4, "39bf5873b9eb93b5"),
}


# run_oracle_moments("II") at the suite's seed 42: k = 0..6 at 192 bits at each
# point families.weighted("II").sample draws (t = 2, -1, -1)
GOLDEN_ORACLE_II = ("9b119cb50cdb5f40", "477bbf686107a677", "477bbf686107a677")


@pytest.mark.parametrize("shape", sorted(GOLDEN_SIMPLEX_V))
@pytest.mark.parametrize("t", SHIFTS, ids=str)
def test_simplex_phi_coeffs_bit_identical(shape, t):
    N, m, level = shape
    coeffs, dt, err = simplex_phi_coeffs("V", N, m, Fraction(1, 2), t, P_V, prec=64, level=level)
    assert (digest(coeffs), digest(dt), digest(err)) == GOLDEN_SIMPLEX_V[shape][str(t)]


@pytest.mark.parametrize("shape", sorted(GOLDEN_SIMPLEX_V))
def test_fused_sweep_bit_identical_at_every_shift(shape):
    # one sweep for t and its four shifts gives each t's coefficients exactly
    N, m, level = shape
    golden = GOLDEN_SIMPLEX_V[shape]
    accs, dt, err = quadrature._simplex_sweep("V", N, m, Fraction(1, 2), SHIFTS, P_V, 64, level, True)
    assert [digest(acc) for acc in accs] == [golden[str(t)][0] for t in SHIFTS]
    assert (digest(dt), digest(err)) == golden[str(T_V)][1:]


@pytest.mark.parametrize("J, m", sorted(GOLDEN_SIMPLEX_WINDOW))
def test_simplex_window_families_bit_identical(J, m):
    t, params = ADMISSIBLE[J]
    coeffs, dt, err = simplex_phi_coeffs(J, 2, m, Fraction(1, 2), t, params, prec=64, level=2)
    assert (digest(coeffs), digest(dt), digest(err)) == GOLDEN_SIMPLEX_WINDOW[(J, m)]


def test_pde_residual_report_bit_identical():
    rep = pde_residual_numeric("V", 2, 2, Fraction(1, 2), T_V, P_V, prec=64, level=3)
    assert digest([rep["residual"], rep["dt_agreement"], rep["grid_error"]]) == "c15684e9a141a2d7"


@pytest.mark.parametrize("name", sorted(GOLDEN_MOMENTS))
def test_moments_bit_identical(name):
    J, (t, params), s_values, kmax, golden = GOLDEN_MOMENTS[name]
    keys = [(k, s) for s in s_values for k in range(kmax + 1)]
    out = moments_numeric(J, keys, t, params, prec=128)
    assert digest([out[key] for key in keys]) == golden
    # the one-key evaluator is the same pass
    assert moment_numeric(J, kmax, s_values[-1], t, params, prec=128) == out[(kmax, s_values[-1])]


def test_polyline_moments_bit_identical_at_the_oracle_points():
    rng = random.Random(42)
    keys = [(k, 0) for k in range(7)]
    for golden in GOLDEN_ORACLE_II:
        t, params = families.weighted("II").sample(rng)
        out = moments_numeric("II", keys, t, params, prec=192)
        assert digest([out[key] for key in keys]) == golden


def test_vi_tail_point_reaches_past_the_fine_list():
    t, params = VI_TAIL
    tp = quadrature._tail_power("VI", params)
    fine, coarse = quadrature.ts_nodes(7, 128, tp), quadrature.ts_nodes(6, 128, tp)
    assert (len(fine), len(coarse)) == (628, 315)
    # coarse node j is fine node 2j at twice the weight, the last one included
    _, tail = quadrature._grid(7, 128, tp)
    assert len(tail) == 2 and tail[0] == quadrature._shared_nodes(7, 128, 629)[628]
    with mpmath.mp.workprec(400):  # doubling is exact above the nodes' 148 bits
        for j, (u, omu, w) in enumerate(coarse):
            fu, fomu, fw = quadrature._shared_nodes(7, 128, 2 * j + 1)[2 * j]
            assert (fu, fomu, 2 * fw) == (u, omu, w)


@pytest.mark.parametrize("J, digest_value", [("IV", "794f6e69a1a8a059"), ("V", "c121d01e9da3e6a2")])
def test_andreief_bit_identical(J, digest_value):
    t, params = ADMISSIBLE[J]
    val = andreief_phi(J, [Fraction(3, 2), Fraction(-2, 3)], t, 2, params, prec=96)
    assert digest(val) == digest_value


def direct_ts_nodes(level, prec, tail_power):
    """The node list built from scratch for one cutoff (the reference)."""
    with mpmath.mp.workprec(prec + 20):
        h = mpmath.mpf(1) / (1 << level)
        pi2 = mpmath.pi / 2
        eps = mpmath.mpf(2) ** (-int((prec + 10) * tail_power))
        out = []
        j = 0
        while True:
            sh = pi2 * mpmath.sinh(j * h)
            u_neg = 1 / (1 + mpmath.exp(2 * sh))
            w = h * pi2 * mpmath.cosh(j * h) / mpmath.cosh(sh) ** 2
            out.append((1 / (1 + mpmath.exp(-2 * sh)), u_neg, w / 2))
            if u_neg < eps:
                return out
            j += 1


def test_ts_nodes_share_one_list_per_level_and_precision():
    level, prec = 4, 80  # a key no other test uses
    short = ts_nodes(level, prec, 2.2)
    long = ts_nodes(level, prec, 6.0)
    assert _bits(short) == _bits(direct_ts_nodes(level, prec, 2.2))
    assert _bits(long) == _bits(direct_ts_nodes(level, prec, 6.0))
    assert len(short) < len(long) and _bits(long[: len(short)]) == _bits(short)
    assert _bits(ts_nodes(level, prec, 2.2)) == _bits(short)


# ---------------------------------------------------------------------------
# The simplex sweep skips an addition only when round-to-nearest discards it.
# ---------------------------------------------------------------------------


def top(x):
    """E = exp + bc of a raw mpf: |x| < 2^E."""
    return x[2] + x[3]


def test_skip_margin_is_a_quarter_ulp_at_a_power_of_two():
    prec = 53
    acc = from_man_exp(1, 10, prec)  # 2^10: the spacing is 2^(10-52) above, 2^(10-53) below
    half_below = from_man_exp(1, 10 - prec - 1)
    assert not quadrature._negligible(top(half_below), [acc], prec)
    # an addend under that same bound which round-to-nearest keeps
    x = from_man_exp(-(2**20 - 1), 10 - prec - 20)
    assert top(x) == top(half_below) and mpf_add(acc, x, prec, round_nearest) != acc
    assert quadrature._negligible(top(half_below) - 1, [acc], prec)


def test_zero_accumulator_never_allows_a_skip():
    acc = from_man_exp(3, 0, 53)
    assert quadrature._negligible(-1000, [acc], 53)
    assert not quadrature._negligible(-1000, [fzero], 53)
    assert not quadrature._negligible(-1000, [acc, fzero], 53)


MANTISSA = st.integers(1, 2**300) | st.integers(0, 300).map(lambda j: 2**j)


@settings(max_examples=2000, deadline=None)
@given(
    st.integers(53, 256),
    st.booleans(), MANTISSA, st.integers(-400, 400),
    st.booleans(), MANTISSA, st.integers(-6, 2),
)
def test_a_skipped_addition_leaves_the_sum_unchanged(prec, neg, man, exp, neg_x, man_x, offset):
    acc = from_man_exp(-man if neg else man, exp, prec, round_nearest)
    # addends from well inside the margin to just past it
    x = from_man_exp(-man_x if neg_x else man_x, top(acc) - prec + offset - man_x.bit_length())
    if quadrature._negligible(top(x), [acc], prec):
        assert mpf_add(acc, x, prec, round_nearest) == acc


# ---------------------------------------------------------------------------
# The sweep skips a node's subtree, or a child before its weight is computed,
# only on bounds that cover every addend below.
# ---------------------------------------------------------------------------


def audit_sweep(J, seed, N, m, hbar, level, with_dt, scale=1):
    """Run one sweep with every skip before a leaf turned off; check each node's bounds against its leaves.

    t is the family's sampled t times ``scale``, which keeps it admissible.
    For every leaf, the values it adds for each t (base times the keys'
    elementary products), times dt for ts[0], and its coarse addend must lie
    below 2^(bounds[j] + need) of every ancestor node whose child j holds it.
    Returns the number of leaves checked.
    """
    t, params = families.weighted(J).sample(random.Random(seed))
    t *= scale
    ts = [t, t - Fraction(1, 512)]
    nodes, leaves = {}, []
    needs, leaf = quadrature._Sweep.needs, quadrature._Sweep.leaf

    def record_needs(self, chain, wprod, ths, dt):
        nodes[tuple(map(id, chain))] = out = needs(self, chain, wprod, ths, dt)
        return out

    def record_leaf(self, chain, wprod, ths, dt, isc):
        bases, es = quadrature._addends(chain, wprod, ths, self.window, self.beta, self.prec)
        leaves.append((self, chain, bases, es, dt, isc))
        return leaf(self, chain, wprod, ths, dt, isc)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature._Sweep, "needs", record_needs)
        patch.setattr(quadrature._Sweep, "leaf", record_leaf)
        patch.setattr(quadrature._Sweep, "room", lambda self, reqs, isc: -math.inf)
        quadrature._simplex_sweep(J, N, m, hbar, ts, params, 64, level, with_dt)
    rnd = round_nearest
    for sweep, chain, bases, es, dt, isc in leaves:
        index = {id(pt[0]): j for j, pt in enumerate(sweep.pts)}
        tops = {}
        for i, base in enumerate(bases):
            vals = [base._mpf_]
            for _ in range(N):
                vals = [val if r == 0 else mpf_mul(val, es[r - 1], 64, rnd) for val in vals for r in range(m + 1)]
            tops[i] = max(map(top, vals))
            if i == 0 and isc:
                tops[sweep.COARSE] = tops[0]
            if i == 0 and with_dt:
                tops[sweep.DT] = max(top(mpf_mul(val, dt._mpf_, 64, rnd)) for val in vals)
        for k in range(m):
            reqs, bounds = nodes[tuple(map(id, chain[:k]))]
            j = index[id(chain[k][2])]
            for c, need in reqs:
                if c in tops:
                    assert tops[c] <= bounds[j] + need, (J, params, t, k, c)
    return len(leaves)


@pytest.mark.slow
@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["III", "IV", "V", "VI"]),
    st.integers(0, 2**16),
    st.sampled_from([(1, 2, 2), (2, 2, 2), (1, 3, 1)]),
    st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(-1, 4)]),
    st.booleans(),
    # a large |t| makes theta's t-dependent factor span many bits
    st.sampled_from([1, 8]),
)
def test_skip_bounds_cover_every_leaf_below(J, seed, shape, hbar, with_dt, scale):
    N, m, level = shape
    assert audit_sweep(J, seed, N, m, hbar, level, with_dt, scale) > 0


def test_the_skip_bounds_hold_at_the_acceptance_points():
    # the shapes the suite and the benchmark sweep, at a level the audit can afford
    assert audit_sweep("V", 0, 2, 2, Fraction(1, 2), 2, True) > 0
    assert audit_sweep("VI", 0, 2, 2, Fraction(1, 2), 2, True) > 0
    assert audit_sweep("IV", 0, 2, 2, 1, 2, False) > 0


def count_weights(monkeypatch, *args, **kwargs):
    calls = [0]
    parts = families.Family.parts

    def counted(self, *a):
        calls[0] += 1
        return parts(self, *a)

    monkeypatch.setattr(families.Family, "parts", counted)
    simplex_phi_coeffs(*args, **kwargs)
    return calls[0]


def test_the_sweep_skips_most_dead_weight_evaluations(monkeypatch):
    # without the skips before a leaf the sweep evaluates the weight at every
    # node: 87 + 87^2 = 7656 times for V (2, 2) at level 3, and 7310 times for
    # IV's determinant cross-path shape at level 3; a bound that stops
    # skipping shows here
    assert count_weights(monkeypatch, "V", 2, 2, Fraction(1, 2), T_V, P_V, prec=64, level=3) <= 0.52 * 7656
    calls = count_weights(monkeypatch, "IV", 2, 2, 1, Fraction(1, 3), {"b": Fraction(-1, 3)}, prec=96, level=3, with_dt=False)
    assert calls <= 0.22 * 7310


def test_level_one_error_is_the_gap_to_the_level_zero_sweep(monkeypatch):
    # the err digests of GOLDEN_SIMPLEX_V[(1, 3, 1)] pin this value
    shape = ("V", 1, 3, Fraction(1, 2), T_V, P_V)
    fine, _, err = simplex_phi_coeffs(*shape, prec=64, level=1, with_dt=False)
    # the sweep over the level-0 nodes, laid out as a level is, with no coarser grid
    pts = []
    for j, (up, un, w) in enumerate(ts_nodes(0, 64, quadrature._tail_power("V", P_V))):
        pts += [(up, un, w, False)] + ([(un, up, w, False)] if j else [])
    monkeypatch.setattr(quadrature, "_grid", lambda level, prec, tail_power: (pts, []))
    coarse, _, _ = simplex_phi_coeffs(*shape, prec=64, level=1, with_dt=False)
    with mpmath.mp.workprec(64):
        assert err == max(abs(fine[k] - coarse[k]) for k in fine) / max(map(abs, fine.values()))
    assert err < mpmath.mpf("0.1")


def test_level_zero_has_no_coarser_grid():
    with pytest.raises(QuadratureError, match="level 0 has no coarser grid"):
        simplex_phi_coeffs("V", 1, 1, 1, T_V, P_V, prec=64, level=0)
