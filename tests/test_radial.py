import hashlib
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpverify import families, radial
from cpverify.diffop import apply_op, operator_equal, power_sum, symbols, zvars
from cpverify.errors import DegeneratePointError, UsageError
from cpverify.exact import RatFun, session_registry
from cpverify.radial import (
    TRACE_REG,
    Jet,
    RationalMatrixPoint,
    apply_matrix_operator,
    apply_trace_word,
    build_radial_hamiltonian,
    gauge_scalar_conjugate,
    hamiltonian_trace_spec,
    qkp2_radial_op,
    radial_value,
    random_trace_polynomial,
    resolve_radial_corrections,
    verify_qkp2,
    verify_radial_match,
)


def test_matrix_point_basics():
    pt = RationalMatrixPoint([Fraction(1), Fraction(2)], [[1, 1], [0, 1]])
    assert pt.Q[0][0] == 1 and pt.Q[0][1] == 1 and pt.Q[1][1] == 2
    with pytest.raises(DegeneratePointError):
        RationalMatrixPoint([Fraction(1), Fraction(1)], [[1, 0], [0, 1]])
    with pytest.raises(UsageError):
        RationalMatrixPoint([Fraction(1), Fraction(2)], [[1, 1], [1, 1]])


def power_sums_into(f, reg, N):
    """f(T_1, T_2, ...) with T_j = sum_rho z_rho^j, as a polynomial in z (the symbolic reference)."""
    out = reg.zero()
    for e, c in f.terms.items():
        term = reg.const(c)
        for i, k in enumerate(e):
            if k:
                term = term * power_sum(reg, N, i + 1).num ** k
        out = out + term
    return out


def test_trace_polynomial_invariant():
    rng = random.Random(3)
    reg = session_registry(2)
    for _ in range(5):
        f = random_trace_polynomial(rng)
        pt = RationalMatrixPoint.random(2, rng)
        # evaluation through Q equals the symmetric polynomial at the eigenvalues
        spec = [(Fraction(1), "")]  # multiplication by nothing: just Psi itself
        psi_q = apply_matrix_operator(pt, spec, f, 1)
        fz = power_sums_into(f, reg, 2)
        assert psi_q == fz.eval({"z1": pt.Z[0], "z2": pt.Z[1], "t": Fraction(0)})


def matches_symbolic(jet, fz, zs):
    """The jet's value, d_rho and d_rho^2 equal those of the polynomial fz at zs."""
    names = zvars(fz.reg)[: len(zs)]
    point = {**dict(zip(names, zs)), "t": Fraction(0)}
    if jet.value() != fz.eval(point):
        return False
    for rho, zn in enumerate(names):
        d1, sym = jet.deriv(rho), fz.partial(zn)
        if d1.value() != sym.eval(point) or d1.deriv(rho).value() != sym.partial(zn).eval(point):
            return False
    return True


@pytest.mark.parametrize("N", [1, 2, 3])
def test_z_jet_matches_the_symbolic_substitution(N):
    rng = random.Random(40 + N)
    reg = session_registry(N)
    for _ in range(6):
        f = random_trace_polynomial(rng, max_power=6, terms=4)
        zs = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(N)]
        fz = power_sums_into(f, reg, N)
        jet = radial.z_jet(zs, f)
        assert matches_symbolic(jet, fz, zs)
        # one wrong second-order coefficient is seen
        rho = rng.randrange(N)
        wrong = Jet(N, list(jet.v), jet.d)
        wrong.v[radial._tables(N)[1][1 + rho][1 + rho]] += 1
        assert not matches_symbolic(wrong, fz, zs)


def test_pure_multiplication_word():
    rng = random.Random(5)
    pt = RationalMatrixPoint.random(2, rng)
    # op = Tr(q^2), f = 1: value is sum of z^2
    val = apply_matrix_operator(pt, [(Fraction(1), "qq")], TRACE_REG.one(), 1)
    assert val == pt.Z[0] ** 2 + pt.Z[1] ** 2


def test_tr_p2_on_t2():
    # Tr(p^2) applied to T_2 gives 2 hbar^2 N^2 at any point
    rng = random.Random(11)
    for N in (2, 3):
        pt = RationalMatrixPoint.random(N, rng)
        val = apply_matrix_operator(pt, [(Fraction(1), "pp")], TRACE_REG.var("T2"), Fraction(1, 3))
        assert val == 2 * Fraction(1, 3) ** 2 * N * N


def test_tr_p_on_t1():
    rng = random.Random(12)
    pt = RationalMatrixPoint.random(2, rng)
    # Tr(p) T_1 = hbar * N
    val = apply_matrix_operator(pt, [(Fraction(1), "p")], TRACE_REG.var("T1"), Fraction(1, 2))
    assert val == Fraction(1, 2) * 2


def trace_product(pt, words, f, hbar):
    """Tr(words[0]) Tr(words[1]) ... applied to f at the point, the rightmost trace first."""
    jet = radial._psi_jet(pt, f)
    for word in reversed(words):
        jet = apply_trace_word(pt, word, jet, hbar, {})
    return jet.value()


def test_trace_product_word():
    rng = random.Random(13)
    pt = RationalMatrixPoint.random(2, rng)
    # Tr(q)Tr(p) f with f = T_1: hbar * N * Tr(Q)
    assert trace_product(pt, ("q", "p"), TRACE_REG.var("T1"), Fraction(1)) == (pt.Z[0] + pt.Z[1]) * 2
    # a word of momentum degree 3 is beyond the order-2 jets
    with pytest.raises(UsageError):
        apply_matrix_operator(pt, [(Fraction(1), "ppp")], TRACE_REG.var("T1"), 1)


def test_equivariance_in_g():
    rng = random.Random(17)
    f = random_trace_polynomial(rng)
    z = [Fraction(1, 2), Fraction(-3), Fraction(2)]
    g1 = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]
    g2 = [[2, -1, 1], [1, 1, 0], [0, 3, 1]]
    spec = hamiltonian_trace_spec("IV", 3, Fraction(5, 3), th0=Fraction(1, 2), th1=Fraction(-2, 3))
    v1 = apply_matrix_operator(RationalMatrixPoint(z, g1), spec, f, Fraction(1, 2))
    v2 = apply_matrix_operator(RationalMatrixPoint(z, g2), spec, f, Fraction(1, 2))
    assert v1 == v2


def test_finite_difference_sanity():
    # Richardson-extrapolated central differences vs the exact jet computation
    # for Tr(q p^2); small well-conditioned point, relative 1e-8 (sanity tier)
    pt = RationalMatrixPoint(
        [Fraction(1, 2), Fraction(-1, 3)], [[1, 1], [0, 1]]
    )
    f = TRACE_REG.var("T1") * TRACE_REG.var("T2") + 2 * TRACE_REG.var("T2")
    exact = apply_matrix_operator(pt, [(Fraction(1), "qpp")], f, 1)

    def psi(q):
        tr = {}
        power = [[float(i == j) for j in range(2)] for i in range(2)]
        for k in range(1, 7):
            power = [[sum(power[i][s] * q[s][j] for s in range(2)) for j in range(2)] for i in range(2)]
            tr[k] = power[0][0] + power[1][1]
        total = 0.0
        for e, c in f.terms.items():
            v = float(c)
            for idx, k in enumerate(e):
                v *= tr[idx + 1] ** k
            total += v
        return total

    q0 = [[float(x) for x in row] for row in pt.Q]

    def second_diff(rho, sigma, tau, h):
        def shifted(d1, d2):
            q = [row[:] for row in q0]
            q[tau][sigma] += d1  # derivative wrt q_{tau sigma}
            q[rho][tau] += d2  # derivative wrt q_{rho tau}
            return psi(q)

        return (shifted(h, h) - shifted(h, -h) - shifted(-h, h) + shifted(-h, -h)) / (4 * h * h)

    num = 0.0
    # Tr(q p^2) = sum q_{rho sigma} p_{sigma tau} p_{tau rho} -> second derivatives
    for rho in range(2):
        for sigma in range(2):
            for tau in range(2):
                d1, d2 = second_diff(rho, sigma, tau, 1e-2), second_diff(rho, sigma, tau, 5e-3)
                num += q0[rho][sigma] * (4 * d2 - d1) / 3
    assert abs(num - float(exact)) <= 1e-8 * max(1.0, abs(float(exact)))


@pytest.mark.parametrize("N", [2, 3])
def test_qkp2_worked_example(N):
    rep = verify_qkp2(N, kmax=3, trials=2, seed=5)
    assert rep["ok"], rep["mismatches"][:1]


@pytest.mark.parametrize("J", ["I", "II", "III", "IV", "V"])
@pytest.mark.parametrize("N", [2, 3])
def test_radial_match_printed(J, N):
    [rep] = verify_radial_match(J, N, [(None, 3)], seed=101)
    assert rep["ok"], rep["mismatches"][:1]


@pytest.mark.parametrize("N", [2, 3])
def test_radial_vi_printed_fails_and_resolves(N):
    # The printed VI first-order z-coefficient reads -hbar(1+t) inside
    # hbar(...); the matrix side demands -2 hbar (1+t).  As an additive
    # correction to the cleared operator that is -hbar^2 (1+t) sum_rho z d_rho,
    # and the resolver must find exactly that for every hbar.
    [rep] = verify_radial_match("VI", N, [(None, 2)], seed=31)
    assert not rep["ok"], "printed VI unexpectedly matches the matrix operator"
    for hbar in (Fraction(1, 2), Fraction(2)):
        corr, report = resolve_radial_corrections("VI", N, hbar, seed=9)
        assert not report["printed_exact"]
        assert report["verified"], report
        h2 = hbar * hbar
        assert corr["first_order"][1] == (-h2, -h2)
        assert all(c == (0, 0) for i, c in enumerate(corr["first_order"]) if i != 1)
        assert corr["scalar"] == (0, 0) and corr["sum_z"] == (0, 0)


def coefficients(op):
    return [*op.A, *op.B, op.C]


def at_point(build, reg, Z, t):
    """(the symbolic operator's coefficients evaluated at (Z, t), the operator built at (Z, t))."""
    point = {**dict(zip(zvars(reg), Z)), "t": t}
    return [c.eval(point) for c in coefficients(build(*symbols(reg, len(Z))))], coefficients(build(Z, t))


# every correction slot nonzero, so each reaches the operator
ANY_CORRECTION = {
    "first_order": [(Fraction(1, 3), 0), (Fraction(-1, 4),) * 2, (0, Fraction(2)), (Fraction(5), Fraction(-1, 6))],
    "scalar": (Fraction(1, 5), Fraction(-2)),
    "sum_z": (Fraction(3), Fraction(1, 7)),
}


@pytest.mark.parametrize("N", [2, 3])
def test_the_operator_built_at_a_point_equals_the_symbolic_one_there(N):
    # the radial checks build the printed operators at the rational point
    # (Z, t); the same builder over RatFuns, evaluated there, is the oracle
    rng = random.Random(60 + N)
    reg = session_registry(N)
    builds = []
    for hbar in (Fraction(1, 2), Fraction(2)):
        fitted = resolve_radial_corrections("VI", N, hbar, seed=9)[0]
        for kappa in (0, Fraction(2, 5)):
            for J in (*families.NAMES, "II_pre"):
                params = families.family("II" if J == "II_pre" else J).random_thetas(rng)
                for corr in (None, fitted, ANY_CORRECTION) if J == "VI" else (None,):
                    kw = dict(J=J, hbar=hbar, kappa=kappa, corrections=corr, **params)
                    builds.append(partial(build_radial_hamiltonian, **kw))
            # the worked reduction has no t
            for k in range(4):
                builds.append(partial(lambda zs, t, **kw: qkp2_radial_op(zs, **kw), k=k, hbar=hbar, kappa=kappa))
    assert len(builds) == 52
    for build in builds:
        Z = RationalMatrixPoint.random(N, rng).Z
        t = Fraction(rng.randint(1, 9), rng.randint(1, 4)) + 1
        symbolic, point = at_point(build, reg, Z, t)
        assert symbolic == point, build
        # the negative control: a constant off by one is seen
        assert symbolic != point[:-1] + [point[-1] + 1]


def test_the_radial_value_reads_the_jet():
    # apply the operator built at the point to f through the jet, and
    # the symbolic operator to f(power sums), then evaluate
    rng = random.Random(70)
    reg = session_registry(2)
    params = families.family("V").random_thetas(rng)
    Z, t = [Fraction(1, 3), Fraction(-2)], Fraction(5, 2)
    point = {"z1": Z[0], "z2": Z[1], "t": t}
    f = random_trace_polynomial(rng)
    op = build_radial_hamiltonian(*symbols(reg, 2), "V", Fraction(1, 2), 0, **params)
    expect = apply_op(op, power_sums_into(f, reg, 2)).eval(point)
    assert radial_value(build_radial_hamiltonian(Z, t, "V", Fraction(1, 2), 0, **params), radial.z_jet(Z, f)) == expect


@pytest.mark.parametrize("J", ["I", "III", "IV", "V"])
def test_resolve_reports_printed_exact(J):
    corr, report = resolve_radial_corrections(J, 2, Fraction(1, 2), seed=3)
    assert report["printed_exact"], (J, corr)


def test_gauge_recovers_printed_gauged_form():
    # e^{S/hbar} H_II_pre e^{-S/hbar} + dS/dt with S = sum(z^3/3 + t z/2)
    reg = session_registry(2)
    N = 2
    hbar = Fraction(1, 3)
    kappa = Fraction(2, 5)
    th = Fraction(-3, 7)
    pre = build_radial_hamiltonian(*symbols(reg, N), "II_pre", hbar, kappa, th=th)
    s = reg.zero()
    for zn in ("z1", "z2"):
        z = reg.var(zn)
        s = s + z**3 * Fraction(1, 3) + reg.var("t") * z * Fraction(1, 2)
    gauged = gauge_scalar_conjugate(pre, s, hbar)
    target = build_radial_hamiltonian(*symbols(reg, N), "II", hbar, kappa, th=th)
    assert operator_equal(gauged, target)
    # first-order coefficient is -hbar (z^2 + t/2) plus the divided difference part
    z1, z2, t = (RatFun.var(reg, n) for n in ("z1", "z2", "t"))
    dd_part = hbar * hbar * (1 / (z1 - z2))
    assert gauged.B[0].equal(-hbar * (z1**2 + t * Fraction(1, 2)) + dd_part)


def test_gauge_zero_is_identity():
    reg = session_registry(2)
    op = build_radial_hamiltonian(*symbols(reg, 2), "IV", Fraction(1, 2), 0, th0=1, th1=2)
    assert operator_equal(gauge_scalar_conjugate(op, reg.zero(), 1), op)


def test_vi_depends_on_k2_only():
    reg = session_registry(2)
    kw = dict(th0=Fraction(1, 2), th1=Fraction(1, 3), tht=Fraction(1, 5), k2=Fraction(4, 9))
    op1 = build_radial_hamiltonian(*symbols(reg, 2), "VI", 1, 0, **kw)
    op2 = build_radial_hamiltonian(*symbols(reg, 2), "VI", 1, 0, **kw)
    assert operator_equal(op1, op2)


# ---------------------------------------------------------------------------
# The dense integer jets
# ---------------------------------------------------------------------------


def golden_matrix_values():
    """apply_matrix_operator at seeded points: every family's Hamiltonian at
    N = 1, 2, 3 on a T1..T3 and a T5/T6 wave function, plus products of traces."""
    rng = random.Random(2718)
    high = TRACE_REG.var("T5") * TRACE_REG.var("T1") + Fraction(-2, 3) * TRACE_REG.var("T6")
    extra = [(Fraction(1), ("qqqpp",)), (Fraction(-3, 2), ("qq", "p")), (Fraction(2), ("p", "qp")), (Fraction(1, 5), ())]
    out = []
    for N in (1, 2, 3):
        for J in families.NAMES:
            params = families.family(J).random_thetas(rng)
            t = Fraction(rng.randint(1, 9), rng.randint(1, 4)) + 1
            hbar = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            pt = RationalMatrixPoint.random(N, rng)
            spec = hamiltonian_trace_spec(J, N, t, **params)
            for f in (random_trace_polynomial(rng), random_trace_polynomial(rng, max_power=6, max_degree=2) + high):
                out.append(apply_matrix_operator(pt, spec, f, hbar))
        pt = RationalMatrixPoint.random(N, rng)
        f = random_trace_polynomial(rng, max_power=6)
        out.append(sum(c * trace_product(pt, words, f, Fraction(2, 3)) for c, words in extra))
    return out


def test_matrix_operator_values_golden():
    # taken from the Fraction-dict jets that the dense integer jets replaced
    text = "\n".join(str(v) for v in golden_matrix_values())
    assert hashlib.sha256(text.encode()).hexdigest() == "ce74389ec22a4cd6e8ef3238b71fed26e93a2ecfdb26137e94d5a8685a69cc99"


# reference jets: {sorted tuple of variable indices, degree <= 2: Fraction}


def ref_clean(a):
    return {k: c for k, c in a.items() if c}


def ref_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            if len(k1) + len(k2) <= 2:
                k = tuple(sorted(k1 + k2))
                out[k] = out.get(k, 0) + c1 * c2
    return ref_clean(out)


def ref_deriv(a, v):
    out = {}
    for k, c in a.items():
        if v in k:
            rest = list(k)
            rest.remove(v)
            out[tuple(rest)] = out.get(tuple(rest), 0) + c * k.count(v)
    return ref_clean(out)


def dense(n, a):
    out = Jet(n)
    for k, c in a.items():
        term = Jet.const(n, c)
        for i in k:
            term = term * Jet.var(n, i)
        out = out + term
    return out


def read(jet):
    """Every coefficient of a dense jet, read back through value and deriv."""
    n = jet.n
    out = {(): jet.value()}
    for i in range(n):
        d = jet.deriv(i)
        out[(i,)] = d.value()
        for j in range(i, n):
            out[(i, j)] = d.deriv(j).value() / (2 if i == j else 1)
    return ref_clean(out)


@st.composite
def ref_jets(draw, n):
    keys = [()] + [(i,) for i in range(n)] + [(i, j) for i in range(n) for j in range(i, n)]
    coeff = st.fractions(min_value=-10, max_value=10, max_denominator=7)
    chosen = draw(st.lists(st.sampled_from(keys), max_size=8, unique=True))
    return {k: draw(coeff) for k in chosen}


# one example took 254 ms on a loaded machine, past hypothesis's 200 ms default deadline
@settings(max_examples=120, deadline=None)
@given(st.data())
def test_dense_jet_matches_reference(data):
    n = data.draw(st.integers(1, 5))
    a, b = data.draw(ref_jets(n)), data.draw(ref_jets(n))
    c = data.draw(st.fractions(min_value=-10, max_value=10, max_denominator=7))
    v = data.draw(st.integers(0, n - 1))
    A, B = dense(n, a), dense(n, b)
    assert read(A) == ref_clean(a)
    assert read(A + B) == ref_add(a, b)
    assert read(A * B) == ref_mul(a, b)
    assert read(A.pow(3)) == ref_mul(a, ref_mul(a, a))
    assert read(A.scale(c)) == ref_clean({k: x * c for k, x in a.items()})
    assert read(A.deriv(v)) == ref_deriv(a, v)
