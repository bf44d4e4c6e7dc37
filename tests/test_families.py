"""The family table: weight data against numeric derivatives, samplers
against admissibility, the rendered Hamiltonians against the forms the
builders printed before they were rendered from the table, and sigma, the
prefactor and the weight fields against the checks that can see them."""

import dataclasses
import hashlib
import random
from fractions import Fraction

import mpmath
import pytest

from cpverify import checks, families, moments, quadrature, radial
from cpverify.exact import session_registry
from cpverify.moments import MasterFunction
from cpverify.radial import hamiltonian_trace_spec
from cpverify.weyl import WeylAlgebra, build_quantum_hamiltonian

REG = session_registry(1, seeds=("nu0", "nu1"))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def mpq(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


# an interior node of each contour where every weight is real and positive
U_OF = {families.POLYLINE: Fraction(1, 2), families.HALF_LINE: Fraction(13, 10), families.UNIT: Fraction(3, 10)}


@pytest.mark.parametrize("J", families.WEIGHTED)
def test_weight_log_derivatives_match_numeric_differentiation(J):
    fam = families.weighted(J)
    t, params = fam.sample(random.Random(3))
    mf = MasterFunction(J, REG, params)
    point = {"t": t, "nu0": 0, "nu1": 0}
    with mpmath.mp.workprec(128):
        u, tv = mpq(U_OF[fam.contour]), mpq(t)
        p = {k: mpq(v) for k, v in params.items()}

        def poly(coeffs):
            return sum(mpq(c.eval(point)) * u**j for j, c in coeffs.items())

        du = mpmath.diff(lambda x: mpmath.log(quadrature.theta(J, x, tv, p)), u)
        assert abs(du - poly(mf.logd_num) / poly(mf.clearing)) < mpmath.mpf("1e-25") * max(1, abs(du))
        dt = mpmath.diff(lambda s: mpmath.log(quadrature.theta(J, u, s, p)), tv)
        rule = fam.dt_log_at(u, tv, p, 1 - u)
        assert abs(dt - rule) < mpmath.mpf("1e-25") * max(1, abs(dt))


@pytest.mark.parametrize("J", families.WEIGHTED)
def test_sampler_draws_are_admissible(J):
    fam = families.weighted(J)
    rng = random.Random(11)
    for _ in range(200):
        t, params = fam.sample(rng)
        assert fam.admissible(t, params), (t, params)
        quadrature.check_domain(J, t, params)


# sha256 prefixes of to_str() (weyl mode: "operator | clearing") and of the
# radial spec repr, taken from the hand-written builders the table replaced;
# classical VI is the former dedicated classical builder
GOLDEN_NCPOLY = {
    ('II', 'weyl', 1): '1cd4be06265ba554',
    ('II', 'classical', 1): '7cce038b3a5498fc',
    ('II', 'weyl', 2): '2f8fd1fe104894c6',
    ('II', 'classical', 2): 'dac8a6c7b4a9b568',
    ('II', 'weyl', 3): '47fce6121fbc7498',
    ('II', 'classical', 3): '32d088a086455710',
    ('III', 'weyl', 1): '3c7b8b7cdaa77464',
    ('III', 'classical', 1): '6fe6acfcfcb82a91',
    ('III', 'weyl', 2): 'db032b2e9049b6ff',
    ('III', 'classical', 2): '78108d3ce50e96cb',
    ('III', 'weyl', 3): 'b5cfc3512a50c312',
    ('III', 'classical', 3): '9f3e63daf9a2ba98',
    ('IV', 'weyl', 1): 'c6df046f00877e8b',
    ('IV', 'classical', 1): 'c5fa77e1cb05aadf',
    ('IV', 'weyl', 2): '4fa8fc227d876b8d',
    ('IV', 'classical', 2): '7b0e3d71e9a6887d',
    ('IV', 'weyl', 3): 'e073c12b101a4ed7',
    ('IV', 'classical', 3): 'c20d19c013ed7644',
    ('V', 'weyl', 1): 'ca5b2484cd3a8bd1',
    ('V', 'classical', 1): '88887a5d3db016fe',
    ('V', 'weyl', 2): 'e33085d33f73547c',
    ('V', 'classical', 2): '389186cd7a66d935',
    ('V', 'weyl', 3): '9510f661a5f145ab',
    ('V', 'classical', 3): '8041979a3bb96d93',
    ('VI', 'weyl', 1): '827b6516fe93243e',
    ('VI', 'classical', 1): 'ab4a480fd126ee27',
    ('VI', 'weyl', 2): '9cbd7649c631c212',
    ('VI', 'classical', 2): '469ba320fb956687',
    ('VI', 'weyl', 3): 'becdbb17524b562d',
    ('VI', 'classical', 3): '3ea8d8a5cf94fb88',
}
GOLDEN_SPEC = {
    ('I', 1): '5aff018a81b5231d',
    ('I', 2): '5aff018a81b5231d',
    ('I', 3): '5aff018a81b5231d',
    ('II', 1): '9105e5a452434260',
    ('II', 2): '798e1745e653aa8c',
    ('II', 3): 'a1c517804c6fc0f0',
    ('III', 1): '7967150ef84e1914',
    ('III', 2): '7967150ef84e1914',
    ('III', 3): '7967150ef84e1914',
    ('IV', 1): '5661e076f2857b03',
    ('IV', 2): '5661e076f2857b03',
    ('IV', 3): '5661e076f2857b03',
    ('V', 1): '1e205b494a26e8d4',
    ('V', 2): '1e205b494a26e8d4',
    ('V', 3): '1e205b494a26e8d4',
    ('VI', 1): '565d65e57f681f36',
    ('VI', 2): '565d65e57f681f36',
    ('VI', 3): '565d65e57f681f36',
}


T = Fraction(5, 3)
THETAS = dict(th=Fraction(-3, 7), th0=Fraction(2, 5), th1=Fraction(-1, 3), th2=Fraction(5, 4), tht=Fraction(1, 6), k2=Fraction(7, 9))


@pytest.mark.parametrize("J, mode, N", sorted(GOLDEN_NCPOLY))
def test_rendered_ncpoly_matches_the_printed_builders(J, mode, N):
    op, clearing = build_quantum_hamiltonian(WeylAlgebra(N, mode=mode), J)
    text = op.to_str() + " | " + clearing.to_str() if mode == "weyl" else op.to_str()
    assert digest(text) == GOLDEN_NCPOLY[(J, mode, N)]


@pytest.mark.parametrize("J, N", sorted(GOLDEN_SPEC))
def test_rendered_radial_spec_matches_the_printed_builders(J, N):
    assert digest(repr(hamiltonian_trace_spec(J, N, T, **THETAS))) == GOLDEN_SPEC[(J, N)]


# the resolved additive correction to the printed VI operator at hbar = 1/2, N = 2
VI_CORRECTION = {"first_order": [(0, 0), (Fraction(-1, 4),) * 2, (0, 0), (0, 0)], "scalar": (0, 0), "sum_z": (0, 0)}


@pytest.mark.parametrize("J", families.WEIGHTED)
def test_a_wrong_sigma_fails_the_matrix_side_and_the_ansatz(J, monkeypatch):
    # both operators of n1 and table1 take their sigma from the table, so those
    # cannot see a wrong one; the trace words and the beta-integral ansatz can
    fam = families.weighted(J)
    corrections = VI_CORRECTION if J == "VI" else None
    assert radial.verify_radial_match(J, 2, [(corrections, 3)], 5)[0]["ok"]
    assert moments.verify_pde_symbolic(J, 2, 1, 1)["ok"]
    wrong = dataclasses.replace(fam, sigma=lambda t: tuple(2 * c for c in fam.sigma(t)))
    monkeypatch.setitem(families._BY_NAME, J, wrong)
    assert not radial.verify_radial_match(J, 2, [(corrections, 3)], 5)[0]["ok"]
    assert not moments.verify_pde_symbolic(J, 2, 1, 1)["ok"]


# a wrong printed prefactor (1, t or t(t-1)); V's is t, so its mutant drops it
WRONG_PREFACTOR = {"II": lambda t: 1 + t, "III": lambda t: t * t, "IV": lambda t: 1 + t, "V": lambda t: 1, "VI": lambda t: t}


@pytest.mark.parametrize("J", sorted(WRONG_PREFACTOR))
def test_a_wrong_prefactor_fails_the_symbolic_pde(J, monkeypatch):
    # the builders divide the prefactor out, so a wrong one moves into the
    # solved time factor tau, which the record pins to N (criterion 9 of the
    # acceptance matrix runs the unmutated check)
    wrong = dataclasses.replace(families.weighted(J), prefactor=WRONG_PREFACTOR[J])
    monkeypatch.setitem(families._BY_NAME, J, wrong)
    (rec,) = checks.run_pde_symbolic(J, 2, 2, 1)
    assert not rec.ok
    assert rec.detail.endswith("instead of N = 2")


# the mutation matrix: each row perturbs one field of one family and must fail
# one cheap suite check, run here at the benchmark's settings (the oracle at
# 128 bits, pde-numeric at level 3, table1 at N = 2) or, where a mutant keeps
# more digits than 128 bits resolve, at the suite's (the oracle at 192 bits),
# which test_the_catching_checks_pass_unmutated runs unmutated.  The printed operator
# forms are each caught by the check that sets them against another: cp and
# nagoya by n1, radial by the matrix side (II's gauged one by the scalar gauge,
# its pre-gauge one by the matrix side), table by table1.  The prefactor and
# sigma rows are the tests above.  Left out:
# ``window`` of II, V and VI (the polyline and [0, 1] take no window), ``exponents``
# of II (its weight has no power factor), and the input guards ``admissible``,
# ``sample`` and ``requirement``; ``min_n`` is a coverage knob (III's set to 0
# passes the oracle).
CATCHERS = {
    "radial": lambda J: checks.run_radial(J, 2, trials=5, seed=42),
    "oracle": lambda J: checks.run_oracle_moments(J, kmax=4, prec=128, points=3, seed=42),
    "suite oracle": lambda J: checks.run_oracle_moments(J, kmax=6, prec=192, points=3, seed=42),
    "pde-symbolic": lambda J: checks.run_pde_symbolic(J, 2, 2, 1),
    "n1": lambda J: checks.run_n1(),
    "table1": lambda J: checks.run_table1((J,), N_values=(2,)),
    "gauge-scalar": lambda J: checks.run_gauge_transformation(),
    "pde-numeric": lambda J: checks.run_pde_numeric(
        J, 2, 2, Fraction(1, 2), checks.NUMERIC_POINTS[J][0][0],
        checks.numeric_pde_params(J, 2, Fraction(1, 2), checks.NUMERIC_POINTS[J][0][1]), prec=64, level=3,
    ),
}


def plus_one(word):
    """The Hamiltonian with 1 added to the coefficient of Tr(word)."""
    return lambda fam: lambda t, p: [(c + 1 if w == word else c, w) for c, w in fam.hamiltonian(t, p)]


def plus_one_in(field, part, k=0):
    """The printed form ``field`` with 1 added to first[k] (part 0), zeroth[k] (part 1) or const (part 2)."""
    def make(fam):
        def form(*args):
            out = list(getattr(fam, field)(*args))
            if part == 2:
                out[2] = out[2] + 1
            else:
                out[part] = [c + 1 if i == k else c for i, c in enumerate(out[part])]
            return tuple(out)
        return form
    return make


def plus_one_in_table(fam):
    """The printed parameter map with 1 added to its first value (II's theta, th0 elsewhere)."""
    def table(*args):
        out = fam.table(*args)
        key = next(iter(out))
        return {**out, key: out[key] + 1}
    return table


def shifted_log_derivative(fam):
    """Theta'/Theta plus u / clearing."""
    def log_derivative(t, p):
        clearing, num = fam.log_derivative(t, p)
        return clearing, {**num, 1: num.get(1, 0) + 1}
    return log_derivative


def flipped_dt_log(fam):
    return lambda p: (-fam.dt_log(p)[0], *fam.dt_log(p)[1:])


# (J, row) -> (field, the mutant value made from the unmutated family, catching check)
MUTANTS = {
    **{(J, "Tr(q) coefficient"): ("hamiltonian", plus_one("q"), "radial") for J in families.WEIGHTED},
    ("VI", "Tr(p) coefficient"): ("hamiltonian", plus_one("p"), "radial"),
    **{(J, "cp first order"): ("cp", plus_one_in("cp", 0), "n1") for J in families.WEIGHTED},
    **{(J, "nagoya zeroth order"): ("nagoya", plus_one_in("nagoya", 1, 1), "n1") for J in families.WEIGHTED},
    **{(J, "radial constant"): ("radial", plus_one_in("radial", 2), "radial") for J in ("I", "III", "IV", "V", "VI")},
    ("II", "radial constant"): ("radial", plus_one_in("radial", 2), "gauge-scalar"),
    ("II", "radial_pre zeroth order"): ("radial_pre", plus_one_in("radial_pre", 1, 1), "radial"),
    **{(J, "table"): ("table", plus_one_in_table, "table1") for J in families.WEIGHTED},
    **{(J, "log_derivative"): ("log_derivative", shifted_log_derivative, "pde-symbolic") for J in families.WEIGHTED},
    **{(J, "dt_log"): ("dt_log", flipped_dt_log, "pde-symbolic") for J in ("II", "III", "IV", "VI")},
    ("V", "dt_log"): ("dt_log", lambda fam: lambda p: (2, 1, 0), "pde-numeric"),
    ("II", "factor"): ("factor", lambda fam: lambda u, t, p, omu: mpmath.exp(-(u * t + u**3 / 3)), "oracle"),
    ("III", "factor"): ("factor", lambda fam: lambda u, t, p, omu: mpmath.exp(t / u - 2 * u), "oracle"),
    ("IV", "factor"): ("factor", lambda fam: lambda u, t, p, omu: mpmath.exp(-(u * t + u * u / 3)), "oracle"),
    ("V", "factor"): ("factor", lambda fam: lambda u, t, p, omu: mpmath.exp(2 * u * t), "oracle"),
    ("VI", "factor"): ("factor", lambda fam: lambda u, t, p, omu: ((t - 1) + omu) ** (-2 * p["d"]), "oracle"),
    ("III", "exponents"): ("exponents", lambda fam: lambda p: (-p["b"], None), "oracle"),
    ("IV", "exponents"): ("exponents", lambda fam: lambda p: (-p["b"], None), "oracle"),
    ("V", "exponents"): ("exponents", lambda fam: lambda p: (-p["b"], -p["c"] - 1), "oracle"),
    ("VI", "exponents"): ("exponents", lambda fam: lambda p: (-p["a"] - p["b"], -p["c"] - 1), "oracle"),
    # the half-line cuts 160 + 3|t| and 40 + 3|t| moved into the live region
    ("III", "window"): ("window", lambda fam: lambda t: 8.0, "oracle"),
    ("IV", "window"): ("window", lambda fam: lambda t: 6.0, "oracle"),
    # cuts that keep fewer digits than the working precision: the residual
    # reaches 2^(-prec/2) though it stays under the fixed 1e-10
    ("IV", "window 6 + 3|t|"): ("window", lambda fam: lambda t: 6.0 + 3 * abs(float(t)), "oracle"),
    ("IV", "window 8 + 3|t|"): ("window", lambda fam: lambda t: 8.0 + 3 * abs(float(t)), "suite oracle"),
    # a gap no first-order correction fits: the resolver fails by name
    ("VI", "Tr(q^4) term"): ("hamiltonian", lambda fam: lambda t, p: [*fam.hamiltonian(t, p), (1, "qqqq")], "radial"),
}


@pytest.mark.parametrize("J, check", sorted({(J, check) for (J, _), (_, _, check) in MUTANTS.items()}))
def test_the_catching_checks_pass_unmutated(J, check):
    assert all(rec.ok for rec in CATCHERS[check](J))


@pytest.mark.parametrize("J, row", sorted(MUTANTS))
def test_a_mutant_fails_a_cheap_check(J, row, monkeypatch):
    field, make, check = MUTANTS[(J, row)]
    fam = families.family(J)
    monkeypatch.setitem(families._BY_NAME, J, dataclasses.replace(fam, **{field: make(fam)}))
    # the VI radial correction is fitted once per (N, hbar) and the worked
    # reduction run once per argument set; both are cached
    monkeypatch.setattr(checks, "_RESOLVED_RADIAL_CACHE", {})
    monkeypatch.setattr(checks, "_WORKED_REDUCTION_CACHE", {})
    assert not all(rec.ok for rec in CATCHERS[check](J))
