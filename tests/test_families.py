"""The family table: weight data against numeric derivatives, samplers
against admissibility, the rendered Hamiltonians against the forms the
builders printed before they were rendered from the table, and sigma against
the checks that can see it."""

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
    assert radial.verify_radial_match(J, 2, 3, 5, corrections=corrections)["ok"]
    assert moments.verify_pde_symbolic(J, 2, 1, 1)["ok"]
    wrong = dataclasses.replace(fam, sigma=lambda t: tuple(2 * c for c in fam.sigma(t)))
    monkeypatch.setitem(families._BY_NAME, J, wrong)
    assert not radial.verify_radial_match(J, 2, 3, 5, corrections=corrections)["ok"]
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
