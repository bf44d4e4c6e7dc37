"""The 1-D moments against classical closed forms that the engine does not compute.

At the suite's three oracle points (seed 42), k = 0..6 and 192 bits, each
nu_k of families II-VI, and VI's rho_k, is compared with its closed form
(with alpha = k - b for III-V, k - a - b for VI, and beta = -c):

- II: (-1)^k (-2 pi i lambda omega) c^k Ai^(k)(c t), lambda = 2^(-1/3),
  omega = e^(2 pi i/3), c = -lambda omega (DLMF 9.5.4);
- III: 2 (-t)^(alpha/2) K_alpha(2 sqrt(-t)) (DLMF 10.32.10);
- IV: Gamma(alpha) e^(t^2/4) D_(-alpha)(t) (DLMF 12.5.1);
- V: B(alpha, beta) 1F1(alpha; alpha + beta; t) (DLMF 13.4.1);
- VI: t^(-d-s) B(alpha, beta) 2F1(d + s, alpha; alpha + beta; 1/t)
  (DLMF 15.6.1), s = 1 for rho_k.

The closed forms are evaluated 64 bits above the moments.  On a real
contour the returned error |fine - 2 coarse| leaves out the rounding of the
fine sum itself, a recursive sum of same-sign terms (every III-VI term is
positive on its real contour), whose error is at most about (points - 1) units in
the last place (Higham, Accuracy and Stability of Numerical Algorithms,
section 4.2).  So a moment must lie within its own error plus one ulp per
point summed.  II's mpmath.quad value must lie within its own error plus
four ulps.
"""

import random

import mpmath
import pytest

from cpverify import families, quadrature

PREC = 192
KS = range(7)


def _ii(k, t, p):
    lam = mpmath.mpf(2) ** (-mpmath.mpf(1) / 3)
    omega = mpmath.exp(2j * mpmath.pi / 3)
    c = -lam * omega
    return (-1) ** k * (-2j * mpmath.pi * lam * omega) * c**k * mpmath.airyai(c * t, derivative=k)


def _iii(k, t, p):
    alpha = k - p["b"]
    return 2 * (-t) ** (alpha / 2) * mpmath.besselk(alpha, 2 * mpmath.sqrt(-t))


def _iv(k, t, p):
    alpha = k - p["b"]
    return mpmath.gamma(alpha) * mpmath.exp(t * t / 4) * mpmath.pcfd(-alpha, t)


def _v(k, t, p):
    alpha, beta = k - p["b"], -p["c"]
    return mpmath.beta(alpha, beta) * mpmath.hyp1f1(alpha, alpha + beta, t)


def _vi(k, t, p, s=0):
    alpha, beta, d = k - p["a"] - p["b"], -p["c"], p["d"]
    return t ** (-d - s) * mpmath.beta(alpha, beta) * mpmath.hyp2f1(d + s, alpha, alpha + beta, 1 / t)


# family -> {s: closed form of int u^k (t-u)^(-s) Theta du at (k, t, params)}
CLOSED = {
    "II": {0: _ii},
    "III": {0: _iii},
    "IV": {0: _iv},
    "V": {0: _v},
    "VI": {0: _vi, 1: lambda k, t, p: _vi(k, t, p, s=1)},
}


def _ulp(x, prec):
    return mpmath.mpf(2) ** (mpmath.mag(x) - prec)


def _oracle_points(J):
    """The points ``checks.run_oracle_moments`` draws at the suite's seed 42."""
    rng = random.Random(42)
    return [families.weighted(J).sample(rng) for _ in range(3)]


@pytest.mark.parametrize("J", sorted(CLOSED))
def test_moments_match_their_closed_forms(J):
    keys = [(k, s) for s in CLOSED[J] for k in KS]
    worst = 0
    for t, params in _oracle_points(J):
        fam, p, bs = quadrature.check_domain(J, t, params)
        found = quadrature.moments_numeric(J, keys, t, params, prec=PREC)
        level = max(6, PREC // 32 + 3)  # the level moments_numeric runs at PREC
        points = 4 if fam.contour == families.POLYLINE else round(2 ** quadrature._log2_points(level, PREC, bs))
        with mpmath.mp.workprec(PREC + 64):
            tv, pv = mpmath.mpf(t.numerator) / t.denominator, {k: mpmath.mpf(v.numerator) / v.denominator for k, v in p.items()}
            for (k, s), (value, err) in found.items():
                exact = CLOSED[J][s](k, tv, pv)
                bound = err + points * _ulp(abs(value), PREC)
                assert abs(value - exact) <= bound, (J, t, k, s, mpmath.nstr(abs(value - exact) / bound, 3))
                worst = max(worst, abs(value - exact) / bound)
    # a closed form that matched nothing would fail above; one that matched
    # by accident would need every key of every point to agree
    assert worst < 1
