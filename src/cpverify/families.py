"""The Painleve families I-VI: one record per family, each fact stated once.

Hamiltonian coefficients use only ``+``, ``-`` and ``*``, so one list renders
to an NCPoly (``weyl``) and to a jet spec (``radial``); the empty trace word
is Tr(Id) = N.  The weight data take exact or mpf arguments alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath

from .errors import UsageError

HALF = Fraction(1, 2)

# weight contours: the polyline from infinity * e^{-2 pi i/3} through 0 to
# +infinity, (0, inf) cut to a finite window, and [0, 1]
POLYLINE, HALF_LINE, UNIT = "polyline", "half-line", "unit"


@dataclass(frozen=True)
class Family:
    """One Painleve family.

    ``hamiltonian(t, p)`` is ``prefactor(t)`` * H with ``p`` keyed by
    ``radial_keys``; ``cp_keys`` are the multi-particle operator's parameters.
    ``sigma(t)`` gives the z-coefficients of sigma(z), constant term first:
    every operator of the family has the Calogero shape hbar^2 sigma(z_rho)
    d^2_rho plus sigma's divided differences (and, radially, its potential).
    The printed operators add their own terms to that shape, each form stated
    on its own: ``cp(t, hbar, N, m, p)`` (the multi-particle Hamiltonian,
    ``p`` keyed by ``cp_keys``), ``nagoya(t, hbar, p)`` (the single-particle
    one, which also reads ``a``), ``radial(t, hbar, N, kappa(kappa+1), p)``
    (the eigenvalue form, ``p`` keyed by ``radial_keys``) and, for II,
    ``radial_pre`` (the radial form before the scalar gauge).  Each returns
    (first, zeroth, const): the z-coefficients of d_rho's coefficient and of
    z_rho's zeroth-order term, constant first, and the zeroth-order constant,
    all times ``prefactor(t)``.  ``table(hbar, m, N, gauged, p)`` is the
    printed parameter map from ``cp_keys`` to ``radial_keys`` (II's th is
    named theta; VI adds its theta and k^2), ungauged or gauged.
    Families II-VI carry a weight Theta(u) on ``contour``: Theta'/Theta =
    logd_num/clearing, u-polynomials {power: coefficient} given by
    ``log_derivative(t, p)``, with divergence indices from ``min_n``;
    d/dt log Theta = coeff u^shift (t-u)^{-s} for (coeff, shift, s) =
    ``dt_log(p)``; Theta = u^b0 (1-u)^b1 ``factor(u, t, p, 1-u)`` with
    (b0, b1) = ``exponents(p)``, None for an absent factor, and all
    t-dependence in ``factor``.  ``peak(t, p)`` is the u >= 0 where
    ``factor`` peaks: it rises before and falls after (mpmath.inf when it
    only rises).  ``window(t)`` cuts a half-line contour; ``sample(rng)``
    draws (t, params) that meet ``admissible``.
    """

    name: str
    hamiltonian: Callable
    prefactor: Callable
    cp_keys: tuple
    radial_keys: tuple
    sigma: Callable
    radial: Callable
    cp: Callable | None = None
    nagoya: Callable | None = None
    radial_pre: Callable | None = None
    table: Callable | None = None
    contour: str | None = None
    log_derivative: Callable | None = None
    min_n: int = 0
    dt_log: Callable | None = None
    exponents: Callable = lambda p: (None, None)
    factor: Callable | None = None
    peak: Callable | None = None
    window: Callable = lambda t: 1.0
    admissible: Callable = lambda t, p: True
    requirement: str = ""
    sample: Callable | None = None

    def random_thetas(self, rng) -> dict:
        return {k: Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for k in self.radial_keys}

    def parts(self, u, ts, p: dict, omu):
        """Theta's t-free power factor and its t-dependent factor at each t in ``ts``.

        Their product is the weight's own left-to-right product, bit for bit.
        """
        b0, b1 = self.exponents(p)
        static = 1 if b0 is None else u**b0
        if b1 is not None:
            static = static * omu**b1
        return static, [self.factor(u, t, p, omu) for t in ts]

    def theta(self, u, t, p: dict, omu):
        static, (dynamic,) = self.parts(u, (t,), p, omu)
        return static * dynamic

    def dt_log_at(self, u, t, p: dict, omu):
        """d/dt log Theta at u by the ``dt_log`` rule, with t - u taken as (t - 1) + (1 - u)."""
        coeff, shift, s = self.dt_log(p)
        if s:
            return coeff / ((t - 1) + omu)
        return coeff * u if shift == 1 else coeff / u

    def factor_sup(self, u, t, p: dict, omu):
        """The largest value of ``factor`` at t over (0, u], taken at ``peak``."""
        top = self.peak(t, p)
        return self.factor(u, t, p, omu) if top >= u else self.factor(top, t, p, 1 - top)

    def dt_log_sup(self, u, t, p: dict, omu):
        """The largest |d/dt log Theta| over (0, u], or None where it is unbounded.

        c u grows with u; c/(t - u') is largest at u' = u while t - u > 0;
        c/u has no bound near 0.
        """
        coeff, shift, s = self.dt_log(p)
        if s:
            return abs(self.dt_log_at(u, t, p, omu)) if (t - 1) + omu > 0 else None
        return abs(coeff * u) if shift == 1 else None


def _neg(rng):
    return -Fraction(rng.randint(1, 6), rng.randint(2, 9))


def _any_t(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _sample_vi(rng):
    a = _neg(rng)
    t = 1 + Fraction(rng.randint(1, 5), rng.randint(1, 4))
    return t, {"a": a, "b": _neg(rng) / 2, "c": _neg(rng), "d": Fraction(rng.randint(1, 5), rng.randint(2, 7))}


def _hamiltonian_vi(t, p):
    th0, th1, tht = p["th0"], p["th1"], p["tht"]
    theta = th0 + th1 + tht
    return [
        (1, "qpqpq"),
        (-t, "pqqp"),
        (t, "pqp"),
        (-HALF, "pqpq"), (-HALF, "qpqp"),
        (-theta, "qpq"),
        ((th0 + th1) * t + th0 + tht, "pq"),
        (-th0 * t, "p"),
        ((theta * theta - p["k2"]) * Fraction(1, 4), "q"),
    ]


def _log_derivative_vi(t, p):
    # clearing u(1-u)(t-u) = t u - (1+t) u^2 + u^3;
    # numerator (-a-b-1)(1-u)(t-u) + (c+1)u(t-u) + d u(1-u)
    s = -(p["a"] + p["b"] + 1)
    c, d = p["c"], p["d"]
    return {1: t, 2: -(1 + t), 3: 1}, {0: t * s, 1: -s - t * s + (c + 1) * t + d, 2: s - (c + 1) - d}


def _cp_vi(t, hb, N, m, p):
    # -hbar((a+b)(z-1)(z-t) + c z(z-t) + (d+N-1) z(z-1)) d_rho, expanded
    s, c, d = p["a"] + p["b"], p["c"], p["d"] + N - 1
    first = (-hb * s * t, hb * (s * (1 + t) + c * t + d), -hb * (s + c + d))
    return first, (0, -hb * m * (N - 1 - hb * m)), -hb * Fraction(m * N) * (hb * m + 1 - N) * t


def _nagoya_vi(t, hb, p):
    # -hbar((a+b)(z-1)(z-t) + c z(z-t) + d z(z-1)) d, expanded; (b+c+d+hbar) a (z - t)
    a, s, c, d = p["a"], p["a"] + p["b"], p["c"], p["d"]
    first = (-hb * s * t, hb * (s * (1 + t) + c * t + d), -hb * (s + c + d))
    e = (p["b"] + c + d + hb) * a
    return first, (-e * t, e), 0


def _radial_vi(t, hb, N, kk, p):
    th0, th1, tht, k2 = p["th0"], p["th1"], p["tht"], p["k2"]
    theta = th0 + th1 + tht
    # hbar((3 hbar - theta) z^2 + c1 z + t(hbar - th0)) d_rho
    c1 = -hb * (1 + t) + t * (th0 + th1) + th0 + tht
    first = (hb * t * (hb - th0), hb * c1, hb * (3 * hb - theta))
    zcoef = N * N * hb * hb - theta * N * hb - (k2 - theta * theta) / 4 + (N - 1) * kk * hb * hb
    const = (
        -Fraction(N**3) * hb * hb * HALF
        + hb * N * N * (th0 + tht)
        + t * hb * N * N * (th0 + th1)
        - hb * hb * Fraction(N * (N - 1), 2) * kk
    )
    return first, (0, zcoef), const


def _table_vi(hb, m, N, gauged, p):
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    if gauged:
        th0, th1, tht = a + b + hb, c + hb, d + N + hb - 1
        theta = th0 + th1 + tht
        k2 = (
            (theta - 2 * N * hb) ** 2
            + 4 * hb * m * (N - 1 - hb * m)
            + 4 * (N - 1) * (1 - hb)
            + N * (N - 1) * (1 - hb) * (3 * hb - theta)
        )
    else:
        th0, th1, tht = a + b + 1, c + 1, d + N
        theta = th0 + th1 + tht
        k2 = (theta - 2 * N) ** 2 + 4 * m * (N - 1 - m)
    return {"th0": th0, "th1": th1, "tht": tht, "k2": k2, "theta": theta}


TABLE = (
    Family(
        "I", lambda t, p: [(HALF, "pp"), (-HALF, "qqq"), (-t * Fraction(1, 4), "q")], lambda t: 1, (), (),
        sigma=lambda t: (HALF,),
        # -(z^3/2 + t z/4)
        radial=lambda t, hb, N, kk, p: ((), (0, -t * Fraction(1, 4), 0, -HALF), 0),
    ),
    Family(
        "II",
        # Tr(p^2/2 - (q^2 + t/2)^2/2 - th*q) with the square expanded
        lambda t, p: [
            (HALF, "pp"),
            (-HALF, "qqqq"),
            (-t * HALF, "qq"),
            (-t * t * Fraction(1, 8), ""),
            (-p["th"], "q"),
        ],
        lambda t: 1,
        (),
        ("th",),
        sigma=lambda t: (HALF,),
        # the gauged form: -hbar(z^2 + t/2) d_rho + (1/2 - th - hbar N) z_rho
        radial=lambda t, hb, N, kk, p: ((-hb * t * HALF, 0, -hb), (0, HALF - p["th"] - hb * N), 0),
        cp=lambda t, hb, N, m, p: ((-hb * t * HALF, 0, -hb), (0, m * hb), 0),
        nagoya=lambda t, hb, p: ((-hb * t * HALF, 0, -hb), (0, p["a"]), 0),
        # -(z^2 + t/2)^2/2 - th z, expanded
        radial_pre=lambda t, hb, N, kk, p: ((), (-t * t * Fraction(1, 8), -p["th"], -t * HALF, 0, -HALF), 0),
        table=lambda hb, m, N, gauged, p: {"theta": hb * (1 - m) + N * (1 - 2 * hb) - HALF if gauged else HALF - N - m},
        contour=POLYLINE,
        log_derivative=lambda t, p: ({0: 1}, {0: -t, 2: -2}),
        dt_log=lambda p: (-1, 1, 0),
        factor=lambda u, t, p, omu: mpmath.exp(-(u * t + 2 * u**3 / 3)),
        sample=lambda rng: (_any_t(rng), {}),
    ),
    Family(
        "III",
        # one printed summand per line
        lambda t, p: [
            (HALF, "ppqq"), (HALF, "qqpp"),
            (-HALF, "qqp"), (-HALF, "pqq"),
            (p["th1"] - p["th0"], "qp"),
            (t, "p"),
            (-p["th1"], "q"),
        ],
        lambda t: t,
        ("b",),
        ("th0", "th1"),
        sigma=lambda t: (0, 0, 1),
        # -hbar(z^2 - (2 hbar - th0 + th1) z - t) d_rho - (hbar N + th1) z_rho + hbar^2 N(1 + N^2)/2
        radial=lambda t, hb, N, kk, p: (
            (hb * t, hb * (2 * hb - p["th0"] + p["th1"]), -hb),
            (0, -(hb * N + p["th1"])),
            hb * hb * Fraction(N * (1 + N * N), 2),
        ),
        # -hbar(z^2 + (b + N - 1) z + t) d_rho + m hbar z_rho
        cp=lambda t, hb, N, m, p: ((-hb * t, -hb * (p["b"] + N - 1), -hb), (0, m * hb), 0),
        nagoya=lambda t, hb, p: ((-hb * t, -hb * p["b"], -hb), (0, p["a"]), 0),
        table=lambda hb, m, N, gauged, p: (
            {"th0": p["b"] + hb * (1 - m), "th1": -hb * (m + 1) - N + 1}
            if gauged
            else {"th0": p["b"] - m + 1, "th1": Fraction(-N - m)}
        ),
        contour=HALF_LINE,
        log_derivative=lambda t, p: ({2: 1}, {0: -t, 1: -(p["b"] + 1), 2: -1}),
        # the weight vanishes to all orders at u = 0 for t < 0
        min_n=-2,
        dt_log=lambda p: (1, -1, 0),
        exponents=lambda p: (-p["b"] - 1, None),
        factor=lambda u, t, p, omu: mpmath.exp(t / u - u),
        # d/du (t/u - u) = -t/u^2 - 1 changes sign once, at u^2 = -t
        peak=lambda t, p: mpmath.sqrt(-t),
        # the weight decays at least like e^{-u}
        window=lambda t: 160.0 + 3 * abs(float(t)),
        # the essential singularity at u = 0 then decays
        admissible=lambda t, p: t < 0,
        requirement="numeric contour requires t < 0",
        sample=lambda rng: (-Fraction(rng.randint(1, 5), rng.randint(1, 3)), {"b": _neg(rng)}),
    ),
    Family(
        "IV",
        lambda t, p: [
            (1, "pqp"),
            (-HALF, "pqq"), (-HALF, "qqp"),
            (-t, "pq"),
            (p["th0"], "p"),
            (-p["th0"] - p["th1"], "q"),
        ],
        lambda t: 1,
        ("b",),
        ("th0", "th1"),
        sigma=lambda t: (0, 1),
        # -hbar(z^2 + t z - th0 - hbar) d_rho - (hbar N + th0 + th1) z_rho - t hbar N^2
        radial=lambda t, hb, N, kk, p: (
            (hb * (p["th0"] + hb), -hb * t, -hb), (0, -(hb * N + p["th0"] + p["th1"])), -t * hb * N * N
        ),
        # -hbar(z^2 + t z + b) d_rho + m hbar z_rho + hbar N m t
        cp=lambda t, hb, N, m, p: ((-hb * p["b"], -hb * t, -hb), (0, m * hb), hb * Fraction(N * m) * t),
        nagoya=lambda t, hb, p: ((-hb * p["b"], -hb * t, -hb), (p["a"] * t, p["a"]), 0),
        table=lambda hb, m, N, gauged, p: (
            {"th0": -p["b"] - hb, "th1": p["b"] + 1 - N - m * hb}
            if gauged
            else {"th0": -p["b"] - 1, "th1": p["b"] + 1 - m - N}
        ),
        contour=HALF_LINE,
        log_derivative=lambda t, p: ({1: 1}, {0: -(p["b"] + 1), 1: -t, 2: -1}),
        dt_log=lambda p: (-1, 1, 0),
        exponents=lambda p: (-p["b"] - 1, None),
        factor=lambda u, t, p, omu: mpmath.exp(-(u * t + u * u / 2)),
        peak=lambda t, p: max(-t, 0),
        # the weight decays at least like e^{-u^2/2 - tu}
        window=lambda t: 40.0 + 3 * abs(float(t)),
        admissible=lambda t, p: p["b"] < 0,
        requirement="requires Re b < 0",
        sample=lambda rng: (_any_t(rng), {"b": _neg(rng)}),
    ),
    Family(
        "V",
        lambda t, p: [
            (HALF, "ppqq"), (HALF, "qqpp"),
            (-HALF, "ppq"), (-HALF, "qpp"),
            (t * HALF, "pqq"), (t * HALF, "qqp"),
            (p["th0"] - p["th2"] - t, "pq"),
            (p["th2"], "p"),
            ((p["th0"] + p["th1"]) * t, "q"),
        ],
        lambda t: t,
        ("b", "c"),
        ("th0", "th1", "th2"),
        sigma=lambda t: (0, -1, 1),
        # hbar(t z^2 + (2 hbar + th0 - th2 - t) z + th2 - hbar) d_rho + t(hbar N + th0 + th1) z_rho
        # + (th0 - th2 - t) N^2 hbar + N hbar^2 (1 + N^2)/2
        radial=lambda t, hb, N, kk, p: (
            (hb * (p["th2"] - hb), hb * (2 * hb + p["th0"] - p["th2"] - t), hb * t),
            (0, t * (hb * N + p["th0"] + p["th1"])),
            (p["th0"] - p["th2"] - t) * (N * N * hb) + N * hb * hb * Fraction(1 + N * N, 2),
        ),
        # hbar(t z^2 - (b + c + t) z + b) d_rho - m hbar t z_rho + hbar N m (b + c + t - hbar(m - 1) - N + 1)
        cp=lambda t, hb, N, m, p: (
            (hb * p["b"], -hb * (p["b"] + p["c"] + t), hb * t),
            (0, -m * hb * t),
            hb * Fraction(N * m) * (p["b"] + p["c"] + t - hb * (m - 1) - N + 1),
        ),
        # the same first order; a(b + c - a + hbar) + a(t - t z)
        nagoya=lambda t, hb, p: (
            (hb * p["b"], -hb * (p["b"] + p["c"] + t), hb * t),
            (p["a"] * (p["b"] + p["c"] - p["a"] + hb) + p["a"] * t, -p["a"] * t),
            0,
        ),
        table=lambda hb, m, N, gauged, p: (
            {"th0": -p["c"] - hb, "th1": p["c"] + 1 - N - m * hb, "th2": p["b"] + hb}
            if gauged
            else {"th0": -p["c"] - 1, "th1": -N - m + p["c"] + 1, "th2": p["b"] + 1}
        ),
        contour=UNIT,
        # u(1-u) [-(b+1)/u + (c+1)/(1-u) + t] = -(b+1)(1-u) + (c+1)u + t u(1-u)
        log_derivative=lambda t, p: ({1: 1, 2: -1}, {0: -(p["b"] + 1), 1: p["b"] + p["c"] + 2 + t, 2: -t}),
        dt_log=lambda p: (1, 1, 0),
        exponents=lambda p: (-p["b"] - 1, -p["c"] - 1),
        factor=lambda u, t, p, omu: mpmath.exp(u * t),
        peak=lambda t, p: mpmath.inf if t > 0 else 0,
        admissible=lambda t, p: p["b"] < 0 and p["c"] < 0,
        requirement="requires Re b < 0 and Re c < 0",
        sample=lambda rng: (_any_t(rng), {"b": _neg(rng), "c": _neg(rng)}),
    ),
    Family(
        "VI",
        _hamiltonian_vi,
        lambda t: t * (t - 1),
        ("a", "b", "c", "d"),
        ("th0", "th1", "tht", "k2"),
        # u(u-1)(u-t) = t*u - (1+t)*u^2 + u^3
        sigma=lambda t: (0, t, -(1 + t), 1),
        radial=_radial_vi,
        cp=_cp_vi,
        nagoya=_nagoya_vi,
        table=_table_vi,
        contour=UNIT,
        log_derivative=_log_derivative_vi,
        dt_log=lambda p: (-p["d"], 0, 1),
        exponents=lambda p: (-p["a"] - p["b"] - 1, -p["c"] - 1),
        # (t - u) composed as (t - 1) + (1 - u): near-singular at u -> 1
        factor=lambda u, t, p, omu: ((t - 1) + omu) ** (-p["d"]),
        # (t - u)^(-d) rises with u on u < t for d > 0 and falls for d < 0
        peak=lambda t, p: mpmath.inf if p["d"] > 0 else 0,
        admissible=lambda t, p: p["a"] + p["b"] < 0 and p["c"] < 0 and t > 1,
        requirement="requires Re(a+b) < 0, Re c < 0 and t > 1",
        sample=_sample_vi,
    ),
)

NAMES = tuple(fam.name for fam in TABLE)
WEIGHTED = tuple(fam.name for fam in TABLE if fam.contour is not None)
_BY_NAME = {fam.name: fam for fam in TABLE}


def family(name: str) -> Family:
    if name not in _BY_NAME:
        raise UsageError(f"unknown family {name!r}")
    return _BY_NAME[name]


def weighted(name: str) -> Family:
    """A family with a beta-integral weight (II..VI)."""
    fam = family(name)
    if fam.contour is None:
        raise UsageError(f"family {name!r} has no beta-integral weight")
    return fam
