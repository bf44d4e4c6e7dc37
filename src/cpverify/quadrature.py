"""High-precision numerical evaluation of the beta-integral wave functions.

This is the oracle for the moment relations and the only verification path at
non-integer coupling.  Each evaluation computes the weight once per node and
serves every t, k and s that needs it.  The m-fold wave-function coefficients
come from one nested tanh-sinh sweep over the ordered simplex u_1 > ... > u_m,
where the coupling prod (u_i - u_j)^{2 hbar} is positive and single valued;
only the weight's t-dependent factor is evaluated per t, so the Schroedinger
residual takes t and its four finite-difference shifts from one sweep.  A
leaf's additions for a t are skipped when an exponent bound puts every addend
below a quarter ulp of its accumulator (``_negligible``): round-to-nearest
returns such a sum unchanged, so the skip changes no bit.  The same test runs
before the work: each node bounds every leaf term below it from exponents
(``_tally``, the family's ``peak`` and ``dt_log_sup``, one constant per grid
level), so a dead subtree is skipped whole and a dead child before its
weight, coupling or elementary products are computed.  Keys with the same
word of nonzero indices are the same products in the same order, so they
share one accumulator.  The grid error compares a level with the next
coarser one; level 0 has none and raises.  An m-fold integral that fails
Selberg's condition is rejected before the sweep.
One-dimensional moments for a set of (k, s): on every real contour one pass
over the same tanh-sinh grid, whose coarse error sum reuses the fine nodes,
summed on raw mpf tuples; a node whose terms an exponent bound puts below a
quarter ulp of every sum they would join is skipped before its weight
(``_line_tops``, the same ``_negligible`` rule).  Only family II's complex
polyline takes one mpmath.quad per k, with both legs, theta(u) and
theta(u omega), evaluated once per node.  The hbar = 1 determinant
cross-path takes its modified moments from one such pass.

Entry points: ``check_domain`` (admissibility; it returns the family, the
weight's parameters and theta's endpoint exponents, the one read every path
below makes), ``theta`` (the weight at one point), ``moments_numeric`` (the
1-D moments; ``moment_numeric`` for one key), ``simplex_phi_coeffs`` (the
m-fold coefficients at one t; ``phi_value`` sums them at z),
``pde_residual_numeric`` (the Schroedinger residual), ``andreief_phi`` (the
hbar = 1 determinant cross-path) and ``ts_nodes`` (the shared node lists).

Each family's weight, contour and admissibility constraints are in
``families.py``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import mpmath
from mpmath.libmp import fzero, mpf_add as add, mpf_div, mpf_mul as mul, mpf_pow_int, round_nearest

from .diffop import apply_op, build_cp_hamiltonian, zvars
from .errors import DomainError, QuadratureError, UsageError
from .exact import RatFun, Registry, as_rat, exact_div
from .families import POLYLINE, UNIT, read_params, weighted

mp = mpmath.mp

DEFAULT_PREC = 192
# the work one numeric request may start, checked before it starts: grid
# points^m for a simplex sweep, grid points x keys for a 1-D moment pass
MAX_SWEEP_POINTS = 2**21
MAX_LINE_TERMS = 2**22
# family II's polyline runs one mpmath.quad per key at maxdegree 10, whose
# node count and cost per node each grow about linearly with the precision:
# a pass costs about (keys + 4) x prec^2, both legs' weights (shared by every
# key) costing about four keys at 384 bits.  The bound also keeps a pass
# under 580 bits, past which mpmath's exp of a far node's weight turns into
# an integer power of e and takes milliseconds a node
MAX_POLYLINE_WORK = 2**20


def _to_mpf(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def check_domain(J: str, t, params: dict, more_ts=()):
    """(family, the weight's parameters read once, theta's exponents (b0, b1)), or ``DomainError``.

    t and each of ``more_ts`` must be admissible.  An exponent is None for an
    absent factor (``Family.exponents``).
    """
    fam = weighted(J)
    p = read_params(params, fam.cp_keys)
    for tv in (t, *more_ts):
        if not fam.admissible(as_rat(tv), p):
            raise DomainError(f"family {J} {fam.requirement}")
    return fam, p, fam.exponents(p)


def theta(J: str, u, t, params: dict):
    """The weight function at u (mpf or mpc)."""
    return weighted(J).theta(u, t, params, 1 - u)


def moment_numeric(J: str, k: int, s: int, t, params: dict, prec: int = DEFAULT_PREC):
    """int u^k (t-u)^{-s} Theta_J(u) du on the canonical contour, with error: one key of ``moments_numeric``."""
    return moments_numeric(J, [(k, s)], t, params, prec)[(k, s)]


def moments_numeric(J: str, keys, t, params: dict, prec: int = DEFAULT_PREC) -> dict:
    """{(k, s): (value, error)} for int u^k (t-u)^{-s} Theta_J(u) du, all keys in one pass.

    s = 1 is the rho-moment, meaningful for a weight whose dt rule has
    (t-u)^{-1} (family VI's).  The half line is cut to the window (0, L(t))
    the simplex sweep cuts, so III's moments carry its e^{-L} cut: near
    1e-57 for k <= 7, far below the oracle's 1e-10 threshold.  The returned
    error leaves that cut out, so above about 190 bits the cut can exceed
    it: III at t = -1, b = -1, k = 7 and 256 bits is off from 2 K_8(2) by
    2^-195.8, against an error of 2^-251.4.  On a real contour the sums run
    on raw mpf tuples and skip the nodes that cannot change them
    (``_line_sums``), with the bits of the mpf expression w * u**k * theta
    summed node by node; the error is |fine - 2 coarse|.  The pass is
    refused before it starts past ``MAX_LINE_TERMS`` grid points times keys
    (``MAX_POLYLINE_WORK`` on family II's polyline).
    """
    if any(s not in (0, 1) for _, s in keys):
        raise UsageError("s must be 0 or 1")
    fam, p, bs = check_domain(J, t, params)
    if any(s for _, s in keys) and not fam.dt_log(p)[2]:
        raise UsageError(f"(t-u)^{{-1}} moments need a weight whose d/dt log Theta has (t-u)^{{-1}}, and family {J}'s has none")
    keys = list(dict.fromkeys(keys))
    level = max(6, (prec // 32) + 3)
    if fam.contour == POLYLINE:
        what = f"a polyline pass over {len(keys)} moments at {prec} bits"
        _check_work(math.log2(len(keys) + 4) + 2 * math.log2(prec), MAX_POLYLINE_WORK, what, "key-bits^2")
    else:
        what = f"a pass over {len(keys)} moments at level {level} and {prec} bits"
        _check_work(_log2_points(level, prec, bs) + math.log2(len(keys)), MAX_LINE_TERMS, what, "terms")
    with mp.workprec(prec):
        tv = _to_mpf(as_rat(t))
        p = {k: _to_mpf(v) for k, v in p.items()}

        if fam.contour == POLYLINE:
            # both legs u and u*omega at once: (theta(u), u*omega, theta(u*omega))
            # once per node and precision, shared by every k
            omega = mpmath.exp(-2j * mpmath.pi / 3)
            legs = {}

            def f(u, k):
                key = (u._mpf_, mp.prec)
                if key not in legs:
                    u2 = u * omega
                    legs[key] = (theta(J, u, tv, p), u2, theta(J, u2, tv, p))
                th1, u2, th2 = legs[key]
                return u**k * th1 - omega * (u2**k * th2)

            return {(k, s): mpmath.quad(lambda u, k=k: f(u, k), [0, mpmath.inf], error=True, maxdegree=10) for k, s in keys}

        # own tanh-sinh grid: nodes carry (u, 1-u) stably and extend far enough
        # into the corners for the singular endpoint exponents; on the half line
        # a node v sits at x = L v with weight w L.  The coarser grid is the even
        # fine nodes at twice the weight, plus the tail past the fine list, so
        # its sum is twice the sum of their terms.
        pts, tail = _grid(level, prec, _tail_power(bs))
        nodes = [pt + (True,) for pt in pts] + [pt + (True, False) for pt in tail]
        sums = _line_sums(fam, keys, tv, p, bs, nodes, None if fam.contour == UNIT else _to_mpf(fam.window(tv)), prec)
        raw = mp.make_mpf
        return {key: (raw(f), abs(raw(f) - 2 * raw(c))) for key, (f, c) in zip(keys, sums)}


def _line_tops(u, omu, w, d, f, powers, den: int):
    """Per key, in order, an integer B with |(w u^k) theta(u)| < 2^B, over |d| for s = 1.

    ``powers`` holds (den (k + b0), den b1, s) per key and ``f`` bounds
    theta's t-dependent factor at u.  Each power is bounded from E = exp + bc
    as ``_log2_ub`` does, in units of 1/den so the sum stays an integer, then
    rounded up; ``_MARGIN`` covers the roundings of the computed term.
    """
    Eu, Eomu = _E(u), _E(omu)
    head = den * (_E(w) + _E(f) + _MARGIN)
    for a, c, s in powers:
        x = head + _log2_ub(Eu, a) + _log2_ub(Eomu, c) - (den * (d[2] + d[3] - 1) if s else 0)
        yield -(-x // den)


def _line_sums(fam, keys, tv, p: dict, bs, nodes, window, prec: int):
    """Per key, [fine sum, coarse sum] over the nodes (u, 1-u, w, on_coarse, on_fine), as raw mpfs.

    A key (k, s) adds (w u^k) theta(u), divided by (t - 1) + (1 - u) for
    s = 1, rounded at ``prec`` as the mpf expression rounds; ``bs`` are
    theta's exponents (b0, b1) as rationals.  Before theta,
    ``_line_tops`` bounds a node's terms from exponents.  Theta's t-dependent
    factor is bounded by its largest value on the contour, ``factor_sup`` at
    the window's end, or, once a side of the grid has evaluated a node past
    ``peak``, by the factor there: each side walks outward (v above 1/2
    rising, the center and v below 1/2 falling), and the factor falls away
    from its peak.  A node whose every term is ``_negligible`` against each
    sum it would join is skipped: round-to-nearest would return those sums
    unchanged, so no bit moves.
    """
    rnd = round_nearest
    den = math.lcm(*(b.denominator for b in bs if b is not None))
    b0, b1 = (0 if b is None else int(b * den) for b in bs)
    powers = [(k * den + b0, b1, s) for k, s in keys]
    ks = sorted({k for k, _ in keys})
    end = window if window is not None else mpmath.mpf(1)
    peak, fmax = fam.peak(tv, p), fam.factor_sup(end, tv, p, 1 - end)
    tm1, rho = (tv - 1)._mpf_, any(s for _, s in keys)
    exps = fam.exponents(p)
    sums = [[fzero, fzero] for _ in keys]  # per key, the fine and the coarse sum
    past = {}  # per side, the factor at its last evaluated node past the peak
    for v, omv, w, on_coarse, on_fine in nodes:
        u, omu = v, omv
        if window is not None:
            u, w = u * window, w * window
            omu = 1 - u
        side = _E(v) > _E(omv)  # v > 1/2
        d = add(tm1, omu._mpf_, prec, rnd) if rho else None
        joined = slice(0 if on_fine else 1, 2 if on_coarse else 1)
        tops = _line_tops(u, omu, w, d, past.get(side, fmax), powers, den)
        if all(_negligible(top, pair[joined], prec) for top, pair in zip(tops, sums)):
            continue
        static, (dynamic,) = fam.parts(u, (tv,), p, omu, exps)
        if side in past or ((u >= peak) if side else (u <= peak)):
            past[side] = dynamic
        th, w, u = (static * dynamic)._mpf_, w._mpf_, u._mpf_
        terms = {k: mul(mul(w, mpf_pow_int(u, k, prec, rnd), prec, rnd), th, prec, rnd) for k in ks}
        for (k, s), pair in zip(keys, sums):
            term = mpf_div(terms[k], d, prec, rnd) if s else terms[k]
            if on_fine:
                pair[0] = add(pair[0], term, prec, rnd)
            if on_coarse:
                pair[1] = add(pair[1], term, prec, rnd)
    return sums


# ---------------------------------------------------------------------------
# Tanh-sinh nodes and simplex grids
# ---------------------------------------------------------------------------

_NODE_CACHE: dict = {}  # (level, prec) -> the nodes j = 0, 1, ... computed so far


def _shared_nodes(level: int, prec: int, count: int) -> list:
    """The node list of (level, prec), extended to at least ``count`` nodes."""
    nodes = _NODE_CACHE.setdefault((level, prec), [])
    if len(nodes) < count:
        with mp.workprec(prec + 20):
            h = mpmath.mpf(1) / (1 << level)
            pi2 = mpmath.pi / 2
            while len(nodes) < count:
                th = len(nodes) * h
                sh = pi2 * mpmath.sinh(th)
                # (1 + tanh(sh))/2 = 1/(1 + e^{-2 sh}); complement analogously
                u_pos = 1 / (1 + mpmath.exp(-2 * sh))
                u_neg = 1 / (1 + mpmath.exp(2 * sh))
                w = h * pi2 * mpmath.cosh(th) / mpmath.cosh(sh) ** 2
                nodes.append((u_pos, u_neg, w / 2))
    return nodes


def ts_nodes(level: int, prec: int, tail_power: float = 5.0):
    """Tanh-sinh nodes on (0, 1) at step 2^-level, as (u, 1-u, weight).

    Both the node and its complement are computed in logistic form so each
    carries full relative precision arbitrarily close to the endpoints.

    ``tail_power`` controls the truncation: with an endpoint behavior
    u^beta (beta > -1), the discarded tail is of order delta^(1+beta), so the
    node list is extended until the endpoint distance is below
    2^(-prec*tail_power) with tail_power >= 1/(1+beta).  The nodes do not
    depend on the cutoff: one list per (level, prec) is shared, and each call
    returns the prefix its cutoff needs.
    """
    with mp.workprec(prec + 20):
        eps = mpmath.mpf(2) ** (-int((prec + 10) * tail_power))
    j = 0
    while _shared_nodes(level, prec, j + 1)[j][1] >= eps:
        j += 1
    return _NODE_CACHE[(level, prec)][: j + 1]


def _grid(level: int, prec: int, tail_power: float):
    """The level's points (u, 1-u, w, on_coarse) on (0, 1), and the coarse-only tail.

    Node j = 0 is shared, the others are mirrored.  A fine node j sits on the
    next coarser grid iff j is even (indices, not values: deep-tail nodes can
    round to identical mpfs).  The coarser list can reach one node past the
    fine one; the tail holds its points as (u, 1-u, w) at the fine weight.
    Level 0 has no coarser grid, so it raises ``QuadratureError``.
    """
    if level < 1:
        raise QuadratureError("level 0 has no coarser grid to estimate the error against")
    nodes = ts_nodes(level, prec, tail_power)
    # coarse node j is fine node 2j, so the coarse list stops at the first
    # even index at or past the fine list's last node
    ncoarse = len(nodes) // 2 + 1
    pts, tail = [], []
    for j, (up, un, w) in enumerate(nodes):
        isc = (j % 2 == 0) and (j // 2) < ncoarse
        pts.append((up, un, w, isc))
        if j:
            pts.append((un, up, w, isc))
    for j in range(2 * ((len(nodes) + 1) // 2), 2 * ncoarse, 2):
        up, un, w = _shared_nodes(level, prec, j + 1)[j]
        tail += [(up, un, w), (un, up, w)]
    return pts, tail


def _tail_power(bs) -> float:
    """1/(1 + beta_min) + 1 for the most singular of theta's endpoint exponents ``bs``."""
    beta = min([Fraction(0)] + [b for b in bs if b is not None])
    if beta <= -1:
        raise DomainError(f"endpoint exponent {beta} is not integrable")
    return float(1 / (1 + beta)) + 1.0


def _log2_points(level: int, prec: int, bs) -> float:
    """log2 of the number of points ``_grid`` builds for theta's exponents ``bs``, before building any.

    ``ts_nodes`` keeps node j until 1 - u_j < 2^-K, K = int((prec + 10)
    tail_power), and 1 - u_j is about exp(-pi sinh(j 2^-level)), so the
    grid holds 2 ceil(2^level asinh(K ln 2 / pi)) + 1 points.  Past level 64
    the ceiling is dropped: 2^level overflows a float at --prec 100000's
    level 3128.
    """
    a = math.asinh(int((prec + 10) * _tail_power(bs)) * math.log(2) / math.pi)
    return math.log2(2 * math.ceil(a * 2**level) + 1) if level <= 64 else level + math.log2(2 * a)


def _check_work(log2_work: float, bound: int, what: str, unit: str):
    """Raise ``UsageError`` before ``what`` starts when it would take more than ``bound`` ``unit``."""
    if log2_work > math.log2(bound):
        raise UsageError(f"{what} takes about 2^{log2_work:.1f} {unit}, past the bound of 2^{math.log2(bound):g} {unit}")


def _check_convergent(J: str, m: int, hbar, bs):
    """Selberg's condition on the m-fold integral: hbar > -min(1/m, (b + 1)/(m - 1)) over theta's endpoint exponents ``bs``."""
    if m < 2:
        return
    least = -min([Fraction(1, m)] + [(b + 1) / (m - 1) for b in bs if b is not None])
    if as_rat(hbar) <= least:
        raise DomainError(f"the {m}-fold integral of family {J} diverges at hbar = {as_rat(hbar)}: it needs hbar > {least}")


def simplex_phi_coeffs(J: str, N: int, m: int, hbar, t, params: dict, prec: int = 96, level: int = 6, with_dt: bool = True):
    """Coefficients C_(k) = <prod_rho e_{k_rho}(u)> by m-fold simplex quadrature.

    Returns (coeffs, dt_coeffs, err) where err is the difference to the next
    coarser level, taken over the largest coefficient.  dt_coeffs are the
    t-derivatives computed by differentiating under the integral, None
    without ``with_dt``.  The full symmetric-domain integral is m! times the
    coefficients when the integrand is symmetric (integer hbar).  A divergent
    integral raises ``DomainError``.
    """
    accs, acc_dt, err = _simplex_sweep(J, N, m, hbar, [t], params, prec, level, with_dt)
    return accs[0], acc_dt, err


def _coupling(chain, beta):
    """prod_{i<j} (x_i - x_j)^beta along a chain x_{i+1} = x_i v_{i+1}, or None for m = 1.

    The differences are composed stably from the complements 1 - v:
    x_1 - x_3 = x_1 ((1 - v_2) + v_2 (1 - v_3)).
    """
    if len(chain) == 1:
        return None
    (x1, _, _, _), (x2, _, v2, omv2) = chain[:2]
    if len(chain) == 2:
        return (x1 * omv2) ** beta
    omv3 = chain[2][3]
    d12, d23, d13 = x1 * omv2, x2 * omv3, x1 * (omv2 + v2 * omv3)
    return (d12 * d13 * d23) ** beta


def _elementary(xs, prec: int) -> list:
    """e_1 .. e_m of the raw mpfs ``xs``: each product left to right, summed in combination order."""
    es = []
    for r in range(1, len(xs) + 1):
        total = None
        for combo in itertools.combinations(xs, r):
            prod = combo[0]
            for x in combo[1:]:
                prod = mul(prod, x, prec, round_nearest)
            total = prod if total is None else add(total, prod, prec, round_nearest)
        es.append(total)
    return es


def _floor(accs, prec: int):
    """The largest exponent bound ``_negligible`` accepts for ``accs``; -inf while one is zero."""
    if all(a[1] for a in accs):
        return min(a[2] + a[3] for a in accs) - prec - 2
    return -math.inf


def _negligible(bound: int, accs, prec: int) -> bool:
    """True when adding any x with |x| < 2^bound rounds each raw mpf in ``accs`` back to itself.

    With E = exp + bc, a nonzero acc has 2^(E-1) <= |acc| < 2^E and ulp
    2^(E-prec) at ``prec`` bits.  Round-to-nearest returns acc for |x| below
    half the spacing on either side; at a power of two the spacing below is
    half the ulp, so the margin is a quarter ulp, 2^(E-prec-2).  A zero
    accumulator takes any addend, so it never allows a skip.
    """
    return bound <= _floor(accs, prec)


def _log2_ub(E: int, e):
    """An upper bound on log2(y^e) for 2^(E-1) <= y < 2^E."""
    return e * E if e >= 0 else e * (E - 1)


# a computed product is its exact value times 1 + O(2^-prec): one bit covers
# crossing a power of two, one more the pow and exp evaluations
_MARGIN = 2


def _tally(k: int, m: int, b0, b1, beta, om_at_node: bool = False):
    """The powers in a bound on every leaf term below a node at level k.

    Returns (node, inner).  ``node`` maps ("x", i) and ("omv", i), i <= k,
    to the power of the node's x_i (x_0 is the window) and of its 1 - v_i,
    and ("omx", k) to that of its 1 - x_k; ``inner`` lists for each level
    l = k+1 .. m the powers (a, c) of v_l and 1 - v_l.  A leaf below has
    x_j = x_k v_{k+1} ... v_j, so the Jacobian x_0 x_1 ... x_{m-1} and each
    u^b0 split into those powers, and:
    - 1 - x_j is at least 1 - v_j (x_j <= v_j on [0, 1]) and at least
      1 - x_k, so (1 - x_j)^b1 <= (1 - v_j)^min(b1, 0), or with
      ``om_at_node`` (1 - x_k)^min(b1, 0);
    - x_{j-1} - x_j = x_{j-1} (1 - v_j), and for i < j - 1
      x_i (1 - v_{i+1}) <= x_i - x_j <= x_i, so
      (x_i - x_j)^beta <= x_i^beta (1 - v_{i+1})^min(beta, 0).
    Theta's t-dependent factor and its values at levels 1 .. k are not counted.
    """
    node, inner = Counter(), {level: [0, 0] for level in range(k + 1, m + 1)}

    def put(j, e, om=False):
        if j <= k:
            node["omv" if om else "x", j] += e
        elif om:
            inner[j][1] += e
        else:
            node["x", k] += e
            for level in range(k + 1, j + 1):
                inner[level][0] += e

    for j in range(m):
        put(j, 1)
    for j in range(k + 1, m + 1):
        if b0 is not None:
            put(j, b0)
        if b1 is not None and om_at_node:
            node["omx", k] += min(b1, 0)
        elif b1 is not None:
            put(j, min(b1, 0), om=True)
    for i, j in itertools.combinations(range(1, m + 1), 2):
        put(i, beta)
        put(i + 1, beta if j == i + 1 else min(beta, 0), om=True)
    return node, [tuple(inner[level]) for level in range(k + 1, m + 1)]


def _E(y) -> int:
    """E = exp + bc of a nonzero mpf y: 2^(E-1) <= |y| < 2^E."""
    return y._mpf_[2] + y._mpf_[3]


def _addends(chain, wprod, ths, window, beta, prec: int):
    """A leaf's base value per t (weight * theta * coupling) and its elementary products as raw mpfs."""
    xs = tuple(link[0] for link in chain)
    weight = wprod * window
    for x in xs[:-1]:
        weight *= x
    coupling = _coupling(chain, beta)
    bases = [weight * th if coupling is None else weight * th * coupling for th in ths]
    if not all(map(mpmath.isfinite, bases)):
        raise QuadratureError(f"non-finite integrand near {xs}")
    return bases, _elementary([x._mpf_ for x in xs], prec)


class _Sweep:
    """One simplex sweep's grid, accumulators and skip rules (see ``_simplex_sweep``)."""

    def __init__(self, fam, N: int, m: int, tvs, p: dict, beta, pts, window, tallies, prec: int, with_dt: bool):
        self.fam, self.N, self.m, self.tvs, self.p, self.beta = fam, N, m, tvs, p, beta
        self.pts, self.window, self.tallies, self.prec, self.with_dt = pts, window, tallies, prec, with_dt
        self.exps = fam.exponents(p)  # theta's exponents, once for every node
        self.keys = list(itertools.product(range(m + 1), repeat=N))
        # a key's value is base * e_k1 * e_k2 ..., rounded left to right with
        # every e_0 = 1 skipped, so keys with one word of nonzero indices share
        # an accumulator; a word's value is its prefix word's times one e_r
        words = sorted({tuple(r for r in key if r) for key in self.keys}, key=lambda word: (len(word), word))
        index = {word: i for i, word in enumerate(words)}
        self.word_of = [index[tuple(r for r in key if r)] for key in self.keys]
        self.steps = [(index[word[:-1]], word[-1] - 1) for word in words[1:]]
        # the word products and sums run on raw mpf tuples, rounded as mpf * and + round
        self.accs = [[fzero] * len(words) for _ in tvs]
        self.acc_dt, self.acc_coarse = [fzero] * len(words), [fzero] * len(words)
        # the accumulators' _floor: one per t, then dt and coarse
        self.DT, self.COARSE = len(tvs), len(tvs) + 1
        self.floors = [-math.inf] * (len(tvs) + 2)
        self.tables = {}

    def table(self, ac):
        """Per grid point, an integer bound on log2(w v^a (1 - v)^c)."""
        if ac not in self.tables:
            a, c = ac
            self.tables[ac] = [math.ceil(_E(w) + _log2_ub(_E(v), a) + _log2_ub(_E(omv), c)) for v, omv, w, _ in self.pts]
        return self.tables[ac]

    def needs(self, chain, wprod, ths, dt):
        """The node's requirements and its bounds on each child's subtree.

        Returns (reqs, bounds): every leaf term below child j is below
        2^(bounds[j] + need) for each (floor index, need) in reqs, so it adds
        nothing when bounds[j] <= floors[c] - need for each.
        """
        fam, m, k = self.fam, self.m, len(chain)
        xs = [self.window] + [link[0] for link in chain]
        value = {("x", i): x for i, x in enumerate(xs)}
        value.update({("omv", i): link[3] for i, link in enumerate(chain, 1)})
        if chain:
            value["omx", k] = chain[-1][1]
        x, omx = chain[-1][:2] if chain else (self.window, 1 - self.window)
        # e_r < 3 x_1^r, and the window bounds x_1 at the root
        e1 = _E(xs[min(k, 1)])
        grow = self.N * max(0, (m * e1 if e1 > 0 else e1) + 3) + self.N + 1
        reqs = []
        for i, tv in enumerate(self.tvs):
            peak = (m - k) * _E(fam.factor_sup(x, tv, self.p, omx))
            need = (_E(wprod) + _E(ths[i]) if chain else 0) + peak + _MARGIN + grow
            reqs.append((i, need))
            if i == 0:
                reqs.append((self.COARSE, need))
                sup = fam.dt_log_sup(x, tv, self.p, omx) if self.with_dt else None
                if sup is not None:
                    # |dt| < 2^E(prefix) + (m - k) 2^E(sup), and one more bit for its rounding
                    edt = max(_E(dt) if chain else -math.inf, _E(sup) + (m - k - 1).bit_length()) + 2
                    reqs.append((self.DT, need + edt + 1))
                elif self.with_dt:
                    reqs.append((self.DT, math.inf))
        # per child, the smaller of the tallies' bounds: the child's grid value,
        # the grid maxima of the levels below it, and the node's own powers
        bounds = None
        for node, inner in self.tallies[k]:
            first, *below = [self.table(ac) for ac in inner]
            shift = math.ceil(sum(_log2_ub(_E(value[key]), e) for key, e in node.items())) + sum(map(max, below))
            column = [g + shift for g in first]
            bounds = column if bounds is None else list(map(min, bounds, column))
        return reqs, bounds

    def room(self, reqs, isc):
        """The largest child bound that ``reqs`` lets through, at the current floors."""
        return min(self.floors[c] - need for c, need in reqs if isc or c != self.COARSE)

    def leaf(self, chain, wprod, ths, dt, isc):
        prec, rnd, floors, DT, COARSE = self.prec, round_nearest, self.floors, self.DT, self.COARSE
        bases, es = _addends(chain, wprod, ths, self.window, self.beta, prec)
        # every key's value is below 2^(E(base) + grow) (see ``_simplex_sweep``)
        grow = self.N * max(0, max(e[2] + e[3] for e in es)) + self.N + 1
        for i, base in enumerate(bases):
            # skip the t when round-to-nearest would discard each of its additions
            bound = _E(base) + grow
            skip = bound <= floors[i]
            if skip and i == 0:
                # a dt addend is val * dt, below 2^(bound + E(dt) + 1)
                skip = (not self.with_dt or bound + _E(dt) + 1 <= floors[DT]) and (not isc or bound <= floors[COARSE])
            if skip:
                continue
            vals = [base._mpf_]
            for prefix, r in self.steps:
                vals.append(mul(vals[prefix], es[r], prec, rnd))
            self.accs[i] = [add(a, val, prec, rnd) for a, val in zip(self.accs[i], vals)]
            floors[i] = _floor(self.accs[i], prec)
            if i == 0 and self.with_dt:
                self.acc_dt[:] = [add(a, mul(val, dt._mpf_, prec, rnd), prec, rnd) for a, val in zip(self.acc_dt, vals)]
                floors[DT] = _floor(self.acc_dt, prec)
            if i == 0 and isc:
                self.acc_coarse[:] = [add(a, val, prec, rnd) for a, val in zip(self.acc_coarse, vals)]
                floors[COARSE] = _floor(self.acc_coarse, prec)

    # ordered simplex u_1 > u_2 > ... via u_i = u_{i-1} v_i; differences and
    # complements composed stably: 1 - x1 v = (1 - x1) + x1 (1 - v)
    def descend(self, chain, wprod, ths, dt, isc):
        fam, tvs, p, window = self.fam, self.tvs, self.p, self.window
        reqs, bounds = self.needs(chain, wprod, ths, dt)
        if max(bounds) <= self.room(reqs, isc):
            return  # no leaf below can change an accumulator
        step = self.descend if len(chain) + 1 < self.m else self.leaf
        for bound, (v, omv, w, isc_v) in zip(bounds, self.pts):
            if bound <= self.room(reqs, isc and isc_v):
                continue
            if chain:
                x_prev, omx_prev = chain[-1][:2]
                x, omx, wn = x_prev * v, omx_prev + x_prev * omv, wprod * w
            else:
                x, wn = v * window, w
                omx = omv if fam.contour == UNIT else 1 - x
            static, dynamic = fam.parts(x, tvs, p, omx, self.exps)
            thn = [static * d for d in dynamic]
            dtn = fam.dt_log_at(x, tvs[0], p, omx) if self.with_dt else None
            if chain:
                thn = [a * b for a, b in zip(ths, thn)]
                dtn = None if dtn is None else dt + dtn
            step(chain + ((x, omx, v, omv),), wn, thn, dtn, isc and isc_v)


def _simplex_family(J: str, m: int):
    """Raise ``UsageError`` unless the simplex sweep runs for family J at m."""
    if m > 3:
        raise UsageError("desk scale: m <= 3")
    if weighted(J).contour == POLYLINE:
        raise UsageError(f"family {J} uses a complex polyline; the real simplex grid does not apply")


def _simplex_sweep(J: str, N: int, m: int, hbar, ts, params: dict, prec: int, level: int, with_dt: bool):
    """One simplex sweep for every t in ``ts``: (coeffs per t, dt_coeffs, err).

    dt_coeffs (None unless ``with_dt``) and err belong to ts[0].  Every t
    shares one integration window, the largest ``fam.window(t)`` (a
    half-line window grows with |t|), so a difference quotient over the ts
    differentiates the integral, not the grid.  Node positions, the
    coupling, the elementary products, the weights and the t-free factor of
    theta are computed once and serve each t.
    A key's value is the prefix product (base * e_k1) * e_k2 ..., skipping the
    factors e_0 = 1, so it depends only on the key's word of nonzero indices:
    each word is accumulated once, its value its prefix word's times one
    e_r, and the words are expanded back to keys at the end.  Mirrored words
    such as (1, 2) and (2, 1) round differently and stay apart.

    Each value is below 2^(E(base) + N max(0, max_r E(e_r)) + N + 1), with
    E = exp + bc of the raw mpf.  A t whose values all fall below a quarter
    ulp of every accumulator they would join (its own, and for ts[0] the dt
    accumulator, times |dt|, and on coarse nodes the coarse one) is skipped
    at that leaf: each of those round-to-nearest additions would return the
    accumulator unchanged.

    The same test runs before any work below a node.  At the root and at
    each inner node, once the node's theta is known, ``_tally`` bounds every
    leaf term below it by the node's own factors (weights, window, x_i,
    theta), theta's t-dependent factor at its peak over (0, x] (``peak``)
    once per level below, the elementary products through x_1 (e_r < 3 x_1^r)
    and, per level below, one grid constant max_j w_j v_j^a (1 - v_j)^c.
    With b1 < 0, theta's (1 - x)^b1 below an inner node is bounded through
    each 1 - v_j or through the node's own 1 - x_k, whichever gives a child
    the lower bound.  |dt| is bounded by the prefix sum plus ``dt_log_sup`` per level below,
    and where that sup is infinite (III's 1/u) the dt test never passes.
    Every exponent is rounded outward, plus ``_MARGIN`` bits.  If no leaf
    term can change an accumulator, the node's subtree is skipped; otherwise
    each child is tested with its own grid value in place of the constant,
    before its theta, coupling or elementary products are computed.  Nothing
    that is skipped would have been added, so no returned bit moves.

    The bounds here hold for any finite sum, convergent or not; an integral
    that fails Selberg's condition (``_check_convergent``), or whose grid
    points^m pass ``MAX_SWEEP_POINTS``, is rejected first.
    """
    _simplex_family(J, m)
    fam, p, (b0, b1) = check_domain(J, ts[0], params, ts[1:])
    _check_convergent(J, m, hbar, (b0, b1))
    what = f"a {m}-fold sweep at level {level} and {prec} bits"
    _check_work(m * _log2_points(level, prec, (b0, b1)), MAX_SWEEP_POINTS, what, "grid points")
    # (1 - x_k)^b1 bounds theta's (1 - x)^b1 below a node only where the node
    # has an x_k < 1 and b1 < 0 makes the choice matter
    both = b1 is not None and b1 < 0
    tallies = [[_tally(k, m, b0, b1, 2 * as_rat(hbar), at) for at in (False, True)[: 1 + (both and k > 0)]] for k in range(m)]
    with mp.workprec(prec):
        tvs = [_to_mpf(as_rat(t)) for t in ts]
        pts, _ = _grid(level, prec, _tail_power((b0, b1)))
        window = _to_mpf(max(fam.window(tv) for tv in tvs))
        sweep = _Sweep(fam, N, m, tvs, {k: _to_mpf(v) for k, v in p.items()}, 2 * _to_mpf(as_rat(hbar)), pts, window, tallies, prec, with_dt)
        sweep.descend((), None, None, None, True)

        raw = mp.make_mpf

        def by_key(acc):
            return {key: raw(acc[w]) for key, w in zip(sweep.keys, sweep.word_of)}

        coeffs = [by_key(acc) for acc in sweep.accs]
        scales = [max(abs(v) for v in c.values()) for c in coeffs]
        if min(scales) == 0:
            raise QuadratureError("wave function vanished identically on the grid")
        # the coarse sum uses the same weights * 2 (h doubled)
        err = max(abs(raw(f) - 2 ** (m) * raw(c)) for f, c in zip(sweep.accs[0], sweep.acc_coarse)) / scales[0]
        return coeffs, (by_key(sweep.acc_dt) if with_dt else None), err


def _phi_terms(N: int, m: int) -> list:
    """Phi = sum_k (-1)^|k| C_k prod_rho z_rho^(m - k_rho), per key k in sweep order: (k, C_k's placeholder name, z powers, sign).

    Keys that a permutation of z maps onto each other share the placeholder c_<sorted k>.
    """
    return [(k, "c" + "_".join(map(str, sorted(k))), tuple(m - r for r in k), (-1) ** sum(k)) for k in itertools.product(range(m + 1), repeat=N)]


def phi_value(coeffs, z, m):
    """Phi at numeric z from the coefficients C_k (see ``_phi_terms``)."""
    total = mpmath.mpf(0)
    for k, _, powers, sign in _phi_terms(len(z), m):
        term = coeffs[k] * sign
        for zr, e in zip(z, powers):
            term *= zr**e
        total += term
    return total


# ---------------------------------------------------------------------------
# Numeric Schroedinger residual
# ---------------------------------------------------------------------------


def _formal_phi(reg: Registry, terms):
    """Phi over the ``_phi_terms``, with placeholder coefficient variables, symmetric in z."""
    phi = RatFun.const(reg, 0)
    for _, name, powers, sign in terms:
        mono = reg.var(name)
        for zn, e in zip(zvars(reg), powers):
            mono = mono * reg.var(zn) ** e
        phi = phi + RatFun.from_mpoly(mono * Fraction(sign))
    return phi


def pde_residual_numeric(
    J: str,
    N: int,
    m: int,
    hbar,
    t,
    params: dict,
    prec: int = 96,
    level: int = 6,
):
    """Relative residual of hbar * tau * dPhi/dt = H_J Phi on the coefficient vector.

    dPhi/dt is computed two ways (differentiation under the integral and
    Richardson-extrapolated central differences); their relative gap is
    reported as ``dt_agreement``.  tau is N, the time normalization the
    symbolic check solves; the residual confirms it.  Returns a report dict
    with the residual as an mpf.
    """
    hb = as_rat(hbar)
    t = as_rat(t)
    # H_J is the printed operator divided by its prefactor
    if weighted(J).prefactor(t) == 0:
        raise DomainError(f"family {J} has no Hamiltonian at t = {t}, where its printed prefactor vanishes")
    tau = Fraction(N)
    # numeric coefficient data: t and its four shifts from one sweep, which
    # raises every domain error before any exact work below
    mults = (1, -1, Fraction(1, 2), Fraction(-1, 2))
    ts = [t] + [t + Fraction(mult) * Fraction(1, 512) for mult in mults]
    accs, dt_exact, err_grid = _simplex_sweep(J, N, m, hb, ts, params, prec, level, True)
    coeffs, shifts = accs[0], dict(zip(mults, accs[1:]))

    # exact operator application on the formal coefficient polynomial; after
    # fixing t the rational function is a polynomial in z and the placeholders
    terms = _phi_terms(N, m)
    cnames = sorted({name for _, name, _, _ in terms})
    reg = Registry([f"z{i}" for i in range(1, N + 1)] + ["t"] + cnames)
    op = build_cp_hamiltonian(reg, J, N, m, hb, **params)
    hphi = apply_op(op, _formal_phi(reg, terms))
    hpoly = exact_div(hphi.num.subs({"t": t}), hphi.den.subs({"t": t}))
    with mp.workprec(prec):
        hstep = mpmath.mpf(1) / 512
        dt_fd = {}
        for k in coeffs:
            d1 = (shifts[1][k] - shifts[-1][k]) / (2 * hstep)
            d2 = (shifts[Fraction(1, 2)][k] - shifts[Fraction(-1, 2)][k]) / hstep
            dt_fd[k] = (4 * d2 - d1) / 3
        scale_dt = max(abs(v) for v in dt_exact.values())
        dt_gap = max(abs(dt_exact[k] - dt_fd[k]) for k in coeffs) / max(scale_dt, mpmath.mpf(1))

        # assemble both sides per z-monomial
        taum = _to_mpf(tau) * _to_mpf(hb)
        lhs = {powers: taum * dt_exact[k] * sign for k, _, powers, sign in terms}
        rhs = {}
        # a placeholder takes the last of its keys' values
        cvals = {name: coeffs[k] for k, name, _, _ in terms}
        zidx = [reg.index[f"z{i}"] for i in range(1, N + 1)]
        for e, coeff in hpoly.terms.items():
            zmono = tuple(e[i] for i in zidx)
            val = _to_mpf(coeff)
            for name in cnames:
                p = e[reg.index[name]]
                if p:
                    val *= cvals[name] ** p
            rhs[zmono] = rhs.get(zmono, mpmath.mpf(0)) + val
        monos = set(lhs) | set(rhs)
        diffs = [abs(lhs.get(mn, mpmath.mpf(0)) - rhs.get(mn, mpmath.mpf(0))) for mn in monos]
        scale = max(max(abs(v) for v in lhs.values()), max(abs(v) for v in rhs.values()))
        residual = max(diffs) / scale
        return {
            "residual": residual,
            "dt_agreement": dt_gap,
            "grid_error": err_grid,
            "time_factor": tau,
            "family": J,
        }


# ---------------------------------------------------------------------------
# Determinant cross-path (hbar = 1)
# ---------------------------------------------------------------------------


def andreief_phi(J: str, z, t, m: int, params: dict, prec: int = DEFAULT_PREC):
    """Full-domain Phi(z) via m! det of one-dimensional modified moments.

    Valid at hbar = 1 where the coupling is the squared Vandermonde; the
    returned value equals m! times the ordered-simplex integral.  The modified
    moment int u^k prod_rho (z_rho - u) Theta du is sum_l c_l nu_{k+l}, with
    c_l the exact coefficients of prod_rho (z_rho - u) and every nu from one
    ``moments_numeric`` pass.
    """
    c = [Fraction(1)]
    for x in z:
        c = [as_rat(x) * a - b for a, b in zip(c + [0], [0] + c)]
    nu = moments_numeric(J, [(k, 0) for k in range(2 * m - 1 + len(z))], t, params, prec)
    with mp.workprec(prec):
        mom = [sum(_to_mpf(cl) * nu[(k + l, 0)][0] for l, cl in enumerate(c)) for k in range(2 * m - 1)]
        mat = mpmath.matrix(m, m)
        for i in range(m):
            for j in range(m):
                mat[i, j] = mom[i + j]
        return mpmath.mpf(math.factorial(m)) * mpmath.det(mat)
