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
returns such a sum unchanged, so the skip changes no bit.
One-dimensional moments for a set of (k, s): on every real contour one pass
over the same tanh-sinh grid, whose coarse error sum reuses the fine nodes;
only family II's complex polyline takes one mpmath.quad per k, with both legs,
theta(u) and theta(u omega), evaluated once per node.  The hbar = 1
determinant cross-path takes its modified moments from one such pass.

Entry points: ``theta`` (the weight at one point), ``moments_numeric`` (the
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
from fractions import Fraction

import mpmath
from mpmath.libmp import fzero, mpf_add as add, mpf_mul as mul, round_nearest

from .diffop import apply_op, build_cp_hamiltonian, zvars
from .errors import DomainError, QuadratureError, UsageError
from .exact import RatFun, Registry, as_rat, exact_div
from .families import POLYLINE, UNIT, weighted

mp = mpmath.mp

DEFAULT_PREC = 192


def _to_mpf(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def check_domain(J: str, t, params: dict):
    fam = weighted(J)
    t = as_rat(t) if isinstance(t, (int, Fraction, str)) else t
    p = {k: as_rat(v) for k, v in params.items() if v is not None}
    if not fam.admissible(t, p):
        raise DomainError(f"family {J} {fam.requirement}")


def theta(J: str, u, t, params: dict):
    """The weight function at u (mpf or mpc)."""
    return weighted(J).theta(u, t, params, 1 - u)


def _mp_params(params):
    return {k: _to_mpf(as_rat(v)) for k, v in params.items() if v is not None}


def moment_numeric(J: str, k: int, s: int, t, params: dict, prec: int = DEFAULT_PREC):
    """int u^k (t-u)^{-s} Theta_J(u) du on the canonical contour, with error: one key of ``moments_numeric``."""
    return moments_numeric(J, [(k, s)], t, params, prec)[(k, s)]


def moments_numeric(J: str, keys, t, params: dict, prec: int = DEFAULT_PREC) -> dict:
    """{(k, s): (value, error)} for int u^k (t-u)^{-s} Theta_J(u) du, all keys in one pass.

    s = 1 is the rho-moment and is meaningful for family VI only.  The half
    line is cut to the window (0, L(t)) the simplex sweep cuts, so III's
    moments carry its e^{-L} cut: near 1e-57 for k <= 7, far below the
    oracle's 1e-10 threshold.
    """
    if any(s not in (0, 1) for _, s in keys):
        raise UsageError("s must be 0 or 1")
    if J != "VI" and any(s for _, s in keys):
        raise UsageError("(t-u)^{-1} moments are defined for family VI only")
    check_domain(J, t, params)
    fam = weighted(J)
    with mp.workprec(prec):
        tv = _to_mpf(as_rat(t))
        p = _mp_params(params)

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
        pts, tail = _grid(max(6, (prec // 32) + 3), prec, _tail_power(J, params))
        window = None if fam.contour == UNIT else _to_mpf(fam.window(tv))
        fine, coarse = dict.fromkeys(keys, mpmath.mpf(0)), dict.fromkeys(keys, mpmath.mpf(0))
        for u, omu, w, on_coarse, on_fine in [pt + (True,) for pt in pts] + [pt + (True, False) for pt in tail]:
            if window is not None:
                u, w = u * window, w * window
                omu = 1 - u
            th = fam.theta(u, tv, p, omu)
            terms = {k: w * u**k * th for k in {k for k, _ in keys}}
            for key in fine:
                v = terms[key[0]] / ((tv - 1) + omu) if key[1] else terms[key[0]]
                if on_fine:
                    fine[key] += v
                if on_coarse:
                    coarse[key] += v
        return {key: (fine[key], abs(fine[key] - 2 * coarse[key])) for key in keys}


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
    """
    nodes = ts_nodes(level, prec, tail_power)
    ncoarse = len(ts_nodes(level - 1, prec, tail_power)) if level > 1 else 0
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


def _tail_power(J: str, params: dict) -> float:
    """1/(1 + beta_min) + 1 for the most singular endpoint exponent beta_min."""
    exps = [e for e in weighted(J).exponents(params) if e is not None]
    beta = min([Fraction(0)] + [as_rat(e) for e in exps])
    if beta <= -1:
        raise DomainError(f"endpoint exponent {beta} is not integrable")
    return float(1 / (1 + beta)) + 1.0


def simplex_phi_coeffs(J: str, N: int, m: int, hbar, t, params: dict, prec: int = 96, level: int = 6, with_dt: bool = True):
    """Coefficients C_(k) = <prod_rho e_{k_rho}(u)> by m-fold simplex quadrature.

    Returns (coeffs, dt_coeffs, err) where err is the difference to the next
    coarser level, taken over the largest coefficient.  dt_coeffs are the
    t-derivatives computed by differentiating under the integral, None
    without ``with_dt``.  The full symmetric-domain integral is m! times the
    coefficients when the integrand is symmetric (integer hbar).
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


def _negligible(bound: int, accs, prec: int) -> bool:
    """True when adding any x with |x| < 2^bound rounds each raw mpf in ``accs`` back to itself.

    With E = exp + bc, a nonzero acc has 2^(E-1) <= |acc| < 2^E and ulp
    2^(E-prec) at ``prec`` bits.  Round-to-nearest returns acc for |x| below
    half the spacing on either side; at a power of two the spacing below is
    half the ulp, so the margin is a quarter ulp, 2^(E-prec-2).  A zero
    accumulator takes any addend, so it never allows a skip.
    """
    return all(a[1] and bound <= a[2] + a[3] - prec - 2 for a in accs)


def _simplex_sweep(J: str, N: int, m: int, hbar, ts, params: dict, prec: int, level: int, with_dt: bool):
    """One simplex sweep for every t in ``ts``: (coeffs per t, dt_coeffs, err).

    dt_coeffs (None unless ``with_dt``) and err belong to ts[0].  Every t
    shares one integration window, the largest ``fam.window(t)`` (a
    half-line window grows with |t|), so a difference quotient over the ts
    differentiates the integral, not the grid.  Node positions, the
    coupling, the elementary products, the weights and the t-free factor of
    theta are computed once and serve each t.
    A key's value is the prefix product (base * e_k1) * e_k2 ..., skipping the
    factors e_0 = 1.

    Each value is below 2^(E(base) + N max(0, max_r E(e_r)) + N + 1), with
    E = exp + bc of the raw mpf.  A t whose values all fall below a quarter
    ulp of every accumulator they would join (its own, and for ts[0] the dt
    accumulator, times |dt|, and on coarse nodes the coarse one) is skipped
    at that leaf: each of those round-to-nearest additions would return the
    accumulator unchanged.
    """
    if m > 3:
        raise UsageError("desk scale: m <= 3")
    fam = weighted(J)
    if fam.contour == POLYLINE:
        raise UsageError(f"family {J} uses a complex polyline; the real simplex grid does not apply")
    for t in ts:
        check_domain(J, t, params)
    with mp.workprec(prec):
        tvs = [_to_mpf(as_rat(t)) for t in ts]
        p = _mp_params(params)
        beta = 2 * _to_mpf(as_rat(hbar))
        pts, _ = _grid(level, prec, _tail_power(J, params))
        keys = list(itertools.product(range(m + 1), repeat=N))
        one, rnd = mpmath.mpf(1), round_nearest
        # the key products and sums run on raw mpf tuples, rounded as mpf * and + round
        accs = [[fzero] * len(keys) for _ in ts]
        acc_dt, acc_coarse = [fzero] * len(keys), [fzero] * len(keys)

        def leaf(chain, wprod, ths, dt, isc):
            xs = tuple(link[0] for link in chain)
            weight = wprod * window
            for x in xs[:-1]:
                weight *= x
            coupling = _coupling(chain, beta)
            es = [e._mpf_ for e in _elementary(xs, m)]
            # every key's value is below 2^(E(base) + grow) (see the docstring)
            grow = N * max(0, max(e[2] + e[3] for e in es[1:])) + N + 1
            for i, th in enumerate(ths):
                base = weight * th if coupling is None else weight * th * coupling
                if not mpmath.isfinite(base):
                    raise QuadratureError(f"non-finite integrand near {xs}")
                # skip the t when round-to-nearest would discard each of its additions
                bound = base._mpf_[2] + base._mpf_[3] + grow
                skip = _negligible(bound, accs[i], prec)
                if skip and i == 0:
                    # a dt addend is val * dt, below 2^(bound + E(dt) + 1)
                    skip = (not with_dt or _negligible(bound + dt._mpf_[2] + dt._mpf_[3] + 1, acc_dt, prec)) and (
                        not isc or _negligible(bound, acc_coarse, prec)
                    )
                if skip:
                    continue
                vals = [base._mpf_]
                for _ in range(N):
                    vals = [val if r == 0 else mul(val, es[r], prec, rnd) for val in vals for r in range(m + 1)]
                accs[i] = [add(a, val, prec, rnd) for a, val in zip(accs[i], vals)]
                if i == 0 and with_dt:
                    acc_dt[:] = [add(a, mul(val, dt._mpf_, prec, rnd), prec, rnd) for a, val in zip(acc_dt, vals)]
                if i == 0 and isc:
                    acc_coarse[:] = [add(a, val, prec, rnd) for a, val in zip(acc_coarse, vals)]

        # ordered simplex u_1 > u_2 > ... via u_i = u_{i-1} v_i; differences and
        # complements composed stably: 1 - x1 v = (1 - x1) + x1 (1 - v)
        def descend(chain, wprod, ths, dt, isc):
            for v, omv, w, isc_v in pts:
                if chain:
                    x_prev, omx_prev = chain[-1][:2]
                    x, omx, wn = x_prev * v, omx_prev + x_prev * omv, wprod * w
                else:
                    x, wn = v * window, w
                    omx = omv if fam.contour == UNIT else one - x
                static, dynamic = fam.parts(x, tvs, p, omx)
                thn = [static * d for d in dynamic]
                dtn = fam.dt_log_at(x, tvs[0], p, omx) if with_dt else None
                iscn = isc_v
                if chain:
                    thn = [a * b for a, b in zip(ths, thn)]
                    dtn = None if dtn is None else dt + dtn
                    iscn = isc and isc_v
                (descend if len(chain) + 1 < m else leaf)(chain + ((x, omx, v, omv),), wn, thn, dtn, iscn)

        window = _to_mpf(max(fam.window(tv) for tv in tvs))
        descend((), None, None, None, None)

        raw = mp.make_mpf
        coeffs = [dict(zip(keys, map(raw, acc))) for acc in accs]
        scales = [max(abs(v) for v in c.values()) for c in coeffs]
        if min(scales) == 0:
            raise QuadratureError("wave function vanished identically on the grid")
        # the coarse sum uses the same weights * 2 (h doubled)
        err = max(abs(coeffs[0][k] - 2 ** (m) * raw(c)) for k, c in zip(keys, acc_coarse)) / scales[0]
        return coeffs, (dict(zip(keys, map(raw, acc_dt))) if with_dt else None), err


def _elementary(us, m):
    es = [mpmath.mpf(1)]
    for r in range(1, m + 1):
        total = mpmath.mpf(0)
        for combo in itertools.combinations(us, r):
            prod = mpmath.mpf(1)
            for x in combo:
                prod *= x
            total += prod
        es.append(total)
    return es


def phi_value(coeffs, z, m):
    """Evaluate sum_k (-1)^{sum k} C_k prod z_rho^{m-k_rho} at numeric z."""
    total = mpmath.mpf(0)
    for k, c in coeffs.items():
        term = c * (-1) ** sum(k)
        for zr, kr in zip(z, k):
            term *= zr ** (m - kr)
        total += term
    return total


# ---------------------------------------------------------------------------
# Numeric Schroedinger residual
# ---------------------------------------------------------------------------


def _formal_phi(reg: Registry, N: int, m: int):
    """Phi with placeholder coefficient variables c_<sorted k>, symmetric in z."""
    phi = RatFun.const(reg, 0)
    for k in itertools.product(range(m + 1), repeat=N):
        name = "c" + "_".join(map(str, sorted(k)))
        mono = reg.var(name)
        for zn, kr in zip(zvars(reg)[:N], k):
            mono = mono * reg.var(zn) ** (m - kr)
        phi = phi + RatFun.from_mpoly(mono * Fraction((-1) ** sum(k)))
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
    time_factor: int | None = None,
):
    """Relative residual of hbar * tau * dPhi/dt = H_J Phi on the coefficient vector.

    dPhi/dt is computed two ways (differentiation under the integral and
    Richardson-extrapolated central differences); their relative gap is
    reported as ``dt_agreement``.  tau defaults to the engine-derived time
    normalization N.  Returns a report dict with the residual as an mpf.
    """
    hb = as_rat(hbar)
    t = as_rat(t)
    tau = Fraction(N) if time_factor is None else as_rat(time_factor)
    # exact operator application on the formal coefficient polynomial; after
    # fixing t the rational function is a polynomial in z and the placeholders
    names = [f"z{i}" for i in range(1, N + 1)] + ["t"]
    cnames = sorted({"c" + "_".join(map(str, sorted(k))) for k in itertools.product(range(m + 1), repeat=N)})
    reg = Registry(names + cnames)
    phi_formal = _formal_phi(reg, N, m)
    op = build_cp_hamiltonian(reg, J, N, m, hb, **params)
    hphi = apply_op(op, phi_formal)
    hpoly = exact_div(hphi.num.subs({"t": t}), hphi.den.subs({"t": t}))

    # numeric coefficient data: t and its four shifts from one sweep
    mults = (1, -1, Fraction(1, 2), Fraction(-1, 2))
    ts = [t] + [t + Fraction(mult) * Fraction(1, 512) for mult in mults]
    accs, dt_exact, err_grid = _simplex_sweep(J, N, m, hb, ts, params, prec, level, True)
    coeffs, shifts = accs[0], dict(zip(mults, accs[1:]))
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
        lhs = {}
        for k, c in dt_exact.items():
            zmono = tuple(m - kr for kr in k)
            lhs[zmono] = lhs.get(zmono, mpmath.mpf(0)) + taum * c * (-1) ** sum(k)
        rhs = {}
        cvals = {}
        for k, c in coeffs.items():
            cvals["c" + "_".join(map(str, sorted(k)))] = c
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
