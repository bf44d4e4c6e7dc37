"""Exact verification of the integral ansatz via one-dimensional moments.

For positive integer hbar the coupling factor in the ansatz is a polynomial,
the multi-fold integrals factorize over a common contour, and every
expectation value is a polynomial in the 1-D moments nu_k = int u^k Theta du
(family VI also meets rho_k = int u^k (t-u)^{-1} Theta du).  Total-derivative
(divergence) identities generate linear relations among the moments; this
module derives those relations from the master-function data itself, reduces
each moment to the seed moments nu_0, nu_1 as a linear form, and checks the
Schroedinger equation as an exact polynomial identity in z and the seeds with
rational functions of t as coefficients.  The only product of moments is the
m-fold one that ``build_phi`` forms.

No recursion coefficient is hard-coded: every reduction rule is solved out of
a generated divergence relation (the numeric quadrature module cross-checks
them against actual integrals).
"""

from __future__ import annotations

from fractions import Fraction

from . import families
from .diffop import apply_op, build_cp_hamiltonian, power_sum
from .errors import InternalError, UsageError
from .exact import MPoly, RatFun, Registry, as_rat, as_ratfun, fit, session_registry


class MasterFunction:
    """Log-derivative data Theta'/Theta = logd_num(u)/clearing(u) of one family.

    ``clearing`` and ``logd_num`` are u-polynomials encoded as {power: RatFun};
    family VI uses the full clearing u(1-u)(t-u).  ``min_n`` is the lowest
    admissible divergence index and ``dt_log`` the rule (coeff, shift, s) of
    d/dt log Theta; all three come from the family table.
    """

    def __init__(self, family: str, reg: Registry, params: dict):
        fam = families.weighted(family)
        self.family = family
        self.reg = reg
        self.params = {k: as_rat(v) for k, v in params.items() if v is not None}
        clearing, logd_num = fam.log_derivative(RatFun.var(reg, "t"), self.params)
        self.clearing = {j: as_ratfun(c, reg) for j, c in clearing.items()}
        self.logd_num = {j: as_ratfun(c, reg) for j, c in logd_num.items()}
        self.min_n = fam.min_n
        self.dt_log = fam.dt_log(self.params)


# A linear form is a dict {("nu" | "rho", k): RatFun(t)}: the sum of coefficient
# times moment.  Every relation, replacement and reduction below is one, with no
# zero coefficients.


def _bump(form: dict, sym, c: RatFun) -> None:
    form[sym] = form[sym] + c if sym in form else c


def _nonzero(form: dict) -> dict:
    return {sym: c for sym, c in form.items() if not c.is_zero()}


# ---------------------------------------------------------------------------
# Divergence relations and reduction
# ---------------------------------------------------------------------------


def ibp_relation(mf: MasterFunction, n: int) -> dict:
    """0 = int d/du [u^n clearing(u) Theta(u)] du as a linear form in nu symbols.

    d/du [u^n c Theta] = (sum_j (n+j) c_j u^{n+j-1} + u^n logd_num) Theta.
    """
    if n < mf.min_n:
        raise UsageError(f"relation index {n} below the admissible minimum {mf.min_n}")
    rel: dict = {}
    for j, cj in mf.clearing.items():
        if n + j != 0:
            _bump(rel, ("nu", n + j - 1), cj * Fraction(n + j))
    for j, gj in mf.logd_num.items():
        _bump(rel, ("nu", n + j), gj)
    return _nonzero(rel)


def _div_by_t_minus_u(p: dict, t: RatFun, reg: Registry):
    """p(u) = (t-u) q(u) + r with r = p(t); exact synthetic division on dicts."""
    deg = max(p, default=0)
    dense = [p.get(i, RatFun.const(reg, 0)) for i in range(deg + 1)]
    q = [RatFun.const(reg, 0)] * deg
    for i in range(deg, 0, -1):
        q[i - 1] = -dense[i]
        dense[i - 1] = dense[i - 1] + t * dense[i]
    r = dense[0]
    return {i: c for i, c in enumerate(q) if not c.is_zero()}, r


def ibp_relation_partial_vi(mf: MasterFunction, n: int) -> dict:
    """Family VI divergence with the partial clearing u(1-u): brings in rho_n.

    u(1-u) Theta'/Theta = logd_num(u)/(t-u) = q(u) + r/(t-u) by division.
    """
    if mf.family != "VI":
        raise UsageError("partial clearing applies to family VI only")
    if n < 0:
        raise UsageError("relation index must be nonnegative")
    reg = mf.reg
    q, r = _div_by_t_minus_u(mf.logd_num, RatFun.var(reg, "t"), reg)
    rel: dict = {}
    # d/du [u^{n+1}(1-u)] = (n+1) u^n - (n+2) u^{n+1}
    _bump(rel, ("nu", n), RatFun.const(reg, n + 1))
    _bump(rel, ("nu", n + 1), RatFun.const(reg, -(n + 2)))
    for j, gj in q.items():
        _bump(rel, ("nu", n + j), gj)
    rel[("rho", n)] = r
    return _nonzero(rel)


def rho_reduction(mf: MasterFunction, k: int) -> dict:
    """rho_k through rho_0 and nu's via u^k = (t-u) q(u) + t^k (division identity)."""
    reg = mf.reg
    q, r = _div_by_t_minus_u({k: RatFun.const(reg, 1)}, RatFun.var(reg, "t"), reg)
    return {("rho", 0): r, **{("nu", j): c for j, c in q.items()}}


def _solve_for(rel: dict, sym) -> dict:
    coeff = rel.get(sym)
    if coeff is None:
        shown = " + ".join(f"({c.to_str()})*{kind}{k}" for (kind, k), c in sorted(rel.items())) or "0"
        raise UsageError(f"relation does not determine {sym} (resonant parameters): {shown}")
    scale = RatFun.const(coeff.reg, -1) / coeff
    return {s: c * scale for s, c in rel.items() if s != sym}


class MomentReducer:
    """Deterministic elimination to a two-moment seed basis.

    Each nu_k with k >= 2 is solved out of the divergence relation whose top
    index is k; rho symbols collapse to rho_0 by the division identity and
    then to seeds via the partial-clearing relation; family III's nu_{-1}
    (from d/dt) is solved downward, dividing by t.

    Seeds are (nu_0, nu_1) except at a family-VI resonance: when
    a + b + c + d is a positive integer S (which the solvability conditions
    force, S = (2m-1) hbar), the relation that would produce nu_{S+1}
    degenerates into a constraint among lower moments.  The reducer then
    eliminates nu_1 through that constraint and keeps (nu_0, nu_{S+1}) as the
    basis; ``seed_map`` records which symbol each registry seed variable
    denotes.
    """

    def __init__(self, mf: MasterFunction):
        self.mf = mf
        self.resonant_n = None
        second = ("nu", 1)
        if mf.family == "VI":
            total = sum(mf.params[k] for k in ("a", "b", "c", "d"))
            if total.denominator == 1 and total >= 1:
                self.resonant_n = int(total) - 1
                second = ("nu", self.resonant_n + 2)
        self.seed_map = {("nu", 0): "nu0", second: "nu1"}
        one = RatFun.const(mf.reg, 1)
        self._forms = {sym: {sym: one} for sym in self.seed_map}
        # the resonant relation is reduced with nu_1 not yet pinned
        self._free = {sym: {sym: one} for sym in (("nu", 0), ("nu", 1))}

    def replacement(self, sym) -> dict:
        """The linear form that one relation gives for sym."""
        kind, k = sym
        mf = self.mf
        if kind == "rho":
            return rho_reduction(mf, k) if k >= 1 else _solve_for(ibp_relation_partial_vi(mf, 0), sym)
        if k == 1 and self.resonant_n is not None:
            # the resonant relation, reduced to {nu_0, nu_1}, pins nu_1 to nu_0
            return _solve_for(self._reduced(ibp_relation(mf, self.resonant_n), self._free), sym)
        if k >= 2 or k < 0:
            # for k < 0 the lowest index of relation k is k itself
            return _solve_for(ibp_relation(mf, k - 2 if k >= 2 else k), sym)
        raise InternalError(f"{sym} is already a seed")

    def _reduced(self, form: dict, forms: dict) -> dict:
        out: dict = {}
        for sym, c in form.items():
            if sym not in forms:
                forms[sym] = self._reduced(self.replacement(sym), forms)
            for seed, v in forms[sym].items():
                _bump(out, seed, c * v)
        return _nonzero(out)

    def reduce(self, sym) -> dict:
        """sym as a linear form in the seeds, computed once per symbol."""
        if sym not in self._forms:
            self._forms[sym] = self._reduced(self.replacement(sym), self._forms)
        return self._forms[sym]


def d_dt(sym, reducer: MomentReducer) -> dict:
    """d/dt nu_k = int u^k (d/dt log Theta) Theta du, reduced to the seeds."""
    rate, shift, s = reducer.mf.dt_log
    kind, k = sym
    if kind != "nu":
        raise UsageError(f"d/dt applies to nu moments, not {sym}")
    return _nonzero({seed: c * rate for seed, c in reducer.reduce(("rho" if s else "nu", k + shift)).items()})


def _seed_ratfun(form: dict, reducer: MomentReducer) -> RatFun:
    """A seeds-only linear form as a RatFun in (t, nu0, nu1)."""
    reg = reducer.mf.reg
    acc = RatFun.const(reg, 0)
    for sym, c in form.items():
        acc = acc + c * RatFun.var(reg, reducer.seed_map[sym])
    return acc


# ---------------------------------------------------------------------------
# Wave functions and the symbolic PDE check
# ---------------------------------------------------------------------------


def build_phi(J: str, N: int, m: int, hbar: int, params: dict, reg: Registry | None = None):
    """The ansatz wave function as a RatFun over (z_1..z_N, t, nu0, nu1).

    Requires a positive integer hbar: only then is the coupling power a
    polynomial and the moment factorization over one common contour valid.
    Returns (phi, reducer).
    """
    if not isinstance(hbar, int) or hbar < 1:
        raise UsageError("symbolic path requires a positive integer hbar (use the numeric path)")
    if m > 3 or N > 3:
        raise UsageError("desk scale: m <= 3 and N <= 3")
    if reg is None:
        reg = session_registry(N, seeds=("nu0", "nu1"))
    mf = MasterFunction(J, reg, params)
    reducer = MomentReducer(mf)
    ureg = Registry([f"z{i}" for i in range(1, N + 1)] + ["t"] + [f"u{i}" for i in range(1, m + 1)])
    integrand = ureg.one()
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            integrand = integrand * (ureg.var(f"u{i}") - ureg.var(f"u{j}")) ** (2 * hbar)
    for rho in range(1, N + 1):
        for i in range(1, m + 1):
            integrand = integrand * (ureg.var(f"z{rho}") - ureg.var(f"u{i}"))
    uidx = [ureg.index[f"u{i}"] for i in range(1, m + 1)]
    nus: dict = {}  # k -> nu_k as a RatFun in (t, nu0, nu1)
    cache: dict = {}  # sorted u-powers -> the product of their nu's
    phi = RatFun.const(reg, 0)
    for exps, coeff in integrand.terms.items():
        powers = tuple(sorted(exps[i] for i in uidx))
        reduced = cache.get(powers)
        if reduced is None:
            reduced = RatFun.const(reg, 1)
            for k in powers:
                if k not in nus:
                    nus[k] = _seed_ratfun(reducer.reduce(("nu", k)), reducer)
                reduced = reduced * nus[k]
            cache[powers] = reduced
        zmono = [0] * len(reg.names)
        for i, name in enumerate(ureg.names):
            if i not in uidx and exps[i]:
                zmono[reg.index[name]] = exps[i]
        phi = phi + RatFun.from_mpoly(MPoly(reg, {tuple(zmono): coeff})) * reduced
    return phi, reducer


def phi_time_derivative(phi: RatFun, reducer: MomentReducer) -> RatFun:
    """d/dt of a seeds-only wave function, treating nu0, nu1 as t-dependent."""
    out = phi.deriv("t")
    for sym, name in reducer.seed_map.items():
        out = out + phi.deriv(name) * _seed_ratfun(d_dt(sym, reducer), reducer)
    return out


def pde_params(J: str, m: int, hbar, b=None, c=None) -> dict:
    """Parameters satisfying the printed solvability conditions: a = m hbar,
    and additionally b + c + d = (m-1) hbar for family VI."""
    hb = as_rat(hbar)
    keys = families.weighted(J).cp_keys
    p: dict = {"a": m * hb}
    if "b" in keys:
        p["b"] = as_rat(b) if b is not None else Fraction(-1, 3)
    if "c" in keys:
        p["c"] = as_rat(c) if c is not None else Fraction(-1, 5)
    if "d" in keys:
        p["d"] = (m - 1) * hb - p["b"] - p["c"]
    return p


def verify_pde_symbolic(J: str, N: int, m: int, hbar: int, params: dict | None = None, mutate: str | None = None):
    """Check hbar * tau * dPhi/dt = H_J Phi exactly, solving the time
    normalization tau (free of z and the seeds) with ``fit`` rather than
    assuming it.

    ``mutate='m_shift'`` perturbs the m hbar sum(z) coefficient by one as a
    negative control.  Returns a report dict; ``ok`` means the residual is
    identically zero with tau the rational constant N, the value the
    appendix derivations carry.  A wrong family prefactor moves into tau,
    so any other tau fails.
    """
    if params is None:
        params = pde_params(J, m, hbar)
    reg = session_registry(N, seeds=("nu0", "nu1"))
    phi, reducer = build_phi(J, N, m, hbar, params, reg)
    op = build_cp_hamiltonian(reg, J, N, m, hbar, **params)
    if mutate == "m_shift":
        op.C = op.C + power_sum(reg, N, 1)
    elif mutate is not None:
        raise UsageError(f"unknown mutation {mutate!r}")
    hphi = apply_op(op, phi)
    dphi = phi_time_derivative(phi, reducer) * RatFun.const(reg, as_rat(hbar))
    tau = fit(hphi, [dphi], [n for n in reg.names if n != "t"])
    return {
        "ok": tau is not None and tau[0] == N,
        "family": J,
        "N": N,
        "m": m,
        "hbar": hbar,
        "time_factor": None if tau is None else tau[0].to_str(),
        "params": params,
    }
