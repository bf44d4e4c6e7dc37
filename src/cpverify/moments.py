"""Exact verification of the integral ansatz via one-dimensional moments.

For positive integer hbar the coupling factor in the ansatz is a polynomial,
the multi-fold integrals factorize over a common contour, and every
expectation value is a polynomial in the 1-D moments nu_k = int u^k Theta du
(a weight with (t-u)^{-1} in d/dt log Theta also meets rho_k = int u^k
(t-u)^{-1} Theta du).  Total-derivative (divergence) identities generate
linear relations among the moments; this module derives those relations from
the master-function data itself, reduces each moment to the seed moments
nu_0, nu_1 as a linear form, and checks the Schroedinger equation as an exact
polynomial identity in z and the seeds with rational functions of t as
coefficients.  The only product of moments is the m-fold one that
``build_phi`` forms.

No recursion coefficient is hard-coded: every reduction rule, rho_k and the
resonance are solved out of generated divergence relations (the numeric
quadrature module cross-checks them against actual integrals).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

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
        self.reg = reg
        p = families.read_params(params, fam.cp_keys)
        clearing, logd_num = fam.log_derivative(RatFun.var(reg, "t"), p)
        self.clearing = {j: as_ratfun(c, reg) for j, c in clearing.items()}
        self.logd_num = {j: as_ratfun(c, reg) for j, c in logd_num.items()}
        self.min_n = fam.min_n
        self.dt_log = fam.dt_log(p)


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


def _divergence(mf: MasterFunction, n: int, clearing: dict, num: dict, rho=None) -> dict:
    """0 = int d/du [u^n clearing(u) Theta(u)] du as a linear form, where
    clearing Theta'/Theta = num(u) + rho/(t-u) (rho None for no such term).

    d/du [u^n c Theta] = (sum_j (n+j) c_j u^{n+j-1} + u^n num + rho u^n/(t-u)) Theta.
    """
    if n < mf.min_n:
        raise UsageError(f"relation index {n} below the admissible minimum {mf.min_n}")
    rel: dict = {}
    for j, cj in clearing.items():
        if n + j != 0:
            _bump(rel, ("nu", n + j - 1), cj * Fraction(n + j))
    for j, gj in num.items():
        _bump(rel, ("nu", n + j), gj)
    if rho is not None:
        _bump(rel, ("rho", n), rho)
    return _nonzero(rel)


def ibp_relation(mf: MasterFunction, n: int) -> dict:
    """Relation n with the full clearing, as a linear form in nu symbols."""
    return _divergence(mf, n, mf.clearing, mf.logd_num)


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


def ibp_relation_partial(mf: MasterFunction, n: int) -> dict:
    """Relation n with the partial clearing clearing/(t-u): brings in rho_n.

    Only a weight whose d/dt log Theta has (t-u)^{-1} has rho moments, and
    its clearing has the root t.  With logd_num = (t-u) q(u) + r by
    division, the partial clearing times Theta'/Theta is q(u) + r/(t-u).
    """
    if not mf.dt_log[2]:
        raise UsageError("a partial clearing needs a weight whose d/dt log Theta has (t-u)^{-1}")
    t = RatFun.var(mf.reg, "t")
    partial, _ = _div_by_t_minus_u(mf.clearing, t, mf.reg)
    q, r = _div_by_t_minus_u(mf.logd_num, t, mf.reg)
    return _divergence(mf, n, partial, q, r)


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
    index is k, each rho_k out of partial-clearing relation k; family III's
    nu_{-1} (from d/dt) is solved downward, dividing by t.

    Seeds are (nu_0, nu_1) except at a resonance: relation n gives nu_{n+2}
    the coefficient (n+3) c_3 + g_2 (the top coefficients of clearing and
    logd_num), and where that vanishes at an admissible integer n (for family
    VI, where a + b + c + d = n + 1, which the solvability conditions force
    to be (2m-1) hbar), relation n degenerates into a constraint among lower
    moments.  The reducer then eliminates nu_1 through that constraint and
    keeps (nu_0, nu_{n+2}) as the basis; ``seed_map`` records which symbol
    each registry seed variable denotes.
    """

    def __init__(self, mf: MasterFunction):
        self.mf = mf
        root = -mf.logd_num[2] / mf.clearing[3] - 3 if 3 in mf.clearing else None  # (n+3) c_3 + g_2 = 0
        n = None
        if root is not None and root.num.is_constant() and root.den.is_constant():
            n = root.num.constant_value() / root.den.constant_value()
        self.resonant_n = int(n) if n is not None and n.denominator == 1 and n >= mf.min_n else None
        second = ("nu", 1 if self.resonant_n is None else self.resonant_n + 2)
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
            return _solve_for(ibp_relation_partial(mf, k), sym)
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
    The integrand's terms are grouped by their sorted u-powers: each group's
    z-monomials form one polynomial, which multiplies the group's product of
    reduced moments once.  Returns (phi, reducer).
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
    groups: dict = {}  # sorted u-powers -> {z-monomial: coefficient}
    for exps, coeff in integrand.terms.items():
        zmono = [0] * len(reg.names)
        for i, name in enumerate(ureg.names):
            if i not in uidx and exps[i]:
                zmono[reg.index[name]] = exps[i]
        zterms = groups.setdefault(tuple(sorted(exps[i] for i in uidx)), {})
        zterms[tuple(zmono)] = zterms.get(tuple(zmono), 0) + coeff
    nus = {k: _seed_ratfun(reducer.reduce(("nu", k)), reducer) for k in sorted({k for ks in groups for k in ks})}
    phi = RatFun.const(reg, 0)
    for powers, zterms in groups.items():
        phi = phi + RatFun.from_mpoly(MPoly(reg, zterms)) * prod((nus[k] for k in powers), start=RatFun.const(reg, 1))
    return phi, reducer


def phi_time_derivative(phi: RatFun, reducer: MomentReducer) -> RatFun:
    """d/dt of a seeds-only wave function, treating nu0, nu1 as t-dependent."""
    out = phi.deriv("t")
    for sym, name in reducer.seed_map.items():
        out = out + phi.deriv(name) * _seed_ratfun(d_dt(sym, reducer), reducer)
    return out


def pde_params(J: str, m: int, hbar, b=Fraction(-1, 3), c=Fraction(-1, 5)) -> dict:
    """Parameters satisfying the printed solvability conditions: a = m hbar,
    and additionally b + c + d = (m-1) hbar for family VI: a and the family's own keys."""
    hb, b, c = as_rat(hbar), as_rat(b), as_rat(c)
    p = {"a": m * hb, "b": b, "c": c, "d": (m - 1) * hb - b - c}
    return {k: v for k, v in p.items() if k == "a" or k in families.weighted(J).cp_keys}


def verify_pde_symbolic(J: str, N: int, m: int, hbar: int, params: dict | None = None, mutate: str | None = None, wave=None):
    """Check hbar * tau * dPhi/dt = H_J Phi exactly, solving the time
    normalization tau (free of z and the seeds) with ``fit`` rather than
    assuming it.

    ``mutate='m_shift'`` perturbs the m hbar sum(z) coefficient by one as a
    negative control.  Returns a report dict; ``ok`` means the residual is
    identically zero with tau the rational constant N, the value the
    appendix derivations carry.  A wrong family prefactor moves into tau,
    so any other tau fails.  The report's ``wave``, (Phi, hbar dPhi/dt), is
    not built again when passed back to a check of the same arguments.
    """
    if params is None:
        params = pde_params(J, m, hbar)
    if wave is None:
        phi, reducer = build_phi(J, N, m, hbar, params, session_registry(N, seeds=("nu0", "nu1")))
        wave = (phi, phi_time_derivative(phi, reducer) * RatFun.const(phi.reg, as_rat(hbar)))
    phi, dphi = wave
    reg = phi.reg
    op = build_cp_hamiltonian(reg, J, N, m, hbar, **params)
    if mutate == "m_shift":
        op.C = op.C + power_sum(reg, N, 1)
    elif mutate is not None:
        raise UsageError(f"unknown mutation {mutate!r}")
    hphi = apply_op(op, phi)
    tau = fit(hphi, [dphi], [n for n in reg.names if n != "t"])
    return {
        "ok": tau is not None and tau[0] == N,
        "family": J,
        "N": N,
        "m": m,
        "hbar": hbar,
        "time_factor": None if tau is None else tau[0].to_str(),
        "params": params,
        "wave": wave,
    }
