"""Exact verification of the integral ansatz via one-dimensional moments.

For positive integer hbar the coupling factor in the ansatz is a polynomial,
the multi-fold integrals factorize over a common contour, and every
expectation value is a polynomial in the 1-D moments nu_k = int u^k Theta du
(family VI also meets rho_k = int u^k (t-u)^{-1} Theta du).  Total-derivative
(divergence) identities generate linear relations among the moments; this
module derives those relations from the master-function data itself, reduces
everything to the seed moments nu_0, nu_1, and checks the Schroedinger
equation as an exact polynomial identity in z and the seeds with rational
functions of t as coefficients.

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


class MomentExpr:
    """Linear combination of products of moment symbols, RatFun(t) coefficients.

    A symbol is ('nu', k) or ('rho', k); a product key is a sorted tuple of
    symbols; the empty tuple is the constant term.
    """

    __slots__ = ("reg", "terms")

    def __init__(self, reg: Registry, terms: dict | None = None):
        self.reg = reg
        self.terms = {k: v for k, v in (terms or {}).items() if not v.is_zero()}

    @classmethod
    def symbol(cls, reg, kind: str, k: int, coeff=1):
        return cls(reg, {((kind, k),): as_ratfun(coeff, reg)})

    @classmethod
    def const(cls, reg, c):
        return cls(reg, {(): as_ratfun(c, reg)})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k)
            s = v if s is None else s + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return MomentExpr(self.reg, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = as_ratfun(c, self.reg)
        return MomentExpr(self.reg, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        out: dict = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                key = tuple(sorted(k1 + k2))
                prod = v1 * v2
                s = out.get(key)
                out[key] = prod if s is None else s + prod
        return MomentExpr(self.reg, out)

    def is_zero(self):
        return not self.terms

    def symbols(self):
        return {s for key in self.terms for s in key}

    def substitute(self, sym, replacement: "MomentExpr") -> "MomentExpr":
        """Replace occurrences of sym one power per pass, until none remain."""
        cur = self
        while True:
            out = MomentExpr(self.reg)
            hit = False
            for key, coeff in cur.terms.items():
                if sym in key:
                    hit = True
                    rest = list(key)
                    rest.remove(sym)
                    out = out + MomentExpr(self.reg, {tuple(rest): coeff}) * replacement
                else:
                    out = out + MomentExpr(self.reg, {key: coeff})
            cur = out
            if not hit:
                return cur

    def to_ratfun(self, seed_map=None) -> RatFun:
        """Seeds-only expression as a RatFun in (t, nu0, nu1)."""
        reg = self.reg
        if seed_map is None:
            seed_map = {("nu", 0): "nu0", ("nu", 1): "nu1"}
        acc = RatFun.const(reg, 0)
        for key, coeff in self.terms.items():
            mono = RatFun.const(reg, 1)
            for sym in key:
                if sym not in seed_map:
                    raise InternalError(f"non-seed symbol {sym} survived reduction")
                mono = mono * RatFun.var(reg, seed_map[sym])
            acc = acc + coeff * mono
        return acc

    def to_str(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            name = "*".join(f"{kind}{k}" for kind, k in key) or "1"
            parts.append(f"({self.terms[key].to_str()})*{name}")
        return " + ".join(parts)

    __repr__ = to_str


# ---------------------------------------------------------------------------
# Divergence relations and reduction
# ---------------------------------------------------------------------------


def ibp_relation(mf: MasterFunction, n: int) -> MomentExpr:
    """0 = int d/du [u^n clearing(u) Theta(u)] du expanded into nu symbols.

    d/du [u^n c Theta] = (sum_j (n+j) c_j u^{n+j-1} + u^n logd_num) Theta.
    """
    if n < mf.min_n:
        raise UsageError(f"relation index {n} below the admissible minimum {mf.min_n}")
    reg = mf.reg
    coeffs: dict = {}

    def bump(idx, c):
        if idx in coeffs:
            coeffs[idx] = coeffs[idx] + c
        else:
            coeffs[idx] = c

    for j, cj in mf.clearing.items():
        if n + j != 0:
            bump(n + j - 1, cj * Fraction(n + j))
    for j, gj in mf.logd_num.items():
        bump(n + j, gj)
    return MomentExpr(reg, {(("nu", k),): coeff for k, coeff in coeffs.items()})


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


def ibp_relation_partial_vi(mf: MasterFunction, n: int) -> MomentExpr:
    """Family VI divergence with the partial clearing u(1-u): brings in rho_n.

    u(1-u) Theta'/Theta = logd_num(u)/(t-u) = q(u) + r/(t-u) by division.
    """
    if mf.family != "VI":
        raise UsageError("partial clearing applies to family VI only")
    if n < 0:
        raise UsageError("relation index must be nonnegative")
    reg = mf.reg
    t = RatFun.var(reg, "t")
    q, r = _div_by_t_minus_u(mf.logd_num, t, reg)
    coeffs: dict = {}

    def bump(idx, c):
        coeffs[idx] = coeffs.get(idx, RatFun.const(reg, 0)) + c

    # d/du [u^{n+1}(1-u)] = (n+1) u^n - (n+2) u^{n+1}
    bump(n, RatFun.const(reg, n + 1))
    bump(n + 1, RatFun.const(reg, -(n + 2)))
    for j, gj in q.items():
        bump(n + j, gj)
    expr = MomentExpr(reg, {(("nu", k),): coeff for k, coeff in coeffs.items()})
    return expr + MomentExpr.symbol(reg, "rho", n, r)


def rho_reduction(mf: MasterFunction, k: int) -> MomentExpr:
    """rho_k through rho_0 and nu's via u^k = (t-u) q(u) + t^k (division identity)."""
    reg = mf.reg
    t = RatFun.var(reg, "t")
    q, r = _div_by_t_minus_u({k: RatFun.const(reg, 1)}, t, reg)
    expr = MomentExpr.symbol(reg, "rho", 0, r)
    for j, coeff in q.items():
        expr = expr + MomentExpr.symbol(reg, "nu", j, coeff)
    return expr


def _solve_for(rel: MomentExpr, sym) -> MomentExpr:
    coeff = rel.terms.get((sym,))
    if coeff is None or coeff.is_zero():
        raise UsageError(f"relation does not determine {sym} (resonant parameters): {rel.to_str()}")
    rest = MomentExpr(rel.reg, {k: v for k, v in rel.terms.items() if k != (sym,)})
    return rest.scale(RatFun.const(rel.reg, -1) / coeff)


class MomentReducer:
    """Deterministic elimination to a two-moment seed basis.

    Highest nu indices are eliminated through the divergence relation whose
    top index matches; rho symbols collapse to rho_0 by the division identity
    and then to seeds via the partial-clearing relation; family III's nu_{-1}
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
        self._cache: dict = {}
        self.resonant_n = None
        second = ("nu", 1)
        if mf.family == "VI":
            total = sum(mf.params[k] for k in ("a", "b", "c", "d"))
            if total.denominator == 1 and total >= 1:
                self.resonant_n = int(total) - 1
                second = ("nu", self.resonant_n + 2)
        self.seed_map = {("nu", 0): "nu0", second: "nu1"}

    def replacement(self, sym) -> MomentExpr:
        if sym in self._cache:
            return self._cache[sym]
        kind, k = sym
        mf = self.mf
        if kind == "rho":
            if k >= 1:
                repl = rho_reduction(mf, k)
            else:
                repl = _solve_for(ibp_relation_partial_vi(mf, 0), ("rho", 0))
        elif kind == "nu" and k == 1 and self.resonant_n is not None:
            # the resonant relation, reduced to {nu_0, nu_1}, pins nu_1 to nu_0
            rel = ibp_relation(mf, self.resonant_n)
            rel = self._reduce_with(rel, skip=(("nu", 1),))
            repl = _solve_for(rel, ("nu", 1))
        elif k >= 2:
            rel = ibp_relation(mf, k - 2)
            repl = _solve_for(rel, ("nu", k))
        elif k < 0:
            rel = ibp_relation(mf, k)  # lowest index of the relation is n itself
            repl = _solve_for(rel, ("nu", k))
        else:
            raise InternalError(f"{sym} is already a seed")
        self._cache[sym] = repl
        return repl

    def _reducible(self, sym) -> bool:
        if sym in self.seed_map:
            return False
        kind, k = sym
        if kind == "rho" or k >= 2 or k < 0:
            return True
        return k == 1 and self.resonant_n is not None

    def _reduce_with(self, expr: MomentExpr, skip=()) -> MomentExpr:
        guard = 0
        while True:
            pending = [s for s in expr.symbols() if self._reducible(s) and s not in skip]
            if not pending:
                return expr
            pending.sort(key=lambda s: (0 if s[0] == "rho" else 1, -s[1]))
            expr = expr.substitute(pending[0], self.replacement(pending[0]))
            guard += 1
            if guard > 10000:
                raise InternalError("reduction failed to terminate")

    def reduce(self, expr: MomentExpr) -> MomentExpr:
        return self._reduce_with(expr)


def d_dt(expr: MomentExpr, reducer: MomentReducer) -> MomentExpr:
    """Total t-derivative, reduced: product rule over coefficients and symbols."""
    rate, shift, s = reducer.mf.dt_log
    reg = expr.reg
    out = MomentExpr(reg)
    for key, coeff in expr.terms.items():
        out = out + MomentExpr(reg, {key: coeff.deriv("t")})
        for i, sym in enumerate(key):
            if sym[0] != "nu":
                raise UsageError("reduce before differentiating (rho present)")
            new_sym = ("rho" if s else "nu", sym[1] + shift)
            rest = key[:i] + key[i + 1 :]
            out = out + MomentExpr(reg, {tuple(sorted(rest + (new_sym,))): coeff * rate})
    return reducer.reduce(out)


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
    cache: dict = {}
    phi = RatFun.const(reg, 0)
    for exps, coeff in integrand.terms.items():
        powers = tuple(sorted(exps[i] for i in uidx))
        reduced = cache.get(powers)
        if reduced is None:
            me = MomentExpr.const(reg, 1)
            for k in powers:
                me = me * MomentExpr.symbol(reg, "nu", k)
            reduced = reducer.reduce(me).to_ratfun(reducer.seed_map)
            cache[powers] = reduced
        zmono = [0] * len(reg.names)
        for i, name in enumerate(ureg.names):
            if i not in uidx and exps[i]:
                zmono[reg.index[name]] = exps[i]
        phi = phi + RatFun.from_mpoly(MPoly(reg, {tuple(zmono): coeff})) * reduced
    return phi, reducer


def phi_time_derivative(phi: RatFun, reducer: MomentReducer) -> RatFun:
    """d/dt of a seeds-only wave function, treating nu0, nu1 as t-dependent."""
    reg = phi.num.reg
    out = phi.deriv("t")
    for sym, name in reducer.seed_map.items():
        rate = d_dt(MomentExpr.symbol(reg, sym[0], sym[1]), reducer).to_ratfun(reducer.seed_map)
        out = out + phi.deriv(name) * rate
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
