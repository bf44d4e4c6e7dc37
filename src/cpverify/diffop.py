"""Second-order differential operators on symmetric functions of z_1..z_N.

A :class:`DiffOp` stores per-variable second- and first-order coefficients and
a zeroth-order coefficient, all in one field: exact rational functions of
(z_1..z_N, t), with every parameter (including hbar) evaluated at rationals,
or the rational values of those functions at one point.  The one builder,
:func:`calogero_op`, serves both: it takes the z and the family's
coefficients in a polynomial ring (the MPoly generators, or rationals at a
point) and builds every printed operator.  It forms the part they share from
the family's sigma(z) (the divided differences and the pair potential,
summed over ordered pairs rho != sigma, Sum_{rho<sigma} forms converted on
construction, and the second-order terms), then the operator's own first-
and zeroth-order terms, which the family table states.  One conjugation
rule, d_rho -> d_rho + g_rho, serves both the Vandermonde gauge Delta^R and
the scalar gauge e^{S/hbar}.  It sums each new coefficient once over its
known denominator (each z_rho - z_sigma to its largest power, times a factor
in t) instead of cross-multiplying denominators addend by addend.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import DomainError, ExactDivisionError, UsageError
from .exact import MPoly, RatFun, Registry, _univariate_cancel, as_rat, as_ratfun, exact_div, fit, session_registry
from .families import read_params, weighted


def zvars(reg: Registry):
    return [n for n in reg.names if n.startswith("z") and n[1:].isdigit()]


def symbols(reg: Registry, N: int):
    """The builders' symbolic arguments: the generators z_1..z_N and t of ``reg``."""
    return [reg.var(zn) for zn in zvars(reg)[:N]], reg.var("t")


def _lift(x):
    """A polynomial-ring element in its field: an MPoly as a RatFun, a rational as itself."""
    return RatFun.from_mpoly(x) if isinstance(x, MPoly) else x


def _poly_at(f, z):
    """Sum_k f[k] z^k, in the polynomial ring of z."""
    return sum((c * z**k for k, c in enumerate(f)), 0 * z)


def power_sum(reg: Registry, N: int, j: int) -> RatFun:
    """Sum_rho z_rho^j over the first N z-variables, made a RatFun once."""
    return _lift(sum(z**j for z in symbols(reg, N)[0]))


class DiffOp:
    """Sum_rho A_rho d^2_rho + Sum_rho B_rho d_rho + C, every coefficient in one field."""

    __slots__ = ("A", "B", "C")

    def __init__(self, A, B, C):
        self.A = list(A)
        self.B = list(B)
        self.C = C

    @property
    def N(self) -> int:
        return len(self.A)

    @property
    def reg(self) -> Registry:
        """The registry of a symbolic operator's RatFun coefficients."""
        return self.C.reg

    def __add__(self, other: "DiffOp") -> "DiffOp":
        if self.N != other.N:
            raise UsageError("operator size mismatch")
        return DiffOp(
            [a + b for a, b in zip(self.A, other.A)],
            [a + b for a, b in zip(self.B, other.B)],
            self.C + other.C,
        )

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + other.scale(-1)

    def scale(self, c) -> "DiffOp":
        return DiffOp([a * c for a in self.A], [b * c for b in self.B], self.C * c)

    def subs(self, values: dict) -> "DiffOp":
        return DiffOp([a.subs(values) for a in self.A], [b.subs(values) for b in self.B], self.C.subs(values))

    def time_reflected(self) -> "DiffOp":
        """-H(z, -t): the Hamiltonian governing the flow after t -> -t."""
        t = self.reg.var("t")
        return self.subs({"t": -t}).scale(-1)

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.A) and all(b.is_zero() for b in self.B) and self.C.is_zero()


def operator_equal(a: DiffOp, b: DiffOp) -> bool:
    if a.N != b.N:
        raise UsageError("operator size mismatch")
    return (
        all(x.equal(y) for x, y in zip(a.A, b.A))
        and all(x.equal(y) for x, y in zip(a.B, b.B))
        and a.C.equal(b.C)
    )


def apply_op(op: DiffOp, f) -> RatFun:
    """Apply the operator to a polynomial (MPoly or polynomial RatFun).

    The input must be symmetric in the z-variables.
    """
    phi = as_ratfun(f, op.reg)
    zs = zvars(op.reg)[: op.N]
    for i in range(op.N - 1):
        swap = {zs[i]: zs[i + 1], zs[i + 1]: zs[i]}
        if not RatFun(phi.num.permute_vars(swap), phi.den.permute_vars(swap)).equal(phi):
            raise DomainError("input is not symmetric in the z-variables")
    acc = op.C * phi
    for rho, zn in enumerate(zs):
        d1 = phi.deriv(zn)
        acc = acc + op.B[rho] * d1 + op.A[rho] * d1.deriv(zn)
    return acc


# ---------------------------------------------------------------------------
# Printed operator families
# ---------------------------------------------------------------------------


def calogero_op(zs, f, second, dd, pot=0, first=(), zeroth=(), const=0) -> DiffOp:
    """A printed operator: the Calogero part from sigma(z) = Sum_k f[k] z^k, then its own terms.

    In order: dd Sum_{rho != sigma} (sigma(z_rho) d_rho - sigma(z_sigma) d_sigma)/(z_rho - z_sigma),
    then pot Sum_{rho != sigma} (sigma(z_rho) + sigma(z_sigma))/(z_rho - z_sigma)^2 (none at
    pot = 0), then second sigma(z_rho) d^2_rho per rho.  After these come the
    operator's own terms: Sum_k first[k] z_rho^k d_rho per rho, and
    Sum_rho Sum_k zeroth[k] z_rho^k + const, added to C as one polynomial.
    ``zs`` and the coefficients of f, first, zeroth and const lie in one
    polynomial ring: the MPoly generators give the operator over RatFuns
    (:func:`symbols`), rationals its value at that point.  The polynomial
    parts are formed in the ring and lifted to its field once.
    """
    N = len(zs)
    sig = [_lift(_poly_at(f, z)) for z in zs]
    x = [_lift(z) for z in zs]
    zero = _lift(0 * zs[0])
    A, B, C = [zero] * N, [zero] * N, zero
    for rho, sigma in itertools.permutations(range(N), 2):
        inv = 1 / (x[rho] - x[sigma])
        B[rho] += dd * sig[rho] * inv
        B[sigma] -= dd * sig[sigma] * inv
    if pot != 0:
        for rho, sigma in itertools.permutations(range(N), 2):
            C += pot * (sig[rho] + sig[sigma]) * (1 / (x[rho] - x[sigma])) ** 2
    own = const
    for rho, z in enumerate(zs):
        A[rho] += second * sig[rho]
        B[rho] += _lift(_poly_at(first, z))
        own += _poly_at(zeroth, z)
    return DiffOp(A, B, C + _lift(own))


def build_cp_hamiltonian(reg: Registry, J: str, N: int, m: int, hbar, **params) -> DiffOp:
    """The multi-particle Hamiltonians solved by the beta-integral ansatz.

    Returns H_J itself (printed t / t(t-1) prefactors divided out).
    """
    fam = weighted(J)
    hb = as_rat(hbar)
    zs, t = symbols(reg, N)
    first, zeroth, const = fam.cp(t, hb, N, m, read_params(params, fam.cp_keys))
    return _cleared(calogero_op(zs, fam.sigma(t), hb * hb, hb, 0, first, zeroth, const), fam, t)


def build_nagoya_single(reg: Registry, J: str, hbar, **params) -> DiffOp:
    """Printed single-particle Hamiltonians (N = 1)."""
    fam = weighted(J)
    hb = as_rat(hbar)
    zs, t = symbols(reg, 1)
    first, zeroth, const = fam.nagoya(t, hb, read_params(params, dict.fromkeys(("a", *fam.cp_keys))))
    return _cleared(calogero_op(zs, fam.sigma(t), hb * hb, hb, 0, first, zeroth, const), fam, t)


def _cleared(op: DiffOp, fam, t) -> DiffOp:
    """``op`` with the family's printed prefactor (1, t or t(t-1)) divided out."""
    prefactor = fam.prefactor(t)
    return op if prefactor == 1 else op.scale(1 / _lift(prefactor))


# ---------------------------------------------------------------------------
# Vandermonde conjugation and the gauge theorems
# ---------------------------------------------------------------------------


def _w(reg: Registry, zs, rho: int) -> RatFun:
    z = RatFun.var(reg, zs[rho])
    acc = RatFun.const(reg, 0)
    for sigma, zn in enumerate(zs):
        if sigma != rho:
            acc = acc + 1 / (z - RatFun.var(reg, zn))
    return acc


def _conjugate(op: DiffOp, g: list) -> DiffOp:
    """op after d_rho -> d_rho + g[rho]: the conjugation by a function whose
    logarithmic z_rho-derivative is g[rho].  B_rho gains A_rho 2 g_rho and C
    gains A_rho (g_rho^2 + g_rho') + B_rho g_rho, each new coefficient as one
    sum over its known denominator."""
    zs = zvars(op.reg)[: op.N]
    pairs = [op.reg.var(a) - op.reg.var(b) for a, b in itertools.combinations(zs, 2)]
    B = [_known_den_sum(op.reg, pairs, [b, a * 2 * gr]) for a, b, gr in zip(op.A, op.B, g)]
    C = [op.C] + [x for a, b, gr, zn in zip(op.A, op.B, g, zs) for x in (a * (gr * gr + gr.deriv(zn)), b * gr)]
    return DiffOp(op.A, B, _known_den_sum(op.reg, pairs, C))


def _known_den_sum(reg: Registry, pairs: list, addends: list) -> RatFun:
    """The sum of RatFuns whose denominators are Prod (z_rho - z_sigma)^k times a factor in t
    alone, over their lcm: each pair difference to its largest power, times the lcm of the
    t factors.  A denominator of another shape raises ``ExactDivisionError``."""
    addends = [x for x in addends if not x.is_zero()]
    powers, ct = [0] * len(pairs), reg.one()
    for x in addends:
        rest = x.den
        for i, p in enumerate(pairs):
            k = 0
            try:
                while True:
                    rest, k = exact_div(rest, p), k + 1
            except ExactDivisionError:
                powers[i] = max(powers[i], k)
        if any(e[reg.index["t"]] != sum(e) for e in rest.terms):
            raise ExactDivisionError(f"denominator factor {rest.to_str()} is neither a pair difference nor in t alone")
        ct = ct * _univariate_cancel(ct, rest)[1]
    den = math.prod((p**k for p, k in zip(pairs, powers)), start=ct)
    return RatFun(sum((x.num * exact_div(den, x.den) for x in addends), reg.zero()), den)


def conjugate_by_vandermonde(op: DiffOp, R) -> DiffOp:
    """Delta^{-R} op Delta^{R} via d_rho -> d_rho + R w_rho, w_rho = Sum 1/(z_rho - z_sigma)."""
    R = as_rat(R)
    if R == 0:
        return op
    zs = zvars(op.reg)[: op.N]
    return _conjugate(op, [R * _w(op.reg, zs, rho) for rho in range(op.N)])


def build_gauge_pair(reg: Registry, N: int, a: int, hbar, kappa):
    """The two operator sequences of the power-a gauge identity, plus the
    printed correction term (returned separately as a zeroth-order RatFun)."""
    if a not in (0, 1, 2, 3):
        raise UsageError("gauge identity covers powers a = 0..3")
    hb = as_rat(hbar)
    kk = as_rat(kappa) * (as_rat(kappa) + 1)
    f = tuple(1 if k == a else 0 for k in range(a + 1))
    # 2 hbar Sum_{rho<sigma} == hbar Sum_{rho != sigma}
    zs = symbols(reg, N)[0]
    h_op = calogero_op(zs, f, hb * hb, hb)
    ht_base = calogero_op(zs, f, hb * hb, hb * hb, -hb * hb * kk * Fraction(1, 2))
    if a in (0, 1):
        printed = RatFun.const(reg, 0)
    elif a == 2:
        printed = RatFun.const(reg, Fraction(N * (N - 1) * (N - 2), 3))
    else:
        printed = Fraction((N - 1) * (N - 2)) * power_sum(reg, N, 1)
    return h_op, ht_base, printed


def theorem_gauge_check(N: int, a: int, hbar, kappa):
    """Verify H_a = Delta^{-R} (Ht_base + correction) Delta^R with R = 1/hbar - 1.

    Solves the scalar prefactor lam multiplying the printed correction that
    makes the identity exact; lam = 1 means the correction holds as printed.
    Returns a dict with status, lam and the derivative-order residual flags.
    """
    hb = as_rat(hbar)
    if hb == 0:
        raise UsageError("hbar must be nonzero")
    reg = session_registry(N)
    R = 1 / hb - 1
    h_op, ht_base, printed = build_gauge_pair(reg, N, a, hb, kappa)
    conj = conjugate_by_vandermonde(ht_base, R)
    diff = h_op - conj
    orders_ok = all(x.is_zero() for x in diff.A) and all(x.is_zero() for x in diff.B)
    # required correction: conj(ht_base) + diff.C == h_op; with nothing
    # printed, nothing may be needed, and the identity holds as printed
    c = fit(diff.C, [] if printed.is_zero() else [printed], reg.names)
    lam = None if c is None else c[0] if c else Fraction(1)
    if not orders_ok or lam is None:
        status = "fail"
    else:
        status = "pass" if lam == 1 else "resolved-with-correction"
    return {"status": status, "lambda": lam, "orders_ok": orders_ok, "scalar_ok": lam is not None}


# ---------------------------------------------------------------------------
# Parameter correspondence table
# ---------------------------------------------------------------------------


def table_params(J: str, hbar, mode: str, m: int, N: int, **family) -> dict:
    """Printed parameter maps between the two Hamiltonian families.

    mode 'ungauged' is the direct identification (requires hbar = 1, kappa = 0);
    mode 'gauged' is the Vandermonde-conjugated one with kappa in
    {1/hbar - 1, -1/hbar}.  For family VI only k^2 is returned (the printed k
    is a square root whose sign never enters).
    """
    hb = as_rat(hbar)
    fam = weighted(J)
    if mode not in ("ungauged", "gauged"):
        raise UsageError("mode must be 'ungauged' or 'gauged'")
    if mode == "ungauged" and hb != 1:
        raise UsageError("the ungauged identification requires hbar = 1")
    if hb == 0:
        raise UsageError("hbar must be nonzero")
    if N > 4:  # the matrix algebra's own bound; the exact identification grows fast past it
        raise UsageError(f"matrix size N must be at most 4, got {N}")
    out: dict = {"kappa_choices": (Fraction(0),) if mode == "ungauged" else (1 / hb - 1, -1 / hb)}
    if mode == "gauged":
        out["R"] = 1 / hb - 1
    out.update(fam.table(hb, m, N, mode == "gauged", read_params(family, fam.cp_keys)))
    return out
