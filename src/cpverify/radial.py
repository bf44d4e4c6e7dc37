"""Radial (eigenvalue-variable) reduction cross-checks.

The matrix side applies conjugation-invariant trace-word operators exactly to
invariant wave functions at rational matrix points, using order-2 jets in the
matrix entries (the operators are at most quadratic in the momenta, so a
second-order Taylor germ suffices and every value stays an exact rational).
A jet is a dense vector of integer coefficients over one integer
denominator; only the final value becomes a Fraction.  The wave function's
jet takes the trace powers only as far as it uses them, and the words of one
operator apply the suffixes they share once.
The radial side builds the printed eigenvalue Hamiltonians at the point
itself, the eigenvalues Z and t, with the one operator builder of
:mod:`diffop` over the rationals, and applies those numbers to the same jets
taken in the N eigenvalues, T_j = sum_rho (z_rho + x_rho)^j: one composition
of f over the trace jets serves both sides.  A fitting resolver pins down
any discrepancy as an explicit low-degree correction and re-verifies
exactly, or fails with the reason when none fits.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from . import families
from .diffop import DiffOp, _cleared, _conjugate, calogero_op, zvars
from .errors import DegeneratePointError, UsageError
from .exact import MPoly, RatFun, Registry, as_rat, solve_linear

TRACE_REG = Registry(tuple(f"T{j}" for j in range(1, 7)))

# ---------------------------------------------------------------------------
# Order-2 jets in the N^2 matrix-entry perturbations
# ---------------------------------------------------------------------------

_TABLES: dict = {}


def _tables(n: int):
    """(length, product table, derivative table) of the order-2 jets in n variables.

    A jet's coefficients sit at [c0, c1[0..n), c2[i<=j]].  The product table
    maps the positions of two coefficients of order <= 1 to that of their
    product: 0 and k to k, 1+i and 1+j to c2[min(i,j), max(i,j)]; the
    derivative table lists, per variable v, the (target, source, factor)
    moves of d/dx_v.
    """
    tab = _TABLES.get(n)
    if tab is None:
        pos = [[i + j if i * j == 0 else 0 for j in range(n + 1)] for i in range(n + 1)]
        k = 1 + n
        for i in range(n):
            for j in range(i, n):
                pos[1 + i][1 + j] = pos[1 + j][1 + i] = k
                k += 1
        deriv = [[(1 + i, pos[1 + v][1 + i], 2 if i == v else 1) for i in range(n)] for v in range(n)]
        tab = _TABLES[n] = (k, pos, deriv)
    return tab


class Jet:
    """Polynomial of degree <= 2 in n entry perturbations, ``v / d``.

    ``v`` holds the integer coefficients in the dense layout of
    :func:`_tables` and ``d`` is their one positive integer denominator.
    """

    __slots__ = ("n", "v", "d")

    def __init__(self, n, v=None, d=1):
        self.n = n
        self.v = [0] * _tables(n)[0] if v is None else v
        self.d = d

    @classmethod
    def const(cls, n, c):
        c = Fraction(c)
        v = [0] * _tables(n)[0]
        v[0] = c.numerator
        return cls(n, v, c.denominator)

    @classmethod
    def var(cls, n, i):
        v = [0] * _tables(n)[0]
        v[1 + i] = 1
        return cls(n, v)

    def __add__(self, other):
        da, db = self.d, other.d
        if da == db:
            return Jet(self.n, [x + y for x, y in zip(self.v, other.v)], da)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return Jet(self.n, [x * ma + y * mb for x, y in zip(self.v, other.v)], da * ma)

    def scale(self, c):
        c = Fraction(c)
        return Jet(self.n, [x * c.numerator for x in self.v], self.d * c.denominator)

    def __mul__(self, other):
        n = self.n
        a, b = self.v, other.v
        a0, b0 = a[0], b[0]
        out = [a0 * y + x * b0 for x, y in zip(a, b)]
        out[0] = a0 * b0
        pos = _tables(n)[1]
        for i in range(1, n + 1):
            x = a[i]
            if x:
                row = pos[i]
                for j in range(1, n + 1):
                    y = b[j]
                    if y:
                        out[row[j]] += x * y
        return Jet(n, out, self.d * other.d)

    def pow(self, k: int):
        """self ** k for k >= 1."""
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def deriv(self, var: int) -> "Jet":
        """d/dx_var; the result is exact through first order (its c2 is zero)."""
        a = self.v
        size, _, deriv = _tables(self.n)
        out = [0] * size
        out[0] = a[1 + var]
        for target, source, factor in deriv[var]:
            out[target] = factor * a[source]
        return Jet(self.n, out, self.d)

    def value(self) -> Fraction:
        return Fraction(self.v[0], self.d)


def _jsum(jets):
    return reduce(operator.add, jets)


def _qe_mul(pt, m):
    """(Q + E) m at the point pt, each column over one denominator: Q scales,
    and E_is times m_sj moves its coefficients up one order (the jet keeps two)."""
    N, qn, qd = pt.N, pt.qn, pt.qd
    pos = _tables(N * N)[1]
    out = [[None] * N for _ in range(N)]
    for j in range(N):
        d = lcm(*(m[s][j].d for s in range(N)))
        col = [[x * (d // m[s][j].d) for x in m[s][j].v] for s in range(N)]
        for i in range(N):
            acc = [0] * len(col[0])
            for s, (q, w) in enumerate(zip(qn[i], col)):
                if q:
                    acc = [a + q * x for a, x in zip(acc, w)]
                for p, x in zip(pos[1 + i * N + s], w):
                    acc[p] += qd * x
            out[i][j] = Jet(N * N, acc, qd * d)
    return out


# ---------------------------------------------------------------------------
# Rational matrix points
# ---------------------------------------------------------------------------


@dataclass
class RationalMatrixPoint:
    """Q = G Z G^{-1} with rational distinct eigenvalues Z and invertible G.

    ``qn / qd`` is Q over one integer denominator, built once per point for
    every word applied there.
    """

    Z: list
    G: list
    Q: list = field(init=False)
    qn: list = field(init=False, repr=False, compare=False)
    qd: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.Z)
        if len(set(self.Z)) != n:
            raise DegeneratePointError(f"eigenvalues collide: {self.Z}")
        # the columns of G^{-1}; a singular G raises UsageError
        ginv = [solve_linear(self.G, [int(i == j) for i in range(n)]) for j in range(n)]
        gz = [[self.G[i][j] * self.Z[j] for j in range(n)] for i in range(n)]
        self.Q = [
            [sum(gz[i][s] * ginv[j][s] for s in range(n)) for j in range(n)] for i in range(n)
        ]
        self.qd = lcm(*(x.denominator for row in self.Q for x in row))
        self.qn = [[x.numerator * (self.qd // x.denominator) for x in row] for row in self.Q]

    @property
    def N(self):
        return len(self.Z)

    @classmethod
    def random(cls, N: int, rng: random.Random):
        while True:
            z = []
            while len(z) < N:
                c = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                if c not in z:
                    z.append(c)
            g = [[Fraction(rng.randint(-3, 3)) for _ in range(N)] for _ in range(N)]
            try:
                return cls(z, g)
            except UsageError:
                continue


def random_trace_polynomial(rng: random.Random, max_power=3, max_degree=3, terms=3) -> MPoly:
    """Random invariant wave function f(T_1, ..., T_maxpower), degree <= max_degree."""
    out = TRACE_REG.zero()
    for _ in range(terms):
        exps = [0] * len(TRACE_REG.names)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(max_power)] += 1
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        out = out + MPoly(TRACE_REG, {tuple(exps): coeff})
    return out


# ---------------------------------------------------------------------------
# Matrix-side operator application
# ---------------------------------------------------------------------------


def _f_jet(f: MPoly, n: int, base, step, trace) -> Jet:
    """f(T_1, T_2, ...) as a jet in n variables: T_j = trace(base^j), ``step`` multiplying a power by base."""
    top = max((i + 1 for e in f.terms for i, k in enumerate(e) if k), default=0)
    traces, cur = {}, base
    for j in range(1, top + 1):
        cur = cur if j == 1 else step(cur)
        traces[j] = trace(cur)
    psi = Jet(n)
    for e, c in f.terms.items():
        term = Jet.const(n, c)
        for idx, k in enumerate(e):
            if k:
                term = term * traces[idx + 1].pow(k)
        psi = psi + term
    return psi


def _psi_jet(pt: RationalMatrixPoint, f: MPoly) -> Jet:
    """f at Q + E, in the N^2 entries of E: T_j = Tr((Q + E)^j)."""
    N = pt.N
    one = [[Jet.const(N * N, int(a == b)) for b in range(N)] for a in range(N)]
    return _f_jet(f, N * N, _qe_mul(pt, one), lambda cur: _qe_mul(pt, cur), lambda m: _jsum([m[i][i] for i in range(N)]))


def z_jet(zs: list, f: MPoly) -> Jet:
    """f at the eigenvalues zs + x, in the N variables x: T_j = sum_rho (z_rho + x_rho)^j."""
    n = len(zs)
    base = [Jet.const(n, z) + Jet.var(n, rho) for rho, z in enumerate(zs)]
    return _f_jet(f, n, base, lambda cur: [x * y for x, y in zip(cur, base)], _jsum)


def apply_trace_word(pt: RationalMatrixPoint, word: str, psi: Jet, hbar, states: dict) -> Jet:
    """Tr(word) acting on the jet of an invariant function; word like 'qpqpq'.

    q multiplies by the matrix jet, p_{ac} acts as hbar d/dE_{ca}; the trace
    contracts the outer indices.  The result is exact through the surviving
    jet order (two momenta at most).  ``states`` maps each word suffix applied
    to this psi to its matrix of jets; the words of one operator share it.
    """
    hb = as_rat(hbar)
    N = pt.N
    if word.count("p") > 2:
        raise UsageError("operators of momentum degree > 2 are unsupported")
    tails = states.setdefault("", [[psi if a == b else Jet(N * N) for b in range(N)] for a in range(N)])
    for i in reversed(range(len(word))):
        if word[i:] in states:
            tails = states[word[i:]]
        elif word[i] == "q":
            tails = states[word[i:]] = _qe_mul(pt, tails)
        elif word[i] == "p":
            tails = states[word[i:]] = [
                [_jsum([tails[c][b].deriv(c * N + a) for c in range(N)]).scale(hb) for b in range(N)]
                for a in range(N)
            ]
        else:
            raise UsageError(f"bad letter {word[i]!r} in trace word")
    return _jsum([tails[a][a] for a in range(N)])


def apply_matrix_operator(pt: RationalMatrixPoint, spec, f: MPoly, hbar) -> Fraction:
    """Value at the point of a linear combination of trace-word operators.

    ``spec`` is a list of (coefficient, word) pairs; a word is one trace
    like 'qpq', of momentum degree <= 2, or '' for the scalar term.
    """
    psi = _psi_jet(pt, f)
    states: dict = {}
    total = Fraction(0)
    for coeff, word in spec:
        total += as_rat(coeff) * (apply_trace_word(pt, word, psi, hbar, states) if word else psi).value()
    return total


def hamiltonian_trace_spec(J: str, N: int, t, **params) -> list:
    """Trace-word expansion of the printed quantum Hamiltonians (cleared forms).

    Families III, V are returned times t and VI times t(t-1), matching the
    printed displays; the caller divides values accordingly.  The scalar
    word '' carries Tr(Id) = N.
    """
    fam = families.family(J)
    p = families.read_params(params, fam.radial_keys)
    return [(Fraction(c) * N if not word else Fraction(c), word) for c, word in fam.hamiltonian(as_rat(t), p)]


# ---------------------------------------------------------------------------
# Printed radial Hamiltonians
# ---------------------------------------------------------------------------


def build_radial_hamiltonian(zs, t, J: str, hbar, kappa, corrections=None, **params) -> DiffOp:
    """The printed eigenvalue Hamiltonians (family 'II' is the gauged form, 'II_pre' the pre-gauge one).

    ``zs`` and ``t`` are the polynomial generators (:func:`diffop.symbols`)
    for the operator over RatFuns, or rationals for its value at that point.
    ``corrections`` optionally carries engine-fitted correction data (see
    :func:`resolve_radial_corrections`): ``first_order[k]`` adds to the
    z^k d_rho coefficient, ``sum_z`` to the z_rho term and ``scalar`` to the
    constant, each (c0, c1) meaning c0 + c1 t, inside the printed clearing factor.
    """
    fam = families.family("II" if J == "II_pre" else J)
    form = fam.radial_pre if J == "II_pre" else fam.radial
    hb = as_rat(hbar)
    kk = as_rat(kappa) * (as_rat(kappa) + 1)
    first, zeroth, const = form(t, hb, len(zs), kk, families.read_params(params, fam.radial_keys))
    if corrections is not None:
        fitted = [a0 + t * a1 for a0, a1 in corrections["first_order"]]
        first = [x + y for x, y in itertools.zip_longest(first, fitted, fillvalue=0)]
        e0, e1 = corrections["sum_z"]
        zeroth = [x + y for x, y in itertools.zip_longest(zeroth, (0, e0 + t * e1), fillvalue=0)]
        s0, s1 = corrections["scalar"]
        const = const + s0 + t * s1
    op = calogero_op(zs, fam.sigma(t), hb * hb, hb * hb, -hb * hb * kk * Fraction(1, 2), first, zeroth, const)
    return _cleared(op, fam, t)


# ---------------------------------------------------------------------------
# Matrix vs radial comparison
# ---------------------------------------------------------------------------


def radial_value(op: DiffOp, jet: Jet) -> Fraction:
    """An operator built at the eigenvalues applied to the z-jet of f there (see :func:`z_jet`)."""
    acc = op.C * jet.value()
    for rho in range(op.N):
        d1 = jet.deriv(rho)
        acc += op.B[rho] * d1.value() + op.A[rho] * d1.deriv(rho).value()
    return acc


def _matrix_form(fam) -> str:
    """The radial form the matrix quantization reduces to: the pre-gauge one where the family has one."""
    return f"{fam.name}_pre" if fam.radial_pre else fam.name


def verify_radial_match(J: str, N: int, forms, seed: int, hbar=Fraction(1, 2)):
    """Exact matrix-vs-radial equality at random rational points (kappa = 0).

    For family II the matrix quantization reduces to the pre-gauge radial
    form; the gauged form is reached separately through the scalar gauge.
    ``forms``, a list of (corrections, trials), compares each radial form
    (``corrections`` None for the printed one) against one matrix side at
    the first ``trials`` points of the seed; returns one report per form.
    """
    rng = random.Random(seed)
    fam = families.family(J)
    radial_fam = _matrix_form(fam)
    reports = [{"ok": True, "trials": n, "mismatches": []} for _, n in forms]
    for trial in range(max(n for _, n in forms)):
        params = fam.random_thetas(rng)
        t_point = Fraction(rng.randint(1, 9), rng.randint(1, 4)) + 1  # keep t, t-1 nonzero
        pt = RationalMatrixPoint.random(N, rng)
        f = random_trace_polynomial(rng)
        lhs = apply_matrix_operator(pt, hamiltonian_trace_spec(J, N, t_point, **params), f, hbar)
        jet = z_jet(pt.Z, f)
        for (corr, n), rep in zip(forms, reports):
            if trial >= n:
                continue
            op = build_radial_hamiltonian(pt.Z, t_point, radial_fam, hbar, 0, corrections=corr, **params)
            rhs = radial_value(op, jet) * fam.prefactor(t_point)
            if lhs != rhs:
                rep["ok"] = False
                rep["mismatches"].append(
                    {"trial": trial, "params": params, "t": t_point, "Z": pt.Z, "matrix": lhs, "radial": rhs}
                )
    return reports


def qkp2_radial_op(zs, k: int, hbar, kappa) -> DiffOp:
    """Printed radial image of Tr(q^k p^2) (the worked reduction), kappa general.

    ``zs`` is as in :func:`build_radial_hamiltonian`.  The image's own terms are
    hbar^2 (k z_rho^{k-1} - Sum_{j<k} p_j z_rho^{k-1-j}) d_rho, p_j = Sum_sigma z_sigma^j;
    Sum_{rho != sigma} z_rho^k/(z_rho - z_sigma)^2 is half the pair potential.
    """
    h2 = as_rat(hbar) ** 2
    kk = as_rat(kappa) * (as_rat(kappa) + 1)
    first = [-h2 * sum(z ** (k - 1 - i) for z in zs) for i in range(k)]
    if k >= 1:
        first[k - 1] += h2 * k
    return calogero_op(zs, tuple(1 if j == k else 0 for j in range(k + 1)), h2, h2, -h2 * kk / 2, first)


def verify_qkp2(N: int, kmax: int, trials: int, seed: int, hbar=Fraction(1, 3)):
    """Worked-example check: Tr(q^k p^2) matrix action equals the printed radial form."""
    rng = random.Random(seed)
    bad = []
    for k in range(kmax + 1):
        for _ in range(trials):
            pt = RationalMatrixPoint.random(N, rng)
            f = random_trace_polynomial(rng)
            lhs = apply_matrix_operator(pt, [(Fraction(1), "q" * k + "pp")], f, hbar)
            rhs = radial_value(qkp2_radial_op(pt.Z, k, hbar, 0), z_jet(pt.Z, f))
            if lhs != rhs:
                bad.append({"k": k, "Z": pt.Z, "matrix": lhs, "radial": rhs})
    return {"ok": not bad, "mismatches": bad}


# ---------------------------------------------------------------------------
# Correction resolver
# ---------------------------------------------------------------------------


def resolve_radial_corrections(J: str, N: int, hbar, seed: int = 7):
    """Fit the discrepancy between the matrix operator and the printed radial
    form as (t-linear) first-order corrections per z-power plus a zeroth part,
    then re-verify exact equality with the corrected operator.

    Returns (corrections, report).  All-zero corrections mean the printed form
    is already exact.  A discrepancy no correction of that shape fits gives
    None, with ``verified`` False and the ``reason``.
    """
    rng = random.Random(seed)
    hb = as_rat(hbar)
    fam = families.family(J)
    radial_fam = _matrix_form(fam)
    params = fam.random_thetas(rng)
    nalpha = 4  # first-order correction ansatz: powers z^0..z^3
    unknowns = 2 * nalpha + 4  # (a_k0, a_k1)_k, s0, s1, e0, e1
    rows, rhs = [], []
    probes = [TRACE_REG.one()] + [TRACE_REG.var(f"T{j}") for j in (1, 2, 3)]
    while len(rows) < 3 * unknowns:
        t_point = Fraction(rng.randint(2, 9), rng.randint(1, 3)) + 1
        pt = RationalMatrixPoint.random(N, rng)
        t_val = fam.prefactor(t_point)
        spec = hamiltonian_trace_spec(J, N, t_point, **params)
        op_printed = build_radial_hamiltonian(pt.Z, t_point, radial_fam, hb, 0, **params)
        for f in probes:
            jet = z_jet(pt.Z, f)
            # = the correction applied (inside clearing)
            rhs.append(apply_matrix_operator(pt, spec, f, hb) - radial_value(op_printed, jet) * t_val)
            fval = jet.value()
            row = []
            for k in range(nalpha):
                base = sum(z**k * jet.deriv(rho).value() for rho, z in enumerate(pt.Z))
                row.extend([base, base * t_point])
            sz = sum(pt.Z)
            row.extend([fval, fval * t_point, fval * sz, fval * sz * t_point])
            rows.append(row)
    try:
        sol = solve_linear(rows, rhs)
    except UsageError as exc:
        reason = f"the matrix-radial gap is no first-order correction of the fitted shape ({exc})"
        return None, {"printed_exact": False, "verified": False, "family": J, "N": N, "reason": reason}
    corr = {
        "first_order": [(sol[2 * k], sol[2 * k + 1]) for k in range(nalpha)],
        "scalar": (sol[2 * nalpha], sol[2 * nalpha + 1]),
        "sum_z": (sol[2 * nalpha + 2], sol[2 * nalpha + 3]),
    }
    is_zero = all(x == 0 for x in sol)
    [check] = verify_radial_match(J, N, [(None if is_zero else corr, 6)], seed + 1, hbar=hb)
    reason = None if check["ok"] else "the fitted correction fails at fresh points"
    return corr, {"printed_exact": is_zero, "verified": check["ok"], "family": J, "N": N, "reason": reason}


# ---------------------------------------------------------------------------
# Scalar gauge conjugation
# ---------------------------------------------------------------------------


def gauge_scalar_conjugate(op: DiffOp, S: MPoly, hbar) -> DiffOp:
    """e^{S/hbar} op e^{-S/hbar} + dS/dt  via d_rho -> d_rho - (d_rho S)/hbar."""
    hb = as_rat(hbar)
    out = _conjugate(op, [RatFun.from_mpoly(S.partial(zn)) * (-1 / hb) for zn in zvars(op.reg)[: op.N]])
    out.C += RatFun.from_mpoly(S.partial("t"))
    return out
