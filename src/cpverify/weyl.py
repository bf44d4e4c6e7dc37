"""Noncommutative algebra over matrix-entry generators p_ij, q_ij.

Three modes share one term representation (word tuple -> commutative
coefficient):

* ``weyl``      -- p_ij q_kl = q_kl p_ij + hbar d_il d_jk; words are kept in
                   normal order (q-letters left of p-letters, each block
                   sorted by (row, col)).
* ``classical`` -- fully commutative letters with the Poisson bracket
                   {p_ab, q_cd} = d_ad d_bc.
* ``free``      -- no relations at all (abstract letters P, Q); coefficients
                   are rational functions, used by the zero-curvature check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import UnsupportedModeError, UsageError
from .exact import MPoly, RatFun, Registry, as_rat
from .params import parse_rational

WEYL_REGISTRY = Registry(("hbar", "t", "th", "th0", "th1", "th2", "tht", "k"))
FREE_REGISTRY = Registry(("zeta", "t", "th0", "th1", "tht", "k"))

FAMILIES = ("I", "II", "III", "IV", "V", "VI")


def _letter_key(letter):
    # q-block before p-block, each sorted by (row, col); free letters Q < P
    kind = letter[0]
    rank = {"q": 0, "Q": 0, "p": 1, "P": 1}[kind]
    return (rank,) + tuple(letter[1:])


class WeylAlgebra:
    """Container fixing matrix size, mode and the coefficient ring."""

    def __init__(self, N: int, mode: str = "weyl", registry: Registry | None = None):
        if mode not in ("weyl", "classical", "free"):
            raise UsageError(f"unknown mode {mode!r}")
        if mode != "free" and not (1 <= N <= 4):
            raise UsageError("matrix size N must be between 1 and 4")
        self.N = N
        self.mode = mode
        if registry is None:
            registry = FREE_REGISTRY if mode == "free" else WEYL_REGISTRY
        if mode == "weyl" and "hbar" not in registry:
            raise UsageError("weyl mode needs 'hbar' in the coefficient registry")
        self.registry = registry
        self._cache: dict = {}

    # -- coefficient ring helpers -----------------------------------------

    def coeff(self, x):
        if self.mode == "free":
            if isinstance(x, RatFun):
                return x
            if isinstance(x, MPoly):
                return RatFun.from_mpoly(x)
            return RatFun.const(self.registry, as_rat(x))
        if isinstance(x, MPoly):
            return x
        return self.registry.const(as_rat(x))

    def coeff_var(self, name):
        v = self.registry.var(name)
        return RatFun.from_mpoly(v) if self.mode == "free" else v

    @property
    def hbar(self):
        return self.coeff_var("hbar")

    # -- element constructors ----------------------------------------------

    def zero(self) -> "NCPoly":
        return NCPoly(self, {}, normalized=True)

    def one(self) -> "NCPoly":
        return self.scalar(1)

    def scalar(self, c) -> "NCPoly":
        c = self.coeff(c)
        return NCPoly(self, {(): c}, normalized=True)

    def letter(self, kind: str, i: int | None = None, j: int | None = None) -> "NCPoly":
        if self.mode == "free":
            if kind not in ("P", "Q") or i is not None:
                raise UsageError("free mode letters are P and Q without indices")
            word = (kind,)
        else:
            if kind not in ("p", "q"):
                raise UsageError(f"unknown generator kind {kind!r}")
            if not (1 <= i <= self.N and 1 <= j <= self.N):
                raise UsageError(f"indices ({i},{j}) outside 1..{self.N}")
            word = ((kind, i, j),)
        return NCPoly(self, {word: self.coeff(1)}, normalized=True)

    def q(self, i, j):
        return self.letter("q", i, j)

    def p(self, i, j):
        return self.letter("p", i, j)

    def matrix(self, kind: str) -> "NCMatrix":
        if self.mode == "free":
            raise UsageError("free mode has no entry matrices; use letter('Q')")
        return NCMatrix(
            self, [[self.letter(kind, i, j) for j in range(1, self.N + 1)] for i in range(1, self.N + 1)]
        )

    def trace_word(self, letters: str) -> "NCPoly":
        """Tr of a product of full p/q matrices, e.g. ``"pqpq"``.

        The trace of the empty word is N (trace of the identity).
        """
        if self.mode == "free":
            raise UsageError("traces are only defined in matrix modes")
        if not letters:
            return self.scalar(self.N)
        if any(ch not in "pq" for ch in letters):
            raise UsageError(f"trace word must use letters p,q: {letters!r}")
        terms: dict = {}
        one = self.coeff(1)
        for idx in itertools.product(range(1, self.N + 1), repeat=len(letters)):
            word = tuple(
                (letters[k], idx[k], idx[(k + 1) % len(letters)]) for k in range(len(letters))
            )
            _accumulate(terms, word, one)
        return NCPoly(self, terms)

    # -- normal ordering ------------------------------------------------------

    def normalize_word(self, word: tuple) -> dict:
        """Normal form of a single word as {word: coefficient}."""
        if self.mode == "free":
            return {word: self.coeff(1)}
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        result = None
        for k in range(len(word) - 1):
            a, b = word[k], word[k + 1]
            ka, kb = _letter_key(a), _letter_key(b)
            if ka <= kb:
                continue
            swapped = word[:k] + (b, a) + word[k + 2 :]
            result = dict(self.normalize_word(swapped))
            if self.mode == "weyl" and a[0] == "p" and b[0] == "q":
                # p_ij q_kl = q_kl p_ij + hbar d_il d_jk
                if a[1] == b[2] and a[2] == b[1]:
                    shorter = word[:k] + word[k + 2 :]
                    hb = self.hbar
                    for w, c in self.normalize_word(shorter).items():
                        _accumulate(result, w, hb * c)
            break
        if result is None:
            result = {word: self.coeff(1)}
        self._cache[word] = result
        return result


def _accumulate(terms: dict, word: tuple, coeff):
    cur = terms.get(word)
    s = coeff if cur is None else cur + coeff
    if s.is_zero():
        terms.pop(word, None)
    else:
        terms[word] = s


class NCPoly:
    """Noncommutative polynomial: map from words to commutative coefficients."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: WeylAlgebra, terms: dict, *, normalized: bool = False):
        self.alg = alg
        if normalized:
            self.terms = {w: c for w, c in terms.items() if not c.is_zero()}
        else:
            out: dict = {}
            for w, c in terms.items():
                if c.is_zero():
                    continue
                for w2, c2 in alg.normalize_word(w).items():
                    _accumulate(out, w2, c * c2)
            self.terms = out

    def _check(self, other: "NCPoly"):
        if self.alg is not other.alg:
            if self.alg.N != other.alg.N or self.alg.mode != other.alg.mode:
                raise UsageError("mixing elements of different algebras")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return (self - other).is_zero()

    def __neg__(self):
        return NCPoly(self.alg, {w: -c for w, c in self.terms.items()}, normalized=True)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.alg.scalar(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            _accumulate(out, w, c)
        return NCPoly(self.alg, out, normalized=True)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.alg.scalar(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MPoly, RatFun)):
            return self.scale(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._check(other)
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                c = c1 * c2
                for w, cw in self.alg.normalize_word(w1 + w2).items():
                    _accumulate(out, w, c * cw)
        return NCPoly(self.alg, out, normalized=True)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, MPoly, RatFun)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "NCPoly":
        c = self.alg.coeff(c)
        if c.is_zero():
            return self.alg.zero()
        return NCPoly(self.alg, {w: k * c for w, k in self.terms.items()}, normalized=True)

    def map_coeffs(self, fn) -> "NCPoly":
        return NCPoly(self.alg, {w: fn(c) for w, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: (len(item[0]), tuple(map(_letter_key, item[0]))))

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            letters = "*".join(f"{l[0]}[{l[1]}][{l[2]}]" if len(l) == 3 else l[0] for l in w)
            cs = c.to_str()
            if letters:
                parts.append(f"({cs})*{letters}")
            else:
                parts.append(f"({cs})")
        return " + ".join(parts)

    __repr__ = to_str


def normal_order(x: NCPoly) -> NCPoly:
    """Re-normalize; idempotent by construction.  Free mode is unsupported."""
    if x.alg.mode == "free":
        raise UnsupportedModeError("normal ordering is undefined for free abstract letters")
    return NCPoly(x.alg, dict(x.terms))


def commutator(a: NCPoly, b):
    """[a, b] = ab - ba, entrywise when b is a matrix."""
    if isinstance(b, NCMatrix):
        return NCMatrix(b.alg, [[commutator(a, e) for e in row] for row in b.rows])
    return a * b - b * a


def anticommutator(a, b):
    return a * b + b * a


class NCMatrix:
    """Rectangular matrix with NCPoly entries."""

    __slots__ = ("alg", "rows")

    def __init__(self, alg: WeylAlgebra, rows):
        self.alg = alg
        self.rows = [list(r) for r in rows]
        width = {len(r) for r in self.rows}
        if len(width) > 1:
            raise UsageError("ragged matrix")

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    @classmethod
    def identity(cls, alg, n):
        return cls(alg, [[alg.one() if i == j else alg.zero() for j in range(n)] for i in range(n)])

    @classmethod
    def scalar(cls, alg, n, c):
        return cls(alg, [[alg.scalar(c) if i == j else alg.zero() for j in range(n)] for i in range(n)])

    def __add__(self, other):
        if self.shape != other.shape:
            raise UsageError("matrix shape mismatch")
        return NCMatrix(self.alg, [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NCMatrix(self.alg, [[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, NCMatrix):
            n, k = self.shape
            k2, m = other.shape
            if k != k2:
                raise UsageError("matrix shape mismatch in product")
            out = []
            for i in range(n):
                row = []
                for j in range(m):
                    acc = self.alg.zero()
                    for s in range(k):
                        acc = acc + self.rows[i][s] * other.rows[s][j]
                    row.append(acc)
                out.append(row)
            return NCMatrix(self.alg, out)
        return self.scale(other)

    def scale(self, c):
        return NCMatrix(self.alg, [[e * c if isinstance(c, NCPoly) else e.scale(c) for e in r] for r in self.rows])

    def trace(self):
        acc = self.alg.zero()
        for i in range(len(self.rows)):
            acc = acc + self.rows[i][i]
        return acc

    def is_zero(self):
        return all(e.is_zero() for r in self.rows for e in r)

    def map_entries(self, fn):
        return NCMatrix(self.alg, [[fn(e) for e in r] for r in self.rows])


def matrix_anticommutator(a: NCMatrix, b: NCMatrix) -> NCMatrix:
    return a * b + b * a


# ---------------------------------------------------------------------------
# Quantum Hamiltonians (matrix trace polynomials), printed cleared forms
# ---------------------------------------------------------------------------


def build_quantum_hamiltonian(alg: WeylAlgebra, J: str):
    """Printed quantum Hamiltonian for family J as (operator, clearing).

    ``operator`` is the cleared left-hand side exactly as printed (so t*H for
    III and V, t(t-1)*H for VI); ``clearing`` is that scalar prefactor as a
    coefficient-ring element.
    """
    if J not in ("II", "III", "IV", "V", "VI"):
        raise UsageError(f"unknown family {J!r} (expected II..VI)")
    reg = alg.registry
    t = reg.var("t")
    th, th0, th1, th2, tht = (reg.var(n) for n in ("th", "th0", "th1", "th2", "tht"))
    k = reg.var("k")
    Tr = alg.trace_word
    half = Fraction(1, 2)
    one = reg.one()

    if J == "II":
        # Tr(p^2/2 - (q^2 + t/2)^2/2 - th*q); the square expands to
        # q^4 + t q^2 + (t^2/4) Id since t is a scalar.
        op = (
            Tr("pp").scale(half)
            - Tr("qqqq").scale(half)
            - Tr("qq").scale(half * t)
            - alg.scalar(t * t * Fraction(alg.N, 8))
            - Tr("q").scale(th)
        )
        return op, one
    if J == "III":
        op = (
            (Tr("ppqq") + Tr("qqpp")).scale(half)
            - (Tr("qqp") + Tr("pqq")).scale(half)
            - Tr("qp").scale(th0 - th1)
            + Tr("p").scale(t)
            - Tr("q").scale(th1)
        )
        return op, t
    if J == "IV":
        op = (
            Tr("pqp")
            - (Tr("pqq") + Tr("qqp")).scale(half)
            - Tr("pq").scale(t)
            + Tr("p").scale(th0)
            - Tr("q").scale(th0 + th1)
        )
        return op, one
    if J == "V":
        op = (
            (Tr("ppqq") + Tr("qqpp")).scale(half)
            - (Tr("ppq") + Tr("qpp")).scale(half)
            + (Tr("pqq") + Tr("qqp")).scale(half * t)
            + Tr("pq").scale(th0 - th2 - t)
            + Tr("p").scale(th2)
            + Tr("q").scale((th0 + th1) * t)
        )
        return op, t
    # VI
    theta = th0 + th1 + tht
    op = (
        Tr("qpqpq")
        - Tr("pqqp").scale(t)
        + Tr("pqp").scale(t)
        - (Tr("pqpq") + Tr("qpqp")).scale(half)
        - Tr("qpq").scale(theta)
        + Tr("pq").scale((th0 + th1) * t + th0 + tht)
        - Tr("p").scale(th0 * t)
        - Tr("q").scale((k * k - theta * theta) * Fraction(1, 4))
    )
    return op, t * (t - 1)


def build_classical_hamiltonian_vi(alg: WeylAlgebra) -> NCPoly:
    """Classical (unsymmetrized) t(t-1)*H_VI trace polynomial."""
    if alg.mode != "classical":
        raise UsageError("classical Hamiltonian requires classical mode")
    reg = alg.registry
    t = reg.var("t")
    th0, th1, tht, k = (reg.var(n) for n in ("th0", "th1", "tht", "k"))
    theta = th0 + th1 + tht
    Tr = alg.trace_word
    return (
        Tr("qpqpq")
        - Tr("pqqp").scale(t)
        + Tr("pqp").scale(t)
        - Tr("pqpq")
        - Tr("qpq").scale(theta)
        + Tr("pq").scale((th0 + th1) * t + th0 + tht)
        - Tr("p").scale(th0 * t)
        - Tr("q").scale((k * k - theta * theta) * Fraction(1, 4))
    )


def evolution_polynomials(alg: WeylAlgebra):
    """The evolutionary right-hand sides as matrices: (t(t-1)*A, t(t-1)*B).

    In matrix modes these are built from the entry matrices; in free mode from
    the abstract letters (2x2 block convention, scalars times the identity).
    """
    reg = alg.registry
    t = alg.coeff(reg.var("t"))
    th0 = alg.coeff(reg.var("th0"))
    th1 = alg.coeff(reg.var("th1"))
    tht = alg.coeff(reg.var("tht"))
    k = alg.coeff(reg.var("k"))
    theta = th0 + th1 + tht

    if alg.mode == "free":
        n = 1
        Q = NCMatrix(alg, [[alg.letter("Q")]])
        P = NCMatrix(alg, [[alg.letter("P")]])
    else:
        n = alg.N
        Q = alg.matrix("q")
        P = alg.matrix("p")
    ident = NCMatrix.identity(alg, n)
    Q2 = Q * Q
    QPQ = Q * P * Q
    PQP = P * Q * P

    a = (
        ident.scale(-(th0 * t))
        + Q.scale(th0 + tht)
        + Q.scale((th0 + th1) * t)
        - Q2.scale(theta)
        - QPQ.scale(2)
        + matrix_anticommutator(P, Q).scale(t)
        - matrix_anticommutator(P, Q2).scale(t)
        + matrix_anticommutator(QPQ, Q)
    )
    quarter = Fraction(1, 4)
    b = (
        ident.scale((k * k - theta * theta) * alg.coeff(quarter))
        - P.scale(th0 + tht)
        - P.scale((th0 + th1) * t)
        + matrix_anticommutator(Q, P).scale(theta)
        - (P * P).scale(t)
        + matrix_anticommutator(Q, P * P).scale(t)
        + P * (Q.scale(2) - Q2) * P
        - matrix_anticommutator(Q, PQP)
    )
    return a, b


# ---------------------------------------------------------------------------
# Classical Poisson bracket ({p_ab, q_cd} = d_ad d_bc)
# ---------------------------------------------------------------------------


def _word_partial(alg: WeylAlgebra, word: tuple, letter) -> dict:
    out: dict = {}
    for pos, l in enumerate(word):
        if l == letter:
            w = word[:pos] + word[pos + 1 :]
            _accumulate(out, w, alg.coeff(1))
    return out


def nc_partial(x: NCPoly, letter) -> NCPoly:
    """Formal partial derivative with respect to one generator (classical mode)."""
    if x.alg.mode != "classical":
        raise UnsupportedModeError("formal generator derivatives require classical mode")
    out: dict = {}
    for w, c in x.terms.items():
        for w2, c2 in _word_partial(x.alg, w, letter).items():
            _accumulate(out, w2, c * c2)
    return NCPoly(x.alg, out)


def poisson_bracket(a: NCPoly, b: NCPoly) -> NCPoly:
    """{a, b} with {p_ab, q_cd} = d_ad d_bc on commutative polynomials."""
    alg = a.alg
    if alg.mode != "classical":
        raise UnsupportedModeError("Poisson bracket requires classical mode")
    acc = alg.zero()
    for i in range(1, alg.N + 1):
        for j in range(1, alg.N + 1):
            pij = ("p", i, j)
            qji = ("q", j, i)
            acc = acc + nc_partial(a, pij) * nc_partial(b, qji) - nc_partial(a, qji) * nc_partial(b, pij)
    return acc


# ---------------------------------------------------------------------------
# Verification routines
# ---------------------------------------------------------------------------

TRACE_IDENTITY_ANCHORS = [
    "Tr(pq)= Tr(qp)+hbar*N^2",
    "Tr(pqp)= Tr(qp^2)+hbar*N*Tr(p)",
    "Tr(qpq)= Tr(q^2p)+hbar*N*Tr(q)",
    "Tr(pq^2)= Tr(q^2p)+2*hbar*N*Tr(q)",
    "Tr(p^2q^2)= Tr(q^2p^2)+2*hbar*N*Tr(qp)+2*hbar*Tr(q)Tr(p)+hbar^2*N*(1+N^2)",
]


def trace_identity_residuals(N: int):
    """The five printed trace-reordering identities; returns (name, lhs-rhs) pairs."""
    alg = WeylAlgebra(N)
    hb = alg.registry.var("hbar")
    Tr = alg.trace_word
    n = Fraction(N)
    diffs = [
        Tr("pq") - Tr("qp") - alg.scalar(hb * n * n),
        Tr("pqp") - Tr("qpp") - Tr("p").scale(hb * n),
        Tr("qpq") - Tr("qqp") - Tr("q").scale(hb * n),
        Tr("pqq") - Tr("qqp") - Tr("q").scale(2 * hb * n),
        Tr("ppqq") - Tr("qqpp") - Tr("qp").scale(2 * hb * n) - Tr("q") * Tr("p") * (2 * hb)
        - alg.scalar(hb * hb * n * (1 + n * n)),
    ]
    return list(zip(TRACE_IDENTITY_ANCHORS, diffs))


def check_worked_commutator(N: int):
    """The worked example [p, Tr(pqpq)] entrywise, plus its classical bracket.

    The printed remainder is 2 hbar pqp + hbar^2 p; the machine-derived
    identity carries hbar^2 N p instead (they agree at N = 1, where the scalar
    relation pq - qp = hbar was used in print).  Both comparisons are
    reported; ``derived_ok`` is the mathematical truth.
    """
    alg = WeylAlgebra(N)
    hb = alg.registry.var("hbar")
    trace = alg.trace_word("pqpq")
    P = alg.matrix("p")
    Q = alg.matrix("q")
    pqp2 = (P * Q * P).scale(2 * hb)
    rhs_printed = pqp2 + P.scale(hb * hb)
    rhs_derived = pqp2 + P.scale(hb * hb * Fraction(N))
    lhs = [[commutator(P.rows[i][j], trace) for j in range(N)] for i in range(N)]
    printed_ok = all((lhs[i][j] - rhs_printed.rows[i][j]).is_zero() for i in range(N) for j in range(N))
    derived_ok = all((lhs[i][j] - rhs_derived.rows[i][j]).is_zero() for i in range(N) for j in range(N))

    cl = WeylAlgebra(N, mode="classical")
    tr_cl = cl.trace_word("pqpq")
    Pc, Qc = cl.matrix("p"), cl.matrix("q")
    rhs_cl = (Pc * Qc * Pc).scale(2)
    classical_ok = all(
        (poisson_bracket(Pc.rows[i][j], tr_cl) - rhs_cl.rows[i][j]).is_zero()
        for i in range(N)
        for j in range(N)
    )
    return {"printed_ok": printed_ok, "derived_ok": derived_ok, "classical_ok": classical_ok}


def first_difference(a: NCPoly, b: NCPoly):
    d = a - b
    if d.is_zero():
        return None
    return d.sorted_terms()[0]


def verify_eom_vi(N: int):
    """[t(t-1)H_VI, q] = hbar t(t-1) A(q,p) and likewise for p with B.

    Returns a dict with per-entry pass flags and the first differing word on
    failure.  The commutator convention [H, x] = Hx - xH is the one that
    reproduces the printed evolutionary system; the report records it.
    """
    alg = WeylAlgebra(N)
    hb = alg.registry.var("hbar")
    ham, _ = build_quantum_hamiltonian(alg, "VI")
    amat, bmat = evolution_polynomials(alg)
    Q = alg.matrix("q")
    P = alg.matrix("p")
    failures = []
    for mat, rhs, tag in ((Q, amat, "A"), (P, bmat, "B")):
        for i in range(N):
            for j in range(N):
                lhs = commutator(ham, mat.rows[i][j])
                diff = lhs - rhs.rows[i][j].scale(hb)
                if not diff.is_zero():
                    failures.append((tag, i + 1, j + 1, diff.sorted_terms()[0]))
    return {
        "ok": not failures,
        "convention": "hbar qdot = [H, q] with [H, x] = Hx - xH",
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# Expression grammar:  Tr(p*q*p*q),  [H, q],  p[1][2],  rationals, hbar
# ---------------------------------------------------------------------------

import re as _re

_TOKEN = _re.compile(r"\s*(Tr\(|\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\[|\]|\(|\)|\*|\+|-|,)")


def _tokenize(text: str):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise UsageError(f"cannot tokenize expression at {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    out.append(None)
    return out


def evaluate_expression(alg: WeylAlgebra, text: str, env: dict | None = None):
    """Evaluate a small operator expression to an NCPoly or NCMatrix.

    Bare letters p, q denote the full matrices; p[i][j] a single entry;
    Tr(p*q^2*...) a trace word; [a, b] the commutator; names from ``env``
    (for example a Hamiltonian) are substituted as-is.
    """
    toks = _tokenize(text)
    pos = [0]
    env = env or {}

    def peek():
        return toks[pos[0]]

    def take(expected=None):
        tok = toks[pos[0]]
        if expected is not None and tok != expected:
            raise UsageError(f"expected {expected!r}, found {tok!r}")
        pos[0] += 1
        return tok

    def take_int():
        tok = take()
        if tok is None or not tok.isdigit():
            raise UsageError(f"expected an integer, found {tok!r}")
        return int(tok)

    def mul(a, b):
        if isinstance(a, NCMatrix) and isinstance(b, NCMatrix):
            return a * b
        if isinstance(a, NCMatrix):
            return a.map_entries(lambda e: e * b)
        if isinstance(b, NCMatrix):
            return b.map_entries(lambda e: a * e)
        return a * b

    def add(a, b, sign=1):
        if isinstance(a, NCMatrix) != isinstance(b, NCMatrix):
            n = alg.N
            if not isinstance(a, NCMatrix):
                a = NCMatrix(alg, [[a if i == j else alg.zero() for j in range(n)] for i in range(n)])
            else:
                b = NCMatrix(alg, [[b if i == j else alg.zero() for j in range(n)] for i in range(n)])
        return a + b if sign > 0 else a - b

    def parse_trace():
        # collect the whole word first, then contract indices once
        word = ""
        while True:
            tok = take()
            if tok not in ("p", "q"):
                raise UsageError(f"trace words use letters p, q; found {tok!r}")
            power = 1
            if peek() == "^":
                take()
                power = take_int()
            word += tok * power
            if peek() == "*":
                take()
                continue
            take(")")
            return alg.trace_word(word)

    def parse_factor():
        tok = take()
        if tok == "(":
            val = parse_expr()
            take(")")
            return val
        if tok == "[":
            a = parse_expr()
            take(",")
            b = parse_expr()
            take("]")
            if isinstance(a, NCMatrix) and isinstance(b, NCMatrix):
                return a * b - b * a
            if isinstance(b, NCMatrix):
                return commutator(a, b)
            if isinstance(a, NCMatrix):
                return (commutator(b, a)).map_entries(lambda e: -e)
            return commutator(a, b)
        if tok == "Tr(":
            return parse_trace()
        if tok == "-":
            val = parse_factor()
            return val.map_entries(lambda e: -e) if isinstance(val, NCMatrix) else -val
        if tok is None:
            raise UsageError("unexpected end of expression")
        if tok[0].isdigit():
            return alg.scalar(parse_rational(tok))
        if tok in ("p", "q"):
            if peek() == "[":
                take()
                i = take_int()
                take("]")
                take("[")
                j = take_int()
                take("]")
                return alg.letter(tok, i, j)
            return alg.matrix(tok)
        if tok == "hbar":
            return alg.scalar(alg.registry.var("hbar"))
        if tok in env:
            return env[tok]
        if tok in alg.registry:
            return alg.scalar(alg.registry.var(tok))
        raise UsageError(f"unknown name {tok!r} in expression")

    def parse_term():
        val = parse_factor()
        while peek() == "*":
            take()
            val = mul(val, parse_factor())
        return val

    def parse_expr():
        val = parse_term()
        while peek() in ("+", "-"):
            sign = 1 if take() == "+" else -1
            val = add(val, parse_term(), sign)
        return val

    result = parse_expr()
    if peek() is not None:
        raise UsageError(f"trailing input {toks[pos[0]:]!r}")
    return result


# ---------------------------------------------------------------------------
# PVI Lax pair and zero curvature (free mode)
# ---------------------------------------------------------------------------


def lax_blocks(alg: WeylAlgebra):
    """The 2x2 blocks A0, A1, At, B of the PVI pair over the free algebra."""
    if alg.mode != "free":
        raise UsageError("Lax blocks are built over the free algebra")
    reg = alg.registry
    rf = lambda p: RatFun.from_mpoly(p)
    t = rf(reg.var("t"))
    th0, th1, tht, k = (rf(reg.var(n)) for n in ("th0", "th1", "tht", "k"))
    theta = th0 + th1 + tht
    half = RatFun.const(reg, Fraction(1, 2))
    quarter = RatFun.const(reg, Fraction(1, 4))
    one = alg.one()
    Q = alg.letter("Q")
    P = alg.letter("P")
    QP = Q * P
    PQ = P * Q

    a0 = NCMatrix(
        alg,
        [
            [one.scale(-(RatFun.const(reg, 1) + tht)), Q.scale(1 / t) - one],
            [alg.zero(), alg.zero()],
        ],
    )
    a1 = NCMatrix(
        alg,
        [
            [-QP + one.scale((k + theta) * half), one],
            [
                (one.scale(theta) - QP) * QP + one.scale((k * k - theta * theta) * quarter),
                QP + one.scale((k - theta) * half),
            ],
        ],
    )
    at = NCMatrix(
        alg,
        [
            [QP - one.scale(th0), Q.scale(-(1 / t))],
            [(one.scale(-th0) + PQ).scale(t) * P, -PQ],
        ],
    )
    b_top = (anticommutator(Q, P).scale(t) - one.scale(th0 * t) + Q.scale(theta) - anticommutator(QP, Q)).scale(
        1 / (t * (t - 1))
    )
    bmat = NCMatrix(alg, [[b_top, alg.zero()], [-P.scale(th0) + P * Q * P, alg.zero()]])
    return a0, a1, at, bmat


def lax_pair(alg: WeylAlgebra):
    """Assembled A(zeta), B(zeta) with poles at 0,1,t and t respectively."""
    reg = alg.registry
    zeta = RatFun.from_mpoly(reg.var("zeta"))
    t = RatFun.from_mpoly(reg.var("t"))
    a0, a1, at, bmat = lax_blocks(alg)
    amat = a0.scale(1 / zeta) + a1.scale(1 / (zeta - 1)) + at.scale(1 / (zeta - t))
    bfull = -(at.scale(1 / (zeta - t))) - bmat
    return amat, bfull


def d_dt_free(x: NCPoly, adot: NCPoly, bdot: NCPoly) -> NCPoly:
    """Total t-derivative in the free algebra: coefficients plus Qdot = adot, Pdot = bdot."""
    alg = x.alg
    out = alg.zero()
    for w, c in x.terms.items():
        out = out + NCPoly(alg, {w: c.deriv("t")}, normalized=True)
        for pos, letter in enumerate(w):
            left = NCPoly(alg, {w[:pos]: alg.coeff(1)}, normalized=True)
            right = NCPoly(alg, {w[pos + 1 :]: alg.coeff(1)}, normalized=True)
            repl = adot if letter == "Q" else bdot
            out = out + (left * repl * right).scale(c)
    return out


def d_dzeta(x: NCPoly) -> NCPoly:
    return NCPoly(x.alg, {w: c.deriv("zeta") for w, c in x.terms.items()})


def verify_zero_curvature():
    """dA/dt - dB/dzeta + [A, B] = 0 identically in the free algebra.

    Also checks the residue structure: zeta A -> A0 at 0 etc., and that B has
    its only pole at zeta = t.
    """
    alg = WeylAlgebra(1, mode="free")
    reg = alg.registry
    t = RatFun.from_mpoly(reg.var("t"))
    zeta = RatFun.from_mpoly(reg.var("zeta"))
    a0, a1, at, bblock = lax_blocks(alg)
    amat, bmat = lax_pair(alg)

    tt1 = t * (t - 1)
    avec, bvec = evolution_polynomials(alg)
    adot = avec.rows[0][0].scale(1 / tt1)
    bdot = bvec.rows[0][0].scale(1 / tt1)

    def subs_entry(e, name, value):
        return e.map_coeffs(lambda c: c.subs({name: value}))

    def mat_eq(x, y):
        return all((x.rows[i][j] - y.rows[i][j]).is_zero() for i in range(2) for j in range(2))

    residue_checks = []
    # zeta(zeta-1)(zeta-t) A(zeta) equals the explicitly polynomial combination
    # of the residue blocks: simple poles at 0, 1, t only.
    pa = a0.scale((zeta - 1) * (zeta - t)) + a1.scale(zeta * (zeta - t)) + at.scale(zeta * (zeta - 1))
    residue_checks.append(
        ("A has simple poles at 0,1,t only", mat_eq(amat.scale(zeta * (zeta - 1) * (zeta - t)), pa))
    )
    tvar = t.num
    for loc, block, factor, label in (
        (reg.const(0), a0, tvar, "A residue at zeta=0"),
        (reg.const(1), a1, reg.one() - tvar, "A residue at zeta=1"),
        (tvar, at, tvar * (tvar - 1), "A residue at zeta=t"),
    ):
        ok = mat_eq(
            pa.map_entries(lambda e: subs_entry(e, "zeta", loc)),
            block.map_entries(lambda e: e.scale(RatFun.from_mpoly(factor))),
        )
        residue_checks.append((label, ok))
    pb = -at - bblock.scale(zeta - t)
    residue_checks.append(("B has a simple pole at zeta=t only", mat_eq(bmat.scale(zeta - t), pb)))
    residue_checks.append(
        ("B residue at zeta=t", mat_eq(pb.map_entries(lambda e: subs_entry(e, "zeta", tvar)), -at))
    )

    dadt = amat.map_entries(lambda e: d_dt_free(e, adot, bdot))
    dbdz = bmat.map_entries(d_dzeta)
    residual = dadt - dbdz + (amat * bmat - bmat * amat)
    offenders = []
    for i in range(2):
        for j in range(2):
            for w, c in residual.rows[i][j].terms.items():
                if not c.is_zero():
                    offenders.append(((i + 1, j + 1), w, c.to_str()))
    return {
        "ok": not offenders and all(ok for _, ok in residue_checks),
        "residue_checks": residue_checks,
        "offenders": offenders,
    }
