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

Every product, a matrix entry's whole sum of products included, adds each
pair of terms into one dict: the coefficient times the normal form of the
joined word (a free word is its own), a coefficient 1 without a multiply.

An :class:`NCMatrix` of such elements multiplies and adds an NCPoly on either
side, the NCPoly taken as that multiple of the identity.
:func:`evaluate_expression` reads a small operator grammar into an NCPoly or
an NCMatrix; both print deterministically through ``to_str``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import families
from .errors import UnsupportedModeError, UsageError
from .exact import MPoly, RatFun, Registry, as_rat, as_ratfun
from .params import parse_rational

WEYL_REGISTRY = Registry(("hbar", "t", "th", "th0", "th1", "th2", "tht", "k"))
FREE_REGISTRY = Registry(("zeta", "t", "th0", "th1", "tht", "k"))
MAX_TRACE_TUPLES = 4**8  # index tuples one trace word may expand to; 16 letters at N <= 2
MAX_NORMAL_TERMS = 2**18  # normal-form terms one algebra may cache; run_eom(4) caches 120 547
_RANK = {"q": 0, "Q": 0, "p": 1, "P": 1}


def _letter_key(letter):
    # q-block before p-block, each sorted by (row, col); free letters Q < P
    return (_RANK[letter[0]], *letter[1:])


def _contracts(p, q) -> bool:
    """p_ij q_kl = q_kl p_ij + hbar d_il d_jk: whether the swap leaves an hbar term."""
    return p[1] == q[2] and p[2] == q[1]


class WeylAlgebra:
    """Container fixing matrix size, mode and the coefficient ring."""

    def __init__(self, N: int, mode: str = "weyl"):
        if mode not in ("weyl", "classical", "free"):
            raise UsageError(f"unknown mode {mode!r}")
        if mode != "free" and not (1 <= N <= 4):
            raise UsageError("matrix size N must be between 1 and 4")
        self.N = N
        self.mode = mode
        self.registry = FREE_REGISTRY if mode == "free" else WEYL_REGISTRY
        self.unit = self.coeff(1)  # the one coefficient 1 that normal forms share
        self._cache: dict = {}
        self._cached_terms = 0

    # -- coefficient ring helpers -----------------------------------------

    def coeff(self, x):
        if self.mode == "free":
            return as_ratfun(x, self.registry)
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
        return NCPoly(self, {word: self.unit}, normalized=True)

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
        self.check_trace_length(len(letters))
        terms: dict = {}
        one = self.unit
        for idx in itertools.product(range(1, self.N + 1), repeat=len(letters)):
            word = tuple(
                (letters[k], idx[k], idx[(k + 1) % len(letters)]) for k in range(len(letters))
            )
            _accumulate(terms, word, one)
        return NCPoly(self, terms)

    def check_trace_length(self, length: int):
        """Reject a trace word of more than 16 letters or ``MAX_TRACE_TUPLES`` index tuples (N^length)."""
        if length > 16 or self.N**length > MAX_TRACE_TUPLES:
            raise UsageError(f"a trace word of {length} letters at N={self.N} exceeds the bound: 16 letters, 4^8 = {MAX_TRACE_TUPLES} index tuples")

    # -- normal ordering ------------------------------------------------------

    def normalize_word(self, word: tuple) -> dict:
        """Normal form of a single word as {word: coefficient}.

        The first p left of a q it contracts with moves past its last such q,
        leaving an hbar term at each; a word with no such p sorts in one step.
        Caching more than ``MAX_NORMAL_TERMS`` terms in all is a usage error.
        """
        if self.mode == "free":
            return {word: self.unit}
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        result = None
        if self.mode == "weyl":
            for i, a in enumerate(word):
                hits = a[0] == "p" and [m for m in range(i + 1, len(word)) if word[m][0] == "q" and _contracts(a, word[m])]
                if hits:
                    j = hits[-1]
                    result = dict(self.normalize_word(word[:i] + word[i + 1 : j + 1] + (a,) + word[j + 1 :]))
                    hb = self.hbar
                    for m in hits:
                        for w, c in self.normalize_word(word[:i] + word[i + 1 : m] + word[m + 1 :]).items():
                            _accumulate(result, w, hb * c)
                    break
        if result is None:
            result = {tuple(sorted(word, key=_letter_key)): self.unit}
        self._cache[word] = result
        self._cached_terms += len(result)
        if self._cached_terms > MAX_NORMAL_TERMS:
            raise UsageError(f"normal ordering at N={self.N} exceeds the bound of {MAX_NORMAL_TERMS} cached terms")
        return result


def _accumulate(terms: dict, word: tuple, coeff):
    cur = terms.get(word)
    s = coeff if cur is None else cur + coeff
    if s.is_zero():
        terms.pop(word, None)
    else:
        terms[word] = s


def _mul_into(out: dict, x: "NCPoly", y: "NCPoly"):
    """Add the terms of x*y into ``out``: free words concatenate, others take their normal form."""
    alg = x.alg
    unit = alg.unit
    norm = None if alg.mode == "free" else alg.normalize_word
    right = list(y.terms.items())
    for w1, c1 in x.terms.items():
        for w2, c2 in right:
            c = c2 if c1 is unit else c1 if c2 is unit else c1 * c2
            if norm is None:
                _accumulate(out, w1 + w2, c)
                continue
            for w, cw in norm(w1 + w2).items():
                _accumulate(out, w, c if cw is unit else c * cw)


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
                    _accumulate(out, w2, c if c2 is alg.unit else c * c2)
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
        _mul_into(out, self, other)
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


def commutator(a, b):
    """[a, b] = ab - ba for any mix of NCPoly and NCMatrix."""
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

    def __add__(self, other):
        if isinstance(other, NCPoly):
            other = NCMatrix.identity(self.alg, len(self.rows)) * other
        if self.shape != other.shape:
            raise UsageError("matrix shape mismatch")
        return NCMatrix(self.alg, [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    __radd__ = __add__

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
                    terms: dict = {}
                    for s in range(k):
                        _mul_into(terms, self.rows[i][s], other.rows[s][j])
                    row.append(NCPoly(self.alg, terms, normalized=True))
                out.append(row)
            return NCMatrix(self.alg, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.map_entries(lambda e: other * e)

    def scale(self, c):
        return NCMatrix(self.alg, [[e * c if isinstance(c, NCPoly) else e.scale(c) for e in r] for r in self.rows])

    def is_zero(self):
        return all(e.is_zero() for r in self.rows for e in r)

    def map_entries(self, fn):
        return NCMatrix(self.alg, [[fn(e) for e in r] for r in self.rows])

    def to_str(self) -> str:
        return "[" + ", ".join("[" + ", ".join(e.to_str() for e in r) + "]" for r in self.rows) + "]"


# ---------------------------------------------------------------------------
# Quantum Hamiltonians (matrix trace polynomials), printed cleared forms
# ---------------------------------------------------------------------------


def build_quantum_hamiltonian(alg: WeylAlgebra, J: str):
    """Printed quantum Hamiltonian for family J as (operator, clearing).

    ``operator`` is the cleared left-hand side exactly as printed (so t*H for
    III and V, t(t-1)*H for VI); ``clearing`` is that scalar prefactor as a
    coefficient-ring element.  Both come from the family table; in classical
    mode they give the classical Hamiltonian.
    """
    fam = families.family(J)
    reg = alg.registry
    t = reg.var("t")
    # the registry carries k; the table's k2 is its square
    p = {key: reg.var("k") ** 2 if key == "k2" else reg.var(key) for key in fam.radial_keys}
    op = sum((alg.trace_word(word).scale(coeff) for coeff, word in fam.hamiltonian(t, p)), alg.zero())
    return op, alg.coeff(fam.prefactor(t))


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
        + anticommutator(P, Q).scale(t)
        - anticommutator(P, Q2).scale(t)
        + anticommutator(QPQ, Q)
    )
    quarter = Fraction(1, 4)
    b = (
        ident.scale((k * k - theta * theta) * alg.coeff(quarter))
        - P.scale(th0 + tht)
        - P.scale((th0 + th1) * t)
        + anticommutator(Q, P).scale(theta)
        - (P * P).scale(t)
        + anticommutator(Q, P * P).scale(t)
        + P * (Q.scale(2) - Q2) * P
        - anticommutator(Q, PQP)
    )
    return a, b


# ---------------------------------------------------------------------------
# Classical Poisson bracket ({p_ab, q_cd} = d_ad d_bc)
# ---------------------------------------------------------------------------


def nc_partials(x: NCPoly) -> dict:
    """{letter: formal partial derivative} for each generator occurring in x (classical mode)."""
    if x.alg.mode != "classical":
        raise UnsupportedModeError("formal generator derivatives require classical mode")
    out: dict = {}
    for w, c in x.terms.items():
        for pos, letter in enumerate(w):
            # a sorted word stays sorted with one letter taken out
            _accumulate(out.setdefault(letter, {}), w[:pos] + w[pos + 1 :], c)
    return {letter: NCPoly(x.alg, terms, normalized=True) for letter, terms in out.items()}


def poisson_bracket(a: NCPoly, b: NCPoly) -> NCPoly:
    """{a, b} with {p_ab, q_cd} = d_ad d_bc on commutative polynomials, over the letters that occur."""
    if a.alg.mode != "classical":
        raise UnsupportedModeError("Poisson bracket requires classical mode")
    da, db = nc_partials(a), nc_partials(b)
    out: dict = {}
    for (kind, i, j), pa in da.items():
        pb = db.get(("q" if kind == "p" else "p", j, i))
        if pb is not None:
            _mul_into(out, pa if kind == "p" else -pa, pb)
    return NCPoly(a.alg, out, normalized=True)


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
    """The five printed trace-reordering identities; yields (name, lhs-rhs) pairs, each computed when reached."""
    alg = WeylAlgebra(N)
    hb = alg.registry.var("hbar")
    Tr = alg.trace_word
    n = Fraction(N)
    diffs = [
        lambda: Tr("pq") - Tr("qp") - alg.scalar(hb * n * n),
        lambda: Tr("pqp") - Tr("qpp") - Tr("p").scale(hb * n),
        lambda: Tr("qpq") - Tr("qqp") - Tr("q").scale(hb * n),
        lambda: Tr("pqq") - Tr("qqp") - Tr("q").scale(2 * hb * n),
        lambda: Tr("ppqq") - Tr("qqpp") - Tr("qp").scale(2 * hb * n) - Tr("q") * Tr("p") * (2 * hb)
        - alg.scalar(hb * hb * n * (1 + n * n)),
    ]
    for anchor, diff in zip(TRACE_IDENTITY_ANCHORS, diffs):
        yield anchor, diff()


def check_worked_commutator(N: int):
    """The worked example [p, Tr(pqpq)] entrywise, plus its classical bracket.

    The printed remainder is 2 hbar pqp + hbar^2 p; the machine-derived
    identity carries hbar^2 N p instead (they agree at N = 1, where the scalar
    relation pq - qp = hbar was used in print).  Both comparisons are
    reported; ``derived_ok`` is the mathematical truth.
    """
    return {**worked_commutator(N), "classical_ok": worked_bracket(N)}


def worked_commutator(N: int) -> dict:
    """The quantum side of :func:`check_worked_commutator`: ``printed_ok`` and ``derived_ok``."""
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
    return {"printed_ok": printed_ok, "derived_ok": derived_ok}


def worked_bracket(N: int) -> bool:
    """The classical side: {p, Tr(pqpq)} = 2 pqp entrywise."""
    cl = WeylAlgebra(N, mode="classical")
    tr_cl = cl.trace_word("pqpq")
    Pc, Qc = cl.matrix("p"), cl.matrix("q")
    rhs_cl = (Pc * Qc * Pc).scale(2)
    return all((poisson_bracket(Pc.rows[i][j], tr_cl) - rhs_cl.rows[i][j]).is_zero() for i in range(N) for j in range(N))


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


def evaluate_expression(alg: WeylAlgebra, text: str):
    """Evaluate a small operator expression to an NCPoly or NCMatrix.

    Bare letters p, q denote the full matrices; p[i][j] a single entry;
    Tr(p*q^2*...) a trace word; [a, b] the commutator; hbar and the other
    coefficient-registry names are scalars.  A polynomial added to a matrix
    is that multiple of the identity.  Either value prints with ``to_str``.
    """
    toks = _tokenize(text)
    pos = [0]

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
        if tok is None or not tok.isdigit() or len(tok) > 99:  # int() refuses very long digit strings
            raise UsageError(f"expected an integer of at most 99 digits, found {tok!r:.40}")
        return int(tok)

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
            alg.check_trace_length(len(word) + power)
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
            return commutator(a, b)
        if tok == "Tr(":
            return parse_trace()
        if tok == "-":
            return -parse_factor()
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
        if tok in alg.registry:
            return alg.scalar(alg.registry.var(tok))
        raise UsageError(f"unknown name {tok!r} in expression")

    def parse_term():
        val = parse_factor()
        while peek() == "*":
            take()
            val = val * parse_factor()
        return val

    def parse_expr():
        val = parse_term()
        while peek() in ("+", "-"):
            sign = take()
            val = val + parse_term() if sign == "+" else val - parse_term()
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


def lax_pair(blocks):
    """Assembled A(zeta), B(zeta) with poles at 0,1,t and t respectively, from the :func:`lax_blocks`."""
    a0, a1, at, bmat = blocks
    reg = a0.alg.registry
    zeta = RatFun.from_mpoly(reg.var("zeta"))
    t = RatFun.from_mpoly(reg.var("t"))
    amat = a0.scale(1 / zeta) + a1.scale(1 / (zeta - 1)) + at.scale(1 / (zeta - t))
    bfull = -(at.scale(1 / (zeta - t))) - bmat
    return amat, bfull


def d_dt_free(x: NCPoly, adot: NCPoly, bdot: NCPoly) -> NCPoly:
    """Total t-derivative in the free algebra: coefficients plus Qdot = adot, Pdot = bdot, letter by letter."""
    out: dict = {}
    for w, c in x.terms.items():
        _accumulate(out, w, c.deriv("t"))
        for pos, letter in enumerate(w):
            for wr, cr in (adot if letter == "Q" else bdot).terms.items():
                _accumulate(out, w[:pos] + wr + w[pos + 1 :], c * cr)
    return NCPoly(x.alg, out, normalized=True)


def d_dzeta(x: NCPoly) -> NCPoly:
    return NCPoly(x.alg, {w: c.deriv("zeta") for w, c in x.terms.items()})


def verify_zero_curvature():
    """The Lax pair's checks, each computed when reached and yielded as (label, ok, offenders).

    First the residue structure: zeta A -> A0 at 0 etc., and B with its only
    pole at zeta = t.  Last, labelled None, dA/dt - dB/dzeta + [A, B] = 0
    identically in the free algebra: its offenders are the residual's nonzero
    ((row, col), word, coefficient) terms, and its ok needs every check.
    """
    alg = WeylAlgebra(1, mode="free")
    reg = alg.registry
    t = RatFun.from_mpoly(reg.var("t"))
    zeta = RatFun.from_mpoly(reg.var("zeta"))
    blocks = lax_blocks(alg)
    a0, a1, at, bblock = blocks
    amat, bmat = lax_pair(blocks)

    tt1 = t * (t - 1)
    avec, bvec = evolution_polynomials(alg)
    adot = avec.rows[0][0].scale(1 / tt1)
    bdot = bvec.rows[0][0].scale(1 / tt1)

    def subs_entry(e, name, value):
        return e.map_coeffs(lambda c: c.subs({name: value}))

    def mat_eq(x, y):
        return all((x.rows[i][j] - y.rows[i][j]).is_zero() for i in range(2) for j in range(2))

    held = []  # the structure checks' verdicts

    def check(label, ok):
        held.append(ok)
        return label, ok, []

    # zeta(zeta-1)(zeta-t) A(zeta) equals the explicitly polynomial combination
    # of the residue blocks: simple poles at 0, 1, t only.
    pa = a0.scale((zeta - 1) * (zeta - t)) + a1.scale(zeta * (zeta - t)) + at.scale(zeta * (zeta - 1))
    yield check("A has simple poles at 0,1,t only", mat_eq(amat.scale(zeta * (zeta - 1) * (zeta - t)), pa))
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
        yield check(label, ok)
    pb = -at - bblock.scale(zeta - t)
    yield check("B has a simple pole at zeta=t only", mat_eq(bmat.scale(zeta - t), pb))
    yield check("B residue at zeta=t", mat_eq(pb.map_entries(lambda e: subs_entry(e, "zeta", tvar)), -at))

    dadt = amat.map_entries(lambda e: d_dt_free(e, adot, bdot))
    dbdz = bmat.map_entries(d_dzeta)
    residual = dadt - dbdz + (amat * bmat - bmat * amat)
    offenders = []
    for i in range(2):
        for j in range(2):
            for w, c in residual.rows[i][j].terms.items():
                if not c.is_zero():
                    offenders.append(((i + 1, j + 1), w, c.to_str()))
    yield None, all(held) and not offenders, offenders
