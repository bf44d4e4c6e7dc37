"""Exact arithmetic kernel: rationals, sparse multivariate polynomials, rational functions.

Polynomials live over a fixed, ordered variable registry.  An ``MPoly`` is
``content * P``: one ``fractions.Fraction`` content times a primitive integer
polynomial ``P`` (integer coefficients with gcd 1).  ``P`` is stored as a map
from packed exponents to ``int`` coefficients, after Monagan & Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors" (CASC 2007):

- Each variable owns a ``FIELD_BITS``-bit field of one Python int.  The first
  registry variable takes the most significant field, so int order is the
  lex order of exponent tuples (serialization, hashing and the leading term
  of ``exact_div`` rely on it).
- The top bit of every field is a guard bit.  Exponents are at most
  ``MAX_EXPONENT``, so the sum of two valid fields never carries into the
  next one; a result with a guard bit set raises ``UsageError`` instead of
  wrapping.

Arithmetic runs on the ints.  A product multiplies the contents once and the
integer coefficients per term pair; by Gauss's lemma it stays primitive.  A
primitive one-term polynomial has coefficient +-1, so a product with one only
shifts the other's terms.  A sum brings both contents to a common one by
integer factors and divides out the integer gcd of the result.  Division is
exact over the integers.  ``MPoly.terms`` remains as a read-only ``{exponent
tuple: Fraction}`` view, built on first use, in the same term order as the
arithmetic produced.

Rational functions never normalize by polynomial gcd; equality is decided by
cross-multiplication.  Only cheap content/monomial cancellation is applied to
keep intermediate objects small.  A denominator with a constant term has no
monomial content; one with a single term has no univariate factor left to
cancel once the shared monomial is divided out.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from operator import or_

from .errors import ExactDivisionError, UsageError

Rat = Fraction

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

FIELD_BITS = 16  # bits per packed exponent, guard bit included
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD = (1 << FIELD_BITS) - 1
_ONE = Fraction(1)


def as_rat(x) -> Rat:
    """Coerce ints and Fractions to Fraction; text goes through ``params.parse_rational``."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise UsageError(f"cannot interpret {x!r} as an exact rational")


class Registry:
    """Ordered list of named commuting variables, fixed for a session.

    The canonical session ordering is z_1 < ... < z_N < t < seed symbols;
    ``session_registry`` builds registries in that order.  The registry also
    fixes the exponent packing: variable i sits at bit ``_shifts[i]`` and
    ``_guard`` holds the guard bit of every field.
    """

    __slots__ = ("names", "index", "_shifts", "_guard")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise UsageError(f"duplicate variable names in registry: {names}")
        for n in names:
            if not _NAME_RE.fullmatch(n):
                raise UsageError(f"invalid variable name {n!r}")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        self._shifts = tuple(FIELD_BITS * (len(names) - 1 - i) for i in range(len(names)))
        self._guard = sum(1 << (s + FIELD_BITS - 1) for s in self._shifts)

    def __len__(self):
        return len(self.names)

    def __contains__(self, name):
        return name in self.index

    def __eq__(self, other):
        return isinstance(other, Registry) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Registry{self.names}"

    def _pack(self, exps) -> int:
        if len(exps) != len(self.names):
            raise UsageError(f"exponent vector {tuple(exps)} does not fit registry {self.names}")
        e = 0
        for k in exps:
            if not 0 <= k <= MAX_EXPONENT:
                raise UsageError(f"exponent {k} outside 0..{MAX_EXPONENT}")
            e = (e << FIELD_BITS) | k
        return e

    def _unpack(self, e: int) -> tuple:
        return tuple((e >> s) & _FIELD for s in self._shifts)

    def zero(self) -> "MPoly":
        return _new(self, {}, _ONE)

    def one(self) -> "MPoly":
        return _new(self, {0: 1}, _ONE)

    def const(self, c) -> "MPoly":
        c = as_rat(c)
        if c == 0:
            return self.zero()
        return _new(self, {0: 1}, c)

    def var(self, name: str) -> "MPoly":
        if name not in self.index:
            raise UsageError(f"unknown variable {name!r} (registry {self.names})")
        return _new(self, {1 << self._shifts[self.index[name]]: 1}, _ONE)


def session_registry(N: int, *, seeds=()) -> Registry:
    """Registry with the deterministic ordering z_1 < ... < z_N < t < seeds."""
    return Registry([f"z{i}" for i in range(1, N + 1)] + ["t", *seeds])


class MPoly:
    """Sparse multivariate polynomial ``content * P`` with rational coefficients.

    ``_t`` maps packed exponents (one guarded field per registry variable,
    see the module docstring) to the nonzero int coefficients of ``P``, and
    ``_c`` is the Fraction content.  The coefficients of ``P`` have gcd 1:
    that integer gcd is the only one ever taken, never a polynomial gcd.  The
    sign may sit in either factor, so negation is O(1).  The zero polynomial
    has ``_t == {}``.  ``terms`` is the read-only ``{exponent tuple:
    Fraction}`` view.  Instances are immutable and may share ``_t``.
    """

    __slots__ = ("reg", "_t", "_c", "_view")

    def __init__(self, reg: Registry, terms: dict):
        """Build from ``{exponent tuple: rational}``; zero coefficients are dropped."""
        items = [(reg._pack(e), as_rat(c)) for e, c in terms.items() if c]
        den = math.lcm(*(c.denominator for _, c in items))
        t = {e: c.numerator * (den // c.denominator) for e, c in items}
        g = math.gcd(*t.values()) or 1
        self.reg = reg
        self._t = {e: v // g for e, v in t.items()} if g != 1 else t
        self._c = Fraction(g, den)
        self._view = None

    @property
    def terms(self) -> Mapping:
        view = self._view
        if view is None:
            view = self._view = _TermsView(self.reg, self._t, self._c)
        return view

    # -- basic predicates ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def is_constant(self) -> bool:
        return not self._t or (len(self._t) == 1 and 0 in self._t)

    def constant_value(self) -> Rat:
        if not self._t:
            return Fraction(0)
        if not self.is_constant():
            raise UsageError("polynomial is not constant")
        return self._c * self._t[0]

    def total_degree(self) -> int:
        unpack = self.reg._unpack
        return max((sum(unpack(e)) for e in self._t), default=0)

    def _vidx(self, name: str) -> int:
        try:
            return self.reg.index[name]
        except KeyError:
            raise UsageError(f"unknown variable {name!r} (registry {self.reg.names})") from None

    def _check(self, other: "MPoly"):
        if self.reg is not other.reg and self.reg != other.reg:
            raise UsageError("registry mismatch between polynomials")

    # -- ring operations -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, MPoly):
            if self.reg != other.reg:
                return False
            t1, t2 = self._t, other._t
            if not t1 or self._c == other._c:
                return t1 == t2
            if self._c == -other._c:
                return len(t1) == len(t2) and all(t2.get(e) == -v for e, v in t1.items())
            return False
        return NotImplemented

    def __neg__(self):
        return _new(self.reg, self._t, -self._c)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.reg.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        if not other._t:
            return self
        if not self._t:
            return other
        ca, cb = self._c, other._c
        if ca == cb:
            fa, fb, c = 1, 1, ca
        elif ca == -cb:
            fa, fb, c = 1, -1, ca
        else:
            # common content gcd(na, nb) / lcm(da, db); both factors are ints
            g = math.gcd(ca.numerator, cb.numerator)
            lcm = math.lcm(ca.denominator, cb.denominator)
            fa = ca.numerator // g * (lcm // ca.denominator)
            fb = cb.numerator // g * (lcm // cb.denominator)
            c = Fraction(g, lcm)
        out = dict(self._t) if fa == 1 else {e: v * fa for e, v in self._t.items()}
        get = out.get
        for e, v in other._t.items():
            s = get(e, 0) + v * fb
            if s:
                out[e] = s
            else:
                del out[e]
        return _normed(self.reg, out, c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.reg.const(other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.reg.zero()
            return _new(self.reg, self._t, self._c * other)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        ca, cb = self._c, other._c
        c = Fraction(ca.numerator * cb.numerator) if ca.denominator == 1 == cb.denominator else ca * cb
        a, b = (other._t, self._t) if len(self._t) == 1 else (self._t, other._t)
        if len(b) == 1:
            # a shift by one monomial: no two terms meet, in the order of ``a``
            ((e2, c2),) = b.items()
            if e2 == 0 and c2 == 1:
                return _new(self.reg, a, c)
            out = {e1 + e2: c1 * c2 for e1, c1 in a.items()}
        else:
            out = {}
            get = out.get
            right = list(b.items())
            for e1, c1 in a.items():
                for e2, c2 in right:
                    e = e1 + e2
                    s = get(e, 0) + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        _check_fields(self.reg, out)
        return _new(self.reg, out, c)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise UsageError("negative polynomial power")
        out = self.reg.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- calculus and substitution ----------------------------------------

    def partial(self, name: str) -> "MPoly":
        """Formal partial derivative."""
        s = self.reg._shifts[self._vidx(name)]
        unit = 1 << s
        out: dict = {}
        for e, v in self._t.items():
            k = (e >> s) & _FIELD
            if k:
                out[e - unit] = v * k
        return _normed(self.reg, out, self._c)

    def subs(self, values: dict) -> "MPoly":
        """Substitute variables by rationals or registry polynomials."""
        rat_vals: dict = {}
        poly_vals: dict = {}
        for name, v in values.items():
            i = self._vidx(name)
            if isinstance(v, (int, Fraction)):
                rat_vals[i] = as_rat(v)
            else:
                poly_vals[i] = v
        reg = self.reg
        tables, den = _rat_tables(self, rat_vals)
        polys = [(reg._shifts[i], val) for i, val in poly_vals.items()]
        cleared = sum(_FIELD << reg._shifts[i] for i in (*rat_vals, *poly_vals))
        content = self._c / den
        fast: dict = {}
        out = reg.zero()
        for e, v in self._t.items():
            for s, table in tables:
                v *= table[(e >> s) & _FIELD]
            rest = e & ~cleared
            poly_factors = [(val, (e >> s) & _FIELD) for s, val in polys if (e >> s) & _FIELD]
            if not poly_factors:
                acc = fast.get(rest, 0) + v
                if acc:
                    fast[rest] = acc
                else:
                    fast.pop(rest, None)
                continue
            term = _normed(reg, {rest: v} if v else {}, content)
            for val, k in poly_factors:
                term = term * (val**k)
            out = out + term
        return out + _normed(reg, fast, content)

    def eval(self, point: dict) -> Rat:
        """Evaluate at a full rational point {name: Fraction}."""
        vals = {self._vidx(name): as_rat(v) for name, v in point.items()}
        used = reduce(or_, self._t, 0)
        for i, s in enumerate(self.reg._shifts):
            if (used >> s) & _FIELD and i not in vals:
                raise UsageError(f"no value supplied for {self.reg.names[i]}")
        tables, den = _rat_tables(self, vals)
        total = 0
        for e, v in self._t.items():
            for s, table in tables:
                v *= table[(e >> s) & _FIELD]
            total += v
        return self._c * total / den

    def permute_vars(self, mapping: dict) -> "MPoly":
        """Rename variables within the same registry, {old_name: new_name}."""
        reg = self.reg
        perm = list(range(len(reg.names)))
        for old, new in mapping.items():
            perm[self._vidx(old)] = self._vidx(new)
        out: dict = {}
        for e, v in self._t.items():
            e2 = [0] * len(perm)
            for i, k in enumerate(reg._unpack(e)):
                e2[perm[i]] += k
            key = reg._pack(e2)
            out[key] = out.get(key, 0) + v
        return _normed(reg, {e: v for e, v in out.items() if v}, self._c)

    # -- serialization -----------------------------------------------------

    def to_str(self) -> str:
        """Serialize per the grammar ``3/2*z1^2*t - 1*nu0``."""
        if not self._t:
            return "0"
        names, shifts = self.reg.names, self.reg._shifts
        num, den = self._c.numerator, self._c.denominator
        parts = []
        for e in sorted(self._t, reverse=True):
            c = Fraction(num * self._t[e], den)
            factors = []
            for name, s in zip(names, shifts):
                k = (e >> s) & _FIELD
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mag = abs(c)
            body = "*".join([str(mag)] + factors) if factors else str(mag)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    __repr__ = to_str
    __str__ = to_str

    def __hash__(self):
        return hash((self.reg, tuple(sorted(self.terms.items()))))


class _TermsView(Mapping):
    """Read-only ``{exponent tuple: Fraction}`` view of one MPoly, built on first use."""

    __slots__ = ("_reg", "_t", "_c", "_d")

    def __init__(self, reg: Registry, t: dict, c: Fraction):
        self._reg, self._t, self._c, self._d = reg, t, c, None

    def _dict(self) -> dict:
        if self._d is None:
            unpack, num, den = self._reg._unpack, self._c.numerator, self._c.denominator
            self._d = {unpack(e): Fraction(num * v, den) for e, v in self._t.items()}
        return self._d

    def __len__(self):
        return len(self._t)

    def __iter__(self):
        return iter(self._dict())

    def __getitem__(self, key):
        return self._dict()[key]

    def items(self):
        return self._dict().items()


def _new(reg: Registry, t: dict, c: Fraction) -> MPoly:
    """An MPoly from packed terms that are already primitive."""
    p = object.__new__(MPoly)
    p.reg, p._t, p._c, p._view = reg, t, c, None
    return p


def _normed(reg: Registry, t: dict, c: Fraction) -> MPoly:
    """An MPoly from packed int terms, moving their gcd into the content."""
    if t:
        g = math.gcd(*t.values())
        if g != 1:
            t = {e: v // g for e, v in t.items()}
            c = c * g
    return _new(reg, t, c)


def _check_fields(reg: Registry, t: dict):
    if reduce(or_, t, 0) & reg._guard:
        raise UsageError(f"exponent overflow: a result exponent exceeds {MAX_EXPONENT}")


def _rat_tables(p: MPoly, vals: dict):
    """Integer tables for substituting rationals into p.

    For each variable of p with value a/b and degree D: its shift and
    ``{k: a^k * b^(D-k)}`` over the exponents k that occur.  Multiplying a
    term by the entry of every variable and dividing by the returned
    ``prod b^D`` substitutes the values, with integers only.
    """
    tables = []
    den = 1
    for i, val in vals.items():
        s = p.reg._shifts[i]
        ks = {(e >> s) & _FIELD for e in p._t}
        deg = max(ks, default=0)
        if deg:
            a, b = val.numerator, val.denominator
            tables.append((s, {k: a**k * b ** (deg - k) for k in ks}))
            den *= b**deg
    return tables, den


def _int_content_gcd(*polys: MPoly) -> Fraction:
    """Positive rational g such that dividing every coefficient by g yields
    coprime integers (used for cheap size control; exactness preserved).

    The int part of every MPoly is primitive, so g is the gcd of the contents.
    """
    num_gcd = 0
    den_lcm = 1
    for p in polys:
        if p._t:
            num_gcd = math.gcd(num_gcd, p._c.numerator)
            den_lcm = math.lcm(den_lcm, p._c.denominator)
    if num_gcd == 0:
        return Fraction(1)
    return Fraction(num_gcd, den_lcm)


def _field_min(a: int, b: int, guard: int) -> int:
    """Fieldwise minimum of two packed exponents."""
    ge = ((a | guard) - b) & guard  # guard bit stays set where a >= b
    take_b = ge - (ge >> (FIELD_BITS - 1))
    return (b & take_b) | (a & ~take_b)


def _monomial_content(p: MPoly) -> int:
    """Packed fieldwise minimum of p's exponents: the largest monomial dividing p."""
    guard = p.reg._guard
    it = iter(p._t)
    mins = next(it, 0)
    for e in it:
        mins = _field_min(mins, e, guard)
        if not mins:
            break
    return mins


def _shift_down(p: MPoly, mono: int) -> MPoly:
    return _new(p.reg, {e - mono: v for e, v in p._t.items()}, p._c)


def _primitive(p: list) -> list:
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _uni_gcd(a: list, b: list) -> list:
    """Primitive gcd of two univariate integer polynomials given as
    coefficient lists, constant term first (primitive remainder sequence)."""
    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = _primitive(trim(list(a))), _primitive(trim(list(b)))
    while b:
        # a := pseudo-remainder of a by b
        while len(a) >= len(b):
            lead, f, shift = b[-1], a[-1], len(a) - len(b)
            a = [c * lead for c in a]
            for i, c in enumerate(b):
                a[shift + i] -= f * c
            trim(a)
        a, b = b, _primitive(a)
    return a


def _univariate_cancel(num: MPoly, den: MPoly):
    """When den involves a single variable, cancel the shared univariate
    content of num and den (cheap Euclid; multivariate gcd stays avoided).

    Euclid runs on the int parts over the integers: neither a content nor a
    constant factor changes which polynomial is cancelled.
    """
    used = reduce(or_, den._t, 0)
    active = [s for s in den.reg._shifts if (used >> s) & _FIELD]
    if len(active) != 1:
        return num, den
    s = active[0]
    others = ~(_FIELD << s)
    groups: dict = {}
    for e, c in num._t.items():
        groups.setdefault(e & others, {})[(e >> s) & _FIELD] = c
    g = [den._t.get(k << s, 0) for k in range(max(e >> s for e in den._t) + 1)]
    for coeffs in groups.values():
        g = _uni_gcd(g, [coeffs.get(k, 0) for k in range(max(coeffs) + 1)])
        if len(g) <= 1:
            return num, den
    gpoly = _new(den.reg, {k << s: c for k, c in enumerate(g) if c}, Fraction(1, g[-1]))
    return exact_div(num, gpoly), exact_div(den, gpoly)


class RatFun:
    """Rational function num/den with cross-multiplication equality.

    ``den`` is never the zero polynomial.  No polynomial gcd is ever taken;
    construction only strips shared rational content, a shared monomial
    factor, and fixes the sign of the leading denominator coefficient so that
    serialization is deterministic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in RatFun")
        num._check(den)
        if num.is_zero():
            den = den.reg.one()
        else:
            shared = 0 if 0 in den._t else _monomial_content(num)
            if shared:
                shared = _field_min(shared, _monomial_content(den), den.reg._guard)
            if shared:
                num = _shift_down(num, shared)
                den = _shift_down(den, shared)
            if len(den._t) > 1:
                num, den = _univariate_cancel(num, den)
            g = _int_content_gcd(num, den)
            if g != 1:
                num = num * (1 / g)
                den = den * (1 / g)
        if (den._c < 0) != (den._t[max(den._t)] < 0):  # negative leading coefficient
            num = -num
            den = -den
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_mpoly(cls, p: MPoly) -> "RatFun":
        return cls(p, p.reg.one())

    @classmethod
    def const(cls, reg: Registry, c) -> "RatFun":
        return cls(reg.const(c), reg.one())

    @classmethod
    def var(cls, reg: Registry, name: str) -> "RatFun":
        return cls(reg.var(name), reg.one())

    # -- predicates ---------------------------------------------------------

    @property
    def reg(self) -> Registry:
        return self.num.reg

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def equal(self, other: "RatFun") -> bool:
        """a/b == c/d decided by a*d - c*b == 0."""
        other = as_ratfun(other, self.reg)
        return (self.num * other.den - other.num * self.den).is_zero()

    def __eq__(self, other):
        if isinstance(other, (RatFun, MPoly, int, Fraction)):
            return self.equal(as_ratfun(other, self.reg))
        return NotImplemented

    def __hash__(self):
        raise TypeError("RatFun is unhashable (equality is extensional)")

    # -- field operations ----------------------------------------------------

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __add__(self, other):
        other = as_ratfun(other, self.reg)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return RatFun(self.num + other.num, self.den)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-as_ratfun(other, self.reg))

    def __rsub__(self, other):
        return (-self) + as_ratfun(other, self.reg)

    def __mul__(self, other):
        other = as_ratfun(other, self.reg)
        if self.is_zero() or other.is_zero():
            return RatFun(self.reg.zero(), self.reg.one())
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_ratfun(other, self.reg)
        if other.is_zero():
            raise ZeroDivisionError("division by zero RatFun")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return as_ratfun(other, self.reg) / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFun(self.den, self.num) ** (-n)
        return RatFun(self.num**n, self.den**n)

    # -- calculus -------------------------------------------------------------

    def deriv(self, name: str) -> "RatFun":
        """Quotient-rule derivative (n'd - nd')/d^2."""
        n, d = self.num, self.den
        return RatFun(n.partial(name) * d - n * d.partial(name), d * d)

    def subs(self, values: dict) -> "RatFun":
        return RatFun(self.num.subs(values), self.den.subs(values))

    def eval(self, point: dict) -> Rat:
        d = self.den.eval(point)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {point}")
        return self.num.eval(point) / d

    def to_str(self) -> str:
        if self.den.is_constant():
            c = self.den.constant_value()
            return (self.num * (1 / c)).to_str()
        return f"({self.num.to_str()}) / ({self.den.to_str()})"

    __repr__ = to_str
    __str__ = to_str


def as_ratfun(x, reg: Registry) -> RatFun:
    """A RatFun as is, an MPoly over one, an int or Fraction as a constant over ``reg``."""
    if isinstance(x, RatFun):
        return x
    if isinstance(x, MPoly):
        return RatFun.from_mpoly(x)
    if isinstance(x, (int, Fraction)):
        return RatFun.const(reg, x)
    raise UsageError(f"cannot coerce {x!r} to RatFun")


def exact_div(a: MPoly, b: MPoly) -> MPoly:
    """Divide a by b in the polynomial ring; raise ExactDivisionError on remainder.

    The int parts are primitive, so an exact quotient of them is again an
    integer polynomial (Gauss's lemma): a leading coefficient that does not
    divide is a remainder.
    """
    a._check(b)
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if b.is_constant():
        return a * (1 / b.constant_value())
    reg = a.reg
    guard = reg._guard
    quot: dict = {}
    rem = dict(a._t)
    lead_e = max(b._t)
    lead_c = b._t[lead_e]
    right = list(b._t.items())
    while rem:
        e = max(rem)
        if e & guard:
            _check_fields(reg, (e,))
        c = rem[e]
        de = (e | guard) - lead_e  # a guard bit is cleared where e < lead_e
        q, r = divmod(c, lead_c)
        if de & guard != guard or r:
            # the coefficient by its size: str() of an int over 4300 digits raises ValueError
            bits = (a._c * c).numerator.bit_length()
            raise ExactDivisionError(f"nonzero remainder: leading monomial {_new(reg, {e: 1}, _ONE)}, coefficient of {bits} bits")
        de -= guard
        quot[de] = quot.get(de, 0) + q
        for be, bc in right:
            ke = de + be
            s = rem.get(ke, 0) - q * bc
            if s:
                rem[ke] = s
            else:
                rem.pop(ke, None)
    return _new(reg, quot, a._c / b._c)


def solve_linear(rows, rhs):
    """Solve a (possibly overdetermined) exact linear system by elimination.

    rows: list of coefficient lists, rhs: list of values; an entry is a
    rational or a RatFun.  Returns the unique solution; raises UsageError if
    the system is inconsistent or the solution is underdetermined.
    """
    m = [[x if isinstance(x, RatFun) else Fraction(x) for x in (*r, v)] for r, v in zip(rows, rhs)]
    if not m:
        raise UsageError("empty linear system")
    ncols = len(m[0]) - 1
    row = 0
    pivots = []
    for col in range(ncols):
        piv = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    for r in range(row, len(m)):
        if m[r][ncols] != 0:
            raise UsageError("inconsistent linear system")
    if len(pivots) < ncols:
        raise UsageError("underdetermined linear system")
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = m[r][ncols]
    return sol


def _primes(n: int) -> list:
    """The first n primes."""
    out: list = []
    k = 2
    while len(out) < n:
        if all(k % p for p in out):
            out.append(k)
        k += 1
    return out


def fit(target, basis, names):
    """Coefficients c, free of the variables ``names``, with
    ``target == sum(c_i * basis_i)`` exactly, or None when there are none.

    The c_i (RatFuns in the other variables) solve the system at len(basis)
    probes: at probe j = 0, 1, ... the k-th name takes p/(p+1) for the prime p
    of index j len(names) + k (2 has index 0), so no probe value is 0 or 1 and
    no two are alike.  The identity is then confirmed exactly.  A singular
    system or a probe at a pole gives None.
    """
    target = as_ratfun(target, target.reg)
    basis = [as_ratfun(b, target.reg) for b in basis]
    primes = _primes(len(basis) * len(names))
    probes = [{n: Fraction(p, p + 1) for n, p in zip(names, primes[j * len(names) :])} for j in range(len(basis))]
    try:
        rows = [[b.subs(point) for b in basis] for point in probes]
        rhs = [target.subs(point) for point in probes]
    except ZeroDivisionError:  # a probe met a pole
        return None
    try:
        coeffs = solve_linear(rows, rhs) if basis else []
    except UsageError:  # singular at the probes
        return None
    rest = target
    for c, b in zip(coeffs, basis):
        rest = rest - c * b
    return coeffs if rest.is_zero() else None
