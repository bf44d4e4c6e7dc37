import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpverify import diffop, radial
from cpverify.cli import main
from cpverify.errors import ExactDivisionError, UsageError
from cpverify.exact import (
    MAX_EXPONENT,
    MPoly,
    RatFun,
    Registry,
    exact_div,
    parse_mpoly,
    ratfun_equal,
    session_registry,
    solve_linear,
)

REG = session_registry(2, seeds=("nu0", "nu1"))


def v(name):
    return REG.var(name)


def rationals():
    return st.fractions(min_value=-10, max_value=10, max_denominator=7)


# exponents this close to the field width still leave room for a product of three
WIDE = MAX_EXPONENT // 3


@st.composite
def mpolys(draw, max_terms=5, max_exp=3, wide=True):
    exps = st.integers(0, max_exp)
    if wide:
        exps = st.one_of(exps, st.integers(WIDE - 2, WIDE))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = tuple(draw(exps) for _ in REG.names)
        terms[exp] = draw(rationals())
    return MPoly(REG, terms)


def test_difference_of_squares():
    z1, t = v("z1"), v("t")
    assert (z1 + t) * (z1 - t) == z1 * z1 - t * t


@given(mpolys())
def test_additive_identity(p):
    assert p + REG.zero() == p


def test_binomial_cube():
    z1, z2 = v("z1"), v("z2")
    p = (z1 + z2) ** 3
    assert len(p.terms) == 4
    assert sorted(p.terms.values()) == [1, 1, 3, 3]


@settings(max_examples=60)
@given(mpolys(), mpolys(), mpolys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a


@given(mpolys())
def test_partials_commute(p):
    assert p.partial("z1").partial("t") == p.partial("t").partial("z1")


@settings(max_examples=60)
@given(mpolys(), mpolys())
def test_product_rule(f, g):
    lhs = (f * g).partial("z1")
    rhs = f * g.partial("z1") + g * f.partial("z1")
    assert lhs == rhs


def test_partial_examples():
    z1, z2, t = v("z1"), v("z2"), v("t")
    assert (z1 * z1 * z2).partial("z1") == 2 * z1 * z2
    assert REG.const(5).partial("t") == REG.zero()
    with pytest.raises(UsageError):
        z1.partial("w")


def test_registry_mismatch_rejected():
    other = Registry(("x",))
    with pytest.raises(UsageError):
        _ = v("z1") + other.var("x")


def test_ratfun_equal_examples():
    z1, z2, t = v("z1"), v("z2"), v("t")
    a = RatFun(REG.one(), z1 - z2)
    b = RatFun(z1 + z2, z1 * z1 - z2 * z2)
    assert ratfun_equal(a, b)
    assert ratfun_equal(RatFun(t, t * t), RatFun(REG.one(), t))
    assert not ratfun_equal(a, RatFun(REG.one(), z2 - z1))


@settings(max_examples=40)
@given(mpolys(wide=False), mpolys(wide=False), mpolys(wide=False))
def test_ratfun_equivalence_relation(a, b, c):
    den = v("t") + 1
    ra, rb, rc = (RatFun(p, den) for p in (a, b, c))
    scaled = RatFun(a * (v("z1") + 2), den * (v("z1") + 2))
    assert ra.equal(ra)
    assert ra.equal(scaled) and scaled.equal(ra)
    if ra.equal(rb) and rb.equal(rc):
        assert ra.equal(rc)


def test_ratfun_arith():
    z1, z2 = v("z1"), v("z2")
    w1 = RatFun(REG.one(), z1 - z2)
    w2 = RatFun(REG.one(), z2 - z1)
    assert (w1 + w2).is_zero()
    assert ratfun_equal(w1 * (z1 - z2), RatFun.const(REG, 1))
    assert ratfun_equal(1 / w1, RatFun.from_mpoly(z1 - z2))
    assert ratfun_equal(w1**2, RatFun(REG.one(), (z1 - z2) ** 2))


def test_ratfun_deriv():
    z1, z2 = v("z1"), v("z2")
    w = RatFun(REG.one(), z1 - z2)
    assert ratfun_equal(w.deriv("z1"), -(w**2))
    assert ratfun_equal(w.deriv("z2"), w**2)


def test_exact_div():
    z1, z2 = v("z1"), v("z2")
    q = exact_div(z1 * z1 - z2 * z2, z1 - z2)
    assert q == z1 + z2
    with pytest.raises(ExactDivisionError):
        exact_div(z1 * z1 + z2, z1 - z2)


def test_serialization_round_trip():
    p = Fraction(3, 2) * v("z1") ** 2 * v("t") - v("nu0")
    s = p.to_str()
    assert s == "3/2*z1^2*t - 1*nu0"
    assert parse_mpoly(REG, s) == p
    assert parse_mpoly(REG, "0") == REG.zero()
    assert parse_mpoly(REG, "-2/3*z2 + z1*z2^2") == -Fraction(2, 3) * v("z2") + v("z1") * v("z2") ** 2


@given(mpolys())
def test_round_trip_random(p):
    assert parse_mpoly(REG, p.to_str()) == p


def test_eval_and_subs():
    z1, t = v("z1"), v("t")
    p = z1 * z1 + t
    assert p.eval({"z1": Fraction(2), "z2": 0, "t": Fraction(1, 2), "nu0": 0, "nu1": 0}) == Fraction(9, 2)
    assert p.subs({"t": Fraction(-1)}) == z1 * z1 - 1
    assert p.subs({"z1": t}) == t * t + t


@settings(max_examples=40)
@given(mpolys(wide=False), rationals(), rationals())
def test_subs_matches_eval(p, a, b):
    # the rational fast path must agree with full evaluation
    partial = p.subs({"z1": a, "t": b})
    full_point = {"z1": a, "z2": Fraction(1, 3), "t": b, "nu0": Fraction(2), "nu1": Fraction(-1, 2)}
    assert partial.eval(full_point) == p.eval(full_point)
    mixed = p.subs({"z1": v("t") + 1, "t": b})
    assert mixed.eval(full_point | {"t": b}) == p.eval(full_point | {"z1": b + 1})


def test_permute_vars():
    z1, z2 = v("z1"), v("z2")
    p = z1 * z1 * z2
    assert p.permute_vars({"z1": "z2", "z2": "z1"}) == z2 * z2 * z1


def test_solve_linear():
    rows = [[1, 1], [1, -1], [2, 0]]
    rhs = [3, 1, 4]
    assert solve_linear(rows, rhs) == [Fraction(2), Fraction(1)]
    with pytest.raises(UsageError):
        solve_linear([[1, 1], [2, 2]], [1, 3])


# -- the packed/int kernel against a schoolbook tuple/Fraction reference ------


def ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def ref_div(a: dict, b: dict) -> dict:
    """Lex-leading-term division over Q; ExactDivisionError on a remainder."""
    quot = {}
    rem = dict(a)
    lead_e, lead_c = max(b.items())
    while rem:
        e, c = max(rem.items())
        de = tuple(x - y for x, y in zip(e, lead_e))
        if any(k < 0 for k in de):
            raise ExactDivisionError("remainder")
        q = c / lead_c
        quot[de] = quot.get(de, 0) + q
        for be, bc in b.items():
            ke = tuple(x + y for x, y in zip(de, be))
            s = rem.get(ke, 0) - q * bc
            if s:
                rem[ke] = s
            else:
                rem.pop(ke, None)
    return quot


def assert_same_terms(p: MPoly, ref: dict):
    assert dict(p.terms) == ref
    assert list(p.terms) == list(ref)  # the same term order, not only the same terms
    assert all(type(c) is Fraction for c in p.terms.values())


@settings(max_examples=80)
@given(mpolys(), mpolys())
def test_mul_matches_schoolbook(a, b):
    assert_same_terms(a * b, ref_mul(dict(a.terms), dict(b.terms)))


@settings(max_examples=80)
@given(mpolys(), mpolys(), rationals())
def test_add_matches_schoolbook(a, b, c):
    assert_same_terms(a + b, ref_add(dict(a.terms), dict(b.terms)))
    assert_same_terms(a - b, ref_add(dict(a.terms), {e: -v for e, v in b.terms.items()}))
    assert_same_terms(a * c, {e: v * c for e, v in a.terms.items() if v * c})


@settings(max_examples=80)
@given(mpolys(), mpolys(max_terms=3), mpolys(max_terms=2))
def test_exact_div_matches_schoolbook(q, b, r):
    if b.is_zero() or b.is_constant():
        return
    for a in (q * b, q * b + r):
        try:
            ref = ref_div(dict(a.terms), dict(b.terms))
        except ExactDivisionError:
            with pytest.raises(ExactDivisionError):
                exact_div(a, b)
        else:
            assert_same_terms(exact_div(a, b), ref)
    assert exact_div(q * b, b) == q


def test_exponent_overflow_raises():
    z1, z2 = v("z1"), v("z2")
    top = z1**MAX_EXPONENT
    assert top.degree_in("z1") == MAX_EXPONENT
    assert top.to_str() == f"1*z1^{MAX_EXPONENT}"
    with pytest.raises(UsageError):
        top * z1
    with pytest.raises(UsageError):
        (top + z2) ** 2
    with pytest.raises(UsageError):
        (top * z2**MAX_EXPONENT).permute_vars({"z1": "z2"})
    with pytest.raises(UsageError):
        MPoly(REG, {(MAX_EXPONENT + 1, 0, 0, 0, 0): Fraction(1)})
    with pytest.raises(UsageError):
        parse_mpoly(REG, f"z1^{MAX_EXPONENT + 1}")


def test_terms_view_is_read_only():
    p = v("z1") * Fraction(3, 2) + 1
    with pytest.raises(TypeError):
        p.terms[(0, 0, 0, 0, 0)] = Fraction(5)
    assert p.terms == {(1, 0, 0, 0, 0): Fraction(3, 2), (0, 0, 0, 0, 0): Fraction(1)}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_vandermonde_conjugation_iv_n3():
    # table1 IV gauged at N = 3, hbar = 2: the 1998-term over 972-term swell
    reg = session_registry(3)
    family = {"a": Fraction(2, 7), "b": Fraction(-1, 3), "c": Fraction(-1, 5), "d": Fraction(3, 11)}
    maps = diffop.table_params("IV", Fraction(2), "gauged", 2, 3, **family)
    thetas = {k: v for k, v in maps.items() if k in ("th", "th0", "th1", "th2", "tht", "k2")}
    ht = radial.build_radial_hamiltonian(reg, "IV", 3, Fraction(2), maps["kappa_choices"][0], **thetas)
    conj = diffop.conjugate_by_vandermonde(ht, maps["R"])
    c = conj.C
    assert (len(c.num.terms), len(c.den.terms), c.den.total_degree()) == (1998, 972, 53)
    text = "".join(x.to_str() + "\n" for x in [*conj.A, *conj.B, conj.C])
    assert _sha(text) == "b5733c56576b3f5c6bcd8b439fbc85bd54a9f10624f6797a2c7219e428bcb9c9"


def test_golden_print_hamiltonian_iv_n3(capsys):
    argv = ["print", "hamiltonian", "--family", "IV", "--kind", "cp", "--N", "3", "--m", "2", "--hbar", "2", "--params", "b=-1/3"]
    assert main(argv) == 0
    assert _sha(capsys.readouterr().out) == "ae45b2a99376cd3056df2c23371a6eee2cce213d631ad012b7d16731b5bbfc9c"


@settings(max_examples=40, deadline=None)
@given(mpolys(wide=False), mpolys(wide=False))
def test_mul_and_div_against_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(REG.names)

    def to_sympy(p):
        coeffs = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
        return sympy.Poly.from_dict(coeffs or {(0,) * len(syms): 0}, *syms, domain="QQ")

    assert to_sympy(a * b) == to_sympy(a) * to_sympy(b)
    assert to_sympy(a + b) == to_sympy(a) + to_sympy(b)
    if not b.is_zero():
        assert to_sympy(exact_div(a * b, b)) == to_sympy(a)
