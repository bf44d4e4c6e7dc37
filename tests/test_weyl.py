import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpverify import checks, weyl
from cpverify.errors import UsageError
from cpverify.exact import RatFun
from cpverify.weyl import (
    NCMatrix,
    NCPoly,
    WeylAlgebra,
    _letter_key,
    build_quantum_hamiltonian,
    check_worked_commutator,
    commutator,
    d_dt_free,
    evaluate_expression,
    evolution_polynomials,
    lax_blocks,
    lax_pair,
    poisson_bracket,
    trace_identity_residuals,
    verify_eom_vi,
    verify_zero_curvature,
)

ALG2 = WeylAlgebra(2)
HB = ALG2.registry.var("hbar")


def test_normal_order_examples():
    # p11 q11 -> q11 p11 + hbar
    assert ALG2.p(1, 1) * ALG2.q(1, 1) == ALG2.q(1, 1) * ALG2.p(1, 1) + ALG2.scalar(HB)
    # q12 p21 is already ordered
    x = ALG2.q(1, 2) * ALG2.p(2, 1)
    assert list(x.terms) == [(("q", 1, 2), ("p", 2, 1))]
    # p12 q12: delta_il delta_jk = 0, pure swap
    assert ALG2.p(1, 2) * ALG2.q(1, 2) == ALG2.q(1, 2) * ALG2.p(1, 2)


@st.composite
def nc_polys(draw):
    letters = [("q", 1, 1), ("q", 1, 2), ("q", 2, 1), ("p", 1, 1), ("p", 1, 2), ("p", 2, 2)]
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        word = tuple(draw(st.sampled_from(letters)) for _ in range(draw(st.integers(0, 3))))
        terms[word] = ALG2.registry.const(draw(st.integers(-3, 3)))
    from cpverify.weyl import NCPoly

    return NCPoly(ALG2, terms)


@settings(max_examples=25, deadline=None)
@given(nc_polys())
def test_normal_order_idempotent(x):
    # construction already normalizes: a product with the identity leaves x as it is
    assert ALG2.one() * x == x == x * ALG2.one()


@settings(max_examples=15, deadline=None)
@given(nc_polys(), nc_polys(), nc_polys())
def test_jacobi_and_leibniz(a, b, c):
    jac = commutator(a, commutator(b, c)) + commutator(b, commutator(c, a)) + commutator(c, commutator(a, b))
    assert jac.is_zero()
    assert commutator(a, b * c) == commutator(a, b) * c + b * commutator(a, c)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_trace_identities(N):
    for name, diff in trace_identity_residuals(N):
        assert diff.is_zero(), f"N={N}: identity failed: {name}"


def test_trace_identity_values_n2():
    # Tr(pq) - Tr(qp) = hbar N^2 = 4 hbar at N=2
    alg = WeylAlgebra(2)
    d = alg.trace_word("pq") - alg.trace_word("qp")
    assert d == alg.scalar(4 * alg.registry.var("hbar"))


def test_trace_identities_classical_limit():
    alg = WeylAlgebra(2)
    pairs = [("pq", "qp"), ("pqp", "qpp"), ("qpq", "qqp"), ("pqq", "qqp"), ("ppqq", "qqpp")]
    for left, right in pairs:
        d = (alg.trace_word(left) - alg.trace_word(right)).map_coeffs(lambda c: c.subs({"hbar": 0}))
        assert d.is_zero()


@pytest.mark.parametrize("N", [1, 2, 3])
def test_worked_commutator(N):
    rep = check_worked_commutator(N)
    assert rep["derived_ok"], "derived identity 2*hbar*pqp + hbar^2*N*p must hold"
    assert rep["classical_ok"]
    # printed remainder hbar^2*p is the N=1 specialization
    assert rep["printed_ok"] == (N == 1)


@pytest.mark.parametrize("N", [1, 2])
def test_kinetic_commutator(N):
    # [Tr(p^2)/2, q] = hbar p entrywise
    alg = WeylAlgebra(N)
    hb = alg.registry.var("hbar")
    h = alg.trace_word("pp").scale(Fraction(1, 2))
    P, Q = alg.matrix("p"), alg.matrix("q")
    for i in range(N):
        for j in range(N):
            assert commutator(h, Q.rows[i][j]) == P.rows[i][j].scale(hb)


def test_quantum_hamiltonian_contains_printed_terms():
    alg = WeylAlgebra(2)
    h4, _ = build_quantum_hamiltonian(alg, "IV")
    # contains -(pq^2 + q^2 p)/2: after normal ordering the q,q,p word
    # q11 q11 p11 shows up with coefficient -1 + (reordering corrections)
    assert not h4.is_zero()
    h6, clears = build_quantum_hamiltonian(alg, "VI")
    assert clears == alg.registry.var("t") * (alg.registry.var("t") - 1)
    with pytest.raises(Exception):
        build_quantum_hamiltonian(alg, "VII")


@pytest.mark.parametrize("N", [1, 2])
def test_eom_vi(N):
    rep = verify_eom_vi(N)
    assert rep["ok"], rep["failures"][:1]


def test_eom_vi_classical_limit_n1():
    # N=1 commutative check: {t(t-1)H_VI, q} = t(t-1)A, {., p} = t(t-1)B
    alg = WeylAlgebra(1, mode="classical")
    ham = build_quantum_hamiltonian(alg, "VI")[0]
    amat, bmat = evolution_polynomials(alg)
    q = alg.q(1, 1)
    p = alg.p(1, 1)
    assert poisson_bracket(ham, q) == amat.rows[0][0]
    assert poisson_bracket(ham, p) == bmat.rows[0][0]


def test_zero_curvature():
    *structure, (label, ok, offenders) = verify_zero_curvature()
    assert len(structure) == 6 and all(ok for _, ok, _ in structure), structure
    assert label is None and ok, offenders[:3]


def test_schrodinger_representation_oracle():
    # Independent check of the rewriting engine: realize q_ij as multiplication
    # and p_ij as hbar d/dq_ji on polynomials in the q-entries, and compare the
    # action of a normal-ordered element with the action of its raw words.
    import itertools

    from cpverify.exact import Registry

    N = 2
    reg = Registry([f"q{i}{j}" for i in range(1, N + 1) for j in range(1, N + 1)] + ["hbar"])
    hb = reg.var("hbar")

    def act_word(word, f):
        for kind, i, j in reversed(word):
            f = reg.var(f"q{i}{j}") * f if kind == "q" else hb * f.partial(f"q{j}{i}")
        return f

    def act(x, f):
        out = reg.zero()
        for w, c in x.terms.items():
            cc = reg.zero()
            for e, k in c.terms.items():
                cc = cc + k * hb ** e[0]  # hbar is the only parameter used here
            out = out + cc * act_word(w, f)
        return out

    def act_trace(letters, f):
        out = reg.zero()
        for idx in itertools.product(range(1, N + 1), repeat=len(letters)):
            w = tuple((letters[k], idx[k], idx[(k + 1) % len(letters)]) for k in range(len(letters)))
            out = out + act_word(w, f)
        return out

    alg = WeylAlgebra(N)
    states = [reg.one(), reg.var("q11") ** 2 * reg.var("q22"), reg.var("q12") * reg.var("q21") ** 2]
    for f in states:
        word = (("p", 1, 1), ("q", 1, 1), ("p", 2, 1))
        assert act(alg.p(1, 1) * alg.q(1, 1) * alg.p(2, 1), f) == act_word(word, f)
        for letters in ("ppqq", "qpqpq"):
            assert act(alg.trace_word(letters), f) == act_trace(letters, f)
        lhs = commutator(alg.p(1, 2), alg.trace_word("pqpq"))
        direct = act_word((("p", 1, 2),), act_trace("pqpq", f)) - act_trace(
            "pqpq", act_word((("p", 1, 2),), f)
        )
        assert act(lhs, f) == direct


def test_matrix_product_associativity():
    import random

    rng = random.Random(8)
    alg = WeylAlgebra(2)
    from cpverify.weyl import NCMatrix

    def rand_matrix():
        ents = []
        for _ in range(2):
            row = []
            for _ in range(2):
                x = alg.scalar(rng.randint(-2, 2))
                for _ in range(rng.randint(0, 2)):
                    kind = rng.choice("pq")
                    x = x * alg.letter(kind, rng.randint(1, 2), rng.randint(1, 2))
                row.append(x)
            ents.append(row)
        return NCMatrix(alg, ents)

    for _ in range(3):
        a, b, c = rand_matrix(), rand_matrix(), rand_matrix()
        assert ((a * b) * c - a * (b * c)).is_zero()


# ---------------------------------------------------------------------------
# Reference rules for the one-dict products
# ---------------------------------------------------------------------------

ALG1 = WeylAlgebra(1)
P11, Q11 = ("p", 1, 1), ("q", 1, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_normal_form_of_p_power_q_power_at_n1(m, n):
    # p^m q^n = sum_k k! C(m,k) C(n,k) hbar^k q^(n-k) p^(m-k)
    hb = ALG1.registry.var("hbar")
    expected = {
        (Q11,) * (n - k) + (P11,) * (m - k): hb**k * (math.factorial(k) * math.comb(m, k) * math.comb(n, k))
        for k in range(min(m, n) + 1)
    }
    assert NCPoly(ALG1, {(P11,) * m + (Q11,) * n: ALG1.unit}) == NCPoly(ALG1, expected, normalized=True)


def normalize_by_adjacent_swaps(alg, word):
    """The normal form by one adjacent swap at a time: p_ij q_kl = q_kl p_ij + hbar d_il d_jk."""
    for k in range(len(word) - 1):
        a, b = word[k], word[k + 1]
        if _letter_key(a) <= _letter_key(b):
            continue
        out = normalize_by_adjacent_swaps(alg, word[:k] + (b, a) + word[k + 2 :])
        if a[0] == "p" and b[0] == "q" and a[1] == b[2] and a[2] == b[1]:
            out = out + normalize_by_adjacent_swaps(alg, word[:k] + word[k + 2 :]).scale(alg.hbar)
        return out
    return NCPoly(alg, {word: alg.unit}, normalized=True)


LETTERS2 = [(kind, i, j) for kind in "pq" for i in (1, 2) for j in (1, 2)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(LETTERS2), max_size=6))
def test_normal_form_equals_the_adjacent_swap_rule(word):
    word = tuple(word)
    assert NCPoly(ALG2, {word: ALG2.unit}) == normalize_by_adjacent_swaps(ALG2, word)


def poisson_by_full_sum(a, b):
    """{a, b} as the full 2N^2-term sum of partials, each taken whether or not its letter occurs."""
    alg = a.alg

    def partial(x, letter):
        terms = {}
        for w, c in x.terms.items():
            for pos, l in enumerate(w):
                if l == letter:
                    key = w[:pos] + w[pos + 1 :]
                    terms[key] = terms[key] + c if key in terms else c
        return NCPoly(alg, terms)

    acc = alg.zero()
    for i in range(1, alg.N + 1):
        for j in range(1, alg.N + 1):
            pij, qji = ("p", i, j), ("q", j, i)
            acc = acc + partial(a, pij) * partial(b, qji) - partial(a, qji) * partial(b, pij)
    return acc


CL2 = WeylAlgebra(2, mode="classical")


@st.composite
def classical_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        word = tuple(draw(st.sampled_from(LETTERS2)) for _ in range(draw(st.integers(0, 3))))
        terms[word] = CL2.registry.const(draw(st.integers(-3, 3)))
    return NCPoly(CL2, terms)


@settings(max_examples=30, deadline=None)
@given(classical_polys(), classical_polys())
def test_poisson_bracket_equals_the_full_sum(a, b):
    assert poisson_bracket(a, b) == poisson_by_full_sum(a, b)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_poisson_bracket_of_the_hamiltonians_equals_the_full_sum(N):
    cl = WeylAlgebra(N, mode="classical")
    ham = build_quantum_hamiltonian(cl, "VI")[0]
    tr = cl.trace_word("pqpq")
    for x in (cl.q(1, N), cl.p(N, 1), tr):
        assert poisson_bracket(ham, x) == poisson_by_full_sum(ham, x)
        assert poisson_bracket(x, tr) == poisson_by_full_sum(x, tr)


FREE = WeylAlgebra(1, mode="free")


@st.composite
def free_polys(draw):
    t = FREE.coeff_var("t")
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        word = tuple(draw(st.sampled_from("PQ")) for _ in range(draw(st.integers(0, 3))))
        terms[word] = FREE.coeff(draw(st.integers(-3, 3))) + t * FREE.coeff(draw(st.integers(-2, 2)))
    return NCPoly(FREE, terms)


@settings(max_examples=30, deadline=None)
@given(free_polys(), free_polys())
def test_free_product_concatenates_words(x, y):
    expected = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            expected[w1 + w2] = expected[w1 + w2] + c1 * c2 if w1 + w2 in expected else c1 * c2
    assert x * y == NCPoly(FREE, expected)


def d_dt_by_products(x, adot, bdot):
    """The Leibniz rule as products: each letter of a word replaced by left * repl * right."""
    alg = x.alg
    out = alg.zero()
    for w, c in x.terms.items():
        out = out + NCPoly(alg, {w: c.deriv("t")}, normalized=True)
        for pos, letter in enumerate(w):
            left = NCPoly(alg, {w[:pos]: alg.coeff(1)}, normalized=True)
            right = NCPoly(alg, {w[pos + 1 :]: alg.coeff(1)}, normalized=True)
            out = out + (left * (adot if letter == "Q" else bdot) * right).scale(c)
    return out


@settings(max_examples=30, deadline=None)
@given(free_polys(), free_polys(), free_polys())
def test_d_dt_free_equals_the_product_rule(x, adot, bdot):
    assert d_dt_free(x, adot, bdot) == d_dt_by_products(x, adot, bdot)


def test_d_dt_free_of_the_lax_pair_equals_the_product_rule():
    amat, _ = lax_pair(lax_blocks(FREE))
    avec, bvec = evolution_polynomials(FREE)
    adot, bdot = avec.rows[0][0], bvec.rows[0][0]
    for row in amat.rows:
        for e in row:
            assert d_dt_free(e, adot, bdot) == d_dt_by_products(e, adot, bdot)


def test_a_trace_word_past_the_bound_is_a_usage_error():
    # N^letters index tuples: 2^17 at N = 2 is past 4^8; the power is checked before the word is built
    for N, text in ((2, "Tr(p^17)"), (2, "Tr(p^99999)"), (4, "Tr(p*q^8)"), (1, "Tr(p^17)")):
        with pytest.raises(UsageError, match="4\\^8 = 65536 index tuples"):
            evaluate_expression(WeylAlgebra(N), text)
    with pytest.raises(UsageError):
        WeylAlgebra(3).trace_word("pq" * 6)
    assert not WeylAlgebra(4).trace_word("pppp").is_zero()


def test_normal_ordering_past_the_bound_is_a_usage_error(monkeypatch):
    # Tr(p^8*q^8) at N = 2 is inside the trace bound, yet its cached normal forms passed 3 GB
    assert not evaluate_expression(WeylAlgebra(2), "Tr(p^4*q^4)").is_zero()  # caches 5719 terms
    monkeypatch.setattr(weyl, "MAX_NORMAL_TERMS", 1000)
    with pytest.raises(UsageError, match="1000 cached terms"):
        evaluate_expression(WeylAlgebra(2), "Tr(p^4*q^4)")


# ---------------------------------------------------------------------------
# Mutants of the weyl layer: each fails a record that passes unmutated
# ---------------------------------------------------------------------------


def _negated(fn):
    return lambda *args: -fn(*args)


def _right_factor_transposed(mul):
    def mutant(self, other):
        if isinstance(other, NCMatrix):
            other = NCMatrix(other.alg, [list(col) for col in zip(*other.rows)])
        return mul(self, other)

    return mutant


def _free_words_sorted(mul_into):
    def mutant(out, x, y):
        if x.alg.mode != "free":
            return mul_into(out, x, y)
        joined = {}
        mul_into(joined, x, y)
        for w, c in joined.items():
            weyl._accumulate(out, tuple(sorted(w, key=_letter_key)), c)

    return mutant


def _no_t_derivative(deriv):
    return lambda self, name: RatFun.const(self.reg, 0) if name == "t" else deriv(self, name)


WEYL_CATCHERS = {
    "weyl N=1": partial(checks.run_weyl, 1),
    "weyl N=2": partial(checks.run_weyl, 2),
    "eom N=2": partial(checks.run_eom, 2),
    "zero curvature": checks.run_zero_curvature,
}

# row -> (owner, attribute, mutant of the original, catcher).  At N = 1 the two
# transposition rows are equivalent mutants (every index is 1), so their
# catchers run at N = 2.  The derivative row drops d/dt of every coefficient,
# which only d_dt_free takes in the zero-curvature check.
WEYL_MUTANTS = {
    "drop the hbar contraction": (weyl, "_contracts", lambda f: lambda p, q: False, "weyl N=1"),
    "transpose the contraction's delta": (weyl, "_contracts", lambda f: lambda p, q: p[1] == q[1] and p[2] == q[2], "weyl N=2"),
    "flip the Poisson sign": (weyl, "poisson_bracket", _negated, "weyl N=1"),
    "drop c.deriv('t') in d_dt_free": (RatFun, "deriv", _no_t_derivative, "zero curvature"),
    "transpose an index in NCMatrix.__mul__": (NCMatrix, "__mul__", _right_factor_transposed, "eom N=2"),
    "sort free letters as if they commuted": (weyl, "_mul_into", _free_words_sorted, "zero curvature"),
}


@pytest.fixture(scope="module")
def unmutated_records():
    return {name: {r.name: r.ok for r in run()} for name, run in WEYL_CATCHERS.items()}


def test_the_weyl_catchers_pass_unmutated(unmutated_records):
    for name, recs in unmutated_records.items():
        assert recs and all(recs.values()), name


@pytest.mark.parametrize("row", sorted(WEYL_MUTANTS))
def test_a_weyl_mutant_fails_a_record_that_passes_unmutated(row, monkeypatch, unmutated_records):
    owner, attr, make, catcher = WEYL_MUTANTS[row]
    monkeypatch.setattr(owner, attr, make(getattr(owner, attr)))
    caught = [r.name for r in WEYL_CATCHERS[catcher]() if not r.ok and unmutated_records[catcher][r.name]]
    assert caught, f"{row} survives {catcher}"
