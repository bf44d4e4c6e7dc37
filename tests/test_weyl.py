from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpverify.weyl import (
    WeylAlgebra,
    build_quantum_hamiltonian,
    check_worked_commutator,
    commutator,
    evolution_polynomials,
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
    rep = verify_zero_curvature()
    assert all(ok for _, ok in rep["residue_checks"]), rep["residue_checks"]
    assert rep["ok"], rep["offenders"][:3]


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
