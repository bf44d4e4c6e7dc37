"""Acceptance suite: one test per criterion, each timed against its budget.

The blocks are ``checks.acceptance_matrix()``, the list ``cpverify suite
acceptance`` runs, at the suite's default settings.  Each record asserts its
own claim, including every solved correction, so a criterion holds when
every record of its blocks is ok.  Every criterion prints one PASS line
(visible with ``pytest -s``).  Where a printed identity holds only after an
explicitly solved correction, the line says so; the correction is part of
the record's assertion, never a silent fix.
"""

import time

import mpmath
import pytest

from cpverify import checks

MATRIX = checks.acceptance_matrix()


# criterion -> (budget in seconds, its PASS lines); the weyl blocks of
# criterion 1 also carry criterion 2, and {worst} is the largest residual of
# the blocks tagged WORST_OF[criterion]
CRITERIA = {
    1: (5, (
        "criterion 1: PASS - five trace-reordering identities exact for N = 1, 2, 3 with symbolic hbar",
        "criterion 2: PASS with documented correction - [p, Tr(pqpq)] = 2 hbar pqp + hbar^2 N p exactly for "
        "N = 2, 3 (printed constant hbar^2 p is its N = 1 value); classical bracket gives 2 pqp",
    )),
    3: (60, (
        "criterion 3: PASS - [t(t-1)H_VI, q] = hbar t(t-1) A and [.., p] = hbar t(t-1) B exactly at N = 2",
    )),
    4: (60, (
        "criterion 4: PASS - Lax residual vanishes identically in the free algebra; pole structure as printed",
    )),
    5: (60, (
        "criterion 5: PASS with documented correction - matrix operators equal the printed eigenvalue forms "
        "exactly on random rational points (N = 2, 3; families I..V and Tr(q^k p^2), k <= 3); family VI matches "
        "after the solved correction (printed z-coefficient -hbar(1+t) must read -2 hbar(1+t))",
    )),
    6: (30, (
        "criterion 6: PASS with documented correction - gauge conjugation exact for powers a = 0..3 at "
        "hbar in (1/2, 1/3, 2), both kappa branches, N = 2, 3; printed a = 2, 3 corrections need the solved "
        "prefactor lambda = hbar^2 - 1; the printed lemma theta is replaced by the solved "
        "3/2 - N - hbar(1+m) (they agree at N = 1 or hbar = 1)",
    )),
    7: (60, (
        "criterion 7: PASS with documented corrections - parameter table verified at hbar = 1 (ungauged) and "
        "hbar in (1/2, 2) (gauged, both kappa branches): II exact ungauged, gauged theta re-solved; III holds "
        "under the time reflection t -> -t; IV, V leave scalar-in-t gauge residuals only; VI holds with the "
        "printed ungauged k^2 = A and a re-solved gauged k^2 (printed B differs)",
    )),
    8: (5, (
        "criterion 8: PASS - multi-particle operators at N = 1 equal the single-particle ones under a = m hbar "
        "(plus b+c+d = (m-1) hbar for VI); negative control without the extra condition differs",
    )),
    9: (600, (
        "criterion 9: PASS - Schroedinger residual exactly zero for J = II..VI at (N,m) in "
        "{(1,1),(1,2),(2,1),(2,2)}, hbar = 1, and for II, IV at (2,2), hbar = 2; negative controls leave "
        "nonzero residuals; the solved time normalization is hbar N d/dt throughout",
    )),
    10: (600, (
        "criterion 10: PASS - numeric Schroedinger residual < 1e-6 (worst {worst}) for "
        "J = V, VI at hbar = 1/2, (N,m) = (2,2), two admissible (t, params) points each; the two dPhi/dt "
        "computations agree to 1e-8",
    )),
    11: (300, (
        "criterion 11: PASS - moment recursions validated numerically to 1e-10 (worst {worst}) "
        "for k = 0..6, all five families, three admissible points each; the determinant form matches the "
        "m-fold integral to 1e-8 at hbar = 1, m = 2",
    )),
}
WORST_OF = {10: "pde-numeric", 11: "oracle"}


def test_every_block_belongs_to_a_criterion():
    assert {c for c, _, _ in MATRIX} == set(CRITERIA)


@pytest.mark.parametrize(
    "criterion", [pytest.param(c, marks=pytest.mark.slow) if c in (10, 11) else c for c in CRITERIA], ids="criterion {}".format
)
def test_criterion(criterion):
    budget, lines = CRITERIA[criterion]
    start = time.monotonic()
    records = [(tag, rec) for c, tag, fn in MATRIX if c == criterion for rec in fn()]
    elapsed = time.monotonic() - start
    assert records
    failed = [(rec.name, rec.detail) for _, rec in records if not rec.ok]
    assert not failed, failed
    assert elapsed < budget, f"criterion {criterion}: {elapsed:.1f}s exceeds {budget}s budget"
    if criterion in WORST_OF:
        worst = max(mpmath.mpf(rec.residual) for tag, rec in records if tag == WORST_OF[criterion])
        lines = tuple(line.format(worst=mpmath.nstr(worst, 3)) for line in lines)
    for line in lines:
        print(line, flush=True)
