"""Acceptance suite: one test per criterion, each timed against its budget.

The blocks are ``checks.acceptance_matrix()``, the list ``cpverify suite
acceptance`` runs, at the suite's default settings.  Each record asserts its
own claim, including every solved correction, so a criterion holds when
every record of its blocks is ok.  Every criterion prints one PASS line
(visible with ``pytest -s``).  Where a printed identity holds only after an
explicitly solved correction, the line says so; the correction is part of
the record's assertion, never a silent fix.  Each criterion's records are
also pinned by digest.
"""

import hashlib
import json
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

# each criterion's records_digest: any moved name, verdict, resolved flag,
# residual or detail fails here, so the report stays byte-identical (a change
# that moves a record on purpose retakes the digest and says why)
DIGESTS = {
    1: "bcbe9197e59cb21da8f971107e24c2c15f555fa4af77df5568422d8e3ea8fb48",
    3: "0615fe6beb9bd39676f513f9dadcf1331787b526fe26bdc2f49b71b7a71d93d3",
    4: "405a3a649503bee2b444979979a4dabc83c0d51b3d229e748bad351c0dba1e9d",
    5: "1ea8a07210aeb56a234d4b7d530a2ca3422f81968716f47c55028be60a2d8997",
    6: "3a511d6380c62754ba15bdae2116aeff863dc1a71d6e2e317f9ef4b795329b0a",
    7: "f917534849f87a831e55eec00ea2302ba082fbd348e60feb09dbc0e1ff582082",
    8: "b05400930b1f4a20bf98b11007c3d3cafabf3cb3f0eef3809fc238c815a850b1",
    9: "5152134f9ad623c9d3528a897796e4e59ad05e4bf072523c09996b37e2ebfb2b",
    10: "a633a9c9cae303fadb44b305bd79f1b93ca979c5a2df6476afac78eea1cda4ec",
    11: "35c9bafe33f32c5f087d3929f2b25db652bdb2b5c04caeb5aa6a6184aa046213",
}


def records_digest(records):
    """sha256 of each record's name, ok, resolved, residual and detail, in order (its time ``ms`` left out)."""
    rows = [[r.name, r.ok, r.resolved, r.residual, r.detail] for r in records]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_every_block_belongs_to_a_criterion():
    assert {c for c, _, _ in MATRIX} == set(CRITERIA) == set(DIGESTS)


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
    assert records_digest([rec for _, rec in records]) == DIGESTS[criterion], f"criterion {criterion}: records changed"
    # each record carries the time of its own work, which the blocks' time bounds
    assert all(type(rec.ms) is int for _, rec in records)
    assert sum(rec.ms for _, rec in records) <= elapsed * 1000
    assert elapsed < budget, f"criterion {criterion}: {elapsed:.1f}s exceeds {budget}s budget"
    if criterion in WORST_OF:
        worst = max(mpmath.mpf(rec.residual) for tag, rec in records if tag == WORST_OF[criterion])
        lines = tuple(line.format(worst=mpmath.nstr(worst, 3)) for line in lines)
    for line in lines:
        print(line, flush=True)
