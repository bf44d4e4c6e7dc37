import pytest

from cpverify.diffop import DiffOp, zvars
from cpverify.exact import RatFun


def _conjugate_term_by_term(op: DiffOp, R) -> DiffOp:
    """Delta^{-R} op Delta^{R} by plain RatFun arithmetic: each term added into B and C in turn."""
    zs = zvars(op.reg)[: op.N]
    out = DiffOp(op.A, op.B, op.C)
    for rho, zn in enumerate(zs):
        w = RatFun.const(op.reg, 0)
        for other in zs:
            if other != zn:
                w = w + 1 / (RatFun.var(op.reg, zn) - RatFun.var(op.reg, other))
        g = R * w
        out.B[rho] += op.A[rho] * 2 * g
        out.C += op.A[rho] * (g * g + g.deriv(zn))
        out.C += op.B[rho] * g
    return out


@pytest.fixture
def conjugate_term_by_term():
    """The reference conjugation that ``diffop.conjugate_by_vandermonde`` must equal."""
    return _conjugate_term_by_term
