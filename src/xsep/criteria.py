"""Separability criteria built on the product/partial-transposition equality.

The central object is the gap matrix

    gap(P1, P2) = (P1 P2)^G - P1^G P2^G

where ^G is partial transposition over the second subsystem. Ordinary
transposition distributes over products; partial transposition in general
does not, and the gap measures the failure. When the gap vanishes, a
determinant inequality on the transposed factors certifies separability
of the product state; `counterexample_state` shows the converse fails.

`pt_gap`, `theorem2_check` and `factor_report` take the gap and the
transposed factors from one `linalg.transposed_gap`. Theorem 2 and Corollary
1 share `_inequality`, whose left side is a polynomial in D = D1 D2 alone.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import bipartite, linalg, xstate
from .bipartite import BipartiteDims, partial_transpose
from .errors import EqualityHypothesisError, InvalidParams, NotDensityMatrix, NotHermitian
from .forms import DEFAULT_TOL, THEOREM2_RHS, _modulus, _times_pow2, theorem2_lhs

# Entries of the reference separable X state whose partial transpose is
# NOT the stated product of partially transposed factors. Both 2x2 block
# discriminants of the state vanish exactly: B1*D1 = |C1|^2 = 23/468 and
# A1*E1 = |F1|^2 = 23/468.
CX_A1 = 1.0 / 9.0
CX_B1 = 1.0 / 4.0
CX_C1 = (1.0 + 1j * math.sqrt(22.0)) / (2.0 * math.sqrt(117.0))
CX_D1 = 23.0 / 117.0
CX_E1 = 23.0 / 52.0
CX_F1 = (1.0 + 1j * math.sqrt(22.0)) / (6.0 * math.sqrt(13.0))
CX_F2 = (1.0 + 1j * math.sqrt(22.0)) / (3.0 * math.sqrt(117.0))
CX_C2 = (1.0 + 1j * math.sqrt(22.0)) / (4.0 * math.sqrt(13.0))

TWO_QUBITS = BipartiteDims(2, 2)


class InequalityCheck(NamedTuple):
    """Both sides of a determinant inequality plus the verdict lhs <= rhs."""

    lhs: float
    rhs: float
    satisfied: bool


@dataclass
class CriterionReport:
    """Aggregated verdicts for a two-qubit factor pair."""

    gap_frobenius: float
    gap_eigenvalues: np.ndarray | None
    equality_holds: bool
    min_pt_eigenvalue: float
    theorem2_lhs: float
    theorem2_rhs: float
    theorem2_satisfied: bool
    ppt: bool
    concurrence: float | None


def pt_gap(p1: np.ndarray, p2: np.ndarray, dims) -> np.ndarray:
    """(P1 P2)^G - P1^G P2^G."""
    return linalg.transposed_gap(p1, p2, BipartiteDims.of(dims))[0]


def equality_holds(p1: np.ndarray, p2: np.ndarray, dims, tol: float = DEFAULT_TOL) -> bool:
    """True iff the gap matrix vanishes in Frobenius norm within tol."""
    return linalg.frobenius_norm(pt_gap(p1, p2, dims)) <= tol


def tarazaga_pd(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Sufficient positive-definiteness test: Tr(A) > sqrt(d-1) * ||A||_F.

    A True answer certifies that the Hermitian matrix is positive
    definite; False is inconclusive. Raises XsepError on a non-finite entry
    and NotHermitian if A is not Hermitian within tol. Both sides are taken
    on the symmetrised rows in `_scaled_norm`'s units, 2**e with e the
    exponent of their largest modulus, so neither overflows: an inf trace
    would certify.
    """
    h = linalg._checked_rows(a, tol, "Tarazaga test input")
    r, e = linalg._scaled_norm([z for row in h for z in row])
    trace = linalg._trace([math.ldexp(row[i].real, -e) for i, row in enumerate(h)]).real
    return trace > math.sqrt(len(h) - 1) * r


def _real_det(a: np.ndarray, name: str) -> float:
    d = linalg.det(a)
    if not (math.isfinite(d.real) and math.isfinite(d.imag)):
        raise InvalidParams(f"det({name}) overflows: got {d!r}")
    # |Im d| > tol * (1 + |d|), halved: |d/2| of a finite d cannot overflow.
    if 0.5 * math.fabs(d.imag) > DEFAULT_TOL * (0.5 + _modulus(0.5 * d)):
        raise InvalidParams(
            f"det({name}) = {d!r} has a significant imaginary part; "
            "the determinant criteria expect Hermitian-symmetric factors"
        )
    return d.real


def _inequality(p1_pt: np.ndarray, p2_pt: np.ndarray, lhs_of: Callable[[float], float],
                rhs: float) -> InequalityCheck:
    """The verdict lhs_of(D1 D2) <= rhs, D_i = det(P_i^G); InvalidParams if a side overflows."""
    d1, d2 = _real_det(p1_pt, "p1^G"), _real_det(p2_pt, "p2^G")
    try:
        lhs = lhs_of(d1 * d2)
    except OverflowError:
        lhs = math.inf
    if not math.isfinite(lhs):
        raise InvalidParams(f"the inequality's left side overflows at D1 = {d1!r}, D2 = {d2!r}")
    return InequalityCheck(lhs, rhs, lhs <= rhs)


def theorem2_check(p1: np.ndarray, p2: np.ndarray, tol: float = DEFAULT_TOL) -> InequalityCheck:
    """Two-qubit separability inequality on a factor pair.

    With D_i = det(P_i^G) the criterion is

        81 D1^3 D2^3 + 512 D1 D2 <= 2^11 / 9.

    It applies only when the factors satisfy the transposition equality,
    so the gap norm is checked first, and a NaN norm fails; a satisfied verdict is a
    sufficient condition for separability of the 4x4 product state, never necessary.
    """
    gap, _, _, p1_pt, p2_pt = linalg.transposed_gap(p1, p2, TWO_QUBITS)
    gap_norm = linalg.frobenius_norm(gap)
    if not gap_norm <= tol:
        raise EqualityHypothesisError(
            f"factor pair violates the transposition equality (gap norm "
            f"{gap_norm:.3e} > tol {tol:.3e}); check equality_holds() first"
        )
    return _inequality(p1_pt, p2_pt, theorem2_lhs, THEOREM2_RHS)


@functools.cache
def _corollary1_rhs(n: int) -> float:
    """The largest float not above n^((3n-1)/2) / (n-1)^(n/2), or the float maximum past it.

    r = isqrt(4^53 n^(3n-1) // (n-1)^n) is the floor of 2^53 times the bound,
    of at least 53 bits as the bound exceeds 1; cut to its leading 53 bits
    and scaled back by 2^-53, r is the bound rounded toward zero.
    """
    r = math.isqrt((n ** (3 * n - 1) << 106) // (n - 1) ** n)
    s = r.bit_length() - 53
    return min(_times_pow2(r >> s, s - 53), sys.float_info.max)


def corollary1_check(p1: np.ndarray, p2: np.ndarray, dims) -> InequalityCheck:
    """Higher-dimensional analogue of the determinant inequality.

    For factors of order m*n with m, n >= 3, D_i = det(P_i^G) and D = D1 D2:

        (n-1)^n D^3 + 2 n^n D <= n^((3n-1)/2) / (n-1)^(n/2)

    certifies that the product state is PPT; the left side is that of the
    float D, and the right side is the largest float not above the bound. It
    uses only the second subsystem dimension n. The transposition equality is
    assumed, as in two qubits, but is the caller's to check here.
    """
    dims = BipartiteDims.of(dims)
    if dims.m < 3 or dims.n < 3:
        raise InvalidParams(
            f"criterion requires subsystem dimensions m, n >= 3, got "
            f"({dims.m}, {dims.n})"
        )
    n = dims.n
    return _inequality(
        partial_transpose(p1, dims), partial_transpose(p2, dims),
        lambda prod: (n - 1.0) ** n * prod ** 3 + 2.0 * float(n) ** n * prod, _corollary1_rhs(n))


class DensityReport(NamedTuple):
    """Spectral summary of a state that passed `validate_density`."""

    trace: float
    min_eigenvalue: float
    min_pt_eigenvalue: float
    ppt: bool


def validate_density(rho: np.ndarray, dims, tol: float = DEFAULT_TOL) -> DensityReport:
    """Check that rho is a density matrix, then take the PPT verdict.

    A rho that does not fit dims raises DimensionMismatch, as
    `bipartite._square` words it. Then finiteness, Hermiticity,
    unit trace and positivity are checked in that order, the last three
    within tol, which a NaN (such as the trace inf - inf) fails; the first
    that fails raises NotDensityMatrix naming it.
    For 2x2 and 2x3 systems PPT decides separability exactly; in larger
    dimensions it only reports the PPT property.
    """
    rho, dims = bipartite._square(rho, dims)
    if where := linalg.nonfinite_entries(rho):
        raise NotDensityMatrix("finiteness", f"non-finite entries at {where}")
    rows = rho.tolist()
    defect, (i, j), h = linalg._hermitian_rows(rows)
    if not defect <= tol:
        raise NotDensityMatrix("hermiticity", f"entries ({i},{j})/({j},{i}) differ by {defect:.3e}")
    tr, unit = linalg._unit_trace([row[k] for k, row in enumerate(rows)], tol)
    if not unit:
        raise NotDensityMatrix("trace", f"trace is {tr!r}")
    # h, the symmetrised rho, is exactly Hermitian; neither spectrum checks
    # again. The partial transpose of h has the bits of the symmetrised partial
    # transpose of rho, and rho's Hermiticity defect.
    lowest = linalg._spectrum(h)[-1]
    if not lowest >= -tol:
        raise NotDensityMatrix("positivity", f"smallest eigenvalue {lowest:.3e}")
    min_pt = linalg._spectrum(bipartite._transposed_rows(h, dims))[-1]
    return DensityReport(tr.real, lowest, min_pt, min_pt >= -tol)


def ppt_verdict(rho: np.ndarray, dims, tol: float = DEFAULT_TOL) -> bool:
    """True iff the density matrix rho is PPT; checks and raises as `validate_density`."""
    return validate_density(rho, dims, tol).ppt


def counterexample_state() -> np.ndarray:
    """A separable two-qubit X state with both block discriminants exactly zero."""
    return xstate.XMatrix(
        CX_A1, CX_B1, CX_D1, CX_E1, c14=CX_F1.conjugate(), c23=CX_C1.conjugate()
    ).matrix()


def counterexample_pt_product() -> np.ndarray:
    """The product of partially transposed factors for the reference state.

    This is the matrix the equality would force the partial transpose of
    `counterexample_state` to be; the two differ, which is the point.
    """
    return xstate.XMatrix(
        CX_A1, CX_B1, CX_E1, CX_D1, c14=CX_F2.conjugate(), c23=CX_C2.conjugate()
    ).matrix()


def counterexample_gap() -> np.ndarray:
    """rho^G minus the stated factor product; nonzero, witnessing the failed converse."""
    return partial_transpose(counterexample_state(), TWO_QUBITS) - counterexample_pt_product()


def factor_report(p1: np.ndarray, p2: np.ndarray, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Evaluate every criterion on a 4x4 factor pair with Hermitian product.

    The determinant inequality sides are reported unconditionally (the
    equality verdict says whether its hypothesis held); the concurrence,
    `xstate.matrix_concurrence` of the product, is included only when the
    product is X shaped and of trace 1 within tol. The positivity of the
    pair and of the product is not checked: a product that is not PSD still
    gets its `ppt`, `min_pt_eigenvalue` and concurrence values.
    """
    gap, prod, prod_pt, p1_pt, p2_pt = linalg.transposed_gap(p1, p2, TWO_QUBITS)
    gap_norm = linalg.frobenius_norm(gap)
    try:
        gap_eigs = linalg.hermitian_eigenvalues(gap, tol)
    except NotHermitian:
        gap_eigs = None
    min_pt = linalg.min_eigenvalue(prod_pt, tol)
    theorem2 = _inequality(p1_pt, p2_pt, theorem2_lhs, THEOREM2_RHS)
    return CriterionReport(
        gap_frobenius=gap_norm,
        gap_eigenvalues=gap_eigs,
        equality_holds=gap_norm <= tol,
        min_pt_eigenvalue=min_pt,
        theorem2_lhs=theorem2.lhs,
        theorem2_rhs=THEOREM2_RHS,
        theorem2_satisfied=theorem2.satisfied,
        ppt=min_pt >= -tol,
        concurrence=xstate.matrix_concurrence(prod, tol),
    )
