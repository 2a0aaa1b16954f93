"""Separability criteria built on the product/partial-transposition equality.

The central object is the gap matrix

    gap(P1, P2) = (P1 P2)^G - P1^G P2^G

where ^G is partial transposition over the second subsystem. Ordinary
transposition distributes over products; partial transposition in general
does not, and the gap measures the failure. When the gap vanishes, a
determinant inequality on the transposed factors certifies separability
of the product state; `counterexample_state` shows the converse fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import linalg, xstate
from .bipartite import BipartiteDims, partial_transpose
from .errors import (
    DimensionMismatch,
    EqualityHypothesisError,
    InvalidParams,
    NotDensityMatrix,
    NotHermitian,
)
from .linalg import DEFAULT_TOL

# Right-hand side of the two-qubit determinant inequality.
THEOREM2_RHS = 2.0 ** 11 / 9.0

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


def _evaluate(p1: np.ndarray, p2: np.ndarray, dims: BipartiteDims) -> tuple[np.ndarray, ...]:
    """The gap (P1 P2)^G - P1^G P2^G, P1 P2, (P1 P2)^G, P1^G and P2^G, each formed once."""
    prod = linalg.mul(p1, p2)
    prod_pt, p1_pt, p2_pt = (partial_transpose(a, dims) for a in (prod, p1, p2))
    return prod_pt - linalg.mul(p1_pt, p2_pt), prod, prod_pt, p1_pt, p2_pt


def _evaluate_two_qubits(p1: np.ndarray, p2: np.ndarray, needs: str) -> tuple[np.ndarray, ...]:
    """`_evaluate` on a 4x4 pair; otherwise DimensionMismatch, worded `needs`."""
    p1, p2 = np.asarray(p1, dtype=complex), np.asarray(p2, dtype=complex)
    if p1.shape != (4, 4) or p2.shape != (4, 4):
        raise DimensionMismatch(f"{needs} 4x4 factors, got {p1.shape} and {p2.shape}")
    return _evaluate(p1, p2, TWO_QUBITS)


def pt_gap(p1: np.ndarray, p2: np.ndarray, dims) -> np.ndarray:
    """(P1 P2)^G - P1^G P2^G."""
    return _evaluate(p1, p2, BipartiteDims.of(dims))[0]


def equality_holds(p1: np.ndarray, p2: np.ndarray, dims, tol: float = DEFAULT_TOL) -> bool:
    """True iff the gap matrix vanishes in Frobenius norm within tol."""
    return linalg.frobenius_norm(pt_gap(p1, p2, dims)) <= tol


def tarazaga_pd(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Sufficient positive-definiteness test: Tr(A) > sqrt(d-1) * ||A||_F.

    A True answer certifies that the Hermitian matrix is positive
    definite; False is inconclusive.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    defect, (i, j) = linalg.hermiticity_defect(a)
    if defect > tol:
        raise NotHermitian(
            f"test defined for Hermitian matrices; entries ({i},{j})/({j},{i}) "
            f"differ by {defect:.3e}",
            pair=(i, j),
        )
    d = a.shape[0]
    return linalg.trace(a).real > math.sqrt(d - 1) * linalg.frobenius_norm(a)


def _real_det(a: np.ndarray, name: str) -> float:
    d = linalg.det(a)
    if not (math.isfinite(d.real) and math.isfinite(d.imag)):
        raise InvalidParams(f"det({name}) overflows: got {d!r}")
    if abs(d.imag) > 1e-10 * (1.0 + abs(d)):
        raise InvalidParams(
            f"det({name}) = {d!r} has a significant imaginary part; "
            "the determinant criteria expect Hermitian-symmetric factors"
        )
    return d.real


def det_inequality_sides(p1: np.ndarray, p2: np.ndarray, dims) -> tuple[float, float]:
    """Determinant products (D1, D2) of the partially transposed factors."""
    dims = BipartiteDims.of(dims)
    d1 = _real_det(partial_transpose(p1, dims), "p1^G")
    d2 = _real_det(partial_transpose(p2, dims), "p2^G")
    return d1, d2


def theorem2_lhs(prod: float) -> float:
    """Left side 81 D^3 + 512 D of the two-qubit inequality, D = D1 D2.

    Takes a Python float: NumPy's elementwise power rounds differently
    from `**` on floats, so array callers apply this per element.
    """
    return 81.0 * prod ** 3 + 512.0 * prod


def _inequality(lhs_of: Callable[[float, float], float], d1: float, d2: float,
                rhs: float) -> InequalityCheck:
    """The verdict lhs_of(d1, d2) <= rhs; InvalidParams if the left side overflows."""
    try:
        lhs = lhs_of(d1, d2)
    except OverflowError:
        lhs = math.inf
    if not math.isfinite(lhs):
        raise InvalidParams(f"the inequality's left side overflows at D1 = {d1!r}, D2 = {d2!r}")
    return InequalityCheck(lhs, rhs, lhs <= rhs)


def _theorem2(p1_pt: np.ndarray, p2_pt: np.ndarray) -> InequalityCheck:
    """The two-qubit inequality on det(P1^G) and det(P2^G)."""
    d1, d2 = _real_det(p1_pt, "p1^G"), _real_det(p2_pt, "p2^G")
    return _inequality(lambda d1, d2: theorem2_lhs(d1 * d2), d1, d2, THEOREM2_RHS)


def theorem2_check(p1: np.ndarray, p2: np.ndarray, tol: float = DEFAULT_TOL) -> InequalityCheck:
    """Two-qubit separability inequality on a factor pair.

    With D_i = det(P_i^G) the criterion is

        81 D1^3 D2^3 + 512 D1 D2 <= 2^11 / 9.

    It applies only when the factors satisfy the transposition equality,
    so the gap norm is checked first; a satisfied verdict is a sufficient
    condition for separability of the 4x4 product state, never necessary.
    """
    gap, _, _, p1_pt, p2_pt = _evaluate_two_qubits(p1, p2, "two-qubit criterion needs")
    gap_norm = linalg.frobenius_norm(gap)
    if gap_norm > tol:
        raise EqualityHypothesisError(
            f"factor pair violates the transposition equality (gap norm "
            f"{gap_norm:.3e} > tol {tol:.3e}); check equality_holds() first"
        )
    return _theorem2(p1_pt, p2_pt)


def corollary1_check(p1: np.ndarray, p2: np.ndarray, dims) -> InequalityCheck:
    """Higher-dimensional analogue of the determinant inequality.

    For factors of order m*n with m, n >= 3 and D_i = det(P_i^G):

        (n-1)^n D1^3 D2^3 + 2 n^n D1 D2 <= n^((3n-1)/2) / (n-1)^(n/2)

    certifies that the product state is PPT. The inequality uses only the
    second subsystem dimension n. The transposition equality is assumed,
    as in the two-qubit case, but is the caller's responsibility here.
    """
    dims = BipartiteDims.of(dims)
    if dims.m < 3 or dims.n < 3:
        raise InvalidParams(
            f"criterion requires subsystem dimensions m, n >= 3, got "
            f"({dims.m}, {dims.n})"
        )
    p1 = np.asarray(p1, dtype=complex)
    p2 = np.asarray(p2, dtype=complex)
    if p1.shape != (dims.total, dims.total) or p2.shape != p1.shape:
        raise DimensionMismatch(
            f"factors must be {dims.total}x{dims.total} for dims ({dims.m},{dims.n})"
        )
    n = dims.n
    d1, d2 = det_inequality_sides(p1, p2, dims)
    rhs = float(n) ** ((3 * n - 1) / 2.0) / (n - 1.0) ** (n / 2.0)
    return _inequality(
        lambda d1, d2: (n - 1.0) ** n * (d1 ** 3) * (d2 ** 3) + 2.0 * float(n) ** n * d1 * d2,
        d1, d2, rhs,
    )


class DensityReport(NamedTuple):
    """Spectral summary of a state that passed `validate_density`."""

    trace: float
    min_eigenvalue: float
    min_pt_eigenvalue: float
    ppt: bool


def validate_density(rho: np.ndarray, dims, tol: float = DEFAULT_TOL) -> DensityReport:
    """Check that rho is a density matrix, then take the PPT verdict.

    Finiteness, then Hermiticity, unit trace and positivity are checked in
    that order, the last three within tol; the first that fails raises
    NotDensityMatrix naming it.
    For 2x2 and 2x3 systems PPT decides separability exactly; in larger
    dimensions it only reports the PPT property.
    """
    dims = BipartiteDims.of(dims)
    rho = np.asarray(rho, dtype=complex)
    where = linalg.nonfinite_entries(rho)
    if where:
        raise NotDensityMatrix(
            f"finiteness check failed: non-finite entries at {where}", check="finiteness"
        )
    defect, (i, j) = linalg.hermiticity_defect(rho)
    if defect > tol:
        raise NotDensityMatrix(
            f"hermiticity check failed: entries ({i},{j})/({j},{i}) differ by {defect:.3e}",
            check="hermiticity",
        )
    tr = linalg.trace(rho)
    if abs(tr - 1.0) > tol:
        raise NotDensityMatrix(f"trace check failed: trace is {tr!r}", check="trace")
    lowest = linalg.min_eigenvalue(rho, tol)
    if lowest < -tol:
        raise NotDensityMatrix(
            f"positivity check failed: smallest eigenvalue {lowest:.3e}",
            check="positivity",
        )
    min_pt = linalg.min_eigenvalue(partial_transpose(rho, dims), tol)
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
    equality verdict says whether its hypothesis held); the concurrence
    is included only when the product is an X state of trace 1 within tol.
    """
    gap, prod, prod_pt, p1_pt, p2_pt = _evaluate_two_qubits(p1, p2, "report is defined for")
    gap_norm = linalg.frobenius_norm(gap)
    try:
        gap_eigs = linalg.hermitian_eigenvalues(gap, tol)
    except NotHermitian:
        gap_eigs = None
    min_pt = linalg.min_eigenvalue(prod_pt, tol)
    theorem2 = _theorem2(p1_pt, p2_pt)
    conc = None
    if xstate.is_x_shaped(prod, tol) and abs(linalg.trace(prod) - 1.0) <= tol:
        conc = xstate.concurrence(xstate.XMatrix.from_matrix(prod, tol), trace_tol=tol)
    return CriterionReport(
        gap_frobenius=gap_norm,
        gap_eigenvalues=gap_eigs,
        equality_holds=gap_norm <= tol,
        min_pt_eigenvalue=min_pt,
        theorem2_lhs=theorem2.lhs,
        theorem2_rhs=THEOREM2_RHS,
        theorem2_satisfied=theorem2.satisfied,
        ppt=min_pt >= -tol,
        concurrence=conc,
    )
