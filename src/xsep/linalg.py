"""Dense complex matrix arithmetic and spectral routines.

Everything operates on square complex numpy arrays of modest dimension
(the rest of the package never needs more than ~16). Eigenvalues of
Hermitian matrices are computed with a cyclic Jacobi sweep, determinants
with LU and partial pivoting; both are self-contained so results do not
depend on the installed LAPACK.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NotHermitian, XsepError

# Default tolerance for Hermiticity / positive-semidefiniteness decisions.
DEFAULT_TOL = 1e-10

# Jacobi sweeps stop once every off-diagonal magnitude drops below
# JACOBI_RTOL times the Frobenius norm of the input.
JACOBI_RTOL = 1e-13

_MAX_JACOBI_SWEEPS = 100


def as_matrix(a, *, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a square complex matrix.

    Rejects non-square shapes and non-finite entries; always returns a
    fresh complex128 array.
    """
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise XsepError(f"{name} contains non-finite entries")
    return m


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two square matrices of equal dimension."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(
            f"incompatible operands: {a.shape} x {b.shape}"
        )
    return a @ b


def trace(a: np.ndarray) -> complex:
    """Sum of diagonal entries."""
    return complex(np.asarray(a).trace())


def frobenius_norm(a: np.ndarray) -> float:
    """Square root of the sum of squared entry magnitudes."""
    a = np.asarray(a)
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


def det(a: np.ndarray) -> complex:
    """Determinant via LU decomposition with partial pivoting.

    Returns exactly 0 when a pivot column vanishes. Valid for arbitrary
    (not necessarily Hermitian) square inputs.
    """
    m = np.array(a, dtype=complex)
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n:
        raise DimensionMismatch(f"determinant needs a square matrix, got {m.shape}")
    sign = 1.0
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(m[k:, k])))
        if m[p, k] == 0:
            return 0j
        if p != k:
            m[[k, p], :] = m[[p, k], :]
            sign = -sign
        m[k + 1:, k] /= m[k, k]
        m[k + 1:, k + 1:] -= np.outer(m[k + 1:, k], m[k, k + 1:])
    return complex(sign * np.prod(np.diag(m)))


def hermiticity_defect(a: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Largest |a[i,j] - conj(a[j,i])| and the entry pair achieving it."""
    a = np.asarray(a, dtype=complex)
    d = np.abs(a - a.conj().T)
    i, j = np.unravel_index(int(np.argmax(d)), d.shape)
    return float(d[i, j]), (int(i), int(j))


def _require_hermitian(a: np.ndarray, tol: float) -> np.ndarray:
    defect, (i, j) = hermiticity_defect(a)
    if defect > tol:
        raise NotHermitian(
            f"not Hermitian: entries ({i},{j}) and ({j},{i}) differ by "
            f"{defect:.3e} (tol {tol:.3e})",
            pair=(i, j),
        )
    # Symmetrize roundoff so the Jacobi sweep sees an exactly Hermitian matrix.
    return 0.5 * (a + a.conj().T)


def _jacobi_spectrum(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of an exactly Hermitian matrix by cyclic Jacobi rotations."""
    a = np.array(h, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real])
    thresh = JACOBI_RTOL * frobenius_norm(a)
    if thresh == 0.0:
        return np.zeros(n)
    for _ in range(_MAX_JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                b = abs(apq)
                if b <= thresh:
                    continue
                rotated = True
                phase = apq / b
                alpha = a[p, p].real
                gamma = a[q, q].real
                tau = (gamma - alpha) / (2.0 * b)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # Unitary V: V[p,p]=V[q,q]=c, V[p,q]=s*phase, V[q,p]=-s*conj(phase);
                # update a <- V^dagger a V on rows/columns p and q.
                col_p = c * a[:, p] - s * np.conj(phase) * a[:, q]
                col_q = s * phase * a[:, p] + c * a[:, q]
                a[:, p] = col_p
                a[:, q] = col_q
                row_p = c * a[p, :] - s * phase * a[q, :]
                row_q = s * np.conj(phase) * a[p, :] + c * a[q, :]
                a[p, :] = row_p
                a[q, :] = row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
        if not rotated:
            return np.diag(a).real.copy()
    raise ArithmeticError("Jacobi eigensolver did not converge")


def hermitian_eigenvalues(a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, sorted descending.

    The input must be Hermitian within `tol` (largest entry mismatch);
    degenerate eigenvalues are reported with multiplicity.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"eigensolver needs a square matrix, got {a.shape}")
    h = _require_hermitian(a, tol)
    w = _jacobi_spectrum(h)
    return np.sort(w)[::-1].copy()


def min_eigenvalue(a: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(hermitian_eigenvalues(a, tol)[-1])


def is_psd(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff `a` is Hermitian within `tol` and its smallest eigenvalue is >= -tol."""
    try:
        return min_eigenvalue(a, tol) >= -tol
    except NotHermitian:
        return False
