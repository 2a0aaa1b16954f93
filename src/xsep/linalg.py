"""Dense complex matrix arithmetic and spectral routines.

Everything operates on square complex numpy arrays of modest dimension
(the rest of the package never needs more than ~16). Spectra and
determinants first split the matrix on its zero pattern: a symmetric
permutation of the indices makes it block diagonal, one block per
connected component (an X matrix is two 2x2 blocks). 1x1 and 2x2 blocks
are solved in closed form, exact to a few ulps (`hermitian_2x2`, the one
2x2 Hermitian form, which `xstate` uses too); larger blocks go to
cyclic Jacobi rotations (eigenvalues) or LU with partial pivoting
(determinants). Jacobi runs on lists of Python complex, not NumPy rows:
each rotation updates two columns, mirrors them into the two rows by
conjugation, and keeps the diagonal as a list of floats. All of it is
self-contained: results do not depend on the installed LAPACK.
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

# Dekker's splitter 2**27 + 1: cuts a double into two halves whose products are exact.
_SPLIT = 134217729.0


def as_matrix(a, *, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a square complex matrix.

    Rejects non-square shapes and non-finite entries; always returns a
    fresh complex128 array.
    """
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    _require_finite(m, name)
    return m


def nonfinite_entries(a: np.ndarray) -> str:
    """The positions `(i,j)` of NaN or infinite entries, comma-separated; "" if none."""
    finite = np.isfinite(a)
    if finite.all():
        return ""
    return ", ".join(f"({i},{j})" for i, j in np.argwhere(~finite).tolist())


def _require_finite(a: np.ndarray, name: str) -> None:
    where = nonfinite_entries(a)
    if where:
        raise XsepError(f"{name} has non-finite entries at {where}")


def _components(a: np.ndarray) -> list[list[int]] | None:
    """Connected components of the nonzero pattern of a | a.T, as sorted index lists.

    Only exact zeros split. Returns None when there is a single component,
    which a row 0 without a zero entry settles after two NumPy calls.
    Permuting the indices component by component makes `a` block diagonal.
    """
    if np.count_nonzero(a[0]) == len(a):
        return None
    nonzero = (a != 0).tolist()
    seen = [False] * len(nonzero)
    components = []
    for start, done in enumerate(seen):
        if done:
            continue
        seen[start] = True
        component = [start]
        for i in component:  # grows while walked: a breadth-first search
            for j, edge in enumerate(nonzero[i]):
                if (edge or nonzero[j][i]) and not seen[j]:
                    seen[j] = True
                    component.append(j)
        components.append(sorted(component))
    return components if len(components) > 1 else None


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


def _scaled_norm(a: np.ndarray) -> tuple[float, int]:
    """(r, e) with ||a||_F = r * 2**e, e the exponent of the largest entry magnitude.

    The magnitudes are scaled by 2**-e, which brings the largest near 1,
    before they are squared, so no square overflows or underflows.
    """
    m = np.abs(np.asarray(a))
    e = math.frexp(float(m.max(initial=0.0)))[1]
    return math.sqrt(np.sum(np.square(np.ldexp(m, -e)))), e


def frobenius_norm(a: np.ndarray) -> float:
    """Square root of the sum of squared entry magnitudes.

    Summed in `_scaled_norm`'s units; in range, the result has the same
    bits as the unscaled sum.
    """
    r, e = _scaled_norm(a)
    # 2 * 2**(e-1) rather than math.ldexp(r, e): past the float range this is
    # inf, not an OverflowError.
    return 2.0 * r * math.ldexp(1.0, e - 1)


def det(a: np.ndarray) -> complex:
    """Determinant, the product of those of the blocks of the zero pattern.

    A 1x1 block contributes its entry, a 2x2 block ad - bc, a larger one
    its LU decomposition with partial pivoting, which returns exactly 0
    when a pivot column vanishes. Valid for arbitrary (not necessarily
    Hermitian) square inputs; raises XsepError on a non-finite entry.
    """
    m = np.array(a, dtype=complex)
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n:
        raise DimensionMismatch(f"determinant needs a square matrix, got {m.shape}")
    _require_finite(m, "determinant input")
    blocks = _components(m)
    if blocks is None:
        return _lu_det(m)
    rows = m.tolist()
    out = 1 + 0j
    for idx in blocks:
        if len(idx) == 1:
            out *= rows[idx[0]][idx[0]]
        elif len(idx) == 2:
            i, j = idx
            out *= rows[i][i] * rows[j][j] - rows[i][j] * rows[j][i]
        else:
            out *= _lu_det(m[np.ix_(idx, idx)])
    return out


def _lu_det(m: np.ndarray) -> complex:
    """Determinant by LU with partial pivoting; overwrites m."""
    n = m.shape[0]
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
    i, j = divmod(int(np.argmax(d)), d.shape[1])
    return float(d[i, j]), (i, j)


def _require_hermitian(a: np.ndarray, tol: float) -> np.ndarray:
    defect, (i, j) = hermiticity_defect(a)
    if defect > tol:
        raise NotHermitian(
            f"not Hermitian: entries ({i},{j}) and ({j},{i}) differ by "
            f"{defect:.3e} (tol {tol:.3e})",
            pair=(i, j),
        )
    # Symmetrize roundoff so the eigensolver sees an exactly Hermitian matrix;
    # halving first keeps entries near the float maximum from overflowing.
    return 0.5 * a + 0.5 * a.conj().T


def _two_product(x: float, y: float) -> tuple[float, float]:
    """x*y as the unevaluated sum p + e of two floats, exactly (Dekker 1971)."""
    p = x * y
    t = _SPLIT * x
    xh = t - (t - x)
    xl = x - xh
    t = _SPLIT * y
    yh = t - (t - y)
    yl = y - yh
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def hermitian_2x2(a: float, b: float, c: complex) -> tuple[float, float]:
    """Eigenvalues of [[a, c], [conj(c), b]], descending, each within a few ulps.

    The package's one 2x2 Hermitian form. With c == 0 they are a and b;
    otherwise the one of larger magnitude is mean +- hypot(half-gap, |c|),
    taking the sign of the mean, so nothing cancels. The other is det / that
    one, with det = ab - Re(c)^2 - Im(c)^2 rounded once from exact products:
    on a block with a near-zero eigenvalue `mean - rad` would lose every
    digit. The block is first scaled by a power of two, so that multiplying
    the matrix by any factor from 1e-150 to 1e150 leaves the relative
    accuracy as it is.
    """
    if c == 0:
        return (a, b) if a >= b else (b, a)
    e = math.frexp(max(abs(a), abs(b), abs(c.real), abs(c.imag)))[1]
    a, b = math.ldexp(a, -e), math.ldexp(b, -e)
    cr, ci = math.ldexp(c.real, -e), math.ldexp(c.imag, -e)
    mean = 0.5 * (a + b)
    big = mean + math.copysign(math.hypot(0.5 * (a - b), cr, ci), mean)
    p, q = _two_product(a, b)
    r, s = _two_product(cr, cr)
    u, v = _two_product(ci, ci)
    det = math.fsum((p, q, -r, -s, -u, -v))
    # Scaling back by 2 * 2**(e-1) rather than math.ldexp(x, e) turns an
    # eigenvalue past the float range into inf instead of an OverflowError.
    half_up = math.ldexp(1.0, e - 1)
    big, other = 2.0 * big * half_up, 2.0 * (det / big) * half_up
    return (big, other) if big >= other else (other, big)


def _jacobi_spectrum(h: np.ndarray, thresh: float) -> list[float]:
    """Eigenvalues of an exactly Hermitian matrix by cyclic Jacobi rotations.

    Sweeps stop once every off-diagonal magnitude is at most `thresh`. The
    work runs on lists of Python complex, where a rotation of a matrix of
    order <= 16 costs less than the NumPy calls that would make it. Each
    rotation updates the entries of columns p and q outside rows p and q,
    and mirrors them into rows p and q by conjugation, which keeps the
    matrix exactly Hermitian. The diagonal is a list of floats, updated
    from the rotation alone (Rutishauser's form).
    """
    a = h.tolist()
    n = len(a)
    d = [a[k][k].real for k in range(n)]
    if n == 1:
        return d
    for _ in range(_MAX_JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            row_p = a[p]
            for q in range(p + 1, n):
                apq = row_p[q]
                b = abs(apq)
                if b <= thresh:
                    continue
                rotated = True
                phase = apq / b
                alpha = d[p]
                gamma = d[q]
                tau = (gamma - alpha) / (2.0 * b)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # Unitary V: V[p,p]=V[q,q]=c, V[p,q]=s*phase, V[q,p]=-s*conj(phase);
                # a <- V^dagger a V changes only rows and columns p and q.
                s_phase = s * phase
                s_conj = s_phase.conjugate()
                row_q = a[q]
                for k in range(n):
                    if k == p or k == q:
                        continue
                    row_k = a[k]
                    akp = row_k[p]
                    akq = row_k[q]
                    x = c * akp - s_conj * akq
                    y = s_phase * akp + c * akq
                    row_k[p] = x
                    row_k[q] = y
                    row_p[k] = x.conjugate()
                    row_q[k] = y.conjugate()
                row_p[q] = row_q[p] = 0j
                d[p] = alpha - t * b
                d[q] = gamma + t * b
        if not rotated:
            return d
    raise ArithmeticError("Jacobi eigensolver did not converge")


def _scaled_jacobi(h: np.ndarray, idx: list[int] | None = None) -> list[float]:
    """Jacobi eigenvalues of h, or of its block on `idx`, under JACOBI_RTOL * ||h||_F.

    Both run in `_scaled_norm`'s units, h times the power of two 2**-e that
    brings its largest entry near 1, so the threshold cannot underflow to 0
    on a tiny h. The scaling is exact: in range the eigenvalues have the
    bits of the unscaled run.
    """
    r, e = _scaled_norm(h)
    # ldexp on the interleaved real and imaginary parts: 2**-e itself is out
    # of range when h is deep in the subnormals.
    scaled = np.ldexp(np.ascontiguousarray(h).view(np.float64), -e).view(complex)
    block = scaled if idx is None else scaled[np.ix_(idx, idx)]
    w = _jacobi_spectrum(block, JACOBI_RTOL * r)
    # 2 * 2**(e-1) rather than 2**e, as in `hermitian_2x2`.
    half_up = math.ldexp(1.0, e - 1)
    return [2.0 * x * half_up for x in w]


def hermitian_eigenvalues(a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, sorted descending.

    The input must be finite and Hermitian within `tol` (largest entry
    mismatch); degenerate eigenvalues are reported with multiplicity. Each
    block of the zero pattern is solved on its own: 1x1 and 2x2 blocks in
    closed form, larger ones by Jacobi under the whole matrix's threshold
    JACOBI_RTOL * ||a||_F.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"eigensolver needs a square matrix, got {a.shape}")
    _require_finite(a, "eigensolver input")
    h = _require_hermitian(a, tol)
    blocks = _components(h)
    if blocks is None:
        w = _scaled_jacobi(h)
    else:
        rows = h.tolist()
        w = []
        for idx in blocks:
            if len(idx) == 1:
                w.append(rows[idx[0]][idx[0]].real)
            elif len(idx) == 2:
                i, j = idx
                w += hermitian_2x2(rows[i][i].real, rows[j][j].real, rows[i][j])
            else:
                w += _scaled_jacobi(h, idx)
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
