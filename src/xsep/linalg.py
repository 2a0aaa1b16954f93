"""Dense complex matrix arithmetic and spectral routines.

Everything operates on square complex matrices of modest dimension (the
package never needs more than ~16). A matrix crosses from NumPy to Python
once, as its row list (`a.tolist()`); the checks, the split and the
solvers then work on lists of Python complex. `_hermitian_rows` is the one
pass over the row list that measures the Hermiticity defect and builds the
symmetrised rows (a + a^H)/2; `hermitian_eigenvalues`, `hermiticity_defect`
and the density checks of `criteria` all go through it.

Spectra and determinants loop over the blocks of the zero pattern, found as
bitmasks on the row list: permuting the indices makes the matrix block
diagonal (an X matrix is two 2x2 blocks, a connected matrix one). The split
depends on which entries are exactly zero and on nothing else, so it is
memoised in a bounded cache keyed on the tuple of row bitmasks: the pattern
alone, never the values. The memo pays because the verdict path sees few
patterns; each of its spectra and determinants has the X pattern, or the
all-zero pattern of a vanishing gap. A matrix with no zero in row 0, as any
dense one, is one block and never reaches the memo. 1x1 and 2x2 blocks are
solved in closed form (`forms.hermitian_2x2`, the one 2x2 Hermitian form,
exact to a few ulps, which the sweep uses too); larger ones go to cyclic Jacobi
rotations or to LU with partial pivoting. Jacobi, and LU's retry past the
float range, share one block scaled by a power of two, `_scaled_block` of
the row list. Jacobi rotates the strict upper triangle alone, keeping the
diagonal as a list of floats. The factors of every determinant block make
one product, kept as a mantissa and an exponent.
Nothing uses an installed LAPACK.
"""

from __future__ import annotations

import cmath
import functools
import math
from itertools import chain, compress, repeat
from operator import add, itemgetter, sub

import numpy as np

from .errors import DimensionMismatch, NotHermitian, XsepError
# The NumPy-free forms live in `forms`; each stays importable from here.
from .forms import DEFAULT_TOL, _SPLIT, _modulus, _moduli, _times_pow2, hermitian_2x2

# Jacobi sweeps stop once every off-diagonal magnitude drops below
# JACOBI_RTOL times the Frobenius norm of the input.
JACOBI_RTOL = 1e-13

_MAX_JACOBI_SWEEPS = 100

# Entries of the split memo: distinct zero patterns, each a few hundred bytes.
_SPLIT_MEMO = 256

# 0.5 as a complex: NumPy's 0.5 * a promotes 0.5 to complex128 and multiplies
# in full, and so does this constant in every Python version (CPython 3.14
# no longer promotes a float operand).
_HALF = 0.5 + 0j


def as_matrix(a, *, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a square complex matrix.

    Rejects non-square shapes and non-finite entries. Returns a complex128
    array: the input itself when it already is one, otherwise a new array.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    where = nonfinite_entries(m)
    if where:
        raise XsepError(f"{name} has non-finite entries at {where}")
    return m


def nonfinite_entries(a: np.ndarray) -> str:
    """The positions `(i,j)` of NaN or infinite entries, comma-separated; "" if none."""
    finite = np.isfinite(a)
    if finite.all():
        return ""
    return ", ".join(f"({i},{j})" for i, j in np.argwhere(~finite).tolist())


def _components(rows: list[list[complex]]) -> list[list[int]]:
    """Connected components of the nonzero pattern of a | a.T, as sorted index lists.

    Takes the matrix as its row list (`a.tolist()`). Only exact zeros
    split; a row 0 without a zero entry settles a single component at once.
    Otherwise row i's bitmask (bit j set iff a[i][j] != 0) keys the memo of
    `_split`. The lists returned may be shared with later calls: read only.
    """
    if all(rows[0]):
        return [list(range(len(rows)))]
    return _split(tuple(map(sum, map(compress, repeat(_order(len(rows))[0]), rows))))


@functools.lru_cache(maxsize=_SPLIT_MEMO)
def _split(row_masks: tuple[int, ...]) -> list[list[int]]:
    """The components of the pattern whose row i has the bitmask row_masks[i].

    The components are bitmasks, bit j for index j, kept disjoint: row i's
    mask, with bit i added, absorbs each mask it meets. An entry joins its
    row and column whichever side of the diagonal it is on, which is the
    pattern of a | a.T. The components come out in order of their smallest
    index. Permuting the indices component by component makes `a` block
    diagonal, and each component is solved as one block: a connected 2x2
    matrix takes the closed form.
    """
    bits = _order(len(row_masks))[0]
    masks = []
    for bit, row_mask in zip(bits, row_masks):
        joined = bit | row_mask
        apart = []
        for mask in masks:
            if mask & joined:
                joined |= mask
            else:
                apart.append(mask)
        apart.append(joined)
        masks = apart
    components = {}  # mask -> its indices; first seen, first listed
    for j, bit in enumerate(bits):
        for mask in masks:
            if mask & bit:
                components.setdefault(mask, []).append(j)
                break
    return list(components.values())


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two square matrices of equal dimension."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"incompatible operands: {a.shape} x {b.shape}")
    return a @ b


def trace(a: np.ndarray) -> complex:
    """Sum of diagonal entries, `_trace` of the diagonal: inf past the float maximum, no warning."""
    return _trace(np.asarray(a, dtype=complex).diagonal().tolist())


def _trace(d: list) -> complex:
    """Sum of d in NumPy's pairwise order, its trace's bits to order 64; `sum` would compensate."""
    s0 = s1 = s2 = s3 = 0j
    m = len(d) - len(d) % 4
    for k in range(0, m, 4):
        s0, s1, s2, s3 = s0 + d[k], s1 + d[k + 1], s2 + d[k + 2], s3 + d[k + 3]
    return functools.reduce(add, d[m:], (s0 + s1) + (s2 + s3)) + 0j


def _unit_trace(diagonal: list, tol: float) -> tuple[complex, bool]:
    """The `_trace` of a diagonal and whether it is 1 within tol; a NaN trace is not."""
    trace = _trace(diagonal)
    return trace, _modulus(trace - 1.0) <= tol


def _scaled_norm(a) -> tuple[float, int]:
    """(r, e) with ||a||_F = r * 2**e, e the exponent of the largest real or imaginary part.

    The parts are scaled by 2**-e, which brings the largest near 1, before
    the moduli are taken and squared, so that none overflows, not even a
    modulus past the float maximum. In range the scaled moduli are the
    unscaled ones times 2**-e, exactly. Takes an array or a row list.
    """
    parts = np.ascontiguousarray(a, dtype=complex).view(np.float64)
    e = math.frexp(float(np.abs(parts).max(initial=0.0)))[1]
    m = np.abs(np.ldexp(parts, -e).view(complex))
    return math.sqrt(np.square(m).sum()), e


def frobenius_norm(a: np.ndarray) -> float:
    """Square root of the sum of squared entry magnitudes.

    Summed in `_scaled_norm`'s units; in range, the result has the same
    bits as the unscaled sum.
    """
    r, e = _scaled_norm(a)
    return _times_pow2(r, e)


def det(a: np.ndarray) -> complex:
    """Determinant of any square matrix: one product of its zero pattern's blocks' factors.

    A block's factors are formed unscaled and, if one is not finite, again on
    the block times 2**-s, s the exponent of its largest real or imaginary
    part. Scaling every block would flush entries 2**1074 below the largest.
    """
    rows = as_matrix(a, name="determinant input").tolist()
    factors, e = [], 0
    for idx in _components(rows):
        block = _block_factors(rows, idx)
        if not all(map(cmath.isfinite, block)):
            s = math.frexp(max(abs(x) for i in idx for j in idx
                               for x in (rows[i][j].real, rows[i][j].imag)))[1]
            block = _block_factors(_scaled_block(rows, idx, s), range(len(idx)))
            e += len(idx) * s
        factors += block
    return _product(factors, e)


def _scaled_block(rows: list[list[complex]], idx: list[int], e: int) -> list[list[complex]]:
    """The block of `rows` on the indices idx times 2**-e, as new rows; exact in range.

    ldexp acts on each real and imaginary part: 2**-e itself is out of range
    when the block is deep in the subnormals or near the float maximum. In
    range, a spectrum or determinant scaled back has the unscaled run's bits.
    """
    return [[complex(math.ldexp(w.real, -e), math.ldexp(w.imag, -e))
             for w in map(row.__getitem__, idx)] for row in map(rows.__getitem__, idx)]


def _block_factors(rows: list[list[complex]], idx: list[int] | range) -> list[complex]:
    """Factors whose product is the determinant of the block of `rows` on the indices idx.

    1x1: the entry; 2x2: ad - bc; larger: the sign and the pivots of LU
    with partial pivoting on the first entry of largest modulus in each
    column, each modulus `_moduli`'s. A vanishing pivot column ends the
    list with 0, or NaN if an overflow left a NaN there (max() skips NaN);
    a column whose largest modulus is inf, past the float maximum, makes the
    list [inf], which sends `det` to its scaled retry.
    """
    if len(idx) == 1:
        i, = idx
        return [rows[i][i]]
    if len(idx) == 2:
        i, j = idx
        return [rows[i][i] * rows[j][j] - rows[i][j] * rows[j][i]]
    a = list(map(itemgetter(*idx), map(rows.__getitem__, idx)))  # the block's rows, as tuples
    factors = [1.0]  # the sign, then the pivots
    while len(a) > 1:
        col = _moduli([row[0] for row in a])
        big = max(col)
        if big == math.inf:
            return [cmath.inf]
        if not big:
            return [*factors, sum(col)]
        p = col.index(big)
        top = a[p]
        if p:
            a[p] = a[0]
            factors[0] = -factors[0]
        pivot, head = top[0], top[1:]
        a = [[x - l * u for x, u in zip(row[1:], head)]
             for row in a[1:] for l in (row[0] / pivot,)]
        factors.append(pivot)
    factors.append(a[0][0])
    return factors


def _product(factors: list[complex], e: int) -> complex:
    """The factors' product times 2**e: one left-to-right complex product z * 2**k.

    As LINPACK's xGEDI keep a determinant, a step whose |z| leaves the band
    [2**-500, 2**500] (its `_modulus`, inf or NaN included) is formed again
    on the factor scaled to [0.5, 1), and z too is scaled there, by exact
    powers of two: no partial product overflows or underflows, and in range z
    has the plain product's bits. 2**k comes last, by `_times_pow2` on each
    part, so a part past the float range is inf of its sign on its own; a
    real matrix's imaginary part is made +0.0.
    """
    z, k = 1 + 0j, e
    for f in factors:
        w = z * f
        if not 2.0 ** -500 <= _modulus(w) <= 2.0 ** 500:
            t = math.frexp(max(abs(f.real), abs(f.imag)))[1]
            w = z * complex(math.ldexp(f.real, -t), math.ldexp(f.imag, -t))
            s = math.frexp(max(abs(w.real), abs(w.imag)))[1]
            w = complex(math.ldexp(w.real, -s), math.ldexp(w.imag, -s))
            k += t + s
        z = w
    return complex(_times_pow2(z.real, k), _times_pow2(z.imag, k) + 0.0)


@functools.lru_cache(maxsize=64)
def _order(n: int) -> tuple[list[int], list[int], list[int]]:
    """Index lists of an order-n matrix flattened row-major.

    The bit 1 << j of each index j, the flat index of each entry of the
    transpose, and the flat indices of the entries on and above the diagonal.
    """
    return ([1 << j for j in range(n)],
            [j * n + i for i in range(n) for j in range(n)],
            [i * n + j for i in range(n) for j in range(i, n)])


def _hermitian_rows(rows: list[list[complex]]) -> tuple[float, tuple[int, int], list[list[complex]]]:
    """One pass over a finite square row list: its Hermiticity defect, the pair, and (a + a^H)/2.

    The defect is the largest |a[i][j] - conj(a[j][i])|, the pair the first
    (i, j) in row-major order that reaches it; |a[j][i] - conj(a[i][j])| is
    the same modulus, so only the entries on and above the diagonal are
    measured, by `_moduli`. The symmetrised rows are 0.5 * a + 0.5 * a^H:
    each term is halved before the sum, so entries near the float maximum do
    not overflow, and each entry has the bits of NumPy's expression on the
    same matrix (up to the sign of a zero made from a part of +-2**-1074,
    which NumPy may halve in a fused multiply-add). The work is a few C-level
    maps over the flat row list.
    """
    n = len(rows)
    _, transposed, upper = _order(n)
    flat = list(chain.from_iterable(rows))
    adjoint = list(map(complex.conjugate, map(flat.__getitem__, transposed)))  # a^H, flat
    h = list(map(add, map(_HALF.__mul__, flat), map(_HALF.__mul__, adjoint)))
    gaps = _moduli(list(map(sub, map(flat.__getitem__, upper), map(adjoint.__getitem__, upper))))
    defect = max(gaps)
    return defect, divmod(upper[gaps.index(defect)], n), [h[k:k + n] for k in range(0, n * n, n)]


def hermiticity_defect(a: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Largest |a[i,j] - conj(a[j,i])| of an `as_matrix` input and the entry pair achieving it."""
    defect, pair, _ = _hermitian_rows(as_matrix(a, name="Hermiticity input").tolist())
    return defect, pair


def _checked_rows(a, tol: float, name: str) -> list[list[complex]]:
    """The rows of (a + a^H)/2, after `as_matrix` and NotHermitian if a's defect exceeds tol."""
    defect, (i, j), h = _hermitian_rows(as_matrix(a, name=name).tolist())
    if not defect <= tol:
        raise NotHermitian(
            f"not Hermitian: entries ({i},{j}) and ({j},{i}) differ by "
            f"{defect:.3e} (tol {tol:.3e})",
            pair=(i, j),
        )
    return h


def _jacobi_spectrum(a: list[list[complex]], thresh: float) -> list[float]:
    """Eigenvalues of an exactly Hermitian matrix, as its row list, by cyclic Jacobi rotations.

    Sweeps stop once every off-diagonal magnitude is at most `thresh`. The
    work runs on lists of Python complex, where a rotation of a matrix of
    order <= 16 costs less than the NumPy calls that would make it; the rows
    are rotated in place. Only the strict upper triangle is read and rotated:
    an entry below the diagonal is never needed, as it is the conjugate of
    its mirror. The diagonal is a list of floats, updated from the rotation
    alone (Rutishauser's form).
    """
    n = len(a)
    d = [a[k][k].real for k in range(n)]
    for _ in range(_MAX_JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            row_p = a[p]
            above = a[:p]
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
                # a <- V^dagger a V changes only rows and columns p and q. Entry
                # (k, p) for k > p is read and written as the conjugate of (p, k).
                # IEEE complex products satisfy conj(z*w) == conj(z)*conj(w), so
                # each entry has the bits it would have in the full matrix, up to
                # the sign of a zero imaginary part, which never reaches |a_pq|.
                s_phase = s * phase
                s_conj = s_phase.conjugate()
                # Up to CPython 3.13, float * complex promotes the float to
                # complex(c, 0.0) on every call; promoting once keeps the bits.
                c = complex(c)
                row_q = a[q]
                for row_k in above:
                    akp = row_k[p]
                    akq = row_k[q]
                    row_k[p] = c * akp - s_conj * akq
                    row_k[q] = s_phase * akp + c * akq
                for k in range(p + 1, q):
                    row_k = a[k]
                    apk = row_p[k]
                    akq = row_k[q]
                    row_p[k] = c * apk - s_phase * akq.conjugate()
                    row_k[q] = s_phase * apk.conjugate() + c * akq
                for k in range(q + 1, n):
                    apk = row_p[k]
                    aqk = row_q[k]
                    row_p[k] = c * apk - s_phase * aqk
                    row_q[k] = s_conj * apk + c * aqk
                row_p[q] = 0j
                d[p] = alpha - t * b
                d[q] = gamma + t * b
        if not rotated:
            return d
    raise ArithmeticError("Jacobi eigensolver did not converge")


def hermitian_eigenvalues(a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, sorted descending.

    The input must be finite and Hermitian within `tol` (largest entry
    mismatch); degenerate eigenvalues are reported with multiplicity. The
    spectrum is that of the symmetrised rows, `_spectrum`.
    """
    return np.array(_spectrum(_checked_rows(a, tol, "eigensolver input")))


def _spectrum(h: list[list[complex]]) -> list[float]:
    """The eigenvalues of the finite, exactly Hermitian row list h, descending; h is not checked.

    Each block of the zero pattern is solved on its own: 1x1 and 2x2 blocks
    in closed form, larger ones by Jacobi under the whole matrix's threshold
    JACOBI_RTOL * ||h||_F, taken once in `_scaled_norm`'s units so that on a
    tiny `h` it does not underflow to 0.
    """
    w, norm = [], None
    for idx in _components(h):
        if len(idx) == 1:
            w.append(h[idx[0]][idx[0]].real)
        elif len(idx) == 2:
            i, j = idx
            w += hermitian_2x2(h[i][i].real, h[j][j].real, h[i][j])
        else:
            r, e = norm = norm or _scaled_norm(h)
            block = _scaled_block(h, idx, e)
            w += [_times_pow2(x, e) for x in _jacobi_spectrum(block, JACOBI_RTOL * r)]
    return _descending(w)


def _descending(w: list[float]) -> list[float]:
    """w sorted descending in place, +0.0 before -0.0: one order on every host.

    Equal floats have equal bits, except 0.0 and -0.0, which compare equal:
    a list holding both is sorted on (x, sign of x), any other on x alone.
    """
    if 0.0 in w and len({math.copysign(1.0, x) for x in w if x == 0.0}) == 2:
        w.sort(key=lambda x: (x, math.copysign(1.0, x)), reverse=True)
    else:
        w.sort(reverse=True)
    return w


def min_eigenvalue(a: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(hermitian_eigenvalues(a, tol)[-1])


def is_psd(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff `a` is Hermitian within `tol` and its smallest eigenvalue is >= -tol."""
    try:
        return min_eigenvalue(a, tol) >= -tol
    except NotHermitian:
        return False
