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
exact to a few ulps, which the sweep uses too); larger ones go to Householder
tridiagonalization and implicit QL, or to LU with partial pivoting. The
eigensolver reads the diagonal and the strict upper triangle alone. The
factors of every determinant block make one product, kept as a mantissa and
an exponent.

One rule scales every matrix, `_exponent`: the power of two of its largest
modulus. The eigensolver and LU's retry past the float range share
one scaled block, `_scaled_block`; the Frobenius norm sums the squared
moduli of the scaled entries exactly, by math.fsum. The only NumPy
arithmetic is `mul`'s matmul and `transposed_gap`'s difference of products,
and the rest of NumPy here is the array boundary: every other kernel's bits
depend on the host only through the C library's `hypot`, the modulus of
`abs(complex)`. Nothing uses an installed LAPACK.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from itertools import chain, compress, repeat
from operator import add, itemgetter, sub
from operator import mul as _times  # `mul` is the matrix product below
from typing import Iterable, Iterator

import numpy as np

from . import bipartite
from .errors import DimensionMismatch, NotHermitian, XsepError
from .forms import DEFAULT_TOL, _modulus, _moduli, _times_pow2, hermitian_2x2

# QL sweeps allowed per eigenvalue, as in Numerical Recipes' tqli.
_MAX_QL_SWEEPS = 30

# A column of squared norm below this, in a block whose largest modulus is
# near 1, is below the rounding of the block: the Householder step leaves it out.
_TINY_COLUMN = 2.0 ** -1000

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
    if finite.all():  # a fast path: the join below is "" too
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
                break  # a fast path: the masks are disjoint
    return list(components.values())


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two square matrices of equal dimension."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"incompatible operands: {a.shape} x {b.shape}")
    return a @ b


def transposed_gap(p1: np.ndarray, p2: np.ndarray, dims) -> tuple[np.ndarray, ...]:
    """The gap (P1 P2)^G - P1^G P2^G, P1 P2, (P1 P2)^G, P1^G and P2^G, each formed once.

    ^G is `bipartite.partial_transpose` over dims, which moves entries and
    does no arithmetic. A product or difference past the float range is inf
    or NaN with no RuntimeWarning: the checks that read it decide on the
    value. NumPy's error state is entered once, for all three.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        prod = mul(p1, p2)
        prod_t, p1_t, p2_t = (bipartite.partial_transpose(a, dims) for a in (prod, p1, p2))
        return prod_t - mul(p1_t, p2_t), prod, prod_t, p1_t, p2_t


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


def _exponent(entries: list[complex]) -> int:
    """The exponent e of the entries' largest `_modulus` M, M = m * 2**e with m in [0.5, 1).

    The one scaling rule of this module: 1024 when M is past the float maximum
    or NaN, which scales finite entries beside an inf or NaN down too, as the
    fsum of their squares in `_scaled_norm` needs; 0 when M is 0 or absent.
    """
    try:
        big = max(map(abs, entries), default=0.0)
    except OverflowError:  # a finite entry of modulus past the float maximum
        return 1024
    return math.frexp(big)[1] if big < math.inf else 1024


def _scaled_norm(entries: list[complex]) -> tuple[float, int]:
    """(r, e) with ||entries||_F = r * 2**e, e the entries' `_exponent`.

    The entries are scaled by 2**-e, exactly, by `_scaled`, which brings the
    largest modulus near 1, before their moduli are taken and squared, so that
    no square overflows and no modulus is rounded on the subnormal grid.
    math.fsum adds the squares exactly and rounds once (Shewchuk 1997), so no
    order of summation enters, on any host or Python. Where no part or square,
    scaled or not, leaves the normal range, r * 2**e is sqrt(fsum(m * m)) of
    the unscaled `_moduli`, bit for bit. An entry past the float maximum makes
    r * 2**e inf, and a NaN entry makes r NaN.
    """
    e = _exponent(entries)
    moduli = list(map(abs, _scaled(entries, e)))  # finite ones below 2: no OverflowError
    return math.sqrt(math.fsum(map(_times, moduli, moduli))), e


def frobenius_norm(a: np.ndarray) -> float:
    """Square root of the sum of squared entry magnitudes: 0.0, inf past the float range, or NaN.

    `_scaled_norm` of the entries: in range, the rounded root of the correctly
    rounded sum of the squared moduli.
    """
    r, e = _scaled_norm(np.asarray(a, dtype=complex).ravel().tolist())
    return _times_pow2(r, e)


def det(a: np.ndarray) -> complex:
    """Determinant of any square matrix: one product of its zero pattern's blocks' factors.

    A block's factors are formed unscaled and, if one is not finite, again on
    the block times 2**-s, `_scaled_block`'s. Scaling every block would flush
    entries 2**1074 below the largest.
    """
    rows = as_matrix(a, name="determinant input").tolist()
    factors, e = [], 0
    for idx in _components(rows):
        block = _block_factors(rows, idx)
        if not all(map(cmath.isfinite, block)):
            scaled, s = _scaled_block(rows, idx)
            block = _block_factors(scaled, range(len(idx)))
            e += len(idx) * s
        factors += block
    return _product(factors, e)


def _scaled_block(rows: list[list[complex]], idx: list[int]) -> tuple[list[list[complex]], int]:
    """(b, e): the block of `rows` on the indices idx times 2**-e, as new rows, and e.

    e is the block's `_exponent`: b's largest modulus is in [0.5, 1) in
    range, and below sqrt(2) when e is 1024. The entries are scaled by
    `_scaled`, exactly in range, so in range a spectrum or determinant scaled
    back has the unscaled run's bits, up to the sign of a zero part.
    """
    m = len(idx)
    entries = [row[j] for row in map(rows.__getitem__, idx) for j in idx]
    e = _exponent(entries)
    entries = list(_scaled(entries, e))
    return [entries[i:i + m] for i in range(0, m * m, m)], e


def _scaled(entries: Iterable[complex], e: int) -> Iterator[complex]:
    """The entries times 2**-e, lazily, exact in range.

    Each entry is multiplied by the complex 2**-e or, when 2**-e is past the
    float maximum (entries deep in the subnormals), by two powers of two,
    both exact.
    """
    for k in ((-e,) if e >= -1023 else (1023, -e - 1023)):
        entries = map(_times, entries, repeat(complex(math.ldexp(1.0, k))))
    return entries


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
    has the plain product's bits, so the band test is a fast path. 2**k comes
    last, by `_times_pow2` on each part, so a part past the float range is inf
    of its sign on its own; a real matrix's imaginary part is made +0.0.
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


def _householder_ql(a: list[list[complex]]) -> list[float]:
    """Eigenvalues of an exactly Hermitian matrix of order >= 3, as its row list, unsorted.

    Two stages, with no eigenvectors. Householder reflectors H = I - tau v v^H,
    formed as LAPACK's zlarfg forms them and applied from both sides as its
    zhetd2 does, reduce the matrix to a real symmetric tridiagonal (d, e) with
    the same spectrum; `_implicit_ql` then takes its eigenvalues. Only the
    diagonal and the strict upper triangle of `a` are read: the trailing
    matrix starts as their Hermitian completion, kept flat and row-major,
    turned end for end if its last diagonal entry is the larger in magnitude,
    and each step splits off its head row: a matrix graded along its diagonal
    either way is reduced from its large end. Its matrix-vector product and dot
    products are `reduce(add, map(_times, ...))`, and its rank-2 update is one
    `map` over the whole trailing matrix: the O(n^3) work runs at C level,
    summed left to right. Every product is complex x complex or float x float
    and no sum is the builtin `sum`, so the bits are the same on every host
    and Python. The caller scales `a` so that its largest modulus is near 1: no
    square overflows, and a column of squared norm below `_TINY_COLUMN` is
    below the rounding of the block, and is left out.
    """
    n = len(a)
    t = list(chain.from_iterable(a))
    for i in range(1, n):  # row i below the diagonal: the conjugate of column i above it
        t[i * n:i * n + i] = map(complex.conjugate, t[i:i * n:n])
    if abs(t[-1].real) > abs(t[0].real):  # start from the large end: P a P^T, P the reversal
        t.reverse()
    d, e = [], []
    for m in range(n - 1, 1, -1):  # the order of the trailing matrix once the head row is off
        head = t[:m + 1]
        d.append(head[0].real)
        t = list(compress(t[m + 1:], ([False] + [True] * m) * m))
        # The column below the diagonal is x = conj(head[1:]) = (alpha, x[1:]).
        x = list(map(complex.conjugate, head[1:]))
        ar, ai = x[0].real, x[0].imag
        tail = functools.reduce(add, map(_times, x[1:], head[2:])).real  # ||x[1:]||^2
        beta = ar * ar + ai * ai + tail
        if not (tail or ai) or beta < _TINY_COLUMN:
            e.append(ar)  # H = I: x is (ar, 0, ..., 0), or negligible
            continue
        # H^H x = beta e1 with beta real; v = (1, x[1:] / (alpha - beta)), where
        # |alpha - beta| >= |beta| >= 2**-500, so the reciprocal is finite.
        beta = -math.copysign(math.sqrt(beta), ar)
        tau = complex((beta - ar) / beta, -ai / beta)
        v = [1 + 0j, *map(_times, x[1:], repeat((1 + 0j) / complex(ar - beta, ai)))]
        e.append(beta)
        # p = tau T v, w = p - (tau/2)(p^H v) v, then T <- T - v w^H - w v^H.
        q = map(_times, t, v * m)  # T[i][j] v[j], flat; zip(*[q] * m) takes it row by row
        p = list(map(_times, map(functools.reduce, repeat(add), zip(*[q] * m)), repeat(tau)))
        c = (_HALF * tau) * functools.reduce(add, map(_times, map(complex.conjugate, p), v))
        w = list(map(sub, p, map(_times, v, repeat(c))))
        # v w^H and w v^H, flat: row i is v[i] (w[i]) times the conjugate of w (v).
        rows = repeat(m)
        wc, vc = list(map(complex.conjugate, w)) * m, list(map(complex.conjugate, v)) * m
        vw = map(_times, chain.from_iterable(map(repeat, v, rows)), wc)
        wv = map(_times, chain.from_iterable(map(repeat, w, rows)), vc)
        t = list(map(sub, map(sub, t, vw), wv))
    d += [t[0].real, t[3].real]
    e.append(math.hypot(t[1].real, t[1].imag))
    return _implicit_ql(d, e)


def _implicit_ql(d: list[float], e: list[float]) -> list[float]:
    """Eigenvalues of the real symmetric tridiagonal (d, e) by implicit QL, in d; e is spent.

    tqli of Numerical Recipes (after EISPACK's tql1, Bowdler et al. 1968)
    without eigenvectors: each sweep takes Wilkinson's shift from the leading
    2x2 of the unreduced block d[l..m] and chases it up by plane rotations.
    e[k] couples d[k] and d[k + 1], and counts as negligible once
    |e[k]| <= eps (|d[k]| + |d[k + 1]|). Two choices follow LAPACK's dsterf:
    the matrix is turned end for end when its last diagonal entry is the
    smaller in magnitude (QR in place of QL), so that a graded matrix keeps
    its small eigenvalues to high relative accuracy; and an unreduced 2x2
    block takes the closed form `hermitian_2x2`, as dsterf takes dlae2. An
    eigenvalue not found within _MAX_QL_SWEEPS sweeps raises ArithmeticError.
    """
    n = len(d)
    if abs(d[-1]) < abs(d[0]):  # QL deflates at the top: put the small end there
        d.reverse()
        e.reverse()
    e.append(0.0)
    hypot, copysign, eps = math.hypot, math.copysign, sys.float_info.epsilon  # eps = 2**-52
    for l in range(n):
        for sweep in range(_MAX_QL_SWEEPS + 1):
            m = l
            while m < n - 1 and abs(e[m]) > eps * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if m == l + 1:
                d[l], d[m] = hermitian_2x2(d[l], d[m], complex(e[l]))
                break
            if sweep == _MAX_QL_SWEEPS:
                raise ArithmeticError("QL eigensolver did not converge")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + copysign(hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                e[i + 1] = r = hypot(f, g)
                if not r:  # f and g underflowed: d[i + 1] splits off
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return d


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
    in closed form, larger ones by `_householder_ql` on `_scaled_block`'s
    block, and scaled back.
    """
    w = []
    for idx in _components(h):
        if len(idx) == 1:
            w.append(h[idx[0]][idx[0]].real)
        elif len(idx) == 2:
            i, j = idx
            w += hermitian_2x2(h[i][i].real, h[j][j].real, h[i][j])
        else:
            block, e = _scaled_block(h, idx)
            w += [_times_pow2(x, e) for x in _householder_ql(block)]
    return _descending(w)


def _descending(w: list[float]) -> list[float]:
    """w sorted descending in place, +0.0 before -0.0: one order on every host.

    Equal floats have equal bits, except 0.0 and -0.0, which compare equal: a
    list holding both is sorted on (x, sign of x), any other on x, a fast path.
    """
    if 0.0 in w and len({math.copysign(1.0, x) for x in w if x == 0.0}) == 2:
        w.sort(key=lambda x: (x, math.copysign(1.0, x)), reverse=True)
    else:
        w.sort(reverse=True)
    return w


def min_eigenvalue(a: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(hermitian_eigenvalues(a, tol)[-1])

