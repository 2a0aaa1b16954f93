"""Two-qubit X states, their PSD factor pairs, spectra and concurrence.

The factor pair is P1 = diag(t1, t2, t3, t4) and P2 with unit diagonal,
v1 in the (0,3) corner and v2 in the (1,2) slot (conjugates mirrored).
Their product is X shaped; it is Hermitian and PSD exactly when t3 = t2
and t4 = t1, in which case it has diagonal (t1, t2, t2, t1), corner t1*v1
and inner entry t2*v2. With t1 + t2 = 1/2 the product is a normalized
two-qubit state.

All criteria downstream depend only on |v1| and |v2|, but the matrices
built here keep the complex phases: partial transposition acts on the
phased entries.

The spectra come from `linalg.hermitian_2x2`, the package's one closed form
for 2x2 Hermitian blocks: an X matrix is two such blocks. The concurrence is
`x_concurrence` (Wootters 1998); `matrix_concurrence` is the one reader of
an X state off a 4x4 array, for `xsep analyze` and `criteria.factor_report`
alike, and an `XMatrix` is built from its entries.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidParams

# Slack on the |v| <= 1 bound, absorbing roundoff in moduli of unit phases:
# abs(complex(cos t, sin t)) stays within a few ulps of 1.
_V_BOUND_SLACK = 4 * sys.float_info.epsilon


def _checked(value, name: str, real: bool) -> complex | float:
    """value as a finite complex or, if real, a finite float: its imaginary part must be 0."""
    z = complex(value)
    if real:
        if z.imag != 0.0:
            raise InvalidParams(f"{name} must be real, got {value!r}")
        z = z.real
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidParams(f"{name} must be finite, got {z!r}")
    return z


@dataclass(frozen=True)
class XParams:
    """Parameters (t1, t2, t3, t4, v1, v2) of the factor pair.

    The diagonal weights must be nonnegative and the off-diagonal
    amplitudes must satisfy |v1| <= 1 and |v2| <= 1, otherwise the second
    factor is not positive semi-definite.
    """

    t1: float
    t2: float
    t3: float
    t4: float
    v1: complex
    v2: complex

    def __post_init__(self):
        for name in ("t1", "t2", "t3", "t4"):
            t = _checked(getattr(self, name), name, real=True)
            if t < 0:
                raise InvalidParams(f"{name} must be nonnegative, got {t}")
            object.__setattr__(self, name, t)
        for name in ("v1", "v2"):
            v = _checked(getattr(self, name), name, real=False)
            if abs(v) > 1.0 + _V_BOUND_SLACK:
                raise InvalidParams(f"|{name}| must be <= 1, got {abs(v)}")
            object.__setattr__(self, name, v)

    @classmethod
    def symmetric(cls, t1: float, t2: float, v1: complex, v2: complex) -> "XParams":
        """Parameters with t3 = t2 and t4 = t1, yielding a Hermitian PSD product."""
        return cls(t1, t2, t2, t1, v1, v2)

    @property
    def is_symmetric(self) -> bool:
        return self.t3 == self.t2 and self.t4 == self.t1


@dataclass(frozen=True, eq=False)
class FactorPair:
    """The PSD pair (p1 diagonal, p2 unit-diagonal X shaped)."""

    p1: np.ndarray
    p2: np.ndarray


@dataclass(frozen=True)
class XMatrix:
    """A Hermitian X-shaped 4x4 matrix, as the record of its entries.

    Nonzero entries live on the diagonal (d11..d44, real) and the
    antidiagonal (c14 at (0,3), c23 at (1,2), conjugates mirrored). The
    entries need only be finite, so the record also holds matrices that are
    not PSD, such as the partial transpose of an entangled state. Positivity
    is decided by `criteria.validate_density` and the trace by `concurrence`,
    each under the caller's tol. `matrix_concurrence` reads an array.
    """

    d11: float
    d22: float
    d33: float
    d44: float
    c14: complex
    c23: complex

    def __post_init__(self):
        for name in ("d11", "d22", "d33", "d44"):
            object.__setattr__(self, name, _checked(getattr(self, name), name, real=True))
        for name in ("c14", "c23"):
            object.__setattr__(self, name, _checked(getattr(self, name), name, real=False))

    def matrix(self) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.d11, self.d22, self.d33, self.d44
        m[0, 3] = self.c14
        m[3, 0] = np.conj(self.c14)
        m[1, 2] = self.c23
        m[2, 1] = np.conj(self.c23)
        return m

    @property
    def trace(self) -> float:
        return self.d11 + self.d22 + self.d33 + self.d44


def _off_x_within(rows: list[list], tol: float) -> bool:
    """True iff each entry of a square row list off its diagonal and antidiagonal has |z| <= tol."""
    last = len(rows) - 1
    return all(abs(z) <= tol for i, row in enumerate(rows)
               for j, z in enumerate(row) if j != i and i + j != last)


def is_x_shaped(a: np.ndarray, tol: float = linalg.DEFAULT_TOL) -> bool:
    """True iff a is square and every entry off its diagonal and antidiagonal is at most tol."""
    a = np.asarray(a, dtype=complex)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and _off_x_within(a.tolist(), tol)


def build_factors(params: XParams) -> FactorPair:
    """Assemble the factor pair (P1, P2) from validated parameters."""
    t1, t2, t3, t4, v1, v2 = params.t1, params.t2, params.t3, params.t4, params.v1, params.v2
    p1 = np.array([[t1, 0, 0, 0], [0, t2, 0, 0], [0, 0, t3, 0], [0, 0, 0, t4]], dtype=complex)
    p2 = np.array([[1, 0, 0, v1], [0, 1, v2, 0], [0, v2.conjugate(), 1, 0],
                   [v1.conjugate(), 0, 0, 1]], dtype=complex)
    return FactorPair(p1=p1, p2=p2)


def product_state(params: XParams) -> XMatrix:
    """The X-shaped product P1 @ P2 for symmetric parameters.

    Requires t3 = t2 and t4 = t1; without that symmetry the product is
    not Hermitian and cannot be an XMatrix. It is PSD by construction, since
    `XParams` holds |v1|, |v2| <= 1. Normalization (t1 + t2 = 1/2) is not
    enforced here; `concurrence` checks the trace under its tol.
    """
    if not params.is_symmetric:
        raise InvalidParams(
            "product is Hermitian and PSD only for t3 == t2 and t4 == t1; "
            f"got t3={params.t3}, t2={params.t2}, t4={params.t4}, t1={params.t1}"
        )
    t1, t2 = params.t1, params.t2
    return XMatrix(t1, t2, t2, t1, c14=t1 * params.v1, c23=t2 * params.v2)


# Closed forms on the entries of an X matrix: four diagonal floats and the
# corner moduli |c14|, |c23|. They take Python floats, which keeps them off
# NumPy's per-call overhead; the sweep calls them once per distinct modulus.


def x_eigenvalues(x: XMatrix) -> np.ndarray:
    """The four eigenvalues of an X matrix, sorted descending: those of its two 2x2 blocks."""
    w = linalg.hermitian_2x2(x.d11, x.d44, x.c14) + linalg.hermitian_2x2(x.d22, x.d33, x.c23)
    return np.array(sorted(w, reverse=True))


def x_determinant(d11, d22, d33, d44, abs_c14, abs_c23) -> float:
    """Determinant of an X matrix: (d11*d44 - |c14|^2) (d22*d33 - |c23|^2)."""
    return (d11 * d44 - abs_c14 * abs_c14) * (d22 * d33 - abs_c23 * abs_c23)


def _sqrt_product(a: float, b: float) -> float:
    """sqrt(max(a*b, 0)), also where a*b underflows or overflows.

    Past the normal floats the factors are scaled by 4**-i and 4**-j and the
    root back by 2**(i + j); both are exact, so an in-range root keeps its bits.
    """
    p = a * b
    if sys.float_info.min <= p <= sys.float_info.max:
        return math.sqrt(p)
    if (a < 0.0) != (b < 0.0):
        return 0.0
    i, j = math.frexp(a)[1] // 2, math.frexp(b)[1] // 2
    return math.ldexp(math.sqrt(math.ldexp(a, -2 * i) * math.ldexp(b, -2 * j)), i + j)


def x_concurrence(d11, d22, d33, d44, abs_c14, abs_c23):
    """C = 2 max{0, |c23| - sqrt(d11*d44), |c14| - sqrt(d22*d33)} of a normalized X state."""
    return 2.0 * max(0.0, abs_c23 - _sqrt_product(d11, d44), abs_c14 - _sqrt_product(d22, d33))


def matrix_concurrence(a: np.ndarray, tol: float) -> float | None:
    """`x_concurrence` of a finite 4x4 array X shaped and of trace 1 within tol, else None.

    Its rows are read once. The trace is (d11 + d22) + (d33 + d44), the
    order, and so the bits, of NumPy's trace of four complex entries.
    Hermiticity and positivity are the caller's to check: the diagonal is
    read by its real parts and the corners by their moduli.
    """
    a = np.asarray(a)
    if a.shape != (4, 4):
        return None
    rows = a.tolist()
    if not _off_x_within(rows, tol):
        return None
    (d11, _, _, c14), (_, d22, c23, _), (_, c32, d33, _), (c41, _, _, d44) = rows
    if (not all(map(cmath.isfinite, (d11, d22, d33, d44, c14, c23, c32, c41)))
            or abs((d11 + d22) + (d33 + d44) - 1.0) > tol):
        return None
    return x_concurrence(d11.real, d22.real, d33.real, d44.real, abs(c14), abs(c23))


def concurrence(x: XMatrix, tol: float = linalg.DEFAULT_TOL) -> float:
    """Concurrence of a normalized X state, by `x_concurrence`.

    Zero exactly for separable states. Raises unless the trace is 1 within
    tol, the test `matrix_concurrence` makes; positivity is the caller's.
    """
    if abs(x.trace - 1.0) > tol:
        raise InvalidParams(f"concurrence needs a normalized state, trace is {x.trace!r}")
    return x_concurrence(x.d11, x.d22, x.d33, x.d44, abs(x.c14), abs(x.c23))


def family_concurrence(params: XParams) -> float:
    """Closed-form concurrence of the symmetric family: 2 max{0, t2|v2|-t1, t1|v1|-t2}.

    Unlike `concurrence` this needs no normalization; it is `x_concurrence`
    of the product's entries.
    """
    t1, t2 = params.t1, params.t2
    return x_concurrence(t1, t2, t2, t1, t1 * abs(params.v1), t2 * abs(params.v2))


def zero_concurrence_region(params: XParams) -> bool:
    """True iff the family state has zero concurrence: t2|v2| <= t1 and t1|v1| <= t2."""
    return family_concurrence(params) == 0.0
