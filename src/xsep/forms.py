"""Closed forms on Python scalars: the NumPy-free core that `xsep sweep` runs on.

This is the one home of each form, and every module reaches it here: the
tolerance, the modulus rule, the power-of-two scaling and the 2x2 Hermitian
spectrum that `linalg` builds on; the parameter record, the X-state
determinant and concurrence of `xstate` and the sweep; the Theorem-2 sides
of `criteria` and the sweep; the report number format of `matfile` and the
CLI. None of them needs NumPy, and no module on the sweep's import path
imports it, so `import xsep` and `xsep sweep` run without it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InvalidParams

# Default tolerance for Hermiticity / positive-semidefiniteness decisions.
DEFAULT_TOL = 1e-10

# Dekker's splitter 2**27 + 1: cuts a double into two halves whose products are exact.
_SPLIT = 134217729.0

# Slack on the |v| <= 1 bound, absorbing roundoff in moduli of unit phases:
# the modulus of complex(cos t, sin t) stays within a few ulps of 1.
_V_BOUND_SLACK = 4 * sys.float_info.epsilon

# Right-hand side of the two-qubit determinant inequality.
THEOREM2_RHS = 2.0 ** 11 / 9.0


def _modulus(z: complex) -> float:
    """abs(z), C's hypot on every host (not NumPy's SIMD one), or inf past the float maximum."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _moduli(zs: list | tuple) -> list[float]:
    """`_modulus` of each entry of zs: abs() mapped at C level, entry by entry past the maximum."""
    try:
        return list(map(abs, zs))
    except OverflowError:
        return list(map(_modulus, zs))


def _times_pow2(x: float, e: int) -> float:
    """x * 2**e for every e: math.ldexp, exact in range, or inf of x's sign past the float maximum."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _two_product(x: float, y: float) -> tuple[float, float]:
    """(p, e) with p = fl(x*y) and p + e = x*y exactly, barring overflow and underflow.

    Dekker's product (1971), from the halves xh + xl = x that _SPLIT cuts.
    Rounding is symmetric, so _two_product(-x, y) is exactly -_two_product(x, y).
    """
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
    det = math.fsum((*_two_product(a, b), *_two_product(-cr, cr), *_two_product(-ci, ci)))
    big, other = _times_pow2(big, e), _times_pow2(det / big, e)
    return (big, other) if big >= other else (other, big)


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
            modulus = _modulus(v)
            if modulus > 1.0 + _V_BOUND_SLACK:
                raise InvalidParams(f"|{name}| must be <= 1, got {modulus}")
            object.__setattr__(self, name, v)

    @classmethod
    def symmetric(cls, t1: float, t2: float, v1: complex, v2: complex) -> "XParams":
        """Parameters with t3 = t2 and t4 = t1, yielding a Hermitian PSD product."""
        return cls(t1, t2, t2, t1, v1, v2)

    @property
    def is_symmetric(self) -> bool:
        return self.t3 == self.t2 and self.t4 == self.t1


# Closed forms on the entries of an X matrix: four diagonal floats and the
# corner moduli |c14|, |c23|. They take Python floats, which keeps them off
# NumPy's per-call overhead; the sweep calls them once per distinct modulus.


def x_determinant(d11, d22, d33, d44, abs_c14, abs_c23) -> float:
    """Determinant of an X matrix: (d11*d44 - |c14|^2) (d22*d33 - |c23|^2)."""
    return (d11 * d44 - abs_c14 * abs_c14) * (d22 * d33 - abs_c23 * abs_c23)


def _sqrt_product(a: float, b: float) -> float:
    """sqrt(max(a*b, 0)), also where a*b underflows or overflows.

    Past the normal floats the factors are scaled by 4**-i and 4**-j and the
    root back by 2**(i + j); both are exact, so the in-range test is a fast path.
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


def theorem2_lhs(prod: float) -> float:
    """Left side 81 D^3 + 512 D of the two-qubit inequality, D = D1 D2, of a Python float."""
    return 81.0 * prod ** 3 + 512.0 * prod


def format_float(x: float) -> str:
    """Stable 12-digit rendering used in reports and CSV output; the one home of that format.

    Fixed point with 12 decimals for 1e-4 <= |x| < 1e16, scientific
    notation with a lowercase exponent outside it; zero of either sign is
    `0.000000000000`; the scientific format writes inf, -inf and a NaN of
    either sign as their repr. The fixed-point range is tested first, by
    chained comparisons on x itself with no abs() call, so an everyday value,
    most of what a sweep renders, leaves at once.
    """
    if 1e-4 <= x < 1e16 or -1e16 < x <= -1e-4:
        return f"{x:.12f}"
    if x == 0.0:
        return "0.000000000000"
    return f"{x:.12e}"
