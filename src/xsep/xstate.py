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

Each X-state fact is read by one rule: a modulus by `forms._moduli` (inf
past the float maximum), the trace by `linalg._trace`, the spectrum by
`linalg._spectrum`, the concurrence by `forms.x_concurrence` (Wootters
1998). `matrix_concurrence`, the one reader of an X state off a 4x4 array,
serves `xsep analyze`, `criteria.factor_report` and `concurrence` alike.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidParams
from .forms import DEFAULT_TOL, _checked, _moduli, x_concurrence
from .forms import XParams  # bench/tracer.py and bench/workloads.py look it up here


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
        for name in ("d11", "d22", "d33", "d44", "c14", "c23"):
            object.__setattr__(self, name, _checked(getattr(self, name), name, real=name[0] == "d"))

    def matrix(self) -> np.ndarray:
        c14, c23 = self.c14, self.c23
        return np.array([[self.d11, 0, 0, c14], [0, self.d22, c23, 0],
                         [0, c23.conjugate(), self.d33, 0], [c14.conjugate(), 0, 0, self.d44]],
                        dtype=complex)

    @property
    def trace(self) -> float:
        return linalg._trace([self.d11, self.d22, self.d33, self.d44]).real


def _off_x_within(rows: list[list], tol: float) -> bool:
    """True iff each entry of a square row list off its diagonal and antidiagonal has |z| <= tol."""
    last = len(rows) - 1
    off = [z for i, row in enumerate(rows) for j, z in enumerate(row) if j != i and i + j != last]
    return all(m <= tol for m in _moduli(off))


def is_x_shaped(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
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


def x_eigenvalues(x: XMatrix) -> np.ndarray:
    """The eigenvalues of an X matrix, descending, +0.0 first: `linalg._spectrum` of its rows."""
    return np.array(linalg._spectrum(x.matrix().tolist()))


def matrix_concurrence(a: np.ndarray, tol: float) -> float | None:
    """`x_concurrence` of a finite 4x4 array X shaped and of trace 1 within tol, else None.

    Its rows are read once; the trace test is `linalg._unit_trace`, as in
    `criteria.validate_density`, and the corners' moduli are `forms._moduli`'s,
    inf past the float maximum. Hermiticity and positivity are the caller's to
    check: the diagonal is read by its real parts and the corners by their moduli.
    """
    a = np.asarray(a)
    if a.shape != (4, 4) or not _off_x_within(rows := a.tolist(), tol):
        return None
    (d11, _, _, c14), (_, d22, c23, _), (_, c32, d33, _), (c41, _, _, d44) = rows
    if not (all(map(cmath.isfinite, (d11, d22, d33, d44, c14, c23, c32, c41)))
            and linalg._unit_trace([d11, d22, d33, d44], tol)[1]):
        return None
    m14, m23 = _moduli((c14, c23))
    return x_concurrence(d11.real, d22.real, d33.real, d44.real, m14, m23)


def concurrence(x: XMatrix, tol: float = DEFAULT_TOL) -> float:
    """Concurrence of a normalized X state: `matrix_concurrence` of `x.matrix()`.

    Zero exactly for separable states. Raises InvalidParams where that returns
    None, for a record a trace off 1 by more than tol; positivity is the caller's.
    """
    conc = matrix_concurrence(x.matrix(), tol)
    if conc is None:
        raise InvalidParams(f"concurrence needs a normalized state, trace is {x.trace!r}")
    return conc


def family_concurrence(params: XParams) -> float:
    """Closed-form concurrence of the symmetric family: 2 max{0, t2|v2|-t1, t1|v1|-t2}.

    Unlike `concurrence` this needs no normalization; it is `x_concurrence`
    of the product's entries.
    """
    t1, t2 = params.t1, params.t2
    m1, m2 = _moduli((params.v1, params.v2))
    return x_concurrence(t1, t2, t2, t1, t1 * m1, t2 * m2)


def zero_concurrence_region(params: XParams) -> bool:
    """True iff the family state has zero concurrence: t2|v2| <= t1 and t1|v1| <= t2."""
    return family_concurrence(params) == 0.0
