"""Embedded golden checks of the paper's fixed facts, run by `xsep selftest`.

A check is a generator of comparisons `(label, got, expected, tol)`. It
passes when `|got - expected| <= tol` holds entrywise for every comparison;
NaN never passes. `run` stops each check at its first failed comparison,
counts a check that raises as failed, and prints one line per check and a
tally.
"""

from __future__ import annotations

import math

import numpy as np

from . import criteria, forms, linalg, xstate
from .bipartite import partial_transpose


def _below(tol: float) -> float:
    """The largest float under tol: `|d| <= _below(t)` is `|d| < t`."""
    return math.nextafter(tol, 0.0)


def identity_product():
    eye = np.eye(4, dtype=complex)
    yield "I*I", linalg.mul(eye, eye), eye, 0.0


def product_x_shape():
    t1, t2, t3, t4, v1, v2 = 0.3, 0.2, 0.2, 0.3, 0.5, 0.4j
    pair = xstate.build_factors(forms.XParams(t1, t2, t3, t4, v1, v2))
    expected = np.diag([t1, t2, t3, t4]).astype(complex)
    expected[0, 3], expected[1, 2] = t1 * v1, t2 * v2
    expected[2, 1], expected[3, 0] = t3 * np.conj(v2), t4 * np.conj(v1)
    yield "P1 P2", linalg.mul(pair.p1, pair.p2), expected, 0.0


def p2_spectrum():
    pair = xstate.build_factors(forms.XParams(1, 1, 1, 1, 0.5, 0.3))
    w = linalg.hermitian_eigenvalues(pair.p2)
    yield "spectrum", w, [1.5, 1.3, 0.7, 0.5], _below(1e-12)


def pt_factor_swap():
    # Partial transposition swaps the two amplitudes of the unit-diagonal factor.
    p2 = xstate.build_factors(forms.XParams(1, 1, 1, 1, 0.5, 0.3j)).p2
    swapped = xstate.build_factors(forms.XParams(1, 1, 1, 1, 0.3j, 0.5)).p2
    yield "P2^G", partial_transpose(p2, criteria.TWO_QUBITS), swapped, 0.0


def gap_closed_form():
    params = forms.XParams.symmetric(0.1, 0.4, 0.5, 0.2)
    pair = xstate.build_factors(params)
    gap = criteria.pt_gap(pair.p1, pair.p2, criteria.TWO_QUBITS)
    r = params.t2 - params.t1
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3], expected[3, 0] = r * params.v2, r * np.conj(params.v2)
    expected[1, 2], expected[2, 1] = -r * params.v1, -r * np.conj(params.v1)
    yield "|gap - closed form|_F", linalg.frobenius_norm(gap - expected), 0.0, 1e-15
    w = linalg.hermitian_eigenvalues(gap)
    yield "gap spectrum", w, [0.15, 0.06, -0.06, -0.15], _below(1e-12)


def equality_family():
    params = forms.XParams.symmetric(0.25, 0.25, 0.6, 0.3j)
    pair = xstate.build_factors(params)
    gap = criteria.pt_gap(pair.p1, pair.p2, criteria.TWO_QUBITS)
    yield "|gap|_F", linalg.frobenius_norm(gap), 0.0, 1e-14
    # Both sides equal one closed-form X matrix.
    t1 = params.t1
    delta = xstate.XMatrix(t1, t1, t1, t1, c14=t1 * params.v2, c23=t1 * params.v1).matrix()
    lhs = partial_transpose(linalg.mul(pair.p1, pair.p2), criteria.TWO_QUBITS)
    rhs = linalg.mul(
        partial_transpose(pair.p1, criteria.TWO_QUBITS),
        partial_transpose(pair.p2, criteria.TWO_QUBITS),
    )
    yield "|(P1 P2)^G - delta|_F", linalg.frobenius_norm(lhs - delta), 0.0, 1e-14
    yield "|P1^G P2^G - delta|_F", linalg.frobenius_norm(rhs - delta), 0.0, 1e-14


def min_pt_closed_form():
    params = forms.XParams.symmetric(0.35, 0.15, 0.7j, 0.4)
    pair = xstate.build_factors(params)
    rho = linalg.mul(pair.p1, pair.p2)
    got = criteria.validate_density(rho, criteria.TWO_QUBITS).min_pt_eigenvalue
    t1, t2, a1, a2 = params.t1, params.t2, abs(params.v1), abs(params.v2)
    expected = min(t1 + t2 * a2, t1 - t2 * a2, t2 + t1 * a1, t2 - t1 * a1)
    yield "min PT eigenvalue", got, expected, _below(1e-12)


def theorem2_rhs():
    yield "THEOREM2_RHS", forms.THEOREM2_RHS, 2.0 ** 11 / 9.0, 0.0


def theorem2_identity_factors():
    check = criteria.theorem2_check(np.eye(4, dtype=complex) / 4.0, np.eye(4, dtype=complex))
    yield "lhs", check.lhs, 81.0 / 256.0 ** 3 + 2.0, _below(1e-12)
    yield "satisfied", check.satisfied, True, 0.0


def corollary1_order9():
    eye9 = np.eye(9, dtype=complex)
    check = criteria.corollary1_check(eye9, eye9, (3, 3))
    yield "lhs", check.lhs, 62.0, _below(1e-9)
    yield "rhs", check.rhs, 81.0 / 2.0 ** 1.5, _below(1e-9)
    yield "satisfied", check.satisfied, False, 0.0


def counterexample():
    rho = criteria.counterexample_state()
    yield "trace", linalg.trace(rho), 1.0, 1e-14
    yield "inner block discriminant", criteria.CX_B1 * criteria.CX_D1, 23.0 / 468.0, 1e-15
    yield "outer block discriminant", criteria.CX_A1 * criteria.CX_E1, 23.0 / 468.0, 1e-15
    yield "two lowest eigenvalues", linalg.hermitian_eigenvalues(rho)[-2:], [0.0, 0.0], 1e-12
    yield "ppt", criteria.ppt_verdict(rho, criteria.TWO_QUBITS), True, 0.0
    gap_norm = linalg.frobenius_norm(criteria.counterexample_gap())
    yield f"gap norm {gap_norm!r} above 1e-3", gap_norm > 1e-3, True, 0.0


def bell_state():
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    density = criteria.validate_density(bell, criteria.TWO_QUBITS)
    yield "concurrence", xstate.matrix_concurrence(bell, forms.DEFAULT_TOL), 1.0, _below(1e-14)
    yield "min PT eigenvalue", density.min_pt_eigenvalue, -0.5, _below(1e-12)
    yield "ppt", density.ppt, False, 0.0


def x_eigen_closed_form():
    x = xstate.XMatrix(0.3, 0.2, 0.2, 0.3, c14=0.15 + 0.2j, c23=0.1j)
    # A dense unitary similarity (a Householder reflection) keeps the spectrum
    # and fills every entry, so the eigensolver cannot split the matrix into
    # 2x2 blocks and its dense solver computes the spectrum.
    v = np.array([1.0, 2.0j, -1.5, 0.5 + 1.0j])
    u = np.eye(4) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real
    dense = u @ x.matrix() @ u.conj().T
    yield "zero entries of U X U^H", np.count_nonzero(dense == 0), 0, 0.0
    dense_spectrum = linalg.hermitian_eigenvalues(dense)
    yield "closed form vs eigensolver", xstate.x_eigenvalues(x), dense_spectrum, _below(1e-12)


# The checks in the order they run; a check's name is its function's, with dashes.
CHECKS = [
    identity_product, product_x_shape, p2_spectrum, pt_factor_swap, gap_closed_form,
    equality_family, min_pt_closed_form, theorem2_rhs, theorem2_identity_factors,
    corollary1_order9, counterexample, bell_state, x_eigen_closed_form,
]


def _first_failure(check) -> str | None:
    """`label: got != expected` of the first failed comparison; None when all hold."""
    try:
        for label, got, expected, tol in check():
            diff = np.abs(np.asarray(got, dtype=complex) - np.asarray(expected, dtype=complex))
            if not np.all(diff <= tol):
                return f"{label}: {np.asarray(got).tolist()} != {np.asarray(expected).tolist()}"
    except Exception as e:  # a crashed check is a failed check
        return f"raised {type(e).__name__}: {e}"
    return None


def run() -> int:
    """Print `[PASS] name` or `[FAIL] name: reason` per check, then the tally.

    Returns 0 when every check passes and 1 otherwise.
    """
    failures = 0
    for check in CHECKS:
        name = check.__name__.replace("_", "-")
        reason = _first_failure(check)
        print(f"[PASS] {name}" if reason is None else f"[FAIL] {name}: {reason}")
        failures += reason is not None
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 0 if failures == 0 else 1
