"""Command-line front end.

Subcommands: pt, analyze, construct, check-equality, sweep, counterexample,
selftest. Exit codes: 0 success, 2 parse failure, 3 validation failure,
4 non-density input, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import criteria, linalg, matfile, xstate
from .bipartite import BipartiteDims, partial_transpose
from .errors import (
    DimensionMismatch,
    EqualityHypothesisError,
    InvalidParams,
    MatrixFileError,
    NotDensityMatrix,
    NotHermitian,
)
from .matfile import format_float as fmt

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NOT_DENSITY = 4
EXIT_IO = 5


def _complex_arg(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")


def _bool_str(flag: bool) -> str:
    return "true" if flag else "false"


def _text(value) -> str:
    if isinstance(value, bool):
        return _bool_str(value)
    if isinstance(value, float):
        return fmt(value)
    return str(value)


def _emit(args, payload: dict, lines: list[str] | None = None) -> None:
    """Print the payload as JSON, or as text: `lines`, else one `key: value` per entry."""
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        if lines is None:
            lines = [f"{key}: {_text(value)}" for key, value in payload.items()]
        print("\n".join(lines))


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _resolve_dims(args, file_dims, dim: int) -> BipartiteDims:
    if args.m is not None and args.n is not None:
        dims = BipartiteDims(args.m, args.n)
    elif file_dims is not None:
        dims = file_dims
    elif dim == 4:
        dims = BipartiteDims(2, 2)
    else:
        raise InvalidParams(
            f"subsystem split of a {dim}x{dim} matrix is ambiguous; pass --m and --n"
        )
    if dims.total != dim:
        raise DimensionMismatch(
            f"subsystem dimensions {dims.m}x{dims.n} do not match matrix dimension {dim}"
        )
    return dims


# ---------------------------------------------------------------------------
# subcommands


def cmd_pt(args) -> int:
    matrix, file_dims = matfile.load(args.input)
    matrix = linalg.as_matrix(matrix, name="input matrix")
    dims = _resolve_dims(args, file_dims, matrix.shape[0])
    result = partial_transpose(matrix, dims)
    _write_text(args.out, matfile.encode(result, dims))
    return EXIT_OK


def cmd_analyze(args) -> int:
    matrix, file_dims = matfile.load(args.input)
    matrix = linalg.as_matrix(matrix, name="input matrix")
    dims = _resolve_dims(args, file_dims, matrix.shape[0])
    density = criteria.validate_density(matrix, dims, args.tol)
    x_shaped = matrix.shape[0] == 4 and xstate.is_x_shaped(matrix, args.tol)
    payload = {
        "hermitian": True,
        "trace": density.trace,
        "min_eigenvalue": density.min_eigenvalue,
        "min_pt_eig": density.min_pt_eigenvalue,
        "ppt": density.ppt,
        "x_shaped": x_shaped,
    }
    if x_shaped:
        payload["concurrence"] = xstate.concurrence(xstate.XMatrix.from_matrix(matrix, args.tol))
    _emit(args, payload)
    return EXIT_OK


def cmd_construct(args) -> int:
    params = xstate.XParams.symmetric(args.t1, args.t2, args.v1, args.v2)
    if abs(params.t1 + params.t2 - 0.5) > 1e-12:
        print(
            f"warning: t1 + t2 = {params.t1 + params.t2!r}, product state is "
            "unnormalized (a normalized state needs t1 + t2 = 0.5)",
            file=sys.stderr,
        )
    pair = xstate.build_factors(params)
    rho = linalg.mul(pair.p1, pair.p2)
    if args.with_factors:
        if args.out is None:
            raise InvalidParams("--with-factors requires --out to derive companion paths")
        stem = args.out[:-5] if args.out.endswith(".json") else args.out
        matfile.save(f"{stem}.p1.json", pair.p1, (2, 2))
        matfile.save(f"{stem}.p2.json", pair.p2, (2, 2))
    _write_text(args.out, matfile.encode(rho, (2, 2)))
    return EXIT_OK


def cmd_check_equality(args) -> int:
    params = xstate.XParams.symmetric(args.t1, args.t2, args.v1, args.v2)
    pair = xstate.build_factors(params)
    report = criteria.factor_report(pair.p1, pair.p2, tol=args.tol)
    gap_eigs = [] if report.gap_eigenvalues is None else [float(w) for w in report.gap_eigenvalues]
    payload = {
        "gap_frobenius": report.gap_frobenius,
        "gap_eigenvalues": gap_eigs,
        "equality_holds": report.equality_holds,
        "min_pt_eigenvalue": report.min_pt_eigenvalue,
        "theorem2_lhs": report.theorem2_lhs,
        "theorem2_rhs": report.theorem2_rhs,
        "theorem2_satisfied": report.theorem2_satisfied,
        "ppt": report.ppt,
        "concurrence": report.concurrence,
    }
    verdict = "equality holds" if report.equality_holds else "equality fails"
    lines = [
        f"gap_frobenius: {fmt(report.gap_frobenius)}",
        "gap_eigenvalues: [" + ", ".join(fmt(w) for w in gap_eigs) + "]",
        verdict,
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _sweep_rows(t1: float, grid: int, literal: bool, phase1: float, phase2: float):
    """CSV rows over the uniform |v1|, |v2| lattice (v1 outer, v2 inner).

    The inequality sides use the factor pair P1 = t1*I and unit-diagonal
    P2 (or the t1-scaled literal form); the concurrence and minimum
    partial-transpose eigenvalue are those of the trace-normalized
    product, which is the same state for every t1. One NumPy pass
    evaluates the lattice with the closed forms of `xstate` and `criteria`.
    """
    try:
        d1 = t1 ** 4  # det of the diagonal factor, unchanged by partial transposition
        if literal:
            d1 = d1 * t1 ** 4  # the t1-scaled second factor contributes t1^4 to its det
        # The largest left side on the lattice is at v1 = v2 = 0, where det(P2^G) = 1.
        top = criteria.theorem2_lhs(d1)
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise InvalidParams(f"t1 = {t1!r} overflows the left side 81 D^3 + 512 D")
    rhs = criteria.THEOREM2_RHS

    # The CSV bytes are those of the scalar formulas, cell by cell. Three
    # NumPy traps break that: `np.abs` of a complex array rounds unlike
    # `abs()` on a third of inputs (`np.hypot` agrees); through it the min-PT
    # column at |v| = 1 reads 2.8e-17, not 0; and `np.power(x, 3)` differs
    # from `x ** 3` on 5 % of floats, so the left side stays on Python floats.
    v_abs = np.arange(grid) * (1.0 / (grid - 1))
    # Moduli of the corners v/4 of the normalized product, v1 down the
    # rows and v2 along the columns: |v e^{i phase} / 4|.
    m1 = np.hypot(v_abs * math.cos(phase1) / 4.0, v_abs * math.sin(phase1) / 4.0)[:, None]
    m2 = np.hypot(v_abs * math.cos(phase2) / 4.0, v_abs * math.sin(phase2) / 4.0)[None, :]
    xstate.check_x_blocks(0.25, 0.25, 0.25, 0.25, m1, m2)
    conc = xstate.x_concurrence(0.25, 0.25, 0.25, 0.25, m1, m2)
    # Partial transposition swaps the two corner amplitudes of an X state.
    min_pt = xstate.x_min_eigenvalue(0.25, 0.25, 0.25, 0.25, m2, m1)
    # det of the unit-diagonal X factor after partial transposition
    d2 = xstate.x_determinant(1.0, 1.0, 1.0, 1.0, v_abs[None, :], v_abs[:, None])
    prod = d1 * d2

    # The lattice is symmetric in |v1|, |v2|, and the last two columns take
    # at most 2*grid values: evaluate and render each distinct value once.
    rhs_text = fmt(rhs)
    inequality = {}
    for p in set(prod.ravel().tolist()):
        lhs = criteria.theorem2_lhs(p)
        inequality[p] = f"{fmt(lhs)},{rhs_text},{_bool_str(lhs <= rhs)}"
    rendered = {x: fmt(x) for x in {*conc.ravel().tolist(), *min_pt.ravel().tolist()}}
    v_text = [fmt(v) for v in v_abs.tolist()]
    rows = []
    for i, a in enumerate(v_text):
        rows += [
            f"{a},{b},{inequality[p]},{rendered[c]},{rendered[m]}"
            for b, p, c, m in zip(v_text, prod[i].tolist(), conc[i].tolist(), min_pt[i].tolist())
        ]
    return rows


def cmd_sweep(args) -> int:
    if args.grid < 2:
        raise InvalidParams(f"grid must be >= 2, got {args.grid}")
    for name in ("t1", "phase1", "phase2"):
        value = getattr(args, name)
        if not math.isfinite(value):
            raise InvalidParams(f"{name} must be finite, got {value!r}")
    if args.t1 < 0:
        raise InvalidParams(f"t1 must be nonnegative, got {args.t1}")
    rows = _sweep_rows(args.t1, args.grid, args.scaled_p2, args.phase1, args.phase2)
    header = "v1_abs,v2_abs,lhs,rhs,satisfied,concurrence,min_pt_eig"
    _write_text(args.out, "\n".join([header, *rows, ""]))
    return EXIT_OK


def cmd_counterexample(args) -> int:
    density = criteria.validate_density(
        criteria.counterexample_state(), criteria.TWO_QUBITS, args.tol
    )
    payload = {
        "trace": density.trace,
        "min_eigenvalue": density.min_eigenvalue,
        "psd": True,
        "ppt": density.ppt,
        "separable": density.ppt,
        "gap_frobenius": linalg.frobenius_norm(criteria.counterexample_gap()),
        "verdict": "converse fails",
    }
    _emit(args, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest


def _check_identity_product() -> tuple[bool, str]:
    eye = np.eye(4, dtype=complex)
    return linalg.frobenius_norm(linalg.mul(eye, eye) - eye) == 0.0, "I*I != I"


def _check_product_x_shape() -> tuple[bool, str]:
    params = xstate.XParams(0.3, 0.2, 0.2, 0.3, 0.5, 0.4j)
    pair = xstate.build_factors(params)
    prod = linalg.mul(pair.p1, pair.p2)
    ok = (
        xstate.is_x_shaped(prod, 0.0)
        and prod[0, 3] == params.t1 * params.v1
        and prod[1, 2] == params.t2 * params.v2
        and prod[2, 1] == params.t3 * np.conj(params.v2)
        and prod[3, 0] == params.t4 * np.conj(params.v1)
    )
    return ok, "product entries do not match the X pattern"


def _check_p2_spectrum() -> tuple[bool, str]:
    pair = xstate.build_factors(xstate.XParams(1, 1, 1, 1, 0.5, 0.3))
    w = linalg.hermitian_eigenvalues(pair.p2)
    expected = np.array([1.5, 1.3, 0.7, 0.5])
    return bool(np.max(np.abs(w - expected)) < 1e-12), f"spectrum {w} != {expected}"


def _check_pt_factor_swap() -> tuple[bool, str]:
    pair = xstate.build_factors(xstate.XParams(1, 1, 1, 1, 0.5, 0.3j))
    swapped = partial_transpose(pair.p2, criteria.TWO_QUBITS)
    ok = swapped[0, 3] == 0.3j and swapped[1, 2] == 0.5
    return ok, "partial transposition did not swap the off-diagonal amplitudes"


def _check_gap_closed_form() -> tuple[bool, str]:
    params = xstate.XParams.symmetric(0.1, 0.4, 0.5, 0.2)
    pair = xstate.build_factors(params)
    gap = criteria.pt_gap(pair.p1, pair.p2, criteria.TWO_QUBITS)
    r = params.t2 - params.t1
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = r * params.v2
    expected[3, 0] = r * np.conj(params.v2)
    expected[1, 2] = -r * params.v1
    expected[2, 1] = -r * np.conj(params.v1)
    if linalg.frobenius_norm(gap - expected) > 1e-15:
        return False, "gap matrix does not match the antidiagonal closed form"
    w = linalg.hermitian_eigenvalues(gap)
    target = np.sort(np.array([0.15, 0.06, -0.06, -0.15]))[::-1]
    return bool(np.max(np.abs(w - target)) < 1e-12), f"gap spectrum {w} != {target}"


def _check_equality_family() -> tuple[bool, str]:
    params = xstate.XParams.symmetric(0.25, 0.25, 0.6, 0.3j)
    pair = xstate.build_factors(params)
    gap = criteria.pt_gap(pair.p1, pair.p2, criteria.TWO_QUBITS)
    if linalg.frobenius_norm(gap) > 1e-14:
        return False, "gap does not vanish for equal diagonal weights"
    t1 = params.t1
    delta = xstate.XMatrix(t1, t1, t1, t1, c14=t1 * params.v2, c23=t1 * params.v1).matrix()
    lhs = partial_transpose(linalg.mul(pair.p1, pair.p2), criteria.TWO_QUBITS)
    rhs = linalg.mul(
        partial_transpose(pair.p1, criteria.TWO_QUBITS),
        partial_transpose(pair.p2, criteria.TWO_QUBITS),
    )
    ok = (
        linalg.frobenius_norm(lhs - delta) <= 1e-14
        and linalg.frobenius_norm(rhs - delta) <= 1e-14
    )
    return ok, "both sides should equal the shared closed-form matrix"


def _check_min_pt_closed_form() -> tuple[bool, str]:
    params = xstate.XParams.symmetric(0.35, 0.15, 0.7j, 0.4)
    pair = xstate.build_factors(params)
    rho = linalg.mul(pair.p1, pair.p2)
    got = criteria.validate_density(rho, criteria.TWO_QUBITS).min_pt_eigenvalue
    t1, t2 = params.t1, params.t2
    expected = min(
        t1 + t2 * abs(params.v2), t1 - t2 * abs(params.v2),
        t2 + t1 * abs(params.v1), t2 - t1 * abs(params.v1),
    )
    return abs(got - expected) < 1e-12, f"min PT eigenvalue {got} != {expected}"


def _check_theorem2_rhs() -> tuple[bool, str]:
    ok = abs(criteria.THEOREM2_RHS - 2.0 ** 11 / 9.0) < 1e-12
    return ok, f"right-hand constant is {criteria.THEOREM2_RHS!r}"


def _check_theorem2_identity_factors() -> tuple[bool, str]:
    check = criteria.theorem2_check(np.eye(4, dtype=complex) / 4.0, np.eye(4, dtype=complex))
    expected = 81.0 / 256.0 ** 3 + 2.0
    ok = abs(check.lhs - expected) < 1e-12 and check.satisfied
    return ok, f"lhs {check.lhs} != {expected}"


def _check_corollary1_order9() -> tuple[bool, str]:
    eye9 = np.eye(9, dtype=complex)
    check = criteria.corollary1_check(eye9, eye9, (3, 3))
    ok = (
        abs(check.lhs - 62.0) < 1e-9
        and abs(check.rhs - 81.0 / 2.0 ** 1.5) < 1e-9
        and not check.satisfied
    )
    return ok, f"lhs {check.lhs}, rhs {check.rhs}"


def _check_counterexample() -> tuple[bool, str]:
    rho = criteria.counterexample_state()
    if abs(linalg.trace(rho).real - 1.0) > 1e-14:
        return False, f"trace {linalg.trace(rho).real!r} != 1"
    if abs(criteria.CX_B1 * criteria.CX_D1 - 23.0 / 468.0) > 1e-15:
        return False, "inner block discriminant is not 23/468"
    if abs(criteria.CX_A1 * criteria.CX_E1 - 23.0 / 468.0) > 1e-15:
        return False, "outer block discriminant is not 23/468"
    w = linalg.hermitian_eigenvalues(rho)
    if not (abs(w[-1]) <= 1e-12 and abs(w[-2]) <= 1e-12):
        return False, f"two zero modes expected, spectrum {w}"
    if not criteria.ppt_verdict(rho, criteria.TWO_QUBITS):
        return False, "reference state should be PPT"
    gap_norm = linalg.frobenius_norm(criteria.counterexample_gap())
    return gap_norm > 1e-3, f"gap norm {gap_norm} not above 1e-3"


def _check_bell_state() -> tuple[bool, str]:
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    conc = xstate.concurrence(xstate.XMatrix.from_matrix(bell))
    density = criteria.validate_density(bell, criteria.TWO_QUBITS)
    min_pt, ppt = density.min_pt_eigenvalue, density.ppt
    ok = abs(conc - 1.0) < 1e-14 and abs(min_pt + 0.5) < 1e-12 and not ppt
    return ok, f"concurrence {conc}, min PT eigenvalue {min_pt}, ppt {ppt}"


def _check_x_eigen_closed_form() -> tuple[bool, str]:
    x = xstate.XMatrix(0.3, 0.2, 0.2, 0.3, c14=0.15 + 0.2j, c23=0.1j)
    closed = xstate.x_eigenvalues(x)
    jacobi = linalg.hermitian_eigenvalues(x.matrix())
    return bool(np.max(np.abs(closed - jacobi)) < 1e-12), "closed form disagrees with Jacobi"


_SELFTEST_CHECKS = [
    ("identity-product", _check_identity_product),
    ("product-x-shape", _check_product_x_shape),
    ("p2-spectrum", _check_p2_spectrum),
    ("pt-factor-swap", _check_pt_factor_swap),
    ("gap-closed-form", _check_gap_closed_form),
    ("equality-family", _check_equality_family),
    ("min-pt-closed-form", _check_min_pt_closed_form),
    ("theorem2-rhs", _check_theorem2_rhs),
    ("theorem2-identity-factors", _check_theorem2_identity_factors),
    ("corollary1-order9", _check_corollary1_order9),
    ("counterexample", _check_counterexample),
    ("bell-state", _check_bell_state),
    ("x-eigen-closed-form", _check_x_eigen_closed_form),
]


def cmd_selftest(args) -> int:
    failures = 0
    for name, fn in _SELFTEST_CHECKS:
        try:
            ok, detail = fn()
        except Exception as e:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        if ok:
            print(f"[PASS] {name}")
        else:
            print(f"[FAIL] {name}: {detail}")
            failures += 1
    total = len(_SELFTEST_CHECKS)
    print(f"{total - failures}/{total} checks passed")
    return EXIT_OK if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser


def _add_input(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="matrix file (JSON)")
    sub.add_argument("--m", type=int, default=None, help="first subsystem dimension")
    sub.add_argument("--n", type=int, default=None, help="second subsystem dimension")


def _add_factor_params(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--t1", type=float, required=True)
    sub.add_argument("--t2", type=float, required=True)
    sub.add_argument("--v1", type=_complex_arg, default=0j,
                     help="corner amplitude, e.g. 0.5 or 0.3+0.2j")
    sub.add_argument("--v2", type=_complex_arg, default=0j)


def _add_tol_json(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=float, default=1e-10,
                     help="tolerance for Hermiticity/PSD decisions (default 1e-10)")
    sub.add_argument("--json", action="store_true", help="emit machine-readable JSON")


def _add_out(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="xsep",
        description="Partial transposition of matrix products and X-state separability.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("pt", help="partially transpose a matrix file")
    _add_input(p)
    _add_out(p)
    p.set_defaults(func=cmd_pt)

    p = subs.add_parser("analyze", help="density-matrix checks, PPT verdict, concurrence")
    _add_input(p)
    _add_tol_json(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("construct", help="build the X-shaped product state from parameters")
    _add_factor_params(p)
    p.add_argument("--with-factors", action="store_true",
                   help="also write the two factors next to --out")
    _add_out(p)
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser("check-equality",
                        help="gap norm, gap spectrum and equality verdict for a factor pair")
    _add_factor_params(p)
    _add_tol_json(p)
    p.set_defaults(func=cmd_check_equality)

    p = subs.add_parser("sweep",
                        help="CSV of the determinant inequality over the |v1|,|v2| lattice")
    p.add_argument("--t1", type=float, default=0.25,
                   help="shared diagonal weight (t2 = t1 is enforced; default 0.25)")
    p.add_argument("--grid", type=int, default=101, help="lattice points per axis")
    p.add_argument("--scaled-p2", action="store_true",
                   help="scale the second factor's diagonal down to t1 instead of 1")
    p.add_argument("--phase1", type=float, default=0.0,
                   help="phase (radians) attached to v1 in the constructed matrices")
    p.add_argument("--phase2", type=float, default=0.0)
    _add_out(p)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("counterexample",
                        help="replay the separable state that breaks the equality converse")
    _add_tol_json(p)
    p.set_defaults(func=cmd_counterexample)

    p = subs.add_parser("selftest", help="run the embedded golden checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        return args.func(args)
    except MatrixFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except NotDensityMatrix as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NOT_DENSITY
    except (InvalidParams, DimensionMismatch, NotHermitian, EqualityHypothesisError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
