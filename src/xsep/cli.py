"""Command-line front end.

Subcommands: pt, analyze, construct, check-equality, sweep, counterexample,
selftest. Exit codes: 0 success, 1 failed selftest, 2 command-line or
matrix-file parse failure, 3 validation failure, 4 non-density input,
5 I/O failure.

At module level this imports only the NumPy-free modules: `forms`,
`errors`, `matfile` and `bipartite`. The subcommands that need `criteria`,
`linalg`, `xstate` or `selftest` import them when they run, so `sweep`,
which computes on `forms` alone, never imports NumPy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from operator import itemgetter

from . import forms, matfile
from .bipartite import BipartiteDims, partial_transpose
from .errors import InvalidParams, MatrixFileError, NotDensityMatrix, XsepError
from .forms import format_float as fmt

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NOT_DENSITY = 4
EXIT_IO = 5

# Exit code of each error a subcommand raises; the first matching type wins.
_EXIT_CODES = {
    MatrixFileError: EXIT_PARSE,
    NotDensityMatrix: EXIT_NOT_DENSITY,
    XsepError: EXIT_VALIDATION,
    OSError: EXIT_IO,
}


def _complex_arg(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt(value)
    return str(value)


def _emit(args, payload: dict, lines: list[str] | None = None) -> None:
    """Print the payload as JSON, or as text: `lines`, else one `key: value` per entry.

    JSON has no NaN or infinity: a payload holding one raises XsepError
    rather than print a bare `NaN`.
    """
    if args.json:
        try:
            text = json.dumps(payload, indent=2, allow_nan=False)
        except ValueError:
            raise XsepError("output has a non-finite value, which JSON cannot carry") from None
        print(text)
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


def _load_input(args) -> tuple:
    """The file's matrix, as `matfile.decode` checked it, and its split, not yet fitted to it."""
    matrix, file_dims = matfile.load(args.input)
    dim = len(matrix)
    if (args.m is None) != (args.n is None):
        raise InvalidParams("--m and --n must be given together")
    if args.m is not None:
        dims = BipartiteDims(args.m, args.n)
    elif file_dims is not None:
        dims = file_dims
    elif dim == 4:
        dims = BipartiteDims(2, 2)
    else:
        raise InvalidParams(
            f"subsystem split of a {dim}x{dim} matrix is ambiguous; pass --m and --n"
        )
    return matrix, dims


# ---------------------------------------------------------------------------
# subcommands


def cmd_pt(args) -> int:
    matrix, dims = _load_input(args)
    result = partial_transpose(matrix, dims)
    _write_text(args.out, matfile.encode(result, dims))
    return EXIT_OK


def cmd_analyze(args) -> int:
    from . import criteria, xstate

    matrix, dims = _load_input(args)
    density = criteria.validate_density(matrix, dims, args.tol)
    # The state passed validate_density under --tol; it is not checked again.
    conc = xstate.matrix_concurrence(matrix, args.tol)
    payload = {
        "hermitian": True,
        "trace": density.trace,
        "min_eigenvalue": density.min_eigenvalue,
        "min_pt_eig": density.min_pt_eigenvalue,
        "ppt": density.ppt,
        "x_shaped": conc is not None,
    }
    if conc is not None:
        payload["concurrence"] = conc
    _emit(args, payload)
    return EXIT_OK


def cmd_construct(args) -> int:
    from . import criteria, linalg, xstate

    params = forms.XParams.symmetric(args.t1, args.t2, args.v1, args.v2)
    pair = xstate.build_factors(params)
    rho = linalg.transposed_gap(pair.p1, pair.p2, criteria.TWO_QUBITS)[1]  # no RuntimeWarning
    if where := linalg.nonfinite_entries(rho):
        raise InvalidParams(f"the product P1 P2 overflows: non-finite entries at {where}")
    # The product is Hermitian and PSD, so only its trace, 2 (t1 + t2), can fail.
    try:
        criteria.validate_density(rho, criteria.TWO_QUBITS)
    except NotDensityMatrix:
        print(f"warning: t1 + t2 = {params.t1 + params.t2!r}, product state is "
              "unnormalized (a normalized state needs t1 + t2 = 0.5)", file=sys.stderr)
    if args.with_factors:
        if args.out is None:
            raise InvalidParams("--with-factors requires --out to derive companion paths")
        stem = args.out[:-5] if args.out.endswith(".json") else args.out
        matfile.save(f"{stem}.p1.json", pair.p1, (2, 2))
        matfile.save(f"{stem}.p2.json", pair.p2, (2, 2))
    _write_text(args.out, matfile.encode(rho, (2, 2)))
    return EXIT_OK


def cmd_check_equality(args) -> int:
    from . import criteria, xstate

    params = forms.XParams.symmetric(args.t1, args.t2, args.v1, args.v2)
    pair = xstate.build_factors(params)
    report = criteria.factor_report(pair.p1, pair.p2, tol=args.tol)
    gap_eigs = [] if report.gap_eigenvalues is None else [float(w) for w in report.gap_eigenvalues]
    payload = {**vars(report), "gap_eigenvalues": gap_eigs}
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
    product, which is the same state for every t1. The lattice is
    evaluated per axis on Python scalars, with the closed forms of `forms`.
    The sides are symmetric in (|v1|, |v2|), so each unordered pair is
    evaluated and rendered once: one `fmt` call for its left side and one of
    two verdict suffixes, `,rhs,true` or `,rhs,false`, built once per sweep.
    """
    try:
        d1 = t1 ** 4  # det of the diagonal factor, unchanged by partial transposition
        if literal:
            d1 = d1 * t1 ** 4  # the t1-scaled second factor contributes t1^4 to its det
        # The largest left side on the lattice is at v1 = v2 = 0, where det(P2^G) = 1.
        top = forms.theorem2_lhs(d1)
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise InvalidParams(f"t1 = {t1!r} overflows the left side 81 D^3 + 512 D")
    rhs = forms.THEOREM2_RHS

    step = 1.0 / (grid - 1)
    v_abs = [i * step for i in range(grid)]
    # Moduli of the corners v/4 of the normalized product, v1 down the
    # rows and v2 along the columns: |v e^{i phase} / 4|.
    moduli = [forms._moduli([complex(v * c / 4.0, v * s / 4.0) for v in v_abs])
              for c, s in ((math.cos(ph), math.sin(ph)) for ph in (phase1, phase2))]
    # Every cell has diagonal 1/4, so its concurrence is the larger, and its
    # minimum partial-transpose eigenvalue (partial transposition swaps the
    # corners) the smaller, of one term per corner modulus; a concurrence term
    # is 0.0 unless a libm's sin and cos round a modulus above 1/4.
    terms = {}
    for m in {*moduli[0], *moduli[1]}:
        terms[m] = (forms.x_concurrence(0.25, 0.25, 0.25, 0.25, m, 0.0),
                    forms.hermitian_2x2(0.25, 0.25, m)[1])
    rendered = {x: fmt(x) for x in {x for pair in terms.values() for x in pair}}
    # Per |v|, its factor of det(P2^G) = (1 - |v1|^2)(1 - |v2|^2); per |v| and
    # axis, its text and its two terms with their text.
    factors = [forms.x_determinant(1.0, 1.0, 1.0, 1.0, v, 0.0) for v in v_abs]
    v_text = [fmt(v) for v in v_abs]
    row_axis, col_axis = ([(a, c, rendered[c], low, rendered[low])
                           for a, (c, low) in zip(v_text, map(terms.get, ms))] for ms in moduli)

    # The sides are symmetric (float products commute): row i evaluates and
    # renders columns j >= i, and takes j < i from column i of the rows above.
    rhs_text = fmt(rhs)
    holds, fails = f",{rhs_text},true", f",{rhs_text},false"
    sides, rows = [], []
    for i, (f_row, (a, c_row, ct_row, l_row, lt_row)) in enumerate(zip(factors, row_axis)):
        lhs_row = [forms.theorem2_lhs(d1 * (f_col * f_row)) for f_col in factors[i:]]
        sides.append([*map(itemgetter(i), sides),
                      *[f"{fmt(lhs)}{holds if lhs <= rhs else fails}" for lhs in lhs_row]])
        rows += [f"{a},{b},{s},{ct_row if c_row >= c_col else ct_col},"
                 f"{lt_row if l_row <= l_col else lt_col}"
                 for s, (b, c_col, ct_col, l_col, lt_col) in zip(sides[-1], col_axis)]
    return rows


def cmd_sweep(args) -> int:
    if args.grid < 2:
        raise InvalidParams(f"grid must be >= 2, got {args.grid}")
    t1 = forms.XParams.symmetric(args.t1, args.t1, 0.0, 0.0).t1
    for name in ("phase1", "phase2"):
        value = getattr(args, name)
        if not math.isfinite(value):
            raise InvalidParams(f"{name} must be finite, got {value!r}")
    rows = _sweep_rows(t1, args.grid, args.scaled_p2, args.phase1, args.phase2)
    header = "v1_abs,v2_abs,lhs,rhs,satisfied,concurrence,min_pt_eig"
    _write_text(args.out, "\n".join([header, *rows, ""]))
    return EXIT_OK


def cmd_counterexample(args) -> int:
    from . import criteria, linalg

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


def cmd_selftest(args) -> int:
    from . import selftest

    return selftest.run()


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
    sub.add_argument("--tol", type=float, default=forms.DEFAULT_TOL,
                     help="tolerance for Hermiticity/PSD decisions (default %(default)s)")
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
        return e.code
    try:
        # Only analyze, check-equality and counterexample take --tol.
        tol = getattr(args, "tol", 0.0)
        if not 0.0 <= tol < math.inf:
            raise InvalidParams(f"tol must be finite and nonnegative, got {tol!r}")
        return args.func(args)
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(e, kind))
