"""The source rules of the library, as tests.

Each rule names the files under src/xsep it covers, as one glob or a tuple
of them, and a regular expression that no line of them may match. A failure lists every offending line as
file:line, with the rule's name. The tier-1 run is where these rules are
enforced, at every NumPy version the tests run under.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "xsep"

# A bare abs( call; math.fabs(, np.abs( and _abs( are not one.
MODULUS = r"(?<![\w.])abs\("
TOL_LITERAL = r"[0-9]e-?[0-9]"
# NumPy's trace, as a function or a method; linalg.trace( is the library's one rule.
TRACE = r"np\.trace\(|\)\.trace\("
# A failure test `x > tol` or `x < -tol` in code, which a NaN x passes; `not x <= tol`
# fails it. An operand ends the left side, so `{x:.3e} > tol` in a message is spared.
TOL_FAILS = r"^[^#]*[\w)\]]\s*(?:>|<\s*-)\s*tol\b"
# NumPy arithmetic on an array: the kernels take Python numbers off the array boundary
# (`tolist`, `np.array` of a result), and `mul`'s `a @ b` is the one product left to NumPy.
NUMPY_ARITHMETIC = r"\bnp\.(?:abs|square|ldexp|sqrt)\(|\.sum\(|\.view\("
# Every module that `import xsep` and `xsep sweep` load: none imports NumPy at module level.
SWEEP_PATH = ("forms.py", "__init__.py", "__main__.py", "errors.py", "bipartite.py",
              "matfile.py", "cli.py")
# The report number format, 12 decimals fixed or scientific, lives in forms.format_float.
NUMBER_FORMAT = r"\.12[fe]"
NOT_FORMS = tuple(sorted(path.name for path in SRC.glob("*.py") if path.name != "forms.py"))
# Each name that forms.py defines at top level, reached through a module that
# only imports it (`linalg._moduli`, `from .matfile import format_float`), not at `forms`.
FORMS_NAMES = sorted(
    target.id if isinstance(node, ast.Assign) else node.name
    for node in ast.parse((SRC / "forms.py").read_text(encoding="utf-8")).body
    if isinstance(node, (ast.Assign, ast.FunctionDef, ast.ClassDef))
    for target in (node.targets if isinstance(node, ast.Assign) else [node])
)
FORMS_AWAY = (r"\b(?:linalg|xstate|criteria|matfile)(?:\.|\s+import\s+(?:[\w\s,(]*[\s,(])?)"
              r"(?:" + "|".join(FORMS_NAMES) + r")\b")

# rule -> (file globs under src/xsep, pattern, a line the pattern must catch)
RULES = {
    "no LAPACK in the library": ("*.py", r"np\.linalg|numpy\.linalg|scipy", "np.linalg.eigvalsh(a)"),
    "no tolerance literal in xstate": ("xstate.py", TOL_LITERAL, "tol = 1e-10"),
    "no tolerance literal in criteria": ("criteria.py", TOL_LITERAL, "if x > 1e-12:"),
    "one modulus rule in xstate": ("xstate.py", MODULUS, "r = abs(z)"),
    "one modulus rule in criteria": ("criteria.py", MODULUS, "if abs(tr - 1.0) > tol:"),
    "no tolerance literal in cli": ("cli.py", TOL_LITERAL, "if abs(t1 + t2 - 0.5) > 1e-12:"),
    "one modulus rule in cli": ("cli.py", MODULUS, "m = abs(complex(v * c, v * s))"),
    "a tolerance test passes only on <=": ("*.py", TOL_FAILS, "if gap > tol:"),
    "sweep on Python scalars": (SWEEP_PATH, r"^(import numpy|from numpy)", "import numpy as np"),
    "one trace rule": ("*.py", TRACE, "return complex(np.asarray(a).trace())"),
    "no NumPy arithmetic in linalg or criteria": (("linalg.py", "criteria.py"), NUMPY_ARITHMETIC,
                                                 "return math.sqrt(np.square(m).sum()), e"),
    "one home for the report number format": (NOT_FORMS, NUMBER_FORMAT, 'f"{x:.12f}"'),
    "each closed form reached at forms": ("*.py", FORMS_AWAY, "m14, m23 = linalg._moduli((c14, c23))"),
}


@pytest.mark.parametrize("rule", RULES)
def test_no_line_breaks_the_rule(rule):
    globs, pattern, _ = RULES[rule]
    paths = []
    for glob in (globs,) if isinstance(globs, str) else globs:
        matched = sorted(SRC.glob(glob))
        assert matched, f"{rule}: no file matches src/xsep/{glob}"
        paths += matched
    broken = [f"src/xsep/{path.name}:{number}: {rule}: {line.strip()}"
              for path in paths
              for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
              if re.search(pattern, line)]
    assert not broken, "\n".join(broken)


@pytest.mark.parametrize("rule", RULES)
def test_the_rule_catches_its_example(rule):
    _, pattern, example = RULES[rule]
    assert re.search(pattern, example)


def test_the_modulus_rule_spares_other_calls():
    for line in ("math.fabs(x)", "np.abs(a)", "_abs(z)", "linalg._modulus(z)", "cabs(z)"):
        assert not re.search(MODULUS, line), line


def test_the_trace_rule_spares_the_librarys_trace():
    for line in ("linalg.trace(rho)", "tr = trace(a)", "density.trace", "linalg._trace(diagonal)"):
        assert not re.search(TRACE, line), line


def test_the_tolerance_rule_catches_each_form_a_nan_passes():
    for line in ("if gap > tol:", "return None if gap > tol else c", "if lowest < -tol:",
                 "if linalg._modulus(tr - 1.0) > tol:", "if defects[k] > tol:"):
        assert re.search(TOL_FAILS, line), line


def test_the_tolerance_rule_spares_the_tests_a_nan_fails():
    for line in ("if not gap <= tol:", "return c if gap <= tol else None", "min_pt >= -tol",
                 "# a NaN passes x > tol", 'f"{gap_norm:.3e} > tol {tol:.3e}); check"'):
        assert not re.search(TOL_FAILS, line), line


def test_the_numpy_arithmetic_rule_catches_each_call_and_spares_python_arithmetic():
    for line in ("m = np.abs(parts)", "np.ldexp(parts, -e)", "float(np.sqrt(s))",
                 "parts = a.view(np.float64)", "total = np.square(m).sum()"):
        assert re.search(NUMPY_ARITHMETIC, line), line
    for line in ("math.sqrt(math.fsum(squares))", "math.ldexp(m, -e)", "map(sum, masks)",
                 "return a @ b", "np.asarray(a, dtype=complex).ravel().tolist()"):
        assert not re.search(NUMPY_ARITHMETIC, line), line


def test_the_number_format_rule_catches_each_spec_and_spares_other_precisions():
    for line in ('f"{x:.12e}"', 'return "%.12f" % x', "format(x, '.12f')"):
        assert re.search(NUMBER_FORMAT, line), line
    for line in ('f"{gap_norm:.3e} > tol {tol:.3e}"', "round(x, 12)", "fmt(x)"):
        assert not re.search(NUMBER_FORMAT, line), line


def test_the_forms_rule_catches_each_route_around_forms_and_spares_the_rest():
    assert {"DEFAULT_TOL", "XParams", "_moduli", "format_float", "theorem2_lhs"} <= set(FORMS_NAMES)
    for line in ("tol: float = linalg.DEFAULT_TOL", "xstate.XParams.symmetric(t1, t2, v1, v2)",
                 "rhs = criteria.THEOREM2_RHS", "from .matfile import format_float as fmt",
                 "from .xstate import FactorPair, XParams"):
        assert re.search(FORMS_AWAY, line), line
    for line in ("forms._moduli(zs)", "from .forms import XParams", "linalg._spectrum(rows)",
                 "xstate.matrix_concurrence(a, tol)", "criteria.TWO_QUBITS", "matfile.encode(a)"):
        assert not re.search(FORMS_AWAY, line), line
