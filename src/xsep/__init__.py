"""Partial transposition of matrix products and separability of two-qubit X states.

The package imports its modules lazily (PEP 562): `import xsep` loads none
of them, and so no NumPy. A public name is looked up in the module that
defines it on each access, `xsep.det` as `xsep.linalg.det`, and a module
name such as `xsep.linalg` imports that module; the first access to a
NumPy-backed name imports NumPy with its module. A public name is never
cached here, so rebinding the module attribute (a monkeypatch, a tracer)
rebinds `xsep.<name>` too.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_HOMES = {
    "BipartiteDims": "bipartite",
    "CriterionReport": "criteria",
    "DEFAULT_TOL": "forms",
    "DensityReport": "criteria",
    "DimensionMismatch": "errors",
    "EqualityHypothesisError": "errors",
    "FactorPair": "xstate",
    "InequalityCheck": "criteria",
    "InvalidParams": "errors",
    "MatrixFileError": "errors",
    "NotDensityMatrix": "errors",
    "NotHermitian": "errors",
    "XMatrix": "xstate",
    "XParams": "forms",
    "XsepError": "errors",
    "build_factors": "xstate",
    "concurrence": "xstate",
    "corollary1_check": "criteria",
    "counterexample_gap": "criteria",
    "counterexample_pt_product": "criteria",
    "counterexample_state": "criteria",
    "det": "linalg",
    "equality_holds": "criteria",
    "factor_report": "criteria",
    "family_concurrence": "xstate",
    "frobenius_norm": "linalg",
    "hermitian_eigenvalues": "linalg",
    "is_psd": "linalg",
    "is_x_shaped": "xstate",
    "min_eigenvalue": "linalg",
    "mul": "linalg",
    "partial_transpose": "bipartite",
    "ppt_verdict": "criteria",
    "product_state": "xstate",
    "pt_first": "bipartite",
    "pt_gap": "criteria",
    "tarazaga_pd": "criteria",
    "theorem2_check": "criteria",
    "trace": "linalg",
    "validate_density": "criteria",
    "x_eigenvalues": "xstate",
    "zero_concurrence_region": "xstate",
}

__all__ = list(_HOMES)

_MODULES = ("bipartite", "cli", "criteria", "errors", "forms", "linalg", "matfile", "selftest",
            "xstate")


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
