"""The lazy package surface: `xsep.<name>` is the defining module's binding, at every access."""

import importlib
from pathlib import Path

import pytest

import xsep
from xsep import bipartite

# The public names, as the package has always exported them.
PUBLIC = [
    "BipartiteDims", "CriterionReport", "DEFAULT_TOL", "DensityReport", "DimensionMismatch",
    "EqualityHypothesisError", "FactorPair", "InequalityCheck", "InvalidParams",
    "MatrixFileError", "NotDensityMatrix", "NotHermitian", "XMatrix", "XParams", "XsepError",
    "build_factors", "concurrence", "corollary1_check", "counterexample_gap",
    "counterexample_pt_product", "counterexample_state", "det", "equality_holds",
    "factor_report", "family_concurrence", "frobenius_norm", "hermitian_eigenvalues", "is_psd",
    "is_x_shaped", "min_eigenvalue", "mul", "partial_transpose", "ppt_verdict", "product_state",
    "pt_first", "pt_gap", "tarazaga_pd", "theorem2_check", "trace", "validate_density",
    "x_eigenvalues", "zero_concurrence_region",
]


def test_all_is_unchanged():
    assert xsep.__all__ == PUBLIC
    assert len(PUBLIC) == 42
    assert xsep.__version__ == "0.1.0"


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"xsep.{xsep._HOMES[name]}")
    assert getattr(xsep, name) is getattr(home, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from xsep import *", namespace)
    assert [name for name in PUBLIC if namespace.get(name) is not getattr(xsep, name)] == []


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(xsep))
    assert {"__all__", "__version__"} <= set(dir(xsep))


def test_each_module_is_an_attribute():
    for name in xsep._MODULES:
        assert getattr(xsep, name) is importlib.import_module(f"xsep.{name}")
    assert sorted(xsep._MODULES) == sorted(
        path.stem for path in Path(xsep.__file__).parent.glob("*.py")
        if not path.stem.startswith("__"))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'xsep' has no attribute 'nope'"):
        getattr(xsep, "nope")
    assert not hasattr(xsep, "nope")


def test_a_rebound_home_attribute_is_what_the_package_returns(monkeypatch):
    # Nothing is cached in the package: a tracer's wrapper, and its removal,
    # show through `xsep.partial_transpose` at once.
    original = bipartite.partial_transpose

    def f(a, dims):
        return original(a, dims)

    monkeypatch.setattr(bipartite, "partial_transpose", f)
    assert xsep.partial_transpose is f
    monkeypatch.undo()
    assert xsep.partial_transpose is original
    assert "partial_transpose" not in vars(xsep)
