"""The lazy package surface: `xsep.<name>` is the defining module's binding, at every access."""

import ast
import importlib
import re
import typing
from pathlib import Path

import pytest

import xsep
from xsep import bipartite

# The public names. A name is kept if it is one of the paper's objects, the
# entry of a CLI subcommand, shown in the README's library block, or used by an
# acceptance test or the benchmark (README, "Library").
PUBLIC = [
    "BipartiteDims", "CriterionReport", "DEFAULT_TOL", "DensityReport", "DimensionMismatch",
    "EqualityHypothesisError", "FactorPair", "InequalityCheck", "InvalidParams",
    "MatrixFileError", "NotDensityMatrix", "NotHermitian", "XMatrix", "XParams", "XsepError",
    "build_factors", "concurrence", "corollary1_check", "counterexample_gap",
    "counterexample_pt_product", "counterexample_state", "det", "equality_holds",
    "factor_report", "frobenius_norm", "hermitian_eigenvalues", "min_eigenvalue", "mul",
    "partial_transpose", "ppt_verdict", "product_state", "pt_gap", "tarazaga_pd",
    "theorem2_check", "trace", "validate_density", "x_eigenvalues",
]

# Names that were public and are one expression of kept names; the README's
# library section gives each expression.
REMOVED = ["family_concurrence", "is_psd", "is_x_shaped", "pt_first", "zero_concurrence_region"]


def test_all_is_unchanged():
    assert xsep.__all__ == PUBLIC
    assert len(PUBLIC) == 37
    assert xsep.__version__ == "0.1.0"


@pytest.mark.parametrize("name", REMOVED)
def test_a_removed_name_does_not_resolve(name):
    assert not hasattr(xsep, name)
    assert [path.name for path in Path(xsep.__file__).parent.glob("*.py")
            if name in path.read_text(encoding="utf-8")] == []


def test_the_readme_library_block_imports_public_names():
    # Every name the block imports is in __all__, or is a module of the package.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^from xsep import \(.*?\)$", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    (node,) = ast.parse(blocks[0]).body
    names = [alias.name for alias in node.names]
    assert names and set(names) <= set(PUBLIC) | set(xsep._MODULES)


@pytest.mark.parametrize("name", [name for name in PUBLIC if callable(getattr(xsep, name))])
def test_type_hints_resolve(name):
    # `bipartite` imports NumPy inside its functions, so that `xsep sweep`
    # runs without it, and its annotations name `np` unbound.
    if name == "partial_transpose":
        with pytest.raises(NameError, match="'np'"):
            typing.get_type_hints(getattr(xsep, name))
    else:
        typing.get_type_hints(getattr(xsep, name))


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
