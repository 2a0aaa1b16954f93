"""The library reaches each binding that the benchmark's corruption check patches.

`bench/test_bench.py` corrupts `linalg.min_eigenvalue` (verdicts), and
`linalg.det`, `cli.partial_transpose` and `cli.fmt` (dense and sweep), and
expects every operation to fail. That holds only while the library calls each
one through that module attribute. A change that stops doing so breaks
`pytest bench`, which the tier-1 run does not include; these tests shift each
binding and assert that the output it feeds moves.

The traced benchmark wraps each name that `bench/tracer.py` lists in `LAYERS`
and stops with an error at one that is gone; a test here resolves every one.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from xsep import cli, criteria, linalg, matfile, xstate
from xsep.cli import main

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def min_pt_eigenvalue(tmp_path, capsys):
    pair = xstate.build_factors(xstate.XParams.symmetric(0.25, 0.25, 0.6, 0.3j))
    return criteria.factor_report(pair.p1, pair.p2).min_pt_eigenvalue


def corollary1_lhs(tmp_path, capsys):
    eye9 = np.eye(9, dtype=complex)
    return criteria.corollary1_check(eye9, eye9, (3, 3)).lhs


def pt_file(tmp_path, capsys):
    src, out = tmp_path / "m.json", tmp_path / "pt.json"
    matfile.save(str(src), np.arange(16).reshape(4, 4) * (1 + 0.5j), (2, 2))
    assert main(["pt", str(src), "--out", str(out)]) == 0
    return out.read_text()


def analyze_text(tmp_path, capsys):
    src = tmp_path / "mixed.json"
    matfile.save(str(src), np.eye(4) / 4.0, (2, 2))
    assert main(["analyze", str(src)]) == 0
    return capsys.readouterr().out


def sweep_csv(tmp_path, capsys):
    assert main(["sweep", "--grid", "3", "--phase1", "0.3", "--phase2", "1.1"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("module, name, shift, output", [
    (linalg, "min_eigenvalue", lambda f: lambda a, tol=1e-10: f(a, tol) - 1e-6, min_pt_eigenvalue),
    (linalg, "det", lambda f: lambda a: f(a) * 1.01, corollary1_lhs),
    (cli, "partial_transpose", lambda f: lambda a, dims: f(a, dims).T, pt_file),
    (cli, "fmt", lambda f: lambda x: f(x + 1e-9), analyze_text),
    (cli, "fmt", lambda f: lambda x: f(x + 1e-9), sweep_csv),
], ids=["min_eigenvalue", "det", "partial_transpose", "fmt", "fmt-sweep"])
def test_shifting_the_binding_moves_the_output(module, name, shift, output, monkeypatch,
                                               tmp_path, capsys):
    before = output(tmp_path, capsys)
    monkeypatch.setattr(module, name, shift(getattr(module, name)))
    assert output(tmp_path, capsys) != before


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, targets in tracer.LAYERS.items():
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                found = isinstance(owner, type) and method in owner.__dict__
            else:
                found = callable(getattr(module, attr, None))
            if not found:
                missing.append(f"{layer}: {module_name}.{attr}")
    assert not missing, "\n".join(missing)
