"""Tests of the benchmark itself.

Run from the repository root with `python3 -m pytest -q bench`.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_source_tree()

import numpy as np  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import xsep  # noqa: E402
from xsep import bipartite, cli, criteria, linalg, matfile, xstate  # noqa: E402

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _comparable(inputs):
    if inputs and isinstance(inputs[0], workloads.DenseCase):
        return [
            (c.kind, c.m, c.a.tobytes(), None if c.b is None else c.b.tobytes())
            for c in inputs
        ]
    return inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    make = workloads.INPUTS[workload]
    assert _comparable(make(11)) == _comparable(make(11))
    assert _comparable(make(11)) != _comparable(make(12))


def test_sweep_grid101_traced_counts_repeat_exactly():
    seen = []
    for _ in range(2):
        t = tracer.Tracer()
        with t.installed():
            t.begin_op()
            code, _ = workloads.run_cli(["sweep", "--grid", "101"])
        assert code == 0
        seen.append(t.counts())
    assert seen[0] == seen[1]
    counts = seen[0]
    assert counts["xstate.XMatrix"] == 20402
    assert counts["matfile.format_float"] == 51006
    assert counts["xstate.x_eigenvalues"] == 10201
    assert counts["xstate.concurrence"] == 10201
    assert counts["linalg.hermitian_eigenvalues"] == 0
    assert counts["linalg.det"] == 0
    assert counts["cli.main"] == 1


def _bindings():
    modules = [m for name, m in sys.modules.items() if name == "xsep" or name.startswith("xsep.")]
    snap = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for cls in (xstate.XMatrix, xstate.XParams):
        snap[(cls.__name__, "__post_init__")] = cls.__dict__["__post_init__"]
    return snap


def test_tracer_wraps_aliases_and_restores_every_binding():
    before = _bindings()
    t = tracer.Tracer()
    with t.installed():
        assert cli.fmt is not before[("xsep.matfile", "format_float")]
        assert cli.fmt is matfile.format_float
        assert criteria.partial_transpose is bipartite.partial_transpose
        assert cli.partial_transpose is bipartite.partial_transpose
        assert xsep.partial_transpose is bipartite.partial_transpose
        assert bipartite.partial_transpose is not before[("xsep.bipartite", "partial_transpose")]
        assert xstate.XMatrix.__dict__["__post_init__"] is not before[("XMatrix", "__post_init__")]
        t.begin_op()
        xstate.XMatrix(0.25, 0.25, 0.25, 0.25, 0.1, 0.1)
        criteria.ppt_verdict(np.eye(4) / 4, (2, 2))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    counts = t.counts()
    assert counts["xstate.XMatrix"] == 1
    assert counts["bipartite.partial_transpose"] == 1
    assert counts["linalg.hermitian_eigenvalues"] == 2


def _scale_det(orig):
    return lambda a: orig(a) * 1.01


def _flip_pt(orig):
    return lambda a, dims: orig(a, dims).T


CORRUPTIONS = {
    "sweep": [(cli, "fmt", lambda orig: lambda x: orig(x + 1e-9))],
    "verdicts": [(linalg, "min_eigenvalue", lambda orig: lambda a, tol=1e-10: orig(a, tol) - 1e-6)],
    "dense": [
        (linalg, "det", _scale_det),
        (cli, "partial_transpose", _flip_pt),
        (cli, "fmt", lambda orig: lambda x: orig(x + 1e-9)),
    ],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_raises_failed_frac(workload, monkeypatch, tmp_path):
    inputs = workloads.INPUTS[workload](5)
    ops = workloads.OPS[workload](inputs, tmp_path)[:20]
    clean = run.Tally()
    clean.run_pass(ops)
    assert clean.attempted == len(ops) and clean.failed == 0
    for module, attr, corrupt in CORRUPTIONS[workload]:
        monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    broken = run.Tally()
    broken.run_pass(ops)
    assert broken.failed == broken.attempted == len(ops)


def _result(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_exactly_the_declared_metrics(trace, section):
    result = _result(["--workload", "dense", "--seed", "0", "--seconds", "0.2",
                      "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
