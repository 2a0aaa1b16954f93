"""Seeded inputs, operations and output oracles of the three benchmark workloads.

Each workload is a pool of operations built from the seed. One operation is
a closed call into xsep; its oracle checks the returned output against an
independent NumPy reference (or a golden hash recorded at commit dd6b9a1)
after the call has returned, outside the timed region.

Operations look up xsep functions as module attributes at call time
(``cli.main``, ``criteria.factor_report``), so the tracer's wrappers are the
ones called while tracing is on. The oracles never call xsep.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from xsep import cli, criteria, linalg, xstate

WORKLOADS = ("sweep", "verdicts", "dense")


@dataclass(frozen=True)
class Op:
    """One operation: `call` runs the program, `check` judges what it returned."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`cli.main(argv)` in-process; returns the exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _np_pt(a: np.ndarray, m: int, n: int) -> np.ndarray:
    """Reference partial transpose over the second subsystem (reshape-transpose)."""
    return a.reshape(m, n, m, n).transpose(0, 3, 2, 1).reshape(m * n, m * n)


# ---------------------------------------------------------------------------
# sweep: `xsep sweep` at grid 101, checked by the sha256 of its CSV.

SWEEP_GRID = 101
SWEEP_POOL = 4
SWEEP_T1 = ("0.05", "0.125", "0.25", "0.3", "0.5", "0.75")
SWEEP_PHASES = (("0.3", "1.1"), ("0.7", "2.5"), ("1.9", "0.4"), ("3.0", "5.5"))
# Checked once per run besides the pool: the lattice sizes and flag variants
# whose CSV bytes must stay identical across implementations of the sweep.
SWEEP_EXTRAS = (
    ("sweep", "--grid", "2"),
    ("sweep", "--grid", "11"),
    ("sweep", "--grid", "301"),
    ("sweep", "--grid", "101", "--scaled-p2"),
    ("sweep", "--grid", "101", "--phase1", "0.3", "--phase2", "1.1"),
)
GOLDEN_PATH = Path(__file__).with_name("golden_sweep.json")


def sweep_menu() -> list[tuple[str, ...]]:
    """Every argv the sweep pool can draw: t1 x --scaled-p2 x non-zero phases."""
    menu = []
    for t1 in SWEEP_T1:
        for scaled in (False, True):
            for ph1, ph2 in SWEEP_PHASES:
                argv = ["sweep", "--t1", t1, "--grid", str(SWEEP_GRID)]
                if scaled:
                    argv.append("--scaled-p2")
                menu.append(tuple(argv + ["--phase1", ph1, "--phase2", ph2]))
    return menu


def sweep_inputs(seed: int) -> list[tuple[str, ...]]:
    rng = np.random.default_rng(seed)
    menu = sweep_menu()
    return [menu[i] for i in rng.choice(len(menu), SWEEP_POOL, replace=False)]


def _sweep_op(argv: tuple[str, ...], golden: dict[str, str]) -> Op:
    digest = golden[" ".join(argv)]

    def check(result: tuple[int, str]) -> bool:
        code, text = result
        return code == 0 and hashlib.sha256(text.encode()).hexdigest() == digest

    return Op("sweep", lambda: run_cli(list(argv)), check)


def sweep_ops(inputs, workdir: Path) -> list[Op]:
    golden = json.loads(GOLDEN_PATH.read_text())["sha256"]
    return [_sweep_op(argv, golden) for argv in inputs]


def sweep_extra_ops(workdir: Path) -> list[Op]:
    golden = json.loads(GOLDEN_PATH.read_text())["sha256"]
    return [_sweep_op(argv, golden) for argv in SWEEP_EXTRAS]


# ---------------------------------------------------------------------------
# verdicts: factor_report + ppt_verdict (+ theorem2_check) on 4x4 X pairs.

VERDICT_POOL = 256
# Share of the pool in the equality family t1 = t2. Equality-family
# operations take longer (they add theorem2_check), so an even split would
# put the median exactly between the two latency modes; 5/8 puts both
# reported percentiles inside the equality-family band.
VERDICT_EQUALITY = 160
# Every eighth case of each family lies exactly on the separable boundary.
VERDICT_BOUNDARY_EVERY = 8
_AWAY = 1e-6  # minimum |concurrence margin| of a case that is not on the boundary


@dataclass(frozen=True)
class VerdictCase:
    t1: float
    t2: float
    v1: complex
    v2: complex
    boundary: bool


def _margin(t1: float, t2: float, a1: float, a2: float) -> float:
    """Half the family concurrence before clipping at 0; zero on the boundary."""
    return max(t2 * a2 - t1, t1 * a1 - t2)


def _verdict_case(rng: np.random.Generator, equality: bool, boundary: bool) -> VerdictCase:
    while True:
        if equality:
            t1 = t2 = 0.25
        else:
            t1 = float(rng.uniform(0.05, 0.45))
            if abs(t1 - 0.25) < 0.01:
                continue
            t2 = 0.5 - t1
        a1, a2 = (float(x) for x in rng.uniform(0.05, 1.0, 2))
        if boundary:
            if equality:
                a1 = 1.0
            elif t1 < t2:
                a2 = t1 / t2
            else:
                a1 = t2 / t1
        elif abs(_margin(t1, t2, a1, a2)) < _AWAY:
            continue
        ph1, ph2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        v1 = a1 * complex(math.cos(ph1), math.sin(ph1))
        v2 = a2 * complex(math.cos(ph2), math.sin(ph2))
        return VerdictCase(t1, t2, v1, v2, boundary)


def verdict_inputs(seed: int) -> list[VerdictCase]:
    rng = np.random.default_rng(seed)
    cases = [
        _verdict_case(rng, k < VERDICT_EQUALITY, k % VERDICT_BOUNDARY_EVERY == 0)
        for k in range(VERDICT_POOL)
    ]
    return [cases[i] for i in rng.permutation(VERDICT_POOL)]


def _verdict_call(case: VerdictCase):
    params = xstate.XParams.symmetric(case.t1, case.t2, case.v1, case.v2)
    pair = xstate.build_factors(params)
    report = criteria.factor_report(pair.p1, pair.p2)
    ppt = criteria.ppt_verdict(linalg.mul(pair.p1, pair.p2), (2, 2))
    thm2 = criteria.theorem2_check(pair.p1, pair.p2) if report.equality_holds else None
    return report, ppt, thm2


def _verdict_check(case: VerdictCase, result) -> bool:
    report, ppt, thm2 = result
    t1, t2, v1, v2 = case.t1, case.t2, case.v1, case.v2
    p1 = np.diag([t1, t2, t2, t1]).astype(complex)
    p2 = np.eye(4, dtype=complex)
    p2[0, 3], p2[3, 0], p2[1, 2], p2[2, 1] = v1, np.conj(v1), v2, np.conj(v2)
    rho_pt = _np_pt(p1 @ p2, 2, 2)
    gap = rho_pt - _np_pt(p1, 2, 2) @ _np_pt(p2, 2, 2)
    gap_eigs = np.linalg.eigvalsh(gap)[::-1]
    if report.gap_eigenvalues is None:
        return False
    conc = 2.0 * max(0.0, _margin(t1, t2, abs(v1), abs(v2)))
    prod = t1 * t1 * t2 * t2 * (1.0 - abs(v1) ** 2) * (1.0 - abs(v2) ** 2)
    lhs = 81.0 * prod ** 3 + 512.0 * prod
    ok = (
        abs(report.min_pt_eigenvalue - np.linalg.eigvalsh(rho_pt)[0]) <= 1e-10
        and float(np.max(np.abs(report.gap_eigenvalues - gap_eigs))) <= 1e-10
        and report.equality_holds == (np.linalg.norm(gap) <= 1e-10)
        and report.concurrence is not None
        and abs(report.concurrence - conc) <= 1e-12
        and abs(report.theorem2_lhs - lhs) <= 1e-9 * (1.0 + abs(lhs))
        and (ppt == report.ppt == (conc == 0.0) if not case.boundary else ppt and report.ppt)
    )
    if report.equality_holds:
        ok = ok and thm2 is not None and abs(thm2.lhs - lhs) <= 1e-9 * (1.0 + abs(lhs)) and (
            thm2.satisfied == (thm2.lhs <= 2.0 ** 11 / 9.0)
        )
    return ok and (thm2 is None) == (not report.equality_holds)


def verdict_ops(inputs, workdir: Path) -> list[Op]:
    return [
        Op("verdicts", lambda c=case: _verdict_call(c), lambda r, c=case: _verdict_check(c, r))
        for case in inputs
    ]


# ---------------------------------------------------------------------------
# dense: analyze / pt on matrix files and corollary1_check, at 9x9 and 16x16.

# (kind, subsystem order m of an m x m split, count per pool). Latencies at
# commit dd6b9a1, fastest first: corollary1 at 9 and 16, pt at 9, pt at 16,
# analyze at 9, analyze at 16. The counts put the median in the middle of
# the pt-16 band (cumulative share 0.40..0.60) and the 90th percentile in the
# middle of the analyze-16 band (0.80..1.00).
DENSE_MIX = (
    ("corollary1", 3, 3),
    ("corollary1", 4, 3),
    ("pt", 3, 2),
    ("pt", 4, 4),
    ("analyze", 3, 4),
    ("analyze", 4, 4),
)


@dataclass(frozen=True, eq=False)
class DenseCase:
    kind: str
    m: int
    a: np.ndarray  # density matrix (analyze, pt) or first factor (corollary1)
    b: np.ndarray | None  # second factor (corollary1)


def _ginibre(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = g @ g.conj().T
    return 0.5 * (h + h.conj().T)


def dense_inputs(seed: int) -> list[DenseCase]:
    rng = np.random.default_rng(seed)
    cases = []
    for kind, m, count in DENSE_MIX:
        d = m * m
        for _ in range(count):
            if kind == "corollary1":
                cases.append(DenseCase(kind, m, _ginibre(rng, d) / d, _ginibre(rng, d) / d))
            else:
                rho = _ginibre(rng, d)
                cases.append(DenseCase(kind, m, rho / np.trace(rho).real, None))
    return [cases[i] for i in rng.permutation(len(cases))]


def _write_matrix(path: Path, a: np.ndarray, m: int) -> None:
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in a]
    path.write_text(json.dumps({"dim": m * m, "dims": [m, m], "entries": entries}))


def _analyze_check(case: DenseCase, result: tuple[int, str]) -> bool:
    code, text = result
    fields = dict(line.split(": ", 1) for line in text.splitlines())
    min_pt = np.linalg.eigvalsh(_np_pt(case.a, case.m, case.m))[0]
    return (
        code == 0
        and fields["hermitian"] == "true"
        and abs(float(fields["trace"]) - 1.0) <= 1e-10
        and abs(float(fields["min_eigenvalue"]) - np.linalg.eigvalsh(case.a)[0]) <= 1e-10
        and abs(float(fields["min_pt_eig"]) - min_pt) <= 1e-10
        and fields["ppt"] == ("true" if min_pt >= -1e-10 else "false")
        and fields["x_shaped"] == "false"
        and "concurrence" not in fields
    )


def _pt_check(case: DenseCase, out: Path, result: tuple[int, str]) -> bool:
    code, text = result
    doc = json.loads(out.read_text())
    arr = np.array(doc["entries"], dtype=float)
    got = arr[..., 0] + 1j * arr[..., 1]
    return (
        code == 0
        and text == ""
        and doc["dims"] == [case.m, case.m]
        and np.array_equal(got, _np_pt(case.a, case.m, case.m))
    )


def _corollary1_check(case: DenseCase, result) -> bool:
    m = n = case.m
    d1 = np.linalg.det(_np_pt(case.a, m, n)).real
    d2 = np.linalg.det(_np_pt(case.b, m, n)).real
    lhs = (n - 1.0) ** n * d1 ** 3 * d2 ** 3 + 2.0 * float(n) ** n * d1 * d2
    rhs = float(n) ** ((3 * n - 1) / 2.0) / (n - 1.0) ** (n / 2.0)
    return (
        abs(result.lhs - lhs) <= 1e-8 * abs(lhs)
        and abs(result.rhs - rhs) <= 1e-12 * rhs
        and result.satisfied == (lhs <= rhs)
    )


def dense_ops(inputs, workdir: Path) -> list[Op]:
    """Writes each case's matrix file under `workdir` (set-up, untimed)."""
    ops = []
    for i, case in enumerate(inputs):
        if case.kind == "corollary1":
            ops.append(Op(
                "corollary1",
                lambda c=case: criteria.corollary1_check(c.a, c.b, (c.m, c.m)),
                lambda r, c=case: _corollary1_check(c, r),
            ))
            continue
        src = workdir / f"case{i}.json"
        _write_matrix(src, case.a, case.m)
        if case.kind == "analyze":
            ops.append(Op(
                "analyze",
                lambda s=src: run_cli(["analyze", str(s)]),
                lambda r, c=case: _analyze_check(c, r),
            ))
        else:
            out = workdir / f"case{i}.pt.json"
            ops.append(Op(
                "pt",
                lambda s=src, o=out: run_cli(["pt", str(s), "--out", str(o)]),
                lambda r, c=case, o=out: _pt_check(c, o, r),
            ))
    return ops


INPUTS = {"sweep": sweep_inputs, "verdicts": verdict_inputs, "dense": dense_inputs}
OPS = {"sweep": sweep_ops, "verdicts": verdict_ops, "dense": dense_ops}
EXTRA_OPS = {"sweep": sweep_extra_ops}
