"""Differential tests of `xsep sweep`: the CSV against scalar references.

The sweep evaluates each distinct corner modulus once, and the inequality
sides, which are symmetric in (|v1|, |v2|), once per unordered pair. Its
rows must equal, byte for byte, the rows the scalar library functions give
cell by cell, agree with `factor_report` on the dense factor pair, and hash
to the sha256 recorded in `bench/golden_sweep.json`.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from xsep import criteria, xstate
from xsep.cli import main
from xsep.matfile import format_float as fmt
from xsep.xstate import XMatrix, XParams

GOLDEN_SWEEP = Path(__file__).resolve().parents[1] / "bench" / "golden_sweep.json"
HEADER = "v1_abs,v2_abs,lhs,rhs,satisfied,concurrence,min_pt_eig"

# t1 > 1 puts cells on both sides of the inequality, with left sides from 0
# to far past the right side 2^11/9. The ends check the table's extremes: at
# 5e12 with --scaled-p2 the left side reaches 4.8e306, and at 1e-80 it is
# subnormal (unit diagonal) or exactly 0 (scaled).
T1S = (1e-80, 0.25, 1.09, 1.38, 5e12)
GRIDS = (2, 7, 33)
# Large and negative phases check the corner moduli |v e^{i phase} / 4|: at
# phase -6.9 the modulus of a unit corner rounds below 1/4.
PHASES = ((0.0, 0.0), (0.7, 2.5), (-6.9, 41.3))


def reference_rows(t1, grid, literal, phase1, phase2):
    """The sweep cell by cell from the scalar library functions."""
    e1 = complex(math.cos(phase1), math.sin(phase1))
    e2 = complex(math.cos(phase2), math.sin(phase2))
    d1 = t1 ** 4
    if literal:
        d1 = d1 * t1 ** 4
    rhs = criteria.THEOREM2_RHS
    step = 1.0 / (grid - 1)
    for i in range(grid):
        v1a = i * step
        v1 = v1a * e1
        for j in range(grid):
            v2a = j * step
            v2 = v2a * e2
            lhs = criteria.theorem2_lhs(d1 * ((1.0 - v1a * v1a) * (1.0 - v2a * v2a)))
            state = XMatrix(0.25, 0.25, 0.25, 0.25, c14=v1 / 4.0, c23=v2 / 4.0)
            conc = xstate.concurrence(state)
            # The partial transpose swaps the corners; the column is its
            # smallest eigenvalue on the corner moduli.
            pt = XMatrix(0.25, 0.25, 0.25, 0.25, c14=abs(v2 / 4.0), c23=abs(v1 / 4.0))
            min_pt = xstate.x_eigenvalues(pt)[-1]
            satisfied = "true" if lhs <= rhs else "false"
            yield (
                f"{fmt(v1a)},{fmt(v2a)},{fmt(lhs)},{fmt(rhs)},"
                f"{satisfied},{fmt(conc)},{fmt(min_pt)}"
            )


def sweep_csv(tmp_path, t1, grid, literal=False, phase1=0.0, phase2=0.0) -> str:
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--t1", repr(t1), "--grid", str(grid),
            "--phase1", repr(phase1), "--phase2", repr(phase2), "--out", str(out)]
    if literal:
        argv.append("--scaled-p2")
    assert main(argv) == 0
    return out.read_text()


@pytest.mark.parametrize("phase1, phase2", PHASES)
@pytest.mark.parametrize("literal", (False, True))
@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("t1", T1S)
def test_rows_equal_scalar_reference(tmp_path, t1, grid, literal, phase1, phase2):
    got = sweep_csv(tmp_path, t1, grid, literal, phase1, phase2)
    want = "\n".join([HEADER, *reference_rows(t1, grid, literal, phase1, phase2)]) + "\n"
    assert got == want


def test_csv_bytes_match_recorded_sha256(capsys):
    golden = json.loads(GOLDEN_SWEEP.read_text())["sha256"]
    assert len(golden) == 53
    wrong = []
    for key, digest in golden.items():
        assert main(key.split()) == 0
        if hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() != digest:
            wrong.append(key)
    assert wrong == []


def sampled_cells(text, grid, rng, count=40):
    """(v1, v2 lattice moduli, parsed row) for random cells of a sweep CSV."""
    rows = text.splitlines()[1:]
    assert len(rows) == grid * grid
    step = 1.0 / (grid - 1)
    for k in rng.choice(grid * grid, size=count, replace=False):
        i, j = divmod(int(k), grid)
        yield i * step, j * step, rows[k].split(",")


@pytest.mark.parametrize("t1", T1S)
def test_lhs_matches_factor_report(tmp_path, rng, t1):
    phase1, phase2, grid = 0.7, 2.5, 33
    text = sweep_csv(tmp_path, t1, grid, phase1=phase1, phase2=phase2)
    for v1a, v2a, row in sampled_cells(text, grid, rng):
        params = XParams.symmetric(t1, t1, v1a * np.exp(1j * phase1), v2a * np.exp(1j * phase2))
        pair = xstate.build_factors(params)
        report = criteria.factor_report(pair.p1, pair.p2)
        assert report.equality_holds
        lhs = report.theorem2_lhs
        assert abs(float(row[2]) - lhs) <= 1e-12 * max(1.0, abs(lhs))
        assert row[4] == ("true" if report.theorem2_satisfied else "false")


def test_state_columns_match_factor_report(tmp_path, rng):
    phase1, phase2, grid = 0.7, 2.5, 33
    text = sweep_csv(tmp_path, 1.09, grid, phase1=phase1, phase2=phase2)
    for v1a, v2a, row in sampled_cells(text, grid, rng):
        params = XParams.symmetric(0.25, 0.25, v1a * np.exp(1j * phase1),
                                   v2a * np.exp(1j * phase2))
        pair = xstate.build_factors(params)
        report = criteria.factor_report(pair.p1, pair.p2)
        assert abs(float(row[5]) - report.concurrence) <= 1e-12
        assert abs(float(row[6]) - report.min_pt_eigenvalue) <= 1e-12


@pytest.mark.parametrize("flag, value, reason", [
    ("--t1", "nan", "t1 must be finite"),
    ("--t1", "inf", "t1 must be finite"),
    ("--t1", "-inf", "t1 must be finite"),
    ("--phase1", "nan", "phase1 must be finite"),
    ("--phase2", "inf", "phase2 must be finite"),
    ("--t1", "1e200", "overflows"),
    ("--t1", "1e30", "overflows"),
    # a negative number in exponent form is only read as a value after `=`
    ("--t1", "-1e-3", "t1 must be nonnegative"),
])
def test_bad_numbers_exit_3_with_one_error_line(tmp_path, capsys, flag, value, reason):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--grid", "3", f"{flag}={value}", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err
    assert not out.exists()


def test_huge_t1_sweeps_until_the_left_side_overflows(tmp_path):
    # 81 t1^12 stays finite at t1 = 1e25 for the unit-diagonal factor, not
    # for the t1-scaled one, whose determinant side is t1^8.
    assert sweep_csv(tmp_path, 1e25, 2).count("\n") == 5
    assert main(["sweep", "--grid", "2", "--t1", "1e25", "--scaled-p2",
                 "--out", str(tmp_path / "s.csv")]) == 3
