"""End-to-end tests for the command-line interface."""

import json
import math
import shutil
import subprocess
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from xsep import criteria, forms, linalg, matfile, xstate
from xsep.cli import _emit, build_parser, main
from xsep.errors import XsepError

from conftest import random_complex, random_unit_disc

BELL = str(Path(__file__).parent / "data" / "cli_golden" / "bell.json")


def write_bell(path):
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    matfile.save(str(path), bell, (2, 2))
    return bell


class TestPt:
    def test_identity_round_trip(self, tmp_path):
        src = tmp_path / "eye.json"
        out = tmp_path / "out.json"
        matfile.save(str(src), np.eye(4, dtype=complex) / 4.0, (2, 2))
        assert main(["pt", str(src), "--out", str(out)]) == 0
        assert out.read_text() == src.read_text()

    def test_x_product_amplitude_swap(self, tmp_path, rng):
        src = tmp_path / "x.json"
        out = tmp_path / "pt.json"
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[3, 3] = 0.3
        m[1, 1] = m[2, 2] = 0.2
        m[0, 3], m[3, 0] = 0.3 * 0.5, 0.3 * 0.5
        m[1, 2], m[2, 1] = 0.2 * 0.4j, np.conj(0.2 * 0.4j)
        matfile.save(str(src), m, (2, 2))
        assert main(["pt", str(src), "--out", str(out)]) == 0
        pt, _ = matfile.load(str(out))
        assert pt[0, 3] == 0.2 * 0.4j
        assert pt[1, 2] == 0.3 * 0.5

    def test_double_pt_is_identity_bytes(self, tmp_path, rng):
        src = tmp_path / "m.json"
        once = tmp_path / "once.json"
        twice = tmp_path / "twice.json"
        canon = tmp_path / "canon.json"
        matfile.save(str(src), random_complex(rng, 4), (2, 2))
        # one canonical re-serialization of the input
        matfile.save(str(canon), *matfile.load(str(src)))
        assert main(["pt", str(src), "--out", str(once)]) == 0
        assert main(["pt", str(once), "--out", str(twice)]) == 0
        assert twice.read_bytes() == canon.read_bytes()

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 4, "entries": [[')
        assert main(["pt", str(bad)]) == 2
        assert "byte offset" in capsys.readouterr().err

    def test_dims_mismatch_exit_3(self, tmp_path):
        src = tmp_path / "m.json"
        matfile.save(str(src), np.eye(4, dtype=complex))
        assert main(["pt", str(src), "--m", "2", "--n", "3"]) == 3

    def test_flags_override_file_dims(self, tmp_path, rng):
        src = tmp_path / "m.json"
        out = tmp_path / "out.json"
        a = random_complex(rng, 6)
        matfile.save(str(src), a, (2, 3))
        assert main(["pt", str(src), "--m", "3", "--n", "2", "--out", str(out)]) == 0
        _, dims = matfile.load(str(out))
        assert (dims.m, dims.n) == (3, 2)


class TestAnalyze:
    def test_bell_state(self, tmp_path, capsys):
        src = tmp_path / "bell.json"
        write_bell(src)
        assert main(["analyze", str(src), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ppt"] is False
        assert abs(report["concurrence"] - 1.0) < 1e-12
        assert abs(report["min_pt_eig"] + 0.5) < 1e-12
        assert report["x_shaped"] is True

    def test_maximally_mixed(self, tmp_path, capsys):
        src = tmp_path / "mixed.json"
        matfile.save(str(src), np.eye(4, dtype=complex) / 4.0, (2, 2))
        assert main(["analyze", str(src), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ppt"] is True
        assert report["concurrence"] == 0.0

    def test_counterexample_file(self, tmp_path, capsys):
        src = tmp_path / "cx.json"
        matfile.save(str(src), criteria.counterexample_state(), (2, 2))
        assert main(["analyze", str(src), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ppt"] is True
        assert abs(report["min_pt_eig"]) < 1e-12

    def test_non_density_exit_4(self, tmp_path, capsys):
        src = tmp_path / "eye.json"
        matfile.save(str(src), np.eye(4, dtype=complex), (2, 2))
        assert main(["analyze", str(src)]) == 4
        assert "trace" in capsys.readouterr().err

    def test_a_trace_past_the_float_maximum_exits_4_with_one_line(self, tmp_path, capsys):
        # The trace 6e308 is inf, named by the trace check with no overflow warning.
        src = tmp_path / "big.json"
        matfile.save(str(src), np.diag([1.5e308] * 4), (2, 2))
        assert main(["analyze", str(src)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trace check failed: trace is (inf+0j)\n"

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_a_nan_trace_exits_4_with_one_line(self, tmp_path, capsys, extra):
        # Finite entries whose trace is inf + -inf: a NaN fails the trace check.
        src = tmp_path / "nan.json"
        matfile.save(str(src), np.diag([1.7e308, 1.7e308, -1e308, -1e308]), (2, 2))
        assert main(["analyze", str(src), "--tol", "1e308", *extra]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trace check failed: trace is (nan+0j)\n"

    def test_trace_decided_under_tol(self, tmp_path, capsys):
        src = tmp_path / "x.json"
        rho = np.diag(np.array([0.2502, 0.25, 0.25, 0.25], dtype=complex))
        rho[0, 3] = rho[3, 0] = 0.1
        matfile.save(str(src), rho, (2, 2))
        assert main(["analyze", str(src), "--tol", "1e-3"]) == 0
        out = capsys.readouterr().out
        assert "trace: 1.000200000000" in out
        assert "concurrence: 0.000000000000" in out
        assert main(["analyze", str(src)]) == 4
        assert "trace check failed" in capsys.readouterr().err

    def test_state_accepted_under_tol_is_not_checked_again(self, tmp_path, capsys):
        # Its smallest eigenvalue is -5e-8, within --tol 1e-6: positivity is
        # decided once, by validate_density, and the concurrence is read as is.
        src = tmp_path / "x.json"
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 3] = rho[3, 0] = 0.25 + 5e-8
        matfile.save(str(src), rho, (2, 2))
        assert main(["analyze", str(src), "--tol", "1e-6", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["x_shaped"] is True
        assert report["concurrence"] == pytest.approx(1e-7, rel=1e-6)

    def test_tiny_block_product_does_not_underflow(self, tmp_path, capsys):
        # d11 * d44 = 1e-340 underflows; |c23| = sqrt(d11 d44) puts the state
        # on the PPT boundary, where the concurrence is 0.
        src = tmp_path / "x.json"
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = rho[3, 3] = 1e-170
        rho[1, 1] = rho[2, 2] = 0.5 - 1e-170
        rho[1, 2] = rho[2, 1] = 1e-170
        matfile.save(str(src), rho, (2, 2))
        assert main(["analyze", str(src), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ppt"] is True
        assert report["concurrence"] == 0.0

    def test_concurrence_is_factor_reports_bit_for_bit(self, tmp_path, capsys, rng):
        src = tmp_path / "x.json"
        entangled = 0
        for _ in range(50):
            t1 = 0.5 * rng.random()
            params = xstate.XParams.symmetric(t1, 0.5 - t1, random_unit_disc(rng),
                                              random_unit_disc(rng))
            pair = xstate.build_factors(params)
            matfile.save(str(src), linalg.mul(pair.p1, pair.p2), (2, 2))
            assert main(["analyze", str(src), "--json"]) == 0
            conc = json.loads(capsys.readouterr().out)["concurrence"]
            assert conc == criteria.factor_report(pair.p1, pair.p2).concurrence
            entangled += conc > 0.0
        assert entangled > 10

    def test_text_output(self, tmp_path, capsys):
        src = tmp_path / "bell.json"
        write_bell(src)
        assert main(["analyze", str(src)]) == 0
        out = capsys.readouterr().out
        assert "ppt: false" in out
        assert "concurrence: 1.000000000000" in out


class TestConstruct:
    def test_quarter_family_instance(self, tmp_path, capsys):
        out = tmp_path / "rho.json"
        assert main(["construct", "--t1", "0.25", "--t2", "0.25",
                     "--v1", "0.6", "--v2", "0.3", "--out", str(out)]) == 0
        rho, dims = matfile.load(str(out))
        assert (dims.m, dims.n) == (2, 2)
        assert rho[0, 3] == 0.25 * 0.6
        assert rho[1, 2] == 0.25 * 0.3
        assert np.array_equal(np.diag(rho), np.full(4, 0.25, dtype=complex))
        assert capsys.readouterr().err == ""  # normalized, no warning

    def test_unnormalized_warning(self, tmp_path, capsys):
        out = tmp_path / "rho.json"
        assert main(["construct", "--t1", "0.3", "--t2", "0.3", "--out", str(out)]) == 0
        assert "unnormalized" in capsys.readouterr().err

    @pytest.mark.parametrize("t2, warns", [("0.25000000002", False), ("0.2500000001", True)])
    def test_warns_iff_analyze_rejects_the_product(self, tmp_path, capsys, t2, warns):
        # The trace is 2 (t1 + t2): 1 + 4e-11 passes the trace check at the
        # default --tol, 1 + 2e-10 fails it.
        out = tmp_path / "rho.json"
        assert main(["construct", "--t1", "0.25", "--t2", t2, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        if warns:
            assert err.startswith("warning: t1 + t2 = ") and err.count("\n") == 1
            assert "unnormalized" in err
        else:
            assert err == ""
        assert main(["analyze", str(out)]) == (4 if warns else 0)

    def test_a_normalized_product_passes_every_density_check(self, rng):
        # So the warning can only mean that t1 + t2 is not 0.5.
        edge = 1.0 + 4 * np.finfo(float).eps  # the largest |v| XParams takes
        amplitudes = [0j, 1.0, -1j, edge, -edge, 1j * edge]
        for k in range(400):
            t1 = (0.0, 0.5, 0.5 * rng.random())[k % 3]
            t2 = 0.5 - t1
            v1, v2 = (amplitudes[rng.integers(6)] if rng.random() < 0.5
                      else random_unit_disc(rng) for _ in range(2))
            assert t1 + t2 == 0.5
            pair = xstate.build_factors(xstate.XParams.symmetric(t1, t2, v1, v2))
            rho = linalg.mul(pair.p1, pair.p2)
            assert criteria.validate_density(rho, criteria.TWO_QUBITS).trace == 1.0

    def test_amplitude_bound_exit_3(self, tmp_path):
        assert main(["construct", "--t1", "0.25", "--t2", "0.25",
                     "--v1", "1.2", "--out", str(tmp_path / "x.json")]) == 3

    def test_companion_factor_files(self, tmp_path):
        out = tmp_path / "rho.json"
        assert main(["construct", "--t1", "0.25", "--t2", "0.25", "--v1", "0.5",
                     "--with-factors", "--out", str(out)]) == 0
        p1, _ = matfile.load(str(tmp_path / "rho.p1.json"))
        p2, _ = matfile.load(str(tmp_path / "rho.p2.json"))
        assert np.array_equal(p1, np.eye(4, dtype=complex) / 4.0)
        assert p2[0, 3] == 0.5
        rho, _ = matfile.load(str(out))
        assert np.array_equal(rho, p1 @ p2)

    def test_companion_paths_without_a_json_suffix(self, tmp_path):
        out = tmp_path / "rho"
        assert main(["construct", "--t1", "0.25", "--t2", "0.25", "--with-factors",
                     "--out", str(out)]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["rho", "rho.p1.json",
                                                                   "rho.p2.json"]

    @pytest.mark.parametrize("action", ["error", "always"])
    def test_overflowing_product_exits_3_and_writes_nothing(self, tmp_path, capsys, action):
        # t1 |v1| is past the float maximum: the product's corners are inf + NaN j.
        # Under -W error as without it: no RuntimeWarning, no unnormalized warning, no file.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert main(["construct", "--t1", "1.7976931348623157e308", "--t2", "0",
                         "--v1", "1.0000000000000004", "--with-factors",
                         "--out", str(tmp_path / "rho.json")]) == 3
        assert caught == []
        assert list(tmp_path.iterdir()) == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the product P1 P2 overflows: non-finite entries at "
                                "(0,3), (3,0)\n")

    def test_diagonal_when_amplitudes_default(self, tmp_path):
        out = tmp_path / "rho.json"
        assert main(["construct", "--t1", "0.2", "--t2", "0.3", "--out", str(out)]) == 0
        rho, _ = matfile.load(str(out))
        assert np.array_equal(rho, np.diag(np.array([0.2, 0.3, 0.3, 0.2], dtype=complex)))


class TestCheckEquality:
    def test_equal_weights(self, capsys):
        assert main(["check-equality", "--t1", "0.25", "--t2", "0.25",
                     "--v1", "0.5", "--v2", "0.2j"]) == 0
        out = capsys.readouterr().out
        assert "equality holds" in out
        assert "gap_frobenius: 0.000000000000" in out

    def test_unequal_weights_spectrum(self, capsys):
        assert main(["check-equality", "--t1", "0.1", "--t2", "0.4",
                     "--v1", "0.5", "--v2", "0.2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["equality_holds"] is False
        got = np.array(report["gap_eigenvalues"])
        assert np.max(np.abs(got - np.array([0.15, 0.06, -0.06, -0.15]))) < 1e-12

    def test_zero_amplitudes_hold_for_any_weights(self, capsys):
        assert main(["check-equality", "--t1", "0.7", "--t2", "0.1"]) == 0
        assert "equality holds" in capsys.readouterr().out

    def test_trace_decided_under_tol_as_analyze_does(self, tmp_path, capsys):
        # t1 + t2 = 0.5001: the product has trace 1.0002
        params = ["--t1", "0.2501", "--t2", "0.25"]
        assert main(["check-equality", *params, "--tol", "1e-3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["concurrence"] == 0.0
        src = tmp_path / "x.json"
        assert main(["construct", *params, "--out", str(src)]) == 0
        assert main(["analyze", str(src), "--tol", "1e-3"]) == 0
        assert "concurrence: 0.000000000000" in capsys.readouterr().out


    @pytest.mark.parametrize("t, extra", [("1e30", []), ("1e308", ["--json"])])
    def test_overflowing_left_side_exits_3(self, capsys, t, extra):
        # 1e30: 81 D^3 overflows; 1e308: det(P1^G) itself is not finite.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check-equality", "--t1", t, "--t2", t,
                         "--v1", "0.5", "--v2", "0.5", *extra]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "overflows" in captured.err

    def test_huge_factors_print_one_error_line(self, capsys):
        # The gap norm, taken before det(P1^G) overflows, must not warn on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check-equality", "--t1", "1e200", "--t2", "1e199",
                         "--v1", "0.5", "--v2", "0.5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestSweep:
    def test_grid_two_corners(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--t1", "0.25", "--grid", "2", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "v1_abs,v2_abs,lhs,rhs,satisfied,concurrence,min_pt_eig"
        assert len(lines) == 5
        last = lines[-1].split(",")
        assert last[0] == "1.000000000000" and last[1] == "1.000000000000"
        assert last[2] == "0.000000000000"  # det of the transposed factor vanishes
        assert last[4] == "true"

    def test_rhs_constant_column(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--grid", "5", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert {r[3] for r in rows} == {"227.555555555556"}

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--grid", "11", "--out", str(a)]) == 0
        assert main(["sweep", "--grid", "11", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_row_order_v1_outer(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--grid", "3", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        v1s = [r[0] for r in rows]
        assert v1s == sorted(v1s)
        assert [r[1] for r in rows[:3]] == ["0.000000000000", "0.500000000000", "1.000000000000"]

    def test_phase_flag_keeps_results(self, tmp_path):
        plain, phased = tmp_path / "p.csv", tmp_path / "q.csv"
        assert main(["sweep", "--grid", "6", "--out", str(plain)]) == 0
        assert main(["sweep", "--grid", "6", "--phase1", "0.7", "--phase2", "1.2",
                     "--out", str(phased)]) == 0
        assert plain.read_bytes() == phased.read_bytes()

    def test_scaled_second_factor(self, tmp_path):
        out = tmp_path / "lit.csv"
        assert main(["sweep", "--grid", "2", "--scaled-p2", "--out", str(out)]) == 0
        first = out.read_text().strip().splitlines()[1].split(",")
        # at v1 = v2 = 0 the determinant product is 4^-8, lhs = 81 p^3 + 512 p
        p = 0.25 ** 8
        assert abs(float(first[2]) - (81.0 * p ** 3 + 512.0 * p)) < 1e-12

    def test_bad_grid_exit_3(self, tmp_path):
        assert main(["sweep", "--grid", "1", "--out", str(tmp_path / "s.csv")]) == 3

    def test_unwritable_path_exit_5(self, tmp_path):
        assert main(["sweep", "--grid", "2", "--out",
                     str(tmp_path / "missing" / "s.csv")]) == 5


class TestCounterexample:
    def test_report(self, capsys):
        assert main(["counterexample"]) == 0
        out = capsys.readouterr().out
        assert "trace: 1.000000000000" in out
        assert "psd: true" in out
        assert "ppt: true" in out
        assert "verdict: converse fails" in out

    def test_json_gap_norm(self, capsys):
        assert main(["counterexample", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gap_frobenius"] > 1e-3
        assert report["separable"] is True


class TestJsonGuard:
    @pytest.mark.parametrize("value", [math.nan, math.inf, [0.5, -math.inf]])
    def test_emit_rejects_a_non_finite_value(self, value, capsys):
        args = build_parser().parse_args(["counterexample", "--json"])
        with pytest.raises(XsepError, match="non-finite"):
            _emit(args, {"trace": 1.0, "value": value})
        assert capsys.readouterr().out == ""

    def test_non_finite_payload_exits_3_with_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(linalg, "frobenius_norm", lambda a: math.nan)
        assert main(["counterexample", "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert out.count("[PASS]") >= 10

    def test_corrupted_constant_named(self, capsys, monkeypatch):
        monkeypatch.setattr(criteria, "CX_B1", 0.26)
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] counterexample" in out

    def test_corrupted_rhs_named(self, capsys, monkeypatch):
        monkeypatch.setattr(forms, "THEOREM2_RHS", 200.0)
        assert main(["selftest"]) == 1
        assert "[FAIL] theorem2-rhs" in capsys.readouterr().out

    def test_raising_check_fails(self, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("broken")

        monkeypatch.setattr(criteria, "corollary1_check", broken)
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] corollary1-order9: raised RuntimeError: broken\n" in out
        assert out.endswith("12/13 checks passed\n")

    def test_nan_comparison_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(linalg, "trace", lambda a: math.nan)
        assert main(["selftest"]) == 1
        assert "[FAIL] counterexample: trace: nan != 1.0\n" in capsys.readouterr().out

    def test_runtime_under_five_seconds(self):
        start = time.perf_counter()
        assert main(["selftest"]) == 0
        assert time.perf_counter() - start < 5.0


def test_console_script():
    exe = shutil.which("xsep")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "selftest"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "[FAIL]" not in proc.stdout


def test_unknown_command_exits_nonzero(capsys):
    assert main(["no-such-command"]) != 0


@pytest.mark.parametrize("argv", [
    ["analyze", BELL],
    ["check-equality", "--t1", "0.25", "--t2", "0.25"],
    ["counterexample"],
], ids=["analyze", "check-equality", "counterexample"])
@pytest.mark.parametrize("tol", [["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"], ["--tol=-inf"]],
                         ids=["-1", "nan", "inf", "=-inf"])
def test_bad_tol_exit_3(argv, tol, capsys):
    assert main(argv + tol) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: tol must be finite and nonnegative, got ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["pt", "analyze"])
@pytest.mark.parametrize("flag", [["--m", "4"], ["--n", "2"]], ids=["m", "n"])
def test_one_of_m_n_exit_3(command, flag, capsys):
    assert main([command, BELL, *flag]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --m and --n must be given together\n"


@pytest.mark.parametrize("command", ["pt", "analyze"])
@pytest.mark.parametrize("entries, message", [
    ("[[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]",
     "entries must be a 2x2 array of [re, im] pairs, got shape (2, 3, 2)"),
    ("[[[1, 0], [0, 0]], [[0, 0], [NaN, 0]]]", "entries contain non-finite numbers"),
    ("[[[1, 0], [0, -Infinity]], [[0, 0], [1, 0]]]", "entries contain non-finite numbers"),
    ("[[[1e400, 0], [0, 0]], [[0, 0], [1, 0]]]", "entries contain non-finite numbers"),
], ids=["non-square", "nan", "inf", "overflow"])
def test_bad_matrix_exits_2_from_decode(command, entries, message, tmp_path, capsys):
    # matfile.decode is the input's one gate: no later check of shape or finiteness.
    src = tmp_path / "m.json"
    src.write_text(f'{{"dim": 2, "entries": {entries}}}')
    assert main([command, str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["pt", "analyze"])
@pytest.mark.parametrize("content, message", [
    (b'{"dim": 1, "entries": [[[1, 0]]], "note": "\xe9"}',
     "not UTF-8 at byte offset 43: invalid continuation byte"),
    (b'{"dim": 1, "entries": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
     "JSON nests too deeply to parse"),
], ids=["latin-1", "over-nested"])
def test_unreadable_matrix_file_exits_2(command, content, message, tmp_path, capsys):
    src = tmp_path / "m.json"
    src.write_bytes(content)
    assert main([command, str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["pt", "analyze"])
def test_split_that_does_not_fit_exits_3(command, capsys):
    # bipartite._square, which both commands reach, is the one test of the split
    assert main([command, BELL, "--m", "3", "--n", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: a matrix on 3x3 subsystems is 9x9, got shape (4, 4)\n"


@pytest.mark.parametrize("command", ["pt", "analyze"])
def test_dims_that_are_not_a_split_exit_2(command, tmp_path, capsys):
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"dim": 4, "dims": [1, 4], "entries": [[[0.25, 0]] * 4] * 4}))
    assert main([command, str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: dims [1, 4]: subsystem dimensions must be >= 2, got (1, 4)\n"


def test_trace_past_the_float_maximum_exits_4(tmp_path, capsys):
    # |tr - 1| is inf: the trace check fails, where abs() raised OverflowError
    src = tmp_path / "huge.json"
    matfile.save(str(src), np.diag([1.5e308 + 3.75e307j, 3.75e307j, 3.75e307j, 3.75e307j]))
    assert main(["analyze", str(src), "--tol", "1e308"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: trace check failed: trace is (1.5e+308+1.5e+308j)\n"


@pytest.mark.parametrize("argv, message", [
    (["construct", "--t1", "0.25", "--t2", "0.25", "--with-factors"],
     "error: --with-factors requires --out to derive companion paths\n"),
    (["analyze", "{eye9}"],
     "error: subsystem split of a 9x9 matrix is ambiguous; pass --m and --n\n"),
], ids=["with-factors-without-out", "9x9-without-dims"])
def test_invalid_params_exit_3(argv, message, tmp_path, capsys):
    eye9 = tmp_path / "eye9.json"
    matfile.save(str(eye9), np.eye(9) / 9.0)
    assert main([arg.format(eye9=eye9) for arg in argv]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message


def test_bad_complex_argument_exits_2(capsys):
    assert main(["check-equality", "--t1", "0.25", "--t2", "0.25", "--v1", "abc"]) == 2
    assert "not a complex number: 'abc'" in capsys.readouterr().err


def test_top_level_array_exits_2(tmp_path, capsys):
    src = tmp_path / "m.json"
    src.write_text("[[[1, 0]]]")
    assert main(["analyze", str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: top-level value must be an object\n"


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_consecutive_calls_with_different_subcommands(self, capsys):
        assert main(["counterexample"]) == 0
        assert "verdict: converse fails" in capsys.readouterr().out
        assert main(["check-equality", "--t1", "0.25", "--t2", "0.25", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["equality_holds"] is True
        assert main(["counterexample", "--tol", "0"]) == 4
        assert "positivity check failed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["pt", "m.json"],
        ["construct", "--t1", "0.25", "--t2", "0.25"],
        ["sweep"],
        ["selftest"],
    ])
    @pytest.mark.parametrize("option", [["--tol", "0.1"], ["--json"]])
    def test_tol_and_json_only_where_read(self, argv, option, capsys):
        assert main(argv + option) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze", "m.json"],
        ["check-equality", "--t1", "0.25", "--t2", "0.25"],
        ["counterexample"],
        ["selftest"],
    ])
    def test_out_only_where_written(self, argv, capsys):
        assert main(argv + ["--out", "x.json"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
