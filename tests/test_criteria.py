"""Unit tests for the equality gap, determinant inequalities and PPT oracle."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from xsep import bipartite, criteria, linalg, xstate
from xsep.bipartite import partial_transpose
from xsep.errors import (
    DimensionMismatch,
    EqualityHypothesisError,
    InvalidParams,
    NotDensityMatrix,
    NotHermitian,
    XsepError,
)
from xsep.linalg import DEFAULT_TOL
from xsep.xstate import XParams

from conftest import random_complex, random_hermitian, random_unit_disc, x_record

DIMS22 = (2, 2)


def same_bits(x, y):
    return np.array([x]).tobytes() == np.array([y]).tobytes()


def family_pair(t1, t2, v1, v2):
    return xstate.build_factors(XParams.symmetric(t1, t2, v1, v2))


def pt_determinants(pair):
    """(D1, D2): the real parts of det(P1^G) and det(P2^G) on two qubits."""
    return tuple(linalg.det(partial_transpose(p, DIMS22)).real for p in (pair.p1, pair.p2))


class TestPtGap:
    def test_zero_for_equal_weights(self, rng):
        for _ in range(20):
            pair = family_pair(0.25, 0.25, random_unit_disc(rng), random_unit_disc(rng))
            gap = criteria.pt_gap(pair.p1, pair.p2, DIMS22)
            assert linalg.frobenius_norm(gap) == 0.0

    def test_antidiagonal_closed_form(self, rng):
        for _ in range(200):
            t1, t2 = rng.random(), rng.random()
            v1, v2 = random_unit_disc(rng), random_unit_disc(rng)
            pair = family_pair(t1, t2, v1, v2)
            gap = criteria.pt_gap(pair.p1, pair.p2, DIMS22)
            r = t2 - t1
            expected = np.zeros((4, 4), dtype=complex)
            expected[0, 3] = r * v2
            expected[3, 0] = r * np.conj(v2)
            expected[1, 2] = -r * v1
            expected[2, 1] = -r * np.conj(v1)
            assert np.max(np.abs(gap - expected)) < 1e-15

    def test_gap_spectrum_golden(self):
        pair = family_pair(0.1, 0.4, 0.5, 0.2)
        w = linalg.hermitian_eigenvalues(criteria.pt_gap(pair.p1, pair.p2, DIMS22))
        assert np.max(np.abs(w - np.array([0.15, 0.06, -0.06, -0.15]))) < 1e-13

    def test_gap_spectrum_closed_form(self, rng):
        for _ in range(10_000):
            t1, t2 = rng.random(), rng.random()
            v1, v2 = random_unit_disc(rng), random_unit_disc(rng)
            pair = family_pair(t1, t2, v1, v2)
            gap = criteria.pt_gap(pair.p1, pair.p2, DIMS22)
            r = t2 - t1
            expected = np.sort(np.array([r * abs(v1), -r * abs(v1), r * abs(v2), -r * abs(v2)]))[::-1]
            w = linalg.hermitian_eigenvalues(gap)
            assert np.max(np.abs(w - expected)) < 1e-10

    def test_gap_hermitian_traceless_paired(self, rng):
        for _ in range(100):
            pair = family_pair(rng.random(), rng.random(),
                               random_unit_disc(rng), random_unit_disc(rng))
            gap = criteria.pt_gap(pair.p1, pair.p2, DIMS22)
            assert np.array_equal(gap, gap.conj().T)
            assert abs(linalg.trace(gap)) < 1e-15
            w = linalg.hermitian_eigenvalues(gap)
            assert np.max(np.abs(w + w[::-1])) < 1e-12  # eigenvalues come in +- pairs


class TestEqualityHolds:
    def test_equal_weights_and_shared_matrix(self, rng):
        for _ in range(20):
            v1, v2 = random_unit_disc(rng), random_unit_disc(rng)
            pair = family_pair(0.25, 0.25, v1, v2)
            assert criteria.equality_holds(pair.p1, pair.p2, DIMS22, tol=1e-14)
            delta = np.zeros((4, 4), dtype=complex)
            np.fill_diagonal(delta, 0.25)
            delta[0, 3], delta[3, 0] = 0.25 * v2, 0.25 * np.conj(v2)
            delta[1, 2], delta[2, 1] = 0.25 * v1, 0.25 * np.conj(v1)
            lhs = partial_transpose(linalg.mul(pair.p1, pair.p2), DIMS22)
            rhs = linalg.mul(partial_transpose(pair.p1, DIMS22),
                             partial_transpose(pair.p2, DIMS22))
            assert np.max(np.abs(lhs - delta)) < 1e-15
            assert np.max(np.abs(rhs - delta)) < 1e-15

    def test_unequal_weights_fail_with_known_norm(self):
        pair = family_pair(0.1, 0.4, 0.5, 0.2)
        assert not criteria.equality_holds(pair.p1, pair.p2, DIMS22)
        gap_norm = linalg.frobenius_norm(criteria.pt_gap(pair.p1, pair.p2, DIMS22))
        expected = 0.3 * math.sqrt(2 * (0.5 ** 2 + 0.2 ** 2))
        assert abs(gap_norm - expected) < 1e-15

    def test_zero_amplitudes_always_hold(self, rng):
        for _ in range(20):
            pair = family_pair(rng.random(), rng.random(), 0j, 0j)
            assert criteria.equality_holds(pair.p1, pair.p2, DIMS22, tol=0.0)

    def test_equality_locus(self, rng):
        for _ in range(500):
            t1, t2 = rng.random(), rng.random()
            v1, v2 = random_unit_disc(rng), random_unit_disc(rng)
            pair = family_pair(t1, t2, v1, v2)
            scale = abs(t2 - t1) * max(abs(v1), abs(v2))
            if scale < 1e-13:
                assert criteria.equality_holds(pair.p1, pair.p2, DIMS22, tol=1e-12)
            elif scale > 1e-11:
                assert not criteria.equality_holds(pair.p1, pair.p2, DIMS22, tol=1e-12)


class TestTarazaga:
    def test_identity_certified(self):
        assert criteria.tarazaga_pd(np.eye(4, dtype=complex))

    def test_bell_pt_not_certified(self):
        bell = np.zeros((4, 4), dtype=complex)
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        pt = partial_transpose(bell, DIMS22)
        # trace 1, Frobenius norm 1: 1 > sqrt(3) is false
        assert abs(linalg.frobenius_norm(pt) - 1.0) < 1e-15
        assert not criteria.tarazaga_pd(pt)
        assert linalg.min_eigenvalue(pt) < 0  # and indeed not positive definite

    def test_zero_matrix(self):
        assert not criteria.tarazaga_pd(np.zeros((4, 4), dtype=complex))

    def test_non_hermitian_raises(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(NotHermitian):
            criteria.tarazaga_pd(m)

    def test_non_hermitian_message_is_the_librarys(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(NotHermitian, match=r"^not Hermitian: entries \(0,1\) and \(1,0\) "):
            criteria.tarazaga_pd(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_raises(self, bad):
        # NaN and inf made both sides of the comparison NaN or inf: False, not an error.
        m = np.eye(4, dtype=complex)
        m[2, 2] = bad
        with pytest.raises(XsepError, match=r"non-finite entries at \(2,2\)$"):
            criteria.tarazaga_pd(m)

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatch):
            criteria.tarazaga_pd(np.eye(4, 3))

    def test_trace_and_norm_past_the_float_maximum(self):
        # 6e308 > sqrt(3) * 3e308, compared in scaled units: no overflow warning, no inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert criteria.tarazaga_pd(np.diag([1.5e308] * 4))

    @pytest.mark.parametrize("corner, certified", [(2, False), (4, True)])
    def test_subnormal_entries_are_judged_at_full_precision(self, corner, certified):
        # Entries in units of 2**-1074. |20+4j| = 20.396 rounds to 20 on the subnormal grid;
        # read as 20, the indefinite matrix (det 404 - 416 < 0) passes, 204 > sqrt(41608).
        a = np.array([[202, 20 + 4j], [20 - 4j, corner]]) * 5e-324
        assert criteria.tarazaga_pd(a) is certified
        assert (linalg.min_eigenvalue(a) > 0) is certified

    def test_soundness(self, rng):
        # every certified matrix must be positive definite
        certified = 0
        for d in (4, 9):
            for _ in range(1000):
                h = random_hermitian(rng, d) + rng.uniform(0.0, 1.5 * d) * np.eye(d)
                if criteria.tarazaga_pd(h):
                    certified += 1
                    assert linalg.min_eigenvalue(h) > 0
        assert certified > 50  # the test must actually fire


class TestTheorem2:
    def test_identity_factors(self):
        check = criteria.theorem2_check(np.eye(4, dtype=complex) / 4.0,
                                        np.eye(4, dtype=complex))
        assert abs(check.lhs - (81.0 / 256.0 ** 3 + 2.0)) < 1e-12
        assert abs(check.rhs - 2.0 ** 11 / 9.0) < 1e-12
        assert check.satisfied

    def test_zero_determinant_trivially_satisfied(self):
        pair = family_pair(0.25, 0.25, 1.0, 0.3)
        check = criteria.theorem2_check(pair.p1, pair.p2)
        assert check.lhs == 0.0
        assert check.satisfied

    def test_hypothesis_gate(self):
        pair = family_pair(0.1, 0.4, 0.5, 0.2)
        with pytest.raises(EqualityHypothesisError, match="equality_holds"):
            criteria.theorem2_check(pair.p1, pair.p2)

    def test_rejects_wrong_size(self):
        with pytest.raises(DimensionMismatch):
            criteria.theorem2_check(np.eye(9, dtype=complex), np.eye(9, dtype=complex))

    def test_left_side(self):
        assert criteria.theorem2_lhs(0.0) == 0.0
        assert criteria.theorem2_lhs(1.0) == 593.0
        assert criteria.theorem2_lhs(0.5) == 81.0 / 8.0 + 256.0

    def test_check_and_report_share_the_left_side(self, rng):
        for _ in range(20):
            pair = family_pair(0.25, 0.25, random_unit_disc(rng), random_unit_disc(rng))
            d1, d2 = pt_determinants(pair)
            lhs = criteria.theorem2_lhs(d1 * d2)
            assert criteria.theorem2_check(pair.p1, pair.p2).lhs == lhs
            assert criteria.factor_report(pair.p1, pair.p2).theorem2_lhs == lhs

    def test_a_nan_gap_norm_fails_the_hypothesis(self):
        # P P overflows, so the gap is inf - inf, NaN, while D1 D2 = 1: the
        # left side 593 is finite, but the equality is not established. No
        # overflow warning gets out, and warnings are errors here.
        p = np.diag([1e200, 1e-200, 1e-200, 1e200]).astype(complex)
        assert not criteria.equality_holds(p, p, (2, 2))
        with pytest.raises(EqualityHypothesisError, match="gap norm nan > tol"):
            criteria.theorem2_check(p, p)
        with pytest.raises(XsepError, match="eigensolver input has non-finite entries"):
            criteria.factor_report(p, p)

    @pytest.mark.parametrize("t", [1e30, 1e154, 1e308])
    def test_overflow_raises_invalid_params(self, t):
        pair = family_pair(t, t, 0.5, 0.5)
        for check in (criteria.theorem2_check, criteria.factor_report):
            with pytest.raises(InvalidParams, match="overflows"):
                check(pair.p1, pair.p2)

    def test_quarter_family_closed_form(self, rng):
        # D1 = 4^-4 and D2 = (1-|v1|^2)(1-|v2|^2) on the equality family
        for _ in range(200):
            v1, v2 = random_unit_disc(rng), random_unit_disc(rng)
            pair = family_pair(0.25, 0.25, v1, v2)
            check = criteria.theorem2_check(pair.p1, pair.p2)
            prod = (1.0 - abs(v1) ** 2) * (1.0 - abs(v2) ** 2) / 256.0
            expected = 81.0 * prod ** 3 + 512.0 * prod
            assert abs(check.lhs - expected) < 1e-10
            assert check.satisfied


class TestRealDet:
    def test_imaginary_part_verdict_is_the_unhalved_one(self, rng, monkeypatch):
        # 0.5 |Im d| > tol (0.5 + |d/2|) is |Im d| > tol (1 + |d|) halved, exactly
        # in range; d sits near that boundary at every scale.
        scale = 10.0 ** rng.uniform(-300, 300, 2000)
        ratio = DEFAULT_TOL * (1.0 + scale) / scale * rng.uniform(0.999, 1.001, 2000)
        flagged = 0
        for d in map(complex, scale * rng.choice([-1.0, 1.0], 2000) + 1j * scale * ratio):
            monkeypatch.setattr(linalg, "det", lambda a: d)
            expected = abs(d.imag) > DEFAULT_TOL * (1.0 + abs(d))
            flagged += expected
            if expected:
                with pytest.raises(InvalidParams, match="significant imaginary part"):
                    criteria._real_det(None, "p")
            else:
                assert criteria._real_det(None, "p") == d.real
        assert 500 < flagged < 1500  # both verdicts are reached

    @pytest.mark.parametrize("d", [complex(1.0, math.inf), complex(math.inf, 1.0)])
    def test_a_part_past_the_float_range_overflows(self, monkeypatch, d):
        # One finite part is not enough: |d| is inf too, so the imaginary-part test cannot flag it.
        monkeypatch.setattr(linalg, "det", lambda a: d)
        with pytest.raises(InvalidParams, match=r"^det\(p\) overflows: got "):
            criteria._real_det(None, "p")


class TestCorollary1:
    def test_identity_factors_order9(self):
        eye9 = np.eye(9, dtype=complex)
        check = criteria.corollary1_check(eye9, eye9, (3, 3))
        assert abs(check.lhs - 62.0) < 1e-9
        assert abs(check.rhs - 81.0 / 2.0 ** 1.5) < 1e-9
        assert not check.satisfied

    def test_zero_determinant_satisfied(self):
        p1 = np.eye(9, dtype=complex)
        p1[0, 0] = 0.0
        check = criteria.corollary1_check(p1, np.eye(9, dtype=complex), (3, 3))
        assert check.lhs == 0.0
        assert abs(check.rhs - 81.0 / 2.0 ** 1.5) < 1e-9
        assert check.satisfied

    def test_small_determinant_order12(self):
        # D1*D2 = 0.001 at n = 4: lhs = 81e-9 + 0.512
        c = 0.001 ** (1.0 / 12.0)
        p1 = c * np.eye(12, dtype=complex)
        check = criteria.corollary1_check(p1, np.eye(12, dtype=complex), (3, 4))
        assert abs(check.lhs - (81.0 * 1e-9 + 0.512)) < 1e-9
        assert abs(check.rhs - 4.0 ** 5.5 / 9.0) < 1e-9
        assert check.satisfied

    def test_overflow_raises_invalid_params(self):
        # 1e20: D1 D2 = 1e360 is inf; 1e13: D1 D2 = 1e234 is finite, its cube is not
        for scale in (1e20, 1e13):
            big = scale * np.eye(9, dtype=complex)
            with pytest.raises(InvalidParams, match="overflows"):
                criteria.corollary1_check(big, big, (3, 3))

    def test_a_balanced_pair_is_decided_on_the_product(self):
        # D1 = 1e117 cubed overflows, D1 D2 = 1 does not: the left side is that of I9, I9.
        eye9 = np.eye(9, dtype=complex)
        check = criteria.corollary1_check(1e13 * eye9, 1e-13 * eye9, (3, 3))
        assert check.lhs == pytest.approx(62.0, rel=1e-13)
        assert not check.satisfied

    def test_a_determinant_modulus_past_the_float_maximum_raises_invalid_params(self):
        # det(P1^G) = 1.5e308+1.5e308j is finite, and abs() of it raises OverflowError
        p1 = np.eye(9, dtype=complex)
        p1[0, 0] = 1.5e308 + 1.5e308j
        with pytest.raises(InvalidParams, match=r"^det\(p1\^G\) = .* significant imaginary part"):
            criteria.corollary1_check(p1, np.eye(9), (3, 3))

    def test_rejects_factors_of_the_wrong_order(self):
        # partial_transpose is the one shape check: P2 is not 9x9.
        with pytest.raises(DimensionMismatch):
            criteria.corollary1_check(np.eye(9), np.eye(16), (3, 3))

    def test_rejects_small_subsystems(self):
        for dims in ((2, 3), (3, 2)):
            with pytest.raises(InvalidParams, match=">= 3"):
                criteria.corollary1_check(np.eye(6, dtype=complex), np.eye(6, dtype=complex), dims)


class TestPptVerdict:
    def test_bell_is_npt(self):
        bell = np.zeros((4, 4), dtype=complex)
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        assert not criteria.ppt_verdict(bell, DIMS22)

    def test_maximally_mixed(self):
        assert criteria.ppt_verdict(np.eye(4, dtype=complex) / 4.0, DIMS22)

    def test_counterexample_is_ppt(self):
        assert criteria.ppt_verdict(criteria.counterexample_state(), DIMS22)

    def test_rejects_invalid_density(self):
        with pytest.raises(NotDensityMatrix) as err:
            criteria.ppt_verdict(np.eye(4, dtype=complex), DIMS22)
        assert err.value.check == "trace"
        bad = np.eye(4, dtype=complex) / 4.0
        bad[0, 1] = 0.2
        with pytest.raises(NotDensityMatrix) as err:
            criteria.ppt_verdict(bad, DIMS22)
        assert err.value.check == "hermiticity"
        neg = np.diag(np.array([0.6, 0.5, 0.2, -0.3], dtype=complex))
        with pytest.raises(NotDensityMatrix) as err:
            criteria.ppt_verdict(neg, DIMS22)
        assert err.value.check == "positivity"


class TestValidateDensity:
    @pytest.mark.parametrize("rho", [np.ones((2, 3)), np.ones(4), np.eye(9)],
                             ids=["not-square", "one-dimensional", "wrong-order"])
    @pytest.mark.parametrize("check", [criteria.validate_density, criteria.ppt_verdict])
    def test_shape_is_checked_first(self, check, rho):
        # eye(9) would fail the trace check; the shape is checked before it.
        with pytest.raises(DimensionMismatch, match=r"is 4x4, got shape"):
            check(rho, DIMS22)

    def test_bell_spectrum(self):
        bell = np.zeros((4, 4), dtype=complex)
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        report = criteria.validate_density(bell, DIMS22)
        assert report.trace == 1.0
        assert abs(report.min_eigenvalue) < 1e-12
        assert abs(report.min_pt_eigenvalue + 0.5) < 1e-12
        assert report.ppt is False
        assert report.ppt == criteria.ppt_verdict(bell, DIMS22)

    def test_fields_are_python_scalars(self):
        report = criteria.validate_density(criteria.counterexample_state(), DIMS22)
        assert [type(x) for x in report] == [float, float, float, bool]

    def test_checks_run_hermiticity_trace_positivity(self):
        # each input fails its named check and every check after it
        bad = np.diag(np.array([4.0, 0.5, 0.5, -1.0], dtype=complex))
        for check, matrix in (("positivity", bad / linalg.trace(bad).real),
                              ("trace", bad)):
            with pytest.raises(NotDensityMatrix) as err:
                criteria.validate_density(matrix, DIMS22)
            assert err.value.check == check
        bad[0, 1] = 0.2
        with pytest.raises(NotDensityMatrix) as err:
            criteria.validate_density(bad, DIMS22)
        assert err.value.check == "hermiticity"

    @pytest.mark.parametrize("diagonal, entry, check, message", [
        ((1, 1, 1, 1), ((1, 2), math.nan), "finiteness",
         "finiteness check failed: non-finite entries at (1,2)"),
        ((1, 1, 1, 1), ((0, 1), 0.2), "hermiticity",
         "hermiticity check failed: entries (0,1)/(1,0) differ by 2.000e-01"),
        ((4, 2, 2, 4), None, "trace", "trace check failed: trace is (3+0j)"),
        ((4, 0.5, 0.5, -1), None, "positivity",
         "positivity check failed: smallest eigenvalue -2.500e-01"),
    ])
    def test_each_failed_check_names_itself(self, diagonal, entry, check, message):
        rho = np.diag(np.array(diagonal, dtype=complex)) / 4.0
        if entry is not None:
            rho[entry[0]] = entry[1]
        with pytest.raises(NotDensityMatrix) as err:
            criteria.validate_density(rho, DIMS22)
        assert err.value.check == check
        assert str(err.value) == message

    def test_a_failed_check_is_named_once(self):
        err = NotDensityMatrix("trace", "trace is (3+0j)")
        assert str(err) == "trace check failed: trace is (3+0j)"
        assert err.check == "trace"

    def test_the_trace_verdict_is_linalg_unit_trace(self, monkeypatch):
        # validate_density and matrix_concurrence share one unit-trace test
        monkeypatch.setattr(linalg, "_unit_trace", lambda d, tol: (linalg._trace(d), False))
        mixed = np.eye(4, dtype=complex) / 4.0
        with pytest.raises(NotDensityMatrix) as err:
            criteria.validate_density(mixed, DIMS22)
        assert err.value.check == "trace"
        assert str(err.value) == "trace check failed: trace is (1+0j)"
        assert xstate.matrix_concurrence(mixed, DEFAULT_TOL) is None

    def test_a_trace_past_the_float_maximum_fails_the_trace_check(self):
        # |tr - 1| of the trace 1.5e308+1.5e308j is inf, not an OverflowError;
        # the Hermiticity defect 7.5e307 is within tol
        rho = np.diag([1.5e308 + 3.75e307j, 3.75e307j, 3.75e307j, 3.75e307j])
        with pytest.raises(NotDensityMatrix) as err:
            criteria.validate_density(rho, DIMS22, tol=1e308)
        assert err.value.check == "trace"

    def test_a_difference_past_the_float_maximum_fails_hermiticity(self):
        # |rho[0, 1] - conj(rho[1, 0])| is 2.1e308: inf, not an OverflowError
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 1.5e308 + 1.5e308j
        with pytest.raises(NotDensityMatrix) as err:
            criteria.validate_density(rho, DIMS22)
        assert err.value.check == "hermiticity"
        assert str(err.value) == "hermiticity check failed: entries (0,1)/(1,0) differ by inf"

    def test_spectra_have_the_bits_of_the_checked_eigensolver(self, rng):
        # rho is checked once, then its symmetrised copy and that copy's
        # partial transpose are solved unchecked: the same bits as solving
        # rho and its partial transpose through the public, checking calls.
        for k in range(200):
            dims = ((2, 2), (2, 3), (3, 3))[k % 3]
            n = dims[0] * dims[1]
            g = random_complex(rng, n)
            if k % 2:
                g *= rng.random((n, n)) < 0.3  # a zero pattern: several blocks
            rho = g @ g.conj().T + np.eye(n)
            rho /= np.trace(rho).real
            rho += 1e-12 * random_complex(rng, n)  # not Hermitian, but within tol
            report = criteria.validate_density(rho, dims)
            assert same_bits(report.min_eigenvalue, linalg.min_eigenvalue(rho))
            assert same_bits(report.min_pt_eigenvalue,
                             linalg.min_eigenvalue(partial_transpose(rho, dims)))

    @pytest.mark.parametrize("where", [(1, 2), (2, 7)], ids=["in-2x2-block", "dense"])
    def test_non_finite_fails_before_hermiticity(self, rng, where):
        # one NaN also breaks Hermiticity, but finiteness is reported first
        rho = np.eye(4, dtype=complex) / 4.0 if where == (1, 2) else random_hermitian(rng, 9)
        rho[where] = np.nan
        with pytest.raises(NotDensityMatrix, match=r"at \(%d,%d\)$" % where) as err:
            criteria.validate_density(rho, DIMS22 if len(rho) == 4 else (3, 3))
        assert err.value.check == "finiteness"


class TestCounterexample:
    def test_matrices_match_the_constants(self):
        c = criteria
        state = np.zeros((4, 4), dtype=complex)
        state[0, 0], state[1, 1], state[2, 2], state[3, 3] = c.CX_A1, c.CX_B1, c.CX_D1, c.CX_E1
        state[0, 3], state[3, 0] = np.conj(c.CX_F1), c.CX_F1
        state[1, 2], state[2, 1] = np.conj(c.CX_C1), c.CX_C1
        assert np.array_equal(c.counterexample_state(), state)
        stated = np.zeros((4, 4), dtype=complex)
        stated[0, 0], stated[1, 1], stated[2, 2], stated[3, 3] = c.CX_A1, c.CX_B1, c.CX_E1, c.CX_D1
        stated[0, 3], stated[3, 0] = np.conj(c.CX_F2), c.CX_F2
        stated[1, 2], stated[2, 1] = np.conj(c.CX_C2), c.CX_C2
        assert np.array_equal(c.counterexample_pt_product(), stated)

    def test_state_is_valid(self):
        rho = criteria.counterexample_state()
        assert abs(linalg.trace(rho) - 1.0) < 1e-15
        assert linalg.min_eigenvalue(rho, 1e-12) >= -1e-12

    def test_block_discriminants_exactly_rational(self):
        assert Fraction(1, 4) * Fraction(23, 117) == Fraction(23, 468)
        assert Fraction(1, 9) * Fraction(23, 52) == Fraction(23, 468)
        assert abs(criteria.CX_B1 * criteria.CX_D1 - abs(criteria.CX_C1) ** 2) < 1e-15
        assert abs(criteria.CX_A1 * criteria.CX_E1 - abs(criteria.CX_F1) ** 2) < 1e-15

    def test_gap_is_large(self):
        assert linalg.frobenius_norm(criteria.counterexample_gap()) > 1e-3

    def test_stated_product_entries(self):
        prod = criteria.counterexample_pt_product()
        assert prod[3, 0] == criteria.CX_F2
        assert prod[2, 1] == criteria.CX_C2
        assert prod[2, 2] == criteria.CX_E1
        assert prod[3, 3] == criteria.CX_D1
        # the stated product is itself X shaped with unit trace
        assert xstate.matrix_concurrence(prod, 0.0) is not None
        assert abs(linalg.trace(prod) - 1.0) < 1e-15


class TestFactorReport:
    def test_equality_family_report(self):
        pair = family_pair(0.25, 0.25, 0.6, 0.3j)
        report = criteria.factor_report(pair.p1, pair.p2)
        assert report.equality_holds
        assert report.gap_frobenius == 0.0
        assert np.max(np.abs(report.gap_eigenvalues)) < 1e-15
        assert report.ppt
        assert report.concurrence == 0.0
        assert report.theorem2_satisfied == (report.theorem2_lhs <= report.theorem2_rhs)

    def test_unequal_weights_report(self):
        pair = family_pair(0.1, 0.4, 0.5, 0.2)
        report = criteria.factor_report(pair.p1, pair.p2)
        assert not report.equality_holds
        assert abs(report.gap_frobenius - 0.3 * math.sqrt(2 * (0.25 + 0.04))) < 1e-15
        assert report.equality_holds == (report.gap_frobenius <= criteria.DEFAULT_TOL)
        # trace 2(t1+t2) = 1 so the product is a normalized X state
        assert report.concurrence is not None

    def test_trace_decided_under_tol(self):
        # the product has trace 2 (t1 + t2) = 1.0002
        pair = family_pair(0.2501, 0.25, 0.0, 0.0)
        assert criteria.factor_report(pair.p1, pair.p2, tol=1e-3).concurrence == 0.0
        assert criteria.factor_report(pair.p1, pair.p2).concurrence is None

    def test_product_psd_within_tol_gets_a_concurrence(self):
        # The product's outer block is 5e-8 short of PSD: within tol=1e-6.
        p1 = np.eye(4, dtype=complex) / 4.0
        p2 = np.eye(4, dtype=complex)
        p2[0, 3] = p2[3, 0] = 1.0 + 4e-7
        report = criteria.factor_report(p1, p2, tol=1e-6)
        a = linalg.mul(p1, p2).tolist()
        assert report.concurrence == xstate.x_concurrence(
            a[0][0].real, a[1][1].real, a[2][2].real, a[3][3].real, abs(a[0][3]), abs(a[1][2]))
        assert report.concurrence == pytest.approx(2e-7, rel=1e-6)

    def test_hermitian_product_with_a_gap_that_is_not(self, rng):
        # A and A^2 commute, so the product A^3 is Hermitian; the gap is not.
        a = random_hermitian(rng, 4)
        report = criteria.factor_report(a, a @ a)
        assert report.gap_eigenvalues is None
        assert not report.equality_holds

    @pytest.mark.parametrize("p1, p2", [(np.eye(9), np.eye(9)), (np.eye(4), np.eye(3))],
                             ids=["9x9", "4x4-and-3x3"])
    def test_rejects_wrong_size(self, p1, p2):
        # partial_transpose (9x9 on two qubits) or mul (unequal orders) rejects it.
        with pytest.raises(DimensionMismatch):
            criteria.factor_report(p1, p2)

    def test_positivity_is_not_checked(self):
        # P2's corner 1.5 makes P2 and the product indefinite (the product's
        # smallest eigenvalue is -0.125); the product is X shaped of trace 1.
        p1 = np.eye(4, dtype=complex) / 4.0
        p2 = np.eye(4, dtype=complex)
        p2[0, 3] = p2[3, 0] = 1.5
        report = criteria.factor_report(p1, p2)
        assert report.concurrence == 2.0 * (0.375 - 0.25)
        assert not report.ppt

    def test_consistency_grid(self):
        # on the equality family every point is satisfied, PPT and unentangled
        grid = np.linspace(0.0, 1.0, 101)
        pair0 = family_pair(0.25, 0.25, 0.0, 0.0)
        for v1a in grid:
            for v2a in grid:
                pair = family_pair(0.25, 0.25, v1a, v2a)
                assert criteria.equality_holds(pair.p1, pair.p2, DIMS22, tol=1e-14)
                check = criteria.theorem2_check(pair.p1, pair.p2)
                assert check.satisfied
                rho = linalg.mul(pair.p1, pair.p2)
                assert criteria.ppt_verdict(rho, DIMS22, 1e-12)
                assert xstate.concurrence(x_record(rho)) == 0.0
        assert pair0.p1.shape == (4, 4)


class TestSharedEvaluation:
    """A factor pair's product and partial transposes are formed once per call."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"mul": 0, "partial_transpose": 0}
        mul, pt = linalg.mul, bipartite.partial_transpose

        def counted_mul(a, b):
            counts["mul"] += 1
            return mul(a, b)

        def counted_pt(a, dims):
            counts["partial_transpose"] += 1
            return pt(a, dims)

        monkeypatch.setattr(linalg, "mul", counted_mul)
        monkeypatch.setattr(bipartite, "partial_transpose", counted_pt)
        return counts

    @pytest.mark.parametrize("check", [criteria.factor_report, criteria.theorem2_check])
    def test_two_products_three_partial_transposes(self, counts, check):
        pair = family_pair(0.25, 0.25, 0.6, 0.3j)
        check(pair.p1, pair.p2)
        assert counts == {"mul": 2, "partial_transpose": 3}

    def test_ppt_verdict_checks_hermiticity_of_rho_once(self, monkeypatch):
        # The Hermiticity check is the row pass, which also symmetrises rho:
        # one pass over rho's rows, and none over its partial transpose.
        seen = []
        hermitian_rows = linalg._hermitian_rows

        def counted_pass(rows):
            seen.append(np.array(rows))
            return hermitian_rows(rows)

        monkeypatch.setattr(linalg, "_hermitian_rows", counted_pass)
        pair = family_pair(0.25, 0.25, 0.6, 0.3j)
        rho = linalg.mul(pair.p1, pair.p2)
        assert criteria.ppt_verdict(rho, DIMS22)
        assert len(seen) == 1 and np.array_equal(seen[0], rho)

    def test_ppt_verdict_crosses_rho_once(self, monkeypatch):
        # The trace is read off the row list of the Hermiticity pass, not off rho again.
        def crossing(a):
            raise AssertionError("rho crossed to rows a second time")

        monkeypatch.setattr(linalg, "trace", crossing)
        pair = family_pair(0.25, 0.25, 0.6, 0.3j)
        assert criteria.ppt_verdict(linalg.mul(pair.p1, pair.p2), DIMS22)

    def test_factor_report_tests_the_x_shape_once(self, monkeypatch):
        # The off-X test is matrix_concurrence's one predicate.
        calls = []
        off_x_within = xstate._off_x_within

        def counted_off_x_within(rows, tol):
            calls.append(tol)
            return off_x_within(rows, tol)

        monkeypatch.setattr(xstate, "_off_x_within", counted_off_x_within)
        pair = family_pair(0.25, 0.25, 0.6, 0.3j)
        assert criteria.factor_report(pair.p1, pair.p2).concurrence == 0.0
        assert calls == [linalg.DEFAULT_TOL]

    def test_report_has_the_bits_of_the_single_criteria(self, rng):
        pairs = [(family_pair(0.25, 0.25, random_unit_disc(rng), random_unit_disc(rng)), True)
                 for _ in range(20)]
        for _ in range(20):
            t1 = 0.5 * rng.random()  # t1 + t2 = 1/2: the product has trace 1
            pair = family_pair(t1, 0.5 - t1, random_unit_disc(rng), random_unit_disc(rng))
            pairs.append((pair, t1 == 0.25))
        for pair, equal in pairs:
            report = criteria.factor_report(pair.p1, pair.p2)
            gap = criteria.pt_gap(pair.p1, pair.p2, DIMS22)
            assert report.gap_frobenius == linalg.frobenius_norm(gap)
            assert np.array_equal(report.gap_eigenvalues, linalg.hermitian_eigenvalues(gap))
            assert report.equality_holds == criteria.equality_holds(pair.p1, pair.p2, DIMS22)
            rho = linalg.mul(pair.p1, pair.p2)
            density = criteria.validate_density(rho, DIMS22)
            assert report.min_pt_eigenvalue == density.min_pt_eigenvalue
            assert report.ppt == density.ppt
            d1, d2 = pt_determinants(pair)
            assert report.theorem2_lhs == criteria.theorem2_lhs(d1 * d2)
            if equal:
                assert report.equality_holds
                assert report.theorem2_lhs == criteria.theorem2_check(pair.p1, pair.p2).lhs
            else:
                assert not report.equality_holds


class TestVerdictTies:
    """Each verdict holds exactly at its tie: `min_pt >= -tol` and `lhs <= rhs` pass on equality."""

    def test_validate_density_is_ppt_exactly_at_tol(self):
        phi = np.array([1.0, 0.0, 0.0, 1.0])
        bell = np.outer(phi, phi).astype(complex) / 2.0  # |Phi+><Phi+|, every entry exact
        assert criteria.validate_density(bell, DIMS22, 0.5).min_pt_eigenvalue == -0.5
        assert criteria.validate_density(bell, DIMS22, 0.5).ppt
        assert not criteria.validate_density(bell, DIMS22, math.nextafter(0.5, 0.0)).ppt

    def test_factor_report_is_ppt_exactly_at_tol(self):
        pair = family_pair(0.1, 0.4, 0.0, 1.0)
        min_pt = criteria.factor_report(pair.p1, pair.p2).min_pt_eigenvalue
        assert min_pt == -0.30000000000000004
        assert criteria.factor_report(pair.p1, pair.p2, tol=-min_pt).ppt
        below = math.nextafter(-min_pt, 0.0)
        assert not criteria.factor_report(pair.p1, pair.p2, tol=below).ppt

    def test_inequality_is_satisfied_at_equality(self):
        eye = np.eye(4, dtype=complex)
        rhs = criteria.THEOREM2_RHS
        check = criteria._inequality(eye, eye, lambda prod: rhs * prod, rhs)
        assert check == (rhs, rhs, True)
