"""Unit tests for the equality gap, determinant inequalities and PPT oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from xsep import criteria, linalg, xstate
from xsep.bipartite import partial_transpose
from xsep.errors import (
    DimensionMismatch,
    EqualityHypothesisError,
    InvalidParams,
    NotDensityMatrix,
    NotHermitian,
)
from xsep.xstate import XParams

from conftest import random_hermitian, random_unit_disc

DIMS22 = (2, 2)


def family_pair(t1, t2, v1, v2):
    return xstate.build_factors(XParams.symmetric(t1, t2, v1, v2))


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
            d1, d2 = criteria.det_inequality_sides(pair.p1, pair.p2, DIMS22)
            lhs = criteria.theorem2_lhs(d1 * d2)
            assert criteria.theorem2_check(pair.p1, pair.p2).lhs == lhs
            assert criteria.factor_report(pair.p1, pair.p2).theorem2_lhs == lhs

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
        big = 1e20 * np.eye(9, dtype=complex)  # det 1e180 is finite, its cube is not
        with pytest.raises(InvalidParams, match="overflows"):
            criteria.corollary1_check(big, big, (3, 3))

    def test_rejects_small_subsystems(self):
        with pytest.raises(InvalidParams, match=">= 3"):
            criteria.corollary1_check(np.eye(6, dtype=complex), np.eye(6, dtype=complex), (2, 3))


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
        assert linalg.is_psd(rho, 1e-12)

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
        assert xstate.is_x_shaped(prod, 0.0)
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
                assert xstate.concurrence(xstate.XMatrix.from_matrix(rho)) == 0.0
        assert pair0.p1.shape == (4, 4)


class TestSharedEvaluation:
    """A factor pair's product and partial transposes are formed once per call."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"mul": 0, "partial_transpose": 0}
        mul, pt = linalg.mul, criteria.partial_transpose

        def counted_mul(a, b):
            counts["mul"] += 1
            return mul(a, b)

        def counted_pt(a, dims):
            counts["partial_transpose"] += 1
            return pt(a, dims)

        monkeypatch.setattr(linalg, "mul", counted_mul)
        monkeypatch.setattr(criteria, "partial_transpose", counted_pt)
        return counts

    @pytest.mark.parametrize("check", [criteria.factor_report, criteria.theorem2_check])
    def test_two_products_three_partial_transposes(self, counts, check):
        pair = family_pair(0.25, 0.25, 0.6, 0.3j)
        check(pair.p1, pair.p2)
        assert counts == {"mul": 2, "partial_transpose": 3}

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
            d1, d2 = criteria.det_inequality_sides(pair.p1, pair.p2, DIMS22)
            assert report.theorem2_lhs == criteria.theorem2_lhs(d1 * d2)
            if equal:
                assert report.equality_holds
                assert report.theorem2_lhs == criteria.theorem2_check(pair.p1, pair.p2).lhs
            else:
                assert not report.equality_holds
