"""Unit tests for the dense complex matrix routines."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xsep import criteria, linalg, xstate
from xsep.bipartite import partial_transpose
from xsep.errors import DimensionMismatch, NotHermitian, XsepError

from conftest import densify, random_complex, random_hermitian, random_x_matrix, x_spectrum_oracle

EPS = np.finfo(float).eps


def naive_mul(a, b):
    d = a.shape[0]
    out = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            acc = 0j
            for k in range(d):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestMul:
    def test_identity(self):
        eye = np.eye(4, dtype=complex)
        assert np.array_equal(linalg.mul(eye, eye), eye)

    def test_matches_naive_loop(self, rng):
        for _ in range(25):
            a = random_complex(rng, 4)
            b = random_complex(rng, 4)
            assert np.max(np.abs(linalg.mul(a, b) - naive_mul(a, b))) < 1e-14

    def test_factor_product_is_x_shaped(self):
        params = xstate.XParams(0.3, 0.2, 0.25, 0.35, 0.5, 0.4j)
        pair = xstate.build_factors(params)
        prod = linalg.mul(pair.p1, pair.p2)
        assert prod[0, 3] == params.t1 * params.v1
        assert prod[1, 2] == params.t2 * params.v2
        assert prod[2, 1] == params.t3 * np.conj(params.v2)
        assert prod[3, 0] == params.t4 * np.conj(params.v1)
        assert xstate.is_x_shaped(prod, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.mul(np.eye(4, dtype=complex), np.eye(3, dtype=complex))


class TestDaggerTranspose:
    def test_symmetric_product_is_hermitian(self):
        pair = xstate.build_factors(xstate.XParams.symmetric(0.3, 0.2, 0.5, 0.4j))
        prod = linalg.mul(pair.p1, pair.p2)
        assert np.array_equal(prod.conj().T, prod)

    def test_transpose_of_product(self, rng):
        for _ in range(20):
            a = random_complex(rng, 4)
            b = random_complex(rng, 4)
            lhs = linalg.mul(a, b).T
            rhs = linalg.mul(b.T, a.T)
            assert linalg.frobenius_norm(lhs - rhs) < 1e-13


class TestTrace:
    def test_identity(self):
        assert linalg.trace(np.eye(4, dtype=complex)) == 4

    def test_counterexample_trace_is_one(self):
        # exact rational oracle: 52/468 + 117/468 + 92/468 + 207/468 == 1
        exact = (
            Fraction(1, 9) + Fraction(1, 4) + Fraction(23, 117) + Fraction(23, 52)
        )
        assert exact == 1
        rho = criteria.counterexample_state()
        assert abs(linalg.trace(rho) - 1.0) < 1e-15

    def test_invariant_under_partial_transpose(self, rng):
        for _ in range(10):
            a = random_complex(rng, 4)
            assert linalg.trace(partial_transpose(a, (2, 2))) == linalg.trace(a)


class TestDet:
    def test_identity(self):
        assert linalg.det(np.eye(4, dtype=complex)) == 1

    def test_diagonal(self):
        assert abs(linalg.det(np.diag(np.array([0.3, 0.2, 0.5, 0.7], dtype=complex)))
                   - 0.3 * 0.2 * 0.5 * 0.7) < 1e-15

    def test_x_matrix_closed_form(self, rng):
        # block factorization oracle: det = (d11*d44 - |c14|^2)(d22*d33 - |c23|^2)
        for _ in range(50):
            m = random_x_matrix(rng)
            expected = (
                (m[0, 0].real * m[3, 3].real - abs(m[0, 3]) ** 2)
                * (m[1, 1].real * m[2, 2].real - abs(m[1, 2]) ** 2)
            )
            assert abs(linalg.det(m) - expected) < 1e-12

    def test_singular_returns_zero(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 0] = 1.0
        assert linalg.det(m) == 0

    def test_hermitian_det_is_real(self, rng):
        for _ in range(20):
            h = random_hermitian(rng, 4)
            assert abs(linalg.det(h).imag) < 1e-12

    def test_against_numpy(self, rng):
        for d in (2, 3, 4, 9):
            a = random_complex(rng, d)
            assert abs(linalg.det(a) - np.linalg.det(a)) < 1e-10 * max(
                1.0, abs(np.linalg.det(a))
            )


class TestFrobenius:
    def test_identity(self):
        assert linalg.frobenius_norm(np.eye(4, dtype=complex)) == 2.0

    def test_zero(self):
        assert linalg.frobenius_norm(np.zeros((4, 4), dtype=complex)) == 0.0

    def test_trace_identity(self, rng):
        for _ in range(20):
            a = random_complex(rng, 4)
            via_trace = linalg.trace(linalg.mul(a.conj().T, a)).real
            assert abs(linalg.frobenius_norm(a) ** 2 - via_trace) < 1e-12 * max(1.0, via_trace)

    def test_same_bits_as_the_unscaled_sum(self, rng):
        for d in (2, 4, 9, 16):
            a = random_complex(rng, d)
            assert linalg.frobenius_norm(a) == float(np.sqrt(np.sum(np.abs(a) ** 2)))

    @pytest.mark.parametrize("e", [-1000, -600, 600, 1000])
    def test_scales_exactly_with_a_power_of_two(self, rng, e):
        a = random_complex(rng, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linalg.frobenius_norm(np.ldexp(a.real, e) + 1j * np.ldexp(a.imag, e))
        assert got == math.ldexp(linalg.frobenius_norm(a), e)

    def test_past_the_float_range_is_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.frobenius_norm(np.full((4, 4), 1e308)) == math.inf


class TestHermitianEigenvalues:
    def test_p2_spectrum_golden(self):
        pair = xstate.build_factors(xstate.XParams(1, 1, 1, 1, 0.5, 0.3))
        w = linalg.hermitian_eigenvalues(pair.p2)
        assert np.max(np.abs(w - np.array([1.5, 1.3, 0.7, 0.5]))) < 1e-13

    def test_diagonal(self):
        w = linalg.hermitian_eigenvalues(np.diag(np.array([0.3, 0.2, 0.5, 0.1], dtype=complex)))
        assert np.array_equal(w, np.array([0.5, 0.3, 0.2, 0.1]))

    def test_symmetric_product_full_spectrum(self):
        # the two smallest values t1(1-|v1|) = 0.15 and t2(1-|v2|) = 0.12 sit
        # inside the full four-value set {t1(1 +- |v1|), t2(1 +- |v2|)}
        params = xstate.XParams.symmetric(0.3, 0.2, 0.5, 0.4)
        pair = xstate.build_factors(params)
        prod = linalg.mul(pair.p1, pair.p2)
        w = linalg.hermitian_eigenvalues(prod)
        expected = np.sort(np.array([0.45, 0.15, 0.28, 0.12]))[::-1]
        assert np.max(np.abs(w - expected)) < 1e-13
        assert any(abs(v - 0.15) < 1e-13 for v in w)
        assert any(abs(v - 0.12) < 1e-13 for v in w)

    def test_non_hermitian_raises_with_pair(self):
        m = np.eye(4, dtype=complex)
        m[0, 2] = 0.5
        with pytest.raises(NotHermitian) as err:
            linalg.hermitian_eigenvalues(m)
        assert err.value.pair == (0, 2)
        assert "(0,2)" in str(err.value)

    def test_degenerate_multiplicity(self):
        w = linalg.hermitian_eigenvalues(np.eye(4, dtype=complex) * 0.25)
        assert np.array_equal(w, np.full(4, 0.25))

    def test_against_numpy(self, rng):
        for d in (2, 3, 5, 9, 16):
            for _ in range(10):
                h = random_hermitian(rng, d)
                w = linalg.hermitian_eigenvalues(h)
                ref = np.sort(np.linalg.eigvalsh(h))[::-1]
                assert np.max(np.abs(w - ref)) < 1e-10

    def test_jacobi_vs_x_block_closed_form(self, rng):
        for _ in range(10_000):
            m = random_x_matrix(rng)
            w = linalg.hermitian_eigenvalues(densify(m))
            assert np.max(np.abs(w - x_spectrum_oracle(m))) < 1e-10

    def test_eigenvalue_sum_is_trace(self, rng):
        for d in (4, 9):
            for _ in range(20):
                h = random_hermitian(rng, d)
                w = linalg.hermitian_eigenvalues(h)
                assert abs(np.sum(w) - linalg.trace(h).real) < 1e-10 * d

    def test_eigenvalue_product_is_det(self, rng):
        for _ in range(20):
            # shift to keep the matrix well conditioned
            h = random_hermitian(rng, 4) + 10.0 * np.eye(4)
            w = linalg.hermitian_eigenvalues(h)
            d = linalg.det(h).real
            assert abs(np.prod(w) - d) < 1e-9 * abs(d)

    def test_frobenius_sq_is_eigenvalue_sq_sum(self, rng):
        for _ in range(20):
            h = random_hermitian(rng, 4)
            w = linalg.hermitian_eigenvalues(h)
            f2 = linalg.frobenius_norm(h) ** 2
            assert abs(f2 - np.sum(w ** 2)) < 1e-10 * max(1.0, f2)


def with_spectrum(rng, w):
    """Q diag(w) Q^H for a random unitary Q, made exactly Hermitian; no entry is zero."""
    q, _ = np.linalg.qr(random_complex(rng, len(w)))
    h = (q * w) @ q.conj().T
    return 0.5 * (h + h.conj().T)


def mp_eigenvalues(h):
    """The eigenvalues of the stored Hermitian matrix h at 30 digits, descending."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        w = mpmath.eighe(mpmath.matrix(h.tolist()), eigvals_only=True)
        return np.sort([float(x) for x in w])[::-1]


class TestDenseJacobi:
    """Connected matrices, so the whole matrix goes to Jacobi.

    The reference is exact where the spectrum is known and mpmath otherwise:
    eigvalsh is itself off by up to about 4 eps ||A||_F at n = 3, more than
    the n eps ||A||_F asked of Jacobi there.
    """

    @staticmethod
    def assert_close(h, ref, tol):
        assert linalg._components(h) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = linalg.hermitian_eigenvalues(h)
        assert np.max(np.abs(w - ref)) <= tol

    @pytest.mark.parametrize("n", [3, 4, 9, 16])
    def test_random(self, rng, n):
        for _ in range(5):
            h = random_hermitian(rng, n)
            self.assert_close(h, mp_eigenvalues(h), n * EPS * np.linalg.norm(h))

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_identity_plus_rank_one(self, rng, n):
        for _ in range(10):
            v = random_complex(rng, n)[0]
            h = np.eye(n) + np.outer(v, v.conj())
            ref = np.r_[1.0 + np.vdot(v, v).real, np.ones(n - 1)]
            self.assert_close(h, ref, n * EPS * np.linalg.norm(h))

    @pytest.mark.parametrize("spread", [1e-6, 1e-12])
    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_clustered(self, rng, n, spread):
        # Sweeps stop at off-diagonals <= JACOBI_RTOL ||A||_F, so within a
        # cluster tighter than that threshold an eigenvalue is resolved only to
        # ||off-diagonal||_2 < n * JACOBI_RTOL * ||A||_F (Weyl), not to n eps.
        for _ in range(10):
            w = np.concatenate([1.0 + spread * rng.standard_normal(n // 2),
                                -2.0 + 1e-3 * rng.standard_normal(n - n // 2)])
            h = with_spectrum(rng, w)
            tol = n * (EPS + linalg.JACOBI_RTOL) * np.linalg.norm(h)
            self.assert_close(h, np.linalg.eigvalsh(h)[::-1], tol)

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e200, 1e-170])
    def test_scaled(self, rng, scale):
        for n in (3, 4, 9, 16):
            for _ in range(2):
                h0 = random_hermitian(rng, n)
                h = h0 * scale
                self.assert_close(h, mp_eigenvalues(h), n * EPS * np.linalg.norm(h0) * scale)
        m = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], dtype=complex)
        self.assert_close(m * scale, np.array([4.0, 1.0, 1.0]) * scale,
                          3 * EPS * np.linalg.norm(m) * scale)

    @pytest.mark.parametrize("scale", [2.0 ** -1040, 1e-312])
    def test_subnormal(self, rng, scale):
        # Here JACOBI_RTOL * ||A||_F underflows to 0 unless Jacobi runs scaled.
        # Results land among the subnormals, so allow a few of their ulps.
        ulps = 4 * math.ldexp(1.0, -1074)
        m = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], dtype=complex)
        self.assert_close(m * scale, np.array([4.0, 1.0, 1.0]) * scale, ulps)
        for n in (3, 4, 9):
            h = random_hermitian(rng, n) * scale
            self.assert_close(h, mp_eigenvalues(h), n * EPS * np.linalg.norm(h) + n * ulps)

    def test_sweep_limit_raises(self, rng, monkeypatch):
        monkeypatch.setattr(linalg, "_MAX_JACOBI_SWEEPS", 0)
        with pytest.raises(ArithmeticError, match="did not converge"):
            linalg.hermitian_eigenvalues(random_hermitian(rng, 4))


class TestMinEigenvalue:
    def test_bell_partial_transpose(self):
        bell = np.zeros((4, 4), dtype=complex)
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        assert abs(linalg.min_eigenvalue(partial_transpose(bell, (2, 2))) + 0.5) < 1e-13

    def test_maximally_mixed(self):
        assert abs(linalg.min_eigenvalue(np.eye(4, dtype=complex) / 4.0) - 0.25) < 1e-15

    def test_pt_product_closed_form(self):
        params = xstate.XParams.symmetric(0.3, 0.2, 0.5, 0.4)
        pair = xstate.build_factors(params)
        pt_prod = partial_transpose(linalg.mul(pair.p1, pair.p2), (2, 2))
        expected = min(0.3 + 0.2 * 0.4, 0.3 - 0.2 * 0.4, 0.2 + 0.3 * 0.5, 0.2 - 0.3 * 0.5)
        assert abs(linalg.min_eigenvalue(pt_prod) - expected) < 1e-13


class TestIsPsd:
    def test_amplitude_above_one_is_not_psd(self):
        m = np.eye(4, dtype=complex)
        m[0, 3] = 1.2
        m[3, 0] = 1.2
        assert not linalg.is_psd(m)

    def test_nonnegative_diagonal(self):
        assert linalg.is_psd(np.diag(np.array([0.0, 0.1, 2.0, 3.0], dtype=complex)))

    def test_non_hermitian_is_false(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1.0
        assert not linalg.is_psd(m)

    def test_counterexample_is_psd(self):
        # both block discriminants vanish exactly in rationals
        assert Fraction(1, 4) * Fraction(23, 117) == Fraction(23, 468)
        assert Fraction(1, 9) * Fraction(23, 52) == Fraction(23, 468)
        # |c1|^2 = (1 + 22) / (4 * 117), |f1|^2 = (1 + 22) / (36 * 13)
        assert Fraction(23, 4 * 117) == Fraction(23, 468)
        assert Fraction(23, 36 * 13) == Fraction(23, 468)
        assert linalg.is_psd(criteria.counterexample_state())


@st.composite
def block_permuted(draw, hermitian):
    """(matrix, block orders): blocks of order 1/2/3/5 at n = 4/9/16, indices permuted.

    Every entry inside a block is nonzero, so the blocks are the components
    of the zero pattern. Non-Hermitian blocks get a diagonal shift that keeps
    them well conditioned, so the determinant is accurate to a few ulps.
    """
    n = draw(st.sampled_from([4, 9, 16]))
    orders = []
    while sum(orders) < n:
        orders.append(draw(st.sampled_from([k for k in (1, 2, 3, 5) if sum(orders) + k <= n])))
    perm = np.array(draw(st.permutations(range(n))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = np.zeros((n, n), dtype=complex)
    start = 0
    for k in orders:
        g = random_complex(rng, k)
        block = g + g.conj().T if hermitian else g + 3.0 * k * np.eye(k)
        m[start:start + k, start:start + k] = block
        start += k
    return m[np.ix_(perm, perm)], orders


class TestBlockSplit:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(block_permuted(hermitian=True))
    def test_spectrum_matches_numpy(self, case):
        m, orders = case
        # no block has order n, so the split always finds the planted blocks
        assert sorted(map(len, linalg._components(m))) == sorted(orders)
        w = linalg.hermitian_eigenvalues(m)
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.max(np.abs(w - ref)) <= 1e-12 * np.linalg.norm(m)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(block_permuted(hermitian=False))
    def test_det_matches_numpy(self, case):
        m, _ = case
        ref = np.linalg.det(m)
        assert abs(linalg.det(m) - ref) <= 1e-12 * abs(ref)

    def test_connected_pattern_is_one_component(self, rng):
        m = random_hermitian(rng, 9)
        m[3, 5] = m[5, 3] = 0.0
        assert linalg._components(m) is None
        m[0, 4] = m[4, 0] = 0.0
        assert linalg._components(m) is None  # still connected through other entries


def x_block_cases(rng):
    """X matrices: random, and with a zero block discriminant in exact arithmetic."""
    cases = [random_x_matrix(rng) for _ in range(40)]
    for _ in range(40):
        # |c|^2 = d_hi d_lo before c is rounded: an eigenvalue at or near 0.
        d = rng.random(4)
        c14 = math.sqrt(d[0] * d[3]) * np.exp(2j * np.pi * rng.random())
        c23 = math.sqrt(d[1] * d[2]) * np.exp(2j * np.pi * rng.random())
        cases.append(xstate.XMatrix(*d, c14=c14, c23=c23).matrix())
    cases.append(xstate.XMatrix(1.0, 0.25, 0.25, 4.0, c14=2.0j, c23=0.25).matrix())
    cases.append(xstate.XMatrix(0.0, 0.5, 0.5, 0.0, c14=0.0, c23=0.3 - 0.4j).matrix())
    rho = criteria.counterexample_state()
    cases += [rho, partial_transpose(rho, (2, 2)), criteria.counterexample_pt_product()]
    gap = np.zeros((4, 4), dtype=complex)
    gap[0, 3], gap[3, 0], gap[1, 2], gap[2, 1] = 0.06, 0.06, -0.15j, 0.15j
    cases.append(gap)
    return cases


def mp_x_eigenvalues(m):
    """The four eigenvalues of the stored X matrix m at 60 digits, descending."""
    mpmath = pytest.importorskip("mpmath")
    w = []
    with mpmath.workdps(60):
        for i, j in ((0, 3), (1, 2)):
            a, b = mpmath.mpf(m[i, i].real), mpmath.mpf(m[j, j].real)
            cr, ci = mpmath.mpf(m[i, j].real), mpmath.mpf(m[i, j].imag)
            rad = mpmath.sqrt(((a - b) / 2) ** 2 + cr ** 2 + ci ** 2)
            w += [(a + b) / 2 + rad, (a + b) / 2 - rad]
    return sorted(w, reverse=True)


class TestTwoByTwoAccuracy:
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
    def test_within_four_ulps_of_mpmath(self, rng, scale):
        for m in x_block_cases(rng):
            m = m * scale
            w = linalg.hermitian_eigenvalues(m)
            assert np.all(np.isfinite(w))
            for got, ref in zip(w.tolist(), mp_x_eigenvalues(m)):
                assert abs(got - ref) <= 4 * math.ulp(float(ref)), (got, ref)

    def test_entries_near_the_float_maximum(self):
        # a + a^H would overflow on the diagonal; the spectrum does not
        m = np.diag(np.full(4, 1e308)).astype(complex)
        m[0, 3] = m[3, 0] = 5e307
        m[1, 2], m[2, 1] = -5e307j, 5e307j
        w = linalg.hermitian_eigenvalues(m)
        for got, ref in zip(w.tolist(), [1.5e308, 1.5e308, 5e307, 5e307]):
            assert abs(got - ref) <= 4 * math.ulp(ref)


class TestNonFinite:
    @pytest.mark.parametrize("where", [(1, 2), (2, 7)], ids=["in-2x2-block", "dense"])
    def test_raises_naming_the_entry(self, rng, where):
        m = np.eye(4, dtype=complex) / 4.0 if where == (1, 2) else random_hermitian(rng, 9)
        m[where] = np.nan
        i, j = where
        for call in (linalg.hermitian_eigenvalues, linalg.det):
            with pytest.raises(XsepError, match=rf"non-finite entries at \({i},{j}\)$"):
                call(m)
