"""Unit tests for the dense complex matrix routines."""

import cmath
import decimal
import itertools
import math
import re
import sys
import warnings
from decimal import Decimal
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

DEC60 = decimal.Context(prec=60, Emin=-99999, Emax=99999)


def decimal_det(m):
    """(re, im) of the determinant of a complex float matrix, at 60 digits, as Decimals.

    Gaussian elimination with partial pivoting in the decimal module, whose C
    implementation runs it far faster than mpmath's pure-Python one does.
    Each float converts to a Decimal exactly.
    """
    with decimal.localcontext(DEC60):
        a = [[(Decimal(z.real), Decimal(z.imag)) for z in row] for row in m.tolist()]
        dr, di = Decimal(1), Decimal(0)
        for k in range(len(a)):
            p = max(range(k, len(a)), key=lambda i: abs(a[i][k][0]) + abs(a[i][k][1]))
            if p != k:
                a[k], a[p] = a[p], a[k]
                dr, di = -dr, -di
            pr, pi = a[k][k]
            q = pr * pr + pi * pi
            if not q:
                return Decimal(0), Decimal(0)
            dr, di = dr * pr - di * pi, dr * pi + di * pr
            for row in a[k + 1:]:
                xr, xi = row[k]
                lr, li = (xr * pr + xi * pi) / q, (xi * pr - xr * pi) / q
                row[k + 1:] = [(x - lr * ur + li * ui, y - lr * ui - li * ur)
                               for (x, y), (ur, ui) in zip(row[k + 1:], a[k][k + 1:])]
        return dr, di


def exact_det3(m):
    """The determinant of a real 3x3 float matrix, exact, then rounded to a float."""
    (a, b, c), (d, e, f), (g, h, i) = ([Fraction(x) for x in row] for row in m.tolist())
    return float(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))


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
        on_x = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]
        assert not prod[~on_x].any()

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

    def test_has_the_bits_of_numpys_trace(self, rng):
        # The order of the additions is NumPy's, so every bit is, signed zeros included.
        for n in range(1, 17):
            for _ in range(100):
                a = random_complex(rng, n) * 10.0 ** rng.uniform(-300, 300)
                parts = a.view(np.float64)
                zeros = rng.random(parts.shape) < 0.3
                parts[zeros] = rng.choice([0.0, -0.0], zeros.sum())
                got, want = linalg.trace(a), complex(np.trace(a))
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), n

    def test_past_the_float_maximum_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.trace(np.diag([1.5e308] * 4)) == complex(math.inf, 0.0)


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

    def test_rejects_non_square(self):
        for shape in ((0, 0), (2, 3)):
            for call in (linalg.det, linalg.hermitian_eigenvalues):
                with pytest.raises(DimensionMismatch, match="input must be square"):
                    call(np.zeros(shape))

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

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e-300, 1e-320, 2.0 ** -1000, 2.0 ** 1000])
    def test_singular_block_is_zero_at_tiny_scales(self, scale):
        # Rows 1 and 2 are parallel. Unscaled, at 1e-300 a pivot rounded into
        # the subnormals made a multiplier overflow, giving nan+nanj.
        m = np.array([[4, 3, 2, 1], [3, 0, 0, 0], [2, 0, 0, 0], [1, 0, 0, -4]]) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.det(m) == 0j

    @pytest.mark.parametrize("m, want", [
        # three 1x1 blocks; one LU block; one 2x2 block; two 2x2 blocks; four 1x1 blocks
        (np.diag([1e200, 1e200, 1.0]), math.inf),
        (np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) * 1e150, math.inf),
        (np.array([[1e200, 1.0], [1.0, 1e200]]), math.inf),
        (np.kron(np.eye(2), [[1e200, 1.0], [1.0, 1e200]]), math.inf),
        (np.diag([1e300, 1e300, 1e300, -1.0]), -math.inf),
        (np.array([[3e200, 1e200], [1e200, 1e200]]), math.inf),
    ])
    def test_real_matrix_past_the_float_range_has_zero_imaginary_part(self, m, want):
        # A complex product of real factors turned 0 * inf into a NaN
        # imaginary part once it overflowed.
        d = linalg.det(m)
        assert d.real == want
        assert d.imag == 0 and math.copysign(1.0, d.imag) == 1.0

    def test_each_part_past_the_float_range_is_inf_on_its_own(self):
        # The exact determinant is 1e924 + 1e626j: the imaginary part, far
        # below the real one, is past the float range too and must be inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.det(np.diag([1e308, 1e308, 1e308 + 1e10j])) == complex(math.inf, math.inf)

    @staticmethod
    def near_singular_blocks(rng):
        """Random complex 2x2 blocks whose ad and bc agree to about 1e-6 relative."""
        for _ in range(50):
            a, b, c = (complex(*rng.standard_normal(2)) for _ in range(3))
            yield np.array([[a, b], [c, b * c / a * (1 + 1e-6 * rng.standard_normal())]])

    def test_2x2_block_whose_products_overflow(self, rng):
        # ad and bc overflow, and inf - inf was NaN, though the determinant is in range.
        mpmath = pytest.importorskip("mpmath")
        blocks = [np.array([[1e200, 1e200], [1e120 * (1 - 2 ** -40), 1e120]], dtype=complex)]
        blocks += [m * 1e155 for m in self.near_singular_blocks(rng)]
        for m in blocks:
            with mpmath.workdps(60):
                a, b, c, d = (mpmath.mpc(z.real, z.imag) for z in m.ravel().tolist())
                ref = complex(a * d - b * c)
                bound = float(4 * mpmath.mpf(EPS) * (abs(a * d) + abs(b * c)))
            assert bound < math.inf and abs(ref) < 1e308
            got = linalg.det(m)
            assert abs(got - ref) <= bound, (got, ref)

    def test_2x2_block_scaled_past_overflow_keeps_its_bits(self, rng):
        for m in self.near_singular_blocks(rng):
            want = linalg.det(m)
            k = (1020 - math.frexp(abs(want))[1]) // 2  # ad * 4**k overflows, det * 4**k does not
            got = linalg.det(m * math.ldexp(1.0, k))
            assert got == complex(math.ldexp(want.real, 2 * k), math.ldexp(want.imag, 2 * k))

    @pytest.mark.parametrize("n", range(3, 17))
    def test_lu_block_scaled_past_overflow_keeps_its_bits(self, rng, n):
        # Rows 0 and n-1 are scaled by 2**400 and 2**-400, so partial pivoting
        # takes them first and last: at det * 2**(n k) near 2**1020, the
        # plain product of all pivots but the last is past the float range.
        for t in range(20):
            m = random_complex(rng, n) if t % 2 else rng.standard_normal((n, n))
            m[0] *= 2.0 ** 400
            m[-1] *= 2.0 ** -400
            want = linalg.det(m)
            k = (1020 - math.frexp(abs(want))[1]) // n
            big = m * math.ldexp(1.0, k)
            factors = linalg._block_factors(big.tolist(), range(n))
            assert not cmath.isfinite(math.prod(factors, start=1 + 0j))
            got = linalg.det(big)
            assert got == complex(math.ldexp(want.real, n * k), math.ldexp(want.imag, n * k))

    def test_entries_far_below_the_largest_are_kept(self):
        # Scaling the block by 2**-e for its largest entry flushed the 1e-300
        # entries to zero, which gave -0. The reference is exact, then rounded.
        m = np.array([[1e300, 1e-300, 1], [1e300, 2e-300, 1], [1, 1, 1]])
        got, want = linalg.det(m), exact_det3(m)
        assert got.imag == 0 and abs(got.real - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("m", [
        np.diag([1e-200, 1e-200, 1e250]),
        np.diag([1e200, 1e200, 1e-300]),
        np.array([[1e-200, 1e-300, 0], [1e-300, 1e-200, 1e-300], [0, 1e-300, 1e250]]),
        np.diag([2.0 ** 400, 2.0 ** 1000, 2.0 ** -1000]),
    ])
    def test_partial_products_past_the_float_range(self, m):
        # The product of the first two factors underflows or overflows, the
        # determinant does not: the plain product gave 0j and inf+0j. In the
        # last case the second factor itself is past the band the running
        # product is kept in.
        got, want = linalg.det(m), exact_det3(m)
        assert got.imag == 0 and abs(got.real - want) <= 2 * math.ulp(want)

    def test_entry_whose_modulus_is_past_the_float_range(self):
        # abs() of the corner raises OverflowError; the determinant is in range.
        mpmath = pytest.importorskip("mpmath")
        m = np.array([[1.5e308 + 1.5e308j, 1, 0], [1, 1, 1], [0, 1, 2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linalg.det(m)
        with mpmath.workdps(60):
            (a, b, c), (d, e, f), (g, h, i) = (
                [mpmath.mpc(z.real, z.imag) for z in row] for row in m.tolist())
            ref = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
            assert abs(mpmath.mpc(got.real, got.imag) - ref) <= 4 * EPS * abs(ref)

    def test_dense_within_1e_12_of_a_60_digit_reference(self):
        # Random dense matrices, n = 3..16, real and complex, scaled by
        # 10**U(-150, 150). A determinant past the float range must come out
        # inf, not NaN, one below the normal range within 2**-1022 of its value.
        rng = np.random.default_rng(20261018)
        in_range = 0
        for t in range(2000):
            n = 3 + t % 14
            m = random_complex(rng, n) if t % 2 else rng.standard_normal((n, n))
            m = m * 10.0 ** rng.uniform(-150, 150)
            got = linalg.det(m)
            if not t % 2:
                assert got.imag == 0 and math.copysign(1.0, got.imag) == 1.0, (t, got)
            dr, di = decimal_det(m)
            with decimal.localcontext(DEC60):
                size = (dr * dr + di * di).sqrt()
                err = ((Decimal(got.real) - dr) ** 2 + (Decimal(got.imag) - di) ** 2).sqrt()
                if size > Decimal(sys.float_info.max):
                    assert cmath.isinf(got) and not cmath.isnan(got), (t, got)
                elif size < Decimal(sys.float_info.min):
                    assert err <= Decimal(sys.float_info.min), (t, got)
                else:
                    in_range += 1
                    assert err <= Decimal("1e-12") * size, (t, got, err / size)
        assert in_range > 500

    def test_real_factors_keep_the_bits_of_the_complex_product(self, rng):
        for n in range(1, 17):
            factors = [complex(x) for x in rng.standard_normal(n) * 10.0 ** rng.integers(-5, 6, n)]
            want = 1 + 0j
            for f in factors:
                want *= f
            got = linalg._product(factors, 0)
            assert got.real.hex() == want.real.hex() and got.imag == 0


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

    def test_same_bits_as_the_exact_sum_of_the_moduli(self, rng):
        # In range: the root of math.fsum of the squared `_moduli`, in any order of the entries.
        for d in (2, 4, 9, 16):
            for _ in range(25):
                a = random_complex(rng, d) * 10.0 ** rng.integers(-100, 101)
                moduli = linalg._moduli(a.ravel().tolist())
                want = math.sqrt(math.fsum(m * m for m in moduli))
                assert linalg.frobenius_norm(a) == want
                assert linalg.frobenius_norm(a[::-1].T) == want

    def test_within_an_ulp_of_the_exact_norm(self, rng):
        # Each part converts to a Decimal exactly; the reference is good to 60 digits.
        worst = 0.0
        for d in (4, 9, 16):
            for _ in range(40):
                a = random_complex(rng, d)
                got = linalg.frobenius_norm(a)
                with decimal.localcontext(DEC60):
                    exact = sum(Decimal(x) ** 2 for x in a.view(float).ravel().tolist()).sqrt()
                    worst = max(worst, float(abs(Decimal(got) - exact) / Decimal(math.ulp(got))))
        assert worst <= 1.0

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

    @pytest.mark.parametrize("bad, want", [(complex(math.inf, 0.0), math.inf),
                                           (complex(0.0, math.nan), math.nan)], ids=["inf", "nan"])
    def test_a_non_finite_entry_beside_large_finite_ones(self, bad, want):
        # The finite entries are still scaled down: unscaled, their squares sum
        # past the float maximum, and math.fsum raises OverflowError on that.
        got = linalg.frobenius_norm(np.array([[bad, 1.2e154], [1.2e154, 1.2e154]]))
        assert got == want or (math.isnan(want) and math.isnan(got))

    def test_subnormal_entries_keep_their_moduli(self):
        # 16 |20+4j| = 326.3 units of 2**-1074, rounded once; moduli taken on the subnormal
        # grid would each be 20, and 16 * 20 = 320.
        a = np.full((16, 16), (20 + 4j) * 5e-324)
        assert linalg.frobenius_norm(a) == math.ldexp(16 * abs(20 + 4j), -1074) == 326 * 5e-324


class TestTimesPow2:
    def test_is_ldexp_in_range(self, rng):
        for x in rng.standard_normal(200).tolist():
            for e in (-1074, -1060, -500, -1, 0, 1, 500, 1022):
                assert linalg._times_pow2(x, e) == math.ldexp(x, e)

    @pytest.mark.parametrize("e", [1025, 5000])
    def test_past_the_float_maximum_is_inf_of_the_sign(self, e):
        assert linalg._times_pow2(1.5, e) == math.inf
        assert linalg._times_pow2(-1.5, e) == -math.inf

    def test_below_the_subnormals_is_zero(self):
        assert linalg._times_pow2(1.5, -5000) == 0.0


class TestScaledBlock:
    def test_exponent_is_that_of_the_largest_modulus(self, rng):
        # Parts at and next to powers of two, of both signs, at every scale,
        # and moduli on both sides of a power of two; a modulus past the float
        # maximum takes 1024. The scaling is exact, and brings an in-range
        # largest modulus into [0.5, 1).
        for _ in range(3000):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(-1074, 1024))
            mantissas = rng.choice([1.0, 0.75, 0.5, 0.5 + 2.0 ** -52, 1.0 - 2.0 ** -53, 0.0], size=(n, n, 2))
            signs = rng.choice([-1.0, 1.0], size=(n, n, 2))
            parts = np.ldexp(mantissas * signs, k)
            if not parts.any():
                continue
            rows = (parts[..., 0] + 1j * parts[..., 1]).tolist()
            idx = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            entries = [rows[i][j] for i in idx for j in idx]
            if not any(entries):
                continue
            block, e = linalg._scaled_block(rows, idx)
            big = max(linalg._moduli(entries))
            assert e == (math.frexp(big)[1] if big < math.inf else 1024)
            scaled = [z for row in block for z in row]
            assert [complex(math.ldexp(z.real, e), math.ldexp(z.imag, e)) for z in scaled] == entries
            if sys.float_info.min <= big < math.inf:
                assert 0.5 <= max(map(abs, scaled)) < 1.0

    def test_a_modulus_past_the_float_maximum(self):
        rows = [[1.5e308 + 1.5e308j, 1.0], [1.0, -1e308]]
        block, e = linalg._scaled_block(rows, [0, 1])
        assert e == 1024 and block[0][0] == math.ldexp(1.5e308, -1024) * (1 + 1j)

    def test_scaling_is_exact_deep_in_the_subnormals(self):
        rows = [[complex(5e-324, -1e-323), 3e-323], [2e-323, 0.0]]
        block, e = linalg._scaled_block(rows, [0, 1])
        assert e == -1071
        assert block == [[complex(2.0 ** -3, -2.0 ** -2), 0.75], [0.5, 0.0]]


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


def row_pass_cases(rng):
    """Seeded square matrices, n = 1..16: Hermitian, nearly Hermitian and not, dense and sparse.

    Among them: exact-zero patterns, parts of both signs of zero, and scales
    1e-300 and 1e300. No part is +-2**-1074, the one value whose half NumPy
    may round inside a fused multiply-add.
    """
    for n in range(1, 17):
        for scale in (1.0, 1e-300, 1e300):
            g = random_complex(rng, n)
            h = g + g.conj().T
            near = h + 1e-12 * random_complex(rng, n)
            sparse = h * (rng.random((n, n)) < 0.3)
            signed = sparse.copy()
            zeros = signed == 0
            signed[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
            signed.imag[rng.random((n, n)) < 0.3] = -0.0
            real = h.real.astype(complex)
            for m in (g, h, near, sparse, signed, real, sparse * g):
                yield m * scale


class TestHermitianRows:
    """The one pass against NumPy's expressions for the defect and the symmetrised matrix."""

    @staticmethod
    def numpy_defect(a):
        # np.hypot is libm's hypot, the modulus CPython's abs() takes; NumPy's
        # own complex absolute is a SIMD kernel on some hosts, an ulp away.
        d = a - a.conj().T
        moduli = np.hypot(d.real, d.imag)
        i, j = divmod(int(moduli.argmax()), len(a))
        return float(moduli[i, j]), (i, j)

    def test_defect_and_rows_have_numpy_bits(self, rng):
        for a in row_pass_cases(rng):
            defect, pair, h = linalg._hermitian_rows(a.tolist())
            ref_defect, ref_pair = self.numpy_defect(a)
            assert np.array([defect]).tobytes() == np.array([ref_defect]).tobytes()
            assert pair == ref_pair
            assert np.array(h).tobytes() == (0.5 * a + 0.5 * a.conj().T).tobytes()
            # NumPy's complex absolute agrees to an ulp or two
            assert abs(defect - float(np.abs(a - a.conj().T).max())) <= 2 * math.ulp(defect)
            assert linalg.hermiticity_defect(a) == (defect, pair)

    def test_non_hermitian_raises_naming_the_first_pair(self, rng):
        for a in row_pass_cases(rng):
            defect, pair = self.numpy_defect(a)
            if defect <= linalg.DEFAULT_TOL:
                continue
            i, j = pair
            message = f"not Hermitian: entries ({i},{j}) and ({j},{i}) differ by {defect:.3e} "
            with pytest.raises(NotHermitian, match="^" + re.escape(message)) as err:
                linalg.hermitian_eigenvalues(a)
            assert err.value.pair == pair

    def test_defect_input_passes_the_matrix_gate(self):
        with pytest.raises(DimensionMismatch, match=r"must be square, got shape \(2, 3\)"):
            linalg.hermiticity_defect(np.ones((2, 3)))
        with pytest.raises(XsepError, match=r"non-finite entries at \(0,0\)$"):
            linalg.hermiticity_defect(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_a_difference_past_the_float_maximum_is_inf(self):
        # abs(complex(1.5e308, 1.5e308)) raises OverflowError; the defect is inf
        a = np.eye(3, dtype=complex)
        a[0, 1] = 1.5e308 + 1.5e308j
        assert linalg.hermiticity_defect(a) == (math.inf, (0, 1))
        with pytest.raises(NotHermitian, match=r"differ by inf ") as err:
            linalg.hermitian_eigenvalues(a)
        assert err.value.pair == (0, 1)
        with pytest.raises(NotHermitian, match=r"differ by inf "):
            criteria.tarazaga_pd(a)

    @pytest.mark.parametrize("blocks", [
        [[-1.0, 1.0], [0.0]],
        [[0.0], [-1.0, 1.0]],
        [[0.0], [-1.0, 1.0], [0.0], [2.0, 2.0], [-3.0, 3.0]],
        [[-1.0, 1.0], [-0.5, 0.5], [0.0], [0.0]],
    ])
    def test_plus_zero_comes_before_minus_zero(self, blocks):
        # [[c, c], [c, c]] with c < 0 has the eigenvalues 2c and -0.0 (det / big);
        # a 1x1 zero block has +0.0. `_descending` puts every +0.0 before every
        # -0.0, the same bytes for each order of the blocks on every host
        # (NumPy's SIMD sort orders the two zeros its own way on each).
        w = []
        for b in blocks:
            w += [b[0]] if len(b) == 1 else linalg.hermitian_2x2(b[0], b[0], complex(b[1]))
        signs = [math.copysign(1.0, x) for x in w if x == 0.0]
        assert 1.0 in signs and -1.0 in signs
        want = np.array(sorted((x for x in w if x > 0.0), reverse=True)
                        + [0.0] * signs.count(1.0) + [-0.0] * signs.count(-1.0)
                        + sorted((x for x in w if x < 0.0), reverse=True))
        for order in itertools.permutations(blocks):
            n = sum(len(b) for b in order)
            m = np.zeros((n, n), dtype=complex)
            k = 0
            for b in order:
                if len(b) == 2:
                    m[k:k + 2, k:k + 2] = b[0]
                    m[k, k + 1] = m[k + 1, k] = b[1]
                k += len(b)
            assert linalg.hermitian_eigenvalues(m).tobytes() == want.tobytes(), order

    def test_one_zero_sign_sorts_in_python(self, rng):
        for _ in range(200):
            w = rng.choice([0.0, 1.0, -1.0, 0.5, 2.0], size=rng.integers(1, 17))
            got = linalg.hermitian_eigenvalues(np.diag(w).astype(complex))
            assert got.tobytes() == np.sort(w)[::-1].tobytes()


class TestSplitMemo:
    def test_same_pattern_new_values_get_their_own_spectra(self, rng):
        first, second = random_x_matrix(rng), random_x_matrix(rng)
        assert np.array_equal(first != 0, second != 0)
        for m in (first, second, first):
            got = linalg.hermitian_eigenvalues(m)
            assert np.max(np.abs(got - x_spectrum_oracle(m))) <= 1e-14

    def test_a_new_pattern_gets_its_own_split(self, rng):
        x = random_x_matrix(rng)
        assert linalg._components(x.tolist()) == [[0, 3], [1, 2]]
        y = x.copy()
        y[0, 1] = y[1, 0] = 0.1  # joins the blocks: one component
        assert linalg._components(y.tolist()) == [[0, 1, 2, 3]]
        z = x.copy()
        z[1, 2] = z[2, 1] = 0.0  # splits the inner block
        assert linalg._components(z.tolist()) == [[0, 3], [1], [2]]
        assert linalg._components(x.tolist()) == [[0, 3], [1, 2]]
        w = linalg.hermitian_eigenvalues(z)
        assert np.max(np.abs(w - np.sort(np.linalg.eigvalsh(z))[::-1])) <= 1e-14

    def test_memo_is_bounded(self, rng):
        limit = linalg._split.cache_info().maxsize
        assert limit is not None
        for _ in range(2 * limit):
            m = random_complex(rng, 12) * (rng.random((12, 12)) < 0.15)
            m[0, 0] = 0.0  # row 0 has a zero: the split goes through the memo
            linalg._components(m.tolist())
        assert linalg._split.cache_info().currsize <= limit

    def test_dense_input_never_reaches_the_memo(self, rng):
        before = linalg._split.cache_info()
        linalg.hermitian_eigenvalues(random_hermitian(rng, 9))
        linalg.det(random_complex(rng, 16))
        after = linalg._split.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


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
    """Connected matrices, so the whole matrix goes to the dense solver, `_householder_ql`.

    No test here depends on how that solver works. The reference is exact
    where the spectrum is known and 30-digit mpmath otherwise: eigvalsh is
    itself off by up to about 4 eps ||A||_F at n = 3, more than the
    n eps ||A||_F asked of the solver there.
    """

    @staticmethod
    def assert_close(h, ref, tol):
        assert len(linalg._components(h.tolist())) == 1
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
    @pytest.mark.parametrize("n", [3, 4, 9, 16])
    def test_clustered(self, rng, n, spread):
        # Half the spectrum within `spread` of 1: each eigenvalue of the
        # cluster is still resolved to n eps ||A||_F.
        for _ in range(10):
            w = np.concatenate([1.0 + spread * rng.standard_normal(n // 2),
                                -2.0 + 1e-3 * rng.standard_normal(n - n // 2)])
            h = with_spectrum(rng, w)
            self.assert_close(h, mp_eigenvalues(h), n * EPS * np.linalg.norm(h))

    @staticmethod
    def graded(rng, n, scale):
        """D H D, H positive definite and well conditioned, D = diag(scale)."""
        g = random_complex(rng, n)
        h = g @ g.conj().T + n * np.eye(n)
        return scale[:, None] * (0.5 * (h + h.conj().T)) * scale[None, :]

    @pytest.mark.parametrize("n", [3, 4, 9, 16])
    def test_graded_positive_definite(self, rng, n):
        # D from 1 down to 1e-6, or up: the entries span twelve orders of
        # magnitude, and the smallest eigenvalue, about 1e-12, keeps all but
        # its last few digits whichever end is large.
        for scale in (np.logspace(0, -6, n), np.logspace(-6, 0, n)):
            for _ in range(3):
                h = self.graded(rng, n, scale)
                ref = mp_eigenvalues(h)
                self.assert_close(h, ref, n * EPS * np.linalg.norm(h))
                assert abs(linalg.hermitian_eigenvalues(h)[-1] / ref[-1] - 1) <= 1e-12

    def test_graded_to_1e12(self, rng):
        # D from 1 to 1e-12 at n = 16: the smallest eigenvalue is about 1e-24
        # times the largest, checked relatively against 60 digits.
        mpmath = pytest.importorskip("mpmath")
        for scale in (np.logspace(0, -12, 16), np.logspace(-12, 0, 16)):
            h = self.graded(rng, 16, scale)
            with mpmath.workdps(60):
                ref = float(min(mpmath.eighe(mpmath.matrix(h.tolist()), eigvals_only=True)))
            assert abs(linalg.hermitian_eigenvalues(h)[-1] / ref - 1) <= 1e-12

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_partial_transpose_of_a_state(self, rng, k):
        # rho^G of a random k x k state is indefinite: PPT is decided on the
        # sign of its smallest eigenvalue.
        for _ in range(5):
            g = random_complex(rng, k * k)
            rho = g @ g.conj().T
            rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
            h = partial_transpose(rho, (k, k))
            self.assert_close(h, mp_eigenvalues(h), k * k * EPS * np.linalg.norm(h))

    @pytest.mark.parametrize("n", [9, 16])
    def test_wilkinson_tridiagonal(self, n):
        # Already real tridiagonal, so every reflector is the identity and QL
        # gets the matrix as it is; its largest eigenvalues come in pairs that
        # agree to many digits.
        h = np.diag(np.abs(np.arange(n) - (n - 1) / 2)).astype(complex)
        h += np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        self.assert_close(h, mp_eigenvalues(h), n * EPS * np.linalg.norm(h))

    def test_complex_tridiagonal(self, rng):
        # Each column below the diagonal has one entry, complex: its reflector
        # is not the identity, which only a real column's is. The first matrix
        # has the spectrum (3.104, 2.270, 0.626).
        h = np.array([[1, .5 + .5j, 0], [.5 - .5j, 2, .3j], [0, -.3j, 3]])
        self.assert_close(h, mp_eigenvalues(h), 3 * EPS * np.linalg.norm(h))
        for n in range(3, 17):
            h = np.diag(rng.uniform(-1.0, 1.0, n)).astype(complex)
            off = random_complex(rng, n)[0, :n - 1]
            h += np.diag(off, 1) + np.diag(off.conj(), -1)
            self.assert_close(h, mp_eigenvalues(h), n * EPS * np.linalg.norm(h))

    @pytest.mark.parametrize("d, e", [
        ([(1.5, -100), (-1.5, -700), (-1.5, -800), (1.0, -1000)], [(1.5, 0), (1.5, -699), (1.5, -599)]),
        ([(1.5, -699), (1.5, -799), (1.0, -1000), (-1.0, -1000)], [(1.5, 0), (1.0, -100), (1.5, -999)]),
        ([(1.0, -200), (-1.0, -500), (1.5, -800), (1.0, -1000), (1.0, -1000)],
         [(1.0, -300), (-1.5, -99), (1.5, -800), (1.0, -1000)]),
    ], ids=["a", "b", "c"])
    def test_graded_tridiagonal_whose_rotation_underflows(self, d, e):
        # Entries from 1.5 down to 2**-1000, as (m, k) for m 2**k: in a QL sweep
        # both terms of a rotation underflow to 0, so r = hypot(f, g) is 0, the
        # eigenvalue below splits off and the block's last coupling is zeroed.
        # Each eigenvalue keeps its relative accuracy, against 400 digits.
        mpmath = pytest.importorskip("mpmath")
        d, e = ([math.ldexp(m, k) for m, k in xs] for xs in (d, e))
        h = np.diag(d).astype(complex) + np.diag(e, 1) + np.diag(e, -1)
        with mpmath.workdps(400):
            ref = sorted(map(float, mpmath.eigsy(mpmath.matrix(h.real.tolist()), eigvals_only=True)),
                         reverse=True)
        got = linalg.hermitian_eigenvalues(h).tolist()
        assert all(abs(x - r) <= 4 * math.ulp(r) for x, r in zip(got, ref)), (got, ref)

    def test_negligible_columns(self):
        # Couplings of 1e-200 move no eigenvalue of diag(1, ..., 5) by an ulp.
        # Their squares underflow, so a Householder step must not divide by
        # the norm they make; with a coupling of 0.5 across the corner, the
        # first step mixes them with it.
        for coupling in (1e-200, 1e-200j, 1e-200 - 1e-200j):
            h = np.diag(np.arange(1.0, 6.0)).astype(complex)
            for i in range(4):
                h[i, i + 1], h[i + 1, i] = coupling, np.conj(coupling)
            self.assert_close(h, np.arange(5.0, 0.0, -1.0), 0.0)
            h[0, 4] = h[4, 0] = 0.5
            self.assert_close(h, mp_eigenvalues(h), 5 * EPS * np.linalg.norm(h))

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
        # The block is solved scaled up by a power of two, and scaled back.
        # Results land among the subnormals, so allow a few of their ulps.
        ulps = 4 * math.ldexp(1.0, -1074)
        m = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], dtype=complex)
        self.assert_close(m * scale, np.array([4.0, 1.0, 1.0]) * scale, ulps)
        for n in (3, 4, 9):
            h = random_hermitian(rng, n) * scale
            self.assert_close(h, mp_eigenvalues(h), n * EPS * np.linalg.norm(h) + n * ulps)

    @pytest.mark.parametrize("n", [3, 9, 16])
    def test_reads_only_the_upper_triangle(self, rng, n):
        h = random_hermitian(rng, n)
        dirty = h.copy()
        dirty[np.tril_indices(n, -1)] = np.nan
        want = linalg._householder_ql(h.tolist())
        got = linalg._householder_ql(dirty.tolist())
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_deflation_holds_at_its_tie(self):
        # |e[0]| = 2**-51 is exactly eps (|d[0]| + |d[1]|), so the coupling is
        # negligible and the diagonal is the spectrum as it stands. A strict
        # test would take the 2x2 block and return 1 + 2**-51 and 1 - 2**-51.
        got = linalg._implicit_ql([1.0, 1.0, 2.0], [2.0 ** -51, 0.0])
        assert list(map(float.hex, got)) == ["0x1.0000000000000p+0", "0x1.0000000000000p+0",
                                            "0x1.0000000000000p+1"]

    def test_sweep_limit_raises(self, rng, monkeypatch):
        monkeypatch.setattr(linalg, "_MAX_QL_SWEEPS", 0)
        with pytest.raises(ArithmeticError, match="did not converge"):
            linalg.hermitian_eigenvalues(random_hermitian(rng, 4))

    @pytest.mark.parametrize("k", [600, -600])
    @pytest.mark.parametrize("n", [3, 9, 16])
    def test_power_of_two_scaling_keeps_the_bits(self, rng, n, k):
        # _spectrum(h * 2**k) is _spectrum(h) * 2**k, bit for bit.
        for _ in range(5):
            h = random_hermitian(rng, n)
            scaled = np.ldexp(h.real, k) + 1j * np.ldexp(h.imag, k)
            want = [math.ldexp(x, k) for x in linalg._spectrum(h.tolist())]
            assert np.array(linalg._spectrum(scaled.tolist())).tobytes() == np.array(want).tobytes()


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
    """A Hermitian matrix is PSD within tol iff min_eigenvalue(a, tol) >= -tol."""

    def test_amplitude_above_one_is_not_psd(self):
        m = np.eye(4, dtype=complex)
        m[0, 3] = 1.2
        m[3, 0] = 1.2
        assert not linalg.min_eigenvalue(m) >= -linalg.DEFAULT_TOL

    def test_nonnegative_diagonal(self):
        d = np.diag(np.array([0.0, 0.1, 2.0, 3.0], dtype=complex))
        assert linalg.min_eigenvalue(d) >= -linalg.DEFAULT_TOL

    def test_counterexample_is_psd(self):
        # both block discriminants vanish exactly in rationals
        assert Fraction(1, 4) * Fraction(23, 117) == Fraction(23, 468)
        assert Fraction(1, 9) * Fraction(23, 52) == Fraction(23, 468)
        # |c1|^2 = (1 + 22) / (4 * 117), |f1|^2 = (1 + 22) / (36 * 13)
        assert Fraction(23, 4 * 117) == Fraction(23, 468)
        assert Fraction(23, 36 * 13) == Fraction(23, 468)
        assert linalg.min_eigenvalue(criteria.counterexample_state()) >= -linalg.DEFAULT_TOL


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
        assert sorted(map(len, linalg._components(m.tolist()))) == sorted(orders)
        w = linalg.hermitian_eigenvalues(m)
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.max(np.abs(w - ref)) <= 1e-12 * np.linalg.norm(m)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(block_permuted(hermitian=False))
    def test_det_matches_numpy(self, case):
        m, _ = case
        ref = np.linalg.det(m)
        assert abs(linalg.det(m) - ref) <= 1e-12 * abs(ref)

    def test_each_block_is_scaled_on_its_own(self, rng, monkeypatch):
        # Three dense 3x3 blocks 2**1200 apart: each is solved on the power of
        # two of its own largest part, so each is resolved to its own norm.
        # Neither that spectrum nor an X matrix's makes a NumPy call.
        h = np.zeros((9, 9), dtype=complex)
        want = []
        for start, k in zip((0, 3, 6), (600, 0, -600)):
            b = random_hermitian(rng, 3)
            h[start:start + 3, start:start + 3] = np.ldexp(b.real, k) + 1j * np.ldexp(b.imag, k)
            want += [(math.ldexp(x, k), math.ldexp(3 * EPS * np.linalg.norm(b), k))
                     for x in mp_eigenvalues(b)]
        assert sorted(map(len, linalg._components(h.tolist()))) == [3, 3, 3]
        x = random_x_matrix(rng)
        monkeypatch.setattr(linalg, "np", None)
        w = linalg._spectrum(h.tolist())
        for z, tol in want:
            assert min(abs(y - z) for y in w) <= tol
        assert np.max(np.abs(np.array(linalg._spectrum(x.tolist())) - x_spectrum_oracle(x))) <= 1e-14

    def test_connected_pattern_is_one_component(self, rng):
        m = random_hermitian(rng, 9)
        m[3, 5] = m[5, 3] = 0.0
        assert linalg._components(m.tolist()) == [list(range(9))]
        m[0, 4] = m[4, 0] = 0.0
        assert linalg._components(m.tolist()) == [list(range(9))]  # still connected through other entries

    @staticmethod
    def breadth_first_components(a):
        """Components of the pattern of a | a.T by breadth-first search, in order of smallest index."""
        nonzero = (a != 0).tolist()
        n = len(nonzero)
        seen = [False] * n
        components = []
        for start in range(n):
            if seen[start]:
                continue
            seen[start] = True
            component = [start]
            for i in component:  # grows while walked
                for j in range(n):
                    if (nonzero[i][j] or nonzero[j][i]) and not seen[j]:
                        seen[j] = True
                        component.append(j)
            components.append(sorted(component))
        return components

    @staticmethod
    def random_patterns(rng):
        """(matrix, Hermitian?) with random zero patterns, n = 1..16, sparse to dense."""
        for n in range(1, 17):
            for density in (0.05, 0.15, 0.3, 0.6):
                for _ in range(6):
                    pattern = rng.random((n, n)) < density
                    yield random_complex(rng, n) * pattern, False
                    pattern |= pattern.T
                    yield random_hermitian(rng, n) * pattern, True

    def test_components_match_breadth_first_search(self, rng):
        for m, _ in self.random_patterns(rng):
            assert linalg._components(m.tolist()) == self.breadth_first_components(m)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_connected_is_one_component(self, rng, n):
        m = random_complex(rng, n)
        assert linalg._components(m.tolist()) == [list(range(n))]
        if n > 2:
            m[0, 1] = 0.0  # row 0 now has a zero; the rest still connects index 1
            assert linalg._components(m.tolist()) == [list(range(n))]

    def test_spectra_and_determinants_have_the_bits_of_the_search(self, rng, monkeypatch):
        cases = list(self.random_patterns(rng))
        got = [(linalg.det(m), linalg.hermitian_eigenvalues(m) if herm else None)
               for m, herm in cases]
        monkeypatch.setattr(linalg, "_components",
                            lambda rows: self.breadth_first_components(np.array(rows)))
        for (m, herm), (d, w) in zip(cases, got):
            assert np.array([d]).tobytes() == np.array([linalg.det(m)]).tobytes()
            if herm:
                assert w.tobytes() == linalg.hermitian_eigenvalues(m).tobytes()


def x_block_cases(rng):
    """X matrices: random, and with a zero block discriminant in exact arithmetic.

    The last case is a connected 2x2 matrix, one block with a small eigenvalue
    that an iterative solver gets only to about 1e-8 relative.
    """
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
    cases.append(np.array([[1e8, 1e4], [1e4, 1 + 1e-8]], dtype=complex))
    return cases


def mp_x_eigenvalues(m):
    """The eigenvalues of the stored X (or 2x2) matrix m at 60 digits, descending."""
    mpmath = pytest.importorskip("mpmath")
    w = []
    with mpmath.workdps(60):
        for i, j in ((0, 3), (1, 2)) if len(m) == 4 else ((0, 1),):
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

    def test_a_modulus_past_the_float_maximum(self):
        # |h[0, 1]| = 2.1e308: the block is scaled by its largest part, not
        # the (overflowing) largest modulus, and solved scaled.
        mpmath = pytest.importorskip("mpmath")
        h = np.full((3, 3), 1.5e308, dtype=complex)
        h[0, 1] = 1.5e308 + 1.5e308j
        h[1, 0] = h[0, 1].conjugate()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = linalg.hermitian_eigenvalues(h)
        with mpmath.workdps(40):
            ref = sorted(mpmath.eighe(mpmath.matrix(h.tolist()), eigvals_only=True), reverse=True)
        assert ref[0] > sys.float_info.max and w[0] == math.inf
        for got, want in zip(w.tolist()[1:], ref[1:]):
            assert abs(got - float(want)) <= 1e-13 * abs(float(want))
        assert float(ref[1]) == pytest.approx(6.9121669e307) and float(ref[2]) == pytest.approx(-1.0126963e308)

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
