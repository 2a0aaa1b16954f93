"""Unit tests for the X-state family, spectra and concurrence."""

import math

import numpy as np
import pytest

from xsep import criteria, forms, linalg, xstate
from xsep.bipartite import partial_transpose
from xsep.errors import InvalidParams, NotDensityMatrix
from xsep.xstate import XMatrix, XParams

from conftest import random_unit_disc, random_x_matrix, x_record


def random_symmetric_params(rng, normalized=False):
    if normalized:
        t1 = 0.5 * rng.random()
        t2 = 0.5 - t1
    else:
        t1, t2 = rng.random(), rng.random()
    return XParams.symmetric(t1, t2, random_unit_disc(rng), random_unit_disc(rng))


def closed_form_concurrence(params):
    """`forms.x_concurrence` of the entries of `product_state(params)`; no normalization needed."""
    t1, t2 = params.t1, params.t2
    return forms.x_concurrence(t1, t2, t2, t1, t1 * abs(params.v1), t2 * abs(params.v2))


def psd(a):
    """PSD within the default tol, for a Hermitian a."""
    return linalg.min_eigenvalue(a) >= -forms.DEFAULT_TOL


class TestXParams:
    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidParams, match="t3"):
            XParams(0.1, 0.2, -0.3, 0.4, 0j, 0j)

    def test_rejects_large_amplitude(self):
        with pytest.raises(InvalidParams, match=r"\|v1\|"):
            XParams(1, 1, 1, 1, 1.2, 0j)
        with pytest.raises(InvalidParams, match=r"\|v2\|"):
            XParams(1, 1, 1, 1, 0j, 1.0 + 1e-6)

    def test_amplitude_slack_is_a_few_ulps(self, rng):
        with pytest.raises(InvalidParams, match=r"\|v1\|"):
            XParams(1, 1, 1, 1, 1.0 + 1e-12, 0j)
        for t in rng.uniform(-10.0, 10.0, 2000).tolist():
            phase = complex(math.cos(t), math.sin(t))
            XParams(1, 1, 1, 1, phase, phase.conjugate())

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParams):
            XParams(float("nan"), 0, 0, 0, 0j, 0j)
        with pytest.raises(InvalidParams):
            XParams(1, 1, 1, 1, complex(float("inf"), 0), 0j)

    def test_takes_a_complex_weight_with_zero_imaginary_part(self):
        for t in (0.25 + 0j, np.complex128(0.25)):
            p = XParams(0.25, t, 0.25, 0.25, 0j, 0j)
            assert type(p.t2) is float and p.t2 == 0.25

    @pytest.mark.parametrize("t", [0.25 + 1e-3j, np.complex128(0.25 + 1j), 0.25j])
    def test_rejects_a_complex_weight_naming_it(self, t):
        with pytest.raises(InvalidParams, match=r"^t3 must be real, got "):
            XParams(0.25, 0.25, t, 0.25, 0j, 0j)

    def test_symmetric_constructor(self):
        p = XParams.symmetric(0.3, 0.2, 0.5j, 0.1)
        assert (p.t3, p.t4) == (0.2, 0.3)
        assert p.is_symmetric


class TestBuildFactors:
    def test_trivial(self):
        pair = xstate.build_factors(XParams(0.25, 0.25, 0.25, 0.25, 0j, 0j))
        assert np.array_equal(pair.p1, np.eye(4, dtype=complex) / 4.0)
        assert np.array_equal(pair.p2, np.eye(4, dtype=complex))

    def test_entry_layout(self):
        params = XParams(0.3, 0.2, 0.2, 0.3, 0.5, 0.4j)
        pair = xstate.build_factors(params)
        assert np.array_equal(np.diag(pair.p1), np.array([0.3, 0.2, 0.2, 0.3], dtype=complex))
        assert np.array_equal(np.diag(pair.p2), np.ones(4, dtype=complex))
        assert pair.p2[0, 3] == 0.5
        assert pair.p2[1, 2] == 0.4j
        assert pair.p2[2, 1] == np.conj(0.4j)
        assert pair.p2[3, 0] == 0.5

    def test_boundary_amplitude_gives_zero_eigenvalue(self):
        pair = xstate.build_factors(XParams(1, 1, 1, 1, 1.0, 0.3))
        w = linalg.hermitian_eigenvalues(pair.p2)
        assert abs(w[-1]) < 1e-13
        assert psd(pair.p2)

    def test_both_factors_psd(self, rng):
        for _ in range(50):
            pair = xstate.build_factors(random_symmetric_params(rng))
            assert psd(pair.p1)
            assert psd(pair.p2)


class TestProductState:
    def test_rejects_asymmetric_weights(self):
        with pytest.raises(InvalidParams, match="t3"):
            xstate.product_state(XParams(0.3, 0.2, 0.25, 0.3, 0j, 0j))

    def test_entry_identification(self):
        x = xstate.product_state(XParams.symmetric(0.3, 0.2, 0.5, 0.4j))
        assert (x.d11, x.d22, x.d33, x.d44) == (0.3, 0.2, 0.2, 0.3)
        assert x.c14 == 0.3 * 0.5
        assert x.c23 == 0.2 * 0.4j

    def test_quarter_family_instance(self):
        v1, v2 = 0.6, 0.3j
        x = xstate.product_state(XParams.symmetric(0.25, 0.25, v1, v2))
        m = x.matrix()
        assert np.array_equal(np.diag(m), np.full(4, 0.25, dtype=complex))
        assert m[0, 3] == v1 / 4.0
        assert m[1, 2] == v2 / 4.0
        assert x.trace == 1.0

    def test_corner_case_spectrum(self):
        # t1 = 1/2, t2 = 0, v1 = 1: eigenvalues {1, 0, 0, 0}
        x = xstate.product_state(XParams.symmetric(0.5, 0.0, 1.0, 0j))
        w = xstate.x_eigenvalues(x)
        assert np.max(np.abs(w - np.array([1.0, 0.0, 0.0, 0.0]))) < 1e-15

    def test_diagonal_when_amplitudes_vanish(self):
        x = xstate.product_state(XParams.symmetric(0.3, 0.2, 0j, 0j))
        assert np.array_equal(
            x.matrix(), np.diag(np.array([0.3, 0.2, 0.2, 0.3], dtype=complex))
        )

    def test_matches_matrix_product(self, rng):
        for _ in range(50):
            params = random_symmetric_params(rng)
            pair = xstate.build_factors(params)
            prod = linalg.mul(pair.p1, pair.p2)
            assert np.max(np.abs(xstate.product_state(params).matrix() - prod)) < 1e-15
            assert psd(prod)


class TestXMatrix:
    def test_holds_a_non_psd_block_that_validate_density_rejects(self):
        x = XMatrix(0.25, 0.25, 0.25, 0.25, c14=0.3, c23=-0.1j)
        assert xstate.x_eigenvalues(x)[-1] < 0.0
        with pytest.raises(NotDensityMatrix) as err:
            criteria.validate_density(x.matrix(), (2, 2))
        assert err.value.check == "positivity"

    def test_rejects_non_finite_entries(self):
        with pytest.raises(InvalidParams, match="d33 must be finite"):
            XMatrix(0.25, 0.25, float("nan"), 0.25, 0j, 0j)
        with pytest.raises(InvalidParams, match="c14 must be finite"):
            XMatrix(0.25, 0.25, 0.25, 0.25, complex(0.0, float("inf")), 0j)

    def test_takes_a_complex_diagonal_with_zero_imaginary_part(self):
        x = XMatrix(0.25 + 0j, np.complex128(0.25), 0.25, 0.25, 0j, 0j)
        assert [type(d) for d in (x.d11, x.d22)] == [float, float]
        assert x == XMatrix(0.25, 0.25, 0.25, 0.25, 0j, 0j)

    @pytest.mark.parametrize("d", [0.25 + 1e-3j, np.complex128(0.25 + 1j), complex(0.25, math.nan)])
    def test_rejects_a_complex_diagonal_naming_it(self, d):
        with pytest.raises(InvalidParams, match=r"^d22 must be real, got "):
            XMatrix(0.25, d, 0.25, 0.25, 0j, 0j)


class TestIsXShaped:
    """Whether an array is X shaped: `_off_x_within` of a square row list, the
    predicate that `matrix_concurrence` asks of a 4x4 array."""

    TOL = 1e-10

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cell_by_cell(self, n):
        # An odd n has its centre on both diagonals. Entries on the X may be
        # anything; off it, at most tol in modulus and not NaN. A real row
        # list reads as its complex cast.
        above = np.nextafter(self.TOL, np.inf)
        for dtype, x_value, values in (
            (complex, 3.0 - 2.0j, ((self.TOL, True), (-1j * self.TOL, True), (above, False),
                                   (1j * above, False), (math.nan, False), (1e300, False))),
            (float, -3.0, ((self.TOL, True), (-self.TOL, True), (above, False),
                           (-above, False), (math.nan, False), (-math.inf, False))),
        ):
            base = np.zeros((n, n), dtype=dtype)
            for i in range(n):
                base[i, i] = base[i, n - 1 - i] = x_value
            assert xstate._off_x_within(base.tolist(), self.TOL)
            for i in range(n):
                for j in range(n):
                    on_x = j == i or i + j == n - 1
                    for value, off_x_ok in values:
                        a = base.copy()
                        a[i, j] = value
                        got = xstate._off_x_within(a.tolist(), self.TOL)
                        assert got is (on_x or off_x_ok), (i, j, value)

    @pytest.mark.parametrize("a", [np.zeros((4, 3)), np.zeros(4)], ids=["non-square", "1-D"])
    def test_not_square_is_not_x_shaped(self, a):
        assert xstate.matrix_concurrence(a, self.TOL) is None


class TestXEigenvalues:
    def test_diagonal(self):
        x = XMatrix(0.4, 0.3, 0.2, 0.1, 0j, 0j)
        assert np.max(np.abs(xstate.x_eigenvalues(x) - np.array([0.4, 0.3, 0.2, 0.1]))) < 1e-15

    def test_family_spectrum(self):
        x = xstate.product_state(XParams.symmetric(0.3, 0.2, 0.5, 0.4))
        w = xstate.x_eigenvalues(x)
        expected = np.sort(np.array([0.45, 0.15, 0.28, 0.12]))[::-1]
        assert np.max(np.abs(w - expected)) < 1e-15
        # the set contains t1(1-|v1|) and t2(1-|v2|)
        assert abs(w[2] - 0.15) < 1e-15 and abs(w[3] - 0.12) < 1e-15

    def test_bell_partial_transpose(self):
        bell = np.zeros((4, 4), dtype=complex)
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        pt = partial_transpose(bell, (2, 2))
        w = xstate.x_eigenvalues(x_record(pt))
        assert w.tolist() == [0.5, 0.5, 0.5, -0.5]
        assert w.tobytes() == linalg.hermitian_eigenvalues(pt).tobytes()

    def test_plus_zero_comes_before_minus_zero(self):
        # The outer block [[-1, -1], [-1, -1]] has the eigenvalues -0.0 and -2;
        # the inner diagonal holds +0.0. The order is `linalg._descending`'s.
        x = XMatrix(-1.0, 0.0, -2.0, -1.0, c14=-1.0, c23=0j)
        assert xstate.x_eigenvalues(x).tobytes() == np.array([0.0, -0.0, -2.0, -2.0]).tobytes()

    def test_counterexample_zero_modes(self):
        x = x_record(criteria.counterexample_state())
        w = xstate.x_eigenvalues(x)
        assert abs(w[2]) < 1e-15 and abs(w[3]) < 1e-15

    def test_agrees_with_jacobi(self, rng):
        from conftest import densify, random_x_matrix

        for _ in range(10_000):
            m = random_x_matrix(rng)
            closed = xstate.x_eigenvalues(x_record(m))
            dense = linalg.hermitian_eigenvalues(densify(m))
            assert np.max(np.abs(closed - dense)) < 1e-10


def random_x_with_zero_corners(rng):
    """A random X matrix whose corners are complex, or exactly zero one time in eight."""
    m = random_x_matrix(rng)
    for i, j in ((0, 3), (1, 2)):
        if rng.random() < 0.125:
            m[i, j] = m[j, i] = 0.0
    return x_record(m)


class TestOneClosedForm:
    """The X spectra are those of `linalg.hermitian_2x2`, bit for bit."""

    def test_eigenvalues_equal_the_general_solver(self, rng):
        # Bit for bit, on the matrix as drawn, scaled by 10**U(-150, 150), and
        # partially transposed, which is often not PSD.
        for _ in range(2000):
            m = random_x_with_zero_corners(rng).matrix()
            for a in (m, m * 10.0 ** rng.uniform(-150, 150), partial_transpose(m, (2, 2))):
                x = XMatrix(*(a[k, k].real for k in range(4)), c14=a[0, 3], c23=a[1, 2])
                got, want = xstate.x_eigenvalues(x), linalg.hermitian_eigenvalues(a)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_min_eigenvalue_on_moduli_equals_the_real_corner_spectrum(self, rng):
        for _ in range(2000):
            x = random_x_with_zero_corners(rng)
            moduli = (abs(x.c14), abs(x.c23))
            real = XMatrix(x.d11, x.d22, x.d33, x.d44, *moduli)
            low = xstate.x_eigenvalues(real)[-1]
            assert low == linalg.hermitian_eigenvalues(real.matrix())[-1]

    def test_zero_corners_give_the_diagonal(self):
        assert linalg.hermitian_2x2(0.3, 0.2, 0j) == (0.3, 0.2)
        assert linalg.hermitian_2x2(0.0, 0.0, 0j) == (0.0, 0.0)

    def test_pair_is_descending_for_a_negative_mean(self):
        hi, lo = linalg.hermitian_2x2(-1.0, -2.0, 0.5 + 0.25j)
        assert hi > lo
        assert abs(hi + lo + 3.0) < 1e-15
        assert linalg.hermitian_2x2(-0.2, -0.3, 0j) == (-0.2, -0.3)


class TestScalarForms:
    """The closed forms take and return Python floats and equal the library calls."""

    def test_determinant(self, rng):
        for _ in range(20):
            diag = rng.random(4).tolist()
            m14s = (rng.random(50) * math.sqrt(diag[0] * diag[3])).tolist()
            m23s = (rng.random(50) * math.sqrt(diag[1] * diag[2])).tolist()
            for m14, m23 in zip(m14s, m23s):
                det = forms.x_determinant(*diag, m14, m23)
                assert type(det) is float
                x = XMatrix(*diag, c14=m14, c23=m23)
                assert abs(det - linalg.det(x.matrix()).real) < 1e-14

    def test_scalar_inputs_stay_python_floats(self):
        x = XMatrix(0.3, 0.2, 0.2, 0.3, c14=0.1, c23=0.05j)
        assert type(xstate.concurrence(x)) is float


class TestConcurrence:
    def test_bell_state(self):
        bell = XMatrix(0.5, 0.0, 0.0, 0.5, c14=0.5, c23=0j)
        assert xstate.concurrence(bell) == 1.0

    def test_rejects_unnormalized(self):
        x = xstate.product_state(XParams.symmetric(0.3, 0.3, 0j, 0j))
        with pytest.raises(InvalidParams, match="normalized"):
            xstate.concurrence(x)

    def test_trace_decided_under_tol_as_matrix_concurrence_does(self):
        x = XMatrix(0.1 + 1e-9, 0.4, 0.4, 0.1, c14=0.05, c23=0.35)
        with pytest.raises(InvalidParams, match="normalized"):
            xstate.concurrence(x)
        assert xstate.matrix_concurrence(x.matrix(), linalg.DEFAULT_TOL) is None
        conc = xstate.concurrence(x, 1e-8)
        assert conc == xstate.matrix_concurrence(x.matrix(), 1e-8)
        assert abs(conc - 0.5) < 1e-8

    def test_family_closed_form(self, rng):
        for _ in range(500):
            params = random_symmetric_params(rng, normalized=True)
            got = xstate.concurrence(xstate.product_state(params))
            expected = 2.0 * max(
                0.0,
                params.t2 * abs(params.v2) - params.t1,
                params.t1 * abs(params.v1) - params.t2,
            )
            assert abs(got - expected) < 1e-12
            assert 0.0 <= got <= 1.0
            assert abs(got - closed_form_concurrence(params)) < 1e-12

    def test_equal_weights_vanish(self, rng):
        for _ in range(50):
            params = XParams.symmetric(0.25, 0.25, random_unit_disc(rng), random_unit_disc(rng))
            assert xstate.concurrence(xstate.product_state(params)) == 0.0


    def test_family_concurrence_is_x_concurrence_bit_for_bit(self, rng):
        # t1*t1 and t2*t2 leave the float range at these scales.
        for t1, t2 in 10.0 ** rng.uniform(-300, 300, size=(10_000, 2)):
            params = XParams.symmetric(t1, t2, random_unit_disc(rng), random_unit_disc(rng))
            t1, t2, a1, a2 = params.t1, params.t2, abs(params.v1), abs(params.v2)
            got = forms.x_concurrence(t1, t2, t2, t1, t1 * a1, t2 * a2)
            assert got == 2.0 * max(0.0, t2 * a2 - t1, t1 * a1 - t2)


class TestBlockRoots:
    """sqrt(d11 d44) and sqrt(d22 d33) where the product leaves the float range."""

    @pytest.mark.parametrize("t", [5e-324, 1e-200, 1e-170, 1e170, 1e300])
    def test_root_of_a_square_is_exact(self, t):
        assert xstate.x_concurrence(t, 0.0, 0.0, t, 0.0, 2.0 * t) == 2.0 * t
        assert xstate.x_concurrence(0.0, t, t, 0.0, 2.0 * t, 0.0) == 2.0 * t

    @pytest.mark.parametrize("k", [-500, 500])
    def test_scaled_by_a_power_of_two_keeps_its_bits(self, rng, k):
        for a, b in 10.0 ** rng.uniform(-100, 100, size=(2000, 2)):
            root = forms._sqrt_product(math.ldexp(a, k), math.ldexp(b, k))
            assert root == math.ldexp(math.sqrt(a * b), k)

    @pytest.mark.parametrize("a, b", [(-1e-200, 1e-200), (1e-200, -1e-200), (-1.0, 1.0), (0.0, 1e300)])
    def test_nonpositive_product_gives_zero(self, a, b):
        assert forms._sqrt_product(a, b) == 0.0


class TestMatrixConcurrence:
    def test_none_unless_4x4_x_shaped_of_trace_one(self):
        mixed = np.eye(4, dtype=complex) / 4.0
        assert xstate.matrix_concurrence(mixed, 1e-10) == 0.0
        assert xstate.matrix_concurrence(np.eye(9, dtype=complex) / 9.0, 1e-10) is None
        dense = mixed.copy()
        dense[0, 1] = dense[1, 0] = 1e-3
        assert xstate.matrix_concurrence(dense, 1e-10) is None
        assert xstate.matrix_concurrence(dense, 1e-3) == 0.0
        assert xstate.matrix_concurrence(mixed * 1.001, 1e-10) is None
        assert xstate.matrix_concurrence(mixed * 1.001, 1e-2) == 0.0

    def test_equals_concurrence_of_the_x_matrix(self, rng):
        for _ in range(200):
            x = xstate.product_state(random_symmetric_params(rng, normalized=True))
            assert xstate.matrix_concurrence(x.matrix(), 1e-10) == xstate.concurrence(x)

    # The eight entries on the X of a 4x4 matrix.
    ON_X = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize("i, j", ON_X)
    def test_non_finite_entry_on_the_x_gives_none(self, i, j, value):
        # A NaN trace passes no `> tol` test: it read as concurrence 0.0, an
        # infinite corner as inf.
        a = np.eye(4, dtype=complex) / 4.0
        a[i, j] = value
        for tol in (0.0, 1e-10, 0.5, math.inf):
            assert xstate.matrix_concurrence(a, tol) is None, tol

    @pytest.mark.parametrize("i, j", [(0, 3), (1, 2), (0, 1)])
    def test_opposite_infinities_on_the_diagonal_give_none_without_a_warning(self, i, j):
        # inf + -inf is NaN: a NumPy trace warned here (an error under -W error).
        a = np.eye(4, dtype=complex) / 4.0
        a[i, i], a[j, j] = math.inf, -math.inf
        assert xstate.matrix_concurrence(a, 0.5) is None

    @pytest.mark.parametrize("tol", [1e308, math.inf])
    def test_a_nan_trace_of_finite_entries_gives_none(self, tol):
        # The trace is inf + -inf, and a NaN fails the trace test under any tol.
        a = np.diag([1.7e308, 1.7e308, -1e308, -1e308]).astype(complex)
        assert xstate.matrix_concurrence(a, tol) is None

    def test_the_trace_verdict_is_linalg_unit_trace(self, monkeypatch):
        # no second trace test: a pass of validate_density's one test lets trace 2 through
        monkeypatch.setattr(linalg, "_unit_trace", lambda d, tol: (linalg._trace(d), True))
        assert xstate.matrix_concurrence(np.eye(4, dtype=complex) / 2.0, 0.0) == 0.0

    def test_off_x_entries_decided_under_tol(self):
        tol = 1e-10
        above = math.nextafter(tol, 1.0)
        base = XMatrix(0.4, 0.1, 0.1, 0.4, c14=0.3, c23=0.05j).matrix()
        want = xstate.matrix_concurrence(base, tol)
        assert want == xstate.concurrence(x_record(base))
        for i in range(4):
            for j in range(4):
                if (i, j) in self.ON_X:
                    continue
                for value, inside in ((tol, True), (-1j * tol, True),
                                      (above, False), (1j * above, False)):
                    a = base.copy()
                    a[i, j] = value
                    assert xstate.matrix_concurrence(a, tol) == (want if inside else None)

    @pytest.mark.parametrize("tol", [0.0, 0.25, 2.0 ** -30])
    def test_trace_decided_under_tol_to_the_ulp(self, tol):
        # The trace sits on one diagonal entry, so the sum and |trace - 1| are exact.
        a = np.zeros((4, 4), dtype=complex)
        for edge, away in ((1.0 + tol, math.inf), (1.0 - tol, -math.inf)):
            for trace in (edge, math.nextafter(edge, 1.0)):
                a[0, 0] = trace
                assert xstate.matrix_concurrence(a, tol) == 0.0
            a[0, 0] = math.nextafter(edge, away)
            assert xstate.matrix_concurrence(a, tol) is None

    def test_trace_has_the_bits_of_numpys_complex_trace(self, rng):
        # At tol 0 the verdict is whether the sum is exactly 1, which for about
        # one draw in six depends on the order of the four additions.
        for _ in range(2000):
            a = np.diag(rng.dirichlet(np.ones(4))).astype(complex)
            assert (xstate.matrix_concurrence(a, 0.0) is None) is (complex(np.trace(a)) != 1.0)

    def test_real_array_reads_as_its_complex_cast(self, rng):
        for _ in range(200):
            x = XMatrix(*rng.dirichlet(np.ones(4)), c14=0.3 * rng.random(), c23=-0.3 * rng.random())
            a = x.matrix().real.copy()
            assert a.dtype == np.float64
            a[0, 1] = rng.choice([0.0, 1e-10, 2e-10])
            for tol in (0.0, 1e-10, 0.5):
                assert xstate.matrix_concurrence(a, tol) == xstate.matrix_concurrence(
                    a.astype(complex), tol)

    @pytest.mark.parametrize("a", [
        np.eye(2) / 2.0, np.eye(3) / 3.0, np.eye(8) / 8.0, np.eye(4).ravel() / 4.0,
        np.eye(4)[:, :3] / 3.0, np.eye(4)[..., None] / 4.0,
    ], ids=["2x2", "3x3", "8x8", "1-D", "4x3", "4x4x1"])
    def test_none_unless_4x4(self, a):
        for tol in (0.0, 1e-10, 0.5):
            assert xstate.matrix_concurrence(a, tol) is None


class TestZeroConcurrenceRegion:
    def test_equal_weights_entire_square(self, rng):
        for _ in range(50):
            params = XParams.symmetric(0.3, 0.3, random_unit_disc(rng), random_unit_disc(rng))
            assert closed_form_concurrence(params) == 0.0

    def test_inside_region(self):
        # |v1| = 0.5 <= 0.2/0.3 is false... the bounds are t2/t1 = 0.667 and t1/t2 = 1.5
        assert closed_form_concurrence(XParams.symmetric(0.3, 0.2, 0.5, 0.9)) == 0.0
        # On the boundary, t2 |v2| == t1 and t1 |v1| == t2 exactly.
        assert closed_form_concurrence(XParams.symmetric(0.25, 0.5, 0.5, 0.5)) == 0.0

    def test_outside_region(self):
        params = XParams.symmetric(0.1, 0.4, 0j, 0.5)
        assert closed_form_concurrence(params) > 0.0
        assert abs(closed_form_concurrence(params) - 0.2) < 1e-15
        # One ulp past the boundary.
        assert closed_form_concurrence(XParams.symmetric(0.25, 0.5, 0.5, 0.5000000000000001)) > 0.0

    def test_degenerate_weight(self):
        # t2 = 0: region collapses to v1 = 0
        assert closed_form_concurrence(XParams.symmetric(0.5, 0.0, 0j, 0.7)) == 0.0
        assert closed_form_concurrence(XParams.symmetric(0.5, 0.0, 0.1, 0j)) > 0.0

    def test_matches_concurrence(self, rng):
        for _ in range(2000):
            params = random_symmetric_params(rng, normalized=True)
            in_region = closed_form_concurrence(params) == 0.0
            conc = xstate.concurrence(xstate.product_state(params))
            assert in_region == (conc <= 1e-12)


class TestPptSeparabilityAgreement:
    def test_zero_concurrence_iff_ppt(self, rng):
        # PPT decides separability exactly for two qubits
        for _ in range(1000):
            params = random_symmetric_params(rng, normalized=True)
            rho = xstate.product_state(params).matrix()
            ppt = criteria.ppt_verdict(rho, (2, 2), 1e-12)
            conc = xstate.concurrence(xstate.product_state(params))
            assert ppt == (conc == 0.0)
