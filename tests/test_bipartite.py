"""Unit tests for partial transposition and the block convention."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xsep import bipartite, criteria, linalg, matfile, xstate
from xsep.bipartite import BipartiteDims, partial_transpose
from xsep.errors import DimensionMismatch, InvalidParams

from conftest import random_complex, random_hermitian

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


@st.composite
def square_matrices(draw, d=4):
    re = draw(st.lists(finite, min_size=d * d, max_size=d * d))
    im = draw(st.lists(finite, min_size=d * d, max_size=d * d))
    return (np.array(re) + 1j * np.array(im)).reshape(d, d)


class TestDims:
    def test_rejects_small_subsystems(self):
        with pytest.raises(InvalidParams):
            BipartiteDims(1, 4)
        with pytest.raises(InvalidParams):
            BipartiteDims(2, 1)

    def test_rejects_mismatched_matrix(self):
        with pytest.raises(DimensionMismatch):
            partial_transpose(np.eye(4, dtype=complex), (2, 3))

    @pytest.mark.parametrize("a", [np.ones((2, 3)), np.ones(6), np.eye(4)],
                             ids=["not-square", "one-dimensional", "wrong-order"])
    @pytest.mark.parametrize("operator", [partial_transpose, criteria.validate_density,
                                          matfile.encode])
    def test_every_misfit_gets_the_one_split_message(self, operator, a):
        message = f"a matrix on 2x3 subsystems is 6x6, got shape {a.shape}"
        with pytest.raises(DimensionMismatch) as err:
            operator(a, (2, 3))
        assert str(err.value) == message

    def test_total(self):
        assert BipartiteDims(2, 3).total == 6

    @pytest.mark.parametrize("dims", [(2.7, 2), (2, 2.0), ("2", 2), (2, None)])
    def test_rejects_non_integers(self, dims):
        with pytest.raises(InvalidParams, match="must be integers"):
            BipartiteDims.of(dims)
        with pytest.raises(InvalidParams, match="must be integers"):
            BipartiteDims(*dims)

    @pytest.mark.parametrize("dims", [(2,), (2, 2, 2), None, 4])
    def test_rejects_anything_but_a_pair(self, dims):
        with pytest.raises(InvalidParams, match="must be a pair"):
            BipartiteDims.of(dims)

    def test_non_integer_dims_do_not_truncate(self):
        with pytest.raises(InvalidParams, match="must be integers"):
            partial_transpose(np.eye(4), (2.9, 2.2))

    def test_accepts_numpy_integers_as_int(self):
        dims = BipartiteDims.of((np.int64(2), np.int32(3)))
        assert dims == BipartiteDims(2, 3)
        assert type(dims.m) is int and type(dims.n) is int


class TestPartialTranspose:
    def test_identity_fixed_point(self):
        eye = np.eye(4, dtype=complex) / 4.0
        assert np.array_equal(partial_transpose(eye, (2, 2)), eye)

    def test_index_convention_reference(self):
        # independent reference: result[(i,j),(k,l)] = a[(i,l),(k,j)]
        a = np.arange(16, dtype=complex).reshape(4, 4)
        expected = np.array(
            [[0, 4, 2, 6], [1, 5, 3, 7], [8, 12, 10, 14], [9, 13, 11, 15]],
            dtype=complex,
        )
        assert np.array_equal(partial_transpose(a, (2, 2)), expected)

    def test_x_product_swaps_amplitudes(self):
        # corners pick up t2*v2, inner entries t1*v1
        params = xstate.XParams.symmetric(0.3, 0.2, 0.5, 0.4j)
        pair = xstate.build_factors(params)
        pt_prod = partial_transpose(linalg.mul(pair.p1, pair.p2), (2, 2))
        assert pt_prod[0, 3] == params.t2 * params.v2
        assert pt_prod[3, 0] == params.t2 * np.conj(params.v2)
        assert pt_prod[1, 2] == params.t1 * params.v1
        assert pt_prod[2, 1] == params.t1 * np.conj(params.v1)

    def test_unit_diagonal_factor_swap(self):
        pair = xstate.build_factors(xstate.XParams(1, 1, 1, 1, 0.5, 0.3j))
        swapped = partial_transpose(pair.p2, (2, 2))
        assert swapped[0, 3] == 0.3j
        assert swapped[1, 2] == 0.5
        assert swapped[2, 1] == np.conj(0.5 + 0j)
        assert swapped[3, 0] == np.conj(0.3j)

    def test_block_convention(self, rng):
        # [[A, B], [B^dagger, C]] maps to [[A^T, B^T], [(B^dagger)^T, C^T]]
        a = random_hermitian(rng, 2)
        b = random_complex(rng, 2)
        c = random_hermitian(rng, 2)
        m = np.block([[a, b], [b.conj().T, c]])
        expected = np.block([[a.T, b.T], [b.conj(), c.T]])
        assert np.array_equal(partial_transpose(m, (2, 2)), expected)

    @settings(max_examples=40)
    @given(square_matrices())
    def test_involution(self, m):
        assert np.array_equal(partial_transpose(partial_transpose(m, (2, 2)), (2, 2)), m)

    @settings(max_examples=40)
    @given(square_matrices())
    def test_trace_preserved(self, m):
        assert linalg.trace(partial_transpose(m, (2, 2))) == linalg.trace(m)

    @settings(max_examples=40)
    @given(square_matrices())
    def test_hermiticity_preserved(self, m):
        h = m + m.conj().T
        pt = partial_transpose(h, (2, 2))
        assert np.array_equal(pt, pt.conj().T)

    @settings(max_examples=25)
    @given(square_matrices(), square_matrices(),
           st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
           st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
    def test_linearity(self, a, b, alpha, beta):
        lhs = partial_transpose(alpha * a + beta * b, (2, 2))
        rhs = alpha * partial_transpose(a, (2, 2)) + beta * partial_transpose(b, (2, 2))
        assert np.array_equal(lhs, rhs)


class TestPtFirst:
    """The partial transpose over the first subsystem, `partial_transpose(a, dims).T`."""

    def test_composition_with_global_transpose(self, rng):
        # the two one-sided transpositions compose to the global one, so the
        # first-subsystem transpose is transpose . partial_transpose ==
        # partial_transpose . transpose; checked entrywise by direct index enumeration
        for dims in ((2, 2), (2, 3), (3, 2)):
            d = dims[0] * dims[1]
            a = random_complex(rng, d)
            got = partial_transpose(a, dims).T
            assert np.array_equal(got, partial_transpose(a.T, dims))
            m, n = dims
            for i in range(m):
                for j in range(n):
                    for k in range(m):
                        for l in range(n):
                            assert got[i * n + j, k * n + l] == a[k * n + j, i * n + l]

    def test_spectrum_matches_second_subsystem_pt(self, rng):
        # both variants are similar via the global transpose
        for _ in range(10):
            h = random_hermitian(rng, 6)
            w1 = linalg.hermitian_eigenvalues(partial_transpose(h, (2, 3)).T)
            w2 = linalg.hermitian_eigenvalues(partial_transpose(h, (2, 3)))
            assert np.max(np.abs(w1 - w2)) < 1e-10


def reshape_transpose(a, dims, first):
    """The reference: a (m, n, m, n) view with its block axes swapped, back to a matrix."""
    m, n = dims
    axes = (2, 1, 0, 3) if first else (0, 3, 2, 1)
    return np.asarray(a, dtype=complex).reshape(m, n, m, n).transpose(axes).reshape(m * n, m * n)


class TestCachedPermutation:
    DIMS = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 4))

    @staticmethod
    def layouts(a):
        """The same matrix C-ordered, Fortran-ordered, as a strided view, real and as nested lists."""
        wide = np.zeros((len(a), 2 * len(a)), dtype=complex)
        wide[:, ::2] = a
        return {
            "C": a,
            "Fortran": np.asfortranarray(a),
            "strided": wide[:, ::2],
            "real": a.real.copy(),
            "lists": a.tolist(),
        }

    @pytest.mark.parametrize("first", [False, True], ids=["second", "first"])
    def test_matches_reshape_transpose_on_every_layout(self, rng, first):
        # Over the first subsystem the operator is partial_transpose(a, dims).T.
        op = (lambda a, dims: partial_transpose(a, dims).T) if first else partial_transpose
        for dims in self.DIMS:
            a = random_complex(rng, dims[0] * dims[1])
            for name, x in self.layouts(a).items():
                got = op(x, dims)
                ref = reshape_transpose(x, dims, first)
                assert got.dtype == complex and got.shape == ref.shape, name
                assert got.tobytes() == np.ascontiguousarray(ref).tobytes(), name
                if isinstance(x, np.ndarray):
                    assert not np.shares_memory(got, x), name

    def test_cached_permutation_is_read_only(self):
        # It is shared by every later call with the same split.
        perm = bipartite._permutation(2, 2)
        with pytest.raises(ValueError, match="read-only"):
            perm[0, 0] = 1

    def test_result_is_fresh_and_writable(self, rng):
        a = random_complex(rng, 4)
        c = a.astype(complex)
        got = partial_transpose(c, (2, 2))
        got[0, 0] = 99.0
        assert np.array_equal(c, a)
        assert partial_transpose(c, (2, 2))[0, 0] == a[0, 0]

    def test_row_list_takes_the_same_permutation(self, rng):
        for dims in self.DIMS:
            d = dims[0] * dims[1]
            a = random_hermitian(rng, d) * (rng.random((d, d)) < 0.5)
            rows = bipartite._transposed_rows(a.tolist(), BipartiteDims.of(dims))
            assert np.array(rows).tobytes() == partial_transpose(a, dims).tobytes()
