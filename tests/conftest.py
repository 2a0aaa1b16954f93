import numpy as np
import pytest

from xsep.xstate import XMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_hermitian(rng, d):
    g = random_complex(rng, d)
    return g + g.conj().T


def random_unit_disc(rng):
    """A complex number with |z| <= 1, radius and phase uniform."""
    return rng.random() * np.exp(2j * np.pi * rng.random())


def random_x_matrix(rng):
    """A random Hermitian X-shaped 4x4 array (dense form, not the dataclass)."""
    diag = rng.random(4)
    c14 = random_unit_disc(rng) * np.sqrt(diag[0] * diag[3])
    c23 = random_unit_disc(rng) * np.sqrt(diag[1] * diag[2])
    m = np.diag(diag.astype(complex))
    m[0, 3] = c14
    m[3, 0] = np.conj(c14)
    m[1, 2] = c23
    m[2, 1] = np.conj(c23)
    return m


def x_record(m):
    """The XMatrix of the X-shaped 4x4 array m, built from its diagonal and upper corners."""
    return XMatrix(*(m[k, k].real for k in range(4)), c14=m[0, 3], c23=m[1, 2])


def block_spectrum(d_hi, d_lo, corner):
    """Closed-form eigenvalues of [[d_hi, corner], [conj(corner), d_lo]]."""
    mean = 0.5 * (d_hi + d_lo)
    rad = np.sqrt((0.5 * (d_hi - d_lo)) ** 2 + abs(corner) ** 2)
    return mean + rad, mean - rad


# A fixed dense unitary, the Householder reflection I - 2 v v^H / |v|^2.
_V = np.array([1.0, 2.0j, -1.5, 0.5 + 1.0j])
DENSE_UNITARY = np.eye(4) - 2.0 * np.outer(_V, _V.conj()) / np.vdot(_V, _V).real


def densify(m):
    """U m U^H for the dense unitary U: the spectrum of m, with no zero entry.

    The eigensolver then finds a single block and runs its dense solver,
    Householder tridiagonalization and implicit QL, on the whole matrix
    instead of the closed form it uses on the 2x2 blocks of an X matrix.
    """
    dense = DENSE_UNITARY @ m @ DENSE_UNITARY.conj().T
    assert np.all(dense != 0)
    return dense


def x_spectrum_oracle(m):
    """All four eigenvalues of a dense X matrix from its two 2x2 blocks."""
    out = block_spectrum(m[0, 0].real, m[3, 3].real, m[0, 3])
    inner = block_spectrum(m[1, 1].real, m[2, 2].real, m[1, 2])
    return np.sort(np.array(out + inner))[::-1]
