"""Partial transposition on bipartite m x n spaces.

The convention throughout the package: view a (m*n) x (m*n) matrix as an
m x m grid of n x n blocks, with the first-subsystem indices selecting the
block. `partial_transpose` transposes every block in place and never
permutes blocks, i.e. it transposes over the second subsystem:

    result[(i,j), (k,l)] = a[(i,l), (k,j)]

`pt_first` is the complementary operator over the first subsystem.
Both are pure entry permutations, defined for any square matrix whose
dimension factors as m*n (not only density matrices).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParams


@dataclass(frozen=True)
class BipartiteDims:
    """Subsystem dimensions (m, n) of an m (x) n bipartite space.

    Python and NumPy integers (anything with `__index__`) are accepted and
    stored as int; anything else, a float of integral value included,
    raises InvalidParams.
    """

    m: int
    n: int

    def __post_init__(self):
        try:
            m, n = operator.index(self.m), operator.index(self.n)
        except TypeError:
            raise InvalidParams("subsystem dimensions must be integers") from None
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        if self.m < 2 or self.n < 2:
            raise InvalidParams(
                f"subsystem dimensions must be >= 2, got ({self.m}, {self.n})"
            )

    @property
    def total(self) -> int:
        return self.m * self.n

    @classmethod
    def of(cls, dims: "BipartiteDims | tuple[int, int]") -> "BipartiteDims":
        if isinstance(dims, BipartiteDims):
            return dims
        m, n = dims
        return cls(m, n)


def _blocks(a: np.ndarray, dims) -> tuple[np.ndarray, BipartiteDims]:
    dims = BipartiteDims.of(dims)
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] != dims.total:
        raise DimensionMismatch(
            f"matrix dimension {a.shape[0]} does not match "
            f"{dims.m}x{dims.n} subsystems"
        )
    return a.reshape(dims.m, dims.n, dims.m, dims.n), dims


def partial_transpose(a: np.ndarray, dims) -> np.ndarray:
    """Transpose each n x n block in place (transposition over the second subsystem)."""
    grid, dims = _blocks(a, dims)
    return grid.transpose(0, 3, 2, 1).reshape(dims.total, dims.total).copy()


def pt_first(a: np.ndarray, dims) -> np.ndarray:
    """Partial transpose over the first subsystem.

    The two one-sided transpositions compose to the global transpose, so
    this equals transpose(partial_transpose(a)) and partial_transpose(transpose(a)).
    """
    grid, dims = _blocks(a, dims)
    return grid.transpose(2, 1, 0, 3).reshape(dims.total, dims.total).copy()
