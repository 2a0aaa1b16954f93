"""Partial transposition on bipartite m x n spaces.

The convention throughout the package: view a (m*n) x (m*n) matrix as an
m x m grid of n x n blocks, with the first-subsystem indices selecting the
block. `partial_transpose` transposes every block in place and never
permutes blocks, i.e. it transposes over the second subsystem:

    result[(i,j), (k,l)] = a[(i,l), (k,j)]

It is a pure entry permutation, defined for any square matrix whose
dimension factors as m*n (not only density matrices). The transpose over
the first subsystem is `partial_transpose(a, dims).T`, since the two
one-sided transpositions compose to the global one. `_square` is the one
test that a matrix fits its split, asked by `partial_transpose`, by
`criteria.validate_density` and by `matfile.encode`. Each (m, n) has one
flat permutation, built once and cached: `partial_transpose` is one `take`
of it, which makes the one copy of the result, and `_transposed_rows`
applies the same permutation to a row list. NumPy is imported by the
functions that use it, not at module level: the CLI imports this module for
every subcommand, `sweep` included, which runs without NumPy.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

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
        try:
            m, n = dims
        except (TypeError, ValueError):
            raise InvalidParams(f"subsystem dimensions must be a pair, got {dims!r}") from None
        return cls(m, n)


def _square(a: np.ndarray, dims) -> tuple[np.ndarray, BipartiteDims]:
    """a as a complex array and dims as BipartiteDims; DimensionMismatch unless a is mn x mn."""
    import numpy as np

    dims = BipartiteDims.of(dims)
    a = np.asarray(a, dtype=complex)
    t = dims.total
    if a.shape != (t, t):
        raise DimensionMismatch(
            f"a matrix on {dims.m}x{dims.n} subsystems is {t}x{t}, got shape {a.shape}"
        )
    return a, dims


@functools.lru_cache(maxsize=64)
def _permutation(m: int, n: int) -> np.ndarray:
    """Flat source index of each entry of the partial transpose, as a read-only (mn, mn) array."""
    import numpy as np

    perm = np.arange((m * n) ** 2).reshape(m, n, m, n).transpose(0, 3, 2, 1).reshape(m * n, m * n)
    perm.flags.writeable = False
    return perm


@functools.lru_cache(maxsize=64)
def _row_getters(m: int, n: int) -> list[operator.itemgetter]:
    """One itemgetter per row of `_permutation(m, n)`, for a flat row list."""
    return [operator.itemgetter(*row) for row in _permutation(m, n).tolist()]


def partial_transpose(a: np.ndarray, dims) -> np.ndarray:
    """Transpose each n x n block in place (transposition over the second subsystem)."""
    a, dims = _square(a, dims)
    return a.take(_permutation(dims.m, dims.n))


def _transposed_rows(rows: list[list[complex]], dims: BipartiteDims) -> list[tuple[complex, ...]]:
    """`partial_transpose` of a (dims.total)-square row list, as rows (tuples); not checked."""
    flat = [z for row in rows for z in row]
    return [get(flat) for get in _row_getters(dims.m, dims.n)]

