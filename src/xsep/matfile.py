"""JSON matrix files: explicit dimension, optional subsystem split, [re, im] entries.

Example:

    {
      "dim": 2,
      "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    }

Serialization is canonical (fixed key order, one entry pair per line), so
re-encoding a decoded file is byte-stable and diffs stay readable.
`encode` and `decode` import NumPy when called, not at module level: the
CLI imports this module for every subcommand, `sweep` included, which runs
without NumPy.
"""

from __future__ import annotations

import json
from itertools import chain

from . import bipartite
from .bipartite import BipartiteDims
from .errors import DimensionMismatch, InvalidParams, MatrixFileError
from .forms import format_float  # bench/tracer.py looks it up here


def encode(a: np.ndarray, dims: BipartiteDims | tuple[int, int] | None = None) -> str:
    """The canonical file text of a square matrix a; a given dims must fit it (`_square`)."""
    import numpy as np

    a = np.asarray(a, dtype=complex)
    if dims is not None:
        a, dims = bipartite._square(a, dims)
    elif a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionMismatch(f"a matrix file holds a square matrix, got shape {a.shape}")
    lines = ['{', f'  "dim": {a.shape[0]},']
    if dims is not None:
        lines.append(f'  "dims": [{dims.m}, {dims.n}],')
    lines.append('  "entries": [')
    # One json.dumps per row: its C encoder writes each float as float.__repr__
    # (Infinity and NaN past the finite range), with ", " between items.
    lines.append(",\n".join(
        "    " + json.dumps([[z.real, z.imag] for z in row]) for row in a.tolist()
    ))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def decode(text: str) -> tuple[np.ndarray, BipartiteDims | None]:
    """Parse a matrix file; MatrixFileError on bad input, on bad JSON with its UTF-8 byte offset."""
    import numpy as np

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        at = len(text[:e.pos].encode("utf-8", "surrogatepass"))
        raise MatrixFileError(f"invalid JSON at byte offset {at}: {e.msg}", offset=at) from e
    except RecursionError as e:
        raise MatrixFileError("JSON nests too deeply to parse") from e
    if not isinstance(doc, dict):
        raise MatrixFileError("top-level value must be an object")
    try:
        d = doc["dim"]
        entries = doc["entries"]
    except KeyError as e:
        raise MatrixFileError(f"missing required key {e.args[0]!r}") from e
    # JSON true and false decode to bool, a subclass of int.
    if type(d) is not int or d < 1:
        raise MatrixFileError(f"dim must be a positive integer, got {d!r}")
    # An integer literal past the float range raises OverflowError.
    try:
        arr = np.array(entries, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise MatrixFileError(f"entries are not numeric pairs: {e}") from e
    if arr.shape != (d, d, 2):
        raise MatrixFileError(f"entries must be a {d}x{d} array of [re, im] pairs, "
                              f"got shape {arr.shape}")
    # NumPy would read "1" as 1.0 and true as 1.0.
    kinds = set(map(type, chain.from_iterable(chain.from_iterable(entries)))) - {int, float}
    if kinds:
        raise MatrixFileError("entries must be JSON numbers, got "
                              + ", ".join(sorted(k.__name__ for k in kinds)))
    if not np.all(np.isfinite(arr)):
        raise MatrixFileError("entries contain non-finite numbers")
    matrix = arr.view(complex)[..., 0]  # each part keeps its bits, a zero its sign
    dims = None
    if (raw := doc.get("dims")) is not None:
        if not (isinstance(raw, list) and len(raw) == 2 and all(type(x) is int for x in raw)):
            raise MatrixFileError(f"dims must be a pair of integers, got {raw!r}")
        if raw[0] * raw[1] != d:
            raise MatrixFileError(f"dims {raw} do not factor dim {d}")
        try:
            dims = BipartiteDims(raw[0], raw[1])
        except InvalidParams as e:
            raise MatrixFileError(f"dims {raw}: {e}") from e
    return matrix, dims


def load(path: str) -> tuple[np.ndarray, BipartiteDims | None]:
    """`decode` of the file's bytes as UTF-8; MatrixFileError at the first byte that is not."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise MatrixFileError(f"not UTF-8 at byte offset {e.start}: {e.reason}",
                              offset=e.start) from e
    return decode(text)


def save(path: str, a: np.ndarray, dims: BipartiteDims | tuple[int, int] | None = None) -> None:
    text = encode(a, dims)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
