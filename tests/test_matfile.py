"""Unit tests for the JSON matrix file format."""

import json
import math
import random
import re
import sys

import numpy as np
import pytest

from xsep import matfile
from xsep.cli import main
from xsep.bipartite import BipartiteDims, partial_transpose
from xsep.errors import DimensionMismatch, MatrixFileError

from conftest import random_complex


def test_round_trip_exact(rng):
    a = random_complex(rng, 4)
    decoded, dims = matfile.decode(matfile.encode(a, (2, 2)))
    assert np.array_equal(decoded, a)
    assert dims == BipartiteDims(2, 2)


def test_round_trip_without_dims(rng):
    a = random_complex(rng, 3)
    decoded, dims = matfile.decode(matfile.encode(a))
    assert np.array_equal(decoded, a)
    assert dims is None


def test_encode_is_canonical(rng):
    a = random_complex(rng, 4)
    text = matfile.encode(a, (2, 2))
    assert matfile.encode(*matfile.decode(text)) == text


def test_encode_matches_per_entry_json_dumps():
    values = [-0.0, 5e-324, 1e308, 1.0, 0.1 + 0.2, math.inf, -math.inf, math.nan, 0.0]
    a = np.array(values, dtype=complex).reshape(3, 3)
    a.imag = np.array(values[::-1]).reshape(3, 3)
    rows = [
        "    [" + ", ".join(
            f"[{json.dumps(float(a[i, j].real))}, {json.dumps(float(a[i, j].imag))}]"
            for j in range(3)
        ) + "]"
        for i in range(3)
    ]
    want = '{\n  "dim": 3,\n  "entries": [\n' + ",\n".join(rows) + "\n  ]\n}\n"
    assert matfile.encode(a) == want
    assert "[-0.0, 0.0], [5e-324, NaN], [1e+308, -Infinity]" in want


def test_parse_error_carries_offset():
    with pytest.raises(MatrixFileError) as err:
        matfile.decode('{"dim": 2, "entries": [[[1, 0], [0, 0]],')
    assert err.value.offset is not None
    assert "byte offset" in str(err.value)


def test_parse_error_offset_counts_utf8_bytes():
    # four 2-byte characters come before the error: JSONDecodeError.pos is 4 short
    text = '{"dim": 1, "note": "\u00e9\u00e9\u00e9\u00e9", "entries": [[[1, 0]]],}'
    at = len(text.encode("utf-8")) - 1
    with pytest.raises(MatrixFileError) as err:
        matfile.decode(text)
    assert err.value.offset == at == len(text) - 1 + 4
    assert str(err.value).startswith(f"invalid JSON at byte offset {at}: ")


def test_load_offsets_are_the_files_bytes(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b'{"dim": 1,\r\n "entries": [[[1, 0]]],\r\n}')
    with pytest.raises(MatrixFileError, match="byte offset 37: ") as err:
        matfile.load(str(path))
    assert err.value.offset == 37
    path.write_bytes(b'{"dim": 1, "note": "\xff", "entries": [[[1, 0]]]}')
    with pytest.raises(MatrixFileError) as err:
        matfile.load(str(path))
    assert str(err.value) == "not UTF-8 at byte offset 20: invalid start byte"
    assert err.value.offset == 20


def test_over_nested_json_is_a_matrix_file_error():
    with pytest.raises(MatrixFileError, match="^JSON nests too deeply to parse$"):
        matfile.decode('{"dim": 1, "entries": ' + "[" * 200_000 + "]" * 200_000 + "}")


def test_signed_zeros_round_trip_byte_for_byte(tmp_path):
    a = np.array([[complex(-0.0, 0.0), complex(1.0, -0.0), 0.5j, complex(-0.0, -0.0)]] * 4)
    a[2, 1] = complex(0.0, -0.0)
    text = matfile.encode(a, (2, 2))
    assert "[-0.0, 0.0]" in text and "[1.0, -0.0]" in text and "[0.0, -0.0]" in text
    decoded, _ = matfile.decode(text)
    assert matfile.encode(decoded, (2, 2)) == text
    src, out = tmp_path / "m.json", tmp_path / "pt.json"
    src.write_text(text)
    assert main(["pt", str(src), "--out", str(out)]) == 0
    assert out.read_text() == matfile.encode(partial_transpose(a, (2, 2)), (2, 2))
    assert out.read_text().count("-0.0") == text.count("-0.0")


def test_shape_mismatch():
    with pytest.raises(MatrixFileError, match="pairs"):
        matfile.decode('{"dim": 2, "entries": [[[1, 0]], [[0, 0]]]}')


def test_rejects_non_finite():
    with pytest.raises(MatrixFileError, match="non-finite"):
        matfile.decode('{"dim": 1, "entries": [[[Infinity, 0]]]}')


def test_rejects_bad_dims():
    with pytest.raises(MatrixFileError, match="factor"):
        matfile.decode('{"dim": 4, "dims": [2, 3], "entries": '
                       '[[[0,0],[0,0],[0,0],[0,0]],[[0,0],[0,0],[0,0],[0,0]],'
                       '[[0,0],[0,0],[0,0],[0,0]],[[0,0],[0,0],[0,0],[0,0]]]}')


@pytest.mark.parametrize("dims", [[1, 4], [-2, -2]])
def test_rejects_dims_that_are_not_a_split(dims):
    # they factor dim 4, but BipartiteDims takes no dimension below 2
    text = json.dumps({"dim": 4, "dims": dims, "entries": [[[0, 0]] * 4] * 4})
    with pytest.raises(MatrixFileError, match=rf"^dims \{dims}: .*>= 2"):
        matfile.decode(text)


def test_encode_rejects_dims_that_do_not_fit():
    with pytest.raises(DimensionMismatch, match=r"is 9x9, got shape \(4, 4\)$"):
        matfile.encode(np.eye(4), (3, 3))


@pytest.mark.parametrize("shape", [(2, 3), (3,), (0, 0), (2, 2, 2)])
def test_encode_and_save_write_only_a_square_matrix(tmp_path, shape):
    # Without dims, such an array was written with "dim" set to its first
    # axis, a text that `decode` then rejects.
    message = rf"^a matrix file holds a square matrix, got shape {re.escape(str(shape))}$"
    with pytest.raises(DimensionMismatch, match=message):
        matfile.encode(np.zeros(shape))
    path = tmp_path / "m.json"
    with pytest.raises(DimensionMismatch, match=message):
        matfile.save(str(path), np.zeros(shape))
    assert not path.exists()


@pytest.mark.parametrize("text, kinds", [
    ('{"dim": 1, "entries": [[["1", "2"]]]}', "str"),
    ('{"dim": 1, "entries": [[[true, 0]]]}', "bool"),
    ('{"dim": 2, "entries": [[[1, 0], [0, "0"]], [[0, 0], [false, 0]]]}', "bool, str"),
])
def test_rejects_strings_and_booleans_as_numbers(text, kinds):
    # NumPy reads "1" and true as the number 1.0.
    with pytest.raises(MatrixFileError, match=f"entries must be JSON numbers, got {kinds}$"):
        matfile.decode(text)


def test_rejects_booleans_as_integers():
    with pytest.raises(MatrixFileError, match="dim must be a positive integer, got True"):
        matfile.decode('{"dim": true, "entries": [[[1, 0]]]}')
    with pytest.raises(MatrixFileError, match="dims must be a pair of integers"):
        matfile.decode('{"dim": 1, "dims": [true, 1], "entries": [[[1, 0]]]}')


@pytest.mark.parametrize("dim", [0, -1])
def test_rejects_a_dim_below_one(dim):
    with pytest.raises(MatrixFileError, match=f"^dim must be a positive integer, got {dim}$"):
        matfile.decode(f'{{"dim": {dim}, "entries": []}}')


def test_encode_writes_every_part_as_a_float():
    # An int array, and a nested list, are written as the complex matrix they hold.
    want = '{\n  "dim": 2,\n  "entries": [\n    [[1.0, 0.0], [0.0, 0.0]],\n    [[0.0, 0.0], [1.0, 0.0]]\n  ]\n}\n'
    assert matfile.encode(np.eye(2, dtype=int)) == want
    assert matfile.encode([[1, 0], [0, 1]]) == want


def test_rejects_an_integer_past_the_float_range():
    with pytest.raises(MatrixFileError, match="int too large to convert to float"):
        matfile.decode('{"dim": 1, "entries": [[[1' + "0" * 400 + ', 0]]]}')


def test_string_entries_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "entries": [[["1", "2"]]]}')
    assert main(["pt", str(bad)]) == 2
    assert "entries must be JSON numbers, got str" in capsys.readouterr().err


def test_missing_key():
    with pytest.raises(MatrixFileError, match="entries"):
        matfile.decode('{"dim": 2}')


def test_file_io(tmp_path, rng):
    a = random_complex(rng, 4)
    path = tmp_path / "m.json"
    matfile.save(str(path), a, (2, 2))
    loaded, dims = matfile.load(str(path))
    assert np.array_equal(loaded, a)
    assert dims == BipartiteDims(2, 2)


class TestFormatFloat:
    def test_goldens(self):
        assert matfile.format_float(2.0 ** 11 / 9.0) == "227.555555555556"
        assert matfile.format_float(1.0) == "1.000000000000"
        assert matfile.format_float(0.0) == "0.000000000000"
        assert matfile.format_float(-0.0) == "0.000000000000"

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_is_its_repr(self, x):
        assert matfile.format_float(x) == repr(x)

    def test_scientific_fallback_is_lowercase(self):
        assert "e" in matfile.format_float(3.5e-17)
        assert matfile.format_float(2.5e-17) == "2.500000000000e-17"

    @staticmethod
    def reference(x: float) -> str:
        """The format as its docstring states it: %-formatting, its range tested on |x|."""
        if x == 0.0:
            return "0.000000000000"
        if math.isnan(x) or math.isinf(x):
            return repr(x)
        return ("%.12f" if 1e-4 <= math.fabs(x) < 1e16 else "%.12e") % x

    def test_matches_the_reference_at_the_range_edges(self):
        edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                 sys.float_info.max, -sys.float_info.max]
        for edge in (1e-4, 1e16):
            for x in (edge, -edge):
                edges += [x, math.nextafter(x, 0.0), math.nextafter(x, math.copysign(math.inf, x))]
        for x in edges:
            assert matfile.format_float(x) == self.reference(x), x.hex()

    def test_matches_the_reference_on_random_floats(self):
        # Decimal exponents from -330 to 330 reach past both ends of the
        # doubles, so zeros, subnormals and infinities are drawn too.
        rng = random.Random(34)
        for _ in range(10_000):
            x = float(f"{rng.choice('+-')}{rng.uniform(1.0, 10.0)!r}e{rng.randint(-330, 330)}")
            assert matfile.format_float(x) == self.reference(x), x.hex()
