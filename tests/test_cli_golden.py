"""Byte-exact stdout, stderr and exit code of the CLI on a fixed set of argv.

The expected outputs in `data/cli_golden/cli_golden.json` were recorded once
from `cli.main` on the input files next to it; `{data}` in an argv stands for
that directory. Refactors of the CLI or the library must leave every case
unchanged.
"""

import json
from pathlib import Path

import pytest

from xsep.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden"
CASES = json.loads((DATA / "cli_golden.json").read_text())["cases"]


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_output_is_byte_identical(case, capsys):
    argv = [arg.replace("{data}", str(DATA)) for arg in case["argv"]]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])
