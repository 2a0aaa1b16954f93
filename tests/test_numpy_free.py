"""`import xsep` and `xsep sweep` run without NumPy.

Each check runs in a fresh interpreter, since this one has NumPy loaded.
One watches `sys.modules` after `import xsep`, after a sweep and after the
first use of a NumPy-backed name, which imports it; one lists
the imports of `python -m xsep sweep`; one makes `import numpy` fail and
reproduces every sweep digest of `bench/golden_sweep.json` and the exit
codes of bad sweep input.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import xsep

GOLDEN_SWEEP = Path(__file__).resolve().parents[1] / "bench" / "golden_sweep.json"

WATCH = """
import contextlib, io, json, sys
seen = {}
import xsep
seen["import xsep"] = "numpy" in sys.modules
xsep.XsepError, xsep.XParams, xsep.DEFAULT_TOL, xsep.forms.format_float
seen["NumPy-free names"] = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = xsep.cli.main(["sweep", "--grid", "101"])
seen["sweep --grid 101"] = "numpy" in sys.modules
xsep.validate_density
seen["a NumPy-backed name"] = "numpy" in sys.modules
print(json.dumps({"code": code, "numpy": seen}))
"""

BLOCKED = """
import contextlib, hashlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from xsep.cli import main

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()

argvs, bad = json.loads(sys.stdin.read())
print(json.dumps({"digests": {a: run(a.split()) for a in argvs},
                  "codes": {a: run(a.split())[0] for a in bad}}))
"""


def _python(args, stdin=""):
    src = os.path.dirname(os.path.dirname(xsep.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def _golden():
    return json.loads(GOLDEN_SWEEP.read_text())["sha256"]


def test_import_and_sweep_leave_numpy_unimported():
    result = json.loads(_python(["-c", WATCH]).stdout)
    assert result == {"code": 0, "numpy": {"import xsep": False, "NumPy-free names": False,
                                            "sweep --grid 101": False,
                                            "a NumPy-backed name": True}}


def test_python_m_xsep_sweep_imports_no_numpy():
    argv = "sweep --grid 101 --phase1 0.3 --phase2 1.1"
    proc = _python(["-X", "importtime", "-m", "xsep", *argv.split()])
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "xsep.cli" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == _golden()[argv]


def test_sweep_without_numpy_reproduces_every_golden_digest_and_exit_code():
    golden = _golden()
    bad = ["sweep --grid 1", "sweep --t1 -1", "sweep --t1 nan"]
    result = json.loads(_python(["-c", BLOCKED], json.dumps([list(golden), bad])).stdout)
    assert len(result["digests"]) == len(golden) == 53
    assert result["digests"] == {argv: [0, digest] for argv, digest in golden.items()}
    assert result["codes"] == {argv: 3 for argv in bad}
