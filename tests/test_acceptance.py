"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.
"""

import functools
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

import xsep
from xsep import criteria, linalg, xstate
from xsep.bipartite import partial_transpose
from xsep.xstate import XParams

DIMS22 = (2, 2)


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {name}")
                raise
            print(f"[PASS] criterion {num}: {name}")
        return wrapper
    return deco


def random_amplitude(rng):
    return rng.random() * np.exp(2j * np.pi * rng.random())


@criterion(1, "gap spectrum matches {+-(t2-t1)|v1|, +-(t2-t1)|v2|} on 1000 draws in < 1 s")
def test_criterion_01_gap_spectrum():
    rng = np.random.default_rng(1)
    draws = []
    for _ in range(1000):
        t1, t2 = rng.random(), rng.random()
        draws.append((t1, t2, random_amplitude(rng), random_amplitude(rng)))
    start = time.perf_counter()
    for t1, t2, v1, v2 in draws:
        pair = xstate.build_factors(XParams.symmetric(t1, t2, v1, v2))
        gap = criteria.pt_gap(pair.p1, pair.p2, DIMS22)
        w = linalg.hermitian_eigenvalues(gap)
        r = t2 - t1
        expected = np.sort([r * abs(v1), -r * abs(v1), r * abs(v2), -r * abs(v2)])[::-1]
        assert np.max(np.abs(w - expected)) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f} s"


@criterion(2, "equal weights: gap norm <= 1e-14 and both sides equal the shared matrix")
def test_criterion_02_equality_locus():
    rng = np.random.default_rng(2)
    for _ in range(100):
        v1, v2 = random_amplitude(rng), random_amplitude(rng)
        pair = xstate.build_factors(XParams.symmetric(0.25, 0.25, v1, v2))
        gap = criteria.pt_gap(pair.p1, pair.p2, DIMS22)
        assert linalg.frobenius_norm(gap) <= 1e-14
        delta = np.zeros((4, 4), dtype=complex)
        np.fill_diagonal(delta, 0.25)
        delta[0, 3], delta[3, 0] = 0.25 * v2, 0.25 * np.conj(v2)
        delta[1, 2], delta[2, 1] = 0.25 * v1, 0.25 * np.conj(v1)
        lhs = partial_transpose(linalg.mul(pair.p1, pair.p2), DIMS22)
        rhs = linalg.mul(partial_transpose(pair.p1, DIMS22),
                         partial_transpose(pair.p2, DIMS22))
        assert np.max(np.abs(lhs - delta)) <= 1e-14
        assert np.max(np.abs(rhs - delta)) <= 1e-14


@criterion(3, "symmetric product is Hermitian PSD with spectrum {t1(1+-|v1|), t2(1+-|v2|)}")
def test_criterion_03_product_spectrum():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        t1, t2 = rng.random(), rng.random()
        v1, v2 = random_amplitude(rng), random_amplitude(rng)
        pair = xstate.build_factors(XParams.symmetric(t1, t2, v1, v2))
        prod = linalg.mul(pair.p1, pair.p2)
        defect, _ = linalg.hermiticity_defect(prod)
        assert defect <= 1e-14
        w = linalg.hermitian_eigenvalues(prod)
        expected = np.sort([t1 * (1 + abs(v1)), t1 * (1 - abs(v1)),
                            t2 * (1 + abs(v2)), t2 * (1 - abs(v2))])[::-1]
        assert np.max(np.abs(w - expected)) < 1e-10
        assert w[-1] >= -1e-12


@criterion(4, "min eigenvalue of the transposed product is min{t1 +- t2|v2|, t2 +- t1|v1|}")
def test_criterion_04_min_pt_eigenvalue():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        t1, t2 = rng.random(), rng.random()
        v1, v2 = random_amplitude(rng), random_amplitude(rng)
        pair = xstate.build_factors(XParams.symmetric(t1, t2, v1, v2))
        pt_prod = partial_transpose(linalg.mul(pair.p1, pair.p2), DIMS22)
        got = linalg.min_eigenvalue(pt_prod)
        expected = min(t1 + t2 * abs(v2), t1 - t2 * abs(v2),
                       t2 + t1 * abs(v1), t2 - t1 * abs(v1))
        assert abs(got - expected) < 1e-10


@criterion(5, "reference separable state: trace 1, two zero modes, PPT, gap norm > 1e-3")
def test_criterion_05_counterexample_replay():
    rho = criteria.counterexample_state()
    assert abs(linalg.trace(rho) - 1.0) <= 1e-14
    w = linalg.hermitian_eigenvalues(rho)
    assert -1e-12 <= w[-1] <= 1e-12
    assert -1e-12 <= w[-2] <= 1e-12
    assert criteria.ppt_verdict(rho, DIMS22)
    gap_norm = linalg.frobenius_norm(criteria.counterexample_gap())
    assert gap_norm > 1e-3
    # exact rational side conditions, checked to 1e-15 in floating point
    assert Fraction(1, 4) * Fraction(23, 117) == Fraction(23, 468)
    assert Fraction(1, 9) * Fraction(23, 52) == Fraction(23, 468)
    assert abs(criteria.CX_B1 * criteria.CX_D1 - 23.0 / 468.0) <= 1e-15
    assert abs(abs(criteria.CX_C1) ** 2 - 23.0 / 468.0) <= 1e-15
    assert abs(criteria.CX_A1 * criteria.CX_E1 - 23.0 / 468.0) <= 1e-15
    assert abs(abs(criteria.CX_F1) ** 2 - 23.0 / 468.0) <= 1e-15


def _env_importing_xsep() -> dict:
    """The environment with the xsep under test first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(xsep.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}


@criterion(6, "sweep --t1 0.25 --grid 101: 10201 satisfied rows, zero concurrence, in < 2 s")
def test_criterion_06_sweep_reproduction(tmp_path):
    out = tmp_path / "sweep.csv"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "xsep", "sweep", "--t1", "0.25",
         "--grid", "101", "--out", str(out)],
        capture_output=True,
        text=True,
        env=_env_importing_xsep(),
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "v1_abs,v2_abs,lhs,rhs,satisfied,concurrence,min_pt_eig"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 10201
    bound = 2.0 ** 11 / 9.0
    for row in rows:
        assert float(row[2]) <= bound
        assert row[4] == "true"
        assert float(row[5]) == 0.0
        assert float(row[6]) >= -1e-12
    assert elapsed < 2.0, f"took {elapsed:.3f} s"


@criterion(7, "zero concurrence iff nonnegative PT spectrum on 10^4 normalized states")
def test_criterion_07_oracle_agreement():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        t1 = 0.5 * rng.random()
        t2 = 0.5 - t1
        params = XParams.symmetric(t1, t2, random_amplitude(rng), random_amplitude(rng))
        conc = xstate.concurrence(xstate.product_state(params))
        rho = xstate.product_state(params).matrix()
        min_pt = linalg.min_eigenvalue(partial_transpose(rho, DIMS22))
        assert (conc == 0.0) == (min_pt >= -1e-12)


@criterion(8, "certified trace/norm test implies positive definiteness on 10^4 matrices")
def test_criterion_08_tarazaga_soundness():
    assert criteria.tarazaga_pd(np.eye(4, dtype=complex))  # 4 > 2*sqrt(3)
    rng = np.random.default_rng(8)
    certified = 0
    for d in (4, 9):
        for _ in range(5000):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = g + g.conj().T + rng.uniform(0.0, 1.5 * d) * np.eye(d)
            if criteria.tarazaga_pd(h):
                certified += 1
                assert linalg.min_eigenvalue(h) > 0
    assert certified > 100, f"only {certified} certified instances"


@criterion(9, "transposition distributes over products; partial transposition does not")
def test_criterion_09_transpose_identity():
    rng = np.random.default_rng(9)
    witnessed = False
    for _ in range(1000):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        full = linalg.mul(a, b).T - linalg.mul(b.T, a.T)
        assert linalg.frobenius_norm(full) <= 1e-12
        partial_gap = linalg.frobenius_norm(criteria.pt_gap(a, b, DIMS22))
        if partial_gap > 0.01:
            witnessed = True
    assert witnessed


@criterion(10, "order-9 inequality arithmetic: lhs 62 vs rhs 81/2^(3/2)")
def test_criterion_10_corollary_arithmetic():
    eye9 = np.eye(9, dtype=complex)
    check = criteria.corollary1_check(eye9, eye9, (3, 3))
    assert abs(check.lhs - 62.0) < 1e-9
    assert abs(check.rhs - 81.0 / 2.0 ** 1.5) < 1e-9
    assert not check.satisfied
    singular = eye9.copy()
    singular[0, 0] = 0.0
    check0 = criteria.corollary1_check(singular, eye9, (3, 3))
    assert abs(check0.lhs) < 1e-9
    assert check0.satisfied
