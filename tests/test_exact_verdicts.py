"""The verdicts against an exact oracle, and at the edges of the float range.

A float is a dyadic rational, so `Fraction(x)` is its exact value and the
oracle decides each verdict on the stored entries with no rounding. For a
two-qubit X state, PPT (Peres 1996) and zero concurrence (Wootters 1998; Yu
& Eberly 2007) are the same pair of inequalities: partial transposition
swaps the corners, so the state is PPT iff d11 d44 >= |c23|^2 and
d22 d33 >= |c14|^2.

The states are built exactly: a Pythagorean corner (a + bi) s over a
diagonal pair (c 2**j s, c 2**-j s), with a^2 + b^2 = c^2, sits on the
boundary; shrinking or growing the corner by 2**-20 puts it a clear margin
inside or outside. Scaling by 2**t keeps every entry exact.
"""

import itertools
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from xsep import criteria, forms, linalg, xstate
from xsep.bipartite import partial_transpose
from xsep.cli import build_parser, main
from xsep.errors import InvalidParams
from xsep.xstate import XMatrix, XParams

from conftest import random_complex, x_record
from test_sweep import GOLDEN_SWEEP, GRIDS, T1S

TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (9, 40, 41)]
# The corner's factor: on the boundary, a clear margin inside, outside.
SIDES = {"boundary": 1.0, "inside": 1.0 - 2.0 ** -20, "outside": 1.0 + 2.0 ** -20}
SCALES = [-500, -200, -1, 0, 1, 200, 500]


def square(c: complex) -> Fraction:
    """|c|^2, exactly."""
    return Fraction(c.real) ** 2 + Fraction(c.imag) ** 2


def ppt_margins(x: XMatrix) -> tuple[Fraction, Fraction]:
    """d11 d44 - |c23|^2 and d22 d33 - |c14|^2, exactly: the state is PPT iff both are >= 0."""
    d11, d22, d33, d44 = map(Fraction, (x.d11, x.d22, x.d33, x.d44))
    return d11 * d44 - square(x.c23), d22 * d33 - square(x.c14)


def exact_ppt(x: XMatrix) -> bool:
    """The exact PPT verdict, which is also the exact zero-concurrence verdict."""
    return min(ppt_margins(x)) >= 0


def boundary_states():
    """Normalized X states, each with one corner on, inside or outside the PPT boundary.

    The outer pair d11 d44 = c^2 s^2 meets the corner c23 = (a + bi) s times
    a side's factor; the inner pair takes the rest of the trace, exactly, and
    a corner c14 well inside its own bound. Mirrored, the same holds for c14.
    """
    s = 2.0 ** -9
    for k, (a, b, c) in enumerate(TRIPLES):
        j = k % 3
        d11, d44 = c * 2.0 ** j * s, c * 2.0 ** -j * s
        inner = (1.0 - d11 - d44) / 2.0  # exact: every entry is a short dyadic
        for corner in (complex(a, b), complex(-b, a), complex(a, -b), complex(-a, -b)):
            for side, factor in SIDES.items():
                c23 = corner * s * factor
                c14 = complex(0.0, -d44 / 2.0) if k % 2 else 0j
                yield side, XMatrix(d11, inner, inner, d44, c14=c14, c23=c23)
                # the mirror: the inner pair on the boundary of c14
                yield side, XMatrix(inner, d11, d44, inner, c14=c23, c23=c14)


STATES = list(boundary_states())


def test_the_states_are_valid_and_exact():
    sides = [side for side, _ in STATES]
    assert {side: sides.count(side) for side in SIDES} == {side: 48 for side in SIDES}
    for side, x in STATES:
        assert x.trace == 1.0
        # the state itself is PSD, exactly: only its partial transpose is in question
        d11, d22, d33, d44 = map(Fraction, (x.d11, x.d22, x.d33, x.d44))
        assert d11 * d44 >= square(x.c14) and d22 * d33 >= square(x.c23)
        assert (min(ppt_margins(x)) == 0) is (side == "boundary")
        assert exact_ppt(x) is (side != "outside")


@pytest.mark.parametrize("side, x", STATES, ids=[f"{s}{k}" for k, (s, _) in enumerate(STATES)])
def test_float_verdicts_agree_with_the_exact_oracle(side, x):
    want = exact_ppt(x)
    # Unscaled, under the default tol: the margin past the boundary is clear of it.
    assert criteria.validate_density(x.matrix(), (2, 2)).ppt is want
    for t in SCALES:
        y = XMatrix(*(math.ldexp(d, t) for d in (x.d11, x.d22, x.d33, x.d44)),
                    c14=complex(math.ldexp(x.c14.real, t), math.ldexp(x.c14.imag, t)),
                    c23=complex(math.ldexp(x.c23.real, t), math.ldexp(x.c23.imag, t)))
        assert exact_ppt(y) is want
        pt = partial_transpose(y.matrix(), (2, 2))
        # At tol 0 the scaled partial transpose is decided on the exact side,
        # the boundary included: hermitian_2x2's determinant is rounded once.
        assert (linalg.min_eigenvalue(pt, 0.0) >= 0.0) is want, t
        assert (xstate.x_eigenvalues(x_record(pt)).tolist()[-1] >= 0.0) is want, t
        # A scaled state has trace 2**t; tol = inf lets it past the trace test.
        conc = xstate.matrix_concurrence(y.matrix(), math.inf)
        assert (conc == 0.0) is want, t
        assert xstate.concurrence(y, math.inf) == conc


def test_concurrence_reads_the_trace_as_matrix_concurrence_does(rng):
    # At tol 0 the verdict is whether the float trace is exactly 1, which for
    # about one diagonal in six depends on the order of the four additions.
    for diagonal in rng.dirichlet(np.ones(4), size=2000).tolist():
        x = XMatrix(*diagonal, c14=0j, c23=0j)
        assert x.trace == complex(np.trace(x.matrix())).real
        want = xstate.matrix_concurrence(x.matrix(), 0.0)
        if x.trace == 1.0:
            assert want == xstate.concurrence(x, 0.0) == 0.0
        else:
            assert want is None
            with pytest.raises(InvalidParams, match="normalized"):
                xstate.concurrence(x, 0.0)


# A finite complex whose modulus passes the float maximum: abs() of it raises.
HUGE = complex(1.5e308, 1.5e308)


def quarter(*entries):
    """eye(4)/4 with the given ((i, j), value) entries set."""
    a = np.eye(4, dtype=complex) / 4.0
    for (i, j), value in entries:
        a[i, j] = value
    return a


def test_an_amplitude_past_the_float_maximum_is_out_of_bounds():
    with pytest.raises(InvalidParams, match=r"^\|v1\| must be <= 1, got inf$"):
        XParams(1, 1, 1, 1, HUGE, 0j)


@pytest.mark.parametrize("call, want", [
    # an off-X entry, in whether a unit-trace array is X shaped, and in matrix_concurrence
    (lambda: xstate.matrix_concurrence(quarter(((0, 1), HUGE)), 1e-10) is not None, False),
    (lambda: xstate.matrix_concurrence(quarter(((0, 1), HUGE)), math.inf) is not None, True),
    (lambda: xstate.matrix_concurrence(quarter(((0, 1), HUGE)), 1e-10), None),
    # the trace test of matrix_concurrence, and a tol that passes it
    (lambda: xstate.matrix_concurrence(quarter(((0, 0), HUGE)), 0.5), None),
    (lambda: xstate.matrix_concurrence(quarter(((0, 0), HUGE)), math.inf), 0.0),
    # a corner modulus, in matrix_concurrence and concurrence
    (lambda: xstate.matrix_concurrence(quarter(((0, 3), HUGE), ((3, 0), HUGE.conjugate())), 0.0),
     math.inf),
    (lambda: xstate.concurrence(XMatrix(0.25, 0.25, 0.25, 0.25, c14=0j, c23=HUGE)), math.inf),
], ids=["is_x_shaped", "is_x_shaped-tol-inf", "off-x", "trace", "trace-tol-inf",
        "matrix-corner", "concurrence-corner"])
def test_a_modulus_past_the_float_maximum_is_inf(call, want):
    assert call() is want if want is None else call() == want


def test_cli_amplitude_past_the_float_maximum_exits_3(capsys):
    assert main(["check-equality", "--t1", "0.25", "--t2", "0.25", "--v1", "1.5e308+1.5e308j"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: |v1| must be <= 1, got inf\n"


# Theorem 2 (81 D^3 + 512 D <= 2^11 / 9, D = det(P1^G) det(P2^G)) and the
# transposition equality on dyadic factor pairs of the family, decided exactly.
# Partial transposition only moves entries, and a product is a polynomial in
# them, so both are exact in Fraction from the stored floats.

THEOREM2_RHS = Fraction(2 ** 11, 9)
# Verdicts closer than this to 2^11 / 9 are not asserted: D is rounded on the way.
BAND = 8 * math.ulp(criteria.THEOREM2_RHS)


def exact(a) -> list[list[tuple[Fraction, Fraction]]]:
    """The entries of a square array as exact (real, imaginary) pairs."""
    return [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in np.asarray(a).tolist()]


def exact_pt(a):
    """The partial transpose over the second qubit: entry (2i + k, 2j + l) from (2i + l, 2j + k)."""
    return [[a[2 * (r // 2) + c % 2][2 * (c // 2) + r % 2] for c in range(4)] for r in range(4)]


def times(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def exact_mul(a, b):
    n = len(a)
    zero = (Fraction(0), Fraction(0))
    product = [[zero] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k] != zero:
                for j in range(n):
                    if b[k][j] != zero:
                        t = times(a[i][k], b[k][j])
                        product[i][j] = (product[i][j][0] + t[0], product[i][j][1] + t[1])
    return product


def minus(x, y):
    return x[0] - y[0], x[1] - y[1]


def exact_x_det(a) -> Fraction:
    """det of a 4x4 X matrix, (a00 a33 - a03 a30)(a11 a22 - a12 a21), which is real here."""
    assert all(a[i][j] == (0, 0) for i in range(4) for j in range(4) if j not in (i, 3 - i))
    outer, inner = (minus(times(a[i][i], a[3 - i][3 - i]), times(a[i][3 - i], a[3 - i][i]))
                    for i in (0, 1))
    det, imaginary = times(outer, inner)
    assert imaginary == 0
    return det


def dyadic_amplitude(rng, bound: float) -> complex:
    """A complex with parts k / 64 and modulus squared at most bound, exactly."""
    while True:
        v = complex(*(rng.integers(-64, 65, size=2) / 64.0))
        if square(v) <= bound:
            return v


def test_theorem2_agrees_with_the_exact_oracle_across_the_boundary(rng):
    # D* is the real root of 81 D^3 + 512 D = 2^11 / 9, and t = (D* / D2)^(1/4)
    # puts D on it; t is moved off it by 1e-12 to 3 %, either way, and rounded
    # to 40 bits, so every product of the pair is exact.
    d_star = max(np.roots([81.0, 0.0, 512.0, -2.0 ** 11 / 9.0]).real)
    verdicts = []
    for _ in range(300):
        v1, v2 = dyadic_amplitude(rng, 0.9), dyadic_amplitude(rng, 0.9)
        d2 = (1.0 - abs(v1) ** 2) * (1.0 - abs(v2) ** 2)
        offset = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -1.5)
        t = round((d_star / d2) ** 0.25 * (1.0 + offset) * 2 ** 40) / 2 ** 40
        pair = xstate.build_factors(XParams.symmetric(t, t, v1, v2))
        d = exact_x_det(exact_pt(exact(pair.p1))) * exact_x_det(exact_pt(exact(pair.p2)))
        lhs = 81 * d ** 3 + 512 * d
        if abs(lhs - THEOREM2_RHS) <= BAND:
            continue
        satisfied = criteria.theorem2_check(pair.p1, pair.p2).satisfied
        assert satisfied is (lhs <= THEOREM2_RHS), (t, v1, v2)
        verdicts.append(satisfied)
    assert len(verdicts) >= 200 and verdicts.count(True) > 100 and verdicts.count(False) > 100


def test_equality_holds_iff_the_exact_gap_vanishes(rng):
    weights = [k / 1024.0 for k in rng.integers(1, 2048, size=8)]
    holds = []
    for _ in range(200):
        t1 = float(rng.choice(weights))
        t2 = t1 if rng.random() < 0.4 else float(rng.choice(weights))
        v1, v2 = (0j if rng.random() < 0.4 else dyadic_amplitude(rng, 1.0) for _ in range(2))
        pair = xstate.build_factors(XParams.symmetric(t1, t2, v1, v2))
        p1, p2 = exact(pair.p1), exact(pair.p2)
        vanishes = exact_pt(exact_mul(p1, p2)) == exact_mul(exact_pt(p1), exact_pt(p2))
        assert vanishes is (t1 == t2 or v1 == v2 == 0)
        assert criteria.equality_holds(pair.p1, pair.p2, (2, 2), 0.0) is vanishes, (t1, t2, v1, v2)
        holds.append(vanishes)
    assert holds.count(True) > 50 and holds.count(False) > 50


@pytest.mark.parametrize("m", [3, 4])
def test_corollary1_left_side_is_the_exact_polynomial_in_d1_d2(m):
    # det(a I) = a^(m m) exactly, so D = (a b)^(m m); a b = 1 is among the pairs.
    n = m
    scales = [s * 2.0 ** k for s in (1, 3) for k in range(-60, 61, 15)]
    for a in scales:
        for b in scales:
            d = (Fraction(a) * Fraction(b)) ** (m * m)
            lhs = (n - 1) ** n * d ** 3 + 2 * n ** n * d
            p1, p2 = (s * np.eye(m * m, dtype=complex) for s in (a, b))
            if lhs > sys.float_info.max:
                with pytest.raises(InvalidParams, match="overflows"):
                    criteria.corollary1_check(p1, p2, (m, m))
                continue
            check = criteria.corollary1_check(p1, p2, (m, m))
            # D itself is rounded to a subnormal or zero below 2**-1022.
            assert math.isclose(check.lhs, float(lhs), rel_tol=4 * sys.float_info.epsilon,
                                abs_tol=2 * n ** n * 2.0 ** -1074), (a, b)
            if abs(lhs - Fraction(check.rhs)) > 8 * math.ulp(check.rhs):
                assert check.satisfied is (lhs <= Fraction(check.rhs)), (a, b)


# The sweep's `satisfied` column. A cell has D = t1^4 (t1^8 with --scaled-p2)
# times (1 - v1^2)(1 - v2^2), with each |v| = i / (grid - 1) as the sweep rounds
# it, so the oracle takes D exactly on those floats.


def lattice(grid: int) -> list[float]:
    step = 1.0 / (grid - 1)
    return [i * step for i in range(grid)]


def test_sweep_cells_agree_with_the_exact_oracle(capsys):
    checked, near = [], 0
    for scaled in (False, True):
        for t1 in T1S:
            d1 = Fraction(t1) ** (8 if scaled else 4)
            for grid in GRIDS:
                argv = ["sweep", "--t1", repr(t1), "--grid", str(grid)]
                assert main(argv + ["--scaled-p2"] * scaled) == 0
                got = [row.split(",")[4] for row in capsys.readouterr().out.splitlines()[1:]]
                factors = [1 - Fraction(v) ** 2 for v in lattice(grid)]
                for verdict, (f1, f2) in zip(got, itertools.product(factors, factors), strict=True):
                    d = d1 * f1 * f2
                    lhs = 81 * d ** 3 + 512 * d
                    if abs(lhs - THEOREM2_RHS) <= BAND:
                        near += 1
                        continue
                    assert verdict == ("true" if lhs <= THEOREM2_RHS else "false"), (t1, grid)
                    checked.append(verdict)
    assert len(checked) + near == 2 * len(T1S) * sum(g * g for g in GRIDS)
    assert checked.count("true") > 1000 and checked.count("false") > 1000


def test_golden_phase0_sweeps_are_satisfied_in_every_cell(capsys):
    argvs = [key for key in json.loads(GOLDEN_SWEEP.read_text())["sha256"] if "phase" not in key]
    assert len(argvs) == 4 and not any("--t1" in key for key in argvs)
    assert build_parser().parse_args(["sweep"]).t1 == 0.25
    # Each |v| is in [0, 1], so 0 <= D <= t1^4 = 1/256 (1/65536 scaled), and the
    # left side grows with D >= 0: one exact comparison bounds every cell.
    d_max = Fraction(1, 256)
    assert 81 * d_max ** 3 + 512 * d_max <= THEOREM2_RHS
    for key in argvs:
        argv = key.split()
        grid = int(argv[argv.index("--grid") + 1])
        assert all(0.0 <= v <= 1.0 for v in lattice(grid))
        assert main(argv) == 0
        # `satisfied` is the one column that reads true or false
        assert capsys.readouterr().out.count(",true,") == grid * grid, key


# Dense determinants and Corollary 1, decided exactly. A float matrix times
# 2**k, k the largest exponent of 2 among the denominators of its parts, is a
# matrix of Gaussian integers, and fraction-free elimination (Bareiss 1968)
# takes its determinant in integers: each division in it is exact.


def bareiss(m: list[list[tuple[int, int]]]) -> tuple[int, int]:
    """The determinant of a matrix of Gaussian integers (re, im), exactly."""
    m = [row[:] for row in m]
    n = len(m)
    sign, (pr, pi) = 1, (1, 0)
    for k in range(n - 1):
        p = next((i for i in range(k, n) if m[i][k] != (0, 0)), None)
        if p is None:
            return 0, 0
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        (ar, ai), norm = m[k][k], pr * pr + pi * pi
        for row in m[k + 1:]:
            br, bi = row[k]
            for j in range(k + 1, n):
                (xr, xi), (cr, ci) = row[j], m[k][j]
                nr = xr * ar - xi * ai - (br * cr - bi * ci)
                ni = xr * ai + xi * ar - (br * ci + bi * cr)
                # over the previous pivot: times its conjugate, over its norm
                (qr, rr), (qi, ri) = divmod(nr * pr + ni * pi, norm), divmod(ni * pr - nr * pi, norm)
                assert rr == ri == 0
                row[j] = qr, qi
        pr, pi = ar, ai
    return sign * m[-1][-1][0], sign * m[-1][-1][1]


def exact_det(a) -> tuple[Fraction, Fraction]:
    """det(a) as exact (real, imaginary) parts, through the Gaussian-integer matrix a * 2**k."""
    rows = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in np.asarray(a).tolist()]
    k = max(x.denominator for row in rows for z in row for x in z).bit_length() - 1
    re, im = bareiss([[(int(x * 2 ** k), int(y * 2 ** k)) for x, y in row] for row in rows])
    return Fraction(re, 2 ** (k * len(rows))), Fraction(im, 2 ** (k * len(rows)))


def random_state(rng, n):
    """A random n x n PSD matrix, exactly Hermitian."""
    g = random_complex(rng, n)
    h = g @ g.conj().T
    return 0.5 * (h + h.conj().T)


def test_the_exact_determinant_of_a_known_matrix():
    a = np.array([[0.5, 2j, 0], [0, 0, 1.0], [3, 0.25, -1j]])
    # expansion along the second row: -1 * (0.5 * 0.25 - 2j * 3)
    assert exact_det(a) == (Fraction(-1, 8), Fraction(6))
    assert exact_det(np.diag([2.0 ** -600, 2.0 ** 600, 3.0])) == (3, 0)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_det_of_a_partial_transpose_is_within_its_bound_of_the_exact_value(rng, m):
    # LU with partial pivoting is backward stable, so
    # |det - exact| <= n eps cond(A) |exact| at order n = m m. Measured on 20
    # matrices per order: at most 0.07 of that bound, and 592 eps at n = 16.
    n = m * m
    for _ in range(8):
        pt = partial_transpose(random_state(rng, n), (m, m))
        re, im = exact_det(pt)
        d = linalg.det(pt)
        error = (Fraction(d.real) - re) ** 2 + (Fraction(d.imag) - im) ** 2
        bound = Fraction(n * sys.float_info.epsilon * np.linalg.cond(pt))
        assert error <= bound ** 2 * (re * re + im * im), (m, d, float(re), float(im))


def within_corollary1_bound(lhs: float, n: int) -> bool:
    """lhs <= n^((3n-1)/2) / (n-1)^(n/2), exactly; for lhs >= 0, lhs^2 (n-1)^n <= n^(3n-1)."""
    return lhs <= 0 or Fraction(lhs) ** 2 * (n - 1) ** n <= n ** (3 * n - 1)


@pytest.mark.parametrize("n", range(3, 17))
def test_corollary1_bound_is_the_float_at_or_just_below_it(n):
    # So the float `lhs <= rhs` is the exact comparison for every float lhs. The
    # rounded quotient lies one ulp above the bound at six of these orders.
    eye = np.eye(3 * n, dtype=complex)
    rhs = criteria.corollary1_check(eye, eye, (3, n)).rhs
    assert within_corollary1_bound(rhs, n)
    assert not within_corollary1_bound(math.nextafter(rhs, math.inf), n)
    rounded = float(n) ** ((3 * n - 1) / 2.0) / (n - 1.0) ** (n / 2.0)
    assert rhs == (math.nextafter(rounded, 0.0) if n in (6, 7, 8, 10, 11, 14) else rounded)


def test_corollary1_bound_is_the_float_at_or_just_below_it_up_to_200():
    # Called directly: corollary1_check at n = 200 would take a 600x600 LU.
    # The bound passes the float maximum from n = 144 on.
    for n in range(3, 201):
        rhs = criteria._corollary1_rhs(n)
        assert within_corollary1_bound(rhs, n), n
        assert rhs == sys.float_info.max or not within_corollary1_bound(
            math.nextafter(rhs, math.inf), n), n


def test_two_product_is_exact_and_odd():
    # hermitian_2x2 forms -cr^2 as _two_product(-cr, cr), which must be the
    # exact negation of _two_product(cr, cr) for the determinant to keep its bits.
    rng = random.Random(37)
    for _ in range(2000):
        x, y = (rng.choice([-1.0, 1.0]) * math.ldexp(rng.random(), rng.randint(-400, 400))
                for _ in range(2))
        p, e = forms._two_product(x, y)
        assert p == x * y and Fraction(p) + Fraction(e) == Fraction(x) * Fraction(y), (x, y)
        p, e = forms._two_product(x, x)
        assert forms._two_product(-x, x) == (-p, -e), x


@pytest.mark.parametrize("m", [3, 4])
def test_corollary1_verdict_is_the_exact_comparison_near_the_bound(rng, m):
    # D* is the positive root of (m-1)^m D^3 + 2 m^m D = rhs, and P2 scaled
    # by s = (D* / D)^(1/n) puts D on it; s is moved off by 1e-16 to 1 %.
    n = m * m
    rhs = criteria.corollary1_check(np.eye(n), np.eye(n), (m, m)).rhs
    d_star = max(np.roots([(m - 1.0) ** m, 0.0, 2.0 * m ** m, -rhs]).real)
    p1 = random_state(rng, n)
    d1 = linalg.det(partial_transpose(p1, (m, m))).real
    while True:  # D = D1 D2 must be positive to reach the positive bound
        p2 = random_state(rng, n)
        d2 = linalg.det(partial_transpose(p2, (m, m))).real
        if d1 * d2 > 0:
            break
    verdicts, near = [], 0
    for _ in range(200):
        offset = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -2.0)
        s = (d_star / (d1 * d2)) ** (1.0 / n) * (1.0 + offset)
        check = criteria.corollary1_check(p1, s * p2, (m, m))
        assert check.satisfied is within_corollary1_bound(check.lhs, m), (s, check)
        verdicts.append(check.satisfied)
        near += abs(check.lhs / rhs - 1.0) <= 1e-13
    assert verdicts.count(True) > 50 and verdicts.count(False) > 50 and near > 10
