"""The X-state verdicts against an exact oracle, and at the edges of the float range.

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

import math
from fractions import Fraction

import numpy as np
import pytest

from xsep import criteria, linalg, xstate
from xsep.bipartite import partial_transpose
from xsep.cli import main
from xsep.errors import InvalidParams
from xsep.xstate import XMatrix, XParams

from conftest import x_record

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
        assert linalg.is_psd(pt, 0.0) is want, t
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
    # an off-X entry, in is_x_shaped and matrix_concurrence
    (lambda: xstate.is_x_shaped(quarter(((0, 1), HUGE)), 1e-10), False),
    (lambda: xstate.is_x_shaped(quarter(((0, 1), HUGE)), math.inf), True),
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
