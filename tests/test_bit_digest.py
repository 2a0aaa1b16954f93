"""The bits of the numerical kernels on one seeded corpus, pinned.

Each kernel's outputs on the corpus, written with `float.hex`, hash to one
sha256 in `data/bit_digest.json`, beside a short hash of each case, so a
failure names the kernel and the first case whose bits moved. The goldens
print 12 decimals and cannot see a change in the last bits; this can.

The corpus is drawn from `random.Random`, not from NumPy, and built in
Python float and complex arithmetic with no builtin `sum` (which compensates
from Python 3.12 on), no mixed float x complex product (whose rule changed
in 3.14) and no libm function but the correctly rounded `sqrt`: every
Python and NumPy version builds the same inputs. It holds X states, family
gaps, and dense Hermitian (random, graded, clustered) and non-Hermitian
matrices at n = 3/4/9/16, each also scaled by 2**900 and 2**-900. No dense block has couplings that are
all subnormal once scaled: `math.hypot`, which the eigensolver calls, has
changed bits on subnormal arguments between Python versions. A second draw
of family pairs, P1 diagonal, feeds `transposed_gap` and `theorem2_check`.
A third draw adds real sparse connected Hermitian matrices, n = 3..16 at the
same scales, to the spectrum's cases: their columns with one entry below the
diagonal take the Householder step's identity reflector. A fourth adds
matrices whose first column holds an entry of modulus past the float maximum
to the determinant's cases: LU sends them to its scaled retry.

The kernels are the spectrum, `det`, the Frobenius norm and the Tarazaga
test of each matrix; the gap of each family pair; the partial transpose, as
an array and as rows, and `validate_density` (report bits or error text) of
each matrix with a split; `matrix_concurrence` of each 4x4 matrix; the sides
and verdict (or error text) of `theorem2_check` on each family pair, at the
default and an infinite tol, and of `corollary1_check` on each two
consecutive dense matrices of order 9 or 16; and `format_float` of the first
row's parts of each matrix.

Run as a script, the module sets the kernels of this checkout's `src`
against those of another checkout, case by case, or re-pins the digests:

    python tests/test_bit_digest.py --src ../parent/src
    python tests/test_bit_digest.py --record

A change that moves a digest on purpose re-records it and names the kernel,
the number of moved cases and the reason in CHANGES.md.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from itertools import zip_longest
from operator import add, mul
from pathlib import Path

PINNED = Path(__file__).resolve().parent / "data" / "bit_digest.json"
SRC = Path(__file__).resolve().parents[1] / "src"
SEED = 20260
SCALES = (0, 900, -900)
SHORT = 8  # hex digits of each case's own hash
# The subsystem split taken for each order of the corpus that has one.
SPLITS = {4: (2, 2), 9: (3, 3), 16: (2, 8)}
# format_float at the ends of its fixed-point range and of the floats, and at its zeros.
EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e-4, math.nextafter(1e-4, 0.0), -1e-4,
         math.nextafter(-1e-4, 0.0), 1e16, math.nextafter(1e16, 0.0), -1e16,
         math.nextafter(-1e16, 0.0), 5e-324, sys.float_info.max, 2.0 ** 11 / 9.0)


def _entry(rng: random.Random) -> complex:
    """Parts uniform in [-1, 1): `uniform` is arithmetic, where `gauss` calls libm's log and cos."""
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def _disc(rng: random.Random) -> complex:
    """A point of the unit disc, by rejection: no cos or sin, whose bits are libm's."""
    while True:
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if z.real * z.real + z.imag * z.imag <= 1.0:
            return z


def _hermitian(upper) -> list[list[complex]]:
    """The exactly Hermitian rows with the real diagonal and the strict upper triangle of upper."""
    n = len(upper)
    rows = [[0j] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = complex(upper[i][i].real)
        for j in range(i + 1, n):
            rows[i][j], rows[j][i] = upper[i][j], upper[i][j].conjugate()
    return rows


def _matmul(a, b) -> list[list[complex]]:
    """a b, each entry summed left to right in complex x complex products."""
    columns = list(zip(*b))
    return [[functools.reduce(add, map(mul, row, col)) for col in columns] for row in a]


def _pt(rows) -> list[list[complex]]:
    """The partial transpose of a 4x4 matrix over the second qubit."""
    return [[rows[2 * (i // 2) + j % 2][2 * (j // 2) + i % 2] for j in range(4)] for i in range(4)]


def _x_state(rng: random.Random) -> list[list[complex]]:
    d = [rng.random() for _ in range(4)]
    rows = [[0j] * 4 for _ in range(4)]
    for k in range(4):
        rows[k][k] = complex(d[k])
    for i, j in ((0, 3), (1, 2)):
        c = _disc(rng) * complex(math.sqrt(d[i] * d[j]))
        rows[i][j], rows[j][i] = c, c.conjugate()
    return rows


def _family_pair(rng: random.Random, symmetric: bool) -> tuple[list, list]:
    """P1 = diag(t1, t2, t3, t4) and the unit-diagonal X factor P2; t3, t4 = t2, t1 if symmetric."""
    t = [rng.random() for _ in range(4)]
    if symmetric:
        t[2], t[3] = t[1], t[0]
    v1, v2 = _disc(rng), _disc(rng)
    p1 = [[complex(t[i]) if i == j else 0j for j in range(4)] for i in range(4)]
    p2 = [[1 + 0j, 0j, 0j, v1], [0j, 1 + 0j, v2, 0j],
          [0j, v2.conjugate(), 1 + 0j, 0j], [v1.conjugate(), 0j, 0j, 1 + 0j]]
    return p1, p2


def _family_gap(rng: random.Random, symmetric: bool) -> list[list[complex]]:
    """(P1 P2)^G - P1^G P2^G of a family pair; Hermitian when t3 = t2 and t4 = t1."""
    p1, p2 = _family_pair(rng, symmetric)
    lhs, rhs = _pt(_matmul(p1, p2)), _matmul(_pt(p1), _pt(p2))
    return [[x - y for x, y in zip(r, s)] for r, s in zip(lhs, rhs)]


def _graded(rng: random.Random, n: int, down: bool) -> list[list[complex]]:
    """D H D: H positive definite by diagonal dominance, D falling from 1 to about 2**-20."""
    d = [math.ldexp(1.0 + rng.random(), -(20 * i) // (n - 1)) for i in range(n)]
    if not down:
        d.reverse()
    h = [[_disc(rng) * complex(0.9 / (n - 1)) for _ in range(n)] for _ in range(n)]
    return _hermitian([[h[i][j] * complex(d[i] * d[j]) if i != j else complex(d[i] * d[i])
                        for j in range(n)] for i in range(n)])


def _clustered(rng: random.Random, n: int) -> list[list[complex]]:
    """U diag(w) U^H, U a Householder reflection, with n - 2 eigenvalues 1e-12 apart."""
    w = [1.0 + 1e-12 * k for k in range(n - 2)] + [-0.5, 2.0]
    v = [_entry(rng) for _ in range(n)]
    two = complex(2.0 / functools.reduce(add, (z.real * z.real + z.imag * z.imag for z in v)))
    u = [[(1 + 0j if i == j else 0j) - two * v[i] * v[j].conjugate() for j in range(n)]
         for i in range(n)]
    uw = [[x * complex(wk) for x, wk in zip(row, w)] for row in u]
    return _hermitian(_matmul(uw, [[x.conjugate() for x in col] for col in zip(*u)]))


def _scaled(rows, k: int) -> list[list[complex]]:
    return [[complex(math.ldexp(z.real, k), math.ldexp(z.imag, k)) for z in row] for row in rows]


def corpus() -> list[tuple[str, list[list[complex]], bool]]:
    """(label, rows, whether the rows are exactly Hermitian) for every case, in order."""
    rng = random.Random(SEED)
    base = [(f"x-state {k}", _x_state(rng), True) for k in range(120)]
    base += [(f"family-gap {k}", _family_gap(rng, k % 2 == 0), k % 2 == 0) for k in range(120)]
    for n, count in ((3, 6), (4, 6), (9, 4), (16, 3)):
        for k in range(count):
            upper = [[_entry(rng) for _ in range(n)] for _ in range(n)]
            shift = complex(rng.uniform(0.0, 1.5 * n))
            base += [
                (f"hermitian n={n} {k}", _hermitian(upper), True),
                (f"shifted n={n} {k}", _hermitian([[z + shift if i == j else z for j, z in enumerate(row)]
                                                   for i, row in enumerate(upper)]), True),
                (f"graded-down n={n} {k}", _graded(rng, n, True), True),
                (f"graded-up n={n} {k}", _graded(rng, n, False), True),
                (f"clustered n={n} {k}", _clustered(rng, n), True),
                (f"general n={n} {k}", [[_entry(rng) for _ in range(n)] for _ in range(n)], False),
            ]
    return [(f"{label} 2**{s}", _scaled(rows, s), hermitian)
            for s in SCALES for label, rows, hermitian in base]


def pairs() -> list[tuple[str, tuple[list, list]]]:
    """(label, (P1, P2)) of family pairs, P1 scaled by each of SCALES, from a second seed.

    P1 is diagonal, so each entry of a product is one rounded product of two
    entries, the same under every BLAS.
    """
    rng = random.Random(SEED + 1)
    base = [(f"family-pair {k}", _family_pair(rng, k % 2 == 0)) for k in range(60)]
    return [(f"{label} 2**{s}", (_scaled(p1, s), p2)) for s in SCALES for label, (p1, p2) in base]


def sparse() -> list[tuple[str, list[list[complex]]]]:
    """(label, rows) of real sparse Hermitian matrices whose pattern is connected, at each of SCALES.

    A random spanning tree joins the indices; each other pair above the
    diagonal is an entry with probability 0, 0.1, 0.2 or 0.3.
    """
    rng = random.Random(SEED + 2)
    base = []
    for n in range(3, 17):
        for k in range(4):
            rows = [[complex(rng.uniform(-1.0, 1.0)) if i == j else 0j for j in range(n)]
                    for i in range(n)]
            order = list(range(n))
            rng.shuffle(order)
            edges = {tuple(sorted((order[t], order[rng.randrange(t)]))) for t in range(1, n)}
            edges |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.1 * k}
            for i, j in sorted(edges):
                rows[i][j] = rows[j][i] = complex(rng.uniform(-1.0, 1.0))
            base.append((f"sparse n={n} {k}", rows))
    return [(f"{label} 2**{s}", _scaled(rows, s)) for s in SCALES for label, rows in base]


def overflowing() -> list[tuple[str, list[list[complex]]]]:
    """(label, rows) of matrices with one or two first-column entries of modulus past the float maximum.

    Each such entry has both parts in [1.3e308, 1.7e308); the other entries
    have parts in [-0.25, 0.25), so most determinants are in range.
    """
    rng = random.Random(SEED + 3)
    cases = []
    for n in range(3, 17):
        for count in (1, 2):
            rows = [[complex(rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25)) for _ in range(n)]
                    for _ in range(n)]
            for i in rng.sample(range(n), count):
                rows[i][0] = complex(rng.choice((-1.0, 1.0)) * rng.uniform(1.3e308, 1.7e308),
                                     rng.choice((-1.0, 1.0)) * rng.uniform(1.3e308, 1.7e308))
            cases.append((f"overflowing n={n} {count}", rows))
    return cases


def _hex(rows) -> str:
    return " ".join(f"{z.real.hex()},{z.imag.hex()}" for row in rows for z in row)


def kernels() -> dict:
    """Each kernel's name -> (its cases as (label, input), its output on one input as text)."""
    from xsep import bipartite, criteria, forms, linalg, xstate
    from xsep.errors import XsepError

    cases = corpus()
    every = [(label, rows) for label, rows, _ in cases]
    hermitian = [(label, rows) for label, rows, exact in cases if exact]
    split = [(label, (rows, bipartite.BipartiteDims(*SPLITS[len(rows)])))
             for label, rows in every if len(rows) in SPLITS]
    floats = [("edges", EDGES)] + [(label, [x for z in rows[0] for x in (z.real, z.imag)])
                                   for label, rows in every]

    def det(rows):
        z = linalg.det(rows)
        return f"{z.real.hex()} {z.imag.hex()}"

    def gap(pair):
        # A zero is hashed without its sign: a BLAS may sum zero products to either zero.
        return " ".join(_hex([[z + 0j for z in row] for row in a.tolist()])
                        for a in linalg.transposed_gap(*pair, (2, 2)))

    def density(case):
        # At an infinite tol every check passes, so each case shows its report's bits.
        texts = []
        for tol in (forms.DEFAULT_TOL, math.inf):
            try:
                r = criteria.validate_density(*case, tol)
                texts.append(f"{r.trace.hex()} {r.min_eigenvalue.hex()} "
                             f"{r.min_pt_eigenvalue.hex()} {r.ppt}")
            except XsepError as e:
                texts.append(f"{type(e).__name__}: {e}")
        return " | ".join(texts)

    def inequality(check, *args):
        try:
            r = check(*args)
            return f"{r.lhs.hex()} {r.rhs.hex()} {r.satisfied}"
        except XsepError as e:
            return f"{type(e).__name__}: {e}"

    def theorem2(pair):
        # At an infinite tol the equality hypothesis holds, so each pair shows its sides' bits.
        return " | ".join(inequality(criteria.theorem2_check, *pair, tol)
                          for tol in (forms.DEFAULT_TOL, math.inf))

    # Consecutive dense matrices of one order, as factor pairs of Corollary 1.
    dense = [(f"{a[0]} & {b[0]}", (a[1], b[1], (m, m)))
             for m in (3, 4) for a, b in itertools.pairwise(
                 [(label, rows) for label, rows in every if len(rows) == m * m])]

    def concurrence(rows):
        values = (xstate.matrix_concurrence(rows, tol) for tol in (forms.DEFAULT_TOL, math.inf))
        return " ".join("None" if c is None else c.hex() for c in values)

    return {
        "linalg._spectrum": (hermitian + sparse(),
                             lambda rows: " ".join(map(float.hex, linalg._spectrum(rows)))),
        "linalg.det": (every + overflowing(), det),
        "linalg.frobenius_norm": (every, lambda rows: linalg.frobenius_norm(rows).hex()),
        "criteria.tarazaga_pd": (hermitian, lambda rows: str(criteria.tarazaga_pd(rows))),
        "linalg.transposed_gap": (pairs(), gap),
        "bipartite.partial_transpose": (split, lambda case: _hex(
            bipartite.partial_transpose(*case).tolist())),
        "bipartite._transposed_rows": (split, lambda case: _hex(bipartite._transposed_rows(*case))),
        "criteria.validate_density": (split, density),
        "criteria.theorem2_check": (pairs(), theorem2),
        "criteria.corollary1_check": (dense,
                                      lambda case: inequality(criteria.corollary1_check, *case)),
        "xstate.matrix_concurrence": ([(label, rows) for label, rows in every if len(rows) == 4],
                                      concurrence),
        "forms.format_float": (floats, lambda xs: " ".join(map(forms.format_float, xs))),
    }


def outputs() -> dict[str, list[tuple[str, str]]]:
    """Each kernel's name -> its (case label, output text) over its cases."""
    return {name: [(label, kernel(x)) for label, x in inputs]
            for name, (inputs, kernel) in kernels().items()}


def digest(cases: list[tuple[str, str]]) -> dict:
    """The sha256 over every case and the short hash of each."""
    lines = [f"{label}\t{text}" for label, text in cases]
    return {"sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
            "cases": [hashlib.sha256(line.encode()).hexdigest()[:SHORT] for line in lines]}


def test_every_kernel_keeps_its_pinned_bits():
    pinned = json.loads(PINNED.read_text())
    got = outputs()
    assert sorted(got) == sorted(pinned)
    moved = []
    for name, cases in got.items():
        now, then = digest(cases), pinned[name]
        if now["sha256"] == then["sha256"]:
            continue
        first = next(k for k, (a, b) in enumerate(zip_longest(now["cases"], then["cases"]))
                     if a != b)
        label, text = cases[first] if first < len(cases) else ("(a pinned case past the last)", "")
        moved.append(f"{name}: first differing case {first}, {label!r}, now {text}")
    assert not moved, "\n".join(moved)


def _emitted(src: Path) -> dict[str, list[list[str]]]:
    """`outputs()` of the kernels under src, from a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, __file__, "--emit"], stdout=subprocess.PIPE, text=True,
                          env=env, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--src", type=Path, help="compare with the kernels of this src directory")
    what.add_argument("--record", action="store_true", help=f"re-pin {PINNED.name} from this src")
    what.add_argument("--emit", action="store_true", help="print the outputs of the importable kernels")
    args = parser.parse_args(argv)
    if args.emit:
        print(json.dumps(outputs()))
        return 0
    this = _emitted(SRC)
    if args.record:
        PINNED.write_text(json.dumps({name: digest(cases) for name, cases in this.items()},
                                     indent=1) + "\n")
        return 0
    other = _emitted(args.src.resolve())
    for name in this:
        pairs = [(a, b) for a, b in zip(this[name], other.get(name, [])) if a != b]
        print(f"{name}: {len(pairs)} of {len(this[name])} cases differ")
        if pairs:
            (label, mine), (_, theirs) = pairs[0]
            print(f"  first: {label}\n  {SRC}: {mine}\n  {args.src}: {theirs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
