"""Write src/atispec/_airy_tables.py, the Chebyshev coefficients of airy_ai.

    python tools/make_airy_tables.py           # (re)write the module
    python tools/make_airy_tables.py --check   # regenerate, diff, exit 1 on a difference

Needs mpmath (a test dependency; the package itself does not import it).
Every value is computed at a fixed 40 digits and written as the shortest
repr of its double, so the output is the same byte for byte on every run.

The three forms of Ai (after Gil, Segura & Temme, ACM TOMS 28 (2002) 325),
with zeta = 2/3 |x|^(3/2) and s = 1/zeta:

- x >= 2:       Ai(x) = exp(-zeta) x^(-1/4) P(s)
- -3 < x < 2:   Ai(x) = Q(x)
- x <= -3:      Ai(x) = |x|^(-1/4) M(s) cos(phi(s) - zeta)

P and M carry the constants 1/(2 sqrt(pi)) and 1/sqrt(pi) of the leading
asymptotic forms; M(s) |x|^(-1/4) and zeta - phi(s) are the modulus and
phase of DLMF 9.8.3 (P -> 1/(2 sqrt(pi)), M -> 1/sqrt(pi) and phi -> pi/4
as s -> 0).  Each function f of v on [a, b] is stored as the coefficients
c_0..c_d of sum_k c_k T_k(t) with t = scale * v + shift; scale and shift are
the doubles that airy_ai uses, and the fit is made for exactly that map.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from pathlib import Path

import mpmath as mp

TARGET = Path(__file__).resolve().parent.parent / "src" / "atispec" / "_airy_tables.py"
DPS = 40
# interpolation nodes per series: aliasing from T_k with k >= 2 NODES - d
# is far below the dropped terms
NODES = 64

# name, variable, interval [a, b] of the variable, degree d, docstring
SERIES = (
    ("P", "s", (0.0, 0.53125), 23,
     "x >= 2: Ai(x) = exp(-zeta) x^(-1/4) P(s); s <= 1/zeta(2) = 0.5303"),
    ("Q", "x", (-3.0, 2.0), 27,
     "-3 < x < 2: Ai(x) = Q(x)"),
    ("M", "s", (0.0, 0.29296875), 20,
     "x <= -3: Ai(x) = |x|^(-1/4) M(s) cos(phi(s) - zeta); s <= 1/zeta(3) = 0.2887"),
    ("PHI", "s", (0.0, 0.29296875), 20,
     "the phase of the x <= -3 form"),
)


def _abs_x(s):
    """|x| with 2/3 |x|^(3/2) = 1/s."""
    return (mp.mpf(3) / (2 * s)) ** (mp.mpf(2) / 3)


def _p(s):
    x = _abs_x(s)
    return mp.airyai(x) * mp.root(x, 4) * mp.exp(1 / s)


def _m(s):
    x = _abs_x(s)
    return mp.root(x, 4) * mp.hypot(mp.airyai(-x), mp.airybi(-x))


def _phi(s):
    # Ai(-x) + i Bi(-x) = M e^(i theta) with theta = phi - zeta: take the
    # branch of phi next to its limit pi/4
    x = _abs_x(s)
    d = mp.atan2(mp.airybi(-x), mp.airyai(-x)) + 1 / s - mp.pi / 4
    return mp.pi / 4 + d - 2 * mp.pi * mp.nint(d / (2 * mp.pi))


FUNCTIONS = {"P": _p, "Q": mp.airyai, "M": _m, "PHI": _phi}


def chebyshev(f, scale: float, shift: float, degree: int):
    """c_0..c_degree of the Chebyshev interpolant of f(v), t = scale v + shift,
    at the NODES zeros of T_NODES (none on an endpoint)."""
    angles = [mp.pi * (k + mp.mpf(1) / 2) / NODES for k in range(NODES)]
    fv = [f((mp.cos(a) - mp.mpf(shift)) / mp.mpf(scale)) for a in angles]
    coef = [2 * mp.fsum(fk * mp.cos(j * a) for fk, a in zip(fv, angles)) / NODES
            for j in range(degree + 1)]
    coef[0] /= 2
    return coef


def render() -> str:
    lines = [
        '"""Chebyshev coefficients of atispec.specfun.airy_ai.',
        "",
        f"Generated by tools/make_airy_tables.py (mpmath, {DPS} digits); do not",
        "edit.  Each series is sum_k COEF[k] T_k(t) with t = SCALE * v + SHIFT;",
        "see the script for the three forms of Ai they belong to.",
        '"""',
    ]
    with mp.workdps(DPS):
        for name, var, (a, b), degree, doc in SERIES:
            scale = 2.0 / (b - a)
            shift = -(a + b) / (b - a)
            coef = chebyshev(FUNCTIONS[name], scale, shift, degree)
            lines += [
                "",
                f"# {doc}",
                f"# {var} in [{a!r}, {b!r}], degree {degree}",
                f"{name}_SCALE = {scale!r}",
                f"{name}_SHIFT = {shift!r}",
                f"{name}_COEF = (",
                *(f"    {float(c)!r}," for c in coef),
                ")",
            ]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed module instead of writing it")
    args = parser.parse_args(argv)
    text = render()
    if not args.check:
        TARGET.write_text(text)
        return 0
    old = TARGET.read_text() if TARGET.exists() else ""
    if old == text:
        print(f"{TARGET.name} is up to date")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        old.splitlines(True), text.splitlines(True), "committed", "regenerated"))
    return 1


if __name__ == "__main__":
    sys.exit(main())
