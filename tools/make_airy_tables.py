"""Write src/atispec/_airy_tables.py, the tables of airy_ai and of the J_N kernel.

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

The J_N kernel (specfun._uniform) sums Olver's uniform expansion of
J_nu(nu z) (DLMF 10.20.4) where y = nu^(2/3) zeta >= 2, so Ai(y) and Ai'(y)
take their far forms there: P, and PD with Ai'(x) = -exp(-zeta) x^(1/4)
PD(s) on the map of P.  Its coefficients A_k and B_k (DLMF 10.20.10-11) are
sums over the Debye polynomials U_i(p) (DLMF 10.41.10) with the constants
u_j and v_j of DLMF 9.7.2; the script writes those exactly rational
numbers as doubles: DEBYE_U[i] holds the coefficients of p^i, p^(i+2), ..,
p^(3i) of U_i, and AIRY_U, AIRY_V the u_j and v_j.  LOG_HI + LOG_LO is
ln(j / 128), j = 64..128, and LN2_HI + LN2_LO is ln 2, each hi rounded to
a multiple of 2^-38, so that k LN2_HI + LOG_HI is exact and so is its
product with an order nu while nu ln q < 2^15 (see specfun._debye_exponent).
"""

from __future__ import annotations

import argparse
import difflib
import sys
from fractions import Fraction
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
# the far forms that the J_N kernel sums by Horner's rule, as the powers of t
# of their Chebyshev interpolants on the map of P: name, variable, interval,
# degree, docstring
POLYNOMIALS = (
    ("P", "s", (0.0, 0.53125), 23,
     "P as sum_k P_POLY[k] t^k"),
    ("PD", "s", (0.0, 0.53125), 16,
     "x >= 2: Ai'(x) = -exp(-zeta) x^(1/4) PD(s), PD = sum_k PD_POLY[k] t^k"),
)
# the Debye polynomials U_0..U_DEBYE_TERMS - 1 and the constants u_j, v_j up
# to the same index
DEBYE_TERMS = 8
# ln(j / 128), j = 64..128, and ln 2, as hi + lo with hi a multiple of 2^-38
LOG_CELLS = 128
LOG_QUANTUM = 38


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


def _pd(s):
    x = _abs_x(s)
    return -mp.airyai(x, 1) / mp.root(x, 4) * mp.exp(1 / s)


FUNCTIONS = {"P": _p, "Q": mp.airyai, "M": _m, "PHI": _phi, "PD": _pd}


def powers(coef):
    """The coefficients of t^0, t^1, .. of sum_k coef[k] T_k(t)."""
    cheb = [[1], [0, 1]]  # the integer coefficients of T_0, T_1, ..
    while len(cheb) < len(coef):
        nxt = [0] + [2 * v for v in cheb[-1]]
        for i, v in enumerate(cheb[-2]):
            nxt[i] -= v
        cheb.append(nxt)
    out = [mp.mpf(0)] * len(coef)
    for c, poly in zip(coef, cheb):
        for i, v in enumerate(poly):
            out[i] += c * v
    return out


def debye_polynomials(count: int):
    """U_0..U_{count-1} of DLMF 10.41.10 as lists of Fraction coefficients
    of p^0, p^1, ..: U_{k+1} = p^2 (1 - p^2) U_k' / 2 + int_0^p (1 - 5t^2) U_k / 8."""
    polys = [[Fraction(1)]]
    for _ in range(count - 1):
        u = polys[-1]
        new = [Fraction(0)] * (len(u) + 3)
        for i, c in enumerate(u):
            new[i + 1] += i * c / 2 + c / (8 * (i + 1))
            new[i + 3] -= i * c / 2 + 5 * c / (8 * (i + 3))
        while not new[-1]:
            new.pop()
        polys.append(new)
    return polys


def airy_constants(count: int):
    """u_0..u_{count-1} and v_0..v_{count-1} of DLMF 9.7.2."""
    u, v = [Fraction(1)], [Fraction(1)]
    for k in range(1, count):
        u.append(Fraction((6 * k - 5) * (6 * k - 3) * (6 * k - 1), (2 * k - 1) * 216 * k) * u[-1])
        v.append(Fraction(-(6 * k + 1), 6 * k - 1) * u[-1])
    return u, v


def chebyshev(f, scale: float, shift: float, degree: int):
    """c_0..c_degree of the Chebyshev interpolant of f(v), t = scale v + shift,
    at the NODES zeros of T_NODES (none on an endpoint)."""
    angles = [mp.pi * (k + mp.mpf(1) / 2) / NODES for k in range(NODES)]
    fv = [f((mp.cos(a) - mp.mpf(shift)) / mp.mpf(scale)) for a in angles]
    coef = [2 * mp.fsum(fk * mp.cos(j * a) for fk, a in zip(fv, angles)) / NODES
            for j in range(degree + 1)]
    coef[0] /= 2
    return coef


def _hi_lo(value):
    """value as hi + lo, hi a multiple of 2^-LOG_QUANTUM."""
    hi = mp.nint(value * 2**LOG_QUANTUM) / 2**LOG_QUANTUM
    return float(hi), float(value - hi)


def _tuple_lines(values, indent: str = "    ", per_line: int = 3):
    """values as the lines of a tuple, per_line shortest reprs on a line."""
    text = [f"{float(v)!r}," for v in values]
    return [indent + " ".join(text[i:i + per_line]) for i in range(0, len(text), per_line)]


def render() -> str:
    lines = [
        '"""Tables of atispec.specfun: the Chebyshev coefficients of Ai and Ai\',',
        "and the constants of the J_N kernel.",
        "",
        f"Generated by tools/make_airy_tables.py (mpmath, {DPS} digits); do not",
        "edit.  Each series is sum_k COEF[k] T_k(t) with t = SCALE * v + SHIFT;",
        "see the script for the forms of Ai and J_N they belong to.",
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
        for name, var, (a, b), degree, doc in POLYNOMIALS:
            scale = 2.0 / (b - a)
            shift = -(a + b) / (b - a)
            coef = powers(chebyshev(FUNCTIONS[name], scale, shift, degree))
            lines += [
                "",
                f"# {doc}",
                f"# {var} in [{a!r}, {b!r}], degree {degree}, t = {scale!r} {var} + {shift!r}",
                f"{name}_POLY = (",
                *_tuple_lines(coef),
                ")",
            ]
        debye = debye_polynomials(DEBYE_TERMS)
        u, v = airy_constants(DEBYE_TERMS)
        logs = [_hi_lo(mp.log(mp.mpf(j) / LOG_CELLS)) for j in range(LOG_CELLS // 2, LOG_CELLS + 1)]
        ln2 = _hi_lo(mp.log(2))
        lines += [
            "",
            "# U_i(p) = p^i sum_l DEBYE_U[i][l] p^(2l), DLMF 10.41.10",
            "DEBYE_U = (",
            *(line for i, poly in enumerate(debye)
              for line in ["    (", *_tuple_lines(poly[i::2], indent=" " * 8), "    ),"]),
            ")",
            "# u_j and v_j of DLMF 9.7.2",
            "AIRY_U = (", *_tuple_lines(u), ")",
            "AIRY_V = (", *_tuple_lines(v), ")",
            "",
            f"# ln(j / {LOG_CELLS}) for j = {LOG_CELLS // 2}..{LOG_CELLS} and ln 2 as HI + LO,",
            f"# HI a multiple of 2^-{LOG_QUANTUM}",
            f"LOG_CELLS = {LOG_CELLS}",
            f"LN2_HI = {ln2[0]!r}",
            f"LN2_LO = {ln2[1]!r}",
            "LOG_HI = (", *_tuple_lines([h for h, _ in logs]), ")",
            "LOG_LO = (", *_tuple_lines([lo for _, lo in logs]), ")",
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
