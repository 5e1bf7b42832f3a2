"""Special functions for two-harmonic phase modulation problems.

Provides the ordinary Bessel function J_n(x), the complex three-argument
generalized Bessel function J_n(u, v, delta) that arises when a plane-wave
phase carries both sin(theta) and sin(2*theta) harmonics, the Airy function
Ai(x), and the large-order Airy approximation of J_N(x).  scipy's jv is the
only scipy function used; Ai is numpy alone, from the Chebyshev series in
_airy_tables.

Two independent evaluation routes are kept for the generalized function:
a truncated bilinear series over ordinary Bessel factors, and a trapezoid
quadrature of the defining oscillatory integral (spectrally accurate for
periodic integrands).  The quadrature route is the validation oracle and
never shares code with the series route.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from . import _airy_tables as _tab

__all__ = [
    "BesselRangeError",
    "SeriesConvergenceError",
    "ordinary_bessel",
    "gen_bessel",
    "gen_bessel_orders",
    "gen_bessel_quadrature",
    "airy_ai",
    "airy_ai_asymptotic",
    "bessel_airy_approx",
    "set_bessel_fault",
]

# supported box for the ordinary Bessel function
MAX_ORDER = 2000
MAX_ARGUMENT = 5000.0

# series truncation: a series stops once its tail bound is below REL_TOL of
# the largest partial sum, magnitudes below ABS_FLOOR counting as zero; one
# series may not grow past MAX_TERMS terms.  Read at call time, so that a
# test can patch them.
REL_TOL = 1e-12
ABS_FLOOR = 1e-12
MAX_TERMS = 40000
# quadrature nodes beyond the integrand bandwidth (even)
QUAD_POINTS = 256


class BesselRangeError(ValueError):
    """Order or argument outside the supported evaluation box."""


class SeriesConvergenceError(RuntimeError):
    """Series truncation failed to converge; carries the residual estimate."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual estimate {residual:.3e})")
        self.residual = residual


def _reduce_angle(delta: float) -> float:
    # reduce to (-pi, pi]
    d = math.remainder(delta, 2.0 * math.pi)
    if d <= -math.pi:
        d += 2.0 * math.pi
    return d


def phase_exp(m, delta: float):
    """exp(i m delta) for integer m, exact at the special angles 0, +-pi,
    +-pi/2 (the angles produced by pure linear/circular polarization, where
    spurious phase roundoff would otherwise leak into real quantities)."""
    m = np.asarray(m)
    if delta == 0.0:
        out = np.ones(m.shape)
    elif abs(delta) == math.pi:
        out = np.where(m % 2 == 0, 1.0, -1.0)
    elif abs(delta) == math.pi / 2:
        sign = 1.0 if delta > 0 else -1.0
        table = np.array([1 + 0j, sign * 1j, -1 + 0j, -sign * 1j])
        out = table[np.asarray(m) % 4]
    else:
        out = np.exp(1j * m * delta)
    return out if out.ndim else out[()]


# --------------------------------------------------------------------------
# ordinary Bessel function

_FAULT_EPS = 0.0


def set_bessel_fault(eps: float) -> None:
    """Testing hook: perturb J_n(x) by a relative, order/argument-dependent
    amount ~eps.  Used by the self-test to prove the identity checks trip.
    Never enable outside of fault-injection tests."""
    global _FAULT_EPS
    _FAULT_EPS = float(eps)


def _faulted(n, x, val):
    """val perturbed by the injected fault at orders n and arguments x."""
    if _FAULT_EPS == 0.0:
        return val
    return val * (1.0 + _FAULT_EPS * np.cos(1.3 * np.asarray(n, dtype=float) + 0.7 * np.asarray(x, dtype=float)))


def _jn(n, x, fault=True):
    """J_n(x) for integer order(s); internal primitive shared by the series
    route (so that an injected fault propagates everywhere it should).
    fault=False leaves the fault to the caller: _jn_ladder applies it at the
    signed orders after the reflection."""
    val = sp.jv(n, x)
    return _faulted(n, x, val) if fault else val


def _jn_ladder(orders, x):
    """J_m(x) at a 1-D integer array of orders m for every entry of a 1-D x,
    shape (x.size, orders.size); equal bit for bit to
    _jn(orders[None, :], x[:, None]), injected fault included.

    jv runs once per distinct |m|: J_{-m}(x) = (-1)^m J_m(x), which scipy's
    jv satisfies exactly, gives the negative orders.
    """
    mags, back = np.unique(np.abs(orders), return_inverse=True)
    val = _jn(mags[None, :], x[:, None], fault=False)[:, back]
    val[:, (orders < 0) & (orders % 2 == 1)] *= -1.0
    return _faulted(orders[None, :], x[:, None], val)


def ordinary_bessel(n: int, x: float) -> float:
    """Ordinary Bessel function J_n(x) of integer order.

    Supported box: |n| <= 2000, |x| <= 5000.  Double precision throughout;
    accuracy is at machine level relative to the oscillation envelope
    sqrt(2/(pi x)), which near isolated zeros of J_n at |x| >~ 2000 amounts
    to ~11 significant digits of the point value.
    """
    if not math.isfinite(x):
        raise BesselRangeError(f"argument must be finite, got {x}")
    n = int(n)
    if abs(n) > MAX_ORDER or abs(x) > MAX_ARGUMENT:
        raise BesselRangeError(
            f"J_{n}({x}) outside supported box |n|<={MAX_ORDER}, |x|<={MAX_ARGUMENT}"
        )
    return float(_jn(n, x))


# --------------------------------------------------------------------------
# generalized Bessel function: series route

def _series_k_start(v: float) -> int:
    av = abs(v)
    return int(math.ceil(av + 10.0 * av ** (1.0 / 3.0) + 10.0))


class _Ladder:
    """J_m(u) at the integer orders m of one parity for every entry of a 1-D u.

    The bilinear series steps the order of J(u) by 2, so a series of orders
    of one parity reads that parity alone.  `values[p, (m - lo) // 2]` holds
    J_m(u[p]) for m = lo, lo + 2, ..., hi.  `cover` widens the order range
    on demand with one `_jn_ladder` call, so several series in the same
    arguments u share one ladder.
    """

    def __init__(self, u: np.ndarray, parity: int):
        self.u = u
        self.lo, self.hi = parity % 2, parity % 2 - 2
        self.values = np.empty((u.size, 0))

    def cover(self, lo: int, hi: int) -> None:
        if lo < -2 * MAX_ORDER or hi > 2 * MAX_ORDER:
            raise BesselRangeError("series requires ordinary-Bessel orders beyond the supported box")
        if self.lo <= lo and hi <= self.hi:
            return
        if self.hi >= self.lo:
            lo, hi = min(lo, self.lo), max(hi, self.hi)
        self.lo, self.hi = lo, hi
        self.values = _jn_ladder(np.arange(lo, hi + 1, 2), self.u)


def _series_rows(ladder: _Ladder, n_lo: int, n_hi: int, v: np.ndarray, delta: float) -> np.ndarray:
    """Bilinear series sum_k exp(-2ik delta) J_{n-2k}(u) J_k(v) for the
    orders n = n_lo, n_lo + 2, ..., n_hi (of the ladder's parity) and every
    row of (ladder.u, v); shape (rows, orders).

    Each row has its own truncation |k| <= K: it starts where a one-point
    call in that row's v starts and grows only while the row fails its own
    tail bound.  The terms are added one k at a time from k = -K up, and
    rows with a smaller K than the widest row see zero terms in its place,
    so every row equals its one-point call bit for bit.  The result is real
    when delta is 0, +-pi, and complex otherwise.
    """
    k_cap = max((MAX_TERMS - 1) // 2, 1)
    k_row = np.array([min(_series_k_start(x), k_cap) for x in v.tolist()])
    width = (n_hi - n_lo) // 2 + 1
    out = None
    todo = np.arange(v.size)
    while True:
        K = k_row[todo]
        k_top = int(K.max())
        ks = np.arange(-k_top, k_top + 3)
        jk = _jn_ladder(ks, v[todo])
        ladder.cover(n_lo - 2 * k_top, n_hi + 2 * k_top)
        ju = ladder.values if todo.size == v.size else ladder.values[todo]
        weights = jk[:, :-2] * phase_exp(-2 * ks[:-2], delta)
        weights[np.abs(ks[:-2]) > K[:, None]] = 0.0
        # J_{n_lo + 2i - 2k}(u) for k = j - k_top sits in column base + i - j
        base = (n_lo + 2 * k_top - ladder.lo) // 2
        acc = np.zeros((todo.size, width), dtype=np.result_type(ju, weights))
        for j in range(2 * k_top + 1):
            acc += ju[:, base - j:base - j + width] * weights[:, j, None]

        rows = np.arange(todo.size)
        tail = 2.0 * (np.abs(jk[rows, K + k_top + 1]) + np.abs(jk[rows, K + k_top + 2]))
        bound = REL_TOL * np.maximum(np.max(np.abs(acc), axis=1), ABS_FLOOR)
        ok = tail <= bound
        if out is None:
            out = np.empty((v.size, width), dtype=acc.dtype)
        out[todo[ok]] = acc[ok]
        if ok.all():
            return out
        stuck = ~ok & (K >= k_cap)
        if stuck.any():
            raise SeriesConvergenceError(
                f"generalized Bessel series not converged within {MAX_TERMS} terms",
                float(np.max(tail[stuck])),
            )
        todo = todo[~ok]
        k_row[todo] = np.minimum((k_row[todo] * 1.5).astype(int) + 8, k_cap)


def gen_bessel_orders(n_lo: int, n_hi: int, u, v, delta: float) -> np.ndarray:
    """J_n(u, v, delta) for all integer n in [n_lo, n_hi] at once.

    Evaluates the bilinear series sum_k exp(-2ik delta) J_{n-2k}(u) J_k(v),
    truncated at |k| <= K.  K starts at ceil(|v| + 10|v|^(1/3) + 10) and is
    enlarged until the tail bound drops below REL_TOL of the running sums
    (with ABS_FLOOR as the small-value cutoff).  The even and the odd
    orders of the range are two series, each with one truncation index for
    all its orders; the tail bound max_n |J_{n-2k}(u)| <= 1 makes it
    independent of n and u.

    Scalar u and v give a 1-D array over the orders.  Equal-length 1-D
    arrays u and v (one shared delta) give one row per point, from one
    J(u) ladder and one J_k(v) ladder for all rows.  K is kept per row:
    each row starts at its own K and grows only while it fails its own
    tail bound, so every row equals the scalar call at its (u, v) exactly.
    """
    scalar = np.ndim(u) == 0 and np.ndim(v) == 0
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    v_arr = np.atleast_1d(np.asarray(v, dtype=float))
    if u_arr.ndim != 1 or u_arr.shape != v_arr.shape or u_arr.size == 0:
        raise ValueError("u and v must be scalars or equal-length non-empty 1-D arrays")
    if not (np.all(np.isfinite(u_arr)) and np.all(np.isfinite(v_arr)) and math.isfinite(delta)):
        raise ValueError("generalized Bessel arguments must be finite")
    delta = _reduce_angle(float(delta))
    n_lo, n_hi = int(n_lo), int(n_hi)
    if n_hi < n_lo:
        raise ValueError("empty order range")
    out = np.empty((u_arr.size, n_hi - n_lo + 1), dtype=complex)
    for first in range(n_lo, min(n_lo + 1, n_hi) + 1):
        last = n_hi - (n_hi - first) % 2
        out[:, first - n_lo::2] = _series_rows(_Ladder(u_arr, first), first, last, v_arr, delta)
    return out[0] if scalar else out


def gen_bessel(n: int, u: float, v: float, delta: float) -> complex:
    """Complex generalized Bessel function J_n(u, v, delta).

    Reduces exactly to J_n(u) at v = 0 and, at u = 0, to
    exp(-i n delta) J_{n/2}(v) for even n (zero for odd n).
    """
    return complex(gen_bessel_orders(int(n), int(n), u, v, delta)[0])


# --------------------------------------------------------------------------
# generalized Bessel function: quadrature oracle

def quadrature_points(n: int, u: float, v: float) -> int:
    """Node count giving spectral accuracy for the periodic integrand."""
    m = 2 * (abs(int(n)) + math.ceil(abs(u)) + 2 * math.ceil(abs(v))) + QUAD_POINTS
    return m + (m % 2)


def gen_bessel_quadrature(n: int, u: float, v: float, delta: float) -> complex:
    """Oracle evaluation of J_n(u, v, delta) by trapezoid quadrature of

        (2 pi)^-1 integral_{-pi}^{pi} exp[i(u sin(t + delta)
                                            + v sin 2t - n(t + delta))] dt.

    The integrand is entire and 2*pi periodic, so the equispaced trapezoid
    rule converges faster than any power of the node count once the node
    count exceeds the integrand bandwidth; the node formula is
    2(|n| + ceil|u| + 2 ceil|v|) + QUAD_POINTS.
    """
    if not all(math.isfinite(x) for x in (u, v, delta)):
        raise ValueError("generalized Bessel arguments must be finite")
    n, delta = int(n), _reduce_angle(float(delta))
    m = quadrature_points(n, u, v)
    t = -np.pi + 2.0 * np.pi * np.arange(m) / m
    phase = u * np.sin(t + delta) + v * np.sin(2.0 * t) - n * (t + delta)
    return complex(np.exp(1j * phase).mean())


# --------------------------------------------------------------------------
# Airy function and the large-order Bessel approximation

# points per block of airy_ai: a block holds ~12 temporaries of its size
_AIRY_BLOCK = 8192
# series boundaries of airy_ai: P on x >= 2, Q between, M and phi on x <= -3
_AIRY_X_POS = 2.0
_AIRY_X_NEG = -3.0
# Veltkamp splitting constant 2^27 + 1 for Dekker's exact product
_SPLIT = 134217729.0


def _split(a):
    """Veltkamp's split a == hi + lo into two halves of 26 bits each, so
    that products of halves are exact."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _prod_err(a, b_hi, b_lo, p):
    """a * (b_hi + b_lo) - p exactly, for p = a * b rounded (Dekker)."""
    a_hi, a_lo = _split(a)
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _airy_zeta(x):
    """zeta = 2/3 x^(3/2) as an unevaluated double-double sum hi + lo.

    Ai(x) ~ exp(-zeta), so a rounded zeta alone would cost zeta * 2^-53
    relative accuracy (1e-13 near x = 100); carrying lo keeps it at 1e-16.
    With r = sqrt(x) and w = x r rounded, x r - w and x - r^2 come exactly
    from products of Veltkamp halves (Dekker; no FMA needed).
    """
    r = np.sqrt(x)
    r_hi, r_lo = _split(r)
    w = x * r
    w_lo = _prod_err(x, r_hi, r_lo, w)
    # x - r^2: every product of halves is exact and both differences are
    # Sterbenz, so d is rounded once
    d = x - r_hi * r_hi
    d -= 2.0 * r_hi * r_lo
    d -= r_lo * r_lo
    d /= r + r
    d *= x
    w_lo += d  # x^(3/2) = w + w_lo
    hi = (w + w) / 3.0
    # 2w - 3 hi == 2 (w - hi) - hi exactly: both differences are Sterbenz
    lo = (2.0 * (w - hi) - hi + 2.0 * w_lo) / 3.0
    return hi, lo


def _chebyshev(coef, t):
    """sum_k coef[k] T_k(t) by Clenshaw's recurrence (len(coef) >= 3), in
    place on three buffers."""
    t2 = t + t
    b1 = t2 * coef[-1]
    b1 += coef[-2]
    b2 = np.full_like(t, coef[-1])
    tmp = np.empty_like(t)
    for c in coef[-3:0:-1]:
        np.multiply(t2, b1, out=tmp)
        tmp -= b2
        tmp += c
        b1, b2, tmp = tmp, b1, b2
    np.multiply(t, b1, out=tmp)
    tmp -= b2
    tmp += coef[0]
    return tmp


def airy_ai(x):
    """Airy function Ai(x) of real x; scalar in, scalar out (arrays pass through).

    numpy only: three Chebyshev series from ``_airy_tables`` (written by
    ``tools/make_airy_tables.py`` with mpmath), after Gil, Segura & Temme,
    ACM TOMS 28 (2002) 325.  With zeta = 2/3 |x|^(3/2) as the double-double
    of ``_airy_zeta`` and s = 1/zeta:

    - x >= 2: Ai = exp(-zeta) x^(-1/4) P(s), degree 23;
    - -3 < x < 2: Ai = Q(x), degree 27;
    - x <= -3: Ai = |x|^(-1/4) M(s) cos(phi(s) - zeta), degree 20 each,
      the phase taken as an angle sum on hi and lo of zeta.

    Within 2e-15 relative of mpmath on (0, 104] (down to the double
    underflow there; 5e-16 from x = 2 on) and 7e-16 of the envelope
    |x|^(-1/4)/sqrt(pi) on [-1e5, 0]; ~110 ns per point on the arguments
    of the benchmark's Airy-form rate meshes (2-core Xeon VM).  +-inf and
    NaN give NaN; Ai underflows to 0.0 from x ~ 107 on (1e300 included);
    x < -2e205, where zeta overflows, gives NaN.  A scalar call returns the
    bits of the same point in an array call.
    """
    xa = np.asarray(x, dtype=float)
    out = np.empty(xa.shape)
    x_flat, out_flat = xa.reshape(-1), out.reshape(-1)
    # blocks bound the temporaries (a whole mesh at once would hold ~12
    # mesh-sized arrays); inf and huge |x| run into inf - inf on purpose
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, x_flat.size, _AIRY_BLOCK):
            _airy_block(x_flat[i:i + _AIRY_BLOCK], out_flat[i:i + _AIRY_BLOCK])
    if out.ndim == 0:
        return float(out)
    return out


def _airy_block(x, out):
    """Ai of a 1-D block x into out, one series per mask."""
    pos = x >= _AIRY_X_POS
    if pos.all():
        out[:] = _airy_pos(x)
        return
    neg = x <= _AIRY_X_NEG
    mid = ~(pos | neg)
    out[pos] = _airy_pos(x[pos])
    out[mid] = _chebyshev(_tab.Q_COEF, x[mid] * _tab.Q_SCALE + _tab.Q_SHIFT)
    out[neg] = _airy_neg(x[neg])


def _airy_pos(x):
    """exp(-zeta) x^(-1/4) P(1/zeta) for x >= 2."""
    # Ai underflows to 0 well before x = 1000; clipping keeps the exact
    # products of zeta finite
    xc = np.minimum(x, 1000.0)
    hi, lo = _airy_zeta(xc)
    ai = _chebyshev(_tab.P_COEF, _tab.P_SCALE / hi + _tab.P_SHIFT)
    ai *= np.exp(-hi)
    ai *= 1.0 - lo
    ai /= np.sqrt(np.sqrt(xc))
    ai[x == math.inf] = math.nan
    return ai


def _airy_neg(x):
    """|x|^(-1/4) M(s) cos(phi(s) - zeta), s = 1/zeta, for x <= -3."""
    ax = -x
    hi, lo = _airy_zeta(ax)
    t = _tab.M_SCALE / hi + _tab.M_SHIFT
    # phi - zeta = b - hi with b = phi - lo, so cos(b - hi) as an angle sum
    # keeps the phase to roundoff of b when hi is large
    b = _chebyshev(_tab.PHI_COEF, t) - lo
    wave = np.cos(hi) * np.cos(b) + np.sin(hi) * np.sin(b)
    return _chebyshev(_tab.M_COEF, t) / np.sqrt(np.sqrt(ax)) * wave


def airy_ai_asymptotic(x):
    """Leading large-x decay branch x^(-1/4) exp(-2 x^(3/2) / 3) / (2 sqrt(pi)).

    Within 0.5% of Ai(x) for x >= 8; used for tunneling-limit checks.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("asymptotic branch defined for x > 0")
    val = x ** -0.25 * np.exp(-2.0 * x ** 1.5 / 3.0) / (2.0 * np.sqrt(np.pi))
    return float(val) if val.ndim == 0 else val


def bessel_airy_approx(n: int, x: float) -> float:
    """Large-order approximation J_N(x) ~ (2/N)^(1/3) Ai[(N/2)^(2/3) (1 - x^2/N^2)].

    Valid near and below the turning point x ~ N; accuracy is a few percent
    for N >= 50 and x/N in [0.8, 1).  A small overshoot past x = N is
    allowed since the Airy argument just goes negative there.
    """
    n = int(n)
    if n < 1:
        raise ValueError("order must be >= 1")
    if not (0.0 <= x < 1.1 * n):
        raise ValueError(f"argument {x} outside [0, 1.1*N) for N={n}")
    arg = (n / 2.0) ** (2.0 / 3.0) * (1.0 - (x / n) ** 2)
    return (2.0 / n) ** (1.0 / 3.0) * airy_ai(arg)
