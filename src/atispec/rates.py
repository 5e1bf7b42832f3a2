"""Total ionization rates: direct channel summation, Airy/steepest-descent
asymptotics, and the closed-form strong-field and tunneling limits.

The channel-summed spectrum peaks at the photon number
N_m = (m*^2 - eps0^2)/(eps0 omega) ~ m xi^2 / omega and the emission angle
with cos(theta_m) = |Pi|/Pi0.  Replacing J_N by its Airy approximation
turns the peak height into Ai^2(y_m) with the regime parameter
y_m = (F_at / 2 F0)^(2/3): small y_m is the multiphoton strong-field
regime, large y_m the tunneling regime.

All quadratures use fixed node sets and pairwise numpy reductions, so a
rate is bit-reproducible for a given grid, and its bits do not depend on
the row block `spectra.SPECTRUM_BLOCK` of the kernel calls.
Gauss-Legendre and Gauss-Kronrod node sets are built once per size.

The Airy-form rates (rate_airy, rate_laplace) serve circular fields with
n_m >= 50 and share the kernels' kinematics and 1s density.  rate_laplace
integrates the smooth Ai^2 alone, on a tensor Gauss-Legendre rule over
its peak window.  The rate_airy mesh is evaluated in row blocks of at
most spectra.SPECTRUM_BLOCK points and calls Ai only where a point can
count: for y > 0, Ai(y) <= L(y) = exp(-2/3 y^(3/2)) / (2 sqrt(pi) y^(1/4))
(the asymptotic expansion envelopes Ai, DLMF 9.7(iv)), with
L/Ai <= 1.0706 for y >= 1.  So with B = prefactor * L^2 * quadrature
weights, a point carries at most B of the rate, and at least B / 1.15
where y >= 1 (B is NaN where y < 1).

One cut decides which points count.  A coarse pass evaluates B at the
end nodes of theta tiles (every _TILE = 12th node and the last).  The
end nodes are mesh points, so (sum of their finite B) / 1.15 is a lower
bound on the rate, and a point with B <= cut = 2^-60 (that sum / 1.15) /
(mesh points) gets Ai^2 = 0: the points left out carry at most 2^-60 of
the rate.  A zero cut leaves out only points whose B is exactly 0.

The coarse pass also bounds B over each (N row, tile).  Along a row of a
circular field k.Pi, g^2 and h = d k.Pi + g^2/2 rise with theta
(d = N - 2Z), so prefactor = lead |Pi| h^2 / g^8, and y is smallest at
the ridge cos(theta) = |Pi|/Pi0.  On a tile [a, b] off the ridge

    B <= L^2(min(y_a, y_b)) w_N max(w_theta sin theta) lead |Pi| max(h_a^2, h_b^2) / g_a^8,

taken with a rounding slack of 2^-20 in y and in the bound.  A tile whose
bound is at most the cut holds only points that the cut leaves out and
is never evaluated; a tile that straddles the ridge, reaches y < 1, has d
change sign, g^2 within 2^-24 (|Pi| + N omega)^2 of the pole or a
non-finite bound always is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .constants import GAMMA_TWO_THIRDS
from .kinematics import (
    Atom,
    ChannelExplosionError,
    LaserField,
    channel_kinematics,
    derive_params,
    effective_mass,
    threshold_n,
)
from .specfun import airy_ai
from .spectra import SPECTRUM_BLOCK, _recoil, channel_spectrum

__all__ = [
    "DegenerateSaddleError",
    "AsymptoticsError",
    "RegimeError",
    "SaddleInfo",
    "GridSpec",
    "RateSummary",
    "airy_argument",
    "saddle_point",
    "rate_direct",
    "rate_airy",
    "rate_laplace",
    "rate_closed",
    "strongfield_closed_prefactor",
]

REGIME_MULTIPHOTON = "multiphoton_strongfield"
REGIME_TUNNELING = "tunneling"
REGIME_INTERMEDIATE = "intermediate"
# y_m bounds of the multiphoton strong-field and the tunneling regimes
MULTIPHOTON_Y_MAX = 0.1
TUNNELING_Y_MIN = 10.0

DEFAULT_RATE_CHANNEL_CAP = 200_000

# the auto channel window and the rate_airy N mesh end at n_m + 6 delta_n;
# with no peak the window ends 50 channels past the threshold n0
WINDOW_WIDTHS = 6.0
NO_SADDLE_CHANNELS = 50
# the rate_laplace window: half-width in peak widths, Gauss-Legendre nodes per axis
LAPLACE_WIDTHS = 8.0
LAPLACE_POINTS = 160


class DegenerateSaddleError(RuntimeError):
    """No interior spectral peak (N_m below the channel threshold)."""


class AsymptoticsError(RuntimeError):
    """Large-order asymptotics requested outside their validity range."""


class RegimeError(RuntimeError):
    """No closed form applies in the intermediate regime."""


@dataclass(frozen=True)
class SaddleInfo:
    """Spectral-peak location, regime parameter and peak widths.

    n_m         numerically refined minimizer of the Airy argument
                (continuous photon number)
    theta_m     peak emission angle, cos(theta_m) = |Pi(n_m)|/Pi0(n_m)
    y_m         regime parameter 2^(1/3) E_B / ((m xi^2/omega)^(1/3) omega),
                identical to (F_at / 2 F0)^(2/3) for hydrogenic binding
    delta_n     energetic peak width 2 (n_m/2)^(2/3)
    delta_theta angular peak width (n_m/2)^(-1/3) / sqrt(1 + xi^2)
    regime      multiphoton_strongfield | tunneling | intermediate
    """

    n_m: float
    theta_m: float
    y_m: float
    delta_n: float
    delta_theta: float
    regime: str


@dataclass(frozen=True)
class GridSpec:
    """Quadrature grid for the direct rate.

    theta_points  n >= 1 of the cos(theta) rule: the direct rate evaluates
                  the 2n+1 nodes of its Gauss-Kronrod extension, which
                  hold the n Gauss-Legendre nodes
    phi_points    uniform azimuth panels, >= 1 (non-circular polarization);
                  panels that fold onto the same azimuth in [0, pi/2]
                  are evaluated once
    n_lo          first summed channel, clamped up to the threshold n0;
                  None means n0
    n_cut         channel cutoff; None means n_m + WINDOW_WIDTHS delta_n,
                  or n0 + NO_SADDLE_CHANNELS for a field with no peak
    channel_cap   hard cap on the number of summed channels

    The defaults are for library use on circular fields.  On a
    non-circular field every (theta, azimuth) row runs the general
    amplitude kernel: theta_points=200 (401 Kronrod nodes) with 16 panels
    (5 folded azimuths) costs 0.08-0.10 s per channel on the desk fields
    (omega 0.01, xi 1, zeta 0 and 0.5; 2-core VM), 15-20 s over their
    184- and 199-channel windows.  The CLI's theta_points default is 24.
    """

    theta_points: int = 200
    phi_points: int = 16
    n_lo: int | None = None
    n_cut: int | None = None
    channel_cap: int = DEFAULT_RATE_CHANNEL_CAP

    def __post_init__(self):
        for name in ("theta_points", "phi_points"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class RateSummary:
    """Total rate result.

    w_total in inverse electron-mass-time units; grid_report carries the
    grid, the summed channel count and, for the direct rate, the
    quadrature error estimate.
    """

    w_total: float
    method: str
    regime: str
    saddle: SaddleInfo | None
    grid_report: dict
    warnings: tuple = dc_field(default=())


def _airy_y(n, alpha):
    """(N/2)^(2/3) (1 - alpha^2 / N^2), scalar or array."""
    return (n / 2.0) ** (2.0 / 3.0) * (1.0 - alpha**2 / n**2)


def airy_argument(field: LaserField, atom: Atom, n: float, theta: float) -> float:
    """Airy argument y(N, theta) = (N/2)^(2/3) (1 - alpha^2 / N^2)."""
    return _airy_y(n, channel_kinematics(field, atom, n, theta, 0.0).alpha_amp)


def _ridge_theta(field, atom, n):
    ck = channel_kinematics(field, atom, n, 0.0, 0.0)
    return math.acos(min(ck.pi_abs / ck.pi0, 1.0))


def _minimize_bounded(func, lo: float, hi: float, xatol: float, maxfun: int = 500) -> float:
    """Minimizer of a scalar function on [lo, hi] by Brent's bounded method.

    Golden-section steps, with parabolic steps where the fit is acceptable;
    stops when the bracket is within xatol (plus a relative sqrt(eps) term)
    of the best point, or after maxfun evaluations.  The same steps and
    stopping rule as scipy.optimize.minimize_scalar(method="bounded"), so
    the minimizer is bit-identical, without importing scipy.optimize.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through (xf, fx), (nfc, fnfc), (fulc, ffulc)
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf


# one command asks for the saddle of one (field, atom) up to five times
@functools.lru_cache(maxsize=8)
def saddle_point(field: LaserField, atom: Atom) -> SaddleInfo:
    """Locate the spectral peak and classify the rate regime.

    The angular stationarity cos(theta) = |Pi|/Pi0 is exact for every N;
    the peak photon number is found by a bounded 1-D minimization of the
    Airy argument along that ridge, seeded by the closed-form
    (m*^2 - eps0^2)/(eps0 omega).  The refined minimizer differs from the
    seed only by binding-energy corrections.  Memoized on its arguments
    (the frozen field and atom are hashable; the result is immutable).
    """
    # xi^2 = 0 covers the field off and an xi whose square underflows
    if not field.xi**2 > 0.0:
        raise ValueError("saddle point requires xi^2 > 0")
    m_star = effective_mass(field)
    n_seed = (m_star**2 - atom.epsilon0**2) / (atom.epsilon0 * field.omega)
    n0 = threshold_n(field, atom)
    if n_seed < n0:
        raise DegenerateSaddleError(
            f"peak photon number {n_seed:.3f} below threshold {n0}"
        )

    def ridge_y(n):
        return airy_argument(field, atom, n, _ridge_theta(field, atom, n))

    lo = max(float(n0), 0.5 * n_seed)
    n_m = float(_minimize_bounded(ridge_y, lo, 1.5 * n_seed, xatol=1e-10 * n_seed))
    theta_m = _ridge_theta(field, atom, n_m)
    n_m_flat = field.xi**2 / field.omega
    y_m = 2.0 ** (1.0 / 3.0) * atom.e_b / (n_m_flat ** (1.0 / 3.0) * field.omega)
    if y_m <= MULTIPHOTON_Y_MAX:
        regime = REGIME_MULTIPHOTON
    elif y_m >= TUNNELING_Y_MIN:
        regime = REGIME_TUNNELING
    else:
        regime = REGIME_INTERMEDIATE
    return SaddleInfo(
        n_m=n_m,
        theta_m=theta_m,
        y_m=y_m,
        delta_n=2.0 * (n_m / 2.0) ** (2.0 / 3.0),
        delta_theta=(n_m / 2.0) ** (-1.0 / 3.0) / math.sqrt(1.0 + field.xi**2),
        regime=regime,
    )


def _channel_range(field, atom, saddle, n_cut, channel_cap, n_lo=None):
    # the window starts at n_lo clamped up to the threshold n0; an explicit
    # n_cut below that start gives an empty window (zero rate)
    n0 = threshold_n(field, atom)
    if n_cut is None:
        if saddle is None:
            n_cut = n0 + NO_SADDLE_CHANNELS
        else:
            n_cut = int(math.ceil(saddle.n_m + WINDOW_WIDTHS * saddle.delta_n))
    first = n0 if n_lo is None else max(n0, int(n_lo))
    if n_cut - first + 1 > channel_cap:
        raise ChannelExplosionError(
            f"{n_cut - first + 1} channels exceed cap {channel_cap}"
        )
    return first, int(n_cut)


def _try_saddle(field, atom):
    try:
        return saddle_point(field, atom)
    except (DegenerateSaddleError, ValueError):
        return None


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per n and
    returned read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _window_rule(lo, hi, n):
    """The nodes and weights of _gauss_legendre(n) mapped to [lo, hi]."""
    x, w = _gauss_legendre(n)
    half = (hi - lo) / 2.0
    return lo + (x + 1.0) * half, w * half


@functools.lru_cache(maxsize=16)
def _gauss_kronrod(n):
    """The (2n+1)-node Gauss-Kronrod extension of the n-node Gauss-Legendre
    rule on [-1, 1]: ascending nodes and Kronrod weights, built once per n
    and returned read-only.  Exact for polynomials of degree 3n + 1.

    Laurie's algorithm (Math. Comp. 66 (1997) 1133) builds the Jacobi-
    Kronrod matrix from the Legendre recurrence b_0 = 2, b_k = k^2/(4k^2-1);
    the weight is even, so the diagonal is zero and the mixed moments s, t
    only ever produce off-diagonal entries b.  The nodes are the matrix's
    eigenvalues and the weights 2 (first eigenvector components)^2, both
    made exactly symmetric; the n Gauss nodes at the odd positions are
    those of _gauss_legendre(n) bit for bit, so a Gauss sum reuses the
    integrand values at the Kronrod nodes.
    """
    b = np.zeros(2 * n + 1)
    known = (3 * n + 1) // 2 + 1
    k = np.arange(1.0, known)
    b[0] = 2.0
    b[1:known] = k**2 / (4.0 * k**2 - 1.0)
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1:n // 2 + 2] = s[:n // 2 + 1]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - m + k
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s

    off = np.sqrt(b[1:])
    values = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    nodes = (values - values[::-1]) / 2.0
    nodes[1::2] = _gauss_legendre(n)[0]
    # the eigenvector of node x is (q_0(x), ..., q_2n(x)) by the matrix's
    # three-term recurrence, so its squared first component normalized is
    # 1 / sum q_k(x)^2
    q_prev, q = np.zeros(nodes.size), np.ones(nodes.size)
    norm = np.ones(nodes.size)
    for k in range(2 * n):
        q_prev, q = q, (nodes * q - off[k - 1] * q_prev) / off[k]
        norm += q**2
    weights = 2.0 / norm
    weights = (weights + weights[::-1]) / 2.0
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _direct_once(field, atom, n0, n_cut, theta_points, panels, rescattering):
    """Kronrod sums K and Gauss sums G of each channel of the window over the
    dwdo column of channel_spectrum (kfr_only_dwdo without rescattering) at
    theta = arccos of the 2n+1 Kronrod nodes (the n Gauss nodes among them)
    and the panels 2 pi j / panels, all from one channel_spectrum call."""
    mu, w_k = _gauss_kronrod(theta_points)
    w_g = _gauss_legendre(theta_points)[1]
    # |amp|^2 is even under phi -> -phi (amp -> conj amp) and under
    # phi -> pi - phi (amp -> (-1)^N conj amp), for every zeta, so panel j
    # is folded into [0, pi/2]; the fold is integer arithmetic before the
    # angle, so mirrored panels get bitwise-equal azimuths, evaluated once
    j = np.minimum(np.arange(panels), panels - np.arange(panels))
    phis, panel = np.unique(math.pi * np.minimum(2 * j, panels - 2 * j) / panels,
                            return_inverse=True)
    ns = np.arange(n0, n_cut + 1)
    cols = channel_spectrum(field, atom, ns[:, None, None], np.arccos(mu)[:, None], phis)
    dwdo = cols[1 if rescattering else 2].reshape(ns.size, mu.size, phis.size)
    # the correctly rounded panel sum of each (channel, theta), which one
    # addition of at most two panels is too; above two panels one channel's
    # panels are spread out at a time
    if panels <= 2:
        p = dwdo[:, :, panel].sum(axis=2)
    else:
        p = np.array([[math.fsum(r) for r in d[:, panel].tolist()] for d in dwdo])
    sums = [(np.dot(w_k, q), np.dot(w_g, q[1::2])) for q in p * (2.0 * math.pi / panels)]
    return np.array(sums, dtype=float).reshape(-1, 2).T


def rate_direct(
    field: LaserField,
    atom: Atom,
    grid: GridSpec | None = None,
    rescattering: bool = True,
) -> RateSummary:
    """Total rate by exact channel summation and angular quadrature.

    Integrates the relativistic dwdo column of channel_spectrum, kfr_only_dwdo
    without rescattering (tag 44 at |zeta| = 1, azimuth analytic; the general
    amplitude over uniform azimuth panels otherwise) in cos(theta), each channel
    evaluated once, at theta = arccos of the 2n+1 nodes of the
    Gauss-Kronrod extension of the n = grid.theta_points Gauss-Legendre
    rule.  w_total is the Kronrod sum K (exact to degree 3n + 1);
    quad_error_estimate = |K - G|, with G the n-node Gauss sum over the
    same values (exact to degree 2n - 1), is the error of the n-node rule,
    which makes it a conservative estimate for K.  An estimate above 1% of
    the total is carried as a warning, never an exception.  The channels
    summed are grid.n_lo (clamped up to the threshold) to grid.n_cut.

    The window's rows go to channel_spectrum in one call, which blocks
    them, so a circular window of at most spectra.SPECTRUM_BLOCK rows is
    one J_N kernel call.  The default grid suits circular fields; with it
    a non-circular field takes 0.08-0.10 s per channel on the desk fields,
    15-20 s per call (see GridSpec).  The CLI passes theta_points=24
    unless configured.
    """
    grid = grid or GridSpec()
    saddle = _try_saddle(field, atom)
    n0, n_cut = _channel_range(field, atom, saddle, grid.n_cut, grid.channel_cap, grid.n_lo)
    # the azimuth of a circular field is analytic: one panel carries 2 pi
    panels = 1 if abs(field.zeta) == 1.0 else grid.phi_points
    per_channel, gauss = _direct_once(field, atom, n0, n_cut, grid.theta_points, panels,
                                      rescattering)
    w_total = float(np.sum(per_channel))
    estimate = abs(w_total - float(np.sum(gauss)))
    tail = float(np.sum(per_channel[-2:])) if per_channel.size >= 2 else 0.0
    warnings = ()
    if w_total > 0.0 and estimate > 0.01 * w_total:
        warnings = (f"quadrature estimate {estimate:.3e} exceeds 1% of total",)
    if n_cut < n0:
        warnings += (f"channel window ends at {n_cut}, below its first channel {n0}; "
                     "rate is zero",)
    return RateSummary(
        w_total=w_total,
        method="direct",
        regime=saddle.regime if saddle else REGIME_INTERMEDIATE,
        saddle=saddle,
        grid_report={
            "channels_summed": max(n_cut - n0 + 1, 0),
            "n_lo": n0,
            "n_hi": n_cut,
            "theta_points": 2 * grid.theta_points + 1,
            "phi_points": panels,
            "quad_error_estimate": estimate,
            "tail_channel_sum": tail,
        },
        warnings=warnings,
    )


# the rate_airy mesh: N points (trapezoid) by theta points (Gauss-Legendre)
AIRY_N_POINTS = 2000
AIRY_THETA_POINTS = 300
# a point is left out when its bound B is at most this share of the
# end-node lower bound averaged over the mesh points
_SKIP_SHARE = 2.0**-60
# (L/Ai)^2 <= 1.0706^2 < 1.15 for y >= 1
_ENVELOPE_SQ_MAX = 1.15
# theta node intervals per tile of the rate_airy mesh's coarse pass
_TILE = 12
# a tile bound takes y at (1 - _TILE_SLACK) of its end-node value and
# grows by (1 + _TILE_SLACK), for the rounding of the mesh values it
# bounds; it needs g^2 above _TILE_G_SHARE (|Pi| + N omega)^2 at the
# tile's first node, where the rounding of g^2 is small against g^2
_TILE_SLACK = 2.0**-20
_TILE_G_SHARE = 2.0**-24


def _trapezoid_weights(x):
    """Weights of the trapezoid rule on the nodes x."""
    half = np.diff(x) / 2.0
    w = np.zeros(x.size)
    w[:-1] += half
    w[1:] += half
    return w


def _mesh_block(field, atom, n_col, theta_row):
    """Airy argument y and the smooth prefactor split around Ai^2 as
    (pre, post), on the mesh of an N column and a theta row, and the
    kinematics they came from; the per-element operations are those of a
    full meshgrid."""
    ck = channel_kinematics(field, atom, n_col, theta_row, 0.0)
    pre, r = _recoil((2.0 / n_col) ** (2.0 / 3.0), field, n_col, ck)
    return _airy_y(n_col, ck.alpha_amp), pre, (1.0 + r) ** 2, ck


def _envelope_sq(y):
    """L^2(y) = exp(-4/3 y^(3/2)) / (4 pi sqrt(y)) on 1 <= y < inf, NaN
    elsewhere."""
    y_env = np.where((y >= 1.0) & (y < math.inf), y, math.nan)
    root = np.sqrt(y_env)
    return np.exp(-4.0 / 3.0 * y_env * root) / (4.0 * math.pi * root)


def _skip_bound(y, pre, post, weights):
    """The bound B = L^2(y) * weights * pre * post of the skip rule, NaN off
    the range 1 <= y < inf of the envelope bound."""
    with np.errstate(over="ignore", invalid="ignore"):
        b = _envelope_sq(y)
        b *= weights
        b *= pre * post
    return b


def _tile_plan(field, atom, n_grid, theta_grid, w_n, w_row):
    """The coarse pass of _airy_mesh, over the end nodes of its theta tiles
    (every _TILE-th node and the last), in row blocks.  Returns the end
    nodes, the bound on B of each (N row, tile) and the cut (module
    docstring); the bound is NaN on the tiles that are always
    evaluated."""
    size = theta_grid.size
    ends = np.r_[np.arange(0, size - 1, _TILE), size - 1]
    # the largest w_row of each tile, both end nodes included
    w_max = np.maximum(np.maximum.reduceat(w_row, ends[:-1]), w_row[ends[1:]])
    cos_end = np.cos(theta_grid[ends])
    bound = np.empty((n_grid.size, ends.size - 1))
    share = 0.0
    rows = max(SPECTRUM_BLOCK // ends.size, 1)
    for i in range(0, n_grid.size, rows):
        blk = slice(i, i + rows)
        n_col = n_grid[blk, None]
        y, pre, post, ck = _mesh_block(field, atom, n_col, theta_grid[ends])
        # 2^-60 B, which sums to a finite share however large B gets
        b = _skip_bound(y, pre, post, _SKIP_SHARE * w_n[blk, None] * w_row[ends])
        share += float(np.sum(b, where=np.isfinite(b)))
        # along a row k.Pi, g^2, d = N - 2Z and h = d k.Pi + g^2/2 rise with
        # theta, pre * post = lead |Pi| h^2 / g^8, and y falls to its
        # minimum at the ridge cos(theta) = |Pi|/Pi0 and rises after it
        d = n_col - ck.big_z * (1.0 + field.zeta**2)
        h_sq = (d * ck.k_dot_pi + ck.g_sq / 2.0) ** 2
        g_sq = ck.g_sq[:, :-1]
        ridge = ck.pi_abs / ck.pi0
        bounded = ~((cos_end[1:] <= ridge) & (ridge <= cos_end[:-1]))
        bounded &= d[:, :-1] * d[:, 1:] > 0.0
        bounded &= g_sq > _TILE_G_SHARE * (ck.pi_abs + n_col * field.omega) ** 2
        y_near = np.minimum(y[:, :-1], y[:, 1:]) * (1.0 - _TILE_SLACK)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            tile = _envelope_sq(y_near) * (w_n[blk, None] * w_max)
            tile *= (2.0 / n_col) ** (2.0 / 3.0) * ck.pi_abs \
                * np.maximum(h_sq[:, :-1], h_sq[:, 1:]) / g_sq**4
            bound[blk] = np.where(bounded, tile * (1.0 + _TILE_SLACK), math.nan)
    return ends, bound, share / _ENVELOPE_SQ_MAX / (n_grid.size * size)


def _airy_mesh(field, atom, n_grid, theta_grid, w_theta):
    """The rate_airy integrand prefactor(N, theta) * Ai^2(y) * sin(theta)
    on the (N, theta) mesh, in one pass over row blocks.  The bound B of
    the skip rule (module docstring) takes trapezoid weights in N and
    w_theta in theta.  A tile whose bound from _tile_plan is at most the
    cut is 0 and is not evaluated; each row block takes B on the theta
    span of its other tiles and Ai where B is not at most the cut, so a
    point whose y or B is NaN or infinite always gets its Ai.
    """
    w_n = _trapezoid_weights(n_grid)
    sin_t = np.sin(theta_grid)
    w_row = w_theta * sin_t
    ends, bound, cut = _tile_plan(field, atom, n_grid, theta_grid, w_n, w_row)
    evaluated = ~(bound <= cut)
    rows = max(SPECTRUM_BLOCK // theta_grid.size, 1)
    out = np.zeros((n_grid.size, theta_grid.size))
    for i in range(0, n_grid.size, rows):
        blk = slice(i, i + rows)
        tiles = np.flatnonzero(evaluated[blk].any(axis=0))
        if tiles.size == 0:
            continue
        cols = slice(ends[tiles[0]], ends[tiles[-1] + 1] + 1)
        y, pre, post, _ = _mesh_block(field, atom, n_grid[blk, None], theta_grid[cols])
        need = ~(_skip_bound(y, pre, post, w_n[blk, None] * w_row[cols]) <= cut)
        ai2 = np.zeros(y.shape)
        ai2[need] = airy_ai(y[need]) ** 2
        out[blk, cols] = pre * ai2 * post * sin_t[cols]
    return out


def _asymptotic_saddle(field, atom, method):
    """The saddle of a field that the Airy-form rates serve: ValueError
    unless |zeta| = 1, AsymptoticsError unless a saddle exists with
    n_m >= 50."""
    if abs(field.zeta) != 1.0:
        raise ValueError(f"{method} requires circular polarization")
    saddle = _try_saddle(field, atom)
    if saddle is None or saddle.n_m < 50.0:
        raise AsymptoticsError(
            f"peak photon number {'below threshold' if saddle is None else saddle.n_m} "
            "too small for the large-order asymptotics (need n_m >= 50)"
        )
    return saddle


def rate_airy(field: LaserField, atom: Atom) -> RateSummary:
    """Total circular-polarization rate with J_N replaced by its Airy form
    and the channel sum replaced by an integral over continuous N.

    Requires |zeta| = 1 and a peak photon number n_m >= 50 for the
    large-order asymptotics to make sense.
    """
    saddle = _asymptotic_saddle(field, atom, "rate_airy")
    n0 = threshold_n(field, atom)
    n_hi = saddle.n_m + WINDOW_WIDTHS * saddle.delta_n
    n_grid = np.linspace(float(n0), n_hi, AIRY_N_POINTS)
    theta_grid, w_theta = _window_rule(0.0, math.pi, AIRY_THETA_POINTS)
    integrand = _airy_mesh(field, atom, n_grid, theta_grid, w_theta)
    inner = integrand @ w_theta
    w_total = 2.0**5 / atom.a**5 * float(np.trapezoid(inner, n_grid))
    # peak location of the sampled integrand, for diagnostics
    i_pk, j_pk = np.unravel_index(int(np.argmax(integrand)), integrand.shape)
    return RateSummary(
        w_total=w_total,
        method="airy_numeric",
        regime=saddle.regime,
        saddle=saddle,
        grid_report={
            "n_points": AIRY_N_POINTS,
            "theta_points": AIRY_THETA_POINTS,
            "n_lo": float(n0),
            "n_hi": n_hi,
            "integrand_peak_n": float(n_grid[i_pk]),
            "integrand_peak_theta": float(theta_grid[j_pk]),
        },
    )


def rate_laplace(field: LaserField, atom: Atom) -> RateSummary:
    """Steepest-descent estimate of the Airy-form rate.

    Freezes the smooth prefactor at the saddle and integrates Ai^2 of the
    exact Airy argument with a LAPLACE_POINTS-node Gauss-Legendre rule per
    axis over a +-LAPLACE_WIDTHS peak window, clamped to N >= n0 and to
    [0, pi].  Used to check the Airy-form integral against the strong-field
    closed form.  Requires, as rate_airy does, |zeta| = 1 and n_m >= 50.
    """
    saddle = _asymptotic_saddle(field, atom, "rate_laplace")
    n_m, th_m = saddle.n_m, saddle.theta_m
    theta_m = np.array([th_m])
    _, pre, post, _ = _mesh_block(field, atom, np.array([[n_m]]), theta_m)
    prefactor = float((pre * post * np.sin(theta_m))[0, 0])

    half_n, half_t = LAPLACE_WIDTHS * saddle.delta_n, LAPLACE_WIDTHS * saddle.delta_theta
    n_lo = max(float(threshold_n(field, atom)), n_m - half_n)
    n_nodes, w_n = _window_rule(n_lo, n_m + half_n, LAPLACE_POINTS)
    t_nodes, w_t = _window_rule(max(0.0, th_m - half_t), min(math.pi, th_m + half_t), LAPLACE_POINTS)
    y = _mesh_block(field, atom, n_nodes[:, None], t_nodes)[0]
    mass = float(w_n @ airy_ai(y) ** 2 @ w_t)
    w_total = 2.0**5 / atom.a**5 * prefactor * mass
    return RateSummary(
        w_total=w_total,
        method="laplace",
        regime=saddle.regime,
        saddle=saddle,
        grid_report={"widths": LAPLACE_WIDTHS, "airy_mass": mass},
    )


def strongfield_closed_prefactor() -> float:
    """Numeric constant 2^(7/3) pi / (3^(4/3) Gamma^2(2/3)) of the
    strong-field closed form."""
    return 2.0 ** (7.0 / 3.0) / (3.0 ** (4.0 / 3.0) * GAMMA_TWO_THIRDS**2) * math.pi


def rate_closed(field: LaserField, atom: Atom) -> RateSummary:
    """Closed-form rate in the regime found by saddle_point.

    multiphoton_strongfield:
        W = 2^(7/3) pi / (3^(4/3) Gamma^2(2/3)) omega (omega/E_B)^3
            (F_at/F0)^(11/3)
    tunneling:
        W = 2 omega (omega/E_B)^3 (F_at/F0)^3 exp(-2 F_at / (3 F0))

    The intermediate regime raises RegimeError.
    """
    saddle = saddle_point(field, atom)
    dp = derive_params(field, atom)
    ratio = dp.f_at / dp.f0
    if saddle.regime == REGIME_MULTIPHOTON:
        w = strongfield_closed_prefactor() * field.omega * (field.omega / atom.e_b) ** 3 * ratio ** (11.0 / 3.0)
        method = "strongfield_closed"
    elif saddle.regime == REGIME_TUNNELING:
        decay = math.exp(-2.0 * ratio / 3.0)
        # ratio^3 overflows only far past the underflow of the exponential
        w = 0.0 if decay == 0.0 else \
            2.0 * field.omega * (field.omega / atom.e_b) ** 3 * ratio**3 * decay
        method = "tunneling_closed"
    else:
        raise RegimeError(f"y_m = {saddle.y_m:.3g} is intermediate; no closed form applies")
    return RateSummary(
        w_total=w,
        method=method,
        regime=saddle.regime,
        saddle=saddle,
        grid_report={"f_at_over_f0": ratio},
    )
