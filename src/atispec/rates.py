"""Total ionization rates: direct channel summation, Airy/steepest-descent
asymptotics, and the closed-form strong-field and tunneling limits.

The channel-summed spectrum peaks at the photon number
N_m = (m*^2 - eps0^2)/(eps0 omega) ~ m xi^2 / omega and the emission angle
with cos(theta_m) = |Pi|/Pi0.  Replacing J_N by its Airy approximation
turns the peak height into Ai^2(y_m) with the regime parameter
y_m = (F_at / 2 F0)^(2/3): small y_m is the multiphoton strong-field
regime, large y_m the tunneling regime.

All quadratures use fixed node sets and pairwise numpy reductions, so a
rate is bit-reproducible for a given grid regardless of how the channel
map is scheduled.  Gauss-Legendre and Gauss-Kronrod node sets are built
once per size.

The Airy-form meshes (rate_airy, rate_laplace) are evaluated in blocks of
rows, and Ai only where a point can count: for y > 0,
Ai(y) <= L(y) = exp(-2/3 y^(3/2)) / (2 sqrt(pi) y^(1/4)) (the asymptotic
expansion envelopes Ai, DLMF 9.7(iv)), with L/Ai <= 1.0706 for y >= 1.
With B = prefactor * L^2 * quadrature weights, Lambda = (sum of B over
y >= 1) / 1.15 is a lower bound on the rate, and a point with y >= 1 and
B <= 2^-60 Lambda / (mesh points) gets Ai^2 = 0, so the points left out
carry at most 2^-60 of the rate.
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
from .spectra import circular_channel_dwdo, general_channel_dwdo

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

    theta_points  n of the cos(theta) rule: the direct rate evaluates the
                  2n+1 nodes of its Gauss-Kronrod extension, which hold
                  the n Gauss-Legendre nodes
    phi_points    uniform azimuth panels (non-circular polarization);
                  panels that fold onto the same azimuth in [0, pi/2]
                  are evaluated once
    n_lo          first summed channel, clamped up to the threshold n0;
                  None means n0
    n_cut         channel cutoff; None means n_m + 6 delta_n
    channel_cap   hard cap on the number of summed channels

    The defaults are for library use on circular fields.  On a
    non-circular field every (theta, azimuth) row runs the general
    amplitude kernel: theta_points=200 (401 Kronrod nodes) with 16 panels
    (5 folded azimuths) costs ~1 s per channel on the desk fields (omega
    0.01, xi 1; 2-core VM), several minutes per rate_direct call over a
    ~200-channel window.  The CLI's theta_points default is 24.
    """

    theta_points: int = 200
    phi_points: int = 16
    n_lo: int | None = None
    n_cut: int | None = None
    channel_cap: int = DEFAULT_RATE_CHANNEL_CAP


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


def airy_argument(field: LaserField, atom: Atom, n: float, theta: float) -> float:
    """Airy argument y(N, theta) = (N/2)^(2/3) (1 - alpha^2 / N^2)."""
    ck = channel_kinematics(field, atom, n, theta, 0.0)
    return (n / 2.0) ** (2.0 / 3.0) * (1.0 - ck.alpha_amp**2 / n**2)


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
            n_cut = n0 + 50
        else:
            n_cut = int(math.ceil(saddle.n_m + 6.0 * saddle.delta_n))
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


def _direct_once(field, atom, n0, n_cut, theta_points, phi_points, rescattering):
    """Kronrod sums K and Gauss sums G of every channel of the window, from
    one evaluation of each channel at the 2n+1 Gauss-Kronrod cos(theta)
    nodes (the n Gauss nodes among them).  Returns (K, G) arrays."""
    mu, w_k = _gauss_kronrod(theta_points)
    w_g = _gauss_legendre(theta_points)[1]
    if abs(field.zeta) == 1.0:
        # azimuthal symmetry: analytic 2 pi
        def profile(n):
            pref, r = circular_channel_dwdo(field, atom, float(n), mu)
            return 2.0 * math.pi * (pref * (1.0 + r) ** 2 if rescattering else pref)
    else:
        # |amp|^2 is even under phi -> -phi (amp -> conj amp) and under
        # phi -> pi - phi (amp -> (-1)^N conj amp), for every zeta, so panel
        # j at 2 pi j / P is folded into [0, pi/2]; the fold is integer
        # arithmetic before the angle, so mirrored panels get bitwise-equal
        # azimuths, which general_channel_dwdo evaluates once
        j = np.arange(phi_points)
        j = np.minimum(j, phi_points - j)
        phis = math.pi * np.minimum(2 * j, phi_points - 2 * j) / phi_points
        w_phi = 2.0 * math.pi / phi_points
        thetas, phis = np.meshgrid(np.arccos(mu), phis, indexing="ij")

        def profile(n):
            # the whole (theta, phi) grid of the channel in one call
            vals = general_channel_dwdo(field, atom, n, thetas, phis, rescattering)[0]
            return np.array([math.fsum(row) for row in vals.tolist()]) * w_phi

    sums = [(np.dot(w_k, p), np.dot(w_g, p[1::2])) for p in map(profile, range(n0, n_cut + 1))]
    sums = np.array(sums, dtype=float).reshape(-1, 2)
    return sums[:, 0], sums[:, 1]


def rate_direct(
    field: LaserField,
    atom: Atom,
    grid: GridSpec | None = None,
    rescattering: bool = True,
) -> RateSummary:
    """Total rate by exact channel summation and angular quadrature.

    Circular polarization (|zeta| = 1) integrates the tag-44 closed form in
    cos(theta) and takes the azimuth analytically; every other zeta
    integrates general_channel_dwdo over uniform azimuth panels as well.
    Each channel is evaluated once, at the 2n+1 nodes of the Gauss-Kronrod
    extension of the n = grid.theta_points Gauss-Legendre rule in
    cos(theta).  w_total is the Kronrod sum K (exact to degree 3n + 1);
    quad_error_estimate = |K - G|, with G the n-node Gauss sum over the
    same values (exact to degree 2n - 1), is the error of the n-node rule,
    which makes it a conservative estimate for K.  An estimate above 1% of
    the total is carried as a warning, never an exception.  The channels
    summed are grid.n_lo (clamped up to the threshold) to grid.n_cut.

    The default grid suits circular fields; with it a non-circular field
    takes ~1 s per channel on the desk fields, several minutes per call
    (see GridSpec).  The CLI passes theta_points=24 unless configured.
    """
    grid = grid or GridSpec()
    saddle = _try_saddle(field, atom)
    n0, n_cut = _channel_range(field, atom, saddle, grid.n_cut, grid.channel_cap, grid.n_lo)
    per_channel, gauss = _direct_once(field, atom, n0, n_cut, grid.theta_points,
                                      grid.phi_points, rescattering)
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
            "phi_points": 1 if abs(field.zeta) == 1.0 else grid.phi_points,
            "quad_error_estimate": estimate,
            "tail_channel_sum": tail,
        },
        warnings=warnings,
    )


# the rate_airy mesh: N points (trapezoid) by theta points (Gauss-Legendre)
AIRY_N_POINTS = 2000
AIRY_THETA_POINTS = 300
# half-width of the rate_laplace window, in peak widths
LAPLACE_WIDTHS = 8.0

# points per row block of an Airy-form mesh (two airy_ai blocks)
_MESH_BLOCK = 16384
# a point is left out when its bound B is at most this share of the lower
# bound Lambda averaged over the mesh points
_SKIP_SHARE = 2.0**-60
# (L/Ai)^2 <= 1.0706^2 < 1.15 for y >= 1
_ENVELOPE_SQ_MAX = 1.15


def _trapezoid_weights(x):
    """Weights of the trapezoid rule on the nodes x."""
    half = np.diff(x) / 2.0
    w = np.zeros(x.size)
    w[:-1] += half
    w[1:] += half
    return w


def _mesh_block(field, atom, n_col, theta_row, smooth):
    """Airy argument y, and the smooth prefactor split around Ai^2 as
    (pre, post) (both None unless smooth), on the mesh of an N column and a
    theta row; the per-element operations are those of a full meshgrid."""
    omega, xi = field.omega, field.xi
    m_star = effective_mass(field)
    cos_t = np.cos(theta_row)
    pi0 = atom.epsilon0 + n_col * omega
    pi_abs = np.sqrt(np.maximum(pi0**2 - m_star**2, 0.0))
    k_pi = omega * (pi0 - pi_abs * cos_t)
    g_sq = pi_abs**2 - 2.0 * n_col * omega * pi_abs * cos_t + (n_col * omega) ** 2
    alpha = xi * pi_abs * np.sin(theta_row) / k_pi
    y = (n_col / 2.0) ** (2.0 / 3.0) * (1.0 - alpha**2 / n_col**2)
    if not smooth:
        return y, None, None
    big_z = xi**2 / (4.0 * k_pi)
    r = g_sq / (2.0 * (n_col - 2.0 * big_z) * k_pi)
    pre = (2.0 / n_col) ** (2.0 / 3.0) * (n_col - 2.0 * big_z) ** 2 * k_pi**2 * pi_abs / g_sq**4
    return y, pre, (1.0 + r) ** 2


def _airy_mesh(field, atom, n_grid, theta_grid, w_theta, smooth=True):
    """Airy-form rate integrand on the (N, theta) mesh, in row blocks.

    smooth=True gives prefactor(N, theta) * Ai^2(y) * sin(theta), the
    integrand of rate_airy; smooth=False gives Ai^2(y) alone.  The bound B
    of the skip rule (module docstring) takes trapezoid weights in N and
    w_theta in theta; a point whose y or B is NaN or infinite always gets
    its Ai.  Returns (integrand, Lambda).
    """
    w_n = _trapezoid_weights(n_grid)
    w_row = w_theta * np.sin(theta_grid) if smooth else w_theta
    rows = max(_MESH_BLOCK // theta_grid.size, 1)
    out = np.empty((n_grid.size, theta_grid.size))
    blocks = []
    lam = 0.0
    for i in range(0, n_grid.size, rows):
        blk = slice(i, i + rows)
        y, pre, post = _mesh_block(field, atom, n_grid[blk, None], theta_grid, smooth)
        # B, NaN off the range 1 <= y < inf of the envelope bound
        y_env = np.where((y >= 1.0) & (y < math.inf), y, math.nan)
        root = np.sqrt(y_env)
        with np.errstate(over="ignore", invalid="ignore"):
            b = np.exp(-4.0 / 3.0 * y_env * root) / (4.0 * math.pi * root)  # L^2
            b *= w_n[blk, None] * w_row
            if smooth:
                b *= pre * post
        lam += float(np.sum(b, where=np.isfinite(b)))
        out[blk] = b
        blocks.append((blk, y, pre, post))
    lam /= _ENVELOPE_SQ_MAX
    cut = _SKIP_SHARE * lam / out.size
    if not 0.0 < cut < math.inf:
        cut = -1.0  # no bound to go by: every point gets its Ai
    for blk, y, pre, post in blocks:
        need = ~(out[blk] <= cut)
        ai2 = np.zeros(y.shape)
        ai2[need] = airy_ai(y[need]) ** 2
        out[blk] = pre * ai2 * post * np.sin(theta_grid) if smooth else ai2
    return out, lam


def rate_airy(field: LaserField, atom: Atom) -> RateSummary:
    """Total circular-polarization rate with J_N replaced by its Airy form
    and the channel sum replaced by an integral over continuous N.

    Requires |zeta| = 1 and a peak photon number n_m >= 50 for the
    large-order asymptotics to make sense.
    """
    if abs(field.zeta) != 1.0:
        raise ValueError("rate_airy requires circular polarization")
    saddle = _try_saddle(field, atom)
    if saddle is None or saddle.n_m < 50.0:
        raise AsymptoticsError(
            f"peak photon number {'below threshold' if saddle is None else saddle.n_m} "
            "too small for the large-order asymptotics (need n_m >= 50)"
        )
    n0 = threshold_n(field, atom)
    n_hi = saddle.n_m + 6.0 * saddle.delta_n
    n_grid = np.linspace(float(n0), n_hi, AIRY_N_POINTS)
    x, w = _gauss_legendre(AIRY_THETA_POINTS)
    theta_grid = (x + 1.0) * math.pi / 2.0
    w_theta = w * math.pi / 2.0
    integrand, _ = _airy_mesh(field, atom, n_grid, theta_grid, w_theta)
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
    exact Airy argument over a +-LAPLACE_WIDTHS peak neighborhood.  Used to
    check the Airy-form integral against the strong-field closed form.
    """
    if abs(field.zeta) != 1.0:
        raise ValueError("rate_laplace requires circular polarization")
    saddle = saddle_point(field, atom)
    n0 = threshold_n(field, atom)
    n_m, th_m = saddle.n_m, saddle.theta_m
    theta_m = np.array([th_m])
    _, pre, post = _mesh_block(field, atom, np.array([[n_m]]), theta_m, smooth=True)
    prefactor = float((pre * post * np.sin(theta_m))[0, 0])

    n_lo = max(float(n0), n_m - LAPLACE_WIDTHS * saddle.delta_n)
    n_grid = np.linspace(n_lo, n_m + LAPLACE_WIDTHS * saddle.delta_n, 3000)
    t_lo = max(0.0, th_m - LAPLACE_WIDTHS * saddle.delta_theta)
    t_hi = min(math.pi, th_m + LAPLACE_WIDTHS * saddle.delta_theta)
    theta_grid = np.linspace(t_lo, t_hi, 800)
    ai2, _ = _airy_mesh(field, atom, n_grid, theta_grid, _trapezoid_weights(theta_grid), smooth=False)
    mass = float(np.trapezoid(np.trapezoid(ai2, theta_grid, axis=1), n_grid))
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


def rate_closed(
    field: LaserField,
    atom: Atom,
    branch: str | None = None,
) -> RateSummary:
    """Closed-form rate in the regime found by saddle_point.

    multiphoton_strongfield:
        W = 2^(7/3) pi / (3^(4/3) Gamma^2(2/3)) omega (omega/E_B)^3
            (F_at/F0)^(11/3)
    tunneling:
        W = 2 omega (omega/E_B)^3 (F_at/F0)^3 exp(-2 F_at / (3 F0))

    The intermediate regime raises RegimeError unless a branch is forced.
    """
    saddle = saddle_point(field, atom)
    dp = derive_params(field, atom)
    regime = branch or saddle.regime
    ratio = dp.f_at / dp.f0
    if regime == REGIME_MULTIPHOTON:
        w = strongfield_closed_prefactor() * field.omega * (field.omega / atom.e_b) ** 3 * ratio ** (11.0 / 3.0)
        method = "strongfield_closed"
    elif regime == REGIME_TUNNELING:
        decay = math.exp(-2.0 * ratio / 3.0)
        # ratio^3 overflows only far past the underflow of the exponential
        w = 0.0 if decay == 0.0 else \
            2.0 * field.omega * (field.omega / atom.e_b) ** 3 * ratio**3 * decay
        method = "tunneling_closed"
    else:
        raise RegimeError(
            f"y_m = {saddle.y_m:.3g} is intermediate; force a branch to proceed"
        )
    return RateSummary(
        w_total=w,
        method=method,
        regime=saddle.regime,
        saddle=saddle,
        grid_report={"f_at_over_f0": ratio},
    )
