"""Differential ionization probability dW/dOmega per channel and direction.

Four formula families are provided, labelled by a stable integer tag that
also appears in the CSV output:

  42  relativistic, arbitrary polarization, complex generalized-Bessel
      amplitudes (direct + rescattering interfere at amplitude level)
  44  relativistic, circular polarization (ordinary Bessel, real bracket)
  55  relativistic, linear polarization: tag 42 at zeta = 0, where the
      generalized Bessel functions are real
  56  nonrelativistic, circular polarization
  59  nonrelativistic, linear polarization

One relativistic kernel, general_channel_dwdo, serves every zeta (tags 42
and 55); the circular closed form (tag 44) is its fast path at |zeta| = 1.

Angle conventions: the relativistic formulas measure theta from the wave
vector and phi from the major polarization axis e1.  The nonrelativistic
linear formula (tag 59) measures theta from the polarization vector
instead; the CLI documents both.

Which form serves a field follows from one rule on its zeta: "relativistic"
takes 44 for |zeta| = 1, 55 for zeta = 0 and 42 otherwise; "nonrelativistic"
takes 56 for |zeta| = 1 and 59 for zeta = 0, and has no elliptic form.
channel_spectrum and dwdo_nonrel take their tag from it, dwdo_circular and
dwdo_linear check the field against it, and dwdo_general takes tag 42 at
every zeta; all of them go through one row dispatcher.

Each result carries the direct (KFR) and rescattering amplitudes
separately.  For tags 44/56/59 the squared Bessel factor is absorbed into
the prefactor and the amplitudes are the dimensionless bracket entries
(1, r); dwdo = prefactor * |kfr + resc|^2 holds for tags 42/44/55/56,
while tag 59 carries its bracket unsquared, exactly as the closed form
states it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .kinematics import Atom, LaserField, effective_mass, threshold_n

__all__ = [
    "TAG_GENERAL",
    "TAG_CIRCULAR",
    "TAG_LINEAR",
    "TAG_NONREL_CIRCULAR",
    "TAG_NONREL_LINEAR",
    "SpectrumPoint",
    "dwdo_general",
    "dwdo_circular",
    "dwdo_linear",
    "dwdo_nonrel",
    "circular_channel_dwdo",
    "general_channel_dwdo",
    "nonrel_channel_dwdo",
    "channel_spectrum",
]

TAG_GENERAL = 42
TAG_CIRCULAR = 44
TAG_LINEAR = 55
TAG_NONREL_CIRCULAR = 56
TAG_NONREL_LINEAR = 59

# extra one-sided margin on the photon-exchange sum of the rescattering term
RESCATTER_MARGIN = 40


@dataclass(frozen=True)
class SpectrumPoint:
    """One spectrum sample.

    dwdo                differential probability per unit solid angle
                        (inverse time per steradian, m = 1 units)
    prefactor           everything outside the squared amplitude bracket
    kfr_amplitude       direct-transition amplitude entry
    rescatter_amplitude rescattering amplitude entry
    dwdo_kfr_only       dwdo with the rescattering amplitude zeroed before
                        squaring
    rescatter_factor    Re(resc/kfr); for the circular bracket this is the
                        plain factor g^2 / (2 (N - 2Z) k.Pi).  NaN when the
                        direct amplitude vanishes
    formula_tag         which closed form produced the point
    below_threshold     True for channels below the threshold of the form
                        (dwdo is exactly zero there)
    """

    n: int
    theta: float
    phi: float
    dwdo: float
    prefactor: float
    kfr_amplitude: complex
    rescatter_amplitude: complex
    dwdo_kfr_only: float
    rescatter_factor: float
    formula_tag: int
    below_threshold: bool


def _tag(field, formula):
    """The closed form that serves a field: formula x zeta -> tag."""
    circular, linear = abs(field.zeta) == 1.0, field.zeta == 0.0
    if formula == "relativistic":
        return TAG_CIRCULAR if circular else TAG_LINEAR if linear else TAG_GENERAL
    if formula != "nonrelativistic":
        raise ValueError(f"formula must be 'relativistic' or 'nonrelativistic', got {formula!r}")
    if not (circular or linear):
        raise ValueError("nonrelativistic formulas support circular or linear polarization only")
    return TAG_NONREL_CIRCULAR if circular else TAG_NONREL_LINEAR


def _pow2(x):
    """x**2 per element through libm pow, as the closed forms square a
    scalar: numpy's x**2 is x*x, which differs from pow in the last bit for
    ~0.1% of arguments, and the tag 44/56 outputs stay byte-identical."""
    return np.array([v ** 2 for v in x.tolist()])


def _kinematics(field, atom, n, theta):
    """(|Pi|, k.Pi, Z, g^2) of channel n over a 1-D theta array, with the
    arithmetic of channel_kinematics."""
    omega = field.omega
    pi0 = atom.epsilon0 + n * omega
    pi_abs = math.sqrt(max(pi0**2 - effective_mass(field) ** 2, 0.0))
    ct = np.cos(theta)
    k_pi = omega * (pi0 - pi_abs * ct)
    big_z = field.xi**2 / (4.0 * k_pi)
    g_sq = pi_abs**2 - 2.0 * n * omega * pi_abs * ct + (n * omega) ** 2
    return pi_abs, k_pi, big_z, g_sq


def _fsum_rows(terms):
    """math.fsum of each row of a 2-D array; real and imaginary parts apart."""
    real = np.array([math.fsum(row) for row in terms.real.tolist()])
    if not np.iscomplexobj(terms):
        return real
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = [math.fsum(row) for row in terms.imag.tolist()]
    return out


def _exchange_sum(ladder, n, w, v2, delta, zf, eps0, omega, alpha_prime):
    """Photon-exchange sum of the rescattering amplitude for every row of
    the J(u) ladder (one shared delta):

        sum_n' exp(-i(2n' - N) delta) J_n'(w) [(eps0 + 2 n' omega) conj(c_s)
            + omega alpha' zf / 2 conj(exp(-2i delta) c_{s-2} + exp(2i delta) c_{s+2})]

    with s = N - 2n' and c_s = J_s(u, v2, delta).  The exchange ladder can
    cancel many digits, so each row is summed exactly; |n'| <= k_ex grows
    for all rows until every row meets its tail bound.
    """
    if w == 0.0:
        # the sum collapses to the n' = 0 term
        c_n = specfun._series_rows(ladder, n, n, v2, delta)[:, 0]
        return specfun.phase_exp(n, delta) * eps0 * np.conj(c_n)
    k_ex = int(math.ceil(abs(w))) + RESCATTER_MARGIN
    while True:
        orders = np.arange(-k_ex, k_ex + 3)  # the last two are the tail
        nps = orders[:-2]
        j_ex = specfun._jn_ladder(orders, np.array([w]))[0]
        c_all = specfun._series_rows(ladder, n - 2 * k_ex - 2, n + 2 * k_ex + 2, v2, delta)
        s_idx = k_ex + 1 - nps  # the column of order s = N - 2n'
        pair = c_all[:, s_idx - 1] * specfun.phase_exp(-2, delta) \
            + c_all[:, s_idx + 1] * specfun.phase_exp(2, delta)
        bracket = (eps0 + 2.0 * nps * omega) * np.conj(c_all[:, s_idx]) \
            + omega * alpha_prime * zf / 2.0 * np.conj(pair)
        total = _fsum_rows(specfun.phase_exp(-(2 * nps - n), delta) * j_ex[:-2] * bracket)
        tail = (abs(j_ex[-2]) + abs(j_ex[-1])) \
            * 2.0 * (eps0 + 2.0 * (k_ex + 2) * omega + omega * alpha_prime * zf)
        if np.all(tail <= specfun.REL_TOL * np.maximum(np.abs(total), specfun.ABS_FLOOR)):
            return total
        if 2 * k_ex + 1 >= specfun.MAX_TERMS:
            raise specfun.SeriesConvergenceError(
                f"rescattering sum not converged for channel N={n}", tail
            )
        k_ex = int(k_ex * 1.5) + 8


def general_channel_dwdo(
    field: LaserField,
    atom: Atom,
    n: int,
    theta,
    phi,
    rescattering: bool = True,
):
    """Vectorized relativistic dW/dOmega for every zeta (tags 42 and 55) of
    channel n over arrays of emission angles (theta, phi), broadcast
    against each other.

    Returns (dwdo, prefactor, kfr, resc) arrays of the broadcast shape, kfr
    and resc complex (real at zeta = 0); all four are zero below the channel
    threshold.  The series is pi-periodic in the phase angle delta and
    delta -> delta - pi multiplies kfr and resc by the same (-1)^N, so
    delta = pi is folded to 0: at zeta = 0 every row runs at delta = 0 with
    the coupling |cos phi|.  Each distinct (theta, u, delta) row is
    evaluated once and scattered back (the truncations are maxima over
    rows, which duplicates do not move).  The rows are grouped by delta,
    which one series shares; within a group the rescattering series comes
    first and the direct amplitude reuses its J(u) ladder.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    shape = theta.shape
    if n < threshold_n(field, atom):
        z = np.zeros(shape)
        return z, z, z.astype(complex), z.astype(complex)
    th, ph = theta.ravel(), phi.ravel()

    zeta, omega, eps0 = field.zeta, field.omega, atom.epsilon0
    zf = 1.0 - zeta**2
    pi_abs, k_pi, big_z, g_sq = _kinematics(field, atom, n, th)
    st, cph, sph = np.sin(th), np.cos(ph), np.sin(ph)
    u = field.xi * pi_abs * st * np.sqrt(cph**2 + zeta**2 * sph**2) / k_pi
    # the phase angle of (|Pi| sin th cos ph, zeta |Pi| sin th sin ph) is
    # atan2(zeta sin ph, cos ph), the same for every theta of one phi; the
    # product form keeps channel_kinematics' value where |Pi| sin th = 0
    a = pi_abs * st
    dlt = np.where(a > 0.0, np.arctan2(zeta * sph, cph), np.arctan2(zeta * a * sph, a * cph))
    dlt[np.abs(dlt) == math.pi] = 0.0
    _, first, back = np.unique(np.stack([th, u, dlt], axis=1), axis=0,
                               return_index=True, return_inverse=True)
    k_pi, big_z, g_sq, u, dlt = (x[first] for x in (k_pi, big_z, g_sq, u, dlt))

    alpha_prime = field.xi**2 / (4.0 * omega * eps0)
    v_kfr = -big_z * zf / 2.0
    v2 = (big_z - alpha_prime) * zf / 2.0
    # every delta is 0 at zeta = 0: real amplitudes keep Re(resc/kfr) a real division
    kfr = np.empty(first.size, dtype=float if zeta == 0.0 else complex)
    total = np.empty(first.size, dtype=kfr.dtype)
    deltas, group = np.unique(dlt, return_inverse=True)
    for g, delta in enumerate(deltas.tolist()):
        rows = np.flatnonzero(group == g)
        ladder = specfun._Ladder(u[rows], n)
        total[rows] = _exchange_sum(ladder, n, -alpha_prime * zf / 2.0, v2[rows], delta,
                                    zf, eps0, omega, alpha_prime)
        kfr[rows] = specfun.phase_exp(n, delta) \
            * specfun._series_rows(ladder, n, n, v_kfr[rows], delta)[:, 0]

    d_coef = n - big_z * (1.0 + zeta**2)
    resc = g_sq / (2.0 * d_coef * k_pi) * total
    prefactor = (
        2.0**4 / (math.pi * atom.a**5)
        * d_coef**2 * k_pi**2 * pi_abs / g_sq**4
    )
    amp = kfr + resc if rescattering else kfr
    dwdo = prefactor * np.abs(amp) ** 2
    back = back.ravel()  # the shape of an axis-wise unique's inverse varies across numpy 2.x
    return tuple(a[back].reshape(shape) for a in (dwdo, prefactor, kfr, resc))


def circular_channel_dwdo(
    field: LaserField,
    atom: Atom,
    n: float,
    cos_theta: np.ndarray,
):
    """Vectorized circular (tag 44) dW/dOmega over an array of cos(theta).

    Returns (prefactor, r) arrays: dwdo is prefactor * (1 + r)^2 with
    rescattering and the prefactor alone without.  Shared by the spectrum
    path and the direct rate integrator so both see identical arithmetic.
    """
    mu = np.asarray(cos_theta, dtype=float)
    m_star = math.sqrt(1.0 + field.xi**2)
    pi0 = atom.epsilon0 + n * field.omega
    pi_sq = pi0**2 - m_star**2
    if pi_sq < 0.0:
        z = np.zeros_like(mu)
        return z, z
    pi_abs = math.sqrt(pi_sq)
    k_pi = field.omega * (pi0 - pi_abs * mu)
    big_z = field.xi**2 / (4.0 * k_pi)
    g_sq = pi_sq - 2.0 * n * field.omega * pi_abs * mu + (n * field.omega) ** 2
    alpha = field.xi * pi_abs * np.sqrt(np.maximum(1.0 - mu**2, 0.0)) / k_pi
    pref = (
        2.0**4 / (math.pi * atom.a**5)
        * (n - 2.0 * big_z) ** 2 * k_pi**2 * pi_abs / g_sq**4
        * specfun._jn(n, alpha) ** 2
    )
    return pref, g_sq / (2.0 * (n - 2.0 * big_z) * k_pi)


def _circular_rows(field, atom, n, theta, rescattering):
    """Tag 44 over a 1-D theta array: (dwdo, prefactor, kfr, resc) with the
    bracket amplitudes (1, r), zero below the channel threshold."""
    if n < threshold_n(field, atom):
        z = np.zeros(theta.shape)
        return z, z, z, z
    pref, r = circular_channel_dwdo(field, atom, float(n), np.cos(theta))
    dwdo = pref * _pow2(np.abs(1.0 + r)) if rescattering else pref
    return dwdo, pref, np.ones(theta.shape), r


def _nonrel_channel(field, atom, n, tag):
    """(z, X) of a channel of the nonrelativistic form `tag`: the
    ponderomotive parameter z = xi^2 / (4 omega) and the kinetic photon
    number X."""
    z = field.xi**2 / (4.0 * field.omega)
    return z, n - (2.0 * z if tag == TAG_NONREL_CIRCULAR else z) - atom.e_b / field.omega


def nonrel_channel_dwdo(
    field: LaserField,
    atom: Atom,
    n: int,
    theta,
    rescattering: bool = True,
):
    """Vectorized nonrelativistic dW/dOmega of channel n over an array of
    theta: tag 56 for |zeta| = 1, tag 59 for zeta = 0, ValueError for an
    elliptic field.

    Returns (dwdo, prefactor, kfr, resc) arrays of theta's shape, with the
    bracket amplitudes (1, rho); all four are zero at and below the
    threshold X <= 0.
    """
    theta = np.asarray(theta, dtype=float)
    tag = _tag(field, "nonrelativistic")
    z, x_kin = _nonrel_channel(field, atom, n, tag)
    if x_kin <= 0.0:
        zero = np.zeros(theta.shape)
        return zero, zero, zero, zero
    th = theta.ravel()
    omega, xi = field.omega, field.xi
    eb_w = atom.e_b / omega

    if tag == TAG_NONREL_CIRCULAR:
        p = math.sqrt(2.0 * omega * x_kin)
        j_sq = _pow2(specfun._jn(n, xi / omega * p * np.sin(th)))
        pref = (
            8.0 * omega / math.pi * eb_w**2.5
            * math.sqrt(x_kin) / (n - 2.0 * z) ** 2 * j_sq
        )
        rho = x_kin / (n - 2.0 * z)
        dwdo = pref * (abs(1.0 + rho) ** 2 if rescattering else 1.0)
    else:
        u = math.sqrt(z) * (math.sqrt(8.0 * x_kin) * np.cos(th))
        j = specfun.gen_bessel_orders(n, n, u, np.full(th.shape, -z / 2.0), 0.0)[:, 0].real
        pref = (
            8.0 * omega / math.pi * eb_w**2.5
            * math.sqrt(x_kin) / (n - z) ** 2 * _pow2(j)
        )
        rho = x_kin / (n - z)
        dwdo = pref * (1.0 + rho) if rescattering else pref
    rows = (dwdo, pref, np.ones(th.shape), np.full(th.shape, rho))
    return tuple(a.reshape(theta.shape) for a in rows)


def _rows(field, atom, n, theta, phi, tag, rescattering):
    """Channel n by the closed form `tag` over 1-D angle arrays:
    (dwdo, prefactor, kfr, resc, kfr_only_dwdo, rescatter_factor).  The
    azimuth-independent tags 44/56/59 are evaluated once per distinct
    theta."""
    if tag in (TAG_GENERAL, TAG_LINEAR):
        rows = general_channel_dwdo(field, atom, n, theta, phi, rescattering)
    else:
        thetas, back = np.unique(theta, return_inverse=True)
        kernel = _circular_rows if tag == TAG_CIRCULAR else nonrel_channel_dwdo
        rows = tuple(a[back] for a in kernel(field, atom, n, thetas, rescattering))
    dwdo, pref, kfr, resc = rows
    kfr_only = pref if tag == TAG_NONREL_LINEAR else pref * np.abs(kfr) ** 2
    # a zero direct amplitude gives NaN; one near underflow (at theta = pi,
    # say) gives a ratio past the double range, written as inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rescatter_factor = np.where(kfr == 0, np.nan, (resc / kfr).real)
    return dwdo, pref, kfr, resc, kfr_only, rescatter_factor


def _point(field, atom, n, theta, phi, tag, rescattering):
    """SpectrumPoint of channel n at one emission direction by the closed
    form `tag`; the channel is below threshold at n < threshold_n for the
    relativistic forms and at X <= 0 for the nonrelativistic ones."""
    n = int(n)
    rows = _rows(field, atom, n, np.array([float(theta)]), np.array([float(phi)]), tag,
                 rescattering)
    dwdo, pref, kfr, resc, kfr_only, factor = (a[0] for a in rows)
    if tag in (TAG_NONREL_CIRCULAR, TAG_NONREL_LINEAR):
        below = _nonrel_channel(field, atom, n, tag)[1] <= 0.0
    else:
        below = n < threshold_n(field, atom)
    return SpectrumPoint(
        n=n, theta=theta, phi=phi, dwdo=float(dwdo), prefactor=float(pref),
        kfr_amplitude=complex(kfr), rescatter_amplitude=complex(resc),
        dwdo_kfr_only=float(kfr_only), rescatter_factor=float(factor),
        formula_tag=tag, below_threshold=bool(below),
    )


def dwdo_general(
    field: LaserField,
    atom: Atom,
    n: int,
    theta: float,
    phi: float,
    rescattering: bool = True,
) -> SpectrumPoint:
    """Relativistic dW/dOmega for arbitrary polarization (tag 42).

    The direct amplitude is exp(i N th_p) J_N(alpha, -Z(1-zeta^2)/2, th_p)
    with th_p the polarization phase angle of the emission direction.  The
    rescattering amplitude sums photon exchanges n' with weight
    g^2 / (2 m (N - Z(1+zeta^2)) k.Pi), an ordinary-Bessel factor
    J_n'(-alpha'(1-zeta^2)/2) and conjugated generalized-Bessel brackets.
    One-point form of general_channel_dwdo, at every zeta.
    """
    return _point(field, atom, n, theta, phi, TAG_GENERAL, rescattering)


def dwdo_circular(
    field: LaserField,
    atom: Atom,
    n: int,
    theta: float,
    rescattering: bool = True,
) -> SpectrumPoint:
    """Relativistic circular-polarization dW/dOmega (tag 44).

    Requires |zeta| = 1; azimuth-independent.  The squared ordinary Bessel
    J_N^2(alpha) sits in the prefactor and the bracket amplitudes are
    (1, r) with r = g^2 / (2 (N - 2Z) k.Pi), so dwdo(on)/dwdo(off)
    equals (1 + r)^2.
    """
    if _tag(field, "relativistic") != TAG_CIRCULAR:
        raise ValueError("dwdo_circular requires circular polarization (|zeta| = 1)")
    return _point(field, atom, n, theta, 0.0, TAG_CIRCULAR, rescattering)


def dwdo_linear(
    field: LaserField,
    atom: Atom,
    n: int,
    theta: float,
    phi: float,
    rescattering: bool = True,
) -> SpectrumPoint:
    """Relativistic linear-polarization dW/dOmega (tag 55).

    Tag 42 at zeta = 0: the generalized Bessel functions are real and the
    azimuth enters through |cos phi| in the coupling amplitude, which makes
    the spectrum even under phi -> -phi and phi -> pi - phi.
    """
    if _tag(field, "relativistic") != TAG_LINEAR:
        raise ValueError("dwdo_linear requires linear polarization (zeta = 0)")
    return _point(field, atom, n, theta, phi, TAG_LINEAR, rescattering)


def dwdo_nonrel(
    field: LaserField,
    atom: Atom,
    n: int,
    theta: float,
    rescattering: bool = True,
) -> SpectrumPoint:
    """Nonrelativistic dW/dOmega: tag 56 for a circular field, tag 59 for a
    linear one; an elliptic field raises ValueError.

    The ponderomotive parameter is z = xi^2 / (4 omega) and the channel
    kinetic energy is omega * X with X = N - 2z - E_B/omega (circular) or
    X = N - z - E_B/omega (linear).  For the linear case theta is measured
    from the polarization vector and the rescattering brace enters
    unsquared, exactly as the closed form states it.
    """
    return _point(field, atom, n, theta, 0.0, _tag(field, "nonrelativistic"), rescattering)


def channel_spectrum(
    field: LaserField,
    atom: Atom,
    n: int,
    theta,
    phi,
    formula: str = "relativistic",
    rescattering: bool = True,
):
    """The `ati spectrum` columns of channel n over 1-D arrays of emission
    angles (theta, phi): (tag, dwdo, kfr_only_dwdo, rescatter_factor), the
    tag by the rule of the module docstring.  Each row equals the
    SpectrumPoint of the one-point function at its angles: bit for bit for
    tags 44/56/59, to roundoff otherwise.
    """
    tag = _tag(field, formula)
    dwdo, _, _, _, kfr_only, rescatter_factor = _rows(field, atom, n, theta, phi, tag,
                                                      rescattering)
    return tag, dwdo, kfr_only, rescatter_factor
