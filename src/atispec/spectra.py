"""Differential ionization probability dW/dOmega per channel and direction.

Four formula families are provided, labelled by a stable integer tag that
also appears in the CSV output:

  42  relativistic, arbitrary polarization, complex generalized-Bessel
      amplitudes (direct + rescattering interfere at amplitude level)
  44  relativistic, circular polarization (ordinary Bessel, real bracket)
  55  relativistic, linear polarization (real generalized Bessel)
  56  nonrelativistic, circular polarization
  59  nonrelativistic, linear polarization

Angle conventions: the relativistic formulas measure theta from the wave
vector and phi from the major polarization axis e1.  The nonrelativistic
linear formula (tag 59) measures theta from the polarization vector
instead; the CLI documents both.

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
from .kinematics import (
    Atom,
    BelowThresholdError,
    LaserField,
    channel_kinematics,
    effective_mass,
    threshold_n,
)
from .specfun import SeriesControl

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
    "linear_channel_dwdo",
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
    formula_tag         which closed form produced the point
    below_threshold     True for channels below the photon-number threshold
                        (dwdo is exactly zero there)
    """

    n: int
    theta: float
    phi: float
    dwdo: float
    prefactor: float
    kfr_amplitude: complex
    rescatter_amplitude: complex
    formula_tag: int
    below_threshold: bool = False

    @property
    def dwdo_kfr_only(self) -> float:
        """dwdo with the rescattering amplitude zeroed before squaring."""
        if self.formula_tag == TAG_NONREL_LINEAR:
            return self.prefactor
        return self.prefactor * abs(self.kfr_amplitude) ** 2

    @property
    def rescatter_factor(self) -> float:
        """Re(resc/kfr); for the circular bracket this is the plain factor
        g^2 / (2 (N - 2Z) k.Pi).  NaN when the direct amplitude vanishes."""
        if self.kfr_amplitude == 0:
            return math.nan
        return (self.rescatter_amplitude / self.kfr_amplitude).real


def _zero_point(n, theta, phi, tag):
    return SpectrumPoint(
        n=int(n), theta=theta, phi=phi, dwdo=0.0, prefactor=0.0,
        kfr_amplitude=0j, rescatter_amplitude=0j, formula_tag=tag,
        below_threshold=True,
    )


def _square(prefactor, kfr, resc, rescattering):
    amp = kfr + (resc if rescattering else 0j)
    return prefactor * abs(amp) ** 2


def dwdo_general(
    field: LaserField,
    atom: Atom,
    n: int,
    theta: float,
    phi: float,
    rescattering: bool = True,
    control: SeriesControl | None = None,
) -> SpectrumPoint:
    """Relativistic dW/dOmega for arbitrary polarization (tag 42).

    The direct amplitude is exp(i N th_p) J_N(alpha, -Z(1-zeta^2)/2, th_p)
    with th_p the polarization phase angle of the emission direction.  The
    rescattering amplitude sums photon exchanges n' with weight
    g^2 / (2 m (N - Z(1+zeta^2)) k.Pi), an ordinary-Bessel factor
    J_n'(-alpha'(1-zeta^2)/2) and conjugated generalized-Bessel brackets.
    """
    ctl = control or specfun.DEFAULT_CONTROL
    n = int(n)
    try:
        ck = channel_kinematics(field, atom, n, theta, phi)
    except BelowThresholdError:
        return _zero_point(n, theta, phi, TAG_GENERAL)

    zeta = field.zeta
    zf = 1.0 - zeta**2
    eps0 = atom.epsilon0
    omega = field.omega
    alpha_prime = field.xi**2 / (4.0 * omega * eps0)
    u, dlt = ck.alpha_amp, ck.phase_angle
    d_coef = n - ck.big_z * (1.0 + zeta**2)

    kfr = specfun.phase_exp(n, dlt) * specfun.gen_bessel(n, u, -ck.big_z * zf / 2.0, dlt, ctl)

    w = -alpha_prime * zf / 2.0
    if w == 0.0:
        # photon-exchange sum collapses to the n' = 0 term
        c_n = specfun.gen_bessel(n, u, (ck.big_z - alpha_prime) * zf / 2.0, dlt, ctl)
        total = specfun.phase_exp(n, dlt) * eps0 * np.conj(c_n)
    else:
        k_ex = int(math.ceil(abs(w))) + RESCATTER_MARGIN
        while True:
            nps = np.arange(-k_ex, k_ex + 1)
            j_ex = specfun._jn(nps, w)
            v2 = (ck.big_z - alpha_prime) * zf / 2.0
            s_lo, s_hi = n - 2 * k_ex - 2, n + 2 * k_ex + 2
            c_all = specfun.gen_bessel_orders(s_lo, s_hi, u, v2, dlt, ctl)
            s_idx = n - 2 * nps
            c_s = c_all[s_idx - s_lo]
            c2_pair = (
                c_all[s_idx - 2 - s_lo] * specfun.phase_exp(-2, dlt)
                + c_all[s_idx + 2 - s_lo] * specfun.phase_exp(2, dlt)
            )
            brackets = (eps0 + 2.0 * nps * omega) * np.conj(c_s) \
                + omega * alpha_prime * zf / 2.0 * np.conj(c2_pair)
            terms = specfun.phase_exp(-(2 * nps - n), dlt) * j_ex * brackets
            terms = terms.astype(complex, copy=False)
            # exact summation: the exchange ladder can cancel many digits
            total = complex(math.fsum(terms.real), math.fsum(terms.imag))
            tail = (abs(specfun._jn(k_ex + 1, w)) + abs(specfun._jn(k_ex + 2, w))) \
                * 2.0 * (eps0 + 2.0 * (k_ex + 2) * omega + omega * alpha_prime * zf)
            if tail <= ctl.rel_tol * max(abs(total), ctl.abs_floor):
                break
            if 2 * k_ex + 1 >= ctl.max_terms:
                raise specfun.SeriesConvergenceError(
                    f"rescattering sum not converged for channel N={n}", tail
                )
            k_ex = int(k_ex * 1.5) + 8

    resc = ck.g_sq / (2.0 * d_coef * ck.k_dot_pi) * total
    prefactor = (
        2.0**4 / (math.pi * atom.a**5)
        * d_coef**2 * ck.k_dot_pi**2 * ck.pi_abs / ck.g_sq**4
    )
    dwdo = _square(prefactor, kfr, resc, rescattering)
    return SpectrumPoint(
        n=n, theta=theta, phi=phi, dwdo=float(dwdo), prefactor=float(prefactor),
        kfr_amplitude=complex(kfr), rescatter_amplitude=complex(resc),
        formula_tag=TAG_GENERAL,
    )


def circular_channel_dwdo(
    field: LaserField,
    atom: Atom,
    n: float,
    cos_theta: np.ndarray,
    rescattering: bool = True,
):
    """Vectorized circular dW/dOmega over an array of cos(theta).

    Returns (dwdo, rescatter_factor) arrays; shared by the scalar wrapper
    and the direct rate integrator so both see identical arithmetic.
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
    r = g_sq / (2.0 * (n - 2.0 * big_z) * k_pi)
    bracket = (1.0 + r) ** 2 if rescattering else np.ones_like(r)
    return pref * bracket, r


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
    if abs(field.zeta) != 1.0:
        raise ValueError("dwdo_circular requires circular polarization (|zeta| = 1)")
    n = int(n)
    if n < threshold_n(field, atom):
        return _zero_point(n, theta, 0.0, TAG_CIRCULAR)
    mu = np.array([math.cos(theta)])
    pref_arr, r_arr = circular_channel_dwdo(field, atom, float(n), mu, rescattering=False)
    pref, r = float(pref_arr[0]), float(r_arr[0])
    dwdo = _square(pref, 1.0 + 0j, complex(r), rescattering)
    return SpectrumPoint(
        n=n, theta=theta, phi=0.0, dwdo=float(dwdo), prefactor=pref,
        kfr_amplitude=1.0 + 0j, rescatter_amplitude=complex(r),
        formula_tag=TAG_CIRCULAR,
    )


def linear_channel_dwdo(
    field: LaserField,
    atom: Atom,
    n: int,
    theta,
    phi,
    rescattering: bool = True,
    control: SeriesControl | None = None,
):
    """Vectorized linear-polarization dW/dOmega (tag 55) of channel n over
    arrays of emission angles (theta, phi), broadcast against each other.

    Returns (dwdo, prefactor, kfr, resc) arrays of the broadcast shape;
    all four are zero below the channel threshold.  The direct and the
    rescattering series share one J(u) ladder for all points, and the
    photon-exchange sum is summed exactly per point.  Shared by the
    one-point wrapper and the direct rate integrator, so both see
    identical arithmetic.
    """
    if field.zeta != 0.0:
        raise ValueError("dwdo_linear requires linear polarization (zeta = 0)")
    ctl = control or specfun.DEFAULT_CONTROL
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    shape = theta.shape
    if n < threshold_n(field, atom):
        z = np.zeros(shape)
        return z, z, z, z
    th, ph = theta.ravel(), phi.ravel()

    eps0, omega, xi = atom.epsilon0, field.omega, field.xi
    pi0 = eps0 + n * omega
    pi_abs = math.sqrt(max(pi0**2 - effective_mass(field) ** 2, 0.0))
    ct = np.cos(th)
    k_pi = omega * (pi0 - pi_abs * ct)
    big_z = xi**2 / (4.0 * k_pi)
    g_sq = pi_abs**2 - 2.0 * n * omega * pi_abs * ct + (n * omega) ** 2
    ladder = specfun._Ladder(xi * pi_abs * np.sin(th) * np.abs(np.cos(ph)) / k_pi)
    alpha_prime = xi**2 / (4.0 * omega * eps0)

    # the rescattering series first: its order range nearly always holds
    # the direct one, so the direct amplitude reuses the same ladder
    w = -alpha_prime / 2.0
    v2 = (big_z - alpha_prime) / 2.0
    k_ex = int(math.ceil(abs(w))) + RESCATTER_MARGIN
    while True:
        orders = np.arange(-k_ex, k_ex + 3)  # the last two are the tail
        nps = orders[:-2]
        j_ex = specfun._jn(orders, w)
        s_lo, s_hi = n - 2 * k_ex - 2, n + 2 * k_ex + 2
        c_all = specfun._series_rows(ladder, s_lo, s_hi, v2, 0.0, ctl)
        s_idx = n - 2 * nps - s_lo
        inner = (eps0 + 2.0 * nps * omega) * c_all[:, s_idx] \
            + omega * alpha_prime * 1.0 / 2.0 * (c_all[:, s_idx - 2] + c_all[:, s_idx + 2])
        # exact summation: the exchange ladder can cancel many digits
        total = np.array([math.fsum(row) for row in (j_ex[:-2] * inner).tolist()])
        tail = (abs(j_ex[-2]) + abs(j_ex[-1])) \
            * 2.0 * (eps0 + 2.0 * (k_ex + 2) * omega + omega * alpha_prime)
        if np.all(tail <= ctl.rel_tol * np.maximum(np.abs(total), ctl.abs_floor)):
            break
        if 2 * k_ex + 1 >= ctl.max_terms:
            raise specfun.SeriesConvergenceError(
                f"rescattering sum not converged for channel N={n}", tail
            )
        k_ex = int(k_ex * 1.5) + 8
    kfr = specfun._series_rows(ladder, n, n, -big_z / 2.0, 0.0, ctl)[:, 0]

    resc = g_sq / (2.0 * (n - big_z) * k_pi) * total
    prefactor = (
        2.0**4 / (math.pi * atom.a**5)
        * (n - big_z) ** 2 * k_pi**2 * pi_abs / g_sq**4
    )
    amp = kfr + resc if rescattering else kfr
    dwdo = prefactor * amp**2
    return tuple(a.reshape(shape) for a in (dwdo, prefactor, kfr, resc))


def dwdo_linear(
    field: LaserField,
    atom: Atom,
    n: int,
    theta: float,
    phi: float,
    rescattering: bool = True,
    control: SeriesControl | None = None,
) -> SpectrumPoint:
    """Relativistic linear-polarization dW/dOmega (tag 55).

    Built on the real generalized Bessel J_n(u, v); the azimuth enters
    through |cos phi| in the coupling amplitude, which makes the spectrum
    even under phi -> -phi and phi -> pi - phi.  One-point wrapper of
    linear_channel_dwdo.
    """
    n = int(n)
    dwdo, pref, kfr, resc = linear_channel_dwdo(
        field, atom, n, theta, phi, rescattering, control)
    if n < threshold_n(field, atom):
        return _zero_point(n, theta, phi, TAG_LINEAR)
    return SpectrumPoint(
        n=n, theta=theta, phi=phi, dwdo=float(dwdo), prefactor=float(pref),
        kfr_amplitude=complex(kfr), rescatter_amplitude=complex(resc),
        formula_tag=TAG_LINEAR,
    )


def dwdo_nonrel(
    field: LaserField,
    atom: Atom,
    n: int,
    theta: float,
    polarization: str,
    rescattering: bool = True,
    control: SeriesControl | None = None,
) -> SpectrumPoint:
    """Nonrelativistic dW/dOmega (tags 56 circular / 59 linear).

    The ponderomotive parameter is z = xi^2 / (4 omega) and the channel
    kinetic energy is omega * X with X = N - 2z - E_B/omega (circular) or
    X = N - z - E_B/omega (linear).  For the linear case theta is measured
    from the polarization vector and the rescattering brace enters
    unsquared, exactly as the closed form states it.
    """
    ctl = control or specfun.DEFAULT_CONTROL
    n = int(n)
    omega, xi = field.omega, field.xi
    z = xi**2 / (4.0 * omega)
    eb_w = atom.e_b / omega

    if polarization == "circular":
        tag = TAG_NONREL_CIRCULAR
        x_kin = n - 2.0 * z - eb_w
        if x_kin <= 0.0:
            return _zero_point(n, theta, 0.0, tag)
        p = math.sqrt(2.0 * omega * x_kin)
        theta_arg = xi / omega * p * math.sin(theta)
        j_sq = specfun._jn(n, theta_arg) ** 2
        pref = (
            8.0 * omega / math.pi * eb_w**2.5
            * math.sqrt(x_kin) / (n - 2.0 * z) ** 2 * j_sq
        )
        rho = x_kin / (n - 2.0 * z)
        dwdo = _square(pref, 1.0 + 0j, complex(rho), rescattering)
        return SpectrumPoint(
            n=n, theta=theta, phi=0.0, dwdo=float(dwdo), prefactor=float(pref),
            kfr_amplitude=1.0 + 0j, rescatter_amplitude=complex(rho),
            formula_tag=tag,
        )

    if polarization == "linear":
        tag = TAG_NONREL_LINEAR
        x_kin = n - z - eb_w
        if x_kin <= 0.0:
            return _zero_point(n, theta, 0.0, tag)
        chi = math.sqrt(8.0 * x_kin) * math.cos(theta)
        u = math.sqrt(z) * chi
        j_sq = specfun.gen_bessel_orders(n, n, u, -z / 2.0, 0.0, ctl)[0].real ** 2
        pref = (
            8.0 * omega / math.pi * eb_w**2.5
            * math.sqrt(x_kin) / (n - z) ** 2 * j_sq
        )
        rho = x_kin / (n - z)
        dwdo = pref * (1.0 + rho) if rescattering else pref
        return SpectrumPoint(
            n=n, theta=theta, phi=0.0, dwdo=float(dwdo), prefactor=float(pref),
            kfr_amplitude=1.0 + 0j, rescatter_amplitude=complex(rho),
            formula_tag=tag,
        )

    raise ValueError(f"polarization must be 'circular' or 'linear', got {polarization!r}")
