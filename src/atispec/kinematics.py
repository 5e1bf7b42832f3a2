"""Laser-field / atom parameterization and per-channel relativistic kinematics.

Natural units throughout: hbar = c = 1, electron mass m = 1, e^2 = alpha.
The wave propagates along +z; the polarization unit vectors are e1 = x and
e2 = y, so a direction is (theta, phi) with polar angle theta measured from
the wave vector and azimuth phi from e1.

An electron dressed by a plane wave of invariant intensity xi carries the
cycle-averaged quasimomentum Pi = p + k Z (1 + zeta^2) with
Z = xi^2 m^2 / (4 k.p) and moves on the shifted shell Pi^2 = m*^2 with the
effective mass m* = sqrt(1 + xi^2 (1 + zeta^2) / 2).  A channel that
absorbed N photons has quasienergy Pi0 = eps0 + N omega and hands the
recoil three-momentum g = Pi - N k to the atomic remainder.
channel_kinematics is the one place these are computed, from the
emission angles themselves: every dW/dOmega kernel (the circular closed
form included), the direct rates and the Airy-form rate mesh call it, over
arrays of n, theta and phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import E_CHARGE, FINE_STRUCTURE
from .specfun import _integer

__all__ = [
    "BelowThresholdError",
    "ChannelExplosionError",
    "LaserField",
    "Atom",
    "DerivedParams",
    "ChannelKinematics",
    "effective_mass",
    "threshold_n",
    "derive_params",
    "channel_kinematics",
]

# largest threshold photon number derive_params accepts
THRESHOLD_N_CAP = 10_000_000
# born_ok holds when the Born ratio is at most this
BORN_LIMIT = 0.2


class BelowThresholdError(ValueError):
    """Requested channel lies below the photon-number threshold."""

    def __init__(self, n, n_min):
        super().__init__(f"channel N={n} below threshold N0={n_min}")
        self.n = n
        self.n_min = n_min


class ChannelExplosionError(RuntimeError):
    """Parameters produce intractably many open channels."""


@dataclass(frozen=True)
class LaserField:
    """Plane-wave laser field.

    omega  photon energy in electron-mass units
    xi     invariant intensity parameter e*A0/m (dimensionless)
    zeta   polarization parameter: 0 linear, +-1 circular, else elliptic
    """

    omega: float
    xi: float
    zeta: float

    def __post_init__(self):
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not (self.xi >= 0.0 and math.isfinite(self.xi)):
            raise ValueError(f"xi must be >= 0, got {self.xi}")
        if not abs(self.zeta) <= 1.0:
            raise ValueError(f"|zeta| must be <= 1, got {self.zeta}")

    @classmethod
    def circular(cls, omega, xi):
        return cls(omega, xi, 1.0)

    @classmethod
    def linear(cls, omega, xi):
        return cls(omega, xi, 0.0)


@dataclass(frozen=True)
class Atom:
    """Hydrogen-like initial state.

    z_a        nuclear charge number
    e_b        binding energy in electron-mass units
    hydrogenic True when e_b was derived as z_a^2 alpha^2 / 2
    """

    z_a: int
    e_b: float
    hydrogenic: bool = True

    def __post_init__(self):
        object.__setattr__(self, "z_a", _integer(self.z_a, "z_a"))
        if self.z_a < 1:
            raise ValueError("z_a must be a positive integer")
        if not (0.0 < self.e_b < 1.0):
            raise ValueError(f"binding energy must be in (0, 1) mass units, got {self.e_b}")

    @classmethod
    def from_charge(cls, z_a: int) -> "Atom":
        """Ground-state binding energy z_a^2 alpha^2 / 2."""
        return cls(z_a, z_a**2 * FINE_STRUCTURE**2 / 2.0, hydrogenic=True)

    @classmethod
    def with_binding(cls, z_a: int, e_b: float) -> "Atom":
        """Explicit binding energy; clears the hydrogenic flag."""
        return cls(z_a, float(e_b), hydrogenic=False)

    @property
    def epsilon0(self) -> float:
        """Bound-state energy 1 - E_B."""
        return 1.0 - self.e_b

    @property
    def a(self) -> float:
        """Bound-state radius, 2 E_B a^2 = 1."""
        return 1.0 / math.sqrt(2.0 * self.e_b)


def effective_mass(field: LaserField) -> float:
    return math.sqrt(1.0 + field.xi**2 * (1.0 + field.zeta**2) / 2.0)


def threshold_n(field: LaserField, atom: Atom) -> int:
    """Smallest photon number with eps0 + N omega >= m*."""
    return int(math.ceil((effective_mass(field) - atom.epsilon0) / field.omega))


@dataclass(frozen=True)
class DerivedParams:
    """Field/atom derived quantities.

    m_star      effective mass
    alpha_prime xi^2 m^2 / (4 omega eps0)
    n0          threshold photon number
    f0          laser electric field strength omega m xi / e
    f_at        atomic field strength z_a^3 m^2 e^5
    born_ratio  z_a alpha / v at the spectral peak = z_a alpha sqrt(1+xi^2)/xi
    v_mean      peak photoelectron speed xi / sqrt(1 + xi^2)
    born_ok     True when born_ratio is below 0.2
    """

    m_star: float
    alpha_prime: float
    n0: int
    f0: float
    f_at: float
    born_ratio: float
    v_mean: float
    born_ok: bool


def derive_params(field: LaserField, atom: Atom) -> DerivedParams:
    """Populate DerivedParams; raises ChannelExplosionError when the
    threshold photon number exceeds THRESHOLD_N_CAP."""
    m_star = effective_mass(field)
    n0 = threshold_n(field, atom)
    if n0 > THRESHOLD_N_CAP:
        raise ChannelExplosionError(
            f"threshold photon number {n0} exceeds cap {THRESHOLD_N_CAP}"
        )
    xi = field.xi
    alpha_prime = xi**2 / (4.0 * field.omega * atom.epsilon0)
    f0 = field.omega * xi / E_CHARGE
    f_at = atom.z_a**3 * E_CHARGE**5
    if xi > 0.0:
        v_mean = xi / math.sqrt(1.0 + xi**2)
        born_ratio = atom.z_a * FINE_STRUCTURE / v_mean
    else:
        v_mean = 0.0
        born_ratio = math.inf
    return DerivedParams(
        m_star=m_star,
        alpha_prime=alpha_prime,
        n0=n0,
        f0=f0,
        f_at=f_at,
        born_ratio=born_ratio,
        v_mean=v_mean,
        born_ok=born_ratio <= BORN_LIMIT,
    )


@dataclass(frozen=True)
class ChannelKinematics:
    """Kinematics of channel n in the emission direction (theta, phi).

    Each field has the broadcast shape of the inputs it depends on: pi0 and
    pi_abs of n; k_dot_pi, big_z and g_sq of n and theta; alpha_amp and
    phase_angle of all three.

    pi0         quasienergy eps0 + N omega
    pi_abs      |Pi| = sqrt(pi0^2 - m*^2)
    k_dot_pi    omega (pi0 - |Pi| cos theta)
    big_z       Z = xi^2 m^2 / (4 k.Pi)
    g_sq        |Pi - N k|^2 = |Pi|^2 - 2 N omega |Pi| cos theta + (N omega)^2,
                squared recoil momentum
    alpha_amp   field-electron coupling amplitude
                xi |Pi| sin(theta) sqrt(cos^2 phi + zeta^2 sin^2 phi) / k.Pi
    phase_angle atan2(zeta sin phi, cos phi); where |Pi| sin theta = 0 the
                product form atan2(zeta |Pi| sin theta sin phi,
                |Pi| sin theta cos phi), whose signed zeros pick 0 or +-pi
    """

    pi0: float
    pi_abs: float
    k_dot_pi: float
    big_z: float
    g_sq: float
    alpha_amp: float
    phase_angle: float


def channel_kinematics(field: LaserField, atom: Atom, n, theta, phi) -> ChannelKinematics:
    """Kinematics of the channel (n, theta, phi), broadcast over the three.

    The kernels (rows of n and angles), the Airy-form mesh and scalar calls
    share it, but a scalar x ** 2 goes through libm pow while an array is
    squared exactly, so a scalar n can move pi_abs and what depends on it
    in the last bit against an array n; a scalar call gets numpy float64
    values.  Raises BelowThresholdError when any n is below the threshold
    photon number; the spectra layer reports an explicit zero instead.
    """
    n0 = threshold_n(field, atom)
    # a numpy bool scalar is its own truth value, without .any()'s reduction
    below = np.less(n, n0)
    if below.any() if below.ndim else below:
        n_min = np.min(n, initial=n0)
        if n_min < n0:  # a NaN entry makes n_min NaN, and that never raised
            raise BelowThresholdError(n_min, n0)
    cos_t, sin_t, cos_p, sin_p = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
    omega, xi, zeta = field.omega, field.xi, field.zeta
    pi0 = atom.epsilon0 + n * omega
    pi_abs = np.sqrt(np.maximum(pi0**2 - effective_mass(field) ** 2, 0.0))
    k_dot_pi = omega * (pi0 - pi_abs * cos_t)
    big_z = xi**2 / (4.0 * k_dot_pi)
    g_sq = pi_abs**2 - 2.0 * n * omega * pi_abs * cos_t + (n * omega) ** 2
    proj_sq = cos_p**2 + zeta**2 * sin_p**2
    alpha_amp = xi * pi_abs * sin_t * np.sqrt(proj_sq) / k_dot_pi
    # the phase angle of (|Pi| sin th cos ph, zeta |Pi| sin th sin ph) is
    # that of (cos ph, zeta sin ph) for every theta of one phi
    phase_angle = np.atan2(zeta * sin_p, cos_p)
    a = pi_abs * sin_t
    inside = a > 0.0
    if not inside.ndim:
        if not inside:
            phase_angle = np.atan2(zeta * a * sin_p, a * cos_p)
    elif not inside.all():
        phase_angle = np.where(inside, phase_angle, np.atan2(zeta * a * sin_p, a * cos_p))
    return ChannelKinematics(pi0, pi_abs, k_dot_pi, big_z, g_sq, alpha_amp, phase_angle)
