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

Three kernels share one contract, (field, atom, n, theta[, phi]) -> (dwdo,
prefactor, kfr, resc) over channels and angles broadcast into rows, zero
on the rows that the threshold rule (_below) closes: general_channel_dwdo
serves every zeta (tags 42 and 55), circular_channel_dwdo (tag 44) is its
fast path at |zeta| = 1, and nonrel_channel_dwdo serves tags 56 and 59.
The relativistic two take their kinematics from channel_kinematics, and
the 1s density a^-5 g^-8 and the bracket r from _recoil, which the
Airy-form rate mesh shares.  The rescattering amplitude of tags 42/55 is
the paper's photon-exchange sum in closed form (_rescattering_series and
_rescattering_sum): one generalized-Bessel series over the orders N-2..N+2.

Angle conventions: the relativistic formulas measure theta from the wave
vector and phi from the major polarization axis e1.  The nonrelativistic
linear formula (tag 59) measures theta from the polarization vector
instead; the CLI documents both.

Which form serves a field follows from one rule on its zeta: "relativistic"
takes 44 for |zeta| = 1, 55 for zeta = 0 and 42 otherwise; "nonrelativistic"
takes 56 for |zeta| = 1 and 59 for zeta = 0, and has no elliptic form.
formula_tag states it; channel_spectrum and spectrum_point take their tag
from it, and both go through one row dispatcher.  Tag 42 at zeta = 0 or
|zeta| = 1, which the rule never picks, is the reference that tags 55 and
44 reduce from (dwdo_general at one point).

Each result carries the direct (KFR) and rescattering amplitudes
separately.  For tags 44/56/59 the squared Bessel factor is absorbed into
the prefactor and the amplitudes are the dimensionless bracket entries
(1, r).  _on_open_rows forms dwdo = prefactor |kfr + resc|^2 (tag 59, whose
closed form carries its bracket unsquared: prefactor (1 + resc)), and the
direct term alone is kfr_only_dwdo = prefactor |kfr|^2 at every tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .kinematics import Atom, LaserField, channel_kinematics, threshold_n

__all__ = [
    "TAG_GENERAL",
    "TAG_CIRCULAR",
    "TAG_LINEAR",
    "TAG_NONREL_CIRCULAR",
    "TAG_NONREL_LINEAR",
    "SpectrumPoint",
    "formula_tag",
    "spectrum_point",
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

# rows per kernel call of channel_spectrum, the one row bound (the README
# lists the bytes per row of each tag), and points per rate_airy row
# block: one airy_ai block, so that a row block's Ai points are one call
SPECTRUM_BLOCK = specfun._AIRY_BLOCK

@dataclass(frozen=True)
class SpectrumPoint:
    """One spectrum sample.

    dwdo                differential probability per unit solid angle
                        (inverse time per steradian, m = 1 units)
    prefactor           everything outside the squared amplitude bracket
    kfr_amplitude       direct-transition amplitude entry
    rescatter_amplitude rescattering amplitude entry
    dwdo_kfr_only       the direct term alone, prefactor |kfr|^2: dwdo
                        with rescattering off
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


def formula_tag(field: LaserField, formula: str) -> int:
    """The closed form that serves a field: formula x zeta -> tag, by the
    rule of the module docstring; ValueError for an unknown formula or a
    nonrelativistic elliptic field."""
    circular, linear = abs(field.zeta) == 1.0, field.zeta == 0.0
    if formula == "relativistic":
        return TAG_CIRCULAR if circular else TAG_LINEAR if linear else TAG_GENERAL
    if formula != "nonrelativistic":
        raise ValueError(f"formula must be 'relativistic' or 'nonrelativistic', got {formula!r}")
    if not (circular or linear):
        raise ValueError("nonrelativistic formulas support circular or linear polarization only")
    return TAG_NONREL_CIRCULAR if circular else TAG_NONREL_LINEAR


def _nonrel_channel(field, atom, n, tag):
    """(z, X) of a channel of the nonrelativistic form `tag`: the
    ponderomotive parameter z = xi^2 / (4 omega) and the kinetic photon
    number X."""
    z = field.xi**2 / (4.0 * field.omega)
    return z, n - (2.0 * z if tag == TAG_NONREL_CIRCULAR else z) - atom.e_b / field.omega


def _below(field, atom, n, tag):
    """The threshold rule of the closed form `tag`, True on the channels n
    that are closed: n < threshold_n for the relativistic forms, X <= 0 for
    the nonrelativistic ones."""
    if tag in (TAG_NONREL_CIRCULAR, TAG_NONREL_LINEAR):
        return _nonrel_channel(field, atom, n, tag)[1] <= 0.0
    return n < threshold_n(field, atom)


def _on_open_rows(evaluate, field, atom, tag, n, *angles):
    """(dwdo, prefactor, kfr, resc) over the broadcast channels and angles,
    zero on the rows that the threshold rule of `tag` closes, from
    evaluate(n, *angles) -> (prefactor, kfr, resc) on the open 1-D rows."""
    n, *angles = np.broadcast_arrays(n, *angles)
    keep = ~_below(field, atom, n, tag)
    pref, kfr, resc = evaluate(n[keep], *(x[keep] for x in angles))
    bracket = kfr + resc
    columns = (pref * (bracket if tag == TAG_NONREL_LINEAR else np.abs(bracket) ** 2),
               pref, kfr, resc)
    out = tuple(np.zeros(n.shape, a.dtype) for a in columns)
    for full, a in zip(out, columns):
        full[keep] = a
    return out


def _recoil(lead, field, n, ck):
    """The high-momentum 1s density and the rescattering bracket of channel
    n over its kinematics ck: (lead d^2 (k.Pi)^2 |Pi| / g^8,
    r = g^2 / (2 d k.Pi)) with d = N - Z (1 + zeta^2) and the caller's
    leading constant."""
    d = n - ck.big_z * (1.0 + field.zeta**2)
    return (lead * d**2 * ck.k_dot_pi**2 * ck.pi_abs / ck.g_sq**4,
            ck.g_sq / (2.0 * d * ck.k_dot_pi))


def _rescattering_series(u, n, v2, w, delta):
    """The generalized-Bessel series of the photon-exchange sum of the
    rescattering amplitude, which _rescattering_sum completes,

        sum_n' exp(-i(2n' - N) delta) J_n'(w) [(eps0 + 2 n' omega) conj(c_s)
            - omega w conj(exp(-2i delta) c_{s-2} + exp(2i delta) c_{s+2})]

    with s = N - 2n' and c_s = J_s(u, v2, delta), in closed form for every
    row of (u, n, v2) (one shared delta).  In the integral form of c_s
    the n' sum is a Jacobi-Anger series (DLMF 10.12), and the two sin 2t
    harmonics merge into one, as in Graf's addition theorem (DLMF 10.23(ii)):
    with R exp(i chi) = v2 exp(2i delta) + w exp(-2i delta),

        exp(i N delta) [eps0 J_N - 2i omega w sin 2delta (J_{N-2} - J_{N+2})](u, R, -chi/2).

    The series is J_{N-2..N+2}(u, R, -chi/2) as a _series_rows entry.  Where
    exp(2i delta) is real (delta = 0, +-pi/2) sin 2delta is exactly 0, and
    the signed R exp(i chi) serves as v at delta' = 0, so the series stays
    real.
    """
    e2 = specfun.phase_exp(2, delta)
    c = v2 * e2 + w * np.conj(e2)
    if np.imag(e2) == 0.0:
        return u, n - 2, 3, np.real(c), 0.0
    return u, n - 2, 3, np.abs(c), -np.angle(c) / 2.0


def _rescattering_sum(j, n, w, delta, eps0, omega):
    """The photon-exchange sum from the rows j of _rescattering_series."""
    sin2 = float(np.imag(specfun.phase_exp(2, delta)))
    if sin2 == 0.0:
        return specfun.phase_exp(n, delta) * eps0 * j[:, 1]
    return specfun.phase_exp(n, delta) \
        * (eps0 * j[:, 1] - 2j * omega * w * sin2 * (j[:, 0] - j[:, 2]))


def general_channel_dwdo(
    field: LaserField,
    atom: Atom,
    n,
    theta,
    phi,
):
    """Vectorized relativistic dW/dOmega for every zeta (tags 42 and 55)
    over rows of channels n and emission angles (theta, phi), broadcast
    against each other: (dwdo, prefactor, kfr, resc) of the broadcast
    shape, zero below threshold, kfr and resc complex (real at zeta = 0).

    The direct amplitude is exp(i N delta) J_N(alpha, -Z(1-zeta^2)/2, delta)
    with delta the polarization phase angle of the emission direction.  The
    rescattering amplitude is the weight r = g^2 / (2 (N - Z(1+zeta^2)) k.Pi)
    times the paper's sum over photon exchanges n' (ordinary-Bessel factors
    J_n'(-alpha'(1-zeta^2)/2) and conjugated generalized-Bessel brackets),
    taken in closed form: eps0 J_N and a sin 2delta term in
    J_{N-2} - J_{N+2}, all at one merged second argument
    (_rescattering_sum).  At zeta = 0 (tag 55) the azimuth enters only
    through |cos phi| in the coupling, so the spectrum is even under
    phi -> -phi and phi -> pi - phi.

    The series is pi-periodic in the phase angle delta and delta -> delta
    - pi multiplies kfr and resc by the same (-1)^N, so delta = pi is
    folded to 0: at zeta = 0 every row runs at delta = 0 with the coupling
    |cos phi|.  Each distinct (n, theta, u, delta) row is evaluated once
    and scattered back (the truncations are maxima over rows, which
    duplicates do not move): one stable lexsort of the keys, a comparison
    of neighbours and a cumulative sum give the first occurrence of each
    and the inverse map.  Keys that compare equal merge, so delta = -0.0
    and 0.0 are one row, as they are one delta group; a row's bits depend
    only on its own keys, so the order of the distinct rows moves no
    value.  The rows are grouped by delta, which one
    series shares; within a group the rescattering amplitude
    (_rescattering_series, one series over the orders N-2..N+2) and the
    direct amplitude pass the same u rows, and the series of every group,
    whatever their channels, run in one _series_rows call.
    """
    def evaluate(n, th, ph):
        zeta, omega, eps0 = field.zeta, field.omega, atom.epsilon0
        zf = 1.0 - zeta**2
        ck = channel_kinematics(field, atom, n, th, ph)
        dlt = np.where(np.abs(ck.phase_angle) == math.pi, 0.0, ck.phase_angle)
        keys = (dlt, ck.alpha_amp, th, n)
        order = np.lexsort(keys)  # stable: each run of equal rows starts at its first
        new = np.zeros(order.size, dtype=bool)
        new[:1] = True
        for key in keys:
            s = key[order]
            new[1:] |= s[1:] != s[:-1]
        first = order[new]
        back = np.empty(order.size, dtype=np.intp)
        back[order] = np.cumsum(new) - 1
        n_u, big_z, u, dlt = n[first], ck.big_z[first], ck.alpha_amp[first], dlt[first]

        alpha_prime = field.xi**2 / (4.0 * omega * eps0)
        w = -alpha_prime * zf / 2.0
        v_kfr = -big_z * zf / 2.0
        v2 = (big_z - alpha_prime) * zf / 2.0
        # every delta is 0 at zeta = 0: real amplitudes keep Re(resc/kfr) a real division
        kfr = np.empty(first.size, dtype=float if zeta == 0.0 else complex)
        total = np.empty(first.size, dtype=kfr.dtype)
        deltas, group = np.unique(dlt, return_inverse=True)
        groups = [(np.flatnonzero(group == g), delta) for g, delta in enumerate(deltas.tolist())]
        series = []
        for rows, delta in groups:
            u_rows, n_rows = u[rows], n_u[rows]
            series += [_rescattering_series(u_rows, n_rows, v2[rows], w, delta),
                       (u_rows, n_rows, 1, v_kfr[rows], delta)]
        sums = specfun._series_rows(series)
        for (rows, delta), j, j_kfr in zip(groups, sums[0::2], sums[1::2]):
            total[rows] = _rescattering_sum(j, n_u[rows], w, delta, eps0, omega)
            kfr[rows] = specfun.phase_exp(n_u[rows], delta) * j_kfr[:, 0]

        prefactor, r = _recoil(2.0**4 / (math.pi * atom.a**5), field, n, ck)
        return prefactor, kfr[back], r * total[back]

    return _on_open_rows(evaluate, field, atom, TAG_GENERAL, n, theta, phi)


def circular_channel_dwdo(
    field: LaserField,
    atom: Atom,
    n,
    theta,
):
    """Vectorized circular (tag 44) dW/dOmega over rows of channels n and
    theta, broadcast against each other, as general_channel_dwdo returns
    it; ValueError unless |zeta| = 1.  The prefactor holds J_N^2(alpha),
    and (kfr, resc) = (1, r) with r = g^2 / (2 (N - 2Z) k.Pi).
    """
    if abs(field.zeta) != 1.0:
        raise ValueError("circular_channel_dwdo requires circular polarization (|zeta| = 1)")
    def evaluate(n, th):
        ck = channel_kinematics(field, atom, n, th, 0.0)
        pref, r = _recoil(2.0**4 / (math.pi * atom.a**5), field, n, ck)
        return pref * specfun._jn(n, np.abs(ck.alpha_amp)) ** 2, np.ones(n.size), r

    return _on_open_rows(evaluate, field, atom, TAG_CIRCULAR, n, theta)


def nonrel_channel_dwdo(
    field: LaserField,
    atom: Atom,
    n,
    theta,
):
    """Vectorized nonrelativistic dW/dOmega over rows of channels n and
    theta, broadcast against each other: tag 56 for |zeta| = 1, tag 59 for
    zeta = 0, ValueError for an elliptic field.

    The ponderomotive parameter is z = xi^2 / (4 omega) and the channel
    kinetic energy is omega X with X = N - 2z - E_B/omega (circular) or
    X = N - z - E_B/omega (linear).  For the linear form theta is measured
    from the polarization vector and the rescattering brace enters
    unsquared (the bracket rule of the module docstring).

    Returns (dwdo, prefactor, kfr, resc) arrays of the broadcast shape, with
    the bracket amplitudes (1, rho); all four are zero on rows at and below
    the threshold X <= 0.
    """
    tag = formula_tag(field, "nonrelativistic")
    circular, omega, xi = tag == TAG_NONREL_CIRCULAR, field.omega, field.xi

    def evaluate(n, th):
        z, x_kin = _nonrel_channel(field, atom, n, tag)
        d = n - (2.0 * z if circular else z)
        if circular:
            j = specfun._jn(n, xi / omega * np.sqrt(2.0 * omega * x_kin) * np.abs(np.sin(th)))
        else:
            u = math.sqrt(z) * (np.sqrt(8.0 * x_kin) * np.cos(th))
            j = specfun._series_rows([(u, n, 1, np.full(th.shape, -z / 2.0), 0.0)])[0][:, 0]
        pref = 8.0 * omega / math.pi * (atom.e_b / omega) ** 2.5 * np.sqrt(x_kin) / d**2 * j**2
        return pref, np.ones(n.size), x_kin / d

    return _on_open_rows(evaluate, field, atom, tag, n, theta)


def _rows(field, atom, n, theta, phi, tag):
    """The closed form `tag` over 1-D rows (n, theta, phi): (dwdo, prefactor,
    kfr, resc, kfr_only_dwdo, rescatter_factor, below), below by the tag's
    threshold rule; tags 44/56/59 do not read phi."""
    if tag in (TAG_GENERAL, TAG_LINEAR):
        rows = general_channel_dwdo(field, atom, n, theta, phi)
    elif tag == TAG_CIRCULAR:
        rows = circular_channel_dwdo(field, atom, n, theta)
    else:
        rows = nonrel_channel_dwdo(field, atom, n, theta)
    dwdo, pref, kfr, resc = rows
    kfr_only = pref * np.abs(kfr) ** 2
    # a zero direct amplitude gives NaN; one near underflow (at theta = pi,
    # say) gives a ratio past the double range, written as inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rescatter_factor = np.where(kfr == 0, np.nan, (resc / kfr).real)
    return dwdo, pref, kfr, resc, kfr_only, rescatter_factor, _below(field, atom, n, tag)


def spectrum_point(
    field: LaserField,
    atom: Atom,
    n: int,
    theta: float,
    phi: float,
    formula: str = "relativistic",
) -> SpectrumPoint:
    """SpectrumPoint of channel n at one emission direction (theta, phi) by
    the closed form that the tag rule of the module docstring gives the
    field and formula: the one row of _rows, so it equals, bit for bit, the
    channel_spectrum row at its channel and angles.  Tags 44/56/59 do not
    read phi."""
    return _point(field, atom, n, theta, phi, formula_tag(field, formula))


def _point(field, atom, n, theta, phi, tag):
    """SpectrumPoint of channel n at one emission direction by the closed
    form `tag`: the one row of _rows."""
    n = specfun._integer(n, "channel n")
    rows = _rows(field, atom, np.array([n]), np.array([float(theta)]), np.array([float(phi)]),
                 tag)
    dwdo, pref, kfr, resc, kfr_only, factor, below = (a[0] for a in rows)
    return SpectrumPoint(
        n=n, theta=theta, phi=phi, dwdo=float(dwdo), prefactor=float(pref),
        kfr_amplitude=complex(kfr), rescatter_amplitude=complex(resc),
        dwdo_kfr_only=float(kfr_only), rescatter_factor=float(factor),
        formula_tag=tag, below_threshold=bool(below),
    )


# The four one-point functions that spectrum_point replaced stay, outside
# __all__, while the benchmark's tracer (bench/tracer.py) still names them
# as targets: its tests count a missing target as a fault.  They go with
# the benchmark change of ROADMAP item 3(a).  dwdo_general is also the
# tag-42 reference at zeta = 0 and |zeta| = 1 that tags 44 and 55 reduce
# from.

def dwdo_general(field, atom, n, theta, phi) -> SpectrumPoint:
    """spectrum_point by the general amplitude (tag 42), at every zeta."""
    return _point(field, atom, n, theta, phi, TAG_GENERAL)


def dwdo_circular(field, atom, n, theta) -> SpectrumPoint:
    """spectrum_point of a circular field (tag 44); ValueError otherwise."""
    if formula_tag(field, "relativistic") != TAG_CIRCULAR:
        raise ValueError("dwdo_circular requires circular polarization (|zeta| = 1)")
    return _point(field, atom, n, theta, 0.0, TAG_CIRCULAR)


def dwdo_linear(field, atom, n, theta, phi) -> SpectrumPoint:
    """spectrum_point of a linear field (tag 55); ValueError otherwise."""
    if formula_tag(field, "relativistic") != TAG_LINEAR:
        raise ValueError("dwdo_linear requires linear polarization (zeta = 0)")
    return _point(field, atom, n, theta, phi, TAG_LINEAR)


def dwdo_nonrel(field, atom, n, theta) -> SpectrumPoint:
    """spectrum_point by the nonrelativistic forms (tags 56/59)."""
    return spectrum_point(field, atom, n, theta, 0.0, "nonrelativistic")


def channel_spectrum(
    field: LaserField,
    atom: Atom,
    n,
    theta,
    phi,
    formula: str = "relativistic",
):
    """The `ati spectrum` columns over the rows of channels n and emission
    angles (theta, phi), broadcast against each other and flattened:
    (tag, dwdo, kfr_only_dwdo, rescatter_factor), the tag by the rule of
    the module docstring.  The rows are evaluated in blocks of at most
    SPECTRUM_BLOCK, cut from the first row and run last block first; each
    row equals, bit for bit, the spectrum_point at its channel and angles,
    whatever its block.  The forms that do not read phi (tags 44/56/59) run
    once per row of the broadcast (n, theta), repeated along the axes that
    phi adds.

    With channel-major rows the first block run holds the window's highest
    channel, whose series (tags 42/55/59) reads the highest Bessel orders:
    a window that this channel takes past the series box raises
    specfun.BesselRangeError in that block's first series round, before
    the lower channels cost anything.
    """
    tag = formula_tag(field, formula)
    reads_phi = tag in (TAG_GENERAL, TAG_LINEAR)
    shape = np.broadcast_shapes(np.shape(n), np.shape(theta), np.shape(phi))
    # broadcast views, copied one block at a time
    rows = np.broadcast_arrays(n, theta, *[phi] * reads_phi)
    columns = np.empty((3, rows[0].size))
    for lo in reversed(range(0, rows[0].size, SPECTRUM_BLOCK)):
        block = [a.flat[lo:lo + SPECTRUM_BLOCK] for a in rows]
        if not reads_phi:
            block.append(np.zeros(block[0].size))
        block = _rows(field, atom, *block, tag)
        columns[:, lo:lo + SPECTRUM_BLOCK] = block[0], block[4], block[5]
    if not reads_phi:
        nt_shape = np.broadcast_shapes(np.shape(n), np.shape(theta))
        nt_shape = (1,) * (len(shape) - len(nt_shape)) + nt_shape
        columns = np.broadcast_to(columns.reshape(3, *nt_shape), (3, *shape)).reshape(3, -1)
    return tag, *columns
