"""Built-in consistency suite behind `ati selftest`.

Runs the special-function identity checks (series vs quadrature oracle,
recurrence, Fourier reconstruction, addition theorem, reductions at
u = 0 / v = 0), the Airy checks, the kinematic identities, the
polarization reductions of the spectra and the linear spectrum against a
scalar quadrature reference, each against a fixed tolerance.  Every check
produces one record; the suite passes only if all do.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import specfun
from .constants import E_CHARGE
from .kinematics import Atom, LaserField, channel_kinematics, derive_params, threshold_n
from .spectra import dwdo_general, spectrum_point

__all__ = ["run_checks", "Check", "dwdo_quadrature_oracle"]


class Check(dict):
    """Record: name, residual, tolerance, passed."""

    @classmethod
    def make(cls, name, residual, tolerance):
        return cls(
            name=name,
            residual=float(residual),
            tolerance=float(tolerance),
            passed=bool(residual <= tolerance),
        )


# reduced but representative argument grid (full grid lives in the test suite)
_US = (0.0, 2.0, 25.0)
_VS = (0.0, 2.0, 10.0)
_DS = (0.0, 0.3, math.pi / 2)
_NS = tuple(range(-15, 16, 3))
# (n, theta, phi, rescattering) of the linear-field checks
_LINEAR_CASES = [(n, th, ph, resc) for n in (45, 60) for resc in (True, False)
                 for th, ph in [(0.7, 0.3), (1.2, 2.0), (2.1, 3.6), (0.9, 5.5)]]


def _dwdo_of(point, rescattering):
    """A SpectrumPoint's dwdo with rescattering on, dwdo_kfr_only off."""
    return point.dwdo if rescattering else point.dwdo_kfr_only


def _check_oracle():
    worst = 0.0
    for u in _US:
        for v in _VS:
            for d in _DS:
                series = specfun.gen_bessel_orders(_NS[0], _NS[-1], u, v, d)
                for n in _NS:
                    quad = specfun.gen_bessel_quadrature(n, u, v, d)
                    err = abs(series[n - _NS[0]] - quad)
                    worst = max(worst, err / max(1e-10 * abs(quad), 1e-12))
    return Check.make("series_vs_quadrature_oracle", worst, 1.0)


def _check_recurrence():
    worst = 0.0
    for u in _US:
        for v in _VS:
            for d in _DS:
                j = specfun.gen_bessel_orders(_NS[0] - 2, _NS[-1] + 2, u, v, d)
                base = _NS[0] - 2
                for n in _NS:
                    lhs = 2.0 * n * j[n - base]
                    rhs = u * (j[n - 1 - base] + j[n + 1 - base]) + 2.0 * v * (
                        np.exp(-2j * d) * j[n - 2 - base] + np.exp(2j * d) * j[n + 2 - base]
                    )
                    scale = abs(u) + abs(v) + abs(n) + 1.0
                    worst = max(worst, abs(lhs - rhs) / (1e-9 * scale))
    return Check.make("recurrence_identity", worst, 1.0)


def _check_fourier():
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for (u, v, d) in [(2.0, 2.0, 0.3), (25.0, 10.0, math.pi / 2)]:
        k = int(math.ceil(abs(u) + 2 * abs(v))) + 40
        ns = np.arange(-k, k + 1)
        j = specfun.gen_bessel_orders(-k, k, u, v, d)
        for phi in rng.uniform(-math.pi, math.pi, 20):
            lhs = (np.exp(1j * ns * (phi + d)) * j).sum()
            rhs = np.exp(1j * (u * math.sin(phi + d) + v * math.sin(2 * phi)))
            worst = max(worst, abs(lhs - rhs))
    return Check.make("fourier_reconstruction", worst, 1e-8)


def _check_addition():
    worst = 0.0
    for (u, v, up, vp, d) in [(2.0, 0.3, 1.5, 0.7, 0.4), (8.0, 2.0, 3.0, 1.0, 0.3)]:
        k = int(math.ceil(abs(up) + 2 * abs(vp))) + 40
        jk = specfun.gen_bessel_orders(-k, k, up, vp, d)
        for n in (-5, 0, 3, 9):
            jn = specfun.gen_bessel_orders(n - k, n + k, u, v, d)
            conv = complex((jn[::-1] * jk).sum())
            direct = specfun.gen_bessel(n, u + up, v + vp, d)
            worst = max(worst, abs(conv - direct))
    return Check.make("addition_theorem", worst, 1e-8)


def _check_reductions():
    worst = 0.0
    for n in (-6, -1, 0, 3, 8):
        for u in (0.5, 7.2):
            for d in (0.0, 1.1):
                worst = max(worst, abs(specfun.gen_bessel(n, u, 0.0, d) - specfun.ordinary_bessel(n, u)))
    for v in (0.7, 3.0):
        for d in (0.0, 0.9):
            for n in (-4, 2, 6):
                want = np.exp(-1j * d * n) * specfun.ordinary_bessel(n // 2, v)
                worst = max(worst, abs(specfun.gen_bessel(n, 0.0, v, d) - want))
            for n in (-3, 1, 5):
                worst = max(worst, abs(specfun.gen_bessel(n, 0.0, v, d)))
    return Check.make("reduction_special_cases", worst, specfun.ABS_FLOOR)


def _check_airy():
    a0 = abs(specfun.airy_ai(0.0) - 0.3550280538878172)
    h = 1e-4
    d2 = (specfun.airy_ai(1 + h) - 2 * specfun.airy_ai(1.0) + specfun.airy_ai(1 - h)) / h**2
    ode = abs(d2 / specfun.airy_ai(1.0) - 1.0)
    asym = abs(specfun.airy_ai_asymptotic(25.0) / specfun.airy_ai(25.0) - 1.0)
    return [
        Check.make("airy_value_at_zero", a0, 1e-14),
        Check.make("airy_equation_fd", ode, 1e-6),
        Check.make("airy_asymptotic_branch", asym, 0.005),
    ]


def _check_bessel_airy():
    worst = 0.0
    n = 100
    scan = [specfun.ordinary_bessel(n, x) for x in np.linspace(0.80 * n, 0.999 * n, 40)]
    scale = max(abs(v) for v in scan)
    for x, exact in zip(np.linspace(0.80 * n, 0.999 * n, 40), scan):
        worst = max(worst, abs(specfun.bessel_airy_approx(n, x) - exact) / scale)
    return Check.make("bessel_airy_window", worst, 0.05)


def _check_kinematics():
    rng = np.random.default_rng(7)
    worst_shell = 0.0
    worst_null = 0.0
    for _ in range(200):
        field = LaserField(10 ** rng.uniform(-3, -1.5), 10 ** rng.uniform(-1, 0.5),
                           rng.choice([0.0, 1.0, rng.uniform(-1, 1)]))
        atom = Atom.from_charge(int(rng.integers(1, 10)))
        n0 = threshold_n(field, atom)
        n = int(n0 + rng.integers(0, 50))
        th, ph = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        ck = channel_kinematics(field, atom, n, th, ph)
        m_star2 = 1.0 + field.xi**2 * (1 + field.zeta**2) / 2
        worst_shell = max(worst_shell, abs(ck.pi0**2 - ck.pi_abs**2 - m_star2) / m_star2)
        zz = ck.big_z * (1 + field.zeta**2)
        p0 = ck.pi0 - field.omega * zz
        pz = ck.pi_abs * math.cos(th) - field.omega * zz
        worst_null = max(worst_null, abs(field.omega * (p0 - pz) - ck.k_dot_pi) / ck.k_dot_pi)
    return [
        Check.make("mass_shell_identity", worst_shell, 1e-12),
        Check.make("null_vector_identity", worst_null, 1e-12),
    ]


def _check_threshold():
    worst = 0
    for (om, xi, eb) in [(0.01, 1.0, None), (0.002, 0.3, None), (0.005, 2.0, 1e-4)]:
        field = LaserField.circular(om, xi)
        atom = Atom.from_charge(1) if eb is None else Atom.with_binding(1, eb)
        n0 = threshold_n(field, atom)
        m_star = math.sqrt(1 + xi**2)
        ok = (atom.epsilon0 + n0 * om >= m_star) and (atom.epsilon0 + (n0 - 1) * om < m_star)
        worst = max(worst, 0 if ok else 1)
    return Check.make("threshold_minimality", worst, 0.5)


def _check_peak_identity():
    worst = 0.0
    for xi in (0.3, 1.0, 3.0):
        for om in (0.002, 0.01):
            field = LaserField.circular(om, xi)
            atom = Atom.from_charge(1)
            dp = derive_params(field, atom)
            lhs = 2 ** (1 / 3) * atom.e_b / ((xi**2 / om) ** (1 / 3) * om)
            rhs = (dp.f_at / (2 * dp.f0)) ** (2 / 3)
            worst = max(worst, abs(lhs / rhs - 1.0))
    return Check.make("peak_parameter_identity", worst, 1e-10)


def _check_polarization_reduction():
    """reduction_circular: the general amplitude at |zeta| = 1 against tag
    44.  reduction_linear: tag 55 against the general amplitude at
    zeta = 1e-8, whose phase angles near +-pi are not folded to 0, so it
    runs the complex series; the cases and gate form of
    _check_linear_oracle."""
    atom = Atom.from_charge(1)
    field_c = LaserField.circular(0.01, 1.0)
    worst_c = 0.0
    for n in (95, 100, 110):
        for th in (0.6, 0.785, 1.0):
            g = dwdo_general(field_c, atom, n, th, 0.4).dwdo
            c = spectrum_point(field_c, atom, n, th, 0.0).dwdo
            worst_c = max(worst_c, abs(g - c) / max(g, c))
    bound_c = atom.e_b / atom.epsilon0 + 1e-9

    field_l, field_g = LaserField.linear(0.01, 1.0), LaserField(0.01, 1.0, 1e-8)
    got = np.array([_dwdo_of(spectrum_point(field_l, atom, n, th, ph), resc)
                    for n, th, ph, resc in _LINEAR_CASES])
    want = np.array([_dwdo_of(dwdo_general(field_g, atom, n, th, ph), resc)
                     for n, th, ph, resc in _LINEAR_CASES])
    worst_l = np.max(np.abs(got - want) / (1e-9 * (np.abs(want) + np.max(np.abs(want)))))
    return [
        Check.make("reduction_circular", worst_c / bound_c, 1.0),
        Check.make("reduction_linear", worst_l, 1.0),
    ]


def dwdo_quadrature_oracle(field, atom, n, theta, phi, rescattering=True):
    """Scalar reference for the relativistic dW/dOmega (tags 42 and 55) that
    shares no code with the spectra kernels: kinematics from
    channel_kinematics, every J_s(u, v, delta) and J_n'(w) from
    gen_bessel_quadrature, and the photon-exchange series as the paper
    writes it (the kernels take its closed form) over a fixed
    |n'| <= ceil|w| + 60, summed with math.fsum.  The quadrature values have
    absolute accuracy, so a tiny dwdo is good only to the roundoff of the
    largest terms."""
    ck = channel_kinematics(field, atom, n, theta, phi)
    omega, eps0, zf = field.omega, atom.epsilon0, 1.0 - field.zeta**2
    u, delta = ck.alpha_amp, ck.phase_angle
    alpha_p = field.xi**2 / (4.0 * omega * eps0)
    w, v2 = -alpha_p * zf / 2.0, (ck.big_z - alpha_p) * zf / 2.0
    k = math.ceil(abs(w)) + 60
    c = {s: specfun.gen_bessel_quadrature(s, u, v2, delta)
         for s in range(n - 2 * k - 2, n + 2 * k + 3, 2)}
    e2 = cmath.exp(2j * delta)
    terms = []
    for m in range(-k, k + 1):
        s = n - 2 * m
        pair = (c[s - 2] / e2 + c[s + 2] * e2).conjugate()
        bracket = (eps0 + 2.0 * m * omega) * c[s].conjugate() + omega * alpha_p * zf / 2.0 * pair
        terms.append(cmath.exp(-1j * (2 * m - n) * delta) * specfun.gen_bessel_quadrature(m, w, 0.0, 0.0)
                     * bracket)
    total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    d_coef = n - ck.big_z * (1.0 + field.zeta**2)
    kfr = cmath.exp(1j * n * delta) * specfun.gen_bessel_quadrature(n, u, -ck.big_z * zf / 2.0, delta)
    amp = kfr + ck.g_sq / (2.0 * d_coef * ck.k_dot_pi) * total if rescattering else kfr
    return 2.0**4 / (math.pi * atom.a**5) * d_coef**2 * ck.k_dot_pi**2 * ck.pi_abs / ck.g_sq**4 * abs(amp)**2


def _check_linear_oracle():
    """Tag 55 against dwdo_quadrature_oracle at odd and even N, phi in
    all four quadrants, rescattering on and off: 1e-9 relative with a floor
    of 1e-9 of the largest value (the benchmark gate's form)."""
    atom, field = Atom.from_charge(1), LaserField.linear(0.01, 1.0)
    got = np.array([_dwdo_of(spectrum_point(field, atom, n, th, ph), resc)
                    for n, th, ph, resc in _LINEAR_CASES])
    want = np.array([dwdo_quadrature_oracle(field, atom, *case) for case in _LINEAR_CASES])
    worst = np.max(np.abs(got - want) / (1e-9 * (np.abs(want) + np.max(np.abs(want)))))
    return Check.make("linear_vs_quadrature_oracle", worst, 1.0)


def run_checks(bessel_fault: float = 0.0) -> list[Check]:
    """Run every check; optional bessel_fault perturbs the ordinary-Bessel
    primitive to prove the suite trips on a corrupted build."""
    specfun.set_bessel_fault(bessel_fault)
    try:
        records = [
            _check_oracle(),
            _check_recurrence(),
            _check_fourier(),
            _check_addition(),
            _check_reductions(),
            *_check_airy(),
            _check_bessel_airy(),
            *_check_kinematics(),
            _check_threshold(),
            _check_peak_identity(),
            *_check_polarization_reduction(),
            _check_linear_oracle(),
        ]
    finally:
        specfun.set_bessel_fault(0.0)
    return records
