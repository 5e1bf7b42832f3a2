"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one summary line so `pytest -s tests/test_acceptance.py`
doubles as the acceptance report.  Tolerances are fixed here and mirrored
in the README tolerance table; nothing is deferred to runtime calibration.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from atispec import specfun
from atispec.constants import E_CHARGE, ELECTRON_MASS_EV, FINE_STRUCTURE
from atispec.kinematics import (
    Atom,
    LaserField,
    channel_kinematics,
    derive_params,
    effective_mass,
    threshold_n,
)
from atispec.rates import (
    GridSpec,
    rate_airy,
    rate_closed,
    rate_direct,
    rate_laplace,
    saddle_point,
)
from atispec.spectra import channel_spectrum, dwdo_general, spectrum_point

REPO = Path(__file__).resolve().parents[1]

GRID_N = range(-40, 41)
GRID_U = (0.0, 0.5, 2.0, 8.0, 25.0)
GRID_V = (0.0, 0.3, 2.0, 10.0)
GRID_D = (0.0, 0.3, math.pi / 2)


def _report(name, worst, tol, extra=""):
    status = "PASS" if worst <= tol else "FAIL"
    print(f"acceptance {name}: worst {worst:.3e} (tol {tol:.1e}) {extra}{status}")
    assert worst <= tol


def test_a01_generalized_bessel_identity_suite():
    t0 = time.time()

    # series vs quadrature oracle over the full grid
    worst_oracle = 0.0
    worst_a4 = 0.0
    for u in GRID_U:
        for v in GRID_V:
            for d in GRID_D:
                series = specfun.gen_bessel_orders(-42, 42, u, v, d)
                for n in GRID_N:
                    quad = specfun.gen_bessel_quadrature(n, u, v, d)
                    err = abs(series[n + 42] - quad)
                    worst_oracle = max(worst_oracle, err / max(1e-10 * abs(quad), 1e-12))
                for n in GRID_N:
                    lhs = 2.0 * n * series[n + 42]
                    rhs = u * (series[n + 41] + series[n + 43]) + 2.0 * v * (
                        np.exp(-2j * d) * series[n + 40] + np.exp(2j * d) * series[n + 44]
                    )
                    scale = abs(u) + abs(v) + abs(n) + 1.0
                    worst_a4 = max(worst_a4, abs(lhs - rhs) / (1e-9 * scale))

    # Fourier reconstruction at 100 random angles
    rng = np.random.default_rng(20240810)
    worst_a3 = 0.0
    for (u, v, d) in [(0.5, 0.3, 0.3), (8.0, 2.0, math.pi / 2), (25.0, 10.0, 0.0),
                      (2.0, 10.0, 0.3)]:
        k = int(math.ceil(abs(u) + 2 * abs(v))) + 40
        ns = np.arange(-k, k + 1)
        jn = specfun.gen_bessel_orders(-k, k, u, v, d)
        for phi in rng.uniform(-math.pi, math.pi, 100):
            lhs = (np.exp(1j * ns * (phi + d)) * jn).sum()
            rhs = np.exp(1j * (u * math.sin(phi + d) + v * math.sin(2 * phi)))
            worst_a3 = max(worst_a3, abs(lhs - rhs))

    # addition theorem
    worst_a10 = 0.0
    for (u, v, up, vp, d) in [(2.0, 0.3, 1.5, 0.7, 0.4), (8.0, 2.0, 3.0, 1.0, 0.3),
                              (0.5, 0.0, 2.0, 2.0, math.pi / 2)]:
        k = int(math.ceil(abs(up) + 2 * abs(vp))) + 40
        jk = specfun.gen_bessel_orders(-k, k, up, vp, d)
        for n in (-7, -2, 0, 3, 11):
            jn = specfun.gen_bessel_orders(n - k, n + k, u, v, d)
            conv = complex((jn[::-1] * jk).sum())
            worst_a10 = max(worst_a10, abs(conv - specfun.gen_bessel(n, u + up, v + vp, d)))

    # u = 0 / v = 0 reductions, exact to the floor
    worst_red = 0.0
    for n in GRID_N:
        for u in GRID_U:
            for d in GRID_D:
                worst_red = max(worst_red, abs(
                    specfun.gen_bessel(n, u, 0.0, d) - specfun.ordinary_bessel(n, u)))
        for v in GRID_V:
            for d in GRID_D:
                got = specfun.gen_bessel(n, 0.0, v, d)
                if n % 2:
                    worst_red = max(worst_red, abs(got))
                else:
                    want = specfun.phase_exp(-n, d) * specfun.ordinary_bessel(n // 2, v)
                    worst_red = max(worst_red, abs(got - want))

    elapsed = time.time() - t0
    _report("01a series-vs-oracle", worst_oracle, 1.0)
    _report("01b recurrence", worst_a4, 1.0)
    _report("01c fourier-reconstruction", worst_a3, 1e-8)
    _report("01d addition-theorem", worst_a10, 1e-8)
    _report("01e reductions", worst_red, 1e-12)
    print(f"acceptance 01 runtime: {elapsed:.1f} s (budget 60 s)")
    assert elapsed <= 60.0


def test_a02_airy_approximation_window():
    worst = 0.0
    for n in (50, 100, 200):
        xs = np.linspace(0.80 * n, 0.999 * n, 80)
        exact = np.array([specfun.ordinary_bessel(n, x) for x in xs])
        approx = np.array([specfun.bessel_airy_approx(n, x) for x in xs])
        worst = max(worst, float(np.max(np.abs(approx - exact)) / np.max(np.abs(exact))))
    _report("02 airy-approximation", worst, 0.05)


def test_a03_kinematic_identities():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        field = LaserField(
            10 ** rng.uniform(-3, -1.5), 10 ** rng.uniform(-1, 0.5),
            float(rng.choice([0.0, 1.0, -1.0, rng.uniform(-1, 1)])))
        atom = Atom.from_charge(int(rng.integers(1, 10)))
        n = threshold_n(field, atom) + int(rng.integers(0, 200))
        theta = float(rng.uniform(0, math.pi))
        ck = channel_kinematics(field, atom, n, theta, float(rng.uniform(0, 2 * math.pi)))
        m_star_sq = 1.0 + field.xi**2 * (1 + field.zeta**2) / 2
        worst = max(worst, abs(ck.pi0**2 - ck.pi_abs**2 - m_star_sq) / m_star_sq)
        shift = field.omega * ck.big_z * (1 + field.zeta**2)
        p0 = ck.pi0 - shift
        pz = ck.pi_abs * math.cos(theta) - shift
        worst = max(worst, abs(field.omega * (p0 - pz) - ck.k_dot_pi) / ck.k_dot_pi)
    threshold_ok = True
    for _ in range(50):
        field = LaserField.circular(10 ** rng.uniform(-3, -1.5), 10 ** rng.uniform(-1, 0.4))
        atom = Atom.from_charge(int(rng.integers(1, 8)))
        n0 = threshold_n(field, atom)
        m_star = effective_mass(field)
        threshold_ok &= atom.epsilon0 + n0 * field.omega >= m_star
        threshold_ok &= atom.epsilon0 + (n0 - 1) * field.omega < m_star
    assert threshold_ok
    _report("03 kinematic-identities", worst, 1e-12)


def test_a04_peak_parameter_dual_identity():
    worst = 0.0
    for xi in (0.3, 1.0, 3.0):
        for omega in (0.002, 0.01):
            field = LaserField.circular(omega, xi)
            atom = Atom.from_charge(1)
            dp = derive_params(field, atom)
            lhs = 2 ** (1 / 3) * atom.e_b / ((xi**2 / omega) ** (1 / 3) * omega)
            rhs = (dp.f_at / (2 * dp.f0)) ** (2 / 3)
            worst = max(worst, abs(lhs / rhs - 1.0))
    _report("04 peak-parameter-identity", worst, 1e-10)


def test_a05_rescattering_order_unity():
    atom = Atom.from_charge(1)
    lo, hi = math.inf, 0.0
    for xi in np.linspace(0.5, 2.0, 7):
        field = LaserField.circular(0.01, float(xi))
        s = saddle_point(field, atom)
        n = max(int(round(s.n_m)), threshold_n(field, atom))
        r = spectrum_point(field, atom, n, s.theta_m, 0.0).rescatter_factor
        lo, hi = min(lo, r), max(hi, r)
    print(f"acceptance 05 rescattering-factor range: [{lo:.4f}, {hi:.4f}] "
          f"(required within [0.3, 3]) {'PASS' if 0.3 <= lo and hi <= 3.0 else 'FAIL'}")
    assert 0.3 <= lo and hi <= 3.0


def test_a06_polarization_reductions():
    field = LaserField.circular(0.01, 1.0)
    atom = Atom.from_charge(1)
    s = saddle_point(field, atom)
    n0 = threshold_n(field, atom)
    rng = np.random.default_rng(606)
    worst_c = 0.0
    for _ in range(1000):
        n = int(rng.integers(max(n0, int(s.n_m - 3 * s.delta_n)),
                             int(s.n_m + 3 * s.delta_n) + 1))
        theta = float(rng.uniform(max(0.05, s.theta_m - 3 * s.delta_theta),
                                  min(math.pi - 0.05, s.theta_m + 3 * s.delta_theta)))
        phi = float(rng.uniform(0, 2 * math.pi))
        g = dwdo_general(field, atom, n, theta, phi).dwdo
        c = spectrum_point(field, atom, n, theta, phi).dwdo
        worst_c = max(worst_c, abs(g - c) / max(g, c))
    bound_c = atom.e_b / atom.epsilon0 + 1e-9

    # tag 55 against the general amplitude at zeta = 1e-8, which runs the
    # complex series (at zeta = 0 both would run the same code), with the
    # gate form of selftest reduction_linear
    field_l, field_g = LaserField.linear(0.01, 1.0), LaserField(0.01, 1.0, 1e-8)
    n0_l = threshold_n(field_l, atom)
    lin, gen = [], []
    for _ in range(300):
        n = int(n0_l + rng.integers(0, 100))
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        phi = float(rng.uniform(0, 2 * math.pi))
        lin.append(spectrum_point(field_l, atom, n, theta, phi).dwdo)
        gen.append(dwdo_general(field_g, atom, n, theta, phi).dwdo)
    lin, gen = np.array(lin), np.array(gen)
    worst_l = np.max(np.abs(lin - gen) / (1e-9 * (np.abs(gen) + np.max(np.abs(gen)))))
    _report("06a circular-reduction", worst_c, bound_c)
    _report("06b linear-reduction", worst_l, 1.0)


def test_a06c_zeta_continuity_at_rate_level():
    # the general kernel (tag 42) meets the circular fast path (tag 44) at
    # rate level: W(zeta) / W(1) - 1 on the direct rate, auto window.  zeta
    # enters only through zeta^2, in m*, in the coupling and in the second
    # argument Z (1 - zeta^2) / 2; the bound takes each at first order in
    # 1 - zeta^2 with a unit coefficient, 3 (1 - zeta^2) ~ 6 (1 - zeta)
    atom = Atom.from_charge(1)
    grid = GridSpec(theta_points=24, phi_points=16)
    worst, line = 0.0, []
    for xi in (0.45, 1.0):
        w1 = rate_direct(LaserField.circular(0.01, xi), atom, grid).w_total
        for zeta in (0.9999, 0.999, 0.99):
            dev = rate_direct(LaserField(0.01, xi, zeta), atom, grid).w_total / w1 - 1.0
            worst = max(worst, abs(dev) / (3.0 * (1.0 - zeta**2)))
            line.append(f"xi {xi} zeta {zeta}: {dev:.3e}")
    _report("06c zeta-continuity", worst, 1.0, extra=f"({', '.join(line)}) ")


def test_a07_nonrelativistic_limit():
    # few-photon configuration: v_mean = 0.05 <= 0.1, Born window satisfied
    field = LaserField.circular(5e-3, 0.05)
    atom = Atom.from_charge(1)
    dp = derive_params(field, atom)
    assert dp.v_mean <= 0.1 and dp.born_ok
    n0 = threshold_n(field, atom)
    ridge = {}
    for n in range(n0, n0 + 6):
        ck = channel_kinematics(field, atom, n, 0.0, 0.0)
        theta = math.acos(ck.pi_abs / ck.pi0)
        ridge[n] = (spectrum_point(field, atom, n, theta, 0.0).dwdo, theta)
    n_peak = max(ridge, key=lambda k: ridge[k][0])
    worst = 0.0
    for n in (n_peak, n_peak + 1):
        val, theta = ridge[n]
        nr = spectrum_point(field, atom, n, theta, 0.0, "nonrelativistic").dwdo
        worst = max(worst, abs(val / nr - 1.0))
    _report("07 nonrelativistic-limit", worst, 0.10, extra=f"(peak N={n_peak}) ")


def _kfr_rate(field, atom, formula, channels):
    # the KFR-only rate (rescattering off) of a formula over the channels,
    # 48 Gauss-Legendre nodes in cos theta and 16 azimuth panels
    mu, w = np.polynomial.legendre.leggauss(48)
    phi = 2.0 * math.pi * np.arange(16) / 16
    dwdo = channel_spectrum(field, atom, channels[:, None, None], np.arccos(mu)[:, None], phi,
                            formula, False)[1].reshape(channels.size, mu.size, phi.size)
    return 2.0 * math.pi * float(np.sum(dwdo.mean(axis=2) @ w))


def test_a07b_nonrelativistic_rate_limit():
    # the field of linear_small.json (25 keV, Z = 2) at small xi: the
    # relativistic KFR rate over the nonrelativistic one, linear (55 / 59)
    # and circular (44 / 56), summed over the first 12 open channels.  The
    # nonrelativistic forms drop terms of first order in the photoelectron's
    # beta^2 = 2 N0 omega / m at the threshold channel N0, which carries the
    # rate here, in xi^2 and in (Z alpha)^2; the bound is their sum with
    # unit coefficients
    atom = Atom.from_charge(2)
    omega = 25081.8751 / ELECTRON_MASS_EV
    worst, line = 0.0, []
    for make, tags in ((LaserField.linear, "55/59"), (LaserField.circular, "44/56")):
        for xi in (0.05, 0.2):
            field = make(omega, xi)
            n0 = threshold_n(field, atom)
            channels = np.arange(n0, n0 + 12)
            ratio = (_kfr_rate(field, atom, "relativistic", channels)
                     / _kfr_rate(field, atom, "nonrelativistic", channels))
            bound = 2.0 * n0 * omega + xi**2 + (atom.z_a * FINE_STRUCTURE) ** 2
            worst = max(worst, abs(ratio - 1.0) / bound)
            line.append(f"{tags} xi {xi}: {ratio:.4f}")
    _report("07b nonrelativistic-rate-limit", worst, 1.0, extra=f"({', '.join(line)}) ")


def test_a08_rate_consistency():
    atom = Atom.from_charge(1)
    field = LaserField.circular(0.005, 1.0)  # n_m = 200
    s = saddle_point(field, atom)
    assert s.n_m >= 200.0 - 1.0
    wd = rate_direct(field, atom, GridSpec(theta_points=128)).w_total
    wa = rate_airy(field, atom).w_total
    dev_da = abs(wa / wd - 1.0)

    field2 = LaserField.circular(0.01, 1.0)
    s2 = saddle_point(field2, atom)
    assert s2.y_m <= 0.05
    dev_lap = abs(rate_laplace(field2, atom).w_total / rate_closed(field2, atom).w_total - 1.0)

    atom6 = Atom.from_charge(6)
    omega = 2e-6
    f_at = atom6.z_a**3 * E_CHARGE**5
    inv_f0, ln_w = [], []
    for xi in np.linspace(0.38, 0.42, 5):
        f = LaserField.circular(omega, float(xi))
        assert saddle_point(f, atom6).y_m >= 10.0
        ln_w.append(math.log(rate_airy(f, atom6).w_total))
        inv_f0.append(E_CHARGE / (omega * xi))
    slope = np.polyfit(inv_f0, ln_w, 1)[0]
    dev_slope = abs(slope / (-(2 / 3) * f_at) - 1.0)

    _report("08a direct-vs-airy", dev_da, 0.30)
    _report("08b laplace-vs-closed", dev_lap, 0.25)
    _report("08c tunneling-slope", dev_slope, 0.10)


def test_a09_cli_determinism(tmp_path):
    cfg = {
        "photon_energy_ev": 5109.9895, "intensity_xi": 1.0,
        "polarization": "linear", "z_a": 1, "theta_points": 8,
        "phi_points": 2, "n_range": [30, 36], "output_path": "unused",
    }

    def run(out, **extra):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg, **extra}))
        cp = subprocess.run(
            [sys.executable, "-m", "atispec", "spectrum", "-c", str(cfg_path), "-o", str(out)],
            capture_output=True, text=True)
        assert cp.returncode == 0, cp.stderr
        return (out / "spectrum.csv").read_bytes()

    ref = run(tmp_path / "a")
    same_rerun = run(tmp_path / "b") == ref
    # an older config's `workers` has no effect
    same_workers = run(tmp_path / "c", workers=4) == ref
    print(f"acceptance 09 determinism: rerun identical={same_rerun}, "
          f"workers identical={same_workers} "
          f"{'PASS' if same_rerun and same_workers else 'FAIL'}")
    assert same_rerun and same_workers


def test_a10_selftest_end_to_end():
    t0 = time.time()
    cp = subprocess.run([sys.executable, "-m", "atispec", "selftest"],
                        capture_output=True, text=True)
    elapsed = time.time() - t0
    ok = cp.returncode == 0 and elapsed <= 120.0
    cp_fault = subprocess.run(
        [sys.executable, "-m", "atispec", "selftest", "--inject-bessel-error", "1e-6"],
        capture_output=True, text=True)
    trips = cp_fault.returncode == 1
    print(f"acceptance 10 selftest: exit={cp.returncode} in {elapsed:.1f} s, "
          f"fault-injection exit={cp_fault.returncode} "
          f"{'PASS' if ok and trips else 'FAIL'}")
    assert ok and trips
