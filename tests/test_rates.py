import math

import numpy as np
import pytest

from atispec import rates, specfun
from atispec.constants import E_CHARGE, ELECTRON_MASS_EV, GAMMA_TWO_THIRDS
from atispec.kinematics import (
    Atom,
    ChannelExplosionError,
    LaserField,
    derive_params,
    effective_mass,
    threshold_n,
)
from atispec.rates import (
    AsymptoticsError,
    DegenerateSaddleError,
    GridSpec,
    RegimeError,
    airy_argument,
    rate_airy,
    rate_closed,
    rate_direct,
    rate_laplace,
    saddle_point,
)
from atispec.spectra import circular_channel_dwdo, general_channel_dwdo

DESK_FIELD = LaserField.circular(0.01, 1.0)
DESK_ATOM = Atom.from_charge(1)


# ------------------------------------------------------------------ saddle

def test_saddle_exact_vs_flat_estimate():
    # the exact peak formula and the flat-space estimate m xi^2/omega agree
    # to binding-energy-order corrections
    s = saddle_point(DESK_FIELD, DESK_ATOM)
    flat = DESK_FIELD.xi**2 / DESK_FIELD.omega
    assert abs(s.n_m - flat) / flat < 10 * DESK_ATOM.e_b / DESK_FIELD.xi**2 + 1e-3


def test_saddle_stationarity_finite_differences():
    s = saddle_point(DESK_FIELD, DESK_ATOM)
    h_n = 1e-4 * s.n_m
    h_t = 1e-4
    fd_n = abs(
        airy_argument(DESK_FIELD, DESK_ATOM, s.n_m + h_n, s.theta_m)
        - airy_argument(DESK_FIELD, DESK_ATOM, s.n_m - h_n, s.theta_m)
    ) / 2.0
    fd_t = abs(
        airy_argument(DESK_FIELD, DESK_ATOM, s.n_m, s.theta_m + h_t)
        - airy_argument(DESK_FIELD, DESK_ATOM, s.n_m, s.theta_m - h_t)
    ) / 2.0
    assert fd_n <= 1e-6 * s.y_m
    assert fd_t <= 1e-6 * s.y_m


def test_saddle_regime_parameter_dual_identity():
    for xi in (0.3, 1.0, 3.0):
        for omega in (0.002, 0.01):
            field = LaserField.circular(omega, xi)
            s = saddle_point(field, DESK_ATOM)
            dp = derive_params(field, DESK_ATOM)
            np.testing.assert_allclose(
                s.y_m, (dp.f_at / (2 * dp.f0)) ** (2 / 3), rtol=1e-10
            )


def test_saddle_angle_equals_mean_speed_at_small_binding():
    atom = Atom.with_binding(1, 1e-8)
    for xi in (0.5, 1.0, 2.0):
        field = LaserField.circular(0.01, xi)
        s = saddle_point(field, atom)
        v = xi / math.sqrt(1 + xi**2)
        assert abs(math.cos(s.theta_m) - v) < 1e-6


def test_saddle_widths_scale_with_omega():
    s1 = saddle_point(LaserField.circular(0.01, 1.0), DESK_ATOM)
    s2 = saddle_point(LaserField.circular(0.005, 1.0), DESK_ATOM)
    np.testing.assert_allclose(s2.n_m / s1.n_m, 2.0, rtol=1e-3)
    np.testing.assert_allclose(s2.delta_n / s1.delta_n, 2 ** (2 / 3), rtol=1e-3)
    np.testing.assert_allclose(s2.delta_theta / s1.delta_theta, 2 ** (-1 / 3), rtol=1e-3)


def test_bounded_minimizer_matches_scipy():
    from scipy.optimize import minimize_scalar

    def check(func, lo, hi, xatol):
        want = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                               options={"xatol": xatol}).x
        assert rates._minimize_bounded(func, lo, hi, xatol) == float(want)

    for omega in (0.002, 0.01, 0.02):
        for xi in (0.5, 1.0, 3.0):
            for field in (LaserField.circular(omega, xi), LaserField.linear(omega, xi)):
                n_m = saddle_point(field, DESK_ATOM).n_m

                def ridge_y(n, field=field):
                    return airy_argument(field, DESK_ATOM, n, rates._ridge_theta(field, DESK_ATOM, n))

                check(ridge_y, 0.6 * n_m, 1.4 * n_m, 1e-10 * n_m)
    # minima at a bound, interior parabolic convergence, and the evaluation cap
    check(lambda x: (x - 3.0) ** 2, 0.0, 1.0, 1e-5)
    check(lambda x: math.cos(x) + 0.1 * x, 0.0, 6.0, 1e-12)
    check(lambda x: abs(x - 0.3), -1.0, 1.0, 0.0)


def test_saddle_degenerate_error():
    # near-vanishing intensity puts the nominal peak below threshold
    field = LaserField.circular(0.01, 1e-4)
    atom = Atom.with_binding(1, 1e-5)
    with pytest.raises(DegenerateSaddleError):
        saddle_point(field, atom)
    with pytest.raises(ValueError):
        saddle_point(LaserField.circular(0.01, 0.0), atom)


def test_saddle_point_is_memoized_and_underflow_is_field_off():
    saddle_point.cache_clear()
    first = saddle_point(DESK_FIELD, DESK_ATOM)
    again = saddle_point(LaserField.circular(DESK_FIELD.omega, DESK_FIELD.xi), DESK_ATOM)
    assert again is first and saddle_point.cache_info().hits == 1
    # an intensity whose square underflows has no spectral peak, like xi = 0
    with pytest.raises(ValueError):
        saddle_point(LaserField.circular(0.01, 1e-170), DESK_ATOM)


def test_tunneling_closed_form_underflows_to_zero():
    # (F_at/F0)^3 alone would overflow; the exponential has underflowed first
    omega = 2000.0 / ELECTRON_MASS_EV
    field, atom = LaserField.circular(omega, 1e-120), Atom.with_binding(1, omega)
    assert rate_closed(field, atom).w_total == 0.0


def test_regime_classification_thresholds():
    assert saddle_point(DESK_FIELD, DESK_ATOM).regime == "multiphoton_strongfield"
    tun = saddle_point(LaserField.circular(2e-6, 0.4), Atom.from_charge(6))
    assert tun.regime == "tunneling"
    # y_m ~ 0.5: intermediate
    mid = saddle_point(LaserField.circular(1e-4, 0.1), Atom.with_binding(1, 6e-4))
    assert mid.regime == "intermediate"


# ------------------------------------------------------------ direct rate

def test_rate_direct_field_off_is_zero():
    rs = rate_direct(LaserField.circular(0.01, 0.0), DESK_ATOM,
                     GridSpec(theta_points=16))
    assert rs.w_total == 0.0


def test_rate_direct_refinement_estimate_honest():
    grid = GridSpec(theta_points=48)
    rs = rate_direct(DESK_FIELD, DESK_ATOM, grid)
    rs2 = rate_direct(DESK_FIELD, DESK_ATOM, GridSpec(theta_points=96))
    # doubling the reported grid changes the value by less than the estimate
    assert abs(rs2.w_total - rs.w_total) <= max(rs.grid_report["quad_error_estimate"],
                                                1e-14 * rs.w_total)


def test_rate_direct_error_estimates_shrink():
    e1 = rate_direct(DESK_FIELD, DESK_ATOM, GridSpec(theta_points=24)).grid_report["quad_error_estimate"]
    e2 = rate_direct(DESK_FIELD, DESK_ATOM, GridSpec(theta_points=48)).grid_report["quad_error_estimate"]
    assert e1 / max(e2, 1e-300) >= 2.0


def test_rate_direct_rescattering_enhancement_bounded():
    on = rate_direct(DESK_FIELD, DESK_ATOM, GridSpec(theta_points=64)).w_total
    off = rate_direct(DESK_FIELD, DESK_ATOM, GridSpec(theta_points=64),
                      rescattering=False).w_total
    assert 1.0 < on / off < 9.0


def test_rate_direct_rerun_bit_identical():
    a = rate_direct(DESK_FIELD, DESK_ATOM, GridSpec(theta_points=32))
    b = rate_direct(DESK_FIELD, DESK_ATOM, GridSpec(theta_points=32))
    assert a.w_total == b.w_total


def test_rate_direct_linear_rerun_bit_identical():
    field = LaserField.linear(0.02, 0.6)
    n_cut = threshold_n(field, DESK_ATOM) + 4
    a = rate_direct(field, DESK_ATOM, GridSpec(theta_points=8, phi_points=2, n_cut=n_cut))
    b = rate_direct(field, DESK_ATOM, GridSpec(theta_points=8, phi_points=2, n_cut=n_cut))
    assert a.w_total == b.w_total


def test_rate_direct_linear_trips_on_bessel_fault():
    field = LaserField.linear(0.02, 0.6)
    grid = GridSpec(theta_points=8, phi_points=2, n_cut=threshold_n(field, DESK_ATOM) + 4)
    clean = rate_direct(field, DESK_ATOM, grid).w_total
    specfun.set_bessel_fault(1e-6)
    try:
        faulty = rate_direct(field, DESK_ATOM, grid).w_total
    finally:
        specfun.set_bessel_fault(0.0)
    assert abs(faulty - clean) > 1e-9 * clean


def _gauss_legendre_pair_rate(field, rs, theta_points, phi_points):
    """The direct rate as the two-pass rule computed it: the 2n-node
    Gauss-Legendre rule in cos(theta), panels at 2 pi j / P in phi."""
    mu, w = np.polynomial.legendre.leggauss(2 * theta_points)
    phis = 2.0 * math.pi * np.arange(phi_points) / phi_points
    thetas, phis = np.meshgrid(np.arccos(mu), phis, indexing="ij")
    total = []
    for n in range(rs.grid_report["n_lo"], rs.grid_report["n_hi"] + 1):
        if field.zeta != 0.0:
            pref, r = circular_channel_dwdo(field, DESK_ATOM, float(n), mu)
            vals = pref * (1.0 + r) ** 2
            total.append(2.0 * math.pi * float(np.dot(w, vals)))
        else:
            vals = general_channel_dwdo(field, DESK_ATOM, n, thetas, phis)[0]
            acc = np.array([math.fsum(row) for row in vals.tolist()]) * (2.0 * math.pi / phi_points)
            total.append(float(np.dot(w, acc)))
    return float(np.sum(total))


LINEAR_FIELD = LaserField.linear(0.02, 0.6)
# the under-resolved rate_linear benchmark config (the two-pass estimate
# was 78% of its rate)
COARSE_LINEAR_FIELD = LaserField.linear(25006.2432 / ELECTRON_MASS_EV, 0.44247)


@pytest.mark.parametrize("field, grid, coarse", [
    (DESK_FIELD, GridSpec(theta_points=48), False),
    (LINEAR_FIELD,
     GridSpec(theta_points=12, phi_points=8, n_cut=threshold_n(LINEAR_FIELD, DESK_ATOM) + 12),
     False),
    (COARSE_LINEAR_FIELD, GridSpec(theta_points=28, phi_points=2, n_cut=7), True),
], ids=["desk-circular", "linear", "coarse-linear"])
def test_rate_direct_agrees_with_gauss_legendre_pair(field, grid, coarse):
    rs = rate_direct(field, DESK_ATOM, grid)
    old = _gauss_legendre_pair_rate(field, rs, grid.theta_points, grid.phi_points)
    estimate = rs.grid_report["quad_error_estimate"]
    assert rs.grid_report["theta_points"] == 2 * grid.theta_points + 1
    assert abs(rs.w_total - old) <= estimate
    assert (estimate > 0.5 * rs.w_total) == coarse
    assert any("exceeds 1% of total" in w for w in rs.warnings) == coarse


@pytest.mark.parametrize("phi_points, distinct", [(16, 5), (3, 2), (2, 1)])
def test_rate_direct_linear_evaluates_each_abs_cos_phi_once(phi_points, distinct, monkeypatch):
    # |cos(2 pi j / 16)| takes 5 values (phi = 0, pi/8, pi/4, 3 pi/8, pi/2)
    grid = GridSpec(theta_points=8, phi_points=phi_points, n_cut=threshold_n(LINEAR_FIELD, DESK_ATOM))
    ladder_rows = []

    class CountingLadder(specfun._Ladder):
        def __init__(self, u, parity):
            ladder_rows.append(u.size)
            super().__init__(u, parity)

    monkeypatch.setattr(specfun, "_Ladder", CountingLadder)
    rate_direct(LINEAR_FIELD, DESK_ATOM, grid)
    assert ladder_rows == [(2 * grid.theta_points + 1) * distinct]


def test_rate_direct_channel_cap():
    with pytest.raises(ChannelExplosionError):
        rate_direct(DESK_FIELD, DESK_ATOM, GridSpec(theta_points=16, channel_cap=10))


def test_rate_direct_linear_polarization_runs():
    field = LaserField.linear(0.02, 0.6)
    rs = rate_direct(field, DESK_ATOM, GridSpec(theta_points=12, phi_points=8, n_cut=threshold_n(field, DESK_ATOM) + 12))
    assert rs.w_total > 0.0
    assert rs.grid_report["phi_points"] == 8
    elliptic = LaserField(0.01, 1.0, 0.5)
    grid = GridSpec(theta_points=8, phi_points=4, n_cut=threshold_n(elliptic, DESK_ATOM) + 4)
    assert rate_direct(elliptic, DESK_ATOM, grid).w_total > 0.0


def test_rate_direct_elliptic_tends_to_linear_and_circular():
    # one channel window and grid for every zeta; near zeta = 1 the general
    # amplitude differs from the tag-44 closed form by the reduction_circular
    # bound E_B / eps0
    linear = LaserField.linear(0.02, 0.6)
    grid = GridSpec(theta_points=12, phi_points=8, n_cut=threshold_n(linear, DESK_ATOM) + 12)
    w_lin = rate_direct(linear, DESK_ATOM, grid).w_total
    w_near_lin = rate_direct(LaserField(0.02, 0.6, 1e-6), DESK_ATOM, grid).w_total
    assert abs(w_near_lin - w_lin) <= 1e-9 * w_lin
    circ = rate_direct(LaserField.circular(0.02, 0.6), DESK_ATOM, grid)
    near_circ = rate_direct(LaserField(0.02, 0.6, 1.0 - 1e-9), DESK_ATOM, grid)
    assert near_circ.grid_report["phi_points"] == 8 and circ.grid_report["phi_points"] == 1
    bound = DESK_ATOM.e_b / DESK_ATOM.epsilon0 + 1e-9
    assert abs(near_circ.w_total - circ.w_total) <= bound * circ.w_total


@pytest.mark.parametrize("zeta, phi_points", [(0.5, 8), (-0.3, 5), (0.8, 2)])
def test_rate_direct_folded_panels_equal_unfolded_sum(zeta, phi_points):
    # the panels 2 pi j / P, each evaluated where it lies, through the same kernel
    field = LaserField(0.02, 0.6, zeta)
    grid = GridSpec(theta_points=8, phi_points=phi_points, n_cut=threshold_n(field, DESK_ATOM) + 6)
    rs = rate_direct(field, DESK_ATOM, grid)
    mu, w = rates._gauss_kronrod(grid.theta_points)
    thetas, phis = np.meshgrid(np.arccos(mu), 2.0 * math.pi * np.arange(phi_points) / phi_points,
                               indexing="ij")
    total = 0.0
    for n in range(rs.grid_report["n_lo"], rs.grid_report["n_hi"] + 1):
        vals = general_channel_dwdo(field, DESK_ATOM, n, thetas, phis)[0]
        total += float(np.dot(w, vals.sum(axis=1))) * 2.0 * math.pi / phi_points
    assert rs.w_total > 0.0
    assert abs(rs.w_total - total) <= 1e-12 * rs.w_total


# ------------------------------------------------------------- airy rate

def test_rate_airy_matches_direct_sum():
    field = LaserField.circular(0.005, 1.0)
    wd = rate_direct(field, DESK_ATOM, GridSpec(theta_points=128)).w_total
    wa = rate_airy(field, DESK_ATOM).w_total
    assert abs(wa / wd - 1.0) < 0.30


def test_rate_airy_integrand_peaks_at_saddle():
    # the smooth prefactor drags the argmax a fraction of a peak width off
    # the stationary point of the Airy argument; one width bounds it
    field = LaserField.circular(0.005, 1.0)
    rs = rate_airy(field, DESK_ATOM)
    s = rs.saddle
    assert abs(rs.grid_report["integrand_peak_n"] - s.n_m) <= s.delta_n
    assert abs(rs.grid_report["integrand_peak_theta"] - s.theta_m) <= s.delta_theta


TUNNELING_FIELD = LaserField.circular(2e-6, 0.4)
TUNNELING_ATOM = Atom.from_charge(6)


@pytest.mark.parametrize("method", [rate_airy, rate_laplace])
@pytest.mark.parametrize("field, atom", [(DESK_FIELD, DESK_ATOM),
                                         (TUNNELING_FIELD, TUNNELING_ATOM)])
def test_airy_mesh_rates_match_scipy_airy_oracle(monkeypatch, method, field, atom):
    # the same mesh and weights with Ai taken from scipy's airy routine alone
    from scipy import special as sp

    rs = method(field, atom)
    if field is TUNNELING_FIELD:
        # the whole mesh then lies in the deep decaying tail of Ai, y > 10
        # (its smallest y is 13.94 here)
        assert rs.saddle.y_m > 10.0
    monkeypatch.setattr(rates, "airy_ai", lambda y: sp.airy(y)[0])
    oracle = method(field, atom)
    assert rs.w_total > 0.0
    assert abs(rs.w_total / oracle.w_total - 1.0) <= 1e-12


def test_airy_envelope_bounds_ai():
    # L(x) = exp(-2/3 x^(3/2)) / (2 sqrt(pi) x^(1/4)) lies above Ai on
    # (0, 103] and within 1.0706 of it from x = 1 on; the skip rule of the
    # Airy-form meshes uses 1.15 >= 1.0706^2 for (L/Ai)^2
    x = np.concatenate([np.geomspace(1e-8, 1.0, 2001), np.linspace(1.0, 103.0, 200_001)])
    env, ai = specfun.airy_ai_asymptotic(x), specfun.airy_ai(x)
    assert np.all(env >= ai)
    assert np.max(env[x >= 1.0] / ai[x >= 1.0]) <= 1.0706
    assert 1.0706**2 <= rates._ENVELOPE_SQ_MAX


def _full_airy_mesh(field, atom, n_grid, theta_grid, w_theta, smooth=True):
    # the Airy-form integrand from a full meshgrid, every point through
    # airy_ai; returns (integrand, y) in place of (integrand, Lambda)
    m_star = effective_mass(field)
    nn, tt = np.meshgrid(n_grid, theta_grid, indexing="ij")
    pi0 = atom.epsilon0 + nn * field.omega
    pi_abs = np.sqrt(np.maximum(pi0**2 - m_star**2, 0.0))
    k_pi = field.omega * (pi0 - pi_abs * np.cos(tt))
    big_z = field.xi**2 / (4.0 * k_pi)
    g_sq = pi_abs**2 - 2.0 * nn * field.omega * pi_abs * np.cos(tt) + (nn * field.omega) ** 2
    alpha = field.xi * pi_abs * np.sin(tt) / k_pi
    y = (nn / 2.0) ** (2.0 / 3.0) * (1.0 - alpha**2 / nn**2)
    ai2 = specfun.airy_ai(y) ** 2
    if not smooth:
        return ai2, y
    r = g_sq / (2.0 * (nn - 2.0 * big_z) * k_pi)
    return (
        (2.0 / nn) ** (2.0 / 3.0)
        * (nn - 2.0 * big_z) ** 2 * k_pi**2 * pi_abs / g_sq**4
        * ai2 * (1.0 + r) ** 2 * np.sin(tt)
    ), y


SKIP_FIELDS = [
    (DESK_FIELD, DESK_ATOM),
    (TUNNELING_FIELD, TUNNELING_ATOM),   # almost every point is left out
    (LaserField.circular(0.00916, 1.0), Atom.from_charge(2)),  # n_m = 109
]


@pytest.mark.parametrize("method", [rate_airy, rate_laplace])
@pytest.mark.parametrize("field, atom", SKIP_FIELDS)
def test_airy_mesh_skip_matches_full_mesh(monkeypatch, method, field, atom):
    def recorded(mesh, calls):
        def run(*args, **kwargs):
            calls.append((args, mesh(*args, **kwargs)))
            return calls[-1][1]
        return run

    skipping, full_mesh, ai_args = [], [], []
    monkeypatch.setattr(rates, "_airy_mesh", recorded(rates._airy_mesh, skipping))
    monkeypatch.setattr(rates, "airy_ai", recorded(specfun.airy_ai, ai_args))
    rs = method(field, atom)
    monkeypatch.setattr(rates, "_airy_mesh", recorded(_full_airy_mesh, full_mesh))
    full = method(field, atom)
    assert rs.w_total > 0.0
    assert abs(rs.w_total / full.w_total - 1.0) <= 2.0**-50

    # the last mesh of a run is its rate mesh
    (args, (skipped, lam)), (_, (integrand, y)) = skipping[-1], full_mesh[-1]
    _, _, n_grid, _, w_theta = args
    weighted = integrand * np.outer(rates._trapezoid_weights(n_grid), w_theta)
    total = np.sum(weighted)
    # Lambda bounds the weighted sum from below and is at least its part
    # at y >= 1 over 1.15
    assert np.sum(weighted[y >= 1.0]) / 1.15 <= lam <= total
    left_out = (skipped == 0.0) & (integrand > 0.0)
    assert np.sum(weighted[left_out]) <= 2.0**-60 * total
    if field is TUNNELING_FIELD:
        assert sum(np.size(a[0]) for a, _ in ai_args) < 0.1 * integrand.size


def test_gauss_legendre_nodes_are_cached_and_read_only():
    nodes, weights = rates._gauss_legendre(37)
    want = np.polynomial.legendre.leggauss(37)
    assert np.array_equal(nodes, want[0]) and np.array_equal(weights, want[1])
    assert rates._gauss_legendre(37)[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable
    nodes, weights = rates._gauss_kronrod(37)
    assert rates._gauss_kronrod(37)[0] is nodes and rates._gauss_kronrod(37)[1] is weights
    assert not nodes.flags.writeable and not weights.flags.writeable


@pytest.mark.parametrize("n", [1, 7, 28, 64, 200])
def test_gauss_kronrod_extends_gauss_legendre(n):
    nodes, weights = rates._gauss_kronrod(n)
    assert nodes.shape == weights.shape == (2 * n + 1,)
    # exact for x^d, d <= 3n + 1
    for d in range(3 * n + 2):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(float(np.dot(weights, nodes**d)) - exact) <= 1e-14, d
    # the Gauss nodes, bit for bit, at the odd positions
    assert np.array_equal(nodes[1::2], rates._gauss_legendre(n)[0])
    assert np.all(np.diff(nodes) > 0.0)
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    assert np.all(weights > 0.0)


def test_rate_airy_requires_large_peak():
    with pytest.raises(AsymptoticsError):
        rate_airy(LaserField.circular(0.01, 0.5), DESK_ATOM)  # n_m = 25
    with pytest.raises(ValueError):
        rate_airy(LaserField.linear(0.01, 1.0), DESK_ATOM)


# ----------------------------------------------------------- closed forms

def test_strongfield_closed_prefactor_value():
    from atispec.rates import strongfield_closed_prefactor
    want = 2 ** (7 / 3) / (3 ** (4 / 3) * GAMMA_TWO_THIRDS**2) * math.pi
    np.testing.assert_allclose(strongfield_closed_prefactor(), want, rtol=1e-15)
    np.testing.assert_allclose(strongfield_closed_prefactor(), 1.9956231789594314, rtol=1e-12)


def test_strongfield_closed_intensity_power_law():
    w1 = rate_closed(LaserField.circular(0.01, 1.0), DESK_ATOM).w_total
    w2 = rate_closed(LaserField.circular(0.01, 2.0), DESK_ATOM).w_total
    np.testing.assert_allclose(w2 / w1, 2.0 ** (-11 / 3), rtol=1e-12)


def test_tunneling_closed_exponent_derivative():
    # d(ln W)/d(1/F0) = 3 F0 - (2/3) F_at: the dominant term is the
    # tunneling exponent and the 3 F0 residue comes from the power-law
    # prefactor.  Two nearby evaluations recover the analytic derivative to
    # 1e-6 relative; the deviation from -(2/3) F_at matches the prefactor
    # contribution.
    atom = Atom.from_charge(6)
    omega = 1e-5
    f_at = atom.z_a**3 * E_CHARGE**5

    def lnw(xi):
        return math.log(rate_closed(LaserField.circular(omega, xi), atom,
                                    branch="tunneling").w_total)

    xi0 = 0.0168  # F_at/F0 ~ 500: deep tunneling, W still representable
    xi1, xi2 = xi0 * 0.999, xi0 * 1.001
    inv1 = E_CHARGE / (omega * xi1)
    inv2 = E_CHARGE / (omega * xi2)
    slope = (lnw(xi2) - lnw(xi1)) / (inv2 - inv1)
    f0_mid = 2.0 / (inv1 + inv2)
    analytic = 3.0 * f0_mid - (2 / 3) * f_at
    np.testing.assert_allclose(slope, analytic, rtol=1e-6)
    residue = slope - (-(2 / 3) * f_at)
    np.testing.assert_allclose(residue, 3.0 * f0_mid, rtol=1e-3)


def test_rate_closed_regime_gating():
    assert rate_closed(DESK_FIELD, DESK_ATOM).method == "strongfield_closed"
    tun = rate_closed(LaserField.circular(2e-6, 0.4), Atom.from_charge(6))
    assert tun.method == "tunneling_closed"
    with pytest.raises(RegimeError):
        rate_closed(LaserField.circular(1e-4, 0.1), Atom.with_binding(1, 6e-4))
    forced = rate_closed(LaserField.circular(1e-4, 0.1), Atom.with_binding(1, 6e-4),
                         branch="tunneling")
    assert forced.method == "tunneling_closed"


def test_laplace_estimate_matches_strongfield_closed():
    wl = rate_laplace(DESK_FIELD, DESK_ATOM).w_total
    wc = rate_closed(DESK_FIELD, DESK_ATOM).w_total
    assert abs(wl / wc - 1.0) < 0.25


def test_tunneling_slope_of_airy_rate():
    # ln(rate) vs 1/F0 regression deep in the tunneling regime
    atom = Atom.from_charge(6)
    omega = 2e-6
    f_at = atom.z_a**3 * E_CHARGE**5
    inv_f0, ln_w = [], []
    for xi in np.linspace(0.38, 0.42, 5):
        field = LaserField.circular(omega, xi)
        s = saddle_point(field, atom)
        assert s.y_m >= 10.0
        ln_w.append(math.log(rate_airy(field, atom).w_total))
        inv_f0.append(E_CHARGE / (omega * xi))
    slope = np.polyfit(inv_f0, ln_w, 1)[0]
    assert abs(slope / (-(2 / 3) * f_at) - 1.0) < 0.10
