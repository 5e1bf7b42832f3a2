import math
import tracemalloc

import numpy as np
import pytest

from atispec import rates, specfun, spectra
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
from atispec.spectra import channel_spectrum, circular_channel_dwdo, general_channel_dwdo

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
            vals = circular_channel_dwdo(field, DESK_ATOM, n, np.arccos(mu))[0]
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
    u_rows = []
    series_rows = specfun._series_rows

    def counting_series_rows(series):
        # the rows of each distinct u array: the two series of a delta group share one
        u_rows.extend({id(s[0]): s[0].size for s in series}.values())
        return series_rows(series)

    monkeypatch.setattr(specfun, "_series_rows", counting_series_rows)
    rate_direct(LINEAR_FIELD, DESK_ATOM, grid)
    assert u_rows == [(2 * grid.theta_points + 1) * distinct]


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


@pytest.mark.parametrize("field", [DESK_FIELD, LaserField(0.01, 0.5, -1.0)],
                         ids=["desk", "left-helicity"])
@pytest.mark.parametrize("theta_points", [8, 24, 48])
def test_rate_direct_circular_integrates_the_spectrum_column(field, theta_points):
    # a one-channel direct rate is the Kronrod sum of the dwdo column that
    # `ati spectrum` writes at theta = arccos of the nodes, bit for bit, and
    # without rescattering that of its kfr_only_dwdo column
    mu, w_k = rates._gauss_kronrod(theta_points)
    thetas = np.arccos(mu)
    n_m = int(round(saddle_point(field, DESK_ATOM).n_m))
    channels = range(max(n_m - 10, threshold_n(field, DESK_ATOM)), n_m + 10)
    mismatched = []
    for n in channels:
        grid = GridSpec(theta_points=theta_points, n_lo=n, n_cut=n)
        columns = channel_spectrum(field, DESK_ATOM, n, thetas, np.zeros(thetas.size))
        for resc, column in ((True, columns[1]), (False, columns[2])):
            w = rate_direct(field, DESK_ATOM, grid, rescattering=resc).w_total
            if w != np.dot(w_k, 2.0 * math.pi * column):
                mismatched.append((n, resc))
    assert len(channels) == 20 and mismatched == []


def test_rate_direct_linear_integrates_the_spectrum_column():
    # the same on a linear field: the dwdo column at the folded azimuths,
    # summed exactly over the panels
    grid = GridSpec(theta_points=8, phi_points=8)
    mu, w_k = rates._gauss_kronrod(grid.theta_points)
    j = np.arange(grid.phi_points)
    j = np.minimum(j, grid.phi_points - j)
    phis = math.pi * np.minimum(2 * j, grid.phi_points - 2 * j) / grid.phi_points
    thetas, phis = np.meshgrid(np.arccos(mu), phis, indexing="ij")
    n0 = threshold_n(LINEAR_FIELD, DESK_ATOM)
    for n in range(n0, n0 + 3):
        columns = channel_spectrum(LINEAR_FIELD, DESK_ATOM, n, thetas.ravel(), phis.ravel())
        for resc, column in ((True, columns[1]), (False, columns[2])):
            w = rate_direct(LINEAR_FIELD, DESK_ATOM, GridSpec(8, 8, n_lo=n, n_cut=n),
                            rescattering=resc).w_total
            profile = [math.fsum(row) for row in column.reshape(thetas.shape).tolist()]
            assert w == np.dot(w_k, np.array(profile) * (2.0 * math.pi / grid.phi_points))


ELLIPTIC_FIELD = LaserField(0.02, 0.6, 0.5)
_ONE_CALL_CASES = [
    (DESK_FIELD, GridSpec(theta_points=12)),
    (LINEAR_FIELD, GridSpec(theta_points=8, phi_points=8,
                            n_cut=threshold_n(LINEAR_FIELD, DESK_ATOM) + 6)),
    (ELLIPTIC_FIELD, GridSpec(theta_points=6, phi_points=5,
                              n_cut=threshold_n(ELLIPTIC_FIELD, DESK_ATOM) + 4)),
]
_ONE_CALL_IDS = ["circular", "linear", "elliptic"]


def _rate_bits(rs):
    report = rs.grid_report
    return rs.w_total, report["quad_error_estimate"], report["tail_channel_sum"]


@pytest.mark.parametrize("field, grid", _ONE_CALL_CASES, ids=_ONE_CALL_IDS)
def test_rate_direct_is_one_channel_spectrum_call_whatever_the_block(field, grid, monkeypatch):
    # the whole window goes to channel_spectrum at once, which alone blocks
    # the rows; the rate's bits do not depend on the block
    calls = []
    spectrum = rates.channel_spectrum

    def counting_spectrum(*args):
        calls.append(np.broadcast_shapes(*map(np.shape, args[2:5])))
        return spectrum(*args)

    monkeypatch.setattr(rates, "channel_spectrum", counting_spectrum)
    default = rate_direct(field, DESK_ATOM, grid)
    channels = default.grid_report["channels_summed"]
    assert channels > 2 and calls == [(channels, 2 * grid.theta_points + 1, calls[0][2])]
    for block in (7, 129):
        monkeypatch.setattr(spectra, "SPECTRUM_BLOCK", block)
        calls.clear()
        assert _rate_bits(rate_direct(field, DESK_ATOM, grid)) == _rate_bits(default)
        assert len(calls) == 1


def test_rate_direct_circular_window_is_one_jn_call(monkeypatch):
    # a circular window within one block of rows pays the J_N kernel's fixed
    # cost once; a smaller block splits it into one call per block
    calls = []
    jn = specfun._jn
    monkeypatch.setattr(specfun, "_jn", lambda m, x: (calls.append(np.size(x)), jn(m, x))[1])
    grid = GridSpec(theta_points=24)
    rs = rate_direct(DESK_FIELD, DESK_ATOM, grid)
    rows = rs.grid_report["channels_summed"] * (2 * grid.theta_points + 1)
    assert 2048 < rows <= spectra.SPECTRUM_BLOCK and calls == [rows]
    calls.clear()
    monkeypatch.setattr(spectra, "SPECTRUM_BLOCK", 2048)
    assert rate_direct(DESK_FIELD, DESK_ATOM, grid).w_total == rs.w_total
    assert len(calls) == -(-rows // 2048) and sum(calls) == rows


@pytest.mark.parametrize("kwargs", [{"theta_points": 0}, {"theta_points": -2},
                                    {"phi_points": 0}, {"phi_points": -1}])
def test_gridspec_rejects_empty_rules(kwargs):
    with pytest.raises(ValueError, match="must be >= 1"):
        GridSpec(**kwargs)


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


def _full_airy_mesh(field, atom, n_grid, theta_grid, w_theta):
    # the rate_airy integrand from a full meshgrid, every point through
    # airy_ai
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
    r = g_sq / (2.0 * (nn - 2.0 * big_z) * k_pi)
    return (
        (2.0 / nn) ** (2.0 / 3.0)
        * (nn - 2.0 * big_z) ** 2 * k_pi**2 * pi_abs / g_sq**4
        * ai2 * (1.0 + r) ** 2 * np.sin(tt)
    )


def _fixed_block_airy_mesh(field, atom, n_grid, theta_grid, w_theta):
    # the rate_airy integrand with its main pass in fixed blocks of
    # SPECTRUM_BLOCK // 300 = 54 rows, each over the theta span of its
    # rows' evaluated tiles
    w_n = rates._trapezoid_weights(n_grid)
    sin_t = np.sin(theta_grid)
    w_row = w_theta * sin_t
    ends, bound, cut = rates._tile_plan(field, atom, n_grid, theta_grid, w_n, w_row)
    evaluated = ~(bound <= cut)
    rows = max(spectra.SPECTRUM_BLOCK // theta_grid.size, 1)
    out = np.zeros((n_grid.size, theta_grid.size))
    for i in range(0, n_grid.size, rows):
        blk = slice(i, i + rows)
        tiles = np.flatnonzero(evaluated[blk].any(axis=0))
        if tiles.size == 0:
            continue
        cols = slice(ends[tiles[0]], ends[tiles[-1] + 1] + 1)
        y, pre, post, _ = rates._mesh_block(field, atom, n_grid[blk, None], theta_grid[cols])
        need = ~(rates._skip_bound(y, pre, post, w_n[blk, None] * w_row[cols]) <= cut)
        ai2 = np.zeros(y.shape)
        ai2[need] = specfun.airy_ai(y[need]) ** 2
        out[blk, cols] = pre * ai2 * post * sin_t[cols]
    return out


SKIP_FIELDS = [
    (DESK_FIELD, DESK_ATOM),
    (TUNNELING_FIELD, TUNNELING_ATOM),   # almost every point is left out
    (LaserField.circular(0.00916, 1.0), Atom.from_charge(2)),  # n_m = 109
]


@pytest.mark.parametrize("method", [rate_airy])
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
    (args, skipped), (_, integrand) = skipping[-1], full_mesh[-1]
    _, _, n_grid, _, w_theta = args
    weighted = integrand * np.outer(rates._trapezoid_weights(n_grid), w_theta)
    total = np.sum(weighted)
    left_out = (skipped == 0.0) & (integrand > 0.0)
    assert np.sum(weighted[left_out]) <= 2.0**-60 * total
    if field is TUNNELING_FIELD:
        assert sum(np.size(a[0]) for a, _ in ai_args) < 0.1 * integrand.size


# the benchmark pool's n_m ~ 70 field (s3v0: 7205.419 eV, xi 0.99277, Z 2),
# whose mesh comes within g^2 = 1.8e-8 of the g -> 0 pole, and its
# n_m ~ 110 field (s4v0: 4678.7253 eV, xi 1.016, Z 2)
POLE_FIELD = LaserField.circular(7205.419 / ELECTRON_MASS_EV, 0.99277), Atom.from_charge(2)
NM110_FIELD = LaserField.circular(4678.7253 / ELECTRON_MASS_EV, 1.016), Atom.from_charge(2)
TILE_FIELDS = SKIP_FIELDS + [POLE_FIELD, NM110_FIELD]


def _rate_airy_mesh_args(field, atom, monkeypatch):
    # the (n_grid, theta_grid, w_theta) that rate_airy hands its mesh
    meshes, mesh = [], rates._airy_mesh
    monkeypatch.setattr(rates, "_airy_mesh", lambda *args: meshes.append(args) or mesh(*args))
    rate_airy(field, atom)
    monkeypatch.undo()
    return meshes[-1][2:]


@pytest.mark.parametrize("field, atom", TILE_FIELDS)
def test_airy_tiles_left_out_hold_only_points_below_the_cut(monkeypatch, field, atom):
    n_grid, theta_grid, w_theta = _rate_airy_mesh_args(field, atom, monkeypatch)
    w_n, w_row = rates._trapezoid_weights(n_grid), w_theta * np.sin(theta_grid)
    ends, bound, cut = rates._tile_plan(field, atom, n_grid, theta_grid, w_n, w_row)
    assert ends[0] == 0 and ends[-1] == theta_grid.size - 1
    assert np.all(np.diff(ends) <= rates._TILE)
    # B on the full mesh; the cut is at most 2^-60 of the full mesh's
    # weighted integrand averaged over the mesh points
    y, pre, post, ck = rates._mesh_block(field, atom, n_grid[:, None], theta_grid)
    b = rates._skip_bound(y, pre, post, w_n[:, None] * w_row)
    total = np.sum(_full_airy_mesh(field, atom, n_grid, theta_grid, w_theta) * np.outer(w_n, w_theta))
    assert 0.0 < cut <= 2.0**-60 * total / b.size
    ai_points, ck_points = [], []
    airy, kinematics = rates.airy_ai, rates.channel_kinematics
    monkeypatch.setattr(rates, "airy_ai", lambda x: ai_points.append(x.size) or airy(x))
    monkeypatch.setattr(rates, "channel_kinematics", lambda f, a, n, t, p: ck_points.append(
        np.broadcast(n, t).size) or kinematics(f, a, n, t, p))
    integrand = rates._airy_mesh(field, atom, n_grid, theta_grid, w_theta)
    # airy_ai sees exactly the full-mesh points above the cut, and the
    # kinematics on the pool fields at most 0.7 of the mesh
    assert sum(ai_points) == np.count_nonzero(~(b <= cut))
    if (field, atom) in (POLE_FIELD, NM110_FIELD):
        assert sum(ck_points) <= 0.7 * integrand.size

    ridge = np.arccos(ck.pi_abs / ck.pi0)[:, 0]
    left_out = bound <= cut
    assert left_out.any()
    for k in range(ends.size - 1):
        a, z = ends[k], ends[k + 1]
        # a finite bound bounds B at every point of its tile
        bounded = np.isfinite(bound[:, k])
        assert np.all(b[bounded, a:z + 1] <= bound[bounded, k, None])
        rows = left_out[:, k]
        assert np.all(b[rows, a:z + 1] <= cut) and np.all(integrand[rows, a:z + 1] == 0.0)
        # no tile that straddles the ridge, reaches y < 1 or has a
        # non-finite bound is left out
        straddles = (theta_grid[a] <= ridge) & (ridge <= theta_grid[z])
        reaches = np.any(~(y[:, a:z + 1] >= 1.0), axis=1)
        assert not np.any(rows & (straddles | reaches | ~np.isfinite(bound[:, k])))


@pytest.mark.parametrize("field, atom", TILE_FIELDS)
def test_airy_mesh_row_blocks_keep_the_fixed_block_integrand(monkeypatch, field, atom):
    # the span-sized row blocks give the integrand of fixed 54-row blocks
    # bit for bit, in blocks (the coarse pass's and the main pass's) and Ai
    # calls of at most SPECTRUM_BLOCK points
    n_grid, theta_grid, w_theta = _rate_airy_mesh_args(field, atom, monkeypatch)
    want = _fixed_block_airy_mesh(field, atom, n_grid, theta_grid, w_theta)
    mesh_points, ai_points = [], []
    block, airy = rates._mesh_block, rates.airy_ai
    monkeypatch.setattr(rates, "_mesh_block", lambda f, a, n, t: mesh_points.append(
        np.broadcast(n, t).size) or block(f, a, n, t))
    monkeypatch.setattr(rates, "airy_ai", lambda x: ai_points.append(x.size) or airy(x))
    got = rates._airy_mesh(field, atom, n_grid, theta_grid, w_theta)
    assert got.tobytes() == want.tobytes()
    assert mesh_points and max(mesh_points) <= spectra.SPECTRUM_BLOCK
    assert max(ai_points, default=0) <= spectra.SPECTRUM_BLOCK


@pytest.mark.parametrize("field, atom", [POLE_FIELD, NM110_FIELD])
def test_rate_airy_calls_ai_at_most_20_times(monkeypatch, field, atom):
    # one Ai call per row block (38 calls of fixed 54-row blocks), each one
    # airy_ai block
    calls, airy = [], rates.airy_ai
    monkeypatch.setattr(rates, "airy_ai", lambda x: calls.append(x.size) or airy(x))
    rate_airy(field, atom)
    assert 0 < len(calls) <= 20


@pytest.mark.parametrize("seed", range(6))
def test_row_blocks_cover_the_evaluated_rows_in_full_blocks(seed):
    # random tile patterns, some rows with no evaluated tile: every row
    # with one is in exactly one block, in order; a block's columns are the
    # union of its rows' evaluated tiles, within SPECTRUM_BLOCK points, and
    # the block stops only where its next row would pass that or has no tile
    rng = np.random.default_rng(seed)
    ends = np.r_[np.arange(0, 299, rates._TILE), 299]
    rows, tiles = 700, ends.size - 1
    # a band that drifts across the tiles, as the ridge does
    centre = np.linspace(0, tiles - 1, rows).astype(int) + rng.integers(-1, 2, rows)
    width = rng.integers(0, 2 + 6 * (seed % 2), rows)
    k = np.arange(tiles)
    evaluated = np.abs(k - centre[:, None]) <= width[:, None]
    evaluated[rng.random(rows) < 0.05 * (seed % 3)] = False
    if seed == 0:
        evaluated[:] = False
    blocks = list(rates._row_blocks(evaluated, ends))
    covered = np.concatenate([np.arange(rows)[blk] for blk, _ in blocks] or [[]]).astype(int)
    assert np.array_equal(covered, np.flatnonzero(evaluated.any(axis=1)))

    def span(blk):
        t = np.flatnonzero(evaluated[blk].any(axis=0))
        return slice(ends[t[0]], ends[t[-1] + 1] + 1)

    for blk, cols in blocks:
        n = blk.stop - blk.start
        assert cols == span(blk)
        assert n == 1 or n * (cols.stop - cols.start) <= spectra.SPECTRUM_BLOCK
        if blk.stop < rows and evaluated[blk.stop].any():
            wider = span(slice(blk.start, blk.stop + 1))
            assert (n + 1) * (wider.stop - wider.start) > spectra.SPECTRUM_BLOCK


def test_rate_airy_theta_rule_is_the_mapped_gauss_legendre_rule(monkeypatch):
    # the [0, pi] window rule of rate_airy, bit for bit the
    # (x + 1) pi / 2, w pi / 2 of the Gauss-Legendre rule on [-1, 1]
    meshes, mesh = [], rates._airy_mesh

    def recorded(*args):
        meshes.append(args)
        return mesh(*args)

    monkeypatch.setattr(rates, "_airy_mesh", recorded)
    rate_airy(DESK_FIELD, DESK_ATOM)
    _, _, _, theta_grid, w_theta = meshes[-1]
    x, w = np.polynomial.legendre.leggauss(rates.AIRY_THETA_POINTS)
    assert np.array_equal(theta_grid, (x + 1.0) * math.pi / 2.0)
    assert np.array_equal(w_theta, w * math.pi / 2.0)


# rate_airy w_total of the mesh that took the kinematics at every point.
# integrand @ w_theta is a BLAS product, whose last bit depends on the
# BLAS kernel of the CPU (OpenBLAS's Sandybridge and Prescott kernels give
# ...114 for the n_m ~ 110 field), so the values are checked here at 1e-12.
# The bytes of the two pool fields are pinned per host class, in CI and
# at 64 ulp across classes in test_cli's host-class test
AIRY_PINNED = [
    (DESK_FIELD, DESK_ATOM, 8.286872015458698e-11),
    (*POLE_FIELD, 4.338334363420246e-07),
    (*NM110_FIELD, 2.4003419129136106e-09),
    (TUNNELING_FIELD, TUNNELING_ATOM, 3.154066510717678e-38),
]


@pytest.mark.parametrize("field, atom, want", AIRY_PINNED)
def test_rate_airy_matches_untiled_mesh(field, atom, want):
    assert abs(rate_airy(field, atom).w_total / want - 1.0) <= 1e-12


def test_rate_airy_peak_memory_below_two_integrands():
    # one pass over the row blocks keeps no block past its own step, so
    # the traced peak is the integrand plus a few blocks and the tile plan
    field, atom = NM110_FIELD
    rate_airy(field, atom)
    tracemalloc.start()
    try:
        rate_airy(field, atom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * rates.AIRY_N_POINTS * rates.AIRY_THETA_POINTS * 8


# rate_laplace w_total of the 3000 x 800 trapezoid mesh it replaced
LAPLACE_PINNED = [
    (DESK_FIELD, DESK_ATOM, 7.745695353888507e-11),
    (TUNNELING_FIELD, TUNNELING_ATOM, 3.084670437932283e-38),
    (LaserField.circular(0.00916, 1.0), Atom.from_charge(2), 2.3933769204041826e-09),
    (LaserField.circular(0.005, 1.0), DESK_ATOM, 6.085665631742971e-11),
]


@pytest.mark.parametrize("field, atom, want", LAPLACE_PINNED)
def test_rate_laplace_matches_trapezoid_mesh(field, atom, want):
    assert abs(rate_laplace(field, atom).w_total / want - 1.0) <= 1e-10


@pytest.mark.parametrize("field, atom", [(f, a) for f, a, _ in LAPLACE_PINNED])
def test_laplace_airy_mass_converged_under_node_doubling(field, atom):
    # 320 Gauss-Legendre nodes per axis on the same window, from a full
    # meshgrid of airy_argument
    s = saddle_point(field, atom)
    k = rates.LAPLACE_WIDTHS
    windows = [(max(float(threshold_n(field, atom)), s.n_m - k * s.delta_n), s.n_m + k * s.delta_n),
               (max(0.0, s.theta_m - k * s.delta_theta), min(math.pi, s.theta_m + k * s.delta_theta))]
    x, w = np.polynomial.legendre.leggauss(2 * rates.LAPLACE_POINTS)
    (n_nodes, w_n), (t_nodes, w_t) = [
        (lo + (x + 1.0) * (hi - lo) / 2.0, w * (hi - lo) / 2.0) for lo, hi in windows
    ]
    nn, tt = np.meshgrid(n_nodes, t_nodes, indexing="ij")
    mass = w_n @ specfun.airy_ai(airy_argument(field, atom, nn, tt)) ** 2 @ w_t
    assert abs(rate_laplace(field, atom).grid_report["airy_mass"] / mass - 1.0) <= 1e-10


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
    # rate_laplace shares the guard
    nm5 = LaserField.circular(100327.5006 / ELECTRON_MASS_EV, 0.9988), Atom.from_charge(2)
    for method in (rate_airy, rate_laplace):
        for field, atom in [(LaserField.circular(0.01, 0.5), DESK_ATOM), nm5]:  # n_m = 25, 5.08
            with pytest.raises(AsymptoticsError):
                method(field, atom)
        with pytest.raises(ValueError):
            method(LaserField.linear(0.01, 1.0), DESK_ATOM)


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
        return math.log(rate_closed(LaserField.circular(omega, xi), atom).w_total)

    xi0 = 0.0168  # F_at/F0 ~ 500: deep tunneling, W still representable
    xi1, xi2 = xi0 * 0.999, xi0 * 1.001
    for xi in (xi1, xi2):
        assert saddle_point(LaserField.circular(omega, xi), atom).y_m >= 10.0
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
    with pytest.raises(RegimeError, match="intermediate"):
        rate_closed(LaserField.circular(1e-4, 0.1), Atom.with_binding(1, 6e-4))


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
