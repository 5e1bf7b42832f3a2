import math

import numpy as np
import pytest

from atispec import specfun
from atispec.kinematics import Atom, LaserField, channel_kinematics, threshold_n
from atispec.rates import saddle_point
from atispec.selftest import dwdo_quadrature_oracle
from atispec.spectra import (
    TAG_CIRCULAR,
    TAG_GENERAL,
    TAG_LINEAR,
    TAG_NONREL_CIRCULAR,
    TAG_NONREL_LINEAR,
    channel_spectrum,
    circular_channel_dwdo,
    dwdo_circular,
    dwdo_general,
    dwdo_linear,
    dwdo_nonrel,
    general_channel_dwdo,
    nonrel_channel_dwdo,
)

DESK_FIELD = LaserField.circular(0.01, 1.0)
DESK_ATOM = Atom.from_charge(1)


# ---------------------------------------------------------------- circular

def test_circular_forward_emission_vanishes():
    pt = dwdo_circular(DESK_FIELD, DESK_ATOM, 100, 0.0)
    assert pt.dwdo == 0.0
    assert pt.formula_tag == TAG_CIRCULAR


def test_circular_below_threshold_flagged_zero():
    n0 = threshold_n(DESK_FIELD, DESK_ATOM)
    pt = dwdo_circular(DESK_FIELD, DESK_ATOM, n0 - 1, 0.7)
    assert pt.below_threshold and pt.dwdo == 0.0


def test_circular_rescattering_bracket_ratio():
    # dwdo(on)/dwdo(off) == (1 + r)^2 with r the reported factor
    for n in (60, 100, 140):
        for theta in (0.5, 0.785, 1.2):
            on = dwdo_circular(DESK_FIELD, DESK_ATOM, n, theta, rescattering=True)
            off = dwdo_circular(DESK_FIELD, DESK_ATOM, n, theta, rescattering=False)
            r = on.rescatter_factor
            np.testing.assert_allclose(on.dwdo / off.dwdo, (1 + r) ** 2, rtol=1e-12)


def test_circular_rescattering_factor_order_unity_at_peak():
    # order-unity rescattering at the spectral peak across the xi range
    for xi in (0.5, 1.0, 2.0):
        field = LaserField.circular(0.01, xi)
        s = saddle_point(field, DESK_ATOM)
        n = max(int(round(s.n_m)), threshold_n(field, DESK_ATOM))
        pt = dwdo_circular(field, DESK_ATOM, n, s.theta_m)
        assert 0.3 <= pt.rescatter_factor <= 3.0


def test_circular_accepts_both_helicities():
    left = LaserField(0.01, 1.0, -1.0)
    a = dwdo_circular(left, DESK_ATOM, 100, 0.8).dwdo
    b = dwdo_circular(DESK_FIELD, DESK_ATOM, 100, 0.8).dwdo
    np.testing.assert_allclose(a, b, rtol=1e-14)
    with pytest.raises(ValueError):
        dwdo_circular(LaserField(0.01, 1.0, 0.5), DESK_ATOM, 100, 0.8)


def test_circular_vector_helper_matches_scalar():
    mu = np.array([math.cos(0.6), math.cos(1.1)])
    pref, r = circular_channel_dwdo(DESK_FIELD, DESK_ATOM, 100.0, mu)
    vals = pref * (1.0 + r) ** 2
    for m, v in zip(mu, vals):
        assert v == dwdo_circular(DESK_FIELD, DESK_ATOM, 100, math.acos(m)).dwdo


# ----------------------------------------------------------------- general

def test_general_desk_pin_against_quadrature_path():
    # elliptic desk point, frozen after validating against an independent
    # evaluation that used only the quadrature oracle for every Bessel factor
    field = LaserField(0.01, 1.0, 0.5)
    s = saddle_point(field, DESK_ATOM)
    pt = dwdo_general(field, DESK_ATOM, int(round(s.n_m)), s.theta_m, 0.3)
    np.testing.assert_allclose(pt.dwdo, 2.9590874786574116e-12, rtol=1e-9)

    # live re-derivation along the independent path
    ck = channel_kinematics(field, DESK_ATOM, pt.n, pt.theta, pt.phi)
    zf = 1 - field.zeta**2
    eps0, om = DESK_ATOM.epsilon0, field.omega
    ap = field.xi**2 / (4 * om * eps0)
    u, dlt = ck.alpha_amp, ck.phase_angle
    d_coef = pt.n - ck.big_z * (1 + field.zeta**2)

    def jq(nn, uu, vv, dd):
        return specfun.gen_bessel_quadrature(nn, uu, vv, dd)

    kfr = np.exp(1j * pt.n * dlt) * jq(pt.n, u, -ck.big_z * zf / 2, dlt)
    k_ex = int(math.ceil(ap * zf / 2)) + 40
    v2 = (ck.big_z - ap) * zf / 2
    total = 0j
    for np_ in range(-k_ex, k_ex + 1):
        s_ = pt.n - 2 * np_
        c_s = jq(s_, u, v2, dlt)
        c2_s = 0.5 * (jq(s_ - 2, u, v2, dlt) * np.exp(-2j * dlt)
                      + jq(s_ + 2, u, v2, dlt) * np.exp(2j * dlt))
        j_ord = jq(np_, -ap * zf / 2, 0.0, 0.0).real
        total += np.exp(-1j * (2 * np_ - pt.n) * dlt) * j_ord * (
            (eps0 + 2 * np_ * om) * np.conj(c_s) + om * ap * zf * np.conj(c2_s)
        )
    resc = ck.g_sq / (2 * d_coef * ck.k_dot_pi) * total
    pref = 2**4 / (math.pi * DESK_ATOM.a**5) * d_coef**2 * ck.k_dot_pi**2 * ck.pi_abs / ck.g_sq**4
    oracle = pref * abs(kfr + resc) ** 2
    np.testing.assert_allclose(pt.dwdo, oracle, rtol=1e-10)


def test_general_reduces_to_circular_within_binding_correction():
    # the circular closed form drops one eps0/m weight in the rescattering
    # bracket; agreement bound is E_B/eps0 over the physical peak region
    s = saddle_point(DESK_FIELD, DESK_ATOM)
    n0 = threshold_n(DESK_FIELD, DESK_ATOM)
    rng = np.random.default_rng(42)
    bound = DESK_ATOM.e_b / DESK_ATOM.epsilon0 + 1e-9
    worst = 0.0
    for _ in range(250):
        n = int(rng.integers(max(n0, int(s.n_m - 3 * s.delta_n)),
                             int(s.n_m + 3 * s.delta_n) + 1))
        theta = float(rng.uniform(max(0.05, s.theta_m - 3 * s.delta_theta),
                                  min(math.pi - 0.05, s.theta_m + 3 * s.delta_theta)))
        phi = float(rng.uniform(0, 2 * math.pi))
        g = dwdo_general(DESK_FIELD, DESK_ATOM, n, theta, phi).dwdo
        c = dwdo_circular(DESK_FIELD, DESK_ATOM, n, theta).dwdo
        worst = max(worst, abs(g - c) / max(g, c))
    assert worst <= bound


def test_general_reduces_to_linear_exactly():
    field = LaserField.linear(0.01, 1.0)
    n0 = threshold_n(field, DESK_ATOM)
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(n0 + rng.integers(0, 100))
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        phi = float(rng.uniform(0, 2 * math.pi))
        g = dwdo_general(field, DESK_ATOM, n, theta, phi).dwdo
        ll = dwdo_linear(field, DESK_ATOM, n, theta, phi).dwdo
        np.testing.assert_allclose(g, ll, rtol=1e-9, atol=1e-300)


def _quadrature_oracle_cases(field, rng, count):
    """count random points with rescattering on, then odd and even N with
    phi in all four quadrants and at pi, rescattering on and off."""
    n0 = threshold_n(field, DESK_ATOM)
    cases = [(int(n0 + rng.integers(0, 100)), float(rng.uniform(0.05, math.pi - 0.05)),
              float(rng.uniform(0, 2 * math.pi)), True) for _ in range(count)]
    return cases + [(n, th, ph, resc) for n in (n0 + 30, n0 + 31)
                    for th, ph in [(0.7, 0.3), (1.2, 2.0), (2.1, 3.6), (0.9, 5.5), (1.0, math.pi)]
                    for resc in (True, False)]


@pytest.mark.parametrize("zeta, count", [(0.0, 120), (0.5, 16), (-0.3, 16)])
def test_general_kernel_matches_quadrature_oracle(zeta, count):
    # the scalar reference shares no code with the kernel; 1e-9 relative
    # with a floor of 1e-9 of the largest value, the benchmark gate's form
    field = LaserField(0.01, 1.0, zeta)
    dwdo = dwdo_linear if zeta == 0.0 else dwdo_general
    cases = _quadrature_oracle_cases(field, np.random.default_rng(55), count)
    got = np.array([dwdo(field, DESK_ATOM, *case).dwdo for case in cases])
    want = np.array([dwdo_quadrature_oracle(field, DESK_ATOM, *case) for case in cases])
    assert np.all(np.abs(got - want) <= 1e-9 * (np.abs(want) + np.max(np.abs(want))))


def test_general_azimuth_independent_for_circular():
    vals = [dwdo_general(DESK_FIELD, DESK_ATOM, 100, 0.7, phi).dwdo
            for phi in np.linspace(0, 2 * math.pi, 9)]
    spread = (max(vals) - min(vals)) / max(vals)
    assert spread < 1e-9


def test_general_mode_off_equals_kfr_only():
    field = LaserField(0.01, 1.0, 0.5)
    on = dwdo_general(field, DESK_ATOM, 70, 0.8, 0.4, rescattering=True)
    off = dwdo_general(field, DESK_ATOM, 70, 0.8, 0.4, rescattering=False)
    # zeroing the stored rescattering amplitude reproduces mode=off bit-for-bit
    assert off.dwdo == on.prefactor * abs(on.kfr_amplitude + 0j) ** 2
    assert off.dwdo == on.dwdo_kfr_only


# ------------------------------------------------------------------ linear

def test_linear_perpendicular_emission_parity_zeros():
    # emission perpendicular to the polarization axis: odd N vanish up to
    # the cos(pi/2) representation residue (~1e-17 in the coupling)
    field = LaserField.linear(0.01, 1.0)
    n0 = threshold_n(field, DESK_ATOM)
    n_odd = n0 if n0 % 2 else n0 + 1
    n_even = n_odd + 1
    odd = dwdo_linear(field, DESK_ATOM, n_odd, math.pi / 2, math.pi / 2, rescattering=False)
    even = dwdo_linear(field, DESK_ATOM, n_even, math.pi / 2, math.pi / 2, rescattering=False)
    assert even.dwdo > 0.0
    assert odd.dwdo < 1e-30 * even.dwdo


def test_linear_azimuth_parity():
    # parity is exact in the coupling |cos phi|; the pi - phi image picks up
    # one rounding of cos() that large Bessel orders amplify to ~N*eps
    field = LaserField.linear(0.01, 1.0)
    for (theta, phi) in [(0.7, 0.5), (1.3, 1.1)]:
        base = dwdo_linear(field, DESK_ATOM, 60, theta, phi).dwdo
        np.testing.assert_allclose(
            dwdo_linear(field, DESK_ATOM, 60, theta, math.pi - phi).dwdo, base, rtol=1e-9)
        assert dwdo_linear(field, DESK_ATOM, 60, theta, -phi).dwdo == base


def test_linear_mode_off_is_pure_direct_term():
    field = LaserField.linear(0.01, 1.0)
    off = dwdo_linear(field, DESK_ATOM, 60, 0.9, 0.2, rescattering=False)
    np.testing.assert_allclose(
        off.dwdo, off.prefactor * abs(off.kfr_amplitude) ** 2, rtol=0)


def test_linear_requires_linear_polarization():
    with pytest.raises(ValueError):
        dwdo_linear(DESK_FIELD, DESK_ATOM, 60, 0.9, 0.2)


@pytest.mark.parametrize("rescattering", [True, False])
def test_linear_channel_kernel_matches_one_point_wrapper(rescattering):
    field = LaserField.linear(0.01, 1.0)
    angles = (0.0, math.pi / 2, math.pi)
    theta, phi = np.meshgrid(angles, angles, indexing="ij")
    for n in (60, 61):
        got = general_channel_dwdo(field, DESK_ATOM, n, theta, phi, rescattering)
        assert all(a.shape == theta.shape for a in got)
        for (i, j), th in np.ndenumerate(theta):
            pt = dwdo_linear(field, DESK_ATOM, n, th, phi[i, j], rescattering)
            want = (pt.dwdo, pt.prefactor, pt.kfr_amplitude.real, pt.rescatter_amplitude.real)
            for arr, w in zip(got, want):
                # the batch shares one series truncation: roundoff-level differences
                assert abs(arr[i, j] - w) <= 1e-12 * np.max(np.abs(arr))


def _mirrored_azimuths(count):
    """Groups (phi, -phi, pi - phi, pi + phi) whose |cos| agree bit for bit
    (the images of most phi differ in the last bit), phi = 0 first."""
    groups = [[0.0, -0.0, math.pi, -math.pi]]
    for phi in np.linspace(0.3, 1.4, 200).tolist():
        group = [phi, -phi, math.pi - phi, math.pi + phi]
        if len(set(np.abs(np.cos(group)).tolist())) == 1:
            groups.append(group)
    assert len(groups) > count
    return groups[:count + 1]


@pytest.mark.parametrize("rescattering", [True, False])
def test_linear_channel_kernel_evaluates_each_abs_cos_phi_once(rescattering, monkeypatch):
    field = LaserField.linear(0.01, 1.0)
    groups = _mirrored_azimuths(3)
    thetas = np.array([0.4, 1.1, 2.0])
    theta, phi = np.meshgrid(thetas, np.ravel(groups), indexing="ij")
    alone_theta, alone_phi = np.meshgrid(thetas, [g[0] for g in groups], indexing="ij")
    ladder_rows = []

    class CountingLadder(specfun._Ladder):
        def __init__(self, u, parity):
            ladder_rows.append(u.size)
            super().__init__(u, parity)

    monkeypatch.setattr(specfun, "_Ladder", CountingLadder)
    # an odd channel: there the amplitudes flip sign with cos phi
    for n in (60, 61):
        ladder_rows.clear()
        got = general_channel_dwdo(field, DESK_ATOM, n, theta, phi, rescattering)
        assert ladder_rows == [alone_theta.size]
        alone = general_channel_dwdo(field, DESK_ATOM, n, alone_theta, alone_phi, rescattering)
        for arr, want in zip(got, alone):
            assert arr.shape == theta.shape
            # every member of a mirrored group equals the distinct row, bit for bit
            assert np.array_equal(arr.reshape(thetas.size, len(groups), 4),
                                  np.repeat(want[:, :, None], 4, axis=2))


def test_linear_channel_kernel_below_threshold_is_zero():
    field = LaserField.linear(0.01, 1.0)
    n0 = threshold_n(field, DESK_ATOM)
    vals = general_channel_dwdo(field, DESK_ATOM, n0 - 1, np.array([0.5, 1.0]), 0.3)
    assert all(np.array_equal(a, [0.0, 0.0]) for a in vals)
    assert dwdo_linear(field, DESK_ATOM, n0 - 1, 0.5, 0.3).below_threshold


# ---------------------------------------------------------------- nonrel

NR_FIELD = LaserField.circular(5e-3, 0.05)
NR_LINEAR = LaserField.linear(5e-3, 0.05)


def test_nonrel_threshold_zero():
    z = NR_FIELD.xi**2 / (4 * NR_FIELD.omega)
    n_below = int(math.floor(2 * z + DESK_ATOM.e_b / NR_FIELD.omega))
    pt = dwdo_nonrel(NR_FIELD, DESK_ATOM, n_below, 0.9)
    assert pt.below_threshold and pt.dwdo == 0.0


def test_nonrel_circular_bracket_structure():
    pt = dwdo_nonrel(NR_FIELD, DESK_ATOM, 2, 0.9)
    rho = pt.rescatter_factor
    off = dwdo_nonrel(NR_FIELD, DESK_ATOM, 2, 0.9, rescattering=False)
    np.testing.assert_allclose(pt.dwdo / off.dwdo, (1 + rho) ** 2, rtol=1e-12)
    assert pt.formula_tag == TAG_NONREL_CIRCULAR


def test_nonrel_matches_relativistic_circular_at_peak():
    # few-photon regime, v <= 0.1: compare along the angular ridge at the
    # peak channel and its neighbor; retardation and recoil are O(v^2) there
    n0 = threshold_n(NR_FIELD, DESK_ATOM)
    ridge = {}
    for n in range(n0, n0 + 6):
        ck = channel_kinematics(NR_FIELD, DESK_ATOM, n, 0.0, 0.0)
        th = math.acos(ck.pi_abs / ck.pi0)
        ridge[n] = (dwdo_circular(NR_FIELD, DESK_ATOM, n, th).dwdo, th)
    n_peak = max(ridge, key=lambda k: ridge[k][0])
    for n in (n_peak, n_peak + 1):
        val, th = ridge[n]
        nr = dwdo_nonrel(NR_FIELD, DESK_ATOM, n, th).dwdo
        assert abs(val / nr - 1.0) < 0.10


def test_nonrel_linear_brace_enters_unsquared():
    pt_on = dwdo_nonrel(NR_LINEAR, DESK_ATOM, 2, 0.4)
    pt_off = dwdo_nonrel(NR_LINEAR, DESK_ATOM, 2, 0.4, rescattering=False)
    rho = pt_on.rescatter_factor
    np.testing.assert_allclose(pt_on.dwdo / pt_off.dwdo, 1 + rho, rtol=1e-12)
    assert pt_on.formula_tag == TAG_NONREL_LINEAR


def test_nonrel_linear_joint_limit():
    # direct (rescattering-off) terms agree in the joint limit xi -> 0 at a
    # fixed channel; the recoil mismatch dies like sqrt(omega).  mode=on is
    # excluded by construction: the two closed forms carry structurally
    # different rescattering braces (squared vs unsquared).
    # theta is measured from the wave vector relativistically and from the
    # polarization axis nonrelativistically: phi=0, theta -> pi/2 - theta.
    atom = Atom.with_binding(1, 1e-8)
    th_pol = 0.4
    ratios = []
    for omega in (5e-4, 5e-5, 5e-6):
        field = LaserField.linear(omega, math.sqrt(2.0 * omega))  # fixed z = 1/2
        rel = dwdo_linear(field, atom, 2, math.pi / 2 - th_pol, 0.0,
                          rescattering=False).dwdo
        nr = dwdo_nonrel(field, atom, 2, th_pol, rescattering=False).dwdo
        ratios.append(rel / nr)
    devs = [abs(r - 1.0) for r in ratios]
    assert devs[0] > devs[1] > devs[2]
    assert devs[-1] < 0.03


def test_nonrel_entry_points_reject_elliptic_field():
    # the nonrelativistic forms exist for circular and linear fields only
    field = LaserField(5e-3, 0.05, 0.5)
    with pytest.raises(ValueError):
        nonrel_channel_dwdo(field, DESK_ATOM, 3, np.array([0.4]))
    with pytest.raises(ValueError):
        dwdo_nonrel(field, DESK_ATOM, 3, 0.4)
    with pytest.raises(ValueError):
        channel_spectrum(field, DESK_ATOM, 3, np.array([0.4]), np.array([0.0]), "nonrelativistic")


# ------------------------------------------------------------- threshold

def _nonrel_first_open(field, c):
    # X = N - c z - E_B / omega > 0, with c = 2 (circular) or 1 (linear)
    return math.floor(c * field.xi**2 / (4 * field.omega) + DESK_ATOM.e_b / field.omega) + 1


@pytest.mark.parametrize("tag, field, point, first_open", [
    (TAG_GENERAL, LaserField(0.01, 1.0, 0.5),
     lambda f, n: dwdo_general(f, DESK_ATOM, n, 0.7, 0.3), None),
    (TAG_CIRCULAR, DESK_FIELD, lambda f, n: dwdo_circular(f, DESK_ATOM, n, 0.7), None),
    (TAG_LINEAR, LaserField.linear(0.01, 1.0),
     lambda f, n: dwdo_linear(f, DESK_ATOM, n, 0.7, 0.3), None),
    (TAG_NONREL_CIRCULAR, LaserField.circular(5e-3, 0.2),
     lambda f, n: dwdo_nonrel(f, DESK_ATOM, n, 0.7), 2.0),
    (TAG_NONREL_LINEAR, LaserField.linear(5e-3, 0.2),
     lambda f, n: dwdo_nonrel(f, DESK_ATOM, n, 0.7), 1.0),
])
def test_below_threshold_flag_at_last_closed_and_first_open_channel(tag, field, point, first_open):
    n_open = threshold_n(field, DESK_ATOM) if first_open is None \
        else _nonrel_first_open(field, first_open)
    closed, opened = point(field, n_open - 1), point(field, n_open)
    assert closed.formula_tag == opened.formula_tag == tag
    assert closed.below_threshold and not opened.below_threshold
    assert (closed.dwdo, closed.prefactor, closed.kfr_amplitude, closed.rescatter_amplitude,
            closed.dwdo_kfr_only) == (0.0, 0.0, 0j, 0j, 0.0)


# ------------------------------------------------------------- invariants

def test_every_formula_nonnegative_over_random_scan():
    rng = np.random.default_rng(2024)
    field_e = LaserField(0.01, 1.0, 0.5)
    field_l = LaserField.linear(0.01, 1.0)
    n0_c = threshold_n(DESK_FIELD, DESK_ATOM)
    n0_e = threshold_n(field_e, DESK_ATOM)
    n0_l = threshold_n(field_l, DESK_ATOM)
    for _ in range(25):
        th = float(rng.uniform(0, math.pi))
        ph = float(rng.uniform(0, 2 * math.pi))
        resc = bool(rng.integers(0, 2))
        assert dwdo_circular(DESK_FIELD, DESK_ATOM, int(n0_c + rng.integers(0, 150)), th, resc).dwdo >= 0
        assert dwdo_general(field_e, DESK_ATOM, int(n0_e + rng.integers(0, 80)), th, ph, resc).dwdo >= 0
        assert dwdo_linear(field_l, DESK_ATOM, int(n0_l + rng.integers(0, 80)), th, ph, resc).dwdo >= 0
        assert dwdo_nonrel(NR_FIELD, DESK_ATOM, int(rng.integers(1, 12)), th, resc).dwdo >= 0
        assert dwdo_nonrel(NR_LINEAR, DESK_ATOM, int(rng.integers(1, 12)), th, resc).dwdo >= 0


def test_general_collapses_to_single_exchange_for_circular():
    # at |zeta| = 1 the photon-exchange ladder collapses to one term whose
    # weight carries the bound-state energy; KFR term is the plain Bessel
    pt = dwdo_general(DESK_FIELD, DESK_ATOM, 100, 0.8, 0.0)
    ck = channel_kinematics(DESK_FIELD, DESK_ATOM, 100, 0.8, 0.0)
    jn = specfun.ordinary_bessel(100, ck.alpha_amp)
    np.testing.assert_allclose(abs(pt.kfr_amplitude), abs(jn), rtol=1e-12)
    r_gen = (pt.rescatter_amplitude / pt.kfr_amplitude).real
    r_circ = dwdo_circular(DESK_FIELD, DESK_ATOM, 100, 0.8).rescatter_factor
    np.testing.assert_allclose(r_gen, r_circ * DESK_ATOM.epsilon0, rtol=1e-10)


def test_exchange_sum_raises_when_not_converged(monkeypatch):
    # with no margin the exchange sum starts at |n'| <= ceil|w| = 5, where
    # J_6(5) and J_7(5) still carry a tail, and the term cap forbids growing
    from atispec import spectra

    monkeypatch.setattr(spectra, "RESCATTER_MARGIN", 0)
    monkeypatch.setattr(specfun, "MAX_TERMS", 11)
    ladder = specfun._Ladder(np.array([3.0]), 4)
    with pytest.raises(specfun.SeriesConvergenceError, match="rescattering sum") as err:
        spectra._exchange_sum(ladder, 4, -5.0, np.array([0.0]), 0.0, 1.0,
                              DESK_ATOM.epsilon0, 0.01, 20.0)
    assert err.value.residual > 0.0
