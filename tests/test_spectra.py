import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atispec import rates, specfun, spectra
from atispec.constants import ELECTRON_MASS_EV
from atispec.kinematics import Atom, LaserField, channel_kinematics, threshold_n
from atispec.rates import saddle_point
from atispec.selftest import _dwdo_of, dwdo_quadrature_oracle
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
    spectrum_point,
)

DESK_FIELD = LaserField.circular(0.01, 1.0)
DESK_ATOM = Atom.from_charge(1)


# ---------------------------------------------------------------- circular

@settings(max_examples=100, deadline=None)
@given(omega=st.floats(1e-4, 0.05), xi=st.floats(0.01, 8.0), z_a=st.integers(1, 40),
       offset=st.integers(0, 300), theta=st.lists(st.floats(0.0, math.pi), min_size=1, max_size=8))
def test_circular_forms_read_j_n_below_the_turning_point(omega, xi, z_a, offset, theta):
    # tags 44 and 56 hand specfun._jn only arguments 0 <= x <= N - E_B/omega
    # (specfun._jn's docstring), the range of its kernel.  Equality holds at
    # Pi0 = m*^2, cos theta = |Pi|/Pi0 for tag 44 and at X = 2z, theta = pi/2
    # for tag 56: those channels and angles are evaluated too, and x may
    # pass the bound only by rounding
    seen = []
    jn = specfun._jn

    def spy(n, x):
        seen.append(np.broadcast_arrays(np.asarray(n), np.asarray(x)))
        return jn(n, x)

    field, atom = LaserField.circular(omega, xi), Atom.from_charge(z_a)
    n0 = max(threshold_n(field, atom), 1)
    n = np.arange(n0, n0 + offset + 3)[:, None]
    m_sq = 1.0 + xi**2  # m*^2 of a circular field
    tight = [(m_sq - atom.epsilon0) / omega, xi**2 / omega + atom.e_b / omega]
    n_tight = np.array([max(n0, math.floor(t) + d) for t in tight for d in (0, 1)])
    pi0 = atom.epsilon0 + n_tight * omega
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(specfun, "_jn", spy)
        circular_channel_dwdo(field, atom, n, np.array(theta))
        nonrel_channel_dwdo(field, atom, n, np.array(theta))
        circular_channel_dwdo(field, atom, n_tight, np.arccos(np.sqrt(pi0**2 - m_sq) / pi0))
        nonrel_channel_dwdo(field, atom, n_tight, np.full(n_tight.size, math.pi / 2))
    assert seen
    for orders, args in seen:
        assert np.all(args >= 0.0)
        assert np.all(orders - args >= atom.e_b / omega - 1e-12 * orders)


@pytest.mark.parametrize("formula", ["relativistic", "nonrelativistic"])
@pytest.mark.parametrize("omega, xi, z_a", [(0.01, 1.0, 1), (0.0141, 0.99277, 2), (2e-4, 0.3, 6)])
def test_circular_channel_spectrum_never_takes_the_miller_branch(formula, omega, xi, z_a,
                                                                 monkeypatch):
    # tags 44 and 56 read J_N from _jn's kernel alone: no _JTable is built,
    # over theta in [0, pi], ends included, nor at theta outside it, where
    # they pass |x| (J_N^2 is even in x) and so give -theta the bytes of theta
    built = []
    jtable = specfun._JTable
    monkeypatch.setattr(specfun, "_JTable", lambda x, top: (built.append(top), jtable(x, top))[1])
    field, atom = LaserField.circular(omega, xi), Atom.from_charge(z_a)
    n0 = threshold_n(field, atom)
    tag = channel_spectrum(field, atom, np.arange(n0, n0 + 40)[:, None, None],
                           np.linspace(0.0, math.pi, 33)[:, None], np.zeros(2), formula)[0]
    assert set(np.unique(tag)) == {TAG_CIRCULAR if formula == "relativistic" else TAG_NONREL_CIRCULAR}
    spectrum_point(field, atom, n0 + 5, -0.5, 0.0)
    assert built == []
    rows = circular_channel_dwdo if formula == "relativistic" else nonrel_channel_dwdo
    n, theta = np.arange(n0, n0 + 40)[:, None], np.linspace(0.0, 2.0 * math.pi, 65)
    for a, b in zip(rows(field, atom, n, theta), rows(field, atom, n, -theta)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("call, name", [
    (lambda v: Atom.from_charge(v), "z_a"),
    (lambda v: specfun.ordinary_bessel(v, 3.0), "order n"),
    (lambda v: specfun.gen_bessel(v, 1.0, 0.5, 0.2), "order n"),
    (lambda v: specfun.gen_bessel_quadrature(v, 1.0, 0.5, 0.2), "order n"),
    (lambda v: tuple(specfun.gen_bessel_orders(v, 4, 1.0, 0.5, 0.2)), "n_lo"),
    (lambda v: tuple(specfun.gen_bessel_orders(0, v + 2, 1.0, 0.5, 0.2)), "n_hi"),
    (lambda v: spectrum_point(DESK_FIELD, DESK_ATOM, 98 + v, 0.5, 0.0), "channel n"),
    (lambda v: dwdo_circular(DESK_FIELD, DESK_ATOM, 98 + v, 0.5), "channel n"),
    *[(lambda v, key=key: rates.GridSpec(**{key: 10 + v}), key)
      for key in ("theta_points", "phi_points", "n_lo", "n_cut", "channel_cap")],
])
def test_integer_arguments_are_checked_not_truncated(call, name):
    # a non-integral value raises, naming the argument; an integral float
    # or numpy integer gives what the int gives
    with pytest.raises(ValueError, match=f"{name} must be an integer, got"):
        call(2.5)
    want = call(2)
    assert call(2.0) == want
    assert call(np.int64(2)) == want


def test_circular_forward_emission_vanishes():
    pt = spectrum_point(DESK_FIELD, DESK_ATOM, 100, 0.0, 0.0)
    assert pt.dwdo == 0.0
    assert pt.formula_tag == TAG_CIRCULAR


def test_circular_below_threshold_flagged_zero():
    n0 = threshold_n(DESK_FIELD, DESK_ATOM)
    pt = spectrum_point(DESK_FIELD, DESK_ATOM, n0 - 1, 0.7, 0.0)
    assert pt.below_threshold and pt.dwdo == 0.0


def test_circular_rescattering_bracket_ratio():
    # dwdo(on)/dwdo(off) == (1 + r)^2 with r the reported factor
    for n in (60, 100, 140):
        for theta in (0.5, 0.785, 1.2):
            on = spectrum_point(DESK_FIELD, DESK_ATOM, n, theta, 0.0)
            r = on.rescatter_factor
            np.testing.assert_allclose(on.dwdo / on.dwdo_kfr_only, (1 + r) ** 2, rtol=1e-12)


def test_circular_rescattering_factor_order_unity_at_peak():
    # order-unity rescattering at the spectral peak across the xi range
    for xi in (0.5, 1.0, 2.0):
        field = LaserField.circular(0.01, xi)
        s = saddle_point(field, DESK_ATOM)
        n = max(int(round(s.n_m)), threshold_n(field, DESK_ATOM))
        pt = spectrum_point(field, DESK_ATOM, n, s.theta_m, 0.0)
        assert 0.3 <= pt.rescatter_factor <= 3.0


def test_circular_accepts_both_helicities():
    left = LaserField(0.01, 1.0, -1.0)
    a = spectrum_point(left, DESK_ATOM, 100, 0.8, 0.0)
    b = spectrum_point(DESK_FIELD, DESK_ATOM, 100, 0.8, 0.0)
    assert a.formula_tag == b.formula_tag == TAG_CIRCULAR
    np.testing.assert_allclose(a.dwdo, b.dwdo, rtol=1e-14)
    for zeta in (0.0, 0.5):
        with pytest.raises(ValueError):
            dwdo_circular(LaserField(0.01, 1.0, zeta), DESK_ATOM, 100, 0.8)
        # the closed form itself refuses a linear or elliptic field too
        with pytest.raises(ValueError):
            circular_channel_dwdo(LaserField(0.01, 1.0, zeta), DESK_ATOM, 100, np.array([0.5]))


def test_circular_vector_helper_matches_scalar():
    thetas = np.array([0.6, 1.1])
    vals = circular_channel_dwdo(DESK_FIELD, DESK_ATOM, 100, thetas)[0]
    for th, v in zip(thetas, vals):
        assert v == spectrum_point(DESK_FIELD, DESK_ATOM, 100, th, 0.0).dwdo


# ----------------------------------------------------------------- general

def test_general_desk_pin_against_quadrature_path():
    # elliptic desk point, frozen after validating against an independent
    # evaluation that used only the quadrature oracle for every Bessel factor
    field = LaserField(0.01, 1.0, 0.5)
    s = saddle_point(field, DESK_ATOM)
    pt = spectrum_point(field, DESK_ATOM, int(round(s.n_m)), s.theta_m, 0.3)
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
        c = spectrum_point(DESK_FIELD, DESK_ATOM, n, theta, phi).dwdo
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
        ll = spectrum_point(field, DESK_ATOM, n, theta, phi).dwdo
        np.testing.assert_allclose(g, ll, rtol=1e-9, atol=1e-300)


def _quadrature_oracle_cases(field, rng, count):
    """count random points with rescattering on, then odd and even N with
    phi in all four quadrants and at pi, pi/2 and 3 pi/2 (the rows whose
    phase angle is 0 or +-pi/2), rescattering on and off."""
    n0 = threshold_n(field, DESK_ATOM)
    cases = [(int(n0 + rng.integers(0, 100)), float(rng.uniform(0.05, math.pi - 0.05)),
              float(rng.uniform(0, 2 * math.pi)), True) for _ in range(count)]
    return cases + [(n, th, ph, resc) for n in (n0 + 30, n0 + 31)
                    for th, ph in [(0.7, 0.3), (1.2, 2.0), (2.1, 3.6), (0.9, 5.5), (1.0, math.pi),
                                   (1.0, math.pi / 2), (1.0, 3 * math.pi / 2)]
                    for resc in (True, False)]


@pytest.mark.parametrize("zeta, count", [(0.0, 120), (0.5, 16), (-0.3, 16), (0.9, 16)])
def test_general_kernel_matches_quadrature_oracle(zeta, count):
    # the scalar reference shares no code with the kernel; 1e-9 relative
    # with a floor of 1e-9 of the largest value, the benchmark gate's form
    field = LaserField(0.01, 1.0, zeta)
    cases = _quadrature_oracle_cases(field, np.random.default_rng(55), count)
    got = np.array([_dwdo_of(spectrum_point(field, DESK_ATOM, n, th, ph), resc)
                    for n, th, ph, resc in cases])
    want = np.array([dwdo_quadrature_oracle(field, DESK_ATOM, *case) for case in cases])
    assert np.all(np.abs(got - want) <= 1e-9 * (np.abs(want) + np.max(np.abs(want))))


def test_general_azimuth_independent_for_circular():
    vals = [dwdo_general(DESK_FIELD, DESK_ATOM, 100, 0.7, phi).dwdo
            for phi in np.linspace(0, 2 * math.pi, 9)]
    spread = (max(vals) - min(vals)) / max(vals)
    assert spread < 1e-9


def test_general_mode_off_equals_kfr_only():
    # at every tag, bit for bit from the stored amplitudes: zeroing the
    # rescattering amplitude gives the mode-off (kfr_only_dwdo) column of
    # the point's channel_spectrum row, and the bracket rule (unsquared at
    # tag 59) gives dwdo
    for field, n, formula, tag in [
            (LaserField(0.01, 1.0, 0.5), 70, "relativistic", TAG_GENERAL),
            (DESK_FIELD, 100, "relativistic", TAG_CIRCULAR),
            (LaserField.linear(0.01, 1.0), 70, "relativistic", TAG_LINEAR),
            (NR_FIELD, 2, "nonrelativistic", TAG_NONREL_CIRCULAR),
            (NR_LINEAR, 2, "nonrelativistic", TAG_NONREL_LINEAR)]:
        on = spectrum_point(field, DESK_ATOM, n, 0.8, 0.4, formula)
        off = channel_spectrum(field, DESK_ATOM, n, np.array([0.8]), np.array([0.4]), formula)[2][0]
        assert on.formula_tag == tag and off > 0.0
        assert off == on.prefactor * abs(on.kfr_amplitude + 0j) ** 2
        assert off == on.dwdo_kfr_only
        bracket = on.kfr_amplitude + on.rescatter_amplitude
        assert on.dwdo == (on.prefactor * bracket.real if tag == TAG_NONREL_LINEAR
                           else on.prefactor * abs(bracket) ** 2)


# ------------------------------------------------------------------ linear

def test_linear_perpendicular_emission_parity_zeros():
    # emission perpendicular to the polarization axis: odd N vanish up to
    # the cos(pi/2) representation residue (~1e-17 in the coupling)
    field = LaserField.linear(0.01, 1.0)
    n0 = threshold_n(field, DESK_ATOM)
    n_odd = n0 if n0 % 2 else n0 + 1
    n_even = n_odd + 1
    odd = spectrum_point(field, DESK_ATOM, n_odd, math.pi / 2, math.pi / 2)
    even = spectrum_point(field, DESK_ATOM, n_even, math.pi / 2, math.pi / 2)
    assert even.dwdo_kfr_only > 0.0
    assert odd.dwdo_kfr_only < 1e-30 * even.dwdo_kfr_only


def test_linear_azimuth_parity():
    # parity is exact in the coupling |cos phi|; the pi - phi image picks up
    # one rounding of cos() that large Bessel orders amplify to ~N*eps
    field = LaserField.linear(0.01, 1.0)
    for (theta, phi) in [(0.7, 0.5), (1.3, 1.1)]:
        base = spectrum_point(field, DESK_ATOM, 60, theta, phi).dwdo
        np.testing.assert_allclose(
            spectrum_point(field, DESK_ATOM, 60, theta, math.pi - phi).dwdo, base, rtol=1e-9)
        assert spectrum_point(field, DESK_ATOM, 60, theta, -phi).dwdo == base


def test_linear_mode_off_is_pure_direct_term():
    field = LaserField.linear(0.01, 1.0)
    off = spectrum_point(field, DESK_ATOM, 60, 0.9, 0.2)
    np.testing.assert_allclose(
        off.dwdo_kfr_only, off.prefactor * abs(off.kfr_amplitude) ** 2, rtol=0)


def test_linear_requires_linear_polarization():
    with pytest.raises(ValueError):
        dwdo_linear(DESK_FIELD, DESK_ATOM, 60, 0.9, 0.2)


def test_retained_one_point_functions_equal_spectrum_point():
    # the former one-point API, kept while the benchmark traces its names
    for field in (DESK_FIELD, LaserField.linear(0.01, 1.0), LaserField(0.01, 1.0, 0.5)):
        assert dwdo_general(field, DESK_ATOM, 80, 0.7, 0.3).formula_tag == TAG_GENERAL
    assert dwdo_circular(DESK_FIELD, DESK_ATOM, 80, 0.7) == spectrum_point(
        DESK_FIELD, DESK_ATOM, 80, 0.7, 0.0)
    field = LaserField.linear(0.01, 1.0)
    assert dwdo_linear(field, DESK_ATOM, 80, 0.7, 0.3) == spectrum_point(
        field, DESK_ATOM, 80, 0.7, 0.3)
    assert dwdo_nonrel(NR_LINEAR, DESK_ATOM, 2, 0.4) == spectrum_point(
        NR_LINEAR, DESK_ATOM, 2, 0.4, 0.0, "nonrelativistic")


def _general_rows(field, n, theta, phi, rescattering):
    """general_channel_dwdo's (dwdo, prefactor, kfr, resc), with dwdo the
    direct term alone, prefactor |kfr|^2, without rescattering."""
    dwdo, pref, kfr, resc = general_channel_dwdo(field, DESK_ATOM, n, theta, phi)
    return dwdo if rescattering else pref * np.abs(kfr) ** 2, pref, kfr, resc


@pytest.mark.parametrize("rescattering", [True, False])
def test_linear_channel_kernel_matches_one_point_wrapper(rescattering):
    field = LaserField.linear(0.01, 1.0)
    angles = (0.0, math.pi / 2, math.pi)
    theta, phi = np.meshgrid(angles, angles, indexing="ij")
    for n in (60, 61):
        got = _general_rows(field, n, theta, phi, rescattering)
        assert all(a.shape == theta.shape for a in got)
        for (i, j), th in np.ndenumerate(theta):
            pt = spectrum_point(field, DESK_ATOM, n, th, phi[i, j])
            want = (_dwdo_of(pt, rescattering), pt.prefactor, pt.kfr_amplitude.real,
                    pt.rescatter_amplitude.real)
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
    u_rows = []
    series_rows = specfun._series_rows

    def counting_series_rows(series):
        # the rows of each distinct u array: the two series of a delta group share one
        u_rows.extend({id(s[0]): s[0].size for s in series}.values())
        return series_rows(series)

    monkeypatch.setattr(specfun, "_series_rows", counting_series_rows)
    # an odd channel: there the amplitudes flip sign with cos phi
    for n in (60, 61):
        u_rows.clear()
        got = _general_rows(field, n, theta, phi, rescattering)
        assert u_rows == [alone_theta.size]
        alone = _general_rows(field, n, alone_theta, alone_phi, rescattering)
        for arr, want in zip(got, alone):
            assert arr.shape == theta.shape
            # every member of a mirrored group equals the distinct row, bit for bit
            assert np.array_equal(arr.reshape(thetas.size, len(groups), 4),
                                  np.repeat(want[:, :, None], 4, axis=2))


def test_series_tables_stay_within_the_cell_bound(monkeypatch):
    # rows of high-order channels of the desk field under linear
    # polarization: their J values would overflow one table of the bound
    field = LaserField.linear(0.01, 1.0)
    n = np.repeat(np.arange(196, 204), 36)
    theta = np.tile(np.repeat(np.linspace(0.05, 3.1, 12), 3), 8)
    phi = np.tile([0.0, 0.7, math.pi / 2], 96)
    cells = []
    jtable = specfun._JTable

    def spy(x, top):
        table = jtable(x, top)
        cells.append(table.values.size)
        return table

    monkeypatch.setattr(specfun, "_JTable", spy)
    wide = channel_spectrum(field, DESK_ATOM, n, theta, phi)
    assert len(cells) > 1 and max(cells) <= specfun._TABLE_CELLS
    cells.clear()
    monkeypatch.setattr(specfun, "_TABLE_CELLS", 3000)
    narrow = channel_spectrum(field, DESK_ATOM, n, theta, phi)
    assert len(cells) > 50 and max(cells) <= 3000
    for got, want in zip(narrow[1:], wide[1:]):
        assert np.array_equal(got, want, equal_nan=True)


def test_series_rounds_of_a_rate_linear_block_build_one_table(monkeypatch):
    # the rows of one rate_linear op (zeta 0, channels 2-8 at the 57 Kronrod
    # theta nodes of theta_points 28, the one folded azimuth of 2 panels):
    # a pass sizes its chunk by the distinct |x| of its table, so the op
    # sweeps one table, tall enough for every round its rows run; a smaller
    # bound splits the pass into chunks whose rows each finish on their own
    # table, bit for bit
    field, atom = LaserField.linear(25081.8751 / ELECTRON_MASS_EV, 0.45), Atom.from_charge(2)
    n = np.arange(2, 9)[:, None, None]
    theta, phi = np.arccos(rates._gauss_kronrod(28)[0])[:, None], np.zeros(1)
    assert threshold_n(field, atom) <= 2
    chunks_per_round, tables = [], []
    chunks, jtable = specfun._chunks, specfun._JTable

    def spy_chunks(series, live, width):
        chunks_per_round.append(0)
        for chunk in chunks(series, live, width):
            chunks_per_round[-1] += 1
            yield chunk

    def spy_table(x, top):
        table = jtable(x, top)
        tables.append(table.values.size)
        return table

    monkeypatch.setattr(specfun, "_chunks", spy_chunks)
    monkeypatch.setattr(specfun, "_JTable", spy_table)
    one = channel_spectrum(field, atom, n, theta, phi)
    assert chunks_per_round == [1]
    assert len(tables) == 1 and max(tables) <= specfun._TABLE_CELLS
    chunks_per_round.clear()
    tables.clear()
    monkeypatch.setattr(specfun, "_TABLE_CELLS", 3000)
    split = channel_spectrum(field, atom, n, theta, phi)
    assert len(chunks_per_round) == 1 and chunks_per_round[0] > 1
    assert len(tables) == chunks_per_round[0] and max(tables) <= 3000
    for got, want in zip(split, one):
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("formula", ["relativistic", "nonrelativistic"])
def test_phi_free_forms_repeat_one_evaluation_along_phi(monkeypatch, formula):
    # tags 44 and 56 run once per (n, theta) row; the phi axes only repeat it
    n, theta, phi = np.arange(98, 104), np.linspace(0.0, math.pi, 7), np.array([0.0, 1.0, 2.5, 4.0])
    calls = []
    jn = specfun._jn
    monkeypatch.setattr(specfun, "_jn", lambda m, x: (calls.append(np.size(x)), jn(m, x))[1])
    tag, *cols = channel_spectrum(DESK_FIELD, DESK_ATOM, n[:, None, None], theta[:, None], phi,
                                  formula)
    assert sum(calls) <= n.size * theta.size
    rows = [a.ravel() for a in np.broadcast_arrays(n[:, None, None], theta[:, None], phi)]
    flat = channel_spectrum(DESK_FIELD, DESK_ATOM, *rows, formula)
    assert tag == flat[0]
    for got, want in zip(cols, flat[1:]):
        assert got.shape == (n.size * theta.size * phi.size,)
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("zeta, formula", [(0.0, "relativistic"), (0.5, "relativistic"),
                                           (0.0, "nonrelativistic"), (1.0, "relativistic")])
def test_last_block_runs_first(monkeypatch, zeta, formula):
    # the blocks are cut from the first row and run last first, so the first
    # kernel call holds the window's highest channel; the columns keep the
    # bits of one call over all rows
    field = LaserField(0.01, 1.0, zeta)
    n, theta, phi = np.arange(98, 103), np.linspace(0.1, 3.0, 4), np.array([0.0, 0.7, 2.0])
    args = (field, DESK_ATOM, n[:, None, None], theta[:, None], phi, formula)
    whole = channel_spectrum(*args)
    blocks = []
    rows = spectra._rows
    monkeypatch.setattr(spectra, "_rows", lambda *a: (blocks.append(a[2].copy()), rows(*a))[1])
    monkeypatch.setattr(spectra, "SPECTRUM_BLOCK", 7)
    blocked = channel_spectrum(*args)
    size = n.size * theta.size * (phi.size if whole[0] in (TAG_GENERAL, TAG_LINEAR) else 1)
    assert [b.size for b in blocks] == [size % 7] + [7] * (size // 7)
    assert blocks[0].max() == n.max()
    assert np.array_equal(np.concatenate(blocks[::-1]), np.repeat(n, size // n.size))
    assert blocked[0] == whole[0]
    for got, want in zip(blocked[1:], whole[1:]):
        assert got.tobytes() == want.tobytes()


def test_linear_channel_kernel_below_threshold_is_zero():
    field = LaserField.linear(0.01, 1.0)
    n0 = threshold_n(field, DESK_ATOM)
    vals = general_channel_dwdo(field, DESK_ATOM, n0 - 1, np.array([0.5, 1.0]), 0.3)
    assert all(np.array_equal(a, [0.0, 0.0]) for a in vals)
    assert spectrum_point(field, DESK_ATOM, n0 - 1, 0.5, 0.3).below_threshold


# ---------------------------------------------------------------- nonrel

NR_FIELD = LaserField.circular(5e-3, 0.05)
NR_LINEAR = LaserField.linear(5e-3, 0.05)


def test_nonrel_threshold_zero():
    z = NR_FIELD.xi**2 / (4 * NR_FIELD.omega)
    n_below = int(math.floor(2 * z + DESK_ATOM.e_b / NR_FIELD.omega))
    pt = spectrum_point(NR_FIELD, DESK_ATOM, n_below, 0.9, 0.0, "nonrelativistic")
    assert pt.below_threshold and pt.dwdo == 0.0


def test_nonrel_circular_bracket_structure():
    pt = spectrum_point(NR_FIELD, DESK_ATOM, 2, 0.9, 0.0, "nonrelativistic")
    rho = pt.rescatter_factor
    np.testing.assert_allclose(pt.dwdo / pt.dwdo_kfr_only, (1 + rho) ** 2, rtol=1e-12)
    assert pt.formula_tag == TAG_NONREL_CIRCULAR


def test_nonrel_matches_relativistic_circular_at_peak():
    # few-photon regime, v <= 0.1: compare along the angular ridge at the
    # peak channel and its neighbor; retardation and recoil are O(v^2) there
    n0 = threshold_n(NR_FIELD, DESK_ATOM)
    ridge = {}
    for n in range(n0, n0 + 6):
        ck = channel_kinematics(NR_FIELD, DESK_ATOM, n, 0.0, 0.0)
        th = math.acos(ck.pi_abs / ck.pi0)
        ridge[n] = (spectrum_point(NR_FIELD, DESK_ATOM, n, th, 0.0).dwdo, th)
    n_peak = max(ridge, key=lambda k: ridge[k][0])
    for n in (n_peak, n_peak + 1):
        val, th = ridge[n]
        nr = spectrum_point(NR_FIELD, DESK_ATOM, n, th, 0.0, "nonrelativistic").dwdo
        assert abs(val / nr - 1.0) < 0.10


def test_nonrel_linear_brace_enters_unsquared():
    pt_on = spectrum_point(NR_LINEAR, DESK_ATOM, 2, 0.4, 0.0, "nonrelativistic")
    rho = pt_on.rescatter_factor
    np.testing.assert_allclose(pt_on.dwdo / pt_on.dwdo_kfr_only, 1 + rho, rtol=1e-12)
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
        rel = spectrum_point(field, atom, 2, math.pi / 2 - th_pol, 0.0).dwdo_kfr_only
        nr = spectrum_point(field, atom, 2, th_pol, 0.0, "nonrelativistic").dwdo_kfr_only
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
        spectrum_point(field, DESK_ATOM, 3, 0.4, 0.0, "nonrelativistic")
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
     lambda f, n: spectrum_point(f, DESK_ATOM, n, 0.7, 0.3), None),
    (TAG_CIRCULAR, DESK_FIELD, lambda f, n: spectrum_point(f, DESK_ATOM, n, 0.7, 0.0), None),
    (TAG_LINEAR, LaserField.linear(0.01, 1.0),
     lambda f, n: spectrum_point(f, DESK_ATOM, n, 0.7, 0.3), None),
    (TAG_NONREL_CIRCULAR, LaserField.circular(5e-3, 0.2),
     lambda f, n: spectrum_point(f, DESK_ATOM, n, 0.7, 0.0, "nonrelativistic"), 2.0),
    (TAG_NONREL_LINEAR, LaserField.linear(5e-3, 0.2),
     lambda f, n: spectrum_point(f, DESK_ATOM, n, 0.7, 0.0, "nonrelativistic"), 1.0),
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
        for field, n, formula in [
                (DESK_FIELD, int(n0_c + rng.integers(0, 150)), "relativistic"),
                (field_e, int(n0_e + rng.integers(0, 80)), "relativistic"),
                (field_l, int(n0_l + rng.integers(0, 80)), "relativistic"),
                (NR_FIELD, int(rng.integers(1, 12)), "nonrelativistic"),
                (NR_LINEAR, int(rng.integers(1, 12)), "nonrelativistic")]:
            assert _dwdo_of(spectrum_point(field, DESK_ATOM, n, th, ph, formula), resc) >= 0


def test_general_collapses_to_single_exchange_for_circular():
    # at |zeta| = 1 the photon-exchange ladder collapses to one term whose
    # weight carries the bound-state energy; KFR term is the plain Bessel
    pt = dwdo_general(DESK_FIELD, DESK_ATOM, 100, 0.8, 0.0)
    kfr, resc = pt.kfr_amplitude, pt.rescatter_amplitude
    ck = channel_kinematics(DESK_FIELD, DESK_ATOM, 100, 0.8, 0.0)
    jn = specfun.ordinary_bessel(100, ck.alpha_amp)
    np.testing.assert_allclose(abs(kfr), abs(jn), rtol=1e-12)
    r_gen = (resc / kfr).real
    r_circ = spectrum_point(DESK_FIELD, DESK_ATOM, 100, 0.8, 0.0).rescatter_factor
    np.testing.assert_allclose(r_gen, r_circ * DESK_ATOM.epsilon0, rtol=1e-10)
