import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atispec import specfun
from atispec.specfun import (
    BesselRangeError,
    SeriesConvergenceError,
    airy_ai,
    airy_ai_asymptotic,
    bessel_airy_approx,
    gen_bessel,
    gen_bessel_orders,
    gen_bessel_quadrature,
    ordinary_bessel,
)


def test_ordinary_bessel_trivial_values():
    assert ordinary_bessel(0, 0.0) == 1.0
    assert ordinary_bessel(3, 0.0) == 0.0


def test_ordinary_bessel_negative_order_symmetry():
    for n in (1, 2, 5, 11):
        for x in (0.3, 2.5, 40.0):
            np.testing.assert_allclose(
                ordinary_bessel(-n, x), (-1) ** n * ordinary_bessel(n, x), rtol=1e-14
            )


def test_ordinary_bessel_against_periodic_quadrature():
    # (1/2pi) int exp(i(x sin t - n t)) dt on a 256-node trapezoid grid
    def quad(n, x):
        m = 256
        t = -np.pi + 2 * np.pi * np.arange(m) / m
        return np.exp(1j * (x * np.sin(t) - n * t)).mean().real

    for (n, x) in [(5, 7.2), (0, 1.0), (12, 30.0), (40, 55.0), (3, 80.0)]:
        np.testing.assert_allclose(ordinary_bessel(n, x), quad(n, x), rtol=5e-13, atol=1e-14)


def test_ordinary_bessel_twelve_digits_against_mpmath():
    # high-precision reference; envelope floor because significant digits
    # of an oscillatory function are meaningless right at its zeros
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    cases = [(int(rng.integers(0, 700)), float(rng.uniform(0.0, 600.0))) for _ in range(25)]
    cases += [(50, 49.9), (200, 200.0), (600, 13.5), (2000, 1999.0)]
    for n, x in cases:
        with mp.workdps(60 + int(0.46 * x)):
            ref = float(mp.besselj(n, mp.mpf(x), maxterms=10**6))
        envelope = math.sqrt(2.0 / (math.pi * max(x, 1.0)))
        err = abs(ordinary_bessel(n, x) - ref)
        assert err <= 1e-12 * max(abs(ref), 0.01 * envelope)


def test_ordinary_bessel_range_errors():
    with pytest.raises(BesselRangeError):
        ordinary_bessel(2001, 1.0)
    with pytest.raises(BesselRangeError):
        ordinary_bessel(3, 5001.0)
    with pytest.raises(BesselRangeError):
        ordinary_bessel(0, math.inf)


def test_gen_bessel_args_delta_normalized():
    # the oracle reduces delta to (-pi, pi] before it builds its phase
    q1 = gen_bessel_quadrature(3, 1.0, 1.0, 7.5)
    q2 = gen_bessel_quadrature(3, 1.0, 1.0, 7.5 - 2 * math.pi)
    np.testing.assert_allclose([q1.real, q1.imag], [q2.real, q2.imag], rtol=1e-12, atol=1e-15)
    # value unchanged under 2*pi shifts of delta
    z1 = gen_bessel(3, 1.5, 0.7, 0.4)
    z2 = gen_bessel(3, 1.5, 0.7, 0.4 + 2 * math.pi)
    np.testing.assert_allclose([z1.real, z1.imag], [z2.real, z2.imag], rtol=1e-12, atol=1e-15)


def test_gen_bessel_reduces_to_ordinary_at_v_zero():
    for n in (-9, -2, 0, 1, 6):
        for u in (0.3, 2.0, 17.5):
            for d in (0.0, 0.8, -2.2):
                assert gen_bessel(n, u, 0.0, d) == ordinary_bessel(n, u) + 0j


def test_gen_bessel_at_u_zero_even_odd():
    # odd order vanishes; even order is exp(-i n delta) J_{n/2}(v)
    assert gen_bessel(3, 0.0, 2.5, 0.7) == 0j
    want = np.exp(-1j * 0.7 * 4) * ordinary_bessel(2, 2.5)
    got = gen_bessel(4, 0.0, 2.5, 0.7)
    np.testing.assert_allclose([got.real, got.imag], [want.real, want.imag], rtol=0, atol=1e-15)


def test_gen_bessel_matches_quadrature_oracle():
    got = gen_bessel(3, 1.5, 0.7, 0.4)
    ref = gen_bessel_quadrature(3, 1.5, 0.7, 0.4)
    assert abs(got - ref) <= 1e-10 * abs(ref)


def test_gen_bessel_orders_consistent_with_scalar():
    arr = gen_bessel_orders(-5, 5, 4.0, 1.5, 0.9)
    for i, n in enumerate(range(-5, 6)):
        assert arr[i] == gen_bessel(n, 4.0, 1.5, 0.9)


_U = st.one_of(st.just(0.0), st.floats(-30.0, 30.0))
_V = st.one_of(st.just(0.0), st.floats(-12.0, 12.0))


@settings(max_examples=30, deadline=None)
@given(
    points=st.lists(st.tuples(_U, _V), min_size=1, max_size=5),
    delta=st.sampled_from([0.0, 0.4, math.pi / 2, -2.1, math.pi]),
    n_lo=st.integers(-20, 20),
    width=st.integers(0, 5),
)
def test_batched_gen_bessel_orders_rows_match_one_point_calls(points, delta, n_lo, width):
    u = np.array([p[0] for p in points])
    v = np.array([p[1] for p in points])
    rows = gen_bessel_orders(n_lo, n_lo + width, u, v, delta)
    assert rows.shape == (len(points), width + 1)
    for row, ui, vi in zip(rows, u, v):
        one = gen_bessel_orders(n_lo, n_lo + width, ui, vi, delta)
        # rows share the largest truncation, so they differ by roundoff only
        assert np.all(np.abs(row - one) <= 1e-13 * np.max(np.abs(one)))
        for n, val in zip(range(n_lo, n_lo + width + 1), row):
            quad = gen_bessel_quadrature(n, ui, vi, delta)
            assert abs(val - quad) <= max(1e-10 * abs(quad), 1e-12)


@settings(max_examples=30, deadline=None)
@given(
    points=st.lists(st.tuples(_U, _V), min_size=2, max_size=5),
    delta=st.sampled_from([0.0, 0.4, math.pi / 2, -2.1, math.pi]),
    n_lo=st.integers(-20, 20),
    width=st.integers(0, 5),
)
def test_batched_gen_bessel_orders_rows_equal_one_point_calls_exactly(points, delta, n_lo, width):
    # every row keeps the truncation of its own one-point call; the extra
    # (u, v) = (0, 10) row has an exactly zero odd-order series, so its
    # tail bound is the absolute floor and its truncation grows alone
    u = np.array([p[0] for p in points] + [0.0])
    v = np.array([p[1] for p in points] + [10.0])
    rows = gen_bessel_orders(n_lo, n_lo + width, u, v, delta)
    for row, ui, vi in zip(rows, u, v):
        assert np.array_equal(row, gen_bessel_orders(n_lo, n_lo + width, ui, vi, delta))


def test_batched_rows_keep_their_own_truncation():
    # J_{70-2k}(1e-3) falls off so fast that the first row, truncated at
    # k = 21 by its small v, is far below its k = 35 term; the second row's
    # large v must not widen the first row's truncation
    u, v = np.array([1e-3, 5.0]), np.array([1.0, 30.0])
    rows = gen_bessel_orders(68, 72, u, v, 0.4)
    for row, ui, vi in zip(rows, u, v):
        assert np.array_equal(row, gen_bessel_orders(68, 72, ui, vi, 0.4))


@pytest.mark.parametrize("fault", [0.0, 1e-6])
def test_jn_ladder_equals_jn_exactly(fault):
    orders = np.arange(-45, 46)
    x = np.array([-60.0, -7.5, -0.3, 0.0, 0.3, 7.5, 60.0, 251.0])
    specfun.set_bessel_fault(fault)
    try:
        got = specfun._jn_ladder(orders, x)
        want = specfun._jn(orders[None, :], x[:, None])
    finally:
        specfun.set_bessel_fault(0.0)
    assert np.array_equal(got, want)
    # scattered, repeated and unsorted orders too
    odd = np.array([7, -3, 0, 3, -7, -7, 2])
    assert np.array_equal(specfun._jn_ladder(odd, x), specfun._jn(odd[None, :], x[:, None]))


def test_batched_gen_bessel_orders_checks(monkeypatch):
    with pytest.raises(ValueError):
        gen_bessel_orders(0, 2, np.array([1.0, 2.0]), np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        gen_bessel_orders(0, 2, np.array([1.0, np.nan]), np.array([1.0, 2.0]), 0.0)
    with pytest.raises(BesselRangeError):
        gen_bessel_orders(3990, 3990, np.array([1.0, 2.0]), np.array([1.0, 2.0]), 0.0)
    monkeypatch.setattr(specfun, "MAX_TERMS", 64)
    with pytest.raises(SeriesConvergenceError) as err:
        gen_bessel_orders(0, 0, np.array([1.0, 1.0]), np.array([0.5, 400.0]), 0.0)
    assert err.value.residual > 0.0


def test_gen_bessel_convergence_error_carries_residual(monkeypatch):
    monkeypatch.setattr(specfun, "MAX_TERMS", 64)
    with pytest.raises(SeriesConvergenceError) as err:
        gen_bessel(0, 1.0, 400.0, 0.0)
    assert err.value.residual > 0.0


def test_quadrature_trivial_values():
    assert abs(gen_bessel_quadrature(0, 0.0, 0.0, 0.0) - 1.0) < 1e-15
    assert abs(gen_bessel_quadrature(1, 0.0, 0.0, 0.0)) < 1e-15


def test_quadrature_regression_anchor():
    # frozen from a doubled-node run; guards against node-formula regressions
    val = gen_bessel_quadrature(7, 12.0, 3.0, 1.1)
    pinned = -0.09268460649679795 - 0.09156479679068867j
    assert abs(val - pinned) < 1e-13


def test_quadrature_doubled_nodes_stable(monkeypatch):
    a = gen_bessel_quadrature(9, 8.0, 4.0, 0.6)
    monkeypatch.setattr(specfun, "QUAD_POINTS", 1024)
    b = gen_bessel_quadrature(9, 8.0, 4.0, 0.6)
    assert abs(a - b) < 1e-13


def test_airy_value_at_origin():
    np.testing.assert_allclose(airy_ai(0.0), 3 ** (-2 / 3) / math.gamma(2 / 3), rtol=1e-15)


def test_airy_equation_finite_difference():
    h = 1e-4
    d2 = (airy_ai(1 + h) - 2 * airy_ai(1.0) + airy_ai(1 - h)) / h**2
    np.testing.assert_allclose(d2, 1.0 * airy_ai(1.0), rtol=1e-6)


def test_airy_asymptotic_branch_agreement():
    # leading decay branch within 2% for x >= 8, 0.5% at x = 25
    for x in (8.0, 12.0, 60.0):
        assert abs(airy_ai_asymptotic(x) / airy_ai(x) - 1.0) < 0.02
    assert abs(airy_ai_asymptotic(25.0) / airy_ai(25.0) - 1.0) < 0.005


AIRY_POINTS = np.concatenate([
    np.linspace(-20.0, 105.0, 501),
    # both sides of the series boundaries x = -3 and x = 2, and of x = 10
    [-3.0000001, np.nextafter(-3.0, -4.0), -3.0, np.nextafter(-3.0, 0.0), -2.9999999],
    [1.9999999, np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0), 2.0000001],
    [9.999999, np.nextafter(10.0, 0.0), 10.0, np.nextafter(10.0, 11.0), 10.000001],
    # the double underflow region: Ai(x) < 2.2e-308 from x ~ 103.9 on
    np.linspace(103.0, 106.0, 25),
])
# far on the oscillating side, where the phase zeta = 2/3 |x|^(3/2) is large
AIRY_FAR_NEGATIVE = np.array([-20.5, -50.0, -200.0, -1e3, -1e4, -1e5])


def _mpmath_airy(x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return np.array([float(mpmath.airyai(mpmath.mpf(float(v)))) for v in x])


def _airy_envelope(x):
    return np.maximum(np.abs(x), 1.0) ** -0.25 / math.sqrt(math.pi)


def test_airy_matches_mpmath_on_every_series():
    ref = _mpmath_airy(AIRY_POINTS)
    err = np.abs(airy_ai(AIRY_POINTS) - ref)
    pos = AIRY_POINTS > 0
    # relative for x > 0, down to the smallest normal double (1.7e-15
    # measured, near x = 2 where Q is summed with cancellation)
    assert np.all(err[pos] <= 4e-15 * np.abs(ref[pos]) + np.finfo(float).tiny)
    # relative to the oscillation envelope |x|^(-1/4)/sqrt(pi) for x <= 0
    # (6.3e-16 measured)
    assert np.all(err[~pos] <= 2e-15 * _airy_envelope(AIRY_POINTS[~pos]))


def test_airy_phase_and_modulus_share_one_map():
    # _airy_neg evaluates M and phi at the one argument of the M map
    from atispec import _airy_tables as tab

    assert tab.PHI_SCALE == tab.M_SCALE and tab.PHI_SHIFT == tab.M_SHIFT


def test_airy_far_negative_beats_scipy():
    # beyond x = -20 the bound is 1e-13 of the envelope, or twice the error
    # of scipy's cephes airy at the same point if that is smaller
    from scipy import special as sp

    x = AIRY_FAR_NEGATIVE
    ref = _mpmath_airy(x)
    env = _airy_envelope(x)
    scipy_err = np.abs(sp.airy(x)[0] - ref) / env
    err = np.abs(airy_ai(x) - ref) / env
    assert np.all(err <= np.minimum(1e-13, 2.0 * scipy_err))


def test_airy_scalar_contract_and_special_values():
    special = [math.inf, -math.inf, math.nan, 1e300, -1e300]
    points = np.concatenate([AIRY_POINTS, AIRY_FAR_NEGATIVE, special])
    array = airy_ai(points)
    for x, want in zip(points, array):
        for arg in (float(x), np.array(x), np.float64(x)):
            got = airy_ai(arg)
            assert type(got) is float
            # a scalar call gives the bits of the array call
            assert got == want or (math.isnan(got) and math.isnan(want))
    assert all(math.isnan(airy_ai(x)) for x in (math.inf, -math.inf, math.nan, -1e300))
    assert airy_ai(1e300) == 0.0
    arr = airy_ai(np.array([[1.0, 12.0], [math.nan, math.inf]]))
    assert arr.shape == (2, 2) and arr.dtype == np.float64
    assert airy_ai(np.array([])).shape == (0,)


def test_airy_and_airy_rate_need_no_scipy_but_jv(monkeypatch):
    import types

    from scipy import special as sp

    from atispec.kinematics import Atom, LaserField
    from atispec.rates import rate_airy

    monkeypatch.setattr(specfun, "sp", types.SimpleNamespace(jv=sp.jv))
    assert np.all(np.isfinite(airy_ai(AIRY_POINTS)))
    assert rate_airy(LaserField.circular(0.01, 1.0), Atom.from_charge(1)).w_total > 0.0


def test_bessel_airy_direct_substitution():
    want = (2 / 100) ** (1 / 3) * airy_ai(50 ** (2 / 3))
    np.testing.assert_allclose(bessel_airy_approx(100, 0.0), want, rtol=1e-14)


def test_bessel_airy_near_turning_point():
    # (100, 99.5) sits at the turning point where the approximation is best
    exact = ordinary_bessel(100, 99.5)
    assert abs(bessel_airy_approx(100, 99.5) - exact) <= 0.05 * abs(exact)


@pytest.mark.parametrize("n", [50, 100, 200])
def test_bessel_airy_window_scan(n):
    # deviation measured against the scan maximum over x/N in [0.80, 0.999]
    xs = np.linspace(0.80 * n, 0.999 * n, 60)
    exact = np.array([ordinary_bessel(n, x) for x in xs])
    approx = np.array([bessel_airy_approx(n, x) for x in xs])
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(approx - exact)) <= 0.05 * scale


def test_bessel_airy_domain_checks():
    with pytest.raises(ValueError):
        bessel_airy_approx(0, 0.0)
    with pytest.raises(ValueError):
        bessel_airy_approx(50, 60.0)


def test_fault_hook_breaks_recurrence_identity():
    # an order-dependent 1e-6 perturbation must trip the recurrence;
    # clean build satisfies it to ~1e-13 of the term scale
    n, u, v, d = 4, 8.0, 2.0, 0.3

    def residual():
        j = {m: gen_bessel(m, u, v, d) for m in range(n - 2, n + 3)}
        lhs = 2 * n * j[n]
        rhs = u * (j[n - 1] + j[n + 1]) + 2 * v * (
            np.exp(-2j * d) * j[n - 2] + np.exp(2j * d) * j[n + 2]
        )
        return abs(lhs - rhs) / (abs(u) + abs(v) + abs(n) + 1)

    clean = residual()
    assert clean < 1e-9
    specfun.set_bessel_fault(1e-6)
    try:
        assert residual() > 1e-9
    finally:
        specfun.set_bessel_fault(0.0)
