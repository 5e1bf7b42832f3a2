import math

import numpy as np
import pytest

from atispec.constants import FINE_STRUCTURE
from atispec.kinematics import (
    Atom,
    BelowThresholdError,
    ChannelExplosionError,
    ChannelKinematics,
    LaserField,
    channel_kinematics,
    derive_params,
    effective_mass,
    threshold_n,
)


def test_field_validation():
    with pytest.raises(ValueError):
        LaserField(-0.01, 1.0, 1.0)
    with pytest.raises(ValueError):
        LaserField(0.01, -1.0, 1.0)
    with pytest.raises(ValueError):
        LaserField(0.01, 1.0, 1.5)


def test_atom_derived_quantities():
    atom = Atom.from_charge(2)
    assert atom.hydrogenic
    np.testing.assert_allclose(atom.e_b, 4 * FINE_STRUCTURE**2 / 2, rtol=0)
    np.testing.assert_allclose(atom.a, 1 / math.sqrt(2 * atom.e_b), rtol=0)
    np.testing.assert_allclose(atom.epsilon0, 1 - atom.e_b, rtol=0)
    explicit = Atom.with_binding(2, 1e-4)
    assert not explicit.hydrogenic
    with pytest.raises(ValueError):
        Atom.with_binding(1, 1.5)
    with pytest.raises(ValueError):
        Atom(0, 1e-4)


def test_effective_mass_limits():
    assert effective_mass(LaserField(0.01, 0.0, 1.0)) == 1.0
    np.testing.assert_allclose(
        effective_mass(LaserField.circular(0.01, 1.0)), math.sqrt(2.0), rtol=1e-15
    )


def test_derive_params_field_off():
    dp = derive_params(LaserField(0.01, 0.0, 1.0), Atom.from_charge(1))
    assert dp.m_star == 1.0
    assert dp.f0 == 0.0
    assert dp.v_mean == 0.0
    assert math.isinf(dp.born_ratio)
    assert not dp.born_ok


def test_derive_params_desk_values():
    field = LaserField.circular(0.01, 1.0)
    atom = Atom.from_charge(1)
    dp = derive_params(field, atom)
    np.testing.assert_allclose(dp.v_mean, 1 / math.sqrt(2), rtol=1e-15)
    np.testing.assert_allclose(
        dp.born_ratio, FINE_STRUCTURE * math.sqrt(2), rtol=1e-15
    )
    assert dp.born_ok
    np.testing.assert_allclose(dp.alpha_prime, 1 / (4 * 0.01 * atom.epsilon0), rtol=1e-15)


def test_peak_parameter_dual_identity_hydrogenic():
    # 2^(1/3) E_B / (N_m^(1/3) omega) == (F_at / 2 F0)^(2/3) exactly,
    # with N_m the flat-space estimate m xi^2 / omega
    for xi in (0.3, 1.0, 3.0):
        for omega in (0.002, 0.01):
            field = LaserField.circular(omega, xi)
            atom = Atom.from_charge(1)
            dp = derive_params(field, atom)
            lhs = 2 ** (1 / 3) * atom.e_b / ((xi**2 / omega) ** (1 / 3) * omega)
            rhs = (dp.f_at / (2 * dp.f0)) ** (2 / 3)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_born_ratio_decreases_with_xi():
    atom = Atom.from_charge(1)
    ratios = [
        derive_params(LaserField.circular(0.01, xi), atom).born_ratio
        for xi in np.linspace(0.1, 3.0, 12)
    ]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_channel_explosion_error():
    with pytest.raises(ChannelExplosionError):
        derive_params(LaserField.circular(1e-9, 1.0), Atom.from_charge(1))


def test_threshold_minimality():
    for (omega, xi, atom) in [
        (0.01, 1.0, Atom.from_charge(1)),
        (0.002, 0.3, Atom.from_charge(3)),
        (0.005, 2.0, Atom.with_binding(1, 1e-4)),
    ]:
        field = LaserField.circular(omega, xi)
        n0 = threshold_n(field, atom)
        m_star = effective_mass(field)
        assert atom.epsilon0 + n0 * omega >= m_star
        assert atom.epsilon0 + (n0 - 1) * omega < m_star


def test_below_threshold_error():
    field = LaserField.circular(0.01, 1.0)
    atom = Atom.from_charge(1)
    n0 = threshold_n(field, atom)
    with pytest.raises(BelowThresholdError):
        channel_kinematics(field, atom, n0 - 1, 0.5, 0.0)
    with pytest.raises(BelowThresholdError):
        channel_kinematics(field, atom, np.array([n0, n0 - 1]), np.array([0.5, 0.6]), 0.0)


@pytest.mark.parametrize("offsets, lowest", [
    (-1, -1), (-0.5, -0.5), ([0, -3, -1, 2], -3), ([[1, 0], [-2, 5]], -2)])
def test_below_threshold_error_carries_the_lowest_n(offsets, lowest):
    field, atom = LaserField(0.01, 1.0, 0.5), Atom.from_charge(1)
    n0 = threshold_n(field, atom)
    with pytest.raises(BelowThresholdError) as info:
        channel_kinematics(field, atom, n0 + np.asarray(offsets)[()], 0.5, 0.0)
    assert info.value.n == n0 + lowest and info.value.n_min == n0
    assert str(info.value) == f"channel N={n0 + lowest} below threshold N0={n0}"


@pytest.mark.parametrize("n", [math.nan, [0.0, math.nan], [math.nan, -1.0], []])
def test_nan_or_empty_n_does_not_raise(n):
    # np.min puts a NaN entry first, below-threshold entries included, as
    # it always has; an empty n has no channel to check
    field, atom = LaserField.circular(0.01, 1.0), Atom.from_charge(1)
    n0 = threshold_n(field, atom)
    with np.errstate(invalid="ignore"):
        ck = channel_kinematics(field, atom, n0 + np.asarray(n)[()], 0.5, 0.0)
    assert np.shape(ck.pi0) == np.shape(n)


def test_threshold_channel_momentum_nonnegative():
    field = LaserField.circular(0.01, 1.0)
    atom = Atom.from_charge(1)
    n0 = threshold_n(field, atom)
    ck = channel_kinematics(field, atom, n0, 1.0, 2.0)
    assert ck.pi_abs >= 0.0
    np.testing.assert_allclose(
        ck.pi_abs, math.sqrt((atom.epsilon0 + n0 * field.omega) ** 2 - 2.0), rtol=1e-12
    )


def test_mass_shell_and_null_vector_identities():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        field = LaserField(
            10 ** rng.uniform(-3, -1.5),
            10 ** rng.uniform(-1, 0.5),
            float(rng.choice([0.0, 1.0, -1.0, rng.uniform(-1, 1)])),
        )
        atom = Atom.from_charge(int(rng.integers(1, 10)))
        n = threshold_n(field, atom) + int(rng.integers(0, 200))
        theta = float(rng.uniform(0, math.pi))
        phi = float(rng.uniform(0, 2 * math.pi))
        ck = channel_kinematics(field, atom, n, theta, phi)

        m_star_sq = 1.0 + field.xi**2 * (1 + field.zeta**2) / 2
        np.testing.assert_allclose(ck.pi0**2 - ck.pi_abs**2, m_star_sq, rtol=1e-12)

        # reconstruct the free momentum p = Pi - k Z (1 + zeta^2)
        shift = field.omega * ck.big_z * (1 + field.zeta**2)
        p0 = ck.pi0 - shift
        pz = ck.pi_abs * math.cos(theta) - shift
        np.testing.assert_allclose(field.omega * (p0 - pz), ck.k_dot_pi, rtol=1e-12)
        # and p sits on the free mass shell
        p_sq = p0**2 - (ck.pi_abs**2 - 2 * ck.pi_abs * math.cos(theta) * shift + shift**2)
        np.testing.assert_allclose(p_sq, 1.0, rtol=1e-10)

        assert ck.g_sq >= 0.0


def test_momentum_strictly_increases_with_n():
    field = LaserField.circular(0.01, 1.0)
    atom = Atom.from_charge(1)
    n0 = threshold_n(field, atom)
    ps = [channel_kinematics(field, atom, n, 0.7, 0.1).pi_abs for n in range(n0, n0 + 40)]
    assert all(a < b for a, b in zip(ps, ps[1:]))


def test_circular_coupling_azimuth_independent():
    field = LaserField.circular(0.01, 1.0)
    atom = Atom.from_charge(1)
    amps = {
        channel_kinematics(field, atom, 100, 0.8, phi).alpha_amp
        for phi in (0.0, 0.9, 2.4, 5.1)
    }
    assert max(amps) - min(amps) < 1e-15


def test_forward_emission_limits():
    field = LaserField.circular(0.01, 1.0)
    atom = Atom.from_charge(1)
    ck = channel_kinematics(field, atom, 100, 0.0, 0.0)
    assert ck.alpha_amp == 0.0
    np.testing.assert_allclose(
        ck.g_sq, (ck.pi_abs - 100 * field.omega) ** 2, rtol=1e-10
    )


@pytest.mark.parametrize("zeta", [1.0, -1.0, 0.0, 0.5])
def test_array_kinematics_match_scalar_calls(zeta):
    # one broadcast call over (n, theta, phi) against the scalar call at each
    # point, theta = 0 and pi included: numpy and libm may differ in the
    # last bits, the arithmetic may not
    field, atom = LaserField(0.01, 1.0, zeta), Atom.from_charge(1)
    n0 = threshold_n(field, atom)
    ns = np.array([n0, n0 + 3, n0 + 40, n0 + 200])[:, None, None]
    thetas = np.concatenate([[0.0, math.pi], np.linspace(0.01, 3.1, 12)])[:, None]
    phis = np.linspace(0.0, 2.0 * math.pi, 9)
    ck = channel_kinematics(field, atom, ns, thetas, phis)
    shape = np.broadcast_shapes(ns.shape, thetas.shape, phis.shape)
    points = [channel_kinematics(field, atom, int(ns[i, 0, 0]), float(thetas[j, 0]),
                                 float(phis[k])) for i, j, k in np.ndindex(shape)]
    for name in ChannelKinematics.__dataclass_fields__:
        want = np.reshape([getattr(pt, name) for pt in points], shape)
        np.testing.assert_array_max_ulp(np.broadcast_to(getattr(ck, name), shape), want, maxulp=4)
