"""Photoelectron spectrum of hydrogen in a circularly polarized field.

Desk configuration: photon energy 0.01 m (~5.1 keV), intensity xi = 1,
hydrogen ground state.  Prints the channel spectrum at the peak emission
angle, the rescattering enhancement, and the angular profile of the peak
channel.  Run: python3 demos/02_circular_spectrum.py
"""

import math

from atispec import Atom, LaserField, derive_params, saddle_point, spectrum_point, threshold_n

field = LaserField.circular(omega=0.01, xi=1.0)
atom = Atom.from_charge(1)
dp = derive_params(field, atom)
s = saddle_point(field, atom)

print(f"effective mass m* = {dp.m_star:.6f}, threshold N0 = {dp.n0}")
print(f"peak channel N_m = {s.n_m:.2f}, peak angle theta_m = {math.degrees(s.theta_m):.2f} deg")
print(f"mean speed v = {dp.v_mean:.4f}, Born ratio Z alpha / v = {dp.born_ratio:.4f}"
      f" ({'valid' if dp.born_ok else 'INVALID'})")
print(f"regime parameter y_m = {s.y_m:.3e} -> {s.regime}")

print("\nchannel spectrum at theta_m (rescattering on/off):")
print(f"{'N':>5} {'dW/dOmega on':>14} {'off':>14} {'factor (1+r)^2':>15}")
n0 = threshold_n(field, atom)
for n in range(int(s.n_m - 2 * s.delta_n), int(s.n_m + 2 * s.delta_n) + 1, 9):
    if n < n0:
        continue
    on = spectrum_point(field, atom, n, s.theta_m, 0.0)
    off = spectrum_point(field, atom, n, s.theta_m, 0.0, rescattering=False)
    ratio = on.dwdo / off.dwdo if off.dwdo else float("nan")
    print(f"{n:>5} {on.dwdo:>14.4e} {off.dwdo:>14.4e} {ratio:>15.4f}")

print("\nangular profile of the peak channel:")
n_pk = int(round(s.n_m))
for k in range(-3, 4):
    theta = s.theta_m + k * s.delta_theta
    if not 0.0 <= theta <= math.pi:
        continue
    pt = spectrum_point(field, atom, n_pk, theta, 0.0)
    bar = "#" * int(60 * pt.dwdo / spectrum_point(field, atom, n_pk, s.theta_m, 0.0).dwdo)
    print(f"  theta = {math.degrees(theta):6.2f} deg  {pt.dwdo:.3e}  {bar}")
