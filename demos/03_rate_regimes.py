"""Total ionization rate across the field-strength regimes.

The ratio of the atomic field F_at = Z^3 m^2 e^5 to the laser field
F0 = omega m xi / e sets the regime parameter y_m = (F_at/2F0)^(2/3):
small y_m means the multiphoton strong-field regime with a power-law
closed form, large y_m the exponentially suppressed tunneling regime.
The last block sums the direct rate of one field at zeta = 0, 0.5 and 1.
Run: python3 demos/03_rate_regimes.py
"""

from atispec import (
    Atom,
    GridSpec,
    LaserField,
    derive_params,
    threshold_n,
    rate_airy,
    rate_closed,
    rate_direct,
    rate_laplace,
    saddle_point,
)

atom = Atom.from_charge(1)

print("strong-field regime (hydrogen, omega = 0.005 m, xi = 1):")
field = LaserField.circular(0.005, 1.0)
s = saddle_point(field, atom)
print(f"  N_m = {s.n_m:.1f}, y_m = {s.y_m:.2e}, regime = {s.regime}")
wd = rate_direct(field, atom, GridSpec(theta_points=128))
wa = rate_airy(field, atom)
wl = rate_laplace(field, atom)
wc = rate_closed(field, atom)
print(f"  direct channel sum      W = {wd.w_total:.4e}  "
      f"(quadrature estimate {wd.grid_report['quad_error_estimate']:.1e})")
print(f"  continuous-N Airy form  W = {wa.w_total:.4e}  ({wa.w_total / wd.w_total - 1:+.1%} vs direct)")
print(f"  steepest-descent        W = {wl.w_total:.4e}")
print(f"  closed form             W = {wc.w_total:.4e}  [{wc.method}]")

print("\ntunneling regime (Z = 6 hydrogenic, omega = 2e-6 m):")
atom6 = Atom.from_charge(6)
for xi in (0.38, 0.40, 0.42):
    f = LaserField.circular(2e-6, xi)
    s6 = saddle_point(f, atom6)
    dp = derive_params(f, atom6)
    wa6 = rate_airy(f, atom6)
    wc6 = rate_closed(f, atom6)
    print(f"  xi={xi:.2f}: y_m={s6.y_m:5.2f}  F_at/F0={dp.f_at / dp.f0:6.1f}  "
          f"W_airy={wa6.w_total:.3e}  W_closed={wc6.w_total:.3e}  [{wc6.method}]")

print("\nintensity scaling of the strong-field closed form (W ~ F0^(-11/3)):")
w1 = rate_closed(LaserField.circular(0.01, 1.0), atom).w_total
w2 = rate_closed(LaserField.circular(0.01, 2.0), atom).w_total
print(f"  W(2 F0) / W(F0) = {w2 / w1:.6f}   2^(-11/3) = {2 ** (-11 / 3):.6f}")

print("\npolarization dependence of the direct rate (omega = 0.02 m, xi = 0.6, small grid):")
grid = GridSpec(theta_points=12, phi_points=8,
                n_cut=threshold_n(LaserField.linear(0.02, 0.6), atom) + 12)
for zeta in (0.0, 0.5, 1.0):
    rs = rate_direct(LaserField(0.02, 0.6, zeta), atom, grid)
    print(f"  zeta = {zeta:.1f}: W = {rs.w_total:.4e}  "
          f"(channels {rs.grid_report['n_lo']}-{rs.grid_report['n_hi']}, "
          f"{rs.grid_report['phi_points']} azimuth panels)")
