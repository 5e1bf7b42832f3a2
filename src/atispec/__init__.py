"""Relativistic above-threshold ionization of hydrogen-like atoms in strong
laser fields: photoelectron spectra with the rescattering correction, total
rates, and the special functions behind them."""

from .constants import (
    ATOMIC_FIELD_V_PER_CM,
    E_CHARGE,
    ELECTRON_MASS_EV,
    FINE_STRUCTURE,
    GAMMA_TWO_THIRDS,
)
from .kinematics import (
    Atom,
    BelowThresholdError,
    ChannelExplosionError,
    ChannelKinematics,
    DerivedParams,
    LaserField,
    channel_kinematics,
    derive_params,
    effective_mass,
    threshold_n,
)
from .rates import (
    AsymptoticsError,
    DegenerateSaddleError,
    GridSpec,
    RateSummary,
    RegimeError,
    SaddleInfo,
    airy_argument,
    rate_airy,
    rate_closed,
    rate_direct,
    rate_laplace,
    saddle_point,
)
from .specfun import (
    BesselRangeError,
    airy_ai,
    airy_ai_asymptotic,
    bessel_airy_approx,
    gen_bessel,
    gen_bessel_orders,
    gen_bessel_quadrature,
    ordinary_bessel,
)
from .spectra import (
    TAG_CIRCULAR,
    TAG_GENERAL,
    TAG_LINEAR,
    TAG_NONREL_CIRCULAR,
    TAG_NONREL_LINEAR,
    SpectrumPoint,
    spectrum_point,
)

__version__ = "0.1.0"
