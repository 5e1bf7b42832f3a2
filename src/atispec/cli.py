"""Command-line front end.

Subcommands: `ati spectrum`, `ati rate`, `ati sweep`, `ati selftest`.
Configuration is a flat JSON file; command-line flags override file values.
Inputs are in eV (converted with the fixed electron rest energy
510998.95 eV); all outputs are in natural units (m = 1).

Outputs are deterministic: identical configuration produces byte-identical
CSV/JSON on every run.  Exit codes: 0 ok, 1 selftest failure,
2 configuration error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .constants import ATOMIC_FIELD_V_PER_CM, E_CHARGE, ELECTRON_MASS_EV
from .kinematics import (
    BORN_LIMIT,
    Atom,
    ChannelExplosionError,
    LaserField,
    derive_params,
    effective_mass,
    threshold_n,
)
from .rates import (
    DEFAULT_RATE_CHANNEL_CAP,
    AsymptoticsError,
    DegenerateSaddleError,
    GridSpec,
    RateSummary,
    rate_airy,
    rate_closed,
    rate_direct,
    saddle_point,
    REGIME_MULTIPHOTON,
    REGIME_TUNNELING,
    _channel_range,
    _try_saddle,
)
from .selftest import run_checks
from .specfun import BesselRangeError
from .spectra import channel_spectrum, formula_tag

__all__ = ["main", "RunConfig", "ConfigError", "run_spectrum", "run_rate", "run_sweep"]

CSV_HEADER = "N,theta_rad,phi_rad,dwdo,kfr_only_dwdo,rescatter_factor,formula_tag"


class ConfigError(ValueError):
    pass


# photon numbers up to 2^53 stay exact integers in floating point
MAX_THRESHOLD_N = 2.0**53

_REAL_FIELDS = ("photon_energy_ev", "intensity_xi", "peak_field_v_per_cm", "zeta",
                "binding_energy_ev")
_INT_FIELDS = ("z_a", "theta_points", "phi_points", "channel_cap")


def _is_finite_real(value) -> bool:
    # bools are ints in Python but never a number in a config
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


@dataclass(frozen=True)
class RunConfig:
    photon_energy_ev: float
    intensity_xi: float | None = None
    peak_field_v_per_cm: float | None = None
    polarization: str = "circular"
    zeta: float | None = None
    z_a: int = 1
    binding_energy_ev: float | None = None
    theta_points: int = 24
    phi_points: int = 8
    n_range: object = "auto"
    mode: str = "on"
    output_path: str = "ati_out"
    formula: str = "relativistic"
    channel_cap: int = DEFAULT_RATE_CHANNEL_CAP
    # the keys of older configs that have no effect, as the file named them:
    # not a config field; dropped on load and noted in summary.json
    retired: tuple = ()

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        retired = ("workers",) if "workers" in raw else ()
        raw = {k: v for k, v in raw.items() if k not in retired}
        for key in raw:
            if key not in cls._ALLOWED:
                raise ConfigError(f"unknown config field '{key}'")
        if "photon_energy_ev" not in raw:
            raise ConfigError("missing required field 'photon_energy_ev'")
        cfg = cls(**raw, retired=retired)
        cfg.validate()
        return cfg

    def validate(self):
        for key in _REAL_FIELDS:
            value = getattr(self, key)
            # photon_energy_ev is the one real field without a default
            if (value is not None or key == "photon_energy_ev") and not _is_finite_real(value):
                raise ConfigError(f"field '{key}' must be a finite number, got {value!r}")
        for key in _INT_FIELDS:
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"field '{key}' must be an integer, got {value!r}")
        if not self.photon_energy_ev > 0:
            raise ConfigError("field 'photon_energy_ev' must be positive")
        for key in ("intensity_xi", "peak_field_v_per_cm"):
            value = getattr(self, key)
            if value is not None and value < 0:
                raise ConfigError(f"field '{key}' must be >= 0")
        if self.binding_energy_ev is not None and not 0 < self.binding_energy_ev < ELECTRON_MASS_EV:
            raise ConfigError(
                f"field 'binding_energy_ev' must be in (0, {ELECTRON_MASS_EV}) eV"
            )
        have = [k for k in ("intensity_xi", "peak_field_v_per_cm") if getattr(self, k) is not None]
        if len(have) != 1:
            raise ConfigError(
                "exactly one of 'intensity_xi' / 'peak_field_v_per_cm' must be given"
            )
        if self.polarization not in ("circular", "linear", "elliptic"):
            raise ConfigError("field 'polarization' must be circular | linear | elliptic")
        if self.polarization == "elliptic" and self.zeta is None:
            raise ConfigError("field 'zeta' is required for elliptic polarization")
        if self.zeta is not None and self.polarization != "elliptic":
            raise ConfigError("field 'zeta' is for elliptic polarization only")
        if self.zeta is not None and not abs(self.zeta) <= 1:
            raise ConfigError("field 'zeta' must satisfy |zeta| <= 1")
        if self.z_a < 1:
            raise ConfigError("field 'z_a' must be a positive integer")
        if self.theta_points < 8:
            raise ConfigError("field 'theta_points' must be >= 8")
        if self.phi_points < 1:
            raise ConfigError("field 'phi_points' must be >= 1")
        if self.mode not in ("on", "off"):
            raise ConfigError("field 'mode' must be on | off")
        if self.formula not in ("relativistic", "nonrelativistic", "both"):
            raise ConfigError("field 'formula' must be relativistic | nonrelativistic | both")
        if self.n_range != "auto":
            # channels stay exact in floating point, as the threshold does
            ok = (isinstance(self.n_range, (list, tuple)) and len(self.n_range) == 2
                  and all(isinstance(v, int) and not isinstance(v, bool)
                          and abs(v) <= MAX_THRESHOLD_N for v in self.n_range)
                  and self.n_range[0] <= self.n_range[1])
            if not ok:
                raise ConfigError("field 'n_range' must be 'auto' or [n_lo, n_hi] "
                                  f"with |n| <= {MAX_THRESHOLD_N:.3g}")
        if self.channel_cap < 1:
            raise ConfigError("field 'channel_cap' must be >= 1")
        if not isinstance(self.output_path, str) or not self.output_path:
            raise ConfigError("field 'output_path' must be a non-empty string")
        # what is left (a hydrogenic z_a too large to bind, say) is checked
        # by the physics types themselves
        for what, build in (("laser field", self.field),
                            ("atom (z_a, binding_energy_ev)", self.atom)):
            try:
                build()
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"{what}: {exc}") from exc
        # pair creation is out of scope, and pi0^2 overflows long before 1e300 eV
        if not self.omega < 1.0:
            raise ConfigError(
                f"field 'photon_energy_ev' must be below the electron rest energy {ELECTRON_MASS_EV} eV"
            )
        intensity = "intensity_xi" if self.intensity_xi is not None else "peak_field_v_per_cm"
        try:
            n0 = (effective_mass(self.field()) - self.atom().epsilon0) / self.omega
        except OverflowError:
            raise ConfigError(f"field '{intensity}' beyond the floating-point range") from None
        try:
            self.atom().a ** 5  # the prefactors carry 1 / a^5
        except OverflowError:
            raise ConfigError("field 'binding_energy_ev' too small for the floating-point range") from None
        if not n0 <= MAX_THRESHOLD_N:
            raise ConfigError(
                f"threshold photon number {n0:.3g} exceeds {MAX_THRESHOLD_N:.3g}: field "
                f"'photon_energy_ev' too small for this '{intensity}' and binding energy"
            )

    # -- unit conversion ---------------------------------------------------
    @property
    def omega(self) -> float:
        return self.photon_energy_ev / ELECTRON_MASS_EV

    @property
    def xi(self) -> float:
        if self.intensity_xi is not None:
            return float(self.intensity_xi)
        f_internal = (self.peak_field_v_per_cm / ATOMIC_FIELD_V_PER_CM) * E_CHARGE**5
        return E_CHARGE * f_internal / self.omega

    @property
    def zeta_value(self) -> float:
        if self.polarization == "circular":
            return 1.0
        if self.polarization == "linear":
            return 0.0
        return float(self.zeta)

    def field(self) -> LaserField:
        return LaserField(self.omega, self.xi, self.zeta_value)

    def atom(self) -> Atom:
        if self.binding_energy_ev is None:
            return Atom.from_charge(int(self.z_a))
        return Atom.with_binding(int(self.z_a), self.binding_energy_ev / ELECTRON_MASS_EV)


RunConfig._ALLOWED = frozenset(f.name for f in fields(RunConfig)) - {"retired"}


def load_config(path: str, overrides: dict) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    raw.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig.from_dict(raw)


# --------------------------------------------------------------------------
# deterministic serialization

def _fmt(x) -> str:
    """Shortest round-trip decimal of a double."""
    return repr(float(x))


def _fmt_column(col: np.ndarray) -> list[str]:
    """`_fmt` of every double of a 1-D float64 column, each distinct bit
    pattern formatted once.  Distinct means distinct bits, not unequal
    values: -0.0 == 0.0, but their texts differ."""
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    newline="\n")


def _saddle_dict(field, atom):
    try:
        return asdict(saddle_point(field, atom)), None
    except (DegenerateSaddleError, ValueError) as exc:
        return None, str(exc)


def _summary(cfg: RunConfig) -> dict:
    field, atom = cfg.field(), cfg.atom()
    dp = derive_params(field, atom)
    saddle, saddle_note = _saddle_dict(field, atom)
    out = {
        "derived": {
            "omega": field.omega, "xi": field.xi, "zeta": field.zeta,
            "m_star": dp.m_star, "alpha_prime": dp.alpha_prime, "n0": dp.n0,
            "f0": dp.f0, "f_at": dp.f_at, "v_mean": dp.v_mean,
            "born_ratio": None if math.isinf(dp.born_ratio) else dp.born_ratio,
        },
        "atom": {
            "z_a": atom.z_a, "binding_energy": atom.e_b,
            "hydrogenic": atom.hydrogenic, "radius": atom.a,
        },
        "saddle": saddle,
        "validity": {
            "born_ok": dp.born_ok,
            "field_off": field.xi == 0.0,
        },
        "warnings": [],
    }
    if saddle_note:
        out["saddle_note"] = saddle_note
    if not dp.born_ok:
        out["warnings"].append(
            f"Born condition violated: born_ratio exceeds {BORN_LIMIT:g}"
        )
    return out


# --------------------------------------------------------------------------
# spectrum

def run_spectrum(cfg: RunConfig) -> int:
    field, atom = cfg.field(), cfg.atom()
    formulas = {"relativistic": ["relativistic"],
                "nonrelativistic": ["nonrelativistic"],
                "both": ["relativistic", "nonrelativistic"]}[cfg.formula]
    # the tag rule reads zeta, so an elliptic field at |zeta| = 1 or 0 has nonrelativistic forms
    try:
        for formula in formulas:
            formula_tag(field, formula)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.n_range == "auto":
        n_lo, n_hi = _channel_range(field, atom, _try_saddle(field, atom), None,
                                    cfg.channel_cap)
    else:
        n_lo, n_hi = int(cfg.n_range[0]), int(cfg.n_range[1])
        if n_hi - n_lo + 1 > cfg.channel_cap:
            raise ChannelExplosionError(
                f"{n_hi - n_lo + 1} channels exceed cap {cfg.channel_cap}"
            )
    # the rows: channel major, then theta, then phi
    thetas = np.linspace(0.0, math.pi, cfg.theta_points)
    phis = 2.0 * math.pi * np.arange(cfg.phi_points) / cfg.phi_points
    channels = np.arange(n_lo, n_hi + 1)
    summary = _summary(cfg)
    summary["warnings"] += [f"config field '{key}' has no effect" for key in cfg.retired]

    # a row is its "N,theta," head, its phi and its three values.  Where a
    # formula's values have the same bits at every phi of an (N, theta)
    # (tags 44, 56 and 59 always), its block of rows is one join over the
    # phi texts; any other formula writes row by row
    th_text, ph_text = _fmt_column(thetas), _fmt_column(phis)
    nt_heads = [f"{n},{th}," for n in channels.tolist() for th in th_text]
    lines = [CSV_HEADER + "\n"]
    for formula in formulas:
        tag, *cols = channel_spectrum(field, atom, channels[:, None, None], thetas[:, None], phis,
                                      formula)
        if cfg.mode == "off":
            cols[0] = cols[1]  # the direct term alone, kfr_only_dwdo
        cols = [c.reshape(len(nt_heads), len(ph_text)) for c in cols]
        if all((c.view(np.int64) == c[:, :1].view(np.int64)).all() for c in cols):
            for head, d, k, r in zip(nt_heads, *(_fmt_column(c[:, 0]) for c in cols)):
                suffix = f",{d},{k},{r},{tag}\n"
                lines.append(head + (suffix + head).join(ph_text) + suffix)
        else:
            rows = ((h, ph) for h in nt_heads for ph in ph_text)
            lines.extend(f"{h}{ph},{d},{k},{r},{tag}\n"
                         for (h, ph), d, k, r in zip(rows, *(_fmt_column(c.ravel()) for c in cols)))
    outdir = Path(cfg.output_path)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "spectrum.csv", "w", newline="\n") as f:
        f.writelines(lines)
    _write_json(outdir / "summary.json", summary)
    return 0


# --------------------------------------------------------------------------
# rate

def _rate_entry(rs: RateSummary, notes=()) -> dict:
    return {"w_total": rs.w_total, "grid_report": rs.grid_report,
            "warnings": list(rs.warnings) + list(notes)}


def collect_rates(cfg: RunConfig) -> dict:
    field, atom = cfg.field(), cfg.atom()
    grid = GridSpec(theta_points=cfg.theta_points,
                    phi_points=cfg.phi_points,
                    n_lo=None if cfg.n_range == "auto" else int(cfg.n_range[0]),
                    n_cut=None if cfg.n_range == "auto" else int(cfg.n_range[1]),
                    channel_cap=cfg.channel_cap)
    resc = cfg.mode == "on"
    # no method reads formula, and only direct reads mode: each says what it ignores
    unread = () if cfg.formula == "relativistic" else (
        f"formula '{cfg.formula}' has no effect on this method: every rate uses the "
        "relativistic forms",)
    ignored = unread + (() if resc else (
        "mode 'off' has no effect on this method, which does not read it",))
    methods: dict = {}
    direct = rate_direct(field, atom, grid, rescattering=resc)
    methods["direct"] = _rate_entry(direct, unread)
    regime = direct.regime
    if abs(field.zeta) == 1.0:
        try:
            methods["airy_numeric"] = _rate_entry(rate_airy(field, atom), ignored)
        except AsymptoticsError:
            pass
    if regime == REGIME_MULTIPHOTON:
        methods["strongfield_closed"] = _rate_entry(rate_closed(field, atom), ignored)
    elif regime == REGIME_TUNNELING:
        methods["tunneling_closed"] = _rate_entry(rate_closed(field, atom), ignored)
    saddle = asdict(direct.saddle) if direct.saddle else None
    return {"regime": regime, "saddle": saddle, "methods": methods}


def run_rate(cfg: RunConfig) -> int:
    payload = _summary(cfg)
    payload.update(collect_rates(cfg))
    outdir = Path(cfg.output_path)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "rate.json", payload)
    return 0


# --------------------------------------------------------------------------
# sweep

SWEEPABLE = ("intensity_xi", "photon_energy_ev", "z_a", "binding_energy_ev")


def run_sweep(cfg: RunConfig, vary: str, values: list[float]) -> int:
    key = {"xi": "intensity_xi"}.get(vary, vary)
    if key not in SWEEPABLE:
        raise ConfigError(f"--vary must be one of {('xi',) + SWEEPABLE}")
    rows = ["value,n0,n_m,theta_m,y_m,regime,w_direct,w_airy,w_closed,closed_method"]
    detail = []
    for v in values:
        # a non-integral z_a stays a float, for validate() to reject
        v_cast = int(v) if key == "z_a" and v.is_integer() else v
        # every swept point gets its own auto channel window
        sub = replace(cfg, **{key: v_cast}, n_range="auto")
        sub.validate()
        field, atom = sub.field(), sub.atom()
        data = collect_rates(sub)
        saddle = data["saddle"] or {}
        methods = data["methods"]
        closed_name = next((k for k in ("strongfield_closed", "tunneling_closed") if k in methods), "")
        rows.append(",".join([
            _fmt(v_cast),
            str(threshold_n(field, atom)),
            _fmt(saddle.get("n_m", math.nan)),
            _fmt(saddle.get("theta_m", math.nan)),
            _fmt(saddle.get("y_m", math.nan)),
            data["regime"],
            _fmt(methods["direct"]["w_total"]),
            _fmt(methods["airy_numeric"]["w_total"]) if "airy_numeric" in methods else "",
            _fmt(methods[closed_name]["w_total"]) if closed_name else "",
            closed_name,
        ]))
        detail.append({"value": v_cast, **data})
    outdir = Path(cfg.output_path)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "sweep.csv").write_text("\n".join(rows) + "\n", newline="\n")
    _write_json(outdir / "sweep.json", {"vary": key, "rows": detail})
    return 0


# --------------------------------------------------------------------------
# selftest

def run_selftest(json_mode: bool, fault: float) -> int:
    records = run_checks(bessel_fault=fault)
    passed = all(r["passed"] for r in records)
    if json_mode:
        print(json.dumps({"records": records, "passed": passed},
                         sort_keys=True, indent=2))
    else:
        width = max(len(r["name"]) for r in records)
        for r in records:
            status = "PASS" if r["passed"] else "FAIL"
            print(f"{r['name']:<{width}}  residual {r['residual']:10.3e}  "
                  f"tol {r['tolerance']:8.1e}  {status}")
        print(f"selftest: {'PASS' if passed else 'FAIL'} "
              f"({sum(r['passed'] for r in records)}/{len(records)} checks)")
    return 0 if passed else 1


# --------------------------------------------------------------------------
# argument parsing

def _add_common(p):
    # every flag but --config overrides the config key named by its dest
    p.add_argument("-c", "--config", required=True, help="JSON config file")
    p.add_argument("-o", "--output", dest="output_path", metavar="OUTPUT",
                   help="output directory (overrides config)")
    p.add_argument("--xi", dest="intensity_xi", metavar="XI", type=float,
                   help="override intensity_xi")
    p.add_argument("--photon-energy-ev", type=float)
    p.add_argument("--z-a", type=int)
    p.add_argument("--binding-energy-ev", type=float)
    p.add_argument("--polarization", choices=["circular", "linear", "elliptic"])
    p.add_argument("--zeta", type=float)
    p.add_argument("--theta-points", type=int)
    p.add_argument("--phi-points", type=int)
    p.add_argument("--mode", choices=["on", "off"])
    p.add_argument("--formula", choices=["relativistic", "nonrelativistic", "both"])


def _add_options(name, p):
    if name == "selftest":
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--inject-bessel-error", type=float, default=0.0,
                       help="testing hook: perturb the Bessel primitive")
        return
    _add_common(p)
    if name == "sweep":
        p.add_argument("--vary", required=True, help="config key to vary (e.g. xi)")
        p.add_argument("--values", required=True, help="comma-separated values")


# each subcommand and its help text
_SUBCOMMANDS = {
    "spectrum": "differential spectrum over an (N, theta, phi) grid",
    "rate": "total ionization rate by every applicable method",
    "sweep": "rate sweep over one config key",
    "selftest": "run the built-in consistency suite",
}


def _overrides(args) -> dict:
    return {k: v for k, v in vars(args).items() if k in RunConfig._ALLOWED and v is not None}


def _parser(argv: list) -> argparse.ArgumentParser:
    """The `ati` parser for the tokens argv.  Only the subcommand that
    argv[0] names gets its options: the top-level usage, help and errors
    read just the names and help texts of the others.  When argv[0] names
    no subcommand, all four get their options."""
    parser = argparse.ArgumentParser(
        prog="ati",
        description="Relativistic above-threshold-ionization spectra and rates "
                    "of hydrogen-like atoms in strong laser fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    for name, help_text in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if named in (None, name):
            _add_options(name, p)
    return parser


def _bind_values(parser, argv: list) -> list:
    """argv with each flag of the subcommand argv[0] that takes a value
    joined to the token after it (--xi -inf -> --xi=-inf), so that argparse
    does not read a value that starts with "-" (-inf, -1,2) as a flag of
    its own.  A flag with no token after it is left to argparse."""
    flags = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction) and argv and argv[0] in action.choices:
            flags = {s for a in action.choices[argv[0]]._actions if a.nargs != 0
                     for s in a.option_strings}
    bound, tokens = [], iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in flags else None
        bound.append(tok if value is None else f"{tok}={value}")
    return bound


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser(argv)
    argv = _bind_values(parser, argv)
    args = parser.parse_args(argv)
    try:
        # a numpy division by zero, overflow or NaN means the inputs left the
        # range of the formulas; the few places where such a value is
        # expected ignore it in an errstate of their own
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            if args.command == "selftest":
                fault = args.inject_bessel_error
                if not math.isfinite(fault):
                    raise ConfigError(f"--inject-bessel-error must be a finite number, got {fault!r}")
                return run_selftest(args.json, fault)
            cfg = load_config(args.config, _overrides(args))
            if args.command == "spectrum":
                return run_spectrum(cfg)
            if args.command == "rate":
                return run_rate(cfg)
            if args.command == "sweep":
                try:
                    values = [float(v) for v in args.values.split(",") if v.strip()]
                except ValueError:
                    raise ConfigError(
                        f"--values must be comma-separated numbers, got {args.values!r}") from None
                if not values:
                    raise ConfigError("--values must list at least one number")
                return run_sweep(cfg, args.vary, values)
            raise AssertionError(args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ChannelExplosionError, BesselRangeError, MemoryError) as exc:
        # MemoryError: a grid too large to allocate
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (OverflowError, ZeroDivisionError, FloatingPointError) as exc:
        # validate() bounds the common cases by name; an extreme combination
        # of valid inputs can still push a closed form past the double range
        print(f"config error: inputs outside the floating-point range of the formulas ({exc})",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
