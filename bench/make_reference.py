"""Build the workload pools and their reference outputs.

    PYTHONPATH=src python3 bench/make_reference.py [workload ...]

Every config is generated from a fixed pool seed, run once through
`atispec.cli.main`, and stored with what the correctness check compares:
the spectrum's float columns (plus a digest of its N/theta/phi/tag columns)
or each rate method's w_total and error estimate.  Each config is then run
again with the Bessel fault injected, and `fault_detected` records whether
the check catches it.

The references define correct output for every later commit, so rebuild
them only in a change to the benchmark itself, at a commit whose outputs
are trusted.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

import workloads as wl

POOL_SEED = 1999
VARIANTS = 12
EV = 510998.95  # electron rest energy in eV, as the CLI converts


def _jitter(rng, x, rel=0.02):
    return float(x * (1.0 + rel * (2.0 * rng.random() - 1.0)))


def _peak(field_cfg: dict) -> tuple[int, int]:
    """(rounded peak photon number n_m, threshold photon number n0)."""
    from atispec import Atom, LaserField, saddle_point, threshold_n

    zeta = {"circular": 1.0, "linear": 0.0}.get(field_cfg["polarization"], field_cfg.get("zeta"))
    field = LaserField(field_cfg["photon_energy_ev"] / EV, field_cfg["intensity_xi"], zeta)
    atom = Atom.from_charge(field_cfg["z_a"])
    return round(saddle_point(field, atom).n_m), threshold_n(field, atom)


def _field(rng, polarization, omega_ev, xi, **extra):
    cfg = {"photon_energy_ev": round(_jitter(rng, omega_ev), 4),
           "intensity_xi": round(_jitter(rng, xi), 5),
           "polarization": polarization,
           "z_a": int(rng.integers(1, 3))}
    cfg.update(extra)
    return cfg


# Each slot: name -> function(rng, index) returning one config.  Variants of
# a slot share grid sizes, so they cost about the same.

def _spectrum_window(cfg, half, theta, phi, formula):
    n_m, n0 = _peak(cfg)
    lo = max(n_m - half, n0)
    return dict(cfg, n_range=[lo, lo + 2 * half], theta_points=theta,
                phi_points=phi, formula=formula)


SPECTRUM_SLOTS = {
    # tag 44: cheap per point, so the scalar point loop and CSV formatting
    # carry the weight; phi is redundant for circular fields, which keeps
    # the stored reference small.
    "circular_44": lambda rng, i: _spectrum_window(
        _field(rng, "circular", 10000.0, 0.7, mode=("on", "off")[i % 2]), 6, 12, 40, "relativistic"),
    # tag 55 near n = 70: the generalized-Bessel ladders dominate
    "linear_55": lambda rng, i: _spectrum_window(
        _field(rng, "linear", 5110.0, 1.0), 1, 20, 4, "relativistic"),
    # tag 42: complex generalized Bessel at elliptic zeta
    "elliptic_42": lambda rng, i: _spectrum_window(
        _field(rng, "elliptic", 5110.0, 1.0, zeta=round(_jitter(rng, 0.5, 0.1), 4)),
        1, 16, 4, "relativistic"),
    # tags 44 + 56
    "circular_both": lambda rng, i: _spectrum_window(
        _field(rng, "circular", 10000.0, 0.7), 5, 12, 24, "both"),
    # tags 55 + 59
    "linear_both": lambda rng, i: _spectrum_window(
        _field(rng, "linear", 5110.0, 1.0), 1, 16, 4, "both"),
}


def _rate_linear(xi):
    def make(rng, i):
        cfg = _field(rng, "linear", 25000.0, xi)
        _, n0 = _peak(cfg)
        # n_lo is the threshold itself, so honouring or ignoring it agree
        return dict(cfg, n_range=[n0, n0 + 6], theta_points=28, phi_points=2,
                    mode="on", formula="relativistic", workers=1)
    return make


RATE_LINEAR_SLOTS = {f"linear_xi{xi}": _rate_linear(xi) for xi in (0.45, 0.5, 0.55, 0.6, 0.65)}


def _rate_circular(omega_ev):
    def make(rng, i):
        cfg = _field(rng, "circular", omega_ev, 1.0)
        return dict(cfg, n_range="auto", theta_points=64, phi_points=1,
                    mode="on", formula="relativistic", workers=1)
    return make


# n_m ~ 5, 9 and 13 skip the Airy mesh (n_m < 50); n_m ~ 70 and 110 use it
RATE_CIRCULAR_SLOTS = {
    "circular_nm5": _rate_circular(100000.0),
    "circular_nm9": _rate_circular(60000.0),
    "circular_nm13": _rate_circular(40000.0),
    "circular_nm70": _rate_circular(7300.0),
    "circular_nm110": _rate_circular(4600.0),
}

SLOTS = {
    "spectrum_scan": SPECTRUM_SLOTS,
    "rate_linear": RATE_LINEAR_SLOTS,
    "rate_circular": RATE_CIRCULAR_SLOTS,
}


def _record(command, cfg, outdir):
    """Reference entry for one finished op (plus the spectrum columns)."""
    entry = {"config": cfg}
    if command == "spectrum":
        struct, cols = wl.read_spectrum(outdir)
        entry["struct_sha256"] = struct
        return entry, cols
    entry["rate"] = wl.read_rate(outdir)
    return entry, None


def build(workload: str, tmp: Path) -> None:
    from atispec import cli, specfun

    command = wl.WORKLOADS[workload]
    arrays: dict[str, np.ndarray] = {}
    slots = []
    warmup = None
    cfg_path = tmp / "config.json"
    for s, (name, make) in enumerate(SLOTS[workload].items()):
        rng = np.random.default_rng([POOL_SEED, s])
        variants, times = [], []
        for v in range(VARIANTS + (1 if s == 0 else 0)):
            cfg = make(rng, v)
            wl.write_config(cfg, cfg_path)
            outdir = tmp / f"s{s}v{v}"
            latency, err = wl.run_op(cli.main, command, cfg_path, outdir)
            if err:
                raise SystemExit(f"{workload} {name} variant {v}: {err}")
            entry, cols = _record(command, cfg, outdir)
            shutil.rmtree(outdir)
            is_warmup = v == VARIANTS
            label = wl.op_label(-1 if is_warmup else s, v)
            if cols is not None:
                arrays[label] = cols
            # the same op with the Bessel primitive perturbed
            specfun.set_bessel_fault(wl.BESSEL_FAULT)
            try:
                _, ferr = wl.run_op(cli.main, command, cfg_path, outdir)
            finally:
                specfun.set_bessel_fault(0.0)
            if ferr is None:
                ferr = (wl.check_spectrum(outdir, entry, cols) if cols is not None
                        else wl.check_rate(outdir, entry))
            shutil.rmtree(outdir, ignore_errors=True)
            entry["fault_detected"] = ferr is not None
            if is_warmup:
                warmup = entry
            else:
                variants.append(entry)
                times.append(latency)
        detected = sum(e["fault_detected"] for e in variants)
        print(f"{workload:14s} {name:16s} median op {statistics.median(times):.3f} s  "
              f"fault detected {detected}/{len(variants)}", flush=True)
        slots.append({"name": name, "variants": variants})

    import scipy

    meta = {"pool_seed": POOL_SEED, "source_sha256": wl.source_digest(),
            "numpy": np.__version__, "scipy": scipy.__version__}
    pool = json.dumps({"meta": meta, "slots": slots, "warmup": warmup}, sort_keys=True)
    np.savez_compressed(wl.REFERENCE_DIR / f"{workload}.npz", pool=np.array(pool), **arrays)


def main(argv: list[str]) -> int:
    names = argv or list(wl.WORKLOADS)
    tmp = wl.ROOT / ".bench_out" / "make_reference"
    tmp.mkdir(parents=True, exist_ok=True)
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for name in names:
            build(name, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
