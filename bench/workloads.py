"""Workloads of the atispec benchmark: the config pools, the seeded op plan,
one CLI op, and the correctness check of its outputs.

Each workload is a pool of `ati` configs stored with their reference
outputs in `reference/<workload>.npz`.  The pool has one row of variants per
slot; every variant of a slot has the same shape of work (same grid sizes,
fields jittered by a few percent), so a batch (one op per slot) costs about
the same whatever the seed picks.  The seed only chooses which variant each
batch uses and the order of the ops within it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"

# the `ati` subcommand each workload runs
WORKLOADS = {
    "spectrum_scan": "spectrum",
    "rate_linear": "rate",
    "rate_circular": "rate",
}

# A run measures at least MIN_BATCHES batches, so the tail percentile below
# always has ten or more samples beyond it.
MIN_BATCHES = 8

# relative tolerance of every numeric comparison against the reference
REL_TOL = 1e-9
BESSEL_FAULT = 1e-6

def tail_percentile(slots: int) -> float:
    """Highest percentile with at least ten samples beyond it at the
    workload's op count (slots x MIN_BATCHES)."""
    n = slots * MIN_BATCHES
    return 100.0 * (n - 10) / n


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(math.ceil(pct / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


class Pool:
    """A workload's configs and reference outputs."""

    def __init__(self, workload: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
        self.workload = workload
        self.command = WORKLOADS[workload]
        data = np.load(REFERENCE_DIR / f"{workload}.npz")
        meta = json.loads(str(data["pool"]))
        self.meta = meta["meta"]
        self.slots = meta["slots"]       # list of {"name", "variants": [...]}
        self.warmup = meta["warmup"]     # one extra variant, never timed
        self.arrays = {k: data[k] for k in data.files if k != "pool"}

    def variant_count(self) -> int:
        return min(len(s["variants"]) for s in self.slots)

    def plan(self, seed: int):
        """Endless sequence of batches, each a list of (slot, variant) ops.

        Batch r takes variant perm_s[r mod V] of every slot s, in a seeded
        order, so no config repeats until all V variants have run."""
        rng = random.Random(seed)
        v = self.variant_count()
        perms = [rng.sample(range(v), v) for _ in self.slots]
        r = 0
        while True:
            order = rng.sample(range(len(self.slots)), len(self.slots))
            yield [(s, perms[s][r % v]) for s in order]
            r += 1

    def variant(self, slot: int, var: int) -> dict:
        return self.slots[slot]["variants"][var]


def op_label(slot: int, var: int) -> str:
    return "warmup" if slot < 0 else f"s{slot}v{var}"


def source_digest() -> str:
    """sha256 over the package sources, naming the code that was measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "atispec").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def write_config(config: dict, path: Path, workers: int | None = None) -> None:
    cfg = dict(config)
    if workers is not None and "workers" in cfg:
        cfg["workers"] = workers
    path.write_text(json.dumps(cfg, sort_keys=True))


def run_op(main, command: str, cfg_path: Path, outdir: Path) -> tuple[float, str | None]:
    """Run one `ati <command>` through the CLI entry point in this process.

    Returns (latency in seconds, None or the reason the op failed)."""
    argv = [command, "-c", str(cfg_path), "-o", str(outdir)]
    t0 = time.perf_counter()
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    return latency, None if rc == 0 else f"exit code {rc}"


# --------------------------------------------------------------------------
# reading outputs

def read_spectrum(outdir: Path) -> tuple[str, np.ndarray]:
    """(sha256 of the header and the N/theta/phi/tag columns, float columns)."""
    lines = (outdir / "spectrum.csv").read_text().split("\n")
    if lines[-1] != "":
        raise ValueError("spectrum.csv does not end with a newline")
    rows = [line.split(",") for line in lines[1:-1]]
    struct = hashlib.sha256()
    struct.update(lines[0].encode())
    for r in rows:
        struct.update(("\n" + r[0] + "," + r[1] + "," + r[2] + "," + r[6]).encode())
    cols = np.array([r[3:6] for r in rows], dtype=float).reshape(len(rows), 3)
    return struct.hexdigest(), cols


def read_rate(outdir: Path) -> dict:
    """{"regime", "methods": {name: {"w_total", "quad_error_estimate"}}}."""
    payload = json.loads((outdir / "rate.json").read_text())
    methods = {}
    for name, entry in payload["methods"].items():
        est = entry.get("grid_report", {}).get("quad_error_estimate")
        methods[name] = {"w_total": entry["w_total"], "quad_error_estimate": est}
    return {"regime": payload["regime"], "methods": methods}


# --------------------------------------------------------------------------
# correctness

def _columns_agree(got: np.ndarray, ref: np.ndarray) -> str | None:
    if got.shape != ref.shape:
        return f"shape {got.shape} != reference {ref.shape}"
    for j in range(ref.shape[1]):
        g, r = got[:, j], ref[:, j]
        finite = np.isfinite(r)
        if not np.array_equal(g[~finite], r[~finite], equal_nan=True):
            return f"column {j}: non-finite entries differ"
        if not finite.any():
            continue
        g, r = g[finite], r[finite]
        # 1e-9 relative, with an absolute floor of 1e-9 of the column maximum
        tol = REL_TOL * (np.abs(r) + float(np.max(np.abs(r))))
        bad = ~(np.abs(g - r) <= tol)
        if bad.any():
            i = int(np.argmax(bad))
            return (f"column {j}: {int(bad.sum())} values off, first {g[i]!r} "
                    f"vs reference {r[i]!r}")
    return None


def check_spectrum(outdir: Path, variant: dict, ref_cols: np.ndarray) -> str | None:
    """None when spectrum.csv matches the reference, else the reason."""
    struct, cols = read_spectrum(outdir)
    if struct != variant["struct_sha256"]:
        return "N/theta/phi/formula_tag columns differ from the reference"
    return _columns_agree(cols, ref_cols)


def check_rate(outdir: Path, variant: dict) -> str | None:
    """None when every reference method's w_total agrees within the larger
    of REL_TOL relative and the quadrature error estimates, else the reason."""
    got = read_rate(outdir)
    ref = variant["rate"]
    if got["regime"] != ref["regime"]:
        return f"regime {got['regime']} != reference {ref['regime']}"
    for name, r in ref["methods"].items():
        g = got["methods"].get(name)
        if g is None:
            return f"method {name} missing"
        tol = max(REL_TOL * abs(r["w_total"]),
                  r["quad_error_estimate"] or 0.0,
                  g["quad_error_estimate"] or 0.0)
        if not abs(g["w_total"] - r["w_total"]) <= tol:
            return f"{name}: w_total {g['w_total']!r} vs reference {r['w_total']!r} (tol {tol:.3e})"
    return None


def check_op(pool: Pool, slot: int, var: int, outdir: Path) -> str | None:
    variant = pool.warmup if slot < 0 else pool.variant(slot, var)
    try:
        if pool.command == "spectrum":
            return check_spectrum(outdir, variant, pool.arrays[op_label(slot, var)])
        return check_rate(outdir, variant)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
