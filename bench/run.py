"""The atispec benchmark: one command, every metric by name with its unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is used from the checkout's
own src/ (no install step).  --trace 0 prints the end-to-end metrics and
--trace 1 the per-layer metrics; see bench/README.md.  The last line of
standard output is the result object; the line before it is a report with
the run's environment and the details behind each metric, also written to
.bench_out/ with the trace spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# fresh-interpreter imports per run; setup_s is their median
SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
IMPORT_BREAKDOWN = ("atispec", "scipy.optimize", "scipy.special", "numpy")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER_TIMEOUT_S = 150


def child_env() -> dict:
    """Environment of every process the benchmark starts: the checkout's
    src/ first on the path, bytecode caching on (as for an installed
    package), and one BLAS/OpenMP thread (never above nproc)."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def time_import(env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import atispec"], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0


def timed_imports(env: dict, n: int) -> tuple[list[float], list[float]]:
    """(raw, scaled) seconds of n fresh-interpreter imports."""
    brackets, raw = [calibrate.kernel()], []
    for _ in range(n):
        raw.append(time_import(env))
        brackets.append(calibrate.kernel())
    return raw, calibrate.scale(raw, brackets)


def import_breakdown(env: dict) -> dict:
    """Cumulative import seconds of IMPORT_BREAKDOWN, from `-X importtime`."""
    cp = subprocess.run([sys.executable, "-X", "importtime", "-c", "import atispec"],
                        env=env, check=True, capture_output=True, text=True, timeout=60)
    found = {}
    for line in cp.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in IMPORT_BREAKDOWN:
            found[parts[2].strip()] = int(parts[1]) / 1e6
    return found


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        cp = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return cp.stdout.strip() if cp.returncode == 0 else None


def end_to_end(record: dict, setup: list[float], tail_pct: float) -> dict:
    lat = record["latencies"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(record["batch_walls"]), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (wl.percentile(lat, tail_pct), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "ok_ratio": (1.0 - record["failed"] / record["attempted"], "ratio"),
    }


def per_layer(record: dict, imports: dict) -> dict:
    trace = record["trace"]
    stats, counts = trace["stats"], trace["counts"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m = {}
    jn_elements = counts.get("specfun.jn.elements", 0)
    m["specfun.jn.calls"] = (calls("specfun.jn"), "count")
    m["specfun.jn.elements"] = (jn_elements, "count")
    m["specfun.jn.self_s"] = (self_s("specfun.jn"), "s")
    m["specfun.jn.ns_per_element"] = (ratio(self_s("specfun.jn"), jn_elements, 1e9), "ns")
    name = "specfun.gen_bessel_orders"
    m[name + ".calls"] = (calls(name), "count")
    m[name + ".self_s"] = (self_s(name), "s")
    m[name + ".useful_ratio"] = (
        ratio(counts.get(name + ".orders", 0), counts.get(name + ".jn_elements", 0)), "ratio")
    m["specfun.gen_bessel.calls"] = (calls("specfun.gen_bessel"), "count")
    m["specfun.gen_bessel.self_s"] = (self_s("specfun.gen_bessel"), "s")
    points = counts.get("specfun.airy_ai.points", 0)
    m["specfun.airy_ai.calls"] = (calls("specfun.airy_ai"), "count")
    m["specfun.airy_ai.points"] = (points, "count")
    m["specfun.airy_ai.self_s"] = (self_s("specfun.airy_ai"), "s")
    m["specfun.airy_ai.ns_per_point"] = (ratio(self_s("specfun.airy_ai"), points, 1e9), "ns")
    m["kinematics.channel_kinematics.calls"] = (calls("kinematics.channel_kinematics"), "count")
    m["kinematics.channel_kinematics.self_s"] = (self_s("kinematics.channel_kinematics"), "s")
    for fn in ("dwdo_linear", "dwdo_general", "dwdo_circular", "dwdo_nonrel",
               "circular_channel_dwdo"):
        m[f"spectra.{fn}.calls"] = (calls("spectra." + fn), "count")
        m[f"spectra.{fn}.self_s"] = (self_s("spectra." + fn), "s")
    m["spectra.circular_channel_dwdo.points"] = (
        counts.get("spectra.circular_channel_dwdo.points", 0), "count")
    m["rates.saddle_point.calls_per_op"] = (ratio(calls("rates.saddle_point"), trace["ops"]), "count")
    m["rates.saddle_point.self_s"] = (self_s("rates.saddle_point"), "s")
    evaluated = counts.get("rates.rate_direct.points", 0)
    m["rates.rate_direct.self_s"] = (self_s("rates.rate_direct"), "s")
    m["rates.rate_direct.points"] = (evaluated, "count")
    m["rates.rate_direct.useful_ratio"] = (
        ratio(counts.get("rates.rate_direct.reported_points", 0), evaluated), "ratio")
    m["rates.rate_airy.calls"] = (calls("rates.rate_airy"), "count")
    m["rates.rate_airy.self_s"] = (self_s("rates.rate_airy"), "s")
    m["rates.leggauss.calls"] = (calls("rates.leggauss"), "count")
    m["rates.leggauss.s"] = (total("rates.leggauss"), "s")
    m["cli.load_config.s"] = (total("cli.load_config"), "s")
    m["cli.run_spectrum.self_s"] = (self_s("cli.run_spectrum"), "s")
    m["cli.run_rate.self_s"] = (self_s("cli.run_rate"), "s")
    m["cli.bytes_written"] = (trace["bytes_written"], "bytes")
    for module in IMPORT_BREAKDOWN:
        m[f"setup.import.{module}_s"] = (imports.get(module, 0.0), "s")
    m["trace.overhead_s"] = (trace["wall_s"] - statistics.median(record["batch_walls"]), "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "atispec" / "__init__.py").is_file():
        print(f"no atispec sources under {SRC}; run from the root of an atispec checkout",
              file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    out_dir = ROOT / ".bench_out"
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        time_import(env)  # untimed: fills the bytecode cache
        raw_setup, setup, imports = [], [], {}
        if args.trace:
            samples = [import_breakdown(env) for _ in range(IMPORTTIME_SAMPLES)]
            imports = {k: statistics.median(s.get(k, 0.0) for s in samples)
                       for k in IMPORT_BREAKDOWN}
        else:
            raw_setup, setup = timed_imports(env, SETUP_SAMPLES)
        cp = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--tmp", str(tmp)],
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if cp.returncode != 0 or not cp.stdout.strip():
        sys.stderr.write(cp.stderr)
        print(f"worker exited with code {cp.returncode}", file=sys.stderr)
        return 1
    record = json.loads(cp.stdout.strip().splitlines()[-1])

    tail_pct = wl.tail_percentile(record["slots"])
    if args.trace:
        metrics = per_layer(record, imports)
    else:
        metrics = end_to_end(record, setup, tail_pct)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "env": {"nproc": nproc, "platform": platform.platform(), **record["versions"],
                "commit": git_commit(), "source_sha256": wl.source_digest(),
                "reference_source_sha256": record["reference_source_sha256"],
                "threads": {v: env[v] for v in THREAD_VARS}},
        "ops": len(record["latencies"]), "batches": len(record["batch_walls"]),
        "op_tail": {"percentile": tail_pct, "samples": len(record["latencies"])},
        "raw": {"setup_s": statistics.median(raw_setup) if raw_setup else None,
                "wall_s": statistics.median(record["raw_batch_walls"]),
                "op_p50_s": statistics.median(record["raw_latencies"]),
                "op_tail_s": wl.percentile(record["raw_latencies"], tail_pct)},
        "kernel_s": {"reference": calibrate.REFERENCE_S,
                     "median": statistics.median(record["kernel_s"])},
        "setup_samples_s": setup, "batch_walls_s": record["batch_walls"],
        "failures": record["failures"],
    }
    if args.trace:
        t = record["trace"]
        report["trace_detail"] = {k: t[k] for k in
                                  ("stats", "counts", "absent", "spans", "spans_file", "identical")}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"report": report, "result": result}, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
