"""Run one workload in a fresh process and print its record as JSON.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR

Started by run.py with PYTHONPATH pointing at the checkout's src/.  It runs
one untimed warm-up op, then whole batches (one op per slot, each op sent
after the previous one finished) until both MIN_BATCHES batches are done and
--seconds have passed.  Every op is checked against its reference.  With
--trace 1 it then runs the first batch again under the tracer and compares
the outputs byte for byte with the untraced ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import calibrate
import workloads as wl


def _digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.iterdir())


class Runner:
    """Runs ops of one pool in a scratch directory and keeps the tallies.

    A calibration kernel runs before the first op and after every op, so
    each latency has a bracket on either side (see calibrate.py)."""

    def __init__(self, pool: wl.Pool, main, tmp: Path, nproc: int):
        self.pool, self.main, self.tmp = pool, main, tmp
        self.alternate_workers = pool.workload == "rate_linear"
        self.nproc = nproc
        self.attempted = 0
        self.failures: list[str] = []
        self.brackets = [calibrate.kernel()]

    def op(self, slot: int, var: int, keep=None) -> tuple[float, float]:
        """Run one op; returns its (raw, scaled) latency.  `keep(outdir)`
        sees the outputs before they are removed."""
        variant = self.pool.warmup if slot < 0 else self.pool.variant(slot, var)
        workers = None
        if self.alternate_workers:
            workers = 1 if self.attempted % 2 == 0 else min(2, self.nproc)
        cfg_path, outdir = self.tmp / "config.json", self.tmp / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        wl.write_config(variant["config"], cfg_path, workers)
        latency, err = wl.run_op(self.main, self.pool.command, cfg_path, outdir)
        self.brackets.append(calibrate.kernel())
        scaled = calibrate.scale([latency], self.brackets[-2:])[0]
        self.attempted += 1
        if err is None:
            err = wl.check_op(self.pool, slot, var, outdir)
        if err is None and keep is not None:
            keep(outdir)
        if err is not None:
            self.failures.append(f"{wl.op_label(slot, var)}: {err}")
        shutil.rmtree(outdir, ignore_errors=True)
        return latency, scaled


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", type=Path, required=True)
    args = ap.parse_args(argv)

    import numpy
    import scipy
    from atispec import cli

    src = (wl.ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"atispec imported from {cli.__file__}, not from {src}")

    pool = wl.Pool(args.workload)
    nproc = len(os.sched_getaffinity(0))
    runner = Runner(pool, lambda argv: cli.main(argv), args.tmp, nproc)
    plan = pool.plan(args.seed)

    runner.op(-1, 0)  # warm-up, untimed
    raw, scaled, raw_walls, walls, first_batch = [], [], [], [], {}
    t_begin = time.perf_counter()
    for r, batch in enumerate(plan):
        if r >= wl.MIN_BATCHES and time.perf_counter() - t_begin >= args.seconds:
            break
        for slot, var in batch:
            keep = (lambda out, key=(slot, var): first_batch.__setitem__(key, _digest(out))) \
                if r == 0 else None
            latency, latency_scaled = runner.op(slot, var, keep)
            raw.append(latency)
            scaled.append(latency_scaled)
        raw_walls.append(sum(raw[-len(batch):]))
        walls.append(sum(scaled[-len(batch):]))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record = {
        "latencies": scaled,
        "batch_walls": walls,
        "raw_latencies": raw,
        "raw_batch_walls": raw_walls,
        "kernel_s": runner.brackets,
        "slots": len(pool.slots),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "reference_source_sha256": pool.meta["source_sha256"],
    }

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        traced_walls, written, mismatched = 0.0, 0, []

        def compare(out, key):
            nonlocal written
            written += _bytes(out)
            if _digest(out) != first_batch.get(key):
                mismatched.append(wl.op_label(*key))

        tracer.install()
        try:
            for i, (slot, var) in enumerate(next(pool.plan(args.seed))):
                tracer.op = i
                traced_walls += runner.op(slot, var, lambda out, key=(slot, var): compare(out, key))[1]
        finally:
            tracer.uninstall()
        spans_path = wl.ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
        tracer.write_spans(spans_path, {"workload": args.workload, "seed": args.seed})
        for label in mismatched:
            runner.failures.append(f"{label}: traced output differs from the untraced output")
        record["trace"] = {**tracer.summary(), "ops": len(pool.slots), "wall_s": traced_walls,
                           "bytes_written": written, "identical": not mismatched,
                           "spans_file": str(spans_path.relative_to(wl.ROOT))}

    record["attempted"] = runner.attempted
    record["failed"] = len(runner.failures)
    record["failures"] = runner.failures[:20]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
