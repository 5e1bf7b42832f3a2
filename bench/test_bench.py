"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest
from atispec import cli, specfun

import run
import workloads as wl
from tracer import TARGETS, Tracer
from worker import Runner, _digest

BENCHMARK = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def _runner(workload, tmp_path):
    return Runner(wl.Pool(workload), lambda argv: cli.main(argv), tmp_path, nproc=2)


def test_plan_is_seeded_and_does_not_repeat_configs():
    pool = wl.Pool("rate_linear")
    plan_a, plan_b = pool.plan(7), pool.plan(7)
    batches = [next(plan_a) for _ in range(pool.variant_count())]
    assert batches == [next(plan_b) for _ in range(len(batches))]
    ops = [op for batch in batches for op in batch]
    assert len(set(ops)) == len(ops)
    plan_c = pool.plan(8)
    assert batches != [next(plan_c) for _ in range(len(batches))]


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_bessel_fault_counts_the_op_as_failed(workload, tmp_path):
    runner = _runner(workload, tmp_path)
    pool = runner.pool
    slot, var = next((s, v) for s in range(len(pool.slots))
                     for v in range(pool.variant_count())
                     if pool.variant(s, v)["fault_detected"])
    runner.op(slot, var)
    assert runner.failures == []
    specfun.set_bessel_fault(wl.BESSEL_FAULT)
    try:
        runner.op(slot, var)
    finally:
        specfun.set_bessel_fault(0.0)
    assert len(runner.failures) == 1 and runner.attempted == 2


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_traced_outputs_are_byte_identical(workload, tmp_path):
    runner = _runner(workload, tmp_path)
    batch = next(runner.pool.plan(1))
    untraced, traced = {}, {}
    for slot, var in batch:
        runner.op(slot, var, lambda out, key=(slot, var): untraced.__setitem__(key, _digest(out)))
    tracer = Tracer()
    tracer.install()
    try:
        for i, (slot, var) in enumerate(batch):
            tracer.op = i
            runner.op(slot, var, lambda out, key=(slot, var): traced.__setitem__(key, _digest(out)))
    finally:
        tracer.uninstall()
    assert runner.failures == []
    assert traced == untraced and len(traced) == len(batch)
    summary = tracer.summary()
    assert summary["absent"] == []
    assert summary["stats"]["cli.main"][0] == len(batch)
    assert not any(k.endswith("hook_errors") for k in summary["counts"])
    # uninstall restores every binding
    assert cli.main.__module__ == "atispec.cli" and not hasattr(cli.main, "__wrapped__")


def test_tracer_counts_exactly_across_worker_threads(tmp_path):
    pool = wl.Pool("rate_linear")
    cfg = pool.variant(0, 0)["config"]
    n_lo, n_hi = cfg["n_range"]
    # both passes of rate_direct: theta and 2 theta nodes, every channel and phi
    expected = (n_hi - n_lo + 1) * 3 * cfg["theta_points"] * cfg["phi_points"]
    wl.write_config(cfg, tmp_path / "config.json", workers=4)
    tracer = Tracer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    tracer.install()
    try:
        _, err = wl.run_op(lambda argv: cli.main(argv), "rate", tmp_path / "config.json",
                           tmp_path / "out")
    finally:
        tracer.uninstall()
        sys.setswitchinterval(interval)
    assert err is None
    summary = tracer.summary()
    assert summary["threads"] > 1
    assert summary["stats"]["spectra.dwdo_linear"][0] == expected
    assert summary["counts"]["rates.rate_direct.points"] == expected
    assert summary["spans"] == sum(s[0] for s in summary["stats"].values())


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    monkeypatch.delattr(specfun, "gen_bessel")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["specfun.gen_bessel"]


def test_metric_names_match_benchmark_json():
    stats = {name: [1, 1.0, 0.5] for name, *_ in TARGETS}
    record = {"latencies": [0.1, 0.2, 0.3], "batch_walls": [0.6], "peak_rss_mb": 50.0,
              "attempted": 3, "failed": 0,
              "trace": {"stats": stats, "counts": {}, "ops": 3, "wall_s": 0.7,
                        "bytes_written": 10}}
    e2e = run.end_to_end(record, [0.8], 75.0)
    layer = run.per_layer(record, {})
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(e2e)
    assert sorted(m["name"] for m in BENCHMARK["per_layer"]) == sorted(layer)
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert all(units[k] == u for k, (_, u) in {**e2e, **layer}.items())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cp = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "rate_linear",
                         "--seed", "1", "--seconds", "1", "--trace", "0"],
                        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert cp.returncode != 0
    assert cp.stdout == ""
