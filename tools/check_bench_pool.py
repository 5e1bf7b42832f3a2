"""Run every config of the benchmark pools and check its outputs.

    python tools/check_bench_pool.py

Each variant of every slot of the pools in bench/reference/ runs once
through atispec.cli.main, as the benchmark runs it, with the config's own
settings, and its outputs are checked against the stored reference by
bench/workloads.check_op.  One line per config:

    <workload> s<slot>v<variant> <sha256 of the output files> ok|<reason>

The digest covers every output file's name and bytes, so two trees whose
outputs are byte-identical print the same lines: `diff` of the output of
two checkouts is a byte-identity check of the whole pool.  Exits 1 when
any config fails its reference check.  Reads bench/, writes only to a
temporary directory.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # leave no __pycache__ in bench/

import workloads as wl  # noqa: E402
from atispec import cli  # noqa: E402


def digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, outdir = Path(tmp) / "config.json", Path(tmp) / "out"
        for workload in sorted(wl.WORKLOADS):
            pool = wl.Pool(workload)
            for slot, entry in enumerate(pool.slots):
                for var in range(len(entry["variants"])):
                    wl.write_config(pool.variant(slot, var)["config"], cfg_path)
                    _, err = wl.run_op(cli.main, pool.command, cfg_path, outdir)
                    if err is None:
                        err = wl.check_op(pool, slot, var, outdir)
                    sha = digest(outdir) if outdir.is_dir() else "-"
                    print(f"{workload} {wl.op_label(slot, var)} {sha} {err or 'ok'}", flush=True)
                    failed += err is not None
                    shutil.rmtree(outdir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
