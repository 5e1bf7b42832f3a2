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
any config fails its reference check.

    python tools/check_bench_pool.py --diff PARENT_OUTPUT

compares each line with the one of the same config in PARENT_OUTPUT, a
saved output of this tool (from the parent commit, say), and prints only
the configs whose digest or status differs, or that only one side has:
the parent's line after "- ", this tree's after "+ ".  Exits 1 when any
config differs and 0 when none does, whether or not the configs pass their
reference checks.  Reads bench/, writes only to a temporary directory.
"""

from __future__ import annotations

import argparse
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


def pool_lines():
    """Run every config of the pools; yield its line and whether it failed."""
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
                    yield f"{workload} {wl.op_label(slot, var)} {sha} {err or 'ok'}", err is not None
                    shutil.rmtree(outdir, ignore_errors=True)


def config_key(line: str) -> str:
    """The "<workload> s<slot>v<variant>" that a line starts with."""
    return " ".join(line.split(" ", 2)[:2])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run every benchmark pool config and check it.")
    parser.add_argument("--diff", metavar="PARENT_OUTPUT",
                        help="print only the configs whose line differs from this saved output")
    args = parser.parse_args(argv)
    if args.diff is None:
        failed = 0
        for line, err in pool_lines():
            print(line, flush=True)
            failed += err
        return 1 if failed else 0
    parent = {config_key(line): line for line in Path(args.diff).read_text().splitlines() if line}
    moved = 0
    for line, _ in pool_lines():
        old = parent.pop(config_key(line), None)
        if old != line:
            if old is not None:
                print(f"- {old}")
            print(f"+ {line}", flush=True)
            moved += 1
    for old in parent.values():
        print(f"- {old}", flush=True)
        moved += 1
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
