"""tools/check_bench_pool.py: its --diff mode on stand-in pool lines."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PARENT_LINES = ["rate_linear s1v0 cc ok", "spectrum_scan s0v0 aa ok", "spectrum_scan s0v1 bb ok"]


@pytest.fixture
def pool_tool(monkeypatch):
    # the tool puts src/ and bench/ first on sys.path and turns bytecode
    # writing off when imported; both are restored after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("check_bench_pool",
                                                  REPO / "tools" / "check_bench_pool.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_diff_prints_only_the_configs_that_moved(pool_tool, tmp_path, capsys, monkeypatch):
    parent = tmp_path / "parent.txt"
    parent.write_text("\n".join(PARENT_LINES) + "\n")
    monkeypatch.setattr(pool_tool, "pool_lines", lambda: ((line, False) for line in PARENT_LINES))
    assert pool_tool.main(["--diff", str(parent)]) == 0
    assert capsys.readouterr().out == ""
    # a moved status, a config the parent lacks and one that is gone
    now = ["rate_linear s2v0 dd ok", "spectrum_scan s0v0 aa ok",
           "spectrum_scan s0v1 bb dwdo mismatch at row 3"]
    monkeypatch.setattr(pool_tool, "pool_lines", lambda: ((line, True) for line in now))
    assert pool_tool.main(["--diff", str(parent)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "+ rate_linear s2v0 dd ok",
        "- spectrum_scan s0v1 bb ok",
        "+ spectrum_scan s0v1 bb dwdo mismatch at row 3",
        "- rate_linear s1v0 cc ok",
    ]
