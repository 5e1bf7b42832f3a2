import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

REPO = Path(__file__).resolve().parents[1]
DESK_CONFIG = REPO / "demos" / "configs" / "desk_circular.json"
LINEAR_CONFIG = REPO / "demos" / "configs" / "linear_small.json"
GOLDEN = Path(__file__).parent / "data" / "golden_desk_circular_spectrum.csv"
# the elliptic (tag 42) spectrum of linear_small.json at zeta 0.5: every row
# runs the generalized-Bessel series, which the circular golden file never does
GOLDEN_ELLIPTIC = Path(__file__).parent / "data" / "golden_linear_small_elliptic_spectrum.csv"


def run_cli(*args):
    cmd = [sys.executable, "-m", "atispec", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def write_config(tmp_path, **kwargs):
    base = {
        "photon_energy_ev": 5109.9895,
        "intensity_xi": 1.0,
        "polarization": "circular",
        "z_a": 1,
        "theta_points": 12,
        "phi_points": 1,
        "n_range": [95, 105],
        "output_path": str(tmp_path / "out"),
    }
    base.update(kwargs)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(base))
    return p


def test_help_runs():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "spectrum" in cp.stdout and "selftest" in cp.stdout


def _fully_filled_parser(argv):
    """`ati`'s parser as main built it while every call filled all four
    subparsers, whatever argv named: the oracle for `cli._parser`."""
    from atispec import cli

    parser = argparse.ArgumentParser(
        prog="ati",
        description="Relativistic above-threshold-ionization spectra and rates "
                    "of hydrogen-like atoms in strong laser fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_spec = sub.add_parser("spectrum", help="differential spectrum over an (N, theta, phi) grid")
    cli._add_common(p_spec)
    p_rate = sub.add_parser("rate", help="total ionization rate by every applicable method")
    cli._add_common(p_rate)
    p_sweep = sub.add_parser("sweep", help="rate sweep over one config key")
    cli._add_common(p_sweep)
    p_sweep.add_argument("--vary", required=True, help="config key to vary (e.g. xi)")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_self = sub.add_parser("selftest", help="run the built-in consistency suite")
    p_self.add_argument("--json", action="store_true", help="machine-readable report")
    p_self.add_argument("--inject-bessel-error", type=float, default=0.0,
                        help="testing hook: perturb the Bessel primitive")
    return parser


def _main_outcome(argv, capsys):
    from atispec.cli import main

    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# every argv here stops in the parser or at the missing config file
@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["-h", "rate"],
    ["spectrum", "-h"], ["rate", "-h"], ["sweep", "-h"], ["selftest", "-h"],
    ["rate", "--help", "-c", "{missing}"],
    ["bogus"], ["rat"], ["Rate"], ["--bogus"], ["--", "rate", "-c", "{missing}"],
    ["rate", "-c", "{missing}"], ["rate", "--bogus", "-c", "{missing}"], ["rate", "-c"],
    ["rate"], ["spectrum"], ["sweep", "-c", "{missing}"],
    ["rate", "-c", "{missing}", "--polarization", "square"],
    ["spectrum", "-c", "{missing}", "--mode", "maybe"],
    ["rate", "-c", "{missing}", "--xi", "abc"],
    ["rate", "-c", "{missing}", "--vary", "xi"],
    ["sweep", "-c", "{missing}", "--vary", "xi", "--values", "-1,2"],
    ["sweep", "-c", "{missing}", "--vary", "xi", "--values"],
    ["selftest", "--bogus"], ["selftest", "--json", "extra"],
    ["selftest", "-c", "{missing}"],
    ["selftest", "--inject-bessel-error", "x"],
    ["selftest", "--inject-bessel-error", "nan"],
    ["selftest", "--inject-bessel-error", "-inf"], ["selftest", "--inject-bessel-error"],
    ["rate", "-c", "{missing}", "--xi", "-inf"], ["rate", "--config", "-c", "{missing}"],
    ["spectrum", "-c", "{missing}", "-o", "-out", "--zeta", "-0.5"],
])
def test_parser_matches_fully_filled_parser(argv, tmp_path, capsys, monkeypatch):
    from atispec import cli

    argv = [tok.format(missing=tmp_path / "missing.json") for tok in argv]
    got = _main_outcome(argv, capsys)
    monkeypatch.setattr(cli, "_parser", _fully_filled_parser)
    assert got == _main_outcome(argv, capsys)
    assert got[0] in (0, 2)


def test_parser_fills_only_the_named_subcommand(tmp_path, capsys, monkeypatch):
    from atispec import cli

    calls = []
    add_common = cli._add_common
    monkeypatch.setattr(cli, "_add_common", lambda p: calls.append(p.prog) or add_common(p))
    assert cli.main(["rate", "-c", str(tmp_path / "missing.json")]) == 2
    assert calls == ["ati rate"]
    calls.clear()
    with pytest.raises(SystemExit):
        cli.main(["-h"])
    assert calls == ["ati spectrum", "ati rate", "ati sweep"]


def test_spectrum_matches_golden_file():
    cp = run_cli("spectrum", "-c", str(DESK_CONFIG), "-o", str(REPO / ".pytest_golden_check"))
    try:
        assert cp.returncode == 0, cp.stderr
        got = (REPO / ".pytest_golden_check" / "spectrum.csv").read_bytes()
        assert got == GOLDEN.read_bytes()
    finally:
        import shutil
        shutil.rmtree(REPO / ".pytest_golden_check", ignore_errors=True)


def test_elliptic_spectrum_matches_golden_file(tmp_path):
    cp = run_cli("spectrum", "-c", str(LINEAR_CONFIG), "-o", str(tmp_path),
                 "--polarization", "elliptic", "--zeta", "0.5")
    assert cp.returncode == 0, cp.stderr
    assert (tmp_path / "spectrum.csv").read_bytes() == GOLDEN_ELLIPTIC.read_bytes()


def test_spectrum_csv_written_without_a_second_copy_of_its_text(tmp_path):
    # 78,721 lines of tags 44 and 56: the text is held once, as the lines
    # the file is written from, not also as their join and its encoding
    from atispec import cli

    out = tmp_path / "out"
    argv = ["spectrum", "-c", str(DESK_CONFIG), "-o", str(out), "--phi-points", "40",
            "--formula", "both"]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (out / "spectrum.csv").stat().st_size
    assert size > 7_000_000
    assert peak < 1.5 * size


def test_spectrum_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("spectrum", "-c", str(cfg), "-o", str(out1)).returncode == 0
    assert run_cli("spectrum", "-c", str(cfg), "-o", str(out2)).returncode == 0
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_spectrum_worker_count_invariant(tmp_path):
    # `workers` of an older config loads, has no effect on the spectrum and
    # is noted in summary.json; the --workers flag is gone
    kwargs = dict(polarization="linear", theta_points=8, phi_points=2, n_range=[30, 34])
    out1, out2 = tmp_path / "w1", tmp_path / "w4"
    cfg = write_config(tmp_path, **kwargs)
    assert run_cli("spectrum", "-c", str(cfg), "-o", str(out1)).returncode == 0
    cfg = write_config(tmp_path, **kwargs, workers=4)
    assert run_cli("spectrum", "-c", str(cfg), "-o", str(out2)).returncode == 0
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
    warnings = [json.loads((out / "summary.json").read_text())["warnings"] for out in (out1, out2)]
    assert warnings == [[], ["config field 'workers' has no effect"]]
    cp = run_cli("spectrum", "-c", str(cfg), "-o", str(tmp_path / "flag"), "--workers", "4")
    assert cp.returncode == 2 and not (tmp_path / "flag").exists()


def test_spectrum_field_off_all_zeros(tmp_path):
    cfg = write_config(tmp_path, intensity_xi=0.0, n_range="auto")
    out = tmp_path / "off"
    cp = run_cli("spectrum", "-c", str(cfg), "-o", str(out))
    assert cp.returncode == 0, cp.stderr
    rows = (out / "spectrum.csv").read_text().strip().splitlines()[1:]
    assert rows
    assert all(float(r.split(",")[3]) == 0.0 for r in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["validity"]["field_off"] is True


def test_spectrum_rescatter_factor_overflow_exit_0(tmp_path):
    # on this weak elliptic field the direct amplitude at theta = pi is so
    # small that resc / kfr overflows: the column reads inf, and the run
    # succeeds without a warning
    from atispec.cli import main

    xi = 0.007673713722511133
    cfg = write_config(tmp_path, photon_energy_ev=1000.0, intensity_xi=xi, polarization="elliptic",
                       zeta=xi, theta_points=8, n_range=[40, 42])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["spectrum", "-c", str(cfg)]) == 0
    assert err.getvalue() == ""
    rows = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()[1:]
    assert [r.split(",")[5] for r in rows].count("inf") == 1


def test_spectrum_csv_header_contract(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "hdr"
    run_cli("spectrum", "-c", str(cfg), "-o", str(out))
    header = (out / "spectrum.csv").read_text().splitlines()[0]
    assert header == "N,theta_rad,phi_rad,dwdo,kfr_only_dwdo,rescatter_factor,formula_tag"


def test_spectrum_both_formulas_tagged(tmp_path):
    cfg = write_config(tmp_path, formula="both", n_range=[98, 100], theta_points=8)
    out = tmp_path / "both"
    assert run_cli("spectrum", "-c", str(cfg), "-o", str(out)).returncode == 0
    tags = {r.rsplit(",", 1)[1] for r in (out / "spectrum.csv").read_text().strip().splitlines()[1:]}
    assert tags == {"44", "56"}


@pytest.mark.parametrize("mode", ["on", "off"])
@pytest.mark.parametrize("polarization, zeta, formula, phi_points", [
    ("circular", None, "both", 3),          # tags 44 and 56
    ("linear", None, "both", 3),            # tags 55 and 59
    ("elliptic", 0.5, "relativistic", 3),   # tag 42
    # tag 55 at the 8 panels: phase angle -0.0 where sin phi < 0 < cos phi
    # and 0.0 elsewhere, and mirrored panels of equal |cos phi|, so equal
    # rows of both signs of zero merge in the kernel's row dedup
    ("linear", None, "relativistic", 8),
    # an elliptic label at zeta = -1: the tag rule reads zeta, so tags 44 and 56
    ("elliptic", -1.0, "both", 4),
], ids=["circular-None-both", "linear-None-both", "elliptic-0.5-relativistic",
        "linear-None-relativistic-8", "elliptic--1.0-both-4"])
def test_spectrum_rows_match_one_point_wrappers(tmp_path, monkeypatch, polarization, zeta,
                                                 formula, phi_points, mode):
    # 7-row blocks hold rows of two channels, and split the 8 x phi_points
    # grid of each channel across kernel calls; the window starts one
    # channel below threshold, and theta runs from 0 to pi.  Every row has
    # the bits of the one-point function at its channel and angles, and
    # their text: -0.0 and 0.0 are equal values but not equal lines.
    from atispec import cli, spectra
    from atispec.kinematics import channel_kinematics, threshold_n
    from atispec.spectra import spectrum_point

    monkeypatch.setattr(spectra, "SPECTRUM_BLOCK", 7)
    extra = {} if zeta is None else {"zeta": zeta}
    rc = cli.RunConfig(photon_energy_ev=5109.9895, intensity_xi=1.0, polarization=polarization,
                       **extra)
    field, atom = rc.field(), rc.atom()
    n0 = threshold_n(field, atom)
    cfg = write_config(tmp_path, polarization=polarization, formula=formula, mode=mode,
                       theta_points=8, phi_points=phi_points, n_range=[n0 - 1, n0 + 1], **extra)
    if phi_points == 8:
        phis = 2.0 * math.pi * np.arange(8) / 8
        delta = channel_kinematics(field, atom, n0, np.linspace(0.0, math.pi, 8)[:, None],
                                   phis).phase_angle
        assert {repr(x) for x in delta[delta == 0.0].tolist()} == {"0.0", "-0.0"}
        assert np.unique(np.abs(np.cos(phis))).size < phis.size
    out = tmp_path / "rows"
    assert cli.main(["spectrum", "-c", str(cfg), "-o", str(out)]) == 0
    resc = mode == "on"
    groups = {}
    for line in (out / "spectrum.csv").read_text().splitlines()[1:]:
        n, th, ph, *vals, tag = line.split(",")
        form = "nonrelativistic" if int(tag) in (56, 59) else "relativistic"
        pt = spectrum_point(field, atom, int(n), float(th), float(ph), formula=form,
                            rescattering=resc)
        assert pt.formula_tag == int(tag)
        want = (pt.dwdo, pt.dwdo_kfr_only, pt.rescatter_factor)
        groups.setdefault((tag, n), []).append(([float(v) for v in vals], want))
        d, k, r = want
        assert line == f"{n},{float(th)!r},{float(ph)!r},{d!r},{k!r},{r!r},{tag}"
    assert len(groups) == 3 * (2 if formula == "both" else 1)
    for rows in groups.values():
        got, want = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
        assert np.array_equal(got, want, equal_nan=True)


def _old_spectrum_csv(cfg):
    # the per-row writer that formatted every cell: the byte oracle of the
    # one that formats each distinct double once
    from atispec.cli import RunConfig
    from atispec.spectra import channel_spectrum

    rc = RunConfig(**cfg)
    field, atom = rc.field(), rc.atom()
    formulas = {"relativistic": ["relativistic"], "nonrelativistic": ["nonrelativistic"],
                "both": ["relativistic", "nonrelativistic"]}[rc.formula]
    thetas = np.linspace(0.0, math.pi, rc.theta_points)
    phis = 2.0 * math.pi * np.arange(rc.phi_points) / rc.phi_points
    channels = np.arange(rc.n_range[0], rc.n_range[1] + 1)
    angles = [f"{th!r},{ph!r}" for th in thetas.tolist() for ph in phis.tolist()]
    lines = ["N,theta_rad,phi_rad,dwdo,kfr_only_dwdo,rescatter_factor,formula_tag"]
    for formula in formulas:
        tag, *cols = channel_spectrum(field, atom, channels[:, None, None], thetas[:, None], phis,
                                      formula, rc.mode == "on")
        rows = ((n, a) for n in channels.tolist() for a in angles)
        lines.extend(f"{n},{a},{d!r},{k!r},{r!r},{tag}" for (n, a), d, k, r in
                     zip(rows, *(c.tolist() for c in cols)))
    return ("\n".join(lines) + "\n").encode()


_CSV_CASES = {
    # tags 44 and 56 repeat each (N, theta) value along all 24 azimuths
    "": ({}, 24, {"44": False, "56": False}),
    # tag 59 repeats along phi, tag 55 does not; the panels 0, pi/2, pi and
    # 3pi/2 mirror each other, with |cos phi| apart in the last bit
    "linear-": ({"polarization": "linear"}, 4, {"55": True, "59": False}),
    "elliptic-": ({"polarization": "elliptic", "zeta": 0.5, "formula": "relativistic"}, 4,
                  {"42": True}),
}


@pytest.mark.parametrize("mode, extra, phi_points, varies", [
    pytest.param(mode, *case, id=name + mode)
    for name, case in _CSV_CASES.items() for mode in ("on", "off")])
def test_spectrum_csv_bytes_match_per_row_writer(tmp_path, mode, extra, phi_points, varies):
    # a formula whose values repeat along phi is written one (N, theta)
    # block at a time, any other row by row; each window starts below
    # threshold (N 42, 23 and 28), so 0.0 and nan repeat too
    from atispec.cli import main, RunConfig
    from atispec.kinematics import threshold_n

    cfg = {"formula": "both", **extra}
    rc = RunConfig(photon_energy_ev=5109.9895, intensity_xi=1.0, **cfg)
    n0 = threshold_n(rc.field(), rc.atom())
    cfg_path = write_config(tmp_path, mode=mode, theta_points=10, phi_points=phi_points,
                            n_range=[n0 - 2, n0 + 3], **cfg)
    assert main(["spectrum", "-c", str(cfg_path)]) == 0
    got = (tmp_path / "out" / "spectrum.csv").read_bytes()
    assert got.count(b"\n") == 1 + len(varies) * 6 * 10 * phi_points
    assert got == _old_spectrum_csv(json.loads(cfg_path.read_text()))
    blocks = {}
    for line in got.decode().splitlines()[1:]:
        n, th, _, *vals, tag = line.split(",")
        blocks.setdefault((tag, n, th), set()).add(tuple(vals))
    assert {tag: any(len(v) > 1 for (t, *_), v in blocks.items() if t == tag)
            for tag in varies} == varies


_SPECIAL_BITS = np.array([-0.0, 0.0, -0.0, 0.0, math.inf, -math.inf, math.inf, 5e-324,
                          -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                          5e-324]).view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-2**63, 2**63 - 1) | st.sampled_from(_SPECIAL_BITS),
                min_size=1, max_size=12).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=60)))
@example(_SPECIAL_BITS)
@example([0x7FF8000000000001, -0x0007FFFFFFFFFFFF, 0x7FF8000000000001, 1, 1])
def test_fmt_column_is_repr_of_each_cell(bits):
    # any bit pattern: NaN payloads, negative NaN, subnormals, signed zeros
    from atispec.cli import _fmt_column

    col = np.array(bits, dtype=np.int64).view(np.float64)
    assert _fmt_column(col) == [repr(x) for x in col.tolist()]


def test_config_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"photon_energy_ev": 100,,}')
    cp = run_cli("spectrum", "-c", str(bad))
    assert cp.returncode == 2
    assert "line" in cp.stderr


def test_config_field_error_exit_2(tmp_path):
    cfg = write_config(tmp_path, theta_points=4)
    cp = run_cli("spectrum", "-c", str(cfg))
    assert cp.returncode == 2
    assert "theta_points" in cp.stderr
    cfg2 = write_config(tmp_path, nonsense_key=1)
    cp2 = run_cli("spectrum", "-c", str(cfg2))
    assert cp2.returncode == 2
    assert "nonsense_key" in cp2.stderr


@pytest.mark.parametrize("key, value", [
    ("intensity_xi", -1),
    ("intensity_xi", float("nan")),
    ("photon_energy_ev", "5000"),
    ("theta_points", "16"),
    ("binding_energy_ev", 1e9),
    ("z_a", 1.7),
    ("z_a", 200),  # hydrogenic binding energy above the electron mass
    ("channel_cap", -1),
    ("output_path", ""),
    ("zeta", 0.5),  # on the circular field of write_config
])
def test_config_value_error_exit_2_one_line(tmp_path, capsys, key, value):
    from atispec.cli import main

    cfg = write_config(tmp_path, **{key: value})
    assert main(["spectrum", "-c", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["spectrum", "rate"])
@pytest.mark.parametrize("key, value", [
    ("photon_energy_ev", 1e300),
    ("photon_energy_ev", 1e-300),
    ("intensity_xi", 1e300),
    ("peak_field_v_per_cm", 1e300),
])
def test_out_of_range_magnitude_exit_2_one_line(tmp_path, capsys, command, key, value):
    from atispec.cli import main

    extra = {"intensity_xi": None} if key == "peak_field_v_per_cm" else {}
    cfg = write_config(tmp_path, **{key: value, **extra})
    assert main([command, "-c", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert key in err
    assert not (tmp_path / "out").exists()


def test_zeta_override_outside_elliptic_exit_2_one_line(tmp_path, capsys):
    # --zeta on a linear field would be ignored by the run
    from atispec.cli import main

    cfg = write_config(tmp_path, polarization="linear")
    assert main(["spectrum", "-c", str(cfg), "--zeta", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: field 'zeta' is for elliptic polarization only\n"
    assert not (tmp_path / "out").exists()


def test_born_warning_states_its_limit(tmp_path):
    from atispec.cli import main

    cfg = write_config(tmp_path, intensity_xi=0.01, theta_points=8, n_range=[1, 2])
    assert main(["spectrum", "-c", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["derived"]["born_ratio"] > 0.2
    assert summary["warnings"] == ["Born condition violated: born_ratio exceeds 0.2"]


def test_elliptic_rate_and_sweep_exit_0(tmp_path, capsys):
    from atispec.cli import main

    cfg = write_config(tmp_path, polarization="elliptic", zeta=0.5, phi_points=4, n_range=[30, 40])
    assert main(["rate", "-c", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    direct = json.loads((tmp_path / "out" / "rate.json").read_text())["methods"]["direct"]
    assert direct["w_total"] > 0.0 and direct["grid_report"]["phi_points"] == 4
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(cfg), "-o", str(out), "--vary", "xi", "--values", "0.3,0.5"]) == 0
    assert capsys.readouterr().err == ""
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(float(r.split(",")[6]) > 0.0 for r in rows)


# a valid config over a small grid (at most 12 x 4 angles and 5 channels);
# an elliptic field comes with its zeta
_POLARIZATION = st.one_of(
    st.fixed_dictionaries({}, optional={"polarization": st.sampled_from(["circular", "linear"])}),
    st.fixed_dictionaries({"polarization": st.just("elliptic"), "zeta": st.floats(-1.0, 1.0)}),
)
_GOOD = st.fixed_dictionaries(
    {"photon_energy_ev": st.floats(1e3, 2e4), "intensity_xi": st.floats(0.0, 2.0),
     "output_path": st.just("OUT")},
    optional={
        "z_a": st.integers(1, 3),
        "binding_energy_ev": st.floats(5.0, 5e3),
        "theta_points": st.integers(8, 12),
        "phi_points": st.integers(1, 4),
        "n_range": st.builds(lambda lo, w: [lo, lo + w], st.integers(0, 45), st.integers(0, 4)),
        "mode": st.sampled_from(["on", "off"]),
        "formula": st.sampled_from(["relativistic", "nonrelativistic", "both"]),
        "workers": st.integers(1, 2),
    },
)
_GOOD = st.tuples(_GOOD, _POLARIZATION).map(lambda p: {"n_range": [40, 42], **p[0], **p[1]})

# any JSON value where a config expects a number, a string or a range
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.lists(st.integers(-3, 3), max_size=3), st.just(float("nan")),
                  st.integers(-2, 2), st.floats(-1e3, 1e3))
_EXTREMES = {
    "photon_energy_ev": [0.0, 1e-300, 1e300, 6e5],
    "intensity_xi": [-1.0, 5e-324, 1e-300, 1e300],
    "peak_field_v_per_cm": [0.0, 1e300],
    "polarization": ["elliptic", "radial"],
    "zeta": [-1.5, 0.5, 1.0],
    "z_a": [1.7, 200, 10**30],
    "binding_energy_ev": [0.0, 1e-300, 1e6],
    # 10**15 points fail at their first allocation; n = 10**15 takes k.Pi to 0
    "theta_points": [7, 10**15],
    "phi_points": [0, -1, 10**15],
    "n_range": ["auto", [3, 2], [-3, 1], [10**15, 10**15]],
    "mode": ["both"],
    "formula": ["exact"],
    "channel_cap": [-1, 0, 2],
    "output_path": [""],
}


def _threshold(raw):
    from atispec.cli import RunConfig
    from atispec.kinematics import threshold_n

    cfg = RunConfig.from_dict(raw)
    return threshold_n(cfg.field(), cfg.atom())


@st.composite
def _configs(draw):
    raw = draw(_GOOD)
    if draw(st.booleans()):
        # n_range[0] below, at or above the threshold photon number
        lo = _threshold(raw) + draw(st.integers(-2, 2))
        raw["n_range"] = [lo, lo + draw(st.integers(0, 4))]
    for key in draw(st.lists(st.sampled_from(sorted(_EXTREMES)), max_size=2, unique=True)):
        raw[key] = draw(st.one_of(st.sampled_from(_EXTREMES[key]), _JUNK))
    return raw


# `ati sweep` arguments: a swept key and its --values, valid or not
_SWEEP = st.tuples(
    st.sampled_from(["xi", "intensity_xi", "photon_energy_ev", "z_a", "binding_energy_ev",
                     "theta_points", "zeta"]),
    st.one_of(
        st.lists(st.one_of(st.floats(0.1, 3.0), st.floats(1e3, 2e4),
                           st.sampled_from([0.0, -1.0, 1.7, 1e300, math.nan, math.inf])),
                 min_size=1, max_size=2).map(lambda vs: ",".join(map(repr, vs))),
        st.text(max_size=4)),
)


@settings(max_examples=60, deadline=None)
@given(raw=_configs(), command=st.sampled_from(["spectrum", "rate", "sweep"]), sweep=_SWEEP,
       joined=st.booleans())
@example(raw={"photon_energy_ev": 5e3, "intensity_xi": 1.0, "output_path": "OUT"},
         command="sweep", sweep=("xi", "-1,2"), joined=False)
@example(raw={"photon_energy_ev": 5e3, "intensity_xi": 1.0, "output_path": "OUT",
              "theta_points": 10**15}, command="rate", sweep=("xi", "1"), joined=False)
@example(raw={"photon_energy_ev": 5e3, "intensity_xi": 1.0, "output_path": "OUT",
              "phi_points": 10**15}, command="spectrum", sweep=("xi", "1"), joined=False)
@example(raw={"photon_energy_ev": 5e3, "intensity_xi": 1.0, "output_path": "OUT", "theta_points": 8,
              "n_range": [10**15, 10**15]}, command="spectrum", sweep=("xi", "1"), joined=False)
def test_any_config_exits_0_2_or_3_with_one_stderr_line(raw, command, sweep, joined):
    from atispec.cli import main

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        if raw["output_path"] == "OUT":
            raw["output_path"] = str(Path(tmp) / "out")
        argv = [command, "-c", str(Path(tmp) / "config.json")]
        if command == "sweep":
            # every swept point takes the auto channel window; a cap keeps a
            # wide one to a quick exit 3
            raw.setdefault("channel_cap", 64)
            # the list joined to its flag by "=", or as an argv entry of its
            # own, which may start with "-" (-1,2)
            values = [f"--values={sweep[1]}"] if joined else ["--values", sweep[1]]
            argv += ["--vary", sweep[0], *values]
        Path(argv[2]).write_text(json.dumps(raw))
        err = io.StringIO()
        # a junk relative output_path lands in the temporary directory
        before = set(os.listdir(cwd))
        os.chdir(tmp)
        try:
            with contextlib.redirect_stderr(err):
                rc = main(argv)
        finally:
            os.chdir(cwd)
        assert set(os.listdir(cwd)) <= before
    assert rc in (0, 2, 3)
    if rc:
        assert err.getvalue().count("\n") == 1, err.getvalue()
    else:
        assert err.getvalue() == ""


@pytest.mark.parametrize("offsets, first, count", [((2, 4), 2, 3), ((-3, 1), 0, 2)])
def test_rate_sums_n_range_from_its_first_channel(tmp_path, offsets, first, count):
    from atispec.cli import main

    n0 = _threshold({"photon_energy_ev": 5109.9895, "intensity_xi": 1.0})
    cfg = write_config(tmp_path, n_range=[n0 + offsets[0], n0 + offsets[1]], theta_points=8)
    assert main(["rate", "-c", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "rate.json").read_text())["methods"]["direct"]["grid_report"]
    # the first summed channel is n_range[0], clamped up to the threshold
    assert report["n_lo"] == n0 + first and report["n_hi"] == n0 + offsets[1]
    assert report["channels_summed"] == count


def test_exclusive_intensity_specification(tmp_path):
    cfg = write_config(tmp_path, peak_field_v_per_cm=1e12)
    cp = run_cli("spectrum", "-c", str(cfg))
    assert cp.returncode == 2
    assert "intensity" in cp.stderr


def test_nonrelativistic_elliptic_rejected(tmp_path):
    cfg = write_config(tmp_path, polarization="elliptic", zeta=0.5,
                       formula="nonrelativistic")
    cp = run_cli("spectrum", "-c", str(cfg))
    assert cp.returncode == 2
    assert "circular or linear" in cp.stderr


def test_channel_explosion_exit_3(tmp_path):
    cfg = write_config(tmp_path, photon_energy_ev=0.005, n_range="auto")
    cp = run_cli("spectrum", "-c", str(cfg))
    assert cp.returncode == 3


def test_threshold_beyond_cap_exit_3_writes_nothing(tmp_path, capsys):
    from atispec.cli import main

    cfg = write_config(tmp_path, photon_energy_ev=0.005, n_range=[1, 2], theta_points=8)
    assert main(["spectrum", "-c", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith("resource cap:")
    assert not (tmp_path / "out").exists()


def test_bessel_range_exit_3_without_traceback(tmp_path):
    cfg = write_config(tmp_path, polarization="linear", theta_points=8,
                       n_range=[3960, 3960])
    cp = run_cli("spectrum", "-c", str(cfg))
    assert cp.returncode == 3
    assert cp.stderr.startswith("resource cap:") and cp.stderr.count("\n") == 1


def test_huge_linear_intensity_exit_3_one_line(tmp_path):
    # the series route would need ordinary-Bessel arguments far past
    # MAX_ARGUMENT, whose recurrences would take about |x| steps each
    cfg = json.loads((REPO / "demos" / "configs" / "linear_small.json").read_text())
    cfg.update(intensity_xi=30.0, n_range="auto", theta_points=8, output_path=str(tmp_path / "out"))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    cp = run_cli("spectrum", "-c", str(path))
    assert cp.returncode == 3
    assert cp.stderr.startswith("resource cap:") and cp.stderr.count("\n") == 1
    assert "Traceback" not in cp.stderr


@pytest.mark.parametrize("extra", [{}, {"polarization": "elliptic", "zeta": 0.5}],
                         ids=["linear", "elliptic"])
def test_series_window_fails_in_its_first_block(tmp_path, capsys, monkeypatch, extra):
    # the direct-amplitude series of linear_small at xi 10 needs orders past
    # 2 MAX_ORDER; the window's last block, which holds its highest channel,
    # runs first and fails, so no other block runs
    from atispec import spectra
    from atispec.cli import main

    blocks = []
    rows = spectra._rows
    monkeypatch.setattr(spectra, "_rows", lambda *a: (blocks.append(a[2].size), rows(*a))[1])
    cfg = json.loads((REPO / "demos" / "configs" / "linear_small.json").read_text())
    cfg.update(intensity_xi=10.0, n_range="auto", output_path=str(tmp_path / "out"), **extra)
    path = tmp_path / "xi10.json"
    path.write_text(json.dumps(cfg))
    for command in ("spectrum", "rate"):
        blocks.clear()
        t0 = time.perf_counter()
        assert main([command, "-c", str(path)]) == 3
        assert time.perf_counter() - t0 < 1.0, command
        assert len(blocks) == 1, command
    err = capsys.readouterr().err.splitlines()
    assert err == ["resource cap: series requires ordinary-Bessel values beyond the supported "
                   "box |m|<=4000, |x|<=5000.0"] * 2
    assert not (tmp_path / "out").exists()


def _count_sweeps(monkeypatch):
    # the top of each Miller sweep that the run makes
    from atispec import specfun

    sweeps = []
    miller = specfun._miller
    monkeypatch.setattr(specfun, "_miller",
                        lambda x, top, out: (sweeps.append(top), miller(x, top, out))[1])
    return sweeps


def test_desk_linear_rate_pinned(tmp_path, monkeypatch):
    # the desk config under linear polarization (auto window, 24 theta
    # points, 8 azimuths): a series call of many chunks whose rows run more
    # than one round.  Its direct rate bit for bit, in fewer sweeps than the
    # 136 of one sweep per chunk and round
    from atispec.cli import main

    sweeps = _count_sweeps(monkeypatch)
    cfg = json.loads(DESK_CONFIG.read_text())
    cfg.update(polarization="linear", n_range="auto", theta_points=24, phi_points=8)
    path = tmp_path / "desk_linear.json"
    path.write_text(json.dumps(cfg))
    assert main(["rate", "-c", str(path), "-o", str(tmp_path / "out")]) == 0
    rate = json.loads((tmp_path / "out" / "rate.json").read_text())
    assert rate["methods"]["direct"]["w_total"] == 9.459635899040433e-07
    assert len(sweeps) < 136


# variant 0 of the benchmark's series slots: spectrum_scan's linear_55,
# elliptic_42 and linear_both (tags 55 and 59), and rate_linear's xi 0.45
SERIES_SLOTS = {
    "linear_55": ("spectrum", 1, {
        "photon_energy_ev": 5189.9721, "intensity_xi": 0.99362, "polarization": "linear",
        "z_a": 2, "n_range": [70, 72], "theta_points": 20, "phi_points": 4}),
    "elliptic_42": ("spectrum", 1, {
        "photon_energy_ev": 5132.2486, "intensity_xi": 1.01544, "polarization": "elliptic",
        "zeta": 0.4812, "z_a": 2, "n_range": [83, 85], "theta_points": 16, "phi_points": 4}),
    "linear_both": ("spectrum", 2, {
        "photon_energy_ev": 5197.4536, "intensity_xi": 1.016, "polarization": "linear",
        "z_a": 2, "n_range": [74, 76], "theta_points": 16, "phi_points": 4, "formula": "both"}),
    "rate_linear": ("rate", 1, {
        "photon_energy_ev": 25081.8751, "intensity_xi": 0.44946, "polarization": "linear",
        "z_a": 2, "n_range": [2, 8], "theta_points": 28, "phi_points": 2}),
}


@pytest.mark.parametrize("slot", SERIES_SLOTS)
def test_series_slots_sweep_once_per_series_call(slot, tmp_path, monkeypatch):
    # each series call of these ops fits one table, and the rows that its
    # first truncation leaves open finish on it: one sweep per formula
    from atispec.cli import main

    command, want, cfg = SERIES_SLOTS[slot]
    sweeps = _count_sweeps(monkeypatch)
    path = tmp_path / "slot.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "-c", str(path), "-o", str(tmp_path / "out")]) == 0
    assert len(sweeps) == want


def test_runtime_loads_no_scipy(tmp_path):
    # import atispec and every subcommand, desk config, with no scipy module
    desk, out = str(DESK_CONFIG), str(tmp_path)
    script = f"""
import sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import atispec
assert not scipy_modules(), scipy_modules()
from atispec.cli import main
for argv in (["rate", "-c", {desk!r}, "-o", {out!r} + "/rate"],
             ["spectrum", "-c", {desk!r}, "-o", {out!r} + "/spectrum"],
             ["sweep", "-c", {desk!r}, "-o", {out!r} + "/sweep", "--vary", "xi",
              "--values", "0.9,1.0"],
             ["selftest"]):
    assert main(argv) == 0, argv
print(scipy_modules())
"""
    cp = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip().splitlines()[-1] == "[]"


def test_import_skips_scipy_optimize():
    cp = subprocess.run([sys.executable, "-c",
                         "import sys, atispec; print('scipy.optimize' in sys.modules)"],
                        capture_output=True, text=True)
    assert cp.returncode == 0 and cp.stdout.strip() == "False"


def test_rate_regime_gating_keys(tmp_path):
    # strong-field config carries strongfield_closed and not tunneling_closed
    cfg = write_config(tmp_path, theta_points=32, n_range="auto")
    out = tmp_path / "rt"
    assert run_cli("rate", "-c", str(cfg), "-o", str(out)).returncode == 0
    data = json.loads((out / "rate.json").read_text())
    assert data["regime"] == "multiphoton_strongfield"
    assert {"direct", "airy_numeric", "strongfield_closed"} <= set(data["methods"])
    assert "tunneling_closed" not in data["methods"]

    # tunneling config: Z=6 hydrogenic, omega = 2e-6 m, xi = 0.4
    cfg2 = write_config(tmp_path, photon_energy_ev=1.0219979, intensity_xi=0.4,
                        z_a=6, theta_points=16, n_range="auto", channel_cap=500000)
    out2 = tmp_path / "rt2"
    cp = run_cli("rate", "-c", str(cfg2), "-o", str(out2), "--theta-points", "16")
    assert cp.returncode == 0, cp.stderr
    data2 = json.loads((out2 / "rate.json").read_text())
    assert data2["regime"] == "tunneling"
    assert "tunneling_closed" in data2["methods"]
    assert "strongfield_closed" not in data2["methods"]


def test_mode_off_notes_each_method_that_does_not_read_it(tmp_path, capsys):
    # under mode off, airy_numeric and the closed forms carry one warning
    # each, in rate.json and sweep.json, and no w_total moves; direct reads
    # mode and carries no such note
    from atispec.cli import main

    cfg = write_config(tmp_path, theta_points=16, n_range=[95, 100])
    data = {}
    for mode in ("on", "off"):
        out = tmp_path / mode
        assert main(["rate", "-c", str(cfg), "-o", str(out), "--mode", mode]) == 0
        assert main(["sweep", "-c", str(cfg), "-o", str(out), "--mode", mode,
                     "--vary", "xi", "--values", "1"]) == 0
        data[mode] = [json.loads((out / "rate.json").read_text())["methods"],
                      json.loads((out / "sweep.json").read_text())["rows"][0]["methods"]]
    assert capsys.readouterr().err == ""
    for on, off in zip(data["on"], data["off"]):
        assert set(on) == set(off) == {"direct", "airy_numeric", "strongfield_closed"}
        assert not any("mode" in w for w in off["direct"]["warnings"])
        assert off["direct"]["w_total"] < on["direct"]["w_total"]
        for name in ("airy_numeric", "strongfield_closed"):
            assert on[name]["warnings"] == []
            assert off[name]["warnings"] == ["mode 'off' has no effect on this method, "
                                             "which does not read it"]
            assert off[name]["w_total"] == on[name]["w_total"]


def test_formula_other_than_relativistic_notes_every_rate_method(tmp_path, capsys):
    # no rate method reads formula: under nonrelativistic or both every
    # method, direct included, carries one warning in rate.json and
    # sweep.json and keeps its relativistic values; an elliptic field,
    # which has no nonrelativistic form, gets the same note
    from atispec.cli import main

    cfg = write_config(tmp_path, theta_points=16, n_range=[95, 100])
    data = {}
    for formula in ("relativistic", "nonrelativistic", "both"):
        out = tmp_path / formula
        assert main(["rate", "-c", str(cfg), "-o", str(out), "--formula", formula]) == 0
        assert main(["sweep", "-c", str(cfg), "-o", str(out), "--formula", formula,
                     "--vary", "xi", "--values", "1"]) == 0
        data[formula] = [json.loads((out / "rate.json").read_text())["methods"],
                         json.loads((out / "sweep.json").read_text())["rows"][0]["methods"]]
    out = tmp_path / "elliptic"
    assert main(["rate", "-c", str(cfg), "-o", str(out), "--formula", "nonrelativistic",
                 "--polarization", "elliptic", "--zeta", "0.5"]) == 0
    elliptic = json.loads((out / "rate.json").read_text())["methods"]
    assert capsys.readouterr().err == ""
    note = "formula '{}' has no effect on this method: every rate uses the relativistic forms"
    assert elliptic["direct"]["warnings"][-1] == note.format("nonrelativistic")
    for formula in ("nonrelativistic", "both"):
        for rel, other in zip(data["relativistic"], data[formula]):
            assert set(rel) == set(other) == {"direct", "airy_numeric", "strongfield_closed"}
            for name, entry in rel.items():
                assert not any("formula" in w for w in entry["warnings"])
                assert other[name]["warnings"] == entry["warnings"] + [note.format(formula)]
                assert {**other[name], "warnings": []} == {**entry, "warnings": []}


def test_sweep_monotone_peak_channel(tmp_path):
    cfg = write_config(tmp_path, theta_points=16, n_range="auto")
    out = tmp_path / "sw"
    values = "0.4,0.6,0.9,1.3,2.0"
    cp = run_cli("sweep", "-c", str(cfg), "-o", str(out), "--vary", "xi", "--values", values)
    assert cp.returncode == 0, cp.stderr
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0].startswith("value,n0,n_m")
    n_ms = [float(r.split(",")[2]) for r in rows[1:]]
    assert all(a < b for a, b in zip(n_ms, n_ms[1:]))


def test_selftest_passes_quickly():
    import time
    t0 = time.time()
    cp = run_cli("selftest")
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert time.time() - t0 < 120.0
    assert "PASS" in cp.stdout


def test_selftest_json_report():
    cp = run_cli("selftest", "--json")
    assert cp.returncode == 0
    data = json.loads(cp.stdout)
    assert data["passed"] is True
    assert all({"name", "residual", "tolerance", "passed"} <= set(r) for r in data["records"])


def test_selftest_fault_injection_fails():
    cp = run_cli("selftest", "--inject-bessel-error", "1e-6")
    assert cp.returncode == 1
    assert "FAIL" in cp.stdout
    # the tag-55 kernel against its scalar quadrature reference and against
    # the complex general series trip too
    for name in ("linear_vs_quadrature_oracle", "reduction_linear"):
        assert any(line.startswith(name) and line.endswith("FAIL") for line in cp.stdout.splitlines())


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_selftest_rejects_a_non_finite_fault_before_any_check(value, capsys, monkeypatch):
    from atispec import cli

    ran = []
    monkeypatch.setattr(cli, "run_checks", lambda **kw: ran.append(kw) or [])
    # "-inf" alone would read as a flag
    assert cli.main(["selftest", f"--inject-bessel-error={value}"]) == 2
    out, err = capsys.readouterr()
    assert ran == [] and out == ""
    assert err.splitlines() == [
        f"config error: --inject-bessel-error must be a finite number, got {float(value)!r}"]


@pytest.mark.parametrize("argv, message", [
    (["selftest", "--inject-bessel-error", "-inf"],
     "config error: --inject-bessel-error must be a finite number, got -inf"),
    (["rate", "-c", str(DESK_CONFIG), "-o", "{out}", "--xi", "-inf"],
     "config error: field 'intensity_xi' must be a finite number, got -inf"),
])
def test_flag_value_starting_with_minus_exit_2_one_line(argv, message, tmp_path, capsys):
    # a value that starts with "-" but is not a plain number is the flag's
    # value, as with --flag=value, not a flag of its own
    from atispec.cli import main

    assert main([tok.format(out=tmp_path / "out") for tok in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [message]
    assert not (tmp_path / "out").exists()


# the 1e-6 case is test_selftest_fault_injection_fails
@pytest.mark.parametrize("value, code", [("-1", 1), ("0", 0)])
def test_selftest_finite_fault_exit_codes(value, code, capsys):
    from atispec.cli import main

    assert main(["selftest", f"--inject-bessel-error={value}"]) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[-1].startswith(f"selftest: {'PASS' if code == 0 else 'FAIL'}")


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_set_bessel_fault_rejects_non_finite(eps):
    from atispec import specfun

    with pytest.raises(ValueError):
        specfun.set_bessel_fault(eps)
    assert specfun._FAULT_EPS == 0.0


def test_unit_round_trip():
    from atispec.cli import RunConfig
    from atispec.constants import ELECTRON_MASS_EV
    cfg = RunConfig(photon_energy_ev=1550.0, intensity_xi=1.0)
    assert cfg.omega * ELECTRON_MASS_EV == pytest.approx(1550.0, rel=1e-12)


def test_peak_field_alternative_intensity():
    from atispec.cli import RunConfig
    from atispec.constants import ATOMIC_FIELD_V_PER_CM, E_CHARGE
    # one atomic unit of field expressed in V/cm reproduces xi = e * F / omega
    cfg = RunConfig(photon_energy_ev=5109.9895, peak_field_v_per_cm=ATOMIC_FIELD_V_PER_CM)
    assert cfg.xi == pytest.approx(E_CHARGE**6 / cfg.omega, rel=1e-12)
