import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

REPO = Path(__file__).resolve().parents[1]
DESK_CONFIG = REPO / "demos" / "configs" / "desk_circular.json"
GOLDEN = Path(__file__).parent / "data" / "golden_desk_circular_spectrum.csv"


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


def test_spectrum_matches_golden_file():
    cp = run_cli("spectrum", "-c", str(DESK_CONFIG), "-o", str(REPO / ".pytest_golden_check"))
    try:
        assert cp.returncode == 0, cp.stderr
        got = (REPO / ".pytest_golden_check" / "spectrum.csv").read_bytes()
        assert got == GOLDEN.read_bytes()
    finally:
        import shutil
        shutil.rmtree(REPO / ".pytest_golden_check", ignore_errors=True)


def test_spectrum_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("spectrum", "-c", str(cfg), "-o", str(out1)).returncode == 0
    assert run_cli("spectrum", "-c", str(cfg), "-o", str(out2)).returncode == 0
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_spectrum_worker_count_invariant(tmp_path):
    cfg = write_config(tmp_path, polarization="linear", theta_points=8,
                       phi_points=2, n_range=[30, 34])
    out1, out2 = tmp_path / "w1", tmp_path / "w4"
    assert run_cli("spectrum", "-c", str(cfg), "-o", str(out1), "--workers", "1").returncode == 0
    assert run_cli("spectrum", "-c", str(cfg), "-o", str(out2), "--workers", "4").returncode == 0
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()


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
@pytest.mark.parametrize("polarization, zeta, formula", [
    ("circular", None, "both"),          # tags 44 and 56
    ("linear", None, "both"),            # tags 55 and 59
    ("elliptic", 0.5, "relativistic"),   # tag 42
])
def test_spectrum_rows_match_one_point_wrappers(tmp_path, monkeypatch, polarization, zeta,
                                                 formula, mode):
    # a 5-row block makes the 8 x 3 grid span several kernel calls; the
    # window starts one channel below threshold, and theta runs from 0 to pi
    from atispec import cli
    from atispec.kinematics import threshold_n
    from atispec.spectra import dwdo_circular, dwdo_general, dwdo_linear, dwdo_nonrel

    monkeypatch.setattr(cli, "SPECTRUM_BLOCK", 5)
    extra = {} if zeta is None else {"zeta": zeta}
    rc = cli.RunConfig(photon_energy_ev=5109.9895, intensity_xi=1.0, polarization=polarization,
                       **extra)
    field, atom = rc.field(), rc.atom()
    n0 = threshold_n(field, atom)
    cfg = write_config(tmp_path, polarization=polarization, formula=formula, mode=mode,
                       theta_points=8, phi_points=3, n_range=[n0 - 1, n0 + 1], **extra)
    out = tmp_path / "rows"
    assert cli.main(["spectrum", "-c", str(cfg), "-o", str(out)]) == 0
    resc = mode == "on"
    one_point = {
        44: lambda n, th, ph: dwdo_circular(field, atom, n, th, resc),
        55: lambda n, th, ph: dwdo_linear(field, atom, n, th, ph, resc),
        42: lambda n, th, ph: dwdo_general(field, atom, n, th, ph, resc),
        56: lambda n, th, ph: dwdo_nonrel(field, atom, n, th, resc),
        59: lambda n, th, ph: dwdo_nonrel(field, atom, n, th, resc),
    }
    groups = {}
    for line in (out / "spectrum.csv").read_text().splitlines()[1:]:
        n, th, ph, *vals, tag = line.split(",")
        pt = one_point[int(tag)](int(n), float(th), float(ph))
        want = (pt.dwdo, pt.dwdo_kfr_only, pt.rescatter_factor)
        groups.setdefault((tag, n), []).append(([float(v) for v in vals], want))
    assert len(groups) == 3 * (2 if formula == "both" else 1)
    for (tag, _), rows in groups.items():
        got, want = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
        assert np.array_equal(np.isnan(got), np.isnan(want))
        if tag in ("44", "56"):
            assert np.array_equal(got, want, equal_nan=True)
        scale = np.nanmax(np.abs(want), axis=0, initial=0.0)
        assert np.all(np.abs(np.nan_to_num(got - want)) <= 1e-13 * scale)


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
    # the tag-55 kernel against its scalar quadrature reference trips too
    assert any(line.startswith("linear_vs_quadrature_oracle") and line.endswith("FAIL")
               for line in cp.stdout.splitlines())


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
