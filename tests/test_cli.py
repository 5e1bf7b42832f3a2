import json
import subprocess
import sys
from pathlib import Path

import pytest

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
])
def test_config_value_error_exit_2_one_line(tmp_path, capsys, key, value):
    from atispec.cli import main

    cfg = write_config(tmp_path, **{key: value})
    assert main(["spectrum", "-c", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert key in err
    assert not (tmp_path / "out").exists()


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
