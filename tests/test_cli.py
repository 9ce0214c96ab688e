import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from conftest import CONFIG_PATH, REPO_ROOT
from helpers import records_to_csv, synth_records
from spinbath.cli import (
    EXIT_AMBIGUOUS,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_UNIDENTIFIABLE,
    _worker_count,
    main,
)


@pytest.fixture(autouse=True)
def pinned_clock(monkeypatch):
    """Freeze the manifest timestamp so byte comparisons are meaningful."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def test_spectrum_writes_results_and_manifest(tmp_path):
    code = run_cli(
        "spectrum", "--config", CONFIG_PATH, "--out", tmp_path, "--points", "64"
    )
    assert code == EXIT_OK
    assert (tmp_path / "spectrum.csv").exists()
    assert (tmp_path / "spectrum_summary.json").exists()
    manifest = json.loads((tmp_path / "spectrum_manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    assert manifest["seed"] == 0
    assert "spectrum.csv" in manifest["outputs"]
    assert len(manifest["config_hash"]) == 64


def test_spectrum_deterministic_bytes(tmp_path):
    for d in ("a", "b"):
        code = run_cli(
            "spectrum",
            "--config", CONFIG_PATH,
            "--out", tmp_path / d,
            "--points", "64",
        )
        assert code == EXIT_OK
    for name in ("spectrum.csv", "spectrum_summary.json", "spectrum_manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_spectrum_csv_values_reingest(tmp_path):
    from spinbath.io import write_csv

    code = run_cli(
        "spectrum", "--config", CONFIG_PATH, "--out", tmp_path, "--points", "32"
    )
    assert code == EXIT_OK
    path = tmp_path / "spectrum.csv"
    header_line, *rows = path.read_text().strip().split("\n")
    header = tuple(header_line.split(","))
    values = [tuple(float(x) for x in row.split(",")) for row in rows]
    rewritten = tmp_path / "rewritten.csv"
    write_csv(rewritten, header, values)
    assert rewritten.read_bytes() == path.read_bytes()


def test_missing_config_is_config_error(tmp_path):
    code = run_cli(
        "spectrum", "--config", tmp_path / "absent.yaml", "--out", tmp_path
    )
    assert code == EXIT_CONFIG


def test_invalid_config_value(tmp_path):
    tree = yaml.safe_load(CONFIG_PATH.read_text())
    tree["geometry"]["d_nv_nm"] = -1.0
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(tree))
    code = run_cli("spectrum", "--config", bad, "--out", tmp_path)
    assert code == EXIT_CONFIG


def test_tau_ee_requires_lattice_block(tmp_path):
    tree = yaml.safe_load(CONFIG_PATH.read_text())
    del tree["lattice"]
    trimmed = tmp_path / "nolattice.yaml"
    trimmed.write_text(yaml.safe_dump(tree))
    code = run_cli("tau-ee", "--config", trimmed, "--out", tmp_path)
    assert code == EXIT_CONFIG


def test_tau_ee_uses_config_gamma_e(tmp_path, shipped_config):
    """constants.gamma_e_ghz_per_t reaches both bounds of tau-ee."""
    from spinbath.constants import gauss_to_tesla
    from spinbath.eesolver import delta_approx_tau, no_hyperfine_tau
    from spinbath.spinmodel import isotope_family_spectrum

    tree = yaml.safe_load(CONFIG_PATH.read_text())
    tree["constants"]["gamma_e_ghz_per_t"] = 30.0
    tree["bath"]["fields_gauss"] = [721.0]
    path = tmp_path / "gamma.yaml"
    path.write_text(yaml.safe_dump(tree))
    assert run_cli("tau-ee", "--config", path, "--out", tmp_path) == EXIT_OK
    payload = json.loads((tmp_path / "tau_ee.json").read_text())

    cfg = shipped_config
    lattice = cfg.lattice_model()
    spectrum = isotope_family_spectrum(
        cfg.spin_spec(gauss_to_tesla(721.0), cfg.lattice_theta_e()),
        isotopes=cfg.isotopes(),
        eta_floor=cfg.hyperfine.eta_floor,
    )
    ratio = (cfg.constants.gamma_e_ghz_per_t / 30.0) ** 2
    assert payload["tau_no_hyperfine_ns"] == pytest.approx(
        ratio * no_hyperfine_tau(lattice) * 1e9, rel=1e-12
    )
    assert payload["per_field"][0]["tau_delta_ns"] == pytest.approx(
        ratio * delta_approx_tau(lattice, spectrum) * 1e9, rel=1e-12
    )


def test_t1_malformed_csv_is_data_error(tmp_path):
    data = tmp_path / "t1.csv"
    data.write_text("nv_id,b_gauss\nNV1,231\n")
    code = run_cli(
        "t1", "--config", CONFIG_PATH, "--out", tmp_path, "--data", data
    )
    assert code == EXIT_DATA


def test_t1_empty_csv_is_ok(tmp_path):
    data = tmp_path / "t1.csv"
    data.write_text("")
    code = run_cli(
        "t1", "--config", CONFIG_PATH, "--out", tmp_path, "--data", data
    )
    assert code == EXIT_OK
    table = (tmp_path / "t1_table.csv").read_text()
    assert table.count("\n") == 1  # header only


def test_t1_table_contents(tmp_path, small_model, geometry):
    rng = np.random.default_rng(21)
    records = synth_records(small_model, geometry, 2e-9, 0.75, rng, noise=0.02)
    data = tmp_path / "t1.csv"
    records_to_csv(records, data)
    code = run_cli(
        "t1", "--config", CONFIG_PATH, "--out", tmp_path, "--data", data
    )
    assert code == EXIT_OK
    header, *rows = (tmp_path / "t1_table.csv").read_text().strip().split("\n")
    assert "delta_gamma_per_s" in header
    assert len(rows) == len(records)
    manifest = json.loads((tmp_path / "t1_manifest.json").read_text())
    assert str(data) in manifest["input_hashes"]


def test_fit_single_point_unidentifiable(tmp_path, small_model, geometry):
    rng = np.random.default_rng(2)
    records = synth_records(
        small_model, geometry, 2e-9, 0.75, rng, fields=(231.0,)
    )
    data = tmp_path / "t1.csv"
    records_to_csv(records, data)
    code = run_cli(
        "fit",
        "--config", CONFIG_PATH,
        "--out", tmp_path,
        "--data", data,
        "--free", "tau_e,theta_e",
        "--grid", "16",
    )
    assert code == EXIT_UNIDENTIFIABLE


@pytest.fixture()
def no_cache_build(monkeypatch):
    """Fail the test if the command gets as far as building the θ-cache."""
    import spinbath.estimator

    def refuse(*args, **kwargs):
        raise AssertionError("θ-cache build started before input validation")

    monkeypatch.setattr(spinbath.estimator, "ForwardModel", refuse)


def _two_field_table(tmp_path, small_model, geometry):
    rng = np.random.default_rng(4)
    records = synth_records(small_model, geometry, 2e-9, 0.75, rng)
    data = tmp_path / "t1.csv"
    records_to_csv(records, data)
    return data


@pytest.mark.parametrize(
    "free", ["tau_e,bogus", "tau_e,theta_e,d_nv", "tau_e,tau_e", ",", "h"]
)
def test_fit_bad_free_is_config_error(
    free, tmp_path, small_model, geometry, no_cache_build, capsys
):
    data = _two_field_table(tmp_path, small_model, geometry)
    code = run_cli(
        "fit", "--config", CONFIG_PATH, "--out", tmp_path, "--data", data,
        "--free", free,
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: --free:") and err.count("\n") == 1


def test_fit_too_few_records_fails_before_cache(
    tmp_path, small_model, geometry, no_cache_build
):
    rng = np.random.default_rng(2)
    records = synth_records(small_model, geometry, 2e-9, 0.75, rng, fields=(231.0,))
    data = tmp_path / "t1.csv"
    records_to_csv(records, data)
    code = run_cli(
        "fit", "--config", CONFIG_PATH, "--out", tmp_path, "--data", data,
        "--free", "tau_e,theta_e",
    )
    assert code == EXIT_UNIDENTIFIABLE
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = run_cli("fit", "--config", CONFIG_PATH, "--out", tmp_path, "--data", empty)
    assert code == EXIT_UNIDENTIFIABLE


@pytest.mark.parametrize("bin_mhz", [0.0, -1.0, float("nan")])
def test_fit_nonpositive_bin_is_config_error(
    bin_mhz, tmp_path, small_model, geometry, no_cache_build
):
    tree = yaml.safe_load(CONFIG_PATH.read_text())
    tree["fit"]["bin_mhz"] = bin_mhz
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(tree))
    data = _two_field_table(tmp_path, small_model, geometry)
    code = run_cli("fit", "--config", bad, "--out", tmp_path, "--data", data)
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("grid", ["0", "-3", "3"])
@pytest.mark.parametrize("command", ["fit", "depth"])
def test_bad_grid_is_config_error(
    command, grid, tmp_path, small_model, geometry, no_cache_build, capsys
):
    data = _two_field_table(tmp_path, small_model, geometry)
    code = run_cli(
        command, "--config", CONFIG_PATH, "--out", tmp_path, "--data", data,
        "--grid", grid,
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: --grid:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "key, box", [("tau_e_box_ns", [0.0, 100.0]), ("d_nv_box_nm", [-1.0, 50.0])]
)
def test_fit_nonpositive_box_edge_is_config_error(
    key, box, tmp_path, small_model, geometry, no_cache_build, capsys
):
    tree = yaml.safe_load(CONFIG_PATH.read_text())
    tree["fit"][key] = box
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(tree))
    data = _two_field_table(tmp_path, small_model, geometry)
    code = run_cli("fit", "--config", bad, "--out", tmp_path, "--data", data)
    assert code == EXIT_CONFIG
    assert f"fit.{key}: lower edge must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, block, key, value, where",
    [
        ("spectrum", "bath", "tau_e_ns", float("nan"), "bath.tau_e_ns"),
        (
            "spectrum", "hyperfine", "cu_tensor_mhz", [-83.0, -83.0, None],
            "hyperfine.cu_tensor_mhz",
        ),
        ("spectrum", "fit", "grid_point", 8, "fit.grid_point"),
        ("tau-ee", "lattice", "cutoff_angstrom", 7.0, "lattice"),
        ("tau-ee", "lattice", "beta_deg", 3.5, "lattice"),
        ("tau-ee", "lattice", "molecular_axis", [0, 0, 0], "lattice.molecular_axis"),
        ("spectrum", "geometry", "n_e_per_nm3", 0, "geometry.n_e_per_nm3"),
        (
            "spectrum", "geometry", "d_nv_interval_nm", [0.0, 8.0],
            "geometry.d_nv_interval_nm",
        ),
        ("spectrum", "geometry", "h_interval_nm", [-1.0, 22.0], "geometry.h_interval_nm"),
        (
            "spectrum", "geometry", "n_e_interval_per_nm3", [0.0, 1.889],
            "geometry.n_e_interval_per_nm3",
        ),
        ("spectrum", "hyperfine", "n_nitrogens", 5, "hyperfine.n_nitrogens"),
        # text edits of the shipped file (block None: `key` becomes `value`);
        # the message follows the file's path
        pytest.param(
            "spectrum", None, "  tau_e_ns: 2.0\n", "  tau_e_ns: 2.0\n  tau_e_ns: 50.0\n",
            "duplicate key 'tau_e_ns' at line 43", id="duplicate-key",
        ),
        pytest.param(
            "spectrum", None, "{label: 63Cu, abundance: 0.6915,",
            "{label: 63Cu, abundance: 0.6915, abundance: 1.0,",
            "duplicate key 'abundance' at line 17", id="duplicate-flow-key",
        ),
        pytest.param(
            "spectrum", None, "  branch: minus\n", "  branch: [minus\n",
            "invalid YAML at line 41, column 5: did not find expected ',' or ']'",
            id="invalid-yaml",
        ),
    ],
)
def test_bad_config_key_is_one_line_config_error(
    command, block, key, value, where, tmp_path, capsys
):
    bad = tmp_path / "bad.yaml"
    if block is None:
        text = CONFIG_PATH.read_text()
        assert text.count(key) == 1
        bad.write_text(text.replace(key, value))
        where = f"{bad}: {where}"
    else:
        tree = yaml.safe_load(CONFIG_PATH.read_text())
        tree[block][key] = value
        bad.write_text(yaml.safe_dump(tree))
    code = run_cli(command, "--config", bad, "--out", tmp_path / "out")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where}") and err.count("\n") == 1


def test_decay_fit_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    t_us = np.geomspace(10.0, 3e4, 36)
    truth = dict(a=0.9, t1_us=3000.0, iota=1.0, c=0.05)
    y = truth["a"] * np.exp(-(t_us / truth["t1_us"]) ** truth["iota"]) + truth["c"]
    y += 0.01 * rng.standard_normal(y.size)
    data = tmp_path / "decay.csv"
    lines = ["t_us,signal,sigma"]
    lines += [f"{float(t)!r},{float(v)!r},0.01" for t, v in zip(t_us, y)]
    data.write_text("\n".join(lines) + "\n")
    code = run_cli(
        "decay-fit", "--config", CONFIG_PATH, "--out", tmp_path, "--data", data
    )
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "decay_fit.json").read_text())
    assert payload["T1"] == pytest.approx(3e-3, rel=0.15)
    assert payload["iota"] == pytest.approx(1.0, abs=0.15)
    assert payload["T1_us"] == pytest.approx(payload["T1"] * 1e6)


def test_decay_fit_flat_curve_unidentifiable(tmp_path):
    data = tmp_path / "decay.csv"
    lines = ["t_us,signal,sigma"]
    lines += [f"{t},0.5,0.01" for t in range(1, 31)]
    data.write_text("\n".join(lines) + "\n")
    code = run_cli(
        "decay-fit", "--config", CONFIG_PATH, "--out", tmp_path, "--data", data
    )
    assert code == EXIT_UNIDENTIFIABLE


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_decay_fit_non_finite_signal_is_data_error(bad, tmp_path, capsys):
    data = tmp_path / "decay.csv"
    lines = ["t_us,signal,sigma"]
    lines += [f"{t},{float(np.exp(-t / 10.0))!r},0.01" for t in range(1, 31)]
    lines[5] = f"5,{bad},0.01"
    data.write_text("\n".join(lines) + "\n")
    code = run_cli(
        "decay-fit", "--config", CONFIG_PATH, "--out", tmp_path, "--data", data
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"data error: {data}:6: signal must be finite, got {bad}\n"


@pytest.fixture()
def no_config_load(monkeypatch):
    """Fail the test if the command gets as far as reading its config."""
    import spinbath.config

    def refuse(*args, **kwargs):
        raise AssertionError("config loaded before the flags were checked")

    monkeypatch.setattr(spinbath.config, "load_config", refuse)


@pytest.mark.parametrize(
    "command, flag, bad_values",
    [
        ("spectrum", "--field", [["-5"], ["nan"], ["inf"]]),
        ("spectrum", "--theta-e-deg", [["nan"], ["-1"], ["90.5"]]),
        ("spectrum", "--tau-e-ns", [["0"], ["-1"], ["inf"], ["nan"]]),
        ("spectrum", "--points", [["-3"], ["0"], ["2.5"]]),
        (
            "spectrum", "--omega",
            [
                ["--omega-min-ghz", "-1"],
                ["--omega-max-ghz", "inf"],
                ["--omega-min-ghz", "3", "--omega-max-ghz", "2"],
                ["--omega-min-ghz", "2", "--omega-max-ghz", "2"],
            ],
        ),
        ("spectrum", "--sweep", [["nan,800,3"], ["200,nan,3"], ["200,inf,3"]]),
        ("tau-ee", "--initial-tau-ns", [["0"], ["-1"], ["nan"]]),
    ],
    ids=["field", "theta-e-deg", "tau-e-ns", "points", "omega", "sweep", "initial-tau-ns"],
)
def test_bad_cli_number_exits_2_with_one_line(
    command, flag, bad_values, tmp_path, no_config_load, capsys
):
    for bad in bad_values:
        argv = bad if bad[0].startswith("--") else [f"{flag}={bad[0]}"]
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--config", CONFIG_PATH, "--out", tmp_path, *argv)
        assert exc.value.code == EXIT_CONFIG, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err, (argv, err)


_IMPORT_PROBE = """
import json, sys
from spinbath.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


def _scipy_modules_after(*argv) -> tuple[int, list[str]]:
    """Exit code and loaded scipy* modules of one command in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.strip().splitlines()[-1])
    return code, modules


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--points", "50"],
        ["spectrum", "--sweep", "200,800,3"],
        ["t1", "--data", "TABLE"],
        ["tau-ee"],
    ],
    ids=["spectrum", "spectrum-sweep", "t1", "tau-ee"],
)
def test_prediction_commands_load_no_scipy(argv, tmp_path, small_model, geometry):
    data = _two_field_table(tmp_path, small_model, geometry)
    argv = [str(data) if a == "TABLE" else a for a in argv]
    code, modules = _scipy_modules_after(
        *argv, "--config", CONFIG_PATH, "--out", tmp_path / "out"
    )
    assert code == EXIT_OK
    assert modules == []


def test_fit_loads_no_scipy_ndimage(tmp_path, small_model, geometry):
    tree = yaml.safe_load(CONFIG_PATH.read_text())
    tree["fit"]["theta_step_deg"] = 45.0
    config = tmp_path / "coarse.yaml"
    config.write_text(yaml.safe_dump(tree))
    data = _two_field_table(tmp_path, small_model, geometry)
    code, modules = _scipy_modules_after(
        "fit", "--config", config, "--out", tmp_path / "out", "--data", data,
        "--grid", "8",
    )
    assert code in (EXIT_OK, EXIT_AMBIGUOUS)
    assert "scipy.optimize" in modules
    assert not [m for m in modules if m.startswith("scipy.ndimage")]


def test_worker_count_parses_and_caps():
    assert _worker_count("", 3) == 3  # unset: one thread per usable CPU
    assert _worker_count(" 2 ", 4) == 2
    assert _worker_count("1000000", 2) == 2  # never more threads than CPUs
    for bad in ("abc", "0", "-1", "1.5", "2 threads"):
        with pytest.raises(ValueError, match="SPINBATH_THREADS"):
            _worker_count(bad, 2)


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_spinbath_threads_exits_2_with_one_line(value, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPINBATH_THREADS", value)
    code = run_cli("spectrum", "--config", CONFIG_PATH, "--out", tmp_path, "--points", 5)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: SPINBATH_THREADS") and err.count("\n") == 1


def test_fit_bytes_same_on_one_and_two_threads(tmp_path, small_model, geometry):
    """The θ-cache threads of a CLI fit leave every output byte unchanged."""
    tree = yaml.safe_load(CONFIG_PATH.read_text())
    tree["fit"]["theta_step_deg"] = 45.0
    config = tmp_path / "coarse.yaml"
    config.write_text(yaml.safe_dump(tree))
    data = _two_field_table(tmp_path, small_model, geometry)
    env = dict(os.environ)  # SOURCE_DATE_EPOCH is pinned
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out-{threads}"
        proc = subprocess.run(
            [
                sys.executable, "-m", "spinbath.cli", "fit", "--config", str(config),
                "--data", str(data), "--out", str(out), "--grid", "8",
            ],
            capture_output=True, text=True, env={**env, "SPINBATH_THREADS": threads},
            timeout=300,
        )
        assert proc.returncode in (EXIT_OK, EXIT_AMBIGUOUS), proc.stderr
        outputs.append(
            [(out / name).read_bytes() for name in ("fit.json", "fit_landscape.csv")]
        )
    assert outputs[0] == outputs[1]
