import argparse
import json
import math
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
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_UNIDENTIFIABLE,
    _worker_count,
    build_parser,
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
    assert "seed" not in manifest
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


@pytest.mark.parametrize(
    "args, n_fields",
    [(("--points", "64"), 1), (("--sweep", "300,500,3"), 3)],
)
def test_spectrum_bins_each_field_once(args, n_fields, tmp_path, monkeypatch):
    """S_e on the grid, S_e(omega_NV) and Gamma_1 share one binning per field.

    A binning sums runs once per copper isotope and once more to merge
    them, so it makes len(CU_ISOTOPES) + 1 `_sum_runs` calls.
    """
    import spinbath.spinmodel as spinmodel

    calls = []
    real = spinmodel._sum_runs

    def counting(*a):
        calls.append(1)
        return real(*a)

    monkeypatch.setattr(spinmodel, "_sum_runs", counting)
    code = run_cli("spectrum", "--config", CONFIG_PATH, "--out", tmp_path, *args)
    assert code == EXIT_OK
    assert len(calls) == n_fields * (len(spinmodel.CU_ISOTOPES) + 1)


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


def test_tau_ee_without_lines_is_convergence_error(tmp_path, capsys):
    """An eta floor that prunes every line leaves no rate: exit 4, one line."""
    tree = yaml.safe_load(CONFIG_PATH.read_text())
    tree["hyperfine"]["eta_floor"] = 1.0
    tree["bath"]["fields_gauss"] = [721.0]
    path = tmp_path / "nolines.yaml"
    path.write_text(yaml.safe_dump(tree))
    assert run_cli("tau-ee", "--config", path, "--out", tmp_path) == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err == "convergence error: fixed-point rate became non-positive at iteration 1\n"


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
        cfg.spin_spec(gauss_to_tesla(721.0)),
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


def test_tau_ee_reads_theta_e_from_hyperfine(tmp_path, shipped_config):
    """hyperfine.theta_e_deg is the one θ_e of tau-ee, as of every command."""
    tree = yaml.safe_load(CONFIG_PATH.read_text())
    tree["bath"]["fields_gauss"] = [721.0]
    path = tmp_path / "one-field.yaml"
    path.write_text(yaml.safe_dump(tree))
    assert run_cli("tau-ee", "--config", path, "--out", tmp_path) == EXIT_OK
    payload = json.loads((tmp_path / "tau_ee.json").read_text())
    assert payload["theta_e_deg"] == shipped_config.hyperfine.theta_e_deg


def test_molecular_axis_off_theta_e_is_one_line_config_error(tmp_path, capsys):
    """A molecular axis turned 1° away from the field no longer matches theta_e_deg."""
    tree = yaml.safe_load(CONFIG_PATH.read_text())
    lat = tree["lattice"]
    m, f = np.array(lat["molecular_axis"]), np.array(lat["field_direction"])
    m, f = m / np.linalg.norm(m), f / np.linalg.norm(f)
    away = (m - (m @ f) * f) / np.linalg.norm(m - (m @ f) * f)
    turn = np.radians(1.0)
    lat["molecular_axis"] = (np.cos(turn) * m + np.sin(turn) * away).tolist()
    path = tmp_path / "turned.yaml"
    path.write_text(yaml.safe_dump(tree))
    assert run_cli("tau-ee", "--config", path, "--out", tmp_path) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: lattice.molecular_axis:") and err.count("\n") == 1
    assert "lattice.field_direction" in err and "hyperfine.theta_e_deg" in err


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


def test_t1_table_quotes_an_id_with_a_comma(tmp_path):
    """A quoted input id "NV,1" stays one cell of t1_table.csv."""
    import csv

    data = tmp_path / "t1.csv"
    data.write_text(
        "nv_id,b_gauss,t1_cupc_us,t1_cupc_sigma_us,t1_free_us,t1_free_sigma_us\n"
        '"NV,1",231.0,1500,30,5000,100\n'
    )
    code = run_cli("t1", "--config", CONFIG_PATH, "--out", tmp_path, "--data", data)
    assert code == EXIT_OK
    with (tmp_path / "t1_table.csv").open(newline="") as fh:
        header, *rows = csv.reader(fh)
    assert [len(row) for row in rows] == [len(header)]
    assert rows[0][header.index("nv_id")] == "NV,1"


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


def test_fit_free_depth_alone_region_holds_truth(tmp_path):
    """`fit --free d_nv` on an exact 3-field table at 7 nm: the region holds 7 nm."""
    from spinbath.cli import _forward_model
    from spinbath.config import load_config

    tree = yaml.safe_load(CONFIG_PATH.read_text())
    tree["fit"]["theta_step_deg"] = 15.0
    config = tmp_path / "coarse.yaml"
    config.write_text(yaml.safe_dump(tree))
    cfg = load_config(config)
    model = _forward_model(cfg, (231.0, 372.0, 721.0))
    records = synth_records(
        model, cfg.film_geometry(), cfg.bath.tau_e_ns * 1e-9,
        math.radians(cfg.hyperfine.theta_e_deg), np.random.default_rng(0),
        noise=0.0, d_nv=7e-9,
    )
    data = tmp_path / "t1.csv"
    records_to_csv(records, data)
    out = tmp_path / "out"
    code = run_cli("fit", "--config", config, "--out", out, "--data", data, "--free", "d_nv")
    assert code == EXIT_OK
    payload = json.loads((out / "fit.json").read_text())
    ((lo, hi),) = payload["confidence"]["d_nv"]
    assert lo < 7e-9 < hi
    assert payload["minima"][0]["params"]["d_nv"] == pytest.approx(7e-9, rel=1e-6)
    # nothing is searched: the landscape is one row, the objective alone
    header, *rows = (out / "fit_landscape.csv").read_text().splitlines()
    assert header == "objective" and len(rows) == 1


#: A truth near the shipped nominal: the benchmark's seed-101 cold-fit truth.
_TAU_TRUTH, _THETA_TRUTH = 1.7425e-9, math.radians(42.13)


@pytest.fixture()
def shared_model(monkeypatch, forward_model_4f):
    """`fit` runs on the shared 4-field, 2° model and builds no θ-cache."""
    import spinbath.cli

    monkeypatch.setattr(spinbath.cli, "_forward_model", lambda *args: forward_model_4f)
    return forward_model_4f


def _fit_three_free(tmp_path, model, geometry, d_nv, fields):
    """`fit --free tau_e,theta_e,d_nv` on the model's exact table: the exit code."""
    records = synth_records(
        model, geometry, _TAU_TRUTH, _THETA_TRUTH, np.random.default_rng(0),
        noise=0.0, fields=fields, d_nv=d_nv,
    )
    data = tmp_path / "t1.csv"
    records_to_csv(records, data)
    return run_cli(
        "fit", "--config", CONFIG_PATH, "--out", tmp_path, "--data", data,
        "--free", "tau_e,theta_e,d_nv",
    )


def _holds(intervals, value) -> bool:
    return any(lo <= value <= hi for lo, hi in intervals)


def _assert_near_truth(params, d_nv):
    assert params["d_nv"] == pytest.approx(d_nv, abs=0.05e-9)
    assert params["tau_e"] == pytest.approx(_TAU_TRUTH, rel=0.01)
    assert math.degrees(abs(params["theta_e"] - _THETA_TRUTH)) < 0.5


@pytest.mark.parametrize("d_nv", [5e-9, 7e-9, 9.5e-9])
def test_fit_three_free_round_trip(d_nv, tmp_path, shared_model, geometry):
    """τ_e, θ_e and d_nv at once from an exact 4-field table: one minimum, the truth.

    The d_nv and θ_e regions hold the truth.  The τ_e region is two isolated
    points, a grid node and the best point, since one 64² τ_e step is wider
    than the accepted band; it is not asserted.
    """
    code = _fit_three_free(
        tmp_path, shared_model, geometry, d_nv, shared_model.fields_gauss
    )
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "fit.json").read_text())
    (minimum,) = payload["minima"]
    _assert_near_truth(minimum["params"], d_nv)
    conf = payload["confidence"]
    assert _holds(conf["d_nv"], d_nv) and _holds(conf["theta_e"], _THETA_TRUTH)


def test_fit_three_free_on_three_fields_is_ambiguous(tmp_path, shared_model, geometry):
    """Three fields for three free parameters (no degree of freedom) are allowed.

    On the exact table at 9.5 nm a second basin, at the τ_e box edge and a
    2.6 nm depth, falls within the keep band: `fit` reports both minima and
    exits 7.  The best is the truth, and every region holds it.
    """
    code = _fit_three_free(
        tmp_path, shared_model, geometry, 9.5e-9, (231.0, 372.0, 721.0)
    )
    assert code == EXIT_AMBIGUOUS
    payload = json.loads((tmp_path / "fit.json").read_text())
    best, second = (m["params"] for m in payload["minima"])
    _assert_near_truth(best, 9.5e-9)
    assert second["tau_e"] == pytest.approx(100e-9)
    conf = payload["confidence"]
    truth = {"tau_e": _TAU_TRUTH, "theta_e": _THETA_TRUTH, "d_nv": 9.5e-9}
    assert all(_holds(conf[name], value) for name, value in truth.items())


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
    "free", ["tau_e,bogus", "tau_e,theta_e,d_nv,h", "tau_e,tau_e", ",", "h"]
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


@pytest.mark.parametrize(
    "rows, free, message",
    [
        (
            ("NV1,231.0", "NV1,461.0"), "tau_e,theta_e,d_nv",
            "2 field(s) cannot constrain 3 free parameter(s)",
        ),
        # a second record at one field constrains nothing new
        (
            ("NV1,231.0", "NV1,231.0"), "tau_e,theta_e",
            "1 field(s) cannot constrain 2 free parameter(s)",
        ),
        # each NV has its own depth, so no one b₀² fits them both
        (
            ("NVb,231.0", "NVa,721.0", "NVb,721.0"), "d_nv",
            "the table holds 2 NVs (NVa, NVb), each at its own depth; "
            "fit one NV per table, or run `depth` for every NV",
        ),
    ],
    ids=["two-fields", "one-field", "two-nvs"],
)
def test_fit_unconstrained_table_fails_before_cache(
    rows, free, message, tmp_path, no_cache_build, capsys
):
    data = tmp_path / "t1.csv"
    data.write_text(
        "nv_id,b_gauss,t1_cupc_us,t1_cupc_sigma_us,t1_free_us,t1_free_sigma_us\n"
        + "".join(f"{row},1500,30,5000,100\n" for row in rows)
    )
    code = run_cli(
        "fit", "--config", CONFIG_PATH, "--out", tmp_path, "--data", data,
        "--free", free,
    )
    assert code == EXIT_UNIDENTIFIABLE
    assert capsys.readouterr().err == f"unidentifiable: {message}\n"


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


def test_decay_fit_short_trace_is_data_error(tmp_path, capsys):
    data = tmp_path / "decay.csv"
    lines = ["t_us,signal,sigma"]
    lines += [f"{t},{float(np.exp(-t / 2.0))!r},0.01" for t in range(1, 6)]
    data.write_text("\n".join(lines) + "\n")
    code = run_cli(
        "decay-fit", "--config", CONFIG_PATH, "--out", tmp_path, "--data", data
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"data error: {data}: a decay fit needs at least 6 samples, got 5\n"


def _write_decay(path, t_us, y, sigma):
    lines = ["t_us,signal,sigma"]
    lines += [f"{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in zip(t_us, y, sigma)]
    path.write_text("\n".join(lines) + "\n")


def _forty_point_trace():
    """(t_us, signal, sigma) of a 40-point trace: T1 1 ms, 1 % noise."""
    rng = np.random.default_rng(3)
    t_us = np.linspace(0.0, 4000.0, 40)
    y = 0.9 * np.exp(-t_us / 1000.0) + 0.05 + 0.01 * rng.standard_normal(40)
    return t_us, y, np.full(40, 0.01)


@pytest.mark.parametrize(
    "t_scale, y_scale, sigma_scale",
    [(1.0, 1e300, 1e290), (1e-300, 1.0, 1.0)],
    ids=["signal-1e300-sigma-1e290", "times-1e-300"],
)
def test_decay_fit_in_any_units(t_scale, y_scale, sigma_scale, tmp_path, capsys):
    """A trace in extreme units fits as in unit scales, with the results
    scaled back, and writes no warning to stderr.  Each parameter's sigma
    also scales with the noise-to-signal ratio."""
    t_us, y, sigma = _forty_point_trace()
    fits = []
    for name, scales in (("unit", (1.0, 1.0, 1.0)), ("scaled", (t_scale, y_scale, sigma_scale))):
        data = tmp_path / f"{name}.csv"
        _write_decay(data, t_us * scales[0], y * scales[1], sigma * scales[2])
        code = run_cli(
            "decay-fit", "--config", CONFIG_PATH, "--out", tmp_path / name, "--data", data
        )
        assert code == EXIT_OK
        fits.append(json.loads((tmp_path / name / "decay_fit.json").read_text()))
    assert capsys.readouterr().err == ""
    unit, scaled = fits
    factor = {"A": y_scale, "C": y_scale, "T1": t_scale, "iota": 1.0}
    factor["chi2_red"] = (y_scale / sigma_scale) ** 2
    for key, f in factor.items():
        assert scaled[key] == pytest.approx(unit[key] * f, rel=1e-9), key
        if key != "chi2_red":
            sigma_key = f"{key}_sigma"
            want = unit[sigma_key] * (sigma_scale / y_scale) * f
            assert scaled[sigma_key] == pytest.approx(want, rel=1e-9), sigma_key
            assert scaled[sigma_key] > 0


def test_decay_fit_overflowing_weights_is_data_error(tmp_path, capsys):
    """Uncertainties of 1e-300 against a signal span near 1 would overflow
    every weight: one stderr line and exit 3, before any fit."""
    t_us, y, sigma = _forty_point_trace()
    data = tmp_path / "decay.csv"
    _write_decay(data, t_us, y, np.full(40, 1e-300))
    code = run_cli(
        "decay-fit", "--config", CONFIG_PATH, "--out", tmp_path, "--data", data
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {data}: uncertainties down to 1e-300")
    assert err.count("\n") == 1


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
    ],
    ids=["field", "theta-e-deg", "tau-e-ns", "points", "omega", "sweep"],
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


#: The arguments of each command's SciPy probe, one list per run; TABLE
#: stands for a two-field measurement table and DECAY for a decay trace.
_PROBE_ARGS = {
    "spectrum": [["--points", "50"], ["--sweep", "200,800,3"]],
    "t1": [["--data", "TABLE"]],
    "fit": [["--data", "TABLE", "--grid", "8"]],
    "tau-ee": [[]],
    "depth": [["--data", "TABLE", "--grid", "8"]],
    "decay-fit": [["--data", "DECAY"]],
}


def _subcommands() -> list[str]:
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return sorted(sub.choices)


@pytest.mark.parametrize("command", _subcommands())
def test_command_loads_no_scipy(command, tmp_path, small_model, geometry):
    """No command loads a scipy* module.  Every subcommand of the parser is
    probed, so a new one fails here until it has its `_PROBE_ARGS`."""
    assert command in _PROBE_ARGS, f"no SciPy probe arguments for {command!r}"
    tree = yaml.safe_load(CONFIG_PATH.read_text())
    tree["fit"]["theta_step_deg"] = 45.0
    config = tmp_path / "coarse.yaml"
    config.write_text(yaml.safe_dump(tree))
    table = _two_field_table(tmp_path, small_model, geometry)
    decay = tmp_path / "decay.csv"
    _write_decay(decay, *_forty_point_trace())
    files = {"TABLE": table, "DECAY": decay}
    for k, args in enumerate(_PROBE_ARGS[command]):
        code, modules = _scipy_modules_after(
            command, *(files.get(a, a) for a in args),
            "--config", config, "--out", tmp_path / f"out{k}",
        )
        assert code in (EXIT_OK, EXIT_AMBIGUOUS), (command, args)
        assert modules == [], (command, args)


def test_seed_flag_is_gone(tmp_path, no_config_load):
    """No command draws a random number, so none takes a seed."""
    with pytest.raises(SystemExit) as exc:
        run_cli("spectrum", "--config", CONFIG_PATH, "--out", tmp_path, "--seed", "3")
    assert exc.value.code == EXIT_CONFIG


def test_initial_tau_flag_is_gone(tmp_path, no_config_load):
    """tau-ee starts its solve at the no-hyperfine bound; no flag picks the start."""
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "tau-ee", "--config", CONFIG_PATH, "--out", tmp_path, "--initial-tau-ns", "2"
        )
    assert exc.value.code == EXIT_CONFIG


def test_import_loads_no_numpy():
    """`_apply_thread_cap` pins BLAS only if numpy is not yet loaded when it runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    probe = "import sys, spinbath, spinbath.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_every_error_type_has_its_exit_code(tmp_path, monkeypatch, capsys):
    """Each SpinbathError subclass raised in a command exits with its code, one line."""
    import spinbath.cli as cli
    from spinbath import errors

    codes = {
        errors.ConfigError: EXIT_CONFIG,
        errors.DataFormatError: EXIT_DATA,
        errors.ConvergenceError: EXIT_NO_CONVERGENCE,
        errors.UnidentifiableError: EXIT_UNIDENTIFIABLE,
    }
    assert set(errors.SpinbathError.__subclasses__()) == set(codes)
    for kind, want in codes.items():

        def fail(run, kind=kind):
            raise kind("planted")

        monkeypatch.setitem(cli._COMMANDS, "spectrum", fail)
        code = run_cli("spectrum", "--config", CONFIG_PATH, "--out", tmp_path)
        assert code == want, kind
        err = capsys.readouterr().err
        assert err.endswith(": planted\n") and err.count("\n") == 1, (kind, err)


def test_eigensolver_failure_is_convergence_error(tmp_path, monkeypatch, capsys):
    def fail(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code = run_cli("spectrum", "--config", CONFIG_PATH, "--out", tmp_path, "--points", 5)
    assert code == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err == "convergence error: eigensolver failed: Eigenvalues did not converge\n"


def test_worker_count_parses_and_caps():
    assert _worker_count("", 3) == 3  # unset: one thread per usable CPU
    assert _worker_count(" 2 ", 4) == 2
    assert _worker_count("1000000", 2) == 2  # never more threads than CPUs
    for bad in ("abc", "0", "-1", "1.5", "2 threads", "²"):
        with pytest.raises(ValueError, match="SPINBATH_THREADS"):
            _worker_count(bad, 2)


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", "²"])
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


def test_depth_prints_empty_region_and_boundary_warning(tmp_path, capsys):
    """ΔΓ₁ near 0 and below it: no depth fits, and the minimum is on the box edge."""
    tree = yaml.safe_load(CONFIG_PATH.read_text())
    tree["fit"]["theta_step_deg"] = 45.0
    config = tmp_path / "coarse.yaml"
    config.write_text(yaml.safe_dump(tree))
    data = tmp_path / "t1.csv"
    data.write_text(
        "nv_id,b_gauss,t1_cupc_us,t1_cupc_sigma_us,t1_free_us,t1_free_sigma_us\n"
        "NV1,231.0,4990,100,5000,100\n"
        "NV1,721.0,5300,100,5000,100\n"
    )
    code = run_cli(
        "depth", "--config", config, "--out", tmp_path / "out", "--data", data,
        "--grid", "8",
    )
    assert code == EXIT_OK
    (row,) = json.loads((tmp_path / "out" / "depth.json").read_text())["per_nv"]
    assert row["boundary_minimum"] is True
    assert row["d_t1_interval_nm"] is None
    assert capsys.readouterr().out.splitlines() == [
        f"depth: NV1 d_T1 = {row['d_t1_nm']:.2f} nm [empty]",
        "depth: warning - NV1: minimum on search-box boundary",
    ]


#: ΔΓ₁ < 0 at both fields: the film shortens no T1.
_NO_FILM_TABLE = (
    "nv_id,b_gauss,t1_cupc_us,t1_cupc_sigma_us,t1_free_us,t1_free_sigma_us\n"
    "NV1,231.0,5200,100,5000,100\n"
    "NV1,721.0,5300,100,5000,100\n"
)


def test_fit_nonpositive_delta_gamma_fails_before_cache(tmp_path, no_cache_build, capsys):
    data = tmp_path / "t1.csv"
    data.write_text(_NO_FILM_TABLE)
    code = run_cli("fit", "--config", CONFIG_PATH, "--out", tmp_path, "--data", data)
    assert code == EXIT_UNIDENTIFIABLE
    err = capsys.readouterr().err
    assert err == "unidentifiable: ΔΓ₁ <= 0 at every record: the film shortens no T1\n"


def test_depth_marks_nonpositive_delta_gamma_nv_unidentifiable(tmp_path, capsys):
    """The only NV is unidentifiable, so depth writes its row and exits 5."""
    tree = yaml.safe_load(CONFIG_PATH.read_text())
    tree["fit"]["theta_step_deg"] = 45.0
    config = tmp_path / "coarse.yaml"
    config.write_text(yaml.safe_dump(tree))
    data = tmp_path / "t1.csv"
    data.write_text(_NO_FILM_TABLE)
    out = tmp_path / "out"
    code = run_cli("depth", "--config", config, "--out", out, "--data", data, "--grid", "8")
    assert code == EXIT_UNIDENTIFIABLE
    (row,) = json.loads((out / "depth.json").read_text())["per_nv"]
    assert row == {
        "nv_id": "NV1",
        "identifiable": False,
        "reason": "ΔΓ₁ <= 0 at every record: the film shortens no T1",
    }
    assert capsys.readouterr().err == (
        "unidentifiable: depth: no NV yielded an identifiable fit\n"
    )


def test_depth_reads_epsilon_scale(tmp_path, small_model, geometry):
    """fit.epsilon_scale widens the depth interval of `depth`, as of `fit`."""
    rng = np.random.default_rng(31)
    records = synth_records(small_model, geometry, 2e-9, 0.75, rng, noise=0.03)
    data = tmp_path / "t1.csv"
    records_to_csv(records, data)
    tree = yaml.safe_load(CONFIG_PATH.read_text())
    tree["fit"]["theta_step_deg"] = 15.0
    widths = []
    for scale in (1.0, 3.0):
        tree["fit"]["epsilon_scale"] = scale
        config = tmp_path / f"eps-{scale}.yaml"
        config.write_text(yaml.safe_dump(tree))
        out = tmp_path / f"out-{scale}"
        code = run_cli(
            "depth", "--config", config, "--out", out, "--data", data, "--grid", "24"
        )
        assert code == EXIT_OK
        (row,) = json.loads((out / "depth.json").read_text())["per_nv"]
        lo, hi = row["d_t1_interval_nm"]
        widths.append(hi - lo)
    assert widths[1] > widths[0]
