import dataclasses
import math

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings, strategies as st

from conftest import CONFIG_PATH
from spinbath.config import config_tree, dump_config, load_config, parse_config
from spinbath.errors import ConfigError, DataFormatError
from spinbath.io import (
    load_decay_curve,
    load_measurements,
    load_reference_depths,
    sha256_of,
    write_csv,
    write_json,
)


def shipped_tree():
    return yaml.safe_load(CONFIG_PATH.read_text())


class TestConfigRoundTrip:
    def test_load_dump_load_identity(self, shipped_config):
        text = dump_config(shipped_config)
        again = parse_config(yaml.safe_load(text))
        assert again == shipped_config
        assert dump_config(again) == text

    def test_tree_matches_shipped_values(self, shipped_config):
        tree = config_tree(shipped_config)
        assert tree["geometry"]["d_nv_nm"] == pytest.approx(7.0)
        assert tree["bath"]["fields_gauss"] == [231.0, 372.0, 461.0, 721.0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    def test_loader_reads_the_safe_load_tree(self):
        """The libyaml loader with its duplicate-key check changes no tree."""
        from spinbath.config import _Loader

        text = CONFIG_PATH.read_text()
        assert yaml.load(text, Loader=_Loader) == yaml.safe_load(text)
        merged = "base: &b {x: 1, y: 2}\nuse:\n  <<: *b\n  y: 3\n"
        assert yaml.load(merged, Loader=_Loader) == yaml.safe_load(merged)

    def test_non_utf8_file_is_one_line_config_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(CONFIG_PATH.read_bytes().replace(b"minus", b"min\xffus"))
        with pytest.raises(ConfigError, match="invalid YAML") as exc:
            load_config(bad)
        assert "\n" not in str(exc.value)


class TestDefaultsMatchLibrary:
    """A key left out of the config means the library's built-in constant.

    Both are written down, in bench units here and in SI units there, so
    they are compared to 1e-15 relative (D_zfs and the box edges differ by
    an ulp).  The warm-estimate benchmark builds its `ForwardModel` with
    the library defaults, not `spectrum_args()`, and relies on this.
    """

    @pytest.fixture(scope="class")
    def defaults(self, shipped_config):
        from spinbath.config import ToolkitConfig

        # geometry is the one block without defaults
        return ToolkitConfig(geometry=shipped_config.geometry)

    @staticmethod
    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    def test_spin_system(self, defaults):
        from spinbath.spinmodel import (
            CU_ISOTOPES,
            CU_TENSOR,
            DEFAULT_ETA_FLOOR,
            N_TENSOR,
            SpinSystemSpec,
        )

        spec = defaults.spin_spec(0.0)
        for got, want in ((spec.cu_tensor, CU_TENSOR), (spec.n_tensor, N_TENSOR)):
            self.close([got.axx, got.ayy, got.azz], [want.axx, want.ayy, want.azz])
        spec_defaults = {f.name: f.default for f in dataclasses.fields(SpinSystemSpec)}
        assert spec.n_nitrogens == spec_defaults["n_nitrogens"]
        isotopes = defaults.isotopes()
        assert [i.label for i in isotopes] == [i.label for i in CU_ISOTOPES]
        for got, want in zip(isotopes, CU_ISOTOPES, strict=True):
            self.close([got.abundance, got.scale], [want.abundance, want.scale])
        self.close(defaults.spectrum_args()["eta_floor"], DEFAULT_ETA_FLOOR)

    def test_nv(self, defaults):
        from spinbath.relaxometry import NvConfig

        got, want = defaults.nv_config(), NvConfig()
        self.close([got.d_zfs, got.gamma_e], [want.d_zfs, want.gamma_e])
        assert got.branch == want.branch

    def test_fit(self, defaults):
        from spinbath.estimator import DEFAULT_BOXES, DEFAULT_GRID, DEFAULT_THETA_STEP
        from spinbath.spinmodel import DEFAULT_BIN

        boxes = defaults.fit_boxes()
        assert boxes.keys() == DEFAULT_BOXES.keys()
        for name, box in DEFAULT_BOXES.items():
            self.close(boxes[name], box)
        assert defaults.fit.grid_points == DEFAULT_GRID
        self.close(math.radians(defaults.fit.theta_step_deg), DEFAULT_THETA_STEP)
        self.close(2.0 * math.pi * defaults.fit.bin_mhz * 1e6, DEFAULT_BIN)


class TestConfigValidation:
    def test_unknown_block_rejected(self):
        tree = shipped_tree()
        tree["detector"] = {"x": 1}
        with pytest.raises(ConfigError, match="detector"):
            parse_config(tree)

    def test_missing_geometry_block(self):
        tree = shipped_tree()
        del tree["geometry"]
        with pytest.raises(ConfigError, match="geometry"):
            parse_config(tree)

    def test_error_names_offending_path(self):
        tree = shipped_tree()
        tree["geometry"]["d_nv_nm"] = -3.0
        with pytest.raises(ConfigError, match=r"geometry\.d_nv_nm"):
            parse_config(tree)

    def test_non_numeric_value(self):
        tree = shipped_tree()
        tree["bath"]["tau_e_ns"] = "soon"
        with pytest.raises(ConfigError, match=r"bath\.tau_e_ns"):
            parse_config(tree)

    def test_nominal_outside_interval(self):
        tree = shipped_tree()
        tree["geometry"]["d_nv_nm"] = 7.0
        tree["geometry"]["d_nv_interval_nm"] = [10.0, 20.0]
        with pytest.raises(ConfigError, match=r"geometry\.d_nv"):
            parse_config(tree)

    def test_abundances_must_sum_to_one(self):
        tree = shipped_tree()
        tree["hyperfine"]["isotopes"][0]["abundance"] = 0.9
        with pytest.raises(ConfigError, match="abundance"):
            parse_config(tree)

    def test_bad_field_direction_vector(self):
        tree = shipped_tree()
        tree["lattice"]["field_direction"] = [1.0, 0.0]
        with pytest.raises(ConfigError, match=r"lattice\.field_direction"):
            parse_config(tree)

    @staticmethod
    def turned_axis(tree, turn_deg):
        """lattice.molecular_axis turned away from the field by `turn_deg`."""
        lat = tree["lattice"]
        m, f = np.array(lat["molecular_axis"]), np.array(lat["field_direction"])
        m, f = m / np.linalg.norm(m), f / np.linalg.norm(f)
        away = m - (m @ f) * f
        away /= np.linalg.norm(away)
        turn = np.radians(turn_deg)
        return (np.cos(turn) * m + np.sin(turn) * away).tolist()

    def test_theta_from_lattice_vectors(self):
        """molecular_axis must lie theta_e_deg from field_direction, within 0.1 deg."""
        tree = shipped_tree()
        near, far = self.turned_axis(tree, 0.05), self.turned_axis(tree, 1.0)
        tree["lattice"]["molecular_axis"] = near
        parse_config(tree)
        tree["lattice"]["molecular_axis"] = far
        with pytest.raises(ConfigError) as exc:
            parse_config(tree)
        message = str(exc.value)
        assert message.startswith("lattice.molecular_axis:")
        assert "lattice.field_direction" in message
        assert "hyperfine.theta_e_deg" in message


def _key_paths(node, prefix=()):
    """Paths to every mapping key and list entry of a YAML tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


def _all_finite(node) -> bool:
    if isinstance(node, dict):
        return all(_all_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_all_finite(v) for v in node)
    return not isinstance(node, float) or math.isfinite(node)


#: Replacement values of the fuzz test, by name.
BAD_VALUES = {
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "null": None,
    "string": "soon",
    "bool": True,
    "short list": [1.0],
    "long list": [1.0, 2.0, 3.0, 4.0],
    "mapping": {"x": 1.0},
}


class TestConfigFuzz:
    @settings(max_examples=400, deadline=None)
    @given(
        path=st.sampled_from(tuple(_key_paths(shipped_tree()))),
        edit=st.sampled_from((*BAD_VALUES, "delete", "misspell")),
    )
    def test_single_key_mutation_loads_finite_or_raises_config_error(
        self, path, edit
    ):
        """One damaged key either loads a finite config or is a ConfigError."""
        tree = shipped_tree()
        *parents, key = path
        node = tree
        for k in parents:
            node = node[k]
        if edit == "delete":
            del node[key]
        elif edit == "misspell":
            assume(isinstance(key, str))
            node[key + "_"] = node.pop(key)
        else:
            node[key] = BAD_VALUES[edit]
        try:
            cfg = parse_config(tree)
        except ConfigError:
            return
        assert edit != "misspell", "a misspelt key was ignored"
        assert _all_finite(config_tree(cfg))
        # the factories take whatever parsing accepted
        for b_gauss in cfg.bath.fields_gauss:
            cfg.spin_spec(b_gauss * 1e-4)
        cfg.isotopes(), cfg.film_geometry(), cfg.nv_config()
        cfg.fit_boxes(), cfg.nuisance_intervals()
        try:
            cfg.lattice_model()
        except ConfigError:
            pass


class TestMeasurementIO:
    HEADER = (
        "nv_id,b_gauss,t1_cupc_us,t1_cupc_sigma_us,t1_free_us,t1_free_sigma_us"
    )

    def write(self, tmp_path, rows):
        p = tmp_path / "t1.csv"
        p.write_text("\n".join([self.HEADER, *rows]) + "\n")
        return p

    def test_load_converts_units(self, tmp_path):
        p = self.write(tmp_path, ["NV1,231,1500,30,5000,100"])
        (rec,) = load_measurements(p)
        assert rec.t1_cupc == pytest.approx(1.5e-3)
        assert rec.t1_free_sigma == pytest.approx(1e-4)
        assert rec.b_gauss == 231.0

    def test_empty_file_gives_empty_tuple(self, tmp_path):
        p = tmp_path / "t1.csv"
        p.write_text("")
        assert load_measurements(p) == ()

    def test_header_only_gives_empty_tuple(self, tmp_path):
        p = self.write(tmp_path, [])
        assert load_measurements(p) == ()

    def test_missing_column(self, tmp_path):
        p = tmp_path / "t1.csv"
        p.write_text("nv_id,b_gauss\nNV1,231\n")
        with pytest.raises(DataFormatError, match="t1_cupc_us"):
            load_measurements(p)

    def test_error_is_row_addressed(self, tmp_path):
        p = self.write(tmp_path, ["NV1,231,1500,30,5000,100", "NV2,372,-4,30,5000,100"])
        with pytest.raises(DataFormatError, match=r"t1\.csv:3"):
            load_measurements(p)

    def test_non_numeric_row_addressed(self, tmp_path):
        p = self.write(tmp_path, ["NV1,231,fast,30,5000,100"])
        with pytest.raises(DataFormatError, match=r"t1\.csv:2"):
            load_measurements(p)

    def test_non_utf8_table_is_data_error(self, tmp_path):
        p = tmp_path / "t1.csv"
        p.write_bytes((self.HEADER + "\nNV\xe9,231,1500,30,5000,100\n").encode("latin-1"))
        with pytest.raises(DataFormatError, match=r"t1\.csv: cannot read"):
            load_measurements(p)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        """A spreadsheet's "CSV UTF-8" starts with a BOM before the first column."""
        p = tmp_path / "t1.csv"
        p.write_text("\ufeff" + self.HEADER + "\nNV1,231,1500,30,5000,100\n")
        (rec,) = load_measurements(p)
        assert rec.nv_id == "NV1"


class TestDecayIO:
    def test_load(self, tmp_path):
        p = tmp_path / "decay.csv"
        p.write_text("t_us,signal,sigma\n0,1.0,0.01\n100,0.7,0.01\n500,0.3,0.01\n")
        curve = load_decay_curve(p)
        assert len(curve) == 3
        assert curve.t[1] == pytest.approx(1e-4)

    def test_non_monotone_times(self, tmp_path):
        p = tmp_path / "decay.csv"
        p.write_text("t_us,signal,sigma\n0,1.0,0.01\n500,0.7,0.01\n100,0.3,0.01\n")
        with pytest.raises(DataFormatError, match=r"decay\.csv:4"):
            load_decay_curve(p)

    def test_empty_decay_rejected(self, tmp_path):
        p = tmp_path / "decay.csv"
        p.write_text("t_us,signal,sigma\n")
        with pytest.raises(DataFormatError):
            load_decay_curve(p)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        p = tmp_path / "decay.csv"
        p.write_text("\ufefft_us,signal,sigma\n0,1.0,0.01\n100,0.7,0.01\n")
        assert load_decay_curve(p).t[1] == pytest.approx(1e-4)


class TestReferenceDepths:
    def test_load_converts_to_meters(self, tmp_path):
        p = tmp_path / "depths.csv"
        p.write_text("nv_id,d_ref_nm\nNV1,7.2\nNV2,11.0\n")
        depths = load_reference_depths(p)
        assert set(depths) == {"NV1", "NV2"}
        assert depths["NV1"] == pytest.approx(7.2e-9)
        assert depths["NV2"] == pytest.approx(11.0e-9)

    def test_duplicate_nv_id(self, tmp_path):
        p = tmp_path / "depths.csv"
        p.write_text("nv_id,d_ref_nm\nNV1,7.2\nNV1,8.0\n")
        with pytest.raises(DataFormatError, match="NV1"):
            load_reference_depths(p)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        p = tmp_path / "depths.csv"
        p.write_text("\ufeffnv_id,d_ref_nm\nNV1,7.2\n")
        assert load_reference_depths(p) == {"NV1": pytest.approx(7.2e-9)}


class TestWriters:
    def test_csv_round_trip_floats(self, tmp_path):
        p = tmp_path / "out.csv"
        values = (1.0 / 3.0, 2.5e-19, np.float64(0.1))
        write_csv(p, ("a", "b", "c"), [values])
        _, row = p.read_text().strip().split("\n")
        back = [float(x) for x in row.split(",")]
        assert back == [float(v) for v in values]  # repr round-trip is exact

    def test_csv_quotes_cells_with_commas_and_quotes(self, tmp_path):
        import csv

        p = tmp_path / "out.csv"
        rows = [("NV,1", 1.5), ('say "hi"', 2.0), ("plain", 3.0)]
        write_csv(p, ("nv_id", "x"), rows)
        text = p.read_text()
        assert text.endswith("\nplain,3.0\n")  # a plain cell is written bare
        with p.open(newline="") as fh:
            assert list(csv.reader(fh)) == [["nv_id", "x"]] + [
                [nv, repr(x)] for nv, x in rows
            ]

    def test_json_handles_numpy_scalars(self, tmp_path):
        import json

        p = tmp_path / "out.json"
        write_json(p, {"x": np.float64(1.5), "n": np.int64(3), "v": np.arange(3)})
        data = json.loads(p.read_text())
        assert data == {"x": 1.5, "n": 3, "v": [0, 1, 2]}

    def test_json_sorted_and_newline_terminated(self, tmp_path):
        p = tmp_path / "out.json"
        write_json(p, {"b": 1, "a": 2})
        text = p.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_sha256_matches_hashlib(self, tmp_path):
        import hashlib

        p = tmp_path / "blob.bin"
        p.write_bytes(b"spinbath")
        assert sha256_of(p) == hashlib.sha256(b"spinbath").hexdigest()
