"""YAML configuration: validation, round-tripping, object factories.

The config file is the single place where physical constants, hyperfine
data, film geometry (with uncertainty intervals), NV parameters, the
molecular lattice, and fit settings live.  Values use bench units (nm,
ns, MHz, gauss, degrees); the factory methods convert to SI/angular
units when constructing module objects.  Validation failures raise
ConfigError with the offending key path, e.g. "geometry.d_nv_nm: must be
> 0".
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import constants
from .errors import ConfigError


def _expect_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _get(node: dict, key: str, path: str, required: bool = True, default=None):
    if key not in node:
        if required:
            raise ConfigError(f"{path}.{key}: missing required key")
        return default
    return node[key]


def _number(node: dict, key: str, path: str, *, default=None, lo=None, hi=None):
    required = default is None
    raw = _get(node, key, path, required=required, default=default)
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {raw!r}")
    val = float(raw)
    if lo is not None and val < lo:
        raise ConfigError(f"{path}.{key}: must be >= {lo}, got {val}")
    if hi is not None and val > hi:
        raise ConfigError(f"{path}.{key}: must be <= {hi}, got {val}")
    return val


def _pair(node: dict, key: str, path: str, default=None) -> tuple[float, float]:
    raw = _get(node, key, path, required=default is None, default=default)
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError(f"{path}.{key}: expected [lo, hi]")
    lo, hi = float(raw[0]), float(raw[1])
    if lo > hi:
        raise ConfigError(f"{path}.{key}: interval reversed ({lo} > {hi})")
    return lo, hi


def _vector3(node: dict, key: str, path: str) -> tuple[float, float, float]:
    raw = _get(node, key, path)
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ConfigError(f"{path}.{key}: expected [x, y, z]")
    return tuple(float(v) for v in raw)


@dataclass(frozen=True)
class ConstantsBlock:
    gamma_e_ghz_per_t: float = constants.GAMMA_E / constants.TWO_PI / 1e9

    @property
    def gamma_e(self) -> float:
        return constants.TWO_PI * self.gamma_e_ghz_per_t * 1e9


@dataclass(frozen=True)
class IsotopeEntry:
    label: str
    abundance: float
    scale: float


@dataclass(frozen=True)
class HyperfineBlock:
    cu_tensor_mhz: tuple[float, float, float] = (-83.0, -83.0, -648.0)
    n_tensor_mhz: tuple[float, float, float] = (57.0, 45.0, 45.0)
    n_nitrogens: int = 4
    isotopes: tuple[IsotopeEntry, ...] = (
        IsotopeEntry("63Cu", 0.6915, 1.0),
        IsotopeEntry("65Cu", 0.3085, 1.07),
    )
    # literature-typical CuPc values; replace when sample-specific numbers exist
    g_parallel: float = 2.16
    g_perp: float = 2.04
    theta_e_deg: float = 43.05
    eta_floor: float = 1e-12


@dataclass(frozen=True)
class GeometryBlock:
    d_nv_nm: float = 7.0
    d_nv_interval_nm: tuple[float, float] = (6.0, 8.0)
    h_nm: float = 20.0
    h_interval_nm: tuple[float, float] = (18.0, 22.0)
    n_e_per_nm3: float = 1.7176
    n_e_interval_per_nm3: tuple[float, float] = (1.546, 1.889)


@dataclass(frozen=True)
class NvBlock:
    d_zfs_ghz: float = 2.870
    branch: str = "minus"


@dataclass(frozen=True)
class BathBlock:
    tau_e_ns: float = 2.0
    tau_e_interval_ns: tuple[float, float] = (0.9, 3.1)
    fields_gauss: tuple[float, ...] = (231.0, 372.0, 461.0, 721.0)


@dataclass(frozen=True)
class LatticeBlock:
    a_angstrom: float = 12.886
    b_angstrom: float = 3.769
    c_angstrom: float = 12.061
    alpha_deg: float = 96.22
    beta_deg: float = 90.62
    gamma_deg: float = 90.32
    sites_frac: tuple[tuple[float, float, float], ...] = ((0.0, 0.0, 0.0),)
    field_direction: tuple[float, float, float] | None = None
    molecular_axis: tuple[float, float, float] | None = None
    cutoff_angstrom: float = 30.0

    def cell_matrix(self) -> np.ndarray:
        """Lattice vectors as rows (meters), a along x, b in the xy-plane."""
        a, b, c = (
            self.a_angstrom * 1e-10,
            self.b_angstrom * 1e-10,
            self.c_angstrom * 1e-10,
        )
        al, be, ga = (
            math.radians(self.alpha_deg),
            math.radians(self.beta_deg),
            math.radians(self.gamma_deg),
        )
        cx = math.cos(be)
        cy = (math.cos(al) - math.cos(be) * math.cos(ga)) / math.sin(ga)
        cz = math.sqrt(max(1.0 - cx * cx - cy * cy, 0.0))
        return np.array(
            [
                [a, 0.0, 0.0],
                [b * math.cos(ga), b * math.sin(ga), 0.0],
                [c * cx, c * cy, c * cz],
            ]
        )


@dataclass(frozen=True)
class FitBlock:
    tau_e_box_ns: tuple[float, float] = (0.1, 100.0)
    theta_e_box_deg: tuple[float, float] = (0.0, 90.0)
    d_nv_box_nm: tuple[float, float] = (2.0, 50.0)
    grid_points: int = 64
    theta_step_deg: float = 1.0
    bin_mhz: float = 1.0
    epsilon_scale: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class ToolkitConfig:
    constants: ConstantsBlock = field(default_factory=ConstantsBlock)
    hyperfine: HyperfineBlock = field(default_factory=HyperfineBlock)
    geometry: GeometryBlock = field(default_factory=GeometryBlock)
    nv: NvBlock = field(default_factory=NvBlock)
    bath: BathBlock = field(default_factory=BathBlock)
    lattice: LatticeBlock | None = field(default_factory=LatticeBlock)
    fit: FitBlock = field(default_factory=FitBlock)

    # ---- factories -------------------------------------------------------

    def spin_spec(self, b_field: float, theta_e: float | None = None):
        from .spinmodel import HyperfineTensor, SpinSystemSpec

        hf = self.hyperfine
        theta = math.radians(hf.theta_e_deg) if theta_e is None else theta_e
        return SpinSystemSpec(
            b_field=b_field,
            theta_e=theta,
            g_parallel=hf.g_parallel,
            g_perp=hf.g_perp,
            cu_tensor=HyperfineTensor.from_mhz(*hf.cu_tensor_mhz),
            n_tensor=HyperfineTensor.from_mhz(*hf.n_tensor_mhz),
            n_nitrogens=hf.n_nitrogens,
        )

    def isotopes(self):
        from .spinmodel import Isotope

        return tuple(
            Isotope(e.label, e.abundance, e.scale, 1.5) for e in self.hyperfine.isotopes
        )

    def film_geometry(self):
        from .bathspectrum import FilmGeometry

        g = self.geometry
        return FilmGeometry(
            d_nv=g.d_nv_nm * 1e-9, h=g.h_nm * 1e-9, n_e=g.n_e_per_nm3 * 1e27
        )

    def nv_config(self):
        from .relaxometry import NvConfig

        return NvConfig(
            d_zfs=constants.TWO_PI * self.nv.d_zfs_ghz * 1e9,
            gamma_e=self.constants.gamma_e,
            branch=self.nv.branch,
        )

    def lattice_model(self):
        from .eesolver import LatticeModel

        lat = self.lattice
        if lat is None:
            raise ConfigError("lattice: block is required for this command")
        if lat.field_direction is None:
            raise ConfigError("lattice.field_direction: missing required key")
        return LatticeModel(
            cell=lat.cell_matrix(),
            sites=np.asarray(lat.sites_frac, dtype=float),
            field_dir=np.asarray(lat.field_direction, dtype=float),
            cutoff=lat.cutoff_angstrom * 1e-10,
            molecular_axis=(
                None
                if lat.molecular_axis is None
                else np.asarray(lat.molecular_axis, dtype=float)
            ),
        )

    def lattice_theta_e(self) -> float:
        """θ_e implied by the lattice block; falls back to the hyperfine block."""
        lat = self.lattice
        if lat is not None and lat.molecular_axis is not None and lat.field_direction is not None:
            m = np.asarray(lat.molecular_axis, dtype=float)
            f = np.asarray(lat.field_direction, dtype=float)
            cosang = abs(m @ f) / (np.linalg.norm(m) * np.linalg.norm(f))
            return float(np.arccos(np.clip(cosang, -1.0, 1.0)))
        return math.radians(self.hyperfine.theta_e_deg)

    def nuisance_intervals(self) -> dict[str, tuple[float, tuple[float, float]]]:
        g = self.geometry
        return {
            "d_nv": (g.d_nv_nm * 1e-9, tuple(v * 1e-9 for v in g.d_nv_interval_nm)),
            "h": (g.h_nm * 1e-9, tuple(v * 1e-9 for v in g.h_interval_nm)),
            "n_e": (
                g.n_e_per_nm3 * 1e27,
                tuple(v * 1e27 for v in g.n_e_interval_per_nm3),
            ),
        }

    def fit_boxes(self) -> dict[str, tuple[float, float]]:
        f = self.fit
        return {
            "tau_e": tuple(v * 1e-9 for v in f.tau_e_box_ns),
            "theta_e": tuple(math.radians(v) for v in f.theta_e_box_deg),
            "d_nv": tuple(v * 1e-9 for v in f.d_nv_box_nm),
        }


# ---------------------------------------------------------------------------
# loading / dumping
# ---------------------------------------------------------------------------


def _parse_constants(node, path) -> ConstantsBlock:
    d = _expect_mapping(node, path)
    return ConstantsBlock(
        gamma_e_ghz_per_t=_number(
            d, "gamma_e_ghz_per_t", path, default=ConstantsBlock.gamma_e_ghz_per_t, lo=1.0
        ),
    )


def _parse_tensor3(node, key, path, default) -> tuple[float, float, float]:
    raw = _get(node, key, path, required=False, default=list(default))
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ConfigError(f"{path}.{key}: expected [xx, yy, zz]")
    return tuple(float(v) for v in raw)


def _parse_hyperfine(node, path) -> HyperfineBlock:
    d = _expect_mapping(node, path)
    iso_raw = _get(d, "isotopes", path, required=False)
    if iso_raw is None:
        isotopes = HyperfineBlock.isotopes
    else:
        if not isinstance(iso_raw, list) or not iso_raw:
            raise ConfigError(f"{path}.isotopes: expected a non-empty list")
        isotopes = []
        for i, entry in enumerate(iso_raw):
            e = _expect_mapping(entry, f"{path}.isotopes[{i}]")
            isotopes.append(
                IsotopeEntry(
                    label=str(_get(e, "label", f"{path}.isotopes[{i}]")),
                    abundance=_number(
                        e, "abundance", f"{path}.isotopes[{i}]", lo=0.0, hi=1.0
                    ),
                    scale=_number(e, "scale", f"{path}.isotopes[{i}]", lo=0.0),
                )
            )
        total = sum(e.abundance for e in isotopes)
        if abs(total - 1.0) > 1e-6:
            raise ConfigError(f"{path}.isotopes: abundances sum to {total}, not 1")
        isotopes = tuple(isotopes)
    n_nitrogens = _get(d, "n_nitrogens", path, required=False, default=4)
    if not isinstance(n_nitrogens, int) or n_nitrogens < 0:
        raise ConfigError(f"{path}.n_nitrogens: expected a non-negative integer")
    return HyperfineBlock(
        cu_tensor_mhz=_parse_tensor3(d, "cu_tensor_mhz", path, HyperfineBlock.cu_tensor_mhz),
        n_tensor_mhz=_parse_tensor3(d, "n_tensor_mhz", path, HyperfineBlock.n_tensor_mhz),
        n_nitrogens=n_nitrogens,
        isotopes=isotopes,
        g_parallel=_number(d, "g_parallel", path, default=2.16, lo=0.5, hi=10.0),
        g_perp=_number(d, "g_perp", path, default=2.04, lo=0.5, hi=10.0),
        theta_e_deg=_number(d, "theta_e_deg", path, default=43.05, lo=0.0, hi=90.0),
        eta_floor=_number(d, "eta_floor", path, default=1e-12, lo=0.0),
    )


def _parse_geometry(node, path) -> GeometryBlock:
    d = _expect_mapping(node, path)
    g = GeometryBlock(
        d_nv_nm=_number(d, "d_nv_nm", path, lo=0.1),
        d_nv_interval_nm=_pair(d, "d_nv_interval_nm", path),
        h_nm=_number(d, "h_nm", path, lo=0.01),
        h_interval_nm=_pair(d, "h_interval_nm", path),
        n_e_per_nm3=_number(d, "n_e_per_nm3", path, lo=0.0),
        n_e_interval_per_nm3=_pair(d, "n_e_interval_per_nm3", path),
    )
    for name, val, iv in (
        ("d_nv", g.d_nv_nm, g.d_nv_interval_nm),
        ("h", g.h_nm, g.h_interval_nm),
        ("n_e", g.n_e_per_nm3, g.n_e_interval_per_nm3),
    ):
        if not (iv[0] <= val <= iv[1]):
            raise ConfigError(
                f"{path}.{name}_interval: nominal {val} outside interval {iv}"
            )
    return g


def _parse_nv(node, path) -> NvBlock:
    d = _expect_mapping(node, path)
    branch = _get(d, "branch", path, required=False, default="minus")
    if branch not in ("minus", "plus"):
        raise ConfigError(f"{path}.branch: must be 'minus' or 'plus', got {branch!r}")
    return NvBlock(
        d_zfs_ghz=_number(d, "d_zfs_ghz", path, default=2.870, lo=0.1), branch=branch
    )


def _parse_bath(node, path) -> BathBlock:
    d = _expect_mapping(node, path)
    fields = _get(d, "fields_gauss", path, required=False, default=[231.0, 372.0, 461.0, 721.0])
    if not isinstance(fields, list) or not fields:
        raise ConfigError(f"{path}.fields_gauss: expected a non-empty list")
    return BathBlock(
        tau_e_ns=_number(d, "tau_e_ns", path, default=2.0, lo=1e-6),
        tau_e_interval_ns=_pair(d, "tau_e_interval_ns", path, default=[0.9, 3.1]),
        fields_gauss=tuple(float(b) for b in fields),
    )


def _parse_lattice(node, path) -> LatticeBlock:
    d = _expect_mapping(node, path)
    sites = _get(d, "sites_frac", path, required=False, default=[[0.0, 0.0, 0.0]])
    if not isinstance(sites, list) or not sites:
        raise ConfigError(f"{path}.sites_frac: expected a non-empty list of [u,v,w]")
    parsed_sites = []
    for i, s in enumerate(sites):
        if not isinstance(s, (list, tuple)) or len(s) != 3:
            raise ConfigError(f"{path}.sites_frac[{i}]: expected [u, v, w]")
        parsed_sites.append(tuple(float(v) for v in s))
    fdir = None
    if "field_direction" in d:
        fdir = _vector3(d, "field_direction", path)
    maxis = None
    if "molecular_axis" in d:
        maxis = _vector3(d, "molecular_axis", path)
    return LatticeBlock(
        a_angstrom=_number(d, "a_angstrom", path, default=12.886, lo=0.1),
        b_angstrom=_number(d, "b_angstrom", path, default=3.769, lo=0.1),
        c_angstrom=_number(d, "c_angstrom", path, default=12.061, lo=0.1),
        alpha_deg=_number(d, "alpha_deg", path, default=96.22, lo=1.0, hi=179.0),
        beta_deg=_number(d, "beta_deg", path, default=90.62, lo=1.0, hi=179.0),
        gamma_deg=_number(d, "gamma_deg", path, default=90.32, lo=1.0, hi=179.0),
        sites_frac=tuple(parsed_sites),
        field_direction=fdir,
        molecular_axis=maxis,
        cutoff_angstrom=_number(d, "cutoff_angstrom", path, default=30.0, lo=0.1),
    )


def _parse_fit(node, path) -> FitBlock:
    d = _expect_mapping(node, path)
    grid = _get(d, "grid_points", path, required=False, default=64)
    seed = _get(d, "seed", path, required=False, default=0)
    if not isinstance(grid, int) or grid < 4:
        raise ConfigError(f"{path}.grid_points: expected an integer >= 4")
    if not isinstance(seed, int):
        raise ConfigError(f"{path}.seed: expected an integer")
    bin_mhz = _number(d, "bin_mhz", path, default=1.0)
    if not bin_mhz > 0:
        raise ConfigError(f"{path}.bin_mhz: must be > 0, got {bin_mhz}")
    tau_box = _pair(d, "tau_e_box_ns", path, default=[0.1, 100.0])
    d_box = _pair(d, "d_nv_box_nm", path, default=[2.0, 50.0])
    for key, (lo, _hi) in (("tau_e_box_ns", tau_box), ("d_nv_box_nm", d_box)):
        if not lo > 0:
            raise ConfigError(f"{path}.{key}: lower edge must be > 0, got {lo}")
    return FitBlock(
        tau_e_box_ns=tau_box,
        theta_e_box_deg=_pair(d, "theta_e_box_deg", path, default=[0.0, 90.0]),
        d_nv_box_nm=d_box,
        grid_points=grid,
        theta_step_deg=_number(d, "theta_step_deg", path, default=1.0, lo=0.01, hi=45.0),
        bin_mhz=bin_mhz,
        epsilon_scale=_number(d, "epsilon_scale", path, default=1.0, lo=0.0),
        seed=seed,
    )


_PARSERS = {
    "constants": _parse_constants,
    "hyperfine": _parse_hyperfine,
    "geometry": _parse_geometry,
    "nv": _parse_nv,
    "bath": _parse_bath,
    "lattice": _parse_lattice,
    "fit": _parse_fit,
}


def parse_config(tree: dict) -> ToolkitConfig:
    if not isinstance(tree, dict):
        raise ConfigError("top level: expected a mapping of config blocks")
    unknown = set(tree) - set(_PARSERS)
    if unknown:
        raise ConfigError(f"top level: unknown block(s) {sorted(unknown)}")
    kwargs = {}
    for name, parser in _PARSERS.items():
        if name in tree:
            kwargs[name] = parser(tree[name], name)
        elif name == "geometry":
            raise ConfigError("geometry: missing required block")
    return ToolkitConfig(**kwargs)


def load_config(path: str | Path) -> ToolkitConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{p}: config file not found")
    try:
        tree = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{p}: invalid YAML ({exc})") from exc
    if tree is None:
        raise ConfigError(f"{p}: config file is empty")
    return parse_config(tree)


def config_tree(cfg: ToolkitConfig) -> dict:
    """Plain-dict form of the config (the dump side of the round trip)."""
    tree = asdict(cfg)
    if tree.get("lattice") is None:
        tree.pop("lattice")
    else:
        for key in ("field_direction", "molecular_axis"):
            if tree["lattice"][key] is None:
                tree["lattice"].pop(key)
    return _tuples_to_lists(tree)


def _tuples_to_lists(obj):
    if isinstance(obj, dict):
        return {k: _tuples_to_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tuples_to_lists(v) for v in obj]
    return obj


def dump_config(cfg: ToolkitConfig) -> str:
    return yaml.safe_dump(config_tree(cfg), sort_keys=True)
