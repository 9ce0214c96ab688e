"""YAML configuration: schema, validation, round-tripping, object factories.

The config file is the single place where physical constants, hyperfine
data, film geometry (with uncertainty intervals), NV parameters, the
molecular lattice, and fit settings live.  Values use bench units (nm,
ns, MHz, gauss, degrees); the factory methods convert to SI/angular
units when constructing module objects.

Each block is a frozen dataclass whose fields are its YAML keys: a field's
default is the key's default (no default: the key is required) and its
metadata names the parser that checks the value.  Unknown keys, wrong
types and non-finite numbers raise ConfigError with the offending key
path, e.g. "geometry.d_nv_nm: must be >= 0.1, got -3.0"; invalid YAML and
a key repeated within one mapping raise it with the file's line.  θ_e has
one source, hyperfine.theta_e_deg; lattice.molecular_axis is checked
against it at load.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from . import constants
from .errors import ConfigError

# ---------------------------------------------------------------------------
# key parsers: each maps (raw YAML value, key path) to the field value
# ---------------------------------------------------------------------------


def _num(lo=None, hi=None):
    """A finite number in [lo, hi]."""

    def parse(raw, path):
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {raw!r}")
        # False for NaN and ±inf, and for an integer beyond the float range
        if not -sys.float_info.max <= raw <= sys.float_info.max:
            raise ConfigError(f"{path}: must be finite, got {raw}")
        val = float(raw)
        if lo is not None and val < lo:
            raise ConfigError(f"{path}: must be >= {lo}, got {val}")
        if hi is not None and val > hi:
            raise ConfigError(f"{path}: must be <= {hi}, got {val}")
        return val

    return parse


def _int(lo, hi=None):
    """An integer >= lo (and <= hi if given)."""
    want = f"an integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi}]"

    def parse(raw, path):
        if (
            isinstance(raw, bool)
            or not isinstance(raw, int)
            or raw < lo
            or (hi is not None and raw > hi)
        ):
            raise ConfigError(f"{path}: expected {want}, got {raw!r}")
        return raw

    return parse


def _list(item, n=None):
    """A non-empty list (of exactly `n` entries if given) parsed by `item`."""

    def parse(raw, path):
        if not isinstance(raw, (list, tuple)) or not raw or len(raw) != (n or len(raw)):
            want = f"a list of {n}" if n else "a non-empty list"
            raise ConfigError(f"{path}: expected {want}, got {raw!r}")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(raw))

    return parse


_XYZ = _list(_num(), 3)


def _pair(lo=None, hi=None):
    """An interval [low, high] inside [lo, hi]."""
    edges = _list(_num(lo, hi), 2)

    def parse(raw, path):
        low, high = edges(raw, path)
        if low > high:
            raise ConfigError(f"{path}: interval reversed ({low} > {high})")
        return low, high

    return parse


def _choice(*options):
    def parse(raw, path):
        if raw not in options:
            raise ConfigError(f"{path}: must be one of {list(options)}, got {raw!r}")
        return raw

    return parse


def _label(raw, path):
    if not isinstance(raw, str) or not raw:
        raise ConfigError(f"{path}: expected a non-empty string, got {raw!r}")
    return raw


def _block(cls):
    return lambda raw, path: _parse_block(cls, raw, path)


def _key(parse, default=MISSING):
    """A YAML key: its parser and its default (none: the key is required)."""
    return field(default=default, metadata={"parse": parse})


def _parse_block(cls, node, path: str):
    """Build the block dataclass `cls` from the mapping `node` at `path`."""
    if not isinstance(node, dict):
        where = path or "top level"
        raise ConfigError(f"{where}: expected a mapping, got {type(node).__name__}")
    prefix = f"{path}." if path else ""
    schema = {f.name: f for f in fields(cls)}
    for key in node:
        if key not in schema:
            raise ConfigError(f"{prefix}{key}: unknown key")
    kwargs = {}
    for name, f in schema.items():
        if name in node:
            kwargs[name] = f.metadata["parse"](node[name], prefix + name)
        elif f.default is MISSING:
            raise ConfigError(f"{prefix}{name}: missing required key")
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantsBlock:
    gamma_e_ghz_per_t: float = _key(_num(lo=1.0), constants.GAMMA_E / constants.TWO_PI / 1e9)

    @property
    def gamma_e(self) -> float:
        return constants.TWO_PI * self.gamma_e_ghz_per_t * 1e9


@dataclass(frozen=True)
class IsotopeEntry:
    label: str = _key(_label)
    abundance: float = _key(_num(lo=0.0, hi=1.0))
    scale: float = _key(_num(lo=0.0))


@dataclass(frozen=True)
class HyperfineBlock:
    cu_tensor_mhz: tuple[float, float, float] = _key(_XYZ, (-83.0, -83.0, -648.0))
    n_tensor_mhz: tuple[float, float, float] = _key(_XYZ, (57.0, 45.0, 45.0))
    # CuPc has four nitrogen ligands; the spin model's (I_a, I_b) blocks hold
    # for at most two equivalent nitrogens per tensor class
    n_nitrogens: int = _key(_int(0, 4), 4)
    isotopes: tuple[IsotopeEntry, ...] = _key(
        _list(_block(IsotopeEntry)),
        (IsotopeEntry("63Cu", 0.6915, 1.0), IsotopeEntry("65Cu", 0.3085, 1.07)),
    )
    # literature-typical CuPc values; replace when sample-specific numbers exist
    g_parallel: float = _key(_num(lo=0.5, hi=10.0), 2.16)
    g_perp: float = _key(_num(lo=0.5, hi=10.0), 2.04)
    theta_e_deg: float = _key(_num(lo=0.0, hi=90.0), 43.05)
    eta_floor: float = _key(_num(lo=0.0), 1e-12)

    def __post_init__(self) -> None:
        total = sum(e.abundance for e in self.isotopes)
        if abs(total - 1.0) > 1e-6:
            raise ConfigError(f"hyperfine.isotopes: abundances sum to {total}, not 1")


@dataclass(frozen=True)
class GeometryBlock:
    d_nv_nm: float = _key(_num(lo=0.1))
    d_nv_interval_nm: tuple[float, float] = _key(_pair())
    h_nm: float = _key(_num(lo=0.01))
    h_interval_nm: tuple[float, float] = _key(_pair())
    n_e_per_nm3: float = _key(_num(lo=0.0))
    n_e_interval_per_nm3: tuple[float, float] = _key(_pair())

    def __post_init__(self) -> None:
        # the nuisance sweep evaluates b0^2 at the interval edges, and a zero
        # or negative depth, thickness or density has no physical reading
        if not self.n_e_per_nm3 > 0:
            raise ConfigError(f"geometry.n_e_per_nm3: must be > 0, got {self.n_e_per_nm3}")
        for key, val in (
            ("d_nv_interval_nm", self.d_nv_nm),
            ("h_interval_nm", self.h_nm),
            ("n_e_interval_per_nm3", self.n_e_per_nm3),
        ):
            lo, hi = getattr(self, key)
            if not lo > 0:
                raise ConfigError(f"geometry.{key}: lower edge must be > 0, got {lo}")
            if not lo <= val <= hi:
                raise ConfigError(
                    f"geometry.{key}: nominal {val} outside interval {(lo, hi)}"
                )


@dataclass(frozen=True)
class NvBlock:
    d_zfs_ghz: float = _key(_num(lo=0.1), 2.870)
    branch: str = _key(_choice("minus", "plus"), "minus")


@dataclass(frozen=True)
class BathBlock:
    tau_e_ns: float = _key(_num(lo=1e-6), 2.0)
    tau_e_interval_ns: tuple[float, float] = _key(_pair(), (0.9, 3.1))
    fields_gauss: tuple[float, ...] = _key(
        _list(_num(lo=0.0)), (231.0, 372.0, 461.0, 721.0)
    )


@dataclass(frozen=True)
class LatticeBlock:
    a_angstrom: float = _key(_num(lo=0.1), 12.886)
    b_angstrom: float = _key(_num(lo=0.1), 3.769)
    c_angstrom: float = _key(_num(lo=0.1), 12.061)
    alpha_deg: float = _key(_num(lo=1.0, hi=179.0), 96.22)
    beta_deg: float = _key(_num(lo=1.0, hi=179.0), 90.62)
    gamma_deg: float = _key(_num(lo=1.0, hi=179.0), 90.32)
    sites_frac: tuple[tuple[float, float, float], ...] = _key(
        _list(_XYZ), ((0.0, 0.0, 0.0),)
    )
    field_direction: tuple[float, float, float] | None = _key(_XYZ, None)
    molecular_axis: tuple[float, float, float] | None = _key(_XYZ, None)
    cutoff_angstrom: float = _key(_num(lo=0.1), 30.0)

    def __post_init__(self) -> None:
        for key in ("field_direction", "molecular_axis"):
            if getattr(self, key) == (0.0, 0.0, 0.0):
                raise ConfigError(f"lattice.{key}: must be a nonzero vector")

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
    tau_e_box_ns: tuple[float, float] = _key(_pair(), (0.1, 100.0))
    theta_e_box_deg: tuple[float, float] = _key(_pair(lo=0.0, hi=90.0), (0.0, 90.0))
    d_nv_box_nm: tuple[float, float] = _key(_pair(), (2.0, 50.0))
    grid_points: int = _key(_int(4), 64)
    theta_step_deg: float = _key(_num(lo=0.01, hi=45.0), 1.0)
    bin_mhz: float = _key(_num(), 1.0)
    epsilon_scale: float = _key(_num(lo=0.0), 1.0)

    def __post_init__(self) -> None:
        for key in ("tau_e_box_ns", "d_nv_box_nm"):
            lo = getattr(self, key)[0]
            if not lo > 0:
                raise ConfigError(f"fit.{key}: lower edge must be > 0, got {lo}")
        if not self.bin_mhz > 0:
            raise ConfigError(f"fit.bin_mhz: must be > 0, got {self.bin_mhz}")


#: Largest accepted gap between hyperfine.theta_e_deg and the angle between
#: lattice.molecular_axis and lattice.field_direction (degrees).
THETA_E_TOL_DEG = 0.1


@dataclass(frozen=True, kw_only=True)
class ToolkitConfig:
    constants: ConstantsBlock = _key(_block(ConstantsBlock), ConstantsBlock())
    hyperfine: HyperfineBlock = _key(_block(HyperfineBlock), HyperfineBlock())
    geometry: GeometryBlock = _key(_block(GeometryBlock))
    nv: NvBlock = _key(_block(NvBlock), NvBlock())
    bath: BathBlock = _key(_block(BathBlock), BathBlock())
    lattice: LatticeBlock = _key(_block(LatticeBlock), LatticeBlock())
    fit: FitBlock = _key(_block(FitBlock), FitBlock())

    def __post_init__(self) -> None:
        # θ_e is read from hyperfine.theta_e_deg alone; lattice vectors that
        # imply another angle would describe a different film
        m, f = self.lattice.molecular_axis, self.lattice.field_direction
        if m is None or f is None:
            return
        norm_m, norm_f = math.hypot(*m), math.hypot(*f)
        cosang = abs(sum(a / norm_m * (b / norm_f) for a, b in zip(m, f)))
        implied = math.degrees(math.acos(min(cosang, 1.0)))
        stated = self.hyperfine.theta_e_deg
        if not abs(implied - stated) <= THETA_E_TOL_DEG:
            raise ConfigError(
                f"lattice.molecular_axis: lies {implied:.4f} deg from "
                f"lattice.field_direction, but hyperfine.theta_e_deg is {stated:g}; "
                f"they must agree within {THETA_E_TOL_DEG:g} deg"
            )

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
            Isotope(e.label, e.abundance, e.scale) for e in self.hyperfine.isotopes
        )

    def spectrum_args(self) -> dict:
        """The keywords every line-list builder takes from the config.

        `isotope_family_spectrum`, `cupc_bath_model` and `ForwardModel`
        default to the built-in isotope table and eta floor; a caller that
        passes these instead cannot drift from the config.
        """
        return {"isotopes": self.isotopes(), "eta_floor": self.hyperfine.eta_floor}

    def bath_model(self, b_field: float, tau_e: float, theta_e: float | None = None):
        """`cupc_bath_model` at one field (T), wholly from the config."""
        from .bathspectrum import cupc_bath_model

        return cupc_bath_model(
            self.spin_spec(b_field, theta_e),
            tau_e,
            self.film_geometry(),
            **self.spectrum_args(),
            gamma_e=self.constants.gamma_e,
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
        if lat.field_direction is None:
            raise ConfigError("lattice.field_direction: missing required key")
        try:
            return LatticeModel(
                cell=lat.cell_matrix(),
                sites=np.asarray(lat.sites_frac, dtype=float),
                field_dir=np.asarray(lat.field_direction, dtype=float),
                cutoff=lat.cutoff_angstrom * 1e-10,
            )
        except ValueError as exc:
            raise ConfigError(f"lattice: {exc}") from exc

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


def parse_config(tree: dict) -> ToolkitConfig:
    return _parse_block(ToolkitConfig, tree, "")


class _DuplicateKey(yaml.YAMLError):
    """A mapping key given twice; its message names the key and line."""


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe YAML loader, libyaml's where PyYAML has it, that rejects repeated keys."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            # the base class resolves `<<` merge keys, and a non-scalar key
            # is never a config key: check the explicit scalar keys only
            if not isinstance(key_node, yaml.ScalarNode) or key_node.tag.endswith(":merge"):
                continue
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                line = key_node.start_mark.line + 1
                raise _DuplicateKey(f"duplicate key {key!r} at line {line}")
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def load_config(path: str | Path) -> ToolkitConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{p}: config file not found")
    try:
        tree = yaml.load(p.read_bytes(), Loader=_Loader)
    except _DuplicateKey as exc:
        raise ConfigError(f"{p}: {exc}") from None
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark or exc.context_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = exc.problem or exc.context
        raise ConfigError(f"{p}: invalid YAML{where}: {problem}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{p}: invalid YAML: {' '.join(str(exc).split())}") from None
    if tree is None:
        raise ConfigError(f"{p}: config file is empty")
    return parse_config(tree)


def config_tree(cfg: ToolkitConfig) -> dict:
    """Plain-dict form of the config (the dump side of the round trip).

    Keys whose value is None (an unset optional vector) are left out.
    """
    return _plain(asdict(cfg))


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items() if v is not None}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def dump_config(cfg: ToolkitConfig) -> str:
    return yaml.safe_dump(config_tree(cfg), sort_keys=True)
