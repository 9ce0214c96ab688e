"""Seeded inputs for the benchmark workloads.

Every measurement table and decay trace is made from exact
``cupc_bath_model`` + ``relaxation_rate`` values at a known truth, never
from an ``estimator.ForwardModel``, so the correctness checks stay
independent of the estimator's θ-cache.  The program under test only ever
sees the files written here.

spinbath modules are reached through their module objects (``bathspectrum.
cupc_bath_model``) so the tracer's patched functions are the ones called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spinbath import bathspectrum, relaxometry
from spinbath.constants import gauss_to_tesla

#: Intrinsic (film-free) T1 of the synthetic NVs and its relative sigma.
T1_FREE = 5.0e-3
T1_FREE_SIGMA_REL = 0.02
#: Reported relative sigma of the film T1 in the exact cold-fit table.
T1_CUPC_SIGMA_REL = 0.03

#: Detuned shipped fields (|omega_NV - gamma_e B| > 0.35 GHz); 461 G sits in
#: the θ-sensitive window, which the depth method excludes.
DEPTH_FIELDS = (231.0, 372.0, 721.0)

MEASUREMENT_HEADER = "nv_id,b_gauss,t1_cupc_us,t1_cupc_sigma_us,t1_free_us,t1_free_sigma_us"


def config_copy(root: Path, dest: Path, **overrides: str) -> Path:
    """Copy of the shipped config with only the named keys' values replaced.

    Each override is the YAML text of the new value, e.g.
    ``theta_step_deg="5.0"``; every key must occur exactly once.
    """
    lines = (root / "configs" / "cupc.yaml").read_text().splitlines(keepends=True)
    for key, value in overrides.items():
        hits = [i for i, ln in enumerate(lines) if ln.lstrip().startswith(f"{key}:")]
        if len(hits) != 1:
            raise ValueError(f"configs/cupc.yaml: expected one '{key}:' line")
        line = lines[hits[0]]
        indent = line[: len(line) - len(line.lstrip())]
        lines[hits[0]] = f"{indent}{key}: {value}\n"
    dest.write_text("".join(lines))
    return dest


def exact_rate(cfg, b_gauss: float, tau_e: float, theta_e: float, geometry=None) -> float:
    """Exact ΔΓ₁ (1/s) from the full isotope-weighted line list."""
    model = bathspectrum.cupc_bath_model(
        cfg.spin_spec(gauss_to_tesla(b_gauss), theta_e),
        tau_e,
        geometry or cfg.film_geometry(),
        isotopes=cfg.isotopes(),
        eta_floor=cfg.hyperfine.eta_floor,
        gamma_e=cfg.constants.gamma_e,
    )
    return relaxometry.relaxation_rate(model, cfg.nv_config(), gauss_to_tesla(b_gauss))


# ---------------------------------------------------------------------------
# cold-fit: one exact four-field table at a seeded truth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitTruth:
    tau_e: float  # s
    theta_e: float  # rad
    fields: tuple[float, ...]
    rates: tuple[float, ...]  # exact ΔΓ₁ per field, 1/s
    sigmas: tuple[float, ...]  # ΔΓ₁ sigma per field as the CLI derives it


def fit_truth(seed: int, cfg) -> tuple[float, float]:
    """Seeded truth near the shipped nominal: τ_e within ±15 %, θ_e within ±3°."""
    rng = np.random.default_rng([seed, 1])
    tau = cfg.bath.tau_e_ns * 1e-9 * math.exp(rng.uniform(-0.15, 0.15))
    theta = math.radians(cfg.hyperfine.theta_e_deg + rng.uniform(-3.0, 3.0))
    return tau, theta


def write_fit_table(path: Path, cfg, fields, tau: float, theta: float) -> FitTruth:
    """Exact ΔΓ₁ at every field, written as a measurement CSV."""
    rows = [MEASUREMENT_HEADER]
    rates, sigmas = [], []
    for b in fields:
        dg = exact_rate(cfg, b, tau, theta)
        t1c = 1.0 / (dg + 1.0 / T1_FREE)
        rec = relaxometry.T1Record(
            nv_id="NV1",
            b_gauss=b,
            t1_cupc=t1c,
            t1_cupc_sigma=T1_CUPC_SIGMA_REL * t1c,
            t1_free=T1_FREE,
            t1_free_sigma=T1_FREE_SIGMA_REL * T1_FREE,
        )
        rates.append(dg)
        sigmas.append(relaxometry.delta_gamma(rec)[1])
        cells = (rec.t1_cupc, rec.t1_cupc_sigma, rec.t1_free, rec.t1_free_sigma)
        rows.append(f"NV1,{b!r}," + ",".join(repr(float(c) * 1e6) for c in cells))
    path.write_text("\n".join(rows) + "\n")
    return FitTruth(tau, theta, tuple(fields), tuple(rates), tuple(sigmas))


# ---------------------------------------------------------------------------
# warm-estimate: per-NV decay traces at seeded depths and noise levels
# ---------------------------------------------------------------------------

#: Relative noise levels of the decay traces (signal units, amplitude 1).
DECAY_NOISE = (0.01, 0.02, 0.04)
DECAY_POINTS = 40
DEPTH_RANGE_NM = (5.0, 12.0)


@dataclass(frozen=True)
class NvTruth:
    nv_id: str
    d_nv: float  # m
    noise: float
    t1_cupc: tuple[float, ...]  # s, per DEPTH_FIELDS entry
    files: tuple[tuple[float, Path, Path], ...]  # (b_gauss, film trace, free trace)


def unit_rates(cfg, fields=DEPTH_FIELDS) -> dict[float, float]:
    """Exact ΔΓ₁ per unit b₀² at the nominal τ_e, θ_e (depth enters only via b₀²)."""
    geom = cfg.film_geometry()
    b0_sq = bathspectrum.coupling_b0_sq(geom, gamma_e=cfg.constants.gamma_e)
    tau = cfg.bath.tau_e_ns * 1e-9
    theta = math.radians(cfg.hyperfine.theta_e_deg)
    return {b: exact_rate(cfg, b, tau, theta, geom) / b0_sq for b in fields}


def _write_decay(path: Path, t1: float, noise: float, rng) -> None:
    t = np.linspace(0.0, 4.0 * t1, DECAY_POINTS)
    y = np.exp(-t / t1) + noise * rng.standard_normal(t.size)
    rows = ["t_us,signal,sigma"]
    rows += [f"{ti * 1e6!r},{yi!r},{noise!r}" for ti, yi in zip(t.tolist(), y.tolist())]
    path.write_text("\n".join(rows) + "\n")


def write_nv(seed: int, index: int, cfg, unit: dict[float, float], out: Path) -> NvTruth:
    """NV number `index` of the seeded stream: depth, noise, and six traces."""
    rng = np.random.default_rng([seed, 2, index])
    d_nv = rng.uniform(*DEPTH_RANGE_NM) * 1e-9
    noise = float(DECAY_NOISE[rng.integers(len(DECAY_NOISE))])
    b0_sq = bathspectrum.coupling_b0_sq(
        cfg.film_geometry().replace(d_nv=d_nv), gamma_e=cfg.constants.gamma_e
    )
    nv_id = f"NV{index:04d}"
    t1s, files = [], []
    for b in DEPTH_FIELDS:
        t1c = 1.0 / (unit[b] * b0_sq + 1.0 / T1_FREE)
        film = out / f"{nv_id}_{b:g}G_film.csv"
        free = out / f"{nv_id}_{b:g}G_free.csv"
        _write_decay(film, t1c, noise, rng)
        _write_decay(free, T1_FREE, noise, rng)
        t1s.append(t1c)
        files.append((b, film, free))
    return NvTruth(nv_id, d_nv, noise, tuple(t1s), tuple(files))
