"""Command-line entry point: ``spinbath <command> --config ... --out ...``.

Commands
--------
spectrum   S_e(omega) on a grid at fixed field (or a field sweep of the
           predicted relaxation rate), CSV + summary JSON.
t1         Per-record delta-Gamma_1 +/- sigma with the model prediction
           at the configured nominal parameters.
fit        Landscape + local-minima fit of any of tau_e, theta_e and d_nv
           against one NV's measurement table.
tau-ee     No-hyperfine / delta-approximation / full self-consistent
           electron-electron correlation-time solves with a bracketing
           verdict; the full solve starts at the no-hyperfine bound.
depth      Per-NV depth estimate d_T1 with confidence interval, plus an
           optional join against reference depths.
decay-fit  Stretched-exponential fit of a single relaxation trace.

Every command writes its result files plus ``<command>_manifest.json``
into --out.  Outputs are deterministic for fixed inputs; the manifest
timestamp honours SOURCE_DATE_EPOCH so full byte-reproducibility is
available when that is pinned.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical
failure (a fixed point that does not converge, or `eigh` failing), 5
unidentifiable fit, 7 converged but ambiguous (multiple minima; `fit`
only).  Each error prints one line on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NO_CONVERGENCE = 4
EXIT_UNIDENTIFIABLE = 5
EXIT_AMBIGUOUS = 7

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _worker_count(text: str, cpus: int) -> int:
    """Worker threads for SPINBATH_THREADS=`text` on `cpus` usable CPUs.

    Unset or blank means one per CPU; a larger request is capped at `cpus`.
    Raises ValueError unless `text` is blank or a positive integer.
    """
    text = text.strip()
    if not text:
        return cpus
    if not text.isdecimal() or int(text) < 1:
        raise ValueError(f"SPINBATH_THREADS: expected a positive integer, got {text!r}")
    return min(int(text), cpus)


def _apply_thread_cap() -> int:
    """Pin BLAS to one thread before numpy loads; return the worker count.

    SPINBATH_THREADS is the number of threads that build the θ-cache of
    `fit` and `depth`, each running its own small `eigh` on one BLAS
    thread; unset, it is the number of CPUs this process may run on.  On
    2 vCPUs two such threads build the 5° cache of 4 fields in 1.0–1.5 s,
    a serial build on 2 BLAS threads in 1.6–1.7 s.
    When numpy is already loaded (an in-process caller), its BLAS threads
    are fixed and a pool would oversubscribe them, so the count is 1.
    """
    workers = _worker_count(
        os.environ.get("SPINBATH_THREADS", ""), len(os.sched_getaffinity(0))
    )
    if "numpy" in sys.modules:
        return 1
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    return workers


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        dt = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        dt = datetime.now(tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass
class _Run:
    """Shared per-invocation context handed to each command."""

    command: str
    config_path: Path
    out_dir: Path
    args: argparse.Namespace
    workers: int  # θ-cache build threads (SPINBATH_THREADS)
    notes: list[str] = field(default_factory=list)
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)

    def load_config(self):
        from .config import load_config

        return load_config(self.config_path)

    def track_input(self, path: str | Path) -> Path:
        from .io import sha256_of

        p = Path(path)
        self.inputs[str(p)] = sha256_of(p) if p.exists() else "missing"
        return p

    def write_json(self, name: str, obj) -> Path:
        from .io import write_json

        p = self.out_dir / name
        write_json(p, obj)
        self.outputs.append(name)
        return p

    def write_csv(self, name: str, header, rows) -> Path:
        from .io import write_csv

        p = self.out_dir / name
        write_csv(p, header, rows)
        self.outputs.append(name)
        return p

    def finish(self) -> None:
        from . import __version__
        from .io import sha256_of, write_json

        # provenance sidecar written next to every result file
        manifest = {
            "command": self.command,
            "version": __version__,
            "config_hash": (
                sha256_of(self.config_path) if self.config_path.exists() else None
            ),
            "input_hashes": dict(sorted(self.inputs.items())),
            "timestamp": _timestamp(),
            "outputs": list(self.outputs),
            "notes": list(self.notes),
        }
        name = f"{self.command.replace('-', '_')}_manifest.json"
        write_json(self.out_dir / name, manifest)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_spectrum(run: _Run) -> int:
    import numpy as np

    from .bathspectrum import spectral_density
    from .constants import TWO_PI, gauss_to_tesla
    from .relaxometry import nv_frequency

    cfg = run.load_config()
    a = run.args
    tau_e = (a.tau_e_ns if a.tau_e_ns is not None else cfg.bath.tau_e_ns) * 1e-9
    theta = math.radians(
        a.theta_e_deg if a.theta_e_deg is not None else cfg.hyperfine.theta_e_deg
    )
    nv = cfg.nv_config()

    if a.sweep:
        lo, hi, n = a.sweep
        fields = np.linspace(lo, hi, int(n))
        rows = []
        for b in fields:
            model = cfg.bath_model(gauss_to_tesla(b), tau_e, theta)
            w_nv = nv_frequency(nv, gauss_to_tesla(b))
            s_nv = float(spectral_density(model, w_nv))
            rows.append((float(b), w_nv / TWO_PI / 1e9, s_nv, nv.gamma_e**2 * s_nv))
        run.write_csv(
            "spectrum_sweep.csv",
            ("b_gauss", "omega_nv_ghz", "s_e_t2s", "gamma1_per_s"),
            rows,
        )
        peak = max(rows, key=lambda r: r[3])
        run.notes.append(f"sweep maximum at {peak[0]:.1f} G")
        print(f"spectrum: field sweep {lo:g}-{hi:g} G, peak rate at {peak[0]:.1f} G")
    else:
        b_tesla = gauss_to_tesla(a.field)
        model = cfg.bath_model(b_tesla, tau_e, theta)
        omega = TWO_PI * 1e9 * np.linspace(a.omega_min_ghz, a.omega_max_ghz, a.points)
        s = spectral_density(model, omega)
        run.write_csv(
            "spectrum.csv",
            ("omega_ghz", "s_e_t2s"),
            zip(omega / TWO_PI / 1e9, s),
        )
        w_nv = nv_frequency(nv, b_tesla)
        # one S_e(ω_NV) for both: Γ₁ = γ_e² S_e(ω_NV), as `relaxation_rate`
        s_nv = float(spectral_density(model, w_nv))
        summary = {
            "b_gauss": a.field,
            "tau_e_ns": tau_e * 1e9,
            "theta_e_deg": math.degrees(theta),
            "omega_nv_ghz": w_nv / TWO_PI / 1e9,
            "s_e_at_omega_nv_t2s": s_nv,
            "gamma1_at_omega_nv_per_s": nv.gamma_e**2 * s_nv,
        }
        run.write_json("spectrum_summary.json", summary)
        print(
            f"spectrum: B = {a.field:g} G, omega_nv = "
            f"{summary['omega_nv_ghz']:.4f} GHz, "
            f"Gamma_1 = {summary['gamma1_at_omega_nv_per_s']:.4g} /s"
        )
    return EXIT_OK


def cmd_t1(run: _Run) -> int:
    from .constants import gauss_to_tesla
    from .io import load_measurements
    from .relaxometry import delta_gamma, relaxation_rate

    cfg = run.load_config()
    records = load_measurements(run.track_input(run.args.data))
    header = (
        "nv_id",
        "b_gauss",
        "delta_gamma_per_s",
        "delta_gamma_sigma_per_s",
        "delta_gamma_model_per_s",
    )
    if not records:
        run.write_csv("t1_table.csv", header, [])
        print("t1: no records")
        return EXIT_OK

    tau_e = cfg.bath.tau_e_ns * 1e-9
    nv = cfg.nv_config()
    model_rate: dict[float, float] = {}
    for b in sorted({r.b_gauss for r in records}):
        model = cfg.bath_model(gauss_to_tesla(b), tau_e)
        model_rate[b] = relaxation_rate(model, nv, gauss_to_tesla(b))

    rows = []
    for rec in records:
        dg, sg = delta_gamma(rec)
        rows.append((rec.nv_id, rec.b_gauss, dg, sg, model_rate[rec.b_gauss]))
    run.write_csv("t1_table.csv", header, rows)
    print(f"{'nv_id':>8} {'B (G)':>8} {'dGamma (1/s)':>14} {'sigma':>12} {'model':>12}")
    for r in rows:
        print(f"{r[0]:>8} {r[1]:>8.1f} {r[2]:>14.4g} {r[3]:>12.3g} {r[4]:>12.4g}")
    return EXIT_OK


def _forward_model(cfg, fields, workers: int = 1):
    from .estimator import ForwardModel

    return ForwardModel(
        fields_gauss=fields,
        base_spec=cfg.spin_spec(b_field=1e-4),  # placeholder; replaced per field
        nv=cfg.nv_config(),
        theta_step=math.radians(cfg.fit.theta_step_deg),
        bin_width=2.0 * math.pi * cfg.fit.bin_mhz * 1e6,
        workers=workers,
        **cfg.spectrum_args(),
    )


def _grid_points(run: _Run, cfg) -> int:
    """--grid, else fit.grid_points; both must be an integer >= 4."""
    from .errors import ConfigError

    grid = cfg.fit.grid_points if run.args.grid is None else run.args.grid
    if grid < 4:
        raise ConfigError(f"--grid: expected an integer >= 4, got {grid}")
    return grid


def _fixed_params(cfg, free: tuple[str, ...]) -> dict:
    fixed = dict(cfg.nuisance_intervals())  # d_nv, h, n_e
    lo, hi = cfg.bath.tau_e_interval_ns
    fixed["tau_e"] = (cfg.bath.tau_e_ns * 1e-9, (lo * 1e-9, hi * 1e-9))
    th = math.radians(cfg.hyperfine.theta_e_deg)
    fixed["theta_e"] = (th, (th, th))
    for name in free:
        fixed.pop(name, None)
    return fixed


def _write_landscape(run: _Run, result) -> None:
    """fit_landscape.csv: one row per searched grid point, the axes it names."""
    import numpy as np

    grids, obj = result.landscape
    mesh = np.meshgrid(*grids.values(), indexing="ij")
    rows = zip(*[m.ravel() for m in mesh], obj.ravel())
    run.write_csv("fit_landscape.csv", (*grids, "objective"), rows)


def cmd_fit(run: _Run) -> int:
    from .errors import ConfigError
    from .estimator import FitProblem, check_free, confidence_region, fit
    from .io import load_measurements
    from .relaxometry import MeasurementSet

    cfg = run.load_config()
    records = load_measurements(run.track_input(run.args.data))
    free = tuple(s.strip() for s in run.args.free.split(",") if s.strip())
    # validate before the θ-cache build, which dominates a cold fit
    try:
        check_free(free, records)
    except ValueError as exc:
        raise ConfigError(f"--free: {exc}") from None
    grid = _grid_points(run, cfg)
    fields = sorted({r.b_gauss for r in records})

    problem = FitProblem(
        data=MeasurementSet(records),
        model=_forward_model(cfg, fields, run.workers),
        geometry=cfg.film_geometry(),
        free=free,
        fixed=_fixed_params(cfg, free),
        boxes=cfg.fit_boxes(),
    )
    result = fit(problem, grid_points=grid)
    conf = confidence_region(
        problem, result, epsilon_scale=cfg.fit.epsilon_scale, grid_points=grid
    )
    payload = result.as_dict()
    payload["confidence"] = conf
    payload["n_records"] = len(records)
    payload["fields_gauss"] = fields
    run.write_json("fit.json", payload)
    _write_landscape(run, result)

    best = result.best
    pretty = ", ".join(_pretty_param(k, v) for k, v in sorted(best.items()))
    print(f"fit: {result.n_minima} minimum(a); best [{pretty}]")
    if result.boundary_minimum:
        run.notes.append("global minimum sits on the search-box boundary")
        print("fit: warning - minimum on search-box boundary")
    if result.n_minima > 1:
        run.notes.append(f"{result.n_minima} local minima within the keep band")
        print("fit: ambiguous landscape (multiple minima)")
        return EXIT_AMBIGUOUS
    return EXIT_OK


def _pretty_param(name: str, value: float) -> str:
    if name == "tau_e":
        return f"tau_e = {value * 1e9:.3g} ns"
    if name == "theta_e":
        return f"theta_e = {math.degrees(value):.3g} deg"
    if name == "d_nv":
        return f"d_nv = {value * 1e9:.3g} nm"
    return f"{name} = {value:.4g}"


def cmd_tau_ee(run: _Run) -> int:
    from .constants import gauss_to_tesla
    from .eesolver import (
        delta_approx_tau,
        no_hyperfine_tau,
        solve_tau_self_consistent,
    )
    from .spinmodel import isotope_family_spectrum

    cfg = run.load_config()
    lattice = cfg.lattice_model()
    gamma_e = cfg.constants.gamma_e
    tau_nh = no_hyperfine_tau(lattice, gamma_e=gamma_e)

    per_field = []
    orderings = []
    for b in cfg.bath.fields_gauss:
        spectrum = isotope_family_spectrum(
            cfg.spin_spec(gauss_to_tesla(b)), **cfg.spectrum_args()
        )
        report = solve_tau_self_consistent(lattice, spectrum, gamma_e=gamma_e)
        tau_delta = delta_approx_tau(lattice, spectrum, gamma_e=gamma_e)
        ordered = tau_nh <= report.tau_e <= tau_delta
        orderings.append(ordered)
        per_field.append(
            {
                "b_gauss": b,
                "tau_full_ns": report.tau_e * 1e9,
                "tau_delta_ns": tau_delta * 1e9,
                "iterations": report.iterations,
                "residual": report.residual,
                "cutoff_convergence": report.cutoff_convergence,
                "ordering_ok": ordered,
            }
        )

    lo, hi = cfg.bath.tau_e_interval_ns
    full_ns = [row["tau_full_ns"] for row in per_field]
    in_band = [lo <= t <= hi for t in full_ns]
    verdict = "bracketed" if all(orderings) else "ordering violated"
    payload = {
        "theta_e_deg": cfg.hyperfine.theta_e_deg,
        "tau_no_hyperfine_ns": tau_nh * 1e9,
        "per_field": per_field,
        "bracketing_verdict": verdict,
        "measured_tau_interval_ns": [lo, hi],
        "full_solve_within_measured_interval": in_band,
    }
    run.write_json("tau_ee.json", payload)

    if not all(orderings):
        run.notes.append("bracketing violated: full solve escaped [no-hyperfine, delta]")
    for row, ok in zip(per_field, in_band):
        if not ok:
            run.notes.append(
                f"discrepancy at {row['b_gauss']:g} G: full self-consistent "
                f"tau_e = {row['tau_full_ns']:.3g} ns lies outside the measured "
                f"interval [{lo:g}, {hi:g}] ns; the dipolar-only model "
                f"over-predicts the electron-electron rate at this texture"
            )
    print(f"tau-ee: no-hyperfine {tau_nh * 1e9:.3g} ns; verdict: {verdict}")
    for row in per_field:
        print(
            f"  {row['b_gauss']:>6g} G  full {row['tau_full_ns']:.3g} ns  "
            f"delta {row['tau_delta_ns']:.3g} ns"
        )
    if run.notes:
        print("tau-ee: " + "; ".join(run.notes))
    return EXIT_OK


_DETUNED_MARGIN_GHZ = 0.35  # |omega_NV - gamma_e B| above this counts as detuned


def _is_detuned(cfg, b_gauss: float) -> bool:
    """Fields where the NV frequency clears the dense hyperfine band.

    Near the theta-sensitive window the NV frequency sits inside the
    spread of hyperfine transition lines, so theta_e leverage is large and
    the depth method's flat-theta precondition fails.
    """
    from .constants import TWO_PI, gauss_to_tesla
    from .relaxometry import nv_frequency

    w_nv = nv_frequency(cfg.nv_config(), gauss_to_tesla(b_gauss))
    w_zeeman = cfg.constants.gamma_e * gauss_to_tesla(b_gauss)
    return abs(w_nv - w_zeeman) > TWO_PI * 1e9 * _DETUNED_MARGIN_GHZ


def cmd_depth(run: _Run) -> int:
    from .errors import UnidentifiableError
    from .estimator import FitProblem, estimate_depth
    from .io import load_measurements, load_reference_depths
    from .relaxometry import MeasurementSet

    cfg = run.load_config()
    records = load_measurements(run.track_input(run.args.data))
    if not records:
        raise UnidentifiableError("depth: measurement table is empty")
    reference = (
        load_reference_depths(run.track_input(run.args.reference))
        if run.args.reference
        else {}
    )
    grid = _grid_points(run, cfg)
    fields = sorted({r.b_gauss for r in records})
    model = _forward_model(cfg, fields, run.workers)
    free = ("d_nv", "theta_e")
    fixed = _fixed_params(cfg, free)

    by_nv: dict[str, list] = {}
    for rec in records:
        by_nv.setdefault(rec.nv_id, []).append(rec)

    rows = []
    failures = []
    for nv_id in sorted(by_nv):
        recs = by_nv[nv_id]
        if not any(_is_detuned(cfg, r.b_gauss) for r in recs):
            run.notes.append(
                f"{nv_id}: all fields sit in the theta-sensitive window; the "
                f"depth method assumes detuned fields where theta_e leverage "
                f"is weak"
            )
        try:
            problem = FitProblem(
                data=MeasurementSet(tuple(recs)),
                model=model,
                geometry=cfg.film_geometry(),
                free=free,
                fixed=fixed,
                boxes=cfg.fit_boxes(),
            )
            result = estimate_depth(
                problem, grid_points=grid, epsilon_scale=cfg.fit.epsilon_scale
            )
        except UnidentifiableError as exc:
            failures.append(nv_id)
            rows.append({"nv_id": nv_id, "identifiable": False, "reason": str(exc)})
            continue
        d_nm = result.best["d_nv"] * 1e9
        # one exact interval; an empty region (no d_nv fits every record
        # within ε) is null
        d_range = next(([a * 1e9, b * 1e9] for a, b in result.confidence["d_nv"]), None)
        row = {
            "nv_id": nv_id,
            "identifiable": True,
            "d_t1_nm": d_nm,
            "d_t1_interval_nm": d_range,
            "theta_e_deg": math.degrees(result.best["theta_e"]),
            "n_records": len(recs),
            "boundary_minimum": result.boundary_minimum,
        }
        if nv_id in reference:
            row["d_ref_nm"] = reference[nv_id] * 1e9
            row["d_t1_minus_d_ref_nm"] = d_nm - reference[nv_id] * 1e9
        rows.append(row)

    run.write_json("depth.json", {"per_nv": rows, "tau_e_ns": cfg.bath.tau_e_ns})
    for row in rows:
        if row.get("identifiable"):
            ref = (
                f"  (d_ref {row['d_ref_nm']:.2f} nm, diff "
                f"{row['d_t1_minus_d_ref_nm']:+.2f} nm)"
                if "d_ref_nm" in row
                else ""
            )
            d_range = row["d_t1_interval_nm"]
            region = f"{d_range[0]:.2f}, {d_range[1]:.2f}" if d_range else "empty"
            print(
                f"depth: {row['nv_id']} d_T1 = {row['d_t1_nm']:.2f} nm "
                f"[{region}]{ref}"
            )
            if row["boundary_minimum"]:
                print(
                    f"depth: warning - {row['nv_id']}: minimum on search-box boundary"
                )
        else:
            print(f"depth: {row['nv_id']} unidentifiable ({row['reason']})")
    for note in run.notes:
        print(f"depth: warning - {note}")
    if failures and len(failures) == len(by_nv):
        raise UnidentifiableError("depth: no NV yielded an identifiable fit")
    return EXIT_OK


def cmd_decay_fit(run: _Run) -> int:
    from .errors import DataFormatError
    from .io import load_decay_curve
    from .relaxometry import MIN_DECAY_SAMPLES, fit_decay

    curve = load_decay_curve(run.track_input(run.args.data))
    if len(curve) < MIN_DECAY_SAMPLES:
        raise DataFormatError(
            f"{run.args.data}: a decay fit needs at least {MIN_DECAY_SAMPLES} "
            f"samples, got {len(curve)}"
        )
    try:
        result = fit_decay(curve)
    except DataFormatError as exc:
        raise DataFormatError(f"{run.args.data}: {exc}") from None
    payload = result.as_dict()
    payload["T1_us"] = result.t1 * 1e6
    payload["T1_sigma_us"] = result.t1_sigma * 1e6
    payload["n_points"] = len(curve)
    run.write_json("decay_fit.json", payload)
    print(
        f"decay-fit: T1 = {result.t1 * 1e6:.3g} +/- {result.t1_sigma * 1e6:.2g} us, "
        f"iota = {result.iota:.3g} +/- {result.iota_sigma:.2g}, "
        f"chi2_red = {result.chi2_red:.3g}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing / dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors are one line on stderr and exit 2."""

    def error(self, message: str):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _number(kind=float, lo: float = 0.0, hi: float = math.inf, above: bool = False):
    """argparse type: a finite `kind` in [lo, hi], or in (lo, hi] if `above`."""
    if hi < math.inf:
        want = f"in [{lo:g}, {hi:g}]"
    else:
        want = f"{'>' if above else '>='} {lo:g}"
    want = f"{'an integer' if kind is int else 'a finite number'} {want}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value > lo if above else value >= lo)
                and value <= hi):
            raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}")
        return value

    return parse


def _sweep_spec(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected LO,HI,N")
    lo, hi, n = _number()(parts[0]), _number()(parts[1]), int(parts[2])
    if n < 2 or hi <= lo:
        raise argparse.ArgumentTypeError("expected LO < HI and N >= 2")
    return lo, hi, n


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinbath",
        description="NV relaxometry toolkit for electron-spin bath films",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="YAML config path")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("spectrum", help="bath spectral density S_e(omega)")
    common(p)
    p.add_argument("--field", type=_number(), default=461.0, help="bias field in gauss")
    p.add_argument("--theta-e-deg", type=_number(hi=90.0), default=None)
    p.add_argument("--tau-e-ns", type=_number(above=True), default=None)
    p.add_argument("--omega-min-ghz", type=_number(), default=0.1)
    p.add_argument("--omega-max-ghz", type=_number(), default=6.0)
    p.add_argument("--points", type=_number(int, lo=1), default=1200)
    p.add_argument(
        "--sweep",
        type=_sweep_spec,
        default=None,
        metavar="LO,HI,N",
        help="sweep the field instead, evaluating S_e at omega_NV(B)",
    )

    p = sub.add_parser("t1", help="delta-Gamma_1 table vs model prediction")
    common(p)
    p.add_argument("--data", required=True, help="measurement CSV")

    p = sub.add_parser("fit", help="parameter estimation from delta-Gamma_1 records")
    common(p)
    p.add_argument("--data", required=True, help="measurement CSV")
    p.add_argument("--free", default="tau_e,theta_e", help="any of tau_e,theta_e,d_nv")
    p.add_argument("--grid", type=int, default=None, help="landscape grid points")

    p = sub.add_parser("tau-ee", help="self-consistent electron-electron tau_e")
    common(p)

    p = sub.add_parser("depth", help="per-NV depth from detuned-field records")
    common(p)
    p.add_argument("--data", required=True, help="measurement CSV")
    p.add_argument("--reference", default=None, help="reference depth CSV (optional)")
    p.add_argument("--grid", type=int, default=None)

    p = sub.add_parser("decay-fit", help="stretched-exponential decay fit")
    common(p)
    p.add_argument("--data", required=True, help="decay CSV")

    return parser


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "t1": cmd_t1,
    "fit": cmd_fit,
    "tau-ee": cmd_tau_ee,
    "depth": cmd_depth,
    "decay-fit": cmd_decay_fit,
}


def main(argv=None) -> int:
    try:
        workers = _apply_thread_cap()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "spectrum" and not args.omega_min_ghz < args.omega_max_ghz:
        parser.error("expected --omega-min-ghz < --omega-max-ghz")

    from .errors import (
        ConfigError,
        ConvergenceError,
        DataFormatError,
        UnidentifiableError,
    )

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out_dir}: {exc}", file=sys.stderr)
        return EXIT_DATA

    run = _Run(
        command=args.command,
        config_path=Path(args.config),
        out_dir=out_dir,
        args=args,
        workers=workers,
    )
    try:
        code = _COMMANDS[args.command](run)
        run.finish()
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConvergenceError as exc:
        run.notes.append(str(exc))
        run.finish()
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except UnidentifiableError as exc:
        print(f"unidentifiable: {exc}", file=sys.stderr)
        return EXIT_UNIDENTIFIABLE


if __name__ == "__main__":
    raise SystemExit(main())
