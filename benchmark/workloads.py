"""The three closed-loop workloads, one client each.

Each workload has a repeatable ``setup`` (timed as ``setup_s``), an
untimed ``prepare`` that derives what the checks compare against, and an
``execute``/``check`` pair for one operation.  The next operation starts
when the previous one returns.

* cold-fit: ``spinbath fit --free tau_e,theta_e`` as a subprocess on a
  fresh exact four-field table; a user's first fit on a new config, which
  is mostly the θ-cache build (``spinmodel`` diagonalizations).
* warm-estimate: the per-NV depth pipeline in process (``fit_decay`` →
  ``MeasurementSet`` → ``estimate_depth``) against one ForwardModel built
  in set-up; many-NV traffic that is nearly all ``estimator`` work.
* forward-physics: ``spinbath spectrum`` at every shipped field, then
  ``spinbath tau-ee``; the prediction path, dominated by raw Lorentzian
  sums (``bathspectrum``) and the overlap integrals (``eesolver``).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
from spinbath import config, estimator, io, relaxometry
from spinbath.errors import SpinbathError

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SHIPPED_CONFIG = ROOT / "configs" / "cupc.yaml"
REFERENCE = BENCH_DIR / "reference.json"


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is the benchmark, TINY only feeds the self-test."""

    cold_theta_step_deg: float = 5.0
    warm_theta_step_deg: float = 30.0
    grid: int | None = None  # None: the config's fit.grid_points (64)
    spectrum_points: int | None = None  # None: the CLI default (1200)
    fields: tuple[float, ...] | None = None  # None: the config's fields
    setup_repeats: int = 3


FULL = Scale()
TINY = Scale(
    cold_theta_step_deg=30.0,
    warm_theta_step_deg=45.0,
    grid=12,
    spectrum_points=50,
    fields=(461.0,),
    setup_repeats=1,
)


@dataclass
class Execution:
    """One operation: its wall time, what it produced, sub-timings."""

    wall: float
    outputs: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def run_cli(args: list[str], work: Path, tracer, op: str, timeout: float):
    """Run one ``spinbath`` command; returns (exit code or None, wall, stderr).

    Untraced, this is ``python -m spinbath.cli``; traced, the same command
    runs in process under ``tracer.py`` and its spans join `tracer`.
    """
    if tracer is None:
        cmd = [sys.executable, "-m", "spinbath.cli", *args]
    else:
        spans = work / f"spans-{op}.json"
        cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), op, "--", *args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
        code, err = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        code, err = None, f"timed out after {timeout:.0f} s"
    wall = time.perf_counter() - t0
    if tracer is not None and spans.exists():
        tracer.merge(json.loads(spans.read_text()), op)
        spans.unlink()
    return code, wall, err


def _cli_problem(name: str, code, err: str) -> list[str]:
    if code == 0:
        return []
    tail = err.strip().splitlines()[-1:] or [""]
    return [f"{name} exit {code}: {tail[0]}"]


class ColdFit:
    name = "cold-fit"
    in_process = False

    def __init__(self, seed: int, work: Path, scale: Scale = FULL):
        self.seed, self.work, self.scale = seed, work, scale

    def setup(self) -> None:
        self.cfg = config.load_config(SHIPPED_CONFIG)
        self.config_path = inputs.config_copy(
            ROOT,
            self.work / "cupc_coarse.yaml",
            theta_step_deg=repr(self.scale.cold_theta_step_deg),
        )
        self.fields = tuple(self.cfg.bath.fields_gauss)
        tau, theta = inputs.fit_truth(self.seed, self.cfg)
        self.data = self.work / "t1.csv"
        self.truth = inputs.write_fit_table(self.data, self.cfg, self.fields, tau, theta)

    def prepare(self) -> None:
        self.tol = checks.fit_tolerance(self.cfg, self.truth, self.scale.cold_theta_step_deg)

    def describe(self) -> dict:
        return {
            "theta_step_deg": self.scale.cold_theta_step_deg,
            "grid": self.scale.grid or self.cfg.fit.grid_points,
            "fields_gauss": list(self.fields),
            "truth_tau_e_ns": self.truth.tau_e * 1e9,
            "truth_theta_e_deg": math.degrees(self.truth.theta_e),
            "tolerance": self.tol,
        }

    def execute(self, k: int, tracer, timeout: float) -> Execution:
        out = self.work / f"fit-{k}"
        shutil.rmtree(out, ignore_errors=True)
        args = ["fit", "--config", str(self.config_path), "--data", str(self.data)]
        args += ["--free", "tau_e,theta_e", "--out", str(out)]
        if self.scale.grid:
            args += ["--grid", str(self.scale.grid)]
        code, wall, err = run_cli(args, self.work, tracer, f"op-{k}", timeout)
        return Execution(
            wall,
            {"dir": out},
            {"fit_cold_s": wall},
            _cli_problem("fit", code, err),
        )

    def check(self, ex: Execution) -> list[str]:
        if ex.problems:
            return ex.problems
        payload = json.loads((ex.outputs["dir"] / "fit.json").read_text())
        return checks.check_fit(payload, self.truth, self.tol)


class WarmEstimate:
    name = "warm-estimate"
    in_process = True

    def __init__(self, seed: int, work: Path, scale: Scale = FULL):
        self.seed, self.work, self.scale = seed, work, scale
        self.nv_dir = work / "nv"

    def setup(self) -> None:
        cfg = self.cfg = config.load_config(SHIPPED_CONFIG)
        self.nv_dir.mkdir(parents=True, exist_ok=True)
        self.unit = inputs.unit_rates(cfg)
        self.model = estimator.ForwardModel(
            fields_gauss=inputs.DEPTH_FIELDS,
            base_spec=cfg.spin_spec(b_field=1e-4),
            nv=cfg.nv_config(),
            theta_step=math.radians(self.scale.warm_theta_step_deg),
            bin_width=2.0 * math.pi * cfg.fit.bin_mhz * 1e6,
        )
        # the depth pipeline's fixed set, as `spinbath depth` builds it
        fixed = dict(cfg.nuisance_intervals())
        fixed.pop("d_nv")
        lo, hi = cfg.bath.tau_e_interval_ns
        fixed["tau_e"] = (cfg.bath.tau_e_ns * 1e-9, (lo * 1e-9, hi * 1e-9))
        self.fixed = fixed

    def prepare(self) -> None:
        self.nvs: list[dict] = []

    def describe(self) -> dict:
        return {
            "theta_step_deg": self.scale.warm_theta_step_deg,
            "grid": self.scale.grid or self.cfg.fit.grid_points,
            "fields_gauss": list(inputs.DEPTH_FIELDS),
            "nv_count": len(self.nvs),
            "nvs": self.nvs,
        }

    def execute(self, k: int, tracer, timeout: float) -> Execution:
        cfg = self.cfg
        nv = inputs.write_nv(self.seed, k, cfg, self.unit, self.nv_dir)
        self.nvs.append({"nv_id": nv.nv_id, "d_nv_nm": nv.d_nv * 1e9, "noise": nv.noise})
        fits, result, problems = [], None, []
        t0 = time.perf_counter()
        traced = tracer.recording(f"op-{k}") if tracer else contextlib.nullcontext()
        with traced:
            try:
                records = []
                for b, film, free in nv.files:
                    film_fit = relaxometry.fit_decay(io.load_decay_curve(film))
                    free_fit = relaxometry.fit_decay(io.load_decay_curve(free))
                    fits.append((film_fit, free_fit))
                    records.append(
                        relaxometry.T1Record(
                            nv.nv_id, b, film_fit.t1, film_fit.t1_sigma,
                            free_fit.t1, free_fit.t1_sigma,
                        )
                    )
                problem = estimator.FitProblem(
                    data=relaxometry.MeasurementSet(tuple(records)),
                    model=self.model,
                    geometry=cfg.film_geometry(),
                    free=("d_nv", "theta_e"),
                    fixed=self.fixed,
                    boxes=cfg.fit_boxes(),
                )
                result = estimator.estimate_depth(
                    problem, grid_points=self.scale.grid or cfg.fit.grid_points
                )
            except (SpinbathError, ArithmeticError, LookupError, ValueError) as exc:
                problems.append(f"{nv.nv_id}: {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        for f in nv.files:
            f[1].unlink()
            f[2].unlink()
        return Execution(
            wall,
            {"nv": nv, "fits": fits, "result": result},
            {"estimate_s": wall},
            problems,
        )

    def check(self, ex: Execution) -> list[str]:
        if ex.problems:
            return ex.problems
        d_box = self.cfg.fit_boxes()["d_nv"]
        return checks.check_nv(ex.outputs["nv"], ex.outputs["fits"], ex.outputs["result"], d_box)


class ForwardPhysics:
    name = "forward-physics"
    in_process = False

    def __init__(self, seed: int, work: Path, scale: Scale = FULL):
        self.seed, self.work, self.scale = seed, work, scale

    def setup(self) -> None:
        self.config_path = SHIPPED_CONFIG
        if self.scale.fields:
            self.config_path = inputs.config_copy(
                ROOT,
                self.work / "cupc_fields.yaml",
                fields_gauss=repr(list(self.scale.fields)),
            )
        self.cfg = config.load_config(self.config_path)
        self.reference = json.loads(REFERENCE.read_text())
        rng = np.random.default_rng([self.seed, 3])
        fields = list(self.cfg.bath.fields_gauss)
        self.order = [fields[i] for i in rng.permutation(len(fields))]

    def prepare(self) -> None:
        pass

    def describe(self) -> dict:
        return {
            "fields_gauss": self.order,
            "points": self.scale.spectrum_points or 1200,
        }

    def execute(self, k: int, tracer, timeout: float) -> Execution:
        deadline = time.perf_counter() + timeout
        spectra, problems, spectrum_s = [], [], 0.0
        for b in self.order:
            out = self.work / f"spectrum-{k}-{b:g}"
            shutil.rmtree(out, ignore_errors=True)
            args = ["spectrum", "--config", str(self.config_path), "--field", repr(b)]
            args += ["--out", str(out)]
            if self.scale.spectrum_points:
                args += ["--points", str(self.scale.spectrum_points)]
            code, wall, err = run_cli(
                args, self.work, tracer, f"op-{k}", deadline - time.perf_counter()
            )
            spectrum_s += wall
            spectra.append(out)
            problems += _cli_problem(f"spectrum {b:g} G", code, err)
        out = self.work / f"tau-ee-{k}"
        shutil.rmtree(out, ignore_errors=True)
        args = ["tau-ee", "--config", str(self.config_path), "--out", str(out)]
        code, tau_ee_s, err = run_cli(
            args, self.work, tracer, f"op-{k}", deadline - time.perf_counter()
        )
        problems += _cli_problem("tau-ee", code, err)
        return Execution(
            spectrum_s + tau_ee_s,
            {"spectra": spectra, "tau_ee": out},
            {"spectrum_s": spectrum_s, "tau_ee_s": tau_ee_s},
            problems,
        )

    def check(self, ex: Execution) -> list[str]:
        if ex.problems:
            return ex.problems
        problems = []
        points = self.scale.spectrum_points or 1200
        for out in ex.outputs["spectra"]:
            summary = json.loads((out / "spectrum_summary.json").read_text())
            n_rows = len((out / "spectrum.csv").read_text().splitlines()) - 1
            problems += checks.check_spectrum(summary, n_rows, points, self.reference)
        payload = json.loads((ex.outputs["tau_ee"] / "tau_ee.json").read_text())
        problems += checks.check_tau_ee(payload, self.order, self.reference)
        return problems


WORKLOADS = {w.name: w for w in (ColdFit, WarmEstimate, ForwardPhysics)}
