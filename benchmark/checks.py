"""Correctness checks on the program's outputs; every failed check counts in
the run's ``failed`` total.

Each check returns a list of problems (empty when the output is correct),
so the self-test can feed it a corrupted output and see it rejected.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from spinbath import bathspectrum, relaxometry
from spinbath.constants import gauss_to_tesla

from inputs import T1_FREE

# ---------------------------------------------------------------------------
# cold-fit: recovered (τ_e, θ_e) against the truth
# ---------------------------------------------------------------------------

#: Nelder–Mead ``xatol`` of ``estimator.fit`` in its unit search box.
NM_XATOL = 1e-5
#: Bound on the relative S_e error of the estimator's 1 MHz line binning
#: (documented at ``estimator.DEFAULT_BIN``).
BIN_REL_ERR = 1e-5
#: The interpolation bias is predicted to first order; doubling it covers
#: the neglected second-order terms.
SECOND_ORDER = 2.0
#: Relative step of the numerical d/d(ln τ_e) derivative.
LOG_TAU_STEP = 1e-4


def _rates_vs_tau(cfg, fields, theta: float, taus) -> np.ndarray:
    """Exact ΔΓ₁ (fields × taus) at one θ_e, one spectrum per field."""
    out = np.empty((len(fields), len(taus)))
    nv = cfg.nv_config()
    for i, b in enumerate(fields):
        model = bathspectrum.cupc_bath_model(
            cfg.spin_spec(gauss_to_tesla(b), theta),
            taus[0],
            cfg.film_geometry(),
            isotopes=cfg.isotopes(),
            eta_floor=cfg.hyperfine.eta_floor,
            gamma_e=cfg.constants.gamma_e,
        )
        for k, tau in enumerate(taus):
            out[i, k] = relaxometry.relaxation_rate(
                replace(model, tau_e=tau), nv, gauss_to_tesla(b)
            )
    return out


def fit_tolerance(cfg, truth, theta_step_deg: float) -> dict[str, float]:
    """Allowed |ln τ̂/τ| and |θ̂ − θ| (rad) for a fit to exact data.

    The estimator interpolates ΔΓ₁ linearly between θ nodes
    ``theta_step_deg`` apart, so exact data differ from the cached model
    at the truth by the interpolation error e.  To first order the
    weighted least-squares minimum moves by δ = (JᵀWJ)⁻¹JᵀW e, with J the
    model's sensitivity to (ln τ_e, θ_e) and W the inverse data variances.
    The tolerance is SECOND_ORDER·|δ|, plus the same map applied to the
    binning error bound, plus the Nelder–Mead stopping tolerance.
    """
    step = math.radians(theta_step_deg)
    theta = truth.theta_e
    top = math.pi / 2
    j = min(int(math.floor(theta / step)), int(math.ceil(top / step)) - 1)
    th0, th1 = j * step, min((j + 1) * step, top)
    u = (theta - th0) / (th1 - th0)
    taus = [truth.tau_e, truth.tau_e * (1 + LOG_TAU_STEP), truth.tau_e * (1 - LOG_TAU_STEP)]
    r0 = _rates_vs_tau(cfg, truth.fields, th0, taus)
    r1 = _rates_vs_tau(cfg, truth.fields, th1, taus)
    interp = (1 - u) * r0 + u * r1
    y = np.asarray(truth.rates)
    err = y - interp[:, 0]
    jac = np.column_stack(
        [
            (interp[:, 1] - interp[:, 2]) / (2 * LOG_TAU_STEP),
            (r1[:, 0] - r0[:, 0]) / (th1 - th0),
        ]
    )
    w = 1.0 / np.asarray(truth.sigmas) ** 2
    gain = np.linalg.solve(jac.T @ (w[:, None] * jac), jac.T * w)
    shift = gain @ err
    binning = np.abs(gain) @ (BIN_REL_ERR * np.abs(y))
    lo_tau, hi_tau = cfg.fit_boxes()["tau_e"]
    lo_th, hi_th = cfg.fit_boxes()["theta_e"]
    nm = np.array([NM_XATOL * math.log(hi_tau / lo_tau), NM_XATOL * (hi_th - lo_th)])
    tol = SECOND_ORDER * np.abs(shift) + binning + nm
    return {
        "log_tau": float(tol[0]),
        "theta": float(tol[1]),
        "predicted_log_tau_shift": float(shift[0]),
        "predicted_theta_shift": float(shift[1]),
    }


def check_fit(payload: dict, truth, tol: dict) -> list[str]:
    """fit.json: one global minimum within `tol` of the truth."""
    try:
        best = payload["minima"][0]["params"]
        d_log_tau = math.log(best["tau_e"] / truth.tau_e)
        d_theta = best["theta_e"] - truth.theta_e
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"fit.json unreadable: {exc!r}"]
    problems = []
    if not abs(d_log_tau) <= tol["log_tau"]:
        problems.append(f"tau_e off by {d_log_tau:+.3e} (log), allowed {tol['log_tau']:.3e}")
    if not abs(d_theta) <= tol["theta"]:
        problems.append(
            f"theta_e off by {math.degrees(d_theta):+.4f} deg, "
            f"allowed {math.degrees(tol['theta']):.4f} deg"
        )
    return problems


# ---------------------------------------------------------------------------
# forward-physics: spectrum and tau-ee against values recorded at the seed
# ---------------------------------------------------------------------------

#: Γ₁(ω_NV) agreement with the recorded reference.
GAMMA1_REL_TOL = 1e-5
#: ``solve_tau_self_consistent``'s default ``rel_tol``.
TAU_REL_TOL = 1e-3


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_spectrum(summary: dict, n_rows: int, points: int, reference: dict) -> list[str]:
    key = f"{float(summary.get('b_gauss', 'nan')):g}"
    if key not in reference["gamma1_per_s"]:
        return [f"spectrum summary for an unexpected field {summary.get('b_gauss')!r}"]
    ref = reference["gamma1_per_s"][key]
    got = summary.get("gamma1_at_omega_nv_per_s")
    problems = []
    if not isinstance(got, (int, float)) or not _rel(got, ref) <= GAMMA1_REL_TOL:
        problems.append(f"{key} G: Gamma_1 {got!r} vs reference {ref!r}")
    if n_rows != points:
        problems.append(f"{key} G: spectrum.csv has {n_rows} rows, expected {points}")
    return problems


def check_tau_ee(payload: dict, fields, reference: dict) -> list[str]:
    problems = []
    if payload.get("bracketing_verdict") != "bracketed":
        problems.append(f"verdict {payload.get('bracketing_verdict')!r}, expected 'bracketed'")
    rows = {f"{float(r['b_gauss']):g}": r for r in payload.get("per_field", [])}
    for b in fields:
        key = f"{b:g}"
        ref = reference["tau_full_ns"][key]
        got = rows.get(key, {}).get("tau_full_ns")
        if not isinstance(got, (int, float)) or not _rel(got, ref) <= TAU_REL_TOL:
            problems.append(f"{key} G: tau_full {got!r} ns vs reference {ref!r} ns")
    return problems


# ---------------------------------------------------------------------------
# warm-estimate: decay fits and depth estimate of one NV
# ---------------------------------------------------------------------------

#: Largest |T1 − truth| / σ_T1 accepted from a decay fit to seeded noise.
DECAY_Z_MAX = 5.0


def check_nv(nv, decay_fits, result, d_box: tuple[float, float]) -> list[str]:
    """Decay fits recover the seeded T1 values; the depth estimate is usable.

    Depth-interval containment is deliberately not checked: the 64² grid's
    confidence interval can be empty for a correct point estimate.
    """
    problems = []
    for (b, _film, _free), t1_true, (film_fit, free_fit) in zip(
        nv.files, nv.t1_cupc, decay_fits
    ):
        for label, fit, true in (("film", film_fit, t1_true), ("free", free_fit, T1_FREE)):
            z = (fit.t1 - true) / fit.t1_sigma
            if not abs(z) <= DECAY_Z_MAX:
                problems.append(f"{nv.nv_id} {b:g} G {label}: T1 off by {z:+.1f} sigma")
    d_hat = result.best.get("d_nv", float("nan"))
    if not d_box[0] <= d_hat <= d_box[1]:
        problems.append(f"{nv.nv_id}: depth {d_hat!r} m outside the search box")
    return problems
