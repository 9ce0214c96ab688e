"""Monte-Carlo study of correlation-time recovery vs measurement noise.

Generates synthetic four-field relaxometry data at the configured truth,
fits tau_e back for a batch of seeds per noise level, and reports the
3-sigma coverage and ensemble spread.  The forward-model cache is built
once up front (the expensive step; coarser --theta-step-deg is faster).
"""

import argparse
import math
import time

import numpy as np

from spinbath.bathspectrum import coupling_b0_sq
from spinbath.config import load_config
from spinbath.estimator import FitProblem, ForwardModel, fit
from spinbath.relaxometry import MeasurementSet, T1Record


def synthesize(model, geometry, tau, theta, rng, noise, t1_free=5e-3):
    b0 = coupling_b0_sq(geometry)
    rates = model.delta_gammas(tau, theta, b0)
    records = []
    for b, rate in zip(model.fields_gauss, rates):
        dg = max(rate * (1.0 + noise * rng.standard_normal()), 1e-12)
        t1c = 1.0 / (dg + 1.0 / t1_free)
        records.append(T1Record(
            nv_id="NV1", b_gauss=b, t1_cupc=t1c, t1_cupc_sigma=noise * t1c,
            t1_free=t1_free, t1_free_sigma=0.02 * t1_free,
        ))
    return tuple(records)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--config", default="configs/cupc.yaml")
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--noise", default="0.02,0.05,0.10",
                    help="comma list of relative noise levels")
    ap.add_argument("--grid", type=int, default=48)
    ap.add_argument("--theta-step-deg", type=float, default=3.0)
    ap.add_argument("--seed", type=int, default=0, help="base RNG seed")
    args = ap.parse_args()

    cfg = load_config(args.config)
    geometry = cfg.film_geometry()
    tau_truth = cfg.bath.tau_e_ns * 1e-9
    theta_truth = math.radians(cfg.hyperfine.theta_e_deg)

    t0 = time.monotonic()
    model = ForwardModel(
        fields_gauss=tuple(cfg.bath.fields_gauss),
        base_spec=cfg.spin_spec(1e-4),
        nv=cfg.nv_config(),
        theta_step=math.radians(args.theta_step_deg),
        **cfg.spectrum_args(),
    )
    print(f"# forward-model cache: {len(model.fields_gauss)} fields x "
          f"{model.theta_nodes.size} orientations in {time.monotonic() - t0:.0f} s")

    fixed = {
        "theta_e": (theta_truth, (theta_truth, theta_truth)),
        "d_nv": (geometry.d_nv, (geometry.d_nv, geometry.d_nv)),
        "h": (geometry.h, (geometry.h, geometry.h)),
        "n_e": (geometry.n_e, (geometry.n_e, geometry.n_e)),
    }
    print(f"# truth: tau_e = {tau_truth * 1e9:g} ns, {args.seeds} seeds per level")
    print(f"{'noise':>6} {'coverage':>9} {'mean (ns)':>10} {'std (ns)':>9} "
          f"{'median sigma (ns)':>18}")
    for noise in (float(x) for x in args.noise.split(",")):
        hits, taus, sigmas = 0, [], []
        for k in range(args.seeds):
            rng = np.random.default_rng(args.seed + 1000 * k + 7)
            records = synthesize(model, geometry, tau_truth, theta_truth,
                                 rng, noise)
            problem = FitProblem(
                data=MeasurementSet(records=records), model=model,
                geometry=geometry, free=("tau_e",), fixed=fixed,
            )
            result = fit(problem, grid_points=args.grid)
            tau_hat = result.best["tau_e"]
            sigma = result.param_sigma["tau_e"]
            taus.append(tau_hat)
            sigmas.append(sigma)
            if abs(tau_hat - tau_truth) <= 3.0 * sigma:
                hits += 1
        taus = np.asarray(taus)
        print(f"{noise:6.2f} {hits:>5}/{args.seeds:<3} "
              f"{np.mean(taus) * 1e9:10.3f} {np.std(taus) * 1e9:9.3f} "
              f"{np.median(sigmas) * 1e9:18.3f}")


if __name__ == "__main__":
    main()
