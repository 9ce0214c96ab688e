"""Dilate the molecular lattice and track the three tau_e estimates.

Scaling every intermolecular distance by s multiplies the pair couplings
by s^-3, so the no-hyperfine and coincidence-window bounds stretch by
exactly s^3.  The full self-consistent solve stretches faster: dilution
also pushes the bath out of the motionally narrowed regime.  This scan
makes that hierarchy visible on the shipped lattice.
"""

import argparse

from spinbath.config import load_config
from spinbath.constants import gauss_to_tesla
from spinbath.eesolver import (
    LatticeModel,
    delta_approx_tau,
    no_hyperfine_tau,
    solve_tau_self_consistent,
)
from spinbath.errors import ConvergenceError
from spinbath.spinmodel import isotope_family_spectrum


def dilated(base: LatticeModel, s: float) -> LatticeModel:
    return LatticeModel(
        cell=base.cell * s,
        sites=base.sites,
        field_dir=base.field_dir,
        cutoff=base.cutoff * s,
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--config", default="configs/cupc.yaml")
    ap.add_argument("--field", type=float, default=372.0, help="gauss")
    ap.add_argument("--scales", default="1.0,1.2,1.5,2.0",
                    help="comma list of lattice dilation factors")
    args = ap.parse_args()

    cfg = load_config(args.config)
    gamma_e = cfg.constants.gamma_e
    base = cfg.lattice_model()
    spectrum = isotope_family_spectrum(
        cfg.spin_spec(gauss_to_tesla(args.field)), **cfg.spectrum_args()
    )
    scales = [float(s) for s in args.scales.split(",")]

    print(f"# B = {args.field:g} G, theta_e = {cfg.hyperfine.theta_e_deg:.2f} deg")
    print(f"{'s':>5} {'s^3':>7} {'no-hf (ns)':>11} {'full (ns)':>10} "
          f"{'coinc (ns)':>11} {'full(s)/full(1)':>16}")
    full_ref = None
    for s in scales:
        lat = dilated(base, s)
        nh = no_hyperfine_tau(lat, gamma_e=gamma_e)
        dl = delta_approx_tau(lat, spectrum, gamma_e=gamma_e)
        try:
            rep = solve_tau_self_consistent(lat, spectrum, gamma_e=gamma_e)
        except ConvergenceError as exc:
            print(f"{s:5.2f}  solve did not converge ({exc})")
            continue
        if full_ref is None:
            full_ref = rep.tau_e
        print(f"{s:5.2f} {s**3:7.3f} {nh * 1e9:11.4f} {rep.tau_e * 1e9:10.4f} "
              f"{dl * 1e9:11.3f} {rep.tau_e / full_ref:16.3f}")
    print("# bound columns scale as exactly s^3; the full solve exceeds it")


if __name__ == "__main__":
    main()
