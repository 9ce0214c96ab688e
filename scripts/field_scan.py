"""Sweep the bias field and tabulate the film-induced NV relaxation.

For each field the composite spin system is re-diagonalized, once per
copper isotope.  Writes a CSV next to the printed table when --out is
given.

Usage:
    python scripts/field_scan.py --config configs/cupc.yaml --points 25
"""

import argparse
import math
from pathlib import Path

import numpy as np

from spinbath.bathspectrum import spectral_density
from spinbath.config import load_config
from spinbath.constants import TWO_PI, gauss_to_tesla
from spinbath.io import write_csv
from spinbath.relaxometry import nv_frequency, relaxation_rate


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--config", default="configs/cupc.yaml")
    ap.add_argument("--field-min", type=float, default=150.0, help="gauss")
    ap.add_argument("--field-max", type=float, default=950.0, help="gauss")
    ap.add_argument("--points", type=int, default=25)
    ap.add_argument("--tau-e-ns", type=float, default=None,
                    help="override the configured correlation time")
    ap.add_argument("--t1-free-ms", type=float, default=5.0,
                    help="intrinsic film-free T1 for the T1-under-film column")
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args()

    cfg = load_config(args.config)
    geometry = cfg.film_geometry()
    nv = cfg.nv_config()
    tau_e = (args.tau_e_ns or cfg.bath.tau_e_ns) * 1e-9
    t1_free = args.t1_free_ms * 1e-3

    fields = np.linspace(args.field_min, args.field_max, args.points)
    print(f"# tau_e = {tau_e * 1e9:g} ns, theta_e = {cfg.hyperfine.theta_e_deg:g} deg, "
          f"d_nv = {geometry.d_nv * 1e9:g} nm")
    print(f"{'B (G)':>8} {'f_NV (GHz)':>11} {'S_e (T^2 s)':>12} "
          f"{'dGamma (1/s)':>13} {'T1 film (us)':>13}")
    rows = []
    for b_gauss in fields:
        b = gauss_to_tesla(float(b_gauss))
        model = cfg.bath_model(b, tau_e)
        w_nv = nv_frequency(nv, b)
        s_e = float(spectral_density(model, w_nv))
        dg = relaxation_rate(model, nv, b)
        t1 = 1.0 / (dg + 1.0 / t1_free)
        print(f"{b_gauss:8.1f} {w_nv / TWO_PI / 1e9:11.4f} {s_e:12.4e} "
              f"{dg:13.4e} {t1 * 1e6:13.1f}")
        rows.append((float(b_gauss), w_nv / TWO_PI / 1e9, s_e, dg, t1 * 1e6))

    crossing = nv.d_zfs / nv.gamma_e / gauss_to_tesla(1.0)
    print(f"# level crossing at B* = {crossing:.1f} G "
          f"(frequency minimum; steepest theta sensitivity nearby)")
    if args.out:
        header = ("b_gauss", "f_nv_ghz", "s_e_t2s", "delta_gamma_per_s",
                  "t1_film_us")
        write_csv(Path(args.out), header, rows)
        print(f"# wrote {args.out}")


if __name__ == "__main__":
    main()
