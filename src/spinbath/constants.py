"""Physical constants and unit helpers used across the toolkit.

All internal quantities are SI: angular frequencies in rad/s, magnetic
fields in tesla, lengths in metres, densities in 1/m^3.  The CLI and the
config file accept friendlier units (gauss, nanometres, MHz) and convert
on ingest.
"""

from __future__ import annotations

import math

# CODATA 2018
HBAR = 1.054571817e-34  # J s
MU_0 = 1.25663706212e-6  # N A^-2
K_B = 1.380649e-23  # J/K
MU_B = 9.2740100783e-24  # J/T
G_E = 2.00231930436256  # free-electron g factor (dimensionless)

# Electron gyromagnetic ratio, rad s^-1 T^-1 (gamma_e / 2pi = 28.0249514 GHz/T)
GAMMA_E = 2.0 * math.pi * 28.0249514e9

# NV zero-field splitting, rad/s (D_zfs / 2pi = 2.870 GHz)
D_ZFS = 2.0 * math.pi * 2.870e9

TWO_PI = 2.0 * math.pi

GAUSS_TO_TESLA = 1e-4


def gauss_to_tesla(b_gauss: float) -> float:
    return b_gauss * GAUSS_TO_TESLA
