"""Film-averaged dipolar noise of the CuPc electron-spin bath.

The NV at depth d_nv below the diamond surface sees the fluctuating
dipolar field of the uniform spin film of thickness h on top.  The slab
integral of the squared dipolar tensor gives the mean-square coupling
b0^2; its split into the longitudinal (5/16) and transverse (11/16)
channels is fixed by the slab geometry with the NV axis tilted at
arccos(1/sqrt(3)) from the surface normal (the [111] axis of a
(100)-cut diamond).  Together with the hyperfine transition spectrum and
an exponential envelope exp(-t/tau_e) this yields the autocorrelation

    G_e(t) = b0^2 e^{-t/tau_e} [5/16 + (11/16) sum_k rho_k sum_{i>j} w_ij cos(omega_ij t)]

with w_ij = eta_ij + eta_ji: the sum over the ordered pairs i != j, with
each transition listed once since cos is even.  Its two-sided Fourier
transform is the power spectral density S_e(omega), built from
Lorentzians of width 1/tau_e at every transition frequency.  Both sum over
`TransitionSpectrum.binned`: the isotopes merged by abundance and the
lines merged into 1 MHz bins without losing weight.

`comb_sum` is the one Lorentzian line-sum kernel, in place and in chunks
of `_CHUNK_ELEMENTS`; `unit_spectral_density` turns its result into S_e
per unit b0^2.  `spectral_density` and the estimator's θ-cache
(`estimator.ForwardModel`) both go through the pair, and `eesolver` sums
the same in-place `_unit_lorentzian`.  `_cosine_sum` is the kernel of
G_e(t).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .constants import GAMMA_E, HBAR, MU_0
from .spinmodel import (
    Isotope,
    IsotopeSpectrum,
    SpinSystemSpec,
    TransitionSpectrum,
)

#: Exact channel fractions of b0^2 (longitudinal, transverse).
F_Z = Fraction(5, 16)
F_PERP = Fraction(11, 16)

#: Electron spin magnitude factor S(S+1) for S = 1/2.
S_SPIN_FACTOR = 0.75

#: NV-axis tilt from the surface normal in (100)-cut diamond.
NV_TILT = float(np.arccos(1.0 / np.sqrt(3.0)))


@dataclass(frozen=True)
class FilmGeometry:
    """Uniform spin film above the diamond surface, all SI units."""

    d_nv: float  # NV depth below the surface (m)
    h: float  # film thickness (m)
    n_e: float  # electron spin density (1/m^3)

    def __post_init__(self) -> None:
        if self.d_nv <= 0:
            raise ValueError("d_nv must be > 0")
        if self.h <= 0:
            raise ValueError("h must be > 0")
        if self.n_e <= 0:
            raise ValueError("n_e must be > 0")

    def replace(self, **kw) -> "FilmGeometry":
        return replace(self, **kw)


def geometry_factors() -> tuple[float, float]:
    """Exact (longitudinal, transverse) fractions of b0^2: (5/16, 11/16)."""
    return float(F_Z), float(F_PERP)


def coupling_b0_sq(g: FilmGeometry, gamma_e: float = GAMMA_E) -> float:
    """Mean-square transverse dipolar coupling b0^2 of the film (tesla^2)."""
    return slab_b0_sq(g.d_nv, g.h, g.n_e, gamma_e=gamma_e)


def slab_b0_sq(d_nv, h, n_e, gamma_e: float = GAMMA_E):
    """b0^2 (tesla^2) for broadcastable arrays of depth, thickness and density.

    Closed form of the slab integral:
    (mu0 hbar gamma_e / 4pi)^2 * (2 pi S(S+1) / 9) * n_e * (1/d^3 - 1/(d+h)^3).
    No validation: FilmGeometry checks the scalar case.
    """
    prefactor = (MU_0 * HBAR * gamma_e / (4.0 * np.pi)) ** 2
    spin_term = 2.0 * np.pi * S_SPIN_FACTOR / 9.0
    radial = 1.0 / d_nv**3 - 1.0 / (d_nv + h) ** 3
    return prefactor * spin_term * n_e * radial


@dataclass(frozen=True)
class BathSpectrumModel:
    """Everything needed to evaluate G_e(t) and S_e(omega)."""

    spectrum: TransitionSpectrum
    tau_e: float  # seconds
    b0_sq: float  # tesla^2

    def __post_init__(self) -> None:
        if self.tau_e <= 0:
            raise ValueError("tau_e must be > 0")
        if self.b0_sq < 0:
            raise ValueError("b0_sq must be >= 0")


#: Elements of the largest (rows x lines) work array of a line sum: 512 kB
#: in float64, 256 kB in float32.
_CHUNK_ELEMENTS = 1 << 16


def autocorrelation(m: BathSpectrumModel, t) -> np.ndarray | float:
    """G_e(t) in tesla^2 for t >= 0 (G_e is even in t), over the binned lines."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0):
        raise ValueError("autocorrelation is defined for t >= 0")
    f_z, f_perp = geometry_factors()
    osc = _cosine_sum(t_arr, *m.spectrum.binned())
    out = m.b0_sq * np.exp(-t_arr / m.tau_e) * (f_z + f_perp * osc)
    return out if np.ndim(t) else float(out[0])


def _cosine_sum(t: np.ndarray, omega: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """sum_l eta_l cos(omega_l t_i) for each t_i of a 1-D array.

    An evenly spaced t of n points is split into ~sqrt(n) anchors
    a_j = t[jB] and offsets b_k = k dt, and
    cos(w (a_j + b_k)) = cos(w a_j) cos(w b_k) - sin(w a_j) sin(w b_k)
    turns the sum into two matrix products: ~4 sqrt(n) trig calls per line
    instead of n.  Any other t takes one cos per (point, line).

    `autocorrelation` is its only caller.  The factorisation stays because
    it is what makes a long grid cheap: 4 000 points over the 2 303 binned
    lines at 461 G take about 8 ms this way and 120 ms with one cos per
    (point, line), measured on 2 vCPUs; four fields on such a grid would
    cost about 0.45 s more.
    """
    n = t.size
    span = np.max(np.abs(t)) if n else 0.0
    dt = (t[-1] - t[0]) / (n - 1) if n > 1 else 0.0
    grid = t[0] + dt * np.arange(n) if n > 1 else t
    if n < 64 or np.max(np.abs(t - grid)) > 16.0 * np.finfo(float).eps * span:
        out = np.empty(n)
        rows = max(1, _CHUNK_ELEMENTS // max(omega.size, 1))
        for lo in range(0, n, rows):
            out[lo : lo + rows] = np.cos(t[lo : lo + rows, None] * omega) @ eta
        return out
    block = int(np.ceil(np.sqrt(n)))
    n_anchor = -(-n // block)
    anchors = t[::block, None]
    offsets = dt * np.arange(block)[:, None]
    out = np.zeros((n_anchor, block))
    lines_per_chunk = max(1, (1 << 21) // (n_anchor + block))
    for lo in range(0, omega.size, lines_per_chunk):
        w = omega[lo : lo + lines_per_chunk]
        e = eta[lo : lo + lines_per_chunk]
        phase_a, phase_b = anchors * w, offsets * w
        out += (np.cos(phase_a) * e) @ np.cos(phase_b).T
        out -= (np.sin(phase_a) * e) @ np.sin(phase_b).T
    return out.ravel()[:n]


def _unit_lorentzian(x, tau, out=None):
    """u(x τ) = 1 / ((x τ)² + 1), elementwise; `out` may be `x` itself."""
    out = np.multiply(x, tau, out=out)
    np.square(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def comb_sum(minus, plus, weight, tau, shift=None) -> np.ndarray:
    """Σ_l w_l [u((minus_l − s) τ) + u((plus_l + s) τ)] for each row.

    `minus`, `plus` and `weight` are 1-D over the lines.  The rows are
    those of the column `shift` (s), or with `shift` None (s = 0) of the
    column `tau`; `tau` may be a scalar when `shift` is given.  The sum runs
    in the dtype of `minus` and `tau`, over chunks of rows whose two work
    arrays hold at most `_CHUNK_ELEMENTS` elements each.  Each row is
    reduced on its own (pairwise summation), so its value does not depend
    on the chunk it falls in.
    """
    n = np.size(tau if shift is None else shift)
    step = max(1, _CHUNK_ELEMENTS // max(weight.size, 1))
    lo_buf = np.empty((min(step, n), weight.size), np.result_type(minus, tau))
    hi_buf = np.empty_like(lo_buf)
    out = np.empty(n, lo_buf.dtype)
    for s in range(0, n, step):
        t = tau[s : s + step] if np.ndim(tau) else tau
        lo, hi = lo_buf[: n - s], hi_buf[: n - s]
        if shift is None:
            _unit_lorentzian(minus, t, out=lo)
            _unit_lorentzian(plus, t, out=hi)
        else:
            ds = shift[s : s + step]
            _unit_lorentzian(np.subtract(minus, ds, out=lo), t, out=lo)
            _unit_lorentzian(np.add(plus, ds, out=hi), t, out=hi)
        lo += hi
        lo *= weight
        lo.sum(axis=-1, out=out[s : s + step])
    return out


def unit_spectral_density(omega, tau, comb):
    """S_e per unit b0^2 from a `comb_sum`: (2 f_z u(ω τ) + f_perp comb) τ."""
    f_z, f_perp = geometry_factors()
    return (2.0 * f_z / ((omega * tau) ** 2 + 1.0) + f_perp * comb) * tau


def spectral_density(m: BathSpectrumModel, omega) -> np.ndarray | float:
    """Two-sided power spectral density S_e(omega) in tesla^2 s.

    S_e(omega) = (5/8) b0^2 L(omega)
        + (11/16) sum_l w_l [ L(omega_l - omega) + L(omega_l + omega) ]
    with L(x) = b0^2 tau / (x^2 tau^2 + 1), summed over the binned,
    abundance-weighted lines (omega_l, w_l) of `TransitionSpectrum.binned`.
    """
    omega_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    lines, weight = m.spectrum.binned()
    comb = comb_sum(lines, lines, weight, m.tau_e, omega_arr[:, None])
    out = m.b0_sq * unit_spectral_density(omega_arr, m.tau_e, comb)
    return out if np.ndim(omega) else float(out[0])


def electron_only_spectrum(
    b_field: float, g_factor: float = 2.0023, gamma_e: float = GAMMA_E
) -> TransitionSpectrum:
    """Transition spectrum of a bare electron spin: one line at gamma*B.

    The line carries eta = 1/4 in each direction, 1/2 in all (M = 1),
    reproducing the full pipeline applied to a nucleus-free spin system.
    """
    from .constants import G_E

    omega0 = gamma_e * (g_factor / G_E) * b_field
    comp = IsotopeSpectrum(
        isotope=Isotope("e", 1.0, 1.0),
        omega=np.array([omega0]),
        eta=np.array([0.5]),
        m_states=1,
        eta_sum_all=0.5,
        eta_static=0.0,
        eta_pruned=0.0,
    )
    return TransitionSpectrum(components=(comp,))


def free_electron_spectrum(
    g: FilmGeometry,
    tau_e: float,
    omega,
    b_field: float,
    gamma_e: float = GAMMA_E,
) -> np.ndarray | float:
    """S_e(omega) for a film of free electrons (g = 2.0023, no hyperfine)."""
    model = BathSpectrumModel(
        spectrum=electron_only_spectrum(b_field, gamma_e=gamma_e),
        tau_e=tau_e,
        b0_sq=coupling_b0_sq(g, gamma_e=gamma_e),
    )
    return spectral_density(model, omega)


def cupc_bath_model(
    spec: SpinSystemSpec,
    tau_e: float,
    geometry: FilmGeometry,
    isotopes=None,
    eta_floor: float | None = None,
    gamma_e: float = GAMMA_E,
) -> BathSpectrumModel:
    """Convenience constructor: full isotope-weighted CuPc bath model."""
    from .spinmodel import CU_ISOTOPES, DEFAULT_ETA_FLOOR, isotope_family_spectrum

    spectrum = isotope_family_spectrum(
        spec,
        isotopes=CU_ISOTOPES if isotopes is None else isotopes,
        eta_floor=DEFAULT_ETA_FLOOR if eta_floor is None else eta_floor,
    )
    return BathSpectrumModel(
        spectrum=spectrum,
        tau_e=tau_e,
        b0_sq=coupling_b0_sq(geometry, gamma_e=gamma_e),
    )
