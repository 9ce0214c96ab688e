"""Electron-electron-limited correlation time of the CuPc film.

Each CuPc electron spin is relaxed by the dipolar noise of its neighbours
in the molecular lattice.  The pairwise spectral density splits into a
quasi-static channel (the neighbour's longitudinal field, a Lorentzian at
the probing transition frequency, angular weight (9/2) sin^2(2 Theta)) and
a flip-flop channel (the neighbour's own transition spectrum, angular
weight [5 - 6 cos(2 Theta) + 9 cos^2(2 Theta)]/4).  Averaging the
golden-rule rate over the probe's transition spectrum closes the
self-consistent equation

    1/tau_e = gamma_e^2 sum_k rho_k sum_ij eta_ij sum_{m != n} S_{n,m}(omega_ij; tau_e)

which is solved here by damped fixed-point iteration.  Two closed-form
approximations bracket the solution: `no_hyperfine_tau` (all transitions
coincident — overestimates the interaction) and `delta_approx_tau`
(only exactly matching transitions flip-flop — underestimates it).

The dipolar matrix used throughout is

    D_mu_nu = sqrt(S(S+1)/3) * (mu0 hbar gamma_e^2 / 4 pi) (3 n_mu n_nu - delta_mu_nu) / r^3

in rad/s, i.e. the spin-magnitude factor is folded in so that
gamma_e^2 * prefactor(S_{n,m}) = sum of squared D elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bathspectrum import S_SPIN_FACTOR, _unit_lorentzian
from .constants import GAMMA_E, HBAR, MU_0
from .errors import ConvergenceError
from .spinmodel import DEFAULT_BIN, TransitionSpectrum

#: Default delta-function realization width for `delta_approx_tau` (rad/s).
DEFAULT_COINCIDENCE_BIN = 2.0 * np.pi * 10e3

#: Background (spin-lattice + electron-nuclear) rate at room temperature,
#: the 1/38 ns^-1 extrapolation the paper takes as a fixed input.
BACKGROUND_RATE_ROOM_T = 1.0 / 38e-9

#: Fixed-point stopping tolerance: relative change between two iterates.
_REL_TOL = 1e-10

#: Iteration cap; the shipped lattice's solves take 30 to 40 iterations.
_MAX_ITER = 200


@dataclass(frozen=True)
class LatticeModel:
    """Molecular lattice seen from one reference molecule.

    All lengths in meters.  `cell` rows are the lattice vectors; `sites`
    are fractional positions of molecules within the cell; `field_dir` is
    the external-field direction expressed in the crystal frame, which
    fixes every pair angle Theta_nm.
    """

    cell: np.ndarray  # (3, 3) lattice vectors, rows
    sites: np.ndarray  # (n_sites, 3) fractional coordinates
    field_dir: np.ndarray  # (3,) crystal-frame unit vector
    cutoff: float  # pair-list cutoff radius (m)

    def __post_init__(self) -> None:
        cell = np.asarray(self.cell, dtype=float)
        sites = np.atleast_2d(np.asarray(self.sites, dtype=float))
        fdir = np.asarray(self.field_dir, dtype=float)
        if cell.shape != (3, 3):
            raise ValueError("cell must be a 3x3 matrix of lattice vectors")
        if abs(np.linalg.det(cell)) < 1e-40:
            raise ValueError("cell vectors are degenerate")
        if sites.shape[1] != 3 or sites.shape[0] < 1:
            raise ValueError("sites must be (n, 3) fractional coordinates")
        norm = np.linalg.norm(fdir)
        if norm == 0:
            raise ValueError("field_dir must be nonzero")
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "field_dir", fdir / norm)
        nn = _nearest_neighbor_distance(cell, sites)
        if self.cutoff < 2.0 * nn:
            raise ValueError(
                f"cutoff {self.cutoff:.3e} m must be >= twice the "
                f"nearest-neighbor distance {nn:.3e} m"
            )


@dataclass(frozen=True)
class TauSolveReport:
    """Outcome of the self-consistent correlation-time solve."""

    tau_e: float  # seconds
    iterations: int
    residual: float  # relative fixed-point mismatch at the solution
    cutoff_convergence: float  # relative tau change when cutoff doubled


def _nearest_neighbor_distance(cell: np.ndarray, sites: np.ndarray) -> float:
    offsets = np.array(
        [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)]
    )
    best = np.inf
    for s0 in sites:
        for s1 in sites:
            for off in offsets:
                d = np.linalg.norm((s1 - s0 + off) @ cell)
                if d > 1e-15 and d < best:
                    best = d
    return float(best)


def pair_geometry(lattice: LatticeModel) -> tuple[np.ndarray, np.ndarray]:
    """(r_nm, Theta_nm) arrays of all pairs within the cutoff of a reference site.

    Theta_nm is the angle between the inter-molecular vector and the field
    axis.  Pairs are enumerated once per reference (inequivalent) site, so
    sums over them divide by the number of sites to count per molecule.
    """
    cell = lattice.cell
    # supercell extent: enough cells to cover the cutoff sphere
    inv = np.linalg.inv(cell)
    extents = np.ceil(lattice.cutoff * np.linalg.norm(inv, axis=0)).astype(int) + 1
    fdir = lattice.field_dir
    grids = [np.arange(-e, e + 1) for e in extents]
    ii, jj, kk = np.meshgrid(*grids, indexing="ij")
    offsets = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1)
    dists, thetas = [], []
    for s0 in lattice.sites:
        vecs = ((lattice.sites[None, :, :] + offsets[:, None, :]) - s0) @ cell
        vecs = vecs.reshape(-1, 3)
        dist = np.linalg.norm(vecs, axis=1)
        keep = (dist > 1e-15) & (dist <= lattice.cutoff)
        vecs, dist = vecs[keep], dist[keep]
        dists.append(dist)
        thetas.append(np.arccos(np.clip(vecs @ fdir / dist, -1.0, 1.0)))
    # never empty: the cutoff is at least twice the nearest-neighbour distance
    return np.concatenate(dists), np.concatenate(thetas)


def dipolar_prefactor(
    r: float | np.ndarray, gamma_e: float = GAMMA_E
) -> float | np.ndarray:
    """(mu0 hbar gamma_e / 4 pi)^2 * S(S+1) / (3 r^6), in tesla^2."""
    c = (MU_0 * HBAR * gamma_e / (4.0 * np.pi)) ** 2
    return c * S_SPIN_FACTOR / (3.0 * np.asarray(r) ** 6)


def quasi_static_factor(theta: float | np.ndarray) -> float | np.ndarray:
    """Angular weight (9/2) sin^2(2 Theta) of the longitudinal channel."""
    return 4.5 * np.sin(2.0 * np.asarray(theta)) ** 2


def flip_flop_factor(theta: float | np.ndarray) -> float | np.ndarray:
    """Angular weight [5 - 6 cos(2 Theta) + 9 cos^2(2 Theta)] / 4.

    Equals the transverse dipolar block sum_{mu,nu in {x,y}} (3 n_mu n_nu
    - delta_mu_nu)^2 of a pair whose axis makes angle Theta with the field.
    """
    c2 = np.cos(2.0 * np.asarray(theta))
    return (5.0 - 6.0 * c2 + 9.0 * c2**2) / 4.0


def _pair_weights(omega: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flip-flop double sum as one line list on the grid x_m = m * step.

    step is `DEFAULT_BIN`, the 1 MHz width that `TransitionSpectrum.binned`
    merges lines over.  Each weight w at omega = (k + d) * step, |d| <= 1/2,
    is spread over the nodes k - 1, k, k + 1 as w (d^2 - d)/2, w (1 - d^2)
    and w (d^2 + d)/2: the quadratic-interpolation weights, which keep the
    line's first and second moments.  With F the deposited grid,

        sum_ab w_a w_b [L(omega_a - omega_b) + L(omega_a + omega_b)]
            = sum_m P_m L(x_m) + O(step^3 L''')

    where P is the autocorrelation of F (the difference term) plus the
    self-convolution F * F (the sum term), folded onto m >= 0 because L is
    even.  One FFT of F gives both.  The sum term is computed, not taken
    equal to the difference term: for the one-sided lists of
    `TransitionSpectrum.binned` (every omega > 0) the two differ.
    """
    if omega.size == 0:
        return omega, weight
    step = DEFAULT_BIN
    pos = omega / step
    node = np.round(pos)
    d = pos - node
    k0 = int(node.min()) - 1
    idx = (node - k0).astype(np.int64)
    n = int(idx.max()) + 2
    grid = (
        np.bincount(idx - 1, weight * 0.5 * (d * d - d), n)
        + np.bincount(idx, weight * (1.0 - d * d), n)
        + np.bincount(idx + 1, weight * 0.5 * (d * d + d), n)
    )
    size = 1 << (2 * n - 1).bit_length()  # room for the 2n - 1 lags of F
    f_hat = np.fft.rfft(grid, size)
    lags = np.arange(1 - n, n)
    diff = np.fft.irfft(f_hat * f_hat.conj(), size)[lags]  # lag l at index l mod size
    total = np.fft.irfft(f_hat * f_hat, size)[: 2 * n - 1]  # index i is node 2 k0 + i
    m = np.abs(np.concatenate([lags, np.arange(2 * n - 1) + 2 * k0]))
    pair = np.bincount(m, np.concatenate([diff, total]))
    return step * np.arange(pair.size), pair


def _geometry_sums(lattice: LatticeModel, gamma_e: float = GAMMA_E) -> tuple[float, float]:
    r, theta = pair_geometry(lattice)
    n_sites = lattice.sites.shape[0]
    pref = dipolar_prefactor(r, gamma_e)
    qs_geom = float(np.sum(pref * quasi_static_factor(theta))) / n_sites
    ff_geom = float(np.sum(pref * flip_flop_factor(theta))) / n_sites
    return qs_geom, ff_geom


def solve_tau_self_consistent(
    lattice: LatticeModel, spectrum: TransitionSpectrum, *, gamma_e: float = GAMMA_E
) -> TauSolveReport:
    """Damped fixed-point solve of the self-consistent tau_e equation.

    Iterates tau <- (tau + 1 / rate(tau)) / 2 from the no-hyperfine bound
    1 / (gamma_e sqrt(ff)) until two successive values agree to `_REL_TOL`,
    with

        rate = gamma_e^2 [qs sum_a w_a L(omega_a)
                          + ff sum_ab w_a w_b (L(omega_a - omega_b) + L(omega_a + omega_b))]

    over the binned lines: the first sum line by line, the double sum on
    the bin grid (`_pair_weights`).  The report carries the relative
    change of tau_e when the pair-list cutoff is doubled.
    """
    lines, weight = spectrum.binned()
    pair_omega, pair_weight = _pair_weights(lines, weight)

    def one_solve(lat: LatticeModel) -> tuple[float, int, float]:
        qs_geom, ff_geom = _geometry_sums(lat, gamma_e)
        tau = 1.0 / (gamma_e * math.sqrt(ff_geom))
        for it in range(1, _MAX_ITER + 1):
            rate = gamma_e**2 * tau * (
                qs_geom * float(weight @ _unit_lorentzian(lines, tau))
                + ff_geom * float(pair_weight @ _unit_lorentzian(pair_omega, tau))
            )
            if not np.isfinite(rate) or rate <= 0:
                raise ConvergenceError(
                    f"fixed-point rate became non-positive at iteration {it}"
                )
            tau_new = 0.5 * (tau + 1.0 / rate)
            resid = abs(tau_new - tau) / tau_new
            tau = tau_new
            if resid < _REL_TOL:
                return tau, it, resid
        raise ConvergenceError(
            f"self-consistent tau did not converge in {_MAX_ITER} iterations; "
            f"last value {tau:.6g} s"
        )

    tau, iters, resid = one_solve(lattice)
    tau_wide, _, _ = one_solve(replace(lattice, cutoff=2.0 * lattice.cutoff))
    return TauSolveReport(
        tau_e=tau,
        iterations=iters,
        residual=resid,
        cutoff_convergence=abs(tau_wide - tau) / tau,
    )


def no_hyperfine_tau(lattice: LatticeModel, gamma_e: float = GAMMA_E) -> float:
    """tau when all transitions are assumed coincident (lower bound).

    1/tau = sqrt( sum_{m != n} sum_{mu,nu in {x,y}} (D^{n,m}_{mu,nu})^2 )
          = gamma_e sqrt(ff),
    ff being the flip-flop geometry sum of `_geometry_sums`.
    """
    return 1.0 / (gamma_e * math.sqrt(_geometry_sums(lattice, gamma_e)[1]))


def coincidence_weight(
    spectrum: TransitionSpectrum, bin_width: float = DEFAULT_COINCIDENCE_BIN
) -> float:
    """Normalized coincident-transition weight W in [0, 1].

    W = sum_ab w_a w_b (1[|omega_a - omega_b| < bin] +
                        1[|omega_a + omega_b| < bin]) / (sum_a w_a)^2
    over the unbinned line list: the 10 kHz default window is finer than
    the 1 MHz bins.  W is even in each omega_a, so a line may carry either
    sign; `transition_spectrum` lists each transition once, at omega > 0.
    W -> 1 when every transition sits at the same single frequency (the
    no-hyperfine limit).
    """
    omega, weight = spectrum.merged()
    order = np.argsort(omega)
    om, w = omega[order], weight[order]
    cum = np.concatenate([[0.0], np.cumsum(w)])
    total = cum[-1]

    def window_sum(centers: np.ndarray) -> np.ndarray:
        hi = np.searchsorted(om, centers + bin_width, side="right")
        lo = np.searchsorted(om, centers - bin_width, side="left")
        return cum[hi] - cum[lo]

    # diff term: partners within bin of +omega_a; sum term: within bin of
    # -omega_a (so omega_a + omega_b ~ 0)
    s = float(w @ window_sum(om)) + float(w @ window_sum(-om))
    return s / total**2


def delta_approx_tau(
    lattice: LatticeModel,
    spectrum: TransitionSpectrum,
    bin_width: float = DEFAULT_COINCIDENCE_BIN,
    gamma_e: float = GAMMA_E,
) -> float:
    """tau with Lorentzians collapsed to coincidence windows (upper bound).

    1/tau = sqrt( sum_{m != n} sum_{mu,nu in {x,y}} (D^{n,m}_{mu,nu})^2 * W )
    with W the normalized coincident weight, so forcing all transitions
    identical (W = 1) recovers `no_hyperfine_tau` exactly.  Returns inf
    when no transitions coincide within the bin.
    """
    w_hat = coincidence_weight(spectrum, bin_width)
    if w_hat <= 0.0:
        return float("inf")
    return no_hyperfine_tau(lattice, gamma_e) / np.sqrt(w_hat)

