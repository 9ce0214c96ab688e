"""NV-side relaxometry: transition frequency, golden-rule T1, ΔΓ₁.

The NV |0> -> |-1> transition frequency decreases with axial field as
|d_zfs - gamma_e B| (zero crossing near 1024 G), so sweeping the field
sweeps the probe frequency across the bath spectrum.  The golden rule
converts the bath spectral density at that frequency into a relaxation
rate, and the film-induced change of rate

    delta_gamma = 1/T1|_film - 1/T1|_free

is the observable every fit consumes.  Raw T1 curves are reduced with the
stretched-exponential model y = A exp[-(t/T1)^iota] + C: A and C are
solved exactly on a (T1, iota) grid, and the best grid point is polished
by one bounded Levenberg-Marquardt run (`_levenberg_marquardt`) with the
analytic Jacobian (`_stretched_exp_jac`); no SciPy module is loaded.  The
temperature dependence of the molecular spin-lattice rate is modeled by
one- and two-phonon Bose factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bathspectrum import BathSpectrumModel, spectral_density
from .constants import D_ZFS, GAMMA_E, HBAR, K_B
from .errors import ConvergenceError, DataFormatError, UnidentifiableError


@dataclass(frozen=True)
class NvConfig:
    """NV transition bookkeeping; angular frequencies in rad/s."""

    d_zfs: float = D_ZFS
    gamma_e: float = GAMMA_E
    branch: str = "minus"  # |0> -> |-1| ("minus") or |0> -> |+1> ("plus")

    def __post_init__(self) -> None:
        if self.d_zfs <= 0:
            raise ValueError("d_zfs must be > 0")
        if self.branch not in ("minus", "plus"):
            raise ValueError("branch must be 'minus' or 'plus'")


def nv_frequency(cfg: NvConfig, b_field: float) -> float:
    """NV transition frequency (rad/s) at an axial field (tesla)."""
    zeeman = cfg.gamma_e * b_field
    if cfg.branch == "minus":
        return abs(cfg.d_zfs - zeeman)
    return cfg.d_zfs + zeeman


def relaxation_rate(m: BathSpectrumModel, cfg: NvConfig, b_field: float) -> float:
    """1/T1 = gamma_e^2 * S_e(omega_NV), in 1/s."""
    omega = nv_frequency(cfg, b_field)
    return cfg.gamma_e**2 * float(spectral_density(m, omega))


@dataclass(frozen=True)
class T1Record:
    """One NV's T1 with and without the film, at one field."""

    nv_id: str
    b_gauss: float
    t1_cupc: float  # seconds
    t1_cupc_sigma: float
    t1_free: float  # seconds
    t1_free_sigma: float

    def __post_init__(self) -> None:
        if self.t1_cupc <= 0 or self.t1_free <= 0:
            raise ValueError(f"record {self.nv_id}: T1 values must be > 0")
        if self.t1_cupc_sigma <= 0 or self.t1_free_sigma <= 0:
            raise ValueError(f"record {self.nv_id}: sigmas must be > 0")


@dataclass(frozen=True)
class MeasurementSet:
    """Collection of T1Records sharing one film geometry."""

    records: tuple[T1Record, ...]

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("MeasurementSet needs at least one record")

    def fields_gauss(self) -> np.ndarray:
        return np.array([r.b_gauss for r in self.records])

    def delta_gammas(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, sigmas) of delta_gamma for every record, in 1/s."""
        pairs = [delta_gamma(r) for r in self.records]
        return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def delta_gamma(rec: T1Record) -> tuple[float, float]:
    """Film-induced rate change 1/T1_cupc - 1/T1_free with 1 sigma.

    First-order propagation: sigma^2 = (s_c / T1_c^2)^2 + (s_f / T1_f^2)^2.
    """
    value = 1.0 / rec.t1_cupc - 1.0 / rec.t1_free
    sigma = np.hypot(
        rec.t1_cupc_sigma / rec.t1_cupc**2, rec.t1_free_sigma / rec.t1_free**2
    )
    return value, float(sigma)


# ---------------------------------------------------------------------------
# stretched-exponential decay fitting
# ---------------------------------------------------------------------------

#: Box constraint on the stretching exponent iota.
IOTA_BOUNDS = (0.3, 2.0)

#: (T1, iota) grid of `fit_decay`'s starts; T1 log-spaced, iota linear.
_GRID_T1 = 48
_GRID_IOTA = 12

#: Largest (T1, iota, t) work array of the grid, in elements.
_GRID_CHUNK = 1 << 16

#: Most polishes `fit_decay` tries before giving up.
_MAX_POLISHES = 9

#: Relative cost drop and step at which a polish stops.  1e-8 stops a run
#: up to ~4e-8 above the lowest cost in flat (T1, iota) valleys.
_POLISH_TOL = 1e-10

#: Most trial steps of one polish; reaching it counts as not converged.
_MAX_LM_TRIALS = 200

#: Fewest samples a decay fit accepts: 4 parameters plus 2 degrees of freedom.
MIN_DECAY_SAMPLES = 6


@dataclass(frozen=True)
class DecayCurve:
    """Normalized T1 decay samples: (t seconds, signal, uncertainty)."""

    t: np.ndarray
    y: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y, dtype=float)
        s = np.asarray(self.sigma, dtype=float)
        if not (t.shape == y.shape == s.shape) or t.ndim != 1:
            raise ValueError("t, y, sigma must be 1-d arrays of equal length")
        for name, values in (("times", t), ("signal", y), ("uncertainties", s)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite")
        if np.any(t < 0):
            raise ValueError("times must be >= 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(s <= 0):
            raise ValueError("uncertainties must be > 0")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "sigma", s)

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class DecayFitResult:
    """Stretched-exponential fit y = A exp[-(t/T1)^iota] + C."""

    a: float
    t1: float
    iota: float
    c: float
    a_sigma: float
    t1_sigma: float
    iota_sigma: float
    c_sigma: float
    chi2_red: float

    def as_dict(self) -> dict:
        return {
            "A": self.a,
            "T1": self.t1,
            "iota": self.iota,
            "C": self.c,
            "A_sigma": self.a_sigma,
            "T1_sigma": self.t1_sigma,
            "iota_sigma": self.iota_sigma,
            "C_sigma": self.c_sigma,
            "chi2_red": self.chi2_red,
        }


def _stretched_exp(t: np.ndarray, a: float, t1: float, iota: float, c: float):
    return a * np.exp(-((t / t1) ** iota)) + c


def _stretched_exp_jac(t: np.ndarray, a: float, t1: float, iota: float, c: float):
    """∂y/∂(A, T1, iota, C), shape (t.size, 4), for t > 0.

    With x = (t/T1)^iota and e = exp(-x): e, A e x iota / T1, -A e x ln(t/T1)
    and 1.  Where x is large, e underflows to 0 and so does every product.
    """
    ratio = t / t1
    x = ratio**iota
    e = np.exp(-x)
    aex = a * e * x
    return np.stack([e, aex * (iota / t1), -aex * np.log(ratio), np.ones_like(t)], axis=1)


def _grid_starts(t, y, sig, lo, hi) -> np.ndarray:
    """(A, T1, iota, C) at the `_MAX_POLISHES` cheapest grid points, cheapest first.

    T1 is log-spaced over [lo, hi] and iota spans `IOTA_BOUNDS`.  A and C
    enter the model linearly, so at each grid point they come from the
    weighted 2x2 normal equations, clipped to their bounds.  Points where
    exp[-(t/T1)^iota] is constant over the samples leave the equations
    singular and are dropped.  The T1 axis is taken in chunks of at most
    `_GRID_CHUNK` (T1, iota, t) elements, so memory stays O(t.size).
    """
    t1_grid = np.geomspace(lo[1], hi[1], _GRID_T1)
    iota_grid = np.linspace(*IOTA_BOUNDS, _GRID_IOTA)
    w = sig**-2.0
    s1, sy = w.sum(), w @ y
    log_t = np.log(t)
    rows = max(1, _GRID_CHUNK // (_GRID_IOTA * t.size))
    a, c, cost = (np.empty((_GRID_T1, _GRID_IOTA)) for _ in range(3))
    for k in range(0, _GRID_T1, rows):
        log_ratio = log_t - np.log(t1_grid[k : k + rows, None, None])
        e = np.exp(-np.exp(iota_grid[:, None] * log_ratio))
        se, see, sey = e @ w, (e * e) @ w, e @ (w * y)
        det = s1 * see - se * se
        ok = det > 1e-12 * s1 * see
        a_k = np.divide(s1 * sey - se * sy, det, out=np.zeros_like(det), where=ok)
        c_k = np.divide(see * sy - se * sey, det, out=np.zeros_like(det), where=ok)
        a_k, c_k = np.clip(a_k, lo[0], hi[0]), np.clip(c_k, lo[3], hi[3])
        r = a_k[..., None] * e + c_k[..., None] - y
        a[k : k + rows], c[k : k + rows] = a_k, c_k
        cost[k : k + rows] = np.where(ok, (r * r) @ w, np.inf)
    order = np.argsort(cost, axis=None, kind="stable")[:_MAX_POLISHES]
    i, j = np.unravel_index(order[np.isfinite(cost.flat[order])], cost.shape)
    return np.stack([a[i, j], t1_grid[i], iota_grid[j], c[i, j]], axis=1)


def _levenberg_marquardt(resid, jac, x0, lo, hi):
    """Minimize |resid(x)|^2 over the box lo <= x <= hi (Marquardt 1963).

    Each trial step solves (J^T J + lam D) dx = -J^T r, D = diag(J^T J),
    for the free parameters; one at a bound whose gradient points out of
    the box is held for that step.  The trial point is clipped into the
    box and taken when the cost does not rise: lam then falls 10x, and
    after a refused trial it rises 10x.  A taken step ends the run when it
    lowers the cost by at most `_POLISH_TOL` of it, as measured and as the
    linear model predicted, or moves no parameter by more than
    `_POLISH_TOL` of its size.  Returns (x, r, J, converged); after
    `_MAX_LM_TRIALS` trials without that, converged is False.  Raises
    ValueError when the residuals at x0 are not finite.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r = resid(x)
    if not np.all(np.isfinite(r)):
        raise ValueError("residuals are not finite at the start point")
    j, cost, lam = jac(x), r @ r, 1e-3
    for _ in range(_MAX_LM_TRIALS):
        g = j.T @ r
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        jtj = j[:, free].T @ j[:, free]
        step = np.zeros_like(x)
        step[free] = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -g[free])
        trial = np.clip(x + step, lo, hi)
        r_trial = resid(trial)
        cost_trial = r_trial @ r_trial
        if not cost_trial <= cost:  # a rise, or NaN
            lam *= 10.0
            continue
        dx = trial - x
        r_lin = r + j @ dx
        flat = max(cost - cost_trial, cost - r_lin @ r_lin) <= _POLISH_TOL * cost
        x, r, j, cost, lam = trial, r_trial, jac(trial), cost_trial, lam / 10.0
        if flat or np.all(np.abs(dx) <= _POLISH_TOL * np.abs(x)):
            return x, r, j, True
    return x, r, j, False


def fit_decay(curve: DecayCurve) -> DecayFitResult:
    """Weighted least-squares fit of the stretched exponential.

    The fit runs in the trace's own scales, t over its last delay and y
    and sigma over the signal span, and scales its results back, so no
    sum or Jacobian entry overflows for data in any units.  A and C enter
    the model linearly, so for any fixed (T1, iota) they are solved
    exactly (variable projection).  `_grid_starts` does that on a 48 x 12
    grid, T1 from 1/100 of the first positive delay to the upper T1 bound
    and iota over its bounds, and ranks the points by weighted cost.  The
    best point is polished by one bounded Levenberg-Marquardt run
    (`_levenberg_marquardt`) on all four parameters with the analytic
    Jacobian of the weighted residual; the next points are tried, up to 9
    in all, only when a polish raises ValueError or does not converge.
    The covariance comes from the Jacobian at the solution.  Raises
    UnidentifiableError when the curve is constant within noise (A
    unidentifiable), DataFormatError when the uncertainties are so small
    against the span that the weights would overflow, and
    ConvergenceError when no polish converges.
    """
    if len(curve) < MIN_DECAY_SAMPLES:
        raise ValueError(
            f"need at least {MIN_DECAY_SAMPLES} samples to fit 4 parameters"
        )
    span = float(np.max(curve.y) - np.min(curve.y))
    if span < 3.0 * float(np.median(curve.sigma)):
        raise UnidentifiableError(
            "decay amplitude is zero within noise; T1 and iota are unconstrained"
        )
    t_end = curve.t[-1]
    t, y, sig = curve.t / t_end, curve.y / span, curve.sigma / span
    # with each weight at most 1e-4 / n of the largest float, no cost
    # overflows while the residuals stay within 100 spans
    if np.min(sig) < np.sqrt(1e4 * len(curve) / np.finfo(float).max):
        raise DataFormatError(
            f"uncertainties down to {np.min(curve.sigma):.3g} are too small for a "
            f"signal span of {span:.3g}: the fit's weights would overflow"
        )
    # the T1 grid starts at the first positive delay / 100, not the nudged one
    grid_t1_lo = (t[0] if t[0] > 0 else t[1]) / 100.0
    if t[0] == 0:
        # (t/T1)^iota needs t > 0; nudge a leading zero sample
        t[0] = t[1] * 1e-6

    # A within 10 spans of 0 and C within a span of the data, with the pads
    # of the unscaled box
    pad_a, pad_c = 1e-12 / span, 1e-9 / span
    lo = np.array([-10.0 - pad_a, t[0] / 100.0, IOTA_BOUNDS[0], np.min(y) - 1.0 - pad_c])
    hi = np.array([10.0 + pad_a, 100.0, IOTA_BOUNDS[1], np.max(y) + 1.0 + pad_c])

    def resid(p):
        return (_stretched_exp(t, *p) - y) / sig

    def jac(p):
        return _stretched_exp_jac(t, *p) / sig[:, None]

    for p0 in _grid_starts(t, y, sig, [lo[0], grid_t1_lo, *lo[2:]], hi):
        try:
            x, r, j, converged = _levenberg_marquardt(resid, jac, p0, lo, hi)
        except ValueError:  # LinAlgError and non-finite residuals; not bugs
            continue
        if converged:
            break
    else:
        raise ConvergenceError(
            "stretched-exponential fit failed from every start; "
            "data may not be a monotone decay"
        )

    dof = max(len(curve) - 4, 1)
    jtj = j.T @ j
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    scale = np.array([span, t_end, 1.0, span])
    a, t1, iota, c = x * scale
    a_sigma, t1_sigma, iota_sigma, c_sigma = (
        np.sqrt(np.clip(np.diag(cov), 0.0, np.inf)) * scale
    )
    if abs(x[0]) < 3.0 * float(np.median(sig)) / np.sqrt(len(curve)):
        raise UnidentifiableError(
            "fitted decay amplitude is consistent with zero; T1 unconstrained"
        )
    return DecayFitResult(
        a=a, t1=t1, iota=iota, c=c,
        a_sigma=a_sigma, t1_sigma=t1_sigma, iota_sigma=iota_sigma, c_sigma=c_sigma,
        chi2_red=float(r @ r) / dof,
    )


# ---------------------------------------------------------------------------
# molecular spin-lattice temperature model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpinLatticeParams:
    """One- and two-phonon rate constants.

    `a` and `b` are rates (1/s); `omega_a`, `omega_b` are mode angular
    frequencies (rad/s); `c` is the temperature-independent floor (1/s).
    """

    a: float
    omega_a: float
    b: float
    omega_b: float
    c: float = 0.0


def spin_lattice_rate(temperature, params: SpinLatticeParams):
    """R(T) = A n(omega_A) + B e^x (e^x - 1)^-2 |_{omega_B} + C, in 1/s.

    x = hbar omega / (k_B T); evaluated with expm1 in e^{-x} form so both
    the T -> 0 limit (returns C) and large-T growth are overflow-free.
    """
    t_arr = np.asarray(temperature, dtype=float)
    if np.any(t_arr <= 0):
        raise ValueError("temperature must be > 0 K")
    x_a = HBAR * params.omega_a / (K_B * t_arr)
    x_b = HBAR * params.omega_b / (K_B * t_arr)
    # A / (e^x - 1) = A e^{-x} / (1 - e^{-x})
    one_phonon = params.a * np.exp(-x_a) / (-np.expm1(-x_a))
    # B e^x / (e^x - 1)^2 = B e^{-x} / (1 - e^{-x})^2
    two_phonon = params.b * np.exp(-x_b) / np.expm1(-x_b) ** 2
    out = one_phonon + two_phonon + params.c
    return out if out.ndim else float(out)


def fit_spin_lattice(
    temperature: np.ndarray,
    rates: np.ndarray,
    sigma: np.ndarray | None = None,
) -> SpinLatticeParams:
    """Recover SpinLatticeParams from measured R(T) by multi-start fitting."""
    from scipy.optimize import least_squares

    t = np.asarray(temperature, dtype=float)
    r = np.asarray(rates, dtype=float)
    s = np.ones_like(r) if sigma is None else np.asarray(sigma, dtype=float)
    r_scale = float(np.max(r))
    # mode frequencies are searched in log-space around k_B T range
    w_lo = 0.1 * K_B * np.min(t) / HBAR
    w_hi = 100.0 * K_B * np.max(t) / HBAR

    def unpack(p):
        # p holds the logs of (A, omega_A, B, omega_B, C), the fields in order
        return SpinLatticeParams(*(np.exp(x) for x in p))

    def resid(p):
        return (spin_lattice_rate(t, unpack(p)) - r) / s

    best = None
    for wa in np.geomspace(w_lo * 3, w_hi / 3, 4):
        for wb in np.geomspace(w_lo * 3, w_hi / 3, 3):
            p0 = [
                np.log(r_scale),
                np.log(wa),
                np.log(r_scale),
                np.log(wb),
                np.log(r_scale * 1e-4 + 1e-30),
            ]
            try:
                sol = least_squares(resid, p0, method="trf")
            except ValueError:
                continue
            if best is None or sol.cost < best.cost:
                best = sol
    if best is None:
        raise ConvergenceError("spin-lattice fit failed from every start")
    return unpack(best.x)
