"""NV-side relaxometry: transition frequency, golden-rule T1, ΔΓ₁.

The NV |0> -> |-1> transition frequency decreases with axial field as
|d_zfs - gamma_e B| (zero crossing near 1024 G), so sweeping the field
sweeps the probe frequency across the bath spectrum.  The golden rule
converts the bath spectral density at that frequency into a relaxation
rate, and the film-induced change of rate

    delta_gamma = 1/T1|_film - 1/T1|_free

is the observable every fit consumes.  Raw T1 curves are reduced with the
stretched-exponential model y = A exp[-(t/T1)^iota] + C, fitted with its
analytic Jacobian (`_stretched_exp_jac`), and the temperature dependence
of the molecular spin-lattice rate is modeled by one- and two-phonon Bose
factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bathspectrum import BathSpectrumModel, spectral_density
from .constants import D_ZFS, GAMMA_E, HBAR, K_B
from .errors import ConvergenceError, UnidentifiableError


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


def fit_decay(curve: DecayCurve) -> DecayFitResult:
    """Weighted multi-start least-squares fit of the stretched exponential.

    TRF gets the analytic Jacobian of the weighted residual, and the
    parameter covariance comes from that Jacobian at the solution.  Raises
    UnidentifiableError when the curve is constant within noise (A
    unidentifiable) and ConvergenceError when no start converges.
    """
    # imported here, not at module level: spectrum, t1 and tau-ee load this
    # module and never fit, and SciPy would be most of their start-up time
    from scipy.optimize import least_squares

    if len(curve) < 6:
        raise ValueError("need at least 6 samples to fit 4 parameters")
    t, y, sig = curve.t, curve.y, curve.sigma
    if t[0] <= 0:
        # (t/T1)^iota needs t > 0; nudge a leading zero sample
        t = t.copy()
        t[0] = t[1] * 1e-6
    span = float(np.max(y) - np.min(y))
    noise = float(np.median(sig))
    if span < 3.0 * noise:
        raise UnidentifiableError(
            "decay amplitude is zero within noise; T1 and iota are unconstrained"
        )

    a0 = y[0] - y[-1]
    c0 = y[-1]
    t25, t50, t75 = np.quantile(t, [0.25, 0.5, 0.75])
    lo = [-10 * abs(span) - 1e-12, t[0] / 100.0, IOTA_BOUNDS[0], np.min(y) - span - 1e-9]
    hi = [10 * abs(span) + 1e-12, t[-1] * 100.0, IOTA_BOUNDS[1], np.max(y) + span + 1e-9]

    def resid(p):
        return (_stretched_exp(t, *p) - y) / sig

    def jac(p):
        return _stretched_exp_jac(t, *p) / sig[:, None]

    best = None
    for t1_start in (t25, t50, t75):
        for iota_start in (0.7, 1.0, 1.5):
            p0 = np.clip([a0, t1_start, iota_start, c0], lo, hi)
            try:
                sol = least_squares(resid, p0, jac=jac, bounds=(lo, hi), method="trf")
            except ValueError:  # LinAlgError and non-finite residuals; not bugs
                continue
            if not sol.success:
                continue
            if best is None or sol.cost < best.cost:
                best = sol
    if best is None:
        raise ConvergenceError(
            "stretched-exponential fit failed from every start; "
            "data may not be a monotone decay"
        )

    dof = max(len(curve) - 4, 1)
    chi2_red = 2.0 * best.cost / dof
    jtj = best.jac.T @ best.jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    perr = np.sqrt(np.clip(np.diag(cov), 0.0, np.inf))
    a, t1, iota, c = best.x
    if abs(a) < 3.0 * noise / np.sqrt(len(curve)):
        raise UnidentifiableError(
            "fitted decay amplitude is consistent with zero; T1 unconstrained"
        )
    return DecayFitResult(
        a=a, t1=t1, iota=iota, c=c,
        a_sigma=perr[0], t1_sigma=perr[1], iota_sigma=perr[2], c_sigma=perr[3],
        chi2_red=chi2_red,
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
    floor: bool = True,
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
        la, lwa, lb, lwb, lc = p
        c = np.exp(lc) if floor else 0.0
        return SpinLatticeParams(
            a=np.exp(la), omega_a=np.exp(lwa), b=np.exp(lb), omega_b=np.exp(lwb), c=c
        )

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
            except Exception:
                continue
            if best is None or sol.cost < best.cost:
                best = sol
    if best is None:
        raise ConvergenceError("spin-lattice fit failed from every start")
    return unpack(best.x)
