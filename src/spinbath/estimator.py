"""Inverse problem: estimate (tau_e, theta_e) or (d_nv, theta_e) from ΔΓ₁.

The forward model ΔΓ₁^th(B; λ) = γ_e² S_e(ω_NV(B)) is expensive through
the eigendecomposition behind the transition spectrum, so the estimator
precomputes a cache: for every (field, θ-node) pair it stores the binned
line list shifted by ∓ω_NV.  `ForwardModel.unit_rates` evaluates ΔΓ₁ per
unit b₀² on whole arrays of (τ_e, θ_e): it sums the lines of each θ node
that brackets a queried θ once per distinct τ_e, keeps each node's last
sum for a repeat of the same τ_e values, and interpolates linearly
between the nodes.  The depth and film nuisances (d_nv, h, n_e) enter only
through the multiplier b₀², so a grid mesh, a nuisance probe over that
mesh and a single Nelder–Mead point are each one broadcast evaluation.

Fitting is a deterministic coarse grid scan (64 points per free
dimension) followed by Nelder–Mead refinement from every grid-local
minimum; all surviving minima are reported, never auto-selected.  The
confidence region is the set of grid points whose model prediction can be
brought within ε of every data point by some nuisance probe (corners +
center of the nuisance box).
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from .bathspectrum import FilmGeometry, geometry_factors, slab_b0_sq
from .constants import GAUSS_TO_TESLA
from .errors import UnidentifiableError
from .relaxometry import MeasurementSet, NvConfig, nv_frequency
from .spinmodel import (
    CU_ISOTOPES,
    DEFAULT_BIN,
    DEFAULT_ETA_FLOOR,
    Isotope,
    SpinSystemSpec,
    isotope_family_spectrum,
)

#: Default search boxes (SI units / radians).
DEFAULT_BOXES: dict[str, tuple[float, float]] = {
    "tau_e": (0.1e-9, 100e-9),
    "theta_e": (0.0, np.pi / 2),
    "d_nv": (2e-9, 50e-9),
}

#: Grid points per free dimension in the coarse scan.
DEFAULT_GRID = 64

#: θ-node spacing of the cache (radians).
DEFAULT_THETA_STEP = np.radians(1.0)

#: Parameters a fit may leave free.
FITTABLE = ("tau_e", "theta_e", "d_nv")

#: Largest (τ × line) float32 work array of one node sum (4 MB).
_CHUNK_ELEMENTS = 1 << 20


def _unit_lorentzian(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """1 / ((x t)² + 1) for a column of τ against a row of lines, in place."""
    out = np.square(x * t)
    out += 1.0
    return np.reciprocal(out, out=out)


class ForwardModel:
    """Cached ΔΓ₁^th(B; τ_e, θ_e) · b₀²-multiplier evaluator.

    Building it costs one diagonalization pair per (field, θ node);
    `isotopes` and `eta_floor` are passed to `isotope_family_spectrum`.
    After construction the line cache is read-only.  The one mutable part
    is a memo of the last line sum per (field, node): the bytes of the τ
    array summed and the resulting row, stored as one tuple and replaced
    whole, so a call with the same τ array reuses the row.  A depth fit
    fixes τ_e, so its Nelder–Mead steps and confidence sweep re-read the
    rows of its grid scan instead of summing the nodes again.  The memo
    holds at most one entry per (field, node), and a concurrent reader
    sees either an old or a new pair, never a mixed one, so an instance is
    safe to share across fits and threads.

    With `workers` > 1 the (field, node) entries are built on that many
    threads (at most one per entry); `eigh` releases the GIL, so they run
    in parallel.  Each entry is stored under its key, so the cache is the
    same, bit for bit, for any worker count.  The threads pay off only when
    BLAS runs one thread each: the CLI pins BLAS to one thread before numpy
    loads, while an in-process caller whose BLAS is already multithreaded
    oversubscribes the cores and should keep the default of 1.

    Between nodes the rate is interpolated linearly in θ.  It is not linear
    once the Lorentzian width 1/τ_e is below the distance a line moves
    between two nodes, so the error grows with τ_e and the node step.
    Worst |cached / exact − 1| against the exact binned pipeline, over
    every mid-node from 5° to 85° at the four shipped fields (the 2° row
    is asserted within 1.5× by `test_mid_node_error_bound`):

        node step   τ_e = 1 ns   3 ns     10 ns    100 ns
        1°          4.7e-3       4.6e-3   4.4e-2   2.2
        2°          1.3e-2       1.3e-2   0.15     5.3
        5°          1.2e-2       5.4e-2   0.33     13
    """

    def __init__(
        self,
        fields_gauss,
        base_spec: SpinSystemSpec,
        nv: NvConfig | None = None,
        theta_step: float = DEFAULT_THETA_STEP,
        bin_width: float = DEFAULT_BIN,
        isotopes: tuple[Isotope, ...] = CU_ISOTOPES,
        eta_floor: float = DEFAULT_ETA_FLOOR,
        workers: int = 1,
    ):
        self.fields_gauss = tuple(float(b) for b in fields_gauss)
        self.nv = nv or NvConfig()
        self.base_spec = base_spec
        n_nodes = int(np.floor((np.pi / 2) / theta_step)) + 1
        self.theta_nodes = theta_step * np.arange(n_nodes)
        if self.theta_nodes[-1] < np.pi / 2 - 1e-12:
            self.theta_nodes = np.append(self.theta_nodes, np.pi / 2)
        self.bin_width = bin_width
        f_z, f_perp = geometry_factors()
        self._f_z, self._f_perp = f_z, f_perp
        # cache[(i_field, i_node)] = (minus, plus) float32 arrays of
        # (omega_line -/+ omega_nv) and the matching weights
        self._cache: dict[tuple[int, int], tuple] = {}
        # sums[(i_field, i_node)] = (τ array bytes, line sums per τ) of the
        # node's last sum
        self._sums: dict[tuple[int, int], tuple[bytes, np.ndarray]] = {}
        self._omega_nv = np.array(
            [
                nv_frequency(self.nv, b * GAUSS_TO_TESLA)
                for b in self.fields_gauss
            ]
        )
        n_fields = len(self.fields_gauss)
        keys = [(i, j) for j in range(self.theta_nodes.size) for i in range(n_fields)]

        def entry(key):
            i, j = key
            spec = replace(
                base_spec,
                b_field=self.fields_gauss[i] * GAUSS_TO_TESLA,
                theta_e=float(self.theta_nodes[j]),
            )
            omega, weight = isotope_family_spectrum(
                spec, isotopes=isotopes, eta_floor=eta_floor
            ).binned(bin_width)
            w_nv = self._omega_nv[i]
            return (
                (omega - w_nv).astype(np.float32),
                (omega + w_nv).astype(np.float32),
                weight.astype(np.float32),
            )

        workers = min(workers, len(keys))
        if workers > 1:
            # eigh releases the GIL; map() hands the entries back in key order
            with ThreadPoolExecutor(workers) as pool:
                self._cache.update(zip(keys, pool.map(entry, keys)))
        else:
            self._cache.update(zip(keys, map(entry, keys)))

    def _node_rates(self, taus: np.ndarray, nodes: np.ndarray, fields) -> np.ndarray:
        """ΔΓ₁ for b₀² = 1 T² at θ nodes `nodes`: (n_τ, n_node, len(fields)).

        The line sum runs in float32 over chunks of τ, so no work array
        exceeds _CHUNK_ELEMENTS.  Each τ row is reduced on its own (pairwise
        summation), so its value does not depend on which other τ share the
        call.  A (field, node) whose last sum was over the same τ bytes
        reuses that row from the memo.
        """
        lines = np.empty((taus.size, nodes.size, len(fields)))
        t32 = taus.astype(np.float32)[:, None]
        key = taus.tobytes()
        for f, i in enumerate(fields):
            for k, j in enumerate(nodes.tolist()):
                memo = self._sums.get((i, j))
                if memo is not None and memo[0] == key:
                    lines[:, k, f] = memo[1]
                    continue
                diff, summ, w = self._cache[(i, j)]
                step = max(1, _CHUNK_ELEMENTS // w.size)
                for s in range(0, taus.size, step):
                    t = t32[s : s + step]
                    lor = _unit_lorentzian(diff, t)
                    lor += _unit_lorentzian(summ, t)
                    lor *= w
                    lines[s : s + step, k, f] = lor.sum(axis=-1)
                self._sums[(i, j)] = (key, lines[:, k, f].copy())
        tau = taus[:, None, None]
        central = 2.0 * self._f_z / ((self._omega_nv[list(fields)] * tau) ** 2 + 1.0)
        return self.nv.gamma_e**2 * ((central + self._f_perp * lines) * tau)

    def unit_rates(self, tau, theta, fields=None) -> np.ndarray:
        """ΔΓ₁ per unit b₀² at broadcastable τ and θ: shape (..., n_field).

        `fields` lists the indices of the configured fields to evaluate
        (default: all, in order).  θ is clipped to the node range and
        interpolated linearly between its two bracketing nodes.  Only those
        nodes are summed, once per distinct τ, so a single point costs two
        node sums per field.
        """
        if fields is None:
            fields = range(len(self.fields_gauss))
        tau = np.asarray(tau, dtype=float)
        nodes = self.theta_nodes
        theta = np.minimum(np.maximum(theta, nodes[0]), nodes[-1])
        j = np.minimum(np.searchsorted(nodes, theta, side="right"), nodes.size - 1) - 1
        frac = np.expand_dims((theta - nodes[j]) / (nodes[j + 1] - nodes[j]), -1)
        taus, tau_pos = np.unique(tau, return_inverse=True)
        used = np.zeros(nodes.size, dtype=bool)
        used[j] = used[j + 1] = True
        node_pos = np.cumsum(used) - 1
        rates = self._node_rates(taus, np.flatnonzero(used), fields)
        tau_pos = tau_pos.reshape(tau.shape)
        lo, hi = rates[tau_pos, node_pos[j]], rates[tau_pos, node_pos[j + 1]]
        return (1.0 - frac) * lo + frac * hi

    def delta_gamma_unit(self, i_field: int, tau, theta):
        """ΔΓ₁ per unit b₀² at one configured field."""
        return self.unit_rates(tau, theta, (i_field,))[..., 0]

    def delta_gammas(self, tau, theta, b0_sq, fields=None) -> np.ndarray:
        """ΔΓ₁^th in 1/s at the `fields` of unit_rates: shape (..., n_field)."""
        return np.asarray(b0_sq)[..., None] * self.unit_rates(tau, theta, fields)


def check_free(free: tuple[str, ...], n_records: int | None = None) -> None:
    """Validate a free-parameter set; cheap enough to run before a cache build.

    Raises ValueError for unknown, repeated or too many names and, given the
    record count, UnidentifiableError when the records cannot constrain them.
    """
    for name in free:
        if name not in FITTABLE:
            raise ValueError(f"unknown or non-fittable parameter '{name}'")
    if not free:
        raise ValueError("no free parameters")
    if len(set(free)) != len(free):
        raise ValueError(f"repeated free parameter in {list(free)}")
    if len(free) > 2:
        raise ValueError("at most two free parameters are supported")
    if n_records is not None and n_records < len(free):
        raise UnidentifiableError(
            f"{n_records} data point(s) cannot constrain {len(free)} free parameter(s)"
        )


@dataclass(frozen=True)
class FitProblem:
    """Data + free/fixed parameter split + forward model reference.

    `fixed` maps parameter name to (value, (lo, hi)) where the interval is
    the 95% range swept by confidence_region (degenerate lo == hi allowed).
    Recognized parameters: tau_e, theta_e, d_nv (free or fixed) and h,
    n_e (fixed only).  The film geometry supplies defaults for all of
    d_nv, h, n_e.
    """

    data: MeasurementSet
    model: ForwardModel
    geometry: FilmGeometry
    free: tuple[str, ...]
    fixed: dict[str, tuple[float, tuple[float, float]]] = field(default_factory=dict)
    boxes: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        known = {"tau_e", "theta_e", "d_nv", "h", "n_e"}
        check_free(self.free)
        for name in self.fixed:
            if name not in known:
                raise ValueError(f"unknown parameter '{name}'")
        overlap = set(self.free) & set(self.fixed)
        if overlap:
            raise ValueError(f"parameters both free and fixed: {sorted(overlap)}")
        for required in ("tau_e", "theta_e"):
            if required not in self.free and required not in self.fixed:
                raise ValueError(f"{required} must be either free or fixed")
        fields = set(self.data.fields_gauss().tolist())
        missing = fields - set(self.model.fields_gauss)
        if missing:
            raise ValueError(f"model cache lacks fields {sorted(missing)} G")

    def box(self, name: str) -> tuple[float, float]:
        return self.boxes.get(name, DEFAULT_BOXES[name])

    def _field_indices(self) -> np.ndarray:
        lookup = {b: i for i, b in enumerate(self.model.fields_gauss)}
        return np.array([lookup[r.b_gauss] for r in self.data.records])

    def fixed_value(self, name: str) -> float:
        if name in self.fixed:
            return self.fixed[name][0]
        if name == "d_nv":
            return self.geometry.d_nv
        if name == "h":
            return self.geometry.h
        if name == "n_e":
            return self.geometry.n_e
        raise KeyError(name)


def _value(problem: FitProblem, params: dict, name: str):
    """`params[name]`, else the parameter's fixed value."""
    return params[name] if name in params else problem.fixed_value(name)


def _b0_sq(problem: FitProblem, params: dict):
    """The b₀² multiplier of the (d_nv, h, n_e) values in `params`."""
    d_nv, h, n_e = (_value(problem, params, n) for n in ("d_nv", "h", "n_e"))
    return slab_b0_sq(d_nv, h, n_e, gamma_e=problem.model.nv.gamma_e)


def _model_prediction(
    problem: FitProblem, params: dict, field_idx: np.ndarray
) -> np.ndarray:
    """ΔΓ₁^th at the records' fields for broadcastable parameter values.

    Returns shape (..., n_records); parameters absent from `params` take
    their fixed values.
    """
    return problem.model.delta_gammas(
        _value(problem, params, "tau_e"),
        _value(problem, params, "theta_e"),
        _b0_sq(problem, params),
        fields=field_idx,
    )


@dataclass(frozen=True)
class FitResult:
    """All local minima (global first) plus diagnostics."""

    minima: tuple[tuple[dict[str, float], float], ...]
    free: tuple[str, ...]
    landscape: tuple  # (grids per free param, objective array)
    boundary_minimum: bool
    confidence: dict[str, list[tuple[float, float]]] | None = None
    #: 1-sigma curvature estimates at the global minimum (inf when the
    #: chi^2 Hessian is not positive in that direction)
    param_sigma: dict[str, float] | None = None

    @property
    def best(self) -> dict[str, float]:
        return self.minima[0][0]

    @property
    def best_objective(self) -> float:
        return self.minima[0][1]

    @property
    def n_minima(self) -> int:
        return len(self.minima)

    def as_dict(self) -> dict:
        return {
            "free": list(self.free),
            "minima": [
                {"params": p, "objective": v} for p, v in self.minima
            ],
            "boundary_minimum": self.boundary_minimum,
            "confidence": self.confidence,
            "param_sigma": self.param_sigma,
        }


def _param_grid(problem: FitProblem, name: str, n: int) -> np.ndarray:
    lo, hi = problem.box(name)
    if name == "tau_e":
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _window_minimum(obj: np.ndarray) -> np.ndarray:
    """Minimum over each point's edge-truncated 3 or 3×3 window.

    Equal to scipy.ndimage.minimum_filter(obj, size=3, mode="nearest"):
    repeating an edge value cannot lower a minimum, and the 3×3 minimum is
    the 3-point minimum along one axis, then along the other.  NaN
    propagates; `fit` rejects a landscape holding NaN before it gets here.
    """
    out = obj
    for axis in range(obj.ndim):
        a = np.moveaxis(out, axis, 0)
        m = a.copy()
        np.minimum(m[1:], a[:-1], out=m[1:])
        np.minimum(m[:-1], a[1:], out=m[:-1])
        out = np.moveaxis(m, 0, axis)
    return out


def _grid_local_minima(obj: np.ndarray) -> list[tuple[int, ...]]:
    """Indices of strict-or-plateau local minima on a 1-d or 2-d grid.

    A point qualifies when no neighbour in its (edge-truncated) 3 or 3×3
    window is lower.
    """
    is_min = obj <= _window_minimum(obj)
    return [tuple(int(i) for i in idx) for idx in np.argwhere(is_min)]


def fit(problem: FitProblem, grid_points: int = DEFAULT_GRID) -> FitResult:
    """Deterministic grid scan + Nelder–Mead refinement of every basin."""
    free = problem.free
    check_free(free, len(problem.data.records))

    grids = [_param_grid(problem, name, grid_points) for name in free]
    field_idx = problem._field_indices()
    exp, sig = problem.data.delta_gammas()

    def objective(vals):
        """σ-normalized χ² at broadcastable free-parameter values."""
        th = _model_prediction(problem, dict(zip(free, vals)), field_idx)
        return np.sum(((exp - th) / sig) ** 2, axis=-1)

    # the whole landscape is one broadcast over the sparse mesh
    obj = objective(np.meshgrid(*grids, indexing="ij", sparse=True))

    spread = float(np.max(obj) - np.min(obj))
    if not np.isfinite(spread) or spread < 1e-12 * (1.0 + float(np.min(obj))):
        raise UnidentifiableError("objective is flat over the search box")

    # refine every grid-local minimum; work in scaled coordinates
    los = np.array([problem.box(n)[0] for n in free])
    his = np.array([problem.box(n)[1] for n in free])
    log_mask = np.array([n == "tau_e" for n in free])

    lo_i = np.where(log_mask, np.log(np.where(log_mask, los, 1.0)), los)
    hi_i = np.where(log_mask, np.log(np.where(log_mask, his, 1.0)), his)

    def to_internal(x):
        y = np.where(log_mask, np.log(np.where(log_mask, x, 1.0)), x)
        return (y - lo_i) / (hi_i - lo_i)

    def from_internal(u):
        y = lo_i + np.clip(u, 0.0, 1.0) * (hi_i - lo_i)
        return np.where(log_mask, np.exp(y), y)

    def f_internal(u):
        return float(objective(from_internal(u)))

    # cap refinement starts: genuine basins are few; plateaus can flood
    starts = _grid_local_minima(obj)
    starts.sort(key=lambda idx: (obj[idx], idx))
    starts = starts[:12]

    candidates = []
    for idx in starts:
        x0 = np.array([grids[k][idx[k]] for k in range(len(free))])
        sol = minimize(
            f_internal,
            to_internal(x0),
            method="Nelder-Mead",
            options={"xatol": 1e-5, "fatol": 1e-12, "maxiter": 600},
        )
        u = np.clip(sol.x, 0.0, 1.0)
        candidates.append((from_internal(u), f_internal(u)))

    # deduplicate within 1% of the (internal) box per dimension
    deduped: list[tuple[np.ndarray, float]] = []
    for x, v in sorted(candidates, key=lambda c: c[1]):
        dup = False
        for x2, v2 in deduped:
            if np.all(np.abs(to_internal(x) - to_internal(x2)) < 0.01):
                dup = True
                break
        if not dup:
            deduped.append((x, v))
    # drop shallow relicts: keep minima within a generous band of the best
    best_v = deduped[0][1]
    tol_keep = best_v + max(9.0, best_v)
    kept = [(x, v) for x, v in deduped if v <= tol_keep]

    boundary = False
    for x, _ in kept[:1]:
        u = to_internal(x)
        if np.any(u < 1.0 / grid_points) or np.any(u > 1.0 - 1.0 / grid_points):
            boundary = True

    sigma = _curvature_sigma(
        f_internal, to_internal(kept[0][0]), free, log_mask, lo_i, hi_i
    )
    minima = tuple((dict(zip(free, x.tolist())), v) for x, v in kept)
    return FitResult(
        minima=minima,
        free=free,
        landscape=(tuple(g.copy() for g in grids), obj),
        boundary_minimum=boundary,
        param_sigma=sigma,
    )


def _curvature_sigma(
    f, u0: np.ndarray, free: tuple[str, ...], log_mask, lo_i, hi_i, step: float = 1e-3
) -> dict[str, float]:
    """1-sigma parameter scales from the chi^2 Hessian (Delta-chi^2 = 1).

    Central differences in the internal unit cube; cov = 2 H^-1; the
    diagonal is mapped back through the (diagonal) internal->physical
    Jacobian.  Directions with non-positive curvature report inf.
    """
    k = u0.size
    u = np.clip(u0, 2 * step, 1.0 - 2 * step)
    f0 = f(u)
    h = np.zeros((k, k))
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = step
        h[i, i] = (f(u + ei) - 2.0 * f0 + f(u - ei)) / step**2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = step
            h[i, j] = h[j, i] = (
                f(u + ei + ej) - f(u + ei - ej) - f(u - ei + ej) + f(u - ei - ej)
            ) / (4.0 * step**2)
    try:
        cov = 2.0 * np.linalg.pinv(h)
    except np.linalg.LinAlgError:
        return {name: float("inf") for name in free}
    width = hi_i - lo_i
    y = lo_i + u0 * width
    phys = np.where(log_mask, np.exp(y), y)
    jac = np.where(log_mask, width * phys, width)
    out = {}
    for i, name in enumerate(free):
        var = cov[i, i]
        out[name] = float(np.sqrt(var) * abs(jac[i])) if var > 0 else float("inf")
    return out


def _nuisance_probes(problem: FitProblem) -> list[dict[str, float]]:
    """Corners + center of the nuisance interval box I_ind."""
    names, intervals = [], []
    for name, (_val, (lo, hi)) in problem.fixed.items():
        names.append(name)
        intervals.append((lo, hi))
    center = {n: 0.5 * (lo + hi) for n, (lo, hi) in zip(names, intervals)}
    probes = [center]
    live = [(n, iv) for n, iv in zip(names, intervals) if iv[0] < iv[1]]
    if live:
        for corner in itertools.product(*[(iv[0], iv[1]) for _, iv in live]):
            p = dict(center)
            p.update({n: v for (n, _), v in zip(live, corner)})
            probes.append(p)
    return probes


def _accepted(problem: FitProblem, vals, epsilon_scale: float) -> np.ndarray:
    """Whether some nuisance probe brings every point within ε of the data.

    `vals` are broadcastable values of the free parameters.  Probes that
    share their (τ_e, θ_e) values share one `unit_rates` evaluation, which
    each scales by its own b₀²; the per-probe masks are OR-reduced.
    """
    field_idx = problem._field_indices()
    exp, sig = problem.data.delta_gammas()
    eps = epsilon_scale * sig
    groups: dict[tuple, list[dict]] = {}
    for probe in _nuisance_probes(problem):
        params = {**dict(zip(problem.free, vals)), **probe}
        key = tuple(probe.get(name) for name in ("tau_e", "theta_e"))
        groups.setdefault(key, []).append(params)
    ok = False
    for members in groups.values():
        unit = problem.model.unit_rates(
            _value(problem, members[0], "tau_e"),
            _value(problem, members[0], "theta_e"),
            field_idx,
        )
        for params in members:
            th = np.asarray(_b0_sq(problem, params))[..., None] * unit
            ok = ok | np.all(np.abs(exp - th) < eps, axis=-1)
    return ok


def confidence_region(
    problem: FitProblem,
    result: FitResult,
    epsilon_scale: float = 1.0,
    grid_points: int = DEFAULT_GRID,
) -> dict[str, list[tuple[float, float]]]:
    """Accepted set {λ : ∃ λ_ind probe with |ΔΓ₁^exp − ΔΓ₁^th| < ε everywhere}.

    ε per point is epsilon_scale × the experimental σ.  Returns
    per-free-parameter lists of accepted intervals (grid-run bounded,
    possibly disconnected).
    """
    free = problem.free
    grids = [_param_grid(problem, name, grid_points) for name in free]
    mesh = np.meshgrid(*grids, indexing="ij", sparse=True)
    accepted = _accepted(problem, mesh, epsilon_scale)
    # always test the fitted minimizer itself (it may sit off-grid)
    best_ok = bool(_accepted(problem, [result.best[n] for n in free], epsilon_scale))

    out: dict[str, list[tuple[float, float]]] = {}
    for k, name in enumerate(free):
        axis_ok = accepted.any(axis=tuple(a for a in range(len(free)) if a != k))
        # runs of accepted grid points: starts at even, ends at odd edges
        edges = np.flatnonzero(np.diff(np.concatenate([[0], axis_ok, [0]])))
        g = grids[k]
        intervals = [
            (float(g[a]), float(g[b - 1])) for a, b in zip(edges[::2], edges[1::2])
        ]
        if best_ok:
            b = result.best[name]
            if not any(lo <= b <= hi for lo, hi in intervals):
                intervals.append((b, b))
                intervals.sort()
        out[name] = intervals
    return out


def estimate_depth(problem: FitProblem, grid_points: int = DEFAULT_GRID) -> FitResult:
    """Depth pipeline: fit with free = {d_nv, theta_e} and fixed tau_e.

    Returns the FitResult with confidence intervals attached (the d_nv
    entry is the depth interval).
    """
    if set(problem.free) != {"d_nv", "theta_e"}:
        raise ValueError("estimate_depth requires free = {d_nv, theta_e}")
    if "tau_e" not in problem.fixed:
        raise ValueError("estimate_depth requires fixed tau_e")
    result = fit(problem, grid_points=grid_points)
    conf = confidence_region(problem, result, grid_points=grid_points)
    return replace(result, confidence=conf)
