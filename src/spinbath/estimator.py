"""Inverse problem: estimate any of tau_e, theta_e and d_nv from one NV's ΔΓ₁.

The forward model ΔΓ₁^th(B; λ) = γ_e² S_e(ω_NV(B)) is expensive through
the eigendecomposition behind the transition spectrum, so the estimator
precomputes a cache: for every (field, θ-node) pair it stores the binned
line list shifted by ∓ω_NV.  `ForwardModel.unit_rates` evaluates ΔΓ₁ per
unit b₀² on whole arrays of (τ_e, θ_e): it keeps one table of node rates
per array of distinct τ_e values, sums the lines of a θ node that brackets
a queried θ only when the table lacks it, and interpolates linearly
between the nodes.  The depth and film nuisances (d_nv, h, n_e) enter only
through the multiplier b₀², so a grid mesh and a single Nelder–Mead point
are each one broadcast evaluation.

Fitting searches only τ_e and θ_e: a deterministic coarse grid scan (64
points per searched dimension) followed by Nelder–Mead refinement from
every grid-local minimum; all surviving minima are reported, never
auto-selected.  A free d_nv is profiled out (variable projection, Golub &
Pereyra 1973): b₀² takes its least-squares value at each searched point.
The confidence region is the set of grid points whose model prediction can
be brought within ε of every data point by some value in the nuisance box.
b₀² is monotone in each of d_nv, h and n_e, so the box is one b₀²
interval, and each grid point is tested against it in closed form; a τ_e
or θ_e fixed on an interval is sampled at the grid nodes it spans.  A free
d_nv's region is exact: the depths that the accepted b₀² windows admit.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .bathspectrum import FilmGeometry, comb_sum, slab_b0_sq, unit_spectral_density
from .constants import GAUSS_TO_TESLA
from .errors import UnidentifiableError
from .relaxometry import MeasurementSet, NvConfig, T1Record, delta_gamma, nv_frequency
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

#: Rate tables the `ForwardModel` memo keeps per kind of τ array.
_MEMO_TABLES = 2


class ForwardModel:
    """Cached ΔΓ₁^th(B; τ_e, θ_e) · b₀²-multiplier evaluator.

    Building it costs one diagonalization pair per (field, θ node);
    `isotopes` and `eta_floor` are passed to `isotope_family_spectrum`.
    The cache holds each node's binned lines as float32 ω ∓ ω_NV; a node
    sum is one `bathspectrum.comb_sum` over them, the kernel that
    `spectral_density` runs too, and `bathspectrum.unit_spectral_density`
    turns it into S_e, so no part of S_e is coded here.
    After construction the line cache is read-only.  The one mutable part
    is a memo of rate tables keyed by the bytes of a τ array: ΔΓ₁ per unit
    b₀² over (θ node, field, τ), filled lazily one (node, field) column at
    a time.  The rates depend on no NV, so a depth fit's fixed τ_e and the
    τ_e samples of its confidence sweep are summed by the first NV only;
    every later fit on the model, and each Nelder–Mead step, reads them.
    The memo keeps the two latest tables of one τ value and the two latest
    of several, so a simplex's stream of scalar τ_e never evicts the grid
    table that a confidence sweep re-reads.  A column is written before it
    is marked filled and never changes after, and the table dict changes
    only under a lock, so a reader sees only finished columns; two threads
    that fill one column write the same bits.  An instance is thus safe to
    share across fits and threads.

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
        # cache[(i_field, i_node)] = (minus, plus) float32 arrays of
        # (omega_line -/+ omega_nv) and the matching weights
        self._cache: dict[tuple[int, int], tuple] = {}
        # tables[τ array bytes] = (rates, filled) of `_table`
        self._tables: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        self._lock = threading.Lock()
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

    def _table(self, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The memo's (rates, filled) table of the τ array `taus`, made if new.

        rates[j, i] is node j's ΔΓ₁ per unit b₀² at field i over `taus`, set
        where filled[j, i].  A new table evicts the oldest beyond
        `_MEMO_TABLES` of its kind: one τ value, or several.
        """
        key = taus.tobytes()
        table = self._tables.get(key)
        if table is None:
            shape = (self.theta_nodes.size, len(self.fields_gauss))
            table = np.empty(shape + taus.shape), np.zeros(shape, dtype=bool)
            with self._lock:
                table = self._tables.setdefault(key, table)
                single = taus.size == 1
                kind = [k for k in self._tables if (len(k) == taus.itemsize) == single]
                for k in kind[:-_MEMO_TABLES]:
                    del self._tables[k]
        return table

    def _fill(self, table, taus: np.ndarray, j: int, i: int) -> None:
        """Set node j's column at field i of `table`, then mark it filled.

        One float32 `bathspectrum.comb_sum` over the cached ω ∓ ω_NV, a row
        per τ, so a row's value does not depend on which other τ share the
        table; `bathspectrum.unit_spectral_density` turns it into S_e.
        """
        rates, filled = table
        comb = comb_sum(*self._cache[(i, j)], taus.astype(np.float32)[:, None])
        rates[j, i] = self.nv.gamma_e**2 * unit_spectral_density(
            self._omega_nv[i], taus, comb.astype(float)
        )
        filled[j, i] = True

    def unit_rates(self, tau, theta, fields=None) -> np.ndarray:
        """ΔΓ₁ per unit b₀² at broadcastable τ and θ: shape (..., n_field).

        `fields` lists the indices of the configured fields to evaluate
        (default: all, in order).  θ is clipped to the node range and
        interpolated linearly between its two bracketing nodes.  Only those
        nodes' columns of the τ array's table are summed, and only when
        missing, so a single new point costs two node sums per field.
        """
        if fields is None:
            fields = range(len(self.fields_gauss))
        fields = np.asarray(fields)
        tau = np.asarray(tau, dtype=float)
        taus = np.unique(tau)
        tau_pos = np.searchsorted(taus, tau)[..., None]
        rates, filled = table = self._table(taus)
        nodes = self.theta_nodes
        theta = np.minimum(np.maximum(theta, nodes[0]), nodes[-1])
        j = np.minimum(np.searchsorted(nodes, theta, side="right"), nodes.size - 1) - 1
        frac = ((theta - nodes[j]) / (nodes[j + 1] - nodes[j]))[..., None]
        j = j[..., None]
        if not filled.all():
            wanted = np.zeros_like(filled)
            wanted[j, fields] = wanted[j + 1, fields] = True
            for node, i in np.argwhere(wanted & ~filled).tolist():
                self._fill(table, taus, node, i)
        lo, hi = rates[j, fields, tau_pos], rates[j + 1, fields, tau_pos]
        return (1.0 - frac) * lo + frac * hi

    def delta_gamma_unit(self, i_field: int, tau, theta):
        """ΔΓ₁ per unit b₀² at one configured field."""
        return self.unit_rates(tau, theta, (i_field,))[..., 0]

    def delta_gammas(self, tau, theta, b0_sq, fields=None) -> np.ndarray:
        """ΔΓ₁^th in 1/s at the `fields` of unit_rates: shape (..., n_field)."""
        return np.asarray(b0_sq)[..., None] * self.unit_rates(tau, theta, fields)


def check_free(
    free: tuple[str, ...], records: Sequence[T1Record] | None = None
) -> None:
    """Validate a free-parameter set; cheap enough to run before a cache build.

    Raises ValueError for unknown or repeated names and, given the T1
    records, UnidentifiableError when they cannot constrain the names:
    records of more than one NV (each has its own depth, so no one b₀²
    fits them), fewer distinct fields than names (a second record at one
    field adds no constraint), or ΔΓ₁ ≤ 0 at every record, which only the
    limit b₀² → 0 (no film) fits.
    """
    for name in free:
        if name not in FITTABLE:
            raise ValueError(f"unknown or non-fittable parameter '{name}'")
    if not free:
        raise ValueError("no free parameters")
    if len(set(free)) != len(free):
        raise ValueError(f"repeated free parameter in {list(free)}")
    if records is None:
        return
    nvs = sorted({r.nv_id for r in records})
    if len(nvs) > 1:
        raise UnidentifiableError(
            f"the table holds {len(nvs)} NVs ({', '.join(nvs)}), each at its own "
            f"depth; fit one NV per table, or run `depth` for every NV"
        )
    n_fields = len({r.b_gauss for r in records})
    if n_fields < len(free):
        raise UnidentifiableError(
            f"{n_fields} field(s) cannot constrain {len(free)} free parameter(s)"
        )
    if all(delta_gamma(r)[0] <= 0 for r in records):
        raise UnidentifiableError("ΔΓ₁ <= 0 at every record: the film shortens no T1")


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

    @property
    def searched(self) -> tuple[str, ...]:
        """The free parameters on the grid and in the simplex: all but d_nv."""
        return tuple(n for n in self.free if n != "d_nv")

    def fixed_value(self, name: str) -> float:
        if name in self.fixed:
            return self.fixed[name][0]
        return getattr(self.geometry, name)


def _value(problem: FitProblem, params: dict, name: str):
    """`params[name]`, else the parameter's fixed value."""
    return params[name] if name in params else problem.fixed_value(name)


def _b0_sq(problem: FitProblem, params: dict):
    """The b₀² multiplier of the (d_nv, h, n_e) values in `params`."""
    d_nv, h, n_e = (_value(problem, params, n) for n in ("d_nv", "h", "n_e"))
    return slab_b0_sq(d_nv, h, n_e, gamma_e=problem.model.nv.gamma_e)


def _depth(problem: FitProblem, b0_sq: float, params: dict) -> float:
    """The d_nv in its search box where b₀² at `params`' h and n_e is `b0_sq`.

    b₀² falls as d_nv grows, so bisection narrows the box to adjacent
    floats; a `b0_sq` outside the box's b₀² range gives the nearer edge.
    """
    lo, hi = problem.box("d_nv")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _b0_sq(problem, params | {"d_nv": mid}) > b0_sq:
            lo = mid
        else:
            hi = mid
    return mid


def _box_corners(problem: FitProblem) -> tuple[dict, dict]:
    """The (d_nv, h, n_e) corners of the nuisance box with least and most b₀².

    b₀² falls as d_nv grows and rises with h and n_e.  A free d_nv spans its
    search box, a fixed parameter its interval; `_b0_sq` reads any other
    parameter's fixed value.
    """
    ends = {n: problem.fixed[n][1] for n in ("d_nv", "h", "n_e") if n in problem.fixed}
    if "d_nv" in problem.free:
        ends["d_nv"] = problem.box("d_nv")
    ends = {n: e[::-1] if n == "d_nv" else e for n, e in ends.items()}
    return tuple({n: e[i] for n, e in ends.items()} for i in (0, 1))


@dataclass(frozen=True)
class FitResult:
    """All local minima (global first) plus diagnostics."""

    minima: tuple[tuple[dict[str, float], float], ...]
    free: tuple[str, ...]
    landscape: tuple  # ({searched name: grid}, objective array)
    boundary_minimum: bool
    confidence: dict[str, list[tuple[float, float]]] | None = None
    #: 1-sigma curvature estimates at the global minimum (inf when the
    #: chi^2 Hessian is not positive in that direction)
    param_sigma: dict[str, float] | None = None

    @property
    def best(self) -> dict[str, float]:
        return self.minima[0][0]

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


def _nelder_mead(f, x0: np.ndarray) -> np.ndarray:
    """Minimize f from x0 by Nelder–Mead (Nelder & Mead 1965); returns x.

    The steps of SciPy 1.17's `minimize(method="Nelder-Mead")` with
    xatol 1e-5, fatol 1e-12 and maxiter 600, without bounds or the adaptive
    mode, in the same floating-point operations: the first simplex scales
    each coordinate by 1.05 (0 becomes 0.00025), the vertices are re-sorted
    by `np.argsort` after every iteration, and it stops once both the
    simplex and its values lie within xatol and fatol of the best vertex, or
    after maxiter iterations.  So its minimum is SciPy's, bit for bit, and
    minima that tie to round-off keep their order.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    xatol, fatol, maxiter = 1e-5, 1e-12, 600
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        sim[k + 1] = x0
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(x) for x in sim], dtype=float)
    for _ in range(2):  # SciPy sorts the first simplex twice
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    iterations = 1
    while iterations < maxiter:
        if (
            np.max(np.abs(sim[1:] - sim[0])) <= xatol
            and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        shrink = False
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:  # outside contraction
            xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
            fxc = f(xc)
            shrink = not (fxc <= fxr)
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
        else:  # inside contraction
            xcc = (1 - psi) * xbar + psi * sim[-1]
            fxcc = f(xcc)
            shrink = not (fxcc < fsim[-1])
            if not shrink:
                sim[-1], fsim[-1] = xcc, fxcc
        if shrink:
            for j in range(1, n + 1):
                sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    return sim[0]


def _unit_cube(problem: FitProblem, names: tuple[str, ...]):
    """(to, from, box): maps between values of `names` and the unit cube of
    their boxes, τ_e on a log scale, and the (log mask, lo, hi) they use."""
    log_mask = np.array([n == "tau_e" for n in names], dtype=bool)

    def scale(x):
        return np.where(log_mask, np.log(np.where(log_mask, x, 1.0)), x)

    lo_i, hi_i = (scale(np.array([problem.box(n)[i] for n in names])) for i in (0, 1))

    def to_unit(x):
        return (scale(x) - lo_i) / (hi_i - lo_i)

    def from_unit(u):
        y = lo_i + np.clip(u, 0.0, 1.0) * (hi_i - lo_i)
        return np.where(log_mask, np.exp(y), y)

    return to_unit, from_unit, (log_mask, lo_i, hi_i)


def fit(problem: FitProblem, grid_points: int = DEFAULT_GRID) -> FitResult:
    """Grid scan + Nelder–Mead refinement of every basin, b₀² profiled.

    Only a free τ_e or θ_e is searched.  At each searched point b₀² takes its
    least-squares value Σ e·u/σ² / Σ u²/σ², clipped to the d_nv box at the
    nominal h and n_e (one point for a fixed d_nv); a free d_nv is read back
    from a minimum's b₀².  The landscape is that χ² on the searched grid.
    """
    free, searched = problem.free, problem.searched
    check_free(free, problem.data.records)

    grids = [_param_grid(problem, name, grid_points) for name in searched]
    field_idx = problem._field_indices()
    exp, sig = problem.data.delta_gammas()
    d_ends = problem.box("d_nv") if "d_nv" in free else [problem.fixed_value("d_nv")] * 2
    b_lo, b_hi = (_b0_sq(problem, {"d_nv": d}) for d in d_ends[::-1])

    def chi2(params: dict, b0_sq=None):
        """σ-normalized χ² and its b₀² at broadcastable values, profiled if None."""
        tau, theta = (_value(problem, params, n) for n in ("tau_e", "theta_e"))
        unit = problem.model.unit_rates(tau, theta, field_idx)
        if b0_sq is None:
            w = unit / sig**2
            # fmax takes b_lo for a 0/0
            b0_sq = np.fmin(np.fmax((exp * w).sum(-1) / (unit * w).sum(-1), b_lo), b_hi)
        th = np.asarray(b0_sq)[..., None] * unit
        return np.sum(((exp - th) / sig) ** 2, axis=-1), b0_sq

    # the whole landscape is one broadcast over the sparse mesh
    obj = chi2(dict(zip(searched, np.meshgrid(*grids, indexing="ij", sparse=True))))[0]

    spread = float(np.max(obj) - np.min(obj))
    if not np.isfinite(spread) or searched and spread < 1e-12 * (1.0 + np.min(obj)):
        raise UnidentifiableError("objective is flat over the search box")

    # refine every grid-local minimum; work in scaled coordinates
    to_unit, from_unit, _ = _unit_cube(problem, searched)

    def f_internal(u):
        return float(chi2(dict(zip(searched, from_unit(u))))[0])

    # cap refinement starts: genuine basins are few; plateaus can flood
    starts = _grid_local_minima(obj)
    starts.sort(key=lambda idx: (obj[idx], idx))
    starts = starts[:12]

    candidates = []
    for idx in starts:
        u = to_unit(np.array([grids[k][i] for k, i in enumerate(idx)]))
        if searched:
            u = np.clip(_nelder_mead(f_internal, u), 0.0, 1.0)
        x = from_unit(u)
        value, b0_sq = chi2(dict(zip(searched, x)))
        params = dict(zip(searched, x.tolist()))
        if "d_nv" in free:
            params["d_nv"] = _depth(problem, float(b0_sq), {})
        candidates.append((x, float(value), {n: params[n] for n in free}))

    # deduplicate within 1% of the (internal) box per dimension
    deduped: list[tuple[np.ndarray, float, dict]] = []
    for x, v, params in sorted(candidates, key=lambda c: c[1]):
        u = to_unit(x)
        if not any(np.all(np.abs(u - to_unit(x2)) < 0.01) for x2, *_ in deduped):
            deduped.append((x, v, params))
    # drop shallow relicts: keep minima within a generous band of the best
    best_v = deduped[0][1]
    tol_keep = best_v + max(9.0, best_v)
    minima = tuple((params, v) for _, v, params in deduped if v <= tol_keep)

    to_full, from_full, full = _unit_cube(problem, free)
    u_best = to_full(np.array([minima[0][0][n] for n in free]))
    edge = 1.0 / grid_points
    boundary = bool(np.any(u_best < edge) or np.any(u_best > 1.0 - edge))

    def f_full(u):
        params = dict(zip(free, from_full(u)))
        return float(chi2(params, _b0_sq(problem, params))[0])

    return FitResult(
        minima=minima,
        free=free,
        landscape=(dict(zip(searched, grids)), obj),
        boundary_minimum=boundary,
        param_sigma=_curvature_sigma(f_full, u_best, free, full),
    )


def _curvature_sigma(
    f, u0: np.ndarray, free: tuple[str, ...], box: tuple, step: float = 1e-3
) -> dict[str, float]:
    """1-sigma parameter scales from the chi^2 Hessian (Delta-chi^2 = 1).

    Central differences in the internal unit cube; cov = 2 H^-1; the
    diagonal is mapped back through the (diagonal) internal->physical
    Jacobian.  Directions with non-positive curvature report inf.
    """
    log_mask, lo_i, hi_i = box
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


def _accepted(
    problem: FitProblem, vals, epsilon_scale: float, grid_points: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whether some nuisance value brings every record strictly within ε.

    `vals` are broadcastable values of the searched parameters.  With rates
    u per unit b₀², |e − b₀² u| < ε holds at every record for b₀² in the
    window (max_k (e_k − ε_k)/u_k, min_k (e_k + ε_k)/u_k); a point is
    accepted when a window meets [b_min, b_max] of the (d_nv, h, n_e) box,
    where a free d_nv spans its search box.  A τ_e or θ_e fixed on an
    interval enters u non-linearly, so it is sampled at the sweep's grid
    nodes inside it and at both edges, on a trailing axis of the one
    `unit_rates` call.  Also returns each point's highest and lowest
    accepted window end (−inf and inf where none is).
    """
    params = dict(zip(problem.searched, vals))
    sampled = [name for name in ("tau_e", "theta_e") if name not in params]
    pad = (1,) * len(sampled)
    params = {name: np.reshape(v, np.shape(v) + pad) for name, v in params.items()}
    for k, name in enumerate(sampled):
        lo, hi = problem.fixed[name][1]
        grid = _param_grid(problem, name, grid_points)
        nodes = np.unique(np.concatenate([[lo, hi], grid[(lo < grid) & (grid < hi)]]))
        params[name] = nodes.reshape((-1,) + pad[k + 1 :])
    exp, sig = problem.data.delta_gammas()
    eps = epsilon_scale * sig
    unit = problem.model.unit_rates(
        params["tau_e"], params["theta_e"], problem._field_indices()
    )
    low = np.max((exp - eps) / unit, axis=-1)
    high = np.min((exp + eps) / unit, axis=-1)
    b_min, b_max = (_b0_sq(problem, corner) for corner in _box_corners(problem))
    ok = (low < high) & (low < b_max) & (b_min < high)
    samples = tuple(range(-len(sampled), 0))
    return (
        np.any(ok, axis=samples),
        np.max(np.where(ok, high, -np.inf), axis=samples),
        np.min(np.where(ok, low, np.inf), axis=samples),
    )


def confidence_region(
    problem: FitProblem,
    result: FitResult,
    epsilon_scale: float = 1.0,
    grid_points: int = DEFAULT_GRID,
) -> dict[str, list[tuple[float, float]]]:
    """Accepted set {λ : ∃ λ_ind in the box with |ΔΓ₁^exp − ΔΓ₁^th| < ε everywhere}.

    ε per point is epsilon_scale × the experimental σ; `_accepted` tests the
    (d_nv, h, n_e) box in closed form and samples a fixed τ_e or θ_e
    interval.  Returns per-free-parameter lists of accepted intervals: the
    grid runs of a searched parameter (possibly disconnected), and for a
    free d_nv the exact span of depths that the accepted b₀² windows admit
    through the (h, n_e) corners of the box.
    """
    searched = problem.searched
    grids = [_param_grid(problem, name, grid_points) for name in searched]
    mesh = np.meshgrid(*grids, indexing="ij", sparse=True)
    accepted, top, bottom = _accepted(problem, mesh, epsilon_scale, grid_points)
    # always test the fitted minimizer itself (it may sit off-grid)
    best = [result.best[n] for n in searched]
    best_ok, top_b, bottom_b = _accepted(problem, best, epsilon_scale, grid_points)

    out: dict[str, list[tuple[float, float]]] = {}
    for k, name in enumerate(searched):
        axis_ok = accepted.any(axis=tuple(a for a in range(len(searched)) if a != k))
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
    if "d_nv" in problem.free:
        # the highest window end is met shallowest at the corner of least b₀²,
        # the lowest deepest at the corner of most b₀²
        ends = max(np.max(top), top_b), min(np.min(bottom), bottom_b)
        region = tuple(map(partial(_depth, problem), ends, _box_corners(problem)))
        out["d_nv"] = [region] if ends[0] > -np.inf else []
    return out


def estimate_depth(
    problem: FitProblem, grid_points: int = DEFAULT_GRID, epsilon_scale: float = 1.0
) -> FitResult:
    """Depth pipeline: fit with free = {d_nv, theta_e} and fixed tau_e.

    Returns the FitResult with confidence intervals at `epsilon_scale`
    attached (the d_nv entry is the exact depth interval).
    """
    if set(problem.free) != {"d_nv", "theta_e"}:
        raise ValueError("estimate_depth requires free = {d_nv, theta_e}")
    if "tau_e" not in problem.fixed:
        raise ValueError("estimate_depth requires fixed tau_e")
    result = fit(problem, grid_points=grid_points)
    conf = confidence_region(
        problem, result, epsilon_scale=epsilon_scale, grid_points=grid_points
    )
    return replace(result, confidence=conf)
