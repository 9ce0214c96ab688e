import math
from dataclasses import replace

import numpy as np
import pytest
import yaml

import spinbath.bathspectrum as bathspectrum
import spinbath.estimator as estimator
from helpers import (
    accepted_loop,
    bin_lines_loop,
    delta_gamma_unit_loop,
    grid_local_minima_loop,
    landscape_loop,
    profile_loop,
    raw_spectral_density,
    synth_records,
)
from spinbath.bathspectrum import (
    BathSpectrumModel,
    coupling_b0_sq,
    cupc_bath_model,
    spectral_density,
)
from spinbath.constants import GAUSS_TO_TESLA
from spinbath.errors import UnidentifiableError
from spinbath.estimator import (
    FitProblem,
    FitResult,
    ForwardModel,
    confidence_region,
    estimate_depth,
    fit,
)
from spinbath.spinmodel import DEFAULT_BIN, isotope_family_spectrum
from spinbath.relaxometry import MeasurementSet, T1Record, nv_frequency


def make_problem(records, model, geometry, free, fixed=None, **kw):
    return FitProblem(
        data=MeasurementSet(records=tuple(records)),
        model=model,
        geometry=geometry,
        free=tuple(free),
        fixed=fixed or {},
        **kw,
    )


def degenerate_fixed(shipped_config, geometry, **overrides):
    """All parameters pinned to their nominal values (no nuisance sweep)."""
    th = math.radians(shipped_config.hyperfine.theta_e_deg)
    fixed = {
        "tau_e": (2e-9, (2e-9, 2e-9)),
        "theta_e": (th, (th, th)),
        "d_nv": (geometry.d_nv, (geometry.d_nv, geometry.d_nv)),
        "h": (geometry.h, (geometry.h, geometry.h)),
        "n_e": (geometry.n_e, (geometry.n_e, geometry.n_e)),
    }
    fixed.update(overrides)
    return fixed


class TestForwardModelCache:
    def test_node_value_matches_direct_pipeline(self, small_model, shipped_config, geometry):
        """Cache + interpolation reproduces the exact per-field ΔΓ₁ at a node."""
        from spinbath.relaxometry import NvConfig

        theta = small_model.theta_nodes[3]  # exactly on a node: no lerp error
        tau = 2e-9
        b0 = coupling_b0_sq(geometry)
        cached = small_model.delta_gammas(tau, float(theta), b0)
        nv = shipped_config.nv_config()
        for i, gauss in enumerate(small_model.fields_gauss):
            spec = shipped_config.spin_spec(gauss * GAUSS_TO_TESLA, theta_e=float(theta))
            m = cupc_bath_model(spec, tau, geometry, isotopes=shipped_config.isotopes())
            w_nv = nv_frequency(nv, gauss * GAUSS_TO_TESLA)
            exact = nv.gamma_e**2 * raw_spectral_density(m, w_nv)
            assert abs(cached[i] / exact - 1.0) < 1e-4

    def test_node_value_follows_config_isotopes(self, geometry):
        """The CLI's forward model uses the config's isotopes and eta_floor."""
        from conftest import CONFIG_PATH
        from spinbath.cli import _forward_model
        from spinbath.config import parse_config

        tree = yaml.safe_load(CONFIG_PATH.read_text())
        tree["hyperfine"]["isotopes"] = [
            {"label": "65Cu", "abundance": 1.0, "scale": 1.07}
        ]
        tree["hyperfine"]["eta_floor"] = 1e-6
        tree["fit"]["theta_step_deg"] = 45.0
        cfg = parse_config(tree)
        model = _forward_model(cfg, (231.0, 461.0))
        theta, tau = float(model.theta_nodes[1]), 2e-9
        cached = model.delta_gammas(tau, theta, coupling_b0_sq(geometry))
        nv = cfg.nv_config()
        for i, gauss in enumerate(model.fields_gauss):
            m = cupc_bath_model(
                cfg.spin_spec(gauss * GAUSS_TO_TESLA, theta_e=theta),
                tau,
                geometry,
                isotopes=cfg.isotopes(),
                eta_floor=cfg.hyperfine.eta_floor,
            )
            w_nv = nv_frequency(nv, gauss * GAUSS_TO_TESLA)
            exact = nv.gamma_e**2 * raw_spectral_density(m, w_nv)
            assert abs(cached[i] / exact - 1.0) < 1e-4

    def test_workers_give_identical_cache(self, shipped_config):
        """Threads change when an entry is built, never what it holds."""
        kw = dict(
            fields_gauss=(231.0, 461.0),
            base_spec=shipped_config.spin_spec(1e-4),
            nv=shipped_config.nv_config(),
            theta_step=math.radians(45.0),
        )
        serial = ForwardModel(**kw)
        threaded = ForwardModel(**kw, workers=2)
        assert list(threaded._cache) == list(serial._cache)
        assert len(serial._cache) == 6
        for key, arrays in serial._cache.items():
            for got, want in zip(threaded._cache[key], arrays, strict=True):
                assert got.dtype == want.dtype == np.float32
                np.testing.assert_array_equal(got, want)

    def test_workers_capped_at_entries(self, shipped_config, monkeypatch):
        """A huge worker count asks the pool for one thread per entry."""
        asked = []

        class Pool:  # runs the entries in this thread
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(estimator, "ThreadPoolExecutor", Pool)
        model = ForwardModel(
            fields_gauss=(461.0,),
            base_spec=shipped_config.spin_spec(1e-4),
            theta_step=math.radians(90.0),
            workers=10**6,
        )
        assert asked == [2] and len(model._cache) == 2

    def test_interpolation_between_nodes(self, small_model, geometry):
        """Mid-node evaluation lies between the two node values."""
        tau, b0 = 2e-9, coupling_b0_sq(geometry)
        nodes = small_model.theta_nodes
        mid = 0.5 * (nodes[2] + nodes[3])
        for i in range(len(small_model.fields_gauss)):
            lo = small_model.delta_gamma_unit(i, tau, float(nodes[2]))
            hi = small_model.delta_gamma_unit(i, tau, float(nodes[3]))
            val = small_model.delta_gamma_unit(i, tau, mid)
            assert min(lo, hi) <= val <= max(lo, hi)
            assert val == pytest.approx(0.5 * (lo + hi), rel=1e-9)

    #: Worst |cached / exact − 1| of the rate over every mid-node from 5° to
    #: 85° at the four shipped fields, on 2° nodes (the `ForwardModel`
    #: docstring table); the test allows 1.5× these measured values.
    MID_NODE_ERROR_2DEG = {1e-9: 1.33e-2, 3e-9: 1.32e-2, 10e-9: 0.153, 100e-9: 5.33}

    def test_mid_node_error_bound(self, forward_model_4f):
        """Linear θ interpolation against the exact binned pipeline off a node."""
        model = forward_model_4f
        taus = np.array(sorted(self.MID_NODE_ERROR_2DEG))
        nodes = model.theta_nodes
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        mids = mids[(mids >= math.radians(5.0)) & (mids <= math.radians(85.0))]
        cached = model.unit_rates(taus[:, None], mids)  # (τ, θ, field)
        worst = np.zeros(taus.size)
        for k, theta in enumerate(mids):
            for i, gauss in enumerate(model.fields_gauss):
                b = gauss * GAUSS_TO_TESLA
                spectrum = isotope_family_spectrum(
                    replace(model.base_spec, b_field=b, theta_e=float(theta))
                )
                w_nv = nv_frequency(model.nv, b)
                exact = model.nv.gamma_e**2 * np.array(
                    [spectral_density(BathSpectrumModel(spectrum, t, 1.0), w_nv)
                     for t in taus]
                )
                worst = np.maximum(worst, np.abs(cached[:, k, i] / exact - 1.0))
        for tau, err in zip(taus, worst):
            assert err <= 1.5 * self.MID_NODE_ERROR_2DEG[tau], (tau, err)

    def test_b0_multiplier_is_exact(self, small_model):
        a = small_model.delta_gammas(2e-9, 0.7, 1e-9)
        b = small_model.delta_gammas(2e-9, 0.7, 3e-9)
        np.testing.assert_allclose(b, 3.0 * a, rtol=1e-12)


class _NoMemo(dict):
    """A `ForwardModel._sums` that keeps no row: the memo switched off."""

    def __setitem__(self, key, value):
        pass


class TestNodeSumMemo:
    """The last line sum per (field, node), reused for the same τ array."""

    @staticmethod
    def problem(model, geometry, nuisance_fixed, free):
        rng = np.random.default_rng(31)
        records = synth_records(
            model, geometry, 2e-9, 0.75, rng, noise=0.03, d_nv=7e-9
        )
        return make_problem(records, model, geometry, free, nuisance_fixed(free))

    @pytest.mark.parametrize("free", [("d_nv", "theta_e"), ("tau_e", "theta_e")])
    def test_memo_changes_no_bit(
        self, free, small_model, geometry, nuisance_fixed, monkeypatch
    ):
        """Landscape, minima, σ and confidence equal with the memo on and off."""
        problem = self.problem(small_model, geometry, nuisance_fixed, free)

        def run():
            if free == ("d_nv", "theta_e"):
                return estimate_depth(problem, grid_points=32)
            res = fit(problem, grid_points=32)
            return replace(res, confidence=confidence_region(problem, res, grid_points=32))

        monkeypatch.setattr(small_model, "_sums", {})
        first, again = run(), run()  # the second starts from this problem's rows
        n_entries = len(small_model.fields_gauss) * small_model.theta_nodes.size
        assert 0 < len(small_model._sums) <= n_entries
        assert set(small_model._sums) <= set(small_model._cache)
        monkeypatch.setattr(small_model, "_sums", _NoMemo())
        off = run()
        for on in (first, again):
            assert list(on.landscape[0]) == list(off.landscape[0])
            for got, want in zip(
                on.landscape[0].values(), off.landscape[0].values(), strict=True
            ):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(on.landscape[1], off.landscape[1])
            assert on.minima == off.minima
            assert on.param_sigma == off.param_sigma
            assert on.confidence == off.confidence
            assert on.boundary_minimum == off.boundary_minimum

    def test_depth_refinement_sums_no_node(
        self, small_model, geometry, nuisance_fixed, monkeypatch
    ):
        """τ_e is fixed in a depth fit: after the grid scan every sum is a memo hit."""
        problem = self.problem(small_model, geometry, nuisance_fixed, ("d_nv", "theta_e"))
        monkeypatch.setattr(small_model, "_sums", {})
        calls = []
        lorentzian = bathspectrum._unit_lorentzian

        def counting(x, t, out=None):
            calls.append(t.shape)
            return lorentzian(x, t, out=out)

        at_refinement = []
        nelder_mead = estimator._nelder_mead

        def refine(*args, **kwargs):
            at_refinement.append(len(calls))
            return nelder_mead(*args, **kwargs)

        monkeypatch.setattr(bathspectrum, "_unit_lorentzian", counting)
        monkeypatch.setattr(estimator, "_nelder_mead", refine)
        fit(problem, grid_points=32)
        # the 32-point θ grid brackets every 15° node: each (field, node) is
        # summed once, two Lorentzians (ω ∓ ω_NV) over one τ
        n_sums = len(small_model.fields_gauss) * small_model.theta_nodes.size
        assert at_refinement and at_refinement[0] == 2 * n_sums
        assert len(calls) == 2 * n_sums
        assert set(calls) == {(1, 1)}

    def test_chunks_and_field_subsets_without_memo(self, small_model, monkeypatch):
        """A row does not depend on its chunk or on the other fields, summed afresh."""
        monkeypatch.setattr(small_model, "_sums", _NoMemo())
        taus = np.geomspace(0.1e-9, 100e-9, 37)
        whole = small_model.unit_rates(taus, 0.6)
        np.testing.assert_array_equal(
            small_model.unit_rates(taus, 0.6, fields=(1,))[..., 0], whole[..., 1]
        )
        monkeypatch.setattr(bathspectrum, "_CHUNK_ELEMENTS", 3000)  # ~1 tau per chunk
        np.testing.assert_array_equal(small_model.unit_rates(taus, 0.6), whole)

    def test_other_tau_array_is_summed_afresh(self, small_model, monkeypatch):
        """A row is reused only for the very τ array it was summed over."""
        monkeypatch.setattr(small_model, "_sums", {})
        taus = np.geomspace(0.1e-9, 100e-9, 9)
        whole = small_model.unit_rates(taus, 0.6)
        for part in (taus[:4], taus[1::2], taus[-1:]):
            got = small_model.unit_rates(part, 0.6)
            np.testing.assert_array_equal(got, whole[np.searchsorted(taus, part)])
            (key, row), *_ = small_model._sums.values()
            assert key == part.tobytes() and row.shape == part.shape

    def test_shared_model_across_threads(self, small_model, monkeypatch):
        """Threads alternating τ arrays on one model read only matching rows."""
        from concurrent.futures import ThreadPoolExecutor

        monkeypatch.setattr(small_model, "_sums", {})
        taus = [np.array([t]) for t in (0.5e-9, 2e-9, 13e-9)]
        thetas = np.linspace(0.0, np.pi / 2, 7)
        want = [small_model.unit_rates(t[:, None], thetas) for t in taus]

        def work(k):
            for step in range(30):
                i = (k + step) % len(taus)
                np.testing.assert_array_equal(
                    small_model.unit_rates(taus[i][:, None], thetas), want[i]
                )

        with ThreadPoolExecutor(2) as pool:
            list(pool.map(work, range(2)))


def _same_steps_as_scipy(f, x0):
    """Run SciPy's Nelder–Mead and `_nelder_mead` from x0; assert equal bits.

    Both must return the same x, bit for bit, after the same number of calls
    to f.  Returns SciPy's result.
    """
    from scipy.optimize import minimize

    calls = {"scipy": 0, "own": 0}

    def counted(name):
        def g(x):
            calls[name] += 1
            return f(x)

        return g

    want = minimize(
        counted("scipy"),
        x0.copy(),
        method="Nelder-Mead",
        options={"xatol": 1e-5, "fatol": 1e-12, "maxiter": 600},
    )
    got = estimator._nelder_mead(counted("own"), x0.copy())
    assert got.tobytes() == want.x.tobytes(), (x0, got, want.x)
    assert calls["own"] == calls["scipy"] == want.nfev, x0
    return want


class TestNelderMead:
    """`_nelder_mead` takes SciPy's Nelder–Mead steps, bit for bit."""

    @pytest.mark.parametrize("free", [("d_nv", "theta_e"), ("tau_e", "theta_e")])
    def test_fit_objective(
        self, free, small_model, geometry, nuisance_fixed, monkeypatch
    ):
        """The objectives and starts of a real fit, plus seeded starts."""
        problem = TestNodeSumMemo.problem(small_model, geometry, nuisance_fixed, free)
        runs = []
        nelder_mead = estimator._nelder_mead

        def record(f, x0):
            runs.append((f, x0.copy()))
            return nelder_mead(f, x0)

        monkeypatch.setattr(estimator, "_nelder_mead", record)
        fit(problem, grid_points=16)
        monkeypatch.undo()
        f = runs[0][0]
        dim = runs[0][1].size  # a free d_nv is profiled, not searched
        assert dim == len(problem.searched)
        rng = np.random.default_rng(16)
        starts = [x0 for _, x0 in runs] + list(rng.uniform(0.0, 1.0, (3, dim)))
        starts.append(np.append(0.0, rng.uniform(size=dim - 1)))
        for x0 in starts:
            _same_steps_as_scipy(f, x0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rosenbrock_and_rounded_plateau(self, n):
        """Plain descent, and a landscape of ties that forces shrinks."""

        def rosenbrock(x):
            ridge = np.sum(100 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2)
            return float(ridge + (x[0] - 0.3) ** 2)

        def plateau(x):
            return float(np.round(rosenbrock(x), 3))

        rng = np.random.default_rng(n)
        starts = list(rng.uniform(-2.0, 2.0, (4, n)))
        starts.append(np.where(np.arange(n) == 0, 0.0, starts[0]))  # a zero coordinate
        for f in (rosenbrock, plateau):
            for x0 in starts:
                _same_steps_as_scipy(f, x0)

    def test_runs_to_the_iteration_cap(self):
        """A tilted plane has no minimum: both stop after 600 iterations."""

        def plane(x):
            return float(x[0] + 2 * x[1])

        want = _same_steps_as_scipy(plane, np.array([0.5, 1.0]))
        assert want.nit == 600


class TestFit:
    def test_deterministic(self, small_model, shipped_config, geometry):
        rng = np.random.default_rng(42)
        records = synth_records(small_model, geometry, 2e-9, 0.75, rng)
        fixed = degenerate_fixed(shipped_config, geometry)
        fixed.pop("tau_e")
        problem = make_problem(records, small_model, geometry, ("tau_e",), fixed)
        r1 = fit(problem, grid_points=32)
        r2 = fit(problem, grid_points=32)
        assert r1.best == r2.best
        assert r1.param_sigma == r2.param_sigma
        assert r1.minima == r2.minima

    def test_tau_recovery_synthetic(self, small_model, shipped_config, geometry):
        rng = np.random.default_rng(7)
        truth = 2.0e-9
        records = synth_records(small_model, geometry, truth, 0.75, rng, noise=0.03)
        fixed = degenerate_fixed(shipped_config, geometry, theta_e=(0.75, (0.75, 0.75)))
        fixed.pop("tau_e")
        problem = make_problem(records, small_model, geometry, ("tau_e",), fixed)
        res = fit(problem, grid_points=48)
        tau_hat = res.best["tau_e"]
        assert abs(tau_hat - truth) < 3 * res.param_sigma["tau_e"]
        assert abs(tau_hat / truth - 1.0) < 0.25

    def test_too_few_points(self, small_model, shipped_config, geometry):
        rng = np.random.default_rng(0)
        records = synth_records(
            small_model, geometry, 2e-9, 0.75, rng, fields=(231.0,)
        )
        fixed = degenerate_fixed(shipped_config, geometry)
        fixed.pop("tau_e")
        fixed.pop("theta_e")
        problem = make_problem(
            records, small_model, geometry, ("tau_e", "theta_e"), fixed
        )
        with pytest.raises(UnidentifiableError):
            fit(problem)

    def test_nan_in_landscape_is_unidentifiable(
        self, small_model, shipped_config, geometry, monkeypatch
    ):
        """A NaN anywhere on the grid stops the fit before the minima search."""
        rng = np.random.default_rng(3)
        records = synth_records(small_model, geometry, 2.0e-9, 0.75, rng, noise=0.01)
        fixed = degenerate_fixed(shipped_config, geometry)
        fixed.pop("tau_e")
        fixed.pop("theta_e")
        problem = make_problem(records, small_model, geometry, ("tau_e", "theta_e"), fixed)
        exact = small_model.unit_rates

        def one_nan(tau, theta, fields=None):
            out = exact(tau, theta, fields)
            if out.ndim == 3:  # the landscape, not a Nelder–Mead point
                out[3, 5, 0] = np.nan
            return out

        def refuse(obj):
            raise AssertionError("minima search ran on a landscape holding NaN")

        monkeypatch.setattr(small_model, "unit_rates", one_nan)
        monkeypatch.setattr(estimator, "_grid_local_minima", refuse)
        with pytest.raises(UnidentifiableError, match="flat"):
            fit(problem, grid_points=16)

    def test_boundary_minimum_flag(self, small_model, shipped_config, geometry):
        """Truth outside the search box pins the minimum to the box edge."""
        rng = np.random.default_rng(3)
        records = synth_records(small_model, geometry, 2.0e-9, 0.75, rng, noise=0.01)
        fixed = degenerate_fixed(shipped_config, geometry, theta_e=(0.75, (0.75, 0.75)))
        fixed.pop("tau_e")
        problem = make_problem(
            records,
            small_model,
            geometry,
            ("tau_e",),
            fixed,
            boxes={"tau_e": (0.2e-9, 0.8e-9)},
        )
        res = fit(problem, grid_points=32)
        assert res.boundary_minimum
        assert res.best["tau_e"] == pytest.approx(0.8e-9, rel=0.05)

    def test_unknown_parameter_rejected(self, small_model, shipped_config, geometry):
        rng = np.random.default_rng(1)
        records = synth_records(small_model, geometry, 2e-9, 0.75, rng)
        with pytest.raises(ValueError):
            make_problem(records, small_model, geometry, ("g_parallel",), {})

    def test_missing_field_in_cache(self, small_model, shipped_config, geometry):
        rec = T1Record("NV9", 999.0, 1e-3, 1e-5, 5e-3, 1e-4)
        fixed = degenerate_fixed(shipped_config, geometry)
        fixed.pop("tau_e")
        with pytest.raises(ValueError, match="999"):
            make_problem([rec], small_model, geometry, ("tau_e",), fixed)


class TestConfidenceRegion:
    def test_truth_inside_region_on_exact_data(
        self, small_model, shipped_config, geometry
    ):
        """Noise-free data: the truth always survives the acceptance test."""
        rng = np.random.default_rng(5)
        truth = 1.8e-9
        records = synth_records(small_model, geometry, truth, 0.75, rng, noise=0.0)
        fixed = degenerate_fixed(shipped_config, geometry, theta_e=(0.75, (0.75, 0.75)))
        fixed.pop("tau_e")
        problem = make_problem(records, small_model, geometry, ("tau_e",), fixed)
        res = fit(problem, grid_points=32)
        # the default tau box spans three decades: 96 points keep the grid
        # step below the 2-sigma acceptance window
        conf = confidence_region(problem, res, epsilon_scale=2.0, grid_points=96)
        assert any(lo <= truth <= hi for lo, hi in conf["tau_e"])

    def test_epsilon_scaling_grows_region(self, small_model, shipped_config, geometry):
        rng = np.random.default_rng(6)
        records = synth_records(small_model, geometry, 2e-9, 0.75, rng, noise=0.03)
        fixed = degenerate_fixed(shipped_config, geometry, theta_e=(0.75, (0.75, 0.75)))
        fixed.pop("tau_e")
        problem = make_problem(records, small_model, geometry, ("tau_e",), fixed)
        res = fit(problem, grid_points=32)

        def width(scale):
            conf = confidence_region(
                problem, res, epsilon_scale=scale, grid_points=48
            )
            return sum(hi - lo for lo, hi in conf["tau_e"])

        assert width(3.0) >= width(1.0)


class TestCoverage:
    """Noise-free data are accepted at the truth across the nuisance box."""

    @pytest.mark.parametrize("d_nv_nm", [6.0, 6.5, 7.0, 7.5, 8.0])
    def test_truth_accepted_across_depth_interval(
        self, d_nv_nm, small_model, geometry, nuisance_fixed
    ):
        """b₀² at any depth in [6, 8] nm lies in the box's b₀² interval."""
        free = ("tau_e", "theta_e")
        records = synth_records(
            small_model, geometry, 2e-9, 0.75, np.random.default_rng(0), noise=0.0,
            d_nv=d_nv_nm * 1e-9,
        )
        problem = make_problem(records, small_model, geometry, free, nuisance_fixed(free))
        ok, _, _ = estimator._accepted(problem, [2e-9, 0.75], 1.0, estimator.DEFAULT_GRID)
        assert ok

    @pytest.mark.parametrize("tau_ns", [1.2, 1.45, 2.55])
    def test_truth_accepted_between_tau_samples(
        self, tau_ns, small_model, geometry, nuisance_fixed
    ):
        """A τ_e between the grid nodes of its interval is still accepted.

        The 64-point τ grid steps by 11.6 % inside [0.9, 3.1] ns; the b₀²
        freedom of the (h, n_e) box absorbs the rate change of half a step.
        d_nv is pinned at the truth, so only (h, n_e) can absorb it.
        """
        free = ("theta_e",)
        records = synth_records(
            small_model, geometry, tau_ns * 1e-9, 0.75, np.random.default_rng(0),
            noise=0.0, d_nv=7e-9,
        )
        fixed = nuisance_fixed(free) | {"d_nv": (7e-9, (7e-9, 7e-9))}
        problem = make_problem(records, small_model, geometry, free, fixed)
        ok, _, _ = estimator._accepted(problem, [0.75], 1.0, estimator.DEFAULT_GRID)
        assert ok


@pytest.fixture(scope="module")
def depth_model(shipped_config):
    """Three-field model on 15° nodes, at the fields of a depth measurement."""
    return ForwardModel(
        fields_gauss=(231.0, 372.0, 721.0),
        base_spec=shipped_config.spin_spec(1e-4),
        nv=shipped_config.nv_config(),
        theta_step=math.radians(15.0),
    )


class TestDepthRegion:
    """A free d_nv is profiled out of the search, and its region is exact."""

    @staticmethod
    def problem(model, config, nuisance_fixed, free, d_nv, noise=0.0, seed=0):
        """Records at d_nv and the nominal τ_e, θ_e; τ_e fixed on its interval."""
        geometry = config.film_geometry()
        theta = math.radians(config.hyperfine.theta_e_deg)
        rng = np.random.default_rng(seed)
        records = synth_records(
            model, geometry, config.bath.tau_e_ns * 1e-9, theta, rng, noise=noise,
            d_nv=d_nv,
        )
        return make_problem(
            records, model, geometry, free, nuisance_fixed(free),
            boxes=config.fit_boxes(),
        )

    @pytest.mark.parametrize("d_nm", [4.0, 5.5, 7.0, 9.5, 12.0, 15.0])
    def test_region_holds_truth_on_exact_data(
        self, d_nm, depth_model, shipped_config, nuisance_fixed
    ):
        problem = self.problem(
            depth_model, shipped_config, nuisance_fixed, ("d_nv", "theta_e"), d_nm * 1e-9
        )
        res = estimate_depth(problem)
        ((lo, hi),) = res.confidence["d_nv"]
        assert lo <= d_nm * 1e-9 <= hi
        assert res.best["d_nv"] == pytest.approx(d_nm * 1e-9, rel=1e-3)
        grids, obj = res.landscape
        assert list(grids) == ["theta_e"] and obj.shape == (estimator.DEFAULT_GRID,)

    def test_region_ends_are_tight(self, depth_model, shipped_config, nuisance_fixed):
        """Just inside each end a searched point is accepted at that depth; just
        outside none is, by the b₀² sweep of `accepted_loop` at that depth."""
        problem = self.problem(
            depth_model, shipped_config, nuisance_fixed, ("d_nv", "theta_e"), 7e-9,
            noise=0.03, seed=5,
        )
        n = 24
        res = fit(problem, grid_points=n)
        ((lo, hi),) = confidence_region(problem, res, grid_points=n)["d_nv"]
        d_lo, d_hi = problem.box("d_nv")
        assert d_lo < lo < 7e-9 < hi < d_hi
        grid = estimator._param_grid(problem, "theta_e", n)
        thetas = {"theta_e": np.append(grid, res.best["theta_e"])}

        def accepted_at(d):
            fixed = dict(problem.fixed, d_nv=(d, (d, d)))
            at_d = make_problem(
                problem.data.records, depth_model, problem.geometry, ("theta_e",),
                fixed, boxes=problem.boxes,
            )
            return accepted_loop(at_d, thetas, 1.0, n).any()

        for end, inward in ((lo, 1.0), (hi, -1.0)):
            assert accepted_at(end * (1.0 + inward * 1e-6))
            assert not accepted_at(end * (1.0 - inward * 1e-6))

    def test_depth_alone_searches_nothing(
        self, depth_model, shipped_config, nuisance_fixed, monkeypatch
    ):
        """free = (d_nv,): no grid axis, no simplex, the profile's minimum."""

        def refuse(f, x0):
            raise AssertionError("a simplex ran with nothing to search")

        monkeypatch.setattr(estimator, "_nelder_mead", refuse)
        problem = self.problem(
            depth_model, shipped_config, nuisance_fixed, ("d_nv",), 7e-9,
            noise=0.03, seed=9,
        )
        res = fit(problem)
        grids, obj = res.landscape
        assert grids == {} and obj.shape == ()
        want_obj, want_d = profile_loop(problem, grids)
        ((params, value),) = res.minima
        assert params["d_nv"] == pytest.approx(float(want_d), rel=1e-8)
        assert value == pytest.approx(float(want_obj), rel=1e-9)
        assert value == float(obj)


class TestEstimateDepth:
    def test_requires_depth_parameterization(
        self, small_model, shipped_config, geometry
    ):
        rng = np.random.default_rng(2)
        records = synth_records(small_model, geometry, 2e-9, 0.75, rng)
        fixed = degenerate_fixed(shipped_config, geometry)
        fixed.pop("tau_e")
        problem = make_problem(records, small_model, geometry, ("tau_e",), fixed)
        with pytest.raises(ValueError):
            estimate_depth(problem)

    def test_depth_round_trip(self, small_model, shipped_config, geometry):
        rng = np.random.default_rng(11)
        truth_d = 7e-9
        records = synth_records(
            small_model, geometry, 2e-9, 0.75, rng, noise=0.03, d_nv=truth_d
        )
        fixed = degenerate_fixed(shipped_config, geometry)
        fixed.pop("d_nv")
        fixed.pop("theta_e")
        problem = make_problem(
            records, small_model, geometry, ("d_nv", "theta_e"), fixed
        )
        res = estimate_depth(problem, grid_points=32)
        assert res.confidence is not None and "d_nv" in res.confidence
        assert abs(res.best["d_nv"] - truth_d) < 1.5e-9

    def test_result_as_dict_round_trips_json(self, small_model, shipped_config, geometry):
        import json

        rng = np.random.default_rng(13)
        records = synth_records(small_model, geometry, 2e-9, 0.75, rng)
        fixed = degenerate_fixed(shipped_config, geometry)
        fixed.pop("tau_e")
        problem = make_problem(records, small_model, geometry, ("tau_e",), fixed)
        res = fit(problem, grid_points=32)
        payload = json.loads(json.dumps(res.as_dict()))
        assert payload["free"] == ["tau_e"]
        assert payload["minima"][0]["params"]["tau_e"] == pytest.approx(
            res.best["tau_e"]
        )


class TestVectorizedAgainstLoops:
    """Broadcast evaluation against the per-point loops it replaced."""

    def test_unit_rates_match_scalar_node_sums(self, small_model):
        """Float32 line sums may reorder, nothing else: 1e-6 relative."""
        nodes = small_model.theta_nodes
        rng = np.random.default_rng(17)
        thetas = np.concatenate(
            [
                nodes,  # exactly on every node, box edges 0 and pi/2 included
                0.5 * (nodes[:-1] + nodes[1:]),
                rng.uniform(nodes[0], nodes[-1], 5),
                [nodes[0] - 0.1, nodes[-1] + 0.1],  # clipped to the edge nodes
            ]
        )
        lo, hi = estimator.DEFAULT_BOXES["tau_e"]
        taus = np.array([lo, 0.7e-9, 2e-9, 13e-9, hi])
        got = small_model.unit_rates(taus[:, None], thetas[None, :])
        assert got.shape == (taus.size, thetas.size, 2)
        want = np.array(
            [
                [
                    [delta_gamma_unit_loop(small_model, i, t, th) for i in range(2)]
                    for th in thetas
                ]
                for t in taus
            ]
        )
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=0)
        # a field subset, or a lone point, gives the very values of the mesh
        np.testing.assert_array_equal(
            small_model.unit_rates(taus[:, None], thetas, fields=(1,))[..., 0],
            got[..., 1],
        )
        np.testing.assert_array_equal(
            small_model.unit_rates(taus[2], thetas[7]), got[2, 7]
        )

    def test_chunking_does_not_change_values(self, small_model, monkeypatch):
        taus = np.geomspace(0.1e-9, 100e-9, 37)
        whole = small_model.unit_rates(taus, 0.6)
        monkeypatch.setattr(bathspectrum, "_CHUNK_ELEMENTS", 3000)  # ~1 tau per chunk
        np.testing.assert_array_equal(small_model.unit_rates(taus, 0.6), whole)

    def test_single_point_sums_two_nodes_per_field(self, small_model, monkeypatch):
        sums = []
        node_rates = small_model._node_rates

        def spy(taus, nodes, fields):
            sums.append(taus.size * nodes.size * len(fields))
            return node_rates(taus, nodes, fields)

        monkeypatch.setattr(small_model, "_node_rates", spy)
        small_model.unit_rates(2e-9, 0.7)
        small_model.unit_rates(np.full(5, 2e-9), np.full(5, 0.7))
        small_model.delta_gamma_unit(1, 2e-9, 0.7)
        assert sums == [4, 4, 2]

    @pytest.mark.parametrize(
        "free, n_tau", [(("tau_e", "theta_e"), 6), (("d_nv", "theta_e"), 13)]
    )
    def test_acceptance_is_one_unit_rates_call(
        self, free, n_tau, small_model, geometry, nuisance_fixed, monkeypatch
    ):
        """A mesh is tested with one unit_rates call, whatever the nuisances.

        A fixed τ_e on [0.9, 3.1] ns is sampled at the 11 nodes of the
        64-point τ grid inside it plus both edges: 13 values on one axis.
        """
        rng = np.random.default_rng(29)
        records = synth_records(small_model, geometry, 2e-9, 0.75, rng, noise=0.02)
        problem = make_problem(records, small_model, geometry, free, nuisance_fixed(free))
        taus = []
        unit_rates = small_model.unit_rates

        def spy(tau, theta, fields=None):
            taus.append(np.unique(tau).size)
            return unit_rates(tau, theta, fields)

        monkeypatch.setattr(small_model, "unit_rates", spy)
        grids = [estimator._param_grid(problem, n, 6) for n in problem.searched]
        mesh = np.meshgrid(*grids, indexing="ij", sparse=True)
        estimator._accepted(problem, mesh, 1.0, estimator.DEFAULT_GRID)
        assert taus == [n_tau]

    @pytest.mark.parametrize(
        "free", [("tau_e", "theta_e"), ("d_nv", "theta_e"), ("tau_e",)]
    )
    def test_landscape_and_acceptance_match_loops(
        self, free, small_model, geometry, nuisance_fixed
    ):
        rng = np.random.default_rng(23)
        records = synth_records(small_model, geometry, 2e-9, 0.75, rng, noise=0.02)
        boxes = {"tau_e": (0.5e-9, 8e-9), "d_nv": (4e-9, 12e-9)}
        problem = make_problem(
            records, small_model, geometry, free, nuisance_fixed(free), boxes=boxes
        )
        res = fit(problem, grid_points=48 if len(free) == 1 else 14)
        grids, obj = res.landscape
        assert tuple(grids) == problem.searched
        if "d_nv" in free:
            # the profile is the least χ² over d_nv: at most the sweep's least
            # value, and equal to it within the refined sweep's step
            want, _ = profile_loop(problem, grids)
            assert np.all(obj <= want * (1 + 1e-12))
            np.testing.assert_allclose(obj, want, rtol=1e-9, atol=0)
            # each minimum's d_nv is the sweep's, at its refined θ_e
            for params, value in res.minima:
                at = {n: np.array([params[n]]) for n in problem.searched}
                (want_v,), (want_d,) = profile_loop(problem, at)
                assert params["d_nv"] == pytest.approx(want_d, rel=1e-8)
                assert value <= want_v * (1 + 1e-12)
                assert value == pytest.approx(want_v, rel=1e-9, abs=1e-12)
        else:
            want = landscape_loop(problem, grids)
            np.testing.assert_allclose(obj, want, rtol=1e-12, atol=0)
        mesh = np.meshgrid(*grids.values(), indexing="ij", sparse=True)
        n = res.landscape[1].shape[0]
        for scale in (1.0, 4.0):
            mask = accepted_loop(problem, grids, scale, n)
            got, _, _ = estimator._accepted(problem, mesh, scale, n)
            # every point the b₀² sweep accepts passes the closed form ...
            assert not np.any(mask & ~got)
            # ... and every point the closed form accepts has a witness b₀²
            assert not np.any(got & ~mask)
        # the wide window accepts some points and rejects others
        assert mask.any() and not mask.all()

    def test_bin_lines_matches_group_loop(self, shipped_config):
        spec = shipped_config.spin_spec(231.0 * GAUSS_TO_TESLA, theta_e=0.75)
        family = isotope_family_spectrum(spec)
        omega, weight = family.merged()
        width = DEFAULT_BIN
        o_vec, w_vec = family.binned(width)
        o_loop, w_loop = bin_lines_loop(omega, weight, width)
        assert o_vec.size == o_loop.size < omega.size
        assert w_vec.sum() == pytest.approx(weight.sum(), rel=1e-12)
        np.testing.assert_allclose(w_vec, w_loop, rtol=1e-12, atol=0)
        # centre errors are measured against the spectrum's frequency scale
        scale = np.abs(omega).max()
        np.testing.assert_allclose(o_vec, o_loop, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize(
        "shape", [(1,), (2,), (40,), (1, 1), (1, 9), (7, 1), (12, 17)]
    )
    def test_grid_local_minima_matches_window_loop(self, shape):
        rng = np.random.default_rng(sum(shape))
        grids = [
            rng.standard_normal(shape),
            rng.integers(0, 3, shape).astype(float),  # many plateaus
            np.zeros(shape),  # one plateau: every point qualifies
        ]
        for obj in grids:
            assert estimator._grid_local_minima(obj) == grid_local_minima_loop(obj)

    @pytest.mark.parametrize(
        "shape", [(n,) for n in (1, 2, 3, 64)]
        + [(m, n) for m in (1, 2, 3, 64) for n in (1, 2, 3, 64)]
    )
    def test_window_minimum_matches_scipy_minimum_filter(self, shape):
        from scipy.ndimage import minimum_filter

        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        for trial in range(6):
            obj = rng.integers(0, 4, shape).astype(float)  # plateaus and ties
            if trial % 2:
                obj[rng.random(shape) < 0.25] = np.inf
            if trial == 5:
                obj[rng.random(shape) < 0.25] = -np.inf
            oracle = minimum_filter(obj, size=3, mode="nearest")
            np.testing.assert_array_equal(estimator._window_minimum(obj), oracle)
            expected = [tuple(int(i) for i in idx) for idx in np.argwhere(obj <= oracle)]
            assert estimator._grid_local_minima(obj) == expected
