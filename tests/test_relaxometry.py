import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinbath.relaxometry as relaxometry
from helpers import (
    fit_decay_fd,
    golden_rule_rate_quad,
    grid_starts_loop,
    lindblad_correlators,
)
from spinbath.bathspectrum import autocorrelation, geometry_factors, spectral_density
from spinbath.constants import GAMMA_E, GAUSS_TO_TESLA, HBAR, K_B, TWO_PI
from spinbath.errors import ConvergenceError, UnidentifiableError
from spinbath.relaxometry import (
    DecayCurve,
    NvConfig,
    SpinLatticeParams,
    T1Record,
    delta_gamma,
    fit_decay,
    fit_spin_lattice,
    nv_frequency,
    relaxation_rate,
    spin_lattice_rate,
)
from test_bathspectrum import one_pair_model


class TestNvFrequency:
    def test_zero_crossing_near_1024_gauss(self):
        cfg = NvConfig()
        b_star = cfg.d_zfs / cfg.gamma_e  # exact crossing of the minus branch
        assert 1023.0 < b_star / GAUSS_TO_TESLA < 1025.0
        assert nv_frequency(cfg, b_star) < TWO_PI * 1e3

    def test_minus_branch_v_shape(self):
        cfg = NvConfig()
        b = np.array([200.0, 600.0, 1000.0, 1100.0, 1500.0]) * GAUSS_TO_TESLA
        w = np.array([nv_frequency(cfg, bi) for bi in b])
        assert w[0] > w[1] > w[2]  # approaching the crossing
        assert w[3] < w[4]  # rising past it

    def test_plus_branch_monotone(self):
        cfg = NvConfig(branch="plus")
        b = np.linspace(0.0, 0.2, 40)
        w = np.array([nv_frequency(cfg, bi) for bi in b])
        assert np.all(np.diff(w) > 0)
        np.testing.assert_allclose(w[0], cfg.d_zfs)

    def test_branch_validation(self):
        with pytest.raises(ValueError):
            NvConfig(branch="sideways")


class TestGoldenRule:
    def test_rate_is_gamma_sq_times_spectral_density(self):
        m = one_pair_model()
        cfg = NvConfig()
        b = 461.0 * GAUSS_TO_TESLA
        expected = cfg.gamma_e**2 * float(spectral_density(m, nv_frequency(cfg, b)))
        assert relaxation_rate(m, cfg, b) == pytest.approx(expected, rel=1e-12)

    def test_fourier_integral_oracle_single_lorentzian(self):
        """Adaptive cos-weighted quadrature of G_e(t) reproduces the rate.

        A zero-field electron pair collapses to a bath with one Lorentzian
        at omega = 0, the cleanest case for the frequency-domain formula.
        """
        m = one_pair_model(omega0=0.0)
        cfg = NvConfig()
        for gauss in (231.0, 461.0, 721.0):
            b = gauss * GAUSS_TO_TESLA
            direct = relaxation_rate(m, cfg, b)
            via_quad = golden_rule_rate_quad(m, nv_frequency(cfg, b), cfg.gamma_e)
            assert abs(via_quad / direct - 1.0) < 0.01

    def test_fourier_integral_oracle_detuned_pair(self):
        m = one_pair_model(omega0=TWO_PI * 1.2e9)
        cfg = NvConfig()
        b = 372.0 * GAUSS_TO_TESLA
        direct = relaxation_rate(m, cfg, b)
        via_quad = golden_rule_rate_quad(m, nv_frequency(cfg, b), cfg.gamma_e)
        assert abs(via_quad / direct - 1.0) < 0.01


class TestLindbladOracle:
    def test_autocorrelation_matches_master_equation(self):
        """Line-list G_e(t) vs direct propagation of the master equation.

        A one-pair bath maps onto a spin-1/2 with splitting omega0 and
        three depolarizing channels at gamma = 1/(4 tau_e): the secular
        part follows 4<S_z(t)S_z> and the oscillating part the symmetrized
        transverse correlator <S_x(t)S_x> + <S_y(t)S_y>.  Errors are
        normalized to the decay envelope because G_e crosses zero.
        """
        omega0, tau, b0_sq = TWO_PI * 1.2e9, 2e-9, 3.7e-10
        m = one_pair_model(omega0=omega0, tau_e=tau, b0_sq=b0_sq)
        t = np.linspace(0.0, 5 * tau, 50)
        corr = lindblad_correlators(omega0, tau, t)
        f_z, f_perp = geometry_factors()
        g_oracle = b0_sq * (4.0 * f_z * corr["z"] + f_perp * (corr["x"] + corr["y"]))
        envelope = b0_sq * np.exp(-t / tau)
        err = np.abs(autocorrelation(m, t) - g_oracle) / envelope
        assert np.max(err) < 1e-8


class TestDeltaGamma:
    def test_sigma_matches_monte_carlo(self):
        rec = T1Record(
            nv_id="NV1",
            b_gauss=461.0,
            t1_cupc=3e-3,
            t1_cupc_sigma=0.02 * 3e-3,
            t1_free=5e-3,
            t1_free_sigma=0.02 * 5e-3,
        )
        value, sigma = delta_gamma(rec)
        assert value == pytest.approx(1.0 / 3e-3 - 1.0 / 5e-3)
        rng = np.random.default_rng(11)
        n = 200_000
        t1c = rec.t1_cupc + rec.t1_cupc_sigma * rng.standard_normal(n)
        t1f = rec.t1_free + rec.t1_free_sigma * rng.standard_normal(n)
        samples = 1.0 / t1c - 1.0 / t1f
        assert abs(np.std(samples) / sigma - 1.0) < 0.02

    @settings(max_examples=25, deadline=None)
    @given(
        t1c=st.floats(1e-4, 1e-2),
        t1f=st.floats(1e-4, 1e-2),
        rel=st.floats(0.005, 0.1),
    )
    def test_antisymmetry(self, t1c, t1f, rel):
        fwd = T1Record("a", 231.0, t1c, rel * t1c, t1f, rel * t1f)
        rev = T1Record("a", 231.0, t1f, rel * t1f, t1c, rel * t1c)
        v1, s1 = delta_gamma(fwd)
        v2, s2 = delta_gamma(rev)
        assert v1 == pytest.approx(-v2, rel=1e-12, abs=1e-30)
        assert s1 == pytest.approx(s2, rel=1e-12)


class TestFitDecay:
    TRUTH = dict(a=0.8, t1=3e-3, iota=0.85, c=0.1)

    def make_curve(self, noise=0.01, seed=3, n=40):
        rng = np.random.default_rng(seed)
        t = np.geomspace(1e-5, 3e-2, n)
        t[0] = 0.0  # leading zero-delay sample, as measured curves have
        y = self.TRUTH["a"] * np.exp(
            -((np.maximum(t, 1e-12) / self.TRUTH["t1"]) ** self.TRUTH["iota"])
        ) + self.TRUTH["c"]
        y = y + noise * rng.standard_normal(n)
        return DecayCurve(t=t, y=y, sigma=np.full(n, noise))

    def test_synthetic_recovery(self):
        res = fit_decay(self.make_curve())
        assert abs(res.t1 - self.TRUTH["t1"]) < 4 * res.t1_sigma
        assert abs(res.t1 / self.TRUTH["t1"] - 1.0) < 0.15
        assert abs(res.iota - self.TRUTH["iota"]) < 0.12
        assert 0.3 < res.chi2_red < 3.0

    def test_flat_curve_unidentifiable(self):
        rng = np.random.default_rng(5)
        t = np.linspace(1e-5, 1e-2, 30)
        y = 0.5 + 0.001 * rng.standard_normal(30)
        with pytest.raises(UnidentifiableError):
            fit_decay(DecayCurve(t=t, y=y, sigma=np.full(30, 0.01)))

    def test_too_few_samples(self):
        t = np.linspace(1e-5, 1e-2, 5)
        y = np.exp(-t / 3e-3)
        with pytest.raises(ValueError):
            fit_decay(DecayCurve(t=t, y=y, sigma=np.full(5, 0.01)))

    def test_as_dict_keys(self):
        res = fit_decay(self.make_curve())
        d = res.as_dict()
        assert set(d) == {
            "A", "T1", "iota", "C",
            "A_sigma", "T1_sigma", "iota_sigma", "C_sigma", "chi2_red",
        }

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            DecayCurve(t=np.array([0.0, 2.0, 1.0]), y=np.zeros(3), sigma=np.ones(3))
        with pytest.raises(ValueError):
            DecayCurve(t=np.array([0.0, 1.0]), y=np.zeros(2), sigma=np.array([1.0, 0.0]))

    def test_negative_delay_rejected(self):
        """As the decay-CSV loader does, rather than fit a moved first delay."""
        t = np.linspace(-1e-3, 4e-3, 40)
        with pytest.raises(ValueError, match="times must be >= 0"):
            DecayCurve(t=t, y=np.exp(-t / 1e-3), sigma=np.full(40, 0.01))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field, name", [("t", "times"), ("y", "signal"), ("sigma", "uncertainties")]
    )
    def test_non_finite_sample_rejected(self, field, name, bad):
        arrays = dict(
            t=np.arange(1.0, 9.0), y=np.linspace(1.0, 0.0, 8), sigma=np.full(8, 0.01)
        )
        arrays[field][3] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DecayCurve(**arrays)

    def test_jacobian_matches_central_differences(self):
        """Each column of the analytic Jacobian within 1e-6 of central differences.

        T1 is drawn across the sampled times, inside fit_decay's bounds.  Far
        below them the curve has decayed at every sample but the first, and
        the differences lose their digits to round-off, not the Jacobian.
        """
        rng = np.random.default_rng(41)
        t = self.make_curve().t.copy()
        t[0] = t[1] * 1e-6  # the nudge fit_decay applies to a zero delay
        for _ in range(50):
            p = np.array(
                [
                    rng.uniform(-2.0, 2.0),
                    np.exp(rng.uniform(np.log(t[1]), np.log(t[-1]))),
                    rng.uniform(*relaxometry.IOTA_BOUNDS),
                    rng.uniform(-1.0, 1.0),
                ]
            )
            jac = relaxometry._stretched_exp_jac(t, *p)
            for k in range(4):
                # C only shifts y; difference the other columns at C = 0 so
                # that it does not swamp their smallest terms
                q = p if k == 3 else np.append(p[:3], 0.0)
                h = np.zeros(4)
                h[k] = 1e-5 * abs(p[k])
                fd = (
                    relaxometry._stretched_exp(t, *(q + h))
                    - relaxometry._stretched_exp(t, *(q - h))
                ) / (2.0 * h[k])
                assert np.linalg.norm(jac[:, k] - fd) <= 1e-6 * np.linalg.norm(fd), (p, k)

    @staticmethod
    def benchmark_style_curves():
        """Seeded traces shaped like the benchmark's: exp decay, 40 points to 4 T1."""
        for seed in range(6):
            rng = np.random.default_rng([seed, 2])
            noise = (0.01, 0.02, 0.04)[seed % 3]
            for t1 in (5e-3, rng.uniform(0.2e-3, 4e-3)):
                t = np.linspace(0.0, 4.0 * t1, 40)
                y = np.exp(-t / t1) + noise * rng.standard_normal(t.size)
                yield DecayCurve(t=t, y=y, sigma=np.full(t.size, noise))

    @staticmethod
    def wide_range_curves():
        """Seeded traces with T1 over three decades around the sampled window.

        40 samples to t_end = 1 ms, evenly spaced from 0 (even seeds) or
        log-spaced from 1 us after a zero delay (odd seeds); T1 from
        t_end / 100 to 10 t_end, iota across IOTA_BOUNDS, 0.2-2 % noise.
        Traces whose decay is below 3 sigma are unidentifiable by design
        and left out.  The last trace (seed 41, log-spaced) pins T1 to
        t_end / 96, where the oracle's J^T J can be singular.
        """
        t_end = 1e-3
        for seed, t1_set in [*((s, None) for s in range(40)), (41, t_end / 96)]:
            rng = np.random.default_rng([seed, 5])
            if seed % 2:
                t = np.concatenate([[0.0], np.geomspace(t_end / 1000, t_end, 39)])
            else:
                t = np.linspace(0.0, t_end, 40)
            t1 = t_end * 10 ** rng.uniform(-2.0, 1.0)
            t1 = t1 if t1_set is None else t1_set
            iota = rng.uniform(*relaxometry.IOTA_BOUNDS)
            a, c = rng.uniform(0.5, 1.0), rng.uniform(0.0, 0.2)
            noise = rng.uniform(0.002, 0.02)
            y = a * np.exp(-((t / t1) ** iota)) + c + noise * rng.standard_normal(t.size)
            if np.ptp(y) >= 3.0 * noise:
                yield DecayCurve(t=t, y=y, sigma=np.full(t.size, noise))

    def test_fit_matches_finite_difference_oracle(self):
        """The grid-and-polish fit lands where the nine 2-point TRF runs did.

        Its cost is never above theirs by more than 1e-9 relative; on the
        wide-range traces, whose T1 and iota can sit in flat or split
        valleys, only the cost is compared.
        """
        curves = [self.make_curve(), *self.benchmark_style_curves()]
        for curve in curves:
            got, want = fit_decay(curve), fit_decay_fd(curve)
            for name in ("t1", "iota", "a"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-4)
            for name in ("a_sigma", "t1_sigma", "iota_sigma", "c_sigma"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), rel=2e-3)
            assert got.chi2_red == pytest.approx(want.chi2_red, rel=1e-6)
            assert abs(got.c - want.c) < 1e-3 * want.c_sigma
            assert got.chi2_red <= want.chi2_red * (1.0 + 1e-9)
        for curve in self.wide_range_curves():
            got, want = fit_decay(curve), fit_decay_fd(curve)
            assert got.chi2_red <= want.chi2_red * (1.0 + 1e-9)

    @pytest.mark.parametrize("chunk", [relaxometry._GRID_CHUNK, 1])
    def test_grid_starts_match_loop(self, monkeypatch, chunk):
        """The broadcast grid solve ranks the points as a per-point lstsq
        loop does, whole or one T1 row at a time, with equal or unequal sigma."""
        monkeypatch.setattr(relaxometry, "_GRID_CHUNK", chunk)
        base = self.make_curve()
        uneven = DecayCurve(
            t=base.t, y=base.y, sigma=base.sigma * np.geomspace(0.2, 5.0, len(base))
        )
        curves = [base, uneven, *list(self.wide_range_curves())[:4]]
        for curve in curves:
            t = curve.t.copy()
            t[0] = t[0] if t[0] > 0 else t[1] * 1e-6
            y, sig = curve.y, curve.sigma
            span = np.ptp(y)
            lo = [-10 * span - 1e-12, t[0] / 100, relaxometry.IOTA_BOUNDS[0], y.min() - span - 1e-9]
            hi = [10 * span + 1e-12, t[-1] * 100, relaxometry.IOTA_BOUNDS[1], y.max() + span + 1e-9]
            got = relaxometry._grid_starts(t, y, sig, lo, hi)
            want = np.array(grid_starts_loop(t, y, sig, lo, hi)[: relaxometry._MAX_POLISHES])
            np.testing.assert_allclose(got, want[:, 1:], rtol=1e-7, atol=1e-12)

    def test_grid_starts_at_first_positive_delay(self, monkeypatch):
        """A zero first delay is nudged for the model, but the T1 grid
        starts at 1/100 of the first positive delay, not of the nudged one
        (in the fit's time unit, the last delay)."""
        lows = []
        real = relaxometry._grid_starts

        def spy(t, y, sig, lo, hi):
            lows.append(lo[1])
            return real(t, y, sig, lo, hi)

        monkeypatch.setattr(relaxometry, "_grid_starts", spy)
        curve = self.make_curve()
        assert curve.t[0] == 0.0
        fit_decay(curve)
        assert lows == [curve.t[1] / curve.t[-1] / 100]

    def test_one_polish_per_benchmark_style_trace(self, monkeypatch):
        """The grid's best point converges: one polish per fit."""
        calls = []
        real = relaxometry._levenberg_marquardt

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(relaxometry, "_levenberg_marquardt", counting)
        for curve in self.benchmark_style_curves():
            calls.clear()
            fit_decay(curve)
            assert len(calls) == 1

    @pytest.mark.parametrize("failure", ["raise", "unconverged"])
    def test_failed_polish_falls_back_to_next_grid_point(self, monkeypatch, failure):
        """A polish that raises ValueError or does not converge moves on to
        the next grid point; the ninth failure is a ConvergenceError."""
        curve = self.make_curve()
        want = fit_decay(curve)
        real = relaxometry._levenberg_marquardt
        starts, fail_first = [], [1]

        def flaky(resid, jac, x0, lo, hi):
            starts.append(tuple(x0))
            if len(starts) <= fail_first[0]:
                if failure == "raise":
                    raise np.linalg.LinAlgError("singular")
                with monkeypatch.context() as m:
                    m.setattr(relaxometry, "_MAX_LM_TRIALS", 1)
                    sol = real(resid, jac, x0, lo, hi)
                assert not sol[3]
                return sol
            return real(resid, jac, x0, lo, hi)

        monkeypatch.setattr(relaxometry, "_levenberg_marquardt", flaky)
        got = fit_decay(curve)
        assert len(starts) == 2 and starts[0] != starts[1]
        assert got.t1 == pytest.approx(want.t1, rel=1e-6)
        starts.clear()
        fail_first[0] = 9
        with pytest.raises(ConvergenceError):
            fit_decay(curve)
        assert len(set(starts)) == 9

    @staticmethod
    def polish_problem(curve, monkeypatch):
        """The (resid, jac, x0, lo, hi) of `fit_decay`'s first polish."""
        seen = []
        real = relaxometry._levenberg_marquardt

        def spy(*args):
            seen.append(args)
            return real(*args)

        with monkeypatch.context() as m:
            m.setattr(relaxometry, "_levenberg_marquardt", spy)
            fit_decay(curve)
        return seen[0]

    def test_levenberg_marquardt_matches_least_squares(self, monkeypatch):
        """The polish ends where SciPy's TRF does from the same start, at a
        cost no higher, with iota held at its upper bound.

        The trace is the wide-range one whose fit sits at iota = 2: a step
        that is only clipped into the box, with no parameter held at its
        bound, never converges there from any of the nine starts.
        """
        from scipy.optimize import least_squares

        curve = list(self.wide_range_curves())[10]
        for c in (self.make_curve(), curve):
            resid, jac, x0, lo, hi = self.polish_problem(c, monkeypatch)
            x, r, j, converged = relaxometry._levenberg_marquardt(resid, jac, x0, lo, hi)
            want = least_squares(
                resid, x0, jac=jac, bounds=(lo, hi), method="trf",
                ftol=relaxometry._POLISH_TOL, xtol=relaxometry._POLISH_TOL,
            )
            assert converged and want.success
            assert r @ r <= 2.0 * want.cost * (1.0 + 1e-12)
            np.testing.assert_allclose(x, want.x, rtol=1e-5)
            np.testing.assert_array_equal(r, resid(x))
            np.testing.assert_array_equal(j, jac(x))
        assert x[2] == hi[2]  # the wide-range trace, last in the loop

    def test_levenberg_marquardt_non_finite_start_is_value_error(self, monkeypatch):
        resid, jac, x0, lo, hi = self.polish_problem(self.make_curve(), monkeypatch)

        def nan_at_start(p):
            return np.full(3, np.nan) if np.array_equal(p, x0) else resid(p)

        with pytest.raises(ValueError, match="not finite"):
            relaxometry._levenberg_marquardt(nan_at_start, jac, x0, lo, hi)

    def test_levenberg_marquardt_trial_cap_is_not_converged(self, monkeypatch):
        resid, jac, x0, lo, hi = self.polish_problem(self.make_curve(), monkeypatch)
        monkeypatch.setattr(relaxometry, "_MAX_LM_TRIALS", 2)
        x, r, _, converged = relaxometry._levenberg_marquardt(resid, jac, x0, lo, hi)
        assert not converged
        assert r @ r < resid(x0) @ resid(x0)

    def test_fit_error_outside_value_error_surfaces(self, monkeypatch):
        """Only ValueError (LinAlgError, non-finite residuals) skips a start."""

        def broken(*args):
            raise ZeroDivisionError("bug in the Jacobian")

        monkeypatch.setattr(relaxometry, "_stretched_exp_jac", broken)
        with pytest.raises(ZeroDivisionError):
            fit_decay(self.make_curve())

    def test_every_start_failing_is_a_convergence_error(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(relaxometry, "_stretched_exp_jac", singular)
        with pytest.raises(ConvergenceError):
            fit_decay(self.make_curve())


class TestSpinLattice:
    TRUTH = SpinLatticeParams(
        a=5e4, omega_a=K_B * 30.0 / HBAR, b=2e5, omega_b=K_B * 80.0 / HBAR, c=10.0
    )

    def test_low_temperature_floor(self):
        assert spin_lattice_rate(0.05, self.TRUTH) == pytest.approx(
            self.TRUTH.c, rel=1e-10
        )

    def test_high_temperature_asymptote(self):
        """Each phonon term approaches its power law within 1% at x = 0.01."""
        p = self.TRUTH
        for omega, asym in (
            (p.omega_a, lambda x: p.a / x),  # one-phonon: A k_B T / (hbar w)
            (p.omega_b, lambda x: p.b / x**2),  # two-phonon Raman: B (k_B T)^2
        ):
            temp = HBAR * omega / (K_B * 0.01)
            only = SpinLatticeParams(
                a=p.a if omega is p.omega_a else 0.0,
                omega_a=p.omega_a,
                b=p.b if omega is p.omega_b else 0.0,
                omega_b=p.omega_b,
                c=0.0,
            )
            assert abs(spin_lattice_rate(temp, only) / asym(0.01) - 1.0) < 0.01

    @settings(max_examples=20, deadline=None)
    @given(t1=st.floats(0.5, 400.0), t2=st.floats(0.5, 400.0))
    def test_monotone_in_temperature(self, t1, t2):
        lo, hi = sorted([t1, t2])
        if hi / lo < 1.001:
            return
        assert spin_lattice_rate(hi, self.TRUTH) >= spin_lattice_rate(lo, self.TRUTH)

    def test_noiseless_recovery_and_extrapolation(self):
        t = np.geomspace(2.0, 100.0, 40)
        fit = fit_spin_lattice(t, spin_lattice_rate(t, self.TRUTH))
        assert spin_lattice_rate(300.0, fit) == pytest.approx(
            spin_lattice_rate(300.0, self.TRUTH), rel=1e-6
        )

    def test_noisy_recovery_within_range(self):
        rng = np.random.default_rng(7)
        t = np.geomspace(2.0, 100.0, 40)
        r = spin_lattice_rate(t, self.TRUTH)
        noisy = r * (1.0 + 0.02 * rng.standard_normal(r.size))
        fit = fit_spin_lattice(t, noisy, sigma=0.02 * r)
        rel = np.abs(spin_lattice_rate(t, fit) / r - 1.0)
        assert np.max(rel) < 0.06

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            spin_lattice_rate(0.0, self.TRUTH)

    def test_fit_error_outside_value_error_surfaces(self, monkeypatch):
        """Only ValueError (LinAlgError, non-finite residuals) skips a start."""
        t = np.geomspace(2.0, 100.0, 40)
        r = spin_lattice_rate(t, self.TRUTH)

        def broken(*args):
            raise ZeroDivisionError("bug in the rate model")

        monkeypatch.setattr(relaxometry, "spin_lattice_rate", broken)
        with pytest.raises(ZeroDivisionError):
            fit_spin_lattice(t, r)

    def test_room_temperature_background_is_consumed_constant(self):
        """The 1/38 ns^-1 room-T depolarization enters as a fixed input."""
        from spinbath.eesolver import BACKGROUND_RATE_ROOM_T

        assert BACKGROUND_RATE_ROOM_T == pytest.approx(1.0 / 38e-9, rel=1e-12)
