import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinbath.bathspectrum as bathspectrum
from helpers import raw_spectral_density, slab_dipolar_quadrature
from spinbath.bathspectrum import (
    NV_TILT,
    BathSpectrumModel,
    FilmGeometry,
    autocorrelation,
    coupling_b0_sq,
    cupc_bath_model,
    electron_only_spectrum,
    free_electron_spectrum,
    geometry_factors,
    spectral_density,
    _cosine_sum,
)
from spinbath.constants import GAUSS_TO_TESLA, TWO_PI
from spinbath.spinmodel import HyperfineTensor, SpinSystemSpec, isotope_family_spectrum

GEOM = FilmGeometry(d_nv=7e-9, h=20e-9, n_e=1.7174e27)


def one_pair_model(omega0=TWO_PI * 1.2e9, tau_e=2e-9, b0_sq=1e-9):
    """A bare electron's line at omega0, hand-built as two signed lines."""
    spectrum = electron_only_spectrum(b_field=1.0)
    comp = spectrum.components[0]
    scaled = type(comp)(
        isotope=comp.isotope,
        omega=np.array([-omega0, omega0]),
        eta=np.array([0.25, 0.25]),
        m_states=comp.m_states,
        eta_sum_all=comp.eta_sum_all,
        eta_static=comp.eta_static,
        eta_pruned=comp.eta_pruned,
    )
    return BathSpectrumModel(
        spectrum=type(spectrum)(components=(scaled,)), tau_e=tau_e, b0_sq=b0_sq
    )


class TestGeometry:
    def test_factors_from_slab_quadrature(self):
        """Independent quadrature reproduces the 5/16 / 11/16 split."""
        var_long, var_perp = slab_dipolar_quadrature(
            GEOM.d_nv, GEOM.h, GEOM.n_e, NV_TILT
        )
        b0 = coupling_b0_sq(GEOM)
        f_z, f_perp = geometry_factors()
        assert abs(var_long / b0 - f_z) < 0.01 * f_z
        assert abs(var_perp / b0 - f_perp) < 0.01 * f_perp
        assert abs((var_long + var_perp) / b0 - 1.0) < 0.01

    def test_b0_linear_in_density(self):
        b1 = coupling_b0_sq(GEOM)
        b2 = coupling_b0_sq(GEOM.replace(n_e=2 * GEOM.n_e))
        np.testing.assert_allclose(b2, 2 * b1, rtol=1e-12)

    def test_b0_decreases_with_standoff(self):
        depths = np.array([4e-9, 7e-9, 12e-9, 25e-9])
        vals = [coupling_b0_sq(GEOM.replace(d_nv=d)) for d in depths]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_infinite_film_limit(self):
        """h -> inf leaves only the 1/d^3 term."""
        thick = coupling_b0_sq(GEOM.replace(h=1.0))
        from spinbath.constants import GAMMA_E, HBAR, MU_0

        pref = (MU_0 * HBAR * GAMMA_E / (4 * np.pi)) ** 2
        expected = pref * (2 * np.pi * 0.75 / 9.0) * GEOM.n_e / GEOM.d_nv**3
        np.testing.assert_allclose(thick, expected, rtol=1e-6)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            FilmGeometry(d_nv=-1e-9, h=20e-9, n_e=1e27)
        with pytest.raises(ValueError):
            FilmGeometry(d_nv=7e-9, h=0.0, n_e=1e27)


class TestSpectralDensity:
    def test_wiener_khinchin_fft(self):
        """S_e(omega) equals the Fourier transform of G_e(t)."""
        m = one_pair_model()
        n, dt = 4096, 2.5e-11
        t = dt * np.arange(n)
        g = autocorrelation(m, t)
        # two-sided transform of an even function, trapezoid end correction
        spec_fft = 2.0 * np.real(np.fft.rfft(g)) * dt - g[0] * dt
        omega_fft = TWO_PI * np.fft.rfftfreq(n, dt)
        s_direct = spectral_density(m, omega_fft)
        scale = np.max(s_direct)
        np.testing.assert_allclose(spec_fft / scale, s_direct / scale, atol=5e-3)

    @pytest.mark.parametrize(
        "t",
        [
            2e-11 * np.arange(4000),
            np.linspace(1e-9, 3e-9, 777),
            np.linspace(0.0, 1e-8, 64),
            np.sort(np.random.default_rng(3).uniform(0.0, 1e-8, 300)),
            np.linspace(0.0, 1e-8, 10),
        ],
        ids=["arange", "offset-grid", "short-grid", "uneven", "tiny"],
    )
    def test_cosine_sum_matches_direct(self, t):
        """The anchor/offset split of an even grid equals one cos per point."""
        rng = np.random.default_rng(0)
        omega = rng.uniform(-TWO_PI * 3e9, TWO_PI * 3e9, 5000)
        eta = rng.uniform(0.0, 1.0, 5000)
        direct = np.cos(t[:, None] * omega) @ eta
        np.testing.assert_allclose(
            _cosine_sum(t, omega, eta), direct, rtol=0, atol=1e-13 * eta.sum()
        )

    def test_autocorrelation_t0(self):
        """G_e(0) = b0^2 (f_z + f_perp * total oscillating weight)."""
        m = one_pair_model(b0_sq=3.3e-10)
        f_z, f_perp = geometry_factors()
        expected = m.b0_sq * (f_z + f_perp * 0.5)
        np.testing.assert_allclose(autocorrelation(m, 0.0), expected, rtol=1e-12)

    def test_narrow_line_tails(self):
        """tau_e = 1 us: 100 linewidths off resonance falls by > 1e3."""
        tau = 1e-6
        m = one_pair_model(tau_e=tau)
        omega0 = float(np.max(m.spectrum.components[0].omega))
        peak = spectral_density(m, omega0)
        off = spectral_density(m, omega0 + 100.0 / tau)
        assert peak / off > 1e3

    def test_even_in_omega(self):
        m = one_pair_model()
        w = TWO_PI * np.array([0.3e9, 0.9e9, 2.1e9])
        np.testing.assert_allclose(
            spectral_density(m, w), spectral_density(m, -w), rtol=1e-12
        )

    def test_scalar_and_array_agree(self):
        m = one_pair_model()
        w = TWO_PI * 0.7e9
        assert spectral_density(m, w) == pytest.approx(
            float(spectral_density(m, np.array([w]))[0])
        )

    def test_total_power_parseval(self):
        """integral of S_e / 2pi recovers G_e(0) (Parseval check)."""
        m = one_pair_model()
        omega = np.linspace(-TWO_PI * 30e9, TWO_PI * 30e9, 400_001)
        s = spectral_density(m, omega)
        total = np.trapezoid(s, omega) / TWO_PI
        np.testing.assert_allclose(total, autocorrelation(m, 0.0), rtol=2e-3)


class TestFreeElectronReduction:
    def test_zeroed_hyperfine_equals_electron_only(self):
        """The 648-dim pipeline with null tensors collapses to two lines."""
        b = 372.0 * GAUSS_TO_TESLA
        spec = SpinSystemSpec(
            b_field=b,
            theta_e=0.7,
            g_parallel=2.0023,
            g_perp=2.0023,
            cu_tensor=HyperfineTensor.from_mhz(0.0, 0.0, 0.0),
            n_tensor=HyperfineTensor.from_mhz(0.0, 0.0, 0.0),
        )
        full = cupc_bath_model(spec, 2e-9, GEOM)
        omega = TWO_PI * np.linspace(0.2e9, 3.0e9, 50)
        via_reduction = free_electron_spectrum(GEOM, 2e-9, omega, b)
        np.testing.assert_allclose(
            spectral_density(full, omega), via_reduction, rtol=1e-6
        )

    def test_free_electron_one_line(self):
        """One line at +gamma B carrying both directions' 1/4."""
        spectrum = electron_only_spectrum(b_field=372.0 * GAUSS_TO_TESLA)
        comp = spectrum.components[0]
        assert comp.omega.size == 1 and comp.omega[0] > 0
        np.testing.assert_allclose(comp.eta, [0.25 + 0.25])


class TestCupcModel:
    def test_shipped_model_rate_scale(self, shipped_config):
        """The full CuPc bath at 461 G produces a kHz-scale added rate."""
        cfg = shipped_config
        model = cupc_bath_model(
            cfg.spin_spec(461.0 * GAUSS_TO_TESLA),
            2e-9,
            cfg.film_geometry(),
            isotopes=cfg.isotopes(),
        )
        from spinbath.relaxometry import nv_frequency, relaxation_rate

        rate = relaxation_rate(model, cfg.nv_config(), 461.0 * GAUSS_TO_TESLA)
        assert 1e3 < rate < 1e6

    @settings(max_examples=10, deadline=None)
    @given(scale=st.floats(0.2, 5.0))
    def test_spectral_density_linear_in_b0(self, scale):
        m = one_pair_model()
        m2 = BathSpectrumModel(
            spectrum=m.spectrum, tau_e=m.tau_e, b0_sq=scale * m.b0_sq
        )
        w = TWO_PI * 1.1e9
        np.testing.assert_allclose(
            spectral_density(m2, w), scale * spectral_density(m, w), rtol=1e-12
        )


class TestBinnedLines:
    """S_e on the shared 1 MHz-binned lines against the raw line sum."""

    #: Largest relative error per tau_e (ns), as documented at
    #: spinmodel.DEFAULT_BIN.
    BOUNDS = {
        0.1: 2.5e-6,
        0.3: 2.5e-6,
        1.0: 2.5e-6,
        2.0: 2.5e-6,
        3.1: 2.5e-6,
        10.0: 3.2e-5,
        30.0: 1.6e-4,
        100.0: 1e-3,
    }

    def test_binned_matches_raw_at_omega_nv(self, shipped_config):
        from spinbath.relaxometry import nv_frequency

        cfg = shipped_config
        nv = cfg.nv_config()
        worst = dict.fromkeys(self.BOUNDS, 0.0)
        for gauss in cfg.bath.fields_gauss:
            b = gauss * GAUSS_TO_TESLA
            w_nv = nv_frequency(nv, b)
            for theta_deg in (0.0, cfg.hyperfine.theta_e_deg, 90.0):
                model = cupc_bath_model(
                    cfg.spin_spec(b, math.radians(theta_deg)),
                    2e-9,
                    cfg.film_geometry(),
                    isotopes=cfg.isotopes(),
                    eta_floor=cfg.hyperfine.eta_floor,
                )
                for tau_ns in self.BOUNDS:
                    m = replace(model, tau_e=tau_ns * 1e-9)
                    rel = abs(spectral_density(m, w_nv) / raw_spectral_density(m, w_nv) - 1)
                    worst[tau_ns] = max(worst[tau_ns], rel)
        for tau_ns, bound in self.BOUNDS.items():
            assert worst[tau_ns] <= bound, (tau_ns, worst[tau_ns])

    def test_binned_matches_raw_on_cli_grid(self, shipped_config):
        """The `spectrum` command's default 1200-point grid at 461 G, 2 ns."""
        cfg = shipped_config
        model = cupc_bath_model(
            cfg.spin_spec(461.0 * GAUSS_TO_TESLA),
            2e-9,
            cfg.film_geometry(),
            isotopes=cfg.isotopes(),
            eta_floor=cfg.hyperfine.eta_floor,
        )
        omega = TWO_PI * 1e9 * np.linspace(0.1, 6.0, 1200)
        rel = spectral_density(model, omega) / raw_spectral_density(model, omega) - 1
        assert np.max(np.abs(rel)) <= 5e-6


class TestCombKernel:
    """`spectral_density` sums in place, in chunks of `_CHUNK_ELEMENTS`."""

    @pytest.fixture(scope="class")
    def cli_grid(self, shipped_config):
        """The `spectrum` command's 461 G model and 1200-point ω grid."""
        cfg = shipped_config
        model = cfg.bath_model(461.0 * GAUSS_TO_TESLA, 2e-9)
        model.spectrum.binned()  # memoized: keep it out of the measurements
        return model, TWO_PI * 1e9 * np.linspace(0.1, 6.0, 1200)

    def test_work_arrays_are_bounded(self, cli_grid):
        """Peak traced allocation of one call stays within 4 MB (36 MB before)."""
        import tracemalloc

        model, omega = cli_grid
        tracemalloc.start()
        try:
            spectral_density(model, omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, peak

    def test_chunking_does_not_change_values(self, cli_grid, monkeypatch):
        model, omega = cli_grid
        whole = spectral_density(model, omega)
        monkeypatch.setattr(bathspectrum, "_CHUNK_ELEMENTS", 1)  # one ω row per chunk
        np.testing.assert_array_equal(spectral_density(model, omega), whole)
