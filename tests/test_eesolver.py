from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import line_list_tau, pair_spectral_density
from spinbath.bathspectrum import S_SPIN_FACTOR, electron_only_spectrum
from spinbath.constants import GAMMA_E, GAUSS_TO_TESLA, HBAR, MU_0
from spinbath.eesolver import (
    LatticeModel,
    coincidence_weight,
    delta_approx_tau,
    dipolar_prefactor,
    flip_flop_factor,
    no_hyperfine_tau,
    pair_geometry,
    quasi_static_factor,
    solve_tau_self_consistent,
)
from spinbath.eesolver import _pair_weights

ELECTRON_SPEC = electron_only_spectrum(b_field=372.0 * GAUSS_TO_TESLA)
OMEGA0 = float(np.max(np.abs(ELECTRON_SPEC.merged()[0])))


def toy_lattice(r, theta, cell_size=300e-9):
    """Two sites r apart at angle theta to the field, images far away."""
    u = np.array([np.sin(theta), 0.0, np.cos(theta)])
    cell = np.eye(3) * cell_size
    s1 = (r * u) @ np.linalg.inv(cell)
    return LatticeModel(
        cell=cell,
        sites=np.array([[0.0, 0.0, 0.0], s1]),
        field_dir=np.array([0.0, 0.0, 1.0]),
        cutoff=2.5 * r,
    )


def poly_root_tau(r, theta, omega0):
    """Exact single-pair fixed point as a cubic root in tau^2.

    For a bare electron's bath, one line of weight 1/2 at omega0, the
    self-consistency condition
    1/tau = K [ QS/2 * L(omega0) + F/4 * (tau + L(2 omega0)) ]
    clears into K F a^2 u^3 + (K(2QS + 3F/2)a - 4a^2) u^2
    + (K(QS+F)/2 - 5a) u - 1 = 0 with u = tau^2, a = omega0^2.
    """
    big_k = GAMMA_E**2 * dipolar_prefactor(r)
    qs, ff = quasi_static_factor(theta), flip_flop_factor(theta)
    a = omega0**2
    coeffs = [
        big_k * ff * a**2,
        big_k * (2 * qs + 1.5 * ff) * a - 4 * a**2,
        0.5 * big_k * (qs + ff) - 5 * a,
        -1.0,
    ]
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-9 * (np.abs(roots.real) + 1e-300)].real
    best, best_resid = None, np.inf
    for tau in np.sqrt(real[real > 0]):
        lor1 = tau / (1 + a * tau**2)
        lor2 = tau / (1 + 4 * a * tau**2)
        rate = big_k * (0.5 * qs * lor1 + 0.25 * ff * (tau + lor2))
        resid = abs(rate * tau - 1.0)
        if resid < best_resid:
            best, best_resid = tau, resid
    assert best_resid < 1e-10
    return best


class TestAngularFactors:
    @settings(max_examples=30, deadline=None)
    @given(theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi))
    def test_against_dipolar_tensor_blocks(self, theta, phi):
        """Closed forms equal brute-force sums over the coupling matrix."""
        n = np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        tensor = 3.0 * np.outer(n, n) - np.eye(3)
        qs_brute = 2.0 * (tensor[0, 2] ** 2 + tensor[1, 2] ** 2)
        ff_brute = float(np.sum(tensor[:2, :2] ** 2))
        np.testing.assert_allclose(quasi_static_factor(theta), qs_brute, atol=1e-10)
        np.testing.assert_allclose(flip_flop_factor(theta), ff_brute, atol=1e-10)

    def test_magic_angle_kills_quasi_static(self):
        assert quasi_static_factor(0.0) == pytest.approx(0.0, abs=1e-12)
        assert quasi_static_factor(np.pi / 2) == pytest.approx(0.0, abs=1e-12)
        assert quasi_static_factor(np.pi / 4) == pytest.approx(4.5)

    def test_flip_flop_never_vanishes(self):
        theta = np.linspace(0.0, np.pi, 721)
        assert np.min(flip_flop_factor(theta)) > 0.9


class TestDipolarScaling:
    def test_prefactor_inverse_sixth(self):
        np.testing.assert_allclose(
            dipolar_prefactor(2e-9), dipolar_prefactor(1e-9) / 64.0, rtol=1e-12
        )

    @pytest.mark.parametrize("theta", [0.0, 0.7, np.pi / 2])
    def test_no_hyperfine_is_transverse_dipolar_norm(self, theta):
        """1/tau_nh = sqrt(sum over x, y of D_mu_nu^2), D built element by element.

        D_mu_nu = sqrt(S(S+1)/3) (mu0 hbar gamma_e^2 / 4 pi) (3 n_mu n_nu -
        delta_mu_nu) / r^3; each molecule of the toy pair has one neighbour.
        """
        r = 1.2e-9
        n = np.array([np.sin(theta), 0.0, np.cos(theta)])
        d = (
            np.sqrt(S_SPIN_FACTOR / 3.0) * MU_0 * HBAR * GAMMA_E**2 / (4.0 * np.pi * r**3)
            * (3.0 * np.outer(n, n) - np.eye(3))
        )
        rate = np.sqrt(np.sum(d[:2, :2] ** 2))
        assert no_hyperfine_tau(toy_lattice(r, theta)) == pytest.approx(1.0 / rate, rel=1e-12)


class TestPairGeometry:
    def test_toy_pair_list(self):
        r, theta = pair_geometry(toy_lattice(1.2e-9, 0.7))
        np.testing.assert_allclose(r, [1.2e-9, 1.2e-9], rtol=1e-12)
        np.testing.assert_allclose(np.sort(theta), [0.7, np.pi - 0.7], atol=1e-12)

    def test_simple_cubic_shell_counts(self):
        a = 1e-9
        lat = LatticeModel(
            cell=np.eye(3) * a,
            sites=np.array([[0.0, 0.0, 0.0]]),
            field_dir=np.array([0.0, 0.0, 1.0]),
            cutoff=2.05 * a,
        )
        r, _ = pair_geometry(lat)
        # shells: 6 at a, 12 at sqrt2 a, 8 at sqrt3 a, 6 at 2a
        assert r.size == 32
        for dist, count in ((1.0, 6), (np.sqrt(2), 12), (np.sqrt(3), 8), (2.0, 6)):
            assert np.sum(np.abs(r - dist * a) < 1e-15) == count

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            replace(toy_lattice(1.2e-9, 0.7), cutoff=1.5e-9)

    def test_degenerate_cell_rejected(self):
        with pytest.raises(ValueError):
            LatticeModel(
                cell=np.zeros((3, 3)),
                sites=np.array([[0.0, 0.0, 0.0]]),
                field_dir=np.array([0.0, 0.0, 1.0]),
                cutoff=1e-9,
            )


class TestPairSpectralDensity:
    def test_validation(self):
        with pytest.raises(ValueError):
            pair_spectral_density((0.0, 0.3), 2e-9, ELECTRON_SPEC, 0.0)
        with pytest.raises(ValueError):
            pair_spectral_density((1e-9, 0.3), -1.0, ELECTRON_SPEC, 0.0)

    def test_closed_form_two_line_bath(self):
        """Hand-evaluated Lorentzian sum for the electron-only spectrum."""
        r, theta, tau = 1.4e-9, 0.6, 2e-9
        omega = 0.55 * OMEGA0

        def lor(x):
            return tau / ((x * tau) ** 2 + 1.0)

        expected = dipolar_prefactor(r) * (
            quasi_static_factor(theta) * lor(omega)
            + flip_flop_factor(theta)
            * 0.25
            * (
                lor(OMEGA0 - omega)
                + lor(OMEGA0 + omega)
                + lor(-OMEGA0 - omega)
                + lor(-OMEGA0 + omega)
            )
        )
        got = pair_spectral_density((r, theta), tau, ELECTRON_SPEC, omega)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_prefactor_follows_gamma_e(self):
        """S_pair carries the dipolar prefactor, which scales as gamma_e^2."""
        pair, tau, omega = (1.4e-9, 0.6), 2e-9, 0.55 * OMEGA0
        ref = pair_spectral_density(pair, tau, ELECTRON_SPEC, omega)
        got = pair_spectral_density(pair, tau, ELECTRON_SPEC, omega, gamma_e=1.1 * GAMMA_E)
        np.testing.assert_allclose(got / ref, 1.1**2, rtol=1e-12)

    def test_self_consistent_rate_equals_weighted_probe_sum(self):
        """gamma^2 sum_b w_b S_pair(omega_b) reproduces the solver's rate.

        The solver's rate is gamma^2 sum_b w_b [qs L(omega_b) + ff (double
        sum)], so probing the pair spectral density at every line and
        weighting must equal 1/tau at the fixed point.
        """
        r, theta = 1.2e-9, 0.7
        lat = toy_lattice(r, theta)
        rep = solve_tau_self_consistent(lat, ELECTRON_SPEC)
        omega, weight = ELECTRON_SPEC.merged()
        rate = GAMMA_E**2 * sum(
            w * pair_spectral_density((r, theta), rep.tau_e, ELECTRON_SPEC, om)
            for om, w in zip(omega, weight)
        )
        # the fixed point is solved to 1e-10; what remains is the grid deposit
        # of the double sum, O((step tau)^4): 2.7e-4 at this pair's tau of
        # 21 ns on the 1 MHz grid (2e-10 at the shipped 721 G tau of 0.74 ns)
        np.testing.assert_allclose(rate, 1.0 / rep.tau_e, rtol=1e-3)


class TestPairWeights:
    def test_match_exact_double_sum_without_pm_symmetry(self):
        """sum_m P_m L(x_m) is the double sum, difference and sum terms alike.

        The lines are random and not +-omega symmetric: a sum term taken
        equal to the difference term would be off by 23-30 %.
        """
        rng = np.random.default_rng(4)
        omega = 2 * np.pi * np.sort(rng.uniform(-1.5e9, 3.0e9, 300))
        weight = rng.uniform(0.0, 1.0, omega.size)
        pair_omega, pair_weight = _pair_weights(omega, weight)
        for tau in (0.3e-9, 1e-9):
            def lor(x):
                return tau / (np.square(x * tau) + 1.0)

            exact = weight @ (lor(omega[:, None] - omega) + lor(omega[:, None] + omega)) @ weight
            np.testing.assert_allclose(pair_weight @ lor(pair_omega), exact, rtol=1e-8)


class TestSelfConsistentSolve:
    @pytest.mark.parametrize("theta", [0.3, np.pi / 4, 1.1, 1.5])
    def test_single_pair_polynomial_oracle(self, theta):
        """Fixed point matches the cubic-in-tau^2 root to < 0.05%.

        What remains is the grid deposit's O((step tau)^4) error, up to 1e-4
        at these pairs' tau of 9-19 ns.
        """
        r = 1.2e-9
        rep = solve_tau_self_consistent(toy_lattice(r, theta), ELECTRON_SPEC)
        np.testing.assert_allclose(
            rep.tau_e, poly_root_tau(r, theta, OMEGA0), rtol=5e-4
        )

    def test_report_fields(self):
        rep = solve_tau_self_consistent(toy_lattice(1.2e-9, 0.7), ELECTRON_SPEC)
        assert rep.residual < 1e-10
        # isolated pair: doubling the cutoff finds no new neighbours
        assert rep.cutoff_convergence < 1e-5

    @staticmethod
    def spectrum_721(cfg, n_nitrogens):
        from spinbath.spinmodel import isotope_family_spectrum

        spec = cfg.spin_spec(721.0 * GAUSS_TO_TESLA)
        return isotope_family_spectrum(
            replace(spec, n_nitrogens=n_nitrogens), **cfg.spectrum_args()
        )

    def test_grid_sum_matches_exact_binned_root(self, shipped_config):
        """tau_full equals the root of the exact sums over its binned lines (721 G).

        Only the grid deposit of the double sum differs; 721 G has the
        longest tau_full of the shipped fields, so the largest deposit error.
        """
        lattice = shipped_config.lattice_model()
        spectrum = self.spectrum_721(shipped_config, 4)
        rep = solve_tau_self_consistent(lattice, spectrum)
        exact = line_list_tau(lattice, *spectrum.binned(), 0.99 * rep.tau_e, 1.01 * rep.tau_e)
        assert abs(rep.tau_e / exact - 1.0) <= 1e-6

    def test_binned_lines_match_raw_line_root(self, shipped_config):
        """tau_full equals the root of the exact sums over the raw lines.

        Two nitrogens keep the raw list (4 213 lines at 721 G, 1 342 bins)
        small enough for the raw double sum; binning and the grid deposit
        both differ from it.
        """
        lattice = shipped_config.lattice_model()
        spectrum = self.spectrum_721(shipped_config, 2)
        rep = solve_tau_self_consistent(lattice, spectrum)
        raw = line_list_tau(lattice, *spectrum.merged(), 0.99 * rep.tau_e, 1.01 * rep.tau_e)
        assert abs(rep.tau_e / raw - 1.0) <= 1e-6

    def test_cutoff_convergence_is_the_doubled_cutoff_change(self, shipped_config):
        lattice = shipped_config.lattice_model()
        spectrum = self.spectrum_721(shipped_config, 4)
        rep = solve_tau_self_consistent(lattice, spectrum)
        wide = solve_tau_self_consistent(replace(lattice, cutoff=2.0 * lattice.cutoff), spectrum)
        assert rep.cutoff_convergence > 1e-5
        assert rep.cutoff_convergence == pytest.approx(
            abs(wide.tau_e / rep.tau_e - 1.0), rel=1e-4
        )


class TestCoincidenceLimits:
    def test_electron_only_weight_is_unity(self):
        assert coincidence_weight(ELECTRON_SPEC) == pytest.approx(1.0, rel=1e-12)

    def test_delta_collapses_to_no_hyperfine(self):
        lat = toy_lattice(1.2e-9, 0.7)
        assert delta_approx_tau(lat, ELECTRON_SPEC) == pytest.approx(
            no_hyperfine_tau(lat), rel=1e-12
        )

    @settings(max_examples=15, deadline=None)
    @given(scale=st.floats(0.5, 3.0))
    def test_dilation_law_cubed(self, scale):
        """Stretching every distance by s multiplies both bounds by s^3."""
        base = toy_lattice(1.2e-9, 0.8)
        scaled = LatticeModel(
            cell=base.cell * scale,
            sites=base.sites,
            field_dir=base.field_dir,
            cutoff=base.cutoff * scale,
        )
        np.testing.assert_allclose(
            no_hyperfine_tau(scaled),
            scale**3 * no_hyperfine_tau(base),
            rtol=1e-9,
        )
        np.testing.assert_allclose(
            delta_approx_tau(scaled, ELECTRON_SPEC),
            scale**3 * delta_approx_tau(base, ELECTRON_SPEC),
            rtol=1e-9,
        )


class TestGammaE:
    """gamma_e enters the solver and both bounds, not only the module constant."""

    GAMMA_2 = 2.0 * np.pi * 30.0e9

    def test_bounds_scale_as_inverse_gamma_squared(self):
        from spinbath.spinmodel import SpinSystemSpec, isotope_family_spectrum

        lat = toy_lattice(1.2e-9, 0.8)
        spectrum = isotope_family_spectrum(
            SpinSystemSpec(
                b_field=372.0 * GAUSS_TO_TESLA, theta_e=0.7, g_parallel=2.16,
                g_perp=2.04, n_nitrogens=1,
            )
        )
        assert coincidence_weight(spectrum) < 0.5
        ratio = (GAMMA_E / self.GAMMA_2) ** 2
        assert no_hyperfine_tau(lat, gamma_e=self.GAMMA_2) == pytest.approx(
            ratio * no_hyperfine_tau(lat), rel=1e-12
        )
        assert delta_approx_tau(lat, spectrum, gamma_e=self.GAMMA_2) == pytest.approx(
            ratio * delta_approx_tau(lat, spectrum), rel=1e-12
        )

    def test_solve_equals_contracted_lattice(self):
        """Rates go as gamma_e^4 / r^6, so gamma_e -> k gamma_e is r -> k^(-2/3) r."""
        k = self.GAMMA_2 / GAMMA_E
        s = k ** (-2.0 / 3.0)
        base = toy_lattice(1.2e-9, 0.8)
        contracted = LatticeModel(
            cell=base.cell * s, sites=base.sites, field_dir=base.field_dir,
            cutoff=base.cutoff * s,
        )
        got = solve_tau_self_consistent(base, ELECTRON_SPEC, gamma_e=self.GAMMA_2)
        want = solve_tau_self_consistent(contracted, ELECTRON_SPEC)
        assert got.tau_e == pytest.approx(want.tau_e, rel=1e-9)
        assert got.tau_e != pytest.approx(
            solve_tau_self_consistent(base, ELECTRON_SPEC).tau_e, rel=1e-2
        )

