import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbath.constants import G_E, GAMMA_E, GAUSS_TO_TESLA, TWO_PI
from spinbath.errors import DimensionError
from spinbath.spinmodel import (
    CU_ISOTOPES,
    CU_TENSOR,
    N_TENSOR,
    HyperfineTensor,
    SpinSystemSpec,
    build_hamiltonian,
    isotope_family_spectrum,
    rotate_tensor,
    spin_operators,
    transition_spectrum,
)

from helpers import complex_kron_hamiltonian, two_product_spectrum


def default_spec(b_gauss=461.0, theta_deg=43.05, **kw):
    return SpinSystemSpec(
        b_field=b_gauss * GAUSS_TO_TESLA,
        theta_e=math.radians(theta_deg),
        g_parallel=2.16,
        g_perp=2.04,
        **kw,
    )


class TestSpinOperators:
    def test_spin_half_commutator(self):
        sx, sy, sz = spin_operators(0.5)
        assert np.allclose(sx @ sy - sy @ sx, 1j * sz)

    def test_casimir(self):
        for s in (0.5, 1.0, 1.5):
            sx, sy, sz = spin_operators(s)
            c = sx @ sx + sy @ sy + sz @ sz
            assert np.allclose(c, s * (s + 1) * np.eye(int(2 * s + 1)))

    def test_rotate_tensor_identity_at_zero(self):
        t = HyperfineTensor.from_mhz(57.0, 45.0, 45.0)
        assert np.allclose(rotate_tensor(t, 0.0), np.diag(t.principal_values()))

    def test_rotate_tensor_pi_periodic(self):
        """A diagonal tensor is invariant under a pi rotation about y."""
        t = HyperfineTensor.from_mhz(-83.0, -83.0, -648.0)
        assert np.allclose(rotate_tensor(t, 0.3), rotate_tensor(t, 0.3 + math.pi))


class TestHamiltonian:
    def test_hilbert_dimension_648(self):
        spec = default_spec()
        assert spec.hilbert_dimension() == 648
        h = build_hamiltonian(spec)
        assert h.shape == (648, 648)

    def test_real_symmetric(self):
        h = build_hamiltonian(default_spec())
        assert h.dtype == np.float64
        assert np.allclose(h, h.T)

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            build_hamiltonian(default_spec(), dim_cap=100)

    def test_free_electron_splitting(self):
        """Zeroed hyperfine: all transition weight sits at +/- gamma B."""
        spec = SpinSystemSpec(
            b_field=461.0 * GAUSS_TO_TESLA,
            theta_e=0.3,
            g_parallel=2.0,
            g_perp=2.0,
            cu_tensor=HyperfineTensor.from_mhz(0.0, 0.0, 0.0),
            n_nitrogens=0,
        )
        comp = transition_spectrum(spec)
        omega0 = GAMMA_E * (2.0 / G_E) * spec.b_field
        np.testing.assert_allclose(np.abs(comp.omega), omega0, rtol=1e-8)
        plus = comp.omega > 0
        np.testing.assert_allclose(comp.eta[plus].sum(), 0.25, rtol=1e-8)
        np.testing.assert_allclose(comp.eta[~plus].sum(), 0.25, rtol=1e-8)


#: (isotope index, nitrogens, theta_e, B in tesla): both isotopes, 0-4
#: nitrogens, theta_e at 0, pi/2 and off-axis, zero and nonzero field.
ORACLE_SPECS = [
    (iso, n, theta, b)
    for iso in (0, 1)
    for n, theta, b in (
        (0, 0.0, 0.0),
        (1, math.pi / 2, 0.0372),
        (2, 0.7312, 0.0),
        (3, 0.0, 0.0721),
        (4, math.pi / 2, 0.0),
        (4, 1.1893, 0.0461),
    )
]


@pytest.mark.parametrize("iso, n_nitrogens, theta, b", ORACLE_SPECS)
def test_real_path_matches_complex_kron_oracle(iso, n_nitrogens, theta, b):
    """The real block H and its one-product S_x match the complex-kron path."""
    spec = SpinSystemSpec(
        b_field=b,
        theta_e=theta,
        g_parallel=2.16,
        g_perp=2.04,
        isotope=CU_ISOTOPES[iso],
        n_nitrogens=n_nitrogens,
    )
    h = build_hamiltonian(spec)
    h_ref = complex_kron_hamiltonian(spec)
    assert h.dtype == np.float64
    assert np.abs(h - h_ref).max() <= 1e-14 * np.abs(h_ref).max()

    comp = transition_spectrum(spec)
    omega, eta, sum_all, static, pruned = two_product_spectrum(spec)
    np.testing.assert_array_equal(comp.omega, omega)
    np.testing.assert_allclose(comp.eta, eta, rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        [comp.eta_sum_all, comp.eta_static, comp.eta_pruned],
        [sum_all, static, pruned],
        rtol=0,
        atol=1e-15,
    )


class TestTransitionSpectrum:
    def test_trace_identity_default(self):
        comp = transition_spectrum(default_spec())
        assert abs(comp.eta_sum_all - 0.5) < 1e-10

    @settings(max_examples=6, deadline=None)
    @given(
        b=st.floats(50.0, 1200.0),
        theta=st.floats(0.0, math.pi / 2),
        axx=st.floats(-700.0, 700.0),
        azz=st.floats(-700.0, 700.0),
    )
    def test_trace_identity_random_specs(self, b, theta, axx, azz):
        """sum_ij |<i|S_x|j>|^2 / M = 1/2 for any field/orientation/tensor."""
        spec = SpinSystemSpec(
            b_field=b * GAUSS_TO_TESLA,
            theta_e=theta,
            g_parallel=2.16,
            g_perp=2.04,
            cu_tensor=HyperfineTensor.from_mhz(axx, axx, azz),
        )
        comp = transition_spectrum(spec)
        assert abs(comp.eta_sum_all - 0.5) < 1e-10

    def test_eta_nonnegative_and_budget(self):
        comp = transition_spectrum(default_spec())
        assert np.all(comp.eta >= 0.0)
        assert comp.eta_pruned < 1e-6
        assert 0.0 < comp.eta_static < 0.25
        # kept + static + pruned = full trace budget
        total = comp.eta.sum() + comp.eta_static + comp.eta_pruned
        np.testing.assert_allclose(total, comp.eta_sum_all, rtol=1e-10)

    def test_spectrum_antisymmetric_in_omega(self):
        """eta(omega) = eta(-omega): ordered pairs come in mirrored pairs."""
        comp = transition_spectrum(default_spec())
        order_pos = np.argsort(comp.omega[comp.omega > 0])
        order_neg = np.argsort(-comp.omega[comp.omega < 0])
        np.testing.assert_allclose(
            comp.omega[comp.omega > 0][order_pos],
            -comp.omega[comp.omega < 0][order_neg],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            comp.eta[comp.omega > 0][order_pos],
            comp.eta[comp.omega < 0][order_neg],
            rtol=1e-9,
        )


class TestIsotopeFamily:
    def test_abundance_weighting(self):
        family = isotope_family_spectrum(default_spec())
        assert len(family.components) == 2
        labels = {c.isotope.label for c in family.components}
        assert labels == {"63Cu", "65Cu"}
        omega, weight = family.merged()
        total = sum(c.isotope.abundance * c.eta.sum() for c in family.components)
        np.testing.assert_allclose(weight.sum(), total, rtol=1e-12)

    def test_heavier_isotope_stretches_extremes(self):
        family = isotope_family_spectrum(default_spec())
        by_label = {c.isotope.label: c for c in family.components}
        w63 = np.max(np.abs(by_label["63Cu"].omega))
        w65 = np.max(np.abs(by_label["65Cu"].omega))
        assert w65 > w63

    def test_merged_lengths_match(self):
        family = isotope_family_spectrum(default_spec())
        omega, weight = family.merged()
        assert omega.shape == weight.shape
        assert omega.size == sum(c.omega.size for c in family.components)


def test_nitrogen_tensor_alternation():
    """Neighbouring nitrogens carry in-plane-swapped tensors."""
    swapped = N_TENSOR.swapped_inplane()
    pv, sv = N_TENSOR.principal_values(), swapped.principal_values()
    assert pv[0] == sv[1] and pv[1] == sv[0] and pv[2] == sv[2]


def test_cu_tensor_values():
    np.testing.assert_allclose(
        CU_TENSOR.principal_values() / TWO_PI / 1e6, [-83.0, -83.0, -648.0]
    )


def test_isotope_table():
    labels = [(i.label, i.abundance, i.scale) for i in CU_ISOTOPES]
    assert labels == [("63Cu", 0.6915, 1.0), ("65Cu", 0.3085, 1.07)]
