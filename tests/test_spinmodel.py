import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbath.constants import G_E, GAMMA_E, GAUSS_TO_TESLA, TWO_PI
from spinbath.spinmodel import (
    CU_ISOTOPES,
    CU_TENSOR,
    DEFAULT_BIN,
    DEFAULT_ETA_FLOOR,
    DEGENERACY_FLOOR,
    N_SPIN,
    N_TENSOR,
    HyperfineTensor,
    Isotope,
    IsotopeSpectrum,
    SpinSystemSpec,
    TransitionSpectrum,
    _assemble_hamiltonian,
    _block_site_lists,
    _lab_hyperfine_tensors,
    build_hamiltonian,
    isotope_family_spectrum,
    rotate_tensor,
    spin_operators,
    transition_spectrum,
)

from helpers import (
    broadcast_assembled_hamiltonian,
    complex_kron_hamiltonian,
    line_sum,
    one_isotope_family,
    oracle_family,
    sort_binned,
)


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

    def test_free_electron_splitting(self):
        """Zeroed hyperfine: all transition weight, 1/4 + 1/4, sits at gamma B."""
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
        np.testing.assert_allclose(comp.omega, omega0, rtol=1e-8)
        np.testing.assert_allclose(comp.eta.sum(), 0.25 + 0.25, rtol=1e-8)


@pytest.mark.parametrize("b_gauss", [0.0, 231.0, 461.0, 721.0])
def test_in_place_assembly_matches_broadcast_bytes(b_gauss):
    """Every block and the full space equal the broadcast assembly, byte for byte.

    `tobytes()` equality also pins the sign of every zero entry.
    """
    for theta_deg in (0.0, 0.3, 43.0, 90.0):
        for iso in CU_ISOTOPES:
            spec = default_spec(b_gauss, theta_deg, isotope=iso)
            site_lists = [*_block_site_lists(spec), _lab_hyperfine_tensors(spec)]
            assert len(site_lists) == 10
            for sites in site_lists:
                got = _assemble_hamiltonian(spec, sites)
                want = broadcast_assembled_hamiltonian(spec, sites)
                assert got.tobytes() == want.tobytes(), (theta_deg, iso.label)


def test_in_place_assembly_values_with_g_parallel_below_g_perp():
    """With g_par < g_perp the Zeeman x term is negative: equal values.

    There the broadcast assembly leaves some zeros negative; only their
    sign differs.
    """
    spec = replace(default_spec(461.0, 40.0), g_parallel=1.9, g_perp=2.1)
    for sites in _block_site_lists(spec):
        np.testing.assert_array_equal(
            _assemble_hamiltonian(spec, sites), broadcast_assembled_hamiltonian(spec, sites)
        )


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


def assert_matches_dense_oracle(spec):
    """transition_spectrum against the dense complex-kron `two_product_spectrum`.

    With at most two nitrogens H is a single block, so the lists are the
    dense ones bit for bit.  Beyond that the blocks reorder the floating-point
    work, and the comparison depends on the point:
    * generic: the same bins, weights to 3e-15 per ordered pair and centres
      to 1e-12 max|omega| (measured <= 8e-14 max|omega|).  A line carries
      the weight of its two ordered pairs, so a bin's weight and its error
      are twice those of the ordered-pair list: 6e-15 per bin (measured
      <= 3.9e-15, 1.93e-15 per ordered pair);
    * exactly degenerate (B = 0 or theta_e = 0): the dense eigh mixes states
      across blocks and spreads eta over more pairs (at B = 0, theta_e = 0,
      20 495 lines against 11 422), so the floor prunes a different ~1e-9 of
      weight.  There S(omega) over the line range agrees to 1e-8 of its
      maximum at tau_e = 0.1 ... 100 ns (measured <= 3.6e-9), and eta_pruned
      to 5e-9 (measured <= 9.5e-10).
    Sum eta and the static weight do not depend on the basis chosen inside a
    degenerate subspace; they agree to 1e-15 everywhere.
    """
    comp = transition_spectrum(spec)
    oracle, sum_all, static, pruned = oracle_family(spec)
    ref = oracle.components[0]
    if spec.n_nitrogens <= 2:
        np.testing.assert_array_equal(comp.omega, ref.omega)
        np.testing.assert_allclose(comp.eta, ref.eta, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            [comp.eta_sum_all, comp.eta_static, comp.eta_pruned],
            [sum_all, static, pruned],
            rtol=0,
            atol=1e-15,
        )
        return

    np.testing.assert_allclose(
        [comp.eta_sum_all, comp.eta_static], [sum_all, static], rtol=0, atol=1e-15
    )
    if spec.b_field == 0.0 or spec.theta_e == 0.0:
        assert abs(comp.eta_pruned - pruned) <= 5e-9
        lo = min(comp.omega[0], ref.omega[0])
        hi = max(comp.omega[-1], ref.omega[-1])
        grid = np.linspace(lo, hi, 801)
        for tau in (1e-10, 1e-9, 1e-8, 1e-7):
            s = line_sum(comp.omega, comp.eta, grid, tau)
            s_ref = line_sum(ref.omega, ref.eta, grid, tau)
            assert np.abs(s - s_ref).max() <= 1e-8 * s_ref.max()
    else:
        assert abs(comp.eta_pruned - pruned) <= 1e-15
        centres, weights = one_isotope_family(comp).binned()
        ref_centres, ref_weights = oracle.binned()
        assert centres.size == ref_centres.size
        np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=2 * 3e-15)
        np.testing.assert_allclose(
            centres, ref_centres, rtol=0, atol=1e-12 * np.abs(ref.omega).max()
        )


@pytest.mark.parametrize("iso, n_nitrogens, theta, b", ORACLE_SPECS)
def test_real_path_matches_complex_kron_oracle(iso, n_nitrogens, theta, b):
    """The real H matches the complex-kron H; its spectrum, the dense oracle's."""
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
    assert_matches_dense_oracle(spec)


FIELDS_GAUSS = (231.0, 372.0, 461.0, 721.0)


@pytest.mark.parametrize(
    "b_gauss, theta_deg, n_nitrogens",
    # generic points: the shipped fields x three orientations, and three
    # nitrogens, where the pairs differ (two with T, one with T')
    [(b, th, 4) for b in FIELDS_GAUSS for th in (math.degrees(0.3), 43.0, 90.0)]
    + [(461.0, 43.0, 3), (231.0, 70.0, 3)]
    # exactly degenerate: theta-node 0 of every cache, and zero field
    + [(b, 0.0, 4) for b in (0.0, *FIELDS_GAUSS)],
)
def test_blocks_match_dense_oracle(b_gauss, theta_deg, n_nitrogens):
    assert_matches_dense_oracle(default_spec(b_gauss, theta_deg, n_nitrogens=n_nitrogens))


def _pair_casimir(spec, members):
    """(I_k + I_l + ...)^2 for the listed nitrogens, on the full product space."""
    dims = [2] + [int(round(2 * s + 1)) for s, _ in _lab_hyperfine_tensors(spec)]
    casimir = 0.0
    for op in spin_operators(N_SPIN):
        total = 0.0
        for k in members:
            factors = [op if site == 2 + k else np.eye(d) for site, d in enumerate(dims)]
            total = total + reduce(np.kron, factors)
        casimir = casimir + total @ total
    return casimir


def test_block_structure_premise():
    """[H, I_a^2] = [H, I_b^2] = 0, and the blocks hold the dense spectrum."""
    spec = default_spec()
    h = build_hamiltonian(spec)
    scale = np.abs(h).max()
    for members in ((0, 2), (1, 3)):
        c = _pair_casimir(spec, members)
        assert np.abs(h @ c - c @ h).max() <= 1e-14 * scale

    blocks = [_assemble_hamiltonian(spec, sites) for sites in _block_site_lists(spec)]
    assert sorted(b.shape[0] for b in blocks) == [8, 24, 24, 40, 40, 72, 120, 120, 200]
    evals = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
    dense = np.linalg.eigvalsh(h)
    assert np.abs(evals - dense).max() <= 1e-13 * np.abs(dense).max()


def test_nitrogen_count_capped_at_four():
    """A class of three equivalent nitrogens would carry multiplicities."""
    with pytest.raises(ValueError, match="n_nitrogens"):
        default_spec(n_nitrogens=5)
    with pytest.raises(ValueError, match="n_nitrogens"):
        default_spec(n_nitrogens=-1)


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

    @pytest.mark.parametrize("b_gauss, theta_deg", [(461.0, 43.05), (231.0, 0.0)])
    def test_lines_are_folded_ordered_pairs(self, b_gauss, theta_deg):
        """Every line has omega > 0 and the weight eta_ij + eta_ji of its two pairs.

        The oracle lists the ordered pairs of each block with <i|S_x|j> from
        the full S_x matrix, then folds each pair at -omega onto its mirror
        at +omega.  Both sides diagonalize the same blocks, so the
        frequencies agree bit for bit.
        """
        spec = default_spec(b_gauss, theta_deg)
        comp = transition_spectrum(spec)
        assert np.all(comp.omega > 0)
        m_states = spec.hilbert_dimension() // 2
        omegas, weights = [], []
        for sites in _block_site_lists(spec):
            h = _assemble_hamiltonian(spec, sites)
            evals, evecs = np.linalg.eigh(h)
            sx = np.kron(spin_operators(0.5)[0].real, np.eye(h.shape[0] // 2))
            eta = (evecs.T @ sx @ evecs) ** 2 / m_states
            omega = evals[:, None] - evals[None, :]
            np.testing.assert_array_equal(omega, -omega.T)  # mirrored pairs
            pair = eta + eta.T
            keep = (omega >= DEGENERACY_FLOOR) & (pair >= 2.0 * DEFAULT_ETA_FLOOR)
            omegas.append(omega[keep])
            weights.append(pair[keep])
        omega, weight = np.concatenate(omegas), np.concatenate(weights)
        order = np.lexsort((weight, omega))
        got = np.lexsort((comp.eta, comp.omega))
        np.testing.assert_array_equal(comp.omega[got], omega[order])
        np.testing.assert_allclose(comp.eta[got], weight[order], rtol=0, atol=1e-15)


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


def assert_same_bins(family, bin_width):
    """binned() against the sort-based oracle: bins, centres and weights."""
    centres, weights = family.binned(bin_width)
    ref_centres, ref_weights = sort_binned(family, bin_width)
    assert centres.size == ref_centres.size
    # the same bin set: every centre rounds to the oracle's bin index
    np.testing.assert_array_equal(
        np.round(centres / bin_width), np.round(ref_centres / bin_width)
    )
    scale = np.abs(family.merged()[0]).max()
    np.testing.assert_allclose(centres, ref_centres, rtol=0, atol=1e-15 * scale)
    np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=1e-15)


class TestBinned:
    """Run-based binning against one stable sort of all merged lines."""

    @pytest.mark.parametrize("theta_deg", [0.0, 43.0, 90.0])
    @pytest.mark.parametrize("b_gauss", [231.0, 372.0, 461.0, 721.0])
    def test_matches_sort_oracle(self, b_gauss, theta_deg):
        family = isotope_family_spectrum(default_spec(b_gauss, theta_deg))
        assert_same_bins(family, DEFAULT_BIN)

    def test_unsorted_component(self):
        family = isotope_family_spectrum(default_spec(231.0, 43.0))
        rng = np.random.default_rng(5)
        first, second = family.components
        perm = rng.permutation(first.omega.size)
        shuffled = replace(first, omega=first.omega[perm], eta=first.eta[perm])
        mixed = TransitionSpectrum(components=(shuffled, second))
        assert_same_bins(mixed, DEFAULT_BIN)
        centres, weights = mixed.binned()
        assert np.all(np.diff(centres) > 0)  # one bin per index, in order
        np.testing.assert_allclose(
            weights, family.binned()[1], rtol=0, atol=1e-15
        )

    def test_one_hertz_bins(self):
        family = isotope_family_spectrum(default_spec(461.0, 43.0))
        assert_same_bins(family, 2.0 * np.pi)

    def test_line_list_memory_is_bounded(self):
        """Peak traced allocation of one binned spectrum at 461 G stays within 4 MB.

        One line per unordered pair halves every line array; the ordered-pair
        list peaked at 5.8 MB.
        """
        import tracemalloc

        spec = default_spec(461.0)
        isotope_family_spectrum(spec).binned()  # warm the operator caches
        tracemalloc.start()
        try:
            isotope_family_spectrum(spec).binned()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, peak


def _random_family(rng, n_lines=1500):
    """A hand-built two-isotope spectrum of random positive lines."""
    components = []
    for label, abundance in (("a", 0.6), ("b", 0.4)):
        omega = TWO_PI * np.sort(rng.uniform(0.01e9, 3.0e9, n_lines))
        components.append(
            IsotopeSpectrum(
                isotope=Isotope(label, abundance, 1.0),
                omega=omega,
                eta=rng.uniform(0.0, 1.0 / n_lines, n_lines),
                m_states=n_lines,
                eta_sum_all=0.5,
                eta_static=0.0,
                eta_pruned=0.0,
            )
        )
    return TransitionSpectrum(components=tuple(components))


def _flip_signs(family, rng):
    """`family` with the sign of a random half of its lines flipped."""
    return TransitionSpectrum(
        components=tuple(
            replace(c, omega=np.where(rng.random(c.omega.size) < 0.5, -c.omega, c.omega))
            for c in family.components
        )
    )


def test_fold_identity(shipped_config):
    """Every consumer of a line list is even in each line's omega.

    Flipping the sign of any subset of the lines moves S_e, G_e(t), the
    coincidence weight and the self-consistent tau_e by at most 1e-12
    relative, so listing each transition once, at omega > 0, loses nothing.
    """
    from spinbath.bathspectrum import BathSpectrumModel, autocorrelation, spectral_density
    from spinbath.eesolver import coincidence_weight, solve_tau_self_consistent

    rng = np.random.default_rng(19)
    family = _random_family(rng)
    flipped = _flip_signs(family, rng)
    assert any(np.any(c.omega < 0) for c in flipped.components)
    omega = TWO_PI * np.linspace(0.1e9, 6.0e9, 97)
    t = np.linspace(0.0, 1e-8, 300)
    lattice = shipped_config.lattice_model()
    for tau_e in (0.5e-9, 2e-9, 20e-9):
        model = BathSpectrumModel(spectrum=family, tau_e=tau_e, b0_sq=1e-9)
        model_flipped = replace(model, spectrum=flipped)
        np.testing.assert_allclose(
            spectral_density(model_flipped, omega), spectral_density(model, omega), rtol=1e-12
        )
        np.testing.assert_allclose(
            autocorrelation(model_flipped, t), autocorrelation(model, t), rtol=1e-12
        )
    for width in (TWO_PI * 10e3, TWO_PI * 5e6):
        assert coincidence_weight(flipped, width) == pytest.approx(
            coincidence_weight(family, width), rel=1e-12
        )
    assert solve_tau_self_consistent(lattice, flipped).tau_e == pytest.approx(
        solve_tau_self_consistent(lattice, family).tau_e, rel=1e-12
    )
