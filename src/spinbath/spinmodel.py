"""CuPc electron-nuclear spin Hamiltonian and hyperfine transition spectrum.

The central spin is the Cu(II) electron (S = 1/2) coupled to the copper
nucleus (I = 3/2) and the four coordinating nitrogens (I = 1), giving a
Hilbert space of dimension 2 * 4 * 3^4 = 648 = 2M.  Diagonalizing the
Hamiltonian yields the transition frequencies omega_ij = omega_i - omega_j
and weights eta_ij = |<psi_i|S_perp|psi_j>|^2 / M that parameterize the
bath autocorrelation.

The nitrogens come in two equivalent pairs, (0, 2) with tensor T and
(1, 3) with the in-plane-swapped T'.  H has no N-N coupling and no nuclear
Zeeman term, so it depends on each pair only through the pair's total spin
I_a, I_b in {0, 1, 2}, and both I_a^2 and I_b^2 commute with H.  Since
1 (x) 1 = 0 (+) 1 (+) 2 with every total spin once, H splits exactly into
nine (I_a, I_b) blocks of 8 (2 I_a + 1)(2 I_b + 1) states (200, 2 x 120,
72, 2 x 40, 2 x 24 and 8), and `transition_spectrum` diagonalizes those
instead of the 648 x 648 matrix.

Conventions
-----------
* The lab frame has z along the applied field (the NV axis); the molecular
  axis is tilted by theta_e toward +x, i.e. tensors are rotated by
  R_y(theta_e) with R_y = [[c,0,s],[0,1,0],[-s,0,c]].
* S_perp = S_x in the lab frame; eta sums run over ordered pairs (i, j),
  i != j, so the spectrum contains both +omega and -omega entries.
* All frequencies are angular (rad/s).  Hyperfine constants are supplied
  in MHz at the config boundary and converted on ingest.
* H is real by construction: every tensor is diagonal in a frame tilted
  about y, so S_y meets only I_y and their two factors of i cancel.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR, MU_B
from .errors import DimensionError, SpectrumError

DEFAULT_ETA_FLOOR = 1e-12
DEFAULT_DIM_CAP = 4096
# Transitions between states closer than this (rad/s) count as degenerate
# and are folded into the static bin together with the diagonal pairs.
DEGENERACY_FLOOR = 2.0 * np.pi * 1.0
#: Line-bin width (rad/s) of the list that S_e, G(t), the estimator's
#: θ-cache and the tau_ee solver share: 2π × 1 MHz.  Against the raw line
#: sum, S_e(ω_NV) at the shipped fields and θ_e = 0°/43°/90° stays within
#: 2.5e-6 relative for τ_e ≤ 3.1 ns.  The error grows with τ_e, as the
#: Lorentzians narrow towards the bin width: 3.1e-5 at 10 ns, 1.6e-4 at
#: 30 ns and 9.9e-4 at 100 ns, the top of the default fit box.
DEFAULT_BIN = 2.0 * np.pi * 1e6


@dataclass(frozen=True)
class HyperfineTensor:
    """Diagonal hyperfine tensor in the molecular principal frame (rad/s)."""

    axx: float
    ayy: float
    azz: float

    @classmethod
    def from_mhz(cls, axx: float, ayy: float, azz: float) -> "HyperfineTensor":
        f = 2.0 * np.pi * 1e6
        return cls(axx * f, ayy * f, azz * f)

    def scaled(self, factor: float) -> "HyperfineTensor":
        return HyperfineTensor(self.axx * factor, self.ayy * factor, self.azz * factor)

    def principal_values(self) -> np.ndarray:
        return np.array([self.axx, self.ayy, self.azz], dtype=float)

    def swapped_inplane(self) -> "HyperfineTensor":
        """Principal frame rotated 90 deg about the molecular axis (x <-> y)."""
        return HyperfineTensor(self.ayy, self.axx, self.azz)


@dataclass(frozen=True)
class Isotope:
    label: str
    abundance: float
    scale: float  # hyperfine scale factor relative to the reference (63Cu) tensor
    spin: float = 1.5


#: Natural-abundance copper isotope table; 65Cu couplings scale with its
#: larger nuclear gyromagnetic ratio.
CU_ISOTOPES: tuple[Isotope, ...] = (
    Isotope("63Cu", 0.6915, 1.0, 1.5),
    Isotope("65Cu", 0.3085, 1.07, 1.5),
)

#: Reference hyperfine tensors (63Cu).  The nitrogen unique axis lies along
#: the in-plane Cu-N bond.
CU_TENSOR = HyperfineTensor.from_mhz(-83.0, -83.0, -648.0)
N_TENSOR = HyperfineTensor.from_mhz(57.0, 45.0, 45.0)


@dataclass(frozen=True)
class SpinSystemSpec:
    """One CuPc electron spin at a given field and molecular orientation."""

    b_field: float  # tesla
    theta_e: float  # radians, molecular axis vs. field
    g_parallel: float
    g_perp: float
    cu_tensor: HyperfineTensor = CU_TENSOR
    n_tensor: HyperfineTensor = N_TENSOR
    isotope: Isotope = CU_ISOTOPES[0]
    n_spin: float = 1.0
    n_nitrogens: int = 4

    def __post_init__(self) -> None:
        if self.b_field < 0:
            raise ValueError("b_field must be >= 0")
        if not 0.0 <= self.theta_e <= np.pi / 2 + 1e-12:
            raise ValueError("theta_e must lie in [0, pi/2]")
        # a class of three equivalent nitrogens would carry total-spin
        # multiplicities that the (I_a, I_b) blocks do not weight
        if not 0 <= self.n_nitrogens <= 4:
            raise ValueError("n_nitrogens must lie in [0, 4]")
        for s in (self.isotope.spin, self.n_spin):
            if s < 0 or abs(2 * s - round(2 * s)) > 1e-9:
                raise ValueError(f"invalid spin quantum number {s}")

    def with_isotope(self, isotope: Isotope) -> "SpinSystemSpec":
        return replace(self, isotope=isotope)

    def hilbert_dimension(self) -> int:
        dim_cu = int(round(2 * self.isotope.spin + 1))
        dim_n = int(round(2 * self.n_spin + 1))
        return 2 * dim_cu * dim_n**self.n_nitrogens


@dataclass(frozen=True)
class IsotopeSpectrum:
    """Transition list for a single isotope at fixed (B, theta_e)."""

    isotope: Isotope
    omega: np.ndarray  # rad/s, ordered pairs (both signs present)
    eta: np.ndarray  # dimensionless weights, same length as omega
    m_states: int  # M = half the Hilbert dimension
    eta_sum_all: float  # sum of eta over ALL ordered pairs incl. diagonal
    eta_static: float  # diagonal + degenerate weight folded out of the list
    eta_pruned: float  # weight removed by the eta floor

    def __post_init__(self) -> None:
        if np.any(self.eta < 0):
            raise ValueError("eta weights must be nonnegative")


@dataclass(frozen=True)
class TransitionSpectrum:
    """Abundance-weighted family of isotope spectra."""

    components: tuple[IsotopeSpectrum, ...]

    def __post_init__(self) -> None:
        total = sum(c.isotope.abundance for c in self.components)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"isotope abundances sum to {total}, expected 1")

    def merged(self) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated (omega, abundance*eta) arrays over all isotopes."""
        omega = np.concatenate([c.omega for c in self.components])
        weight = np.concatenate(
            [c.isotope.abundance * c.eta for c in self.components]
        )
        return omega, weight

    def binned(self, bin_width: float = DEFAULT_BIN) -> tuple[np.ndarray, np.ndarray]:
        """merged() lines in weight-conserving bins at their weighted means.

        Bin k holds the lines with round(ω / bin_width) = k; the bins come
        out in ascending k.  Each component's ω is sorted, so its bins are
        runs and are summed in place.  The short per-component bin lists
        are then merged by a stable sort on k, which also joins the repeated
        runs of a component that is not sorted.
        """
        runs = []
        for c in self.components:
            weight = c.isotope.abundance * c.eta
            idx = np.round(c.omega / bin_width).astype(np.int64)
            runs.append(_sum_runs(idx, weight, c.omega * weight))
        idx, weight, moment = (np.concatenate(parts) for parts in zip(*runs))
        order = np.argsort(idx, kind="stable")
        _, w_out, m_out = _sum_runs(idx[order], weight[order], moment[order])
        return m_out / w_out, w_out


def _sum_runs(idx: np.ndarray, *values: np.ndarray) -> tuple[np.ndarray, ...]:
    """(index of each run of equal `idx`, then each of `values` summed per run)."""
    starts = np.flatnonzero(np.diff(idx, prepend=idx[:1] - 1))
    return idx[starts], *(np.add.reduceat(v, starts) for v in values)


def spin_operators(spin: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (Sx, Sy, Sz) for a single spin in the |s, m> basis, m descending."""
    dim = int(round(2 * spin + 1))
    m = spin - np.arange(dim)
    sz = np.diag(m).astype(complex)
    # <m+1|S+|m> = sqrt(s(s+1) - m(m+1))
    raise_elems = np.sqrt(spin * (spin + 1) - m[1:] * (m[1:] + 1))
    sp = np.zeros((dim, dim), dtype=complex)
    sp[np.arange(dim - 1), np.arange(1, dim)] = raise_elems
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    return sx, sy, sz


@functools.lru_cache(maxsize=None)
def _real_spin_operators(spin: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only real (Sx, Im Sy, Sz) of `spin_operators`, cached per spin."""
    sx, sy, sz = spin_operators(spin)
    ops = sx.real.copy(), sy.imag.copy(), sz.real.copy()
    for op in ops:
        op.flags.writeable = False
    return ops


def rotation_about_y(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotate_tensor(t: HyperfineTensor, theta_e: float) -> np.ndarray:
    """Lab-frame tensor R(theta_e) diag(axx, ayy, azz) R(theta_e)^T.

    R tilts the molecular axis by theta_e from the lab z-axis toward +x,
    so the xz entry of a tilted axial tensor is positive.
    """
    r = rotation_about_y(theta_e)
    return r @ np.diag(t.principal_values()) @ r.T


def _g_tensor_lab(spec: SpinSystemSpec) -> np.ndarray:
    r = rotation_about_y(spec.theta_e)
    g_mol = np.diag([spec.g_perp, spec.g_perp, spec.g_parallel])
    return r @ g_mol @ r.T


def _lab_hyperfine_tensors(spec: SpinSystemSpec) -> list[tuple[float, np.ndarray]]:
    """(nuclear spin, lab-frame 3x3 tensor) for Cu then each nitrogen.

    The four nitrogens share principal values but their in-plane unique
    axis follows the molecular four-fold symmetry: successive nitrogens
    have the principal frame rotated by 90 deg about the molecular axis,
    which swaps the x and y principal values.
    """
    cu = spec.cu_tensor.scaled(spec.isotope.scale)
    out = [(spec.isotope.spin, rotate_tensor(cu, spec.theta_e))]
    for k in range(spec.n_nitrogens):
        t = spec.n_tensor if k % 2 == 0 else spec.n_tensor.swapped_inplane()
        out.append((spec.n_spin, rotate_tensor(t, spec.theta_e)))
    return out


def _assemble_hamiltonian(
    spec: SpinSystemSpec, sites: list[tuple[float, np.ndarray]]
) -> np.ndarray:
    """Real symmetric H of the electron coupled to `sites`, (spin, lab tensor) pairs.

    H = sum_mu S_mu (x) B_mu.  The lab tensors have no xy/yz entries and the
    Zeeman row no y entry, so B_y = sum a_yy I_y = i C_y with the real C_y =
    sum a_yy Im(I_y); with S = sigma/2 the electron (up, down) blocks are
    H = 1/2 [[B_z, B_x + C_y], [B_x - C_y, -B_z]], real for every spec.
    """
    n = int(np.prod([int(round(2 * s + 1)) for s, _ in sites]))
    zeeman_row = (MU_B * spec.b_field / HBAR) * _g_tensor_lab(spec)[2, :]
    b = np.zeros((3, n, n))  # B_x, C_y, B_z
    diagonal = np.einsum("kii->ki", b)  # writable view
    diagonal[0], diagonal[2] = zeeman_row[0], zeeman_row[2]
    after = n  # dimension of the nuclei after the current site
    for s_nuc, a in sites:
        ix, iy, iz = _real_spin_operators(s_nuc)
        d = ix.shape[0]
        after //= d
        before = n // (after * d)
        local = np.stack([a[0, 0] * ix + a[0, 2] * iz, a[1, 1] * iy, a[2, 0] * ix + a[2, 2] * iz])
        # 1 (x) local (x) 1 for all three terms at once: the entries
        # [k, (i,p,x), (i,q,x)] of b, in the index order of np.kron, as a view
        block = np.einsum("kipxiqx->kipqx", b.reshape(3, before, d, after, before, d, after))
        block += local[:, None, :, :, None]
    b_x, c_y, b_z = b
    h = np.empty((2 * n, 2 * n))
    np.multiply(b_z, 0.5, out=h[:n, :n])
    np.multiply(b_x + c_y, 0.5, out=h[:n, n:])
    np.multiply(b_x - c_y, 0.5, out=h[n:, :n])
    np.multiply(b_z, -0.5, out=h[n:, n:])
    return h


def _check_dimension(spec: SpinSystemSpec, dim_cap: int) -> int:
    dim = spec.hilbert_dimension()
    if dim > dim_cap:
        raise DimensionError(
            f"Hilbert dimension {dim} exceeds cap {dim_cap}; "
            "check nuclear spin counts"
        )
    return dim


def build_hamiltonian(spec: SpinSystemSpec, dim_cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """Dense real symmetric Hamiltonian in rad/s: electron Zeeman plus S.A.I.

    The full product space of Cu and every nitrogen, in the site order of
    `_lab_hyperfine_tensors`; `transition_spectrum` diagonalizes the same H
    block by block instead (see `_block_site_lists`).
    """
    _check_dimension(spec, dim_cap)
    return _assemble_hamiltonian(spec, _lab_hyperfine_tensors(spec))


def _block_site_lists(spec: SpinSystemSpec) -> list[list[tuple[float, np.ndarray]]]:
    """One site list per (I_a, I_b) block of H: Cu, then one pseudo-site per class.

    The nitrogens fall into two classes by the tensor they are given: even
    indices carry T, odd ones the in-plane-swapped T'.  H has no N-N term and
    no nuclear Zeeman term, so it sees a class only through its total spin
    I = sum of its members' spins, and I^2 of each class is conserved.  Two
    spins s couple to I = 0, 1, ..., 2s, each exactly once, so each block is
    the Hamiltonian of Cu plus one spin-I nucleus per class with the class
    tensor.  A class of three or more would carry multiplicities, which is
    why `SpinSystemSpec` admits at most four nitrogens.
    """
    cu, *nitrogens = _lab_hyperfine_tensors(spec)
    choices = []
    for members in (nitrogens[0::2], nitrogens[1::2]):
        if not members:
            continue
        s, a = members[0]
        totals = np.arange(2 * s + 1) if len(members) == 2 else [s]
        choices.append([(float(i), a) for i in totals])
    return [[cu, *combo] for combo in itertools.product(*choices)]


def transition_spectrum(
    spec: SpinSystemSpec,
    eta_floor: float = DEFAULT_ETA_FLOOR,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> IsotopeSpectrum:
    """Diagonalize the spin Hamiltonian and list (omega_ij, eta_ij) pairs.

    H is block-diagonal in the total spins I_a, I_b of the two equivalent
    nitrogen pairs (`_block_site_lists`): at most nine blocks, of 8(2I_a+1)
    (2I_b+1) states for the CuPc spec, each diagonalized on its own.  The
    split is exact, since H has no N-N and no nuclear Zeeman term and the
    members of a pair share one lab tensor.  S_x acts on the electron only,
    so it does not couple blocks and every cross-block pair has eta = 0; only
    pairs inside a block are listed.  Weights are normalized by M = half the
    full dimension, so the trace identity sum eta = 1/2 holds over all blocks.

    Ordered pairs i != j are returned sorted by omega; diagonal pairs and
    transitions between degenerate states go to the static bin, and pairs
    with eta below `eta_floor` are pruned (their weight is tallied so the
    trace identity can still be audited).
    """
    m_states = _check_dimension(spec, dim_cap) // 2
    omegas, etas = [], []
    eta_sum_all = eta_static = eta_pruned = 0.0
    for sites in _block_site_lists(spec):
        h = _assemble_hamiltonian(spec, sites)
        try:
            evals, evecs = np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
            raise SpectrumError(f"eigensolver failed: {exc}") from exc

        dim = h.shape[0]
        # S_x = 1/2 [[0, 1], [1, 0]] on the electron blocks, so with the
        # eigenvectors split into their up/down halves, <i|S_x|j> = (A + A^T)/2
        a = evecs[: dim // 2].T @ evecs[dim // 2 :]
        eta_mat = (0.5 * (a + a.T)) ** 2 / m_states
        eta_sum_all += float(eta_mat.sum())

        omega_mat = evals[:, None] - evals[None, :]
        off = ~np.eye(dim, dtype=bool)
        oscillating = off & (np.abs(omega_mat) >= DEGENERACY_FLOOR)
        eta_static += float(eta_mat[~oscillating].sum())

        keep = oscillating & (eta_mat >= eta_floor)
        eta_pruned += float(eta_mat[oscillating & ~keep].sum())
        omegas.append(omega_mat[keep])
        etas.append(eta_mat[keep])

    omega = np.concatenate(omegas)
    eta = np.concatenate(etas)
    order = np.argsort(omega)
    return IsotopeSpectrum(
        isotope=spec.isotope,
        omega=np.ascontiguousarray(omega[order]),
        eta=np.ascontiguousarray(eta[order]),
        m_states=m_states,
        eta_sum_all=eta_sum_all,
        eta_static=eta_static,
        eta_pruned=eta_pruned,
    )


def isotope_family_spectrum(
    spec: SpinSystemSpec,
    isotopes: tuple[Isotope, ...] = CU_ISOTOPES,
    eta_floor: float = DEFAULT_ETA_FLOOR,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> TransitionSpectrum:
    """Transition spectra for every isotope in the table, abundance-weighted.

    The copper tensor of `spec` is the reference; each isotope applies its
    own hyperfine scale factor on top.
    """
    components = tuple(
        transition_spectrum(spec.with_isotope(iso), eta_floor=eta_floor, dim_cap=dim_cap)
        for iso in isotopes
    )
    return TransitionSpectrum(components=components)
