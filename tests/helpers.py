"""Shared synthetic-data builders and independent numeric oracles."""

from __future__ import annotations

import itertools

import numpy as np

from spinbath.bathspectrum import coupling_b0_sq, geometry_factors
from spinbath.constants import GAMMA_E
from spinbath.relaxometry import T1Record

T1_FREE = 5.0e-3  # intrinsic film-free T1 used for all synthetic records


def slab_dipolar_quadrature(d, h, n_e, alpha, n_z=96, n_rho=128, n_phi=64):
    """Quadrature oracle for the film-averaged squared dipolar couplings.

    Integrates the squared dipole-field tensor of electron moments over a
    uniform slab (film normal = z, thickness h, standoff d), with the
    probe's quantization axis tilted by `alpha` from the normal.
    Returns (var_long, var_perp) in tesla^2: the probe-transverse field
    variance sourced by the bath-spin component along the probe axis,
    and by the two bath-spin components transverse to it, for spin-1/2
    (<S_mu^2> = 1/4 per component).
    """
    from spinbath.constants import GAMMA_E, HBAR, MU_0

    pref = MU_0 * HBAR * GAMMA_E / (4.0 * np.pi)
    # probe frame: z' along the quantization axis, x' in the (normal, z')
    # plane, y' completing
    zp = np.array([np.sin(alpha), 0.0, np.cos(alpha)])
    xp = np.array([np.cos(alpha), 0.0, -np.sin(alpha)])
    yp = np.array([0.0, 1.0, 0.0])

    gl_z, wz = np.polynomial.legendre.leggauss(n_z)
    z = d + (gl_z + 1.0) * 0.5 * h
    wz = wz * 0.5 * h
    # rho = z tan(t) substitution handles the wide flat tail
    t_max = np.arctan(60.0)
    gl_t, wt = np.polynomial.legendre.leggauss(n_rho)
    t = (gl_t + 1.0) * 0.5 * t_max
    wt = wt * 0.5 * t_max
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * np.pi / n_phi

    var_long = 0.0
    var_perp = 0.0
    for iz, zi in enumerate(z):
        rho = zi * np.tan(t)  # (n_rho,)
        drho = zi / np.cos(t) ** 2 * wt
        x = rho[:, None] * np.cos(phi)[None, :]
        y = rho[:, None] * np.sin(phi)[None, :]
        r = np.sqrt(x**2 + y**2 + zi**2)
        nx, ny, nz = x / r, y / r, zi / r
        inv_r3 = pref / r**3

        def t_comp(e_mu, e_nu):
            n_mu = nx * e_mu[0] + ny * e_mu[1] + nz * e_mu[2]
            n_nu = nx * e_nu[0] + ny * e_nu[1] + nz * e_nu[2]
            return inv_r3 * (3.0 * n_mu * n_nu - float(e_mu @ e_nu))

        long_sq = t_comp(xp, zp) ** 2 + t_comp(yp, zp) ** 2
        perp_sq = (
            t_comp(xp, xp) ** 2
            + t_comp(xp, yp) ** 2
            + t_comp(yp, xp) ** 2
            + t_comp(yp, yp) ** 2
        )
        meas = (rho * drho)[:, None] * wphi * wz[iz]
        var_long += float(np.sum(long_sq * meas))
        var_perp += float(np.sum(perp_sq * meas))
    # <S_mu^2> = 1/4 for each spin-1/2 component
    return 0.25 * n_e * var_long, 0.25 * n_e * var_perp


def synth_records(
    model,
    geometry,
    tau: float,
    theta: float,
    rng: np.random.Generator,
    noise: float = 0.05,
    fields=None,
    nv_id: str = "NV1",
    d_nv: float | None = None,
    sigma_rel: float | None = None,
) -> tuple[T1Record, ...]:
    """Forward-model ΔΓ₁ at truth, add multiplicative noise, wrap as records.

    `sigma_rel` is the reported relative uncertainty; it defaults to the
    noise level but stays finite for noise = 0 (exact-data tests).
    """
    geom = geometry if d_nv is None else geometry.replace(d_nv=d_nv)
    fields = tuple(fields) if fields is not None else model.fields_gauss
    b0 = coupling_b0_sq(geom)
    idx = [model.fields_gauss.index(b) for b in fields]
    rates = model.delta_gammas(tau, theta, b0)
    if sigma_rel is None:
        sigma_rel = noise if noise > 0 else 0.03
    records = []
    for i, b in zip(idx, fields):
        dg = rates[i] * (1.0 + noise * rng.standard_normal())
        dg = max(dg, 1e-12)
        t1c = 1.0 / (dg + 1.0 / T1_FREE)
        records.append(
            T1Record(
                nv_id=nv_id,
                b_gauss=b,
                t1_cupc=t1c,
                t1_cupc_sigma=sigma_rel * t1c,
                t1_free=T1_FREE,
                t1_free_sigma=0.02 * T1_FREE,
            )
        )
    return tuple(records)


def records_to_csv(records, path) -> None:
    lines = ["nv_id,b_gauss,t1_cupc_us,t1_cupc_sigma_us,t1_free_us,t1_free_sigma_us"]
    for r in records:
        cells = (
            float(r.t1_cupc) * 1e6,
            float(r.t1_cupc_sigma) * 1e6,
            float(r.t1_free) * 1e6,
            float(r.t1_free_sigma) * 1e6,
        )
        lines.append(f"{r.nv_id},{r.b_gauss}," + ",".join(repr(c) for c in cells))
    path.write_text("\n".join(lines) + "\n")


def lindblad_correlators(omega0: float, tau: float, t_grid):
    """Spin-1/2 correlators from direct master-equation propagation.

    H = omega0 * S_z with three depolarizing channels sqrt(gamma) sigma_k
    (k = x, y, z), gamma = 1/(4 tau), so every Pauli component decays at
    1/tau.  Returns <S_k(t) S_k(0)> at the infinite-temperature state for
    k in {x, y, z}, each evaluated by exponentiating the 4x4 Liouvillian
    (column-stacking convention: vec(A rho B) = kron(B.T, A) vec(rho)).
    """
    from scipy.linalg import expm

    sx = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = 0.5 * np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    sz = 0.5 * np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    h = omega0 * sz
    gamma = 1.0 / (4.0 * tau)
    liou = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for pauli in (2 * sx, 2 * sy, 2 * sz):
        jump = np.sqrt(gamma) * pauli
        jdj = jump.conj().T @ jump
        liou += np.kron(jump.conj(), jump) - 0.5 * (
            np.kron(eye, jdj) + np.kron(jdj.T, eye)
        )
    rho_inf = eye / 2.0
    out = {}
    for key, op in (("x", sx), ("y", sy), ("z", sz)):
        v0 = (op @ rho_inf).reshape(-1, order="F")
        vals = []
        for t in np.asarray(t_grid, dtype=float):
            rho_t = (expm(liou * t) @ v0).reshape(2, 2, order="F")
            vals.append(float(np.real(np.trace(op @ rho_t))))
        out[key] = np.array(vals)
    return out


def raw_spectral_density(m, omega):
    """S_e(omega) summed over every raw line of every isotope, no binning.

    The oracle for the binned line list that `spectral_density` sums.
    """
    omega_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    f_z, f_perp = geometry_factors()

    def lor(x):
        return m.tau_e / (np.square(x * m.tau_e) + 1.0)

    out = np.zeros_like(omega_arr)
    for comp in m.spectrum.components:
        lines = np.empty_like(omega_arr)
        for lo in range(0, omega_arr.size, 256):
            block = omega_arr[lo : lo + 256, None]
            lines[lo : lo + 256] = (lor(block - comp.omega) + lor(block + comp.omega)) @ comp.eta
        out += comp.isotope.abundance * (2.0 * f_z * lor(omega_arr) + f_perp * lines)
    out *= m.b0_sq
    return out if np.ndim(omega) else float(out[0])


def line_list_tau(lattice, omega, weight, lo: float, hi: float) -> float:
    """Root of tau * rate(tau) = 1 by exact Lorentzian sums over one line list.

    rate = gamma_e^2 [qs sum_a w_a L(omega_a)
                      + ff sum_ab w_a w_b (L(omega_a - omega_b) + L(omega_a + omega_b))]
    with every pair (a, b) summed, in chunks of rows: the oracle for
    `solve_tau_self_consistent`, which sums the double sum on the bin grid.
    brentq on [lo, hi], to 1e-13 relative.
    """
    from scipy.optimize import brentq

    from spinbath.eesolver import _geometry_sums

    qs_geom, ff_geom = _geometry_sums(lattice)
    omega, weight = np.asarray(omega, dtype=float), np.asarray(weight, dtype=float)

    def lor(x, tau):
        return tau / (np.square(x * tau) + 1.0)

    def excess(tau):
        # both pair terms are symmetric in (a, b): rows [a0, a0 + 16) meet
        # each other once per order and every later line twice
        double = 0.0
        for a0 in range(0, omega.size, 16):  # 16 rows stay in cache
            rows, cols = omega[a0 : a0 + 16, None], omega[a0:]
            pairs = lor(rows - cols, tau) + lor(rows + cols, tau)
            col_w = np.where(np.arange(cols.size) < 16, 1.0, 2.0) * weight[a0:]
            double += float(weight[a0 : a0 + 16] @ (pairs @ col_w))
        rate = GAMMA_E**2 * (qs_geom * float(weight @ lor(omega, tau)) + ff_geom * double)
        return tau * rate - 1.0

    return brentq(excess, lo, hi, xtol=1e-13 * lo, rtol=1e-13)


def golden_rule_rate_quad(model, omega: float, gamma_e: float) -> float:
    """1/T1 by direct Fourier integration of the time-domain correlator.

    Evaluates gamma_e^2 * 2 * int_0^inf G_e(t) cos(omega t) dt with an
    adaptive cos-weighted quadrature after rescaling time by tau_e so the
    integrand is O(1).
    """
    from scipy.integrate import quad

    from spinbath.bathspectrum import autocorrelation

    tau = model.tau_e
    g0 = autocorrelation(model, 0.0)

    def g_scaled(u):
        return autocorrelation(model, u * tau) / g0

    val, _ = quad(
        g_scaled, 0.0, np.inf, weight="cos", wvar=omega * tau, limlst=200, limit=400
    )
    return gamma_e**2 * 2.0 * g0 * tau * val


# ---------------------------------------------------------------------------
# complex-kron oracles for the real spin Hamiltonian and its S_x elements
# ---------------------------------------------------------------------------


def complex_kron_hamiltonian(spec):
    """H = sum_mu S_mu (x) B_mu assembled from complex Kronecker products.

    The oracle for `build_hamiltonian`, which writes the same matrix as real
    electron blocks.  Every lab-tensor entry enters, zero or not, so a real
    assembly that drops or flips a term differs from this one elementwise.
    """
    from functools import reduce

    from spinbath.constants import HBAR, MU_B
    from spinbath.spinmodel import _g_tensor_lab, _lab_hyperfine_tensors, spin_operators

    nuclei = _lab_hyperfine_tensors(spec)
    dims = [int(round(2 * s + 1)) for s, _ in nuclei]
    n = int(np.prod(dims)) if dims else 1

    def nuclear_op(site, op):
        factors = [op if k == site else np.eye(d, dtype=complex) for k, d in enumerate(dims)]
        return reduce(np.kron, factors, np.eye(1, dtype=complex))

    zeeman_row = (MU_B * spec.b_field / HBAR) * _g_tensor_lab(spec)[2, :]
    b_ops = [zeeman_row[mu] * np.eye(n, dtype=complex) for mu in range(3)]
    for site, (s_nuc, a_lab) in enumerate(nuclei):
        site_ops = [nuclear_op(site, o) for o in spin_operators(s_nuc)]
        for mu in range(3):
            for nu in range(3):
                b_ops[mu] += a_lab[mu, nu] * site_ops[nu]
    return sum(np.kron(s, b) for s, b in zip(spin_operators(0.5), b_ops))


def broadcast_assembled_hamiltonian(spec, sites):
    """`_assemble_hamiltonian` by a 7-d broadcast product per site.

    The oracle for the in-place assembly: it adds every entry of each
    1 (x) local (x) 1, zeros included, and builds H with `np.block`.
    """
    from spinbath.constants import HBAR, MU_B
    from spinbath.spinmodel import _g_tensor_lab, spin_operators

    n = int(np.prod([int(round(2 * s + 1)) for s, _ in sites]))
    zeeman_row = (MU_B * spec.b_field / HBAR) * _g_tensor_lab(spec)[2, :]
    b = np.zeros((3, n, n))
    b[0], b[2] = zeeman_row[0] * np.eye(n), zeeman_row[2] * np.eye(n)
    after = n
    for s_nuc, a in sites:
        ix, iy, iz = spin_operators(s_nuc)
        ix, iy, iz = ix.real, iy.imag, iz.real
        d = ix.shape[0]
        after //= d
        local = np.stack([a[0, 0] * ix + a[0, 2] * iz, a[1, 1] * iy, a[2, 0] * ix + a[2, 2] * iz])
        eye_l, eye_r = np.eye(n // (after * d)), np.eye(after)
        b += (
            eye_l[None, :, None, None, :, None, None]
            * local[:, None, :, None, None, :, None]
            * eye_r[None, None, None, :, None, None, :]
        ).reshape(3, n, n)
    b_x, c_y, b_z = b
    return 0.5 * np.block([[b_z, b_x + c_y], [b_x - c_y, -b_z]])


def two_product_spectrum(spec, eta_floor=1e-12):
    """(omega, eta, eta_sum_all, eta_static, eta_pruned) from the dense S_x.

    The oracle for `transition_spectrum`: diagonalizes the complex-kron H
    (as a real matrix when its imaginary part vanishes, as the real path
    always gives) and takes <i|S_x|j> as V^H (S_x (x) 1) V, two full-size
    products, with the same static-bin and floor bookkeeping.  The ordered
    pairs are folded onto omega > 0: the line of i > j carries
    eta_ij + eta_ji and is kept when that is at least 2 `eta_floor`.
    """
    from spinbath.spinmodel import DEGENERACY_FLOOR, spin_operators

    h = complex_kron_hamiltonian(spec)
    if not np.any(h.imag):
        h = h.real
    evals, evecs = np.linalg.eigh(h)
    m_states = h.shape[0] // 2
    sx_full = np.kron(spin_operators(0.5)[0].real, np.eye(m_states))
    w = evecs.conj().T @ sx_full @ evecs
    eta_mat = (w.real**2 + w.imag**2) / m_states
    omega_mat = evals[:, None] - evals[None, :]
    oscillating = ~np.eye(h.shape[0], dtype=bool) & (np.abs(omega_mat) >= DEGENERACY_FLOOR)
    pair = eta_mat + eta_mat.T
    lines = oscillating & (omega_mat > 0)
    keep = lines & (pair >= 2.0 * eta_floor)
    order = np.argsort(omega_mat[keep])
    return (
        omega_mat[keep][order],
        pair[keep][order],
        float(eta_mat.sum()),
        float(eta_mat[~oscillating].sum()),
        float(pair[lines & ~keep].sum()),
    )


def one_isotope_family(comp):
    """`comp` as a TransitionSpectrum of abundance 1, so it can be `binned()`."""
    from dataclasses import replace

    from spinbath.spinmodel import TransitionSpectrum

    isotope = replace(comp.isotope, abundance=1.0)
    return TransitionSpectrum(components=(replace(comp, isotope=isotope),))


def oracle_family(spec, eta_floor=1e-12):
    """`two_product_spectrum` as a `one_isotope_family`, and its three audits.

    Returns (family, eta_sum_all, eta_static, eta_pruned).
    """
    from spinbath.spinmodel import IsotopeSpectrum

    omega, eta, sum_all, static, pruned = two_product_spectrum(spec, eta_floor)
    comp = IsotopeSpectrum(
        isotope=spec.isotope,
        omega=omega,
        eta=eta,
        m_states=spec.hilbert_dimension() // 2,
        eta_sum_all=sum_all,
        eta_static=static,
        eta_pruned=pruned,
    )
    return one_isotope_family(comp), sum_all, static, pruned


def sort_binned(family, bin_width):
    """`TransitionSpectrum.binned` by one stable sort of all merged lines.

    The oracle for the run-based binning: the same bins, each summed over
    its lines in merged order.
    """
    omega, weight = family.merged()
    idx = np.round(omega / bin_width).astype(np.int64)
    order = np.argsort(idx, kind="stable")
    _, starts = np.unique(idx[order], return_index=True)
    w_out = np.add.reduceat(weight[order], starts)
    return np.add.reduceat((omega * weight)[order], starts) / w_out, w_out


def line_sum(omega_lines, eta, omega, tau):
    """sum_l eta_l tau / ((omega - omega_l)^2 tau^2 + 1) on the grid `omega`."""
    out = np.empty(omega.size)
    for lo in range(0, omega.size, 32):
        x = (omega[lo : lo + 32, None] - omega_lines) * tau
        out[lo : lo + 32] = (tau / (x * x + 1.0)) @ eta
    return out


# ---------------------------------------------------------------------------
# per-point loop oracles for the estimator's vectorized paths
# ---------------------------------------------------------------------------


def bin_lines_loop(omega, weight, bin_width):
    """Line binning one group at a time: weight sum, weighted-mean frequency."""
    idx = np.round(omega / bin_width).astype(np.int64)
    order = np.argsort(idx, kind="stable")
    idx, omega, weight = idx[order], omega[order], weight[order]
    groups = np.split(np.arange(idx.size), np.flatnonzero(np.diff(idx)) + 1)
    w_out = np.array([weight[g].sum() for g in groups])
    o_out = np.array([float(omega[g] @ weight[g]) for g in groups]) / w_out
    return o_out, w_out


def grid_local_minima_loop(obj):
    """Strict-or-plateau local minima over edge-truncated 3 / 3x3 windows."""
    mins = []
    for idx in np.ndindex(obj.shape):
        window = tuple(slice(max(i - 1, 0), i + 2) for i in idx)
        if obj[idx] <= obj[window].min():
            mins.append(idx)
    return mins


def node_rate_unit(model, i_field, j_node, tau):
    """ΔΓ₁ for b0^2 = 1 T^2 at one cache node and one tau: a float32 dot."""
    diff, summ, w = model._cache[(i_field, j_node)]
    t = np.float32(tau)
    lines = float((1.0 / ((diff * t) ** 2 + 1.0) + 1.0 / ((summ * t) ** 2 + 1.0)) @ w)
    w_nv = model._omega_nv[i_field]
    f_z, f_perp = geometry_factors()
    central = 2.0 * f_z / ((w_nv * tau) ** 2 + 1.0)
    return model.nv.gamma_e**2 * (central + f_perp * lines) * tau


def delta_gamma_unit_loop(model, i_field, tau, theta):
    """Scalar θ interpolation between the two bracketing node rates."""
    nodes = model.theta_nodes
    theta = float(np.clip(theta, nodes[0], nodes[-1]))
    j = int(np.searchsorted(nodes, theta, side="right") - 1)
    j = min(max(j, 0), nodes.size - 2)
    frac = (theta - nodes[j]) / (nodes[j + 1] - nodes[j])
    lo = node_rate_unit(model, i_field, j, tau)
    hi = node_rate_unit(model, i_field, j + 1, tau)
    return (1.0 - frac) * lo + frac * hi


def _grid_points(grids):
    """(index, {name: value}) for every point of a landscape's named grids."""
    for idx in np.ndindex(tuple(g.size for g in grids.values())):
        yield idx, {n: float(g[i]) for (n, g), i in zip(grids.items(), idx)}


def _chi2_loop(problem, params, d_nv):
    """σ-normalized χ² at one point, with b₀² from `d_nv` and the nominal h, n_e."""
    from spinbath.bathspectrum import slab_b0_sq

    exp, sig = problem.data.delta_gammas()
    tau, theta = (
        params[n] if n in params else problem.fixed_value(n) for n in ("tau_e", "theta_e")
    )
    unit = problem.model.unit_rates(tau, theta, problem._field_indices())
    b0 = slab_b0_sq(
        d_nv, problem.fixed_value("h"), problem.fixed_value("n_e"),
        gamma_e=problem.model.nv.gamma_e,
    )
    return float(np.sum(((exp - b0 * unit) / sig) ** 2))


def landscape_loop(problem, grids):
    """Fit objective evaluated one grid point at a time, d_nv fixed."""
    obj = np.empty(tuple(g.size for g in grids.values()))
    for idx, params in _grid_points(grids):
        obj[idx] = _chi2_loop(problem, params, problem.fixed_value("d_nv"))
    return obj


def profile_loop(problem, grids, n_sweep=1001, stages=3):
    """Least χ² over a d_nv sweep of its box at each grid point, and its d_nv.

    d_nv sweeps the box at `n_sweep` evenly spaced values, ends included,
    then, `stages` − 1 times, sweeps again between the two neighbours of the
    least value; χ² is unimodal in d_nv, since it is quadratic in b₀² and
    b₀² is monotone in d_nv.  The least value found bounds the exact profile
    from above.
    """
    shape = tuple(g.size for g in grids.values())
    obj, best = np.empty(shape), np.empty(shape)
    for idx, params in _grid_points(grids):
        depths = np.linspace(*problem.box("d_nv"), n_sweep)
        for _ in range(stages):
            chi2 = [_chi2_loop(problem, params, d) for d in depths]
            k = int(np.argmin(chi2))
            obj[idx], best[idx] = chi2[k], depths[k]
            depths = np.linspace(depths[max(k - 1, 0)], depths[min(k + 1, n_sweep - 1)], n_sweep)
    return obj, best


def _box_b0_sq_range(problem, n=5):
    """Smallest and largest b₀² on an n³ mesh of the (d_nv, h, n_e) box.

    A free d_nv spans its search box.  The mesh holds the box's corners,
    but the range is read off the mesh values, not off the corners the
    monotonicity of b₀² points to.
    """
    from spinbath.bathspectrum import slab_b0_sq

    axes = []
    for name in ("d_nv", "h", "n_e"):
        if name in problem.free:
            lo, hi = problem.box(name)
        elif name in problem.fixed:
            lo, hi = problem.fixed[name][1]
        else:
            lo = hi = problem.fixed_value(name)
        axes.append(np.linspace(lo, hi, n))
    b0 = slab_b0_sq(*np.meshgrid(*axes, indexing="ij"), gamma_e=problem.model.nv.gamma_e)
    return float(b0.min()), float(b0.max())


def _kinks(exp, eps, unit):
    """b₀² where max_k |e_k − b₀² u_k| / ε_k can turn: zeros and crossings."""
    a, c = exp / eps, unit / eps
    out = [exp / unit]
    for sign in (1.0, -1.0):
        num = a[:, None] - sign * a[None, :]
        den = c[:, None] - sign * c[None, :]
        out.append(num[den != 0] / den[den != 0])
    return np.concatenate(out)


def accepted_loop(problem, grids, epsilon_scale, grid_points, n_sweep=2001):
    """Confidence acceptance one grid point and one τ_e/θ_e sample at a time.

    `grids` maps the searched names to their grids.  b₀² sweeps the box's
    range (`_box_b0_sq_range`, the whole d_nv box when d_nv is free) at
    `n_sweep` values plus the kinks of the worst record's |e − b₀² u| / ε
    inside it, where that piecewise-linear, convex function takes its
    minimum; so a window narrower than the sweep step is not missed.  A
    point is accepted when one value brings every record strictly within ε.
    A τ_e or θ_e fixed on an interval is sampled at the `grid_points` grid
    nodes inside it and at both edges.
    """
    from spinbath.estimator import _param_grid

    field_idx = problem._field_indices()
    exp, sig = problem.data.delta_gammas()
    eps = epsilon_scale * sig
    samples = {}
    for name in ("tau_e", "theta_e"):
        if name in problem.free:
            continue
        lo, hi = problem.fixed[name][1]
        grid = _param_grid(problem, name, grid_points)
        samples[name] = sorted({lo, hi, *(float(g) for g in grid if lo < g < hi)})
    b_lo, b_hi = _box_b0_sq_range(problem)
    sweep = np.linspace(b_lo, b_hi, n_sweep)
    accepted = np.zeros(tuple(g.size for g in grids.values()), dtype=bool)
    for idx, params in _grid_points(grids):
        for combo in itertools.product(*samples.values()):
            params.update(zip(samples, combo))
            unit = problem.model.unit_rates(params["tau_e"], params["theta_e"], field_idx)
            kinks = _kinks(exp, eps, unit)
            b0 = np.concatenate([sweep, kinks[(b_lo <= kinks) & (kinks <= b_hi)]])
            if np.any(np.all(np.abs(exp - b0[:, None] * unit) < eps, axis=-1)):
                accepted[idx] = True
                break
    return accepted


# ---------------------------------------------------------------------------
# finite-difference oracle for the stretched-exponential fit
# ---------------------------------------------------------------------------


def grid_starts_loop(t, y, sig, lo, hi):
    """`relaxometry._grid_starts` one grid point at a time, cheapest first.

    At each (T1, iota) the weighted fit of A e + C, e = exp[-(t/T1)^iota],
    is solved with `np.linalg.lstsq` and clipped to the A and C bounds; a
    point whose e is constant over the samples (rank < 2) is skipped.
    Returns (cost, A, T1, iota, C) rows sorted by cost.
    """
    from spinbath.relaxometry import _GRID_IOTA, _GRID_T1, IOTA_BOUNDS

    rows = []
    for t1 in np.geomspace(lo[1], hi[1], _GRID_T1):
        for iota in np.linspace(*IOTA_BOUNDS, _GRID_IOTA):
            e = np.exp(-((t / t1) ** iota))
            basis = np.stack([e, np.ones_like(e)], axis=1) / sig[:, None]
            (a, c), _, rank, _ = np.linalg.lstsq(basis, y / sig, rcond=None)
            if rank < 2 or np.ptp(e) == 0.0:
                continue
            a, c = np.clip(a, lo[0], hi[0]), np.clip(c, lo[3], hi[3])
            cost = float(np.sum(((a * e + c - y) / sig) ** 2))
            rows.append((cost, a, t1, iota, c))
    return sorted(rows, key=lambda r: r[0])


def fit_decay_fd(curve):
    """Nine-start stretched-exponential fit with SciPy's 2-point Jacobian.

    The bounds of `fit_decay`, but TRF runs from a 3 x 3 set of starts
    (T1 at the 25/50/75 % time quantiles, iota 0.7/1.0/1.5, A and C from
    the end points) at SciPy's default tolerances, keeping the lowest
    cost.  The covariance comes from the finite-difference Jacobian at
    that solution, through the pseudo-inverse when J^T J is singular.
    """
    from scipy.optimize import least_squares

    from spinbath.relaxometry import IOTA_BOUNDS, DecayFitResult, _stretched_exp

    t, y, sig = curve.t, curve.y, curve.sigma
    if t[0] <= 0:
        t = t.copy()
        t[0] = t[1] * 1e-6
    span = float(np.max(y) - np.min(y))
    t25, t50, t75 = np.quantile(t, [0.25, 0.5, 0.75])
    lo = [-10 * abs(span) - 1e-12, t[0] / 100.0, IOTA_BOUNDS[0], np.min(y) - span - 1e-9]
    hi = [10 * abs(span) + 1e-12, t[-1] * 100.0, IOTA_BOUNDS[1], np.max(y) + span + 1e-9]

    def resid(p):
        return (_stretched_exp(t, *p) - y) / sig

    best = None
    for t1_start in (t25, t50, t75):
        for iota_start in (0.7, 1.0, 1.5):
            p0 = np.clip([y[0] - y[-1], t1_start, iota_start, y[-1]], lo, hi)
            sol = least_squares(resid, p0, bounds=(lo, hi), method="trf")
            if sol.success and (best is None or sol.cost < best.cost):
                best = sol
    jtj = best.jac.T @ best.jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:  # a singular fit, as in `fit_decay`
        cov = np.linalg.pinv(jtj)
    perr = np.sqrt(np.clip(np.diag(cov), 0.0, np.inf))
    return DecayFitResult(
        *best.x, *perr, chi2_red=2.0 * best.cost / max(len(curve) - 4, 1)
    )


def pair_spectral_density(pair, tau_e, spectrum, omega, gamma_e=GAMMA_E) -> float:
    """S_{n,m}(omega) of one neighbour pair, in tesla^2 s.

    prefactor * { (9/2) sin^2(2 Theta) L(omega)
                  + F(Theta) sum_l w_l [L(omega_l - omega) + L(omega_l + omega)] }
    with L(x) = tau_e / (x^2 tau_e^2 + 1), over the binned lines
    (omega_l, w_l) of `TransitionSpectrum.binned`: the per-pair spectral
    density whose line-weighted sum the tau_ee fixed point equates to 1/tau.
    """
    from spinbath.eesolver import dipolar_prefactor, flip_flop_factor, quasi_static_factor

    r, theta = pair
    if r <= 0:
        raise ValueError("pair distance must be > 0")
    if tau_e <= 0:
        raise ValueError("tau_e must be > 0")
    def lorentzian(x):
        return tau_e / ((x * tau_e) ** 2 + 1.0)

    qs = quasi_static_factor(theta) * lorentzian(omega)
    lines, weight = spectrum.binned()
    ff_sum = float((lorentzian(lines - omega) + lorentzian(lines + omega)) @ weight)
    return float(dipolar_prefactor(r, gamma_e) * (qs + flip_flop_factor(theta) * ff_sum))
