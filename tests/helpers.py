"""Shared synthetic-data builders and independent numeric oracles."""

from __future__ import annotations

import numpy as np

from spinbath.bathspectrum import coupling_b0_sq, geometry_factors
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


def raw_line_tau(lattice, spectrum, lo: float, hi: float) -> float:
    """Root of tau * rate(tau) = 1 over the raw, unbinned line list.

    The oracle for `solve_tau_self_consistent`, which iterates the same
    equation on the binned list: brentq on [lo, hi], to 1e-13 relative.
    """
    from scipy.optimize import brentq

    from spinbath.eesolver import _OverlapIntegrator, _geometry_sums, _rate_from_integrals

    integ = _OverlapIntegrator(*spectrum.merged())
    qs_geom, ff_geom = _geometry_sums(lattice)

    def excess(tau):
        return tau * _rate_from_integrals(qs_geom, ff_geom, *integ.integrals(tau)) - 1.0

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
    products, with the same static-bin and floor bookkeeping.
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
    keep = oscillating & (eta_mat >= eta_floor)
    order = np.argsort(omega_mat[keep])
    return (
        omega_mat[keep][order],
        eta_mat[keep][order],
        float(eta_mat.sum()),
        float(eta_mat[~oscillating].sum()),
        float(eta_mat[oscillating & ~keep].sum()),
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
    central = 2.0 * model._f_z / ((w_nv * tau) ** 2 + 1.0)
    return model.nv.gamma_e**2 * (central + model._f_perp * lines) * tau


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
    for idx in np.ndindex(tuple(g.size for g in grids)):
        yield idx, [float(g[i]) for g, i in zip(grids, idx)]


def landscape_loop(problem, grids):
    """Fit objective evaluated one grid point at a time."""
    from spinbath.estimator import _model_prediction

    field_idx = problem._field_indices()
    exp, sig = problem.data.delta_gammas()
    obj = np.empty(tuple(g.size for g in grids))
    for idx, vals in _grid_points(grids):
        params = dict(zip(problem.free, vals))
        th = _model_prediction(problem, params, field_idx)
        obj[idx] = float(np.sum(((exp - th) / sig) ** 2))
    return obj


def accepted_loop(problem, grids, epsilon_scale):
    """Confidence acceptance one grid point and one nuisance probe at a time."""
    from spinbath.estimator import _model_prediction, _nuisance_probes

    field_idx = problem._field_indices()
    exp, sig = problem.data.delta_gammas()
    eps = epsilon_scale * sig
    accepted = np.zeros(tuple(g.size for g in grids), dtype=bool)
    for idx, vals in _grid_points(grids):
        for probe in _nuisance_probes(problem):
            params = {**dict(zip(problem.free, vals)), **probe}
            th = _model_prediction(problem, params, field_idx)
            if np.all(np.abs(exp - th) < eps):
                accepted[idx] = True
                break
    return accepted


# ---------------------------------------------------------------------------
# finite-difference oracle for the stretched-exponential fit
# ---------------------------------------------------------------------------


def fit_decay_fd(curve):
    """`fit_decay` with SciPy's default 2-point Jacobian in TRF.

    The same starts, bounds and tolerances; the covariance comes from the
    finite-difference Jacobian at the solution.
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
    cov = np.linalg.inv(best.jac.T @ best.jac)
    perr = np.sqrt(np.clip(np.diag(cov), 0.0, np.inf))
    return DecayFitResult(
        *best.x, *perr, chi2_red=2.0 * best.cost / max(len(curve) - 4, 1)
    )
