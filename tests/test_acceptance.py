"""End-to-end acceptance gate.

One test per headline guarantee, numbered so `pytest -v` prints a single
pass/fail line for each.  Every test re-derives its expectation from an
independent oracle (quadrature, master-equation propagation, FFT,
Monte-Carlo) or from a pinned physical band, never from the code under
test.  Budgeted runtimes are asserted where the guarantee includes one.
"""

import json
import math
import time

import numpy as np
import pytest
import yaml

from conftest import CONFIG_PATH
from helpers import (
    T1_FREE,
    golden_rule_rate_quad,
    lindblad_correlators,
    records_to_csv,
    slab_dipolar_quadrature,
    synth_records,
)
from test_bathspectrum import one_pair_model

from spinbath.bathspectrum import (
    NV_TILT,
    autocorrelation,
    coupling_b0_sq,
    cupc_bath_model,
    free_electron_spectrum,
    geometry_factors,
    spectral_density,
)
from spinbath.constants import GAUSS_TO_TESLA, HBAR, K_B, TWO_PI, gauss_to_tesla
from spinbath.estimator import FitProblem, confidence_region, fit
from spinbath.relaxometry import (
    MeasurementSet,
    NvConfig,
    SpinLatticeParams,
    fit_spin_lattice,
    nv_frequency,
    relaxation_rate,
    spin_lattice_rate,
)

FIELDS_GAUSS = (231.0, 372.0, 461.0, 721.0)
TAU_TRUTH = 2e-9


def _theta_truth(cfg) -> float:
    return math.radians(cfg.hyperfine.theta_e_deg)


# ---------------------------------------------------------------------------
# 1. film-averaged dipolar geometry factors
# ---------------------------------------------------------------------------


def test_criterion_01_slab_geometry_factors(geometry):
    """Independent slab quadrature reproduces the 5/16 : 11/16 split < 1%."""
    t0 = time.monotonic()
    var_long, var_perp = slab_dipolar_quadrature(
        geometry.d_nv, geometry.h, geometry.n_e, NV_TILT
    )
    elapsed = time.monotonic() - t0
    b0 = coupling_b0_sq(geometry)
    f_z, f_perp = geometry_factors()
    err_z = abs(var_long / b0 - f_z) / f_z
    err_p = abs(var_perp / b0 - f_perp) / f_perp
    print(
        f"[C01] f_z={var_long / b0:.6f} (target {f_z:.6f}, err {err_z:.2e}), "
        f"f_perp={var_perp / b0:.6f} (target {f_perp:.6f}, err {err_p:.2e}), "
        f"{elapsed:.2f} s"
    )
    assert f_z == pytest.approx(5.0 / 16.0, rel=1e-12)
    assert f_perp == pytest.approx(11.0 / 16.0, rel=1e-12)
    assert err_z < 0.01
    assert err_p < 0.01
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. composite Hilbert space and transition-weight trace identity
# ---------------------------------------------------------------------------


def test_criterion_02_hilbert_dimension_and_trace():
    """648 states; sum of all transition weights = 1/2 to 1e-10, any spec."""
    from spinbath.spinmodel import SpinSystemSpec, build_hamiltonian, transition_spectrum

    spec = SpinSystemSpec(
        b_field=461.0 * GAUSS_TO_TESLA,
        theta_e=math.radians(43.05),
        g_parallel=2.16,
        g_perp=2.04,
    )
    assert spec.hilbert_dimension() == 648
    assert build_hamiltonian(spec).shape == (648, 648)

    rng = np.random.default_rng(1234)
    worst_trace, worst_time = 0.0, 0.0
    for _ in range(10):
        b = rng.uniform(50.0, 1200.0) * GAUSS_TO_TESLA
        theta = rng.uniform(0.0, math.pi / 2)
        s = SpinSystemSpec(b_field=b, theta_e=theta, g_parallel=2.16, g_perp=2.04)
        t0 = time.monotonic()
        comp = transition_spectrum(s)
        dt = time.monotonic() - t0
        worst_time = max(worst_time, dt)
        worst_trace = max(worst_trace, abs(comp.eta_sum_all - 0.5))
    print(
        f"[C02] dim 648; worst |trace - 1/2| = {worst_trace:.2e} over 10 random "
        f"field/orientation draws; slowest diagonalization {worst_time:.2f} s"
    )
    assert worst_trace < 1e-10
    assert worst_time < 60.0


# ---------------------------------------------------------------------------
# 3. closed-form spectral density vs FFT of the closed-form autocorrelation
# ---------------------------------------------------------------------------


def test_criterion_03_spectral_density_fft_consistency(shipped_config, geometry):
    """S_e(omega_NV) from the line list matches the FFT route < 1% at 4 fields."""
    cfg = shipped_config
    nv = cfg.nv_config()
    dt, n_real, n_fft = 2e-11, 4000, 2**15
    t = np.arange(n_real) * dt
    freqs = TWO_PI * np.fft.rfftfreq(n_fft, dt)

    t0 = time.monotonic()
    worst = 0.0
    details = []
    for gauss in FIELDS_GAUSS:
        b = gauss * GAUSS_TO_TESLA
        model = cupc_bath_model(
            cfg.spin_spec(b), TAU_TRUTH, geometry, isotopes=cfg.isotopes()
        )
        g = autocorrelation(model, t)
        padded = np.zeros(n_fft)
        padded[:n_real] = g
        # one-sided cosine transform: trapezoid end-correction at t = 0,
        # doubled because G is even in t
        s_fft = 2.0 * dt * (np.fft.rfft(padded).real - 0.5 * g[0])
        w_nv = nv_frequency(nv, b)
        closed = float(spectral_density(model, w_nv))
        via_fft = float(np.interp(w_nv, freqs, s_fft))
        rel = abs(via_fft / closed - 1.0)
        worst = max(worst, rel)
        details.append(f"{gauss:g} G: {rel:.2e}")
    elapsed = time.monotonic() - t0
    print(f"[C03] FFT vs closed form at omega_NV: {'; '.join(details)}; {elapsed:.1f} s")
    assert worst < 0.01
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 4. golden-rule rate vs adaptive Fourier quadrature
# ---------------------------------------------------------------------------


def test_criterion_04_golden_rule_fourier_oracle():
    """Single-Lorentzian toy bath: rate matches the numeric cos-integral < 1%."""
    m = one_pair_model(omega0=0.0)  # all weight in one line at omega = 0
    nv = NvConfig()
    worst = 0.0
    for gauss in (231.0, 461.0, 721.0):
        b = gauss * GAUSS_TO_TESLA
        direct = relaxation_rate(m, nv, b)
        via_quad = golden_rule_rate_quad(m, nv_frequency(nv, b), nv.gamma_e)
        worst = max(worst, abs(via_quad / direct - 1.0))
    print(f"[C04] golden-rule vs Fourier quadrature, worst rel dev {worst:.2e}")
    assert worst < 0.01


# ---------------------------------------------------------------------------
# 5. line-list autocorrelation vs master-equation propagation
# ---------------------------------------------------------------------------


def test_criterion_05_lindblad_propagation_oracle():
    """One-pair G_e(t) matches direct density-matrix propagation to 1e-8."""
    omega0, tau, b0_sq = TWO_PI * 1.2e9, 2e-9, 3.7e-10
    m = one_pair_model(omega0=omega0, tau_e=tau, b0_sq=b0_sq)
    t = np.linspace(0.0, 5 * tau, 50)
    corr = lindblad_correlators(omega0, tau, t)
    f_z, f_perp = geometry_factors()
    g_oracle = b0_sq * (4.0 * f_z * corr["z"] + f_perp * (corr["x"] + corr["y"]))
    err = np.abs(autocorrelation(m, t) - g_oracle) / (b0_sq * np.exp(-t / tau))
    print(f"[C05] envelope-relative deviation over 50 points: max {np.max(err):.2e}")
    assert np.max(err) < 1e-8


# ---------------------------------------------------------------------------
# 6. electron-electron tau: approximation bracketing and dilation law
# ---------------------------------------------------------------------------


def test_criterion_06_tau_bracketing_and_dilation(tmp_path, shipped_config):
    """No-hyperfine and coincidence bounds hit their bands; dilation ~ r^3.

    The full self-consistent solve is checked against the measured band
    [1.3, 2.4] ns; if the shipped lattice misses it, the strict ordering
    no-hyperfine < full < coincidence, the scale-cubed dilation law, and a
    discrepancy note in the run manifest are mandatory instead.
    """
    from spinbath.cli import EXIT_OK, main
    from spinbath.eesolver import (
        LatticeModel,
        delta_approx_tau,
        no_hyperfine_tau,
        solve_tau_self_consistent,
    )
    from spinbath.spinmodel import isotope_family_spectrum

    t0 = time.monotonic()
    out = tmp_path / "tauee"
    code = main(
        ["tau-ee", "--config", str(CONFIG_PATH), "--out", str(out)]
    )
    assert code == EXIT_OK
    payload = json.loads((out / "tau_ee.json").read_text())
    manifest = json.loads((out / "tau_ee_manifest.json").read_text())

    tau_nh = payload["tau_no_hyperfine_ns"]
    fulls = [row["tau_full_ns"] for row in payload["per_field"]]
    deltas = [row["tau_delta_ns"] for row in payload["per_field"]]
    assert 0.24 * 0.7 <= tau_nh <= 0.24 * 1.3
    assert all(4.0 <= d <= 12.0 for d in deltas)

    in_band = [1.3 <= f <= 2.4 for f in fulls]
    if not all(in_band):
        # fallback contract: ordering + dilation law + reported discrepancy
        assert all(row["ordering_ok"] for row in payload["per_field"])
        assert all(nh_f < f < d for nh_f, f, d in zip([tau_nh] * 4, fulls, deltas))
        assert any("outside the measured interval" in n for n in manifest["notes"])

    cfg = shipped_config
    base = cfg.lattice_model()

    def dilated(s: float) -> LatticeModel:
        return LatticeModel(
            cell=base.cell * s,
            sites=base.sites,
            field_dir=base.field_dir,
            cutoff=base.cutoff * s,
        )

    spectrum = isotope_family_spectrum(
        cfg.spin_spec(gauss_to_tesla(372.0)),
        isotopes=cfg.isotopes(),
        eta_floor=cfg.hyperfine.eta_floor,
    )
    s = 1.7
    np.testing.assert_allclose(
        no_hyperfine_tau(dilated(s)), s**3 * no_hyperfine_tau(base), rtol=1e-9
    )
    np.testing.assert_allclose(
        delta_approx_tau(dilated(s), spectrum),
        s**3 * delta_approx_tau(base, spectrum),
        rtol=1e-9,
    )
    # the motionally narrowed full solve must dilute at least as fast
    s = 1.5
    rep_base = solve_tau_self_consistent(base, spectrum)
    rep_dila = solve_tau_self_consistent(dilated(s), spectrum)
    ratio = rep_dila.tau_e / rep_base.tau_e
    elapsed = time.monotonic() - t0
    print(
        f"[C06] no-hf {tau_nh:.3f} ns in [0.168, 0.312]; delta "
        f"{min(deltas):.2f}-{max(deltas):.2f} ns in [4, 12]; full "
        f"{min(fulls):.2f}-{max(fulls):.2f} ns vs band [1.3, 2.4] "
        f"(in band: {sum(in_band)}/4, ordering enforced); 1.5x dilation "
        f"stretches tau x{ratio:.2f} >= {s**3:.3f}; {elapsed:.0f} s"
    )
    assert ratio >= s**3
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 7. Monte-Carlo correlation-time recovery
# ---------------------------------------------------------------------------


def test_criterion_07_tau_recovery_monte_carlo(
    forward_model_4f, shipped_config, geometry
):
    """100 noisy synthetic data sets: tau within 3 sigma in >= 95, right scale."""
    cfg = shipped_config
    theta = _theta_truth(cfg)
    fixed = {
        "theta_e": (theta, (theta, theta)),
        "d_nv": (geometry.d_nv, (geometry.d_nv, geometry.d_nv)),
        "h": (geometry.h, (geometry.h, geometry.h)),
        "n_e": (geometry.n_e, (geometry.n_e, geometry.n_e)),
    }
    hits, taus = 0, []
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        records = synth_records(
            forward_model_4f, geometry, TAU_TRUTH, theta, rng, noise=0.05
        )
        problem = FitProblem(
            data=MeasurementSet(records=tuple(records)),
            model=forward_model_4f,
            geometry=geometry,
            free=("tau_e",),
            fixed=fixed,
        )
        result = fit(problem, grid_points=48)
        tau_hat = result.best["tau_e"]
        taus.append(tau_hat)
        if abs(tau_hat - TAU_TRUTH) <= 3.0 * result.param_sigma["tau_e"]:
            hits += 1
    taus = np.asarray(taus)
    mean_ns, std_ns = float(np.mean(taus) * 1e9), float(np.std(taus) * 1e9)
    print(
        f"[C07] {hits}/100 seeds within 3 sigma; ensemble "
        f"{mean_ns:.3f} +/- {std_ns:.3f} ns against truth 2.0 ns"
    )
    assert hits >= 95
    assert abs(mean_ns - 2.0) < 1.1
    assert std_ns < 1.1


# ---------------------------------------------------------------------------
# 8. orientation identifiability: detuned vs inclusive field sets
# ---------------------------------------------------------------------------


def _theta_span_deg(region: dict) -> float:
    spans = region["theta_e"]
    return math.degrees(max(hi for _, hi in spans) - min(lo for lo, _ in spans))


def test_criterion_08_theta_identifiability_windows(
    forward_model_4f, shipped_config, geometry
):
    """Detuned-only data leaves theta open (> 60 deg); adding the
    theta-sensitive fields closes it (< 20 deg) around the truth; the
    crossing-adjacent field alone is ambiguous (>= 2 minima)."""
    cfg = shipped_config
    theta = _theta_truth(cfg)
    fixed_live = dict(cfg.nuisance_intervals())
    boxes = {"tau_e": (0.9e-9, 3.1e-9)}

    def theta_region(fields, seed) -> dict:
        rng = np.random.default_rng(seed)
        records = synth_records(
            forward_model_4f, geometry, TAU_TRUTH, theta, rng, noise=0.05,
            fields=fields,
        )
        problem = FitProblem(
            data=MeasurementSet(records=tuple(records)),
            model=forward_model_4f,
            geometry=geometry,
            free=("tau_e", "theta_e"),
            fixed=fixed_live,
            boxes=boxes,
        )
        result = fit(problem, grid_points=24)
        return confidence_region(problem, result, epsilon_scale=2.0, grid_points=40)

    span_detuned = _theta_span_deg(theta_region((231.0, 721.0), seed=81))
    inclusive = theta_region(FIELDS_GAUSS, seed=82)
    span_inclusive = _theta_span_deg(inclusive)
    runs_deg = ", ".join(
        f"[{math.degrees(lo):.2f}, {math.degrees(hi):.2f}]"
        for lo, hi in inclusive["theta_e"]
    )

    rng = np.random.default_rng(83)
    records = synth_records(
        forward_model_4f, geometry, TAU_TRUTH, theta, rng, noise=0.05,
        fields=(372.0,),
    )
    fixed_372 = dict(fixed_live)
    fixed_372["tau_e"] = (TAU_TRUTH, (TAU_TRUTH, TAU_TRUTH))
    problem = FitProblem(
        data=MeasurementSet(records=tuple(records)),
        model=forward_model_4f,
        geometry=geometry,
        free=("theta_e",),
        fixed=fixed_372,
    )
    result = fit(problem, grid_points=48)
    minima_deg = sorted(math.degrees(p["theta_e"]) for p, _ in result.minima)
    print(
        f"[C08] theta 95% span: detuned fields {span_detuned:.1f} deg (> 60), "
        f"all four fields {span_inclusive:.1f} deg (< 20) in {runs_deg} deg; "
        f"crossing-adjacent field alone: {result.n_minima} minima at "
        f"{', '.join(f'{m:.1f}' for m in minima_deg)} deg"
    )
    assert span_detuned > 60.0
    assert span_inclusive < 20.0
    assert any(lo <= theta <= hi for lo, hi in inclusive["theta_e"])
    assert result.n_minima >= 2


# ---------------------------------------------------------------------------
# 9. depth estimation round trip
# ---------------------------------------------------------------------------


def test_criterion_09_depth_round_trip(forward_model_4f, shipped_config, geometry):
    """Detuned two-field synthetic data returns d_NV to 1 nm in >= 90/100."""
    cfg = shipped_config
    theta = _theta_truth(cfg)
    fixed = {
        "tau_e": (TAU_TRUTH, (TAU_TRUTH, TAU_TRUTH)),
        "h": (geometry.h, (geometry.h, geometry.h)),
        "n_e": (geometry.n_e, (geometry.n_e, geometry.n_e)),
    }
    hits, errors_nm = 0, []
    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        records = synth_records(
            forward_model_4f, geometry, TAU_TRUTH, theta, rng, noise=0.05,
            fields=(231.0, 721.0),
        )
        problem = FitProblem(
            data=MeasurementSet(records=tuple(records)),
            model=forward_model_4f,
            geometry=geometry,
            free=("d_nv", "theta_e"),
            fixed=fixed,
        )
        result = fit(problem, grid_points=24)
        err_nm = abs(result.best["d_nv"] - geometry.d_nv) * 1e9
        errors_nm.append(err_nm)
        if err_nm <= 1.0:
            hits += 1
    print(
        f"[C09] {hits}/100 seeds within 1 nm of 7 nm truth; median error "
        f"{np.median(errors_nm):.3f} nm"
    )
    assert hits >= 90


# ---------------------------------------------------------------------------
# 10. hyperfine structure distinguishes the film from free electrons
# ---------------------------------------------------------------------------


def test_criterion_10_free_electron_discrimination(shipped_config, geometry):
    """Equal-density free-electron bath relaxes the NV strictly slower at
    the two theta-sensitive fields."""
    cfg = shipped_config
    nv = cfg.nv_config()
    factors = []
    for gauss in (372.0, 461.0):
        b = gauss * GAUSS_TO_TESLA
        cupc = relaxation_rate(
            cupc_bath_model(
                cfg.spin_spec(b), TAU_TRUTH, geometry, isotopes=cfg.isotopes()
            ),
            nv,
            b,
        )
        free = nv.gamma_e**2 * float(
            free_electron_spectrum(geometry, TAU_TRUTH, nv_frequency(nv, b), b)
        )
        assert free < cupc
        factors.append(cupc / free)
    print(
        f"[C10] added rate ratio film/free-electron: 372 G x{factors[0]:.1f}, "
        f"461 G x{factors[1]:.1f} (both > 1)"
    )


# ---------------------------------------------------------------------------
# 11. temperature dependence of the intrinsic NV rate
# ---------------------------------------------------------------------------


def test_criterion_11_temperature_model():
    """Low-T floor, phonon asymptotes, synthetic recovery; the room-T
    film-electron depolarization time enters as a consumed constant."""
    from spinbath.eesolver import BACKGROUND_RATE_ROOM_T

    truth = SpinLatticeParams(
        a=5e4, omega_a=K_B * 30.0 / HBAR, b=2e5, omega_b=K_B * 80.0 / HBAR, c=10.0
    )
    # T -> 0: both phonon terms freeze out, only the constant survives
    assert spin_lattice_rate(0.05, truth) == pytest.approx(truth.c, rel=0.01)

    # high-T power laws, each term isolated, evaluated at x = hbar w / kT = 0.01
    for omega, asym in (
        (truth.omega_a, lambda x: truth.a / x),
        (truth.omega_b, lambda x: truth.b / x**2),
    ):
        temp = HBAR * omega / (K_B * 0.01)
        only = SpinLatticeParams(
            a=truth.a if omega is truth.omega_a else 0.0,
            omega_a=truth.omega_a,
            b=truth.b if omega is truth.omega_b else 0.0,
            omega_b=truth.omega_b,
            c=0.0,
        )
        assert abs(spin_lattice_rate(temp, only) / asym(0.01) - 1.0) < 0.01

    # noiseless synthetic recovery extrapolates correctly beyond the data
    t = np.geomspace(2.0, 100.0, 40)
    recovered = fit_spin_lattice(t, spin_lattice_rate(t, truth))
    extrap = spin_lattice_rate(300.0, recovered) / spin_lattice_rate(300.0, truth)
    assert extrap == pytest.approx(1.0, rel=1e-4)

    assert BACKGROUND_RATE_ROOM_T == pytest.approx(1.0 / 38e-9, rel=1e-12)
    print(
        f"[C11] floor, T^1/T^2 asymptotes, recovery (300 K extrapolation off by "
        f"{abs(extrap - 1.0):.1e}); room-T background 1/(38 ns) consumed"
    )


# ---------------------------------------------------------------------------
# 12. determinism and I/O contracts
# ---------------------------------------------------------------------------


def test_criterion_12_determinism_and_io(
    tmp_path, monkeypatch, small_model, shipped_config, geometry
):
    """Every command is byte-deterministic; configs round-trip; CSV errors
    carry file:row addresses."""
    from spinbath.cli import EXIT_AMBIGUOUS, EXIT_OK, main
    from spinbath.config import dump_config, load_config, parse_config
    from spinbath.errors import DataFormatError
    from spinbath.io import load_measurements

    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")

    # trimmed copy of the shipped config: coarse grids keep the slow
    # commands inside the gate's budget without touching the physics
    tree = yaml.safe_load(CONFIG_PATH.read_text())
    tree["fit"]["theta_step_deg"] = 15.0
    tree["fit"]["grid_points"] = 12
    tree["bath"]["fields_gauss"] = [231.0, 461.0]
    config = tmp_path / "trimmed.yaml"
    config.write_text(yaml.safe_dump(tree))

    rng = np.random.default_rng(5)
    records = synth_records(
        small_model, geometry, TAU_TRUTH, _theta_truth(shipped_config), rng,
        noise=0.03,
    )
    t1_csv = tmp_path / "t1.csv"
    records_to_csv(records, t1_csv)

    t_us = np.geomspace(10.0, 3e4, 30)
    signal = 0.9 * np.exp(-t_us / 3000.0) + 0.05
    decay_csv = tmp_path / "decay.csv"
    decay_csv.write_text(
        "t_us,signal,sigma\n"
        + "\n".join(f"{float(t)!r},{float(v)!r},0.01" for t, v in zip(t_us, signal))
        + "\n"
    )
    ref_csv = tmp_path / "depths.csv"
    ref_csv.write_text("nv_id,d_ref_nm\nNV1,7.2\n")

    commands = {
        "spectrum": ["spectrum", "--points", "64"],
        "t1": ["t1", "--data", str(t1_csv)],
        "fit": ["fit", "--data", str(t1_csv), "--free", "tau_e", "--grid", "12"],
        "tau-ee": ["tau-ee"],
        "depth": [
            "depth", "--data", str(t1_csv), "--reference", str(ref_csv),
            "--grid", "8",
        ],
        "decay-fit": ["decay-fit", "--data", str(decay_csv)],
    }
    identical = []
    for name, argv in commands.items():
        outputs = []
        codes = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}-{run}"
            codes.append(
                main(argv + ["--config", str(config), "--out", str(out)])
            )
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert codes[0] == codes[1]
        assert codes[0] in (EXIT_OK, EXIT_AMBIGUOUS)
        assert outputs[0].keys() == outputs[1].keys()
        for fname in outputs[0]:
            assert outputs[0][fname] == outputs[1][fname], f"{name}: {fname} differs"
        identical.append(f"{name} ({len(outputs[0])} files)")

    # config round trip: parse(dump(cfg)) == cfg, and dump is stable
    cfg = load_config(config)
    text = dump_config(cfg)
    cfg2 = parse_config(yaml.safe_load(text))
    assert cfg2 == cfg
    assert dump_config(cfg2) == text

    # malformed measurement rows are addressed as file:row
    bad = tmp_path / "bad" / "t1.csv"
    bad.parent.mkdir()
    bad.write_text(
        "nv_id,b_gauss,t1_cupc_us,t1_cupc_sigma_us,t1_free_us,t1_free_sigma_us\n"
        "NV1,231,600,30,5000,100\n"
        "NV1,372,450,25,5000,100\n"
        "NV1,461,not-a-number,20,5000,100\n"
    )
    with pytest.raises(DataFormatError, match=r"t1\.csv:4"):
        load_measurements(bad)

    print(f"[C12] byte-identical reruns: {', '.join(identical)}; config "
          f"round-trips; data errors row-addressed")
