"""NV relaxometry toolkit for electron-spin bath films.

Submodules are imported lazily so the CLI can apply SPINBATH_THREADS
before any BLAS-backed import happens.  SciPy is imported lazily too: only
the functions that call it import it (`scipy.optimize` in `estimator`, and
inside `fit_decay` and `fit_spin_lattice`), so `spectrum`, `t1` and `tau-ee`
load no SciPy module at all.  Keep new SciPy imports out of module level
in `spinmodel`, `bathspectrum`, `relaxometry`, `eesolver`, `config` and `io`.
"""

__version__ = "0.1.0"

_EXPORTS = {
    # spinmodel
    "HyperfineTensor": "spinmodel",
    "Isotope": "spinmodel",
    "SpinSystemSpec": "spinmodel",
    "IsotopeSpectrum": "spinmodel",
    "TransitionSpectrum": "spinmodel",
    "CU_ISOTOPES": "spinmodel",
    "CU_TENSOR": "spinmodel",
    "N_TENSOR": "spinmodel",
    "build_hamiltonian": "spinmodel",
    "transition_spectrum": "spinmodel",
    "isotope_family_spectrum": "spinmodel",
    # bathspectrum
    "FilmGeometry": "bathspectrum",
    "BathSpectrumModel": "bathspectrum",
    "coupling_b0_sq": "bathspectrum",
    "geometry_factors": "bathspectrum",
    "autocorrelation": "bathspectrum",
    "spectral_density": "bathspectrum",
    "free_electron_spectrum": "bathspectrum",
    "cupc_bath_model": "bathspectrum",
    # relaxometry
    "NvConfig": "relaxometry",
    "nv_frequency": "relaxometry",
    "relaxation_rate": "relaxometry",
    "T1Record": "relaxometry",
    "MeasurementSet": "relaxometry",
    "delta_gamma": "relaxometry",
    "DecayCurve": "relaxometry",
    "DecayFitResult": "relaxometry",
    "fit_decay": "relaxometry",
    "SpinLatticeParams": "relaxometry",
    "spin_lattice_rate": "relaxometry",
    "fit_spin_lattice": "relaxometry",
    # estimator
    "ForwardModel": "estimator",
    "FitProblem": "estimator",
    "FitResult": "estimator",
    "fit": "estimator",
    "confidence_region": "estimator",
    "estimate_depth": "estimator",
    # eesolver
    "LatticeModel": "eesolver",
    "TauSolveReport": "eesolver",
    "pair_geometry": "eesolver",
    "pair_spectral_density": "eesolver",
    "solve_tau_self_consistent": "eesolver",
    "no_hyperfine_tau": "eesolver",
    "delta_approx_tau": "eesolver",
    "coincidence_weight": "eesolver",
    "total_correlation_rate": "eesolver",
    # config / io
    "ToolkitConfig": "config",
    "load_config": "config",
    "dump_config": "config",
    "load_measurements": "io",
    "load_decay_curve": "io",
    # errors
    "SpinbathError": "errors",
    "ConfigError": "errors",
    "DataFormatError": "errors",
    "ConvergenceError": "errors",
    "UnidentifiableError": "errors",
    "DimensionError": "errors",
    "SpectrumError": "errors",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        from importlib import import_module

        module = import_module(f".{_EXPORTS[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
