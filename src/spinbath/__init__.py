"""NV relaxometry toolkit for electron-spin bath films.

Import names from the submodules (`spinbath.estimator`, `spinbath.cli`,
...).  This package imports none of them, and `spinbath.cli` imports
numpy only inside its commands, so the CLI can apply SPINBATH_THREADS
before any BLAS-backed import happens.  Only `fit_spin_lattice` imports
SciPy, lazily, and no command calls it, so no command loads a SciPy
module at all.  Keep new SciPy imports out of module level in every
module.
"""

__version__ = "0.1.0"
