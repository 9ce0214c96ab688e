import math
import os
from pathlib import Path

import pytest

from spinbath.cli import _THREAD_VARS

# One BLAS thread per process unless the caller chose otherwise, as the CLI
# pins it: numpy is not loaded yet, so its BLAS reads these once it is.  The
# threaded θ-cache tests then run one `eigh` per worker thread, and do not
# oversubscribe the cores when another process shares them.
for _var in _THREAD_VARS:
    os.environ.setdefault(_var, "1")

#: θ-cache build threads of the shared forward models: one per CPU, as the
#: CLI's default.  The cache is the same, bit for bit, for any count.
WORKERS = len(os.sched_getaffinity(0))

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_PATH = REPO_ROOT / "configs" / "cupc.yaml"


@pytest.fixture(scope="session")
def shipped_config():
    from spinbath.config import load_config

    return load_config(CONFIG_PATH)


@pytest.fixture(scope="session")
def geometry(shipped_config):
    return shipped_config.film_geometry()


@pytest.fixture(scope="session")
def small_model(shipped_config):
    """Coarse two-field forward model for fast estimator unit tests."""
    from spinbath.estimator import ForwardModel

    return ForwardModel(
        fields_gauss=(231.0, 461.0),
        base_spec=shipped_config.spin_spec(1e-4),
        nv=shipped_config.nv_config(),
        theta_step=math.radians(15.0),
        workers=WORKERS,
    )


@pytest.fixture(scope="session")
def forward_model_4f(shipped_config):
    """Four-field forward model at 2 degree resolution (acceptance-grade).

    Building it costs 2.1–2.8 s on 2 vCPUs; it is shared across the whole
    session.
    """
    from spinbath.estimator import ForwardModel

    return ForwardModel(
        fields_gauss=(231.0, 372.0, 461.0, 721.0),
        base_spec=shipped_config.spin_spec(1e-4),
        nv=shipped_config.nv_config(),
        theta_step=math.radians(2.0),
        workers=WORKERS,
    )


@pytest.fixture()
def nuisance_fixed(geometry, shipped_config):
    """Fixed-parameter dict with the shipped nuisance intervals."""

    def build(free):
        fixed = dict(shipped_config.nuisance_intervals())
        lo, hi = shipped_config.bath.tau_e_interval_ns
        fixed["tau_e"] = (shipped_config.bath.tau_e_ns * 1e-9, (lo * 1e-9, hi * 1e-9))
        th = math.radians(shipped_config.hyperfine.theta_e_deg)
        fixed["theta_e"] = (th, (th, th))
        for name in free:
            fixed.pop(name, None)
        return fixed

    return build
