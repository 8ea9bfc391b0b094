import os

import numpy as np
import pytest

from sde_rtm import NoiseStructure, SdeProblem, make_builtin


@pytest.fixture
def fhn():
    return make_builtin("fhn")


@pytest.fixture
def gbm_unit():
    # zero drift, unit volatility: the Milstein correction is exactly sigma^2*x
    return make_builtin("gbm", a=0.0, sigma=1.0, x0=1.0)


def make_zero_problem(d=2, m=1):
    """No drift, no diffusion: every scheme must leave the state untouched."""

    def drift(t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def diffusion(t, x):
        xa = np.asarray(x, dtype=float)
        return np.zeros(xa.shape + (m,))

    def milstein_tensor(t, x):
        xa = np.asarray(x, dtype=float)
        return np.zeros(xa.shape + (m, m))

    return SdeProblem(
        d=d,
        m=m,
        horizon=1.0,
        initial_state=np.arange(1.0, d + 1.0),
        drift=drift,
        diffusion=diffusion,
        milstein_tensor=milstein_tensor,
        noise_structure=NoiseStructure.SCALAR if m == 1 else NoiseStructure.DIAGONAL,
        xi=0.0,
        beta=1.0,
    )


def src_env(**extra):
    """The environment for a fresh interpreter that imports the package from
    this checkout's ``src/``, plus ``extra`` variables."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


@pytest.fixture
def zero_problem():
    return make_zero_problem()
