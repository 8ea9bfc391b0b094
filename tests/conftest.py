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
    return SdeProblem(
        d=d,
        m=m,
        horizon=1.0,
        initial_state=np.arange(1.0, d + 1.0),
        drift=lambda t, x: (0.0,) * d,
        diffusion=lambda t, x: ((0.0,) * m,) * d,
        milstein_tensor=lambda t, x: (((0.0,) * m,) * m,) * d,
        noise_structure=NoiseStructure.SCALAR if m == 1 else NoiseStructure.DIAGONAL,
        xi=0.0,
        beta=1.0,
    )


def make_commuting_gbm(s=((0.4, 0.2), (0.1, 0.5)), x0=(1.0, 2.0), a=(0.3, -0.2)):
    """The GBM dx_i = a_i x_i dt + x_i sum_k s_ik dW_k from ``x0``, with
    d = len(s) components and m = len(s[0]) Brownian motions (by default
    d = m = 2 from (1, 2)).

    Its Milstein tensor x_i s_ik s_il is symmetric in (k, l), which is the
    commutativity condition of Kloeden & Platen (1992), and each component
    is a scalar GBM, so the terminal value has a closed form.  A zero
    ``s_ik`` is written as a structural zero.
    """
    def times(x_i, s_ik):
        return 0.0 if s_ik == 0.0 else x_i * s_ik

    def diffusion(t, x):
        return tuple(tuple(times(x_i, s_ik) for s_ik in row) for x_i, row in zip(x, s))

    def milstein_tensor(t, x):
        return tuple(tuple(tuple(times(x_i, s_ik * s_il) for s_il in row) for s_ik in row)
                     for x_i, row in zip(x, s))

    def exact_terminal(w):
        return tuple(x0_i * np.exp((a_i - 0.5 * sum(s_ik * s_ik for s_ik in row))
                                   + sum(w_k * s_ik for w_k, s_ik in zip(w, row)))
                     for x0_i, a_i, row in zip(x0, a, s))

    return SdeProblem(d=len(s), m=len(s[0]), horizon=1.0, initial_state=x0,
                      drift=lambda t, x: tuple(a_i * x_i for a_i, x_i in zip(a, x)),
                      diffusion=diffusion, milstein_tensor=milstein_tensor,
                      noise_structure=NoiseStructure.COMMUTATIVE, xi=0.0, beta=1.0,
                      exact_terminal=exact_terminal)


def src_env(**extra):
    """The environment for a fresh interpreter that imports the package from
    this checkout's ``src/``, plus ``extra`` variables."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


@pytest.fixture
def zero_problem():
    return make_zero_problem()
