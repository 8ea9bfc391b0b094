import numpy as np
import pytest

from sde_rtm import InvalidParameterError, NoiseStructure, SdeProblem, make_builtin
from sde_rtm.model import TamingSplit, _stacked
from tests.conftest import make_commuting_gbm


def _finite_difference_milstein_tensor(problem, t, x, rel_step=1e-6):
    """Central-difference reconstruction of the correction tensor.

    Independent cross-check for analytically supplied tensors: rebuilds
    ``sum_r d(rho[i, k])/d(x_r) * rho[r, l]`` from ``diffusion`` alone.
    """
    xa = np.asarray(x, dtype=float)
    rho = _stacked(problem.diffusion, t, xa)
    lam = np.zeros((problem.d, problem.m, problem.m))
    for r in range(problem.d):
        h = rel_step * max(1.0, abs(xa[r]))
        e = np.zeros(problem.d)
        e[r] = h
        drho = (_stacked(problem.diffusion, t, xa + e)
                - _stacked(problem.diffusion, t, xa - e)) / (2 * h)
        lam += drho[:, :, None] * rho[r][None, None, :]
    return lam


def test_fhn_drift_at_origin(fhn):
    # V-component: 2 - 8/3 - (-1) + 25, R-component: 0.8*(2 + 0.7 + 0.8)
    out = fhn.drift(0.0, np.array([2.0, -1.0]))
    assert out[0] == pytest.approx(2 - 8 / 3 + 1 + 25, rel=1e-12)
    assert out[1] == pytest.approx(2.8, rel=1e-12)


def test_fhn_drift_input_vanishes_at_horizon(fhn):
    # the external input contributes 25*(1 - sqrt(1)) = 0 at t = 1
    out = fhn.drift(1.0, np.array([2.0, -1.0]))
    assert out[0] == pytest.approx(2 - 8 / 3 + 1, rel=1e-12)


def test_gbm_zero_drift():
    problem = make_builtin("gbm", a=0.0, sigma=0.3, x0=2.0)
    for x in ([0.5], [3.0], [-1.0]):
        assert problem.drift(0.3, np.array(x)) == pytest.approx([0.0])


def test_fhn_diffusion_column(fhn):
    out = _stacked(fhn.diffusion, 0.0, np.array([2.0, -1.0]))
    assert out == pytest.approx(np.array([[0.002], [0.0]]), rel=1e-12)


def test_fhn_recovery_row_has_no_noise(fhn):
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = rng.random()
        x = rng.normal(scale=4.0, size=2)
        assert fhn.diffusion(t, x)[1][0] == 0.0
        assert _stacked(fhn.diffusion, t, x)[1, 0] == 0.0


def test_gbm_diffusion_linear():
    problem = make_builtin("gbm", a=0.0, sigma=1.0, x0=1.0)
    assert _stacked(problem.diffusion, 0.0, np.array([3.0])) == pytest.approx(
        np.array([[3.0]]))


def test_zero_diffusion_matrix(zero_problem):
    assert np.all(_stacked(zero_problem.diffusion, 0.5, np.array([1.0, 2.0])) == 0.0)


def test_milstein_tensor_gbm():
    problem = make_builtin("gbm", a=0.0, sigma=1.0, x0=1.0)
    lam = _stacked(problem.milstein_tensor, 0.0, np.array([2.0]))
    assert lam[0, 0, 0] == pytest.approx(2.0)


def test_milstein_tensor_fhn(fhn):
    lam = _stacked(fhn.milstein_tensor, 0.0, np.array([2.0, -1.0]))
    assert lam[0, 0, 0] == pytest.approx(0.001 ** 2 * 2.0, rel=1e-12)
    assert lam[1, 0, 0] == 0.0


def test_milstein_tensor_constant_diffusion():
    problem = SdeProblem(
        d=1, m=1, horizon=1.0, initial_state=[0.0],
        drift=lambda t, x: (0.0,),
        diffusion=lambda t, x: ((0.7,),),
        milstein_tensor=lambda t, x: (((0.0,),),),
        noise_structure=NoiseStructure.SCALAR, xi=0.0, beta=1.0,
    )
    assert np.all(_stacked(problem.milstein_tensor, 0.2, np.array([5.0])) == 0.0)
    assert _finite_difference_milstein_tensor(problem, 0.2, [5.0]) == pytest.approx(
        np.zeros((1, 1, 1)), abs=1e-9
    )


@pytest.mark.parametrize("kind,params", [
    ("fhn", {}),
    ("gbm", {"a": 0.5, "sigma": 0.5, "x0": 1.0}),
    ("rough_drift", {"beta": 0.25, "c": 25.0}),
    ("double_well", {}),
    ("commuting_gbm", {}),  # d = m = 2, a test problem
])
def test_tensor_matches_finite_differences(kind, params):
    problem = (make_commuting_gbm() if kind == "commuting_gbm"
               else make_builtin(kind, **params))
    rng = np.random.default_rng(11)
    for _ in range(100):
        t = rng.random() * problem.horizon
        x = rng.normal(scale=3.0, size=problem.d)
        analytic = _stacked(problem.milstein_tensor, t, x)
        numeric = _finite_difference_milstein_tensor(problem, t, x)
        assert analytic == pytest.approx(numeric, rel=1e-5, abs=1e-10)


def test_builtin_defaults(fhn):
    assert fhn.d == 2 and fhn.m == 1
    assert fhn.initial_state == pytest.approx([2.0, -1.0])
    assert fhn.horizon == 1.0 and fhn.xi == 2.0 and fhn.beta == 0.5
    assert fhn.noise_structure is NoiseStructure.SCALAR
    assert fhn.taming_split is not None


def test_gbm_exact_terminal_degenerate():
    problem = make_builtin("gbm", a=0.0, sigma=0.0, x0=1.0)
    for w in (-2.0, 0.0, 1.5):
        assert _stacked(problem.exact_terminal, np.array([w])) == pytest.approx([1.0])


def test_gbm_exact_terminal_deterministic_limit():
    problem = make_builtin("gbm", a=0.7, sigma=0.0, x0=2.0)
    assert _stacked(problem.exact_terminal, np.array([0.3])) == pytest.approx(
        [2.0 * np.exp(0.7)], rel=1e-12
    )


def test_rough_drift_matches_fhn_at_zero(fhn):
    rough = make_builtin("rough_drift", beta=0.25, c=25.0)
    x = np.array([2.0, -1.0])
    assert rough.drift(0.0, x) == pytest.approx(fhn.drift(0.0, x), rel=1e-12)
    assert rough.beta == 0.25


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidParameterError):
        make_builtin("gbm", horizon=-1.0)
    with pytest.raises(InvalidParameterError):
        make_builtin("fhn", horizon=0.0)
    with pytest.raises(InvalidParameterError):
        make_builtin("fhn", horizon=float("nan"))
    with pytest.raises(InvalidParameterError):
        make_builtin("gbm", sigma=-0.1)
    with pytest.raises(InvalidParameterError):
        make_builtin("gbm", sigma=float("nan"))
    with pytest.raises(InvalidParameterError):
        make_builtin("fhn", sigma=float("nan"))
    with pytest.raises(InvalidParameterError):
        make_builtin("fhn", xi=float("nan"))
    with pytest.raises(InvalidParameterError):
        make_builtin("rough_drift", beta=0.0)
    with pytest.raises(InvalidParameterError):
        make_builtin("rough_drift", beta=1.5)
    with pytest.raises(InvalidParameterError):
        make_builtin("no_such_problem")
    # the ids are exact: no aliases and no case folding, as in the CLI
    for alias in ("FHN", "Gbm", "fitzhugh_nagumo", "geometric_brownian", ["gbm"]):
        with pytest.raises(InvalidParameterError):
            make_builtin(alias)
    with pytest.raises(InvalidParameterError):
        make_builtin("fhn", not_a_parameter=3)
    # a missing parameter is named, with the problem id
    with pytest.raises(InvalidParameterError, match="rough_drift: .*'beta'"):
        make_builtin("rough_drift")
    with pytest.raises(InvalidParameterError, match="kind"):
        make_builtin("gbm", kind=1.0)
    # the builtins' fixed constants are not parameters
    fixed = ("v0", "r0", "alpha", "gamma", "lam", "horizon", "xi")
    for kind, names, required in (("fhn", fixed, {}),
                                  ("rough_drift", fixed, {"beta": 0.25}),
                                  ("gbm", ("horizon",), {})):
        for name in names:
            with pytest.raises(InvalidParameterError, match=name):
                make_builtin(kind, **required, **{name: 1.0})


def test_problem_validation():
    good = dict(
        d=1, m=1, horizon=1.0, initial_state=[1.0],
        drift=lambda t, x: (0.0,),
        diffusion=lambda t, x: ((0.0,),),
        milstein_tensor=lambda t, x: (((0.0,),),),
        noise_structure=NoiseStructure.SCALAR, xi=0.0, beta=1.0,
    )
    SdeProblem(**good)
    for bad in (
        {"horizon": 0.0},
        {"xi": -1.0},
        {"xi": float("nan")},
        {"beta": 0.0},
        {"beta": 1.2},
        {"m": 2},  # scalar structure requires m == 1
        {"initial_state": [1.0, 2.0]},
        {"d": True},
        {"horizon": True},
        {"xi": float("inf")},
        {"taming_split": TamingSplit(good["drift"], good["drift"], (0.0,))},
        {"taming_split": TamingSplit(good["drift"], good["drift"], (True,))},
        {"taming_split": TamingSplit(good["drift"], good["drift"], (0, 0))},
        {"taming_split": (0,)},
        {"noise_structure": "general"},
    ):
        with pytest.raises(InvalidParameterError):
            SdeProblem(**{**good, **bad})
    with pytest.raises(InvalidParameterError, match="d and m"):
        SdeProblem(**{**good, "d": 1.5})


def test_initial_state_is_read_only(fhn):
    with pytest.raises(ValueError):
        fhn.initial_state[0] = 99.0
