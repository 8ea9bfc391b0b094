import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sde_rtm import schemes
from sde_rtm import (
    DimensionError,
    NoiseStructure,
    RandomizationStream,
    SchemeKind,
    SdeProblem,
    SeedPolicy,
    StepContext,
    StreamRole,
    UnsupportedNoiseStructureError,
    audit_taming,
    coarsen,
    derive_substream,
    integrate_path,
    iterated_integrals,
    make_builtin,
    sample_brownian_grid,
    sample_randomization,
    simulate_batch,
    step,
    tame_drift,
)

POLICY = SeedPolicy(1357)
FHN = make_builtin("fhn")

ALL_KINDS = list(SchemeKind)


# --- taming ------------------------------------------------------------------

def test_tame_drift_examples():
    out = tame_drift(np.array([-2.0 / 3.0]), np.array([2.0]), 4, 2.0)
    assert out == pytest.approx([-2.0 / 15.0], rel=1e-12)
    out = tame_drift(np.array([3.0, -1.0]), np.array([0.0, 0.0]), 10, 2.0)
    assert out == pytest.approx([3.0, -1.0], rel=1e-15)
    out = tame_drift(np.array([5.0]), np.array([2.0]), 1, 0.0)
    assert out == pytest.approx([2.5], rel=1e-12)


@settings(max_examples=200)
@given(
    mu=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=3),
    x=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3),
    n=st.integers(min_value=1, max_value=10 ** 6),
    xi=st.floats(min_value=0.0, max_value=4.0),
)
def test_tame_drift_contracts(mu, x, n, xi):
    x = x[: len(mu)] + [0.0] * (len(mu) - len(x))
    mu_arr, x_arr = np.array(mu), np.array(x)
    tamed = tame_drift(mu_arr, x_arr, n, xi)
    mu_norm = np.linalg.norm(mu_arr)
    assert np.linalg.norm(tamed) <= mu_norm * (1 + 1e-12)
    # pointwise O(1/n) consistency
    gap = np.linalg.norm(mu_arr - tamed)
    bound = mu_norm * np.linalg.norm(x_arr) ** (2 * xi) / n
    # the computed gap carries O(eps*|mu|) cancellation error, which can
    # dwarf the bound itself when the taming term is tiny
    eps = np.finfo(float).eps
    assert gap <= bound * (1 + 1e-12) + 8 * eps * (mu_norm + 1.0)


def test_tame_drift_validation():
    with pytest.raises(ValueError):
        tame_drift(np.array([1.0]), np.array([1.0]), 0, 1.0)
    with pytest.raises(ValueError):
        tame_drift(np.array([1.0]), np.array([1.0]), 1, -1.0)


# --- single steps ------------------------------------------------------------

def test_step_gbm_correction_cancels(gbm_unit):
    # (dW)^2 == dt makes the iterated integral vanish
    integrals = iterated_integrals(np.array([0.5]), 0.25, NoiseStructure.SCALAR)
    ctx = StepContext(t_left=0.0, dt=0.25, dW=np.array([0.5]), I=integrals, n=4)
    out = step(gbm_unit, SchemeKind.TAMED_MILSTEIN, [1.0], ctx)
    assert out == pytest.approx([1.5], rel=1e-12)


def test_step_gbm_pure_correction(gbm_unit):
    integrals = iterated_integrals(np.array([0.0]), 0.25, NoiseStructure.SCALAR)
    ctx = StepContext(t_left=0.0, dt=0.25, dW=np.array([0.0]), I=integrals, n=4)
    out = step(gbm_unit, SchemeKind.TAMED_MILSTEIN, [1.0], ctx)
    assert out == pytest.approx([0.875], rel=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_step_zero_coefficients_identity(zero_problem, kind):
    integrals = np.zeros((1, 1))
    ctx = StepContext(t_left=0.25, dt=0.25, dW=np.array([0.9]), I=integrals,
                      u=0.7, n=4)
    out = step(zero_problem, kind, [1.0, 2.0], ctx)
    assert np.array_equal(out, [1.0, 2.0])


def test_step_fhn_one_step_oracle(fhn):
    # direct arithmetic: taming denominator 1 + |2|^4 = 17 applies to the
    # cubic summand only; the input term uses the randomized time 0.25
    integrals = iterated_integrals(np.array([0.0]), 1.0, NoiseStructure.SCALAR)
    ctx = StepContext(t_left=0.0, dt=1.0, dW=np.array([0.0]), I=integrals,
                      u=0.25, n=1)
    out = step(fhn, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, [2.0, -1.0], ctx)
    expected_v = 2.0 + (2.0 - 8.0 / 3.0) / 17.0 + (1.0 + 25.0 * (1.0 - 0.5)) \
        + 0.5 * 0.001 ** 2 * 2.0 * (0.0 - 1.0)
    assert out[0] == pytest.approx(expected_v, rel=1e-12)
    assert out[1] == pytest.approx(1.8, rel=1e-12)


def test_step_left_endpoint_degeneracy(fhn):
    # u = 0 freezes the randomized time at the left endpoint: bit-identical
    integrals = iterated_integrals(np.array([0.3]), 0.125, NoiseStructure.SCALAR)
    ctx0 = StepContext(t_left=0.25, dt=0.125, dW=np.array([0.3]), I=integrals,
                       u=0.0, n=8)
    randomized = step(fhn, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, [1.5, 0.2], ctx0)
    classical = step(fhn, SchemeKind.TAMED_MILSTEIN, [1.5, 0.2], ctx0)
    assert np.array_equal(randomized, classical)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(min_value=-3.0, max_value=3.0))
def test_step_affine_in_increment(alpha):
    # with I held fixed, the step is affine in dW
    direction = np.array([0.4])
    integrals = np.zeros((1, 1))
    x = np.array([1.2, -0.3])

    def advance(scale):
        ctx = StepContext(t_left=0.5, dt=0.125, dW=scale * direction,
                          I=integrals, u=0.0, n=8)
        return step(FHN, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, x, ctx)

    base = advance(0.0)
    unit = advance(1.0) - base
    scaled = advance(alpha) - base
    assert scaled == pytest.approx(alpha * unit, rel=1e-9, abs=1e-12)


def test_step_dimension_checks(fhn):
    ctx = StepContext(t_left=0.0, dt=0.1, dW=np.array([0.1, 0.2]),
                      I=np.zeros((2, 2)), n=10)
    with pytest.raises(DimensionError):
        step(fhn, SchemeKind.TAMED_EULER, [1.0, 2.0], ctx)
    ctx2 = StepContext(t_left=0.0, dt=0.1, dW=np.array([0.1]), I=None, n=10)
    with pytest.raises(ValueError):
        step(fhn, SchemeKind.TAMED_MILSTEIN, [1.0, 2.0], ctx2)


# --- whole paths -------------------------------------------------------------

def _grid_and_uniforms(level, path_index=0, m=1, horizon=1.0):
    grid = sample_brownian_grid(
        level, m, horizon, derive_substream(POLICY, path_index, StreamRole.BROWNIAN)
    )
    uniforms = sample_randomization(
        grid.n, derive_substream(POLICY, path_index, StreamRole.RANDOMIZATION)
    )
    return grid, uniforms


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_integrate_zero_problem(zero_problem, kind):
    grid, uniforms = _grid_and_uniforms(5)
    result = integrate_path(zero_problem, kind, 3, grid, uniforms)
    assert np.array_equal(result.terminal, zero_problem.initial_state)
    assert not result.overflowed


def test_integrate_self_comparison_is_exact(fhn):
    # same level, same grid, same uniforms: identical terminals
    grid, uniforms = _grid_and_uniforms(6)
    a = integrate_path(fhn, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, 6, grid, uniforms)
    b = integrate_path(fhn, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, 6, grid, uniforms)
    assert np.array_equal(a.terminal, b.terminal)


def test_integrate_zero_uniforms_match_classical(fhn):
    grid, _ = _grid_and_uniforms(6)
    zeros = RandomizationStream(np.zeros(grid.n))
    randomized = integrate_path(fhn, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, 6,
                                grid, zeros)
    classical = integrate_path(fhn, SchemeKind.TAMED_MILSTEIN, 6, grid)
    assert np.array_equal(randomized.terminal, classical.terminal)


def test_randomization_irrelevant_for_time_constant_drift():
    problem = make_builtin("gbm", a=0.5, sigma=0.5, x0=1.0)
    grid, uniforms = _grid_and_uniforms(6)
    other = sample_randomization(
        grid.n, derive_substream(POLICY, 99, StreamRole.RANDOMIZATION)
    )
    a = integrate_path(problem, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, 6, grid,
                       uniforms)
    b = integrate_path(problem, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, 6, grid,
                       other)
    assert np.array_equal(a.terminal, b.terminal)


def test_integrate_uses_coarsened_grid(fhn):
    grid, uniforms = _grid_and_uniforms(8)
    direct = integrate_path(fhn, SchemeKind.TAMED_MILSTEIN, 5, grid)
    precoarsened = integrate_path(fhn, SchemeKind.TAMED_MILSTEIN, 5,
                                  coarsen(grid, 5))
    assert np.array_equal(direct.terminal, precoarsened.terminal)


def test_deterministic_taming_limit():
    # sigma = 0, xi = 0: explicit tamed integrator of x' = a x; the error
    # against x0*exp(a T) halves when the step count doubles
    problem = make_builtin("gbm", a=1.0, sigma=0.0, x0=1.0)
    errors = []
    for level in (6, 7, 8, 9):
        grid, uniforms = _grid_and_uniforms(level)
        result = integrate_path(problem, SchemeKind.TAMED_EULER, level, grid,
                                uniforms)
        errors.append(abs(result.terminal[0] - np.exp(1.0)))
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    for ratio in ratios:
        assert 1.8 <= ratio <= 2.2


def test_overflow_marker_on_explosive_problem():
    def drift(t, x):
        xa = np.asarray(x, dtype=float)
        return xa ** 3

    explosive = SdeProblem(
        d=1, m=1, horizon=1.0, initial_state=[2.0],
        drift=drift,
        diffusion=lambda t, x: np.zeros(np.asarray(x).shape + (1,)),
        milstein_tensor=lambda t, x: np.zeros(np.asarray(x).shape + (1, 1)),
        noise_structure=NoiseStructure.SCALAR, xi=2.0, beta=1.0,
    )
    grid, uniforms = _grid_and_uniforms(4)
    result = integrate_path(explosive, SchemeKind.EULER_MARUYAMA, 4, grid, uniforms)
    assert result.overflowed
    assert 0 <= result.overflow_step < grid.n
    # the tamed variant of the same problem stays finite
    tamed = integrate_path(explosive, SchemeKind.TAMED_EULER, 4, grid, uniforms)
    assert not tamed.overflowed


def test_keep_path_shape(fhn):
    grid, uniforms = _grid_and_uniforms(4)
    result = integrate_path(fhn, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, 4, grid,
                            uniforms, keep_path=True)
    assert result.path.shape == (17, 2)
    assert np.array_equal(result.path[0], fhn.initial_state)
    assert np.array_equal(result.path[-1], result.terminal)


def test_general_noise_rejected_for_milstein_kinds(fhn):
    general = dataclasses.replace(
        dataclasses.replace(fhn, taming_split=None),
        noise_structure=NoiseStructure.GENERAL, m=1,
    )
    grid, uniforms = _grid_and_uniforms(3)
    with pytest.raises(UnsupportedNoiseStructureError):
        integrate_path(general, SchemeKind.TAMED_MILSTEIN, 3, grid)
    # Euler kinds do not touch iterated integrals and must still run
    result = integrate_path(general, SchemeKind.TAMED_EULER, 3, grid)
    assert not result.overflowed


def test_integrate_validation(fhn):
    grid, uniforms = _grid_and_uniforms(4)
    with pytest.raises(ValueError):
        integrate_path(fhn, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, 4, grid)
    short = RandomizationStream(np.zeros(3))
    with pytest.raises(DimensionError):
        integrate_path(fhn, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, 4, grid, short)
    wide = sample_brownian_grid(4, 2, 1.0,
                                derive_substream(POLICY, 0, StreamRole.BROWNIAN))
    with pytest.raises(DimensionError):
        integrate_path(fhn, SchemeKind.TAMED_EULER, 4, wide)


# --- batch kernel against single steps -----------------------------------------

def _late_blowup_problem():
    # x' = x^3 from 0.8 blows up near t = 0.78, so explicit Euler on 512
    # steps overflows well past the first 256-step chunk
    def drift(t, x):
        return np.asarray(x, dtype=float) ** 3

    return SdeProblem(
        d=1, m=1, horizon=1.0, initial_state=[0.8],
        drift=drift,
        diffusion=lambda t, x: np.full(np.asarray(x).shape + (1,), 0.5),
        milstein_tensor=lambda t, x: np.zeros(np.asarray(x).shape + (1, 1)),
        noise_structure=NoiseStructure.SCALAR, xi=1.0, beta=1.0,
    )


def _stepped_reference(problem, kind, inc, uniforms):
    """Path-by-path loop over step(), checking finiteness after every step."""
    batch, n, _ = inc.shape
    dt = problem.horizon / n
    paths = np.empty((batch, n + 1, problem.d))
    overflow = np.full(batch, -1, dtype=np.int64)
    with np.errstate(all="ignore"):
        for b in range(batch):
            x = problem.initial_state
            paths[b, 0] = x
            for j in range(n):
                ctx = StepContext(
                    t_left=j * dt, dt=dt, dW=inc[b, j],
                    I=iterated_integrals(inc[b, j], dt, problem.noise_structure),
                    u=uniforms[b, j], n=n,
                )
                x = step(problem, kind, x, ctx)
                paths[b, j + 1] = x
                if overflow[b] < 0 and not np.isfinite(x).all():
                    overflow[b] = j
    return paths[:, -1], overflow, paths


def _batch_inputs(problem, batch, n, seed):
    rng = np.random.default_rng(seed)
    inc = rng.standard_normal((batch, n, problem.m)) * np.sqrt(problem.horizon / n)
    return inc, rng.random((batch, n))


def _assert_same(actual, expected):
    for got, want in zip(actual, expected):
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("params,n", [({}, 40), ({"sigma": 3.0, "i_amp": 60.0}, 16)])
def test_simulate_batch_independent_of_chunk_size(monkeypatch, kind, params, n):
    problem = make_builtin("fhn", **params)
    inc, uniforms = _batch_inputs(problem, 24, n, seed=n)
    u = uniforms if kind is SchemeKind.RANDOMIZED_TAMED_MILSTEIN else None
    expected = _stepped_reference(problem, kind, inc, uniforms)
    if params and kind is SchemeKind.EULER_MARUYAMA:
        assert (expected[1] >= 0).any()  # the overflow scan has work to do
    # 1, 3 and 7 divide neither step count; n and 2n hold the whole grid
    for chunk in (1, 3, 7, n, 2 * n):
        monkeypatch.setattr(schemes, "_CHUNK", chunk)
        _assert_same(simulate_batch(problem, kind, inc, u, keep_path=True), expected)
        terminal, overflow, path = simulate_batch(problem, kind, inc, u)
        _assert_same((terminal, overflow), expected[:2])
        assert path is None
        # the resumable stepper fed in uneven pieces, time-major
        for cuts in ([5, 1, 13], [2, n - 3]):
            _assert_same(_fed_in_pieces(problem, kind, inc, uniforms, cuts), expected)


def _fed_in_pieces(problem, kind, inc, uniforms, cuts):
    """Feed a BatchStepper the grid in pieces split at the running sums of
    ``cuts``, collecting the observed states into whole paths."""
    batch, n, _ = inc.shape
    paths = np.full((batch, n + 1, problem.d), -7.0)
    paths[:, 0] = problem.initial_state

    def observe(index, states):
        paths[:, index:index + len(states)] = states.transpose(1, 0, 2)

    stepper = schemes.BatchStepper(problem, kind, n, batch)
    bounds = [0, *np.cumsum(cuts)[np.cumsum(cuts) < n], n]
    for j0, j1 in zip(bounds, bounds[1:]):
        stepper.feed(inc[:, j0:j1].transpose(1, 0, 2), uniforms[:, j0:j1].T, observe)
    assert stepper.steps == n
    with pytest.raises(DimensionError):
        stepper.feed(inc[:, :1].transpose(1, 0, 2), uniforms[:, :1].T)
    return stepper.x, stepper.overflow, paths


def test_overflow_steps_past_first_chunk_match_stepping():
    problem = _late_blowup_problem()
    inc, uniforms = _batch_inputs(problem, 12, 512, seed=3)
    kind = SchemeKind.EULER_MARUYAMA
    expected = _stepped_reference(problem, kind, inc, uniforms)
    assert (expected[1] >= schemes._CHUNK).sum() >= 6
    _assert_same(simulate_batch(problem, kind, inc, keep_path=True), expected)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_step_rejects_general_noise_and_bad_increments(fhn, kind):
    general = dataclasses.replace(
        dataclasses.replace(fhn, taming_split=None),
        noise_structure=NoiseStructure.GENERAL,
    )
    ctx = StepContext(t_left=0.0, dt=0.1, dW=np.array([0.1]), I=np.zeros((1, 1)),
                      u=0.5, n=10)
    if kind in (SchemeKind.TAMED_MILSTEIN, SchemeKind.RANDOMIZED_TAMED_MILSTEIN):
        with pytest.raises(UnsupportedNoiseStructureError):
            step(general, kind, [1.0, 2.0], ctx)
    else:
        assert np.isfinite(step(general, kind, [1.0, 2.0], ctx)).all()
    wide = dataclasses.replace(ctx, dW=np.array([0.1, 0.2]), I=np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        step(fhn, kind, [1.0, 2.0], wide)
    with pytest.raises(DimensionError):
        step(fhn, kind, [1.0, 2.0, 3.0], ctx)


# --- taming audit ------------------------------------------------------------

@pytest.mark.parametrize("kind,params", [("fhn", {}), ("gbm", {})])
def test_audit_ratios_bounded(kind, params):
    problem = make_builtin(kind, **params)
    stream = derive_substream(POLICY, 0, StreamRole.RANDOMIZATION)
    audit = audit_taming(problem, [4, 16, 64], 300, 6.0, stream)
    for row in audit.rows:
        assert row.max_drift_ratio <= 1.0 + 1e-12
        assert row.consistency_ratio <= 1.0 + 1e-9
        assert np.isfinite(row.growth_constant)


def test_audit_gbm_growth_constant_stable():
    # xi = 0: the taming denominator 1 + 1/n tends to 1, so the growth
    # column scales like a/sqrt(n) with stable prefactor
    problem = make_builtin("gbm", a=1.0, sigma=0.5, x0=1.0)
    stream = derive_substream(POLICY, 0, StreamRole.RANDOMIZATION)
    audit = audit_taming(problem, [16, 64, 256], 500, 5.0, stream)
    scaled = [row.growth_constant * np.sqrt(row.n) for row in audit.rows]
    assert max(scaled) / min(scaled) <= 1.1


def test_audit_validation(fhn):
    stream = derive_substream(POLICY, 0, StreamRole.RANDOMIZATION)
    with pytest.raises(ValueError):
        audit_taming(fhn, [4], 0, 1.0, stream)
    with pytest.raises(ValueError):
        audit_taming(fhn, [4], 10, -1.0, stream)
