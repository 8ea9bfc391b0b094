import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sde_rtm import schemes
from sde_rtm import (
    InvalidParameterError,
    NoiseStructure,
    RandomizationStream,
    SchemeKind,
    SdeProblem,
    SeedPolicy,
    StreamRole,
    UnsupportedNoiseStructureError,
    coarsen,
    derive_substream,
    integrate_path,
    iterated_integrals,
    make_builtin,
    randomized_time,
    sample_brownian_grid,
    sample_randomization,
    simulate_batch,
    tame_drift,
)
from tests.conftest import make_commuting_gbm, make_zero_problem

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
    with pytest.raises(ValueError):
        tame_drift(np.array([1.0]), np.array([1.0]), 1, float("nan"))
    # n is an integer step count and xi a finite exponent
    for n, xi in ((2.5, 2.0), (True, 2.0), (4, float("inf"))):
        with pytest.raises(InvalidParameterError):
            tame_drift(np.ones(2), np.ones(2), n, xi)
    # the drift has the state's shape, also for batches
    for mu, x in ((np.ones(3), np.ones(2)), (np.ones((5, 3)), np.ones((4, 2)))):
        with pytest.raises(InvalidParameterError, match="drift shape .* differs from state"):
            tame_drift(mu, x, 4, 1.0)
    # a state of no component has no norm
    for shape in ((0,), (3, 0)):
        with pytest.raises(InvalidParameterError, match="has no component"):
            tame_drift(np.ones(shape), np.ones(shape), 4, 1.0)


# --- single steps ------------------------------------------------------------

def _one_step(problem, kind, x, t_left, dt, dw, iw, u, n):
    """One step of ``kind`` from the state ``x``, through the kernel that
    BatchStepper runs, as a batch of one path.

    ``dw`` is the increment (m,), ``iw`` the iterated integrals (m, m), read
    by the Milstein kinds only, and ``u`` the uniform draw that puts the
    drift time of the randomized kind at ``randomized_time(t_left, dt, u)``.
    """
    advance = schemes._step_batch(problem, kind, dt, n)

    def components(values):  # (B,) arrays of one path
        return [np.array([value]) for value in np.ravel(values)]

    iw = components(iw) if kind in schemes._MILSTEIN_KINDS else None
    if kind is SchemeKind.RANDOMIZED_TAMED_MILSTEIN:
        t_drift = randomized_time(t_left, dt, np.array([u]))
    else:
        t_drift = t_left
    out = np.empty((problem.d, 1))
    return advance(components(x), t_left, t_drift, components(dw), iw, out)[:, 0]


def test_step_gbm_correction_cancels(gbm_unit):
    # (dW)^2 == dt makes the iterated integral vanish
    integrals = iterated_integrals(np.array([0.5]), 0.25, NoiseStructure.SCALAR)
    out = _one_step(gbm_unit, SchemeKind.TAMED_MILSTEIN, [1.0], 0.0, 0.25,
                    [0.5], integrals, 0.0, 4)
    assert out == pytest.approx([1.5], rel=1e-12)


def test_step_gbm_pure_correction(gbm_unit):
    integrals = iterated_integrals(np.array([0.0]), 0.25, NoiseStructure.SCALAR)
    out = _one_step(gbm_unit, SchemeKind.TAMED_MILSTEIN, [1.0], 0.0, 0.25,
                    [0.0], integrals, 0.0, 4)
    assert out == pytest.approx([0.875], rel=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_step_zero_coefficients_identity(zero_problem, kind):
    out = _one_step(zero_problem, kind, [1.0, 2.0], 0.25, 0.25, [0.9],
                    np.zeros((1, 1)), 0.7, 4)
    assert np.array_equal(out, [1.0, 2.0])


def test_step_fhn_one_step_oracle(fhn):
    # direct arithmetic: taming denominator 1 + |2|^4 = 17 applies to the
    # cubic summand only; the input term uses the randomized time 0.25
    integrals = iterated_integrals(np.array([0.0]), 1.0, NoiseStructure.SCALAR)
    out = _one_step(fhn, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, [2.0, -1.0], 0.0,
                    1.0, [0.0], integrals, 0.25, 1)
    expected_v = 2.0 + (2.0 - 8.0 / 3.0) / 17.0 + (1.0 + 25.0 * (1.0 - 0.5)) \
        + 0.5 * 0.001 ** 2 * 2.0 * (0.0 - 1.0)
    assert out[0] == pytest.approx(expected_v, rel=1e-12)
    assert out[1] == pytest.approx(1.8, rel=1e-12)


def test_step_left_endpoint_degeneracy(fhn):
    # u = 0 freezes the randomized time at the left endpoint: bit-identical
    integrals = iterated_integrals(np.array([0.3]), 0.125, NoiseStructure.SCALAR)
    inputs = ([1.5, 0.2], 0.25, 0.125, [0.3], integrals, 0.0, 8)
    randomized = _one_step(fhn, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, *inputs)
    classical = _one_step(fhn, SchemeKind.TAMED_MILSTEIN, *inputs)
    assert np.array_equal(randomized, classical)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(min_value=-3.0, max_value=3.0))
def test_step_affine_in_increment(alpha):
    # with I held fixed, the step is affine in dW
    direction = np.array([0.4])
    integrals = np.zeros((1, 1))
    x = np.array([1.2, -0.3])

    def advance(scale):
        return _one_step(FHN, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, x, 0.5, 0.125,
                         scale * direction, integrals, 0.0, 8)

    base = advance(0.0)
    unit = advance(1.0) - base
    scaled = advance(alpha) - base
    assert scaled == pytest.approx(alpha * unit, rel=1e-9, abs=1e-12)


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
    assert result.overflow_step is None


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
    explosive = SdeProblem(
        d=1, m=1, horizon=1.0, initial_state=[2.0],
        drift=lambda t, x: (x[0] ** 3,),
        diffusion=lambda t, x: ((0.0,),),
        milstein_tensor=lambda t, x: (((0.0,),),),
        noise_structure=NoiseStructure.SCALAR, xi=2.0, beta=1.0,
    )
    grid, uniforms = _grid_and_uniforms(4)
    result = integrate_path(explosive, SchemeKind.EULER_MARUYAMA, 4, grid, uniforms)
    assert result.overflow_step is not None
    assert 0 <= result.overflow_step < grid.n
    # the tamed variant of the same problem stays finite
    tamed = integrate_path(explosive, SchemeKind.TAMED_EULER, 4, grid, uniforms)
    assert tamed.overflow_step is None


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
    assert result.overflow_step is None


def test_integrate_validation(fhn):
    grid, uniforms = _grid_and_uniforms(4)
    with pytest.raises(ValueError):
        integrate_path(fhn, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, 4, grid)
    short = RandomizationStream(np.zeros(3))
    with pytest.raises(InvalidParameterError, match="randomized kind needs uniforms"):
        integrate_path(fhn, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, 4, grid, short)
    wide = sample_brownian_grid(4, 2, 1.0,
                                derive_substream(POLICY, 0, StreamRole.BROWNIAN))
    with pytest.raises(InvalidParameterError, match=re.escape("must have shape (C, 1, 1)")):
        integrate_path(fhn, SchemeKind.TAMED_EULER, 4, wide)
    with pytest.raises(InvalidParameterError,
                       match="^" + re.escape("level must be an integer in [0, 4]")):
        integrate_path(fhn, SchemeKind.TAMED_EULER, 1.5, grid)
    for batch in (1.5, -1, True, 0):
        with pytest.raises(InvalidParameterError, match="batch"):
            schemes.BatchStepper(fhn, SchemeKind.TAMED_EULER, 4, batch)
    # the step count follows the taming rule for n: an integer in [1, 2**62]
    for n_steps in (0, 2 ** 62 + 1, 2.5, True):
        with pytest.raises(InvalidParameterError,
                           match=re.escape(f"n_steps must be an integer in [1, {2 ** 62}]")):
            schemes.BatchStepper(fhn, SchemeKind.TAMED_EULER, n_steps, 1)
    assert schemes.BatchStepper(fhn, SchemeKind.TAMED_EULER, 2 ** 62, 1).n_steps == 2 ** 62
    with pytest.raises(InvalidParameterError, match="kind"):
        schemes.BatchStepper(fhn, "tamed_euler", 4, 1)
    with pytest.raises(InvalidParameterError, match="kind"):
        integrate_path(fhn, "tamed_euler", 4, grid)


# --- batch kernel against single steps -----------------------------------------

def _late_blowup_problem():
    # x' = x^3 from 0.8 blows up near t = 0.78, so explicit Euler on 512
    # steps overflows well past the first 256-step chunk
    return SdeProblem(
        d=1, m=1, horizon=1.0, initial_state=[0.8],
        drift=lambda t, x: (x[0] ** 3,),
        diffusion=lambda t, x: ((0.5,),),
        milstein_tensor=lambda t, x: (((0.0,),),),
        noise_structure=NoiseStructure.SCALAR, xi=1.0, beta=1.0,
    )


def _stepped_reference(problem, kind, inc, uniforms):
    """Path-by-path loop over _one_step, checking finiteness after every step."""
    batch, n, _ = inc.shape
    dt = problem.horizon / n
    paths = np.empty((batch, n + 1, problem.d))
    overflow = np.full(batch, -1, dtype=np.int64)
    with np.errstate(all="ignore"):
        for b in range(batch):
            x = problem.initial_state
            paths[b, 0] = x
            for j in range(n):
                integrals = iterated_integrals(inc[b, j], dt, problem.noise_structure)
                x = _one_step(problem, kind, x, j * dt, dt, inc[b, j], integrals,
                              uniforms[b, j], n)
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
        terminal, overflow, path = simulate_batch(problem, kind, inc, u)
        _assert_same((terminal, overflow), expected[:2])
        assert path is None
        # the resumable stepper fed the whole grid, then uneven pieces, then
        # pieces led by and holding empty ones
        for cuts in ([n], [5, 1, 13], [2, n - 3], [0, 5, 0, 11]):
            _assert_same(_fed_in_pieces(problem, kind, inc, uniforms, cuts), expected)


def _fed_in_pieces(problem, kind, inc, uniforms, cuts):
    """Feed a BatchStepper the grid in pieces split at the running sums of
    ``cuts``, collecting the observed states into whole paths and checking
    the observer contract: grid points 0 to n arrive once each, in order,
    each with the finite mask of its states."""
    batch, n, _ = inc.shape
    paths = np.full((batch, n + 1, problem.d), -7.0)
    seen = []

    def observe(index, states, finite):  # (C, d, B) and (C, B)
        assert np.array_equal(finite, np.isfinite(states).all(axis=1))
        seen.extend(range(index, index + len(states)))
        paths[:, index:index + len(states)] = states.transpose(2, 0, 1)

    stepper = schemes.BatchStepper(problem, kind, n, batch)
    bounds = [0, *np.cumsum(cuts)[np.cumsum(cuts) < n], n]
    for j0, j1 in zip(bounds, bounds[1:]):
        stepper.feed(inc[:, j0:j1].transpose(1, 0, 2), uniforms[:, j0:j1].T, observe)
    assert stepper.steps == n
    assert seen == list(range(n + 1))
    with pytest.raises(InvalidParameterError, match=f"more than {n} steps fed"):
        stepper.feed(inc[:, :1].transpose(1, 0, 2), uniforms[:, :1].T)
    return stepper.x, stepper.overflow, paths


def _with_zero_arrays(problem):
    """``problem`` with every structural zero written as a zero array."""
    def arrays(entries, like):
        if isinstance(entries, (tuple, list)):
            return tuple(arrays(entry, like) for entry in entries)
        return np.zeros(np.shape(like)) if schemes._is_zero(entries) else entries

    def wrap(coefficient):
        return lambda t, x: arrays(coefficient(t, x), x[0])

    split = problem.taming_split
    if split is not None:
        split = dataclasses.replace(split, superlinear=wrap(split.superlinear),
                                    remainder=wrap(split.remainder))
    return dataclasses.replace(problem, drift=wrap(problem.drift),
                               diffusion=wrap(problem.diffusion),
                               milstein_tensor=wrap(problem.milstein_tensor),
                               taming_split=split)


def _noise_from_half_time(problem, s=0.5):
    """``problem`` with the noise ``s x_2 dW`` added to its second
    component from t = 0.5 on: that component's diffusion and Milstein-tensor
    entries are structural zeros before t = 0.5 and arrays after."""
    diffusion, milstein_tensor = problem.diffusion, problem.milstein_tensor
    return dataclasses.replace(
        problem,
        diffusion=lambda t, x: (diffusion(t, x)[0],
                                (0.0,) if t < 0.5 else (s * x[1],)),
        milstein_tensor=lambda t, x: (milstein_tensor(t, x)[0],
                                      ((0.0,),) if t < 0.5 else ((s * s * x[1],),)))


def _cubic_from_half_time(problem):
    """fhn ``problem`` without its cubic summand before t = 0.5: the entries
    of the taming split's superlinear summand are structural zeros before
    t = 0.5 and arrays after, so a tamed kind's plan skips the whole tamed
    term until it is rebuilt at t = 0.5."""
    split = problem.taming_split

    def before(t):  # t is a (B,) array of drift times for the randomized kind
        return bool(np.all(np.asarray(t) < 0.5))

    return dataclasses.replace(
        problem,
        drift=lambda t, x: split.remainder(t, x) if before(t) else problem.drift(t, x),
        taming_split=dataclasses.replace(
            split, superlinear=lambda t, x: ((0.0, 0.0) if before(t)
                                             else split.superlinear(t, x))))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("problem", [
    make_builtin("fhn", sigma=3.0, i_amp=60.0),         # m = 1, overflows
    make_commuting_gbm(s=((0.4, 0.0), (0.1, 0.5))),     # m = 2
    # the zeros move at step 8, inside the second fed piece
    _noise_from_half_time(make_builtin("fhn", sigma=3.0, i_amp=60.0)),
    _cubic_from_half_time(make_builtin("fhn", sigma=3.0, i_amp=60.0)),
], ids=["fhn", "commuting_gbm", "fhn_zeros_move", "fhn_cubic_moves"])
def test_structural_zeros_step_as_zero_arrays(kind, problem):
    # skipping a 0.0 entry gives the bits that multiplying a zero array gives
    x = [np.ones(3)] * problem.d
    zeros = [entry for row in problem.diffusion(0.0, x) for entry in row]
    assert any(schemes._is_zero(entry) for entry in zeros)
    inc, uniforms = _batch_inputs(problem, 24, 16, seed=16)
    skipped = _fed_in_pieces(problem, kind, inc, uniforms, [5, 11])
    multiplied = _fed_in_pieces(_with_zero_arrays(problem), kind, inc, uniforms,
                                [5, 11])
    _assert_same(skipped, multiplied)
    if kind is SchemeKind.EULER_MARUYAMA and problem.m == 1:
        assert (skipped[1] >= 0).any()  # overflowed paths compare too


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("chunk", [1, 256])
def test_coefficients_returning_the_state_itself(monkeypatch, kind, chunk):
    # b = (x_2, x_1) and rho = (x_2, x_1) hand the kernel the state's own
    # arrays, which must not be the rows a step writes; one-step chunks and
    # one-step pieces are where the buffer would be read and written at once
    problem = SdeProblem(
        d=2, m=1, horizon=1.0, initial_state=[1.0, -0.5],
        drift=lambda t, x: (x[1], x[0]),
        diffusion=lambda t, x: ((x[1],), (x[0],)),
        milstein_tensor=lambda t, x: (((x[0],),), ((x[1],),)),
        noise_structure=NoiseStructure.SCALAR, xi=0.0, beta=1.0,
    )
    monkeypatch.setattr(schemes, "_CHUNK", chunk)
    inc, uniforms = _batch_inputs(problem, 5, 16, seed=chunk)
    expected = _stepped_reference(problem, kind, inc, uniforms)
    for cuts in ([16], [1, 1, 1, 2, 1, 10]):
        _assert_same(_fed_in_pieces(problem, kind, inc, uniforms, cuts), expected)


def test_overflow_steps_past_first_chunk_match_stepping():
    problem = _late_blowup_problem()
    inc, uniforms = _batch_inputs(problem, 12, 512, seed=3)
    kind = SchemeKind.EULER_MARUYAMA
    expected = _stepped_reference(problem, kind, inc, uniforms)
    assert (expected[1] >= schemes._CHUNK).sum() >= 6
    _assert_same(simulate_batch(problem, kind, inc)[:2], expected[:2])
    _assert_same(_fed_in_pieces(problem, kind, inc, uniforms, [512]), expected)


def test_randomized_drift_time_stays_inside_each_step():
    # u one ulp below 1 on the level-14 grid: t_j + dt * u rounds onto
    # t_{j+1} for j >= 1, so the kernel must cap it as randomized_time does
    seen = []

    def drift(t, x):
        seen.append(np.array(t, dtype=float))
        return (0.0,)

    problem = SdeProblem(
        d=1, m=1, horizon=1.0, initial_state=[0.0], drift=drift,
        diffusion=lambda t, x: ((0.0,),),
        milstein_tensor=lambda t, x: (((0.0,),),),
        noise_structure=NoiseStructure.SCALAR, xi=0.0, beta=1.0,
    )
    n, batch, u = 1 << 14, 2, np.nextafter(1.0, 0.0)
    dt = 1.0 / n
    stepper = schemes.BatchStepper(problem, SchemeKind.RANDOMIZED_TAMED_MILSTEIN,
                                   n, batch)
    stepper.feed(np.zeros((n, batch, 1)), np.full((n, batch), u))
    t_drift = np.stack(seen)
    t_left = np.arange(n) * dt
    assert t_drift.shape == (n, batch)
    assert (t_drift < (t_left + dt)[:, None]).all()
    want = np.array([randomized_time(t, dt, u) for t in t_left])
    assert np.array_equal(t_drift, np.repeat(want[:, None], batch, axis=1))


@pytest.mark.parametrize("bad", [1.0, -0.25, float("nan")])
def test_feed_rejects_uniforms_outside_unit_interval(bad):
    stepper = schemes.BatchStepper(FHN, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, 4, 3)
    uniforms = np.full((4, 3), 0.5)
    uniforms[2, 1] = bad
    with pytest.raises(InvalidParameterError, match="u must lie"):
        stepper.feed(np.zeros((4, 3, 1)), uniforms)


@pytest.mark.parametrize("problem,kind,n_steps,increments,uniforms,message", [
    # m = 1 increments on an m = 2 problem
    (make_zero_problem(d=2, m=2), SchemeKind.TAMED_EULER, 4, (4, 3, 1), None,
     "increments must have shape (C, 3, 2)"),
    # one path's increments for three paths
    (FHN, SchemeKind.TAMED_MILSTEIN, 4, (4, 1, 1), None,
     "increments must have shape (C, 3, 1)"),
    # one path's uniforms for three paths
    (FHN, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, 4, (4, 3, 1), (4, 1),
     "the randomized kind needs uniforms of shape (4, 3)"),
    # fewer uniforms than steps
    (FHN, SchemeKind.RANDOMIZED_TAMED_MILSTEIN, 4, (4, 3, 1), (3, 3),
     "the randomized kind needs uniforms of shape (4, 3)"),
    # a grid of no steps, which has no step size
    (FHN, SchemeKind.TAMED_EULER, 0, (0, 3, 1), None,
     "n_steps must be an integer in [1, "),
], ids=["m", "increment-width", "uniform-width", "uniform-steps", "no-steps"])
def test_feed_rejects_inputs_shaped_for_another_block(problem, kind, n_steps,
                                                      increments, uniforms, message):
    u = None if uniforms is None else np.full(uniforms, 0.5)
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        stepper = schemes.BatchStepper(problem, kind, n_steps, 3)
        stepper.feed(np.zeros(increments), u)
    if n_steps:  # the stepper was built, and took no step
        assert stepper.steps == 0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_step_rejects_general_noise_and_bad_increments(fhn, kind):
    general = dataclasses.replace(
        dataclasses.replace(fhn, taming_split=None),
        noise_structure=NoiseStructure.GENERAL,
    )
    inputs = ([1.0, 2.0], 0.0, 0.1, [0.1], np.zeros((1, 1)), 0.5, 10)
    if kind in schemes._MILSTEIN_KINDS:
        with pytest.raises(UnsupportedNoiseStructureError):
            _one_step(general, kind, *inputs)
    else:
        assert np.isfinite(_one_step(general, kind, *inputs)).all()


# --- growth bound of the taming the kernel steps ----------------------------

# |b_n(t, x)| <= (c3 sqrt(n) + L) (1 + |x|) for the drift b_n the kernel
# steps with n steps, (c3, L) read off each builtin's formula.  A tamed cubic
# k x^3 / (1 + x^4 / n) is at most k |x| sqrt(n) sup_u u / (1 + u^2) =
# k |x| sqrt(n) / 2, so c3 is 1/6 for the FitzHugh-Nagumo cubic V^3 / 3, 1/2
# for the double well and 0 for gbm, which has no cubic.  L bounds the rest:
# |V| + |R| + |input| and 0.8 |V| + 0.56 + 0.64 |R| for fhn and rough_drift
# (input c (1 - t^beta) with c = 25) give 1.8 sqrt(2) |x| + 25.56, under
# 26 (1 + |x|); |x| for the double well; a |x| with a = 0.5 for gbm.
_GROWTH_BOUNDS = {
    "fhn": ({}, 1.0 / 6.0, 26.0),
    "rough_drift": ({"beta": 0.25}, 1.0 / 6.0, 26.0),
    "gbm": ({}, 0.0, 0.5),
    "double_well": ({}, 0.5, 1.0),
}


def _growth_grid(d):
    # 9 times in [0, 1] against V (or x) at 0 and +-1e-3 .. 1e4 and R at 7 values
    magnitudes = np.geomspace(1e-3, 1e4, 241)
    axes = [np.linspace(0.0, 1.0, 9), np.concatenate([-magnitudes, [0.0], magnitudes])]
    if d == 2:
        axes.append(np.array([-50.0, -5.0, -1.0, 0.0, 1.0, 5.0, 50.0]))
    t, *x = (axis.ravel() for axis in np.meshgrid(*axes, indexing="ij"))
    return t, x


def _norm(entries):
    return np.sqrt(sum(np.square(entry) for entry in entries))


def _kernel_drift(problem, n, t, x):
    # b_n = wild / taming(x[norm]) + mild, from the drift rule the kernel
    # steps for a tamed kind; one noiseless kernel step must give x + b_n dt
    # bit for bit, so the bound holds for the drift the kernel applies
    kind = SchemeKind.TAMED_MILSTEIN
    wild, mild, norm, taming = schemes._drift_rule(problem, kind, n)
    denominator = taming([x[r] for r in norm])
    mild = [0.0] * problem.d if mild is None else mild(t, x)
    b = [w / denominator + v for w, v in zip(wild(t, x), mild)]
    dt, zeros = problem.horizon / n, np.zeros_like(t)
    out = schemes._step_batch(problem, kind, dt, n)(
        x, t, t, [zeros] * problem.m, [zeros] * problem.m ** 2, np.empty((problem.d, len(t))))
    np.testing.assert_array_equal(out, [x_i + b_i * dt for x_i, b_i in zip(x, b)])
    return b


@pytest.mark.parametrize("name", sorted(_GROWTH_BOUNDS))
def test_kernel_taming_growth_bound(name):
    # C_n = max |b_n(t, x)| / (sqrt(n) (1 + |x|)) stays under c3 + L / sqrt(n)
    # for n = 2^4 .. 2^20, on a fixed grid.  The taming of Hutzenthaler,
    # Jentzen and Kloeden (2012), mu / (1 + |mu| / n), is the negative
    # control: with a cubic drift it breaks the bound at n = 2^20.
    params, c3, lipschitz = _GROWTH_BOUNDS[name]
    problem = make_builtin(name, **params)
    t, x = _growth_grid(problem.d)
    scale = 1.0 + _norm(x)
    for n in (2 ** 4, 2 ** 8, 2 ** 12, 2 ** 16, 2 ** 20):
        bound = c3 + lipschitz / np.sqrt(n)
        growth = np.max(_norm(_kernel_drift(problem, n, t, x)) / scale) / np.sqrt(n)
        assert growth <= bound, (n, growth, bound)
    if c3 > 0.0:
        mu = _norm(problem.drift(t, x))
        growth = np.max(mu / (1.0 + mu / n) / scale) / np.sqrt(n)
        assert growth > bound, (n, growth, bound)
