import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sde_rtm import (
    BrownianGrid,
    InvalidParameterError,
    LevelError,
    NoiseStructure,
    SeedPolicy,
    StreamRole,
    UnsupportedNoiseStructureError,
    coarsen,
    derive_substream,
    iterated_integrals,
    randomized_time,
    sample_brownian_grid,
    sample_randomization,
    terminal_value,
)
from sde_rtm.noise import (
    brownian_chunks,
    coarsen_chunks,
    skip_uniforms,
    uniform_chunks,
)

POLICY = SeedPolicy(master_seed=918273645)


# --- substream derivation ----------------------------------------------------

def test_substream_is_deterministic():
    a = derive_substream(POLICY, 7, StreamRole.BROWNIAN).random(100)
    b = derive_substream(POLICY, 7, StreamRole.BROWNIAN).random(100)
    assert np.array_equal(a, b)


def test_roles_give_distinct_streams():
    a = derive_substream(POLICY, 0, StreamRole.BROWNIAN).random(8)
    b = derive_substream(POLICY, 0, StreamRole.RANDOMIZATION).random(8)
    assert not np.array_equal(a, b)


def test_paths_give_uncorrelated_streams():
    n = 10_000
    a = derive_substream(POLICY, 0, StreamRole.BROWNIAN).standard_normal(n)
    b = derive_substream(POLICY, 1, StreamRole.BROWNIAN).standard_normal(n)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.05


def test_master_seed_validation():
    with pytest.raises(InvalidParameterError):
        SeedPolicy(-1)
    with pytest.raises(InvalidParameterError):
        SeedPolicy(2 ** 64)
    with pytest.raises(InvalidParameterError):
        derive_substream(POLICY, -1, StreamRole.BROWNIAN)


# --- Brownian grids ----------------------------------------------------------

def test_grid_shapes_and_determinism():
    grid = sample_brownian_grid(5, 2, 2.0, derive_substream(POLICY, 0, StreamRole.BROWNIAN))
    assert grid.increments.shape == (32, 2)
    assert grid.n == 32 and grid.dt == pytest.approx(2.0 / 32)
    again = sample_brownian_grid(5, 2, 2.0, derive_substream(POLICY, 0, StreamRole.BROWNIAN))
    assert np.array_equal(grid.increments, again.increments)


@pytest.mark.parametrize("level,horizon", [(0, 1.0), (10, 1.0)])
def test_increment_statistics(level, horizon):
    # 10^4 draws per slot: mean within 4*sqrt(dt/N), variance within 10% of dt
    n_draws = 10_000
    stream = derive_substream(POLICY, 42, StreamRole.BROWNIAN)
    dt = horizon / 2 ** level
    draws = np.concatenate([
        sample_brownian_grid(level, 1, horizon, stream).increments[:, 0]
        for _ in range(max(1, n_draws // 2 ** level))
    ])[:n_draws]
    assert abs(draws.mean()) <= 4.0 * np.sqrt(dt / draws.size)
    assert abs(draws.var() - dt) <= 0.1 * dt


def test_grid_argument_validation():
    stream = derive_substream(POLICY, 0, StreamRole.BROWNIAN)
    with pytest.raises(LevelError):
        sample_brownian_grid(-1, 1, 1.0, stream)
    with pytest.raises(InvalidParameterError):
        sample_brownian_grid(1, 0, 1.0, stream)
    with pytest.raises(InvalidParameterError):
        sample_brownian_grid(1, 1, 0.0, stream)


# --- coarsening --------------------------------------------------------------

def test_coarsen_block_sums():
    grid = BrownianGrid(level=2, horizon=1.0, m=1,
                        increments=np.array([[0.1], [-0.2], [0.3], [0.4]]))
    coarse = coarsen(grid, 1)
    assert coarse.increments[:, 0] == pytest.approx([-0.1, 0.7], rel=1e-15)
    assert coarse.level == 1 and coarse.dt == 0.5


def test_coarsen_identity():
    grid = sample_brownian_grid(4, 1, 1.0, derive_substream(POLICY, 1, StreamRole.BROWNIAN))
    same = coarsen(grid, grid.level)
    assert np.array_equal(same.increments, grid.increments)


def test_coarsen_preserves_terminal_value_exactly():
    grid = sample_brownian_grid(9, 3, 1.0, derive_substream(POLICY, 2, StreamRole.BROWNIAN))
    fine_terminal = terminal_value(grid)
    for target in (7, 4, 0):
        assert np.array_equal(terminal_value(coarsen(grid, target)), fine_terminal)


@settings(max_examples=30, deadline=None)
@given(
    level=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    data=st.data(),
)
def test_coarsen_telescopes_bit_exactly(level, seed, data):
    mid = data.draw(st.integers(min_value=1, max_value=level))
    low = data.draw(st.integers(min_value=0, max_value=mid))
    grid = sample_brownian_grid(
        level, 1, 1.0, derive_substream(SeedPolicy(seed), 0, StreamRole.BROWNIAN)
    )
    direct = coarsen(grid, low)
    via_mid = coarsen(coarsen(grid, mid), low)
    assert np.array_equal(direct.increments, via_mid.increments)


def test_coarsen_level_check():
    grid = sample_brownian_grid(3, 1, 1.0, derive_substream(POLICY, 0, StreamRole.BROWNIAN))
    with pytest.raises(LevelError):
        coarsen(grid, 4)
    with pytest.raises(LevelError):
        coarsen(grid, -1)


# --- streamed draws and coarsening ---------------------------------------------

@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("chunk", [1, 2, 8, 32])
def test_streamed_coarsening_matches_coarsen(m, chunk):
    # chunk 32 is the whole 2**5 grid; the sparse target sets make coarse
    # steps span several chunks without every intermediate level present
    level, horizon, paths = 5, 1.5, range(3)
    grids = [
        sample_brownian_grid(level, m, horizon,
                             derive_substream(POLICY, i, StreamRole.BROWNIAN))
        for i in paths
    ]
    for targets in (range(level + 1), {0, 3}, {1}, {level}):
        streams = [derive_substream(POLICY, i, StreamRole.BROWNIAN) for i in paths]
        got = {target: [] for target in targets}
        fine = brownian_chunks(streams, level, m, horizon, chunk)
        for pieces in coarsen_chunks(fine, level, targets):
            assert set(pieces) <= set(targets)
            for target, inc in pieces.items():
                got[target].append(inc)
        for target in targets:
            want = np.stack([coarsen(g, target).increments for g in grids], axis=1)
            assert np.array_equal(np.concatenate(got[target]), want)
        if 0 in targets:
            assert np.array_equal(got[0][-1][0],
                                  np.stack([terminal_value(g) for g in grids]))


def test_chunk_sizes_are_checked():
    # Brownian chunks are powers of two within the grid, uniform chunks
    # divide the count, and coarsening targets lie in [0, level]
    stream = derive_substream(POLICY, 0, StreamRole.BROWNIAN)
    for chunk in (0, 3, 16):
        with pytest.raises(LevelError):
            next(brownian_chunks([stream], 3, 1, 1.0, chunk))
        with pytest.raises(InvalidParameterError):
            next(uniform_chunks([stream], 8, chunk))
    for targets in ([2], []):
        with pytest.raises(LevelError):
            next(coarsen_chunks(iter([np.zeros((2, 1))]), 1, targets))


# --- randomization draws -----------------------------------------------------

def test_randomization_range_and_mean():
    stream = derive_substream(POLICY, 5, StreamRole.RANDOMIZATION)
    draws = sample_randomization(100_000, stream).uniforms
    assert draws.min() >= 0.0 and draws.max() < 1.0
    assert 0.495 <= draws.mean() <= 0.505


def test_randomization_determinism():
    a = sample_randomization(64, derive_substream(POLICY, 3, StreamRole.RANDOMIZATION))
    b = sample_randomization(64, derive_substream(POLICY, 3, StreamRole.RANDOMIZATION))
    assert np.array_equal(a.uniforms, b.uniforms)


@pytest.mark.parametrize("order", [[6, 0, 1, 3], [0, 1, 2, 5], [1, 4], [14, 4, 9]])
def test_skipped_streams_match_sequential_draws(order):
    # the documented order: reference first, then levels ascending (or the
    # levels alone with an exact reference); levels 0 and 1 put later runs
    # at offsets that are not multiples of four
    sequential = derive_substream(POLICY, 11, StreamRole.RANDOMIZATION)
    offset = 0
    for level in order:
        n = 1 << level
        want = sample_randomization(n, sequential).uniforms
        for chunk in sorted({1, max(1, n // 2), n}):
            stream = skip_uniforms(
                derive_substream(POLICY, 11, StreamRole.RANDOMIZATION), offset)
            pieces = list(uniform_chunks([stream], n, chunk))
            assert all(piece.shape == (chunk, 1) for piece in pieces)
            assert np.array_equal(np.concatenate(pieces)[:, 0], want)
        offset += n


def test_randomized_time_examples():
    assert randomized_time(0.5, 0.25, 0.2) == pytest.approx(0.55, rel=1e-15)
    assert randomized_time(0.3, 0.1, 0.0) == 0.3
    out = randomized_time(0.0, 1.0, 0.999)
    assert out == pytest.approx(0.999, rel=1e-15)
    assert out < 1.0


@given(
    t_left=st.floats(min_value=0.0, max_value=10.0),
    dt=st.floats(min_value=1e-6, max_value=1.0),
    # u within one ulp of 1 can graze the right endpoint after rounding
    u=st.floats(min_value=0.0, max_value=1.0 - 1e-9),
)
def test_randomized_time_stays_in_step(t_left, dt, u):
    out = randomized_time(t_left, dt, u)
    assert t_left <= out < t_left + dt


def test_randomized_time_validation():
    with pytest.raises(InvalidParameterError):
        randomized_time(0.0, 0.0, 0.5)
    with pytest.raises(InvalidParameterError):
        randomized_time(0.0, 0.1, 1.0)


# --- iterated integrals ------------------------------------------------------

def test_iterated_integrals_scalar_examples():
    assert iterated_integrals(np.array([0.5]), 0.25, NoiseStructure.SCALAR)[0, 0] == 0.0
    assert iterated_integrals(np.array([0.0]), 0.1, NoiseStructure.SCALAR)[0, 0] == \
        pytest.approx(-0.05, rel=1e-15)


def test_iterated_integrals_commutative_example():
    out = iterated_integrals(np.array([1.0, 2.0]), 0.0, NoiseStructure.COMMUTATIVE)
    assert out == pytest.approx(np.array([[0.5, 1.0], [1.0, 2.0]]), rel=1e-15)


def test_iterated_integrals_diagonal_zeroes_off_diagonal():
    out = iterated_integrals(np.array([1.0, 2.0]), 0.1, NoiseStructure.DIAGONAL)
    assert out[0, 1] == 0.0 and out[1, 0] == 0.0


def test_iterated_integrals_rejects_general():
    with pytest.raises(UnsupportedNoiseStructureError):
        iterated_integrals(np.array([1.0]), 0.1, NoiseStructure.GENERAL)


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=4),
       st.floats(min_value=0.0, max_value=1.0))
def test_iterated_integrals_commutative_symmetry(values, dt):
    out = iterated_integrals(np.array(values), dt, NoiseStructure.COMMUTATIVE)
    assert np.array_equal(out, out.T)


def test_iterated_integrals_mean_bound():
    # E I[k][k] = 0; Var = dt^2/2; bound from the mean of 10^4 samples
    dt = 0.01
    stream = derive_substream(POLICY, 9, StreamRole.BROWNIAN)
    dw = stream.standard_normal((10_000, 1)) * np.sqrt(dt)
    diag = iterated_integrals(dw, dt, NoiseStructure.SCALAR)[:, 0, 0]
    bound = 4.0 * dt / np.sqrt(10_000) * np.sqrt(0.5) * 3.0
    assert abs(diag.mean()) <= bound


def test_iterated_integrals_batched_matches_single():
    dw = np.array([[0.3, -0.2], [0.0, 0.7]])
    batch = iterated_integrals(dw, 0.2, NoiseStructure.COMMUTATIVE)
    for k in range(2):
        single = iterated_integrals(dw[k], 0.2, NoiseStructure.COMMUTATIVE)
        assert np.array_equal(batch[k], single)
