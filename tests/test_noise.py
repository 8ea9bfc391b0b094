import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sde_rtm import (
    BrownianGrid,
    InvalidParameterError,
    NoiseStructure,
    RandomizationStream,
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
from sde_rtm import SchemeKind, make_builtin, noise, strong_error_experiment
from sde_rtm.noise import SlabStream, _philox_keys, coarsen_chunks

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
    for index in (1.5, True):
        with pytest.raises(InvalidParameterError):
            derive_substream(POLICY, index, StreamRole.BROWNIAN)


@pytest.mark.parametrize("seed", [1.5, "7", True, False, None, np.float64(3.0),
                                  np.bool_(True), [1], 2.0 ** 70])
def test_master_seed_must_be_an_integer(seed):
    # numpy would reject most of these later, with a TypeError; a bool would
    # silently be seed 0 or 1
    with pytest.raises(InvalidParameterError):
        SeedPolicy(seed)


@pytest.mark.parametrize("seed", [7, np.uint64(7), np.uint32(7), np.int64(7)])
def test_integer_seed_types_are_one_policy(seed):
    policy = SeedPolicy(seed)
    assert policy == SeedPolicy(7) and type(policy.master_seed) is int


# --- slab streams ------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    indices=st.lists(st.integers(min_value=0, max_value=2 ** 32 - 1),
                     min_size=1, max_size=6),
    role=st.sampled_from(StreamRole),
)
def test_vectorized_keys_match_seed_sequence(seed, indices, role):
    keys = _philox_keys(seed, np.array(indices, dtype=np.uint64), role.value)
    for index, key in zip(indices, keys):
        seq = np.random.SeedSequence(seed, spawn_key=(index, role.value))
        assert np.array_equal(key, np.random.Philox(seq).state["state"]["key"])


def test_changed_key_hash_fails_loudly(monkeypatch):
    monkeypatch.setenv("SDE_RTM_THREADS", "1")
    # stands in for a numpy release whose SeedSequence no longer matches the
    # vectorized hash: the guard must stop the run, not change its numbers
    real = noise._philox_keys

    def shifted(master_seed, indices, role):
        keys = real(master_seed, indices, role)
        keys[0, 0] ^= 1
        return keys

    monkeypatch.setattr(noise, "_philox_keys", shifted)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        strong_error_experiment(make_builtin("gbm"), SchemeKind.TAMED_MILSTEIN,
                                [1, 2], "exact", 2.0, 5, POLICY)


@pytest.mark.parametrize("start,stop,level,chunk,m", [
    (0, 1, 0, 1, 1),
    (0, 5, 4, 16, 1),
    (3, 10, 5, 4, 2),
    (1000, 1003, 6, 1, 3),
    (2 ** 32 - 3, 2 ** 32, 3, 2, 1),
])
def test_slab_stream_matches_per_path_draws(start, stop, level, chunk, m):
    horizon = 1.5
    brownian = SlabStream(POLICY, start, stop, StreamRole.BROWNIAN)
    pieces = list(brownian.brownian(level, m, horizon, chunk))
    assert all(piece.shape == (chunk, stop - start, m) for piece in pieces)
    got = np.concatenate(pieces)
    randomization = SlabStream(POLICY, start, stop, StreamRole.RANDOMIZATION)
    for b, path in enumerate(range(start, stop)):
        grid = sample_brownian_grid(level, m, horizon,
                                    derive_substream(POLICY, path, StreamRole.BROWNIAN))
        assert np.array_equal(got[:, b], grid.increments)
        # runs of 1, 2, 5 and 11 draws leave every later offset off a multiple of 4
        sequential = derive_substream(POLICY, path, StreamRole.RANDOMIZATION)
        offset = 0
        for count in (1, 2, 5, 11):
            want = sample_randomization(count, sequential).uniforms
            drawn = np.concatenate(list(randomization.uniforms(offset, count, 1)))
            assert np.array_equal(drawn[:, b], want)
            offset += count


@pytest.mark.parametrize("width", [31, 32, 33, 70])
def test_slab_stream_pieces_cross_draw_blocks(width):
    # widths below, at, just above and off a multiple of the draw block, m = 2,
    # several pieces, and uniform runs that start off a multiple of 4, read
    # interleaved as the experiments read them
    start, level, chunk, m, horizon = 9, 5, 4, 2, 0.75
    runs = [(3, 12, 4), (15, 10, 5), (25, 6, 1)]
    brownian = SlabStream(POLICY, start, start + width, StreamRole.BROWNIAN)
    randomization = SlabStream(POLICY, start, start + width, StreamRole.RANDOMIZATION)
    streams = [brownian.brownian(level, m, horizon, chunk),
               *(randomization.uniforms(*run) for run in runs)]
    shapes = [(chunk, width, m), *((piece, width) for _, _, piece in runs)]
    counts = [(1 << level) // chunk, *(count // piece for _, count, piece in runs)]
    drawn = [[] for _ in streams]
    seen = []  # every piece with a copy taken as it was yielded
    for step in range(max(counts)):
        for stream, shape, count, pieces in zip(streams, shapes, counts, drawn):
            if step < count:
                piece = next(stream)
                assert piece.shape == shape
                assert piece.flags.c_contiguous and piece.flags.owndata
                pieces.append(piece)
                seen.append((piece, piece.copy()))
    assert all(next(stream, None) is None for stream in streams)
    # no later piece wrote into an earlier one
    assert all(np.array_equal(piece, copy) for piece, copy in seen)
    got, *uniforms = [np.concatenate(pieces) for pieces in drawn]
    for b, path in enumerate(range(start, start + width)):
        grid = sample_brownian_grid(level, m, horizon,
                                    derive_substream(POLICY, path, StreamRole.BROWNIAN))
        assert np.array_equal(got[:, b], grid.increments)
        want = derive_substream(POLICY, path, StreamRole.RANDOMIZATION).random(31)
        for (offset, count, _), values in zip(runs, uniforms):
            assert np.array_equal(values[:, b], want[offset:offset + count])


def test_slab_bounds_are_checked():
    # a path index of 2**32 or more would hash as two spawn words
    for start, stop in ((2 ** 32 - 1, 2 ** 32 + 1), (-1, 2), (4, 4), (0.5, 3),
                        (True, 3)):
        with pytest.raises(InvalidParameterError):
            SlabStream(POLICY, start, stop, StreamRole.BROWNIAN)
    for role in ("brownian", 0, None):
        with pytest.raises(InvalidParameterError, match="role"):
            SlabStream(POLICY, 0, 3, role)
        with pytest.raises(InvalidParameterError, match="role"):
            derive_substream(POLICY, 0, role)
    with pytest.raises(InvalidParameterError, match="policy"):
        SlabStream(7, 0, 3, StreamRole.BROWNIAN)
    with pytest.raises(InvalidParameterError, match="policy"):
        derive_substream(7, 0, StreamRole.BROWNIAN)


# --- Brownian grids ----------------------------------------------------------

def test_grid_shapes_and_determinism():
    grid = sample_brownian_grid(5, 2, 2.0, derive_substream(POLICY, 0, StreamRole.BROWNIAN))
    assert grid.increments.shape == (32, 2)
    assert grid.n == 32
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


LEVEL_RULE = re.escape("level must be an integer in [0, 62]")


def test_grid_argument_validation():
    stream = derive_substream(POLICY, 0, StreamRole.BROWNIAN)
    with pytest.raises(InvalidParameterError):
        sample_brownian_grid(1, 0, 1.0, stream)
    with pytest.raises(InvalidParameterError):
        sample_brownian_grid(1, 1, 0.0, stream)
    # levels are integers in [0, 62] under one rule wherever a grid is made,
    # m is an integer and the horizon a finite real
    slab = SlabStream(POLICY, 0, 1, StreamRole.BROWNIAN)
    for level in (63, -1, 1.5, 2.5, True):
        with pytest.raises(InvalidParameterError, match=LEVEL_RULE):
            sample_brownian_grid(level, 1, 1.0, stream)
        with pytest.raises(InvalidParameterError, match=LEVEL_RULE):
            BrownianGrid(level=level, horizon=1.0, m=1, increments=np.zeros((2, 1)))
        with pytest.raises(InvalidParameterError, match=LEVEL_RULE):
            next(slab.brownian(level, 1, 1.0, 1))
    for m, horizon in ((1.5, 1.0), (1, float("nan")), (1, float("inf"))):
        with pytest.raises(InvalidParameterError):
            sample_brownian_grid(3, m, horizon, stream)


# --- coarsening --------------------------------------------------------------

def test_coarsen_block_sums():
    grid = BrownianGrid(level=2, horizon=1.0, m=1,
                        increments=np.array([[0.1], [-0.2], [0.3], [0.4]]))
    coarse = coarsen(grid, 1)
    assert coarse.increments[:, 0] == pytest.approx([-0.1, 0.7], rel=1e-15)
    assert coarse.level == 1 and coarse.n == 2


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
    for target in (4, 63, -1, 1.5, True):
        with pytest.raises(InvalidParameterError,
                           match=re.escape("target_level must be an integer in [0, 3]")):
            coarsen(grid, target)


# --- streamed draws and coarsening ---------------------------------------------

def _halving_oracle(increments, target):
    # the pairwise tree, one level at a time, independent of coarsen_chunks
    while len(increments) > 1 << target:
        increments = increments[0::2] + increments[1::2]
    return increments


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("chunk", [1, 2, 4, 8, 16, 32])
def test_streamed_coarsening_matches_coarsen(m, chunk):
    # chunk 32 is the whole 2**5 grid; the sparse target sets make coarse
    # steps span several chunks without every intermediate level present,
    # {0} alone and the gapped {2, 4} across every piece boundary
    level, horizon, paths = 5, 1.5, range(3)
    grids = [
        sample_brownian_grid(level, m, horizon,
                             derive_substream(POLICY, i, StreamRole.BROWNIAN))
        for i in paths
    ]
    for targets in (range(level + 1), {0, 3}, {1}, {level}, {0}, {2, 4}):
        got = {target: [] for target in targets}
        fine = SlabStream(POLICY, paths.start, paths.stop,
                          StreamRole.BROWNIAN).brownian(level, m, horizon, chunk)
        for pieces in coarsen_chunks(fine, level, targets):
            assert set(pieces) <= set(targets)
            for target, inc in pieces.items():
                got[target].append(inc)
        for target in targets:
            want = np.stack([coarsen(g, target).increments for g in grids], axis=1)
            assert np.array_equal(np.concatenate(got[target]), want)
            oracle = np.stack([_halving_oracle(g.increments, target) for g in grids],
                              axis=1)
            assert np.array_equal(want, oracle)
        if 0 in targets:
            assert np.array_equal(got[0][-1][0],
                                  np.stack([terminal_value(g) for g in grids]))


def test_chunk_sizes_are_checked():
    # Brownian chunks are powers of two within the grid, uniform chunks
    # divide the count, and coarsening targets lie in [0, level]
    stream = SlabStream(POLICY, 0, 1, StreamRole.BROWNIAN)
    for chunk in (0, 3, 16, 2.5):
        with pytest.raises(InvalidParameterError, match="chunk must be a power of two"):
            next(stream.brownian(3, 1, 1.0, chunk))
        with pytest.raises(InvalidParameterError):
            next(stream.uniforms(0, 8, chunk))
    for offset, count in ((-1, 8), (0, 8.0)):
        with pytest.raises(InvalidParameterError):
            next(stream.uniforms(offset, count, 2))
    for targets in ([2], [], [1, "a"], 1):
        with pytest.raises(InvalidParameterError,
                           match=re.escape("targets must be a nonempty set of levels in [0, 1]")):
            next(coarsen_chunks(iter([np.zeros((2, 1))]), 1, targets))
    # coarsened pieces are equal powers of two that cover the grid exactly
    for level, sizes, target, message in (
        (2, [3], 1, "chunk must be a power of two in [1, 4], got 3"),
        (3, [4, 2], 0, "pieces must all have shape (4, 1) and cover 8 in all"),
        (3, [2, 2, 2], 0, "pieces cover 6 of the 8 steps"),
        (3, [2] * 5, 0, "pieces must all have shape (2, 1) and cover 8 in all"),
    ):
        pieces = iter([np.ones((size, 1)) for size in sizes])
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            list(coarsen_chunks(pieces, level, [target]))
    # and share the first piece's trailing shape, which would otherwise broadcast
    with pytest.raises(InvalidParameterError,
                       match=re.escape("pieces must all have shape (2, 1)")):
        list(coarsen_chunks(iter([np.ones((2, 1)), np.ones((2, 3))]), 2, [0]))


# --- randomization draws -----------------------------------------------------

def test_randomization_range_and_mean():
    stream = derive_substream(POLICY, 5, StreamRole.RANDOMIZATION)
    draws = sample_randomization(100_000, stream).uniforms
    assert draws.min() >= 0.0 and draws.max() < 1.0
    assert 0.495 <= draws.mean() <= 0.505
    with pytest.raises(InvalidParameterError):
        sample_randomization(2.5, stream)
    with pytest.raises(InvalidParameterError, match="uniforms must lie"):
        RandomizationStream([0.5, float("nan")])


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
            stream = SlabStream(POLICY, 11, 12, StreamRole.RANDOMIZATION)
            pieces = list(stream.uniforms(offset, n, chunk))
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
    u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    more=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                  max_size=4),
)
def test_randomized_time_stays_in_step(t_left, dt, u, more):
    out = randomized_time(t_left, dt, u)
    assert t_left <= out < t_left + dt
    # the array form the step kernel uses: (C, 1) left times, (C, B) uniforms
    lefts = np.array([t_left, t_left + dt])
    draws = np.array([u, *more])
    outs = randomized_time(lefts[:, None], dt, np.tile(draws, (2, 1)))
    assert outs.shape == (2, len(draws))
    assert np.array_equal(
        outs, [[randomized_time(left, dt, v) for v in draws] for left in lefts])


@pytest.mark.parametrize("left_shape,u_shape", [
    ((), ()),            # scalar x scalar
    ((4, 1), (4, 5)),    # the step kernel's (C, 1) left times and (C, B) uniforms
    ((4, 5), ()),        # (C, B) left times and one uniform
    ((5,), (5,)),        # (B,) x (B,)
])
@pytest.mark.parametrize("dt", [0.25, 1e-15])
def test_randomized_time_matches_its_formula_on_every_broadcast_form(left_shape, u_shape,
                                                                    dt):
    # bit for bit the out-of-place t_left + dt * u capped below t_left + dt,
    # and the inputs stay as they were; at dt = 1e-15, below an ulp of most
    # left times, the sum often rounds onto the right endpoint and the cap binds
    rng = np.random.default_rng(29)
    t_left = rng.uniform(0.0, 10.0, left_shape)
    u = rng.random(u_shape)
    u.flat[0] = np.nextafter(1.0, 0.0)
    if not left_shape:
        t_left, u = float(t_left), float(u)
    left_before, u_before = np.copy(t_left), np.copy(u)
    want = np.minimum(t_left + dt * u, np.nextafter(t_left + dt, -np.inf))
    out = randomized_time(t_left, dt, u)
    assert np.shape(out) == np.shape(want)
    assert np.asarray(out).tobytes() == np.asarray(want).tobytes()
    assert np.array_equal(t_left, left_before) and np.array_equal(u, u_before)


def test_randomized_time_validation():
    with pytest.raises(InvalidParameterError):
        randomized_time(0.0, 0.0, 0.5)
    with pytest.raises(InvalidParameterError):
        randomized_time(0.0, float("nan"), 0.5)
    with pytest.raises(InvalidParameterError):
        randomized_time(0.0, float("inf"), 0.0)
    with pytest.raises(InvalidParameterError):
        randomized_time(0.0, 0.1, 1.0)
    for bad in (-0.5, 1.0, float("nan")):
        with pytest.raises(InvalidParameterError):
            randomized_time(np.zeros((2, 1)), 0.1, np.array([[0.5, bad], [0.5, 0.5]]))


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
    for structure in ("general", None):
        with pytest.raises(InvalidParameterError, match="structure"):
            iterated_integrals(np.array([1.0]), 0.1, structure)
    # dt = 0 is the unit oracle's; a negative or NaN step is not a step
    for dt in (-1.0, float("nan")):
        with pytest.raises(InvalidParameterError):
            iterated_integrals(np.array([0.5]), dt, NoiseStructure.SCALAR)


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


@pytest.mark.parametrize("structure,m", [(NoiseStructure.SCALAR, 1),
                                         (NoiseStructure.DIAGONAL, 3),
                                         (NoiseStructure.COMMUTATIVE, 3)])
def test_iterated_integrals_match_their_out_of_place_formula(structure, m):
    # the step kernel's (C, B, m) increments, in C and in Fortran order, bit
    # for bit the formula built from fresh arrays, and the increments stay
    # as they were
    dt = 0.09
    dw = np.random.default_rng(29).standard_normal((4, 5, m)) * np.sqrt(dt)
    before = dw.copy()
    if structure is NoiseStructure.COMMUTATIVE:
        want = dw[..., :, None] * dw[..., None, :] / 2.0
    else:
        want = np.zeros(dw.shape + (m,))
    idx = np.arange(m)
    want[..., idx, idx] = (dw * dw - dt) / 2.0
    for given in (dw, np.asfortranarray(dw)):
        out = iterated_integrals(given, dt, structure)
        assert out.shape == (4, 5, m, m)
        assert out.tobytes() == want.tobytes()
        assert np.array_equal(given, before)


def test_iterated_integrals_allocate_only_their_result():
    # a (256, 512) chunk of scalar increments: the diagonal is built in the
    # result itself, with no second chunk-sized block alongside it
    dw = np.random.default_rng(30).standard_normal((256, 512, 1))
    tracemalloc.start()
    try:
        out = iterated_integrals(dw, 0.01, NoiseStructure.SCALAR)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * out.nbytes


def test_iterated_integrals_batched_matches_single():
    dw = np.array([[0.3, -0.2], [0.0, 0.7]])
    batch = iterated_integrals(dw, 0.2, NoiseStructure.COMMUTATIVE)
    for k in range(2):
        single = iterated_integrals(dw[k], 0.2, NoiseStructure.COMMUTATIVE)
        assert np.array_equal(batch[k], single)
