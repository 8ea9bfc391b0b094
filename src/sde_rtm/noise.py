"""Reproducible Brownian increments on dyadic grids, and the per-step
uniform draws that realise the drift-time randomization.

Grids live on dyadic levels (2**level uniform steps), so coarsening is an
exact pairwise block sum and a coarse integrator can share one Brownian
path with a much finer reference run.  Randomness comes from counter-based
Philox substreams derived from a single master seed: the (path, role) pair
selects a substream, which makes whole experiments reproducible bit for
bit regardless of worker scheduling.  Gaussian increments are produced by
numpy's ``Generator.standard_normal`` (ziggurat) scaled by sqrt(dt); for a
pinned numpy version this transform is bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import InvalidParameterError, NoiseStructure

__all__ = [
    "StreamRole",
    "SeedPolicy",
    "BrownianGrid",
    "RandomizationStream",
    "LevelError",
    "UnsupportedNoiseStructureError",
    "derive_substream",
    "sample_brownian_grid",
    "brownian_chunks",
    "coarsen",
    "coarsen_chunks",
    "terminal_value",
    "sample_randomization",
    "uniform_chunks",
    "skip_uniforms",
    "randomized_time",
    "iterated_integrals",
]


class LevelError(ValueError):
    """A dyadic level argument is out of range."""


class UnsupportedNoiseStructureError(ValueError):
    """Raised for noise structures that would need Levy-area simulation."""


class StreamRole(Enum):
    """Which substream a consumer draws from; Brownian and randomization
    draws never share a stream."""

    BROWNIAN = 0
    RANDOMIZATION = 1


@dataclass(frozen=True)
class SeedPolicy:
    """Derivation rule (master_seed, path_index, role) -> substream.

    Distinct (path_index, role) pairs yield independent, reproducible
    substreams; the same inputs always yield the identical stream.
    """

    master_seed: int

    def __post_init__(self):
        if not 0 <= int(self.master_seed) < 2 ** 64:
            raise InvalidParameterError("master_seed must be a 64-bit unsigned integer")


def derive_substream(policy: SeedPolicy, path_index: int, role: StreamRole) -> np.random.Generator:
    """Return the deterministic substream for (path_index, role)."""
    if path_index < 0:
        raise InvalidParameterError("path_index must be nonnegative")
    seq = np.random.SeedSequence(policy.master_seed, spawn_key=(path_index, role.value))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class BrownianGrid:
    """Increments of one Brownian path on a dyadic grid.

    ``increments[j]`` is w(t_{j+1}) - w(t_j) on the uniform grid with
    2**level steps of size horizon / 2**level.
    """

    level: int
    horizon: float
    m: int
    increments: np.ndarray  # shape (2**level, m)

    def __post_init__(self):
        if self.level < 0:
            raise LevelError("level must be nonnegative")
        arr = np.array(self.increments, dtype=float)
        if arr.shape != (1 << self.level, self.m):
            raise InvalidParameterError(
                f"increments must have shape ({1 << self.level}, {self.m})"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "increments", arr)

    @property
    def n(self) -> int:
        return 1 << self.level

    @property
    def dt(self) -> float:
        return self.horizon / (1 << self.level)


def sample_brownian_grid(level: int, m: int, horizon: float,
                         stream: np.random.Generator) -> BrownianGrid:
    """Sample a grid of 2**level Gaussian increments with variance horizon/2**level."""
    if level < 0:
        raise LevelError("level must be nonnegative")
    if m < 1:
        raise InvalidParameterError("m must be positive")
    if horizon <= 0:
        raise InvalidParameterError("horizon must be positive")
    n = 1 << level
    dt = horizon / n
    increments = stream.standard_normal((n, m)) * np.sqrt(dt)
    return BrownianGrid(level=level, horizon=horizon, m=m, increments=increments)


def _time_major(streams, shape: tuple, draw) -> np.ndarray:
    # one fresh (shape[0], len(streams), *shape[1:]) array whose column b
    # holds draw(streams[b]), drawn stream by stream
    out = np.empty((shape[0], len(streams)) + shape[1:])
    for b, stream in enumerate(streams):
        out[:, b] = draw(stream)
    return out


def brownian_chunks(streams, level: int, m: int, horizon: float, chunk: int):
    """Yield the increments of ``len(streams)`` Brownian paths on the
    2**level grid, ``chunk`` steps at a time.

    Each yield is a fresh time-major array ``(chunk, len(streams), m)``.
    ``chunk`` must be a power of two no larger than 2**level.  Every piece
    is one :func:`sample_brownian_grid` draw on the sub-horizon
    ``horizon / (2**level / chunk)``, which has the same step size, and
    consecutive Gaussian draws from one substream equal a single draw, so
    the pieces concatenate to ``sample_brownian_grid(level, m, horizon,
    stream).increments`` bit for bit.
    """
    n = 1 << level
    if chunk < 1 or chunk > n or chunk & (chunk - 1):
        raise LevelError(f"chunk must be a power of two in [1, {n}], got {chunk}")
    sub_level = chunk.bit_length() - 1
    sub_horizon = horizon / (n // chunk)  # exact: a division by a power of two
    for _ in range(n // chunk):
        yield _time_major(
            streams, (chunk, m),
            lambda stream: sample_brownian_grid(sub_level, m, sub_horizon,
                                                stream).increments,
        )


def _halve(increments: np.ndarray) -> np.ndarray:
    # one dyadic coarsening step along axis 0: pairwise sums in index order
    return increments[0::2] + increments[1::2]


def coarsen(grid: BrownianGrid, target_level: int) -> BrownianGrid:
    """Coarsen a grid to ``target_level`` by exact pairwise block summation.

    Implemented as repeated one-level halving, so coarsening telescopes bit
    exactly: coarsen(coarsen(g, a), b) == coarsen(g, b) for b <= a.
    """
    if not 0 <= target_level <= grid.level:
        raise LevelError(
            f"target_level must lie in [0, {grid.level}], got {target_level}"
        )
    if target_level == grid.level:
        return grid
    inc = grid.increments
    for _ in range(grid.level - target_level):
        inc = _halve(inc)
    return BrownianGrid(level=target_level, horizon=grid.horizon, m=grid.m,
                        increments=inc)


def coarsen_chunks(chunks, level: int, targets):
    """Coarsen a stream of increment chunks at ``level`` to every target level.

    ``chunks`` yields consecutive pieces of one grid (or a batch of grids
    along trailing axes), time on axis 0, all of the same power-of-two
    length.  For each piece this yields ``{target: increments}`` with the
    target-level increments that the piece completes; a target whose steps
    span several pieces appears only in the piece that completes a step.
    Within a piece, coarsening is repeated halving; across pieces, the
    roots of whole pieces are combined by a binary carry (left + right).
    Both follow :func:`coarsen`'s pairwise tree, so the increments equal
    ``coarsen(grid, target).increments`` bit for bit, and target 0 yields
    the terminal value of :func:`terminal_value`.
    """
    targets = sorted(set(targets), reverse=True)
    if not targets or not 0 <= targets[-1] <= targets[0] <= level:
        raise LevelError(f"targets must be a nonempty set of levels in [0, {level}]")
    pending = {}  # level -> left half of an unfinished coarse step
    for chunk in chunks:
        out = {}
        cur, cur_level = chunk, level
        for target in targets:
            while cur_level > target and len(cur) > 1:
                cur, cur_level = _halve(cur), cur_level - 1
            if cur_level == target:
                out[target] = cur
        # cur is now this piece's root, or the lowest target already reached
        while len(cur) == 1 and cur_level > targets[-1]:
            left = pending.pop(cur_level, None)
            if left is None:
                pending[cur_level] = cur
                break
            cur, cur_level = left + cur, cur_level - 1
            if cur_level in targets:
                out[cur_level] = cur
        yield out


def terminal_value(grid: BrownianGrid) -> np.ndarray:
    """Terminal Brownian value w(horizon) via the pairwise dyadic sum order."""
    return np.array(coarsen(grid, 0).increments[0])


@dataclass(frozen=True)
class RandomizationStream:
    """Per-step Unif[0, 1) draws realising the randomized drift times."""

    uniforms: np.ndarray

    def __post_init__(self):
        arr = np.array(self.uniforms, dtype=float).reshape(-1)
        if arr.size and (arr.min() < 0.0 or arr.max() >= 1.0):
            raise InvalidParameterError("uniforms must lie in [0, 1)")
        arr.setflags(write=False)
        object.__setattr__(self, "uniforms", arr)

    def __len__(self) -> int:
        return self.uniforms.size


def sample_randomization(n: int, stream: np.random.Generator) -> RandomizationStream:
    """Draw n i.i.d. Unif[0, 1) values from the given substream."""
    if n < 1:
        raise InvalidParameterError("n must be positive")
    return RandomizationStream(uniforms=stream.random(n))


def uniform_chunks(streams, count: int, chunk: int):
    """Yield the next ``count`` uniforms of each of ``streams``, ``chunk``
    at a time, as fresh time-major arrays ``(chunk, len(streams))``.

    Every piece is one :func:`sample_randomization` draw per stream, and
    consecutive draws from one substream equal a single draw, so the pieces
    concatenate to ``sample_randomization(count, stream).uniforms``.
    ``chunk`` must divide ``count``.
    """
    if chunk < 1 or count % chunk:
        raise InvalidParameterError(f"chunk {chunk} does not divide count {count}")
    for _ in range(count // chunk):
        yield _time_major(streams, (chunk,),
                          lambda stream: sample_randomization(chunk, stream).uniforms)


def skip_uniforms(stream: np.random.Generator, count: int) -> np.random.Generator:
    """A new generator on ``stream``'s substream, past its first ``count``
    uniform draws.

    ``skip_uniforms(stream, count).random(k)`` returns draws ``count`` to
    ``count + k - 1`` of the substream, whatever ``stream`` itself has
    drawn.  Philox makes four 64-bit words per counter step and ``random``
    takes one word per value, so the copy's counter advances by
    ``count // 4`` and the remaining ``count % 4`` values are drawn and
    dropped.  Copying from the seed sequence costs less than deriving the
    substream again.
    """
    copy = np.random.Generator(np.random.Philox(stream.bit_generator.seed_seq))
    copy.bit_generator.advance(count // 4)
    copy.random(count % 4)
    return copy


def randomized_time(t_left: float, dt: float, u: float) -> float:
    """Randomized evaluation time t_left + dt*u, in [t_left, t_left + dt)."""
    if dt <= 0:
        raise InvalidParameterError("dt must be positive")
    if not 0.0 <= u < 1.0:
        raise InvalidParameterError("u must lie in [0, 1)")
    return t_left + dt * u


def iterated_integrals(dW, dt: float, structure: NoiseStructure) -> np.ndarray:
    """Per-step iterated Ito integrals I[k, l] for one increment vector.

    For scalar and diagonal structures the diagonal is ((dW_k)^2 - dt)/2 and
    off-diagonal entries vanish.  For commutative structure the symmetrised
    value (dW_k*dW_l - delta_{kl}*dt)/2 is exact once contracted against a
    tensor symmetric in (k, l).  General structure is rejected: simulating
    Levy areas is out of scope, and misuse should be loud.

    ``dW`` may be a single vector (m,) or a batch (..., m); the result has
    shape (..., m, m).
    """
    if structure is NoiseStructure.GENERAL:
        raise UnsupportedNoiseStructureError(
            "general (non-commutative) noise requires Levy-area simulation, "
            "which is not supported"
        )
    dw = np.asarray(dW, dtype=float)
    m = dw.shape[-1]
    diag = (dw * dw - dt) / 2.0
    if structure in (NoiseStructure.SCALAR, NoiseStructure.DIAGONAL):
        out = np.zeros(dw.shape + (m,))
    else:  # commutative
        out = dw[..., :, None] * dw[..., None, :] / 2.0
    idx = np.arange(m)
    out[..., idx, idx] = diag
    return out
