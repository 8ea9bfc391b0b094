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

:func:`derive_substream` builds one path's generator from
``SeedSequence(master_seed, spawn_key=(path, role))``.  A :class:`SlabStream`
serves a whole slab of consecutive paths at vectorized cost instead: it
runs numpy's published SeedSequence hash (a pool of four uint32 words,
``hashmix`` and ``mix``, then ``generate_state(2, uint64)``) once over all
path indices to get every path's Philox key.  One reused Philox generator
draws a path-major block of paths at a time, each path set through one
reused state dict or resumed where its last piece left off, and the block
is copied transposed into the time-major piece.  The draws equal
:func:`derive_substream`'s bit for bit, which rests on numpy keeping that
algorithm: each slab stream checks its first key against ``SeedSequence``
and raises ``RuntimeError`` on a mismatch, so a numpy change fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (InvalidParameterError, NoiseStructure, _check_int, _check_positive,
                    _check_real, _check_type, _is_int)

__all__ = [
    "StreamRole",
    "SeedPolicy",
    "BrownianGrid",
    "RandomizationStream",
    "UnsupportedNoiseStructureError",
    "derive_substream",
    "sample_brownian_grid",
    "SlabStream",
    "coarsen",
    "coarsen_chunks",
    "terminal_value",
    "sample_randomization",
    "randomized_time",
    "iterated_integrals",
]


_MAX_LEVEL = 62  # the finest level whose 1 << level steps fit int64 step indices


def _check_level(level) -> int:
    return _check_int("level", level, 0, _MAX_LEVEL)


def _check_grid(level, m, horizon) -> None:
    _check_level(level)
    if not (_is_int(m) and m >= 1):
        raise InvalidParameterError(f"m must be a positive integer, got {m!r}")
    _check_positive("horizon", horizon)


def _check_chunk(chunk, level: int) -> None:
    # the dyadic piece rule: a power of two in [1, 2**level]
    if not (_is_int(chunk) and 1 <= chunk <= 1 << level) or chunk & (chunk - 1):
        raise InvalidParameterError(
            f"chunk must be a power of two in [1, {1 << level}], got {chunk}")


def _check_unit_interval(name: str, values: np.ndarray) -> None:
    if values.size and not (values.min() >= 0.0 and values.max() < 1.0):  # NaN fails both
        raise InvalidParameterError(f"{name} must lie in [0, 1)")


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
        seed = self.master_seed
        if not (_is_int(seed) and 0 <= seed < 2 ** 64):
            raise InvalidParameterError(
                f"master_seed must be a 64-bit unsigned integer, got {seed!r}")
        object.__setattr__(self, "master_seed", int(seed))


def derive_substream(policy: SeedPolicy, path_index: int, role: StreamRole) -> np.random.Generator:
    """Return the deterministic substream for (path_index, role): a
    :class:`SeedPolicy`, path_index an integer >= 0 and role a
    :class:`StreamRole`, else InvalidParameterError."""
    _check_type("policy", policy, SeedPolicy)
    if not (_is_int(path_index) and path_index >= 0):
        raise InvalidParameterError("path_index must be a nonnegative integer")
    _check_type("role", role, StreamRole)
    seq = np.random.SeedSequence(policy.master_seed, spawn_key=(path_index, role.value))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class BrownianGrid:
    """Increments of one Brownian path on a dyadic grid.

    ``increments[j]`` is w(t_{j+1}) - w(t_j) on the uniform grid with
    2**level steps of size horizon / 2**level.  The level is an integer in
    [0, 62], m an integer >= 1 and the horizon finite > 0, else
    :class:`InvalidParameterError`.
    """

    level: int
    horizon: float
    m: int
    increments: np.ndarray  # shape (2**level, m)

    def __post_init__(self):
        _check_grid(self.level, self.m, self.horizon)
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


def sample_brownian_grid(level: int, m: int, horizon: float,
                         stream: np.random.Generator) -> BrownianGrid:
    """Sample a grid of 2**level Gaussian increments with variance
    horizon/2**level; the arguments follow :class:`BrownianGrid`'s rule."""
    _check_grid(level, m, horizon)
    n = 1 << level
    dt = horizon / n
    increments = stream.standard_normal((n, m)) * np.sqrt(dt)
    return BrownianGrid(level=level, horizon=horizon, m=m, increments=increments)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _philox_keys(master_seed: int, indices: np.ndarray, role: int) -> np.ndarray:
    """The Philox keys, shape (len(indices), 2) uint64, of
    ``SeedSequence(master_seed, spawn_key=(index, role))`` for every index.

    numpy's algorithm, vectorized over the index: the entropy words are the
    seed's two uint32 words zero-padded to the pool size of four, then the
    index and the role (one word each, so indices lie below 2**32); they are
    hashed into the pool, and the key is ``generate_state(2, uint64)``.  The
    seed words are the same for every path, so they are hashed as
    length-one arrays that broadcast once the index mixes in.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ result >> _XSHIFT

    seed_words = [master_seed & _MASK32, master_seed >> 32, 0, 0]
    pool = [hashmix(np.array([word], dtype=np.uint32)) for word in seed_words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in (indices.astype(np.uint32), np.array([role], dtype=np.uint32)):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = []
    for word in pool:
        word = word ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        word = word * np.uint32(const)
        state.append((word ^ word >> _XSHIFT).astype(np.uint64))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


_DRAW_BLOCK = 32  # paths drawn path-major at a time, then copied into a piece


class SlabStream:
    """The substreams of one role for the paths ``start`` to ``stop - 1``.

    Every path's Philox key comes from one vectorized pass of numpy's
    SeedSequence hash, and one generator, the first path's
    :func:`derive_substream`, serves the whole slab: it starts a path from
    one reused state dict (only the key or counter changes) and draws it
    into a path-major block of ``_DRAW_BLOCK`` paths, copied transposed into
    the time-major piece.  The draws equal those of ``derive_substream(policy,
    path, role)`` bit for bit.  The first path's hashed key is checked
    against its ``SeedSequence`` key; a ``RuntimeError`` means numpy's
    algorithm changed.  A :class:`SeedPolicy`, integer path indices
    ``0 <= start < stop <= 2**32`` and a :class:`StreamRole`, else
    InvalidParameterError.
    """

    def __init__(self, policy: SeedPolicy, start: int, stop: int, role: StreamRole):
        if not (_is_int(start) and _is_int(stop) and 0 <= start < stop <= 1 << 32):
            raise InvalidParameterError(
                f"a slab needs path indices in [0, 2**32), got [{start}, {stop})")
        # the first path's own generator checks the policy, the role and the
        # hash, then serves the slab
        self._gen = derive_substream(policy, start, role)
        self._bitgen = self._gen.bit_generator
        keys = _philox_keys(policy.master_seed,
                            np.arange(start, stop, dtype=np.uint64), role.value)
        if not np.array_equal(keys[0], self._bitgen.state["state"]["key"]):
            raise RuntimeError(
                f"vectorized Philox key of path {start} ({role.name}) differs from "
                "numpy.random.SeedSequence's: numpy's SeedSequence algorithm has "
                "changed, so slab draws would not match derive_substream")
        # the state setter reads plain lists faster than array rows
        self._keys = keys.tolist()
        self._state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
                       "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def __len__(self) -> int:
        return len(self._keys)

    def _piece(self, shape, block, draw, lead: int = 0) -> np.ndarray:
        # a fresh time-major piece of ``shape`` (steps, width, ...):
        # ``draw(b, row)`` fills path b's row of the path-major ``block``, and
        # each block of rows, from column ``lead`` on, is copied transposed in
        out = np.empty(shape)
        for b0 in range(0, shape[1], len(block)):
            rows = block[:shape[1] - b0]
            for b, row in enumerate(rows, b0):
                draw(b, row)
            out[:, b0:b0 + len(rows)] = rows[:, lead:].swapaxes(0, 1)
        return out

    def _start(self, b: int, counter: int = 0) -> dict:
        # the reused state dict at path b's key and counter, buffer empty
        position = self._state["state"]
        position["key"], position["counter"][0] = self._keys[b], counter
        return self._state

    def brownian(self, level: int, m: int, horizon: float, chunk: int):
        """Yield every path's increments on the 2**level grid, ``chunk``
        steps at a time, as fresh time-major arrays ``(chunk, len(self), m)``.

        The grid arguments follow :class:`BrownianGrid`'s rule, and
        ``chunk`` must be a power of two no larger than 2**level.  Column
        ``b`` of the pieces concatenates to ``sample_brownian_grid(level, m,
        horizon, derive_substream(policy, start + b, role)).increments``:
        consecutive Gaussian draws from one substream equal a single draw,
        and scaling the whole piece by sqrt(dt) is the same elementwise
        product.  The ziggurat takes a varying number of Philox words per
        value, so each path resumes from the state its last piece left.
        """
        _check_grid(level, m, horizon)
        _check_chunk(chunk, level)
        n = 1 << level
        width = len(self)
        scale = np.sqrt(horizon / n)
        block = np.empty((min(width, _DRAW_BLOCK), chunk, m))
        resume = [None] * width  # each path's state after its previous piece

        def draw(b, row):
            self._bitgen.state = resume[b] or self._start(b)
            self._gen.standard_normal(out=row)
            if keep:
                resume[b] = self._bitgen.state

        for piece in range(n // chunk):
            keep = piece < n // chunk - 1
            out = self._piece((chunk, width, m), block, draw)
            out *= scale
            yield out

    def uniforms(self, offset: int, count: int, chunk: int):
        """Yield draws ``offset`` to ``offset + count - 1`` of every path's
        substream, ``chunk`` at a time, as fresh time-major arrays
        ``(chunk, len(self))``.

        Integers ``offset >= 0`` and ``chunk >= 1`` dividing ``count``.
        Column ``b`` of the pieces concatenates to
        ``sample_randomization(count, stream).uniforms`` for the path's
        substream after ``offset`` draws.  ``random`` takes one Philox word
        per value and Philox makes four words per counter step, so the draws
        at position ``k`` start from counter ``k // 4`` with the first
        ``k % 4`` values dropped, and no per-path state is kept.
        """
        if not (_is_int(offset) and _is_int(count) and _is_int(chunk) and offset >= 0
                and chunk >= 1) or count % chunk:
            raise InvalidParameterError(f"need integer offset {offset} >= 0, count {count} "
                                        f"and chunk {chunk} >= 1 dividing it")
        block = np.empty((min(len(self), _DRAW_BLOCK), 3 + chunk))
        for pos in range(offset, offset + count, chunk):
            lead = pos % 4

            def draw(b, row):
                self._bitgen.state = self._start(b, pos // 4)
                self._gen.random(out=row)

            yield self._piece((chunk, len(self)), block[:, :lead + chunk], draw, lead)


def coarsen(grid: BrownianGrid, target_level: int) -> BrownianGrid:
    """Coarsen a grid to ``target_level`` by exact pairwise block summation.

    The grid is the one piece of :func:`coarsen_chunks`, so coarsening is
    repeated one-level halving and telescopes bit exactly:
    coarsen(coarsen(g, a), b) == coarsen(g, b) for b <= a.  An integer
    target level in [0, grid.level], else :class:`InvalidParameterError`.
    """
    target_level = _check_int("target_level", target_level, 0, grid.level)
    (pieces,) = coarsen_chunks([grid.increments], grid.level, [target_level])
    return BrownianGrid(level=target_level, horizon=grid.horizon, m=grid.m,
                        increments=pieces[target_level])


def coarsen_chunks(chunks, level: int, targets):
    """Coarsen a stream of increment chunks at ``level`` to every target level.

    ``chunks`` yields consecutive pieces of one grid (or a batch of grids
    along trailing axes), time on axis 0: arrays of the first one's shape,
    whose length is a power of two in [1, 2**level], that cover the
    2**level steps, else :class:`InvalidParameterError` at the piece that
    breaks the rule or at the end of a short stream.  For each piece this
    yields ``{target: increments}`` with the target-level increments that
    the piece completes; a target whose steps span several pieces appears
    only in the piece that completes a step.  Each piece walks down the
    levels once, to the lowest target, pairing every node with its sibling
    (left + right): inside the piece while it has two or more nodes, else
    with the root of an earlier piece parked at that level, where a root
    with no sibling yet waits.  So all pieces follow one pairwise tree, of
    which :func:`coarsen` is the one-piece case, and target 0 yields the
    terminal value of :func:`terminal_value`.  ``targets`` holds integer
    levels in [0, level], else :class:`InvalidParameterError`.
    """
    targets = list(targets) if np.iterable(targets) else []
    if not (targets and all(_is_int(t) and 0 <= t <= level <= _MAX_LEVEL
                            for t in [level, *targets])):
        raise InvalidParameterError(
            f"targets must be a nonempty set of levels in [0, {level}]")
    targets, low = set(targets), min(targets)
    n, covered = 1 << level, 0
    pending = {}  # level -> left sibling of an unfinished coarse step
    for chunk in chunks:
        if not covered:
            shape = chunk.shape
            _check_chunk(len(chunk), level)
        covered += len(chunk)
        if chunk.shape != shape or covered > n:
            raise InvalidParameterError(
                f"pieces must all have shape {shape} and cover {n} in all")
        out = {}
        cur, cur_level = chunk, level
        while True:
            if cur_level in targets:
                out[cur_level] = cur
                if cur_level == low:
                    break
            if len(cur) > 1:  # pair siblings within the piece
                cur = cur[0::2] + cur[1::2]
            elif cur_level in pending:  # pair the piece's root with its left sibling
                cur = pending.pop(cur_level) + cur
            else:  # the root waits for its right sibling
                pending[cur_level] = cur
                break
            cur_level -= 1
        yield out
    if covered != n:
        raise InvalidParameterError(f"pieces cover {covered} of the {n} steps")


def terminal_value(grid: BrownianGrid) -> np.ndarray:
    """Terminal Brownian value w(horizon) via the pairwise dyadic sum order."""
    return np.array(coarsen(grid, 0).increments[0])


@dataclass(frozen=True)
class RandomizationStream:
    """Per-step Unif[0, 1) draws realising the randomized drift times."""

    uniforms: np.ndarray

    def __post_init__(self):
        arr = np.array(self.uniforms, dtype=float).reshape(-1)
        _check_unit_interval("uniforms", arr)
        arr.setflags(write=False)
        object.__setattr__(self, "uniforms", arr)


def sample_randomization(n: int, stream: np.random.Generator) -> RandomizationStream:
    """Draw n i.i.d. Unif[0, 1) values from the given substream, n in [1, 2**62]."""
    n = _check_int("n", n, 1, 1 << _MAX_LEVEL)
    return RandomizationStream(uniforms=stream.random(n))


def randomized_time(t_left, dt: float, u):
    """Randomized evaluation time t_left + dt*u, in [t_left, t_left + dt).

    ``t_left`` and ``u`` may be arrays that broadcast together, as the step
    kernel's (C, 1) left endpoints and (C, B) uniforms do.  A positive
    finite real ``dt`` and ``u`` in [0, 1), else :class:`InvalidParameterError`.
    """
    _check_positive("dt", dt)
    u = np.asarray(u, dtype=float)
    _check_unit_interval("u", u)
    # one array at the broadcast shape holds dt * u, then dt * u + t_left (the
    # same sum as t_left + dt * u: IEEE addition commutes).  When dt * (1 - u)
    # is below half an ulp of the sum, rounding carries the sum onto the right
    # endpoint; the largest float below it stays in the step.  Every update is
    # in place: a second (C, B) array would double the kernel's cost here.
    # [()] gives scalar inputs a scalar back.
    t = np.multiply(dt, u, out=np.empty(np.broadcast_shapes(np.shape(t_left), u.shape)))
    t += t_left
    np.minimum(t, np.nextafter(t_left + dt, -np.inf), out=t)
    return t[()]


def iterated_integrals(dW, dt: float, structure: NoiseStructure) -> np.ndarray:
    """Per-step iterated Ito integrals I[k, l] for one increment vector.

    For scalar and diagonal structures the diagonal is ((dW_k)^2 - dt)/2 and
    off-diagonal entries vanish.  For commutative structure the symmetrised
    value (dW_k*dW_l - delta_{kl}*dt)/2 is exact once contracted against a
    tensor symmetric in (k, l).  General structure is rejected: simulating
    Levy areas is out of scope, and misuse should be loud.

    ``dW`` may be a single vector (m,) or a batch (..., m); the result has
    shape (..., m, m).  A :class:`NoiseStructure` and a finite real
    ``dt >= 0``, else InvalidParameterError.
    """
    _check_type("structure", structure, NoiseStructure)
    if structure is NoiseStructure.GENERAL:
        raise UnsupportedNoiseStructureError(
            "general (non-commutative) noise requires Levy-area simulation, "
            "which is not supported"
        )
    _check_real("dt", dt, 0)
    dw = np.asarray(dW, dtype=float)
    m = dw.shape[-1]
    out = np.zeros(dw.shape + (m,))  # C order, so the reshape below is a view
    if structure is NoiseStructure.COMMUTATIVE:
        np.multiply(dw[..., :, None], dw[..., None, :], out=out)
        out /= 2.0
    # (dw * dw - dt) / 2 written straight into the result's diagonal
    diag = out.reshape(dw.shape[:-1] + (m * m,))[..., ::m + 1]
    np.multiply(dw, dw, out=diag)
    diag -= dt
    diag /= 2.0
    return out
