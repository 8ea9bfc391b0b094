"""The stepping kernel and the whole-path integrators built on it.

Four explicit schemes share ``_step_batch``, the kernel :class:`BatchStepper` runs:

* ``EULER_MARUYAMA`` - no taming, no Milstein correction (the classical
  explicit baseline that loses moment control under superlinear drift),
* ``TAMED_EULER`` - tamed drift, no Milstein correction,
* ``TAMED_MILSTEIN`` - tamed drift evaluated at the left endpoint of each
  step, plus the Milstein correction,
* ``RANDOMIZED_TAMED_MILSTEIN`` - as above, but the drift time is drawn
  uniformly inside each step.

The kernel runs the scheme's two rules through the functions that define
them.  :func:`tame_drift` divides the drift by ``1 + |x|^(2 xi) / n``
where ``n`` is the total step count, so the tamed value never exceeds the
raw drift in norm and the modification is pointwise O(1/n).  A
:class:`~sde_rtm.model.TamingSplit` restricts taming to a superlinear
summand (and its denominator norm to selected components), as the
FitzHugh-Nagumo builtin does for its cubic term.  Every kind steps the
drift as ``b = wild / D + mild``, with ``wild`` and ``mild`` a split's two
summands, or the whole drift and nothing where there is no split; only
the tamed kinds build the denominator ``D``, so Euler-Maruyama differs
from tamed Euler by ``D`` alone.
:func:`~sde_rtm.noise.randomized_time` puts the randomized kind's drift
time strictly inside ``[t_j, t_{j+1})``; the diffusion and the correction
tensor are always evaluated at the left endpoint.

Apart from the state a :class:`BatchStepper` carries, everything here is a
pure function of its inputs.  The kernel steps d ``(B,)`` state components
(the component form of :mod:`sde_rtm.model`, whose structural zeros it
skips) with elementwise numpy ops only, so per-path results are
bit-identical however paths are grouped into batches.

Each step skips the term of every entry of ``wild``, ``mild``, the
diffusion and the correction tensor that it gets back as the float 0.0,
and multiplies every other entry, so zeros that appear or vanish mid-run
need no special handling.  ``dt`` and the taming's constants are 0-d
float64 arrays, which numpy applies without converting them on every
operation.

One loop steps every path: :class:`BatchStepper` holds a block's state,
first overflow steps and step count across calls, so a grid can be fed
piece by piece as its increments are drawn; :func:`simulate_batch` feeds
it a whole grid.  Each piece is walked in chunks of ``_CHUNK`` steps.  What
depends only on the noise is prepared once per chunk: a contiguous
``(C, B, m)`` copy of the increments, the iterated integrals of that whole
block (Milstein kinds) and the randomized drift times; each step reads
``(B,)`` views of them and runs only the state-dependent work.  Each step
accumulates the sums of each component in its row of a ``(C, d, B)``
buffer (``out=``), and the next step reads its state from there; the state
carried past a chunk is copied out, since the next chunk refills the
buffer.  One vectorised scan per chunk finds the first non-finite step of
each path.  That scan is exact because every step computes ``x + ...`` and
a non-finite component stays non-finite under addition, so a path that
overflows stays non-finite for the rest of the chunk.  The same buffer
and the scan's finite mask are handed to any observer of the states.  The
arithmetic of each step is unchanged, so results are bit-identical for
any chunk size and any cut of the grid into pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .model import (InvalidParameterError, NoiseStructure, SdeProblem, _check_int,
                    _check_real, _check_type, _constant)
from .noise import (
    _MAX_LEVEL,
    BrownianGrid,
    RandomizationStream,
    UnsupportedNoiseStructureError,
    coarsen,
    iterated_integrals,
    randomized_time,
)

__all__ = [
    "SchemeKind",
    "PathResult",
    "tame_drift",
    "integrate_path",
    "BatchStepper",
    "simulate_batch",
]


class SchemeKind(Enum):
    EULER_MARUYAMA = "euler_maruyama"
    TAMED_EULER = "tamed_euler"
    TAMED_MILSTEIN = "tamed_milstein"
    RANDOMIZED_TAMED_MILSTEIN = "randomized_tamed_milstein"


_MILSTEIN_KINDS = frozenset(
    {SchemeKind.TAMED_MILSTEIN, SchemeKind.RANDOMIZED_TAMED_MILSTEIN}
)

# The most paths one run takes: it holds a result per path in memory, and a
# larger count would exhaust it or run for days.
_MAX_COUNT = 1 << 24

# Steps per chunk in BatchStepper.feed: noise-only inputs are prepared and
# the overflow scan runs once per chunk.  Results never depend on this value.
_CHUNK = 256

# What each of a step's four coefficient results is called in an error; the
# summands of a TamingSplit are the drift's
_COEFFICIENTS = ("drift", "drift", "diffusion", "milstein_tensor")


@dataclass(frozen=True)
class PathResult:
    """Terminal state of one integrated path.

    ``overflow_step`` is the index of the step whose output first became
    non-finite, or None; an overflow is a reportable outcome, not an error.
    """

    terminal: np.ndarray
    overflow_step: Optional[int] = None


def _taming(n: int, xi: float):
    # tame_drift's denominator 1 + |x|^(2 xi) / n of a list of components,
    # unchecked; |x|^2 sums them in index order.  1 and n are 0-d arrays,
    # the exponent a Python float (numpy's power fast paths)
    one, n, power = _constant(1.0), _constant(n), 2.0 * xi

    def denominator(x):
        square = x[0] * x[0]
        for component in x[1:]:
            square = square + component * component
        return one + np.sqrt(square) ** power / n
    return denominator


def tame_drift(mu_value, x, n: int, xi: float):
    """Tame a raw drift value: ``mu / (1 + |x|^(2 xi) / n)``.

    The denominator is always >= 1, so ``|tamed| <= |mu|`` exactly, and
    ``|mu - tamed| <= |mu| |x|^(2 xi) / n`` pointwise.  Accepts a single
    vector with state ``(d,)`` or batches ``(..., d)``; ``mu`` must have the
    state's shape with d >= 1, ``n`` an integer in [1, 2**62] and ``xi`` a
    finite real >= 0, else :class:`InvalidParameterError`.
    """
    n = _check_int("n", n, 1, 1 << _MAX_LEVEL)
    _check_real("xi", xi, 0)
    mu_value, x = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (mu_value, x))
    if mu_value.shape != x.shape:
        raise InvalidParameterError(f"drift shape {mu_value.shape} differs from "
                                    f"state shape {x.shape}")
    if x.shape[-1] == 0:
        raise InvalidParameterError(f"state shape {x.shape} has no component")
    denominator = _taming(n, xi)([x[..., i] for i in range(x.shape[-1])])
    return mu_value / denominator[..., None]


def _wrong_length(named, symbol, size):
    # the error for the first (name, entries) pair of named whose entries number
    # other than size: d for a coefficient, m for a row of one
    name, entries = next((name, entries) for name, entries in named if len(entries) != size)
    raise InvalidParameterError(f"the {name} returned {len(entries)} entries, "
                                f"not {symbol} = {size}")


def _step_batch(problem: SdeProblem, kind: SchemeKind, dt: float, n: int):
    """The stepping kernel :class:`BatchStepper` runs.

    Returns ``advance(x, t_left, t_drift, dw, iw, out)``, which moves the d
    (B,) state components ``x`` by one step of size ``dt`` with taming
    parameter ``n``: component i becomes ``((x_i + b_i dt) + sum_k rho_ik
    dw_k) + sum_kl L_ikl iw[k m + l]`` (``b_i = wild_i / D + mild_i``), each
    sum in index order, accumulated in the (B,) row ``out[i]``; it returns
    ``out``, which must not share memory with ``x``.  ``t_drift`` is
    ``t_left`` or a (B,) array for the randomized kind, ``dw`` the m (B,)
    increments and ``iw`` the m * m (B,) iterated integrals, row-major
    (Milstein kinds; None otherwise).

    The drift is read the same way for every kind: ``wild`` and ``mild``
    are the taming split's ``superlinear`` and ``remainder``, whose
    denominator norm runs over its ``norm_indices``, or without a split the
    whole drift and no ``mild``, over every component.  The tamed kinds
    divide ``wild`` by ``D = 1 + |x|^(2 xi) / n``; Euler-Maruyama builds
    no ``D`` and steps ``wild + mild``.

    The coefficient callables are looked up once, here, and general noise
    is rejected for the Milstein kinds, whose iterated integrals it would
    make inexact.  Each step skips the terms of the entries of ``wild``,
    ``mild``, rho and L that it gets back as the float 0.0, the structural
    zeros, and multiplies every other entry; so an entry may be a zero at
    some steps and not at others.  At any step, a coefficient that returns
    other than d entries, a diffusion row of other than m entries or (the
    Milstein kinds) a tensor entry of other than m rows of m entries raises
    :class:`InvalidParameterError` naming the coefficient.
    """
    if kind in _MILSTEIN_KINDS and problem.noise_structure is NoiseStructure.GENERAL:
        raise UnsupportedNoiseStructureError("Milstein kinds do not support general noise")
    split, d, m = problem.taming_split, problem.d, problem.m
    wild, mild, norm = ((problem.drift, None, range(d)) if split is None
                        else (split.superlinear, split.remainder, split.norm_indices))
    taming = None if kind is SchemeKind.EULER_MARUYAMA else _taming(n, problem.xi)
    diffusion = problem.diffusion
    milstein_tensor = problem.milstein_tensor if kind in _MILSTEIN_KINDS else None
    dt = _constant(dt)
    # an absent summand's entries are zeros, an absent tensor's entries have no rows
    no_mild, no_tensor, rows = (0.0,) * d, ((),) * d, 0 if milstein_tensor is None else m

    def advance(x, t_left, t_drift, dw, iw, out):
        coefficients = (wild(t_drift, x), no_mild if mild is None else mild(t_drift, x),
                        diffusion(t_left, x),
                        no_tensor if milstein_tensor is None else milstein_tensor(t_left, x))
        wild_v, mild_v, rho_v, lam_v = coefficients
        # a short coefficient would leave a row of out unwritten; len is cheaper
        # than a strict zip
        if len(wild_v) != d or len(mild_v) != d or len(rho_v) != d or len(lam_v) != d:
            _wrong_length(zip(_COEFFICIENTS, coefficients), "d", d)
        denominator = None if taming is None else taming([x[r] for r in norm])
        for x_i, row, wild_i, mild_i, rho_i, lam_i in zip(x, out, *coefficients):
            b_i = None
            if type(wild_i) is not float or wild_i != 0.0:
                b_i = wild_i if denominator is None else wild_i / denominator
            if type(mild_i) is not float or mild_i != 0.0:
                b_i = mild_i if b_i is None else b_i + mild_i
            if b_i is not None:
                np.add(x_i, b_i * dt, row)
                x_i = row
            # a row of other than m entries would drop or misplace noise terms
            if len(rho_i) != m or len(lam_i) != rows:
                _wrong_length((("diffusion", rho_i), ("milstein_tensor", lam_i)), "m", m)
            total = None
            for k, rho_ik in enumerate(rho_i):
                if type(rho_ik) is not float or rho_ik != 0.0:
                    term = rho_ik * dw[k]
                    total = term if total is None else total + term
            if total is not None:
                np.add(x_i, total, row)
                x_i = row
            total, position = None, 0  # iw[position] is iw_kl, row-major
            for lam_ik in lam_i:
                if len(lam_ik) != m:
                    _wrong_length((("milstein_tensor", lam_ik),), "m", m)
                for lam_ikl in lam_ik:
                    if type(lam_ikl) is not float or lam_ikl != 0.0:
                        term = lam_ikl * iw[position]
                        total = term if total is None else total + term
                    position += 1
            if total is not None:
                np.add(x_i, total, row)
                x_i = row
            if x_i is not row:
                row[...] = x_i
        return out

    return advance


def _per_step(block):
    # a (C, B, k) block as C tuples of k (B,) views, contiguous when k == 1
    return zip(*block.transpose(2, 0, 1))


class BatchStepper:
    """Resumable integration of a block of ``batch`` paths on an n-step grid.

    The state's d (B,) components ``state`` (stacked: ``x``, (B, d)), the
    first overflow step of each path ``overflow`` (B,) and the number of
    steps taken ``steps`` carry over from one :meth:`feed` to the next, so a
    grid can be integrated piece by piece as its increments arrive.
    Per-path results do not depend on how the grid is cut into pieces.
    ``kind`` must be a :class:`SchemeKind`, ``n_steps`` an integer in
    [1, 2**62] and ``batch`` an integer in [1, 2**24], else
    :class:`InvalidParameterError`.
    """

    def __init__(self, problem: SdeProblem, kind: SchemeKind, n_steps: int,
                 batch: int):
        _check_type("kind", kind, SchemeKind)
        n_steps = _check_int("n_steps", n_steps, 1, 1 << _MAX_LEVEL)
        batch = _check_int("batch", batch, 1, _MAX_COUNT)
        self.problem = problem
        self.n_steps = n_steps
        self.dt = problem.horizon / n_steps
        self.randomized = kind is SchemeKind.RANDOMIZED_TAMED_MILSTEIN
        self.milstein = kind in _MILSTEIN_KINDS
        self.advance = _step_batch(problem, kind, self.dt, n_steps)
        self.state = [np.full(batch, value) for value in problem.initial_state]
        self.overflow = np.full(batch, -1, dtype=np.int64)
        self.steps = 0
        self._states = np.empty((min(_CHUNK, n_steps), problem.d, batch))

    x = property(lambda self: np.stack(self.state, axis=1))

    def feed(self, increments, uniforms=None, observe=None) -> None:
        """Take the next ``C`` steps.

        ``increments`` is time-major, (C, B, m), for this stepper's ``B``
        paths and the problem's ``m``; ``uniforms`` (C, B) is required for
        the randomized kind.  Any other shape, more steps than the grid has,
        or a uniform outside [0, 1) raises :class:`InvalidParameterError`.
        ``observe(index, states, finite)``, if given, receives the states at
        grid indices ``index`` to ``index + len(states) - 1`` as a
        component-major (len, d, B) buffer, and the overflow scan's own mask
        ``finite`` (len, B).  The observer reads both and writes neither: the
        kernel refills the buffer with the next chunk's states.  The first
        feed that takes a step also observes grid point 0, so an observer
        sees indices 0 to n once each, in order.
        """
        batch, m = len(self.overflow), self.problem.m
        inc = np.ascontiguousarray(increments, dtype=float)
        if inc.shape[1:] != (batch, m):
            raise InvalidParameterError(f"increments must have shape (C, {batch}, {m})")
        if self.steps + len(inc) > self.n_steps:
            raise InvalidParameterError(f"more than {self.n_steps} steps fed")
        if self.randomized:
            if uniforms is None or np.shape(uniforms) != inc.shape[:2]:
                raise InvalidParameterError(
                    f"the randomized kind needs uniforms of shape {inc.shape[:2]}")
            uniforms = np.ascontiguousarray(uniforms, dtype=float)
        dt, advance = self.dt, self.advance
        structure = self.problem.noise_structure
        x, overflow = self.state, self.overflow
        with np.errstate(all="ignore"):
            if observe is not None and self.steps == 0 and len(inc):
                self._states[0] = x  # grid point 0, the initial state
                observe(0, self._states[:1], np.isfinite(self._states[:1]).all(axis=1))
            for c0 in range(0, len(inc), _CHUNK):
                c1 = min(c0 + _CHUNK, len(inc))
                j0 = self.steps + c0
                t_left = np.arange(j0, j0 + c1 - c0) * dt
                dw = inc[c0:c1]
                iw = (_per_step(iterated_integrals(dw, dt, structure).reshape(c1 - c0, batch, -1))
                      if self.milstein else [None] * (c1 - c0))
                t_drift = (randomized_time(t_left[:, None], dt, uniforms[c0:c1])
                           if self.randomized else t_left)
                states = self._states[: c1 - c0]
                # each step writes its d (B,) rows of the buffer and reads the last
                for step_inputs in zip(t_left, t_drift, _per_step(dw), iw,
                                       zip(*states.transpose(1, 0, 2))):
                    x = advance(x, *step_inputs)
                # one scan per chunk: a non-finite component stays non-finite
                # under ``x + ...``, so a path's last state in the chunk tells
                # whether it overflowed and argmin finds the first such step
                finite = np.isfinite(states).all(axis=1)
                fresh = (overflow < 0) & ~finite[-1]
                if fresh.any():
                    overflow[fresh] = j0 + finite[:, fresh].argmin(axis=0)
                if observe is not None:
                    observe(j0 + 1, states, finite)
                # carried out of the buffer, which the next chunk refills
                x = [component.copy() for component in x]
        self.state = x
        self.steps += len(inc)


def simulate_batch(problem: SdeProblem, kind: SchemeKind, increments,
                   uniforms=None):
    """Integrate a block of paths over the whole horizon.

    Parameters
    ----------
    increments : array (B, n, m)
        Brownian increments of B paths on the uniform n-step grid.
    uniforms : array (B, n), optional
        Per-step uniform draws; required for the randomized kind.

    Returns
    -------
    terminal : array (B, d)
    overflow_step : int array (B,), -1 where the path stayed finite
    path : None
        Always None.  The slot is kept so that callers unpacking three
        values keep working; whole paths are observed through
        ``BatchStepper.feed(observe=...)``.

    Increments that are not (B, n, m), uniforms of another shape, or an
    argument :class:`BatchStepper` rejects raise :class:`InvalidParameterError`.
    """
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 3:
        raise InvalidParameterError("increments must have shape (B, n, m)")
    stepper = BatchStepper(problem, kind, inc.shape[1], len(inc))
    stepper.feed(inc.transpose(1, 0, 2),
                 None if uniforms is None else np.asarray(uniforms, dtype=float).T)
    return stepper.x, stepper.overflow, None


def integrate_path(problem: SdeProblem, kind: SchemeKind, level: int,
                   brownian: BrownianGrid,
                   uniforms: RandomizationStream = None) -> PathResult:
    """Integrate one path at a dyadic level, coarsening the grid as needed.

    The grid may be finer than ``level``; it is coarsened exactly, so a
    coarse run and a fine reference can share one Brownian path.  A level
    outside [0, brownian.level], or a grid or uniforms that do not fit the
    problem, raise :class:`InvalidParameterError`; a state that turns
    non-finite is reported through ``overflow_step`` rather than raised.
    """
    if brownian.horizon != problem.horizon:
        raise InvalidParameterError("grid horizon differs from problem horizon")
    grid = coarsen(brownian, _check_int("level", level, 0, brownian.level))
    u = None if uniforms is None else uniforms.uniforms[None, : grid.n]
    terminal, overflow, _ = simulate_batch(problem, kind,
                                           grid.increments[None, :, :], u)
    return PathResult(
        terminal=terminal[0],
        overflow_step=int(overflow[0]) if overflow[0] >= 0 else None,
    )

