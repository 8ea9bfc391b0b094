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
raw drift in norm and the modification is pointwise O(1/n).  Problems may
carry a :class:`~sde_rtm.model.TamingSplit` that restricts taming to a
superlinear summand (and its denominator norm to selected components); the
FitzHugh-Nagumo builtin uses this to tame only its cubic term.
:func:`~sde_rtm.noise.randomized_time` puts the randomized kind's drift
time strictly inside ``[t_j, t_{j+1})``.

The diffusion and the correction tensor are always evaluated at the left
endpoint; only the drift time is randomized.

Apart from the state a :class:`BatchStepper` carries, everything here is a
pure function of its inputs.  The kernel steps d ``(B,)`` state components
(the component form of :mod:`sde_rtm.model`, whose structural zeros it
skips) with elementwise numpy ops only, so per-path results are
bit-identical however paths are grouped into batches.

One loop steps every path: :class:`BatchStepper` holds a block's state,
first overflow steps and step count across calls, so a grid can be fed
piece by piece as its increments are drawn; :func:`simulate_batch` feeds
it a whole grid.  Each piece is walked in chunks of ``_CHUNK`` steps.  What
depends only on the noise is prepared once per chunk: a contiguous
``(C, B, m)`` copy of the increments, the iterated integrals of that whole
block (Milstein kinds) and the randomized drift times; each step reads
``(B,)`` views of them and runs only the state-dependent work.  Each step
writes its state into a ``(C, d, B)`` buffer, and one vectorised scan per
chunk finds the first non-finite step of each path.  That scan is exact
because every step computes ``x + ...`` and a non-finite component stays
non-finite under addition, so a path that overflows stays non-finite for
the rest of the chunk.  The same buffer is handed to any observer of the
states.  The arithmetic of each step is unchanged, so results are
bit-identical for any chunk size and any cut of the grid into pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Optional

import numpy as np

from .model import (NoiseStructure, SdeProblem, _check_int, _check_ints, _check_positive,
                    _check_real, _check_type, _is_int, _stacked)
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
    "DimensionError",
    "tame_drift",
    "integrate_path",
    "BatchStepper",
    "simulate_batch",
    "audit_taming",
    "TamingAuditRow",
]


class DimensionError(ValueError):
    """Shape mismatch between a problem and the supplied noise inputs."""


class SchemeKind(Enum):
    EULER_MARUYAMA = "euler_maruyama"
    TAMED_EULER = "tamed_euler"
    TAMED_MILSTEIN = "tamed_milstein"
    RANDOMIZED_TAMED_MILSTEIN = "randomized_tamed_milstein"


_MILSTEIN_KINDS = frozenset(
    {SchemeKind.TAMED_MILSTEIN, SchemeKind.RANDOMIZED_TAMED_MILSTEIN}
)

# The most paths, or audit samples, one run takes: it holds a result per path
# or sample in memory, and a larger count would exhaust it or run for days.
_MAX_COUNT = 1 << 24

# Steps per chunk in BatchStepper.feed: noise-only inputs are prepared and
# the overflow scan runs once per chunk.  Results never depend on this value.
_CHUNK = 256


@dataclass(frozen=True)
class PathResult:
    """Terminal state of one integrated path.

    ``overflow_step`` is the index of the step whose output first became
    non-finite, or None; an overflow is a reportable outcome, not an error.
    """

    terminal: np.ndarray
    overflow_step: Optional[int] = None


def _is_zero(entry) -> bool:
    # the structural zero of the component form: the Python float 0.0
    return type(entry) is float and entry == 0.0


def _contract(entries, factors):
    # sum_k entries[k] * factors[k] in index order without the structural
    # zeros; None if every entry is one
    total = None
    for entry, factor in zip(entries, factors):
        if not _is_zero(entry):
            total = entry * factor if total is None else total + entry * factor
    return total


def _tame(mu, x, n: int, xi: float):
    # tame_drift's formula, unchecked, on drift entries and state components;
    # |x|^2 sums the components in index order
    square = x[0] * x[0]
    for component in x[1:]:
        square = square + component * component
    denominator = 1.0 + np.sqrt(square) ** (2.0 * xi) / n
    return [entry if _is_zero(entry) else entry / denominator for entry in mu]


def tame_drift(mu_value, x, n: int, xi: float):
    """Tame a raw drift value: ``mu / (1 + |x|^(2 xi) / n)``.

    The denominator is always >= 1, so ``|tamed| <= |mu|`` exactly, and
    ``|mu - tamed| <= |mu| |x|^(2 xi) / n`` pointwise.  Accepts a single
    vector with state ``(d,)`` or batches ``(..., d)``; ``mu`` must have the
    state's shape, else DimensionError.  An integer ``n`` in [1, 2**62] and a
    finite real ``xi >= 0``, else InvalidParameterError.
    """
    n = _check_int("n", n, 1, 1 << _MAX_LEVEL)
    _check_real("xi", xi, 0)
    mu_value, x = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (mu_value, x))
    if mu_value.shape != x.shape:
        raise DimensionError(f"drift shape {mu_value.shape} differs from "
                             f"state shape {x.shape}")
    components = [x[..., i] for i in range(x.shape[-1])]
    return _stacked(lambda mu: _tame(mu, components, n, xi), mu_value)


def _tamed_drift(problem: SdeProblem, n: int):
    """Return ``b(t, x)``, the drift entries after taming, honouring an
    optional per-summand split."""
    split = problem.taming_split
    drift, xi = problem.drift, problem.xi
    if split is None:
        return lambda t, x: _tame(drift(t, x), x, n, xi)
    superlinear, remainder = split.superlinear, split.remainder
    index = tuple(split.norm_indices)

    def tamed(t, x):
        wild = _tame(superlinear(t, x), [x[i] for i in index], n, xi)
        return [b if _is_zero(a) else a if _is_zero(b) else a + b
                for a, b in zip(wild, remainder(t, x))]
    return tamed


def _step_batch(problem: SdeProblem, kind: SchemeKind, dt: float, n: int):
    """The stepping kernel :class:`BatchStepper` runs.

    Returns ``advance(x, t_left, t_drift, dw, iw)``, which moves the d (B,)
    state components ``x`` by one step of size ``dt`` with taming parameter
    ``n``: component i becomes ``((x_i + b_i dt) + sum_k rho_ik dw_k) +
    sum_kl L_ikl iw_kl``, each sum in index order without its structural
    zeros.  ``t_drift`` is ``t_left`` or a (B,) array for the randomized
    kind, ``dw`` the m (B,) increments and ``iw`` the m * m (B,) iterated
    integrals, row-major (Milstein kinds; None otherwise).  The coefficient
    callables are looked up once, here, and general noise is rejected for
    the Milstein kinds, whose iterated integrals it would make inexact.
    """
    if kind in _MILSTEIN_KINDS and problem.noise_structure is NoiseStructure.GENERAL:
        raise UnsupportedNoiseStructureError("Milstein kinds do not support general noise")
    drift = problem.drift if kind is SchemeKind.EULER_MARUYAMA else _tamed_drift(problem, n)
    diffusion = problem.diffusion
    milstein_tensor = problem.milstein_tensor if kind in _MILSTEIN_KINDS else None

    def advance(x, t_left, t_drift, dw, iw):
        b, rho = drift(t_drift, x), diffusion(t_left, x)
        lam = None if milstein_tensor is None else milstein_tensor(t_left, x)
        out = []
        for i, component in enumerate(x):
            if not _is_zero(b[i]):
                component = component + b[i] * dt
            noise = _contract(rho[i], dw)
            if noise is not None:
                component = component + noise
            if lam is not None:
                correction = _contract(chain.from_iterable(lam[i]), iw)
                if correction is not None:
                    component = component + correction
            out.append(component)
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
    ``n_steps`` below 1 raises :class:`DimensionError`; ``kind`` must be a
    :class:`SchemeKind` and ``batch`` an integer in [1, 2**24], else
    ``InvalidParameterError``.
    """

    def __init__(self, problem: SdeProblem, kind: SchemeKind, n_steps: int,
                 batch: int):
        _check_type("kind", kind, SchemeKind)
        if not (_is_int(n_steps) and n_steps >= 1):
            raise DimensionError("a grid needs at least one step")
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
        the randomized kind, and a value outside [0, 1) raises
        ``InvalidParameterError``.  Any other shape, or more steps than the
        grid has, raises :class:`DimensionError`.  ``observe(index,
        states)``, if given, receives the states at grid indices ``index``
        to ``index + len(states) - 1`` as a component-major (len, d, B)
        buffer that is reused afterwards.
        """
        batch, m = len(self.overflow), self.problem.m
        inc = np.ascontiguousarray(increments, dtype=float)
        if inc.shape[1:] != (batch, m):
            raise DimensionError(f"increments must have shape (C, {batch}, {m})")
        if self.steps + len(inc) > self.n_steps:
            raise DimensionError(f"more than {self.n_steps} steps fed")
        if self.randomized:
            if uniforms is None or np.shape(uniforms) != inc.shape[:2]:
                raise DimensionError(
                    f"the randomized kind needs uniforms of shape {inc.shape[:2]}"
                )
            uniforms = np.ascontiguousarray(uniforms, dtype=float)
        dt, advance = self.dt, self.advance
        structure = self.problem.noise_structure
        x, overflow = self.state, self.overflow
        with np.errstate(all="ignore"):
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
                for c, step_inputs in enumerate(
                    zip(t_left, t_drift, _per_step(dw), iw)
                ):
                    x = advance(x, *step_inputs)
                    for i, component in enumerate(x):
                        states[c, i] = component
                # one scan per chunk: a non-finite component stays non-finite
                # under ``x + ...``, so a path's last state in the chunk tells
                # whether it overflowed and argmax finds the first such step
                bad = ~np.isfinite(states).all(axis=1)
                fresh = (overflow < 0) & bad[-1]
                if fresh.any():
                    overflow[fresh] = j0 + bad[:, fresh].argmax(axis=0)
                if observe is not None:
                    observe(j0 + 1, states)
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
    """
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 3:
        raise DimensionError("increments must have shape (B, n, m)")
    stepper = BatchStepper(problem, kind, inc.shape[1], len(inc))
    stepper.feed(inc.transpose(1, 0, 2),
                 None if uniforms is None else np.asarray(uniforms, dtype=float).T)
    return stepper.x, stepper.overflow, None


def integrate_path(problem: SdeProblem, kind: SchemeKind, level: int,
                   brownian: BrownianGrid,
                   uniforms: RandomizationStream = None) -> PathResult:
    """Integrate one path at a dyadic level, coarsening the grid as needed.

    The grid may be finer than ``level`` (outside [0, brownian.level] raises
    :class:`LevelError`); it is coarsened exactly, so a coarse run and a fine
    reference can share one Brownian path.  A state that turns non-finite is
    reported through ``overflow_step`` rather than raised.
    """
    if brownian.horizon != problem.horizon:
        raise DimensionError("grid horizon differs from problem horizon")
    grid = coarsen(brownian, level)
    u = None if uniforms is None else uniforms.uniforms[None, : grid.n]
    terminal, overflow, _ = simulate_batch(problem, kind,
                                           grid.increments[None, :, :], u)
    return PathResult(
        terminal=terminal[0],
        overflow_step=int(overflow[0]) if overflow[0] >= 0 else None,
    )


# --- taming audit ------------------------------------------------------------


@dataclass(frozen=True)
class TamingAuditRow:
    """Sampled taming diagnostics for one value of the step count n."""

    n: int
    max_drift_ratio: float        # max |tamed| / |mu|, must be <= 1
    growth_constant: float        # max |tamed| / (sqrt(n) (1 + |x|))
    consistency_ratio: float      # max n |mu - tamed| / (|mu| |x|^(2 xi)), <= 1


def _check_n_values(n_values) -> list:
    return _check_ints("n_values", n_values, 1, 1 << _MAX_LEVEL)


def _check_sample_count(sample_count) -> int:
    return _check_int("sample_count", sample_count, 1, _MAX_COUNT)


def _check_radius(radius) -> None:
    _check_positive("radius", radius)


def audit_taming(problem: SdeProblem, n_values, sample_count: int, radius: float,
                 stream: np.random.Generator) -> tuple:
    """Sampling-based audit of the generic taming operator on a problem.

    Draws (t, x) uniformly on [0, horizon] x ball(radius) and returns a
    tuple of one :class:`TamingAuditRow` per step count n, in order: the
    worst ratio of tamed to raw drift norm (bounded by 1 by construction),
    the empirical constant in front of sqrt(n)(1 + |x|), and the worst
    pointwise-consistency ratio n|mu - tamed|/(|mu||x|^(2 xi)) (also
    bounded by 1).  The audit always applies the whole-vector taming,
    regardless of any per-summand split the problem carries.

    ``n_values`` are integers in [1, 2**62], ``sample_count`` an integer in
    [1, 2**24] and ``radius`` a positive finite real; any other value raises
    :class:`InvalidParameterError` before a sample is drawn.
    """
    n_values = _check_n_values(n_values)
    _check_sample_count(sample_count)
    _check_radius(radius)
    times = stream.random(sample_count) * problem.horizon
    direction = stream.standard_normal((sample_count, problem.d))
    direction /= np.maximum(
        np.sqrt(np.sum(direction * direction, axis=1))[:, None], 1e-300
    )
    radii = radius * stream.random(sample_count) ** (1.0 / problem.d)
    xs = direction * radii[:, None]
    mus = _stacked(problem.drift, times, xs)
    mu_norm = np.sqrt(np.sum(mus * mus, axis=1))
    x_norm = np.sqrt(np.sum(xs * xs, axis=1))
    rows = []
    for n in n_values:
        tamed = tame_drift(mus, xs, n, problem.xi)
        tamed_norm = np.sqrt(np.sum(tamed * tamed, axis=1))
        nonzero = mu_norm > 0.0
        drift_ratio = float(np.max(tamed_norm[nonzero] / mu_norm[nonzero]))
        growth = float(np.max(tamed_norm / (np.sqrt(n) * (1.0 + x_norm))))
        gap = np.sqrt(np.sum((mus - tamed) ** 2, axis=1))
        denom = mu_norm * x_norm ** (2.0 * problem.xi)
        usable = denom > 0.0
        consistency = float(np.max(n * gap[usable] / denom[usable])) \
            if usable.any() else 0.0
        rows.append(TamingAuditRow(n, drift_ratio, growth, consistency))
    return tuple(rows)
