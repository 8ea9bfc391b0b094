"""One-step maps and whole-path integrators.

Four explicit integrators share one stepping kernel:

* ``EULER_MARUYAMA`` - no taming, no Milstein correction (the classical
  explicit baseline that loses moment control under superlinear drift),
* ``TAMED_EULER`` - tamed drift, no Milstein correction,
* ``TAMED_MILSTEIN`` - tamed drift evaluated at the left endpoint of each
  step, plus the Milstein correction,
* ``RANDOMIZED_TAMED_MILSTEIN`` - as above, but the drift time is drawn
  uniformly inside each step.

The drift taming divides by ``1 + |x|^(2 xi) / n`` where ``n`` is the total
step count, so the tamed value never exceeds the raw drift in norm and the
modification is pointwise O(1/n).  Problems may carry a
:class:`~sde_rtm.model.TamingSplit` that restricts taming to a superlinear
summand (and its denominator norm to selected components); the
FitzHugh-Nagumo builtin uses this to tame only its cubic term.

The diffusion and the correction tensor are always evaluated at the left
endpoint; only the drift time is randomized.

Apart from the state a :class:`BatchStepper` carries, everything here is a
pure function of its inputs.  The batch variants step ``(B, d)`` blocks of
states with elementwise numpy ops only, so per-path results are
bit-identical however paths are grouped into batches.

One loop steps every path: :class:`BatchStepper` holds a block's state,
first overflow steps and step count across calls, so a grid can be fed
piece by piece as its increments are drawn; :func:`simulate_batch` feeds
it a whole grid.  Each piece is walked in chunks of ``_CHUNK`` steps.  What
depends only on the noise is prepared once per chunk: a contiguous
``(C, B, m)`` copy of the increments, the iterated integrals of that whole
block (Milstein kinds) and the randomized drift times.  The per-step loop
then runs only the state-dependent work.  Each step writes its state into a
``(C, B, d)`` buffer, and one vectorised scan per chunk finds the first
non-finite step of each path.  That scan is exact because every step
computes ``x + ...`` and a non-finite component stays non-finite under
addition, so a path that overflows stays non-finite for the rest of the
chunk.  The same buffer feeds ``keep_path`` (and any other observer of the
states) with one copy per chunk.  The arithmetic of each step is
unchanged, so results are bit-identical for any chunk size and any cut of
the grid into pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .model import NoiseStructure, SdeProblem
from .noise import (
    BrownianGrid,
    LevelError,
    RandomizationStream,
    UnsupportedNoiseStructureError,
    coarsen,
    iterated_integrals,
)

__all__ = [
    "SchemeKind",
    "StepContext",
    "PathResult",
    "DimensionError",
    "tame_drift",
    "step",
    "integrate_path",
    "BatchStepper",
    "simulate_batch",
    "audit_taming",
    "TamingAudit",
    "TamingAuditRow",
]


class DimensionError(ValueError):
    """Shape mismatch between a problem and the supplied noise inputs."""


class SchemeKind(Enum):
    EULER_MARUYAMA = "euler_maruyama"
    TAMED_EULER = "tamed_euler"
    TAMED_MILSTEIN = "tamed_milstein"
    RANDOMIZED_TAMED_MILSTEIN = "randomized_tamed_milstein"


_TAMED_KINDS = frozenset(
    {SchemeKind.TAMED_EULER, SchemeKind.TAMED_MILSTEIN,
     SchemeKind.RANDOMIZED_TAMED_MILSTEIN}
)
_MILSTEIN_KINDS = frozenset(
    {SchemeKind.TAMED_MILSTEIN, SchemeKind.RANDOMIZED_TAMED_MILSTEIN}
)

# Steps per chunk in BatchStepper.feed: noise-only inputs are prepared and
# the overflow scan runs once per chunk.  Results never depend on this value.
_CHUNK = 256


@dataclass(frozen=True)
class StepContext:
    """Noise and time inputs for one step.

    ``t_left`` is the left grid point, ``dt`` the step size, ``dW`` the
    Brownian increment, ``I`` the per-step iterated integrals (required for
    Milstein kinds), ``u`` the uniform draw selecting the randomized drift
    time, and ``n`` the total step count acting as the taming parameter.
    """

    t_left: float
    dt: float
    dW: np.ndarray
    I: Optional[np.ndarray] = None
    u: float = 0.0
    n: int = 1


@dataclass(frozen=True)
class PathResult:
    """Terminal state of one integrated path.

    ``overflow_step`` is the index of the step whose output first became
    non-finite, or None; an overflow is a reportable outcome (used by the
    blow-up demonstration), not an error.
    """

    terminal: np.ndarray
    overflow_step: Optional[int] = None
    path: Optional[np.ndarray] = None

    @property
    def overflowed(self) -> bool:
        return self.overflow_step is not None


def tame_drift(mu_value, x, n: int, xi: float):
    """Tame a raw drift value: ``mu / (1 + |x|^(2 xi) / n)``.

    The denominator is always >= 1, so ``|tamed| <= |mu|`` exactly, and
    ``|mu - tamed| <= |mu| |x|^(2 xi) / n`` pointwise.  Accepts a single
    vector with state ``(d,)`` or batches ``(..., d)``.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    mu = np.asarray(mu_value, dtype=float)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    nrm = np.sqrt((xa * xa).sum(axis=-1))
    denom = 1.0 + nrm ** (2.0 * xi) / n
    if mu.ndim > 0 and np.ndim(denom) > 0:
        denom = np.asarray(denom)[..., None]
    return mu / denom


def _tamed_drift(problem: SdeProblem, n: int):
    """Return ``b(t, x)``, the drift after taming, honouring an optional
    per-summand split."""
    split = problem.taming_split
    drift, xi = problem.drift, problem.xi
    if split is None:
        return lambda t, x: tame_drift(drift(t, x), x, n, xi)
    superlinear, remainder, norm = split.superlinear, split.remainder, split.norm
    two_xi = 2.0 * xi

    def tamed(t, x):
        denom = 1.0 + norm(x) ** two_xi / n
        return superlinear(t, x) / denom[..., None] + remainder(t, x)

    return tamed


def _step_batch(problem: SdeProblem, kind: SchemeKind, dt: float, n: int):
    """The stepping kernel shared by :func:`step` and :func:`simulate_batch`.

    Returns ``advance(x, t_left, t_drift, dw, iw)``, which moves a (B, d)
    block of states by one step of size ``dt`` with taming parameter ``n``.
    The noise inputs arrive in broadcast form: ``t_drift`` is the drift
    time (``t_left``, or a (B,) array for the randomized kind), ``dw`` the
    increments as (B, 1, m) and ``iw`` the iterated integrals as
    (B, 1, m, m) (Milstein kinds; None otherwise).  The coefficient
    callables are looked up once, here.
    """
    if kind is SchemeKind.EULER_MARUYAMA:
        drift = problem.drift
    else:
        drift = _tamed_drift(problem, n)
    diffusion = problem.diffusion
    milstein_tensor = problem.milstein_tensor if kind in _MILSTEIN_KINDS else None

    def advance(x, t_left, t_drift, dw, iw):
        out = x + drift(t_drift, x) * dt + (diffusion(t_left, x) * dw).sum(axis=-1)
        if milstein_tensor is not None:
            out = out + (milstein_tensor(t_left, x) * iw).sum(axis=(-2, -1))
        return out

    return advance


def step(problem: SdeProblem, kind: SchemeKind, x, ctx: StepContext) -> np.ndarray:
    """One step of the chosen integrator from state ``x``.

    The drift is evaluated at ``t_left + dt*u`` for the randomized kind and
    at ``t_left`` otherwise, tamed for the tamed kinds; the diffusion and
    the correction tensor always use ``t_left``.  Euler kinds omit the
    correction term.
    """
    xa = np.asarray(x, dtype=float)
    if xa.shape != (problem.d,):
        raise DimensionError(f"state must have shape ({problem.d},)")
    dw = np.asarray(ctx.dW, dtype=float).reshape(-1)
    if dw.shape != (problem.m,):
        raise DimensionError(f"dW must have shape ({problem.m},)")
    if kind in _MILSTEIN_KINDS:
        if problem.noise_structure is NoiseStructure.GENERAL:
            raise UnsupportedNoiseStructureError(
                "Milstein kinds do not support general noise"
            )
        if ctx.I is None:
            raise ValueError("Milstein kinds require iterated integrals in ctx.I")
        iw = np.asarray(ctx.I, dtype=float).reshape(1, 1, problem.m, problem.m)
    else:
        iw = None
    if kind is SchemeKind.RANDOMIZED_TAMED_MILSTEIN:
        t_drift = ctx.t_left + ctx.dt * np.array([ctx.u])
    else:
        t_drift = ctx.t_left
    advance = _step_batch(problem, kind, ctx.dt, ctx.n)
    return advance(xa[None, :], ctx.t_left, t_drift, dw.reshape(1, 1, -1), iw)[0]


class BatchStepper:
    """Resumable integration of a block of ``batch`` paths on an n-step grid.

    The state ``x`` (B, d), the first overflow step of each path
    ``overflow`` (B,) and the number of steps taken ``steps`` carry over
    from one :meth:`feed` to the next, so a grid can be integrated piece by
    piece as its increments arrive.  Per-path results do not depend on how
    the grid is cut into pieces.
    """

    def __init__(self, problem: SdeProblem, kind: SchemeKind, n_steps: int,
                 batch: int):
        if (kind in _MILSTEIN_KINDS
                and problem.noise_structure is NoiseStructure.GENERAL):
            raise UnsupportedNoiseStructureError(
                "Milstein kinds do not support general noise"
            )
        self.problem = problem
        self.n_steps = n_steps
        self.dt = problem.horizon / n_steps
        self.randomized = kind is SchemeKind.RANDOMIZED_TAMED_MILSTEIN
        self.milstein = kind in _MILSTEIN_KINDS
        self.advance = _step_batch(problem, kind, self.dt, n_steps)
        self.x = np.repeat(problem.initial_state[None, :], batch, axis=0)
        self.overflow = np.full(batch, -1, dtype=np.int64)
        self.steps = 0
        self._states = np.empty((min(_CHUNK, n_steps), batch, problem.d))

    def feed(self, increments, uniforms=None, observe=None) -> None:
        """Take the next ``C`` steps.

        ``increments`` is time-major, (C, B, m); ``uniforms`` (C, B) is
        required for the randomized kind.  ``observe(index, states)``, if
        given, receives the states at grid indices ``index`` to
        ``index + len(states) - 1`` as a (len, B, d) buffer that is reused
        afterwards.
        """
        inc = np.ascontiguousarray(increments, dtype=float)
        if self.steps + len(inc) > self.n_steps:
            raise DimensionError(f"more than {self.n_steps} steps fed")
        if self.randomized:
            if uniforms is None:
                raise ValueError("the randomized kind requires uniform draws")
            uniforms = np.ascontiguousarray(uniforms, dtype=float)
        dt, advance = self.dt, self.advance
        structure = self.problem.noise_structure
        x, overflow = self.x, self.overflow
        with np.errstate(all="ignore"):
            for c0 in range(0, len(inc), _CHUNK):
                c1 = min(c0 + _CHUNK, len(inc))
                j0 = self.steps + c0
                j1 = j0 + c1 - c0
                t_left = [j * dt for j in range(j0, j1)]
                dw = inc[c0:c1]
                iw = (
                    iterated_integrals(dw, dt, structure)[:, :, None]
                    if self.milstein
                    else [None] * (c1 - c0)
                )
                t_drift = (
                    (np.arange(j0, j1) * dt)[:, None] + dt * uniforms[c0:c1]
                    if self.randomized
                    else t_left
                )
                states = self._states[: c1 - c0]
                for c, step_inputs in enumerate(
                    zip(t_left, t_drift, dw[:, :, None, :], iw)
                ):
                    x = advance(x, *step_inputs)
                    states[c] = x
                # one scan per chunk: a non-finite component stays non-finite
                # under ``x + ...``, so a path's last state in the chunk tells
                # whether it overflowed and argmax finds the first such step
                bad = ~np.isfinite(states).all(axis=2)
                fresh = (overflow < 0) & bad[-1]
                if fresh.any():
                    overflow[fresh] = j0 + bad[:, fresh].argmax(axis=0)
                if observe is not None:
                    observe(j0 + 1, states)
        self.x = x
        self.steps += len(inc)


def simulate_batch(problem: SdeProblem, kind: SchemeKind, increments,
                   uniforms=None, *, keep_path: bool = False):
    """Integrate a block of paths over the whole horizon.

    Parameters
    ----------
    increments : array (B, n, m)
        Brownian increments of B paths on the uniform n-step grid.
    uniforms : array (B, n), optional
        Per-step uniform draws; required for the randomized kind.
    keep_path : bool
        Also return the full trajectories, shape (B, n+1, d).

    Returns
    -------
    terminal : array (B, d)
    overflow_step : int array (B,), -1 where the path stayed finite
    path : array (B, n+1, d) or None
    """
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 3 or inc.shape[2] != problem.m:
        raise DimensionError(f"increments must have shape (B, n, {problem.m})")
    batch, n_steps, _ = inc.shape
    stepper = BatchStepper(problem, kind, n_steps, batch)
    if stepper.randomized and uniforms is not None:
        uniforms = np.asarray(uniforms, dtype=float)
        if uniforms.shape != (batch, n_steps):
            raise DimensionError(f"uniforms must have shape ({batch}, {n_steps})")
        uniforms = uniforms.T
    path = observe = None
    if keep_path:
        path = np.empty((batch, n_steps + 1, problem.d))
        path[:, 0] = stepper.x

        def observe(index, states):
            path[:, index:index + len(states)] = states.transpose(1, 0, 2)

    stepper.feed(inc.transpose(1, 0, 2), uniforms, observe)
    return stepper.x, stepper.overflow, path


def integrate_path(problem: SdeProblem, kind: SchemeKind, level: int,
                   brownian: BrownianGrid, uniforms: RandomizationStream = None,
                   *, keep_path: bool = False) -> PathResult:
    """Integrate one path at a dyadic level, coarsening the grid as needed.

    The grid may be finer than ``level``; it is coarsened exactly, so a
    coarse run and a fine reference can share one Brownian path.  A state
    that turns non-finite is reported through ``overflow_step`` rather than
    raised.
    """
    if brownian.m != problem.m:
        raise DimensionError(
            f"grid has m={brownian.m}, problem expects m={problem.m}"
        )
    if brownian.horizon != problem.horizon:
        raise DimensionError("grid horizon differs from problem horizon")
    if not 0 <= level <= brownian.level:
        raise LevelError(f"level must lie in [0, {brownian.level}]")
    grid = coarsen(brownian, level)
    u = None
    if kind is SchemeKind.RANDOMIZED_TAMED_MILSTEIN:
        if uniforms is None:
            raise ValueError("the randomized kind requires a RandomizationStream")
        if len(uniforms) < grid.n:
            raise DimensionError(
                f"need at least {grid.n} uniforms, got {len(uniforms)}"
            )
        u = uniforms.uniforms[: grid.n][None, :]
    terminal, overflow, path = simulate_batch(
        problem, kind, grid.increments[None, :, :], u, keep_path=keep_path
    )
    return PathResult(
        terminal=terminal[0],
        overflow_step=int(overflow[0]) if overflow[0] >= 0 else None,
        path=path[0] if keep_path else None,
    )


# --- taming audit ------------------------------------------------------------


@dataclass(frozen=True)
class TamingAuditRow:
    """Sampled taming diagnostics for one value of the step count n."""

    n: int
    max_drift_ratio: float        # max |tamed| / |mu|, must be <= 1
    growth_constant: float        # max |tamed| / (sqrt(n) (1 + |x|))
    consistency_ratio: float      # max n |mu - tamed| / (|mu| |x|^(2 xi)), <= 1


@dataclass(frozen=True)
class TamingAudit:
    problem_name: str
    sample_count: int
    radius: float
    rows: tuple


def audit_taming(problem: SdeProblem, n_values, sample_count: int, radius: float,
                 stream: np.random.Generator) -> TamingAudit:
    """Sampling-based audit of the generic taming operator on a problem.

    Draws (t, x) uniformly on [0, horizon] x ball(radius) and reports, per
    step count n: the worst ratio of tamed to raw drift norm (bounded by 1
    by construction), the empirical constant in front of sqrt(n)(1 + |x|),
    and the worst pointwise-consistency ratio n|mu - tamed|/(|mu||x|^(2 xi))
    (also bounded by 1).  The audit always applies the whole-vector taming,
    regardless of any per-summand split the problem carries.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    if radius <= 0:
        raise ValueError("radius must be positive")
    times = stream.random(sample_count) * problem.horizon
    direction = stream.standard_normal((sample_count, problem.d))
    direction /= np.maximum(
        np.sqrt(np.sum(direction * direction, axis=1))[:, None], 1e-300
    )
    radii = radius * stream.random(sample_count) ** (1.0 / problem.d)
    xs = direction * radii[:, None]
    mus = np.stack([np.asarray(problem.drift(t, x), dtype=float)
                    for t, x in zip(times, xs)])
    mu_norm = np.sqrt(np.sum(mus * mus, axis=1))
    x_norm = np.sqrt(np.sum(xs * xs, axis=1))
    rows = []
    for n in n_values:
        n = int(n)
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
    return TamingAudit(problem.name, sample_count, radius, tuple(rows))
