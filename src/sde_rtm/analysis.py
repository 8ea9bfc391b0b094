"""Monte-Carlo strong-error estimation, rate fitting, moment tracking and
the untamed blow-up demonstration.

The strong error at the terminal time is estimated by coupling: each path
draws one Brownian grid at the finest level in play, the reference solves
on it (or the exact terminal value is used), and every coarse level solves
on an exact coarsening of the same grid.  The randomization draws are part
of each integrator instance's own randomness: the reference and each
coarse run consume fresh uniforms from the path's randomization substream
(reference first, then levels in ascending order), while the Brownian path
is the only thing shared across levels.

One streaming sweep serves every experiment.  Workers split the paths
into contiguous slabs of ``min(4096, ceil(paths / workers))`` paths.  A
slab draws its fine Brownian increments a power-of-two chunk of steps at a
time, coarsens each chunk to every level in play (a binary carry finishes
coarse steps that span several chunks, in the same pairwise order as
``noise.coarsen``) and feeds the reference and every coarse level to
resumable steppers in the same pass, so no increment, uniform or state
buffer outgrows (slab x chunk).  Each run draws its uniforms from its own
copy of the randomization substream, moved past the draws of the runs
before it in the order above.  Moment tracking reduces every chunk of
states to ``|x_t|^q`` as it is stepped and never holds whole paths, but
its per-path rows of powers stay O(slab x n): the parent sums them in path
order, so each worker returns them whole.

Each path's result depends only on the seed policy and its index, never on
its slab; the parent reduces per-path results in path order, so outputs
are bit-identical regardless of the worker count (the ``SDE_RTM_THREADS``
environment variable, 0 = auto).

A note on norms: with p the error norm order and q the moment order, the
theoretical rate statement is proved under the sufficient condition
2p(xi + 2) <= q.  That relation is a guideline for choosing q, not a
runtime restriction; defaults are p = 2 and q = 4.
"""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing.connection import wait
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .model import NoiseStructure, SdeProblem
from .noise import (
    SeedPolicy,
    StreamRole,
    brownian_chunks,
    coarsen_chunks,
    derive_substream,
    skip_uniforms,
    uniform_chunks,
)
from .schemes import BatchStepper, SchemeKind

__all__ = [
    "ErrorRow",
    "ErrorTable",
    "RateFit",
    "MomentRow",
    "MomentTable",
    "DegenerateDataError",
    "strong_error_experiment",
    "fit_rate",
    "moment_experiment",
    "blowup_demo",
    "simulate_terminals",
]

# Widest slab of paths one worker steps at a time.
_SLAB = 4096
# Path-steps per draw chunk: a slab draws, coarsens and steps
# max(1, _DRAW_BUDGET // width) fine steps at a time (rounded down to a
# power of two), so every per-slab buffer is O(width x chunk).
_DRAW_BUDGET = 1 << 18


class DegenerateDataError(ValueError):
    """Rate fitting was attempted on unusable data (zero errors, < 2 rows)."""


@dataclass(frozen=True)
class ErrorRow:
    level: int
    n: int
    dt: float
    lp_error: float
    paths: int         # paths included in the average (overflows excluded)
    p: float
    stderr: float      # delta-method Monte-Carlo standard error of lp_error
    overflowed: int    # paths excluded at this level


@dataclass(frozen=True)
class ErrorTable:
    """Strong L^p errors per level against a common reference."""

    rows: tuple
    reference: str     # "exact" or "level <L>"
    p: float

    def level_row(self, level: int) -> ErrorRow:
        for row in self.rows:
            if row.level == level:
                return row
        raise KeyError(level)


@dataclass(frozen=True)
class RateFit:
    """Ordinary-least-squares fit of log error against log dt."""

    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class MomentRow:
    level: int
    t_index: int
    moment: float


@dataclass(frozen=True)
class MomentTable:
    """Empirical E|x_t|^q per grid point and level, with overflow counts."""

    rows: tuple
    q: float
    overflows: dict

    def sup_moment(self, level: int) -> float:
        return max(row.moment for row in self.rows if row.level == level)

    def levels(self):
        return sorted(self.overflows)


def _resolve_threads(threads: Optional[int]) -> int:
    if threads is None:
        threads = int(os.environ.get("SDE_RTM_THREADS", "0"))
    if threads == 0:
        threads = min(os.cpu_count() or 1, 4)
    return max(1, int(threads))


def _map_blocks(worker, count: int, threads: int) -> list:
    """Run ``worker(start, stop)`` over contiguous slabs of paths.

    The slab width is ``min(_SLAB, ceil(count / threads))``, so each worker
    steps as wide a block as it can.  Returns the workers' results in slab
    order.  With more than one worker the slabs run in forked processes
    (path simulation is CPU-bound numpy work, which the GIL would
    serialise).  Each path's result is a pure function of the seed policy
    and the path index, whatever slab it lands in, and callers reduce in
    path order, so outputs are identical however many workers run.
    Platforms without fork fall back to serial execution.
    """
    width = min(_SLAB, -(-count // threads))
    blocks = [(start, min(start + width, count)) for start in range(0, count, width)]
    if threads <= 1 or len(blocks) == 1:
        return [worker(start, stop) for start, stop in blocks]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return [worker(start, stop) for start, stop in blocks]
    workers = min(threads, len(blocks))
    reader, writer = ctx.Pipe(duplex=False)
    send_lock = ctx.Lock()

    def run_chunk(chunk: int) -> None:
        # round-robin over slabs so chunks are balanced; closures and the
        # problem's coefficient callables reach the child via fork, and only
        # the small result arrays travel back through the pipe, one whole
        # message at a time under the lock
        try:
            for index in range(chunk, len(blocks), workers):
                message = (index, worker(*blocks[index]))
                with send_lock:
                    writer.send(message)
        except BaseException as exc:  # surfaced in the parent below
            with send_lock:
                writer.send((None, repr(exc)))

    procs = [ctx.Process(target=run_chunk, args=(chunk,)) for chunk in range(workers)]
    for proc in procs:
        proc.start()
    # wait on the pipe and on every child's sentinel together, so a child
    # that dies without reporting (killed, os._exit) fails the run instead
    # of leaving the parent blocked on the pipe forever
    running = {proc.sentinel: proc for proc in procs}
    results: dict = {}
    failure = None
    while failure is None and len(results) < len(blocks):
        ready = wait([reader, *running])
        if reader in ready:
            index, payload = reader.recv()
            if index is None:
                failure = payload
            else:
                results[index] = payload
            continue
        for sentinel in ready:
            proc = running.pop(sentinel)
            proc.join()
            if proc.exitcode != 0:
                failure = f"worker exited with code {proc.exitcode}"
        if failure is None and not running and not reader.poll():
            failure = "workers exited without reporting every block"
    for proc in procs:
        if failure is not None:
            proc.terminate()
        proc.join()
    reader.close()
    writer.close()
    if failure is not None:
        raise RuntimeError(f"worker process failed: {failure}")
    return [results[index] for index in range(len(blocks))]


def _split(blocks, piece: int):
    # consecutive time-major slices of ``piece`` steps from each block
    for block in blocks:
        for p0 in range(0, len(block), piece):
            yield block[p0:p0 + piece]


def _uniform_pieces(substreams: list, run_levels: list, pieces: list, chunk: int):
    """One iterator per run over its uniforms, ``pieces[i]`` steps at a time.

    Run ``i`` takes draws ``offset`` to ``offset + 2**level - 1`` of each
    path's randomization substream, where ``offset`` counts the draws of
    every earlier run.  Each run draws from its own copy of the substream,
    moved past ``offset`` draws, at most ``chunk`` per path at a time.
    """
    out = []
    offset = 0
    for level, piece in zip(run_levels, pieces):
        total = 1 << level
        own = [skip_uniforms(s, offset) for s in substreams]
        out.append(_split(uniform_chunks(own, total, min(total, chunk)), piece))
        offset += total
    return out


def _sweep(problem: SdeProblem, kind: SchemeKind, policy: SeedPolicy,
           start: int, stop: int, gen_level: int, run_levels: list, *,
           terminal: bool = False, observe=None):
    """Integrate paths ``start`` to ``stop - 1`` on coupled grids, chunk by chunk.

    Each path draws one Brownian grid at ``gen_level`` from its Brownian
    substream, ``chunk`` fine steps at a time.  Every chunk is coarsened to
    each level in ``run_levels`` and fed to that level's stepper, so no
    buffer outgrows (paths x chunk).  The randomized kind draws run ``i``'s
    uniforms from the path's randomization substream right after the
    ``2**level`` draws of every earlier run.  Returns the steppers in run
    order and, with ``terminal``, the terminal Brownian values (B, m).
    ``observe`` is passed to every :meth:`BatchStepper.feed`.
    """
    batch = stop - start
    paths = range(start, stop)
    chunk = min(1 << gen_level,
                1 << (max(1, _DRAW_BUDGET // batch).bit_length() - 1))
    steppers = [BatchStepper(problem, kind, 1 << level, batch) for level in run_levels]
    pieces = [max(1, chunk >> (gen_level - level)) for level in run_levels]
    uniforms = [None] * len(run_levels)
    if kind is SchemeKind.RANDOMIZED_TAMED_MILSTEIN:
        substreams = [derive_substream(policy, i, StreamRole.RANDOMIZATION)
                      for i in paths]
        uniforms = _uniform_pieces(substreams, run_levels, pieces, chunk)
    streams = [derive_substream(policy, i, StreamRole.BROWNIAN) for i in paths]
    fine = brownian_chunks(streams, gen_level, problem.m, problem.horizon, chunk)
    w_terminal = None
    targets = set(run_levels) | ({0} if terminal else set())
    for coarse in coarsen_chunks(fine, gen_level, targets):
        for stepper, level, u in zip(steppers, run_levels, uniforms):
            if level in coarse:
                stepper.feed(coarse[level], None if u is None else next(u), observe)
        if terminal and 0 in coarse:
            w_terminal = coarse[0][0]
    return steppers, w_terminal


def _checked_levels(levels) -> list:
    out = sorted(int(l) for l in levels)
    if not out:
        raise ValueError("levels must be nonempty")
    if out[0] < 0:
        raise ValueError("levels must be nonnegative")
    if len(set(out)) != len(out):
        raise ValueError("levels must be distinct")
    return out


def strong_error_experiment(problem: SdeProblem, kind: SchemeKind, levels,
                            ref: Union[int, str], p: float, paths: int,
                            policy: SeedPolicy,
                            threads: Optional[int] = None) -> ErrorTable:
    """Estimate terminal-time strong L^p errors on coupled Brownian paths.

    ``ref`` is either a finer dyadic level (the same scheme is run there as
    a surrogate truth) or the string ``"exact"`` (the problem's closed-form
    terminal is used).  Per path, one grid is drawn at the generation level
    from the (path, BROWNIAN) substream; coarse runs use exact coarsenings
    of it.  Randomized integrators consume fresh uniforms from the
    (path, RANDOMIZATION) substream, reference first, then levels ascending.
    Paths whose coarse run or reference overflows are excluded from the
    average and counted.
    """
    levels = _checked_levels(levels)
    if p < 1:
        raise ValueError("p must be >= 1")
    if paths < 1:
        raise ValueError("paths must be >= 1")
    exact = isinstance(ref, str)
    if exact:
        if ref != "exact":
            raise ValueError(f"reference must be a level or 'exact', got {ref!r}")
        if problem.exact_terminal is None:
            raise ValueError("problem has no exact terminal solution")
        gen_level = max(levels)
    else:
        ref = int(ref)
        if ref <= max(levels):
            raise ValueError("every level must lie below the reference level")
        gen_level = ref
    horizon = problem.horizon
    n_rows = len(levels)
    run_levels = levels if exact else [ref] + levels

    def worker(start: int, stop: int):
        steppers, w_terminal = _sweep(problem, kind, policy, start, stop,
                                      gen_level, run_levels, terminal=exact)
        block_err = np.empty((n_rows, stop - start))
        block_ok = np.empty((n_rows, stop - start), dtype=bool)
        with np.errstate(all="ignore"):
            if exact:
                ref_term = np.asarray(problem.exact_terminal(w_terminal), dtype=float)
                ref_ok = np.isfinite(ref_term).all(axis=1)
            else:
                reference, *steppers = steppers
                ref_term, ref_ok = reference.x, reference.overflow < 0
            for row, stepper in enumerate(steppers):
                delta = ref_term - stepper.x
                dist = np.sqrt(np.sum(delta * delta, axis=1))
                block_err[row] = dist ** p
                block_ok[row] = ref_ok & (stepper.overflow < 0)
        return block_err, block_ok

    results = _map_blocks(worker, paths, _resolve_threads(threads))
    err_pow = np.concatenate([block_err for block_err, _ in results], axis=1)
    included = np.concatenate([block_ok for _, block_ok in results], axis=1)

    rows = []
    for row, level in enumerate(levels):
        mask = included[row]
        values = err_pow[row][mask]
        kept = int(values.size)
        overflowed = paths - kept
        if kept == 0:
            lp_error, stderr = float("inf"), 0.0
        else:
            mean_pow = float(np.mean(values))
            lp_error = mean_pow ** (1.0 / p)
            if kept > 1 and mean_pow > 0.0:
                se_mean = float(np.std(values, ddof=1)) / float(np.sqrt(kept))
                stderr = se_mean * mean_pow ** (1.0 / p - 1.0) / p
            else:
                stderr = 0.0
        n = 1 << level
        rows.append(ErrorRow(level, n, horizon / n, lp_error, kept, p, stderr,
                             overflowed))
    return ErrorTable(tuple(rows), "exact" if exact else f"level {ref}", p)


def fit_rate(table: ErrorTable) -> RateFit:
    """OLS slope of log(lp_error) against log(dt); slope > 0 means
    convergence of that order."""
    rows = table.rows
    if len(rows) < 2:
        raise DegenerateDataError("rate fitting needs at least two rows")
    errors = np.array([row.lp_error for row in rows], dtype=float)
    dts = np.array([row.dt for row in rows], dtype=float)
    if np.any(errors <= 0.0) or not np.all(np.isfinite(errors)):
        raise DegenerateDataError("rate fitting needs finite positive errors")
    x = np.log(dts)
    y = np.log(errors)
    x_mean = x.mean()
    y_mean = y.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    if sxx == 0.0:
        raise DegenerateDataError("rate fitting needs at least two distinct dt")
    slope = float(np.sum((x - x_mean) * (y - y_mean)) / sxx)
    intercept = y_mean - slope * x_mean
    residual = y - (intercept + slope * x)
    ss_res = float(np.sum(residual ** 2))
    ss_tot = float(np.sum((y - y_mean) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return RateFit(slope=slope, intercept=float(intercept), r_squared=r_squared)


def moment_experiment(problem: SdeProblem, kind: SchemeKind, q: float, levels,
                      paths: int, policy: SeedPolicy,
                      threads: Optional[int] = None) -> MomentTable:
    """Track empirical E|x_t|^q over every grid point, per level.

    Overflowed paths are excluded from the averages from the moment they
    turn non-finite and counted per level; a grid point where no path is
    finite reports an infinite moment.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if paths < 1:
        raise ValueError("paths must be >= 1")
    levels = _checked_levels(levels)
    threads_n = _resolve_threads(threads)
    all_rows = []
    overflows = {}
    for level in levels:
        n = 1 << level

        def worker(start: int, stop: int, _level=level, _n=n):
            # per-path |x_t|^q (0 where x_t is not finite) and per-t finite
            # counts, filled chunk by chunk from the stepper's state buffer
            powers = np.empty((stop - start, _n + 1))
            counts = np.zeros(_n + 1, dtype=np.int64)

            def observe(index, states):
                finite = np.isfinite(states).all(axis=2)
                sq = (states * states).sum(axis=2)
                powers[:, index:index + len(states)] = np.where(
                    finite, sq ** (q / 2.0), 0.0).T
                counts[index:index + len(states)] += finite.sum(axis=1)

            steppers, _ = _sweep(problem, kind, policy, start, stop, _level,
                                 [_level], observe=observe)
            with np.errstate(all="ignore"):
                observe(0, np.repeat(problem.initial_state[None, None, :],
                                     stop - start, axis=1))
            return powers, counts, steppers[0].overflow

        sums = np.zeros(n + 1)
        counts = np.zeros(n + 1, dtype=np.int64)
        overflowed = 0
        for block_powers, block_counts, block_overflow in _map_blocks(
            worker, paths, threads_n
        ):
            # row by row in path order: the same sequential sum as an axis-0
            # sum over all paths, whatever the slab widths
            for row in block_powers:
                sums += row
            counts += block_counts
            overflowed += int((block_overflow >= 0).sum())
        with np.errstate(all="ignore"):
            moments = np.where(counts > 0, sums / np.maximum(counts, 1), np.inf)
        all_rows.extend(
            MomentRow(level, t, float(moments[t])) for t in range(n + 1)
        )
        overflows[level] = overflowed
    return MomentTable(tuple(all_rows), q, overflows)


def _double_well_problem() -> SdeProblem:
    """dx = (x - x^3) dt + dw with x_0 = 2: the classical setting in which
    untamed explicit Euler loses moment control while tamed variants stay
    bounded."""

    def drift(t, x):
        xa = np.asarray(x, dtype=float)
        return xa - xa ** 3

    def diffusion(t, x):
        xa = np.asarray(x, dtype=float)
        return np.ones(xa.shape + (1,))

    def milstein_tensor(t, x):
        xa = np.asarray(x, dtype=float)
        return np.zeros(xa.shape + (1, 1))

    return SdeProblem(
        d=1,
        m=1,
        horizon=1.0,
        initial_state=np.array([2.0]),
        drift=drift,
        diffusion=diffusion,
        milstein_tensor=milstein_tensor,
        noise_structure=NoiseStructure.SCALAR,
        xi=2.0,
        beta=1.0,
        name="cubic_double_well",
    )


def blowup_demo(levels, paths: int, policy: SeedPolicy,
                threads: Optional[int] = None) -> dict:
    """Second-moment tables of untamed vs tamed Euler on the cubic
    double-well problem, on shared Brownian substreams."""
    problem = _double_well_problem()
    return {
        kind: moment_experiment(problem, kind, 2.0, levels, paths, policy, threads)
        for kind in (SchemeKind.EULER_MARUYAMA, SchemeKind.TAMED_EULER)
    }


def simulate_terminals(problem: SdeProblem, kind: SchemeKind, level: int,
                       paths: int, policy: SeedPolicy,
                       threads: Optional[int] = None):
    """Terminal states of ``paths`` independent paths at one level.

    Returns ``(terminals, overflow_steps)`` with shapes (paths, d) and
    (paths,); overflow steps are -1 where the path stayed finite.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    if paths < 1:
        raise ValueError("paths must be >= 1")

    def worker(start: int, stop: int):
        steppers, _ = _sweep(problem, kind, policy, start, stop, level, [level])
        return steppers[0].x, steppers[0].overflow

    results = _map_blocks(worker, paths, _resolve_threads(threads))
    terminals = np.concatenate([term for term, _ in results])
    overflow_steps = np.concatenate([ovf for _, ovf in results])
    return terminals, overflow_steps
