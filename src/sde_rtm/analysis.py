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

One streaming sweep, :func:`_sweep`, is the worker of every experiment's
one pool.  Workers split the paths into contiguous slabs of
``min(4096, ceil(paths / workers))`` paths.  A slab draws its fine Brownian
increments a power-of-two chunk of steps at a time, coarsens each chunk to
every level in play (each level pairs siblings within the chunk, or a
chunk's root with one parked by an earlier chunk when a coarse step spans
several, in the same pairwise order as ``noise.coarsen``) and feeds
the reference and every coarse level to resumable steppers in the same
pass, so no increment, uniform or state buffer outgrows (slab x chunk).  A
slab derives its substreams once per role as a ``noise.SlabStream``: one
vectorized SeedSequence hash gives every path's Philox key and one reused
generator draws for the whole slab, so no path builds a generator of its
own.  Each run reads its uniforms at its offset in the order above (after
the draws of every earlier run), by Philox counter and not by replaying
the draws.  The slab stream checks its first path's key against numpy's
``SeedSequence`` and raises ``RuntimeError`` on a mismatch, so a numpy
release that changed the algorithm stops the run instead of changing its
numbers.

A slab returns every run's terminal states and first overflow steps and
the terminal Brownian values, path-major; the parent gathers them along
paths and computes every error reduction (distance, ``p``-th power,
inclusion mask) itself.  Moment tracking steps each level of a slab in
turn, reduces every chunk of states to ``|x_t|^q`` as it is stepped and
folds that (chunk x slab) piece into the level's running sums, held in
memory shared with the parent, in path order, once every earlier slab has
added the same grid points, and counts the paths the step kernel found
finite there.  So no process holds per-path rows of powers, and only
failures cross the pipe.

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

import functools
import multiprocessing
import os
import pickle
from multiprocessing.connection import wait
from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import (InvalidParameterError, SdeProblem, _check_int, _check_ints,
                    _check_real, _is_int, _stacked, make_builtin)
from .noise import (_MAX_LEVEL, SeedPolicy, SlabStream, StreamRole, _check_level,
                    coarsen_chunks)
from .schemes import _MAX_COUNT, BatchStepper, SchemeKind

__all__ = [
    "ErrorRow",
    "ErrorTable",
    "RateFit",
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
# Largest accepted SDE_RTM_THREADS: a huge value would fork one process per slab.
_MAX_THREADS = 256
# Finest level of a moment table.  It holds 2**level + 1 sums and counts per
# level in memory shared with the workers, so its grid points stop at the
# bound on paths: level 30 would map tens of GiB, and level 62 more than a
# shared array can hold.
_MAX_MOMENT_LEVEL = _MAX_COUNT.bit_length() - 1
try:  # the context workers fork from; None where the platform cannot fork
    _FORK = multiprocessing.get_context("fork")
except ValueError:
    _FORK = None


class DegenerateDataError(ValueError):
    """Rate fitting was attempted on unusable data (zero errors, < 2 rows)."""


@dataclass(frozen=True)
class ErrorRow:
    """One level's strong error.  An infinite ``lp_error`` (no path kept, or
    the kept paths' mean error power overflowed) has an infinite ``stderr``,
    as does a finite one whose error powers overflow the variance."""

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


@dataclass(frozen=True)
class RateFit:
    """Ordinary-least-squares fit of log error against log dt."""

    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class MomentTable:
    """Empirical E|x_t|^q per grid point and level, with overflow counts.

    ``moments[level]`` is the level's read-only ``(2**level + 1,)`` array over
    the grid points; a moment is never NaN (a finite mean of powers, or inf).
    Compare tables through these arrays: ``==`` on two tables raises.
    """

    moments: dict
    overflows: dict

    def sup_moment(self, level: int) -> float:
        return float(self.moments[level].max())

    def levels(self):
        return sorted(self.overflows)


def _resolve_threads() -> int:
    """The worker count from ``SDE_RTM_THREADS``; 0 (the default) is auto."""
    raw = os.environ.get("SDE_RTM_THREADS", "0")
    try:
        threads = int(raw)
    except ValueError:
        threads = -1
    if not 0 <= threads <= _MAX_THREADS:
        raise InvalidParameterError("worker count (SDE_RTM_THREADS) must be an "
                                    f"integer in [0, {_MAX_THREADS}], got {raw!r}")
    return threads or min(os.cpu_count() or 1, 4)


def _map_blocks(worker, count: int, threads: int) -> list:
    """Run ``worker(start, stop)`` over contiguous slabs of paths.

    The slab width is ``min(_SLAB, ceil(count / threads))``, so each worker
    steps as wide a block as it can.  Returns the workers' results in slab
    order.  With more than one worker the slabs run in forked processes
    (path simulation is CPU-bound numpy work, which the GIL would
    serialise), worker ``w`` running slabs ``w, w + workers, ...`` in that
    order; so a slab that waits on the slab before it (as a
    :class:`_PathOrderSum` fold does) waits on another process, or on one
    that ran earlier in the same process when the run is serial.  Each
    path's result is a pure function of the seed policy and the path index,
    whatever slab it lands in, and callers reduce in path order, so outputs
    are identical however many workers run.  Platforms without fork fall
    back to serial execution.

    The pipe carries each slab's result, or a worker's failure.  A worker's
    exception is re-raised here with its own type, as in a serial run (one
    that cannot be rebuilt from a pickle becomes a ``RuntimeError`` naming
    it); a worker that dies unreported raises ``RuntimeError``.  Either way,
    and when an exception such as ``KeyboardInterrupt`` ends the wait, every
    worker still running is terminated and joined, waiting or not.
    """
    width = min(_SLAB, -(-count // threads))
    blocks = [(start, min(start + width, count)) for start in range(0, count, width)]
    if threads <= 1 or len(blocks) == 1 or _FORK is None:
        return [worker(start, stop) for start, stop in blocks]
    # numpy loads numpy.random lazily, on first use: load it once here, before
    # the fork, or every forked worker of every pool imports it again (8-17 ms
    # each) on its first draw; at module load it would slow every start-up
    import numpy.random  # noqa: F401
    workers = min(threads, len(blocks))
    reader, writer = _FORK.Pipe(duplex=False)
    send_lock = _FORK.Lock()

    def send(message) -> None:
        with send_lock:
            writer.send(message)

    def run_chunk(chunk: int) -> None:
        # round-robin over slabs so chunks are balanced; closures and the
        # problem's coefficient callables reach the child via fork, and only
        # the small result arrays travel back through the pipe, one whole
        # (index, result) message at a time under the lock
        try:
            for index in range(chunk, len(blocks), workers):
                send((index, worker(*blocks[index])))
        except BaseException as exc:  # re-raised in the parent below
            try:  # a class that cannot take back its args pickles, then fails to load
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"worker process failed: {exc!r}")
            send((None, exc))

    procs = [_FORK.Process(target=run_chunk, args=(chunk,)) for chunk in range(workers)]
    for proc in procs:
        proc.start()
    # wait on the pipe and on every child's sentinel together, so a child
    # that dies without reporting (killed, os._exit) fails the run instead
    # of leaving the parent blocked on the pipe forever
    running = {proc.sentinel: proc for proc in procs}
    results: dict = {}
    failure = None
    try:
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
                    failure = RuntimeError(f"worker exited with code {proc.exitcode}")
            if failure is None and not running and not reader.poll():
                failure = RuntimeError("workers exited without reporting every block")
    finally:  # a failure, or an exception such as Ctrl-C, ends every worker left
        for proc in procs:
            if len(results) < len(blocks):
                proc.terminate()
            proc.join()
        reader.close()
        writer.close()
    if failure is not None:
        raise failure
    return [results[index] for index in range(len(blocks))]


class _PathOrderSum:
    """Per-column sums of per-path rows and counts of their finite entries,
    folded in path order by the slabs that make the rows.

    The sums, the finite counts and each column's count of added paths live
    in memory that the parent allocates before :func:`_map_blocks` forks, so
    forked workers and the parent share them, and one cross-process
    condition guards the added counts.  :meth:`add` takes the rows of paths
    ``start`` to ``start + B - 1`` at columns ``index`` to ``index + C - 1``
    as a (C, B) array and its (C, B) finite mask, outside which a row adds 0.
    It waits until every earlier path is in those columns, folds the piece
    in and publishes the new counts.  The fold runs in the float array it is
    given, which it overwrites, so a caller passes a piece it no longer
    needs.  Each column's sum is the sequential
    chain ``((0 + row_0) + row_1) + ...`` over every path in path order, bit
    for bit what adding whole rows one by one gives, however the rows are
    cut.  Each slab must add its columns in ascending order without gaps,
    starting at column 0, and the slab before it must be adding from another
    process or thread, or have finished: a caller that adds a later slab
    first, alone, waits forever.
    """

    def __init__(self, columns: int):
        ctx = _FORK or multiprocessing.get_context()
        self.sums = np.frombuffer(ctx.RawArray("d", columns))
        self.counts = np.frombuffer(ctx.RawArray("q", columns), dtype=np.int64)
        self._added = np.frombuffer(ctx.RawArray("q", columns), dtype=np.int64)
        self._ready = ctx.Condition()

    def add(self, start: int, index: int, values, finite) -> None:
        values[~finite] = 0.0  # the caller's piece, folded in place
        columns = slice(index, index + len(values))
        added = self._added[columns]  # paths added per column, shared
        with self._ready:
            self._ready.wait_for(lambda: (added == start).all())
        # only this slab may touch these columns until it publishes; accumulate
        # runs the chain path by path, never pairwise, from the running sum
        # folded into the first path
        values[:, 0] += self.sums[columns]
        self.sums[columns] = np.add.accumulate(values, axis=1, out=values)[:, -1]
        self.counts[columns] += finite.sum(axis=1)
        with self._ready:
            added[:] = start + values.shape[1]
            self._ready.notify_all()

    def total(self, paths: int):
        """The sums and finite counts, once all ``paths`` rows are in everywhere."""
        if not (self._added == paths).all():
            raise RuntimeError("moment pieces missing from the reduction")
        return self.sums, self.counts


def _split(blocks, piece: int):
    # consecutive time-major slices of ``piece`` steps from each block
    for block in blocks:
        for p0 in range(0, len(block), piece):
            yield block[p0:p0 + piece]


def _sweep(problem: SdeProblem, kind: SchemeKind, policy: SeedPolicy,
           run_levels: list, start: int, stop: int, *, observe=None):
    """Integrate paths ``start`` to ``stop - 1`` on coupled grids, chunk by chunk.

    Each path draws one Brownian grid at the finest of ``run_levels`` from
    its Brownian substream, ``chunk`` fine steps at a time.  Every chunk is
    coarsened to each level in ``run_levels`` and fed to that level's
    stepper, so no buffer outgrows (paths x chunk).  The randomized kind
    draws run ``i``'s uniforms from the path's randomization substream right
    after the ``2**level`` draws of every earlier run.  ``observe`` is
    passed to every :meth:`BatchStepper.feed`.  Returns path-major arrays, runs in order:
    terminal states (B, runs, d), first overflow steps (B, runs), -1 where a
    path stayed finite, and the terminal Brownian values (B, m).
    """
    batch, gen_level = stop - start, max(run_levels)
    chunk = min(1 << gen_level,
                1 << (max(1, _DRAW_BUDGET // batch).bit_length() - 1))
    steppers = [BatchStepper(problem, kind, 1 << level, batch) for level in run_levels]
    pieces = [max(1, chunk >> (gen_level - level)) for level in run_levels]
    uniforms = [None] * len(run_levels)
    if steppers[0].randomized:
        # run i reads the draws of its own level right after those of every
        # earlier run, at most one draw chunk per path at a time
        stream = SlabStream(policy, start, stop, StreamRole.RANDOMIZATION)
        uniforms, offset = [], 0
        for level, piece in zip(run_levels, pieces):
            total = 1 << level
            uniforms.append(_split(stream.uniforms(offset, total, min(total, chunk)),
                                   piece))
            offset += total
    fine = SlabStream(policy, start, stop, StreamRole.BROWNIAN).brownian(
        gen_level, problem.m, problem.horizon, chunk)
    for coarse in coarsen_chunks(fine, gen_level, {0, *run_levels}):
        for stepper, level, u in zip(steppers, run_levels, uniforms):
            if level in coarse:
                stepper.feed(coarse[level], None if u is None else next(u), observe)
    return (np.stack([stepper.x for stepper in steppers], axis=1),
            np.stack([stepper.overflow for stepper in steppers], axis=1),
            coarse[0][0])


def _gather(results) -> list:
    # the workers' per-slab arrays, each concatenated along paths
    return [np.concatenate(arrays) for arrays in zip(*results)]


# --- input rules, checked before any worker starts (and by the CLI) ----------


def _check_levels(levels, high: int = _MAX_LEVEL) -> list:
    # sorted; each in [0, high], none twice
    return sorted(_check_ints("levels", levels, 0, high, distinct=True))


def _check_reference(ref, levels) -> bool:
    # "exact", or a level above every one of the checked levels; True if exact
    exact = isinstance(ref, str) and ref == "exact"
    if not (exact or (_is_int(ref) and max(levels) < ref <= _MAX_LEVEL)):
        raise InvalidParameterError("reference must be 'exact' or an integer "
                                    f"level in [{max(levels) + 1}, {_MAX_LEVEL}]")
    return exact


def _check_paths(paths) -> int:
    return _check_int("paths", paths, 1, _MAX_COUNT)


def _check_p(p) -> None:
    _check_real("p", p, 1)


def _check_q(q) -> None:
    _check_real("q", q, 2)


def strong_error_experiment(problem: SdeProblem, kind: SchemeKind, levels,
                            ref: Union[int, str], p: float, paths: int,
                            policy: SeedPolicy) -> ErrorTable:
    """Estimate terminal-time strong L^p errors on coupled Brownian paths.

    ``ref`` is either a finer dyadic level (the same scheme is run there as
    a surrogate truth) or the string ``"exact"`` (the problem's closed-form
    terminal is used; a problem without one raises
    :class:`InvalidParameterError` before any worker starts).  Per path, one
    grid is drawn at the finest level in play from the (path, BROWNIAN)
    substream; coarse runs use exact coarsenings of it.  Randomized
    integrators consume fresh uniforms from the (path, RANDOMIZATION)
    substream, reference first, then levels ascending.  The parent computes
    every path's error power and inclusion from the pool's terminals.
    Paths whose coarse run or reference overflows are excluded from the
    average and counted.

    Bounds: distinct integer levels in [0, 62], a reference level above
    them and at most 62, a finite real p >= 1 and 1 to 2**24 paths.
    """
    levels = _check_levels(levels)
    exact = _check_reference(ref, levels)
    _check_p(p)
    _check_paths(paths)
    if exact and problem.exact_terminal is None:
        raise InvalidParameterError("problem has no exact terminal solution")
    run_levels = levels if exact else [int(ref)] + levels
    terminals, overflow, w_terminal = _gather(_map_blocks(
        functools.partial(_sweep, problem, kind, policy, run_levels),
        paths, _resolve_threads()))
    rows = []
    with np.errstate(all="ignore"):  # overflowing error powers give inf, silently
        if exact:
            ref_term = _stacked(problem.exact_terminal, w_terminal)
            ref_ok = np.isfinite(ref_term).all(axis=1)
        else:
            ref_term, ref_ok = terminals[:, 0], overflow[:, 0] < 0
            terminals, overflow = terminals[:, 1:], overflow[:, 1:]
        delta = ref_term[:, None] - terminals
        err_pow = np.sqrt(np.sum(delta * delta, axis=2)) ** p  # (paths, levels)
        included = ref_ok[:, None] & (overflow < 0)
        for row, level in enumerate(levels):
            values = err_pow[:, row][included[:, row]]
            kept = int(values.size)
            mean_pow = float(np.mean(values)) if kept else float("inf")
            lp_error = mean_pow ** (1.0 / p)
            if lp_error == float("inf"):
                stderr = float("inf")
            elif kept > 1 and mean_pow > 0.0:
                se_mean = float(np.std(values, ddof=1)) / float(np.sqrt(kept))
                stderr = se_mean * mean_pow ** (1.0 / p - 1.0) / p
            else:
                stderr = 0.0
            n = 1 << level
            rows.append(ErrorRow(level, n, problem.horizon / n, lp_error, kept, p,
                                 stderr, paths - kept))
    return ErrorTable(tuple(rows), "exact" if exact else f"level {int(ref)}", p)


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
                      paths: int, policy: SeedPolicy) -> MomentTable:
    """Track empirical E|x_t|^q over every grid point, per level.

    One pool steps every level: each slab runs the levels in order and
    folds its powers into one shared sum per level.  Overflowed paths are
    excluded from the averages from the moment they turn non-finite and
    counted per level; a grid point where no path is finite reports an
    infinite moment.

    Bounds: a finite real q >= 2, distinct integer levels in [0, 24] (a
    table holds 2**level + 1 grid points, at most as many as there may be
    paths) and 1 to 2**24 paths.
    """
    _check_q(q)
    _check_paths(paths)
    levels = _check_levels(levels, _MAX_MOMENT_LEVEL)
    reductions = [_PathOrderSum((1 << level) + 1) for level in levels]

    def worker(start: int, stop: int):
        # each level in turn folds every (chunk, d, slab) piece of states as
        # per-path |x_t|^q, |x|^2 summed over the components in order into
        # one fresh (chunk, slab) array, bit for bit ``.sum(axis=1)``; the
        # states buffer is the kernel's and stays unwritten
        for level, reduction in zip(levels, reductions):
            def observe(index, states, finite):
                power = states[:, 0] * states[:, 0]
                for i in range(1, states.shape[1]):
                    power += states[:, i] * states[:, i]
                power **= q / 2.0
                reduction.add(start, index, power, finite)

            _sweep(problem, kind, policy, [level], start, stop, observe=observe)
        return ()

    _map_blocks(worker, paths, _resolve_threads())
    moments, overflows = {}, {}
    for level, reduction in zip(levels, reductions):
        sums, counts = reduction.total(paths)
        moments[level] = np.where(counts > 0, sums / np.maximum(counts, 1), np.inf)
        moments[level].setflags(write=False)
        overflows[level] = paths - int(counts[-1])
    return MomentTable(moments, overflows)


def blowup_demo(levels, paths: int, policy: SeedPolicy) -> dict:
    """Second-moment tables of untamed vs tamed Euler on the cubic
    double-well problem (the ``double_well`` builtin), on shared Brownian
    substreams."""
    problem = make_builtin("double_well")
    return {
        kind: moment_experiment(problem, kind, 2.0, levels, paths, policy)
        for kind in (SchemeKind.EULER_MARUYAMA, SchemeKind.TAMED_EULER)
    }


def simulate_terminals(problem: SdeProblem, kind: SchemeKind, level: int,
                       paths: int, policy: SeedPolicy):
    """Terminal states of ``paths`` independent paths at one level.

    Returns ``(terminals, overflow_steps)`` with shapes (paths, d) and
    (paths,), the one run of :func:`_sweep` gathered along paths; overflow
    steps are -1 where the path stayed finite.
    Bounds: an integer level in [0, 62] and 1 to 2**24 paths.
    """
    level = _check_level(level)
    _check_paths(paths)
    terminals, overflow, _ = _gather(_map_blocks(
        functools.partial(_sweep, problem, kind, policy, [level]),
        paths, _resolve_threads()))
    return terminals[:, 0], overflow[:, 0]
