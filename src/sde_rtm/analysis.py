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

Paths are processed in fixed-size blocks; per-path statistics land in
preallocated slots and are reduced once, in path-index order, so results
are bit-identical regardless of the worker-thread count (the
``SDE_RTM_THREADS`` environment variable, 0 = auto).

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
    derive_substream,
    sample_brownian_grid,
    sample_randomization,
)
from .schemes import SchemeKind, simulate_batch

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

# Fixed block size: results must not depend on how many workers run, so the
# partition of paths into blocks is a constant of the implementation.
_BLOCK = 256


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
    """Run ``worker(start, stop)`` over fixed-size path blocks.

    Returns the workers' results in block order.  With more than one worker
    the blocks run in forked processes (path simulation is CPU-bound numpy
    work on small arrays, which the GIL would serialise); the block
    partition never depends on the worker count, and each block's result is
    a pure function of the seed policy, so outputs are identical however
    many workers run.  Platforms without fork fall back to serial execution.
    """
    blocks = [(start, min(start + _BLOCK, count)) for start in range(0, count, _BLOCK)]
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
        # round-robin over blocks so chunks are balanced; closures and the
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
    m = problem.m
    n_rows = len(levels)
    randomized = kind is SchemeKind.RANDOMIZED_TAMED_MILSTEIN

    def worker(start: int, stop: int):
        batch = stop - start
        n_gen = 1 << gen_level
        inc = np.empty((batch, n_gen, m))
        ref_uniforms = np.empty((batch, n_gen)) if randomized and not exact else None
        level_uniforms = (
            {l: np.empty((batch, 1 << l)) for l in levels} if randomized else None
        )
        for bi, path_index in enumerate(range(start, stop)):
            bstream = derive_substream(policy, path_index, StreamRole.BROWNIAN)
            inc[bi] = sample_brownian_grid(gen_level, m, horizon, bstream).increments
            if randomized:
                rstream = derive_substream(policy, path_index, StreamRole.RANDOMIZATION)
                if not exact:
                    ref_uniforms[bi] = sample_randomization(n_gen, rstream).uniforms
                for l in levels:
                    level_uniforms[l][bi] = sample_randomization(1 << l, rstream).uniforms
        block_err = np.empty((n_rows, batch))
        block_ok = np.empty((n_rows, batch), dtype=bool)
        with np.errstate(all="ignore"):
            if exact:
                acc = inc
                while acc.shape[1] > 1:
                    acc = acc[:, 0::2] + acc[:, 1::2]
                ref_term = np.asarray(problem.exact_terminal(acc[:, 0, :]), dtype=float)
                ref_ok = np.isfinite(ref_term).all(axis=1)
            else:
                ref_term, ref_ovf, _ = simulate_batch(problem, kind, inc, ref_uniforms)
                ref_ok = ref_ovf < 0
            current = inc
            current_level = gen_level
            for row in range(n_rows - 1, -1, -1):
                level = levels[row]
                while current_level > level:
                    current = current[:, 0::2] + current[:, 1::2]
                    current_level -= 1
                term, ovf, _ = simulate_batch(
                    problem, kind, current,
                    level_uniforms[level] if randomized else None,
                )
                delta = ref_term - term
                dist = np.sqrt(np.sum(delta * delta, axis=1))
                block_err[row] = dist ** p
                block_ok[row] = ref_ok & (ovf < 0)
        return block_err, block_ok

    err_pow = np.zeros((n_rows, paths))
    included = np.zeros((n_rows, paths), dtype=bool)
    results = _map_blocks(worker, paths, _resolve_threads(threads))
    for (start, block_err, block_ok) in (
        (index * _BLOCK, *res) for index, res in enumerate(results)
    ):
        err_pow[:, start:start + block_err.shape[1]] = block_err
        included[:, start:start + block_ok.shape[1]] = block_ok

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
    randomized = kind is SchemeKind.RANDOMIZED_TAMED_MILSTEIN
    horizon = problem.horizon
    m = problem.m
    threads_n = _resolve_threads(threads)
    all_rows = []
    overflows = {}
    for level in levels:
        n = 1 << level

        def worker(start: int, stop: int, _n=n, _level=level):
            batch = stop - start
            inc = np.empty((batch, _n, m))
            uniforms = np.empty((batch, _n)) if randomized else None
            for bi, path_index in enumerate(range(start, stop)):
                bstream = derive_substream(policy, path_index, StreamRole.BROWNIAN)
                inc[bi] = sample_brownian_grid(_level, m, horizon, bstream).increments
                if randomized:
                    rstream = derive_substream(
                        policy, path_index, StreamRole.RANDOMIZATION
                    )
                    uniforms[bi] = sample_randomization(_n, rstream).uniforms
            _, ovf, path = simulate_batch(problem, kind, inc, uniforms,
                                          keep_path=True)
            with np.errstate(all="ignore"):
                sq = np.sum(path * path, axis=2)
                block_powers = sq ** (q / 2.0)
            return block_powers, np.isfinite(path).all(axis=2), ovf

        powers = np.empty((paths, n + 1))
        finite = np.empty((paths, n + 1), dtype=bool)
        overflow_steps = np.empty(paths, dtype=np.int64)
        for index, (bp, bf, bo) in enumerate(_map_blocks(worker, paths, threads_n)):
            start = index * _BLOCK
            powers[start:start + bp.shape[0]] = bp
            finite[start:start + bf.shape[0]] = bf
            overflow_steps[start:start + bo.shape[0]] = bo
        counts = finite.sum(axis=0)
        sums = np.where(finite, powers, 0.0).sum(axis=0)
        with np.errstate(all="ignore"):
            moments = np.where(counts > 0, sums / np.maximum(counts, 1), np.inf)
        all_rows.extend(
            MomentRow(level, t, float(moments[t])) for t in range(n + 1)
        )
        overflows[level] = int((overflow_steps >= 0).sum())
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
    n = 1 << level
    m = problem.m
    horizon = problem.horizon
    randomized = kind is SchemeKind.RANDOMIZED_TAMED_MILSTEIN

    def worker(start: int, stop: int):
        batch = stop - start
        inc = np.empty((batch, n, m))
        uniforms = np.empty((batch, n)) if randomized else None
        for bi, path_index in enumerate(range(start, stop)):
            bstream = derive_substream(policy, path_index, StreamRole.BROWNIAN)
            inc[bi] = sample_brownian_grid(level, m, horizon, bstream).increments
            if randomized:
                rstream = derive_substream(policy, path_index, StreamRole.RANDOMIZATION)
                uniforms[bi] = sample_randomization(n, rstream).uniforms
        term, ovf, _ = simulate_batch(problem, kind, inc, uniforms)
        return term, ovf

    terminals = np.empty((paths, problem.d))
    overflow_steps = np.empty(paths, dtype=np.int64)
    for index, (term, ovf) in enumerate(
        _map_blocks(worker, paths, _resolve_threads(threads))
    ):
        start = index * _BLOCK
        terminals[start:start + term.shape[0]] = term
        overflow_steps[start:start + ovf.shape[0]] = ovf
    return terminals, overflow_steps
