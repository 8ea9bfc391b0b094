import contextlib
import dataclasses
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sde_rtm import analysis, cli, schemes
from sde_rtm import (
    DegenerateDataError,
    ErrorRow,
    ErrorTable,
    InvalidParameterError,
    SchemeKind,
    SdeProblem,
    SeedPolicy,
    blowup_demo,
    fit_rate,
    make_builtin,
    moment_experiment,
    simulate_terminals,
    strong_error_experiment,
)
from sde_rtm import (
    NoiseStructure,
    StreamRole,
    UnsupportedNoiseStructureError,
    coarsen,
    derive_substream,
    sample_brownian_grid,
    sample_randomization,
    simulate_batch,
    terminal_value,
)
from sde_rtm.model import _stacked
from tests.conftest import make_commuting_gbm, make_zero_problem, src_env

RTM = SchemeKind.RANDOMIZED_TAMED_MILSTEIN
TM = SchemeKind.TAMED_MILSTEIN


def synthetic_table(ns, errors, horizon=1.0, p=2.0):
    rows = tuple(
        ErrorRow(level=int(np.log2(n)), n=n, dt=horizon / n, lp_error=e,
                 paths=100, p=p, stderr=0.0, overflowed=0)
        for n, e in zip(ns, errors)
    )
    return ErrorTable(rows, "exact", p)


# --- fit_rate ----------------------------------------------------------------

def test_fit_rate_order_one():
    fit = fit_rate(synthetic_table([2, 4, 8], [0.5, 0.25, 0.125]))
    assert fit.slope == pytest.approx(1.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_order_two():
    fit = fit_rate(synthetic_table([2, 4], [0.25, 0.0625]))
    assert fit.slope == pytest.approx(2.0, rel=1e-12)


def test_fit_rate_constant_errors():
    fit = fit_rate(synthetic_table([2, 4, 8], [0.3, 0.3, 0.3]))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=50)
@given(
    slope=st.floats(min_value=0.1, max_value=3.0),
    scale=st.floats(min_value=1e-3, max_value=1e3),
    count=st.integers(min_value=2, max_value=8),
)
def test_fit_rate_exact_on_power_laws(slope, scale, count):
    ns = [2 ** (k + 1) for k in range(count)]
    errors = [scale * (1.0 / n) ** slope for n in ns]
    fit = fit_rate(synthetic_table(ns, errors))
    assert fit.slope == pytest.approx(slope, rel=1e-10)
    assert fit.r_squared >= 1.0 - 1e-10


def test_fit_rate_degenerate_inputs():
    with pytest.raises(DegenerateDataError):
        fit_rate(synthetic_table([2], [0.5]))
    with pytest.raises(DegenerateDataError):
        fit_rate(synthetic_table([2, 4], [0.5, 0.0]))
    with pytest.raises(DegenerateDataError):
        fit_rate(synthetic_table([2, 4], [0.5, float("inf")]))


# --- strong error experiment -------------------------------------------------

def test_zero_problem_zero_error():
    problem = make_builtin("gbm", a=0.0, sigma=0.0, x0=1.0)
    table = strong_error_experiment(problem, TM, [2, 3, 4], "exact", 2.0, 40,
                                    SeedPolicy(5))
    for row in table.rows:
        assert row.lp_error == 0.0
        assert row.overflowed == 0
    assert table.reference == "exact"


def test_rows_sorted_and_labelled():
    problem = make_builtin("gbm")
    table = strong_error_experiment(problem, TM, [5, 3, 4], 7, 2.0, 30,
                                    SeedPolicy(5))
    assert [row.level for row in table.rows] == [3, 4, 5]
    assert [row.n for row in table.rows] == [8, 16, 32]
    assert table.reference == "level 7"


def test_gbm_exact_reference_rms_small():
    # fine-level tamed Milstein on a shared path vs the closed form
    problem = make_builtin("gbm", a=0.5, sigma=0.5, x0=1.0)
    table = strong_error_experiment(problem, TM, [12], "exact", 2.0, 500,
                                    SeedPolicy(99))
    assert table.rows[0].lp_error <= 5e-3
    assert table.rows[0].paths == 500


@pytest.mark.parametrize("kind,low,high", [
    (TM, 0.9, 1.1),   # criterion 2's band around order 1
    (RTM, 0.9, 1.1),
    (SchemeKind.TAMED_EULER, 0.4, 0.6),  # order 1/2 without the correction
])
def test_two_dimensional_commuting_noise_rates(kind, low, high):
    # the m = 2 Milstein path end to end: iterated integrals of two Brownian
    # components contracted against a (2, 2, 2) tensor, against the closed form
    table = strong_error_experiment(make_commuting_gbm(), kind, [4, 5, 6, 7, 8, 9],
                                    "exact", 2.0, 1000, SeedPolicy(20260810))
    fit = fit_rate(table)
    assert low <= fit.slope <= high, fit


@pytest.mark.parametrize("kind,low,high", [
    (TM, 0.9, 1.1),   # order 1 with the Milstein correction
    (RTM, 0.9, 1.1),
    (SchemeKind.EULER_MARUYAMA, 0.4, 0.6),  # order 1/2 without it
    (SchemeKind.TAMED_EULER, 0.4, 0.6),
])
def test_three_dimensional_commuting_noise_rates(kind, low, high):
    # d = m = 3: the kernel sums three noise terms and nine Milstein terms
    # per component, in index order, against the closed form
    problem = make_commuting_gbm(s=((0.3, 0.1, 0.2), (0.2, 0.4, 0.1), (0.1, 0.2, 0.3)),
                                 x0=(1.0, 2.0, 0.5), a=(0.3, -0.2, 0.1))
    table = strong_error_experiment(problem, kind, [3, 4, 5, 6, 7, 8], "exact", 2.0,
                                    1000, SeedPolicy(20260810))
    fit = fit_rate(table)
    assert low <= fit.slope <= high, fit
    assert fit.r_squared >= 0.99, fit


def test_worker_count_does_not_change_results(fhn, monkeypatch):
    def run(threads, experiment, *args):
        monkeypatch.setenv("SDE_RTM_THREADS", str(threads))
        return experiment(*args)

    args = (fhn, RTM, [3, 4], 7, 2.0, 600, SeedPolicy(2))
    serial = run(1, strong_error_experiment, *args)
    parallel = run(3, strong_error_experiment, *args)
    assert serial == parallel
    # slab widths follow the worker count: uneven splits, and fewer paths
    # than workers, must not change a single bit either
    explosive = make_builtin("fhn", sigma=3.0, i_amp=60.0)
    for paths, counts in ((601, (1, 2, 4)), (3, (1, 4))):
        runs = [
            (
                run(threads, strong_error_experiment, fhn, RTM, [1, 3], 6, 2.0,
                    paths, SeedPolicy(8)),
                run(threads, moment_experiment, explosive,
                    SchemeKind.EULER_MARUYAMA, 2.0, [3, 4], paths, SeedPolicy(8)),
                [a.tobytes() for a in run(threads, simulate_terminals,
                                          explosive, RTM, 4, paths, SeedPolicy(8))],
            )
            for threads in counts
        ]
        assert all(repr(run) == repr(runs[0]) for run in runs[1:])
        if paths > 100:
            assert runs[0][1].overflows[4] > 0  # overflows reach the reduction
    # moments fold (steps x slab) pieces whose length follows the slab
    # width: slabs 4096 + 1 fold 64-step pieces, slabs 2049 + 2048 fold
    # 128-step pieces, and the path-order sums must still agree bit for bit
    moments = [repr(run(threads, moment_experiment, fhn, RTM, 4.0, [8], 4097,
                        SeedPolicy(4)))
               for threads in (1, 2)]
    assert moments[0] == moments[1]


def _per_path_reference(problem, kind, levels, ref, p, paths, policy):
    """The per-path sampling loop the streaming sweep replaced: draw each
    path's whole grid at the finest level in play and its uniforms in the
    documented order (reference first, then levels ascending), coarsen
    with ``coarsen`` and integrate with ``simulate_batch``.  Returns the
    per-path error powers and inclusion masks, (levels, paths)."""
    exact = ref == "exact"
    gen_level = max(levels) if exact else ref
    randomized = kind is RTM
    err = np.empty((len(levels), paths))
    ok = np.empty((len(levels), paths), dtype=bool)
    with np.errstate(all="ignore"):
        for path in range(paths):
            grid = sample_brownian_grid(
                gen_level, problem.m, problem.horizon,
                derive_substream(policy, path, StreamRole.BROWNIAN))
            rstream = derive_substream(policy, path, StreamRole.RANDOMIZATION)

            def run(level):
                u = (sample_randomization(1 << level, rstream).uniforms[None]
                     if randomized else None)
                term, ovf, _ = simulate_batch(
                    problem, kind, coarsen(grid, level).increments[None], u)
                return term[0], ovf[0] < 0

            if exact:
                ref_term = _stacked(problem.exact_terminal, terminal_value(grid)[None])[0]
                ref_ok = np.isfinite(ref_term).all()
            else:
                ref_term, ref_ok = run(ref)
            for row, level in enumerate(levels):
                term, level_ok = run(level)
                err[row, path] = np.sqrt(np.sum((ref_term - term) ** 2)) ** p
                ok[row, path] = ref_ok and level_ok
    return err, ok


@pytest.mark.parametrize("problem_id,kind,levels,ref", [
    ("fhn", RTM, [0, 1, 3], 6),
    ("fhn", RTM, [2, 5], 9),
    ("gbm", RTM, [0, 1, 2, 4], "exact"),
    ("gbm", TM, [1, 3], "exact"),
])
def test_streaming_sweep_matches_per_path_reference(monkeypatch, problem_id, kind,
                                                     levels, ref):
    # a small draw budget makes coarse steps span several draw chunks, and
    # levels 0 and 1 put later runs' uniforms at offsets off a multiple of 4
    monkeypatch.setattr(analysis, "_DRAW_BUDGET", 64)
    monkeypatch.setenv("SDE_RTM_THREADS", "1")
    problem = make_builtin(problem_id)
    paths, p, policy = 21, 3.0, SeedPolicy(77)
    err, ok = _per_path_reference(problem, kind, levels, ref, p, paths, policy)
    table = strong_error_experiment(problem, kind, levels, ref, p, paths, policy)
    assert [got.level for got in table.rows] == levels
    for row, got in enumerate(table.rows):
        values = err[row][ok[row]]
        assert got.overflowed == paths - values.size
        assert got.lp_error == float(np.mean(values)) ** (1.0 / p)


def test_sweep_builds_one_generator_per_slab_and_role(monkeypatch):
    # every slab and role builds one SeedSequence, Philox and Generator,
    # those of its first path, however many paths it holds
    monkeypatch.setenv("SDE_RTM_THREADS", "1")

    def count_calls(paths):
        counts = {"SeedSequence": 0, "Philox": 0, "Generator": 0}
        with monkeypatch.context() as patch:
            for name in counts:
                real = getattr(np.random, name)

                def counted(*args, _name=name, _real=real, **kwargs):
                    counts[_name] += 1
                    return _real(*args, **kwargs)

                patch.setattr(np.random, name, counted)
            strong_error_experiment(make_builtin("fhn"), RTM, [2, 3], 5, 2.0, paths,
                                    SeedPolicy(3))
        return counts

    roles = 2  # Brownian and randomization
    assert count_calls(3) == count_calls(300) == dict.fromkeys(
        ("SeedSequence", "Philox", "Generator"), roles)


def test_statistical_monotonicity_across_levels():
    problem = make_builtin("gbm", a=0.5, sigma=0.5, x0=1.0)
    wins = 0
    for seed in range(10):
        table = strong_error_experiment(problem, TM, [3, 6], "exact", 2.0, 64,
                                        SeedPolicy(1000 + seed))
        coarse, fine = table.rows
        wins += coarse.lp_error >= fine.lp_error
    assert wins >= 8


def test_doubling_paths_is_stable():
    problem = make_builtin("gbm", a=0.5, sigma=0.5, x0=1.0)
    small = strong_error_experiment(problem, TM, [5], "exact", 2.0, 400,
                                    SeedPolicy(31)).rows[0]
    large = strong_error_experiment(problem, TM, [5], "exact", 2.0, 800,
                                    SeedPolicy(31)).rows[0]
    assert abs(small.lp_error - large.lp_error) < 3.0 * small.stderr


def test_overflowing_paths_excluded_and_counted():
    # untamed Euler on the double-well problem at level 0: one giant step
    # sends some paths past the overshoot threshold
    problem = make_builtin("double_well")
    table = strong_error_experiment(problem, SchemeKind.EULER_MARUYAMA,
                                    [0, 1], 10, 2.0, 200, SeedPolicy(12))
    for row in table.rows:
        assert row.paths + row.overflowed == 200
        assert np.isfinite(row.lp_error)


def test_infinite_error_has_infinite_stderr():
    # explosive fhn under explicit Euler: at level 3, 4 of 10 paths stay
    # finite but their mean error power overflows
    explosive = make_builtin("fhn", sigma=3.0, i_amp=60.0)
    row = strong_error_experiment(explosive, SchemeKind.EULER_MARUYAMA, [3, 4, 6], 9,
                                  2.0, 10, SeedPolicy(5)).rows[0]
    assert (row.level, row.lp_error, row.paths, row.stderr) == (3, np.inf, 4, np.inf)
    # dx = x^3 dt from 2 leaves no path finite, at any level
    cubic = SdeProblem(
        d=1, m=1, horizon=1.0, initial_state=[2.0],
        drift=lambda t, x: (x[0] ** 3,),
        diffusion=lambda t, x: ((0.0,),),
        milstein_tensor=lambda t, x: (((0.0,),),),
        noise_structure=NoiseStructure.SCALAR, xi=2.0, beta=1.0,
    )
    for row in strong_error_experiment(cubic, SchemeKind.EULER_MARUYAMA, [3, 4], 6,
                                       2.0, 5, SeedPolicy(3)).rows:
        assert (row.lp_error, row.paths, row.stderr) == (np.inf, 0, np.inf)


def test_experiment_validation(fhn, monkeypatch):
    policy = SeedPolicy(1)
    with pytest.raises(ValueError):
        strong_error_experiment(fhn, RTM, [4, 5], 5, 2.0, 10, policy)
    with pytest.raises(ValueError):
        strong_error_experiment(fhn, RTM, [], 5, 2.0, 10, policy)
    with pytest.raises(ValueError):
        strong_error_experiment(fhn, RTM, [3], 5, 0.5, 10, policy)
    with pytest.raises(ValueError):
        strong_error_experiment(fhn, RTM, [3], 5, float("nan"), 10, policy)
    with pytest.raises(InvalidParameterError, match="exact"):
        strong_error_experiment(fhn, RTM, [3], "exact", 2.0, 10, policy)
    with pytest.raises(ValueError):
        strong_error_experiment(fhn, RTM, [3], "almost", 2.0, 10, policy)
    with pytest.raises(ValueError):
        moment_experiment(fhn, RTM, 1.0, [3], 10, policy)
    with pytest.raises(ValueError):
        moment_experiment(fhn, RTM, float("nan"), [3], 10, policy)
    with pytest.raises(InvalidParameterError, match="kind"):
        strong_error_experiment(fhn, "tamed_milstein", [3], 5, 2.0, 10, policy)

    # non-integer counts and levels (bool included) are rejected before any
    # worker starts: no pool may be reached
    def no_workers(*args):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr(analysis, "_map_blocks", no_workers)
    for paths in (2.5, float("nan"), True, "10", 2 ** 24 + 1):
        with pytest.raises(InvalidParameterError, match="paths"):
            strong_error_experiment(fhn, RTM, [3], 5, 2.0, paths, policy)
        with pytest.raises(InvalidParameterError, match="paths"):
            moment_experiment(fhn, RTM, 4.0, [3], paths, policy)
        with pytest.raises(InvalidParameterError, match="paths"):
            simulate_terminals(fhn, RTM, 3, paths, policy)
    for levels in ([2.7, 3.2], [True, 3], [3.0], [63]):
        with pytest.raises(InvalidParameterError, match="levels"):
            strong_error_experiment(fhn, RTM, levels, 5, 2.0, 10, policy)
        with pytest.raises(InvalidParameterError, match="levels"):
            moment_experiment(fhn, RTM, 4.0, levels, 10, policy)
    for ref in (5.9, 6.0, True, 63):
        with pytest.raises(InvalidParameterError, match="reference"):
            strong_error_experiment(fhn, RTM, [0], ref, 2.0, 10, policy)
    for level in (63, -1, 1.5, 2.5, float("nan"), True):
        with pytest.raises(InvalidParameterError,
                           match=re.escape("level must be an integer in [0, 62]")):
            simulate_terminals(fhn, RTM, level, 10, policy)
    for bad in (float("inf"), -float("inf"), float("nan"), "2", True, 10 ** 400):
        with pytest.raises(InvalidParameterError, match="p must"):
            strong_error_experiment(fhn, RTM, [3], 5, bad, 10, policy)
        with pytest.raises(InvalidParameterError, match="q must"):
            moment_experiment(fhn, RTM, bad, [3], 10, policy)


def test_moment_levels_stop_at_the_paths_bound(fhn, monkeypatch):
    # a table holds 2**level + 1 shared sums per level: level 24 is the finest
    # the bound on paths allows, and a finer one is refused before any table
    # is allocated or a worker starts
    class Stop(Exception):
        pass

    def no_pool(*args):
        raise Stop

    tables = []
    monkeypatch.setattr(analysis, "_PathOrderSum", tables.append)
    monkeypatch.setattr(analysis, "_map_blocks", no_pool)
    with pytest.raises(Stop):
        moment_experiment(fhn, RTM, 4.0, [3, 24], 10, SeedPolicy(1))
    assert tables == [9, (1 << 24) + 1]
    tables.clear()
    rule = re.escape("levels must be a nonempty list of integers in [0, 24]")
    for levels in ([25], [3, 25], [62]):
        with pytest.raises(InvalidParameterError, match=rule):
            moment_experiment(fhn, RTM, 4.0, levels, 10, SeedPolicy(1))
        with pytest.raises(InvalidParameterError, match=rule):
            blowup_demo(levels, 10, SeedPolicy(1))
    assert not tables


# --- moment experiment -------------------------------------------------------

def test_zero_problem_moments_constant():
    problem = make_zero_problem(d=2)
    table = moment_experiment(problem, SchemeKind.TAMED_EULER, 4.0, [2, 3], 20,
                              SeedPolicy(7))
    expected = float(np.sum(problem.initial_state ** 2) ** 2)
    for level in (2, 3):
        assert table.moments[level] == pytest.approx(expected, rel=1e-12)
    assert table.overflows == {2: 0, 3: 0}


def _row_by_row(rows, finite):
    # the sums of the finite entries, row by row, and their counts
    sums, counts = np.zeros(rows.shape[1]), np.zeros(rows.shape[1], dtype=np.int64)
    for row, keep in zip(rows, finite):
        sums += np.where(keep, row, 0.0)
        counts += keep
    return sums, counts


def test_path_order_sum_matches_row_by_row_in_any_arrival_order():
    rng = np.random.default_rng(5)
    columns, widths = 97, (5, 11, 3)
    rows = rng.standard_exponential((sum(widths), columns)) ** 4
    finite = rng.random(rows.shape) < 0.8
    rows[~finite] = np.inf  # what a masked entry holds must not reach the sums
    assert not np.array_equal(_row_by_row(rows[::-1], finite[::-1])[0],
                              _row_by_row(rows, finite)[0])  # order shows
    for _ in range(20):
        # every slab cuts its columns at its own points, as unequal slab
        # widths give unequal observe pieces
        streams, start = [], 0
        for width in widths:
            cuts = sorted(rng.choice(np.arange(1, columns), 4, replace=False))
            bounds = [0, *cuts, columns]
            streams.append([(start, a, rows[start:start + width, a:b].T.copy(),
                             finite[start:start + width, a:b].T.copy())
                            for a, b in zip(bounds, bounds[1:])])
            start += width
        # every slab folds its own pieces from its own thread, the threads
        # started in a shuffled order, so a later slab often waits
        reduction = analysis._PathOrderSum(columns)
        folds = [threading.Thread(target=lambda stream=stream: [reduction.add(*piece)
                                                                for piece in stream],
                                  daemon=True)
                 for stream in streams]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-fold too
        try:
            for slab in rng.permutation(len(widths)):
                folds[slab].start()
            for fold in folds:
                fold.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(fold.is_alive() for fold in folds)
        sums, counts = reduction.total(len(rows))
        want_sums, want_counts = _row_by_row(rows, finite)
        assert np.array_equal(sums, want_sums)
        assert np.array_equal(counts, want_counts)


def test_path_order_sum_reports_missing_pieces():
    reduction = analysis._PathOrderSum(4)
    finite = np.ones((4, 5), dtype=bool)
    finite[2:, 1] = finite[3, 4] = False  # path 1 from column 2, path 4 at column 3
    reduction.add(0, 0, np.ones((4, 2)), finite[:, :2])  # paths 0 and 1
    with pytest.raises(RuntimeError, match="missing"):
        reduction.total(5)
    # paths 2 to 4, columns 0 and 1 only
    reduction.add(2, 0, np.ones((2, 3)), finite[:2, 2:])
    with pytest.raises(RuntimeError, match="missing"):
        reduction.total(5)
    reduction.add(2, 2, np.ones((2, 3)), finite[2:, 2:])
    sums, counts = reduction.total(5)
    want_sums, want_counts = _row_by_row(np.ones((5, 4)), finite.T)
    assert np.array_equal(sums, want_sums)
    assert np.array_equal(counts, want_counts)
    assert counts.tolist() == [5, 5, 4, 3]


def test_moments_never_hold_a_slab_of_rows(monkeypatch):
    # every path's row of powers would take paths x (n + 1) x 8 bytes
    monkeypatch.setenv("SDE_RTM_THREADS", "1")
    level, paths = 13, 256
    tracemalloc.start()
    try:
        moment_experiment(make_builtin("fhn"), RTM, 4.0, [level], paths,
                          SeedPolicy(6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < paths * ((1 << level) + 1) * 8


def test_moment_rows_cover_every_grid_point(fhn):
    table = moment_experiment(fhn, RTM, 4.0, [3], 10, SeedPolicy(7))
    assert list(table.moments) == [3]
    assert table.moments[3].shape == (9,)
    assert not table.moments[3].flags.writeable
    assert table.sup_moment(3) == max(table.moments[3].tolist())


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
def test_three_component_moments_match_a_row_by_row_fold(monkeypatch, q):
    # the observer sums |x|^2 over the components one by one into one array;
    # the goldens hold d = 1 and 2 only, so d = 3 is checked here against the
    # whole (steps, d, paths) sum over axis 1 and a fold path by path, at 1
    # and 2 workers (uneven slabs of 19 and 18 paths)
    problem = make_commuting_gbm(s=((0.3, 0.1, 0.2), (0.2, 0.4, 0.1), (0.1, 0.2, 0.3)),
                                 x0=(1.0, 2.0, 0.5), a=(0.3, -0.2, 0.1))
    levels, paths, policy = [3, 5], 37, SeedPolicy(29)
    want = {}
    for level in levels:
        n = 1 << level
        grids = [sample_brownian_grid(level, problem.m, problem.horizon,
                                      derive_substream(policy, path, StreamRole.BROWNIAN))
                 for path in range(paths)]
        uniforms = np.stack([
            sample_randomization(n, derive_substream(policy, path,
                                                     StreamRole.RANDOMIZATION)).uniforms
            for path in range(paths)], axis=1)
        rows = np.empty((n + 1, paths))
        finite = np.empty((n + 1, paths), dtype=bool)

        def observe(index, states, ok):
            rows[index:index + len(states)] = (states * states).sum(axis=1) ** (q / 2.0)
            finite[index:index + len(states)] = ok

        stepper = schemes.BatchStepper(problem, RTM, n, paths)
        with np.errstate(all="ignore"):
            stepper.feed(np.stack([grid.increments for grid in grids], axis=1), uniforms,
                         observe=observe)
        sums, counts = _row_by_row(rows.T, finite.T)
        want[level] = sums / counts
    for threads in (1, 2):
        monkeypatch.setenv("SDE_RTM_THREADS", str(threads))
        table = moment_experiment(problem, RTM, q, levels, paths, policy)
        for level in levels:
            assert table.overflows[level] == 0
            assert table.moments[level].tobytes() == want[level].tobytes()


def test_moment_overflow_counting():
    explosive = SdeProblem(
        d=1, m=1, horizon=1.0, initial_state=[2.0],
        drift=lambda t, x: (x[0] ** 3,),
        diffusion=lambda t, x: ((0.0,),),
        milstein_tensor=lambda t, x: (((0.0,),),),
        noise_structure=NoiseStructure.SCALAR, xi=2.0, beta=1.0,
    )
    table = moment_experiment(explosive, SchemeKind.EULER_MARUYAMA, 2.0, [4],
                              5, SeedPolicy(3))
    assert table.overflows[4] == 5
    assert table.sup_moment(4) == float("inf")


def test_single_path_moments_well_formed():
    problem = make_builtin("gbm")
    table = moment_experiment(problem, TM, 2.0, [3], 1, SeedPolicy(3))
    assert table.moments[3].shape == (9,)
    assert np.isfinite(table.moments[3]).all()


# --- blow-up demo ------------------------------------------------------------

def test_blowup_demo_tables_well_formed():
    demo = blowup_demo([4], 50, SeedPolicy(17))
    assert set(demo) == {SchemeKind.EULER_MARUYAMA, SchemeKind.TAMED_EULER}
    for table in demo.values():
        assert list(table.moments) == [4]
        assert table.moments[4].shape == (17,)
    tamed = demo[SchemeKind.TAMED_EULER]
    assert tamed.sup_moment(4) <= 100.0
    assert tamed.overflows[4] == 0


# --- simulate_terminals ------------------------------------------------------

def test_simulate_terminals_matches_strong_error_reference():
    problem = make_builtin("gbm", a=0.0, sigma=0.0, x0=3.0)
    terminals, overflow = simulate_terminals(problem, TM, 4, 25, SeedPolicy(4))
    assert terminals == pytest.approx(np.full((25, 1), 3.0))
    assert np.all(overflow == -1)


# --- worker pool ---------------------------------------------------------------

@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not hasattr(signal, "SIGALRM"),
    reason="needs fork-based workers and SIGALRM",
)
def test_dead_worker_raises_instead_of_hanging():
    def worker(start, stop):
        if start > 0:
            os._exit(3)  # the child dies without reporting its slab
        return np.zeros(stop - start)

    def hung(signum, frame):
        raise TimeoutError("_map_blocks still waiting on a dead worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    started = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match="exited with code 3"):
            analysis._map_blocks(worker, 768, 2)  # slabs [0, 384), [384, 768)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 5.0


_INTERRUPTED_SIMULATE = """
import os, sys
from sde_rtm import analysis, cli

sweep = analysis._sweep

def announced(*args, **kwargs):
    # tells the test that a worker steps a slab, in one write
    os.write(1, b"stepping\\n")
    return sweep(*args, **kwargs)

analysis._sweep = announced
sys.exit(cli.run_command(sys.argv[1:]))
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs fork-based workers")
def test_interrupted_parent_ends_its_workers(tmp_path):
    # only the parent gets SIGINT, in its wait on the pool: it must end its
    # workers, not join them at exit while they step or block on the pipe
    command = [sys.executable, "-c", _INTERRUPTED_SIMULATE, "simulate",
               "--problem", "gbm", "--level", "10", "--paths", "200000",
               "--outdir", str(tmp_path)]
    proc = subprocess.Popen(command, env=src_env(SDE_RTM_THREADS="2"),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    try:
        # both workers step their first slab, so the parent is in its wait
        assert [proc.stdout.readline() for _ in range(2)] == ["stepping\n"] * 2
        os.kill(proc.pid, signal.SIGINT)
        assert proc.wait(timeout=10) != 0
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # no process is left in the run's group
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()


def test_each_experiment_runs_one_pool(monkeypatch, tmp_path):
    # moments steps all its levels in each slab of one pool, and blowup
    # runs one moments pool per kind
    pools = []
    map_blocks = analysis._map_blocks

    def counted(worker, count, threads):
        pools.append(count)
        return map_blocks(worker, count, threads)

    monkeypatch.setattr(analysis, "_map_blocks", counted)
    monkeypatch.setenv("SDE_RTM_THREADS", "2")
    common = ["--problem", "fhn", "--paths", "20", "--outdir", str(tmp_path)]
    for argv in (["converge", "--levels", "2,3", "--reference", "5"],
                 ["simulate", "--level", "3"],
                 ["moments", "--levels", "3,4,5"]):
        pools.clear()
        assert cli.run_command(argv + common) == 0
        assert pools == [20], argv
    pools.clear()
    blowup_demo([2, 4], 20, SeedPolicy(1))
    assert pools == [20, 20]


class _UnloadableError(Exception):
    # pickles, but cannot be rebuilt from its args in the parent
    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


class _MidStreamError(ValueError):
    pass


def test_worker_error_keeps_its_type_at_any_worker_count(monkeypatch):
    def worker(start, stop):
        if start > 0:
            raise ValueError(f"slab {start}")
        return np.zeros(stop - start)

    with pytest.raises(ValueError, match="^slab 384$"):
        analysis._map_blocks(worker, 768, 2)  # slabs [0, 384), [384, 768)

    general = dataclasses.replace(make_zero_problem(d=2, m=2),
                                  noise_structure=NoiseStructure.GENERAL)
    for threads in ("1", "2"):
        monkeypatch.setenv("SDE_RTM_THREADS", threads)
        with pytest.raises(UnsupportedNoiseStructureError):
            strong_error_experiment(general, TM, [2, 3], 4, 2.0, 600, SeedPolicy(5))

    # a moments worker that fails after it has folded pieces, in its only
    # level or in the second level of the one pool: its error keeps its
    # type, no worker outlives the run, and the next run reduces as a fresh
    # one does
    def drift(t, x):
        # past half time and off the level-3 grid: only a level-9 run fails
        if np.max(t) > 0.5 and np.max(t) * 8 % 1:
            raise _MidStreamError("past half time")
        return tuple(-component for component in x)

    failing = dataclasses.replace(make_zero_problem(d=2), drift=drift)
    healthy = make_builtin("fhn")
    reductions = []
    init = analysis._PathOrderSum.__init__

    def recorded_init(self, columns):
        init(self, columns)
        reductions.append(self)

    monkeypatch.setattr(analysis._PathOrderSum, "__init__", recorded_init)
    for levels in ([9], [3, 9]):
        args = (4.0, levels, 600, SeedPolicy(5))
        fresh = moment_experiment(healthy, RTM, *args)
        for threads in ("1", "2"):
            monkeypatch.setenv("SDE_RTM_THREADS", threads)
            reductions.clear()
            with pytest.raises(_MidStreamError, match="past half time"):
                moment_experiment(failing, TM, *args)
            # the levels before the failing one folded every grid point, and
            # the failing one its stepped states, wherever the slab ran: the
            # path counts are shared with the workers
            assert len(reductions) == len(levels)
            assert all(reduction._added.min() > 0 for reduction in reductions[:-1])
            assert reductions[-1]._added[1:].max() > 0
            assert multiprocessing.active_children() == []
            again = moment_experiment(healthy, RTM, *args)
            assert again.overflows == fresh.overflows
            for level in levels:
                assert np.array_equal(again.moments[level], fresh.moments[level])


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs fork-based workers")
def test_worker_error_that_cannot_cross_the_pipe_is_named():
    def worker(start, stop):
        if start > 0:
            raise _UnloadableError(start, stop)
        return np.zeros(stop - start)

    with pytest.raises(RuntimeError, match="_UnloadableError.*384 768"):
        analysis._map_blocks(worker, 768, 2)


_FORKED_WORKERS_SEE_NUMPY_RANDOM = """
import os, sys
import numpy as np
from sde_rtm import analysis, cli
assert "numpy.random" not in sys.modules, "loaded before the pool"
parent = os.getpid()

def worker(start, stop):
    # runs before the slab's first draw
    return np.array([os.getpid() != parent, "numpy.random" in sys.modules])

print(*(bool(flag) for block in analysis._map_blocks(worker, 2, 2) for flag in block))
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs fork-based workers")
def test_forked_workers_find_numpy_random_loaded():
    # numpy loads numpy.random lazily; the parent loads it once before it
    # forks, so no worker pays for the import again
    done = subprocess.run([sys.executable, "-c", _FORKED_WORKERS_SEE_NUMPY_RANDOM],
                          env=src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    # two slabs, each in its own forked worker that found the module loaded
    assert done.stdout.split() == ["True"] * 4


def test_round_robin_slabs_fold_as_one_worker_does(monkeypatch):
    # 200 paths in slabs of at most 48: 2 and 3 workers each run several
    # slabs (48 x 4 + 8) in turn, and the narrow last slab cuts its grid
    # into longer pieces than the others
    monkeypatch.setattr(analysis, "_SLAB", 48)
    monkeypatch.setattr(analysis, "_DRAW_BUDGET", 1024)
    explosive = make_builtin("fhn", sigma=3.0, i_amp=60.0)
    euler = SchemeKind.EULER_MARUYAMA
    runs = {}
    for threads in (1, 2, 3):
        monkeypatch.setenv("SDE_RTM_THREADS", str(threads))
        runs[threads] = (
            moment_experiment(make_builtin("fhn"), RTM, 4.0, [6, 8], 200, SeedPolicy(9)),
            moment_experiment(explosive, euler, 2.0, [3, 6], 200, SeedPolicy(9)),
            moment_experiment(explosive, euler, 2.0, [3, 4], 200, SeedPolicy(9)),
        )
    assert runs[1][1].overflows[3] > 0  # overflows reach the reduction
    for threads in (2, 3):
        for table, serial in zip(runs[threads], runs[1]):
            assert table.overflows == serial.overflows
            for level, moments in serial.moments.items():
                assert table.moments[level].tobytes() == moments.tobytes()
    # the folded finite counts give each level's overflows, with overflowing
    # paths in every slab
    for level in (3, 4):
        overflow = simulate_terminals(explosive, euler, level, 200, SeedPolicy(9))[1]
        assert all((overflow[s:s + 48] >= 0).any() for s in range(0, 200, 48))
        for threads in (1, 2, 3):
            assert runs[threads][2].overflows[level] == (overflow >= 0).sum()


_FIRST_SLAB_FAILS_WHILE_THE_NEXT_WAITS = """
import multiprocessing, os, sys
import numpy as np
from sde_rtm import (NoiseStructure, SchemeKind, SdeProblem, SeedPolicy,
                     moment_experiment)

class MidStreamError(ValueError):
    pass

def drift(t, x):
    # 601 paths over 2 workers make slabs of 301 and 300 paths: only the
    # first fails, past half time, so the second steps on and waits for the
    # first slab's later grid points, which never come
    if len(x[0]) == 301 and np.max(t) > 0.5:
        if sys.argv[1] == "kill":
            os._exit(3)
        raise MidStreamError("first slab failed")
    return (-x[0],)

problem = SdeProblem(d=1, m=1, horizon=1.0, initial_state=[1.0], drift=drift,
                     diffusion=lambda t, x: ((0.5,),),
                     milstein_tensor=lambda t, x: (((0.0,),),),
                     noise_structure=NoiseStructure.SCALAR, xi=0.0, beta=1.0)
try:
    moment_experiment(problem, SchemeKind.EULER_MARUYAMA, 2.0, [10], 601,
                      SeedPolicy(1))
except Exception as exc:
    print(type(exc).__name__, exc)
print("children", len(multiprocessing.active_children()))
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs fork-based workers")
@pytest.mark.parametrize("failure,expected", [
    ("raise", "MidStreamError first slab failed"),
    ("kill", "RuntimeError worker exited with code 3"),
])
def test_failed_slab_ends_a_run_whose_next_slab_waits_on_it(failure, expected):
    # the run fails with the worker's own error (a dead worker's is a
    # RuntimeError) instead of hanging on the waiting slab, and no child
    # outlives it; the subprocess timeout bounds the wait
    started = time.monotonic()
    done = subprocess.run([sys.executable, "-c", _FIRST_SLAB_FAILS_WHILE_THE_NEXT_WAITS,
                           failure], env=src_env(SDE_RTM_THREADS="2"),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [expected, "children 0"]
    assert time.monotonic() - started < 30.0
