#!/usr/bin/env python3
"""Alternating parent/change timings of the step kernel in one interpreter.

Usage:

    python3 scripts/step_pairs.py --parent DIR --change DIR

``DIR`` is a source checkout of each side.  The ``sde_rtm`` package of
``DIR/src`` is imported once per side, with ``sys.modules`` cleared of it
between the two imports, so both kernels run in one process on the same
increments; the caller's own ``sde_rtm`` modules are put back afterwards.
Separate processes on a small shared host swing by more than a kernel
change moves a step, and one process cancels most of that.

For each case (a builtin problem and a scheme kind) each of ``REPS``
repetitions times one ``BatchStepper.feed`` of ``STEPS`` steps over
``WIDTH`` paths on each side, the parent first in even repetitions and
the change first in odd ones.  Printed per case: each side's minimum and
lower quartile in us per step, the repetitions the change won, the ratio of
the change's minimum to the parent's, and whether both sides gave the same
terminal bits.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from time import perf_counter

import numpy as np

REPS, STEPS, WIDTH = 21, 2048, 256

# (label, builtin id, SchemeKind member)
CASES = (
    ("fhn RTM", "fhn", "RANDOMIZED_TAMED_MILSTEIN"),
    ("fhn TM", "fhn", "TAMED_MILSTEIN"),
    ("fhn EM", "fhn", "EULER_MARUYAMA"),
    ("gbm RTM", "gbm", "RANDOMIZED_TAMED_MILSTEIN"),
    ("gbm TM", "gbm", "TAMED_MILSTEIN"),
    ("double_well TE", "double_well", "TAMED_EULER"),
)


def _unload():
    """Remove the ``sde_rtm`` modules from ``sys.modules`` and return them."""
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if name.split(".")[0] == "sde_rtm"}


def load(checkout: str):
    """The ``sde_rtm.schemes`` and ``sde_rtm.model`` modules of
    ``checkout/src``, imported afresh."""
    _unload()
    sys.path.insert(0, f"{checkout}/src")
    try:
        from sde_rtm import model, schemes
    finally:
        sys.path.pop(0)
    return schemes, model


def feed_once(side, case, increments, uniforms):
    """Seconds per step of one fresh stepper's feed, and its terminal state."""
    schemes, model = side
    _, problem_id, kind = case
    kind = schemes.SchemeKind[kind]
    problem = model.make_builtin(problem_id)
    steps, width, _ = increments.shape
    stepper = schemes.BatchStepper(problem, kind, steps, width)
    u = uniforms if kind is schemes.SchemeKind.RANDOMIZED_TAMED_MILSTEIN else None
    start = perf_counter()
    stepper.feed(increments, u)
    return (perf_counter() - start) / steps, stepper.x


def compare(parent: str, change: str, reps: int, steps: int, width: int) -> dict:
    """Per case label: both sides' per-step times (s) and whether every
    repetition of both gave the same terminal bits."""
    loaded = _unload()
    try:
        sides = {"parent": load(parent), "change": load(change)}
    finally:
        _unload()
        sys.modules.update(loaded)
    result = {}
    for case in CASES:
        problem = sides["parent"][1].make_builtin(case[1])
        rng = np.random.default_rng(2024)
        increments = (rng.standard_normal((steps, width, problem.m))
                      * math.sqrt(problem.horizon / steps))
        uniforms = rng.random((steps, width))
        times = {"parent": [], "change": []}
        terminals = []
        for rep in range(reps):
            order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
            for name in order:
                seconds, terminal = feed_once(sides[name], case, increments, uniforms)
                times[name].append(seconds)
                terminals.append(terminal)
        same = all(np.array_equal(t, terminals[0], equal_nan=True) for t in terminals)
        result[case[0]] = {**times, "same_bits": same}
    return result


def lower_quartile(values):
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    args = parser.parse_args(argv)
    result = compare(args.parent, args.change, REPS, STEPS, WIDTH)
    print(f"{'case':<16}{'parent min':>11}{'q1':>8}{'change min':>11}{'q1':>8}"
          f"{'won':>7}{'ratio':>7}  same bits   (us per step, B = {WIDTH}, "
          f"{STEPS} steps, {REPS} reps)")
    for label, entry in result.items():
        parent, change = entry["parent"], entry["change"]
        won = sum(c < p for p, c in zip(parent, change))
        print(f"{label:<16}{min(parent) * 1e6:>11.2f}{lower_quartile(parent) * 1e6:>8.2f}"
              f"{min(change) * 1e6:>11.2f}{lower_quartile(change) * 1e6:>8.2f}"
              f"{won:>4}/{len(change):<2}{min(change) / min(parent):>7.3f}  "
              f"{'yes' if entry['same_bits'] else 'NO'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
