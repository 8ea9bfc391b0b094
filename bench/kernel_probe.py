"""Time the batch step kernel alone, per scheme, problem and batch width.

    python3 bench/kernel_probe.py OUT_JSON SEED

Calls ``schemes.simulate_batch`` directly on increments and uniforms drawn
beforehand, so generation stays outside the timed region.  Writes
``{"<scheme>/<problem>/<width>": ns per path-step}``, the median over
REPS calls after one untimed warm-up call.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter_ns

import numpy as np

from sde_rtm import model, schemes

PROBLEMS = ("fhn", "gbm")
WIDTHS = (256, 4096)
STEPS = 64
REPS = 5


def main() -> int:
    out_path, seed = sys.argv[1], int(sys.argv[2])
    rng = np.random.default_rng(seed)
    result = {}
    for problem_id in PROBLEMS:
        problem = model.make_builtin(problem_id)
        for width in WIDTHS:
            dt = problem.horizon / STEPS
            increments = rng.standard_normal((width, STEPS, problem.m)) * np.sqrt(dt)
            uniforms = rng.random((width, STEPS))
            for kind in schemes.SchemeKind:
                randomized = kind is schemes.SchemeKind.RANDOMIZED_TAMED_MILSTEIN
                u = uniforms if randomized else None
                times = []
                for rep in range(REPS + 1):
                    start = perf_counter_ns()
                    terminal, _, _ = schemes.simulate_batch(problem, kind, increments, u)
                    times.append(perf_counter_ns() - start)
                    if not np.isfinite(terminal).all():
                        print(f"{kind.value}/{problem_id}: non-finite terminal states",
                              file=sys.stderr)
                        return 1
                key = f"{kind.value}/{problem_id}/{width}"
                result[key] = statistics.median(times[1:]) / (width * STEPS)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
