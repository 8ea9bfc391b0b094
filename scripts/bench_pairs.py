#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

Usage:

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json \\
        [--workload W ...] [--pairs 10] [--first-seed 1] [--seconds 30] \\
        [--what TEXT] [--claim TEXT]

``DIR`` is a source checkout of each side (``src/``, ``bench/`` and
``BENCHMARK.json``).  For every workload (default: all that
``BENCHMARK.json`` lists), pair ``k`` runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, back to back, on the same seed; the parent runs first
in even pairs and the change in odd ones.  Workload ``i`` uses the seeds
``first_seed + 100 i + k``, ``k = 0 .. pairs - 1``.  Each run's record
(``.bench_work/results/`` of its checkout) goes into ``pairs``, and
``summary`` gives per workload and end-to-end metric how many pairs the
change won (ties count for neither side), the relative change of the
medians, both sides' quartiles, whether the gain rule holds (the change
wins at least nine tenths of the pairs and its median beats the parent's by
more than the parent's interquartile range) and whether the no-regression
rule holds (``within_bound``: the change's median is worse than the
parent's by at most the metric's ``bound`` in ``BENCHMARK.json``, relative
to the parent's median).  ``numpy_simd`` names the SIMD targets numpy uses
in the interpreter that runs both sides, since the digests depend on them,
and ``malloc_env`` the allocator regime both sides ran under, since peak RSS
depends on it.
The file is rewritten after every pair, so an interrupted run keeps what it
measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``; returns its record."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    record = os.path.join(checkout, ".bench_work", "results",
                          f"{workload}-seed{seed}-trace0.json")
    if done.returncode != 0 or not os.path.isfile(record):
        raise SystemExit(f"bench/run.py failed in {checkout} ({workload}, seed {seed}, "
                         f"exit {done.returncode}):\n{done.stderr[-2000:]}")
    with open(record, encoding="utf-8") as handle:
        return json.load(handle)


def numpy_simd() -> dict:
    """numpy's ``simd_extensions`` as ``numpy.show_runtime()`` reports them:
    the baseline, and the dispatch targets found and not found on this CPU
    (``NPY_DISABLE_CPU_FEATURES`` moves targets to ``not_found``).  numpy's
    ``power`` runs other code on another target, whose last bits may differ,
    so digests compare equal only between runs on the same targets."""
    from numpy._core._multiarray_umath import (
        __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
    return {"baseline": list(__cpu_baseline__),
            "found": [t for t in __cpu_dispatch__ if __cpu_features__[t]],
            "not_found": [t for t in __cpu_dispatch__ if not __cpu_features__[t]]}


def malloc_env() -> dict:
    """Every ``MALLOC_*`` variable of this process's environment, which each
    run inherits, or ``{}`` when none is set.  glibc's allocator reads its
    tunables from them: with ``MALLOC_MMAP_THRESHOLD_`` set the mmap
    threshold is fixed, without it the threshold moves with the run's
    allocation history, and peak RSS can step by a few MiB with it."""
    return {name: value for name, value in sorted(os.environ.items())
            if name.startswith("MALLOC_")}


def quartiles(values) -> list:
    if len(values) == 1:
        return [round(values[0], 6)] * 3
    return [round(q, 6) for q in statistics.quantiles(values, n=4, method="inclusive")]


def summarize(pairs: list, metrics: list) -> dict:
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        own = [p for p in pairs if p["workload"] == workload]
        entry = {"seeds": [p["seed"] for p in own], "n_pairs": len(own),
                 "digests_equal": all(p["parent"]["digests"] == p["change"]["digests"]
                                      for p in own)}
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            parent = [p["parent"]["end_to_end"][name] for p in own]
            change = [p["change"]["end_to_end"][name] for p in own]
            wins = sum(sign * (c - a) > 0 for a, c in zip(parent, change))
            low, mid, high = quartiles(parent)
            gain = sign * (statistics.median(change) - statistics.median(parent))
            entry[name] = {
                "change_better_pairs": wins,
                "median_change_vs_parent": round(
                    (statistics.median(change) - mid) / mid, 6) if mid else None,
                "parent_q1_median_q3": [low, mid, high],
                "change_q1_median_q3": quartiles(change),
                "gain_rule_met": wins >= 0.9 * len(own) and gain > high - low,
                "within_bound": gain >= -metric["bound"] * abs(statistics.median(parent)),
            }
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--what", default="", help="what the change does")
    parser.add_argument("--claim", default="none; no gain is claimed")
    args = parser.parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    specs = []
    for side in SIDES:
        with open(os.path.join(checkouts[side], "BENCHMARK.json"), encoding="utf-8") as handle:
            specs.append(json.load(handle))
    if specs[0] != specs[1]:
        parser.error("the two checkouts declare different benchmarks")
    spec = specs[0]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    document = {
        "what": args.what,
        "command": (f"python3 bench/run.py --workload <workload> --seed <seed> "
                    f"--seconds {args.seconds:g} --trace 0, run from a checkout of each side"),
        "pairing": ("each pair runs both sides back to back; 'first' says which side ran "
                    "first, alternating from pair to pair"),
        "quartiles": ("statistics.quantiles(n=4, method='inclusive') over the per-pair "
                      "end-to-end values (each a median of the run's commands, peak_rss_mb "
                      "the run's largest) of each side"),
        "claim": args.claim,
        "placement": (f"the parent ran from a directory named "
                      f"{os.path.basename(checkouts['parent'])} and the change from one "
                      f"named {os.path.basename(checkouts['change'])}"),
        "machine": None,
        "numpy_simd": numpy_simd(),
        "malloc_env": malloc_env(),
        "summary": {},
        "pairs": [],
    }
    for index, workload in enumerate(workloads):
        for k in range(args.pairs):
            seed = args.first_seed + 100 * index + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(checkouts[side], workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(pair[side]['end_to_end'])}", file=sys.stderr)
            document["machine"] = document["machine"] or pair["parent"]["machine"]
            document["pairs"].append(pair)
            document["summary"] = summarize(document["pairs"], spec["end_to_end"])
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=1)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
