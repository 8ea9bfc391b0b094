"""Run one sde-rtm CLI command with spans around calls into each module.

    python3 bench/trace_child.py SPANS_JSON RUN_ID COMMAND [CLI ARGS...]

Nothing under ``src/`` changes: the public functions the CLI reaches are
replaced, from outside, by timing wrappers before ``cli.run_command`` runs.

* ``cli``: the whole command (``cli.run``) and each artefact write
  (``cli.write``, around ``CsvReport.write`` and ``render_svg``).
* ``analysis``: each experiment (``analysis.experiment``), its block pool
  (``analysis.pool``) and every block (``analysis.block``).
* ``schemes``: each ``simulate_batch`` call, with its width and step count.
* ``noise`` and ``model``: calls too fine-grained for one span each, so each
  is a counter (calls, ns, units of work) on the innermost open span:
  substream derivations, Gaussian and uniform draws, and every coefficient
  callable of the problem ``model.make_builtin`` returns, including both
  ``TamingSplit`` summands.

Blocks run in forked workers; each block returns the spans its worker
recorded alongside its result, and the pool wrapper strips them off again,
so the trace holds the spans of every process.  Spans stay in memory until
the command ends and are then written to SPANS_JSON.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import sys
from time import perf_counter_ns

from sde_rtm import analysis, cli, model, noise, schemes


class Tracer:
    """In-memory spans of one process (and, after fork, of its copy)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []       # closed spans, in closing order
        self._open: list = []
        self._count = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        self._count += 1
        record = {
            "id": f"{os.getpid()}.{self._count}",
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "run": self.run_id,
            "start": perf_counter_ns(),
            "end": None,
            "attrs": attrs,
            "leaf": {},
        }
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter_ns()
            self._open.pop()
            self.spans.append(record)

    def count(self, name: str, ns: int, units: int) -> None:
        acc = self._open[-1]["leaf"].setdefault(name, [0, 0, 0])
        acc[0] += 1
        acc[1] += ns
        acc[2] += units


def counted(tracer: Tracer, name: str, fn, units=lambda out: 0):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter_ns()
        out = fn(*args, **kwargs)
        tracer.count(name, perf_counter_ns() - start, units(out))
        return out
    return wrapper


def spanned(tracer: Tracer, name: str, fn, attrs=lambda args, out: {}):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as record:
            out = fn(*args, **kwargs)
            record["attrs"].update(attrs(args, out))
        return out
    return wrapper


def install(tracer: Tracer) -> None:
    derive = counted(tracer, "noise.derive_substream", noise.derive_substream)
    grid = counted(tracer, "noise.sample_brownian_grid", noise.sample_brownian_grid,
                   lambda out: out.increments.size)
    uniforms = counted(tracer, "noise.sample_randomization", noise.sample_randomization,
                       lambda out: out.uniforms.size)
    batch = spanned(tracer, "schemes.simulate_batch", schemes.simulate_batch,
                    lambda args, out: {"paths": args[2].shape[0],
                                       "steps": args[2].shape[1]})
    # analysis imported these by name, so its own bindings are the ones to replace
    for module in (noise, analysis):
        module.derive_substream = derive
        module.sample_brownian_grid = grid
        module.sample_randomization = uniforms
    for module in (schemes, analysis):
        module.simulate_batch = batch
    for name in ("strong_error_experiment", "moment_experiment", "simulate_terminals"):
        setattr(analysis, name, spanned(tracer, "analysis.experiment",
                                        getattr(analysis, name)))
    analysis._map_blocks = traced_pool(tracer, analysis._map_blocks)
    model.make_builtin = traced_problems(tracer, model.make_builtin)
    written = lambda args, out: {"bytes": os.path.getsize(args[-1])}
    cli.CsvReport.write = spanned(tracer, "cli.write", cli.CsvReport.write, written)
    cli.render_svg = spanned(tracer, "cli.write", cli.render_svg, written)


def traced_pool(tracer: Tracer, map_blocks):
    def wrapper(worker, count, threads):
        parent = os.getpid()

        def block(start, stop):
            mark = len(tracer.spans)
            with tracer.span("analysis.block", paths=stop - start):
                result = worker(start, stop)
            return result, tracer.spans[mark:] if os.getpid() != parent else []

        with tracer.span("analysis.pool", paths=count, workers=threads) as record:
            results = []
            for result, spans in map_blocks(block, count, threads):
                tracer.spans.extend(spans)
                results.append(result)
            record["attrs"]["blocks"] = len(results)
            record["attrs"]["result_bytes"] = sum(a.nbytes for r in results for a in r)
        return results
    return wrapper


def traced_problems(tracer: Tracer, make_builtin):
    def wrap(fn):
        return None if fn is None else counted(tracer, "model.coeff", fn)

    @functools.wraps(make_builtin)
    def wrapper(*args, **kwargs):
        problem = make_builtin(*args, **kwargs)
        split = problem.taming_split
        if split is not None:
            split = dataclasses.replace(split, superlinear=wrap(split.superlinear),
                                        remainder=wrap(split.remainder))
        return dataclasses.replace(
            problem, drift=wrap(problem.drift), diffusion=wrap(problem.diffusion),
            milstein_tensor=wrap(problem.milstein_tensor),
            exact_terminal=wrap(problem.exact_terminal), taming_split=split)
    return wrapper


def main() -> int:
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(run_id)
    install(tracer)
    with tracer.span("cli.run", command=argv[0] if argv else None):
        code = cli.run_command(argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"run": run_id, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
