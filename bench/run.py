#!/usr/bin/env python3
"""End-to-end benchmark of the sde-rtm command line.

Run from the root of a source checkout:

    python3 bench/run.py --workload converge_fhn_ref14 --seed 1 --seconds 30 --trace 0

Each CLI command runs in a fresh interpreter that imports the package from
``src/`` of the checkout, with a config generated from the workload and the
seed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
readable table, the machine record and the artefact digests go to standard
error and to ``.bench_work/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# the worker count every untraced command runs with (min(nproc, 4) is the
# program's own default; pinning it makes the figures independent of that)
THREADS = min(os.cpu_count() or 1, 4)
MIN_SAMPLES = 3
SETUP_REPS = 7              # at least this many set-up timings per run
DEADLINE_S = 170.0          # the whole run, including the traced extras

_CLI = ("import sys; from sde_rtm.cli import run_command; "
        "sys.exit(run_command(sys.argv[1:]))")
_SETUP = ("import sys; from sde_rtm import cli; "
          "config = cli.ExperimentConfig.from_mapping(cli.load_config(sys.argv[1])); "
          "config.validate(); config.build_problem(); config.scheme_kind()")
_ENV = ("import json, platform, numpy, sde_rtm; "
        "print(json.dumps({'python': platform.python_version(), "
        "'numpy': numpy.__version__, 'package': sde_rtm.__file__}))")


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict
    artefacts: tuple
    why: str

    @property
    def paths(self) -> int:
        return self.config["paths"]

    @property
    def path_steps(self) -> int:
        """Simulated (path, step) pairs, counted from the config."""
        levels = self.config["levels"]
        if self.command == "converge":
            steps = (1 << self.config["reference"]) + sum(1 << l for l in levels)
        elif self.command == "moments":
            steps = sum(1 << l for l in levels)
        else:
            steps = 1 << self.config["level"]
        return self.paths * steps


WORKLOADS = {
    "converge_fhn_ref14": Workload(
        "converge",
        {"problem": "fhn", "scheme": "randomized_tamed_milstein",
         "levels": [4, 5, 6, 7, 8, 9], "reference": 14, "p": 2.0, "paths": 512},
        ("converge.csv", "rate.txt", "convergence.svg"),
        "the shape of configs/fhn.json: the level-14 reference dominates, so "
        "step-kernel, block-width and streaming-driver changes show here"),
    "moments_fhn_paths": Workload(
        "moments",
        {"problem": "fhn", "scheme": "randomized_tamed_milstein",
         "levels": [8, 10, 12], "q": 4.0, "paths": 1024},
        ("moments.csv",),
        "same kernel with keep_path=True: whole paths cross the pool queue and "
        "are reduced in the parent, so per-block memory and IPC costs show here"),
    "simulate_gbm_wide": Workload(
        "simulate",
        {"problem": "gbm", "scheme": "tamed_milstein", "levels": [4], "level": 4,
         "paths": 50000},
        ("simulate.csv",),
        "16 steps per path: substream derivation, pool blocks and CSV "
        "formatting dominate and the step kernel barely matters"),
}

# short scheme ids keep the kernel-probe metric names within 64 characters
SCHEME_ABBREV = {
    "euler_maruyama": "em",
    "tamed_euler": "te",
    "tamed_milstein": "tm",
    "randomized_tamed_milstein": "rtm",
}


# --- child processes ---------------------------------------------------------


@dataclass
class Outcome:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: str


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["SDE_RTM_THREADS"] = str(threads)
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    return env


def _reap_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn(args: list, threads: int, log: str, deadline: float) -> Outcome:
    """Run ``python3 <args>`` in its own process group and measure it.

    Wall time runs from just before spawn to the return of ``wait4``; CPU
    time and peak RSS come from ``wait4`` and so include every worker the
    child forked and joined.  A child still running at the run deadline is
    killed with its workers and reported with code -9.
    """
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        return Outcome(-9, 0.0, 0.0, 0.0, log)
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    argv = [sys.executable, *args]
    pid = None

    def on_timeout(signum, frame):
        if pid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, on_timeout)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, child_env(threads),
                             file_actions=actions, setpgroup=0)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    _reap_group(pid)
    return Outcome(os.waitstatus_to_exitcode(status), wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, log)


def tail(path: str, lines: int = 5) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            return "".join(handle.readlines()[-lines:]).rstrip()
    except OSError:
        return ""


# --- correctness -------------------------------------------------------------


class CheckError(Exception):
    """A command's artefacts are missing, malformed or non-finite."""


def _csv_rows(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise CheckError(f"{os.path.basename(path)} is empty")
    rows = []
    for line in lines[1:]:
        try:
            values = [float(v) for v in line.split(",")]
        except ValueError:
            raise CheckError(
                f"{os.path.basename(path)}: non-numeric row {line!r}") from None
        if not all(math.isfinite(v) for v in values):
            raise CheckError(f"{os.path.basename(path)}: non-finite row {line!r}")
        rows.append(values)
    return rows


def check_outputs(workload: Workload, outdir: str) -> dict:
    """Check the artefacts of one command and return their sha256 digests."""
    config = workload.config
    digests = {}
    for name in workload.artefacts:
        path = os.path.join(outdir, name)
        if not os.path.isfile(path):
            raise CheckError(f"missing artefact {name}")
        with open(path, "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    if workload.command == "converge":
        rows = _csv_rows(os.path.join(outdir, "converge.csv"))
        if [int(r[0]) for r in rows] != config["levels"]:
            raise CheckError("converge.csv rows do not match the requested levels")
        with open(os.path.join(outdir, "rate.txt"), encoding="utf-8") as handle:
            fields = dict(line.split("=", 1) for line in handle.read().splitlines())
        if sorted(fields) != ["intercept", "r_squared", "slope"] \
                or not all(math.isfinite(float(v)) for v in fields.values()):
            raise CheckError("rate.txt is malformed or non-finite")
        with open(os.path.join(outdir, "convergence.svg"), encoding="utf-8") as handle:
            if handle.read().count('class="data-point"') != len(config["levels"]):
                raise CheckError("convergence.svg has the wrong number of points")
    elif workload.command == "moments":
        rows = _csv_rows(os.path.join(outdir, "moments.csv"))
        expected = [(l, t) for l in config["levels"] for t in range((1 << l) + 1)]
        if [(int(r[0]), int(r[1])) for r in rows] != expected:
            raise CheckError("moments.csv rows do not match the requested grids")
    else:
        rows = _csv_rows(os.path.join(outdir, "simulate.csv"))
        if [int(r[0]) for r in rows] != list(range(workload.paths)):
            raise CheckError("simulate.csv rows do not match the requested paths")
    return digests


# --- statistics --------------------------------------------------------------


def high_percentile(values: list):
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for per_mille in (500, 900, 990, 999):
        rank = -(-n * per_mille // 1000)        # ceil, in integers
        if n - rank >= 10:
            best = (per_mille / 10, ordered[rank - 1])
    return best


def interval_union_ns(intervals: list) -> int:
    covered, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            covered += hi - lo
            end = hi
        elif hi > end:
            covered += hi - end
            end = hi
    return covered


def layer_metrics(spans: list) -> dict:
    """Per-layer figures from one traced command.

    A span's self time is its duration minus the union of its child spans'
    intervals (children may run in forked workers and overlap) minus the
    leaf calls timed inside it (``noise`` draws and ``model`` coefficient
    evaluations, recorded as counters rather than one span per call).  Each
    ``share`` is a layer's self time over the self time of all spans plus
    all leaf calls, summed over the parent and its workers.
    """
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    leaf: dict = {}
    self_ns: dict = {}
    busy_ns = 0
    for span in spans:
        kids = children.get(span["id"], [])
        leaf_ns = 0
        for name, (calls, ns, units) in span["leaf"].items():
            acc = leaf.setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += ns
            acc[2] += units
            leaf_ns += ns
        own = span["end"] - span["start"] - interval_union_ns(
            [(k["start"], k["end"]) for k in kids])
        busy_ns += own
        self_ns[span["name"]] = self_ns.get(span["name"], 0) + own - leaf_ns

    def named(name):
        return [s for s in spans if s["name"] == name]

    def layer_self(prefix):
        return sum(ns for name, ns in self_ns.items() if name.startswith(prefix))

    busy = busy_ns or 1
    out = {}
    derive = leaf.get("noise.derive_substream", [0, 0, 0])
    out["noise.derive_substream.calls"] = derive[0]
    out["noise.derive_substream.ns_per_call"] = derive[1] / max(derive[0], 1)
    for key in ("sample_brownian_grid", "sample_randomization"):
        calls, ns, draws = leaf.get(f"noise.{key}", [0, 0, 0])
        out[f"noise.{key}.draws"] = draws
        out[f"noise.{key}.ns_per_draw"] = ns / max(draws, 1)
    noise_ns = sum(acc[1] for name, acc in leaf.items() if name.startswith("noise."))
    out["noise.share"] = noise_ns / busy

    batches = named("schemes.simulate_batch")
    path_steps = sum(s["attrs"]["paths"] * s["attrs"]["steps"] for s in batches)
    steps = sum(s["attrs"]["steps"] for s in batches)
    out["schemes.simulate_batch.calls"] = len(batches)
    out["schemes.simulate_batch.path_steps"] = path_steps
    out["schemes.simulate_batch.mean_batch_width"] = path_steps / max(steps, 1)
    out["schemes.simulate_batch.ns_per_path_step"] = (
        sum(s["end"] - s["start"] for s in batches) / max(path_steps, 1))
    out["schemes.simulate_batch.self_s"] = self_ns.get("schemes.simulate_batch", 0) / 1e9
    out["schemes.simulate_batch.share"] = self_ns.get("schemes.simulate_batch", 0) / busy

    calls, ns, _ = leaf.get("model.coeff", [0, 0, 0])
    out["model.coeff_calls"] = calls
    out["model.coeff_self_s"] = ns / 1e9
    out["model.share"] = ns / busy

    pools = named("analysis.pool")
    out["analysis.experiment_s"] = sum(
        s["end"] - s["start"] for s in named("analysis.experiment")) / 1e9
    out["analysis.self_s"] = layer_self("analysis.") / 1e9
    out["analysis.pool.blocks"] = sum(s["attrs"]["blocks"] for s in pools)
    out["analysis.pool.result_bytes"] = sum(s["attrs"]["result_bytes"] for s in pools)

    writes = named("cli.write")
    out["cli.write_s"] = sum(s["end"] - s["start"] for s in writes) / 1e9
    out["cli.bytes_written"] = sum(s["attrs"]["bytes"] for s in writes)
    out["cli.share"] = layer_self("cli.") / busy
    return out


# --- the run -----------------------------------------------------------------


def machine_record(env_info: dict) -> dict:
    llc = None
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache)):
            with open(os.path.join(cache, index, "level")) as handle:
                level = int(handle.read())
            with open(os.path.join(cache, index, "size")) as handle:
                size = handle.read().strip()
            if llc is None or level >= llc[0]:
                llc = (level, size)
    except OSError:
        pass
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "llc": None if llc is None else f"L{llc[0]} {llc[1]}",
        "python": env_info["python"],
        "numpy": env_info["numpy"],
        "SDE_RTM_THREADS": THREADS,
    }


class Run:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.deadline = time.perf_counter() + DEADLINE_S
        self.dir = os.path.join(WORK, f"run-{os.getpid()}")
        self.attempted = 0
        self.failures: list = []
        self.reference_digests = None
        self.config_path = os.path.join(self.dir, "config.json")
        self.outdir = os.path.join(self.dir, "out")
        os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
        os.makedirs(self.dir, exist_ok=True)
        config = dict(self.workload.config, master_seed=seed, outdir=self.outdir)
        with open(self.config_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle, indent=1)

    def fail(self, what: str, outcome: Outcome = None) -> None:
        detail = f"{what}" + (f"\n{tail(outcome.log)}" if outcome else "")
        self.failures.append(detail)
        print(f"FAILED: {detail}", file=sys.stderr)

    def command(self, threads: int, script=None) -> tuple:
        """One CLI command on a clean output directory; returns (outcome, digests)."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        args = list(script) if script else ["-c", _CLI]
        args += [self.workload.command, "--config", self.config_path]
        self.attempted += 1
        outcome = spawn(args, threads, os.path.join(self.dir, "command.log"),
                        self.deadline)
        if outcome.code != 0:
            self.fail(f"{self.workload.command} exited with {outcome.code}", outcome)
            return outcome, None
        try:
            digests = check_outputs(self.workload, self.outdir)
        except (CheckError, OSError, ValueError) as exc:
            self.fail(f"output check: {exc}")
            return outcome, None
        if self.reference_digests is None:
            self.reference_digests = digests
        elif digests != self.reference_digests:
            self.fail(f"artefact digests differ from the first run ({threads} workers)")
            return outcome, None
        return outcome, digests

    def setup_time(self):
        """Wall time of one set-up child, or None if it failed."""
        self.attempted += 1
        outcome = spawn(["-c", _SETUP, self.config_path], THREADS,
                        os.path.join(self.dir, "setup.log"), self.deadline)
        if outcome.code != 0:
            self.fail(f"set-up exited with {outcome.code}", outcome)
            return None
        return outcome.wall_s


def probe_environment(run: Run) -> dict:
    log = os.path.join(run.dir, "env.log")
    outcome = spawn(["-c", _ENV], THREADS, log, run.deadline)
    if outcome.code != 0:
        raise SystemExit(f"cannot import sde_rtm from {SRC}:\n{tail(log)}")
    with open(log, encoding="utf-8") as handle:
        info = json.loads(handle.read().splitlines()[-1])
    if not os.path.abspath(info["package"]).startswith(SRC + os.sep):
        raise SystemExit(f"sde_rtm resolved to {info['package']}, not to {SRC}")
    return info


def measure(run: Run, seconds: float) -> tuple:
    """Timed commands for ``seconds``, each followed by one set-up timing.

    One untimed command first fills the caches and fixes the reference
    digests.  Interleaving the set-up timings spreads them over the run, so
    their median sees the same machine state as the commands'.
    """
    run.command(THREADS)
    samples, setup = [], []
    started = time.perf_counter()
    while time.perf_counter() < run.deadline and (
            len(samples) < MIN_SAMPLES or len(setup) < SETUP_REPS
            or time.perf_counter() - started < seconds):
        if len(samples) < MIN_SAMPLES or time.perf_counter() - started < seconds:
            outcome, digests = run.command(THREADS)
            if digests is not None:
                samples.append(outcome)
        setup_s = run.setup_time()
        if setup_s is not None:
            setup.append(setup_s)
    return samples, setup


def traced_extras(run: Run, untraced_wall: float) -> dict:
    """Single-worker cross-check, traced command and kernel probe."""
    out = {}
    single, digests = run.command(1)
    if digests is not None:
        out["analysis.pool.speedup_vs_1_worker"] = single.wall_s / untraced_wall
    spans_path = os.path.join(run.dir, "spans.json")
    traced, digests = run.command(
        THREADS, script=[os.path.join(HERE, "trace_child.py"), spans_path,
                         f"{run.name}-{run.seed}"])
    if digests is not None:
        with open(spans_path, encoding="utf-8") as handle:
            trace = json.load(handle)
        out.update(layer_metrics(trace["spans"]))
        out["trace.spans"] = len(trace["spans"])
        out["trace.overhead_s"] = traced.wall_s - untraced_wall
    probe_path = os.path.join(run.dir, "kernel.json")
    run.attempted += 1
    outcome = spawn([os.path.join(HERE, "kernel_probe.py"), probe_path, str(run.seed)],
                    1, os.path.join(run.dir, "kernel.log"), run.deadline)
    if outcome.code != 0:
        run.fail(f"kernel probe exited with {outcome.code}", outcome)
    else:
        with open(probe_path, encoding="utf-8") as handle:
            for key, value in json.load(handle).items():
                scheme, problem, width = key.split("/")
                out[f"schemes.kernel.{SCHEME_ABBREV[scheme]}.{problem}.b{width}"
                    f".ns_per_path_step"] = value
    return out


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not os.path.isfile(os.path.join(SRC, "sde_rtm", "cli.py")):
        print(f"no sde_rtm sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    run = Run(args.workload, args.seed)
    try:
        machine = machine_record(probe_environment(run))
        samples, setup = measure(run, args.seconds)
        if not samples or not setup:
            print("no successful command; no metrics", file=sys.stderr)
            return 1
        walls = [s.wall_s for s in samples]
        wall = statistics.median(walls)
        workload = run.workload
        end_to_end = {
            "wall_s": wall,
            "paths_per_s": workload.paths / wall,
            "path_steps_per_s": workload.path_steps / wall,
            "cpu_s": statistics.median(s.cpu_s for s in samples),
            # RSS of moments_fhn_paths depends on how many block results wait
            # in the parent at once, which varies with scheduling; the run's
            # largest is steadier than its median and is what a user provisions
            "peak_rss_mb": max(s.peak_rss_mb for s in samples),
            "setup_s": statistics.median(setup),
        }
        per_layer = traced_extras(run, wall) if args.trace else {}
        failed = len(run.failures)
        end_to_end["ok_share"] = (run.attempted - failed) / run.attempted
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        values = per_layer if args.trace else end_to_end
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            run.fail(f"metrics not measured: {missing}")
            failed = len(run.failures)
        metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                   for m in wanted}
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine,
            "traced_workers": THREADS if args.trace else None,
            "digests": {f"numpy-{'.'.join(machine['numpy'].split('.')[:2])}":
                        run.reference_digests},
            "samples": {"wall_s": walls,
                        "cpu_s": [s.cpu_s for s in samples],
                        "peak_rss_mb": [s.peak_rss_mb for s in samples],
                        "setup_s": setup},
            "end_to_end": end_to_end, "per_layer": per_layer,
            "failed_share": failed / run.attempted,
            "failures": run.failures,
        }
        report(record, spec)
        results = os.path.join(WORK, "results")
        os.makedirs(results, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(results, name), "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report(record: dict, spec: dict) -> None:
    err = sys.stderr
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}", file=err)
    print(f"machine {json.dumps(record['machine'])}", file=err)
    print(f"digests {json.dumps(record['digests'])}", file=err)
    samples = record["samples"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in record["end_to_end"].items():
        line = f"  {name:<18} {value:>14.6g} {units.get(name, '')}"
        if name in samples:
            high = high_percentile(samples[name])
            line += f"   median of n={len(samples[name])}"
            line += (f", p{high[0]:g} {high[1]:.6g}" if high
                     else ", no percentile with >= 10 samples beyond it")
        print(line, file=err)
    print(f"  {'failed_share':<18} {record['failed_share']:>14.6g} ratio", file=err)
    for name, value in record["per_layer"].items():
        print(f"  {name:<52} {value:>14.6g} {units.get(name, '')}", file=err)


if __name__ == "__main__":
    sys.exit(main())
