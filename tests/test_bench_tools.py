"""The benchmark's tracing and probing tools still run against the package.

``bench/trace_child.py`` and ``bench/kernel_probe.py`` reach into the
package by name (experiment functions, the three-argument ``_map_blocks``,
the ``noise`` samplers, ``simulate_batch``), so a change that breaks them
fails here and not only in a traced benchmark run.  Each tool runs in a
fresh interpreter that imports the package from ``src/``.
"""

import json
import math
import os
import subprocess
import sys

import pytest

from tests.conftest import src_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")

# one tiny config per traced command; 8 paths over 2 workers make two slabs,
# so the traced pool forks
_TINY = {
    "converge": {"problem": "gbm", "scheme": "tamed_milstein", "levels": [2, 3],
                 "reference": 5, "paths": 8},
    "moments": {"problem": "fhn", "scheme": "randomized_tamed_milstein",
                "levels": [2, 3], "reference": 5, "paths": 8},
    "simulate": {"problem": "gbm", "scheme": "tamed_milstein", "levels": [3],
                 "reference": 5, "paths": 8},
}


def _run(args, workers):
    return subprocess.run([sys.executable, *args],
                          env=src_env(SDE_RTM_THREADS=str(workers)),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command", sorted(_TINY))
def test_trace_child_records_forked_pool_spans(tmp_path, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**_TINY[command], "master_seed": 3,
                                  "outdir": str(tmp_path / "out")}))
    spans_path = tmp_path / "spans.json"
    done = _run([os.path.join(BENCH, "trace_child.py"), str(spans_path), "tiny",
                 command, "--config", str(config)], workers=2)
    assert done.returncode == 0, done.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    names = {span["name"] for span in spans}
    assert {"cli.run", "analysis.experiment", "analysis.pool"} <= names
    # the blocks ran in forked workers and their spans came back
    parent = next(s for s in spans if s["name"] == "cli.run")["id"].split(".")[0]
    blocks = [s for s in spans if s["name"] == "analysis.block"]
    assert blocks and all(s["id"].split(".")[0] != parent for s in blocks)


def test_kernel_probe_times_every_scheme_problem_and_width(tmp_path):
    out = tmp_path / "kernel.json"
    done = _run([os.path.join(BENCH, "kernel_probe.py"), str(out), "1"], workers=1)
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())
    schemes = ("euler_maruyama", "tamed_euler", "tamed_milstein",
               "randomized_tamed_milstein")
    assert set(result) == {f"{scheme}/{problem}/{width}" for scheme in schemes
                           for problem in ("fhn", "gbm") for width in (256, 4096)}
    assert all(math.isfinite(value) and value > 0 for value in result.values())
