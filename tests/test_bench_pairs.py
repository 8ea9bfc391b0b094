"""The pair summary of ``scripts/bench_pairs.py`` on synthetic pairs.

``summarize`` states both rules a benchmark comparison is read by: the gain
rule (the change wins at least nine tenths of the pairs and its median gain
exceeds the parent's interquartile range) and the no-regression rule (the
change's median is worse than the parent's by at most the metric's bound,
relative to the parent's median).
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", HERE.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25},
           {"name": "paths_per_s", "better": "higher", "bound": 0.25}]


def summary(parent, change, name="wall_s"):
    """The summary entry of ``name`` for pairs of the given values; the
    other metric reads 1.0 on both sides."""
    other = next(m["name"] for m in METRICS if m["name"] != name)
    pairs = [{"workload": "w", "seed": seed,
              **{side: {"digests": {}, "end_to_end": {name: value, other: 1.0}}
                 for side, value in (("parent", a), ("change", c))}}
             for seed, (a, c) in enumerate(zip(parent, change))]
    return bench_pairs.summarize(pairs, METRICS)["w"][name]


PARENT = [1.0 + 0.01 * k for k in range(10)]  # median 1.045, IQR 0.045


def test_ties_count_for_neither_side():
    entry = summary(PARENT, PARENT[:5] + [a - 0.1 for a in PARENT[5:]])
    assert entry["change_better_pairs"] == 5
    assert summary(PARENT, PARENT)["change_better_pairs"] == 0


@pytest.mark.parametrize("name,wins", [("wall_s", 10), ("paths_per_s", 0)])
def test_the_better_direction_sets_the_sign(name, wins):
    # a smaller value wins a "lower" metric and loses a "higher" one
    entry = summary(PARENT, [a - 0.01 for a in PARENT], name)
    assert entry["change_better_pairs"] == wins


@pytest.mark.parametrize("losses,met", [(1, True), (2, False)])
def test_gain_rule_needs_nine_tenths_of_the_pairs(losses, met):
    # every win is 0.1 faster, so the median gain is about 0.1 > IQR 0.045
    wins = 10 - losses
    change = [a - 0.1 for a in PARENT[:wins]] + [a + 0.1 for a in PARENT[wins:]]
    entry = summary(PARENT, change)
    assert entry["change_better_pairs"] == wins
    assert entry["gain_rule_met"] is met
    assert entry["within_bound"]


@pytest.mark.parametrize("name,parent,change,within", [
    ("wall_s", 1.0, 1.2499, True),
    ("wall_s", 1.0, 1.2501, False),
    ("paths_per_s", 100.0, 75.01, True),
    ("paths_per_s", 100.0, 74.99, False),
])
def test_within_bound_holds_up_to_the_metric_bound(name, parent, change, within):
    entry = summary([parent] * 10, [change] * 10, name)
    assert entry["within_bound"] is within
    assert not entry["gain_rule_met"]


def _simd_in_child(disabled):
    # numpy_simd() as a fresh interpreter with these targets disabled sees it
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)}
    code = ("import importlib.util, json, sys; "
            "spec = importlib.util.spec_from_file_location('bp', sys.argv[1]); "
            "module = importlib.util.module_from_spec(spec); "
            "spec.loader.exec_module(module); print(json.dumps(module.numpy_simd()))")
    done = subprocess.run([sys.executable, "-c", code, _SPEC.origin], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_numpy_simd_names_the_targets_numpy_dispatches_to():
    # disabling every target found moves it to not_found, as numpy.show_runtime shows
    simd = bench_pairs.numpy_simd()
    assert simd["baseline"]
    assert _simd_in_child([]) == simd
    off = _simd_in_child(simd["found"])
    assert off["found"] == []
    assert sorted(off["not_found"]) == sorted(simd["found"] + simd["not_found"])


def _document(tmp_path, monkeypatch):
    # the document of one synthetic pair, with run_bench stubbed
    spec = {"workloads": [{"name": "w"}], "end_to_end": METRICS}
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    record = {"machine": {"nproc": 1}, "digests": {},
              "end_to_end": {"wall_s": 1.0, "paths_per_s": 1.0}}
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: record)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--out", str(out),
                             "--pairs", "1"]) == 0
    return json.loads(out.read_text())


def test_the_document_records_numpy_simd(tmp_path, monkeypatch):
    assert _document(tmp_path, monkeypatch)["numpy_simd"] == bench_pairs.numpy_simd()


@pytest.mark.parametrize("env,want", [
    ({}, {}),
    ({"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_ARENA_MAX": "2", "OTHER": "1"},
     {"MALLOC_ARENA_MAX": "2", "MALLOC_MMAP_THRESHOLD_": "131072"}),
])
def test_the_document_records_the_allocator_regime(tmp_path, monkeypatch, env, want):
    # every MALLOC_* variable the runs inherit, and only those; {} when none is
    # set, so a record says which of the two peak-RSS regimes it measured
    for name in list(os.environ):
        if name.startswith("MALLOC_"):
            monkeypatch.delenv(name)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert _document(tmp_path, monkeypatch)["malloc_env"] == want
