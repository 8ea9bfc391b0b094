"""The pair summary of ``scripts/bench_pairs.py`` on synthetic pairs.

``summarize`` states both rules a benchmark comparison is read by: the gain
rule (the change wins at least nine tenths of the pairs and its median gain
exceeds the parent's interquartile range) and the no-regression rule (the
change's median is worse than the parent's by at most the metric's bound,
relative to the parent's median).
"""

import importlib.util
import pathlib

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
