import json
import os
import tempfile
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sde_rtm import analysis, model
from sde_rtm.analysis import ErrorRow, ErrorTable, RateFit, fit_rate
from sde_rtm.cli import CsvReport, ExperimentConfig, render_svg, run_command
from tests.conftest import make_zero_problem


def write_config(tmp_path, **overrides):
    config = {
        "problem": "gbm",
        "problem_params": {"a": 0.5, "sigma": 0.5, "x0": 1.0},
        "scheme": "tamed_milstein",
        "levels": [3, 4, 5],
        "reference": "exact",
        "p": 2.0,
        "paths": 60,
        "master_seed": 424242,
        "outdir": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path, config


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


# --- converge ----------------------------------------------------------------

def test_converge_outputs(tmp_path, capsys):
    path, config = write_config(tmp_path)
    assert run_command(["converge", "--config", str(path)]) == 0
    outdir = config["outdir"]
    csv_lines = read(os.path.join(outdir, "converge.csv")).decode().splitlines()
    assert csv_lines[0] == "level,n,dt,lp_error,paths,p,stderr"
    assert len(csv_lines) == 4
    rate_lines = read(os.path.join(outdir, "rate.txt")).decode().splitlines()
    assert [line.split("=")[0] for line in rate_lines] == [
        "slope", "intercept", "r_squared"
    ]
    slope = float(rate_lines[0].split("=")[1])
    assert 0.5 <= slope <= 1.5
    tree = ET.parse(os.path.join(outdir, "convergence.svg"))
    circles = [e for e in tree.iter() if e.tag.endswith("circle")]
    assert len(circles) == 3
    assert all(e.get("class") == "data-point" for e in circles)
    out = capsys.readouterr().out
    assert "slope" in out


def test_converge_determinism_across_worker_counts(tmp_path, monkeypatch):
    path, config = write_config(tmp_path)
    monkeypatch.setenv("SDE_RTM_THREADS", "1")
    assert run_command(["converge", "--config", str(path)]) == 0
    first = {
        name: read(os.path.join(config["outdir"], name))
        for name in ("converge.csv", "rate.txt", "convergence.svg")
    }
    monkeypatch.setenv("SDE_RTM_THREADS", "4")
    other_out = str(tmp_path / "out2")
    assert run_command(
        ["converge", "--config", str(path), "--outdir", other_out]
    ) == 0
    for name, payload in first.items():
        assert read(os.path.join(other_out, name)) == payload


def test_config_round_trip(tmp_path):
    path, config = write_config(tmp_path)
    assert run_command(["converge", "--config", str(path)]) == 0
    first = read(os.path.join(config["outdir"], "converge.csv"))
    # serialize the validated config and rerun from the round-tripped file
    validated = ExperimentConfig.from_mapping(config)
    validated.validate()
    round_trip = tmp_path / "round_trip.json"
    redirected = {**validated.to_dict(), "outdir": str(tmp_path / "out3")}
    round_trip.write_text(json.dumps(redirected))
    assert run_command(["converge", "--config", str(round_trip)]) == 0
    assert read(os.path.join(str(tmp_path / "out3"), "converge.csv")) == first


def test_cli_overrides_apply(tmp_path):
    path, config = write_config(tmp_path)
    assert run_command(
        ["converge", "--config", str(path), "--paths", "30", "--levels", "3,4"]
    ) == 0
    lines = read(os.path.join(config["outdir"], "converge.csv")).decode().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[4] == "30"


# --- validation and exit codes ------------------------------------------------

@pytest.mark.parametrize("overrides,fragment", [
    ({"levels": [5, 4]}, "increasing"),
    ({"levels": []}, "levels"),
    ({"problem": "unknown"}, "problem"),
    ({"scheme": "implicit_euler"}, "scheme"),
    ({"reference": 4}, "reference"),
    ({"paths": 0}, "paths"),
    ({"p": 0.5}, "p must"),
    ({"unknown_key": 1}, "unknown"),
    ({"problem_params": {"sigma": -1.0}}, "sigma"),
    ({"paths": "10"}, "paths"),
    ({"paths": 1.5}, "paths"),
    ({"paths": True}, "paths"),
    ({"p": "2"}, "p must"),
    ({"p": float("nan")}, "p must"),
    ({"q": float("inf")}, "q must"),
    ({"levels": [True, 2]}, "levels"),
    ({"reference": True, "levels": [0]}, "reference"),
    ({"master_seed": "424242"}, "master_seed"),
    ({"problem": ["gbm"]}, "problem"),
    ({"outdir": 7}, "outdir"),
    ({"audit_radius": float("nan")}, "audit_radius"),
    ({"problem_params": {"sigma": "0.5"}}, "problem_params"),
    ({"problem_params": {"sigma": float("nan")}}, "problem_params"),
    ({"levels": [63], "reference": "exact"}, "levels"),
    ({"levels": [3, 2 ** 70], "reference": "exact"}, "levels"),
    ({"reference": 63}, "reference"),
    ({"reference": 10 ** 30}, "reference"),
    ({"level": 63}, "level must"),
    ({"paths": 2 ** 24 + 1}, "paths"),
    ({"paths": 2 ** 70}, "paths"),
    ({"audit_samples": 2 ** 32}, "audit_samples"),
    ({"audit_n_values": [16, 2 ** 70]}, "audit_n_values"),
])
def test_config_validation_exits_2(tmp_path, capsys, overrides, fragment):
    path, _ = write_config(tmp_path, **overrides)
    assert run_command(["converge", "--config", str(path)]) == 2
    assert fragment in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_command(["converge", "--config", str(missing)]) == 2
    assert "config" in capsys.readouterr().err


def test_reference_exact_requires_exact_solution(tmp_path, capsys):
    path, _ = write_config(tmp_path, problem="fhn", problem_params={},
                           scheme="randomized_tamed_milstein")
    assert run_command(["converge", "--config", str(path)]) == 2
    assert "exact" in capsys.readouterr().err


def test_unsupported_structure_exits_3(tmp_path, capsys, monkeypatch):
    def make_general(**params):
        problem = make_zero_problem(d=2, m=2)
        import dataclasses

        return dataclasses.replace(problem,
                                   noise_structure=model.NoiseStructure.GENERAL)

    monkeypatch.setitem(model.BUILTIN_FACTORIES, "general_test", make_general)
    path, _ = write_config(tmp_path, problem="general_test", problem_params={},
                           scheme="tamed_milstein", reference=8)
    assert run_command(["converge", "--config", str(path)]) == 3
    assert "noise" in capsys.readouterr().err


def test_unwritable_outdir_exits_1(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    path, _ = write_config(tmp_path, outdir=str(blocker))
    assert run_command(["converge", "--config", str(path)]) == 1


def test_bad_flags_exit_2(capsys):
    assert run_command(["frobnicate"]) == 2
    assert run_command([]) == 2


# Any JSON object as a config: small valid values (a few paths on coarse
# levels, so every command finishes quickly), with up to two keys replaced
# by wrong types, negatives, NaN-like strings or values above the accepted
# range.  Out-of-range values are drawn per key and always lie above the
# bound, so no drawn config starts a long run.
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, -1), st.floats(allow_nan=True),
    st.sampled_from(["", "nan", "NaN", "inf", "-1", "exact", "1e309"]),
    st.lists(st.integers(-2, 2), max_size=2), st.just({}),
)
_HUGE_LEVEL = st.integers(63, 2 ** 70)
_HUGE_COUNT = st.integers(2 ** 24 + 1, 2 ** 70)
_TOO_LARGE = {
    "levels": st.lists(st.one_of(st.integers(0, 6), _HUGE_LEVEL, _JUNK),
                       max_size=3),
    "reference": _HUGE_LEVEL,
    "level": _HUGE_LEVEL,
    "paths": _HUGE_COUNT,
    "audit_samples": _HUGE_COUNT,
    "audit_n_values": st.lists(st.one_of(st.integers(1, 64),
                                         st.integers(2 ** 62 + 1, 2 ** 70)),
                               min_size=1, max_size=3),
}
_VALID = {
    "problem": st.sampled_from(["fhn", "gbm", "rough_drift"]),
    "problem_params": st.fixed_dictionaries({}, optional={
        "sigma": st.floats(0.0, 1.0), "beta": st.floats(0.1, 1.0),
        "x0": st.floats(-2.0, 2.0),
    }),
    "scheme": st.sampled_from(
        ["euler_maruyama", "tamed_euler", "tamed_milstein",
         "randomized_tamed_milstein"]),
    "levels": st.lists(st.integers(0, 6), min_size=1, max_size=3,
                       unique=True).map(sorted),
    "reference": st.one_of(st.integers(7, 8), st.just("exact")),
    "level": st.one_of(st.none(), st.integers(0, 6)),
    "paths": st.integers(1, 4),
    "p": st.floats(1.0, 4.0),
    "q": st.floats(2.0, 6.0),
    "master_seed": st.integers(0, 2 ** 64 - 1),
    "audit_n_values": st.lists(st.integers(1, 64), min_size=1, max_size=3),
    "audit_samples": st.integers(1, 8),
    "audit_radius": st.floats(0.1, 5.0),
}
_REQUIRED = ("levels", "reference", "level", "paths")  # the defaults are slow


@st.composite
def _any_config(draw):
    config = draw(st.fixed_dictionaries(
        {key: _VALID[key] for key in _REQUIRED},
        optional={key: value for key, value in _VALID.items() if key not in _REQUIRED},
    ))
    for key in draw(st.lists(st.sampled_from(sorted(_VALID) + ["unknown_key"]),
                             max_size=2, unique=True)):
        config[key] = draw(st.one_of(_JUNK, _TOO_LARGE.get(key, _JUNK)))
    return config


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["converge", "simulate", "moments", "audit", "blowup"]),
       config=_any_config())
def test_any_json_config_exits_cleanly(command, config):
    with tempfile.TemporaryDirectory() as tmp:
        config = {**config, "outdir": os.path.join(tmp, "out")}
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        assert run_command([command, "--config", path]) in (0, 2, 3)


# --- other commands ----------------------------------------------------------

def test_simulate_constant_problem(tmp_path):
    path, config = write_config(
        tmp_path, problem_params={"a": 0.0, "sigma": 0.0, "x0": 1.0},
        paths=7, level=4,
    )
    assert run_command(["simulate", "--config", str(path)]) == 0
    lines = read(os.path.join(config["outdir"], "simulate.csv")).decode().splitlines()
    assert lines[0] == "path,x0,overflow_step"
    assert len(lines) == 8
    for index, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert fields == [str(index), "1", "-1"]


def test_moments_output(tmp_path):
    path, config = write_config(tmp_path, problem="fhn", problem_params={},
                                scheme="randomized_tamed_milstein",
                                levels=[2, 3], reference=6, paths=20, q=4.0)
    assert run_command(["moments", "--config", str(path)]) == 0
    lines = read(os.path.join(config["outdir"], "moments.csv")).decode().splitlines()
    assert lines[0] == "level,t_index,moment_q,overflows"
    assert len(lines) == 1 + 5 + 9


def test_audit_output(tmp_path):
    path, config = write_config(tmp_path, problem="fhn", problem_params={})
    assert run_command(
        ["audit", "--config", str(path), "--audit-n-values", "8,32",
         "--audit-samples", "40"]
    ) == 0
    lines = read(os.path.join(config["outdir"], "audit.csv")).decode().splitlines()
    assert lines[0] == "n,max_drift_ratio,growth_constant,consistency_ratio"
    assert len(lines) == 3
    for line in lines[1:]:
        ratio = float(line.split(",")[1])
        assert ratio <= 1.0 + 1e-12


def test_blowup_output(tmp_path):
    path, config = write_config(tmp_path, levels=[3], reference=6, paths=25)
    assert run_command(["blowup", "--config", str(path)]) == 0
    lines = read(os.path.join(config["outdir"], "blowup.csv")).decode().splitlines()
    assert lines[0] == "scheme,level,t_index,moment_q,overflows"
    schemes_seen = {line.split(",")[0] for line in lines[1:]}
    assert schemes_seen == {"euler_maruyama", "tamed_euler"}


# --- CSV / SVG units ----------------------------------------------------------

def test_csv_seventeen_significant_digits(tmp_path):
    report = CsvReport(("a", "b"), ((1.0 / 3.0, 7),))
    target = tmp_path / "report.csv"
    report.write(str(target))
    assert target.read_bytes() == b"a,b\n0.33333333333333331,7\n"


def synthetic_table():
    rows = tuple(
        ErrorRow(level=l, n=2 ** l, dt=2.0 ** -l, lp_error=0.5 * 2.0 ** -l,
                 paths=10, p=2.0, stderr=0.0, overflowed=0)
        for l in (2, 3, 4)
    )
    return ErrorTable(rows, "exact", 2.0)


def test_render_svg_contract(tmp_path):
    table = synthetic_table()
    fit = fit_rate(table)
    target = tmp_path / "plot.svg"
    render_svg(table, fit, str(target))
    tree = ET.parse(str(target))
    circles = [e for e in tree.iter() if e.tag.endswith("circle")]
    assert len(circles) == 3
    labels = [e for e in tree.iter()
              if e.tag.endswith("text") and e.get("class") == "fit-label"]
    assert len(labels) == 1
    assert float(labels[0].get("data-slope")) == pytest.approx(fit.slope,
                                                               rel=1e-15)


def test_render_svg_empty_table_raises(tmp_path):
    target = tmp_path / "plot.svg"
    with pytest.raises(ValueError):
        render_svg(ErrorTable((), "exact", 2.0), RateFit(1.0, 0.0, 1.0),
                   str(target))
    assert not target.exists()


def test_svg_annotation_matches_rate_file(tmp_path):
    path, config = write_config(tmp_path)
    assert run_command(["converge", "--config", str(path)]) == 0
    rate_lines = read(os.path.join(config["outdir"], "rate.txt")).decode().splitlines()
    slope_txt = rate_lines[0].split("=")[1]
    tree = ET.parse(os.path.join(config["outdir"], "convergence.svg"))
    label = next(e for e in tree.iter()
                 if e.tag.endswith("text") and e.get("class") == "fit-label")
    assert label.get("data-slope") == slope_txt
