import dataclasses
import importlib.util
import json
import os
import pathlib
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sde_rtm import analysis, cli, model
from sde_rtm.analysis import ErrorRow, ErrorTable, MomentTable, RateFit, fit_rate
from sde_rtm.cli import ConfigError, CsvReport, ExperimentConfig, render_svg, run_command
from sde_rtm.schemes import SchemeKind, TamingAuditRow
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


@pytest.mark.filterwarnings("error")
def test_converge_statistics_raise_no_numpy_warnings(tmp_path, capsys, monkeypatch):
    # explosive fhn under explicit Euler: level 4's error powers overflow in
    # the variance, which reports inf as the standard error and warns nothing
    monkeypatch.setenv("SDE_RTM_THREADS", "1")
    path, config = write_config(
        tmp_path, problem="fhn", problem_params={"sigma": 3.0, "i_amp": 60.0},
        scheme="euler_maruyama", levels=[4, 5, 6], reference=8, paths=64,
        master_seed=20260810)
    assert run_command(["converge", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""
    rows = read(os.path.join(config["outdir"], "converge.csv")).decode().splitlines()
    assert rows[1].split(",")[0] == "4" and rows[1].split(",")[-1] == "inf"


def test_converge_writes_its_table_before_the_fit_refuses_it(tmp_path, capsys,
                                                             monkeypatch):
    # explosive fhn under explicit Euler: level 3's mean error power
    # overflows, so the fit exits 2, but the table showing it is written
    monkeypatch.setenv("SDE_RTM_THREADS", "1")
    path, config = write_config(
        tmp_path, problem="fhn", problem_params={"sigma": 3.0, "i_amp": 60.0},
        scheme="euler_maruyama", levels=[3, 4, 6], reference=9, paths=10,
        master_seed=5)
    assert run_command(["converge", "--config", str(path)]) == 2
    assert "rate fitting needs finite positive errors" in capsys.readouterr().err
    rows = read(os.path.join(config["outdir"], "converge.csv")).decode().splitlines()
    assert rows[0] == "level,n,dt,lp_error,paths,p,stderr" and len(rows) == 4
    assert rows[1].split(",") == ["3", "8", "0.125", "inf", "4", "2", "inf"]
    assert sorted(os.listdir(config["outdir"])) == ["converge.csv"]


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


@pytest.mark.parametrize("value", ["abc", "1.5", "-1", "257", "100000"])
def test_bad_thread_count_exits_2_before_any_worker_starts(tmp_path, capsys,
                                                           monkeypatch, value):
    def no_pool(worker, count, threads):
        raise AssertionError(f"a pool of {threads} workers was started")

    monkeypatch.setattr(analysis, "_map_blocks", no_pool)
    monkeypatch.setenv("SDE_RTM_THREADS", value)
    path, _ = write_config(tmp_path)
    for command in ("converge", "simulate", "moments", "blowup"):
        assert run_command([command, "--config", str(path)]) == 2
        assert "SDE_RTM_THREADS" in capsys.readouterr().err


def test_config_round_trip(tmp_path):
    path, config = write_config(tmp_path)
    assert run_command(["converge", "--config", str(path)]) == 0
    first = read(os.path.join(config["outdir"], "converge.csv"))
    # serialize the validated config and rerun from the round-tripped file
    validated = ExperimentConfig.from_mapping(config)
    validated.validate()
    round_trip = tmp_path / "round_trip.json"
    redirected = {**dataclasses.asdict(validated), "outdir": str(tmp_path / "out3")}
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


# flag text and the JSON value it stands for, for every config key; a key
# added to ExperimentConfig without an entry here fails the test below
_FLAG_EXAMPLES = {
    "problem": [("gbm", "gbm")],
    "problem_params": [('{"sigma": 0.3}', {"sigma": 0.3})],
    "scheme": [("tamed_euler", "tamed_euler")],
    "levels": [("2,3", [2, 3])],
    "reference": [("exact", "exact"), ("9", 9)],
    "p": [("3.5", 3.5)],
    "q": [("6.5", 6.5)],
    "paths": [("7", 7)],
    "master_seed": [("99", 99)],
    "outdir": [("elsewhere", "elsewhere")],
    "level": [("3", 3)],
    "audit_n_values": [("8,32", [8, 32])],
    "audit_samples": [("11", 11)],
    "audit_radius": [("2.5", 2.5)],
}


def _capture_configs(monkeypatch):
    # the command's runner replaced by one that records the config it gets
    seen = []
    monkeypatch.setitem(cli._RUNNERS, "converge", seen.append)
    return seen


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ExperimentConfig)])
def test_every_flag_sets_its_config_key(tmp_path, monkeypatch, key):
    seen = _capture_configs(monkeypatch)
    assert key in _FLAG_EXAMPLES, f"no flag example for config key {key}"
    for text, value in _FLAG_EXAMPLES[key]:
        assert value != getattr(ExperimentConfig(), key)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: value}))
        flag = "--" + key.replace("_", "-")
        assert run_command(["converge", flag, text]) == 0
        assert run_command(["converge", "--config", str(path)]) == 0
        from_flag, from_file = seen[-2:]
        assert from_flag == from_file == ExperimentConfig.from_mapping({key: value})
        # a flag replaces the config file's value
        path.write_text(json.dumps({key: getattr(ExperimentConfig(), key)}))
        assert run_command(["converge", "--config", str(path), flag, text]) == 0
        assert seen[-1] == from_flag


@pytest.mark.parametrize("flag,text", [
    ("--paths", "x"), ("--p", "x"), ("--q", "1/2"), ("--levels", "a,b"),
    ("--reference", "1.5"), ("--level", "x"), ("--master-seed", "y"),
    ("--audit-n-values", "16;64"), ("--audit-samples", "2.0"),
    ("--audit-radius", "r"),
])
def test_bad_flag_text_exits_2_naming_the_flag(monkeypatch, capsys, flag, text):
    seen = _capture_configs(monkeypatch)
    assert run_command(["converge", flag, text]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag} ")
    assert not seen


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
    ({"p": 10 ** 400}, "p must"),
    ({"q": 10 ** 400}, "q must"),
    ({"audit_radius": 10 ** 400}, "audit_radius"),
    ({"problem_params": {"sigma": 10 ** 400}}, "problem_params"),
    ({"problem": "fhn", "problem_params": {"alpha": 1.0}}, "alpha"),
])
def test_config_validation_exits_2(tmp_path, capsys, overrides, fragment):
    path, _ = write_config(tmp_path, **overrides)
    assert run_command(["converge", "--config", str(path)]) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("where,document", [
    ("config", b"\xff\xfe{}"),      # not UTF-8
    ("config", b"[" * 100000),      # nested past the recursion limit
    ("problem_params", "[" * 100000),
])
def test_undecodable_json_exits_2(tmp_path, capsys, where, document):
    path, _ = write_config(tmp_path)
    argv = ["converge", "--config", str(path)]
    if where == "config":
        path.write_bytes(document)
    else:
        argv += ["--problem-params", document]
    assert run_command(argv) == 2
    assert "is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("document", ["null", "[1]", '"sigma"', "0.5"])
def test_problem_params_flag_must_be_an_object(tmp_path, capsys, document):
    # the flag replaces the whole object, as the config file's key does;
    # JSON null is a value like any other, not "no override"
    path, _ = write_config(tmp_path)
    for argv in (["--problem-params", document],
                 ["--config", str(path), "--problem-params", document]):
        assert run_command(["converge", *argv]) == 2
        assert "problem_params must be a JSON object" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    for path in (str(missing), ""):
        assert run_command(["converge", "--config", path]) == 2
        assert "cannot read config file" in capsys.readouterr().err


def test_reference_exact_requires_exact_solution(tmp_path, capsys):
    path, _ = write_config(tmp_path, problem="fhn", problem_params={},
                           scheme="randomized_tamed_milstein")
    assert run_command(["converge", "--config", str(path)]) == 2
    assert "exact" in capsys.readouterr().err


def test_exact_reference_rejected_before_workers_and_outdir(tmp_path, capsys,
                                                            monkeypatch):
    # the experiment owns the rule; it still fails before any pool or output
    def no_pool(worker, count, threads):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(analysis, "_map_blocks", no_pool)
    path, config = write_config(tmp_path, problem="fhn", problem_params={})
    assert run_command(["converge", "--config", str(path)]) == 2
    assert "no exact terminal" in capsys.readouterr().err
    assert not os.path.exists(config["outdir"])


def test_converge_needs_two_levels_before_it_runs(tmp_path, capsys, monkeypatch):
    # one level has no rate to fit: refused before a path is stepped
    def no_experiment(*args):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(analysis, "strong_error_experiment", no_experiment)
    path, config = write_config(tmp_path, levels=[4])
    assert run_command(["converge", "--config", str(path)]) == 2
    assert "levels" in capsys.readouterr().err
    assert not os.path.exists(config["outdir"])


@pytest.mark.parametrize("seed", ["424242", -1, 2 ** 64, True, 1.5, None])
def test_bad_master_seed_exits_2_in_every_command(tmp_path, capsys, monkeypatch,
                                                  seed):
    # SeedPolicy alone checks the seed, and every command builds one first
    def no_pool(worker, count, threads):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(analysis, "_map_blocks", no_pool)
    path, config = write_config(tmp_path, master_seed=seed)
    for command in ("converge", "simulate", "moments", "audit", "blowup"):
        assert run_command([command, "--config", str(path)]) == 2
        assert "master_seed" in capsys.readouterr().err
        assert not os.path.exists(config["outdir"])
    # the record's own check catches it too, through the seed's rule
    with pytest.raises(ConfigError, match="master_seed"):
        ExperimentConfig.from_mapping(config).validate()


@pytest.mark.parametrize("command,key,value", [
    ("simulate", "q", float("inf")),
    ("moments", "level", 63),
    ("audit", "paths", 2 ** 24 + 1),
    ("blowup", "audit_samples", 2 ** 32),
])
def test_every_command_checks_keys_it_does_not_read(tmp_path, capsys, monkeypatch,
                                                    command, key, value):
    def no_pool(worker, count, threads):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(analysis, "_map_blocks", no_pool)
    path, config = write_config(tmp_path, **{key: value})
    assert run_command([command, "--config", str(path)]) == 2
    assert key in capsys.readouterr().err
    assert not os.path.exists(config["outdir"])


def test_config_values_are_checked_by_the_library_rule(tmp_path, capsys,
                                                       monkeypatch):
    # the CLI holds no copy of the path bound: lowering the one the
    # experiments read rejects a path count the CLI would otherwise run
    monkeypatch.setattr(analysis, "_MAX_COUNT", 100, raising=False)
    path, _ = write_config(tmp_path, paths=101)
    assert run_command(["converge", "--config", str(path)]) == 2
    assert "paths" in capsys.readouterr().err


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


def test_help_names_every_config_key_and_its_default(capsys):
    assert run_command(["--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for f in dataclasses.fields(ExperimentConfig):
        default = json.dumps(getattr(ExperimentConfig(), f.name))
        assert f"--{f.name.replace('_', '-')}" in text
        assert f"config key {f.name} (default {default})" in text


_SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name[:-3], _SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script", ["run_audit.py", "run_blowup.py"])
def test_experiment_scripts_pass_real_flags(tmp_path, monkeypatch, script):
    # every argv a script would run parses, and every flag value reads
    module = _load_script(script)
    calls = []
    monkeypatch.setattr(module, "run_command", lambda argv: calls.append(argv) or 0)
    monkeypatch.setattr(sys, "argv", [script, str(tmp_path / "out")])
    assert module.main() == 0
    assert calls
    for argv in calls:
        flags = vars(cli._build_parser().parse_args(argv))
        assert flags.pop("command") in cli._RUNNERS
        assert flags.pop("config") is None
        mapping = {key: cli._flag_value(key, raw) for key, raw in flags.items()}
        ExperimentConfig.from_mapping(mapping).validate()


def test_convergence_script_reads_the_default_outdir(tmp_path, monkeypatch, capsys):
    # a config without "outdir" writes under the default one, where the
    # script then reads rate.txt
    module = _load_script("run_convergence.py")
    path = tmp_path / "config.json"
    path.write_text("{}")

    def fake_run(argv):
        outdir = pathlib.Path(ExperimentConfig().outdir)
        outdir.mkdir()
        (outdir / "rate.txt").write_text("slope=1\n")
        return 0

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(module, "run_command", fake_run)
    monkeypatch.setattr(sys, "argv", ["run_convergence.py", str(path)])
    assert module.main() == 0
    assert "slope=1" in capsys.readouterr().out


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
_HUGE_REAL = st.integers(2 ** 1024, 2 ** 1100)  # beyond the float range
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
    "p": _HUGE_REAL,
    "q": _HUGE_REAL,
    "audit_radius": _HUGE_REAL,
    "problem_params": st.dictionaries(st.sampled_from(["sigma", "beta", "x0"]),
                                      _HUGE_REAL, min_size=1, max_size=2),
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

def _format_value(value) -> str:
    # the per-value rule every CSV column follows: 17 significant digits for
    # a float, str for anything else
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _csv_formula(header, rows) -> bytes:
    return (",".join(header) + "\n" + "".join(
        ",".join(_format_value(v) for v in row) + "\n" for row in rows)).encode()


def test_csv_seventeen_significant_digits(tmp_path):
    report = CsvReport(("a", "b"), ((1.0 / 3.0, 7),))
    target = tmp_path / "report.csv"
    report.write(str(target))
    assert target.read_bytes() == b"a,b\n0.33333333333333331,7\n"


def _stub_terminals(monkeypatch, paths):
    """Replace the simulation by synthetic (paths, 2) terminals, which hold
    NaN, +-inf, -0.0, subnormal, tiny and huge values, and a mix of overflow
    steps; returns them."""
    rng = np.random.default_rng(paths)
    terminals = rng.standard_normal((paths, 2)) * 10.0 ** rng.integers(-320, 300, (paths, 2))
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-310,
               1.7976931348623157e308, 1.0 / 3.0]
    flat = terminals.reshape(-1)
    flat[::3] = np.resize(special, len(flat[::3]))
    overflow = rng.integers(-1, 64, paths)
    monkeypatch.setattr(analysis, "simulate_terminals",
                        lambda problem, kind, level, count, policy: (terminals, overflow))
    return terminals, overflow


@pytest.mark.parametrize("paths", [1, 4095, 4096, 4097, 8193])
def test_simulate_csv_matches_the_whole_table_formula(tmp_path, monkeypatch, paths):
    terminals, overflow = _stub_terminals(monkeypatch, paths)
    path, config = write_config(tmp_path, problem="fhn", problem_params={},
                                reference=9, paths=paths)
    assert run_command(["simulate", "--config", str(path)]) == 0
    # the formula the whole-table writer used: one Python row per path
    rows = ((i, *(float(v) for v in terminals[i]), int(overflow[i]))
            for i in range(paths))
    assert read(os.path.join(config["outdir"], "simulate.csv")) == _csv_formula(
        ("path", "x0", "x1", "overflow_step"), rows)


def test_simulate_csv_holds_one_block_of_rows(tmp_path, monkeypatch):
    # one 4096-row block of lines of up to about 60 bytes here, with its
    # Python objects, fits well within 2 MiB; the 50000 rows would not
    _stub_terminals(monkeypatch, 50000)
    path, config = write_config(tmp_path, problem="fhn", problem_params={},
                                reference=9, paths=50000)
    tracemalloc.start()
    try:
        assert run_command(["simulate", "--config", str(path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


def _stub_moment_table(levels, seed):
    """A table whose per-level arrays hold 0.0, subnormal, tiny, huge and inf
    moments among random ones, with non-zero overflow counts."""
    rng = np.random.default_rng(seed)
    special = [0.0, 5e-324, 1e-310, 1.0 / 3.0, 1.7976931348623157e308, np.inf]
    moments = {}
    for level in levels:
        size = (1 << level) + 1
        values = rng.standard_exponential(size) * 10.0 ** rng.integers(-320, 300, size)
        values[::2] = np.resize(special, len(values[::2]))
        moments[level] = values
    return MomentTable(moments, {level: seed + level for level in levels})


def test_moment_csvs_match_the_whole_table_formula(tmp_path, monkeypatch):
    levels = [2, 3, 5]
    table = _stub_moment_table(levels, 1)
    demo = {SchemeKind.EULER_MARUYAMA: _stub_moment_table(levels, 2),
            SchemeKind.TAMED_EULER: _stub_moment_table(levels, 3)}
    monkeypatch.setattr(analysis, "moment_experiment", lambda *args: table)
    monkeypatch.setattr(analysis, "blowup_demo", lambda *args: demo)
    path, config = write_config(tmp_path, levels=levels)
    for command, header, tables in (
        ("moments", ("level", "t_index", "moment_q", "overflows"), {(): table}),
        ("blowup", ("scheme", "level", "t_index", "moment_q", "overflows"),
         {(kind.value,): demo[kind] for kind in demo}),
    ):
        assert run_command([command, "--config", str(path)]) == 0
        # the formula the whole-table writer used: one Python row per grid point
        rows = ((*prefix, level, t, float(got.moments[level][t]), got.overflows[level])
                for prefix, got in tables.items() for level in levels
                for t in range((1 << level) + 1))
        assert read(os.path.join(config["outdir"], f"{command}.csv")) == _csv_formula(
            header, rows)


# floats whose text the per-value rule fixes: NaN, +-inf, -0.0, a subnormal,
# an np.float64 and the largest float, among ordinary ones
_SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, np.float64(1.0 / 3.0),
                   1.7976931348623157e308, 0.1, np.float64(-2.5e-300)]


def _special_moments(levels, overflows):
    # object arrays, so that .tolist() hands the writer each np.float64 as it is
    moments = {level: np.array(np.resize(np.array(_SPECIAL_FLOATS, dtype=object),
                                         (1 << level) + 1), dtype=object)
               for level in levels}
    return MomentTable(moments, dict(zip(levels, overflows)))


def _stub_converge(monkeypatch):
    rows = tuple(ErrorRow(level=i, n=bool(i % 2), dt=v, lp_error=np.float64(v),
                          paths=f"kept {i}", p=_SPECIAL_FLOATS[-1 - i], stderr=-0.0,
                          overflowed=i)
                 for i, v in enumerate(_SPECIAL_FLOATS))
    monkeypatch.setattr(analysis, "strong_error_experiment",
                        lambda *args: ErrorTable(rows, "exact", 2.0))
    monkeypatch.setattr(analysis, "fit_rate", lambda table: RateFit(1.0, 0.0, 1.0))
    monkeypatch.setattr(cli, "render_svg", lambda table, fit, path: None)
    return ("level", "n", "dt", "lp_error", "paths", "p", "stderr"), [
        (r.level, r.n, r.dt, r.lp_error, r.paths, r.p, r.stderr) for r in rows]


def _stub_simulate(monkeypatch):
    paths = 2 * len(_SPECIAL_FLOATS) + 1
    terminals = np.empty((paths, 2), dtype=object)
    terminals[:, 0] = np.resize(np.array(_SPECIAL_FLOATS, dtype=object), paths)
    terminals[:, 1] = [f"s{i}" for i in range(paths)]
    overflow = np.arange(paths) % 3 == 0
    monkeypatch.setattr(analysis, "simulate_terminals", lambda *args: (terminals, overflow))
    return ("path", "x0", "x1", "overflow_step"), [
        (i, *terminals[i], bool(overflow[i])) for i in range(paths)]


def _stub_moments(monkeypatch):
    table = _special_moments([2, 3], [True, "many"])
    monkeypatch.setattr(analysis, "moment_experiment", lambda *args: table)
    return ("level", "t_index", "moment_q", "overflows"), [
        (level, t, value, table.overflows[level])
        for level in (2, 3) for t, value in enumerate(table.moments[level])]


def _stub_blowup(monkeypatch):
    demo = {SchemeKind.EULER_MARUYAMA: _special_moments([2, 3], [False, 7]),
            SchemeKind.TAMED_EULER: _special_moments([2, 3], ["none", 0])}
    monkeypatch.setattr(analysis, "blowup_demo", lambda *args: demo)
    return ("scheme", "level", "t_index", "moment_q", "overflows"), [
        (kind.value, level, t, value, table.overflows[level])
        for kind, table in demo.items()
        for level in (2, 3) for t, value in enumerate(table.moments[level])]


def _stub_audit(monkeypatch):
    rows = tuple(TamingAuditRow(n=i % 2 == 0, max_drift_ratio=v,
                                growth_constant=np.float64(v), consistency_ratio=-0.0)
                 for i, v in enumerate(_SPECIAL_FLOATS))
    monkeypatch.setattr(cli.schemes, "audit_taming", lambda *args: rows)
    return ("n", "max_drift_ratio", "growth_constant", "consistency_ratio"), [
        (r.n, r.max_drift_ratio, r.growth_constant, r.consistency_ratio) for r in rows]


# a stub moment table holds NaN, which a real one never does; only the printed
# sup moment compares it
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("command,stub", [
    ("converge", _stub_converge), ("simulate", _stub_simulate),
    ("moments", _stub_moments), ("blowup", _stub_blowup), ("audit", _stub_audit),
])
def test_every_csv_writer_follows_the_per_value_rule(tmp_path, monkeypatch, capsys,
                                                     command, stub):
    header, rows = stub(monkeypatch)
    path, config = write_config(tmp_path, problem="fhn", problem_params={},
                                reference=9, levels=[2, 3], paths=len(rows))
    assert run_command([command, "--config", str(path)]) == 0, capsys.readouterr().err
    written = read(os.path.join(config["outdir"], f"{command}.csv"))
    assert written == _csv_formula(header, rows)
    for token in (b"nan", b"inf", b"-inf", b"-0,", b"4.9406564584124654e-324",
                  b"0.33333333333333331"):
        assert token in written


def test_csv_rows_may_be_lists_tuples_or_a_generator(tmp_path):
    header = ("f", "i", "s", "b", "g")
    rows = [[v, i, f"s{i}", i % 2 == 1, np.float64(v)]
            for i, v in enumerate(_SPECIAL_FLOATS)]
    target = tmp_path / "report.csv"
    for given in (rows, [tuple(row) for row in rows], (row for row in rows)):
        CsvReport(header, given).write(str(target))
        assert target.read_bytes() == _csv_formula(header, rows)


@pytest.mark.parametrize("rows", [(), [], iter(())])
def test_empty_csv_report_writes_only_its_header(tmp_path, rows):
    target = tmp_path / "report.csv"
    CsvReport(("a", "b"), rows).write(str(target))
    assert target.read_bytes() == b"a,b\n"


def test_csv_column_keeps_its_first_rows_format(tmp_path):
    # documented rule: a float first value makes the column %.17g, so a later
    # bool or int is written as a number; any other first value makes it
    # str, so a later float is written as its repr
    target = tmp_path / "report.csv"
    CsvReport(("a", "b"), [(0.5, "x"), (True, 0.1), (2 ** 60, 1.0 / 3.0)]).write(str(target))
    assert target.read_bytes() == (b"a,b\n0.5,x\n1,0.1\n"
                                   b"1.152921504606847e+18,0.3333333333333333\n")


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
