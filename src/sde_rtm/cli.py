"""Command-line front end.

Subcommands: ``converge`` (strong-error table, fitted rate and a log-log
SVG plot), ``simulate`` (per-path terminal states), ``moments`` (per-grid
moment table), ``audit`` (taming diagnostics) and ``blowup`` (untamed vs
tamed Euler moment contrast).

A JSON config document supplies the experiment record; every key has a
CLI override.  All outputs (CSV with 17-significant-digit numerics,
``rate.txt``, SVG) are byte-identical across reruns of the same config,
regardless of the ``SDE_RTM_THREADS`` worker count.

Exit codes: 0 success, 1 output I/O failure, 2 config validation failure,
3 unsupported noise structure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Iterable

from . import analysis, model, noise, schemes

__all__ = ["ExperimentConfig", "ConfigError", "CsvReport", "render_svg",
           "run_command", "main"]


class ConfigError(ValueError):
    """The experiment configuration failed validation."""


_SCHEME_IDS = {kind.value: kind for kind in schemes.SchemeKind}


def _check_key(key: str, rule, /, *args, **kwargs):
    # the rule's error as a config error about ``key``; "/" frees every kwarg name
    try:
        return rule(*args, **kwargs)
    except model.InvalidParameterError as exc:
        raise ConfigError(f"{key}: {exc}") from None


@dataclass
class ExperimentConfig:
    """Validated experiment record; one JSON document, one experiment."""

    problem: str = "fhn"
    problem_params: dict = field(default_factory=dict)
    scheme: str = "randomized_tamed_milstein"
    levels: list = field(default_factory=lambda: [4, 5, 6, 7, 8, 9])
    reference: object = 14          # dyadic level or the string "exact"
    p: float = 2.0
    q: float = 4.0
    paths: int = 2000
    master_seed: int = 12345
    outdir: str = "out"
    level: object = None            # simulate-only; defaults to max(levels)
    audit_n_values: list = field(default_factory=lambda: [16, 64, 256, 1024])
    audit_samples: int = 200
    audit_radius: float = 5.0

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**mapping)

    def validate(self):
        """Check the document's own rules, then every value by the rule of the
        module that consumes it, also where the command does not read it.

        Returns the runtime objects the record describes:
        ``(problem, kind, policy)``.
        """
        if not isinstance(self.problem, str) or self.problem not in model.BUILTIN_FACTORIES:
            raise ConfigError(
                f"unknown problem id {self.problem!r}; "
                f"known: {sorted(set(model.BUILTIN_FACTORIES))}"
            )
        if not isinstance(self.scheme, str) or self.scheme not in _SCHEME_IDS:
            raise ConfigError(
                f"unknown scheme {self.scheme!r}; known: {sorted(_SCHEME_IDS)}"
            )
        if not isinstance(self.problem_params, dict):
            raise ConfigError("problem_params must be a JSON object")
        if not isinstance(self.outdir, str):
            raise ConfigError("outdir must be a string")
        problem = self.build_problem()
        levels = _check_key("levels", analysis._check_levels, self.levels)
        if list(self.levels) != levels:
            raise ConfigError("levels must be strictly increasing")
        _check_key("reference", analysis._check_reference, self.reference, levels)
        if self.level is not None:
            _check_key("level", analysis._check_level, self.level)
        _check_key("paths", analysis._check_paths, self.paths)
        _check_key("p", analysis._check_p, self.p)
        _check_key("q", analysis._check_q, self.q)
        _check_key("audit_n_values", schemes._check_n_values, self.audit_n_values)
        _check_key("audit_samples", schemes._check_sample_count, self.audit_samples)
        _check_key("audit_radius", schemes._check_radius, self.audit_radius)
        policy = _check_key("master_seed", noise.SeedPolicy, self.master_seed)
        return problem, self.scheme_kind(), policy

    def build_problem(self) -> model.SdeProblem:
        return _check_key("problem_params", model.make_builtin, self.problem,
                          **self.problem_params)

    def scheme_kind(self) -> schemes.SchemeKind:
        return _SCHEME_IDS[self.scheme]


# rows formatted and written at a time; the output never depends on it
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class CsvReport:
    """A CSV artifact: header row then data rows.

    ``rows`` may be any iterable of rows, a generator included; :meth:`write`
    consumes it once, formatting and writing ``_BLOCK_ROWS`` rows at a time
    through one ``%`` template, so no whole-file string is built.  A column
    whose first value is a float is written ``%.17g`` (17 significant digits,
    so reruns of a config are byte-identical), any other ``%s``: each column
    keeps its first row's format, and every writer's floats come from
    ``.tolist()`` or float fields, so its float columns hold only floats.
    """

    header: tuple
    rows: Iterable

    def write(self, path: str) -> None:
        rows = iter(self.rows)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(",".join(self.header) + "\n")
            first = next(rows, None)
            if first is None:
                return
            template = ",".join(["%.17g" if isinstance(v, float) else "%s"
                                 for v in first]) + "\n"
            rows = itertools.chain([first], rows)
            # a formatted row is never empty, so an empty block ends the rows
            while block := "".join([template % tuple(row)
                                    for row in itertools.islice(rows, _BLOCK_ROWS)]):
                handle.write(block)


# --- SVG rendering -----------------------------------------------------------

_SVG_W, _SVG_H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50  # plot margins


def _ticks_log10(lo: float, hi: float):
    return [k for k in range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1)]


def render_svg(table: analysis.ErrorTable, fit: analysis.RateFit, path: str) -> None:
    """Write a standalone log-log SVG of the error table with the fitted
    line and a slope-1 reference triangle.

    Data points are the only ``circle`` elements in the document and carry
    ``class="data-point"``; the fit annotation carries the full-precision
    slope in its ``data-slope`` attribute.
    """
    rows = table.rows
    if not rows:
        raise ValueError("cannot render an empty error table")
    if any(not (r.lp_error > 0 and math.isfinite(r.lp_error)) for r in rows):
        raise ValueError("error table must contain finite positive errors")
    xs = [math.log10(r.dt) for r in rows]
    ys = [math.log10(r.lp_error) for r in rows]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = 0.06 * (x_hi - x_lo) or 0.5
    y_pad = 0.08 * (y_hi - y_lo) or 0.5
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_SVG_W - _ML - _MR)

    def py(y):
        return _SVG_H - _MB - (y - y_lo) / (y_hi - y_lo) * (_SVG_H - _MT - _MB)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="{_ML}" y="{_MT}" width="{_SVG_W - _ML - _MR}" '
        f'height="{_SVG_H - _MT - _MB}" fill="white" stroke="black"/>',
    ]
    # axis ticks: one x tick per table row, y ticks at decades
    for row, x in zip(rows, xs):
        parts.append(
            f'<line x1="{px(x):.2f}" y1="{_SVG_H - _MB}" x2="{px(x):.2f}" '
            f'y2="{_SVG_H - _MB + 6}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(x):.2f}" y="{_SVG_H - _MB + 20}" font-size="11" '
            f'text-anchor="middle">2^-{row.level}</text>'
        )
    for k in _ticks_log10(y_lo, y_hi):
        parts.append(
            f'<line x1="{_ML - 6}" y1="{py(k):.2f}" x2="{_ML}" '
            f'y2="{py(k):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 10}" y="{py(k) + 4:.2f}" font-size="11" '
            f'text-anchor="end">1e{k}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _SVG_W - _MR) / 2:.2f}" y="{_SVG_H - 12}" '
        f'font-size="13" text-anchor="middle">dt</text>'
    )
    parts.append(
        f'<text x="16" y="{(_MT + _SVG_H - _MB) / 2:.2f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{(_MT + _SVG_H - _MB) / 2:.2f})">Lp error</text>'
    )
    # fitted line (fit lives in natural log; convert to log10 for plotting)
    ln10 = math.log(10.0)
    fit_y = [(fit.intercept + fit.slope * x * ln10) / ln10 for x in (min(xs), max(xs))]
    parts.append(
        f'<line class="fit-line" x1="{px(min(xs)):.2f}" y1="{py(fit_y[0]):.2f}" '
        f'x2="{px(max(xs)):.2f}" y2="{py(fit_y[1]):.2f}" '
        'stroke="firebrick" stroke-width="1.5"/>'
    )
    # slope-1 reference triangle, half a decade wide, below the data
    tri_x0 = x_lo + 0.55 * (x_hi - x_lo)
    tri_y0 = y_lo + 0.12 * (y_hi - y_lo)
    tri = (
        f"M {px(tri_x0):.2f} {py(tri_y0):.2f} "
        f"L {px(tri_x0 + 0.5):.2f} {py(tri_y0):.2f} "
        f"L {px(tri_x0 + 0.5):.2f} {py(tri_y0 + 0.5):.2f} Z"
    )
    parts.append(
        f'<path class="guide-triangle" d="{tri}" fill="none" stroke="gray"/>'
    )
    parts.append(
        f'<text x="{px(tri_x0 + 0.25):.2f}" y="{py(tri_y0) + 14:.2f}" '
        f'font-size="11" fill="gray" text-anchor="middle">1</text>'
    )
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle class="data-point" cx="{px(x):.2f}" cy="{py(y):.2f}" '
            'r="4" fill="steelblue"/>'
        )
    parts.append(
        f'<text class="fit-label" data-slope="{fit.slope:.17g}" '
        f'data-r-squared="{fit.r_squared:.17g}" x="{_ML + 12}" y="{_MT + 22}" '
        f'font-size="13">slope = {fit.slope:.4f}, r^2 = {fit.r_squared:.4f}</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(parts) + "\n")


# --- commands ----------------------------------------------------------------


def _cmd_converge(config: ExperimentConfig) -> None:
    problem, kind, policy = config.validate()
    if len(config.levels) < 2:
        raise ConfigError("converge fits a rate, so levels needs at least two levels")
    table = analysis.strong_error_experiment(
        problem, kind, config.levels, config.reference, config.p,
        config.paths, policy,
    )
    outdir = config.outdir
    os.makedirs(outdir, exist_ok=True)
    # written before the fit, which refuses a level whose error overflowed
    CsvReport(
        ("level", "n", "dt", "lp_error", "paths", "p", "stderr"),
        tuple(
            (r.level, r.n, r.dt, r.lp_error, r.paths, r.p, r.stderr)
            for r in table.rows
        ),
    ).write(os.path.join(outdir, "converge.csv"))
    fit = analysis.fit_rate(table)
    with open(os.path.join(outdir, "rate.txt"), "w", encoding="utf-8",
              newline="\n") as handle:
        handle.write(f"slope={fit.slope:.17g}\n")
        handle.write(f"intercept={fit.intercept:.17g}\n")
        handle.write(f"r_squared={fit.r_squared:.17g}\n")
    render_svg(table, fit, os.path.join(outdir, "convergence.svg"))
    overflowed = sum(r.overflowed for r in table.rows)
    for r in table.rows:
        print(f"level {r.level:2d}  n {r.n:6d}  lp_error {r.lp_error:.6e}")
    print(f"slope {fit.slope:.4f}  r^2 {fit.r_squared:.4f}  "
          f"overflowed paths {overflowed}")


def _terminal_rows(terminals, overflow):
    # path-order rows from the (paths, d) and (paths,) arrays, one block of
    # them turned into Python floats and ints at a time
    for start in range(0, len(overflow), _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, len(overflow))
        yield from zip(range(start, stop), *terminals[start:stop].T.tolist(),
                       overflow[start:stop].tolist())


def _cmd_simulate(config: ExperimentConfig) -> None:
    problem, kind, policy = config.validate()
    level = config.level if config.level is not None else max(config.levels)
    terminals, overflow = analysis.simulate_terminals(
        problem, kind, level, config.paths, policy
    )
    header = ("path",) + tuple(f"x{i}" for i in range(problem.d)) + ("overflow_step",)
    os.makedirs(config.outdir, exist_ok=True)
    CsvReport(header, _terminal_rows(terminals, overflow)).write(
        os.path.join(config.outdir, "simulate.csv")
    )
    print(f"simulated {config.paths} paths at level {level}; "
          f"overflowed {int((overflow >= 0).sum())}")


def _moment_rows(table: analysis.MomentTable, prefix=()):
    # grid-order rows from each level's (n + 1,) moment array, one block of
    # it turned into Python floats at a time
    for level, moments in table.moments.items():
        overflows = table.overflows[level]
        for start in range(0, len(moments), _BLOCK_ROWS):
            for t, moment in enumerate(moments[start:start + _BLOCK_ROWS].tolist(), start):
                yield (*prefix, level, t, moment, overflows)


def _cmd_moments(config: ExperimentConfig) -> None:
    problem, kind, policy = config.validate()
    table = analysis.moment_experiment(
        problem, kind, config.q, config.levels, config.paths, policy
    )
    os.makedirs(config.outdir, exist_ok=True)
    CsvReport(("level", "t_index", "moment_q", "overflows"), _moment_rows(table)).write(
        os.path.join(config.outdir, "moments.csv")
    )
    for level in table.levels():
        print(f"level {level:2d}  sup moment {table.sup_moment(level):.6e}  "
              f"overflows {table.overflows[level]}")


def _cmd_audit(config: ExperimentConfig) -> None:
    problem, _, policy = config.validate()
    stream = noise.derive_substream(policy, 0, noise.StreamRole.RANDOMIZATION)
    rows = schemes.audit_taming(
        problem, config.audit_n_values, config.audit_samples,
        config.audit_radius, stream,
    )
    os.makedirs(config.outdir, exist_ok=True)
    CsvReport(
        ("n", "max_drift_ratio", "growth_constant", "consistency_ratio"),
        tuple(
            (r.n, r.max_drift_ratio, r.growth_constant, r.consistency_ratio)
            for r in rows
        ),
    ).write(os.path.join(config.outdir, "audit.csv"))
    for r in rows:
        print(f"n {r.n:6d}  |tamed|/|mu| {r.max_drift_ratio:.6f}  "
              f"L {r.growth_constant:.6f}  consistency {r.consistency_ratio:.6f}")


def _cmd_blowup(config: ExperimentConfig) -> None:
    _, _, policy = config.validate()
    demo = analysis.blowup_demo(config.levels, config.paths, policy)
    rows = itertools.chain.from_iterable(
        _moment_rows(table, prefix=(kind.value,)) for kind, table in demo.items()
    )
    os.makedirs(config.outdir, exist_ok=True)
    CsvReport(("scheme", "level", "t_index", "moment_q", "overflows"), rows).write(
        os.path.join(config.outdir, "blowup.csv")
    )
    for kind, table in demo.items():
        for level in table.levels():
            print(f"{kind.value:16s} level {level:2d}  "
                  f"sup E|x|^2 {table.sup_moment(level):.6e}  "
                  f"overflows {table.overflows[level]}")


_RUNNERS = {
    "converge": _cmd_converge,
    "simulate": _cmd_simulate,
    "moments": _cmd_moments,
    "audit": _cmd_audit,
    "blowup": _cmd_blowup,
}


# --- argument handling -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # one --flag per config key; a flag not given is absent from the namespace
    parser = argparse.ArgumentParser(
        prog="sde-rtm",
        description="SDE strong-convergence benchmark harness",
    )
    parser.add_argument("command", choices=list(_RUNNERS))
    parser.add_argument("--config", help="path to a JSON config document")
    defaults = ExperimentConfig()
    for key in (f.name for f in dataclasses.fields(ExperimentConfig)):
        parser.add_argument(
            "--" + key.replace("_", "-"), default=argparse.SUPPRESS,
            help=f"config key {key} (default {json.dumps(getattr(defaults, key))})",
        )
    return parser


def _int_list(raw: str) -> list:
    return [int(part) for part in raw.split(",") if part != ""]


# the text rule of each config key whose flag text is not the value itself
_FLAG_RULES = {
    "problem_params": lambda raw: _decode_json(raw, "--problem-params"),
    "levels": _int_list,
    "reference": lambda raw: raw if raw == "exact" else int(raw),
    "p": float, "q": float, "paths": int, "master_seed": int, "level": int,
    "audit_n_values": _int_list, "audit_samples": int, "audit_radius": float,
}


def _flag_value(key: str, raw: str):
    """The config value that ``--<key>``'s text ``raw`` stands for."""
    try:
        return _FLAG_RULES.get(key, str)(raw)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"--{key.replace('_', '-')} {raw!r}: {exc}") from None


def _decode_json(document, source: str):
    """Parse JSON text or UTF-8 bytes; any failure to decode is a ConfigError."""
    try:
        if isinstance(document, bytes):
            document = document.decode("utf-8")
        return json.loads(document)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{source} is not valid JSON: {exc}") from None


def load_config(path: str) -> dict:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    document = _decode_json(raw, f"config file {path}")
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    return document


def run_command(argv) -> int:
    """Parse arguments, run one subcommand, and return the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    flags = vars(args)
    command, path = flags.pop("command"), flags.pop("config")
    try:
        mapping = load_config(path) if path is not None else {}
        mapping.update({key: _flag_value(key, raw) for key, raw in flags.items()})
        config = ExperimentConfig.from_mapping(mapping)
        _RUNNERS[command](config)
    except (ConfigError, model.InvalidParameterError, analysis.DegenerateDataError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except noise.UnsupportedNoiseStructureError as exc:
        print(f"unsupported noise structure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
