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
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import analysis, model, noise, schemes

__all__ = ["ExperimentConfig", "ConfigError", "CsvReport", "render_svg",
           "run_command", "main"]


class ConfigError(ValueError):
    """The experiment configuration failed validation."""


_COMMANDS = ("converge", "simulate", "moments", "audit", "blowup")

# The finest dyadic level whose step count 1 << level fits the int64 step
# indices of the stepping kernel.
_MAX_LEVEL = 62
# The most paths or audit samples one run takes.  The parent gathers a
# float64 result per path (and per level) in memory, so a larger count
# would run out of memory, or run for days, instead of failing up front.
_MAX_COUNT = 1 << 24

_SCHEME_IDS = {kind.value: kind for kind in schemes.SchemeKind}

_HEADERS = {
    "converge": ("level", "n", "dt", "lp_error", "paths", "p", "stderr"),
    "moments": ("level", "t_index", "moment_q", "overflows"),
    "blowup": ("scheme", "level", "t_index", "moment_q", "overflows"),
    "audit": ("n", "max_drift_ratio", "growth_constant", "consistency_ratio"),
}


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int: never a count or level
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


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

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def validate(self) -> None:
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
        if not all(_is_real(v) for v in self.problem_params.values()):
            raise ConfigError("problem_params values must be finite numbers")
        levels = self.levels
        if (not isinstance(levels, list) or not levels
                or any(not _is_int(l) or not 0 <= l <= _MAX_LEVEL for l in levels)):
            raise ConfigError(
                f"levels must be a nonempty list of integers in [0, {_MAX_LEVEL}]"
            )
        if sorted(levels) != levels or len(set(levels)) != len(levels):
            raise ConfigError("levels must be strictly increasing")
        ref = self.reference
        if isinstance(ref, str):
            if ref != "exact":
                raise ConfigError("reference must be an integer level or 'exact'")
        elif _is_int(ref):
            if ref <= max(levels):
                raise ConfigError("reference level must exceed every coarse level")
            if ref > _MAX_LEVEL:
                raise ConfigError(f"reference level must be at most {_MAX_LEVEL}")
        else:
            raise ConfigError("reference must be an integer level or 'exact'")
        for name in ("p", "q", "audit_radius"):
            if not _is_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number")
        for name in ("paths", "master_seed", "audit_samples"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer")
        if self.p < 1:
            raise ConfigError("p must be >= 1")
        if self.q < 2:
            raise ConfigError("q must be >= 2")
        if not 1 <= self.paths <= _MAX_COUNT:
            raise ConfigError(f"paths must lie in [1, {_MAX_COUNT}]")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigError("master_seed must be a 64-bit unsigned integer")
        if not isinstance(self.outdir, str):
            raise ConfigError("outdir must be a string")
        if self.level is not None and (not _is_int(self.level)
                                       or not 0 <= self.level <= _MAX_LEVEL):
            raise ConfigError(f"level must be an integer in [0, {_MAX_LEVEL}]")
        if (not isinstance(self.audit_n_values, list) or not self.audit_n_values
                or any(not _is_int(n) or not 1 <= n <= 1 << _MAX_LEVEL
                       for n in self.audit_n_values)):
            raise ConfigError(
                "audit_n_values must be a nonempty list of integers "
                f"in [1, 2**{_MAX_LEVEL}]"
            )
        if not 1 <= self.audit_samples <= _MAX_COUNT:
            raise ConfigError(f"audit_samples must lie in [1, {_MAX_COUNT}]")
        if self.audit_radius <= 0:
            raise ConfigError("audit_radius must be positive")

    def build_problem(self) -> model.SdeProblem:
        try:
            return model.make_builtin(self.problem, **self.problem_params)
        except model.InvalidParameterError as exc:
            raise ConfigError(f"invalid problem parameters: {exc}") from None

    def scheme_kind(self) -> schemes.SchemeKind:
        return _SCHEME_IDS[self.scheme]


def _resolve(config: ExperimentConfig, needs_reference: bool = False):
    """Validate the config and build the runtime objects it describes.

    Raises ConfigError for bad records and UnsupportedNoiseStructureError
    when a Milstein-type scheme meets general noise, before any simulation
    starts.
    """
    config.validate()
    problem = config.build_problem()
    kind = config.scheme_kind()
    if (kind in (schemes.SchemeKind.TAMED_MILSTEIN,
                 schemes.SchemeKind.RANDOMIZED_TAMED_MILSTEIN)
            and problem.noise_structure is model.NoiseStructure.GENERAL):
        raise noise.UnsupportedNoiseStructureError(
            f"scheme {config.scheme} cannot be used with general noise"
        )
    if needs_reference and config.reference == "exact" \
            and problem.exact_terminal is None:
        raise ConfigError(
            f"problem {config.problem!r} has no exact terminal solution"
        )
    return problem, kind, noise.SeedPolicy(config.master_seed)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@dataclass(frozen=True)
class CsvReport:
    """A rendered CSV artifact: header row then data rows.

    Floats are rendered with 17 significant digits so that reruns of the
    same config produce byte-identical files.
    """

    header: tuple
    rows: tuple

    def render(self) -> str:
        lines = [",".join(self.header)]
        lines.extend(",".join(_format_value(v) for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(self.render())


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
    problem, kind, policy = _resolve(config, needs_reference=True)
    table = analysis.strong_error_experiment(
        problem, kind, config.levels, config.reference, config.p,
        config.paths, policy,
    )
    fit = analysis.fit_rate(table)
    outdir = config.outdir
    os.makedirs(outdir, exist_ok=True)
    CsvReport(
        _HEADERS["converge"],
        tuple(
            (r.level, r.n, r.dt, r.lp_error, r.paths, r.p, r.stderr)
            for r in table.rows
        ),
    ).write(os.path.join(outdir, "converge.csv"))
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


def _cmd_simulate(config: ExperimentConfig) -> None:
    problem, kind, policy = _resolve(config)
    level = config.level if config.level is not None else max(config.levels)
    terminals, overflow = analysis.simulate_terminals(
        problem, kind, level, config.paths, policy
    )
    header = ("path",) + tuple(f"x{i}" for i in range(problem.d)) + ("overflow_step",)
    rows = tuple(
        (i, *(float(v) for v in terminals[i]), int(overflow[i]))
        for i in range(config.paths)
    )
    os.makedirs(config.outdir, exist_ok=True)
    CsvReport(header, rows).write(os.path.join(config.outdir, "simulate.csv"))
    print(f"simulated {config.paths} paths at level {level}; "
          f"overflowed {int((overflow >= 0).sum())}")


def _moment_rows(table: analysis.MomentTable, prefix=()):
    return tuple(
        prefix + (row.level, row.t_index, row.moment, table.overflows[row.level])
        for row in table.rows
    )


def _cmd_moments(config: ExperimentConfig) -> None:
    problem, kind, policy = _resolve(config)
    table = analysis.moment_experiment(
        problem, kind, config.q, config.levels, config.paths, policy
    )
    os.makedirs(config.outdir, exist_ok=True)
    CsvReport(_HEADERS["moments"], _moment_rows(table)).write(
        os.path.join(config.outdir, "moments.csv")
    )
    for level in table.levels():
        print(f"level {level:2d}  sup moment {table.sup_moment(level):.6e}  "
              f"overflows {table.overflows[level]}")


def _cmd_audit(config: ExperimentConfig) -> None:
    problem, _, policy = _resolve(config)
    stream = noise.derive_substream(policy, 0, noise.StreamRole.RANDOMIZATION)
    audit = schemes.audit_taming(
        problem, config.audit_n_values, config.audit_samples,
        config.audit_radius, stream,
    )
    os.makedirs(config.outdir, exist_ok=True)
    CsvReport(
        _HEADERS["audit"],
        tuple(
            (r.n, r.max_drift_ratio, r.growth_constant, r.consistency_ratio)
            for r in audit.rows
        ),
    ).write(os.path.join(config.outdir, "audit.csv"))
    for r in audit.rows:
        print(f"n {r.n:6d}  |tamed|/|mu| {r.max_drift_ratio:.6f}  "
              f"L {r.growth_constant:.6f}  consistency {r.consistency_ratio:.6f}")


def _cmd_blowup(config: ExperimentConfig) -> None:
    config.validate()
    policy = noise.SeedPolicy(config.master_seed)
    demo = analysis.blowup_demo(config.levels, config.paths, policy)
    rows = ()
    for kind in (schemes.SchemeKind.EULER_MARUYAMA, schemes.SchemeKind.TAMED_EULER):
        rows += _moment_rows(demo[kind], prefix=(kind.value,))
    os.makedirs(config.outdir, exist_ok=True)
    CsvReport(_HEADERS["blowup"], rows).write(
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
    parser = argparse.ArgumentParser(
        prog="sde-rtm",
        description="SDE strong-convergence benchmark harness",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="path to a JSON config document")
    parser.add_argument("--problem", help="builtin problem id")
    parser.add_argument("--problem-params", dest="problem_params",
                        help="JSON object of problem parameters")
    parser.add_argument("--scheme", help="integrator id")
    parser.add_argument("--levels", help="comma-separated dyadic levels")
    parser.add_argument("--reference", help="reference level or 'exact'")
    parser.add_argument("--p", type=float, help="error norm order")
    parser.add_argument("--q", type=float, help="moment order")
    parser.add_argument("--paths", type=int, help="Monte-Carlo path count")
    parser.add_argument("--master-seed", dest="master_seed", type=int)
    parser.add_argument("--outdir", help="output directory")
    parser.add_argument("--level", type=int, help="simulation level (simulate)")
    parser.add_argument("--audit-n-values", dest="audit_n_values",
                        help="comma-separated taming step counts (audit)")
    parser.add_argument("--audit-samples", dest="audit_samples", type=int)
    parser.add_argument("--audit-radius", dest="audit_radius", type=float)
    return parser


def _parse_override(key: str, raw):
    if raw is None:
        return None
    if key in ("levels", "audit_n_values"):
        try:
            return [int(part) for part in str(raw).split(",") if part != ""]
        except ValueError:
            raise ConfigError(f"--{key} expects comma-separated integers") from None
    if key == "reference":
        return raw if raw == "exact" else _parse_int(key, raw)
    if key == "problem_params":
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--problem-params is not valid JSON: {exc}") from None
    return raw


def _parse_int(key: str, raw) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"--{key} expects an integer") from None


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
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
    try:
        mapping = load_config(args.config) if args.config else {}
        for key in (f.name for f in dataclasses.fields(ExperimentConfig)):
            override = _parse_override(key, getattr(args, key, None))
            if override is not None:
                mapping[key] = override
        config = ExperimentConfig.from_mapping(mapping)
        _RUNNERS[args.command](config)
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
