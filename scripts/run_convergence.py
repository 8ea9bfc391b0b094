#!/usr/bin/env python3
"""Run the strong-convergence benchmarks and print the fitted rates.

Runs each config given on the command line (defaults to the FitzHugh-Nagumo
benchmark at both the coarse and the resolved level windows), then reads the
fitted slope back from the emitted rate.txt.

Usage: python scripts/run_convergence.py [config.json ...]
"""

import pathlib
import sys

from sde_rtm.cli import ExperimentConfig, load_config, run_command

HERE = pathlib.Path(__file__).resolve().parent.parent

DEFAULT_CONFIGS = [
    HERE / "configs" / "fhn.json",
    HERE / "configs" / "fhn_resolved.json",
    HERE / "configs" / "gbm_exact.json",
]


def main() -> int:
    configs = [pathlib.Path(arg) for arg in sys.argv[1:]] or DEFAULT_CONFIGS
    for config_path in configs:
        print(f"== {config_path}")
        status = run_command(["converge", "--config", str(config_path)])
        if status != 0:
            return status
        # the config's outdir, or the default when the document leaves it out
        outdir = pathlib.Path(
            ExperimentConfig.from_mapping(load_config(str(config_path))).outdir)
        print((outdir / "rate.txt").read_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
