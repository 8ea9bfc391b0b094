#!/usr/bin/env python3
"""Sampling audit of the drift-taming bounds for every builtin problem.

Usage: python scripts/run_audit.py [outdir]
"""

import sys

from sde_rtm.cli import run_command
from sde_rtm.model import BUILTIN_FACTORIES

# parameters a builtin cannot be built without
_REQUIRED = {"rough_drift": '{"beta": 0.25}'}


def main() -> int:
    base = sys.argv[1] if len(sys.argv) > 1 else "results/audit"
    for problem in BUILTIN_FACTORIES:
        params = _REQUIRED.get(problem, "{}")
        print(f"== {problem}")
        status = run_command([
            "audit",
            "--problem", problem,
            "--problem-params", params,
            "--audit-n-values", "16,64,256,1024,4096",
            "--audit-samples", "500",
            "--audit-radius", "6.0",
            "--master-seed", "20260810",
            "--outdir", f"{base}/{problem}",
        ])
        if status != 0:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
