#!/usr/bin/env python3
"""Regenerate the golden artefact hashes checked by tests/test_golden.py.

Runs one small fixed config per case through ``run_command`` and records
the sha256 of every file the command writes, under the installed numpy's
major.minor version: Gaussian draws are bit-stable only within one numpy
release.  Hashes recorded for other numpy versions are kept as long as the
cases themselves are unchanged.

Usage: PYTHONPATH=src python scripts/make_goldens.py [golden.json]
"""

import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np

from sde_rtm.cli import run_command

HERE = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = HERE / "tests" / "golden_hashes.json"

_SEED = 20260810
_RTM = "randomized_tamed_milstein"
# fhn with strong noise and input: explicit Euler overflows on about a third
# of the paths at level 4, at steps 8-15, so overflow steps and the moment
# exclusion of overflowed paths reach the artefacts
_EXPLOSIVE = {"problem": "fhn", "problem_params": {"sigma": 3.0, "i_amp": 60.0},
              "scheme": "euler_maruyama"}

CASES = {
    "converge": {"command": "converge", "config": {
        "problem": "fhn", "scheme": _RTM, "levels": [3, 4, 5], "reference": 8,
        "paths": 64, "master_seed": _SEED}},
    "moments": {"command": "moments", "config": {
        "problem": "fhn", "scheme": _RTM, "levels": [3, 4, 5], "q": 4.0,
        "paths": 64, "master_seed": _SEED}},
    "simulate": {"command": "simulate", "config": {
        "problem": "gbm", "scheme": "tamed_milstein", "levels": [6],
        "paths": 600, "master_seed": _SEED}},
    "blowup": {"command": "blowup", "config": {
        "levels": [2, 4, 6], "paths": 64, "master_seed": _SEED}},
    "audit": {"command": "audit", "config": {
        "problem": "fhn", "audit_n_values": [16, 64, 256], "audit_samples": 100,
        "master_seed": _SEED}},
    "simulate_overflow": {"command": "simulate", "config": {
        **_EXPLOSIVE, "levels": [4], "paths": 300, "master_seed": _SEED}},
    "moments_overflow": {"command": "moments", "config": {
        **_EXPLOSIVE, "levels": [3, 4, 5], "q": 2.0, "paths": 300,
        "master_seed": _SEED}},
}


def numpy_key() -> str:
    return ".".join(np.__version__.split(".")[:2])


def artefact_digests(case: dict, workdir: pathlib.Path) -> dict:
    """Run one case in ``workdir`` and return {file name: sha256}."""
    outdir = workdir / "out"
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps({**case["config"], "outdir": str(outdir)}))
    status = run_command([case["command"], "--config", str(config_path)])
    if status != 0:
        raise RuntimeError(f"{case['command']} exited with status {status}")
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(outdir.iterdir())
    }


def main() -> int:
    target = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUT
    document = json.loads(target.read_text()) if target.exists() else {}
    hashes = document.get("sha256", {}) if document.get("cases") == CASES else {}
    current = {}
    for name, case in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            current[name] = artefact_digests(case, pathlib.Path(tmp))
    hashes[numpy_key()] = current
    target.write_text(json.dumps({"cases": CASES, "sha256": hashes}, indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {len(current)} cases for numpy {numpy_key()} to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
