"""Byte-identity of the CLI artefacts against committed golden hashes.

Each case runs one small fixed config through ``run_command`` and compares
the sha256 of every file it writes with ``golden_hashes.json``.  Hashes are
keyed by numpy major.minor, because Gaussian draws are bit-stable only
within one numpy release; regenerate them with ``scripts/make_goldens.py``.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from sde_rtm.cli import run_command

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_hashes.json").read_text())
NUMPY_KEY = ".".join(np.__version__.split(".")[:2])


@pytest.mark.parametrize("name", sorted(GOLDEN["cases"]))
def test_artefacts_match_golden_hashes(name, tmp_path):
    expected = GOLDEN["sha256"].get(NUMPY_KEY, {}).get(name)
    if expected is None:
        pytest.skip(f"no golden hashes recorded for numpy {NUMPY_KEY}; "
                    "run scripts/make_goldens.py on a trusted commit")
    case = GOLDEN["cases"][name]
    outdir = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**case["config"], "outdir": str(outdir)}))
    assert run_command([case["command"], "--config", str(config_path)]) == 0
    actual = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(outdir.iterdir())
    }
    assert actual == expected
