"""Byte-identity of the CLI artefacts against committed golden hashes.

Each case runs one small fixed config through ``run_command`` and compares
the sha256 of every file it writes with ``golden_hashes.json``.  Hashes are
keyed by numpy major.minor, because Gaussian draws are bit-stable only
within one numpy release; regenerate them with ``scripts/make_goldens.py``.

The hashes also depend on numpy's CPU dispatch.  On a CPU with AVX-512,
numpy takes ``power`` through SIMD code whose last bits can differ from the
scalar libm path, and the kernel takes powers in the cubic drifts (``fhn``,
the blow-up double well) and in the taming norm.  On an AVX-512 Xeon with
numpy 2.4.6, running this file with the AVX-512 targets disabled,

    export NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_SKX AVX512_ICL AVX512_SPR"
    PYTHONPATH=src python -m pytest tests/test_golden.py

fails five of the six cases; only the ``gbm`` ``simulate`` case passes.
Compare hashes only between runs on the same SIMD targets
(``numpy.show_runtime()`` lists them).
"""

import hashlib
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from sde_rtm.cli import run_command

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden_hashes.json").read_text())
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


def test_golden_cases_match_the_generator():
    # a case added to, changed in or removed from one file but not the other
    # fails here, and every numpy version holds hashes for exactly those cases
    spec = importlib.util.spec_from_file_location(
        "make_goldens", HERE.parent / "scripts" / "make_goldens.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert json.loads(json.dumps(module.CASES)) == GOLDEN["cases"]
    for digests in GOLDEN["sha256"].values():
        assert sorted(digests) == sorted(GOLDEN["cases"])
