"""Byte-identity of the CLI artefacts against committed golden hashes.

Each case runs one small fixed config through the ``artefact_digests`` of
``scripts/make_goldens.py``, which regenerates the hashes, and compares the
sha256 of every file it writes with ``golden_hashes.json``.  Hashes are
keyed by numpy major.minor, because Gaussian draws are bit-stable only
within one numpy release.

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

import importlib.util
import json
import pathlib

import pytest

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden_hashes.json").read_text())
_SPEC = importlib.util.spec_from_file_location(
    "make_goldens", HERE.parent / "scripts" / "make_goldens.py")
make_goldens = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(make_goldens)


@pytest.mark.parametrize("name", sorted(GOLDEN["cases"]))
def test_artefacts_match_golden_hashes(name, tmp_path):
    # digests come from the generator's own runner, so the two cannot drift
    key = make_goldens.numpy_key()
    expected = GOLDEN["sha256"].get(key, {}).get(name)
    if expected is None:
        pytest.skip(f"no golden hashes recorded for numpy {key}; "
                    "run scripts/make_goldens.py on a trusted commit")
    assert make_goldens.artefact_digests(GOLDEN["cases"][name], tmp_path) == expected


def test_golden_cases_match_the_generator():
    # a case added to, changed in or removed from one file but not the other
    # fails here, and every numpy version holds hashes for exactly those cases
    assert json.loads(json.dumps(make_goldens.CASES)) == GOLDEN["cases"]
    for digests in GOLDEN["sha256"].values():
        assert sorted(digests) == sorted(GOLDEN["cases"])
