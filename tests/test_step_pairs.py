"""``scripts/step_pairs.py`` times both kernels of a pair of checkouts.

Run on this checkout against itself, with a few short feeds, it must report
every case with positive times and the same terminal bits on both sides, and
leave the caller's own ``sde_rtm`` modules in place.
"""

import importlib.util
import pathlib
import sys

from sde_rtm import schemes

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "step_pairs", ROOT / "scripts" / "step_pairs.py")
step_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(step_pairs)


def test_step_pairs_reports_every_case_against_itself():
    result = step_pairs.compare(str(ROOT), str(ROOT), 3, 16, 256)
    assert list(result) == [label for label, _, _ in step_pairs.CASES]
    for entry in result.values():
        assert entry["same_bits"]
        for side in ("parent", "change"):
            assert len(entry[side]) == 3
            assert all(seconds > 0 for seconds in entry[side])
    assert sys.modules["sde_rtm.schemes"] is schemes
