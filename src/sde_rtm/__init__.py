"""Strong-order SDE integrators with drift taming and drift-time
randomization, plus a Monte-Carlo benchmark harness."""

import os
import sys

# Nothing in the package calls BLAS, but numpy's bundled OpenBLAS starts a
# thread pool when numpy loads, and its idle thread spins through the import
# (about 0.15 s of CPU per process) and leaves the CLI parent with a second
# OS thread when it forks workers.  OpenBLAS reads its thread count once,
# when numpy loads, from the first of these variables that is set, so this
# acts only before that, and any of them that the user set wins.
if "numpy" not in sys.modules and os.environ.keys().isdisjoint(
        ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .model import (
    BUILTIN_FACTORIES,
    InvalidParameterError,
    NoiseStructure,
    SdeProblem,
    TamingSplit,
    make_builtin,
)
from .noise import (
    BrownianGrid,
    RandomizationStream,
    SeedPolicy,
    StreamRole,
    UnsupportedNoiseStructureError,
    coarsen,
    derive_substream,
    iterated_integrals,
    randomized_time,
    sample_brownian_grid,
    sample_randomization,
    terminal_value,
)
from .schemes import (
    PathResult,
    SchemeKind,
    integrate_path,
    simulate_batch,
    tame_drift,
)
from .analysis import (
    DegenerateDataError,
    ErrorRow,
    ErrorTable,
    MomentTable,
    RateFit,
    blowup_demo,
    fit_rate,
    moment_experiment,
    simulate_terminals,
    strong_error_experiment,
)

__version__ = "0.1.0"
