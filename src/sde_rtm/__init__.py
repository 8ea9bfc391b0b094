"""Strong-order SDE integrators with drift taming and drift-time
randomization, plus a Monte-Carlo benchmark harness."""

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
    audit_taming,
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
