"""Non-separable linear canonical transforms for sampled 1-D and 2-D signals.

The short version: pick a free symplectic matrix (presets or explicit
blocks), sample a signal on a centered grid, and apply `nslct_fast`.  The
short-time variant slides a window across the signal before transforming.
`uncertainty` turns the classical concentration inequalities into numeric
reports, and `verify` batches those into a seeded pass/fail suite.
"""
from .errors import (
    BadAlpha,
    BadBox,
    BadP,
    BadParam,
    CoverageError,
    DimensionError,
    GridMismatch,
    NSLCTError,
    SingularB,
    SymplecticViolation,
    ZeroSignal,
)
from .grids import (
    Gram,
    Grid,
    SampledSignal,
    Spectrum,
    WarpedGrid,
    frequency_grid,
    inner,
    lp_norm,
    norm_l2,
    output_lattice,
    synthesize,
)
from .shorttime import (
    WindowSpec,
    moyal,
    stnslct_gram,
    stnslct_reconstruct,
)
from .symplectic import (
    FreeSymplecticMatrix,
    compose,
    inverse,
    preset,
    random_free_matrix,
    same_matrix,
    validate,
)
from .transform import kernel_eval, nslct_direct, nslct_fast, nslct_inverse, spectrum_as_signal
from .uncertainty import (
    ConcentrationSets,
    UPReport,
    boundedness_margin,
    boundedness_report,
    concentration,
    dispersion_spatial,
    dispersion_spectral,
    hausdorff_young_report,
    heisenberg_report,
    lieb_report,
    log_report,
    pitt_constant,
    pitt_report,
)
from .verify import SUITE_NAMES, Record, run_suite

__version__ = "0.1.0"

__all__ = [
    "BadAlpha", "BadBox", "BadP", "BadParam", "ConcentrationSets",
    "CoverageError", "DimensionError", "FreeSymplecticMatrix",
    "Gram", "Grid", "GridMismatch", "NSLCTError", "Record", "SampledSignal",
    "SingularB", "Spectrum", "SUITE_NAMES", "SymplecticViolation", "UPReport",
    "WarpedGrid", "WindowSpec", "ZeroSignal", "boundedness_margin",
    "boundedness_report", "compose",
    "concentration", "dispersion_spatial", "dispersion_spectral",
    "frequency_grid", "hausdorff_young_report", "heisenberg_report", "inner",
    "inverse", "kernel_eval", "lieb_report", "log_report", "lp_norm", "moyal",
    "norm_l2", "nslct_direct", "nslct_fast", "nslct_inverse", "output_lattice",
    "pitt_constant", "pitt_report", "preset", "random_free_matrix", "run_suite", "same_matrix",
    "spectrum_as_signal", "stnslct_gram", "stnslct_reconstruct", "synthesize",
    "validate",
]
