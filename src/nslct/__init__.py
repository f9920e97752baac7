"""Non-separable linear canonical transforms for sampled 1-D and 2-D signals.

The short version: pick a free symplectic matrix (presets or explicit
blocks), sample a signal on a centered grid, and apply `nslct_fast`.  The
short-time variant slides a window across the signal before transforming.
`uncertainty` turns the classical concentration inequalities into numeric
reports, and `verify` batches those into a seeded pass/fail suite.
"""
import importlib

# every export and the module that defines it; each module loads on the
# first read of one of its names (PEP 562), so `import nslct.cli` pays
# for neither the uncertainty reports nor the verify suite
_EXPORTS = {name: module for module, names in {
    "errors": ("BadAlpha", "BadBox", "BadP", "BadParam", "CoverageError", "DimensionError", "GridMismatch",
               "NonFiniteOutput", "NSLCTError", "SingularB", "SymplecticViolation", "ZeroSignal"),
    "grids": ("Gram", "Grid", "SampledSignal", "Spectrum", "WarpedGrid", "frequency_grid",
              "inner", "lp_norm", "norm_l2", "output_lattice", "synthesize"),
    "shorttime": ("WindowSpec", "moyal", "stnslct_gram", "stnslct_reconstruct"),
    "symplectic": ("FreeSymplecticMatrix", "compose", "inverse", "preset",
                   "random_free_matrix", "same_matrix", "validate"),
    "transform": ("kernel_eval", "nslct_direct", "nslct_fast", "nslct_inverse",
                  "spectrum_as_signal"),
    "uncertainty": ("ConcentrationSets", "UPReport", "boundedness_margin", "boundedness_report",
                    "concentration", "dispersion_spatial", "hausdorff_young_report", "heisenberg_report",
                    "lieb_report", "log_report", "pitt_constant", "pitt_report"),
    "verify": ("SUITE_NAMES", "Record", "run_suite"),
}.items() for name in names}


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__version__ = "0.1.0"

# capitalized names first, each group in case-blind order
__all__ = sorted(_EXPORTS, key=lambda name: (name[0].islower(), name.lower()))
