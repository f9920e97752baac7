"""Exception types shared across the package."""


class NSLCTError(Exception):
    """Base class for all library-level errors."""


class SymplecticViolation(NSLCTError):
    """A block constraint of a candidate matrix failed its tolerance."""

    def __init__(self, constraint: str, residual: float):
        self.constraint = constraint
        self.residual = residual
        super().__init__(f"{constraint} violated (residual {residual:.3e})")


class SingularB(NSLCTError):
    """The B block is singular, or numerically indistinguishable from it."""


class DimensionError(NSLCTError):
    """Blocks are not square, are mismatched, or the dimension is unsupported."""


class GridMismatch(NSLCTError):
    """Operands live on different grids or lattices."""


class BadParam(NSLCTError):
    """A parameter is outside its documented domain."""


class CoverageError(NSLCTError):
    """Window shifts do not cover the grid; reconstruction is ill-posed."""


class ZeroSignal(NSLCTError):
    """An operation requiring a nonzero signal received an all-zero one."""


class NonFiniteOutput(NSLCTError):
    """A result to be written holds NaN or infinity (an overflow, say)."""


class BadAlpha(NSLCTError):
    """Weight exponent outside [0, n)."""


class BadP(NSLCTError):
    """Lebesgue exponent outside the admissible range."""


class BadBox(NSLCTError):
    """Concentration box is malformed or exceeds the grid extent."""
