"""Uniform sample grids, signals on them, and the discrete pairings/norms.

Signals live on origin-anchored uniform grids x_k = o + k * delta with
power-of-two counts so the fast transform path can lean on the FFT.  All
integrals are plain Riemann sums (cell volume times a deterministic sum),
which keeps every figure in the test battery bit-reproducible.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BadParam, GridMismatch
from .symplectic import FreeSymplecticMatrix, _det, same_matrix

TWO_PI = 2.0 * math.pi


def _per_axis(value, n: int, name: str, cast):
    vals = np.atleast_1d(np.asarray(value))
    if vals.size == 1:
        vals = np.repeat(vals, n)
    if vals.size != n:
        raise BadParam(f"{name} needs 1 or {n} entries, got {vals.size}")
    return tuple(cast(v) for v in vals)


@dataclass(frozen=True)
class Grid:
    """Uniform grid: per-axis sample counts, spacings and origin."""

    counts: tuple[int, ...]
    spacing: tuple[float, ...]
    origin: tuple[float, ...]

    def __post_init__(self):
        n = len(self.counts)
        if n not in (1, 2) or len(self.spacing) != n or len(self.origin) != n:
            raise BadParam("grid needs matching 1- or 2-axis metadata")
        try:
            object.__setattr__(self, "counts", tuple(operator.index(N) for N in self.counts))
        except TypeError:
            raise BadParam(f"axis counts {self.counts} must be integers") from None
        for N in self.counts:
            if N < 8 or (N & (N - 1)) != 0:
                raise BadParam(f"axis count {N} must be a power of two >= 8")
        for step in self.spacing:
            if not (step > 0.0) or not math.isfinite(step):
                raise BadParam("grid spacing must be positive and finite")
        if not all(math.isfinite(o) for o in self.origin):
            raise BadParam("grid origin must be finite")

    @classmethod
    def centered(cls, counts, spacing) -> "Grid":
        """Grid with the default origin o_j = -N_j * delta_j / 2."""
        counts = tuple(np.atleast_1d(counts).tolist())
        n = len(counts)
        spacing = _per_axis(spacing, n, "spacing", float)
        origin = tuple(-(N * s) / 2.0 for N, s in zip(counts, spacing))
        return cls(counts, spacing, origin)

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def size(self) -> int:
        return int(np.prod(self.counts))

    @property
    def vol(self) -> float:
        """Volume of one sample cell."""
        return float(np.prod(self.spacing))

    def axis(self, j: int) -> np.ndarray:
        return self.origin[j] + self.spacing[j] * np.arange(self.counts[j])

    def mesh(self) -> list[np.ndarray]:
        """Broadcastable coordinate axes, ij order: N_j long on array axis j, 1 on the rest."""
        n = self.n
        return [self.axis(j).reshape([-1 if i == j else 1 for i in range(n)]) for j in range(n)]

    def flat_points(self) -> np.ndarray:
        """All sample positions, row-major, as a (size, n) array."""
        return _flat_points(self.mesh(), self.counts)

    def extent(self, j: int) -> tuple[float, float]:
        """First and last sample position along axis j."""
        return self.origin[j], self.origin[j] + self.spacing[j] * (self.counts[j] - 1)


def _flat_points(meshes, counts: tuple[int, ...]) -> np.ndarray:
    """Coordinate arrays broadcast to counts, as a row-major (size, n) array."""
    return np.stack([np.broadcast_to(m, counts).ravel() for m in meshes], axis=-1)


class _Magnitudes:
    """|values| and |values|^2 of a value-holding object, taken on first read.

    Every norm and power sum reads this one read-only pair, so reports that
    share a gram take |V| once; the object then holds twice its own size.
    """

    @cached_property
    def magnitudes(self) -> tuple[np.ndarray, np.ndarray]:
        mags = np.abs(self.values)
        squares = mags**2
        mags.setflags(write=False)
        squares.setflags(write=False)
        return mags, squares


@dataclass(frozen=True, eq=False)
class SampledSignal(_Magnitudes):
    """Complex samples attached to their grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.counts:
            if vals.size != self.grid.size:
                raise GridMismatch(
                    f"value shape {vals.shape} does not fit grid {self.grid.counts}"
                )
            vals = vals.reshape(self.grid.counts)
        if not np.all(np.isfinite(vals)):
            raise BadParam("signal values must be finite")
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def cell(self) -> float:
        """Volume of one sample cell."""
        return self.grid.vol


@dataclass(frozen=True, eq=False)
class WarpedGrid:
    """Output lattice w = L * omega over the FFT frequencies of a base grid.

    The warp is stored, never resampled: points are the image of the base
    lattice under L and the cell volume picks up |det L|.
    """

    base: Grid
    warp: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.warp, dtype=float))
        if w.shape != (self.base.n, self.base.n):
            raise GridMismatch("warp matrix shape must match the grid dimension")
        w.setflags(write=False)
        object.__setattr__(self, "warp", w)

    @property
    def det_warp(self) -> float:
        return _det(self.warp)

    @property
    def cell(self) -> float:
        """Volume represented by one lattice point."""
        return abs(self.det_warp) * self.base.vol

    def point_meshes(self) -> list[np.ndarray]:
        """Warped coordinates sum_j L_ij omega_j over the base grid's axes."""
        base = self.base.mesh()
        n = self.base.n
        return [sum(self.warp[i, j] * base[j] for j in range(n)) for i in range(n)]

    def flat_points(self) -> np.ndarray:
        """All lattice points, row-major, as a (size, n) array."""
        return _flat_points(self.point_meshes(), self.base.counts)


def output_lattice(grid: Grid, m: FreeSymplecticMatrix) -> WarpedGrid:
    """The lattice w = B omega that the transform of a signal on grid under
    m lives on, omega running over the grid's FFT frequencies."""
    check_dimension(grid, m)
    return WarpedGrid(frequency_grid(grid), m.b)


def check_dimension(grid: Grid, m: FreeSymplecticMatrix):
    """Raise GridMismatch unless m acts on the grid's dimension."""
    if m.n != grid.n:
        raise GridMismatch("matrix dimension does not match the signal grid")


def _freeze_values(obj, shape: tuple[int, ...], what: str):
    """Store obj.values as a read-only contiguous complex128 array of shape."""
    vals = np.ascontiguousarray(np.asarray(obj.values, dtype=np.complex128))
    if vals.shape != shape:
        raise GridMismatch(f"{what} values must have shape {shape}")
    vals.setflags(write=False)
    object.__setattr__(obj, "values", vals)


@dataclass(frozen=True, eq=False)
class Spectrum(_Magnitudes):
    """Transform values on a warped frequency lattice.

    Carries the matrix it was made under, so an inverse can refuse another
    one, and the source grid, so the chirp-FFT-chirp pipeline can be undone
    without guessing the original origin.  The lattice follows from both; it
    is built, and the two checked against each other, on first use.
    """

    matrix: FreeSymplecticMatrix
    values: np.ndarray
    signal_grid: Grid

    def __post_init__(self):
        _freeze_values(self, self.signal_grid.counts, "spectrum")

    @cached_property
    def wgrid(self) -> WarpedGrid:
        return output_lattice(self.signal_grid, self.matrix)

    @property
    def cell(self) -> float:
        """Volume represented by one lattice point."""
        return self.wgrid.cell


def shift_lattice(grid: Grid, stride: int) -> Grid:
    """Window shifts u on every stride-th sample of a grid, from its origin."""
    if stride < 1 or any(N % stride for N in grid.counts):
        raise BadParam(f"stride {stride} must be >= 1 and divide the axis counts {grid.counts}")
    return Grid(
        tuple(N // stride for N in grid.counts),
        tuple(stride * d for d in grid.spacing),
        grid.origin,
    )


@dataclass(frozen=True, eq=False)
class Gram(_Magnitudes):
    """Windowed-transform table indexed (shift u, frequency w).

    Like a spectrum it carries its matrix and signal grid; the stride fixes
    the shift lattice.
    """

    matrix: FreeSymplecticMatrix
    signal_grid: Grid
    stride: int
    values: np.ndarray
    ugrid: Grid = field(init=False)

    def __post_init__(self):
        ugrid = shift_lattice(self.signal_grid, self.stride)
        object.__setattr__(self, "ugrid", ugrid)
        _freeze_values(self, ugrid.counts + self.signal_grid.counts, "gram")

    @cached_property
    def wgrid(self) -> WarpedGrid:
        return output_lattice(self.signal_grid, self.matrix)

    @property
    def cell(self) -> float:
        """Volume of one (u, w) cell."""
        return self.wgrid.cell * self.ugrid.vol


def check_gram(g: Gram, grid: Grid, m: FreeSymplecticMatrix, stride: int | None = None):
    """Raise GridMismatch unless g was made on grid, under m and, when a
    stride is given, at that stride."""
    if g.signal_grid != grid or (stride is not None and g.stride != stride):
        raise GridMismatch("gram was made on another grid or stride")
    if not same_matrix(g.matrix, m):
        raise GridMismatch("gram was produced under a different matrix")


def frequency_grid(grid: Grid) -> Grid:
    """FFT frequency lattice of a signal grid, in ascending order.

    omega_j runs over 2 pi m / (N_j delta_j) for m in [-N_j/2, N_j/2).
    """
    spacing = tuple(TWO_PI / (N * s) for N, s in zip(grid.counts, grid.spacing))
    origin = tuple(-(N // 2) * s for N, s in zip(grid.counts, spacing))
    return Grid(grid.counts, spacing, origin)


# ---------------------------------------------------------------------------
# pairings and norms


def inner(f: SampledSignal, g: SampledSignal) -> complex:
    """Discrete L2 pairing vol * sum f * conj(g); conjugate-linear in g."""
    if f.grid != g.grid:
        raise GridMismatch("inner product needs both signals on one grid")
    return complex(f.grid.vol * np.sum(f.values * np.conj(g.values)))


def norm_l2(f: SampledSignal) -> float:
    return math.sqrt(max(inner(f, f).real, 0.0))


def _power_sum(obj, p: float, weight=None) -> float:
    """cell * sum |values|^p, times weight if given, of a signal, spectrum or gram.

    p = 1 and p = 2 read the kept magnitudes themselves; any other p is
    |V| ** p, whose bytes differ from (|V|^2) ** (p / 2).
    """
    mags, squares = obj.magnitudes
    powers = mags if p == 1.0 else squares if p == 2.0 else mags**p
    return float(obj.cell * np.sum(powers if weight is None else powers * weight))


def lp_norm(obj, p: float) -> float:
    """Discrete L^p norm of a signal, spectrum or gram (p = inf for the sup)."""
    if p == math.inf:
        return float(np.max(obj.magnitudes[0]))
    if not (p >= 1.0):
        raise BadParam(f"p = {p} is outside [1, inf]")
    return _power_sum(obj, p) ** (1.0 / p)


# ---------------------------------------------------------------------------
# deterministic test-signal factory


def check_seed(seed) -> int:
    """A random seed as an int >= 0 (numpy integers pass), else BadParam."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise BadParam(f"seed {seed!r} must be an integer") from None
    if seed < 0:
        raise BadParam(f"seed {seed} must be >= 0")
    return seed


def _gaussian_values(grid: Grid, sigma, center) -> np.ndarray:
    sig = _per_axis(sigma, grid.n, "sigma", float)
    cen = _per_axis(center, grid.n, "center", float)
    if any(not (s > 0.0) for s in sig):
        raise BadParam("gaussian sigma must be positive")
    out = np.ones(grid.counts)
    for j, m in enumerate(grid.mesh()):
        out = out * (
            math.pi ** -0.25 / math.sqrt(sig[j]) * np.exp(-((m - cen[j]) ** 2) / (2.0 * sig[j] ** 2))
        )
    return out.astype(np.complex128)


def synthesize(kind: str, grid: Grid, **params) -> SampledSignal:
    """Build one of the stock test signals on a grid.

    Kinds:
        gaussian(sigma=1, center=0, normalize=True)
            product Gaussian, continuum-normalized, then (optionally)
            rescaled to unit discrete L2 norm
        chirp(freq=0, rate=0, sigma=extent/16, center=0, normalize=True)
            Gaussian envelope times exp(i (freq x + rate x^2 / 2)) per axis;
            rate = 0 degenerates to a plain tone under the envelope
        noise(seed, band=0.5, sigma=extent/16, normalize=True)
            band-limited complex noise (white on the kept frequency box)
            under a Gaussian envelope so edge samples stay negligible
        boxcar(lo, hi)
            indicator of the closed per-axis box [lo_j, hi_j]

    The envelopes keep every stock signal's edge samples below 1e-12, which
    is what the quadrature error budget of the whole battery assumes.
    """
    kind = kind.lower()
    normalize = bool(params.pop("normalize", True))

    if kind == "gaussian":
        vals = _gaussian_values(grid, params.pop("sigma", 1.0), params.pop("center", 0.0))
    elif kind == "chirp":
        default_sig = tuple(N * s / 16.0 for N, s in zip(grid.counts, grid.spacing))
        env = _gaussian_values(grid, params.pop("sigma", default_sig), params.pop("center", 0.0))
        freq = _per_axis(params.pop("freq", 0.0), grid.n, "freq", float)
        rate = _per_axis(params.pop("rate", 0.0), grid.n, "rate", float)
        phase = np.zeros(grid.counts)
        for j, m in enumerate(grid.mesh()):
            phase = phase + freq[j] * m + 0.5 * rate[j] * m * m
        vals = env * np.exp(1j * phase)
    elif kind == "noise":
        if "seed" not in params:
            raise BadParam("noise needs an explicit seed")
        rng = np.random.default_rng(check_seed(params.pop("seed")))
        band = float(params.pop("band", 0.5))
        if not (0.0 < band <= 1.0):
            raise BadParam("band must sit in (0, 1]")
        spec = rng.standard_normal(grid.counts) + 1j * rng.standard_normal(grid.counts)
        for j in range(grid.n):
            om = TWO_PI * np.fft.fftfreq(grid.counts[j], d=grid.spacing[j])
            keep = np.abs(om) <= band * math.pi / grid.spacing[j]
            shape = [1] * grid.n
            shape[j] = grid.counts[j]
            spec = spec * keep.reshape(shape)
        default_sig = tuple(N * s / 16.0 for N, s in zip(grid.counts, grid.spacing))
        env = _gaussian_values(grid, params.pop("sigma", default_sig), 0.0)
        vals = np.fft.ifftn(spec) * env
    elif kind == "boxcar":
        if "lo" not in params or "hi" not in params:
            raise BadParam("boxcar needs lo and hi")
        lo = _per_axis(params.pop("lo"), grid.n, "lo", float)
        hi = _per_axis(params.pop("hi"), grid.n, "hi", float)
        inside = np.ones(grid.counts, dtype=bool)
        for j, m in enumerate(grid.mesh()):
            inside &= (m >= lo[j]) & (m <= hi[j])
        vals = inside.astype(np.complex128)
        normalize = False
    else:
        raise BadParam(f"unknown signal kind {kind!r}")

    if params:
        raise BadParam(f"unused parameters for {kind}: {sorted(params)}")

    sig = SampledSignal(grid, vals)
    if normalize:
        scale = norm_l2(sig)
        if scale == 0.0:
            raise BadParam("cannot normalize an all-zero signal")
        sig = SampledSignal(grid, sig.values / scale)
    return sig
