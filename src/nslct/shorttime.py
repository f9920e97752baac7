"""Short-time variant: windowed grams, reconstruction, pairings.

A gram tabulates, for every shift u on a stride-s sublattice of the signal
grid, the transform of f(x) * conj(phi(x - u)).  Window shifts are whole
sample steps that wrap around the grid, read as views into the window tiled
twice per axis (see _shifted_windows), so no shift copies the window.  Shift
rows go through the FFT in chunks of about _CHUNK_POINTS points, one FFT call
per chunk, under the one fast-transform plan of the matrix and grid, the
same plan the plain forward and inverse transforms use (transform._plan).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParam, CoverageError, GridMismatch, ZeroSignal
from .grids import Grid, Gram, SampledSignal, check_gram, inner, shift_lattice
from .symplectic import FreeSymplecticMatrix
from .transform import _CHUNK_POINTS, _plan


@dataclass(frozen=True, eq=False)
class WindowSpec:
    """A window signal plus the shift stride; caches the squared norm."""

    window: SampledSignal
    stride: int = 1
    norm2: float = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.stride) or int(self.stride) != self.stride or self.stride < 1:
            raise BadParam("stride must be an integer >= 1")
        object.__setattr__(self, "stride", int(self.stride))
        n2 = inner(self.window, self.window).real
        if n2 <= 0.0:
            raise ZeroSignal("window has zero energy")
        object.__setattr__(self, "norm2", n2)


def _shifted_windows(grid: Grid, wspec: WindowSpec) -> list:
    """Chunks of shift rows, with the slices of phi(x - u) for each row.

    The shifts u of the stride lattice run in row-major order; they are cut
    into chunks of consecutive rows, about _CHUNK_POINTS points each, and
    each chunk is returned as (rows, slices): the slice of those rows in the
    gram's row stack, and per row the slices that cut phi(x - u) out of
    np.tile(phi, (2,) * n), or out of a pointwise function of phi tiled the
    same way, as a view: no shift copies the window.  The window must sit
    on the signal's grid and the grid origin must be sample-aligned; both
    are checked here, on the call, before any row is made.  Shifts are
    whole sample steps counted from the origin, and they wrap around the
    grid: periodizing the window keeps the stride-summed partition exactly
    translation invariant per residue class, so a window of all ones
    reproduces the plain transform on every shift row and stride-1
    reconstruction with the constant denominator is exact.  Windows in
    practice decay well inside the grid, so the wrapped tail is below the
    quadrature noise whenever the usual envelope assumptions hold.
    """
    if wspec.window.grid != grid:
        raise GridMismatch("signal and window must share one grid")
    counts = shift_lattice(grid, wspec.stride).counts
    offs = [o / d for o, d in zip(grid.origin, grid.spacing)]
    if any(abs(r - round(r)) > 1e-9 for r in offs):
        raise GridMismatch("grid origin is not sample-aligned; cannot shift the window")
    s, lead = wspec.stride, [round(r) for r in offs]
    # np.roll by s * i + o reads sample k from k - s * i - o, mod N
    views = []
    for idx in np.ndindex(counts):
        starts = [(-s * i - o) % N for i, o, N in zip(idx, lead, grid.counts)]
        views.append(tuple(slice(a, a + N) for a, N in zip(starts, grid.counts)))
    step = max(1, _CHUNK_POINTS // grid.size)
    return [(slice(k, k + step), views[k:k + step]) for k in range(0, len(views), step)]


def stnslct_gram(f: SampledSignal, wspec: WindowSpec, m: FreeSymplecticMatrix) -> Gram:
    """Tabulate the windowed transform over the (u, w) lattice."""
    chunks = _shifted_windows(f.grid, wspec)
    plan = _plan(f.grid, m)
    ucounts = shift_lattice(f.grid, wspec.stride).counts
    vals = np.empty(ucounts + f.grid.counts, dtype=np.complex128)
    rows = vals.reshape(-1, *f.grid.counts)
    conj_tile = np.tile(np.conj(wspec.window.values), (2,) * f.grid.n)
    for span, slices in chunks:
        part = rows[span]
        for row, sl in zip(part, slices):
            np.multiply(f.values, conj_tile[sl], out=row)
        plan.forward_values(part, out=part)
    return Gram(m, f.grid, wspec.stride, vals)


def stnslct_reconstruct(
    g: Gram,
    wspec: WindowSpec,
    m: FreeSymplecticMatrix,
    denominator: str = "pointwise",
) -> SampledSignal:
    """Overlap-add synthesis back to the signal grid.

    Each row is inverted exactly, multiplied by its shifted window, and the
    shift sum is divided by the window partition sum_u |phi(x - u)|^2 * ucell
    evaluated pointwise ("pointwise", the default, which makes the discrete
    round trip exact in principle) or by the constant window energy
    ("constant", the continuum normalization).  Coverage gaps raise
    CoverageError either way.
    """
    if denominator not in ("pointwise", "constant"):
        raise BadParam(f"unknown denominator mode {denominator!r}")
    grid = wspec.window.grid
    check_gram(g, grid, m, wspec.stride)
    chunks = _shifted_windows(grid, wspec)
    plan = _plan(grid, m)
    tile = np.tile(wspec.window.values, (2,) * grid.n)
    sq_tile = np.abs(tile) ** 2

    acc = np.zeros(grid.counts, dtype=np.complex128)
    partition = np.zeros(grid.counts)
    rows = g.values.reshape(-1, *grid.counts)
    for span, slices in chunks:
        inverted = plan.inverse_values(rows[span])
        for row, sl in zip(inverted, slices):
            acc += np.multiply(row, tile[sl], out=row)
            partition += sq_tile[sl]
    acc *= g.ugrid.vol
    partition *= g.ugrid.vol
    if float(np.min(partition)) < 1e-9:
        raise CoverageError("window shifts leave the grid uncovered")
    den = partition if denominator == "pointwise" else wspec.norm2
    return SampledSignal(grid, acc / den)


def moyal(g1: Gram, g2: Gram) -> complex:
    """Pairing of two grams over their shared (u, w) lattice and matrix."""
    check_gram(g2, g1.signal_grid, g1.matrix, g1.stride)
    return complex(np.sum(g1.values * np.conj(g2.values)) * g1.cell)
