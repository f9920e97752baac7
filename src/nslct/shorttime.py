"""Short-time variant: windowed grams, reconstruction, pairings.

A gram tabulates, for every shift u on a stride-s sublattice of the signal
grid, the transform of f(x) * conj(phi(x - u)).  Window shifts are whole
sample steps that wrap around the grid.  Every shifted window is read from
one read-only strided view of the window tiled three times per axis (see
_shifted_windows), so no shift copies the window.  Shift rows go through
the FFT in the chunks of grids._chunks, one FFT call per chunk, under the
one fast-transform plan of the matrix and grid, the same plan the plain
forward and inverse transforms use (transform._plan).  The gram is the
short-time Fourier transform of the chirped signal,
V(u, w) = post(w) STFT_phi(f chirp)(u, B^-1 w): the input chirp is taken
once per gram, so each row is the FFT of (f chirp) conj(phi(x - u)) times
the output factor, and the overlap-add takes the conjugate chirp once, on
its sum.  The plan's chirp carries the sign (-1)^k that does the fftshift
(see transform): gram rows take it from the chirped signal, and the
conjugate chirp takes it off the overlap-add's sum.  The same chunk fill
either builds the gram (stnslct_gram) or feeds each chunk, as it is made,
to one pass that takes sums over the gram without holding it (_gram_sums,
which `verify` uses).

Chunks run on the threads of grids._chunkwise, and the bytes do not depend
on the thread count: each chunk's arithmetic is fixed, and the overlap-add
adds each chunk's rows on the calling thread in one reduce seeded with the
running sum, which adds them one by one in shift order.  No chunk of either
allocates: a gram chunk is made in the gram (or in _gram_sums' scratch), and
an overlap-add chunk in a ring of one buffer per result _chunkwise keeps
alive (grids._ahead).  The overlap-add's window partition is taken once
per WindowSpec (WindowSpec.partition).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadParam, CoverageError, GridMismatch, ZeroSignal
from .grids import (
    Grid, Gram, SampledSignal, _ahead, _chunks, _chunkwise, _result_signal, _sums, _threads, check_gram,
    gram_cell, inner, output_lattice, shift_lattice,
)
from .symplectic import FreeSymplecticMatrix
from .transform import _plan


@dataclass(frozen=True, eq=False)
class WindowSpec:
    """A window signal plus the shift stride; caches the squared norm, and
    the window partition on first use."""

    window: SampledSignal
    stride: int = 1
    norm2: float = field(init=False)

    def __post_init__(self):
        try:
            whole = math.isfinite(self.stride) and int(self.stride) == self.stride
        except TypeError:  # not a real number: None, a string
            whole = False
        if not whole or self.stride < 1:
            raise BadParam("stride must be an integer >= 1")
        object.__setattr__(self, "stride", int(self.stride))
        n2 = inner(self.window, self.window).real
        if n2 <= 0.0:
            raise ZeroSignal("window has zero energy")
        object.__setattr__(self, "norm2", n2)

    @cached_property
    def partition(self) -> np.ndarray:
        """sum_u |phi(x - u)|^2 * ucell over the window's grid, the shifts u
        on the stride's shift lattice (cell ucell): one reduce over the
        shifted view of |phi|^2 (_shifted_windows), read-only, taken once
        per WindowSpec and shared by every reconstruction with it."""
        grid = self.window.grid
        squares, _ = _shifted_windows(grid, self, np.abs(self.window.values) ** 2)
        partition = np.add.reduce(squares, axis=tuple(range(grid.n)))
        partition *= shift_lattice(grid, self.stride).vol
        partition.setflags(write=False)
        return partition


def _shifted_windows(grid: Grid, wspec: WindowSpec, *tables: np.ndarray) -> list:
    """Per table, t(x - u) for every shift u, and the chunks of the shifts.

    Each table is a pointwise function of phi (phi, conj phi, |phi|^2) on
    the grid.  Its shifts come back as one read-only view of shape
    ucounts + counts, the shift lattice's counts first: a sliding window
    over the table tiled three times per axis, stepped by -stride from
    (-origin / spacing) mod N + N on each axis, so no shift copies the
    table.  The chunks are grids._chunks of the ucounts axes, each shift
    holding one grid of points.

    The window must sit on the signal's grid and the grid origin must be
    sample-aligned; both are checked here, on the call, before any row is
    made.  Shifts are whole sample steps counted from the origin, and they
    wrap around the grid: periodizing the window keeps the stride-summed
    partition exactly translation invariant per residue class, so a window
    of all ones reproduces the plain transform on every shift row and
    stride-1 reconstruction with the constant denominator is exact.
    Windows in practice decay well inside the grid, so the wrapped tail is
    below the quadrature noise whenever the usual envelope assumptions hold.
    """
    if wspec.window.grid != grid:
        raise GridMismatch("signal and window must share one grid")
    offs = [o / d for o, d in zip(grid.origin, grid.spacing)]
    if any(abs(r - round(r)) > 1e-9 for r in offs):
        raise GridMismatch("grid origin is not sample-aligned; cannot shift the window")
    s = wspec.stride
    ucounts = shift_lattice(grid, s).counts
    # np.roll by s * i + o reads sample k from k - s * i - o, mod N: window
    # start (-o) % N + N - s * i of the tripled table, which stays in [s, 2N)
    starts = [(-round(r)) % N for r, N in zip(offs, grid.counts)]
    steps = tuple(slice(a + N, a, -s) for a, N in zip(starts, grid.counts))
    views = [sliding_window_view(np.tile(t, (3,) * grid.n), grid.counts)[steps] for t in tables]
    return views + [_chunks(ucounts, grid.size)]


def _gram_source(f: SampledSignal, wspec: WindowSpec, m: FreeSymplecticMatrix):
    """The gram of f under wspec and m as chunks: (shape, chunks, fill).

    fill(chunk, out) writes the transforms of the chunk's shift rows into
    out, which holds the chunk's cells, and returns them; stnslct_gram fills
    its table with it, and _gram_sums takes sums from each chunk it fills.
    Each row is the chirped signal times its conjugate shifted window,
    written into out and put through the plan's FFT and output factor there
    (forward_chirped), so a chunk makes no temporary.
    """
    windows, chunks = _shifted_windows(f.grid, wspec, np.conj(wspec.window.values))
    plan = _plan(f.grid, m)
    chirped = f.values * plan.chirp

    def fill(chunk, out):
        rows = out.reshape(windows[chunk].shape)
        np.multiply(chirped, windows[chunk], out=rows)
        plan.forward_chirped(rows.reshape(-1, *f.grid.counts))
        return rows

    return windows.shape, chunks, fill


def stnslct_gram(f: SampledSignal, wspec: WindowSpec, m: FreeSymplecticMatrix) -> Gram:
    """Tabulate the windowed transform over the (u, w) lattice."""
    shape, chunks, fill = _gram_source(f, wspec, m)
    vals = np.empty(shape, dtype=np.complex128)
    _chunkwise(chunks, lambda chunk, slot: fill(chunk, vals[chunk]), lambda chunk, out: None)
    return Gram(m, f.grid, wspec.stride, vals)


def _gram_sums(f: SampledSignal, wspec: WindowSpec, m: FreeSymplecticMatrix, needs) -> list:
    """The sums in needs (grids._sums) over stnslct_gram(f, wspec, m), each
    taken from a chunk as the gram's fill makes it in one chunk of scratch
    per thread slot, so no gram is held.  Each
    is, bit for bit, the same sum over the kept gram: the cell is the kept
    gram's, from the lattices that f's grid, the stride and m fix."""
    cell = gram_cell(output_lattice(f.grid, m), shift_lattice(f.grid, wspec.stride))
    shape, chunks, fill = _gram_source(f, wspec, m)
    scratch = [np.empty(math.prod(shape) // len(chunks), np.complex128) for _ in range(_threads(chunks))]
    return _sums(needs, cell, shape, chunks, lambda chunk, slot: fill(chunk, scratch[slot]))


def stnslct_reconstruct(
    g: Gram,
    wspec: WindowSpec,
    m: FreeSymplecticMatrix,
    denominator: str = "pointwise",
) -> SampledSignal:
    """Overlap-add synthesis back to the signal grid.

    Each row is inverted exactly up to the input chirp (inverse_chirped) and
    multiplied by its shifted window.  Chunk k of the rows is inverted into
    buffer k % ahead of a ring of ahead = _ahead(chunks) chunk-sized
    buffers, the most results _chunkwise keeps alive (one in its plain
    loop), so no two live chunks share one and no chunk allocates; 1 / post (the plan's unpost) is built once per call.
    Each chunk's rows are added to the running sum in one reduce over the
    chunk, seeded with that sum (rows[0] += sum, then np.add.reduce along
    the rows into it), which adds the rows one by one in shift order, so the
    bytes are a row loop's.  The shift sum is multiplied by the conjugate
    chirp once and divided by the window partition wspec.partition,
    sum_u |phi(x - u)|^2 * ucell evaluated pointwise ("pointwise", the
    default, which makes the discrete round trip exact in principle) or by
    the constant window energy ("constant", the continuum normalization).
    The partition does not depend on the gram: it is taken once per
    WindowSpec and read before any row, so a coverage gap raises
    CoverageError, either way, before any row is inverted.  A result that
    overflows raises NonFiniteOutput.
    """
    if denominator not in ("pointwise", "constant"):
        raise BadParam(f"unknown denominator mode {denominator!r}")
    grid = wspec.window.grid
    check_gram(g, grid, m, wspec.stride)
    windows, chunks = _shifted_windows(grid, wspec, wspec.window.values)
    if float(np.min(wspec.partition)) < 1e-9:
        raise CoverageError("window shifts leave the grid uncovered")
    plan = _plan(grid, m)
    unpost = plan.unpost()
    ahead = _ahead(chunks)
    ring = [np.empty_like(g.values[chunks[0]]).reshape(-1, *grid.counts) for _ in range(ahead)]
    acc = np.zeros(grid.counts, dtype=np.complex128)

    def weighted(item, slot):
        k, chunk = item
        rows = ring[k % ahead]
        plan.inverse_chirped(g.values[chunk].reshape(rows.shape), unpost, rows)
        return np.multiply(rows, windows[chunk].reshape(rows.shape), out=rows)

    def add(item, rows):
        rows[0] += acc
        np.add.reduce(rows, axis=0, out=acc)

    _chunkwise(list(enumerate(chunks)), weighted, add)
    acc *= np.conj(plan.chirp)
    acc *= g.ugrid.vol
    den = wspec.partition if denominator == "pointwise" else wspec.norm2
    return _result_signal(grid, acc / den)


def moyal(g1: Gram, g2: Gram) -> complex:
    """Pairing cell * sum V1 * conj(V2) of two grams on one lattice and matrix.

    One product over the whole gram, as grids.inner takes it for signals,
    holding one gram-sized temporary; on verify's one-chunk 2^15-cell cross
    pairs it is 4x faster than a chunk pass (grids._sums).  The bytes are
    this form's: from 2^14 cells numpy's elision swaps its operands.
    """
    check_gram(g2, g1.signal_grid, g1.matrix, g1.stride)
    return complex(np.sum(g1.values * np.conj(g2.values)) * g1.cell)
