"""Uniform sample grids, signals on them, and the discrete pairings/norms.

Signals live on origin-anchored uniform grids x_k = o + k * delta with
power-of-two counts so the fast transform path can lean on the FFT.  All
integrals are plain Riemann sums (cell volume times a deterministic sum),
which keeps every figure in the test battery bit-reproducible.

Every sum is numpy's pairwise np.sum, taken in one pass over a table's
chunks (_sums): the pass fills or reads a chunk, takes |V| and |V|^2 of it
once, builds each requested term from them (|V|^3 and |V|^4 are the
products |V|^2 |V| and |V|^2 |V|^2), sums it, and adds the chunk sums in a
balanced pairwise tree.  Every value table has 2^k cells, and np.sum of a
contiguous 2^k array splits at exact halves, so the tree gives the bytes of
one np.sum over the whole table without ever holding that table of terms.
Every chunked table, kept or made chunk by chunk, is cut by one rule
(_chunks); the short-time gram's sums can also be taken from its chunks as
they are made, so that the gram itself is never held (shorttime).  Chunks
run on one thread per CPU the process may use (_chunkwise): the calling
thread lends the call to kept slot threads, each held to its own CPU and
idle between calls, and hands out chunk numbers on a queue, _ahead(chunks)
ahead of the chunk it takes next; each thread works its chunks in its own
slot (the sum pass keeps one scratch set per slot), and the first
exception a thread reports is raised on the calling thread.
"""
from __future__ import annotations

import itertools
import math
import operator
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import BadParam, GridMismatch, NonFiniteOutput
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
        # Python floats, so that equal grids (float32 or float64) build equal bytes
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))

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
        return math.prod(self.counts)

    @property
    def vol(self) -> float:
        """Volume of one sample cell."""
        return float(math.prod(self.spacing))

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


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Complex samples attached to their grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        _freeze_values(self, self.grid.counts, "signal")
        if not np.isfinite(self.values).all():
            raise BadParam("signal values must be finite")

    @property
    def cell(self) -> float:
        """Volume of one sample cell."""
        return self.grid.vol


def _result_signal(grid: Grid, values: np.ndarray) -> SampledSignal:
    """A signal the library computed: its one finiteness check raises
    NonFiniteOutput (an overflow), not a caller's BadParam."""
    try:
        return SampledSignal(grid, values)
    except BadParam:  # the only BadParam a signal on a valid grid raises
        raise NonFiniteOutput("signal holds non-finite values (overflow)") from None


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
        return _warp_meshes(self.warp, self.base.mesh())

    def flat_points(self) -> np.ndarray:
        """All lattice points, row-major, as a (size, n) array."""
        return _flat_points(self.point_meshes(), self.base.counts)


def _warp_meshes(warp: np.ndarray, meshes: list[np.ndarray]) -> list[np.ndarray]:
    """sum_j L_ij m_j for each i over broadcastable coordinate axes m_j."""
    n = len(meshes)
    return [sum(warp[i, j] * meshes[j] for j in range(n)) for i in range(n)]


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
class Spectrum:
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
        check_dimension(self.signal_grid, self.matrix)
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
class Gram:
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
        check_dimension(self.signal_grid, self.matrix)
        ugrid = shift_lattice(self.signal_grid, self.stride)
        object.__setattr__(self, "ugrid", ugrid)
        _freeze_values(self, ugrid.counts + self.signal_grid.counts, "gram")

    @cached_property
    def wgrid(self) -> WarpedGrid:
        return output_lattice(self.signal_grid, self.matrix)

    @property
    def cell(self) -> float:
        """Volume of one (u, w) cell."""
        return gram_cell(self.wgrid, self.ugrid)


def gram_cell(wgrid: WarpedGrid, ugrid: Grid) -> float:
    """Volume of one (u, w) cell of a gram on shift lattice ugrid and output
    lattice wgrid, whether the gram is kept (Gram.cell) or never held."""
    return wgrid.cell * ugrid.vol


def check_gram(g: Gram, grid: Grid, m: FreeSymplecticMatrix, stride: int | None = None):
    """Raise GridMismatch unless g was made on grid, under m and, when a
    stride is given, at that stride."""
    if g.signal_grid != grid or (stride is not None and g.stride != stride):
        raise GridMismatch("gram was made on another grid or stride")
    if not same_matrix(g.matrix, m):
        raise GridMismatch("gram was produced under a different matrix")


@lru_cache(maxsize=8)
def frequency_grid(grid: Grid) -> Grid:
    """FFT frequency lattice of a signal grid, in ascending order.

    omega_j runs over 2 pi m / (N_j delta_j) for m in [-N_j/2, N_j/2).
    A grid is immutable, so the lattices of the 8 most recently used grids
    are kept: every fresh spectrum's cell reads one.
    """
    spacing = tuple(TWO_PI / (N * s) for N, s in zip(grid.counts, grid.spacing))
    origin = tuple(-(N // 2) * s for N, s in zip(grid.counts, spacing))
    return Grid(grid.counts, spacing, origin)


# ---------------------------------------------------------------------------
# threads and the sum pass

# Cells per chunk (512 KB of complex128), read only by _chunks, the one cut
# of every chunked table: gram and overlap-add shift rows, nslct_direct's
# points and the sum pass's kept tables.  A chunk is also the unit of work
# of _chunkwise's threads.  On 2 shared CPUs, single-threaded gram chunks of
# 2^13, 2^15, 2^16 and 2^17 points timed within noise of each other on a
# 2048-point and a 64^2 gram; 2^14 was 1.5x slower on the 2048-point gram,
# and one call over the whole stack of rows 1.2-1.5x slower on both (see
# ROADMAP, "Do not retry", item 4).
_CHUNK_POINTS = 2**15

# The CPUs this process may run on, the most threads a call uses.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _threads(chunks: list) -> int:
    """The threads a chunked pass runs on: one per chunk, up to _WORKERS,
    read when called (so a caller sizing per-thread buffers with it sees
    the count _chunkwise will use)."""
    return min(_WORKERS, len(chunks))


def _chunks(lead: tuple[int, ...], row: int) -> list[tuple]:
    """Index tuples that cut a table's leading axes lead, whose entries hold
    row cells each, into runs of max(1, _CHUNK_POINTS // row) entries in
    row-major order: (*i, slice(j, j + run)), i indexing the first axes.
    With power-of-two counts every chunk is an equal contiguous run; only a
    single ragged axis (nslct_direct's points) can end in a shorter one.
    """
    step = max(1, _CHUNK_POINTS // row)
    k, inner = len(lead) - 1, 1  # the axis cut into runs, and the entries under one of its indices
    while k > 0 and inner * lead[k] <= step:
        inner *= lead[k]
        k -= 1
    run = step // inner
    return [(*i, slice(j, j + run)) for i in itertools.product(*map(range, lead[:k]))
            for j in range(0, lead[k], run)]


# The kept slot threads: entry i is the inbox of slot i's thread, which is
# started on first use and then waits on its inbox between calls (_slot).
_slots: list = []
_starting = threading.Lock()
_in_slot = threading.local()  # .slot is True on a slot thread


def _forget_slots():
    """In a forked child: the parent's slot threads were not copied, so the
    child starts its own on first use."""
    global _starting
    _slots.clear()
    _starting = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_slots)


def _slot(slot: int, inbox, cpus: list):
    """A slot thread: held once to its own CPU, then runs each call lent to
    it, job(slot), one at a time, for the life of the process."""
    _in_slot.slot = True
    try:
        if cpus:
            os.sched_setaffinity(0, {cpus[slot % len(cpus)]})
    except OSError:  # the CPU left the process's set meanwhile: run unpinned
        pass
    while True:
        inbox.get()(slot)


def _ahead(chunks: list) -> int:
    """The most chunk results _chunkwise keeps alive at once: 1 in its plain
    loop (one thread, or a call from a slot thread), else the thread count
    + 1, the chunks it hands out ahead of the one it takes next."""
    workers = _threads(chunks)
    return 1 if workers == 1 or getattr(_in_slot, "slot", False) else workers + 1


def _chunkwise(chunks: list, work, take) -> None:
    """take(chunk, work(chunk, slot)) for every chunk, in order, with work run on threads.

    work runs on slot threads 0, 1, ..., _threads(chunks) - 1, kept across
    calls: each is started here on first use, as a daemon, holds itself to
    its own CPU of the process once, and waits idle between calls.  (Left
    to the scheduler, threads often shared one CPU of a 2-CPU Linux host
    and ran no faster than one; started per call, their start, pin and
    join cost a 512^2 transform about 0.5 ms.)  With one thread, or when
    called from a slot thread, work runs in a plain loop on the calling
    thread as slot 0.  The calling thread hands out chunk numbers on a
    queue, _ahead(chunks) ahead of the chunk it passes to take next, and
    passes the results to take in chunk order: chunk k + ahead is handed
    out only after take has returned for chunk k, so at most ahead results
    are alive at once, and work may write chunk k's result into buffer
    k % ahead of a ring of that many.  The first exception that a thread
    reports is raised here, and every slot lent to the call has left it,
    its last chunk finished, before this returns.
    """
    ahead = _ahead(chunks)
    if ahead == 1:
        for chunk in chunks:
            take(chunk, work(chunk, 0))
        return
    import queue  # here, so that the plain loop and `import nslct.cli` never load it

    workers = ahead - 1
    with _starting:
        while len(_slots) < workers:
            cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
            _slots.append(queue.SimpleQueue())
            threading.Thread(target=_slot, args=(len(_slots) - 1, _slots[-1], cpus), daemon=True).start()
    todo, done = queue.SimpleQueue(), queue.SimpleQueue()

    def run(slot):
        while (k := todo.get()) is not None:
            try:
                done.put((k, work(chunks[k], slot), None))
            except BaseException as exc:  # handed to the calling thread, which raises it
                done.put((k, None, exc))
        done.put((None, None, None))  # this slot has left the call

    for inbox in _slots[:workers]:
        inbox.put(run)
    try:
        for k in range(min(ahead, len(chunks))):
            todo.put(k)
        made = {}
        for k, chunk in enumerate(chunks):
            while k not in made:
                j, out, exc = done.get()
                if exc is not None:
                    raise exc
                made[j] = out
            take(chunk, made.pop(k))
            if k + ahead < len(chunks):  # the chunk taken is freed first
                todo.put(k + ahead)
    finally:
        for _ in range(workers):
            todo.put(None)
        left = 0
        while left < workers:
            left += done.get()[0] is None


def _sums(needs, cell: float, shape: tuple[int, ...], chunks: list, read) -> list:
    """Every sum in needs over one table V, in one pass over its chunks.

    The table has shape, 2^k cells, and comes in chunks: equal runs of 2^j
    cells in row-major order; read(chunk, slot) returns a chunk's values,
    from a kept table or made into the scratch that the caller keeps for
    thread slot slot.  A need is (p, weight) for cell * sum |V|^p * weight,
    weight None or spanning the trailing (grid) axes of V, or (inf, None)
    for max |V|.  Results come in the order of needs.

    The chunks run on _chunkwise's threads, each thread slot working in its
    own set of scratch arrays from the calling thread, only those that the
    needs use (|V|^2 overwrites |V| when no term reads |V|), and take |V|
    and |V|^2 once.  Each term is built from them in the ufuncs and operand
    order of its expression over the whole table: with sq = |V| ** 2, the
    power is |V|, sq, sq * |V| or sq * sq at p = 1, 2, 3 or 4 and |V| ** p
    at any other p, times weight if given.  Each is summed by one np.sum
    per chunk, and the chunk sums are added in a pairwise tree (_tree), so
    each sum is, bit for bit, one np.sum over the whole table of terms,
    without that table ever being held.
    """
    keys = list({(p, id(w)): (p, w) for p, w in needs}.values())
    step = math.prod(shape) // len(chunks)
    args = [w if w is None else np.broadcast_to(w, shape[len(shape) - np.ndim(w):]).reshape(-1)
            for _, w in keys]
    squared = any(p in (2.0, 3.0, 4.0) for p, _ in keys)
    apart = any(p not in (2.0, 4.0) for p, _ in keys)  # |V| is read after |V|^2 is taken
    made = any(p not in (1.0, 2.0, math.inf) or w is not None for p, w in keys)  # a term of its own

    def slot_scratch():
        mags = np.empty(step)
        return mags, np.empty(step) if squared and apart else mags, np.empty(step) if made else None

    scratch = [slot_scratch() for _ in range(_threads(chunks))]

    def chunk_sums(item, slot):
        k, chunk = item
        mags, squares, terms = scratch[slot]
        np.abs(read(chunk, slot).reshape(-1), out=mags)
        if squared:
            np.square(mags, out=squares)
        out = []
        for (p, _), w in zip(keys, args):
            if p == math.inf:
                out.append(np.max(mags))
            else:
                t = (mags if p == 1.0 else squares if p == 2.0
                     else np.multiply(squares, mags if p == 3.0 else squares, out=terms) if p in (3.0, 4.0)
                     else np.power(mags, p, out=terms))
                if w is not None:  # the chunk's run of the weight, over each of its grid rows
                    run = w[k * step % w.size:][:step]
                    np.multiply(t.reshape(-1, run.size), run, out=terms.reshape(-1, run.size))
                    t = terms
                out.append(np.sum(t))
        return out

    per_chunk = []
    _chunkwise(list(enumerate(chunks)), chunk_sums, lambda item, sums: per_chunk.append(sums))
    found = {(p, id(w)): float(max(sums)) if p == math.inf else float(cell * _tree(sums))
             for (p, w), sums in zip(keys, zip(*per_chunk))}
    return [found[p, id(w)] for p, w in needs]


def _tree(sums: list):
    """The sums of equal 2^j-cell blocks of a 2^k-cell table, added in a
    balanced pairwise tree: one np.sum of the table, bit for bit."""
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return sums[0]


def _table_sums(obj, needs) -> list:
    """_sums over the kept values of a signal, spectrum or gram, read in the contiguous slabs of _chunks."""
    values = obj.values
    return _sums(needs, obj.cell, values.shape, _chunks(values.shape, 1), lambda chunk, slot: values[chunk])


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
    """cell * sum |values|^p, times weight if given, of a signal, spectrum or gram
    (max |values| at p = inf): the one need (p, weight) of _sums."""
    return _table_sums(obj, [(p, weight)])[0]


def lp_norm(obj, p: float) -> float:
    """Discrete L^p norm of a signal, spectrum or gram (p = inf for the sup)."""
    if not (p >= 1.0):
        raise BadParam(f"p = {p} is outside [1, inf]")
    total = _power_sum(obj, p)
    return total if p == math.inf else total ** (1.0 / p)


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
    out = 1.0  # the product over the axes broadcasts to the grid
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
        phase = 0.0  # the sum over the axes broadcasts to the grid
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
