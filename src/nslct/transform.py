"""Canonical-transform kernel and the direct / fast / inverse evaluators.

The transform of a signal f under a free symplectic matrix M = (A, B : C, D)
is the integral of f against the kernel

    K_M(x, w) = (2 pi)^(-n/2) |det B|^(-1/2)
                * exp(i/2 (w^T D B^-1 w - 2 w^T B^-T x + x^T B^-1 A x))

The fast path factors this into chirp * FFT * chirp: multiply by the input
chirp exp(i x^T B^-1 A x / 2), take the unitary-convention Fourier transform,
read it off at B^-1 w, and apply the output chirp and the |det B|^(-1/2)
weight.  On the warped FFT lattice w = B omega this agrees with the direct
quadrature identically, so inversion is exact up to rounding.

The two chirps of a (matrix, grid) pair form its plan.  A plan is built once
per matrix object and grid, shared by the forward and inverse transforms and
the short-time gram and reconstruction, and kept in its grid's record, which
also holds what every plan on the grid reads of the grid alone; it is freed
when its matrix dies or its grid leaves the 8 most recently used grids.  A
plan transforms one grid or a stack of them over the last n axes.  Its input
chirp carries the sign (-1)^(k_1 + ... + k_n) of sample index k, which does
the fftshift: by the DFT's modulation property, on even counts
fft(x (-1)^k) is fftshift(fft(x)) and ifft(y) (-1)^k is ifft(ifftshift(y)).
The sign is an exact negation and numpy's FFT keeps both identities byte
for byte, up to the sign of an exact zero, so no quadrant is ever moved.

In 2-D, nslct_fast and nslct_inverse take the FFT over the whole grid in
passes on the chunk runner's threads (grids._chunkwise): the row blocks,
then the column blocks, the order in which fftn works through the axes,
so the bytes are one fftn's; the output factor takes a third pass over
the row blocks (_passes).  1-D transforms and the gram's stacked rows keep
one FFT call each.
"""
from __future__ import annotations

import math
import weakref
from functools import lru_cache, partial

import numpy as np

from .errors import BadParam, GridMismatch
from .grids import (
    Grid, SampledSignal, Spectrum, _chunks, _chunkwise, _result_signal, _threads, _warp_meshes,
    check_dimension, frequency_grid,
)
from .symplectic import FreeSymplecticMatrix, _close, same_matrix


def _points(p, n: int) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape == (0,):
        arr = arr.reshape(0, n)
    if arr.ndim == 0 or n == 1 and arr.shape[-1] != 1:
        arr = arr[..., np.newaxis]
    if arr.shape[-1] != n:
        raise GridMismatch(f"points with last axis {arr.shape[-1]} do not match n={n}")
    if not np.all(np.isfinite(arr)):
        raise BadParam("points must be finite")
    return arr


def _columns(p, n: int) -> list[np.ndarray]:
    """A point set (coordinates on the last axis) as one array per axis."""
    arr = _points(p, n)
    return [arr[..., j] for j in range(n)]


def _form(us, q: np.ndarray, vs) -> np.ndarray:
    """sum_ij q_ij u_i v_j over broadcastable coordinate arrays, zero q_ij
    skipped, in their broadcast shape (a read-only broadcast view when the
    live terms do not span it).

    The sum starts from its first term, not from zeros: 0 + x differs from
    x only in the sign of a zero, which exp(i x) does not see.
    """
    shape = np.broadcast(*us, *vs).shape
    out = None
    for i in range(len(us)):
        for j in range(len(vs)):
            if q[i, j] != 0.0:
                term = q[i, j] * (us[i] * vs[j])
                if out is None:
                    out = term
                elif out.shape == shape:
                    out += term
                else:
                    out = out + term
    if out is None:
        return np.zeros(shape)
    return out if out.shape == shape else np.broadcast_to(out, shape)


def _unit_phase(phase: np.ndarray) -> np.ndarray:
    """exp(i phase), taken in place in the complex copy of phase."""
    out = 1j * phase
    return np.exp(out, out=out)


def _chirp(xs, q: np.ndarray) -> np.ndarray:
    """exp(i x^T q x / 2) over coordinate arrays xs."""
    return _unit_phase(0.5 * _form(xs, q, xs))


def _amplitude(m: FreeSymplecticMatrix, vol: float = 1.0) -> float:
    """vol * (2 pi)^(-n/2) |det B|^(-1/2), the kernel's weight times a cell volume."""
    return vol * (2.0 * math.pi) ** (-m.n / 2.0) / math.sqrt(abs(m.det_b))


def kernel_eval(m: FreeSymplecticMatrix, x, w) -> np.ndarray:
    """Evaluate K_M at x and w (coordinates on the last axis, broadcastable).

    Scalars are fine for n = 1.  Returns a complex array shaped by the
    broadcast of the two point sets.
    """
    xs, ws = _columns(x, m.n), _columns(w, m.n)
    phase = 0.5 * _form(ws, m.db_inv, ws) - _form(ws, m.b_invt, xs) + 0.5 * _form(xs, m.b_inva, xs)
    return _amplitude(m) * np.exp(1j * phase)


def _axis_factor(om: np.ndarray, grid: Grid, j: int) -> np.ndarray:
    """exp(-i om x) for each om and each x on grid axis j, as (om.size, N_j).

    Sample a N_b + b of the axis sits at (x_0 + a N_b d) + b d, so the
    factor is the outer product of a coarse table of N_j / N_b exps per om
    and a fine one of N_b, with N_b about sqrt(N_j).
    """
    N, d = grid.counts[j], grid.spacing[j]
    nb = 1 << (N.bit_length() - 1) // 2
    coarse = _unit_phase(-np.multiply.outer(om, grid.axis(j)[::nb]))
    fine = _unit_phase(-np.multiply.outer(om, d * np.arange(nb)))
    return (coarse[:, :, np.newaxis] * fine[:, np.newaxis, :]).reshape(om.size, N)


def nslct_direct(f: SampledSignal, m: FreeSymplecticMatrix, wpoints) -> np.ndarray:
    """Brute-force quadrature vol * sum_k f_k K_M(x_k, w) at each point w.

    The phase splits into the input chirp x^T B^-1 A x / 2, taken once on
    the grid into G = f * exp(i x^T B^-1 A x / 2); the output chirp
    w^T D B^-1 w / 2 per point; and the cross term -omega . x, omega = B^-1 w,
    which factors per axis on the uniform grid.  Points go in the chunks of
    grids._chunks, each point holding a factor row of the longest axis: per
    chunk E_j = exp(-i omega_j x_j) over axis j (_axis_factor), and the sum
    is E_0 @ G in 1-D and the row sums of (E_0 @ G) * E_1 in 2-D.

    This is the oracle the fast path is checked against; it is
    O(#w * #grid), makes no use of the FFT and reads no plan, though its
    chirps come from the plan's _chirp and _amplitude.
    """
    check_dimension(f.grid, m)
    grid = f.grid
    pts = _points(wpoints, m.n).reshape(-1, m.n)
    g = f.values * _chirp(grid.mesh(), m.b_inva)
    omega = pts @ m.b_invt
    out = _amplitude(m, grid.vol) * _chirp(pts.T, m.db_inv)
    for chunk in _chunks(pts.shape[:1], max(grid.counts)):
        om = omega[chunk]
        acc = _axis_factor(om[:, 0], grid, 0) @ g
        if grid.n == 2:
            acc *= _axis_factor(om[:, 1], grid, 1)
            acc = acc.sum(axis=1)
        out[chunk] *= acc
    return out


class _GridAxes:
    """A grid's record: what a plan reads of its grid alone, and the plans
    made on the grid, built once per grid and kept by _grid_axes.

    Per axis, as broadcastable N_j-long arrays (Grid.mesh layout): the
    sample axis x_j, the FFT-frequency axis omega_j (frequency_grid's) and
    the carrier omega_j o_j; and the cell volume and the FFT pair.  Plans
    under every matrix on the grid share it, so every array is read-only,
    and it holds no full-grid array.  plans
    maps each matrix object to its plan on the grid and drops the plan with
    the matrix.  The key is the object, not same_matrix: a matrix within its
    tolerance would get a plan that is not bit for bit its own.
    """

    def __init__(self, grid: Grid):
        self.plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.xs = grid.mesh()
        self.omegas = frequency_grid(grid).mesh()
        self.carriers = [om * o for om, o in zip(self.omegas, grid.origin)]
        for arr in (*self.xs, *self.omegas, *self.carriers):
            arr.setflags(write=False)
        self.vol = grid.vol
        # the FFT over the last n axes: in 1-D np.fft.fft gives fftn's bytes
        # without its argument handling (ifft2 drops out=)
        self.fft, self.ifft = (np.fft.fft, np.fft.ifft) if grid.n == 1 else (
            partial(np.fft.fftn, axes=(-2, -1)), partial(np.fft.ifftn, axes=(-2, -1)))


# The records of the 8 most recently used grids.  Without its plans a record
# holds a few N_j-long arrays per axis, kilobytes even at 512^2.
_grid_axes = lru_cache(maxsize=8)(_GridAxes)


class _FastPlan:
    """Precomputed pointwise factors of the chirp-FFT-chirp pipeline, read off
    the grid's shared axes (_grid_axes).

    Built once per (matrix object, grid) by _plan and shared by every call
    under that pair, so both arrays are read-only; its callers apply the
    input chirp.  It holds no reference to its matrix, which keeps the
    matrix, and with it the plan, collectable.
    chirp is the input chirp times (-1)^(k_1 + ... + k_n), which does the
    fftshift of the FFT after it and, conjugated, the ifftshift of the
    inverse FFT before it (see the module docstring).  The sign negates the
    odd cells of each axis in place; a negation is exact, so each product
    with chirp is the unsigned chirp's product negated on those cells.
    The factors are built, and applied, in place where that leaves the bytes
    unchanged: a kept plan adds two full-grid arrays to the caller's peak
    memory, and each temporary saved offsets part of that.
    """

    def __init__(self, grid: Grid, m: FreeSymplecticMatrix):
        check_dimension(grid, m)
        axes = _grid_axes(grid)
        self.chirp = _chirp(axes.xs, m.b_inva)
        for j in range(grid.n):
            odd = self.chirp[(slice(None),) * j + (slice(1, None, 2),)]
            np.negative(odd, out=odd)
        ws = _warp_meshes(m.b, axes.omegas)
        phase = 0.5 * _form(ws, m.db_inv, ws)
        del ws  # freed before the carrier omega . x_0 and the exp
        phase -= sum(axes.carriers)
        self.post = _unit_phase(phase)
        amp = _amplitude(m, axes.vol)
        self.post *= amp
        self.unscale = 1.0 / (amp * amp)  # 1 / post = conj(post) * unscale
        self.chirp.setflags(write=False)
        self.post.setflags(write=False)
        self.fft, self.ifft = axes.fft, axes.ifft

    def forward_chirped(self, chirped: np.ndarray) -> np.ndarray:
        """Transform values already multiplied by the input chirp, in place:
        the FFT over chirped, which the chirp's sign has fftshifted, times
        the output factor; returns chirped."""
        self.fft(chirped, out=chirped)
        return np.multiply(chirped, self.post, out=chirped)

    def unpost(self) -> np.ndarray:
        """1 / post as conj(post) * unscale (post has modulus amp everywhere,
        unscale = 1 / amp^2): a new grid array, built once per inverse or
        overlap-add, not kept, so a kept plan holds no third array."""
        unpost = np.conj(self.post)
        unpost *= self.unscale
        return unpost

    def inverse_chirped(self, values: np.ndarray, unpost: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Undo forward_chirped up to the input chirp, into out: values *
        unpost (self.unpost()) written into out, then the inverse FFT in
        place there, whose ifftshift the conjugate chirp's sign does;
        returns out and allocates nothing.  The product is a multiply where
        a complex division by post costs about three times as much.
        """
        np.multiply(values, unpost, out=out)
        self.ifft(out, out=out)
        return out


def _passes(out: np.ndarray, first, transform, last):
    """A 2-D whole-grid transform of out in three passes, each on
    grids._chunkwise over grids._chunks' blocks of whole rows or columns:
    first(block, slot) over the row blocks, which leaves each row
    transformed along axis -1; transform (np.fft.fft or ifft) in place
    along axis -2 over the column blocks; last(block, slot) over the row
    blocks.  fftn over (-2, -1) transforms along axis -1 first, then along
    -2, each line on its own, so the passes give its bytes.  The output
    factor takes a pass of its own because a product over a column block
    (strided rows) runs through numpy's buffered iterator, about 4x slower
    than over a row block, and traces its buffers."""
    n0, n1 = out.shape
    rows, columns = _chunks((n0,), n1), [(slice(None), *c) for c in _chunks((n1,), n0)]

    def along_columns(block, slot):
        transform(out[block], axis=-2, out=out[block])

    for blocks, work in ((rows, first), (columns, along_columns), (rows, last)):
        _chunkwise(blocks, work, _in_place)


def _in_place(block, result):
    """The take of a pass whose work wrote its block in place."""


def _plan(grid: Grid, m: FreeSymplecticMatrix) -> _FastPlan:
    """The plan of m on grid, built on first use and kept in the grid's
    record until m dies or the grid leaves _grid_axes."""
    plans = _grid_axes(grid).plans
    plan = plans.get(m)
    if plan is None:  # _FastPlan refuses a matrix of another dimension, so it is never stored
        plan = plans[m] = _FastPlan(grid, m)
    return plan


def nslct_fast(f: SampledSignal, m: FreeSymplecticMatrix) -> Spectrum:
    """Transform on the warped FFT lattice w = B omega in O(N log N): the
    values times the input chirp, the FFT, times the output factor.  In 2-D
    this runs in three passes (_passes)."""
    plan, values = _plan(f.grid, m), f.values
    if values.ndim == 1:
        return Spectrum(m, plan.forward_chirped(values * plan.chirp), f.grid)
    out = np.empty_like(values)

    def chirped(block, slot):
        run = out[block]
        np.multiply(values[block], plan.chirp[block], out=run)
        np.fft.fft(run, axis=-1, out=run)

    def posted(block, slot):
        np.multiply(out[block], plan.post[block], out=out[block])

    _passes(out, chirped, np.fft.fft, posted)
    return Spectrum(m, out, f.grid)


def nslct_inverse(spec: Spectrum, m: FreeSymplecticMatrix) -> SampledSignal:
    """Undo nslct_fast; exact (to rounding) on its own lattice: the values
    times unpost, the inverse FFT, times the conjugate input chirp.  In 2-D
    this runs in three passes (_passes), each thread slot taking its runs
    of unpost (conj(post) * unscale) and conj(chirp) in one row block of
    scratch from the calling thread, so no full-grid factor is built.

    Raises GridMismatch unless m is the matrix the spectrum was made under,
    and NonFiniteOutput if the result overflows.
    """
    if not same_matrix(spec.matrix, m):
        raise GridMismatch("spectrum was produced under a different matrix")
    plan, values = _plan(spec.signal_grid, m), spec.values
    out = np.empty_like(values)
    if values.ndim == 1:
        plan.inverse_chirped(values, plan.unpost(), out)
        out *= np.conj(plan.chirp)
        return _result_signal(spec.signal_grid, out)
    rows = _chunks(out.shape[:1], out.shape[1])
    scratch = [np.empty_like(out[rows[0]]) for _ in range(_threads(rows))]

    def unposted(block, slot):
        unpost = np.conj(plan.post[block], out=scratch[slot])
        unpost *= plan.unscale
        run = np.multiply(values[block], unpost, out=out[block])
        np.fft.ifft(run, axis=-1, out=run)

    def unchirped(block, slot):
        np.multiply(out[block], np.conj(plan.chirp[block], out=scratch[slot]), out=out[block])

    _passes(out, unposted, np.fft.ifft, unchirped)
    del scratch  # freed before the finiteness check
    return _result_signal(spec.signal_grid, out)


def spectrum_as_signal(spec: Spectrum) -> SampledSignal:
    """Reinterpret a spectrum as samples on its own (uniform) lattice.

    Only a positive diagonal warp keeps the lattice a uniform ascending
    grid; anything else raises GridMismatch.  This is the bridge that lets
    transforms be chained.
    """
    base, warp = spec.wgrid.base, spec.wgrid.warp
    diag = np.diag(warp)
    if not _close(warp, np.diag(diag)) or np.any(diag <= 0.0):
        raise GridMismatch("warped lattice is uniform only for positive diagonal B")
    grid = Grid(base.counts, tuple(float(s) * d for s, d in zip(diag, base.spacing)),
                tuple(float(s) * o for s, o in zip(diag, base.origin)))
    return SampledSignal(grid, spec.values)
