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
the short-time gram and reconstruction, and lives as long as its matrix.  It
transforms one grid or a stack of them over the last n axes, and folds the
fftshift into the output factor.
"""
from __future__ import annotations

import itertools
import math
import weakref
from functools import partial

import numpy as np

from .errors import BadParam, GridMismatch
from .grids import Grid, SampledSignal, Spectrum, check_dimension, output_lattice
from .symplectic import FreeSymplecticMatrix, _close, same_matrix

# Points per chunk (512 KB of complex128): the short-time gram and its
# overlap-add send this many points of shift rows through one FFT call, and
# nslct_direct builds its per-axis factors for this many entries at a time.
# On 2 shared CPUs, gram chunks of 2^13, 2^15, 2^16 and 2^17 points timed
# within noise of each other on a 2048-point and a 64^2 gram; 2^14 was 1.5x
# slower on the 2048-point gram, and one call over the whole stack of rows
# 1.2-1.5x slower on both (see ROADMAP, "Do not retry", item 4).
_CHUNK_POINTS = 2**15


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
    """sum_ij q_ij u_i v_j over broadcastable coordinate arrays, zero q_ij skipped."""
    out = np.zeros(np.broadcast(*us, *vs).shape)
    for i in range(len(us)):
        for j in range(len(vs)):
            if q[i, j] != 0.0:
                out += q[i, j] * (us[i] * vs[j])
    return out


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
    which factors per axis on the uniform grid.  Points go in chunks of
    about _CHUNK_POINTS factor entries: per chunk E_j = exp(-i omega_j x_j)
    over axis j (_axis_factor), and the sum is E_0 @ G in 1-D and the row
    sums of (E_0 @ G) * E_1 in 2-D.

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
    step = max(1, _CHUNK_POINTS // max(grid.counts))
    for k in range(0, pts.shape[0], step):
        om = omega[k:k + step]
        acc = _axis_factor(om[:, 0], grid, 0) @ g
        if grid.n == 2:
            acc *= _axis_factor(om[:, 1], grid, 1)
            acc = acc.sum(axis=1)
        out[k:k + step] *= acc
    return out


class _FastPlan:
    """Precomputed pointwise factors of the chirp-FFT-chirp pipeline, read off
    broadcastable coordinate axes (Grid.mesh, WarpedGrid.point_meshes).

    Built once per (matrix object, grid) by _plan and shared by every call
    under that pair, so both arrays are read-only.  It holds no reference to
    its matrix, which keeps the matrix, and with it the plan, collectable.
    The factors are built, and applied, in place where that leaves the bytes
    unchanged: a kept plan adds two full-grid arrays to the caller's peak
    memory, and each temporary saved offsets part of that.
    """

    def __init__(self, grid: Grid, m: FreeSymplecticMatrix):
        n, lattice = grid.n, output_lattice(grid, m)
        self.chirp = _chirp(grid.mesh(), m.b_inva)
        ws = lattice.point_meshes()
        phase = 0.5 * _form(ws, m.db_inv, ws)
        del ws  # freed before the carrier omega . x_0 and the exp
        phase -= sum(om * o for om, o in zip(lattice.base.mesh(), grid.origin))
        self.post = _unit_phase(phase)
        self.post *= _amplitude(m, grid.vol)
        self.chirp.setflags(write=False)
        self.post.setflags(write=False)
        # (src, dst) pairs of the 2^n quadrant moves of the fftshift: counts
        # are even, so it swaps the halves of every axis and is its own
        # inverse; the leading ellipsis indexes one grid or a stack of them
        halves = [(slice(N // 2, None), slice(None, N // 2)) for N in grid.counts]
        self.quadrants = [
            ((..., *src), (..., *dst))
            for src, dst in zip(itertools.product(*halves),
                                itertools.product(*(h[::-1] for h in halves)))
        ]
        # the FFT over the last n axes, picked once per plan: in 1-D np.fft.fft
        # gives fftn's bytes without its argument handling (ifft2 drops out=)
        self.fft, self.ifft = (np.fft.fft, np.fft.ifft) if n == 1 else (
            partial(np.fft.fftn, axes=(-2, -1)), partial(np.fft.ifftn, axes=(-2, -1)))

    def forward_values(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Transform one grid of values, or a stack of them, over the last n axes.

        The fftshift is folded into the output factor: each of the 2^n
        quadrants of the FFT is multiplied by post straight into its shifted
        place, in out if given (out may be values itself).
        """
        spec = values * self.chirp
        self.fft(spec, out=spec)
        if out is None:
            out = np.empty_like(spec)
        for src, dst in self.quadrants:
            np.multiply(spec[src], self.post[dst], out=out[dst])
        return out

    def inverse_values(self, values: np.ndarray) -> np.ndarray:
        """Undo forward_values over the last n axes of one grid or a stack.

        The ifftshift is folded into the division by post the same way.
        """
        out = np.empty(values.shape, dtype=np.complex128)
        for src, dst in self.quadrants:
            np.divide(values[dst], self.post[dst], out=out[src])
        self.ifft(out, out=out)
        out *= np.conj(self.chirp)
        return out


# Plans per matrix object, keyed by grid in least-recently-used order.  The
# key is the object, not same_matrix: a matrix within its tolerance would get
# a plan that is not bit for bit its own.
_PLANS_PER_MATRIX = 4
_plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _plan(grid: Grid, m: FreeSymplecticMatrix) -> _FastPlan:
    """The plan of m on grid, built on first use and dropped with m."""
    plans = _plans.setdefault(m, {})
    plan = plans.pop(grid, None)
    if plan is None:
        plan = _FastPlan(grid, m)
        if len(plans) >= _PLANS_PER_MATRIX:
            del plans[next(iter(plans))]
    plans[grid] = plan
    return plan


def nslct_fast(f: SampledSignal, m: FreeSymplecticMatrix) -> Spectrum:
    """Transform on the warped FFT lattice w = B omega in O(N log N)."""
    plan = _plan(f.grid, m)
    return Spectrum(m, plan.forward_values(f.values), f.grid)


def nslct_inverse(spec: Spectrum, m: FreeSymplecticMatrix) -> SampledSignal:
    """Undo nslct_fast; exact (to rounding) on its own lattice.

    Raises GridMismatch unless m is the matrix the spectrum was made under.
    """
    if not same_matrix(spec.matrix, m):
        raise GridMismatch("spectrum was produced under a different matrix")
    plan = _plan(spec.signal_grid, m)
    return SampledSignal(spec.signal_grid, plan.inverse_values(spec.values))


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
