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
"""
from __future__ import annotations

import math

import numpy as np

from .errors import GridMismatch
from .grids import Grid, SampledSignal, Spectrum, check_dimension, output_lattice
from .symplectic import FreeSymplecticMatrix, same_matrix


def _points(p, n: int) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if n == 1 and arr.shape[-1] != 1:
        arr = arr[..., np.newaxis]
    if arr.shape[-1] != n:
        raise GridMismatch(f"points with last axis {arr.shape[-1]} do not match n={n}")
    return arr


def _quad_form(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """x^T q x / 2 along the last axis."""
    return 0.5 * np.einsum("...i,ij,...j->...", points, q, points)


def _quad_form_mesh(meshes, q: np.ndarray) -> np.ndarray:
    out = np.zeros(meshes[0].shape)
    for i in range(len(meshes)):
        for j in range(len(meshes)):
            if q[i, j] != 0.0:
                out += q[i, j] * (meshes[i] * meshes[j])
    return 0.5 * out


def kernel_eval(m: FreeSymplecticMatrix, x, w) -> np.ndarray:
    """Evaluate K_M at x and w (coordinates on the last axis, broadcastable).

    Scalars are fine for n = 1.  Returns a complex array shaped by the
    broadcast of the two point sets.
    """
    xa = _points(x, m.n)
    wa = _points(w, m.n)
    amp = (2.0 * math.pi) ** (-m.n / 2.0) / math.sqrt(abs(m.det_b))
    phase = (
        _quad_form(wa, m.db_inv)
        - np.einsum("...i,ij,...j->...", wa, m.b_invt, xa)
        + _quad_form(xa, m.b_inva)
    )
    return amp * np.exp(1j * phase)


def nslct_direct(f: SampledSignal, m: FreeSymplecticMatrix, wpoints) -> np.ndarray:
    """Brute-force quadrature vol * sum_k f_k K_M(x_k, w), one w at a time.

    This is the oracle the fast path is checked against; it is O(#w * #grid)
    and makes no use of the FFT.
    """
    check_dimension(f.grid, m)
    pts = _points(wpoints, m.n).reshape(-1, m.n)
    x = f.grid.flat_points()
    fv = f.values.ravel()
    amp = (2.0 * math.pi) ** (-m.n / 2.0) / math.sqrt(abs(m.det_b)) * f.grid.vol
    qx = _quad_form(x, m.b_inva)
    out = np.empty(pts.shape[0], dtype=np.complex128)
    for i, w in enumerate(pts):
        qw = 0.5 * float(w @ m.db_inv @ w)
        cross = x @ (m.b_inv @ w)
        out[i] = amp * np.sum(fv * np.exp(1j * (qw - cross + qx)))
    return out


class _FastPlan:
    """Precomputed pointwise factors of the chirp-FFT-chirp pipeline.

    Reused across the many windowed-product transforms a gram needs.
    """

    def __init__(self, grid: Grid, m: FreeSymplecticMatrix):
        lattice = output_lattice(grid, m)
        self.chirp = np.exp(1j * _quad_form_mesh(grid.mesh(), m.b_inva))
        omega = lattice.base.mesh()
        carrier = sum(omega[j] * grid.origin[j] for j in range(grid.n))
        qw = _quad_form_mesh(lattice.point_meshes(), m.db_inv)
        amp = grid.vol * (2.0 * math.pi) ** (-grid.n / 2.0) / math.sqrt(abs(m.det_b))
        self.post = amp * np.exp(1j * (qw - carrier))

    def forward_values(self, values: np.ndarray) -> np.ndarray:
        return np.fft.fftshift(np.fft.fftn(values * self.chirp)) * self.post

    def inverse_values(self, values: np.ndarray) -> np.ndarray:
        return np.fft.ifftn(np.fft.ifftshift(values / self.post)) * np.conj(self.chirp)


def nslct_fast(f: SampledSignal, m: FreeSymplecticMatrix) -> Spectrum:
    """Transform on the warped FFT lattice w = B omega in O(N log N)."""
    plan = _FastPlan(f.grid, m)
    return Spectrum(m, plan.forward_values(f.values), f.grid)


def nslct_inverse(spec: Spectrum, m: FreeSymplecticMatrix) -> SampledSignal:
    """Undo nslct_fast; exact (to rounding) on its own lattice.

    Raises GridMismatch unless m is the matrix the spectrum was made under.
    """
    if not same_matrix(spec.matrix, m):
        raise GridMismatch("spectrum was produced under a different matrix")
    plan = _FastPlan(spec.signal_grid, m)
    return SampledSignal(spec.signal_grid, plan.inverse_values(spec.values))


def spectrum_as_signal(spec: Spectrum) -> SampledSignal:
    """Reinterpret a spectrum as samples on its own (uniform) lattice.

    Only a positive diagonal warp keeps the lattice a uniform ascending
    grid; anything else raises GridMismatch.  This is the bridge that lets
    transforms be chained.
    """
    base, warp = spec.wgrid.base, spec.wgrid.warp
    n = base.n
    off = np.max(np.abs(warp - np.diag(np.diag(warp)))) if n > 1 else 0.0
    diag = np.diag(warp)
    if off > 1e-12 * (1.0 + float(np.max(np.abs(warp)))) or np.any(diag <= 0.0):
        raise GridMismatch("warped lattice is uniform only for positive diagonal B")
    grid = Grid(
        base.counts,
        tuple(float(diag[j]) * base.spacing[j] for j in range(n)),
        tuple(float(diag[j]) * base.origin[j] for j in range(n)),
    )
    return SampledSignal(grid, spec.values)
