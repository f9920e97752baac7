"""Reference values for the benchmark, computed without the nslct package.

Everything here is plain numpy written from the defining formulas, so a
fault in the program cannot hide in its own check:

    K_M(x, w) = (2 pi)^(-n/2) |det B|^(-1/2)
                exp(i/2 (w' D B^-1 w - 2 w' B^-T x + x' B^-1 A x))

`riemann` sums that kernel against samples on a uniform grid, `gaussian`
integrates it in closed form against a complex Gaussian, and `gram_entries`
sums it against a window shifted by whole samples with wrap-around.  Grids
are passed as (counts, spacing, origin) tuples, matrices as A, B, C, D.
"""
from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
CHUNK = 64  # lattice points per block of the Riemann sum


def blocks2(a, b, c, d):
    """The four blocks as float n x n arrays."""
    return tuple(np.atleast_2d(np.asarray(m, dtype=float)) for m in (a, b, c, d))


def sample_points(counts, spacing, origin) -> np.ndarray:
    """All grid positions, row-major, shape (size, n)."""
    axes = [o + s * np.arange(c) for c, s, o in zip(counts, spacing, origin)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def lattice_points(counts, spacing, b) -> np.ndarray:
    """Output lattice w = B omega over the ascending FFT frequencies.

    omega_j runs over 2 pi m / (N_j delta_j) for m in [-N_j/2, N_j/2);
    returned row-major, shape (size, n), in the order the program stores
    spectrum values.
    """
    axes = [TWO_PI * np.arange(-(c // 2), c - c // 2) / (c * s) for c, s in zip(counts, spacing)]
    mesh = np.meshgrid(*axes, indexing="ij")
    omega = np.stack([m.ravel() for m in mesh], axis=-1)
    return omega @ np.atleast_2d(b).T


def _phase_parts(a, b, d):
    binv = np.linalg.inv(b)
    return binv @ a, d @ binv, binv, (TWO_PI) ** (-b.shape[0] / 2.0) / math.sqrt(abs(np.linalg.det(b)))


def riemann(values, grid, blocks, wpoints) -> np.ndarray:
    """vol * sum_k f_k K_M(x_k, w) at each point w (rows of wpoints)."""
    counts, spacing, origin = grid
    a, b, _c, d = blocks2(*blocks)
    bia, dbi, binv, amp = _phase_parts(a, b, d)
    xs = sample_points(counts, spacing, origin)
    fv = np.asarray(values, dtype=complex).ravel()
    qx = 0.5 * np.einsum("ki,ij,kj->k", xs, bia, xs)
    w = np.asarray(wpoints, dtype=float).reshape(-1, b.shape[0])
    out = np.empty(w.shape[0], dtype=complex)
    vol = float(np.prod(spacing))
    for lo in range(0, w.shape[0], CHUNK):
        wc = w[lo:lo + CHUNK]
        qw = 0.5 * np.einsum("pi,ij,pj->p", wc, dbi, wc)
        cross = wc @ binv.T @ xs.T  # w' B^-T x
        ph = qw[:, None] - cross + qx[None, :]
        out[lo:lo + CHUNK] = amp * vol * (np.exp(1j * ph) @ fv)
    return out


def gaussian_samples(grid, p_mat, q_vec) -> np.ndarray:
    """exp(-x'Px/2 + q'x) on the grid, shaped like the grid."""
    counts, spacing, origin = grid
    xs = sample_points(counts, spacing, origin)
    expo = -0.5 * np.einsum("ki,ij,kj->k", xs, p_mat, xs) + xs @ q_vec
    return np.exp(expo).reshape(tuple(counts))


def gaussian(p_mat, q_vec, scale: complex, blocks, wpoints) -> np.ndarray:
    """Closed-form transform of scale * exp(-x'Px/2 + q'x) (Re P > 0).

    With Q = P - i B^-1 A and v = q - i B^-T w the integral is
    (2 pi)^(n/2) det(Q)^(-1/2) exp(v' Q^-1 v / 2); det(Q)^(1/2) is the
    product of principal roots of Q's eigenvalues, which all lie in the
    right half-plane when Re Q is positive definite.
    """
    a, b, _c, d = blocks2(*blocks)
    n = b.shape[0]
    bia, dbi, binv, amp = _phase_parts(a, b, d)
    qm = np.asarray(p_mat, dtype=complex) - 1j * bia
    qinv = np.linalg.inv(qm)
    sqrt_det = np.prod(np.sqrt(np.linalg.eigvals(qm)))
    w = np.asarray(wpoints, dtype=float).reshape(-1, n)
    v = np.asarray(q_vec, dtype=complex)[None, :] - 1j * (w @ binv.T)
    expo = 0.5 * np.einsum("pi,ij,pj->p", v, qinv, v)
    qw = 0.5 * np.einsum("pi,ij,pj->p", w, dbi, w)
    return amp * scale * (TWO_PI) ** (n / 2.0) / sqrt_det * np.exp(expo + 1j * qw)


def lattice_magnitude(values, grid, blocks) -> np.ndarray:
    """|riemann| at every lattice point, up to one constant factor.

    On the lattice w = B omega the phase of the sum is w'D B^-1 w / 2, which
    does not depend on x, minus omega'x plus x'B^-1 A x / 2, so its modulus
    is that of a DFT of f times the input chirp: one numpy FFT for all
    points, returned flat in `lattice_points` order.  It only weights which
    points the checks compare at; the comparison itself is with `riemann`.
    """
    counts, spacing, origin = grid
    a, b, _c, _d = blocks2(*blocks)
    xs = sample_points(counts, spacing, origin)
    chirp = np.exp(0.5j * np.einsum("ki,ij,kj->k", xs, np.linalg.solve(b, a), xs))
    g = (np.asarray(values, dtype=complex).ravel() * chirp).reshape(tuple(counts))
    return np.abs(np.fft.fftshift(np.fft.fftn(g))).ravel()


def shifted_window(window_values, counts, stride: int, u_index) -> np.ndarray:
    """phi(x_k - u) on the grid for shift u = origin + stride * u_index * delta.

    x_k - u = (k - stride * u_index) delta, which sits at window index
    k - stride * u_index + N/2 on a centered grid; indices wrap mod N.
    """
    wv = np.asarray(window_values)
    idx = [
        (np.arange(n) - stride * int(u) + n // 2) % n
        for n, u in zip(counts, u_index)
    ]
    return wv[np.ix_(*idx)]


def gram_entries(f_values, window_values, grid, stride, blocks, u_index, wpoints) -> np.ndarray:
    """Short-time transform of f . conj(phi(. - u)) at lattice points w."""
    counts = grid[0]
    prod = np.asarray(f_values) * np.conj(shifted_window(window_values, counts, stride, u_index))
    return riemann(prod, grid, blocks, wpoints)


def sup_bound(values, grid, blocks) -> float:
    """(2 pi)^(-n/2) |det B|^(-1/2) vol sum |f|: a bound on every |L_M f (w)|.

    Used as the scale of absolute tolerances, so a wrong output cannot
    loosen its own check.
    """
    b = np.atleast_2d(np.asarray(blocks[1], dtype=float))
    vol = float(np.prod(grid[1]))
    amp = TWO_PI ** (-b.shape[0] / 2.0) / math.sqrt(abs(np.linalg.det(b)))
    return amp * vol * float(np.sum(np.abs(values)))
