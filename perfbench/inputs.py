"""Seeded inputs for the benchmark workloads.

Signals are chirped Gaussians made by the program's own `synthesize("chirp")`
(or `"gaussian"` for windows); this module only draws their parameters and
knows their closed form exp(-x'Px/2 + q'x), which is what the oracle needs.
Matrices are drawn here as raw blocks and handed to the program's
`validate`.  Every draw is gated so the inputs are well sampled: the
envelope has decayed at the grid edge and the spectrum of the signal times
the transform's input chirp has decayed at the FFT band edge, both to
exp(-t) of the peak.  Under that gate the Riemann sum the program computes
and the continuous transform agree, so checks against either stay valid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import oracle


@dataclass(frozen=True)
class GridSpec:
    """A centered grid, as the program's Grid.centered builds it."""

    counts: tuple
    spacing: tuple

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def origin(self) -> tuple:
        return tuple(-(c * s) / 2.0 for c, s in zip(self.counts, self.spacing))

    @property
    def triple(self) -> tuple:
        return self.counts, self.spacing, self.origin

    @property
    def size(self) -> int:
        return int(np.prod(self.counts))


@dataclass(frozen=True)
class ChirpSpec:
    """Parameters of synthesize("chirp", sigma, center, freq, rate), per axis."""

    sigma: tuple
    center: tuple
    freq: tuple
    rate: tuple

    def kwargs(self) -> dict:
        return {"sigma": self.sigma, "center": self.center, "freq": self.freq, "rate": self.rate}

    def p_mat(self) -> np.ndarray:
        return np.diag([1.0 / s**2 - 1j * r for s, r in zip(self.sigma, self.rate)])

    def q_vec(self) -> np.ndarray:
        return np.array([c / s**2 + 1j * f for s, c, f in zip(self.sigma, self.center, self.freq)])


def window_p(sigma: float, n: int) -> np.ndarray:
    """P of a centered real Gaussian window, synthesize("gaussian", sigma)."""
    return np.eye(n) / sigma**2 + 0j


def unit_samples(grid: GridSpec, p_mat, q_vec):
    """(samples, scale) of the unit-L2 Gaussian, computed by the oracle."""
    raw = oracle.gaussian_samples(grid.triple, p_mat, q_vec)
    vol = float(np.prod(grid.spacing))
    scale = 1.0 / math.sqrt(vol * float(np.sum(np.abs(raw) ** 2)))
    return raw * scale, scale


def well_sampled(grid: GridSpec, p_mat, q_vec, bia, t: float) -> bool:
    """Edge and band-edge decay of exp(-x'Px/2 + q'x) under input chirp bia.

    The envelope is exp(-(x - x0)'R(x - x0)/2) with R = Re P; the spectrum
    of the chirped signal is a Gaussian in nu with precision H = Re(Q^-1),
    Q = P - i bia, centred at H^-1 Im(Q^-1 q).  Each must have fallen to
    exp(-t) at every face of the grid box and of the FFT band box.
    """
    r = np.real(p_mat)
    x0 = np.linalg.solve(r, np.real(q_vec))
    rcov = np.linalg.inv(r)
    qm = np.asarray(p_mat) - 1j * np.asarray(bia)
    qinv = np.linalg.inv(qm)
    h = np.real(qinv)
    hcov = np.linalg.inv(h)
    nu0 = hcov @ np.imag(qinv @ q_vec)
    for j in range(grid.n):
        edge = grid.counts[j] * grid.spacing[j] / 2.0 - grid.spacing[j]
        band = math.pi / grid.spacing[j]
        if edge <= abs(x0[j]) or (edge - abs(x0[j])) ** 2 / rcov[j, j] < 2.0 * t:
            return False
        if band <= abs(nu0[j]) or (band - abs(nu0[j])) ** 2 / hcov[j, j] < 2.0 * t:
            return False
    return True


def draw_chirp(rng, n: int, sigma, center, freq, rate) -> ChirpSpec:
    """Uniform draws per axis from (lo, hi) ranges."""
    def pick(lo_hi):
        return tuple(float(v) for v in rng.uniform(lo_hi[0], lo_hi[1], size=n))
    return ChirpSpec(pick(sigma), pick(center), pick(freq), pick(rate))


def draw_blocks(rng, n: int):
    """Raw (A, B, C, D) of a free symplectic matrix.

    n = 1: a, b, c with d = (1 + b c) / a.  n = 2: lens (I, 0 : C1, I) times
    a per-axis product times the rotation (U, 0 : 0, U), so B = B0 U has
    off-diagonal entries and the matrix is not separable.
    """
    sgn = rng.choice((-1.0, 1.0), size=(2, n))
    a = rng.uniform(0.3, 0.9, size=n) * sgn[0]
    b = rng.uniform(0.9, 1.6, size=n) * sgn[1]
    c = rng.uniform(-0.5, 0.5, size=n)
    d = (1.0 + b * c) / a
    if n == 1:
        return tuple(np.array([[v[0]]]) for v in (a, b, c, d))
    th = rng.uniform(0.3, 1.2)
    u = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    off = rng.uniform(-0.3, 0.3)
    lens = np.array([[rng.uniform(-0.3, 0.3), off], [off, rng.uniform(-0.3, 0.3)]])
    a0, b0, c0, d0 = (np.diag(v) for v in (a, b, c, d))
    return a0 @ u, b0 @ u, (lens @ a0 + c0) @ u, (lens @ b0 + d0) @ u


def bia_of(blocks) -> np.ndarray:
    return np.linalg.solve(blocks[1], blocks[0])


DRAWS = 400  # matrix draws before the ranges are judged too wide


def draw_case(rng, grids_t, n: int, chirp_ranges):
    """Draw (blocks, [ChirpSpec per grid]) with every pair well sampled.

    grids_t lists (GridSpec, t) pairs that share the matrix; each gets its
    own signal drawn from chirp_ranges (one (sigma, center, freq, rate)
    range tuple per grid).
    """
    for _ in range(DRAWS):
        blocks = draw_blocks(rng, n)
        bia = bia_of(blocks)
        specs = []
        for (grid, t), ranges in zip(grids_t, chirp_ranges):
            spec = draw_chirp(rng, n, *ranges)
            if not well_sampled(grid, spec.p_mat(), spec.q_vec(), bia, t):
                break
            specs.append(spec)
        else:
            return blocks, specs
    raise RuntimeError("no well-sampled input drawn; the ranges are too wide")


def matrix_text(blocks) -> str:
    """Matrix file with explicit row-major blocks, shortest round-trip floats."""
    n = blocks[0].shape[0]
    rows = [f"n={n}"]
    for key, blk in zip("ABCD", blocks):
        rows.append(f"{key}=" + ",".join(repr(float(v)) for v in np.asarray(blk).ravel()))
    return "\n".join(rows) + "\n"


def sheared(blocks, s) -> tuple:
    """M (I, 0 : S, I) = (A + B S, B : C + D S, D): same B block, new A and C."""
    a, b, c, d = blocks
    return a + b @ s, b, c + d @ s, d
