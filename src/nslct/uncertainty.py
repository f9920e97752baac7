"""Two-sided numeric evaluation of the transform-domain inequalities.

Every report computes its left- and right-hand side from the same discrete
objects (signal, window, gram) and returns both together with the constant
and the margin, so a caller can see not just pass/fail but how much slack
the printed constants leave.  Weighted frequency sums (negative powers and
logarithms of |w|) give the single zero-frequency cell weight zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadAlpha, BadBox, BadP, ZeroSignal
from .grids import Gram, SampledSignal, check_gram, lp_norm, norm_l2
from .shorttime import WindowSpec
from .specialfns import digamma_fn, gamma_fn
from .symplectic import FreeSymplecticMatrix


@dataclass(frozen=True)
class UPReport:
    """One inequality instance: name, both sides, constant, margin, inputs."""

    name: str
    lhs: float
    rhs: float
    constant: float
    margin: float
    inputs: tuple = ()

    def passed(self, tol: float = 1e-9) -> bool:
        """Margin respects the inequality direction up to tol * scale."""
        return self.margin >= -tol * max(abs(self.lhs), abs(self.rhs), 1e-300)


@dataclass(frozen=True)
class ConcentrationSets:
    """Tail energies of a signal outside a box S and of its gram outside E.

    The frequency box E lives in the premap coordinates omega = B^-1 w, so
    its image under the warp is the region the gram tail is measured
    against.
    """

    s_box: tuple
    e_box: tuple
    f_tail: float
    gram_tail: float
    f_total: float
    gram_total: float


def _require_nonzero(f: SampledSignal) -> float:
    nf = norm_l2(f)
    if nf == 0.0:
        raise ZeroSignal("signal has zero energy")
    return nf


def dispersion_spatial(f: SampledSignal) -> float:
    """Second moment vol * sum |x|^2 |f|^2 about the coordinate origin."""
    _require_nonzero(f)
    r2 = sum(m * m for m in f.grid.mesh())
    return float(f.grid.vol * np.sum(r2 * np.abs(f.values) ** 2))


def dispersion_spectral(g: Gram) -> float:
    """Second moment of the gram, sum |w|^2 |V|^2 over (u, w) cells."""
    w2 = sum(m * m for m in g.wgrid.point_meshes())
    return float(g.cell * np.sum(np.abs(g.values) ** 2 * w2))


def _radius(meshes) -> np.ndarray:
    """|x| over a lattice, from one coordinate array per axis."""
    return np.sqrt(sum(mm * mm for mm in meshes))


def _off_zero(r: np.ndarray, fn) -> np.ndarray:
    """fn(r) on the cells where r > 0; the zero cell gets weight zero."""
    out = np.zeros_like(r)
    nz = r > 0.0
    out[nz] = fn(r[nz])
    return out


def heisenberg_report(
    f: SampledSignal,
    wspec: WindowSpec,
    m: FreeSymplecticMatrix,
    gram: Gram,
) -> UPReport:
    """Dispersion product against (n sigma_min(B) / 4 pi) ||f||^2 ||phi||.

    The gram is stnslct_gram(f, wspec, m); one made on another grid, at
    another stride or under another matrix raises GridMismatch, here and in
    every report.
    """
    check_gram(gram, f.grid, m, wspec.stride)
    nphi = math.sqrt(wspec.norm2)
    lhs = (math.sqrt(dispersion_spectral(gram))
           * math.sqrt(dispersion_spatial(f) * wspec.norm2) / nphi)
    constant = m.n * m.sigma_min_b / (4.0 * math.pi)
    rhs = constant * norm_l2(f) ** 2 * nphi
    return UPReport("heisenberg", lhs, rhs, constant, lhs - rhs)


def pitt_constant(n: int, alpha: float) -> float:
    return math.pi**alpha * (gamma_fn((n - alpha) / 4.0) / gamma_fn((n + alpha) / 4.0)) ** 2


def pitt_report(
    f: SampledSignal,
    wspec: WindowSpec,
    m: FreeSymplecticMatrix,
    alpha: float,
    gram: Gram,
) -> UPReport:
    """Weighted-energy bound: |w|^(-a) gram energy vs the |x|^a moment of f."""
    alpha = float(alpha)
    if not (0.0 <= alpha < m.n):
        raise BadAlpha(f"alpha = {alpha} is outside [0, {m.n})")
    check_gram(gram, f.grid, m, wspec.stride)
    _require_nonzero(f)

    wnorm = _radius(gram.wgrid.point_meshes())
    if alpha == 0.0:
        weight = np.ones_like(wnorm)
    else:
        weight = _off_zero(wnorm, lambda r: r ** (-alpha))
    lhs = float(gram.cell * np.sum(np.abs(gram.values) ** 2 * weight))

    xnorm = _radius(f.grid.mesh())
    moment = float(f.grid.vol * np.sum(xnorm**alpha * np.abs(f.values) ** 2))
    constant = pitt_constant(m.n, alpha)
    rhs = constant * abs(m.det_b) ** (-alpha) * wspec.norm2 * moment
    return UPReport("pitt", lhs, rhs, constant, rhs - lhs, (("alpha", alpha),))


def lieb_report(
    f: SampledSignal,
    wspec: WindowSpec,
    m: FreeSymplecticMatrix,
    p: float,
    gram: Gram,
) -> UPReport:
    """p-th power gram integral vs (2/p) |det B|^(1 - p/2), unit-normalized.

    Normalization is applied by scaling the computed integral (the gram is
    p-homogeneous in each argument), so a shared precomputed gram works.
    The B-determinant normalization makes the bound well defined for
    matrices whose A block is singular; the report notes it in inputs.
    """
    p = float(p)
    if p < 2.0:
        raise BadP(f"p = {p} must be >= 2")
    nf = _require_nonzero(f)
    check_gram(gram, f.grid, m, wspec.stride)
    raw = float(gram.cell * np.sum(np.abs(gram.values) ** p))
    lhs = raw / (nf * math.sqrt(wspec.norm2)) ** p
    constant = (2.0 / p) * abs(m.det_b) ** (1.0 - p / 2.0)
    return UPReport(
        "lieb", lhs, constant, constant, constant - lhs,
        (("p", p), ("normalization", "det_b")),
    )


def hausdorff_young_report(
    f: SampledSignal,
    wspec: WindowSpec,
    m: FreeSymplecticMatrix,
    p: float,
    gram: Gram,
) -> UPReport:
    """||gram||_q against ||phi||_q ||f||_p for conjugate exponents."""
    p = float(p)
    if not (1.0 <= p <= 2.0):
        raise BadP(f"p = {p} must sit in [1, 2]")
    q = math.inf if p == 1.0 else p / (p - 1.0)
    check_gram(gram, f.grid, m, wspec.stride)
    lhs = lp_norm(gram, q)
    rhs = lp_norm(wspec.window, q) * lp_norm(f, p)
    return UPReport("hausdorff-young", lhs, rhs, 1.0, rhs - lhs, (("p", p), ("q", q)))


def log_report(
    f: SampledSignal,
    wspec: WindowSpec,
    m: FreeSymplecticMatrix,
    gram: Gram,
) -> UPReport:
    """Logarithmic-moment inequality with constant psi(n/2) - ln pi.

    The frequency weight ln |B^-1 w| is evaluated on the premap lattice
    (where it is exactly ln |omega|); the zero cells of both logarithmic
    weights are dropped.
    """
    nf = _require_nonzero(f)
    check_gram(gram, f.grid, m, wspec.stride)

    wlog = _off_zero(_radius(gram.wgrid.base.mesh()), np.log)
    wterm = float(gram.cell * np.sum(np.abs(gram.values) ** 2 * wlog))

    xlog = _off_zero(_radius(f.grid.mesh()), np.log)
    xterm = float(f.grid.vol * np.sum(xlog * np.abs(f.values) ** 2))

    lhs = wterm + wspec.norm2 * xterm
    constant = digamma_fn(m.n / 2.0) - math.log(math.pi)
    rhs = constant * wspec.norm2 * nf**2
    return UPReport("logarithmic", lhs, rhs, constant, lhs - rhs)


def _check_box(box, grid, name: str):
    arr = np.asarray(box, dtype=float)
    if arr.shape == (2,) and grid.n == 1:
        arr = arr.reshape(1, 2)
    if arr.shape != (grid.n, 2) or not np.all(np.isfinite(arr)):
        raise BadBox(f"{name} must be {grid.n} finite (lo, hi) pairs")
    for j in range(grid.n):
        lo, hi = grid.extent(j)
        if arr[j, 0] <= arr[j, 1] and (arr[j, 0] < lo - 1e-12 or arr[j, 1] > hi + 1e-12):
            raise BadBox(f"{name} axis {j} exceeds the grid extent [{lo}, {hi}]")
    return arr


def _inside(meshes, box) -> np.ndarray:
    mask = np.ones(meshes[0].shape, dtype=bool)
    for j, m in enumerate(meshes):
        mask &= (m >= box[j, 0]) & (m <= box[j, 1])
    return mask


def concentration(
    f: SampledSignal,
    g: Gram,
    s_box,
    e_box,
    m: FreeSymplecticMatrix,
) -> ConcentrationSets:
    """Tail energies outside a space box S and a premap frequency box E.

    An empty box (lo > hi) is allowed and yields the full energy as tail.
    """
    check_gram(g, f.grid, m)
    sb = _check_box(s_box, f.grid, "S")
    eb = _check_box(e_box, g.wgrid.base, "E")

    af2 = np.abs(f.values) ** 2
    f_total = float(f.grid.vol * np.sum(af2))
    f_tail = float(f.grid.vol * np.sum(af2[~_inside(f.grid.mesh(), sb)]))

    av2 = np.abs(g.values) ** 2
    gram_total = float(g.cell * np.sum(av2))
    outside = ~_inside(g.wgrid.base.mesh(), eb)
    gram_tail = float(g.cell * np.sum(av2 * outside))

    return ConcentrationSets(
        s_box=tuple(map(tuple, sb)),
        e_box=tuple(map(tuple, eb)),
        f_tail=f_tail,
        gram_tail=gram_tail,
        f_total=f_total,
        gram_total=gram_total,
    )
