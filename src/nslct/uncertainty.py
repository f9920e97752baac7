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
from .grids import Gram, SampledSignal, _power_sum, check_gram, lp_norm, norm_l2
from .shorttime import WindowSpec
from .symplectic import FreeSymplecticMatrix
from .transform import _amplitude


TOL_INEQUALITY = 1e-9  # see UPReport.passed


def margin_scale(lhs: float, rhs: float) -> float:
    """The size a margin is measured against: max(|lhs|, |rhs|, 1e-300)."""
    return max(abs(lhs), abs(rhs), 1e-300)


@dataclass(frozen=True)
class UPReport:
    """One inequality instance: name, both sides, constant, margin."""

    name: str
    lhs: float
    rhs: float
    constant: float
    margin: float

    def passed(self) -> bool:
        """Margin respects the inequality direction up to TOL_INEQUALITY * scale."""
        return self.margin >= -TOL_INEQUALITY * margin_scale(self.lhs, self.rhs)


@dataclass(frozen=True)
class ConcentrationSets:
    """Tail energies of a signal outside a box S and of its gram outside E.

    The frequency box E lives in the premap coordinates omega = B^-1 w, so
    its image under the warp is the region the gram tail is measured
    against.
    """

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
    return _power_sum(f, 2.0, sum(m * m for m in f.grid.mesh()))


def dispersion_spectral(g: Gram) -> float:
    """Second moment of the gram, sum |w|^2 |V|^2 over (u, w) cells."""
    return _power_sum(g, 2.0, sum(m * m for m in g.wgrid.point_meshes()))


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
    """Pitt constant pi^a (Gamma((n - a)/4) / Gamma((n + a)/4))^2.

    Gamma is finite well past the domain, so a outside [0, n) raises BadAlpha
    here rather than returning a value.
    """
    alpha = float(alpha)
    if not (0.0 <= alpha < n):
        raise BadAlpha(f"alpha = {alpha} is outside [0, {n})")
    return math.pi**alpha * (math.gamma((n - alpha) / 4.0) / math.gamma((n + alpha) / 4.0)) ** 2


def pitt_report(
    f: SampledSignal,
    wspec: WindowSpec,
    m: FreeSymplecticMatrix,
    alpha: float,
    gram: Gram,
) -> UPReport:
    """Weighted-energy bound: |w|^(-a) gram energy vs the |x|^a moment of f."""
    alpha = float(alpha)
    constant = pitt_constant(m.n, alpha)
    check_gram(gram, f.grid, m, wspec.stride)
    _require_nonzero(f)

    weight = None
    if alpha > 0.0:
        weight = _off_zero(_radius(gram.wgrid.point_meshes()), lambda r: r ** (-alpha))
    lhs = _power_sum(gram, 2.0, weight)
    moment = _power_sum(f, 2.0, _radius(f.grid.mesh()) ** alpha)
    rhs = constant * abs(m.det_b) ** (-alpha) * wspec.norm2 * moment
    return UPReport("pitt", lhs, rhs, constant, rhs - lhs)


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
    """
    p = float(p)
    if not (2.0 <= p < math.inf):
        raise BadP(f"p = {p} must be finite and >= 2")
    nf = _require_nonzero(f)
    check_gram(gram, f.grid, m, wspec.stride)
    lhs = _power_sum(gram, p) / (nf * math.sqrt(wspec.norm2)) ** p
    constant = (2.0 / p) * abs(m.det_b) ** (1.0 - p / 2.0)
    return UPReport("lieb", lhs, constant, constant, constant - lhs)


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
    return UPReport("hausdorff-young", lhs, rhs, 1.0, rhs - lhs)


# psi(n/2) in closed form for the two supported dimensions
_DIGAMMA_HALF_N = {1: -np.euler_gamma - 2.0 * math.log(2.0), 2: -np.euler_gamma}


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

    wterm = _power_sum(gram, 2.0, _off_zero(_radius(gram.wgrid.base.mesh()), np.log))
    xterm = _power_sum(f, 2.0, _off_zero(_radius(f.grid.mesh()), np.log))
    lhs = wterm + wspec.norm2 * xterm
    constant = _DIGAMMA_HALF_N[m.n] - math.log(math.pi)
    rhs = constant * wspec.norm2 * nf**2
    return UPReport("logarithmic", lhs, rhs, constant, lhs - rhs)


def boundedness_report(
    f: SampledSignal,
    wspec: WindowSpec,
    m: FreeSymplecticMatrix,
    gram: Gram,
) -> UPReport:
    """max |gram| against the bound (2 pi)^(-n/2) |det B|^(-1/2) ||f|| ||phi||.

    The rhs is written as sup + margin, not as the bound itself, and the
    two can differ in the last bit.
    """
    check_gram(gram, f.grid, m, wspec.stride)
    bound = _amplitude(m) * norm_l2(f) * math.sqrt(wspec.norm2)
    sup = lp_norm(gram, math.inf)
    margin = bound - sup
    return UPReport("boundedness", sup, sup + margin, (2.0 * math.pi) ** (-m.n / 2.0), margin)


def boundedness_margin(
    g: Gram, f: SampledSignal, wspec: WindowSpec, m: FreeSymplecticMatrix
) -> float:
    """Sup-norm slack: the margin of boundedness_report(f, wspec, m, g)."""
    return boundedness_report(f, wspec, m, g).margin


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
    mask = np.ones(np.broadcast_shapes(*(m.shape for m in meshes)), dtype=bool)
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

    return ConcentrationSets(
        f_tail=_power_sum(f, 2.0, ~_inside(f.grid.mesh(), sb)),
        gram_tail=_power_sum(g, 2.0, ~_inside(g.wgrid.base.mesh(), eb)),
        f_total=_power_sum(f, 2.0),
        gram_total=_power_sum(g, 2.0),
    )
