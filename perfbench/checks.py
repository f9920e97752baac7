"""Per-operation output checks and the ledger that counts operations.

Every check compares the program's output with the oracle or with an exact
property of the discrete transform (Parseval, Moyal, round trip), never
with a stored copy of an earlier output.  Value checks are absolute and
scaled by a bound computed from the input alone, so a wrong output cannot
widen its own tolerance.
"""
from __future__ import annotations

import math
import sys
import time

import numpy as np

import oracle

# The input gate keeps the Riemann sum within exp(-16) ~ 1e-7 of the
# continuous transform, so one tolerance serves both oracles and stays
# valid for a fast path that tracks either; a fault gives O(1) errors.
TOL_VALUE = 1e-6
TOL_EXACT = 1e-9  # Parseval, Moyal and round trips, which hold to rounding
POINTS = 4  # oracle points per transform or direct evaluation
GRAM_ROWS, GRAM_POINTS = 3, 8  # oracle rows per gram, points per row


class Ledger:
    """Latency samples per operation kind, attempts, failures, bytes of
    output, check verdict.

    Each latency is kept as measured, in `samples`; with a pace, also scaled
    to the pace's nominal host speed, in `paced`, with the pace re-timed
    before the operation when its last timing is stale.
    """

    def __init__(self, pace=None):
        self.pace = pace
        self.samples: dict[str, list[float]] = {}
        self.paced: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.out_bytes = 0
        self.problems: list[str] = []

    @property
    def correct(self) -> bool:
        return not self.problems

    def attempt(self, kind: str, fn, *args):
        """Run one operation and keep its latency when it returns."""
        self.attempted += 1
        scale = self.pace.refresh() if self.pace else 1.0
        t0 = time.perf_counter()
        out = fn(*args)
        self.record(kind, time.perf_counter() - t0, scale)
        return out

    def record(self, kind: str, seconds: float, scale: float):
        self.samples.setdefault(kind, []).append(seconds)
        self.paced.setdefault(kind, []).append(seconds * scale)

    def fail(self, what: str):
        self.failed += 1
        print(f"failed: {what}", file=sys.stderr)

    def expect(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)
            print(f"check failed: {what}", file=sys.stderr)


def _l2sq(values, cell: float) -> float:
    return cell * float(np.sum(np.abs(values) ** 2))


def lattice_cell(grid, b) -> float:
    """|det B| times the FFT frequency cell, the volume of one lattice point."""
    counts, spacing, _ = grid
    dcell = float(np.prod([2.0 * math.pi / (c * s) for c, s in zip(counts, spacing)]))
    return abs(float(np.linalg.det(np.atleast_2d(b)))) * dcell


def pick(rng, weights, size: int) -> np.ndarray:
    """Indices drawn without replacement in proportion to weights.

    The weights are |oracle| computed from the input alone, so the checked
    points hold the transform's mass, not the near-zero tails that fill most
    of a wide lattice; a fault that keeps |values| (a phase, a sign, a
    shift) then shows at every check.
    """
    w = np.asarray(weights, dtype=float)
    return rng.choice(w.size, size=size, replace=False, p=w / w.sum())


def check_spectrum(led: Ledger, what: str, spec_values, f_values, grid, blocks, idx, closed):
    """Parseval, the oracle and the closed form closed = (P, q, scale) at
    lattice indices idx (flat, row-major)."""
    counts, spacing, _ = grid
    vol = float(np.prod(spacing))
    vals = np.asarray(spec_values).ravel()
    led.expect(vals.size == int(np.prod(counts)), f"{what}: {vals.size} values")
    if vals.size != int(np.prod(counts)):
        return
    lhs = _l2sq(vals, lattice_cell(grid, blocks[1]))
    rhs = _l2sq(f_values, vol)
    led.expect(abs(lhs - rhs) <= TOL_EXACT * rhs, f"{what}: Parseval {lhs!r} vs {rhs!r}")
    w = oracle.lattice_points(counts, spacing, blocks[1])[idx]
    check_points(led, what, vals[idx], f_values, grid, blocks, w, closed)


def check_points(led: Ledger, what: str, got, f_values, grid, blocks, wpoints, closed):
    """Values at points w against the oracle and the closed form."""
    bound = oracle.sup_bound(f_values, grid, blocks)
    ref = oracle.riemann(f_values, grid, blocks, wpoints)
    err = float(np.max(np.abs(np.asarray(got) - ref))) / bound
    led.expect(err <= TOL_VALUE, f"{what}: oracle error {err:.3e} of the sup bound")
    cf = oracle.gaussian(*closed, blocks, wpoints)
    err = float(np.max(np.abs(np.asarray(got) - cf))) / bound
    led.expect(err <= TOL_VALUE, f"{what}: closed-form error {err:.3e} of the sup bound")


def check_roundtrip(led: Ledger, what: str, got, want):
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        led.expect(False, f"{what}: shape {got.shape} vs {want.shape}")
        return
    err = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
    led.expect(err <= TOL_EXACT, f"{what}: round-trip error {err:.3e}")


def check_gram(led: Ledger, what: str, gram_values, f_values, w_values, grid, stride,
               blocks, rng):
    """Moyal energy identity plus seeded (row, point) entries against the oracle."""
    counts, spacing, _ = grid
    ucounts = tuple(c // stride for c in counts)
    want_shape = ucounts + tuple(counts)
    vals = np.asarray(gram_values)
    if vals.shape != want_shape:
        led.expect(False, f"{what}: shape {vals.shape} vs {want_shape}")
        return
    vol = float(np.prod(spacing))
    ucell = vol * stride ** len(counts)
    lhs = _l2sq(vals, lattice_cell(grid, blocks[1]) * ucell)
    rhs = _l2sq(f_values, vol) * _l2sq(w_values, vol)
    led.expect(abs(lhs - rhs) <= TOL_EXACT * rhs, f"{what}: Moyal {lhs!r} vs {rhs!r}")
    lattice = oracle.lattice_points(counts, spacing, blocks[1])
    bound = oracle.sup_bound(f_values, grid, blocks) * float(np.max(np.abs(w_values)))
    flat = vals.reshape(int(np.prod(ucounts)), -1)
    # rows drawn in proportion to the energy of f . phi(. - u), computed from
    # the inputs, so the checked rows are not all in the empty tails
    f2 = np.abs(f_values) ** 2
    weight = np.array([
        float(np.sum(f2 * np.abs(oracle.shifted_window(w_values, counts, stride,
                                                       np.unravel_index(r, ucounts))) ** 2))
        for r in range(flat.shape[0])
    ])
    for r in pick(rng, weight, GRAM_ROWS):
        u_index = np.unravel_index(int(r), ucounts)
        prod = np.asarray(f_values) * np.conj(oracle.shifted_window(w_values, counts, stride, u_index))
        idx = pick(rng, oracle.lattice_magnitude(prod, grid, blocks), GRAM_POINTS)
        ref = oracle.gram_entries(f_values, w_values, grid, stride, blocks, u_index, lattice[idx])
        err = float(np.max(np.abs(flat[r, idx] - ref))) / bound
        led.expect(err <= TOL_VALUE, f"{what}: row {int(r)} oracle error {err:.3e}")
