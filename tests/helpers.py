"""Shared fixtures: reference implementations kept deliberately independent
of the package internals (plain loops over the defining sums)."""
from __future__ import annotations

import threading
import time
import tracemalloc

import numpy as np

from nslct import Grid, SampledSignal, grids

TWO_PI = 2.0 * np.pi


def grid1(n_samples: int = 256, spacing: float = 0.1) -> Grid:
    return Grid.centered(n_samples, spacing)


def grid2(n_samples: int = 64, spacing: float = 0.35) -> Grid:
    return Grid.centered((n_samples, n_samples), spacing)


def shift_sign(counts) -> np.ndarray:
    """(-1)^(k_1 + ... + k_n) over the sample indices of a grid of counts:
    the sign that a plan's input chirp carries (it does the fftshift)."""
    return (-1.0) ** sum(np.ix_(*(np.arange(N) for N in counts)))


def traced_peak(fn):
    """fn() and the peak of the memory tracemalloc traced while it ran, in
    bytes: (result, peak)."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def threads_after(workers: int) -> int:
    """threading.active_count() once a chunked call on `workers` threads
    has returned: the count now plus the kept slot threads that the call
    starts (those it finds missing; none in the plain loop at one worker)."""
    missing = 0 if workers == 1 else max(0, workers - len(grids._slots))
    return threading.active_count() + missing


def within(seconds: float, *fns) -> list:
    """Each fn() at once, each on a daemon thread of its own, and their
    results in order, or the first exception raised here; fails if one has
    not returned within seconds, so that a deadlock fails the test instead
    of hanging the run."""
    out = [None] * len(fns)

    def call(i, fn):
        try:
            out[i] = (fn(), None)
        except BaseException as exc:
            out[i] = (None, exc)

    threads = [threading.Thread(target=call, args=(i, fn), daemon=True) for i, fn in enumerate(fns)]
    for t in threads:
        t.start()
    deadline = time.monotonic() + seconds
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    assert all(o is not None for o in out), f"still running after {seconds} s"
    for _, exc in out:
        if exc is not None:
            raise exc
    return [result for result, _ in out]


def gaussian_1d(grid: Grid, sigma: float = 1.0, shift: float = 0.0) -> SampledSignal:
    x = grid.axis(0)
    vals = np.exp(-0.5 * ((x - shift) / sigma) ** 2).astype(complex)
    vals /= np.sqrt(grid.vol * np.sum(np.abs(vals) ** 2))
    return SampledSignal(grid, vals)


def reference_nslct(f: SampledSignal, blocks, wpts: np.ndarray) -> np.ndarray:
    """Direct Riemann sum of the defining integral, written from the raw
    A, B, C, D blocks with explicit per-point loops.  Slow on purpose."""
    a, b, c, d = (np.atleast_2d(np.asarray(blk, dtype=float)) for blk in blocks)
    n = a.shape[0]
    binv = np.linalg.inv(b)
    amp = (TWO_PI) ** (-n / 2.0) / np.sqrt(abs(np.linalg.det(b)))
    xs = f.grid.flat_points()
    fv = f.values.ravel()
    qx = 0.5 * np.einsum("ki,ij,kj->k", xs, binv @ a, xs)
    wpts = np.asarray(wpts, dtype=float).reshape(-1, n)
    out = np.empty(wpts.shape[0], dtype=complex)
    for row, w in enumerate(wpts):
        qw = 0.5 * w @ (d @ binv) @ w
        cross = xs @ (binv @ w)  # x^T B^-1 w
        out[row] = amp * f.grid.vol * np.sum(
            fv * np.exp(1j * (qw - cross + qx))
        )
    return out


def reference_stft(f: SampledSignal, window: SampledSignal, stride: int) -> np.ndarray:
    """Unitary-convention windowed DFT laid out like the package gram:
    leading shift axis, trailing frequency axis ascending."""
    N = f.grid.counts[0]
    vol = f.grid.vol
    fv = f.values
    wv = window.values
    origin_idx = round(f.grid.origin[0] / f.grid.spacing[0])
    rows = []
    for i in range(N // stride):
        shift = stride * i + origin_idx
        shifted = np.array([wv[(k - shift) % N] for k in range(N)])
        g = fv * np.conj(shifted)
        spec = np.fft.fftshift(np.fft.fft(g))
        # unitary continuous-style normalization with origin phase carried in
        k = np.arange(-N // 2, N // 2)
        omega = TWO_PI * k / (N * f.grid.spacing[0])
        rows.append(vol / np.sqrt(TWO_PI) * np.exp(-1j * omega * f.grid.origin[0]) * spec)
    return np.array(rows)


def align_phase(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Rotate `got` by the unimodular factor that best matches `want`."""
    z = np.vdot(want, got)
    if z == 0:
        return got
    return got * (np.conj(z) / abs(z))


def rel_max_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.max(np.abs(want))
    return float(np.max(np.abs(got - want)) / (scale if scale > 0 else 1.0))


# Closed forms for complex Gaussians exp(-x'Px/2 + q'x), Re P > 0, written
# from the kernel K_M alone (numpy only): the continuum oracle that the
# Riemann-sum identities (Parseval, round trip, Moyal) cannot stand in for.

class ScriptedRng:
    """A stand-in for np.random.Generator whose uniform and choice calls
    return the scripted values in turn: a scalar, or a list of `size`
    entries where a size is asked.  Each value must lie in the call's range
    or among its options; calls lists (method, size) per call, and left the
    values not yet taken."""

    def __init__(self, *values):
        self.left = list(values)
        self.calls = []

    def _take(self, method, size, ok):
        self.calls.append((method, size))
        value = self.left.pop(0)
        arr = np.asarray(value, dtype=float)
        assert arr.shape == (() if size is None else (size,)), (method, size, value)
        assert all(ok(v) for v in arr.reshape(-1)), (method, value)
        return float(arr) if size is None else arr

    def uniform(self, low, high, size=None):
        return self._take("uniform", size, lambda v: low <= v < high)

    def choice(self, options, size=None):
        return self._take("choice", size, lambda v: v in options)


def _phase_parts(a, b, d):
    binv = np.linalg.inv(b)
    return binv @ a, d @ binv, binv, TWO_PI ** (-b.shape[0] / 2.0) / np.sqrt(abs(np.linalg.det(b)))


def _flat_mesh(axes) -> np.ndarray:
    """Every point of the product of 1-D axes, row-major, as (size, n)."""
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


def gaussian_samples(grid: Grid, p_mat, q_vec) -> np.ndarray:
    """exp(-x'Px/2 + q'x) on the grid, shaped like the grid."""
    xs = _flat_mesh([o + s * np.arange(c) for c, s, o in zip(grid.counts, grid.spacing, grid.origin)])
    expo = -0.5 * np.einsum("ki,ij,kj->k", xs, p_mat, xs) + xs @ q_vec
    return np.exp(expo).reshape(grid.counts)


def fft_lattice(grid: Grid, b) -> np.ndarray:
    """w = B omega over the ascending FFT frequencies 2 pi m / (N_j delta_j),
    m in [-N_j/2, N_j/2), row-major as (size, n): where a spectrum sits."""
    omega = _flat_mesh([TWO_PI * np.arange(-(c // 2), c - c // 2) / (c * s)
                        for c, s in zip(grid.counts, grid.spacing)])
    return omega @ np.atleast_2d(b).T


def gaussian(p_mat, q_vec, scale: complex, blocks, wpoints) -> np.ndarray:
    """Closed-form transform of scale * exp(-x'Px/2 + q'x) at each point w.

    With Q = P - i B^-1 A and v = q - i B^-T w the integral is
    (2 pi)^(n/2) det(Q)^(-1/2) exp(v' Q^-1 v / 2); det(Q)^(1/2) is the
    product of principal roots of Q's eigenvalues, which all lie in the
    right half-plane when Re Q is positive definite.
    """
    a, b, _c, d = (np.atleast_2d(np.asarray(blk, dtype=float)) for blk in blocks)
    n = b.shape[0]
    bia, dbi, binv, amp = _phase_parts(a, b, d)
    qm = np.asarray(p_mat, dtype=complex) - 1j * bia
    qinv = np.linalg.inv(qm)
    sqrt_det = np.prod(np.sqrt(np.linalg.eigvals(qm)))
    w = np.asarray(wpoints, dtype=float).reshape(-1, n)
    v = np.asarray(q_vec, dtype=complex)[None, :] - 1j * (w @ binv.T)
    expo = 0.5 * np.einsum("pi,ij,pj->p", v, qinv, v)
    qw = 0.5 * np.einsum("pi,ij,pj->p", w, dbi, w)
    return amp * scale * TWO_PI ** (n / 2.0) / sqrt_det * np.exp(expo + 1j * qw)


def gaussian_images(p_mat, q_vec, scale: complex, blocks, grid: Grid, images: int) -> np.ndarray:
    """What the fast path computes for scale * exp(-x'Px/2 + q'x) sampled on
    a centred grid, at fft_lattice(grid, B), from the closed form alone.

    The fast path is vol * sum_x g(x) exp(-i omega . x) times the output
    factor, with g the signal times the input chirp exp(i x'B^-1 A x/2).
    For g negligible off the grid and a grid origin on the sample lattice,
    Poisson summation makes that Riemann sum the sum over k of g's Fourier
    transform at omega + 2 pi k / delta (per axis).  With w = B omega and
    w_k = B (omega + 2 pi k / delta) this is
    sum_k gaussian(w_k) exp(i (w'DB^-1 w - w_k'DB^-1 w_k) / 2),
    over k in [-images, images]^n.
    """
    a, b, _c, d = (np.atleast_2d(np.asarray(blk, dtype=float)) for blk in blocks)
    dbi = _phase_parts(a, b, d)[1]
    w = fft_lattice(grid, b)
    periods = TWO_PI / np.asarray(grid.spacing)
    out = np.zeros(len(w), dtype=complex)
    for k in _flat_mesh([np.arange(-images, images + 1)] * grid.n):
        wk = w + (k * periods) @ b.T
        turn = 0.5 * (np.einsum("pi,ij,pj->p", w, dbi, w) - np.einsum("pi,ij,pj->p", wk, dbi, wk))
        out += gaussian(p_mat, q_vec, scale, blocks, wk) * np.exp(1j * turn)
    return out


# Golden verify reports (tests/data): the `nslct verify --suite all --seed k
# --out` report of each seed, and the host whose numpy wrote them.

def host_fingerprint() -> dict:
    """What a report's last bits may depend on besides the code: the numpy
    version and the CPU SIMD features its dispatch enables (SIMD exp, hypot
    and power may round differently on another CPU)."""
    import platform

    from numpy._core import _multiarray_umath

    features = getattr(_multiarray_umath, "__cpu_features__", None)
    return {"machine": platform.machine(), "numpy": np.__version__,
            "cpu_features": None if features is None else sorted(k for k, on in features.items() if on)}


def read_report(text: str):
    """A verify report's records, {(suite, name, params): (numbers, passed)}
    in file order with numbers (lhs, rhs, constant, margin, tol), and its
    floors, {suite: min_relative_margin} in file order."""
    records, floors = {}, {}
    for line in text.splitlines()[1:]:
        if line.startswith("# floor "):
            suite, value = (field.split("=", 1)[1] for field in line.split()[2:])
            floors[suite] = float(value)
        else:
            suite, name, params, *numbers, passed = line.split(",")
            assert (suite, name, params) not in records, line
            records[suite, name, params] = (tuple(map(float, numbers)), passed == "1")
    return records, floors


def report_diff(old: str, new: str) -> dict:
    """What moved from one verify report (text) to another.

    added / removed: the record labels (suite, name, params) only one side
    has; flips: the labels on both whose verdict differs; moved: per family
    (the record's suite, or "floor" for the floor lines), the count of
    numbers that differ and the largest move, |new - old| over
    margin_scale(lhs, rhs) of the old record.  A floor is a relative margin
    already, so its move is taken as is.
    """
    from nslct.uncertainty import margin_scale

    (old_recs, old_floors), (new_recs, new_floors) = read_report(old), read_report(new)
    moved: dict[str, tuple[int, float]] = {}

    def note(family, a, b, scale):
        if a != b:
            count, top = moved.get(family, (0, 0.0))
            moved[family] = (count + 1, max(top, abs(b - a) / scale))

    flips = []
    for key, (numbers, passed) in old_recs.items():
        if key in new_recs:
            new_numbers, new_passed = new_recs[key]
            if passed != new_passed:
                flips.append(key)
            scale = margin_scale(numbers[0], numbers[1])
            for a, b in zip(numbers, new_numbers):
                note(key[0], a, b, scale)
    for suite, value in old_floors.items():
        if suite in new_floors:
            note("floor", value, new_floors[suite], 1.0)
    return {"added": [k for k in new_recs if k not in old_recs],
            "removed": [k for k in old_recs if k not in new_recs],
            "flips": flips, "moved": moved}
