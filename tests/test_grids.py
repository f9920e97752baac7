import math
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nslct import (
    BadParam,
    Gram,
    GridMismatch,
    Grid,
    NSLCTError,
    SampledSignal,
    Spectrum,
    WarpedGrid,
    WindowSpec,
    frequency_grid,
    inner,
    lp_norm,
    norm_l2,
    nslct_fast,
    output_lattice,
    preset,
    random_free_matrix,
    stnslct_gram,
    synthesize,
)
from nslct import grids, transform

from helpers import grid1, grid2, threads_after, within


def test_centered_grid_geometry():
    g = grid1()
    assert g.n == 1
    assert g.size == 256
    assert g.origin[0] == pytest.approx(-12.8)
    assert g.axis(0)[0] == pytest.approx(-12.8)
    assert g.axis(0)[-1] == pytest.approx(12.8 - 0.1)
    assert g.vol == pytest.approx(0.1)


def test_grid_rejects_bad_shapes():
    with pytest.raises(NSLCTError):
        Grid((100,), (0.1,), (0.0,))  # not a power of two
    with pytest.raises(NSLCTError):
        Grid((4,), (0.1,), (0.0,))  # too small
    with pytest.raises(NSLCTError):
        Grid((8,), (-0.1,), (0.0,))
    with pytest.raises(NSLCTError):
        Grid((8, 8, 8), (0.1,) * 3, (0.0,) * 3)  # only n in {1, 2}
    with pytest.raises(BadParam):
        Grid.centered((8, 8), (0.1, 0.2, 0.3))  # per-axis values need 1 or n entries
    for bad in (math.nan, math.inf):
        with pytest.raises(BadParam):
            Grid((8,), (0.1,), (bad,))
    g, m = grid1(8, 0.5), preset("fourier", 1)
    with pytest.raises(GridMismatch):
        WarpedGrid(g, np.eye(2))
    with pytest.raises(GridMismatch):
        Spectrum(m, np.zeros(4), g)
    with pytest.raises(GridMismatch):
        Gram(m, grid1(16, 0.5), 2, np.zeros((16, 16)))  # the shift lattice has 8 rows


def test_grid_refuses_non_integral_counts_and_keeps_numpy_ints():
    with pytest.raises(BadParam):
        Grid.centered(64.5, 0.25)  # was silently truncated to 64 points
    with pytest.raises(BadParam):
        Grid((64.0,), (0.25,), (0.0,))
    with pytest.raises(BadParam):
        Grid.centered((64, 32.5), 0.25)
    g = Grid.centered(np.int64(64), 0.25)
    assert g == Grid.centered(64, 0.25) and type(g.counts[0]) is int
    assert Grid((np.int32(16), 8), (0.5, 0.5), (0.0, 0.0)).counts == (16, 8)


@pytest.mark.parametrize("counts, spacing", [
    ((256,), (0.1,)), ((64, 16), (0.3, 0.6)), ((64, 64), (0.35, 0.35)), ((512, 512), (0.05, 0.05)),
])
def test_size_and_vol_keep_the_bits_of_np_prod(counts, spacing):
    g = Grid(counts, spacing, (0.0,) * len(counts))
    assert type(g.vol) is float and g.vol.hex() == float(np.prod(spacing)).hex()
    assert type(g.size) is int and g.size == int(np.prod(counts))


def test_float32_grid_builds_the_plan_of_its_float64_twin():
    """Equal grids share one key in the grid-record and plan stores, so a
    grid keeps Python floats whatever it was given, and which twin builds
    first cannot decide the bytes the other gets."""
    twin64 = Grid((64,), (0.5,), (-16.0,))
    twin32 = Grid((64,), (np.float32(0.5),), (np.float32(-16.0),))
    assert twin32 == twin64
    assert all(type(v) is float for v in twin32.spacing + twin32.origin)
    m = preset("frft", 1, alpha=0.7)
    posts = set()
    for order in ((twin32, twin64), (twin64, twin32)):
        transform._grid_axes.cache_clear()
        posts.update(transform._FastPlan(g, m).post.tobytes() for g in order)
    assert len(posts) == 1


def test_spectrum_and_gram_refuse_a_matrix_of_another_dimension():
    g, m2 = grid1(64, 0.25), preset("fourier", 2)
    with pytest.raises(GridMismatch, match="dimension"):
        Spectrum(m2, np.zeros(64), g)
    with pytest.raises(GridMismatch, match="dimension"):
        Gram(m2, g, 2, np.zeros((32, 64)))


def test_mesh_and_flat_points_agree():
    # mesh() gives one broadcastable axis per dimension, not N^n coordinates
    g = grid2(8, 0.5)
    pts = g.flat_points()
    mx, my = g.mesh()
    assert (mx.shape, my.shape) == ((8, 1), (1, 8))
    assert np.array_equal(mx[:, 0], g.axis(0)) and np.array_equal(my[0], g.axis(1))
    assert pts.shape == (64, 2)
    bx, by = np.broadcast_arrays(mx, my)
    assert np.array_equal(pts[:, 0], bx.ravel())
    assert np.array_equal(pts[:, 1], by.ravel())
    (ax,) = grid1().mesh()
    assert np.array_equal(ax, grid1().axis(0))


def test_output_lattice_is_b_over_the_frequency_grid_and_built_lazily():
    g = grid2(8, 0.5)
    m = preset("fresnel", 2, b=np.array([[1.5, 0.3], [0.3, 1.1]]))
    lat = output_lattice(g, m)
    assert lat.base == frequency_grid(g)
    assert np.array_equal(lat.warp, m.b)
    pts = lat.flat_points()
    assert pts.shape == (64, 2)
    for j, ax in enumerate(lat.point_meshes()):
        assert np.array_equal(pts[:, j], ax.ravel())
    spec = nslct_fast(synthesize("gaussian", g), m)
    assert "wgrid" not in vars(spec)  # the spectrum builds its lattice on first use
    assert spec.cell == lat.cell
    assert "wgrid" in vars(spec)
    with pytest.raises(GridMismatch, match="dimension"):
        output_lattice(grid1(), m)


def test_frequency_grid_covers_nyquist_band():
    g = grid1()
    fg = frequency_grid(g)
    assert fg.counts == g.counts
    assert fg.spacing[0] == pytest.approx(2 * np.pi / 25.6)
    # ascending, symmetric about zero with the usual half-open convention
    ax = fg.axis(0)
    assert ax[128] == 0.0
    assert ax[0] == pytest.approx(-np.pi / 0.1)


def test_warped_grid_cell_scales_by_determinant():
    g = grid1()
    fg = frequency_grid(g)
    w = WarpedGrid(fg, np.array([[2.0]]))
    assert w.det_warp == pytest.approx(2.0)
    assert w.cell == pytest.approx(2.0 * fg.vol)
    wx = w.point_meshes()[0]
    assert wx[0] == pytest.approx(2.0 * fg.axis(0)[0])


def test_signal_requires_finite_values():
    g = grid1(8, 0.5)
    with pytest.raises(NSLCTError):
        SampledSignal(g, np.full(8, np.nan, dtype=complex))
    with pytest.raises(NSLCTError):
        SampledSignal(g, np.zeros(4, dtype=complex))  # wrong size
    with pytest.raises(GridMismatch):  # the right size, transposed: never reshaped
        SampledSignal(Grid.centered((16, 64), 0.1), np.zeros((64, 16)))


def test_inner_and_norm_consistency():
    g = grid1()
    f = synthesize("gaussian", g, sigma=1.0)
    assert inner(f, f).real == pytest.approx(norm_l2(f) ** 2)
    assert norm_l2(f) == pytest.approx(1.0)


def test_inner_rejects_grid_mismatch():
    f = synthesize("gaussian", grid1(), sigma=1.0)
    h = synthesize("gaussian", grid1(128, 0.1), sigma=1.0)
    with pytest.raises(GridMismatch):
        inner(f, h)


def test_gaussian_matches_continuum_normalization():
    g = grid1()
    f = synthesize("gaussian", g, sigma=1.0, normalize=False)
    x = g.axis(0)
    want = np.pi ** -0.25 * np.exp(-0.5 * x**2)
    assert np.allclose(f.values, want, atol=1e-15)


def test_chirp_has_unit_modulus_phase_times_envelope():
    g = grid1()
    f = synthesize("chirp", g, freq=1.0, rate=0.5)
    assert norm_l2(f) == pytest.approx(1.0)
    # quadratic phase should not move energy off the envelope
    plain = synthesize("chirp", g, freq=0.0, rate=0.0)
    assert np.allclose(np.abs(f.values), np.abs(plain.values), rtol=1e-12)


def test_noise_requires_seed_and_is_reproducible():
    g = grid1()
    with pytest.raises(BadParam):
        synthesize("noise", g)
    a = synthesize("noise", g, seed=9)
    b = synthesize("noise", g, seed=9)
    assert np.array_equal(a.values, b.values)
    c = synthesize("noise", g, seed=10)
    assert not np.array_equal(a.values, c.values)


def test_boxcar_indicator():
    g = grid1(16, 1.0)
    f = synthesize("boxcar", g, lo=(-2.0,), hi=(3.0,))
    x = g.axis(0)
    want = ((x >= -2.0) & (x <= 3.0)).astype(complex)
    assert np.array_equal(f.values, want)
    with pytest.raises(BadParam):
        synthesize("boxcar", g)


def test_synthesize_rejects_unknown_kind_and_leftover_params():
    g = grid1(8, 0.5)
    with pytest.raises(BadParam):
        synthesize("sawtooth", g)
    with pytest.raises(BadParam):
        synthesize("gaussian", g, sigma=1.0, wavelength=3.0)
    for sigma in (0.0, -1.0):
        with pytest.raises(BadParam):
            synthesize("gaussian", g, sigma=sigma)
    for band in (0.0, 1.5):
        with pytest.raises(BadParam):
            synthesize("noise", g, seed=1, band=band)
    with pytest.raises(BadParam, match="all-zero"):  # every sample underflows to 0
        synthesize("gaussian", grid1(), sigma=1e-3, center=0.05)


def test_lp_norm_limits():
    g = grid1()
    f = synthesize("gaussian", g, sigma=1.0)
    assert lp_norm(f, 2) == pytest.approx(norm_l2(f))
    assert lp_norm(f, np.inf) == pytest.approx(np.max(np.abs(f.values)))
    with pytest.raises(BadParam):
        lp_norm(f, 0.5)


def test_lp_norms_keep_the_bytes_of_one_sum_over_the_whole_table():
    g = grid2()
    f = synthesize("chirp", g, freq=(1.0, -0.5), rate=(0.3, 0.2), sigma=1.5)
    m = preset("frft", 2, alpha=0.9)
    spec = nslct_fast(f, m)
    gram = stnslct_gram(f, WindowSpec(synthesize("gaussian", g, sigma=1.4), stride=2), m)
    assert gram.values.size // grids._CHUNK_POINTS == 128  # the gram's sums run block by block
    for obj in (f, spec, gram):
        want = np.abs(obj.values)
        for p in (1.0, 1.5, 2.0, 3.0, 4.0):
            assert lp_norm(obj, p) == float((obj.cell * np.sum(want**p)) ** (1.0 / p))
        assert lp_norm(obj, np.inf) == float(np.max(want))


def _written_synthesis(kind: str, grid: Grid, **params) -> np.ndarray:
    """synthesize's values, written out: each product or sum over the axes
    starts from a full grid of ones or zeros, and the L2 scale is
    sqrt(vol * sum |v|^2)."""
    n = grid.n

    def per_axis(value):
        vals = np.atleast_1d(np.asarray(value))
        return tuple(float(v) for v in (np.repeat(vals, n) if vals.size == 1 else vals))

    def gaussian(sigma, center):
        sig, cen = per_axis(sigma), per_axis(center)
        out = np.ones(grid.counts)
        for j, m in enumerate(grid.mesh()):
            out = out * (math.pi ** -0.25 / math.sqrt(sig[j]) * np.exp(-((m - cen[j]) ** 2) / (2.0 * sig[j] ** 2)))
        return out.astype(np.complex128)

    default_sig = tuple(N * s / 16.0 for N, s in zip(grid.counts, grid.spacing))
    if kind == "gaussian":
        vals = gaussian(params.get("sigma", 1.0), params.get("center", 0.0))
    elif kind == "chirp":
        env = gaussian(params.get("sigma", default_sig), params.get("center", 0.0))
        freq, rate = per_axis(params.get("freq", 0.0)), per_axis(params.get("rate", 0.0))
        phase = np.zeros(grid.counts)
        for j, m in enumerate(grid.mesh()):
            phase = phase + freq[j] * m + 0.5 * rate[j] * m * m
        vals = env * np.exp(1j * phase)
    elif kind == "noise":
        rng = np.random.default_rng(params["seed"])
        spec = rng.standard_normal(grid.counts) + 1j * rng.standard_normal(grid.counts)
        for j in range(n):
            om = 2.0 * math.pi * np.fft.fftfreq(grid.counts[j], d=grid.spacing[j])
            keep = np.abs(om) <= params["band"] * math.pi / grid.spacing[j]
            spec = spec * keep.reshape([grid.counts[j] if i == j else 1 for i in range(n)])
        vals = np.fft.ifftn(spec) * gaussian(params.get("sigma", default_sig), 0.0)
    else:
        inside = np.ones(grid.counts, dtype=bool)
        for j, m in enumerate(grid.mesh()):
            inside &= (m >= per_axis(params["lo"])[j]) & (m <= per_axis(params["hi"])[j])
        return inside.astype(np.complex128)
    return vals / math.sqrt(max(complex(grid.vol * np.sum(vals * np.conj(vals))).real, 0.0))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind, params", [
    ("gaussian", {}),
    ("gaussian", {"sigma": (0.9, 1.3), "center": (0.2, -0.4)}),
    ("chirp", {}),  # a zero phase everywhere
    ("chirp", {"freq": (-0.7, 1.1), "rate": (0.4, -0.25), "sigma": 1.2}),  # -0.0 at x = 0
    ("chirp", {"freq": (0.0, -0.5), "rate": (-0.3, 0.0), "center": (0.3, 0.1)}),
    ("noise", {"seed": 3, "band": 0.4}),
    ("noise", {"seed": 11, "band": 1.0, "sigma": 0.8}),
    ("boxcar", {"lo": (-0.5, -1.0), "hi": (0.7, 0.4)}),
])
def test_synthesize_keeps_the_written_out_bytes(n, kind, params):
    grid = grid1() if n == 1 else grid2()
    params = {k: v[:n] if isinstance(v, tuple) else v for k, v in params.items()}
    got = synthesize(kind, grid, **params).values
    want = _written_synthesis(kind, grid, **params)
    assert got.shape == want.shape == grid.counts
    assert got.tobytes() == want.astype(np.complex128).tobytes()


def test_frequency_grid_is_kept_per_grid():
    """Equal grids share one frequency lattice, omega_j = 2 pi m / (N_j delta_j)
    for m in [-N_j/2, N_j/2), which a fresh spectrum's cell reads."""
    g = Grid((64, 32), (0.35, 0.2), (-11.2, -3.0))
    fg = frequency_grid(g)
    assert frequency_grid(Grid((64, 32), (0.35, 0.2), (-11.2, -3.0))) is fg
    for j, (N, d) in enumerate(zip(g.counts, g.spacing)):
        step = 2.0 * math.pi / (N * d)
        assert fg.counts[j] == N and fg.spacing[j] == step and fg.origin[j] == -(N // 2) * step
    m = preset("frft", 2, alpha=0.9)
    spec = nslct_fast(synthesize("gaussian", g, sigma=1.0), m)
    assert spec.wgrid.base is fg and spec.cell == abs(m.det_b) * fg.vol


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_a_tree_of_block_sums_keeps_the_bytes_of_np_sum(dtype):
    # every sum of the pass rests on numpy's pairwise np.sum splitting a
    # contiguous 2^k array at exact halves; a numpy that sums otherwise fails here
    rng = np.random.default_rng(11)
    x = rng.standard_normal(2**22)
    if dtype is np.complex128:
        x = x + 1j * rng.standard_normal(2**22)
    for j in range(3, 23):
        cells = x[: 2**j]
        want = np.sum(cells).tobytes()
        for block in {grids._CHUNK_POINTS, 2**7, 2**11}:  # smaller blocks, deeper trees
            block = min(block, 2**j)
            sums = [np.sum(cells[k:k + block]) for k in range(0, 2**j, block)]
            assert grids._tree(sums).tobytes() == want, (j, block)


# The one chunk rule: shift lattices under their grids' rows, kept tables
# cell by cell, and nslct_direct's ragged point list.


@pytest.mark.parametrize("lead, row", [
    ((64,), 256), ((2048,), 2048), ((32, 32), 4096), ((32, 8), 1024), ((8, 8), 65536),
    ((32, 32, 64, 64), 1), ((256, 256), 1), ((256,), 1), ((700,), 64),
])
def test_chunks_cut_a_table_in_row_major_order_into_equal_contiguous_runs(lead, row):
    total = math.prod(lead)
    cells = np.arange(total).reshape(lead)
    parts = [cells[chunk] for chunk in grids._chunks(lead, row)]
    assert np.array_equal(np.concatenate([part.ravel() for part in parts]), np.arange(total))
    assert all(part.flags.c_contiguous for part in parts)
    want = min(total, max(1, grids._CHUNK_POINTS // row))
    last = total % want or want  # shorter only on a single ragged axis
    assert len(lead) == 1 or last == want
    assert [part.size for part in parts] == [want] * (len(parts) - 1) + [last]


# The chunk runner's promises over 64 chunks at 2 and 3 threads; work takes
# (chunk, *slot), so these also hold a runner that passes no slot number.


@pytest.mark.parametrize("workers", [2, 3])
def test_the_chunk_runner_keeps_at_most_a_thread_count_plus_one_results_alive(workers, monkeypatch):
    monkeypatch.setattr(grids, "_WORKERS", workers)
    lock = threading.Lock()
    alive = [0, 0]  # results started or made but not yet taken, and the most seen
    taken = []

    def work(chunk, *slot):
        with lock:
            alive[0] += 1
            alive[1] = max(alive)
        return chunk

    def take(chunk, out):
        time.sleep(1e-3)  # a slow consumer, which threads left unchecked would outrun
        with lock:
            alive[0] -= 1
        taken.append(out)

    grids._chunkwise(list(range(64)), work, take)
    assert taken == list(range(64))
    assert alive[1] <= workers + 1


@pytest.mark.parametrize("workers", [2, 3])
def test_each_chunk_runner_thread_is_held_to_one_cpu(workers, monkeypatch):
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cpus) < 2:
        pytest.skip("needs an affinity set of 2 or more CPUs")
    monkeypatch.setattr(grids, "_WORKERS", workers)
    seen = {}

    def work(chunk, *slot):
        seen.setdefault(threading.get_ident(), set()).add(frozenset(os.sched_getaffinity(0)))
        time.sleep(1e-3)  # long enough that every thread works chunks
        return chunk

    grids._chunkwise(list(range(64)), work, lambda chunk, out: None)
    assert len(seen) == workers
    assert all(len(sets) == 1 and len(next(iter(sets))) == 1 for sets in seen.values())
    assert len({next(iter(sets)) for sets in seen.values()}) == min(workers, len(cpus))
    assert os.sched_getaffinity(0) == set(cpus)  # the calling thread is never pinned


@pytest.mark.parametrize("workers", [2, 3])
def test_a_failing_chunk_stops_the_chunk_runner_within_a_window(workers, monkeypatch):
    """The first exception stops the call within a window of chunks; every
    chunk handed out has finished when the call returns, and the threads
    left are the kept slot threads, which the next call runs on."""
    monkeypatch.setattr(grids, "_WORKERS", workers)
    boom = RuntimeError("third chunk")
    started, finished = [], []

    def work(chunk, *slot):
        started.append(chunk)
        if chunk == 2:
            raise boom
        time.sleep(1e-3)  # chunks still at work when the exception comes
        finished.append(chunk)
        return chunk

    threads = threads_after(workers)
    with pytest.raises(RuntimeError) as err:
        grids._chunkwise(list(range(64)), work, lambda chunk, out: None)
    assert err.value is boom
    assert len(started) <= 3 + workers + 1
    assert sorted(finished + [2]) == sorted(started)
    assert threading.active_count() == threads
    taken = []
    grids._chunkwise(list(range(64)), lambda chunk, *slot: chunk, lambda chunk, out: taken.append(out))
    assert taken == list(range(64))
    assert threading.active_count() == threads


def test_a_chunk_runner_call_from_a_slot_thread_runs_the_plain_loop(monkeypatch):
    """work that calls the chunk runner itself gets the plain loop on its own
    slot thread, in place of waiting on slot threads busy with the outer
    call."""
    monkeypatch.setattr(grids, "_WORKERS", 2)

    def work(chunk, slot):
        inner, me = [], threading.get_ident()
        grids._chunkwise(list(range(4)), lambda c, s: (c, s, threading.get_ident()),
                         lambda c, out: inner.append(out))
        return inner == [(c, 0, me) for c in range(4)]

    taken = []
    within(60, lambda: grids._chunkwise(list(range(8)), work, lambda chunk, ok: taken.append(ok)))
    assert taken == [True] * 8


def test_a_forked_child_starts_its_own_slot_threads(tmp_path, monkeypatch):
    """A child forked after the parent started its slot threads has none of
    them; its chunked calls start their own and give the parent's bytes."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    monkeypatch.setattr(grids, "_WORKERS", 2)
    g2 = Grid.centered((512, 512), 0.05)
    f2 = synthesize("noise", g2, seed=61)
    m2 = random_free_matrix(np.random.default_rng(62), 2)
    g1 = grid1(512, 0.05)
    f1 = synthesize("noise", g1, seed=63)
    wspec = WindowSpec(synthesize("gaussian", g1, sigma=1.2), stride=1)
    m1 = random_free_matrix(np.random.default_rng(64), 1)

    def outputs():  # a 512^2 transform in 8 row blocks and a gram in 8 chunks
        return [nslct_fast(f2, m2).values.tobytes(), stnslct_gram(f1, wspec, m1).values.tobytes()]

    want = outputs()  # starts the parent's slot threads
    assert len(grids._slots) >= 2

    def child():
        for i, out in enumerate(outputs()):
            (tmp_path / f"{i}.bin").write_bytes(out)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(120)
    if proc.is_alive():
        proc.kill()
        proc.join()
    assert proc.exitcode == 0
    assert [(tmp_path / f"{i}.bin").read_bytes() for i in range(2)] == want


@settings(max_examples=40, deadline=None)
@given(
    sigma=st.floats(0.5, 2.5),
    shift=st.floats(-3.0, 3.0),
    scale=st.floats(0.1, 5.0),
)
def test_norm_homogeneity(sigma, shift, scale):
    g = grid1()
    f = synthesize("gaussian", g, sigma=sigma, center=shift)
    scaled = SampledSignal(g, scale * f.values)
    assert norm_l2(scaled) == pytest.approx(scale * norm_l2(f), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(p=st.floats(1.0, 6.0), q=st.floats(1.0, 6.0))
def test_lp_norms_decrease_in_p_for_subunit_peak(p, q):
    # |f| <= 1 pointwise makes p -> ||f||_p^p monotone non-increasing
    g = grid1()
    f = synthesize("gaussian", g, sigma=1.0, normalize=False)
    lo, hi = sorted((p, q))
    assert lp_norm(f, hi) ** hi <= lp_norm(f, lo) ** lo * (1 + 1e-12)
