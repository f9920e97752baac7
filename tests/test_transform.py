import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nslct import (
    BadParam,
    Grid,
    GridMismatch,
    SampledSignal,
    Spectrum,
    WindowSpec,
    frequency_grid,
    output_lattice,
    inverse,
    kernel_eval,
    lp_norm,
    norm_l2,
    nslct_direct,
    nslct_fast,
    nslct_inverse,
    preset,
    random_free_matrix,
    same_matrix,
    spectrum_as_signal,
    stnslct_gram,
    synthesize,
    validate,
)
from nslct import grids, transform
from nslct.symplectic import fourier, fresnel, frft, separable
from nslct.transform import _FastPlan, _plan

from helpers import gaussian_1d, grid1, grid2, reference_nslct, rel_max_err, shift_sign, traced_peak


def lattice_points(spec):
    return spec.wgrid.flat_points()


def test_kernel_value_at_origin_fourier():
    m = preset("fourier", 1)
    k = kernel_eval(m, np.array([0.0]), np.array([0.0]))
    assert k == pytest.approx(0.3989422804014327)
    assert kernel_eval(m, np.array([1.3]), np.array([0.0])) == pytest.approx(k)


def test_kernel_modulus_is_flat():
    rng = np.random.default_rng(0)
    m = random_free_matrix(rng, 2)
    x = rng.normal(size=(40, 2))
    w = rng.normal(size=(40, 2))
    vals = kernel_eval(m, x, w)
    want = (2 * np.pi) ** -1.0 / np.sqrt(abs(m.det_b))
    assert np.allclose(np.abs(vals), want, rtol=1e-12)


def test_direct_matches_reference_quadrature():
    g = grid1(64, 0.25)
    f = gaussian_1d(g, sigma=1.0)
    m = preset("frft", 1, alpha=0.7)
    wpts = np.linspace(-3.0, 3.0, 17)
    got = nslct_direct(f, m, wpts)
    want = reference_nslct(f, (m.a, m.b, m.c, m.d), wpts)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("n, counts, points", [(2, 64, 700), (1, 1024, 75)])
def test_direct_matches_reference_off_the_lattice_in_partial_chunks(n, counts, points):
    """Per-axis factors against the per-point loop at random points, with a
    point count that leaves the last chunk partial."""
    rng = np.random.default_rng(40 + n)
    m = random_free_matrix(rng, n)
    g = grid2(counts) if n == 2 else grid1(counts, 0.05)
    assert points % max(1, grids._CHUNK_POINTS // counts) != 0
    if n == 2:
        assert m.b[0, 1] != 0.0 and m.b_inva[0, 1] != 0.0  # not separable
    f = synthesize("noise", g, seed=9)
    wpts = rng.uniform(-3.0, 3.0, size=(points, n))
    got = nslct_direct(f, m, wpts)
    assert got.shape == (points,)
    assert rel_max_err(got, reference_nslct(f, (m.a, m.b, m.c, m.d), wpts)) <= 1e-12


def test_direct_takes_scalar_and_empty_point_sets():
    m1 = random_free_matrix(np.random.default_rng(42), 1)
    f1 = synthesize("noise", grid1(64, 0.25), seed=3)
    got = nslct_direct(f1, m1, 0.7)
    assert got.shape == (1,)
    assert rel_max_err(got, reference_nslct(f1, (m1.a, m1.b, m1.c, m1.d), [0.7])) <= 1e-12
    assert nslct_direct(f1, m1, []).shape == (0,)
    m2 = random_free_matrix(np.random.default_rng(43), 2)
    f2 = synthesize("noise", grid2(16), seed=4)
    assert nslct_direct(f2, m2, np.empty((0, 2))).shape == (0,)
    assert nslct_direct(f2, m2, []).shape == (0,)
    with pytest.raises(GridMismatch):  # points with three coordinates in 2-D
        nslct_direct(f2, m2, [[0.0, 0.0, 0.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_refused(bad):
    m1 = preset("frft", 1, alpha=0.7)
    with pytest.raises(BadParam):
        nslct_direct(synthesize("noise", grid1(64, 0.25), seed=3), m1, [0.0, bad])
    with pytest.raises(BadParam):
        kernel_eval(m1, [bad], [0.0])
    with pytest.raises(BadParam):
        kernel_eval(m1, [0.0], [bad])
    m2 = random_free_matrix(np.random.default_rng(43), 2)
    with pytest.raises(BadParam):
        nslct_direct(synthesize("noise", grid2(16), seed=4), m2, [[0.0, 0.0], [1.0, bad]])


def test_kernel_eval_sums_to_the_reference_quadrature():
    """vol * sum_x f(x) K_M(x, w) is the defining sum, phase and all: a sign
    flip of the cross term or B^-1 read for B^-T would fail here."""
    rng = np.random.default_rng(45)
    m = random_free_matrix(rng, 2)
    assert m.b_invt[0, 1] != m.b_invt[1, 0]  # B^-1 and B^-T differ
    g = grid2(16)
    f = synthesize("noise", g, seed=6)
    wpts = rng.uniform(-3.0, 3.0, size=(40, 2))
    k = kernel_eval(m, g.flat_points()[:, np.newaxis, :], wpts[np.newaxis, :, :])
    got = g.vol * np.sum(f.values.reshape(-1, 1) * k, axis=0)
    assert rel_max_err(got, reference_nslct(f, (m.a, m.b, m.c, m.d), wpts)) <= 1e-12
    assert rel_max_err(got, nslct_direct(f, m, wpts)) <= 1e-12


def test_direct_reads_no_plan():
    """The oracle builds its chirps itself: no plan exists for its matrix."""
    m = random_free_matrix(np.random.default_rng(44), 2)
    f = synthesize("noise", grid2(32), seed=5)
    before = transform._grid_axes.cache_info()
    nslct_direct(f, m, np.zeros((3, 2)))
    assert transform._grid_axes.cache_info() == before  # no grid record read
    assert m not in transform._grid_axes(f.grid).plans


def test_fast_agrees_with_direct_on_warped_lattice():
    g = grid1()
    f = synthesize("chirp", g, freq=1.1, rate=0.4)
    for m in (
        preset("fourier", 1),
        preset("frft", 1, alpha=0.7),
        preset("fresnel", 1, b=1.5),
        preset("separable", 1, a=1.0, b=2.0, c=0.0, d=1.0),
    ):
        spec = nslct_fast(f, m)
        direct = nslct_direct(f, m, lattice_points(spec))
        assert rel_max_err(direct, spec.values.ravel()) <= 1e-12


def test_fast_gaussian_fourier_closed_form():
    # unit-variance Gaussian is a fixed point of the unitary Fourier transform
    g = grid1()
    f = gaussian_1d(g, sigma=1.0)
    spec = nslct_fast(f, preset("fourier", 1))
    w = spec.wgrid.point_meshes()[0]
    want = np.pi**-0.25 * np.exp(-0.5 * w**2)
    want *= norm_l2(f) / np.sqrt(np.sum(np.abs(want) ** 2) * spec.wgrid.cell)
    assert np.max(np.abs(spec.values - want)) <= 1e-9


def test_parseval_across_presets_and_dimensions():
    cases = [
        (grid1(), synthesize("noise", grid1(), seed=4), preset("frft", 1, alpha=0.9)),
        (grid2(), synthesize("gaussian", grid2(), sigma=(1.0, 1.4)), preset("fresnel", 2, b=1.5)),
    ]
    for _, f, m in cases:
        spec = nslct_fast(f, m)
        assert abs(lp_norm(spec, 2) - norm_l2(f)) <= 1e-10


def test_round_trip_identity():
    rng = np.random.default_rng(12)
    f = synthesize("noise", grid1(), seed=21)
    for n, f in ((1, f), (2, synthesize("noise", grid2(), seed=22))):
        m = random_free_matrix(rng, n)
        back = nslct_inverse(nslct_fast(f, m), m)
        assert back.grid == f.grid
        assert np.max(np.abs(back.values - f.values)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_inverse_multiplies_by_the_reciprocal_output_factor(n):
    """nslct_inverse is ifftn(ifftshift(V * unpost)) * conj(chirp) byte for
    byte, with unpost = conj(post) * unscale, the reciprocal of the output
    factor, named once (see _FastPlan.inverse_chirped), and chirp the input
    chirp without the plan's sign."""
    g = grid1() if n == 1 else grid2()
    f = synthesize("noise", g, seed=23)
    m = random_free_matrix(np.random.default_rng(24), n)
    spec = nslct_fast(f, m)
    plan = _plan(g, m)
    unpost = np.conj(plan.post) * plan.unscale
    chirp = plan.chirp * shift_sign(g.counts)
    want = np.fft.ifftn(np.fft.ifftshift(spec.values * unpost)) * np.conj(chirp)
    assert nslct_inverse(spec, m).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("counts, spacing", [((256,), 0.1), ((2048,), 0.05), ((64, 64), 0.35),
                                             ((512, 512), 0.05)])
def test_round_trip_of_noise_is_within_rounding_of_the_peak(counts, spacing):
    g = Grid.centered(counts, spacing)
    for seed in range(2):
        f = synthesize("noise", g, seed=seed)
        m = random_free_matrix(np.random.default_rng(seed + 50), g.n)
        back = nslct_inverse(nslct_fast(f, m), m)
        assert np.max(np.abs(back.values - f.values)) <= 2e-15 * np.max(np.abs(f.values)), seed


def test_inverse_rejects_foreign_spectrum():
    f = gaussian_1d(grid1())
    spec = nslct_fast(f, preset("fourier", 1))
    other = preset("frft", 1, alpha=0.5)
    with pytest.raises(GridMismatch):
        nslct_inverse(spec, other)


def test_inverse_matrix_transform_undoes_forward_pointwise():
    # applying the transform of M^-1 to sampled forward values reproduces f
    # up to quadrature error; this is the analytic inversion statement
    # rather than the algebraic FFT round trip
    g = grid1()
    f = gaussian_1d(g, sigma=1.2)
    m = preset("frft", 1, alpha=0.8)
    spec = nslct_fast(f, m)
    sig = spectrum_as_signal(spec)  # diagonal warp, so a true uniform grid
    back = nslct_direct(sig, inverse(m), g.flat_points())
    assert np.max(np.abs(back - f.values.ravel())) <= 1e-6


def test_plan_and_chirp_signal_keep_the_bytes_of_dense_coordinates():
    """Plan factors and a 2-D chirp signal, read off broadcastable axes, equal
    the same expressions on dense np.meshgrid arrays byte for byte, whether
    the plan reads its grid's record warm or builds it; the plan's chirp is
    compared without its sign."""
    def dense(grid):
        return np.meshgrid(*(grid.axis(j) for j in range(grid.n)), indexing="ij")

    def quad(xs, q):  # x^T q x / 2, summed in the plan's order
        out = np.zeros(xs[0].shape)
        for i in range(len(xs)):
            for j in range(len(xs)):
                if q[i, j] != 0.0:
                    out += q[i, j] * (xs[i] * xs[j])
        return 0.5 * out

    rng = np.random.default_rng(41)
    g2 = Grid((64, 16), (0.3, 0.6), (-30 * 0.3, -7 * 0.6))
    # an off-centre origin, and an origin of exactly 0.0, whose carrier
    # omega * 0.0 holds signed zeros until sum's int start makes them 0.0
    off1 = Grid((128,), (0.1,), (-12.3,))
    zero2 = Grid((32, 16), (0.3, 0.6), (0.0, -5 * 0.6))
    for g in (grid1(), g2, off1, zero2):
        n = g.n
        for _ in range(2):  # the second plan reads the record the first built
            m = random_free_matrix(rng, n)
            if n == 2:  # non-separable: the cross terms of both chirps are live
                assert m.b_inva[0, 1] != 0.0 and m.db_inv[0, 1] != 0.0
            x, omega = dense(g), dense(output_lattice(g, m).base)
            w = [sum(m.b[i, j] * omega[j] for j in range(n)) for i in range(n)]
            carrier = sum(omega[j] * g.origin[j] for j in range(n))
            amp = g.vol * (2.0 * math.pi) ** (-n / 2.0) / math.sqrt(abs(m.det_b))
            plan = _FastPlan(g, m)
            chirp = plan.chirp * shift_sign(g.counts)
            assert chirp.tobytes() == np.exp(1j * quad(x, m.b_inva)).tobytes()
            assert plan.post.tobytes() == (np.exp(1j * (quad(w, m.db_inv) - carrier)) * amp).tobytes()
        transform._grid_axes.cache_clear()
        cold = _FastPlan(g, m)
        assert cold.chirp.tobytes() == plan.chirp.tobytes()
        assert cold.post.tobytes() == plan.post.tobytes()

    sigma, center, freq, rate = (1.1, 0.9), (0.3, -0.2), (1.2, -0.7), (0.25, 0.4)
    f = synthesize("chirp", g2, sigma=sigma, center=center, freq=freq, rate=rate)
    env, phase = np.ones(g2.counts), np.zeros(g2.counts)
    for j, xj in enumerate(dense(g2)):
        env = env * (math.pi ** -0.25 / math.sqrt(sigma[j])
                     * np.exp(-((xj - center[j]) ** 2) / (2.0 * sigma[j] ** 2)))
        phase = phase + freq[j] * xj + 0.5 * rate[j] * xj * xj
    vals = env.astype(np.complex128) * np.exp(1j * phase)
    vals = vals / norm_l2(SampledSignal(g2, vals))
    assert f.values.tobytes() == vals.tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_stored_plan_gives_the_bytes_of_a_fresh_one(n, monkeypatch):
    f = synthesize("noise", grid1() if n == 1 else grid2(), seed=31)
    m = random_free_matrix(np.random.default_rng(32), n)
    stored = [nslct_fast(f, m) for _ in range(2)]  # the second call reuses the plan
    back = [nslct_inverse(spec, m) for spec in stored]
    monkeypatch.setattr(transform, "_plan", lambda grid, m: _FastPlan(grid, m))
    spec = nslct_fast(f, m)
    expect = nslct_inverse(spec, m).values.tobytes()
    assert all(s.values.tobytes() == spec.values.tobytes() for s in stored)
    assert all(b.values.tobytes() == expect for b in back)


@pytest.mark.parametrize("n_grid, n_matrix", [(1, 2), (2, 1)])
def test_matrix_of_another_dimension_is_refused_before_any_plan(n_grid, n_matrix):
    """Read on a 1-D grid, a 2x2 block would give a silently wrong spectrum
    from its q[0, 0] alone: every entry point refuses the pair, and the
    matrix never enters the plan store."""
    g = grid1(64, 0.25) if n_grid == 1 else grid2(16)
    f = synthesize("noise", g, seed=7)
    wspec = WindowSpec(synthesize("gaussian", g, sigma=1.0), 2)
    m = random_free_matrix(np.random.default_rng(46), n_matrix)
    calls = (
        lambda: nslct_fast(f, m),
        lambda: nslct_direct(f, m, np.zeros((3, n_matrix))),
        lambda: stnslct_gram(f, wspec, m),
        lambda: nslct_inverse(Spectrum(m, f.values, g), m),
    )
    for call in calls:
        with pytest.raises(GridMismatch):
            call()
    assert m not in transform._grid_axes(g).plans


def test_grid_record_is_shared_read_only_small_and_bounded(monkeypatch):
    g = grid2(16)
    transform._grid_axes.cache_clear()
    calls = {"mesh": 0, "frequency_grid": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Grid, "mesh", counted("mesh", Grid.mesh))
    monkeypatch.setattr(transform, "frequency_grid", counted("frequency_grid", frequency_grid))
    rng = np.random.default_rng(47)
    cold = _FastPlan(g, random_free_matrix(rng, 2))
    assert calls["mesh"] > 0 and calls["frequency_grid"] == 1
    calls.update(mesh=0, frequency_grid=0)
    warm = _FastPlan(g, random_free_matrix(rng, 2))
    assert calls == {"mesh": 0, "frequency_grid": 0}
    axes = transform._grid_axes(g)
    for got, want in ((axes.xs, g.mesh()), (axes.omegas, frequency_grid(g).mesh())):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    for arr in (*axes.xs, *axes.omegas, *axes.carriers):
        assert arr.size <= max(g.counts)
        with pytest.raises(ValueError):
            arr[(0,) * g.n] = 1.0

    m = preset("frft", 1, alpha=0.3)
    kept = 8  # the grid records in the store
    grids = [Grid.centered(8 * 2**k, 0.5) for k in range(kept + 2)]
    transform._grid_axes.cache_clear()
    for grid in grids:
        _FastPlan(grid, m)
        _FastPlan(grids[0], m)  # keep the first grid recently used
    info = transform._grid_axes.cache_info()
    # each grid was built once: the first, used most recently, was never evicted
    assert (info.hits, info.misses, info.currsize) == (len(grids), len(grids), kept)
    for grid, hit in ((grids[0], True), (grids[-1], True), (grids[1], False)):
        before = transform._grid_axes.cache_info()
        transform._grid_axes(grid)
        after = transform._grid_axes.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (hit, not hit)


def test_plans_are_keyed_on_the_matrix_object():
    base = random_free_matrix(np.random.default_rng(33), 2)
    m1, m2 = (validate(base.a, base.b, base.c, base.d) for _ in range(2))
    assert same_matrix(m1, m2)
    g = grid2()
    assert _plan(g, m1) is _plan(g, m1)
    assert _plan(g, m1) is not _plan(g, m2)


def test_inverse_keys_on_its_own_matrix_argument():
    base = random_free_matrix(np.random.default_rng(34), 1)
    m1, m2 = (validate(base.a, base.b, base.c, base.d) for _ in range(2))
    f = gaussian_1d(grid1())
    nslct_inverse(nslct_fast(f, m1), m2)
    assert m2 in transform._grid_axes(f.grid).plans


def test_plans_are_dropped_with_their_matrix():
    m = random_free_matrix(np.random.default_rng(35), 1)
    f = gaussian_1d(grid1())
    spec = nslct_fast(f, m)
    plan = weakref.ref(_plan(f.grid, m))
    plans = transform._grid_axes(f.grid).plans
    stored = len(plans)
    del m, spec
    gc.collect()
    assert plan() is None
    assert len(plans) <= stored - 1


def test_plans_are_freed_with_their_grid_record_and_rebuilt_to_the_same_bytes():
    """A matrix used on more grids than the store keeps holds plans only in
    the records still kept; a plan rebuilt after its grid's eviction has the
    bytes of the one freed."""
    m = random_free_matrix(np.random.default_rng(36), 1)
    kept = 8  # the grid records in the store
    grids = [Grid.centered(8 * 2**k, 0.5) for k in range(kept + 2)]
    transform._grid_axes.cache_clear()
    first = _plan(grids[0], m)
    chirp, post = first.chirp.tobytes(), first.post.tobytes()
    del first
    plans = [weakref.ref(_plan(g, m)) for g in grids]
    gc.collect()
    assert [p() is not None for p in plans] == [False] * 2 + [True] * kept
    again = _plan(grids[0], m)
    assert again.chirp.tobytes() == chirp and again.post.tobytes() == post


@pytest.mark.parametrize(
    "counts",
    [(2**k,) for k in range(3, 17)] + [(8, 8), (16, 64), (64, 16), (64, 64), (128, 128), (512, 512)],
    ids=lambda counts: "x".join(map(str, counts)),
)
def test_numpy_fft_of_the_signed_input_is_the_fftshift_byte_for_byte(counts):
    """The identity the plan's signed chirp rests on, for the FFTs a plan
    takes in place (transform._along_axes): fft(x (-1)^k) is
    fftshift(fft(x)) and ifft(y) (-1)^k is ifft(ifftshift(y)), byte for
    byte, on one grid and on a stack of two, for noise and for noise with
    exactly-zero cells (a boxcar)."""
    last = tuple(range(-len(counts), 0))
    sign = shift_sign(counts)
    rng = np.random.default_rng(sum(counts))
    box = np.zeros(counts)
    box[tuple(slice(N // 4, 3 * N // 4) for N in counts)] = 1.0
    for lead in ((), (2,)):
        noise = rng.standard_normal(lead + counts) + 1j * rng.standard_normal(lead + counts)
        for x, kind in ((noise, "noise"), (noise * box, "boxcar")):
            got, want = x * sign, x.copy()
            transform._along_axes(np.fft.fft, got, len(counts))
            transform._along_axes(np.fft.fft, want, len(counts))
            assert got.tobytes() == np.fft.fftshift(want, axes=last).tobytes(), ("fft", lead, kind)
            got, want = x.copy(), np.fft.ifftshift(x, axes=last)
            transform._along_axes(np.fft.ifft, got, len(counts))
            transform._along_axes(np.fft.ifft, want, len(counts))
            assert (got * sign).tobytes() == want.tobytes(), ("ifft", lead, kind)


def test_fast_transform_with_a_kept_plan_allocates_about_one_grid_array():
    """With its plan kept, nslct_fast allocates the chirped values and
    transforms them in place into the spectrum (traced peak, 512^2)."""
    g = Grid.centered((512, 512), 0.05)
    f = synthesize("noise", g, seed=51)
    m = random_free_matrix(np.random.default_rng(52), 2)
    nslct_fast(f, m)  # builds the plan, which the grid's record keeps
    _, peak = traced_peak(lambda: nslct_fast(f, m))
    assert peak <= 1.25 * f.values.nbytes, peak


@pytest.mark.parametrize("workers", [1, 2])
def test_inverse_with_a_kept_plan_allocates_one_grid_array_and_a_row_block_per_thread(workers, monkeypatch):
    """With its plan kept, a 2-D nslct_inverse allocates its output and,
    per thread, one row block of scratch (2^15 cells, 1/8 of a 512^2 grid)
    for its runs of unpost and conj(chirp); it builds no full-grid factor
    (traced peak, 512^2: 2.00 grid arrays when unpost was built whole)."""
    g = Grid.centered((512, 512), 0.05)
    f = synthesize("noise", g, seed=51)
    m = random_free_matrix(np.random.default_rng(52), 2)
    monkeypatch.setattr(grids, "_WORKERS", workers)
    spec = nslct_fast(f, m)  # builds the plan, which the grid's record keeps
    nslct_inverse(spec, m)  # starts the slot threads
    _, peak = traced_peak(lambda: nslct_inverse(spec, m))
    assert peak <= (1 + workers / 8) * f.values.nbytes + 16_384, peak / f.values.nbytes


def _whole_grid(plan, values, inverse: bool) -> np.ndarray:
    """The 2-D transform (or inverse) as one fftn (or ifftn) over the whole
    grid between the plan's factors."""
    if inverse:
        unpost = np.conj(plan.post)
        unpost *= plan.unscale
        return np.fft.ifftn(values * unpost, axes=(-2, -1)) * np.conj(plan.chirp)
    return np.fft.fftn(values * plan.chirp, axes=(-2, -1)) * plan.post


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("counts", [(512, 512), (256, 512), (8, 4096), (128, 128)],
                         ids=["512x512", "256x512", "8x4096", "128x128-one-chunk"])
def test_2d_transforms_in_row_and_column_passes_keep_the_bytes_of_one_fftn(counts, workers, monkeypatch):
    """nslct_fast and nslct_inverse in 2-D run in row and column passes on
    the chunk runner; each gives the bytes of one fftn (ifftn) over the
    grid, on noise and on an all-zero input, whose zeros keep their signs."""
    g = Grid.centered(counts, 0.05)
    rng = np.random.default_rng(53)
    noise = rng.standard_normal(counts) + 1j * rng.standard_normal(counts)
    monkeypatch.setattr(grids, "_WORKERS", workers)
    for draw in range(2):
        m = random_free_matrix(rng, 2)
        plan = _plan(g, m)
        for kind, values in (("noise", noise), ("zero", np.zeros(counts, np.complex128))):
            spec = nslct_fast(SampledSignal(g, values), m)
            assert spec.values.tobytes() == _whole_grid(plan, values, False).tobytes(), (draw, kind)
            back = nslct_inverse(Spectrum(m, values, g), m)
            assert back.values.tobytes() == _whole_grid(plan, values, True).tobytes(), (draw, kind)


def test_plan_arrays_are_read_only():
    plan = _plan(grid1(), preset("frft", 1, alpha=0.3))
    for arr in (plan.chirp, plan.post):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_spectrum_as_signal_requires_diagonal_warp():
    f = synthesize("gaussian", grid2(), sigma=1.0)
    rot = np.array([[0.8, 0.6], [-0.6, 0.8]])
    m = preset("fresnel", 2, b=1.5)
    spec = nslct_fast(f, m)
    ok = spectrum_as_signal(spec)
    assert ok.grid.spacing[0] == pytest.approx(1.5 * spec.wgrid.base.spacing[0])
    # (0, R : -R, 0) is free symplectic for a rotation R and puts R in B
    skew = type(spec)(validate(0 * rot, rot, -rot, 0 * rot), spec.values, f.grid)
    with pytest.raises(GridMismatch):
        spectrum_as_signal(skew)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.2, np.pi - 0.2), seed=st.integers(0, 2**16))
def test_parseval_property(alpha, seed):
    f = synthesize("noise", grid1(128, 0.15), seed=seed)
    spec = nslct_fast(f, preset("frft", 1, alpha=alpha))
    assert abs(lp_norm(spec, 2) - norm_l2(f)) <= 1e-10 * max(1.0, norm_l2(f))


@settings(max_examples=25, deadline=None)
@given(
    b=st.floats(0.4, 3.0),
    seed=st.integers(0, 2**16),
    scale=st.floats(0.2, 3.0),
)
def test_linearity_property(b, seed, scale):
    g = grid1(128, 0.15)
    f = synthesize("noise", g, seed=seed)
    h = synthesize("gaussian", g, sigma=1.0)
    m = preset("fresnel", 1, b=b)
    lhs = nslct_fast(SampledSignal(g, f.values + scale * h.values), m).values
    rhs = nslct_fast(f, m).values + scale * nslct_fast(h, m).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, scale)


def _written_form(us, q, vs):
    """_form as a sum that starts from a full grid of zeros."""
    out = np.zeros(np.broadcast(*us, *vs).shape)
    for i in range(len(us)):
        for j in range(len(vs)):
            if q[i, j] != 0.0:
                out += q[i, j] * (us[i] * vs[j])
    return out


def _form_cases():
    draws = [random_free_matrix(np.random.default_rng(s), n) for n in (1, 2) for s in range(3)]
    return [
        fourier(1), frft(0.7), fresnel(1.5), fresnel(-1.5), separable(1.0, 2.0, 0.0, 1.0),
        separable(-1.2, 0.8, 0.3, (1.0 + 0.8 * 0.3) / -1.2),
        fourier(2), frft(0.9, 2), fresnel(np.array([[1.2, 0.2], [0.2, 0.9]])),
        fresnel(np.array([[-1.2, 0.2], [0.2, -0.9]])),
        separable((1.0, 0.8), (2.0, 1.2), (0.0, 0.3), (1.0, (1.0 + 1.2 * 0.3) / 0.8)),
        separable((0.0, 1.0), (1.0, 2.0), (-1.0, 0.0), (0.0, 1.0)),  # one live term: a broadcast view
    ] + draws


@pytest.mark.parametrize("k", range(len(_form_cases())))
def test_kernel_chirps_direct_and_fresh_plans_keep_the_bytes_of_a_zero_started_form(k, monkeypatch):
    """_chirp, kernel_eval, nslct_direct and fresh-plan nslct_fast and
    nslct_inverse under fourier (q = 0), frft, fresnel, separable and random
    draws give the bytes of a form summed from a grid of zeros (0 + x is x
    but for the sign of a zero, which exp(i x) does not see)."""
    m = _form_cases()[k]
    grid = grid1() if m.n == 1 else grid2()  # both hold x = 0 and omega = 0
    f = synthesize("chirp", grid, freq=(-0.7, 0.5)[:m.n], rate=(0.3, -0.2)[:m.n])
    lattice = output_lattice(grid, m).flat_points()
    xs, pts = grid.flat_points()[::7], lattice[::5]

    def outputs():
        twin = validate(m.a, m.b, m.c, m.d)  # a new matrix object: a fresh plan
        spec = nslct_fast(f, twin)
        return [transform._chirp(grid.mesh(), m.b_inva), transform._chirp(lattice.T, m.db_inv),
                kernel_eval(m, xs[:, np.newaxis], pts), nslct_direct(f, m, pts),
                spec.values, nslct_inverse(spec, twin).values]

    got = outputs()
    monkeypatch.setattr(transform, "_form", _written_form)
    want = outputs()
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_a_form_differs_from_the_zero_started_sum_only_in_the_sign_of_zeros():
    """At x = 0 under a negative q the form is -0.0 where the sum from zeros
    gives 0.0; everywhere else the bytes agree, and so do the chirps."""
    for grid, m in ((grid1(), fresnel(-1.5)), (grid2(), fresnel(np.array([[-1.2, 0.2], [0.2, -0.9]])))):
        xs = grid.mesh()
        got, want = transform._form(xs, m.b_inva, xs), _written_form(xs, m.b_inva, xs)
        assert got.shape == want.shape == grid.counts and np.array_equal(got, want)
        moved = np.signbit(got) != np.signbit(want)
        assert moved[tuple(N // 2 for N in grid.counts)] and np.all(got[moved] == 0.0)
        chirp = np.exp(1j * (0.5 * want))
        assert transform._chirp(xs, m.b_inva).tobytes() == chirp.tobytes()
