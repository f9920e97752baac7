import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nslct import (
    BadParam,
    CoverageError,
    Gram,
    Grid,
    GridMismatch,
    NonFiniteOutput,
    SampledSignal,
    Spectrum,
    WindowSpec,
    ZeroSignal,
    boundedness_margin,
    boundedness_report,
    inner,
    lp_norm,
    moyal,
    norm_l2,
    nslct_direct,
    nslct_fast,
    nslct_inverse,
    output_lattice,
    preset,
    random_free_matrix,
    run_suite,
    stnslct_gram,
    stnslct_reconstruct,
    synthesize,
)
from nslct import grids, shorttime
from nslct.symplectic import frft
from nslct.transform import _FastPlan, _plan

from helpers import gaussian_1d, grid1, grid2, reference_stft, shift_sign, threads_after, traced_peak, within

TWO_PI = 2.0 * np.pi


def matched_setup(stride=4, sigma=1.0):
    g = grid1()
    f = gaussian_1d(g, sigma=sigma)
    return g, f, WindowSpec(gaussian_1d(g, sigma=sigma), stride=stride)


def _rolled_window(wspec, idx):
    """phi(x - u) for the shift u of shift-lattice index idx, as an np.roll copy."""
    g, s = wspec.window.grid, wspec.stride
    lead = [round(o / d) for o, d in zip(g.origin, g.spacing)]
    return np.roll(wspec.window.values, tuple(s * i + o for i, o in zip(idx, lead)), axis=tuple(range(g.n)))


def test_window_spec_validation():
    g = grid1()
    w = gaussian_1d(g)
    with pytest.raises(BadParam):
        WindowSpec(w, stride=0)
    with pytest.raises(BadParam):
        WindowSpec(w, stride=2.5)
    for stride in (float("nan"), float("inf"), float("-inf"), "2", None):
        with pytest.raises(BadParam, match="stride must be an integer >= 1"):
            WindowSpec(w, stride=stride)
    whole = WindowSpec(w, stride=2.0)
    assert whole.stride == 2 and type(whole.stride) is int
    with pytest.raises(ZeroSignal):
        WindowSpec(SampledSignal(g, np.zeros(256, dtype=complex)), stride=1)
    with pytest.raises(TypeError):  # the squared norm is always computed
        WindowSpec(w, stride=1, norm2=5.0)
    f, m = gaussian_1d(g), preset("fourier", 1)
    with pytest.raises(GridMismatch):  # a window on another grid
        stnslct_gram(f, WindowSpec(gaussian_1d(grid1(256, 0.2))), m)
    off = Grid((256,), (0.1,), (-12.75,))  # origin half a sample off the lattice
    with pytest.raises(GridMismatch, match="sample-aligned"):
        stnslct_gram(gaussian_1d(off), WindowSpec(gaussian_1d(off)), m)
    wspec = WindowSpec(w, stride=4)
    with pytest.raises(BadParam, match="denominator"):
        stnslct_reconstruct(stnslct_gram(f, wspec, m), wspec, m, denominator="mean")


def test_stride_must_divide_counts():
    g, f, _ = matched_setup()
    w = WindowSpec(gaussian_1d(g), stride=3)
    with pytest.raises(BadParam):
        stnslct_gram(f, w, preset("fourier", 1))


def test_matched_gaussian_center_value():
    # at (w, u) = (0, 0) the fourier gram evaluates the plain inner product
    g, f, wspec = matched_setup(stride=4)
    gram = stnslct_gram(f, wspec, preset("fourier", 1))
    u0 = gram.ugrid.counts[0] // 2
    w0 = gram.wgrid.base.counts[0] // 2
    assert gram.values[u0, w0] == pytest.approx(TWO_PI**-0.5, abs=1e-12)
    assert gram.ugrid.axis(0)[u0] == 0.0


def test_gram_against_reference_stft():
    g = grid1()
    f = synthesize("chirp", g, freq=1.2, rate=0.5)
    window = gaussian_1d(g, sigma=1.5)
    for stride in (1, 4):
        gram = stnslct_gram(f, WindowSpec(window, stride=stride), preset("fourier", 1))
        want = reference_stft(f, window, stride)
        assert np.max(np.abs(gram.values - want)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_gram_rows_are_direct_transforms_of_the_windowed_signal(n):
    """The time-frequency relation, checked without the plan: row u of the
    gram is the transform of f * conj(phi(. - u)), here by direct quadrature
    (nslct_direct) on the gram's output lattice, to 1e-12 of the gram's peak."""
    if n == 1:
        g, m, stride = grid1(), frft(0.7), 4
    else:
        g, m, stride = grid2(), random_free_matrix(np.random.default_rng(7), 2), 2
    f = synthesize("noise", g, seed=11)
    wspec = WindowSpec(synthesize("gaussian", g, sigma=1.2), stride=stride)
    gram = stnslct_gram(f, wspec, m)
    lattice = gram.wgrid.flat_points()
    peak = np.max(np.abs(gram.values))
    shifts = list(np.ndindex(gram.ugrid.counts))
    for idx in shifts if n == 1 else shifts[::101]:
        want = nslct_direct(SampledSignal(g, f.values * np.conj(_rolled_window(wspec, idx))), m, lattice)
        assert np.max(np.abs(gram.values[idx].ravel() - want)) <= 1e-12 * peak, idx


def test_unit_window_collapses_to_plain_transform():
    g = grid1()
    f = synthesize("noise", g, seed=31)
    ones = SampledSignal(g, np.ones(256, dtype=complex))
    m = preset("frft", 1, alpha=0.7)
    gram = stnslct_gram(f, WindowSpec(ones, stride=8), m)
    spec = nslct_fast(f, m)
    assert np.max(np.abs(gram.values - spec.values[None, :])) <= 1e-12


def test_moyal_energy_identity():
    g, f, wspec = matched_setup(stride=2, sigma=1.2)
    rng = np.random.default_rng(8)
    m = random_free_matrix(rng, 1)
    gram = stnslct_gram(f, wspec, m)
    want = norm_l2(f) ** 2 * wspec.norm2
    assert moyal(gram, gram).real == pytest.approx(want, rel=1e-12)


def test_moyal_cross_terms_vanish_for_orthogonal_signals():
    g = grid1()
    f = gaussian_1d(g, sigma=1.0)
    x = g.axis(0)
    odd = SampledSignal(g, x * f.values)
    odd = SampledSignal(g, odd.values / norm_l2(odd))
    assert abs(inner(f, odd)) <= 1e-14
    wspec = WindowSpec(gaussian_1d(g, sigma=1.4), stride=2)
    m = preset("frft", 1, alpha=0.9)
    g1 = stnslct_gram(f, wspec, m)
    g2 = stnslct_gram(odd, wspec, m)
    assert abs(moyal(g1, g2)) <= 1e-10


# chirped, shifted Gaussian signals f1, f2 and windows phi1, phi2, per grid:
# synthesize("chirp", grid, **kw) keywords, with centers off the origin so
# that <f1, f2> conj <phi1, phi2> is far from real: its conjugate misses it
# by 0.49 in 1-D and 0.35 in 2-D
_MOYAL_PAIRS = {
    1: (Grid.centered(256, 0.1),
        [dict(freq=0.8, rate=0.3, sigma=1.0, center=0.5), dict(freq=-0.5, rate=-0.2, sigma=1.2, center=0.9)],
        [dict(freq=0.3, rate=0.4, sigma=1.3, center=0.2), dict(freq=-0.6, rate=0.0, sigma=1.1, center=-0.1)]),
    2: (Grid.centered((32, 32), 0.35),
        [dict(freq=(0.8, -0.3), rate=(0.3, 0.1), sigma=(1.0, 1.1), center=(0.5, 0.6)),
         dict(freq=(-0.2, 0.4), rate=(-0.2, 0.2), sigma=(1.2, 0.9), center=(0.9, 0.3))],
        [dict(freq=(0.3, 0.2), rate=(0.4, -0.1), sigma=(1.3, 1.4), center=(0.2, 0.1)),
         dict(freq=(-0.3, 0.1), rate=(0.0, 0.2), sigma=(1.2, 1.3), center=(-0.1, -0.2))]),
}
_MOYAL_MATRICES = {
    "fourier": lambda n: preset("fourier", n),
    "frft-0.7": lambda n: preset("frft", n, alpha=0.7),
    "frft-0.9": lambda n: preset("frft", n, alpha=0.9),
    "fresnel-1.5": lambda n: preset("fresnel", n, b=1.5),
    "rng-7": lambda n: random_free_matrix(np.random.default_rng(7), n),
}


@pytest.mark.parametrize("n, stride, matrix", [
    *((1, s, kind) for s in (1, 2, 4) for kind in ("fourier", "frft-0.7", "fresnel-1.5", "rng-7")),
    (2, 2, "frft-0.9"), (2, 2, "rng-7"),
])
def test_moyal_formula_for_general_pairs(n, stride, matrix):
    """<V1, V2> = <f1, f2> conj <phi1, phi2>, Vi the gram of fi under the
    window phii.  At stride s it holds while the stride-s shift sum of
    phi1 conj phi2 is flat: here the windows are at least 1.1 wide against
    shifts 0.4 (1-D, stride 4) and 0.7 (2-D, stride 2) apart."""
    m = _MOYAL_MATRICES[matrix](n)
    g, signals, windows = _MOYAL_PAIRS[n]
    f1, f2 = (synthesize("chirp", g, **kw) for kw in signals)
    phi1, phi2 = (synthesize("chirp", g, **kw) for kw in windows)
    v1 = stnslct_gram(f1, WindowSpec(phi1, stride=stride), m)
    v2 = stnslct_gram(f2, WindowSpec(phi2, stride=stride), m)
    want = inner(f1, f2) * np.conj(inner(phi1, phi2))
    assert abs(moyal(v1, v2) - want) <= 1e-14 * lp_norm(v1, 2.0) * lp_norm(v2, 2.0)


def test_moyal_rejects_mismatched_lattices():
    g, f, wspec = matched_setup()
    g1 = stnslct_gram(f, wspec, preset("fourier", 1))
    g2 = stnslct_gram(f, wspec, preset("frft", 1, alpha=0.4))
    with pytest.raises(GridMismatch):
        moyal(g1, g2)
    # same B block, different A, C and D: the lattices agree but the grams don't
    g3 = stnslct_gram(f, wspec, preset("fresnel", 1, b=1.5))
    g4 = stnslct_gram(f, wspec, preset("separable", 1, a=1, b=1.5, c=0.4, d=1.6))
    with pytest.raises(GridMismatch):
        moyal(g3, g4)


def test_boundedness_margin_nonnegative_and_tight_when_matched():
    g, f, wspec = matched_setup(stride=1)
    m = preset("fourier", 1)
    gram = stnslct_gram(f, wspec, m)
    margin = boundedness_margin(gram, f, wspec, m)
    bound = TWO_PI**-0.5 * norm_l2(f) * np.sqrt(wspec.norm2)
    assert margin >= -1e-9 * bound
    assert margin <= 1e-6 * bound  # matched Gaussians meet the bound at (0, 0)
    # the margin is the report's, and the report's rhs is sup + margin
    rep = boundedness_report(f, wspec, m, gram)
    assert rep.lhs == np.max(np.abs(gram.values))
    assert rep.rhs == rep.lhs + rep.margin
    assert margin == rep.margin
    assert rep.constant == TWO_PI**-0.5


def test_reconstruction_both_denominators():
    g = grid1()
    f = synthesize("chirp", g, freq=0.8, rate=0.4)
    rng = np.random.default_rng(17)
    m = random_free_matrix(rng, 1)
    for stride, mode, tol in (
        (1, "constant", 1e-10),
        (4, "pointwise", 1e-10),
        (4, "constant", 1e-3),
    ):
        wspec = WindowSpec(gaussian_1d(g, sigma=1.5), stride=stride)
        gram = stnslct_gram(f, wspec, m)
        rec = stnslct_reconstruct(gram, wspec, m, denominator=mode)
        err = norm_l2(SampledSignal(g, rec.values - f.values)) / norm_l2(f)
        assert err <= tol, (stride, mode, err)


def test_reconstruction_2d():
    g = grid2()
    f = synthesize("gaussian", g, sigma=(1.0, 1.3))
    wspec = WindowSpec(synthesize("gaussian", g, sigma=1.4), stride=2)
    m = preset("fresnel", 2, b=1.5)
    rec = stnslct_reconstruct(stnslct_gram(f, wspec, m), wspec, m)
    err = norm_l2(SampledSignal(g, rec.values - f.values)) / norm_l2(f)
    assert err <= 1e-9


@pytest.mark.parametrize("n", [1, 2])
def test_stored_plan_gives_gram_and_reconstruction_the_bytes_of_a_fresh_one(n, monkeypatch):
    g = grid1() if n == 1 else grid2(32, 0.5)
    f = synthesize("noise", g, seed=41)
    wspec = WindowSpec(synthesize("gaussian", g, sigma=1.5), stride=4)
    m = random_free_matrix(np.random.default_rng(42), n)
    grams = [stnslct_gram(f, wspec, m) for _ in range(2)]  # the second call reuses the plan
    recs = [stnslct_reconstruct(gram, wspec, m) for gram in grams]
    monkeypatch.setattr(shorttime, "_plan", lambda grid, m: _FastPlan(grid, m))
    gram = stnslct_gram(f, wspec, m)
    expect = stnslct_reconstruct(gram, wspec, m).values.tobytes()
    assert all(v.values.tobytes() == gram.values.tobytes() for v in grams)
    assert all(r.values.tobytes() == expect for r in recs)


def test_forward_inverse_gram_and_reconstruction_share_one_plan(monkeypatch):
    used = []
    for name in ("forward_chirped", "inverse_chirped"):
        run = getattr(_FastPlan, name)
        monkeypatch.setattr(
            _FastPlan, name, lambda self, *a, run=run, **k: used.append(self) or run(self, *a, **k)
        )
    g, f, wspec = matched_setup(stride=1)
    m = random_free_matrix(np.random.default_rng(43), 1)
    nslct_inverse(nslct_fast(f, m), m)
    stnslct_reconstruct(stnslct_gram(f, wspec, m), wspec, m)
    # one call per chunk of shift rows, and 256 rows make more than one chunk
    chunks = math.ceil(g.counts[0] / (grids._CHUNK_POINTS // g.size))
    assert chunks > 1
    assert len(used) == 2 + 2 * chunks
    assert all(plan is _plan(g, m) for plan in used)


def _row_loop_gram_and_reconstructions(f, wspec, m):
    """The gram and both reconstructions row by row, each shifted window an
    np.roll copy and each row its own FFT with the fftshift applied apart.
    Each row is the FFT of the once-chirped signal f * chirp times its
    conjugate shifted window; the overlap-add takes the output factor off
    each row as a product with its reciprocal, and its sum takes the
    conjugate chirp once, before the shift lattice's cell.  The chirp is the
    plan's without its sign."""
    g, s = f.grid, wspec.stride
    plan = _FastPlan(g, m)
    ucounts = tuple(N // s for N in g.counts)
    windows = [_rolled_window(wspec, idx) for idx in np.ndindex(ucounts)]
    chirp = plan.chirp * shift_sign(g.counts)
    chirped = f.values * chirp
    rows = [np.fft.fftshift(np.fft.fftn(chirped * np.conj(w))) * plan.post for w in windows]
    acc = np.zeros(g.counts, dtype=complex)
    # 1 / post, named: written inline, numpy's temporary elision swaps the
    # row product's operands from 2^14 cells up, which moves a last bit
    unpost = np.conj(plan.post) * plan.unscale
    for row, w in zip(rows, windows):
        acc += np.fft.ifftn(np.fft.ifftshift(row * unpost)) * w
    acc *= np.conj(chirp)
    acc *= _shift_cell(wspec)
    gram = np.stack(rows).reshape(ucounts + g.counts)
    return gram, acc / _row_loop_partition(wspec), acc / wspec.norm2


def _shift_cell(wspec):
    """The cell of the shift lattice, stride times each sample step."""
    return float(np.prod([wspec.stride * d for d in wspec.window.grid.spacing]))


def _row_loop_partition(wspec):
    """sum_u |phi(x - u)|^2 * ucell, one np.roll copy of the window per shift."""
    g, s = wspec.window.grid, wspec.stride
    partition = np.zeros(g.counts)
    for idx in np.ndindex(tuple(N // s for N in g.counts)):
        partition += np.abs(_rolled_window(wspec, idx)) ** 2
    partition *= _shift_cell(wspec)
    return partition


@pytest.mark.parametrize(
    "counts, spacing, origin, stride",
    [
        ((256,), (0.1,), None, 1),
        ((256,), (0.1,), None, 4),
        ((64, 16), (0.35, 0.5), None, 2),
        ((64, 64), (0.35, 0.35), None, 2),
        ((256,), (0.1,), (-0.5,), 2),
        ((2**16,), (0.001,), None, 2**13),
    ],
    ids=[
        "1d-stride1-two-chunks",
        "1d-stride4-fewer-rows-than-a-chunk",
        "2d-64x16-stride2-eight-chunks",
        "2d-64x64-stride2-four-chunks-per-row",
        "1d-origin-off-centre-shifts-wrap",
        "1d-one-row-per-chunk",
    ],
)
def test_chunked_gram_and_reconstruction_keep_the_bytes_of_the_row_loop(
    counts, spacing, origin, stride, monkeypatch
):
    g = Grid.centered(counts, spacing) if origin is None else Grid(counts, spacing, origin)
    f = synthesize("noise", g, seed=7)
    wspec = WindowSpec(synthesize("gaussian", g, sigma=1.2), stride=stride)
    m = random_free_matrix(np.random.default_rng(44), g.n)
    want_gram, want_pointwise, want_constant = _row_loop_gram_and_reconstructions(f, wspec, m)
    for workers in (1, 2):
        monkeypatch.setattr(grids, "_WORKERS", workers)
        gram = stnslct_gram(f, wspec, m)
        assert gram.values.tobytes() == want_gram.tobytes(), workers
        for mode, want in (("pointwise", want_pointwise), ("constant", want_constant)):
            rec = stnslct_reconstruct(gram, wspec, m, denominator=mode)
            assert rec.values.tobytes() == want.tobytes(), (workers, mode)


def _chunked_outputs():
    """The gram chunk counts, and the bytes of every chunked pass: the gram,
    both reconstructions, moyal and lp_norm of a 2048-point stride-1 and a
    64^2 stride-2 gram, nslct_direct at 3000 lattice points on each grid,
    and run_suite("all", 1)."""
    counts, out = [], []
    for g, stride in ((grid1(2048, 0.05), 1), (grid2(), 2)):
        f = synthesize("noise", g, seed=3)
        wspec = WindowSpec(synthesize("gaussian", g, sigma=1.4), stride=stride)
        m = random_free_matrix(np.random.default_rng(7), g.n)
        counts.append(len(shorttime._gram_source(f, wspec, m)[1]))
        gram = stnslct_gram(f, wspec, m)
        out += [gram.values, moyal(gram, gram), lp_norm(gram, 3.0),
                *(stnslct_reconstruct(gram, wspec, m, mode).values for mode in ("pointwise", "constant")),
                nslct_direct(f, m, output_lattice(g, m).flat_points()[:3000])]
    return counts, [np.asarray(x).tobytes() for x in out] + [repr(run_suite("all", 1))]


def test_one_constant_drives_every_chunked_pass(monkeypatch):
    counts, want = _chunked_outputs()
    assert counts == [128, 128]
    # 2^14, not below: whether a finer cut keeps every pass's bytes is untested
    monkeypatch.setattr(grids, "_CHUNK_POINTS", 2**14)
    counts, got = _chunked_outputs()
    assert counts == [256, 256]
    assert got == want


def _eight_chunk_case():
    """A 512-point stride-1 gram: 512 shift rows, 64 to a chunk."""
    g = grid1(512, 0.05)
    f = synthesize("noise", g, seed=9)
    wspec = WindowSpec(synthesize("gaussian", g, sigma=1.2), stride=1)
    return f, wspec, random_free_matrix(np.random.default_rng(45), 1)


@pytest.mark.parametrize("workers", [1, 2])
# the gram's rows go through the plan's forward step, forward_chirped, and the
# overlap-add's through its inverse step, inverse_chirped (ids: the direction)
@pytest.mark.parametrize("name", [pytest.param("forward_chirped", id="forward_values"),
                                  pytest.param("inverse_chirped", id="inverse_values")])
def test_a_failing_chunk_raises_its_exception_and_leaves_no_thread(name, workers, monkeypatch):
    """After the failing call the threads are the kept slot threads, and
    the next calls give the row loop's bytes."""
    f, wspec, m = _eight_chunk_case()
    want_gram, want_rec, _ = _row_loop_gram_and_reconstructions(f, wspec, m)
    gram = stnslct_gram(f, wspec, m)
    boom = RuntimeError("third chunk")
    calls = itertools.count(1)
    run = getattr(_FastPlan, name)

    def third_fails(self, *a, **k):
        if next(calls) == 3:
            raise boom
        return run(self, *a, **k)

    monkeypatch.setattr(grids, "_WORKERS", workers)
    monkeypatch.setattr(_FastPlan, name, third_fails)
    threads = threads_after(workers)
    with pytest.raises(RuntimeError) as err:
        if name == "forward_chirped":
            stnslct_gram(f, wspec, m)
        else:
            stnslct_reconstruct(gram, wspec, m)
    assert err.value is boom
    assert threading.active_count() == threads
    assert stnslct_gram(f, wspec, m).values.tobytes() == want_gram.tobytes()
    assert stnslct_reconstruct(gram, wspec, m).values.tobytes() == want_rec.tobytes()


@pytest.mark.parametrize("workers", [1, 2], ids=lambda w: f"power-sum-{w}")
def test_a_failing_report_block_raises_its_exception_and_leaves_no_thread(workers, monkeypatch):
    """After the failing call the threads are the kept slot threads, and
    the next call gives the same sum."""
    g = grid2()
    f = synthesize("noise", g, seed=9)
    m = random_free_matrix(np.random.default_rng(46), 2)
    gram = stnslct_gram(f, WindowSpec(synthesize("gaussian", g, sigma=1.4), stride=2), m)
    assert gram.values.size // grids._CHUNK_POINTS == 128
    weight = sum(mm * mm for mm in gram.wgrid.point_meshes())
    want = np.array(grids._power_sum(gram, 4.0, weight)).tobytes()
    boom = RuntimeError("third block")
    calls = itertools.count(1)
    chunkwise = grids._chunkwise

    def third_fails(chunks, work, take):
        def work3(chunk, slot):
            if next(calls) == 3:
                raise boom
            return work(chunk, slot)

        chunkwise(chunks, work3, take)

    monkeypatch.setattr(grids, "_WORKERS", workers)
    monkeypatch.setattr(grids, "_chunkwise", third_fails)
    threads = threads_after(workers)
    with pytest.raises(RuntimeError) as err:
        grids._power_sum(gram, 4.0, weight)
    assert err.value is boom
    assert threading.active_count() == threads
    monkeypatch.setattr(grids, "_chunkwise", chunkwise)
    assert np.array(grids._power_sum(gram, 4.0, weight)).tobytes() == want


def test_more_workers_than_cpus_under_fast_switching_keep_the_bytes(monkeypatch):
    """Eight slot threads on fewer CPUs keep every byte; the first round
    starts the slots that are missing, and the rounds after it start none."""
    f, wspec, m = _eight_chunk_case()
    want_gram, want_rec, _ = _row_loop_gram_and_reconstructions(f, wspec, m)
    # report sums over the 8 blocks of that gram, each thread filling its own scratch block
    weight = np.abs(np.linspace(-1.0, 1.0, f.grid.size))
    kept = stnslct_gram(f, wspec, m)
    cell = kept.cell
    mags = np.abs(want_gram)
    want_sum = float(cell * np.sum(mags**2 * mags * weight))
    want_pairing = complex(np.sum(want_gram * np.conj(want_gram)) * cell)
    monkeypatch.setattr(grids, "_WORKERS", 8)
    threads = threads_after(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            gram = stnslct_gram(f, wspec, m)
            assert gram.values.tobytes() == want_gram.tobytes()
            assert stnslct_reconstruct(gram, wspec, m).values.tobytes() == want_rec.tobytes()
            assert np.array(grids._power_sum(gram, 3.0, weight)).tobytes() == np.array(want_sum).tobytes()
            assert np.array(moyal(gram, gram)).tobytes() == np.array(want_pairing).tobytes()
            # the same sums from the gram's chunks as they are made, the gram never held
            streamed = shorttime._gram_sums(f, wspec, m, [(3.0, weight)])
            assert np.array(streamed).tobytes() == np.array([want_sum]).tobytes()
            assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads


def test_two_calling_threads_share_the_slot_threads(monkeypatch):
    """Two threads making grams and reconstructions at once, under fast
    switching, both lend their calls to the same three slot threads; each
    gets the row loop's bytes."""
    f, wspec, m = _eight_chunk_case()
    want_gram, want_rec, _ = _row_loop_gram_and_reconstructions(f, wspec, m)
    monkeypatch.setattr(grids, "_WORKERS", 3)

    def caller():
        got = []
        for _ in range(5):
            gram = stnslct_gram(f, wspec, m)
            got.append((gram.values.tobytes(), stnslct_reconstruct(gram, wspec, m).values.tobytes()))
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = within(120, caller, caller)
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert got == [(want_gram.tobytes(), want_rec.tobytes())] * 5


@pytest.mark.parametrize("workers", [1, 2])
def test_gram_fill_makes_no_chunk_temporary(workers, monkeypatch):
    """Each gram chunk is written straight into the gram and transformed
    there: above the gram's own bytes, a 2048-point stride-1 gram (128
    chunks of 512 KB) traces a peak under 1 MB."""
    g = grid1(2048, 0.05)
    f = synthesize("noise", g, seed=3)
    wspec = WindowSpec(synthesize("gaussian", g, sigma=1.4), stride=1)
    m = random_free_matrix(np.random.default_rng(7), 1)
    monkeypatch.setattr(grids, "_WORKERS", workers)
    stnslct_gram(f, wspec, m)  # builds the plan, which the grid's record keeps
    gram, peak = traced_peak(lambda: stnslct_gram(f, wspec, m))
    assert peak - gram.values.nbytes < 1_000_000, peak - gram.values.nbytes


@pytest.mark.parametrize("workers", [1, 2])
def test_overlap_add_inverts_its_chunks_into_a_ring_and_makes_no_chunk_temporary(workers, monkeypatch):
    """Chunk k of the overlap-add is inverted into buffer k % ahead of one
    ring, ahead the results the chunk runner keeps alive: workers + 1 on
    threads, 1 in the plain loop at one worker.  Above its output a
    2048-point stride-1 reconstruction (128 chunks of 512 KB) traces a peak
    under the ring plus 512 KB."""
    g = grid1(2048, 0.05)
    f = synthesize("noise", g, seed=3)
    wspec = WindowSpec(synthesize("gaussian", g, sigma=1.4), stride=1)
    m = random_free_matrix(np.random.default_rng(7), 1)
    gram = stnslct_gram(f, wspec, m)
    monkeypatch.setattr(grids, "_WORKERS", workers)
    chunk_bytes = 16 * grids._CHUNK_POINTS
    start = gram.values.ctypes.data
    buffers = {}
    run = _FastPlan.inverse_chirped

    def spy(self, values, unpost, out):
        buffers[(values.ctypes.data - start) // chunk_bytes] = out.ctypes.data
        return run(self, values, unpost, out)

    with monkeypatch.context() as patch:
        patch.setattr(_FastPlan, "inverse_chirped", spy)
        want = stnslct_reconstruct(gram, wspec, m)  # also builds the plan and the partition
    ahead = 1 if workers == 1 else workers + 1
    assert grids._ahead(shorttime._gram_source(f, wspec, m)[1]) == ahead
    assert sorted(buffers) == list(range(128))
    assert len(set(buffers.values())) == ahead
    assert all(buffers[k] == buffers[k % ahead] for k in buffers)
    rec, peak = traced_peak(lambda: stnslct_reconstruct(gram, wspec, m))
    assert rec.values.tobytes() == want.values.tobytes()
    assert peak - rec.values.nbytes < (ahead + 1) * chunk_bytes, peak - rec.values.nbytes


@pytest.mark.parametrize("n", [1, 2])
def test_window_partition_is_the_row_loop_s_read_only_and_kept(n):
    g = grid1() if n == 1 else grid2(32, 0.5)
    wspec = WindowSpec(synthesize("gaussian", g, sigma=1.5), stride=2)
    partition = wspec.partition
    assert partition.tobytes() == _row_loop_partition(wspec).tobytes()
    assert wspec.partition is partition
    with pytest.raises(ValueError):
        partition[0] = 1.0


def test_window_partition_is_taken_once_per_window_spec(monkeypatch):
    """A second reconstruction with one WindowSpec shifts only the window
    itself: |phi|^2 (real) is tiled and reduced only for the first."""
    g, f, wspec = matched_setup(stride=2)
    m = random_free_matrix(np.random.default_rng(47), 1)
    gram = stnslct_gram(f, wspec, m)
    tables = []
    shifted = shorttime._shifted_windows
    monkeypatch.setattr(shorttime, "_shifted_windows",
                        lambda grid, ws, *ts: tables.append([t.dtype.kind for t in ts]) or shifted(grid, ws, *ts))
    first = stnslct_reconstruct(gram, wspec, m)
    assert sorted(tables) == [["c"], ["f"]]
    tables.clear()
    second = stnslct_reconstruct(gram, wspec, m, denominator="constant")
    third = stnslct_reconstruct(gram, wspec, m)
    assert tables == [["c"], ["c"]]
    assert third.values.tobytes() == first.values.tobytes()
    assert second.values.tobytes() != first.values.tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_all_zero_inputs_give_all_zero_outputs(n):
    """The plan's sign can flip the sign of an exact zero, never its value:
    the transform, its inverse, the gram and its reconstruction of all-zero
    input are all zero."""
    g = grid1() if n == 1 else grid2(32, 0.5)
    m = random_free_matrix(np.random.default_rng(53), n)
    wspec = WindowSpec(synthesize("gaussian", g, sigma=1.5), stride=2)
    zero = SampledSignal(g, np.zeros(g.counts, dtype=complex))
    outs = [
        nslct_fast(zero, m),
        nslct_inverse(Spectrum(m, np.zeros(g.counts, dtype=complex), g), m),
        stnslct_gram(zero, wspec, m),
        stnslct_reconstruct(Gram(m, g, 2, np.zeros(tuple(N // 2 for N in g.counts) + g.counts,
                                                   dtype=complex)), wspec, m),
    ]
    for k, out in enumerate(outs):
        assert np.all(out.values == 0), k


def test_overflowing_inverses_raise_non_finite_output():
    """Finite values of 1e307 overflow both inverses: NonFiniteOutput, the
    class of a computed result, while the caller's own non-finite samples
    stay a BadParam."""
    g = grid1(64, 0.1)
    m = preset("frft", 1, alpha=0.7)
    wspec = WindowSpec(SampledSignal(g, np.ones(64)), stride=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteOutput):
            nslct_inverse(Spectrum(m, np.full(64, 1e307, dtype=complex), g), m)
        with pytest.raises(NonFiniteOutput):
            stnslct_reconstruct(Gram(m, g, 1, np.full((64, 64), 1e307, dtype=complex)), wspec, m)
    with pytest.raises(BadParam):
        SampledSignal(g, np.full(64, np.inf, dtype=complex))


def test_sparse_cover_raises_coverage_error():
    g = grid1()
    f = gaussian_1d(g, sigma=1.0)
    narrow = gaussian_1d(g, sigma=0.05)
    wspec = WindowSpec(narrow, stride=32)
    m = preset("fourier", 1)
    gram = stnslct_gram(f, wspec, m)
    with pytest.raises(CoverageError):
        stnslct_reconstruct(gram, wspec, m)


def test_coverage_is_checked_before_any_row_is_inverted(monkeypatch):
    g = grid1()
    wspec = WindowSpec(gaussian_1d(g, sigma=0.05), stride=32)
    m = preset("fourier", 1)
    gram = stnslct_gram(gaussian_1d(g, sigma=1.0), wspec, m)

    def inverted(self, values):
        raise AssertionError("a row was inverted")

    monkeypatch.setattr(_FastPlan, "inverse_chirped", inverted)
    with pytest.raises(CoverageError):
        stnslct_reconstruct(gram, wspec, m)


@pytest.mark.parametrize("n", [1, 2])
def test_inverse_and_reconstruction_call_no_divide(n, monkeypatch):
    """Both inverses take the output factor off as a product with its
    reciprocal, conj(post) * unscale, so they run with numpy.divide made to
    raise."""
    g = grid1() if n == 1 else grid2(32, 0.5)
    f = synthesize("noise", g, seed=48)
    wspec = WindowSpec(synthesize("gaussian", g, sigma=1.5), stride=2)
    m = random_free_matrix(np.random.default_rng(49), n)
    spec, gram = nslct_fast(f, m), stnslct_gram(f, wspec, m)

    def divide(*args, **kwargs):
        raise AssertionError("numpy.divide called")

    monkeypatch.setattr(np, "divide", divide)
    nslct_inverse(spec, m)
    stnslct_reconstruct(gram, wspec, m)


@pytest.mark.parametrize("counts, spacing", [(256, 0.1), (2048, 0.05)])
@pytest.mark.parametrize("stride", [1, 2])
def test_reconstruction_of_noise_is_within_rounding_of_the_peak(counts, spacing, stride):
    g = grid1(counts, spacing)
    f = synthesize("noise", g, seed=stride)
    wspec = WindowSpec(synthesize("gaussian", g, sigma=1.0), stride=stride)
    m = random_free_matrix(np.random.default_rng(stride + 100), 1)
    gram = stnslct_gram(f, wspec, m)
    for mode in ("pointwise", "constant"):
        rec = stnslct_reconstruct(gram, wspec, m, denominator=mode)
        assert np.max(np.abs(rec.values - f.values)) <= 4e-15 * np.max(np.abs(f.values)), mode


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), stride=st.sampled_from([1, 2, 4]))
def test_moyal_energy_property(seed, stride):
    # stride * spacing must stay well under the window width, otherwise the
    # shift sum no longer resolves the window and the identity picks up a
    # ripple far above float noise
    g = grid1(128, 0.15)
    f = synthesize("noise", g, seed=seed)
    wspec = WindowSpec(synthesize("gaussian", g, sigma=1.1), stride=stride)
    gram = stnslct_gram(f, wspec, preset("frft", 1, alpha=0.6))
    want = norm_l2(f) ** 2 * wspec.norm2
    got = moyal(gram, gram).real
    assert got == pytest.approx(want, rel=1e-10)
