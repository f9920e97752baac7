import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nslct import (
    BadParam,
    CoverageError,
    Grid,
    GridMismatch,
    SampledSignal,
    WindowSpec,
    ZeroSignal,
    boundedness_margin,
    boundedness_report,
    inner,
    moyal,
    norm_l2,
    nslct_fast,
    nslct_inverse,
    preset,
    random_free_matrix,
    stnslct_gram,
    stnslct_reconstruct,
    synthesize,
)
from nslct import shorttime
from nslct.transform import _FastPlan, _plan

from helpers import gaussian_1d, grid1, grid2, reference_stft

TWO_PI = 2.0 * np.pi


def matched_setup(stride=4, sigma=1.0):
    g = grid1()
    f = gaussian_1d(g, sigma=sigma)
    return g, f, WindowSpec(gaussian_1d(g, sigma=sigma), stride=stride)


def test_window_spec_validation():
    g = grid1()
    w = gaussian_1d(g)
    with pytest.raises(BadParam):
        WindowSpec(w, stride=0)
    with pytest.raises(BadParam):
        WindowSpec(w, stride=2.5)
    for stride in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(BadParam):
            WindowSpec(w, stride=stride)
    with pytest.raises(ZeroSignal):
        WindowSpec(SampledSignal(g, np.zeros(256, dtype=complex)), stride=1)
    with pytest.raises(TypeError):  # the squared norm is always computed
        WindowSpec(w, stride=1, norm2=5.0)


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
    for name in ("forward_values", "inverse_values"):
        run = getattr(_FastPlan, name)
        monkeypatch.setattr(
            _FastPlan, name, lambda self, *a, run=run, **k: used.append(self) or run(self, *a, **k)
        )
    g, f, wspec = matched_setup(stride=1)
    m = random_free_matrix(np.random.default_rng(43), 1)
    nslct_inverse(nslct_fast(f, m), m)
    stnslct_reconstruct(stnslct_gram(f, wspec, m), wspec, m)
    # one call per chunk of shift rows, and 256 rows make more than one chunk
    chunks = math.ceil(g.counts[0] / (shorttime._CHUNK_POINTS // g.size))
    assert chunks > 1
    assert len(used) == 2 + 2 * chunks
    assert all(plan is _plan(g, m) for plan in used)


def _row_loop_gram_and_reconstructions(f, wspec, m):
    """The gram and both reconstructions row by row, each shifted window an
    np.roll copy and each row its own FFT with the fftshift applied apart."""
    g, s = f.grid, wspec.stride
    plan = _FastPlan(g, m)
    axes = tuple(range(g.n))
    lead = [round(o / d) for o, d in zip(g.origin, g.spacing)]
    ucounts = tuple(N // s for N in g.counts)
    windows = [
        np.roll(wspec.window.values, tuple(s * i + o for i, o in zip(idx, lead)), axis=axes)
        for idx in np.ndindex(ucounts)
    ]
    rows = [
        np.fft.fftshift(np.fft.fftn(f.values * np.conj(w) * plan.chirp)) * plan.post
        for w in windows
    ]
    acc = np.zeros(g.counts, dtype=complex)
    partition = np.zeros(g.counts)
    for row, w in zip(rows, windows):
        acc += np.fft.ifftn(np.fft.ifftshift(row / plan.post)) * np.conj(plan.chirp) * w
        partition += np.abs(w) ** 2
    ucell = float(np.prod([s * d for d in g.spacing]))  # the shift lattice's cell
    acc *= ucell
    partition *= ucell
    gram = np.stack(rows).reshape(ucounts + g.counts)
    return gram, acc / partition, acc / wspec.norm2


@pytest.mark.parametrize(
    "counts, spacing, origin, stride",
    [
        ((256,), (0.1,), None, 1),
        ((256,), (0.1,), None, 4),
        ((64, 16), (0.35, 0.5), None, 2),
        ((256,), (0.1,), (-0.5,), 2),
        ((2**16,), (0.001,), None, 2**13),
    ],
    ids=[
        "1d-stride1-two-chunks",
        "1d-stride4-fewer-rows-than-a-chunk",
        "2d-64x16-stride2-eight-chunks",
        "1d-origin-off-centre-shifts-wrap",
        "1d-one-row-per-chunk",
    ],
)
def test_chunked_gram_and_reconstruction_keep_the_bytes_of_the_row_loop(
    counts, spacing, origin, stride
):
    g = Grid.centered(counts, spacing) if origin is None else Grid(counts, spacing, origin)
    f = synthesize("noise", g, seed=7)
    wspec = WindowSpec(synthesize("gaussian", g, sigma=1.2), stride=stride)
    m = random_free_matrix(np.random.default_rng(44), g.n)
    want_gram, want_pointwise, want_constant = _row_loop_gram_and_reconstructions(f, wspec, m)
    gram = stnslct_gram(f, wspec, m)
    assert gram.values.tobytes() == want_gram.tobytes()
    for mode, want in (("pointwise", want_pointwise), ("constant", want_constant)):
        rec = stnslct_reconstruct(gram, wspec, m, denominator=mode)
        assert rec.values.tobytes() == want.tobytes(), mode


def test_sparse_cover_raises_coverage_error():
    g = grid1()
    f = gaussian_1d(g, sigma=1.0)
    narrow = gaussian_1d(g, sigma=0.05)
    wspec = WindowSpec(narrow, stride=32)
    m = preset("fourier", 1)
    gram = stnslct_gram(f, wspec, m)
    with pytest.raises(CoverageError):
        stnslct_reconstruct(gram, wspec, m)


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
