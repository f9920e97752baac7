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
    synthesize,
    validate,
)
from nslct import transform
from nslct.transform import _FastPlan, _plan

from helpers import gaussian_1d, grid1, grid2, reference_nslct, rel_max_err


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
    assert points % max(1, transform._CHUNK_POINTS // counts) != 0
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
    nslct_direct(synthesize("noise", grid2(32), seed=5), m, np.zeros((3, 2)))
    assert m not in transform._plans


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
    the same expressions on dense np.meshgrid arrays byte for byte."""
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
    for g in (grid1(), g2):
        n = g.n
        m = random_free_matrix(rng, n)
        if n == 2:  # non-separable: the cross terms of both chirps are live
            assert m.b_inva[0, 1] != 0.0 and m.db_inv[0, 1] != 0.0
        x, omega = dense(g), dense(output_lattice(g, m).base)
        w = [sum(m.b[i, j] * omega[j] for j in range(n)) for i in range(n)]
        carrier = sum(omega[j] * g.origin[j] for j in range(n))
        amp = g.vol * (2.0 * math.pi) ** (-n / 2.0) / math.sqrt(abs(m.det_b))
        plan = _FastPlan(g, m)
        assert plan.chirp.tobytes() == np.exp(1j * quad(x, m.b_inva)).tobytes()
        assert plan.post.tobytes() == (np.exp(1j * (quad(w, m.db_inv) - carrier)) * amp).tobytes()

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
    assert f.grid in transform._plans[m2]


def test_plans_are_dropped_with_their_matrix():
    m = random_free_matrix(np.random.default_rng(35), 1)
    f = gaussian_1d(grid1())
    spec = nslct_fast(f, m)
    plan = weakref.ref(_plan(f.grid, m))
    stored = len(transform._plans)
    del m, spec
    gc.collect()
    assert plan() is None
    assert len(transform._plans) <= stored - 1


def test_plans_per_matrix_are_bounded_least_recent_first():
    m = random_free_matrix(np.random.default_rng(36), 1)
    grids = [Grid.centered(8 * 2**k, 0.5) for k in range(transform._PLANS_PER_MATRIX + 2)]
    for g in grids:
        _plan(g, m)
        _plan(grids[0], m)  # keep the first grid recently used
    kept = transform._plans[m]
    assert len(kept) == transform._PLANS_PER_MATRIX
    assert list(kept)[-1] == grids[0]
    assert grids[1] not in kept and grids[-1] in kept


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
