import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nslct import (
    GridMismatch,
    SampledSignal,
    inverse,
    kernel_eval,
    lp_norm,
    norm_l2,
    nslct_direct,
    nslct_fast,
    nslct_inverse,
    preset,
    random_free_matrix,
    spectrum_as_signal,
    synthesize,
    validate,
)

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
