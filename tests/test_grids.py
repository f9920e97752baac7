import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nslct import (
    BadParam,
    GridMismatch,
    Grid,
    NSLCTError,
    SampledSignal,
    WarpedGrid,
    frequency_grid,
    inner,
    lp_norm,
    norm_l2,
    nslct_fast,
    output_lattice,
    preset,
    synthesize,
)

from helpers import grid1, grid2


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


def test_mesh_and_flat_points_agree():
    g = grid2(8, 0.5)
    pts = g.flat_points()
    mx, my = g.mesh()
    assert pts.shape == (64, 2)
    assert np.array_equal(pts[:, 0], mx.ravel())
    assert np.array_equal(pts[:, 1], my.ravel())


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


def test_lp_norm_limits():
    g = grid1()
    f = synthesize("gaussian", g, sigma=1.0)
    assert lp_norm(f, 2) == pytest.approx(norm_l2(f))
    assert lp_norm(f, np.inf) == pytest.approx(np.max(np.abs(f.values)))
    with pytest.raises(BadParam):
        lp_norm(f, 0.5)


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
