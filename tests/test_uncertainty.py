import math

import numpy as np
import pytest

from nslct import (
    BadAlpha,
    BadBox,
    BadP,
    GridMismatch,
    SampledSignal,
    WindowSpec,
    ZeroSignal,
    boundedness_margin,
    boundedness_report,
    concentration,
    dispersion_spatial,
    hausdorff_young_report,
    heisenberg_report,
    lieb_report,
    log_report,
    norm_l2,
    pitt_constant,
    pitt_report,
    preset,
    random_free_matrix,
    stnslct_gram,
    synthesize,
    uncertainty,
)

from helpers import gaussian_1d, grid1, grid2

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def matched():
    g = grid1()
    f = gaussian_1d(g, sigma=1.0)
    wspec = WindowSpec(gaussian_1d(g, sigma=1.0), stride=4)
    m = preset("fourier", 1)
    gram = stnslct_gram(f, wspec, m)
    return g, f, wspec, m, gram


def test_dispersion_spatial_gaussian_oracle(matched):
    g, f, *_ = matched
    # unit-normalized Gaussian with sigma = 1 has second moment 1/2
    assert dispersion_spatial(f) == pytest.approx(0.5, rel=1e-10)
    # |f|^2 ~ exp(-|x|^2 / sigma^2) has second moment n sigma^2 / 2 (measured
    # within 3.4e-16 relative on both grids)
    for grid in (grid1(), grid2()):
        for sigma in (1.0, 1.4):
            want = grid.n * sigma**2 / 2.0
            got = dispersion_spatial(synthesize("gaussian", grid, sigma=sigma))
            assert abs(got - want) <= 1e-12 * want, (grid.n, sigma, got)
    with pytest.raises(ZeroSignal):
        dispersion_spatial(SampledSignal(g, np.zeros(256, dtype=complex)))


def test_dispersion_spectral_matched_gaussian(matched):
    g, f, wspec, m, gram = matched
    # |V|^2 = (2 pi)^-1 exp(-(u^2 + w^2)/2) in closed form, so the gram's
    # second w-moment integrates to exactly 1; it is the one sum heisenberg's
    # build needs, read here as a report whose finish step returns it bare
    def spectral(f, wspec, m):
        return uncertainty._heisenberg(f, wspec, m)[0], lambda total: total

    got = uncertainty._on_gram(spectral, f, wspec, m, gram)
    assert got == pytest.approx(1.0, rel=1e-9)


def test_heisenberg_report_matched(matched):
    g, f, wspec, m, gram = matched
    rep = heisenberg_report(f, wspec, m, gram=gram)
    assert rep.name == "heisenberg"
    assert rep.constant == pytest.approx(1.0 / (4.0 * math.pi))
    assert rep.rhs == pytest.approx(rep.constant * math.sqrt(wspec.norm2), rel=1e-12)
    assert rep.margin > 0.0
    assert rep.passed()


def test_pitt_constant_closed_forms():
    # alpha = 0 collapses the Gamma ratio to 1
    assert pitt_constant(1, 0.0) == pytest.approx(1.0, rel=1e-14)
    want = math.pi**0.5 * (math.gamma(0.125) / math.gamma(0.375)) ** 2
    assert pitt_constant(1, 0.5) == pytest.approx(want, rel=1e-13)


def test_pitt_report_alpha_zero_is_energy_identity(matched):
    g, f, wspec, m, gram = matched
    rep = pitt_report(f, wspec, m, 0.0, gram=gram)
    assert abs(rep.margin) <= 1e-9 * max(abs(rep.lhs), abs(rep.rhs))
    assert rep.passed()


def test_pitt_report_alpha_bounds(matched):
    g, f, wspec, m, gram = matched
    assert pitt_report(f, wspec, m, 0.5, gram=gram).passed()
    for bad in (-0.1, 1.0, 2.3):
        with pytest.raises(BadAlpha):
            pitt_report(f, wspec, m, bad, gram=gram)
    # Gamma stays finite past alpha = n, so the constant itself checks [0, n)
    for n, bad in ((1, -0.5), (1, 1.0), (1, math.nan), (2, 2.0)):
        with pytest.raises(BadAlpha):
            pitt_constant(n, bad)


def test_lieb_report_endpoint_and_direction(matched):
    g, f, wspec, m, gram = matched
    end = lieb_report(f, wspec, m, 2.0, gram=gram)
    assert abs(end.margin) <= 1e-9 * max(1.0, abs(end.rhs))
    mid = lieb_report(f, wspec, m, 4.0, gram=gram)
    assert mid.passed() and mid.margin > 0.01
    for bad in (1.5, math.nan, math.inf):
        with pytest.raises(BadP):
            lieb_report(f, wspec, m, bad, gram=gram)


def test_hausdorff_young_report(matched):
    g, f, wspec, m, gram = matched
    for p in (1.0, 1.5, 2.0):
        rep = hausdorff_young_report(f, wspec, m, p, gram=gram)
        assert rep.passed(), p
    end = hausdorff_young_report(f, wspec, m, 2.0, gram=gram)
    assert abs(end.margin) <= 1e-9 * max(1.0, abs(end.rhs))
    with pytest.raises(BadP):
        hausdorff_young_report(f, wspec, m, 2.5, gram=gram)
    with pytest.raises(BadP):
        hausdorff_young_report(f, wspec, m, 0.9, gram=gram)


def test_log_report_constant_and_direction(matched):
    g, f, wspec, m, gram = matched
    rep = log_report(f, wspec, m, gram=gram)
    want_const = -0.5772156649015329 - 2.0 * math.log(2.0) - math.log(math.pi)
    assert rep.constant == pytest.approx(want_const, rel=1e-12)
    assert rep.constant == pytest.approx(-3.1082, abs=5e-5)
    assert rep.passed()


def test_concentration_whole_domain_and_empty(matched):
    g, f, wspec, m, gram = matched
    lo, hi = g.extent(0)
    whole = concentration(f, gram, ((lo, hi),), ((-30.0, 30.0),), m)
    assert whole.f_tail == 0.0
    empty = concentration(f, gram, ((1.0, -1.0),), ((1.0, -1.0),), m)
    assert empty.f_tail == pytest.approx(norm_l2(f) ** 2, rel=1e-12)
    assert empty.gram_tail == pytest.approx(empty.gram_total, rel=1e-12)


def test_concentration_gaussian_tail_oracle(matched):
    g, f, wspec, m, gram = matched
    got = concentration(f, gram, ((-3.0, 3.0),), ((1.0, -1.0),), m)
    frac = got.f_tail / got.f_total
    # Riemann tail of exp(-x^2) with step 0.1 starting one cell past the box
    # edge sits between the two bracketing continuum tails
    assert math.erfc(3.1) <= frac <= math.erfc(3.0)
    assert frac <= 1e-3


def test_concentration_rejects_bad_boxes(matched):
    g, f, wspec, m, gram = matched
    with pytest.raises(BadBox):
        concentration(f, gram, ((-100.0, 100.0),), ((1.0, -1.0),), m)
    with pytest.raises(BadBox):
        concentration(f, gram, ((-1.0, 1.0, 3.0),), ((1.0, -1.0),), m)
    with pytest.raises(BadBox):
        concentration(f, gram, ((math.nan, 1.0),), ((1.0, -1.0),), m)


def test_concentration_rejects_foreign_gram(matched):
    g, f, wspec, m, gram = matched
    other = preset("fresnel", 1, b=2.0)
    with pytest.raises(GridMismatch):
        concentration(f, gram, ((-3.0, 3.0),), ((1.0, -1.0),), other)


FOREIGN_GRAM_CALLS = {
    "heisenberg": lambda f, wspec, m, g: heisenberg_report(f, wspec, m, gram=g),
    "pitt": lambda f, wspec, m, g: pitt_report(f, wspec, m, 0.5, gram=g),
    "lieb": lambda f, wspec, m, g: lieb_report(f, wspec, m, 4.0, gram=g),
    "hausdorff-young": lambda f, wspec, m, g: hausdorff_young_report(f, wspec, m, 1.5, gram=g),
    "log": lambda f, wspec, m, g: log_report(f, wspec, m, gram=g),
    "boundedness": lambda f, wspec, m, g: boundedness_margin(g, f, wspec, m),
    "boundedness_report": lambda f, wspec, m, g: boundedness_report(f, wspec, m, gram=g),
}


@pytest.mark.parametrize("foreign", ["matrix", "stride"])
@pytest.mark.parametrize("call", sorted(FOREIGN_GRAM_CALLS))
def test_reports_reject_foreign_gram(matched, call, foreign):
    g, f, wspec, m, gram = matched
    if foreign == "matrix":
        # fresnel(1) shares Fourier's B block, so only the full matrix tells them apart
        other = stnslct_gram(f, wspec, preset("fresnel", 1, b=1.0))
    else:
        other = stnslct_gram(f, WindowSpec(wspec.window, stride=2), m)
    with pytest.raises(GridMismatch):
        FOREIGN_GRAM_CALLS[call](f, wspec, m, other)
    FOREIGN_GRAM_CALLS[call](f, wspec, m, gram)  # its own gram is accepted


def test_reports_on_noise_signal_all_pass():
    g = grid1()
    f = synthesize("noise", g, seed=77)
    wspec = WindowSpec(synthesize("gaussian", g, sigma=1.5), stride=4)
    m = preset("frft", 1, alpha=1.1)
    gram = stnslct_gram(f, wspec, m)
    reports = [
        heisenberg_report(f, wspec, m, gram=gram),
        pitt_report(f, wspec, m, 0.25, gram=gram),
        lieb_report(f, wspec, m, 3.0, gram=gram),
        hausdorff_young_report(f, wspec, m, 1.25, gram=gram),
        log_report(f, wspec, m, gram=gram),
    ]
    for rep in reports:
        assert rep.passed(), rep
        assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)


def _noise_case(n: int):
    """A seeded (f, wspec, m, gram), built afresh on each call."""
    g = grid1() if n == 1 else grid2()
    f = synthesize("noise", g, seed=7, band=0.4)
    wspec = WindowSpec(synthesize("gaussian", g, sigma=1.3), stride=4)
    m = random_free_matrix(np.random.default_rng(11), n)
    return f, wspec, m, stnslct_gram(f, wspec, m)


COLD_WARM_CALLS = [
    lambda f, w, m, g: heisenberg_report(f, w, m, gram=g),
    lambda f, w, m, g: pitt_report(f, w, m, alpha=0.0, gram=g),
    lambda f, w, m, g: pitt_report(f, w, m, alpha=0.5, gram=g),
    lambda f, w, m, g: lieb_report(f, w, m, p=2.0, gram=g),
    lambda f, w, m, g: lieb_report(f, w, m, p=3.0, gram=g),
    lambda f, w, m, g: lieb_report(f, w, m, p=4.0, gram=g),
    lambda f, w, m, g: hausdorff_young_report(f, w, m, p=1.0, gram=g),
    lambda f, w, m, g: hausdorff_young_report(f, w, m, p=1.5, gram=g),
    lambda f, w, m, g: hausdorff_young_report(f, w, m, p=2.0, gram=g),
    lambda f, w, m, g: log_report(f, w, m, gram=g),
    lambda f, w, m, g: boundedness_margin(g, f, w, m),
    lambda f, w, m, g: boundedness_report(f, w, m, gram=g),
    lambda f, w, m, g: concentration(f, g, [(-2.0, 2.0)] * m.n, [(-1.0, 1.0)] * m.n, m),
]


@pytest.mark.parametrize("n", [1, 2])
def test_reports_agree_on_cold_and_warm_magnitude_tables(n):
    cold = [call(*_noise_case(n)) for call in COLD_WARM_CALLS]
    shared = _noise_case(n)
    for call in COLD_WARM_CALLS:
        call(*shared)
    warm = [call(*shared) for call in COLD_WARM_CALLS]
    assert warm == cold
