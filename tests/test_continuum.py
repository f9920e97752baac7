"""Continuum fidelity: sampled spectra, gram rows, 2-D compositions and
report values of complex Gaussians against their closed forms.

Parseval, the round trip and Moyal hold exactly for the Riemann sum, so
they pass even where the sum is far from the integral; these checks do
not.  The bound is max error over peak; the cases are well sampled, and
frft(0.1) on the 1-D grid, whose input chirp outruns Nyquist, shows that
the oracle can fail.
"""
import numpy as np
import pytest

from nslct import (
    Grid, SampledSignal, WindowSpec, boundedness_report, compose, hausdorff_young_report, heisenberg_report,
    lieb_report, lp_norm, nslct_fast, preset, random_free_matrix, shorttime, spectrum_as_signal,
    stnslct_gram, synthesize, uncertainty,
)

from helpers import fft_lattice, gaussian, gaussian_samples, grid1, grid2, rel_max_err

BOUND = 1e-10
P_2D = np.array([[1.0, 0.2], [0.2, 0.8]])


def _blocks(m):
    return m.a, m.b, m.c, m.d


def spectrum_error(grid: Grid, m, p_mat, q_vec) -> float:
    p_mat, q_vec = np.atleast_2d(p_mat).astype(complex), np.atleast_1d(q_vec).astype(complex)
    spec = nslct_fast(SampledSignal(grid, gaussian_samples(grid, p_mat, q_vec)), m)
    want = gaussian(p_mat, q_vec, 1.0, _blocks(m), fft_lattice(grid, m.b))
    return rel_max_err(spec.values.ravel(), want)


SPECTRUM_CASES = {
    "fourier": lambda: (grid1(), preset("fourier", 1), [[1.0]], [0.0]),
    "frft-0.7": lambda: (grid1(), preset("frft", 1, alpha=0.7), [[1.0]], [0.0]),
    "frft-0.4": lambda: (grid1(), preset("frft", 1, alpha=0.4), [[1.0]], [0.0]),
    "fresnel-1.5": lambda: (grid1(), preset("fresnel", 1, b=1.5), [[1.0]], [0.0]),
    "chirped-shifted": lambda: (grid1(), preset("frft", 1, alpha=0.7), [[1.0 - 0.3j]], [0.4 + 0.5j]),
    # the rng-7 draw mixes the axes: B has two nonzero off-diagonal entries
    "2d-random": lambda: (grid2(), random_free_matrix(np.random.default_rng(7), 2), P_2D, [0.0, 0.0]),
    "2d-frft-0.9": lambda: (Grid.centered((128, 128), 0.2), preset("frft", 2, alpha=0.9), P_2D, [0.0, 0.0]),
}


@pytest.mark.parametrize("case", SPECTRUM_CASES)
def test_gaussian_spectrum_matches_the_closed_form(case):
    assert spectrum_error(*SPECTRUM_CASES[case]()) <= BOUND


def test_undersampled_chirp_misses_the_closed_form():
    """frft(0.1) on 256 x 0.1: the input chirp runs at about twice Nyquist
    and the sampled spectrum is off by about 7e-3 of its peak."""
    assert spectrum_error(grid1(), preset("frft", 1, alpha=0.1), [[1.0]], [0.0]) > 1e-3


@pytest.mark.parametrize("case", ["1d-frft", "2d-random"])
def test_gram_rows_match_the_closed_form(case):
    """Row u of the gram is the transform of f conj(phi(x - u)); for
    f = exp(-x'Px/2 + q'x) and phi = exp(-x'P_w x/2) that is the Gaussian
    with P + P_w, q + P_w u and scale exp(-u'P_w u/2)."""
    if case == "1d-frft":
        grid, m, stride = grid1(), preset("frft", 1, alpha=0.7), 4
        p_mat, p_w, rows = np.array([[1.0]]), np.array([[1.0 / 0.36]]), [(32,), (40,)]
    else:
        grid, m, stride = grid2(), random_free_matrix(np.random.default_rng(7), 2), 2
        p_mat, p_w, rows = P_2D, np.eye(2) / 1.96, [(16, 16), (18, 15)]
    n = grid.n
    f = SampledSignal(grid, gaussian_samples(grid, p_mat, np.zeros(n)).astype(complex))
    window = SampledSignal(grid, gaussian_samples(grid, p_w, np.zeros(n)).astype(complex))
    gram = stnslct_gram(f, WindowSpec(window, stride), m)
    lattice = fft_lattice(grid, m.b)
    shifts = []
    for idx in rows:
        u = np.array([o + i * s for o, i, s in zip(gram.ugrid.origin, idx, gram.ugrid.spacing)])
        shifts.append(u)
        want = gaussian(p_mat + p_w, p_w @ u, np.exp(-0.5 * u @ p_w @ u), _blocks(m), lattice)
        assert rel_max_err(gram.values[idx].ravel(), want) <= BOUND
    assert np.all(shifts[0] == 0.0) and np.any(shifts[1] != 0.0)  # one centred row, one not


# ---------------------------------------------------------------------------
# composition: M2's closed form applied to M1's closed form


def _transformed_gaussian(p_mat, q_vec, scale, m):
    """(P', q', scale') with gaussian(p_mat, q_vec, scale, m, w) =
    scale' exp(-w'P'w/2 + q'.w): the closed form under m is again a Gaussian.

    With Q = P - i B^-1 A, expanding gaussian's exponent in w gives
    P' = B^-T Q^-1 B^-1 - i D B^-1 and q' = -i B^-T Q^-1 q.
    """
    a, b, _c, d = _blocks(m)
    n = b.shape[0]
    binv = np.linalg.inv(b)
    qm = np.asarray(p_mat, dtype=complex) - 1j * binv @ a
    qinv = np.linalg.inv(qm)
    p_out = binv.T @ qinv @ binv - 1j * d @ binv
    q_out = -1j * binv.T @ qinv @ np.asarray(q_vec, dtype=complex)
    amp = (2.0 * np.pi) ** (-n / 2.0) / np.sqrt(abs(np.linalg.det(b)))
    scale_out = (amp * scale * (2.0 * np.pi) ** (n / 2.0) / np.prod(np.sqrt(np.linalg.eigvals(qm)))
                 * np.exp(0.5 * np.asarray(q_vec) @ qinv @ np.asarray(q_vec)))
    return 0.5 * (p_out + p_out.T), q_out, scale_out


def _metaplectic_sign(got: np.ndarray, want: np.ndarray) -> float:
    """The sign s in got = s * want, checked to BOUND of the peak."""
    sign = 1.0 if np.vdot(want, got).real >= 0.0 else -1.0
    assert rel_max_err(got, sign * want) <= BOUND
    return sign


def test_2d_composition_follows_the_closed_form_up_to_the_metaplectic_sign():
    """Both matrices mix the axes (B with nonzero off-diagonal entries)."""
    m1 = random_free_matrix(np.random.default_rng(7), 2)
    m2 = random_free_matrix(np.random.default_rng(8), 2)
    p_mat, q_vec = P_2D.astype(complex), np.array([0.3 + 0.2j, -0.1j])
    points = fft_lattice(grid2(), np.eye(2))
    mid = _transformed_gaussian(p_mat, q_vec, 1.0, m1)
    # the intermediate form is M1's closed form itself
    w = points @ m1.b.T
    first = mid[2] * np.exp(-0.5 * np.einsum("pi,ij,pj->p", w, mid[0], w) + w @ mid[1])
    assert rel_max_err(first, gaussian(p_mat, q_vec, 1.0, _blocks(m1), w)) <= BOUND
    m21 = compose(m2, m1)
    for b in (m1.b, m2.b, m21.b):
        assert np.count_nonzero(b - np.diag(np.diag(b))) == 2
    w = points @ m21.b.T
    _metaplectic_sign(gaussian(*mid, _blocks(m2), w), gaussian(p_mat, q_vec, 1.0, _blocks(m21), w))


def test_sampled_chain_follows_the_composed_closed_form():
    """nslct_fast(spectrum_as_signal(nslct_fast(f, M1)), M2) for M1 with
    B = I and a non-separable input chirp, M2 mixing the axes."""
    grid = grid2()
    m1 = compose(preset("fresnel", 2, b=np.array([[0.3, 0.1], [0.1, 0.2]])), preset("fourier", 2))
    m2 = random_free_matrix(np.random.default_rng(7), 2)
    assert np.array_equal(m1.b, np.eye(2)) and np.count_nonzero(m1.a - np.diag(np.diag(m1.a))) == 2
    p_mat, q_vec = P_2D.astype(complex), np.zeros(2, dtype=complex)
    f = SampledSignal(grid, gaussian_samples(grid, p_mat, q_vec))
    mid = spectrum_as_signal(nslct_fast(f, m1))
    chain = nslct_fast(mid, m2)
    want = gaussian(p_mat, q_vec, 1.0, _blocks(compose(m2, m1)), fft_lattice(mid.grid, m2.b))
    _metaplectic_sign(chain.values.ravel(), want)


# ---------------------------------------------------------------------------
# report values: matched Gaussians f = phi (sigma = 1) under fourier(n) at
# stride 1, where |V(u, w)| = (2 pi)^(-n/2) exp(-(|u|^2 + |w|^2) / 4)

REPORTS = {  # name: (public report, its build, keyword arguments, closed form of lhs in n)
    "heisenberg": (heisenberg_report, uncertainty._heisenberg, {}, lambda n: n / np.sqrt(2.0)),
    "lieb": (lieb_report, uncertainty._lieb, {"p": 4.0}, lambda n: (4.0 * np.pi) ** -n),
    "hausdorff-young": (hausdorff_young_report, uncertainty._hausdorff_young, {"p": 1.5},
                        lambda n: ((2.0 * np.pi) ** -1.5 * 4.0 * np.pi / 3.0) ** (n / 3.0)),
    "boundedness": (boundedness_report, uncertainty._boundedness, {}, lambda n: (2.0 * np.pi) ** (-n / 2.0)),
}


@pytest.mark.parametrize("n", [1, 2])
def test_matched_gaussian_reports_meet_their_closed_forms(n):
    """Each lhs from a kept gram (the public report) and from the gram's
    chunks as they are made (the pass `verify` runs), to 1e-12 relative;
    the 2-D gram has 64^2 x 64^2 cells."""
    grid = grid1() if n == 1 else grid2()
    f = synthesize("gaussian", grid, sigma=1.0)
    wspec, m = WindowSpec(f, stride=1), preset("fourier", n)
    gram = stnslct_gram(f, wspec, m)
    kept = {name: report(f, wspec, m, gram=gram, **kw).lhs for name, (report, _, kw, _) in REPORTS.items()}
    del gram
    builds = {name: build(f, wspec, m, **kw) for name, (_, build, kw, _) in REPORTS.items()}
    sums = iter(shorttime._gram_sums(f, wspec, m, [need for needs, _ in builds.values() for need in needs]))
    streamed = {name: finish(*[next(sums) for _ in needs]).lhs for name, (needs, finish) in builds.items()}
    for name, (*_, closed_form) in REPORTS.items():
        want = closed_form(n)
        for got in (kept[name], streamed[name]):
            assert abs(got - want) <= 1e-12 * want, (name, got, want)


@pytest.mark.parametrize("sigma", [1.0, 1.4])
@pytest.mark.parametrize("grid", [pytest.param(lambda: grid1(), id="256x0.1"),
                                  pytest.param(lambda: grid1(2048, 0.0125), id="2048x0.0125"),
                                  pytest.param(lambda: grid2(), id="64^2x0.35")])
def test_gaussian_lp_norms_meet_their_closed_forms(grid, sigma):
    """The L^p norms that the Hausdorff-Young right side ||phi||_q ||f||_p
    reads, of the unit-L2 Gaussian prod_j pi^(-1/4) s^(-1/2) exp(-x_j^2 / (2 s^2)):
    ||g||_p^p = prod_j (pi s^2)^(-p/4) s sqrt(2 pi / p), and ||g||_inf is its
    peak, which sits on the sample x = 0.  To 1e-13 relative."""
    g = grid()
    f = synthesize("gaussian", g, sigma=sigma, normalize=False)
    for p in (1.0, 1.5, 2.0, 3.0, 4.0, np.inf):
        per_axis = (np.pi ** -0.25 / np.sqrt(sigma) if p == np.inf
                    else ((np.pi * sigma**2) ** (-p / 4.0) * sigma * np.sqrt(2.0 * np.pi / p)) ** (1.0 / p))
        want, got = per_axis ** g.n, lp_norm(f, p)
        assert abs(got - want) <= 1e-13 * want, (p, got, want)


# ---------------------------------------------------------------------------
# report values from closed-form gram rows: f = exp(-(x - c)'P(x - c)/2) and
# phi = exp(-|x|^2 / 4.5), on 256 x 0.1 at stride 4 (P = 1, c = 0.7) and on
# 64^2 x 0.35 at stride 2 (P = P_2D, c = (0.4, -0.3)).  Row u is the
# transform of f conj(phi(x - u)) = exp(-x'(P + I/2.25)x/2 + q'x + s) with
# q = Pc + u/2.25 and s = -c'Pc/2 - |u|^2/4.5.  Each report's sums are taken
# over those rows with the report's own weights and cell, and finished by
# the report's own build.

ROW_REPORTS = {  # name: (report build, keyword arguments)
    "heisenberg": (uncertainty._heisenberg, {}),
    "pitt": (uncertainty._pitt, {"alpha": 0.5}),
    "lieb": (uncertainty._lieb, {"p": 4.0}),
    "hausdorff-young": (uncertainty._hausdorff_young, {"p": 1.5}),
    "log": (uncertainty._log, {}),
    "boundedness": (uncertainty._boundedness, {}),
}


def _closed_form_row_errors(m, p_mat, center, stride) -> dict:
    """Per report, |lhs - oracle lhs| / |oracle lhs| under m, on grid1() or grid2()."""
    grid = grid1() if m.n == 1 else grid2()
    p_mat, center = np.asarray(p_mat, dtype=float), np.asarray(center, dtype=float)
    pc, s = p_mat @ center, -0.5 * center @ p_mat @ center
    f = SampledSignal(grid, gaussian_samples(grid, p_mat, pc) * np.exp(s))
    p_w = np.eye(m.n) / 2.25
    wspec = WindowSpec(SampledSignal(grid, gaussian_samples(grid, p_w, np.zeros(m.n))), stride=stride)
    gram = stnslct_gram(f, wspec, m)
    lattice = fft_lattice(grid, m.b)
    mags = np.abs([gaussian(p_mat + p_w, pc + u / 2.25, np.exp(s - u @ u / 4.5), _blocks(m), lattice)
                   for u in gram.ugrid.flat_points()]).reshape(gram.values.shape)
    errors = {}
    for name, (build, kwargs) in ROW_REPORTS.items():
        needs, finish = build(f, wspec, m, **kwargs)
        sums = [float(np.max(mags)) if p == np.inf else float(gram.cell * np.sum(mags**p if w is None else mags**p * w))
                for p, w in needs]
        want = finish(*sums).lhs
        errors[name] = abs(uncertainty._on_gram(build, f, wspec, m, gram, **kwargs).lhs - want) / abs(want)
    return errors


def test_reports_match_sums_over_closed_form_gram_rows():
    errors = _closed_form_row_errors(preset("frft", 1, alpha=0.7), [[1.0]], [0.7], 4)
    assert all(err <= 1e-12 for err in errors.values()), errors


def test_reports_on_an_aliased_gram_miss_the_closed_form_rows():
    """Under frft(0.1) the input chirp outruns Nyquist and every weighted or
    powered sum misses (measured: heisenberg 1.4e-3, log 7.7e-4, pitt 1.2e-4,
    hausdorff-young 4.5e-6, lieb 6.3e-7); the sup, read off the peak row,
    still matches to 7e-13 and is left out."""
    errors = _closed_form_row_errors(preset("frft", 1, alpha=0.1), [[1.0]], [0.7], 4)
    del errors["boundedness"]
    assert all(err > 1e-7 for err in errors.values()), errors


ROW_MATRICES_2D = {  # both mix the axes; the rng-8 draw that the composition test uses is not clean here
    "random-7": lambda: random_free_matrix(np.random.default_rng(7), 2),
    "frft-0.9": lambda: preset("frft", 2, alpha=0.9),
}


@pytest.mark.parametrize("case", ROW_MATRICES_2D)
def test_2d_reports_match_sums_over_closed_form_gram_rows(case):
    errors = _closed_form_row_errors(ROW_MATRICES_2D[case](), P_2D, [0.4, -0.3], 2)
    assert all(err <= 1e-12 for err in errors.values()), errors


def test_2d_reports_on_an_aliased_gram_miss_the_closed_form_rows():
    """The rng-0 draw is not well sampled on 64^2 x 0.35, and every report,
    the sup too, misses (measured: heisenberg 0.19, log 9.1e-2, pitt 2.0e-2,
    lieb 6.3e-3, hausdorff-young 5.3e-3, boundedness 1.3e-6)."""
    errors = _closed_form_row_errors(random_free_matrix(np.random.default_rng(0), 2), P_2D, [0.4, -0.3], 2)
    assert all(err > 1e-7 for err in errors.values()), errors
