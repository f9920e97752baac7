"""Continuum fidelity: sampled spectra and gram rows of complex Gaussians
against their closed forms over the whole output lattice.

Parseval, the round trip and Moyal hold exactly for the Riemann sum, so
they pass even where the sum is far from the integral; these checks do
not.  The bound is max error over peak; the cases are well sampled, and
frft(0.1) on the 1-D grid, whose input chirp outruns Nyquist, shows that
the oracle can fail.
"""
import numpy as np
import pytest

from nslct import Grid, SampledSignal, WindowSpec, nslct_fast, preset, random_free_matrix, stnslct_gram

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
