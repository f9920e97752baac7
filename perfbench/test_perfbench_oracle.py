"""The benchmark's oracle agrees with itself across its two forms.

The Riemann sum and the Gaussian closed form are written independently;
on every workload's grids, gates and matrix draws they must agree, or the
checks the benchmark makes on the program would mean nothing.  Run with
`python -m pytest perfbench`.
"""
from __future__ import annotations

import ast
import math
import os

import numpy as np
import pytest

import checks
import inputs
import oracle
import spans

G = {  # grid, decay gate, signal ranges, dimension: one entry per workload input
    "pair 256": (inputs.GridSpec((256,), (0.1,)), 18.0, ((0.8, 1.4), (-1, 1), (-2, 2), (-0.5, 0.5)), 1),
    "gram 2048": (inputs.GridSpec((2048,), (0.05,)), 18.0, ((1.5, 3.0), (-5, 5), (-3, 3), (-0.5, 0.5)), 1),
    "fast 512^2": (inputs.GridSpec((512, 512), (0.05, 0.05)), 18.0, ((0.9, 1.4), (-1, 1), (-3, 3), (-1, 1)), 2),
    "gram 64^2": (inputs.GridSpec((64, 64), (0.35, 0.35)), 18.0, ((0.9, 1.3), (-0.8, 0.8), (-1, 1), (-0.3, 0.3)), 2),
    "cli 128^2": (inputs.GridSpec((128, 128), (0.2, 0.2)), 18.0, ((0.9, 1.4), (-1, 1), (-1, 1), (-0.3, 0.3)), 2),
    "cli 32^2": (inputs.GridSpec((32, 32), (0.4, 0.4)), 16.0, ((0.75, 0.9), (-0.3, 0.3), (-0.4, 0.4), (-0.1, 0.1)), 2),
}


def symplectic_residual(blocks) -> float:
    a, b, c, d = blocks
    eye = np.eye(a.shape[0])
    return max(
        float(np.max(np.abs(a @ b.T - b @ a.T))),
        float(np.max(np.abs(c @ d.T - d @ c.T))),
        float(np.max(np.abs(a @ d.T - b @ c.T - eye))),
    )


@pytest.mark.parametrize("name", sorted(G))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_riemann_matches_closed_form_on_workload_inputs(name, seed):
    grid, t, ranges, n = G[name]
    rng = np.random.default_rng([seed, 77])
    blocks, (spec,) = inputs.draw_case(rng, [(grid, t)], n, [ranges])
    assert symplectic_residual(blocks) < 1e-12
    values, scale = inputs.unit_samples(grid, spec.p_mat(), spec.q_vec())
    lattice = oracle.lattice_points(grid.counts, grid.spacing, blocks[1])
    idx = rng.choice(grid.size, size=6, replace=False)
    idx[0] = grid.size // 2 + (grid.counts[-1] // 2 if n == 2 else 0)  # the zero frequency
    ref = oracle.riemann(values, grid.triple, blocks, lattice[idx])
    closed = oracle.gaussian(spec.p_mat(), spec.q_vec(), scale, blocks, lattice[idx])
    bound = oracle.sup_bound(values, grid.triple, blocks)
    assert float(np.max(np.abs(ref - closed))) / bound < checks.TOL_VALUE / 10
    assert float(np.max(np.abs(ref))) / bound > 1e-3  # the points are not all in the tails


def test_parseval_on_the_lattice_is_exact_for_the_riemann_sum():
    grid, t, ranges, n = G["cli 32^2"]
    blocks, (spec,) = inputs.draw_case(np.random.default_rng(5), [(grid, t)], n, [ranges])
    values, _ = inputs.unit_samples(grid, spec.p_mat(), spec.q_vec())
    lattice = oracle.lattice_points(grid.counts, grid.spacing, blocks[1])
    full = oracle.riemann(values, grid.triple, blocks, lattice)
    lhs = checks.lattice_cell(grid.triple, blocks[1]) * float(np.sum(np.abs(full) ** 2))
    assert lhs == pytest.approx(grid.spacing[0] * grid.spacing[1] * float(np.sum(np.abs(values) ** 2)), rel=1e-12)


@pytest.mark.parametrize("name", sorted(G))
def test_lattice_magnitude_weights_the_checks_toward_the_transform(name):
    """The FFT that weights the check points is |riemann| on the lattice up
    to one factor; the points it picks hold the transform, where a uniform
    pick would mostly land in tails far below the check tolerance."""
    grid, t, ranges, n = G[name]
    blocks, (spec,) = inputs.draw_case(np.random.default_rng(11), [(grid, t)], n, [ranges])
    values, _ = inputs.unit_samples(grid, spec.p_mat(), spec.q_vec())
    mag = oracle.lattice_magnitude(values, grid.triple, blocks)
    lattice = oracle.lattice_points(grid.counts, grid.spacing, blocks[1])
    idx = np.argsort(mag)[-5:]
    ref = np.abs(oracle.riemann(values, grid.triple, blocks, lattice[idx]))
    assert np.allclose(ref / ref[-1], mag[idx] / mag[idx][-1], rtol=1e-9)
    rng = np.random.default_rng(0)
    picked = np.concatenate([checks.pick(rng, mag, checks.POINTS) for _ in range(100)])
    significant = mag > 0.01 * mag.max()
    assert significant[picked].mean() > 0.95
    assert significant.mean() < 0.25


def test_shifted_window_convention_matches_the_product_gaussian():
    """phi(x - u) for an inner shift, summed by the oracle, against the closed
    form of the product of two Gaussians."""
    grid, t, ranges, n = G["gram 64^2"]
    blocks, (spec,) = inputs.draw_case(np.random.default_rng(3), [(grid, t)], n, [ranges])
    f, fscale = inputs.unit_samples(grid, spec.p_mat(), spec.q_vec())
    sigma_w, stride, u_index = 1.4, 2, (15, 17)
    wp = inputs.window_p(sigma_w, n)
    w, wscale = inputs.unit_samples(grid, wp, np.zeros(n))
    u = np.array([o + stride * k * s for o, k, s in zip(grid.origin, u_index, grid.spacing)])
    lattice = oracle.lattice_points(grid.counts, grid.spacing, blocks[1])[::97]
    got = oracle.gram_entries(f, w, grid.triple, stride, blocks, u_index, lattice)
    p = spec.p_mat() + wp
    q = spec.q_vec() + u / sigma_w**2
    scale = fscale * wscale * math.exp(-float(u @ u) / (2 * sigma_w**2))
    want = oracle.gaussian(p, q, scale, blocks, lattice)
    assert float(np.max(np.abs(got - want))) < 1e-9 * float(np.max(np.abs(want)))


def test_mismatched_matrix_keeps_b_and_changes_a_and_c():
    blocks = inputs.draw_blocks(np.random.default_rng(0), 2)
    other = inputs.sheared(blocks, np.array([[0.5, 0.2], [0.2, -0.3]]))
    assert symplectic_residual(other) < 1e-12
    assert np.array_equal(other[1], blocks[1]) and np.array_equal(other[3], blocks[3])
    assert np.max(np.abs(other[0] - blocks[0])) > 0.1 and np.max(np.abs(other[2] - blocks[2])) > 0.1
    assert abs(blocks[1][0, 1]) > 0.1  # off-diagonal B: not separable


def test_oracle_does_not_use_the_program():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(str(nm).split(".")[0] == "nslct" for nm in names)


def test_self_time_is_duration_minus_children():
    tr = spans.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    own = tr.self_times()
    outer = tr.spans[0][2] - tr.spans[0][1]
    inner = sum(s[2] - s[1] for s in tr.spans[1:])
    assert own[0] == pytest.approx(outer - inner, abs=1e-12)
    assert [s[3] for s in tr.spans] == [-1, 0, 0]
    assert tr.summary()["inner"]["calls"] == 2
