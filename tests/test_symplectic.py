import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nslct import (
    BadParam,
    DimensionError,
    SingularB,
    SymplecticViolation,
    compose,
    inverse,
    preset,
    random_free_matrix,
    same_matrix,
    validate,
)


def test_fourier_preset_blocks():
    m = preset("fourier", 1)
    assert np.array_equal(m.a, [[0.0]])
    assert np.array_equal(m.b, [[1.0]])
    assert np.array_equal(m.c, [[-1.0]])
    assert np.array_equal(m.d, [[0.0]])
    assert m.det_b == 1.0
    assert m.sigma_min_b == pytest.approx(1.0)


def test_frft_preset_entries():
    alpha = 0.7
    m = preset("frft", 1, alpha=alpha)
    assert m.a[0, 0] == pytest.approx(np.cos(alpha))
    assert m.b[0, 0] == pytest.approx(np.sin(alpha))
    assert m.c[0, 0] == pytest.approx(-np.sin(alpha))
    assert m.d[0, 0] == pytest.approx(np.cos(alpha))


def test_frft_degenerate_angle_rejected():
    with pytest.raises(SingularB):
        preset("frft", 1, alpha=0.0)
    with pytest.raises(SingularB):
        preset("frft", 2, alpha=np.pi)


def test_fresnel_scalar_and_matrix_b():
    m = preset("fresnel", 2, b=1.5)
    assert np.array_equal(m.b, 1.5 * np.eye(2))
    assert np.array_equal(m.a, np.eye(2))
    assert np.array_equal(m.c, np.zeros((2, 2)))
    coupled = np.array([[1.2, 0.2], [0.2, 0.9]])
    m2 = preset("fresnel", 2, b=coupled)
    assert np.array_equal(m2.b, coupled)


def test_fresnel_asymmetric_b_rejected():
    # A B^T = B must be symmetric when A = I
    with pytest.raises(SymplecticViolation):
        preset("fresnel", 2, b=np.array([[1.0, 0.3], [0.0, 1.0]]))


def test_separable_accepts_valid_per_axis_quadruples():
    m = preset("separable", 2, a=(1.0, 2.0), b=(2.0, 1.0), c=(0.0, 1.0), d=(1.0, 1.0))
    assert m.n == 2
    assert np.allclose(m.a @ m.d.T - m.b @ m.c.T, np.eye(2))


def test_separable_non_unimodular_axis_rejected():
    # a*d - b*c = 0.5 on the only axis; the defect is named in the message
    with pytest.raises(SymplecticViolation) as exc:
        preset("separable", 1, a=1.0, b=2.0, c=0.0, d=0.5)
    assert "A D^T - B C^T" in str(exc.value)


def test_preset_matrix_has_dimension_n():
    # separable scalars apply to every axis, as frft, fourier and fresnel scalars do
    m = preset("separable", 2, a=1.0, b=2.0, c=0.0, d=1.0)
    assert m.n == 2
    assert np.array_equal(m.b, 2.0 * np.eye(2))
    with pytest.raises(DimensionError, match="n=1"):
        preset("fresnel", 1, b=np.array([[1.2, 0.2], [0.2, 0.9]]))
    with pytest.raises(DimensionError, match="n=2"):
        preset("separable", 2, a=(1.0, 1.0, 1.0), b=2.0, c=0.0, d=1.0)
    with pytest.raises(DimensionError, match="square"):
        validate(np.ones((1, 2)), 1.0, 0.0, 1.0)
    with pytest.raises(DimensionError, match="one shape"):
        validate(np.eye(2), 1.0, 0.0, 1.0)
    with pytest.raises(DimensionError):
        compose(preset("fourier", 1), preset("fourier", 2))


def test_unknown_preset():
    with pytest.raises(BadParam):
        preset("laplace", 1)
    with pytest.raises(BadParam, match="missing parameter 'alpha'"):
        preset("frft", 1)
    with pytest.raises(BadParam, match="non-finite"):
        preset("fresnel", 1, b=np.inf)


def test_validate_rejects_singular_b():
    with pytest.raises(SingularB):
        validate([[1.0]], [[0.0]], [[0.0]], [[1.0]])


def test_validate_rejects_asymmetric_abt():
    a = np.array([[1.0, 0.5], [0.0, 1.0]])
    b = np.eye(2)
    c = np.zeros((2, 2))
    d = np.linalg.inv(a).T
    with pytest.raises(SymplecticViolation):
        validate(a, b, c, d)


def test_inverse_blocks_and_involution():
    rng = np.random.default_rng(7)
    m = random_free_matrix(rng, 2)
    mi = inverse(m)
    assert np.array_equal(mi.a, m.d.T)
    assert np.array_equal(mi.b, -m.b.T)
    assert np.array_equal(mi.c, -m.c.T)
    assert np.array_equal(mi.d, m.a.T)
    back = inverse(mi)
    assert np.allclose(back.as_matrix(), m.as_matrix(), atol=0.0)


def test_inverse_is_matrix_inverse():
    rng = np.random.default_rng(11)
    for n in (1, 2):
        m = random_free_matrix(rng, n)
        prod = m.as_matrix() @ inverse(m).as_matrix()
        assert np.allclose(prod, np.eye(2 * n), atol=1e-12)


def test_compose_matches_matrix_product():
    rng = np.random.default_rng(3)
    m = random_free_matrix(rng, 2)
    k = preset("fresnel", 2, b=1.5)
    prod = compose(m, k)
    assert np.allclose(prod.as_matrix(), m.as_matrix() @ k.as_matrix(), atol=1e-14)


def test_compose_rejects_products_with_singular_b():
    m = preset("fourier", 1)
    # fourier o fourier = -identity, whose B block vanishes
    with pytest.raises(SingularB):
        compose(m, m)


def test_frft_angle_addition():
    a1, a2 = 0.6, 0.5
    got = compose(preset("frft", 1, alpha=a1), preset("frft", 1, alpha=a2))
    want = preset("frft", 1, alpha=a1 + a2)
    assert np.allclose(got.as_matrix(), want.as_matrix(), atol=1e-15)


def test_same_matrix_compares_every_block():
    m = preset("frft", 2, alpha=0.7)
    assert same_matrix(m, m)
    assert same_matrix(m, validate(m.a, m.b, m.c, m.d))
    nudged = validate(m.a, m.b * (1.0 + 1e-14), m.c, m.d)
    assert same_matrix(m, nudged) and same_matrix(nudged, m)
    # (I, B : 0, I) and (I, B : S, I + S B) share B and differ in C and D
    fr = preset("fresnel", 1, b=1.5)
    assert not same_matrix(fr, preset("separable", 1, a=1, b=1.5, c=0.4, d=1.6))
    assert not same_matrix(fr, preset("fresnel", 2, b=1.5))


def test_sigma_min_against_svd_oracle():
    rng = np.random.default_rng(2024)
    for i in range(1000):
        m = random_free_matrix(rng, 1 + i % 2)
        want = np.linalg.svd(m.b, compute_uv=False).min()
        assert m.sigma_min_b == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_random_free_matrix_is_conditioned_and_seeded():
    rng = np.random.default_rng(5)
    seen = []
    for n in (1, 2, 1, 2):
        m = random_free_matrix(rng, n)
        svals = np.linalg.svd(m.b, compute_uv=False)
        assert svals.min() >= 0.2 - 1e-12
        assert svals.max() <= 4.0 + 1e-12
        seen.append(m.as_matrix())
    again = np.random.default_rng(5)
    assert np.array_equal(random_free_matrix(again, 1).as_matrix(), seen[0])


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.05, np.pi - 0.05), shear=st.floats(-2.0, 2.0))
def test_random_compositions_stay_symplectic(alpha, shear):
    m = compose(preset("fresnel", 1, b=1.0 + abs(shear)), preset("frft", 1, alpha=alpha))
    full = m.as_matrix()
    n = m.n
    j = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    assert np.allclose(full @ j @ full.T, j, atol=1e-12)


# ---------------------------------------------------------------------------
# byte identity against the block formulas, written out: np.block for the
# full matrix, the closed 1x1 / 2x2 determinant, inverse and sigma_min, and
# the fresnel * separable * frft draw in its rng order


def _written_validate(a, b, c, d):
    """The fields of validate(a, b, c, d), or None when |det B| <= 1e-12."""
    A, B, C, D = (np.array(x, dtype=float).reshape(np.shape(x) or (1, 1)) for x in (a, b, c, d))
    n = A.shape[0]
    eye = np.eye(n)
    for resid in (A @ B.T - B @ A.T, C @ D.T - D @ C.T, A @ D.T - B @ C.T - eye):
        assert float(np.max(np.abs(resid))) <= 1e-9
    if n == 1:
        det_b = float(B[0, 0])
    else:
        det_b = float(B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0])
    if abs(det_b) <= 1e-12:
        return None
    if n == 1:
        b_inv = np.array([[1.0 / det_b]])
        sigma_min = abs(float(B[0, 0]))
    else:
        b_inv = np.array([[B[1, 1], -B[0, 1]], [-B[1, 0], B[0, 0]]]) / det_b
        g = B.T @ B
        trace = float(g[0, 0] + g[1, 1])
        lam_max = 0.5 * (trace + np.sqrt(max(trace * trace - 4.0 * det_b * det_b, 0.0)))
        sigma_min = abs(det_b) / float(np.sqrt(lam_max))
    return {"a": A, "b": B, "c": C, "d": D, "det_b": det_b, "b_invt": b_inv.T, "db_inv": D @ b_inv,
            "b_inva": b_inv @ A, "sigma_min_b": sigma_min, "full": np.block([[A, B], [C, D]])}


def _written_compose(m, o):
    if m is None or o is None:
        return None
    full = m["full"] @ o["full"]
    n = m["a"].shape[0]
    return _written_validate(full[:n, :n], full[:n, n:], full[n:, :n], full[n:, n:])


def _written_draw(rng, n):
    """random_free_matrix's draw: fresnel * separable * frft, retried."""
    eye = np.eye(n)
    for _ in range(64):
        if n == 1:
            fb = float(rng.uniform(-1.5, 1.5)) * eye
        else:
            diag = rng.uniform(0.6, 1.6, size=2) * rng.choice((-1.0, 1.0), size=2)
            off = rng.uniform(-0.3, 0.3)
            fb = np.array([[diag[0], off], [off, diag[1]]])
        fr = _written_validate(eye, fb, np.zeros_like(eye), eye)
        av = rng.uniform(0.6, 1.4, size=n) * rng.choice((-1.0, 1.0), size=n)
        bv = rng.uniform(0.6, 1.6, size=n) * rng.choice((-1.0, 1.0), size=n)
        cv = rng.uniform(-0.5, 0.5, size=n)
        sep = _written_validate(*(np.diag(v) for v in (av, bv, cv, (1.0 + bv * cv) / av)))
        alpha = rng.uniform(0.3, 2.8)
        ca, sa = np.cos(alpha) * eye, np.sin(alpha) * eye
        m = _written_compose(_written_compose(fr, sep), _written_validate(ca, sa, -sa, ca))
        if m is None:
            continue
        s_min = m["sigma_min_b"]
        s_max = abs(m["det_b"]) ** (1.0 / n) if n == 1 else abs(m["det_b"]) / s_min
        if 0.2 <= s_min and max(s_max, s_min) <= 4.0:
            return m
    raise AssertionError("no draw")


def _assert_fields(m, want):
    for name, value in want.items():
        got = m.as_matrix() if name == "full" else getattr(m, name)
        assert np.asarray(got).dtype == np.float64 and np.shape(got) == np.shape(value), name
        assert np.asarray(got).tobytes() == np.asarray(value).tobytes(), name


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", range(8))
def test_random_draws_validate_and_compose_keep_the_written_out_bytes(seed, n):
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    m = random_free_matrix(rng, n)
    _assert_fields(m, _written_draw(twin, n))
    assert rng.bit_generator.state == twin.bit_generator.state
    blocks = (m.a, m.b, m.c, m.d)
    _assert_fields(validate(*blocks), _written_validate(*blocks))
    other = random_free_matrix(rng, n)
    _assert_fields(compose(m, other), _written_compose(_written_validate(*blocks),
                                                       _written_validate(other.a, other.b, other.c, other.d)))
    _assert_fields(inverse(m), _written_validate(m.d.T, -m.b.T, -m.c.T, m.a.T))
