"""Free symplectic block matrices that parameterize the canonical transforms.

A real 2n x 2n matrix M = (A, B : C, D) is *free symplectic* when the block
constraints A B^T = B A^T, C D^T = D C^T, A D^T - B C^T = I hold and the B
block is invertible.  Every matrix handed to the transform layer is validated
once, frozen, and carries the derived quantities the kernels need (B inverse,
det B, the smallest singular value of B).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParam, DimensionError, SingularB, SymplecticViolation

# Absolute max-norm tolerance on the block constraints, and the determinant
# magnitude below which B is treated as singular.
TAU_SYM = 1e-9
TAU_DET = 1e-12


def _as_block(m, name: str) -> np.ndarray:
    arr = np.array(m, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"block {name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise BadParam(f"block {name} contains non-finite entries")
    return arr


def check_n(n: int):
    """Raise DimensionError unless n is a supported dimension, 1 or 2."""
    if n not in (1, 2):
        raise DimensionError(f"dimension n={n} unsupported (1 or 2)")


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.setflags(write=False)
    return out


def _det(b: np.ndarray) -> float:
    # closed form; dimensions are capped at 2
    if b.shape[0] == 1:
        return float(b[0, 0])
    return float(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0])


def _nonsingular(b: np.ndarray) -> float:
    """det B, or SingularB when |det B| <= TAU_DET."""
    det_b = _det(b)
    if abs(det_b) <= TAU_DET:
        raise SingularB(f"|det B| = {abs(det_b):.3e} below tolerance")
    return det_b


def _inv(b: np.ndarray, det_b: float) -> np.ndarray:
    if b.shape[0] == 1:
        return np.array([[1.0 / det_b]])
    return np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]]) / det_b


def _sigma_min(b: np.ndarray, det_b: float) -> float:
    """Smallest singular value of B via the eigenvalues of B^T B.

    The small eigenvalue is recovered as det(B)^2 / lambda_max, which avoids
    the cancellation the direct root formula suffers for ill-conditioned B.
    """
    if b.shape[0] == 1:
        return abs(float(b[0, 0]))
    g = b.T @ b
    trace = float(g[0, 0] + g[1, 1])
    disc = trace * trace - 4.0 * det_b * det_b
    lam_max = 0.5 * (trace + math.sqrt(max(disc, 0.0)))
    return abs(det_b) / math.sqrt(lam_max)


@dataclass(frozen=True, eq=False)
class FreeSymplecticMatrix:
    """Validated block matrix with the derived pieces used by the kernels."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    det_b: float
    b_invt: np.ndarray
    db_inv: np.ndarray
    b_inva: np.ndarray
    sigma_min_b: float

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def as_matrix(self) -> np.ndarray:
        """Assemble the full 2n x 2n matrix."""
        return _assemble(self.a, self.b, self.c, self.d)


def _assemble(a, b, c, d) -> np.ndarray:
    """The full matrix (A, B : C, D) from its n x n blocks."""
    return np.concatenate([np.concatenate([a, b], axis=1), np.concatenate([c, d], axis=1)])


def _split(full: np.ndarray) -> tuple[np.ndarray, ...]:
    """The blocks A, B, C, D of a full 2n x 2n matrix, as views."""
    n = full.shape[0] // 2
    return full[:n, :n], full[:n, n:], full[n:, :n], full[n:, n:]


def validate(a, b, c, d) -> FreeSymplecticMatrix:
    """Check the block constraints and build the cached, immutable matrix.

    Arguments:
        a, b, c, d: square n x n blocks (scalars are accepted for n = 1)

    Raises SymplecticViolation when a constraint residual exceeds 1e-9
    (max-norm), SingularB when |det B| <= 1e-12, DimensionError for shapes
    other than n in {1, 2}.
    """
    blocks = [_as_block(x, nm) for x, nm in ((a, "A"), (b, "B"), (c, "C"), (d, "D"))]
    A, B, C, D = blocks
    n = A.shape[0]
    if any(blk.shape != (n, n) for blk in blocks):
        raise DimensionError("blocks A, B, C, D must share one shape")
    check_n(n)

    eye = np.eye(n)
    checks = (
        ("A B^T symmetry", A @ B.T - B @ A.T),
        ("C D^T symmetry", C @ D.T - D @ C.T),
        ("A D^T - B C^T = I", A @ D.T - B @ C.T - eye),
    )
    for name, resid in checks:
        r = float(np.abs(resid).max())
        if r > TAU_SYM:
            raise SymplecticViolation(name, r)

    det_b = _nonsingular(B)
    b_inv = _inv(B, det_b)
    return FreeSymplecticMatrix(
        a=_frozen(A),
        b=_frozen(B),
        c=_frozen(C),
        d=_frozen(D),
        det_b=det_b,
        b_invt=_frozen(b_inv.T),
        db_inv=_frozen(D @ b_inv),
        b_inva=_frozen(b_inv @ A),
        sigma_min_b=_sigma_min(B, det_b),
    )


# ---------------------------------------------------------------------------
# named families


def fourier(n: int = 1) -> FreeSymplecticMatrix:
    """(0, I : -I, 0), the plain Fourier case."""
    z = np.zeros((n, n))
    eye = np.eye(n)
    return validate(z, eye, -eye, z)


def frft(alpha: float, n: int = 1) -> FreeSymplecticMatrix:
    """Rotation blocks (I cos a, I sin a : -I sin a, I cos a); needs sin a != 0."""
    return validate(*_frft_blocks(alpha, n))


def _frft_blocks(alpha: float, n: int) -> tuple[np.ndarray, ...]:
    s = math.sin(alpha)
    if abs(s) ** n <= TAU_DET:
        raise SingularB(f"frft angle {alpha} gives |sin| = {abs(s):.3e}; B singular")
    ca, sa = math.cos(alpha) * np.eye(n), s * np.eye(n)
    return ca, sa, -sa, ca


def fresnel(b, n: int | None = None) -> FreeSymplecticMatrix:
    """(I, B : 0, I) with symmetric invertible B (a scalar means b * I); a
    given n must match B."""
    return validate(*_fresnel_blocks(b, n))


def _fresnel_blocks(b, n: int | None = None) -> tuple[np.ndarray, ...]:
    arr = np.array(b, dtype=float)
    if arr.ndim == 0:
        arr = float(arr) * np.eye(n or 1)
    elif n is not None and arr.shape != (n, n):
        raise DimensionError(f"fresnel B has shape {arr.shape}, not {n} x {n} for n={n}")
    eye = np.eye(arr.shape[0] if arr.ndim == 2 else 1)
    return eye, arr, np.zeros_like(eye), eye


def separable(a, b, c, d, n: int | None = None) -> FreeSymplecticMatrix:
    """Diagonal blocks built from per-axis (a_j, b_j, c_j, d_j) quadruples.

    Each parameter holds 1 or n entries and a scalar applies to every axis;
    without n the longest list sets it.  Each axis must satisfy
    a_j d_j - b_j c_j = 1 with b_j != 0, which is exactly the block
    constraint set restricted to diagonal blocks.
    """
    return validate(*_separable_blocks(a, b, c, d, n))


def _separable_blocks(a, b, c, d, n: int | None = None) -> tuple[np.ndarray, ...]:
    parts = [np.atleast_1d(np.asarray(x, dtype=float)) for x in (a, b, c, d)]
    n = n or max(p.size for p in parts)
    cols = []
    for p in parts:
        if p.size == 1:
            p = np.full(n, float(p[0]))
        elif p.size != n:
            raise DimensionError(f"per-axis parameter lists must hold 1 or n={n} entries")
        cols.append(p)
    return tuple(np.diag(col) for col in cols)


# the parameters each named family needs; matrix files use the same names
PRESET_FIELDS = {
    "fourier": (),
    "frft": ("alpha",),
    "fresnel": ("b",),
    "separable": ("a", "b", "c", "d"),
}


def preset(kind: str, n: int = 1, **params) -> FreeSymplecticMatrix:
    """Dispatch to one of the named families by string; the matrix is
    n-dimensional or DimensionError is raised."""
    kind = kind.lower()
    if kind not in PRESET_FIELDS:
        raise BadParam(f"unknown preset {kind!r} (choose from {', '.join(PRESET_FIELDS)})")
    for key in PRESET_FIELDS[kind]:
        if key not in params:
            raise BadParam(f"preset {kind!r} is missing parameter {key!r}")
    check_n(n)
    if kind == "fourier":
        return fourier(n)
    if kind == "frft":
        return frft(float(params["alpha"]), n)
    if kind == "fresnel":
        return fresnel(params["b"], n)
    return separable(params["a"], params["b"], params["c"], params["d"], n)


# ---------------------------------------------------------------------------
# algebra


def inverse(m: FreeSymplecticMatrix) -> FreeSymplecticMatrix:
    """The inverse matrix (D^T, -B^T : -C^T, A^T), validated like any other."""
    return validate(m.d.T, -m.b.T, -m.c.T, m.a.T)


def same_matrix(m: FreeSymplecticMatrix, other: FreeSymplecticMatrix) -> bool:
    """True when all four blocks agree to 1e-12 relative to the larger entry.

    Spectra and grams carry the matrix they were made under, and the
    inverses use this to refuse any other: a shared B block gives the same
    output lattice but a different transform.
    """
    return m is other or m.n == other.n and _close(m.as_matrix(), other.as_matrix())


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    """True when a and b agree to 1e-12 relative to 1 + their larger entry."""
    scale = 1.0 + max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) <= 1e-12 * scale


def compose(m: FreeSymplecticMatrix, other: FreeSymplecticMatrix) -> FreeSymplecticMatrix:
    """Matrix product m @ other, split back into blocks and validated.

    Products of valid matrices stay symplectic, but the B block of the
    product can degenerate; that surfaces as SingularB.
    """
    if m.n != other.n:
        raise DimensionError("cannot compose matrices of different dimension")
    return validate(*_split(m.as_matrix() @ other.as_matrix()))


def random_free_matrix(rng: np.random.Generator, n: int = 1) -> FreeSymplecticMatrix:
    """Draw a random valid matrix as a fresnel * separable * frft product.

    Building by composition keeps symplecticity structural instead of
    relying on projection.  The three factors are multiplied as full
    matrices, (F @ S) @ R, and only the product is validated: the factors
    and F @ S meet the block constraints by their formulas, to rounding
    (about 1e-16 against TAU_SYM).  A draw is retried when a B block is
    singular (the fresnel factor's, checked before the separable factor is
    drawn, the frft factor's, or F @ S's), when the product fails validate,
    or when it is not comfortably far from singular, so downstream
    quadrature stays sane.
    """
    for _ in range(64):
        try:
            if n == 1:
                fr = _fresnel_blocks(rng.uniform(-1.5, 1.5))
            else:
                diag = rng.uniform(0.6, 1.6, size=2) * rng.choice((-1.0, 1.0), size=2)
                off = rng.uniform(-0.3, 0.3)
                fr = _fresnel_blocks(np.array([[diag[0], off], [off, diag[1]]]))
            _nonsingular(fr[1])
            av = rng.uniform(0.6, 1.4, size=n) * rng.choice((-1.0, 1.0), size=n)
            bv = rng.uniform(0.6, 1.6, size=n) * rng.choice((-1.0, 1.0), size=n)
            cv = rng.uniform(-0.5, 0.5, size=n)
            sep = _separable_blocks(av, bv, cv, (1.0 + bv * cv) / av)
            rot = _frft_blocks(rng.uniform(0.3, 2.8), n)
            fs = _assemble(*fr) @ _assemble(*sep)
            _nonsingular(_split(fs)[1])
            m = validate(*_split(fs @ _assemble(*rot)))
        except SingularB:
            continue
        sig_max = abs(m.det_b) ** (1.0 / n) if n == 1 else abs(m.det_b) / m.sigma_min_b
        if 0.2 <= m.sigma_min_b and max(sig_max, m.sigma_min_b) <= 4.0:
            return m
    raise BadParam("failed to draw a well-conditioned matrix in 64 tries")
