"""Dense complex linear algebra substrate.

Matrices and state vectors are plain numpy arrays (complex128).  Everything
here is pure and allocation-only; nothing mutates its inputs.
"""

from __future__ import annotations

import numpy as np

from .capacity import check_dim
from .errors import DimensionError, NormError, ZeroVectorError

CONSTRUCTION_TOL = 1e-12
UNITARITY_TOL = 1e-9


def as_matrix(a, what: str = "matrix") -> np.ndarray:
    """Validate and convert to a finite complex 2-D array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"{what} must be 2-D with positive dimensions, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise NormError(f"{what} contains NaN or Inf entries")
    check_dim(max(m.shape), what)
    return m


def as_state(v, normalized: bool = True, what: str = "state") -> np.ndarray:
    """Validate a state vector; if `normalized`, require unit norm within 1e-10."""
    x = np.asarray(v, dtype=complex).reshape(-1)
    if x.size < 1:
        raise DimensionError(f"{what} must be non-empty")
    if not np.all(np.isfinite(x.real)) or not np.all(np.isfinite(x.imag)):
        raise NormError(f"{what} contains NaN or Inf entries")
    check_dim(x.size, what)
    if normalized and abs(np.linalg.norm(x) - 1.0) > 1e-10:
        raise NormError(f"{what} is not normalized: ||v|| = {np.linalg.norm(x)}")
    return x


def normalize(v) -> np.ndarray:
    x = np.asarray(v, dtype=complex).reshape(-1)
    n = np.linalg.norm(x)
    if n <= CONSTRUCTION_TOL:
        raise ZeroVectorError("cannot normalize a (numerically) zero vector")
    return x / n


def spectral_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex), ord=2))


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dagger) / 2."""
    return (a + a.conj().T) / 2


def hermitian_function(a: np.ndarray, f) -> np.ndarray:
    """f(H) = V f(w) V^dagger for the Hermitian part H = V diag(w) V^dagger of `a`.

    `f` maps the eigenvalue array to the diagonal of f(H).  The input is not
    cast, so a real symmetric `a` with a real-valued `f` gives a real result.
    """
    w, v = np.linalg.eigh(hermitianize(a))
    return spectral_function(w, v, f)


def spectral_function(w: np.ndarray, v: np.ndarray, f) -> np.ndarray:
    """f(H) = V f(w) V^dagger from an eigendecomposition H = V diag(w) V^dagger."""
    return (v * f(w)) @ v.conj().T


def pseudoinverse(a, tol: float = 0.0) -> np.ndarray:
    """Moore-Penrose pseudoinverse; singular values <= tol are treated as zero.

    The cutoff is absolute.  With tol=0 only exact (floating-point) zeros are
    dropped, padded by a minimal eps-scale guard against rounding.
    """
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    m = as_matrix(a)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    cut = max(tol, max(m.shape) * np.finfo(float).eps * (s[0] if len(s) else 0.0))
    keep = s > cut
    inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return vh.conj().T @ np.diag(inv) @ u.conj().T


def unitary_dilation(b) -> np.ndarray:
    """2x2-block unitary [[B, sqrt(I-BB')], [sqrt(I-B'B), -B']] with B top-left.

    B may be rectangular (m x n); the result is (m+n) x (m+n).  Both square
    roots come from one SVD B = W diag(s) V', as W sqrt(1-s^2) W' and
    V sqrt(1-s^2) V', so the off-diagonal blocks of U'U cancel to rounding
    even where a singular value is 1 (e.g. a unitary block).  Singular values
    above 1 by rounding are clamped to 1.
    """
    m = as_matrix(b, "block")
    rows, cols = m.shape
    check_dim(rows + cols, "dilation")
    w, s, vh = np.linalg.svd(m)
    if s[0] > 1.0 + CONSTRUCTION_TOL:
        raise NormError(f"dilation requires ||B|| <= 1 + 1e-12, got ||B|| = {s[0]}")
    c = np.sqrt(np.maximum(1.0 - s**2, 0.0))
    c_rows = np.ones(rows)
    c_rows[: len(s)] = c
    c_cols = np.ones(cols)
    c_cols[: len(s)] = c
    u = np.zeros((rows + cols, rows + cols), dtype=complex)
    u[:rows, :cols] = m
    u[:rows, cols:] = (w * c_rows) @ w.conj().T
    u[rows:, :cols] = (vh.conj().T * c_cols) @ vh
    u[rows:, cols:] = -m.conj().T
    return u


def is_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    u = np.asarray(u, dtype=complex)
    return spectral_norm(u.conj().T @ u - np.eye(u.shape[0])) <= tol


def embed(a, dim: int) -> np.ndarray:
    """Embed a (possibly rectangular) matrix into the top-left of a dim x dim zero matrix."""
    m = as_matrix(a)
    if m.shape[0] > dim or m.shape[1] > dim:
        raise DimensionError(f"cannot embed shape {m.shape} into dimension {dim}")
    out = np.zeros((dim, dim), dtype=complex)
    out[: m.shape[0], : m.shape[1]] = m
    return out


def complement_matrix(a) -> np.ndarray:
    """The symmetrized embedding [[0, A], [A^dagger, 0]]."""
    m = as_matrix(a)
    rows, cols = m.shape
    out = np.zeros((rows + cols, rows + cols), dtype=complex)
    out[:rows, rows:] = m
    out[rows:, :rows] = m.conj().T
    return out
