import math

import numpy as np
import pytest

from blockenc import linalg as la
from blockenc import regression
from blockenc.capacity import max_dim
from blockenc.errors import CapacityError, NormError, ZeroVectorError
from blockenc.mmio import read_matrix, write_matrix


def test_pseudoinverse_rank_deficient():
    assert np.allclose(la.pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
    assert np.allclose(la.pseudoinverse(np.eye(3)), np.eye(3))
    assert np.allclose(la.pseudoinverse([[2.0, 0.0], [0.0, 0.0]]), np.diag([0.5, 0.0]))


def test_pseudoinverse_incidence_block_identity():
    # single-edge network: [[0, C], [C^T, 0]]^+ applied to (1, -1, 0) gives (0, 0, 1)
    c = np.array([[1.0], [-1.0]])
    block = la.complement_matrix(c)
    out = la.pseudoinverse(block) @ np.array([1.0, -1.0, 0.0])
    assert np.allclose(out, [0.0, 0.0, 1.0])


def test_pseudoinverse_moore_penrose_identities():
    rng = np.random.default_rng(1)
    shapes = [(6, 6)] * 6 + [(6, 4), (4, 6), (5, 2), (2, 5)]
    for shape in shapes:
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        p = la.pseudoinverse(a)
        assert la.spectral_norm(a @ p @ a - a) < 1e-8
        assert la.spectral_norm(p @ a @ p - p) < 1e-8
        assert la.spectral_norm((a @ p).conj().T - a @ p) < 1e-8
        assert la.spectral_norm((p @ a).conj().T - p @ a) < 1e-8


def _exp_ih(h, t):
    """e^{i t H} through the one functional calculus."""
    return la.hermitian_function(h, lambda w: np.exp(1j * t * w))


def test_hermitian_exp_zero():
    assert np.allclose(_exp_ih(np.zeros((3, 3)), 2.7), np.eye(3))


def test_hermitian_exp_phases():
    out = _exp_ih(np.diag([1.0, -1.0]), math.pi)
    assert np.allclose(out, np.diag([-1.0, -1.0]))


def test_hermitian_exp_involution():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(_exp_ih(x, math.pi / 2), 1j * x)


def test_hermitian_exp_unitary_and_phases():
    rng = np.random.default_rng(2)
    h = rng.normal(size=(4, 4))
    u = _exp_ih(h, 1.3)
    assert la.is_unitary(u)
    assert np.allclose(np.abs(np.linalg.eigvals(u)), 1.0, atol=1e-9)


def test_hermitian_exp_lipschitz():
    # ||e^{itH} - e^{itH'}|| <= |t| ||H - H'||
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = rng.normal(size=(4, 4))
        h = (a + a.T) / 2
        h2 = h + 1e-3 * rng.normal(size=(4, 4))
        h2 = (h2 + h2.T) / 2
        for t in (0.1, 1.0, 10.0):
            lhs = la.spectral_norm(_exp_ih(h, t) - _exp_ih(h2, t))
            assert lhs <= abs(t) * la.spectral_norm(h - h2) + 1e-12


def test_hermitian_function_keeps_real_input_real():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    omega = a @ a.T / 8 + np.eye(4) / 2
    root = la.hermitian_function(omega, np.sqrt)
    assert root.dtype == np.float64
    assert np.allclose(root @ root, omega)
    assert regression._inv_sqrt(omega).dtype == np.float64
    # only the Hermitian part of the input is evaluated
    assert np.allclose(la.hermitian_function(a, lambda w: w), (a + a.T) / 2)
    assert la.hermitian_function(a + 0j, lambda w: w).dtype == np.complex128


def test_dilation_examples():
    assert np.allclose(la.unitary_dilation(np.array([[0.0]])), [[0, 1], [1, 0]])
    d = la.unitary_dilation(np.eye(2))
    assert np.allclose(d, np.diag([1.0, 1.0, -1.0, -1.0]))
    assert np.allclose(la.unitary_dilation(np.array([[0.6]])), [[0.6, 0.8], [0.8, -0.6]])


def test_dilation_unitary_random():
    rng = np.random.default_rng(4)
    for _ in range(20):
        rows, cols = rng.integers(1, 5, size=2)
        b = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        b = b / la.spectral_norm(b) * rng.uniform(0.2, 1.0)
        u = la.unitary_dilation(b)
        assert la.is_unitary(u)
        assert np.allclose(u[:rows, :cols], b)


def test_dilation_norm_check():
    with pytest.raises(NormError):
        la.unitary_dilation(np.array([[1.5]]))


def test_capacity_rejects_large():
    with pytest.raises(CapacityError):
        la.as_state(np.zeros(max_dim() * 2))


def test_capacity_env_override(monkeypatch):
    monkeypatch.setenv("BLOCKENC_MAX_QUBITS", "99")
    assert max_dim() == 2**20  # hard ceiling


def test_normalize_zero_vector():
    with pytest.raises(ZeroVectorError):
        la.normalize(np.zeros(3))


def test_matrix_market_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 4))
    write_matrix(tmp_path / "real.mtx", a)
    assert np.allclose(read_matrix(tmp_path / "real.mtx"), a)
    c = a + 1j * rng.normal(size=(3, 4))
    write_matrix(tmp_path / "cplx.mtx", c)
    assert np.allclose(read_matrix(tmp_path / "cplx.mtx"), c)
    header = (tmp_path / "real.mtx").read_text().splitlines()[0]
    assert "coordinate" in header

