"""Deterministic random instance generators for tests and sweeps."""

from __future__ import annotations

import numpy as np

from .linalg import spectral_norm
from .network import ElectricalNetwork, build_network
from .regression import RegressionProblem


def random_orthogonal(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def random_hermitian_spectrum(
    rng, dim: int, kappa: float, signed: bool = False
) -> np.ndarray:
    """Random real-symmetric H with |eigenvalues| in [1/kappa, 1], endpoints included."""
    eigs = rng.uniform(1.0 / kappa, 1.0, size=dim)
    eigs[0] = 1.0
    if dim > 1:
        eigs[1] = 1.0 / kappa
    if signed:
        signs = rng.choice([-1.0, 1.0], size=dim)
        eigs = eigs * signs
    q = random_orthogonal(rng, dim)
    return (q * eigs) @ q.T


def random_state(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_wls_problem(
    rng, m_rows: int, n_cols: int, w_max: float = 4.0, noise: float = 0.02
) -> RegressionProblem:
    weights = rng.uniform(1.0, w_max, size=m_rows)
    x = rng.normal(size=(m_rows, n_cols))
    x = x / spectral_norm(np.sqrt(weights)[:, None] * x) * 0.95
    beta = rng.normal(size=n_cols)
    y = x @ beta + noise * rng.normal(size=m_rows)
    a = np.sqrt(weights)[:, None] * x
    kappa_a = 1.05 / np.linalg.svd(a, compute_uv=False).min()
    prob = RegressionProblem(
        x=x, y=y, weights=weights, kappa_a=kappa_a, eta=min(0.9, _residual(a, np.sqrt(weights) * y) * 1.5 + 0.05)
    )
    return prob


def random_gls_problem(rng, m_rows: int, n_cols: int, noise: float = 0.02) -> RegressionProblem:
    q = random_orthogonal(rng, m_rows)
    eigs = rng.uniform(0.3, 1.0, size=m_rows)
    eigs[0] = 1.0
    omega = (q * eigs) @ q.T
    kappa_o = 1.05 / eigs.min()
    x = rng.normal(size=(m_rows, n_cols))
    inv_sqrt = (q * (1.0 / np.sqrt(eigs))) @ q.T
    x = x / spectral_norm(inv_sqrt @ x) * 0.95
    beta = rng.normal(size=n_cols)
    y = x @ beta + noise * rng.normal(size=m_rows)
    a = inv_sqrt @ x
    kappa_a = 1.05 / np.linalg.svd(a, compute_uv=False).min()
    return RegressionProblem(
        x=x,
        y=y,
        omega=omega,
        kappa_a=kappa_a,
        kappa_omega=kappa_o,
        eta=min(0.9, _residual(a, inv_sqrt @ y) * 1.5 + 0.05),
    )


def _residual(a: np.ndarray, b: np.ndarray) -> float:
    b = b / np.linalg.norm(b)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    cols = u[:, s > 1e-12]
    return float(max(0.0, 1.0 - np.linalg.norm(cols.T @ b) ** 2))


def random_connected_network(
    rng, n_vertices: int, w_max: float = 3.0, extra_edges: int | None = None
) -> ElectricalNetwork:
    """Random spanning tree plus extra chords, weights uniform in [1, w_max]."""
    order = rng.permutation(n_vertices)
    edges = set()
    for i in range(1, n_vertices):
        j = int(rng.integers(0, i))
        edges.add((min(order[i], order[j]), max(order[i], order[j])))
    if extra_edges is None:
        extra_edges = int(rng.integers(0, n_vertices))
    tries = 0
    while len(edges) < n_vertices - 1 + extra_edges and tries < 50:
        u, v = rng.integers(0, n_vertices, size=2)
        tries += 1
        if u != v:
            edges.add((min(u, v), max(u, v)))
    triples = [(int(u), int(v), float(rng.uniform(1.0, w_max))) for u, v in sorted(edges)]
    return build_network(triples)


def path_network(n_vertices: int) -> ElectricalNetwork:
    return build_network([(i, i + 1, 1.0) for i in range(n_vertices - 1)])


def complete_network(n_vertices: int) -> ElectricalNetwork:
    return build_network(
        [(i, j, 1.0) for i in range(n_vertices) for j in range(i + 1, n_vertices)]
    )
