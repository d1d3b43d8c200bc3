"""Electrical networks: dissipated power and effective resistance estimation.

A network is a connected weighted graph; the weighted signed incidence matrix
C = B sqrt(W) satisfies L = C C^T for the graph Laplacian L, and the power
dissipated by an external current i_ext equals ||C^+ i_ext||^2.  The quantum
estimate inverts the symmetrized C through the variable-time solver and reads
the norm off variable-time amplitude estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoding import encode, from_kp, from_sparse_access
from .errors import GraphError, PreconditionError
from .ledger import CostLedger
from .linalg import complement_matrix, pseudoinverse, spectral_norm
from .solvers import qls_norm_estimate


@dataclass(frozen=True)
class ElectricalNetwork:
    """Connected weighted graph with its incidence and Laplacian matrices."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    weights: np.ndarray

    def __post_init__(self):
        if np.any(self.weights < 1.0 - 1e-12):
            raise GraphError("edge weights must satisfy 1 <= w_e")
        seen = set()
        for u, v in self.edges:
            if u == v or not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise GraphError(f"invalid edge ({u}, {v})")
            if (min(u, v), max(u, v)) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add((min(u, v), max(u, v)))
        if not self._connected():
            raise GraphError("graph must be connected")

    def _connected(self) -> bool:
        adj = [[] for _ in range(self.n_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == self.n_vertices

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def w_max(self) -> float:
        return float(self.weights.max())

    @property
    def max_degree(self) -> int:
        deg = np.zeros(self.n_vertices, dtype=int)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return int(deg.max())

    def incidence(self) -> np.ndarray:
        b = np.zeros((self.n_vertices, self.n_edges))
        for e, (u, v) in enumerate(self.edges):
            b[u, e] = 1.0
            b[v, e] = -1.0
        return b

    def weighted_incidence(self) -> np.ndarray:
        """C = B sqrt(W)."""
        return self.incidence() * np.sqrt(self.weights)[None, :]

    def laplacian(self) -> np.ndarray:
        c = self.weighted_incidence()
        return c @ c.T

    def normalized_laplacian(self) -> np.ndarray:
        lap = self.laplacian()
        d = np.sqrt(np.diag(lap))
        return lap / d[:, None] / d[None, :]

    @property
    def spectral_gap(self) -> float:
        """lambda_2 of the normalized Laplacian."""
        eigs = np.sort(np.linalg.eigvalsh(self.normalized_laplacian()))
        return float(eigs[1])


def build_network(edge_list) -> ElectricalNetwork:
    """Network from (u, v, w) triples; validates connectivity and weight range."""
    edges = []
    weights = []
    for u, v, w in edge_list:
        edges.append((int(u), int(v)))
        weights.append(float(w))
    n = 1 + max(max(u, v) for u, v in edges)
    return ElectricalNetwork(n_vertices=n, edges=tuple(edges), weights=np.array(weights))


def parse_edge_list(text: str) -> ElectricalNetwork:
    """Whitespace format: one "u v w" triple per line; blank lines and # comments skipped."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        u, v, w = line.split()
        rows.append((int(u), int(v), float(w)))
    if not rows:
        raise GraphError("empty edge list")
    return build_network(rows)


def external_current(values) -> np.ndarray:
    vec = np.asarray(values, dtype=float)
    if abs(vec.sum()) > 1e-12 * max(1.0, np.abs(vec).max()):
        raise PreconditionError("an external current must sum to zero")
    return vec


def unit_current(n_vertices: int, s: int, t: int) -> np.ndarray:
    """The unit external current entering at vertex s and leaving at vertex t."""
    if s == t:
        raise PreconditionError("effective resistance needs distinct vertices")
    i_ext = np.zeros(n_vertices)
    i_ext[s] = 1.0
    i_ext[t] = -1.0
    return i_ext


def reference_dissipated_power(network: ElectricalNetwork, i_ext) -> float:
    """Classical oracle: i_ext^T L^+ i_ext = ||C^+ i_ext||^2."""
    i_ext = external_current(i_ext)
    lap_pinv = pseudoinverse(network.laplacian())
    return float(np.real(i_ext @ lap_pinv @ i_ext))


def _network_encoding(network: ElectricalNetwork, route: str, p: float | None):
    c = network.weighted_incidence()
    cbar = complement_matrix(c)
    if route == "exact":
        return encode(cbar)
    if route == "kp":
        return from_kp(c, p)
    if route == "sparse":
        # sparse access reads C/sqrt(w_max), whose entries lie in [-1, 1]
        s = max(network.max_degree, 2)
        enc = from_sparse_access(cbar / math.sqrt(network.w_max), s, s)
        return enc.rescaled(1.0 / math.sqrt(network.w_max))
    raise PreconditionError(f"unknown network route {route!r}")


@dataclass(frozen=True)
class PowerEstimate:
    value: float
    kappa: float
    ledger: CostLedger


def dissipated_power(
    network: ElectricalNetwork,
    i_ext,
    eps: float,
    delta: float,
    rng,
    route: str = "exact",
    lam_lower: float | None = None,
    p: float | None = None,
) -> PowerEstimate:
    """eps-multiplicative estimate of the dissipated power, probability >= 1 - delta.

    An eps/3 estimate of ||C^+ i_ext|| is squared into the eps estimate of the
    power; the solver condition number is kappa = sqrt(2 d w_max / lambda).
    """
    i_ext = external_current(i_ext)
    lam = network.spectral_gap if lam_lower is None else lam_lower
    if lam <= 0:
        raise GraphError("spectral gap must be positive")
    kappa = max(2.0, math.sqrt(2.0 * network.max_degree * network.w_max / lam))
    enc = _network_encoding(network, route, p)
    c_norm = spectral_norm(network.weighted_incidence())
    work = enc.rescaled(c_norm)
    n = network.n_vertices
    i_norm = float(np.linalg.norm(i_ext))
    psi = np.zeros(work.system_dim, dtype=complex)
    psi[:n] = i_ext / i_norm
    est = qls_norm_estimate(
        work, psi, kappa, gamma_lower=1.0 - 1e-9, eps=eps / 3.0, delta=delta, rng=rng
    )
    norm_value = est.value * i_norm / c_norm
    return PowerEstimate(value=norm_value**2, kappa=kappa, ledger=est.ledger)


def effective_resistance(
    network: ElectricalNetwork,
    s: int,
    t: int,
    eps: float,
    delta: float,
    rng,
    route: str = "exact",
    lam_lower: float | None = None,
    p: float | None = None,
) -> PowerEstimate:
    """Effective resistance: dissipated power of the unit s -> t external current."""
    return dissipated_power(
        network, unit_current(network.n_vertices, s, t), eps, delta, rng, route=route,
        lam_lower=lam_lower, p=p,
    )
