import math

import numpy as np
import pytest

from blockenc import network as nw
from blockenc.errors import GraphError, PreconditionError
from blockenc.fixtures import complete_network, path_network, random_connected_network
from blockenc.linalg import complement_matrix, pseudoinverse


def test_path_laplacian():
    net = path_network(3)
    assert np.allclose(net.laplacian(), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_laplacian_invariants():
    rng = np.random.default_rng(0)
    for _ in range(10):
        net = random_connected_network(rng, int(rng.integers(3, 8)))
        lap = net.laplacian()
        c = net.weighted_incidence()
        assert np.allclose(lap, c @ c.T, atol=1e-12)
        assert np.allclose(lap @ np.ones(net.n_vertices), 0.0, atol=1e-12)
        eig_max = np.linalg.eigvalsh(lap).max()
        assert eig_max <= 2.0 * net.w_max * net.max_degree + 1e-9


def test_build_network_validation():
    with pytest.raises(GraphError):
        nw.build_network([(0, 1, 0.5)])  # weight below 1
    with pytest.raises(GraphError):
        nw.build_network([(0, 1, 1.0), (2, 3, 1.0)])  # disconnected
    with pytest.raises(GraphError):
        nw.build_network([(0, 0, 1.0)])  # self-loop


def test_parse_edge_list():
    net = nw.parse_edge_list("# comment\n0 1 1.0\n1 2 2.5\n")
    assert net.n_vertices == 3 and net.n_edges == 2
    with pytest.raises(GraphError):
        nw.parse_edge_list("\n")


def test_external_current_sums_to_zero():
    with pytest.raises(PreconditionError):
        nw.external_current([1.0, 0.0])


def test_block_pseudoinverse_identity():
    # [[0, C], [C^T, 0]]^+ (i_ext; 0) = (0; W^{-1/2} i) for the induced current
    rng = np.random.default_rng(1)
    for _ in range(10):
        net = random_connected_network(rng, int(rng.integers(3, 8)))
        c = net.weighted_incidence()
        i_ext = rng.normal(size=net.n_vertices)
        i_ext -= i_ext.mean()
        block = complement_matrix(c)
        out = pseudoinverse(block) @ np.concatenate([i_ext, np.zeros(net.n_edges)])
        # induced current i = W B^T L^+ i_ext
        v = pseudoinverse(net.laplacian()) @ i_ext
        induced = np.diag(net.weights) @ net.incidence().T @ v
        expected = np.concatenate([np.zeros(net.n_vertices),
                                   induced / np.sqrt(net.weights)])
        assert np.linalg.norm(out - expected) < 1e-9


def test_external_current_in_column_space():
    rng = np.random.default_rng(2)
    net = random_connected_network(rng, 6)
    assert net.spectral_gap > 0
    c = net.weighted_incidence()
    i_ext = rng.normal(size=6)
    i_ext -= i_ext.mean()
    proj = c @ pseudoinverse(c) @ i_ext
    assert np.allclose(proj, i_ext, atol=1e-9)


def test_single_edge_resistance():
    for w in (1.0, 2.0, 3.5):
        net = nw.build_network([(0, 1, w)])
        est = nw.effective_resistance(net, 0, 1, eps=0.1, delta=0.05,
                                      rng=np.random.default_rng(0))
        assert abs(est.value - 1.0 / w) <= 0.1 / w


def test_p3_resistance():
    net = path_network(3)
    ref = nw.reference_dissipated_power(net, [1.0, 0.0, -1.0])
    assert ref == pytest.approx(2.0)
    est = nw.effective_resistance(net, 0, 2, eps=0.1, delta=0.05,
                                  rng=np.random.default_rng(1))
    assert abs(est.value / 2.0 - 1.0) <= 0.1


def test_k4_resistance():
    net = complete_network(4)
    ref = nw.reference_dissipated_power(net, [1.0, -1.0, 0.0, 0.0])
    assert ref == pytest.approx(0.5)
    est = nw.effective_resistance(net, 0, 1, eps=0.1, delta=0.05,
                                  rng=np.random.default_rng(2))
    assert abs(est.value / 0.5 - 1.0) <= 0.1


def test_kappa_bound_used():
    net = path_network(3)
    est = nw.effective_resistance(net, 0, 2, eps=0.1, delta=0.1,
                                  rng=np.random.default_rng(3))
    lam = net.spectral_gap
    assert est.kappa == pytest.approx(
        max(2.0, math.sqrt(2 * net.max_degree * net.w_max / lam))
    )


def test_same_vertex_rejected():
    net = path_network(3)
    with pytest.raises(PreconditionError):
        nw.effective_resistance(net, 1, 1, eps=0.1, delta=0.1,
                                rng=np.random.default_rng(0))


def test_routes_agree():
    net = path_network(4)
    ref = nw.reference_dissipated_power(net, [1.0, 0.0, 0.0, -1.0])
    for route in ("exact", "kp", "sparse"):
        est = nw.effective_resistance(net, 0, 3, eps=0.1, delta=0.05,
                                      rng=np.random.default_rng(4), route=route)
        assert abs(est.value / ref - 1.0) <= 0.1, route


def test_every_route_encoding_verifies():
    # w_max = 2.94 > 1: the sparse route must claim C, not C sqrt(w_max)
    net = random_connected_network(np.random.default_rng(1), 8, extra_edges=7)
    cbar = complement_matrix(net.weighted_incidence())
    for route in ("exact", "kp", "sparse"):
        enc = nw._network_encoding(net, route, None)
        assert enc.verify(), route
        assert np.allclose(enc.target[: cbar.shape[0], : cbar.shape[1]], cbar), route


def test_weighted_dissipated_power():
    net = nw.build_network([(0, 1, 2.0), (1, 2, 4.0)])
    i_ext = np.array([1.0, 0.0, -1.0])
    ref = nw.reference_dissipated_power(net, i_ext)
    assert ref == pytest.approx(1.0 / 2.0 + 1.0 / 4.0)
    est = nw.dissipated_power(net, i_ext, eps=0.1, delta=0.05,
                              rng=np.random.default_rng(5))
    assert abs(est.value / ref - 1.0) <= 0.1


def test_random_graphs():
    rng = np.random.default_rng(6)
    for seed in range(5):
        net = random_connected_network(np.random.default_rng(seed), 6)
        s, t = 0, net.n_vertices - 1
        i_ext = np.zeros(net.n_vertices)
        i_ext[s], i_ext[t] = 1.0, -1.0
        ref = nw.reference_dissipated_power(net, i_ext)
        est = nw.effective_resistance(net, s, t, eps=0.1, delta=0.05,
                                      rng=np.random.default_rng(100 + seed))
        assert abs(est.value / ref - 1.0) <= 0.1
