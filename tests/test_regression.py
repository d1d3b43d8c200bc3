import math

import numpy as np
import pytest

from blockenc import regression as rg
from blockenc.errors import NormError, PreconditionError
from blockenc.fixtures import random_gls_problem, random_wls_problem
from blockenc.mmio import write_matrix, write_vector


def line_problem():
    x = np.array([[0.3], [0.6]])
    return rg.RegressionProblem(x=x, y=2 * x[:, 0], weights=np.ones(2), kappa_a=4.0, eta=0.1)


def test_gls_problem_decomposes_omega_once(monkeypatch):
    calls = []
    inv_sqrt = rg._inv_sqrt
    monkeypatch.setattr(rg, "_inv_sqrt", lambda omega: calls.append(1) or inv_sqrt(omega))
    prob = random_gls_problem(np.random.default_rng(0), 64, 8)
    assert len(calls) == 1
    prob.design_matrix(), prob.target_state(), prob.residual
    assert len(calls) == 1
    assert np.array_equal(prob.omega_inv_sqrt, inv_sqrt(prob.omega))
    assert not prob.omega_inv_sqrt.flags.writeable


def test_residual_exact_fit():
    assert line_problem().residual == pytest.approx(0.0, abs=1e-12)


def test_residual_orthogonal():
    prob = rg.RegressionProblem(
        x=np.array([[0.5], [0.5]]), y=np.array([1.0, -1.0]),
        weights=np.ones(2), kappa_a=2.0, eta=1.0,
    )
    assert prob.residual == pytest.approx(1.0)


def test_residual_half():
    # X = (1; 1)/2 (scaled for norm), y = (1, 0): projector onto span(1,1) keeps half
    prob = rg.RegressionProblem(
        x=np.array([[0.5], [0.5]]), y=np.array([1.0, 0.0]),
        weights=np.ones(2), kappa_a=2.0, eta=0.6,
    )
    assert prob.residual == pytest.approx(0.5)


def test_problem_validation():
    with pytest.raises(PreconditionError):
        rg.RegressionProblem(x=np.array([[0.5], [0.5]]), y=np.array([1.0, 0.0]),
                             weights=np.array([0.5, 1.0]), kappa_a=2.0, eta=0.9)
    with pytest.raises(NormError):
        rg.RegressionProblem(x=np.array([[2.0], [0.1]]), y=np.array([1.0, 0.0]),
                             weights=np.ones(2), kappa_a=2.0, eta=0.9)
    with pytest.raises(PreconditionError):
        rg.RegressionProblem(x=np.array([[0.5], [0.5]]), y=np.array([1.0, 0.0]),
                             weights=np.ones(2), kappa_a=2.0, eta=0.1)  # eta too small


def test_wls_identity_design():
    # X = I (scaled), W = I: output proportional to y
    x = 0.9 * np.eye(3)
    y = np.array([0.5, -0.3, 0.2])
    prob = rg.RegressionProblem(x=x, y=y, weights=np.ones(3), kappa_a=1.2, eta=0.1)
    res = rg.wls_solve(prob, eps=1e-4)
    assert abs(np.vdot(res.state, y / np.linalg.norm(y))) >= 1 - 1e-4


def test_wls_noiseless_line():
    res = rg.wls_solve(line_problem(), eps=1e-3)
    assert abs(np.vdot(res.state, [1.0])) >= 1 - 1e-3


def test_wls_reweighting_changes_solution():
    x = np.array([[0.4, 0.1], [0.1, 0.4], [0.3, 0.3]])
    y = np.array([0.5, 0.1, 0.7])
    p1 = rg.RegressionProblem(x=x, y=y, weights=np.ones(3), kappa_a=8.0, eta=0.9)
    w = np.array([1.0, 4.0, 1.0])
    x2 = x / 1.4  # keep ||sqrt(W) X|| <= 1
    p2 = rg.RegressionProblem(x=x2, y=y, weights=w, kappa_a=16.0, eta=0.9)
    b1 = rg.classical_beta(p1)
    b2 = rg.classical_beta(p2)
    assert abs(np.vdot(b1, b2)) < 1 - 1e-4  # direction genuinely moved
    r2 = rg.wls_solve(p2, eps=1e-3)
    assert abs(np.vdot(r2.state, b2)) >= 1 - 1e-3


def test_wls_routes_agree():
    rng = np.random.default_rng(0)
    prob = random_wls_problem(rng, 5, 2)
    ref = rg.classical_beta(prob)
    for route in ("kp-a", "kp-x-weights", "sparse"):
        res = rg.wls_solve(prob, route=route, eps=1e-3)
        assert abs(np.vdot(res.state, ref)) >= 1 - 1e-3, route


def test_wls_p_norm_route():
    rng = np.random.default_rng(1)
    prob = random_wls_problem(rng, 4, 2)
    ref = rg.classical_beta(prob)
    res = rg.wls_solve(prob, route="kp-a", eps=1e-3, p=0.5)
    assert abs(np.vdot(res.state, ref)) >= 1 - 1e-3


def test_wls_residual_violation():
    prob = rg.RegressionProblem(
        x=np.array([[0.5], [0.5]]), y=np.array([1.0, 0.0]),
        weights=np.ones(2), kappa_a=2.0, eta=0.6,
    )
    object.__setattr__(prob, "eta", 0.2)  # stale bound: solver re-checks
    with pytest.raises(PreconditionError):
        rg.wls_solve(prob, eps=1e-3)


def test_gls_pipeline_identity():
    # (X^T Omega^{-1} X)^{-1} X^T Omega^{-1} equals (Omega^{-1/2} X)^+ Omega^{-1/2}
    rng = np.random.default_rng(2)
    prob = random_gls_problem(rng, 5, 2)
    a = prob.design_matrix()
    inv_sqrt = np.linalg.inv(
        np.linalg.cholesky(prob.omega) @ np.linalg.cholesky(prob.omega).T
    )
    lhs = np.linalg.solve(prob.x.T @ inv_sqrt @ prob.x, prob.x.T @ inv_sqrt)
    rhs = np.linalg.pinv(a) @ rg._inv_sqrt(prob.omega)
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_gls_routes_agree():
    rng = np.random.default_rng(3)
    prob = random_gls_problem(rng, 5, 2)
    ref = rg.classical_beta(prob)
    for route in ("omega-inverse-sqrt-encoding", "omega-encoding", "kp", "sparse"):
        res = rg.gls_solve(prob, route=route, eps=1e-3)
        assert abs(np.vdot(res.state, ref)) >= 1 - 1e-3, route


def test_gls_identity_covariance_matches_ols():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 2))
    x = x / np.linalg.norm(x, 2) * 0.9
    y = x @ np.array([1.0, 2.0]) + 0.01 * rng.normal(size=5)
    prob = rg.RegressionProblem(x=x, y=y, omega=np.eye(5), kappa_a=20.0,
                                kappa_omega=2.0, eta=0.9)
    res = rg.gls_solve(prob, eps=1e-3)
    ols = np.linalg.lstsq(x, y, rcond=None)[0]
    ols = ols / np.linalg.norm(ols)
    assert abs(np.vdot(res.state, ols)) >= 1 - 1e-3


def test_gls_diagonal_matches_wls():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 2))
    omega_diag = np.array([1.0, 0.5, 0.25, 0.5])
    inv_sqrt = np.diag(1 / np.sqrt(omega_diag))
    x = x / np.linalg.norm(inv_sqrt @ x, 2) * 0.9
    y = x @ np.array([0.7, -0.2]) + 0.01 * rng.normal(size=4)
    gls_prob = rg.RegressionProblem(x=x, y=y, omega=np.diag(omega_diag),
                                    kappa_a=30.0, kappa_omega=5.0, eta=0.9)
    wls_prob = rg.RegressionProblem(x=x, y=y, weights=1 / omega_diag,
                                    kappa_a=30.0, eta=0.9)
    res = rg.gls_solve(gls_prob, eps=1e-3)
    assert abs(np.vdot(res.state, rg.classical_beta(wls_prob))) >= 1 - 1e-3


def test_gamma_feeding_invariant():
    # the overlap bound passed to pseudoinverse preparation is 1 - eta, and the
    # measured overlap respects it
    rng = np.random.default_rng(6)
    for _ in range(5):
        prob = random_wls_problem(rng, 6, 3)
        overlap_sq = 1.0 - prob.residual
        assert overlap_sq >= 1.0 - prob.eta - 1e-9


def test_problem_json_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    prob = random_wls_problem(rng, 4, 2)
    write_matrix(tmp_path / "x.mtx", prob.x)
    write_vector(tmp_path / "y.mtx", prob.y)
    write_vector(tmp_path / "w.mtx", prob.weights)
    (tmp_path / "prob.json").write_text(
        '{"x": "x.mtx", "y": "y.mtx", "weights": "w.mtx", '
        f'"kappa_a": {prob.kappa_a}, "eta": {prob.eta}}}'
    )
    loaded = rg.RegressionProblem.from_json(tmp_path / "prob.json")
    assert np.allclose(loaded.x, prob.x)
    assert np.allclose(loaded.weights, prob.weights)
    res = rg.wls_solve(loaded, eps=1e-3)
    assert abs(np.vdot(res.state, rg.classical_beta(prob))) >= 1 - 1e-3


def test_gls_every_route_accepts_every_fixture():
    # kappa_omega is an upper bound on cond(Omega); fixtures below 2 (seeds 0, 2
    # and 33 here) must still solve on the routes that take a negative power
    routes = ("omega-inverse-sqrt-encoding", "omega-encoding", "kp", "sparse")
    eps = 1e-3
    below_two = []
    for seed in range(40):
        prob = random_gls_problem(np.random.default_rng(seed), 6, 3)
        if prob.kappa_omega < 2.0:
            below_two.append(seed)
        ref = rg.classical_beta(prob)
        for route in routes:
            res = rg.gls_solve(prob, route=route, eps=eps)
            assert abs(np.vdot(res.state, ref)) >= 1 - eps, (seed, route)
    assert 33 in below_two


def test_problem_validates_from_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    norms = []
    spectral_norm = rg.spectral_norm
    monkeypatch.setattr(rg, "spectral_norm", lambda a: norms.append(1) or spectral_norm(a))
    rng = np.random.default_rng(8)
    for fixture in (random_wls_problem, random_gls_problem):
        p = fixture(rng, 6, 3)
        calls.clear()
        prob = rg.RegressionProblem(x=p.x, y=p.y, weights=p.weights, omega=p.omega,
                                    kappa_a=p.kappa_a, kappa_omega=p.kappa_omega, eta=p.eta)
        assert prob.residual == p.residual
        assert len(calls) == 1 and not norms


def test_non_symmetric_omega_norm_still_checked():
    # the symmetric part is 0.6 I, but ||Omega|| = sqrt(0.6^2 + 0.9^2) > 1
    omega = np.array([[0.6, 0.9], [-0.9, 0.6]])
    with pytest.raises(NormError):
        rg.RegressionProblem(x=np.array([[0.5], [0.5]]), y=np.array([1.0, 0.0]),
                             omega=omega, kappa_a=2.0, kappa_omega=2.0, eta=0.9)
