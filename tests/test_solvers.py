import math
from dataclasses import replace

import numpy as np
import pytest

from blockenc import encoding as be
from blockenc import solvers as sv
from blockenc.errors import OverlapError, PreconditionError, SpectrumError
from blockenc.fixtures import random_hermitian_spectrum, random_state
from blockenc.linalg import complement_matrix, normalize
from blockenc.regression import RegressionProblem, wls_solve


def test_sve_config_validation():
    cfg = sv.sve_config(0.05, 0.1)
    assert cfg.t_steps % 2 == 1 and cfg.t_steps >= 2 * math.pi / 0.05
    with pytest.raises(PreconditionError):
        sv.SVEConfig(delta=0.05, eps=0.1, t_steps=126, repetitions=3)


def test_abar_eigenstructure():
    # eigenvalues of [[0, A], [A^dag, 0]] are +/- sigma_j with (|0>|u> +/- |1>|v>)/sqrt(2)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    u, s, vh = np.linalg.svd(a)
    abar = complement_matrix(a)
    for j in range(3):
        plus = np.concatenate([u[:, j], vh[j, :]]) / math.sqrt(2)
        minus = np.concatenate([u[:, j], -vh[j, :]]) / math.sqrt(2)
        assert np.allclose(abar @ plus, s[j] * plus)
        assert np.allclose(abar @ minus, -s[j] * minus)


def test_sve_paper_values():
    cfg = sv.sve_config(0.05, 0.1)
    enc = be.encode(np.diag([0.5]), 1.0)
    out = sv.singular_value_estimation(enc, np.array([1.0]), cfg)
    br = out.branches[0]
    assert br.beta_sq >= 3.0 / 8.0
    z = np.abs(br.z_values)
    z_star = int(np.round(br.t_steps * br.sigma / (2.0 * math.pi)))
    peak = br.probs[z == abs(z_star)].sum()
    assert peak >= 0.25 * (2 / math.pi - 0.25) ** 2
    assert peak >= 0.037
    for d in range(2, 11):
        assert br.probs[z == abs(z_star + d)].sum() <= 16.0 / (3.0 * d * d)


def test_sve_estimate_convention():
    # the 2 pi z / T convention meets the Delta contract; pi z / T does not
    cfg = sv.sve_config(0.05, 0.1)
    enc = be.encode(np.diag([0.5]), 1.0)
    br = sv.singular_value_estimation(enc, np.array([1.0]), cfg).branches[0]
    est = 2 * math.pi * np.abs(br.z_values) / cfg.t_steps
    mass_good = br.probs[np.abs(est - 0.5) <= 0.05].sum()
    est_half = math.pi * np.abs(br.z_values) / cfg.t_steps
    mass_half = br.probs[np.abs(est_half - 0.5) <= 0.05].sum()
    assert mass_good >= 0.9
    assert mass_half < 0.01


def test_sve_two_branch():
    cfg = sv.sve_config(0.05, 0.1)
    a = np.diag([0.5, 0.25])
    enc = be.encode(a, 1.0)
    psi = np.array([1.0, 1.0]) / math.sqrt(2)
    out = sv.singular_value_estimation(enc, psi, cfg)
    rng = np.random.default_rng(1)
    for br in out.branches:
        est = br.sample_estimate(rng, cfg.repetitions)
        assert abs(est - br.sigma) <= cfg.delta


def test_sve_span_violation():
    cfg = sv.sve_config(0.05, 0.1)
    enc = be.encode(np.diag([0.5, 0.0]), 1.0)
    with pytest.raises(SpectrumError):
        sv.singular_value_estimation(enc, np.array([0.0, 1.0]), cfg)


def test_qls_identity():
    res = sv.qls_solve(be.encode(np.eye(2), 1.0), np.array([0.6, 0.8]), kappa=2.0, eps=1e-3)
    assert abs(np.vdot(res.state, [0.6, 0.8])) >= 1 - 1e-9


def test_qls_diagonal():
    res = sv.qls_solve(be.encode(np.diag([1.0, 0.5]), 1.0),
                       np.array([1, 1]) / math.sqrt(2), kappa=2.0, eps=1e-3)
    assert abs(np.vdot(res.state, np.array([1, 2]) / math.sqrt(5))) >= 1 - 1e-3


def test_qls_random_suite():
    rng = np.random.default_rng(2)
    for kappa in (2.0, 8.0, 64.0):
        for dim in (2, 4, 8):
            h = random_hermitian_spectrum(rng, dim, kappa, signed=True)
            b = random_state(rng, dim).real
            b = normalize(b)
            res = sv.qls_solve(be.encode(h, alpha=1.0), b, kappa=kappa, eps=1e-3)
            exact = normalize(np.linalg.solve(h, b))
            assert abs(np.vdot(res.state, exact)) >= 1 - 1e-3


def test_qls_stage_locality():
    # an eigenvalue branch acquires good amplitude on at most two adjacent stages
    kappa = 16.0
    h = np.diag([1.0, 0.11, 1.0 / kappa])
    res = sv.qls_solve(be.encode(h, 1.0), normalize(np.array([1.0, 1.0, 1.0])),
                       kappa=kappa, eps=1e-3)
    stages = {}
    for (row, label), amp in np.ndenumerate(res.vtaa.good):
        if abs(amp) > 1e-6:
            stages.setdefault(label, set()).add(row + 1)
    for label, clocks in stages.items():
        assert len(clocks) <= 2
        assert max(clocks) - min(clocks) <= 1


def test_qls_splits_each_running_branch_once(monkeypatch):
    # gapped phase estimation is evaluated in one call per stage, over the
    # labels still running there, and never for a stage with nothing running
    calls = []
    split = sv.gpe_split

    def counted(lam, phi, eps):
        calls.append((np.array(lam, dtype=float), phi))
        return split(lam, phi, eps)

    monkeypatch.setattr(sv, "gpe_split", counted)
    kappa = 16.0
    res = sv.qls_solve(be.encode(np.diag([1.0, 0.11, 1.0 / kappa]), 1.0),
                       normalize(np.array([1.0, 1.0, 1.0])), kappa=kappa, eps=1e-3)
    cont = res.vtaa.vsta.cont
    running = np.vstack([np.ones((1, cont.shape[1]), bool),
                         np.cumprod(cont[:-1] > 0, axis=0).astype(bool)])
    phis = [phi for _, phi in calls]
    assert len(set(phis)) == len(phis)  # at most one call per stage
    assert not running.any(axis=1).all()  # some stage runs nothing, and is not called
    assert [lam.size for lam, _ in calls] == [int(r) for r in running.sum(axis=1) if r]
    assert sum(lam.size for lam, _ in calls) == int(running.sum())
    pairs = [(float(lam), phi) for lams, phi in calls for lam in lams]
    assert len(set(pairs)) == len(pairs)
    assert running.sum() < running.size  # some branch stops before the last stage


def test_qls_spectrum_violation():
    h = np.diag([1.0, 0.01])
    with pytest.raises(SpectrumError):
        sv.qls_solve(be.encode(h, 1.0), np.array([1, 1]) / math.sqrt(2), kappa=4.0, eps=1e-3)


def test_qls_noisy_input_rejected():
    rng = np.random.default_rng(3)
    noise = rng.normal(size=(2, 2))
    noise = noise / np.linalg.norm(noise, 2) * 5e-3
    enc = replace(be.encode(np.diag([1.0, 0.5]) + noise), target=np.diag([1.0, 0.5]), epsilon=1e-2)
    with pytest.raises(PreconditionError):
        sv.qls_solve(enc, np.array([1.0, 0.0]), kappa=2.0, eps=1e-3)


def test_pseudoinverse_state_examples():
    enc = be.encode(np.diag([1.0, 0.0]), 1.0)
    res = sv.pseudoinverse_state(enc, np.array([1.0, 0.0]), 2.0, 0.9, 1e-3)
    assert abs(res.state[0]) >= 1 - 1e-9
    res2 = sv.pseudoinverse_state(enc, np.array([1, 1]) / math.sqrt(2), 2.0, 0.5, 1e-3)
    assert abs(res2.state[0]) >= 1 - 1e-9


def test_pseudoinverse_overlap_violation():
    enc = be.encode(np.diag([1.0, 0.0]), 1.0)
    with pytest.raises(OverlapError):
        sv.pseudoinverse_state(enc, np.array([1, 1]) / math.sqrt(2), 2.0, 0.9, 1e-3)


def test_norm_estimate_identity():
    rng = np.random.default_rng(4)
    est = sv.qls_norm_estimate(be.encode(np.eye(2), 1.0), np.array([0.6, 0.8]),
                               2.0, 1.0, 0.1, 0.1, rng)
    assert 0.9 <= est.value <= 1.1


def test_norm_estimate_seeded_runs():
    h = np.diag([1.0, 0.5])
    enc = be.encode(h, 1.0)
    psi = np.array([0.0, 1.0])
    fails = 0
    runs = 300
    for seed in range(runs):
        rng = np.random.default_rng(seed)
        est = sv.qls_norm_estimate(enc, psi, 2.0, 1.0, 0.1, 0.1, rng)
        if not 0.9 <= est.value / 2.0 <= 1.1:
            fails += 1
    assert fails / runs <= 0.1


def test_negative_power_solve_consistency():
    # power 1 of the pseudoinverse pipeline is the linear-system solve
    h = np.diag([1.0, 0.5])
    enc = be.encode(h, 1.0)
    b = np.array([1, 1]) / math.sqrt(2)
    r1 = sv.pseudoinverse_state(enc, b, 2.0, 1.0, 1e-3, power=1.0)
    r2 = sv.qls_solve(enc, b, kappa=2.0, eps=1e-3)
    assert abs(np.vdot(r1.state, r2.state)) >= 1 - 2e-3


def test_negative_power_solve_square():
    h = np.diag([1.0, 0.5])
    enc = be.encode(h, 1.0)
    b = np.array([1, 1]) / math.sqrt(2)
    res = sv.pseudoinverse_state(enc, b, 2.0, 1.0, 1e-3, power=2.0)
    exact = np.array([1.0, 4.0]) / math.sqrt(17)
    assert abs(np.vdot(res.state, exact)) >= 1 - 1e-3


def test_negative_power_norm_variant():
    h = np.diag([1.0, 0.5])
    enc = be.encode(h, 1.0)
    rng = np.random.default_rng(5)
    est = sv.qls_norm_estimate(enc, np.array([0.0, 1.0]), 2.0, 1.0, 0.1, 0.1, rng, power=2.0)
    assert 0.9 <= est.value / 4.0 <= 1.1


def _wls_kp_a(x, y, p=None):
    """The data-structure QLS: square X in a KP tree, unit weights, route kp-a."""
    problem = RegressionProblem(np.asarray(x, float), np.asarray(y, float),
                                weights=np.ones(len(y)), kappa_a=2.0)
    return wls_solve(problem, route="kp-a", p=p)


def test_qls_from_data_structure_identity():
    res = _wls_kp_a(np.eye(2), [0.6, 0.8])
    assert abs(np.vdot(res.state, [0.6, 0.8])) >= 1 - 1e-6


def test_qls_from_data_structure_diag():
    res = _wls_kp_a(np.diag([1.0, 0.5]), [1.0, 1.0])
    assert abs(np.vdot(res.state, np.array([1, 2]) / math.sqrt(5))) >= 1 - 1e-3


def test_qls_from_data_structure_p_mode():
    res = _wls_kp_a(np.diag([1.0, 0.5]), [1.0, 1.0], p=0.5)
    assert abs(np.vdot(res.state, np.array([1, 2]) / math.sqrt(5))) >= 1 - 1e-3


def test_kappa_scaling_slopes():
    kappas = [4.0, 8.0, 16.0, 32.0, 64.0]
    vtaa_q, naive_q = [], []
    for kappa in kappas:
        h = np.diag([1.0, 1.0 / kappa])
        enc = be.encode(h, 1.0)
        b = np.array([0.0, 1.0])
        vtaa_q.append(sv.qls_solve(enc, b, kappa=kappa, eps=1e-3).ledger.total_queries())
        naive_q.append(sv.naive_solve(enc, b, kappa, 1e-3).ledger.total_queries())
    lx = np.log(kappas)
    vt_slope = np.polyfit(lx, np.log(vtaa_q), 1)[0]
    nv_slope = np.polyfit(lx, np.log(naive_q), 1)[0]
    assert 0.8 <= vt_slope <= 1.3
    assert 1.7 <= nv_slope <= 2.3


def test_eps_scaling_ratio():
    h = np.diag([1.0, 1.0 / 8.0])
    enc = be.encode(h, 1.0)
    b = np.array([0.0, 1.0])
    q1 = sv.qls_solve(enc, b, kappa=8.0, eps=1e-3).ledger.total_queries()
    q2 = sv.qls_solve(enc, b, kappa=8.0, eps=1e-3 / 1024).ledger.total_queries()
    assert q2 / q1 <= 5.0


def test_is_hermitian_equality_shortcut():
    rng = np.random.default_rng(40)
    h = rng.normal(size=(5, 5))
    h = h + h.T
    skew = rng.normal(size=(5, 5))
    skew = skew - skew.T
    for offset, expected in ((0.0, True), (1e-11, True), (1e-3, False)):
        enc = be.encode(h + offset * skew)
        m = enc.target
        assert sv._is_hermitian(enc) is expected
        assert expected == bool(np.linalg.norm(m - m.conj().T, 2) <= 1e-9 + 2.0 * enc.epsilon)
