import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from blockenc import encoding as be
from blockenc import hamsim as hs
from blockenc.errors import NormError, PreconditionError, SpectrumError
from blockenc.fixtures import random_hermitian_spectrum
from blockenc.linalg import is_unitary, spectral_norm


def test_block_ham_sim_zero():
    enc = be.encode(np.zeros((2, 2)), 1.0)
    sim = hs.block_ham_sim(enc, 3.0, 1e-8)
    assert np.allclose(sim.applied(), np.eye(2))


def test_block_ham_sim_phases():
    enc = be.encode(np.diag([1.0, -1.0]), 1.0)
    sim = hs.block_ham_sim(enc, math.pi / 2, 1e-8)
    assert spectral_norm(sim.applied() - np.diag([1j, -1j])) <= 1e-8
    assert sim.alpha == 1.0 and sim.ancillas == enc.ancillas + 2


def test_block_ham_sim_budget_enforced():
    rng = np.random.default_rng(0)
    noise = rng.normal(size=(2, 2))
    noise = noise / spectral_norm(noise) * 5e-4
    enc = replace(be.encode(np.eye(2) / 2 + noise, 1.0), target=np.eye(2) / 2, epsilon=1e-3)
    with pytest.raises(PreconditionError):
        hs.block_ham_sim(enc, t=10.0, eps=1e-3)  # needs input error <= eps/20


def test_block_ham_sim_functional_block_unitary():
    rng = np.random.default_rng(1)
    h = rng.normal(size=(3, 3))
    enc = be.encode((h + h.T) / 2)
    sim = hs.block_ham_sim(enc, 0.7, 1e-9)
    block = sim.block()
    assert is_unitary(block, 1e-9)
    assert np.allclose(np.abs(np.linalg.eigvals(block)), 1.0, atol=1e-9)
    oracle = scipy.linalg.expm(1j * 0.7 * (h + h.T) / 2 / enc.alpha * enc.alpha)
    assert spectral_norm(sim.applied() - oracle) <= 1e-9 + 1e-10


def test_taylor_series_envelope_enforced():
    with pytest.raises(PreconditionError):
        hs.TaylorSeries(center=1.0, radius=0.5, coeffs=np.array([10.0, 10.0]),
                        delta=0.25, envelope=2.0)


def test_smooth_function_identity():
    # f(x) = x around 1: coefficients (1, 1)
    series = hs.TaylorSeries(center=1.0, radius=0.5, coeffs=np.array([1.0, 1.0]),
                             delta=0.5, envelope=2.0)
    h = np.diag([0.9, 0.5])
    enc = be.encode(h, 1.0)
    out = hs.smooth_function(enc, series, 0.25, exact_f=lambda x: x)
    assert spectral_norm(out.applied() - h) < 1e-9


def test_smooth_function_square():
    series = hs.TaylorSeries(center=1.0, radius=0.5,
                             coeffs=np.array([1.0, 2.0, 1.0]),
                             delta=0.5, envelope=4.0)
    h = np.diag([0.9, 0.5])
    enc = be.encode(h, 1.0)
    out = hs.smooth_function(enc, series, 0.25, exact_f=lambda x: x**2)
    assert spectral_norm(out.applied() - np.diag([0.81, 0.25])) < 1e-9


def test_smooth_function_spectrum_check():
    series = hs.TaylorSeries(center=1.0, radius=0.1, coeffs=np.array([1.0, 1.0]),
                             delta=0.1, envelope=2.0)
    enc = be.encode(np.diag([0.2, 0.9]), 1.0)
    with pytest.raises(SpectrumError):
        hs.smooth_function(enc, series, 0.25)


def test_negative_power_envelope_inequality():
    # sum_k |binom(-c, k)| (r + delta)^k <= 2 kappa^c, numerically
    for c in (0.5, 1.0, 2.0):
        for kappa in (2.0, 4.0, 8.0, 16.0):
            series = hs.negative_power_series(c, kappa, 1e-4)
            assert series.envelope_sum() <= 2.0 * kappa**c * (1 + 1e-9)


def test_positive_power_envelope_total():
    for c in (0.25, 0.5, 1.0):
        series = hs.positive_power_series(c, 8.0, 1e-4)
        assert series.envelope_sum() <= 2.0 * (1 + 1e-9)


def test_negative_power_identity_value():
    # H = I, c = 1, kappa = 2: encoded block is I / (2 kappa) = I/4
    enc = be.encode(np.eye(2), 1.0)
    out = hs.negative_power(enc, 1.0, 2.0, 1e-6)
    assert np.allclose(out.block(), np.eye(2) / 4.0)
    assert abs(out.alpha - 4.0) < 1e-12


def test_negative_power_spectral_oracle():
    enc = be.encode(np.diag([1.0, 0.5, 0.25]), 1.0)
    out = hs.negative_power(enc, 1.0, 4.0, 1e-6)
    assert spectral_norm(out.applied() - np.diag([1.0, 2.0, 4.0])) <= 1e-6
    out2 = hs.negative_power(be.encode(np.diag([1.0, 0.5]), 1.0), 2.0, 2.0, 1e-6)
    assert spectral_norm(out2.applied() - np.diag([1.0, 4.0])) <= 1e-6


def test_negative_power_series_path_agreement():
    rng = np.random.default_rng(3)
    for kappa in (2.0, 4.0, 8.0, 16.0):
        for c in (0.5, 1.0, 2.0):
            eigs = rng.uniform(1.0 / kappa, 1.0, size=3)
            eigs[0] = 1.0
            eigs[1] = 1.0 / kappa
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            h = (q * eigs) @ q.T
            enc = be.encode(h, 1.0)
            eps = 1e-5
            spectral = hs.negative_power(enc, c, kappa, eps)
            series = hs.negative_power(enc, c, kappa, eps, path="series")
            assert spectral_norm(spectral.applied() - series.applied()) <= eps


def test_positive_power_examples():
    enc = be.encode(np.diag([1.0, 0.25]), 1.0)
    out = hs.positive_power(enc, 0.5, 4.0, 1e-6)
    assert spectral_norm(out.applied() - np.diag([1.0, 0.5])) <= 1e-9
    assert out.alpha == 2.0
    one = hs.positive_power(enc, 1.0, 4.0, 1e-6)
    assert spectral_norm(one.block() - np.diag([0.5, 0.125])) <= 1e-9
    with pytest.raises(PreconditionError):
        hs.positive_power(enc, 1.5, 4.0, 1e-6)


def test_positive_power_series_agreement():
    rng = np.random.default_rng(4)
    for kappa in (2.0, 4.0, 8.0, 16.0):
        for c in (0.25, 0.5, 1.0):
            eigs = rng.uniform(1.0 / kappa, 1.0, size=3)
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            h = (q * eigs) @ q.T
            enc = be.encode(h, 1.0)
            eps = 1e-5
            spectral = hs.positive_power(enc, c, kappa, eps)
            series = hs.positive_power(enc, c, kappa, eps, path="series")
            assert spectral_norm(spectral.applied() - series.applied()) <= eps


def test_negative_power_spectrum_violation():
    enc = be.encode(np.diag([1.0, 0.01]), 1.0)
    with pytest.raises(SpectrumError):
        hs.negative_power(enc, 1.0, 4.0, 1e-6)


def test_inversion_patch_eigenvector_amplitude():
    alpha_max = 2.0 / 0.5  # the default 2 / lam^c for lam = 0.5, c = 1
    amp = hs.inversion_patch_amplitude
    assert abs(amp(1.0, 0.5, 1.0, alpha_max) - 1.0 / alpha_max) < 1e-12
    assert abs(amp(0.6, 0.5, 1.0, alpha_max) - (1 / 0.6) / alpha_max) < 1e-12
    # the sign follows the eigenvalue
    assert abs(amp(-0.6, 0.5, 1.0, alpha_max) + (1 / 0.6) / alpha_max) < 1e-12
    # below-threshold eigenvalue is clipped at phi
    assert abs(amp(0.1, 0.5, 1.0, alpha_max) - (1 / 0.5) / alpha_max) < 1e-12
    assert abs(amp(-0.1, 0.5, 1.0, alpha_max) + (1 / 0.5) / alpha_max) < 1e-12
    # lambda = 0 takes the + sign
    assert amp(0.0, 0.5, 1.0, alpha_max) == (1 / 0.5) / alpha_max
    # power c: |lambda|^-c scaled by 1/alpha_max
    assert abs(amp(0.5, 0.25, 2.0, 8.0) - 0.5**-2 / 8.0) < 1e-12
    # clamped to [-1, 1]
    assert amp(0.1, 0.1, 1.0, 2.0) == 1.0
    assert amp(-0.1, 0.1, 1.0, 2.0) == -1.0


def test_every_hamsim_constructor_stores_a_dilatable_block():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    h = (q * np.array([1.0, 0.6, 0.4, 0.25])) @ q.T
    enc = be.encode(h, 1.0)
    identity = hs.TaylorSeries(center=1.0, radius=0.75, coeffs=np.array([1.0, 1.0]),
                               delta=0.25, envelope=2.0)
    outs = [
        hs.block_ham_sim(enc, 0.7, 1e-6),
        hs.smooth_function(enc, identity, 0.25, exact_f=lambda x: x),
        hs.negative_power(enc, 0.5, 4.0, 1e-3),
        hs.negative_power(enc, 0.5, 4.0, 1e-3, path="series"),
        hs.positive_power(enc, 0.5, 4.0, 1e-3),
        hs.positive_power(enc, 0.5, 4.0, 1e-3, path="series"),
    ]
    for out in outs:
        u = out.unitary
        assert is_unitary(u)
        assert np.array_equal(u[:4, :4], out.block())
        assert out.verify()


def test_positive_power_block_norm_checked():
    # an input error of 5 admits eigenvalues up to 6, where H / 2 has norm above 1
    enc = replace(be.encode(np.diag([1.0, 0.5]), 1.0).rescaled(0.2),
                  target=np.diag([5.0, 2.5]), epsilon=5.0)
    with pytest.raises(NormError):
        hs.positive_power(enc, 1.0, 4.0, 1e-3)


def _old_hermitian_function(a, f):
    """The block formula before the spectrum was cached: eigh of the Hermitian part of a."""
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    return (v * f(w)) @ v.conj().T


def _positive_encoding(seed, kappa=4.0, dim=8):
    rng = np.random.default_rng(seed)
    h = random_hermitian_spectrum(rng, dim, kappa)
    return be.encode((h + h.T) / 2)


def _old_log2(x):
    return math.log2(max(x, 2.0))


def _old_metadata(u, alpha, eps, rounds, gates, clamp=True):
    """alpha, ancillas, epsilon and ledger as each block function wrote them by hand."""
    ledger = u.ledger.scaled(max(rounds, 1.0) if clamp else rounds).with_gates(gates)
    return alpha, u.ancillas + 2, eps, ledger.to_dict()


def test_block_functions_bit_for_bit_against_the_block_eigh():
    kappa, eps, t, c = 4.0, 1e-3, 0.7, 0.5
    attached = _positive_encoding(20, kappa)
    for u in (attached, replace(attached, target=None)):
        a, al, an = u.applied(), u.alpha, u.ancillas
        series = hs.negative_power_series(c, kappa, eps)
        degree = series.truncation_degree(eps)
        r, delta, b = series.radius, series.delta, series.envelope
        m_sim = r * _old_log2(1.0 / eps) / delta
        sim_rounds = al * m_sim / max(r, 1e-300) + _old_log2(m_sim) * _old_log2(m_sim / eps)
        smooth_gates = (r / delta) * _old_log2(r / (delta * eps)) * _old_log2(1.0 / eps)
        neg_rounds = al * kappa * (1.0 + c) * _old_log2(kappa ** (1.0 + c) / eps)
        pos_rounds = al * kappa * _old_log2(kappa / eps)
        sim_rounds_t = abs(al * t) + _old_log2(1.0 / eps)
        cases = [
            (hs.block_ham_sim(u, t, eps), lambda w: np.exp(1j * t * w),
             _old_metadata(u, 1.0, eps, sim_rounds_t, an * sim_rounds_t, clamp=False)),
            (hs.negative_power(u, c, kappa, eps), lambda w: np.sign(w) * np.abs(w) ** -c,
             _old_metadata(u, 2.0 * kappa**c, eps, neg_rounds, an * neg_rounds)),
            (hs.positive_power(u, c, kappa, eps), lambda w: np.maximum(w, 0.0) ** c,
             _old_metadata(u, 2.0, eps, pos_rounds, an * pos_rounds)),
            (hs.smooth_function(u, series, eps), lambda x: series.evaluate(x, degree),
             _old_metadata(u, b, b * eps, sim_rounds, smooth_gates)),
        ]
        for out, f, (alpha, ancillas, epsilon, ledger) in cases:
            assert np.array_equal(out.block(), _old_hermitian_function(a, f) / alpha)
            assert (out.alpha, out.ancillas, out.epsilon) == (alpha, ancillas, epsilon)
            assert out.ledger.to_dict() == ledger
            if u.target is None:
                assert out.target is None
            else:
                assert np.array_equal(out.target, _old_hermitian_function(u.target, f))


def test_negative_power_decomposes_the_block_once(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    # without a claimed target, every decomposition is one of the block
    u = replace(_positive_encoding(21), target=None)
    hs.negative_power(u, 1.0, 4.0, 1e-3)
    assert calls == {"eigh": 1, "eigvalsh": 0}
    hs.negative_power(u, 1.0, 4.0, 1e-3, path="series")
    hs.positive_power(u, 0.5, 4.0, 1e-3, path="series")
    assert calls == {"eigh": 1, "eigvalsh": 0}
