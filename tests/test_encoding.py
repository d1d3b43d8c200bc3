import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from blockenc import encoding as be
from blockenc import hamsim, linalg
from blockenc.capacity import max_dim
from blockenc.errors import (
    CapacityError,
    DimensionError,
    NormError,
    PreconditionError,
    SparsityError,
)
from blockenc.fixtures import random_hermitian_spectrum, random_state
from blockenc.linalg import complement_matrix, embed, is_unitary, spectral_norm
from blockenc.solvers import qls_solve


def noisy_encoding(a, alpha, eps, rng):
    """Encoding whose true block error is strictly below the declared eps."""
    noise = rng.normal(size=a.shape)
    noise = noise / spectral_norm(noise) * (0.7 * eps)
    return replace(be.encode(a + noise, alpha=alpha + eps), target=a, epsilon=eps)


def test_exact_encode_examples():
    enc = be.encode(np.eye(2), 1.0)
    assert np.allclose(enc.block(), np.eye(2))
    enc = be.encode(np.diag([0.5]), 1.0)
    assert np.allclose(enc.block(), [[0.5]])
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4))
    enc = be.encode(a)
    assert spectral_norm(enc.block() - a / enc.alpha) < 1e-10
    assert enc.ancillas == 1 and is_unitary(enc.unitary)


def test_exact_encode_alpha_too_small():
    with pytest.raises(NormError):
        be.encode(np.eye(2), alpha=0.5)
    # the Hermitian check reads max |w|, so a negative eigenvalue counts too
    with pytest.raises(NormError):
        be.encode(np.diag([-1.0, 0.5]), alpha=0.75)
    assert be.encode(np.diag([-1.0, 0.5]), alpha=1.0).alpha == 1.0


def test_exact_encode_alpha_too_small_non_hermitian(monkeypatch):
    norms = _count_calls(monkeypatch, linalg, "spectral_norm")
    with pytest.raises(NormError):
        be.encode(np.array([[0.0, 1.0], [0.0, 0.0]]), alpha=0.5)
    assert len(norms) == 1  # a non-Hermitian input keeps the SVD check


def test_product_exact():
    enc = be.encode(0.5 * np.eye(2), 1.0)
    prod = be.product(enc, enc)
    assert np.allclose(prod.applied(), 0.25 * np.eye(2))
    assert prod.epsilon == 0.0
    assert prod.ancillas == 2


def test_product_error_bound_formula():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 2)) / 4
    b = rng.normal(size=(2, 2)) / 4
    u = noisy_encoding(a, 2.0, 1e-3, rng)
    v = noisy_encoding(b, 3.0, 2e-3, rng)
    w = be.product(u, v)
    assert abs(w.epsilon - (2.0 + 1e-3) * 2e-3 - (3.0 + 2e-3) * 1e-3) < 1e-12
    assert w.measured_error() <= w.epsilon


def test_product_random_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        w = be.product(be.encode(a), be.encode(b))
        assert spectral_norm(w.applied() - a @ b) < 1e-9


def test_amplify():
    enc = be.encode(0.1 * np.eye(2), alpha=4.0)
    amp = be.amplify(enc, 1e-6)
    assert abs(amp.alpha - math.sqrt(2)) < 1e-12
    assert np.allclose(amp.block(), 0.1 * np.eye(2) / math.sqrt(2))
    assert amp.ancillas == enc.ancillas + 1
    # alpha = 1 input stays valid
    amp2 = be.amplify(be.encode(np.eye(2), 1.0), 1e-6)
    assert abs(amp2.alpha - math.sqrt(2)) < 1e-12
    # error composition delta + gamma
    assert amp.epsilon == enc.epsilon + 1e-6


def test_amplify_error_budget_paper_values():
    rng = np.random.default_rng(3)
    enc = noisy_encoding(0.3 * np.eye(2), 2.0, 1e-6, rng)
    amp = be.amplify(enc, 1e-6)
    assert amp.epsilon <= 2e-6 + 1e-18


def test_preamplified_product():
    u = be.encode(np.eye(2), alpha=2.0)
    v = be.encode(np.eye(2), alpha=2.0)
    w = be.preamplified_product(u, v, 1e-8)
    assert abs(w.alpha - 2.0) < 1e-12
    assert spectral_norm(w.block() - np.eye(2) / 2.0) <= math.sqrt(2) * 1e-8 + 1e-12
    assert w.ancillas == u.ancillas + v.ancillas + 2
    # declared error: sqrt(2)(delta + eps + gamma)
    rng = np.random.default_rng(4)
    un = noisy_encoding(0.5 * np.eye(2), 1.5, 1e-4, rng)
    vn = noisy_encoding(0.5 * np.eye(2), 1.5, 1e-4, rng)
    wn = be.preamplified_product(un, vn, 1e-4)
    assert abs(wn.epsilon - math.sqrt(2) * 3e-4) < 1e-15
    assert wn.measured_error() <= wn.epsilon


def test_preamplified_rejects_gamma_zero():
    u = be.encode(np.eye(2), alpha=2.0)
    with pytest.raises(PreconditionError):
        be.preamplified_product(u, u, 0.0)


def test_complement_examples():
    enc = be.encode(np.array([[1.0]]), 1.0)
    comp = be.complement(enc)
    assert np.allclose(comp.applied(), [[0, 1], [1, 0]])
    assert comp.ancillas == enc.ancillas + 1
    zero = be.complement(be.encode(np.zeros((1, 1)), 1.0))
    assert np.allclose(zero.applied(), np.zeros((2, 2)))


def test_complement_rectangular():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 3))
    a_pad = embed(a, 3)
    comp = be.complement(be.encode(a_pad))
    direct = complement_matrix(a)
    # the 2x3 complement occupies rows/cols [0, 1] and [3, 4, 5] of the padded one
    idx = [0, 1, 3, 4, 5]
    assert spectral_norm(comp.applied()[np.ix_(idx, idx)] - direct) < 1e-9


def test_from_sparse_access_examples():
    diag = np.diag([0.5, -0.25, 0.75, 0.1])
    enc = be.from_sparse_access(diag)
    assert enc.alpha == 1.0
    assert spectral_norm(enc.applied() - diag) < 1e-10

    tri = np.diag([0.5] * 4) + np.diag([-0.3] * 3, -1) + np.diag([0.2] * 3, 1)
    enc = be.from_sparse_access(scipy.sparse.csr_array(tri))
    assert abs(enc.alpha - 3.0) < 1e-12
    assert spectral_norm(enc.block() - tri / 3.0) < 1e-10
    assert be.from_sparse_access(tri, 4).alpha == math.sqrt(12.0)  # s_col measured: 3

    zero = be.from_sparse_access(np.zeros((4, 4)))
    assert zero.alpha == 1.0
    assert spectral_norm(zero.applied()) == 0.0


def test_from_sparse_access_violation():
    with pytest.raises(SparsityError, match="s_row"):
        be.from_sparse_access(scipy.sparse.csr_array(np.full((3, 3), 0.3)), 1, 1)
    # one dense column, every row 1-sparse
    col = np.zeros((3, 3))
    col[:, 0] = 0.5
    assert be.from_sparse_access(col, 1, 3).alpha == math.sqrt(3.0)
    with pytest.raises(SparsityError, match="s_col"):
        be.from_sparse_access(col, 1, 2)
    with pytest.raises(NormError):
        be.from_sparse_access(np.diag([0.5, 1.5]))


def test_from_sparse_access_sums_duplicates_and_ignores_stored_zeros():
    # row 0 stores (0, 0) twice and a zero at (0, 1); row 1 a zero at (1, 0)
    m = scipy.sparse.csr_array(
        (np.array([0.25, 0.25, 0.0, 0.0, -0.5]), np.array([0, 0, 1, 0, 1]),
         np.array([0, 3, 5])),
        shape=(2, 2),
    )
    data, indices, indptr = m.data.copy(), m.indices.copy(), m.indptr.copy()
    enc = be.from_sparse_access(m, 1, 1)
    assert enc.alpha == 1.0
    assert np.array_equal(enc.block(), np.diag([0.5, -0.5]))
    # the caller's matrix is left as it was
    assert m.nnz == 5
    assert np.array_equal(m.data, data)
    assert np.array_equal(m.indices, indices)
    assert np.array_equal(m.indptr, indptr)


def test_from_kp_identity_modes():
    enc = be.from_kp(np.eye(2))
    assert abs(enc.alpha - math.sqrt(2)) < 1e-12
    target = embed(complement_matrix(np.eye(2)), enc.system_dim)
    assert spectral_norm(enc.block() - target / math.sqrt(2)) < 1e-9

    enc2 = be.from_kp(np.eye(2), 0.5)
    assert abs(enc2.alpha - 1.0) < 1e-12
    target2 = embed(complement_matrix(np.eye(2)), enc2.system_dim)
    assert spectral_norm(enc2.block() - target2) < 1e-9


def test_from_kp_inner_product_structure():
    # <psi_j | phi_{M+k}> = A_{j,k} / mu_p(A), checked entrywise via the block
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 2))
    enc = be.from_kp(a, 0.5)
    block = enc.block()
    m = 3
    for j in range(3):
        for k in range(2):
            assert abs(block[j, m + k] - a[j, k] / enc.alpha) < 1e-10
            assert abs(block[m + k, j] - a[j, k] / enc.alpha) < 1e-10


def test_from_kp_random_both_modes():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.normal(size=(3, 3))
        enc = be.from_kp(a)
        target = embed(complement_matrix(a), enc.system_dim)
        assert spectral_norm(target / enc.alpha - enc.block()) < 1e-9
        enc2 = be.from_kp(a, 0.5)
        assert spectral_norm(target / enc2.alpha - enc2.block()) < 1e-9


def test_from_kp_perturbation_respects_eps():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(2, 2))
    enc = be.from_kp(a, eps=1e-4, perturb=5e-5, rng=rng)
    assert enc.verify()
    with pytest.raises(PreconditionError):
        be.from_kp(a, eps=1e-6, perturb=1e-4)


def test_from_kp_weights():
    # stored weights encode the symmetrized sqrt(W) X, with alpha = sqrt(w_max) mu
    rng = np.random.default_rng(19)
    x = rng.normal(size=(4, 3))
    w = np.array([1.0, 2.0, 4.0, 1.5])
    for p in (None, 0.5):
        enc = be.from_kp(x, p, weights=w)
        assert enc.alpha == 2.0 * be.from_kp(x, p).alpha
        assert enc.ledger.queries["weight_oracle"] == 1.0
        target = embed(complement_matrix(np.sqrt(w)[:, None] * x), enc.system_dim)
        assert spectral_norm(enc.applied() - target) < 1e-12
    with pytest.raises(PreconditionError, match="w_j >= 1"):
        be.from_kp(x, weights=[1.0, 0.5, 2.0, 1.0])
    with pytest.raises(DimensionError, match="one weight per stored row"):
        be.from_kp(x, weights=[1.0, 2.0, 3.0])
    with pytest.raises(PreconditionError, match="square"):
        be.from_kp(rng.normal(size=(3, 3)), weights=[1.0, 2.0, 3.0], square=True)


def test_apply_to_state():
    enc = be.encode(np.eye(2), 1.0)
    out = be.apply_to_state(enc, np.array([0.6, 0.8]), 0.9, 1e-6)
    assert np.allclose(out.state, [0.6, 0.8])
    enc2 = be.encode(np.diag([1.0, 0.5]), 1.0)
    out2 = be.apply_to_state(enc2, np.array([1, 1]) / math.sqrt(2), 0.5, 1e-6)
    assert np.allclose(out2.state, np.array([2, 1]) / math.sqrt(5))


def test_apply_to_state_noise_precondition():
    rng = np.random.default_rng(9)
    enc = noisy_encoding(np.diag([1.0, 0.5]), 1.0, 1e-2, rng)
    with pytest.raises(PreconditionError):
        be.apply_to_state(enc, np.array([1, 0]), gamma_lower=0.5, eps=1e-3)


def test_kfold_unitary_product_error():
    # K-fold products of (1, a, eps)-encodings of unitaries stay within 4 K^2 eps
    rng = np.random.default_rng(10)
    eps = 1e-5
    for k_fold in (2, 4, 8):
        us, targets = [], []
        for _ in range(k_fold):
            h = rng.normal(size=(2, 2))
            w = np.linalg.eigh((h + h.T) / 2)[1]
            noise = rng.normal(size=(2, 2))
            noise = noise / spectral_norm(noise) * (0.5 * eps)
            us.append(replace(be.encode(w + noise, alpha=1.0 + eps), target=w, epsilon=eps))
            targets.append(w)
        block = np.eye(2)
        target = np.eye(2)
        for u, t in zip(us, targets):
            block = u.block() @ block
            target = t @ target
        assert spectral_norm(target - block) <= 4 * k_fold**2 * eps


def test_ledger_additivity():
    u = be.encode(np.eye(2), 1.0, oracle="left")
    v = be.encode(np.eye(2), 1.0, oracle="right")
    w = be.product(u, v)
    assert w.ledger.queries["left"] == 1.0
    assert w.ledger.queries["right"] == 1.0
    assert w.ledger.gates == u.ledger.gates + v.ledger.gates + 1.0


def test_restrict_and_compact():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 3))
    a = a / spectral_norm(a)
    enc = be.complement(be.encode(a))
    small = be.restrict(enc, 3)
    assert small.system_dim == 3
    assert spectral_norm(small.applied() - enc.applied()[:3, :3]) < 1e-10
    comp = be.compact(enc)
    assert comp.ancillas == 1
    assert np.array_equal(comp.block(), enc.block())
    assert comp.alpha == enc.alpha


def _assert_dilates_block(enc):
    """The on-demand unitary is unitary and carries the stored block in its corner."""
    u = enc.unitary
    d = enc.system_dim
    assert is_unitary(u)
    assert np.array_equal(u[:d, :d], enc.block())
    if enc.target is not None:
        assert enc.verify()


def _no_negative_zeros(m):
    parts = (m.real, m.imag)
    return not any(np.any((p == 0.0) & np.signbit(p)) for p in parts)


def test_every_constructor_stores_a_dilatable_block():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    ea = be.encode(a)  # alpha = ||a||: a block of norm 1
    eb = be.encode(b, alpha=2.0 * spectral_norm(b))
    x = rng.normal(size=(5, 3))
    unit = be.encode(a / (2.0 * spectral_norm(a)), alpha=1.0)
    comp = be.complement(ea)
    encodings = [
        ea,
        be.product(ea, eb),
        be.amplify(unit, 1e-6),
        be.preamplified_product(unit, unit, 1e-6),
        comp,
        be.restrict(comp, 4),
        be.compact(be.product(ea, eb)),
        be.from_sparse_access(np.clip(a / 3.0, -1.0, 1.0)),
        be.from_kp(x),
        be.from_kp(x, 0.5),
        be.from_kp(a, square=True),
        be.from_kp(x, eps=1e-4, perturb=5e-5, rng=rng),
        be.from_kp(x, weights=rng.uniform(1.0, 3.0, size=5)),
    ]
    for enc in encodings:
        _assert_dilates_block(enc)


def test_product_and_complement_blocks_in_closed_form():
    rng = np.random.default_rng(13)
    for d in (3, 8):
        u = be.encode(rng.normal(size=(d, d)))
        v = be.amplify(be.encode(rng.normal(size=(d, d)) / (2 * d), alpha=1.0), 1e-6)
        w = be.product(u, v)
        assert np.array_equal(w.block(), u.block() @ v.block())
        for inner in (u, w, be.compact(w)):
            comp = be.complement(inner)
            assert np.array_equal(comp.block(), complement_matrix(inner.block()))
            assert _no_negative_zeros(comp.block())


def _count_calls(monkeypatch, module, name):
    """Wrap module.name (and every blockenc alias of it) with a call counter."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("blockenc") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_from_kp_completes_no_unitary(monkeypatch):
    null_space = _count_calls(monkeypatch, scipy.linalg, "null_space")
    dilation = _count_calls(monkeypatch, linalg, "unitary_dilation")
    rng = np.random.default_rng(14)
    x = rng.normal(size=(16, 6))
    be.from_kp(x)
    assert len(null_space) == 0
    be.from_kp(x, 0.5)
    assert len(null_space) == 0
    be.from_kp(x, weights=rng.uniform(1.0, 4.0, size=16))
    assert len(null_space) == 0
    assert not dilation


def _kp_encodings(rng, m_rows, n_cols):
    """(encoding, used dimension) for every KP constructor on a random m x n input."""
    x = rng.normal(size=(m_rows, n_cols))
    x[0] = 0.0  # a zero row takes the tail-only state
    w = rng.uniform(1.0, 4.0, size=m_rows)
    used = m_rows + n_cols
    out = [
        (be.from_kp(x), used),
        (be.from_kp(x, 0.5), used),
        (be.from_kp(x, weights=w), used),
        (be.from_kp(x, 0.5, weights=w), used),
    ]
    if m_rows == n_cols:
        out += [
            (be.from_kp(x, square=True), m_rows),
            (be.from_kp(x, 0.5, square=True), m_rows),
        ]
    return out


def test_from_kp_padding_is_exactly_zero():
    rng = np.random.default_rng(16)
    for m_rows, n_cols in ((16, 6), (5, 3), (7, 7), (12, 12), (24, 20)):
        for enc, used in _kp_encodings(rng, m_rows, n_cols):
            block = enc.block()
            assert enc.system_dim > used
            assert not np.any(block[used:, :])
            assert not np.any(block[:, used:])
            assert _no_negative_zeros(block)
            assert enc.measured_error() <= 1e-12


def test_kp_state_families_are_unit_states():
    # the rows of P and the columns of F are whole states, so U_R and U_L are isometries
    rng = np.random.default_rng(18)
    x = rng.normal(size=(5, 5))
    x[0] = 0.0
    scale = np.sqrt(rng.uniform(0.25, 1.0, size=5))[:, None]
    frob_rows, frob_cols = be._kp_families(x, None)[:2]
    p_rows, p_cols = be._kp_families(x, 0.5)[:2]
    tables = [
        (be._kp_states_complement(scale * frob_rows, frob_cols), 10),
        (be._kp_states_complement(scale * p_rows, p_cols), 10),
        (be._kp_states_square(frob_rows, frob_cols), 5),
        (be._kp_states_square(p_rows, p_cols), 5),
    ]
    for (psi, phi, _), used in tables:
        assert np.allclose(np.linalg.norm(psi[:used], axis=1), 1.0, atol=1e-14)
        assert np.allclose(np.linalg.norm(phi[:, :used], axis=0), 1.0, atol=1e-14)


def test_from_kp_at_the_capacity_cap(monkeypatch):
    monkeypatch.delenv("BLOCKENC_MAX_QUBITS", raising=False)
    # 32 x 32: the complement register is 128^2 = 2^14, exactly the default cap
    rng = np.random.default_rng(17)
    a = rng.normal(size=(32, 32))
    tracemalloc.start()
    try:
        enc = be.from_kp(a)
        assert enc.verify()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert enc.system_dim * 2**enc.ancillas == max_dim()
    assert peak < 16 * 2**20
    # 64 x 64 is the first square size past the cap (256^2 = 2^16)
    with pytest.raises(CapacityError):
        be.from_kp(rng.normal(size=(64, 64)))


def test_composition_chain_dilates_nothing(monkeypatch):
    dilation = _count_calls(monkeypatch, linalg, "unitary_dilation")
    rng = np.random.default_rng(15)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    # singular values in [1/4, 1/2], so the complement of the square has |spectrum| in [1/16, 1/4]
    u = be.encode(q * rng.uniform(0.5, 1.0, size=6) / 2.0, alpha=1.0)
    amp = be.amplify(u, 1e-12)
    chain = be.compact(be.complement(be.product(amp, amp)))
    out = hamsim.negative_power(chain, 0.5, 32.0, 1e-3)
    assert out.verify()
    assert not dilation


def test_encode_and_qls_solve_decompose_once(monkeypatch):
    eigh = _count_calls(monkeypatch, np.linalg, "eigh")
    eigvalsh = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    svd = _count_calls(monkeypatch, np.linalg, "svd")
    norms = _count_calls(monkeypatch, linalg, "spectral_norm")
    rng = np.random.default_rng(18)
    h = linalg.hermitianize(random_hermitian_spectrum(rng, 16, 8.0, signed=True))
    enc = be.encode(h, alpha=1.0)
    assert (len(eigh), len(svd), len(norms)) == (1, 0, 0)
    b = random_state(rng, 16)
    res = qls_solve(enc, b, kappa=8.0, eps=1e-3)
    assert len(eigh) == 1 and not eigvalsh
    exact = linalg.normalize(np.linalg.solve(h, b))
    assert abs(np.vdot(res.state, exact)) >= 1.0 - 1e-3


def test_eigh_is_cached_read_only_and_not_carried_over(monkeypatch):
    eigh = _count_calls(monkeypatch, np.linalg, "eigh")
    rng = np.random.default_rng(19)
    u = be.encode(linalg.hermitianize(rng.normal(size=(5, 5))))
    w, v = u.eigh()
    assert u.eigh()[0] is w and len(eigh) == 1
    assert not w.flags.writeable and not v.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0
    half = u.rescaled(2.0)
    assert np.allclose(half.eigh()[0], w / 2.0, rtol=0.0, atol=1e-15)
    assert half.eigh()[0] is not w and len(eigh) == 2
    for other in (be.compact(u), replace(u, target=None)):
        assert np.array_equal(other.eigh()[0], w) and other.eigh()[0] is not w
    assert len(eigh) == 4
    # a non-Hermitian block is decomposed through its Hermitian part
    skew = be.encode(rng.normal(size=(5, 5)))
    w_ref, v_ref = np.linalg.eigh(linalg.hermitianize(skew.applied()))
    assert np.array_equal(skew.eigh()[0], w_ref) and np.array_equal(skew.eigh()[1], v_ref)
