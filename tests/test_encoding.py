import math
import sys

import numpy as np
import pytest
import scipy.linalg

from blockenc import encoding as be
from blockenc import hamsim, linalg
from blockenc.errors import NormError, PreconditionError, SparsityError
from blockenc.kptree import KPTree, power_trees
from blockenc.linalg import complement_matrix, embed, is_unitary, spectral_norm


def noisy_encoding(a, alpha, eps, rng):
    """Encoding whose true block error is strictly below the declared eps."""
    noise = rng.normal(size=a.shape)
    noise = noise / spectral_norm(noise) * (0.7 * eps)
    return be.encode(a + noise, alpha=alpha + eps).claiming(a, eps)


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

    def entry(i, j):
        return diag[i, j]

    def row(i, k):
        return i if k == 0 else 4 + k

    def col(j, k):
        return j if k == 0 else 4 + k

    enc = be.from_sparse_access(row, col, entry, (4, 4), 1, 1)
    assert enc.alpha == 1.0
    assert spectral_norm(enc.applied() - diag) < 1e-10

    tri = np.zeros((4, 4))
    for i in range(4):
        tri[i, i] = 0.5
        if i > 0:
            tri[i, i - 1] = -0.3
        if i < 3:
            tri[i, i + 1] = 0.2

    def entry_t(i, j):
        return tri[i, j]

    def row_t(i, k):
        nz = np.nonzero(tri[i])[0]
        return int(nz[k]) if k < len(nz) else 4 + k

    def col_t(j, k):
        nz = np.nonzero(tri[:, j])[0]
        return int(nz[k]) if k < len(nz) else 4 + k

    enc = be.from_sparse_access(row_t, col_t, entry_t, (4, 4), 3, 3)
    assert abs(enc.alpha - 3.0) < 1e-12
    assert spectral_norm(enc.block() - tri / 3.0) < 1e-10

    zero = be.from_sparse_access(lambda i, k: 4 + k, lambda j, k: 4 + k,
                                 lambda i, j: 0.0, (4, 4), 1, 1)
    assert spectral_norm(zero.applied()) == 0.0


def test_from_sparse_access_violation():
    dense = np.full((3, 3), 0.3)

    def row(i, k):
        return k if k < 3 else 3 + k

    enc_args = (row, row, lambda i, j: dense[i, j], (3, 3), 1, 1)
    with pytest.raises(SparsityError):
        be.from_sparse_access(*enc_args)


def test_from_kp_identity_modes():
    enc, mu = be.from_kp(mode="frobenius", tree=KPTree.from_matrix(np.eye(2)))
    assert abs(mu.value - math.sqrt(2)) < 1e-12
    target = embed(complement_matrix(np.eye(2)), enc.system_dim)
    assert spectral_norm(enc.block() - target / math.sqrt(2)) < 1e-9

    tp, tq = power_trees(np.eye(2), 0.5)
    enc2, mu2 = be.from_kp(mode="p-norm", tree_p=tp, tree_q=tq, p=0.5)
    assert abs(mu2.value - 1.0) < 1e-12
    target2 = embed(complement_matrix(np.eye(2)), enc2.system_dim)
    assert spectral_norm(enc2.block() - target2) < 1e-9


def test_from_kp_inner_product_structure():
    # <psi_j | phi_{M+k}> = A_{j,k} / mu_p(A), checked entrywise via the block
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 2))
    tp, tq = power_trees(a, 0.5)
    enc, mu = be.from_kp(mode="p-norm", tree_p=tp, tree_q=tq, p=0.5)
    block = enc.block()
    m = 3
    for j in range(3):
        for k in range(2):
            assert abs(block[j, m + k] - a[j, k] / mu.value) < 1e-10
            assert abs(block[m + k, j] - a[j, k] / mu.value) < 1e-10


def test_from_kp_random_both_modes():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.normal(size=(3, 3))
        enc, mu = be.from_kp(mode="frobenius", tree=KPTree.from_matrix(a))
        target = embed(complement_matrix(a), enc.system_dim)
        assert spectral_norm(target / mu.value - enc.block()) < 1e-9
        tp, tq = power_trees(a, 0.5)
        enc2, mu2 = be.from_kp(mode="p-norm", tree_p=tp, tree_q=tq, p=0.5)
        assert spectral_norm(target / mu2.value - enc2.block()) < 1e-9


def test_from_kp_perturbation_respects_eps():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(2, 2))
    enc, mu = be.from_kp(mode="frobenius", tree=KPTree.from_matrix(a), eps=1e-4,
                         perturb=5e-5, rng=rng)
    assert enc.verify()
    with pytest.raises(PreconditionError):
        be.from_kp(mode="frobenius", tree=KPTree.from_matrix(a), eps=1e-6, perturb=1e-4)


def test_lcu_examples():
    e1 = be.encode(np.eye(2), 1.0)
    e2 = be.encode(-np.eye(2), 1.0)
    zero = be.lcu([e1, e2], [0.5, 0.5])
    assert spectral_norm(zero.applied()) < 1e-12
    single = be.lcu([e1], [1.0])
    assert np.allclose(single.applied(), np.eye(2))
    d1 = be.encode(np.diag([1.0, 0.0]), 1.0)
    d2 = be.encode(np.diag([0.0, 1.0]), 1.0)
    both = be.lcu([d1, d2], [1.0, 1.0])
    assert abs(both.alpha - 2.0) < 1e-12
    assert np.allclose(both.applied(), np.eye(2))
    assert both.ancillas == max(d1.ancillas, d2.ancillas) + 1


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
            us.append(be.encode(w + noise, alpha=1.0 + eps).claiming(w, eps))
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
    assert spectral_norm(comp.block() - enc.block()) < 1e-12
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
    tp, tq = power_trees(x, 0.5)
    row, col, ent, s_row, s_col = be.sparse_oracles(np.clip(a / 3.0, -1.0, 1.0))
    unit = be.encode(a / (2.0 * spectral_norm(a)), alpha=1.0)
    comp = be.complement(ea)
    encodings = [
        ea,
        be.product(ea, eb),
        be.amplify(unit, 1e-6),
        be.preamplified_product(unit, unit, 1e-6),
        comp,
        be.lcu([ea, eb], [0.5, -1.5]),
        be.restrict(comp, 4),
        be.compact(be.product(ea, eb)),
        be.from_sparse_access(row, col, ent, (4, 4), s_row, s_col),
        be.from_kp(mode="frobenius", tree=KPTree.from_matrix(x))[0],
        be.from_kp(mode="p-norm", tree_p=tp, tree_q=tq, p=0.5)[0],
        be.from_kp(mode="frobenius", tree=KPTree.from_matrix(a), square=True)[0],
        be.from_kp(mode="frobenius", tree=KPTree.from_matrix(x), eps=1e-4,
                   perturb=5e-5, rng=rng)[0],
        be.from_kp_weighted(rng.uniform(1.0, 3.0, size=5), mode="frobenius",
                            tree=KPTree.from_matrix(x))[0],
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
    tp, tq = power_trees(x, 0.5)
    be.from_kp(mode="frobenius", tree=KPTree.from_matrix(x))
    assert len(null_space) == 1
    be.from_kp(mode="p-norm", tree_p=tp, tree_q=tq, p=0.5)
    assert len(null_space) == 2
    be.from_kp_weighted(rng.uniform(1.0, 4.0, size=16), mode="frobenius",
                        tree=KPTree.from_matrix(x))
    assert len(null_space) == 3
    assert not dilation


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
