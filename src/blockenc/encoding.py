"""Block-encodings: the encoded block with (alpha, ancillas, epsilon) metadata.

A unitary U is an (alpha, a, epsilon)-block-encoding of A when
||A - alpha (<0|^a x I) U (|0>^a x I)|| <= epsilon.  The full register is
ordered ancilla (x) system, so the encoded block is the top-left
system_dim x system_dim corner of U.  That corner is all the definition
constrains and all any construction reads, so it is what an encoding stores:
each constructor writes its block in closed form (a product of blocks, the
symmetrized block, the Gram matrix of two state families, ...).  The
d * 2^a register of U is simulated, not allocated; `unitary` builds a
1-ancilla unitary with the same block on request.

Encodings may carry a claimed target matrix; verification mode measures the
block-extraction error against it.  All values are immutable after
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .capacity import check_dim
from .errors import DimensionError, NormError, PreconditionError, SparsityError
from .kptree import KPTree, MuParams, mu_of
from .ledger import CostLedger
from .linalg import (
    as_matrix,
    as_state,
    complement_matrix,
    embed,
    spectral_norm,
    unitary_dilation,
)

_FP_SLACK = 1e-10


@dataclass(frozen=True)
class BlockEncoding:
    """(alpha, ancillas, epsilon)-block-encoding stored as its block, plus a ledger.

    `corner` is the block (<0|^a x I) U (|0>^a x I), a system_dim x system_dim
    array.  `ancillas` sizes the simulated register system_dim * 2^ancillas,
    which the capacity cap bounds even though no array of that size exists.
    """

    corner: np.ndarray
    alpha: float
    ancillas: int
    epsilon: float
    system_dim: int
    ledger: CostLedger
    target: np.ndarray | None = None

    def __post_init__(self):
        check_dim(self.system_dim << self.ancillas, "block-encoding")
        if self.corner.shape != (self.system_dim, self.system_dim):
            raise DimensionError(
                f"block of shape {self.corner.shape} is not square of the "
                f"system dimension {self.system_dim}"
            )
        if self.alpha < 0 or self.epsilon < 0:
            raise ValueError("alpha and epsilon must be non-negative")
        if self.target is not None and self.target.shape != (self.system_dim, self.system_dim):
            raise DimensionError("claimed target must be square of the system dimension")

    def block(self) -> np.ndarray:
        """The encoded block (<0|^a x I) U (|0>^a x I)."""
        return self.corner

    @property
    def unitary(self) -> np.ndarray:
        """The 1-ancilla dilation of the block, built on each access.

        It has the same block as the `ancillas`-ancilla circuit the encoding
        stands for, on a register of 2 system_dim instead.
        """
        return unitary_dilation(self.corner)

    def applied(self) -> np.ndarray:
        """alpha * block: the matrix this encoding effectively stands for."""
        return self.alpha * self.block()

    def measured_error(self) -> float:
        """||target - alpha * block||; requires an attached target."""
        if self.target is None:
            raise ValueError("no claimed target attached")
        return spectral_norm(self.target - self.applied())

    def verify(self) -> bool:
        return self.measured_error() <= self.epsilon + _FP_SLACK * (1.0 + self.alpha)

    def claiming(self, target, epsilon: float) -> "BlockEncoding":
        """Attach a (new) claimed target and declared error."""
        return replace(self, target=as_matrix(target), epsilon=float(epsilon))

    def rescaled(self, s: float) -> "BlockEncoding":
        """Reinterpret as an (alpha/s, a, epsilon/s)-encoding of target/s."""
        if s <= 0:
            raise ValueError("scale must be positive")
        tgt = None if self.target is None else self.target / s
        return replace(self, alpha=self.alpha / s, epsilon=self.epsilon / s, target=tgt)


def encode(a, alpha: float | None = None, oracle: str = "dense") -> BlockEncoding:
    """Exact (alpha, 1, 0)-encoding of a square matrix: the block is A / alpha."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionError("encode expects a square matrix; embed rectangular inputs first")
    nrm = spectral_norm(m)
    if alpha is None:
        alpha = max(nrm, 1e-300)
    if alpha < nrm - 1e-12:
        raise NormError(f"alpha = {alpha} is smaller than ||A|| = {nrm}")
    return BlockEncoding(
        corner=m / alpha,
        alpha=float(alpha),
        ancillas=1,
        epsilon=0.0,
        system_dim=m.shape[0],
        ledger=CostLedger.single(oracle),
        target=m,
    )


def product(u: BlockEncoding, v: BlockEncoding) -> BlockEncoding:
    """Encoding of AB as (I_b x U)(I_a x V): (alpha*beta, a+b, alpha*eps_v + beta*eps_u)."""
    if u.system_dim != v.system_dim:
        raise DimensionError(
            f"system dimensions differ: {u.system_dim} vs {v.system_dim}"
        )
    target = None
    if u.target is not None and v.target is not None:
        target = u.target @ v.target
    return BlockEncoding(
        corner=u.corner @ v.corner,
        alpha=u.alpha * v.alpha,
        ancillas=u.ancillas + v.ancillas,
        epsilon=u.alpha * v.epsilon + v.alpha * u.epsilon,
        system_dim=u.system_dim,
        ledger=(u.ledger + v.ledger).with_gates(1.0),
        target=target,
    )


def amplify(u: BlockEncoding, gamma: float) -> BlockEncoding:
    """Uniform block-amplification to a (sqrt(2), a+1, eps+gamma)-encoding.

    Requires alpha >= 1 and ||A|| <= 1.  The ledger is charged
    O(alpha log(1/gamma)) uses of the input encoding.
    """
    if gamma <= 0:
        raise PreconditionError("amplification accuracy gamma must be positive")
    if u.alpha < 1.0 - 1e-12:
        raise PreconditionError(f"amplification requires alpha >= 1, got {u.alpha}")
    if u.target is not None and spectral_norm(u.target) > 1.0 + 1e-9:
        raise NormError("uniform block-amplification requires ||A|| <= 1")
    block = u.applied() / math.sqrt(2.0)
    nrm = spectral_norm(block)
    if nrm > 1.0:
        block = block / nrm * min(nrm, 1.0)  # rounding guard; encoded matrix norm <= 1 + eps
    rounds = max(1.0, u.alpha * math.log2(1.0 / gamma))
    return BlockEncoding(
        corner=block,
        alpha=math.sqrt(2.0),
        ancillas=u.ancillas + 1,
        epsilon=u.epsilon + gamma,
        system_dim=u.system_dim,
        ledger=u.ledger.scaled(rounds).with_gates(u.ancillas * rounds),
        target=u.target,
    )


def preamplified_product(u: BlockEncoding, v: BlockEncoding, gamma: float) -> BlockEncoding:
    """Product of pre-amplified encodings: (2, a+b+2, sqrt(2)(eps_u+eps_v+gamma))."""
    if gamma <= 0:
        raise PreconditionError("preamplified product requires gamma > 0 (log(1/gamma) diverges)")
    w = product(amplify(u, gamma / 2.0), amplify(v, gamma / 2.0))
    return replace(w, epsilon=math.sqrt(2.0) * (u.epsilon + v.epsilon + gamma))


def complement(u: BlockEncoding) -> BlockEncoding:
    """Encoding of the symmetrized [[0, A], [A^dagger, 0]] via cU^dagger (X) cU.

    Its block is [[0, B], [B^dagger, 0]] for the block B of u.
    """
    target = None if u.target is None else complement_matrix(u.target)
    return BlockEncoding(
        # + 0.0 turns the -0.0 imaginary parts that conj() leaves into +0.0
        corner=complement_matrix(u.corner) + 0.0,
        alpha=u.alpha,
        ancillas=u.ancillas + 1,
        epsilon=u.epsilon,
        system_dim=2 * u.system_dim,
        ledger=u.ledger.scaled(2.0).with_gates(1.0),
        target=target,
    )


def lcu(encodings: list[BlockEncoding], coeffs) -> BlockEncoding:
    """Linear combination sum_j c_j A_j with alpha' = sum |c_j| alpha_j.

    Coefficient signs are folded into the select unitary; the index register
    adds ceil(log2(count)) ancillas on top of the widest input.
    """
    if not encodings:
        raise DimensionError("lcu requires at least one encoding")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (len(encodings),) or not np.all(np.isfinite(coeffs)):
        raise ValueError("need one finite coefficient per encoding")
    d = encodings[0].system_dim
    if any(e.system_dim != d for e in encodings):
        raise DimensionError("all encodings must share the system dimension")
    alpha = float(np.sum(np.abs(coeffs) * [e.alpha for e in encodings]))
    if alpha <= 0:
        raise ValueError("lcu normalization sum |c_j| alpha_j must be positive")
    combo = sum(c * e.applied() for c, e in zip(coeffs, encodings)) / alpha
    nrm = spectral_norm(combo)
    if nrm > 1.0:
        combo = combo / nrm  # rounding guard only; the exact combination has norm <= 1
    ancillas = max(e.ancillas for e in encodings) + math.ceil(math.log2(max(len(encodings), 1)))
    ancillas = max(ancillas, 1)
    target = None
    if all(e.target is not None for e in encodings):
        target = sum(c * e.target for c, e in zip(coeffs, encodings))
    ledger = CostLedger()
    for e in encodings:
        ledger = ledger + e.ledger
    return BlockEncoding(
        corner=combo,
        alpha=alpha,
        ancillas=ancillas,
        epsilon=float(np.sum(np.abs(coeffs) * [e.epsilon for e in encodings])),
        system_dim=d,
        ledger=ledger.with_gates(len(encodings)),
        target=target,
    )


def restrict(u: BlockEncoding, dim: int) -> BlockEncoding:
    """Encoding of the top-left dim x dim corner of the encoded matrix.

    Valid whenever the claimed target is supported on that corner (e.g. a
    padded matrix); the corner of the block keeps the same error bound.
    """
    if dim > u.system_dim:
        raise DimensionError("restriction cannot enlarge the system")
    block = u.block()[:dim, :dim]
    nrm = spectral_norm(block)
    if nrm > 1.0:
        block = block / nrm
    target = None if u.target is None else u.target[:dim, :dim]
    return BlockEncoding(
        corner=block,
        alpha=u.alpha,
        ancillas=1,
        epsilon=u.epsilon,
        system_dim=dim,
        ledger=u.ledger,
        target=target,
    )


def compact(u: BlockEncoding) -> BlockEncoding:
    """The same block as a 1-ancilla encoding (its 1-ancilla dilation).

    Metadata (alpha, epsilon, ledger, target) is preserved; only the simulated
    register is compressed.  Deep pipelines use this between stages to stay
    inside the qubit budget.
    """
    block = u.block()
    nrm = spectral_norm(block)
    if nrm > 1.0:
        block = block / nrm
    return replace(u, corner=block, ancillas=1)


def sparse_oracles(a: np.ndarray):
    """Row, column and entry oracles over a dense matrix, plus its row and column sparsities.

    The oracles follow the `from_sparse_access` conventions.
    """
    rows, cols = a.shape

    def entry(i, j):
        return a[i, j]

    def row_oracle(i, k):
        nz = np.nonzero(a[i])[0]
        return int(nz[k]) if k < len(nz) else cols + k

    def col_oracle(j, k):
        nz = np.nonzero(a[:, j])[0]
        return int(nz[k]) if k < len(nz) else rows + k

    s_row = int(np.count_nonzero(a, axis=1).max(initial=1))
    s_col = int(np.count_nonzero(a, axis=0).max(initial=1))
    return row_oracle, col_oracle, entry, max(s_row, 1), max(s_col, 1)


def from_sparse_access(
    row_oracle,
    col_oracle,
    entry_oracle,
    shape: tuple[int, int],
    s_row: int,
    s_col: int,
    eps: float = 0.0,
) -> BlockEncoding:
    """(sqrt(s_row * s_col), 1, eps)-encoding from sparse-access oracles.

    row_oracle(i, k) returns the column of the k-th nonzero of row i, or
    cols + k when the row has fewer nonzeros; col_oracle is the transpose
    analogue; entry_oracle(i, j) returns the entry.  Entries must lie in
    [-1, 1] and the declared sparsities must hold.
    """
    rows, cols = shape
    a = np.zeros((rows, cols), dtype=complex)
    for i in range(rows):
        for k in range(s_row):
            j = int(row_oracle(i, k))
            if j >= cols:
                continue
            a[i, j] = entry_oracle(i, j)
    nnz_row = np.count_nonzero(a, axis=1)
    nnz_col = np.count_nonzero(a, axis=0)
    if np.any(nnz_row > s_row):
        raise SparsityError(f"a row has more than s_row = {s_row} nonzeros")
    if np.any(nnz_col > s_col):
        raise SparsityError(f"a column has more than s_col = {s_col} nonzeros")
    for j in range(cols):
        listed = {int(col_oracle(j, k)) for k in range(s_col)}
        actual = {int(i) for i in np.nonzero(a[:, j])[0]}
        if not actual <= listed:
            raise SparsityError(f"column oracle for column {j} misses nonzero rows")
    if np.max(np.abs(a), initial=0.0) > 1.0 + 1e-12:
        raise NormError("sparse-access entries must lie in [-1, 1]")
    alpha = math.sqrt(s_row * s_col)
    d = max(rows, cols)
    a_pad = embed(a, d)
    ledger = CostLedger(
        {"sparse_row": 1.0, "sparse_col": 1.0, "sparse_entry": 1.0},
        gates=math.log2(max(rows * cols, 2) / max(eps, 1e-15)) ** 2,
    )
    return BlockEncoding(
        corner=a_pad / alpha,
        alpha=alpha,
        ancillas=1,
        epsilon=float(eps),
        system_dim=d,
        ledger=ledger,
        target=a_pad,
    )


def from_kp(
    mode: str = "frobenius",
    tree: KPTree | None = None,
    tree_p: KPTree | None = None,
    tree_q: KPTree | None = None,
    p: float | None = None,
    eps: float = 0.0,
    square: bool = False,
    perturb: float = 0.0,
    rng=None,
) -> tuple[BlockEncoding, MuParams]:
    """(mu, ceil(log(N+M+1)), eps)-encoding of [[0, A], [A^dag, 0]] from KP trees.

    Built as U_R^dagger U_L from the row/column state families psi_j, phi_k
    whose pairwise inner products reproduce the symmetrized matrix over mu.
    The block of U_R^dagger U_L is their Gram matrix <psi_j|phi_k>, so no
    unitary is completed.  With square=True the encoding targets A itself (the
    construction is the same with single-index state families); A must then
    be stored padded square.

    `perturb` rotates the row family by exp(i perturb G / mu) for a random
    real symmetric G of unit norm, standing in for the state-preparation
    discretization error; the encoded matrix mu * block moves by at most
    perturb, which must stay below eps.
    """
    mu = mu_of(mode, tree=tree, tree_p=tree_p, tree_q=tree_q, p=p)
    base = tree if mode == "frobenius" else tree_p
    m_rows, n_cols = base.rows, base.cols
    if mode != "frobenius" and (tree_q.rows, tree_q.cols) != (n_cols, m_rows):
        raise DimensionError("companion tree must store the transposed power matrix")
    if perturb > eps + 1e-15:
        raise PreconditionError("injected perturbation exceeds the declared epsilon")

    if square:
        if m_rows != n_cols:
            raise DimensionError("square mode requires a square stored matrix")
        psi, phi, q_dim = _kp_states_square(mode, tree, tree_p, tree_q, m_rows, n_cols)
        target_small = base.to_matrix() if mode == "frobenius" else _kp_target(tree_p, tree_q)
    else:
        psi, phi, q_dim = _kp_states_complement(mode, tree, tree_p, tree_q, m_rows, n_cols)
        small = base.to_matrix() if mode == "frobenius" else _kp_target(tree_p, tree_q)
        target_small = complement_matrix(small)

    check_dim(q_dim * q_dim, "kp encoding")
    _pad_state_families(psi, phi, q_dim)
    rows = np.column_stack(psi)
    if perturb > 0.0:
        if rng is None:
            rng = np.random.default_rng(0)
        gen = rng.normal(size=(q_dim, q_dim))
        gen = gen + gen.T
        gen = gen / spectral_norm(gen)
        rows = rows @ scipy.linalg.expm(1j * (perturb / mu.value) * gen)
    ledger = CostLedger(
        {"kp_row_prep": 1.0, "kp_norm_prep": 1.0},
        gates=math.log2(max(m_rows * n_cols, 2) / max(eps, 1e-15)) ** 2,
    )
    encoding = BlockEncoding(
        corner=rows.conj().T @ np.column_stack(phi),
        alpha=mu.value,
        ancillas=int(round(math.log2(q_dim))),
        epsilon=float(eps),
        system_dim=q_dim,
        ledger=ledger,
        target=embed(target_small, q_dim),
    )
    return encoding, mu


def _kp_target(tree_p: KPTree, tree_q: KPTree) -> np.ndarray:
    """Reconstruct A from its power trees: sign|A|^p entrywise-times |A|^(1-p)."""
    return tree_p.to_matrix() * tree_q.to_matrix().T


def from_kp_weighted(
    weights,
    mode: str = "frobenius",
    tree: KPTree | None = None,
    tree_p: KPTree | None = None,
    tree_q: KPTree | None = None,
    p: float | None = None,
    eps: float = 0.0,
) -> tuple[BlockEncoding, float]:
    """Encoding of the symmetrized sqrt(W) X from trees storing X plus stored weights.

    The row states pick up an extra sqrt(w_j / w_max) scaling (absorbed into
    the tail weight), so the normalization becomes sqrt(w_max) mu(X).
    Weights must satisfy w_j >= 1.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 1.0 - 1e-12):
        raise PreconditionError("stored weights must satisfy w_j >= 1")
    mu = mu_of(mode, tree=tree, tree_p=tree_p, tree_q=tree_q, p=p)
    base = tree if mode == "frobenius" else tree_p
    if w.shape != (base.rows,):
        raise DimensionError("need one weight per stored row")
    w_max = float(w.max())
    row_scale = np.sqrt(w / w_max)
    psi, phi, q_dim = _kp_states_complement(
        mode, tree, tree_p, tree_q, base.rows, base.cols, row_scale=row_scale
    )
    check_dim(q_dim * q_dim, "kp encoding")
    small = base.to_matrix() if mode == "frobenius" else _kp_target(tree_p, tree_q)
    target_small = complement_matrix(np.sqrt(w)[:, None] * small)
    _pad_state_families(psi, phi, q_dim)
    alpha = math.sqrt(w_max) * mu.value
    ledger = CostLedger(
        {"kp_row_prep": 1.0, "kp_norm_prep": 1.0, "weight_oracle": 1.0},
        gates=math.log2(max(base.rows * base.cols, 2) / max(eps, 1e-15)) ** 2,
    )
    encoding = BlockEncoding(
        corner=np.column_stack(psi).conj().T @ np.column_stack(phi),
        alpha=alpha,
        ancillas=int(round(math.log2(q_dim))),
        epsilon=float(eps),
        system_dim=q_dim,
        ledger=ledger,
        target=embed(target_small, q_dim),
    )
    return encoding, alpha


def _kp_states_complement(mode, tree, tree_p, tree_q, m_rows, n_cols, row_scale=None):
    size = m_rows + n_cols
    q_dim = 1 << math.ceil(math.log2(size + 1))
    slot = size  # overflow coordinate for tail weight
    dim = q_dim * q_dim
    scale = np.ones(m_rows) if row_scale is None else np.asarray(row_scale, dtype=float)

    def basis(sys: int, anc: int) -> int:
        return anc * q_dim + sys

    psi = [np.zeros(dim, dtype=complex) for _ in range(q_dim)]
    phi = [np.zeros(dim, dtype=complex) for _ in range(q_dim)]

    if mode == "frobenius":
        row_norm = np.sqrt([tree.row_norm_sq(i) for i in range(m_rows)])
        for j in range(m_rows):
            if row_norm[j] == 0.0:
                psi[j][basis(j, slot)] = 1.0
                phi[j][basis(slot, j)] = 1.0
                continue
            amps = scale[j] * tree.row_amplitudes(j)
            tail = math.sqrt(max(0.0, 1.0 - scale[j] ** 2))
            for k in range(n_cols):
                psi[j][basis(j, m_rows + k)] = amps[k]
                phi[j][basis(m_rows + k, j)] = amps[k]
            psi[j][basis(j, slot)] = tail
            phi[j][basis(slot, j)] = tail
        norm_amps = tree.row_norm_amplitudes()
        for k in range(n_cols):
            for j in range(m_rows):
                psi[m_rows + k][basis(m_rows + k, j)] = norm_amps[j]
                phi[m_rows + k][basis(j, m_rows + k)] = norm_amps[j]
    else:
        s2p = max(tree_p.row_norm_sq(i) for i in range(tree_p.rows))
        s2q = max(tree_q.row_norm_sq(i) for i in range(tree_q.rows))
        for j in range(m_rows):
            leaves = tree_p.row_trees[j].leaves(n_cols)
            signs = tree_p.signs[j][:n_cols]
            amps = scale[j] * signs * np.sqrt(leaves / s2p)
            tail = math.sqrt(max(0.0, 1.0 - scale[j] ** 2 * leaves.sum() / s2p))
            for k in range(n_cols):
                psi[j][basis(j, m_rows + k)] = amps[k]
                phi[j][basis(m_rows + k, j)] = amps[k]
            psi[j][basis(j, slot)] = tail
            phi[j][basis(slot, j)] = tail
        for k in range(n_cols):
            leaves = tree_q.row_trees[k].leaves(m_rows)
            amps = np.sqrt(leaves / s2q)
            tail = math.sqrt(max(0.0, 1.0 - leaves.sum() / s2q))
            for j in range(m_rows):
                psi[m_rows + k][basis(m_rows + k, j)] = amps[j]
                phi[m_rows + k][basis(j, m_rows + k)] = amps[j]
            psi[m_rows + k][basis(m_rows + k, slot)] = tail
            phi[m_rows + k][basis(slot, m_rows + k)] = tail
    return psi, phi, q_dim


def _kp_states_square(mode, tree, tree_p, tree_q, m_rows, n_cols):
    q_dim = 1 << math.ceil(math.log2(max(m_rows, n_cols) + 1))
    slot = max(m_rows, n_cols)
    dim = q_dim * q_dim

    def basis(sys: int, anc: int) -> int:
        return anc * q_dim + sys

    psi = [np.zeros(dim, dtype=complex) for _ in range(q_dim)]
    phi = [np.zeros(dim, dtype=complex) for _ in range(q_dim)]

    if mode == "frobenius":
        row_norm = np.sqrt([tree.row_norm_sq(i) for i in range(m_rows)])
        for j in range(m_rows):
            if row_norm[j] == 0.0:
                psi[j][basis(j, slot)] = 1.0
                continue
            amps = tree.row_amplitudes(j)
            for k in range(n_cols):
                psi[j][basis(j, k)] = amps[k]
        norm_amps = tree.row_norm_amplitudes()
        for k in range(n_cols):
            for j in range(m_rows):
                phi[k][basis(j, k)] = norm_amps[j]
    else:
        s2p = max(tree_p.row_norm_sq(i) for i in range(tree_p.rows))
        s2q = max(tree_q.row_norm_sq(i) for i in range(tree_q.rows))
        for j in range(m_rows):
            leaves = tree_p.row_trees[j].leaves(n_cols)
            amps = tree_p.signs[j][:n_cols] * np.sqrt(leaves / s2p)
            tail = math.sqrt(max(0.0, 1.0 - leaves.sum() / s2p))
            for k in range(n_cols):
                psi[j][basis(j, k)] = amps[k]
            psi[j][basis(j, slot)] = tail
        for k in range(n_cols):
            leaves = tree_q.row_trees[k].leaves(m_rows)
            amps = np.sqrt(leaves / s2q)
            tail = math.sqrt(max(0.0, 1.0 - leaves.sum() / s2q))
            for j in range(m_rows):
                phi[k][basis(j, k)] = amps[j]
            phi[k][basis(slot, k)] = tail
    return psi, phi, q_dim


def _pad_state_families(psi, phi, q_dim):
    """Fill unused family slots with vectors orthogonal to both real families.

    Keeps the encoded block close to the padded target: the padding rows and
    columns of the Gram matrix come out zero up to rounding.
    """
    real = [v for v in psi if np.any(v)] + [v for v in phi if np.any(v)]
    missing_psi = [i for i, v in enumerate(psi) if not np.any(v)]
    missing_phi = [i for i, v in enumerate(phi) if not np.any(v)]
    need = len(missing_psi) + len(missing_phi)
    if need == 0:
        return
    stack = np.column_stack(real)
    comp = scipy.linalg.null_space(stack.conj().T)
    if comp.shape[1] < need:
        raise RuntimeError("insufficient orthogonal complement for padding states")
    for k, i in enumerate(missing_psi):
        psi[i] = comp[:, k]
    for k, i in enumerate(missing_phi):
        phi[i] = comp[:, len(missing_psi) + k]


@dataclass(frozen=True)
class StateResult:
    """A prepared state plus the cost of preparing it."""

    state: np.ndarray
    ledger: CostLedger


def apply_to_state(
    u: BlockEncoding,
    b,
    gamma_lower: float,
    eps: float,
    b_cost: CostLedger | None = None,
) -> StateResult:
    """Post-selected application of a block-encoded A (||A|| <= 1) to a state.

    Returns a state within eps of A|b>/||A|b>||.  The encoding error must obey
    epsilon <= eps * gamma_lower / 2, and the measured ||A|b>|| must be at
    least gamma_lower.  The ledger charges
    min(alpha/gamma, (alpha log(1/eps) + 1)/gamma) amplification rounds.
    """
    vec = as_state(b)
    if vec.size != u.system_dim:
        raise DimensionError(f"state dim {vec.size} != system dim {u.system_dim}")
    if gamma_lower <= 0:
        raise PreconditionError("gamma_lower must be positive")
    if u.target is not None and spectral_norm(u.target) > 1.0 + 1e-9:
        raise NormError("apply_to_state requires ||A|| <= 1")
    if u.epsilon > eps * gamma_lower / 2.0 + 1e-15:
        raise PreconditionError(
            f"encoding error {u.epsilon} exceeds eps*gamma/2 = {eps * gamma_lower / 2.0}"
        )
    out = u.applied() @ vec
    nrm = np.linalg.norm(out)
    if nrm < gamma_lower * (1.0 - 1e-9):
        raise PreconditionError(
            f"measured ||A b|| = {nrm} falls below the stated bound {gamma_lower}"
        )
    rounds = min(
        u.alpha / gamma_lower,
        (u.alpha * math.log2(1.0 / max(eps, 1e-15)) + 1.0) / gamma_lower,
    )
    rounds = max(1.0, rounds)
    ledger = u.ledger.scaled(rounds)
    if b_cost is not None:
        ledger = ledger + b_cost.scaled(rounds)
    return StateResult(state=out / nrm, ledger=ledger)
