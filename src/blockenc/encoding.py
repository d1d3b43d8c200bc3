"""Block-encodings: the encoded block with (alpha, ancillas, epsilon) metadata.

A unitary U is an (alpha, a, epsilon)-block-encoding of A when
||A - alpha (<0|^a x I) U (|0>^a x I)|| <= epsilon.  The full register is
ordered ancilla (x) system, so the encoded block is the top-left
system_dim x system_dim corner of U.  That corner is all the definition
constrains and all any construction reads, so it is what an encoding stores:
each constructor writes its block in closed form (a product of blocks, the
symmetrized block, the Gram matrix of two state families, ...).  The
d * 2^a register of U is simulated, not allocated; `unitary` builds a
1-ancilla unitary with the same block on request.  The KP-tree state
families are never materialised either: each Gram entry is one product of
amplitudes, read from two q x q tables, and the unused family slots are
empty, so the padding of a KP block is exact zeros.

Encodings may carry a claimed target matrix; verification mode measures the
block-extraction error against it.  All values are immutable after
construction.  The eigendecomposition of the symmetrized applied block is
computed at most once per encoding (`BlockEncoding.eigh`); the explicit-alpha
check of `encode`, the spectrum checks, the block functions of `hamsim` and
the variable-time solvers all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .capacity import check_dim
from .errors import DimensionError, NormError, PreconditionError, SparsityError
from .kptree import KPTree, power_trees
from .ledger import CostLedger
from .linalg import (
    as_matrix,
    as_state,
    complement_matrix,
    embed,
    hermitianize,
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
    The spectrum of the symmetrized applied block is decomposed on the first
    `eigh()` call and cached; `replace`, `rescaled` and `compact` build new
    encodings, so a cached spectrum never outlives its block.
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

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (w, V) with hermitianize(applied()) = V diag(w) V^dagger."""
        return self._spectrum

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        w, v = np.linalg.eigh(hermitianize(self.applied()))
        w.flags.writeable = False
        v.flags.writeable = False
        return w, v

    def measured_error(self) -> float:
        """||target - alpha * block||; requires an attached target."""
        if self.target is None:
            raise ValueError("no claimed target attached")
        return spectral_norm(self.target - self.applied())

    def verify(self) -> bool:
        return self.measured_error() <= self.epsilon + _FP_SLACK * (1.0 + self.alpha)

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
    # a stated alpha > 0 on an exactly Hermitian input is checked against
    # max |w| of the encoding's own spectrum, which the functional calculus
    # and the solvers read anyway; any other input takes ||A|| from an SVD
    from_spectrum = alpha is not None and alpha > 0 and not np.any(m != m.conj().T)
    if not from_spectrum:
        nrm = spectral_norm(m)
        if alpha is None:
            alpha = max(nrm, 1e-300)
        if alpha < nrm - 1e-12:
            raise NormError(f"alpha = {alpha} is smaller than ||A|| = {nrm}")
    enc = BlockEncoding(
        corner=m / alpha,
        alpha=float(alpha),
        ancillas=1,
        epsilon=0.0,
        system_dim=m.shape[0],
        ledger=CostLedger.single(oracle),
        target=m,
    )
    if from_spectrum:
        nrm = float(np.max(np.abs(enc.eigh()[0])))
        if alpha < nrm - 1e-12:
            raise NormError(f"alpha = {alpha} is smaller than ||A|| = {nrm}")
    return enc


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
    rounds = max(1.0, u.alpha * math.log2(1.0 / gamma))
    return BlockEncoding(
        corner=u.applied() / math.sqrt(2.0),
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


def restrict(u: BlockEncoding, dim: int) -> BlockEncoding:
    """Encoding of the top-left dim x dim corner of the encoded matrix.

    Valid whenever the claimed target is supported on that corner (e.g. a
    padded matrix); the corner of the block keeps the same error bound.
    """
    if dim > u.system_dim:
        raise DimensionError("restriction cannot enlarge the system")
    target = None if u.target is None else u.target[:dim, :dim]
    return BlockEncoding(
        corner=u.block()[:dim, :dim],
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
    return replace(u, ancillas=1)


def from_sparse_access(
    a,
    s_row: int | None = None,
    s_col: int | None = None,
    eps: float = 0.0,
) -> BlockEncoding:
    """(sqrt(s_row * s_col), 1, eps)-encoding of a matrix under sparse access.

    `a` is a dense array or a `scipy.sparse` matrix; it stands for the row,
    column and entry oracles of the sparse-access model.  Entries must lie in
    [-1, 1] and every row (column) may hold at most s_row (s_col) nonzeros.
    A sparsity left as None is the measured one (at least 1).  Stored zeros
    do not count as nonzeros.
    """
    m = scipy.sparse.csr_array(a, dtype=complex, copy=True)
    m.sum_duplicates()
    m.eliminate_zeros()
    rows, cols = m.shape
    nnz_row = np.diff(m.indptr)
    nnz_col = np.diff(m.tocsc().indptr)
    if s_row is None:
        s_row = int(nnz_row.max(initial=1))
    if s_col is None:
        s_col = int(nnz_col.max(initial=1))
    if np.any(nnz_row > s_row):
        raise SparsityError(f"a row has more than s_row = {s_row} nonzeros")
    if np.any(nnz_col > s_col):
        raise SparsityError(f"a column has more than s_col = {s_col} nonzeros")
    if np.abs(m.data).max(initial=0.0) > 1.0 + 1e-12:
        raise NormError("sparse-access entries must lie in [-1, 1]")
    alpha = math.sqrt(s_row * s_col)
    d = max(rows, cols)
    a_pad = np.zeros((d, d), dtype=complex)
    # assigned, not added as in toarray(), so entries keep a -0.0 imaginary part
    coo = m.tocoo()
    a_pad[coo.coords] = coo.data
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
    a,
    p: float | None = None,
    weights=None,
    eps: float = 0.0,
    square: bool = False,
    perturb: float = 0.0,
    rng=None,
) -> BlockEncoding:
    """(mu, ceil(log(N+M+1)), eps)-encoding of [[0, A], [A^dag, 0]] from A stored in KP trees.

    The M x N matrix A is stored in the paper's data structure: one
    `KPTree` of A with mu = ||A||_F when p is None, otherwise the two
    `power_trees(A, p)` with mu = mu_p(A).  mu is read off the tree roots and
    is the encoding's alpha.

    Built as U_R^dagger U_L from the row/column state families psi_j, phi_k
    whose pairwise inner products reproduce the symmetrized matrix over mu.
    The block of U_R^dagger U_L is their Gram matrix <psi_j|phi_k>.  psi_j
    lives on system index j and phi_k on ancilla index k, so the two meet on
    the one basis vector |anc=k, sys=j> and each Gram entry is one product of
    amplitudes: the families are never materialised as q^2-length states,
    only as q x q amplitude tables (see `_kp_states_complement`).
    Unused family slots are empty, so the padding rows and columns of the
    block are exact zeros, as in the padded target.  With square=True the
    encoding targets A itself (the construction is the same with
    single-index state families); A must then be square.

    `weights` (one per row, each >= 1) encodes the symmetrized sqrt(W) A
    instead, for trees that store A and the weights separately: row state j
    picks up an extra sqrt(w_j / w_max), absorbed into its tail, so alpha is
    sqrt(w_max) mu and each use also queries the weight oracle.  Weights
    apply to the symmetrized encoding only, not with square=True.

    `perturb` rotates the row family by exp(i perturb G / alpha) for a random
    real symmetric G of unit norm, standing in for the state-preparation
    discretization error; the encoded matrix alpha * block moves by at most
    perturb, which must stay below eps.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"from_kp stores a matrix, got shape {m.shape}")
    if perturb > eps + 1e-15:
        raise PreconditionError("injected perturbation exceeds the declared epsilon")
    rows, cols, mu, stored = _kp_families(m, p)
    m_rows, n_cols = stored.shape
    alpha = mu
    queries = {"kp_row_prep": 1.0, "kp_norm_prep": 1.0}
    if weights is not None:
        if square:
            raise PreconditionError("weights apply to the symmetrized encoding, not square=True")
        w = np.asarray(weights, dtype=float)
        if np.any(w < 1.0 - 1e-12):
            raise PreconditionError("stored weights must satisfy w_j >= 1")
        if w.shape != (m_rows,):
            raise DimensionError("need one weight per stored row")
        w_max = float(w.max())
        rows = np.sqrt(w / w_max)[:, None] * rows
        stored = np.sqrt(w)[:, None] * stored
        alpha = math.sqrt(w_max) * mu
        queries["weight_oracle"] = 1.0

    if square:
        if m_rows != n_cols:
            raise DimensionError("square mode requires a square stored matrix")
        psi, phi, q_dim = _kp_states_square(rows, cols)
        target = embed(stored, q_dim)
    else:
        psi, phi, q_dim = _kp_states_complement(rows, cols)
        target = embed(complement_matrix(stored), q_dim)

    gram = _gram(psi, phi)
    if perturb > 0.0:
        if rng is None:
            rng = np.random.default_rng(0)
        gen = rng.normal(size=(q_dim, q_dim))
        gen = gen + gen.T
        gen = gen / spectral_norm(gen)
        # (Psi E)^dagger Phi = E^dagger Psi^dagger Phi
        gram = scipy.linalg.expm(1j * (perturb / alpha) * gen).conj().T @ gram
    return BlockEncoding(
        corner=gram,
        alpha=alpha,
        ancillas=int(round(math.log2(q_dim))),
        epsilon=float(eps),
        system_dim=q_dim,
        ledger=CostLedger(
            queries, gates=math.log2(max(m_rows * n_cols, 2) / max(eps, 1e-15)) ** 2
        ),
        target=target,
    )


def _kp_families(a: np.ndarray, p: float | None):
    """Row states, column states, mu and the stored matrix of A's KP input model.

    Row j of `rows` is state j over the N column indices, row k of `cols`
    state k over the M row indices, and their inner product is A_jk / mu.
    With p None, row state j is A_j / ||A_j|| (an all-zero row has none) and
    every column state is the row-norm state ||A_i|| / ||A||_F.  With p, row
    state j is sign(A_j)|A_j|^p / sqrt(s_2p) and column state k is
    |A_.k|^(1-p) / sqrt(s_2(1-p)), where each s is the largest row-tree
    root; mu_p = sqrt(s_2p s_2(1-p)).  Those states may have norm below 1.
    """
    if p is None:
        tree = KPTree.from_matrix(a)
        rows = np.zeros((tree.rows, tree.cols))
        for j in range(tree.rows):
            if tree.row_norm_sq(j) != 0.0:
                rows[j] = tree.row_amplitudes(j)
        cols = np.tile(tree.row_norm_amplitudes(), (tree.cols, 1))
        return rows, cols, float(np.sqrt(tree.frobenius_sq)), tree.to_matrix()
    tree_p, tree_q = power_trees(a, p)
    s_2p = max(tree_p.row_norm_sq(i) for i in range(tree_p.rows))
    s_2q = max(tree_q.row_norm_sq(i) for i in range(tree_q.rows))
    mu = float(np.sqrt(s_2p * s_2q))
    stored = tree_p.to_matrix() * tree_q.to_matrix().T
    return _tree_rows(tree_p, s_2p), _tree_rows(tree_q, s_2q), mu, stored


def _tree_rows(tree: KPTree, norm_sq: float) -> np.ndarray:
    """The signed rows of the stored matrix over sqrt(norm_sq)."""
    leaves = np.array([t.leaves(tree.cols) for t in tree.row_trees])
    return np.array(tree.signs) * np.sqrt(leaves / norm_sq)


def _tails(states: np.ndarray) -> np.ndarray:
    """Amplitude on a spare slot that makes each row of `states` a unit vector."""
    return np.sqrt(np.maximum(0.0, 1.0 - np.sum(states**2, axis=1)))


def _gram(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """<psi_j|phi_k> from the amplitude tables of the `_kp_states_*` builders."""
    # + 0.0 turns the -0.0 imaginary parts that conj() leaves into +0.0
    return psi.conj() * phi + 0.0


def _kp_register(used: int) -> int:
    """Side q of the q^2-dim register of state families over `used` indices and a tail slot."""
    q_dim = 1 << math.ceil(math.log2(used + 1))
    check_dim(q_dim * q_dim, "kp encoding")
    return q_dim


def _kp_states_complement(rows: np.ndarray, cols: np.ndarray):
    """Amplitude tables (P, F) of the complement state families, and q.

    The families live on the q^2-dim register |anc, sys>: psi_j on system
    index j, phi_k on ancilla index k.  P[j, k] is psi_j's amplitude on
    |anc=k, sys=j> and F[j, k] is phi_k's, the only basis vector the two
    share, so <psi_j|phi_k> = conj(P[j, k]) F[j, k].  Row j of P holds all
    of psi_j and column k of F all of phi_k, so the tables are the families
    without their q^2-length zero padding.  Here phi_k is psi_k with the two
    registers swapped, so F = P^T.  psi_j for j < M carries row state j on
    the ancilla indices M..M+N-1, psi_{M+k} carries column state k on
    0..M-1, and column `slot` holds each state's tail weight; rows and
    columns past it are unused and stay zero.
    """
    m_rows, n_cols = rows.shape
    slot = m_rows + n_cols
    q_dim = _kp_register(slot)
    psi = np.zeros((q_dim, q_dim), dtype=complex)
    psi[:m_rows, m_rows:slot] = rows
    psi[:m_rows, slot] = _tails(rows)
    psi[m_rows:slot, :m_rows] = cols
    psi[m_rows:slot, slot] = _tails(cols)
    return psi, psi.T, q_dim


def _kp_states_square(rows: np.ndarray, cols: np.ndarray):
    """Amplitude tables (P, F) of the single-index state families, and q.

    Same layout as `_kp_states_complement`: P[j, k] and F[j, k] are the
    amplitudes of psi_j and phi_k on |anc=k, sys=j>.  psi_j carries row
    state j (tail at ancilla `slot`), phi_k column state k (tail at system
    `slot`).
    """
    m_rows, n_cols = rows.shape
    slot = max(m_rows, n_cols)
    q_dim = _kp_register(slot)
    psi = np.zeros((q_dim, q_dim), dtype=complex)
    phi = np.zeros((q_dim, q_dim), dtype=complex)
    psi[:m_rows, :n_cols] = rows
    psi[:m_rows, slot] = _tails(rows)
    phi[:m_rows, :n_cols] = cols.T
    phi[slot, :n_cols] = _tails(cols)
    return psi, phi, q_dim


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
