"""Quantum-accessible data structure: binary trees of squared entries with signs.

Each of the M rows gets a full binary tree over N leaves storing
(value^2, sign); internal nodes hold subtree sums, so the root of row tree i
is ||A_{i,.}||^2.  A top-level tree over M leaves stores the row trees' roots,
its root being ||A||_F^2.  Trees are implicit arrays in heap layout sized to
the next power of two, so every update touches one root-to-leaf path.

The supported usage pattern is build-then-freeze: a single writer inserts
entries, after which reads are safe concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, IndexRangeError, ZeroVectorError


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


class _SumTree:
    """Implicit-array binary tree; leaf k sits at index capacity + k."""

    __slots__ = ("capacity", "nodes")

    def __init__(self, n_leaves: int):
        self.capacity = _next_pow2(max(1, n_leaves))
        self.nodes = np.zeros(2 * self.capacity)

    @property
    def root(self) -> float:
        return float(self.nodes[1])

    def leaf(self, k: int) -> float:
        return float(self.nodes[self.capacity + k])

    def leaves(self, n: int) -> np.ndarray:
        return self.nodes[self.capacity : self.capacity + n].copy()

    def set_leaf(self, k: int, value: float) -> int:
        """Overwrite leaf k, updating the path to the root; returns nodes touched."""
        idx = self.capacity + k
        delta = value - self.nodes[idx]
        touched = 0
        while idx >= 1:
            self.nodes[idx] += delta
            touched += 1
            idx //= 2
        return touched


class KPTree:
    """Per-row binary trees of squared magnitudes plus a top-level row-norm tree."""

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise DimensionError(f"tree dimensions must be positive, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.row_trees = [_SumTree(cols) for _ in range(rows)]
        self.signs = [np.ones(cols) for _ in range(rows)]
        self.top = _SumTree(rows)
        self.node_touches = 0
        self.last_insert_touches = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_matrix(cls, a) -> "KPTree":
        m = np.asarray(a, dtype=float)
        if m.ndim == 1:
            m = m.reshape(-1, 1)
        tree = cls(m.shape[0], m.shape[1])
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                if m[i, j] != 0.0:
                    tree.insert(i, j, m[i, j])
        return tree

    def insert(self, i: int, j: int, value: float) -> "KPTree":
        """Store entry (i, j); overwriting subtracts the old value along both paths.

        Touches at most ceil(log2 N) + ceil(log2 M) + 2 nodes.
        """
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexRangeError(f"index ({i}, {j}) out of range for {self.rows}x{self.cols}")
        touched = self.row_trees[i].set_leaf(j, float(value) ** 2)
        self.signs[i][j] = 1.0 if value >= 0 else -1.0
        touched += self.top.set_leaf(i, self.row_trees[i].root)
        self.node_touches += touched
        self.last_insert_touches = touched
        return self

    # -- queries -----------------------------------------------------------

    @property
    def frobenius_sq(self) -> float:
        return self.top.root

    def row_norm_sq(self, i: int) -> float:
        return self.row_trees[i].root

    def row_amplitudes(self, i: int) -> np.ndarray:
        """Signed normalized row state sum_j A_ij |j> / ||A_i||  (the U-tilde target)."""
        if not 0 <= i < self.rows:
            raise IndexRangeError(f"row {i} out of range")
        nrm2 = self.row_trees[i].root
        if nrm2 <= 0.0:
            raise ZeroVectorError(f"row {i} is all-zero; state preparation undefined")
        return self.signs[i][: self.cols] * np.sqrt(self.row_trees[i].leaves(self.cols) / nrm2)

    def row_norm_amplitudes(self) -> np.ndarray:
        """Row-norm state sum_i ||A_i|| |i> / ||A||_F  (the V-tilde target)."""
        total = self.top.root
        if total <= 0.0:
            raise ZeroVectorError("all entries are zero; state preparation undefined")
        return np.sqrt(self.top.leaves(self.rows) / total)

    def vector_state(self) -> np.ndarray:
        """For an M x 1 tree, the signed state sum_i v_i |i> / ||v||."""
        if self.cols != 1:
            raise DimensionError("vector_state requires an M x 1 tree")
        total = self.top.root
        if total <= 0.0:
            raise ZeroVectorError("zero vector cannot be prepared as a state")
        signs = np.array([self.signs[i][0] for i in range(self.rows)])
        return signs * np.sqrt(self.top.leaves(self.rows) / total)

    def to_matrix(self) -> np.ndarray:
        """Reconstruct the stored matrix (testing and oracle verification)."""
        out = np.zeros((self.rows, self.cols))
        for i in range(self.rows):
            out[i] = self.signs[i][: self.cols] * np.sqrt(self.row_trees[i].leaves(self.cols))
        return out


def signed_power(a, p: float) -> np.ndarray:
    """sign(A) * |A|^p entrywise; the sign rides on the first factor by convention."""
    m = np.asarray(a, dtype=float)
    return np.sign(m) * np.abs(m) ** p


def abs_power(a, p: float) -> np.ndarray:
    return np.abs(np.asarray(a, dtype=float)) ** p


def power_trees(a, p: float) -> tuple[KPTree, KPTree]:
    """The two trees of the mu_p input model: sign(A)|A|^p and (|A|^(1-p))^T."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return KPTree.from_matrix(signed_power(a, p)), KPTree.from_matrix(abs_power(a, 1.0 - p).T)

