import math

import numpy as np
import pytest

from blockenc.encoding import from_kp
from blockenc.errors import IndexRangeError, ZeroVectorError
from blockenc.kptree import KPTree


def test_insert_single_entry():
    tree = KPTree(1, 2)
    tree.insert(0, 0, -2.0)
    assert tree.row_trees[0].leaf(0) == 4.0
    assert tree.signs[0][0] == -1.0
    assert tree.row_trees[0].root == 4.0
    assert tree.frobenius_sq == 4.0


def test_insert_accumulates():
    tree = KPTree(1, 2)
    tree.insert(0, 0, 3.0).insert(0, 1, 4.0)
    assert tree.row_trees[0].root == 25.0


def test_insert_overwrite():
    tree = KPTree(1, 2)
    tree.insert(0, 0, 3.0)
    root = tree.row_trees[0].root
    tree.insert(0, 0, 0.0)
    assert tree.row_trees[0].root == root - 9.0


def test_insert_out_of_range():
    with pytest.raises(IndexRangeError):
        KPTree(2, 2).insert(2, 0, 1.0)


def test_insert_touch_budget():
    rng = np.random.default_rng(0)
    for rows, cols in [(1, 2), (3, 5), (8, 8), (6, 16)]:
        tree = KPTree(rows, cols)
        budget = math.ceil(math.log2(cols)) + math.ceil(math.log2(rows)) + 2
        for _ in range(50):
            i = int(rng.integers(rows))
            j = int(rng.integers(cols))
            tree.insert(i, j, float(rng.normal()))
            assert tree.last_insert_touches <= budget


def test_internal_sums_invariant():
    rng = np.random.default_rng(1)
    tree = KPTree(5, 7)
    for _ in range(200):
        tree.insert(int(rng.integers(5)), int(rng.integers(7)), float(rng.normal()))
    for i in range(5):
        assert abs(tree.row_trees[i].leaves(7).sum() - tree.row_trees[i].root) < 1e-12
        assert abs(tree.top.leaf(i) - tree.row_trees[i].root) < 1e-12
    m = tree.to_matrix()
    assert abs(tree.frobenius_sq - np.sum(m**2)) < 1e-12


def test_row_prep_amplitudes():
    tree = KPTree.from_matrix(np.array([[3.0, 4.0]]))
    assert np.allclose(tree.row_amplitudes(0), [0.6, 0.8])


def test_row_norm_prep():
    tree = KPTree.from_matrix(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert np.allclose(tree.row_norm_amplitudes(), [1 / math.sqrt(5), 2 / math.sqrt(5)])


def test_zero_row_error():
    tree = KPTree.from_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ZeroVectorError):
        tree.row_amplitudes(0)


def test_prep_matches_direct_normalization():
    rng = np.random.default_rng(2)
    for _ in range(10):
        rows, cols = rng.integers(2, 17, size=2)
        a = rng.normal(size=(rows, cols))
        tree = KPTree.from_matrix(a)
        for i in range(rows):
            assert np.allclose(tree.row_amplitudes(i), a[i] / np.linalg.norm(a[i]), atol=1e-10)
        norms = np.linalg.norm(a, axis=1)
        assert np.allclose(tree.row_norm_amplitudes(), norms / np.linalg.norm(norms), atol=1e-10)


def test_vector_state():
    assert np.allclose(KPTree.from_matrix(np.array([1.0, 0.0])).vector_state(), [1, 0])
    assert np.allclose(
        KPTree.from_matrix(np.ones(4)).vector_state(), np.full(4, 0.5)
    )
    assert np.allclose(
        KPTree.from_matrix(np.array([1.0, -2.0, 2.0])).vector_state(),
        [1 / 3, -2 / 3, 2 / 3],
    )
    with pytest.raises(ZeroVectorError):
        KPTree.from_matrix(np.zeros(3)).vector_state()


# mu is read off the tree roots and is the alpha of the KP encoding
def test_mu_frobenius():
    assert abs(from_kp(np.eye(2)).alpha - math.sqrt(2)) < 1e-12


def test_mu_p_identity():
    assert abs(from_kp(np.eye(2), 0.5).alpha - 1.0) < 1e-12


def test_mu_p_ones():
    assert abs(from_kp(np.ones((2, 2)), 0.5).alpha - 2.0) < 1e-12
