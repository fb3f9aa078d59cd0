"""Elimination tree, postorder, and column counts.

Classic symbolic-factorization machinery (Liu's elimination-tree algorithm
with path compression, iterative postorder, row-subtree column counting).
Everything operates on the *permuted* symmetric pattern: entry ``(j, k)``
with ``k < j`` means variables j and k interact before j's elimination.

Complexities: etree O(nnz·α), postorder O(n), column counts O(nnz(A) +
nnz(L)) by row-subtree traversal (each L-entry is visited once), not the
near-linear Gilbert–Ng–Peyton skeleton method — fine at the reproduction's
matrix scales.  The loops run over Python lists and ints (each row's
indices through ``.tolist()``, one row at a time to keep the peak memory
flat), which is several times faster in CPython than indexing numpy arrays
by scalar.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import scipy.sparse as sp


def elimination_tree(A_perm: sp.csr_matrix) -> np.ndarray:
    """Parent array of the elimination tree of a symmetric-pattern matrix.

    ``parent[j] == -1`` marks a root.  Liu's algorithm with ancestor path
    compression.
    """
    A = A_perm.tocsr()
    n = A.shape[0]
    parent = [-1] * n
    ancestor = [-1] * n
    indptr, indices = A.indptr.tolist(), A.indices
    for j in range(n):
        for k in indices[indptr[j]: indptr[j + 1]].tolist():
            if k >= j:
                continue
            # climb from k to the current root, compressing the path to j
            while True:
                a = ancestor[k]
                if a == j:
                    break
                ancestor[k] = j
                if a == -1:
                    parent[k] = j
                    break
                k = a
    return np.array(parent, dtype=np.int64)


def children_lists(parent: np.ndarray) -> List[List[int]]:
    """Children of each node (ordered by node number), roots excluded."""
    ch: List[List[int]] = [[] for _ in range(len(parent))]
    for v, p in enumerate(np.asarray(parent).tolist()):
        if p >= 0:
            ch[p].append(v)
    return ch


def postorder(parent: np.ndarray) -> np.ndarray:
    """A postorder of the forest: children before parents, iterative DFS."""
    n = len(parent)
    ch = children_lists(parent)
    post: List[int] = []
    roots = [v for v, p in enumerate(np.asarray(parent).tolist()) if p == -1]
    for root in roots:
        # iterative DFS emitting on exit
        stack: List[Tuple[int, int]] = [(root, 0)]
        while stack:
            v, ci = stack.pop()
            if ci < len(ch[v]):
                stack.append((v, ci + 1))
                stack.append((ch[v][ci], 0))
            else:
                post.append(v)
    if len(post) != n:
        raise ValueError("parent array is not a forest (cycle detected)")
    return np.array(post, dtype=np.int64)


def postordered_parent(parent: np.ndarray, post: np.ndarray) -> np.ndarray:
    """Elimination tree after relabelling the matrix by the postorder ``post``.

    ``post[k]`` is the old label of new node k.  A postorder is a
    topological order of the etree, and symmetric permutation by any
    topological order yields the same tree, relabelled — so this equals
    ``elimination_tree`` of the postordered matrix without a second pass.
    """
    inv = np.empty(len(post), dtype=np.int64)
    inv[post] = np.arange(len(post))
    old_parent = np.asarray(parent)[post]
    return np.where(old_parent >= 0, inv[old_parent], -1)


def column_counts(A_perm: sp.csr_matrix, parent: np.ndarray) -> np.ndarray:
    """``cc[j]`` = number of nonzeros in column j of the Cholesky factor L
    (diagonal included), by row-subtree traversal.

    For each row i, the columns j < i with L[i, j] ≠ 0 form the "row
    subtree": the union of etree paths from each k (with A[i, k] ≠ 0, k < i)
    up toward i.  Walking those paths with a per-row marker visits each
    L-entry exactly once.
    """
    A = A_perm.tocsr()
    n = A.shape[0]
    cc = [1] * n  # diagonal entries
    mark = [-1] * n
    par = np.asarray(parent).tolist()
    indptr, indices = A.indptr.tolist(), A.indices
    for i in range(n):
        mark[i] = i
        for j in indices[indptr[i]: indptr[i + 1]].tolist():
            while j != -1 and j < i and mark[j] != i:
                cc[j] += 1
                mark[j] = i
                j = par[j]
    return np.array(cc, dtype=np.int64)


def factor_nnz(cc: np.ndarray) -> int:
    """Total nonzeros of L (sum of column counts)."""
    return int(cc.sum())


def tree_depth(parent: np.ndarray) -> int:
    """Height of the elimination forest (longest root-to-leaf path)."""
    n = len(parent)
    depth = np.zeros(n, dtype=np.int64)
    # process in postorder-reverse: parents after children... simplest is to
    # compute by walking up with memoization over a topological order.
    order = postorder(parent)
    best = 0
    for v in order:
        p = parent[v]
        if p >= 0:
            depth[p] = max(depth[p], depth[v] + 1)
        best = max(best, int(depth[v]))
    return best + 1 if n else 0


def validate_etree(A_perm: sp.csr_matrix, parent: np.ndarray) -> bool:
    """Check the defining property: parent[j] = min{i > j : L[i,j] ≠ 0}.

    Used by property-based tests; O(n²) worst-case, test-sized inputs only.
    """
    n = A_perm.shape[0]
    # build L's pattern column-by-column via the row-subtree definition
    cols: List[set] = [set() for _ in range(n)]
    A = A_perm.tocsr()
    for i in range(n):
        for k in A.indices[A.indptr[i]: A.indptr[i + 1]]:
            if k >= i:
                continue
            j = int(k)
            while j < i and i not in cols[j]:
                cols[j].add(i)
                j = int(parent[j])
                if j == -1:
                    break
    for j in range(n):
        below = [i for i in cols[j] if i > j]
        expected = min(below) if below else -1
        if parent[j] != expected:
            return False
    return True
