"""The whole-array symbolic kernels equal their per-vertex reference loops.

Nested dissection's BFS level structure, the Fiedler-cut boundary and the
level-set separator thinning are written as whole-array numpy code.  The
per-vertex loops they replace are kept here as oracles: on random graphs
and random vertex subsets the array code must return identical arrays, in
identical order (the orderings, and so every tree, depend on that order).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from repro.symbolic.etree import (
    elimination_tree,
    postorder,
    postordered_parent,
)
from repro.symbolic.graph import adjacency_from_matrix, permute_symmetric
from repro.symbolic.ordering import (
    _bfs_levels,
    _cut_vertices,
    _level_cut,
    _pseudo_peripheral,
)

# ------------------------------------------------------------- oracles


def ref_bfs_levels(adj, start, inset, level):
    levels = [np.array([start], dtype=np.int64)]
    level[start] = 0
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for v in frontier:
            for w in adj.neighbors(v):
                if inset[w] and level[w] == -1:
                    level[w] = depth
                    nxt.append(int(w))
        if nxt:
            levels.append(np.array(nxt, dtype=np.int64))
        frontier = nxt
    return levels


def ref_pseudo_peripheral(adj, vertices, inset, level):
    start = int(vertices[np.argmin([adj.degree(int(v)) for v in
                                    vertices[: min(len(vertices), 64)]])])
    best_depth = -1
    for _ in range(4):
        level[vertices] = -1
        levels = ref_bfs_levels(adj, start, inset, level)
        if len(levels) <= best_depth:
            break
        best_depth = len(levels)
        last = levels[-1]
        degs = np.array([adj.degree(int(v)) for v in last])
        start = int(last[np.argmin(degs)])
    return start


def ref_boundaries(sub, in_b):
    nsub = sub.shape[0]
    indptr, indices = sub.indptr, sub.indices
    boundary_a = np.zeros(nsub, dtype=bool)
    boundary_b = np.zeros(nsub, dtype=bool)
    for u in range(nsub):
        ub = in_b[u]
        for t in range(indptr[u], indptr[u + 1]):
            if in_b[indices[t]] != ub:
                (boundary_b if ub else boundary_a)[u] = True
                break
    return boundary_a, boundary_b


def ref_level_cut(adj, verts, levels, level, inset, is_boundary):
    inset[verts] = True
    for lev in levels[:-1]:
        for v in lev:
            lv = level[v]
            for w in adj.neighbors(int(v)):
                if inset[w] and level[w] == lv + 1:
                    is_boundary[v] = True
                    break
    inset[verts] = False
    sizes = np.array([len(l) for l in levels])
    bsizes = np.array(
        [int(is_boundary[l].sum()) for l in levels[:-1]] + [0]
    )
    csum = np.cumsum(sizes)
    total = csum[-1]
    best, best_score = None, None
    for k in range(1, len(levels) - 1):
        below = csum[k] - bsizes[k]
        above = total - csum[k]
        imbalance = abs(below - above) / total
        score = (bsizes[k] + 1) * (1.0 + 4.0 * imbalance)
        if best_score is None or score < best_score:
            best, best_score = k, score
    return best


# ---------------------------------------------------------- strategies


@st.composite
def graph_and_subset(draw):
    """A random sparse graph (isolated vertices likely), a vertex subset,
    a start vertex in it, and a ``level`` scratch array that is -1 on the
    subset and stale (arbitrary) elsewhere."""
    n = draw(st.integers(1, 48))
    m = draw(st.integers(0, 3 * n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    r = rng.integers(0, n, size=m)
    c = rng.integers(0, n, size=m)
    A = sp.coo_matrix((np.ones(m), (r, c)), shape=(n, n)).tocsr()
    adj = adjacency_from_matrix(A)
    inset = rng.random(n) < draw(st.floats(0.2, 1.0))
    start = draw(st.integers(0, n - 1))
    inset[start] = True
    level = rng.integers(-1, 6, size=n)
    level[inset] = -1
    return adj, inset, start, level


def _same_levels(a, b):
    return len(a) == len(b) and all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b))


# --------------------------------------------------------------- tests


class TestBfsLevels:
    @given(graph_and_subset())
    @settings(max_examples=200, deadline=None)
    def test_equals_reference(self, case):
        adj, inset, start, level = case
        lv_ref = level.copy()
        want = ref_bfs_levels(adj, start, inset, lv_ref)
        got = _bfs_levels(adj, start, inset, level)
        assert _same_levels(got, want)
        assert np.array_equal(level, lv_ref)

    def test_start_without_in_set_neighbours(self):
        # path 0-1-2 with only {0, 2} in the subset: 0 is alone
        A = sp.diags([1.0, 1.0], [-1, 1], shape=(3, 3)).tocsr()
        adj = adjacency_from_matrix(A)
        inset = np.array([True, False, True])
        level = np.full(3, -1)
        levels = _bfs_levels(adj, 0, inset, level)
        assert _same_levels(levels, [np.array([0])])
        assert level.tolist() == [0, -1, -1]

    @given(graph_and_subset())
    @settings(max_examples=100, deadline=None)
    def test_pseudo_peripheral_equals_reference(self, case):
        adj, inset, _start, level = case
        vertices = np.flatnonzero(inset)
        lv_ref = level.copy()
        want = ref_pseudo_peripheral(adj, vertices, inset, lv_ref)
        assert _pseudo_peripheral(adj, vertices, inset, level) == want
        assert np.array_equal(level, lv_ref)


class TestLevelCut:
    @given(graph_and_subset())
    @settings(max_examples=200, deadline=None)
    def test_equals_reference(self, case):
        adj, inset, start, level = case
        levels = _bfs_levels(adj, start, inset, level)
        assume(len(levels) >= 3)
        verts = np.concatenate(levels)
        inset[:] = False  # nested_dissection's state between the passes
        bnd_ref = np.zeros(adj.n, dtype=bool)
        want = ref_level_cut(adj, verts, levels, level, inset.copy(), bnd_ref)
        bnd = np.zeros(adj.n, dtype=bool)
        assert _level_cut(adj, verts, levels, level, inset, bnd) == want
        assert np.array_equal(bnd, bnd_ref)
        assert not inset.any()


class TestCutVertices:
    @given(st.integers(1, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_equals_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(0, 3 * n + 1))
        r = rng.integers(0, n, size=m)
        c = rng.integers(0, n, size=m)
        sub = sp.coo_matrix((np.ones(m), (r, c)), shape=(n, n)).tocsr()
        sub = (sub + sub.T).tocsr()
        sub.setdiag(0)
        sub.eliminate_zeros()
        in_b = rng.random(n) < 0.5
        ref_a, ref_b = ref_boundaries(sub, in_b)
        on_cut = _cut_vertices(sub, in_b)
        assert np.array_equal(on_cut & ~in_b, ref_a)
        assert np.array_equal(on_cut & in_b, ref_b)


class TestPostorderedParent:
    @given(st.integers(1, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_equals_etree_of_postordered_matrix(self, n, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(0, 2 * n + 1))
        r = rng.integers(0, n, size=m)
        c = rng.integers(0, n, size=m)
        A = sp.coo_matrix((np.ones(m), (r, c)), shape=(n, n)) + sp.eye(n)
        A = (A + A.T).tocsr()
        parent = elimination_tree(A)
        post = postorder(parent)
        want = elimination_tree(permute_symmetric(A, post))
        got = postordered_parent(parent, post)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
