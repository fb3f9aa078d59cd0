"""Output checks of the benchmark, computed apart from the program.

Each check returns a list of failure strings (empty = passed), so a run can
report every broken property at once.  The symbolic checks rebuild the
elimination tree and the column counts with a plain column-merge symbolic
elimination written here, not with ``repro.symbolic``; the run checks test
bounds every correct schedule must respect, computed from the tree's fronts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp


def check_permutation(perm: np.ndarray, n: int) -> List[str]:
    """The ordering must list every variable exactly once."""
    perm = np.asarray(perm)
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        return [f"ordering is not a permutation of 0..{n - 1}"]
    return []


def plain_symbolic_elimination(A: sp.spmatrix, perm: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Elimination-tree parents and Cholesky column counts of ``A + Aᵀ``
    permuted by ``perm``, by explicit symbolic elimination.

    Column j's structure below the diagonal is the union of the permuted
    matrix's column j below the diagonal and of its children's structures
    (minus j itself); its parent is the smallest row of that structure.
    """
    A = sp.csr_matrix(A)
    B = (abs(A) + abs(A.T)).tocsr()
    B = B[perm][:, perm].tocsc()
    B.sort_indices()
    n = B.shape[0]
    parent = np.full(n, -1, dtype=np.int64)
    cc = np.ones(n, dtype=np.int64)
    pending: Dict[int, List[np.ndarray]] = {}
    for j in range(n):
        col = B.indices[B.indptr[j]:B.indptr[j + 1]]
        parts = [col[col > j]]
        for child in pending.pop(j, ()):
            parts.append(child[child > j])
        struct = np.unique(np.concatenate(parts))
        cc[j] += len(struct)
        if len(struct):
            p = int(struct[0])
            parent[j] = p
            pending.setdefault(p, []).append(struct)
    return parent, cc


def check_symbolic(
    A: sp.spmatrix,
    perm: np.ndarray,
    parent: np.ndarray,
    cc: np.ndarray,
    factor_entries: int,
) -> List[str]:
    """The program's etree and column counts on its final ordering must match
    the plain elimination, and the tree's factor storage must hold at least
    Σ column counts (amalgamation only adds explicit zeros)."""
    n = A.shape[0]
    fails = check_permutation(perm, n)
    if fails:
        return fails
    ref_parent, ref_cc = plain_symbolic_elimination(A, perm)
    if not np.array_equal(np.asarray(parent), ref_parent):
        bad = int(np.flatnonzero(np.asarray(parent) != ref_parent)[0])
        fails.append(f"etree parent[{bad}] = {parent[bad]}, elimination gives {ref_parent[bad]}")
    if not np.array_equal(np.asarray(cc), ref_cc):
        bad = int(np.flatnonzero(np.asarray(cc) != ref_cc)[0])
        fails.append(f"column count cc[{bad}] = {cc[bad]}, elimination gives {ref_cc[bad]}")
    if factor_entries < int(ref_cc.sum()):
        fails.append(f"factor entries {factor_entries} < sum of column counts {int(ref_cc.sum())}")
    return fails


def check_tree(tree, n: int) -> List[str]:
    """The fronts' pivots partition the n variables, and the parent/child
    links agree with each other."""
    fails = []
    npiv = sum(f.npiv for f in tree)
    if npiv != n:
        fails.append(f"{tree.name}: fronts' pivots sum to {npiv}, matrix order is {n}")
    for f in tree:
        if f.parent != -1 and f.id not in tree[f.parent].children:
            fails.append(f"{tree.name}: front {f.id} missing from its parent's children")
            break
    return fails


def same_tree(a, b) -> bool:
    """Two assembly trees with identical fronts (shape, sizes, links)."""
    return len(a) == len(b) and all(
        (fa.npiv, fa.nfront, fa.parent, list(fa.children))
        == (fb.npiv, fb.nfront, fb.parent, list(fb.children))
        for fa, fb in zip(a, b)
    )


def master_critical_path_s(tree, node_type: Dict, nprocs: int, proc_speed: float) -> float:
    """Lower bound on any makespan: the costliest leaf-to-root chain, where a
    type-2 front costs its master part and the type-3 root its flops spread
    over every process."""
    from repro.mapping.types import NodeType

    chain: Dict[int, float] = {}
    best = 0.0
    stack = [(fid, False) for fid in tree.roots]
    while stack:
        fid, expanded = stack.pop()
        f = tree[fid]
        if not expanded:
            stack.append((fid, True))
            stack.extend((c, False) for c in f.children)
            continue
        t = node_type[fid]
        if t is NodeType.TYPE2:
            own = f.flops_master
        elif t is NodeType.TYPE3:
            own = f.flops / nprocs
        else:
            own = f.flops
        chain[fid] = own + max((chain[c] for c in f.children), default=0.0)
        best = max(best, chain[fid])
    return best / proc_speed


def check_run(result, tree, mapping, proc_speed: float, fault_free: bool) -> List[str]:
    """Properties every finished run must have, whatever the schedule."""
    from repro.mapping.types import NodeType

    label = result.summary().split(":")[0]
    fails = []
    flops = float(sum(f.flops for f in tree))
    work_bound = flops / (result.nprocs * proc_speed)
    if result.factorization_time < work_bound * (1 - 1e-9):
        fails.append(f"{label}: makespan {result.factorization_time} under the work bound {work_bound}")
    cp = master_critical_path_s(tree, mapping.node_type, result.nprocs, proc_speed)
    if result.factorization_time < cp * (1 - 1e-9):
        fails.append(f"{label}: makespan {result.factorization_time} under the critical path {cp}")
    busy = float(np.sum(result.busy_time))
    if busy < flops / proc_speed * (1 - 1e-9):
        fails.append(f"{label}: busy time {busy} under total flops / speed {flops / proc_speed}")
    type2 = sum(1 for t in mapping.node_type.values() if t is NodeType.TYPE2)
    if result.decisions != type2:
        fails.append(f"{label}: {result.decisions} decisions for {type2} type-2 fronts")
    if fault_free and result.mechanism == "snapshot":
        if result.snapshot_count != result.decisions:
            fails.append(f"{label}: {result.snapshot_count} snapshots for {result.decisions} decisions")
        if result.mean_view_error_workload != 0.0:
            fails.append(f"{label}: snapshot view error {result.mean_view_error_workload} != 0")
    return fails


def check_reservations(final_loads: Sequence[float], committed: Sequence[float], survivors: Sequence[int]) -> List[str]:
    """Each surviving rank's own workload equals the reservations committed to it."""
    return [
        f"rank {r} ends with workload {final_loads[r]} but was committed {committed[r]}"
        for r in survivors
        if abs(final_loads[r] - committed[r]) > 1e-9 * max(1.0, abs(committed[r]))
    ]
