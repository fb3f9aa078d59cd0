"""Tests of the benchmark itself: its checks reject wrong outputs, and a
shortened run of every workload goes to its end.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from checks import (  # noqa: E402
    check_permutation,
    check_reservations,
    check_run,
    check_symbolic,
    check_tree,
    plain_symbolic_elimination,
)

from repro.mapping import compute_mapping  # noqa: E402
from repro.matrices import collection  # noqa: E402
from repro.solver.driver import run_factorization  # noqa: E402
from repro.symbolic import (  # noqa: E402
    analyze_problem,
    column_counts,
    elimination_tree,
    permute_symmetric,
    symmetrize_pattern,
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def grid_matrix(k: int = 6) -> sp.csr_matrix:
    """5-point Laplacian pattern of a k x k grid."""
    one = sp.diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(k, k))
    return (sp.kron(one, sp.eye(k)) + sp.kron(sp.eye(k), one)).tocsr()


# ------------------------------------------------------------ symbolic checks

def program_symbolic(A, perm):
    B = permute_symmetric(symmetrize_pattern(A), perm)
    parent = elimination_tree(B)
    return parent, column_counts(B, parent)


def test_plain_elimination_matches_program_on_a_grid():
    A = grid_matrix()
    perm = np.random.default_rng(3).permutation(A.shape[0])
    parent, cc = program_symbolic(A, perm)
    ref_parent, ref_cc = plain_symbolic_elimination(A, perm)
    assert np.array_equal(parent, ref_parent)
    assert np.array_equal(cc, ref_cc)
    assert check_symbolic(A, perm, parent, cc, int(cc.sum())) == []


def test_symbolic_check_rejects_perturbed_column_count():
    A = grid_matrix()
    perm = np.arange(A.shape[0])
    parent, cc = program_symbolic(A, perm)
    cc = cc.copy()
    cc[5] += 1
    fails = check_symbolic(A, perm, parent, cc, int(cc.sum()))
    assert any("column count cc[5]" in f for f in fails)


def test_symbolic_check_rejects_wrong_parent_and_short_factor():
    A = grid_matrix()
    perm = np.arange(A.shape[0])
    parent, cc = program_symbolic(A, perm)
    parent = parent.copy()
    parent[0] = parent[0] + 1
    fails = check_symbolic(A, perm, parent, cc, int(cc.sum()) - 1)
    assert any("etree parent[0]" in f for f in fails)
    assert any("factor entries" in f for f in fails)


def test_permutation_check_rejects_repeats():
    assert check_permutation(np.array([0, 2, 1]), 3) == []
    assert check_permutation(np.array([0, 1, 1]), 3) != []
    assert check_permutation(np.array([0, 1]), 3) != []


def test_tree_check_rejects_wrong_order():
    tree = analyze_problem(collection.get("TWOTONE"))
    n = collection.get("TWOTONE").order
    assert check_tree(tree, n) == []
    assert check_tree(tree, n + 1) != []


# ----------------------------------------------------------------- run checks

@pytest.fixture(scope="module")
def snapshot_run():
    problem = collection.get("TWOTONE")
    tree = analyze_problem(problem)
    result = run_factorization(problem, 8, "snapshot", "workload")
    return result, tree, compute_mapping(tree, 8)


def test_run_check_accepts_a_real_run(snapshot_run):
    result, tree, mapping = snapshot_run
    assert check_run(result, tree, mapping, 1e9, fault_free=True) == []


def test_run_check_rejects_makespan_under_work_bound(snapshot_run):
    result, tree, mapping = snapshot_run
    bound = tree.total_flops / (8 * 1e9)
    fails = check_run(replace(result, factorization_time=bound / 2), tree, mapping, 1e9, True)
    assert any("work bound" in f for f in fails)


def test_run_check_rejects_snapshot_view_error(snapshot_run):
    result, tree, mapping = snapshot_run
    wrong = replace(result, decision_log=SimpleNamespace(mean_error_workload=0.25))
    fails = check_run(wrong, tree, mapping, 1e9, True)
    assert any("view error" in f for f in fails)


def test_run_check_rejects_miscounted_decisions_and_snapshots(snapshot_run):
    result, tree, mapping = snapshot_run
    fails = check_run(replace(result, snapshot_count=result.decisions + 1), tree, mapping, 1e9, True)
    assert any("snapshots for" in f for f in fails)
    fails = check_run(replace(result, decisions=result.decisions - 1), tree, mapping, 1e9, True)
    assert any("type-2 fronts" in f for f in fails)


def test_run_check_rejects_idle_busy_time(snapshot_run):
    result, tree, mapping = snapshot_run
    fails = check_run(replace(result, busy_time=result.busy_time * 0.01), tree, mapping, 1e9, True)
    assert any("busy time" in f for f in fails)


def test_reservation_check():
    assert check_reservations([0.0, 30.0], [0.0, 30.0], [0, 1]) == []
    assert check_reservations([0.0, 0.0], [0.0, 30.0], [0, 1]) == [
        "rank 1 ends with workload 0.0 but was committed 30.0"
    ]


def test_snapshot_crash_example_still_fails():
    from workloads import snapshot_crash_example

    assert snapshot_crash_example() == [
        "rank 1 ends with workload 0.0 but was committed 30.0"
    ]


def test_host_probe_allocates_nothing_the_collector_tracks():
    import gc

    from hostspeed import REFERENCE_S, HostProbe, probe_slice

    before = gc.get_count()[0]
    probe_slice()
    assert gc.get_count()[0] == before
    probe = HostProbe()
    probe.sample(5)
    assert len(probe.samples) == 5 and probe.spent >= sum(probe.samples)
    assert probe.scale() == pytest.approx(REFERENCE_S / sorted(probe.samples)[2])


# ------------------------------------------------------- whole-benchmark runs

def run_bench(cwd, workload, trace, seed=3):
    cmd = list(BENCHMARK["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
    ]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_one_round_of_each_workload(workload):
    out = last_json(run_bench(ROOT, workload, trace=0))
    assert out["correct"] is True
    assert out["attempted"] >= 1
    expected_failed = 1 if workload == "faults-metrics" else 0
    assert out["failed"] == expected_failed
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    out = last_json(run_bench(ROOT, "faults-metrics", trace=1))
    assert out["correct"] is True
    # Four rounds (untraced, metrics off, traced, profiled), one failure each.
    assert out["failed"] * 68 == out["attempted"]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["faults.dropped"] > 0 and m["obs.families"] > 0
    assert m["simcore.events"] > 0 and m["prof.simcore_self_s"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "table4-cold", trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
