"""The repository benchmark: one workload per run, every metric by name.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table4-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans and no
profiler; its times are scaled to a reference host speed (hostspeed.py).
``--trace 1`` is the separate traced run: it records spans around the
program's public calls, runs the symbolic steps one by one, adds a cProfile
pass, and prints the per-layer metrics together with its own overhead
against an untraced round.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Set-up is repeated this many times per run (caches emptied in between)
#: and its median reported, so one slow repetition does not move setup_s.
SETUP_REPEATS = 3
#: Probe slices taken after the imports and after each set-up repetition.
SETUP_PROBE_SLICES = 15


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure whole rounds until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import the program from the checkout's ``src`` (no install step)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    return workloads


def clear_program_caches() -> None:
    from repro.matrices import collection
    from repro.symbolic import clear_cache

    collection.get.cache_clear()
    clear_cache()


def set_up(wl, recorder=None, probe=None):
    """Repeated cold set-up; the last repetition runs under ``recorder``,
    and ``probe`` samples the host speed after each repetition."""
    times = []
    for i in range(SETUP_REPEATS):
        clear_program_caches()
        traced = recorder is not None and i == SETUP_REPEATS - 1
        if traced:
            install_spans(recorder)
        t0 = time.perf_counter()
        try:
            wl.prepare()
        finally:
            if traced:
                recorder.restore()
        times.append(time.perf_counter() - t0)
        if probe is not None:
            probe.sample(SETUP_PROBE_SLICES)
    return statistics.median(times)


def timed_round(wl, metrics=True, probe=None):
    """One round and its host time, less the time spent probing."""
    t0 = time.perf_counter()
    rnd = wl.run_round(metrics, probe)
    return rnd, time.perf_counter() - t0 - (probe.spent if probe else 0.0)


# ------------------------------------------------------------------ checks

def check_runs(runs) -> list:
    """Benchmark checks plus the program's own validator on every run."""
    from checks import check_run, check_tree

    from repro.mapping import compute_mapping
    from repro.matrices import collection
    from repro.solver.validate import validate_result

    fails = []
    seen_trees = set()
    for run in runs:
        if run.error is not None:
            fails.append(f"{run.tree_name} P={run.nprocs}: {type(run.error).__name__}")
            continue
        tree = run.tree
        if id(tree) not in seen_trees:
            seen_trees.add(id(tree))
            fails += check_tree(tree, collection.get(run.tree_name).order)
        cfg = run.config
        mapping = compute_mapping(tree, run.nprocs, cfg.mapping)
        fails += check_run(run.result, tree, mapping, cfg.proc_speed, cfg.fault_plan is None)
        report = validate_result(run.result, tree, mapping, proc_speed=cfg.proc_speed)
        fails += [f"{run.result.summary()}: {f}" for f in report.failures]
    return fails


def check_text(wl, text: str) -> list:
    missing = [name for name in wl.problems if name not in text]
    return [f"rendered tables lack {missing}"] if missing else []


# ------------------------------------------------------- end-to-end metrics

def end_to_end(setup_s, wall_s, runs):
    ok = [r.result for r in runs if r.result is not None]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "sim_makespan_sum_s": (sum(r.factorization_time for r in ok), "sim_s"),
        "state_messages": (sum(r.state_messages for r in ok), "count"),
        "sim_peak_active_sum": (sum(r.peak_active_memory for r in ok), "entries"),
    }


# ------------------------------------------------------- per-layer metrics

def install_spans(recorder, decisions=None):
    """Wrap the public calls of every layer the workloads reach."""
    import repro.experiments.report as report
    import repro.experiments.robustness as robustness
    import repro.experiments.runner as runner_mod
    import repro.obs.registry as registry
    import repro.solver.driver as solver_driver
    import repro.symbolic.driver as symbolic_driver
    import workloads
    from repro.matrices import collection

    def count_decisions(mapping):
        if decisions is not None:
            decisions.append(mapping.n_decisions)

    recorder.patch(collection, "get", "matrices.get")
    recorder.patch(symbolic_driver, "analyze_problem", "symbolic.analyze_problem")
    recorder.patch(solver_driver, "analyze_problem", "symbolic.analyze_problem")
    recorder.patch(solver_driver, "compute_mapping", "mapping.compute_mapping",
                   on_result=count_decisions)
    recorder.patch(runner_mod, "run_factorization", "solver.run_factorization")
    recorder.patch(robustness, "run_factorization", "solver.run_factorization")
    recorder.patch(runner_mod.ExperimentRunner, "run", "experiments.ExperimentRunner.run")
    recorder.patch(registry.MetricsRegistry, "to_dict", "obs.MetricsRegistry.to_dict")
    recorder.patch(report.TableResult, "render", "experiments.render")
    recorder.patch(workloads, "side_by_side", "experiments.side_by_side")


def stepwise_analysis(recorder, names):
    """Run analyze_matrix's steps one by one, as it runs them, under spans;
    return each matrix's tree and the independent symbolic check failures."""
    from checks import check_symbolic

    from repro.matrices import collection
    from repro.symbolic import (
        AnalysisParams,
        AssemblyTree,
        column_counts,
        compute_ordering,
        elimination_tree,
        fundamental_supernodes,
        permute_symmetric,
        postorder,
        relaxed_amalgamation,
        symmetrize_pattern,
    )

    params = AnalysisParams()
    trees, fails = {}, []
    for name in names:
        problem = collection.get(name)
        with recorder.span("symbolic.order"):
            B = symmetrize_pattern(problem.matrix)
            perm = compute_ordering(B, params.ordering, leaf_size=params.nd_leaf_size)
        with recorder.span("symbolic.etree"):
            parent = elimination_tree(permute_symmetric(B, perm))
            perm2 = perm[postorder(parent)]
            Bp2 = permute_symmetric(B, perm2)
            parent2 = elimination_tree(Bp2)
        with recorder.span("symbolic.colcounts"):
            cc = column_counts(Bp2, parent2)
        with recorder.span("symbolic.supernodes"):
            snodes = relaxed_amalgamation(
                fundamental_supernodes(parent2, cc),
                small_child=params.amalg_small_child,
                fill_tolerance=params.amalg_fill_tolerance,
                max_npiv=params.amalg_max_npiv,
            )
            tree = AssemblyTree.from_supernodes(snodes, sym=problem.sym, name=name)
        trees[name] = tree
        fails += [f"{name}: {f}" for f in
                  check_symbolic(problem.matrix, perm2, parent2, cc, tree.total_factor_entries)]
    return trees, fails


def state_types():
    """Payload type names of the mechanisms' state messages."""
    import repro.mechanisms.messages as messages

    return {
        cls.TYPE for cls in vars(messages).values()
        if isinstance(cls, type) and isinstance(getattr(cls, "TYPE", None), str)
    }


def per_layer(recorder, decisions, trees, runs, prof_split, untraced_s, traced_s, obs_cost_s):
    from repro.experiments.robustness import recovery_messages

    ok = [r for r in runs if r.result is not None]
    res = [r.result for r in ok]
    faulty = [r.result for r in ok if r.config.fault_plan is not None]
    stypes = state_types()
    run_s = recorder.get_self("solver.run_factorization")
    events = sum(r.events_executed for r in res)
    exports = [r.metrics for r in res if r.metrics is not None]
    rec = [r.recovery_stats or {} for r in faulty]
    with_decisions = [r for r in res if r.decisions]
    m = {
        "matrices.build_s": (recorder.get_total("matrices.get"), "s"),
        "symbolic.order_s": (recorder.get_total("symbolic.order"), "s"),
        "symbolic.etree_s": (recorder.get_total("symbolic.etree"), "s"),
        "symbolic.colcounts_s": (recorder.get_total("symbolic.colcounts"), "s"),
        "symbolic.supernodes_s": (recorder.get_total("symbolic.supernodes"), "s"),
        "symbolic.analyze_s": (recorder.get_total("symbolic.analyze_problem"), "s"),
        "symbolic.fronts": (sum(len(t) for t in trees.values()), "count"),
        "symbolic.factor_entries": (sum(t.total_factor_entries for t in trees.values()), "entries"),
        "mapping.compute_s": (recorder.get_total("mapping.compute_mapping"), "s"),
        "mapping.decisions": (sum(decisions), "count"),
        "solver.run_s": (run_s, "s"),
        "solver.utilization": (
            statistics.mean(float(r.busy_time.sum()) / (r.nprocs * r.factorization_time)
                            for r in res) if res else 0.0, "ratio"),
        "simcore.events": (events, "count"),
        "simcore.events_per_s": (events / run_s if run_s > 0 else 0.0, "1/s"),
        "simcore.data_messages": (sum(r.data_messages for r in res), "count"),
        "simcore.state_bytes": (sum(n for r in res for t, n in r.bytes_by_type.items()
                                    if t in stypes), "bytes"),
        "mechanisms.decisions": (sum(r.decisions for r in res), "count"),
        "mechanisms.snapshots": (sum(r.snapshot_count for r in res), "count"),
        "mechanisms.snapshot_union_sim_s": (sum(r.snapshot_union_time for r in res), "sim_s"),
        "mechanisms.view_error_workload": (
            statistics.mean(r.mean_view_error_workload for r in with_decisions)
            if with_decisions else 0.0, "ratio"),
        "faults.dropped": (sum((r.fault_stats or {}).get("dropped", 0) for r in faulty), "count"),
        "faults.repair_messages": (sum(recovery_messages(r) for r in faulty), "count"),
        "faults.false_suspicions": (sum(s.get("false_suspicions", 0) for s in rec), "count"),
        "faults.downtime_sim_s": (sum(sum(s.get("rank_downtime_seconds", {}).values())
                                      for s in rec), "sim_s"),
        "faults.sim_makespan_sum_s": (sum(r.factorization_time for r in faulty), "sim_s"),
        "faults.state_messages": (sum(r.state_messages for r in faulty), "count"),
        "obs.families": (max((len(e["families"]) for e in exports), default=0), "count"),
        "obs.export_bytes": (sum(len(json.dumps(e)) for e in exports), "bytes"),
        "obs.export_s": (recorder.get_total("obs.MetricsRegistry.to_dict"), "s"),
        "obs.cost_s": (obs_cost_s, "s"),
        "experiments.runner_overhead_s": (recorder.get_self("experiments.ExperimentRunner.run"), "s"),
        "experiments.render_s": (recorder.get_self("experiments.render")
                                 + recorder.get_self("experiments.side_by_side"), "s"),
        "trace.untraced_wall_s": (untraced_s, "s"),
        "trace.traced_wall_s": (traced_s, "s"),
        "trace.overhead_pct": (100.0 * (traced_s - untraced_s) / untraced_s, "%"),
    }
    for pkg, secs in prof_split.items():
        m[f"prof.{pkg}_self_s"] = (secs, "s")
    return m


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    import_s = time.perf_counter() - PROCESS_T0
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    fails = []
    attempted = failed = 0

    if not args.trace:
        from hostspeed import HostProbe

        # End-to-end times are scaled to the reference host speed (see
        # hostspeed.py): the host drifts more than a run can average out.
        probe = HostProbe()
        probe.sample(SETUP_PROBE_SLICES)
        setup_s = (import_s + set_up(wl, probe=probe)) * probe.scale()
        walls = []
        start = time.perf_counter()
        while True:
            # Free the previous round first, so peak_rss_mib does not
            # depend on how many rounds fit in --seconds.
            rnd = None
            probe = HostProbe()
            rnd, wall = timed_round(wl, probe=probe)
            walls.append(wall * probe.scale())
            attempted += rnd.attempted
            failed += rnd.failed
            if time.perf_counter() - start >= args.seconds:
                break
        fails += rnd.failures + check_runs(rnd.runs) + check_text(wl, rnd.text)
        metrics = end_to_end(setup_s, statistics.median(walls), rnd.runs)
    else:
        from checks import same_tree
        from spans import SpanRecorder, profile_self_time

        from repro.symbolic.driver import cached_tree

        recorder = SpanRecorder()
        decisions = []
        set_up(wl, recorder)
        trees, sym_fails = stepwise_analysis(recorder, wl.problems)
        fails += sym_fails
        plain, untraced_s = timed_round(wl)
        rounds = [plain]
        obs_cost_s = 0.0
        if isinstance(wl, workloads.FaultsMetrics):
            # Right after the metrics-on round, so both see the same heap.
            off, off_s = timed_round(wl, metrics=False)
            rounds.append(off)
            obs_cost_s = untraced_s - off_s
        install_spans(recorder, decisions)
        try:
            rnd, traced_s = timed_round(wl)
        finally:
            recorder.restore()
        fails += [f"{name}: step-by-step analysis differs from analyze_problem"
                  for name, tree in trees.items() if not same_tree(tree, cached_tree(name))]
        rounds.append(rnd)
        profiled = []
        prof_split = profile_self_time(lambda: profiled.append(wl.run_round()))
        rounds += profiled
        for r in rounds:
            attempted += r.attempted
            failed += r.failed
        fails += rnd.failures + check_runs(rnd.runs) + check_text(wl, rnd.text)
        metrics = per_layer(recorder, decisions, trees, rnd.runs, prof_split,
                            untraced_s, traced_s, obs_cost_s)

    for f in fails:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    out = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
