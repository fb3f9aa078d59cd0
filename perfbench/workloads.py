"""The benchmark's workloads: what one set-up and one round of each runs.

A round is the unit the benchmark times and repeats.  Every round of a
workload runs exactly the same operations, so the share of failed
operations is the same in every run.  The seed reaches the program as
``SolverConfig.seed`` and as the fault plans' ``seed_salt``; the matrices
themselves are fixed stand-ins (``repro.matrices.collection``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from checks import check_reservations

import repro.experiments.robustness as robustness
import repro.experiments.runner as runner_mod
import repro.symbolic.driver as symbolic_driver
from repro.experiments import tables
from repro.experiments.report import side_by_side
from repro.experiments.runner import ExperimentRunner, ExperimentScale
from repro.matrices import collection
from repro.solver.driver import SolverConfig
from repro.symbolic.tree import AssemblyTree


@dataclass
class Run:
    """One ``run_factorization`` call made during a round."""

    tree_name: str
    tree: Optional[AssemblyTree]
    nprocs: int
    config: SolverConfig
    result: Any = None
    error: Optional[BaseException] = None


@dataclass
class Round:
    runs: List[Run] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Check failures the round itself reports (sweep cells that did not
    #: complete or validate).
    failures: List[str] = field(default_factory=list)
    text: str = ""


class RunCollector:
    """Records every ``run_factorization`` call the experiment layer makes,
    by wrapping the name in the two modules that call it.  With a
    :class:`hostspeed.HostProbe`, the host speed is sampled after each call."""

    MODULES = (runner_mod, robustness)

    def __init__(self, probe=None) -> None:
        self.runs: List[Run] = []
        self.probe = probe
        self._originals = [(m, m.run_factorization) for m in self.MODULES]

    def __enter__(self) -> "RunCollector":
        for module, original in self._originals:
            module.run_factorization = self._wrap(original)
        return self

    def __exit__(self, *exc) -> None:
        for module, original in self._originals:
            module.run_factorization = original

    def _wrap(self, original):
        def run_factorization(problem, nprocs, mechanism="increments", strategy="workload",
                              config=None, **kwargs):
            tree = problem if isinstance(problem, AssemblyTree) else None
            run = Run(problem.name, tree, nprocs, config or SolverConfig())
            self.runs.append(run)
            try:
                run.result = original(problem, nprocs, mechanism, strategy, config, **kwargs)
            except BaseException as exc:
                run.error = exc
                raise
            finally:
                if self.probe is not None:
                    self.probe.sample()
            return run.result

        return run_factorization


class Workload:
    name = ""
    problems: Tuple[str, ...] = ()
    #: Whether set-up analyses the matrices (so rounds find the trees cached).
    analyze_in_setup = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> None:
        """Build (and, for the simulation workloads, analyse) the inputs;
        the caller empties the program's caches before each call."""
        for name in self.problems:
            problem = collection.get(name)
            if self.analyze_in_setup:
                symbolic_driver.analyze_problem(problem)

    def run_round(self, metrics: bool = True, probe=None) -> Round:
        with RunCollector(probe) as collector:
            rnd = self._round(metrics)
        rnd.runs = collector.runs
        rnd.attempted += len(collector.runs)
        rnd.failed += sum(1 for r in collector.runs if r.error is not None)
        for run in rnd.runs:
            if run.tree is None:
                run.tree = symbolic_driver.cached_tree(run.tree_name)
        return rnd

    def _round(self, metrics: bool) -> Round:
        raise NotImplementedError


def render_pair(a, b) -> str:
    """A table pair as ``repro-experiments`` prints it."""
    text = side_by_side([a, b]) + "\n"
    if a.extras or b.extras:
        text += f"  extras(a)={a.extras}\n  extras(b)={b.extras}\n"
    return text


class Table4Cold(Workload):
    """Table 4 at fast scale with every program cache empty: 8 Table-1
    matrices x P in {8, 16} x naive/increments/snapshot, memory strategy."""

    name = "table4-cold"
    problems = tuple(collection.SUITE_SMALL)
    analyze_in_setup = False

    def _round(self, metrics: bool) -> Round:
        symbolic_driver.clear_cache()
        runner = ExperimentRunner(SolverConfig(seed=self.seed),
                                  scale=ExperimentScale(fast=True))
        return Round(text=render_pair(*tables.table4(runner)))


class Table57Sim(Workload):
    """Tables 5-7 at fast scale on analysed trees: 3 Table-2 matrices x
    P in {16, 32} x increments/snapshot x plain/threaded."""

    name = "table5-7-sim"
    problems = tuple(collection.SUITE_LARGE)

    def _round(self, metrics: bool) -> Round:
        runner = ExperimentRunner(SolverConfig(seed=self.seed),
                                  scale=ExperimentScale(fast=True))
        text = "".join(render_pair(*fn(runner))
                       for fn in (tables.table5, tables.table6, tables.table7))
        return Round(text=text)


class FaultsMetrics(Workload):
    """GUPTA3 at P=16 with telemetry on: the loss sweep with resilience,
    the crash-restart sweep, and the snapshot crash-resilience example."""

    name = "faults-metrics"
    problems = ("GUPTA3",)

    def _round(self, metrics: bool) -> Round:
        base = SolverConfig(seed=self.seed, metrics=metrics)
        sweep = robustness.robustness_sweep("GUPTA3", 16, base_config=base,
                                            seed_salt=self.seed)
        recovery = robustness.recovery_sweep("GUPTA3", 16, base_config=base,
                                             seed_salt=self.seed)
        failures = [f"robustness: {f}" for f in sweep.extras["failures"]]
        failures += [f"recovery: {f}" for f in recovery.extras["failures"]]
        example = snapshot_crash_example()
        return Round(
            attempted=1,
            failed=1 if example else 0,
            failures=failures,
            text=sweep.render() + "\n" + recovery.render() + "\n",
        )


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (Table4Cold, Table57Sim, FaultsMetrics)
}


# ---------------------------------------------------------------------------
# The snapshot crash-resilience example
# ---------------------------------------------------------------------------

#: Falsifying example of the snapshot mechanism under a fail-stop crash plus
#: message chaos: (initiating rank, request time) of each decision.  Fixed
#: inputs, independent of the seed; it fails on every run until the fault
#: (a live gather leader suspected, its pending reservation abandoned) is
#: fixed in the program.
CRASH_EXAMPLE_NPROCS = 5
CRASH_EXAMPLE_DECISIONS = ((1, 0.001), (1, 0.00018857713310341145), (3, 0.00014524860250783792))
CRASH_EXAMPLE_CRASH = (4, 0.001953125)


def snapshot_crash_example() -> List[str]:
    """Drive the snapshot mechanism through its public request_view /
    record_decision / decision_complete calls on a five-rank world where rank
    4 fail-stops under drop/dup/delay chaos; return the survivors whose own
    workload differs from the reservations committed to them."""
    from repro.faults import CrashFault, FaultInjector, FaultPlan
    from repro.mechanisms import Load, MechanismConfig, SnapshotMechanism
    from repro.simcore import Network, NetworkConfig, SimProcess, Simulator

    class Host(SimProcess):
        """Minimal host: state messages go to the mechanism, no tasks."""

        def __init__(self, sim, net, rank):
            super().__init__(sim, net, rank)
            self.mechanism = SnapshotMechanism(MechanismConfig(resilience=True))
            self.mechanism.bind(self, None)

        def handle_state(self, env):
            if not self.mechanism.handle_message(env):
                raise RuntimeError(f"unhandled state message {env.payload!r}")

        def handle_data(self, env):
            raise RuntimeError("the example sends no data messages")

        def next_task(self):
            return None

        def can_start_task(self):
            return not self.mechanism.blocks_tasks()

        def can_receive_data(self):
            return not self.mechanism.blocks_tasks()

    n = CRASH_EXAMPLE_NPROCS
    chaos = FaultPlan.chaos(drop=0.125, dup=0.0625, delay_prob=0.0625, delay=1e-4, seed_salt=1)
    victim, crash_time = CRASH_EXAMPLE_CRASH
    plan = FaultPlan(link_faults=chaos.link_faults,
                     crashes=(CrashFault(rank=victim, time=crash_time),), seed_salt=1)
    sim = Simulator(seed=0)
    net = Network(sim, n, NetworkConfig(latency=5e-5))
    procs = [Host(sim, net, r) for r in range(n)]
    injector = FaultInjector(sim, plan)
    net.install_injector(injector)
    injector.install_process_faults(procs)
    for p in procs:
        p.mechanism.initialize_view([Load.ZERO] * n)

    queued: Dict[int, List[int]] = {}
    in_flight = set()
    committed = [0.0] * n

    def attempt(rank: int) -> None:
        proc = procs[rank]
        if proc.crashed or not queued.get(rank):
            return
        mech = proc.mechanism
        if mech.blocks_tasks() or rank in in_flight:
            sim.schedule(5e-6, lambda: attempt(rank))
            return
        did = queued[rank].pop(0)
        slave = (rank + 1 + did % (n - 1)) % n
        amount = 10.0 * (did + 1)
        in_flight.add(rank)

        def on_view(_view) -> None:
            mech.record_decision({slave: Load(amount, 0.0)})
            committed[slave] += amount
            mech.decision_complete()
            in_flight.discard(rank)
            sim.schedule(1e-6, lambda: attempt(rank))

        mech.request_view(on_view)

    def want(rank: int, did: int) -> None:
        queued.setdefault(rank, []).append(did)
        attempt(rank)

    for did, (rank, when) in enumerate(CRASH_EXAMPLE_DECISIONS):
        sim.schedule(when, lambda r=rank, d=did: want(r, d))
    sim.run()
    survivors = [r for r in range(n) if r != victim]
    final = [p.mechanism.my_load.workload for p in procs]
    return check_reservations(final, committed, survivors)
