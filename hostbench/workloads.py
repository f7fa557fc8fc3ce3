"""The benchmark's three workloads, driven through the public API.

Each workload splits one iteration into :meth:`setup` (build traces,
schedules, feeds and engines from the run seed) and :meth:`simulate`
(run the policies).  Both halves are deterministic in the seed, so every
iteration of a run must reproduce the same output totals.
``repro`` is imported inside the methods, so that the warm-up iteration
pays for the import and timed iterations do not.

Why these three (README.md has the per-layer predictions):

* ``paper_1k`` — the paper's Section VI-C protocol (fixed population,
  fresh day-ahead ARIMA predictor, EPACT vs COAT) at fleet scale; COAT's
  per-VM ``np.stack`` and the batched forecast fit do most of their work
  here.
* ``serve_lossy_1k`` — the operator loop over a lossy telemetry feed:
  collector polls, ingest/imputation, the forecast ladder's day-by-day
  re-fit and daily checkpoints, one decision per window.
* ``churn_faults_5k`` — the online cloud at 5k VMs with churn, outages
  and power caps; EPACT's allocator and trace generation dominate, and
  there is no forecasting or COAT at all.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Outcome:
    """What one simulate step produced.

    Attributes:
        results: policy name -> :class:`repro.dcsim.SimulationResult`.
        vm_slots: simulated VM-slots summed over policies.
        n_windows: allocation windows summed over policies.
        windows: EPACT's per-window decision latencies in seconds.  EPACT
            is the one policy every workload runs; pooling it with the
            other policy would mix latency modes an order of magnitude
            apart and put the median on the seam between them.
        window_classes: one class label per entry of ``windows``.
        window_part: which part of the simulation (counted from 0, parts
            being separated by ``pause()`` calls) timed ``windows``.
        decisions: the serve loop's ``WindowDecision`` stream (empty for
            the batch workloads).
    """

    results: Dict[str, object]
    vm_slots: int
    n_windows: int
    windows: List[float]
    window_classes: List[str]
    window_part: int = 0
    decisions: List[object] = field(default_factory=list)


class DecisionClock:
    """Metrics-registry stand-in that times each allocation window.

    The batch engines accept any object with the
    :class:`repro.obs.metrics.MetricsRegistry` ``phase()`` surface and
    open the ``forecast``/``policy`` phases before a window's decision
    and the ``allocate`` phase (allocation preparation) right after it.
    One window's decision latency is the time from the first of those
    phases to the end of ``allocate``.  ``enabled`` stays ``False`` so
    the engines skip their counter bookkeeping: the clock costs two
    ``perf_counter`` calls per phase.
    """

    enabled = False

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self._start: Optional[float] = None
        self._phases = {
            name: _ClockPhase(self, name)
            for name in ("forecast", "policy", "allocate", "account")
        }

    def phase(self, name: str) -> "_ClockPhase":
        return self._phases[name]

    def counter(self, name: str, amount: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def histogram(self, name: str, value: float) -> None:
        pass


class _ClockPhase:
    __slots__ = ("_clock", "_opens", "_closes")

    def __init__(self, clock: DecisionClock, name: str) -> None:
        self._clock = clock
        self._opens = name in ("forecast", "policy")
        self._closes = name == "allocate"

    def __enter__(self) -> "_ClockPhase":
        if self._opens and self._clock._start is None:
            self._clock._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        clock = self._clock
        if self._closes and clock._start is not None:
            clock.latencies.append(time.perf_counter() - clock._start)
            clock._start = None
        return False


def _no_pause() -> None:
    """Default ``pause`` between a simulation's parts: nothing to do."""


def output_totals(results: Dict[str, object], n_windows: int) -> dict:
    """The pinned outputs of one iteration: per-policy totals + windows."""
    totals: dict = {"windows": int(n_windows)}
    for name, result in sorted(results.items()):
        records = result.records
        totals[name] = {
            "energy_j": float(sum(r.energy_j for r in records)),
            "migrations": int(sum(r.migrations for r in records)),
            "violations": int(sum(r.violations for r in records)),
            "forced": int(sum(r.forced_placements for r in records)),
            "shed": int(sum(r.shed_vms for r in records)),
        }
    return totals


def _per_policy_outcome(
    run: Callable, inputs: dict, vm_slots: Callable, pause: Callable
) -> Outcome:
    """Run each policy through its own runner call and clock.

    With ``jobs=1`` one runner call per policy is the same serial loop a
    single call runs.  Separate calls keep EPACT's window latencies apart
    from the other policy's, and let the benchmark ``pause()`` between
    policies to read the host's speed close to each policy's run.  A
    traced iteration passes one shared metrics object, whose latencies
    are sliced per call.
    """
    results: Dict[str, object] = {}
    n_windows = 0
    epact: List[float] = []
    epact_part = 0
    for part, policy in enumerate(inputs["policies"]):
        if part:
            pause()
        metrics = inputs["metrics"] or DecisionClock()
        first = len(metrics.latencies)
        results.update(run(policy, metrics))
        latencies = metrics.latencies[first:]
        n_windows += len(latencies)
        if policy.name == "EPACT":
            epact, epact_part = list(latencies), part
    return Outcome(
        results=results,
        vm_slots=int(vm_slots(results)),
        n_windows=n_windows,
        windows=epact,
        window_classes=["window"] * len(epact),
        window_part=epact_part,
    )


class PaperWorkload:
    """EPACT vs COAT, fixed 1k-VM population, one evaluated day."""

    name = "paper_1k"

    def __init__(
        self, n_vms: int = 1000, n_slots: int = 24, name: str = name
    ) -> None:
        self.name = name
        self.n_vms = n_vms
        self.n_slots = n_slots

    def setup(self, seed: int, workdir: str, metrics=None) -> dict:
        from repro import CoatPolicy, DayAheadPredictor, EpactPolicy
        from repro.cloud import get_scenario

        dataset, _ = get_scenario("zero-churn").build(
            n_vms=self.n_vms, n_days=8, seed=seed
        )
        return dict(
            dataset=dataset,
            predictor=DayAheadPredictor(dataset),
            policies=[EpactPolicy(), CoatPolicy()],
            metrics=metrics,
        )

    def simulate(self, inputs: dict, pause: Callable = _no_pause) -> Outcome:
        from repro import run_policies

        def run(policy, metrics):
            return run_policies(
                inputs["dataset"],
                inputs["predictor"],
                [policy],
                jobs=1,
                n_slots=self.n_slots,
                metrics=metrics,
            )

        def vm_slots(results):
            return self.n_vms * self.n_slots * len(results)

        return _per_policy_outcome(run, inputs, vm_slots, pause)


class ChurnFaultsWorkload:
    """EPACT vs the reactive online policy, 5k churning VMs under faults."""

    name = "churn_faults_5k"

    def __init__(
        self,
        n_vms: int = 5000,
        n_servers: int = 1000,
        n_slots: int = 24,
        name: str = name,
    ) -> None:
        self.name = name
        self.n_vms = n_vms
        self.n_servers = n_servers
        self.n_slots = n_slots

    def setup(self, seed: int, workdir: str, metrics=None) -> dict:
        from repro import EpactPolicy, OnlineReactivePolicy
        from repro.cloud import get_fault_scenario, get_scenario
        from repro.forecast.predictor import PerfectPredictor

        dataset, schedule = get_scenario("batch-latency").build(
            n_vms=self.n_vms, n_days=8, seed=seed, n_slots=self.n_slots
        )
        faults = get_fault_scenario("cap-and-outages").build(
            n_servers=self.n_servers,
            horizon_start=0,
            horizon_end=dataset.n_slots,
            seed=seed,
        )
        return dict(
            dataset=dataset,
            schedule=schedule,
            faults=faults,
            predictor=PerfectPredictor(dataset),
            policies=[EpactPolicy(), OnlineReactivePolicy()],
            metrics=metrics,
        )

    def simulate(self, inputs: dict, pause: Callable = _no_pause) -> Outcome:
        from repro import run_cloud_policies

        schedule = inputs["schedule"]

        def run(policy, metrics):
            return run_cloud_policies(
                inputs["dataset"],
                inputs["predictor"],
                [policy],
                schedule,
                jobs=1,
                start_slot=schedule.horizon_start,
                n_slots=self.n_slots,
                max_servers=self.n_servers,
                faults=inputs["faults"],
                metrics=metrics,
            )

        def vm_slots(results):
            return sum(
                r.n_active_vms for res in results.values() for r in res.records
            )

        return _per_policy_outcome(run, inputs, vm_slots, pause)


class ServeLossyWorkload:
    """The operator loop over a lossy feed, two evaluated days."""

    name = "serve_lossy_1k"

    def __init__(
        self,
        n_vms: int = 1000,
        n_servers: int = 200,
        n_slots: int = 48,
        name: str = name,
    ) -> None:
        self.name = name
        self.n_vms = n_vms
        self.n_servers = n_servers
        self.n_slots = n_slots

    def setup(self, seed: int, workdir: str, metrics=None):
        from repro.serve.service import ServeConfig, build_simulation
        from repro.units import SLOTS_PER_DAY

        config = ServeConfig(
            workload="diurnal-burst",
            telemetry_scenario="lossy-10pct",
            policy="epact",
            n_vms=self.n_vms,
            n_days=9,
            seed=seed,
            n_slots=self.n_slots,
            max_servers=self.n_servers,
            # Daily, on the day boundary: snapshot cost then stays in
            # its own window class instead of landing on p90.
            checkpoint_every_slots=SLOTS_PER_DAY,
            checkpoint_path=os.path.join(workdir, "serve.ckpt"),
        )
        return build_simulation(config, metrics=metrics)

    def simulate(self, sim, pause: Callable = _no_pause) -> Outcome:
        # serve() is build_simulation() plus this loop (its decision
        # events are a no-op without a tracer); setup is timed apart.
        decisions = []
        latencies = []
        last = time.perf_counter()
        for decision in sim.windows():
            now = time.perf_counter()
            latencies.append(now - last)
            last = now
            decisions.append(decision)
        result = sim.result
        return Outcome(
            results={result.policy_name: result},
            vm_slots=int(sum(r.n_active_vms for r in result.records)),
            n_windows=len(decisions),
            windows=latencies,
            window_classes=[window_class(d) for d in decisions],
            decisions=decisions,
        )


def window_class(decision) -> str:
    """Serve window class: checkpointed, day_boundary or ordinary."""
    from repro.units import SLOTS_PER_DAY

    if decision.checkpointed:
        return "checkpointed"
    if decision.slot % SLOTS_PER_DAY == 0:
        return "day_boundary"
    return "ordinary"


WORKLOADS = {
    w.name: w
    for w in (PaperWorkload(), ServeLossyWorkload(), ChurnFaultsWorkload())
}
