"""Online cloud simulation: time-varying VM populations under churn.

:class:`CloudSimulation` extends the Section VI-C engine to a cloud
where VMs arrive, resize and depart mid-horizon (see
:mod:`repro.traces.lifecycle`):

* allocation windows are **cut at membership/resize boundaries** — a
  day-ahead policy's 24-slot window ends early when the population
  changes, exactly when a real operator would have to react;
* the policy sees a :class:`~repro.core.online.CloudAllocationContext`
  covering only the window's active VMs (global ids attached, previous
  slot's observed utilization for reactive detectors), so the paper's
  day-ahead policies and the stateful online policies run head-to-head
  on identical information;
* the engine's one window loop and accounting kernel run unchanged,
  with the membership rows as the scatter's VM set — bit-identical to
  the per-slot reference (``window_batch=False``), which stays the
  oracle;
* migrations are counted only over VMs present on *both* sides of a
  boundary (arrivals and departures are not migrations) and can be
  charged via ``migration_energy_j`` as in the base engine.

With a zero-churn :func:`~repro.traces.lifecycle.fixed_schedule` the
simulation reproduces the fixed-population
:class:`~repro.dcsim.engine.DataCenterSimulation` results exactly — the
equivalence the cloud test-suite asserts.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from ..core.online import CloudAllocationContext
from ..core.types import Allocation, AllocationPolicy
from ..errors import ConfigurationError
from ..traces.dataset import TraceDataset
from ..traces.lifecycle import LifecycleSchedule
from ..units import SAMPLES_PER_SLOT
from .engine import DataCenterSimulation
from .metrics import SimulationResult


class CloudSimulation(DataCenterSimulation):
    """Simulates one policy over churning traces (see module docstring).

    Args:
        dataset: utilization traces for the whole VM *pool* (rows for
            VMs that have not arrived yet are simply unused).
        predictor: shared day-ahead predictor (as in the base engine).
        policy: a day-ahead :class:`AllocationPolicy` or a stateful
            :class:`~repro.core.online.OnlinePolicy`.
        schedule: the VM lifecycle (arrivals/departures/resizes); must
            cover the dataset's VM pool and the simulated horizon.
        **kwargs: forwarded to :class:`DataCenterSimulation`.
    """

    _ENGINE_NAME = "cloud"

    def __init__(
        self,
        dataset: TraceDataset,
        predictor,
        policy: AllocationPolicy,
        schedule: LifecycleSchedule,
        **kwargs,
    ):
        super().__init__(dataset, predictor, policy, **kwargs)
        if schedule.n_vms != dataset.n_vms:
            raise ConfigurationError(
                f"schedule covers {schedule.n_vms} VMs, dataset has "
                f"{dataset.n_vms}"
            )
        end = self._start_slot + self._n_slots
        if (
            schedule.horizon_start > self._start_slot
            or schedule.horizon_end < end
        ):
            raise ConfigurationError(
                "lifecycle schedule does not cover the simulated horizon"
            )
        self._schedule = schedule

    # -- window-loop hooks ------------------------------------------------

    def _open_window(self, window, state) -> None:
        """The window's membership: active VMs, resizes, churn counts.

        The window is cut short at the next membership/resize change.
        Arrivals and departures are counted against the previously
        *placed* VMs.
        """
        sched = self._schedule
        slot = window.slot
        active = sched.active_ids(slot)
        window.active = active
        window.n_window = min(
            window.n_window, max(1, sched.next_change(slot) - slot)
        )
        scale = sched.scale_at(slot)
        if scale is not None:
            window.scale = (scale[0][active], scale[1][active])
        if state.prev_ids is not None:
            window.arrivals = int(
                np.setdiff1d(active, state.prev_ids, assume_unique=True).size
            )
            window.departures = int(
                np.setdiff1d(state.prev_ids, active, assume_unique=True).size
            )

    def _decide(self, window, state) -> Allocation:
        ctx = self._cloud_context(
            window.slot,
            window.n_window,
            window.active,
            window.scale,
            window.fault,
        )
        with self._metrics.phase("policy"):
            return self._policy.allocate(ctx)

    # -- internals ----------------------------------------------------------

    def _cloud_context(
        self,
        slot: int,
        n_window: int,
        active: np.ndarray,
        scale_loc,
        fault=None,
    ) -> CloudAllocationContext:
        """Window context restricted to the active VMs (global ids kept)."""
        with self._metrics.phase("forecast"):
            pred_cpu, pred_mem = self._window_predictions(
                slot, slot + n_window, vm_rows=active, scale=scale_loc
            )
        last_cpu, last_mem = self._last_observed(slot, active)
        max_servers = self._max_servers
        fleet = self._fleet
        if fault is not None:
            max_servers = fault.available_servers
            if fleet is not None:
                fleet = self._reduced_fleet(fault.pool_available)
        return CloudAllocationContext(
            pred_cpu=pred_cpu,
            pred_mem=pred_mem,
            power_model=self._power,
            max_servers=max_servers,
            qos_floor_ghz=self._vm_floor_ghz[active],
            fleet=fleet,
            vm_ids=active,
            last_cpu=last_cpu,
            last_mem=last_mem,
            faults=fault,
        )

    def _last_observed(self, slot: int, active: np.ndarray):
        """Previous slot's actual utilization; NaN rows without history.

        Scaled with the resize factors in force *during* that slot —
        what a monitoring system would actually have recorded — not the
        current window's factors.
        """
        prev = slot - 1
        if prev < 0:
            return None, None
        lo = prev * SAMPLES_PER_SLOT
        hi = lo + SAMPLES_PER_SLOT
        last_cpu = self._dataset.cpu_pct[active, lo:hi].copy()
        last_mem = self._dataset.mem_pct[active, lo:hi].copy()
        scale_prev = self._schedule.scale_at(prev)
        if scale_prev is not None:
            last_cpu *= scale_prev[0][active][:, None]
            last_mem *= scale_prev[1][active][:, None]
        ran = self._schedule.active_mask(prev)[active]
        last_cpu[~ran] = np.nan
        last_mem[~ran] = np.nan
        return last_cpu, last_mem


def _run_one_cloud_policy(
    dataset,
    predictor,
    policy: AllocationPolicy,
    schedule: LifecycleSchedule,
    kwargs: Dict,
) -> SimulationResult:
    """Worker entry point: one policy's full cloud run (picklable).

    ``dataset`` may be a :class:`~repro.shard.shm.SharedTraces` handle
    (mapped zero-copy) or a plain :class:`TraceDataset`.
    """
    from ..shard.shm import materialize

    return CloudSimulation(
        materialize(dataset), predictor, policy, schedule, **kwargs
    ).run()


def run_cloud_policies(
    dataset: TraceDataset,
    predictor,
    policies: Iterable[AllocationPolicy],
    schedule: LifecycleSchedule,
    jobs: int = 1,
    tracer=None,
    metrics=None,
    shared=None,
    **kwargs,
) -> Dict[str, SimulationResult]:
    """Run several policies over the same churning traces.

    The cloud counterpart of :func:`repro.dcsim.engine.run_policies`,
    with the same runner surface (``jobs`` / ``tracer`` / ``metrics`` /
    ``shared``): with ``jobs > 1`` the policies fan out over a
    ``ProcessPoolExecutor`` reading traces and frozen day-ahead
    predictions from zero-copy shared-memory buffers
    (:class:`~repro.shard.shm.SharedRunInputs`), so workers re-fit and
    copy nothing and results equal the serial run exactly (online
    policies are reset per run).  Serial runs thread ``tracer`` /
    ``metrics`` into every engine; parallel fans drop them, as in
    :func:`~repro.dcsim.engine.run_policies`.
    """
    policy_list = list(policies)
    if jobs is None or jobs <= 1 or len(policy_list) <= 1:
        results: Dict[str, SimulationResult] = {}
        for policy in policy_list:
            sim = CloudSimulation(
                dataset,
                predictor,
                policy,
                schedule,
                tracer=tracer,
                metrics=metrics,
                **kwargs,
            )
            results[policy.name] = sim.run()
        return results

    from concurrent.futures import ProcessPoolExecutor

    from ..shard.shm import SharedRunInputs

    owned = shared is None
    if owned:
        shared = SharedRunInputs.create(
            dataset,
            predictor,
            start_slot=kwargs.get("start_slot"),
            n_slots=kwargs.get("n_slots"),
        )
    try:
        workers = min(jobs, len(policy_list))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _run_one_cloud_policy,
                    shared.traces,
                    shared.predictions,
                    policy,
                    schedule,
                    kwargs,
                )
                for policy in policy_list
            ]
            return {
                policy.name: future.result()
                for policy, future in zip(policy_list, futures)
            }
    finally:
        if owned:
            shared.close()
            shared.unlink()
