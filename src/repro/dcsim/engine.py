"""Slot/sample data-center simulation engine (paper Section VI-C protocol).

For every 1-hour slot of the evaluation horizon:

1. the policy receives the shared day-ahead predictions for the slot and
   produces an allocation (which VMs on which servers, caps, frequency
   mode);
2. for each of the slot's 12 five-minute samples, the engine aggregates
   the *real* utilization per server, chooses frequencies (per-sample
   governor or the policy's fixed frequency), accounts power through the
   vectorized Section-IV model, and counts SLA violations (server-samples
   whose real aggregate CPU exceeds the policy's cap, or whose memory
   exceeds physical capacity).

Servers hosting no VM are powered off (0 W) — the server turn-off
assumption shared by all compared policies.

One loop drives every engine.  :meth:`DataCenterSimulation._windows` cuts
the horizon into allocation windows (the policy's reallocation period,
fault-state changes and, in subclasses, membership changes), asks the
policy for a placement, counts migrations against the previous window
and accounts the window at once.  ``run()`` drains it; the churn and
streaming engines specialise it only through small hooks (membership,
telemetry ingest and decision ladder, checkpoints).

Accounting: everything that depends only on the allocation (VM->server
map, active set, QoS floors, fixed OPP indices, scatter indices) is
hoisted into a per-allocation :class:`_AllocationAccounting`.  The
window kernel (:meth:`DataCenterSimulation._account_batch`) stacks the
window's real-trace slots into one ``(n_slots, n_servers, n_samples)``
tensor, aggregates it with a single ``np.bincount`` scatter over
flattened (slot, server, sample) bins, and runs the governor and
:class:`VectorizedServerPower` once.  Within each bin the VMs accumulate
in the same ascending order as a per-slot scatter and every per-slot
reduction runs over the same contiguous slice, so the records are
bit-identical to the per-slot path — which ``window_batch=False`` keeps
callable as the tested reference oracle.  ``np.bincount`` is itself
bit-identical to the seed's ``np.add.at`` scatter (both accumulate in
input order).  ``count_migrations`` sorts only the non-zero overlap
pairs; ``_count_migrations_reference`` preserves the seed's dense pair
loop as its equivalence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from ..core.governor import DvfsGovernor
from ..core.online import OnlinePolicy
from ..core.types import (
    Allocation,
    AllocationContext,
    AllocationPolicy,
    FaultWindow,
    FleetSpec,
)
from ..errors import ConfigurationError
from ..obs.metrics import NULL_METRICS
from ..obs.tracer import NULL_TRACER
from ..perf.simulator import PerformanceSimulator, traffic_coefficients
from ..perf.workload import ALL_MEMORY_CLASSES
from ..power.server_power import ServerPowerModel, ntc_server_power_model
from ..traces.dataset import TraceDataset
from ..units import SAMPLE_PERIOD_S, SAMPLES_PER_SLOT, SLOTS_PER_DAY
from .metrics import SimulationResult, SlotRecord
from .power_tables import cached_tables

_EPS = 1.0e-9

@lru_cache(maxsize=1)
def _default_perf() -> PerformanceSimulator:
    """Shared default performance simulator.

    Calibration is deterministic and the simulator is read-only after
    construction, so every engine instance can share one copy instead of
    re-running the calibration per simulation.
    """
    return PerformanceSimulator()


@dataclass(frozen=True)
class _AllocationAccounting:
    """Invariants of one allocation, shared by all slots it covers.

    Attributes:
        vm2srv: dense VM -> server map (over the covered VMs).
        n_srv: number of planned servers.
        active: per-server "hosts at least one VM" mask.
        floors: per-server QoS frequency floor (max over hosted VMs).
        opp_idx_fixed: fixed-frequency OPP indices, or ``None`` for
            dynamic-governor policies.
        flat_idx: flattened (server, sample) bin index per (VM, sample)
            cell, for the bincount scatter.
        class_flat: the same indices restricted to each memory class
            (``None`` for classes with no VMs).
        class_masks: per-memory-class VM masks over the covered VMs.
        vm_rows: global dataset row per covered VM, or ``None`` when the
            allocation covers the whole fleet (the fixed-population
            engine).  The online cloud engine passes the window's active
            VM ids here; all accounting then reads/aggregates only those
            trace rows.
        scale_cpu: per-covered-VM CPU utilization factor (resizes), or
            ``None`` for unscaled traces.
        scale_mem: per-covered-VM memory utilization factor, or ``None``.
        pool_idx: per-server fleet pool index (heterogeneous engines
            only), or ``None`` for the homogeneous protocol.
        pool_fixed_opp: per-server fixed OPP index into *that server's
            own pool table* (``-1`` = per-sample governor); set for
            fixed-frequency allocations and ``"fixed-opt"`` pools on
            heterogeneous fleets, ``None`` otherwise.
        n_failed: servers down during this window (fault layer).
        cap_frac: fleet power budget fraction for this window (1.0 =
            uncapped; accounting throttles samples whose fleet
            power exceeds ``cap_frac`` times the nominal full-load
            power).
        shed_vms: VMs the policy shed for this window (degraded
            operation; excluded from the covered VM set).
        fault_boundary: this window starts at a fault-state change, so
            its boundary migrations are fault-forced.
    """

    vm2srv: np.ndarray
    n_srv: int
    active: np.ndarray
    floors: np.ndarray
    opp_idx_fixed: Optional[np.ndarray]
    flat_idx: np.ndarray
    class_flat: List[Optional[np.ndarray]]
    class_masks: List[np.ndarray]
    vm_rows: Optional[np.ndarray] = None
    scale_cpu: Optional[np.ndarray] = None
    scale_mem: Optional[np.ndarray] = None
    pool_idx: Optional[np.ndarray] = None
    pool_fixed_opp: Optional[np.ndarray] = None
    n_failed: int = 0
    cap_frac: float = 1.0
    shed_vms: int = 0
    fault_boundary: bool = False


@dataclass
class _Window:
    """One allocation window as the loop plans and accounts it.

    Attributes:
        slot: first slot of the window.
        n_window: window length in slots.
        fault: the window's fault state (``None`` = no active fault).
        active: global ids of the VMs the window places (the cloud
            engines' membership), or ``None`` for the whole fleet.
        scale: per-active-VM ``(cpu, mem)`` resize factors, or ``None``.
        arrivals: VMs that arrived at the window boundary.
        departures: VMs that departed at the window boundary.
        allocation: the policy's placement (``None`` for an empty cloud).
        migrations: VM moves relative to the previous placement.
        records: the window's final per-slot records.
    """

    slot: int
    n_window: int
    fault: Optional[FaultWindow]
    active: Optional[np.ndarray] = None
    scale: Optional[tuple] = None
    arrivals: int = 0
    departures: int = 0
    allocation: Optional[Allocation] = None
    migrations: int = 0
    records: List[SlotRecord] = field(default_factory=list)


@dataclass
class _LoopState:
    """What the window loop carries from one window to the next.

    Attributes:
        slot: first slot of the next window.
        records: every record so far, in horizon order.
        prev_active: the previous window's membership (``None`` for the
            whole fleet).
        prev_alloc: the previous window's allocation (``None`` before
            the first window and after an empty cloud).
        prev_ids: global ids of the previously *placed* VMs (shed VMs
            excluded; ``None`` for the whole fleet).
        prev_map: their server indices (``None`` before the first
            window).
        prev_pools: the previous per-server pool indices, if any.
        prev_fw: the previous window's fault state.
    """

    slot: int
    records: List[SlotRecord] = field(default_factory=list)
    prev_active: Optional[np.ndarray] = None
    prev_alloc: Optional[Allocation] = None
    prev_ids: Optional[np.ndarray] = None
    prev_map: Optional[np.ndarray] = None
    prev_pools: Optional[np.ndarray] = None
    prev_fw: Optional[FaultWindow] = None

    def advance(
        self, window: _Window, acct: Optional[_AllocationAccounting]
    ) -> None:
        """Adopt a recorded window as the previous one."""
        if acct is None:
            self.prev_ids = window.active
            self.prev_map = np.empty(0, dtype=int)
            self.prev_pools = None
        else:
            self.prev_ids = acct.vm_rows
            self.prev_map = acct.vm2srv
            self.prev_pools = acct.pool_idx
        self.prev_active = window.active
        self.prev_alloc = window.allocation
        self.prev_fw = window.fault
        self.slot = window.slot + window.n_window


class DataCenterSimulation:
    """Simulates one policy over a trace dataset.

    Args:
        dataset: the VM utilization traces.
        predictor: day-ahead predictor shared across policies (must expose
            ``predicted_slot`` and ``first_predictable_day``).
        policy: the allocation policy under test.
        power_model: per-server power model; defaults to the NTC server.
        perf: performance simulator supplying per-class stall curves,
            QoS floors and DRAM traffic coefficients.
        max_servers: fleet size (default 600, the paper's data center);
            mutually exclusive with ``fleet``, whose pool sizes define
            the total.
        start_slot: first simulated slot; defaults to the first slot with
            a full prediction window.
        n_slots: number of slots to simulate; defaults to the rest of the
            dataset (one week for the default 14-day traces).
        migration_energy_j: energy charged per VM migration at
            reallocation boundaries.  The paper ignores migration cost
            (default 0); setting e.g. 50-500 J/migration quantifies how
            much churn a dynamic policy can afford.
        psu: optional per-server power-supply model; when given, energy
            is accounted at the wall plug (DC power plus conversion
            losses) instead of the DC side the paper models.
        window_batch: account whole allocation windows at once (default)
            instead of slot by slot.  Results are bit-identical; the
            per-slot path remains the tested reference oracle.
        fleet: heterogeneous fleet specification.  When given (mutually
            exclusive with ``power_model`` and ``max_servers``), the
            fleet's pool sizes define the total server count, every
            server row carries a pool
            (model) index, and accounting evaluates each pool through
            its own cached :class:`VectorizedServerPower` tables,
            governor, QoS floors and stall/traffic curves — one
            evaluation per (window, model).  A single-pool fleet
            reproduces the homogeneous engine bit-identically
            (``tests/test_hetero_equivalence.py``).
        faults: optional :class:`~repro.cloud.faults.FaultSchedule`
            covering the simulated horizon.  Allocation windows are cut
            at every fault-state change, policies see the reduced
            available capacity (``max_servers`` / per-pool sizes) plus
            a :class:`~repro.core.types.FaultWindow` in their context,
            and accounting throttles fleet power to the active cap
            budget.  A zero-event schedule is bit-identical to
            ``faults=None`` (``tests/test_fault_equivalence.py``).
        tracer: optional :class:`~repro.obs.tracer.RunTracer` receiving
            structured run/window/fault events.  The default is the
            no-op ``NULL_TRACER``; tracers only observe, so results are
            bit-identical with tracing on or off
            (``tests/test_obs_equivalence.py``).
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            accumulating counters plus forecast / policy / allocate /
            account phase timings.  Same only-observes guarantee.
    """

    def __init__(
        self,
        dataset: TraceDataset,
        predictor,
        policy: AllocationPolicy,
        power_model: Optional[ServerPowerModel] = None,
        perf: Optional[PerformanceSimulator] = None,
        max_servers: Optional[int] = None,
        start_slot: Optional[int] = None,
        n_slots: Optional[int] = None,
        migration_energy_j: float = 0.0,
        psu=None,
        window_batch: bool = True,
        fleet: Optional[FleetSpec] = None,
        faults=None,
        tracer=None,
        metrics=None,
    ):
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_METRICS
        if migration_energy_j < 0.0:
            raise ConfigurationError(
                "migration_energy_j must be non-negative"
            )
        self._migration_energy_j = migration_energy_j
        self._psu = psu
        self._window_batch = window_batch
        self._result: Optional[SimulationResult] = None
        self._dataset = dataset
        self._predictor = predictor
        self._policy = policy
        self._fleet = fleet
        if fleet is not None:
            if power_model is not None:
                raise ConfigurationError(
                    "pass either power_model or fleet, not both"
                )
            if max_servers is not None:
                raise ConfigurationError(
                    "max_servers is derived from the fleet's pool "
                    "sizes; size the pools instead of passing it"
                )
            self._power = fleet.pools[0].power_model
            max_servers = fleet.total_servers
        else:
            self._power = (
                power_model
                if power_model is not None
                else ntc_server_power_model()
            )
            if max_servers is None:
                max_servers = 600
        self._perf = perf if perf is not None else _default_perf()
        self._max_servers = max_servers
        self._tables = cached_tables(self._power)
        spec = self._power.spec
        self._governor = DvfsGovernor(spec.opps, spec.f_max_ghz)
        self._f_max = spec.f_max_ghz

        first = predictor.first_predictable_day * SLOTS_PER_DAY
        self._start_slot = start_slot if start_slot is not None else first
        if self._start_slot < first:
            raise ConfigurationError(
                f"start_slot {self._start_slot} precedes the first "
                f"predictable slot {first}"
            )
        available = dataset.n_slots - self._start_slot
        self._n_slots = n_slots if n_slots is not None else available
        if self._n_slots < 1 or self._n_slots > available:
            raise ConfigurationError(
                f"n_slots must be in [1, {available}], got {self._n_slots}"
            )

        self._faults = faults
        self._reduced_fleets: Dict[tuple, FleetSpec] = {}
        self._nominal_power_w = 0.0
        if faults is not None:
            if faults.n_servers != self._max_servers:
                raise ConfigurationError(
                    f"fault schedule covers {faults.n_servers} servers "
                    f"but the fleet has {self._max_servers}"
                )
            horizon_end = self._start_slot + self._n_slots
            if (
                faults.horizon_start > self._start_slot
                or faults.horizon_end < horizon_end
            ):
                raise ConfigurationError(
                    f"fault schedule covers "
                    f"[{faults.horizon_start}, {faults.horizon_end}) but "
                    f"the simulation runs "
                    f"[{self._start_slot}, {horizon_end})"
                )
            if fleet is not None and not fleet.single_pool:
                expected = tuple(p.n_servers for p in fleet.pools)
                if faults.pool_sizes != expected:
                    raise ConfigurationError(
                        f"fault schedule pool_sizes {faults.pool_sizes} "
                        f"do not match the fleet's pool sizes "
                        f"{expected}; build the schedule with the "
                        f"fleet's per-pool server counts"
                    )
            self._nominal_power_w = self._compute_nominal_power()

        self._class_masks = self._build_class_masks()
        if fleet is not None:
            # Per-pool state only; the homogeneous-path attributes
            # alias pool 0's correctly calibrated tables (inspect_slot
            # reads them) instead of rebuilding them with the
            # hardcoded "ntc" platform against pool 0's OPP grid.
            self._build_pool_models(fleet)
            self._stall_tab = self._pool_stall_tabs[0]
            self._traffic_coeff = self._pool_traffic_coeff[0]
        else:
            self._vm_floor_ghz = self._build_vm_floors()
            self._stall_tab = self._build_stall_tables()
            coeffs = traffic_coefficients(self._perf)
            self._traffic_coeff = np.array(
                [coeffs[mc] for mc in ALL_MEMORY_CLASSES]
            )

    @classmethod
    def from_config(cls, dataset, predictor, policy, *args, config=None):
        """Build a simulation from a :class:`SimulationConfig`.

        A thin pass-through — ``cls(dataset, predictor, policy, *args,
        **config.kwargs())`` — so a config-built simulation is
        bit-identical to the equivalent keyword call.  Subclasses with
        extra positional arguments inherit it unchanged
        (``CloudSimulation.from_config(dataset, predictor, policy,
        schedule, config=...)``).

        Args:
            dataset: the VM utilization traces.
            predictor: shared day-ahead predictor.
            policy: the allocation policy.
            *args: extra positional constructor arguments of ``cls``.
            config: a :class:`~repro.dcsim.config.SimulationConfig`
                (default: all engine defaults).
        """
        from .config import SimulationConfig

        if config is None:
            config = SimulationConfig()
        return cls(dataset, predictor, policy, *args, **config.kwargs())

    # -- precomputation -----------------------------------------------------

    def _build_class_masks(self) -> List[np.ndarray]:
        classes = self._dataset.mem_classes()
        return [
            np.array([c is mc for c in classes], dtype=bool)
            for mc in ALL_MEMORY_CLASSES
        ]

    def _build_vm_floors(self) -> np.ndarray:
        return self._vm_floors_for(self._power.spec.opps, None)

    def _vm_floors_for(self, opps, qos_floor_ghz) -> np.ndarray:
        """Per-VM QoS frequency floor against one OPP table."""
        floors = self._perf.qos.qos_floors(opps)
        classes = self._dataset.mem_classes()
        arr = np.array([floors[c] for c in classes], dtype=float)
        if qos_floor_ghz is not None:
            arr = np.maximum(arr, qos_floor_ghz)
        return arr

    def _build_stall_tables(self) -> np.ndarray:
        return self._stall_tables_for(self._power.spec.opps, "ntc")

    def _stall_tables_for(self, opps, platform: str) -> np.ndarray:
        """Per-(class, OPP) stall fractions for one platform's curves."""
        freqs = opps.frequencies_ghz
        table = np.zeros((len(ALL_MEMORY_CLASSES), len(freqs)))
        for ci, mc in enumerate(ALL_MEMORY_CLASSES):
            timing = self._perf.timing(mc, platform)
            for fi, freq in enumerate(freqs):
                table[ci, fi] = timing.stall_fraction(freq)
        return table

    def _build_pool_models(self, fleet: FleetSpec) -> None:
        """Per-pool tables, governors, floors and stall/traffic curves.

        Every pool gets its own cached :class:`VectorizedServerPower`
        coefficients and :class:`DvfsGovernor`; the reference per-VM
        floors (``self._vm_floor_ghz``, what the allocation context
        reports) are pool 0's row so a single-pool fleet presents
        policies the exact arrays the homogeneous engine would.
        """
        self._pool_tables = [
            cached_tables(pool.power_model) for pool in fleet.pools
        ]
        self._pool_governors = [
            DvfsGovernor(pool.opps, pool.f_max_ghz)
            for pool in fleet.pools
        ]
        self._pool_fmax = np.array(
            [pool.f_max_ghz for pool in fleet.pools]
        )
        self._pool_fmin = np.array(
            [pool.opps.f_min_ghz for pool in fleet.pools]
        )
        self._pool_stall_tabs = [
            self._stall_tables_for(pool.opps, pool.perf_platform)
            for pool in fleet.pools
        ]
        self._pool_traffic_coeff = []
        for pool in fleet.pools:
            coeffs = traffic_coefficients(self._perf, pool.perf_platform)
            self._pool_traffic_coeff.append(
                np.array([coeffs[mc] for mc in ALL_MEMORY_CLASSES])
            )
        self._pool_fixed_policy = np.array(
            [pool.opp_policy == "fixed-opt" for pool in fleet.pools]
        )
        # Fallback pin frequency of "fixed-opt" pools when the policy
        # supplies no planned frequency (online policies): the pool's
        # energy-optimal OPP, the frequency the policy name promises.
        self._pool_f_opt = np.array(
            [
                pool.power_model.optimal_frequency_ghz()
                if pool.opp_policy == "fixed-opt"
                else 0.0
                for pool in fleet.pools
            ]
        )
        self._vm_floor_by_pool = np.stack(
            [
                self._vm_floors_for(pool.opps, pool.qos_floor_ghz)
                for pool in fleet.pools
            ]
        )
        self._vm_floor_ghz = self._vm_floor_by_pool[0]

    def _compute_nominal_power(self) -> float:
        """Fleet nominal full-load power (the cap budget reference).

        Every server at full load at its pool's ``Fmax``, run through
        the PSU transform when wall-plug accounting is on — the same
        per-server arithmetic accounting applies, so a cap of
        1.0 can never throttle a physically realizable fleet.
        """
        if self._fleet is not None:
            pools = [
                (pool.n_servers, pool.power_model, pool.f_max_ghz)
                for pool in self._fleet.pools
            ]
        else:
            pools = [(self._max_servers, self._power, self._f_max)]
        total = 0.0
        for count, model, f_max in pools:
            p = model.full_load_power_w(f_max)
            if self._psu is not None:
                p = (
                    p
                    + self._psu.loss_fixed_w
                    + self._psu.loss_prop * p
                    + self._psu.loss_sq_per_w * p**2
                )
            total += count * p
        return total

    def _fault_window(self, slot: int) -> Optional[FaultWindow]:
        """The fault state of the window starting at ``slot``.

        ``None`` both without a schedule and in all-up, uncapped
        windows — the zero-event path stays on the exact no-fault code.
        """
        faults = self._faults
        if faults is None:
            return None
        n_failed = faults.n_failed(slot)
        cap = faults.cap_frac(slot)
        if n_failed == 0 and cap >= 1.0:
            return None
        pool_available = None
        if self._fleet is not None:
            failed = faults.pool_failed(slot)
            pool_available = tuple(
                pool.n_servers - down
                for pool, down in zip(self._fleet.pools, failed)
            )
        return FaultWindow(
            available_servers=self._max_servers - n_failed,
            n_failed=n_failed,
            cap_frac=cap,
            pool_available=pool_available,
        )

    def _reduced_fleet(self, pool_available: tuple) -> FleetSpec:
        """The fleet with per-pool capacity reduced to the up servers.

        Cached per availability tuple so repeated windows of one
        outage hand policies the *same* fleet object —
        :class:`~repro.core.fleet.FleetEpactPolicy`'s one-entry
        ``F_opt`` cache keys on fleet identity.
        """
        cached = self._reduced_fleets.get(pool_available)
        if cached is None:
            cached = FleetSpec(
                pools=tuple(
                    dc_replace(pool, n_servers=int(up))
                    for pool, up in zip(
                        self._fleet.pools, pool_available
                    )
                )
            )
            self._reduced_fleets[pool_available] = cached
        return cached

    # -- public API ---------------------------------------------------------

    @property
    def start_slot(self) -> int:
        """First simulated slot index."""
        return self._start_slot

    @property
    def n_slots(self) -> int:
        """Number of simulated slots."""
        return self._n_slots

    def run(self) -> SimulationResult:
        """Simulate all slots and return the per-slot records.

        The policy is invoked at its own reallocation cadence (every slot
        for EPACT, every 24 slots for the day-ahead consolidation
        baselines); accounting always happens per slot.  Drains
        :meth:`_windows`, the one window loop every engine shares.
        """
        for _ in self._windows():
            pass
        return self._result

    # -- the window loop -----------------------------------------------------
    #
    # Subclasses specialise the loop only through the hooks below:
    # ``_loop_start`` (fresh or resumed state), ``_open_window``
    # (membership, window cuts, telemetry ingest), ``_decide`` (the
    # window's allocation), ``_annotate`` (per-slot record fields) and
    # ``_close_window`` (checkpoints).

    #: Window record type the loop creates; subclasses may extend it.
    _window_type = _Window

    def _windows(self) -> Iterator[_Window]:
        """Plan, prepare, count and account the horizon window by window.

        Windows are cut at the policy's reallocation period, the horizon
        end and every fault-state change (subclasses cut further in
        :meth:`_open_window`).  Every window is accounted as soon as it
        is planned, so each yielded :class:`_Window` is final.  When the
        generator is exhausted the run's :class:`SimulationResult` is on
        ``self._result``.
        """
        self._result = None
        state = self._loop_start()
        self._trace_run_start()
        period = max(1, int(self._policy.reallocation_period_slots))
        end = self._start_slot + self._n_slots
        while state.slot < end:
            slot = state.slot
            n_window = min(period, end - slot)
            fw = None
            if self._faults is not None:
                n_window = min(
                    n_window,
                    max(1, self._faults.next_change(slot) - slot),
                )
                fw = self._fault_window(slot)
            window = self._window_type(slot, n_window, fw)
            self._open_window(window, state)
            boundary = fw != state.prev_fw
            if boundary:
                self._trace_fault_transition(slot, fw)
            acct = None
            if window.active is not None and window.active.size == 0:
                records = self._empty_records(window)
            else:
                window.allocation = self._decide(window, state)
                with self._metrics.phase("allocate"):
                    acct = self._prepare_allocation(
                        window.allocation,
                        vm_rows=window.active,
                        scale=window.scale,
                        fault=fw,
                        fault_boundary=boundary,
                    )
                window.migrations = self._count_window_migrations(
                    state, acct
                )
                self._trace_window(window, acct)
                with self._metrics.phase("account"):
                    records = self._account(window, acct)
            window.records = self._annotate(window, records)
            state.records.extend(window.records)
            state.advance(window, acct)
            self._close_window(window, state)
            yield window
        self._result = SimulationResult(
            policy_name=self._policy.name, records=state.records
        )
        self._trace_run_end(self._result)

    def _loop_start(self) -> _LoopState:
        """The state the loop starts from (hook: resume)."""
        if isinstance(self._policy, OnlinePolicy):
            self._policy.reset()
        return _LoopState(slot=self._start_slot)

    def _open_window(self, window: _Window, state: _LoopState) -> None:
        """Membership and telemetry of a window (hook; none here).

        The fixed-population engine places the whole fleet
        (``window.active is None``) with unscaled traces.
        """

    def _decide(self, window: _Window, state: _LoopState) -> Allocation:
        """The window's allocation (hook)."""
        return self._allocate_window(
            window.slot, window.n_window, window.fault
        )

    def _annotate(
        self, window: _Window, records: List[SlotRecord]
    ) -> List[SlotRecord]:
        """Per-slot membership fields (hook; cloud windows only)."""
        if window.active is None:
            return records
        n_active_vms = int(window.active.size)
        return [
            dc_replace(
                rec,
                n_active_vms=n_active_vms,
                arrivals=window.arrivals if i == 0 else 0,
                departures=window.departures if i == 0 else 0,
            )
            for i, rec in enumerate(records)
        ]

    def _close_window(self, window: _Window, state: _LoopState) -> None:
        """After a window is recorded (hook: checkpoints)."""

    def _empty_records(self, window: _Window) -> List[SlotRecord]:
        """An empty cloud: every server off, nothing to place."""
        fw = window.fault
        return [
            SlotRecord(
                slot_index=s,
                case="",
                n_active_servers=0,
                violations=0,
                forced_placements=0,
                energy_j=0.0,
                mean_freq_ghz=0.0,
                f_opt_ghz=0.0,
                n_failed_servers=fw.n_failed if fw else 0,
            )
            for s in range(window.slot, window.slot + window.n_window)
        ]

    def _count_window_migrations(
        self, state: _LoopState, acct: "_AllocationAccounting"
    ) -> int:
        """VM moves since the previous window.

        Only VMs placed on both sides of the boundary can migrate:
        arrivals, departures and shed VMs are not migrations.  Rows of
        ``None`` stand for the whole fleet.  Pool indices restrict the
        matching to same-pool server pairs on heterogeneous fleets (a VM
        block landing on another platform migrated).
        """
        if state.prev_map is None:
            return 0
        prev_map, new_map = state.prev_map, acct.vm2srv
        if state.prev_ids is not None or acct.vm_rows is not None:
            all_rows = np.arange(self._dataset.n_vms)
            _, ia, ib = np.intersect1d(
                all_rows if state.prev_ids is None else state.prev_ids,
                all_rows if acct.vm_rows is None else acct.vm_rows,
                assume_unique=True,
                return_indices=True,
            )
            prev_map, new_map = prev_map[ia], new_map[ib]
        return count_migrations(
            prev_map,
            new_map,
            previous_pools=state.prev_pools,
            new_pools=acct.pool_idx,
        )

    def _account(
        self, window: _Window, acct: "_AllocationAccounting"
    ) -> List[SlotRecord]:
        """The window's records: the kernel, or the per-slot oracle."""
        if self._window_batch:
            return self._account_batch(
                window.slot,
                window.n_window,
                window.allocation,
                acct,
                window.migrations,
            )
        return [
            self._account_slot(
                s,
                window.allocation,
                acct,
                window.migrations if s == window.slot else 0,
            )
            for s in range(window.slot, window.slot + window.n_window)
        ]

    # -- tracing ------------------------------------------------------------
    #
    # Tracers only observe: every emitted field is computed from state
    # the run produces anyway, so results are bit-identical with
    # tracing on or off, and same-seed event streams are byte-identical
    # (asserted by tests/test_obs_equivalence.py).

    #: Tag carried by ``run_start`` events; subclasses override.
    _ENGINE_NAME = "fixed"

    def _trace_run_start(self, n_vms: Optional[int] = None) -> None:
        tracer = self._tracer
        if not tracer.enabled:
            return
        tracer.emit(
            "run_start",
            policy=self._policy.name,
            engine=self._ENGINE_NAME,
            start_slot=self._start_slot,
            n_slots=self._n_slots,
            n_servers=self._max_servers,
            n_vms=self._dataset.n_vms if n_vms is None else n_vms,
            n_pools=(
                self._fleet.n_pools if self._fleet is not None else 1
            ),
        )
        if self._faults is not None:
            self._faults.trace_events(tracer)

    def _trace_window(self, window: _Window, acct) -> None:
        tracer = self._tracer
        migrations = window.migrations
        if self._metrics.enabled:
            self._metrics.counter("windows")
            self._metrics.counter("migrations", migrations)
        if not tracer.enabled:
            return
        fields = dict(
            slot=window.slot,
            n_window=window.n_window,
            case=window.allocation.case,
            n_servers=acct.n_srv,
            active_servers=int(np.count_nonzero(acct.active)),
            migrations=migrations,
            forced_placements=window.allocation.forced_placements,
        )
        if window.active is not None:
            fields.update(
                n_active_vms=int(window.active.size),
                arrivals=window.arrivals,
                departures=window.departures,
            )
        if self._faults is not None:
            fields["fault_migrations"] = (
                migrations if acct.fault_boundary else 0
            )
            fields["shed_vms"] = acct.shed_vms
        if acct.pool_idx is not None:
            n_pools = self._fleet.n_pools if self._fleet is not None else 1
            fields["pool_active"] = np.bincount(
                acct.pool_idx[acct.active], minlength=n_pools
            )
        tracer.emit("allocation_window", **fields)

    def _trace_fault_transition(self, slot: int, fw) -> None:
        tracer = self._tracer
        if not tracer.enabled or self._faults is None:
            return
        if fw is None:
            tracer.emit(
                "fault_transition",
                slot=slot,
                n_failed=0,
                cap_frac=1.0,
                available_servers=self._max_servers,
            )
        else:
            tracer.emit(
                "fault_transition",
                slot=slot,
                n_failed=fw.n_failed,
                cap_frac=fw.cap_frac,
                available_servers=fw.available_servers,
            )

    def _trace_run_end(self, result: SimulationResult) -> None:
        tracer = self._tracer
        if not tracer.enabled:
            return
        tracer.emit(
            "run_end",
            policy=self._policy.name,
            n_records=len(result.records),
            energy_mj=result.total_energy_mj,
            violations=result.total_violations,
            migrations=result.total_migrations,
        )

    # -- internals ----------------------------------------------------------

    def _window_predictions(
        self,
        slot: int,
        end: int,
        vm_rows: Optional[np.ndarray] = None,
        scale: Optional[tuple] = None,
    ):
        """The window's predicted patterns, one hstacked pair.

        Shared by the fixed-population context assembly and the cloud
        engine's (rows/scale restricted) one, so both feed policies the
        same arrays.
        """
        cpu_parts, mem_parts = [], []
        for s in range(slot, end):
            pred_cpu, pred_mem = self._predictor.predicted_slot(s)
            if vm_rows is not None:
                pred_cpu = pred_cpu[vm_rows]
                pred_mem = pred_mem[vm_rows]
            cpu_parts.append(pred_cpu)
            mem_parts.append(pred_mem)
        pred_cpu = (
            np.hstack(cpu_parts) if len(cpu_parts) > 1 else cpu_parts[0]
        )
        pred_mem = (
            np.hstack(mem_parts) if len(mem_parts) > 1 else mem_parts[0]
        )
        if scale is not None:
            pred_cpu = pred_cpu * scale[0][:, None]
            pred_mem = pred_mem * scale[1][:, None]
        return pred_cpu, pred_mem

    def _allocate_window(
        self,
        slot: int,
        n_window: int,
        fault: Optional[FaultWindow] = None,
    ) -> Allocation:
        """Ask the policy to pack against the window's predicted patterns.

        Under a fault window the policy sees the *available* capacity —
        reduced ``max_servers`` and, on heterogeneous fleets, a reduced
        per-pool fleet — so every policy's existing packing (including
        ``force_place_remaining``) becomes its emergency re-placement:
        VMs of failed servers simply have nowhere else to go.
        """
        end = slot + n_window
        with self._metrics.phase("forecast"):
            pred_cpu, pred_mem = self._window_predictions(slot, end)
        max_servers = self._max_servers
        fleet = self._fleet
        if fault is not None:
            max_servers = fault.available_servers
            if fleet is not None:
                fleet = self._reduced_fleet(fault.pool_available)
        ctx = AllocationContext(
            pred_cpu=pred_cpu,
            pred_mem=pred_mem,
            power_model=self._power,
            max_servers=max_servers,
            qos_floor_ghz=self._vm_floor_ghz,
            fleet=fleet,
            faults=fault,
        )
        with self._metrics.phase("policy"):
            return self._policy.allocate(ctx)

    def _prepare_allocation(
        self,
        allocation: Allocation,
        vm_rows: Optional[np.ndarray] = None,
        scale: Optional[tuple] = None,
        fault: Optional[FaultWindow] = None,
        fault_boundary: bool = False,
    ) -> "_AllocationAccounting":
        """Hoist allocation-dependent invariants out of the slot loop.

        Args:
            allocation: the policy's placement for the window.
            vm_rows: optional global dataset rows covered by the
                allocation (the cloud engine's active VM set, in the
                same order the allocation's local ids index).  ``None``
                means the full fleet, exactly the seed behaviour.
            scale: optional ``(cpu, mem)`` per-covered-VM utilization
                factors (resize events).
            fault: the window's fault state (``None`` = no active
                fault), recorded on the accounting for the cap term and
                the per-slot fault metrics.
            fault_boundary: the window starts at a fault-state change.
        """
        n_ctx = (
            self._dataset.n_vms if vm_rows is None else int(vm_rows.shape[0])
        )
        vm2srv = None
        shed_vms = 0
        if allocation.shed_vm_ids:
            # Degraded operation: the policy shed VMs it could not
            # place on the surviving capacity.  Accounting covers only
            # the placed VMs; shed VMs accrue SLA debt via the per-slot
            # shed count.
            shed = np.unique(
                np.asarray(allocation.shed_vm_ids, dtype=int)
            )
            mapping = allocation.vm_to_server(n_ctx, missing_ok=True)
            unplaced = np.flatnonzero(mapping < 0)
            if unplaced.shape != shed.shape or np.any(unplaced != shed):
                raise ConfigurationError(
                    "shed_vm_ids must list exactly the unplaced VMs "
                    f"(shed {shed.tolist()}, unplaced "
                    f"{unplaced.tolist()})"
                )
            placed = mapping >= 0
            vm2srv = mapping[placed]
            vm_rows = (
                np.flatnonzero(placed)
                if vm_rows is None
                else vm_rows[placed]
            )
            if scale is not None:
                scale = (scale[0][placed], scale[1][placed])
            shed_vms = int(shed.size)
        if vm_rows is None:
            n_vms = self._dataset.n_vms
            vm_floors = self._vm_floor_ghz
            class_masks = self._class_masks
        else:
            n_vms = int(vm_rows.shape[0])
            vm_floors = self._vm_floor_ghz[vm_rows]
            class_masks = [mask[vm_rows] for mask in self._class_masks]
        n_samples = SAMPLES_PER_SLOT
        if vm2srv is None:
            vm2srv = allocation.vm_to_server(n_vms)
        n_srv = len(allocation.plans)

        active = np.array(
            [bool(plan.vm_ids) for plan in allocation.plans], dtype=bool
        )

        pool_idx = pool_fixed_opp = None
        if self._fleet is None:
            # Per-server QoS frequency floor = max floor of hosted VMs.
            floors = np.full(n_srv, self._power.spec.opps.f_min_ghz)
            np.maximum.at(floors, vm2srv, vm_floors)

            if allocation.dynamic_governor:
                opp_idx_fixed = None
            else:
                planned = np.array(
                    [plan.planned_freq_ghz for plan in allocation.plans]
                )
                idx = np.searchsorted(
                    self._governor.frequencies_ghz,
                    planned - _EPS,
                    side="left",
                )
                idx = np.clip(
                    idx, 0, len(self._governor.frequencies_ghz) - 1
                )
                opp_idx_fixed = np.repeat(idx[:, None], n_samples, axis=1)
        else:
            opp_idx_fixed = None
            pool_idx = self._resolve_pool_idx(allocation, n_srv)
            # Per-server QoS floor against the *host pool's* table: each
            # VM's floor is looked up in its server's pool row.
            vm_floor_by_pool = (
                self._vm_floor_by_pool
                if vm_rows is None
                else self._vm_floor_by_pool[:, vm_rows]
            )
            floors = self._pool_fmin[pool_idx].copy()
            if n_vms:
                np.maximum.at(
                    floors,
                    vm2srv,
                    vm_floor_by_pool[
                        pool_idx[vm2srv], np.arange(n_vms)
                    ],
                )
            # Servers pinned to a fixed frequency: fixed-cap allocations
            # pin every server, "fixed-opt" pools pin theirs even under
            # dynamic-governor policies.  Indices are quantized against
            # each server's own pool table.  Fixed-cap allocations keep
            # the homogeneous semantics exactly (plan frequency, no
            # floor — COAT-style policies own their caps); pool-policy
            # pins fall back to the pool's F_opt when the policy left
            # no planned frequency (online policies) and are raised to
            # the server's QoS floor — the pin is the *pool's* choice,
            # so it must not undercut the hosted workloads.
            pinned = (
                np.ones(n_srv, dtype=bool)
                if not allocation.dynamic_governor
                else self._pool_fixed_policy[pool_idx]
            )
            if pinned.any():
                pool_fixed_opp = np.full(n_srv, -1, dtype=int)
                planned = np.array(
                    [plan.planned_freq_ghz for plan in allocation.plans]
                )
                for m in range(self._fleet.n_pools):
                    rows = np.flatnonzero((pool_idx == m) & pinned)
                    if rows.size:
                        governor_m = self._pool_governors[m]
                        freqs_m = governor_m.frequencies_ghz
                        pin_freq = planned[rows]
                        if allocation.dynamic_governor:
                            pin_freq = np.where(
                                pin_freq > 0.0,
                                pin_freq,
                                self._pool_f_opt[m],
                            )
                        idx = np.clip(
                            np.searchsorted(
                                freqs_m, pin_freq - _EPS, side="left"
                            ),
                            0,
                            len(freqs_m) - 1,
                        )
                        if allocation.dynamic_governor:
                            idx = np.maximum(
                                idx,
                                governor_m.floor_indices(floors[rows]),
                            )
                        pool_fixed_opp[rows] = idx

        # Flattened (server, sample) bin per (VM, sample) cell: one
        # np.bincount scatter per slot replaces the much slower
        # buffered np.add.at.
        flat_idx = (
            vm2srv[:, None] * n_samples + np.arange(n_samples)[None, :]
        ).ravel()
        class_flat = [
            flat_idx.reshape(n_vms, n_samples)[mask].ravel()
            if mask.any()
            else None
            for mask in class_masks
        ]
        scale_cpu, scale_mem = scale if scale is not None else (None, None)
        return _AllocationAccounting(
            vm2srv=vm2srv,
            n_srv=n_srv,
            active=active,
            floors=floors,
            opp_idx_fixed=opp_idx_fixed,
            flat_idx=flat_idx,
            class_flat=class_flat,
            class_masks=class_masks,
            vm_rows=vm_rows,
            scale_cpu=scale_cpu,
            scale_mem=scale_mem,
            pool_idx=pool_idx,
            pool_fixed_opp=pool_fixed_opp,
            n_failed=fault.n_failed if fault is not None else 0,
            cap_frac=fault.cap_frac if fault is not None else 1.0,
            shed_vms=shed_vms,
            fault_boundary=fault_boundary,
        )

    def _resolve_pool_idx(
        self, allocation: Allocation, n_srv: int
    ) -> np.ndarray:
        """Validated per-server pool indices of a fleet allocation."""
        fleet = self._fleet
        if allocation.server_pools is not None:
            pool_idx = np.asarray(allocation.server_pools, dtype=int)
            if pool_idx.shape != (n_srv,):
                raise ConfigurationError(
                    f"server_pools must tag all {n_srv} plans, got "
                    f"shape {pool_idx.shape}"
                )
        elif fleet.single_pool:
            pool_idx = np.zeros(n_srv, dtype=int)
        else:
            raise ConfigurationError(
                "allocations on a multi-pool fleet must set "
                "Allocation.server_pools"
            )
        if pool_idx.size and (
            pool_idx.min() < 0 or pool_idx.max() >= fleet.n_pools
        ):
            raise ConfigurationError("server_pools index out of range")
        counts = np.bincount(pool_idx, minlength=fleet.n_pools)
        for m, pool in enumerate(fleet.pools):
            if counts[m] > pool.n_servers:
                raise ConfigurationError(
                    f"pool {pool.name!r} capacity exceeded: "
                    f"{int(counts[m])} > {pool.n_servers} servers"
                )
        return pool_idx

    def _eval_pools(
        self,
        util: np.ndarray,
        util_by_class: np.ndarray,
        floors: np.ndarray,
        pool_map: np.ndarray,
        fixed_opp: Optional[np.ndarray] = None,
    ) -> tuple:
        """Per-(window, model) governor + power evaluation.

        The heterogeneous counterpart of the inline homogeneous blocks:
        ``util`` has shape ``(..., n_samples)`` with arbitrary leading
        (…, server) axes, and ``pool_map``/``floors``/``fixed_opp``
        share the leading shape.  For each fleet pool the selected rows
        run through *that pool's* governor, stall table, traffic
        coefficients and cached :class:`VectorizedServerPower` in one
        call — one evaluation per (window, model), never per server.

        All arithmetic is the same elementwise kernel the homogeneous
        blocks use (shared ``DvfsGovernor._demand_indices``, the same
        stall accumulation order, the same ``tensordot`` contraction),
        so with a single-pool fleet the results are bit-identical to
        the homogeneous engine.

        Returns:
            ``(freqs_ghz, power_w)`` arrays shaped like ``util``.
        """
        sps = util.shape[-1]
        n_classes = util_by_class.shape[0]
        # Whole-tensor selections (single-pool fleets — every mix
        # sweep's homogeneous controls) evaluate through reshaped
        # *views*, skipping the window-sized copies boolean indexing
        # would make; only the small per-(…, server) floor/pin vectors
        # are materialized.
        for m in range(self._fleet.n_pools):
            sel = pool_map == m
            if not sel.any():
                continue
            if sel.all():
                fl = np.ascontiguousarray(
                    np.broadcast_to(floors, pool_map.shape)
                ).reshape(-1)
                fx = (
                    np.ascontiguousarray(
                        np.broadcast_to(fixed_opp, pool_map.shape)
                    ).reshape(-1)
                    if fixed_opp is not None
                    else None
                )
                f, p = self._eval_one_pool(
                    m,
                    util.reshape(-1, sps),
                    fl,
                    fx,
                    util_by_class.reshape(n_classes, -1, sps),
                )
                return f.reshape(util.shape), p.reshape(util.shape)
            break
        freqs = np.zeros_like(util)
        power = np.zeros_like(util)
        for m in range(self._fleet.n_pools):
            sel = pool_map == m
            if not sel.any():
                continue
            f, p = self._eval_one_pool(
                m,
                util[sel],
                floors[sel],
                fixed_opp[sel] if fixed_opp is not None else None,
                util_by_class[:, sel],
            )
            freqs[sel] = f
            power[sel] = p
        return freqs, power

    def _eval_one_pool(
        self,
        m: int,
        u: np.ndarray,
        fl: np.ndarray,
        fx: Optional[np.ndarray],
        ubc: np.ndarray,
    ) -> tuple:
        """One pool's governor + power kernel over ``(rows, samples)``.

        The shared arithmetic of both :meth:`_eval_pools` routes; the
        elementwise operations (and their order) match the homogeneous
        blocks exactly, preserving the bit-identity guarantees.
        """
        # Pinned rows never read the governor's choice, so a fully
        # pinned selection (fixed-cap allocations) skips the whole
        # demand-quantization pass; broadcast indices are read-only
        # but only ever used for table lookups below.
        pinned = fx >= 0 if fx is not None else None
        if pinned is not None and pinned.all():
            idx = np.broadcast_to(fx[:, None], u.shape)
        else:
            idx = self._pool_governors[m].opp_indices(u, fl)
            if pinned is not None and pinned.any():
                idx[pinned] = fx[pinned][:, None]
        tables = self._pool_tables[m]
        f = tables.freqs_ghz[idx]
        busy = u * self._pool_fmax[m] / (100.0 * f)
        stall_num = np.zeros_like(u)
        stall_tab = self._pool_stall_tabs[m]
        for ci in range(ubc.shape[0]):
            stall_num += ubc[ci] * stall_tab[ci][idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            stall = np.where(
                u > _EPS, stall_num / np.maximum(u, _EPS), 0.0
            )
        traffic = np.tensordot(
            self._pool_traffic_coeff[m], ubc, axes=([0], [0])
        )
        return f, tables.power_w(idx, busy, stall, traffic)

    def _account_slot(
        self,
        slot: int,
        allocation: Allocation,
        acct: "_AllocationAccounting",
        migrations: int = 0,
    ) -> SlotRecord:
        n_srv = acct.n_srv
        if acct.vm_rows is None:
            real_cpu, real_mem = self._dataset.slot_slice(slot)
        else:
            lo = slot * SAMPLES_PER_SLOT
            hi = lo + SAMPLES_PER_SLOT
            real_cpu = self._dataset.cpu_pct[acct.vm_rows, lo:hi]
            real_mem = self._dataset.mem_pct[acct.vm_rows, lo:hi]
        if acct.scale_cpu is not None:
            real_cpu = real_cpu * acct.scale_cpu[:, None]
            real_mem = real_mem * acct.scale_mem[:, None]
        n_samples = real_cpu.shape[1]
        n_bins = n_srv * n_samples

        # np.bincount accumulates in input order, exactly like np.add.at,
        # but through a single C loop instead of the buffered ufunc.
        util = np.bincount(
            acct.flat_idx, weights=real_cpu.ravel(), minlength=n_bins
        ).reshape(n_srv, n_samples)
        mem_util = np.bincount(
            acct.flat_idx, weights=real_mem.ravel(), minlength=n_bins
        ).reshape(n_srv, n_samples)

        util_by_class = np.zeros((len(acct.class_masks), n_srv, n_samples))
        for ci, mask in enumerate(acct.class_masks):
            flat = acct.class_flat[ci]
            if flat is not None:
                util_by_class[ci] = np.bincount(
                    flat, weights=real_cpu[mask].ravel(), minlength=n_bins
                ).reshape(n_srv, n_samples)

        active = acct.active
        floors = acct.floors

        if acct.pool_idx is not None:
            freqs, power = self._eval_pools(
                util,
                util_by_class,
                floors,
                acct.pool_idx,
                acct.pool_fixed_opp,
            )
        else:
            if acct.opp_idx_fixed is None:
                opp_idx = self._governor.opp_indices(util, floors)
            else:
                opp_idx = acct.opp_idx_fixed

            freqs = self._tables.freqs_ghz[opp_idx]
            # Work-conserving busy fraction: may exceed 1 when a
            # fixed-cap policy is overrun; the excess is deferred work
            # whose dynamic energy is still charged (see
            # VectorizedServerPower.power_w).
            busy = util * self._f_max / (100.0 * freqs)

            stall_num = np.zeros_like(util)
            for ci in range(util_by_class.shape[0]):
                stall_num += (
                    util_by_class[ci] * self._stall_tab[ci][opp_idx]
                )
            with np.errstate(divide="ignore", invalid="ignore"):
                stall = np.where(
                    util > _EPS, stall_num / np.maximum(util, _EPS), 0.0
                )

            traffic = np.tensordot(
                self._traffic_coeff, util_by_class, axes=([0], [0])
            )

            power = self._tables.power_w(opp_idx, busy, stall, traffic)
        power = power * active[:, None]
        if self._psu is not None:
            # Vectorized quadratic PSU loss; fixed loss only for servers
            # that are actually powered.
            power = (
                power
                + self._psu.loss_fixed_w * active[:, None]
                + self._psu.loss_prop * power
                + self._psu.loss_sq_per_w * power**2
            )
        capped_samples = 0
        if acct.cap_frac < 1.0:
            # Fleet power cap: samples whose aggregate draw exceeds the
            # budget are throttled proportionally (rack-level power
            # capping clamps every server's limit by the same factor).
            budget = self._nominal_power_w * acct.cap_frac
            fleet_w = power.sum(axis=0)
            scale_cap = np.minimum(
                1.0, budget / np.maximum(fleet_w, _EPS)
            )
            capped_samples = int((scale_cap < 1.0).sum())
            power = power * scale_cap[None, :]
        energy_j = float(power.sum() * SAMPLE_PERIOD_S)
        energy_j += migrations * self._migration_energy_j

        cap = allocation.violation_cap_pct
        overutilized = (util > cap + _EPS) | (mem_util > 100.0 + _EPS)
        violations = int((overutilized & active[:, None]).sum())

        # Selecting active rows directly is bit-identical to the seed's
        # dense (server, sample) mask — both flatten the same elements in
        # row-major order — without materializing the mask.
        mean_freq = float(freqs[active].mean()) if active.any() else 0.0
        return SlotRecord(
            slot_index=slot,
            case=allocation.case,
            n_active_servers=int(active.sum()),
            violations=violations,
            forced_placements=allocation.forced_placements,
            energy_j=energy_j,
            mean_freq_ghz=mean_freq,
            f_opt_ghz=allocation.f_opt_ghz or 0.0,
            migrations=migrations,
            shed_vms=acct.shed_vms,
            n_failed_servers=acct.n_failed,
            capped_samples=capped_samples,
            fault_migrations=(
                migrations if acct.fault_boundary else 0
            ),
        )

    def _account_batch(
        self,
        first_slot: int,
        n_window: int,
        allocation: Allocation,
        acct: "_AllocationAccounting",
        migrations: int,
    ) -> List[SlotRecord]:
        """The accounting kernel: one allocation window in one pass.

        Stacks the window's real-trace slots into ``(n_window, n_servers,
        n_samples)`` tensors, aggregates them with a single bincount
        scatter over flattened (slot, server, sample) bins and evaluates
        governor, stall, traffic and power for the whole window at once
        (one evaluation per fleet model on heterogeneous fleets).  Every
        per-slot quantity is reduced over the same contiguous slice in
        the same element order as :meth:`_account_slot`, so the emitted
        records are bit-identical to the per-slot reference.
        """
        n_srv = acct.n_srv
        sps = SAMPLES_PER_SLOT
        lo = first_slot * sps
        hi = (first_slot + n_window) * sps
        if acct.vm_rows is None:
            n_vms = self._dataset.n_vms
            real_cpu = self._dataset.cpu_pct[:, lo:hi]
            real_mem = self._dataset.mem_pct[:, lo:hi]
        else:
            n_vms = int(acct.vm_rows.shape[0])
            real_cpu = self._dataset.cpu_pct[acct.vm_rows, lo:hi]
            real_mem = self._dataset.mem_pct[acct.vm_rows, lo:hi]
        if acct.scale_cpu is not None:
            # Scaling before the per-slot reshape applies the same
            # elementwise multiply the per-slot path performs, keeping
            # the scatter inputs (hence all sums) bit-identical.
            real_cpu = real_cpu * acct.scale_cpu[:, None]
            real_mem = real_mem * acct.scale_mem[:, None]
        real_cpu = real_cpu.reshape(n_vms, n_window, sps)
        real_mem = real_mem.reshape(n_vms, n_window, sps)
        n_bins = n_window * n_srv * sps

        # Flattened (slot, server, sample) bin per (VM, slot, sample)
        # cell.  Raveling in (VM, slot, sample) order keeps the VMs of
        # every bin in ascending order — the same accumulation order as
        # the per-slot scatter, hence bit-identical sums.
        flat = (
            acct.flat_idx.reshape(n_vms, 1, sps)
            + (np.arange(n_window) * (n_srv * sps))[None, :, None]
        )
        util = np.bincount(
            flat.ravel(), weights=real_cpu.ravel(), minlength=n_bins
        ).reshape(n_window, n_srv, sps)
        mem_util = np.bincount(
            flat.ravel(), weights=real_mem.ravel(), minlength=n_bins
        ).reshape(n_window, n_srv, sps)

        util_by_class = np.zeros(
            (len(acct.class_masks), n_window, n_srv, sps)
        )
        for ci, mask in enumerate(acct.class_masks):
            if acct.class_flat[ci] is not None:
                util_by_class[ci] = np.bincount(
                    flat[mask].ravel(),
                    weights=real_cpu[mask].ravel(),
                    minlength=n_bins,
                ).reshape(n_window, n_srv, sps)

        active = acct.active
        floors = acct.floors

        if acct.pool_idx is not None:
            shape = (n_window, n_srv)
            freqs, power = self._eval_pools(
                util,
                util_by_class,
                np.broadcast_to(floors[None], shape),
                np.broadcast_to(acct.pool_idx[None], shape),
                (
                    np.broadcast_to(acct.pool_fixed_opp[None], shape)
                    if acct.pool_fixed_opp is not None
                    else None
                ),
            )
        else:
            if acct.opp_idx_fixed is None:
                opp_idx = self._governor.opp_indices_window(util, floors)
            else:
                opp_idx = np.broadcast_to(
                    acct.opp_idx_fixed[None], (n_window, n_srv, sps)
                )

            freqs = self._tables.freqs_ghz[opp_idx]
            busy = util * self._f_max / (100.0 * freqs)

            stall_num = np.zeros_like(util)
            for ci in range(util_by_class.shape[0]):
                stall_num += (
                    util_by_class[ci] * self._stall_tab[ci][opp_idx]
                )
            with np.errstate(divide="ignore", invalid="ignore"):
                stall = np.where(
                    util > _EPS, stall_num / np.maximum(util, _EPS), 0.0
                )

            traffic = np.tensordot(
                self._traffic_coeff, util_by_class, axes=([0], [0])
            )

            power = self._tables.power_w(opp_idx, busy, stall, traffic)
        power = power * active[None, :, None]
        if self._psu is not None:
            power = (
                power
                + self._psu.loss_fixed_w * active[None, :, None]
                + self._psu.loss_prop * power
                + self._psu.loss_sq_per_w * power**2
            )

        capped = np.zeros(n_window, dtype=int)
        if acct.cap_frac < 1.0:
            # Same per-sample throttle as the per-slot oracle, batched
            # over the window: the reduction axis (servers) has the
            # same length and order, so the budgets agree bit-exactly.
            budget = self._nominal_power_w * acct.cap_frac
            fleet_w = power.sum(axis=1)
            scale_cap = np.minimum(
                1.0, budget / np.maximum(fleet_w, _EPS)
            )
            capped = (scale_cap < 1.0).sum(axis=1)
            power = power * scale_cap[:, None, :]

        cap = allocation.violation_cap_pct
        overutilized = (util > cap + _EPS) | (mem_util > 100.0 + _EPS)
        violations = (overutilized & active[None, :, None]).sum(axis=(1, 2))

        n_active = int(active.sum())
        any_active = bool(active.any())
        records: List[SlotRecord] = []
        for w in range(n_window):
            energy_j = float(power[w].sum() * SAMPLE_PERIOD_S)
            if w == 0:
                energy_j += migrations * self._migration_energy_j
            mean_freq = (
                float(freqs[w][active].mean()) if any_active else 0.0
            )
            records.append(
                SlotRecord(
                    slot_index=first_slot + w,
                    case=allocation.case,
                    n_active_servers=n_active,
                    violations=int(violations[w]),
                    forced_placements=allocation.forced_placements,
                    energy_j=energy_j,
                    mean_freq_ghz=mean_freq,
                    f_opt_ghz=allocation.f_opt_ghz or 0.0,
                    migrations=migrations if w == 0 else 0,
                    shed_vms=acct.shed_vms,
                    n_failed_servers=acct.n_failed,
                    capped_samples=int(capped[w]),
                    fault_migrations=(
                        migrations
                        if w == 0 and acct.fault_boundary
                        else 0
                    ),
                )
            )
        return records


def count_migrations(
    previous_map: np.ndarray,
    new_map: np.ndarray,
    previous_pools: Optional[np.ndarray] = None,
    new_pools: Optional[np.ndarray] = None,
) -> int:
    """Minimum-ish VM migrations between two assignments.

    Server indices are arbitrary per allocation, so a raw comparison of
    maps over-counts wildly.  Instead, old and new servers are matched
    one-to-one by greedy maximum VM overlap (each matched pair is "the
    same physical server keeping its VMs"); every VM outside a matched
    overlap must have moved.  Greedy matching on sorted overlaps is the
    standard first-order estimate of reallocation churn.

    On heterogeneous fleets a server can only be "the same physical
    server" within its own pool — a block of VMs landing on a server of
    a *different* platform genuinely moved (across ISAs, no less) — so
    when per-server pool indices are supplied, cross-pool (old, new)
    pairs are excluded from the matching.  Single-pool fleets filter
    nothing, preserving the homogeneous counts exactly.

    The overlap histogram is built with one ``np.bincount`` over the
    flattened (old, new) pair codes and only its non-zero entries (at
    most one per VM) are sorted — the seed's Python double loop over the
    dense ``n_old x n_new`` matrix made every reallocation quadratic in
    the fleet size.  ``_count_migrations_reference`` preserves the seed
    implementation as the equivalence oracle.
    """
    if previous_map.shape != new_map.shape:
        raise ConfigurationError("assignment maps must cover the same VMs")
    n_vms = previous_map.shape[0]
    if n_vms == 0:
        return 0
    n_new = int(new_map.max()) + 1
    counts = np.bincount(previous_map * n_new + new_map)
    nz = np.flatnonzero(counts)
    overlap = counts[nz]
    old_ids = nz // n_new
    new_ids = nz % n_new
    if previous_pools is not None and new_pools is not None:
        same = previous_pools[old_ids] == new_pools[new_ids]
        overlap = overlap[same]
        old_ids = old_ids[same]
        new_ids = new_ids[same]
    return n_vms - _greedy_kept(overlap, old_ids, new_ids)


def _greedy_kept(
    overlap: np.ndarray, old_ids: np.ndarray, new_ids: np.ndarray
) -> int:
    """VMs kept in place by greedy (old, new) server matching.

    Pairs are visited by the reference sort key ``(-count, old, new)``;
    each old and new server is matched at most once.
    """
    order = np.lexsort((new_ids, old_ids, -overlap))
    used_old = set()
    used_new = set()
    kept = 0
    # Plain-int lists keep the greedy scan free of NumPy scalar
    # boxing/unboxing — the loop runs once per reallocation on up to
    # one pair per server, so constant factors matter here.
    for o, nw, cnt in zip(
        old_ids[order].tolist(),
        new_ids[order].tolist(),
        overlap[order].tolist(),
    ):
        if o not in used_old and nw not in used_new:
            used_old.add(o)
            used_new.add(nw)
            kept += cnt
    return kept


def _count_migrations_reference(
    previous_map: np.ndarray, new_map: np.ndarray
) -> int:
    """The seed implementation of :func:`count_migrations` (oracle)."""
    if previous_map.shape != new_map.shape:
        raise ConfigurationError("assignment maps must cover the same VMs")
    n_vms = previous_map.shape[0]
    if n_vms == 0:
        return 0
    n_old = int(previous_map.max()) + 1
    n_new = int(new_map.max()) + 1
    overlap = np.zeros((n_old, n_new), dtype=int)
    np.add.at(overlap, (previous_map, new_map), 1)

    pairs = [
        (int(overlap[i, j]), i, j)
        for i in range(n_old)
        for j in range(n_new)
        if overlap[i, j] > 0
    ]
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    used_old = np.zeros(n_old, dtype=bool)
    used_new = np.zeros(n_new, dtype=bool)
    kept = 0
    for count, old, new in pairs:
        if not used_old[old] and not used_new[new]:
            used_old[old] = True
            used_new[new] = True
            kept += count
    return n_vms - kept


def shared_predictions(
    dataset: TraceDataset,
    predictor,
    start_slot: Optional[int] = None,
    n_slots: Optional[int] = None,
    shm: bool = False,
):
    """Freeze the predictions a simulation horizon needs into arrays.

    Computes (once) every day-ahead forecast the horizon touches.  The
    defaults mirror :class:`DataCenterSimulation`'s horizon derivation.

    With ``shm=False`` (default) the result is a
    :class:`~repro.forecast.predictor.PrecomputedPredictor`: plain
    per-day arrays that pickle **by value** into worker processes — one
    copy per worker, no cleanup, garbage-collected like any object.

    With ``shm=True`` the result is a :class:`~repro.shard.shm
    .SharedPredictions`: the same forecasts in one
    ``multiprocessing.shared_memory`` segment that workers map
    zero-copy.  The segment is a kernel object with an explicit
    lifetime — the caller owns it and must ``close()`` and ``unlink()``
    it (or use the ``with`` form) when every consumer is done; see
    :mod:`repro.shard.shm` for the full protocol.  Both forms expose
    the same predictor interface and identical values.
    """
    from ..shard.shm import prediction_days

    days = prediction_days(dataset, predictor, start_slot, n_slots)
    if shm:
        from ..shard.shm import SharedPredictions

        return SharedPredictions.from_predictor(predictor, days)
    from ..forecast.predictor import PrecomputedPredictor

    return PrecomputedPredictor.from_predictor(predictor, days)


def _run_one_policy(
    dataset,
    predictor,
    policy: AllocationPolicy,
    kwargs: Dict,
) -> SimulationResult:
    """Worker entry point: one policy's full simulation (picklable).

    ``dataset`` may be a :class:`~repro.shard.shm.SharedTraces` handle
    (mapped zero-copy) or a plain :class:`TraceDataset`.
    """
    from ..shard.shm import materialize

    return DataCenterSimulation(
        materialize(dataset), predictor, policy, **kwargs
    ).run()


def run_policies(
    dataset: TraceDataset,
    predictor,
    policies: Iterable[AllocationPolicy],
    jobs: int = 1,
    tracer=None,
    metrics=None,
    shared=None,
    **kwargs,
) -> Dict[str, SimulationResult]:
    """Run several policies over the same traces and predictions.

    Sharing the predictor across policies both matches the paper's
    protocol and amortizes the ARIMA fitting cost.  This is the common
    runner surface — :func:`~repro.dcsim.cloud.run_cloud_policies` and
    :func:`~repro.cloud.streaming.run_streaming_policies` take the same
    ``jobs`` / ``tracer`` / ``metrics`` / ``shared`` keywords.

    Args:
        dataset: the VM utilization traces.
        predictor: shared day-ahead predictor.
        policies: the policies to compare.
        jobs: number of worker processes.  With ``jobs > 1`` the
            policies fan out over a ``ProcessPoolExecutor``; traces and
            the horizon's day-ahead predictions are written once into
            shared-memory segments that every worker maps zero-copy
            (:class:`~repro.shard.shm.SharedRunInputs`), so no worker
            re-fits the forecaster or receives pickled matrices.
            Results are identical to the serial run.
        tracer: optional :class:`~repro.obs.tracer.RunTracer`.  Serial
            runs thread it into every engine; parallel fans drop it
            (open file handles don't cross pickle boundaries) —
            sweep-level task events come from the experiments pool
            layer instead.  Same for ``metrics``.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`.
        shared: optional caller-owned :class:`~repro.shard.shm
            .SharedRunInputs` to reuse across several runner calls.
            When omitted, a parallel run creates (and disposes) its
            own; the caller-owned handle's ``close()``/``unlink()``
            stays the caller's job.
        **kwargs: forwarded to :class:`DataCenterSimulation`.
    """
    policy_list = list(policies)
    if jobs is None or jobs <= 1 or len(policy_list) <= 1:
        results: Dict[str, SimulationResult] = {}
        for policy in policy_list:
            sim = DataCenterSimulation(
                dataset,
                predictor,
                policy,
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
                    _run_one_policy,
                    shared.traces,
                    shared.predictions,
                    policy,
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
