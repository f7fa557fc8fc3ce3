"""Window-loop invariants as seeded properties (hypothesis).

Every engine runs the one window loop of
:class:`~repro.dcsim.engine.DataCenterSimulation`; these properties
drive it over random small fleets x churn x fault schedules:

* the accounting kernel's records equal the per-slot oracle's
  (``window_batch=False``), bit for bit;
* every active, unshed VM is placed exactly once per window;
* a window's migrations never exceed the VMs placed on both sides of
  its boundary;
* a zero-churn :class:`~repro.dcsim.CloudSimulation` equals the
  fixed-population :class:`~repro.dcsim.DataCenterSimulation`;
* a clean-feed :class:`~repro.cloud.StreamingCloudSimulation` equals
  the batch cloud run;
* a streaming run over a degraded feed, resumed from a checkpoint at a
  random window, equals the uninterrupted run.

Examples are derandomized, so tier-1 stays deterministic.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.baselines import CoatPolicy, OnlineReactivePolicy
from repro.cloud import (
    TELEMETRY_SCENARIOS,
    CloudSimulation,
    FaultSchedule,
    StreamingCloudSimulation,
    fixed_schedule,
    get_telemetry_scenario,
    zero_telemetry_faults,
)
from repro.core import EpactPolicy
from repro.dcsim import DataCenterSimulation
from repro.forecast import DayAheadPredictor
from repro.traces import LifecycleSchedule, default_dataset

N_VMS = 24
START = 168  # first predictable slot of the 9-day traces
MAX_SLOTS = 30

loop_settings = settings(derandomize=True, max_examples=20, deadline=None)

#: Each resume example runs two streaming simulations; shrinking a
#: failure takes thousands of them (over 15 minutes), so a failing
#: example is reported as found.
resume_settings = settings(
    loop_settings,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)

#: Degraded feeds: every registered scenario except the lossless one.
DEGRADED_FEEDS = tuple(
    name for name in TELEMETRY_SCENARIOS if name != "clean"
)


def records_equal(a, b):
    """Exact (bitwise for floats) equality of two record lists."""
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


@pytest.fixture(scope="module")
def ds():
    return default_dataset(n_vms=N_VMS, n_days=9, seed=71)


@pytest.fixture(scope="module")
def pred(ds):
    predictor = DayAheadPredictor(ds)
    for day in range(7, ds.n_days):
        predictor.forecast_day(day)
    return predictor


POLICIES = {
    "epact": EpactPolicy,
    "coat-24": lambda: CoatPolicy(reallocation_period_slots=24),
    "reactive": OnlineReactivePolicy,
}


@st.composite
def scenarios(draw, policies=tuple(POLICIES), churn=True):
    """A horizon, fleet size, policy, lifecycle and fault schedule."""
    n_slots = draw(st.integers(3, MAX_SLOTS))
    max_servers = draw(st.integers(4, 12))
    policy = draw(st.sampled_from(policies))
    if churn:
        # Per VM: arrival offset (negative = running from the start)
        # and lifetime, in slots relative to the horizon start.
        spans = draw(
            st.lists(
                st.tuples(
                    st.integers(-2, n_slots - 1),
                    st.integers(1, n_slots + 2),
                ),
                min_size=N_VMS,
                max_size=N_VMS,
            )
        )
        arrival = np.array(
            [0 if a < 0 else START + a for a, _ in spans]
        )
        departure = np.array(
            [START + max(a, 0) + life for a, life in spans]
        )
        resizes = draw(
            st.lists(
                st.tuples(
                    st.integers(0, N_VMS - 1),
                    st.integers(START, START + n_slots - 1),
                    st.floats(0.3, 1.8),
                    st.floats(0.3, 1.8),
                ),
                max_size=3,
            )
        )
    else:
        arrival = departure = None
        resizes = []
    outages, caps = [], []
    if draw(st.booleans()):
        # Outages on distinct servers, so at least one always survives;
        # tight fleets force re-placement and (online policies) shedding.
        outages = draw(
            st.lists(
                st.tuples(
                    st.integers(0, max_servers - 1),
                    st.integers(START, START + n_slots - 1),
                    st.integers(1, 8),
                ),
                min_size=1,
                max_size=max_servers - 1,
                unique_by=lambda event: event[0],
            )
        )
        cap = draw(
            st.none()
            | st.tuples(
                st.integers(START, START + n_slots - 1),
                st.integers(1, 8),
                st.floats(0.02, 0.5),
            )
        )
        caps = [] if cap is None else [cap]
    return dict(
        n_slots=n_slots,
        max_servers=max_servers,
        policy=policy,
        arrival=arrival,
        departure=departure,
        resizes=resizes,
        outages=[(s, t, t + n) for s, t, n in outages],
        caps=[(t, t + n, f) for t, n, f in caps],
    )


#: A fleet squeezed to one surviving server under a deep power cap, with
#: arrivals and a resize mid-outage: the online policy sheds VMs.
SHED_SCENARIO = dict(
    n_slots=6,
    max_servers=4,
    policy="reactive",
    arrival=np.array([0] * 12 + [START + 2] * 12),
    departure=np.full(N_VMS, START + 6),
    resizes=[(0, START + 3, 1.5, 1.2)],
    outages=[
        (0, START + 1, START + 5),
        (1, START + 1, START + 5),
        (2, START + 2, START + 4),
    ],
    caps=[(START + 3, START + 5, 0.05)],
)


def build(ds, scenario):
    """(lifecycle, engine kwargs) of a drawn scenario."""
    if scenario["arrival"] is None:
        lifecycle = fixed_schedule(ds.n_vms, 0, ds.n_slots)
    else:
        lifecycle = LifecycleSchedule(
            scenario["arrival"],
            np.minimum(scenario["departure"], ds.n_slots),
            horizon_start=0,
            horizon_end=ds.n_slots,
            resize_events=scenario["resizes"],
        )
    kwargs = dict(
        n_slots=scenario["n_slots"], max_servers=scenario["max_servers"]
    )
    if scenario["outages"] or scenario["caps"]:
        kwargs["faults"] = FaultSchedule(
            scenario["max_servers"],
            0,
            ds.n_slots,
            server_outages=scenario["outages"],
            cap_windows=scenario["caps"],
        )
    return lifecycle, kwargs


class TestWindowLoopProperties:
    @loop_settings
    @given(scenario=scenarios())
    @example(scenario=SHED_SCENARIO)
    def test_kernel_equals_per_slot_oracle(self, ds, pred, scenario):
        lifecycle, kwargs = build(ds, scenario)
        policy = POLICIES[scenario["policy"]]
        kernel = CloudSimulation(
            ds, pred, policy(), lifecycle, **kwargs
        ).run()
        oracle = CloudSimulation(
            ds, pred, policy(), lifecycle, window_batch=False, **kwargs
        ).run()
        assert records_equal(kernel.records, oracle.records)
        assert len(kernel.records) == scenario["n_slots"]
        if scenario is SHED_SCENARIO:  # the example is not vacuous
            assert sum(r.shed_vms for r in kernel.records) > 0
            assert kernel.total_capped_samples > 0

    @loop_settings
    @given(scenario=scenarios())
    @example(scenario=SHED_SCENARIO)
    def test_placement_and_migration_bounds(self, ds, pred, scenario):
        lifecycle, kwargs = build(ds, scenario)
        sim = CloudSimulation(
            ds, pred, POLICIES[scenario["policy"]](), lifecycle, **kwargs
        )
        prev_placed = None
        for window in sim._windows():
            if window.allocation is None:  # empty cloud
                assert window.active.size == 0
                prev_placed = np.empty(0, dtype=int)
                continue
            local = sorted(
                v for plan in window.allocation.plans for v in plan.vm_ids
            )
            shed = set(window.allocation.shed_vm_ids)
            # Every active, unshed VM exactly once; nothing else.
            assert local == sorted(
                set(range(window.active.size)) - shed
            )
            placed = window.active[local]
            if prev_placed is None:
                assert window.migrations == 0
            else:
                persisting = np.intersect1d(prev_placed, placed).size
                assert 0 <= window.migrations <= persisting
            prev_placed = placed

    @loop_settings
    @given(scenario=scenarios(policies=("epact", "coat-24"), churn=False))
    def test_zero_churn_cloud_equals_fixed(self, ds, pred, scenario):
        lifecycle, kwargs = build(ds, scenario)
        policy = POLICIES[scenario["policy"]]
        fixed = DataCenterSimulation(ds, pred, policy(), **kwargs).run()
        cloud = CloudSimulation(
            ds, pred, policy(), lifecycle, **kwargs
        ).run()
        # Cloud records additionally carry the membership size, which
        # the fixed-population engine leaves at 0 ("not tracked").
        assert all(r.n_active_vms == ds.n_vms for r in cloud.records)
        assert records_equal(
            fixed.records,
            [replace(r, n_active_vms=0) for r in cloud.records],
        )

    @loop_settings
    @given(scenario=scenarios())
    @example(scenario=SHED_SCENARIO)
    def test_clean_feed_streaming_equals_batch(self, ds, pred, scenario):
        lifecycle, kwargs = build(ds, scenario)
        policy = POLICIES[scenario["policy"]]
        batch = CloudSimulation(
            ds, pred, policy(), lifecycle, **kwargs
        ).run()
        streaming = StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            policy(),
            lifecycle,
            telemetry=zero_telemetry_faults(ds.n_vms, 0, ds.n_slots),
            **kwargs,
        ).run()
        assert records_equal(batch.records, streaming.records)

    @resume_settings
    @given(
        scenario=scenarios(),
        feed=st.sampled_from(DEGRADED_FEEDS),
        feed_seed=st.integers(0, 3),
        data=st.data(),
    )
    def test_resume_at_random_window_equals_uninterrupted(
        self, ds, scenario, feed, feed_seed, data
    ):
        lifecycle, kwargs = build(ds, scenario)
        policy = POLICIES[scenario["policy"]]
        telemetry = get_telemetry_scenario(feed).build(
            ds.n_vms, 0, ds.n_slots, seed=feed_seed
        )
        every = data.draw(st.integers(1, scenario["n_slots"]), "every")

        def streaming(**extra):
            return StreamingCloudSimulation(
                ds,
                DayAheadPredictor(ds),
                policy(),
                lifecycle,
                telemetry=telemetry,
                **kwargs,
                **extra,
            )

        first = streaming(checkpoint_every_slots=every)
        full = first.run()
        # The horizon end is always a checkpoint boundary.
        assert first.checkpoints
        pick = data.draw(
            st.integers(0, len(first.checkpoints) - 1), "checkpoint"
        )
        snapshot = pickle.loads(pickle.dumps(first.checkpoints[pick]))
        resumed = streaming()
        resumed.restore(snapshot)
        assert records_equal(full.records, resumed.run().records)
        # The forecasts each day was planned from, too: a late backfill
        # after the snapshot must not rewrite a decision made before it.
        want = first._ladder.state()["days"]
        got = resumed._ladder.state()["days"]
        assert want.keys() == got.keys()
        for day, (rung, cpu, mem) in want.items():
            assert got[day][0] == rung
            for ours, theirs in zip((cpu, mem), got[day][1:]):
                assert (ours is None) == (theirs is None)
                if ours is not None:
                    np.testing.assert_array_equal(ours, theirs)
