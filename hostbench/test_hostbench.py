"""Tests of the benchmark itself: kernel, arithmetic, names, pins, tracing.

The workloads run here at toy sizes (tens of VMs) with a stub kernel, so
the suite checks the benchmark's plumbing without timing anything.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from hostbench import kernel, load_benchmark, pins, tracing
from hostbench.run import Iteration, end_to_end, run_benchmark
from hostbench.workloads import (
    ChurnFaultsWorkload,
    PaperWorkload,
    ServeLossyWorkload,
)

BENCHMARK = load_benchmark()
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


class StubKernel:
    """Constant-time stand-in: host index exactly 1."""

    def run(self) -> float:
        return 0.0

    def timed(self) -> float:
        return kernel.KERNEL_NOMINAL_S


def tiny_workloads():
    return [
        PaperWorkload(n_vms=30, name="tiny_paper"),
        ServeLossyWorkload(n_vms=40, n_servers=20, name="tiny_serve"),
        ChurnFaultsWorkload(n_vms=60, n_servers=20, name="tiny_churn"),
    ]


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Untraced and traced benchmark runs of every toy workload."""
    out = {}
    for workload in tiny_workloads():
        for trace in (0, 1):
            out[workload.name, trace] = run_benchmark(
                workload,
                seed=3,
                seconds=0,
                trace=trace,
                record_dir=tmp_path_factory.mktemp(f"{workload.name}{trace}"),
                kernel=StubKernel(),
            )
    return out


def test_kernel_does_fixed_work_on_its_own_arrays():
    first, second = kernel.ReferenceKernel(), kernel.ReferenceKernel()
    inputs = [a.copy() for a in (first._lhs, first._rhs, first._scatter_w)]
    checksum = first.run()
    assert checksum == first.run() == second.run()
    for before, after in zip(
        inputs, (first._lhs, first._rhs, first._scatter_w)
    ):
        np.testing.assert_array_equal(before, after)


def test_normalization_arithmetic():
    nominal = kernel.KERNEL_NOMINAL_S
    assert kernel.host_index(nominal, nominal) == pytest.approx(1.0)
    # A host twice as slow: kernel and iteration both take twice as
    # long, and the normalized time is the nominal-host time.
    index = kernel.host_index(1.5 * nominal, 2.5 * nominal)
    assert index == pytest.approx(2.0)
    assert kernel.normalize_seconds(6.0, index) == pytest.approx(3.0)

    def iteration(setup_s, sim_s, kernel_s, windows):
        return Iteration(
            traced=False,
            phase_s=[setup_s, sim_s / 4, 3 * sim_s / 4],
            kernel_s=[kernel_s] * 4,
            vm_slots=1000,
            n_windows=len(windows),
            windows=windows,
            window_classes=["window"] * len(windows),
            window_part=0,
            totals={},
        )

    its = [
        iteration(1.0, 2.0, nominal, [0.010, 0.020]),
        iteration(2.0, 4.0, 2 * nominal, [0.020, 0.040]),
        iteration(1.5, 3.0, 1.5 * nominal, [0.015, 0.030]),
    ]
    norm = end_to_end(its, normalized=True)
    raw = end_to_end(its, normalized=False)
    assert norm["setup_s"] == pytest.approx(1.0)
    assert norm["vm_slots_per_s"] == pytest.approx(500.0)
    assert norm["decision_p50_ms"] == pytest.approx(15.0)
    assert raw["setup_s"] == pytest.approx(1.5)
    assert raw["vm_slots_per_s"] == pytest.approx(1000 / 3.0)


def test_metric_names_are_well_formed_and_emitted(tiny_runs):
    declared_e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    declared_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    for name in declared_e2e + declared_layer:
        assert NAME.match(name), name
    assert len(set(declared_layer)) == len(declared_layer)
    for (_, trace), (result, record) in tiny_runs.items():
        assert result["correct"] and result["failed"] == 0
        expected = declared_layer if trace else declared_e2e
        assert list(result["metrics"]) == expected
        # Everything the run computes is declared, and the reverse.
        computed = record["per_layer"] if trace else record["end_to_end"]
        assert set(computed) == set(expected)
        for metric in result["metrics"].values():
            assert set(metric) == {"value", "unit"}
            assert math.isfinite(metric["value"])
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_perturbed_pin_is_reported_incorrect(tmp_path):
    workload = PaperWorkload(n_vms=30, name="tiny_paper")
    _, record = run_benchmark(
        workload, 5, 0, 0, tmp_path, kernel=StubKernel(), pin_table={}
    )
    good = record["outputs"]
    assert pins.compare_totals(good, good) == []
    # BLAS last-digit noise passes; anything larger does not.
    blas = json.loads(json.dumps(good))
    blas["EPACT"]["energy_j"] *= 1 + 1e-12
    assert pins.compare_totals(good, blas) == []
    for policy, key, bump in (
        ("EPACT", "energy_j", 1e-6),
        ("COAT", "migrations", 1),
        ("EPACT", "violations", 1),
    ):
        bad = json.loads(json.dumps(good))
        if key == "energy_j":
            bad[policy][key] *= 1 + bump
        else:
            bad[policy][key] += bump
        assert pins.compare_totals(bad, good), (policy, key)
        result, record = run_benchmark(
            workload,
            5,
            0,
            0,
            tmp_path,
            kernel=StubKernel(),
            pin_table={"tiny_paper": {"5": bad}},
        )
        assert result["correct"] is False
        assert result["failed"] == result["attempted"] >= 1
        assert record["pin"]


def _self_times(spans):
    """Span name -> summed self time, from a run record's span list."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            covered[span["parent"]] += span["end_s"] - span["start_s"]
    out = {}
    for span, child_s in zip(spans, covered):
        own = span["end_s"] - span["start_s"] - child_s
        out[span["name"]] = out.get(span["name"], 0.0) + own
    return out


def test_traced_self_times_sum_to_wall(tiny_runs):
    self_metrics = set(tracing.SELF_TIME_METRICS.values())
    for (name, trace), (result, record) in tiny_runs.items():
        if not trace:
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        (spans,) = record["spans"]
        (index,) = [
            it["host_index"] for it in record["iterations"] if it["traced"]
        ]
        self_s = _self_times(spans)
        # Every span is owned by a layer metric or by unattributed_s.
        assert set(self_s) - set(tracing.SELF_TIME_METRICS) == {"setup"}, name
        assert values["unattributed_s"] == pytest.approx(
            self_s["setup"] / index, rel=1e-9, abs=1e-9
        )
        for metric in self_metrics:
            expected = sum(
                t
                for span, t in self_s.items()
                if tracing.SELF_TIME_METRICS.get(span) == metric
            )
            assert values[metric] == pytest.approx(
                expected / index, rel=1e-9, abs=1e-9
            ), (name, metric)
        total = sum(values[m] for m in self_metrics | {"unattributed_s"})
        assert total == pytest.approx(values["trace.wall_s"], rel=1e-9)
        assert values["trace.wall_s"] > 0
        assert spans[0]["name"] == "setup"


def test_layer_wrappers_are_removed_after_tracing(tiny_runs):
    from repro.cloud.telemetry import TelemetryIngest
    from repro.core.epact import EpactPolicy

    assert not hasattr(EpactPolicy.allocate, "__wrapped__")
    assert not hasattr(TelemetryIngest.ingest, "__wrapped__")


def test_span_recorder_self_times():
    recorder = tracing.SpanRecorder()
    with recorder.span("iteration"):
        with recorder.span("simulate"):
            with recorder.span("policy.epact"):
                pass
            with recorder.span("forecast"):
                pass
    self_times = recorder.self_times()
    wall = recorder.spans[0][2] - recorder.spans[0][1]
    assert sum(self_times.values()) == pytest.approx(wall, rel=1e-9)
    assert [s[3] for s in recorder.spans] == [-1, 0, 1, 1]
