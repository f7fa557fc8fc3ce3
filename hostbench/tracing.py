"""Per-layer attribution for the traced run.

Spans are recorded from outside the program: for the traced iteration
only, the public calls at each layer boundary are wrapped on their
classes (:func:`patched_layers`), and the engines' existing ``metrics=``
seam receives a :class:`TracedMetrics` whose phases open spans too.
Untraced iterations run the unmodified classes.

A layer's self time is its spans' duration minus the time covered by
their child spans, so the self times of all spans sum to the traced
iteration's wall time; :func:`layer_metrics` maps span names onto the
per-layer metric names and reports the self time of the spans in
:data:`UNATTRIBUTED_SPANS` as ``unattributed_s``.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from .workloads import DecisionClock

#: Short metric names of the policies the workloads run.
POLICY_KEYS = {"EPACT": "epact", "COAT": "coat", "ONLINE-REACTIVE": "reactive"}

#: Ladder rungs, as reported by ``WindowDecision.rung``.
RUNGS = ("fresh", "stale", "persistence", "reactive-only")

#: Serve window classes (see :func:`workloads.window_class`).
WINDOW_CLASSES = ("ordinary", "day_boundary", "checkpointed")

#: Span name -> the self-time metric it is attributed to.  The self
#: time of ``simulate`` is the engine's own window loop.
SELF_TIME_METRICS = {
    "setup.traces": "setup.traces_s",
    "setup.faults": "setup.faults_s",
    "setup.feed": "setup.feed_s",
    "forecast": "forecast.busy_s",
    "engine.allocate": "engine.prepare_s",
    "engine.account": "engine.account_s",
    "engine.forecast": "engine.self_s",
    "engine.policy": "engine.self_s",
    "simulate": "engine.self_s",
    "telemetry.poll": "telemetry.poll_s",
    "telemetry.ingest": "telemetry.ingest_s",
    "telemetry.fill": "telemetry.fill_s",
    "ladder": "ladder.busy_s",
}
for _key in POLICY_KEYS.values():
    SELF_TIME_METRICS[f"policy.{_key}"] = f"policy.{_key}.busy_s"

#: Spans whose self time no layer owns: ``setup``'s is the benchmark's
#: glue, predictor and engine construction.  It is ``unattributed_s``.
UNATTRIBUTED_SPANS = ("setup",)


class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent index]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def open(self, name: str) -> None:
        """Start a span, child of the innermost open one."""
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def close(self) -> None:
        """End the innermost open span."""
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self time (duration minus children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start - covered)
        return out

    def durations(self, name: str) -> List[float]:
        """Inclusive durations of every span called ``name``."""
        return [e - s for n, s, e, _ in self.spans if n == name]

    def as_records(self) -> List[dict]:
        """The spans as JSON-ready dicts, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {
                "name": name,
                "start_s": start - origin,
                "end_s": end - origin,
                "parent": parent,
            }
            for name, start, end, parent in self.spans
        ]


class TracedMetrics:
    """Metrics-registry surface whose engine phases become spans.

    Phase ``allocate`` (which times allocation *preparation*) becomes
    span ``engine.allocate``, and so on.  Counters are kept (the engines
    count ``windows`` and ``migrations`` when ``enabled``), and the
    window decision latencies are clocked exactly as in untraced runs.
    """

    enabled = True

    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder
        self._clock = DecisionClock()
        self.counters: Dict[str, int] = {}

    @property
    def latencies(self) -> List[float]:
        return self._clock.latencies

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        with self._recorder.span(f"engine.{name}"), self._clock.phase(name):
            yield

    def counter(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def gauge(self, name: str, value: float) -> None:
        pass

    def histogram(self, name: str, value: float) -> None:
        pass


class LayerStats:
    """Counts observed at the wrapped boundaries of one traced iteration."""

    def __init__(self) -> None:
        self.forecast_calls = 0
        self.predictors: Dict[int, object] = {}
        self.polls = 0
        # policy key -> [calls, vms offered, forced, shed]
        self.policy: Dict[str, List[int]] = {
            key: [0, 0, 0, 0] for key in POLICY_KEYS.values()
        }


def _policy_key(policy) -> str:
    return POLICY_KEYS.get(policy.name, policy.name.lower())


def _boundaries():
    """(owner class, attribute, span name or callable, observer) rows."""
    from repro.baselines.coat import CoatPolicy
    from repro.baselines.online import OnlineBestFitPolicy
    from repro.cloud.faults import FaultScenario
    from repro.cloud.scenarios import CloudScenario
    from repro.cloud.telemetry import (
        ForecastLadder,
        TelemetryIngest,
        TelemetryScenario,
        TraceCollector,
    )
    from repro.core.epact import EpactPolicy
    from repro.forecast.predictor import DayAheadPredictor, PerfectPredictor

    def on_forecast(stats, args, out):
        stats.forecast_calls += 1
        stats.predictors[id(args[0])] = args[0]

    def on_poll(stats, args, out):
        stats.polls += 1

    def on_allocate(stats, args, out):
        row = stats.policy.setdefault(_policy_key(args[0]), [0, 0, 0, 0])
        row[0] += 1
        row[1] += int(args[1].pred_cpu.shape[0])
        row[2] += int(out.forced_placements)
        row[3] += len(out.shed_vm_ids)

    def policy_span(args):
        return f"policy.{_policy_key(args[0])}"

    return [
        (CloudScenario, "build", "setup.traces", None),
        (FaultScenario, "build", "setup.faults", None),
        (TelemetryScenario, "build", "setup.feed", None),
        (TraceCollector, "__init__", "setup.feed", None),
        (DayAheadPredictor, "forecast_day", "forecast", on_forecast),
        (DayAheadPredictor, "predicted_slot", "forecast", None),
        (PerfectPredictor, "forecast_day", "forecast", on_forecast),
        (PerfectPredictor, "predicted_slot", "forecast", None),
        (EpactPolicy, "allocate", policy_span, on_allocate),
        (CoatPolicy, "allocate", policy_span, on_allocate),
        (OnlineBestFitPolicy, "allocate", policy_span, on_allocate),
        (TraceCollector, "poll", "telemetry.poll", on_poll),
        (TelemetryIngest, "ingest", "telemetry.ingest", None),
        (TelemetryIngest, "filled_window", "telemetry.fill", None),
        (TelemetryIngest, "fill_into", "telemetry.fill", None),
        (TelemetryIngest, "last_values", "telemetry.fill", None),
        (ForecastLadder, "day_decision", "ladder", None),
    ]


def _wrap(
    original: Callable,
    recorder: SpanRecorder,
    stats: LayerStats,
    span,
    observe: Optional[Callable],
) -> Callable:
    def wrapper(*args, **kwargs):
        name = span(args) if callable(span) else span
        with recorder.span(name):
            out = original(*args, **kwargs)
        if observe is not None:
            observe(stats, args, out)
        return out

    wrapper.__wrapped__ = original
    return wrapper


@contextlib.contextmanager
def patched_layers(recorder: SpanRecorder, stats: LayerStats):
    """Wrap every layer boundary for the duration of the block."""
    saved = []
    try:
        for owner, attr, span, observe in _boundaries():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, recorder, stats, span, observe))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _pct_ms(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    stats: LayerStats,
    counters: Dict[str, int],
    decisions: List[object],
) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration (times in raw seconds).

    ``trace.wall_s`` is the summed duration of the top-level spans
    (``setup`` and ``simulate``).  Each span's self time goes to its
    layer's metric, or to ``unattributed_s``; a span in neither raises
    ``KeyError``, so a renamed or added layer cannot hide.
    """
    from repro.units import SAMPLES_PER_SLOT

    wall = sum(e - s for _, s, e, parent in recorder.spans if parent < 0)
    out: Dict[str, float] = {
        name: 0.0 for name in set(SELF_TIME_METRICS.values())
    }
    out["unattributed_s"] = 0.0
    for name, self_s in recorder.self_times().items():
        if name in UNATTRIBUTED_SPANS:
            out["unattributed_s"] += self_s
        else:
            out[SELF_TIME_METRICS[name]] += self_s
    out["trace.wall_s"] = wall

    out["forecast.calls"] = stats.forecast_calls
    out["forecast.fallbacks"] = sum(
        int(getattr(p, "fallback_count", 0)) for p in stats.predictors.values()
    )
    for key, (calls, vms, forced, shed) in stats.policy.items():
        if key not in POLICY_KEYS.values():
            continue
        durations = recorder.durations(f"policy.{key}")
        out[f"policy.{key}.calls"] = calls
        out[f"policy.{key}.call_p50_ms"] = _pct_ms(durations, 50)
        out[f"policy.{key}.call_p90_ms"] = _pct_ms(durations, 90)
        out[f"policy.{key}.forced_frac"] = forced / vms if vms else 0.0
        out[f"policy.{key}.shed_frac"] = shed / vms if vms else 0.0
    out["engine.windows"] = counters.get("windows", 0)
    out["engine.migrations"] = counters.get("migrations", 0)

    out["telemetry.polls"] = stats.polls
    offered = sum(d.n_active_vms for d in decisions) * SAMPLES_PER_SLOT
    imputed = sum(d.imputed_samples for d in decisions)
    out["telemetry.imputed_frac"] = imputed / offered if offered else 0.0
    for rung in RUNGS:
        out[f"ladder.rung.{rung}"] = sum(1 for d in decisions if d.rung == rung)
    out["ladder.blind_windows"] = sum(1 for d in decisions if d.blind)
    out["checkpoint.count"] = sum(1 for d in decisions if d.checkpointed)
    return out
