"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 hostbench/run.py --workload paper_1k --seed 3 --seconds 30 --trace 0

One process does a warm-up iteration, then timed iterations until
``--seconds`` is spent (at least :data:`MIN_ITERATIONS`).  Every
iteration rebuilds its inputs from the seed and simulates.  The
reference kernel (``kernel.py``) runs before, between and after the
iteration's phases (set-up, then one simulation part per policy); each
phase is host-normalized by the two kernel runs around it.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the median traced one instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run record
(machine fingerprint, every iteration's raw seconds, kernel seconds and
host index, raw and normalized end-to-end values, window classes and
the traced iterations' spans) is written when the run ends, to
``.hostbench/runs/<workload>-seed<seed>-trace<0|1>.json`` under the
working directory.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    # Measure this checkout's program, with one BLAS/OMP thread.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    import hostbench

    hostbench.pin_threads()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

import numpy as np  # noqa: E402

from hostbench import (  # noqa: E402
    BENCHMARK_PATH,
    THREAD_VARS,
    declared_units,
    pins,
    tracing,
)
from hostbench.kernel import (  # noqa: E402
    KERNEL_NOMINAL_S,
    ReferenceKernel,
    host_index,
    normalize_seconds,
)
from hostbench.workloads import WORKLOADS, output_totals  # noqa: E402

#: Timed iterations a run makes even when ``--seconds`` is spent.
MIN_ITERATIONS = 3

#: Decision windows a run times at least: five iterations of the
#: 24-window batch workloads, three of the 48-window serve workload.
#: The decision percentiles are taken over the window positions of one
#: iteration (24 or 48 values), each the median over the run's
#: iterations, so this sets how many readings each of those medians has.
MIN_WINDOWS = 100

#: Run records and scratch files go here, under the working directory.
RECORD_DIR = ".hostbench"

#: Name -> unit of the metrics ``--trace 0`` and ``--trace 1`` report.
END_TO_END_UNITS = declared_units("end_to_end")
PER_LAYER_UNITS = declared_units("per_layer")


@dataclass
class Iteration:
    """One timed iteration: raw seconds, kernel seconds and outputs.

    The iteration's phases are set-up and one simulation part per
    policy.  The kernel runs before, between and after them, and each
    phase is normalized by the two kernel runs around it.
    """

    traced: bool
    phase_s: List[float]
    kernel_s: List[float]
    vm_slots: int
    n_windows: int
    windows: List[float]
    window_classes: List[str]
    window_part: int
    totals: dict
    layers: Optional[Dict[str, float]] = None
    spans: List[dict] = field(default_factory=list)

    def phase_index(self, phase: int) -> float:
        """Host index around one phase (>1: slower than nominal)."""
        return host_index(self.kernel_s[phase], self.kernel_s[phase + 1])

    @property
    def setup_s(self) -> float:
        return self.phase_s[0]

    @property
    def sim_s(self) -> float:
        return sum(self.phase_s[1:])

    @property
    def setup_index(self) -> float:
        return self.phase_index(0)

    @property
    def window_index(self) -> float:
        """Host index around the simulation part that timed the windows."""
        return self.phase_index(1 + self.window_part)

    @property
    def sim_norm_s(self) -> float:
        return sum(
            normalize_seconds(seconds, self.phase_index(phase))
            for phase, seconds in enumerate(self.phase_s)
            if phase
        )

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.sim_s

    @property
    def wall_norm_s(self) -> float:
        setup = normalize_seconds(self.setup_s, self.setup_index)
        return setup + self.sim_norm_s

    @property
    def index(self) -> float:
        """Host index over the whole iteration (>1: slower than nominal)."""
        return self.wall_s / self.wall_norm_s

    def record(self) -> dict:
        return {
            "traced": self.traced,
            "phase_raw_s": list(self.phase_s),
            "kernel_s": list(self.kernel_s),
            "phase_index": [
                self.phase_index(p) for p in range(len(self.phase_s))
            ],
            "host_index": self.index,
            "setup_raw_s": self.setup_s,
            "sim_raw_s": self.sim_s,
            "vm_slots": self.vm_slots,
            "windows": self.n_windows,
        }


class PhaseClock:
    """Times an iteration's phases, running the kernel around each.

    Workloads call :meth:`pause` between two policies' runs; in a traced
    iteration each phase is a top-level span, so kernel time stays
    outside every span.
    """

    def __init__(self, kernel, recorder=None) -> None:
        self._kernel = kernel
        self._recorder = recorder
        self._name = ""
        self._start = 0.0
        self.phase_s: List[float] = []
        self.kernel_s: List[float] = [kernel.timed()]

    def start(self, name: str) -> None:
        self._name = name
        if self._recorder is not None:
            self._recorder.open(name)
        self._start = time.perf_counter()

    def stop(self) -> None:
        self.phase_s.append(time.perf_counter() - self._start)
        if self._recorder is not None:
            self._recorder.close()
        self.kernel_s.append(self._kernel.timed())

    def pause(self) -> None:
        """End the current phase, run the kernel, start the next part."""
        self.stop()
        self.start(self._name)


def run_iteration(
    workload, seed: int, workdir: str, kernel, traced: bool
) -> Iteration:
    """Set up and simulate once, with the reference kernel around phases.

    A traced iteration wraps the layer boundaries and records spans.
    """
    gc.collect()
    if traced:
        recorder = tracing.SpanRecorder()
        stats = tracing.LayerStats()
        metrics = tracing.TracedMetrics(recorder)
        scope = tracing.patched_layers(recorder, stats)
    else:
        recorder = metrics = None
        scope = contextlib.nullcontext()

    with scope:
        clock = PhaseClock(kernel, recorder)
        clock.start("setup")
        inputs = workload.setup(seed, workdir, metrics)
        clock.stop()
        clock.start("simulate")
        outcome = workload.simulate(inputs, clock.pause)
        clock.stop()
    it = Iteration(
        traced=traced,
        phase_s=clock.phase_s,
        kernel_s=clock.kernel_s,
        vm_slots=outcome.vm_slots,
        n_windows=outcome.n_windows,
        windows=outcome.windows,
        window_classes=outcome.window_classes,
        window_part=outcome.window_part,
        totals=output_totals(outcome.results, outcome.n_windows),
    )
    if traced:
        it.layers = tracing.layer_metrics(
            recorder, stats, metrics.counters, outcome.decisions
        )
        it.spans = recorder.as_records()
    return it


def _median(values) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def window_latencies_ms(
    iterations: List[Iteration], normalized: bool
) -> Tuple[np.ndarray, List[str]]:
    """Per window position, the median latency over the iterations.

    Every iteration replays the same seed, so window ``k`` does the same
    work in each; its median over iterations keeps the window's own cost
    and drops the host's sub-second jitter, which a per-iteration kernel
    reading cannot correct and which would otherwise own the tail.
    """
    n = min(len(it.windows) for it in iterations)
    table = np.array(
        [
            [
                lat * 1e3 / (it.window_index if normalized else 1.0)
                for lat in it.windows[:n]
            ]
            for it in iterations
        ]
    )
    return np.median(table, axis=0), iterations[0].window_classes[:n]


def end_to_end(iterations: List[Iteration], normalized: bool) -> Dict[str, float]:
    """The timed end-to-end metrics over a run's untraced iterations."""

    def setup_s(it: Iteration) -> float:
        if normalized:
            return normalize_seconds(it.setup_s, it.setup_index)
        return it.setup_s

    def sim_s(it: Iteration) -> float:
        return it.sim_norm_s if normalized else it.sim_s

    window_ms, _ = window_latencies_ms(iterations, normalized)
    return {
        "setup_s": _median(setup_s(it) for it in iterations),
        "vm_slots_per_s": _median(it.vm_slots / sim_s(it) for it in iterations),
        "decision_p50_ms": float(np.percentile(window_ms, 50)),
        "decision_p90_ms": float(np.percentile(window_ms, 90)),
    }


def window_class_summary(iterations: List[Iteration]) -> Dict[str, dict]:
    """Per window class: windows per iteration and p50, raw and normalized."""
    raw, classes = window_latencies_ms(iterations, normalized=False)
    norm, _ = window_latencies_ms(iterations, normalized=True)
    out: Dict[str, dict] = {}
    for klass in sorted(set(classes)):
        mask = np.array([c == klass for c in classes])
        out[klass] = {
            "count": int(mask.sum()),
            "p50_raw_ms": _median(raw[mask]),
            "p50_norm_ms": _median(norm[mask]),
        }
    return out


def per_layer(
    untraced: List[Iteration], traced: List[Iteration], cold_extra_s: float
) -> Dict[str, float]:
    """Per-layer metrics of the median traced iteration, by name.

    All its times are host-normalized by its own index, so its self
    times still sum to ``trace.wall_s``.
    """
    walls = [it.wall_norm_s for it in traced]
    pick = traced[int(np.argsort(walls)[(len(walls) - 1) // 2])]
    out = {}
    for name, value in pick.layers.items():
        is_time = name.endswith("_s") or name.endswith("_ms")
        out[name] = value / pick.index if is_time else value
    out["setup.cold_s"] = cold_extra_s
    untraced_wall = _median(it.wall_norm_s for it in untraced)
    out["trace.overhead_pct"] = (_median(walls) / untraced_wall - 1.0) * 100.0
    out["host.index"] = _median(it.index for it in untraced + traced)
    classes = window_class_summary(untraced)
    for klass in tracing.WINDOW_CLASSES:
        summary = classes.get(klass)
        out[f"serve.window_ms.{klass}_p50"] = (
            summary["p50_norm_ms"] if summary else 0.0
        )
    return out


def _digest(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_rev() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def fingerprint() -> dict:
    """Machine and code identity for the run record."""
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_rev": _git_rev(),
        "src_digest": _digest((ROOT / "src").rglob("*.py")),
        "bench_digest": _digest(
            [*(ROOT / "hostbench").glob("*.py"), BENCHMARK_PATH]
        ),
        "kernel_nominal_s": KERNEL_NOMINAL_S,
    }


def check_program_source() -> None:
    """Refuse to measure a ``repro`` that is not this checkout's."""
    import repro

    expected = (ROOT / "src" / "repro").resolve()
    if Path(repro.__file__).resolve().parent != expected:
        raise SystemExit(
            f"repro imported from {repro.__file__}, not from {expected}"
        )


def run_benchmark(
    workload,
    seed: int,
    seconds: float,
    trace: int,
    record_dir: Path,
    kernel=None,
    pin_table: Optional[dict] = None,
) -> Tuple[dict, dict]:
    """One benchmark run; returns (the printed result, the run record).

    ``kernel`` and ``pin_table`` default to the reference kernel and
    ``pins.json``; tests substitute both.
    """
    record_dir = Path(record_dir)
    (record_dir / "runs").mkdir(parents=True, exist_ok=True)
    (record_dir / "tmp").mkdir(parents=True, exist_ok=True)
    kernel = kernel if kernel is not None else ReferenceKernel()
    kernel.run()
    info = fingerprint()
    workdir = tempfile.mkdtemp(dir=record_dir / "tmp")
    try:
        # Warm-up: pays imports and lazy caches; its outputs are the
        # ones every timed iteration must reproduce.
        warm = run_iteration(workload, seed, workdir, kernel, traced=False)
        check_program_source()
        pin_problems = pins.check_against_pins(
            workload.name, seed, warm.totals, pin_table
        )
        iterations: List[Iteration] = []
        deadline = time.perf_counter() + seconds
        while True:
            traced = bool(trace) and len(iterations) % 2 == 1
            start = time.perf_counter()
            iterations.append(
                run_iteration(workload, seed, workdir, kernel, traced)
            )
            cost = time.perf_counter() - start
            if trace:
                enough = len(iterations) % 2 == 0
            else:
                enough = len(iterations) >= MIN_ITERATIONS and sum(
                    len(it.windows) for it in iterations
                ) >= MIN_WINDOWS
            if enough and time.perf_counter() + cost > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for it in iterations if it.totals != warm.totals)
    if pin_problems:
        failed = len(iterations)
    untraced = [it for it in iterations if not it.traced]
    traced_its = [it for it in iterations if it.traced]
    normalized = end_to_end(untraced, normalized=True)
    raw = end_to_end(untraced, normalized=False)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    normalized["peak_rss_mb"] = raw["peak_rss_mb"] = rss_mb
    info["loadavg_end"] = list(os.getloadavg())

    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "fingerprint": info,
        "warmup": warm.record(),
        "iterations": [it.record() for it in iterations],
        "end_to_end": {
            name: {"normalized": normalized[name], "raw": raw[name]}
            for name in END_TO_END_UNITS
        },
        "decision_windows": {
            "timed": sum(len(it.windows) for it in untraced),
            "per_iteration": min(len(it.windows) for it in untraced),
        },
        "window_classes": window_class_summary(untraced),
        "outputs": warm.totals,
        "pin": (
            "unpinned"
            if pin_problems is None
            else (pin_problems or "ok")
        ),
    }
    if trace:
        cold = warm.setup_s / warm.setup_index - _median(
            it.setup_s / it.setup_index for it in untraced
        )
        values = per_layer(untraced, traced_its, cold)
        units = PER_LAYER_UNITS
        record["per_layer"] = values
        record["spans"] = [it.spans for it in traced_its]
    else:
        values = normalized
        units = END_TO_END_UNITS
    record_path = (
        record_dir / "runs" / f"{workload.name}-seed{seed}-trace{trace}.json"
    )
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    result = {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, record = run_benchmark(
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        args.trace,
        Path.cwd() / RECORD_DIR,
    )
    if isinstance(record["pin"], list):
        for problem in record["pin"]:
            print(f"pin mismatch: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
