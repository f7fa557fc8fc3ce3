"""Host-normalized end-to-end benchmark of the EPACT/COAT reproduction.

See README.md in this directory for the workloads, the metrics and how
to read them.  Entry points: ``run.py`` (one run), ``spread.py`` (many
runs, spread report) and ``pins.py`` (regenerate the pinned outputs).
"""

import json
import os
from pathlib import Path
from typing import Dict

#: The benchmark's declaration: workloads, metric names, units, bounds.
BENCHMARK_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Thread pools pinned to one thread; set before NumPy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    """Pin BLAS/OMP thread pools to one thread (call before NumPy loads)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json`` at the repository root."""
    with open(BENCHMARK_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def declared_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit, in declared order, for ``end_to_end`` or
    ``per_layer``."""
    return {m["name"]: m["unit"] for m in load_benchmark()[kind]}
