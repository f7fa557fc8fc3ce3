"""Fixed reference kernel and the host-normalization arithmetic.

The kernel is the benchmark's yardstick for how fast the host is right
now.  It runs before, between and after the phases of every timed
iteration (set-up, then one simulation part per policy), and each
phase is scaled by ``KERNEL_NOMINAL_S / kernel_measured`` over the two
runs around it (see
:func:`host_index` and :func:`normalize_seconds`), so a host that is
temporarily slower slows the kernel by about the same factor and the
normalized value stays put.

The work mixes the three kinds the workloads do: an interpreter loop
(allocator bookkeeping), many small BLAS calls (the batched ARIMA fits
and per-server Pearson scores) and large-array copy/stack (trace
generation, COAT's per-VM ``np.stack``, accounting scatters).  It only
touches arrays it builds itself from a fixed seed, so its work never
depends on the workload, the run seed or the program under test.
"""

from __future__ import annotations

import time

import numpy as np

#: Median kernel time on the reference host (2-vCPU Intel Xeon VM,
#: NumPy 2.4 with OpenBLAS pinned to one thread).  Normalized values are
#: "seconds as on the reference host"; the constant cancels in every
#: comparison between two runs of the benchmark.
KERNEL_NOMINAL_S = 0.25

#: Sizes and repetitions of each part, chosen so each part takes about
#: a third of the kernel on the reference host.
_PY_ITEMS = 60_000
_PY_ROUNDS = 22
_BLAS_CALLS = 900
_BLAS_ROUNDS = 6
_COPY_ROUNDS = 20


class ReferenceKernel:
    """The fixed workload; :meth:`run` does identical work every call."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20180319)
        self._py_items = [
            (i % 97, float(x))
            for i, x in enumerate(rng.random(_PY_ITEMS).round(6))
        ]
        self._lhs = rng.random((_BLAS_CALLS, 64, 6))
        self._rhs = rng.random((_BLAS_CALLS, 64))
        self._rows = [row for row in rng.random((1000, 288))]
        # Preallocated outputs: fresh large arrays would make the
        # kernel's time depend on the allocator's state (mmap threshold,
        # page faults), which the workloads leave behind.
        self._stacked = np.empty((1000, 288))
        self._scaled = np.empty((1000, 288))
        self._scatter_idx = rng.integers(0, 4096, size=1_000_000)
        self._scatter_w = rng.random(1_000_000)

    def run(self) -> float:
        """Do the fixed work once; returns a checksum of the results."""
        # Interpreter loop: bucketed running maxima, dict and list churn.
        checksum = 0.0
        for _ in range(_PY_ROUNDS):
            best = {}
            kept = []
            for key, value in self._py_items:
                if value > best.get(key, -1.0):
                    best[key] = value
                    kept.append(key)
            checksum += float(len(kept)) + sum(best.values())
        # Small BLAS: one least-squares fit and one GEMV per call.
        for _ in range(_BLAS_ROUNDS):
            for lhs, rhs in zip(self._lhs, self._rhs):
                gram = lhs.T @ lhs
                coef = np.linalg.solve(gram, lhs.T @ rhs)
                checksum += float(coef[0])
        # Large arrays: stack, scaled copy, scatter-add.
        for _ in range(_COPY_ROUNDS):
            np.stack(self._rows, out=self._stacked)
            np.multiply(self._stacked, 2.0, out=self._scaled)
            sums = np.bincount(
                self._scatter_idx, weights=self._scatter_w, minlength=4096
            )
            checksum += float(self._scaled[7, 11]) + float(sums[5])
        return checksum

    def timed(self) -> float:
        """Wall seconds of one :meth:`run`."""
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start


def host_index(kernel_before_s: float, kernel_after_s: float) -> float:
    """Host slowness around one iteration: >1 means slower than nominal."""
    return 0.5 * (kernel_before_s + kernel_after_s) / KERNEL_NOMINAL_S


def normalize_seconds(raw_s: float, index: float) -> float:
    """A raw duration as it would have taken on the nominal host."""
    return raw_s / index
