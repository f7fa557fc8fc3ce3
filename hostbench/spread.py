"""Spread report: one workload over N seeds, one fresh process per seed.

Usage (from the repository root)::

    python3 hostbench/spread.py --workload paper_1k --runs 10
    python3 hostbench/spread.py --workload serve_lossy_1k --runs 5 --first-seed 100

Runs ``hostbench/run.py`` once per seed, one run after another, then
prints for each end-to-end metric the median over runs and the spread
(interquartile range over median, as ``statistics.quantiles(values,
n=4)`` gives the quartiles), host-normalized and raw, beside the
metric's bound in ``BENCHMARK.json``.  A normalized spread above the
bound is marked ``OVER``; at or below a third of it, ``ok``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    """Interquartile range over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark process; returns its run record."""
    cmd = [
        sys.executable,
        str(ROOT / "hostbench" / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, check=True
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: outputs incorrect\n{proc.stderr}")
    record_path = (
        ROOT / ".hostbench" / "runs" / f"{workload}-seed{seed}-trace0.json"
    )
    with open(record_path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)

    records = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        record = run_once(args.workload, seed, seconds)
        records.append(record)
        index = statistics.median(
            it["host_index"] for it in record["iterations"]
        )
        values = ", ".join(
            f"{name}={v['normalized']:.4g}"
            for name, v in record["end_to_end"].items()
        )
        print(f"seed {seed}: host index {index:.3f}; {values}", flush=True)

    digests = sorted(
        {
            (r["fingerprint"]["src_digest"], r["fingerprint"]["bench_digest"])
            for r in records
        }
    )
    print(
        f"\n{args.workload}: {len(records)} runs of {seconds} s "
        f"(src, bench digests: {digests})\n"
        f"{'metric':<18}{'unit':<12}{'bound':>7}"
        f"{'median':>12}{'spread':>9}{'raw median':>13}{'raw spread':>12}"
    )
    for metric in bench["end_to_end"]:
        name = metric["name"]
        norm = [r["end_to_end"][name]["normalized"] for r in records]
        raw = [r["end_to_end"][name]["raw"] for r in records]
        s = spread(norm)
        verdict = (
            "OVER" if s > metric["bound"]
            else "ok" if s <= metric["bound"] / 3 else "wide"
        )
        print(
            f"{name:<18}{metric['unit']:<12}{metric['bound']:>7.2f}"
            f"{statistics.median(norm):>12.5g}{s:>9.3f}"
            f"{statistics.median(raw):>13.5g}{spread(raw):>12.3f}  {verdict}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
