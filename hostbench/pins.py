"""Pinned outputs per workload and seed, and the command that makes them.

A pin is the output totals of one iteration (see
:func:`workloads.output_totals`): per policy the total energy, plus the
exact migration, violation, forced-placement and shed counts, plus the
iteration's window count.  Energy may differ from the pin only by BLAS
last-digit noise (:data:`ENERGY_REL_TOL`); every count must match.

Regenerate (seeds 0..15 of every workload) after a change that is
meant to alter simulation results::

    python3 hostbench/pins.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Relative energy tolerance: admits last-digit differences of BLAS
#: reductions, nothing a policy or accounting change could produce.
ENERGY_REL_TOL = 1e-9

#: Seeds pinned by default (the documented seeds).
DEFAULT_SEEDS = range(16)


def load_pins(path: Path = PINS_PATH) -> Dict[str, Dict[str, dict]]:
    """workload -> seed (as a string) -> pinned totals."""
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare_totals(expected: dict, actual: dict) -> List[str]:
    """Human-readable mismatches between two totals dicts (empty = same)."""
    problems = []
    if expected.get("windows") != actual.get("windows"):
        problems.append(
            f"windows: expected {expected.get('windows')}, "
            f"got {actual.get('windows')}"
        )
    for policy in sorted((set(expected) | set(actual)) - {"windows"}):
        exp, act = expected.get(policy), actual.get(policy)
        if exp is None or act is None:
            problems.append(f"{policy}: present on one side only")
            continue
        if not math.isclose(
            exp["energy_j"], act["energy_j"], rel_tol=ENERGY_REL_TOL
        ):
            problems.append(
                f"{policy}.energy_j: expected {exp['energy_j']!r}, "
                f"got {act['energy_j']!r}"
            )
        for key in ("migrations", "violations", "forced", "shed"):
            if exp[key] != act[key]:
                problems.append(
                    f"{policy}.{key}: expected {exp[key]}, got {act[key]}"
                )
    return problems


def check_against_pins(
    workload: str, seed: int, totals: dict, pins: Optional[dict] = None
) -> Optional[List[str]]:
    """Mismatches against the pin, or ``None`` when the seed is unpinned."""
    pins = load_pins() if pins is None else pins
    pinned = pins.get(workload, {}).get(str(seed))
    if pinned is None:
        return None
    return compare_totals(pinned, totals)


def main(argv=None) -> int:
    import argparse
    import tempfile

    from hostbench.workloads import WORKLOADS, output_totals

    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(
        argv
    )
    table = load_pins()
    scratch = Path.cwd() / ".hostbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    for name, workload in sorted(WORKLOADS.items()):
        for seed in DEFAULT_SEEDS:
            with tempfile.TemporaryDirectory(dir=scratch) as workdir:
                outcome = workload.simulate(workload.setup(seed, workdir))
            table.setdefault(name, {})[str(seed)] = output_totals(
                outcome.results, outcome.n_windows
            )
            print(f"pinned {name} seed {seed}", file=sys.stderr)
            with open(PINS_PATH, "w", encoding="utf-8") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    _root = Path(__file__).resolve().parent.parent
    sys.path[0:1] = [str(_root / "src"), str(_root)]
    import hostbench

    hostbench.pin_threads()
    sys.exit(main())
