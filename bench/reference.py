"""Reference outputs of the library workloads (``bench/reference.json``).

For ``faultsim_catalog`` the reference holds, for every catalog circuit
at every deviation the seed can pick, the Definition-1 matrix bits, the
omega table and the solve count.  For ``optimize_flow`` it holds each
case's selected configurations, cover and clause counts, test-program
frequencies and solve count.  A run checks every case it ran against
it; floats agree to 1e-9 relative, which tolerates a different BLAS but
not a flipped verdict (one grid point moves omega by about 1/200).

Regenerate only for a change that is meant to change a result::

    PYTHONPATH=src python3 bench/reference.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"


def _same(actual, expected) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        return math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-12)
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(_same(a, e) for a, e in zip(actual, expected))
        )
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and actual.keys() == expected.keys()
            and all(_same(actual[k], expected[k]) for k in expected)
        )
    return actual == expected


def _checked(outcome: Dict) -> Dict:
    return {k: v for k, v in outcome.items() if k != "counters"}


def check_library(workload: str,
                  outcomes: List[Tuple[str, Dict]]) -> List[str]:
    """Names of the cases whose output differs from the reference."""
    with open(REFERENCE, encoding="utf-8") as handle:
        expected = json.load(handle)[workload]
    mismatches = []
    for key, outcome in outcomes:
        name = f"{workload} {key}"
        if key not in expected:
            mismatches.append(f"{name}: no reference entry")
        elif not _same(_checked(outcome), expected[key]):
            mismatches.append(name)
    return sorted(set(mismatches))


def compute() -> Dict[str, Dict[str, Dict]]:
    """Every reference entry, computed by the checkout's own code."""
    import library_flow
    from library_flow import Case, run_case
    from repro.circuits import catalog
    from spans import Tracer

    cases = {
        "faultsim_catalog": [
            Case(name, deviation, library_flow.EPSILON)
            for name in catalog()
            for deviation in library_flow.DEVIATIONS
        ],
        "optimize_flow": [
            Case(name, library_flow.OPTIMIZE_DEVIATION, epsilon)
            for name, epsilon in library_flow.OPTIMIZE_CASES
        ],
    }
    return {
        workload: {
            case.key: _checked(run_case(
                case, workload == "optimize_flow", Tracer(False)))
            for case in workload_cases
        }
        for workload, workload_cases in cases.items()
    }


if __name__ == "__main__":
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(compute(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE}")
