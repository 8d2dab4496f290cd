#!/usr/bin/env python
"""One SHA-256 line per answer of the catalog fault campaigns.

Runs ``simulate_faults`` on every catalog circuit at deviations +0.2,
+0.3 and +0.5 and tolerances ε 0.05, 0.10 and 0.14 (2 decades each
side of f0, 50 points per decade: 72 campaigns) and prints, for each
campaign, one line per dataset array, for the nominal responses (values
and labels), the labels, ``n_solves``, ``n_factorizations`` and
``sm_fallbacks``, then one line per unit key of its plan.  A line is
``<sha256>  <circuit> dev=<d> eps=<e> <item>``; a unit key is printed
as it is.  Run it on two trees and ``diff`` the outputs: a change that
moves no answer, work count or key prints the same lines, and any line
that differs names what moved.

.. code-block:: bash

    PYTHONPATH=src python tools/answer_digest.py > change.txt
    PYTHONPATH=../parent/src python tools/answer_digest.py > parent.txt
    diff parent.txt change.txt

Exit status: 0 (the digest is the output).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from typing import Iterator, Sequence

import numpy as np

from repro.analysis import decade_grid
from repro.campaign import execute_plan, plan_campaign
from repro.circuits import build, catalog
from repro.faults import SimulationSetup, deviation_faults

DEVIATIONS = (0.2, 0.3, 0.5)
EPSILONS = (0.05, 0.10, 0.14)
DECADES = 2.0
POINTS_PER_DECADE = 50
#: the dataset's arrays, in the order they are printed
ARRAYS = (
    "masks", "detectable", "omega_detectability", "max_deviation",
    "f_max_deviation_hz",
)


def sha256(*parts) -> str:
    """SHA-256 of arrays (dtype, shape, bytes) and texts, in order."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part)
            digest.update(f"{part.dtype.str}{part.shape}".encode())
            digest.update(part.tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()


def campaign_lines(
    name: str, deviation: float, epsilon: float
) -> Iterator[str]:
    """The digest lines of one catalog campaign."""
    bench = build(name)
    setup = SimulationSetup(
        grid=decade_grid(
            bench.f0_hz, DECADES, DECADES,
            points_per_decade=POINTS_PER_DECADE,
        ),
        epsilon=epsilon,
    )
    plan = plan_campaign(
        bench.dft(), deviation_faults(bench.circuit, deviation), setup
    )
    dataset = execute_plan(plan)
    prefix = f"{name} dev={deviation:g} eps={epsilon:g}"
    for array in ARRAYS:
        yield f"{sha256(getattr(dataset, array))}  {prefix} {array}"
    nominal = [dataset.nominal[config.index] for config in dataset.configs]
    yield (
        f"{sha256(*(r.values for r in nominal), *(r.label for r in nominal))}"
        f"  {prefix} nominal"
    )
    yield (
        f"{sha256(dataset.config_labels, dataset.fault_labels)}"
        f"  {prefix} labels"
    )
    for counter in ("n_solves", "n_factorizations", "sm_fallbacks"):
        yield f"{sha256(getattr(dataset, counter))}  {prefix} {counter}"
    for unit, key in zip(plan.units, plan.keys):
        yield f"{key}  {prefix} key {unit.unit_id}"


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--circuits", nargs="*", default=None,
        help="catalog circuits to digest (default: all)",
    )
    args = parser.parse_args(argv)
    for name in args.circuits or catalog():
        for deviation in DEVIATIONS:
            for epsilon in EPSILONS:
                for line in campaign_lines(name, deviation, epsilon):
                    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
