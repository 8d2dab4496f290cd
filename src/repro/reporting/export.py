"""Machine-readable export of matrices, tables and datasets.

Benchmarks print ASCII; downstream tooling (spreadsheets, notebooks, ATE
flows) wants CSV and JSON.  These functions serialise the central data
artefacts losslessly and deterministically (sorted keys, fixed column
order), so exported files diff cleanly between runs.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Optional, Sequence

from ..core.matrix import FaultDetectabilityMatrix, OmegaDetectabilityTable
from ..core.ndetect import NDetectPoint

#: format tag stamped into n-detection sweep exports
PARETO_FORMAT = "ndetect-sweep-v1"


def matrix_to_csv(
    matrix: FaultDetectabilityMatrix,
    fault_order: Optional[Sequence[str]] = None,
) -> str:
    """Fault detectability matrix as CSV (0/1 cells)."""
    faults = list(fault_order or matrix.fault_names)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["configuration"] + faults)
    for i, label in enumerate(matrix.config_labels):
        writer.writerow(
            [label]
            + [
                int(matrix.data[i, matrix.column_of(f)])
                for f in faults
            ]
        )
    return buffer.getvalue()


def omega_table_to_csv(
    table: OmegaDetectabilityTable,
    fault_order: Optional[Sequence[str]] = None,
    as_percent: bool = True,
) -> str:
    """ω-detectability table as CSV."""
    faults = list(fault_order or table.fault_names)
    scale = 100.0 if as_percent else 1.0
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["configuration"] + faults)
    for i, label in enumerate(table.config_labels):
        writer.writerow(
            [label]
            + [
                f"{scale * table.data[i, table.column_of(f)]:.6g}"
                for f in faults
            ]
        )
    return buffer.getvalue()


def matrix_to_json(matrix: FaultDetectabilityMatrix) -> str:
    """Fault detectability matrix as JSON (nested dict form)."""
    return json.dumps(
        {
            "configurations": list(matrix.config_labels),
            "config_indices": list(matrix.config_indices),
            "faults": list(matrix.fault_names),
            "detectability": matrix.as_dict(),
        },
        indent=2,
        sort_keys=True,
    )


def omega_table_to_json(table: OmegaDetectabilityTable) -> str:
    """ω-detectability table as JSON (fractions in [0, 1])."""
    payload = {
        "configurations": list(table.config_labels),
        "config_indices": list(table.config_indices),
        "faults": list(table.fault_names),
        "omega_detectability": {
            label: {
                fault: float(table.data[i, j])
                for j, fault in enumerate(table.fault_names)
            }
            for i, label in enumerate(table.config_labels)
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def dataset_to_json(dataset) -> str:
    """A :class:`~repro.faults.simulator.DetectabilityDataset` summary.

    Exports the scalar verdicts per (configuration, fault) — detectable,
    ω-detectability, peak deviation and its frequency — not the raw
    masks (use the matrices for the grid-level data).
    """
    results = {
        f"C{config.index}": {
            fault: {
                "detectable": bool(dataset.detectable[i, j]),
                "omega_detectability": float(
                    dataset.omega_detectability[i, j]
                ),
                "max_deviation": float(dataset.max_deviation[i, j]),
                "f_max_deviation_hz": float(
                    dataset.f_max_deviation_hz[i, j]
                ),
            }
            for j, fault in enumerate(dataset.fault_labels)
        }
        for i, config in enumerate(dataset.configs)
    }
    payload = {
        "epsilon": dataset.setup.epsilon,
        "criterion": dataset.setup.criterion,
        "grid": {
            "f_start_hz": dataset.setup.grid.f_start,
            "f_stop_hz": dataset.setup.grid.f_stop,
            "points_per_decade": dataset.setup.grid.points_per_decade,
        },
        "configurations": list(dataset.config_labels),
        "faults": list(dataset.fault_labels),
        "results": results,
        "n_solves": dataset.n_solves,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def pareto_to_json(points: Sequence[NDetectPoint]) -> str:
    """An n-detection sweep (``repro.core.ndetect``) as JSON.

    One record per swept ``n`` carrying the cover, its cost and the
    robustness figures; ``dominated: false`` records form the
    coverage-vs-cost Pareto front.  Inverse: :func:`parse_pareto_json`.
    """
    payload = {
        "format": PARETO_FORMAT,
        "points": [
            {
                "n_detect": point.n_detect,
                "configs": list(point.configs),
                "labels": list(point.labels()),
                "n_configurations": point.n_configurations,
                "fault_coverage": float(point.fault_coverage),
                "worst_case_margin": float(point.worst_case_margin),
                "average_margin": float(point.average_margin),
                "worst_case_omega": float(point.worst_case_omega),
                "average_omega": float(point.average_omega),
                "n_fragile_entries": point.n_fragile_entries,
                "dominated": bool(point.dominated),
            }
            for point in points
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def parse_pareto_json(text: str) -> list:
    """Inverse of :func:`pareto_to_json`."""
    payload = json.loads(text)
    if payload.get("format") != PARETO_FORMAT:
        raise ValueError(
            f"not an n-detection sweep export: format="
            f"{payload.get('format')!r} (expected {PARETO_FORMAT!r})"
        )
    return [
        NDetectPoint(
            n_detect=int(record["n_detect"]),
            configs=tuple(int(i) for i in record["configs"]),
            n_configurations=int(record["n_configurations"]),
            fault_coverage=float(record["fault_coverage"]),
            worst_case_margin=float(record["worst_case_margin"]),
            average_margin=float(record["average_margin"]),
            worst_case_omega=float(record["worst_case_omega"]),
            average_omega=float(record["average_omega"]),
            n_fragile_entries=int(record["n_fragile_entries"]),
            dominated=bool(record["dominated"]),
        )
        for record in payload["points"]
    ]


def parse_matrix_csv(text: str) -> FaultDetectabilityMatrix:
    """Inverse of :func:`matrix_to_csv` (for round-trip workflows)."""
    import numpy as np

    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    faults = tuple(header[1:])
    labels = tuple(row[0] for row in rows[1:])
    data = np.array(
        [[int(cell) for cell in row[1:]] for row in rows[1:]],
        dtype=bool,
    )
    return FaultDetectabilityMatrix(
        config_labels=labels, fault_names=faults, data=data
    )


def parse_omega_table_csv(
    text: str, as_percent: bool = True
) -> OmegaDetectabilityTable:
    """Inverse of :func:`omega_table_to_csv`.

    ``as_percent`` must match the flag the table was exported with; the
    default matches the export default.
    """
    import numpy as np

    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    faults = tuple(header[1:])
    labels = tuple(row[0] for row in rows[1:])
    scale = 100.0 if as_percent else 1.0
    data = np.array(
        [[float(cell) / scale for cell in row[1:]] for row in rows[1:]],
        dtype=float,
    )
    return OmegaDetectabilityTable(
        config_labels=labels, fault_names=faults, data=data
    )


def parse_matrix_json(text: str) -> FaultDetectabilityMatrix:
    """Inverse of :func:`matrix_to_json`."""
    import numpy as np

    payload = json.loads(text)
    labels = tuple(payload["configurations"])
    faults = tuple(payload["faults"])
    cells = payload["detectability"]
    data = np.array(
        [[bool(cells[label][fault]) for fault in faults] for label in labels],
        dtype=bool,
    )
    return FaultDetectabilityMatrix(
        config_labels=labels,
        fault_names=faults,
        data=data,
        config_indices=tuple(payload.get("config_indices", ())),
    )


def parse_omega_table_json(text: str) -> OmegaDetectabilityTable:
    """Inverse of :func:`omega_table_to_json`."""
    import numpy as np

    payload = json.loads(text)
    labels = tuple(payload["configurations"])
    faults = tuple(payload["faults"])
    cells = payload["omega_detectability"]
    data = np.array(
        [
            [float(cells[label][fault]) for fault in faults]
            for label in labels
        ],
        dtype=float,
    )
    return OmegaDetectabilityTable(
        config_labels=labels,
        fault_names=faults,
        data=data,
        config_indices=tuple(payload.get("config_indices", ())),
    )
