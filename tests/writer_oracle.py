"""Test-only oracle for the matrix writers: the streaming writers they replace.

Every row goes through ``csv.writer`` and the JSON document through
``json.dump(..., indent=2, sort_keys=True)``, so the files these write are
the reference that ``write_cells`` and ``write_matrix_csv`` must match byte
for byte.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from tnrisk import AttackMatrix, target_totals


def nonzero_cells(values: np.ndarray, sources: list[str], targets: list[str]) -> Iterator:
    """(source, target, value) of every nonzero cell, row by row."""
    rows, cols = np.nonzero(values)
    for r, c, v in zip(rows.tolist(), cols.tolist(), values[rows, cols].tolist()):
        yield sources[r], targets[c], v


def matrix_to_json(matrix: AttackMatrix, params: dict) -> dict:
    totals, grand = target_totals(matrix)
    return {
        "params": params,
        "sources": matrix.sources,
        "targets": matrix.targets,
        "expected_plots": {f"{i}->{t}": v
                           for i, t, v in nonzero_cells(matrix.N, matrix.sources, matrix.targets)},
        "abandoned": dict(zip(matrix.sources, matrix.abandoned.tolist())),
        "target_totals": totals,
        "grand_total": grand,
        "total_supply": matrix.total_plots,
    }


def write_rows(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_matrix_files(matrix: AttackMatrix, params: dict, directory: Path) -> None:
    """attack_matrix.csv, attack_matrix.json (echoing ``params``) and plot_data.csv, as
    ``tnrisk solve`` writes them."""
    cells = list(nonzero_cells(matrix.N, matrix.sources, matrix.targets))
    write_rows(directory / "attack_matrix.csv", ["source", "target", "expected_plots"], cells)
    with (directory / "attack_matrix.json").open("w", encoding="utf-8") as f:
        json.dump(matrix_to_json(matrix, params), f, indent=2, sort_keys=True)
        f.write("\n")
    peak = float(matrix.N.max(initial=0.0))
    write_rows(directory / "plot_data.csv", ["source", "target", "value", "normalized"],
               ((i, t, v, v / peak) for i, t, v in cells))


def write_delta_csv(values: np.ndarray, sources: list[str], targets: list[str],
                    path: Path) -> None:
    write_rows(path, ["source", "target", "delta"], nonzero_cells(values, sources, targets))
