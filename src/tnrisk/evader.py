"""The attack matrix: expected plots per (source, target), and its writers."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import write_csv, write_json


@dataclass
class AttackMatrix:
    """Expected plots: ``N`` has a row per source and a column per target.

    ``unroutable`` is the supply of a source with no open route and no abandon
    option (else 0), so ``N.sum(axis=1) + abandoned + unroutable`` is the supply.
    """

    sources: list[str]
    targets: list[str]
    N: np.ndarray
    abandoned: np.ndarray
    unroutable: np.ndarray
    total_plots: float
    params_echo: dict


def target_totals(matrix: AttackMatrix) -> tuple[dict[str, float], float]:
    """Per-target column sums and the grand total (abandoned plots excluded)."""
    columns = matrix.N.sum(axis=0).tolist()
    return dict(zip(matrix.targets, columns)), sum(columns)


def nonzero_cells(values: np.ndarray, sources: list[str], targets: list[str]) -> Iterator:
    """(source, target, value) of every nonzero cell, row by row: sorted, as codes are."""
    rows, cols = np.nonzero(values)
    for r, c, v in zip(rows.tolist(), cols.tolist(), values[rows, cols].tolist()):
        yield sources[r], targets[c], v


# --- exports -------------------------------------------------------------------

def write_matrix_csv(matrix: AttackMatrix, path: str | Path) -> None:
    write_csv(path, ["source", "target", "expected_plots"],
              nonzero_cells(matrix.N, matrix.sources, matrix.targets))


def write_abandoned_csv(matrix: AttackMatrix, path: str | Path) -> None:
    write_csv(path, ["source", "abandoned"], zip(matrix.sources, matrix.abandoned.tolist()))


def matrix_to_json(matrix: AttackMatrix) -> dict:
    totals, grand = target_totals(matrix)
    return {
        "params": matrix.params_echo,
        "sources": matrix.sources,
        "targets": matrix.targets,
        "expected_plots": {f"{i}->{t}": v
                           for i, t, v in nonzero_cells(matrix.N, matrix.sources, matrix.targets)},
        "abandoned": dict(zip(matrix.sources, matrix.abandoned.tolist())),
        "target_totals": totals,
        "grand_total": grand,
        "total_supply": matrix.total_plots,
    }


def write_matrix_json(matrix: AttackMatrix, path: str | Path) -> None:
    write_json(path, matrix_to_json(matrix))
