"""The attack matrix: expected plots per (source, target), and its writers."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import write_cells, write_csv


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


def target_totals(matrix: AttackMatrix) -> tuple[dict[str, float], float]:
    """Per-target column sums and the grand total (abandoned plots excluded)."""
    columns = matrix.N.sum(axis=0).tolist()
    return dict(zip(matrix.targets, columns)), sum(columns)


# --- exports -------------------------------------------------------------------

def write_matrix_csv(matrix: AttackMatrix, path: str | Path,
                     json_file: tuple[str | Path, dict] | None = None,
                     plot_path: str | Path | None = None) -> None:
    """Write the nonzero cells, in sorted (source, target) order, to ``path``.

    In the same pass over the cells, optionally write the JSON document to
    ``json_file`` = (path, params): the run's ``params`` dict, codes, cells keyed
    "source->target", abandoned plots and totals; and the plot data (each cell
    also over the largest cell).
    """
    if json_file is not None:
        json_path, params = json_file
        totals, grand = target_totals(matrix)
        json_file = (json_path, {
            "params": params,
            "sources": matrix.sources,
            "targets": matrix.targets,
            "abandoned": dict(zip(matrix.sources, matrix.abandoned.tolist())),
            "target_totals": totals,
            "grand_total": grand,
            "total_supply": matrix.total_plots,
        })
    write_cells(matrix.N, matrix.sources, matrix.targets, path,
                ["source", "target", "expected_plots"], plot_path, json_file)


def write_abandoned_csv(matrix: AttackMatrix, path: str | Path) -> None:
    write_csv(path, ["source", "abandoned"], zip(matrix.sources, matrix.abandoned.tolist()))
