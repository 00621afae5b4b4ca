"""The attack matrix: expected plots per (source, target), and its writers."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass
class AttackMatrix:
    sources: list[str]
    targets: list[str]
    N: dict[tuple[str, str], float]
    abandoned: dict[str, float]
    total_plots: float
    lam: float
    params_echo: dict

    def row_sum(self, src: str) -> float:
        return sum(self.N.get((src, t), 0.0) for t in self.targets)

    def grand_total(self) -> float:
        return sum(self.N.values())


def target_totals(matrix: AttackMatrix) -> tuple[dict[str, float], float]:
    """Per-target column sums and the grand total (abandoned plots excluded)."""
    totals = {t: 0.0 for t in matrix.targets}
    for (_, t), v in matrix.N.items():
        totals[t] += v
    return totals, sum(totals.values())


# --- exports -------------------------------------------------------------------

def write_matrix_csv(matrix: AttackMatrix, path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["source", "target", "expected_plots"])
        for (i, t), v in sorted(matrix.N.items()):
            w.writerow([i, t, repr(v)])


def write_abandoned_csv(matrix: AttackMatrix, path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["source", "abandoned"])
        for i, v in sorted(matrix.abandoned.items()):
            w.writerow([i, repr(v)])


def matrix_to_json(matrix: AttackMatrix) -> dict:
    totals, grand = target_totals(matrix)
    return {
        "params": matrix.params_echo,
        "sources": matrix.sources,
        "targets": matrix.targets,
        "expected_plots": {f"{i}->{t}": v for (i, t), v in sorted(matrix.N.items())},
        "abandoned": dict(sorted(matrix.abandoned.items())),
        "target_totals": dict(sorted(totals.items())),
        "grand_total": grand,
        "total_supply": matrix.total_plots,
    }


def write_matrix_json(matrix: AttackMatrix, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as f:
        json.dump(matrix_to_json(matrix), f, indent=2, sort_keys=True)
        f.write("\n")
