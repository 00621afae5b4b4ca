"""Seeded synthetic pre-estimated dataset for the benchmark.

Writes the four pre-estimated tables (supply, barriers, interception, yield)
and a scenario spec from ``(seed, n_sources, n_targets)``.  Cost ranges follow
``tests/conftest.py::random_params``: barriers in [0, 10], interception in
[0, 5], yields in [-60, 0], supply in [1, 1000].  Source and target codes are
disjoint, so no pair is domestic.  Every cell is written with ``repr`` so one
seed always gives byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

BLOCKED_FRACTION = 0.3
SPEC_TARGETS = 5


def _write_vector(path: Path, value_name: str, codes: list[str], values) -> None:
    lines = [f"code,{value_name}"] + [f"{c},{float(v)!r}" for c, v in zip(codes, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(directory: str | Path, seed: int, n_sources: int, n_targets: int) -> Path:
    """Write a dataset into ``directory``; return the path of its ``spec.json``.

    The tables go to ``directory/pre_estimated`` (the layout ``--data`` expects).
    """
    rng = np.random.default_rng(seed)
    sources = [f"S{k:04d}" for k in range(n_sources)]
    targets = [f"T{k:04d}" for k in range(n_targets)]
    supply = rng.uniform(1.0, 1000.0, n_sources)
    barriers = rng.uniform(0.0, 10.0, (n_sources, n_targets))
    blocked = rng.random((n_sources, n_targets)) < BLOCKED_FRACTION
    interception = rng.uniform(0.0, 5.0, n_targets)
    yields = rng.uniform(-60.0, 0.0, n_targets)
    spec_targets = sorted(rng.choice(n_targets, size=SPEC_TARGETS, replace=False).tolist())
    a_override = float(rng.uniform(-40.0, -20.0))

    pre = Path(directory) / "pre_estimated"
    pre.mkdir(parents=True, exist_ok=True)
    _write_vector(pre / "supply.csv", "supply", sources, supply)
    _write_vector(pre / "interception.csv", "cost", targets, interception)
    _write_vector(pre / "yield.csv", "yield", targets, yields)
    rows = ["origin,dest,cost"]
    for i, src in enumerate(sources):
        for j, tgt in enumerate(targets):
            rows.append(f"{src},{tgt},{'inf' if blocked[i, j] else repr(float(barriers[i, j]))}")
    (pre / "barriers.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    spec = {
        "name": f"block-{SPEC_TARGETS}",
        "barrier_overrides": [["*", targets[j], "inf"] for j in spec_targets],
        "a_override": a_override,
    }
    spec_path = Path(directory) / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return spec_path
