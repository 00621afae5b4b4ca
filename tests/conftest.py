from __future__ import annotations

import os
import shutil
from pathlib import Path

import numpy as np
import pytest

import tnrisk
from tnrisk import (BLOCKED, CountryTable, DeltaMatrix, ModelParams, bundled_data_dir,
                    load_bundle, load_country_table, load_pre_estimated)
from tnrisk.dataset import COUNTRY_HEADER
from tnrisk.params import Barriers
from tnrisk.scenario import ScenarioSpec, apply_scenario


@pytest.fixture(scope="session")
def bundle():
    return load_bundle(bundled_data_dir())


@pytest.fixture(scope="session")
def pre_params():
    return load_pre_estimated(bundled_data_dir() / "pre_estimated")


@pytest.fixture()
def params(pre_params):
    return pre_params.copy()


def cell_dict(matrix) -> dict[tuple[str, str], float]:
    """Nonzero cells keyed (source, target): an attack matrix's N or a delta matrix's delta."""
    values = matrix.delta if isinstance(matrix, DeltaMatrix) else matrix.N
    return {(matrix.sources[r], matrix.targets[c]): float(values[r, c])
            for r, c in zip(*np.nonzero(values))}


def child_env() -> dict[str, str]:
    """The environment with this tnrisk's source directory first on PYTHONPATH."""
    src = Path(tnrisk.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def params_from_dicts(S: dict[str, float], T: dict[tuple[str, str], float],
                      I: dict[str, float], Y: dict[str, float], **scalars) -> ModelParams:
    """ModelParams whose barriers are ``T``, a {(origin, dest): cost} dict.

    The barrier axis covers every code of S, T, I and Y.  T's pairs are listed at
    their cost, each supply code's domestic pair that T leaves out at 0.0, and
    every other pair is unlisted (BLOCKED).  ``T`` itself is left as passed.
    """
    codes = sorted({*S, *I, *Y}.union(*T))
    index = {c: k for k, c in enumerate(codes)}
    cost = np.full((len(codes),) * 2, BLOCKED)
    listed = np.zeros(cost.shape, dtype=bool)
    for k in map(index.__getitem__, S):
        cost[k, k], listed[k, k] = 0.0, True
    for (i, j), v in T.items():
        cost[index[i], index[j]], listed[index[i], index[j]] = v, True
    return ModelParams(S=S, T=Barriers(codes, cost, listed), I=I, Y=Y, **scalars)


def barrier(params: ModelParams, origin: str, dest: str) -> float:
    """The listed barrier of one pair; KeyError for a pair the barriers do not list."""
    return dict(params.T.items())[(origin, dest)]


def fortress(params: ModelParams, code: str) -> ModelParams:
    """``params`` with every foreign route into ``code`` blocked: the fortress-USA built-in
    for any code."""
    return apply_scenario(params, ScenarioSpec(f"fortress-{code}", [("*", code, BLOCKED)]))


def tiny_params(abandon=BLOCKED, lam=0.1) -> ModelParams:
    """One source, two targets of unequal worth."""
    return params_from_dicts(
        S={"SRC": 100.0},
        T={("SRC", "USA"): 0.2, ("SRC", "FRA"): 1.0},
        I={"USA": 1.5, "FRA": 0.6},
        Y={"USA": -54.0, "FRA": -6.8},
        A=abandon,
        lam=lam,
    )


def random_params(rng: np.random.Generator,
                  max_sources: int = 5,
                  max_targets: int = 6,
                  blocked_fraction: float = 0.2,
                  finite_abandon_prob: float = 0.5) -> ModelParams:
    """Small random instance with costs in [-60, 5] and some blocked edges."""
    n_src = int(rng.integers(1, max_sources + 1))
    n_tgt = int(rng.integers(1, max_targets + 1))
    sources = [f"S{k:02d}" for k in range(n_src)]
    targets = [f"T{k:02d}" for k in range(n_tgt)]
    T = {}
    for i in sources:
        for j in targets:
            if rng.random() < blocked_fraction:
                T[(i, j)] = BLOCKED
            else:
                T[(i, j)] = float(rng.uniform(0.0, 10.0))
    I = {j: float(rng.uniform(0.0, 5.0)) for j in targets}
    Y = {j: float(rng.uniform(-60.0, 0.0)) for j in targets}
    A = float(rng.uniform(-60.0, 5.0)) if rng.random() < finite_abandon_prob else BLOCKED
    S = {i: float(rng.uniform(1.0, 1000.0)) for i in sources}
    return params_from_dicts(S=S, T=T, I=I, Y=Y, A=A, lam=float(rng.uniform(0.0, 1.0)))


# code -> (population, muslim_pop)
RAW_COUNTRIES = {"DEU": (8.3e7, 5.5e6), "FRA": (6.7e7, 5.7e6), "ITA": (5.9e7, 2.7e6),
                 "USA": (3.3e8, 3.5e6)}


def raw_tables(directory: Path, migration: str, distance: str,
               countries: dict[str, tuple[float, float]] = RAW_COUNTRIES) -> Path:
    """countries.csv, migration.csv and distance_km.csv in ``directory``.

    Each country is code -> (population, muslim_pop); ``migration`` and
    ``distance`` are the pair tables' rows, written after their header.
    """
    rows = [f"{c},{c},Europe,{pop!r},,,{muslim!r},,,,,0,0"
            for c, (pop, muslim) in countries.items()]
    (directory / "countries.csv").write_text("\n".join([",".join(COUNTRY_HEADER), *rows]) + "\n",
                                             encoding="utf-8")
    for name, text in (("migration.csv", migration), ("distance_km.csv", distance)):
        (directory / name).write_text("origin,dest,value\n" + text, encoding="utf-8")
    return directory


def bundle_copy(tmp_path: Path, *edits: tuple[str, str | None, int, str | None]) -> Path:
    """A copy of the bundled data with edits (file, row prefix, cell, value) made in order.

    An edit with no row prefix appends its value as a new line; one with no
    value deletes the row.
    """
    data = tmp_path / "data"
    shutil.copytree(bundled_data_dir(), data)
    for name, row, cell, value in edits:
        path = data / name
        lines = path.read_text().splitlines()
        if row is None:
            lines.append(value)
        else:
            k = next(k for k, ln in enumerate(lines) if ln.startswith(row))
            if value is None:
                del lines[k]
            else:
                cells = lines[k].split(",")
                cells[cell] = value
                lines[k] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    return data


def bundled_countries_with(directory: Path, *rows: str) -> CountryTable:
    """The bundled countries.csv with ``rows`` appended, as load_country_table reads it."""
    path = directory / "countries.csv"
    text = (bundled_data_dir() / "countries.csv").read_text(encoding="utf-8")
    path.write_text(text + "".join(f"{row}\n" for row in rows), encoding="utf-8")
    return load_country_table(path)


def same_table(a: CountryTable, b: CountryTable) -> bool:
    """Column by column, NaN equal to NaN: == on a dataclass holding arrays is ambiguous."""
    return all(np.array_equal(x, y, equal_nan=True) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(vars(a).values(), vars(b).values()))
