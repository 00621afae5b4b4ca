"""Test-only oracle for estimation: the per-row and per-pair estimators the array path replaces.

countries.csv is read as one dict per row, and survey imputation and supply
loop over those rows, so the column estimators ``impute_survey`` and
``estimate_supply`` must give the same bits and raise the same errors.

The pair tables are read into dicts, one entry per listed pair, with each
distance row entered in both directions, so a pair listed both ways holds the
later row's value.  Each migration pair gets its own gravity-law barrier, and
the finite ones are min-median normalised over a plain list, by the reference
``normalize_min_median`` the array normaliser is also tested against.  It reads valid
tables only and checks nothing, so ``estimate_barriers`` must give the same
listed pairs with the same bits, and warn of the same sources.
"""

from __future__ import annotations

import csv
import math
import statistics
from pathlib import Path

from tnrisk.params import ModelError, SupportWeights

BLOCKED = math.inf
SIGMA = ("sigma_r", "sigma_s", "sigma_o")


def read_countries(path: Path) -> list[dict]:
    """countries.csv's rows: code and region, then population, muslim_pop and the survey
    fractions as floats, None where blank."""
    with path.open(newline="", encoding="utf-8") as f:
        return [{"code": row["code"], "region": row["region"],
                 **{k: float(row[k]) if row[k] else None
                    for k in ("population", "muslim_pop", *SIGMA)}}
                for row in csv.DictReader(f)]


def has_survey(row: dict) -> bool:
    return None not in (row[k] for k in SIGMA)


def left_sum(values) -> float:
    """Left to right from 0.0, as sum() adds floats before Python 3.12, which compensates."""
    total = 0.0
    for v in values:
        total += v
    return total


def impute_survey(rows: list[dict]) -> list[dict]:
    """An unsurveyed row with Muslim population gets its region's surveyed rows' means."""
    by_region: dict[str, list[dict]] = {}
    for row in rows:
        if has_survey(row):
            by_region.setdefault(row["region"], []).append(row)
    out = []
    for row in rows:
        if has_survey(row) or row["muslim_pop"] == 0:
            out.append(row)
            continue
        peers = by_region.get(row["region"])
        if not peers:
            raise ModelError(f"region {row['region']!r} has no surveyed country to impute from")
        out.append({**row, **{k: left_sum(p[k] for p in peers) / len(peers) for k in SIGMA}})
    return out


def estimate_supply(rows: list[dict], weights: SupportWeights, q: float) -> dict[str, float]:
    supply: dict[str, float] = {}
    for row in rows:
        if row["muslim_pop"] == 0:
            supply[row["code"]] = 0.0
            continue
        if not has_survey(row):
            raise ModelError(f"country {row['code']!r} has no survey data and no regional mean")
        r, s, o = (row[k] for k in SIGMA)
        supply[row["code"]] = q * row["muslim_pop"] * (weights.s_r * r + weights.s_s * s
                                                       + weights.s_o * o)
    for row in rows:  # every row is checked for imputation before any for overflow
        value = supply[row["code"]]
        if not math.isfinite(value):
            raise ModelError(f"estimated supply of {row['code']!r} overflows: "
                             f"{q} * {row['muslim_pop']} * support = {value}")
    return supply


def read_pairs(path: Path, both_ways: bool) -> dict[tuple[str, str], float]:
    entries: dict[tuple[str, str], float] = {}
    with path.open(newline="", encoding="utf-8") as f:
        for origin, dest, value in list(csv.reader(f))[1:]:
            entries[(origin, dest)] = float(value)
            if both_ways:
                entries[(dest, origin)] = float(value)
    return entries


def raw_barrier(p_i: float, p_j: float, d_ij: float, m_ij: float) -> float:
    """No observed migration means no usable channel: BLOCKED."""
    if m_ij == 0:
        return BLOCKED
    return (p_i * p_j / (d_ij * d_ij)) / m_ij  # d * d: Python's d ** 2 is libm pow


def normalize_min_median(values: list[float], sign: str = "cost",
                         median=statistics.median) -> list[float]:
    """min, ``median`` (statistics.median) and the per-value formula over a plain list."""
    lo, med = min(values), median(values)
    if med == lo:
        raise ModelError(f"median equals minimum ({lo})")
    return [(v - lo) / (med - lo) if sign == "cost" else (lo - v) / (med - lo) for v in values]


def estimate_barriers(data_dir: Path) -> tuple[dict[tuple[str, str], float], list[str]]:
    """(barriers, sources warned of having no open channel), countries in file order."""
    countries = read_countries(data_dir / "countries.csv")
    population = {c["code"]: c["population"] for c in countries}
    migration = read_pairs(data_dir / "migration.csv", both_ways=False)
    distance = read_pairs(data_dir / "distance_km.csv", both_ways=True)
    raw = {(i, j): raw_barrier(population[i], population[j], distance[(i, j)], m)
           for (i, j), m in migration.items() if i != j}
    finite = [k for k, v in raw.items() if v < 1e100]
    if len(finite) < 2:
        raise ModelError("fewer than two observed migration pairs")
    barriers = dict(zip(finite, normalize_min_median([raw[k] for k in finite])))
    barriers.update((k, BLOCKED) for k, v in raw.items() if v >= 1e100)
    barriers.update(((c["code"], c["code"]), 0.0) for c in countries)
    open_origins = {i for (i, j), v in barriers.items() if i != j and v < 1e100}
    warned = [c["code"] for c in countries
              if c["muslim_pop"] > 0 and c["code"] not in open_origins]
    return barriers, warned
