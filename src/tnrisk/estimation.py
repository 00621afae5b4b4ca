"""Parameter estimators: supply, translocation barriers, interception, yield.

Every cost-like quantity goes through the same min-median normalization so the
four parameter sets are mutually comparable: the cheapest observation maps to 0
and the median observation to 1 (to -1 for yields, which carry the opposite
sign).  The normalization is scale invariant, so the raw units never matter.
"""

from __future__ import annotations

import logging
import statistics
from dataclasses import replace
from pathlib import Path

from .dataset import CountryRecord, DataBundle, write_csv
from .errors import DegenerateSpread, EmptyRegion, MissingImputation
from .params import (
    BLOCKED,
    DEFAULT_Q,
    ModelParams,
    SupportWeights,
    WEIGHT_PRESETS,
    cost_out,
    is_blocked,
)

logger = logging.getLogger(__name__)


def normalize_min_median(values: list[float], sign: str = "cost") -> list[float]:
    """Min-median normalization; BLOCKED entries pass through untouched.

    cost mode:  (v - min) / (median - min)   -> min 0, median 1
    yield mode: (min - v) / (median - min)   -> max 0, median -1
    """
    if sign not in ("cost", "yield"):
        raise ValueError(f"bad sign {sign!r}")
    finite = [v for v in values if not is_blocked(v)]
    if len(finite) < 2:
        raise DegenerateSpread("need at least two finite values")
    lo = min(finite)
    med = statistics.median(finite)
    if med == lo:
        raise DegenerateSpread(f"median equals minimum ({lo})")
    span = med - lo
    out = []
    for v in values:
        if is_blocked(v):
            out.append(v)
        elif sign == "cost":
            out.append((v - lo) / span)
        else:
            out.append((lo - v) / span)
    return out


def impute_survey(countries: list[CountryRecord]) -> list[CountryRecord]:
    """Fill missing survey fractions with the unweighted regional mean.

    Countries with no Muslim population contribute no plots and are left as-is.
    Idempotent: surveyed countries are never modified.
    """
    by_region: dict[str, list[CountryRecord]] = {}
    for c in countries:
        if c.has_survey:
            by_region.setdefault(c.region, []).append(c)
    out = []
    for c in countries:
        if c.has_survey or c.muslim_pop == 0:
            out.append(c)
            continue
        peers = by_region.get(c.region)
        if not peers:
            raise EmptyRegion(c.region)
        n = len(peers)
        out.append(replace(
            c,
            sigma_r=sum(p.sigma_r for p in peers) / n,
            sigma_s=sum(p.sigma_s for p in peers) / n,
            sigma_o=sum(p.sigma_o for p in peers) / n,
        ))
    return out


def estimate_supply(countries: list[CountryRecord],
                    weights: SupportWeights = WEIGHT_PRESETS["default"],
                    q: float = DEFAULT_Q) -> dict[str, float]:
    """Expected plots per country: q * muslim_pop * weighted support fraction."""
    supply: dict[str, float] = {}
    for c in countries:
        if c.muslim_pop == 0:
            supply[c.code] = 0.0
            continue
        if not c.has_survey:
            raise MissingImputation(c.code)
        r, s, o = c.sigma
        supply[c.code] = q * c.muslim_pop * (weights.s_r * r + weights.s_s * s + weights.s_o * o)
    return supply


def raw_barrier(p_i: float, p_j: float, d_ij: float, m_ij: float | None) -> float:
    """Gravity-law migration shortfall: (p_i * p_j / d_ij^2) / m_ij.

    No observed migration means no usable channel: BLOCKED.
    """
    if p_i <= 0 or p_j <= 0 or d_ij <= 0:
        raise ValueError("populations and distance must be positive")
    if m_ij is None or m_ij == 0:
        return BLOCKED
    if m_ij < 0:
        raise ValueError("migration must be non-negative")
    return (p_i * p_j / d_ij**2) / m_ij


def estimate_barriers(bundle: DataBundle) -> dict[tuple[str, str], float]:
    """Translocation cost per observed (origin, destination) migration pair.

    Pairs with no migration data stay out of the map and are treated as BLOCKED
    downstream.  Domestic barriers are zero by assumption.
    """
    by_code = bundle.by_code()
    raw = {(i, j): raw_barrier(by_code[i].population, by_code[j].population,
                               bundle.distances.get(i, j), m)
           for (i, j), m in bundle.migration.entries.items() if i != j}
    finite_keys = [k for k, v in raw.items() if not is_blocked(v)]
    if len(finite_keys) < 2:
        raise DegenerateSpread("fewer than two observed migration pairs")
    normalized = normalize_min_median([raw[k] for k in finite_keys], "cost")
    barriers = {k: v for k, v in zip(finite_keys, normalized)}
    for k, v in raw.items():
        if is_blocked(v):
            barriers[k] = BLOCKED
    for c in bundle.countries:
        barriers[(c.code, c.code)] = 0.0
    # a source with zero recorded migration everywhere cannot attack abroad
    origins_with_channel = {i for (i, j), v in barriers.items() if i != j and not is_blocked(v)}
    for c in bundle.countries:
        if c.muslim_pop > 0 and c.code not in origins_with_channel:
            logger.warning("source %s has no traversable outbound barrier", c.code)
    return barriers


def estimate_interception(countries: list[CountryRecord]) -> dict[str, float]:
    """Interception cost per target from security spending as a GDP fraction."""
    targets = [c for c in countries if c.is_target]  # the loader requires their sec_fraction
    if len(targets) < 2:
        raise DegenerateSpread("need at least two target countries with security data")
    normalized = normalize_min_median([c.sec_fraction for c in targets], "cost")
    return {c.code: v for c, v in zip(targets, normalized)}


def estimate_yield(countries: list[CountryRecord]) -> dict[str, float]:
    """Attack yield per target from GDP; non-positive with median -1."""
    targets = [c for c in countries if c.is_target and c.gdp is not None]
    if len(targets) < 2:
        raise DegenerateSpread("need at least two target countries with GDP")
    normalized = normalize_min_median([c.gdp for c in targets], "yield")
    return {c.code: v for c, v in zip(targets, normalized)}


def estimate_params(bundle: DataBundle,
                    weights: SupportWeights = WEIGHT_PRESETS["default"],
                    q: float = DEFAULT_Q) -> ModelParams:
    """Run all four estimators on a bundle; A, lambda and the weights label keep their defaults."""
    countries = impute_survey(bundle.countries)
    return ModelParams(S=estimate_supply(countries, weights, q), T=estimate_barriers(bundle),
                       I=estimate_interception(countries), Y=estimate_yield(countries), Q=q)


def write_params_csv(params: ModelParams, directory: str | Path) -> None:
    """Emit the four parameter tables in the pre-estimated schemas."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, column, data in (("supply.csv", "supply", params.S),
                               ("interception.csv", "cost", params.I),
                               ("yield.csv", "yield", params.Y)):
        write_csv(directory / name, ["code", column], sorted(data.items()))
    write_csv(directory / "barriers.csv", ["origin", "dest", "cost"],
              ((i, j, cost_out(v)) for (i, j), v in sorted(params.T.items())))
