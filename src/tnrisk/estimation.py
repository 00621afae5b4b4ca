"""Parameter estimators: supply, translocation barriers, interception, yield.

Every cost-like quantity goes through the same min-median normalization so the
four parameter sets are mutually comparable: the cheapest observation maps to 0
and the median observation to 1 (to -1 for yields, which carry the opposite
sign).  The normalization is scale invariant, so the raw units never matter.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dataset import CountryRecord, DataBundle, write_csv
from .errors import DegenerateSpread, EmptyRegion, MissingImputation, ModelError
from .params import (
    BLOCKED,
    DEFAULT_Q,
    Barriers,
    ModelParams,
    SupportWeights,
    WEIGHT_PRESETS,
    is_blocked,
)

logger = logging.getLogger(__name__)


def normalize_min_median(values, sign: str = "cost") -> np.ndarray:
    """Min-median normalization of finite values, as an array; ModelError if it overflows.

    cost mode:  (v - min) / (median - min)   -> min 0, median 1
    yield mode: (min - v) / (median - min)   -> max 0, median -1
    """
    if sign not in ("cost", "yield"):
        raise ValueError(f"bad sign {sign!r}")
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ModelError("min-median normalization needs finite values")
    if values.size < 2:
        raise DegenerateSpread("need at least two finite values")
    lo = float(values[values.argmin()])  # the first of equal minima, as min() takes 0.0 or -0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        med = float(np.median(values))
        if med == lo:
            raise DegenerateSpread(f"median equals minimum ({lo})")
        out = (values - lo) / (med - lo) if sign == "cost" else (lo - values) / (med - lo)
    if not np.isfinite(out).all():  # no parameter table could hold the result
        raise ModelError(f"min-median normalization overflows: values up to {values.max()} "
                         f"for a median - minimum of {med - lo}")
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


def raw_barrier(p_i, p_j, d_ij, m_ij):
    """Gravity-law migration shortfall (p_i * p_j / d_ij^2) / m_ij, over floats or arrays."""
    # d_ij * d_ij is rounded once, as an array's d_ij**2 is; a float's ** goes through libm pow
    return p_i * p_j / (d_ij * d_ij) / m_ij


def estimate_barriers(bundle: DataBundle) -> Barriers:
    """Translocation cost per listed (origin, destination) migration pair, on the bundle's axis.

    A zero migration lists its pair as BLOCKED; a pair with no migration row is not
    listed, so it is BLOCKED downstream.  Domestic barriers are zero by assumption.
    """
    at = np.searchsorted(bundle.codes, [c.code for c in bundle.countries])  # each one's place
    pop = np.empty(len(at))
    pop[at] = [c.population for c in bundle.countries]
    listed = ~np.isnan(bundle.migration)
    with np.errstate(divide="ignore"):  # zero migration, and the diagonal's zero distance: inf
        raw = raw_barrier(pop[:, None], pop, bundle.distance, bundle.migration)
    observed = listed & ~is_blocked(raw)  # never on the diagonal
    if np.count_nonzero(observed) < 2:
        raise DegenerateSpread("fewer than two observed migration pairs")
    cost = np.full(raw.shape, BLOCKED)
    cost[observed] = normalize_min_median(raw[observed], "cost")
    # a source with zero recorded migration everywhere cannot attack abroad
    channel = (~is_blocked(cost)).any(axis=1)  # the diagonal is still BLOCKED here
    for c, k in zip(bundle.countries, at.tolist()):
        if c.muslim_pop > 0 and not channel[k]:
            logger.warning("source %s has no traversable outbound barrier", c.code)
    np.fill_diagonal(cost, 0.0)
    np.fill_diagonal(listed, True)  # a listed domestic migration row changes nothing
    return Barriers(bundle.codes, cost, listed)


def estimate_interception(countries: list[CountryRecord]) -> dict[str, float]:
    """Interception cost per target from security spending as a GDP fraction."""
    targets = [c for c in countries if c.is_target]  # the loader requires their sec_fraction
    if len(targets) < 2:
        raise DegenerateSpread("need at least two target countries with security data")
    normalized = normalize_min_median([c.sec_fraction for c in targets], "cost")
    return {c.code: v for c, v in zip(targets, normalized.tolist())}


def estimate_yield(countries: list[CountryRecord]) -> dict[str, float]:
    """Attack yield per target from GDP; non-positive with median -1."""
    targets = [c for c in countries if c.is_target and c.gdp is not None]
    if len(targets) < 2:
        raise DegenerateSpread("need at least two target countries with GDP")
    normalized = normalize_min_median([c.gdp for c in targets], "yield")
    return {c.code: v for c, v in zip(targets, normalized.tolist())}


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
    T = params.T
    rows, cols = np.nonzero(T.listed)  # row-major on the sorted axis: sorted pair order
    cost = T.cost[rows, cols]
    cost[is_blocked(cost)] = BLOCKED  # written as inf
    write_csv(directory / "barriers.csv", ["origin", "dest", "cost"],
              zip(map(T.codes.__getitem__, rows.tolist()), map(T.codes.__getitem__, cols.tolist()),
                  cost.tolist()))
