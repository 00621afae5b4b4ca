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

from .dataset import CountryTable, DataBundle, write_csv
from .errors import DegenerateSpread, EmptyRegion, MissingImputation, ModelError
from .params import (
    BLOCKED,
    DEFAULT_Q,
    Barriers,
    ModelParams,
    SupportWeights,
    WEIGHT_PRESETS,
    cost_out,
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


def impute_survey(countries: CountryTable) -> CountryTable:
    """Fill missing survey fractions with the unweighted regional mean.

    A row with Muslim population and a fraction missing gets all three means of its
    region's surveyed rows; the other rows are left as-is.  Idempotent.
    """
    sigma = countries.sigma
    surveyed = ~np.isnan(sigma).any(axis=1)
    gap = ~surveyed & (countries.muslim_pop > 0)
    names, region = np.unique(countries.regions, return_inverse=True)
    peers = np.bincount(region[surveyed], minlength=len(names))[region]  # per row, its region's
    lonely = gap & (peers == 0)
    if lonely.any():
        raise EmptyRegion(countries.regions[int(lonely.argmax())])
    # bincount adds in row order from 0.0, as a left-to-right sum over the peers does
    sums = [np.bincount(region[surveyed], f, len(names))[region[gap]] for f in sigma[surveyed].T]
    filled = sigma.copy()
    filled[gap] = np.column_stack(sums) / peers[gap, None]
    return replace(countries, sigma=filled)


def estimate_supply(countries: CountryTable,
                    weights: SupportWeights = WEIGHT_PRESETS["default"],
                    q: float = DEFAULT_Q) -> dict[str, float]:
    """Plots per country, q * muslim_pop * weighted support; one that overflows is a ModelError."""
    muslim_pop, (r, s, o) = countries.muslim_pop, countries.sigma.T
    missing = (muslim_pop > 0) & np.isnan(countries.sigma).any(axis=1)
    if missing.any():
        raise MissingImputation(countries.codes[int(missing.argmax())])
    with np.errstate(all="ignore"):  # an overflow is reported below
        supply = np.where(muslim_pop == 0, 0.0,
                          q * muslim_pop * (weights.s_r * r + weights.s_s * s + weights.s_o * o))
    overflow = ~np.isfinite(supply)  # inf, or NaN where an infinite q * muslim_pop meets 0 support
    if overflow.any():
        k = int(overflow.argmax())
        raise ModelError(f"estimated supply of {countries.codes[k]!r} overflows: "
                         f"{q} * {muslim_pop[k]} * support = {supply[k]}")
    return dict(zip(countries.codes, supply.tolist()))


def raw_barrier(p_i, p_j, d_ij, m_ij):
    """Gravity-law migration shortfall (p_i * p_j / d_ij^2) / m_ij, over floats or arrays."""
    # d_ij * d_ij is rounded once, as an array's d_ij**2 is; a float's ** goes through libm pow
    return p_i * p_j / (d_ij * d_ij) / m_ij


def estimate_barriers(bundle: DataBundle) -> Barriers:
    """Translocation cost per listed (origin, destination) migration pair, on the bundle's axis.

    A zero migration lists its pair as BLOCKED; a pair with no migration row is not
    listed, so it is BLOCKED downstream.  Domestic barriers are zero by assumption.
    """
    countries = bundle.countries
    at = np.searchsorted(bundle.codes, countries.codes)  # each row's place on the axis
    pop = np.empty(len(at))
    pop[at] = countries.population
    listed = ~np.isnan(bundle.migration)
    # zero migration, and the diagonal's zero distance: inf; an overflow is a raw barrier
    # >= 1e100, which folds into BLOCKED like any other
    with np.errstate(divide="ignore", over="ignore"):
        raw = raw_barrier(pop[:, None], pop, bundle.distance, bundle.migration)
    observed = listed & ~is_blocked(raw)  # never on the diagonal
    if np.count_nonzero(observed) < 2:
        raise DegenerateSpread("fewer than two observed migration pairs")
    cost = np.full(raw.shape, BLOCKED)
    cost[observed] = normalize_min_median(raw[observed], "cost")
    # a source with zero recorded migration everywhere cannot attack abroad
    channel = (~is_blocked(cost)).any(axis=1)  # the diagonal is still BLOCKED here
    for k in np.flatnonzero((countries.muslim_pop > 0) & ~channel[at]).tolist():
        logger.warning("source %s has no traversable outbound barrier", countries.codes[k])
    np.fill_diagonal(cost, 0.0)
    np.fill_diagonal(listed, True)  # a listed domestic migration row changes nothing
    return Barriers(bundle.codes, cost, listed)


def _per_target(countries: CountryTable, values, sign: str, what: str) -> dict[str, float]:
    """The targets' ``values``, where given, min-median normalised, by code in row order."""
    targets = np.flatnonzero(countries.is_target & ~np.isnan(values))
    if len(targets) < 2:
        raise DegenerateSpread(f"need at least two target countries with {what}")
    codes = map(countries.codes.__getitem__, targets.tolist())
    return dict(zip(codes, normalize_min_median(values[targets], sign).tolist()))


def estimate_interception(countries: CountryTable) -> dict[str, float]:
    """Interception cost per target from security spending as a GDP fraction."""
    return _per_target(countries, countries.sec_fraction, "cost", "security data")


def estimate_yield(countries: CountryTable) -> dict[str, float]:
    """Attack yield per target from GDP; non-positive with median -1."""
    return _per_target(countries, countries.gdp, "yield", "GDP")


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
              ((i, j, cost_out(v)) for (i, j), v in params.T.items()))
