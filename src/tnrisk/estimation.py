"""Parameter estimators: supply, translocation barriers, interception, yield.

Every cost-like quantity goes through the same min-median normalization so the
four parameter sets are mutually comparable: the cheapest observation maps to 0
and the median observation to 1 (to -1 for yields, which carry the opposite
sign).  The normalization is scale invariant, so the raw units never matter.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .dataset import CountryTable, DataBundle
from .params import (
    BLOCKED,
    DEFAULT_Q,
    Barriers,
    ModelError,
    ModelParams,
    SupportWeights,
    WEIGHT_PRESETS,
    is_blocked,
)


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
        raise ModelError("need at least two finite values")
    lo = float(values[values.argmin()])  # the first of equal minima, as min() takes 0.0 or -0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        # np.median's partition and middle mean, less its NaN check, which imports numpy.ma
        kth = [values.size // 2 - 1, values.size // 2][values.size % 2:]  # the middle, or pair
        med = float(np.partition(values, [*kth, -1])[kth[0]:kth[-1] + 1].mean())
        if med == lo:
            raise ModelError(f"median equals minimum ({lo})")
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
        region = countries.regions[int(lonely.argmax())]
        raise ModelError(f"region {region!r} has no surveyed country to impute from")
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
        code = countries.codes[int(missing.argmax())]
        raise ModelError(f"country {code!r} has no survey data and no regional mean")
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
    countries, rows, cols = bundle.countries, bundle.rows, bundle.cols
    at = np.searchsorted(bundle.codes, countries.codes)  # each row's place on the axis
    pop = countries.population[np.argsort(at)]  # on the axis
    # zero migration: inf; an overflow is a raw barrier >= 1e100, which folds into BLOCKED
    # like any other; a domestic pair's zero distance: inf, or NaN where the population
    # squared underflows to 0, and never observed
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        raw = raw_barrier(pop[rows], pop[cols], bundle.distance, bundle.migration)
    observed = ~is_blocked(raw) & (rows != cols)
    if np.count_nonzero(observed) < 2:
        raise ModelError("fewer than two observed migration pairs")
    cost = np.full((len(at),) * 2, BLOCKED)
    cost[rows[observed], cols[observed]] = normalize_min_median(raw[observed], "cost")
    # a source with zero recorded migration everywhere cannot attack abroad
    channel = (~is_blocked(cost)).any(axis=1)  # the diagonal is still BLOCKED here
    for code in np.array(countries.codes)[(countries.muslim_pop > 0) & ~channel[at]].tolist():
        import logging  # loaded only when a warning is logged
        logging.getLogger(__name__).warning("source %s has no traversable outbound barrier", code)
    np.fill_diagonal(cost, 0.0)
    listed = np.eye(len(at), dtype=bool)  # a listed domestic migration row changes nothing
    listed[rows, cols] = True
    return Barriers(bundle.codes, cost, listed)


def _per_target(countries: CountryTable, values, sign: str, what: str) -> dict[str, float]:
    """The targets' ``values``, where given, min-median normalised, by code in row order."""
    targets = np.flatnonzero(countries.is_target & ~np.isnan(values))
    if len(targets) < 2:
        raise ModelError(f"need at least two target countries with {what}")
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
    """Run all four estimators on a bundle; A and lambda keep their defaults."""
    countries = impute_survey(bundle.countries)
    return ModelParams(S=estimate_supply(countries, weights, q), T=estimate_barriers(bundle),
                       I=estimate_interception(countries), Y=estimate_yield(countries))

