"""Model parameter containers and the BLOCKED cost sentinel.

Costs are dimensionless after min-median normalization.  Untraversable
routes are held as a single BLOCKED sentinel (infinity); huge finite stand-ins
such as 1e+200 are folded into it at parse time because mixing them into
exponentials is numerically unsafe.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np


class ModelError(Exception):
    """A domain error: bad input data or parameters; its message says what and where."""


BLOCKED = math.inf

# any parsed cost at or above this is treated as untraversable
_BLOCKED_FLOOR = 1e100


def is_blocked(value: float) -> bool:
    return value >= _BLOCKED_FLOOR


def to_float(v) -> float:
    """The one reading of a number: float(v) where float() takes v, else BLOCKED for 'blocked'
    in any case and with any spaces around it, else NaN, a bool included (JSON true is not 1)."""
    try:
        return math.nan if isinstance(v, bool) else float(v)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float's range
        return BLOCKED if isinstance(v, str) and v.strip().lower() == "blocked" else math.nan


def parse_cost(v, name: str = "cost", sign: int = 0) -> float:
    """A route cost: a number (>= 0 for sign +1) or 'inf'/'blocked'; >= 1e100 folds into BLOCKED.

    Raises ValueError, naming the value, for NaN, -inf, the wrong sign or anything else.
    """
    value = to_float(v)
    if math.isnan(value) or value == -math.inf or (sign > 0 and value < 0):
        bound = " >= 0" if sign > 0 else ""
        raise ValueError(f"{name} must be a number{bound}, 'inf' or 'blocked', got {v!r}")
    return BLOCKED if value >= _BLOCKED_FLOOR else value


def cost_out(value: float) -> float | str:
    """A cost as written to a file or metadata: 'inf' when blocked."""
    return "inf" if is_blocked(value) else value


def parse_number(v, sign: int = 0, name: str = "value") -> float:
    """A finite number, also >= 0 for sign +1 (supply, interception) or <= 0 for -1 (yield).

    Raises ValueError, naming the value, otherwise.
    """
    value = to_float(v)
    if not math.isfinite(value) or value * sign < 0:
        bound = {1: " >= 0", -1: " <= 0"}.get(sign, "")
        raise ValueError(f"{name} must be a finite number{bound}, got {v!r}")
    return value


@dataclass(frozen=True)
class SupportWeights:
    """Weights applied to the rarely/sometimes/often survey support fractions."""

    s_r: float
    s_s: float
    s_o: float

    def __post_init__(self):
        if not (0.0 < self.s_r <= self.s_s <= self.s_o <= 1.0):
            raise ValueError(f"weights must satisfy 0 < s_r <= s_s <= s_o <= 1, got {self}")


WEIGHT_PRESETS = {
    "default": SupportWeights(0.25, 0.50, 1.00),
    "high_commitment": SupportWeights(0.1, 0.2, 1.0),
    "low_commitment": SupportWeights(0.33, 0.66, 1.00),
}

DEFAULT_LAMBDA = 0.1
DEFAULT_Q = 0.002


class Barriers:
    """Translocation costs as one code x code matrix.

    ``codes`` is the sorted axis of both the rows (origins) and the columns
    (destinations).  ``cost`` holds what the solver uses: the listed cost, or
    BLOCKED for a pair no table lists.  ``listed`` marks the pairs a table
    lists, so a pair listed as blocked ('inf' in the barrier table) stays apart from
    a missing one.  Both arrays are read-only; a scenario edits copies.
    """

    def __init__(self, codes: list[str], cost: np.ndarray, listed: np.ndarray):
        cost.flags.writeable = listed.flags.writeable = False
        self.codes = codes
        self.index = {c: k for k, c in enumerate(codes)}
        self.cost = cost
        self.listed = listed

    def items(self) -> Iterator[tuple[tuple[str, str], float]]:
        """((origin, dest), cost) for each listed pair, in sorted pair order."""
        rows, cols = np.nonzero(self.listed)  # row-major on the sorted axis
        pairs = zip(map(self.codes.__getitem__, rows.tolist()),
                    map(self.codes.__getitem__, cols.tolist()))
        return zip(pairs, self.cost[rows, cols].tolist())


@dataclass
class ModelParams:
    """The model the attack-allocation solver reads, and nothing else.

    S: expected plot counts per source country
    T: translocation cost per (origin, destination) as :class:`Barriers`, whose
       code axis covers every code of S, I and Y; unlisted pairs are BLOCKED.
    I: interception cost per target country
    Y: attack yield per target country (non-positive)
    A: abandon yield; BLOCKED disables abandoning
    lam: rationality parameter of the route logit
    """

    S: dict[str, float]
    T: Barriers
    I: dict[str, float]
    Y: dict[str, float]
    A: float = BLOCKED
    lam: float = DEFAULT_LAMBDA

    @property
    def sources(self) -> list[str]:
        return sorted(c for c, s in self.S.items() if s > 0)

    @property
    def targets(self) -> list[str]:
        return sorted(set(self.I) & set(self.Y))

    def copy(self) -> "ModelParams":
        """A copy whose S, I and Y dicts are its own (T is read-only, so it is shared)."""
        return replace(self, S=dict(self.S), I=dict(self.I), Y=dict(self.Y))
