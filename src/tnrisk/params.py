"""Model parameter containers and the BLOCKED cost sentinel.

Costs are dimensionless after min-median normalization.  Untraversable
routes are held as a single BLOCKED sentinel (infinity); huge finite stand-ins
such as 1e+200 are folded into it at parse time because mixing them into
exponentials is numerically unsafe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

BLOCKED = math.inf

# any parsed cost at or above this is treated as untraversable
_BLOCKED_FLOOR = 1e100


def is_blocked(value: float) -> bool:
    return value >= _BLOCKED_FLOOR


def parse_cost(v, name: str = "cost") -> float:
    """A route cost: a number, or 'inf'/'blocked'; values >= 1e100 fold into BLOCKED.

    Raises ValueError, naming the value, for NaN, -inf or anything else.
    """
    try:
        value = float(v)
    except (TypeError, ValueError):
        value = BLOCKED if isinstance(v, str) and v.strip().lower() == "blocked" else math.nan
    if math.isnan(value) or value == -math.inf:
        raise ValueError(f"{name} must be a number, 'inf' or 'blocked', got {v!r}")
    return BLOCKED if value >= _BLOCKED_FLOOR else value


def cost_out(value: float) -> float | str:
    """A cost as written to a file or metadata: 'inf' when blocked."""
    return "inf" if is_blocked(value) else value


def parse_number(v, sign: int = 0, name: str = "value") -> float:
    """A finite number, also >= 0 for sign +1 (supply, interception) or <= 0 for -1 (yield).

    Raises ValueError, naming the value, otherwise.
    """
    try:
        value = float(v)
    except (TypeError, ValueError):
        value = math.nan
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

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.s_r, self.s_s, self.s_o)


WEIGHT_PRESETS = {
    "default": SupportWeights(0.25, 0.50, 1.00),
    "high_commitment": SupportWeights(0.1, 0.2, 1.0),
    "low_commitment": SupportWeights(0.33, 0.66, 1.00),
}

DEFAULT_LAMBDA = 0.1
DEFAULT_Q = 0.002


@dataclass
class ModelParams:
    """Estimated model inputs for the attack-allocation solver.

    S: expected plot counts per source country
    T: translocation cost per (origin, destination); missing pairs are BLOCKED
    I: interception cost per target country
    Y: attack yield per target country (non-positive)
    A: abandon yield; BLOCKED disables abandoning
    """

    S: dict[str, float]
    T: dict[tuple[str, str], float]
    I: dict[str, float]
    Y: dict[str, float]
    A: float = BLOCKED
    lam: float = DEFAULT_LAMBDA
    Q: float = DEFAULT_Q
    weights_label: str = "default"

    def __post_init__(self):
        # domestic operations carry negligible barriers; the caller's dict is left as passed
        self.T = dict(self.T)
        for code in self.S:
            self.T.setdefault((code, code), 0.0)

    @property
    def sources(self) -> list[str]:
        return sorted(c for c, s in self.S.items() if s > 0)

    @property
    def targets(self) -> list[str]:
        return sorted(set(self.I) & set(self.Y))

    @property
    def codes(self) -> set[str]:
        """Every country code that any parameter table mentions."""
        return set(self.S) | set(self.I) | set(self.Y) | {c for pair in self.T for c in pair}

    def barrier(self, origin: str, dest: str) -> float:
        if origin == dest:
            return 0.0
        return self.T.get((origin, dest), BLOCKED)

    def copy(self) -> "ModelParams":
        return replace(self, S=dict(self.S), T=dict(self.T), I=dict(self.I), Y=dict(self.Y))

    def echo(self) -> dict:
        """Scalar parameters for reproducibility metadata."""
        return {
            "lambda": self.lam,
            "abandon_yield": cost_out(self.A),
            "q": self.Q,
            "weights_preset": self.weights_label,
            "n_sources": len(self.sources),
            "n_targets": len(self.targets),
        }
