"""The attack-allocation solver, counterfactual perturbations and comparisons.

A scenario is a list of overrides applied to a copy of the model parameters:
barrier overrides (with '*' wildcards that never touch the diagonal), and
optional replacements for the abandon yield, lambda, interception and yield
vectors.  Built-in scenarios cover the fortress and home-grown counterfactuals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .dataset import BLOCK_CELLS
from .errors import EmptyTargets, IndexMismatch, ModelError, ThresholdOutOfRange, UnknownCode
from .evader import AttackMatrix
from .params import BLOCKED, Barriers, ModelParams, is_blocked, parse_cost, parse_number


@dataclass
class ScenarioSpec:
    """Overrides, checked on construction: a bad value raises ModelError naming its field.

    A spec file is one JSON object whose keys are these fields, each optional.
    Barrier overrides are costs >= 0 as in barriers.csv, the abandon override any
    cost (a number, 'inf' or 'blocked'); lambda and interception overrides are
    finite and >= 0, yields finite and <= 0.
    """

    name: str = "unnamed"
    barrier_overrides: list[tuple[str, str, float]] = field(default_factory=list)
    a_override: float | None = None
    lambda_override: float | None = None
    interception_overrides: dict[str, float] = field(default_factory=dict)
    yield_overrides: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        try:
            for key, kind in (("name", str), ("interception_overrides", dict),
                              ("yield_overrides", dict)):
                if not isinstance(getattr(self, key), kind):
                    raise ValueError(f"{key} must be a {'string' if kind is str else 'JSON object'}"
                                     f", got {getattr(self, key)!r}")
            if not (isinstance(self.barrier_overrides, (list, tuple)) and all(
                    isinstance(row, (list, tuple)) and len(row) == 3
                    and all(isinstance(code, str) for code in row[:2])
                    for row in self.barrier_overrides)):
                raise ValueError("barrier_overrides must be a list of [origin, dest, cost], "
                                 f"got {self.barrier_overrides!r}")
            self.barrier_overrides = [(o, d, parse_cost(v, f"barrier override {o},{d}", +1))
                                      for o, d, v in self.barrier_overrides]
            if self.a_override is not None:
                self.a_override = parse_cost(self.a_override, "a_override")
            if self.lambda_override is not None:
                self.lambda_override = parse_number(self.lambda_override, +1, "lambda_override")
            self.interception_overrides = {c: parse_number(v, +1, f"interception override {c}")
                                           for c, v in self.interception_overrides.items()}
            self.yield_overrides = {c: parse_number(v, -1, f"yield override {c}")
                                    for c, v in self.yield_overrides.items()}
        except ValueError as e:
            raise ModelError(f"scenario {e}") from None

    @staticmethod
    def from_json(path: str | Path) -> "ScenarioSpec":
        """Read a spec file; a file that is not a valid spec raises ModelError naming it."""
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(doc, dict):
                raise ValueError(f"scenario spec must be one JSON object, got {doc!r:.40}")
            unknown = sorted(doc.keys() - {f.name for f in fields(ScenarioSpec)})
            if unknown:
                raise ValueError(f"scenario spec has no key {unknown[0]!r}")
            return ScenarioSpec(**doc)
        except (ValueError, ModelError) as e:  # JSONDecodeError is a ValueError
            raise ModelError(f"{path}: {e}") from None


def apply_scenario(params: ModelParams, spec: ScenarioSpec) -> ModelParams:
    """Return a new ModelParams with the scenario's overrides applied, in order.

    A code the parameters do not have raises UnknownCode naming the spec field.
    """
    index = params.T.index
    barrier_codes = [c for row in spec.barrier_overrides for c in row[:2] if c != "*"]
    for key, codes, known in (("barrier_overrides", barrier_codes, index),
                              ("interception_overrides", spec.interception_overrides, params.I),
                              ("yield_overrides", spec.yield_overrides, params.Y)):
        for code in codes:
            if code not in known:
                raise UnknownCode(code, key)
    out = params.copy()
    if spec.barrier_overrides:
        cost, listed = params.T.cost.copy(), params.T.listed.copy()
        for origin, dest, value in spec.barrier_overrides:
            cells = tuple(slice(None) if pat == "*" else index[pat] for pat in (origin, dest))
            home = cost.diagonal().copy(), listed.diagonal().copy()
            cost[cells] = value
            listed[cells] = True
            if "*" in (origin, dest):  # wildcards never touch domestic barriers
                np.fill_diagonal(cost, home[0])
                np.fill_diagonal(listed, home[1])
        out.T = Barriers(params.T.codes, cost, listed)
    out.I.update(spec.interception_overrides)
    out.Y.update(spec.yield_overrides)
    if spec.a_override is not None:
        out.A = spec.a_override
    if spec.lambda_override is not None:
        out.lam = spec.lambda_override
    return out


# named scenarios usable directly from the CLI
BUILTIN_SCENARIOS = {"fortress-USA": ScenarioSpec("fortress-USA", [("*", "USA", BLOCKED)]),
                     "homegrown": ScenarioSpec("homegrown", [("*", "*", BLOCKED)])}


@dataclass
class RouteNetwork:
    """The source -> staged -> attack -> end network as one cost per route.

    Every staged node has a single successor, so a source chooses among whole routes:
    through target j at cost T_ij + I_j + Y_j, or to abandon at cost A.  ``cost`` is the
    ``len(sources) x (len(targets) + 1)`` matrix of these costs, in sorted code order,
    with the abandon route last.  A route with a blocked hop costs +inf.
    """

    sources: list[str]
    targets: list[str]
    supply: np.ndarray
    cost: np.ndarray

    @property
    def edges(self) -> np.ndarray:  # the flat view the benchmark's span counter reads
        return self.cost.reshape(-1)


def build_network(params: ModelParams) -> RouteNetwork:
    """Route costs of every source with positive supply."""
    targets = params.targets
    if not targets:
        raise EmptyTargets("no country has both interception and yield data")
    sources = params.sources
    rows, cols = (np.array([params.T.index[c] for c in codes], dtype=np.intp)
                  for codes in (sources, targets))
    barrier = params.T.cost[np.ix_(rows, cols)]
    attack = np.array([params.I[j] + params.Y[j] for j in targets])
    # a NaN makes a logit row NaN, as does an inf supply; a NaN supply drops out of the sources
    if (np.isnan(barrier).any() or np.isnan(attack).any() or math.isnan(params.A)
            or not np.isfinite(list(params.S.values())).all()):
        raise ModelError("NaN in the barriers, interception, yield or abandon yield, "
                         "or a supply that is NaN or infinite")
    routes = np.where(is_blocked(barrier) | is_blocked(attack), BLOCKED, barrier + attack)
    abandon = BLOCKED if is_blocked(params.A) else params.A
    return RouteNetwork(sources=sources, targets=targets,
                        supply=np.array([params.S[i] for i in sources], dtype=float),
                        cost=np.column_stack([routes, np.full(len(sources), abandon)]))


def _route_weights(cost: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The logit core: ``(best, weight, live)``, where ``live`` masks the rows with an open
    route and, for those rows in order, ``best`` is the cheapest route's cost and ``weight``
    is exp(-lam (cost - best)), 0 on a blocked route (+inf)."""
    if not math.isfinite(lam) or lam < 0:
        raise ValueError(f"lambda must be finite and non-negative, got {lam}")
    best = cost.min(axis=1)
    live = np.isfinite(best)
    best = best[live]
    # costs above each row's cheapest route, so exp cannot overflow
    gap = cost[live] - best[:, None]
    # blocked routes are dropped before scaling: 0 * inf is NaN at lam = 0
    route = np.isfinite(gap)
    weight = np.zeros_like(gap)
    weight[route] = np.exp(-lam * gap[route])
    return best, weight, live


def solve(params: ModelParams) -> AttackMatrix:
    """Expected plots per (source, target): a logit over each source's routes.

    N_ij = S_i exp(-lam u_ij) / (sum_k exp(-lam u_ik) + exp(-lam A)) with
    u_ij = T_ij + I_j + Y_j.  A blocked route gets nothing; a source with no
    open route attacks nowhere, abandons nothing and reports its supply as
    unroutable.
    """
    net = build_network(params)
    _, weight, live = _route_weights(net.cost, params.lam)
    plots = np.zeros_like(net.cost)
    plots[live] = net.supply[live, None] * (weight / weight.sum(axis=1, keepdims=True))
    return AttackMatrix(sources=net.sources, targets=net.targets, N=plots[:, :-1].copy(),
                        abandoned=plots[:, -1].copy(), unroutable=np.where(live, 0.0, net.supply),
                        total_plots=sum(net.supply.tolist()), params_echo=params.echo())


@dataclass
class SweepCurve:
    a_values: list[float]
    totals: list[float]
    targets: list[str]  # sorted
    per_target: np.ndarray  # points x targets


def deterrence_sweep(params: ModelParams, a_values: list[float]) -> SweepCurve:
    """Grand-total (and per-target) attack counts as the abandon yield varies.

    Target shares do not depend on A: with Q_ij = S_i w_ij / W_i over the target routes
    (the plots at A = +inf), N_j(A) = sum_i s_i(A) Q_ij, where the share kept from abandoning
    is s_i(A) = 1 / (1 + exp(-lam (A - b_i)) / W_i); a source with no open target is dropped.
    """
    if any(not math.isfinite(a) for a in a_values):
        raise ValueError("sweep grid must be finite")
    repeat = next(((a, b) for a, b in zip(a_values, a_values[1:]) if a >= b), None)
    if repeat:
        raise ValueError(f"sweep grid must be strictly ascending, got {repeat[0]} then {repeat[1]}")
    net = build_network(params)
    best, weight, live = _route_weights(net.cost[:, :-1], params.lam)
    total = weight.sum(axis=1)
    share = net.supply[live, None] * (weight / total[:, None])
    columns = np.empty((len(a_values), len(net.targets)))
    # s is points x live sources: a block of points holds about BLOCK_CELLS of it
    step = max(BLOCK_CELLS // max(len(best), 1), 1)
    # exp overflows where abandoning is far cheaper: s is then 0
    with np.errstate(over="ignore"):
        for k in range(0, len(a_values), step):
            block = np.array(a_values[k:k + step])[:, None]
            abandon = np.where(is_blocked(block), 0.0, np.exp(-params.lam * (block - best)))
            # einsum, not @: its sums do not depend on the BLAS build or its thread count
            columns[k:k + step] = np.einsum("gs,st->gt", 1.0 / (1.0 + abandon / total), share)
    return SweepCurve(a_values=list(a_values), totals=[sum(r.tolist()) for r in columns],
                      targets=net.targets, per_target=columns)


# the share of the curve's maximum whose crossing find_threshold locates
THRESHOLD_FRACTION = 0.5


def find_threshold(curve: SweepCurve) -> float:
    """Smallest A where the total reaches THRESHOLD_FRACTION * max, linearly interpolated."""
    if not curve.totals or max(curve.totals) <= 0.0:
        raise ThresholdOutOfRange("curve carries no attack mass anywhere on the grid")
    target = THRESHOLD_FRACTION * max(curve.totals)
    if curve.totals[0] >= target:
        return curve.a_values[0]
    for k in range(1, len(curve.totals)):
        if curve.totals[k] >= target:
            a0, a1 = curve.a_values[k - 1], curve.a_values[k]
            t0, t1 = curve.totals[k - 1], curve.totals[k]
            return a0 + (target - t0) * (a1 - a0) / (t1 - t0)
    raise ThresholdOutOfRange(f"total never reaches {THRESHOLD_FRACTION:.0%} of its maximum")


@dataclass
class DeltaMatrix:
    sources: list[str]
    targets: list[str]
    delta: np.ndarray  # alt.N - base.N
    ranked_targets: list[tuple[str, float]]  # by total increase, descending


def diff_matrices(base: AttackMatrix, alt: AttackMatrix) -> DeltaMatrix:
    """Entrywise alt - base, with targets ranked by total increase, largest first, ties by code."""
    if base.sources != alt.sources or base.targets != alt.targets:
        raise IndexMismatch("attack matrices have different source/target sets")
    column_deltas = alt.N.sum(axis=0) - base.N.sum(axis=0)
    ranked = sorted(zip(base.targets, column_deltas.tolist()), key=lambda kv: (-kv[1], kv[0]))
    return DeltaMatrix(sources=list(base.sources), targets=list(base.targets),
                       delta=alt.N - base.N, ranked_targets=ranked)

