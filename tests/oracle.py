"""Graph and Markov-chain oracle for the attack allocation.

The general machinery the closed-form solver replaced, kept as an independent
reference for the tests.

Topology: Source(i) -> Staged(j) -> Attack -> End, plus Source(i) -> Abandon -> End.
Edge weights: translocation cost on the first hop, interception + yield on the
second, the abandon yield on the abandon hop, zero into End.  BLOCKED edges are
kept in the edge map but never traversed.  Translocation costs are read pair by
pair from a {(origin, dest): cost} dict of ``params.T.items()`` (BLOCKED where a
pair is not listed), not from the solver's matrix, so the oracle does not share
the production layout.

Each edge (u, v) of the guided-evader chain gets probability proportional to
exp(-lambda * (w(u,v) + cost_to_end(v) - cost_to_end(u))); the exponent is
shifted by its row maximum before exponentiation so large cost magnitudes
cannot overflow.  The chain is absorbed at End.  Exhaustive path enumeration
and seeded Monte Carlo sampling give the path distribution from a source.

:func:`exact_solve` is the one exception to the separate layout: a 50-digit
evaluation of the closed form on the solver's own float route costs, so that
what it measures is the solver's rounding alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext

import numpy as np

from tnrisk.params import BLOCKED, ModelError, ModelParams, is_blocked
from tnrisk.scenario import build_network as route_network

SOURCE = "source"
STAGED = "staged"
ATTACK = "attack"
ABANDON = "abandon"
END = "end"

ABANDON_KEY = "abandon"


class NotAPath(ModelError):
    pass


class BlockedEdgeOnPath(ModelError):
    pass


class DeadSource(ModelError):
    pass


@dataclass(frozen=True, order=True)
class NodeId:
    kind: str
    code: str = ""

    def __repr__(self):
        return f"{self.kind}:{self.code}" if self.code else self.kind


def source(code: str) -> NodeId:
    return NodeId(SOURCE, code)


def staged(code: str) -> NodeId:
    return NodeId(STAGED, code)


ATTACK_NODE = NodeId(ATTACK)
ABANDON_NODE = NodeId(ABANDON)
END_NODE = NodeId(END)


@dataclass
class ActivityNetwork:
    nodes: tuple[NodeId, ...]
    edges: dict[tuple[NodeId, NodeId], float]
    params: ModelParams
    _succ: dict[NodeId, list[NodeId]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._succ:
            for (u, v) in self.edges:
                self._succ.setdefault(u, []).append(v)
            for u in self._succ:
                self._succ[u].sort()

    def successors(self, u: NodeId, traversable_only: bool = True) -> list[NodeId]:
        out = self._succ.get(u, [])
        if traversable_only:
            out = [v for v in out if not is_blocked(self.edges[(u, v)])]
        return out

    def weight(self, u: NodeId, v: NodeId) -> float:
        return self.edges[(u, v)]

    @property
    def source_nodes(self) -> list[NodeId]:
        return [n for n in self.nodes if n.kind == SOURCE]

    @property
    def staged_nodes(self) -> list[NodeId]:
        return [n for n in self.nodes if n.kind == STAGED]

    def topological_order(self) -> list[NodeId]:
        # layered by construction
        return list(self.nodes)


def build_network(params: ModelParams) -> ActivityNetwork:
    """Assemble the activity network for every source with positive supply."""
    targets = params.targets
    if not targets:
        raise ModelError("no country has both interception and yield data")
    sources = params.sources

    nodes: list[NodeId] = [source(i) for i in sources]
    nodes += [staged(j) for j in targets]
    nodes += [ATTACK_NODE, ABANDON_NODE, END_NODE]

    barriers = dict(params.T.items())
    edges: dict[tuple[NodeId, NodeId], float] = {}
    for i in sources:
        for j in targets:
            edges[(source(i), staged(j))] = barriers.get((i, j), BLOCKED)
        edges[(source(i), ABANDON_NODE)] = params.A
    for j in targets:
        edges[(staged(j), ATTACK_NODE)] = params.I[j] + params.Y[j]
    edges[(ATTACK_NODE, END_NODE)] = 0.0
    edges[(ABANDON_NODE, END_NODE)] = 0.0

    return ActivityNetwork(nodes=tuple(nodes), edges=edges, params=params)


@dataclass
class CostToEnd:
    costs: dict[NodeId, float]

    def __getitem__(self, node: NodeId) -> float:
        return self.costs.get(node, BLOCKED)


def least_cost_to_end(network: ActivityNetwork) -> CostToEnd:
    """Least cost from every node to End, BLOCKED where End is unreachable.

    A reverse-topological dynamic program; exact on this DAG, negative edge
    weights included.
    """
    dist = {n: BLOCKED for n in network.nodes}
    dist[END_NODE] = 0.0
    for u in reversed(network.topological_order()):
        if u == END_NODE:
            continue
        best = BLOCKED
        for v in network.successors(u):
            w = network.weight(u, v)
            if not is_blocked(dist[v]):
                best = min(best, w + dist[v])
        dist[u] = best
    return CostToEnd(dist)


def path_cost(network: ActivityNetwork, path: list[NodeId]) -> float:
    """Sum of edge weights along an explicit node sequence."""
    if len(path) < 2:
        raise NotAPath("a path needs at least two nodes")
    total = 0.0
    for u, v in zip(path, path[1:]):
        if (u, v) not in network.edges:
            raise NotAPath(f"{u} -> {v} is not an edge")
        w = network.edges[(u, v)]
        if is_blocked(w):
            raise BlockedEdgeOnPath(f"{u} -> {v} is blocked")
        total += w
    return total


@dataclass
class EvaderChain:
    states: tuple[NodeId, ...]
    M: dict[NodeId, dict[NodeId, float]]  # row-stochastic over traversable edges
    initial: dict[NodeId, float]
    dead: frozenset[NodeId]
    network: ActivityNetwork = field(repr=False, default=None)
    lam: float = 0.0

    def row(self, u: NodeId) -> dict[NodeId, float]:
        return self.M.get(u, {})


def transition_matrix(network: ActivityNetwork, costs: CostToEnd, lam: float) -> EvaderChain:
    """Build the guided-evader chain from least-cost-to-end values."""
    if not math.isfinite(lam) or lam < 0:
        raise ValueError(f"lambda must be finite and non-negative, got {lam}")
    M: dict[NodeId, dict[NodeId, float]] = {}
    dead = set()
    for u in network.nodes:
        if u == END_NODE:
            continue
        options = [(v, network.weight(u, v)) for v in network.successors(u)
                   if not is_blocked(costs[v])]
        if not options:
            dead.add(u)
            continue
        base = costs[u] if not is_blocked(costs[u]) else 0.0
        exponents = [-lam * (w + costs[v] - base) for v, w in options]
        shift = max(exponents)
        weights = [math.exp(e - shift) for e in exponents]
        z = sum(weights)
        M[u] = {v: wt / z for (v, _), wt in zip(options, weights)}

    supply = network.params.S
    total = sum(supply[n.code] for n in network.source_nodes)
    initial = {n: supply[n.code] / total for n in network.source_nodes} if total > 0 else {}
    return EvaderChain(states=tuple(network.nodes), M=M, initial=initial,
                       dead=frozenset(dead), network=network, lam=lam)


def enumerate_path_distribution(network: ActivityNetwork, costs: CostToEnd,
                                start: NodeId, lam: float) -> dict[str, float]:
    """Exhaustive source-to-End path probabilities, keyed by target code or 'abandon'."""
    chain = transition_matrix(network, costs, lam)
    if start in chain.dead:
        raise DeadSource(repr(start))
    dist: dict[str, float] = {}

    def walk(u: NodeId, p: float, key: str | None):
        if u == END_NODE:
            dist[key] = dist.get(key, 0.0) + p
            return
        for v, m in chain.row(u).items():
            k = key
            if v.kind == "staged":
                k = v.code
            elif v == ABANDON_NODE:
                k = ABANDON_KEY
            walk(v, p * m, k)

    walk(start, 1.0, None)
    return dist


def sample_paths(chain: EvaderChain, start: NodeId, n: int, seed: int) -> dict[str, float]:
    """Empirical path distribution from n seeded random walks, same keys as enumeration.

    Walkers advance level by level in topological order, so the whole batch is
    drawn with a handful of vectorized categorical draws.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if start in chain.dead:
        raise DeadSource(repr(start))
    rng = np.random.default_rng(seed)
    index = {s: k for k, s in enumerate(chain.states)}
    key_names = [s.code for s in chain.states if s.kind == "staged"] + [ABANDON_KEY]
    key_ids = {name: k for k, name in enumerate(key_names)}
    key_of_state = np.full(len(chain.states), -1, dtype=np.int64)
    for s, k in index.items():
        if s.kind == "staged":
            key_of_state[k] = key_ids[s.code]
        elif s == ABANDON_NODE:
            key_of_state[k] = key_ids[ABANDON_KEY]

    cur = np.full(n, index[start], dtype=np.int64)
    key = np.full(n, -1, dtype=np.int64)
    for k, u in enumerate(chain.states):
        if u == END_NODE or u not in chain.M:
            continue
        mask = cur == k
        cnt = int(mask.sum())
        if cnt == 0:
            continue
        row = chain.row(u)
        succ = np.array([index[v] for v in row], dtype=np.int64)
        probs = np.array(list(row.values()))
        nxt = succ[rng.choice(len(succ), size=cnt, p=probs)]
        marks = key_of_state[nxt]
        new_key = np.where(marks >= 0, marks, key[mask])
        cur[mask] = nxt
        key[mask] = new_key
    if (key < 0).any():
        raise AssertionError("a sampled walk reached End without passing a staged or abandon node")
    counts = np.bincount(key, minlength=len(key_names))
    return {key_names[k]: counts[k] / n for k in range(len(key_names)) if counts[k] > 0}


def exact_solve(params: ModelParams) -> list[list[Decimal]]:
    """The closed form of :func:`tnrisk.scenario.solve` in 50-digit decimal arithmetic.

    Row k holds the expected plots of the k-th source of ``route_network(params)``
    (tnrisk's ``build_network``) on each route, the abandon route last.  Its float
    route costs and supplies are taken as given and converted exactly, so the
    distance from solve's output is solve's own rounding.  A blocked route (+inf)
    gets 0, as does every route of a source with no open route.
    """
    net = route_network(params)
    matrix = []
    with localcontext(Context(prec=50)):
        lam = Decimal(params.lam)
        for supply, costs in zip(net.supply.tolist(), net.cost.tolist()):
            best = min(costs)
            weights = [(-lam * (Decimal(c) - Decimal(best))).exp() if math.isfinite(c)
                       else Decimal(0) for c in costs]
            total = sum(weights) if math.isfinite(best) else Decimal(1)  # all 0: nothing routed
            matrix.append([Decimal(supply) * w / total for w in weights])
    return matrix
