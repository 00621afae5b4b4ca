from __future__ import annotations

import itertools

import numpy as np
import pytest

from tnrisk import BLOCKED, ModelError, is_blocked

from conftest import params_from_dicts, random_params, tiny_params
from oracle import (
    ABANDON_NODE,
    ATTACK_NODE,
    END_NODE,
    BlockedEdgeOnPath,
    NotAPath,
    build_network,
    least_cost_to_end,
    path_cost,
    source,
    staged,
)


class TestTopology:
    def test_layer_structure(self):
        net = build_network(tiny_params())
        assert net.nodes[0] == source("SRC")
        assert net.nodes[-1] == END_NODE
        assert net.successors(ATTACK_NODE) == [END_NODE]
        assert net.successors(END_NODE) == []
        # staged nodes feed only the attack node
        for n in net.staged_nodes:
            assert net.successors(n, traversable_only=False) == [ATTACK_NODE]

    def test_edge_weights(self):
        p = tiny_params()
        net = build_network(p)
        assert net.weight(source("SRC"), staged("USA")) == 0.2
        assert net.weight(staged("USA"), ATTACK_NODE) == pytest.approx(1.5 - 54.0)
        assert net.weight(ATTACK_NODE, END_NODE) == 0.0
        assert is_blocked(net.weight(source("SRC"), ABANDON_NODE))

    def test_abandon_edge_finite(self):
        net = build_network(tiny_params(abandon=-3.0))
        assert net.weight(source("SRC"), ABANDON_NODE) == -3.0

    def test_empty_targets(self):
        with pytest.raises(ModelError,
                           match="^no country has both interception and yield data$"):
            build_network(params_from_dicts(S={"SRC": 1.0}, T={}, I={}, Y={}))

    def test_isolated_source(self):
        p = params_from_dicts(S={"A": 1.0, "B": 1.0},
                              T={("A", "X"): BLOCKED, ("B", "X"): 1.0},
                              I={"X": 1.0}, Y={"X": -2.0})
        net = build_network(p)
        assert net.successors(source("A")) == []

    def test_domestic_barrier_zero(self):
        p = params_from_dicts(S={"USA": 5.0}, T={}, I={"USA": 1.5}, Y={"USA": -54.0})
        net = build_network(p)
        assert net.weight(source("USA"), staged("USA")) == 0.0


class TestLeastCost:
    def test_tiny_values(self):
        net = build_network(tiny_params())
        costs = least_cost_to_end(net)
        assert costs[staged("USA")] == pytest.approx(-52.5)
        assert costs[staged("FRA")] == pytest.approx(-6.2)
        assert costs[source("SRC")] == pytest.approx(0.2 - 52.5)
        assert costs[END_NODE] == 0.0
        # blocking sits on the source->abandon edge, not the abandon node itself
        assert costs[ABANDON_NODE] == 0.0

    def test_blocked_source_cost(self):
        p = params_from_dicts(S={"A": 1.0, "B": 1.0},
                              T={("A", "X"): BLOCKED, ("B", "X"): 1.0},
                              I={"X": 1.0}, Y={"X": -2.0})
        costs = least_cost_to_end(build_network(p))
        assert is_blocked(costs[source("A")])
        assert costs[source("B")] == pytest.approx(0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            p = random_params(rng)
            net = build_network(p)
            costs = least_cost_to_end(net)
            barriers = dict(p.T.items())
            for i in p.sources:
                options = [barriers.get((i, j), BLOCKED) + p.I[j] + p.Y[j] for j in p.targets
                           if not is_blocked(barriers.get((i, j), BLOCKED))]
                if not is_blocked(p.A):
                    options.append(p.A)
                expected = min(options) if options else BLOCKED
                got = costs[source(i)]
                if is_blocked(expected):
                    assert is_blocked(got)
                else:
                    assert got == pytest.approx(expected)

    def test_baseline_usa_everywhere(self, pre_params):
        """The cheapest attack option from every bundled source is the USA."""
        net = build_network(pre_params)
        costs = least_cost_to_end(net)
        usa = staged("USA")
        for i in pre_params.sources:
            best = min(
                (costs[v] + net.weight(source(i), v) for v in net.successors(source(i))),
                default=BLOCKED,
            )
            via_usa = net.weight(source(i), usa) + costs[usa]
            assert not is_blocked(via_usa)
            assert via_usa == pytest.approx(best)


class TestPathCost:
    def test_explicit_path(self):
        net = build_network(tiny_params())
        path = [source("SRC"), staged("USA"), ATTACK_NODE, END_NODE]
        assert path_cost(net, path) == pytest.approx(0.2 + 1.5 - 54.0)

    def test_not_a_path(self):
        net = build_network(tiny_params())
        with pytest.raises(NotAPath):
            path_cost(net, [source("SRC"), ATTACK_NODE])
        with pytest.raises(NotAPath):
            path_cost(net, [source("SRC")])

    def test_blocked_edge(self):
        net = build_network(tiny_params())  # abandon is blocked
        with pytest.raises(BlockedEdgeOnPath):
            path_cost(net, [source("SRC"), ABANDON_NODE, END_NODE])
