from __future__ import annotations

import json
import math
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnrisk import BLOCKED, ModelError, apply_scenario, deterrence_sweep, solve, target_totals
from tnrisk.evader import write_matrix_csv
from tnrisk.params import is_blocked
from tnrisk.scenario import BUILTIN_SCENARIOS, build_network as route_network

from conftest import cell_dict, fortress, params_from_dicts, random_params, tiny_params
from oracle import (
    ABANDON_KEY,
    ABANDON_NODE,
    ATTACK_NODE,
    END_NODE,
    DeadSource,
    build_network,
    enumerate_path_distribution,
    exact_solve,
    exact_sweep,
    least_cost_to_end,
    sample_paths,
    source,
    staged,
    transition_matrix,
)


def assert_conserves_mass(params) -> None:
    """Attacks + abandoned + unroutable = S_i, source by source, within (T + 2) eps S_i for T
    targets, a bound from counting roundings, each within u = eps / 2 relative.

    A source with no open route holds all of S_i as unroutable, exactly.  Else its T + 1 route
    weights w_k >= 0 sum to W, T additions in whatever order: W = (1 + a) sum w_k with
    |a| <= T u.  Each plot count fl(S_i fl(w_k / W)) is two roundings more:
    S_i w_k / W (1 + b_k), |b_k| <= 2 u.  Their exact sum is S_i (1 + b) / (1 + a), where b is
    a weighted mean of the b_k, which is S_i (1 + c) with |c| <= (T + 2) u to first order.
    Summing the T attack cells and then adding the abandoned plots is T additions of terms
    >= 0, each within u of its exact sum: (1 + d) times it, |d| <= T u; adding unroutable
    (0.0) is exact.  So the error is at most (2 T + 2) u = (T + 1) eps of S_i to first order,
    and one eps more covers the second-order terms, at most about (2 T + 2)^2 u^2 in all.  A
    product that underflows loses at most half the least subnormal, far below eps S_i here,
    where every S_i >= 1."""
    m = solve(params)
    supply = np.array([params.S[i] for i in m.sources])
    mass = m.N.sum(axis=1) + m.abandoned + m.unroutable
    bound = (len(m.targets) + 2) * np.finfo(float).eps * supply
    assert np.all(np.abs(mass - supply) <= bound), np.abs(mass - supply) / supply


def solve_chain(params):
    net = build_network(params)
    costs = least_cost_to_end(net)
    return net, costs, transition_matrix(net, costs, params.lam)


def fundamental_matrix_absorption(chain, start):
    """Independent oracle: absorption flows via the fundamental matrix.

    For an absorbing chain with transient block Q and absorbing block R, the
    expected visit counts are N = (I - Q)^-1 and absorption probabilities NR.
    On this DAG we recover per-edge flows as visits(u) * M[u][v].
    """
    transient = [s for s in chain.states if s != END_NODE]
    idx = {s: k for k, s in enumerate(transient)}
    n = len(transient)
    Q = np.zeros((n, n))
    for u in transient:
        for v, m in chain.row(u).items():
            if v != END_NODE:
                Q[idx[u], idx[v]] = m
    visits = np.linalg.solve(np.eye(n) - Q.T, np.eye(n)[idx[start]])
    flow = {}
    for u in transient:
        for v, m in chain.row(u).items():
            flow[(u, v)] = visits[idx[u]] * m
    return flow


class TestTransitionMatrix:
    def test_rows_stochastic(self, pre_params):
        _, _, chain = solve_chain(pre_params)
        for u, row in chain.M.items():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(p >= 0 for p in row.values())

    def test_equal_cost_options_split_evenly(self):
        p = params_from_dicts(S={"A": 1.0},
                              T={("A", "X"): 1.0, ("A", "Z"): 2.0},
                              I={"X": 1.0, "Z": 0.5}, Y={"X": -3.0, "Z": -3.5})
        # both paths cost -1.0 in total
        _, _, chain = solve_chain(p)
        row = chain.row(source("A"))
        assert row[staged("X")] == pytest.approx(0.5)
        assert row[staged("Z")] == pytest.approx(0.5)

    def test_lambda_zero_uniform(self):
        p = tiny_params(abandon=-3.0, lam=0.0)
        _, _, chain = solve_chain(p)
        row = chain.row(source("SRC"))
        assert len(row) == 3
        for v in row.values():
            assert v == pytest.approx(1.0 / 3.0)

    def test_blocked_options_excluded(self):
        p = params_from_dicts(S={"A": 1.0},
                              T={("A", "X"): BLOCKED, ("A", "Z"): 1.0},
                              I={"X": 1.0, "Z": 0.5}, Y={"X": -3.0, "Z": -3.5})
        _, _, chain = solve_chain(p)
        row = chain.row(source("A"))
        assert staged("X") not in row
        assert row[staged("Z")] == pytest.approx(1.0)

    def test_dead_states_flagged(self):
        p = params_from_dicts(S={"A": 1.0, "B": 1.0},
                              T={("A", "X"): BLOCKED, ("B", "X"): 1.0},
                              I={"X": 1.0}, Y={"X": -2.0})
        _, _, chain = solve_chain(p)
        assert source("A") in chain.dead
        assert source("B") not in chain.dead

    def test_large_costs_do_not_overflow(self):
        p = params_from_dicts(S={"A": 1.0},
                              T={("A", "X"): 1.0, ("A", "Z"): 2.0},
                              I={"X": 0.0, "Z": 50000.0}, Y={"X": -90000.0, "Z": 0.0},
                              lam=1.0)
        _, _, chain = solve_chain(p)
        row = chain.row(source("A"))
        assert sum(row.values()) == pytest.approx(1.0)
        assert all(math.isfinite(v) for v in row.values())

    @given(st.floats(min_value=-100.0, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, shift):
        """Adding a constant to every yield leaves branch probabilities unchanged."""
        base = tiny_params(abandon=-3.0)
        shifted = tiny_params(abandon=-3.0 + shift)
        shifted.Y = {k: v + shift for k, v in base.Y.items()}
        _, _, a = solve_chain(base)
        _, _, b = solve_chain(shifted)
        ra, rb = a.row(source("SRC")), b.row(source("SRC"))
        assert set(ra) == set(rb)
        for v in ra:
            assert ra[v] == pytest.approx(rb[v], rel=1e-9, abs=1e-12)


class TestAttackMatrix:
    def test_tiny_closed_form(self):
        p = tiny_params()
        m = solve(p)
        # softmax over the two total path costs at lambda = 0.1
        c_usa = 0.2 + 1.5 - 54.0
        c_fra = 1.0 + 0.6 - 6.8
        p_usa = 1.0 / (1.0 + math.exp(-0.1 * (c_fra - c_usa)))
        assert cell_dict(m)[("SRC", "USA")] == pytest.approx(100.0 * p_usa)
        assert cell_dict(m)[("SRC", "FRA")] == pytest.approx(100.0 * (1.0 - p_usa))
        assert m.abandoned[m.sources.index("SRC")] == 0.0
        assert m.N.sum() == pytest.approx(100.0)

    def test_conservation(self, pre_params):
        """The bundle at the (lambda, A) points of the exact-logit test."""
        for lam, abandon in EXACT_POINTS:
            assert_conserves_mass(replace(pre_params, lam=lam, A=abandon))

    def test_target_totals_sum(self, pre_params):
        m = solve(pre_params)
        totals, grand = target_totals(m)
        assert grand == pytest.approx(sum(totals.values()))
        assert grand == pytest.approx(m.N.sum())

    def test_json_document(self, pre_params, tmp_path):
        m = solve(pre_params)
        write_matrix_csv(m, tmp_path / "m.csv", json_file=(tmp_path / "m.json", {}))
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["grand_total"] == pytest.approx(m.N.sum())
        assert set(doc["target_totals"]) == set(m.targets)
        assert doc["expected_plots"] == {f"{i}->{t}": v for (i, t), v in cell_dict(m).items()}

    def test_empty_targets(self):
        with pytest.raises(ModelError,
                           match="^no country has both interception and yield data$"):
            solve(params_from_dicts(S={"SRC": 1.0}, T={}, I={"SRC": 1.0}, Y={}))

    def test_unroutable_supply_reported(self):
        # X has no open route and no abandon option: its 10 plots go nowhere
        m = solve(params_from_dicts(S={"X": 10.0, "Y": 5.0},
                                    T={("X", "Z"): BLOCKED, ("Y", "Z"): 1.0},
                                    I={"Z": 1.0}, Y={"Z": -2.0}))
        assert m.unroutable.tolist() == [10.0, 0.0]
        assert m.N.sum(axis=1).tolist() == [0.0, 5.0]

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_mass_conservation(self, seed):
        """Attacks + abandoned + unroutable = supply, source by source."""
        assert_conserves_mass(random_params(np.random.default_rng(seed), blocked_fraction=0.5))

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(0.0, 1.0),
           st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_finite_non_negative(self, seed, blocked_fraction, finite_abandon_prob):
        """Finite inputs, however many routes are blocked, give finite, non-negative outputs."""
        m = solve(random_params(np.random.default_rng(seed), blocked_fraction=blocked_fraction,
                                finite_abandon_prob=finite_abandon_prob))
        for values in (m.N, m.abandoned, m.unroutable):
            assert np.isfinite(values).all() and (values >= 0.0).all()

    @pytest.mark.parametrize("lam", [-0.1, math.nan, math.inf])
    def test_bad_lambda(self, lam):
        with pytest.raises(ValueError):
            solve(tiny_params(lam=lam))


# (lambda, A): the bundle's solve against its exact logit, and its mass conservation
EXACT_POINTS = [(0.0, BLOCKED), (0.1, BLOCKED), (0.1, -53.0), (2.0, -30.0), (10.0, -53.0)]

# half the least subnormal float: a value below it rounds to 0
HALF_SUBNORMAL = Decimal(2) ** -1075


@pytest.mark.parametrize("lam, abandon", EXACT_POINTS)
def test_solve_is_within_its_rounding_of_the_exact_logit(pre_params, lam, abandon):
    """solve on the bundle against :func:`exact_solve`, the logit at 50 digits on the same float
    route costs: each normal cell is within (1 + lam gap) eps of it, relative, where gap is the
    route's cost above its row's cheapest, since exp(-lam gap) inherits the rounding of lam gap.
    A cell is 0 only where the exact value is below half the least subnormal; a subnormal cell,
    which holds fewer digits, is not held to the bound.  The factor 1 is measured, not derived:
    the worst cell reads 0.93 of the bound (lam = 0.1, A = -53), while summing the worst
    rounding of a row's 27 weights gives a factor of about 25."""
    p = replace(pre_params, lam=lam, A=abandon)
    m = solve(p)
    got = np.column_stack([m.N, m.abandoned])
    cost = route_network(p).cost
    gap = cost - cost.min(axis=1, keepdims=True)
    for (i, j), exact in np.ndenumerate(np.array(exact_solve(p), dtype=object)):
        x = got[i, j]
        where = f"{m.sources[i]}, route {j}: {x!r} against {exact:.17e}"
        if x == 0:
            assert exact < HALF_SUBNORMAL, where
        elif abs(x) >= np.finfo(float).tiny:
            error = abs(Decimal(x) - exact) / exact
            assert error <= (1 + lam * gap[i, j]) * np.finfo(float).eps, where


# the abandon yields of the sweep's exact check: 7 points from -80 to 10
SWEEP_POINTS = [-80.0 + 15.0 * k for k in range(7)]


def sweep_rounding_bound(p, grid: list[float]) -> np.ndarray:
    """Per (point, target), a bound on deterrence_sweep's relative error against the exact curve
    on the same float route costs c_ij, from counting roundings to first order, each within
    u = eps / 2 relative, and exp's within one ulp, 2 u.  In units of u, with b_i the cheapest
    target route of source i and g_ij = c_ij - b_i:

    - a weight w_ij = exp(-lam (c_ij - b_i)), rounding the gap, its product and exp: 2 lam g_ij + 2;
    - its total W_i, T - 1 additions of terms >= 0: T - 1 and its weights' mean error;
    - the share Q_ij = S_i (w_ij / W_i): w_ij's and W_i's error, and 2;
    - r_i = exp(-lam (A - b_i)) / W_i: 2 lam |A - b_i| + 2, W_i's, and 1; the kept share
      s_i = 1 / (1 + r_i) takes r_i / (1 + r_i) of it, and 2;
    - the cell, the sum over n sources of s_i Q_ij, each product rounded: 1 more, its terms'
      mean error, and n - 1 for the additions.  One u more covers second-order terms.
    """
    net = route_network(p)
    cost = net.cost[:, :-1]
    best = cost.min(axis=1)
    live = np.isfinite(best)
    best, gap = best[live], cost[live] - best[live, None]
    lam_gap = p.lam * np.where(np.isfinite(gap), gap, 0.0)
    weight = np.where(np.isfinite(gap), np.exp(-lam_gap), 0.0)
    total = weight.sum(axis=1)
    total_error = cost.shape[1] - 1 + (weight * (2 * lam_gap + 2)).sum(axis=1) / total
    share_error = 2 * lam_gap + 2 + total_error[:, None] + 2
    share = net.supply[live, None] * weight / total[:, None]
    bound = []
    for a in grid:
        r = np.exp(-p.lam * (a - best)) / total
        kept_error = r / (1 + r) * (2 * p.lam * abs(a - best) + 3 + total_error) + 2
        term = share / (1 + r)[:, None]
        with np.errstate(invalid="ignore"):  # 0 / 0 for a target no source reaches: its cell is 0
            mean = (term * (kept_error[:, None] + share_error + 1)).sum(axis=0) / term.sum(axis=0)
        bound.append(mean + len(best))
    return np.array(bound) * np.finfo(float).eps / 2


@pytest.mark.parametrize("lam", [0.1, 2.0])
def test_sweep_is_within_its_rounding_of_the_exact_curve(pre_params, lam):
    """deterrence_sweep on the bundle against :func:`exact_sweep`, the curve at 50 digits on the
    same float route costs: each normal (point, target) cell within :func:`sweep_rounding_bound`
    of it, relative to itself, not to the largest column.  A cell is 0 only where the exact
    value is below half the least subnormal; a subnormal cell is not held to the bound.  The
    worst cell reads 0.05 of the bound at lam = 0.1 and 0.21 at lam = 2 (5.4e-16 and 5.6e-15
    relative)."""
    p = replace(pre_params, lam=lam)
    curve = deterrence_sweep(p, SWEEP_POINTS)
    bound = sweep_rounding_bound(p, SWEEP_POINTS)
    for (g, j), exact in np.ndenumerate(np.array(exact_sweep(p, SWEEP_POINTS), dtype=object)):
        x = curve.per_target[g, j]
        where = f"A = {SWEEP_POINTS[g]}, {curve.targets[j]}: {x!r} against {exact:.17e}"
        if x == 0:
            assert exact < HALF_SUBNORMAL, where
        elif abs(x) >= np.finfo(float).tiny:
            assert abs(Decimal(x) - exact) / exact <= bound[g, j], where


class TestOracleTriangle:
    """The closed-form solver, path enumeration, and the fundamental matrix must agree."""

    def test_enumeration_matches_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = random_params(rng)
            net, costs, chain = solve_chain(p)
            m = solve(p)
            m_cells = cell_dict(m)
            for k, i in enumerate(p.sources):
                if source(i) in chain.dead:
                    assert m.N[k].sum() == 0.0
                    continue
                dist = enumerate_path_distribution(net, costs, source(i), p.lam)
                assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
                for t in p.targets:
                    expected = p.S[i] * dist.get(t, 0.0)
                    assert m_cells.get((i, t), 0.0) == pytest.approx(expected, abs=1e-9)
                assert m.abandoned[k] == pytest.approx(
                    p.S[i] * dist.get(ABANDON_KEY, 0.0), abs=1e-9)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_enumeration_property(self, seed):
        """Criterion 4's instances and bound for any seed: every cell and abandoned total is
        within 1e-10 times the source's supply of what path enumeration gives."""
        p = random_params(np.random.default_rng(seed))
        net, costs, chain = solve_chain(p)
        m = solve(p)
        for k, i in enumerate(m.sources):
            if source(i) in chain.dead:
                assert m.N[k].sum() == 0.0 and m.abandoned[k] == 0.0
                continue
            dist = enumerate_path_distribution(net, costs, source(i), p.lam)
            for c, t in enumerate(m.targets):
                assert abs(m.N[k, c] - p.S[i] * dist.get(t, 0.0)) <= 1e-10 * p.S[i]
            assert abs(m.abandoned[k] - p.S[i] * dist.get(ABANDON_KEY, 0.0)) <= 1e-10 * p.S[i]

    def test_fundamental_matrix_matches_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            p = random_params(rng)
            _, _, chain = solve_chain(p)
            m = solve(p)
            m_cells = cell_dict(m)
            for k, i in enumerate(p.sources):
                if source(i) in chain.dead:
                    continue
                oracle = fundamental_matrix_absorption(chain, source(i))
                for t in p.targets:
                    assert m_cells.get((i, t), 0.0) / p.S[i] == pytest.approx(
                        oracle.get((staged(t), ATTACK_NODE), 0.0), abs=1e-10)
                assert m.abandoned[k] / p.S[i] == pytest.approx(
                    oracle.get((ABANDON_NODE, END_NODE), 0.0), abs=1e-10)

    def test_closed_form_matches_enumeration(self, pre_params):
        """Same nonzero cells as path enumeration, each within 1e-10 relative."""
        cases = []
        rng = np.random.default_rng(4)  # the instances of acceptance criterion 4
        cases += [random_params(rng) for _ in range(50)]
        for lam in (0.0, 0.1, 1.0, 10.0):
            for a in (BLOCKED, -60.0, -20.0, 0.0, 5.0):
                cases.append(replace(pre_params, lam=lam, A=a))
        cases += [apply_scenario(pre_params, BUILTIN_SCENARIOS["homegrown"]),
                  fortress(pre_params, "USA")]
        cases.append(params_from_dicts(S={"A": 1.0},
                                       T={("A", "X"): 1.0, ("A", "Z"): 2.0},
                                       I={"X": 0.0, "Z": 50000.0}, Y={"X": -90000.0, "Z": 0.0},
                                       lam=1.0))
        cases.append(params_from_dicts(S={"X": 10.0, "Y": 5.0},
                                       T={("X", "Z"): BLOCKED, ("Y", "Z"): 1.0},
                                       I={"Z": 1.0}, Y={"Z": -2.0}))
        # a blocked attack hop (huge but finite) must get nothing even at lambda = 0
        cases.append(params_from_dicts(S={"A": 1.0},
                                       T={("A", "X"): 1.0, ("A", "Z"): 1.0},
                                       I={"X": 1e200, "Z": 0.0}, Y={"X": 0.0, "Z": -1.0},
                                       lam=0.0))
        for p in cases:
            net = build_network(p)
            costs = least_cost_to_end(net)
            cells, abandoned = {}, {}
            for i in p.sources:
                try:
                    dist = enumerate_path_distribution(net, costs, source(i), p.lam)
                except DeadSource:
                    dist = {}
                for key, prob in dist.items():
                    if key == ABANDON_KEY:
                        abandoned[i] = p.S[i] * prob
                    elif prob > 0.0:
                        cells[(i, key)] = p.S[i] * prob
            m = solve(p)
            m_cells, m_abandoned = cell_dict(m), dict(zip(m.sources, m.abandoned.tolist()))
            assert m_cells.keys() == cells.keys()
            for key, v in cells.items():
                assert math.isclose(m_cells[key], v, rel_tol=1e-10, abs_tol=0.0), key
            assert m_abandoned.keys() == set(p.sources)
            for i in p.sources:
                assert math.isclose(m_abandoned[i], abandoned.get(i, 0.0),
                                    rel_tol=1e-10, abs_tol=0.0), i

    def test_sampling_converges(self):
        p = tiny_params(abandon=-30.0)
        net, costs, chain = solve_chain(p)
        exact = enumerate_path_distribution(net, costs, source("SRC"), p.lam)
        emp = sample_paths(chain, source("SRC"), n=200_000, seed=42)
        for key in set(exact) | set(emp):
            assert emp.get(key, 0.0) == pytest.approx(exact.get(key, 0.0), abs=0.01)

    def test_sampling_seed_reproducible(self):
        p = tiny_params(abandon=-30.0)
        _, _, chain = solve_chain(p)
        a = sample_paths(chain, source("SRC"), n=1000, seed=7)
        b = sample_paths(chain, source("SRC"), n=1000, seed=7)
        c = sample_paths(chain, source("SRC"), n=1000, seed=8)
        assert a == b
        assert a != c

    def test_dead_source_raises(self):
        p = params_from_dicts(S={"A": 1.0, "B": 1.0},
                              T={("A", "X"): BLOCKED, ("B", "X"): 1.0},
                              I={"X": 1.0}, Y={"X": -2.0})
        net, costs, chain = solve_chain(p)
        with pytest.raises(DeadSource):
            enumerate_path_distribution(net, costs, source("A"), p.lam)
        with pytest.raises(DeadSource):
            sample_paths(chain, source("A"), n=10, seed=0)


def limit_shares(params, lam):
    """Each source's route shares at a limit of lambda, from the oracle's route costs.

    A route is open when the oracle's cost to End through it is not BLOCKED.  At
    lambda = 0 a source splits evenly over its open routes; at large lambda it
    splits evenly over the open routes of least cost (the deterministic model).
    """
    net = build_network(params)
    costs = least_cost_to_end(net)
    shares = {}
    for i in params.sources:
        routes = {ABANDON_KEY if v == ABANDON_NODE else v.code: net.weight(source(i), v) + costs[v]
                  for v in net.successors(source(i)) if not is_blocked(costs[v])}
        if lam > 0:
            routes = {k: c for k, c in routes.items() if c == min(routes.values())}
        shares[i] = {k: 1.0 / len(routes) for k in routes}
    return shares


class TestLambdaLimits:
    """The logit at its two limits: uniform over open routes, and the least-cost assignment."""

    @staticmethod
    def cases(pre_params):
        for a in (BLOCKED, -20.0):
            yield replace(pre_params, A=a)
        rng = np.random.default_rng(4)  # the instances of acceptance criterion 4
        yield from (random_params(rng) for _ in range(50))
        # an exact tie between a target (2.0 + 0.0 - 2.5) and abandoning
        yield params_from_dicts(S={"A": 3.0}, T={("A", "X"): 1.0, ("A", "Z"): 2.0},
                                I={"X": 0.5, "Z": 0.0}, Y={"X": -1.0, "Z": -2.5}, A=-0.5)

    # 1e308 scales a route's cost gap past the float range: its weight is exp(-inf), 0
    @pytest.mark.parametrize("lam", [0.0, 1e6, 1e308])
    def test_limit_matches_oracle(self, pre_params, lam):
        for p in self.cases(pre_params):
            p.lam = lam
            m = solve(p)
            shares = limit_shares(p, lam)
            for k, i in enumerate(m.sources):
                share = shares[i]
                for c, t in enumerate(m.targets):
                    assert abs(m.N[k, c] - p.S[i] * share.get(t, 0.0)) <= 1e-9 * p.S[i], (i, t)
                assert abs(m.abandoned[k] - p.S[i] * share.get(ABANDON_KEY, 0.0)) <= 1e-9 * p.S[i]

    def test_limits_are_not_trivial(self, pre_params):
        """The cases include a split over several routes at each limit, and a finite abandon."""
        cases = list(self.cases(pre_params))
        assert any(len(s) > 1 for s in limit_shares(cases[-1], 1e6).values())
        assert ABANDON_KEY in limit_shares(cases[1], 0.0)["AFG"]
