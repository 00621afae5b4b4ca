from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnrisk import (
    BLOCKED,
    AttackMatrix,
    ModelParams,
    ScenarioSpec,
    apply_scenario,
    deterrence_sweep,
    diff_matrices,
    find_threshold,
    is_blocked,
    solve,
    target_totals,
)
from tnrisk.errors import IndexMismatch, ModelError, ThresholdOutOfRange, UnknownCode
from tnrisk import scenario
from tnrisk.params import Barriers
from tnrisk.scenario import BUILTIN_SCENARIOS

from conftest import (barrier, cell_dict, child_env, fortress, params_from_dicts, random_params,
                      tiny_params)


class TestApplyScenario:
    def test_wildcard_skips_diagonal(self, params):
        out = apply_scenario(params, ScenarioSpec(
            barrier_overrides=[("*", "USA", BLOCKED)]))
        assert barrier(out, "USA", "USA") == 0.0
        for i in out.S:
            if i != "USA":
                assert is_blocked(barrier(out, i, "USA"))

    def test_explicit_diagonal_override_allowed(self, params):
        out = apply_scenario(params, ScenarioSpec(
            barrier_overrides=[("USA", "USA", BLOCKED)]))
        assert is_blocked(barrier(out, "USA", "USA"))

    def test_explicit_diagonal_override_solved(self, params):
        """An explicit domestic barrier is solved as given, not as 0."""
        out = apply_scenario(params, ScenarioSpec(barrier_overrides=[("USA", "USA", "inf")]))
        base, alt = solve(params), solve(out)
        usa = base.sources.index("USA"), base.targets.index("USA")
        assert base.N[usa] > 0 and alt.N[usa] == 0.0
        assert alt.N[usa[0]].sum() == pytest.approx(base.N[usa[0]].sum())

    def test_diagonal_given_to_constructor_solved(self):
        p = params_from_dicts(S={"A": 10.0}, T={("A", "A"): 50.0, ("A", "X"): 1.0},
                              I={"A": 0.5, "X": 2.0}, Y={"A": -3.0, "X": -1.0}, lam=0.1)
        u = np.array([50.0 + 0.5 - 3.0, 1.0 + 2.0 - 1.0])  # targets A, X
        w = np.exp(-0.1 * u)
        assert solve(p).N[0] == pytest.approx(10.0 * w / w.sum(), rel=1e-12)

    def test_wildcards_keep_the_diagonal(self, params):
        out = apply_scenario(params, ScenarioSpec(barrier_overrides=[("USA", "USA", 7.0),
                                                                     ("*", "*", 3.0),
                                                                     ("USA", "*", BLOCKED)]))
        assert barrier(out, "USA", "USA") == 7.0 and barrier(out, "FRA", "FRA") == 0.0
        assert barrier(out, "FRA", "USA") == 3.0 and is_blocked(barrier(out, "USA", "FRA"))
        assert barrier(apply_scenario(out, BUILTIN_SCENARIOS["homegrown"]), "USA", "USA") == 7.0

    def test_a_and_lambda_overrides(self, params):
        out = apply_scenario(params, ScenarioSpec(a_override=-35.0, lambda_override=0.2))
        assert out.A == -35.0 and out.lam == 0.2
        assert is_blocked(params.A)  # original untouched

    def test_unknown_code(self, params):
        with pytest.raises(UnknownCode):
            apply_scenario(params, ScenarioSpec(barrier_overrides=[("ZZZ", "USA", 1.0)]))
        with pytest.raises(UnknownCode):
            apply_scenario(params, ScenarioSpec(interception_overrides={"ZZZ": 1.0}))

    def test_from_json(self, params, tmp_path):
        doc = {"name": "t", "barrier_overrides": [["*", "USA", "inf"]],
               "a_override": -35}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        spec = ScenarioSpec.from_json(p)
        assert spec.name == "t"
        assert is_blocked(spec.barrier_overrides[0][2])
        assert spec.a_override == -35.0

    def test_from_json_reads_every_field(self, tmp_path):
        doc = {"name": "all", "barrier_overrides": [["AFG", "FRA", 2.5]], "a_override": "inf",
               "lambda_override": 0.3, "interception_overrides": {"FRA": 1.0},
               "yield_overrides": {"FRA": -2.0}}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        assert ScenarioSpec.from_json(p) == ScenarioSpec(
            "all", [("AFG", "FRA", 2.5)], BLOCKED, 0.3, {"FRA": 1.0}, {"FRA": -2.0})

    def test_empty_spec_is_identity(self, params):
        base = solve(params)
        alt = solve(apply_scenario(params, ScenarioSpec()))
        d = diff_matrices(base, alt)
        assert cell_dict(d) == {}


class TestFortress:
    def test_usa_column_vanishes(self, params):
        alt = solve(fortress(params, "USA"))
        for (i, t), v in cell_dict(alt).items():
            if t == "USA":
                assert i == "USA"  # only the domestic path survives

    def test_nonnegative_substitution(self, params):
        base = solve(params)
        alt = solve(fortress(params, "USA"))
        d = diff_matrices(base, alt)
        for t, v in d.ranked_targets:
            if t != "USA":
                assert v >= -1e-9

    def test_japan_top_gainer(self, params):
        d = diff_matrices(solve(params), solve(fortress(params, "USA")))
        ranked = [t for t, _ in d.ranked_targets]
        assert ranked[0] == "JPN"

    def test_conservation_with_finite_abandon(self, params):
        params.A = -30.0
        base = solve(params)
        alt = solve(fortress(params, "USA"))
        for k, i in enumerate(base.sources):
            assert base.N[k].sum() + base.abandoned[k] == pytest.approx(params.S[i])
            assert alt.N[k].sum() + alt.abandoned[k] == pytest.approx(params.S[i])

    def test_unreachable_country_noop(self):
        p = apply_scenario(tiny_params(), ScenarioSpec(barrier_overrides=[("SRC", "FRA", BLOCKED)]))
        base = solve(p)
        alt = solve(fortress(p, "FRA"))
        assert cell_dict(diff_matrices(base, alt)) == {}


class TestHomegrown:
    def test_diagonal_only(self, params):
        alt = solve(apply_scenario(params, BUILTIN_SCENARIOS["homegrown"]))
        for (i, t) in cell_dict(alt):
            assert i == t

    def test_total_strictly_below_baseline(self, params):
        base = solve(params)
        alt = solve(apply_scenario(params, BUILTIN_SCENARIOS["homegrown"]))
        assert alt.N.sum() < base.N.sum()

    def test_compose_with_fortress(self, params):
        # blocking a superset first changes nothing: homegrown . fortress = homegrown
        a = solve(apply_scenario(params, BUILTIN_SCENARIOS["homegrown"]))
        b = solve(apply_scenario(fortress(params, "USA"), BUILTIN_SCENARIOS["homegrown"]))
        assert cell_dict(diff_matrices(a, b)) == {}

    def test_non_target_sources_dead_when_no_abandon(self, params):
        alt = solve(apply_scenario(params, BUILTIN_SCENARIOS["homegrown"]))
        target_set = set(params.targets)
        for k, i in enumerate(alt.sources):
            if i not in target_set:
                assert alt.N[k].sum() == 0.0 and alt.abandoned[k] == 0.0


class TestBuiltinsAreSpecs:
    """fortress and homegrown are specs that apply_scenario applies: pinned, bit for bit,
    to solving a barrier matrix edited by hand."""

    @staticmethod
    def solve_edited(p: ModelParams, edit) -> AttackMatrix:
        cost = p.T.cost.copy()
        home = cost.diagonal().copy()
        edit(cost)
        np.fill_diagonal(cost, home)
        return solve(ModelParams(S=p.S, T=Barriers(p.T.codes, cost, p.T.listed), I=p.I, Y=p.Y,
                                 A=p.A, lam=p.lam))

    @staticmethod
    def assert_same(a: AttackMatrix, b: AttackMatrix) -> None:
        for name in ("N", "abandoned", "unroutable"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    @pytest.fixture(params=["bundle", "bundle-abandon", "random"])
    def instances(self, request, params) -> list[ModelParams]:
        if request.param == "random":
            rng = np.random.default_rng(8)
            return [random_params(rng, blocked_fraction=0.3) for _ in range(10)]
        params.A = -30.0 if request.param == "bundle-abandon" else BLOCKED
        return [params]

    def test_homegrown(self, instances):
        for p in instances:
            homegrown = apply_scenario(p, BUILTIN_SCENARIOS["homegrown"])
            self.assert_same(solve(homegrown), self.solve_edited(p, lambda c: c.fill(BLOCKED)))
            out = homegrown.T
            assert out.listed[~np.eye(len(out.codes), dtype=bool)].all()

    def test_fortress(self, instances):
        for p in instances:
            for code in sorted(p.targets)[:4]:
                k = p.T.index[code]
                self.assert_same(solve(fortress(p, code)),
                                 self.solve_edited(p, lambda c: c[:, k].fill(BLOCKED)))

    def test_unknown_fortress_code(self, params):
        with pytest.raises(UnknownCode):
            fortress(params, "ZZZ")


def test_route_costs_and_their_flat_view():
    """The network is one cost matrix, sources x (targets + 1) in code order, abandon last and
    +inf on a blocked route; ``edges`` is that matrix row by row, a view of it, not a copy."""
    p = params_from_dicts(S={"B": 2.0, "A": 1.0}, T={("A", "X"): 1.0, ("A", "W"): BLOCKED,
                                                     ("B", "X"): 0.5, ("B", "W"): 2.0},
                          I={"X": 0.5, "W": 1.0}, Y={"X": -3.0, "W": -1.0}, A=-2.0)
    net = scenario.build_network(p)
    assert (net.sources, net.targets) == (["A", "B"], ["W", "X"])
    assert net.cost.tolist() == [[math.inf, -1.5, -2.0], [2.0, -2.0, -2.0]]
    assert np.shares_memory(net.edges, net.cost)
    assert net.edges.tolist() == [math.inf, -1.5, -2.0, 2.0, -2.0, -2.0]


class TestSweep:
    def test_one_network_build_per_sweep(self, params, monkeypatch):
        """One network build per sweep, and at each point the totals and per-target counts
        of a solve at that abandon yield: on the bundle, on random instances, and where a
        source with no open target route must send nothing at lam = 0 (its -0 * (A - inf)
        is NaN, so a sweep that does not drop it by its mask makes every point NaN)."""
        rng = np.random.default_rng(13)
        dead = params_from_dicts(S={"D": 7.0, "L": 5.0},
                                 T={("D", "X"): BLOCKED, ("D", "Z"): BLOCKED,
                                    ("L", "X"): 1.0, ("L", "Z"): 2.0},
                                 I={"X": 0.5, "Z": 1.0}, Y={"X": -3.0, "Z": -1.0}, A=-2.0, lam=0.0)
        grid = [-40.0, -20.0, 0.0, 5.0]
        build = scenario.build_network
        for p in [params, *(random_params(rng, blocked_fraction=0.3) for _ in range(20)), dead]:
            calls = []
            monkeypatch.setattr(scenario, "build_network", lambda p: calls.append(p) or build(p))
            curve = deterrence_sweep(p, grid)
            assert len(calls) == 1
            monkeypatch.undo()
            for a, total, row in zip(grid, curve.totals, curve.per_target):
                p.A = a
                solved = solve(p)
                assert total == pytest.approx(target_totals(solved)[1], rel=1e-12)
                assert row == pytest.approx(solved.N.sum(axis=0), rel=1e-12, abs=0)

    def test_grid_validation(self, params):
        with pytest.raises(ValueError):
            deterrence_sweep(params, [0.0, -1.0])
        with pytest.raises(ValueError):
            deterrence_sweep(params, [0.0, math.inf])

    @pytest.mark.parametrize("grid", [[0.0, 0.0], [-1.0, -0.0, 0.0]])
    def test_repeated_point_rejected(self, params, grid):
        """-0.0 and 0.0 are one point: the sweep would write two rows for it."""
        with pytest.raises(ValueError, match="strictly ascending"):
            deterrence_sweep(params, grid)

    def test_monotone_and_bounded(self):
        p = tiny_params()
        grid = [float(a) for a in range(-60, 11, 5)]
        curve = deterrence_sweep(p, grid)
        assert curve.totals == sorted(curve.totals)
        assert curve.totals[-1] <= sum(p.S.values()) + 1e-9
        assert curve.totals[0] >= 0.0

    @given(seed=st.integers(0, 2**32 - 1),
           grid=st.lists(st.floats(-100.0, 20.0), min_size=2, max_size=40, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_random_curves_monotone_and_bounded(self, seed, grid):
        """On random instances the totals never decrease in A and stay within [0, sum of
        supply]; the upper bound allows the few ulps by which a sum in another order rounds."""
        p = random_params(np.random.default_rng(seed), blocked_fraction=0.3)
        totals = deterrence_sweep(p, sorted(grid)).totals
        assert all(a <= b for a, b in zip(totals, totals[1:]))
        assert 0.0 <= totals[0] and totals[-1] <= sum(p.S.values()) * (1 + 1e-12)

    def test_positive_a_near_supply(self):
        p = tiny_params()
        curve = deterrence_sweep(p, [5.0, 10.0])
        for t in curve.totals:
            assert t == pytest.approx(p.S["SRC"], rel=1e-2)

    def test_single_option_sigmoid(self):
        """One source, one option of cost c: total(A) = S / (1 + exp(-lam*(c-A)))."""
        c_t, c_i, c_y = 0.2, 1.5, -54.0
        c = c_t + c_i + c_y
        lam = 0.1
        p = params_from_dicts(S={"SRC": 100.0}, T={("SRC", "USA"): c_t},
                              I={"USA": c_i}, Y={"USA": c_y}, lam=lam)
        grid = [float(a) for a in range(-80, 0, 1)]
        curve = deterrence_sweep(p, grid)
        for a, total in zip(grid, curve.totals):
            # lower A makes abandoning more attractive: logistic increasing in A
            expected = 100.0 / (1.0 + math.exp(-lam * (a - c)))
            assert total == pytest.approx(expected, abs=1e-9)
        # 50%-of-max threshold sits at the analytic crossing, within a grid step
        a_star = find_threshold(curve)
        half = 0.5 * max(curve.totals)
        analytic = c - math.log(100.0 / half - 1.0) / lam
        assert abs(a_star - analytic) <= 1.0
        assert abs(analytic - c) <= 1.0  # the crossing hugs the option cost

    def test_flat_curve_first_grid_point(self):
        p = tiny_params()
        curve = deterrence_sweep(p, [5.0, 6.0, 7.0])
        assert find_threshold(curve) == 5.0

    def test_threshold_out_of_range(self):
        # a source with no traversable attack option never generates attack mass
        p = params_from_dicts(S={"SRC": 10.0}, T={("SRC", "USA"): BLOCKED},
                              I={"USA": 1.0}, Y={"USA": -2.0})
        curve = deterrence_sweep(p, [-10.0, 0.0, 10.0])
        assert curve.totals == [0.0, 0.0, 0.0]
        with pytest.raises(ThresholdOutOfRange):
            find_threshold(curve)

    def test_threshold_never_reached(self):
        """A curve whose totals start with NaN has a NaN maximum that no total reaches."""
        totals = [math.nan, 1.0, 2.0]
        curve = scenario.SweepCurve(a_values=[-1.0, 0.0, 1.0], totals=totals, targets=["USA"],
                                    per_target=np.array(totals)[:, None])
        with pytest.raises(ThresholdOutOfRange, match="^total never reaches 50% of its maximum$"):
            find_threshold(curve)

    def test_deterministic(self, params, monkeypatch):
        """The same bits on a second run, and with one grid point per block."""
        grid = [round(-60.0 + 0.25 * k, 9) for k in range(281)]
        a = deterrence_sweep(params, grid)
        b = deterrence_sweep(params, grid)
        assert a.totals == b.totals
        assert np.array_equal(a.per_target, b.per_target)
        monkeypatch.setattr(scenario, "BLOCK_CELLS", 1)
        assert np.array_equal(deterrence_sweep(params, grid).per_target, a.per_target)


# a 1000-source x 500-target sweep built from arrays: prints a digest of its per-target bytes
SWEEP_DIGEST = """
import hashlib
import numpy as np
from tnrisk import BLOCKED, ModelParams, deterrence_sweep
from tnrisk.params import Barriers

rng = np.random.default_rng(5)
codes = [f"C{k:04d}" for k in range(1000)]
cost = np.where(rng.random((1000, 1000)) < 0.3, BLOCKED, rng.uniform(0.0, 10.0, (1000, 1000)))
np.fill_diagonal(cost, 0.0)
targets = codes[:500]
p = ModelParams(S=dict(zip(codes, rng.uniform(1.0, 1000.0, 1000).tolist())),
                T=Barriers(codes, cost, np.isfinite(cost)),
                I=dict(zip(targets, rng.uniform(0.0, 5.0, 500).tolist())),
                Y=dict(zip(targets, rng.uniform(-60.0, 0.0, 500).tolist())), lam=0.1)
curve = deterrence_sweep(p, [-60.0 + 0.5 * k for k in range(141)])
print(hashlib.sha256(curve.per_target.tobytes()).hexdigest())
"""


def test_sweep_bytes_independent_of_blas_threads():
    """Identical configuration gives identical bytes, whatever the BLAS thread count: a
    threaded matrix product may sum in another order with another number of threads."""
    digests = []
    for threads in ("1", "2"):
        env = dict(child_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", SWEEP_DIGEST], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1]


class TestDiff:
    def test_self_diff_zero(self, params):
        m = solve(params)
        assert cell_dict(diff_matrices(m, m)) == {}

    def test_antisymmetry(self, params):
        base = solve(params)
        alt = solve(fortress(params, "USA"))
        ab = diff_matrices(base, alt)
        ba = diff_matrices(alt, base)
        ab_cells, ba_cells = cell_dict(ab), cell_dict(ba)
        for key, v in ab_cells.items():
            assert ba_cells[key] == pytest.approx(-v)

    def test_index_mismatch(self, params):
        base = solve(params)
        other = solve(tiny_params())
        with pytest.raises(IndexMismatch):
            diff_matrices(base, other)

    def test_builtin_names(self, params):
        assert cell_dict(solve(apply_scenario(params, BUILTIN_SCENARIOS["fortress-USA"]))) == \
            cell_dict(solve(fortress(params, "USA")))
        with pytest.raises(KeyError):
            BUILTIN_SCENARIOS["nope"]


def test_random_instances_monotone_in_a():
    rng = np.random.default_rng(21)
    for _ in range(10):
        p = random_params(rng, finite_abandon_prob=0.0)
        if p.lam == 0.0:
            continue
        grid = [float(a) for a in range(-70, 11, 10)]
        curve = deterrence_sweep(p, grid)
        for x, y in zip(curve.totals, curve.totals[1:]):
            assert y >= x - 1e-9


@pytest.mark.parametrize("name", ["S", "T", "I", "Y", "A"])
def test_nan_parameter_rejected(name):
    T = {("A", "X"): math.nan if name == "T" else 1.0, ("B", "X"): 2.0}
    p = params_from_dicts(S={"A": 1.0, "B": 2.0}, T=T, I={"X": 0.0}, Y={"X": -1.0}, A=-5.0)
    if name == "A":
        p.A = math.nan
    elif name != "T":  # T is read-only: its NaN is given to the constructor
        table = getattr(p, name)
        table[next(iter(table))] = math.nan
    with pytest.raises(ModelError, match="NaN"):
        solve(p)
    with pytest.raises(ModelError, match="NaN"):
        deterrence_sweep(p, [-10.0, 0.0])


def test_infinite_supply_rejected():
    """An infinite supply would solve to a row of inf attacks and NaN abandoned plots."""
    p = params_from_dicts(S={"A": math.inf}, T={("A", "X"): 1.0}, I={"X": 0.0}, Y={"X": -1.0},
                          A=-5.0)
    with pytest.raises(ModelError, match="NaN or infinite"):
        solve(p)
    with pytest.raises(ModelError, match="NaN or infinite"):
        deterrence_sweep(p, [-10.0, 0.0])
