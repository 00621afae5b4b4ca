"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS line with the
measured quantity; run with `pytest -s tests/test_acceptance.py` to see them.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import pytest

from tnrisk import (
    BLOCKED,
    WEIGHT_PRESETS,
    deterrence_sweep,
    diff_matrices,
    apply_scenario,
    find_threshold,
    is_blocked,
    solve,
    target_totals,
)
from tnrisk.scenario import BUILTIN_SCENARIOS
from tnrisk.estimation import estimate_supply, impute_survey, normalize_min_median

from conftest import barrier, cell_dict, fortress, params_from_dicts, random_params
from oracle import (
    build_network,
    enumerate_path_distribution,
    least_cost_to_end,
    sample_paths,
    source,
    staged,
    transition_matrix,
)


def report(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS — {detail}")


def percent_change(countries) -> dict[str, tuple[float, float]]:
    """Per country with supply, its percent change under the high and low presets."""
    base, high, low = (estimate_supply(countries, WEIGHT_PRESETS[k])
                       for k in ("default", "high_commitment", "low_commitment"))
    return {c: (100.0 * (high[c] / s - 1.0), 100.0 * (low[c] / s - 1.0))
            for c, s in base.items() if s}


def test_criterion_01_normalization_fidelity(bundle, pre_params):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(200):
        vals = list(rng.uniform(0.5, 100.0, size=int(rng.integers(3, 60))))
        cost = [v for v in normalize_min_median(vals, "cost")]
        yld = [v for v in normalize_min_median(vals, "yield")]
        assert abs(min(cost)) <= 1e-9 and abs(statistics.median(cost) - 1.0) <= 1e-9
        assert abs(max(yld)) <= 1e-9 and abs(statistics.median(yld) + 1.0) <= 1e-9
    finite_t = [v for (i, j), v in pre_params.T.items() if i != j and not is_blocked(v)]
    med_t = statistics.median(finite_t)
    med_i = statistics.median(pre_params.I.values())
    med_y = statistics.median(pre_params.Y.values())
    assert abs(med_t - 1.0) <= 0.05
    assert abs(med_i - 1.0) <= 0.05
    assert abs(med_y + 1.0) <= 0.05
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(1, f"synthetic anchors exact to 1e-9; bundled medians T={med_t:.3f}, "
              f"I={med_i:.3f}, Y={med_y:.3f}; {dt:.2f}s")


def test_criterion_02_spot_checks(pre_params):
    p = pre_params
    assert p.I["AUS"] == 0.0
    assert p.I["NZL"] == 2.3
    assert p.Y["USA"] == -54.0
    assert p.Y["JPN"] == -24.1
    assert barrier(p, "AFG", "FRA") == 1.9
    assert is_blocked(barrier(p, "PSE", "JPN"))
    report(2, "I[AUS]=0.0, I[NZL]=2.3, Y[USA]=-54.0, Y[JPN]=-24.1, "
              "T[AFG][FRA]=1.9, T[PSE][JPN]=blocked, all exact")


def test_criterion_03_softmax_odds():
    p = params_from_dicts(S={"A": 1.0},
                          T={("A", "X"): 0.0, ("A", "Z"): 10.0},
                          I={"X": 0.0, "Z": 0.0}, Y={"X": -20.0, "Z": -20.0},
                          lam=0.1)
    net = build_network(p)
    chain = transition_matrix(net, least_cost_to_end(net), p.lam)
    row = chain.row(source("A"))
    odds = row[staged("X")] / row[staged("Z")]
    assert abs(odds - math.e) <= 1e-12
    report(3, f"cost gap 10 at lambda=0.1 gives odds {odds!r} vs e, "
              f"error {abs(odds - math.e):.2e}")


def test_criterion_04_oracle_triangle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    n_samples = 100_000
    cells = 0
    inside = 0
    for k in range(50):
        p = random_params(rng)
        net = build_network(p)
        costs = least_cost_to_end(net)
        chain = transition_matrix(net, costs, p.lam)
        m = solve(p)
        m_cells = cell_dict(m)
        for r, i in enumerate(p.sources):
            if source(i) in chain.dead:
                assert m.N[r].sum() == 0.0
                continue
            dist = enumerate_path_distribution(net, costs, source(i), p.lam)
            for t in p.targets:
                assert abs(m_cells.get((i, t), 0.0) - p.S[i] * dist.get(t, 0.0)) <= 1e-10 * p.S[i]
            # Monte Carlo against 3-sigma binomial bands
            emp = sample_paths(chain, source(i), n=n_samples, seed=1000 * k + hash(i) % 997)
            for key, prob in dist.items():
                cells += 1
                sigma = math.sqrt(prob * (1 - prob) / n_samples)
                if abs(emp.get(key, 0.0) - prob) <= 3 * sigma + 1e-12:
                    inside += 1
    frac = inside / cells
    dt = time.perf_counter() - t0
    assert frac >= 0.95
    assert dt < 30.0
    report(4, f"50 instances; enumeration matches exact to 1e-10; "
              f"{frac:.1%} of {cells} sampled cells inside 3-sigma; {dt:.1f}s")


def test_criterion_05_baseline_dominance(pre_params):
    p = pre_params
    net = build_network(p)
    costs = least_cost_to_end(net)
    usa = staged("USA")
    for i in p.sources:
        best = min(costs[v] + net.weight(source(i), v) for v in net.successors(source(i)))
        assert net.weight(source(i), usa) + costs[usa] == pytest.approx(best)
    matrix = solve(p)
    totals, grand = target_totals(matrix)
    top = max(totals, key=totals.get)
    share = totals["USA"] / grand
    assert top == "USA"
    assert share > 0.5
    report(5, f"USA is the least-cost option from all {len(p.sources)} sources "
              f"and the top target; USA share {share:.3f}")


def test_criterion_06_fortress_substitution(pre_params):
    t0 = time.perf_counter()
    base = solve(pre_params)
    alt = solve(fortress(pre_params, "USA"))
    _, ranked = diff_matrices(base, alt)
    alt_usa_col = sum(v for (i, t), v in cell_dict(alt).items() if t == "USA" and i != "USA")
    assert alt_usa_col == 0.0
    for t, v in ranked:
        if t != "USA":
            assert v >= -1e-9
    gainers = [t for t, v in ranked if v > 0]
    assert gainers[0] == "JPN"
    dt = time.perf_counter() - t0
    assert dt < 5.0
    report(6, f"foreign USA column exactly 0, all other target deltas >= 0, "
              f"top gainer JPN (+{dict(ranked)['JPN']:.1f}); {dt:.2f}s")


def test_criterion_07_homegrown_collapse(pre_params):
    base = solve(pre_params)
    alt = solve(apply_scenario(pre_params, BUILTIN_SCENARIOS["homegrown"]))
    assert all(i == t for (i, t) in cell_dict(alt))
    assert alt.N.sum() < base.N.sum()
    report(7, f"home-grown matrix diagonal; grand total {alt.N.sum():.1f} "
              f"< baseline {base.N.sum():.1f}")


def test_criterion_08_deterrence_curve(pre_params):
    grid = [float(a) for a in range(-60, 11)]
    curve = deterrence_sweep(pre_params, grid)
    assert curve.totals == sorted(curve.totals)
    # sigmoid shape: the growth rate rises to a single peak, then falls
    diffs = np.diff(curve.totals)
    peak_k = int(np.argmax(diffs))
    assert (np.diff(diffs[:peak_k + 1]) >= -1e-9).all()
    assert (np.diff(diffs[peak_k:]) <= 1e-9).all()
    a_star = find_threshold(grid, curve.totals)
    assert -54.0 < a_star < -6.8

    # synthetic single-source fixture against the closed-form logistic midpoint
    c = 0.2 + 1.5 - 54.0
    single = params_from_dicts(S={"SRC": 100.0}, T={("SRC", "USA"): 0.2},
                               I={"USA": 1.5}, Y={"USA": -54.0}, lam=0.1)
    sgrid = [float(a) for a in range(-80, 0)]
    scurve = deterrence_sweep(single, sgrid)
    s_star = find_threshold(sgrid, scurve.totals)
    half = 0.5 * max(scurve.totals)
    analytic = c - math.log(100.0 / half - 1.0) / 0.1
    assert abs(s_star - analytic) <= 1.0
    report(8, f"bundled curve monotone, single growth region, A*={a_star:.2f} "
              f"in (-54, -6.8); synthetic midpoint error {abs(s_star - analytic):.3f} <= 1 step")


def test_criterion_09_estimation_properties(bundle, tmp_path):
    # scale invariance of the normalizer
    rng = np.random.default_rng(9)
    for _ in range(50):
        vals = list(rng.uniform(1.0, 500.0, size=20))
        scale = float(rng.uniform(1e-3, 1e3))
        a = normalize_min_median(vals, "cost")
        b = normalize_min_median([v * scale for v in vals], "cost")
        assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-9
        ay = normalize_min_median(vals, "yield")
        by = normalize_min_median([v * scale for v in vals], "yield")
        assert max(abs(x - y) for x, y in zip(ay, by)) <= 1e-9

    # equal support fractions: high-commitment preset scales supply by 1.3/1.75
    equal = 100.0 * (1.3 / 1.75 - 1.0)
    assert abs(equal - (-25.714285714285715)) <= 0.1
    from tnrisk.dataset import COUNTRY_HEADER, load_country_table
    path = tmp_path / "countries.csv"
    path.write_text(f"{','.join(COUNTRY_HEADER)}\nEQQ,Equal,X,1e6,,,1e6,0.4,0.2,0.2,0.2,0,0\n",
                    encoding="utf-8")
    high, low = percent_change(load_country_table(path))["EQQ"]
    assert abs(high - equal) <= 0.1

    # Indonesia row from the bundled survey fractions
    idn = percent_change(impute_survey(bundle.countries))["IDN"]
    assert abs(idn[0] - (-46.2)) <= 0.1
    assert abs(idn[1] - 24.6) <= 0.1
    report(9, f"scale invariance exact to 1e-9; equal-sigma high preset {high:.1f}%; "
              f"IDN row ({idn[0]:.1f}%, {idn[1]:+.1f}%) vs (-46.2%, +24.6%)")


def test_criterion_10_determinism(tmp_path):
    from tnrisk.cli import main
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--out", str(a)]) == 0
    assert main(["solve", "--out", str(b)]) == 0
    names = ["attack_matrix.csv", "attack_matrix.json", "abandoned.csv",
             "target_totals.csv", "plot_data.csv"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    report(10, f"two consecutive solve runs byte-identical across {len(names)} output files")
