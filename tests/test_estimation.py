from __future__ import annotations

import dataclasses
import math
import re
import statistics
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnrisk import BLOCKED, estimation, is_blocked, load_bundle
from tnrisk.dataset import COUNTRY_HEADER, load_country_table, load_pre_estimated
from tnrisk.errors import DegenerateSpread, EmptyRegion, MissingImputation, ModelError
from tnrisk.estimation import (
    estimate_barriers,
    estimate_interception,
    estimate_params,
    estimate_supply,
    estimate_yield,
    impute_survey,
    normalize_min_median,
    raw_barrier,
    write_params_csv,
)
from tnrisk.params import WEIGHT_PRESETS, SupportWeights

import estimation_oracle
from conftest import bundle_copy, bundled_countries_with, raw_tables, same_table

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import closed_form  # noqa: E402


finite_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=3, max_size=40,
)

# both signs, repeats, subnormals and spreads that overflow; and lists whose least
# value is 0.0 or -0.0, given in either order, where the minimum's sign reaches the output
edge_lists = st.one_of(
    st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0, 3.0,
                                        1e300, -1e300, 1.7976931348623157e308,
                                        -1.7976931348623157e308])),
             min_size=2, max_size=30),
    st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1.0, 3.0]), min_size=2, max_size=30),
)


class TestNormalize:
    def test_cost_anchors(self):
        out = normalize_min_median([2.0, 4.0, 10.0], "cost")
        assert out[0] == 0.0
        # median of the inputs maps exactly to 1
        assert out[1] == 1.0

    def test_yield_anchors(self):
        out = normalize_min_median([2.0, 4.0, 10.0], "yield")
        assert out[0] == 0.0 and out[1] == -1.0
        assert max(out) == 0.0

    @pytest.mark.parametrize("bad", [BLOCKED, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        """The normaliser takes finite values only: no BLOCKED pass-through."""
        with pytest.raises(ModelError, match="finite"):
            normalize_min_median([1.0, bad, 3.0, 5.0], "cost")

    @given(edge_lists, st.sampled_from(["cost", "yield"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_list_reference(self, values, sign):
        """The array expression gives the bits of the oracle's normaliser over a plain list
        (min, statistics.median, the per-value formula), signed zeros included; where that
        overflows, it raises."""
        try:
            want = estimation_oracle.normalize_min_median(values, sign)
        except DegenerateSpread:
            with pytest.raises(DegenerateSpread):
                normalize_min_median(np.array(values), sign)
            return
        if not all(map(math.isfinite, want)):  # an overflow is an error, not a parameter
            with pytest.raises(ModelError, match="overflows"):
                normalize_min_median(np.array(values), sign)
            return
        got = normalize_min_median(np.array(values), sign)
        assert list(map(float.hex, got.tolist())) == list(map(float.hex, want))

    def test_degenerate(self):
        with pytest.raises(DegenerateSpread):
            normalize_min_median([5.0, 5.0, 5.0], "cost")
        with pytest.raises(DegenerateSpread):
            normalize_min_median([5.0], "cost")

    def test_unknown_sign_rejected(self):
        with pytest.raises(ValueError, match="bad sign 'bogus'"):
            normalize_min_median([1.0, 2.0, 3.0], "bogus")

    @given(finite_lists, st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, values, scale):
        lo = min(values)
        med = statistics.median(values)
        if med - lo < 1e-6 * max(1.0, abs(med)):
            return
        a = normalize_min_median(values, "cost")
        b = normalize_min_median([v * scale for v in values], "cost")
        for x, y in zip(a, b):
            assert x == pytest.approx(y, rel=1e-9, abs=1e-9)

    @given(finite_lists)
    @settings(max_examples=100, deadline=None)
    def test_cost_yield_mirror(self, values):
        lo = min(values)
        med = statistics.median(values)
        if med - lo < 1e-6 * max(1.0, abs(med)):
            return
        a = normalize_min_median(values, "cost")
        b = normalize_min_median(values, "yield")
        for x, y in zip(a, b):
            assert y == pytest.approx(-x, rel=1e-9, abs=1e-9)


def surveyed(countries) -> np.ndarray:
    return ~np.isnan(countries.sigma).any(axis=1)


class TestImputation:
    def test_idempotent_and_regional_mean(self, bundle):
        once = impute_survey(bundle.countries)
        twice = impute_survey(once)
        assert same_table(once, twice)
        assert surveyed(once)[once.muslim_pop > 0].all()

    def test_unsurveyed_country_gets_regional_mean(self, bundle, tmp_path):
        """Each fraction is the unweighted mean over the region's surveyed countries."""
        t = bundle.countries
        regions = [r for r, s in zip(t.regions, surveyed(t)) if s]
        region = max(set(regions), key=regions.count)
        peers = t.sigma[surveyed(t) & (np.array(t.regions) == region)].tolist()
        assert len(peers) > 1
        gap = f"XXD,Gap,{region},1e6,,,1000.0,,,,,0,0"
        filled = impute_survey(bundled_countries_with(tmp_path, gap))
        assert tuple(filled.sigma[-1].tolist()) == tuple(
            estimation_oracle.left_sum(f) / len(peers) for f in zip(*peers))

    def test_surveyed_rows_untouched(self, bundle):
        before = bundle.countries
        after = impute_survey(before)
        assert np.array_equal(after.sigma[surveyed(before)], before.sigma[surveyed(before)])
        assert same_table(dataclasses.replace(after, sigma=before.sigma), before)

    def test_empty_region(self, tmp_path):
        lonely = "XXB,Nowhere,Atlantis,1e6,,,1000.0,,,,,0,0"
        with pytest.raises(EmptyRegion):
            impute_survey(bundled_countries_with(tmp_path, lonely))


class TestSupply:
    def test_requires_imputation(self, bundle, tmp_path):
        gap = f"XXC,Gap,{bundle.countries.regions[0]},1e6,,,1000.0,,,,,0,0"
        with pytest.raises(MissingImputation):
            estimate_supply(bundled_countries_with(tmp_path, gap))

    def test_linear_in_q(self, bundle):
        countries = impute_survey(bundle.countries)
        s1 = estimate_supply(countries, q=0.002)
        s2 = estimate_supply(countries, q=0.004)
        for code in s1:
            assert s2[code] == pytest.approx(2.0 * s1[code])

    def test_zero_muslim_pop_zero_supply(self, bundle):
        countries = impute_survey(bundle.countries)
        supply = estimate_supply(countries)
        for code, muslim_pop in zip(countries.codes, countries.muslim_pop.tolist()):
            if muslim_pop == 0:
                assert supply[code] == 0.0


# a survey cell: blank, a signed zero, a subnormal, or a fraction; three sum to at most 1
fractions = st.one_of(st.none(), st.sampled_from([0.0, -0.0, 5e-324, 0.1, 1 / 3]),
                      st.floats(min_value=0.0, max_value=0.33))
country_rows = st.lists(
    st.tuples(st.sampled_from(["Asia", "Africa", "Europe"]),
              st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0]),
                        st.floats(min_value=1.0, max_value=1e9)),
              st.tuples(fractions, fractions, fractions)),
    min_size=1, max_size=12)
weights = st.one_of(st.sampled_from(list(WEIGHT_PRESETS.values())),
                    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=3, max_size=3)
                    .map(lambda w: SupportWeights(*sorted(w))))


@given(country_rows, weights, st.one_of(st.floats(min_value=1e-4, max_value=1.0), st.just(1e300)))
@settings(max_examples=300, deadline=None)
def test_imputed_supply_matches_per_row_oracle(rows, weights, q):
    """The column path imputes and estimates supply with the oracle's bits, and fails with
    its error, over partial surveys, signed zeros, zero muslim_pop and regions with no
    surveyed row; with imputation, and without it, where a gap is MissingImputation; and
    with a q of 1e300, where a supply that overflows is a ModelError."""
    lines = [",".join(COUNTRY_HEADER)]
    for k, (region, muslim_pop, sigma) in enumerate(rows):
        cells = ",".join("" if f is None else repr(f) for f in sigma)
        lines.append(f"C{k:02d},C{k:02d},{region},1e6,,,{muslim_pop!r},,{cells},0,0")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "countries.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        table, reference = load_country_table(path), estimation_oracle.read_countries(path)

    def outcome(run):
        try:
            return run()
        except ModelError as e:
            return type(e), str(e)

    def hexes(values):
        return [[None if v is None or math.isnan(v) else v.hex() for v in row] for row in values]

    want = outcome(lambda: estimation_oracle.impute_survey(reference))
    got = outcome(lambda: impute_survey(table))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert hexes(got.sigma.tolist()) == hexes([[r[k] for k in estimation_oracle.SIGMA]
                                                   for r in want])
    for ref, tab in ((reference, table), (want, got)):
        if isinstance(ref, tuple):
            continue
        expected = outcome(lambda: estimation_oracle.estimate_supply(ref, weights, q))
        supply = outcome(lambda: estimate_supply(tab, weights, q))
        if isinstance(expected, dict):
            expected = {code: v.hex() for code, v in expected.items()}
            supply = {code: v.hex() for code, v in supply.items()}
        assert supply == expected


class TestBarriers:
    @given(st.floats(min_value=1.0, max_value=1e9),
           st.floats(min_value=1.0, max_value=1e9),
           st.floats(min_value=1.0, max_value=4e4),
           st.floats(min_value=1e-3, max_value=1e7))
    @settings(max_examples=100, deadline=None)
    def test_raw_barrier_identity(self, p_i, p_j, d, m):
        v = raw_barrier(p_i, p_j, d, m)
        assert v == pytest.approx((p_i * p_j / d**2) / m)

    def test_raw_barrier_blocked(self, tmp_path):
        """A zero-migration row lists its pair as BLOCKED; a pair with no row is not listed."""
        d = raw_tables(tmp_path, "FRA,DEU,0\nFRA,ITA,5\nDEU,ITA,7\nITA,FRA,9\n",
                       "FRA,DEU,500\nFRA,ITA,900\nDEU,ITA,700\n")
        barriers = dict(estimate_barriers(load_bundle(d)).items())
        assert barriers[("FRA", "DEU")] == BLOCKED
        assert ("DEU", "FRA") not in barriers and ("USA", "USA") in barriers

    def test_estimated_diagonal_zero(self, bundle):
        barriers = dict(estimate_barriers(bundle).items())
        for code in bundle.countries.codes:
            assert barriers[(code, code)] == 0.0

    def test_estimated_anchors(self, bundle):
        barriers = estimate_barriers(bundle)
        finite = [v for (i, j), v in barriers.items() if i != j and not is_blocked(v)]
        assert min(finite) == 0.0
        assert statistics.median(finite) == pytest.approx(1.0)


class TestTooFewTargets:
    """Interception and yield are normalised over the targets that give their figure: with
    fewer than two, there is no spread to normalise."""

    @pytest.mark.parametrize("estimate, column, what", [
        (estimate_interception, "sec_fraction", "security data"),
        (estimate_yield, "gdp", "GDP")], ids=["interception", "yield"])
    @pytest.mark.parametrize("keep", [1, 2], ids=["one-target", "second-without-figure"])
    def test_degenerate_spread(self, bundle, estimate, column, what, keep):
        countries = bundle.countries
        first = np.flatnonzero(countries.is_target)[:keep]
        is_target = np.zeros_like(countries.is_target)
        is_target[first] = True
        figure = getattr(countries, column).copy()
        figure[first[1:]] = np.nan  # the second target, if kept, gives no figure
        countries = dataclasses.replace(countries, is_target=is_target, **{column: figure})
        with pytest.raises(DegenerateSpread,
                           match=f"^need at least two target countries with {what}$"):
            estimate(countries)


class TestRoundTripAgainstBundled:
    """Estimate mode must reproduce the shipped pre-estimated tables."""

    def test_interception_matches(self, bundle, pre_params):
        est = estimate_interception(impute_survey(bundle.countries))
        assert set(est) == set(pre_params.I)
        for code, v in est.items():
            assert v == pytest.approx(pre_params.I[code], abs=0.05)

    def test_yield_matches(self, bundle, pre_params):
        est = estimate_yield(impute_survey(bundle.countries))
        assert set(est) == set(pre_params.Y)
        for code, v in est.items():
            assert v == pytest.approx(pre_params.Y[code], abs=0.05)

    def test_supply_matches(self, bundle, pre_params):
        est = estimate_supply(impute_survey(bundle.countries))
        for code, v in pre_params.S.items():
            assert est.get(code, 0.0) == pytest.approx(v, abs=0.05 * max(1.0, v))

    def test_barriers_match(self, bundle, pre_params):
        est = dict(estimate_barriers(bundle).items())
        for key, v in pre_params.T.items():
            if is_blocked(v):
                assert is_blocked(est.get(key, BLOCKED))
            else:
                # migration counts are rounded, so large barriers wobble a bit
                assert abs(est[key] - v) <= max(0.5, 0.005 * abs(v))

    def test_write_and_reload(self, bundle, tmp_path):
        params = estimate_params(bundle)
        write_params_csv(params, tmp_path)
        reloaded = load_pre_estimated(tmp_path)
        assert reloaded.S == params.S
        assert reloaded.I == params.I
        assert reloaded.Y == params.Y
        assert dict(reloaded.T.items()) == dict(params.T.items())

    def test_benchmark_reads_params_as_written(self, bundle, tmp_path):
        """The benchmark's reference reads estimated parameters through ``T.items()`` and the
        S, I and Y dicts, and gets bit for bit the problem it reads from the written tables."""
        params = estimate_params(bundle)
        write_params_csv(params, tmp_path)
        read, written = closed_form.from_params(params), closed_form.read_pre_estimated(tmp_path)
        assert (read.sources, read.targets) == (written.sources, written.targets)
        for name in ("S", "T", "I", "Y"):
            assert getattr(read, name).tobytes() == getattr(written, name).tobytes()


def random_raw_tables(rng: np.random.Generator, directory: Path) -> Path:
    """Raw tables of 3 to 8 countries, in shuffled order, with zero, near-zero and
    subnormal migrations, pairs without migration, distances given one way or both, and a
    source, C00, whose every migration row is zero."""
    codes = [f"C{k:02d}" for k in range(int(rng.integers(3, 9)))]
    countries = {c: (float(rng.uniform(1e3, 1e9)),
                     0.0 if c != "C00" and rng.random() < 0.3 else float(rng.uniform(1.0, 1e7)))
                 for c in rng.permutation(codes).tolist()}
    migration, distance = [], []
    for i in codes:
        for j in codes:
            if rng.random() < 0.4:
                continue
            r = rng.random()
            if i == "C00" or r < 0.2:
                m = 0.0
            elif r < 0.25:  # a channel so thin that its barrier folds into BLOCKED
                m = 10.0 ** float(rng.uniform(-95, -80))
            elif r < 0.3:  # thinner still: the raw barrier may overflow to inf
                m = 10.0 ** float(rng.uniform(-320, -300))
            else:
                m = float(rng.uniform(1e-3, 1e7))
            migration.append((i, j, m))
    for k, i in enumerate(codes):
        for j in codes[k + 1:]:
            if rng.random() < 0.2 and not any({o, d} == {i, j} for o, d, _ in migration):
                continue
            km = float(rng.uniform(1.0, 2e4))
            pair = [(i, j), (j, i)][int(rng.integers(2))]
            distance.append((*pair, km))
            if rng.random() < 0.3:  # the other way too, within the 1e-6 tolerance
                distance.append((*pair[::-1], km * (1 + float(rng.uniform(-1e-7, 1e-7)))))
        if rng.random() < 0.3:
            distance.append((i, i, float(rng.uniform(0.0, 10.0))))
    rows = [[f"{o},{d},{v!r}\n" for o, d, v in table] for table in (migration, distance)]
    for table in rows:
        rng.shuffle(table)
    return raw_tables(directory, "".join(rows[0]), "".join(rows[1]), countries)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_barriers_match_per_pair_oracle(seed):
    """The array path lists the oracle's pairs with the same bits and warns of the same sources."""
    with tempfile.TemporaryDirectory() as tmp:
        data = random_raw_tables(np.random.default_rng(seed), Path(tmp))
        bundle = load_bundle(data)
        try:
            expected, warned = estimation_oracle.estimate_barriers(data)
        except DegenerateSpread as e:
            with pytest.raises(DegenerateSpread, match=re.escape(str(e))):
                estimate_barriers(bundle)
            return
    with mock.patch.object(estimation.logger, "warning") as warning:
        barriers = estimate_barriers(bundle)
    assert {k: v.hex() for k, v in barriers.items()} == {k: v.hex() for k, v in expected.items()}
    assert [call.args[1] for call in warning.call_args_list] == warned


@pytest.mark.parametrize("edit", [("migration.csv", "AFG,AUS,", 2, "1e-305"),
                                  ("countries.csv", "AFG,", 3, "1e200")],
                         ids=["tiny-migration", "huge-population"])
def test_overflowing_raw_barrier_blocks_without_a_warning(tmp_path, edit):
    """A raw barrier that overflows to inf is one >= 1e100: its pair is BLOCKED, numpy
    warns of nothing, and every pair keeps the oracle's bits."""
    data = bundle_copy(tmp_path, edit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = estimate_params(load_bundle(data))
    expected, _ = estimation_oracle.estimate_barriers(data)
    barriers = dict(params.T.items())
    assert barriers[("AFG", "AUS")] == BLOCKED
    assert {k: v.hex() for k, v in barriers.items()} == {k: v.hex() for k, v in expected.items()}
