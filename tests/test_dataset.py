from __future__ import annotations

import codecs
import csv
import math
import re
import shutil
import statistics
import tempfile
import time
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tnrisk import (
    BLOCKED,
    ModelError,
    bundled_data_dir,
    is_blocked,
    load_bundle,
    load_country_table,
    load_pre_estimated,
    solve,
)
from tnrisk import dataset
from tnrisk.dataset import COUNTRY_HEADER, write_pre_estimated
from tnrisk.scenario import build_network

import synth
from conftest import barrier, params_from_dicts, random_params, raw_tables

HEADER = ",".join(COUNTRY_HEADER)


def write(tmp_path: Path, name: str, text: str) -> Path:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestCountryTable:
    def test_basic_row(self, tmp_path):
        p = write(tmp_path, "c.csv", HEADER + "\n"
                  "USA,United States,NorthAmerica,3e8,1.4e13,0.0175,2.4e6,0.7,0.1,0.1,0.05,1,1\n")
        t = load_country_table(p)
        assert t.codes == ["USA"] and t.is_target.tolist() == [True]
        assert t.gdp.tolist() == [1.4e13] and not np.isnan(t.sigma).any()

    def test_duplicate_code(self, tmp_path):
        p = write(tmp_path, "c.csv", HEADER + "\n"
                  "FRA,France,Europe,6e7,,,0,,,,,1,0\n"
                  "FRA,France,Europe,6e7,,,0,,,,,1,0\n")
        with pytest.raises(ModelError,
                           match="^duplicate country code 'FRA' in c.csv on lines 2 and 3$"):
            load_country_table(p)

    def test_survey_fractions_exceed_one(self, tmp_path):
        p = write(tmp_path, "c.csv", HEADER + "\n"
                  "XXA,Nowhere,Europe,1e6,,,1e5,0.5,0.4,0.2,0.1,0,0\n")
        with pytest.raises(ModelError, match=r"^line 2: survey fractions out of range: \[0.5, "):
            load_country_table(p)

    def test_missing_cells_are_missing(self, tmp_path):
        p = write(tmp_path, "c.csv", HEADER + "\n"
                  "XXA,Nowhere,Europe,1e6,,,1e5,,,,,0,0\n")
        t = load_country_table(p)
        assert np.isnan(t.gdp[0]) and np.isnan(t.sec_fraction[0]) and np.isnan(t.sigma[0]).any()

    def test_non_numeric_required(self, tmp_path):
        p = write(tmp_path, "c.csv", HEADER + "\n"
                  "XXA,Nowhere,Europe,lots,,,1e5,,,,,0,0\n")
        with pytest.raises(ModelError, match="^line 2: population in c.csv must be .*'lots'"):
            load_country_table(p)

    @pytest.mark.parametrize("cells", [
        "-5,,,1e5,,,,", "0,,,1e5,,,,", "1e6,-1,,1e5,,,,", "1e6,,-0.1,1e5,,,,",
        "1e6,,,-1e5,,,,", "1e6,,,1e5,0.5,-0.1,0.1,0.1", "1e6,,2,1e5,,,,",
    ], ids=["population-negative", "population-zero", "gdp-negative", "sec-fraction-negative",
            "muslim-pop-negative", "sigma-negative", "sec-fraction-above-one"])
    def test_sign_rules(self, tmp_path, cells):
        p = write(tmp_path, "c.csv", HEADER + f"\nXXA,Nowhere,Europe,{cells},0,0\n")
        with pytest.raises(ModelError, match="^line 2: .* in c.csv must be"):
            load_country_table(p)

    @pytest.mark.parametrize("flags, name", [("maybe,0", "is_oecd"), ("0,maybe", "is_target")])
    def test_bad_flag(self, tmp_path, flags, name):
        """Both flags are checked, though the table holds only is_target."""
        p = write(tmp_path, "c.csv", HEADER + f"\nXXA,Nowhere,Europe,1e6,,0.01,0,,,,,{flags}\n")
        with pytest.raises(ModelError, match=f"^line 2: bad flag {name}: 'maybe'$"):
            load_country_table(p)

    def test_target_without_gdp_is_not_a_target(self, tmp_path):
        """It loads, and has no yield, so the estimators leave it out of the targets."""
        p = write(tmp_path, "c.csv", HEADER + "\n"
                  "ISL,Iceland,Europe,3e5,,0.01,0,,,,,1,1\n")
        t = load_country_table(p)
        assert t.is_target[0] and np.isnan(t.gdp[0]) and t.sec_fraction[0] == 0.01

    def test_bad_header(self, tmp_path):
        p = write(tmp_path, "c.csv", "code,name\nUSA,United States\n")
        with pytest.raises(ModelError, match="^line 1: bad header in c.csv, expected code,name,"):
            load_country_table(p)


def pair_cell(bundle, origin: str, dest: str) -> tuple[float, float] | None:
    """(migration, distance) of the bundle's listed migration pair (origin, dest), else None."""
    pairs = zip(*(map(bundle.codes.__getitem__, axis) for axis in (bundle.rows, bundle.cols)))
    at = {pair: k for k, pair in enumerate(pairs)}.get((origin, dest))
    return None if at is None else (float(bundle.migration[at]), float(bundle.distance[at]))


class TestPairTable:
    """The rules of migration.csv and distance_km.csv, as load_bundle reads them."""

    def test_distance_mirrors(self, tmp_path):
        """A distance row holds both ways, and a domestic pair needs none; a foreign migration
        pair with a row in neither direction is an error."""
        b = load_bundle(raw_tables(tmp_path, "FRA,DEU,3\nDEU,FRA,2\nFRA,FRA,7\n", "FRA,DEU,500\n"))
        assert pair_cell(b, "DEU", "FRA") == (2.0, 500.0)
        assert pair_cell(b, "FRA", "FRA") == (7.0, 0.0)
        d = raw_tables(tmp_path, "FRA,DEU,3\nFRA,ITA,1\n", "FRA,DEU,500\n")
        with pytest.raises(ModelError, match="^migration.csv pair FRA,ITA has no row in "
                                             "distance_km.csv$"):
            load_bundle(d)

    def test_self_distance_zero_accepted(self, tmp_path):
        b = load_bundle(raw_tables(tmp_path, "USA,USA,1\nFRA,FRA,2\n", "USA,USA,0\nFRA,FRA,7\n"))
        assert pair_cell(b, "USA", "USA") == (1.0, 0.0)
        assert pair_cell(b, "FRA", "FRA") == (2.0, 0.0)

    def test_header_only_distance_table(self, tmp_path):
        """With no distance row, domestic migration pairs load, at distance 0.0, and a foreign
        one is an error."""
        b = load_bundle(raw_tables(tmp_path, "FRA,FRA,2\nUSA,USA,1\n", ""))
        assert pair_cell(b, "FRA", "FRA") == (2.0, 0.0) and pair_cell(b, "USA", "USA") == (1.0, 0.0)
        d = raw_tables(tmp_path, "FRA,FRA,2\nFRA,DEU,3\n", "")
        with pytest.raises(ModelError, match="^migration.csv pair FRA,DEU has no row in "
                                             "distance_km.csv$"):
            load_bundle(d)

    def test_zero_distance_between_countries(self, tmp_path):
        d = raw_tables(tmp_path, "", "FRA,DEU,500\nFRA,ITA,0\n")
        with pytest.raises(ModelError,
                           match="^line 3: distance FRA,ITA in distance_km.csv must be > 0"):
            load_bundle(d)

    @pytest.mark.parametrize("km, rule", [
        pytest.param(km, "about 1.6e-162 or more, so that its square is not 0", id=km)
        for km in ("1e-170", "1e-200")] + [("1e200", "< 1e154")])
    def test_distance_whose_square_is_not_finite_and_positive(self, tmp_path, km, rule):
        """A distance whose square underflows to 0 or overflows is rejected, not blocked, with
        the rule it breaks."""
        d = raw_tables(tmp_path, "FRA,DEU,3\n", f"FRA,FRA,1e200\nFRA,DEU,{km}\n")
        with pytest.raises(ModelError, match=f"^line 3: distance FRA,DEU in distance_km.csv "
                                             f"must be {rule}, got '{km}'"):
            load_bundle(d)

    def test_asymmetric_distance(self, tmp_path):
        """Of the pairs whose two directions differ, the one whose later row comes first is
        reported, in that row's direction."""
        for distance, pair in (("FRA,DEU,500\nFRA,ITA,900\nDEU,FRA,600\n", "DEU-FRA"),
                               ("FRA,DEU,500\nFRA,ITA,900\nITA,FRA,950\nDEU,FRA,600\n",
                                "ITA-FRA")):
            d = raw_tables(tmp_path, "", distance)
            with pytest.raises(ModelError, match=f"^distance {pair} given in both directions "
                                                 "with different values$"):
                load_bundle(d)

    def test_both_directions_within_tolerance(self, tmp_path):
        """Both directions may be listed if they agree to 1e-6; the later row holds both ways."""
        b = load_bundle(raw_tables(tmp_path, "FRA,DEU,3\nDEU,FRA,4\n",
                                   "FRA,DEU,500\nDEU,FRA,500.0001\n"))
        assert pair_cell(b, "FRA", "DEU") == (3.0, 500.0001)
        assert pair_cell(b, "DEU", "FRA") == (4.0, 500.0001)

    def test_negative_value(self, tmp_path):
        d = raw_tables(tmp_path, "FRA,DEU,-3\n", "FRA,DEU,500\n")
        with pytest.raises(ModelError, match="^line 2: FRA,DEU in migration.csv = -3.0$"):
            load_bundle(d)

    def test_wrong_cell_count(self, tmp_path):
        d = raw_tables(tmp_path, "FRA,DEU,3\nFRA,ITA\n", "FRA,DEU,500\n")
        with pytest.raises(ModelError, match="^line 3: expected 3 cells in migration.csv, got 2$"):
            load_bundle(d)

    def test_migration_missing_pair_distinct_from_zero(self, tmp_path):
        b = load_bundle(raw_tables(tmp_path, "FRA,DEU,0\n", "FRA,DEU,500\n"))
        assert pair_cell(b, "FRA", "DEU") == (0.0, 500.0)
        assert pair_cell(b, "DEU", "FRA") is None

    @pytest.mark.parametrize("table, again", [
        ("migration.csv", "FRA,DEU,1"), ("migration.csv", " FRA , DEU ,3"),
        ("distance_km.csv", "FRA,DEU,700"), ("distance_km.csv", "FRA,DEU,500"),
    ], ids=["migration", "migration-same-value", "distance", "distance-same-value"])
    def test_repeated_pair(self, tmp_path, table, again):
        """A pair listed twice in the same direction is an error, whatever the two values."""
        rows = {"migration.csv": "FRA,DEU,3\nFRA,ITA,4\n",
                "distance_km.csv": "FRA,DEU,500\nFRA,ITA,900\n"}
        rows[table] += again + "\n"
        d = raw_tables(tmp_path, rows["migration.csv"], rows["distance_km.csv"])
        with pytest.raises(ModelError,
                           match=f"^duplicate pair 'FRA','DEU' in {table} on lines 2 and 4$"):
            load_bundle(d)


class TestPreEstimated:
    def test_bundled_spot_values(self, pre_params):
        p = pre_params
        assert p.I["AUS"] == 0.0
        assert p.I["NZL"] == 2.3
        assert p.Y["USA"] == -54.0
        assert p.Y["JPN"] == -24.1
        assert barrier(p, "AFG", "FRA") == 1.9
        assert is_blocked(barrier(p, "PSE", "JPN"))

    def test_blocked_parsing(self, tmp_path):
        d = tmp_path
        write(d, "supply.csv", "code,supply\nAAA,10\n")
        write(d, "interception.csv", "code,cost\nBBB,0\nCCC,1\nDDD,2\n")
        write(d, "yield.csv", "code,yield\nBBB,-1\nCCC,0\nDDD,-2\n")
        write(d, "barriers.csv", "origin,dest,cost\nAAA,BBB,1e+200\nAAA,CCC,inf\n"
                                 "AAA,DDD,blocked\n")
        p = load_pre_estimated(d)
        assert is_blocked(barrier(p, "AAA", "BBB"))
        assert is_blocked(barrier(p, "AAA", "CCC"))
        assert barrier(p, "AAA", "DDD") == BLOCKED
        assert barrier(p, "AAA", "AAA") == 0.0  # forced diagonal

    @pytest.mark.parametrize("name, table", [
        ("yield.csv", "code,yield\nBBB,-1\nCCC,nan\n"),
        ("interception.csv", "code,cost\nBBB,0\nCCC,inf\n"),
        ("supply.csv", "code,supply\nAAA,10\nDDD,-inf\n"),
        ("barriers.csv", "origin,dest,cost\nAAA,BBB,1.0\nAAA,CCC,nan\n"),
        ("barriers.csv", "origin,dest,cost\nAAA,BBB,1.0\nAAA,CCC,-inf\n"),
        ("supply.csv", "code,supply\nAAA,10\nIDN,-100\n"),
        ("yield.csv", "code,yield\nBBB,-1\nCCC,0.5\n"),
        ("interception.csv", "code,cost\nBBB,0\nCCC,-1\n"),
    ], ids=["yield-nan", "interception-inf", "supply-minus-inf", "barrier-nan",
            "barrier-minus-inf", "supply-negative", "yield-positive", "interception-negative"])
    def test_non_finite_rejected(self, tmp_path, name, table):
        d = tmp_path
        write(d, "supply.csv", "code,supply\nAAA,10\n")
        write(d, "interception.csv", "code,cost\nBBB,0\nCCC,1\n")
        write(d, "yield.csv", "code,yield\nBBB,-1\nCCC,0\n")
        write(d, "barriers.csv", "origin,dest,cost\nAAA,BBB,1.0\n")
        write(d, name, table)
        with pytest.raises(ModelError, match=f"^line 3: .*{name}"):
            load_pre_estimated(d)

    def test_missing_file(self, tmp_path):
        missing = re.escape(str(tmp_path / "supply.csv"))
        with pytest.raises(ModelError, match=f"^table {missing} not found$"):
            load_pre_estimated(tmp_path)

    def test_code_mismatch(self, tmp_path):
        d = tmp_path
        write(d, "supply.csv", "code,supply\nAAA,10\n")
        write(d, "interception.csv", "code,cost\nBBB,0\nCCC,1\n")
        write(d, "yield.csv", "code,yield\nBBB,-1\nCCC,0\n")
        write(d, "barriers.csv", "origin,dest,cost\nZZZ,BBB,1.0\n")
        with pytest.raises(ModelError, match="^barrier origin 'ZZZ' not in supply.csv$"):
            load_pre_estimated(d)

    def test_unknown_destination(self, tmp_path):
        barriers = "origin,dest,cost\nAAA,BBB,1.0\nAAA,ZZZ,1.0\n"
        with pytest.raises(ModelError,
                           match="^barrier destination 'ZZZ' has no interception/yield data$"):
            load_pre_estimated(pre_tables(tmp_path, barriers))

    def test_diagonal_rows_load_as_zero(self, tmp_path):
        """A diagonal row needs no supply or target data, and costs 0.0 whatever it lists."""
        p = load_pre_estimated(pre_tables(tmp_path, "origin,dest,cost\nAAA,BBB,1.0\n"
                                                     "AAA,AAA,5.0\nZZZ,ZZZ,inf\n"))
        assert barrier(p, "AAA", "AAA") == 0.0 and barrier(p, "ZZZ", "ZZZ") == 0.0
        assert "ZZZ" in p.T.codes

    def test_full_width_blank_row_skipped(self, tmp_path):
        p = load_pre_estimated(pre_tables(tmp_path, "origin,dest,cost\nAAA,BBB,1.0\n"
                                                     " , , \nAAA,CCC,2.0\n"))
        assert dict(p.T.items()) == {("AAA", "AAA"): 0.0, ("AAA", "BBB"): 1.0, ("AAA", "CCC"): 2.0}

    def test_bad_cost_after_blank_rows(self, tmp_path):
        barriers = "origin,dest,cost\n\n , , \nAAA,BBB,1.0\nAAA,CCC,lots\n"
        with pytest.raises(ModelError, match="^line 5: cost in barriers.csv"):
            load_pre_estimated(pre_tables(tmp_path, barriers))

    def test_blocked_word_among_numbers(self, tmp_path):
        p = load_pre_estimated(pre_tables(tmp_path, "origin,dest,cost\nAAA,BBB, Blocked \n"
                                                     "AAA,CCC,1_000\n"))
        assert barrier(p, "AAA", "BBB") == BLOCKED and barrier(p, "AAA", "CCC") == 1000.0

    def test_first_failing_row_reported(self, tmp_path):
        """Of several bad rows the earliest is reported, whichever check it fails, even where
        a later row holds a cell over the csv module's field size limit."""
        barriers = "origin,dest,cost\nAAA,BBB,1.0\nAAA,CCC,-2\nZZZ,BBB,nan\n"
        with pytest.raises(ModelError, match="^line 3: barrier AAA,CCC = -2.0$"):
            load_pre_estimated(pre_tables(tmp_path, barriers))
        barriers = "origin,dest,cost\nAAA,BBB,1.0\nZZZ,CCC,-2\nAAA,BBB,nan\n"
        with pytest.raises(ModelError, match="^barrier origin 'ZZZ' not in supply.csv$"):
            load_pre_estimated(pre_tables(tmp_path, barriers))
        barriers = ("origin,dest,cost\nAAA,BBB,1.0\nAAA,CCC,2.0\nAAA,DDD\n"
                    + "AAA,BBB,1.0\n" * 496 + "AAA,CCC," + "1" * 200_000 + "\n")
        with pytest.raises(ModelError, match="^line 4: expected 3 cells in barriers.csv, got 2$"):
            load_pre_estimated(pre_tables(tmp_path, barriers))
        # a nan on line 4 of a table the C pass reads, marked and CRLF with two blank lines
        # after its last row or not: the same line and cell quoted
        barriers = "origin,dest,cost\nAAA,BBB,1.0\nAAA,CCC,2.0\nAAA,DDD,nan\n"
        marked = codecs.BOM_UTF8 + (barriers + "\n\n").replace("\n", "\r\n").encode()
        for data in (barriers.encode(), marked):
            (pre_tables(tmp_path, "") / "barriers.csv").write_bytes(data)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dataset, "_table", partial(_no_row_reader, dataset._table))
                with pytest.raises(ModelError, match="^line 4: cost in barriers.csv must be a "
                                                     "number, 'inf' or 'blocked', got 'nan'$"):
                    load_pre_estimated(tmp_path)

    @pytest.mark.parametrize("again", ["AAA,BBB,3.0", " AAA , BBB ,1.0"])
    def test_duplicate_pair(self, tmp_path, again):
        barriers = f"origin,dest,cost\nAAA,BBB,1.0\nAAA,CCC,2.0\n{again}\n"
        with pytest.raises(ModelError,
                           match="^duplicate pair 'AAA','BBB' in barriers.csv on lines 2 and 4$"):
            load_pre_estimated(pre_tables(tmp_path, barriers))

    def test_bundled_medians(self, pre_params):
        offdiag = [v for (i, j), v in pre_params.T.items() if i != j and not is_blocked(v)]
        assert statistics.median(offdiag) == pytest.approx(1.0, abs=0.05)
        assert statistics.median(pre_params.Y.values()) == pytest.approx(-1.0, abs=0.05)
        assert statistics.median(pre_params.I.values()) == pytest.approx(1.0, abs=0.05)
        assert min(pre_params.I.values()) == 0.0
        assert max(pre_params.Y.values()) == 0.0


def _no_row_reader(row_reader, path, header):
    """``row_reader`` for a one-code table; a pair table that misses the C pass fails the test."""
    assert header[0] == "code", f"{Path(path).name} missed the C pass"
    return row_reader(path, header)


def pre_tables(d: Path, barriers: str) -> Path:
    """Supply AAA, targets BBB, CCC and DDD, and the given barriers.csv."""
    write(d, "supply.csv", "code,supply\nAAA,10\n")
    write(d, "interception.csv", "code,cost\nBBB,0\nCCC,1\nDDD,2\n")
    write(d, "yield.csv", "code,yield\nBBB,-1\nCCC,0\nDDD,-2\n")
    write(d, "barriers.csv", barriers)
    return d


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_written_tables_load_as_built(seed):
    """Written and loaded again, parameters built from dicts keep their pairs and their solve."""
    p = random_params(np.random.default_rng(seed), blocked_fraction=0.3)
    with tempfile.TemporaryDirectory() as tmp:
        write_pre_estimated(p, tmp)
        q = load_pre_estimated(tmp)
    q.A, q.lam = p.A, p.lam
    barriers = dict(q.T.items())
    assert barriers == dict(p.T.items()) and list(barriers) == sorted(barriers)
    assert build_network(q).cost.tobytes() == build_network(p).cost.tobytes()
    a, b = solve(q), solve(p)
    for name in ("N", "abandoned", "unroutable"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_written_barriers_in_pair_order_with_huge_costs_as_inf(tmp_path):
    """barriers.csv lists the pairs in sorted order, the domestic ones too, and writes a
    cost >= 1e100 as inf, as the loader would fold it."""
    p = params_from_dicts(S={"B": 1.0, "A": 2.0},
                          T={("B", "C"): 1e150, ("A", "C"): 0.5, ("B", "A"): BLOCKED},
                          I={"C": 0.0, "A": 1.0}, Y={"C": -1.0, "A": -1.0})
    write_pre_estimated(p, tmp_path)
    assert (tmp_path / "barriers.csv").read_text().splitlines() == [
        "origin,dest,cost", "A,A,0.0", "A,C,0.5", "B,A,inf", "B,B,0.0", "B,C,inf"]


# pair tables: rows the C pass may take (codes and numbers, padded or not, valid or not),
# with up to three defects that only the row reader reads or reports.  Origins are mostly
# supply codes and destinations mostly targets, so that barriers.csv often loads.
PAD = st.sampled_from(["", "", " ", "\t"])
PAIR_CODES = [st.tuples(PAD, st.sampled_from(codes * 2 + [other]), PAD).map("".join)
              for codes, other in ((["AAA", "BBB"], "ZZZ"), (["BBB", "CCC"], "AAA"))]
PAIR_VALUES = st.tuples(PAD, st.one_of(
    st.floats(min_value=0, allow_infinity=False).map(repr),
    st.from_regex(r"[0-9]{1,20}(\.[0-9]{0,20})?(e-?[0-9]{1,3})?", fullmatch=True),
    st.sampled_from(["inf", "-inf", "nan", "-0", "0", "-3", "1e400", "1e100", "1e-170"])),
    PAD).map("".join)
# the last five are near misses of AAA that no bytes cell may match: one byte longer,
# longer than the C pass's field and so cut to it, a prefix, not ASCII, and with a NUL,
# which a bytes field drops
ODD_CODES = st.sampled_from(['"CCC"', '"A,B"', "", "  ", "A->B", " B->C ", "AAAA",
                             "AAAAAAAAAAAA", "AA", "ÅAA", "AAA\x00"])
ODD_VALUES = st.sampled_from(["blocked", " Blocked ", "1_000", "٣", "#", "", '"7"', '"nan"'])
ODD_ROWS = st.sampled_from(["", "", "   ", ",,", " , , ", "AAA,BBB", "AAA,BBB,1,2",
                            "AAA,CCC,1\x0c2"])


@st.composite
def pair_rows(draw) -> list[str]:
    rows = draw(st.lists(st.tuples(*PAIR_CODES, PAIR_VALUES).map(list), min_size=1, max_size=8))
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2, 3]))):
        k = draw(st.integers(0, len(rows)))
        column = draw(st.integers(0, 3))
        if column == 3 or k == len(rows):
            rows.insert(k, [draw(ODD_ROWS)])
        elif len(rows[k]) == 3:
            rows[k][column] = draw(ODD_VALUES if column == 2 else ODD_CODES)
    return [",".join(row) for row in rows]


PAIR_CODE_AXIS = ["AAA", "BBB", "CCC"]


# each pair-table loader on a file, and what it returns in plain values
def _barriers(path: Path, supply=("AAA", "BBB"), targets=("BBB", "CCC")):
    b = dataset._load_barriers(path, dict(zip(supply, (1.0, 2.0))), set(targets))
    return b.codes, b.cost.tobytes(), b.listed.tobytes()


def _raw_pairs(path: Path, axis=PAIR_CODE_AXIS):
    lines, rows, cols, values, cell = dataset._raw_pairs(path, axis)
    return (list(lines), rows.tobytes(), cols.tobytes(), values.tobytes(),
            [cell(k) for k in range(len(rows))])


def _distances(path: Path, axis=PAIR_CODE_AXIS):
    """The distance of each listed row's pair, queried in both directions."""
    try:
        _, rows, cols, _, _ = dataset._raw_pairs(path, axis)
    except ModelError:  # which _load_distances raises too
        rows = cols = np.array([], dtype=np.intp)
    return dataset._load_distances(path, axis, np.append(rows, cols),
                                   np.append(cols, rows)).tobytes()


PAIR_LOADERS = [("barriers.csv", "cost", _barriers), ("migration.csv", "value", _raw_pairs),
                ("distance_km.csv", "value", _distances)]


def _outcome(load, path: Path):
    """What ``load`` returns for ``path``, or the type and text of the error it raises;
    a warning, which the CLI would print, fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return load(path)
        except ModelError as e:
            return type(e), str(e)


def _refuse(*args, **kwargs):
    raise ValueError("the C pass is off")


@given(header=st.sampled_from(["origin,dest,{}"] * 4 + ['"origin",dest,{}', "origin,dest"]),
       rows=pair_rows(),
       endings=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=12, max_size=12),
       last=st.booleans(), bom=st.booleans(),
       tail=st.lists(st.sampled_from(["", "", " ", "\t", " \x0c"]), max_size=3))
@example(header="origin,dest,{}", rows=[], endings=["\n"] * 12, last=True,
         bom=False, tail=[])
@example(header="origin,dest,{}", rows=[""], endings=["\r\n"] * 12, last=True,
         bom=False, tail=[])
@example(header="origin,dest,{}", rows=["AAA,BBB,1", ",CCC,2"], endings=["\r\n"] * 12, last=True,
         bom=False, tail=[])
@example(header="origin,dest,{}", rows=["AAA,  ,1"], endings=["\n"] * 12, last=True,
         bom=False, tail=[])
@example(header="origin,dest,{}", rows=["A->B,CCC,1"], endings=["\n"] * 12, last=False,
         bom=False, tail=[])
@example(header="origin,dest,{}", rows=['"AAA",BBB,1', "BBB,CCC,2"], endings=["\n"] * 12,
         last=True, bom=False, tail=[])
@example(header="origin,dest,{}", rows=["AAA,BBB,1", "", "AAA,BBB,2"], endings=["\r"] * 12,
         last=True, bom=False, tail=[])
@example(header="origin,dest,{}", rows=["AAA,BBB,1", "BBB,CCC, nan "], endings=["\n"] * 12,
         last=True, bom=False, tail=[])
@example(header="origin,dest,{}", rows=["AAA\x00,BBB,1"], endings=["\n"] * 12, last=True,
         bom=False, tail=[])
@example(header="origin,dest,{}", rows=["AAA,BBBB,1"], endings=["\n"] * 12, last=True,
         bom=False, tail=[])
@example(header="origin,dest,{}", rows=["AA,CCC,1"], endings=["\n"] * 12, last=True,
         bom=False, tail=[])
@example(header="origin,dest,{}", rows=["AAA,BBB,1", "BBB,CCC,2"], endings=["\r\n"] * 12,
         last=True, bom=True, tail=["", ""])
@example(header="origin,dest,{}", rows=["AAA,BBB,1"], endings=["\n"] * 12, last=False,
         bom=False, tail=["", " ", "\t"])
@example(header="origin,dest,{}", rows=["AAA,BBB,1", "", "BBB,CCC,2"], endings=["\n"] * 12,
         last=True, bom=True, tail=[""])
@example(header="origin,dest,{}", rows=["AAA,BBB,1", "", "BBB,CCC,2"], endings=["\n"] * 12,
         last=False, bom=False, tail=[" ", "\t"])
@settings(max_examples=300, deadline=None)
def test_c_pass_reads_as_the_row_reader(header, rows, endings, last, bom, tail):
    """Every pair table loads to the same arrays with the C pass as with only the row reader,
    or fails with the same error type, message and line: with or without a byte-order mark,
    and with blank or whitespace-only lines after the last row or not."""
    lines = ["\ufeff" * bom + header, *rows, *tail]
    ends = [*(endings * 2)[:len(lines) - 1], endings[-1] if last else ""]
    with tempfile.TemporaryDirectory() as tmp:
        for name, value, load in PAIR_LOADERS:
            path = Path(tmp) / name
            with path.open("w", encoding="utf-8", newline="") as f:
                f.write("".join(map("".join, zip([lines[0].format(value), *lines[1:]], ends))))
            _assert_c_pass_agrees(load, path)


def _assert_c_pass_agrees(load, path: Path) -> None:
    fast = _outcome(load, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset.np, "loadtxt", _refuse)
        assert _outcome(load, path) == fast


@pytest.mark.parametrize("known, row", [(["ÅAA", "BBB"], "ÅAA,BBB,1"), ([], "AAA,BBB,1"),
                                        (["AAA\x00", "BBB"], "AAA,BBB,1")],
                         ids=["not-ascii", "empty", "nul"])
def test_c_pass_reads_as_the_row_reader_on_odd_known_codes(tmp_path, known, row):
    """Known codes that no bytes cell can match exactly: each table loads, or fails, as the
    row reader has it.  For barriers.csv the first code is the supply, the rest targets."""
    loaders = [partial(_barriers, supply=known[:1], targets=known[1:]),
               partial(_raw_pairs, axis=known), partial(_distances, axis=known)]
    for (name, value, _), load in zip(PAIR_LOADERS, loaders):
        _assert_c_pass_agrees(load, write(tmp_path, name, f"origin,dest,{value}\n{row}\n"))


@pytest.mark.parametrize("other, tail", [("", []), ("BBB,AAA,blocked\n", [np.inf]),
                                         ("BBB,AAA,#\n", [np.nan]), ('"BBB",AAA,7\n', [7.0])],
                         ids=["c-pass", "blocked", "bad-text", "quoted-code"])
def test_pair_table_reads_each_value_cell_by_one_rule(tmp_path, other, tail):
    """A value cell reads as float() reads it, whatever the table's other cells hold: on the C
    pass, and on the row reader beside a 'blocked' cell (inf), bad text (NaN) or a quoted code."""
    path = write(tmp_path, "barriers.csv",
                 f"origin,dest,cost\nAAA,BBB,-inf\nAAA,CCC,1e200\nBBB,CCC,1000\n{other}")
    values = dataset._pair_table(path, "cost", PAIR_CODE_AXIS)[4]
    np.testing.assert_array_equal(values, [-np.inf, 1e200, 1000.0, *tail])


def test_clean_bundled_pair_tables_take_the_c_pass(monkeypatch, tmp_path):
    """The bundled pair tables, CRLF and clean, are each read by the C pass alone: the row
    reader reads only countries.csv and the three vector tables.  So is a barriers.csv with
    5-character codes, inf costs and no domestic pair, as large synthetic datasets have, and
    the 400 x 200 barriers.csv of bench/synth.py that the synthetic benchmark workload loads."""
    sources, targets = ["S0000", "S0001"], ["T0000", "T0001", "T0002"]
    write(tmp_path, "supply.csv", "code,supply\n" + "".join(f"{c},5.0\n" for c in sources))
    write(tmp_path, "interception.csv", "code,cost\n" + "".join(f"{c},1.5\n" for c in targets))
    write(tmp_path, "yield.csv", "code,yield\n" + "".join(f"{c},-2.0\n" for c in targets))
    write(tmp_path, "barriers.csv", "origin,dest,cost\n" + "".join(
        f"{s},{t},{'inf' if (i + j) % 2 else repr(0.25 * (i + j))}\n"
        for i, s in enumerate(sources) for j, t in enumerate(targets)))
    headers = []
    table = dataset._table
    monkeypatch.setattr(dataset, "_table", lambda path, header: headers.append(header[0])
                        or table(path, header))
    load_bundle(bundled_data_dir())
    load_pre_estimated(bundled_data_dir() / "pre_estimated")
    synthetic = load_pre_estimated(tmp_path)
    assert headers == ["code"] * 7
    assert b"\r\n" in (bundled_data_dir() / "pre_estimated" / "barriers.csv").read_bytes()
    assert dict(synthetic.T.items()) == {
        **{(s, s): 0.0 for s in sources},
        **{(s, t): BLOCKED if (i + j) % 2 else 0.25 * (i + j)
           for i, s in enumerate(sources) for j, t in enumerate(targets)}}
    synth.generate(tmp_path / "synthetic", 1, 400, 200)
    assert load_pre_estimated(tmp_path / "synthetic" / "pre_estimated").T.cost.shape == (600, 600)
    assert headers == ["code"] * 10


@pytest.mark.parametrize("bom, ending, tail", [
    (True, "\n", "\n"), (False, "\r\n", "\r\n"), (False, "\r", "\r"), (False, "\n", ""),
    (False, "\n", "\n\n"), (False, "\n", "\n\n\n\n"), (True, "\r\n", "\r\n" * 3),
    (False, "\r", "\r\r"), (False, "\n", "\n  \n\t\n"), (False, "\n", "\n   "),
    (True, "\r\n", "\r\n \t\r\n\r\n"), (False, "\r", "\r\t\r")],
    ids=["marked", "crlf", "lone-cr", "no-final-newline", "one-blank-line", "three-blank-lines",
         "marked-crlf-two-blank-lines", "lone-cr-one-blank-line", "space-and-tab-lines",
         "spaces-no-final-newline", "marked-crlf-whitespace-lines", "lone-cr-tab-line"])
def test_c_pass_reads_marked_and_blank_ended_tables(monkeypatch, tmp_path, bom, ending, tail):
    """A table with a byte-order mark, any line ending, no final newline or blank lines, or
    lines of spaces and tabs, after its last row is read by the C pass, as the row reader would
    read it: the arrays and the cells of its plain twin, on the lines they are on."""
    rows = ["origin,dest,cost", "AAA,BBB,-inf", "AAA,CCC,1e200", "BBB,CCC,1000"]
    plain = write(tmp_path, "plain.csv", "\n".join(rows) + "\n")
    path = tmp_path / "barriers.csv"
    path.write_bytes(codecs.BOM_UTF8 * bom + (ending.join(rows) + tail).encode())
    monkeypatch.setattr(dataset, "_table", partial(_no_row_reader, dataset._table))
    want, got = (dataset._pair_table(p, "cost", PAIR_CODE_AXIS) for p in (plain, path))
    assert got[0] == want[0] and list(got[1]) == list(want[1]) == [2, 3, 4]
    for a, b in zip(want[2:5], got[2:5]):
        assert a.tobytes() == b.tobytes()
    assert [got[5](k) for k in range(3)] == [want[5](k) for k in range(3)]


def test_row_reader_reads_a_large_table_as_the_c_pass(monkeypatch, tmp_path):
    """A 5,000-row barriers.csv that only the row reader reads, for a 'blocked' cost, a blank
    row and a padded code past its first rows, loads to the arrays and the barriers the C pass
    reads from its clean twin, which has 'inf' there and no blank row or padding."""
    sources = [f"S{i:02d}" for i in range(50)]
    targets = [f"T{j:03d}" for j in range(100)]
    rows = [[s, t, repr(0.25 * ((i * 7 + j) % 41))]
            for i, s in enumerate(sources) for j, t in enumerate(targets)]

    def table(name: str) -> Path:
        return write(tmp_path, name, "".join(f"{','.join(row)}\n"
                                             for row in [["origin", "dest", "cost"], *rows]))
    rows[1][2] = "inf"
    clean = table("clean.csv")
    rows[1][2] = "blocked"
    rows[3000][0] = f" {rows[3000][0]} "
    rows.insert(2000, ["", "", ""])
    dirty = table("dirty.csv")
    read = []
    row_reader = dataset._table
    monkeypatch.setattr(dataset, "_table", lambda path, header: read.append(path.name)
                        or row_reader(path, header))
    codes = [*sources, *targets]
    fast, slow = (dataset._pair_table(path, "cost", codes) for path in (clean, dirty))
    assert read == ["dirty.csv"]
    assert fast[0] == slow[0]
    for a, b in zip(fast[2:5], slow[2:5]):
        assert a.tobytes() == b.tobytes()
    assert np.isinf(slow[4][1]) and slow[5](1) == "blocked" and fast[5](1) == "inf"
    supply = dict.fromkeys(sources, 1.0)
    fast, slow = (dataset._load_barriers(path, supply, set(targets)) for path in (clean, dirty))
    assert fast.codes == slow.codes
    assert fast.cost.tobytes() == slow.cost.tobytes()
    assert fast.listed.tobytes() == slow.listed.tobytes()


def test_c_pass_error_cell_reads_one_line(monkeypatch, tmp_path):
    """The C pass's cell(k) quotes a cell by reading the table up to its line, not the whole
    table: under 1 MB allocated for an early cell of a 200,000-row table."""
    sources = [f"S{i:03d}" for i in range(400)]
    targets = [f"T{j:03d}" for j in range(500)]
    rows = [f"{s},{t},1.5\n" for s in sources for t in targets]
    rows[2] = rows[2].replace("1.5", "nan")
    path = write(tmp_path, "barriers.csv", "".join(["origin,dest,cost\n", *rows]))

    def row_reader(path, header):
        raise AssertionError("the table missed the C pass")
    monkeypatch.setattr(dataset, "_table", row_reader)
    _, lines, _, _, values, cell = dataset._pair_table(path, "cost", [*sources, *targets])
    assert len(values) == 200_000 and lines[2] == 4 and np.isnan(values[2])
    tracemalloc.start()
    try:
        quoted = cell(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert quoted == "nan" and cell(3) == "1.5" and cell(199_999) == "1.5"
    assert peak < 2**20


def test_raw_pairs_load_as_pair_lists(tmp_path):
    """2,000 countries and 2,000 pairs load in less memory than one code x code float matrix
    (30.5 MiB): migration.csv and distance_km.csv stay lists of their pairs, both ways listed
    for a tenth of the distances."""
    n = 2000
    codes = [f"C{k:04d}" for k in range(n)]
    pairs = [(codes[k], codes[(7 * k + 1) % n]) for k in range(n)]
    distance = [f"{o},{d},{100 + k}\n" for k, (o, d) in enumerate(pairs)]
    distance += [f"{d},{o},{100 + k}\n" for k, (o, d) in enumerate(pairs) if k % 10 == 0]
    data = raw_tables(tmp_path, "".join(f"{o},{d},5\n" for o, d in pairs), "".join(distance),
                      dict.fromkeys(codes, (1e6, 0.0)))
    tracemalloc.start()
    try:
        bundle = load_bundle(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
    np.testing.assert_array_equal(bundle.distance, 100 + np.arange(n))


def test_first_bad_code_found_in_one_scan(tmp_path):
    """20,000 distinct bad codes report the first in well under a second: each code cell is
    looked up in the set of bad ones, not searched for one bad code at a time."""
    path = write(tmp_path, "supply.csv",
                 "code,supply\n" + "".join(f"C{k}->X,1\n" for k in range(20_000)))
    start = time.perf_counter()
    with pytest.raises(ModelError, match=r"^line 2: code in supply.csv must be a country "
                                         r"code, not blank or with '->', got 'C0->X'$"):
        dataset._table(path, ["code", "supply"])
    assert time.perf_counter() - start < 1.0


class TestValidation:
    """The loaders hold every raw-table rule; validate runs them."""

    def test_bundled_is_clean(self, bundle):
        codes = set(bundle.countries.codes)
        tables = {}
        for name in ("migration.csv", "distance_km.csv"):
            with (bundled_data_dir() / name).open(newline="", encoding="utf-8") as f:
                tables[name] = list(filter(None, csv.reader(f)))[1:]
            assert {c for row in tables[name] for c in row[:2]} <= codes
        assert bundle.codes == sorted(codes)
        # one entry per migration.csv row
        pairs = (bundle.rows, bundle.cols, bundle.migration, bundle.distance)
        assert [a.shape for a in pairs] == [(len(tables["migration.csv"]),)] * 4

    def test_unknown_code_in_pairs(self, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(bundled_data_dir(), data)
        mig = data / "migration.csv"
        mig.write_text(mig.read_text() + "ZZZ,USA,500\n")
        with pytest.raises(ModelError,
                           match="^migration.csv names 'ZZZ', which is not in countries.csv$"):
            load_bundle(data)

    def test_target_without_security_data(self, tmp_path):
        p = write(tmp_path, "c.csv", HEADER + "\n"
                  "AUS,Australia,Oceania,2.2e7,6.33e11,,0,,,,,1,1\n")
        with pytest.raises(ModelError,
                           match="^line 2: AUS is a target in c.csv but has no sec_fraction$"):
            load_country_table(p)


TABLES = ["countries.csv", "migration.csv", "distance_km.csv", "pre_estimated/supply.csv",
          "pre_estimated/barriers.csv", "pre_estimated/interception.csv",
          "pre_estimated/yield.csv"]


def _bundle_copy_loader(tmp_path: Path, table: str):
    """A copy of the bundled data and the loader that reads ``table`` from it."""
    data = tmp_path / "data"
    shutil.copytree(bundled_data_dir(), data)
    if table.startswith("pre_estimated/"):
        return data, lambda: load_pre_estimated(data / "pre_estimated")
    return data, lambda: load_bundle(data)


@pytest.mark.parametrize("table", TABLES)
def test_every_table_checks_its_header(tmp_path, table):
    data, load = _bundle_copy_loader(tmp_path, table)
    path = data / table
    path.write_text("code,value\n" + path.read_text().split("\n", 1)[1])
    with pytest.raises(ModelError, match=f"^line 1: bad header in {Path(table).name}"):
        load()


@pytest.mark.parametrize("code", ["", "A->B"], ids=["blank", "arrow"])
@pytest.mark.parametrize("table", TABLES)
def test_every_table_checks_its_codes(tmp_path, table, code):
    data, load = _bundle_copy_loader(tmp_path, table)
    path = data / table
    header, first, rest = path.read_text().split("\n", 2)
    path.write_text("\n".join([header, code + first[first.index(","):], rest]))
    with pytest.raises(ModelError, match=f"^line 2: {header.split(',')[0]} in {path.name}"):
        load()


@pytest.mark.parametrize("order", ["repeat-first", "bad-value-first", "both"])
@pytest.mark.parametrize("table", ["countries.csv", "pre_estimated/supply.csv",
                                   "pre_estimated/interception.csv", "pre_estimated/yield.csv"])
def test_repeated_code_and_bad_value_report_the_first_row(tmp_path, table, order):
    """In a one-code table, a repeated code and a bad value on different rows report whichever
    row comes first; a row that is both a repeat and has a bad value reports the repeat."""
    data, load = _bundle_copy_loader(tmp_path, table)
    path = data / table
    lines = path.read_text().splitlines()
    first = lines[1].split(",")
    at = 3 if table == "countries.csv" else 1  # population, or the value column
    bad = [*first[:at], "x", *first[at + 1:]]
    repeat, other = ",".join(first), ",".join(["ZZZ", *bad[1:]])
    rows = {"repeat-first": [repeat, other], "bad-value-first": [other, repeat],
            "both": [",".join(bad)]}[order]
    path.write_text("\n".join([*lines, *rows]) + "\n")
    n = len(lines) + 1  # the line of the first row appended
    expected = (f"^line {n}: " if order == "bad-value-first" else
                f"^duplicate country code {first[0]!r} in {path.name} on lines 2 and {n}$")
    with pytest.raises(ModelError, match=expected):
        load()


def _attributes(value):
    """An object as nested dicts of its attributes, which np.testing.assert_equal compares."""
    if hasattr(value, "__dict__"):
        return {k: _attributes(v) for k, v in vars(value).items()}
    return value


@pytest.mark.parametrize("table", TABLES)
def test_every_table_reads_the_same_with_a_byte_order_mark(tmp_path, table):
    """A table saved with a UTF-8 byte-order mark, as Excel's "CSV UTF-8" saves it, loads as
    the same table without it."""
    data, load = _bundle_copy_loader(tmp_path, table)
    plain = load()
    path = data / table
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    np.testing.assert_equal(_attributes(load()), _attributes(plain))


@pytest.mark.parametrize("table", TABLES)
def test_every_table_must_exist(tmp_path, table):
    data, load = _bundle_copy_loader(tmp_path, table)
    (data / table).unlink()
    with pytest.raises(ModelError, match=f"^table {re.escape(str(data / table))} not found$"):
        load()


def test_bundled_dir_exists():
    d = bundled_data_dir()
    assert (d / "countries.csv").is_file()
    assert (d / "pre_estimated" / "barriers.csv").is_file()
