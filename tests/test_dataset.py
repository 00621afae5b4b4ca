from __future__ import annotations

import csv
import math
import shutil
import statistics
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tnrisk import (
    BLOCKED,
    bundled_data_dir,
    is_blocked,
    load_bundle,
    load_country_table,
    load_pre_estimated,
    solve,
)
from tnrisk import dataset
from tnrisk.dataset import COUNTRY_HEADER
from tnrisk.errors import (
    AsymmetricDistance,
    CodeMismatch,
    DuplicateCode,
    DuplicatePair,
    MalformedRow,
    MissingFile,
    ModelError,
    NegativeValue,
)
from tnrisk.estimation import write_params_csv
from tnrisk.scenario import build_network

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
        with pytest.raises(DuplicateCode):
            load_country_table(p)

    def test_survey_fractions_exceed_one(self, tmp_path):
        p = write(tmp_path, "c.csv", HEADER + "\n"
                  "XXA,Nowhere,Europe,1e6,,,1e5,0.5,0.4,0.2,0.1,0,0\n")
        with pytest.raises(MalformedRow):
            load_country_table(p)

    def test_missing_cells_are_missing(self, tmp_path):
        p = write(tmp_path, "c.csv", HEADER + "\n"
                  "XXA,Nowhere,Europe,1e6,,,1e5,,,,,0,0\n")
        t = load_country_table(p)
        assert np.isnan(t.gdp[0]) and np.isnan(t.sec_fraction[0]) and np.isnan(t.sigma[0]).any()

    def test_non_numeric_required(self, tmp_path):
        p = write(tmp_path, "c.csv", HEADER + "\n"
                  "XXA,Nowhere,Europe,lots,,,1e5,,,,,0,0\n")
        with pytest.raises(MalformedRow):
            load_country_table(p)

    @pytest.mark.parametrize("cells", [
        "-5,,,1e5,,,,", "0,,,1e5,,,,", "1e6,-1,,1e5,,,,", "1e6,,-0.1,1e5,,,,",
        "1e6,,,-1e5,,,,", "1e6,,,1e5,0.5,-0.1,0.1,0.1", "1e6,,2,1e5,,,,",
    ], ids=["population-negative", "population-zero", "gdp-negative", "sec-fraction-negative",
            "muslim-pop-negative", "sigma-negative", "sec-fraction-above-one"])
    def test_sign_rules(self, tmp_path, cells):
        p = write(tmp_path, "c.csv", HEADER + f"\nXXA,Nowhere,Europe,{cells},0,0\n")
        with pytest.raises(MalformedRow, match="line 2: .* in c.csv must be"):
            load_country_table(p)

    @pytest.mark.parametrize("flags, name", [("maybe,0", "is_oecd"), ("0,maybe", "is_target")])
    def test_bad_flag(self, tmp_path, flags, name):
        """Both flags are checked, though the table holds only is_target."""
        p = write(tmp_path, "c.csv", HEADER + f"\nXXA,Nowhere,Europe,1e6,,0.01,0,,,,,{flags}\n")
        with pytest.raises(MalformedRow, match=f"line 2: bad flag {name}: 'maybe'"):
            load_country_table(p)

    def test_target_without_gdp_is_not_a_target(self, tmp_path):
        """It loads, and has no yield, so the estimators leave it out of the targets."""
        p = write(tmp_path, "c.csv", HEADER + "\n"
                  "ISL,Iceland,Europe,3e5,,0.01,0,,,,,1,1\n")
        t = load_country_table(p)
        assert t.is_target[0] and np.isnan(t.gdp[0]) and t.sec_fraction[0] == 0.01

    def test_bad_header(self, tmp_path):
        p = write(tmp_path, "c.csv", "code,name\nUSA,United States\n")
        with pytest.raises(MalformedRow):
            load_country_table(p)


def pair_cell(bundle, table: str, origin: str, dest: str) -> float:
    """The (origin, dest) cell of the bundle's migration or distance matrix."""
    at = {c: k for k, c in enumerate(bundle.codes)}
    return float(getattr(bundle, table)[at[origin], at[dest]])


class TestPairTable:
    """The rules of migration.csv and distance_km.csv, as load_bundle reads them."""

    def test_distance_mirrors(self, tmp_path):
        b = load_bundle(raw_tables(tmp_path, "FRA,DEU,3\n", "FRA,DEU,500\n"))
        assert pair_cell(b, "distance", "DEU", "FRA") == 500
        assert pair_cell(b, "distance", "FRA", "FRA") == 0.0
        assert math.isnan(pair_cell(b, "distance", "FRA", "ITA"))

    def test_self_distance_zero_accepted(self, tmp_path):
        b = load_bundle(raw_tables(tmp_path, "", "USA,USA,0\nFRA,FRA,7\n"))
        assert pair_cell(b, "distance", "USA", "USA") == 0.0
        assert pair_cell(b, "distance", "FRA", "FRA") == 0.0

    def test_zero_distance_between_countries(self, tmp_path):
        d = raw_tables(tmp_path, "", "FRA,DEU,500\nFRA,ITA,0\n")
        with pytest.raises(MalformedRow,
                           match="line 3: distance FRA,ITA in distance_km.csv must be > 0"):
            load_bundle(d)

    @pytest.mark.parametrize("km, rule", [
        pytest.param(km, "about 1.6e-162 or more, so that its square is not 0", id=km)
        for km in ("1e-170", "1e-200")] + [("1e200", "< 1e154")])
    def test_distance_whose_square_is_not_finite_and_positive(self, tmp_path, km, rule):
        """A distance whose square underflows to 0 or overflows is rejected, not blocked, with
        the rule it breaks."""
        d = raw_tables(tmp_path, "FRA,DEU,3\n", f"FRA,FRA,1e200\nFRA,DEU,{km}\n")
        with pytest.raises(MalformedRow, match=f"line 3: distance FRA,DEU in distance_km.csv "
                                               f"must be {rule}, got '{km}'"):
            load_bundle(d)

    def test_asymmetric_distance(self, tmp_path):
        d = raw_tables(tmp_path, "", "FRA,DEU,500\nFRA,ITA,900\nDEU,FRA,600\n")
        with pytest.raises(AsymmetricDistance, match="DEU-FRA"):
            load_bundle(d)

    def test_both_directions_within_tolerance(self, tmp_path):
        """Both directions may be listed if they agree to 1e-6; the later row holds both ways."""
        b = load_bundle(raw_tables(tmp_path, "", "FRA,DEU,500\nDEU,FRA,500.0001\n"))
        assert pair_cell(b, "distance", "FRA", "DEU") == 500.0001
        assert pair_cell(b, "distance", "DEU", "FRA") == 500.0001

    def test_negative_value(self, tmp_path):
        d = raw_tables(tmp_path, "FRA,DEU,-3\n", "FRA,DEU,500\n")
        with pytest.raises(NegativeValue, match="line 2: FRA,DEU in migration.csv = -3.0"):
            load_bundle(d)

    def test_wrong_cell_count(self, tmp_path):
        d = raw_tables(tmp_path, "FRA,DEU,3\nFRA,ITA\n", "FRA,DEU,500\n")
        with pytest.raises(MalformedRow, match="line 3: expected 3 cells in migration.csv, got 2"):
            load_bundle(d)

    def test_migration_missing_pair_distinct_from_zero(self, tmp_path):
        b = load_bundle(raw_tables(tmp_path, "FRA,DEU,0\n", "FRA,DEU,500\n"))
        assert pair_cell(b, "migration", "FRA", "DEU") == 0.0
        assert math.isnan(pair_cell(b, "migration", "DEU", "FRA"))

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
        with pytest.raises(DuplicatePair, match=f"'FRA','DEU' in {table} on lines 2 and 4"):
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
        with pytest.raises(MalformedRow, match=f"line 3: .*{name}") as err:
            load_pre_estimated(d)
        assert err.value.line == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_pre_estimated(tmp_path)

    def test_code_mismatch(self, tmp_path):
        d = tmp_path
        write(d, "supply.csv", "code,supply\nAAA,10\n")
        write(d, "interception.csv", "code,cost\nBBB,0\nCCC,1\n")
        write(d, "yield.csv", "code,yield\nBBB,-1\nCCC,0\n")
        write(d, "barriers.csv", "origin,dest,cost\nZZZ,BBB,1.0\n")
        with pytest.raises(CodeMismatch):
            load_pre_estimated(d)

    def test_unknown_destination(self, tmp_path):
        barriers = "origin,dest,cost\nAAA,BBB,1.0\nAAA,ZZZ,1.0\n"
        with pytest.raises(CodeMismatch, match="destination 'ZZZ'"):
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
        with pytest.raises(MalformedRow, match="line 5: cost in barriers.csv") as err:
            load_pre_estimated(pre_tables(tmp_path, barriers))
        assert err.value.line == 5

    def test_blocked_word_among_numbers(self, tmp_path):
        p = load_pre_estimated(pre_tables(tmp_path, "origin,dest,cost\nAAA,BBB, Blocked \n"
                                                     "AAA,CCC,1_000\n"))
        assert barrier(p, "AAA", "BBB") == BLOCKED and barrier(p, "AAA", "CCC") == 1000.0

    def test_first_failing_row_reported(self, tmp_path):
        """Of several bad rows the earliest is reported, whichever check it fails."""
        barriers = "origin,dest,cost\nAAA,BBB,1.0\nAAA,CCC,-2\nZZZ,BBB,nan\n"
        with pytest.raises(NegativeValue, match="line 3: barrier AAA,CCC = -2.0"):
            load_pre_estimated(pre_tables(tmp_path, barriers))
        barriers = "origin,dest,cost\nAAA,BBB,1.0\nZZZ,CCC,-2\nAAA,BBB,nan\n"
        with pytest.raises(CodeMismatch, match="origin 'ZZZ'"):
            load_pre_estimated(pre_tables(tmp_path, barriers))

    @pytest.mark.parametrize("again", ["AAA,BBB,3.0", " AAA , BBB ,1.0"])
    def test_duplicate_pair(self, tmp_path, again):
        barriers = f"origin,dest,cost\nAAA,BBB,1.0\nAAA,CCC,2.0\n{again}\n"
        with pytest.raises(DuplicatePair,
                           match="'AAA','BBB' in barriers.csv on lines 2 and 4") as err:
            load_pre_estimated(pre_tables(tmp_path, barriers))
        assert err.value.pair == ("AAA", "BBB") and err.value.lines == (2, 4)

    def test_bundled_medians(self, pre_params):
        offdiag = [v for (i, j), v in pre_params.T.items() if i != j and not is_blocked(v)]
        assert statistics.median(offdiag) == pytest.approx(1.0, abs=0.05)
        assert statistics.median(pre_params.Y.values()) == pytest.approx(-1.0, abs=0.05)
        assert statistics.median(pre_params.I.values()) == pytest.approx(1.0, abs=0.05)
        assert min(pre_params.I.values()) == 0.0
        assert max(pre_params.Y.values()) == 0.0


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
        write_params_csv(p, tmp)
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
    write_params_csv(p, tmp_path)
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
ODD_CODES = st.sampled_from(['"CCC"', '"A,B"', "", "  ", "A->B", " B->C "])
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
def _barriers(path: Path):
    b = dataset._load_barriers(path, {"AAA": 1.0, "BBB": 2.0}, {"BBB", "CCC"})
    return b.codes, b.cost.tobytes(), b.listed.tobytes()


def _raw_pairs(path: Path):
    lines, rows, cols, values, cell = dataset._raw_pairs(path, PAIR_CODE_AXIS)
    return (list(lines), rows.tobytes(), cols.tobytes(), values.tobytes(),
            [cell(k) for k in range(len(rows))])


def _distances(path: Path):
    return dataset._load_distances(path, PAIR_CODE_AXIS).tobytes()


PAIR_LOADERS = [("barriers.csv", "cost", _barriers), ("migration.csv", "value", _raw_pairs),
                ("distance_km.csv", "value", _distances)]


def _outcome(load, path: Path):
    """What ``load`` returns for ``path``, or the type, text and line of the error it raises;
    a warning, which the CLI would print, fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return load(path)
        except ModelError as e:
            return type(e), str(e), getattr(e, "line", None)


def _refuse(*args, **kwargs):
    raise ValueError("the C pass is off")


@given(header=st.sampled_from(["origin,dest,{}"] * 4 + ['"origin",dest,{}', "origin,dest"]),
       rows=pair_rows(),
       endings=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=12, max_size=12),
       last=st.booleans())
@example(header="origin,dest,{}", rows=[], endings=["\n"] * 12, last=True)
@example(header="origin,dest,{}", rows=[""], endings=["\r\n"] * 12, last=True)
@example(header="origin,dest,{}", rows=["AAA,BBB,1", ",CCC,2"], endings=["\r\n"] * 12, last=True)
@example(header="origin,dest,{}", rows=["AAA,  ,1"], endings=["\n"] * 12, last=True)
@example(header="origin,dest,{}", rows=["A->B,CCC,1"], endings=["\n"] * 12, last=False)
@example(header="origin,dest,{}", rows=['"AAA",BBB,1', "BBB,CCC,2"], endings=["\n"] * 12,
         last=True)
@example(header="origin,dest,{}", rows=["AAA,BBB,1", "", "AAA,BBB,2"], endings=["\r"] * 12,
         last=True)
@example(header="origin,dest,{}", rows=["AAA,BBB,1", "BBB,CCC, nan "], endings=["\n"] * 12,
         last=True)
@settings(max_examples=300, deadline=None)
def test_c_pass_reads_as_the_row_reader(header, rows, endings, last):
    """Every pair table loads to the same arrays with the C pass as with only the row reader,
    or fails with the same error type, message and line."""
    ends = [*endings[:len(rows)], endings[-1] if last else ""]
    with tempfile.TemporaryDirectory() as tmp:
        for name, value, load in PAIR_LOADERS:
            path = Path(tmp) / name
            with path.open("w", encoding="utf-8", newline="") as f:
                f.write("".join(map("".join, zip([header.format(value), *rows], ends))))
            fast = _outcome(load, path)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dataset.np, "loadtxt", _refuse)
                assert _outcome(load, path) == fast


def test_clean_bundled_pair_tables_take_the_c_pass(monkeypatch):
    """The bundled pair tables, CRLF and clean, are each read by the C pass alone: the row
    reader reads only countries.csv and the three vector tables."""
    headers = []
    table = dataset._table
    monkeypatch.setattr(dataset, "_table", lambda path, header: headers.append(header[0])
                        or table(path, header))
    load_bundle(bundled_data_dir())
    load_pre_estimated(bundled_data_dir() / "pre_estimated")
    assert headers == ["code"] * 4
    assert b"\r\n" in (bundled_data_dir() / "pre_estimated" / "barriers.csv").read_bytes()


class TestValidation:
    """The loaders hold every raw-table rule; validate runs them."""

    def test_bundled_is_clean(self, bundle):
        codes = set(bundle.countries.codes)
        for name in ("migration.csv", "distance_km.csv"):
            with (bundled_data_dir() / name).open(newline="", encoding="utf-8") as f:
                assert {c for row in list(csv.reader(f))[1:] for c in row[:2]} <= codes
        assert bundle.codes == sorted(codes)
        assert bundle.migration.shape == bundle.distance.shape == (len(codes), len(codes))

    def test_unknown_code_in_pairs(self, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(bundled_data_dir(), data)
        mig = data / "migration.csv"
        mig.write_text(mig.read_text() + "ZZZ,USA,500\n")
        with pytest.raises(CodeMismatch, match="migration.csv names 'ZZZ'"):
            load_bundle(data)

    def test_target_without_security_data(self, tmp_path):
        p = write(tmp_path, "c.csv", HEADER + "\n"
                  "AUS,Australia,Oceania,2.2e7,6.33e11,,0,,,,,1,1\n")
        with pytest.raises(MalformedRow, match="line 2: AUS is a target in c.csv") as err:
            load_country_table(p)
        assert err.value.line == 2


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
    with pytest.raises(MalformedRow, match=f"line 1: bad header in {Path(table).name}") as err:
        load()
    assert err.value.line == 1


@pytest.mark.parametrize("code", ["", "A->B"], ids=["blank", "arrow"])
@pytest.mark.parametrize("table", TABLES)
def test_every_table_checks_its_codes(tmp_path, table, code):
    data, load = _bundle_copy_loader(tmp_path, table)
    path = data / table
    header, first, rest = path.read_text().split("\n", 2)
    path.write_text("\n".join([header, code + first[first.index(","):], rest]))
    with pytest.raises(MalformedRow, match=f"line 2: {header.split(',')[0]} in {path.name}"):
        load()


@pytest.mark.parametrize("table", TABLES)
def test_every_table_must_exist(tmp_path, table):
    data, load = _bundle_copy_loader(tmp_path, table)
    (data / table).unlink()
    with pytest.raises(MissingFile, match=Path(table).name):
        load()


def test_bundled_dir_exists():
    d = bundled_data_dir()
    assert (d / "countries.csv").is_file()
    assert (d / "pre_estimated" / "barriers.csv").is_file()
