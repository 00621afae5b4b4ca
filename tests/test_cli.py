from __future__ import annotations

import codecs
import csv
import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tnrisk import cli, dataset, solve
from tnrisk.cli import FLAG_DEFAULTS, MAX_GRID_CELLS, build_parser, main
from tnrisk.dataset import bundled_data_dir

import synth
from conftest import bundle_copy, cell_dict, child_env, fortress


def run(*argv: str) -> int:
    return main(list(argv))


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


class TestValidate:
    def test_bundled_ok(self, tmp_path, capsys):
        assert run("validate", "--out", str(tmp_path)) == 0
        assert (tmp_path / "validation_report.txt").read_text() == ""
        assert "ok" in capsys.readouterr().out

    def test_broken_bundle_exit_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(bundled_data_dir(), data)
        mig = data / "migration.csv"
        mig.write_text(mig.read_text() + "ZZZ,USA,500\n")
        assert run("validate", "--data", str(data), "--out", str(tmp_path / "out")) == 1
        report = (tmp_path / "out" / "validation_report.txt").read_text()
        assert "ZZZ" in report

    def test_incomplete_parameter_tables_exit_1(self, tmp_path, capsys):
        """validate reads pre_estimated/ as solve does: a missing table is not "ok"."""
        data = tmp_path / "data"
        shutil.copytree(bundled_data_dir(), data)
        (data / "pre_estimated" / "yield.csv").unlink()
        assert run("validate", "--data", str(data), "--out", str(tmp_path / "out")) == 1
        missing = data / "pre_estimated" / "yield.csv"
        assert capsys.readouterr().err == f"error: table {missing} not found\n"
        assert run("solve", "--data", str(data), "--out", str(tmp_path / "out")) == 1

    def test_unknown_code_in_parameter_tables_exit_1(self, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(bundled_data_dir(), data)
        for name in ("interception.csv", "yield.csv"):
            path = data / "pre_estimated" / name
            path.write_text(path.read_text() + "ZZZ,0.0\n")
        assert run("validate", "--data", str(data), "--out", str(tmp_path / "out")) == 1
        report = (tmp_path / "out" / "validation_report.txt").read_text()
        assert "pre_estimated:ZZZ" in report


@pytest.mark.parametrize("name, edits", [
    ("countries.csv", [("countries.csv", "AFG,", 6, "-2.81e+07")]),
    ("countries.csv", [("countries.csv", "FRA,", 5, "")]),
    ("countries.csv", [("countries.csv", "AFG,", 3, "0")]),
    ("countries.csv", [("countries.csv", "AFG,", 3, "-5")]),
    ("countries.csv", [("countries.csv", "AUS,", 4, "-6.33e+11")]),
    ("migration.csv", [("migration.csv", None, 0, "ZZZ,USA,500"),
                       ("distance_km.csv", None, 0, "ZZZ,USA,10000")]),
    ("distance_km.csv", [("distance_km.csv", None, 0, "ZZZ,USA,10000")]),
    ("distance_km.csv", [("distance_km.csv", "AFG,AUS,", 2, "0")]),
    ("migration.csv", [("migration.csv", "AFG,AUS,", 2, "-5")]),
    ("migration.csv pair AFG,AUS has no row in distance_km.csv",
     [("distance_km.csv", "AFG,AUS,", 0, None)]),
    ("sec_fraction in countries.csv must be <= 1, got '2'", [("countries.csv", "USA,", 5, "2")]),
], ids=["muslim-pop-negative", "target-without-sec-fraction", "population-zero",
        "population-negative", "gdp-negative", "unknown-code-in-both-pair-tables",
        "unknown-code-in-distances", "zero-distance", "migration-negative",
        "migration-pair-without-distance", "sec-fraction-above-one"])
def test_raw_table_rule_fails_every_command(tmp_path, capsys, name, edits):
    """validate, estimate and solve --mode estimate stop at one loader error naming the file."""
    data = str(bundle_copy(tmp_path, *edits))
    out = tmp_path / "out"
    errors = []
    for command in (["validate"], ["estimate"], ["solve", "--mode", "estimate"]):
        assert run(*command, "--data", data, "--out", str(out)) == 1, command
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("error: ") and name in errors[0]
    assert errors == [errors[0]] * 3
    assert (out / "validation_report.txt").read_text() == errors[0]


# a valid value of each flag the commands share, and the flags each command takes
FLAG_VALUES = {"--data": str(bundled_data_dir()), "--out": "out", "--weights": "high",
               "--q": "0.004", "--mode": "estimate", "--lambda": "0.2", "--abandon": "-20",
               "--format": "json"}
FLAGS_TAKEN = {
    "validate": ["--data", "--out"],
    "estimate": ["--data", "--out", "--weights", "--q"],
    "sweep": ["--data", "--out", "--weights", "--q", "--mode", "--lambda"],
    "solve": ["--data", "--out", "--weights", "--q", "--mode", "--lambda", "--abandon"],
    "scenario": list(FLAG_VALUES),
}


@pytest.mark.parametrize("command, flag", [(c, f) for c, taken in FLAGS_TAKEN.items()
                                           for f in FLAG_VALUES if f not in taken])
def test_flag_the_command_would_ignore_exit_2(tmp_path, capsys, command, flag):
    """A flag a command does not read is a usage error, not a value echoed in the metadata."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as done:
        run(command, flag, FLAG_VALUES[flag], "--out", str(out))
    assert done.value.code == 2
    assert f"unrecognized arguments: {flag} {FLAG_VALUES[flag]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", list(FLAGS_TAKEN))
def test_command_takes_its_flags(command):
    """Each flag in FLAGS_TAKEN parses, so the test above leaves out only flags a command
    does not take; every command still holds a value for all eight."""
    spec = ["homegrown"] if command == "scenario" else []
    flags = [x for f in FLAGS_TAKEN[command] for x in (f, FLAG_VALUES[f])]
    args = vars(build_parser().parse_args([command, *spec, *flags]))
    assert FLAG_DEFAULTS.keys() <= args.keys()


@pytest.mark.parametrize("name", ["countries.csv", "pre_estimated/supply.csv",
                                  "pre_estimated/interception.csv", "pre_estimated/yield.csv"])
def test_duplicate_code_names_file_and_lines(tmp_path, capsys, name):
    data = bundle_copy(tmp_path)
    path = data / name
    lines = path.read_text().splitlines()
    k = next(k for k, ln in enumerate(lines) if ln.startswith("USA,"))
    path.write_text("\n".join([*lines, lines[k]]) + "\n")
    assert run("validate", "--data", str(data), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == (f"error: duplicate country code 'USA' in {path.name} "
                                       f"on lines {k + 1} and {len(lines) + 1}\n")


@pytest.mark.parametrize("name", ["migration.csv", "distance_km.csv",
                                  "pre_estimated/barriers.csv"])
def test_duplicate_pair_names_file_and_lines(tmp_path, capsys, name):
    """A pair listed again, here with another value, fails whichever table it is in."""
    data = bundle_copy(tmp_path)
    path = data / name
    lines = path.read_text().splitlines()
    k = next(k for k, ln in enumerate(lines) if ln.startswith("AFG,AUS,"))
    path.write_text("\n".join([*lines, "AFG,AUS,1"]) + "\n")
    command = ["solve"] if name.startswith("pre_estimated/") else ["solve", "--mode", "estimate"]
    for argv in (["validate"], command):
        assert run(*argv, "--data", str(data), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (f"error: duplicate pair 'AFG','AUS' in {path.name} "
                                           f"on lines {k + 1} and {len(lines) + 1}\n")


@pytest.mark.parametrize("command", [["validate"], ["estimate"], ["solve"],
                                     ["scenario", "homegrown"], ["sweep"]],
                         ids=lambda command: command[0])
def test_missing_data_dir_exit_2(tmp_path, capsys, command):
    """Every command checks --data once, before reading anything: an I/O error."""
    missing, out = tmp_path / "nope", tmp_path / "out"
    assert run(*command, "--data", str(missing), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: data directory {missing} not found\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["solve", "--out", "FILE"], ["validate", "--out", "FILE/x"],
                                     ["scenario", "DIR", "--out", "DIR/out"]],
                         ids=["solve-out-is-a-file", "validate-out-under-a-file",
                              "scenario-spec-is-a-directory"])
def test_io_error_exit_2(tmp_path, command):
    """Any I/O error, not only a missing file, is one error line and exit 2, never a traceback."""
    (tmp_path / "file").write_text("")
    argv = [a.replace("FILE", str(tmp_path / "file")).replace("DIR", str(tmp_path))
            for a in command]
    done = subprocess.run([sys.executable, "-m", "tnrisk.cli", *argv], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tail, reason", [
    (b"\xff", "'utf-8' codec can't decode byte 0xff"),
    (b"ZZZ," + b"1" * 131_073 + b"\n", "field larger than field limit (131072)"),
], ids=["not-utf-8", "cell-over-field-limit"])
def test_unreadable_table_exit_1(tmp_path, capsys, tail, reason):
    """A table the csv module cannot read is bad data naming the file, in validate's report too."""
    data = bundle_copy(tmp_path)
    with (data / "pre_estimated" / "supply.csv").open("ab") as f:
        f.write(tail)
    out = tmp_path / "out"
    assert run("solve", "--data", str(data), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: supply.csv is not a UTF-8 CSV table: ") and reason in err
    assert not out.exists()
    assert run("validate", "--data", str(data), "--out", str(out)) == 1
    assert capsys.readouterr().err == err
    assert (out / "validation_report.txt").read_text() == err


@pytest.mark.parametrize("command", [["solve"], ["scenario", "fortress-USA"], ["sweep"]],
                         ids=["solve", "scenario", "sweep"])
def test_supplies_whose_sum_overflows_exit_1(tmp_path, capsys, command):
    """Supplies of 1.5e308 are each finite, but their sum, which bounds every attack total, is
    inf: each command is one error: line, with nothing written, and validate refuses them too."""
    data = bundle_copy(tmp_path)
    supply = data / "pre_estimated" / "supply.csv"
    codes = [line.split(",")[0] for line in supply.read_text().split()[1:]]
    supply.write_text("code,supply\n" + "".join(f"{c},1.5e308\n" for c in codes))
    out = tmp_path / "out"
    assert run(*command, "--data", str(data), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "sum overflows" in err
    assert not out.exists()
    assert run("validate", "--data", str(data), "--out", str(out)) == 1
    assert capsys.readouterr().err == err
    assert (out / "validation_report.txt").read_text() == err


class TestSolve:
    def test_baseline_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("solve", "--out", str(out)) == 0
        for name in ("attack_matrix.csv", "attack_matrix.json", "abandoned.csv",
                     "target_totals.csv", "plot_data.csv", "run_metadata.json"):
            assert (out / name).is_file(), name
        rows = read_csv(out / "target_totals.csv")
        totals = {r["target"]: float(r["expected_plots"]) for r in rows}
        grand = totals.pop("TOTAL")
        assert grand == pytest.approx(sum(totals.values()))
        assert max(totals, key=totals.get) == "USA"
        assert "top target USA" in capsys.readouterr().out

    def test_summary_names_no_target_when_every_plot_is_abandoned(self, tmp_path, capsys):
        """The summary line names a country only where its number is nonzero."""
        assert run("solve", "--abandon=-1e308", "--out", str(tmp_path / "out")) == 0
        assert capsys.readouterr().out == "solved: 0.0 expected attacks; top target - (0.0)\n"

    def test_matrix_csv_lists_nonzero_cells_sorted(self, tmp_path, pre_params):
        out = tmp_path / "out"
        assert run("solve", "--out", str(out)) == 0
        m = solve(pre_params)
        expected = cell_dict(m)
        rows = read_csv(out / "attack_matrix.csv")
        assert len(expected) < m.N.size  # blocked pairs leave zero cells to omit
        assert [(r["source"], r["target"]) for r in rows] == sorted(expected)
        assert all(float(r["expected_plots"]) == expected[(r["source"], r["target"])]
                   for r in rows)

    def test_unroutable_in_metadata(self, tmp_path, pre_params):
        out = tmp_path / "out"
        assert run("solve", "--out", str(out)) == 0
        assert json.loads((out / "run_metadata.json").read_text())["unroutable"] == {}
        assert run("scenario", "homegrown", "--out", str(out)) == 0
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["base_unroutable"] == {}
        # without abandoning, a source that is not a target has no route left
        assert meta["alt_unroutable"] == {i: pre_params.S[i] for i in pre_params.sources
                                          if i not in pre_params.targets}
        assert meta["alt_unroutable"]

    def test_metadata_echo(self, tmp_path):
        out = tmp_path / "out"
        run("solve", "--out", str(out), "--lambda", "0.2", "--abandon", "-30")
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["config"]["lambda"] == 0.2
        assert meta["config"]["abandon"] == -30.0
        assert meta["params"]["lambda"] == 0.2

    def test_determinism(self, tmp_path):
        """Every file of solve and scenario, in both formats, is the same run to run."""
        for k, (argv, some) in enumerate([
            (["solve"], {"attack_matrix.csv", "attack_matrix.json", "plot_data.csv"}),
            (["scenario", "fortress-USA"], {"base_attack_matrix.csv", "alt_attack_matrix.csv",
                                            "delta.csv", "ranked_gainers.csv"}),
            (["scenario", "homegrown", "--format", "json"],
             {"base_attack_matrix.json", "alt_attack_matrix.json", "delta.csv"}),
        ]):
            a, b = tmp_path / f"{k}a", tmp_path / f"{k}b"
            assert run(*argv, "--out", str(a)) == 0
            assert run(*argv, "--out", str(b)) == 0
            names = sorted(f.name for f in a.iterdir())
            assert names == sorted(f.name for f in b.iterdir())
            assert some <= set(names), argv
            for name in names:
                assert (a / name).read_bytes() == (b / name).read_bytes(), (argv, name)

    def test_estimate_mode_close_to_pre(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("solve", "--out", str(a), "--mode", "pre")
        run("solve", "--out", str(b), "--mode", "estimate")
        ta = {r["target"]: float(r["expected_plots"]) for r in read_csv(a / "target_totals.csv")}
        tb = {r["target"]: float(r["expected_plots"]) for r in read_csv(b / "target_totals.csv")}
        assert ta["TOTAL"] == pytest.approx(tb["TOTAL"], rel=0.05)
        assert max(ta, key=lambda t: ta[t] if t != "TOTAL" else -1) == \
            max(tb, key=lambda t: tb[t] if t != "TOTAL" else -1)

    def test_estimate_mode_reads_only_raw_tables(self, tmp_path):
        """A bad parameter table stops pre mode but not estimate mode, which never reads it."""
        clean, data = tmp_path / "clean", tmp_path / "data"
        shutil.copytree(bundled_data_dir(), data)
        barriers = data / "pre_estimated" / "barriers.csv"
        barriers.write_text(barriers.read_text() + "AFG,USA,nan\n")
        assert run("solve", "--data", str(data), "--out", str(tmp_path / "pre")) == 1
        assert run("solve", "--mode", "estimate", "--out", str(clean)) == 0
        out = tmp_path / "out"
        assert run("solve", "--mode", "estimate", "--data", str(data), "--out", str(out)) == 0
        for name in ("attack_matrix.csv", "attack_matrix.json", "target_totals.csv"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name

    @pytest.mark.parametrize("flag", ["--q=0.004", "--weights=high"])
    @pytest.mark.parametrize("command", [["solve"], ["scenario", "homegrown"], ["sweep"]],
                             ids=["solve", "scenario", "sweep"])
    def test_estimation_flag_in_pre_mode_exit_2(self, tmp_path, capsys, command, flag):
        """--q and --weights set the estimated supply; pre mode would ignore them."""
        out = tmp_path / "out"
        assert run(*command, flag, "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag.split('=')[0]} applies only")
        assert not out.exists()
        assert run(*command, "--mode", "estimate", flag, "--out", str(out)) == 0

    def test_q_scales_estimated_supply(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("solve", "--mode", "estimate", "--out", str(a)) == 0
        assert run("solve", "--mode", "estimate", "--q", "0.004", "--out", str(b)) == 0
        ta, tb = ({r["target"]: float(r["expected_plots"])
                   for r in read_csv(d / "target_totals.csv")} for d in (a, b))
        assert tb == {t: pytest.approx(2 * v, rel=1e-12) for t, v in ta.items()}
        assert json.loads((b / "run_metadata.json").read_text())["params"]["q"] == 0.004

    @pytest.mark.parametrize("q", ["-1", "0", "nan", "inf"])
    def test_bad_q_exit_2(self, tmp_path, capsys, q):
        out = str(tmp_path / "out")
        assert run("solve", "--mode", "estimate", "--out", out, f"--q={q}") == 2
        assert capsys.readouterr().err.startswith("error: --q ")
        assert not (tmp_path / "out").exists()

    def test_blank_code_exit_1(self, tmp_path, capsys):
        """A blank code is an error naming the file and line, not a country named ''."""
        data = tmp_path / "data"
        shutil.copytree(bundled_data_dir(), data)
        supply = data / "pre_estimated" / "supply.csv"
        line = [ln.split(",")[0] for ln in supply.read_text().splitlines()].index("IDN") + 1
        for path in (supply, data / "pre_estimated" / "barriers.csv"):
            path.write_text(path.read_text().replace("IDN,", ","))
        assert run("solve", "--data", str(data), "--out", str(tmp_path / "out")) == 1
        assert f"line {line}: code in supply.csv must be a country code" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_weights_exit_2(self, tmp_path, capsys):
        assert run("solve", "--out", str(tmp_path), "--weights", "0.5,0.25") == 2

    @pytest.mark.parametrize("weights", ["0.5,0.25", "0.5,0.25,0.1", "r,s,o", "medium"])
    def test_bad_weights_in_estimate_mode_exit_2(self, tmp_path, capsys, weights):
        out = tmp_path / "out"
        assert run("solve", "--mode", "estimate", "--weights", weights, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "--weights" in err
        assert not out.exists()

    @pytest.mark.parametrize("abandon", ["nan", "-inf"])
    def test_non_finite_abandon_exit_2(self, tmp_path, capsys, abandon):
        assert run("solve", "--out", str(tmp_path), f"--abandon={abandon}") == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv, code", [(["--abandon", "-1e3"], 2), (["--abandon=-1e3"], 0)],
                             ids=["space", "equals"])
    def test_negative_exponent_needs_the_equals_form(self, tmp_path, capsys, argv, code):
        """argparse reads "-1e3" after a space as a flag, not a negative number (only "-30" or
        "-.5" look like one to it), so only "--abandon=-1e3" passes it as the value."""
        out = tmp_path / "out"
        try:
            done = run("solve", *argv, "--out", str(out))
        except SystemExit as e:
            done = e.code
        assert done == code
        if code:
            assert "--abandon: expected one argument" in capsys.readouterr().err
            assert not out.exists()
        else:
            meta = json.loads((out / "run_metadata.json").read_text())
            assert meta["config"]["abandon"] == -1000.0

    @pytest.mark.parametrize("lam", ["-1", "nan", "inf"])
    def test_bad_lambda_exit_2(self, tmp_path, capsys, lam):
        assert run("solve", "--out", str(tmp_path), "--lambda", lam) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_nan_in_pre_estimated_table_exit_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(bundled_data_dir(), data)
        path = data / "pre_estimated" / "yield.csv"
        lines = path.read_text().splitlines()
        k = next(k for k, ln in enumerate(lines) if ln.startswith("AUS,"))
        lines[k] = "AUS,nan"
        path.write_text("\n".join(lines) + "\n")
        assert run("solve", "--data", str(data), "--out", str(tmp_path / "out")) == 1
        assert f"line {k + 1}:" in capsys.readouterr().err

    @pytest.mark.parametrize("name, row, cell, value", [
        ("countries.csv", "IDN,", 6, "nan"),
        ("migration.csv", "AFG,AUS,", 2, "nan"),
        ("distance_km.csv", "AFG,AUS,", 2, "inf"),
    ], ids=["muslim-pop-nan", "migration-nan", "distance-inf"])
    def test_non_finite_in_raw_table_exit_1(self, tmp_path, capsys, name, row, cell, value):
        data = tmp_path / "data"
        shutil.copytree(bundled_data_dir(), data)
        path = data / name
        lines = path.read_text().splitlines()
        k = next(k for k, ln in enumerate(lines) if ln.startswith(row))
        cells = lines[k].split(",")
        cells[cell] = value
        lines[k] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "out")
        assert run("solve", "--mode", "estimate", "--data", str(data), "--out", out) == 1
        assert f"line {k + 1}:" in capsys.readouterr().err
        assert run("validate", "--data", str(data), "--out", out) == 1


def bundled_targets() -> list[str]:
    """The codes of the bundled countries.csv's is_target rows, in file order."""
    with (bundled_data_dir() / "countries.csv").open(newline="", encoding="utf-8") as f:
        return [row["code"] for row in csv.DictReader(f) if row["is_target"] == "1"]


class TestEstimate:
    def test_writes_tables(self, tmp_path):
        out = tmp_path / "out"
        assert run("estimate", "--out", str(out)) == 0
        for name in ("supply.csv", "barriers.csv", "interception.csv",
                     "yield.csv", "run_metadata.json"):
            assert (out / name).is_file(), name

    def test_weights_and_q_in_default_mode(self, tmp_path):
        """The estimate command always estimates, so it takes --q and --weights without --mode."""
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("estimate", "--out", str(a)) == 0
        assert run("estimate", "--weights", "low", "--q", "0.004", "--out", str(b)) == 0
        meta = json.loads((b / "run_metadata.json").read_text())
        assert (meta["params"]["q"], meta["params"]["weights_preset"]) == (0.004, "low_commitment")
        assert (a / "supply.csv").read_text() != (b / "supply.csv").read_text()
        assert (a / "barriers.csv").read_bytes() == (b / "barriers.csv").read_bytes()

    def test_explicit_weights_triple(self, tmp_path):
        """--weights r,s,o estimates what the preset with those weights does."""
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("estimate", "--weights", "high", "--out", str(a)) == 0
        assert run("estimate", "--weights", "0.1,0.2,1.0", "--out", str(b)) == 0
        assert (a / "supply.csv").read_bytes() == (b / "supply.csv").read_bytes()
        meta = json.loads((b / "run_metadata.json").read_text())
        assert meta["config"]["weights"] == "0.1,0.2,1.0"

    def test_huge_gdp_is_a_non_positive_yield(self, tmp_path, capsys):
        """A GDP of 1e150 is normalised like any other: estimate writes a yield <= 0, and
        solve on the written tables prints what solve --mode estimate prints."""
        data = bundle_copy(tmp_path, ("countries.csv", "USA,", 4, "1e150"))
        assert run("estimate", "--data", str(data), "--out", str(data / "pre_estimated")) == 0
        yields = {r["code"]: float(r["yield"]) for r in read_csv(data / "pre_estimated/yield.csv")}
        assert yields["USA"] <= 0
        capsys.readouterr()
        for mode in ("estimate", "pre"):
            assert run("solve", "--mode", mode, "--data", str(data),
                       "--out", str(tmp_path / mode)) == 0
        estimated, pre = capsys.readouterr().out.splitlines()
        assert pre == estimated

    def test_single_target_exit_1(self, tmp_path, capsys):
        """With one is_target row, interception has no spread to normalise: exit 1, nothing
        written."""
        data = bundle_copy(tmp_path, *[("countries.csv", f"{code},", 12, "0")
                                       for code in bundled_targets()[1:]])
        assert run("estimate", "--data", str(data), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == ("error: need at least two target countries "
                                           "with security data\n")
        assert not (tmp_path / "out").exists()

    def test_overflowing_normalisation_exit_1(self, tmp_path, capsys):
        """Security shares whose median is one subnormal above the least normalise past the
        largest float: an error, not an interception cost of inf that solve could not read
        back.  Of the bundle's 30 targets, 14 spend 0 and 2 spend 5e-324: the median."""
        targets = bundled_targets()
        assert len(targets) == 30
        data = str(bundle_copy(tmp_path, *[("countries.csv", f"{code},", 5,
                                            "0" if k < 14 else "5e-324")
                                           for k, code in enumerate(targets[:16])]))
        for command in (["estimate"], ["solve", "--mode", "estimate"]):
            assert run(*command, "--data", data, "--out", str(tmp_path / "out")) == 1
            assert "min-median normalization overflows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["estimate"], ["solve", "--mode", "estimate"]],
                             ids=["estimate", "solve"])
    def test_overflowing_supply_exit_1(self, tmp_path, capsys, command):
        """q * muslim_pop past the largest float is an error naming the first such country, with
        nothing written: not an inf supply.csv solve cannot read, nor a matrix of NaN."""
        assert run(*command, "--q", "1e300", "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == ("error: estimated supply of 'IDN' overflows: "
                                           "1e+300 * 202900000.0 * support = inf\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [[], ["--weights", "low"]])
    def test_metadata_echoes_estimate_mode(self, tmp_path, flags):
        """The command always estimates, whatever --mode says."""
        assert run("estimate", *flags, "--out", str(tmp_path)) == 0
        meta = json.loads((tmp_path / "run_metadata.json").read_text())
        assert meta["config"]["mode"] == "estimate"


class TestScenario:
    def test_fortress_builtin(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("scenario", "fortress-USA", "--out", str(out)) == 0
        gainers = read_csv(out / "ranked_gainers.csv")
        assert gainers[0]["target"] == "JPN"
        alt = read_csv(out / "alt_attack_matrix.csv")
        for r in alt:
            if r["target"] == "USA":
                assert r["source"] == "USA"

    def test_homegrown_builtin(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("scenario", "homegrown", "--out", str(out)) == 0
        alt = read_csv(out / "alt_attack_matrix.csv")
        assert all(r["source"] == r["target"] for r in alt)
        # no target gains: the largest change, 0.0, is shared by twelve, and names none
        assert capsys.readouterr().out == "scenario homegrown: largest per-target change - (+0.0)\n"

    def test_json_spec(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "close-france",
            "barrier_overrides": [["*", "FRA", "inf"]],
        }))
        out = tmp_path / "out"
        assert run("scenario", str(spec), "--out", str(out)) == 0
        alt = read_csv(out / "alt_attack_matrix.csv")
        for r in alt:
            if r["target"] == "FRA":
                assert r["source"] == "FRA"

    def test_spec_with_a_byte_order_mark(self, tmp_path):
        """A spec saved with a UTF-8 byte-order mark, as Windows editors save it, writes the
        files the same spec writes without one."""
        doc = json.dumps({"name": "fortress-USA", "barrier_overrides": [["*", "USA", "inf"]]})
        outs = []
        for name, head in (("plain", b""), ("marked", codecs.BOM_UTF8)):
            spec = tmp_path / name / "spec.json"
            spec.parent.mkdir()
            spec.write_bytes(head + doc.encode())
            outs.append(tmp_path / name / "out")
            assert run("scenario", str(spec), "--out", str(outs[-1])) == 0
        names = sorted(f.name for f in outs[0].iterdir())
        assert names == sorted(f.name for f in outs[1].iterdir())
        assert all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names)

    def test_matrix_json_echoes_each_sides_params(self, tmp_path):
        """Each matrix JSON echoes the parameters its side was solved with: the alt side's
        overrides, the base side's and the run report's flags."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"lambda_override": 0.2, "a_override": -20}))
        out = tmp_path / "out"
        assert run("scenario", str(spec), "--format", "json", "--out", str(out)) == 0
        alt, base, report = (json.loads((out / name).read_text())["params"] for name in
                             ("alt_attack_matrix.json", "base_attack_matrix.json",
                              "run_metadata.json"))
        assert (alt["lambda"], alt["abandon_yield"]) == (0.2, -20.0)
        assert (base["lambda"], base["abandon_yield"]) == (0.1, "inf")
        assert report == base
        assert run("solve", "--out", str(out)) == 0
        matrix = json.loads((out / "attack_matrix.json").read_text())["params"]
        assert matrix == json.loads((out / "run_metadata.json").read_text())["params"]
        assert run("solve", "--mode", "estimate", "--weights", "low", "--q", "0.004",
                   "--out", str(out)) == 0
        matrix = json.loads((out / "attack_matrix.json").read_text())["params"]
        assert (matrix["q"], matrix["weights_preset"]) == (0.004, "low_commitment")

    def test_delta_csv_lists_changed_cells(self, tmp_path, pre_params):
        out = tmp_path / "out"
        assert run("scenario", "fortress-USA", "--out", str(out)) == 0
        base = cell_dict(solve(pre_params))
        alt = cell_dict(solve(fortress(pre_params, "USA")))
        expected = {k: alt.get(k, 0.0) - base.get(k, 0.0) for k in sorted(base.keys() | alt.keys())
                    if alt.get(k, 0.0) != base.get(k, 0.0)}
        rows = read_csv(out / "delta.csv")
        assert [(r["source"], r["target"]) for r in rows] == list(expected)
        assert all(float(r["delta"]) == expected[(r["source"], r["target"])] for r in rows)

    def test_summary_names_no_target_when_nothing_changes(self, tmp_path, capsys):
        """The bundle already blocks PSE -> JPN: blocking it again changes no cell, and the
        summary line, which names a country only where its number is nonzero, names none."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"barrier_overrides": [["PSE", "JPN", "inf"]]}))
        out = tmp_path / "out"
        assert run("scenario", str(spec), "--out", str(out)) == 0
        assert capsys.readouterr().out == "scenario unnamed: largest per-target change - (+0.0)\n"
        assert read_csv(out / "delta.csv") == []

    @pytest.mark.parametrize("doc", [
        {"a_override": "nan"},
        {"a_override": "-inf"},
        {"barrier_overrides": [["*", "USA", "nan"]]},
        {"barrier_overrides": [["*", "USA", "-inf"]]},
        {"barrier_overrides": [["*", "USA", -5]]},
        {"yield_overrides": {"USA": "nan"}},
        {"yield_overrides": {"USA": 0.5}},
        {"interception_overrides": {"USA": -5}},
        {"interception_overrides": {"USA": "inf"}},
        {"lambda_override": "nan"},
        {"lambda_override": -0.1},
    ], ids=["abandon-nan", "abandon-minus-inf", "barrier-nan", "barrier-minus-inf",
            "barrier-negative", "yield-nan", "yield-positive", "interception-negative",
            "interception-inf", "lambda-nan", "lambda-negative"])
    def test_non_finite_override_exit_1(self, tmp_path, capsys, doc):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert run("scenario", str(spec), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text, key", [
        ('{"barrier_override": [["*", "USA", "inf"]]}', "barrier_override"),
        ("[1, 2]", None),
        ('{"name": "cut", "barrier_overrides": [["*", "US', None),
        ('{"interception_overrides": [["USA", 1]]}', "interception_overrides"),
        ('{"barrier_overrides": null}', "barrier_overrides"),
        ('{"barrier_overrides": [["*", "USA"]]}', "barrier_overrides"),
        ('{"name": 7}', "name"),
        ('{"lambda_override": true}', "lambda_override"),
        ('{"yield_overrides": {"USA": false}}', "USA"),
    ], ids=["misspelled-key", "not-an-object", "truncated", "interception-list", "barriers-null",
            "barrier-pair", "name-number", "lambda-true", "yield-false"])
    def test_bad_spec_file_exit_1(self, tmp_path, capsys, text, key):
        """A file that is not a spec is an error naming it, before any table is read."""
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        assert run("scenario", str(spec), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}: ")
        assert key is None or repr(key) in err or f" {key} " in err
        assert not (tmp_path / "out").exists()

    def test_unknown_code_exit_1(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"barrier_overrides": [["*", "ZZZ", "inf"]]}))
        assert run("scenario", str(spec), "--out", str(tmp_path / "out")) == 1

    @pytest.mark.parametrize("doc, key", [
        ({"barrier_overrides": [["*", "ZZZ", "inf"]]}, "barrier_overrides"),
        ({"interception_overrides": {"ZZZ": 1.0}}, "interception_overrides"),
        ({"yield_overrides": {"USA": -1.0, "ZZZ": -1.0}}, "yield_overrides"),
    ], ids=["barrier", "interception", "yield"])
    def test_unknown_code_names_spec_and_field(self, tmp_path, capsys, doc, key):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert run("scenario", str(spec), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}: ") and key in err and "'ZZZ'" in err

    def test_missing_spec_exit_2(self, tmp_path):
        assert run("scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)) == 2


class TestSweep:
    def test_bundled_threshold(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("sweep", "--out", str(out),
                   "--a-min", "-60", "--a-max", "10", "--step", "2") == 0
        meta = json.loads((out / "run_metadata.json").read_text())
        assert -54.0 < meta["threshold"] < -6.8
        rows = read_csv(out / "sweep.csv")
        totals = [float(r["total_attacks"]) for r in rows]
        assert totals == sorted(totals)
        assert "USA" in rows[0]  # per-target columns present

    def test_bad_grid_exit_2(self, tmp_path):
        assert run("sweep", "--out", str(tmp_path), "--a-min", "5", "--a-max", "-5") == 2

    @pytest.mark.parametrize("bound", ["--a-max=inf", "--a-min=-inf", "--step=inf",
                                       "--a-max=nan",
                                       "--a-min=-1e308 --a-max=1e308 --step=1e307"])
    def test_non_finite_grid_exit_2(self, tmp_path, bound):
        """Rejected before the grid is built; run in a child with a time and memory limit,
        since building an unbounded grid never ends.  The last grid has 21 points, but its
        span, a_max - a_min, overflows to inf, from which no point count can be taken."""
        done = sweep_in_child(tmp_path, *bound.split())
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: need finite")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid", [("--a-min=1e17", "--a-max=2e17", "--step=1"),
                                      ("--step=1e-12",), ("--step=1e-320",),
                                      ("--a-min=0", f"--a-max={MAX_GRID_CELLS // 26}",
                                       "--step=1")],
                             ids=["step-below-spacing", "tiny-step", "subnormal-step",
                                  "one-point-over"])
    def test_grid_over_point_limit_exit_2(self, tmp_path, grid):
        """The point count comes from the bounds: where a + step == a, or the step is tiny,
        the grid is refused before it is built.  The limit is on points x targets cells:
        at the bundle's 26 targets, 0 to MAX_GRID_CELLS // 26 by 1 is one point over."""
        done = sweep_in_child(tmp_path, *grid)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: a grid from") and "points" in done.stderr
        assert not (tmp_path / "out").exists()

    def test_grid_with_no_targets_exit_2(self, tmp_path):
        """With no country in both interception.csv and yield.csv, the grid still counts as
        one column: a tiny step is refused, not built."""
        data = tmp_path / "data"
        shutil.copytree(bundled_data_dir(), data)
        (data / "pre_estimated" / "yield.csv").write_text("code,yield\n")
        done = sweep_in_child(tmp_path, "--step=1e-12", "--data", str(data))
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: a grid from") and "0 targets" in done.stderr

    def test_grid_points_that_round_together_exit_2(self, tmp_path, capsys):
        """Each point is rounded to 9 decimals, so a step below that repeats points: a usage
        error, with nothing written, not a sweep.csv whose A column holds three values."""
        out = tmp_path / "out"
        assert run("sweep", "--out", str(out), "--a-min=-1e-10", "--a-max=1e-10",
                   "--step=1e-11") == 2
        assert capsys.readouterr().err == ("error: sweep grid must be strictly ascending, "
                                           "got -0.0 then -0.0\n")
        assert not out.exists()

    def test_grid_from_point_count(self, tmp_path):
        """The points are a_min + k step up to a_max, none past it."""
        for k, (a_min, a_max, step, a) in enumerate([
                ("0", "1", "0.1", [round(n * 0.1, 9) for n in range(11)]),
                ("0", "1e-9", "2e-9", [0.0])]):
            out = tmp_path / str(k)
            assert run("sweep", "--out", str(out), "--a-min", a_min, "--a-max", a_max,
                       "--step", step) == 0
            assert [float(r["A"]) for r in read_csv(out / "sweep.csv")] == a


def test_cli_import_loads_no_estimation():
    """Only the commands that estimate load the estimators."""
    probe = ("import sys, tnrisk.cli; "
             "print(*(m in sys.modules for m in ('tnrisk.estimation', 'logging')))")
    done = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "False False\n"), done.stderr


def test_estimate_mode_loads_only_the_estimators(tmp_path):
    """After an estimate-mode command, the only module a pre-mode solve has not loaded is
    tnrisk.estimation: the median leaves numpy.ma unloaded, and a run that logs nothing
    leaves logging unloaded."""
    probe = ("import sys, tnrisk.cli; tnrisk.cli.main(sys.argv[1:]); "
             "print(*sorted(sys.modules), file=sys.stderr)")

    def modules(*argv: str) -> set[str]:
        done = subprocess.run([sys.executable, "-c", probe, *argv, "--out",
                               str(tmp_path / "-".join(argv))], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return set(done.stderr.split())

    solved = modules("solve")
    for argv in (["solve", "--mode", "estimate"], ["estimate"]):
        assert modules(*argv) - solved == {"tnrisk.estimation"}, argv


def test_only_a_large_table_loads_orjson(large_data, tmp_path):
    """orjson loads where write_cells formats a table of at least 4 * BLOCK_CELLS cells:
    large_data's 150 x 120 matrix, at lambda 2 too, where only 8 % of its values are in
    1e-4 <= abs(v) < 1e16, but not for the bundle's smaller tables, nor for loading
    large_data's tables, so it adds nothing to their start-up."""
    def loaded(code: str, *argv: str) -> bool:
        probe = f"import sys, tnrisk.cli; {code}; print('orjson' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe, *argv], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()[-1] == "True"

    def command(*argv: str) -> bool:
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        return loaded("tnrisk.cli.main(sys.argv[1:])", *argv, "--out", str(out))

    for argv in (["solve"], ["scenario", "fortress-USA"], ["sweep"]):
        assert not command(*argv), argv
    assert not loaded("tnrisk.load_pre_estimated(sys.argv[1])", str(large_data / "pre_estimated"))
    large = ["solve", "--data", str(large_data), "--abandon", "-30"]
    assert command(*large)
    assert command(*large, "--lambda", "2")


def sweep_in_child(tmp_path: Path, *grid: str) -> subprocess.CompletedProcess:
    """``tnrisk sweep`` in a child with a 20 s timeout and a 1 GiB address-space limit."""
    limit = None
    if sys.platform != "win32":
        import resource

        def limit():  # a runaway grid fails on memory rather than filling the host's
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    try:
        return subprocess.run([sys.executable, "-m", "tnrisk.cli", "sweep", *grid,
                               "--out", str(tmp_path / "out")], env=child_env(),
                              preexec_fn=limit, capture_output=True, text=True, timeout=20)
    except subprocess.TimeoutExpired:
        pytest.fail(f"sweep {' '.join(grid)} still running after 20 s")


def test_console_script_installed(tmp_path):
    """The declared ``tnrisk`` console script resolves to ``cli.run`` and runs it.

    It runs the wrapper pip generates for the entry point, so no install is
    needed; where a ``tnrisk`` distribution is installed, the script must
    also be on PATH.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert scripts.get("tnrisk") == "tnrisk.cli:run"

    entry = importlib.metadata.EntryPoint(
        name="tnrisk", value=scripts["tnrisk"], group="console_scripts")
    assert entry.load() is cli.run

    # The body of the console-script wrapper pip writes for this entry point.
    wrapper = f"import sys; from {entry.module} import {entry.attr}; sys.exit({entry.attr}())"

    def script(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", wrapper, *argv], env=child_env(),
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)

    ok = script("validate", "--out", str(tmp_path / "out"))
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.startswith("ok: bundle at ")
    usage = script()
    assert usage.returncode == 2
    assert usage.stderr.startswith("usage: tnrisk")
    bad = script("estimate", "--q", "1e300", "--out", str(tmp_path / "estimated"))
    assert bad.returncode == 1
    assert bad.stderr.startswith("error: ") and bad.stderr.count("\n") == 1, bad.stderr

    try:
        importlib.metadata.distribution("tnrisk")
    except importlib.metadata.PackageNotFoundError:
        return
    assert shutil.which("tnrisk") is not None


@pytest.mark.parametrize("command, code", [
    (["validate"], 0),
    (["estimate", "--q", "1e300"], 1),
    (["solve", "--data", "FILE"], 2),
], ids=["success", "model-error", "io-error"])
def test_run_exits_with_mains_code_after_flushing(tmp_path, monkeypatch, command, code):
    """``run`` ends at ``os._exit`` with ``main``'s code, the summary line already written out."""
    (tmp_path / "file").write_text("")
    argv = [a.replace("FILE", str(tmp_path / "file")) for a in command]
    out = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out, encoding="utf-8"))
    exits = []
    monkeypatch.setattr(os, "_exit", lambda c: exits.append((c, out.getvalue())))
    cli.run([*argv, "--out", str(tmp_path / "out")])
    printed = f"ok: bundle at {bundled_data_dir()} is valid\n" if code == 0 else ""
    assert exits == [(code, printed.encode())]


def test_run_lets_a_crash_propagate(tmp_path, monkeypatch):
    """An exception no command expects keeps its traceback: it never reaches ``os._exit``."""
    def crash(args):
        raise RuntimeError("unexpected")
    monkeypatch.setattr(cli, "cmd_validate", crash)
    monkeypatch.setattr(os, "_exit", lambda c: pytest.fail(f"os._exit({c}) after a crash"))
    with pytest.raises(RuntimeError, match="unexpected"):
        cli.run(["validate", "--out", str(tmp_path / "out")])


@pytest.fixture(scope="module")
def large_data(tmp_path_factory) -> Path:
    """bench/synth.py's pre-estimated tables, whose 150 x 120 matrix crosses write_cells'
    orjson threshold."""
    assert 150 * 120 >= 4 * dataset.BLOCK_CELLS
    directory = tmp_path_factory.mktemp("large")
    synth.generate(directory, 1, 150, 120)
    return directory


def test_solve_across_cpu_dispatch_within_4_ulp(tmp_path):
    """README "Outputs": with numpy's AVX-512 kernels switched off, bundle solve lists the same
    cells in every CSV, each value within 4 ulp.  Where the CPU has no AVX-512, or numpy does
    not know a name, the variable changes nothing."""
    outs = []
    for name, env in [("native", {}),
                      ("no-avx512", {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"})]:
        outs.append(tmp_path / name)
        done = subprocess.run([sys.executable, "-m", "tnrisk.cli", "solve", "--abandon", "-20",
                               "--out", str(outs[-1])], env={**child_env(), **env},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    names = sorted(path.name for path in outs[0].glob("*.csv"))
    assert names == sorted(path.name for path in outs[1].glob("*.csv"))
    assert len(names) == 4
    for name in names:
        native, other = ((outs[k] / name).read_text(encoding="utf-8").splitlines() for k in (0, 1))
        assert len(native) == len(other), name
        for a, b in zip(native, other):
            assert a.count(",") == b.count(","), name
            for x, y in zip(a.split(","), b.split(",")):
                try:
                    x, y = float(x), float(y)
                except ValueError:  # a code or a header cell
                    assert x == y, (name, a, b)
                else:
                    assert abs(x - y) <= 4 * np.spacing(max(abs(x), abs(y))), (name, a, b)


@pytest.mark.parametrize("unbuffered, code, err", [
    (False, 120, "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' "
                 "encoding='utf-8'>\nBrokenPipeError: [Errno 32] Broken pipe\n"),
    (True, 2, "error: [Errno 32] Broken pipe\n"),
], ids=["buffered", "unbuffered"])
@pytest.mark.skipif(sys.platform == "win32", reason="needs a POSIX pipe with no reader")
def test_closed_stdout(tmp_path, unbuffered, code, err):
    """A stdout pipe with no reader ends as a normal exit reports it, never in a traceback:
    buffered, the flush fails after main; unbuffered, the summary line's print fails in main."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "tnrisk.cli", "validate",
                               "--out", str(tmp_path / "out")], env=env, stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (code, err)


def test_estimation_warning_reaches_stderr(tmp_path):
    """The warning for a source with no route abroad is on stderr though ``run`` skips atexit."""
    dests = [ln.split(",")[1] for ln in (bundled_data_dir() / "migration.csv").read_text()
             .splitlines() if ln.startswith("AFG,")]
    assert dests
    data = bundle_copy(tmp_path, *[("migration.csv", f"AFG,{d},", 2, "0") for d in dests])
    done = subprocess.run([sys.executable, "-m", "tnrisk.cli", "solve", "--mode", "estimate",
                           "--data", str(data), "--out", str(tmp_path / "out")],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == "source AFG has no traversable outbound barrier\n"
    assert done.stdout.startswith("solved: ")
