"""Compare what two tnrisk source trees write, byte for byte, over a fixed command list.

Usage (from anywhere):

    python tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the ``tnrisk`` package (a
checkout's ``src``).  Each command runs as ``python -m tnrisk.cli`` once with
each tree on ``PYTHONPATH``, both reading one copy of the data: NEW_SRC's
bundled dataset, copies of it with one edit each, spec files beside them, and
a ``bench/synth.py`` dataset (seed 1, 400 x 200) with copies of it edited in the
same way.  The tables below list the commands and edits, each with the path it
takes; ``main`` adds, each with its comment, a spec and a supply.csv that start
with a byte-order mark, a supply.csv that is not UTF-8, a migration.csv that
gives AFG no route abroad, I/O errors, the synthetic runs, a synthetic copy
whose barriers.csv has a byte-order mark, CRLF line ends and trailing blank lines,
a synthetic copy whose supplies are 1e15 times as large, some of whose values are
1e16 or more, the synthetic runs at ``--lambda 2``, most of whose values are below
1e-4, and a seeded raw dataset (:func:`write_raw_dataset`, 300 sources and 300 targets)
run in estimate mode.
For every command the script prints "identical" or "DIFFERENT" for the exit
code, standard output, standard error and each file written.  Beside a
differing CSV whose rows, columns and non-numeric cells match, it prints the
largest relative difference of the numeric cells.
``run_metadata.json`` is compared with its ``config.data`` path left out.
Exits 1 if anything differs, else 0.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import synth  # noqa: E402

SYNTH_SHAPE = (1, 400, 200)  # seed, sources, targets
RAW_SHAPE = (1, 300, 300, 40)  # seed, sources, targets, migration pairs per source

# run on the bundle itself
BUNDLE_COMMANDS = [
    ["solve"],
    ["solve", "--mode", "estimate"],
    ["solve", "--mode", "estimate", "--weights", "high", "--q", "0.004"],
    ["solve", "--abandon", "-20"],
    # a lambda whose scaled cost gaps overflow: each weight is exp(-inf), the least-cost limit
    ["solve", "--lambda", "1e308"],
    # an abandon yield far below every route cost: every plot is abandoned, none attacks
    ["solve", "--abandon=-1e308"],
    ["scenario", "fortress-USA"],
    ["scenario", "fortress-USA", "--format", "json"],
    ["scenario", "homegrown"],
    ["scenario", "homegrown", "--format", "json"],
    ["sweep", "--step", "0.25"],
    ["estimate"],
    ["estimate", "--weights", "low"],
    ["validate"],
    # a flag the command does not take: a usage error
    ["solve", "--format", "json"],
    ["sweep", "--abandon", "-20"],
    ["estimate", "--lambda", "5"],
    ["validate", "--q", "0.004"],
    # weights that are neither a preset nor three numbers: a usage error
    ["solve", "--mode", "estimate", "--weights", "r,s,o"],
    # an estimated supply that overflows: a domain error
    ["solve", "--mode", "estimate", "--q", "1e300"],
    ["estimate", "--q", "1e300"],
    # grid points that are equal once rounded to 9 decimals: a usage error
    ["sweep", "--a-min=-1e-10", "--a-max=1e-10", "--step=1e-11"],
    # a 21-point grid whose span, a_max - a_min, overflows to inf: a usage error
    ["sweep", "--a-min=-1e308", "--a-max=1e308", "--step=1e307"],
]

# spec files written into the work directory, run on the bundle as `scenario SPEC`
SPECS = {"fortress-USA.json": {"name": "fortress-USA", "barrier_overrides": [["*", "USA", "inf"]]},
         # an error path: a code the parameters do not have
         "unknown-code.json": {"barrier_overrides": [["*", "ZZZ", "inf"]]},
         # an error path: a barrier below 0
         "negative-barrier.json": {"barrier_overrides": [["*", "USA", -5]]},
         # a pair the bundle already blocks: no cell changes
         "already-blocked.json": {"barrier_overrides": [["PSE", "JPN", "inf"]]},
         # an override of every other kind: the alt matrix JSON echoes its lambda and A
         "overrides.json": {"lambda_override": 0.2, "a_override": -20,
                            "interception_overrides": {"USA": 3},
                            "yield_overrides": {"USA": -10}}}

# bundle copies, each with one edit to a raw table: (table, row prefix, cell, value); an
# edit with no row prefix appends its value as a new row, and one with no value deletes the row
BUNDLE_EDITS = {
    # edits that break a rule
    "negative-muslim-pop": ("countries.csv", "AFG,", 6, "-2.81e+07"),
    "reverse-distance-differs": ("distance_km.csv", None, 0, "AUS,AFG,9999"),
    "zero-distance": ("distance_km.csv", "AFG,AUS,", 2, "0"),
    "unknown-migration-code": ("migration.csv", None, 0, "ZZZ,USA,500"),
    "migration-without-distance": ("distance_km.csv", "AFG,AUS,", 0, None),
    "negative-migration": ("migration.csv", "AFG,AUS,", 2, "-5"),
    "overflowing-security": ("countries.csv", "USA,", 5, "1e307"),  # a sec_fraction above 1
    # a code or a pair listed twice
    "repeated-country": ("countries.csv", None, 0,
                         "AFG,Afghanistan,SouthAsia,2.8e+07,,,2.81e+07,,,,,0,0"),
    "repeated-migration-pair": ("migration.csv", None, 0, "AFG,AUS,157604050015"),
    # valid, but imputation cannot fill CHN: no EastAsia peer is surveyed
    "lonely-unsurveyed-source": ("countries.csv", "CHN,", 8, ""),
    # valid edits: a blocked pair, a yield far below the others, the least security at -0,
    # and a source whose survey fractions are imputed from its 13 regional peers
    "zero-migration": ("migration.csv", "AFG,AUS,", 2, "0"),
    # a pair with no migration row: 568 observed pairs, where the bundle has 569, so the
    # barriers' median is the mean of a middle pair
    "migration-row-deleted": ("migration.csv", "AFG,AUS,", 0, None),
    "huge-gdp": ("countries.csv", "USA,", 4, "1e150"),
    "negative-zero-security": ("countries.csv", "AUS,", 5, "-0"),
    "unsurveyed-source": ("countries.csv", "TUN,", 8, ""),
    # a number float() reads but np.loadtxt does not: migration.csv goes through the row reader
    "underscored-migration": ("migration.csv", "AFG,AUS,", 2, "1_000"),
    # raw barriers that overflow to inf, blocked as any raw barrier >= 1e100 is
    "tiny-migration": ("migration.csv", "AFG,AUS,", 2, "1e-305"),
    "huge-population": ("countries.csv", "AFG,", 3, "1e200"),
    # a code that is not ASCII, so no bytes cell of the C pass matches it: the row reader fails
    "non-ascii-migration-origin": ("migration.csv", "AFG,AUS,", 0, "ÅFG"),
    # AFG,AUS,1977 listed the other way within 1e-6: the later row holds both ways
    "reverse-distance-within-tolerance": ("distance_km.csv", None, 0, "AUS,AFG,1977.0001"),
    # a domestic migration row with no distance row: it loads, at distance 0
    "domestic-migration-row": ("migration.csv", None, 0, "AFG,AFG,5"),
}
EDITED_BUNDLE_COMMANDS = [["validate"], ["estimate"], ["solve", "--mode", "estimate"]]

# bundle copies with one edit to a pre-estimated table, as in BUNDLE_EDITS
PRE_ESTIMATED_EDITS = {
    # a domestic row loads as 0.0 whatever cost it gives
    "domestic-cost-5": ("pre_estimated/barriers.csv", "FRA,FRA,", 2, "5"),
    # a supply code's domestic pair with no row costs 0.0
    "domestic-row-deleted": ("pre_estimated/barriers.csv", "USA,USA,", 0, None),
    # valid cells that only the row reader reads
    "blocked-cost": ("pre_estimated/barriers.csv", "AFG,AUS,", 2, "blocked"),
    "quoted-origin": ("pre_estimated/barriers.csv", "AFG,AUS,", 0, '"AFG"'),
    "padded-origin": ("pre_estimated/barriers.csv", "AFG,AUS,", 0, " AFG"),
    # each fails
    "nan-cost": ("pre_estimated/barriers.csv", "AFG,AUT,", 2, "nan"),
    "negative-cost": ("pre_estimated/barriers.csv", "AFG,AUT,", 2, "-1"),
    "repeated-pair": ("pre_estimated/barriers.csv", None, 0, "AFG,AUS,0.5"),
    # an origin AFG with a NUL after it, which a bytes cell drops
    "nul-origin": ("pre_estimated/barriers.csv", "AFG,AUS,", 0, "AFG\x00"),
    # an origin longer than any code
    "long-origin": ("pre_estimated/barriers.csv", "AFG,AUS,", 0, "AFGX"),
    # a supply code listed twice
    "repeated-supply-code": ("pre_estimated/supply.csv", None, 0, "AFG,10168.3"),
    # a supply code countries.csv does not list: validate fails, solve does not
    "unknown-supply-code": ("pre_estimated/supply.csv", None, 0, "ZZZ,5"),
}
PRE_ESTIMATED_COMMANDS = [["solve"], ["scenario", "homegrown"], ["validate"]]

# copies of the synthetic dataset with one edit to its barriers.csv, as in BUNDLE_EDITS
# without the table, and the labels of the synthetic commands run on each
SYNTH_EDITS = {
    # a 'blocked' cost: all 80,001 rows of barriers.csv take the row reader
    "synthetic-blocked": (("S0000,T0000,", 2, "blocked"), ["solve", "scenario spec.json"]),
    # a nan cost on line 4: an error quoting the cell the C pass read
    "synthetic-nan-cost": (("S0000,T0002,", 2, "nan"), ["solve"]),
}

# bundle copies whose supply.csv gives every code one value: (value, commands)
SUPPLY_COPIES = {
    # every supply 0: a sweep with no threshold, which writes its files and exits 1
    "no-supply": ("0", [["sweep"]]),
    # each supply finite, their sum inf: each command is an error before it writes anything
    "huge-supply": ("1.5e308", [["solve"], ["scenario", "fortress-USA"], ["sweep"], ["validate"]]),
}


def write_raw_dataset(directory: Path, seed: int, n_sources: int, n_targets: int,
                      per_source: int) -> None:
    """Write countries.csv, migration.csv and distance_km.csv, every float by repr.

    Each source has survey fractions and migrates to ``per_source`` random targets, a
    twentieth of them with zero migration; each target has GDP and security data.  Each
    migration pair has a distance row, a tenth of them listed the other way too, within
    1e-7, and the distance rows are shuffled, so either direction's row may come later.
    """
    rng = np.random.default_rng(seed)
    sources = [f"S{k:04d}" for k in range(n_sources)]
    targets = [f"T{k:04d}" for k in range(n_targets)]
    population = rng.uniform(1e6, 1e8, n_sources + n_targets).tolist()
    muslim = (rng.uniform(0.01, 0.9, n_sources) * population[:n_sources]).tolist()
    survey = rng.dirichlet(np.ones(4), n_sources).tolist()  # sigma_n, _r, _s, _o
    gdp = rng.uniform(1e10, 1e13, n_targets).tolist()
    security = rng.uniform(0.001, 0.05, n_targets).tolist()
    countries = ["code,name,region,population,gdp_usd,sec_fraction,muslim_pop,sigma_n,sigma_r,"
                 "sigma_s,sigma_o,is_oecd,is_target"]
    countries += [f"{c},{c},R{k % 5},{population[k]!r},,,{muslim[k]!r},"
                  f"{','.join(map(repr, survey[k]))},0,0" for k, c in enumerate(sources)]
    countries += [f"{c},{c},R{k % 5},{population[n_sources + k]!r},{gdp[k]!r},"
                  f"{security[k]!r},0,,,,,1,1" for k, c in enumerate(targets)]
    pairs = [(s, targets[j]) for s in sources
             for j in rng.choice(n_targets, per_source, replace=False).tolist()]
    flows = rng.uniform(1.0, 1e6, len(pairs)) * (rng.random(len(pairs)) >= 0.05)
    km = rng.uniform(500.0, 15000.0, len(pairs))
    mirror = np.flatnonzero(rng.random(len(pairs)) < 0.1).tolist()
    twins = km[mirror] * (1 + rng.uniform(-1e-7, 1e-7, len(mirror)))
    distance = [*zip(pairs, km.tolist()),
                *(((pairs[k][1], pairs[k][0]), v) for k, v in zip(mirror, twins.tolist()))]
    distance = [distance[k] for k in rng.permutation(len(distance)).tolist()]
    directory.mkdir(parents=True)
    (directory / "countries.csv").write_text("\n".join(countries) + "\n", encoding="utf-8")
    for name, rows in (("migration.csv", zip(pairs, flows.tolist())),
                       ("distance_km.csv", distance)):
        lines = ["origin,dest,value", *(f"{o},{d},{v!r}" for (o, d), v in rows)]
        (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def edit_table(path: Path, row: str | None, cell: int, value: str | None) -> None:
    """Set cell ``cell`` of the line starting with ``row`` to ``value``, the table read and
    written as UTF-8; with no row prefix, append ``value`` as a new line, and with no value,
    delete the line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if row is None:
        lines.append(value)
    else:
        k = next(k for k, line in enumerate(lines) if line.startswith(row))
        if value is None:
            del lines[k]
        else:
            cells = lines[k].split(",")
            cells[cell] = value
            lines[k] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _run(src: Path, argv: list[str], cwd: Path) -> dict[str, bytes]:
    """Everything one command leaves behind, keyed by name.

    Unless ``argv`` gives its own ``--out``, it writes to ``out`` under ``cwd``, so
    both trees print the same path.
    """
    cwd.mkdir(parents=True)
    out = cwd / "out"
    env = dict(os.environ, PYTHONPATH=str(src))
    if "--out" not in argv:
        argv = [*argv, "--out", "out"]
    done = subprocess.run([sys.executable, "-m", "tnrisk.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, timeout=600)
    found = {"exit code": str(done.returncode).encode(), "stdout": done.stdout,
             "stderr": done.stderr}
    for path in sorted(out.rglob("*")) if out.is_dir() else []:
        data = path.read_bytes()
        if path.name == "run_metadata.json":
            doc = json.loads(data)
            doc.get("config", {}).pop("data", None)
            data = json.dumps(doc, sort_keys=True).encode()
        found[str(path.relative_to(out))] = data
    return found


def _relative_difference(old: bytes, new: bytes) -> float | None:
    """The largest relative difference of two CSVs' numeric cells; None unless they have the
    same rows and columns and every other cell is the same."""
    tables = [list(csv.reader(io.StringIO(data.decode("utf-8")))) for data in (old, new)]
    if [len(row) for row in tables[0]] != [len(row) for row in tables[1]]:
        return None
    worst = 0.0
    for a, b in zip(*([cell for row in table for cell in row] for table in tables)):
        if a == b:
            continue
        try:
            x, y = float(a), float(b)
        except ValueError:
            return None
        if x != y:  # -0.0 against 0.0 is no difference
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x - y)
                        else math.inf)
    return worst


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("\n\n".join(__doc__.strip().split("\n\n")[1:3]), file=sys.stderr)
        return 2
    old_src, new_src = (Path(a).resolve() for a in argv)
    for src in (old_src, new_src):
        if not (src / "tnrisk" / "cli.py").is_file():
            print(f"error: no tnrisk package under {src}", file=sys.stderr)
            return 2
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        bundle = work / "bundle"
        shutil.copytree(new_src / "tnrisk" / "data" / "bundled", bundle)
        synthetic = work / "synthetic"
        spec = synth.generate(synthetic, *SYNTH_SHAPE)
        for name, doc in SPECS.items():
            (work / name).write_text(json.dumps(doc), encoding="utf-8")
        # a spec saved with a UTF-8 byte-order mark, as Windows editors save it
        marked = work / "marked-fortress-USA.json"
        marked.write_bytes(codecs.BOM_UTF8 + (work / "fortress-USA.json").read_bytes())
        commands = [(" ".join(c), [*c, "--data", str(bundle)]) for c in BUNDLE_COMMANDS]
        commands += [(f"scenario {name}", ["scenario", str(work / name), "--data", str(bundle)])
                     for name in [*SPECS, marked.name]]
        # the overrides spec with both sides' matrix JSON, whose params each side echoes
        commands.append(("scenario overrides.json --format json",
                         ["scenario", str(work / "overrides.json"), "--format", "json",
                          "--data", str(bundle)]))
        for edits, edited_commands in ((BUNDLE_EDITS, EDITED_BUNDLE_COMMANDS),
                                       (PRE_ESTIMATED_EDITS, PRE_ESTIMATED_COMMANDS)):
            for name, (table, *edit) in edits.items():
                copy = work / name
                shutil.copytree(bundle, copy)
                edit_table(copy / table, *edit)
                commands += [(f"{name} {' '.join(c)}", [*c, "--data", str(copy)])
                             for c in edited_commands]
        # every migration from AFG 0: estimating warns on stderr that AFG has no route abroad
        copy = work / "afg-no-route-abroad"
        shutil.copytree(bundle, copy)
        migration = copy / "migration.csv"
        for line in migration.read_text(encoding="utf-8").splitlines():
            if line.startswith("AFG,"):
                edit_table(migration, line, 2, "0")
        commands += [(f"{copy.name} {' '.join(c)}", [*c, "--data", str(copy)])
                     for c in EDITED_BUNDLE_COMMANDS]
        # a supply.csv ending in a byte that is not UTF-8, an error naming the table, and one
        # starting with a UTF-8 byte-order mark, as Excel's "CSV UTF-8" saves it
        for name, edit in (("not-utf8-supply", lambda data: data + b"\xff"),
                           ("marked-supply", lambda data: codecs.BOM_UTF8 + data)):
            copy = work / name
            shutil.copytree(bundle, copy)
            supply = copy / "pre_estimated" / "supply.csv"
            supply.write_bytes(edit(supply.read_bytes()))
            commands += [(f"{name} {c}", [c, "--data", str(copy)]) for c in ("solve", "validate")]
        for name, (value, supply_commands) in SUPPLY_COPIES.items():
            copy = work / name
            shutil.copytree(bundle, copy)
            supply = copy / "pre_estimated" / "supply.csv"
            codes = [line.split(",")[0] for line in supply.read_text(encoding="utf-8").split()[1:]]
            supply.write_text("code,supply\n" + "".join(f"{c},{value}\n" for c in codes),
                              encoding="utf-8")
            commands += [(f"{name} {' '.join(c)}", [*c, "--data", str(copy)])
                         for c in supply_commands]
        # I/O errors: an --out that is a file or under one, and a spec that is a directory
        file = work / "file"
        file.write_text("", encoding="utf-8")
        commands += [(label, [*c, "--data", str(bundle)]) for label, c in (
            ("solve --out FILE", ["solve", "--out", str(file)]),
            ("validate --out FILE/x", ["validate", "--out", str(file / "x")]),
            ("scenario DIRECTORY", ["scenario", str(bundle)]))]
        synthetic_commands = {"solve": ["solve"], "scenario spec.json": ["scenario", str(spec)]}
        datasets = [("synthetic", synthetic, list(synthetic_commands))]
        for name, (edit, labels) in SYNTH_EDITS.items():
            copy = work / name
            shutil.copytree(synthetic, copy)
            edit_table(copy / "pre_estimated" / "barriers.csv", *edit)
            datasets.append((name, copy, labels))
        # a barriers.csv with a byte-order mark, CRLF line ends and two blank lines after its
        # last row, as a spreadsheet may save it: the C pass reads it as the row reader does
        copy = work / "synthetic-marked"
        shutil.copytree(synthetic, copy)
        barriers = copy / "pre_estimated" / "barriers.csv"
        barriers.write_bytes(codecs.BOM_UTF8 + barriers.read_bytes().replace(b"\n", b"\r\n")
                             + b"\r\n\r\n")
        datasets.append((copy.name, copy, list(synthetic_commands)))
        # each supply times 1e15, written by repr: about a tenth of the values written are
        # 1e16 or more, whose orjson text the large-table writer gives repr's "e+"
        copy = work / "synthetic-huge"
        shutil.copytree(synthetic, copy)
        supply = copy / "pre_estimated" / "supply.csv"
        head, *rows = supply.read_text(encoding="utf-8").split()
        rows = [f"{code},{float(value) * 1e15!r}" for code, value in (r.split(",") for r in rows)]
        supply.write_text("\n".join([head, *rows]) + "\n", encoding="utf-8")
        datasets.append((copy.name, copy, list(synthetic_commands)))
        commands += [(f"{name} {label}", [*synthetic_commands[label], "--data", str(data),
                                          "--abandon", "-30.0"])
                     for name, data, labels in datasets for label in labels]
        # at lambda 2 most written values are below 1e-4, where orjson's float text differs
        # from repr's in form, which the large-table writer puts back
        commands += [(f"synthetic-steep {label}", [*command, "--data", str(synthetic),
                                                   "--lambda", "2", "--abandon", "-30.0"])
                     for label, command in synthetic_commands.items()]
        # estimate mode above the bundle's 68 countries: 12,000 migration pairs, some zero,
        # and distance rows listed both ways in either order
        raw = work / "raw"
        write_raw_dataset(raw, *RAW_SHAPE)
        commands += [(f"raw {' '.join(c)}", [*c, "--data", str(raw)])
                     for c in (["estimate"], ["solve", "--mode", "estimate"])]
        # sweep takes no --abandon: its grid sets the abandon yield
        commands.append(("synthetic sweep --step 0.5",
                         ["sweep", "--step", "0.5", "--data", str(synthetic)]))
        for k, (label, command) in enumerate(commands):
            old, new = (_run(src, command, work / side / str(k))
                        for src, side in ((old_src, "old"), (new_src, "new")))
            for name in sorted(old.keys() | new.keys()):
                same = old.get(name) == new.get(name)
                differ += not same
                gap = None
                if not same and name.endswith(".csv") and name in old.keys() & new.keys():
                    gap = _relative_difference(old[name], new[name])
                print(f"{'identical' if same else 'DIFFERENT'}  {label}: {name}"
                      + ("" if gap is None else f"  (max relative difference {gap:.3g})"))
    print(f"{differ} difference(s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
