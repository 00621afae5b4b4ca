"""Compare what two tnrisk source trees write, byte for byte, over a fixed command list.

Usage (from anywhere):

    python tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the ``tnrisk`` package (a
checkout's ``src``).  Each command runs as ``python -m tnrisk.cli`` once with
each tree on ``PYTHONPATH``, both reading one copy of the data: NEW_SRC's
bundled dataset, with a fortress-USA spec file beside it, and a
``bench/synth.py`` dataset (seed 1, 400 x 200).  ``validate``, ``estimate``
and ``solve --mode estimate`` also run on bundle copies with one raw-table
edit each (``BUNDLE_EDITS``): seven break a rule (a negative ``muslim_pop``, a
reverse distance with another value, a zero distance, an unknown code in
``migration.csv``, a migration pair with no distance, a negative migration, a
``sec_fraction`` of 1e307, above 1), one passes the rules but leaves a source
that imputation cannot fill (CHN unsurveyed, with no surveyed EastAsia peer)
and seven are valid (a zero migration, which blocks its pair; a USA ``gdp_usd``
of 1e150; a ``sec_fraction`` of -0, the signed zero; TUN unsurveyed, which
gets its region's survey means; a migration of ``1_000``, which ``np.loadtxt``
refuses, so the table goes through the row reader; an AFG,AUS migration of
1e-305 and an AFG population of 1e200, whose raw barriers overflow to inf and
so are blocked).  ``solve``, ``scenario
homegrown`` and ``validate`` run on seven bundle copies with one
``pre_estimated/barriers.csv`` edit each (``PRE_ESTIMATED_EDITS``).  Two are of
the loader's domestic rule: the ``FRA,FRA`` row given cost 5, which loads as
0.0, and the ``USA,USA`` row deleted, so the USA's domestic pair defaults to
0.0.  Two are valid but only the row reader reads them: a ``blocked`` cost and
an ``"AFG"`` origin in quotes.  Three fail: a ``nan`` cost, a negative cost
and a repeated ``AFG,AUS`` pair.  ``scenario``
with a spec file naming an unknown code, or giving a negative barrier, takes
an error path too; four commands get a flag they do not take, and one gets
``--weights r,s,o``, each a usage error.  The other error paths: a ``--q`` of
1e300, whose estimated supply overflows, under ``estimate`` and ``solve --mode
estimate``; a sweep grid whose points round together; ``solve`` and
``validate`` with an ``--out`` that is a file or under one; ``scenario`` given
a directory as its spec; and ``solve`` and ``validate`` on a bundle copy whose
``pre_estimated/supply.csv`` ends in a byte that is not UTF-8.  ``sweep`` on a
copy whose supplies are all 0 finds no threshold.  The synthetic dataset gets
``solve``, its spec ``scenario`` and ``sweep --step 0.5``.  For every
command the script prints "identical" or "DIFFERENT" for the exit code,
standard output, standard error and each file written.  Beside a differing
CSV whose rows, columns and non-numeric cells match, it prints the largest
relative difference of the numeric cells.
``run_metadata.json`` is compared with its ``config.data`` path left out.
Exits 1 if anything differs, else 0.
"""

from __future__ import annotations

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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import synth  # noqa: E402

SYNTH_SHAPE = (1, 400, 200)  # seed, sources, targets

BUNDLE_COMMANDS = [
    ["solve"],
    ["solve", "--mode", "estimate"],
    ["solve", "--mode", "estimate", "--weights", "high", "--q", "0.004"],
    ["solve", "--abandon", "-20"],
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
]

# spec files written into the work directory, run on the bundle as `scenario SPEC`
SPECS = {"fortress-USA.json": {"name": "fortress-USA", "barrier_overrides": [["*", "USA", "inf"]]},
         "unknown-code.json": {"barrier_overrides": [["*", "ZZZ", "inf"]]},
         "negative-barrier.json": {"barrier_overrides": [["*", "USA", -5]]}}

# bundle copies, each with one edit to a raw table: (table, row prefix, cell, value); an
# edit with no row prefix appends its value as a new row, and one with no value deletes the row
BUNDLE_EDITS = {
    "negative-muslim-pop": ("countries.csv", "AFG,", 6, "-2.81e+07"),
    "reverse-distance-differs": ("distance_km.csv", None, 0, "AUS,AFG,9999"),
    "zero-distance": ("distance_km.csv", "AFG,AUS,", 2, "0"),
    "unknown-migration-code": ("migration.csv", None, 0, "ZZZ,USA,500"),
    "migration-without-distance": ("distance_km.csv", "AFG,AUS,", 0, None),
    "negative-migration": ("migration.csv", "AFG,AUS,", 2, "-5"),
    "overflowing-security": ("countries.csv", "USA,", 5, "1e307"),  # a sec_fraction above 1
    "lonely-unsurveyed-source": ("countries.csv", "CHN,", 8, ""),
    # valid edits: a blocked pair, a yield far below the others, the least security at -0,
    # and a source whose survey fractions are imputed from its 13 regional peers
    "zero-migration": ("migration.csv", "AFG,AUS,", 2, "0"),
    "huge-gdp": ("countries.csv", "USA,", 4, "1e150"),
    "negative-zero-security": ("countries.csv", "AUS,", 5, "-0"),
    "unsurveyed-source": ("countries.csv", "TUN,", 8, ""),
    # a number float() reads but np.loadtxt does not: migration.csv goes through the row reader
    "underscored-migration": ("migration.csv", "AFG,AUS,", 2, "1_000"),
    # raw barriers that overflow to inf, blocked as any raw barrier >= 1e100 is
    "tiny-migration": ("migration.csv", "AFG,AUS,", 2, "1e-305"),
    "huge-population": ("countries.csv", "AFG,", 3, "1e200"),
}
EDITED_BUNDLE_COMMANDS = [["validate"], ["estimate"], ["solve", "--mode", "estimate"]]

# bundle copies with one edit to barriers.csv, as in BUNDLE_EDITS: a domestic row loads as 0.0
# whatever cost it gives, and a supply code's domestic pair with no row costs 0.0; a blocked
# cell and a quoted origin are valid, and only the row reader reads them; a NaN cost, a
# negative cost and a repeated pair each fail
PRE_ESTIMATED_EDITS = {
    "domestic-cost-5": ("pre_estimated/barriers.csv", "FRA,FRA,", 2, "5"),
    "domestic-row-deleted": ("pre_estimated/barriers.csv", "USA,USA,", 0, None),
    "blocked-cost": ("pre_estimated/barriers.csv", "AFG,AUS,", 2, "blocked"),
    "quoted-origin": ("pre_estimated/barriers.csv", "AFG,AUS,", 0, '"AFG"'),
    "nan-cost": ("pre_estimated/barriers.csv", "AFG,AUT,", 2, "nan"),
    "negative-cost": ("pre_estimated/barriers.csv", "AFG,AUT,", 2, "-1"),
    "repeated-pair": ("pre_estimated/barriers.csv", None, 0, "AFG,AUS,0.5"),
}
PRE_ESTIMATED_COMMANDS = [["solve"], ["scenario", "homegrown"], ["validate"]]


def _edited_copy(bundle: Path, copy: Path, table: str, row: str | None, cell: int,
                 value: str | None) -> Path:
    shutil.copytree(bundle, copy)
    path = copy / table
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
    return copy


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
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
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
        commands = [(" ".join(c), [*c, "--data", str(bundle)]) for c in BUNDLE_COMMANDS]
        commands += [(f"scenario {name}", ["scenario", str(work / name), "--data", str(bundle)])
                     for name in SPECS]
        for edits, edited_commands in ((BUNDLE_EDITS, EDITED_BUNDLE_COMMANDS),
                                       (PRE_ESTIMATED_EDITS, PRE_ESTIMATED_COMMANDS)):
            for name, edit in edits.items():
                copy = _edited_copy(bundle, work / name, *edit)
                commands += [(f"{name} {' '.join(c)}", [*c, "--data", str(copy)])
                             for c in edited_commands]
        not_utf8 = work / "not-utf8-supply"
        shutil.copytree(bundle, not_utf8)
        with (not_utf8 / "pre_estimated" / "supply.csv").open("ab") as f:
            f.write(b"\xff")
        commands += [(f"not-utf8-supply {c}", [c, "--data", str(not_utf8)])
                     for c in ("solve", "validate")]
        # every supply 0: a sweep with no threshold, which writes its files and exits 1
        no_supply = work / "no-supply"
        shutil.copytree(bundle, no_supply)
        supply = no_supply / "pre_estimated" / "supply.csv"
        codes = [line.split(",")[0] for line in supply.read_text(encoding="utf-8").split()[1:]]
        supply.write_text("code,supply\n" + "".join(f"{c},0\n" for c in codes), encoding="utf-8")
        commands.append(("no-supply sweep", ["sweep", "--data", str(no_supply)]))
        # I/O errors: an --out that is a file or under one, and a spec that is a directory
        file = work / "file"
        file.write_text("", encoding="utf-8")
        commands += [(label, [*c, "--data", str(bundle)]) for label, c in (
            ("solve --out FILE", ["solve", "--out", str(file)]),
            ("validate --out FILE/x", ["validate", "--out", str(file / "x")]),
            ("scenario DIRECTORY", ["scenario", str(bundle)]))]
        commands += [(f"synthetic {label}", [*c, "--data", str(synthetic), "--abandon", "-30.0"])
                     for label, c in (("solve", ["solve"]),
                                      ("scenario spec.json", ["scenario", str(spec)]))]
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
