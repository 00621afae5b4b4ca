"""Input file formats: country table, pair tables, pre-estimated parameter tables.

All inputs are plain UTF-8 CSV.  A desk-scale dataset is bundled with the
package (see :func:`bundled_data_dir`); larger datasets in the same formats can
be supplied with ``--data``.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import (
    AsymmetricDistance,
    CodeMismatch,
    DuplicateCode,
    MalformedRow,
    MissingFile,
    NegativeValue,
)
from .params import ModelParams, parse_cost, parse_number

COUNTRY_HEADER = [
    "code", "name", "region", "population", "gdp_usd", "sec_fraction",
    "muslim_pop", "sigma_n", "sigma_r", "sigma_s", "sigma_o", "is_oecd", "is_target",
]
PAIR_HEADER = ["origin", "dest", "value"]


@dataclass(frozen=True)
class CountryRecord:
    code: str
    name: str
    region: str
    population: float
    gdp: float | None
    sec_fraction: float | None
    muslim_pop: float
    sigma_n: float | None
    sigma_r: float | None
    sigma_s: float | None
    sigma_o: float | None
    is_oecd: bool
    is_target: bool

    @property
    def has_survey(self) -> bool:
        return None not in (self.sigma_r, self.sigma_s, self.sigma_o)

    @property
    def sigma(self) -> tuple[float, float, float]:
        if not self.has_survey:
            raise ValueError(f"{self.code} has no survey data")
        return (self.sigma_r, self.sigma_s, self.sigma_o)


@dataclass
class PairTable:
    kind: str  # "migration" | "distance"
    entries: dict[tuple[str, str], float] = field(default_factory=dict)

    def get(self, origin: str, dest: str) -> float | None:
        if self.kind == "distance" and origin == dest:
            return 0.0
        return self.entries.get((origin, dest))

    def codes(self) -> set[str]:
        out: set[str] = set()
        for a, b in self.entries:
            out.add(a)
            out.add(b)
        return out


@dataclass
class DataBundle:
    countries: list[CountryRecord]
    migration: PairTable
    distances: PairTable
    pre_estimated: ModelParams | None = None

    def by_code(self) -> dict[str, CountryRecord]:
        return {c.code: c for c in self.countries}


@dataclass
class ValidationReport:
    entries: list[tuple[str, str, str]] = field(default_factory=list)  # (kind, location, message)

    def add(self, kind: str, location: str, message: str) -> None:
        self.entries.append((kind, location, message))

    @property
    def ok(self) -> bool:
        return not self.entries

    def lines(self) -> list[str]:
        return [f"{kind}\t{loc}\t{msg}" for kind, loc, msg in self.entries]


def _rows(path: str | Path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(line, cells) of every non-blank row of a CSV table that has this header."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    with path.open(newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        if next(reader, None) != header:
            raise MalformedRow(1, f"bad header in {path.name}, expected {','.join(header)}")
        for line, row in enumerate(reader, start=2):
            if not any(map(str.strip, row)):
                continue
            if len(row) != len(header):
                raise MalformedRow(line, f"expected {len(header)} cells in {path.name}, "
                                         f"got {len(row)}")
            yield line, row


def _parse_float(cell: str, line: int, name: str, required: bool = True,
                 sign: int = 0) -> float | None:
    """A cell as :func:`parse_number` reads it; a blank optional cell is None."""
    cell = cell.strip()
    if cell == "" and not required:
        return None
    try:
        return parse_number(cell, sign, name)
    except ValueError as e:
        raise MalformedRow(line, str(e)) from None


def _parse_flag(cell: str, line: int, name: str) -> bool:
    cell = cell.strip().lower()
    if cell in ("1", "true", "yes"):
        return True
    if cell in ("0", "false", "no", ""):
        return False
    raise MalformedRow(line, f"bad flag {name}: {cell!r}")


def load_country_table(path: str | Path) -> list[CountryRecord]:
    records: list[CountryRecord] = []
    seen: set[str] = set()
    name = Path(path).name
    for line, row in _rows(path, COUNTRY_HEADER):
        code = row[0].strip()
        if code in seen:
            raise DuplicateCode(code)
        seen.add(code)
        # population through sigma_o, in CountryRecord's field order
        numbers = [_parse_float(row[i], line, f"{column} in {name}",
                                required=column in ("population", "muslim_pop"))
                   for i, column in enumerate(COUNTRY_HEADER[3:11], start=3)]
        stated = [s for s in numbers[4:] if s is not None]
        if stated and (any(s < 0 or s > 1 for s in stated) or sum(stated) > 1 + 1e-9):
            raise MalformedRow(line, f"survey fractions out of range: {stated}")
        records.append(CountryRecord(code, row[1].strip(), row[2].strip(), *numbers,
                                     is_oecd=_parse_flag(row[11], line, "is_oecd"),
                                     is_target=_parse_flag(row[12], line, "is_target")))
    return records


def load_pair_table(path: str | Path, kind: str) -> PairTable:
    if kind not in ("migration", "distance"):
        raise ValueError(f"bad pair-table kind {kind!r}")
    table = PairTable(kind=kind)
    label = f"value in {Path(path).name}"
    for line, row in _rows(path, PAIR_HEADER):
        origin, dest = row[0].strip(), row[1].strip()
        value = _parse_float(row[2], line, label)
        if value < 0:
            raise NegativeValue(f"line {line}: {origin},{dest} = {value}")
        if kind == "distance":
            mirror = table.entries.get((dest, origin))
            if mirror is not None and origin != dest:
                scale = max(abs(mirror), abs(value), 1e-30)
                if abs(mirror - value) / scale > 1e-6:
                    raise AsymmetricDistance(origin, dest)
            table.entries[(origin, dest)] = value
            table.entries[(dest, origin)] = value
        else:
            table.entries[(origin, dest)] = value
    return table


def _load_vector(path: Path, value_name: str, sign: int) -> dict[str, float]:
    out: dict[str, float] = {}
    label = f"{value_name} in {path.name}"
    for line, row in _rows(path, ["code", value_name]):
        code = row[0].strip()
        if code in out:
            raise DuplicateCode(code)
        out[code] = _parse_float(row[1], line, label, sign=sign)
    return out


def load_pre_estimated(directory: str | Path) -> ModelParams:
    """Load the four pre-estimated parameter tables from a directory."""
    directory = Path(directory)
    supply = _load_vector(directory / "supply.csv", "supply", +1)
    interception = _load_vector(directory / "interception.csv", "cost", +1)
    yields = _load_vector(directory / "yield.csv", "yield", -1)

    barriers: dict[tuple[str, str], float] = {}
    known_targets = set(interception) | set(yields)
    for line, row in _rows(directory / "barriers.csv", ["origin", "dest", "cost"]):
        origin, dest = row[0].strip(), row[1].strip()
        if origin != dest and origin not in supply:
            raise CodeMismatch(f"barrier origin {origin!r} not in supply.csv")
        if origin != dest and dest not in known_targets:
            raise CodeMismatch(f"barrier destination {dest!r} has no interception/yield data")
        try:
            cost = parse_cost(row[2], "cost in barriers.csv")
        except ValueError as e:
            raise MalformedRow(line, str(e)) from None
        if cost < 0:
            raise NegativeValue(f"line {line}: barrier {origin},{dest} = {cost}")
        barriers[(origin, dest)] = 0.0 if origin == dest else cost
    # ModelParams adds the zero diagonal of every supply code the file leaves out
    return ModelParams(S=supply, T=barriers, I=interception, Y=yields)


def validate_bundle(bundle: DataBundle) -> ValidationReport:
    """List every invariant violation; an empty report means the bundle is usable."""
    report = ValidationReport()
    codes = {c.code for c in bundle.countries}
    for c in bundle.countries:
        if c.is_target and c.sec_fraction is None:
            report.add("MissingSecurityData", c.code, "is_target set but sec_fraction missing")
        if c.population <= 0:
            report.add("BadPopulation", c.code, f"population {c.population} not positive")
        if c.muslim_pop < 0:
            report.add("BadPopulation", c.code, f"muslim_pop {c.muslim_pop} negative")
    for table, label in ((bundle.migration, "migration"), (bundle.distances, "distances")):
        for code in sorted(table.codes() - codes):
            report.add("UnknownCode", f"{label}:{code}", "pair table references unknown country")
    if bundle.pre_estimated is not None:
        for code in sorted(bundle.pre_estimated.codes - codes):
            report.add("UnknownCode", f"pre_estimated:{code}",
                       "pre-estimated table references unknown country")
    return report


def load_bundle(data_dir: str | Path) -> DataBundle:
    """Load countries + pair tables (and pre-estimated params, if present) from a directory."""
    data_dir = Path(data_dir)
    bundle = DataBundle(
        countries=load_country_table(data_dir / "countries.csv"),
        migration=load_pair_table(data_dir / "migration.csv", "migration"),
        distances=load_pair_table(data_dir / "distance_km.csv", "distance"),
    )
    pre_dir = data_dir / "pre_estimated"
    if pre_dir.is_dir():
        try:
            bundle.pre_estimated = load_pre_estimated(pre_dir)
        except MissingFile:
            pass
    return bundle


def bundled_data_dir() -> Path:
    """Directory of the dataset shipped with the package."""
    return Path(resources.files("tnrisk").joinpath("data", "bundled"))


# --- writers -------------------------------------------------------------------

def write_csv(path: str | Path, header: list[str], rows: Iterable) -> None:
    """Stream rows to a CSV file; floats are written as their repr, None as a blank."""
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_json(path: str | Path, doc: dict) -> None:
    with Path(path).open("w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def write_country_table(records: list[CountryRecord], path: str | Path) -> None:
    write_csv(path, COUNTRY_HEADER, (
        [c.code, c.name, c.region, c.population, c.gdp, c.sec_fraction, c.muslim_pop,
         c.sigma_n, c.sigma_r, c.sigma_s, c.sigma_o, int(c.is_oecd), int(c.is_target)]
        for c in sorted(records, key=lambda r: r.code)))


def write_pair_table(table: PairTable, path: str | Path) -> None:
    entries = table.entries
    if table.kind == "distance":
        # one direction per unordered pair
        entries = {k: v for k, v in entries.items() if k[0] <= k[1]}
    write_csv(path, PAIR_HEADER, ((a, b, v) for (a, b), v in sorted(entries.items())))
