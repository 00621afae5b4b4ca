"""Input file formats: country table, pair tables, pre-estimated parameter tables.

All inputs are plain UTF-8 CSV.  A desk-scale dataset is bundled with the
package (see :func:`bundled_data_dir`); larger datasets in the same formats can
be supplied with ``--data``.
"""

from __future__ import annotations

import csv
import math
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
from .params import BLOCKED, ModelParams, is_blocked, parse_cost

COUNTRY_HEADER = [
    "code", "name", "region", "population", "gdp_usd", "sec_fraction",
    "muslim_pop", "sigma_n", "sigma_r", "sigma_s", "sigma_o", "is_oecd", "is_target",
]
PAIR_HEADER = ["origin", "dest", "value"]

PRE_ESTIMATED_FILES = ("supply.csv", "barriers.csv", "interception.csv", "yield.csv")


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


def _parse_float(cell: str, line: int, name: str, required: bool) -> float | None:
    cell = cell.strip()
    if cell == "":
        if required:
            raise MalformedRow(line, f"missing required field {name}")
        return None
    try:
        return float(cell)
    except ValueError:
        raise MalformedRow(line, f"non-numeric {name}: {cell!r}") from None


def _parse_flag(cell: str, line: int, name: str) -> bool:
    cell = cell.strip().lower()
    if cell in ("1", "true", "yes"):
        return True
    if cell in ("0", "false", "no", ""):
        return False
    raise MalformedRow(line, f"bad flag {name}: {cell!r}")


def load_country_table(path: str | Path) -> list[CountryRecord]:
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    records: list[CountryRecord] = []
    seen: set[str] = set()
    with path.open(newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != COUNTRY_HEADER:
            raise MalformedRow(1, f"bad header, expected {','.join(COUNTRY_HEADER)}")
        for line, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(COUNTRY_HEADER):
                raise MalformedRow(line, f"expected {len(COUNTRY_HEADER)} cells, got {len(row)}")
            code = row[0].strip()
            if code in seen:
                raise DuplicateCode(code)
            seen.add(code)
            sigmas = [_parse_float(row[i], line, COUNTRY_HEADER[i], required=False)
                      for i in range(7, 11)]
            stated = [s for s in sigmas if s is not None]
            if stated and (any(s < 0 or s > 1 for s in stated) or sum(stated) > 1 + 1e-9):
                raise MalformedRow(line, f"survey fractions out of range: {stated}")
            records.append(CountryRecord(
                code=code,
                name=row[1].strip(),
                region=row[2].strip(),
                population=_parse_float(row[3], line, "population", required=True),
                gdp=_parse_float(row[4], line, "gdp_usd", required=False),
                sec_fraction=_parse_float(row[5], line, "sec_fraction", required=False),
                muslim_pop=_parse_float(row[6], line, "muslim_pop", required=True),
                sigma_n=sigmas[0], sigma_r=sigmas[1], sigma_s=sigmas[2], sigma_o=sigmas[3],
                is_oecd=_parse_flag(row[11], line, "is_oecd"),
                is_target=_parse_flag(row[12], line, "is_target"),
            ))
    return records


def load_pair_table(path: str | Path, kind: str) -> PairTable:
    if kind not in ("migration", "distance"):
        raise ValueError(f"bad pair-table kind {kind!r}")
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    table = PairTable(kind=kind)
    with path.open(newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != PAIR_HEADER:
            raise MalformedRow(1, f"bad header, expected {','.join(PAIR_HEADER)}")
        for line, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            origin, dest = row[0].strip(), row[1].strip()
            value = _parse_float(row[2], line, "value", required=True)
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
    if not path.is_file():
        raise MissingFile(str(path))
    out: dict[str, float] = {}
    with path.open(newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["code", value_name]:
            raise MalformedRow(1, f"bad header in {path.name}")
        for line, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            code = row[0].strip()
            if code in out:
                raise DuplicateCode(code)
            try:
                value = float(row[1])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise MalformedRow(line, f"{value_name} in {path.name} is not a finite number: "
                                         f"{row[1]!r}")
            if value * sign < 0:
                raise MalformedRow(line, f"{value_name} in {path.name} must be "
                                         f"{'>=' if sign > 0 else '<='} 0, got {row[1]!r}")
            out[code] = value
    return out


def load_pre_estimated(directory: str | Path) -> ModelParams:
    """Load the four pre-estimated parameter tables from a directory."""
    directory = Path(directory)
    supply = _load_vector(directory / "supply.csv", "supply", +1)
    interception = _load_vector(directory / "interception.csv", "cost", +1)
    yields = _load_vector(directory / "yield.csv", "yield", -1)

    barriers_path = directory / "barriers.csv"
    if not barriers_path.is_file():
        raise MissingFile(str(barriers_path))
    barriers: dict[tuple[str, str], float] = {}
    known_targets = set(interception) | set(yields)
    with barriers_path.open(newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["origin", "dest", "cost"]:
            raise MalformedRow(1, "bad header in barriers.csv")
        for line, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            origin, dest = row[0].strip(), row[1].strip()
            if origin != dest and origin not in supply:
                raise CodeMismatch(f"barrier origin {origin!r} not in supply.csv")
            if origin != dest and dest not in known_targets:
                raise CodeMismatch(f"barrier destination {dest!r} has no interception/yield data")
            try:
                cost = parse_cost(row[2])
            except ValueError as e:
                raise MalformedRow(line, f"bad cost in barriers.csv: {e}") from None
            if cost < 0:
                raise NegativeValue(f"line {line}: barrier {origin},{dest} = {cost}")
            barriers[(origin, dest)] = 0.0 if origin == dest else cost
    for code in supply:
        barriers[(code, code)] = 0.0
    return ModelParams(S=supply, T=barriers, I=interception, Y=yields)


def validate_bundle(bundle: DataBundle) -> ValidationReport:
    """List every invariant violation; an empty report means the bundle is usable."""
    report = ValidationReport()
    codes = {c.code for c in bundle.countries}
    for c in bundle.countries:
        if c.is_target and (c.sec_fraction is None or not math.isfinite(c.sec_fraction)):
            report.add("MissingSecurityData", c.code,
                       "is_target set but sec_fraction missing or non-finite")
        if c.population <= 0:
            report.add("BadPopulation", c.code, f"population {c.population} not positive")
        if c.muslim_pop < 0:
            report.add("BadPopulation", c.code, f"muslim_pop {c.muslim_pop} negative")
    for table, label in ((bundle.migration, "migration"), (bundle.distances, "distances")):
        for code in sorted(table.codes() - codes):
            report.add("UnknownCode", f"{label}:{code}", "pair table references unknown country")
    if bundle.pre_estimated is not None:
        p = bundle.pre_estimated
        referenced = set(p.S) | set(p.I) | set(p.Y)
        for (i, j) in p.T:
            referenced.add(i)
            referenced.add(j)
        for code in sorted(referenced - codes):
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


# --- canonical writers (round-trip support) -----------------------------------

def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    if is_blocked(value):
        return "inf"
    return repr(value)


def write_country_table(records: list[CountryRecord], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(COUNTRY_HEADER)
        for c in sorted(records, key=lambda r: r.code):
            w.writerow([
                c.code, c.name, c.region, _fmt(c.population), _fmt(c.gdp),
                _fmt(c.sec_fraction), _fmt(c.muslim_pop), _fmt(c.sigma_n),
                _fmt(c.sigma_r), _fmt(c.sigma_s), _fmt(c.sigma_o),
                int(c.is_oecd), int(c.is_target),
            ])


def write_pair_table(table: PairTable, path: str | Path) -> None:
    entries = table.entries
    if table.kind == "distance":
        # one direction per unordered pair
        entries = {k: v for k, v in entries.items() if k[0] <= k[1]}
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(PAIR_HEADER)
        for (a, b), v in sorted(entries.items()):
            w.writerow([a, b, _fmt(v)])
