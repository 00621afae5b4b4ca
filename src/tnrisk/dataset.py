"""Input file formats: country table, pair tables, pre-estimated parameter tables.

All inputs are plain UTF-8 CSV.  A desk-scale dataset is bundled with the
package (see :func:`bundled_data_dir`); larger datasets in the same formats can
be supplied with ``--data``.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import (
    AsymmetricDistance,
    CodeMismatch,
    DuplicateCode,
    DuplicatePair,
    MalformedRow,
    MissingFile,
    ModelError,
    NegativeValue,
)
from .params import (BLOCKED, Barriers, ModelParams, is_blocked, parse_cost, parse_floats,
                     parse_number)

COUNTRY_HEADER = [
    "code", "name", "region", "population", "gdp_usd", "sec_fraction",
    "muslim_pop", "sigma_n", "sigma_r", "sigma_s", "sigma_o", "is_oecd", "is_target",
]


@dataclass(frozen=True)
class CountryTable:
    """countries.csv as columns in file row order, NaN where an optional number is blank;
    ``sigma`` is rows x 3: the rarely, sometimes and often survey fractions."""

    codes: list[str]
    regions: list[str]
    population: np.ndarray
    gdp: np.ndarray
    sec_fraction: np.ndarray
    muslim_pop: np.ndarray
    sigma: np.ndarray
    is_target: np.ndarray


@dataclass
class DataBundle:
    """The raw tables.  Both matrices are indexed [origin, dest] on the sorted ``codes``:
    ``migration`` is NaN where no row is listed, and ``distance`` is mirrored, 0.0 on
    the diagonal and NaN where neither direction is listed."""

    countries: CountryTable
    codes: list[str]
    migration: np.ndarray
    distance: np.ndarray


# cells per block of the table reader and of write_cells: bounds their memory, not what they do
BLOCK_CELLS = 4096


def _table(path: str | Path, header: list[str]) -> tuple[Sequence[int], list[list[str]]]:
    """(lines, columns) of the non-blank rows of a CSV table that has this header.

    Row k is on line ``lines[k]`` and has ``columns[c][k]`` in column c.  Every
    row must have one cell per header column.  A country code (column code,
    origin or dest) must not be blank, and must not contain "->", which joins
    the two codes of a JSON cell key; each distinct code is checked once.  A
    bad cell count is reported before a bad code, each at its earliest row.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    width = len(header)
    columns: list[list[str]] = [[] for _ in header]
    is_code = [name in ("code", "origin", "dest") for name in header]
    code_cells: dict[str, str] = {}  # each distinct code is held as one string, not once a row
    blank: set[int] = set()
    try:  # bytes that are not UTF-8, or a cell over the csv module's field size limit
        with path.open(newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            if next(reader, None) != header:
                raise MalformedRow(1, f"bad header in {path.name}, expected {','.join(header)}")
            line = 2
            # one block of rows is held at a time, as tuples of strings, which the
            # cyclic garbage collector stops scanning
            for rows in iter(lambda: list(map(tuple, islice(reader, BLOCK_CELLS // width))), []):
                numbered = range(line, line + len(rows))
                line = numbered.stop
                # a blank row has a blank first cell; where one may exist, check rows one by one
                if set(map(len, rows)) != {width} or not all(map(str.strip, {r[0] for r in rows})):
                    kept = []
                    for n, row in zip(numbered, rows):
                        if not any(map(str.strip, row)):
                            blank.add(n)
                        elif len(row) != width:
                            raise MalformedRow(n, f"expected {width} cells in {path.name}, "
                                                  f"got {len(row)}")
                        else:
                            kept.append(row)
                    rows = kept
                for k, column in enumerate(columns):
                    cells = [row[k] for row in rows]
                    column += map(code_cells.setdefault, cells, cells) if is_code[k] else cells
    except (UnicodeDecodeError, csv.Error) as e:
        raise ModelError(f"{path.name} is not a UTF-8 CSV table: {e}") from None
    lines: Sequence[int] = range(2, line)
    if blank:
        lines = [n for n in lines if n not in blank]
    for name, column, code in zip(header, columns, is_code):
        if code:
            bad = [c for c in set(column) if not c.strip() or "->" in c]
            if bad:
                k = min(map(column.index, bad))
                raise MalformedRow(lines[k], f"{name} in {path.name} must be a country code, "
                                             f"not blank or with '->', got {column[k]!r}")
    return lines, columns


def _rows(path: str | Path, header: list[str]) -> Iterator[tuple[int, tuple[str, ...]]]:
    """(line, cells) of every non-blank row of a table, as :func:`_table` reads it."""
    lines, columns = _table(path, header)
    return zip(lines, zip(*columns))


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


def load_country_table(path: str | Path) -> CountryTable:
    """countries.csv; every number is >= 0, every population > 0 and every sec_fraction <= 1.

    A target (``is_target`` set) must give ``sec_fraction``; one without
    ``gdp_usd`` has no yield, so the model does not treat it as a target.
    """
    seen: dict[str, int] = {}  # code -> its line, in row order
    regions: list[str] = []
    numbers: list[list] = []  # population through sigma_o, then is_target
    name = Path(path).name
    for line, row in _rows(path, COUNTRY_HEADER):
        code = row[0].strip()
        if seen.setdefault(code, line) != line:
            raise DuplicateCode(code, name, seen[code], line)
        values = [_parse_float(row[i], line, f"{column} in {name}",
                               required=column in ("population", "muslim_pop"), sign=+1)
                  for i, column in enumerate(COUNTRY_HEADER[3:11], start=3)]
        if values[0] == 0:  # raw_barrier divides by it
            raise MalformedRow(line, f"population in {name} must be > 0, got {row[3]!r}")
        if values[2] is not None and values[2] > 1:  # a share of GDP
            raise MalformedRow(line, f"sec_fraction in {name} must be <= 1, got {row[5]!r}")
        stated = [s for s in values[4:] if s is not None]
        if stated and (max(stated) > 1 or sum(stated) > 1 + 1e-9):
            raise MalformedRow(line, f"survey fractions out of range: {stated}")
        target = _parse_flag(row[12], line, "is_target")
        if target and values[2] is None:
            raise MalformedRow(line, f"{code} is a target in {name} but has no sec_fraction")
        _parse_flag(row[11], line, "is_oecd")  # checked; name, sigma_n and is_oecd are not held
        regions.append(row[2].strip())
        numbers.append([*values, target])
    columns = np.array(numbers, dtype=float).reshape(-1, 9)  # None, a blank cell, is NaN
    return CountryTable(list(seen), regions, *columns[:, :4].T, sigma=columns[:, 5:8],
                        is_target=columns[:, 8] == 1)


def _pair_table(path: Path, value: str, codes: Iterable[str], parse=float) -> tuple[
        list[str], Sequence[int], np.ndarray, np.ndarray, np.ndarray, Callable[[int], str]]:
    """(axis, lines, rows, cols, values, cell): lines[k] lists axis[rows[k]], axis[cols[k]] and
    the cell text cell(k), which ``parse`` reads as values[k] (NaN where it raises ValueError).

    A table with the exact header, rows, no blank row, no '"' and valid codes is read in
    one C pass, if np.loadtxt takes every cell (it refuses some that float() reads, such
    as '1_000'); any other goes through :func:`_table`, which reports every error.
    """
    header = ["origin", "dest", value]
    try:
        text = path.read_text(encoding="utf-8")  # CRLF and lone CR read as "\n", as np.loadtxt
        n = text.count("\n") - text.endswith("\n")  # the lines after the header
        if not text.startswith(",".join(header) + "\n") or '"' in text or "\n\n" in text or n < 1:
            raise ValueError("not a clean table")
        del text
        table = np.loadtxt(path, dtype=[("origin", object), ("dest", object), (value, float)],
                           delimiter=",", comments=None, skiprows=1, ndmin=1, encoding="utf-8")
        origins, dests = table["origin"].tolist(), table["dest"].tolist()
        cells_of_codes = {*origins, *dests}
        if len(table) != n or any(not c.strip() or "->" in c for c in cells_of_codes):
            raise ValueError("a skipped row or a bad code")
        lines, values = range(2, n + 2), table[value].copy()  # not a view holding the codes

        def cell(k: int) -> str:  # with no quotes, the text after the second comma is csv's cell
            return path.read_text(encoding="utf-8").split("\n")[k + 1].split(",")[2]
    except (OSError, ValueError):  # the row reader raises the error, if there is one
        lines, (origins, dests, cells) = _table(path, header)
        values, cell = parse_floats(cells, parse), cells.__getitem__
        cells_of_codes = {*origins, *dests}
    axis = sorted({*codes, *map(str.strip, cells_of_codes)})  # with the table's own codes
    index = {c: k for k, c in enumerate(axis)}
    at = {c: index[c.strip()] for c in cells_of_codes}  # each distinct cell stripped once
    rows, cols = (np.fromiter(map(at.__getitem__, column), np.intp, len(column))
                  for column in (origins, dests))
    return axis, lines, rows, cols, values, cell


def _check_repeats(path: Path, axis: list[str], lines: Sequence[int], rows: np.ndarray,
                   cols: np.ndarray) -> None:
    """A pair :func:`_pair_table` read twice is a DuplicatePair error naming both lines."""
    _, first, pair = np.unique(rows * len(axis) + cols, return_index=True, return_inverse=True)
    again = np.flatnonzero(first[pair] != np.arange(len(rows)))  # rows repeating an earlier one
    if again.size:
        k = int(again[0])
        raise DuplicatePair((axis[rows[k]], axis[cols[k]]), path.name, lines[first[pair[k]]],
                            lines[k])


def _raw_pairs(path: Path, codes: list[str]
               ) -> tuple[Sequence[int], np.ndarray, np.ndarray, np.ndarray, Callable[[int], str]]:
    """(lines, rows, cols, values, cell) of a raw pair table: each pair once, values >= 0."""
    axis, lines, rows, cols, values, cell = _pair_table(path, "value", codes)
    bad = ~np.isfinite(values) | (values < 0)
    if bad.any():
        k = int(bad.argmax())
        _parse_float(cell(k), lines[k], f"value in {path.name}")  # raises if not finite
        raise NegativeValue(f"line {lines[k]}: {axis[rows[k]]},{axis[cols[k]]} in {path.name} "
                            f"= {float(values[k])}")
    _check_repeats(path, axis, lines, rows, cols)
    unknown = set(axis).difference(codes)
    if unknown:
        raise CodeMismatch(f"{path.name} names {min(unknown)!r}, which is not in countries.csv")
    return lines, rows, cols, values, cell


def _load_distances(path: Path, codes: list[str]) -> np.ndarray:
    """distance_km.csv as :attr:`DataBundle.distance`."""
    lines, rows, cols, values, cell = _raw_pairs(path, codes)
    with np.errstate(over="ignore"):  # raw_barrier divides by the square: not 0, not inf
        bad = (values * values == 0) | (values >= 1e154)
    bad &= rows != cols
    if bad.any():
        k = int(bad.argmax())
        rule = ("> 0" if values[k] == 0 else "< 1e154" if values[k] >= 1
                else "about 1.6e-162 or more, so that its square is not 0")
        raise MalformedRow(lines[k], f"distance {codes[rows[k]]},{codes[cols[k]]} in {path.name} "
                                     f"must be {rule}, got {cell(k)!r}")
    at = np.full((len(codes),) * 2, -1)  # the row listing each pair; -1 picks the NaN appended
    at[rows, cols] = np.arange(len(rows))
    values = np.append(values, np.nan)
    given, later = values[at], np.maximum(at, at.T)  # the later row holds both ways
    scale = np.maximum(np.maximum(given, given.T), 1e-30)  # every value is >= 0
    asymmetric = abs(given - given.T) / scale > 1e-6  # False where a direction is unlisted
    if asymmetric.any():
        k = int(later[asymmetric].min())
        raise AsymmetricDistance(codes[rows[k]], codes[cols[k]])
    distance = values[later]
    np.fill_diagonal(distance, 0.0)
    return distance


def _load_vector(path: Path, value_name: str, sign: int) -> dict[str, float]:
    out: dict[str, float] = {}
    seen: dict[str, int] = {}  # code -> its line
    label = f"{value_name} in {path.name}"
    for line, row in _rows(path, ["code", value_name]):
        code = row[0].strip()
        if seen.setdefault(code, line) != line:
            raise DuplicateCode(code, path.name, seen[code], line)
        out[code] = _parse_float(row[1], line, label, sign=sign)
    return out


def _load_barriers(path: Path, supply: dict[str, float], targets: set[str]) -> Barriers:
    """barriers.csv as one matrix whose axis is every code of the four tables.

    An off-diagonal row needs an origin in supply.csv and a destination with
    interception or yield data.  A diagonal row loads as 0.0, as does each
    supply code's domestic pair the file leaves out.  Each check runs once over
    whole columns; where rows fail several, the first failing row is reported,
    for the first check it fails in the order origin, destination, cost, sign;
    a pair listed twice is reported after these.
    """
    codes, lines, rows, cols, values, cell = _pair_table(path, "cost", {*supply, *targets},
                                                         parse_cost)
    in_supply = np.array([c in supply for c in codes], dtype=bool)
    in_targets = np.array([c in targets for c in codes], dtype=bool)
    values[is_blocked(values)] = BLOCKED  # as parse_cost folds them
    foreign = rows != cols
    # row-major: the earliest row first, then the earliest check in that row
    faults = np.column_stack([foreign & ~in_supply[rows], foreign & ~in_targets[cols],
                              np.isnan(values) | (values == -np.inf), values < 0])
    if faults.any():
        k, check = divmod(int(faults.argmax()), faults.shape[1])
        origin, dest, line = codes[rows[k]], codes[cols[k]], lines[k]
        if check == 0:
            raise CodeMismatch(f"barrier origin {origin!r} not in supply.csv")
        if check == 1:
            raise CodeMismatch(f"barrier destination {dest!r} has no interception/yield data")
        if check == 2:
            try:
                parse_cost(cell(k), "cost in barriers.csv")
            except ValueError as e:
                raise MalformedRow(line, str(e)) from None
        raise NegativeValue(f"line {line}: barrier {origin},{dest} = {float(values[k])}")
    _check_repeats(path, codes, lines, rows, cols)
    cost = np.full((len(codes),) * 2, BLOCKED)
    cost[rows, cols] = np.where(foreign, values, 0.0)
    listed = np.zeros(cost.shape, dtype=bool)
    listed[rows, cols] = True
    home = np.flatnonzero(in_supply)
    cost[home, home] = 0.0
    listed[home, home] = True
    return Barriers(codes, cost, listed)


def load_pre_estimated(directory: str | Path) -> ModelParams:
    """Load the four pre-estimated parameter tables from a directory."""
    directory = Path(directory)
    supply = _load_vector(directory / "supply.csv", "supply", +1)
    interception = _load_vector(directory / "interception.csv", "cost", +1)
    yields = _load_vector(directory / "yield.csv", "yield", -1)
    barriers = _load_barriers(directory / "barriers.csv", supply, {*interception, *yields})
    return ModelParams(S=supply, T=barriers, I=interception, Y=yields)


def load_bundle(data_dir: str | Path) -> DataBundle:
    """Load the three raw tables; every migration pair needs a distance, in either direction."""
    data_dir = Path(data_dir)
    countries = load_country_table(data_dir / "countries.csv")
    codes = sorted(countries.codes)
    _, rows, cols, values, _ = _raw_pairs(data_dir / "migration.csv", codes)
    distance = _load_distances(data_dir / "distance_km.csv", codes)
    unmeasured = np.isnan(distance[rows, cols])
    if unmeasured.any():
        k = int(unmeasured.argmax())
        raise CodeMismatch(f"migration.csv pair {codes[rows[k]]},{codes[cols[k]]} "
                           "has no row in distance_km.csv")
    migration = np.full(distance.shape, np.nan)
    migration[rows, cols] = values
    return DataBundle(countries, codes, migration, distance)


def bundled_data_dir() -> Path:
    """Directory of the dataset shipped with the package."""
    return Path(__file__).parent / "data" / "bundled"


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


def _csv_cell(text: str) -> str:
    """``text`` as the csv module writes it as one cell of a row of several."""
    buf = io.StringIO()
    csv.writer(buf).writerow((text, ""))
    return buf.getvalue()[:-3]  # the ",\r\n" after the cell


def _row_blocks(n_cols: int, key_order: list[int]) -> Iterator[tuple[int, int]]:
    """[start, end) row ranges of about BLOCK_CELLS cells.

    A range ends only where the rows before it are also the first rows of
    ``key_order``, so each range holds the same rows in both orders.
    """
    start, last = 0, -1
    for end, row in enumerate(key_order, start=1):
        last = max(last, row)
        if last == end - 1 and ((end - start) * n_cols >= BLOCK_CELLS or end == len(key_order)):
            yield start, end
            start = end


def _write_lines(f, rows: Iterable) -> None:
    """CSV lines of cells already formatted as the csv module writes them."""
    f.write("\r\n".join(map(",".join, rows)))
    f.write("\r\n")


def write_cells(values: np.ndarray, rows: list[str], cols: list[str], path: str | Path,
                header: list[str], plot_path: str | Path | None = None,
                json_file: tuple[str | Path, dict, str] | None = None) -> None:
    """Write each nonzero cell of ``values`` as a CSV row (row code, column code, value).

    Rows follow row-major order, which is sorted order when the codes are
    sorted.  One pass over blocks of about BLOCK_CELLS cells formats each
    value once, as its repr (what csv and json write for a float), and feeds
    that text to every file:

    - ``plot_path``: the same rows under the header (*header[:2], "value",
      "normalized"), where normalized is the value over the largest value;
    - ``json_file`` = (path, doc, key): ``doc`` as :func:`write_json` writes it,
      with ``doc[key]`` the object mapping "row->col" to the value.  Its keys
      sort as the row's "code->" and then the column code, which is the sorted
      order whenever no code contains "->".
    """
    row_csv = np.array([_csv_cell(c) for c in rows], dtype=object)
    col_csv = np.array([_csv_cell(c) for c in cols], dtype=object)
    key_order = sorted(range(len(rows)), key=lambda r: rows[r] + "->")
    with ExitStack() as stack:
        def open_csv(p: str | Path, head: list[str]):
            f = stack.enter_context(Path(p).open("w", newline="", encoding="utf-8"))
            csv.writer(f).writerow(head)
            return f

        out = open_csv(path, header)
        plot = open_csv(plot_path, [*header[:2], "value", "normalized"]) if plot_path else None
        peak = values.max(initial=0.0)
        js = None
        if json_file:
            json_path, doc, key = json_file
            # only top-level keys follow a newline and two spaces: the marker is key's own line
            marker = f"\n  {json.dumps(key)}: {{}}"
            head, _, tail = json.dumps({**doc, key: {}}, indent=2, sort_keys=True).partition(marker)
            js = stack.enter_context(Path(json_path).open("w", encoding="utf-8"))
            js.write(head + marker[:-1])
            rank = np.argsort(key_order)  # each row's place in the key order
            row_key = np.array([f"    {json.dumps(c)[:-1]}->" for c in rows], dtype=object)
            col_key = np.array([f"{json.dumps(c)[1:]}: " for c in cols], dtype=object)
        wrote = False
        for start, end in _row_blocks(len(cols), key_order):
            block = values[start:end]
            r, c = np.nonzero(block)
            if not r.size:
                continue
            v = block[r, c]
            r += start
            text = list(map(repr, v.tolist()))
            cells = (row_csv[r], col_csv[c], text)
            _write_lines(out, zip(*cells))
            if plot:
                _write_lines(plot, zip(*cells, map(repr, (v / peak).tolist())))
            if js:
                k = np.argsort(rank[r], kind="stable")  # the block's cells in key order
                js.write(",\n" if wrote else "\n")
                js.write(",\n".join(map("".join, zip(row_key[r[k]], col_key[c[k]],
                                                      map(text.__getitem__, k.tolist())))))
            wrote = True
        if js:
            js.write(("\n  }" if wrote else "}") + tail + "\n")

