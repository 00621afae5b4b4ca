"""Input file formats (countries, pair tables, pre-estimated parameters) and output writers.

All inputs are plain UTF-8 CSV, with or without a byte-order mark.  A desk-scale
dataset is bundled with the package (see :func:`bundled_data_dir`); larger
datasets in the same formats can be supplied with ``--data``.
"""

from __future__ import annotations

import csv
import json
import re
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .params import (BLOCKED, Barriers, ModelError, ModelParams, cost_out, is_blocked,
                     parse_cost, parse_number, to_float)

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
    """The raw tables: migration.csv's pairs in row order, ``rows`` and ``cols`` indexing the
    sorted ``codes``, with each pair's ``migration`` and ``distance`` (0.0 for a domestic pair)."""

    countries: CountryTable
    codes: list[str]
    rows: np.ndarray
    cols: np.ndarray
    migration: np.ndarray
    distance: np.ndarray


# the pre-estimated format: the file, value column and value sign of each code -> value
# parameter, and the file and value column (after origin and dest) of the barriers, T
PRE_ESTIMATED = {"S": ("supply.csv", "supply", +1), "I": ("interception.csv", "cost", +1),
                 "Y": ("yield.csv", "yield", -1)}
BARRIERS = ("barriers.csv", "cost")

# cells per block of write_cells and the sweep: bounds their memory, not what they do
BLOCK_CELLS = 4096

# a country code once stripped: no cell of it needs CSV quoting or JSON escaping, and each
# character sorts above the "-" of a JSON cell key "row->col"
CODE = re.compile(r"[A-Za-z0-9_]+")


def _table(path: str | Path, header: list[str]) -> tuple[list[int], list[list[str]]]:
    """(lines, columns) of the non-blank rows of a CSV table that has this header.

    The reference reader, which reports every error: one csv pass, row by row.
    Row k is on line ``lines[k]`` and has ``columns[c][k]`` in column c.  A blank
    row is skipped; the first other row without one cell per header column, or
    that the csv module cannot read, is reported as it is reached.  Then each
    distinct country code (column code, origin or dest) is checked once: stripped,
    it must be ASCII letters, digits and '_' (:data:`CODE`); the earliest row
    holding a bad one is reported.
    """
    path = Path(path)
    if not path.is_file():
        raise ModelError(f"table {path} not found")
    width = len(header)
    lines: list[int] = []
    rows: list[list[str]] = []
    try:  # bytes that are not UTF-8, or a cell over the csv module's field size limit
        with path.open(newline="", encoding="utf-8-sig") as f:  # drops a byte-order mark
            reader = csv.reader(f)
            if next(reader, None) != header:
                raise ModelError(f"line 1: bad header in {path.name}, expected {','.join(header)}")
            start = reader.line_num + 1  # a record's first line in the file
            for row in reader:
                line, start = start, reader.line_num + 1
                if not any(map(str.strip, row)):
                    continue
                if len(row) != width:
                    raise ModelError(f"line {line}: expected {width} cells in {path.name}, "
                                     f"got {len(row)}")
                lines.append(line)
                rows.append(row)
    except (UnicodeDecodeError, csv.Error) as e:
        raise ModelError(f"{path.name} is not a UTF-8 CSV table: {e}") from None
    columns = [[row[c] for row in rows] for c in range(width)]
    for name, column in zip(header, columns):
        if name in ("code", "origin", "dest"):
            bad = {c for c in set(column) if not CODE.fullmatch(c.strip())}
            if bad:
                k = next(k for k, c in enumerate(column) if c in bad)
                raise ModelError(f"line {lines[k]}: {name} in {path.name} must be a country "
                                 f"code of ASCII letters, digits and '_', got {column[k]!r}")
    return lines, columns


def _rows(path: str | Path, header: list[str]) -> Iterator[tuple[int, str, tuple[str, ...]]]:
    """(line, stripped code, cells) of each non-blank row of a one-code table, as :func:`_table`
    reads it; a code listed again is a ModelError naming both lines, before its row is yielded."""
    lines, columns = _table(path, header)
    seen: dict[str, int] = {}  # code -> its line
    for line, row in zip(lines, zip(*columns)):
        code = row[0].strip()
        if seen.setdefault(code, line) != line:
            raise ModelError(f"duplicate country code {code!r} in {Path(path).name} "
                             f"on lines {seen[code]} and {line}")
        yield line, code, row


def _parse_float(cell: str, line: int, name: str, required: bool = True,
                 sign: int = 0) -> float | None:
    """A cell as :func:`parse_number` reads it; a blank optional cell is None."""
    cell = cell.strip()
    if cell == "" and not required:
        return None
    try:
        return parse_number(cell, sign, name)
    except ValueError as e:
        raise ModelError(f"line {line}: {e}") from None


def _parse_flag(cell: str, line: int, name: str) -> bool:
    cell = cell.strip().lower()
    if cell in ("1", "true", "yes"):
        return True
    if cell in ("0", "false", "no", ""):
        return False
    raise ModelError(f"line {line}: bad flag {name}: {cell!r}")


def load_country_table(path: str | Path) -> CountryTable:
    """countries.csv; every number is >= 0, every population > 0 and every sec_fraction <= 1.

    A target (``is_target`` set) must give ``sec_fraction``; one without
    ``gdp_usd`` has no yield, so the model does not treat it as a target.
    """
    codes: list[str] = []
    regions: list[str] = []
    numbers: list[list] = []  # population through sigma_o, then is_target
    name = Path(path).name
    for line, code, row in _rows(path, COUNTRY_HEADER):
        values = [_parse_float(row[i], line, f"{column} in {name}",
                               required=column in ("population", "muslim_pop"), sign=+1)
                  for i, column in enumerate(COUNTRY_HEADER[3:11], start=3)]
        if values[0] == 0:  # raw_barrier divides by it
            raise ModelError(f"line {line}: population in {name} must be > 0, got {row[3]!r}")
        if values[2] is not None and values[2] > 1:  # a share of GDP
            raise ModelError(f"line {line}: sec_fraction in {name} must be <= 1, got {row[5]!r}")
        stated = [s for s in values[4:] if s is not None]
        if stated and (max(stated) > 1 or sum(stated) > 1 + 1e-9):
            raise ModelError(f"line {line}: survey fractions out of range: {stated}")
        target = _parse_flag(row[12], line, "is_target")
        if target and values[2] is None:
            raise ModelError(f"line {line}: {code} is a target in {name} but has no sec_fraction")
        _parse_flag(row[11], line, "is_oecd")  # checked; name, sigma_n and is_oecd are not held
        codes.append(code)
        regions.append(row[2].strip())
        numbers.append([*values, target])
    columns = np.array(numbers, dtype=float).reshape(-1, 9)  # None, a blank cell, is NaN
    return CountryTable(codes, regions, *columns[:, :4].T, sigma=columns[:, 5:8],
                        is_target=columns[:, 8] == 1)


def _pair_table(path: Path, value: str, codes: Iterable[str]) -> tuple[
        list[str], Sequence[int], np.ndarray, np.ndarray, np.ndarray, Callable[[int], str]]:
    """(axis, lines, rows, cols, values, cell): lines[k] lists axis[rows[k]], axis[cols[k]] and
    the cell text cell(k), which either path reads as :func:`to_float` does, into values[k].

    A table with the exact header after any byte-order mark, rows, no blank row but after the
    last (where lines of spaces or tabs count as blank), no '"' or NUL, and every code cell
    exactly one of ``codes`` (codes of :data:`CODE`, as the loaders hold them) is read in one
    C pass, on the sorted ``codes`` as its axis, if np.loadtxt takes every cell (it refuses
    some that float() reads, such as '1_000'); any other goes through :func:`_table`, which
    reports every error.
    """
    header = ["origin", "dest", value]
    axis = sorted({*codes})
    try:  # as the row reader reads: a byte-order mark dropped, blank lines at the end skipped
        text = path.read_text(encoding="utf-8-sig").rstrip()  # CRLF and lone CR read as "\n"
        n = text.count("\n")  # lines after the header, at least one; more than rows if one is blank
        if (not text.startswith(",".join(header) + "\n") or '"' in text  # '"' only exits early
                or "\0" in text):  # a bytes cell drops trailing NULs
            raise ValueError("not a clean table")
        del text
        known = np.array(axis, dtype=f"S{max(map(len, axis))}")  # raises if none, or not ASCII
        code = f"S{known.itemsize + 1}"  # a longer cell is cut to this, longer than any code
        with warnings.catch_warnings(), path.open(encoding="utf-8-sig") as f:  # a path imports gzip
            warnings.simplefilter("ignore", UserWarning)  # a blank row warns: counted below
            table = np.loadtxt(f, dtype=[("origin", code), ("dest", code), (value, float)],
                               delimiter=",", comments=None, skiprows=1, max_rows=n, ndmin=1,
                               encoding="utf-8-sig")  # max_rows: not the blank lines after
        code_cells = np.stack([table["origin"], table["dest"]])
        found = np.searchsorted(known, code_cells)  # where each cell is, if it is a known code
        if len(table) != n or (known.take(found, mode="clip") != code_cells).any():
            raise ValueError("a skipped row or a cell that is not exactly a known code")

        def cell(k: int) -> str:  # with no quotes, the text after the second comma is csv's cell
            with path.open(encoding="utf-8-sig") as f:  # universal newlines, as read_text reads
                row = next(line for i, line in enumerate(f) if i > k)
            return row.rstrip("\n").split(",")[2]
        return axis, range(2, n + 2), *found, table[value].copy(), cell
    except (OSError, ValueError):  # the row reader raises the error, if there is one
        lines, (origins, dests, cells) = _table(path, header)
    axis = sorted({*axis, *map(str.strip, origins), *map(str.strip, dests)})  # the table's too
    index = {c: k for k, c in enumerate(axis)}
    rows, cols = (np.fromiter((index[c.strip()] for c in column), np.intp, len(column))
                  for column in (origins, dests))
    values = np.fromiter(map(to_float, cells), float, len(cells))
    return axis, lines, rows, cols, values, cells.__getitem__


def _check_repeats(path: Path, axis: list[str], lines: Sequence[int], rows: np.ndarray,
                   cols: np.ndarray) -> None:
    """A pair :func:`_pair_table` read twice is a ModelError naming the table and both lines."""
    _, first, pair = np.unique(rows * len(axis) + cols, return_index=True, return_inverse=True)
    again = np.flatnonzero(first[pair] != np.arange(len(rows)))  # rows repeating an earlier one
    if again.size:
        k = int(again[0])
        raise ModelError(f"duplicate pair {axis[rows[k]]!r},{axis[cols[k]]!r} in {path.name} "
                         f"on lines {lines[first[pair[k]]]} and {lines[k]}")


def _raw_pairs(path: Path, codes: list[str]
               ) -> tuple[Sequence[int], np.ndarray, np.ndarray, np.ndarray, Callable[[int], str]]:
    """(lines, rows, cols, values, cell) of a raw pair table: each pair once, values >= 0."""
    axis, lines, rows, cols, values, cell = _pair_table(path, "value", codes)
    bad = ~np.isfinite(values) | (values < 0)
    if bad.any():
        k = int(bad.argmax())
        _parse_float(cell(k), lines[k], f"value in {path.name}")  # raises if not finite
        raise ModelError(f"line {lines[k]}: {axis[rows[k]]},{axis[cols[k]]} in {path.name} "
                         f"= {float(values[k])}")
    _check_repeats(path, axis, lines, rows, cols)
    unknown = set(axis).difference(codes)
    if unknown:
        raise ModelError(f"{path.name} names {min(unknown)!r}, which is not in countries.csv")
    return lines, rows, cols, values, cell


def _load_distances(path: Path, codes: list[str], rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The distance of each pair (``codes[rows[k]]``, ``codes[cols[k]]``): 0.0 if domestic, else
    distance_km.csv's row for either direction.  A pair listed both ways must agree to 1e-6 of
    the larger value, and its later row holds both ways; else the earliest such row is reported."""
    lines, origins, dests, values, cell = _raw_pairs(path, codes)
    with np.errstate(over="ignore"):  # raw_barrier divides by the square: not 0, not inf
        bad = (values * values == 0) | (values >= 1e154)
    bad &= origins != dests
    if bad.any():
        k = int(bad.argmax())
        rule = ("> 0" if values[k] == 0 else "< 1e154" if values[k] >= 1
                else "about 1.6e-162 or more, so that its square is not 0")
        raise ModelError(f"line {lines[k]}: distance {codes[origins[k]]},{codes[dests[k]]} in "
                         f"{path.name} must be {rule}, got {cell(k)!r}")
    n = len(codes)
    key = np.minimum(origins, dests) * n + np.maximum(origins, dests)  # a pair, either way
    order = np.argsort(key, kind="stable")  # a pair listed both ways: adjacent, the later second
    key, given = np.append(-1, key[order]), np.append(np.nan, values[order])  # -1 keys no pair
    scale = np.maximum(np.maximum(given[:-1], given[1:]), 1e-30)  # every value is >= 0
    asymmetric = (key[:-1] == key[1:]) & (abs(np.diff(given)) / scale > 1e-6)
    if asymmetric.any():
        k = int(order[asymmetric].min())  # asymmetric[i] marks the later row of two, order[i]
        raise ModelError(f"distance {codes[origins[k]]}-{codes[dests[k]]} given in both "
                         "directions with different values")
    pair = np.minimum(rows, cols) * n + np.maximum(rows, cols)
    at = np.searchsorted(key, pair, side="right") - 1  # the later row listing it, if any
    unmeasured = (key[at] != pair) & (rows != cols)
    if unmeasured.any():
        k = int(unmeasured.argmax())
        raise ModelError(f"migration.csv pair {codes[rows[k]]},{codes[cols[k]]} "
                         "has no row in distance_km.csv")
    return np.where(rows == cols, 0.0, given[at])


def _load_barriers(path: Path, supply: dict[str, float], targets: set[str]) -> Barriers:
    """The barrier table as one matrix whose axis is every code of the four tables.

    An off-diagonal row needs an origin in the supply table and a destination with
    interception or yield data.  A diagonal row loads as 0.0, as does each
    supply code's domestic pair the file leaves out.  Each check runs once over
    whole columns; where rows fail several, the first failing row is reported,
    for the first check it fails in the order origin, destination, cost, sign;
    a pair listed twice is reported after these.
    """
    codes, lines, rows, cols, values, cell = _pair_table(path, BARRIERS[1], {*supply, *targets})
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
            raise ModelError(f"barrier origin {origin!r} not in {PRE_ESTIMATED['S'][0]}")
        if check == 1:
            raise ModelError(f"barrier destination {dest!r} has no interception/yield data")
        if check == 2:
            try:
                parse_cost(cell(k), f"{BARRIERS[1]} in {path.name}")
            except ValueError as e:
                raise ModelError(f"line {line}: {e}") from None
        raise ModelError(f"line {line}: barrier {origin},{dest} = {float(values[k])}")
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
    """Load the four pre-estimated parameter tables from a directory, in PRE_ESTIMATED's order."""
    directory = Path(directory)
    vectors = {param: {code: _parse_float(row[1], line, f"{column} in {name}", sign=sign)
                       for line, code, row in _rows(directory / name, ["code", column])}
               for param, (name, column, sign) in PRE_ESTIMATED.items()}
    targets = {*vectors["I"], *vectors["Y"]}
    return ModelParams(T=_load_barriers(directory / BARRIERS[0], vectors["S"], targets), **vectors)


def write_pre_estimated(params: ModelParams, directory: str | Path) -> None:
    """The four tables as :func:`load_pre_estimated` reads them, a blocked cost as 'inf'."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for param, (name, column, _) in PRE_ESTIMATED.items():
        write_csv(directory / name, ["code", column], sorted(getattr(params, param).items()))
    write_csv(directory / BARRIERS[0], ["origin", "dest", BARRIERS[1]],
              ((i, j, cost_out(v)) for (i, j), v in params.T.items()))


def load_bundle(data_dir: str | Path) -> DataBundle:
    """Load the three raw tables; every migration pair needs a distance, in either direction."""
    data_dir = Path(data_dir)
    countries = load_country_table(data_dir / "countries.csv")
    codes = sorted(countries.codes)
    _, rows, cols, migration, _ = _raw_pairs(data_dir / "migration.csv", codes)
    distance = _load_distances(data_dir / "distance_km.csv", codes, rows, cols)
    return DataBundle(countries, codes, rows, cols, migration, distance)


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


def _text(pattern: tuple[str | None, ...], *columns: Sequence[str]) -> str:
    """Cell k of the columns as ``pattern`` with its None slots filled by columns[0][k],
    columns[1][k], ..., cell after cell: one join over one list interleaving the columns
    and the separators."""
    parts = list(pattern) * len(columns[0])
    for slot, column in zip([i for i, p in enumerate(pattern) if p is None], columns):
        parts[slot::len(pattern)] = column
    return "".join(parts)


def _e05(text: str) -> str:  # orjson's [-]0.0000ddd as repr's [-]d.dde-05
    sign, _, digits = text.partition("0.0000")
    return f"{sign}{digits[0]}.{digits[1:]}".rstrip(".") + "e-05"


# (low, high, fix): fix turns orjson's text of a finite v, low <= abs(v) < high, into repr's
_FIXES = ((1e16, np.inf, lambda text: text.replace("e", "e+")),
          (1e-9, 1e-5, lambda text: f"{text[:-1]}0{text[-1]}"),  # e-7 as e-07
          (1e-5, 1e-4, _e05))


def _reprs(values: np.ndarray, dumps: Callable[[list], bytes] | None) -> list[str]:
    """The repr of each float of ``values``; with ``dumps``, orjson's shortest round-trip
    digits by one call to it, in repr's form where :data:`_FIXES` puts it back, and repr for
    nan and the infinities, which orjson writes as null.  ``tolist`` hands either formatter
    float64's digits, whatever ``values``' dtype."""
    floats = values.tolist()
    if dumps is None or not floats:  # orjson's "[]" would split into one empty text
        return list(map(repr, floats))
    text = dumps(floats).decode()[1:-1].split(",")
    size = abs(values.astype(float, copy=False))
    other = np.flatnonzero(~((size >= 1e-4) & (size < 1e16)))  # nan too: it compares False
    if other.size:
        size = size[other]
        for low, high, fix in _FIXES:
            for k in other[(size >= low) & (size < high)].tolist():
                text[k] = fix(text[k])
        for k in other[~np.isfinite(size)].tolist():
            text[k] = repr(floats[k])
    return text


def write_cells(values: np.ndarray, rows: list[str], cols: list[str], path: str | Path,
                header: list[str], plot_path: str | Path | None = None,
                json_file: tuple[str | Path, dict] | None = None) -> None:
    """Write each nonzero cell of ``values`` as a CSV row (row code, column code, value).

    The codes are sorted and of :data:`CODE`, as the loaders hold them, so each is its own CSV
    cell and JSON string, and rows follow row-major order, which is sorted order.  One pass
    over blocks of ``ceil(BLOCK_CELLS / len(cols))`` rows formats each value once, as its
    repr (what csv and json write for a float), and feeds that text to every file, each
    block's as one string per file (see :func:`_text`): one orjson call per block in a table
    of at least 4 * BLOCK_CELLS cells (see :func:`_reprs`), and repr in a smaller one, where
    importing orjson would cost more than it saves.  The files:

    - ``plot_path``: the same rows under the header (*header[:2], "value",
      "normalized"), where normalized is the value over the largest value;
    - ``json_file`` = (path, doc): ``doc`` as :func:`write_json` writes it,
      with the value column's name, ``header[2]``, keying the object that maps
      "row->col" to the value.  Its keys sort in row-major order, as every code
      character sorts above the "-" of "->".
    """
    # each code's CSV cell and the comma after it; below, each JSON key's row half, after
    # the comma and newline that end the cell before it
    row_csv = np.array([f"{c}," for c in rows], dtype=object)
    col_csv = np.array([f"{c}," for c in cols], dtype=object)
    dumps = None  # orjson loads where it saves more than its import costs
    if values.size >= 4 * BLOCK_CELLS:
        from orjson import dumps
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
            (json_path, doc), key = json_file, header[2]
            # only top-level keys follow a newline and two spaces: the marker is key's own line
            marker = f"\n  {json.dumps(key)}: {{}}"
            head, _, tail = json.dumps({**doc, key: {}}, indent=2, sort_keys=True).partition(marker)
            js = stack.enter_context(Path(json_path).open("w", encoding="utf-8"))
            js.write(head + marker[:-1])
            row_key = np.array([f',\n    "{c}->' for c in rows], dtype=object)
            col_key = np.array([f'{c}": ' for c in cols], dtype=object)
        written = False  # whether the JSON object holds a cell yet
        step = -(-BLOCK_CELLS // max(len(cols), 1))  # rows per block
        for start in range(0, len(rows), step):
            block = values[start:start + step]
            r, c = np.nonzero(block)
            if not r.size:
                continue
            v = block[r, c]
            r += start
            text = _reprs(v, dumps)
            codes = (row_csv[r].tolist(), col_csv[c].tolist())
            out.write(_text((None, None, None, "\r\n"), *codes, text))
            if plot:
                plot.write(_text((None, None, None, ",", None, "\r\n"), *codes, text,
                                 _reprs(v / peak, dumps)))
            if js:
                lines = _text((None, None, None), row_key[r].tolist(), col_key[c].tolist(), text)
                js.write(lines if written else lines[1:])  # the object's first cell: no comma
                written = True
        if js:
            js.write(("\n  }" if written else "}") + tail + "\n")
