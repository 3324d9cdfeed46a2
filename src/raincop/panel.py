"""Observed-rainfall panels and the text formats the command line consumes.

Rainfall lives in a wide CSV: first column `date` (ISO-8601), remaining
headers are location ids in the locations-file order, one row per day.
Feature, marginal-cache and ensemble CSVs are long, read by read_long_csv: a
(date, location) cell or (day, replicate) draw a row, day-major like the one
layout of every panel-shaped array in memory, (n_days, n_locations) in C order
(RainPanel.values, MarginalField's p, mu and phi). Every CSV is parsed by
one generator, _csv_blocks, which rejects a wrong field count, a non-numeric
or non-finite (NaN, inf, -inf) cell and, where asked, a negative one, naming
the file, row and column. Each reader is a loop over its blocks that adds
only the checks of its own format, on each block's keys as arrays, and drops
the block before the next is parsed: read_csv (a whole wide file) collects
them, read_long_csv yields their rows in key order. Flat key=value files go
through read_kv.

_csv_blocks takes the file in blocks of about _CHARS_PER_COLUMN characters
per column, at most _BLOCK_CHARS, and parses each with one np.loadtxt call
into object arrays of str keys, each the file's text at any length, and
float64 cells. Any token float() accepts gets float()'s value: a block that
loadtxt rejects (1_0, non-ASCII digits, a wrong field count, a non-numeric
cell) or that holds a character of _BULK_UNSAFE goes through the line
parser, which reads each line with str.split and float(), gives the same
keys and words every error. The line parser runs on no other block. The
readers count data rows; a message that names a file row finds it with
file_row, which reads the file again.

Every CSV the package writes goes through write_csv, and every float cell
in it through float_text: the repr of a Python float (the shortest text that
reads back to the same double), and for rainfall the bare token 0 for a dry
cell. Every JSON file goes through write_json.
"""

from __future__ import annotations

import json
import re
from array import array
from contextlib import contextmanager
from itertools import chain, islice

import numpy as np

from .numerics import day_chunks

__all__ = ["IngestError", "RainPanel", "read_csv", "file_row", "reject_cells", "reject_repeat",
           "read_kv", "write_csv", "write_json", "float_text",
           "read_rain_csv", "write_rain_csv",
           "read_long_csv", "read_features_csv", "write_features_csv",
           "read_marginals_csv", "write_marginals_csv"]


# Text parsed by one np.loadtxt call, per column of the header up to 32 columns,
# so the per-block calls stay small beside the parse. A block (its text, lines
# and parsed record) takes about 7 bytes a character: _BLOCK_CHARS caps it.
_CHARS_PER_COLUMN = 4096
_BLOCK_CHARS = 1 << 17
# What the bulk parse would read differently from the line parser: the
# separators \x1c-\x1f, which np.loadtxt strips around a number as whitespace
# and float() rejects.
_BULK_UNSAFE = "\x1c\x1d\x1e\x1f"


class IngestError(ValueError):
    """Malformed or misaligned input file."""


class RainPanel:
    """Nonnegative (n_days, n_locations) rainfall with day labels and location ids."""

    def __init__(self, values: np.ndarray, location_ids, day_labels):
        self.values = np.asarray(values, dtype=float)
        self.location_ids = tuple(str(i) for i in location_ids)
        self.day_labels = tuple(str(d) for d in day_labels)
        if self.values.ndim != 2:
            raise ValueError("panel values must be 2-d (n_days, n_locations)")
        t, n = self.values.shape
        if len(self.location_ids) != n or len(self.day_labels) != t:
            raise ValueError("panel labels do not match the value matrix shape")
        if len(set(self.day_labels)) != t:
            raise ValueError("day labels must be unique")
        if len(set(self.location_ids)) != n:
            raise ValueError("location ids must be unique")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("panel contains non-finite cells")
        if np.any(self.values < 0.0):
            raise ValueError("panel contains negative rainfall")

    @property
    def n_locations(self) -> int:
        return self.values.shape[1]

    @property
    def n_days(self) -> int:
        return self.values.shape[0]


def _parse_lines(path, header, n_keys: int, lines, row_no: int):
    """The line parser: (keys, values) of lines, the first at file row row_no.

    Blank lines are skipped. A wrong field count or a token float() rejects
    raises IngestError naming the row and column. keys holds one text list per
    key column (n_keys >= 1) and values the (rows, columns - n_keys) cells.
    """
    width = len(header)
    keys = [[] for _ in range(n_keys)]
    cells = array("d")  # 8 bytes a cell, where a list of Python floats takes 32
    for row_no, line in enumerate(lines, start=row_no):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise IngestError(f"{path}: row {row_no}: expected {width} fields, "
                              f"got {len(parts)}")
        try:
            cells.extend(map(float, parts[n_keys:]))
        except ValueError:
            for col, token in enumerate(parts[n_keys:], start=n_keys + 1):
                try:
                    float(token)
                except ValueError:
                    raise IngestError(f"{path}: row {row_no}: non-numeric value "
                                      f"{token!r} in column {col} ({header[col - 1]})"
                                      ) from None
        for column, token in zip(keys, parts):
            column.append(token)
    return keys, np.frombuffer(cells, dtype=float).reshape(len(keys[0]), width - n_keys)


def _parse_block(path, header, n_keys: int, dtype: np.dtype, text: str, row_no: int):
    """(keys, values) of a block of whole lines of a CSV body, the first at file row row_no.

    keys holds one object array of str per key column and values the (rows,
    cells) floats. One np.loadtxt call parses the block unless it holds a
    character of _BULK_UNSAFE or loadtxt rejects it; such a block goes through
    the line parser, which words the error of a wrong field count or a
    non-numeric cell.
    """
    lines = text.split("\n")
    if any(lines) and not any(c in text for c in _BULK_UNSAFE):
        try:
            rec = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                             quotechar=None, ndmin=1)
            return [rec[f"k{i}"] for i in range(n_keys)], np.ascontiguousarray(rec["v"])
        except ValueError:
            pass
    keys, values = _parse_lines(path, header, n_keys, lines, row_no)
    return [np.array(column, dtype=object) for column in keys], values


def file_row(path, r: int) -> int:
    """The file row of data row r (from 0; blank lines hold none) of a CSV.

    It reads the file again, so only a message that names a row calls it.
    """
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        rows = (row_no for row_no, line in enumerate(fh, start=2) if line != "\n")
        return next(islice(rows, r, None))


@contextmanager
def _utf8_text(path, line_word: str):
    """The open UTF-8 text of path; a byte that is not UTF-8 raises IngestError.

    The error names the byte's line (as line_word) and offset in the file,
    found by decoding the bytes again line by line, on this error path only
    (no multi-byte character holds a newline byte).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as raw:
            offset = 0
            for line_no, line in enumerate(raw, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise IngestError(f"{path}: {line_word} {line_no}: byte {offset + exc.start}"
                                      f" is not UTF-8 ({exc.reason})") from None
                offset += len(line)
        raise


def _csv_blocks(path, n_keys: int, check_header, nonnegative: bool = False):
    """Yield the header of a CSV of n_keys text key columns then float cells, then its blocks.

    check_header(header) raises IngestError for a header of the wrong format
    before any row is read; the header comes first, then (keys, values, first)
    of each block in file order, up to the block of the first bad cell: keys
    holds its key columns as arrays, values its (rows, columns - n_keys)
    cells and first the index of its first data row (file_row names the row
    of a data row index). Blank lines are skipped; a wrong field count, a
    non-numeric or non-finite cell and, with nonnegative, a negative one raise
    IngestError naming the file, row and column: the first wrong field count
    or non-numeric cell as soon as its block is parsed, else, once the last
    block is read, the first non-finite or negative cell. Every token float()
    accepts is accepted, with the value float() gives. The generator holds
    one block at a time, of at most about _BLOCK_CHARS characters.
    """
    with _utf8_text(path, "row") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        check_header(header)
        yield header
        dtype = np.dtype([*((f"k{i}", object) for i in range(n_keys)),
                          ("v", "f8", (len(header) - n_keys,))])
        n_rows, row_no, bad = 0, 2, None  # bad: (data row, column, value) of the first bad cell
        block_chars = min(_CHARS_PER_COLUMN * len(header), _BLOCK_CHARS)
        while text := fh.read(block_chars):
            if not text.endswith("\n"):
                text += fh.readline()
            keys, values = _parse_block(path, header, n_keys, dtype, text, row_no)
            if bad is None:
                wrong = ~np.isfinite(values)
                if nonnegative:
                    wrong |= values < 0.0
                if wrong.any():
                    r, k = np.unravel_index(np.argmax(wrong), wrong.shape)
                    bad = n_rows + r, k + n_keys + 1, float(values[r, k])
            if bad is None:
                yield keys, values, n_rows
            n_rows += len(values)
            row_no += text.count("\n")
            del keys, values, text  # before the next block is read
    if bad is not None:
        r, col, v = bad
        what = f"non-finite value {v!r}" if not np.isfinite(v) else "negative rainfall"
        raise IngestError(f"{path}: row {file_row(path, r)}: {what} in column {col} "
                          f"({header[col - 1]})")


def reject_cells(path, header, values, wrong, words) -> None:
    """Reject the first cell, in file order, where wrong holds, naming its row and column.

    values and wrong are the (data rows, cells) of header's last columns; the
    message gives the cell's value, then words[k] for a cell of column k."""
    if wrong.any():
        r, k = np.unravel_index(np.argmax(wrong), wrong.shape)
        col = len(header) - values.shape[1] + k + 1
        raise IngestError(f"{path}: row {file_row(path, r)}: value {float(values[r, k])!r} "
                          f"{words[k]} in column {col} ({header[col - 1]})")


def reject_repeat(path, keys, what) -> None:
    """Reject the first of keys (one a data row) that repeats an earlier one, naming its row."""
    if len(set(keys)) < len(keys):
        seen = set()
        r = next(r for r, key in enumerate(keys) if key in seen or seen.add(key))
        raise IngestError(f"{path}: row {file_row(path, r)}: {what} {keys[r]!r} "
                          "repeats an earlier row")


def read_csv(path, check_header, nonnegative: bool = False):
    """(keys, values) of a whole CSV of one text key column then float cells.

    keys lists the key of every data row, values holds the (rows, columns - 1)
    cells; check_header, nonnegative and the errors are as in _csv_blocks.
    """
    blocks = _csv_blocks(path, 1, check_header, nonnegative)
    keys, cells, width = [], array("d"), len(next(blocks)) - 1
    for block_keys, values, _ in blocks:
        keys.extend(block_keys[0])
        cells.frombytes(memoryview(values.ravel()).cast("B"))
        del block_keys, values  # before the next block is read
    return keys, np.frombuffer(cells, dtype=float).reshape(len(keys), width)


def read_kv(path) -> dict:
    """Read key=value lines, each key once: key -> (line number, text). A # starts a
    comment at the start of a line or after whitespace; in a value (res#2) it is text."""
    out = {}
    with _utf8_text(path, "line") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise IngestError(f"{path}: line {line_no}: expected key=value")
            key, _, val = map(str.strip, line.partition("="))
            if key in out:
                raise IngestError(f"{path}: line {line_no}: {key} repeats line {out[key][0]}")
            out[key] = (line_no, val)
    return out


def write_csv(path, header, rows) -> None:
    """Write a header, then each row of formatted cells as it arrives; commas, LF ends."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_json(path, payload) -> None:
    """Deterministic JSON: keys sorted, two-space indent, a final line end."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def float_text(cells, rain: bool = False) -> list:
    """Text of a row of float cells: the repr of each as a Python float; with rain, 0 if dry."""
    if rain:
        return ["0" if v == 0.0 else repr(float(v)) for v in cells]
    return [repr(float(v)) for v in cells]


def _cell_keys(panel: RainPanel):
    """(date, loc) of every panel cell, date-major."""
    return ((label, loc) for label in panel.day_labels for loc in panel.location_ids)


def write_rain_csv(path, panel: RainPanel) -> None:
    write_csv(path, ["date", *panel.location_ids],
              ([label, *float_text(row.tolist(), rain=True)]
               for label, row in zip(panel.day_labels, panel.values)))


def read_rain_csv(path, locs) -> RainPanel:
    """Read a wide rainfall CSV whose id columns must match a LocationTable's ids."""
    def check_header(header):
        if header[0] != "date":
            raise IngestError(f"{path}: first header column must be 'date'")
        if tuple(header[1:]) != locs.ids:
            for k, (got, want) in enumerate(zip(header[1:], locs.ids)):
                if got != want:
                    raise IngestError(
                        f"{path}: column {k + 2}: id {got!r} does not match "
                        f"locations file ({want!r})"
                    )
            raise IngestError(
                f"{path}: {len(header) - 1} id columns but {len(locs)} locations"
            )

    labels, values = read_csv(path, check_header, nonnegative=True)
    if not labels:
        raise IngestError(f"{path}: no data rows")
    reject_repeat(path, labels, "date")
    return RainPanel(values=values, location_ids=locs.ids, day_labels=labels)


def _write_long_csv(path, panel: RainPanel, value_names, cells) -> None:
    """Long CSV date,loc,*value_names over panel cells, one day chunk at a time.

    cells(days) gives the (cells, len(value_names)) values of a day slice."""
    chunks = day_chunks(panel.n_days, panel.n_locations * max(len(value_names), 1))
    rows = (row for days in chunks for row in cells(days).tolist())
    write_csv(path, ["date", "loc", *value_names],
              ([*key, *float_text(row)] for key, row in zip(_cell_keys(panel), rows)))


def write_features_csv(path, panel: RainPanel, features: np.ndarray) -> None:
    """Long feature CSV: date,loc,x0..x{d-1}; rows date-major, a day chunk at a time."""
    x, n = np.asarray(features, dtype=float), panel.n_locations
    if x.shape[0] != n * panel.n_days:
        raise ValueError("feature rows do not cover the panel")
    _write_long_csv(path, panel, [f"x{k}" for k in range(x.shape[1])],
                    lambda days: x[days.start * n:days.stop * n])


def _first_day(blocks):
    """(k, the same blocks): k the first day's row count, from the blocks up to its end."""
    held, day = [], []
    for block in blocks:
        held.append(block)
        day.extend(block[0][0])
        if any(key != day[0] for key in block[0][0]):
            break
    k = next((r for r, key in enumerate(day) if key != day[0]), len(day))
    return k, chain((held.pop(0) for _ in range(len(held))), blocks)  # each let go once read


def _keyed_in_order(keys, first, outer_keys, inner_keys, header):
    """(count, misordered) of a block of a long CSV whose first row is data row first.

    count is how many of its leading rows are keyed (outer[r // k], inner[r % k])
    within the panel's len(outer) * k rows (later rows are only counted);
    misordered is None, or the data row of the first row out of order and its message.
    """
    k = len(inner_keys)
    rows = np.arange(first, min(first + len(keys[0]), len(outer_keys) * k))
    wants = outer_keys[rows // k], inner_keys[rows % k]
    bad = [column[:len(rows)] != want for column, want in zip(keys, wants)]
    if not (bad[0] | bad[1]).any():
        return len(rows), None
    r = int(np.argmax(bad[0] | bad[1]))
    c = 0 if bad[0][r] else 1
    return r, (first + r, f"{header[c]} {keys[c][r]!r} does not match panel order "
                          f"(expected {wants[c][r]!r})")


def read_long_csv(path, check_header, outer, inner=None, nonnegative=False):
    """Yield the row blocks of a long CSV whose data row r is keyed (outer[r // k], inner[r % k]).

    outer is the panel's days; inner=None stands for the replicate numbers
    "0", ..., str(k - 1), k the first day's row count. A key matches only
    its exact text, whatever its length and characters. check_header and
    nonnegative are as in read_csv. Each block comes as (values, first, k):
    the (rows, cells) values of data rows first, first + 1, ..., every one
    keyed in order, in file order up to the first row out of order. It holds
    one block at a time, or the first day's blocks until that day ends.

    IngestError names the file: a wrong field count or non-numeric cell as
    soon as its block is parsed (as in read_csv); once the last block is
    read, a non-finite or negative cell, then a row count other than
    len(outer) * k, then the first row out of order and its wrong key.
    """
    blocks = _csv_blocks(path, 2, check_header, nonnegative)
    header = next(blocks)
    if inner is None:
        k, blocks = _first_day(blocks)
        inner = list(map(str, range(k)))
    outer_keys, inner_keys = np.array(outer, dtype=object), np.array(inner, dtype=object)
    k = len(inner)
    n_rows, misordered = 0, None
    for keys, values, first in blocks:
        n_rows = first + len(values)
        if misordered is None:
            in_order, misordered = _keyed_in_order(keys, first, outer_keys, inner_keys, header)
            if in_order:
                yield values[:in_order], first, k
        del keys, values  # before the next block is read
    if n_rows != len(outer) * k:
        raise IngestError(f"{path}: {n_rows} rows but the panel's {len(outer)} days "
                          f"need {len(outer) * k} ({k} a day)")
    if misordered is not None:
        raise IngestError(f"{path}: row {file_row(path, misordered[0])}: {misordered[1]}")


def _read_panel_cells(path, panel: RainPanel, value_names):
    """The values of a long CSV keyed by (date, loc) over the panel's cells."""
    def check_header(header):
        if header[:2] != ["date", "loc"]:
            raise IngestError(f"{path}: header must start with 'date,loc'")
        if value_names is not None and header[2:] != value_names:
            raise IngestError(f"{path}: expected value columns {value_names}, "
                              f"got {header[2:]}")

    out = None
    for values, first, _ in read_long_csv(path, check_header, panel.day_labels,
                                          panel.location_ids):
        if out is None:
            out = np.empty((panel.values.size, values.shape[1]))
        out[first:first + len(values)] = values
        del values  # before the next block is read
    return out


def read_features_csv(path, panel: RainPanel) -> np.ndarray:
    """Read a feature CSV aligned with the panel; returns (n*t, d), date-major."""
    return _read_panel_cells(path, panel, value_names=None)


def write_marginals_csv(path, panel: RainPanel, field) -> None:
    """Marginal cache CSV: date,loc,p,mu,phi; rows date-major, a day chunk at a time."""
    _write_long_csv(path, panel, ["p", "mu", "phi"],
                    lambda days: np.stack([field.p[days], field.mu[days], field.phi[days]],
                                          axis=-1).reshape(-1, 3))


def read_marginals_csv(path, panel: RainPanel):
    """Read a marginal cache into a MarginalField aligned with the panel, each cell in range."""
    from .marginals import MarginalField

    values = _read_panel_cells(path, panel, value_names=["p", "mu", "phi"])
    p, mu, phi = values.T
    reject_cells(path, ["date", "loc", "p", "mu", "phi"], values,
                 np.stack([(p < 0.0) | (p > 1.0), mu <= 0.0, phi <= 0.0], axis=1),
                 ["outside [0, 1]", "not above 0", "not above 0"])
    return MarginalField(*(v.reshape(panel.n_days, panel.n_locations) for v in (p, mu, phi)))
