"""Observed-rainfall panels and the text formats the command line consumes.

Rainfall lives in a wide CSV: first column `date` (ISO-8601), remaining
headers are location ids in the locations-file order, one row per day.
Feature and marginal-cache CSVs are long format, one row per (date,
location) cell, date-major (all locations for the first date, then the
next). Every CSV is read by read_csv, which rejects a wrong field count, a
non-numeric or non-finite (NaN, inf, -inf) cell and, where asked, a negative
one, naming the file, row and column; each reader adds only the checks of its
own format. Flat key=value files go through read_kv.

Every CSV the package writes goes through write_csv, whose cells the caller
has already formatted: repr of a Python float (the shortest text that reads
back to the same double), or format_rain for rainfall, which writes a dry
cell as the bare token 0. The one exception is locations.csv, written by
csv.writer with its CRLF line ends.
"""

from __future__ import annotations

import sys
from array import array

import numpy as np

__all__ = ["IngestError", "RainPanel", "read_csv", "read_kv", "write_csv", "format_rain",
           "read_rain_csv", "write_rain_csv",
           "read_features_csv", "write_features_csv",
           "read_marginals_csv", "write_marginals_csv"]


class IngestError(ValueError):
    """Malformed or misaligned input file."""


class RainPanel:
    """Nonnegative (n_locations, n_days) rainfall with day labels and location ids."""

    def __init__(self, values: np.ndarray, location_ids, day_labels):
        self.values = np.asarray(values, dtype=float)
        self.location_ids = tuple(str(i) for i in location_ids)
        self.day_labels = tuple(str(d) for d in day_labels)
        if self.values.ndim != 2:
            raise ValueError("panel values must be 2-d (n_locations, n_days)")
        n, t = self.values.shape
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
        return self.values.shape[0]

    @property
    def n_days(self) -> int:
        return self.values.shape[1]


def _reject_bad_cells(path, values: np.ndarray, row_nos, header, first_column: int,
                      nonnegative: bool = False) -> None:
    """Raise IngestError at the first non-finite (or negative) parsed cell.

    values is (rows, columns) as parsed, row_nos the file row of each, and
    first_column the 1-based file column of values[:, 0].
    """
    bad = ~np.isfinite(values)
    if nonnegative:
        bad |= values < 0.0
    if not bad.any():
        return
    r, k = np.unravel_index(np.argmax(bad), bad.shape)
    v = float(values[r, k])
    what = f"non-finite value {v!r}" if not np.isfinite(v) else "negative rainfall"
    col = k + first_column
    raise IngestError(f"{path}: row {row_nos[r]}: {what} in column {col} "
                      f"({header[col - 1]})")


def read_csv(path, n_keys: int, check_header, nonnegative: bool = False):
    """Parse a CSV of n_keys text key columns followed by float cells.

    check_header(header) raises IngestError for a header of the wrong format
    before any row is read. Blank lines are skipped; a wrong field count, a
    non-numeric or non-finite cell and, with nonnegative, a negative one raise
    IngestError naming the file, row and column. Returns (keys, values,
    row_nos): one text list per key column, the (rows, columns - n_keys) float
    array of the cells and the 1-based file row of each data row.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        check_header(header)
        width = len(header)
        keys = [[] for _ in range(n_keys)]
        cells = array("d")  # 8 bytes a cell, where a list of Python floats takes 32
        row_nos = []
        for row_no, line in enumerate(fh, start=2):
            line = line.rstrip("\r\n")
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
                column.append(sys.intern(token))  # dates and ids repeat row after row
            row_nos.append(row_no)
    values = np.frombuffer(cells, dtype=float).reshape(len(row_nos), width - n_keys)
    _reject_bad_cells(path, values, row_nos, header, n_keys + 1, nonnegative)
    return keys, values, row_nos


def read_kv(path) -> dict:
    """Read flat key=value lines (# starts a comment): key -> (line number, stripped text)."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise IngestError(f"{path}: line {line_no}: expected key=value")
            key, _, val = line.partition("=")
            out[key.strip()] = (line_no, val.strip())
    return out


def write_csv(path, header, rows) -> None:
    """Write a header, then each row of formatted cells as it arrives; commas, LF ends."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def format_rain(v: float) -> str:
    """Rainfall cell text: 0 for a dry cell, the round-trip repr otherwise."""
    return "0" if v == 0.0 else repr(float(v))


def _cell_keys(panel: RainPanel):
    """(date, loc) of every panel cell, date-major."""
    return ((label, loc) for label in panel.day_labels for loc in panel.location_ids)


def write_rain_csv(path, panel: RainPanel) -> None:
    write_csv(path, ["date", *panel.location_ids],
              ([label, *map(format_rain, panel.values[:, s].tolist())]
               for s, label in enumerate(panel.day_labels)))


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

    (labels,), values, _ = read_csv(path, 1, check_header, nonnegative=True)
    if not labels:
        raise IngestError(f"{path}: no data rows")
    return RainPanel(values=values.T, location_ids=locs.ids, day_labels=labels)


def write_features_csv(path, panel: RainPanel, features: np.ndarray) -> None:
    """Long feature CSV: date,loc,x0..x{d-1}; rows date-major over panel cells."""
    x = np.asarray(features, dtype=float)
    if x.shape[0] != panel.n_locations * panel.n_days:
        raise ValueError("feature rows do not cover the panel")
    write_csv(path, ["date", "loc", *(f"x{k}" for k in range(x.shape[1]))],
              ([*key, *map(repr, row)] for key, row in zip(_cell_keys(panel), x.tolist())))


def _read_long_csv(path, panel: RainPanel, value_names):
    """Shared reader for date-major long CSVs keyed by (date, loc); returns the values."""
    def check_header(header):
        if header[:2] != ["date", "loc"]:
            raise IngestError(f"{path}: header must start with 'date,loc'")
        if value_names is not None and header[2:] != value_names:
            raise IngestError(f"{path}: expected value columns {value_names}, "
                              f"got {header[2:]}")

    (dates, locs), values, row_nos = read_csv(path, 2, check_header)
    cells = panel.n_locations * panel.n_days
    if len(row_nos) != cells:
        raise IngestError(f"{path}: {len(row_nos)} rows but the panel has {cells} cells")
    for row_no, date, loc, (want_date, want_loc) in zip(row_nos, dates, locs,
                                                         _cell_keys(panel)):
        if date != want_date:
            raise IngestError(f"{path}: row {row_no}: date {date!r} does not "
                              f"match panel order (expected {want_date!r})")
        if loc != want_loc:
            raise IngestError(f"{path}: row {row_no}: loc {loc!r} does not "
                              f"match panel order (expected {want_loc!r})")
    return values


def read_features_csv(path, panel: RainPanel) -> np.ndarray:
    """Read a feature CSV aligned with the panel; returns (n*t, d), date-major."""
    return _read_long_csv(path, panel, value_names=None)


def write_marginals_csv(path, panel: RainPanel, field) -> None:
    """Marginal cache CSV: date,loc,p,mu,phi; rows date-major over panel cells."""
    cells = np.stack([field.p.T, field.mu.T, field.phi.T], axis=-1).reshape(-1, 3).tolist()
    write_csv(path, ["date", "loc", "p", "mu", "phi"],
              ([*key, *map(repr, row)] for key, row in zip(_cell_keys(panel), cells)))


def read_marginals_csv(path, panel: RainPanel):
    """Read a marginal cache back into a MarginalField aligned with the panel."""
    from .marginals import MarginalField

    values = _read_long_csv(path, panel, value_names=["p", "mu", "phi"])
    return MarginalField.from_flat(values[:, 0], values[:, 1], values[:, 2],
                                   panel.n_locations, panel.n_days)
