"""Observed-rainfall panels and the CSV formats the command line consumes.

Rainfall lives in a wide CSV: first column `date` (ISO-8601), remaining
headers are location ids in the locations-file order, one row per day.
Feature and marginal-cache CSVs are long format, one row per (date,
location) cell, date-major (all locations for the first date, then the
next). Ingestion rejects non-finite values (NaN, inf, -inf), negative
rainfall, and id mismatches with messages naming the file, row, and column.
"""

from __future__ import annotations

import numpy as np

from .spatial import LocationTable

__all__ = ["IngestError", "RainPanel", "read_rain_csv", "write_rain_csv",
           "read_features_csv", "write_features_csv",
           "read_marginals_csv", "write_marginals_csv"]


class IngestError(Exception):
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


def _fmt(v: float) -> str:
    return "0" if v == 0.0 else repr(float(v))


def write_rain_csv(path, panel: RainPanel) -> None:
    lines = ["date," + ",".join(panel.location_ids)]
    for s, label in enumerate(panel.day_labels):
        lines.append(label + "," + ",".join(_fmt(v) for v in panel.values[:, s]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_rain_csv(path, locs: LocationTable) -> RainPanel:
    """Read a wide rainfall CSV, validating against the locations table."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if not header or header[0] != "date":
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
        labels = []
        rows = []
        row_nos = []
        for row_no, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise IngestError(f"{path}: row {row_no}: expected {len(header)} fields, "
                                  f"got {len(parts)}")
            labels.append(parts[0])
            try:
                rows.append([float(v) for v in parts[1:]])
            except ValueError:
                raise IngestError(f"{path}: row {row_no}: non-numeric rainfall") from None
            row_nos.append(row_no)
    if not rows:
        raise IngestError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=float)
    _reject_bad_cells(path, values, row_nos, header, first_column=2, nonnegative=True)
    return RainPanel(values=values.T, location_ids=locs.ids, day_labels=labels)


def write_features_csv(path, panel: RainPanel, features: np.ndarray) -> None:
    """Long feature CSV: date,loc,x0..x{d-1}; rows date-major over panel cells."""
    x = np.asarray(features, dtype=float)
    n, t = panel.n_locations, panel.n_days
    if x.shape[0] != n * t:
        raise ValueError("feature rows do not cover the panel")
    d = x.shape[1]
    lines = ["date,loc," + ",".join(f"x{k}" for k in range(d)) if d else "date,loc"]
    r = 0
    for s in range(t):
        for i in range(n):
            cells = [panel.day_labels[s], panel.location_ids[i]]
            cells += [repr(float(v)) for v in x[r]]
            lines.append(",".join(cells))
            r += 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_long_csv(path, panel: RainPanel, value_names):
    """Shared reader for date-major long CSVs keyed by (date, loc)."""
    n, t = panel.n_locations, panel.n_days
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[:2] != ["date", "loc"]:
            raise IngestError(f"{path}: header must start with 'date,loc'")
        names = header[2:]
        if value_names is not None and names != list(value_names):
            raise IngestError(f"{path}: expected value columns {list(value_names)}, "
                              f"got {names}")
        out = np.empty((n * t, len(names)))
        row_nos = []
        row_no = 1
        r = 0
        for line in fh:
            row_no += 1
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2 + len(names):
                raise IngestError(f"{path}: row {row_no}: expected {2 + len(names)} "
                                  f"fields, got {len(parts)}")
            if r >= n * t:
                raise IngestError(f"{path}: row {row_no}: more rows than panel cells")
            s, i = divmod(r, n)
            if parts[0] != panel.day_labels[s]:
                raise IngestError(f"{path}: row {row_no}: date {parts[0]!r} does not "
                                  f"match panel order (expected {panel.day_labels[s]!r})")
            if parts[1] != panel.location_ids[i]:
                raise IngestError(f"{path}: row {row_no}: loc {parts[1]!r} does not "
                                  f"match panel order (expected {panel.location_ids[i]!r})")
            try:
                out[r] = [float(v) for v in parts[2:]]
            except ValueError:
                raise IngestError(f"{path}: row {row_no}: non-numeric value") from None
            row_nos.append(row_no)
            r += 1
    if r != n * t:
        raise IngestError(f"{path}: {r} rows but the panel has {n * t} cells")
    _reject_bad_cells(path, out, row_nos, header, first_column=3)
    return names, out


def read_features_csv(path, panel: RainPanel) -> np.ndarray:
    """Read a feature CSV aligned with the panel; returns (n*t, d), date-major."""
    _, values = _read_long_csv(path, panel, value_names=None)
    return values


def write_marginals_csv(path, panel: RainPanel, field) -> None:
    """Marginal cache CSV: date,loc,p,mu,phi; rows date-major over panel cells."""
    lines = ["date,loc,p,mu,phi"]
    for s in range(panel.n_days):
        for i in range(panel.n_locations):
            lines.append(
                f"{panel.day_labels[s]},{panel.location_ids[i]},"
                f"{repr(float(field.p[i, s]))},{repr(float(field.mu[i, s]))},"
                f"{repr(float(field.phi[i, s]))}"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_marginals_csv(path, panel: RainPanel):
    """Read a marginal cache back into a MarginalField aligned with the panel."""
    from .marginals import MarginalField

    _, values = _read_long_csv(path, panel, value_names=["p", "mu", "phi"])
    return MarginalField.from_flat(values[:, 0], values[:, 1], values[:, 2],
                                   panel.n_locations, panel.n_days)
