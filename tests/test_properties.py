"""Property tests: file round-trips through the shared CSV reader and writer, the writer's
streamed rows matching one joined string, the bulk CSV parse agreeing with the line parser,
file_row agreeing with the line parser's row numbers, censoring being idempotent, the
mixture quantile and CDF inverting each other, and every module's exports resolving."""

import importlib
import os
import pathlib
import pkgutil
import tempfile
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import raincop
from raincop.copula import censor, read_ensemble, write_ensemble
from raincop.marginals import (IdentityTransform, JglmCoefficients, MarginalField,
                               StandardizeTransform, mixture_cdf, mixture_quantile,
                               read_coefficients, write_coefficients)
from raincop import numerics as numerics_module
from raincop import panel as panel_module
from raincop.panel import (IngestError, RainPanel, read_features_csv, read_marginals_csv,
                           read_rain_csv, write_csv, write_features_csv, write_marginals_csv,
                           write_rain_csv)
from raincop.spatial import LocationTable, read_locations, write_locations

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
# Rainfall: exact zeros (the `0` token) mixed with any nonnegative double.
RAIN = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e300))


def draw_grid(data, elements, rows, cols):
    """A (rows, cols) float array drawn from elements."""
    cells = data.draw(st.lists(elements, min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=float).reshape(rows, cols)


def panel_of(values):
    t, n = values.shape
    return RainPanel(values, [f"s{i}" for i in range(n)], [f"d{s}" for s in range(t)])


def locations(ids):
    zeros = np.zeros(len(ids))
    return LocationTable(ids=ids, lat=zeros, lon=zeros, elev=zeros)


def write_then_read(write, read):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.csv")
        write(path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return read(path), text


def value_cells(text, skip):
    """Cells of every data row after the first `skip` key columns."""
    return [c for line in text.splitlines()[1:] for c in line.split(",")[skip:]]


TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n,"),
               max_size=6)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.one_of(st.just(0), st.just(1), st.integers(2, 40)), st.data())
def test_write_csv_streams_the_joined_text(width, n_rows, data):
    """Rows written as a generator arrives give the bytes of one joined string."""
    header = data.draw(st.lists(TEXT, min_size=width, max_size=width))
    rows = data.draw(st.lists(st.lists(TEXT, min_size=width, max_size=width),
                              min_size=n_rows, max_size=n_rows))
    joined = "\n".join([",".join(header), *(",".join(row) for row in rows)]) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.csv")
        write_csv(path, header, (row for row in rows))
        with open(path, "rb") as fh:
            assert fh.read() == joined.encode("utf-8")


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_rain_round_trip(n, t, data):
    values = draw_grid(data, RAIN, n, t).T
    panel = panel_of(values)
    back, text = write_then_read(lambda p: write_rain_csv(p, panel),
                                 lambda p: read_rain_csv(p, locations(panel.location_ids)))
    assert np.array_equal(back.values, values)
    assert back.day_labels == panel.day_labels
    cells = value_cells(text, 1)
    assert [c == "0" for c in cells] == (values.ravel() == 0.0).tolist()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_marginals_round_trip(n, t, data):
    arrays = [draw_grid(data, elements, n, t).T
              for elements in (st.floats(0.0, 1.0), POSITIVE, POSITIVE)]
    field = MarginalField(*arrays)
    panel = panel_of(np.zeros((t, n)))
    back, _ = write_then_read(lambda p: write_marginals_csv(p, panel, field),
                              lambda p: read_marginals_csv(p, panel))
    for got, want in zip((back.p, back.mu, back.phi), arrays):
        assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 3), st.data())
def test_features_round_trip(n, t, d, data):
    features = draw_grid(data, FINITE, n * t, d)
    panel = panel_of(np.zeros((t, n)))
    back, _ = write_then_read(lambda p: write_features_csv(p, panel, features),
                              lambda p: read_features_csv(p, panel))
    assert back.shape == features.shape
    assert np.array_equal(back, features)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4), st.data())
def test_ensemble_round_trip(whole_ensemble, days, m, n, data):
    blocks = [draw_grid(data, RAIN, m, n) for _ in range(days)]
    ids = [f"s{i}" for i in range(n)]
    labels = [f"d{s}" for s in range(days)]
    back, text = write_then_read(
        lambda p: write_ensemble(p, labels, ids, blocks),
        lambda p: whole_ensemble(p, labels, ids))
    for got, want in zip(back, blocks):
        assert np.array_equal(got, want)
    cells = value_cells(text, 2)
    assert [c == "0" for c in cells] == (np.concatenate(blocks).ravel() == 0.0).tolist()


# A location id: quotes and any other character but a comma or a line end, with no
# whitespace at either end (read_locations strips it).
LOCATION_ID = st.one_of(st.sampled_from(['"', 'a"b']), TEXT.filter(lambda s: s == s.strip()))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.data())
def test_locations_round_trip(n, data):
    ids = data.draw(st.lists(LOCATION_ID, min_size=n, max_size=n, unique=True))
    columns = [data.draw(st.lists(elements, min_size=n, max_size=n))
               for elements in (st.floats(-90.0, 90.0), st.floats(-180.0, 180.0), FINITE)]
    locs = LocationTable(tuple(ids), *columns)
    (back, raw), _ = write_then_read(lambda p: write_locations(p, locs),
                                     lambda p: (read_locations(p), pathlib.Path(p).read_bytes()))
    assert raw.count(b"\n") == n + 1 and b"\r" not in raw  # write_csv's LF line ends
    assert back.ids == locs.ids
    for got, want in zip((back.lat, back.lon, back.elev), columns):
        assert got.tobytes() == np.array(want).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), st.booleans(), st.data())
def test_coefficients_round_trip(d, standardize, data):
    vec = np.array(data.draw(st.lists(FINITE, min_size=3 * (d + 1), max_size=3 * (d + 1))))
    coeffs = JglmCoefficients.unpack(vec, d)
    transform = IdentityTransform()
    if standardize:
        transform = StandardizeTransform(
            mean=data.draw(st.lists(FINITE, min_size=d, max_size=d)),
            scale=data.draw(st.lists(POSITIVE, min_size=d, max_size=d)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "coefficients.txt")
        write_coefficients(path, coeffs, transform)
        back, back_transform = read_coefficients(path)
    assert np.array_equal(back.pack(), vec)
    assert back_transform.name == transform.name
    if standardize:
        assert np.array_equal(back_transform.mean, transform.mean)
        assert np.array_equal(back_transform.scale, transform.scale)


# The bulk parse against the line parser. Each reference below is the reader as it
# was with the line parser alone: the line parser over the whole file, the first
# bad cell, then the reader's own checks, with the same messages.

def line_read(path, n_keys, nonnegative=False):
    """(header, keys, values, row_nos) of a whole file through the line parser.

    row_nos are the file rows of the data rows as the line parser counts them:
    from 2, every line counted, blank ones holding no data row."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        lines = fh.read().split("\n")
    keys, values = panel_module._parse_lines(path, header, n_keys, lines, 2)
    row_nos = [row_no for row_no, line in enumerate(lines, start=2) if line]
    bad = ~np.isfinite(values)
    if nonnegative:
        bad |= values < 0.0
    if bad.any():
        r, k = np.unravel_index(np.argmax(bad), bad.shape)
        v = float(values[r, k])
        what = f"non-finite value {v!r}" if not np.isfinite(v) else "negative rainfall"
        col = k + n_keys + 1
        raise IngestError(f"{path}: row {row_nos[r]}: {what} in column {col} "
                          f"({header[col - 1]})")
    return header, keys, values, row_nos


def check_long_keys(path, names, keys, row_nos, outer, inner):
    """A long CSV's key checks after its cells: the row count, then the first row whose
    keys are not (outer[r // k], inner[r % k])."""
    k = len(inner)
    if len(row_nos) != len(outer) * k:
        raise IngestError(f"{path}: {len(row_nos)} rows but the panel's {len(outer)} days "
                          f"need {len(outer) * k} ({k} a day)")
    order = ((o, i) for o in outer for i in inner)
    for row_no, got, want in zip(row_nos, zip(*keys), order):
        for name, g, w in zip(names, got, want):
            if g != w:
                raise IngestError(f"{path}: row {row_no}: {name} {g!r} does not "
                                  f"match panel order (expected {w!r})")


def line_read_long(path, panel):
    """(values, row_nos) of a long CSV keyed (date, loc) over the panel's cells."""
    _, keys, values, row_nos = line_read(path, 2)
    check_long_keys(path, ["date", "loc"], keys, row_nos, panel.day_labels,
                    panel.location_ids)
    return values, row_nos


def line_read_marginals(path, panel):
    """The (p, mu, phi) cells of a marginal cache: the first cell, in file order, with p
    outside [0, 1] or mu or phi not above 0 is rejected naming its row and column."""
    values, row_nos = line_read_long(path, panel)
    for row_no, row in zip(row_nos, values.tolist()):
        for col, name, v in zip((3, 4, 5), ("p", "mu", "phi"), row):
            if not (0.0 <= v <= 1.0 if name == "p" else v > 0.0):
                words = "outside [0, 1]" if name == "p" else "not above 0"
                raise IngestError(f"{path}: row {row_no}: value {v!r} {words} "
                                  f"in column {col} ({name})")
    return values


def line_read_ensemble(path, day_labels, location_ids):
    """Day-major like line_read_long, with m the number of rows of the first day."""
    _, keys, values, row_nos = line_read(path, 2, nonnegative=True)
    days = keys[0]
    m = next((r for r, day in enumerate(days) if day != days[0]), len(days))
    check_long_keys(path, ["day", "replicate"], keys, row_nos, day_labels,
                    [str(j) for j in range(m)])
    return values.reshape(len(day_labels), m, len(location_ids))


def line_read_rain(path, locs):
    _, (labels,), values, row_nos = line_read(path, 1, nonnegative=True)
    if not labels:
        raise IngestError(f"{path}: no data rows")
    for r, label in enumerate(labels):
        if label in labels[:r]:
            raise IngestError(f"{path}: row {row_nos[r]}: date {label!r} repeats an earlier row")
    panel = RainPanel(values, locs.ids, labels)
    return list(panel.day_labels), panel.values


def outcome(read):
    """What a reader gives: its error text, or its result with arrays as exact bytes."""
    try:
        result = read()
    except ValueError as exc:  # IngestError, or a marginal law out of range
        return "error", type(exc).__name__, str(exc)

    def exact(x):
        if isinstance(x, np.ndarray):
            return x.shape, x.tobytes()
        if isinstance(x, (tuple, list)):
            return [exact(v) for v in x]
        return x
    return "ok", exact(result)


# Key text: any character but a line end or a comma, NUL, separators and non-ASCII included.
KEY = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n,"),
              min_size=1, max_size=12)
SPECIAL = [0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308, 1.0, 0.5]


def cell_token(data, values):
    """One cell's text for a value drawn from values: 0 as the bare token, else repr or
    another spelling float() reads."""
    v = data.draw(values)
    if v == 0.0:
        return "0"
    spelling = data.draw(st.sampled_from(["repr", "repr", "repr", "E", "space", "plus"]))
    text = repr(v)
    if spelling == "E":
        return text.upper()
    if spelling == "space":
        return f" {text} "
    if spelling == "plus" and v > 0:
        return "+" + text
    return text


SIGNED = st.one_of(st.sampled_from([*SPECIAL, *(-v for v in SPECIAL)]), FINITE)
NONNEGATIVE = st.one_of(st.sampled_from(SPECIAL), st.floats(min_value=0.0, max_value=1e308))
# (p, mu, phi) of a marginal cache: p in [0, 1], mu and phi positive.
MARGINAL = [st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), st.floats(0.0, 1.0)),
            st.one_of(st.sampled_from([5e-324, 1e308]), POSITIVE),
            POSITIVE]


# Mutations of one data row: (name, cells -> cells); a cell list holds the keys first.
MUTATIONS = {
    "non-numeric": lambda cells, k: cells[:k] + ["abc"] + cells[k + 1:],
    "extra-field": lambda cells, k: cells + ["1.5"],
    "missing-field": lambda cells, k: cells[:-1],
    "nan": lambda cells, k: cells[:k] + ["nan"] + cells[k + 1:],
    "inf": lambda cells, k: cells[:k] + ["-inf"] + cells[k + 1:],
    "negative": lambda cells, k: cells[:k] + ["-2.5"] + cells[k + 1:],
    "quoted": lambda cells, k: cells[:k] + ['"1.5"'] + cells[k + 1:],
    "hash": lambda cells, k: cells[:k] + ["1#"] + cells[k + 1:],
    "underscore": lambda cells, k: cells[:k] + ["1_0"] + cells[k + 1:],
    "unicode-digits": lambda cells, k: cells[:k] + ["١٢.٥"] + cells[k + 1:],
    "separator-space": lambda cells, k: cells[:k] + ["\x1c1.5"] + cells[k + 1:],
    "empty": lambda cells, k: cells[:k] + [""] + cells[k + 1:],
    "long-key": lambda cells, k: [cells[0] + "Z" * 40] + cells[1:],
    "key-extended": lambda cells, k: [cells[0] + "Z"] + cells[1:],
    "nul-key": lambda cells, k: [cells[0] + "\x00"] + cells[1:],
}


def draw_text(data, header, rows, n_keys, extra=()):
    """The file text: header, then rows with LF or CRLF ends and blank lines between.

    Up to two mutations drawn from MUTATIONS (or extra) change the rows first;
    two give the errors of both, for the readers to choose between.
    """
    rows = [list(row) for row in rows]
    for _ in range(data.draw(st.integers(0, 2), label="mutations")):
        if not rows:
            break
        name = data.draw(st.sampled_from(sorted(MUTATIONS) + list(extra)), label="mutation")
        if name in MUTATIONS:
            r = data.draw(st.integers(0, len(rows) - 1))
            k = data.draw(st.integers(n_keys, len(rows[r]) - 1)) if len(rows[r]) > n_keys else 0
            rows[r] = MUTATIONS[name](rows[r], k)
        else:
            rows = extra[name](rows)
    lines = [",".join(header)]
    for row in rows:
        lines.extend([""] * data.draw(st.sampled_from([0, 0, 0, 1, 2])))
        lines.append(",".join(row))
    ends = [data.draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if data.draw(st.booleans()):
        text = text[:-len(ends[-1])]  # no line end after the last row
    return text


def compare_readers(data, text, read, reference):
    """Both readers give the same outcome at several block sizes."""
    chars = data.draw(st.sampled_from([1, 9, 64, panel_module._CHARS_PER_COLUMN]),
                      label="chars per column")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        want = outcome(lambda: reference(path))
        with mock.patch.object(panel_module, "_CHARS_PER_COLUMN", chars):
            got = outcome(lambda: read(path))
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.sampled_from(["marginals", "features"]),
       st.data())
def test_long_csv_bulk_parse_matches_line_parser(n, t, kind, data):
    ids = data.draw(st.lists(KEY, min_size=n, max_size=n, unique=True))
    labels = data.draw(st.lists(KEY, min_size=t, max_size=t, unique=True))
    panel = RainPanel(np.zeros((t, n)), ids, labels)
    columns = MARGINAL if kind == "marginals" else [SIGNED] * data.draw(st.integers(0, 3))
    header = ["date", "loc", *(["p", "mu", "phi"] if kind == "marginals"
                               else (f"x{k}" for k in range(len(columns))))]
    rows = [[d, loc, *(cell_token(data, values) for values in columns)]
            for d in labels for loc in ids]
    text = draw_text(data, header, rows, 2, extra={
        "row-dropped": lambda rows: rows[:-1],
        "rows-swapped": lambda rows: [rows[-1], *rows[1:-1], rows[0]] if len(rows) > 1 else rows,
    })
    read = read_marginals_csv if kind == "marginals" else read_features_csv

    def got(path):
        result = read(path, panel)
        return [result.p, result.mu, result.phi] if kind == "marginals" else result

    def want(path):
        if kind == "features":
            return line_read_long(path, panel)[0]
        values = line_read_marginals(path, panel)
        field = MarginalField(*(column.reshape(t, n) for column in values.T))
        return [field.p, field.mu, field.phi]

    compare_readers(data, text, got, want)


def interleave_days(rows, m):
    """The second and third days' rows taken in turn: each day keeps its replicate order."""
    if len(rows) < 3 * m:
        return rows
    a, b = rows[m:2 * m], rows[2 * m:3 * m]
    return rows[:m] + [row for pair in zip(a, b) for row in pair] + rows[3 * m:]


def ensemble_text(data, days, m, n):
    """(day labels, location ids, the text of an ensemble file of days x m rows, perhaps
    mutated)."""
    ids = data.draw(st.lists(KEY, min_size=n, max_size=n, unique=True))
    labels = data.draw(st.lists(KEY, min_size=days, max_size=days, unique=True))
    header = ["day", "replicate", *(f"loc_{i}" for i in ids)]
    rows = [[label, str(j), *(cell_token(data, NONNEGATIVE) for _ in range(n))]
            for label in labels for j in range(m)]
    return labels, ids, draw_text(data, header, rows, 2, extra={
        "interleaved": lambda rows: interleave_days(rows, m),
        "replicate-swapped": lambda rows: rows[1::-1] + rows[2:],
        "replicate-padded": lambda rows: [[rows[0][0], " 0", *rows[0][2:]], *rows[1:]],
    })


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 4), st.data())
def test_ensemble_bulk_parse_matches_line_parser(whole_ensemble, days, m, n, data):
    labels, ids, text = ensemble_text(data, days, m, n)
    compare_readers(data, text,
                    lambda path: whole_ensemble(path, labels, ids),
                    lambda path: line_read_ensemble(path, labels, ids))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7), st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.data())
def test_handed_over_ensemble_matches_line_parser(days, m, n, days_per_chunk, data):
    # the days handed over a chunk of days_per_chunk days at a time, joined again
    labels, ids, text = ensemble_text(data, days, m, n)
    panel = RainPanel(np.zeros((days, n)), ids, labels)

    def handed(path):
        with mock.patch.object(numerics_module, "_ELEMENT_BUDGET", days_per_chunk * m * n):
            chunks = list(read_ensemble(path, panel))
            assert [sl for sl, _ in chunks] == numerics_module.day_chunks(
                days, chunks[0][1].shape[1] * n)
        return np.concatenate([samples for _, samples in chunks])

    compare_readers(data, text, handed, lambda path: line_read_ensemble(path, labels, ids))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6), st.data())
def test_rain_bulk_parse_matches_line_parser(n, t, data):
    ids = tuple(data.draw(st.lists(KEY, min_size=n, max_size=n, unique=True)))
    labels = data.draw(st.lists(KEY, min_size=t, max_size=t, unique=True))
    rows = [[label, *(cell_token(data, NONNEGATIVE) for _ in range(n))] for label in labels]
    text = draw_text(data, ["date", *ids], rows, 1, extra={
        "date-repeated": lambda rows: rows + [[rows[0][0], *rows[-1][1:]]],
    })
    locs = locations(ids)

    def got(path):
        back = read_rain_csv(path, locs)
        return list(back.day_labels), back.values

    compare_readers(data, text, got, lambda path: line_read_rain(path, locs))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), KEY), max_size=8), st.integers(0, 2), st.data())
def test_file_row_matches_line_parser(rows, trailing_blanks, data):
    lines = ["key,value"]
    for blanks, key in rows:
        lines += [""] * blanks + [f"{key},1.5"]
    lines += [""] * trailing_blanks
    ends = [data.draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if data.draw(st.booleans()):
        text = text[:-len(ends[-1])]  # no line end after the last line
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\r\n").split(",")
            lines = fh.read().split("\n")
        data_lines = [i for i, line in enumerate(lines) if line]
        assert len(data_lines) == len(rows)
        # the row the line parser names when data row r has a field too many
        for r, i in enumerate(data_lines):
            bad = [*lines[:i], lines[i] + ",extra", *lines[i + 1:]]
            try:
                panel_module._parse_lines(path, header, 1, bad, 2)
            except IngestError as exc:
                assert f": row {panel_module.file_row(path, r)}: expected 2 fields" in str(exc)
            else:
                raise AssertionError("the line parser took a row with three fields")


@settings(max_examples=300, deadline=None)
@given(st.floats(0.01, 1.0), st.floats(0.1, 50.0), st.floats(0.05, 5.0),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_cdf_inverts_quantile_on_wet_u(p, mu, phi, w):
    u = 1.0 - p + p * w  # wet: above the dry mass 1 - p
    assume(1.0 - p < u < 1.0)
    y = mixture_quantile(p, mu, phi, u)
    assert abs(float(mixture_cdf(p, mu, phi, y)) - u) <= 1e-8


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_censor_idempotent(m, n, data):
    # thresholds include the +inf / -inf sentinels of always-dry and never-dry cells
    draws = draw_grid(data, FINITE, m, n)
    thresholds = draw_grid(data, st.floats(allow_nan=False), 1, n)[0]
    once = censor(draws, thresholds)
    assert np.array_equal(censor(once, thresholds), once)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.05, 1.0), st.floats(0.5, 20.0), st.floats(0.1, 2.0),
       st.floats(0.01, 10.0))
def test_quantile_inverts_cdf_on_wet_y(p, mu, phi, r):
    y = mu * r
    # well conditioned: one ulp of the CDF value moves y by about
    # eps / (p * y * g(y)) relative, g the gamma density; at 1e-4 that is 2e-12
    assume(p * y * stats.gamma.pdf(y, 1.0 / phi, scale=phi * mu) >= 1e-4)
    back = float(mixture_quantile(p, mu, phi, mixture_cdf(p, mu, phi, y)))
    assert abs(back - y) <= 1e-10 * y


def test_module_exports_resolve():
    for info in pkgutil.iter_modules(raincop.__path__):
        module = importlib.import_module(f"raincop.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"raincop.{info.name}.__all__ names {name!r}"
