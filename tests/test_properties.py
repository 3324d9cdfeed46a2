"""Property tests: file round-trips through the shared CSV reader and writer, the writer's
streamed rows matching one joined string, censoring being idempotent, the mixture quantile and CDF inverting each other, and every
module's exports resolving."""

import importlib
import os
import pkgutil
import tempfile

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import raincop
from raincop.copula import censor, read_ensemble, write_ensemble
from raincop.marginals import (IdentityTransform, JglmCoefficients, MarginalField,
                               StandardizeTransform, mixture_cdf, mixture_quantile,
                               read_coefficients, write_coefficients)
from raincop.panel import (RainPanel, read_features_csv, read_marginals_csv, read_rain_csv,
                           write_csv, write_features_csv, write_marginals_csv, write_rain_csv)
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
    n, t = values.shape
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
    values = draw_grid(data, RAIN, n, t)
    panel = panel_of(values)
    back, text = write_then_read(lambda p: write_rain_csv(p, panel),
                                 lambda p: read_rain_csv(p, locations(panel.location_ids)))
    assert np.array_equal(back.values, values)
    assert back.day_labels == panel.day_labels
    cells = value_cells(text, 1)
    assert [c == "0" for c in cells] == (values.T.ravel() == 0.0).tolist()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_marginals_round_trip(n, t, data):
    arrays = [draw_grid(data, elements, n, t)
              for elements in (st.floats(0.0, 1.0), POSITIVE, POSITIVE)]
    field = MarginalField(*arrays)
    panel = panel_of(np.zeros((n, t)))
    back, _ = write_then_read(lambda p: write_marginals_csv(p, panel, field),
                              lambda p: read_marginals_csv(p, panel))
    for got, want in zip((back.p, back.mu, back.phi), arrays):
        assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 3), st.data())
def test_features_round_trip(n, t, d, data):
    features = draw_grid(data, FINITE, n * t, d)
    panel = panel_of(np.zeros((n, t)))
    back, _ = write_then_read(lambda p: write_features_csv(p, panel, features),
                              lambda p: read_features_csv(p, panel))
    assert back.shape == features.shape
    assert np.array_equal(back, features)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4), st.data())
def test_ensemble_round_trip(days, m, n, data):
    blocks = [draw_grid(data, RAIN, m, n) for _ in range(days)]
    ids = [f"s{i}" for i in range(n)]
    labels = [f"d{s}" for s in range(days)]
    (back_labels, back), text = write_then_read(
        lambda p: write_ensemble(p, labels, ids, blocks),
        lambda p: read_ensemble(p, ids))
    assert back_labels == labels
    for got, want in zip(back, blocks):
        assert np.array_equal(got, want)
    cells = value_cells(text, 2)
    assert [c == "0" for c in cells] == (np.concatenate(blocks).ravel() == 0.0).tolist()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.data())
def test_locations_round_trip(n, data):
    columns = [data.draw(st.lists(elements, min_size=n, max_size=n))
               for elements in (st.floats(-90.0, 90.0), st.floats(-180.0, 180.0), FINITE)]
    locs = LocationTable(tuple(f"s{i}" for i in range(n)), *columns)
    (back, raw), _ = write_then_read(lambda p: write_locations(p, locs),
                                     lambda p: (read_locations(p), open(p, "rb").read()))
    assert raw.count(b"\r\n") == n + 1  # csv.writer line ends
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
