"""Panel construction and file round-trip tests."""

import numpy as np
import pytest

from raincop.marginals import GammaMixture, MarginalField
from raincop.panel import (IngestError, RainPanel, read_features_csv,
                           read_marginals_csv, read_rain_csv, write_features_csv,
                           write_marginals_csv, write_rain_csv)
from raincop.spatial import LocationTable


@pytest.fixture
def locs():
    return LocationTable(ids=("a", "b", "c"), lat=[50.0, 52.0, 54.0],
                         lon=[-1.0, 0.0, 1.0], elev=[10.0, 20.0, 30.0])


@pytest.fixture
def panel(locs):
    rng = np.random.default_rng(0)
    values = np.where(rng.random((3, 5)) < 0.5, 0.0, rng.gamma(1.0, 2.5, (3, 5)))
    labels = [f"2001-01-0{d + 1}" for d in range(5)]
    return RainPanel(values=values, location_ids=locs.ids, day_labels=labels)


class TestRainPanel:
    def test_validation(self, locs):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                RainPanel(np.full((2, 2), bad), ("a", "b"), ("d0", "d1"))
        with pytest.raises(ValueError):
            RainPanel(-np.ones((2, 2)), ("a", "b"), ("d0", "d1"))
        with pytest.raises(ValueError):
            RainPanel(np.ones((2, 2)), ("a", "b"), ("d0", "d0"))  # dup day
        with pytest.raises(ValueError):
            RainPanel(np.ones((2, 2)), ("a", "a"), ("d0", "d1"))  # dup id

    def test_rain_csv_round_trip_bitwise(self, locs, panel, tmp_path):
        path = tmp_path / "rainfall.csv"
        write_rain_csv(path, panel)
        back = read_rain_csv(path, locs)
        assert np.array_equal(back.values, panel.values)
        assert back.day_labels == panel.day_labels
        assert back.location_ids == panel.location_ids
        dry = panel.values == 0.0
        assert np.all(back.values[dry] == 0.0)

    def test_features_round_trip(self, panel, tmp_path):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((15, 3))
        path = tmp_path / "features.csv"
        write_features_csv(path, panel, feats)
        back = read_features_csv(path, panel)
        assert np.array_equal(back, feats)

    def test_zero_dim_features(self, panel, tmp_path):
        path = tmp_path / "features.csv"
        write_features_csv(path, panel, np.empty((15, 0)))
        back = read_features_csv(path, panel)
        assert back.shape == (15, 0)

    def test_marginals_round_trip(self, panel, tmp_path):
        field = MarginalField.homogeneous(GammaMixture(p=0.4, mu=2.0, phi=0.5),
                                          panel.n_locations, panel.n_days)
        path = tmp_path / "marginals.csv"
        write_marginals_csv(path, panel, field)
        back = read_marginals_csv(path, panel)
        assert np.array_equal(back.p, field.p)
        assert np.array_equal(back.mu, field.mu)
        assert np.array_equal(back.phi, field.phi)

    def test_short_row_rejected(self, locs, panel, tmp_path):
        path = tmp_path / "rainfall.csv"
        write_rain_csv(path, panel)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError, match="row 3"):
            read_rain_csv(path, locs)
