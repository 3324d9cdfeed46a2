"""Panel construction, file round-trip and reader memory tests."""

import re

import numpy as np
import pytest

from raincop.cli import main
from raincop import panel as panel_module
from raincop.marginals import GammaMixture, MarginalField
from raincop.panel import (IngestError, RainPanel, read_features_csv,
                           read_marginals_csv, read_rain_csv, write_features_csv,
                           write_marginals_csv, write_rain_csv)
from raincop.spatial import LocationTable, read_locations


@pytest.fixture
def locs():
    return LocationTable(ids=("a", "b", "c"), lat=[50.0, 52.0, 54.0],
                         lon=[-1.0, 0.0, 1.0], elev=[10.0, 20.0, 30.0])


@pytest.fixture
def panel(locs):
    rng = np.random.default_rng(0)
    values = np.where(rng.random((3, 5)) < 0.5, 0.0, rng.gamma(1.0, 2.5, (3, 5)))
    labels = [f"2001-01-0{d + 1}" for d in range(5)]
    return RainPanel(values=values.T, location_ids=locs.ids, day_labels=labels)


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

    @pytest.mark.parametrize("chars_per_column", [1, 4096], ids=["row-blocks", "one-block"])
    def test_repeated_date_names_file_row_and_date(self, locs, panel, tmp_path, monkeypatch,
                                                   chars_per_column):
        monkeypatch.setattr(panel_module, "_CHARS_PER_COLUMN", chars_per_column)
        path = tmp_path / "rainfall.csv"
        write_rain_csv(path, panel)
        lines = path.read_text().splitlines()
        # the third data row carries the second's date, after a blank line
        lines[3] = lines[2].split(",", 1)[0] + "," + lines[3].split(",", 1)[1]
        lines.insert(3, "")
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}: row 5: date '2001-01-02' repeats an earlier row"
        with pytest.raises(IngestError, match=re.escape(message)):
            read_rain_csv(path, locs)


@pytest.fixture(scope="module")
def fixture_20x400(tmp_path_factory):
    """A 20 x 400 synth data set."""
    fx = tmp_path_factory.mktemp("fx400")
    assert main(["synth", "--out", str(fx), "--seed", "3", "--n-locations", "20",
                 "--days", "400"]) == 0
    locs = read_locations(fx / "locations.csv")
    return fx, locs, read_rain_csv(fx / "rainfall.csv", locs)


class TestReaderMemory:
    """Beyond the cells it returns, a reader holds one bounded block of the file."""

    def test_marginals_peak_below_twice_the_file(self, fixture_20x400, traced_peak):
        fx, _, panel = fixture_20x400
        peak, _ = traced_peak(lambda: read_marginals_csv(fx / "marginals.csv", panel))
        assert peak < 2 * (fx / "marginals.csv").stat().st_size  # about 232 KB


class TestLongWriters:
    """The long-CSV writers format one day chunk at a time, with the bytes of the whole."""

    @staticmethod
    def day_panel(n_locations, n_days):
        return RainPanel(np.zeros((n_days, n_locations)),
                         tuple(f"s{i}" for i in range(n_locations)),
                         tuple(f"d{t}" for t in range(n_days)))

    @staticmethod
    def random_field(rng, n_locations, n_days):
        shape = (n_days, n_locations)
        return MarginalField(rng.uniform(0.1, 0.9, shape), rng.gamma(2.0, 1.5, shape),
                             rng.uniform(0.5, 2.0, shape))

    @staticmethod
    def whole_text(panel, header, cells):
        """The file from the whole (cells, k) array turned into lists at once."""
        keys = ((label, loc) for label in panel.day_labels for loc in panel.location_ids)
        rows = (",".join([*key, *map(repr, row)]) + "\n"
                for key, row in zip(keys, cells.tolist()))
        return (",".join(header) + "\n" + "".join(rows)).encode()

    def test_marginals_bytes_equal_whole_field_text(self, tmp_path):
        from raincop.numerics import day_chunks
        panel = self.day_panel(50, 600)
        assert len(day_chunks(600, 50 * 3)) > 1
        field = self.random_field(np.random.default_rng(11), 50, 600)
        write_marginals_csv(tmp_path / "m.csv", panel, field)
        cells = np.stack([field.p, field.mu, field.phi], axis=-1).reshape(-1, 3)
        want = self.whole_text(panel, ["date", "loc", "p", "mu", "phi"], cells)
        assert (tmp_path / "m.csv").read_bytes() == want

    def test_features_bytes_equal_whole_matrix_text(self, tmp_path):
        from raincop.numerics import day_chunks
        panel = self.day_panel(50, 400)
        assert len(day_chunks(400, 50 * 4)) > 1
        x = np.random.default_rng(12).standard_normal((50 * 400, 4))
        write_features_csv(tmp_path / "f.csv", panel, x)
        want = self.whole_text(panel, ["date", "loc", "x0", "x1", "x2", "x3"], x)
        assert (tmp_path / "f.csv").read_bytes() == want

    def test_marginals_peak_at_most_8_mb(self, tmp_path, traced_peak):
        # 400 x 1000 cells: 9.6 MB of field, an 11.6 MB file
        panel = self.day_panel(400, 1000)
        field = self.random_field(np.random.default_rng(13), 400, 1000)
        peak, _ = traced_peak(lambda: write_marginals_csv(tmp_path / "m.csv", panel, field))
        assert peak <= 8e6



class TestDayMajorLayout:
    """Every panel-shaped array is (n_days, n_locations), whichever function made it."""

    N_LOCATIONS, N_DAYS = 5, 40

    @pytest.fixture
    def synth(self, tmp_path):
        from raincop.marginals import JglmCoefficients
        from raincop.spatial import write_locations
        from raincop.synth import SynthSpec, simulate_dataset
        coeffs = JglmCoefficients(0.4, [0.6, -0.4], 1.1, [0.3, -0.2], 0.2, [0.2, 0.1])
        res = simulate_dataset(SynthSpec(n_locations=self.N_LOCATIONS, n_days=self.N_DAYS,
                                         coeffs=coeffs, seed=3))
        write_locations(tmp_path / "locations.csv", res.locations)
        write_rain_csv(tmp_path / "rainfall.csv", res.panel)
        write_marginals_csv(tmp_path / "marginals.csv", res.panel, res.field)
        return res, coeffs

    def test_panels_are_c_ordered_days_by_locations(self, synth, tmp_path):
        res, _ = synth
        back = read_rain_csv(tmp_path / "rainfall.csv", read_locations(tmp_path / "locations.csv"))
        for values in (res.panel.values, back.values):
            assert values.shape == (self.N_DAYS, self.N_LOCATIONS)
            assert values.flags.c_contiguous

    def test_fields_are_days_by_locations(self, synth, tmp_path):
        from raincop.marginals import IdentityTransform, predict_field
        res, coeffs = synth
        fields = [read_marginals_csv(tmp_path / "marginals.csv", res.panel),
                  predict_field(coeffs, IdentityTransform(), res.features,
                                self.N_LOCATIONS, self.N_DAYS),
                  MarginalField.homogeneous(GammaMixture(p=0.6, mu=3.0, phi=1.2),
                                            self.N_LOCATIONS, self.N_DAYS)]
        for field in fields:
            for array in (field.p, field.mu, field.phi):
                assert array.shape == (self.N_DAYS, self.N_LOCATIONS)
        # row s * n + i of the date-major features is day s at location i
        s, i = 7, 3
        row = res.features[s * self.N_LOCATIONS + i]
        assert fields[1].mu[s, i] == pytest.approx(np.exp(coeffs.beta0 + row @ coeffs.beta),
                                                   rel=1e-12)

    def test_read_panel_gives_cross_correlation_the_same_bits(self, synth, tmp_path):
        from raincop.diagnostics import cross_correlation
        res, _ = synth
        back = read_rain_csv(tmp_path / "rainfall.csv", res.locations)
        written = cross_correlation(res.panel.values, res.locations)
        read = cross_correlation(back.values, res.locations)
        assert written[0] == read[0]
        assert written[1].tobytes() == read[1].tobytes()
