"""Command-line pipeline tests: determinism, ingestion validation, exit codes."""

import json

import numpy as np
import pytest

from raincop.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """A small synthetic data set shared by the pipeline tests."""
    out = tmp_path_factory.mktemp("fixture")
    rc = run(["synth", "--out", out, "--seed", "5",
              "--n-locations", "10", "--days", "150"])
    assert rc == 0
    return out


def read_all(out_dir, names):
    return {n: (out_dir / n).read_bytes() for n in names}


class TestSynthCommand:
    def test_outputs_exist(self, fixture_dir):
        for name in ("locations.csv", "rainfall.csv", "marginals.csv", "truth.json"):
            assert (fixture_dir / name).exists()

    def test_rerun_byte_identical(self, fixture_dir, tmp_path):
        rc = run(["synth", "--out", tmp_path, "--seed", "5",
                  "--n-locations", "10", "--days", "150"])
        assert rc == 0
        for name in ("locations.csv", "rainfall.csv", "marginals.csv", "truth.json"):
            assert (tmp_path / name).read_bytes() == (fixture_dir / name).read_bytes()

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_locations=4\ndays=6   # comment\nseed=9\n")
        out = tmp_path / "out"
        assert run(["synth", "--config", cfg, "--out", out, "--days", "7"]) == 0
        rainfall = (out / "rainfall.csv").read_text().splitlines()
        assert len(rainfall) == 1 + 7  # header + overridden day count
        assert len(rainfall[0].split(",")) == 1 + 4


class TestFitMarginals:
    def test_intercept_only_recovers_homogeneous_truth(self, fixture_dir, tmp_path):
        rc = run(["fit-marginals", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv", "--out", tmp_path])
        assert rc == 0
        coeffs = dict(line.split("=") for line in
                      (tmp_path / "coefficients.txt").read_text().splitlines())
        p_hat = 1.0 / (1.0 + np.exp(-float(coeffs["alpha0"])))
        mu_hat = np.exp(float(coeffs["beta0"]))
        assert p_hat == pytest.approx(0.6, abs=0.1)
        assert mu_hat == pytest.approx(3.0, rel=0.25)
        assert (tmp_path / "marginals.csv").exists()

    def test_missing_features_path_exit_2(self, fixture_dir, tmp_path, capsys):
        rc = run(["fit-marginals", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--features", tmp_path / "nope.csv", "--out", tmp_path])
        assert rc == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_rerun_byte_identical(self, fixture_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["fit-marginals", "--locations", fixture_dir / "locations.csv",
                        "--rainfall", fixture_dir / "rainfall.csv", "--out", out]) == 0
        assert (a / "coefficients.txt").read_bytes() == (b / "coefficients.txt").read_bytes()
        assert (a / "marginals.csv").read_bytes() == (b / "marginals.csv").read_bytes()


class TestEstimateTheta:
    def estimate(self, fixture_dir, out, extra=()):
        return run(["estimate-theta",
                    "--locations", fixture_dir / "locations.csv",
                    "--rainfall", fixture_dir / "rainfall.csv",
                    "--marginals", fixture_dir / "marginals.csv",
                    "--grid", "5", "--m", "8", "--theta-tol", "20",
                    "--refine-day-subsample", "all",
                    "--seed", "3", "--out", out, *extra])

    def test_outputs_and_determinism(self, fixture_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.estimate(fixture_dir, a) == 0
        assert self.estimate(fixture_dir, b) == 0
        assert (a / "profile.csv").read_bytes() == (b / "profile.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
        summary = json.loads((a / "summary.json").read_text())
        assert 200.0 <= summary["theta_hat"] <= 800.0
        assert len((a / "profile.csv").read_text().splitlines()) == 6

    def test_threads_do_not_change_bytes(self, fixture_dir, tmp_path):
        a, b = tmp_path / "t1", tmp_path / "t2"
        assert self.estimate(fixture_dir, a, ("--threads", "1")) == 0
        assert self.estimate(fixture_dir, b, ("--threads", "4")) == 0
        assert (a / "profile.csv").read_bytes() == (b / "profile.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_boundary_strict_exit_3(self, fixture_dir, tmp_path):
        with pytest.warns(UserWarning, match="boundary"):
            rc = run(["estimate-theta",
                      "--locations", fixture_dir / "locations.csv",
                      "--rainfall", fixture_dir / "rainfall.csv",
                      "--marginals", fixture_dir / "marginals.csv",
                      "--theta-min", "3000", "--theta-max", "6000",
                      "--grid", "4", "--m", "6", "--theta-tol", "100",
                      "--refine-day-subsample", "all",
                      "--seed", "3", "--out", tmp_path, "--strict"])
        assert rc == 3


class TestSimulateAndDiagnose:
    def test_pipeline(self, fixture_dir, tmp_path):
        sim_a, sim_b = tmp_path / "sa", tmp_path / "sb"
        for out in (sim_a, sim_b):
            rc = run(["simulate", "--locations", fixture_dir / "locations.csv",
                      "--rainfall", fixture_dir / "rainfall.csv",
                      "--marginals", fixture_dir / "marginals.csv",
                      "--theta", "450", "--m", "12", "--seed", "11", "--out", out])
            assert rc == 0
        assert (sim_a / "ensemble.csv").read_bytes() == (sim_b / "ensemble.csv").read_bytes()
        text = (sim_a / "ensemble.csv").read_text()
        assert ",0," in text or text.rstrip().endswith(",0")  # exact dry tokens

        diag = tmp_path / "diag"
        rc = run(["diagnose", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--marginals", fixture_dir / "marginals.csv",
                  "--ensemble", sim_a / "ensemble.csv",
                  "--q-levels", "0.5,5", "--rank-bins", "13",
                  "--seed", "2", "--out", diag])
        assert rc == 0
        summary = json.loads((diag / "diagnostics.json").read_text())
        for key in ("crps_mean", "energy_score_mean", "variogram_score_day_mean",
                    "variogram_score_day_sum", "rmsb", "mab", "auc"):
            assert key in summary
        assert summary["crps_mean"] >= 0.0
        from raincop.copula import read_ensemble
        from raincop.estimation import energy_score_unbiased
        from raincop.panel import read_rain_csv
        from raincop.spatial import read_locations
        locs = read_locations(fixture_dir / "locations.csv")
        obs = read_rain_csv(fixture_dir / "rainfall.csv", locs).values
        _, ens = read_ensemble(sim_a / "ensemble.csv", locs.ids)
        per_day = [energy_score_unbiased(b, obs[:, s], 0.5) for s, b in enumerate(ens)]
        assert summary["energy_score_mean"] == pytest.approx(np.mean(per_day), rel=1e-12)
        for name in ("roc_q0.5.csv", "roc_q5.csv", "rank_hist.csv", "ecdf.csv",
                     "crosscorr.csv"):
            assert (diag / name).exists()

        diag2 = tmp_path / "diag2"
        rc = run(["diagnose", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--marginals", fixture_dir / "marginals.csv",
                  "--ensemble", sim_a / "ensemble.csv",
                  "--q-levels", "0.5,5", "--rank-bins", "13",
                  "--seed", "2", "--out", diag2])
        assert rc == 0
        assert (diag / "diagnostics.json").read_bytes() == (diag2 / "diagnostics.json").read_bytes()
        assert (diag / "rank_hist.csv").read_bytes() == (diag2 / "rank_hist.csv").read_bytes()


    def test_ragged_ensemble_rejected(self, fixture_dir, tmp_path, capsys):
        common = ["--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--marginals", fixture_dir / "marginals.csv"]
        assert run(["simulate", *common, "--theta", "450", "--m", "3",
                    "--out", tmp_path]) == 0
        lines = (tmp_path / "ensemble.csv").read_text().splitlines()
        del lines[5]
        (tmp_path / "ensemble.csv").write_text("\n".join(lines) + "\n")
        rc = run(["diagnose", *common, "--ensemble", tmp_path / "ensemble.csv",
                  "--out", tmp_path / "diag"])
        assert rc == 2
        assert "different numbers of replicates" in capsys.readouterr().err


class TestFeaturesPath:
    def test_fit_with_feature_file(self, fixture_dir, tmp_path):
        from raincop.panel import read_rain_csv, write_features_csv
        from raincop.spatial import read_locations

        locs = read_locations(fixture_dir / "locations.csv")
        panel = read_rain_csv(fixture_dir / "rainfall.csv", locs)
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((panel.n_locations * panel.n_days, 2))
        fpath = tmp_path / "features.csv"
        write_features_csv(fpath, panel, feats)
        rc = run(["fit-marginals", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--features", fpath, "--transform", "standardize",
                  "--out", tmp_path])
        assert rc == 0
        text = (tmp_path / "coefficients.txt").read_text()
        assert "feature_dim=2" in text
        assert "transform=standardize" in text
        assert "mean.1=" in text and "scale.1=" in text

    def test_misordered_rows_rejected(self, fixture_dir, tmp_path, capsys):
        lines = (fixture_dir / "marginals.csv").read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        bad = tmp_path / "marginals.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = run(["estimate-theta", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--marginals", bad, "--grid", "3", "--m", "4",
                  "--out", tmp_path])
        assert rc == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "does not match panel order" in err


class TestSimulateFromSummary:
    @pytest.mark.filterwarnings("ignore:grid minimizer")
    def test_theta_taken_from_summary(self, fixture_dir, tmp_path):
        # a heavily subsampled search may legitimately end on the boundary;
        # this test only cares that simulate picks theta_hat up from the file
        est = tmp_path / "est"
        rc = run(["estimate-theta", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--marginals", fixture_dir / "marginals.csv",
                  "--grid", "4", "--m", "6", "--theta-tol", "50",
                  "--day-subsample", "40", "--location-subsample", "8",
                  "--seed", "13", "--out", est])
        assert rc == 0
        rc = run(["simulate", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--marginals", fixture_dir / "marginals.csv",
                  "--summary", est / "summary.json",
                  "--m", "5", "--seed", "13", "--out", tmp_path])
        assert rc == 0
        theta = json.loads((est / "summary.json").read_text())["theta_hat"]
        assert (tmp_path / "ensemble.csv").exists()
        assert 200.0 <= theta <= 800.0


class TestDeskScaleSmoke:
    def test_grid5_estimate_under_budget(self, tmp_path):
        import time

        fx = tmp_path / "fx"
        assert run(["synth", "--out", fx, "--seed", "21",
                    "--n-locations", "50", "--days", "500"]) == 0
        t0 = time.perf_counter()
        rc = run(["estimate-theta", "--locations", fx / "locations.csv",
                  "--rainfall", fx / "rainfall.csv",
                  "--marginals", fx / "marginals.csv",
                  "--grid", "5", "--m", "10", "--theta-tol", "10",
                  "--seed", "21", "--out", tmp_path / "est"])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        assert elapsed < 60.0


class TestIngestValidation:
    def test_nan_rejected_with_location(self, fixture_dir, tmp_path, capsys):
        bad = tmp_path / "rainfall.csv"
        lines = (fixture_dir / "rainfall.csv").read_text().splitlines()
        parts = lines[3].split(",")
        parts[2] = "nan"
        lines[3] = ",".join(parts)
        bad.write_text("\n".join(lines) + "\n")
        rc = run(["fit-marginals", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", bad, "--out", tmp_path])
        assert rc == 2
        err = capsys.readouterr().err
        assert "row 4" in err and "column 3" in err and "rainfall.csv" in err

    def test_negative_rejected(self, fixture_dir, tmp_path, capsys):
        bad = tmp_path / "rainfall.csv"
        lines = (fixture_dir / "rainfall.csv").read_text().splitlines()
        parts = lines[2].split(",")
        parts[1] = "-1.0"
        lines[2] = ",".join(parts)
        bad.write_text("\n".join(lines) + "\n")
        rc = run(["fit-marginals", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", bad, "--out", tmp_path])
        assert rc == 2
        assert "negative" in capsys.readouterr().err

    def test_id_mismatch_rejected(self, fixture_dir, tmp_path, capsys):
        bad = tmp_path / "rainfall.csv"
        text = (fixture_dir / "rainfall.csv").read_text()
        header, rest = text.split("\n", 1)
        cols = header.split(",")
        cols[1], cols[2] = cols[2], cols[1]
        bad.write_text(",".join(cols) + "\n" + rest)
        rc = run(["fit-marginals", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", bad, "--out", tmp_path])
        assert rc == 2
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("name,line,field,token", [
        ("rainfall.csv", 5, 4, "inf"),
        ("rainfall.csv", 9, 1, "-inf"),
        ("marginals.csv", 7, 3, "inf"),
        ("marginals.csv", 30, 2, "nan"),
        ("features.csv", 4, 2, "-inf"),
        ("features.csv", 12, 3, "nan"),
    ])
    def test_non_finite_rejected_with_location(self, fixture_dir, tmp_path, capsys,
                                               name, line, field, token):
        from raincop.panel import read_rain_csv, write_features_csv
        from raincop.spatial import read_locations

        if name == "features.csv":
            panel = read_rain_csv(fixture_dir / "rainfall.csv",
                                  read_locations(fixture_dir / "locations.csv"))
            feats = np.random.default_rng(4).standard_normal((panel.n_locations
                                                              * panel.n_days, 2))
            write_features_csv(tmp_path / "good.csv", panel, feats)
            lines = (tmp_path / "good.csv").read_text().splitlines()
        else:
            lines = (fixture_dir / name).read_text().splitlines()
        parts = lines[line].split(",")
        parts[field] = token
        lines[line] = ",".join(parts)
        bad = tmp_path / name
        bad.write_text("\n".join(lines) + "\n")

        paths = {"rainfall": fixture_dir / "rainfall.csv",
                 "marginals": fixture_dir / "marginals.csv"}
        paths[name.split(".")[0]] = bad
        if name == "features.csv":
            argv = ["fit-marginals", "--features", bad]
        else:
            argv = ["estimate-theta", "--marginals", paths["marginals"],
                    "--grid", "3", "--m", "4"]
        rc = run([*argv, "--locations", fixture_dir / "locations.csv",
                  "--rainfall", paths["rainfall"], "--out", tmp_path / "out"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{name}: row {line + 1}: non-finite value {float(token)!r} " \
               f"in column {field + 1}" in err

    def test_missing_locations_exit_2(self, tmp_path):
        rc = run(["fit-marginals", "--locations", tmp_path / "none.csv",
                  "--rainfall", tmp_path / "none2.csv", "--out", tmp_path])
        assert rc == 2
