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


@pytest.fixture(scope="module")
def ensemble_path(fixture_dir, tmp_path_factory):
    """A small simulated ensemble for the fixture data set."""
    out = tmp_path_factory.mktemp("ensemble")
    assert run(["simulate", "--locations", fixture_dir / "locations.csv",
                "--rainfall", fixture_dir / "rainfall.csv",
                "--marginals", fixture_dir / "marginals.csv",
                "--theta", "450", "--m", "4", "--seed", "3", "--out", out]) == 0
    return out / "ensemble.csv"


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

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("days=6\n# a comment\nbogus_key=3\n")
        assert run(["synth", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert f"{cfg}: line 3: unknown key 'bogus_key'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_keys_of_other_commands_accepted(self, tmp_path):
        # one config shared by every stage: estimate-theta and diagnose keys
        # are defaults, so synth accepts them
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_locations=4\ndays=6\ntheta_min=300\nm=5\nq_levels=0.5,2\n")
        assert run(["synth", "--config", cfg, "--out", tmp_path / "out"]) == 0
        assert len((tmp_path / "out" / "rainfall.csv").read_text().splitlines()) == 1 + 6


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
                    "--grid", "5", "--m", "8",
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
                      "--grid", "4", "--m", "6",
                      "--seed", "3", "--out", tmp_path, "--strict"])
        assert rc == 3

    @pytest.mark.filterwarnings("ignore:grid minimizer")
    def test_ingestion_probe_argv(self, tmp_path, capsys):
        # the argv of the benchmark's ingestion probe (perfbench/run.py): it
        # must fail at ingestion, not at argument parsing
        fx = tmp_path / "probe"
        assert run(["synth", "--out", fx, "--seed", "0", "--n-locations", "8",
                    "--days", "40"]) == 0
        lines = (fx / "rainfall.csv").read_text().splitlines()
        cells = lines[1].split(",")
        cells[1] = "inf"
        lines[1] = ",".join(cells)
        (fx / "rainfall_inf.csv").write_text("\n".join(lines) + "\n")

        def probe(rainfall, out, extra):
            argv = ["estimate-theta", "--locations", fx / "locations.csv",
                    "--rainfall", rainfall, "--marginals", fx / "marginals.csv",
                    "--grid", "3", "--m", "2", *extra, "--seed", "0",
                    "--threads", "1", "--out", out]
            try:
                return run(argv)
            except SystemExit as exc:  # argparse rejects a flag this way
                return exc.code

        flag = ("--refine-day-subsample", "4")
        capsys.readouterr()
        assert probe(fx / "rainfall_inf.csv", tmp_path / "bad", flag) == 2
        err = capsys.readouterr().err
        assert "rainfall_inf.csv: row 2: non-finite value inf in column 2" in err
        assert "usage:" not in err
        a, b = tmp_path / "with", tmp_path / "without"
        assert probe(fx / "rainfall.csv", a, flag) == 0
        assert probe(fx / "rainfall.csv", b, ()) == 0
        for name in ("profile.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


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


    def test_diagnose_csvs_parse_as_floats(self, fixture_dir, ensemble_path, tmp_path):
        rc = run(["diagnose", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--marginals", fixture_dir / "marginals.csv",
                  "--ensemble", ensemble_path, "--q-levels", "0.5,5", "--rank-bins", "5",
                  "--out", tmp_path])
        assert rc == 0
        csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert csvs == ["crosscorr.csv", "ecdf.csv", "rank_hist.csv", "roc_q0.5.csv",
                        "roc_q5.csv"]
        for name in csvs:
            header, *rows = (tmp_path / name).read_text().splitlines()
            key_columns = 1 if name == "crosscorr.csv" else 0  # location ids
            assert rows
            for row in rows:
                cells = row.split(",")
                assert len(cells) == len(header.split(","))
                for cell in cells[key_columns:]:
                    float(cell)

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

    def test_single_replicate_rejected(self, fixture_dir, tmp_path):
        common = ["--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--marginals", fixture_dir / "marginals.csv"]
        assert run(["simulate", *common, "--theta", "450", "--m", "1",
                    "--out", tmp_path]) == 0
        rc = run(["diagnose", *common, "--ensemble", tmp_path / "ensemble.csv",
                  "--out", tmp_path / "diag"])
        assert rc == 2
        assert not (tmp_path / "diag").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--rank-bins", "100"),        # outside [1, m + 1] with m = 4
        ("--q-levels", "0.5,-1"),
        ("--ecdf-levels", "0,-1"),
    ], ids=["rank-bins", "q-levels", "ecdf-levels"])
    def test_rejected_setting_writes_nothing(self, fixture_dir, ensemble_path, tmp_path,
                                             flag, value):
        out = tmp_path / "diag"
        out.mkdir()
        rc = run(["diagnose", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--marginals", fixture_dir / "marginals.csv",
                  "--ensemble", ensemble_path, flag, value, "--out", out])
        assert rc == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_malformed_value_names_source(self, fixture_dir, ensemble_path, tmp_path,
                                          capsys, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=2\nq_levels=abc\n")
        extra = ["--q-levels", "abc"] if source == "flag" else ["--config", cfg]
        rc = run(["diagnose", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--marginals", fixture_dir / "marginals.csv",
                  "--ensemble", ensemble_path, *extra, "--out", tmp_path / "diag"])
        assert rc == 2
        where = "--q-levels" if source == "flag" else f"{cfg}: line 2"
        assert f"{where}: invalid value 'abc' for q_levels" in capsys.readouterr().err
        assert not (tmp_path / "diag").exists()

    @pytest.mark.parametrize("replicates, bad_row, token", [
        (["x"] * 8, 2, "x"),                          # not an index at all
        (["0", "1", "2", "3", "0", "0", "2", "3"], 7, "0"),   # duplicated index
        (["0", "1", "2", "3", "1", "0", "2", "3"], 6, "1"),   # swapped pair
    ], ids=["not-an-index", "duplicated", "swapped"])
    def test_replicate_column_checked(self, fixture_dir, ensemble_path, tmp_path, capsys,
                                      replicates, bad_row, token):
        lines = ensemble_path.read_text().splitlines()
        for k, rep in enumerate(replicates, start=1):  # days 0 and 1, m = 4
            day, _, rest = lines[k].split(",", 2)
            lines[k] = ",".join([day, rep, rest])
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(lines) + "\n")
        rc = run(["diagnose", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--marginals", fixture_dir / "marginals.csv",
                  "--ensemble", path, "--out", tmp_path / "diag"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{path}: row {bad_row}: replicate {token!r} in column 2" in err
        assert not (tmp_path / "diag").exists()


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
                  "--grid", "4", "--m", "6",
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

    @pytest.mark.parametrize("content, message", [
        ('{"theta": 450.0}', "no finite numeric 'theta_hat'"),
        ('{"theta_hat": null}', "no finite numeric 'theta_hat'"),
        ('[450.0]', "no finite numeric 'theta_hat'"),
        ('theta_hat=450', "not valid JSON"),
    ], ids=["no-theta-hat", "null-theta-hat", "not-an-object", "not-json"])
    def test_bad_summary_exit_2(self, fixture_dir, tmp_path, capsys, content, message):
        summary = tmp_path / "summary.json"
        summary.write_text(content)
        rc = run(["simulate", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--marginals", fixture_dir / "marginals.csv",
                  "--summary", summary, "--m", "2", "--out", tmp_path / "sim"])
        assert rc == 2
        assert f"{summary}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()


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
                  "--grid", "5", "--m", "10",
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
        ("rainfall.csv", 3, 2, "abc"),
        ("marginals.csv", 7, 3, "inf"),
        ("marginals.csv", 30, 2, "nan"),
        ("marginals.csv", 11, 4, "abc"),
        ("features.csv", 4, 2, "-inf"),
        ("features.csv", 12, 3, "nan"),
        ("features.csv", 8, 3, "abc"),
        ("ensemble.csv", 6, 3, "nan"),
        ("ensemble.csv", 17, 2, "inf"),
        ("ensemble.csv", 40, 11, "-inf"),
        ("ensemble.csv", 21, 7, "abc"),
        ("locations.csv", 4, 1, "nan"),
        ("locations.csv", 7, 2, "inf"),
    ])
    def test_non_finite_rejected_with_location(self, fixture_dir, ensemble_path, tmp_path,
                                               capsys, name, line, field, token):
        from raincop.panel import read_rain_csv, write_features_csv
        from raincop.spatial import read_locations

        if name == "features.csv":
            panel = read_rain_csv(fixture_dir / "rainfall.csv",
                                  read_locations(fixture_dir / "locations.csv"))
            feats = np.random.default_rng(4).standard_normal((panel.n_locations
                                                              * panel.n_days, 2))
            write_features_csv(tmp_path / "good.csv", panel, feats)
            lines = (tmp_path / "good.csv").read_text().splitlines()
        elif name == "ensemble.csv":
            lines = ensemble_path.read_text().splitlines()
        else:
            lines = (fixture_dir / name).read_text().splitlines()
        parts = lines[line].split(",")
        parts[field] = token
        lines[line] = ",".join(parts)
        bad = tmp_path / name
        bad.write_text("\n".join(lines) + "\n")

        paths = {"locations": fixture_dir / "locations.csv",
                 "rainfall": fixture_dir / "rainfall.csv",
                 "marginals": fixture_dir / "marginals.csv"}
        paths[name.split(".")[0]] = bad
        if name == "features.csv":
            argv = ["fit-marginals", "--features", bad]
        elif name == "ensemble.csv":
            argv = ["diagnose", "--marginals", paths["marginals"], "--ensemble", bad]
        else:
            argv = ["estimate-theta", "--marginals", paths["marginals"],
                    "--grid", "3", "--m", "4"]
        rc = run([*argv, "--locations", paths["locations"],
                  "--rainfall", paths["rainfall"], "--out", tmp_path / "out"])
        assert rc == 2
        err = capsys.readouterr().err
        what = (f"non-numeric value {token!r}" if token == "abc"
                else f"non-finite value {float(token)!r}")
        assert f"{name}: row {line + 1}: {what} in column {field + 1}" in err

    def test_negative_ensemble_cell_rejected(self, fixture_dir, ensemble_path, tmp_path,
                                             capsys):
        lines = ensemble_path.read_text().splitlines()
        parts = lines[8].split(",")
        parts[4] = "-0.5"
        lines[8] = ",".join(parts)
        bad = tmp_path / "ensemble.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = run(["diagnose", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--marginals", fixture_dir / "marginals.csv",
                  "--ensemble", bad, "--out", tmp_path / "out"])
        assert rc == 2
        assert "ensemble.csv: row 9: negative rainfall in column 5" in capsys.readouterr().err

    def test_missing_locations_exit_2(self, tmp_path):
        rc = run(["fit-marginals", "--locations", tmp_path / "none.csv",
                  "--rainfall", tmp_path / "none2.csv", "--out", tmp_path])
        assert rc == 2
