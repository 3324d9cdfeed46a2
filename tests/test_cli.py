"""Command-line pipeline tests: determinism, ingestion validation, exit codes."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from raincop import cli, marginals, numerics
from raincop.cli import main

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


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

    def test_repeated_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=2\ndays=6\nseed=-1\n")
        assert run(["synth", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert f"{cfg}: line 3: seed repeats line 1" in capsys.readouterr().err
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

    def test_strict_nonconvergence_exit_3_writes_nothing(self, fixture_dir, tmp_path,
                                                          monkeypatch, capsys):
        monkeypatch.setattr(marginals, "MAX_ITER", 1)
        with pytest.warns(RuntimeWarning):
            rc = run(["fit-marginals", "--locations", fixture_dir / "locations.csv",
                      "--rainfall", fixture_dir / "rainfall.csv", "--strict",
                      "--out", tmp_path / "out"])
        assert rc == 3
        assert "fit-marginals: did not converge" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_removed_fit_flag_exit_2(self, fixture_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["fit-marginals", "--locations", fixture_dir / "locations.csv",
                 "--rainfall", fixture_dir / "rainfall.csv", "--step", "0.5",
                 "--out", tmp_path / "out"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_removed_fit_config_key_exit_2(self, fixture_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=2\nrel_tol=1e-8\n")
        rc = run(["fit-marginals", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv", "--config", cfg,
                  "--out", tmp_path / "out"])
        assert rc == 2
        assert f"{cfg}: line 2: unknown key 'rel_tol'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_removed_subsample_flag_exit_2(self, fixture_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            self.estimate(fixture_dir, tmp_path / "out", ("--day-subsample", "40"))
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_removed_subsample_config_key_exit_2(self, fixture_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=2\nlocation_subsample=all\n")
        assert self.estimate(fixture_dir, tmp_path / "out", ("--config", cfg)) == 2
        assert f"{cfg}: line 2: unknown key 'location_subsample'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_threads_share_day_chunks_and_keep_bytes(self, tmp_path):
        # 40 sites x 120 days at m = 30: three day chunks, so --threads 2
        # puts a second thread to work
        fx = tmp_path / "fx"
        assert run(["synth", "--out", fx, "--seed", "4", "--n-locations", "40",
                    "--days", "120"]) == 0
        assert len(numerics.day_chunks(120, 30 * 40)) == 3
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert self.estimate(fx, out, ("--m", "30", "--threads", threads)) == 0
            outputs.append([(out / f).read_bytes() for f in ("profile.csv", "summary.json")])
        assert outputs[0] == outputs[1]

    def test_boundary_strict_exit_3(self, fixture_dir, tmp_path):
        with pytest.warns(UserWarning, match="boundary"):
            rc = run(["estimate-theta",
                      "--locations", fixture_dir / "locations.csv",
                      "--rainfall", fixture_dir / "rainfall.csv",
                      "--marginals", fixture_dir / "marginals.csv",
                      "--theta-min", "3000", "--theta-max", "6000",
                      "--grid", "4", "--m", "6",
                      "--seed", "3", "--out", tmp_path / "out", "--strict"])
        assert rc == 3
        assert not (tmp_path / "out").exists()  # a strict failure writes nothing

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


class TestBlasThreads:
    """Importing raincop pins OpenBLAS to one thread, so no output depends on its count."""

    # how each run starts: (argv prefix, OPENBLAS_NUM_THREADS or None for unset)
    LAUNCHES = {
        "one": ([sys.executable, "-m", "raincop.cli"], "1"),
        "unset": ([sys.executable, "-m", "raincop.cli"], None),
        "two": ([sys.executable, "-m", "raincop.cli"], "2"),
        "numpy-first": ([sys.executable, "-c",
                         "import sys, numpy; from raincop.cli import main; sys.exit(main())"],
                        None),
    }
    FILES = ("locations.csv", "rainfall.csv", "marginals.csv", "est/profile.csv",
             "est/summary.json")

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # 100 sites x 30 days: unpinned, rainfall.csv and profile.csv differed
        # between one and two OpenBLAS threads on a 2-core machine (40 x 60 did
        # not). numpy-first loads numpy at the default count before raincop.
        outputs = {}
        for name, (launch, blas) in self.LAUNCHES.items():
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
            if blas is not None:
                env["OPENBLAS_NUM_THREADS"] = blas
            out = tmp_path / name
            for args in (["synth", "--out", out, "--seed", "1", "--n-locations", "100",
                          "--days", "30"],
                         ["estimate-theta", "--locations", out / "locations.csv",
                          "--rainfall", out / "rainfall.csv",
                          "--marginals", out / "marginals.csv",
                          "--grid", "3", "--m", "8", "--seed", "1", "--out", out / "est"]):
                subprocess.run([*launch, *map(str, args)], env=env, check=True,
                               capture_output=True)
            outputs[name] = [(out / f).read_bytes() for f in self.FILES]
        for name in ("unset", "two", "numpy-first"):
            assert outputs[name] == outputs["one"], name


class TestSettingSources:
    @pytest.mark.parametrize("command, key, value, message", [
        ("estimate-theta", "m", "1", "the unbiased pairwise term needs m >= 2"),
        ("estimate-theta", "beta", "2.5", "beta must lie in (0, 2)"),
        ("estimate-theta", "grid", "2", "grid needs at least 3 points"),
        ("estimate-theta", "theta_min", "900", "need 0 < lower < upper"),
        ("estimate-theta", "nu", "0", "nu must be positive, got 0.0"),
        ("simulate", "theta", "nan", "theta must be positive, got nan"),
        ("estimate-theta", "a", "2", "blend coefficient a must lie in [0, 1], got 2.0"),
        ("estimate-theta", "topo_scale", "0", "topo_scale must be positive and finite, got 0.0"),
        ("simulate", "a", "-0.5", "blend coefficient a must lie in [0, 1], got -0.5"),
        ("simulate", "topo_scale", "nan", "topo_scale must be positive and finite, got nan"),
        ("simulate", "nu", "0", "nu must be positive, got 0.0"),
        ("diagnose", "a", "1.5", "blend coefficient a must lie in [0, 1], got 1.5"),
        ("diagnose", "topo_scale", "-70", "topo_scale must be positive and finite, got -70.0"),
        # a flag's text is converted like a config line's
        ("estimate-theta", "m", "abc", "invalid value 'abc' for m"),
        ("fit-marginals", "transform", "bogus", "invalid value 'bogus' for transform"),
        ("simulate", "threads", "x", "invalid value 'x' for threads"),
        ("diagnose", "beta", "-1", "beta must lie in (0, 2)"),
        ("diagnose", "beta", "nan", "beta must lie in (0, 2)"),
        ("diagnose", "beta", "5", "beta must lie in (0, 2)"),
        ("diagnose", "beta", "0", "beta must lie in (0, 2)"),
        ("diagnose", "tau_grid", "0", "tau_grid must be at least 2, got 0"),
        ("diagnose", "tau_grid", "1", "tau_grid must be at least 2, got 1"),
        ("diagnose", "tau_grid", "-3", "tau_grid must be at least 2, got -3"),
        ("diagnose", "rank_bins", "0", "rank_bins must be at least 1, got 0"),
        ("diagnose", "q_levels", "-1", "q_levels must be nonnegative and finite, got [-1.0]"),
        ("diagnose", "ecdf_levels", "-2",
         "ecdf_levels must be nonnegative and finite, got [-2.0]"),
        ("synth", "n_locations", "1", "need at least two locations"),
        ("synth", "lat_min", "60", "a coordinate range needs low <= high, got (60.0, 58.7)"),
        ("synth", "start_date", "9999-12-30", "500 days from 9999-12-30 run past 9999-12-31"),
        ("synth", "seed", "-1", "seed must be nonnegative, got -1"),
        ("estimate-theta", "seed", "-2", "seed must be nonnegative, got -2"),
        ("estimate-theta", "nu", "12.3", "nu must be at most 10, got 12.3"),
        ("simulate", "nu", "12.3", "nu must be at most 10, got 12.3"),
        ("synth", "nu", "10.5", "nu must be at most 10, got 10.5"),
        ("estimate-theta", "theta_max", "inf", "theta bounds must be finite, got [200.0, inf]"),
        ("synth", "topo_scale", "inf", "topo_scale must be positive and finite, got inf"),
        ("estimate-theta", "topo_scale", "inf", "topo_scale must be positive and finite, got inf"),
        ("simulate", "topo_scale", "inf", "topo_scale must be positive and finite, got inf"),
        ("diagnose", "topo_scale", "inf", "topo_scale must be positive and finite, got inf"),
        ("diagnose", "q_levels", "0.5,inf",
         "q_levels must be nonnegative and finite, got [0.5, inf]"),
        ("diagnose", "ecdf_levels", "0,inf",
         "ecdf_levels must be nonnegative and finite, got [0.0, inf]"),
        # two levels that would write one roc_q<name>.csv and one auc key
        ("diagnose", "q_levels", "0.5,0.50000001,5",
         "q_levels must differ in 6 significant digits, got [0.5, 0.50000001, 5.0]"),
        ("diagnose", "q_levels", "5,5.0",
         "q_levels must differ in 6 significant digits, got [5.0, 5.0]"),
        ("synth", "threads", "0", "threads must be at least 1, got 0"),
        ("fit-marginals", "threads", "-5", "threads must be at least 1, got -5"),
        ("estimate-theta", "threads", "0", "threads must be at least 1, got 0"),
        ("simulate", "threads", "-5", "threads must be at least 1, got -5"),
        ("diagnose", "threads", "0", "threads must be at least 1, got 0"),
    ], ids=["m", "beta", "grid", "theta-min", "nu", "simulate-theta",
            "a", "topo-scale", "simulate-a", "simulate-topo-scale", "simulate-nu",
            "diagnose-a", "diagnose-topo-scale", "m-malformed", "transform-malformed",
            "threads-malformed", "diagnose-beta-negative", "diagnose-beta-nan",
            "diagnose-beta-large", "diagnose-beta-zero", "diagnose-tau-grid-zero",
            "diagnose-tau-grid-one", "diagnose-tau-grid-negative", "diagnose-rank-bins-zero",
            "diagnose-q-levels", "diagnose-ecdf-levels", "synth-n-locations", "synth-lat-min",
            "synth-date-overflow", "synth-seed", "estimate-theta-seed", "nu-above-10",
            "simulate-nu-above-10", "synth-nu-half-integer-above-10", "theta-max-infinite",
            "synth-topo-scale-infinite", "topo-scale-infinite", "simulate-topo-scale-infinite",
            "diagnose-topo-scale-infinite", "diagnose-q-levels-infinite",
            "diagnose-ecdf-levels-infinite", "diagnose-q-levels-same-name",
            "diagnose-q-levels-repeated", "synth-threads-zero", "fit-marginals-threads-negative",
            "estimate-theta-threads-zero", "simulate-threads-negative",
            "diagnose-threads-zero"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_rejected_setting_names_source(self, tmp_path, capsys, command, key, value,
                                           message, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a comment, so the setting sits on line 2\n{key}={value}\n")
        flag = "--" + key.replace("_", "-")
        extra = [flag, value] if source == "flag" else ["--config", cfg]
        # input files that do not exist: the setting is checked before any is read
        missing = tmp_path / "missing.csv"
        inputs = [] if command == "synth" else ["--locations", missing, "--rainfall", missing]
        rc = run([command, *inputs, *extra, "--out", tmp_path / "out"])
        assert rc == 2
        where = flag if source == "flag" else f"{cfg}: line 2"
        assert f"error: {where}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["ture", "2", ""], ids=["misspelt", "number", "empty"])
    def test_non_boolean_strict_names_config_line(self, tmp_path, capsys, value):
        # --strict takes no value, so only a config line can give strict a word
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a comment, so the setting sits on line 2\nstrict={value}\n")
        missing = tmp_path / "missing.csv"
        rc = run(["fit-marginals", "--locations", missing, "--rainfall", missing,
                  "--config", cfg, "--out", tmp_path / "out"])
        assert rc == 2
        assert (f"error: {cfg}: line 2: invalid value {value!r} for strict"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_strict_words_in_any_case(self):
        for word, value in [("1", True), ("TRUE", True), (" yes ", True), ("On", True),
                            ("0", False), ("False", False), ("no", False), ("OFF", False),
                            (True, True)]:  # True: the --strict flag
            assert cli.CONVERT["strict"](word) is value

    def test_every_table_key_is_a_flag(self):
        # a setting deleted from COMMANDS may not linger in another table
        flags = set(cli._COMMON)
        for _, _, input_files, keys in cli.COMMANDS.values():
            flags.update(input_files, keys)
        for table in (cli.DEFAULTS, cli.CONVERT, cli._HELP):
            assert set(table) <= flags, set(table) - flags

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_rank_bins_above_members_names_source(self, fixture_dir, ensemble_path, tmp_path,
                                                  capsys, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=2\nrank_bins=6\n")
        extra = ["--rank-bins", "6"] if source == "flag" else ["--config", cfg]
        rc = run(["diagnose", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--marginals", fixture_dir / "marginals.csv",
                  "--ensemble", ensemble_path, *extra, "--out", tmp_path / "diag"])
        assert rc == 2
        where = "--rank-bins" if source == "flag" else f"{cfg}: line 2"
        message = "rank_bins must be at most m + 1 = 5, got 6"  # m = 4
        assert f"error: {where}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "diag").exists()

    def test_default_rank_bins_fit_a_small_ensemble(self, fixture_dir, ensemble_path, tmp_path):
        # unset, rank_bins is min(10, m + 1): at m = 4 the run equals --rank-bins 5
        for out, extra in (("default", []), ("five", ["--rank-bins", "5"])):
            assert run(["diagnose", "--locations", fixture_dir / "locations.csv",
                        "--rainfall", fixture_dir / "rainfall.csv",
                        "--marginals", fixture_dir / "marginals.csv",
                        "--ensemble", ensemble_path, *extra, "--out", tmp_path / out]) == 0
        assert len((tmp_path / "default" / "rank_hist.csv").read_text().splitlines()) == 1 + 5
        for name in ("rank_hist.csv", "diagnostics.json"):
            assert (tmp_path / "default" / name).read_bytes() == \
                (tmp_path / "five" / name).read_bytes()


class TestSimulateAndDiagnose:
    def test_pipeline(self, fixture_dir, tmp_path, whole_ensemble):
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
        from raincop.estimation import energy_score_unbiased
        from raincop.panel import read_rain_csv
        from raincop.spatial import read_locations
        locs = read_locations(fixture_dir / "locations.csv")
        panel = read_rain_csv(fixture_dir / "rainfall.csv", locs)
        obs = panel.values
        ens = whole_ensemble(sim_a / "ensemble.csv", panel.day_labels, locs.ids)
        per_day = [energy_score_unbiased(b[None], obs[None, s], 0.5)[0]
                   for s, b in enumerate(ens)]
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
        assert ("449 rows but the panel's 150 days need 450 (3 a day)"
                in capsys.readouterr().err)
        assert not (tmp_path / "diag").exists()

    def test_single_replicate_rejected(self, fixture_dir, tmp_path, capsys):
        common = ["--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--marginals", fixture_dir / "marginals.csv"]
        assert run(["simulate", *common, "--theta", "450", "--m", "1",
                    "--out", tmp_path]) == 0
        rc = run(["diagnose", *common, "--ensemble", tmp_path / "ensemble.csv",
                  "--out", tmp_path / "diag"])
        assert rc == 2
        assert (f"error: {tmp_path / 'ensemble.csv'}: ensemble needs at least two replicates "
                "per day") in capsys.readouterr().err
        assert not (tmp_path / "diag").exists()

    @pytest.mark.parametrize("edit, detail", [
        (lambda lines: lines[:-4],  # the last day's 4 rows gone
         "596 rows but the panel's 150 days need 600 (4 a day)"),
        (lambda lines: [line.replace("1999-01-03,", "1999-01-33,") for line in lines],
         "row 10: day '1999-01-33' does not match panel order (expected '1999-01-03')"),
    ], ids=["fewer-days", "renamed-day"])
    def test_day_mismatch_names_ensemble_and_day(self, fixture_dir, ensemble_path, tmp_path,
                                                 capsys, edit, detail):
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(edit(ensemble_path.read_text().splitlines())) + "\n")
        rc = run(["diagnose", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--marginals", fixture_dir / "marginals.csv",
                  "--ensemble", path, "--out", tmp_path / "diag"])
        assert rc == 2
        assert f"error: {path}: {detail}" in capsys.readouterr().err
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

    @pytest.mark.parametrize("replicates, bad_row, token, want", [
        (["x"] * 8, 2, "x", "0"),                          # not an index at all
        (["0", "1", "2", "3", "0", "0", "2", "3"], 7, "0", "1"),   # duplicated index
        (["0", "1", "2", "3", "1", "0", "2", "3"], 6, "1", "0"),   # swapped pair
    ], ids=["not-an-index", "duplicated", "swapped"])
    def test_replicate_column_checked(self, fixture_dir, ensemble_path, tmp_path, capsys,
                                      replicates, bad_row, token, want):
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
        assert (f"{path}: row {bad_row}: replicate {token!r} does not match panel order "
                f"(expected {want!r})") in err
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
        # a coarse search may legitimately end on the boundary;
        # this test only cares that simulate picks theta_hat up from the file
        est = tmp_path / "est"
        rc = run(["estimate-theta", "--locations", fixture_dir / "locations.csv",
                  "--rainfall", fixture_dir / "rainfall.csv",
                  "--marginals", fixture_dir / "marginals.csv",
                  "--grid", "4", "--m", "6", "--seed", "13", "--out", est])
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
        ('{"theta_hat": -5}', "theta_hat: theta must be positive, got -5.0"),
    ], ids=["no-theta-hat", "null-theta-hat", "not-an-object", "not-json",
            "negative-theta-hat"])
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


class TestSimulateStreaming:
    def simulate(self, fixture_dir, out, extra=()):
        return run(["simulate", "--locations", fixture_dir / "locations.csv",
                    "--rainfall", fixture_dir / "rainfall.csv",
                    "--marginals", fixture_dir / "marginals.csv",
                    "--theta", "450", "--seed", "3", "--out", out, *extra])

    @pytest.mark.parametrize("extra, message", [
        (["--m", "0"], "--m: need at least one draw, got 0"),
        (["--m", "-2"], "--m: need at least one draw, got -2"),
        (["--config", "m0.cfg"], "m0.cfg: line 1: need at least one draw, got 0"),
        (["--m", "4", "--theta", "-5"], "theta must be positive"),
    ], ids=["m-0", "m-negative", "m-0-config", "theta-negative"])
    def test_rejected_setting_writes_nothing(self, fixture_dir, tmp_path, monkeypatch,
                                             capsys, extra, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m0.cfg").write_text("m=0\n")
        assert self.simulate(fixture_dir, tmp_path / "sim", extra) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("nu", ["3.5", "2.2"])
    def test_tiny_theta_exit_0(self, fixture_dir, tmp_path, nu):
        # sqrt(2 nu) d / theta overflows: the kernel is 0 off the diagonal, not NaN
        assert self.simulate(fixture_dir, tmp_path, ["--m", "4", "--theta", "1e-200",
                                                     "--nu", nu]) == 0
        assert (tmp_path / "ensemble.csv").exists()

    @pytest.mark.parametrize("days_per_chunk", [1, 7], ids=["one-day", "ragged"])
    def test_chunking_changes_no_byte(self, fixture_dir, ensemble_path, tmp_path,
                                      monkeypatch, days_per_chunk):
        from raincop import numerics

        m, n = 4, 10  # ensemble_path: --m 4 over the fixture's 10 locations, 150 days
        monkeypatch.setattr(numerics, "_ELEMENT_BUDGET", days_per_chunk * m * n)
        assert len(numerics.day_chunks(150, m * n)) == -(-150 // days_per_chunk)
        assert self.simulate(fixture_dir, tmp_path, ["--m", str(m)]) == 0
        assert (tmp_path / "ensemble.csv").read_bytes() == ensemble_path.read_bytes()

    def test_peak_memory_flat_in_days(self, tmp_path):
        """simulate's traced peak grows by far less than its output when days grow 4x."""
        import tracemalloc

        peaks = {}
        for days in (100, 400):
            fx = tmp_path / f"fx{days}"
            assert run(["synth", "--out", fx, "--seed", "3", "--n-locations", "20",
                        "--days", days]) == 0
            tracemalloc.start()
            try:
                assert self.simulate(fx, tmp_path / f"sim{days}", ["--m", "50"]) == 0
                peaks[days] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        size = (tmp_path / "sim400" / "ensemble.csv").stat().st_size  # about 5 MB
        assert peaks[400] - peaks[100] < 0.25 * size


class TestDiagnoseStreamed:
    """diagnose scores the ensemble a day chunk at a time as it is parsed."""

    @staticmethod
    def diagnose(fixture_dir, ensemble, out, extra=()):
        return run(["diagnose", "--locations", fixture_dir / "locations.csv",
                    "--rainfall", fixture_dir / "rainfall.csv",
                    "--marginals", fixture_dir / "marginals.csv",
                    "--ensemble", ensemble, "--q-levels", "0.5,5", "--rank-bins", "5",
                    "--seed", "4", "--out", out, *extra])

    @pytest.mark.parametrize("order, message", [
        # replicate-major rows, every day's first row before any day's second: the
        # first day holds one row, so m reads 1
        (lambda rows: [rows[s * 4 + j] for j in range(4) for s in range(150)],
         "600 rows but the panel's 150 days need 150 (1 a day)"),
        # the second and third days' rows taken in turn
        (lambda rows: [*rows[:4], *(row for pair in zip(rows[4:8], rows[8:12]) for row in pair),
                       *rows[12:]],
         "row 7: day '1999-01-03' does not match panel order (expected '1999-01-02')"),
    ], ids=["replicate-major", "two-days"])
    def test_interleaved_days_rejected(self, fixture_dir, ensemble_path, tmp_path, capsys,
                                       order, message):
        # ensemble_path: --m 4 over the fixture's 10 locations, 150 days
        header, *rows = ensemble_path.read_text().splitlines()
        path = tmp_path / "interleaved.csv"
        path.write_text("\n".join([header, *order(rows)]) + "\n")
        assert self.diagnose(fixture_dir, path, tmp_path / "diag") == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "diag").exists()

    # Each edit of the ensemble's data rows (a list of field lists, 150 days of
    # m = 4 over 10 locations) and the error it gives; the later edits pair a key
    # or setting error with a bad cell further down, which comes first.
    EDITS = {
        "ragged": (lambda rows: rows.pop(5),
                   "599 rows but the panel's 150 days need 600 (4 a day)"),
        "misplaced": (lambda rows: rows.insert(0, rows.pop(1)),
                      "row 2: replicate '1' does not match panel order (expected '0')"),
        "non-numeric": (lambda rows: rows[8].__setitem__(4, "abc"),
                        "row 10: non-numeric value 'abc' in column 5 (loc_s0002)"),
        "non-finite": (lambda rows: rows[20].__setitem__(11, "-inf"),
                       "row 22: non-finite value -inf in column 12 (loc_s0009)"),
        "negative": (lambda rows: rows[30].__setitem__(2, "-0.5"),
                     "row 32: negative rainfall in column 3 (loc_s0000)"),
        "day-mismatch": (lambda rows: [row.__setitem__(0, "1999-13-01") for row in rows[8:12]],
                         "row 10: day '1999-13-01' does not match panel order "
                         "(expected '1999-01-03')"),
        "ragged-then-negative": (lambda rows: (rows.pop(5), rows[400].__setitem__(3, "-1")),
                                 "row 402: negative rainfall in column 4 (loc_s0001)"),
        "misplaced-then-abc": (lambda rows: (rows.insert(0, rows.pop(1)),
                                             rows[300].__setitem__(5, "x")),
                               "row 302: non-numeric value 'x' in column 6 (loc_s0003)"),
        "mismatch-then-nan": (lambda rows: ([row.__setitem__(0, "1999-13-01")
                                             for row in rows[8:12]],
                                            rows[-1].__setitem__(2, "nan")),
                              "row 601: non-finite value nan in column 3 (loc_s0000)"),
        "wrong-fields-before-nan": (lambda rows: (rows[100].__setitem__(2, "nan"),
                                                  rows[200].append("1.5")),
                                    "row 202: expected 12 fields, got 13"),
    }

    @pytest.mark.parametrize("name", list(EDITS))
    def test_reader_errors_keep_message_and_order(self, fixture_dir, ensemble_path, tmp_path,
                                                  capsys, name):
        edit, message = self.EDITS[name]
        header, *lines = ensemble_path.read_text().splitlines()
        assert header == "day,replicate," + ",".join(f"loc_s{i:04d}" for i in range(10))
        rows = [line.split(",") for line in lines]
        edit(rows)
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join([header, *map(",".join, rows)]) + "\n")
        assert self.diagnose(fixture_dir, path, tmp_path / "diag") == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "diag").exists()

    @pytest.mark.parametrize("edit", [None, "negative"], ids=["alone", "then-negative"])
    def test_header_and_rank_bins_errors(self, fixture_dir, ensemble_path, tmp_path, capsys,
                                         edit):
        header, *lines = ensemble_path.read_text().splitlines()
        if edit:
            lines[30] = lines[30].replace(",", ",-", 2).replace(",-", ",", 1)  # a -x cell
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(["day,rep," + header.split(",", 2)[2], *lines]) + "\n")
        assert self.diagnose(fixture_dir, path, tmp_path / "d") == 2
        assert (capsys.readouterr().err ==
                f"error: {path}: ensemble header does not match the locations file\n")
        path.write_text("\n".join([header, *lines]) + "\n")
        assert self.diagnose(fixture_dir, path, tmp_path / "d", ["--rank-bins", "6"]) == 2
        want = ("row 32: negative rainfall in column 3 (loc_s0000)" if edit else
                "rank_bins must be at most m + 1 = 5, got 6")
        err = capsys.readouterr().err
        assert err == (f"error: {path}: {want}\n" if edit else f"error: --rank-bins: {want}\n")
        assert not (tmp_path / "d").exists()

    def test_scoring_peak_flat_in_days(self, tmp_path):
        """4x the days adds less than one day chunk to diagnose's traced peak."""
        import tracemalloc

        from raincop import numerics

        k = numerics.day_chunks(10**6, 50 * 10)[0].stop  # days a chunk: 131 at m = 50, n = 10
        fx = tmp_path / "fx"
        assert run(["synth", "--out", fx, "--seed", "3", "--n-locations", "10",
                    "--days", 4 * k]) == 0
        assert run(["simulate", "--locations", fx / "locations.csv",
                    "--rainfall", fx / "rainfall.csv", "--marginals", fx / "marginals.csv",
                    "--theta", "450", "--m", "50", "--seed", "3", "--out", fx]) == 0
        peaks = {}
        for days in (k, 4 * k):
            cut = tmp_path / f"cut{days}"
            cut.mkdir()
            (cut / "locations.csv").write_bytes((fx / "locations.csv").read_bytes())
            for name, rows in (("rainfall.csv", days), ("marginals.csv", days * 10),
                               ("ensemble.csv", days * 50)):
                lines = (fx / name).read_text().splitlines()
                (cut / name).write_text("\n".join(lines[:rows + 1]) + "\n")
            tracemalloc.start()
            try:
                assert self.diagnose(cut, cut / "ensemble.csv", cut / "diag") == 0
                peaks[days] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        chunk = k * 50 * 10 * 8  # 524 KB; the 3k more days' samples are 1.6 MB
        assert peaks[4 * k] - peaks[k] < chunk


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
        assert self._run_with_cell(fixture_dir, ensemble_path, tmp_path,
                                   name, line, field, token) == 2
        err = capsys.readouterr().err
        what = (f"non-numeric value {token!r}" if token == "abc"
                else f"non-finite value {float(token)!r}")
        assert f"{name}: row {line + 1}: {what} in column {field + 1}" in err

    @pytest.mark.parametrize("name,line,field,token,what", [
        ("marginals.csv", 7, 2, "1.5", "value 1.5 outside [0, 1] in column 3 (p)"),
        ("marginals.csv", 30, 2, "-0.25", "value -0.25 outside [0, 1] in column 3 (p)"),
        ("marginals.csv", 12, 3, "0", "value 0.0 not above 0 in column 4 (mu)"),
        ("marginals.csv", 40, 4, "-2", "value -2.0 not above 0 in column 5 (phi)"),
        ("locations.csv", 3, 1, "95", "value 95.0 outside [-90, 90] in column 2 (lat)"),
        ("locations.csv", 6, 2, "-180.5",
         "value -180.5 outside [-180, 180] in column 3 (lon)"),
        ("locations.csv", 5, 0, "s0001", "id 's0001' repeats an earlier row"),
    ], ids=["p-above", "p-below", "mu", "phi", "lat", "lon", "id-repeated"])
    def test_out_of_range_rejected_with_location(self, fixture_dir, ensemble_path, tmp_path,
                                                 capsys, name, line, field, token, what):
        assert self._run_with_cell(fixture_dir, ensemble_path, tmp_path,
                                   name, line, field, token) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / name}: row {line + 1}: {what}\n"

    @staticmethod
    def _run_with_cell(fixture_dir, ensemble_path, tmp_path, name, line, field, token):
        """The exit code of a stage that reads name with field of line (from 0) set to token."""
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
        return run([*argv, "--locations", paths["locations"],
                    "--rainfall", paths["rainfall"], "--out", tmp_path / "out"])

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

    @pytest.mark.parametrize("make, message", [
        (lambda path: None, "config file not found: {path}"),
        (lambda path: path.mkdir(), "--config: {path} is a directory, not a file"),
    ], ids=["missing", "directory"])
    def test_config_path_exit_2(self, tmp_path, capsys, make, message):
        cfg = tmp_path / "run.cfg"
        make(cfg)
        assert run(["synth", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=cfg)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,where", [
        (["fit-marginals", "--locations", "{dir}", "--rainfall", "{dir}"], "--locations"),
        (["synth", "--config", "{dir}"], "--config"),
    ], ids=["locations", "config"])
    def test_directory_input_exit_2(self, tmp_path, capsys, argv, where):
        folder = tmp_path / "folder"
        folder.mkdir()
        rc = run([a.format(dir=folder) for a in argv] + ["--out", tmp_path / "out"])
        assert rc == 2
        assert f"{where}: {folder} is a directory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_csv_names_file_row_and_byte(self, tmp_path, capsys):
        # several read blocks long, so a block-relative position would be wrong
        assert run(["synth", "--out", tmp_path, "--n-locations", "4", "--days", "2000"]) == 0
        data = (tmp_path / "rainfall.csv").read_bytes()
        assert len(data) > 3 * 4096 * 5
        at = data.index(b"\n", len(data) * 3 // 4) + 1 + len("1999-01-01,")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data[:at] + b"\x80" + data[at + 1:])
        rc = run(["fit-marginals", "--locations", tmp_path / "locations.csv",
                  "--rainfall", bad, "--out", tmp_path / "out"])
        assert rc == 2
        row = data.count(b"\n", 0, at) + 1
        assert (f"{bad}: row {row}: byte {at} is not UTF-8 (invalid start byte)"
                in capsys.readouterr().err)

    def test_config_line_in_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=1\nconfig=nowhere.cfg\n")
        assert run(["synth", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: line 2: unknown key 'config'\n"
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_names_line_and_byte(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed=1\nm=\xff3\n")
        rc = run(["synth", "--config", cfg, "--out", tmp_path / "out"])
        assert rc == 2
        assert f"{cfg}: line 2: byte 9 is not UTF-8" in capsys.readouterr().err


class TestExitCodes:
    """main maps what a stage raises to the exit code and the stderr prefix."""

    @pytest.mark.parametrize("exc, code, prefix", [
        (numerics.NotPositiveDefinite("not positive definite at jitter 1e-06"), 3,
         "numerical error: "),
        (OverflowError("math range error"), 3, "numerical error: "),
        (ValueError("need at least two locations"), 2, "invalid input: "),
        (RuntimeError("an invariant broke"), 4, "internal error: RuntimeError: "),
    ], ids=["not-positive-definite", "overflow", "value-error", "runtime-error"])
    def test_stage_error_sets_code_and_prefix(self, tmp_path, capsys, monkeypatch, exc, code,
                                              prefix):
        def fail(spec):
            raise exc

        monkeypatch.setattr(cli, "simulate_dataset", fail)
        assert run(["synth", "--out", tmp_path, "--n-locations", "4", "--days", "6"]) == code
        assert capsys.readouterr().err == f"{prefix}{exc}\n"
