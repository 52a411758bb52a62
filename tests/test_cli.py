"""Exit codes, config precedence, and output files of the command line."""
import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkm.cli import main

TINY = ["--set", "data.n_subjects=14", "--set", "data.visits=5",
        "--set", "model.d_z=8", "--set", "model.n_heads=2",
        "--set", "optim.epochs=2"]


def run(tmp_path, name, *args):
    out = tmp_path / name
    rc = main([*args, "--out", str(out)])
    return rc, out


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_missing_config_file(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "o", "synth", "--config",
                    str(tmp_path / "absent.json"))
        assert rc == 1
        assert "absent.json" in capsys.readouterr().err

    def test_malformed_override(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "o", "synth", "--set", "no-equals-sign")
        assert rc == 2
        capsys.readouterr()

    def test_unknown_config_key(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "o", "synth", "--set", "data.bogus=1")
        assert rc == 2
        assert "data.bogus" in capsys.readouterr().err

    def test_model_keys_rejected_for_synth(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "o", "synth", "--set", "model.d_z=8")
        assert rc == 2
        capsys.readouterr()

    def test_removed_power_iters_key(self, tmp_path, capsys):
        # R_spec's power iteration has a fixed count; the key is gone
        rc, _ = run(tmp_path, "o", "train", "--set", "loss.power_iters=10")
        assert rc == 2
        assert "loss.power_iters" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("optim.clip_norm", "-1"), ("optim.clip_norm", "0"),
        ("optim.weight_decay", "-0.1"), ("optim.plateau_factor", "1.5"),
        ("optim.plateau_patience", "-1"), ("optim.early_stop_patience", "-2"),
        ("optim.lr", "Infinity"), ("optim.weight_decay", "Infinity")])
    def test_optimizer_values_that_break_training(self, tmp_path, capsys, key, value):
        # a negative clip_norm flipped every gradient and still exited 0;
        # lr=Infinity died in epoch 1 on a "non-finite L_pred"
        rc, out = run(tmp_path, "o", "train", *TINY, "--set", f"{key}={value}")
        assert rc == 1
        assert f"nkm: {key.split('.')[1]}" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("key,value", [
        ("loss.eta", "NaN"), ("loss.rho", "Infinity"),
        ("loss.lambda_koop", "NaN")])
    def test_loss_values_that_are_not_finite(self, tmp_path, capsys, key, value):
        # eta=NaN exited 0 with R_spec off, rho=Infinity with the hinge and
        # the projection off
        rc, out = run(tmp_path, "o", "train", *TINY, "--set", f"{key}={value}")
        assert rc == 1
        assert (f"nkm: {key.split('.')[1]} must be a finite"
                in capsys.readouterr().err)
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("key,value", [
        ("model.rho_init", "-1"), ("model.rho_init", "0"),
        ("model.sigma_init", "nan")])
    def test_koopman_init_values_that_break_training(self, tmp_path, capsys,
                                                     key, value):
        # rho_init=-1 exited 0 with ||K||_2 = 1; sigma_init=nan died with a
        # numpy traceback
        rc, _ = run(tmp_path, "o", "train", *TINY, "--set", f"{key}={value}")
        assert rc == 1
        assert f"nkm: {key.split('.')[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "cv", "ablate",
                                         "verify-bound", "export-latents"])
    def test_unknown_train_mode_is_refused_before_the_data(
            self, tmp_path, capsys, monkeypatch, command):
        # it was refused by train() after synthesis and imputation: 2.49 s
        # at data.n_subjects=2000 with data.missing_rate=0.2
        import nkm.cli as cli

        def data_work(*a, **kw):
            raise AssertionError("train.mode=bogus reached the data")

        monkeypatch.setattr(cli, "_load_table", data_work)
        rc, _ = run(tmp_path, "o", command, *TINY,
                    "--set", "train.mode=bogus")
        assert rc == 1
        assert ("nkm: train.mode must be 'joint' or 'alternating', "
                "got 'bogus'") in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        ("train", "train.val_frac", "0"), ("cv", "cv.k", "1"),
        ("edmd", "cv.k", "1"), ("edmd", "train.val_frac", "1.5"),
        ("ablate", "ablate.setups", '["full","nope"]'),
        ("importance", "importance.runs", "0"),
        ("importance", "importance.test_frac", "1"),
        ("verify-descent", "descent.iters", "0"),
        ("verify-descent", "descent.theta_step", "0"),
        ("verify-descent", "descent.k_step", "-1"),
        ("verify-bound", "bound.tau_max", "0"),
        ("export-latents", "export.rollout_steps", "-1")])
    def test_bad_run_key_is_refused_before_the_data(
            self, tmp_path, capsys, monkeypatch, command, key, value):
        # these were refused after the data was loaded: verify-bound trained
        # a model for over 4 s before it refused tau_max=0
        import nkm.cli as cli

        def data_work(*a, **kw):
            raise AssertionError(f"{key}={value} reached the data")

        monkeypatch.setattr(cli, "_load_table", data_work)
        rc, _ = run(tmp_path, "o", command, "--set", f"{key}={value}")
        assert rc == 1
        assert f"(config key {key})" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("model.n_heads", "2.0"), ("model.d_z", "8.0"),
        ("model.n_refine_blocks", "2.5"), ("model.dropout", '"x"'),
        ("model.d_z", "true"), ("model.n_decoder_blocks", "[2]")])
    def test_model_values_of_the_wrong_type(self, tmp_path, capsys, key,
                                            value):
        # a None default takes any JSON type; these died with a TypeError
        # traceback after synthesis and imputation
        rc, out = run(tmp_path, "o", "train", *TINY, "--set", f"{key}={value}")
        assert rc == 1
        assert f"nkm: {key.split('.')[1]} must be" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("value", ["huge", "FULL"])
    def test_unknown_model_scale(self, tmp_path, capsys, value):
        # anything but "full" trained the desk model and exited 0
        rc, out = run(tmp_path, "o", "train", *TINY, "--set",
                      f"model.scale={value}")
        assert rc == 1
        assert (f"nkm: model.scale must be 'desk' or 'full', got {value!r}"
                in capsys.readouterr().err)
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("key,value", [
        ("data.noise_sd", "-1"), ("data.noise_sd", "NaN"),
        ("data.drift_sd", "-0.1"), ("data.target_noise_sd", "inf"),
        ("data.base_drift_scale", "NaN"), ("data.missing_rate", "NaN"),
        ("data.missing_rate", "1")])
    def test_synthetic_values_that_cannot_work(self, tmp_path, capsys, key, value):
        # noise_sd=-1 wrote a cohort; nan and inf died with numpy tracebacks.
        # The JSON NaN is a float and reaches the synthesizer; the string
        # "nan" is refused with the config (test_numeric_keys_refuse_a_string)
        rc, out = run(tmp_path, "o", "synth", "--set", f"{key}={value}")
        assert rc == 1
        assert f"nkm: {key.split('.')[1]}" in capsys.readouterr().err
        assert not (out / "cohort.csv").exists()

    @pytest.mark.parametrize("command,key,value", [
        ("edmd", "train.val_frac", "1.5"), ("cv", "train.val_frac", "0"),
        ("importance", "importance.test_frac", "0"),
        ("importance", "importance.test_frac", "1")])
    def test_split_fractions_outside_0_1(self, tmp_path, capsys, command, key,
                                         value):
        # val_frac=1.5 ran with one train subject per fold, and test_frac=0
        # held out one subject; the refusal of test_frac named val_frac
        rc, out = run(tmp_path, "o", command, *TINY[:4], "--set", f"{key}={value}")
        assert rc == 1
        leaf = key.split(".")[1]
        assert (f"nkm: {leaf} must be a number in (0, 1), got {value}"
                in capsys.readouterr().err)
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("window", [0, -1])
    def test_synth_refuses_the_window_before_writing_the_cohort(
            self, tmp_path, capsys, window):
        # it wrote cohort.csv and sidecar.json, then build_windows refused
        rc, out = run(tmp_path, "o", "synth", "--set", f"data.window={window}")
        assert rc == 1
        assert (f"nkm: w must be an integer >= 1, got {window}"
                in capsys.readouterr().err)
        assert not (out / "cohort.csv").exists()
        assert not (out / "sidecar.json").exists()

    def test_missing_input_data_file(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "o", "train",
                    "--set", f"data.path={tmp_path / 'nope.csv'}")
        assert rc == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_eval_without_model_stem(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "o", "eval", *TINY[:4])
        assert rc == 1
        capsys.readouterr()


class TestEffectiveConfig:
    def test_written_with_defaults_and_overrides(self, tmp_path, capsys):
        rc, out = run(tmp_path, "s", "synth", "--seed", "9",
                      "--set", "data.n_subjects=10")
        assert rc == 0
        cfg = json.loads((out / "effective-config.json").read_text())
        assert cfg["seed"] == 9
        assert cfg["data.n_subjects"] == 10
        assert cfg["data.visits"] == 8
        capsys.readouterr()

    def test_precedence_file_then_set(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps(
            {"data.n_subjects": 11, "data.visits": 6}))
        rc, out = run(tmp_path, "s", "synth", "--config", str(cfg_file),
                      "--set", "data.visits=5")
        assert rc == 0
        cfg = json.loads((out / "effective-config.json").read_text())
        assert cfg["data.n_subjects"] == 11   # from file
        assert cfg["data.visits"] == 5        # --set beats file
        capsys.readouterr()

    def test_preset_sets_model_scale(self, tmp_path, capsys):
        rc, out = run(tmp_path, "t", "train", "--preset", "adni-full",
                      "--set", "data.n_subjects=14", "--set", "data.visits=5",
                      "--set", "model.d_z=8", "--set", "model.n_heads=2",
                      "--set", "optim.epochs=1")
        assert rc == 0
        cfg = json.loads((out / "effective-config.json").read_text())
        assert cfg["model.scale"] == "full"   # preset applied
        assert cfg["model.d_z"] == 8          # --set beats preset scale
        capsys.readouterr()

    def test_preset_key_inapplicable_to_command_is_skipped(self, tmp_path,
                                                           capsys):
        # synth has no model keys; the preset must not make it error out
        rc, out = run(tmp_path, "s", "synth", "--preset", "adni-full",
                      "--set", "data.n_subjects=10")
        assert rc == 0
        cfg = json.loads((out / "effective-config.json").read_text())
        assert "model.scale" not in cfg
        capsys.readouterr()


class TestSynth:
    def test_outputs_and_byte_determinism(self, tmp_path, capsys):
        rc1, o1 = run(tmp_path, "a", "synth", "--seed", "4",
                      "--set", "data.n_subjects=12")
        rc2, o2 = run(tmp_path, "b", "synth", "--seed", "4",
                      "--set", "data.n_subjects=12")
        assert rc1 == rc2 == 0
        a = (o1 / "cohort.csv").read_bytes()
        b = (o2 / "cohort.csv").read_bytes()
        assert a == b
        assert (o1 / "sidecar.json").exists()
        report = json.loads((o1 / "report.json").read_text())
        assert report["subjects"] == 12
        capsys.readouterr()

    def test_seed_changes_bytes(self, tmp_path, capsys):
        _, o1 = run(tmp_path, "a", "synth", "--seed", "4",
                    "--set", "data.n_subjects=12")
        _, o2 = run(tmp_path, "b", "synth", "--seed", "5",
                    "--set", "data.n_subjects=12")
        assert (o1 / "cohort.csv").read_bytes() != (o2 / "cohort.csv").read_bytes()
        capsys.readouterr()


class TestTrainEval:
    def test_train_writes_checkpoint_and_metrics(self, tmp_path, capsys):
        rc, out = run(tmp_path, "t", "train", "--seed", "3", *TINY)
        assert rc == 0
        for name in ("model.json", "model.bin", "preprocessor.npz",
                     "metrics.csv", "report.json", "effective-config.json"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["train"]["best_epoch"] >= 0
        assert len(report["train"]["epochs"]) >= 1
        with np.load(out / "preprocessor.npz") as z:
            stored = z["train_std"].shape[0]
        assert report["preprocessor"] == {"file": "preprocessor.npz",
                                          "train_rows": stored}
        with open(out / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["target"] for r in rows} == {"ADAS13", "MMSE", "CDRSB"}
        assert f"preprocessor.npz ({stored} train rows)" in capsys.readouterr().out

    def test_eval_round_trip(self, tmp_path, capsys):
        _, t = run(tmp_path, "t", "train", "--seed", "3", *TINY)
        rc, out = run(tmp_path, "e", "eval", "--seed", "3",
                      "--set", f"eval.model={t / 'model'}",
                      "--set", f"eval.preprocessor={t / 'preprocessor.npz'}",
                      "--set", "data.n_subjects=10", "--set", "data.visits=5")
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["windows"] > 0
        assert set(report["metrics"]["pearson"]) == {"ADAS13", "MMSE", "CDRSB"}
        capsys.readouterr()

    def test_eval_refuses_unusable_preprocessor(self, tmp_path, capsys):
        _, t = run(tmp_path, "t", "train", "--seed", "3", *TINY)
        with np.load(t / "preprocessor.npz") as z:
            state = dict(z)
        state["k"] = np.int64(0)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **state)
        rc, _ = run(tmp_path, "e", "eval",
                    "--set", f"eval.model={t / 'model'}",
                    "--set", f"eval.preprocessor={bad}",
                    "--set", "data.n_subjects=10", "--set", "data.visits=5")
        assert rc == 1
        assert "bad.npz" in capsys.readouterr().err

    def test_eval_on_a_cohort_too_short_for_a_window(self, tmp_path, capsys):
        _, t = run(tmp_path, "t", "train", "--seed", "3", *TINY)
        rc, _ = run(tmp_path, "e", "eval",
                    "--set", f"eval.model={t / 'model'}",
                    "--set", f"eval.preprocessor={t / 'preprocessor.npz'}",
                    "--set", "data.n_subjects=10", "--set", "data.visits=3")
        assert rc == 1
        assert "no windows" in capsys.readouterr().err

    def test_eval_refuses_a_window_other_than_the_checkpoints(self, tmp_path,
                                                              capsys):
        _, t = run(tmp_path, "t", "train", "--seed", "3", *TINY)
        rc, out = run(tmp_path, "e", "eval",
                      "--set", f"eval.model={t / 'model'}",
                      "--set", f"eval.preprocessor={t / 'preprocessor.npz'}",
                      "--set", "data.n_subjects=10", "--set", "data.visits=5",
                      "--set", "data.window=4")
        assert rc == 1
        err = capsys.readouterr().err
        assert "data.window=4" in err and "arch.window=3" in err
        assert str(t / "model") in err
        assert not (out / "report.json").exists()

    def test_eval_missing_checkpoint(self, tmp_path, capsys):
        _, t = run(tmp_path, "t", "train", "--seed", "3", *TINY)
        rc, _ = run(tmp_path, "e", "eval",
                    "--set", f"eval.model={tmp_path / 'ghost'}",
                    "--set", f"eval.preprocessor={t / 'preprocessor.npz'}")
        assert rc == 1
        assert "ghost" in capsys.readouterr().err


class TestCvAndAblate:
    def test_cv_outputs(self, tmp_path, capsys):
        rc, out = run(tmp_path, "c", "cv", "--seed", "1", *TINY,
                      "--set", "cv.k=3")
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["folds"] == 3
        assert len(report["per_fold_mean_pearson"]) == 3
        with open(out / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9  # 3 folds x 3 targets
        assert {r["fold"] for r in rows} == {"0", "1", "2"}
        line = capsys.readouterr().out
        assert "r=" in line and "MAE=" in line

    def test_cv_deterministic_metrics(self, tmp_path, capsys):
        _, o1 = run(tmp_path, "c1", "cv", "--seed", "1", *TINY,
                    "--set", "cv.k=3")
        _, o2 = run(tmp_path, "c2", "cv", "--seed", "1", *TINY,
                    "--set", "cv.k=3")
        assert (o1 / "metrics.csv").read_bytes() == (o2 / "metrics.csv").read_bytes()
        capsys.readouterr()

    def test_ablate_block_and_win_count(self, tmp_path, capsys):
        rc, out = run(tmp_path, "a", "ablate", "--seed", "1", *TINY,
                      "--set", "cv.k=3",
                      "--set", 'ablate.setups=["full","no_control"]')
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["setups"]) == {"full", "no_control"}
        wins = report["full_vs_no_control"]
        assert wins["folds"] == 3 and 0 <= wins["wins"] <= 3
        assert capsys.readouterr().out.count("r=") == 2


    @pytest.mark.parametrize("setups,message", [
        ('["full","full"]', "setups name 'full' more than once"),
        ("[]", "setups must name at least one setup")])
    def test_ablate_refuses_repeated_or_no_setups(self, tmp_path, capsys,
                                                  setups, message):
        # ["full","full"] exited 0 with one summary in report.json and both
        # runs under the same keys in metrics.csv; [] wrote an empty report
        rc, out = run(tmp_path, "a", "ablate", *TINY, "--set", "cv.k=3",
                      "--set", f"ablate.setups={setups}")
        assert rc == 1
        assert f"nkm: {message}" in capsys.readouterr().err
        assert not (out / "report.json").exists()

def test_cv_summary_matches_numpy_for_every_key():
    from nkm.cli import _cv_summary
    from nkm.schema import TARGET_COLUMNS
    from nkm.training import CvResult, EvalMetrics, FoldOutcome
    metrics = ("pearson", "spearman", "mae", "rmse")
    values = np.random.default_rng(4).random((2, len(metrics),
                                              len(TARGET_COLUMNS)))
    folds = [FoldOutcome(f, EvalMetrics(
        list(TARGET_COLUMNS),
        *({t: float(v) for t, v in zip(TARGET_COLUMNS, row)} for row in fold),
        {t: False for t in TARGET_COLUMNS})) for f, fold in enumerate(values)]
    got = _cv_summary(CvResult("hand", folds))

    want = {"setup": "hand", "folds": 2, "per_target": {}}
    for j, metric in enumerate(metrics):
        table = values[:, j, :]                 # (fold, target)
        fold_means = table.mean(axis=1)
        want[f"mean_{metric}"] = float(fold_means.mean())
        want[f"std_{metric}"] = float(fold_means.std())
        for i, t in enumerate(TARGET_COLUMNS):
            want["per_target"].setdefault(t, {}).update({
                f"{metric}_mean": float(table[:, i].mean()),
                f"{metric}_std": float(table[:, i].std())})
    want["per_fold_mean_pearson"] = values[:, 0, :].mean(axis=1).tolist()
    assert got == want


class TestEdmdCommand:
    def test_edmd_cv(self, tmp_path, capsys):
        rc, out = run(tmp_path, "d", "edmd", "--seed", "1",
                      "--set", "data.n_subjects=15", "--set", "data.visits=5",
                      "--set", "cv.k=3", "--set", "edmd.n_centers=20")
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["setup"] == "edmd_rbf" and report["folds"] == 3
        capsys.readouterr()

    def test_reports_the_gram_rank(self, tmp_path, capsys):
        # 20 centres + 44 identity columns + a constant over 8 train+val
        # subjects: the one-hot blocks sum to the constant, so G is singular
        # and the solve falls back to its pseudo-inverse
        rc, out = run(tmp_path, "d", "edmd", "--seed", "1",
                      "--set", "data.n_subjects=15", "--set", "data.visits=5",
                      "--set", "cv.k=3", "--set", "edmd.n_centers=20")
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["lifted_dim"] == 65
        assert len(report["gram_rank"]) == 3
        assert all(0 < r < 65 for r in report["gram_rank"])
        assert (f"Gram matrix rank per fold: {report['gram_rank']} of 65"
                in capsys.readouterr().out)

    def test_small_cohort_with_train_constant_columns(self, tmp_path, capsys):
        # ten subjects leave one-hot columns constant in some train splits;
        # an unseen value in a test row must not blow up the readout solve
        rc, out = run(tmp_path, "d", "edmd",
                      "--set", "data.n_subjects=10", "--set", "data.visits=5",
                      "--set", "cv.k=2", "--set", "edmd.n_centers=4")
        assert rc == 0
        assert json.loads((out / "report.json").read_text())["folds"] == 2
        capsys.readouterr()


    @pytest.mark.parametrize("key,value", [
        ("edmd.alpha", "NaN"), ("edmd.alpha", "Infinity"),
        ("edmd.readout_alpha", "NaN")])
    def test_non_finite_ridge_refused(self, tmp_path, capsys, key, value):
        # alpha=NaN ran as alpha=0; alpha=Infinity and readout_alpha=NaN
        # exited 0 with NaN metrics in report.json
        rc, out = run(tmp_path, "d", "edmd", "--set", "data.n_subjects=10",
                      "--set", "data.visits=5", "--set", "cv.k=2",
                      "--set", "edmd.n_centers=4", "--set", f"{key}={value}")
        assert rc == 1
        assert f"nkm: {key.split('.')[1]} must be a finite" in capsys.readouterr().err
        assert not (out / "report.json").exists()


class TestVerifyCommands:
    def test_bound_edmd_source(self, tmp_path, capsys):
        rc, out = run(tmp_path, "vb", "verify-bound", "--seed", "0",
                      "--set", "bound.source=edmd", "--set", "bound.tau_max=5",
                      "--set", "data.n_subjects=12", "--set", "data.visits=8",
                      "--set", "data.observation=identity",
                      "--set", "data.noise_sd=0.0",
                      "--set", "data.drift_sd=0.0",
                      "--set", "data.base_drift_scale=0.0",
                      "--set", "edmd.n_centers=0",
                      "--set", "edmd.include_constant=false",
                      "--set", "edmd.alpha=1e-6")
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["source"] == "edmd" and report["passed"]
        assert "PASS" in capsys.readouterr().out

    def test_bound_nkm_source(self, tmp_path, capsys):
        rc, out = run(tmp_path, "vb", "verify-bound", "--seed", "0",
                      "--set", "bound.source=nkm", "--set", "bound.tau_max=6",
                      "--set", "data.n_subjects=12", "--set", "data.visits=9",
                      "--set", "model.d_z=8", "--set", "model.n_heads=2",
                      "--set", "optim.epochs=2")
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["source"] == "nkm" and report["passed"]
        assert report["norm_k"] < 1.0
        capsys.readouterr()

    def test_bound_nkm_source_reuses_the_fold_table(self, tmp_path, capsys,
                                                    monkeypatch):
        # the fold imputes every row once; the command re-imputed the test rows
        from nkm.data import Preprocessor
        rows = []
        transform = Preprocessor.transform
        monkeypatch.setattr(Preprocessor, "transform", lambda self, X:
                            rows.append(len(X)) or transform(self, X))
        rc, _ = run(tmp_path, "vb", "verify-bound", *TINY,
                    "--set", "data.visits=8", "--set", "data.missing_rate=0.2",
                    "--set", "bound.tau_max=3")
        assert rc == 0, capsys.readouterr().err
        assert rows == [14 * 8]
        capsys.readouterr()

    @pytest.mark.parametrize("n_windows", [0, -1])
    def test_descent_on_no_windows(self, tmp_path, capsys, n_windows):
        # an empty batch died with a ZeroDivisionError in composite_loss
        rc, _ = run(tmp_path, "vd", "verify-descent", *TINY[:8],
                    "--set", f"descent.n_windows={n_windows}")
        assert rc == 1
        assert "at least one window" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("descent.theta_step", "-1"), ("descent.theta_step", "0"),
        ("descent.k_step", "0"), ("descent.k_step", "-0.5"),
        ("descent.iters", "-3"), ("descent.iters", "0")])
    def test_descent_refuses_vacuous_settings(self, tmp_path, capsys, key,
                                              value):
        # theta_step=-1 and k_step=0 printed PASS with the parameters never
        # moving; iters=-3 printed "FAIL (-3 iterations ...)"
        rc, out = run(tmp_path, "vd", "verify-descent", *TINY[:8],
                      "--set", f"{key}={value}")
        assert rc == 1
        assert f"nkm: {key.split('.')[1]} must be" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_descent_with_negative_control(self, tmp_path, capsys):
        rc, out = run(tmp_path, "vd", "verify-descent", "--seed", "0",
                      "--set", "data.n_subjects=12", "--set", "data.visits=5",
                      "--set", "descent.iters=5",
                      "--set", "model.d_z=8", "--set", "model.n_heads=2")
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"]
        assert report["descent"]["passed"]
        assert not report["negative_control"]["passed"]
        capsys.readouterr()


class TestAnalysisCommands:
    def test_importance_outputs(self, tmp_path, capsys):
        rc, out = run(tmp_path, "i", "importance", "--seed", "0",
                      "--set", "data.n_subjects=14", "--set", "data.visits=5",
                      "--set", "importance.runs=2",
                      "--set", "importance.train=false",
                      "--set", "model.d_z=8", "--set", "model.n_heads=2")
        assert rc == 0
        with open(out / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 44
        report = json.loads((out / "report.json").read_text())
        assert report["runs"] == 2
        capsys.readouterr()

    def test_export_latents(self, tmp_path, capsys):
        rc, out = run(tmp_path, "x", "export-latents", "--seed", "0", *TINY,
                      "--set", "export.rollout_steps=3")
        assert rc == 0
        with open(out / "latents.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and {r["step"] for r in rows} == {"0", "1", "2", "3"}
        assert all(np.isfinite(float(r["pc1"])) for r in rows)
        capsys.readouterr()


class TestAblateForwardsCvArguments:
    def test_window_and_val_frac_reach_run_cv(self, tmp_path, capsys,
                                              monkeypatch):
        import nkm.training as training
        seen = []
        real_run_cv = training.run_cv

        def spy(table, **kwargs):
            seen.append(kwargs)
            return real_run_cv(table, **kwargs)

        monkeypatch.setattr(training, "run_cv", spy)
        rc, out = run(tmp_path, "a", "ablate", "--seed", "1", *TINY,
                      "--set", "data.visits=6", "--set", "data.window=4",
                      "--set", "train.val_frac=0.3", "--set", "cv.k=3",
                      "--set", 'ablate.setups=["full"]')
        assert rc == 0, capsys.readouterr().err
        assert [(kw["arch"].window, kw["val_frac"]) for kw in seen] == [(4, 0.3)]
        report = json.loads((out / "report.json").read_text())
        assert report["setups"]["full"]["folds"] == 3
        capsys.readouterr()


class _ReadRecorder(dict):
    """Config table that remembers every key a handler looks up."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


_SMALL_DATA = ["--set", "data.n_subjects=10", "--set", "data.visits=5"]
_SMALL_MODEL = ["--set", "model.d_z=8", "--set", "model.n_heads=2"]

# One or more runs per command; their reads are pooled, so a key counts as
# read if any supported branch of the command reads it.
_KEY_SCAN_RUNS = {
    "synth": [_SMALL_DATA],
    "train": [TINY],
    "eval": [[*_SMALL_DATA, "--set", "eval.model={ckpt}/model",
              "--set", "eval.preprocessor={ckpt}/preprocessor.npz"]],
    "cv": [[*TINY, "--set", "cv.k=2"]],
    "ablate": [[*TINY, "--set", "cv.k=2",
                "--set", 'ablate.setups=["full"]']],
    "edmd": [["--seed", "1", "--set", "data.n_subjects=15",
              "--set", "data.visits=5", "--set", "cv.k=3",
              "--set", "edmd.n_centers=20"]],
    "verify-bound": [[*TINY, "--set", "data.visits=8",
                      "--set", "bound.tau_max=3"],
                     [*_SMALL_DATA, "--set", "bound.source=edmd",
                      "--set", "bound.tau_max=3",
                      "--set", "data.observation=identity",
                      "--set", "data.noise_sd=0.0",
                      "--set", "data.drift_sd=0.0",
                      "--set", "data.base_drift_scale=0.0",
                      "--set", "edmd.n_centers=0",
                      "--set", "edmd.include_constant=false",
                      "--set", "edmd.alpha=1e-6"]],
    "verify-descent": [[*_SMALL_DATA, *_SMALL_MODEL,
                        "--set", "descent.iters=1",
                        "--set", "descent.n_windows=4"]],
    "importance": [[*TINY, "--set", "importance.runs=1",
                    "--set", "importance.train=true"]],
    "export-latents": [[*TINY, "--set", "export.rollout_steps=1"],
                       [*_SMALL_DATA, "--set", "export.model={ckpt}/model",
                        "--set",
                        "export.preprocessor={ckpt}/preprocessor.npz"]],
}


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    assert main(["train", *TINY, "--out", str(out)]) == 0
    return out


def _numeric_keys():
    from nkm.config import COMMAND_DEFAULTS
    return [(command, key) for command, table in sorted(COMMAND_DEFAULTS.items())
            for key, default in sorted(table.items())
            if isinstance(default, (int, float)) and not isinstance(default, bool)]


@pytest.mark.parametrize("command,key", _numeric_keys())
def test_numeric_keys_refuse_a_string(command, key, tmp_path, capsys):
    """`--set key=nan` parses as the string "nan"; it died with a TypeError
    traceback deep in the run, or ran on."""
    rc, out = run(tmp_path, "o", command, "--set", f"{key}=nan")
    assert rc == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,key,value,ok", [
    ("cv", "cv.k", "2.0", False), ("cv", "cv.k", "true", False),
    ("cv", "optim.lr", "1", True), ("cv", "optim.lr", "false", False),
    ("edmd", "edmd.include_identity", "1", False),
    ("edmd", "edmd.include_identity", "false", True),
    ("ablate", "ablate.setups", '"full"', False),
    ("ablate", "ablate.setups", '["full"]', True),
    ("train", "train.mode", "3", False), ("train", "model.d_z", "8", True),
    ("train", "model.d_z", '"eight"', True)])
def test_config_values_take_their_defaults_json_type(command, key, value, ok):
    # a None default (model.d_z) takes any value; its consumer checks it
    from nkm.config import ConfigError, build_config, parse_override
    if ok:
        build_config(command, overrides=[parse_override(f"{key}={value}")])
    else:
        with pytest.raises(ConfigError, match=key):
            build_config(command, overrides=[parse_override(f"{key}={value}")])


def test_config_file_value_of_the_wrong_type(tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"cv.k": 2.5}))
    rc, _ = run(tmp_path, "o", "cv", "--config", str(cfg_file))
    assert rc == 2
    assert "'cv.k' (from config file)" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_KEY_SCAN_RUNS))
def test_every_config_key_is_read(command, tmp_path, monkeypatch, capsys,
                                  tiny_checkpoint):
    """A key a command accepts but never reads would silently do nothing."""
    import nkm.cli as cli
    from nkm.config import COMMAND_DEFAULTS, build_config
    tables = []

    def recording_build_config(*args, **kwargs):
        tables.append(_ReadRecorder(build_config(*args, **kwargs)))
        return tables[-1]

    monkeypatch.setattr(cli, "build_config", recording_build_config)
    for i, args in enumerate(_KEY_SCAN_RUNS[command]):
        args = [a.format(ckpt=tiny_checkpoint) for a in args]
        rc = main([command, *args, "--out", str(tmp_path / str(i))])
        assert rc == 0, capsys.readouterr().err
    read = set().union(*(t.read for t in tables))
    assert sorted(set(COMMAND_DEFAULTS[command]) - read) == []
    capsys.readouterr()


class _DataWork(Exception):
    """Raised by the patched loaders; `main` does not catch it."""


# run keys a library function reads after the data is loaded: the lower
# bound of each count, and the check of the others
_RUN_COUNTS = {"cv.k": 2, "importance.runs": 1, "descent.iters": 1,
               "bound.tau_max": 1, "export.rollout_steps": 0}
_RUN_NUMBERS = {
    "train.val_frac": lambda v: 0 < v < 1,
    "importance.test_frac": lambda v: 0 < v < 1,
    "descent.theta_step": lambda v: math.isfinite(v) and v > 0,
    "descent.k_step": lambda v: math.isfinite(v) and v > 0}


def _typed_keys(command: str) -> list[str]:
    """The keys of `command` that a typed config or a run check reads."""
    from nkm.config import COMMAND_DEFAULTS
    table = COMMAND_DEFAULTS[command]
    return [key for key in sorted(table)
            if (key.startswith(("model.", "optim.", "loss.", "edmd.", "data.",
                                "bound.source", "train.mode", "ablate.setups"))
                or key in _RUN_COUNTS or key in _RUN_NUMBERS)
            and key != "data.path"
            and not (key == "data.window" and "model.scale" not in table)]


def _accepted(key: str, cfg: dict) -> bool:
    """Whether the typed config that reads `key` takes cfg's value, the
    model included: the oracle for what may reach the data."""
    from nkm.config import arch_from_config, from_config
    from nkm.edmd import EdmdConfig
    from nkm.model import ABLATION_SETUPS, AblationFlags, NkmModel
    from nkm.optim import OptimConfig
    from nkm.synthetic import SyntheticConfig
    from nkm.training import TRAIN_MODES, LossConfig
    try:
        if key.startswith("model.") or key == "data.window":
            NkmModel(arch_from_config(cfg), seed=0, ablation=AblationFlags
                     .from_name(cfg.get("model.ablation", "full")))
        elif key.startswith("optim."):
            from_config(OptimConfig, cfg, "optim")
        elif key.startswith("loss."):
            from_config(LossConfig, cfg, "loss")
        elif key.startswith("edmd."):
            from_config(EdmdConfig, cfg, "edmd", seed=0)
        elif key == "bound.source":
            return cfg[key] in ("nkm", "edmd")
        elif key == "train.mode":
            return cfg[key] in TRAIN_MODES
        elif key == "ablate.setups":
            names = cfg[key]
            return (bool(names) and all(n in ABLATION_SETUPS for n in names)
                    and len(set(names)) == len(names))
        elif key in _RUN_COUNTS:
            lo = _RUN_COUNTS[key]
            return type(cfg[key]) is int and cfg[key] >= lo
        elif key in _RUN_NUMBERS:
            return (type(cfg[key]) in (int, float)
                    and _RUN_NUMBERS[key](cfg[key]))
        else:
            from_config(SyntheticConfig, cfg, "data")
    except Exception:
        return False
    return True


# ints stay small because the oracle builds the model they size
_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 64),
                         st.floats(), st.text(max_size=6),
                         st.lists(st.integers(-3, 3), max_size=2))


@pytest.mark.parametrize("command", sorted(_KEY_SCAN_RUNS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_bad_value_is_refused_before_any_data_work(command, data,
                                                     tiny_checkpoint,
                                                     tmp_path_factory):
    """Any JSON value of a typed key either exits 2 (wrong JSON type), exits
    1 (refused by its config), or reaches the data loaders, and only a value
    its config takes may reach them. Refusals used to come after synthesis
    and imputation, or not at all (model.n_heads=2.0 died in numpy)."""
    from unittest import mock

    import nkm.cli as cli
    from nkm.config import ConfigError, build_config, parse_override
    key = data.draw(st.sampled_from(_typed_keys(command)), label="key")
    value = data.draw(_JSON_VALUES, label="value")
    sets = [f"{key}={json.dumps(value)}"]
    if command == "eval":
        sets += [f"eval.model={tiny_checkpoint}/model",
                 f"eval.preprocessor={tiny_checkpoint}/preprocessor.npz"]
    if command == "verify-bound" and key.startswith("edmd."):
        sets.append("bound.source=edmd")    # the one branch that reads them
    args = [command, "--out", str(tmp_path_factory.getbasetemp() / "refusal")]
    for s in sets:
        args += ["--set", s]

    def data_work(*a, **kw):
        raise _DataWork

    with mock.patch.object(cli, "_load_table", data_work), \
            mock.patch.object(cli, "generate_synthetic", data_work), \
            mock.patch.object(cli, "materialize_fold", data_work):
        try:
            rc = main(args)
        except _DataWork:
            rc = None
    try:
        cfg = build_config(command, overrides=[parse_override(s) for s in sets])
    except ConfigError:
        assert rc == 2
        return
    if rc is None:
        assert _accepted(key, cfg), f"{sets[0]} reached the data"
    else:
        assert rc == 1 and not _accepted(key, cfg), sets[0]
