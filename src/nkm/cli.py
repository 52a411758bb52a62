"""Command-line entry point.

    nkm <command> [--config PATH] [--seed INT] [--out DIR]
                  [--preset {desk,adni-full}] [--set key=value ...]

Commands: synth, train, eval, cv, ablate, edmd, verify-bound,
verify-descent, importance, export-latents. Every run writes
effective-config.json to the output directory before doing work, then its
metrics.csv / report.json (plus command-specific files). Exit codes: 0 ok,
1 runtime or data error, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import schema
from .analysis import (export_latents, feature_importance, verify_bound,
                       verify_descent, write_latents_csv)
from .checks import check_choice, check_int, check_number
from .config import (COMMAND_DEFAULTS, ConfigError, arch_from_config,
                     build_config, from_config, load_config_file,
                     parse_override, write_effective_config)
from .data import (Preprocessor, Windows, build_windows, load_visits_csv,
                   materialize_fold, train_val_split, write_visits_csv)
from .edmd import EdmdConfig, EdmdModel
from .model import AblationFlags, NkmModel, load_checkpoint, save_checkpoint
from .optim import OptimConfig
from .synthetic import SyntheticConfig, generate_synthetic
from .training import (TRAIN_MODES, CvResult, LossConfig, check_setups,
                       evaluate, run_ablation, run_cv, run_edmd_cv, train)

METRIC_COLUMNS = ["setup", "fold", "target", "pearson", "spearman", "mae",
                  "rmse"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nkm",
        description="Koopman-style longitudinal forecasting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMAND_DEFAULTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="JSON file of dotted config keys")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--preset", choices=["desk", "adni-full"], default=None)
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key")
    return parser


# ---- shared plumbing -------------------------------------------------------

def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_metrics_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(METRIC_COLUMNS)
        for r in rows:
            w.writerow([r["setup"], r.get("fold", 0), r["target"],
                        _fmt(r["pearson"]), _fmt(r["spearman"]),
                        _fmt(r["mae"]), _fmt(r["rmse"])])


def _write_report(out_dir: Path, report: dict) -> None:
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")


def _data_source(cfg: dict) -> Path | SyntheticConfig:
    """The visits CSV at data.path, or else the checked config the cohort is
    synthesized from. Handlers take it before any data work."""
    if cfg["data.path"]:
        return Path(cfg["data.path"])
    return from_config(SyntheticConfig, cfg, "data")


def _load_table(source: Path | SyntheticConfig, seed: int):
    """(table, sidecar-or-None) from a `_data_source`."""
    if isinstance(source, SyntheticConfig):
        return generate_synthetic(source, seed)
    if not source.exists():
        raise FileNotFoundError(f"input data file not found: {source}")
    return load_visits_csv(source), None


def _fit_nkm(cfg: dict, hold_out: bool):
    """(fold, TrainResult): build the run's configs, load the table, hold out
    a train.val_frac share of its subjects as the test split if hold_out,
    fit preprocessing on the train split, and train one model on the rest."""
    arch = arch_from_config(cfg)
    ablation = AblationFlags.from_name(cfg["model.ablation"])
    optim_cfg = from_config(OptimConfig, cfg, "optim")
    loss_cfg = from_config(LossConfig, cfg, "loss")
    table, _ = _load_table(_data_source(cfg), cfg["seed"])
    test_subjects = []
    if hold_out:
        _, test_subjects = train_val_split(table.unique_subjects(),
                                           cfg["train.val_frac"], cfg["seed"])
    fold = materialize_fold(table, test_subjects, seed=cfg["seed"],
                            w=arch.window, val_frac=cfg["train.val_frac"])
    result = train(NkmModel(arch, seed=cfg["seed"], ablation=ablation),
                   fold.train, fold.val, optim_cfg, loss_cfg,
                   mode=cfg["train.mode"], seed=cfg["seed"])
    return fold, result


def _load_nkm(cfg: dict, prefix: str):
    """(model, manifest, windows): the checkpoint at `<prefix>.model` and the
    data table windowed through the preprocessor at `<prefix>.preprocessor`."""
    source = _data_source(cfg)
    if not cfg[f"{prefix}.model"]:
        raise ValueError(f"{prefix}.model must point to a checkpoint stem")
    if not cfg[f"{prefix}.preprocessor"]:
        raise ValueError(
            f"{prefix}.preprocessor must point to a preprocessor .npz")
    pre_path = Path(cfg[f"{prefix}.preprocessor"])
    if not pre_path.exists():
        raise FileNotFoundError(f"preprocessor file not found: {pre_path}")
    model, manifest = load_checkpoint(cfg[f"{prefix}.model"])
    if cfg["data.window"] != model.arch.window:
        raise ValueError(f"data.window={cfg['data.window']} differs from "
                         f"arch.window={model.arch.window} of the checkpoint "
                         f"{cfg[f'{prefix}.model']}")
    pre = Preprocessor.load(pre_path)
    table, _ = _load_table(source, cfg["seed"])
    prepped = table.with_features(pre.transform(table.X))
    return model, manifest, build_windows(prepped, w=cfg["data.window"])


def _cv_kwargs(cfg: dict) -> dict:
    """run_cv arguments shared by the cv and ablate commands."""
    return {"arch": arch_from_config(cfg),
            "optim_cfg": from_config(OptimConfig, cfg, "optim"),
            "loss_cfg": from_config(LossConfig, cfg, "loss"), "k": cfg["cv.k"],
            "seed": cfg["seed"], "mode": cfg["train.mode"],
            "val_frac": cfg["train.val_frac"]}


_FRACTION = partial(check_number, lo=0, hi=1, lo_open=True, hi_open=True)
_POSITIVE = partial(check_number, lo=0, lo_open=True)

# Keys whose library function would refuse a bad value only after the data
# is loaded, each checked as that function's parameter (the key's last part)
_RUN_KEY_CHECKS = {
    "train.val_frac": _FRACTION, "importance.test_frac": _FRACTION,
    "cv.k": partial(check_int, lo=2), "importance.runs": partial(check_int, lo=1),
    "descent.iters": partial(check_int, lo=1),
    "descent.theta_step": _POSITIVE, "descent.k_step": _POSITIVE,
    "bound.tau_max": partial(check_int, lo=1),
    "export.rollout_steps": partial(check_int, lo=0),
    "ablate.setups": check_setups,
}


def _check_run_keys(cfg: dict) -> None:
    """Refuse a bad run key before any data work. The typed configs refuse
    their own keys when the handlers build them."""
    for key, check in _RUN_KEY_CHECKS.items():
        if key in cfg:
            try:
                check(cfg[key], key.split(".")[1])
            except ValueError as err:
                raise ValueError(f"{err} (config key {key})") from None
    if "train.mode" in cfg:
        check_choice(cfg["train.mode"], "train.mode", TRAIN_MODES)
    if "bound.source" in cfg:
        check_choice(cfg["bound.source"], "bound.source", ("nkm", "edmd"))


def _cv_summary(res: CvResult) -> dict:
    per_target = {}
    for t in schema.TARGET_COLUMNS:
        for metric in ("pearson", "spearman", "mae", "rmse"):
            vals = [getattr(f.metrics, metric)[t] for f in res.folds]
            per_target.setdefault(t, {})[f"{metric}_mean"] = float(np.mean(vals))
            per_target[t][f"{metric}_std"] = float(np.std(vals))
    fold_r = res.fold_mean_pearson()
    fold_mae = [f.metrics.mean_mae for f in res.folds]
    fold_rmse = [f.metrics.mean_rmse for f in res.folds]
    fold_rho = [float(np.mean([f.metrics.spearman[t]
                               for t in schema.TARGET_COLUMNS]))
                for f in res.folds]
    return {"setup": res.setup, "folds": len(res.folds),
            "mean_pearson": float(np.mean(fold_r)),
            "std_pearson": float(np.std(fold_r)),
            "mean_spearman": float(np.mean(fold_rho)),
            "std_spearman": float(np.std(fold_rho)),
            "mean_mae": float(np.mean(fold_mae)),
            "std_mae": float(np.std(fold_mae)),
            "mean_rmse": float(np.mean(fold_rmse)),
            "std_rmse": float(np.std(fold_rmse)),
            "per_fold_mean_pearson": fold_r, "per_target": per_target}


def _print_table_row(summary: dict) -> None:
    print(f"{summary['setup']:>24s}  "
          f"r={summary['mean_pearson']:.4f}±{summary['std_pearson']:.4f}  "
          f"rho={summary['mean_spearman']:.4f}±{summary['std_spearman']:.4f}  "
          f"MAE={summary['mean_mae']:.4f}±{summary['std_mae']:.4f}  "
          f"RMSE={summary['mean_rmse']:.4f}±{summary['std_rmse']:.4f}")


# ---- command handlers ------------------------------------------------------

def _cmd_synth(cfg: dict, out_dir: Path) -> None:
    table, sidecar = generate_synthetic(from_config(SyntheticConfig, cfg, "data"),
                                        cfg["seed"])
    write_visits_csv(table, out_dir / "cohort.csv")
    (out_dir / "sidecar.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True, default=str) + "\n")
    windows = build_windows(table, w=cfg["data.window"])
    _write_report(out_dir, {
        "rows": len(table.subject_ids),
        "subjects": len(table.unique_subjects()),
        "windows": len(windows), "seed": cfg["seed"]})
    print(f"wrote {out_dir / 'cohort.csv'} "
          f"({len(table.subject_ids)} rows, {len(windows)} windows)")


def _cmd_train(cfg: dict, out_dir: Path) -> None:
    fold, result = _fit_nkm(cfg, hold_out=False)
    save_checkpoint(result.model, str(out_dir / "model"),
                    history=result.history)
    pre_file = "preprocessor.npz"
    fold.preprocessor.save(out_dir / pre_file)
    pre_rows = fold.preprocessor.train_std_.shape[0]
    metrics = evaluate(result.model, fold.val)
    _write_metrics_csv(out_dir / "metrics.csv",
                       metrics.rows(cfg["model.ablation"]))
    _write_report(out_dir, {"train": result.report(),
                            "val_metrics": metrics.to_dict(),
                            "preprocessor": {"file": pre_file,
                                             "train_rows": pre_rows}})
    print(f"best val loss {result.best_val:.6f} at epoch {result.best_epoch}; "
          f"checkpoint at {out_dir / 'model'}.json/.bin; "
          f"{out_dir / pre_file} ({pre_rows} train rows)")


def _cmd_eval(cfg: dict, out_dir: Path) -> None:
    model, manifest, windows = _load_nkm(cfg, "eval")
    metrics = evaluate(model, windows)
    flags = manifest.get("ablation") or {}
    setup = next((k for k, v in flags.items() if v), "full")
    _write_metrics_csv(out_dir / "metrics.csv", metrics.rows(setup))
    _write_report(out_dir, {"windows": len(windows),
                            "metrics": metrics.to_dict()})
    print(f"evaluated {len(windows)} windows; "
          f"mean r={metrics.mean_pearson:.4f}")


def _write_cv(res: CvResult, out_dir: Path, extra: dict | None = None) -> None:
    """metrics.csv, the summary report.json (plus `extra`) and the printed
    row of one setup."""
    _write_metrics_csv(out_dir / "metrics.csv", res.rows())
    summary = _cv_summary(res)
    _write_report(out_dir, {**summary, **(extra or {})})
    _print_table_row(summary)


def _cmd_cv(cfg: dict, out_dir: Path) -> None:
    name = cfg["model.ablation"]
    ablation = AblationFlags.from_name(name)
    kwargs = _cv_kwargs(cfg)
    table, _ = _load_table(_data_source(cfg), cfg["seed"])
    _write_cv(run_cv(table, ablation=ablation, setup_name=name, **kwargs),
              out_dir)


def _cmd_ablate(cfg: dict, out_dir: Path) -> None:
    kwargs = _cv_kwargs(cfg)
    table, _ = _load_table(_data_source(cfg), cfg["seed"])
    results = run_ablation(table, setups=list(cfg["ablate.setups"]), **kwargs)
    rows = [r for res in results for r in res.rows()]
    _write_metrics_csv(out_dir / "metrics.csv", rows)
    summaries = {res.setup: _cv_summary(res) for res in results}
    report: dict = {"setups": summaries}
    by_name = {res.setup: res for res in results}
    if "full" in by_name and "no_control" in by_name:
        full_r = by_name["full"].fold_mean_pearson()
        nc_r = by_name["no_control"].fold_mean_pearson()
        report["full_vs_no_control"] = {
            "wins": int(sum(a > b for a, b in zip(full_r, nc_r))),
            "folds": len(full_r)}
    _write_report(out_dir, report)
    for res in results:
        _print_table_row(summaries[res.setup])


def _cmd_edmd(cfg: dict, out_dir: Path) -> None:
    edmd_cfg = from_config(EdmdConfig, cfg, "edmd", seed=cfg["seed"])
    table, _ = _load_table(_data_source(cfg), cfg["seed"])
    res = run_edmd_cv(table, edmd_cfg, k=cfg["cv.k"],
                      seed=cfg["seed"], w=cfg["data.window"],
                      val_frac=cfg["train.val_frac"])
    # a rank below the lifted dimension means K is a minimum-norm solution
    ranks = [f.result.rank_ for f in res.folds]
    dim = res.folds[0].result.dictionary.lifted_dim
    _write_cv(res, out_dir, {"gram_rank": ranks, "lifted_dim": dim})
    if ranks[0] is not None:
        print(f"Gram matrix rank per fold: {ranks} of {dim}")


def _cmd_verify_bound(cfg: dict, out_dir: Path) -> None:
    tau_max = cfg["bound.tau_max"]
    if cfg["bound.source"] == "edmd":
        edmd_cfg = from_config(EdmdConfig, cfg, "edmd", seed=cfg["seed"])
        table, _ = _load_table(_data_source(cfg), cfg["seed"])
        # raw-table fit: standardization is a similarity transform that can
        # push the recovered operator norm past 1 on purely linear cohorts
        model = EdmdModel(edmd_cfg).fit(table)
        report = verify_bound(model, table, tau_max=tau_max)
        meta = {"source": "edmd"}
    else:
        fold, result = _fit_nkm(cfg, hold_out=True)
        report = verify_bound(result.model,
                              fold.table.subset_subjects(fold.test_subjects),
                              tau_max=tau_max)
        meta = {"source": "nkm", "held_out_subjects": len(fold.test_subjects)}
    _write_report(out_dir, {**meta, **report.to_dict()})
    print(f"bound check ({meta['source']}): "
          f"{'PASS' if report.passed else 'FAIL'}  "
          f"eps={report.eps_tilde:.6g} |K|={report.norm_k:.6g} "
          f"limit={report.limit:.6g}")


def _cmd_verify_descent(cfg: dict, out_dir: Path) -> None:
    """Full-batch descent check. The Preprocessor is fitted on every row on
    purpose: the check runs on one fixed batch and scores nothing held out."""
    arch = arch_from_config(cfg)
    loss_cfg = from_config(LossConfig, cfg, "loss")
    table, _ = _load_table(_data_source(cfg), cfg["seed"])
    pre = Preprocessor().fit(table.X)
    prepped = table.with_features(pre.transform(table.X))
    windows = build_windows(prepped, w=arch.window)
    n = max(0, min(cfg["descent.n_windows"], len(windows)))
    batch = Windows(windows.X[:n], windows.y[:n], windows.subjects[:n],
                    windows.starts[:n])
    main_report = verify_descent(NkmModel(arch, seed=cfg["seed"]), batch,
                                 loss_cfg, iters=cfg["descent.iters"],
                                 theta_step=cfg["descent.theta_step"],
                                 k_step=cfg["descent.k_step"])
    report = {"descent": main_report.to_dict()}
    passed = main_report.passed
    if cfg["descent.negative_control"]:
        nc = verify_descent(NkmModel(arch, seed=cfg["seed"]), batch, loss_cfg,
                            iters=cfg["descent.iters"], theta_step=1e6,
                            backtracking=False)
        report["negative_control"] = nc.to_dict()
        passed = passed and not nc.passed
        print(f"negative control: {'diverged as expected' if not nc.passed else 'UNEXPECTEDLY PASSED'}")
    report["passed"] = passed
    _write_report(out_dir, report)
    print(f"descent check: {'PASS' if passed else 'FAIL'} "
          f"({cfg['descent.iters']} iterations, {n} windows)")


def _cmd_importance(cfg: dict, out_dir: Path) -> None:
    arch = arch_from_config(cfg)
    optim_cfg = from_config(OptimConfig, cfg, "optim")
    loss_cfg = from_config(LossConfig, cfg, "loss")
    table, _ = _load_table(_data_source(cfg), cfg["seed"])
    report = feature_importance(table, runs=cfg["importance.runs"],
                                seed=cfg["seed"], arch=arch,
                                optim_cfg=optim_cfg, loss_cfg=loss_cfg,
                                train_models=cfg["importance.train"],
                                test_frac=cfg["importance.test_frac"])
    _write_report(out_dir, report.to_dict())
    with open(out_dir / "metrics.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        targets = schema.TARGET_COLUMNS
        w.writerow(["feature", "mean_importance", "top10_frequency"]
                   + [f"importance_{t}" for t in targets])
        for i, name in enumerate(report.features):
            w.writerow([name, _fmt(report.mean_importance[i]),
                        _fmt(report.top10_frequency[i])]
                       + [_fmt(report.per_target[t][i]) for t in targets])
    top = int(np.argmax(report.mean_importance))
    print(f"{report.runs} runs; top feature {report.features[top]} "
          f"(mean r drop {report.mean_importance[top]:.4f})")


def _cmd_export_latents(cfg: dict, out_dir: Path) -> None:
    steps = cfg["export.rollout_steps"]
    if cfg["export.model"]:
        model, _, windows = _load_nkm(cfg, "export")
        rows = export_latents(model, windows, rollout_steps=steps)
    else:
        fold, result = _fit_nkm(cfg, hold_out=True)
        rows = export_latents(result.model, fold.test,
                              train_windows=fold.train, rollout_steps=steps)
    write_latents_csv(out_dir / "latents.csv", rows)
    _write_report(out_dir, {"rows": len(rows), "rollout_steps": steps})
    print(f"wrote {len(rows)} trajectory rows to {out_dir / 'latents.csv'}")


_HANDLERS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "cv": _cmd_cv,
    "ablate": _cmd_ablate,
    "edmd": _cmd_edmd,
    "verify-bound": _cmd_verify_bound,
    "verify-descent": _cmd_verify_descent,
    "importance": _cmd_importance,
    "export-latents": _cmd_export_latents,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        file_values = load_config_file(args.config) if args.config else None
        overrides = [parse_override(s) for s in args.overrides]
        cfg = build_config(args.command, preset=args.preset,
                           file_values=file_values, overrides=overrides,
                           seed=args.seed, out=args.out)
        out_dir = Path(cfg["out"])
        write_effective_config(cfg, out_dir)
        _check_run_keys(cfg)
        _HANDLERS[args.command](cfg, out_dir)
        return 0
    except ConfigError as err:
        print(f"nkm: {err}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError, RuntimeError) as err:
        print(f"nkm: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
