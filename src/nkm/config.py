"""Flat dotted-key run configuration.

Every command starts from its default table below, then applies, in order:
preset, config-file values, --set overrides, and the explicit --seed/--out
flags. Later sources win. Values in files and --set are parsed as JSON when
possible, else kept as strings. Unknown keys are rejected so typos cannot
silently fall back to defaults, and each command's table holds only keys
that the command reads. A value must have the JSON type of its key's
default, unless that default is None (see `_fits_default_type`).
"""
from __future__ import annotations

import json
from pathlib import Path

from .edmd import EdmdConfig
from .model import ArchConfig, full_arch
from .optim import OptimConfig
from .training import LossConfig


class ConfigError(ValueError):
    pass


_COHORT_KEYS = {
    "data.n_subjects": 200,
    "data.visits": 8,
    "data.latent_dim": 4,
    "data.noise_sd": 0.1,
    "data.missing_rate": 0.0,
    "data.drift_sd": 0.05,
    "data.base_drift_scale": 0.05,
    "data.observation": "tanh",
    "data.target_noise_sd": None,
    "data.observed_rank": None,
    "data.window": 3,
}

_DATA_KEYS = {
    "data.path": None,              # CSV of visits; None -> synthesize
    **_COHORT_KEYS,
}

_MODEL_KEYS = {
    "model.scale": "desk",          # "desk" | "full"
    "model.d_z": None,              # None -> scale default
    "model.n_heads": None,
    "model.dropout": None,
    "model.n_refine_blocks": None,
    "model.n_decoder_blocks": None,
    "model.sigma_init": None,
    "model.rho_init": None,
}

_ABLATION_KEYS = {"model.ablation": "full"}

_OPTIM_KEYS = {
    "optim.lr": 4e-4,
    "optim.weight_decay": 1e-3,
    "optim.batch_size": 128,
    "optim.epochs": 200,
    "optim.clip_norm": 1.0,
    "optim.plateau_factor": 0.5,
    "optim.plateau_patience": 8,
    "optim.early_stop_patience": 20,
}

_LOSS_KEYS = {
    "loss.lambda_koop": 0.1,
    "loss.eta": 0.01,
    "loss.rho": 0.95,
}

_TRAIN_KEYS = {
    "train.mode": "joint",
    "train.val_frac": 0.2,
}

_EDMD_KEYS = {
    "edmd.n_centers": 100,
    "edmd.include_identity": True,
    "edmd.include_constant": True,
    "edmd.alpha": 0.0,
    "edmd.readout_alpha": 1e-6,
}

_COMMON = {"seed": 0, "out": "out"}

_NKM_KEYS = {**_MODEL_KEYS, **_OPTIM_KEYS, **_LOSS_KEYS}

COMMAND_DEFAULTS: dict[str, dict] = {
    "synth": {**_COMMON, **_COHORT_KEYS},
    "train": {**_COMMON, **_DATA_KEYS, **_NKM_KEYS, **_ABLATION_KEYS,
              **_TRAIN_KEYS},
    "eval": {**_COMMON, **_DATA_KEYS,
             "eval.model": None, "eval.preprocessor": None},
    "cv": {**_COMMON, **_DATA_KEYS, **_NKM_KEYS, **_ABLATION_KEYS,
           **_TRAIN_KEYS, "cv.k": 5},
    "ablate": {**_COMMON, **_DATA_KEYS, **_NKM_KEYS, **_TRAIN_KEYS, "cv.k": 5,
               "ablate.setups": ["full", "no_control",
                                 "no_temporal_attention",
                                 "no_feature_attention", "no_spectral_reg"]},
    "edmd": {**_COMMON, **_DATA_KEYS, **_EDMD_KEYS, "cv.k": 5,
             "train.val_frac": 0.2},
    "verify-bound": {**_COMMON, **_DATA_KEYS, **_NKM_KEYS, **_ABLATION_KEYS,
                     **_TRAIN_KEYS, **_EDMD_KEYS,
                     "bound.source": "nkm", "bound.tau_max": 20,
                     "data.visits": 24, "optim.epochs": 30},
    "verify-descent": {**_COMMON, **_DATA_KEYS, **_MODEL_KEYS, **_LOSS_KEYS,
                       "descent.iters": 50, "descent.n_windows": 32,
                       "descent.theta_step": 1e-2, "descent.k_step": 0.5,
                       "descent.negative_control": True},
    "importance": {**_COMMON, **_DATA_KEYS, **_NKM_KEYS,
                   "importance.runs": 50, "importance.test_frac": 0.2,
                   "importance.train": True, "optim.epochs": 30},
    "export-latents": {**_COMMON, **_DATA_KEYS, **_NKM_KEYS, **_ABLATION_KEYS,
                       **_TRAIN_KEYS,
                       "export.rollout_steps": 5, "export.model": None,
                       "export.preprocessor": None, "optim.epochs": 30},
}

PRESETS: dict[str, dict] = {
    "desk": {},
    "adni-full": {"model.scale": "full"},
}


def parse_override(text: str) -> tuple[str, object]:
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set expects key=value, got {text!r}")
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def load_config_file(path: str | Path) -> dict:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        loaded = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {p} is not valid JSON: {err}") from None
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")
    return loaded


def _fits_default_type(value, default) -> bool:
    """Whether value has the JSON type of a key's default. A bool is not an
    int, a float key also takes an int, and a None default takes anything."""
    if default is None:
        return True
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def build_config(command: str, preset: str | None = None,
                 file_values: dict | None = None,
                 overrides: list[tuple[str, object]] | None = None,
                 seed: int | None = None, out: str | None = None) -> dict:
    if command not in COMMAND_DEFAULTS:
        raise ConfigError(f"unknown command {command!r}")
    defaults = COMMAND_DEFAULTS[command]
    cfg = dict(defaults)

    def apply(source: str, values: dict):
        for k, v in values.items():
            if k not in cfg:
                raise ConfigError(f"unknown config key {k!r} (from {source}) "
                                  f"for command {command!r}")
            if not _fits_default_type(v, defaults[k]):
                raise ConfigError(
                    f"config key {k!r} (from {source}) must be of type "
                    f"{type(defaults[k]).__name__}, got {v!r}")
            cfg[k] = v

    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        apply(f"preset {preset}", {k: v for k, v in PRESETS[preset].items()
                                   if k in cfg})
    if file_values:
        apply("config file", file_values)
    for k, v in (overrides or []):
        apply("--set", {k: v})
    if seed is not None:
        cfg["seed"] = seed
    if out is not None:
        cfg["out"] = out
    return cfg


def write_effective_config(cfg: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "effective-config.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True) + "\n")


# ---- typed views over the flat table ---------------------------------------

def arch_from_config(cfg: dict) -> ArchConfig:
    scale = cfg.get("model.scale", "desk")
    if scale not in ("desk", "full"):
        raise ValueError(f"model.scale must be 'desk' or 'full', got {scale!r}")
    base = full_arch() if scale == "full" else ArchConfig()
    kw = {}
    for field in ("d_z", "n_heads", "dropout", "n_refine_blocks",
                  "n_decoder_blocks", "sigma_init", "rho_init"):
        v = cfg.get(f"model.{field}")
        if v is not None:
            kw[field] = v
    if cfg.get("data.window") is not None:
        kw["window"] = cfg["data.window"]
    if not kw:
        return base
    from dataclasses import replace
    return replace(base, **kw)


def optim_from_config(cfg: dict) -> OptimConfig:
    return OptimConfig(lr=cfg["optim.lr"],
                       weight_decay=cfg["optim.weight_decay"],
                       batch_size=cfg["optim.batch_size"],
                       epochs=cfg["optim.epochs"],
                       clip_norm=cfg["optim.clip_norm"],
                       plateau_factor=cfg["optim.plateau_factor"],
                       plateau_patience=cfg["optim.plateau_patience"],
                       early_stop_patience=cfg["optim.early_stop_patience"])


def loss_from_config(cfg: dict) -> LossConfig:
    return LossConfig(lambda_koop=cfg["loss.lambda_koop"],
                      eta=cfg["loss.eta"], rho=cfg["loss.rho"])


def edmd_from_config(cfg: dict) -> EdmdConfig:
    return EdmdConfig(n_centers=cfg["edmd.n_centers"],
                      include_identity=cfg["edmd.include_identity"],
                      include_constant=cfg["edmd.include_constant"],
                      alpha=cfg["edmd.alpha"],
                      readout_alpha=cfg["edmd.readout_alpha"],
                      seed=cfg["seed"])
