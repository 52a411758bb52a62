"""Flat dotted-key run configuration.

Every command starts from its default table below, then applies, in order:
preset, config-file values, --set overrides, and the explicit --seed/--out
flags. Later sources win. Values in files and --set are parsed as JSON when
possible, else kept as strings. Unknown keys are rejected so typos cannot
silently fall back to defaults, and each command's table holds only keys
that the command reads. A value must have the JSON type of its key's
default, unless that default is None (see `_fits_default_type`).

The optim.*, loss.*, edmd.* and synthetic data.* sections are derived from
the fields of the dataclass each one builds, so a default is stated once,
in its dataclass, and `from_config` builds the dataclass back from the
table.
"""
from __future__ import annotations

import json
from dataclasses import fields, replace
from pathlib import Path

from .checks import check_choice
from .edmd import EdmdConfig
from .model import ArchConfig, full_arch
from .optim import OptimConfig
from .synthetic import SyntheticConfig
from .training import LossConfig


class ConfigError(ValueError):
    pass


# Fields of a section's dataclass that get no config key (EdmdConfig.seed
# comes from the run seed), and the one key not named after its field.
_UNEXPOSED = {OptimConfig: ("betas", "eps"), EdmdConfig: ("seed",),
              SyntheticConfig: ("n_noise_mri",)}
_KEY_NAMES = {(SyntheticConfig, "visits_per_subject"): "visits"}


def _section_fields(cls, prefix: str) -> dict:
    """Config key -> dataclass field, for every exposed field of `cls`."""
    return {f"{prefix}.{_KEY_NAMES.get((cls, f.name), f.name)}": f
            for f in fields(cls) if f.name not in _UNEXPOSED.get(cls, ())}


def _section(cls, prefix: str) -> dict:
    """The default table of a section: each exposed field's default."""
    return {k: f.default for k, f in _section_fields(cls, prefix).items()}


_COHORT_KEYS = {**_section(SyntheticConfig, "data"),
                "data.window": ArchConfig.window}

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

_OPTIM_KEYS = _section(OptimConfig, "optim")
_LOSS_KEYS = _section(LossConfig, "loss")
_EDMD_KEYS = _section(EdmdConfig, "edmd")

_TRAIN_KEYS = {
    "train.mode": "joint",
    "train.val_frac": 0.2,
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

def from_config(cls, cfg: dict, prefix: str, **fixed):
    """`cls` built from its section's `prefix.*` keys in cfg, plus the
    unexposed fields given in `fixed`. The dataclass checks the values."""
    return cls(**{f.name: cfg[k] for k, f in _section_fields(cls, prefix).items()},
               **fixed)


def arch_from_config(cfg: dict) -> ArchConfig:
    check_choice(cfg["model.scale"], "model.scale", ("desk", "full"))
    base = full_arch() if cfg["model.scale"] == "full" else ArchConfig()
    kw = {"window": cfg["data.window"]}
    for field in ("d_z", "n_heads", "dropout", "n_refine_blocks",
                  "n_decoder_blocks", "sigma_init", "rho_init"):
        if cfg[f"model.{field}"] is not None:
            kw[field] = cfg[f"model.{field}"]
    return replace(base, **kw)
