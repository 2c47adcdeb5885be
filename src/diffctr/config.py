"""Plain-text key=value configuration.

Sections mirror the object model: run, model, schedule, loss, data,
synthetic. Every key has a typed default below; unknown sections or
keys are rejected. Rendering then reparsing a config reproduces it
exactly.
"""

from __future__ import annotations

import configparser
import inspect
import io
import os
from dataclasses import asdict

from .data import SyntheticSpec, random_spec
from .errors import ConfigError
from .losses import PretrainLossConfig
from .model import ModelConfig
from .schedule import NoiseSchedule, build_schedule
from .train import RunConfig

# config key -> keyword of the object the section builds, which owns the default
_LOSS_KEYS = {
    "lambda_clip": "mask_prob_floor",
    "max_negatives": "max_negatives",
    "label_mode": "label_mode",
    "no_diff": "no_diff",
    "bert_mask_rate": "bert_mask_rate",
}
_SCHEDULE_KEYS = {
    "lambda_min": "lo",
    "lambda_max": "hi",
    "label_lambda_min": "label_lo",
    "label_lambda_max": "label_hi",
    "T": "horizon",
    "shared": "shared",
}
_SCHEDULE_PARAMS = inspect.signature(build_schedule).parameters
_SPEC_PARAMS = inspect.signature(random_spec).parameters
_SYNTHETIC_KEYS = {("fields" if name == "num_fields" else name): name for name in _SPEC_PARAMS}

DEFAULTS: dict[str, dict[str, object]] = {
    "run": asdict(RunConfig()),
    "model": asdict(ModelConfig()),
    "schedule": {
        key: _SCHEDULE_PARAMS[name].default for key, name in _SCHEDULE_KEYS.items()
    } | {
        # the label keeps a mask probability of at least a quarter at every
        # t, so every noise level trains the click term fine-tuning continues
        "label_lambda_min": 0.25,
        "label_lambda_max": _SCHEDULE_PARAMS["hi"].default,
    },
    "loss": {key: getattr(PretrainLossConfig(), name) for key, name in _LOSS_KEYS.items()},
    "data": {
        "train": "train.csv",
        "validation": "validation.csv",
        "test": "test.csv",
    },
    "synthetic": {key: _SPEC_PARAMS[name].default for key, name in _SYNTHETIC_KEYS.items()},
}


class Config:
    """Typed section/key mapping backed by the DEFAULTS table."""

    def __init__(self, values: dict[str, dict[str, object]] | None = None):
        self.values = {s: dict(d) for s, d in DEFAULTS.items()}
        for section, entries in (values or {}).items():
            for key, val in entries.items():
                self.set(section, key, val)

    def get(self, section: str, key: str):
        try:
            return self.values[section][key]
        except KeyError:
            raise ConfigError(f"unknown config key [{section}] {key}") from None

    def set(self, section: str, key: str, value) -> None:
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        if key not in DEFAULTS[section]:
            raise ConfigError(f"unknown config key [{section}] {key}")
        default = DEFAULTS[section][key]
        self.values[section][key] = _coerce(section, key, value, type(default))


def _coerce(section: str, key: str, value, want: type):
    if want is str and isinstance(value, str) and (value != value.strip() or "\n" in value):
        # a config file strips a value and ends it at a line break
        raise ConfigError(f"[{section}] {key}: {value!r} begins or ends with whitespace or "
                          "holds a line break")
    if isinstance(value, want) and not (want is int and isinstance(value, bool)):
        return value
    if not isinstance(value, str):
        if want is float and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        raise ConfigError(f"[{section}] {key}: expected {want.__name__}, got {value!r}")
    text = value.strip()
    try:
        if want is bool:
            if text.lower() in ("true", "yes", "1"):
                return True
            if text.lower() in ("false", "no", "0"):
                return False
            raise ValueError(text)
        if want is int:
            return int(text)
        if want is float:
            return float(text)
        return text
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {value!r} as {want.__name__}") from None


def parse_config(text: str) -> Config:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case (the T schedule key)
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}") from None
    cfg = Config()
    for section in parser.sections():
        for key, value in parser.items(section):
            cfg.set(section, key, value)
    return cfg


def load_config(path: str) -> Config:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None


def render_config(cfg: Config) -> str:
    out = io.StringIO()
    for section, entries in cfg.values.items():
        out.write(f"[{section}]\n")
        for key, value in entries.items():
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            out.write(f"{key} = {text}\n")
        out.write("\n")
    return out.getvalue()


def default_config_text() -> str:
    return render_config(Config())


# ---------------------------------------------------------------------------
# object builders

def to_run_config(cfg: Config) -> RunConfig:
    return RunConfig(**cfg.values["run"])


def to_model_config(cfg: Config) -> ModelConfig:
    if cfg.values["model"]["blocks"] == 0:  # the label position would never see a feature
        raise ConfigError("[model] blocks = 0 gives every row the same score; use 1 or more")
    return ModelConfig(**cfg.values["model"])


def _keywords(values: dict, keys: dict[str, str]) -> dict:
    return {name: values[key] for key, name in keys.items()}


def to_schedule(cfg: Config, num_fields: int) -> NoiseSchedule:
    return build_schedule(num_fields, **_keywords(cfg.values["schedule"], _SCHEDULE_KEYS))


def to_loss_config(cfg: Config) -> PretrainLossConfig:
    return PretrainLossConfig(**_keywords(cfg.values["loss"], _LOSS_KEYS))


def to_data_files(cfg: Config) -> dict[str, str]:
    """Each split's [data] file name; the names must be non-empty and distinct."""
    files = cfg.values["data"]
    seen: dict[str, str] = {}
    for split, name in files.items():
        if not name:
            raise ConfigError(f"[data] {split}: empty file name")
        other = seen.setdefault(os.path.normpath(name), split)
        if other != split:
            raise ConfigError(f"[data] {other} and {split} both name {name!r}")
    return files


def to_synthetic_spec(cfg: Config) -> SyntheticSpec:
    return random_spec(**_keywords(cfg.values["synthetic"], _SYNTHETIC_KEYS))
