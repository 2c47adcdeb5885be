"""Plain-text key=value configuration.

Sections mirror the object model: run, model, schedule, loss, data,
synthetic. Every key has a typed default below; unknown sections or
keys are rejected. Rendering then reparsing a config reproduces it
exactly.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import asdict

from .data import SyntheticSpec, random_spec
from .errors import ConfigError
from .losses import PretrainLossConfig
from .model import ModelConfig
from .schedule import NoiseSchedule, build_schedule
from .train import RunConfig

DEFAULTS: dict[str, dict[str, object]] = {
    "run": asdict(RunConfig()),
    "model": asdict(ModelConfig()),
    "schedule": {
        "kind": "linear-mask",
        "lambda_min": 0.0,
        "lambda_max": 0.995,
        "label_lambda_min": 0.25,
        "label_lambda_max": 0.995,
        "T": 500,
        "shared": False,
    },
    "loss": {
        "lambda_weight": True,
        "lambda_clip": 0.01,
        "max_negatives": 127,
    },
    "data": {
        "train": "train.csv",
        "validation": "validation.csv",
        "test": "test.csv",
    },
    "synthetic": {
        "fields": 8,
        "vocab": 50,
        "clusters": 10,
        "samples": 60000,
        "seed": 7,
        "intercept": 0.0,
        "main_scale": 0.5,
        "cross_scale": 0.4,
        "cross_density": 1.0,
        "cross_rank": 6,
        "cross_noise": 0.6,
        "concentration": 0.25,
    },
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

    def as_dict(self) -> dict:
        return {s: dict(d) for s, d in self.values.items()}


def _coerce(section: str, key: str, value, want: type):
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
    r = cfg.values["run"]
    run = RunConfig(**r)
    run.validate()
    return run


def to_model_config(cfg: Config) -> ModelConfig:
    m = ModelConfig(**cfg.values["model"])
    m.validate()
    return m


def to_schedule(cfg: Config, num_fields: int) -> NoiseSchedule:
    s = cfg.values["schedule"]
    return build_schedule(
        num_fields,
        lo=s["lambda_min"],
        hi=s["lambda_max"],
        label_lo=s["label_lambda_min"],
        label_hi=s["label_lambda_max"],
        horizon=s["T"],
        kind=s["kind"],
        shared=s["shared"],
    )


def to_loss_config(cfg: Config) -> PretrainLossConfig:
    l = cfg.values["loss"]
    out = PretrainLossConfig(
        max_negatives=l["max_negatives"],
        weight_by_mask_prob=l["lambda_weight"],
        mask_prob_floor=l["lambda_clip"],
        label_mode=cfg.values["run"]["label_mode"],
    )
    out.validate()
    return out


def to_synthetic_spec(cfg: Config) -> SyntheticSpec:
    s = cfg.values["synthetic"]
    return random_spec(
        num_fields=s["fields"],
        vocab=s["vocab"],
        clusters=s["clusters"],
        samples=s["samples"],
        seed=s["seed"],
        intercept=s["intercept"],
        main_scale=s["main_scale"],
        cross_scale=s["cross_scale"],
        cross_density=s["cross_density"],
        cross_rank=s["cross_rank"],
        cross_noise=s["cross_noise"],
        concentration=s["concentration"],
    )
