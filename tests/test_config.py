import math
import re
from dataclasses import FrozenInstanceError, asdict, fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffctr.config import (
    DEFAULTS,
    Config,
    default_config_text,
    parse_config,
    render_config,
    to_loss_config,
    to_model_config,
    to_run_config,
    to_schedule,
    to_synthetic_spec,
)
from diffctr.data import FieldSchema
from diffctr.errors import ConfigError, DataError
from diffctr.losses import PretrainLossConfig
from diffctr.model import ModelConfig
from diffctr.schedule import FieldCurve, build_schedule
from diffctr.train import RunConfig


def test_defaults_round_trip_exactly():
    text = default_config_text()
    cfg = parse_config(text)
    assert render_config(cfg) == text
    assert parse_config(render_config(cfg)).values == cfg.values


def test_overrides_round_trip():
    cfg = Config()
    cfg.set("run", "seed", 42)
    cfg.set("schedule", "lambda_max", "0.875")
    cfg.set("loss", "no_diff", "true")
    again = parse_config(render_config(cfg))
    assert again.get("run", "seed") == 42
    assert again.get("schedule", "lambda_max") == 0.875
    assert again.get("loss", "no_diff") is True


# a value of each key's type, drawn without regard to the key's range
VALUE_OF = {bool: st.booleans(), int: st.integers(), float: st.floats(), str: st.text()}
DRAWN_VALUES = st.fixed_dictionaries({
    section: st.fixed_dictionaries({key: VALUE_OF[type(value)] for key, value in entries.items()})
    for section, entries in DEFAULTS.items()})


def same_value(a, b) -> bool:
    """a and b equal, with the sign of a zero and a NaN equal to a NaN."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1, a) == math.copysign(1, b)
    return type(a) is type(b) and a == b


def unwritable(value) -> bool:
    """A string a config file cannot hold: it strips values and ends them at a line break."""
    return isinstance(value, str) and (value != value.strip() or "\n" in value)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(values=DRAWN_VALUES)
@example(values={"run": {"transfer": "\r"}})
@example(values={"data": {"train": "a\nb = c"}})
def test_a_rendered_config_parses_back_to_itself(values):
    """Or, for a string value no config file can hold, Config refuses it."""
    bad = [(section, key) for section, entries in values.items()
           for key, value in entries.items() if unwritable(value)]
    if bad:
        with pytest.raises(ConfigError, match=re.escape(f"[{bad[0][0]}] {bad[0][1]}: ")):
            Config(values)
        return
    cfg = Config(values)
    again = parse_config(render_config(cfg))
    for section, entries in cfg.values.items():
        for key, value in entries.items():
            assert same_value(again.get(section, key), value), (section, key)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("[run]\nturbo = yes\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config("[warp]\nspeed = 9\n")


def test_bad_value_type_rejected():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("[run]\nseed = banana\n")
    with pytest.raises(ConfigError, match="no_diff"):
        parse_config("[loss]\nno_diff = maybe\n")


def test_builders_produce_valid_objects():
    cfg = parse_config(
        "[run]\npretrain_epochs = 1\n[model]\nembed_dim = 8\nheads = 2\n"
        "[schedule]\nT = 50\nlambda_max = 0.9\nlabel_lambda_min = 0.2\nlabel_lambda_max = 0.9\n"
        "[synthetic]\nfields = 3\nvocab = 5\nsamples = 100\n"
        "[loss]\nlabel_mode = drop\nno_diff = true\nbert_mask_rate = 0.25\n"
    )
    run = to_run_config(cfg)
    assert run.pretrain_epochs == 1
    model = to_model_config(cfg)
    assert model.embed_dim == 8
    sched = to_schedule(cfg, num_fields=3)
    assert sched.num_fields == 4 and sched.horizon == 50
    assert sched.mask_probs(0.0)[3] == 0.2  # label curve differs
    loss = to_loss_config(cfg)
    assert loss.max_negatives == 127
    assert (loss.label_mode, loss.no_diff, loss.bert_mask_rate) == ("drop", True, 0.25)
    spec = to_synthetic_spec(cfg)
    assert spec.num_fields == 3 and spec.samples == 100


def test_each_setting_has_one_owner():
    seen: dict[str, str] = {}
    for owner in (RunConfig, PretrainLossConfig, ModelConfig):
        for f in fields(owner):
            assert f.name not in seen, f"{f.name} is in both {seen[f.name]} and {owner.__name__}"
            seen[f.name] = owner.__name__


@pytest.mark.parametrize("valid,patch,message", [
    (RunConfig(), {"patience": 0}, "patience must be >= 1"),
    (RunConfig(), {"transfer": "bogus"}, "unknown transfer mode 'bogus'"),
    (RunConfig(), {"adam_eps": float("inf")}, "adam_eps must be finite and > 0, got inf"),
    (RunConfig(), {"pretrain_lr": float("inf")}, "pretrain_lr must be finite and > 0, got inf"),
    (RunConfig(), {"finetune_lr": float("nan")}, "finetune_lr must be finite and > 0, got nan"),
    (PretrainLossConfig(), {"max_negatives": 0}, "max_negatives must be >= 1"),
    (PretrainLossConfig(), {"label_mode": "always-mask"}, "unknown label_mode 'always-mask'"),
    (ModelConfig(), {"heads": 3}, "embed_dim 32 not divisible by heads 3"),
    (ModelConfig(), {"temperature": float("nan")}, "temperature must be finite and > 0, got nan"),
    (ModelConfig(), {"temperature": 1e-320}, "temperature must have a finite reciprocal, got 1e-320"),
    (FieldCurve(0.0, 0.5), {"lo": 0.5}, "schedule bounds must satisfy 0 <= lo < hi <= 0.9999, got (0.5, 0.5)"),
    (FieldSchema(0, "f0", 3), {"vocab_size": 0}, "field 'f0': vocab_size must be >= 1"),
], ids=["run-patience", "run-transfer", "run-adam_eps", "run-pretrain_lr", "run-finetune_lr",
        "loss-max_negatives", "loss-label_mode", "model-heads",
        "model-temperature", "model-temperature-reciprocal", "curve-lo", "schema-vocab_size"])
def test_configs_check_themselves_when_built(valid, patch, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        type(valid)(**(asdict(valid) | patch))
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        replace(valid, **patch)


@pytest.mark.parametrize("cfg,name,value", [
    (RunConfig(), "transfer", "none"),
    (PretrainLossConfig(), "label_mode", "drop"),
])
def test_run_and_loss_configs_are_frozen(cfg, name, value):
    with pytest.raises(FrozenInstanceError):
        setattr(cfg, name, value)


def test_default_schedule_is_build_schedules_own():
    # the config adds only the label curve's floor to build_schedule's defaults
    assert to_schedule(Config(), num_fields=3) == build_schedule(3, label_lo=0.25)


def test_shared_schedule_flag_flows_through():
    cfg = parse_config("[schedule]\nshared = true\n")
    sched = to_schedule(cfg, num_fields=4)
    assert sched.shared
    probs = sched.mask_probs(250.0)
    assert all(p == probs[0] for p in probs)
