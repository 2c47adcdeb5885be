from dataclasses import fields

import pytest

from diffctr.config import (
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
from diffctr.errors import ConfigError
from diffctr.losses import PretrainLossConfig
from diffctr.model import ModelConfig
from diffctr.schedule import build_schedule
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


def test_default_schedule_is_build_schedules_own():
    # the config adds only the label curve's floor to build_schedule's defaults
    assert to_schedule(Config(), num_fields=3) == build_schedule(3, label_lo=0.25)


def test_shared_schedule_flag_flows_through():
    cfg = parse_config("[schedule]\nshared = true\n")
    sched = to_schedule(cfg, num_fields=4)
    assert sched.shared
    probs = sched.mask_probs(250.0)
    assert all(p == probs[0] for p in probs)
