import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from diffctr import model as md
from diffctr.cli import main
from diffctr.config import DEFAULTS, parse_config, render_config, to_model_config
from diffctr.data import load_delimited, load_training_delimited
from diffctr.model import load_checkpoint
from diffctr.train import evaluate
from diffctr.verify import SUITES as VERIFY_SUITES
from conftest import TINY_CONFIG_TEXT


def read(path):
    with open(path) as fh:
        return fh.read()


def test_print_config_round_trips(capsys):
    assert main(["print-config"]) == 0
    text = capsys.readouterr().out
    cfg = parse_config(text)
    assert render_config(cfg) == text


def test_generate_data_outputs_and_determinism(tmp_path, tiny_config_path, capsys):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["generate-data", "--config", tiny_config_path, "--out", out1]) == 0
    assert main(["generate-data", "--config", tiny_config_path, "--out", out2]) == 0
    for name in ("train.csv", "validation.csv", "test.csv", "bayes_scores.csv", "manifest.txt"):
        assert os.path.exists(os.path.join(out1, name))
        assert read(os.path.join(out1, name)) == read(os.path.join(out2, name))
    # 300 samples -> 240/30/30 split
    assert len(read(os.path.join(out1, "train.csv")).strip().splitlines()) == 241
    assert len(read(os.path.join(out1, "validation.csv")).strip().splitlines()) == 31


def test_generate_data_sidecar_scores_match_posteriors(tmp_path, tiny_config_path):
    out = str(tmp_path / "d")
    main(["generate-data", "--config", tiny_config_path, "--out", out])
    lines = read(os.path.join(out, "bayes_scores.csv")).strip().splitlines()
    assert lines[0] == "split,row,score"
    scores = [float(line.split(",")[2]) for line in lines[1:]]
    assert len(scores) == 300
    assert all(0.0 < s < 1.0 for s in scores)


def test_pretrain_then_finetune_smoke(tmp_path, tiny_config_path, capsys):
    data_dir = str(tmp_path / "data")
    main(["generate-data", "--config", tiny_config_path, "--out", data_dir])
    pre_dir = str(tmp_path / "pre")
    assert main(["pretrain", "--config", tiny_config_path, "--data", data_dir,
                 "--out", pre_dir]) == 0
    out = capsys.readouterr().out
    assert "epoch 0: loss" in out
    ckpt = os.path.join(pre_dir, "pretrained.dgct")
    assert os.path.exists(ckpt)
    assert os.path.exists(os.path.join(pre_dir, "pretrain_epoch0.dgct"))
    assert os.path.exists(os.path.join(pre_dir, "manifest.txt"))

    ft_dir = str(tmp_path / "ft")
    assert main(["finetune", "--config", tiny_config_path, "--data", data_dir,
                 "--init", ckpt, "--transfer", "full", "--out", ft_dir]) == 0
    out = capsys.readouterr().out
    assert re.search(r"test auc 0\.\d+", out)
    assert os.path.exists(os.path.join(ft_dir, "finetuned.dgct"))
    assert os.path.exists(os.path.join(ft_dir, "finetune_rows.csv"))


def test_pretraining_for_fewer_epochs_is_a_prefix_of_a_longer_run(tmp_path):
    """e epochs give the parameters of a 3-epoch run's epoch-(e-1) checkpoint, bit for bit."""
    data_dir = str(tmp_path / "data")
    configs = {}
    for epochs in (1, 2, 3):
        path = tmp_path / f"pre{epochs}.cfg"
        path.write_text(TINY_CONFIG_TEXT.replace("pretrain_epochs = 1", f"pretrain_epochs = {epochs}"))
        configs[epochs] = str(path)
    assert main(["generate-data", "--config", configs[3], "--out", data_dir]) == 0
    for epochs, path in configs.items():
        assert main(["pretrain", "--config", path, "--data", data_dir,
                     "--out", str(tmp_path / f"pre{epochs}")]) == 0
    for epochs in (1, 2):
        _, short = md.read_checkpoint(str(tmp_path / f"pre{epochs}" / "pretrained.dgct"))
        _, prefix = md.read_checkpoint(str(tmp_path / "pre3" / f"pretrain_epoch{epochs - 1}.dgct"))
        assert short.keys() == prefix.keys()
        for name in short:
            assert np.array_equal(short[name], prefix[name]), (epochs, name)


def test_zero_epoch_finetune_reports_checkpoint_metrics(tmp_path, tiny_config_path, capsys):
    data_dir = str(tmp_path / "data")
    main(["generate-data", "--config", tiny_config_path, "--out", data_dir])
    pre_dir = str(tmp_path / "pre")
    main(["pretrain", "--config", tiny_config_path, "--data", data_dir, "--out", pre_dir])
    capsys.readouterr()

    frozen = tmp_path / "frozen.cfg"
    frozen.write_text(TINY_CONFIG_TEXT.replace("finetune_epochs = 1", "finetune_epochs = 0"))
    ft_dir = str(tmp_path / "ft0")
    ckpt = os.path.join(pre_dir, "pretrained.dgct")
    assert main(["finetune", "--config", str(frozen), "--data", data_dir,
                 "--init", ckpt, "--transfer", "full", "--out", ft_dir]) == 0
    printed = capsys.readouterr().out
    got_auc = float(re.search(r"test auc (0\.\d+)", printed).group(1))

    cfg = parse_config(read(str(frozen)))
    train, vocabs = load_training_delimited(os.path.join(data_dir, "train.csv"))
    test = load_delimited(os.path.join(data_dir, "test.csv"), vocabs, split="test")
    model = load_checkpoint(ckpt, "full", to_model_config(cfg), train.schema, seed=0)
    direct = evaluate(model, test, "test")
    assert abs(direct.auc - got_auc) < 5e-5  # printed at 4 decimals


def test_finetune_requires_init_for_transfer(tmp_path, tiny_config_path, capsys):
    data_dir = str(tmp_path / "data")
    main(["generate-data", "--config", tiny_config_path, "--out", data_dir])
    capsys.readouterr()
    code = main(["finetune", "--config", tiny_config_path, "--data", data_dir,
                 "--transfer", "full", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "requires --init" in capsys.readouterr().err


@pytest.mark.parametrize("transfer", [["--transfer", "none"], []], ids=["flag", "config"])
def test_finetune_refuses_init_without_transfer(tmp_path, tiny_data, capsys, transfer):
    """From the flag or, without it, from the config's transfer key."""
    cfg_path, data_dir = tiny_data
    if not transfer:
        cfg = tmp_path / "scratch.cfg"
        cfg.write_text(TINY_CONFIG_TEXT.replace("[run]", "[run]\ntransfer = none"))
        cfg_path = str(cfg)
    capsys.readouterr()
    code = main(["finetune", "--config", cfg_path, "--data", data_dir, "--init", "any.dgct",
                 *transfer, "--out", str(tmp_path / "ft")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: --transfer none trains from scratch and takes no --init\n"
    assert not os.path.exists(tmp_path / "ft")


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nonsense"])
    assert err.value.code == 1


@pytest.mark.parametrize("command", ["generate-data", "pretrain", "finetune", "experiment"])
def test_help_lists_every_config_section(capsys, command):
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    for section, entries in DEFAULTS.items():
        assert f"  [{section}] " + ", ".join(f"{k}={v}" for k, v in entries.items()) in out.splitlines()


def test_verify_suite_pass_and_negative_control(capsys):
    assert main(["verify", "--suite", "equivalence"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["verify", "--suite", "gradcheck", "--negative-control"]) == 3
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("suite", sorted(set(VERIFY_SUITES) - {"gradcheck"}))
def test_a_negative_control_outside_gradcheck_is_usage_error(capsys, suite):
    """Only the gradcheck suite has a control to run; one that never runs is no pass."""
    assert main(["verify", "--suite", suite, "--negative-control"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --negative-control applies to the gradcheck suite, not {suite}\n"


def test_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nseed = banana\n")
    code = main(["generate-data", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_experiment_headline_smoke(tmp_path, tiny_config_path, capsys):
    out = str(tmp_path / "exp")
    assert main(["experiment", "--suite", "headline", "--config", tiny_config_path,
                 "--out", out, "--seeds", "2"]) == 0
    printed = capsys.readouterr().out
    assert "full" in printed and "sft-scratch" in printed
    assert os.path.exists(os.path.join(out, "rows.csv"))
    assert os.path.exists(os.path.join(out, "summary.csv"))
    assert os.path.exists(os.path.join(out, "manifest.txt"))


def test_removed_stage_key_is_unknown(tmp_path, capsys):
    old = tmp_path / "old.cfg"
    old.write_text("[run]\nstage = both\n")
    code = main(["generate-data", "--config", str(old), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown config key [run] stage" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    cfg_path = root / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG_TEXT)
    data_dir = str(root / "data")
    assert main(["generate-data", "--config", str(cfg_path), "--out", data_dir]) == 0
    return str(cfg_path), data_dir


def raw_checkpoint(path, header, payload=b""):
    """A checkpoint file with a valid checksum around an arbitrary header."""
    head = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(md.CHECKPOINT_MAGIC + struct.pack("<II", md.CHECKPOINT_VERSION, len(head)))
        fh.write(head + payload + hashlib.sha256(payload).digest())


def damaged_checkpoint(path, cfg_path, data_dir, how):
    train, _ = load_training_delimited(os.path.join(data_dir, "train.csv"))
    cfg = parse_config(read(cfg_path))
    md.save_checkpoint(md.Model.init(to_model_config(cfg), train.schema, 0), path)
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    if how == "truncated":
        blob = blob[: len(blob) // 2]
    elif how == "nan-value":  # the first float NaN, under a checksum that matches
        start = 12 + struct.unpack("<I", blob[8:12])[0]
        blob[start : start + 8] = struct.pack("<d", float("nan"))
        blob[-32:] = hashlib.sha256(bytes(blob[start:-32])).digest()
    else:
        blob[len(blob) // 2] ^= 0x10
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


# shapes whose size numpy's int64 product wraps (to 0, to a negative), and an
# empty shape with a side no numpy array can have
HUGE_SHAPES = {"size-wraps-to-0": [2**32, 2**32], "size-wraps-negative": [2**62, 3],
               "empty-side-too-long": [2**64, 0]}


@pytest.mark.parametrize("case", ["empty-header", "params-not-list", "offset-not-int",
                                  "truncated", "bit-flip", "nan-value", *HUGE_SHAPES])
def test_malformed_checkpoint_exits_2(tmp_path, tiny_data, capsys, case):
    cfg_path, data_dir = tiny_data
    ckpt = str(tmp_path / "bad.dgct")
    if case == "empty-header":
        raw_checkpoint(ckpt, {})
    elif case == "params-not-list":
        raw_checkpoint(ckpt, {"fingerprint": {}, "params": 5})
    elif case == "offset-not-int":
        raw_checkpoint(ckpt, {"fingerprint": {}, "params": [["x", [1], "a"]]}, bytes(8))
    elif case in HUGE_SHAPES:
        raw_checkpoint(ckpt, {"fingerprint": {}, "params": [["x", HUGE_SHAPES[case], 0]]}, bytes(8))
    else:
        damaged_checkpoint(ckpt, cfg_path, data_dir, case)
    capsys.readouterr()
    code = main(["finetune", "--config", cfg_path, "--data", data_dir, "--init", ckpt,
                 "--transfer", "full", "--out", str(tmp_path / "ft")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "bad.dgct" in err


def test_non_utf8_csv_exits_2(tmp_path, tiny_config_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "train.csv").write_bytes(b"\xff\xfef0,label\n1,0\n")
    code = main(["pretrain", "--config", tiny_config_path, "--data", str(data_dir),
                 "--out", str(tmp_path / "pre")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "train.csv" in err


@pytest.mark.parametrize("command", ["generate-data", "pretrain", "finetune", "experiment"])
def test_out_under_regular_file_exits_2(tmp_path, tiny_data, capsys, command):
    cfg_path, data_dir = tiny_data
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory")
    out = str(blocker / "sub")
    extra = {
        "generate-data": [],
        "pretrain": ["--data", data_dir],
        "finetune": ["--data", data_dir, "--transfer", "none"],
        "experiment": ["--suite", "headline", "--seeds", "1"],
    }[command]
    capsys.readouterr()
    code = main([command, "--config", cfg_path, "--out", out] + extra)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and out in err


def one_line_error(capsys, code, *fragments):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


def test_pretrain_batch_of_one_exits_2(tmp_path, tiny_data, capsys):
    _, data_dir = tiny_data
    cfg = tmp_path / "batch1.cfg"
    cfg.write_text(TINY_CONFIG_TEXT.replace("pretrain_batch = 16", "pretrain_batch = 1"))
    capsys.readouterr()
    code = main(["pretrain", "--config", str(cfg), "--data", data_dir, "--out", str(tmp_path / "pre")])
    one_line_error(capsys, code, "pretrain_batch must be >= 2")


def write_splits(data_dir, train_text):
    data_dir.mkdir()
    (data_dir / "train.csv").write_text(train_text)
    for name in ("validation.csv", "test.csv"):
        (data_dir / name).write_text("f0,label\na,0\nb,1\n")


def test_one_row_training_file_exits_2(tmp_path, tiny_config_path, capsys):
    data_dir = tmp_path / "data"
    write_splits(data_dir, "f0,label\na,1\n")
    code = main(["pretrain", "--config", tiny_config_path, "--data", str(data_dir),
                 "--out", str(tmp_path / "pre")])
    one_line_error(capsys, code, "at least 2 rows", "has 1")
    assert not os.path.exists(tmp_path / "pre" / "pretrained.dgct")


def test_label_only_data_under_drop_exits_2_before_out(tmp_path, tiny_config_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for name in ("train.csv", "validation.csv", "test.csv"):
        (data_dir / name).write_text("label\n0\n1\n1\n0\n")
    cfg = tmp_path / "drop.cfg"
    cfg.write_text(TINY_CONFIG_TEXT + "\n[loss]\nlabel_mode = drop\n")
    code = main(["pretrain", "--config", str(cfg), "--data", str(data_dir),
                 "--out", str(tmp_path / "pre")])
    one_line_error(capsys, code, "label_mode 'drop' leaves no position", "no feature field")
    assert not os.path.exists(tmp_path / "pre")


def test_blank_session_cell_exits_2(tmp_path, tiny_config_path, capsys):
    data_dir = tmp_path / "data"
    write_splits(data_dir, "f0,label,session_id\na,1,s1\nb,0,\na,0,s2\n")
    code = main(["pretrain", "--config", tiny_config_path, "--data", str(data_dir),
                 "--out", str(tmp_path / "pre")])
    one_line_error(capsys, code, "train.csv: line 3: empty session_id")


def test_overflowing_loss_exits_3_without_runtime_warning(tmp_path, tiny_data):
    # a fresh interpreter keeps numpy's default warning filter, which prints to stderr
    _, data_dir = tiny_data
    cfg = tmp_path / "hot.cfg"
    cfg.write_text(TINY_CONFIG_TEXT.replace("[model]", "[model]\ntemperature = 1e-308"))
    src = os.path.dirname(os.path.dirname(md.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "diffctr.cli", "finetune", "--config", str(cfg), "--data", data_dir,
         "--transfer", "none", "--out", str(tmp_path / "ft")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr == "aborted on non-finite loss; kept the best validation snapshot\n"


def test_overflowing_pretrain_exits_3_and_keeps_the_initial_parameters(tmp_path, tiny_data):
    _, data_dir = tiny_data
    cfg = tmp_path / "hot.cfg"
    cfg.write_text(TINY_CONFIG_TEXT.replace("[model]", "[model]\ntemperature = 1e-308"))
    src = os.path.dirname(os.path.dirname(md.__file__))
    out = tmp_path / "pre"
    proc = subprocess.run(
        [sys.executable, "-m", "diffctr.cli", "pretrain", "--config", str(cfg), "--data", data_dir,
         "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr == "aborted on non-finite loss; kept last completed epoch\n"
    header, arrays = md.read_checkpoint(str(out / "pretrained.dgct"))
    assert header["meta"]["epochs"] == 0  # the first epoch diverged
    train, _ = load_training_delimited(os.path.join(data_dir, "train.csv"))
    init = md.Model.init(to_model_config(parse_config(cfg.read_text())), train.schema, 0)
    assert sorted(arrays) == sorted(init.params.names())
    for name in init.params.names():
        np.testing.assert_array_equal(arrays[name], init.params.get_data(name))


@pytest.mark.parametrize("split", ["validation", "test"])
def test_single_label_split_exits_2_before_training(tmp_path, tiny_data, capsys, split):
    cfg_path, data_dir = tiny_data
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    header, *rows = (data / f"{split}.csv").read_text().splitlines()
    label = header.split(",").index("label")
    cells = [row.split(",") for row in rows]
    for c in cells:
        c[label] = "1"
    (data / f"{split}.csv").write_text("\n".join([header] + [",".join(c) for c in cells]) + "\n")
    capsys.readouterr()
    code = main(["finetune", "--config", cfg_path, "--data", str(data), "--transfer", "none",
                 "--out", str(tmp_path / "ft")])
    one_line_error(capsys, code, f"{split} split needs at least one positive and one negative label")
    assert not os.path.exists(tmp_path / "ft" / "finetuned.dgct")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_temperature_exits_2(tmp_path, tiny_data, capsys, value):
    _, data_dir = tiny_data
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CONFIG_TEXT.replace("[model]", f"[model]\ntemperature = {value}"))
    capsys.readouterr()
    code = main(["finetune", "--config", str(cfg), "--data", data_dir, "--transfer", "none",
                 "--out", str(tmp_path / "ft")])
    one_line_error(capsys, code, "temperature must be finite and > 0", value)
    assert not os.path.exists(tmp_path / "ft")


@pytest.mark.parametrize("command", [["pretrain"], ["experiment", "--suite", "headline"]])
def test_temperature_whose_reciprocal_overflows_exits_2(tmp_path, tiny_data, capsys, command):
    _, data_dir = tiny_data
    cfg = tmp_path / "cold.cfg"
    cfg.write_text(TINY_CONFIG_TEXT.replace("[model]", "[model]\ntemperature = 1e-320"))
    capsys.readouterr()
    code = main(command + ["--config", str(cfg), "--data", data_dir, "--out", str(tmp_path / "o")])
    one_line_error(capsys, code, "temperature must have a finite reciprocal, got 1e-320")
    assert not os.path.exists(tmp_path / "o")


def rejected_before_out(tmp_path, data_dir, capsys, config_text, fragment):
    """pretrain, finetune --transfer none and experiment each exit 2 with one line and create no --out."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config_text)
    for command in (["pretrain"], ["finetune", "--transfer", "none"],
                    ["experiment", "--suite", "headline", "--seeds", "1"]):
        out = tmp_path / command[0]
        capsys.readouterr()
        code = main(command + ["--config", str(cfg), "--data", data_dir, "--out", str(out)])
        one_line_error(capsys, code, fragment)
        assert not os.path.exists(out), command


@pytest.mark.parametrize("anchor,insert,fragment", [
    ("[run]", "[run]\nno_label = true", "unknown config key [run] no_label"),  # the removed key
    ("[model]", "[loss]\nmax_negatives = 0\n[model]", "max_negatives must be >= 1"),
    ("[run]", "[run]\nlabel_mode = drop", "unknown config key [run] label_mode"),  # moved to [loss]
    ("T = 50", "T = 50\nlambda_max = 2.0", "schedule bounds must satisfy"),
    # removed variants: a saved config that still sets them is rejected
    ("[model]", "[model]\ntied_embeddings = true", "unknown config key [model] tied_embeddings"),
    ("T = 50", "T = 50\nkind = geometric-rate", "unknown config key [schedule] kind"),
    ("[model]", "[loss]\nlambda_weight = false\n[model]", "unknown config key [loss] lambda_weight"),
    # no attention block: every row would get the same score
    ("blocks = 1", "blocks = 0", "[model] blocks = 0 gives every row the same score"),
])
def test_bad_pretrain_config_exits_2_before_out(tmp_path, tiny_data, capsys, anchor, insert, fragment):
    _, data_dir = tiny_data
    rejected_before_out(tmp_path, data_dir, capsys, TINY_CONFIG_TEXT.replace(anchor, insert), fragment)


@pytest.mark.parametrize("key,value,fragment", [
    ("label_mode", "bogus", "label_mode"),
    ("label_mode", "always-mask", "label_mode"),  # removed with never-mask
    ("bert_mask_rate", "1.0", "bert_mask_rate"),
    ("bert_mask_rate", "-0.1", "bert_mask_rate"),
    ("patience", "0", "patience"),
    ("pretrain_lr", "0.0", "pretrain_lr"),
    ("finetune_lr", "-1e-3", "finetune_lr"),
    ("adam_eps", "0.0", "adam_eps"),
    ("adam_beta1", "1.0", "adam_beta1"),
    ("adam_beta2", "-0.5", "adam_beta2"),
])
def test_out_of_range_run_key_exits_2(tmp_path, tiny_data, capsys, key, value, fragment):
    _, data_dir = tiny_data
    if key in DEFAULTS["run"]:
        text = TINY_CONFIG_TEXT.replace("[run]", f"[run]\n{key} = {value}")
    else:  # the pretraining objective's keys
        text = f"{TINY_CONFIG_TEXT}\n[loss]\n{key} = {value}\n"
    rejected_before_out(tmp_path, data_dir, capsys, text, fragment)


@pytest.mark.parametrize("transfer", ["full", "scoring-network-only"])
def test_checkpoint_with_other_parameter_shapes_exits_2(tmp_path, tiny_data, capsys, transfer):
    cfg_path, data_dir = tiny_data
    pre = tmp_path / "pre"
    assert main(["pretrain", "--config", cfg_path, "--data", data_dir, "--out", str(pre)]) == 0
    narrow = tmp_path / "narrow.cfg"  # the fingerprint leaves ffn_width out
    narrow.write_text(TINY_CONFIG_TEXT.replace("ffn_width = 16", "ffn_width = 8"))
    capsys.readouterr()
    code = main(["finetune", "--config", str(narrow), "--data", data_dir, "--init",
                 str(pre / "pretrained.dgct"), "--transfer", transfer, "--out", str(tmp_path / "ft")])
    one_line_error(capsys, code, "'net/b0/ffn_w1' has shape (8, 16), model needs (8, 8)")
    assert not os.path.exists(tmp_path / "ft")


@pytest.mark.parametrize("key,value", [
    ("main_scale", "-1"),
    ("main_scale", "inf"),
    ("clusters", "-1"),
    ("cross_rank", "-1"),
    ("cross_scale", "nan"),
    ("cross_noise", "nan"),
    ("intercept", "inf"),
    ("cross_density", "2"),
])
def test_bad_synthetic_key_exits_2_before_out(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[synthetic]\nsamples = 300\n{key} = {value}\n")
    out = tmp_path / "data"
    code = main(["generate-data", "--config", str(cfg), "--out", str(out)])
    one_line_error(capsys, code, f"[synthetic] {key} must be")
    assert not out.exists()


@pytest.mark.parametrize("key", ["samples", "vocab", "clusters"])
@pytest.mark.parametrize("value", [10**20, 2**62])
def test_synthetic_size_numpy_cannot_allocate_exits_2_before_out(tmp_path, capsys, key, value):
    """Sizes numpy refuses before it allocates: a dimension past its limit
    (10^20), a byte count past the address space (2^62 rows of 8 bytes)."""
    cfg = tmp_path / "huge.cfg"
    sizes = {"samples": 300, "vocab": 20, "clusters": 3, key: value}
    cfg.write_text("[synthetic]\n" + "".join(f"{k} = {v}\n" for k, v in sizes.items()))
    out = tmp_path / "data"
    code = main(["generate-data", "--config", str(cfg), "--out", str(out)])
    one_line_error(capsys, code, f"{key} = {value}")
    assert not out.exists()


@pytest.mark.parametrize("entry,fragment", [
    ("train = validation.csv", "[data] train and validation both name 'validation.csv'"),
    ("test =", "[data] test: empty file name"),
])
def test_bad_data_file_name_exits_2_before_out(tmp_path, capsys, entry, fragment):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{TINY_CONFIG_TEXT}\n[data]\n{entry}\n")
    out = tmp_path / "data"
    code = main(["generate-data", "--config", str(cfg), "--out", str(out)])
    one_line_error(capsys, code, fragment)
    assert not out.exists()


def test_unwritable_data_file_name_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{TINY_CONFIG_TEXT}\n[data]\ntrain = sub/train.csv\n")
    out = tmp_path / "data"
    code = main(["generate-data", "--config", str(cfg), "--out", str(out)])
    one_line_error(capsys, code, f"cannot write {out / 'sub' / 'train.csv'}: No such file or directory")


@pytest.mark.parametrize("suite", ["transfer", "ablation", "headline", "sweep"])
def test_experiment_without_seeds_is_usage_error(tmp_path, tiny_config_path, capsys, suite):
    out = tmp_path / "exp"
    code = main(["experiment", "--suite", suite, "--config", tiny_config_path, "--seeds", "0",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "--seeds" in err
    assert not out.exists()
