"""Cross-module invariants: ablation isolation and transfer fidelity."""

import numpy as np

from diffctr import corruption as fc
from diffctr import losses as ls
from diffctr import model as md
from diffctr.data import feature_schema
from diffctr.rng import stream
from diffctr.schedule import build_schedule
from diffctr.train import RunConfig, finetune, pretrain


def make_batch(schema, rng, n):
    return rng.integers([f.vocab_size for f in schema], size=(n, len(schema)))


def test_label_mode_toggle_leaves_feature_path_byte_identical():
    schema = feature_schema([5, 5, 5])
    cfg = md.ModelConfig(embed_dim=8, blocks=1, heads=2, ffn_width=16)
    model = md.Model.init(cfg, schema, seed=4)
    tokens = make_batch(schema, stream(50, "iso"), 24)
    schedule = build_schedule(3, lo=0.3, hi=0.9, label_lo=0.85, label_hi=0.95, horizon=100)

    def run(label_mode):
        return fc.corrupt_batch(tokens, schedule, stream(51, "iso-rng"), model.mask_ids,
                                label_mode=label_mode)

    diffuse, drop = run("diffuse"), run("drop")
    # identical streams: feature columns corrupt identically in both modes
    np.testing.assert_array_equal(diffuse.masked[:, :-1], drop.masked[:, :-1])
    np.testing.assert_array_equal(diffuse.mask_probs, drop.mask_probs)
    np.testing.assert_array_equal(diffuse.tokens[:, :-1], drop.tokens[:, :-1])

    # on rows where the diffuse draw masked the label, the full inputs agree,
    # so per-field feature losses must agree bit for bit
    rows = np.flatnonzero(diffuse.masked[:, -1])
    assert len(rows) >= 16
    np.testing.assert_array_equal(diffuse.tokens[rows], drop.tokens[rows])

    def sub(batch, mode):
        return fc.CorruptedBatch(
            tokens=batch.tokens[rows],
            masked=batch.masked[rows],
            mask_probs=batch.mask_probs[rows],
            clean_tokens=batch.clean_tokens[rows],
        )

    _, terms_diffuse = ls.masked_field_losses(model, sub(diffuse, "diffuse"),
                                              ls.PretrainLossConfig(label_mode="diffuse"))
    _, terms_drop = ls.masked_field_losses(model, sub(drop, "drop"),
                                           ls.PretrainLossConfig(label_mode="drop"))
    np.testing.assert_array_equal(terms_diffuse[:, :-1], terms_drop[:, :-1])
    assert np.all(terms_drop[:, -1] == 0.0)
    assert np.any(terms_diffuse[:, -1] != 0.0)


def test_full_transfer_with_zero_epochs_scores_identically(tmp_path):
    from diffctr import data as dd

    spec = dd.random_spec(num_fields=3, vocab=6, clusters=2, samples=300, seed=9)
    ds, _ = dd.generate_synthetic(spec)
    tr, va, te = dd.split_indices(300, 9)
    train = dd.subset(ds, tr, "train")
    val = dd.subset(ds, va, "validation")

    cfg = md.ModelConfig(embed_dim=8, blocks=1, heads=2, ffn_width=16)
    model = md.Model.init(cfg, train.schema, seed=2)
    run_cfg = RunConfig(seed=2, pretrain_epochs=1, pretrain_batch=16, finetune_epochs=0)
    schedule = build_schedule(3, lo=0.0, hi=0.9, horizon=50)
    model, _ = pretrain(model, train, schedule, run_cfg)

    path = str(tmp_path / "ck.dgct")
    md.save_checkpoint(model, path)
    loaded = md.load_checkpoint(path, "full", cfg, train.schema, seed=77)
    tuned, _ = finetune(loaded, train, val, None, run_cfg)

    tokens = val.token_matrix()
    np.testing.assert_array_equal(md.ctr_score(model, tokens), md.ctr_score(tuned, tokens))
