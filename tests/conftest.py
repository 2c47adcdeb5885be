import builtins

import pytest

from diffctr import data as dd
from diffctr.experiments import Environment
from diffctr.losses import PretrainLossConfig
from diffctr.model import Model, ModelConfig
from diffctr.schedule import build_schedule
from diffctr.train import RunConfig

TINY_CONFIG_TEXT = """
[run]
pretrain_epochs = 1
finetune_epochs = 1
pretrain_batch = 16
finetune_batch = 32
pretrain_lr = 0.003
finetune_lr = 0.003

[model]
embed_dim = 8
blocks = 1
heads = 2
ffn_width = 16

[schedule]
T = 50

[synthetic]
fields = 3
vocab = 6
clusters = 2
samples = 300
seed = 3
"""


class FailingWriter:
    """Stands in for open(): lets the first write through, then fails like a full disk."""

    def __init__(self, *args, **kwargs):
        self.fh, self.writes = builtins.open(*args, **kwargs), 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError("no space left on device")
        return self.fh.write(data)


# Cases once run with target tables tied to the input embeddings and without
# keep their ids: ``tied=False`` names the one layout left, separate tables.
untied = pytest.mark.parametrize("tied", [False])


def permuted_model(model, order):
    """The same network with field order[j] at position j.

    Each field keeps its tables (they are named after it) and takes its
    schema entry and its field_pos row to the new position, so
    encode(permuted_model(m, order), tokens[:, order]) is m's encoding of
    tokens with its positions reordered.
    """
    schema = [dd.FieldSchema(j, model.schema[f].name, model.schema[f].vocab_size)
              for j, f in enumerate(order)]
    params = model.params.clone()
    params.set_data("embed/field_pos", params.get_data("embed/field_pos")[list(order)])
    return Model(model.cfg, schema, params)


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG_TEXT)
    return str(path)


def build_micro_env(samples=240, fields=3, vocab=6, seed=5, **run_kw):
    spec = dd.random_spec(num_fields=fields, vocab=vocab, clusters=2, samples=samples,
                          seed=seed, cross_scale=1.5, cross_density=0.2)
    ds, _ = dd.generate_synthetic(spec)
    tr, va, te = dd.split_indices(samples, seed)
    run = dict(pretrain_epochs=1, finetune_epochs=1, pretrain_batch=16,
               finetune_batch=32, pretrain_lr=3e-3, finetune_lr=3e-3)
    run.update(run_kw)
    return Environment(
        train=dd.subset(ds, tr, "train"),
        validation=dd.subset(ds, va, "validation"),
        test=dd.subset(ds, te, "test"),
        model_cfg=ModelConfig(embed_dim=8, blocks=1, heads=2, ffn_width=16, temperature=0.1),
        run_cfg=RunConfig(**run),
        schedule=build_schedule(fields, lo=0.0, hi=0.9, label_lo=0.2, horizon=50),
        loss_cfg=PretrainLossConfig(),
    )


@pytest.fixture
def micro_env():
    return build_micro_env()


def reached(root):
    """Every node root reaches through .parents, root first."""
    seen, work = {id(root): root}, [root]
    while work:
        for p in work.pop().parents:
            if id(p) not in seen:
                seen[id(p)] = p
                work.append(p)
    return list(seen.values())
