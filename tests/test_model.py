import threading
import warnings
import weakref
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffctr import autodiff as ad
from diffctr import data as dd
from diffctr import losses as ls
from diffctr import model as md
from diffctr import parallel
from diffctr.data import feature_schema
from diffctr.errors import CheckpointError, DataError, NumericError, ShapeError
from diffctr.optim import adam_step
from diffctr.rng import stream
from diffctr.schedule import build_schedule
from conftest import FailingWriter, permuted_model, reached, untied


def tiny_schema(vocabs=(4, 3, 5)):
    return feature_schema(list(vocabs))


def make_model(blocks=2, heads=2, d=8, seed=0, vocabs=(4, 3, 5)):
    cfg = md.ModelConfig(embed_dim=d, blocks=blocks, heads=heads, ffn_width=16, temperature=0.1)
    return md.Model.init(cfg, tiny_schema(vocabs), seed)


def random_tokens(model, rng, n=6, allow_mask=True):
    cols = []
    for f in model.schema:
        hi = f.vocab_size + (1 if allow_mask else 0)
        cols.append(rng.integers(0, hi, size=n))
    return np.stack(cols, axis=1)


def test_zero_blocks_is_identity_network():
    model = make_model(blocks=0)
    rng = stream(1, "t")
    tokens = random_tokens(model, rng)
    out = md.encode(model, tokens).data
    for j, f in enumerate(model.schema):
        table = model.params.get_data(f"embed/input/{f.name}")
        pos = model.params.get_data("embed/field_pos")[j]
        np.testing.assert_array_equal(out[:, j, :], table[tokens[:, j]] + pos)


def test_position_permutation_equivariance():
    model = make_model(blocks=2)
    rng = stream(2, "t")
    tokens = random_tokens(model, rng)
    order = (2, 0, 3, 1)
    base = md.encode(model, tokens).data
    permuted = md.encode(permuted_model(model, order), tokens[:, order]).data
    for j, f in enumerate(order):
        np.testing.assert_allclose(permuted[:, j, :], base[:, f, :], atol=1e-12)


def test_encode_deterministic():
    model = make_model()
    tokens = random_tokens(model, stream(3, "t"))
    a = md.encode(model, tokens).data
    b = md.encode(model, tokens).data
    np.testing.assert_array_equal(a, b)


def test_encode_rejects_out_of_range_token():
    model = make_model()
    tokens = random_tokens(model, stream(4, "t"))
    tokens[0, 0] = model.schema[0].vocab_size + 1  # beyond the mask id
    with pytest.raises(ShapeError):
        md.encode(model, tokens)


def test_field_logits_parallel_and_orthogonal():
    model = make_model(blocks=0, d=4)
    context = ad.const(np.array([[2.0, 0.0, 0.0, 0.0]]))
    rows = np.zeros((3, 4))
    rows[0] = [5.0, 0, 0, 0]   # parallel
    rows[1] = [0, 1.0, 0, 0]   # orthogonal
    rows[2] = [-1.0, 0, 0, 0]  # antiparallel
    model.params.set_data("embed/target/f1", rows)
    logits = md.field_logits(model, 1, context, np.array([0, 1, 2])).data
    np.testing.assert_allclose(logits, [[10.0, 0.0, -10.0]], atol=1e-12)


def test_field_logits_softmax_example():
    cfg = md.ModelConfig(embed_dim=4, blocks=0, heads=1, ffn_width=4, temperature=0.2)
    model = md.Model.init(cfg, tiny_schema(), seed=0)
    context = ad.const(np.array([[1.0, 0.0, 0.0, 0.0]]))
    rows = np.zeros((4, 4))  # f0 has vocab 4; only the first two rows matter here
    rows[0] = [0.9, np.sqrt(1 - 0.81), 0, 0]
    rows[1] = [0.1, np.sqrt(1 - 0.01), 0, 0]
    rows[2] = [0, 0, 1, 0]
    rows[3] = [0, 0, 0, 1]
    model.params.set_data("embed/target/f0", rows)
    logits = md.field_logits(model, 0, context, np.array([0, 1]))
    z = np.exp(logits.data[0] - logits.data[0].max())
    probs = z / z.sum()
    np.testing.assert_allclose(probs, [0.98201379, 0.01798621], atol=1e-7)


def test_field_logits_rejects_empty_candidates():
    model = make_model()
    context = ad.const(np.zeros((1, 8)))
    with pytest.raises(DataError):
        md.field_logits(model, 0, context, np.array([], dtype=np.int64))


class TestCtrScore:
    def build(self, label_rows, temperature=0.2):
        cfg = md.ModelConfig(embed_dim=4, blocks=0, heads=1, ffn_width=4,
                             temperature=temperature)
        model = md.Model.init(cfg, tiny_schema(), seed=1)
        pos = np.zeros((4, 4))
        model.params.set_data("embed/field_pos", pos)
        label_input = model.params.get_data("embed/input/label").copy()
        label_input[2] = [1.0, 0.0, 0.0, 0.0]  # mask row becomes the probe direction
        model.params.set_data("embed/input/label", label_input)
        model.params.set_data("embed/target/label", np.asarray(label_rows, dtype=float))
        return model

    def test_equal_logits_give_half(self):
        model = self.build([[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0]])
        tokens = np.array([[0, 0, 0, 0], [1, 2, 3, 1]])
        np.testing.assert_allclose(md.ctr_score(model, tokens), [0.5, 0.5], atol=1e-12)

    def test_logit_gap_of_two(self):
        rows = [[0.5, np.sqrt(1 - 0.25), 0, 0], [0.9, np.sqrt(1 - 0.81), 0, 0]]
        model = self.build(rows)  # cos 0.5 vs 0.9, temperature 0.2 -> gap 2.0
        score = md.ctr_score(model, np.array([[0, 0, 0, 0]]))
        np.testing.assert_allclose(score, [1 / (1 + np.exp(-2.0))], atol=1e-10)

    def test_label_token_in_input_is_ignored(self):
        model = make_model(blocks=2)
        tokens = random_tokens(model, stream(5, "t"), allow_mask=False)
        flipped = tokens.copy()
        flipped[:, -1] = 1 - flipped[:, -1]
        np.testing.assert_array_equal(md.ctr_score(model, tokens), md.ctr_score(model, flipped))

    def test_masked_feature_rejected(self):
        model = make_model()
        tokens = random_tokens(model, stream(6, "t"), allow_mask=False)
        tokens[0, 1] = model.schema[1].vocab_size
        with pytest.raises(DataError, match="f1"):
            md.ctr_score(model, tokens)

    def test_scores_strictly_inside_unit_interval(self):
        model = make_model(blocks=1)
        tokens = random_tokens(model, stream(7, "t"), n=32, allow_mask=False)
        s = md.ctr_score(model, tokens)
        assert np.all(s > 0) and np.all(s < 1)


@untied
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("blocks", [0, 1, 2, 3])
def test_ctr_score_equals_tape_route(blocks, heads, tied):
    """Tape-free scoring and the taped label-row route both equal the taped full route."""
    model = make_model(blocks=blocks, heads=heads, seed=blocks + 10 * heads)
    tokens = random_tokens(model, stream(20, blocks, heads), n=4096, allow_mask=False)
    for rows in (1, 7, 4096):
        chunk = tokens[:rows]
        full = full_route_logit_diff(model, chunk).data
        assert np.array_equal(md.label_logit_diff(model, chunk).data, full), rows
        assert np.array_equal(md.ctr_score(model, chunk), ad.sigmoid(ad.const(full)).data), rows


def full_route_logit_diff(model, tokens):
    """label_logit_diff with every row run through the last block, then the label row taken."""
    lbl = model.label_position
    masked = tokens.copy()
    masked[:, lbl] = model.mask_ids[lbl]
    ctx = ad.take_position(md.encode(model, masked), lbl)
    logits = md.field_logits(model, lbl, ctx, np.array([0, 1]))
    return ad.tsum(ad.mul(logits, ad.const(np.array([-1.0, 1.0]))), axis=1)


@untied
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("blocks", [0, 1, 2, 3])
def test_sft_loss_within_bound_of_full_route(blocks, heads, tied):
    """The label-row tail changes only gradient summation order: loss equal, grads within 1e-12."""
    # d = 32 and 256 rows are wide enough for BLAS to sum the two routes in different orders
    model = make_model(blocks=blocks, heads=heads, d=32, seed=30 + blocks + 10 * heads)
    tokens = random_tokens(model, stream(25, blocks, heads), n=256, allow_mask=False)
    signs = ad.const(2.0 * tokens[:, -1] - 1.0)

    def full(params):
        return ad.tmean(ad.softplus(ad.smul(ad.mul(full_route_logit_diff(model, tokens), signs), -1.0)))

    want_loss, want = ad.forward_backward(full, model.params)
    got_loss, got = ad.forward_backward(lambda params: ls.sft_loss(model, tokens), model.params)
    assert got_loss == want_loss
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12, err_msg=name)


def every_pair_tokens(model):
    """One row per token of the widest field, so every (field, token) pair occurs."""
    width = max(f.vocab_size + 1 for f in model.schema)
    return np.stack([np.arange(width) % (f.vocab_size + 1) for f in model.schema], axis=1)


@untied
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("blocks", [0, 1, 2, 3])
def test_forward_only_encode_equals_taped(blocks, heads, tied):
    """Under no_grad, encode runs block 0 on distinct pairs and the last block's
    query on two rows; every output stays bit-identical to the taped route."""
    # nine positions and d = 32: there BLAS sums the leading rows of a small
    # batched gemm in another order than a two-row block, but not the last row
    model = make_model(blocks=blocks, heads=heads, d=32, vocabs=(4, 3, 5, 6, 2, 7, 3, 5),
                       seed=blocks + 10 * heads)
    tokens = random_tokens(model, stream(29, blocks, heads), n=4096)  # mask ids in every column
    same = np.repeat(tokens[:1], 7, axis=0)  # one pair per field
    batches = [tokens[:1], tokens[:2], tokens[:7], same, every_pair_tokens(model)]
    cases = [(chunk, keep) for chunk in batches for keep in (None, model.label_position)]
    cases.append((tokens, model.label_position))  # a scoring chunk
    cases.append((tokens[:7], 0))  # a keep before the last position queries every row
    for chunk, keep in cases:
        taped = md.encode(model, chunk, keep=keep).data
        with ad.no_grad():
            bare = md.encode(model, chunk, keep=keep).data
        assert np.array_equal(bare, taped), (len(chunk), keep)


def test_forward_only_encode_within_bound_of_taped():
    """At d = 16 with 4-wide heads and B * P = 18,432, OpenBLAS sums a GEMM row
    differently at different row counts, so the forward-only route is not
    bit-identical to the taped one (about 1e-14 apart); it stays within 1e-12."""
    model = make_model(heads=4, d=16, vocabs=(50,) * 8)
    tokens = random_tokens(model, stream(1, "t"), n=2048, allow_mask=False)
    for keep in (None, model.label_position):
        taped = md.encode(model, tokens, keep=keep).data
        with ad.no_grad():
            bare = md.encode(model, tokens, keep=keep).data
        assert np.abs(bare - taped).max() <= 1e-12, keep
    taped_scores = ad.sigmoid(full_route_logit_diff(model, tokens)).data
    assert np.abs(md.ctr_score(model, tokens) - taped_scores).max() <= 1e-12


def constant_input_model():
    """One block whose FFN sees g = 1 on every row: input embeddings of
    ones, no position offsets and a zero attention output."""
    model = make_model(blocks=1, heads=2, d=8)
    for name in model.params.names():
        if name.startswith("embed/input/"):
            model.params.set_data(name, np.ones_like(model.params.get_data(name)))
        elif name == "embed/field_pos" or name.endswith("/wo"):
            model.params.set_data(name, np.zeros_like(model.params.get_data(name)))
    return model


def test_ctr_score_raises_where_relu_would_hide_minus_inf():
    model = constant_input_model()
    model.params.set_data("net/b0/ffn_w1", np.full((8, 16), -1e308))  # g @ w1 = -inf
    tokens = random_tokens(model, stream(21, "t"), n=5, allow_mask=False)
    with pytest.raises(NumericError, match="'ffn'"):
        md.ctr_score(model, tokens)
    with pytest.raises(NumericError, match="'ffn'"):
        md.label_logit_diff(model, tokens)


def test_a_failing_ctr_score_calls_label_logit_diff_once(monkeypatch):
    model = constant_input_model()
    model.params.set_data("net/b0/ffn_w1", np.full((8, 16), -1e308))
    tokens = random_tokens(model, stream(21, "t"), n=5, allow_mask=False)
    calls, logit_diff = [], md.label_logit_diff
    monkeypatch.setattr(md, "label_logit_diff", lambda *args: calls.append(args) or logit_diff(*args))
    with pytest.raises(NumericError, match="'ffn'"):
        md.ctr_score(model, tokens)
    assert len(calls) == 1


def test_ctr_score_raises_on_overflowing_attention_score():
    model = constant_input_model()
    for name in ("net/b0/h0/wq", "net/b0/h0/wk"):
        model.params.set_data(name, np.full((8, 4), 1e200))  # q . k = inf
    tokens = random_tokens(model, stream(22, "t"), n=5, allow_mask=False)
    with pytest.raises(NumericError, match="'attention'"):
        md.ctr_score(model, tokens)


class WeightProducts(np.ndarray):
    """A head weight's value that logs the operands' shapes of every product
    it takes part in, then computes it as a plain array would."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)  # views (w.T) log too

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = getattr(ufunc, method)(*(a.view(np.ndarray) if isinstance(a, WeightProducts) else a
                                       for a in inputs), **kwargs)
        if ufunc is np.matmul:
            self.log.append((tuple(a.shape for a in inputs), inputs[0], out))
        return out


@contextmanager
def weight_products(model):
    """Every head weight (wq, wk, wv, wo) a WeightProducts view while active;
    yields their shared log of ((rows' shape, weight's shape), rows, product)."""
    log, saved = [], {}
    for name, tensor in model.params.items():
        if name.rsplit("/", 1)[-1] in ("wq", "wk", "wv", "wo"):
            saved[name] = tensor.data
            tensor.data = tensor.data.view(WeightProducts)
            tensor.data.log = log
    try:
        yield log
    finally:
        for name, data in saved.items():
            model.params[name].data = data


def test_ctr_score_builds_no_tape(monkeypatch):
    model = make_model(blocks=2)
    tokens = random_tokens(model, stream(23, "t"), n=9, allow_mask=False)
    created = []
    init = ad.Tensor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(ad.Tensor, "__init__", recording_init)
    with weight_products(model) as products:
        md.ctr_score(model, tokens)
    assert created and all(t.parents == () and t.vjps == () for t in created)
    # the last block's attention output and FFN see the label row alone
    sublayers = [(9, 4, 8), (9, 4, 8), (9, 8), (9, 8)]
    assert [t.data.shape for t in created if t.op in ("attention", "ffn")] == sublayers
    # block 0 projects each distinct (field, token) pair once, the label masked in every row;
    # the last block queries positions 2 and 3 only
    pairs = len({(k, t) for row in tokens[:, :-1] for k, t in enumerate(row)}) + 1
    first = [((pairs, 8), (8, 4))] * 3 + [((36, 4), (4, 8))]
    last = [((18, 8), (8, 4)), ((36, 8), (8, 4)), ((36, 8), (8, 4)), ((9, 4), (4, 8))]
    assert pairs < 9 * 4
    assert [shapes for shapes, _, _ in products] == first * 2 + last * 2
    assert [t.data.shape for t in created if t.op == "matmul"] == [(9, 8), (9, 2)]
    created.clear()
    with weight_products(model) as products:
        ls.sft_loss(model, tokens)  # training records its tape on the same label-row route
    assert any(t.parents for t in created)
    assert [t.data.shape for t in created if t.op in ("attention", "ffn")] == sublayers
    shapes = [shapes for shapes, _, _ in products]
    assert shapes[:3] == shapes[4:7] == [((36, 8), (8, 4))] * 3  # block 0 keeps all B * P rows
    assert shapes[8] == shapes[12] == ((36, 8), (8, 4))  # and the last block every query row


@pytest.fixture(scope="module")
def default_scoring_rows():
    spec = dd.random_spec(num_fields=8, vocab=50, samples=4096, seed=3)
    ds, _ = dd.generate_synthetic(spec)
    return ds.schema, ds.token_matrix()


def one_call_logit_diff(model, tokens):
    """label_logit_diff's per-part function called once on every row: no parts, one tape."""
    masked = tokens.copy()
    masked[:, -1] = model.mask_ids[-1]
    pos_rows = ad.gather_rows(model.params["embed/field_pos"], np.arange(model.num_positions))
    columns = md._target_columns(model, model.label_position, np.array([0, 1]))
    return md._part_logit_diff(model, masked, pos_rows, columns)


def unsplit_scores(model, tokens):
    with ad.no_grad():
        return ad.sigmoid(one_call_logit_diff(model, tokens)).data


@pytest.mark.parametrize("cfg", [md.ModelConfig(), md.ModelConfig(heads=4, blocks=3)],
                         ids=["default", "heads4-blocks3"])
def test_scoring_in_parts_is_bit_identical_to_one_call(cfg, default_scoring_rows):
    """Parts of 1024-2047 rows score each row as the whole chunk does, at
    every row count the cuts treat differently."""
    schema, tokens = default_scoring_rows
    model = md.Model.init(cfg, schema, 0)
    for n in (2048, 2500, 3000, 3071, 4095, 4096):
        assert np.array_equal(md.ctr_score(model, tokens[:n]), unsplit_scores(model, tokens[:n])), n


def test_cuts_and_scores_do_not_depend_on_the_cpu_count(monkeypatch, default_scoring_rows):
    schema, tokens = default_scoring_rows
    model = md.Model.init(md.ModelConfig(), schema, 0)
    want = unsplit_scores(model, tokens[:3071])
    part_rows, threads, error_states = [], set(), set()
    real = md._part_logit_diff

    def spy(model, rows, *shared):
        part_rows.append(len(rows))
        threads.add(threading.get_ident())
        error_states.add((np.geterr()["over"], np.geterr()["invalid"], ad.recording()))
        return real(model, rows, *shared)

    monkeypatch.setattr(md, "_part_logit_diff", spy)
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "cpu_workers", lambda: cpus)
        part_rows.clear()
        threads.clear()
        assert np.array_equal(md.ctr_score(model, tokens[:3071]), want), cpus
        assert sorted(part_rows) == [1535, 1536]
        assert len(threads) == cpus
        # numpy's error state starts at its defaults on a plain new thread;
        # every part runs in ctr_score's own, and under its no_grad
        assert error_states == {("ignore", "ignore", False)}


def test_a_malformed_chunk_raises_alike_whichever_part_holds_the_bad_row():
    """Field 3 masked in the first part and field 0 in the last: the whole
    chunk is checked field by field, so the error names field 0."""
    model = make_model(blocks=1, vocabs=(4, 3, 5, 6, 4))
    tokens = random_tokens(model, stream(24, "t"), n=4096, allow_mask=False)
    tokens[0, 3] = model.schema[3].vocab_size
    tokens[-1, 0] = model.schema[0].vocab_size
    with pytest.raises(DataError, match="unmasked field 'f0'"):
        md.ctr_score(model, tokens)
    tokens[-1, 0] = -1  # out of range: reported only after the masked-field check
    with pytest.raises(DataError, match="unmasked field 'f3'"):
        md.ctr_score(model, tokens)
    tokens[0, 3] = 0
    with pytest.raises(ShapeError, match="field 'f0'"):
        md.ctr_score(model, tokens)


@pytest.mark.parametrize("call", [md.ctr_score, ls.sft_loss], ids=["ctr_score", "sft_loss"])
@pytest.mark.parametrize("cut, match", [(lambda t: t[0], r"must be \(B, 4\), got \(4,\)"),
                                        (lambda t: t[:0], r"at least one row, got \(0, 4\)")],
                         ids=["one-row-vector", "no-rows"])
def test_a_batch_of_the_wrong_shape_raises_before_any_value_check(call, cut, match):
    """The shape is checked before the labels, the masked features and the
    token ranges; a feature holds its mask id to show the order."""
    model = make_model(blocks=1)
    tokens = random_tokens(model, stream(28, "t"), n=4, allow_mask=False)
    tokens[:, 0] = model.schema[0].vocab_size
    with pytest.raises(ShapeError, match=match):
        call(model, cut(tokens))


def overflowing_model():
    """Two blocks whose first FFN overflows only on rows holding field 0's token 3."""
    model = make_model(blocks=2, heads=2, d=8)
    for name in model.params.names():
        if name.startswith("embed/input/"):
            model.params.set_data(name, np.ones_like(model.params.get_data(name)))
        elif name == "embed/field_pos" or name.endswith("/wo") or name == "net/b0/ffn_w2":
            model.params.set_data(name, np.zeros_like(model.params.get_data(name)))
    table = model.params.get_data("embed/input/f0").copy()
    table[3] = np.eye(8)[0]  # rms_scale: sqrt(8) on axis 0, where a row of ones gives 1
    model.params.set_data("embed/input/f0", table)
    w1 = np.zeros((8, 16))
    w1[0] = 1e308
    model.params.set_data("net/b0/ffn_w1", w1)
    tokens = random_tokens(model, stream(26, "t"), n=4096, allow_mask=False)
    tokens[:, 0] %= 3
    return model, tokens


def test_a_malformed_fine_tune_batch_raises_alike_whichever_part_holds_the_bad_row():
    """The sft_loss twin of the chunk check above: field 3 masked in the first
    part and field 0 in the last, and then a label out of range in the last."""
    model = make_model(blocks=1, vocabs=(4, 3, 5, 6, 4))
    tokens = random_tokens(model, stream(24, "t"), n=4096, allow_mask=False)
    tokens[0, 3] = model.schema[3].vocab_size
    tokens[-1, 0] = model.schema[0].vocab_size
    with pytest.raises(DataError, match="unmasked field 'f0'"):
        ls.sft_loss(model, tokens)
    tokens[-1, -1] = 2
    with pytest.raises(DataError, match="labels must be 0 or 1"):
        ls.sft_loss(model, tokens)


def test_overflow_in_the_last_part_raises_on_the_caller_without_a_warning():
    """Only the chunk's last row holds the overflowing token."""
    model, tokens = overflowing_model()
    ok = md.ctr_score(model, tokens)
    assert np.all(np.isfinite(ok))
    tokens[-1, 0] = 3
    threads_before = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError, match="'ffn'"):
            md.ctr_score(model, tokens)
    assert threading.active_count() == threads_before


def one_tape_step(model, tokens):
    """A fine-tune step's loss and gradients from one tape over every row."""
    signs = ad.const(2.0 * tokens[:, -1] - 1.0)

    def loss(params):
        signed = ad.mul(one_call_logit_diff(model, tokens), signs)
        return ad.tmean(ad.softplus(ad.smul(signed, -1.0)))

    return ad.forward_backward(loss, model.params)


@pytest.mark.parametrize("rows", [896, 2048, 3071, 4096])
def test_fine_tune_step_in_parts_is_bit_identical_to_one_tape(monkeypatch, rows,
                                                              default_scoring_rows):
    """sft_loss runs 1024-2047-row parts on a thread each, records a tape and
    runs each in its caller's error state, and joins every thread. One part
    (896 rows) is one tape, bit for bit. Two or more add their own gradient
    sums in part order: the loss equals one tape's, the gradients stay within
    1e-13 of it, and every CPU count gives the same bytes."""
    schema, tokens = default_scoring_rows
    model = md.Model.init(md.ModelConfig(), schema, 0)
    batch = tokens[:rows]
    want_loss, want = one_tape_step(model, batch)
    part_rows, threads, error_states = [], set(), set()
    real = md._part_logit_diff

    def spy(model, rows, *shared):
        part_rows.append(len(rows))
        threads.add(threading.get_ident())
        error_states.add((np.geterr()["over"], np.geterr()["invalid"], ad.recording()))
        return real(model, rows, *shared)

    monkeypatch.setattr(md, "_part_logit_diff", spy)
    cuts = parallel.parts(rows, parallel.PART_ROWS)
    runs = set()
    for cpus in (1, 2, 4):
        monkeypatch.setattr(parallel, "cpu_workers", lambda: cpus)
        part_rows.clear()
        threads.clear()
        threads_before = threading.active_count()
        loss, grads = ad.forward_backward(lambda params: ls.sft_loss(model, batch), model.params)
        assert threading.active_count() == threads_before
        assert loss == want_loss
        for name in want:
            if len(cuts) == 1:
                assert np.array_equal(grads[name], want[name]), (cpus, name)
            else:
                np.testing.assert_allclose(grads[name], want[name], rtol=0, atol=1e-13,
                                           err_msg=f"{cpus} {name}")
        runs.add(b"".join(grads[name].tobytes() for name in sorted(grads)))
        assert sorted(part_rows) == sorted(end - start for start, end in cuts)
        assert len(threads) == min(cpus, len(cuts))
        assert error_states == {("ignore", "ignore", True)}
    assert len(runs) == 1


def test_fine_tune_step_at_4_wide_heads_within_bound(default_scoring_rows):
    """At d = 16 with 4-wide heads BLAS sums a part's rows unlike the whole
    batch's (encode's docstring), so parts hold only a bound."""
    schema, tokens = default_scoring_rows
    model = md.Model.init(md.ModelConfig(embed_dim=16, heads=4), schema, 0)
    want_loss, want = one_tape_step(model, tokens[:2048])
    loss, grads = ad.forward_backward(lambda params: ls.sft_loss(model, tokens[:2048]),
                                      model.params)
    assert abs(loss - want_loss) <= 1e-12
    for name in want:
        np.testing.assert_allclose(grads[name], want[name], rtol=0, atol=1e-12, err_msg=name)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(rows=st.integers(2, 150), part_rows=st.integers(1, 40), cpus=st.integers(1, 4))
@example(rows=2, part_rows=1, cpus=1)  # two one-row parts
def test_parts_joined_stay_within_bound_of_one_tape_for_drawn_cuts(default_scoring_rows, rows,
                                                                   part_rows, cpus):
    """At the default head width, whatever the cuts and the threads, and with
    every part's tape freed by the walk: its nodes keep no closures.

    Parts this small are not bit-identical to one tape: OpenBLAS sums a
    row of a small product (the (B, d) @ (d, 2) label logits among them)
    in an order that depends on the row count, so they hold the 1e-12
    bound; at the default PART_ROWS only the summation order of the parts'
    gradients moves them, within 1e-13
    (test_fine_tune_step_in_parts_is_bit_identical_to_one_tape)."""
    schema, tokens = default_scoring_rows
    model = md.Model.init(md.ModelConfig(), schema, 0)
    batch = tokens[:rows]
    want_loss, want = one_tape_step(model, batch)
    roots = []
    real, saved = md._part_logit_diff, (parallel.PART_ROWS, parallel.cpu_workers)

    def spy(model, rows, *shared):
        roots.append(real(model, rows, *shared))
        return roots[-1]

    md._part_logit_diff, parallel.PART_ROWS, parallel.cpu_workers = spy, part_rows, lambda: cpus
    try:
        cuts = parallel.parts(rows, part_rows)
        loss, grads = ad.forward_backward(lambda params: ls.sft_loss(model, batch), model.params)
    finally:
        md._part_logit_diff, (parallel.PART_ROWS, parallel.cpu_workers) = real, saved
    assert len(roots) == len(cuts)
    assert abs(loss - want_loss) <= 1e-12
    for name in want:
        np.testing.assert_allclose(grads[name], want[name], rtol=0, atol=1e-12, err_msg=name)
    for root in roots:
        assert root.data is not None and root.node.vjp is None
        for node in reached(root)[1:]:
            if node.parents:
                assert node.vjp is None and node.grad is None, node.op
    assert all(param.data is not None for _, param in model.params.items())


def test_a_pretraining_step_frees_its_tape_and_keeps_the_loss_and_the_parameters(monkeypatch):
    model = make_model(blocks=2)
    tokens = random_tokens(model, stream(28, "t"), n=12, allow_mask=False)
    schedule = build_schedule(model.num_positions - 1, lo=0.2, hi=0.9)
    taped, parts = [], []
    terms = ad.candidate_terms
    monkeypatch.setattr(ad, "candidate_terms", lambda *args: parts.append(terms(*args)) or parts[-1])

    def tape():
        """The loss's nodes and its part's, whose nodes join_rows does not reach."""
        return list({id(n): n for root in (taped[0], *parts) for n in reached(root.node)}.values())

    def graph(params):
        taped.append(ls.pretrain_loss(model, tokens, schedule, stream(28, "c")))
        taped.append(Counter(n.op for n in tape()))
        return taped[0]

    ad.forward_backward(graph, model.params)
    loss, counts = taped
    nodes = tape()
    assert len(parts) == 1 and Counter(n.op for n in nodes) == counts
    assert counts["rms_scale"] == 5 and counts["attention"] == 2 and counts["ffn"] == 2
    assert loss.data.shape == () and loss.node.vjp is None
    interior = [n for n in nodes if n.parents]
    assert interior and all(n.vjp is None and n.grad is None for n in interior)
    assert all(param.data is not None for _, param in model.params.items())


def test_a_value_lives_while_an_adjoint_reads_it(monkeypatch):
    """The tape holds nodes, not values: the stacked input embeddings, which
    no adjoint reads, die during the forward, while the q projection, the
    normalised rows h and block 0's output (read by the last block's
    rms_scale adjoint), live until backward has run them."""
    model = make_model(blocks=2)
    tokens = random_tokens(model, stream(29, "t"), n=12, allow_mask=False)
    values = {}
    stack, ffn = ad.stack, ad.ffn

    def memory(a: np.ndarray) -> np.ndarray:
        return a if a.base is None else a.base

    def watched(name, op):
        def run(*args, **kwargs):
            out = op(*args, **kwargs)
            values.setdefault(name, weakref.ref(memory(out.data)))
            return out

        return run

    monkeypatch.setattr(ad, "stack", watched("stack", stack))
    monkeypatch.setattr(ad, "ffn", watched("ffn", ffn))
    with weight_products(model) as products:
        loss = ls.sft_loss(model, tokens)
    _, rows, q = products[0]  # block 0's first head's q projection
    values["q"], values["h"] = weakref.ref(memory(q)), weakref.ref(memory(rows))
    del products, rows, q
    assert sorted(values) == ["ffn", "h", "q", "stack"]
    assert values["stack"]() is None
    assert all(values[name]() is not None for name in ("q", "h", "ffn"))
    ad.backward(loss)
    assert all(ref() is None for ref in values.values())


def test_overflow_in_a_helper_threads_fine_tune_part_raises_on_the_caller(monkeypatch):
    """The last of four parts runs on the helper thread and alone overflows."""
    monkeypatch.setattr(parallel, "cpu_workers", lambda: 2)
    model, tokens = overflowing_model()
    assert np.isfinite(ls.sft_loss(model, tokens).item())
    tokens[-1, 0] = 3
    threads_before = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError, match="'ffn'"):
            ad.forward_backward(lambda params: ls.sft_loss(model, tokens), model.params)
    assert threading.active_count() == threads_before


def test_a_faulted_matmul_adjoint_scales_the_joined_weight_adjoints(monkeypatch):
    """adjoint_fault reaches the weight adjoints, which each part sums in its
    own walk: the joined step stays within 1e-13 of the faulted one tape."""
    monkeypatch.setattr(parallel, "PART_ROWS", 16)
    model = make_model(blocks=2, heads=2, d=8)
    tokens = random_tokens(model, stream(27, "t"), n=70, allow_mask=False)
    _, clean = ad.forward_backward(lambda params: ls.sft_loss(model, tokens), model.params)
    with ad.adjoint_fault("matmul", 2.0):
        _, want = one_tape_step(model, tokens)
        _, got = ad.forward_backward(lambda params: ls.sft_loss(model, tokens), model.params)
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-13, err_msg=name)
    assert not np.allclose(got["net/b1/ffn_w2"], clean["net/b1/ffn_w2"], rtol=0, atol=1e-6)


def test_grad_check_through_the_kept_row():
    model = make_model(blocks=2, heads=2, d=4, vocabs=(3, 3))
    tokens = random_tokens(model, stream(24, "t"), n=3)
    weights = ad.const(stream(24, "w").normal(size=(3, 4)))

    def fn(params):
        return ad.tsum(ad.mul(md.encode(model, tokens, keep=1), weights))

    full = ad.take_position(md.encode(model, tokens), 1).data
    np.testing.assert_array_equal(md.encode(model, tokens, keep=1).data, full)
    reports = ad.grad_check(fn, model.params, h=1e-5, tol=1e-5)
    assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports if not r.passed]


def test_mask_row_receives_gradient_when_masked():
    model = make_model(blocks=1, d=8)
    tokens = random_tokens(model, stream(8, "t"), n=4, allow_mask=False)
    tokens[:, 0] = model.schema[0].vocab_size  # mask field 0 everywhere

    def fn(params):
        ctx = ad.take_position(md.encode(model, tokens), 0)
        logits = md.field_logits(model, 0, ctx, np.arange(model.schema[0].vocab_size))
        return ad.tmean(ad.logsumexp(logits, axis=1))

    _, grads = ad.forward_backward(fn, model.params)
    mask_row_grad = grads["embed/input/f0"][model.schema[0].vocab_size]
    assert np.any(mask_row_grad != 0)


def test_grad_check_through_encode_and_logits():
    model = make_model(blocks=1, heads=2, d=4, vocabs=(3, 3))
    rng = stream(9, "t")
    tokens = random_tokens(model, rng, n=3)

    def fn(params):
        ctx = ad.take_position(md.encode(model, tokens), 1)
        logits = md.field_logits(model, 1, ctx, np.arange(3))
        # cross-entropy head against fixed target tokens
        target = np.array([0, 2, 1])
        onehot = np.zeros((3, 3))
        onehot[np.arange(3), target] = 1.0
        return ad.tmean(ad.sub(ad.logsumexp(logits, axis=1),
                               ad.tsum(ad.mul(logits, ad.const(onehot)), axis=1)))

    reports = ad.grad_check(fn, model.params, h=1e-5, tol=1e-5)
    assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports if not r.passed]


class TestCheckpoint:
    def test_full_round_trip_bit_identical(self, tmp_path):
        model = make_model(seed=13)
        path = str(tmp_path / "m.dgct")
        md.save_checkpoint(model, path, meta={"seed": 13, "step": 7})
        again = md.load_checkpoint(path, "full", model.cfg, model.schema, seed=99)
        for name in model.params.names():
            np.testing.assert_array_equal(model.params.get_data(name), again.params.get_data(name))

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        old, new = make_model(seed=13), make_model(seed=14)
        path = str(tmp_path / "m.dgct")
        md.save_checkpoint(old, path)
        monkeypatch.setattr(dd, "open", FailingWriter, raising=False)
        with pytest.raises(DataError, match=r"^cannot write .*m\.dgct: no space left on device$"):
            md.save_checkpoint(new, path)
        monkeypatch.undo()
        again = md.load_checkpoint(path, "full", old.cfg, old.schema, seed=99)
        for name in old.params.names():
            np.testing.assert_array_equal(old.params.get_data(name), again.params.get_data(name))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.dgct"]

    def test_save_leaves_no_temporary_file(self, tmp_path):
        md.save_checkpoint(make_model(), str(tmp_path / "m.dgct"))
        md.save_checkpoint(make_model(seed=1), str(tmp_path / "m.dgct"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.dgct"]

    def test_embeddings_only(self, tmp_path):
        model = make_model(seed=13)
        path = str(tmp_path / "m.dgct")
        md.save_checkpoint(model, path)
        part = md.load_checkpoint(path, "embeddings-only", model.cfg, model.schema, seed=99)
        np.testing.assert_array_equal(
            part.params.get_data("embed/input/f0"), model.params.get_data("embed/input/f0")
        )
        assert not np.array_equal(
            part.params.get_data("net/b0/h0/wq"), model.params.get_data("net/b0/h0/wq")
        )

    def test_scoring_network_only(self, tmp_path):
        model = make_model(seed=13)
        path = str(tmp_path / "m.dgct")
        md.save_checkpoint(model, path)
        part = md.load_checkpoint(path, "scoring-network-only", model.cfg, model.schema, seed=99)
        np.testing.assert_array_equal(
            part.params.get_data("net/b1/ffn_w1"), model.params.get_data("net/b1/ffn_w1")
        )
        assert not np.array_equal(
            part.params.get_data("embed/input/f0"), model.params.get_data("embed/input/f0")
        )

    def test_corrupt_byte_detected(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.dgct"
        md.save_checkpoint(model, str(path))
        blob = bytearray(path.read_bytes())
        blob[len(blob) - 40] ^= 0xFF  # inside the payload
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            md.load_checkpoint(str(path), "full", model.cfg, model.schema, seed=0)

    def test_truncated_file_detected(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.dgct"
        md.save_checkpoint(model, str(path))
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CheckpointError):
            md.load_checkpoint(str(path), "full", model.cfg, model.schema, seed=0)

    def test_fingerprint_mismatch_full_mode(self, tmp_path):
        model = make_model(vocabs=(4, 3, 5))
        path = str(tmp_path / "m.dgct")
        md.save_checkpoint(model, path)
        other_schema = tiny_schema((4, 3, 9))
        with pytest.raises(CheckpointError, match="fingerprint"):
            md.load_checkpoint(path, "full", model.cfg, other_schema, seed=0)

    def test_scoring_transfer_across_vocabularies(self, tmp_path):
        model = make_model(vocabs=(4, 3, 5))
        path = str(tmp_path / "m.dgct")
        md.save_checkpoint(model, path)
        other_schema = tiny_schema((6, 2, 8))
        part = md.load_checkpoint(path, "scoring-network-only", model.cfg, other_schema, seed=1)
        np.testing.assert_array_equal(
            part.params.get_data("net/out_proj"), model.params.get_data("net/out_proj")
        )

    def test_unknown_mode(self, tmp_path):
        model = make_model()
        path = str(tmp_path / "m.dgct")
        md.save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="mode"):
            md.load_checkpoint(path, "partial", model.cfg, model.schema, seed=0)


def test_training_updates_all_parameter_groups():
    model = make_model(blocks=1, d=8)
    rng = stream(10, "t")
    tokens = random_tokens(model, rng, n=8, allow_mask=False)
    tokens[:, 0] = model.schema[0].vocab_size
    before = {n: model.params.get_data(n).copy() for n in model.params.names()}

    def fn(params):
        ctx = ad.take_position(md.encode(model, tokens), 0)
        V = model.schema[0].vocab_size
        logits = md.field_logits(model, 0, ctx, np.arange(V))
        onehot = np.zeros((8, V))
        onehot[np.arange(8), tokens[:, 1] % V] = 1.0
        return ad.tmean(ad.sub(ad.logsumexp(logits, axis=1),
                               ad.tsum(ad.mul(logits, ad.const(onehot)), axis=1)))

    _, grads = ad.forward_backward(fn, model.params)
    adam_step(model.params, grads, lr=1e-2)
    moved = [n for n in before if not np.array_equal(before[n], model.params.get_data(n))]
    assert "embed/input/f0" in moved and "net/b0/h0/wq" in moved
