import warnings

import numpy as np
import pytest

from diffctr import autodiff as ad
from diffctr import corruption as fc
from diffctr import losses as ls
from diffctr import model as md
from diffctr import parallel
from diffctr.data import feature_schema
from diffctr.errors import DataError, NumericError, ShapeError
from diffctr.rng import stream
from diffctr.schedule import build_schedule
from conftest import permuted_model, untied


def make_model(blocks=0, d=6, vocabs=(2, 2), seed=0, temperature=0.1):
    cfg = md.ModelConfig(embed_dim=d, blocks=blocks, heads=2, ffn_width=8, temperature=temperature)
    return md.Model.init(cfg, feature_schema(list(vocabs)), seed)


def make_tokens(model, rng, n):
    """(n, P) uniform token rows, drawn row by row and field by field."""
    return rng.integers([f.vocab_size for f in model.schema], size=(n, len(model.schema)))


def straight_line_loss(model, corrupted, cfg):
    """Independent loop-based evaluation for blocks=0 models."""
    B, P = corrupted.tokens.shape
    eligible = fc.loss_positions(P, cfg.label_mode)
    total = 0.0
    for i in range(B):
        for k in range(P):
            if not (corrupted.masked[i, k] and eligible[k]):
                continue
            f = model.schema[k]
            emb = model.params.get_data(f"embed/input/{f.name}")[corrupted.tokens[i, k]]
            ctx = emb + model.params.get_data("embed/field_pos")[k]
            pos_tok = int(corrupted.clean_tokens[i, k])
            if k == P - 1:
                cands = [0, 1]
            else:
                negs, seen = [], set()
                for j in range(B):
                    t = int(corrupted.clean_tokens[j, k])
                    if j == i or t == pos_tok or t in seen:
                        continue
                    seen.add(t)
                    negs.append(t)
                    if len(negs) == cfg.max_negatives:
                        break
                cands = [pos_tok] + negs
            tgt = model.params.get_data(f"embed/target/{f.name}")

            def cos(u, v):
                return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))

            logits = [cos(tgt[c], ctx) / model.cfg.temperature for c in cands]
            exps = [np.exp(v) for v in logits]
            ce = -np.log(exps[cands.index(pos_tok)] / sum(exps))
            w = 1.0
            if not cfg.no_diff:
                w = 1.0 / max(corrupted.mask_probs[i, k], cfg.mask_prob_floor)
            total += w * ce
    return total / B


@pytest.mark.parametrize("trial", range(5))
def test_pretrain_loss_matches_straight_line_oracle(trial):
    model = make_model(blocks=0, vocabs=(2, 2), seed=trial)
    rng = stream(20, "oracle", trial)
    tokens = make_tokens(model, rng, 6)
    schedule = build_schedule(2, lo=0.1, hi=0.9, horizon=50)
    corrupted = fc.corrupt_batch(tokens, schedule, stream(21, "c", trial), model.mask_ids)
    for cfg in (ls.PretrainLossConfig(), ls.PretrainLossConfig(no_diff=True)):
        loss, _ = ls.masked_field_losses(model, corrupted, cfg)
        oracle = straight_line_loss(model, corrupted, cfg)
        assert abs(loss.item() - oracle) < 1e-9


def test_weighting_factor_two_at_half_probability():
    model = make_model(blocks=1, vocabs=(3, 3), seed=1)
    rng = stream(22, "w")
    tokens = make_tokens(model, rng, 8)
    schedule = build_schedule(2, lo=0.0, hi=0.9)
    corrupted = fc.corrupt_batch(
        tokens, schedule, stream(23, "c"), model.mask_ids, fixed_probs=np.full(3, 0.5)
    )
    on, _ = ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig())
    # the fixed-rate ablation weighs every term alike
    off, _ = ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig(no_diff=True))
    assert abs(on.item() - 2.0 * off.item()) < 1e-12


def test_duplicate_positive_collapses_candidates():
    # every instance carries the same token in field 0: no usable negatives
    model = make_model(blocks=0, vocabs=(4, 4), seed=2)
    tokens = np.array([(2, i % 4, i % 2) for i in range(5)])
    schedule = build_schedule(2, lo=0.0, hi=0.9)
    corrupted = fc.corrupt_batch(
        tokens, schedule, stream(24, "c"), model.mask_ids, fixed_probs=np.array([0.8, 0.0, 0.0])
    )
    _, terms = ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig(no_diff=True))
    masked_rows = corrupted.masked[:, 0]
    np.testing.assert_allclose(terms[masked_rows, 0], 0.0, atol=1e-12)  # log(1)


def test_constant_network_gives_log_candidate_count():
    model = make_model(blocks=0, vocabs=(5, 5), seed=3)
    # identical target rows make every logit equal
    model.params.set_data("embed/target/f0", np.tile([1.0, 2.0, 0.5, 0, 0, 0], (5, 1)))
    tokens = np.array([(i, i, i % 2) for i in range(5)])  # distinct tokens in f0
    schedule = build_schedule(2, lo=0.0, hi=0.9)
    corrupted = fc.corrupt_batch(
        tokens, schedule, stream(25, "c"), model.mask_ids, fixed_probs=np.array([0.9, 0.0, 0.0])
    )
    _, terms = ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig(no_diff=True))
    masked_rows = corrupted.masked[:, 0]
    np.testing.assert_allclose(terms[masked_rows, 0], np.log(5.0), atol=1e-12)


def candidate_reference(col, vocab, max_negatives):
    """Per-row brute force of the _candidate_mask docstring.

    Row i keeps its positive plus the first max_negatives distinct tokens,
    in batch order, that other instances carry and that differ from it.
    """
    mask = np.zeros((len(col), vocab), dtype=bool)
    for i, tok in enumerate(col):
        negatives = []
        for j, t in enumerate(col):
            if j != i and t != tok and t not in negatives and len(negatives) < max_negatives:
                negatives.append(t)
        mask[i, negatives] = True
        mask[i, tok] = True
    return mask


@pytest.mark.parametrize("regime", ["all-fit", "truncated", "cap-above-vocab"])
def test_candidate_mask_matches_brute_force(regime):
    for trial in range(40):
        rng = stream(26, "candidates", regime, trial)
        B = int(rng.integers(2, 161))
        V = int(rng.integers(1, 12)) if regime == "cap-above-vocab" else int(rng.integers(2, 401))
        # skewed draws give repeated tokens, so rows share and lack negatives
        col = rng.permutation(V)[np.minimum(rng.geometric(min(0.5, 4.0 / V), size=B) - 1, V - 1)]
        distinct = len(np.unique(col))
        if regime == "truncated" and distinct < 3:
            continue
        if regime == "all-fit":
            max_negatives = int(rng.integers(max(distinct - 1, 1), distinct + 20))
        elif regime == "truncated":
            max_negatives = int(rng.integers(1, distinct - 1))
        else:
            max_negatives = int(rng.integers(V, V + 5))
        columns, pos, mask = ls._candidate_mask(col, max_negatives)
        np.testing.assert_array_equal(columns, np.unique(col))
        np.testing.assert_array_equal(columns[pos], col)
        got = np.zeros((B, V), dtype=bool)
        got[:, columns] = mask
        np.testing.assert_array_equal(got, candidate_reference(col, V, max_negatives))


def full_vocab_field_losses(model, corrupted, cfg):
    """The full-vocabulary form of masked_field_losses, as a reference.

    Every field scores all V targets; non-candidates are gated with
    LOG_ZERO and the positive is picked by a V-wide onehot. The candidate
    mask is the first-appearance rank construction written over V.
    """
    B, P = corrupted.tokens.shape
    ctx_all = md.encode(model, corrupted.tokens)
    eligible = fc.loss_positions(P, cfg.label_mode)
    weights = np.where(
        corrupted.masked & eligible[None, :],
        1.0 if cfg.no_diff else 1.0 / np.maximum(corrupted.mask_probs, cfg.mask_prob_floor),
        0.0,
    )
    total = None
    terms = np.zeros((B, P))
    for k in range(P):
        if not weights[:, k].any():
            continue
        V, col = model.schema[k].vocab_size, corrupted.clean_tokens[:, k]
        if k == model.label_position:
            mask = np.ones((B, V), dtype=bool)
        else:
            distinct, first = np.unique(col, return_index=True)
            rank = np.full(V, np.iinfo(np.int64).max)
            rank[distinct[np.argsort(first)]] = np.arange(len(distinct))
            limit = cfg.max_negatives + (rank[col] < cfg.max_negatives)
            mask = rank[None, :] < limit[:, None]
            mask[np.arange(B), col] = True
        logits = md.field_logits(model, k, ad.take_position(ctx_all, k), np.arange(V))
        gate = np.where(mask, 0.0, ad.LOG_ZERO)
        denom = ad.logsumexp(ad.add(logits, ad.const(gate)), axis=1)
        onehot = np.zeros((B, V))
        onehot[np.arange(B), col] = 1.0
        ce = ad.sub(denom, ad.tsum(ad.mul(logits, ad.const(onehot)), axis=1))
        terms[:, k] = ce.data * weights[:, k]
        contrib = ad.tsum(ad.mul(ce, ad.const(weights[:, k])))
        total = contrib if total is None else ad.add(total, contrib)
    return ad.smul(total, 1.0 / B), terms


def skewed_tokens(model, rng, n):
    """Geometric-rank tokens, so fields repeat tokens and rows share negatives."""
    cols = []
    for f in model.schema[:-1]:
        V = f.vocab_size
        ranks = np.minimum(rng.geometric(min(0.5, 4.0 / V), size=n) - 1, V - 1)
        cols.append(rng.permutation(V)[ranks])
    cols.append(rng.integers(2, size=n))
    return np.stack(cols, axis=1)


PARITY_ATOL = 1e-12


def loss_terms_grads(loss_fn, model, corrupted, cfg):
    terms = {}

    def fn(params):
        loss, terms["value"] = loss_fn(model, corrupted, cfg)
        return loss

    loss, grads = ad.forward_backward(fn, model.params)
    return loss, terms["value"], grads


@pytest.mark.parametrize("blocks", [0, 2])
@pytest.mark.parametrize("V,B", [(6, 8), (6, 96), (50, 96), (50, 256), (2000, 8), (2000, 256)])
def test_losses_match_full_vocab_formula(V, B, blocks):
    model = make_model(blocks=blocks, d=8, vocabs=(V, V), seed=V + B + blocks)
    tokens = skewed_tokens(model, stream(40, "parity", V, B, blocks), B)
    distinct = min(len(np.unique(tokens[:, k])) for k in range(2))
    schedule = build_schedule(2, lo=0.1, hi=0.9, horizon=50)
    for label_mode in ("diffuse", "drop"):
        corrupted = fc.corrupt_batch(tokens, schedule, stream(41, "c", V, B), model.mask_ids,
                                     label_mode=label_mode)
        for max_negatives in (max(distinct // 2, 1), distinct + 5):
            cfg = ls.PretrainLossConfig(max_negatives=max_negatives, label_mode=label_mode)
            new_loss, new_terms, new_grads = loss_terms_grads(
                ls.masked_field_losses, model, corrupted, cfg)
            ref_loss, ref_terms, ref_grads = loss_terms_grads(
                full_vocab_field_losses, model, corrupted, cfg)
            assert abs(new_loss - ref_loss) <= PARITY_ATOL
            np.testing.assert_allclose(new_terms, ref_terms, rtol=0, atol=PARITY_ATOL)
            for name in ref_grads:
                np.testing.assert_allclose(new_grads[name], ref_grads[name], rtol=0,
                                           atol=PARITY_ATOL, err_msg=name)


def per_field_losses(model, corrupted, cfg):
    """masked_field_losses written as one tape per field, field by field.

    The batched route must equal it bit for bit: same loss, same term
    matrix, same gradient for every parameter.
    """
    B, P = corrupted.tokens.shape
    ctx_all = md.encode(model, corrupted.tokens)
    eligible = fc.loss_positions(P, cfg.label_mode)
    weights = np.where(
        corrupted.masked & eligible[None, :],
        1.0 if cfg.no_diff else 1.0 / np.maximum(corrupted.mask_probs, cfg.mask_prob_floor),
        0.0,
    )
    total = None
    terms = np.zeros((B, P))
    for k in range(P):
        if not weights[:, k].any():
            continue
        clean = corrupted.clean_tokens[:, k]
        if k == model.label_position:
            columns, pos = np.arange(model.schema[k].vocab_size), clean
            mask = np.ones((B, len(columns)), dtype=bool)
        else:
            columns, pos, mask = ls._candidate_mask(clean, cfg.max_negatives)
        logits = md.field_logits(model, k, ad.take_position(ctx_all, k), columns)
        gate = np.where(mask, 0.0, ad.LOG_ZERO)
        denom = ad.logsumexp(ad.add(logits, ad.const(gate)), axis=1)
        onehot = np.zeros((B, len(columns)))
        onehot[np.arange(B), pos] = 1.0
        ce = ad.sub(denom, ad.tsum(ad.mul(logits, ad.const(onehot)), axis=1))
        terms[:, k] = ce.data * weights[:, k]
        contrib = ad.tsum(ad.mul(ce, ad.const(weights[:, k])))
        total = contrib if total is None else ad.add(total, contrib)
    return ad.smul(total, 1.0 / B), terms


@untied
@pytest.mark.parametrize("B", [8, 96, 256])
@pytest.mark.parametrize("vocabs", [(3, 50, 2000), (50,) * 8], ids=["mixed", "eight"])
def test_batched_losses_bit_identical_to_per_field_loop(vocabs, B, tied):
    model = make_model(blocks=1, d=32, vocabs=vocabs, seed=B + len(vocabs))
    tokens = skewed_tokens(model, stream(44, "bitwise", B, len(vocabs)), B)
    distinct = [len(np.unique(tokens[:, k])) for k in range(len(vocabs))]
    schedule = build_schedule(len(vocabs), lo=0.1, hi=0.9, horizon=50)
    for label_mode in ("diffuse", "drop"):
        corrupted = fc.corrupt_batch(tokens, schedule, stream(45, "c", B, tied), model.mask_ids,
                                     label_mode=label_mode)
        for max_negatives in (max(min(distinct) // 2, 1), max(distinct) + 5):
            cfg = ls.PretrainLossConfig(max_negatives=max_negatives, label_mode=label_mode)
            loss, terms, grads = loss_terms_grads(ls.masked_field_losses, model, corrupted, cfg)
            ref_loss, ref_terms, ref_grads = loss_terms_grads(per_field_losses, model, corrupted, cfg)
            # bytes, so a zero of the other sign fails too
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            assert terms.tobytes() == ref_terms.tobytes()
            for name in ref_grads:  # two parts at B = 256 sum the gradients in another order
                if B < 2 * parallel.PRETRAIN_PART_ROWS:
                    assert grads[name].tobytes() == ref_grads[name].tobytes(), name
                else:
                    bound = 1e-13 * max(1.0, np.abs(ref_grads[name]).max())
                    assert np.abs(grads[name] - ref_grads[name]).max() <= bound, name


@pytest.mark.parametrize("label_mode", ["diffuse", "drop"])
@pytest.mark.parametrize("V", [50, 2000])
@pytest.mark.parametrize("B", [256, 512])
def test_pretraining_in_parts_stays_within_its_bound_of_one_tape(monkeypatch, B, V, label_mode):
    """The stated bound of pretraining's parts (B >= 2 * PRETRAIN_PART_ROWS)
    at the default model, on three batches each: each entry of the loss,
    the (B, P) terms and every gradient lies within 1e-13 times max(1,
    that array's largest magnitude) of one tape over every row. The
    gradients differ in the order the parts' sums are added. At V = 50
    the loss and terms equal one tape's bytes; at V = 2000 a field's
    candidate set can be 244 tokens or wider, where OpenBLAS sums a row of
    the (b, d) @ (d, U) cosine product otherwise at 128 rows than at 256,
    and a term moves by an ulp. One part is one tape
    (test_batched_losses_bit_identical_to_per_field_loop)."""
    schema = feature_schema([V] * 8)
    cfg = ls.PretrainLossConfig(label_mode=label_mode)
    for seed in range(3):
        model = md.Model.init(md.ModelConfig(), schema, seed)
        tokens = skewed_tokens(model, stream(48, "parts", B, V, seed), B)
        corrupted = fc.corrupt_batch(tokens, build_schedule(8, lo=0.0, hi=0.9),
                                     stream(49, "c", B, V, seed), model.mask_ids,
                                     label_mode=label_mode)
        assert len(parallel.parts(B, parallel.PRETRAIN_PART_ROWS)) == B // 128
        loss, terms, grads = loss_terms_grads(ls.masked_field_losses, model, corrupted, cfg)
        monkeypatch.setattr(parallel, "PRETRAIN_PART_ROWS", B)
        want = loss_terms_grads(ls.masked_field_losses, model, corrupted, cfg)
        monkeypatch.undo()
        got = (np.float64(loss), terms, *(grads[name] for name in want[2]))
        for a, b in zip(got, (np.float64(want[0]), want[1], *want[2].values())):
            assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(b).max())
        if V == 50:
            assert got[0].tobytes() + terms.tobytes() == np.float64(want[0]).tobytes() \
                + want[1].tobytes()


def loss_tape(loss):
    """Every node reachable from loss, each once."""
    seen, work, nodes = {id(loss)}, [loss], []
    while work:
        node = work.pop()
        nodes.append(node)
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                work.append(p)
    return nodes


def kept_arrays(node):
    """Every array node's adjoint keeps, through closure cells, lists and tuples."""
    found, seen = [], set()
    work = [node.vjp]
    while work:
        obj = work.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            work.extend(obj)
        elif getattr(obj, "__closure__", None):
            work.extend(cell.cell_contents for cell in obj.__closure__)
    return found


@pytest.mark.parametrize("vocabs", [(40, 40), (40,) * 8], ids=["P3", "P9"])
def test_one_loss_tape_for_every_field(monkeypatch, vocabs):
    B, d = 32, 8
    model = make_model(blocks=0, d=d, vocabs=vocabs, seed=len(vocabs))  # no attention softmax
    tokens = skewed_tokens(model, stream(46, "tape", len(vocabs)), B)
    corrupted = fc.corrupt_batch(tokens, build_schedule(len(vocabs)), stream(47, "c"),
                                 model.mask_ids, fixed_probs=np.full(len(vocabs) + 1, 0.5))
    fields = np.flatnonzero(corrupted.masked.any(axis=0))
    widths = [2 if k == model.label_position else len(np.unique(tokens[:, k])) for k in fields]
    assert min(widths) < max(widths) and not {1, d} & set(widths)  # padding would show

    made = []
    real = ad.candidate_terms
    monkeypatch.setattr(ad, "candidate_terms", lambda *args: made.append(real(*args)) or made[-1])
    loss, _ = ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig())
    # one part: one loss node for every field, fed by encode's output and one
    # gather per field; join_rows reaches the gathers, not the part's nodes
    (terms,) = [t.node for t in made]
    nodes = list({id(n): n for root in (loss, terms) for n in loss_tape(root)}.values())
    assert terms.shape == (len(fields), B)
    assert [n.op for n in terms.parents[1:]] == ["gather_rows"] * len(fields)
    assert [n.shape for n in terms.parents[1:]] == [(w, d) for w in widths]
    encoded = {id(n) for n in loss_tape(terms.parents[0])}
    assert sorted(n.op for n in nodes if id(n) not in encoded and n.op != "param") \
        == sorted(["smul", "sum", "transpose", "join_rows", "candidate_terms"]
                  + ["gather_rows"] * len(fields))
    # the softmax weights it keeps: one (B, U_k) array per field, none padded
    kept = kept_arrays(terms)
    assert sorted(a.shape[1] for a in kept if a.ndim == 2 and a.shape[0] == B
                  and a.shape[1] not in (1, d)) == sorted(widths)
    assert all(a.shape[0] in (B, len(fields), *widths) for a in kept if a.ndim == 2)
    assert not any(a.ndim == 3 for a in kept)  # encode's output, whose shape alone it reads
    # backward frees interior gradients, so the adjoint records what it returns
    seen = []
    vjp = terms.vjp

    def recorded(g):
        seen.append(vjp(g))
        return seen[-1]

    terms.vjp = recorded
    ad.backward(loss)
    (grads,) = seen
    assert [g.shape for g in grads] == [(B, len(vocabs) + 1, d)] + [(w, d) for w in widths]
    assert all(np.any(g != 0.0) for g in grads)


@untied
def test_candidate_checks_hold_on_the_batched_route(tied):
    model = make_model(blocks=1, vocabs=(4, 4), seed=16)
    clean = make_tokens(model, stream(48, "checks"), 6)
    masked = np.zeros(clean.shape, dtype=bool)
    masked[:, 0] = True
    probs = np.full(clean.shape, 0.5)

    def losses(clean, masked):
        tokens = np.where(masked, model.mask_ids[None, :], clean)
        corrupted = fc.CorruptedBatch(tokens=tokens, masked=masked, mask_probs=probs,
                                      clean_tokens=clean)
        return ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig())

    losses(clean, masked)
    # the mask id as a clean token: no candidate
    bad = clean.copy()
    bad[2, 0] = model.mask_ids[0]
    with pytest.raises(ShapeError, match="out of range for field 'f0'"):
        losses(bad, masked)
    bad_label = clean.copy()
    bad_label[2, -1] = 2
    label_masked = masked.copy()
    label_masked[:, -1] = True
    with pytest.raises(ShapeError, match="out of range for field 'label'"):
        losses(bad_label, label_masked)
    with pytest.raises(DataError, match="no masked field"):
        losses(clean, np.zeros_like(masked))
    with pytest.raises(DataError, match="at least 2"):  # what empties a candidate set
        tokens = np.where(masked, model.mask_ids[None, :], clean)[:1]
        ls.masked_field_losses(model, fc.CorruptedBatch(tokens, masked[:1], probs[:1], clean[:1]),
                               ls.PretrainLossConfig())


def test_loss_tape_never_spans_the_vocabulary():
    # a regression to full-vocabulary logits shows up as a V-row gather
    V, B = 20000, 32
    model = make_model(blocks=1, d=8, vocabs=(V, V), seed=15)
    tokens = make_tokens(model, stream(42, "wide"), B)
    corrupted = fc.corrupt_batch(tokens, build_schedule(2), stream(43, "c"), model.mask_ids,
                                 fixed_probs=np.array([0.9, 0.9, 0.5]))
    loss, _ = ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig())
    targets = {id(model.params[f"embed/target/{f.name}"].node): f.name for f in model.schema[:-1]}
    gathered, seen, work = [], {id(loss)}, [loss]
    while work:
        node = work.pop()
        if node.op == "gather_rows" and id(node.parents[0]) in targets:
            gathered.append(targets[id(node.parents[0])])
            assert node.shape[0] <= B
        if node.op == "logsumexp":
            assert node.parents[0].shape[-1] <= B
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                work.append(p)
    assert sorted(gathered) == ["f0", "f1"]


def test_batch_of_one_rejected():
    model = make_model()
    schedule = build_schedule(2)
    with pytest.raises(DataError, match="at least 2"):
        ls.pretrain_loss(model, np.zeros((1, 3), dtype=np.int64), schedule, stream(0, "x"))


def test_unmasked_field_target_table_gets_zero_gradient():
    model = make_model(blocks=1, vocabs=(3, 3), seed=4)
    rng = stream(26, "z")
    tokens = make_tokens(model, rng, 6)
    schedule = build_schedule(2, lo=0.0, hi=0.9)
    # field 1 never masks; field 0 and the label carry all probability
    corrupted = fc.corrupt_batch(
        tokens, schedule, stream(27, "c"), model.mask_ids,
        fixed_probs=np.array([0.7, 0.0, 0.5]),
    )
    assert not corrupted.masked[:, 1].any()

    def fn(params):
        loss, _ = ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig())
        return loss

    _, grads = ad.forward_backward(fn, model.params)
    np.testing.assert_array_equal(grads["embed/target/f1"], 0.0)
    assert np.any(grads["embed/target/f0"] != 0)


def test_cross_entropy_equals_loss_term_when_candidates_span_the_vocabulary():
    """Two complementary rows make field 0's in-batch candidates its whole
    vocabulary, so each unweighted term is the full-vocabulary cross-entropy."""
    model = make_model(blocks=2, vocabs=(2, 2), seed=7)
    clean = np.array([(0, 1, 1), (1, 0, 0)])
    masked = np.array([[True, False, False], [True, False, False]])
    tokens = np.where(masked, model.mask_ids[None, :], clean)
    corrupted = fc.CorruptedBatch(tokens=tokens, masked=masked, mask_probs=np.full((2, 3), 0.5),
                                  clean_tokens=clean)
    _, terms = ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig(no_diff=True))
    ctx = ad.take_position(md.encode(model, tokens), 0)
    logits = md.field_logits(model, 0, ctx, np.arange(2)).data
    log_q = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(terms[:, 0], -log_q[np.arange(2), clean[:, 0]], rtol=0, atol=1e-9)


class TestSftLoss:
    def test_equal_logits_give_ln_two(self):
        model = make_model(blocks=0, vocabs=(3, 3), seed=9)
        f = model.schema[-1]
        model.params.set_data("embed/target/label", np.tile([0.3, 0.4, 0, 0, 0, 0], (2, 1)))
        tokens = make_tokens(model, stream(28, "s"), 6)
        loss = ls.sft_loss(model, tokens)
        assert abs(loss.item() - np.log(2.0)) < 1e-12

    def test_large_gap_loss(self):
        model = make_model(blocks=0, d=4, vocabs=(3,), temperature=0.2, seed=10)
        pos = np.zeros((2, 4))
        model.params.set_data("embed/field_pos", pos)
        label_input = model.params.get_data("embed/input/label").copy()
        label_input[2] = [1.0, 0, 0, 0]
        model.params.set_data("embed/input/label", label_input)
        rows = np.zeros((2, 4))
        rows[0] = [-1.0, 0, 0, 0]  # cos -1 -> logit -5
        rows[1] = [1.0, 0, 0, 0]   # cos +1 -> logit +5, gap 10
        model.params.set_data("embed/target/label", rows)
        loss = ls.sft_loss(model, np.array([[0, 1]]))
        expected = -np.log(1.0 / (1.0 + np.exp(-10.0)))
        assert abs(loss.item() - expected) < 1e-12
        assert abs(expected - 4.5398899e-05) < 1e-11

    def test_flipping_one_label_changes_only_that_term(self):
        model = make_model(blocks=1, vocabs=(4, 4), seed=11)
        tokens = make_tokens(model, stream(29, "s"), 5)
        base = ls.per_instance_sft_losses(model, tokens)
        flipped = tokens.copy()
        flipped[2, -1] = 1 - flipped[2, -1]
        after = ls.per_instance_sft_losses(model, flipped)
        unchanged = np.delete(np.arange(5), 2)
        np.testing.assert_array_equal(base[unchanged], after[unchanged])
        assert base[2] != after[2]

    def test_non_binary_label_rejected_on_both_routes(self):
        model = make_model(blocks=0, vocabs=(3,), seed=13)
        masked_label = np.array([(0, 1), (1, 2)])  # 2 is the mask id
        with pytest.raises(DataError):
            ls.sft_loss(model, masked_label)
        with pytest.raises(DataError):
            ls.per_instance_sft_losses(model, masked_label)

    def test_field_order_invariance(self):
        model = make_model(blocks=2, d=8, vocabs=(4, 3, 5), seed=12)
        tokens = make_tokens(model, stream(30, "s"), 4)
        masked = tokens.copy()
        lbl = model.label_position
        masked[:, lbl] = model.mask_ids[lbl]
        base_ctx = ad.take_position(md.encode(model, masked), lbl).data
        order = (2, 1, 0, 3)  # features shuffled, label at position 3
        perm_ctx = ad.take_position(md.encode(permuted_model(model, order), masked[:, order]), 3).data
        np.testing.assert_allclose(base_ctx, perm_ctx, atol=1e-12)


def test_label_equivalence_on_random_models():
    worst = 0.0
    for trial in range(20):
        model = make_model(blocks=trial % 3, d=8, vocabs=(4, 3), seed=100 + trial)
        tokens = make_tokens(model, stream(31, "eq", trial), 10)
        worst = max(worst, ls.verify_label_equivalence(model, tokens))
    assert worst < 1e-9


def test_grad_check_through_both_losses():
    # temperature 1 keeps every softmax weight above e^-2, so no gradient
    # entry sinks into central-difference noise
    model = make_model(blocks=1, d=4, vocabs=(3, 2), seed=13, temperature=1.0)
    rng = stream(32, "gc")
    tokens = make_tokens(model, rng, 4)
    schedule = build_schedule(2, lo=0.1, hi=0.9)
    corrupted = fc.corrupt_batch(tokens, schedule, stream(33, "c"), model.mask_ids)

    def pretrain_fn(params):
        loss, _ = ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig())
        return loss

    reports = ad.grad_check(pretrain_fn, model.params, h=1e-5, tol=1e-5)
    assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports if not r.passed]

    def sft_fn(params):
        return ls.sft_loss(model, tokens)

    reports = ad.grad_check(sft_fn, model.params, h=1e-5, tol=1e-5)
    assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports if not r.passed]


def test_pretrain_loss_deterministic():
    model = make_model(blocks=1, vocabs=(3, 3), seed=14)
    tokens = make_tokens(model, stream(34, "d"), 6)
    schedule = build_schedule(2, lo=0.0, hi=0.9)
    a = ls.pretrain_loss(model, tokens, schedule, stream(35, "c"), ls.PretrainLossConfig())
    b = ls.pretrain_loss(model, tokens, schedule, stream(35, "c"), ls.PretrainLossConfig())
    assert a.item() == b.item()


def test_direct_loss_overflow_raises_numeric_error_without_warning():
    # at 1e-308 the cosine logits reach 1e308, and their terms overflow
    model = make_model(blocks=0, vocabs=(4, 4), temperature=1e-308)
    tokens = make_tokens(model, stream(49, "overflow"), 8)
    corrupted = fc.corrupt_batch(tokens, build_schedule(2), stream(50, "c"), model.mask_ids,
                                 fixed_probs=np.full(3, 0.9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig())


def overflowing_model():
    """Temperature 1e-308 with antiparallel label targets: the click logit gap is 2e308."""
    model = make_model(blocks=0, vocabs=(3, 2), temperature=1e-308)
    lbl = model.schema[-1]
    ctx = (model.params.get_data(f"embed/input/{lbl.name}")[lbl.vocab_size]
           + model.params.get_data("embed/field_pos")[lbl.index])
    model.params.set_data(f"embed/target/{lbl.name}", np.stack([-ctx, ctx]))
    return model


@pytest.mark.parametrize("route", ["sft", "pretrain", "score"])
def test_overflow_raises_numeric_error_before_any_warning(route):
    # pytest turns RuntimeWarning into an error, so a warning ahead of the
    # finiteness check would fail this test instead of raising NumericError
    model = overflowing_model()
    tokens = make_tokens(model, stream(40, "overflow"), 8)
    schedule = build_schedule(2, lo=0.5, hi=0.9, label_lo=0.9, label_hi=0.99)

    def fn(params):
        if route == "sft":
            return ls.sft_loss(model, tokens)
        return ls.pretrain_loss(model, tokens, schedule, stream(41, "c"), ls.PretrainLossConfig())

    with pytest.raises(NumericError):
        if route == "score":
            md.ctr_score(model, tokens)
        else:
            ad.forward_backward(fn, model.params)
