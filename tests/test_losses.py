import numpy as np
import pytest

from diffctr import autodiff as ad
from diffctr import corruption as fc
from diffctr import losses as ls
from diffctr import model as md
from diffctr.data import feature_schema
from diffctr.errors import DataError
from diffctr.rng import stream
from diffctr.schedule import build_schedule


def make_model(blocks=0, d=6, vocabs=(2, 2), seed=0, temperature=0.1):
    cfg = md.ModelConfig(embed_dim=d, blocks=blocks, heads=2, ffn_width=8,
                         temperature=temperature)
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
            if cfg.weight_by_mask_prob:
                w = 1.0 / max(corrupted.mask_probs[i, k], cfg.mask_prob_floor)
            total += w * ce
    return total / B


@pytest.mark.parametrize("trial", range(5))
def test_pretrain_loss_matches_straight_line_oracle(trial):
    model = make_model(blocks=0, vocabs=(2, 2), seed=trial)
    rng = stream(20, "oracle", trial)
    tokens = make_tokens(model, rng, 6)
    schedule = build_schedule(2, lo=0.1, hi=0.9, horizon=50)
    cfg = ls.PretrainLossConfig()
    corrupted = fc.corrupt_batch(tokens, schedule, stream(21, "c", trial), model.mask_ids)
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
    on, _ = ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig(weight_by_mask_prob=True))
    off, _ = ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig(weight_by_mask_prob=False))
    assert abs(on.item() - 2.0 * off.item()) < 1e-12


def test_duplicate_positive_collapses_candidates():
    # every instance carries the same token in field 0: no usable negatives
    model = make_model(blocks=0, vocabs=(4, 4), seed=2)
    tokens = np.array([(2, i % 4, i % 2) for i in range(5)])
    schedule = build_schedule(2, lo=0.0, hi=0.9)
    corrupted = fc.corrupt_batch(
        tokens, schedule, stream(24, "c"), model.mask_ids, fixed_probs=np.array([0.8, 0.0, 0.0])
    )
    _, terms = ls.masked_field_losses(
        model, corrupted, ls.PretrainLossConfig(weight_by_mask_prob=False)
    )
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
    _, terms = ls.masked_field_losses(
        model, corrupted, ls.PretrainLossConfig(weight_by_mask_prob=False)
    )
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
        1.0 / np.maximum(corrupted.mask_probs, cfg.mask_prob_floor)
        if cfg.weight_by_mask_prob
        else 1.0,
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
        logits = md.full_vocab_logits(model, k, ad.take_position(ctx_all, k))
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

    def fn(params, _):
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
    for label_mode in ("diffuse", "drop", "always-mask"):
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


def test_loss_tape_never_spans_the_vocabulary():
    # a regression to full-vocabulary logits shows up as a V-row gather
    V, B = 20000, 32
    model = make_model(blocks=1, d=8, vocabs=(V, V), seed=15)
    tokens = make_tokens(model, stream(42, "wide"), B)
    corrupted = fc.corrupt_batch(tokens, build_schedule(2), stream(43, "c"), model.mask_ids,
                                 fixed_probs=np.array([0.9, 0.9, 0.5]))
    loss, _ = ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig())
    targets = {id(model.params[f"embed/target/{f.name}"]): f.name for f in model.schema[:-1]}
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

    def fn(params, _):
        loss, _ = ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig())
        return loss

    _, grads = ad.forward_backward(fn, model.params)
    np.testing.assert_array_equal(grads["embed/target/f1"], 0.0)
    assert np.any(grads["embed/target/f0"] != 0)


class TestScoreEntropyOracle:
    def test_perfect_prediction_zero_term(self):
        model = make_model(blocks=0, vocabs=(2, 2), seed=5)
        # force q(true) = 1 is impossible with cosines, so check the formula at h3=1, q=1
        term = ls.ScoreEntropyTerm(0, outer_weight=1.0, h3=1.0, q_true=1.0,
                                   cross_entropy=0.0, total=-1.0 * 1.0 * np.log(1.0))
        assert term.total == 0.0

    def test_outer_weight_linear_in_slope(self):
        model = make_model(blocks=0, vocabs=(3, 3), seed=6)
        row = np.array([1, 2, 0])
        a = ls.score_entropy_oracle(model, row, (0,), np.array([0.5, 0, 0]), np.array([1.0, 1, 1]))
        b = ls.score_entropy_oracle(model, row, (0,), np.array([1.0, 0, 0]), np.array([1.0, 1, 1]))
        assert abs(b[0].outer_weight - 2 * a[0].outer_weight) < 1e-15
        assert a[0].q_true == b[0].q_true  # cumulative rate unchanged

    def test_cross_entropy_part_matches_pretrain_integrand(self):
        model = make_model(blocks=0, vocabs=(2, 2), seed=7)
        # batch of two complementary instances: in-batch candidates = full vocab
        clean = np.array([(0, 1, 1), (1, 0, 0)])
        masked = np.array([[True, False, False], [True, False, False]])
        probs = np.full((2, 3), 0.5)
        tokens = np.where(masked, model.mask_ids[None, :], clean)
        corrupted = fc.CorruptedBatch(tokens=tokens, masked=masked, mask_probs=probs, clean_tokens=clean)
        _, terms = ls.masked_field_losses(
            model, corrupted, ls.PretrainLossConfig(weight_by_mask_prob=False)
        )
        for i, row in enumerate(clean):
            oracle = ls.score_entropy_oracle(
                model, row, (0,), np.array([1.0, 1, 1]), np.array([np.log(2.0), 1, 1])
            )
            assert abs(oracle[0].cross_entropy - terms[i, 0]) < 1e-9

    def test_vocab_limit(self):
        model = make_model(blocks=0, vocabs=(100, 2), seed=8)
        with pytest.raises(DataError):
            ls.score_entropy_oracle(model, np.zeros(3, dtype=np.int64), (0,), np.ones(3),
                                    np.ones(3))


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
        perm_ctx = ad.take_position(md.encode(model, masked, order=order), 3).data
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

    def pretrain_fn(params, _):
        loss, _ = ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig())
        return loss

    reports = ad.grad_check(pretrain_fn, model.params, h=1e-5, tol=1e-5)
    assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports if not r.passed]

    def sft_fn(params, _):
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
