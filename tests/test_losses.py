import numpy as np
import pytest

from diffctr import autodiff as ad
from diffctr import corruption as fc
from diffctr import losses as ls
from diffctr import model as md
from diffctr.data import Sample, feature_schema
from diffctr.errors import DataError
from diffctr.rng import stream
from diffctr.schedule import build_schedule


def make_model(blocks=0, d=6, vocabs=(2, 2), seed=0, temperature=0.1):
    cfg = md.ModelConfig(embed_dim=d, blocks=blocks, heads=2, ffn_width=8,
                         temperature=temperature)
    return md.Model.init(cfg, feature_schema(list(vocabs)), seed)


def make_samples(model, rng, n):
    out = []
    for _ in range(n):
        toks = tuple(int(rng.integers(f.vocab_size)) for f in model.schema)
        out.append(Sample(tokens=toks))
    return out


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
    samples = make_samples(model, rng, 6)
    schedule = build_schedule(2, lo=0.1, hi=0.9, horizon=50)
    cfg = ls.PretrainLossConfig()
    corrupted = fc.corrupt_batch(samples, schedule, stream(21, "c", trial), model.mask_ids)
    loss, _ = ls.masked_field_losses(model, corrupted, cfg)
    oracle = straight_line_loss(model, corrupted, cfg)
    assert abs(loss.item() - oracle) < 1e-9


def test_weighting_factor_two_at_half_probability():
    model = make_model(blocks=1, vocabs=(3, 3), seed=1)
    rng = stream(22, "w")
    samples = make_samples(model, rng, 8)
    schedule = build_schedule(2, lo=0.0, hi=0.9)
    corrupted = fc.corrupt_batch(
        samples, schedule, stream(23, "c"), model.mask_ids, fixed_probs=np.full(3, 0.5)
    )
    on, _ = ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig(weight_by_mask_prob=True))
    off, _ = ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig(weight_by_mask_prob=False))
    assert abs(on.item() - 2.0 * off.item()) < 1e-12


def test_duplicate_positive_collapses_candidates():
    # every instance carries the same token in field 0: no usable negatives
    model = make_model(blocks=0, vocabs=(4, 4), seed=2)
    samples = [Sample(tokens=(2, i % 4, i % 2)) for i in range(5)]
    schedule = build_schedule(2, lo=0.0, hi=0.9)
    corrupted = fc.corrupt_batch(
        samples, schedule, stream(24, "c"), model.mask_ids, fixed_probs=np.array([0.8, 0.0, 0.0])
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
    samples = [Sample(tokens=(i, i, i % 2)) for i in range(5)]  # distinct tokens in f0
    schedule = build_schedule(2, lo=0.0, hi=0.9)
    corrupted = fc.corrupt_batch(
        samples, schedule, stream(25, "c"), model.mask_ids, fixed_probs=np.array([0.9, 0.0, 0.0])
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
        got = ls._candidate_mask(col, V, max_negatives)
        np.testing.assert_array_equal(got, candidate_reference(col, V, max_negatives))


def test_batch_of_one_rejected():
    model = make_model()
    schedule = build_schedule(2)
    with pytest.raises(DataError, match="at least 2"):
        ls.pretrain_loss(model, [Sample(tokens=(0, 0, 0))], schedule, stream(0, "x"))


def test_unmasked_field_target_table_gets_zero_gradient():
    model = make_model(blocks=1, vocabs=(3, 3), seed=4)
    rng = stream(26, "z")
    samples = make_samples(model, rng, 6)
    schedule = build_schedule(2, lo=0.0, hi=0.9)
    # field 1 never masks; field 0 and the label carry all probability
    corrupted = fc.corrupt_batch(
        samples, schedule, stream(27, "c"), model.mask_ids,
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
        s = Sample(tokens=(1, 2, 0))
        a = ls.score_entropy_oracle(model, s, (0,), np.array([0.5, 0, 0]), np.array([1.0, 1, 1]))
        b = ls.score_entropy_oracle(model, s, (0,), np.array([1.0, 0, 0]), np.array([1.0, 1, 1]))
        assert abs(b[0].outer_weight - 2 * a[0].outer_weight) < 1e-15
        assert a[0].q_true == b[0].q_true  # cumulative rate unchanged

    def test_cross_entropy_part_matches_pretrain_integrand(self):
        model = make_model(blocks=0, vocabs=(2, 2), seed=7)
        # batch of two complementary instances: in-batch candidates = full vocab
        samples = [Sample(tokens=(0, 1, 1)), Sample(tokens=(1, 0, 0))]
        masked = np.array([[True, False, False], [True, False, False]])
        probs = np.full((2, 3), 0.5)
        clean = np.array([s.tokens for s in samples])
        tokens = np.where(masked, model.mask_ids[None, :], clean)
        corrupted = fc.CorruptedBatch(tokens=tokens, masked=masked, mask_probs=probs, clean_tokens=clean)
        _, terms = ls.masked_field_losses(
            model, corrupted, ls.PretrainLossConfig(weight_by_mask_prob=False)
        )
        for i, s in enumerate(samples):
            oracle = ls.score_entropy_oracle(
                model, s, (0,), np.array([1.0, 1, 1]), np.array([np.log(2.0), 1, 1])
            )
            assert abs(oracle[0].cross_entropy - terms[i, 0]) < 1e-9

    def test_vocab_limit(self):
        model = make_model(blocks=0, vocabs=(100, 2), seed=8)
        with pytest.raises(DataError):
            ls.score_entropy_oracle(model, Sample(tokens=(0, 0, 0)), (0,), np.ones(3), np.ones(3))


class TestSftLoss:
    def test_equal_logits_give_ln_two(self):
        model = make_model(blocks=0, vocabs=(3, 3), seed=9)
        f = model.schema[-1]
        model.params.set_data("embed/target/label", np.tile([0.3, 0.4, 0, 0, 0, 0], (2, 1)))
        samples = make_samples(model, stream(28, "s"), 6)
        loss = ls.sft_loss(model, samples)
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
        loss = ls.sft_loss(model, [Sample(tokens=(0, 1))])
        expected = -np.log(1.0 / (1.0 + np.exp(-10.0)))
        assert abs(loss.item() - expected) < 1e-12
        assert abs(expected - 4.5398899e-05) < 1e-11

    def test_flipping_one_label_changes_only_that_term(self):
        model = make_model(blocks=1, vocabs=(4, 4), seed=11)
        samples = make_samples(model, stream(29, "s"), 5)
        base = ls.per_instance_sft_losses(model, samples)
        flipped = [Sample(tokens=s.tokens) for s in samples]
        flipped[2] = Sample(tokens=flipped[2].tokens[:-1] + (1 - flipped[2].tokens[-1],))
        after = ls.per_instance_sft_losses(model, flipped)
        unchanged = np.delete(np.arange(5), 2)
        np.testing.assert_array_equal(base[unchanged], after[unchanged])
        assert base[2] != after[2]

    def test_non_binary_label_rejected_on_both_routes(self):
        model = make_model(blocks=0, vocabs=(3,), seed=13)
        masked_label = [Sample(tokens=(0, 1)), Sample(tokens=(1, 2))]  # 2 is the mask id
        with pytest.raises(DataError):
            ls.sft_loss(model, masked_label)
        with pytest.raises(DataError):
            ls.per_instance_sft_losses(model, masked_label)

    def test_field_order_invariance(self):
        model = make_model(blocks=2, d=8, vocabs=(4, 3, 5), seed=12)
        samples = make_samples(model, stream(30, "s"), 4)
        tokens = np.array([s.tokens for s in samples])
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
        samples = make_samples(model, stream(31, "eq", trial), 10)
        worst = max(worst, ls.verify_label_equivalence(model, samples))
    assert worst < 1e-9


def test_grad_check_through_both_losses():
    # temperature 1 keeps every softmax weight above e^-2, so no gradient
    # entry sinks into central-difference noise
    model = make_model(blocks=1, d=4, vocabs=(3, 2), seed=13, temperature=1.0)
    rng = stream(32, "gc")
    samples = make_samples(model, rng, 4)
    schedule = build_schedule(2, lo=0.1, hi=0.9)
    corrupted = fc.corrupt_batch(samples, schedule, stream(33, "c"), model.mask_ids)

    def pretrain_fn(params, _):
        loss, _ = ls.masked_field_losses(model, corrupted, ls.PretrainLossConfig())
        return loss

    reports = ad.grad_check(pretrain_fn, model.params, h=1e-5, tol=1e-5)
    assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports if not r.passed]

    def sft_fn(params, _):
        return ls.sft_loss(model, samples)

    reports = ad.grad_check(sft_fn, model.params, h=1e-5, tol=1e-5)
    assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports if not r.passed]


def test_pretrain_loss_deterministic():
    model = make_model(blocks=1, vocabs=(3, 3), seed=14)
    samples = make_samples(model, stream(34, "d"), 6)
    schedule = build_schedule(2, lo=0.0, hi=0.9)
    a = ls.pretrain_loss(model, samples, schedule, stream(35, "c"), ls.PretrainLossConfig())
    b = ls.pretrain_loss(model, samples, schedule, stream(35, "c"), ls.PretrainLossConfig())
    assert a.item() == b.item()
