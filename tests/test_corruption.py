import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from diffctr import corruption as fc
from diffctr.errors import DataError
from diffctr.rng import stream
from diffctr.schedule import build_schedule


def mask_ids_for(vocab_sizes):
    return np.array(vocab_sizes, dtype=np.int64)


def corrupt_rows(tokens, probs, rng, ids, label_mode="diffuse", n=1):
    """n copies of one token row through corrupt_batch at fixed per-field probabilities."""
    return fc.corrupt_batch(np.tile(np.array(tokens, dtype=np.int64), (n, 1)), None, rng, ids,
                            label_mode, fixed_probs=probs)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(B=st.integers(1, 12), P=st.integers(1, 6), label_mode=st.sampled_from(fc.LABEL_MODES),
       data=st.data())
def test_corrupt_batch_keeps_its_invariants(B, P, label_mode, data):
    """Every row masks a loss-eligible field, drop masks every label, and each
    token is the clean one where unmasked and the field's mask id where masked."""
    probs = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.0, 0.2, 0.5, 0.95]),
                                        min_size=P, max_size=P), label="probs"))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    vocabs = rng.integers(1, 6, size=P)
    clean = rng.integers(vocabs, size=(B, P))
    if P == 1 and label_mode == "drop":  # a label alone earns no term
        with pytest.raises(DataError, match="no position"):
            fc.corrupt_batch(clean, None, rng, vocabs, label_mode, fixed_probs=probs)
        return
    out = fc.corrupt_batch(clean, None, rng, vocabs, label_mode, fixed_probs=probs)
    eligible = fc.loss_positions(P, label_mode)
    assert np.all((out.masked & eligible).any(axis=1))
    assert not np.any(out.masked[:, :-1] & ~eligible[:-1])
    if label_mode == "drop":
        assert np.all(out.masked[:, -1])
    assert np.array_equal(out.tokens[~out.masked], clean[~out.masked])
    assert np.array_equal(out.tokens[out.masked], np.broadcast_to(vocabs, (B, P))[out.masked])
    assert np.array_equal(out.clean_tokens, clean) and np.array_equal(out.mask_probs[0], probs)


class TestCorrupt:
    vocab = (4, 4, 4, 2)  # three features + binary label

    def test_all_zero_probs_forces_exactly_one(self):
        out = corrupt_rows((1, 2, 3, 1), np.zeros(4), stream(0, "c"), mask_ids_for(self.vocab))
        assert out.masked.sum() == 1

    def test_near_one_probs_mask_everything(self):
        out = corrupt_rows((1, 2, 3, 1), np.full(4, 1 - 1e-9), stream(1, "c"),
                           mask_ids_for(self.vocab))
        assert out.masked.all()
        assert tuple(out.tokens[0]) == (4, 4, 4, 2)

    def test_mask_consistency_invariant(self):
        clean = (0, 1, 2, 0)
        out = corrupt_rows(clean, np.full(4, 0.5), stream(2, "c"), mask_ids_for(self.vocab), n=200)
        expect = np.where(out.masked, np.array(self.vocab)[None, :], np.array(clean)[None, :])
        np.testing.assert_array_equal(out.tokens, expect)
        np.testing.assert_array_equal(out.clean_tokens, np.tile(clean, (200, 1)))

    def test_monte_carlo_mask_rate(self):
        # 10 fields at probability one half, checked against the closed form
        vocab = (3,) * 9 + (2,)
        n = 10**5
        out = corrupt_rows((0,) * 10, np.full(10, 0.5), stream(3, "mc"), mask_ids_for(vocab), n=n)
        counts = out.masked.sum(axis=0)
        sigma = np.sqrt(0.25 / n)
        # force-masking nudges rates upward by at most P(nothing drawn) = 2^-10
        assert np.all(np.abs(counts / n - 0.5) < 4 * sigma + 2.0**-10)

    def test_label_modes(self):
        s = (1, 2, 3, 1)
        ids = mask_ids_for(self.vocab)
        probs = np.array([0.5, 0.5, 0.5, 0.5])
        rng = stream(4, "modes")
        drop = corrupt_rows(s, probs, rng, ids, label_mode="drop")
        assert drop.tokens[0, 3] == 2 and drop.masked[0, 3]
        assert not fc.loss_positions(4, "drop")[3]
        assert fc.loss_positions(4, "diffuse")[3]

    def test_invalid_probs_rejected(self):
        ids = mask_ids_for(self.vocab)
        with pytest.raises(DataError):
            corrupt_rows((0, 0, 0, 0), np.full(4, 1.0), stream(0, "x"), ids)
        with pytest.raises(DataError):
            corrupt_rows((0, 0, 0, 0), np.full(4, -0.1), stream(0, "x"), ids)
        with pytest.raises(DataError):
            corrupt_rows((0, 0, 0, 0), np.full(3, 0.5), stream(0, "x"), ids)

    def test_nan_probs_rejected(self):
        with pytest.raises(DataError, match=r"^mask probabilities must lie in \[0, 1\)$"):
            fc.corrupt_batch(np.zeros((3, 3), dtype=np.int64), None, stream(0, "x"),
                             mask_ids_for((2, 2, 2)), fixed_probs=[np.nan] * 3)


class TestKernels:
    def test_zero_rate_is_identity(self):
        k = fc.exact_kernel(5, 0.0)
        np.testing.assert_allclose(k.matrix, np.eye(6), atol=1e-15)

    def test_log_two_rate_closed_form(self):
        k = fc.closed_kernel(3, np.log(2.0))
        assert abs(k.matrix[0, 0] - 0.5) < 1e-15
        assert abs(k.matrix[1, 3] - 0.5) < 1e-15
        np.testing.assert_allclose(k.matrix[3], [0, 0, 0, 1], atol=0)

    @pytest.mark.parametrize("vocab", [1, 2, 8, 16])
    @pytest.mark.parametrize("rate", [0.0, 0.1, np.log(2.0), 2.3, 10.0])
    def test_series_matches_closed_form(self, vocab, rate):
        series = fc.exact_kernel(vocab, rate).matrix
        closed = fc.closed_kernel(vocab, rate).matrix
        assert np.max(np.abs(series - closed)) < 1e-10

    def test_series_matches_scipy_expm(self):
        rate = 2.3
        series = fc.exact_kernel(8, rate).matrix
        reference = scipy.linalg.expm(rate * fc.absorbing_generator(8))
        assert np.max(np.abs(series - reference)) < 1e-10


def random_joint(rng, shape):
    p = rng.random(shape)
    return p / p.sum()


class TestJointMarginal:
    def test_zero_rates_reproduce_p0(self):
        rng = stream(5, "joint")
        p0 = random_joint(rng, (3, 2))
        out = fc.joint_marginal_oracle(p0, np.zeros(2))
        np.testing.assert_allclose(out[:3, :2], p0, atol=1e-15)
        assert out[3, :].sum() == 0 and out[:, 2].sum() == 0

    def test_fully_masked_state_probability(self):
        rng = stream(6, "joint")
        p0 = random_joint(rng, (2, 3, 2))
        rates = np.array([0.3, 1.1, 2.0])
        out = fc.joint_marginal_oracle(p0, rates)
        expected = np.prod(1.0 - np.exp(-rates))
        assert abs(out[2, 3, 2] - expected) < 1e-15

    @pytest.mark.parametrize("trial", range(20))
    def test_matches_chain_enumeration(self, trial):
        rng = stream(7, "joint", trial)
        ndim = 2 if trial % 2 == 0 else 3
        shape = tuple(rng.integers(2, 5, size=ndim))
        p0 = random_joint(rng, shape)
        rates = rng.uniform(0.05, 3.0, size=ndim)
        oracle = fc.joint_marginal_oracle(p0, rates)
        chain = fc.chain_marginal(p0, rates, steps=2 + trial % 3)
        tv = 0.5 * np.abs(oracle - chain).sum()
        assert tv < 1e-9
        assert abs(oracle.sum() - 1.0) < 1e-12

    def test_mask_marginals_independent_of_p0(self):
        rng = stream(8, "joint")
        rates = np.array([0.7, 1.3])
        for _ in range(5):
            p0 = random_joint(rng, (4, 3))
            out = fc.joint_marginal_oracle(p0, rates)
            mask_rate_0 = out[4, :].sum()
            assert abs(mask_rate_0 - (1 - np.exp(-rates[0]))) < 1e-12

    def test_unnormalized_p0_rejected(self):
        with pytest.raises(DataError):
            fc.joint_marginal_oracle(np.ones((2, 2)), np.ones(2))


class TestChainSimulator:
    def test_never_unmasks(self):
        rng = stream(9, "chain")
        vocab = (3, 3, 2)
        for _ in range(200):
            path = fc.simulate_chain((1, 2, 1), vocab, np.array([1.0, 2.0, 0.5]), 8, rng)
            for before, after in zip(path, path[1:]):
                for k, v in enumerate(vocab):
                    if before[k] == v:
                        assert after[k] == v


class TestScoreRatio:
    def test_empty_proposal_is_identity(self):
        rng = stream(10, "ratio")
        p0 = random_joint(rng, (3, 3))
        res = fc.score_ratio_oracle(p0, np.array([0.5, 0.9]), (3, 1), {})
        assert res.direct_ratio == 1.0 and res.product_form == 1.0

    def test_independent_p0_reduces_to_marginal(self):
        rng = stream(11, "ratio")
        a = rng.random(3); a /= a.sum()
        b = rng.random(4); b /= b.sum()
        p0 = np.outer(a, b)
        rates = np.array([0.8, 1.4])
        res = fc.score_ratio_oracle(p0, rates, (3, 4), {0: 1})
        assert abs(res.joint_conditional - a[1]) < 1e-12
        assert abs(res.direct_ratio - res.product_form) < 1e-12

    def test_correlated_two_field_conditional(self):
        p0 = np.array([[0.4, 0.1], [0.1, 0.4]])
        rates = np.array([1.0, 1.0])
        # field 1 masked, field 0 observed as token 0; propose token 0 for field 1
        res = fc.score_ratio_oracle(p0, rates, (0, 2), {1: 0})
        assert abs(res.joint_conditional - 0.8) < 1e-12

    @pytest.mark.parametrize("trial", range(25))
    def test_direct_equals_product_form(self, trial):
        rng = stream(12, "ratio", trial)
        ndim = int(rng.integers(2, 4))
        shape = tuple(rng.integers(2, 5, size=ndim))
        p0 = random_joint(rng, shape)
        rates = rng.uniform(0.2, 2.5, size=ndim)
        masked = sorted(rng.choice(ndim, size=int(rng.integers(1, ndim + 1)), replace=False))
        state = tuple(
            shape[k] if k in masked else int(rng.integers(shape[k])) for k in range(ndim)
        )
        n_prop = int(rng.integers(1, len(masked) + 1))
        prop_fields = list(rng.choice(masked, size=n_prop, replace=False))
        proposal = {int(k): int(rng.integers(shape[k])) for k in prop_fields}
        res = fc.score_ratio_oracle(p0, rates, state, proposal)
        rel = abs(res.direct_ratio - res.product_form) / max(abs(res.direct_ratio), 1e-30)
        assert rel < 1e-9

    def test_single_field_naive_product_agrees(self):
        rng = stream(13, "ratio")
        p0 = random_joint(rng, (3, 3, 2))
        res = fc.score_ratio_oracle(p0, np.array([1.0, 0.5, 0.7]), (3, 1, 2), {0: 2})
        assert abs(res.naive_product - res.product_form) < 1e-12

    def test_conditional_invariant_across_rates(self):
        rng = stream(14, "ratio")
        p0 = random_joint(rng, (4, 3))
        state = (4, 1)
        conds = []
        for rates in (np.array([0.3, 0.3]), np.array([1.0, 2.0]), np.array([4.0, 0.1])):
            res = fc.score_ratio_oracle(p0, rates, state, {0: 2})
            conds.append(res.direct_ratio / res.rate_factor)
        assert max(conds) - min(conds) < 1e-9
        assert abs(conds[0] - fc.score_ratio_oracle(p0, np.ones(2), state, {0: 2}).joint_conditional) < 1e-9

    def test_non_unmasking_proposal_rejected(self):
        rng = stream(15, "ratio")
        p0 = random_joint(rng, (3, 3))
        with pytest.raises(DataError):
            fc.score_ratio_oracle(p0, np.ones(2), (0, 3), {0: 1})
