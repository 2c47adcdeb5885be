import numpy as np
import pytest
import scipy.optimize

from diffctr import metrics as mt
from diffctr.errors import DataError
from diffctr.rng import stream


def ex(scores, labels, sessions=None):
    """Metric inputs as parallel arrays: (scores, labels[, sessions])."""
    arrays = (np.asarray(scores, dtype=np.float64), np.asarray(labels))
    return arrays if sessions is None else arrays + (np.asarray(sessions),)


def concat(parts):
    return tuple(np.concatenate(cols) for cols in zip(*parts))


class TestAuc:
    def test_perfect_separation(self):
        assert mt.auc(*ex([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])) == 1.0

    def test_all_ties_give_half(self):
        assert mt.auc(*ex([0.3] * 6, [0, 1, 0, 1, 0, 1])) == 0.5

    def test_worked_example_with_tie(self):
        got = mt.auc(*ex([0.1, 0.4, 0.4, 0.8], [0, 0, 1, 1]))
        assert abs(got - 0.875) < 1e-15

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            mt.auc(*ex([0.1, 0.2], [1, 1]))

    def test_invariant_under_monotone_transform(self):
        rng = stream(1, "auc")
        scores = rng.random(300)
        labels = (rng.random(300) < 0.4).astype(int)
        base = mt.auc(*ex(scores, labels))
        squashed = mt.auc(*ex(1 / (1 + np.exp(-7 * scores)), labels))
        assert abs(base - squashed) < 1e-15

    @pytest.mark.parametrize("trial", range(30))
    def test_matches_pairwise_oracle(self, trial):
        rng = stream(2, "auc", trial)
        n = int(rng.integers(5, 400))
        # coarse grid forces plenty of ties
        scores = np.round(rng.random(n), 2)
        labels = (rng.random(n) < 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert abs(mt.auc(*ex(scores, labels)) - mt.auc_pairwise(*ex(scores, labels))) < 1e-12


class TestLogloss:
    def test_half_scores(self):
        assert abs(mt.logloss(*ex([0.5, 0.5], [0, 1])) - np.log(2)) < 1e-15

    def test_exact_predictions_hit_clip_floor(self):
        got = mt.logloss(*ex([0.0, 1.0], [0, 1]))
        assert got == pytest.approx(-np.log(1 - mt.LOGLOSS_CLIP), abs=1e-12)

    def test_worked_example(self):
        got = mt.logloss(*ex([0.9, 0.2], [1, 0]))
        assert abs(got - (-np.log(0.9) - np.log(0.8)) / 2) < 1e-15

    def test_base_rate_minimizes_constant_predictor(self):
        rng = stream(3, "ll")
        labels = (rng.random(500) < 0.3).astype(int)

        def loss_at(c):
            return mt.logloss(*ex(np.full(500, c), labels))

        res = scipy.optimize.minimize_scalar(loss_at, bounds=(0.01, 0.99), method="bounded")
        assert abs(res.x - labels.mean()) < 1e-4


class TestGauc:
    def test_single_valid_session(self):
        scores = [0.2, 0.9, 0.5, 0.1]
        labels = [0, 1, 1, 0]
        sessions = ["a"] * 4
        assert mt.gauc_pv(*ex(scores, labels, sessions)) == mt.auc(*ex(scores, labels))

    def test_two_sessions_weighted(self):
        scores = [0.1, 0.2, 0.8, 0.9, 0.5, 0.5, 0.5, 0.5]
        labels = [0, 0, 1, 1, 0, 1, 0, 1]
        sessions = ["a"] * 4 + ["b"] * 4
        # session a has AUC 1.0, session b all ties -> 0.5, equal impressions
        assert abs(mt.gauc_pv(*ex(scores, labels, sessions)) - 0.75) < 1e-15

    def test_single_class_sessions_excluded(self):
        scores = [0.9, 0.8, 0.1, 0.9]
        labels = [1, 1, 0, 1]
        sessions = ["only-pos", "only-pos", "both", "both"]
        assert mt.gauc_pv(*ex(scores, labels, sessions)) == 1.0

    def test_no_valid_session_rejected(self):
        with pytest.raises(DataError):
            mt.gauc_pv(*ex([0.1, 0.9], [0, 1], ["a", "b"]))

    def test_lies_between_session_aucs(self):
        rng = stream(4, "g")
        parts = []
        per_session_auc = []
        for s in range(12):
            n = int(rng.integers(4, 40))
            scores = rng.random(n)
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            parts.append(ex(scores, labels, [f"s{s}"] * n))
            per_session_auc.append(mt.auc(scores, labels))
        g = mt.gauc_pv(*concat(parts))
        assert min(per_session_auc) - 1e-12 <= g <= max(per_session_auc) + 1e-12

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_pairwise_oracle(self, trial):
        rng = stream(5, "g", trial)
        parts = []
        for s in range(50):
            n = int(rng.integers(2, 30))
            scores = np.round(rng.random(n), 1)
            labels = (rng.random(n) < 0.4).astype(int)
            parts.append(ex(scores, labels, [f"s{s}"] * n))
        examples = concat(parts)
        try:
            got = mt.gauc_pv(*examples)
        except DataError:
            return
        assert abs(got - mt.gauc_pv_pairwise(*examples)) < 1e-12


class TestInputs:
    def test_mismatched_lengths_rejected(self):
        scores, labels, sessions = ex([0.1, 0.9, 0.4], [0, 1, 1], ["a", "a", "b"])
        with pytest.raises(DataError):
            mt.auc(scores, labels[:2])
        with pytest.raises(DataError):
            mt.logloss(scores[:2], labels)
        with pytest.raises(DataError):
            mt.auc_pairwise(scores, labels[:1])
        with pytest.raises(DataError):
            mt.gauc_pv(scores, labels, sessions[:2])
        with pytest.raises(DataError):
            mt.gauc_pv_pairwise(scores, labels, sessions[:2])

    def test_missing_session_rejected(self):
        with pytest.raises(DataError):
            mt.gauc_pv(*ex([0.1, 0.9], [0, 1], np.array(["a", None], dtype=object)))

    def test_non_binary_labels_rejected(self):
        with pytest.raises(DataError):
            mt.auc(*ex([0.1, 0.9], [0, 0.5]))


def test_mann_whitney_obvious_cases():
    low = [0.1, 0.11, 0.12, 0.13, 0.14]
    high = [0.9, 0.91, 0.92, 0.93, 0.94]
    assert mt.mann_whitney_p(low, high) < 0.02
    assert mt.mann_whitney_p(low, low) > 0.5


def test_report_includes_gauc_only_with_sessions():
    from diffctr.data import Dataset, Sample, feature_schema

    schema = feature_schema([3])
    with_sessions = Dataset(
        schema=schema,
        samples=[
            Sample(tokens=(0, 1), session_id="a"),
            Sample(tokens=(1, 0), session_id="a"),
            Sample(tokens=(2, 1), session_id="b"),
            Sample(tokens=(2, 0), session_id="b"),
        ],
        split="test",
    )
    scores = np.array([0.8, 0.3, 0.7, 0.2])
    rep = mt.report_for(scores, with_sessions, "test")
    assert rep.gauc_pv is not None and 0 <= rep.gauc_pv <= 1
    without = Dataset(
        schema=schema,
        samples=[Sample(tokens=(0, 1)), Sample(tokens=(1, 0))],
        split="test",
    )
    rep2 = mt.report_for(np.array([0.8, 0.3]), without, "test")
    assert rep2.gauc_pv is None and rep2.auc == 1.0
