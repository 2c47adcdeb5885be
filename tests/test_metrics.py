import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def rank_keys(case: str) -> np.ndarray:
    rng = stream(6, "ranks", case)
    if case == "one":
        return np.array([0.3])
    if case == "all-equal":
        return np.full(50, 0.7)
    if case == "heavy-ties":
        return np.round(rng.random(400), 1)
    if case == "untied":
        return rng.random(300)
    # gauc_pv's keys: session code * (distinct scores) + dense score rank
    codes = rng.integers(0, 40, 400)
    dense = rng.integers(0, 25, 400)
    return codes * (int(dense.max()) + 1) + dense


class TestRanks:
    @pytest.mark.parametrize("case", ["one", "all-equal", "heavy-ties", "untied", "int64-keys"])
    def test_tie_ranks_equal_scipy_rankdata(self, case):
        keys = rank_keys(case)
        got, want = mt._tie_ranks(keys), scipy.stats.rankdata(keys)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("trial", range(5))
    def test_auc_and_gauc_equal_the_rankdata_formulas(self, trial):
        rng = stream(7, "ranks", trial)
        n = 500
        scores = np.round(rng.random(n), 1)
        labels = (rng.random(n) < 0.4).astype(np.int64)
        sessions = rng.integers(0, 60, n)

        def rank_auc(s, y):
            n_pos = y.sum()
            ranks = scipy.stats.rankdata(s)
            return (ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * (len(y) - n_pos))

        assert mt.auc(scores, labels) == float(rank_auc(scores, labels))
        num = den = 0.0
        for session in dict.fromkeys(sessions):  # first-appearance order
            rows = sessions == session
            if labels[rows].min() < labels[rows].max():
                num += rows.sum() * rank_auc(scores[rows], labels[rows])
                den += rows.sum()
        assert mt.gauc_pv(scores, labels, sessions) == float(num / den)


# few distinct scores, so most pairs tie; -0.0 ties with 0.0
TIED_SCORES = st.sampled_from([-1e300, -1.0, -0.0, 0.0, 5e-324, 0.25, 0.5, 1.0, 1e300])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rows=st.lists(st.tuples(TIED_SCORES, st.integers(0, 1), st.sampled_from("abcdef")),
                     min_size=1, max_size=60))
@example(rows=[(0.0, 1, "a"), (-0.0, 0, "a")])
def test_rank_metrics_equal_their_pairwise_oracles(rows):
    """auc and gauc_pv give their oracles' value exactly, or the same DataError."""
    scores, labels, sessions = (np.array(column) for column in zip(*rows))
    for fast, oracle, extra in ((mt.auc, mt.auc_pairwise, ()),
                                (mt.gauc_pv, mt.gauc_pv_pairwise, (sessions,))):
        try:
            want = oracle(scores, labels, *extra)
        except DataError as e:
            with pytest.raises(DataError, match=f"^{re.escape(str(e))}$"):
                fast(scores, labels, *extra)
            continue
        assert fast(scores, labels, *extra) == want


def test_importing_diffctr_leaves_scipy_stats_unloaded():
    # only mann_whitney_p needs scipy.stats, and it imports it on first use
    code = (
        "import sys\n"
        "import diffctr.cli, diffctr.train, diffctr.experiments, diffctr.verify\n"
        "from diffctr import metrics\n"
        "print('scipy.stats' in sys.modules)\n"
        "print(repr(metrics.mann_whitney_p([0.1, 0.4, 0.35, 0.8], [0.3, 0.9, 0.7, 0.75, 0.95])))\n"
    )
    src = os.path.dirname(os.path.dirname(mt.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, p_value = proc.stdout.splitlines()
    assert loaded == "False"
    want = scipy.stats.mannwhitneyu([0.1, 0.4, 0.35, 0.8], [0.3, 0.9, 0.7, 0.75, 0.95],
                                    alternative="two-sided").pvalue
    assert float(p_value) == want


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
