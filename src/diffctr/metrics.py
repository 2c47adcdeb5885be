"""Ranking and calibration metrics with brute-force cross-checks.

Every metric takes parallel arrays: scores, 0/1 labels and, for the
session metrics, one session id per row. The production AUC is the
tie-aware rank statistic; auc_pairwise is the O(n^2) definition it must
match. Session-weighted AUC averages per-session AUCs weighted by
impression count, skipping single-class sessions entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.stats

from .errors import DataError

LOGLOSS_CLIP = 1e-7


@dataclass
class MetricReport:
    split: str
    n: int
    auc: float
    logloss: float
    gauc_pv: float | None = None

    def as_rows(self) -> list[tuple[str, float]]:
        rows = [("auc", self.auc), ("logloss", self.logloss)]
        if self.gauc_pv is not None:
            rows.append(("gauc_pv", self.gauc_pv))
        return rows


def _split(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError(f"scores {scores.shape} and labels {labels.shape} must be equal-length vectors")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores must be finite")
    if np.any((labels != 0) & (labels != 1)):
        raise DataError("labels must be 0 or 1")
    return scores, labels.astype(np.int64)


def _session_codes(sessions, n: int) -> np.ndarray:
    """Session index per row, numbered in order of first appearance."""
    sessions = np.asarray(sessions)
    if sessions.shape != (n,):
        raise DataError(f"sessions {sessions.shape} must match {n} scores")
    if sessions.dtype == object and np.equal(sessions, None).any():
        raise DataError("gauc_pv needs a session_id on every example")
    _, first, inverse = np.unique(sessions, return_index=True, return_inverse=True)
    renumber = np.empty(len(first), dtype=np.int64)
    renumber[np.argsort(first)] = np.arange(len(first))
    return renumber[inverse.reshape(-1)]


def _rank_auc(pos_rank_sum, n_pos, n_neg):
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc(scores, labels) -> float:
    """Tie-aware rank AUC: P(score_pos > score_neg) + half the tie mass."""
    scores, labels = _split(scores, labels)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("auc needs at least one positive and one negative")
    ranks = scipy.stats.rankdata(scores)
    return float(_rank_auc(ranks[labels == 1].sum(), n_pos, n_neg))


def auc_pairwise(scores, labels) -> float:
    """Brute-force pairwise oracle for auc."""
    scores, labels = _split(scores, labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("auc needs at least one positive and one negative")
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (len(pos) * len(neg)))


def logloss(scores, labels) -> float:
    """Mean negative log likelihood, scores clipped away from 0/1."""
    scores, labels = _split(scores, labels)
    s = np.clip(scores, LOGLOSS_CLIP, 1.0 - LOGLOSS_CLIP)
    return float((-(labels * np.log(s) + (1 - labels) * np.log(1.0 - s))).mean())


def gauc_pv(scores, labels, sessions) -> float:
    """Impression-weighted mean of per-session AUCs.

    Sessions with a single class have no defined AUC and are excluded
    from both numerator and denominator. One rank pass covers every
    session: rows are keyed by (session, dense score rank), so tie
    groups never cross sessions, and each row's within-session rank is
    its global rank less the rows of earlier sessions.
    """
    scores, labels = _split(scores, labels)
    codes = _session_codes(sessions, len(scores))
    _, dense = np.unique(scores, return_inverse=True)
    ranks = scipy.stats.rankdata(codes * (int(dense.max()) + 1) + dense)
    size = np.bincount(codes)
    earlier = np.cumsum(size) - size
    n_pos = np.bincount(codes[labels == 1], minlength=len(size))
    n_neg = size - n_pos
    pos_rank_sum = np.bincount(
        codes, weights=np.where(labels == 1, ranks - earlier[codes], 0.0), minlength=len(size)
    )
    valid = (n_pos > 0) & (n_neg > 0)
    if not valid.any():
        raise DataError("gauc_pv: no session contains both classes")
    aucs = _rank_auc(pos_rank_sum[valid], n_pos[valid], n_neg[valid])
    # sessions summed one after another in first-appearance order
    num = np.cumsum(size[valid] * aucs)[-1]
    return float(num / size[valid].sum())


def gauc_pv_pairwise(scores, labels, sessions) -> float:
    """Brute-force oracle for gauc_pv using the pairwise per-session AUC."""
    scores, labels = _split(scores, labels)
    codes = _session_codes(sessions, len(scores))
    num = 0.0
    den = 0.0
    for code in range(codes.max() + 1):
        rows = codes == code
        if labels[rows].min() == labels[rows].max():
            continue
        num += rows.sum() * auc_pairwise(scores[rows], labels[rows])
        den += rows.sum()
    if den == 0:
        raise DataError("gauc_pv: no session contains both classes")
    return float(num / den)


def mann_whitney_p(a: list[float] | np.ndarray, b: list[float] | np.ndarray) -> float:
    """Two-sided Mann-Whitney U p-value between two metric samples."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise DataError("mann_whitney_p needs nonempty samples")
    return float(scipy.stats.mannwhitneyu(a, b, alternative="two-sided").pvalue)


def report_for(scores: np.ndarray, dataset, split: str) -> MetricReport:
    """AUC and logloss, plus session AUC whenever session ids exist."""
    labels = dataset.labels()
    sessions = dataset.session_ids()
    gauc = None
    if sessions is not None:
        try:
            gauc = gauc_pv(scores, labels, sessions)
        except DataError:
            gauc = None
    return MetricReport(
        split=split,
        n=len(scores),
        auc=auc(scores, labels),
        logloss=logloss(scores, labels),
        gauc_pv=gauc,
    )
