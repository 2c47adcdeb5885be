import numpy as np
import pytest

from diffctr.errors import DataError
from diffctr.rng import stream
from diffctr.schedule import MAX_MASK_PROB, FieldCurve, NoiseSchedule, build_schedule


def cumulative_rate(s, t):
    """Integrated corruption rate -log(1 - m(t)) for every field."""
    return -np.log1p(-s.mask_probs(t))


def test_zero_at_origin():
    s = build_schedule(2, lo=0.0, hi=0.9, horizon=100)
    assert s.mask_probs(0.0)[0] == 0.0
    assert cumulative_rate(s, 0.0)[0] == 0.0


def test_half_mask_prob_is_log_two_rate():
    s = build_schedule(1, lo=0.0, hi=1.0 - 1e-4, horizon=10)
    # pick t where the linear curve hits exactly 0.5
    t = 10 * 0.5 / (1.0 - 1e-4)
    assert abs(s.mask_probs(t)[0] - 0.5) < 1e-12
    assert abs(cumulative_rate(s, t)[0] - np.log(2.0)) < 1e-12


def test_endpoint_rate():
    s = build_schedule(1, lo=0.0, hi=0.99, horizon=500)
    assert abs(s.mask_probs(500)[0] - 0.99) < 1e-15
    assert abs(cumulative_rate(s, 500)[0] - (-np.log(0.01))) < 1e-12
    assert abs(cumulative_rate(s, 500)[0] - 4.6052) < 1e-4


def test_midpoint_linear():
    s = build_schedule(1, lo=0.0, hi=0.99, horizon=500)
    assert abs(s.mask_probs(250)[0] - 0.495) < 1e-12


def test_rate_and_mask_prob_are_inverse():
    s = build_schedule(3, lo=0.05, hi=0.98, horizon=500)
    ts = np.linspace(0, 500, 23)
    m = s.mask_probs(ts)[:, 1]
    assert np.all(np.abs((1.0 - np.exp(-cumulative_rate(s, ts)[:, 1])) - m) < 1e-12)


@pytest.mark.parametrize("kind", ["linear-mask"])  # the one shape left keeps its case id
def test_monotone_and_bounds(kind):
    s = build_schedule(2, lo=0.0, hi=0.97, horizon=300)
    ts = np.linspace(0, 300, 50)
    vals = list(s.mask_probs(ts)[:, 0])
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert abs(vals[0]) < 1e-12 and abs(vals[-1] - 0.97) < 1e-12
    assert all(-1e-12 <= v <= 0.97 + 1e-12 for v in vals)


def test_shared_flag_unifies_fields():
    s = build_schedule(4, lo=0.0, hi=0.9, label_lo=0.3, horizon=100, shared=True)
    probs = s.sample_mask_prob_matrix(stream(0, "draw"), 3)
    assert np.all(probs == probs[:, :1])
    assert probs.shape == (3, 5)


def test_per_field_curves_differ():
    s = NoiseSchedule(curves=(FieldCurve(0.0, 0.5), FieldCurve(0.0, 0.9)), horizon=100)
    probs = s.mask_probs(90.0)
    assert probs[0] != probs[1]


def test_uniform_t_gives_uniform_mask_prob_mean():
    s = build_schedule(0, lo=0.0, hi=MAX_MASK_PROB, horizon=500)
    rng = stream(123, "mean-check")
    n = 10**6
    # the t draw of sample_mask_prob_matrix, replayed from the same stream
    t = 500 * (1.0 - stream(123, "mean-check").random(n))
    probs = s.sample_mask_prob_matrix(rng, n)[:, 0]
    assert np.all(np.abs(probs - MAX_MASK_PROB * t / 500) < 1e-15)
    target = MAX_MASK_PROB / 2
    sigma = MAX_MASK_PROB / np.sqrt(12 * n)
    assert abs(probs.mean() - target) < 3 * sigma


def test_t_out_of_range():
    s = build_schedule(1, horizon=10)
    with pytest.raises(DataError):
        s.mask_probs(-1.0)
    with pytest.raises(DataError):
        s.mask_probs(10.5)
    with pytest.raises(DataError):
        s.mask_probs(np.array([0.0, 5.0, 10.5]))


def test_invalid_bounds_rejected():
    with pytest.raises(DataError):
        build_schedule(1, lo=0.5, hi=0.5)
    with pytest.raises(DataError):
        build_schedule(1, lo=0.0, hi=1.0)
