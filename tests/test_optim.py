import threading
import warnings

import numpy as np
import pytest

from diffctr import autodiff as ad
from diffctr import data as dd
from diffctr import model as md
from diffctr import optim, parallel
from diffctr.errors import DiffCtrError, NumericError, ShapeError
from diffctr.optim import ParamStore, adam_step, xavier_init

LR, BETA1, BETA2, EPS = 1e-2, 0.9, 0.999, 1e-8


def test_xavier_bound():
    arr = xavier_init((4, 4), seed=3)
    bound = np.sqrt(6.0 / 8.0)
    assert arr.shape == (4, 4)
    assert np.all(np.abs(arr) <= bound)


def test_xavier_deterministic():
    a = xavier_init((5, 7), seed=42)
    b = xavier_init((5, 7), seed=42)
    np.testing.assert_array_equal(a, b)
    c = xavier_init((5, 7), seed=43)
    assert not np.array_equal(a, c)


def test_xavier_variance_matches_uniform_moment():
    arr = xavier_init((1000, 1000), seed=1)
    expected = 2.0 / (1000 + 1000)
    assert abs(arr.var() - expected) < 0.1 * expected


def test_xavier_rejects_zero_dim():
    with pytest.raises(ShapeError):
        xavier_init((0, 4), seed=1)


def test_adam_zero_gradient_leaves_parameter_unchanged():
    store = ParamStore({"w": np.array([1.0, 2.0])})
    before = store.get_data("w").copy()
    adam_step(store, {"w": np.zeros(2)}, lr=0.1)
    np.testing.assert_array_equal(store.get_data("w"), before)
    assert store.adam_state("w").step == 1


def test_adam_first_step_size():
    store = ParamStore({"w": np.array(0.0)})
    adam_step(store, {"w": np.array(1.0)}, lr=0.1)
    # bias-corrected first step: m_hat = v_hat = 1, delta = -lr / (1 + eps)
    assert abs(float(store.get_data("w")) + 0.1) < 1e-8


def test_adam_missing_gradient_names_parameter():
    store = ParamStore({"left": np.zeros(2), "right": np.zeros(2)})
    with pytest.raises(DiffCtrError, match="right"):
        adam_step(store, {"left": np.zeros(2)})


def test_adam_gradient_shape_checked():
    store = ParamStore({"w": np.zeros((2, 2))})
    with pytest.raises(ShapeError, match="w"):
        adam_step(store, {"w": np.zeros(3)})


def test_adam_hundred_steps_bit_identical():
    def run():
        store = ParamStore({"w": xavier_init((3, 3), seed=5)})
        x = ad.const(xavier_init((4, 3), seed=6) + 0.5)
        for _ in range(100):
            def fn(p):
                return ad.tmean(ad.relu(ad.matmul(x, p["w"])))
            _, grads = ad.forward_backward(fn, store)
            adam_step(store, grads, lr=1e-3)
        return store.get_data("w")

    np.testing.assert_array_equal(run(), run())


# ---------------------------------------------------------------------------
# the flat buffers against the per-parameter formula


def reference_adam(values, m, v, step, grads):
    """Adam one parameter at a time, as separate arrays: what adam_step must equal bit for bit."""
    for name, g in grads.items():
        m[name] = BETA1 * m[name] + (1.0 - BETA1) * g
        v[name] = BETA2 * v[name] + (1.0 - BETA2) * g * g
        m_hat = m[name] / (1.0 - BETA1**step)
        v_hat = v[name] / (1.0 - BETA2**step)
        values[name] = values[name] - LR * m_hat / (np.sqrt(v_hat) + EPS)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def sparse_grads(store, rng):
    """Table gradients touch a few rows, as a batch's tokens do; the rest are dense.

    Every gradient holds +0.0, -0.0 and subnormal entries.
    """
    grads = {}
    for name, t in store.items():
        g = rng.normal(size=t.data.shape) * 10.0 ** rng.integers(-6, 2, size=t.data.shape)
        if name.startswith("embed/"):
            g[rng.random(g.shape[0]) < 0.9] = 0.0
        flat = g.reshape(-1)
        flat[rng.integers(0, flat.size, 4)] = [-0.0, 0.0, 5e-324, -2.5e-310]
        grads[name] = g
    return grads


@pytest.mark.parametrize("vocab", [50, 2000])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("block", [optim.ADAM_BLOCK, 4099])
def test_flat_blocked_adam_equals_the_per_parameter_formula(monkeypatch, vocab, workers, block):
    """The default model (V=50: one block) and the wide-vocab model (V=2000:
    16 blocks); a 4099-float block cuts through parameters and cuts
    tables mid-row."""
    monkeypatch.setattr(parallel, "cpu_workers", lambda: workers)
    monkeypatch.setattr(optim, "ADAM_BLOCK", block)
    store = md.Model.init(md.ModelConfig(), dd.feature_schema([vocab] * 8), 0).params
    rng = np.random.default_rng(vocab + workers)
    for name in ("embed/input/f0", "net/b1/ffn_b1"):  # values at +-0.0 and subnormal
        data = store.get_data(name).copy()
        data.reshape(-1)[:4] = [0.0, -0.0, 5e-324, -1e-310]
        store.set_data(name, data)
    values = {n: store.get_data(n).copy() for n in store.names()}
    m = {n: np.zeros_like(a) for n, a in values.items()}
    v = {n: np.zeros_like(a) for n, a in values.items()}
    for step in range(1, 4):
        grads = sparse_grads(store, rng)
        adam_step(store, grads, lr=LR, beta1=BETA1, beta2=BETA2, eps=EPS)
        reference_adam(values, m, v, step, grads)
    assert store.step == 3
    for name in store.names():
        state = store.adam_state(name)
        assert state.step == 3
        for got, want in ((store.get_data(name), values[name]), (state.m, m[name]), (state.v, v[name])):
            np.testing.assert_array_equal(bits(got), bits(want), err_msg=name)


def test_only_a_store_larger_than_one_block_starts_threads(monkeypatch):
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(parallel, "cpu_workers", lambda: 2)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    for vocab, threads in ((50, 0), (2000, 1)):
        store = md.Model.init(md.ModelConfig(), dd.feature_schema([vocab] * 8), 0).params
        started.clear()
        adam_step(store, {n: np.ones_like(t.data) for n, t in store.items()})
        assert len(started) == threads, vocab
        assert not any(t.is_alive() for t in started)


def test_a_rejected_step_moves_nothing():
    store = ParamStore({"left": np.ones(3), "right": np.full((2, 2), 2.0)})
    adam_step(store, {"left": np.full(3, 0.5), "right": np.full((2, 2), -0.25)})
    snapshot = [(n, bits(store.get_data(n)).copy(), bits(store.adam_state(n).m).copy(),
                 bits(store.adam_state(n).v).copy()) for n in store.names()]
    with pytest.raises(DiffCtrError, match="right"):
        adam_step(store, {"left": np.ones(3)})
    with pytest.raises(ShapeError, match="right"):
        adam_step(store, {"left": np.ones(3), "right": np.ones(4)})
    assert store.step == 1
    for name, data, m, v in snapshot:
        state = store.adam_state(name)
        assert state.step == 1
        np.testing.assert_array_equal(bits(store.get_data(name)), data)
        np.testing.assert_array_equal(bits(state.m), m)
        np.testing.assert_array_equal(bits(state.v), v)


@pytest.mark.parametrize("value, grad, lr", [(0.0, 1e200, 1e-3), (0.0, np.inf, 1e-3),
                                             (0.0, np.nan, 1e-3), (-1e308, 1.0, 1e308)])
def test_a_non_finite_value_or_moment_raises_without_a_warning(monkeypatch, value, grad, lr):
    """A 1e200 gradient overflows v alone: the update is then 0 / inf, so
    the parameter would freeze with finite values. A step of 1e308 from
    -1e308 overflows the value alone. The bad entry sits in a block the
    helper thread updates."""
    monkeypatch.setattr(parallel, "cpu_workers", lambda: 2)
    monkeypatch.setattr(optim, "ADAM_BLOCK", 64)
    store = ParamStore({"first": np.zeros(100), "second": np.zeros(100)})
    values = np.zeros(100)
    values[10] = value
    store.set_data("second", values)
    grads = {"first": np.ones(100), "second": np.ones(100)}
    grads["second"][10] = grad  # flat entry 110: the second block, the helper thread's
    threads = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError, match="'second'"):
            adam_step(store, grads, lr=lr)
    assert threading.active_count() == threads


def test_set_data_writes_before_the_first_step_only():
    store = ParamStore({"w": np.zeros((2, 3)), "b": np.zeros(3)})
    store.set_data("w", np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(store.get_data("w"), np.arange(6.0).reshape(2, 3))
    state = store.adam_state("w")
    assert not state.m.any() and not state.v.any() and state.step == 0
    with pytest.raises(ShapeError, match="'w'"):
        store.set_data("w", np.zeros(6))
    adam_step(store, {"w": np.ones((2, 3)), "b": np.ones(3)})
    stepped = store.get_data("b").copy()
    with pytest.raises(DiffCtrError, match="1 Adam steps"):
        store.set_data("b", np.ones(3))
    np.testing.assert_array_equal(store.get_data("b"), stepped)


def test_store_clone_is_independent():
    def snapshot(store):
        return {n: (store.get_data(n).copy(), store.adam_state(n).m.copy(), store.adam_state(n).v.copy())
                for n in store.names()}

    def assert_unchanged(store, kept, step):
        assert store.step == step
        for name, (data, m, v) in kept.items():
            np.testing.assert_array_equal(store.get_data(name), data)
            np.testing.assert_array_equal(store.adam_state(name).m, m)
            np.testing.assert_array_equal(store.adam_state(name).v, v)

    store = ParamStore({"w": np.ones(2), "b": np.zeros(3)})
    adam_step(store, {"w": np.full(2, 0.5), "b": np.ones(3)}, lr=0.5)
    twin = store.clone()
    kept = snapshot(twin)
    adam_step(store, {"w": np.ones(2), "b": -np.ones(3)}, lr=0.5)
    assert_unchanged(twin, kept, 1)
    assert not np.array_equal(store.get_data("w"), twin.get_data("w"))
    kept = snapshot(store)
    adam_step(twin, {"w": np.ones(2), "b": np.ones(3)}, lr=0.5)
    assert_unchanged(store, kept, 2)
