import numpy as np
import pytest

from diffctr import autodiff as ad
from diffctr.errors import DiffCtrError, ShapeError
from diffctr.optim import ParamStore, adam_step, xavier_init


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
    store = ParamStore()
    store.add("w", np.array([1.0, 2.0]))
    before = store.get_data("w").copy()
    adam_step(store, {"w": np.zeros(2)}, lr=0.1)
    np.testing.assert_array_equal(store.get_data("w"), before)
    assert store.adam_state("w").step == 1


def test_adam_first_step_size():
    store = ParamStore()
    store.add("w", np.array(0.0))
    adam_step(store, {"w": np.array(1.0)}, lr=0.1)
    # bias-corrected first step: m_hat = v_hat = 1, delta = -lr / (1 + eps)
    assert abs(float(store.get_data("w")) + 0.1) < 1e-8


def test_adam_missing_gradient_names_parameter():
    store = ParamStore()
    store.add("left", np.zeros(2))
    store.add("right", np.zeros(2))
    with pytest.raises(DiffCtrError, match="right"):
        adam_step(store, {"left": np.zeros(2)})


def test_adam_gradient_shape_checked():
    store = ParamStore()
    store.add("w", np.zeros((2, 2)))
    with pytest.raises(ShapeError, match="w"):
        adam_step(store, {"w": np.zeros(3)})


def test_adam_hundred_steps_bit_identical():
    def run():
        store = ParamStore()
        store.add("w", xavier_init((3, 3), seed=5))
        x = ad.const(xavier_init((4, 3), seed=6) + 0.5)
        for _ in range(100):
            def fn(p):
                return ad.tmean(ad.relu(ad.matmul(x, p["w"])))
            _, grads = ad.forward_backward(fn, store)
            adam_step(store, grads, lr=1e-3)
        return store.get_data("w")

    np.testing.assert_array_equal(run(), run())


def test_store_clone_is_independent():
    store = ParamStore()
    store.add("w", np.ones(2))
    twin = store.clone()
    adam_step(store, {"w": np.ones(2)}, lr=0.5)
    np.testing.assert_array_equal(twin.get_data("w"), np.ones(2))
    assert twin.adam_state("w").step == 0
