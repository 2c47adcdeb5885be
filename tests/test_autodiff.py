import contextlib
import gc
import sys
import threading
import time
import warnings
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from diffctr import autodiff as ad
from diffctr import model as md
from diffctr import parallel
from diffctr import verify as vf
from diffctr.errors import NumericError, ShapeError
from diffctr.optim import ParamStore
from diffctr.rng import stream
from conftest import reached


def test_quadratic_gradient():
    store = ParamStore({"w": np.array([3.0, 4.0]).reshape(1, 2)})

    def fn(p):
        w = p["w"]
        return ad.tsum(ad.mul(w, w))

    loss, grads = ad.forward_backward(fn, store)
    assert loss == 25.0
    np.testing.assert_array_equal(grads["w"], np.array([[6.0, 8.0]]))


def test_unused_parameter_gets_zero_gradient():
    store = ParamStore({"w": np.ones((2, 2)), "unused": np.ones((3,))})

    def fn(p):
        return ad.tsum(p["w"])

    _, grads = ad.forward_backward(fn, store)
    np.testing.assert_array_equal(grads["unused"], np.zeros(3))


def test_three_layer_composite_matches_central_differences():
    rng = stream(11, "composite")
    store = ParamStore(
        {
            "w1": rng.normal(size=(5, 6)) * 0.4,
            "b1": rng.normal(size=(6,)) * 0.1,
            "w2": rng.normal(size=(6, 4)) * 0.4,
            "b2": rng.normal(size=(4,)) * 0.1,
            "w3": rng.normal(size=(4, 3)) * 0.4,
        }
    )
    # +0.5 shift keeps ReLU inputs away from the kink
    x = ad.const(rng.normal(size=(7, 5)) + 0.5)

    def fn(p):
        h1 = ad.relu(ad.add(ad.matmul(x, p["w1"]), p["b1"]))
        h2 = ad.relu(ad.add(ad.matmul(h1, p["w2"]), p["b2"]))
        return ad.tmean(ad.sigmoid(ad.matmul(h2, p["w3"])))

    reports = ad.grad_check(fn, store, h=1e-5, tol=1e-5)
    assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports]


def held(name, shape):
    """A fixed operand of a case: the finite differences move only the
    store's parameters, so the case checks the part of the node they reach."""
    return ad.const(stream(9, "held", name).normal(size=shape))


@pytest.mark.parametrize(
    "name,builder",
    [
        ("matmul", lambda p: ad.matmul(p["a"], p["b"])),
        ("batched_matmul", lambda p: ad.matmul(p["x3"], p["b"])),
        ("add_broadcast", lambda p: ad.add(p["a"], p["row_b"])),
        ("mul", lambda p: ad.mul(p["a"], p["a2"])),
        ("sub", lambda p: ad.sub(p["a"], p["a2"])),
        ("smul", lambda p: ad.smul(p["a"], 2.5)),
        ("relu_shifted", lambda p: ad.relu(ad.add(p["a"], ad.const(0.5)))),
        ("exp", lambda p: ad.exp(p["a"])),
        ("sigmoid", lambda p: ad.sigmoid(p["a"])),
        ("softplus", lambda p: ad.softplus(p["a"])),
        ("sum_axis", lambda p: ad.tsum(p["a"], axis=1)),
        ("mean_axis", lambda p: ad.tmean(p["a"], axis=0)),
        ("gather", lambda p: ad.gather_rows(p["table"], np.array([0, 2, 2, 1]))),
        ("take_position", lambda p: ad.take_position(p["x3"], 1)),
        ("stack", lambda p: ad.stack([p["a"], p["a2"]], axis=1)),
        ("stack_axis0", lambda p: ad.stack([p["a"], p["a2"]], axis=0)),
        ("candidate_terms", lambda p: ad.candidate_terms(
            p["x3"], [2, 0], [p["b2"], p["table"]], [np.array([4, 0]), np.array([1, 2])],
            [np.ones((2, 5), bool), np.ones((2, 3), bool)], np.array([[0.5, 2.0], [1.0, 0.3]]),
            1.3)),
        ("candidate_terms_gated", lambda p: ad.candidate_terms(
            p["x3"], [1], [p["b2"]], [np.array([3, 0])],
            [np.array([[False, True, False, True, True], [True, False, True, True, False]])],
            np.array([[0.7, 1.6]]), 2.0)),
        ("tsum_rows", lambda p: ad.tsum_rows(p["a"])),
        ("l2_normalize", lambda p: ad.l2_normalize(p["a"])),
        ("logsumexp", lambda p: ad.logsumexp(p["a"], axis=1)),
        ("cosine_matrix", lambda p: cosine_matrix(p["a"], p["b2"])),
        ("rms_scale", lambda p: ad.rms_scale(p["x3"], p["row_b"])),
        ("log_softmax", lambda p: ad.sub(p["a"], ad.logsumexp(p["a"], axis=1, keepdims=True))),
        ("ffn", lambda p: ad.ffn(p["a2"], p["a"], p["b"], p["b1"], p["w2"], p["row_b"])),
        ("ffn_rank3", lambda p: ad.ffn(p["x3"], p["x3"], p["b"], p["b1"], p["w2"], p["row_b"])),
        ("attention", lambda p: ad.attention(p["x3"], p["h3"], [[p["b"], p["p4"], p["v4"], p["w2"]],
                                                               [p["v4"], p["b"], p["p4"], p["w2"]]])),
        ("attention_kept", lambda p: ad.attention(p["x3"], p["h3"], [[p["p4"], p["v4"], p["b"], p["w2"]]],
                                                  keep=2)),
        # the node's softmax alone: wq and wk reach the loss through the scores only
        ("softmax", lambda p: ad.attention(held("x", (2, 3, 4)), held("h", (2, 3, 4)),
                                           [[p["b"], p["p4"], held("v", (4, 2)), held("o", (2, 4))]])),
        ("softmax_scaled", lambda p: ad.attention(  # dh = 4: the scores times 1/2, on the kept row
            held("x", (2, 3, 4)), held("h", (2, 3, 4)),
            [[p["q44"], p["k44"], held("v", (4, 4)), held("o", (4, 4))]], keep=2)),
        # the output projections and the residual alone: x and each wo_i vary
        ("attention_out", lambda p: ad.attention(
            p["x3"], held("h", (2, 3, 4)),
            [[held(f"{w}{i}", (4, 2)) for w in "qkv"] + [wo] for i, wo in enumerate((p["w2"], p["w2b"]))],
            keep=1)),
        ("attention_out_rank3", lambda p: ad.attention(
            p["x3"], held("h", (2, 3, 4)), [[held(w, (4, 2)) for w in "qkv"] + [p["w2"]]])),
    ],
)
def test_each_op_matches_finite_differences(name, builder):
    rng = stream(7, "ops", name)
    store = ParamStore(
        {
            "a": rng.normal(size=(3, 4)),
            "a2": rng.normal(size=(3, 4)) + 0.1,
            "b": rng.normal(size=(4, 2)),
            "b2": rng.normal(size=(5, 4)),
            "row_b": rng.normal(size=(4,)),
            "table": rng.normal(size=(3, 4)),
            "x3": rng.normal(size=(2, 3, 4)),
            "h3": rng.normal(size=(2, 3, 4)),
            "y3": rng.normal(size=(2, 5, 4)),
            "b1": rng.normal(size=(2,)),
            "w2": rng.normal(size=(2, 4)),
            "p4": rng.normal(size=(4, 2)),
            "v4": rng.normal(size=(4, 2)),
            "w2b": rng.normal(size=(2, 4)),
            "q44": rng.normal(size=(4, 4)),
            "k44": rng.normal(size=(4, 4)),
        }
    )

    # random projection makes the scalar loss sensitive to every output entry
    weights = stream(8, "weights", name).normal(size=builder(store).data.shape)

    def fn(p):
        return ad.tmean(ad.mul(builder(p), ad.const(weights)))

    reports = ad.grad_check(fn, store, h=1e-5, tol=1e-5)
    assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports]


def test_logsumexp_shift_invariance():
    rng = stream(3, "lse")
    x = rng.normal(size=(4, 6)) * 3
    base = ad.logsumexp(ad.const(x), axis=1).data
    shifted = ad.logsumexp(ad.const(x + 123.456), axis=1).data
    np.testing.assert_allclose(shifted - 123.456, base, atol=1e-12)


def test_logsumexp_ignores_log_zero_entries():
    x = np.array([[1.0, 2.0, ad.LOG_ZERO]])
    got = ad.logsumexp(ad.const(x), axis=1).data
    expected = np.log(np.exp(1.0) + np.exp(2.0))
    np.testing.assert_allclose(got, [expected], atol=1e-12)


def candidate_chain(x, fields, rows, positives, candidates, weights, scale):
    """candidate_terms as the chain of ops its docstring names, field by field: (K, B)."""
    out = []
    for i, k in enumerate(fields):
        unit = ad.transpose(ad.l2_normalize(rows[i]))
        logits = ad.smul(ad.clip_unit(ad.matmul(ad.l2_normalize(ad.take_position(x, k)), unit)),
                         scale)
        gate = ad.const(np.where(candidates[i], 0.0, ad.LOG_ZERO))
        onehot = np.zeros(candidates[i].shape)
        onehot[np.arange(len(onehot)), positives[i]] = 1.0
        positive = ad.tsum(ad.mul(logits, ad.const(onehot)), axis=1)
        ce = ad.sub(ad.logsumexp(ad.add(logits, gate), axis=1), positive)
        out.append(ad.mul(ce, ad.const(weights[i])))
    return ad.stack(out, axis=0)


def candidate_inputs(rng, B, P, d, widths):
    """Random contexts, target rows, positives, candidate sets holding the positive,
    and weights with zeros, for fields P-1, 0, 1, ...: candidate_terms' arguments."""
    fields = [P - 1] + list(range(len(widths) - 1))
    rows = {f"r{i}": rng.normal(size=(w, d)) for i, w in enumerate(widths)}
    positives = [rng.integers(w, size=B) for w in widths]
    candidates = [rng.random((B, w)) < 0.6 for w in widths]
    for pos, cand in zip(positives, candidates):
        cand[np.arange(B), pos] = True
    weights = np.where(rng.random((len(widths), B)) < 0.3, 0.0, rng.uniform(1.0, 10.0, (len(widths), B)))
    return ParamStore({"x": rng.normal(size=(B, P, d)), **rows}), fields, positives, candidates, weights


@pytest.mark.parametrize("B,P,d,widths", [(16, 3, 32, [250, 37, 2]), (5, 4, 4, [1, 3, 2]),
                                          (96, 9, 32, [2, 50, 41, 7])],
                         ids=["wide-fields", "tiny", "default-batch"])
def test_candidate_terms_match_the_chain_bit_for_bit(B, P, d, widths):
    rng = stream(12, "candidate-terms", B, d)
    store, fields, positives, candidates, weights = candidate_inputs(rng, B, P, d, widths)
    upstream = rng.normal(size=(len(widths), B))  # both signs reach the adjoint
    results = []
    for op in (ad.candidate_terms, candidate_chain):
        def fn(p, op=op):
            terms = op(p["x"], fields, [p[f"r{i}"] for i in range(len(widths))], positives,
                       candidates, weights, 10.0)
            results.append(terms.data)
            return ad.tsum(ad.mul(terms, ad.const(upstream)))

        results.append(ad.forward_backward(fn, store))
    node, (node_loss, node_grads), chain, (chain_loss, chain_grads) = results
    assert node.tobytes() == chain.tobytes()
    assert node_loss == chain_loss
    for name in chain_grads:
        assert node_grads[name].tobytes() == chain_grads[name].tobytes(), name
    rows = rng.normal(size=(9, 96))
    running = rows[0].sum()
    for row in rows[1:]:
        running = running + row.sum()
    assert ad.tsum_rows(ad.const(rows)).item() == running


@pytest.mark.parametrize("op, scale, weight", [("smul", np.inf, 1.0), ("sub", 1e308, 1.0),
                                               ("mul", 1e300, 1e300)])
def test_candidate_terms_name_the_chain_op_that_overflows(op, scale, weight):
    """Bare and in forward_backward the chain names the op that overflows,
    and the node, whose every value inside reaches its output, names
    itself: each row's positive points away from its context and another
    candidate along it."""
    store = ParamStore({"x": np.array([[[1.0, 0.0]], [[0.0, 1.0]]]),
                        "r": np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])})
    args = ([0], [store["r"]], [np.array([1, 3])], [np.ones((2, 4), bool)], np.full((1, 2), weight),
            scale)
    for call, name in ((ad.candidate_terms, "candidate_terms"), (candidate_chain, op)):
        message = f"^op '{name}' produced non-finite values$"
        with pytest.raises(NumericError, match=message):
            call(store["x"], *args)
        with pytest.raises(NumericError, match=message):
            ad.forward_backward(lambda p: ad.tsum_rows(call(p["x"], *args)), store)


def test_candidate_terms_check_the_cosines_the_clip_bounds_on_a_dealt_field(monkeypatch):
    """An inf planted in the second field's unit target rows makes cosines
    of inf that the clip maps to 1: bare, under quiet and in
    forward_backward, the node raises its own NumericError, and without
    its checks its terms are finite."""
    B = 4
    unit = ad._unit

    def planted(x):
        y, norm = unit(x)
        if x.shape == (3, 2):  # the second field's target rows
            y = y.copy()
            y[0, 0] = np.inf
        return y, norm

    monkeypatch.setattr(ad, "_unit", planted)
    store = ParamStore({"x": np.ones((B, 2, 2)), "r0": np.ones((2, 2)), "r1": np.ones((3, 2))})

    def terms(p):
        return ad.candidate_terms(p["x"], [0, 1], [p["r0"], p["r1"]], [np.zeros(B, int)] * 2,
                                  [np.ones((B, 2), bool), np.ones((B, 3), bool)], np.ones((2, B)),
                                  1.0)

    message = "^op 'candidate_terms' produced non-finite values$"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError, match=message):
            terms(store)
        with pytest.raises(NumericError, match=message):
            ad.quiet(lambda: ad.tsum_rows(terms(store)))()
        with pytest.raises(NumericError, match=message):
            ad.forward_backward(lambda p: ad.tsum_rows(terms(p)), store)
    monkeypatch.setattr(ad, "_stage", lambda op, value: None)
    assert np.all(np.isfinite(terms(store).data))


def candidate_terms(x3, fields=(0,), widths=(3,), positive=0, gate_width=None, weights=None,
                    gate=True):
    """candidate_terms on x3 (B, P, 4) with one shape or value bent by the arguments."""
    B = x3.data.shape[0]
    return ad.candidate_terms(
        x3, list(fields), [ad.const(np.ones((w, 4))) for w in widths],
        [np.full(B, positive)] * len(fields),
        [np.full((B, gate_width or w), gate) for w in widths],
        np.ones((len(fields), B)) if weights is None else weights, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        # take_position takes one position in range: a sequence or a slice is refused
        lambda x3: ad.take_position(x3, 3),
        lambda x3: ad.take_position(x3, [0, 3]),
        lambda x3: ad.take_position(x3, -1),
        lambda x3: ad.take_position(x3, [1, 1]),
        lambda x3: ad.take_position(x3, []),
        lambda x3: ad.take_position(x3, slice(2, 4)),
        lambda x3: ad.take_position(x3, slice(1, 1)),
        lambda x3: ad.take_position(x3, slice(0, 3, 2)),
        lambda x3: candidate_terms(x3, positive=3),
        lambda x3: candidate_terms(x3, widths=(0,)),
        lambda x3: candidate_terms(x3, fields=(0, 1)),
        lambda x3: candidate_terms(x3, fields=(3,)),
        lambda x3: candidate_terms(x3, fields=(1, 1), widths=(3, 3)),
        lambda x3: candidate_terms(x3, gate_width=2),
        lambda x3: candidate_terms(x3, weights=np.ones((1, 3))),
        lambda x3: candidate_terms(x3, gate=False),
        lambda x3: ad.tsum_rows(x3),
    ],
    ids=["position", "positions", "negative", "repeated", "empty", "slice-wide",
         "slice-empty", "slice-step", "wide", "zero-width",
         "widths-count", "terms-field", "terms-repeated", "terms-gate", "terms-weights",
         "terms-positive", "rows-rank"],
)
def test_out_of_range_position_or_width_raises_shape_error(call):
    with pytest.raises(ShapeError):
        call(ad.const(np.zeros((2, 3, 4))))


def cosine_matrix(a, b):
    """All-pairs cosine of a's rows (m, d) with b's rows (n, d): (m, n)."""
    return ad.clip_unit(ad.matmul(ad.l2_normalize(a), ad.transpose(ad.l2_normalize(b))))


def test_cosine_bounds():
    rng = stream(5, "cos")
    a = ad.const(rng.normal(size=(50, 8)) * 10)
    b = ad.const(rng.normal(size=(50, 8)) * 10)
    m = cosine_matrix(a, b).data
    assert np.all(m >= -1.0) and np.all(m <= 1.0)
    same = np.diag(cosine_matrix(a, a).data)
    np.testing.assert_allclose(same, 1.0, atol=1e-12)


def test_forward_backward_bit_identical():
    rng = stream(9, "det")
    base = {"w": rng.normal(size=(4, 4)), "b": rng.normal(size=(4,))}
    x = rng.normal(size=(6, 4)) + 0.5

    def run():
        store = ParamStore({k: v.copy() for k, v in base.items()})

        def fn(p):
            return ad.tmean(ad.relu(ad.add(ad.matmul(ad.const(x), p["w"]), p["b"])))

        return ad.forward_backward(fn, store)

    loss1, g1 = run()
    loss2, g2 = run()
    assert loss1 == loss2
    for k in g1:
        np.testing.assert_array_equal(g1[k], g2[k])


def test_shape_error_names_both_operands():
    a = ad.const(np.zeros((2, 3)))
    b = ad.const(np.zeros((4, 5)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        ad.add(a, b)
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        ad.matmul(a, b)


def test_non_finite_names_op():
    with pytest.raises(NumericError, match="exp"):
        ad.exp(ad.const(np.array([1000.0])))
    # an overflow inside forward_backward names the op, with no RuntimeWarning first
    store = ParamStore({"w": np.full((2,), 1e200)})
    with pytest.raises(NumericError, match="'mul'"):
        ad.forward_backward(lambda p: ad.tsum(ad.mul(p["w"], p["w"])), store)


def test_forward_backward_calls_graph_fn_once_when_it_raises():
    store = ParamStore({"w": np.array([1e10, 2.0])})
    calls = []

    def graph(p):
        calls.append(p)
        return ad.tsum(ad.clip_unit(ad.smul(p["w"], 1e300)))  # clip_unit would map the inf to 1

    with pytest.raises(NumericError, match="^op 'smul' produced non-finite values$"):
        ad.forward_backward(graph, store)
    assert calls == [store]


BIG = np.full((2, 2), 1e200)


@pytest.mark.parametrize("name, call", [
    ("add", lambda: ad.add(ad.const(BIG * 1e108), ad.const(BIG * 1e108))),
    ("sub", lambda: ad.sub(ad.const(BIG * 1e108), ad.const(-BIG * 1e108))),
    ("mul", lambda: ad.mul(ad.const(BIG), ad.const(BIG))),
    ("smul", lambda: ad.smul(ad.const(BIG), 1e200)),
    ("matmul", lambda: ad.matmul(ad.const(BIG), ad.const(BIG))),
    ("matmul", lambda: ad.matmul(ad.const(BIG[None]), ad.const(BIG[None]))),
    ("exp", lambda: ad.exp(ad.const(np.array([1000.0])))),
    ("sum", lambda: ad.tsum(ad.const(BIG * 1e108))),
    ("sum", lambda: ad.tsum_rows(ad.const(BIG * 1e108))),
    ("mean", lambda: ad.tmean(ad.const(BIG * 1e108))),
])
def test_a_bare_op_raises_on_overflow_without_a_warning(name, call):
    """Outside any scope each arithmetic op sets numpy's error state itself;
    pytest turns a RuntimeWarning into an error, so one would fail this test."""
    with pytest.raises(NumericError, match=f"^op '{name}' produced non-finite values$"):
        call()
    assert np.geterr()["over"] == "warn"


def scatter_add_at(idx, rows, shape):
    acc = np.zeros(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(acc, idx, rows)
    return acc


@pytest.mark.parametrize("idx, rows", [
    (np.array([2, 0, 2, 2, 1, 0]), stream(5, "scatter").normal(size=(6, 3)) * 1e3),
    (np.array([1, 1, 0, 1]), np.array([[-0.0, 0.0, -0.0], [-0.0, -0.0, 0.0],
                                       [-0.0, 5e-324, -5e-324], [0.1, -0.0, 0.2]])),
    (np.array([0, 0, 0]), np.array([[1e308, 1.0, 0.1], [1e308, -1.0, 0.2], [-1e308, 3.0, 0.3]])),
    (np.array([3, 3]), np.array([[np.nan, np.inf, -np.inf], [1.0, -np.inf, -np.inf]])),
    (np.array([], dtype=np.int64), np.zeros((0, 3))),
])
def test_gather_adjoint_scatters_bit_for_bit_as_add_at(idx, rows):
    got = ad._scatter_rows(idx, rows, (4, 3))
    want = scatter_add_at(idx, rows, (4, 3))
    assert got.dtype == np.float64 and got.shape == (4, 3)
    assert got.tobytes() == want.tobytes()  # also tells +0.0 from -0.0


def test_gather_adjoint_of_many_repeated_rows_is_bit_for_bit_as_add_at():
    rng = stream(6, "scatter")
    idx, rows = rng.integers(0, 451, size=18432), rng.normal(size=(18432, 32))
    assert ad._scatter_rows(idx, rows, (451, 32)).tobytes() == \
        scatter_add_at(idx, rows, (451, 32)).tobytes()


def test_gather_rows_range_check():
    table = ad.const(np.zeros((3, 2)))
    with pytest.raises(ShapeError, match="3 rows"):
        ad.gather_rows(table, np.array([3]))


def test_adjoint_fault_breaks_grad_check():
    store = ParamStore({"w": np.array([[1.0, 2.0], [3.0, 4.0]])})

    def fn(p):
        return ad.tsum(ad.relu(ad.add(p["w"], ad.const(0.5))))

    assert all(r.passed for r in ad.grad_check(fn, store))
    with ad.adjoint_fault("relu", 2.0):
        reports = ad.grad_check(fn, store)
    assert not all(r.passed for r in reports)


def test_relu_matches_the_where_form_bit_for_bit():
    tiny = np.finfo(np.float64).smallest_subnormal
    x = np.array([[0.0, -0.0, tiny, -tiny, 1e-310, -1e-310],
                  [-3.0, 2.5, -1e-300, 1e-300, 7.0, -0.5]])
    weight = stream(8, "relu").normal(size=x.shape)
    store = ParamStore({"a": x})
    out = ad.relu(store["a"])
    want = np.where(x > 0, x, 0.0)
    assert out.data.tobytes() == want.tobytes()
    np.testing.assert_array_equal(np.signbit(out.data), np.signbit(want))
    _, grads = ad.forward_backward(lambda p: ad.tsum(ad.mul(ad.relu(p["a"]), ad.const(weight))), store)
    assert grads["a"].tobytes() == (weight * (x > 0)).tobytes()


def test_grad_check_h_range():
    store = ParamStore({"w": np.ones((1,))})
    with pytest.raises(ValueError):
        ad.grad_check(lambda p: ad.tsum(p["w"]), store, h=1e-2)


def test_no_grad_records_no_tape_but_keeps_values():
    store = ParamStore({"w": np.array([[1.0, -2.0], [3.0, 4.0]])})
    taped = ad.relu(ad.matmul(store["w"], store["w"]))
    with ad.no_grad():
        bare = ad.relu(ad.matmul(store["w"], store["w"]))
    np.testing.assert_array_equal(bare.data, taped.data)
    assert taped.parents and taped.tracked
    assert bare.parents == () and bare.vjps == () and not bare.tracked


def test_no_grad_keeps_the_finiteness_check():
    with ad.no_grad():
        with pytest.raises(NumericError, match="exp"):
            ad.exp(ad.const(np.array([1000.0])))
        with pytest.raises(NumericError, match="made-up"):
            ad.Tensor(np.array([1.0, np.inf]), op="made-up")


def test_no_grad_nests_and_restores_on_error():
    w = ParamStore({"w": np.ones((2,))})["w"]

    def taped():
        recorded = bool(ad.smul(w, 2.0).parents)
        assert recorded == ad.recording()
        return recorded

    with ad.no_grad():
        with ad.no_grad():
            assert not taped()
        assert not taped()  # leaving the inner block keeps the outer one
    assert taped()
    with pytest.raises(KeyError):
        with ad.no_grad():
            raise KeyError("body fails")
    assert taped()


def test_no_grad_state_is_per_thread_under_contention():
    """Eight threads, more than the cores, enter and leave no_grad on a
    1 us switch interval; a depth shared between threads would make one
    thread see another's state, or lose an update and stay off."""
    w = ParamStore({"w": np.ones((2,))})["w"]
    failures = []
    interval = sys.getswitchinterval()

    def churn(rounds: int) -> None:
        try:
            for _ in range(rounds):
                if not ad.recording() or not ad.smul(w, 2.0).parents:
                    failures.append("off outside no_grad")
                with ad.no_grad():
                    if ad.recording() or ad.smul(w, 2.0).parents:
                        failures.append("on inside no_grad")
        except Exception as e:  # a thread's exception would otherwise only be printed
            failures.append(repr(e))

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn, args=(2000,)) for _ in range(8)]
        with ad.no_grad():  # the main thread's own no_grad reaches no other thread
            for t in threads:
                t.start()
            time.sleep(0.01)
            assert not ad.recording()
        deadline = time.monotonic() + 60
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert ad.recording() and ad.smul(w, 2.0).parents


def test_work_dealt_to_a_helper_runs_in_its_callers_context(monkeypatch):
    """parallel.deal starts each helper in a copy of the caller's context, so
    the helper sees the caller's numpy error state, no_grad and quiet flag;
    a plain thread starts from the defaults."""
    monkeypatch.setattr(parallel, "cpu_workers", lambda: 2)
    seen = {}

    def state(key, _worker=None):
        seen[key] = (np.geterr()["over"], np.geterr()["divide"], ad.recording(),
                     ad._quiet.get(), threading.get_ident())

    @ad.quiet
    def call():
        with np.errstate(divide="raise"), ad.no_grad():
            parallel.deal(["caller", "helper"], state)
            plain = threading.Thread(target=state, args=("plain",))
            plain.start()
            plain.join(timeout=60)
            assert not plain.is_alive()

    call()
    assert seen["caller"][-1] != seen["helper"][-1]
    assert seen["caller"][:-1] == seen["helper"][:-1] == ("ignore", "raise", False, True)
    assert seen["plain"][:-1] == ("warn", "warn", True, False)
    assert np.geterr()["over"] == "warn" and ad.recording() and not ad._quiet.get()


def test_backward_refuses_to_run_inside_no_grad():
    store = ParamStore({"w": np.array([1.0, 2.0])})

    def fn(p):
        return ad.tsum(ad.mul(p["w"], p["w"]))

    loss = fn(store)
    with ad.no_grad():
        with pytest.raises(RuntimeError, match="no_grad"):
            ad.backward(loss)
        with pytest.raises(RuntimeError, match="no_grad"):
            ad.forward_backward(fn, store)
    _, grads = ad.forward_backward(fn, store)
    np.testing.assert_array_equal(grads["w"], [2.0, 4.0])


def test_backward_leaves_gradients_on_the_leaves_only():
    store = ParamStore({"w": stream(12, "w").normal(size=(3, 2)), "b": np.zeros(2)})
    x = ad.const(stream(12, "x").normal(size=(5, 3)))
    hidden = ad.relu(ad.add(ad.matmul(x, store["w"]), store["b"]))
    loss = ad.tsum(ad.mul(hidden, hidden))
    ad.backward(loss)
    assert store["w"].grad is not None and store["b"].grad is not None
    assert hidden.grad is None and loss.grad is None and hidden.parents[0].grad is None


def linear_rows(store, x, shared):
    """Per-row losses of x: relu(x w + b) summed with the shared row, then squared."""
    hidden = ad.relu(ad.add(ad.add(ad.matmul(x, store["w"]), store["b"]), shared))
    return ad.tsum(ad.mul(hidden, hidden), axis=1)


def gathered_rows(store, idx, a, b, shared):
    """As encode's input rows: stack hands each gathered table a strided view
    of the stacked gradient, which the shared add also reads whole."""
    x = ad.add(ad.stack([ad.gather_rows(store[f"t{k}"], idx[k][a:b]) for k in (0, 1)]), shared)
    return ad.tsum(ad.tsum(ad.mul(x, x), axis=2), axis=1)


def test_join_rows_stays_within_bound_of_one_tape(monkeypatch):
    """Five parts on four threads, more than this host has cores, switching
    often. Each part sums its own gradients and the parts' sums are added in
    part order, so gradients differ from one tape only in summation order
    (within 1e-13), and every run gives the same bytes. Three graphs: rows
    through a weight, a bias and a shared row; an adjoint toward the shared
    node that is not a sum over rows (exp's); and encode's stacked gathers."""
    monkeypatch.setattr(parallel, "cpu_workers", lambda: 4)
    store = ParamStore({"w": stream(13, "w").normal(size=(4, 3)), "b": np.zeros(3),
                        "s": stream(13, "s").normal(size=(1, 3)),
                        "t0": stream(15, "t0").normal(size=(5, 3)),
                        "t1": stream(15, "t1").normal(size=(4, 3)),
                        "pos": stream(15, "pos").normal(size=(2, 3))})
    x = stream(13, "x").normal(size=(70, 4))
    idx = [stream(15, "i", k).integers(0, n, size=70) for k, n in enumerate((5, 4))]
    cuts = [(0, 17), (17, 30), (30, 40), (40, 52), (52, 70)]
    graphs = {
        "linear": (lambda p: ad.smul(p["s"], 2.0),
                   lambda p, a, b, shared: linear_rows(p, ad.const(x[a:b]), shared)),
        "exp": (lambda p: ad.smul(p["s"], 2.0),
                lambda p, a, b, shared: ad.tsum(ad.mul(ad.const(x[a:b, :3]), ad.exp(shared)),
                                                axis=1)),
        "stacked": (lambda p: ad.smul(p["pos"], 1.5),
                    lambda p, a, b, shared: gathered_rows(p, idx, a, b, shared)),
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for graph, (shared_of, rows) in graphs.items():
            want_loss, want = ad.forward_backward(
                lambda p: ad.tmean(rows(p, 0, 70, shared_of(p))), store)

            def in_parts(p):
                shared = shared_of(p)
                return ad.tmean(ad.join_rows([rows(p, a, b, shared) for a, b in cuts], [shared]))

            runs = set()
            for _ in range(20):
                threads_before = threading.active_count()
                loss, got = ad.forward_backward(in_parts, store)
                assert threading.active_count() == threads_before
                assert abs(loss - want_loss) <= 1e-13, graph
                for name in want:
                    np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-13,
                                               err_msg=f"{graph} {name}")
                runs.add(b"".join(got[name].tobytes() for name in sorted(got)))
            assert len(runs) == 1, graph
    finally:
        sys.setswitchinterval(interval)


def test_join_rows_refuses_parts_that_reach_different_nodes():
    store = ParamStore({"w": stream(13, "w").normal(size=(4, 3)), "b": np.zeros(3),
                        "s": stream(13, "s").normal(size=(1, 3))})
    x = stream(13, "x").normal(size=(10, 4))

    def in_parts(p):
        shared = ad.smul(p["s"], 2.0)
        parts = [linear_rows(p, ad.const(x[:5]), shared),
                 ad.tsum(ad.matmul(ad.const(x[5:]), p["w"]), axis=1)]  # reaches neither b nor s
        return ad.tmean(ad.join_rows(parts, [shared]))

    with pytest.raises(ShapeError, match="reach different nodes"):
        ad.forward_backward(in_parts, store)


def test_backward_frees_the_tape_and_keeps_the_root_and_the_leaves():
    store = ParamStore({"w": stream(14, "w").normal(size=(3, 2)), "b": np.zeros(2)})
    x = ad.const(stream(14, "x").normal(size=(5, 3)))
    loss = ad.tsum(ad.mul(*[ad.relu(ad.add(ad.matmul(x, store["w"]), store["b"]))] * 2))
    counts = Counter(n.op for n in reached(loss))
    nodes = [n for n in reached(loss)[1:] if n.parents]
    assert len(nodes) == 4
    ad.backward(loss)
    assert all(n.vjp is None and n.grad is None for n in nodes)
    assert loss.data.shape == () and loss.node.vjp is None
    assert x.data.shape == (5, 3) and store["w"].data.shape == (3, 2)
    assert store["w"].grad is not None and store["b"].grad is not None
    assert Counter(n.op for n in reached(loss)) == counts
    with pytest.raises(RuntimeError, match="walked already"):
        ad.backward(loss)


def test_each_adjoint_runs_once_per_backward():
    """A fused node with six parents and a two-parent primitive: one call
    each, which returns a gradient for every parent."""
    rng = stream(16, "once")
    shapes = {"x": (2, 3, 4), "h": (2, 3, 4), "w1": (4, 5), "b1": (5,), "w2": (5, 4), "b2": (4,),
              "s": (2, 3, 4)}
    store = ParamStore({k: rng.normal(size=shape) for k, shape in shapes.items()})
    out = ad.ffn(*[store[k] for k in ("x", "h", "w1", "b1", "w2", "b2")])
    scaled = ad.mul(out, store["s"])
    calls = Counter()
    for tensor in (out, scaled):
        def counted(g, vjp=tensor.node.vjp, op=tensor.op, parents=len(tensor.parents)):
            calls[op] += 1
            grads = vjp(g)
            assert len(grads) == parents
            return grads

        tensor.node.vjp = counted
    ad.backward(ad.tsum(scaled))
    assert calls == {"ffn": 1, "mul": 1}
    assert all(store[k].grad is not None for k in shapes)


def test_a_taped_stack_keeps_none_of_its_parts_alive():
    """stack's adjoint hands out views of the stacked gradient, so it needs
    the parts' count, not the parts: once nothing else names them, their
    values die during the forward, as the input gathers' do in encode."""
    table = ParamStore({"t": stream(17, "t").normal(size=(4, 3))})["t"]
    parts = [ad.gather_rows(table, [2 * k, 2 * k + 1]) for k in range(2)]
    values = [weakref.ref(part.data) for part in parts]
    stacked = ad.stack(parts)
    del parts
    gc.collect()
    assert all(value() is None for value in values)
    ad.backward(ad.tsum(stacked))
    np.testing.assert_array_equal(table.grad, np.ones((4, 3)))


def test_an_untracked_parent_never_gets_a_gradient():
    """The adjoints compute a gradient toward every parent; the walk drops
    those toward untracked ones, on primitives and fused nodes alike."""
    store = ParamStore({"x": stream(18, "x").normal(size=(3, 4)),
                        "w": stream(18, "w").normal(size=(4, 2))})
    gain, scale, rows = (ad.const(stream(18, k).normal(size=shape))
                         for k, shape in (("gain", (4,)), ("scale", (3, 2)), ("rows", (3, 4))))
    doubled = ad.smul(rows, 2.0)  # computed from a const alone: never walked
    normed = ad.rms_scale(ad.add(store["x"], doubled), gain)
    loss = ad.tsum(ad.mul(ad.matmul(normed, store["w"]), scale))
    ad.backward(loss)
    assert store["x"].grad is not None and store["w"].grad is not None
    assert all(t.grad is None for t in (gain, scale, rows, doubled))


def composite_rms_scale(x, gain):
    """The chain ad.rms_scale replaces."""
    return ad.mul(ad.smul(ad.l2_normalize(x), float(np.sqrt(x.data.shape[-1]))), gain)


def fused_and_composite(fused, composite, arrays, weight):
    """(forward-only value, taped value, loss, gradients) of fused and of
    composite over the same parameters."""
    out = []
    for op in (fused, composite):
        store = ParamStore({k: v.copy() for k, v in arrays.items()})
        taped = []

        def fn(p):
            taped.append(op(*(p[k] for k in arrays)))
            return ad.tsum(ad.mul(taped[-1], ad.const(weight)))

        loss, grads = ad.forward_backward(fn, store)
        with ad.no_grad():
            bare = op(*(store[k] for k in arrays)).data
        out.append((bare, taped[-1].data, loss, grads))
    return out


def assert_bit_for_bit(fused, composite):
    """fused_and_composite's two results agree in every bit (+0.0 and -0.0 apart)."""
    (bare, taped, loss, grads), (want_bare, want_taped, want_loss, want) = fused, composite
    assert bare.tobytes() == want_bare.tobytes()
    assert taped.tobytes() == want_taped.tobytes()
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert sorted(grads) == sorted(want)
    for name in want:
        assert grads[name].tobytes() == want[name].tobytes(), name


values = st.floats(-30, 30, allow_nan=False, allow_subnormal=False)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=7), data=st.data(),
       exponent=st.sampled_from([0, 0, 0, 520, 600]))
def test_fused_rms_scale_equals_the_chain_it_replaces_bit_for_bit(shape, data, exponent):
    """Also where a row's squares overflow (2**520 and up)."""
    x = data.draw(hnp.arrays(np.float64, shape, elements=values), label="x") * 2.0**exponent
    gain = data.draw(hnp.arrays(np.float64, shape[-1:], elements=values), label="gain")
    weight = stream(16, "w", *shape).normal(size=shape)
    assert_bit_for_bit(*fused_and_composite(
        ad.rms_scale, composite_rms_scale, {"x": x, "gain": gain}, weight))


def composite_ffn(x, h, w1, b1, w2, b2):
    """The chain ad.ffn replaces."""
    inner = ad.relu(ad.add(ad.matmul(h, w1), b1))
    return ad.add(x, ad.add(ad.matmul(inner, w2), b2))


def ffn_shapes(lead, d_in, width, d):
    return {"x": lead + (d,), "h": lead + (d_in,), "w1": (d_in, width), "b1": (width,),
            "w2": (width, d), "b2": (d,)}


def attention_chain(x, h, heads, keep=None, spread=None):
    """The chain ad.attention replaces: encode's per-head loop before the node."""
    B, P = h.data.shape[:-1] if spread is None else spread.shape
    lo = P - 2 if keep == P - 1 and P > 1 and not ad.recording() else 0
    query = h if spread is not None or lo == 0 else \
        ad.stack([ad.take_position(h, pos) for pos in range(lo, P)], axis=1)
    total = None
    for wq, wk, wv, wo in heads:
        q, k, v = ad.matmul(query, wq), ad.matmul(h, wk), ad.matmul(h, wv)
        if spread is not None:
            q, k, v = (ad.gather_rows(q, spread[:, lo:]), ad.gather_rows(k, spread),
                       ad.gather_rows(v, spread))
        s = ad.smul(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(wq.data.shape[1]))
        mixed = ad.matmul(ad.exp(ad.sub(s, ad.logsumexp(s, axis=-1, keepdims=True))), v)
        if keep is not None:
            mixed = ad.take_position(mixed, keep - lo)
        out = ad.matmul(mixed, wo)
        total = out if total is None else ad.add(total, out)
    if spread is not None:
        x = ad.gather_rows(x, spread if keep is None else spread[:, keep])
    elif keep is not None:
        x = ad.take_position(x, keep)
    return ad.add(x, total)


# finite values with many zeros of either sign, so pre-activations are
# often negative, +0.0 or -0.0
signed = st.one_of(values, st.sampled_from([0.0, -0.0]))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(lead=hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
       dims=st.tuples(*[st.integers(1, 6)] * 3), data=st.data())
def test_fused_ffn_equals_the_chain_it_replaces_bit_for_bit(lead, dims, data):
    """On (B, d) label rows and (B, P, d) blocks alike."""
    arrays = {k: data.draw(hnp.arrays(np.float64, shape, elements=signed), label=k)
              for k, shape in ffn_shapes(lead, *dims).items()}
    weight = stream(18, "w", *lead, dims[2]).normal(size=lead + dims[2:])
    assert_bit_for_bit(*fused_and_composite(ad.ffn, composite_ffn, arrays, weight))


def head_weights(store, heads):
    return [[store[f"{w}{i}"] for w in ("wq", "wk", "wv", "wo")] for i in range(heads)]


def assert_attention_is_the_chain(arrays, heads, keep):
    """attention and attention_chain over the same x, h and head weights,
    with a tape: the values, the loss and every gradient agree by bytes."""
    B, P, d = arrays["x"].shape
    weight = stream(19, "w", B, P, d).normal(size=(B, P, d) if keep is None else (B, d))
    results = []
    for op in (ad.attention, attention_chain):
        def fn(p, op=op):
            out = op(p["x"], p["h"], head_weights(p, heads), keep=keep)
            results.append(out.data)
            return ad.tsum(ad.mul(out, ad.const(weight)))

        results.append(ad.forward_backward(fn, ParamStore({k: v.copy() for k, v in arrays.items()})))
    node, (node_loss, node_grads), chain, (chain_loss, chain_grads) = results
    assert node.tobytes() == chain.tobytes()
    assert np.float64(node_loss).tobytes() == np.float64(chain_loss).tobytes()
    assert sorted(node_grads) == sorted(chain_grads)
    for name in chain_grads:
        assert node_grads[name].tobytes() == chain_grads[name].tobytes(), name


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(lead=st.tuples(st.integers(1, 5), st.integers(1, 4)), heads=st.integers(1, 3),
       dims=st.tuples(st.integers(1, 4), st.integers(1, 6)), data=st.data())
def test_attention_equals_the_per_head_chain_bit_for_bit(lead, heads, dims, data):
    """On all four routes: the full block and the kept row with a tape, values
    and every gradient; then without one, the block's rows gathered from
    distinct rows (spread) and the last position's two-row query."""
    (B, P), (dh, d) = lead, dims

    def draw(shape, label):
        return data.draw(hnp.arrays(np.float64, shape, elements=signed), label=label)

    shapes = {"x": (B, P, d), "h": (B, P, d)}
    for i in range(heads):
        shapes.update({f"wq{i}": (d, dh), f"wk{i}": (d, dh), f"wv{i}": (d, dh), f"wo{i}": (dh, d)})
    arrays = {k: draw(shape, k) for k, shape in shapes.items()}
    keep = data.draw(st.one_of(st.none(), st.just(P - 1), st.integers(0, P - 1)), label="keep")
    assert_attention_is_the_chain(arrays, heads, keep)

    U = data.draw(st.integers(1, 6), label="rows")
    spread = data.draw(hnp.arrays(np.int64, (B, P), elements=st.integers(0, U - 1)), label="spread")
    distinct = {"x": draw((U, d), "x rows"), "h": draw((U, d), "h rows")}
    consts = {k: ad.const(v) for k, v in arrays.items()}
    with ad.no_grad():
        for rows, index in ((arrays, None), (distinct, spread)):
            x, h = ad.const(rows["x"]), ad.const(rows["h"])
            node, chain = (op(x, h, head_weights(consts, heads), keep=keep, spread=index).data
                           for op in (ad.attention, attention_chain))
            assert node.tobytes() == chain.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(lead=st.tuples(st.integers(1, 4), st.integers(1, 4)), d=st.integers(1, 4),
       dh=st.sampled_from([1, 3, 4, 16]), temper=st.sampled_from([2.0**-40, 1.0, 1.0, 2.0**20]),
       data=st.data())
def test_fused_softmax_equals_the_chain_it_replaces_bit_for_bit(lead, d, dh, temper, data):
    """The node's softmax against smul, logsumexp, sub and exp: at the
    scales 1/√dh of 1, 1/√3, 1/2 and 1/4, over scores from near zero (all
    weights near equal) to far beyond exp's range (all weight on the
    largest), with tied rows and ±0.0 drawn often."""
    (B, P) = lead
    rows = st.one_of(signed, st.sampled_from([1.0, -1.0]))  # equal entries tie the scores
    shapes = {"x": (B, P, d), "h": (B, P, d), "wq0": (d, dh), "wk0": (d, dh), "wv0": (d, dh),
              "wo0": (dh, d)}
    arrays = {k: data.draw(hnp.arrays(np.float64, shape, elements=rows), label=k)
              for k, shape in shapes.items()}
    arrays["wq0"] *= temper
    keep = data.draw(st.one_of(st.none(), st.just(P - 1), st.integers(0, P - 1)), label="keep")
    assert_attention_is_the_chain(arrays, 1, keep)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(P=st.integers(1, 3), heads=st.integers(1, 4), dims=st.tuples(st.integers(1, 3), st.integers(1, 4)),
       keep=st.sampled_from([None, 0]), data=st.data())
def test_fused_attention_out_equals_the_chain_it_replaces_bit_for_bit(P, heads, dims, keep, data):
    """The heads' products and the residual are added in head order: the
    node's value and every gradient are the chain's, by bytes, where the
    products cancel or are ±0.0."""
    dh, d = dims
    B = 4
    shapes = {"x": (d,), "h": (d,)}
    for i in range(heads):
        shapes.update({f"wq{i}": (d, dh), f"wk{i}": (d, dh), f"wv{i}": (d, dh), f"wo{i}": (dh, d)})
    arrays = {k: data.draw(hnp.arrays(np.float64, shape, elements=signed), label=k)
              for k, shape in shapes.items()}
    # head i's product is often 2**60 times larger than the rest, or the
    # negated product of head i - 1, so a sum in another order loses bits
    for i in range(heads):
        if i and data.draw(st.booleans(), label=f"cancel{i}"):
            arrays.update({f"w{w}{i}": arrays[f"w{w}{i - 1}"].copy() for w in "qkv"})
            arrays[f"wo{i}"] = -arrays[f"wo{i - 1}"]
        else:
            arrays[f"wo{i}"] *= data.draw(st.sampled_from([1.0, 2.0**60]), label=f"scale{i}")
    # a few distinct rows, drawn once, tiled across the batch's B * P rows
    U = data.draw(st.integers(1, 5), label="rows")
    for k in ("x", "h"):
        distinct = data.draw(hnp.arrays(np.float64, (U, d), elements=signed), label=f"{k} rows")
        arrays[k] = np.resize(distinct, (B, P, d)) + arrays[k]
    assert_attention_is_the_chain(arrays, heads, keep)


def drawn_values(seed, shapes):
    """Arrays of the given shapes with magnitudes in [0.1, 0.7] of either
    sign: no two entries tie, no row nears zero and no score saturates a
    softmax, so no gradient is zero by symmetry or by saturation."""
    rng = stream(21, "grad-check", seed)
    return {k: rng.uniform(0.1, 0.7, shape) * rng.choice([-1.0, 1.0], shape)
            for k, shape in shapes.items()}


def assert_grad_check_passes(node, arrays, h):
    """grad_check of tsum(node(p) * w), w a fixed projection, at step h.
    Drawn values put an entry of some gradient near zero now and then,
    where the difference quotient's error is a large share of it: tol =
    1e-4 allows for that, and a wrong adjoint is off by far more."""
    store = ParamStore(arrays)
    shape = node(store).shape
    weight = ad.const(stream(22, "weight", *shape).normal(size=shape))
    reports = ad.grad_check(lambda p: ad.tsum(ad.mul(node(p), weight)), store, h=h, tol=1e-4)
    assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(lead=st.tuples(st.integers(1, 4), st.integers(1, 4)), heads=st.integers(1, 3),
       dh=st.sampled_from([1, 2, 4]), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       keep=st.one_of(st.none(), st.integers(0, 3)), tied_rows=st.booleans())
@example(lead=(1, 3), heads=1, dh=2, d=3, seed=5, keep=None, tied_rows=True)
def test_attention_passes_grad_check_on_drawn_shapes(lead, heads, dh, d, seed, keep, tied_rows):
    """h = 1e-4: the quotient's rounding, not its truncation, is the larger
    error here (the worst of 2000 random draws read 9e-6). Tied rows give
    every query equal scores for any wq and wk, so their gradients are 0
    and the quotient reads rounding alone."""
    B, P = lead
    keep = None if keep is None else keep % P
    shapes = {"x": (B, P, d), "h": (B, P, d)}
    for i in range(heads):
        shapes.update({f"wq{i}": (d, dh), f"wk{i}": (d, dh), f"wv{i}": (d, dh), f"wo{i}": (dh, d)})
    arrays = drawn_values(seed, shapes)
    if tied_rows:
        for k in ("x", "h"):
            arrays[k][...] = arrays[k][0, 0]
    assert_grad_check_passes(lambda p: ad.attention(p["x"], p["h"], head_weights(p, heads), keep=keep),
                             arrays, h=1e-4)


def test_grad_check_passes_where_tied_rows_zero_a_gradient():
    """One head over three equal rows at the default h and tol: wq's and
    wk's gradients are 0, where the difference quotient reads only its
    rounding, which grad_check's floor lets through."""
    x = ad.const(np.ones((1, 3, 3)))
    for seed in range(40):
        rng = stream(seed, "gc")
        store = ParamStore({f"w{w}0": rng.uniform(0.1, 0.7, (2, 3) if w == "o" else (3, 2))
                            for w in "qkvo"})
        reports = ad.grad_check(lambda p: ad.tsum(ad.attention(x, x, head_weights(p, 1))), store)
        assert all(r.passed for r in reports), (seed, [(r.name, r.max_rel_error) for r in reports])


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(B=st.integers(1, 4), widths=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       d=st.integers(2, 4), scale=st.floats(0.5, 3.0), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_candidate_terms_pass_grad_check_on_drawn_shapes(B, widths, d, scale, seed, data):
    """Drawn fields, widths U_k and gates, each row's positive among its
    candidates, and weights of which some are 0. h = 1e-5: the unit rows
    curve enough that truncation is the larger error at 1e-4 (the worst
    of 2000 random draws read 8e-5)."""
    K = len(widths)
    P = data.draw(st.integers(K, 4), label="P")
    fields = data.draw(st.permutations(range(P)), label="fields")[:K]
    positives, candidates = [], []
    for U in widths:
        positives.append(data.draw(hnp.arrays(np.int64, (B,), elements=st.integers(0, U - 1)),
                                   label="positive"))
        gate = data.draw(hnp.arrays(np.bool_, (B, U)), label="gate")
        gate[np.arange(B), positives[-1]] = True
        candidates.append(gate)
    arrays = drawn_values(seed, {"x": (B, P, d), "w": (K, B),
                                 **{f"r{i}": (U, d) for i, U in enumerate(widths)}})
    weights = 3.0 * np.abs(arrays.pop("w")) * data.draw(hnp.arrays(np.bool_, (K, B)), label="weighed")
    for i, k in enumerate(fields):  # cosines inside ±0.999, away from the clip's kinks
        unit = [v / np.linalg.norm(v, axis=-1, keepdims=True) for v in (arrays["x"][:, k], arrays[f"r{i}"])]
        assume(np.abs(unit[0] @ unit[1].T).max() < 0.999)
    assert_grad_check_passes(
        lambda p: ad.candidate_terms(p["x"], fields, [p[f"r{i}"] for i in range(K)], positives,
                                     candidates, weights, scale), arrays, h=1e-5)


def ffn_node(p):
    return ad.ffn(*(p[k] for k in ("x", "h", "w1", "b1", "w2", "b2")))


def rms_scale_node(p):
    return ad.rms_scale(p["x"], p["gain"])


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(rows=st.integers(1, 5), P=st.integers(1, 2), d=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_rms_scale_passes_grad_check_on_drawn_shapes(rows, P, d, seed):
    assert_grad_check_passes(rms_scale_node, drawn_values(seed, {"x": (rows, P, d), "gain": (d,)}),
                             h=1e-5)


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(rows=st.integers(1, 5), P=st.integers(1, 2),
       dims=st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 2)),
       seed=st.integers(0, 2**32 - 1))
def test_ffn_passes_grad_check_on_drawn_shapes(rows, P, dims, seed):
    """Every pre-activation lies 1e-5 or more from the relu's kink, beyond
    what a step of h = 1e-5 moves it."""
    arrays = drawn_values(seed, ffn_shapes((rows, P), *dims))
    assume(np.abs(arrays["h"] @ arrays["w1"] + arrays["b1"]).min() > 1e-5)
    assert_grad_check_passes(ffn_node, arrays, h=1e-5)


def drawn_op(op, data):
    """op as a node of a ParamStore and the shapes it reads, drawn by data."""
    dims = lambda n: data.draw(st.tuples(*[st.integers(1, 3)] * n), label="dims")
    if op in ("add", "sub", "mul"):  # b broadcasts against a, or a against b
        shape = dims(2)
        other = data.draw(st.sampled_from([shape, shape[1:], (1, shape[1]), (shape[0], 1)]),
                          label="other")
        a, b = (shape, other) if data.draw(st.booleans(), label="a full") else (other, shape)
        return lambda p: getattr(ad, op)(p["a"], p["b"]), {"a": a, "b": b}
    if op == "smul":
        c = data.draw(st.floats(-3.0, 3.0), label="c")
        return lambda p: ad.smul(p["a"], c), {"a": dims(2)}
    if op == "matmul":
        (m, k, n), s = dims(3), data.draw(st.integers(1, 3), label="batch")
        if data.draw(st.booleans(), label="batched"):  # b of rank 3: numpy's batched product
            a, b = data.draw(st.sampled_from([(s, m, k), (1, m, k), (m, k)]), label="a"), (s, k, n)
        else:  # b of rank 2: a's batch collapses into one GEMM
            a, b = data.draw(st.sampled_from([(m, k), (s, m, k)]), label="a"), (k, n)
        return lambda p: ad.matmul(p["a"], p["b"]), {"a": a, "b": b}
    if op in ("transpose", "l2_normalize", "sigmoid", "softplus", "exp", "relu", "clip_unit"):
        shape = dims(data.draw(st.integers(2, 3), label="rank"))
        return lambda p: getattr(ad, op)(p["a"]), {"a": shape}
    if op in ("tsum", "tmean", "logsumexp"):
        shape = dims(data.draw(st.integers(2, 3), label="rank"))
        axis = data.draw(st.sampled_from([0, 1, -1] + ([] if op == "logsumexp" else [None])),
                         label="axis")
        if op == "logsumexp":
            keepdims = data.draw(st.booleans(), label="keepdims")
            return lambda p: ad.logsumexp(p["a"], axis=axis, keepdims=keepdims), {"a": shape}
        return lambda p: getattr(ad, op)(p["a"], axis=axis), {"a": shape}
    if op == "tsum_rows":
        return lambda p: ad.tsum_rows(p["a"]), {"a": dims(2)}
    if op == "take_position":
        shape = dims(3)
        pos = data.draw(st.integers(0, shape[1] - 1), label="pos")
        return lambda p: ad.take_position(p["a"], pos), {"a": shape}
    if op == "stack":
        shape, n = dims(2), data.draw(st.integers(1, 3), label="parts")
        axis = data.draw(st.integers(0, 2), label="axis")
        return lambda p: ad.stack([p[f"a{i}"] for i in range(n)], axis=axis), \
            {f"a{i}": shape for i in range(n)}
    (V, d), idx = dims(2), data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=5), label="idx")
    idx = np.minimum(idx + idx[:1], V - 1)  # the first index again, so one repeats
    return lambda p: ad.gather_rows(p["t"], idx), {"t": (V, d)}


@pytest.mark.parametrize("op", ["add", "sub", "mul", "smul", "matmul", "transpose", "tsum",
                                "tsum_rows", "tmean", "take_position", "stack", "gather_rows",
                                "l2_normalize", "sigmoid", "softplus", "exp", "logsumexp",
                                "relu", "clip_unit"])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_every_op_passes_grad_check_on_drawn_shapes(op, seed, data):
    """Each op's adjoint against central differences on drawn shapes,
    broadcasts, axes and indices. Values have magnitudes in [0.1, 0.7]
    (drawn_values), so relu's kink at 0 and clip_unit's at ±1 stay beyond
    what a step of h = 1e-5 moves them."""
    node, shapes = drawn_op(op, data)
    assert_grad_check_passes(node, drawn_values(seed, shapes), h=1e-5)


def test_a_minus_inf_in_the_helpers_half_raises_the_dealt_ffns_error(monkeypatch):
    """A pretraining batch of B = 256 runs in two parts. The last row's ffn
    pre-activation overflows to -inf in the second part, which the helper
    runs: the caller raises ffn's NumericError."""
    monkeypatch.setattr(parallel, "cpu_workers", lambda: 2)
    rows = 256
    h = np.ones((rows, 1))
    h[-1] = -1e200
    store = ParamStore({"w1": np.array([[1e200]]), "b1": np.zeros(1), "w2": np.ones((1, 1)),
                        "b2": np.zeros(1)})
    ran_on = {}

    def part(a, b):
        ran_on[a] = threading.get_ident()
        return ad.ffn(ad.const(np.zeros((b - a, 1))), ad.const(h[a:b]), *(store[k] for k in
                                                                         ("w1", "b1", "w2", "b2")))

    def loss(p):
        return ad.tsum(ad.in_parts(rows, parallel.PRETRAIN_PART_ROWS, part, ()))

    with parallel.helpers(), pytest.raises(NumericError, match="^op 'ffn' produced non-finite values$"):
        ad.forward_backward(loss, store)
    assert sorted(ran_on) == [0, 128] and ran_on[0] == threading.get_ident() != ran_on[128]


def overflowing_heads(case):
    """Two heads (d = 2, dh = 1), the normed rows and the call's keep or
    spread, the second head made to fail."""
    ones = np.ones((2, 1))
    heads = [[ones * 0.5, ones * 0.5, ones, ones.T]] * 2
    h, options = np.ones((4, 2, 2)), {}
    if case == "v":  # its v projection overflows
        heads[1] = [ones, ones, ones * 1e308, ones.T]
    elif case == "scores":  # one score per row is -inf, which the softmax weighs 0
        heads[1] = [ones * 1e200, ones * -1e200, ones, ones.T]
        h[:, 1] = 0.0
    elif case == "sum":  # the heads' sum overflows
        heads = [[ones * 0.0, ones * 0.0, ones, ones.T * 0.45e308]] * 2
    elif case == "kept":
        # each v row is the largest double: the first six positions weigh
        # all seven by 1/7, whose rounded sum, 1 + 2**-52, overflows their
        # mixed rows; the kept seventh weighs only itself
        h = np.zeros((4, 7, 2))
        h[:, :, 0], h[:, 6, 1] = 1.0, 40.0
        axis = np.array([[0.0], [1.0]])
        heads[1] = [axis, axis, np.array([[np.finfo(np.float64).max], [0.0]]), ones.T * 1e-300]
        options = {"keep": 6}
    else:  # the query of h's last row overflows, and spread names only the first two
        h = np.array([[0.0, 1.0], [1.0, 0.0], [1e200, 0.0]])
        heads[1] = [np.array([[1e200], [0.0]]), ones, ones, ones.T]
        options = {"spread": np.tile([0, 1], (4, 1))}
    return h, heads, options


@pytest.mark.parametrize("case, op", [("v", "matmul"), ("scores", "matmul"), ("sum", "add"),
                                      ("kept", "matmul"), ("spread", "matmul")])
def test_attention_names_the_chain_op_that_fails_on_a_dealt_head(monkeypatch, case, op):
    """The second head fails: bare, under quiet and in forward_backward
    (spread rows record no tape, so those run bare and under quiet), the
    chain raises its op's NumericError text and the node its own. The
    scores, the rows the kept row drops and the rows spread drops are
    values the node's next step would hide: without its checks its output
    is finite."""
    h, heads, options = overflowing_heads(case)
    names = [f"{w}{i}" for i in range(2) for w in ("wq", "wk", "wv", "wo")]
    store = ParamStore({"x": np.zeros(h.shape), "h": h,
                        **dict(zip(names, (w for head in heads for w in head)))})
    taped = "spread" not in options
    for call, name in ((ad.attention, "attention"), (attention_chain, op)):
        message = f"^op '{name}' produced non-finite values$"
        with warnings.catch_warnings(), contextlib.nullcontext() if taped else ad.no_grad():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericError, match=message):
                call(store["x"], store["h"], head_weights(store, 2), **options)
            with pytest.raises(NumericError, match=message):
                ad.quiet(lambda: ad.tsum(call(store["x"], store["h"],
                                              head_weights(store, 2), **options)))()
            if taped:
                with pytest.raises(NumericError, match=message):
                    ad.forward_backward(lambda p: ad.tsum(
                        call(p["x"], p["h"], head_weights(p, 2), **options)), store)
    if case in ("scores", "kept", "spread"):
        monkeypatch.setattr(ad, "_stage", lambda op, value: None)
        with ad.no_grad(), np.errstate(all="ignore"):
            assert np.all(np.isfinite(
                ad.attention(store["x"], store["h"], head_weights(store, 2), **options).data))


def test_attention_refuses_spread_rows_on_a_tape():
    rows = ad.const(np.ones((2, 4)))
    heads = [[ad.const(np.ones((4, 2)))] * 3 + [ad.const(np.ones((2, 4)))]]
    with pytest.raises(ShapeError, match="no_grad"):
        ad.attention(rows, rows, heads, spread=np.zeros((3, 2), dtype=np.int64))
    with ad.no_grad():
        assert ad.attention(rows, rows, heads, spread=np.zeros((3, 2), dtype=np.int64)).shape \
            == (3, 2, 4)
        with pytest.raises(ShapeError, match="attention"):
            ad.attention(rows, rows, heads, spread=np.full((3, 2), 2))


@pytest.mark.parametrize("h,w1,b1,op", [
    ([[-1e200], [1.0]], [[1e200, 1.0]], [0.0, 0.0], "matmul"),  # the product overflows
    ([[-1.0], [1.0]], [[1e308, 1.0]], [-1e308, 0.0], "add"),  # the bias add does
])
def test_a_minus_inf_before_the_fused_relu_raises_inside_and_outside_a_scope(h, w1, b1, op):
    """relu maps -inf to 0, after which the FFN's output is finite: the
    chain names the op that made the -inf and the fused node itself,
    bare, under quiet and in forward_backward. Without its checks the
    node's output is finite."""
    store = ParamStore({"w1": np.array(w1), "b1": np.array(b1), "w2": np.ones((2, 1)),
                        "b2": np.zeros(1)})
    x, h = ad.const(np.zeros((2, 1))), ad.const(np.array(h))
    names = ("w1", "b1", "w2", "b2")
    for ffn, name in ((ad.ffn, "ffn"), (composite_ffn, op)):
        message = f"^op '{name}' produced non-finite values$"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericError, match=message):
                ffn(x, h, *(store[k] for k in names))
            with pytest.raises(NumericError, match=message):
                ad.quiet(lambda: ad.tsum(ffn(x, h, *(store[k] for k in names))))()
            with pytest.raises(NumericError, match=message):
                ad.forward_backward(lambda p: ad.tsum(ffn(x, h, *(p[k] for k in names))), store)
    with mock.patch.object(ad, "_stage", lambda op, value: None):
        assert np.all(np.isfinite(ad.ffn(x, h, *(store[k] for k in names)).data))


def test_rms_scale_takes_one_gain_per_column():
    with pytest.raises(ShapeError, match=r"gain must be \(3,\)"):
        ad.rms_scale(ad.const(np.ones((2, 3))), ad.const(np.ones((2, 3))))


def test_l2_normalize_rescales_a_row_whose_squares_overflow():
    got = ad.l2_normalize(ad.const([[1e200, 1.0], [3.0, 4.0]])).data
    assert got.tobytes() == np.array([[1.0, 1e-200], [0.6, 0.8]]).tobytes()


@pytest.mark.parametrize("k", [10, 520, 600, 1000])
def test_l2_normalize_of_a_row_scaled_by_a_power_of_two_is_exact(k):
    """Its value stays and its adjoint scales by the inverse, bit for bit,
    whether the row's squares overflow (k >= 512 here) or not."""
    rows = np.array([[3.0, -4.0, 0.5], [1.25, 0.0, -2.0], [0.1, 0.2, 0.3]])
    weight = stream(17, "w").normal(size=rows.shape)

    def run(x):
        store = ParamStore({"x": x})
        _, grads = ad.forward_backward(
            lambda p: ad.tsum(ad.mul(ad.l2_normalize(p["x"]), ad.const(weight))), store)
        return ad.l2_normalize(ad.const(x)).data, grads["x"]

    want_y, want_g = run(rows)
    y, g = run(rows * 2.0**k)
    assert y.tobytes() == want_y.tobytes()
    assert g.tobytes() == (want_g * 2.0**-k).tobytes()


@pytest.mark.parametrize("op", ["rms_scale", "ffn", "attention"])
def test_the_gradcheck_suite_fails_when_a_fused_adjoint_is_scaled(op):
    with ad.adjoint_fault(op, 2.0) as fault:
        assert not vf.suite_gradcheck().passed
    assert fault.ran


def test_a_negative_control_that_never_runs_fails_the_gradcheck_suite(monkeypatch):
    assert vf.suite_gradcheck().passed
    assert vf.CONTROL_OP == ("ffn", "attention", "candidate_terms")
    control = vf.suite_gradcheck(negative_control=True)  # each op ran, and its fault failed
    assert not control.passed and control.worst < float("inf")
    assert [part.split(":")[0] for part in control.detail.split("; ")] \
        == ["'ffn' faulted", "'attention' faulted", "'candidate_terms' faulted"]
    monkeypatch.setattr(vf, "CONTROL_OP", ("relu", "candidate_terms"))  # no route calls relu
    control = vf.suite_gradcheck(negative_control=True)
    assert not control.passed and control.worst == float("inf")
    assert "the faulted op 'relu' never ran" in control.detail
    monkeypatch.setattr(vf, "CONTROL_OP", ("attention", "candidate_terms"))
    monkeypatch.setattr(vf, "ModelConfig", lambda **kw: md.ModelConfig(**{**kw, "blocks": 0}))
    control = vf.suite_gradcheck(negative_control=True)  # a model without blocks attends nowhere
    assert not control.passed and control.worst == float("inf")
    assert control.detail.split("; ")[0] == "the faulted op 'attention' never ran"
    monkeypatch.setattr(vf, "ModelConfig", md.ModelConfig)
    monkeypatch.setattr(vf, "CONTROL_OP", ("candidate_terms",))
    fault = ad.adjoint_fault
    monkeypatch.setattr(ad, "adjoint_fault", lambda op, scale: fault(op, 1.0))  # faults nothing
    control = vf.suite_gradcheck(negative_control=True)
    assert not control.passed and control.worst == float("inf")
    assert control.detail == "the faulted op 'candidate_terms' passed"
