"""Check-once scopes: a non-finite value planted in any op's output, on any
route, raises the same NumericError as checking every node would."""

import sys
import threading
import warnings
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diffctr import autodiff as ad
from diffctr import data as dd
from diffctr import losses as ls
from diffctr import model as md
from diffctr import parallel
from diffctr.errors import NumericError
from diffctr.optim import ParamStore
from diffctr.rng import stream
from diffctr.schedule import build_schedule

# every op a route can call, wrapped by name on the autodiff module, so
# the model's composites (_cosine_logits, _target_columns, ...) reach the wrappers too
OPS = ["const", "add", "sub", "mul", "smul", "matmul", "transpose", "relu", "exp", "sigmoid",
       "softplus", "tsum", "tsum_rows", "tmean", "gather_rows", "take_position", "stack",
       "l2_normalize", "logsumexp", "clip_unit", "join_rows", "rms_scale", "attention", "ffn",
       "candidate_terms"]

DATA, _ = dd.generate_synthetic(dd.random_spec(num_fields=3, vocab=6, clusters=2, samples=64,
                                                seed=5))
TOKENS = DATA.token_matrix()[:40]
MODEL = md.Model.init(md.ModelConfig(embed_dim=8, blocks=1, heads=2, ffn_width=16), DATA.schema, 0)
SCHEDULE = build_schedule(3, lo=0.2, hi=0.9, label_lo=0.5, horizon=50)


def pretrain_route():
    ad.forward_backward(lambda p: ls.pretrain_loss(MODEL, TOKENS[:16], SCHEDULE, stream(1, "c")),
                        MODEL.params)


def sft_route():
    ad.forward_backward(lambda p: ls.sft_loss(MODEL, TOKENS), MODEL.params)


def score_route():
    md.ctr_score(MODEL, TOKENS)


ROUTES = {"pretrain": pretrain_route, "sft": sft_route, "score": score_route}


class Planter:
    """Counts each op's calls per site and plants a value in one call's output.

    A thread's site is "call" from the start of graph_fn or of the
    label_logit_diff call in ctr_score's scope, then the row part it last
    entered (keyed by the part's first row in the label-masked batch);
    each part runs on one thread, and a thread runs its parts in a fixed
    order. Entering a site restarts its counts, so a replay of the route,
    or of a part inside it, meets the same planted call again.
    """

    def __init__(self, target=None, value=None, where=0, workers=2):
        self.target, self.value, self.where, self.workers = target, value, where, workers
        self.counts: dict = {}  # site -> Counter of op calls, each site on one thread
        self.calls: list[tuple] = []  # (site, op, index, size) of every call seen
        self.local = threading.local()

    def enter(self, site) -> None:
        self.local.site = site
        self.counts[site] = Counter()

    def wrap(self, name, real):
        def op(*args, **kwargs):
            out = real(*args, **kwargs)
            site = getattr(self.local, "site", "call")
            counts = self.counts.setdefault(site, Counter())
            index = counts[name]
            counts[name] += 1
            self.calls.append((site, name, index, out.data.size))
            if (site, name, index) != self.target:
                return out
            data = out.data.copy()
            data.flat[self.where % data.size] = self.value
            # the same node, made again from the planted value: an op's node
            # has parents, which no_grad strips only after the check is decided
            inputs = [a for a in args if isinstance(a, ad.Tensor)]
            inputs += [t for a in args if isinstance(a, list) for t in a]
            return ad.Tensor(data, op=out.op, parents=out.parents or inputs, vjp=out.node.vjp)

        return op

    @contextmanager
    def installed(self):
        saved = {name: getattr(ad, name) for name in OPS}
        part, logit = md._part_logit_diff, md.label_logit_diff
        part_rows, workers = parallel.PART_ROWS, parallel.cpu_workers
        fb = ad.forward_backward

        def part_spy(model, rows, *shared):  # every part of either route
            self.enter((rows.__array_interface__["data"][0]
                        - rows.base.__array_interface__["data"][0]) // rows.strides[0])
            return part(model, rows, *shared)

        def score_call(model, tokens):  # ctr_score's scope calls it again when it replays
            self.enter("call")
            return logit(model, tokens)

        def forward_backward(graph_fn, params):
            def graph(p):
                self.enter("call")
                return graph_fn(p)

            return fb(graph, params)

        try:
            for name, real in saved.items():
                setattr(ad, name, self.wrap(name, real))
            md._part_logit_diff, md.label_logit_diff = part_spy, score_call
            ad.forward_backward = forward_backward
            parallel.PART_ROWS, parallel.cpu_workers = 8, lambda: self.workers  # 5 parts
            yield self
        finally:
            for name, real in saved.items():
                setattr(ad, name, real)
            md._part_logit_diff, md.label_logit_diff = part, logit
            ad.forward_backward = fb
            parallel.PART_ROWS, parallel.cpu_workers = part_rows, workers


def outcome(route, planter, strict):
    """(exception type, message) of one run of route, or None if it returns."""
    with planter.installed():
        ad._checks.set(ad._STRICT if strict else None)
        try:
            ROUTES[route]()
        except Exception as e:
            return type(e), str(e)
        finally:
            ad._checks.set(None)
    return None


def route_calls(route):
    planter = Planter()
    assert outcome(route, planter, strict=False) is None
    return sorted({(site, name, index) for site, name, index, size in planter.calls if size},
                  key=str)


CALLS = {route: route_calls(route) for route in ROUTES}


def test_every_route_reaches_the_ops_that_can_hide_a_value():
    for route in ROUTES:
        names = {name for _, name, _ in CALLS[route]}
        assert {"ffn", "attention", "rms_scale", "gather_rows"} <= names
        # the FFN's relu is in ffn, and the softmax's exp in attention
        assert not {"relu", "exp"} & names
    # the pretraining loss is one node, which checks its inputs and its cosines
    pretrain = {name for _, name, _ in CALLS["pretrain"]}
    assert {"candidate_terms", "matmul"} <= pretrain
    assert not {"clip_unit", "logsumexp", "take_position"} & pretrain
    for route in ("sft", "score"):
        names = {name for _, name, _ in CALLS[route]}
        assert "clip_unit" in names and "take_position" not in names  # its slices are in attention
    assert {"sigmoid"} <= {name for _, name, _ in CALLS["score"]}
    assert {"softplus", "join_rows"} <= {name for _, name, _ in CALLS["sft"]}
    for route in ("sft", "score"):
        assert {site for site, _, _ in CALLS[route]} == {"call", 0, 8, 16, 24, 32}


OP_NAME = {"tsum": "sum", "tsum_rows": "sum", "tmean": "mean"}  # Tensor.op where it differs


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(route=st.sampled_from(sorted(ROUTES)), data=st.data(),
       value=st.sampled_from([np.inf, -np.inf, np.nan]), where=st.integers(0, 2**16))
def test_a_planted_value_raises_as_checking_every_node_would(route, data, value, where):
    target = data.draw(st.sampled_from(CALLS[route]), label="call")
    threads_before = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        once = outcome(route, Planter(target, value, where), strict=False)
        strict = outcome(route, Planter(target, value, where), strict=True)
    name = OP_NAME.get(target[1], target[1])
    assert strict == (NumericError, f"op '{name}' produced non-finite values")
    assert once == strict
    assert threading.active_count() == threads_before


def test_parts_on_more_threads_than_cpus_raise_alike_under_thread_switches():
    """Five parts on four threads switching every microsecond: the parts share
    label_logit_diff's shared nodes, whose deferred checks any of them may run first."""
    threads_before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for target in [("call", "l2_normalize", 0), (24, "matmul", 3), (32, "ffn", 0)]:
            for route in ("sft", "score"):
                want = outcome(route, Planter(target, -np.inf, 5, workers=4), strict=True)
                for _ in range(5):
                    assert outcome(route, Planter(target, -np.inf, 5, workers=4),
                                   strict=False) == want
        assert outcome("sft", Planter(workers=4), strict=False) is None
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads_before


def test_a_failing_call_runs_again_with_every_node_checked():
    store = ParamStore({"w": np.array([1e10, 2.0])})
    modes = []

    def graph(p):
        modes.append(ad._checks.get())
        return ad.tsum(ad.clip_unit(ad.smul(p["w"], 1e300)))  # clip_unit maps the inf to 1

    with pytest.raises(NumericError, match="^op 'smul' produced non-finite values$") as caught:
        ad.forward_backward(graph, store)
    assert type(caught.value) is NumericError
    assert modes == [ad._ONCE, ad._STRICT]
    assert ad._checks.get() is None
    modes.clear()
    store.set_data("w", np.array([1.0, 2.0]))
    ad.forward_backward(graph, store)
    assert modes == [ad._ONCE]


def test_nodes_defer_their_check_only_inside_a_scope():
    w = ParamStore({"w": np.ones((2, 2))})["w"]
    made = []

    def graph():
        made.extend([ad.const(np.ones(2)), ad.add(w, w)])
        made.append(ad.tsum(made[1]))
        return made[2]

    graph()
    assert all(t.checked for t in made)
    made.clear()
    ad.scoped(graph)()
    const, interior, out = made
    assert const.checked and out.checked  # a leaf checks itself; the scope checks its output
    assert not interior.checked  # left to the ops that could hide a non-finite value


def test_a_replay_that_finds_only_finite_values_keeps_the_first_error():
    """fn computes other values when it runs again, so the replay raises nothing."""
    runs = []

    def fn():
        runs.append(ad._checks.get())
        x = np.array([-np.inf, 1.0]) if len(runs) == 1 else np.zeros(2)
        return ad.relu(ad.Tensor(x, op="made-up", parents=(ad.const(0.0),)))

    with pytest.raises(NumericError, match="^op 'made-up' produced non-finite values$") as caught:
        ad.scoped(fn)()
    assert type(caught.value) is NumericError
    assert runs == [ad._ONCE, ad._STRICT]
