"""Every node checks its own value: a non-finite value planted in any op's
output, or in ffn's weights, on any route, raises the NumericError of the
op that made it, on every run alike."""

import sys
import threading
import warnings
from collections import Counter
from contextlib import contextmanager

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from diffctr import autodiff as ad
from diffctr import data as dd
from diffctr import losses as ls
from diffctr import model as md
from diffctr import parallel
from diffctr.errors import NumericError
from diffctr.rng import stream
from diffctr.schedule import build_schedule

# every op a route can call, wrapped by name on the autodiff module, so
# the model's composites (_cosine_logits, _target_columns, ...) reach the wrappers too
OPS = ["const", "add", "sub", "mul", "smul", "matmul", "transpose", "relu", "exp", "sigmoid",
       "softplus", "tsum", "tsum_rows", "tmean", "gather_rows", "take_position", "stack",
       "l2_normalize", "logsumexp", "clip_unit", "join_rows", "rms_scale", "attention", "ffn",
       "candidate_terms"]
# the weights ffn reads in every row, by argument position: a -inf in b1
# reaches a pre-activation the relu maps to 0
WEIGHTS = {"ffn": (2, 3, 4, 5)}

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
    """Counts each op's calls per site and plants a value in one call's output
    or, for ffn, in one of the weights it reads.

    A target is (site, op, index, argument): the index-th call of op at
    site, and the argument position it plants in, or None for the
    output. A thread's site is "call" from the start of graph_fn or of
    the label_logit_diff call in ctr_score, then the row part it last
    entered (keyed by the part's first row in the label-masked batch);
    each part runs on one thread, and a thread runs its parts in a fixed
    order.
    """

    def __init__(self, target=None, value=None, where=0, workers=2):
        self.target, self.value, self.where, self.workers = target, value, where, workers
        self.counts: dict = {}  # site -> Counter of op calls, each site on one thread
        self.calls: list[tuple] = []  # (site, op, index, argument, size) of every plant site
        self.local = threading.local()

    def enter(self, site) -> None:
        self.local.site = site
        self.counts[site] = Counter()

    def plant(self, data):
        data = data.copy()
        data.flat[self.where % data.size] = self.value
        return data

    def wrap(self, name, real):
        def op(*args, **kwargs):
            site = getattr(self.local, "site", "call")
            counts = self.counts.setdefault(site, Counter())
            index = counts[name]
            counts[name] += 1
            args = list(args)
            for k in WEIGHTS.get(name, ()):
                self.calls.append((site, name, index, k, args[k].data.size))
                if (site, name, index, k) == self.target:
                    # the weight's node with a planted value that no check has seen
                    weight, args[k] = args[k], object.__new__(ad.Tensor)
                    args[k].data, args[k].node = self.plant(weight.data), weight.node
            out = real(*args, **kwargs)
            self.calls.append((site, name, index, None, out.data.size))
            if (site, name, index, None) != self.target:
                return out
            # the same node, made again from the planted value, with the op's
            # inputs as its parents when no_grad has dropped them
            inputs = [a.node for a in args if isinstance(a, ad.Tensor)]
            inputs += [t.node for a in args if isinstance(a, list) for t in a
                       if isinstance(t, ad.Tensor)]
            return ad.Tensor(self.plant(out.data), op=out.op, parents=out.parents or inputs,
                             vjp=out.node.vjp)

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

        def score_call(model, tokens):  # ctr_score's one call
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


def outcome(route, planter):
    """(exception type, message) of one run of route, or None if it returns."""
    with planter.installed():
        try:
            ROUTES[route]()
        except Exception as e:
            return type(e), str(e)
    return None


def route_calls(route):
    planter = Planter()
    assert outcome(route, planter) is None
    return sorted({call[:4] for call in planter.calls if call[4]}, key=str)


CALLS = {route: route_calls(route) for route in ROUTES}


def test_every_route_reaches_the_ops_that_can_hide_a_value():
    for route in ROUTES:
        names = {name for _, name, _, _ in CALLS[route]}
        assert {"ffn", "attention", "rms_scale", "gather_rows"} <= names
        # the FFN's relu is in ffn, and the softmax's exp in attention
        assert not {"relu", "exp"} & names
        assert {k for _, name, _, k in CALLS[route] if name == "ffn"} == {None, 2, 3, 4, 5}
    # the pretraining loss is one node, which checks its cosines
    pretrain = {name for _, name, _, _ in CALLS["pretrain"]}
    assert {"candidate_terms", "matmul"} <= pretrain
    assert not {"clip_unit", "logsumexp", "take_position"} & pretrain
    for route in ("sft", "score"):
        names = {name for _, name, _, _ in CALLS[route]}
        assert "clip_unit" in names and "take_position" not in names  # its slices are in attention
    assert {"sigmoid"} <= {name for _, name, _, _ in CALLS["score"]}
    assert {"softplus", "join_rows"} <= {name for _, name, _, _ in CALLS["sft"]}
    for route in ("sft", "score"):
        assert {site for site, _, _, _ in CALLS[route]} == {"call", 0, 8, 16, 24, 32}


OP_NAME = {"tsum": "sum", "tsum_rows": "sum", "tmean": "mean"}  # Tensor.op where it differs


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from([(route, call) for route in sorted(ROUTES) for call in CALLS[route]]),
       value=st.sampled_from([np.inf, -np.inf, np.nan]), where=st.integers(0, 2**16))
@example(case=("pretrain", ("call", "ffn", 0, 3)), value=-np.inf, where=1)  # the relu zeroes it
def test_a_planted_value_raises_as_checking_every_node_would(case, value, where):
    route, target = case
    threads_before = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        first = outcome(route, Planter(target, value, where))
        again = outcome(route, Planter(target, value, where))
    name = OP_NAME.get(target[1], target[1])
    assert first == (NumericError, f"op '{name}' produced non-finite values")
    assert again == first
    assert threading.active_count() == threads_before


def test_parts_on_more_threads_than_cpus_raise_alike_under_thread_switches():
    """Five parts on four threads switching every microsecond: the parts share
    label_logit_diff's shared nodes, and whichever raises first raises the
    same error."""
    threads_before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for target in [("call", "l2_normalize", 0, None), (24, "matmul", 1, None),
                       (32, "ffn", 0, None), (16, "ffn", 0, 3)]:
            name = target[1]
            for route in ("sft", "score"):
                assert target in CALLS[route]
                for _ in range(5):
                    assert outcome(route, Planter(target, -np.inf, 5, workers=4)) == (
                        NumericError, f"op '{name}' produced non-finite values")
        assert outcome("sft", Planter(workers=4)) is None
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads_before
