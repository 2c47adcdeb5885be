"""The malloc thresholds fixed at import: page faults per big step, fallbacks, fingerprint."""

import ctypes
import resource

import pytest

import diffctr
import diffctr.autodiff as ad
from diffctr import data as dd
from diffctr import model as md
from diffctr.losses import sft_loss
from diffctr.optim import adam_step
from diffctr.train import _build_fingerprint


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL("libc.so.6"), "mallopt")
    except OSError:
        return False


glibc_only = pytest.mark.skipif(not _has_mallopt(), reason="glibc mallopt not available")


@pytest.fixture(scope="module")
def default_model_and_rows():
    spec = dd.random_spec(num_fields=8, vocab=50, samples=4096, seed=3)
    ds, _ = dd.generate_synthetic(spec)
    return md.Model.init(md.ModelConfig(), ds.schema, 0), ds.token_matrix()


def _minor_faults(fn) -> int:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@glibc_only
def test_finetune_step_at_b2048_reuses_freed_memory(default_model_and_rows):
    model, tokens = default_model_and_rows
    batch = tokens[:2048]

    def step():
        _, grads = ad.forward_backward(lambda params: sft_loss(model, batch), model.params)
        adam_step(model.params, grads)

    step()
    step()
    assert _minor_faults(step) < 1000


@glibc_only
def test_4096_row_scoring_chunk_reuses_freed_memory(default_model_and_rows):
    model, tokens = default_model_and_rows

    def score():
        md.ctr_score(model, tokens)

    score()
    score()
    assert _minor_faults(score) < 250


class _FakeLib:
    def __init__(self, results):
        self.calls = []
        self._results = iter(results)

        def mallopt(param, value):
            self.calls.append((param, value))
            return next(self._results)

        self.mallopt = mallopt


def test_no_loadable_libc_is_a_silent_no_op(monkeypatch):
    def missing(name):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", missing)
    assert diffctr._fix_malloc_thresholds() is False


def test_libc_without_mallopt_is_a_silent_no_op(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert diffctr._fix_malloc_thresholds() is False


@pytest.mark.parametrize("results, calls", [((0,), 1), ((1, 0), 2)])
def test_refused_threshold_reports_default(monkeypatch, results, calls):
    lib = _FakeLib(results)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: lib)
    assert diffctr._fix_malloc_thresholds() is False
    assert len(lib.calls) == calls


def test_both_thresholds_are_set_to_fixed_values(monkeypatch):
    lib = _FakeLib((1, 1))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: lib)
    assert diffctr._fix_malloc_thresholds() is True
    assert lib.calls == [(-3, 32 << 20), (-1, 1 << 30)]


def test_second_call_is_harmless():
    before = diffctr._ALLOCATOR
    assert diffctr._fix_malloc_thresholds() is (before == "glibc-fixed")
    assert diffctr._ALLOCATOR == before


def test_fingerprint_reports_the_allocator():
    expected = "glibc-fixed" if _has_mallopt() else "default"
    assert _build_fingerprint()["allocator"] == expected == diffctr._ALLOCATOR
