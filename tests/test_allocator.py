"""The malloc settings fixed at import: page faults per big step, one arena, fallbacks, fingerprint."""

import ctypes
import os
import resource
import subprocess
import sys
import tracemalloc

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


def test_a_b2048_fine_tune_backward_peaks_near_what_its_forward_holds(default_model_and_rows):
    """The tape keeps only the arrays its adjoints read, so the forward holds
    about 88 MB (149 MB when every node kept its parents' values), and the
    parts' walks, each part summing its own gradients as it walks, set
    backward's peak at about 97 MB."""
    model, tokens = default_model_and_rows
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = ad.quiet(lambda: sft_loss(model, tokens[:2048]))()
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        for _, tensor in model.params.items():
            tensor.grad = None
    assert held <= 110e6, held
    assert peak <= 110e6, peak


@glibc_only
def test_4096_row_scoring_chunk_reuses_freed_memory(default_model_and_rows):
    model, tokens = default_model_and_rows

    def score():
        md.ctr_score(model, tokens)

    score()
    score()
    assert _minor_faults(score) < 250


# The fresh processes below report how far their peak RSS rose. The peak
# is VmHWM, which exec resets: ru_maxrss keeps the spawning process's peak
# across exec, so after a large test it reads no growth at all.
_PEAK_KIB = """
def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
"""
has_vmhwm = pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")

# One B=2048 fine-tune step, then 12 scoring chunks of 4096 rows on two
# threads; prints how far the peak RSS (KiB) rose while scoring.
_SCORE_AFTER_FINETUNE = _PEAK_KIB + """
import diffctr.autodiff as ad
from diffctr import data as dd
from diffctr import model as md
from diffctr import parallel
from diffctr.losses import sft_loss
from diffctr.optim import adam_step

parallel.cpu_workers = lambda: 2
spec = dd.random_spec(num_fields=8, vocab=50, samples=4096, seed=3)
ds, _ = dd.generate_synthetic(spec)
model, tokens = md.Model.init(md.ModelConfig(), ds.schema, 0), ds.token_matrix()
_, grads = ad.forward_backward(lambda params: sft_loss(model, tokens[:2048]), model.params)
adam_step(model.params, grads)
del grads
before = peak_kib()
for _ in range(12):
    md.ctr_score(model, tokens)
print(peak_kib() - before)
"""


@glibc_only
@has_vmhwm
def test_scoring_threads_reuse_the_heap_fine_tuning_freed():
    """With one malloc arena the scoring helper thread allocates from the
    main heap; with an arena of its own, peak RSS grew by about 26 MB."""
    src = os.path.dirname(os.path.dirname(md.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _SCORE_AFTER_FINETUNE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 10 * 1024


# 20 Adam steps on two threads on the wide-vocab store (8 fields, V=2000,
# the default model: 1.04M floats); prints the store's size in floats and
# how far the peak RSS (KiB) rose over the steps, first step included.
_ADAM_AT_WIDE_VOCAB = _PEAK_KIB + """
import numpy as np
from diffctr import data as dd
from diffctr import model as md
from diffctr import parallel
from diffctr.optim import adam_step

parallel.cpu_workers = lambda: 2
store = md.Model.init(md.ModelConfig(), dd.feature_schema([2000] * 8), 0).params
rng = np.random.default_rng(0)
grads = {n: rng.normal(size=t.data.shape) for n, t in store.items()}
before = peak_kib()
for _ in range(20):
    adam_step(store, grads)
print(sum(t.data.size for _, t in store.items()), peak_kib() - before)
"""


@glibc_only
@has_vmhwm
def test_adam_steps_at_wide_vocab_make_no_full_size_copy():
    """Adam's moments are written for the first time in the first step, so
    the peak may grow by their 2 x 8 bytes per float. Beyond that the
    steps need only the two threads' block scratch (2 x 1.5 MB), so the bound
    allows 4 MiB: one full-size copy of the gradients (8 MB) exceeds it."""
    src = os.path.dirname(os.path.dirname(md.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _ADAM_AT_WIDE_VOCAB], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    floats, grown_kib = (int(x) for x in proc.stdout.split())
    assert floats > 1_000_000
    assert grown_kib < 2 * 8 * floats / 1024 + 4 * 1024


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


@pytest.mark.parametrize("results, calls", [((0,), 1), ((1, 0), 2), ((1, 1, 0), 3)])
def test_refused_threshold_reports_default(monkeypatch, results, calls):
    lib = _FakeLib(results)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: lib)
    assert diffctr._fix_malloc_thresholds() is False
    assert len(lib.calls) == calls


def test_both_thresholds_are_set_to_fixed_values(monkeypatch):
    lib = _FakeLib((1, 1, 1))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: lib)
    assert diffctr._fix_malloc_thresholds() is True
    assert lib.calls == [(-3, 32 << 20), (-1, 1 << 30), (-8, 1)]


def test_second_call_is_harmless():
    before = diffctr._ALLOCATOR
    assert diffctr._fix_malloc_thresholds() is (before == "glibc-fixed")
    assert diffctr._ALLOCATOR == before


def test_fingerprint_reports_the_allocator():
    expected = "glibc-fixed" if _has_mallopt() else "default"
    assert _build_fingerprint()["allocator"] == expected == diffctr._ALLOCATOR
