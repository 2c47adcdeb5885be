"""numpy's bundled OpenBLAS is pinned to one thread at import, whatever the environment says."""

import ctypes
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import diffctr
from diffctr.train import _build_fingerprint

LIBS = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
bundled = pytest.mark.skipif(
    not os.path.isdir(LIBS) or not any(n.startswith("libscipy_openblas") for n in os.listdir(LIBS)),
    reason="numpy bundles no scipy-openblas library")

# Prints OpenBLAS's thread count before and after importing diffctr, then
# the count import reported.
_COUNT_AROUND_IMPORT = """
import ctypes, os
import numpy as np
libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
name = min(n for n in os.listdir(libs) if n.startswith("libscipy_openblas"))
count = ctypes.CDLL(os.path.join(libs, name)).scipy_openblas_get_num_threads64_
before = count()
import diffctr
from diffctr.train import _build_fingerprint
print(before, count(), diffctr._BLAS_THREADS, _build_fingerprint()["blas_threads"])
"""


def run_python(code: str, **env_vars) -> list[str]:
    src = os.path.dirname(os.path.dirname(diffctr.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=src, **env_vars)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@bundled
def test_import_pins_openblas_to_one_thread():
    """Unset, OpenBLAS starts a thread per CPU (two on a 2-CPU host)."""
    before, after, reported, fingerprint = run_python(_COUNT_AROUND_IMPORT)
    assert int(before) >= 1
    assert (after, reported, fingerprint) == ("1", "1", "1")


@bundled
def test_an_explicit_thread_count_is_overridden():
    before, after, reported, _ = run_python(_COUNT_AROUND_IMPORT, OPENBLAS_NUM_THREADS="2")
    assert (before, after, reported) == ("2", "1", "1")


def test_without_the_bundled_library_import_changes_nothing_and_says_so():
    code = ("import os\nreal = os.listdir\n"
            "os.listdir = lambda path: [] if path.endswith('numpy.libs') else real(path)\n"
            "import diffctr\nfrom diffctr.train import _build_fingerprint\n"
            "print(diffctr._BLAS_THREADS, _build_fingerprint()['blas_threads'])\n")
    assert run_python(code) == ["None", "unpinned"]


def test_no_numpy_libs_directory_is_a_silent_no_op(monkeypatch):
    def missing(path):
        raise FileNotFoundError(path)

    monkeypatch.setattr(os, "listdir", missing)
    assert diffctr._pin_blas_threads() is None


def test_a_library_without_the_calls_is_a_silent_no_op(monkeypatch):
    monkeypatch.setattr(os, "listdir", lambda path: ["libscipy_openblas64_-0.so"])
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    assert diffctr._pin_blas_threads() is None


def test_fingerprint_reports_the_blas_threads():
    expected = "unpinned" if diffctr._BLAS_THREADS is None else diffctr._BLAS_THREADS
    assert _build_fingerprint()["blas_threads"] == expected


# One B=2048 fine-tune step of the default model; prints a hash of its loss
# and gradients.
_FINE_TUNE_STEP_HASH = """
import hashlib
import numpy as np
from diffctr import autodiff as ad, data as dd, model as md
from diffctr.losses import sft_loss
spec = dd.random_spec(num_fields=8, vocab=50, samples=2048, seed=3)
ds, _ = dd.generate_synthetic(spec)
model = md.Model.init(md.ModelConfig(), ds.schema, 0)
loss, grads = ad.forward_backward(lambda p: sft_loss(model, ds.token_matrix()), model.params)
h = hashlib.sha256(np.float64(loss).tobytes())
for name in sorted(grads):
    h.update(grads[name].tobytes())
print(h.hexdigest())
"""


def test_a_fine_tune_step_is_bit_identical_whatever_the_environment_asks():
    """Import pins OpenBLAS to one thread, so a B=2048 step with the variable
    unset (a thread per CPU) and set to 2 hash the same loss and gradients."""
    unset = run_python(_FINE_TUNE_STEP_HASH)
    assert run_python(_FINE_TUNE_STEP_HASH, OPENBLAS_NUM_THREADS="2") == unset


@bundled
@pytest.mark.skipif(platform.machine() != "x86_64", reason="Haswell is an x86-64 kernel")
def test_fingerprint_names_the_kernel_openblas_runs():
    """OPENBLAS_CORETYPE picks another kernel; the fingerprint reads the one in use."""
    code = ("from diffctr.train import _build_fingerprint\n"
            "print(_build_fingerprint()['blas_core'])\n")
    assert run_python(code, OPENBLAS_CORETYPE="Haswell") == ["Haswell"]
    assert _build_fingerprint()["blas_core"] == diffctr._BLAS_CORE != "unknown"


def test_a_library_without_the_core_name_reads_unknown(monkeypatch):
    monkeypatch.setattr(os, "listdir", lambda path: ["libscipy_openblas64_-0.so"])
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    assert diffctr._blas_core() == "unknown"
    monkeypatch.setattr(os, "listdir", lambda path: [])
    assert diffctr._blas_core() == "unknown"


def test_fingerprint_lists_numpys_enabled_simd_targets():
    from numpy._core._multiarray_umath import __cpu_dispatch__

    simd = _build_fingerprint()["simd"]
    assert simd == diffctr._SIMD and set(simd.split()) <= set(__cpu_dispatch__)
    if "X86_V3" in simd.split():  # turning a target off drops it and what builds on it
        code = "from diffctr.train import _build_fingerprint\nprint(_build_fingerprint()['simd'])\n"
        assert run_python(code, NPY_ENABLE_CPU_FEATURES="X86_V2 X86_V3") == ["X86_V3"]
