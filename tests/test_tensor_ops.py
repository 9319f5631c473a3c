import json
import os
import platform
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from atcnn import reference
from atcnn.errors import ShapeError
from atcnn.tensor_ops import (BLAS_CORE, _tune_malloc, conv_output_length, heap_reuse,
                               im2col_batch)


class TestIm2col:
    """One input, lowered as a batch of one; x[None, None] adds batch and channel axes."""

    def test_length6_kernel3_stride2(self):
        # floor((6-3)/2)+1 = 2 columns of 3 values
        cols = im2col_batch(np.arange(6.0)[None, None], (3,), (2,), (1,))[0]
        assert cols.shape == (3, 2)
        assert cols.T.tolist() == [[0, 1, 2], [2, 3, 4]]

    def test_kernel1_is_identity_lowering(self):
        x = np.arange(8.0)
        cols = im2col_batch(x[None, None], (1,), (1,), (1,))[0]
        assert cols.shape == (1, 8)
        assert np.array_equal(cols[0], x)

    def test_2d_dilated_output_grid(self):
        # heights: 5 - ((3-1)*2 + 1) + 1 = 1; widths: 5 - 3 + 1 = 3
        x = np.arange(25.0).reshape(5, 5)
        cols = im2col_batch(x[None, None], (3, 3), (1, 1), (2, 1))[0]
        assert cols.shape == (9, 3)
        # first column: rows 0,2,4 x cols 0,1,2
        assert cols[:, 0].tolist() == [0, 1, 2, 10, 11, 12, 20, 21, 22]

    def test_dilated_kernel_too_large(self):
        with pytest.raises(ShapeError):
            im2col_batch(np.zeros((1, 1, 5)), (3,), (1,), (3,))  # span 7 > 5

    def test_conv_output_length_formula(self):
        assert conv_output_length(6, 3, 2) == 2
        assert conv_output_length(800, 3, 1, 12) == 776
        with pytest.raises(ShapeError):
            conv_output_length(5, 3, 1, 3)

    def test_over_long_kernel_is_worded_by_case(self):
        with pytest.raises(ShapeError) as exc:
            conv_output_length(14, 15, 2)
        assert str(exc.value) == "kernel span 15 (kernel 15) exceeds input extent 14"
        with pytest.raises(ShapeError) as exc:
            conv_output_length(24, 3, 1, 12)
        assert str(exc.value) == ("dilated kernel span 25 (kernel 3, dilation 12) "
                                  "exceeds input extent 24")


class TestDirectVsIm2colGemm:
    """The naive loop convolution is the oracle for the GEMM lowering."""

    def test_conv1d_paths_agree(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            c_in, c_out, k, stride, length = 3, 4, 5, 2, 17
            x = rng.standard_normal((c_in, length))
            w = rng.standard_normal((c_out, c_in, k))
            b = rng.standard_normal(c_out)
            direct = reference.conv1d_direct(x, w, b, stride)
            cols = im2col_batch(x[None], (k,), (stride,), (1,))[0]
            lowered = w.reshape(c_out, -1) @ cols + b[:, None]
            assert np.max(np.abs(direct - lowered)) < 1e-12

    def test_dilated_conv2d_paths_agree(self):
        rng = np.random.default_rng(1)
        for dil in (1, 2, 3):
            x = rng.standard_normal((2, 14, 9))
            w = rng.standard_normal((3, 2, 3, 3))
            b = rng.standard_normal(3)
            direct = reference.dilated_conv2d_direct(x, w, b, dil)
            cols = im2col_batch(x[None], (3, 3), (1, 1), (dil, 1))[0]
            lowered = (w.reshape(3, -1) @ cols + b[:, None]).reshape(direct.shape)
            assert np.max(np.abs(direct - lowered)) < 1e-12


_PIN_PROBE = """
import ctypes, json
from pathlib import Path
from atcnn import tensor_ops
try:
    from threadpoolctl import threadpool_info
    threads = [m["num_threads"] for m in threadpool_info() if m["user_api"] == "blas"]
except ImportError:
    threads = []
    with open("/proc/self/maps") as maps:
        paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    for path in sorted(p for p in paths if "openblas" in Path(p).name):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads.append(getter())
                break
print(json.dumps({"route": tensor_ops.BLAS_PINNED_BY, "threads": threads}))
"""


def test_blas_pinned_to_one_thread_under_two_thread_environment():
    env = dict(os.environ, OMP_NUM_THREADS="2", OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", _PIN_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["route"] == "threadpoolctl" or probe["route"].startswith("ctypes "), probe
    assert probe["threads"] and set(probe["threads"]) == {1}, probe


def test_blas_core_names_the_kernel_set_openblas_was_told_to_use():
    assert BLAS_CORE and BLAS_CORE != "unknown"
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    proc = subprocess.run([sys.executable, "-c",
                           "from atcnn import tensor_ops; print(tensor_ops.BLAS_CORE)"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "Haswell"


_NO_ROUTE_PROBE = """
import ctypes, sys
import numpy
sys.modules["threadpoolctl"] = None  # importing it now raises ImportError
ctypes.CDLL = lambda path: object()  # a BLAS without OpenBLAS's thread entry points
try:
    import atcnn
except Exception as exc:
    print(type(exc).__module__, type(exc).__name__, isinstance(exc, RuntimeError), exc, sep="|")
else:
    print("imported with route", atcnn.tensor_ops.BLAS_PINNED_BY)
"""


def test_import_fails_when_no_route_pins_blas():
    proc = subprocess.run([sys.executable, "-c", _NO_ROUTE_PROBE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    module, name, is_runtime, message = proc.stdout.strip().split("|", 3)
    assert (module, name, is_runtime) == ("atcnn.errors", "BlasPinningError", "True"), proc.stdout
    assert "threadpoolctl: not installed" in message
    assert "ctypes: " in message


_RSS_PROBE = """
import json, os
import numpy as np
from atcnn import tensor_ops

def resident_mib():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

np.ones(3 << 20).sum()  # a freed 24 MiB mapping raises glibc's own mmap threshold past 8 MiB
before = resident_mib()
large, small = [], []
for _ in range(12):
    large.append(np.ones(1 << 20))  # 8 MiB
    small.append(np.ones(1 << 13))  # 64 KiB, lands on the heap after each large one
held = resident_mib()
del large
print(json.dumps({"route": tensor_ops.MALLOC_TUNED_BY, "before": before, "held": held,
                  "after": resident_mib()}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the thresholds are glibc's")
def test_freed_large_arrays_go_back_to_the_os():
    proc = subprocess.run([sys.executable, "-c", _RSS_PROBE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["route"].startswith("glibc "), probe
    assert probe["held"] - probe["before"] > 90, probe  # the 96 MiB were resident
    # Interleaved with live small arrays on the heap, the large ones could not be
    # trimmed; mapped on their own, they are unmapped when freed.
    assert probe["after"] - probe["before"] < 16, probe


_REUSE_PROBE = """
import json, os
import numpy as np
from atcnn import tensor_ops

def resident_mib():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

def on_heap(array):
    with open("/proc/self/maps") as maps:
        spans = [line.split()[0] for line in maps if line.rstrip().endswith("[heap]")]
    return any(int(lo, 16) <= array.ctypes.data < int(hi, 16)
               for lo, hi in (span.split("-") for span in spans))

before = resident_mib()
with tensor_ops.heap_reuse():
    for _ in range(2):
        block = np.ones(3 << 20)  # 24 MiB
        inside = on_heap(block)
        del block
    kept = resident_mib()
trimmed = resident_mib()
print(json.dumps({"before": before, "kept": kept, "trimmed": trimmed, "inside": inside,
                  "after": on_heap(np.ones(1 << 20))}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the thresholds are glibc's")
def test_heap_reuse_keeps_freed_blocks_until_it_ends():
    proc = subprocess.run([sys.executable, "-c", _REUSE_PROBE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    # Inside, a large block comes from the heap, and once freed it stays resident
    # for the next one of its size...
    assert probe["inside"], probe
    assert 20 < probe["kept"] - probe["before"] < 40, probe
    # ...on exit the heap is trimmed, and an 8 MiB block gets its own mapping again.
    assert probe["trimmed"] - probe["before"] < 8, probe
    assert not probe["after"], probe


def test_heap_reuse_without_glibc_tuning_does_nothing():
    with heap_reuse(None):
        x = np.ones(3)
    assert x.sum() == 3.0


def test_malloc_tuning_without_glibc_mallopt_is_skipped_not_raised():
    assert _tune_malloc(None).startswith("not applied: ")
    assert _tune_malloc(SimpleNamespace()).startswith("not applied: ")
    refusing = SimpleNamespace(gnu_get_libc_version=lambda: b"2.99", mallopt=lambda p, v: 0)
    assert _tune_malloc(refusing).startswith("not applied: ")
