"""Float64 convolution lowering (im2col and its adjoint), BLAS pinning and
the allocator's thresholds.

Tensors are plain ``numpy.ndarray`` objects of dtype `FLOAT` (float64).
`conv_output_length` is the valid-convolution extent formula that the
layer plan and the layers share; `im2col_batch` lowers a convolution to
a batched GEMM over patch columns, and `col2im_batch` is its adjoint.

BLAS is pinned to a single thread when this module is imported: multi-
threaded GEMM kernels reassociate reductions differently per thread count,
which breaks the bitwise run-to-run reproducibility the training and
checkpoint contracts rely on. At the matrix sizes this package produces,
the single-threaded kernels are also the faster ones. The first route that
holds is used, and ``BLAS_PINNED_BY`` records it:

1. ``threadpoolctl``, when it is installed and finds numpy's BLAS;
2. ``ctypes``: every OpenBLAS library mapped into the process (read from
   ``/proc/self/maps``, so Linux only), which includes the one numpy
   loaded, is set to one thread through its ``openblas_set_num_threads``
   entry point (``scipy_openblas_set_num_threads64_`` in numpy's wheels).

Each route reads the thread count back and holds only if it is 1. If no
route holds, the import raises `BlasPinningError` rather than run with
results that depend on the BLAS thread environment.

``BLAS_CORE`` names the kernel set the BLAS picked for this CPU when it
loaded (OpenBLAS's core name, such as ``SkylakeX``), read in the same walk
as the pin: threadpoolctl's ``architecture`` field, or each pinned
OpenBLAS's ``get_corename`` entry point. Runs repeat bitwise on one kernel
set; another one (``OPENBLAS_CORETYPE=Haswell`` forces one) gives other
bits.

The import also fixes glibc's malloc thresholds through ``mallopt``:
blocks from `MMAP_THRESHOLD` (4 MiB) up get their own mapping, which goes
back to the OS when numpy frees the array, and free memory at the top of
the heap beyond `TRIM_THRESHOLD` (8 MiB) is returned too. Left alone, glibc
raises its mmap threshold to the size of each mapped block that is freed,
up to 32 MiB, so after the first training step the many 4–32 MiB
temporaries of a step are carved from the heap, where freed pages stay
resident and peak RSS climbs step after step. ``MALLOC_TUNED_BY`` records
the route, or why it was not applied: off glibc the setting is skipped,
never an error, since the allocator moves no result bits. Loops that free
every large temporary before they allocate the same sizes again (an
eval-mode forward, the synthesizer and `stack_dataset`, once per segment)
run inside `heap_reuse`, which keeps such blocks on the heap for the loop
and trims the heap after it.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BlasPinningError, ShapeError

# (setter, getter) thread-count entry points: scipy-openblas as bundled in
# numpy's wheels, 64-bit-integer OpenBLAS builds, and plain OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
# The entry points that name the kernel set, for the same three builds.
_OPENBLAS_CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                              "openblas_get_corename")

# glibc's mallopt(3) parameter numbers, from <malloc.h>.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
# Arrays from 4 MiB up get their own mapping; numpy asks for huge pages from this size up.
MMAP_THRESHOLD = 4 << 20
# Twice the mmap threshold, the ratio glibc keeps between the two when it adjusts them.
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
# Inside `heap_reuse`, blocks below 128 MiB come from the heap: every temporary of one
# paper-profile segment's eval forward (the largest, a dilated.1 patch matrix, is 75 MiB).
REUSE_MMAP_THRESHOLD = 128 << 20


def _tune_malloc(libc) -> str:
    """Fix glibc's mmap and trim thresholds in `libc`; return the route or why not.

    Setting either threshold stops glibc adjusting both, so both are set.
    Never raises: without glibc's ``mallopt`` the result names what was missing.
    """
    version = getattr(libc, "gnu_get_libc_version", None)
    mallopt = getattr(libc, "mallopt", None)
    trim = getattr(libc, "malloc_trim", None)
    if version is None or mallopt is None or trim is None:
        return "not applied: the C library has no glibc mallopt and malloc_trim"
    version.argtypes, version.restype = [], ctypes.c_char_p
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    for name, param, value in (("M_MMAP_THRESHOLD", _M_MMAP_THRESHOLD, MMAP_THRESHOLD),
                               ("M_TRIM_THRESHOLD", _M_TRIM_THRESHOLD, TRIM_THRESHOLD)):
        if mallopt(param, value) != 1:
            return f"not applied: glibc mallopt({name}, {value}) failed"
    return (f"glibc {version().decode()} mallopt: M_MMAP_THRESHOLD={MMAP_THRESHOLD >> 20} MiB, "
            f"M_TRIM_THRESHOLD={TRIM_THRESHOLD >> 20} MiB")


def _c_library():
    """The C library this process runs on, or None where ctypes cannot open it."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):  # TypeError: Windows takes no None
        return None


def _loaded_openblas_libraries() -> list[str]:
    """Paths of the OpenBLAS shared libraries mapped into this process."""
    with open("/proc/self/maps") as maps:
        fields = (line.rstrip("\n").split(maxsplit=5) for line in maps)
        return sorted({f[5] for f in fields if len(f) == 6 and "openblas" in Path(f[5]).name})


def _pin_openblas(path: str) -> tuple[str, str | None]:
    """Set the OpenBLAS library at `path` to one thread.

    Returns ``name:setter`` and the library's kernel set name (None if it has no
    corename entry point).
    """
    name = Path(path).name
    lib = ctypes.CDLL(path)  # already loaded by numpy: this only takes a handle
    for setter_name, getter_name in _OPENBLAS_THREAD_SYMBOLS:
        if hasattr(lib, setter_name) and hasattr(lib, getter_name):
            break
    else:
        raise BlasPinningError(f"{name} has no openblas_set_num_threads entry point")
    setter, getter = getattr(lib, setter_name), getattr(lib, getter_name)
    setter.argtypes, setter.restype = [ctypes.c_int], None
    getter.argtypes, getter.restype = [], ctypes.c_int
    setter(1)
    threads = getter()
    if threads != 1:
        raise BlasPinningError(f"{name} reports {threads} threads after {setter_name}(1)")
    corename = next((getattr(lib, s) for s in _OPENBLAS_CORENAME_SYMBOLS if hasattr(lib, s)),
                    None)
    if corename is not None:
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        corename = corename().decode()
    return f"{name}:{setter_name}", corename


def _core_names(names) -> str:
    return ", ".join(sorted({name for name in names if name})) or "unknown"


def _pin_blas_to_one_thread() -> tuple[str, str]:
    """Pin BLAS to one thread; return the route that held and the kernel set's
    name (several joined by ', ', or 'unknown'). Raise if no route held."""
    tried = []
    try:
        from threadpoolctl import threadpool_info, threadpool_limits
    except ImportError:
        tried.append("threadpoolctl: not installed")
    else:
        threadpool_limits(limits=1, user_api="blas")
        blas = [m for m in threadpool_info() if m["user_api"] == "blas"]
        threads = [m["num_threads"] for m in blas]
        if threads and max(threads) == 1:
            return "threadpoolctl", _core_names(m.get("architecture") for m in blas)
        tried.append(f"threadpoolctl: BLAS thread counts {threads} after limiting to 1")
    try:
        libraries = _loaded_openblas_libraries()
        if not libraries:
            raise BlasPinningError("no OpenBLAS library is loaded")
        routes, cores = zip(*(_pin_openblas(path) for path in libraries))
        return "ctypes " + ", ".join(routes), _core_names(cores)
    except (OSError, BlasPinningError) as exc:
        tried.append(f"ctypes: {exc}")
    raise BlasPinningError(
        "cannot pin BLAS to one thread, so results would depend on the BLAS thread "
        f"count; tried {'; '.join(tried)}. Install threadpoolctl, or use a numpy "
        "built against OpenBLAS on Linux."
    )


_LIBC = _c_library()
MALLOC_TUNED_BY = _tune_malloc(_LIBC)
BLAS_PINNED_BY, BLAS_CORE = _pin_blas_to_one_thread()

FLOAT = np.float64


@contextmanager
def heap_reuse(libc=_LIBC if MALLOC_TUNED_BY.startswith("glibc") else None):
    """Carve blocks below `REUSE_MMAP_THRESHOLD` from the heap while the body runs,
    and keep the heap's free pages until it ends.

    For a body that frees each large temporary before it allocates the same sizes
    again: a heap block is reused without a page fault, where each new mapping is
    faulted in and zeroed again (a 16-segment paper `predict_batch` took 106-138 k
    minor faults with the import-time thresholds, 3.7 k inside this). On exit the
    import-time thresholds return and ``malloc_trim`` hands the heap's free pages
    back to the OS. Without glibc's tuning (`libc` None) it does nothing. Not
    re-entrant: a nested one restores the import-time thresholds when it exits.
    """
    if libc is None:
        yield
        return
    libc.mallopt(_M_MMAP_THRESHOLD, REUSE_MMAP_THRESHOLD)
    libc.mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)  # the largest int: never trim
    try:
        yield
    finally:
        libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        libc.mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
        libc.malloc_trim(0)


def conv_output_length(length: int, kernel: int, stride: int = 1, dilation: int = 1) -> int:
    """Valid-convolution output extent: floor((L - ((K-1)*d + 1)) / s) + 1."""
    span = (kernel - 1) * dilation + 1
    if span > length:
        what = (f"kernel span {span} (kernel {kernel})" if dilation == 1 else
                f"dilated kernel span {span} (kernel {kernel}, dilation {dilation})")
        raise ShapeError(f"{what} exceeds input extent {length}")
    return (length - span) // stride + 1


def _lowering(x_shape, kernel, strides, dilations):
    """Normalise `(kernel, strides, dilations)` for a [B, C, *spatial] input.
    Returns them with the output extents."""
    kernel, strides, dilations = (tuple(map(int, v)) for v in (kernel, strides, dilations))
    nsp = len(kernel)
    if len(x_shape) != nsp + 2:
        raise ShapeError(f"expected [B, C, {nsp} spatial] input, got shape {tuple(x_shape)}")
    out = tuple(map(conv_output_length, x_shape[2:], kernel, strides, dilations))
    return kernel, strides, dilations, out


def im2col_batch(
    x: np.ndarray,
    kernel: Sequence[int],
    strides: Sequence[int],
    dilations: Sequence[int],
) -> np.ndarray:
    """Lower a batched [B, C, *spatial] tensor to patch columns.

    Returns [B, C * prod(kernel), prod(out)] where each column is one
    receptive-field patch flattened channel-major, kernel offsets row-major.
    """
    kernel, strides, dilations, out = _lowering(x.shape, kernel, strides, dilations)
    nsp = len(kernel)
    spans = tuple((kernel[i] - 1) * dilations[i] + 1 for i in range(nsp))
    windows = sliding_window_view(x, spans, axis=tuple(range(2, 2 + nsp)))
    # windows: [B, C, *valid_positions, *spans]; subsample positions by stride
    # and taps within each window by dilation.
    pos_idx = tuple(slice(None, None, strides[i]) for i in range(nsp))
    tap_idx = tuple(slice(None, None, dilations[i]) for i in range(nsp))
    windows = windows[(slice(None), slice(None)) + pos_idx + tap_idx]
    # [B, C, *out, *kernel] -> [B, C, *kernel, *out]
    order = (0, 1) + tuple(range(2 + nsp, 2 + 2 * nsp)) + tuple(range(2, 2 + nsp))
    windows = windows.transpose(order)
    b, c = x.shape[0], x.shape[1]
    return np.ascontiguousarray(windows).reshape(b, c * int(np.prod(kernel)), int(np.prod(out)))


def col2im_batch(
    cols: np.ndarray,
    x_shape: tuple[int, ...],
    kernel: Sequence[int],
    strides: Sequence[int],
    dilations: Sequence[int],
) -> np.ndarray:
    """Adjoint of `im2col_batch`: scatter-add patch columns back to [B, C, *spatial]."""
    kernel, strides, dilations, out = _lowering(x_shape, kernel, strides, dilations)
    nsp = len(kernel)
    b, c = x_shape[0], x_shape[1]
    x = np.zeros(x_shape, dtype=FLOAT)
    cols = cols.reshape((b, c) + kernel + out)
    for tap in np.ndindex(kernel):
        dst = tuple(
            slice(tap[i] * dilations[i], tap[i] * dilations[i] + strides[i] * out[i], strides[i])
            for i in range(nsp)
        )
        x[(slice(None), slice(None)) + dst] += cols[(slice(None), slice(None)) + tap]
    return x
