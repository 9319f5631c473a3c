"""Float64 convolution lowering (im2col and its adjoint) and BLAS pinning.

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
loaded (OpenBLAS's core name, such as ``SkylakeX``), read once beside the
pin through the same route: threadpoolctl's ``architecture`` field, else
each loaded OpenBLAS's ``get_corename`` entry point. Runs repeat bitwise
on one kernel set; another one (``OPENBLAS_CORETYPE=Haswell`` forces one)
gives other bits.
"""

from __future__ import annotations

import ctypes
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


def _loaded_openblas_libraries() -> list[str]:
    """Paths of the OpenBLAS shared libraries mapped into this process."""
    with open("/proc/self/maps") as maps:
        fields = (line.rstrip("\n").split(maxsplit=5) for line in maps)
        return sorted({f[5] for f in fields if len(f) == 6 and "openblas" in Path(f[5]).name})


def _pin_openblas(path: str) -> str:
    """Set the OpenBLAS library at `path` to one thread; return ``name:setter``."""
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
    return f"{name}:{setter_name}"


def _pin_blas_to_one_thread() -> str:
    """Pin BLAS to one thread and return the route that held; raise if none did."""
    tried = []
    try:
        from threadpoolctl import threadpool_info, threadpool_limits
    except ImportError:
        tried.append("threadpoolctl: not installed")
    else:
        threadpool_limits(limits=1, user_api="blas")
        threads = [m["num_threads"] for m in threadpool_info() if m["user_api"] == "blas"]
        if threads and max(threads) == 1:
            return "threadpoolctl"
        tried.append(f"threadpoolctl: BLAS thread counts {threads} after limiting to 1")
    try:
        libraries = _loaded_openblas_libraries()
        if not libraries:
            raise BlasPinningError("no OpenBLAS library is loaded")
        return "ctypes " + ", ".join(_pin_openblas(path) for path in libraries)
    except (OSError, BlasPinningError) as exc:
        tried.append(f"ctypes: {exc}")
    raise BlasPinningError(
        "cannot pin BLAS to one thread, so results would depend on the BLAS thread "
        f"count; tried {'; '.join(tried)}. Install threadpoolctl, or use a numpy "
        "built against OpenBLAS on Linux."
    )


def _blas_core() -> str:
    """The BLAS kernel set's name (several joined by ', '), or 'unknown'."""
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        names = []
    else:
        names = [m.get("architecture") for m in threadpool_info() if m["user_api"] == "blas"]
    if not any(names):
        try:
            libraries = _loaded_openblas_libraries()
        except OSError:
            libraries = []
        for path in libraries:
            lib = ctypes.CDLL(path)
            symbol = next((s for s in _OPENBLAS_CORENAME_SYMBOLS if hasattr(lib, s)), None)
            if symbol is not None:
                corename = getattr(lib, symbol)
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                names.append(corename().decode())
    return ", ".join(sorted({name for name in names if name})) or "unknown"


BLAS_PINNED_BY = _pin_blas_to_one_thread()
BLAS_CORE = _blas_core()

FLOAT = np.float64


def conv_output_length(length: int, kernel: int, stride: int = 1, dilation: int = 1) -> int:
    """Valid-convolution output extent: floor((L - ((K-1)*d + 1)) / s) + 1."""
    span = (kernel - 1) * dilation + 1
    if span > length:
        what = (f"kernel span {span} (kernel {kernel})" if dilation == 1 else
                f"dilated kernel span {span} (kernel {kernel}, dilation {dilation})")
        raise ShapeError(f"{what} exceeds input extent {length}")
    return (length - span) // stride + 1


def _lowering(x_shape, kernel, strides, dilations):
    """Normalise `(kernel, strides, dilations)` for a [B, C, *spatial] input;
    strides and dilations default to 1. Returns them with the output extents."""
    kernel = tuple(int(k) for k in kernel)
    nsp = len(kernel)
    strides = tuple(int(s) for s in strides) if strides is not None else (1,) * nsp
    dilations = tuple(int(d) for d in dilations) if dilations is not None else (1,) * nsp
    if len(x_shape) != nsp + 2:
        raise ShapeError(f"expected [B, C, {nsp} spatial] input, got shape {tuple(x_shape)}")
    out = tuple(map(conv_output_length, x_shape[2:], kernel, strides, dilations))
    return kernel, strides, dilations, out


def im2col_batch(
    x: np.ndarray,
    kernel: Sequence[int],
    strides: Sequence[int] | None = None,
    dilations: Sequence[int] | None = None,
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
    strides: Sequence[int] | None = None,
    dilations: Sequence[int] | None = None,
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
