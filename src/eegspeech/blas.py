"""One BLAS rule for the whole process: numpy's and scipy's OpenBLAS run on one
thread, so no result depends on the core count. Each setter is found through the
library's own extension module. The wheels' OpenBLAS is a pthreads build, whose
count holds for every thread; where a setter is not found, nothing is set."""

import ctypes
import functools
import importlib

# library -> (extension module linked to its OpenBLAS, names of the thread-count setter: the
# scipy-openblas wheels' first, OpenBLAS's own second)
_LIBRARIES = {
    "numpy": ("numpy._core._multiarray_umath", ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")),
    "scipy": ("scipy.linalg._fblas", ("scipy_openblas_set_num_threads", "openblas_set_num_threads")),
}


@functools.cache
def _setter(library: str):
    """The library's OpenBLAS thread-count setter, or None."""
    module, names = _LIBRARIES[library]
    try:
        handle = ctypes.CDLL(importlib.import_module(module).__file__)
    except (ImportError, OSError):
        return None
    setter = next((getattr(handle, name) for name in names if hasattr(handle, name)), None)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
    return setter


def pin_one_thread() -> None:
    """Set every OpenBLAS found to one thread."""
    for library in _LIBRARIES:
        if (setter := _setter(library)) is not None:
            setter(1)


def numpy_pinned() -> bool:
    """Whether pin_one_thread sets numpy's OpenBLAS, on which every nn GEMM runs."""
    return _setter("numpy") is not None
