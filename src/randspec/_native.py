"""The compiled Sturm sweep of `_sturm.c`, built on first use, loaded by ctypes.

`kernel()` returns the library's `sturm_counts` function, or None when the
library cannot be had: no C compiler, a cache directory that cannot be
written, a failed build or a failed dlopen. `eigensolve.sturm_counts` then
runs its numpy sweep, which computes the same counts.

The library is cached in the `__pycache__` directory beside this file, under
a name keyed by the sha256 of the source and the compiler flags, so an edited
source or new flags build anew and a warm cache spawns no compiler. A build
writes a temporary file in the cache directory and renames it into place with
`os.replace`, so processes building at once (pool workers on a cold cache)
each end with a whole library.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

# No -ffast-math and no -march=native: the pivots must be the IEEE operations
# of the source, in its order, on every host.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
SOURCE = Path(__file__).with_name("_sturm.c")

_UNLOADED = object()
_kernel = _UNLOADED  # the loaded function, None when unavailable


def kernel():
    """The C `sturm_counts`, loaded (and built if need be) on the first call."""
    global _kernel
    if _kernel is _UNLOADED:
        _kernel = _load()
    return _kernel


def _load():
    import hashlib  # here, not at import: it loads OpenSSL, about 5 ms

    try:
        key = hashlib.sha256(SOURCE.read_bytes() + " ".join(FLAGS).encode()).hexdigest()
        path = SOURCE.parent / "__pycache__" / f"_sturm-{key[:16]}.so"
        if not path.exists():
            _build(path)
        fn = ctypes.CDLL(str(path)).sturm_counts
    except OSError:  # also a missing compiler or a failed build
        return None
    ptr, size = ctypes.c_void_p, ctypes.c_ssize_t
    # diag, offdiag, L, diag rows, offdiag rows, shifts, lanes, counts
    fn.argtypes = [ptr, ptr, size, ptr, ptr, ptr, size, ptr]
    fn.restype = ctypes.c_int64
    return fn


def _build(path: Path) -> None:
    import subprocess
    import tempfile

    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem + "-", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        done = subprocess.run(
            ["cc", *FLAGS, "-o", tmp, str(SOURCE)], capture_output=True, text=True
        )
        if done.returncode != 0:
            raise OSError(f"cc exited with {done.returncode}: {done.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
