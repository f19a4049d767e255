"""The compiled Sturm sweep, draws and transfer products of `_sturm.c`, built
on first use, loaded by ctypes.

`kernel()` returns the library's `sturm_counts` function, or None when the
library cannot be had: no C compiler, a cache directory that cannot be
written, a failed build or a failed dlopen. `eigensolve` then runs its numpy
paths, which compute the same counts and eigenvalues. The library also
exports `sturm_bisect`, the bisection loop of `eigensolve._bisect_indices`,
its two sweep bodies `sturm_counts_scalar` and (on x86-64)
`sturm_counts_avx2`, `philox_uniform`, the uniform draws of
`_blocks.uniform_block` (missing where the compiler has no 128-bit integer;
`_blocks` then draws with numpy, the same bits), `transfer_steps`, one chunk
of the renormalized product of `transfer.lyapunov` (without it `lyapunov`
runs its numpy loop, the same bits), all of which `export` returns typed,
and `sturm_counts_body`, which names the body the sweeps call (`body()`).

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
_library = _UNLOADED  # the loaded library, None when unavailable
_kernel = _UNLOADED  # its sturm_counts, None when unavailable


def kernel():
    """The C `sturm_counts`, loaded (and built if need be) on the first call."""
    global _kernel
    if _kernel is _UNLOADED:
        _kernel = export("sturm_counts")
    return _kernel


_PTR, _SIZE = ctypes.c_void_p, ctypes.c_ssize_t
# diag, offdiag, L, diag rows, offdiag rows, shifts, lanes, counts
_SWEEP = [_PTR, _PTR, _SIZE, _PTR, _PTR, _PTR, _SIZE, _PTR]
# diag, offdiag, L, diag rows, offdiag rows, targets, lanes, lo, hi, tol, iters, values
_BISECT = _SWEEP[:7] + [ctypes.c_double] * 3 + [ctypes.c_int64, _PTR]
# key0, key1, lo, hi, out, n
_PHILOX = [ctypes.c_uint64] * 2 + [ctypes.c_double] * 2 + [_PTR, _SIZE]
# (m00, s00, m01, s01, m10, s10, m11, s11), steps, samples, v, norms
_TRANSFER = [_PTR, _SIZE] * 4 + [_SIZE, _SIZE, _PTR, _PTR]
_TYPES = {"sturm_bisect": (_BISECT, ctypes.c_int64), "philox_uniform": (_PHILOX, None),
          "transfer_steps": (_TRANSFER, ctypes.c_int64)}


def export(name):
    """The library's function `name`, typed: `sturm_bisect`,
    `philox_uniform`, `transfer_steps`, or a sweep with the argument types of
    `sturm_counts`; None without the library or without that export."""
    fn = getattr(_loaded(), name, None)
    if fn is not None and fn.argtypes is None:
        fn.argtypes, fn.restype = _TYPES.get(name, (_SWEEP, ctypes.c_int64))
    return fn


def body():
    """"avx2" or "scalar": the body `sturm_counts` runs on this CPU; None
    without the library."""
    library = _loaded()
    if library is None:
        return None
    library.sturm_counts_body.restype = ctypes.c_char_p
    return library.sturm_counts_body().decode()


def _loaded():
    global _library
    if _library is _UNLOADED:
        _library = _load()
    return _library


def _load():
    import hashlib  # here, not at import: it loads OpenSSL, about 5 ms

    try:
        key = hashlib.sha256(SOURCE.read_bytes() + " ".join(FLAGS).encode()).hexdigest()
        path = SOURCE.parent / "__pycache__" / f"_sturm-{key[:16]}.so"
        if not path.exists():
            _build(path)
        return ctypes.CDLL(str(path))
    except OSError:  # also a missing compiler or a failed build
        return None


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
