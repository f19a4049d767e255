"""Fixed-shape kernel table: one row per baseline regime of the roadmap.

Each row times the program's own kernel on inputs of a fixed shape drawn
from the run seed, and reports the median of a few repetitions:

* sturm_counts, short batch: 1048 boxes of L = 1000, 8 shifts (wide lanes);
* sturm_counts, long x10: 104 boxes of L = 10^4, 10 shifts;
* sturm_counts, long x1: 104 boxes of L = 10^4, one shift (lane-starved);
* sturm_counts, scalar: one box of L = 30, one shift;
* batched_eigenvalues_in at L = 10^4 on 2 boxes, and the ratio of its time
  to scipy's LAPACK stebz routine on the same input (above 1: slower than stebz).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg


# row -> (boxes, L, shifts, repeats)
STURM_SHAPES = {
    "short_batch": (1048, 1000, np.linspace(-0.5, 1.5, 8)[:, None], 3),
    "long_x10": (104, 10000, np.linspace(-0.5, 1.5, 10)[:, None], 3),
    "long_x1": (104, 10000, 0.5, 3),
}
SCALAR = (30, 2000)  # L, calls per timing
BATCHED = (2, 10000, (0.49, 0.51))  # boxes, L, window


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_table(seed: int) -> dict:
    from randspec.eigensolve import batched_eigenvalues_in, sturm_counts

    rng = np.random.default_rng([int(seed), 0x5E1])
    out = {}
    for row, (boxes, size, shifts, repeats) in STURM_SHAPES.items():
        diag = rng.random((boxes, size))
        off = np.ones(size - 1)
        lanes = np.broadcast_shapes(diag.shape[:-1], np.shape(shifts))
        pivots = int(np.prod(lanes)) * size
        secs = _median_time(lambda: sturm_counts(diag, off, shifts), repeats)
        out[f"kernel.sturm_counts.{row}.ns_per_pivot"] = 1e9 * secs / pivots

    size, calls = SCALAR
    diag = rng.random(size)
    off = np.ones(size - 1)
    secs = _median_time(
        lambda: [sturm_counts(diag, off, 0.5) for _ in range(calls)], 3
    )
    out["kernel.sturm_counts.scalar_L30.ns_per_pivot"] = 1e9 * secs / (calls * size)

    boxes, size, (lo, hi) = BATCHED
    diag = rng.random((boxes, size))
    off = np.ones(size - 1)
    t0 = time.perf_counter()
    _, values = batched_eigenvalues_in(diag, off, lo, hi)
    ours = time.perf_counter() - t0
    lo_e, hi_e = np.nextafter([lo, hi], np.inf)
    t0 = time.perf_counter()
    ref = [
        scipy.linalg.eigvalsh_tridiagonal(
            d, off, select="v", select_range=(lo_e, hi_e), lapack_driver="stebz"
        )
        for d in diag
    ]
    stebz = time.perf_counter() - t0
    ref = np.concatenate(ref)
    if ref.size != values.size or np.max(np.abs(np.sort(ref) - np.sort(values))) > 1e-9:
        raise RuntimeError("batched_eigenvalues_in disagrees with stebz")
    out["kernel.batched_eigenvalues_in.L10000.ms_per_eig"] = 1e3 * ours / max(values.size, 1)
    out["kernel.batched_eigenvalues_in.L10000.vs_stebz"] = ours / stebz
    return out
