"""Counting-based spectral routines for symmetric tridiagonal operators.

The workhorse is the Sturm negative-pivot count of the shifted LDL^T
factorization: `sturm_count(H, E)` returns #{eigenvalues < E} exactly (up to
floating-point pivot signs), in O(L) flops and without forming any matrix.
Window counts, bisection eigenvalue extraction, and the batched Monte Carlo
kernels are all built on it. Nothing here diagonalizes a dense matrix; an
independent check runs LAPACK on `TridiagonalOperator.to_dense()`.

Eigenvalue indices are 1-based (E_1 <= ... <= E_L); site indices are 1-based.
"""

from __future__ import annotations

import ctypes
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _blocks, _native
from .operators import TridiagonalOperator, _one_row

_TINY = 1e-300  # pivot clamp; preserves sign, zero maps to +tiny
_MAX_COUPLING = math.sqrt(sys.float_info.max)  # larger couplings square to inf
_COUPLING_OVERFLOW = (
    f"offdiag entries must be at most {_MAX_COUPLING:.4g} in magnitude: their squares overflow"
)

# Bytes of pivots one site tile of the numpy sweep holds (tiles also stop at
# 255 sites). The tile's buffers are the only site-major copies of the input,
# so memory stays O(lanes) above the input. On a 2-core Xeon VM (Python 3.11,
# numpy 2.4), 256 KB to 4 MB tiles timed within noise of each other (1048
# lanes x L = 1000: 5.1-5.8 ns/pivot; 1040 lanes x L = 10^4: 5.9-7.0) and
# 64 KB tiles 25-45% slower.
_TILE_BYTES = 1 << 18

_INVERSE_ITERATIONS = 8  # steps of `eigenvector`


def sturm_counts(diag, offdiag, shifts) -> np.ndarray:
    """Vectorized negative-pivot counts: #{eigenvalues < shift}.

    diag: (..., L); offdiag: (..., L-1) or (L-1,); shifts: broadcastable to
    the batch shape of diag. Returns int64 counts of the broadcast batch
    shape. Pivots with |d| < 1e-300 are clamped to +/-1e-300 keeping their
    sign (zeros of either sign clamp to +tiny; NaN passes through), which
    preserves the count and makes the recurrence division-safe. A NaN shift
    raises ValueError: it would make every pivot of its lane NaN, counted as
    no eigenvalue. So does a coupling above sqrt(DBL_MAX) ~ 1.34e154 in
    magnitude, whose square, which every sweep uses, is infinite.

    There are two paths, picked by `_native.kernel()`: the C loop of
    `_sturm.c` when its library loads (its AVX2 body on a CPU with AVX2, its
    scalar body on any other), else the site-major numpy sweep
    `_site_major_counts`. Both do the same IEEE operations in the same
    order, so the counts do not depend on the path.
    """
    diag, offdiag, shifts, drow, orow = _lanes(diag, offdiag, np.asarray(shifts, dtype=np.float64))
    return _sweep(diag, offdiag, drow, orow, shifts,
                  lambda: _site_major_counts(diag, offdiag, shifts))


def _sweep(diag, offdiag, drow, orow, shifts, numpy_sweep):
    """Counts of the lanes of `shifts` on rows drow, orow (None: one row) of
    diag, offdiag: the C kernel's, or `numpy_sweep()` after its checks."""
    kernel = _native.kernel()
    if kernel is None:
        if np.isnan(shifts).any():
            raise ValueError("shifts must not be NaN")
        if np.abs(offdiag).max(initial=0.0) > _MAX_COUPLING:
            raise ValueError(_COUPLING_OVERFLOW)
        return numpy_sweep()
    counts = (ctypes.c_int64 * shifts.size)()
    _check_status(kernel(_pointer(diag), _pointer(offdiag), diag.shape[-1], _pointer(drow),
                         _pointer(orow), _pointer(shifts), shifts.size, counts))
    return np.frombuffer(counts, dtype=np.int64).reshape(shifts.shape)


def _check_status(status):
    """Raise the error a nonzero status of the C library stands for."""
    if status > 0:
        raise ValueError("shifts must not be NaN")
    if status == -1:
        raise ValueError(_COUPLING_OVERFLOW)
    if status < 0:
        raise MemoryError("sturm_bisect could not allocate its brackets")


def _pointer(x):
    """A ctypes argument passing array x in C order: a bytes copy up to 4 KB
    (about 0.1 us, against 1.5 us for `.ctypes`), else a contiguous array's
    `.ctypes`, which holds the array for the duration of the call."""
    if x is None:
        return None
    return x.tobytes() if x.nbytes <= 4096 else np.ascontiguousarray(x).ctypes


def _row_index(x, shape):
    """int64 row of x (rows are its last axis) that each lane of shape reads,
    in C order; None when x is one row (of any shape (1, ..., 1, L)), which
    every lane then reads."""
    if _one_row(x):
        return None
    rows = np.arange(math.prod(x.shape[:-1]), dtype=np.int64).reshape(x.shape[:-1])
    return np.broadcast_to(rows, shape)


def _lanes(diag, offdiag, per_lane):
    """The arrays of a call on rows diag, offdiag with one value per lane
    (a shift or a target): diag and offdiag as float64, checked to hold L
    and L - 1 sites per row; per_lane broadcast to the lanes; and the int64
    row of diag and of offdiag that each lane reads, None when both are
    one row, which every lane then reads."""
    diag = np.asarray(diag, dtype=np.float64)
    offdiag = np.asarray(offdiag, dtype=np.float64)
    size = diag.shape[-1]
    if size == 0:
        raise ValueError(f"diag needs at least one site per row, got shape {diag.shape}")
    if offdiag.shape[-1:] != (size - 1,):
        raise ValueError(f"offdiag needs {size - 1} entries per row, got shape {offdiag.shape}")
    if diag.ndim == 1 and offdiag.ndim == 1:  # no batch axes: ~8 us less per scalar call
        return diag, offdiag, per_lane, None, None
    shape = np.broadcast_shapes(diag.shape[:-1], offdiag.shape[:-1], per_lane.shape)
    return (diag, offdiag, np.broadcast_to(per_lane, shape),
            _row_index(diag, shape), _row_index(offdiag, shape))


def _site_major_counts(diag, offdiag, shifts):
    """The sweep over a (sites, *lanes) layout, one tile of sites at a time.

    The lanes are the axes of `shifts`, which holds one shift per lane (a
    0-d array is one lane; a call with no lanes sweeps nothing), reordered so
    that the longer of two groups runs innermost in every ufunc: the row
    axes, along which diag or offdiag varies, or the shift-only axes; the
    counts are transposed back.
    Each tile copies its diagonal slice once into a contiguous buffer, adding
    0.0 there: a - s is the only term that can be -0.0, and (a + 0.0) - s is
    (a - s) + 0.0 bit for bit, so no pivot is -0.0 and copysign(max(|d|,
    tiny), d) maps zeros to +tiny as the clamp requires.

    Each tile is first swept without the clamp. The clamp leaves every pivot
    with |d| >= tiny (or NaN) unchanged, so a tile holding no smaller pivot
    is exact as it stands; otherwise the tile is swept again with the clamp
    from the pivot before it. Tiles hold at most 255 sites, so a tile's
    negative pivots per lane fit in a uint8.
    """
    shape = shifts.shape
    if not shape:
        return _site_major_counts(diag, offdiag, shifts.reshape(1)).reshape(())
    if shifts.size == 0:
        return np.zeros(shape, dtype=np.int64)
    size = diag.shape[-1]
    ndim = len(shape)

    def aligned(x):  # a view with leading 1s: batch axes aligned with shape
        return x.reshape((1,) * (ndim + 1 - x.ndim) + x.shape)

    dal, oal = aligned(diag), aligned(offdiag)
    rows = [i for i in range(ndim) if dal.shape[i] != 1 or oal.shape[i] != 1]
    only = [i for i in range(ndim) if i not in rows]
    if math.prod(shape[i] for i in rows) >= math.prod(shape[i] for i in only):
        order = only + rows
    else:
        order = rows + only
    dsite = dal.transpose([ndim] + order)  # views: sites first, then lanes
    if _one_row(offdiag):  # shared couplings: Python floats per site
        osite = np.square(offdiag).ravel().tolist()
    else:
        osite = oal.transpose([ndim] + order)
    count = _sweep_sites(dsite, osite, np.ascontiguousarray(shifts.transpose(order)))
    return count.transpose(np.argsort(order))


def _sweep_sites(dsite, osite, shifts):
    """Counts of the lanes of the C-ordered array `shifts`, swept one tile
    of sites at a time (see `_site_major_counts`). dsite[k0:k1] is the
    diagonal at sites k0 .. k1 - 1, broadcastable to (k1 - k0, *lanes), and
    osite[k0:k1] likewise the couplings into sites k0 + 1 .. k1; or osite is
    the list of the squares of one coupling row that every lane reads, as
    Python floats."""
    size = dsite.shape[0]
    lanes = shifts.shape
    tile = max(1, min(size, 255, _TILE_BYTES // (8 * shifts.size)))
    if not isinstance(osite, list):
        obuf = np.empty((tile,) + osite.shape[1:])
        orows = list(obuf)
    piv = np.empty((tile + 1,) + lanes)  # piv[0]: the pivot before the tile
    sites = list(piv)  # row views made once, as are orows: the site loop only indexes
    scratch = np.empty((tile,) + lanes)
    negative = np.empty((tile,) + lanes, dtype=bool)
    abuf = np.empty((tile,) + dsite.shape[1:])
    q = np.empty(lanes)
    tile_count = np.empty(lanes, dtype=np.uint8)
    count = np.zeros(lanes, dtype=np.int64)
    with np.errstate(all="ignore"):
        for k0 in range(0, size, tile):
            n = min(tile, size - k0)
            first = int(k0 == 0)
            a = np.add(dsite[k0 : k0 + n], 0.0, out=abuf[:n])
            if isinstance(osite, list):
                bs = osite[k0 - 1 + first : k0 + n - 1]
            else:
                np.square(osite[k0 - 1 + first : k0 + n - 1], out=obuf[: n - first])
                bs = orows[: n - first]
            sweep = piv[1 : n + 1]
            _tile_pivots(sweep, sites[: n + 1], a, shifts, bs, first, q, clamp=False)
            if np.fmin.reduce(np.abs(sweep, out=scratch[:n]), axis=None) < _TINY:
                _tile_pivots(sweep, sites[: n + 1], a, shifts, bs, first, q, clamp=True)
            np.less(sweep, 0.0, out=negative[:n])
            count += np.add.reduce(negative[:n], axis=0, dtype=np.uint8, out=tile_count)
            piv[0] = piv[n]
    return count


class _RowTiles:
    """Site-major tiles of the rows that lanes read: [k0:k1] gathers sites
    k0 .. k1 - 1 of row rows[l] for every lane l, as a (k1 - k0, lanes)
    array, so a tile holds O(lanes) values and no row is copied whole."""

    def __init__(self, x, rows):
        self.x, self.rows = x, rows
        self.shape = (x.shape[-1], rows.size)

    def __getitem__(self, sites):
        return self.x[self.rows, sites].T


def _tile_pivots(sweep, sites, a, shifts, bs, first, q, clamp):
    """Pivots of one site tile into sweep, whose rows are sites[1:]: a is its
    diagonal slice plus 0.0, bs the squared couplings into its sites, and
    sites[0] the pivot before it (unused when the tile starts at site 0)."""
    np.subtract(a, shifts, out=sweep)
    if first and clamp:
        _clamp(sites[1], q)
    divide, subtract = np.divide, np.subtract
    for d, p, b in zip(sites[first:], sites[1 + first :], bs):
        divide(b, d, q)  # positional out: cheaper per call than out=
        subtract(p, q, p)
        if clamp:
            _clamp(p, q)


def _clamp(d, scratch):
    np.abs(d, out=scratch)
    np.maximum(scratch, _TINY, out=scratch)
    np.copysign(scratch, d, out=d)


def sturm_count(op: TridiagonalOperator, energy: float) -> int:
    """#{eigenvalues of op strictly below energy}."""
    _check_inputs(energy=energy)
    return int(sturm_counts(op.diag, op.offdiag, float(energy)))


def _row_counts(diag, offdiag, rows, shifts):
    """Counts of lane l of 1-D `rows` and `shifts`: #{eigenvalues < shifts[l]}
    of row rows[l] of diag (rows, L) and of offdiag, (rows, L - 1) or one
    row shared by every lane. The lanes of one `sturm_counts` call, with the
    row of each given instead of broadcast: the C path passes `rows` as the
    kernel's diag and coupling rows, and the numpy path gathers the rows one
    site tile at a time (`_RowTiles`). Both raise `sturm_counts`'s errors."""
    shifts = np.asarray(shifts, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    drow, orow = (None if _one_row(x) else rows for x in (diag, offdiag))

    def numpy_sweep():
        if shifts.size == 0:
            return np.zeros(0, dtype=np.int64)
        dsite = _RowTiles(diag, drow) if drow is not None else diag.reshape(-1)[:, None]
        if orow is not None:
            osite = _RowTiles(offdiag, orow)
        else:  # one row, as in `_site_major_counts`
            osite = np.square(offdiag).ravel().tolist()
        return _sweep_sites(dsite, osite, shifts)

    return _sweep(diag, offdiag, drow, orow, shifts, numpy_sweep)


def _grid_counts(diag, offdiag, shifts):
    """`sturm_counts(diag, offdiag, shifts[:, None])`, the (shifts, rows)
    counts of every row of diag (rows, L) and offdiag ((L - 1,) or (rows,
    L - 1)) at every shift of a strictly increasing 1-D grid, from fewer
    sweeps.

    The IEEE Sturm count with clamped pivots does not decrease as the shift
    grows (Kahan 1966; Demmel, Dhillon and Ren, ETNA 3, 1995) wherever no
    diagonal entry minus a shift overflows: every operation of the sweep is
    then monotone in its inputs, and no pivot is an inf - inf NaN. So a row
    whose counts at the two ends of a grid interval agree has that count at
    every shift between them. The two end shifts are swept in one plain
    `sturm_counts` call. Then each level sweeps, in one `_row_counts` call,
    the middle shift of every (row, interval) whose end counts differ, and
    gives every other (row, interval) its end count there without a sweep.
    No (row, shift) is swept twice: the worst case is the full sweep split
    over about log2(shifts) calls. A grid whose end shifts minus some
    diagonal entry overflow, or meet a NaN entry, is swept whole.
    """
    diag = np.asarray(diag, dtype=np.float64)
    offdiag = np.asarray(offdiag, dtype=np.float64)
    shifts = np.asarray(shifts, dtype=np.float64)
    if np.isnan(shifts).any():
        raise ValueError("shifts must not be NaN")
    if not np.all(shifts[1:] > shifts[:-1]):
        raise ValueError("shifts must be strictly increasing")
    n = shifts.size
    if n > 2:  # a - s lies between these for every entry a and grid shift s
        reach = (float(np.max(diag, initial=-math.inf)) - float(shifts[0]),
                 float(np.min(diag, initial=math.inf)) - float(shifts[-1]))
    if n <= 2 or not all(map(math.isfinite, reach)):
        return sturm_counts(diag, offdiag, shifts[:, None])
    ends = sturm_counts(diag, offdiag, shifts[[0, -1], None])
    counts = np.empty((n,) + ends.shape[1:], dtype=np.int64)
    counts[[0, -1]] = ends
    bounds = np.array([0, n - 1])
    while bounds.size < n:
        lo, hi = bounds[:-1], bounds[1:]
        split = hi - lo > 1
        lo, hi = lo[split], hi[split]
        mid = (lo + hi) // 2
        c_lo = counts[lo]
        counts[mid] = c_lo
        interval, row = np.nonzero(c_lo != counts[hi])
        if interval.size:
            at = mid[interval]
            counts[at, row] = _row_counts(diag, offdiag, row, shifts[at])
        bounds = np.sort(np.concatenate([bounds, mid]))
    return counts


def _sorted_set(x):
    """The distinct values of array x, sorted, as np.unique gives them, from
    a sort and a compare of neighbours: np.unique imports numpy.ma on its
    first call, 10-16 ms."""
    x = np.sort(x, axis=None)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _window_counts(diag, offdiag, windows):
    """(edges, counts) of the half-open windows, (lo, hi) pairs, on every row
    of diag (rows, L) or (L,): the edges moved up one ulp, as (lo/hi,
    window), and the Sturm counts below them, as (lo/hi, window, row), from
    one `_grid_counts` grid of the distinct edges (one window: one
    `sturm_counts` call). A count that falls across a window, which only a
    diagonal entry minus an edge that overflows causes, raises ValueError."""
    windows = np.array(windows, dtype=np.float64)
    edges = np.nextafter(windows.T, np.inf)
    grid = _sorted_set(edges)
    counts = _grid_counts(diag, offdiag, grid)[np.searchsorted(grid, edges)]
    falls = np.nonzero((counts[1] < counts[0]).any(axis=-1))[0]
    if falls.size:
        lo, hi = windows[falls[0]].tolist()
        raise ValueError(f"window ({lo!r}, {hi!r}]: the count falls across it, since a "
                         "diagonal entry minus an edge overflows")
    return edges, counts


def _check_window(lo, hi, tol=0.0):
    """The input checks of a window (lo, hi] located to width tol."""
    _check_inputs(tol, lo=lo, hi=hi)
    if not lo <= hi:
        raise ValueError("need lo <= hi")


def count_in_interval(op: TridiagonalOperator, lo: float, hi: float) -> int:
    """Number of eigenvalues in the half-open interval (lo, hi]."""
    _check_window(lo, hi)
    below_lo, below_hi = _window_counts(op.diag, op.offdiag, [(lo, hi)])[1][:, 0, 0]
    return int(below_hi - below_lo)


def _bisect_indices(diag, offdiag, targets, lo, hi, tol):
    """Bisection for eigenvalues with 1-based indices `targets` (vectorized).

    Invariant per target j: count(lo) < j <= count(hi). Terminates when the
    bracket width is below max(tol, 4 ulp); all brackets start equal so a
    fixed iteration count suffices. The lanes are those of `sturm_counts`
    with the targets in place of the shifts, so a padded copy of a target is
    swept like any other lane.

    There are two paths, picked by `_native.kernel()`: one call of the C
    library's `sturm_bisect`, which runs every level in lockstep, or a numpy
    loop making one `sturm_counts` call per level. Both take the midpoints
    of `_midpoint`, move hi to the midpoint where count >= target, and stop
    on the same test, so they give the same bits.
    """
    diag, offdiag, targets, drow, orow = _lanes(diag, offdiag, np.asarray(targets, dtype=np.int64))
    lo, hi = float(lo), float(hi)
    scale = max(abs(lo), abs(hi)) if targets.size else 1.0
    # the ulp of DBL_MAX is the gap below it, 2^971: np.spacing gives inf there
    ulp = 2.0**971 if scale == sys.float_info.max else np.spacing(scale)
    tol_eff = max(tol, 4.0 * ulp)
    width = hi - lo if targets.size else 0.0
    iters = max(1, int(np.ceil(np.log2(max(width / tol_eff, 2.0)))) + 1)
    if _native.kernel() is None:
        lo, hi = np.full(targets.shape, lo), np.full(targets.shape, hi)
        for _ in range(iters):
            mid = _midpoint(lo, hi)
            above = sturm_counts(diag, offdiag, mid) >= targets
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
            if np.all(hi - lo <= np.maximum(tol, 4.0 * np.spacing(np.abs(mid)))):
                break
        return _midpoint(lo, hi)
    values = (ctypes.c_double * targets.size)()
    _check_status(_native.export("sturm_bisect")(
        _pointer(diag), _pointer(offdiag), diag.shape[-1], _pointer(drow), _pointer(orow),
        _pointer(targets), targets.size, lo, hi, tol, iters, values))
    return np.frombuffer(values).reshape(targets.shape)


def _midpoint(lo, hi):
    """0.5 * (lo + hi), or 0.5 * lo + 0.5 * hi where lo + hi overflows: the
    bits of the first wherever lo + hi is finite, and no inf from a finite
    bracket (the `midpoint` of `_sturm.c`)."""
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
    return np.where(np.isinf(mid), 0.5 * lo + 0.5 * hi, mid)


def _bisection_bracket(diag, offdiag, lo, hi):
    """The window (lo, hi] narrowed to a margin around these rows' spectra.

    The rows' eigenvalues lie in [g_lo, g_hi] = [min diag - 2 max |offdiag|,
    max diag + 2 max |offdiag|], which holds every row's Gershgorin
    interval. A window end more than m = max(1, |g_lo|, |g_hi|) beyond it
    moves to that distance: no eigenvalue lies outside, so the end counts
    as before, and a huge window no longer sets the bisection's iteration
    count and stop test. Tolerances are absolute, so the margin m >= 1
    costs little, and windows within it (such as Gershgorin +- 1) keep
    their bits. Raises ValueError when the bracket is not finite."""
    lo, hi = float(lo), float(hi)
    reach = 2.0 * float(np.max(np.abs(offdiag), initial=0.0))
    g_lo, g_hi = float(np.min(diag)) - reach, float(np.max(diag)) + reach
    margin = max(1.0, abs(g_lo), abs(g_hi))
    lo = g_lo - margin if lo < g_lo - margin else lo  # False with NaN entries
    hi = g_hi + margin if hi > g_hi + margin else hi
    if not math.isfinite(hi - lo):
        raise ValueError(
            f"bisection bracket ({lo}, {hi}] is not finite: the window and the "
            "Gershgorin bound of the operator's entries overflow"
        )
    return lo, hi


def _check_inputs(tol=0.0, **values):
    """ValueError naming the first non-finite value, or a tol that is not >= 0."""
    for name, x in values.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def eigenvalues_in(
    op: TridiagonalOperator,
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> np.ndarray:
    """All eigenvalues in (lo, hi], sorted, each located to width <= tol.

    Counting-indexed bisection: multiplicities are resolved exactly (a k-fold
    eigenvalue appears k times). The bisection is that of
    `batched_eigenvalues_in` on the operator's one row; a window holds at
    most L eigenvalues, so its memory is O(L), the size of the operator.
    """
    _check_window(lo, hi, tol)
    return np.sort(_bisect_window(op.diag[None], op.offdiag, lo, hi, tol)[1])


def batched_eigenvalues_in(
    diag2d: np.ndarray,
    offdiag,
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in (lo, hi] for a batch of operators.

    diag2d: (batch, L), or (1, L) shared; offdiag: (L-1,) shared or (batch, L-1).
    Returns (draw_index, value) arrays, sorted by draw then by value.
    """
    _check_window(lo, hi, tol)
    diag2d = np.asarray(diag2d, dtype=np.float64)
    offdiag = np.asarray(offdiag, dtype=np.float64)
    if diag2d.ndim != 2:
        raise ValueError(f"diag2d must be 2-D (batch, L), got shape {diag2d.shape}")
    return _bisect_window(diag2d, offdiag, lo, hi, tol)


def _bisect_window(diag2d, offdiag, lo, hi, tol):
    """(draw_index, value) of the eigenvalues of rows diag2d in (lo, hi].

    Bisection runs on the batch's own rows: the targets form one (slot, row)
    array over the draws that hold any, each draw's slots padded with copies
    of its own last target. A copy is an identical lane, so it changes
    neither the stop test nor any value, and no row is copied per target.
    The bracket is the window narrowed to a margin around the batch's
    Gershgorin interval (`_bisection_bracket`).
    """
    edges, counts = _window_counts(diag2d, offdiag, [(lo, hi)])
    (lo_e, hi_e), (c_lo, c_hi) = edges[:, 0], counts[:, 0]
    per_draw = (c_hi - c_lo).astype(np.int64)
    draws = np.repeat(np.arange(per_draw.size), per_draw)
    held = per_draw > 0
    if held.any():
        lo_e, hi_e = _bisection_bracket(diag2d, offdiag, lo_e, hi_e)
    if not held.all():  # a row subset of the batch; a shared row stays
        diag2d, offdiag = (x if _one_row(x) else x[held] for x in (diag2d, offdiag))
    per_draw = per_draw[held]
    slots = np.arange(per_draw.max(initial=0))
    # 1-based eigenvalue indices within each draw
    targets = c_lo[held] + 1 + np.minimum(slots[:, None], per_draw - 1)
    values = _bisect_indices(diag2d, offdiag, targets, lo_e, hi_e, tol)
    return draws, values.T[slots < per_draw[:, None]]


def _nearest_index_value(op, j, lo, hi, tol):
    """Eigenvalue E_j located by bisection; requires count(lo) < j <= count(hi)."""
    return float(_bisect_indices(op.diag, op.offdiag, np.array([j]), lo, hi, tol)[0])


def nearest_eigenvalues(
    op: TridiagonalOperator, energy: float, tol: float = 0.0
) -> tuple[float, float]:
    """(E_j, E_{j+1}) with j = #{eigenvalues < energy}: the eigenvalues of op
    nearest `energy` from below and from above, -inf or inf where there is
    none, each bisected to width tol.

    The bisection brackets are those of `_spectrum_bracket`.
    """
    _check_inputs(tol, energy=energy)
    energy = float(energy)
    j = int(sturm_counts(op.diag, op.offdiag, energy))
    glo, ghi = _spectrum_bracket(op, energy)
    below, above = -math.inf, math.inf
    if j >= 1:
        below = _nearest_index_value(op, j, glo, energy, tol)
    if j < op.size:
        above = _nearest_index_value(op, j + 1, np.nextafter(energy, -np.inf), ghi, tol)
    return below, above


def _spectrum_bracket(op, energy):
    """(lo, hi): the Gershgorin interval of op widened by 1 on each side, and
    to reach `energy`; ValueError where (lo, energy] or (energy, hi] is not
    finite, the brackets of the eigenvalues below and above energy."""
    lo, hi = op.gershgorin()
    lo, hi = lo - 1.0, hi + 1.0
    if energy <= lo:
        lo = energy - 1.0
    if energy >= hi:
        hi = energy + 1.0
    if not (math.isfinite(energy - lo) and math.isfinite(hi - energy)):
        raise ValueError(f"energy {energy!r}: a bisection bracket ({lo!r}, {energy!r}] or "
                         f"({energy!r}, {hi!r}] about it is not finite")
    return lo, hi


def nearest_eigenvalue_distance(
    op: TridiagonalOperator, energy: float, tol: float = 0.0
) -> float:
    """Distance from `energy` to the spectrum of op."""
    below, above = nearest_eigenvalues(op, energy, tol)
    return float(min(abs(energy - below), abs(above - energy)))


# ---------------------------------------------------------------------------
# eigenvectors


@dataclass(frozen=True, eq=False)
class EigenvectorResult:
    """Inverse-iteration output with residual and isolation diagnostics.

    `flagged` is set when another eigenvalue sits within 1e-12 * norm bound
    of the Rayleigh quotient, when the gap is at most that tolerance, or when
    inverse iteration stopped with a residual above its target
    1e-10 * norm bound (an unconverged vector).
    """

    value: float
    vector: np.ndarray
    residual: float
    gap: float
    flagged: bool


class _SingularShift(np.linalg.LinAlgError):
    """`_solve_shifted` met a zero pivot: shift is an eigenvalue of op in
    floating point. `null` is the solution's limit as that pivot is perturbed
    towards 0, LAPACK dstein's remedy with the shift left where it is: 1 at
    the first zero pivot, 0 below it, back-substituted above it, a null
    vector of the factor and so of op - shift."""

    def __init__(self, null):
        super().__init__("singular matrix")
        self.null = null


def _solve_shifted(op, shift, rhs):
    """Solve (op - shift) x = rhs: LAPACK dgtsv in plain floats.

    Gaussian elimination with partial pivoting fills a second superdiagonal
    in place of the subdiagonal, then back-substitutes. The operations and
    their order are dgtsv's, so x has the bits of scipy's
    `solve_banded((1, 1), ...)`, which calls it. An exactly zero pivot raises
    `_SingularShift`, a LinAlgError (so does a 1x1 zero system, which scipy
    divides through).
    """
    d = [a - shift for a in op.diag.tolist()]
    if not all(map(math.isfinite, d)):
        raise ValueError(f"shifted diagonal is not finite (shift {shift})")
    n = op.size
    du, b = op.offdiag.tolist(), rhs.tolist()
    dl = list(du)  # the subdiagonal; becomes the second superdiagonal
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):  # no row interchange
            if d[i] == 0.0:
                break
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:  # interchange rows i and i + 1
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if 0.0 in d:  # rows above the first zero pivot k are final
        k = d.index(0.0)
        raise _SingularShift(np.array(
            _back_substitute(d[:k] + [1.0], du, dl, [0.0] * k + [1.0]) + [0.0] * (n - k - 1)))
    return np.array(_back_substitute(d, du, dl, b))


def _back_substitute(d, du, dl, b):
    """x of U x = b, U upper triangular with diagonal d (whose length is the
    size), superdiagonal du and second superdiagonal dl."""
    n = len(d)
    b = list(b)
    b[n - 1] = b[n - 1] / d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def _canonical_sign(v):
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def eigenvector(op: TridiagonalOperator, energy: float) -> EigenvectorResult:
    """Unit eigenvector for the eigenvalue nearest `energy`.

    Inverse iteration from a fixed pseudorandom start vector; the sign is
    fixed by making the largest-magnitude entry positive. Near-degenerate
    eigenvalues (within 1e-12 * op.norm_bound()) yield a flagged result
    instead of an error. A vector whose final residual misses
    1e-10 * op.norm_bound() after `_INVERSE_ITERATIONS` steps (e.g. for an
    `energy` midway between two eigenvalues) is returned flagged as well.
    """
    _check_inputs(energy=energy)
    scale = op.norm_bound()
    target = 1e-10 * scale
    cluster_tol = 1e-12 * scale
    v = _blocks.block_rng(0, 0x9E3779B9).standard_normal(op.size)
    v /= np.linalg.norm(v)
    shift = float(energy)
    resid = np.inf
    for _ in range(_INVERSE_ITERATIONS):
        try:
            w = _solve_shifted(op, shift, v)
        except _SingularShift as exc:
            w = exc.null
        nw = np.linalg.norm(w)
        if not np.isfinite(nw) or nw == 0.0:  # under- or overflow: keep v
            break
        v = w / nw
        ray = float(v @ op.apply(v))
        resid = float(np.linalg.norm(op.apply(v) - ray * v))
        if resid <= target:
            break
    ray = float(v @ op.apply(v))
    resid = float(np.linalg.norm(op.apply(v) - ray * v))
    window = [(ray - cluster_tol, ray + cluster_tol)]
    j_lo, c_hi = _window_counts(op.diag, op.offdiag, window)[1][:, 0, 0].tolist()
    n_cluster = max(c_hi - j_lo, 1)
    glo, ghi = _spectrum_bracket(op, ray)
    j_hi = j_lo + n_cluster
    gap = np.inf
    if j_lo >= 1:
        below = _nearest_index_value(op, j_lo, glo, ray - cluster_tol, 0.0)
        gap = min(gap, ray - below)
    if j_hi < op.size:
        above = _nearest_index_value(op, j_hi + 1, ray + cluster_tol, ghi, 0.0)
        gap = min(gap, above - ray)
    flagged = n_cluster > 1 or gap <= cluster_tol or resid > target
    return EigenvectorResult(ray, _canonical_sign(v), resid, float(gap), bool(flagged))

