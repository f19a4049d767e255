"""Counting-based spectral routines for symmetric tridiagonal operators.

The workhorse is the Sturm negative-pivot count of the shifted LDL^T
factorization: `sturm_count(H, E)` returns #{eigenvalues < E} exactly (up to
floating-point pivot signs), in O(L) flops and without forming any matrix.
Window counts, bisection eigenvalue extraction, and the batched Monte Carlo
kernels are all built on it. Dense LAPACK diagonalization is available as an
independent oracle for small matrices only.

Eigenvalue indices are 1-based (E_1 <= ... <= E_L); site indices are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .operators import TridiagonalOperator

_TINY = 1e-300  # pivot clamp; preserves sign, zero maps to +tiny

# Calls with at most this many lanes (broadcast batch entries) sweep each lane
# as a plain-float loop; wider calls take the site-major numpy sweep, which
# costs 2-3 us per site step at any lane count below a few hundred. Measured
# on a 2-core Xeon VM (Python 3.11, numpy 2.4), the two paths cost the same
# at about 24 lanes when the lanes share one diagonal (L = 30, 60 and 5000)
# and at about 16 when each lane has its own row, converted lane by lane.
_FLOAT_LANES = 20

# Bytes of pivots one site tile of the numpy sweep holds. The tile is the only
# site-major copy of the input, so memory stays O(lanes) above the input.
# 256 KB to 4 MB tiles timed within noise of each other on the VM above
# (1048 lanes x L = 1000: 5.0-6.6 ns/pivot; 104 lanes x L = 10^4: 24-28).
_TILE_BYTES = 1 << 18

DEFAULT_MAX_WINDOW_EIGS = 512
DEFAULT_ORACLE_MAX = 64


def sturm_counts(diag, offdiag, shifts) -> np.ndarray:
    """Vectorized negative-pivot counts: #{eigenvalues < shift}.

    diag: (..., L); offdiag: (..., L-1) or (L-1,); shifts: broadcastable to
    the batch shape of diag. Returns int64 counts of the broadcast batch
    shape. Pivots with |d| < 1e-300 are clamped to +/-1e-300 keeping their
    sign (zeros of either sign clamp to +tiny; NaN passes through), which
    preserves the count and makes the recurrence division-safe.

    Up to `_FLOAT_LANES` lanes run as plain-float loops, wider batches as one
    site-major numpy sweep; both do the same IEEE operations in the same
    order, so the counts do not depend on the path.
    """
    diag = np.asarray(diag, dtype=np.float64)
    offdiag = np.asarray(offdiag, dtype=np.float64)
    shifts = np.asarray(shifts, dtype=np.float64)
    size = diag.shape[-1]
    if offdiag.shape[-1:] != (size - 1,):
        raise ValueError(f"offdiag needs {size - 1} entries per row, got shape {offdiag.shape}")
    flat = diag.ndim == 1 and offdiag.ndim == 1
    if flat:
        shape = shifts.shape
    else:
        shape = np.broadcast_shapes(diag.shape[:-1], offdiag.shape[:-1], shifts.shape)
    lanes = math.prod(shape)
    if lanes > _FLOAT_LANES:
        return _site_major_counts(diag, offdiag, shifts, shape)
    offsq = np.square(offdiag)
    if flat:
        a, b = diag.tolist(), offsq.tolist()
        counts = [_float_sweep(a, b, s) for s in shifts.ravel().tolist()]
    else:
        rows = np.broadcast_to(diag, shape + (size,)).reshape(lanes, size)
        offs = np.broadcast_to(offsq, shape + (size - 1,)).reshape(lanes, size - 1)
        counts = [
            _float_sweep(a.tolist(), b.tolist(), s)
            for a, b, s in zip(rows, offs, np.broadcast_to(shifts, shape).ravel().tolist())
        ]
    return np.array(counts, dtype=np.int64).reshape(shape)


def _float_sweep(a, b, s, tiny=_TINY):
    """Negative pivots of one lane: diag list a, squared couplings b, shift s."""
    d = a[0] - s
    c = 0
    if d < 0.0:
        c = 1
        if d > -tiny:
            d = -tiny
    elif d < tiny:  # also -0.0, which is not < 0.0
        d = tiny
    for ak, bk in zip(a[1:], b):
        d = (ak - s) - bk / d
        if d < 0.0:
            c += 1
            if d > -tiny:
                d = -tiny
        elif d < tiny:
            d = tiny
    return c


def _site_major_counts(diag, offdiag, shifts, shape):
    """The sweep over a (sites, *shape) layout, one tile of sites at a time.

    Each tile is first swept without the clamp. The clamp leaves every pivot
    with |d| >= tiny (or NaN) unchanged, so a tile holding no smaller pivot
    is exact as it stands; otherwise the tile is swept again with the clamp
    from the pivot before it.
    """
    size = diag.shape[-1]
    ndim = len(shape)

    def site_major(x):  # a view: the site axis first, batch axes aligned with shape
        lead = (1,) * (ndim + 1 - x.ndim)
        return np.moveaxis(x, -1, 0).reshape(x.shape[-1:] + lead + x.shape[:-1])

    dsite, osite = site_major(diag), site_major(offdiag)
    tile = max(1, min(size, _TILE_BYTES // (8 * math.prod(shape))))
    buf = np.empty((tile,) + shape)
    q = np.empty(shape)
    count = np.zeros(shape, dtype=np.int64)
    d = None
    with np.errstate(all="ignore"):
        for k0 in range(0, size, tile):
            k1 = min(size, k0 + tile)
            piv = buf[: k1 - k0]
            offsq = np.square(osite[max(k0 - 1, 0) : k1 - 1])
            _tile_pivots(piv, dsite[k0:k1], shifts, offsq, d, q, clamp=False)
            if (np.abs(piv) < _TINY).any():
                _tile_pivots(piv, dsite[k0:k1], shifts, offsq, d, q, clamp=True)
            count += (piv < 0.0).sum(axis=0)
            d = piv[-1].copy()
    return count


def _tile_pivots(piv, dtile, shifts, offsq, d, q, clamp):
    """Pivots of one site tile into piv; d is the pivot before it (None at site 0)."""
    np.subtract(dtile, shifts, out=piv)
    # a - s is the only term that can be -0.0; with it gone, no pivot is -0.0,
    # and copysign(max(|d|, tiny), d) maps zeros to +tiny as the clamp requires
    piv += 0.0
    if d is None:
        if clamp:
            _clamp(piv[0], q)
        d, piv = piv[0], piv[1:]
    for p, b in zip(piv, offsq):
        np.divide(b, d, out=q)
        np.subtract(p, q, out=p)
        if clamp:
            _clamp(p, q)
        d = p


def _clamp(d, scratch):
    np.abs(d, out=scratch)
    np.maximum(scratch, _TINY, out=scratch)
    np.copysign(scratch, d, out=d)


def sturm_count(op: TridiagonalOperator, energy: float) -> int:
    """#{eigenvalues of op strictly below energy}."""
    return int(sturm_counts(op.diag, op.offdiag, float(energy)))


def count_in_interval(op: TridiagonalOperator, lo: float, hi: float) -> int:
    """Number of eigenvalues in the half-open interval (lo, hi]."""
    if not lo <= hi:
        raise ValueError("need lo <= hi")
    edges = np.nextafter([lo, hi], np.inf)
    c = sturm_counts(op.diag, op.offdiag, edges)
    return int(c[1] - c[0])


def _bisect_indices(diag, offsq_offdiag, targets, lo, hi, tol):
    """Bisection for eigenvalues with 1-based indices `targets` (vectorized).

    Invariant per target j: count(lo) < j <= count(hi). Terminates when the
    bracket width is below max(tol, 4 ulp); all brackets start equal so a
    fixed iteration count suffices.
    """
    targets = np.asarray(targets, dtype=np.int64)
    lo = np.full(targets.shape, lo, dtype=np.float64)
    hi = np.full(targets.shape, hi, dtype=np.float64)
    scale = float(np.max(np.abs([lo.ravel()[0], hi.ravel()[0]]))) if targets.size else 1.0
    tol_eff = max(tol, 4.0 * np.spacing(scale))
    width = float(hi.ravel()[0] - lo.ravel()[0]) if targets.size else 0.0
    iters = max(1, int(np.ceil(np.log2(max(width / tol_eff, 2.0)))) + 1)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        counts = sturm_counts(diag, offsq_offdiag, mid)
        above = counts >= targets
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
        if np.all(hi - lo <= np.maximum(tol, 4.0 * np.spacing(np.abs(mid)))):
            break
    return 0.5 * (lo + hi)


def eigenvalues_in(
    op: TridiagonalOperator,
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_window_eigs: int = DEFAULT_MAX_WINDOW_EIGS,
) -> np.ndarray:
    """All eigenvalues in (lo, hi], sorted, each located to width <= tol.

    Counting-indexed bisection: multiplicities are resolved exactly (a k-fold
    eigenvalue appears k times). Refuses windows holding more than
    `max_window_eigs` eigenvalues.
    """
    if not lo <= hi:
        raise ValueError("need lo <= hi")
    lo_e, hi_e = np.nextafter([lo, hi], np.inf)
    c = sturm_counts(op.diag, op.offdiag, np.array([lo_e, hi_e]))
    n_here = int(c[1] - c[0])
    if n_here == 0:
        return np.empty(0)
    if n_here > max_window_eigs:
        raise ValueError(
            f"window holds {n_here} eigenvalues > max_window_eigs="
            f"{max_window_eigs}; shrink the window or raise the cap"
        )
    targets = np.arange(int(c[0]) + 1, int(c[1]) + 1)
    vals = _bisect_indices(op.diag, op.offdiag, targets, lo_e, hi_e, tol)
    return np.sort(vals)


def batched_eigenvalues_in(
    diag2d: np.ndarray,
    offdiag,
    lo: float,
    hi: float,
    tol: float = 1e-10,
    chunk: int = 4096,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in (lo, hi] for a batch of operators sharing couplings.

    diag2d: (batch, L); offdiag: (L-1,) shared or (batch, L-1).
    Returns (draw_index, value) arrays, sorted by draw then by value.
    """
    diag2d = np.asarray(diag2d, dtype=np.float64)
    offdiag = np.asarray(offdiag, dtype=np.float64)
    lo_e, hi_e = np.nextafter([lo, hi], np.inf)
    c_lo = sturm_counts(diag2d, offdiag, lo_e)
    c_hi = sturm_counts(diag2d, offdiag, hi_e)
    per_draw = (c_hi - c_lo).astype(np.int64)
    draws = np.repeat(np.arange(diag2d.shape[0]), per_draw)
    # 1-based eigenvalue indices within each draw
    targets = np.concatenate(
        [np.arange(a + 1, b + 1) for a, b in zip(c_lo, c_hi) if b > a]
        or [np.empty(0, dtype=np.int64)]
    )
    values = np.empty(draws.size)
    for start in range(0, draws.size, chunk):
        sel = slice(start, min(start + chunk, draws.size))
        dsel = diag2d[draws[sel]]
        osel = offdiag if offdiag.ndim == 1 else offdiag[draws[sel]]
        values[sel] = _bisect_indices(dsel, osel, targets[sel], lo_e, hi_e, tol)
    return draws, values


def _nearest_index_value(op, j, lo, hi, tol):
    """Eigenvalue E_j located by bisection; requires count(lo) < j <= count(hi)."""
    return float(_bisect_indices(op.diag, op.offdiag, np.array([j]), lo, hi, tol)[0])


def nearest_eigenvalue_distance(
    op: TridiagonalOperator, energy: float, tol: float = 0.0
) -> float:
    """Distance from `energy` to the spectrum of op."""
    glo, ghi = op.gershgorin()
    glo, ghi = glo - 1.0, ghi + 1.0
    if energy <= glo:
        glo = float(energy) - 1.0
    if energy >= ghi:
        ghi = float(energy) + 1.0
    j = int(sturm_counts(op.diag, op.offdiag, float(energy)))
    best = np.inf
    if j >= 1:
        below = _nearest_index_value(op, j, glo, float(energy), tol)
        best = min(best, abs(energy - below))
    if j < op.size:
        above = _nearest_index_value(op, j + 1, np.nextafter(energy, -np.inf), ghi, tol)
        best = min(best, abs(above - energy))
    return float(best)


# ---------------------------------------------------------------------------
# eigenvectors


@dataclass(frozen=True, eq=False)
class EigenvectorResult:
    """Inverse-iteration output with residual and isolation diagnostics.

    `flagged` is set when another eigenvalue sits within `cluster_tol` of the
    Rayleigh quotient (`cluster` then carries an orthonormal basis of the
    near-degenerate group; it holds just the vector itself otherwise), when
    the gap is at most `gap_floor`, or when inverse iteration stopped with a
    residual above its target 1e-10 * norm bound (an unconverged vector).
    """

    value: float
    vector: np.ndarray
    residual: float
    gap: float
    flagged: bool
    cluster: tuple = field(repr=False, default=())


def _solve_shifted(op, shift, rhs):
    ab = np.zeros((3, op.size))
    ab[0, 1:] = op.offdiag
    ab[1, :] = op.diag - shift
    ab[2, :-1] = op.offdiag
    return scipy.linalg.solve_banded((1, 1), ab, rhs)


def _canonical_sign(v):
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def eigenvector(
    op: TridiagonalOperator,
    energy: float,
    seed: int = 0,
    max_iter: int = 8,
    cluster_tol: float | None = None,
    gap_floor: float | None = None,
) -> EigenvectorResult:
    """Unit eigenvector for the eigenvalue nearest `energy`.

    Inverse iteration from a deterministic seeded start vector; the sign is
    fixed by making the largest-magnitude entry positive. Near-degenerate
    eigenvalues (gap <= gap_floor) yield a flagged result carrying the whole
    cluster basis instead of an error. A vector whose final residual misses
    1e-10 * op.norm_bound() after `max_iter` steps (e.g. for an `energy`
    midway between two eigenvalues) is returned flagged as well.
    """
    scale = op.norm_bound()
    target = 1e-10 * scale
    if cluster_tol is None:
        cluster_tol = 1e-12 * scale
    if gap_floor is None:
        gap_floor = cluster_tol
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed & (2**64 - 1), 0x9E3779B9], dtype=np.uint64))
    )
    v = rng.standard_normal(op.size)
    v /= np.linalg.norm(v)
    shift = float(energy)
    resid = np.inf
    for _ in range(max_iter):
        try:
            w = _solve_shifted(op, shift, v)
        except np.linalg.LinAlgError:
            shift = shift + 1e-13 * scale
            continue
        nw = np.linalg.norm(w)
        if not np.isfinite(nw) or nw == 0.0:
            shift = shift + 1e-13 * scale
            continue
        v = w / nw
        ray = float(v @ op.apply(v))
        resid = float(np.linalg.norm(op.apply(v) - ray * v))
        if resid <= target:
            break
    ray = float(v @ op.apply(v))
    resid = float(np.linalg.norm(op.apply(v) - ray * v))
    n_cluster = count_in_interval(op, ray - cluster_tol, ray + cluster_tol)
    n_cluster = max(n_cluster, 1)
    glo, ghi = op.gershgorin()
    glo, ghi = glo - 1.0, ghi + 1.0
    j_lo = int(sturm_counts(op.diag, op.offdiag, np.nextafter(ray - cluster_tol, np.inf)))
    j_hi = j_lo + n_cluster
    gap = np.inf
    if j_lo >= 1:
        below = _nearest_index_value(op, j_lo, glo, ray - cluster_tol, 0.0)
        gap = min(gap, ray - below)
    if j_hi < op.size:
        above = _nearest_index_value(op, j_hi + 1, ray + cluster_tol, ghi, 0.0)
        gap = min(gap, above - ray)
    flagged = n_cluster > 1 or gap <= gap_floor or resid > target
    v = _canonical_sign(v)
    cluster = (v,)
    if n_cluster > 1:
        # orthogonalized inverse iteration for the near-degenerate group
        vecs = [v]
        shift_c = ray + 3e-14 * scale
        for _ in range(1, n_cluster):
            w = rng.standard_normal(op.size)
            w /= np.linalg.norm(w)
            for _ in range(max_iter):
                try:
                    w = _solve_shifted(op, shift_c, w)
                except np.linalg.LinAlgError:
                    shift_c += 1e-14 * scale
                    continue
                for b in vecs:
                    w -= (b @ w) * b
                nw = np.linalg.norm(w)
                if nw == 0.0:
                    w = rng.standard_normal(op.size)
                    nw = np.linalg.norm(w)
                w /= nw
            for b in vecs:
                w -= (b @ w) * b
            nw = np.linalg.norm(w)
            if nw > 0:
                vecs.append(_canonical_sign(w / nw))
        cluster = tuple(vecs)
    return EigenvectorResult(ray, v, resid, float(gap), bool(flagged), cluster)


def localization_center(vector: np.ndarray) -> int:
    """1-based site of the largest |entry|; ties resolve to the first."""
    v = np.asarray(vector)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("need a nonempty vector")
    return int(np.argmax(np.abs(v))) + 1


def envelope_decay_rate(vector: np.ndarray, center: int | None = None) -> float:
    """Least-squares exponential decay rate of |v| away from its center.

    Fits log|v(n)| ~ const - rate * |n - center| over entries above the
    floor 1e-300; positive return means decay.
    """
    v = np.abs(np.asarray(vector, dtype=np.float64))
    if center is None:
        center = localization_center(v)
    dist = np.abs(np.arange(1, v.size + 1) - center)
    keep = v > 1e-300
    if keep.sum() < 2:
        return 0.0
    slope = np.polyfit(dist[keep], np.log(v[keep]), 1)[0]
    return float(-slope)


# ---------------------------------------------------------------------------
# dense oracle


def dense_spectrum(
    op: TridiagonalOperator,
    vectors: bool = False,
    oracle_max: int = DEFAULT_ORACLE_MAX,
):
    """Full spectrum via LAPACK, for small matrices only.

    Independent of the Sturm/bisection path; used as a cross-checking oracle.
    Raises for sizes above `oracle_max` to keep it out of hot loops.
    """
    if op.size > oracle_max:
        raise ValueError(
            f"dense oracle capped at {oracle_max} (got {op.size}); "
            "raise oracle_max explicitly for reference computations"
        )
    if vectors:
        vals, vecs = np.linalg.eigh(op.to_dense())
        return vals, vecs
    return np.linalg.eigvalsh(op.to_dense())
