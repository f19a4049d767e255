"""Monte Carlo probes for eigenvalue-count statistics on random boxes.

Each probe draws many independent box operators, reduces every draw to
integer window counts via Sturm counting (no eigenvalue extraction in the
hot loops, except where spacings require locations), and aggregates block by
block. All accumulators are integers or fixed-order float merges, so every
probe is bit-for-bit reproducible for a fixed seed, independent of the
worker count.

Probes report a ProbeReport: named point estimates with confidence intervals
(Wilson for proportions, normal for means), the parameters, sample size,
seed, and wall time. The JSON form is canonical apart from the volatile
`runtime_s` field.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from . import _blocks
from .eigensolve import _sorted_set, _window_counts, batched_eigenvalues_in
from .ids import OutsideGridError, estimate_ids, unfold
from .operators import EnsembleSpec, IntervalGraphFamily, map_draws

SCHEMA_VERSION = 1
_Z95 = 1.959963984540054
_KCAP, _JOINT_KCAP = 64, 16  # count histograms put every count >= kcap in their last bin


# ---------------------------------------------------------------------------
# report types


@dataclass(frozen=True)
class Estimate:
    """One named statistic with an optional confidence interval."""

    name: str
    value: float
    ci: tuple[float, float] | None = None


@dataclass
class ProbeReport:
    """Outcome of one probe run; serializes to versioned canonical JSON."""

    name: str
    params: dict
    estimates: list[Estimate]
    samples: int
    seed: int
    runtime_s: float

    def estimate(self, name: str) -> Estimate:
        for e in self.estimates:
            if e.name == name:
                return e
        raise KeyError(f"no estimate named {name!r}")

    def to_json(self) -> str:
        fields = {"schema_version": SCHEMA_VERSION, **_jsonable(dataclasses.asdict(self))}
        return json.dumps(fields, sort_keys=True, indent=2) + "\n"


def _jsonable(v):
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        v = float(v)
        return v if math.isfinite(v) else None
    return v


def _law_params(law) -> dict:
    d = dataclasses.asdict(law)
    d["type"] = type(law).__name__
    return d


def _report(name, spec, params, ests, samples, seed, t0) -> ProbeReport:
    """Report whose params also carry the ensemble kind and law."""
    params = {"kind": spec.kind, "law": _law_params(spec.law), **params}
    return ProbeReport(name, params, ests, samples, seed, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# statistics helpers


def wilson_ci(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        return (0.0, 1.0)
    ph, z = k / n, _Z95
    denom = 1.0 + z * z / n
    center = (ph + z * z / (2 * n)) / denom
    half = z * math.sqrt(ph * (1 - ph) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _proportion(name: str, k, n: int) -> Estimate:
    """Estimate of the proportion k / n with its Wilson CI."""
    return Estimate(name, int(k) / n, wilson_ci(int(k), n))


def normal_ci(mean: float, sd: float, n: int):
    """95% normal interval for a mean of n samples with standard deviation sd."""
    if n <= 1:
        return (-math.inf, math.inf)
    half = _Z95 * sd / math.sqrt(n)
    return (mean - half, mean + half)


def _mean(name, total, total_sq, n):
    """Mean over n draws from the sum and the sum of squares, with a normal CI."""
    mean = float(total / n)
    var = max(total_sq / n - mean**2, 0.0)
    return Estimate(name, mean, normal_ci(mean, math.sqrt(var), n))


def poisson_pmf_with_tail(mean: float, kcap: int) -> np.ndarray:
    """[P(0), ..., P(kcap - 1), P(>= kcap)]: an exact partition of mass 1."""
    if mean < 0:
        raise ValueError("mean must be nonnegative")
    k = np.arange(kcap)
    if mean == 0.0:
        pmf = np.zeros(kcap)
        pmf[0] = 1.0
    else:
        pmf = np.exp(k * math.log(mean) - mean - [math.lgamma(i + 1.0) for i in k])
    tail = max(0.0, 1.0 - float(pmf.sum()))
    return np.concatenate([pmf, [tail]])


def tv_to_poisson(hist: np.ndarray, *means: float) -> float:
    """Total variation between an overflow-binned count histogram with one
    axis per mean and the product of Poisson(mean) laws, each on the
    partition {0, 1, ..., kcap-1, >= kcap} of its axis."""
    hist = np.asarray(hist, dtype=np.float64)
    n = hist.sum()
    if n == 0:
        return 1.0
    pi = reduce(np.multiply.outer, [
        poisson_pmf_with_tail(mean, size - 1) for mean, size in zip(means, hist.shape)
    ])
    return 0.5 * float(np.abs(hist / n - pi).sum())


def ks_to_exponential(sorted_samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance to the unit exponential law."""
    x = np.asarray(sorted_samples, dtype=np.float64)
    m = x.size
    if m == 0:
        return 1.0
    cdf = 1.0 - np.exp(-x)
    i = np.arange(m)
    return float(
        max(np.max(np.abs(cdf - i / m)), np.max(np.abs(cdf - (i + 1) / m)))
    )


def log_slope(widths, values) -> tuple[float, float, int]:
    """OLS slope of log(value) vs log(width) over points with
    0 < value <= 0.1 (the sub-linear regime); returns (slope, stderr, n)."""
    w = np.asarray(widths, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    keep = (v > 0.0) & (v <= 0.1)
    if keep.sum() < 2:
        return (math.nan, math.nan, int(keep.sum()))
    x = np.log(w[keep])
    y = np.log(v[keep])
    n = x.size
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - ym - slope * (x - xm)
    if n > 2:
        se = math.sqrt(float(np.sum(resid**2)) / (n - 2) / sxx)
    else:
        se = math.nan
    return (slope, se, n)


# ---------------------------------------------------------------------------
# block engine: window counts and eigenvalue extraction


def _window_block(groups, kcap, joint_pair, post_affine, first, *draws):
    """One block's integer accumulators, from which `_window_stats` derives
    the rest: count histograms (counts above kcap in the last bin), count
    sums, sums of squares and, for `joint_pair` (i, j), the pair product
    sum(count_i * count_j) and the joint histogram. `groups` holds one tuple
    of half-open windows (lo, hi] per draw stream; `post_affine` (a, b) maps
    each diagonal to a + b * diag first. A group's counts come from one
    `eigensolve._window_counts` call on the block's rows."""
    counts = []
    for windows, (diag, off) in zip(groups, draws):
        if post_affine is not None:  # in place: diag is the block's own omega
            a, b = post_affine
            diag *= b
            diag += a
        c = _window_counts(diag, off, windows)[1]
        counts.append(c[1] - c[0])
    counts = np.concatenate(counts)  # (windows, rows)
    clipped = np.minimum(counts, kcap)
    joint = pair_prod = None
    if joint_pair is not None:
        i, j = joint_pair
        idx = clipped[i] * (kcap + 1) + clipped[j]
        joint = np.bincount(idx, minlength=(kcap + 1) ** 2).reshape(kcap + 1, kcap + 1)
        pair_prod = (counts[i] * counts[j]).sum()
    return {
        "hist": np.array([np.bincount(c, minlength=kcap + 1) for c in clipped]),
        "count_sum": counts.sum(axis=1),
        "count_sq": (counts * counts).sum(axis=1),
        "pair_prod": pair_prod,
        "joint": joint,
    }


def _window_stats(spec, size, seed, total, workers, groups, kcap=_KCAP, joint_pair=None,
                  post_affine=None):
    """`_window_block`'s accumulators summed in block order, a second window
    group counted on an independent draw (the secondary stream), plus per
    window `occupancy` (draws with a count >= 1), `excess_sum` and `excess_sq`
    (sums of max(count - 1, 0) and its square) and `k2` (draws with a count >= 2)."""
    streams = (_blocks.STREAM_PRIMARY, _blocks.STREAM_SECONDARY)[:len(groups)]
    fn = partial(_window_block, groups, kcap, joint_pair, post_affine)
    parts = map_draws(fn, spec, size, seed, total, workers, streams)
    out = parts[0]
    for p in parts[1:]:
        for key, val in p.items():
            if val is not None:
                out[key] = out[key] + val
    hist, count_sum = out["hist"], out["count_sum"]
    out["occupancy"] = total - hist[:, 0]
    out["excess_sum"] = count_sum - out["occupancy"]
    out["excess_sq"] = out["count_sq"] - 2 * count_sum + out["occupancy"]
    out["k2"] = total - hist[:, 0] - hist[:, 1]
    return out


def _extract_block(e_lo, e_hi, first, draw):
    """Eigenvalues in (e_lo, e_hi] of one block's draws, as (global draw
    index, value) arrays sorted by draw then value."""
    draws, values = batched_eigenvalues_in(*draw, e_lo, e_hi)
    return draws + first, values


def _extract(spec, size, seed, total, e_lo, e_hi, workers):
    """Eigenvalues in (e_lo, e_hi] of the first `total` draws, block by block."""
    parts = map_draws(partial(_extract_block, e_lo, e_hi), spec, size, seed, total, workers)
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _width_scan(spec, center, widths, size, samples, seed, workers,
                scale=1.0, post_affine=None):
    """Sorted half-widths w and the window statistics of (center -+ scale * w]."""
    widths = [float(w) for w in widths]
    if not widths or not all(math.isfinite(w) and w > 0 for w in widths):
        raise ValueError("need positive finite window half-widths")
    widths.sort()
    windows = tuple((center - w * scale, center + w * scale) for w in widths)
    return widths, _window_stats(spec, size, seed, samples, workers, (windows,),
                                 post_affine=post_affine)


def _check(name, value, low, strict=False):
    """ValueError naming a parameter below its bound: > low if `strict`,
    else >= low."""
    if not (value > low if strict else value >= low):
        raise ValueError(f"{name} = {value!r}: must be {'>' if strict else '>='} {low}")


def _slope_estimate(name, widths, values):
    """Log-log slope estimate with a 95% CI, and the number of fitted points."""
    slope, se, npts = log_slope(widths, values)
    ci = None
    if math.isfinite(slope) and math.isfinite(se):
        ci = (slope - _Z95 * se, slope + _Z95 * se)
    return Estimate(name, slope, ci), npts


# ---------------------------------------------------------------------------
# occupancy probes (Wegner / Minami scaling)


def wegner_probe(
    spec: EnsembleSpec,
    energy: float,
    widths,
    size: int,
    samples: int,
    seed: int = 0,
    workers: int = 1,
) -> ProbeReport:
    """Window occupancy P[at least one eigenvalue in [E - eps, E + eps]].

    Reports p_hat per half-width eps with Wilson CIs, the log-log slope over
    the sub-linear regime 0 < p_hat <= 0.1 (linear Wegner scaling gives
    slope 1), and C_hat = max p_hat / (eps L), the empirical constant of the
    bound p_hat <= C eps L.
    """
    t0 = time.perf_counter()
    widths, stats = _width_scan(spec, energy, widths, size, samples, seed, workers)
    p = stats["occupancy"] / samples
    ests = [_proportion(f"p_hat[{w:.6g}]", k, samples)
            for w, k in zip(widths, stats["occupancy"])]
    slope, npts = _slope_estimate("slope", widths, p)
    ests.append(slope)
    with np.errstate(over="ignore"):  # eps L = inf: p_hat / inf = 0, as meant
        c_hat = float(np.max(p / (np.asarray(widths) * size)))
    ests.append(Estimate("C_hat", c_hat))
    return _report(
        "wegner", spec,
        {"size": size, "energy": energy, "widths": widths, "slope_points": npts},
        ests, samples, seed, t0,
    )


def minami_probe(
    spec: EnsembleSpec,
    energy: float,
    widths,
    size: int,
    samples: int,
    seed: int = 0,
    workers: int = 1,
) -> ProbeReport:
    """Mean excess E[max(count - 1, 0)] in [E - eps, E + eps] per half-width.

    The excess equals sum_{k >= 2} P[count >= k] (layer cake), the quantity
    bounded quadratically by pair estimates; quadratic scaling gives log-log
    slope 2, and >= 3/2 marks pair suppression at band edges. Means carry
    normal CIs (they are not proportions); P[count >= 2] is also reported
    with a Wilson CI.
    """
    t0 = time.perf_counter()
    widths, stats = _width_scan(spec, energy, widths, size, samples, seed, workers)
    m = stats["excess_sum"] / samples
    ests = []
    for i, w in enumerate(widths):
        ests.append(
            _mean(f"m_hat[{w:.6g}]", stats["excess_sum"][i], stats["excess_sq"][i], samples)
        )
        ests.append(_proportion(f"p2_hat[{w:.6g}]", stats["k2"][i], samples))
    slope, npts = _slope_estimate("slope", widths, m)
    ests.append(slope)
    return _report(
        "minami", spec,
        {"size": size, "energy": energy, "widths": widths, "slope_points": npts},
        ests, samples, seed, t0,
    )


# ---------------------------------------------------------------------------
# two-energy decorrelation


def decorrelation_probe(
    spec: EnsembleSpec,
    energy_a: float,
    energy_b: float,
    size: int,
    samples: int,
    seed: int = 0,
    workers: int = 1,
    half_width: float | None = None,
    disjoint: bool = False,
) -> ProbeReport:
    """Joint vs product occupancy of two energy windows of width 2/L.

    Same-draw mode measures P[both windows hit] / (P[A] P[B]) with a
    delta-method CI on the log ratio; independence of distant energies
    predicts ratio 1. `disjoint=True` evaluates the second window on an
    independent draw (a physically separated box), a positive control that
    must always give ratio 1. For the pure hopping model at mirrored
    energies (energy_b == -energy_a) the two events coincide exactly by
    symmetry; the observed disagreement count is then reported as
    `event_mismatch`.
    """
    t0 = time.perf_counter()
    _check("size", size, 1)
    if half_width is None:
        half_width = 1.0 / size
    _check("half_width", half_width, 0, strict=True)
    wa = (energy_a - half_width, energy_a + half_width)
    wb = (energy_b - half_width, energy_b + half_width)
    groups = ((wa,), (wb,)) if disjoint else ((wa, wb),)
    stats = _window_stats(spec, size, seed, samples, workers, groups, joint_pair=(0, 1))
    joint = stats["joint"]
    n = samples
    n_both = int(joint[1:, 1:].sum())
    n_a = int(stats["occupancy"][0])
    n_b = int(stats["occupancy"][1])
    p11, pa, pb = n_both / n, n_a / n, n_b / n
    ests = [
        _proportion("p_joint", n_both, n),
        _proportion("p_first", n_a, n),
        _proportion("p_second", n_b, n),
    ]
    if p11 > 0 and pa > 0 and pb > 0:
        ratio = p11 / (pa * pb)
        v11 = p11 * (1 - p11)
        vaa = pa * (1 - pa)
        vbb = pb * (1 - pb)
        c11a = p11 * (1 - pa)
        c11b = p11 * (1 - pb)
        cab = p11 - pa * pb
        var_log = (
            v11 / p11**2
            + vaa / pa**2
            + vbb / pb**2
            - 2 * c11a / (p11 * pa)
            - 2 * c11b / (p11 * pb)
            + 2 * cab / (pa * pb)
        ) / n
        half = _Z95 * math.sqrt(max(var_log, 0.0))
        ests.append(
            Estimate("ratio", ratio, (ratio * math.exp(-half), ratio * math.exp(half)))
        )
        var_d = (
            v11
            + pb**2 * vaa
            + pa**2 * vbb
            - 2 * pb * c11a
            - 2 * pa * c11b
            + 2 * pa * pb * cab
        )
        z = (p11 - pa * pb) / math.sqrt(max(var_d / n, 1e-300))
        ests.append(Estimate("excess_sigma", z))
    else:
        ests.append(Estimate("ratio", math.nan))
        ests.append(Estimate("excess_sigma", math.nan))
    if not disjoint and spec.kind == "hopping" and energy_b == -energy_a:
        mismatch = n_a + n_b - 2 * n_both
        ests.append(Estimate("event_mismatch", float(mismatch)))
    return _report(
        "decorrelation", spec,
        {"size": size, "energy_a": energy_a, "energy_b": energy_b,
         "half_width": half_width, "disjoint": disjoint},
        ests, samples, seed, t0,
    )

# ---------------------------------------------------------------------------
# local statistics around a reference energy


# The local density at a center is the IDS increment over center +/- this
# span, read from a coarse grid over center +/- IDS_COARSE_HALF_WIDTH.
IDS_DENSITY_HALF_SPAN = 0.2
IDS_COARSE_HALF_WIDTH = 0.75


def _unfolded_windows(spec, size, seed, workers, bands, points, samples):
    """(table, windows): an integrated-density table for unfolding near the
    bands' centers, and each band's energy window.

    A band (c, (a, b)) asks for the energies whose unfolded coordinates sit at
    N(c) * L + a and N(c) * L + b, with a and b in mean spacings. The table is
    estimated in two stages: a coarse pass pins the local density
    (N(c + 0.2) - N(c - 0.2)) / 0.4 at each distinct center c, then a fine
    high-sample pass covers just the span the windows need (max |a|, |b| over
    the bands, plus safety margin, on each side of every center). Unfolding
    precision is what limits the count statistics, so the sample budget is
    concentrated on the few relevant spacings around each center.

    The coarse interpolation nodes are 41 points over [c - 0.75, c + 0.75]
    per center, but only the two nodes around each of c +/- 0.2 are swept:
    they are all that linear interpolation reads there, and every grid
    energy is an independent lane of the same draws, so the density is the
    one the full 41-point table gives.

    Both passes count through `estimate_ids`. With the C library it sweeps
    a row only where its count can change: the Sturm count does not
    decrease as the energy grows, so between two grid energies where a
    row's counts agree, no energy of the grid is swept for that row. On the
    fine grid of a few mean spacings most rows hold no eigenvalue in most
    of the grid's intervals; on the coarse nodes, whose intervals each hold
    many eigenvalues, every lane is swept. Without the library each grid is
    one numpy sweep, which is faster there (see `eigensolve._grid_counts`).
    """
    _check("ids_points", points, 2)
    _check("ids_samples", samples, 1)
    centers = list(dict.fromkeys(c for c, _ in bands))
    max_offset = max(abs(x) for _, ab in bands for x in ab)
    hw = IDS_COARSE_HALF_WIDTH
    for c in centers:
        if not c - hw < c + hw:  # both round to c
            raise ValueError(f"energy {c!r}: too large to tabulate the IDS about it")
    nodes = _sorted_set(np.concatenate([np.linspace(c - hw, c + hw, 41) for c in centers]))
    queries = np.array([[c - IDS_DENSITY_HALF_SPAN, c + IDS_DENSITY_HALF_SPAN] for c in centers])
    # np.interp reads nodes right - 1 and right; a query on the last node reads it
    right = np.searchsorted(nodes, queries.ravel(), side="right").clip(1, nodes.size - 1)
    coarse = estimate_ids(
        spec, size, 64, nodes[_sorted_set(np.concatenate([right - 1, right]))],
        seed=seed, workers=workers, stream=_blocks.STREAM_IDS,
    )
    fine = []
    for c, pair in zip(centers, queries):
        n_lo, n_hi = coarse.evaluate(pair)
        density = max((n_hi - n_lo) / (2 * IDS_DENSITY_HALF_SPAN), 1e-3)
        span = 2.5 * (max_offset + 2.0) / (size * density)
        fine.append(np.linspace(c - span, c + span, points))
    table = estimate_ids(
        spec, size, samples, _sorted_set(np.concatenate(fine)), seed=seed,
        workers=workers, stream=_blocks.STREAM_IDS,
    )
    windows = []
    for c, ab in bands:
        n0 = float(table.evaluate(np.array([c]))[0])
        try:
            lo, hi = table.inverse(n0 + np.asarray(ab, dtype=np.float64) / size)
        except OutsideGridError:
            raise OutsideGridError(
                f"energy {c!r}: the window {tuple(ab)} mean spacings about it leaves "
                "the IDS table; the energy lies outside the spectrum or too near its edge"
            ) from None
        windows.append((float(lo), float(hi)))
    return table, tuple(windows)


def level_statistics_probe(
    spec: EnsembleSpec,
    energy: float,
    size: int,
    samples: int,
    seed: int = 0,
    workers: int = 1,
    intervals=((0.0, 1.0), (1.0, 2.0), (0.0, 2.0)),
    ids_points: int = 161,
    ids_samples: int = 2048,
    collect: int = 0,
) -> tuple[ProbeReport, list[np.ndarray]]:
    """Counting statistics of the unfolded spectrum near a reference energy.

    Each interval (a, b) in unfolded (mean-spacing) units is mapped back to
    an energy window through the inverse integrated density of states; the
    count histogram over draws is compared to Poisson(b - a) in total
    variation, and the count correlation across the first two intervals is
    reported as corr_z = r * sqrt(n) (asymptotically standard normal under
    independence). With collect > 0 the sorted unfolded points of the first
    `collect` draws are returned alongside the report, draw r at position r.
    """
    t0 = time.perf_counter()
    _check("samples", samples, 1)  # before the IDS estimate, which takes seconds
    _check("collect", collect, 0)
    intervals = [(float(a), float(b)) for a, b in intervals]
    if not intervals:
        raise ValueError("intervals: must be non-empty")
    for a, b in intervals:
        if not b > a:
            raise ValueError("intervals must have positive length")
    table, windows = _unfolded_windows(
        spec, size, seed, workers, [(energy, ab) for ab in intervals],
        ids_points, ids_samples,
    )
    pair = (0, 1) if len(intervals) >= 2 else None
    stats = _window_stats(spec, size, seed, samples, workers, (windows,), joint_pair=pair)
    ests = []
    for i, (a, b) in enumerate(intervals):
        tag = f"{a:.6g},{b:.6g}"
        ests.append(Estimate(f"tv_poisson[{tag}]", tv_to_poisson(stats["hist"][i], b - a)))
        ests.append(_mean(f"mean_count[{tag}]", stats["count_sum"][i],
                          stats["count_sq"][i], samples))
    if pair is not None:
        ests.append(Estimate("corr_z", _pair_corr_z(stats, samples)))
    report = _report(
        "level_statistics", spec,
        {"size": size, "energy": energy, "intervals": intervals, "windows": windows,
         "kcap": _KCAP},
        ests, samples, seed, t0,
    )
    configs = []
    if collect > 0:
        lo = min(w[0] for w in windows)
        hi = max(w[1] for w in windows)
        draws, values = _extract(spec, size, seed, collect, lo, hi, workers)
        xi = unfold(values, table, energy, size)
        configs = [np.sort(xi[draws == r]) for r in range(collect)]
    report.runtime_s = time.perf_counter() - t0
    return report, configs


def _pair_corr_z(stats, n):
    m1 = stats["count_sum"][0] / n
    m2 = stats["count_sum"][1] / n
    v1 = stats["count_sq"][0] / n - m1**2
    v2 = stats["count_sq"][1] / n - m2**2
    if v1 <= 0 or v2 <= 0:
        return math.nan
    cov = stats["pair_prod"] / n - m1 * m2
    return float(cov / math.sqrt(v1 * v2) * math.sqrt(n))


def joint_independence_probe(
    spec: EnsembleSpec,
    energy_a: float,
    energy_b: float,
    size: int,
    samples: int,
    seed: int = 0,
    workers: int = 1,
    length_a: float = 1.0,
    length_b: float = 1.0,
    ids_points: int = 161,
    ids_samples: int = 2048,
) -> ProbeReport:
    """Joint count law at two separated energies vs the product of Poissons.

    Takes one unfolded interval of the given length at each energy, forms
    the joint count histogram over draws, and reports its total variation
    distance to Poisson(length_a) x Poisson(length_b), the marginal TVs, and
    corr_z for the pair. Joint Poisson convergence at distinct energies is
    the two-point refinement of single-energy Poisson statistics.
    """
    t0 = time.perf_counter()
    _check("samples", samples, 1)  # before the IDS estimate, which takes seconds
    if energy_a == energy_b:
        raise ValueError("energy_a and energy_b must be distinct")
    _check("length_a", length_a, 0, strict=True)
    _check("length_b", length_b, 0, strict=True)
    _, windows = _unfolded_windows(
        spec, size, seed, workers,
        [(energy_a, (-length_a / 2, length_a / 2)), (energy_b, (-length_b / 2, length_b / 2))],
        ids_points, ids_samples,
    )
    if windows[0][1] >= windows[1][0] and windows[1][1] >= windows[0][0]:
        raise ValueError("the energy_a and energy_b windows overlap; separate the energies")
    stats = _window_stats(spec, size, seed, samples, workers, (windows,), _JOINT_KCAP, (0, 1))
    ests = [
        Estimate("tv_joint", tv_to_poisson(stats["joint"], length_a, length_b)),
        Estimate("tv_first", tv_to_poisson(stats["hist"][0], length_a)),
        Estimate("tv_second", tv_to_poisson(stats["hist"][1], length_b)),
        Estimate("corr_z", _pair_corr_z(stats, samples)),
    ]
    ests += [_mean(f"mean_{tag}", stats["count_sum"][i], stats["count_sq"][i], samples)
             for i, tag in enumerate(("first", "second"))]
    return _report(
        "joint_independence", spec,
        {"size": size, "energy_a": energy_a, "energy_b": energy_b,
         "length_a": length_a, "length_b": length_b,
         "windows": [list(windows[0]), list(windows[1])], "kcap": _JOINT_KCAP},
        ests, samples, seed, t0,
    )


# ---------------------------------------------------------------------------
# nearest-neighbour spacings


def spacing_probe(
    spec: EnsembleSpec,
    energy: float,
    size: int,
    samples: int,
    seed: int = 0,
    workers: int = 1,
    half_width: float = 2.0,
    ids_points: int = 301,
    ids_samples: int = 2048,
) -> tuple[ProbeReport, np.ndarray]:
    """Unfolded nearest-neighbour spacings pooled over draws.

    `half_width` is in unfolded units: the observation window is
    [E - h/L', E + h/L'] with h resolved through the inverse integrated
    density so it holds ~2*half_width levels on average. Reports the KS
    distance of the pooled spacings to the unit exponential (the Poisson
    spacing law) and the mean spacing with a normal CI; returns the spacing
    array for downstream plotting. A run with no spacings reports
    n_spacings = 0 and NaN statistics.
    """
    t0 = time.perf_counter()
    _check("samples", samples, 1)  # before the IDS estimate, which takes seconds
    _check("half_width", half_width, 0, strict=True)
    table, [(lo, hi)] = _unfolded_windows(
        spec, size, seed, workers, [(energy, (-half_width, half_width))],
        ids_points, ids_samples,
    )
    draws, values = _extract(spec, size, seed, samples, lo, hi, workers)
    unfolded = unfold(values, table, energy, size)
    spacings = np.diff(unfolded)[draws[1:] == draws[:-1]]
    m = spacings.size
    if m == 0:
        ests = [
            Estimate("n_spacings", 0.0),
            Estimate("mean_spacing", math.nan),
            Estimate("ks_exponential", math.nan),
        ]
    else:
        mean = math.fsum(spacings.tolist()) / m
        sd = float(np.std(spacings)) if m > 1 else math.nan
        ests = [
            Estimate("n_spacings", float(m)),
            Estimate("mean_spacing", mean, normal_ci(mean, sd, m)),
            Estimate("ks_exponential", ks_to_exponential(np.sort(spacings))),
        ]
    report = _report(
        "spacing", spec,
        {"size": size, "energy": energy, "half_width": half_width,
         "window": [lo, hi]},
        ests, samples, seed, t0,
    )
    return report, spacings


# ---------------------------------------------------------------------------
# quantum graph window counts


def qgraph_minami_probe(
    law,
    energy: float,
    widths,
    size: int,
    samples: int,
    seed: int = 0,
    workers: int = 1,
) -> ProbeReport:
    """Occupancy and pair probabilities for the reduced quantum-graph matrix.

    Counts eigenvalues of the fixed-energy reduction R(E0) = A(E0) - W/c(E0)
    in (-eps', eps'] where eps' = width_scale * eps. The width_scale
    |sin(sqrt E0)|/sqrt(E0) = 1/|c(E0)| converts vertex-eigenvalue windows to
    the graph-eigenvalue scale; its absolute value keeps the windows the
    right way round where sin(sqrt E0) < 0. Linear/quadratic scaling of p1/p2
    in eps is the graph analogue of the single/pair window bounds.
    """
    t0 = time.perf_counter()
    family = IntervalGraphFamily()
    lam = family.lambda_at(energy)  # -c(E0); DomainError for E0 <= 0 or at a pole
    mu = family.mu_at(energy)
    root = math.sqrt(energy)
    width_scale = abs(math.sin(root)) / root
    # diag of R(E0) is (omega - mu)/lam on top of the -1 couplings
    widths, stats = _width_scan(
        EnsembleSpec("qgraph", law=law), 0.0, widths, size, samples, seed,
        workers, scale=width_scale, post_affine=(-mu / lam, 1.0 / lam),
    )
    p1 = stats["occupancy"] / samples
    p2 = stats["k2"] / samples
    ests = []
    for i, w in enumerate(widths):
        ests.append(_proportion(f"p1_hat[{w:.6g}]", stats["occupancy"][i], samples))
        ests.append(_proportion(f"p2_hat[{w:.6g}]", stats["k2"][i], samples))
    ests.append(_slope_estimate("slope_k1", widths, p1)[0])
    ests.append(_slope_estimate("slope_k2", widths, p2)[0])
    scaled = np.asarray(widths) * width_scale
    with np.errstate(over="ignore"):  # as for wegner's C_hat
        ests.append(Estimate("c1_hat", float(np.max(p1 / (scaled * size)))))
    params = {"law": _law_params(law), "size": size, "energy": energy,
              "widths": widths, "width_scale": width_scale}
    return ProbeReport(
        "qgraph_minami", params, ests, samples, seed, time.perf_counter() - t0
    )
