"""Probe statistics: closed-form helpers, brute-force count equality,
worker invariance, and report serialization."""

import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randspec import (
    DomainError,
    EnsembleSpec,
    QGraphInstance,
    UniformLaw,
    decorrelation_probe,
    estimate_ids,
    joint_independence_probe,
    level_statistics_probe,
    make_draw,
    minami_probe,
    qgraph_minami_probe,
    reduced_operator,
    spacing_probe,
    wegner_probe,
)
from randspec import _blocks, probes
from randspec.probes import (
    Estimate,
    ProbeReport,
    ks_to_exponential,
    log_slope,
    normal_ci,
    poisson_pmf_with_tail,
    tv_to_poisson,
    wilson_ci,
)


# ---------------------------------------------------------------------------
# closed-form statistics


def test_wilson_ci_closed_form():
    z = 1.959963984540054
    for k, n in ((0, 50), (3, 50), (25, 50), (50, 50)):
        lo, hi = wilson_ci(k, n)
        ph = k / n
        denom = 1 + z * z / n
        center = (ph + z * z / (2 * n)) / denom
        half = z * math.sqrt(ph * (1 - ph) / n + z * z / (4 * n * n)) / denom
        assert lo == pytest.approx(max(0.0, center - half), abs=1e-15)
        assert hi == pytest.approx(min(1.0, center + half), abs=1e-15)
    assert wilson_ci(0, 50)[0] <= 1e-15
    assert wilson_ci(50, 50)[1] >= 1.0 - 1e-15
    assert wilson_ci(0, 0) == (0.0, 1.0)


def test_normal_ci():
    lo, hi = normal_ci(2.0, 0.5, 100)
    half = 1.959963984540054 * 0.5 / 10.0
    assert (lo, hi) == pytest.approx((2.0 - half, 2.0 + half), abs=1e-15)
    assert normal_ci(2.0, 0.5, 1) == (-math.inf, math.inf)


def test_poisson_partition():
    for mean in (0.0, 0.1, 1.0, 7.3):
        part = poisson_pmf_with_tail(mean, 8)
        assert part.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(
            part[:8], scipy.stats.poisson.pmf(np.arange(8), mean), atol=1e-14
        )
        assert part[8] == pytest.approx(
            scipy.stats.poisson.sf(7, mean), abs=1e-12
        )
    with pytest.raises(ValueError):
        poisson_pmf_with_tail(-0.1, 4)


def test_tv_to_poisson_hand_case():
    hist = np.array([900, 100, 0, 0, 0])
    emp = hist / 1000
    pi = poisson_pmf_with_tail(0.1, 4)
    want = 0.5 * np.abs(emp - pi).sum()
    assert tv_to_poisson(hist, 0.1) == pytest.approx(want, abs=1e-15)
    # exact pmf counts give TV 0 up to the rounding of the counts
    exact = np.round(poisson_pmf_with_tail(1.0, 6) * 1_000_000)
    assert tv_to_poisson(exact, 1.0) <= 1e-6
    assert tv_to_poisson(np.zeros(5), 1.0) == 1.0


def test_tv_to_poisson_product():
    pa = poisson_pmf_with_tail(0.7, 5)
    pb = poisson_pmf_with_tail(1.3, 5)
    joint = np.round(np.outer(pa, pb) * 10_000_000)
    assert tv_to_poisson(joint, 0.7, 1.3) <= 1e-6
    skewed = np.zeros((6, 6))
    skewed[0, 0] = 100
    want = 0.5 * np.abs(skewed / 100 - np.outer(pa, pb)).sum()
    assert tv_to_poisson(skewed, 0.7, 1.3) == pytest.approx(
        want, abs=1e-15
    )


def test_ks_to_exponential():
    n = 1000
    u = (np.arange(n) + 0.5) / n
    exact = np.sort(-np.log1p(-u))
    assert ks_to_exponential(exact) == pytest.approx(0.5 / n, abs=1e-12)
    assert ks_to_exponential(np.array([0.0])) == 1.0
    rng = np.random.default_rng(0)
    x = np.sort(rng.exponential(size=200))
    cdf = 1.0 - np.exp(-x)
    i = np.arange(200)
    brute = max(np.max(np.abs(cdf - i / 200)), np.max(np.abs(cdf - (i + 1) / 200)))
    assert ks_to_exponential(x) == pytest.approx(brute, abs=1e-15)


def test_log_slope():
    w = np.array([1e-3, 1e-2, 1e-1])
    slope, se, n = log_slope(w, 0.5 * w**2)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert n == 3 and se == pytest.approx(0.0, abs=1e-10)
    # points above the sub-linear regime are dropped
    slope, se, n = log_slope([0.1, 0.2, 0.4], [0.05, 0.1, 0.9])
    assert n == 2 and math.isnan(se)
    assert slope == pytest.approx(1.0, abs=1e-12)
    slope, se, n = log_slope([0.1, 0.2], [0.5, 0.9])
    assert math.isnan(slope) and n == 0


# ---------------------------------------------------------------------------
# report serialization


def _dummy_report():
    return ProbeReport(
        "demo",
        {"size": 3, "arr": np.array([1.0, 2.0])},
        [Estimate("a", 0.5, (0.4, 0.6)), Estimate("b", math.nan)],
        10,
        1,
        0.25,
    )


def test_report_json_canonical():
    rep = _dummy_report()
    d = json.loads(rep.to_json())
    assert d["schema_version"] == 1
    assert d["estimates"][1]["value"] is None  # NaN serializes to null
    assert d["estimates"][1]["ci"] is None
    assert d["params"]["arr"] == [1.0, 2.0]
    assert rep.to_json().endswith("\n")
    # identical content, other runtime: only the runtime_s line may differ
    other = _dummy_report()
    other.runtime_s = 99.0
    a = rep.to_json().splitlines()
    b = other.to_json().splitlines()
    diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    assert len(diff) == 1 and "runtime_s" in a[diff[0]]


def test_report_estimate_accessor():
    rep = _dummy_report()
    assert rep.estimate("a").value == 0.5
    with pytest.raises(KeyError):
        rep.estimate("missing")


# ---------------------------------------------------------------------------
# brute-force count equality


def _dense_window_counts(spec, size, seed, n, windows, stream=None):
    counts = np.zeros((len(windows), n), dtype=np.int64)
    for i in range(n):
        kwargs = {} if stream is None else {"stream": stream}
        vals = np.linalg.eigvalsh(make_draw(spec, size, seed, i, **kwargs).to_dense())
        for w, (lo, hi) in enumerate(windows):
            counts[w, i] = np.sum((vals > lo) & (vals <= hi))
    return counts


def test_wegner_probe_matches_dense_counts():
    spec = EnsembleSpec("anderson")
    size, n = 16, 300
    widths = (0.02, 0.05, 0.1)
    rep = wegner_probe(spec, 0.0, widths, size, n, seed=5)
    windows = [(-w, w) for w in widths]
    counts = _dense_window_counts(spec, size, 5, n, windows)
    occupancy = (counts >= 1).sum(axis=1)
    p = occupancy / n
    for i, w in enumerate(widths):
        est = rep.estimate(f"p_hat[{w:.6g}]")
        assert est.value == p[i]
        assert est.ci == pytest.approx(wilson_ci(int(occupancy[i]), n), abs=1e-15)
    assert rep.estimate("C_hat").value == pytest.approx(
        np.max(p / (np.array(widths) * size)), abs=1e-15
    )
    want_slope = log_slope(widths, p)[0]
    got_slope = rep.estimate("slope").value
    assert (got_slope == pytest.approx(want_slope, abs=1e-12)) or (
        math.isnan(got_slope) and math.isnan(want_slope)
    )
    assert rep.samples == n and rep.seed == 5


def test_minami_probe_matches_dense_counts():
    spec = EnsembleSpec("anderson")
    size, n = 10, 300
    widths = (0.05, 0.15)
    rep = minami_probe(spec, 0.5, widths, size, n, seed=6)
    counts = _dense_window_counts(spec, size, 6, n, [(0.5 - w, 0.5 + w) for w in widths])
    excess = np.maximum(counts - 1, 0)
    for i, w in enumerate(widths):
        m = excess[i].mean()
        assert rep.estimate(f"m_hat[{w:.6g}]").value == m
        p2 = np.mean(counts[i] >= 2)
        assert rep.estimate(f"p2_hat[{w:.6g}]").value == p2
        # layer cake: E max(N-1, 0) = sum_{k >= 2} P[N >= k]
        layer = sum(np.mean(counts[i] >= k) for k in range(2, counts[i].max() + 1))
        assert m == pytest.approx(layer, abs=1e-15)


def test_decorrelation_probe_matches_dense_counts():
    spec = EnsembleSpec("anderson")
    size, n = 30, 400
    ea, eb = 0.5, -0.9
    rep = decorrelation_probe(spec, ea, eb, size, n, seed=7)
    hw = 1.0 / size  # default half-width
    assert rep.params["half_width"] == hw
    counts = _dense_window_counts(
        spec, size, 7, n, [(ea - hw, ea + hw), (eb - hw, eb + hw)]
    )
    hit_a, hit_b = counts[0] >= 1, counts[1] >= 1
    n_a, n_b = int(hit_a.sum()), int(hit_b.sum())
    n_both = int((hit_a & hit_b).sum())
    assert rep.estimate("p_first").value == n_a / n
    assert rep.estimate("p_second").value == n_b / n
    assert rep.estimate("p_joint").value == n_both / n
    if n_both and n_a and n_b:
        assert rep.estimate("ratio").value == pytest.approx(
            (n_both / n) / ((n_a / n) * (n_b / n)), rel=1e-12
        )
    with pytest.raises(KeyError):
        rep.estimate("event_mismatch")  # anderson has no mirror identity


def test_decorrelation_mirror_identity():
    spec = EnsembleSpec("hopping")
    rep = decorrelation_probe(spec, 2.0, -2.0, 50, 2000, seed=8)
    assert rep.estimate("event_mismatch").value == 0.0
    assert rep.estimate("p_joint").value == rep.estimate("p_first").value
    assert rep.estimate("p_joint").value == rep.estimate("p_second").value


def test_decorrelation_disjoint_uses_independent_draws():
    spec = EnsembleSpec("anderson")
    size, n = 30, 300
    ea, eb = 0.5, -0.9
    rep = decorrelation_probe(spec, ea, eb, size, n, seed=9, disjoint=True)
    hw = 1.0 / size
    first = _dense_window_counts(spec, size, 9, n, [(ea - hw, ea + hw)])
    second = _dense_window_counts(
        spec, size, 9, n, [(eb - hw, eb + hw)], stream=_blocks.STREAM_SECONDARY
    )
    assert rep.estimate("p_first").value == np.mean(first[0] >= 1)
    assert rep.estimate("p_second").value == np.mean(second[0] >= 1)
    n_both = int(((first[0] >= 1) & (second[0] >= 1)).sum())
    assert rep.estimate("p_joint").value == n_both / n
    assert rep.params["disjoint"] is True
    with pytest.raises(KeyError):
        rep.estimate("event_mismatch")


@pytest.mark.parametrize("e0, widths", [(4.0, (0.05, 0.1)), (10.0, (10.0, 14.0))],
                         ids=["4.0", "10.0"])
def test_qgraph_minami_matches_reduced_operator_counts(e0, widths):
    """At E0 = 10, sin(sqrt E0) < 0: the width scale is still positive, so the
    windows (-eps, eps] are not reversed, and their counts are nonzero."""
    law = UniformLaw(0.0, 1.0)
    size, n = 40, 300
    rep = qgraph_minami_probe(law, e0, widths, size, n, seed=10)
    ws = abs(math.sin(math.sqrt(e0))) / math.sqrt(e0)
    assert ws > 0.0
    assert rep.params["width_scale"] == pytest.approx(ws, rel=1e-15)
    spec = EnsembleSpec("qgraph", law=law)
    counts = np.zeros((2, n), dtype=np.int64)
    for i in range(n):
        omega = make_draw(spec, size, 10, i).diag
        op = reduced_operator(QGraphInstance(omega), e0)
        vals = np.linalg.eigvalsh(op.to_dense())
        for w, width in enumerate(widths):
            eps = width * ws
            counts[w, i] = np.sum((vals > -eps) & (vals <= eps))
    for i, w in enumerate(widths):
        assert rep.estimate(f"p1_hat[{w:.6g}]").value == np.mean(counts[i] >= 1)
        assert rep.estimate(f"p2_hat[{w:.6g}]").value == np.mean(counts[i] >= 2)
    assert counts.any()
    scaled = np.array(widths) * ws
    want_c1 = np.max((counts >= 1).mean(axis=1) / (scaled * size))
    assert rep.estimate("c1_hat").value == pytest.approx(want_c1, rel=1e-12)


# ---------------------------------------------------------------------------
# worker invariance


def _strip_runtime(report):
    return [ln for ln in report.to_json().splitlines() if "runtime_s" not in ln]


def test_wegner_worker_invariance():
    spec = EnsembleSpec("anderson")
    kwargs = dict(energy=0.0, widths=(0.01, 0.02), size=1000, samples=2500, seed=3)
    one = wegner_probe(spec, workers=1, **kwargs)
    three = wegner_probe(spec, workers=3, **kwargs)
    assert _strip_runtime(one) == _strip_runtime(three)
    assert _blocks.n_blocks(2500, 1000) >= 2  # the merge order is exercised


def test_window_engine_allocates_nothing_quadratic_in_windows():
    # a 3000 x 3000 int64 array alone is 72 MB
    widths = np.geomspace(1e-4, 1, 3000)
    tracemalloc.start()
    try:
        wegner_probe(EnsembleSpec("anderson"), 0.0, widths, 4, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _count_probe_reports(samples, seed, workers):
    spec = EnsembleSpec("anderson")
    common = dict(size=2000, samples=samples, seed=seed, workers=workers)
    reports = [
        wegner_probe(spec, 0.0, (1e-3, 1e-2), **common),
        minami_probe(spec, 0.0, (1e-2, 4e-2), **common),
        decorrelation_probe(spec, 0.5, -0.9, **common),
        decorrelation_probe(spec, 0.5, -0.9, disjoint=True, **common),
        qgraph_minami_probe(UniformLaw(0.0, 3.0), 4.0, (1e-3, 1e-2), **common),
    ]
    return [_strip_runtime(r) for r in reports]


@settings(max_examples=5, deadline=None)
@example(samples=1048, seed=0)  # two full blocks
@given(samples=st.integers(1, 3 * 524), seed=st.integers(0, 2**63 - 1))
def test_count_probes_invariant_under_workers_and_blocks(samples, seed):
    # L = 2000 draws come in blocks of 524 rows, so samples span 1-3 blocks,
    # the last one partial, and two workers split them between processes
    assert _blocks.block_size(2000) == 524
    one = _count_probe_reports(samples, seed, workers=1)
    assert one == _count_probe_reports(samples, seed, workers=2)


def _unfolded_probe_outputs(samples, seed, workers):
    # small IDS passes: each probe estimates its own unfolding table, and the
    # reports carry the windows read off it
    spec = EnsembleSpec("anderson")
    common = dict(size=2000, samples=samples, seed=seed, workers=workers,
                  ids_points=21, ids_samples=64)
    spacing, spacings = spacing_probe(spec, 0.5, half_width=0.5, **common)
    levels, configs = level_statistics_probe(
        spec, 0.5, intervals=((0.0, 0.5), (0.5, 1.0)), collect=samples, **common
    )
    joint = joint_independence_probe(spec, 0.5, 0.45, **common)
    points = [c.tobytes() for c in configs]
    table, windows = probes._unfolded_windows(
        spec, 2000, seed, workers, [(0.5, (-0.5, 0.5)), (0.45, (-0.5, 0.5))], 21, 64
    )
    return ([_strip_runtime(r) for r in (spacing, levels, joint)],
            spacings.tobytes(), points, _table_bytes(table), windows)


def _table_bytes(table):
    return tuple(getattr(table, name).tobytes() for name in ("energies", "values", "stderr"))


@settings(max_examples=2, deadline=None)
@example(samples=1048, seed=0)  # two full blocks
@given(samples=st.integers(1, 3 * 524), seed=st.integers(0, 2**63 - 1))
def test_unfolded_probes_invariant_under_workers_and_blocks(samples, seed):
    # extraction (spacings, collected points) and unfolded window counts on
    # 1-3 blocks of 524 rows, one worker against two
    one = _unfolded_probe_outputs(samples, seed, workers=1)
    assert one == _unfolded_probe_outputs(samples, seed, workers=2)
    assert len(one[2]) == samples


def test_level_statistics_worker_invariance():
    spec = EnsembleSpec("anderson")
    kwargs = dict(
        energy=0.0, size=400, samples=3000, seed=12, ids_points=41, ids_samples=128,
        intervals=((0.0, 1.0), (1.0, 2.0)),
    )
    one, _ = level_statistics_probe(spec, workers=1, **kwargs)
    two, _ = level_statistics_probe(spec, workers=2, **kwargs)
    assert _strip_runtime(one) == _strip_runtime(two)
    assert _blocks.n_blocks(3000, 400) >= 2
    # the IDS estimate the windows are read from, at either worker count
    bands = [(0.0, (0.0, 1.0)), (0.0, (1.0, 2.0))]
    tables = [probes._unfolded_windows(spec, 400, 12, w, bands, 41, 128) for w in (1, 2)]
    assert _table_bytes(tables[0][0]) == _table_bytes(tables[1][0])
    assert tables[0][1] == tables[1][1] == tuple(map(tuple, one.params["windows"]))


# ---------------------------------------------------------------------------
# local statistics structure


def test_level_statistics_collects_point_samples():
    spec = EnsembleSpec("anderson")
    rep, draws = level_statistics_probe(
        spec, 0.0, 400, 50, seed=2, ids_samples=64, collect=5
    )
    assert len(draws) == 5  # draw r at position r
    for points in draws:
        assert np.all(np.diff(points) >= 0)
        # unfolded points live inside the union of requested intervals
        assert np.all(points >= -0.05) and np.all(points <= 2.05)
    names = [e.name for e in rep.estimates]
    assert "tv_poisson[0,1]" in names and "corr_z" in names
    assert "mean_count[0,2]" in names


def test_level_statistics_validation():
    spec = EnsembleSpec("anderson")
    with pytest.raises(ValueError):
        level_statistics_probe(
            spec, 0.0, 400, 10, intervals=((1.0, 1.0),), ids_samples=64
        )


def test_joint_probe_rejects_overlapping_windows():
    spec = EnsembleSpec("anderson")
    with pytest.raises(ValueError):
        joint_independence_probe(spec, 0.3, 0.3, 400, 10, ids_samples=64)
    with pytest.raises(ValueError):
        joint_independence_probe(spec, 0.3, 0.3001, 400, 10, ids_samples=64)


def test_joint_probe_report_shape():
    spec = EnsembleSpec("anderson")
    rep = joint_independence_probe(
        spec, 0.3, -0.8, 400, 200, seed=4, ids_samples=64
    )
    names = [e.name for e in rep.estimates]
    assert names == [
        "tv_joint", "tv_first", "tv_second", "corr_z", "mean_first", "mean_second",
    ]
    assert 0.0 <= rep.estimate("tv_joint").value <= 1.0
    wa, wb = rep.params["windows"]
    assert wa[1] < wb[0] or wb[1] < wa[0]


def test_spacing_probe_output_consistent():
    spec = EnsembleSpec("anderson")
    rep, spacings = spacing_probe(
        spec, 0.0, 400, 40, seed=2, half_width=2.0, ids_samples=64
    )
    assert rep.estimate("n_spacings").value == len(spacings)
    assert np.all(spacings >= 0)
    assert rep.estimate("mean_spacing").value == pytest.approx(
        math.fsum(spacings.tolist()) / len(spacings), rel=1e-15
    )
    assert rep.estimate("ks_exponential").value == pytest.approx(
        ks_to_exponential(np.sort(spacings)), abs=1e-15
    )


def test_spacing_probe_empty_marker():
    spec = EnsembleSpec("anderson")
    rep, spacings = spacing_probe(
        spec, 0.0, 400, 1, seed=3, half_width=0.05, ids_samples=64
    )
    assert len(spacings) == 0
    assert rep.estimate("n_spacings").value == 0.0
    assert math.isnan(rep.estimate("mean_spacing").value)
    d = json.loads(rep.to_json())
    assert d["estimates"][1]["value"] is None


def _ids_for_full_coarse(spec, size, centers, seed, points, samples, max_offset):
    """Reference unfolding table whose coarse pass sweeps all 41 nodes per
    center, over center +/- 0.75."""
    coarse = estimate_ids(
        spec, size, 64,
        np.unique(np.concatenate([np.linspace(c - 0.75, c + 0.75, 41) for c in centers])),
        seed=seed, stream=_blocks.STREAM_IDS,
    )
    fine = []
    for c in centers:
        pair = coarse.evaluate(np.array([c - 0.2, c + 0.2]))
        density = max((pair[1] - pair[0]) / 0.4, 1e-3)
        span = 2.5 * (max_offset + 2.0) / (size * density)
        fine.append(np.linspace(c - span, c + span, points))
    return estimate_ids(
        spec, size, samples, np.unique(np.concatenate(fine)), seed=seed,
        stream=_blocks.STREAM_IDS,
    )


# the ids name the coarse half-width 0.75, which was once a parameter
@pytest.mark.parametrize(
    "kind, centers",
    [
        pytest.param("anderson", (0.0,), id="anderson-centers0-0.75"),
        pytest.param("hopping", (0.4, -0.3), id="hopping-centers2-0.75"),  # overlapping nodes
    ],
)
def test_ids_for_matches_full_coarse_grid(kind, centers):
    spec = EnsembleSpec(kind)
    # bands of +-2 mean spacings about each center: a fine span of 2.0
    got, _ = probes._unfolded_windows(
        spec, 100, 5, 1, [(c, (-2.0, 2.0)) for c in centers], 11, 8,
    )
    want = _ids_for_full_coarse(spec, 100, centers, 5, 11, 8, 2.0)
    for name in ("energies", "values", "stderr"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_unfolded_probes_check_samples_before_the_ids(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("estimated the IDS before checking samples")

    monkeypatch.setattr(probes, "estimate_ids", no_sweep)
    spec = EnsembleSpec("anderson")
    for call in (lambda: spacing_probe(spec, 0.0, 2000, 0),
                 lambda: joint_independence_probe(spec, 0.5, 0.0, 2000, 0),
                 lambda: level_statistics_probe(spec, 0.0, 2000, 0)):
        with pytest.raises(ValueError, match=r"samples = 0: must be >= 1"):
            call()


# ---------------------------------------------------------------------------
# seeds


def test_probes_vary_with_seed():
    spec = EnsembleSpec("anderson")
    a = wegner_probe(spec, 0.0, (0.05,), 100, 400, seed=1)
    b = wegner_probe(spec, 0.0, (0.05,), 100, 400, seed=2)
    assert a.estimate("p_hat[0.05]").value != b.estimate("p_hat[0.05]").value


def test_probe_width_validation():
    spec = EnsembleSpec("anderson")
    law = UniformLaw(0.0, 1.0)
    # (call, the error it must raise); the bounds are the config fields'
    rows = [
        (lambda: wegner_probe(spec, 0.0, (), 100, 10), "half-widths"),
        (lambda: minami_probe(spec, 0.0, (0.0, 0.1), 100, 10), "half-widths"),
        (lambda: qgraph_minami_probe(law, 4.0, (-0.1,), 100, 10), "half-widths"),
        (lambda: wegner_probe(spec, 0.0, [1e-3], 50, 0), r"samples = 0: must be >= 1"),
        (lambda: minami_probe(spec, 0.0, [1e-3], 50, -1), r"samples = -1: must be >= 1"),
        (lambda: decorrelation_probe(spec, 0.0, 0.5, 50, 0), r"samples = 0: must be >= 1"),
        (lambda: qgraph_minami_probe(law, 4.0, [1e-3], 50, 0), r"samples = 0: must be >= 1"),
        (lambda: decorrelation_probe(spec, 0.0, 0.5, 50, 10, half_width=-1.0),
         r"half_width = -1.0: must be > 0"),
        (lambda: joint_independence_probe(spec, 0.5, 0.0, 200, 50, length_a=-1.0),
         r"length_a = -1.0: must be > 0"),
        (lambda: joint_independence_probe(spec, 0.5, 0.0, 200, 50, length_a=0.0),
         r"length_a = 0.0: must be > 0"),
        (lambda: joint_independence_probe(spec, 0.5, 0.0, 200, 50, length_b=0.0),
         r"length_b = 0.0: must be > 0"),
        (lambda: spacing_probe(spec, 0.0, 200, 10, half_width=-1.0),
         r"half_width = -1.0: must be > 0"),
        (lambda: spacing_probe(spec, 0.0, 200, 0, ids_samples=32), r"samples = 0: must be >= 1"),
        (lambda: spacing_probe(spec, 0.0, 200, -3, ids_samples=32), r"samples = -3: must be >= 1"),
        (lambda: level_statistics_probe(spec, 0.0, 200, 10, intervals=()),
         r"intervals: must be non-empty"),
        (lambda: level_statistics_probe(spec, 0.0, 200, 10, ids_samples=0),
         r"ids_samples = 0: must be >= 1"),
        (lambda: level_statistics_probe(spec, 0.0, 200, 10, ids_points=1),
         r"ids_points = 1: must be >= 2"),
        (lambda: level_statistics_probe(spec, 0.0, 200, 10, collect=-1),
         r"collect = -1: must be >= 0"),
        (lambda: decorrelation_probe(spec, 0.5, -0.5, 0, 10), r"size = 0: must be >= 1"),
    ]
    for call, message in rows:
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("energy", [0.0, -1.0, math.pi**2])
def test_qgraph_minami_rejects_energies_outside_the_domain(energy):
    # the width scale sin(sqrt E)/sqrt(E) is undefined there too
    with pytest.raises(DomainError):
        qgraph_minami_probe(UniformLaw(0.0, 1.0), energy, (0.1,), 20, 5)
