"""Sturm counting, counting-indexed bisection, and eigenvector extraction."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import random_operator
from randspec import _native, probes
from randspec import eigensolve as es
from randspec import (
    TridiagonalOperator,
    batched_eigenvalues_in,
    count_in_interval,
    eigenvalues_in,
    eigenvector,
    nearest_eigenvalue_distance,
    sturm_count,
    sturm_counts,
)


def _free(size):
    return TridiagonalOperator(np.zeros(size), np.ones(size - 1))


def _free_eigs(size):
    k = np.arange(1, size + 1)
    return np.sort(2.0 * np.cos(k * math.pi / (size + 1)))


# ---------------------------------------------------------------------------
# counting


def test_sturm_count_matches_dense_on_mixed_corpus():
    rng = np.random.default_rng(42)
    for _ in range(200):
        op = random_operator(rng)
        vals = np.linalg.eigvalsh(op.to_dense())
        lo, hi = op.gershgorin()
        thresholds = rng.uniform(lo - 0.5, hi + 0.5, size=20)
        got = sturm_counts(op.diag, op.offdiag, thresholds)
        want = np.searchsorted(vals, thresholds, side="left")
        assert np.array_equal(got, want)


def test_sturm_scalar_equals_vector():
    rng = np.random.default_rng(1)
    op = random_operator(rng, size=9)
    ts = np.linspace(-4, 4, 11)
    vec = sturm_counts(op.diag, op.offdiag, ts)
    assert [sturm_count(op, t) for t in ts] == list(vec)


def test_sturm_count_is_strictly_below():
    # diag eigenvalues 1 and 2: an exact eigenvalue threshold is excluded
    op = TridiagonalOperator(np.array([1.0, 2.0]), np.array([0.0]))
    assert sturm_count(op, 1.0) == 0
    assert sturm_count(op, np.nextafter(1.0, np.inf)) == 1
    assert sturm_count(op, 2.0) == 1
    assert sturm_count(op, 2.5) == 2


def test_count_in_interval_half_open():
    """Windows (lo, hi] with edges on the eigenvalues 1 and 2 give the same
    counts through every reader of the window rule: the counts, the two
    extractions on one row and on two, and the probes' window engine, on
    the C and the numpy path, with one coupling row and with one per row.
    The windows nest, overlap, share edges, are disjoint or empty (lo ==
    hi), and `_window_counts` gives each the counts of one sweep of its two
    edges. Both operators, diag (1, 2) with coupling 0 and diag (1.5, 1.5)
    with coupling 0.5, have the eigenvalues 1 and 2 in floating point."""
    op = TridiagonalOperator(np.array([1.0, 2.0]), np.array([0.0]))
    pair = TridiagonalOperator(np.array([1.5, 1.5]), np.array([0.5]))
    cases = [((1.0, 2.0), 1), ((0.5, 1.0), 1), ((1.0, 1.0), 0), ((0.0, 3.0), 2),
             ((2.0, 2.0), 0), ((1.5, 2.0), 1), ((1.0, 1.5), 0),  # (1, 2] holds 2 only
             ((0.5, 1.5), 1), ((1.5, 2.5), 1), ((2.5, 3.0), 0), ((-1.0, 0.5), 0)]
    windows = tuple(w for w, _ in cases)
    batches = [(np.stack([op.diag, op.diag]), op.offdiag),  # one coupling row
               (np.stack([op.diag, pair.diag]), np.stack([op.offdiag, pair.offdiag]))]
    for kernel in [None] if _native.kernel() is None else [_native.kernel(), None]:
        with mock.patch.object(_native, "_kernel", kernel):
            for rows, offs in batches:
                engine = probes._window_block((windows,), 64, None, None, 0, (rows, offs))
                assert engine["count_sum"].tolist() == [2 * want for _, want in cases]
                counts = es._window_counts(rows, offs, windows)[1]
                for w, (lo, hi) in enumerate(windows):
                    edges = np.nextafter([[lo], [hi]], np.inf)
                    assert np.array_equal(counts[:, w], sturm_counts(rows, offs, edges))
                for (lo, hi), want in cases:
                    inside = [e for e in (1.0, 2.0) if lo < e <= hi]
                    draws, values = batched_eigenvalues_in(rows, offs, lo, hi)
                    assert draws.tolist() == [0] * want + [1] * want
                    assert values == pytest.approx(inside * 2, abs=1e-10)
            for one, (lo, hi) in itertools.product((op, pair), windows):
                inside = [e for e in (1.0, 2.0) if lo < e <= hi]
                assert count_in_interval(one, lo, hi) == len(inside)
                assert eigenvalues_in(one, lo, hi) == pytest.approx(inside, abs=1e-12)
                draws, values = batched_eigenvalues_in(one.diag[None], one.offdiag, lo, hi)
                assert draws.tolist() == [0] * len(inside)
                assert values == pytest.approx(inside, abs=1e-10)
    with pytest.raises(ValueError):
        count_in_interval(op, 2.0, 1.0)


def _grid_case(name):
    """(diag, offdiag, grid) of one `_grid_counts` contract case."""
    rng = np.random.default_rng(len(name))
    size, rows = 50, 37
    grid = np.linspace(-3.0, 3.0, 41)
    if name == "anderson":  # rows sharing one coupling row
        return rng.uniform(-2.5, 2.5, (rows, size)), np.ones(size - 1), grid
    if name == "hopping":  # couplings per row, zero diagonal
        return np.zeros((rows, size)), rng.uniform(0.5, 1.5, (rows, size - 1)), grid
    if name == "one-row":
        return rng.uniform(-2.5, 2.5, (1, size)), np.ones(size - 1), grid
    if name == "two-points":
        return rng.uniform(-2.5, 2.5, (rows, size)), np.ones(size - 1), np.array([-0.5, 0.5])
    if name == "no-change":  # the grid lies above every row's spectrum
        return rng.uniform(-2.5, 2.5, (rows, size)), np.ones(size - 1), np.linspace(5.0, 6.0, 30)
    # every-change: uncoupled rows with one eigenvalue k + 1/2 between each
    # grid pair (k, k + 1), in a different site order per row
    diag = np.stack([rng.permutation(size) + 0.5 for _ in range(rows)])
    return diag, np.zeros(size - 1), np.arange(size + 1.0)


def _grid_counts_logged(diag, off, grid):
    """`_grid_counts` and the (row, shift) lanes of each call it swept, one
    list per call, through the plain `sturm_counts` or through `_row_counts`."""
    calls = []
    sweep, rows_sweep = es.sturm_counts, es._row_counts

    def ends(d, o, shifts):
        counts = sweep(d, o, shifts)
        calls.append([(r, s) for s in np.ravel(shifts).tolist() for r in range(counts.shape[1])])
        return counts

    def lanes(d, o, rows, shifts):
        calls.append(list(zip(np.asarray(rows).tolist(), np.asarray(shifts).tolist())))
        return rows_sweep(d, o, rows, shifts)

    with mock.patch.object(es, "sturm_counts", ends), mock.patch.object(es, "_row_counts", lanes):
        return es._grid_counts(diag, off, grid), calls


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "no-kernel"])
@pytest.mark.parametrize("name", ["anderson", "hopping", "one-row", "two-points", "no-change",
                                  "every-change"])
def test_grid_counts_equal_the_full_sweep(name, compiled):
    """`_grid_counts` gives the counts of one sweep of every row at every
    grid shift, and sweeps no (row, shift) twice. With the C library it
    skips lanes: only the two end shifts where no row changes, every lane
    where every interval changes. Without it, every (row, shift) is swept
    once, in one `sturm_counts` call."""
    if compiled and _native.kernel() is None:
        pytest.skip("no compiled kernel")
    diag, off, grid = _grid_case(name)
    with mock.patch.object(_native, "_kernel", _native.kernel() if compiled else None):
        want = sturm_counts(diag, off, grid[:, None])
        got, calls = _grid_counts_logged(diag, off, grid)
    assert got.dtype == want.dtype and got.shape == want.shape == (grid.size, diag.shape[0])
    assert np.array_equal(got, want)
    swept = [lane for call in calls for lane in call]
    assert len(set(swept)) == len(swept)
    rows = diag.shape[0]
    if not compiled:
        assert len(calls) == 1
        assert sorted(swept) == sorted(itertools.product(range(rows), grid.tolist()))
        return
    if name == "no-change":
        assert len(swept) == 2 * rows
    if name == "every-change":
        assert np.array_equal(want, np.broadcast_to(np.arange(grid.size)[:, None], want.shape))
        assert len(swept) == grid.size * rows
    if name in ("anderson", "hopping"):
        assert 2 * rows < len(swept) < grid.size * rows


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "no-kernel"])
@pytest.mark.parametrize("shared", [True, False], ids=["shared-couplings", "row-couplings"])
def test_grid_counts_raise_the_errors_of_sturm_counts(compiled, shared):
    """A NaN shift and a coupling whose square overflows raise the messages
    of `sturm_counts`, from `_grid_counts` and, on the C path, from its lane
    entry `_row_counts`, and an unsorted grid is refused."""
    if compiled and _native.kernel() is None:
        pytest.skip("no compiled kernel")
    diag = np.tile([0.5, -0.2, 0.1], (3, 1))
    bad = np.array([1.0, np.nextafter(es._MAX_COUPLING, np.inf)])
    good = np.ones(2)
    if not shared:
        bad, good = np.stack([good, bad, good]), np.tile(good, (3, 1))
    rows, shifts = np.array([0, 2, 1]), np.array([0.0, 0.5, 1.0])
    nan_calls = [lambda: sturm_counts(diag, good, np.array([0.0, np.nan, 1.0])[:, None]),
                 lambda: es._grid_counts(diag, good, [0.0, np.nan, 1.0]),
                 lambda: es._grid_counts(diag, good, [-1.0, 0.0, 1.0, np.nan])]
    overflow_calls = [lambda: sturm_counts(diag, bad, np.linspace(-1, 1, 5)[:, None]),
                      lambda: es._grid_counts(diag, bad, np.linspace(-1, 1, 5))]
    if compiled:
        nan_calls.append(lambda: es._row_counts(diag, good, rows, [0.0, np.nan, 1.0]))
        overflow_calls.append(lambda: es._row_counts(diag, bad, rows, shifts))
    with mock.patch.object(_native, "_kernel", _native.kernel() if compiled else None):
        for call in nan_calls:
            with pytest.raises(ValueError, match="^shifts must not be NaN$"):
                call()
        for call in overflow_calls:
            with pytest.raises(ValueError, match="^offdiag entries must be at most 1.341e"):
                call()
        with pytest.raises(ValueError, match="strictly increasing"):
            es._grid_counts(diag, good, [0.0, 1.0, 1.0])


def test_grid_counts_memory_is_bounded():
    """The numpy path sweeps a grid in site tiles: counting these 64 rows of
    20000 sites at 161 shifts holds O(lanes) pivots, not a (shifts, rows,
    sites) array (1.6 GB) or a copy of the rows (10 MB)."""
    rng = np.random.default_rng(1)
    diag = rng.random((64, 20000))
    grid = np.linspace(-1.0, 3.0, 161)
    with mock.patch.object(_native, "_kernel", None):
        tracemalloc.start()
        try:
            got = es._grid_counts(diag, np.ones(19999), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, sturm_counts(diag, np.ones(19999), grid[:, None]))
    assert peak < 8 * es._TILE_BYTES


def test_count_additivity():
    rng = np.random.default_rng(5)
    for _ in range(25):
        op = random_operator(rng)
        a, b, c = sorted(rng.uniform(-5, 5, size=3))
        assert count_in_interval(op, a, b) + count_in_interval(
            op, b, c
        ) == count_in_interval(op, a, c)


# ---------------------------------------------------------------------------
# bisection


def test_eigenvalues_in_matches_dense():
    rng = np.random.default_rng(11)
    for _ in range(40):
        op = random_operator(rng)
        vals = np.linalg.eigvalsh(op.to_dense())
        lo, hi = sorted(rng.uniform(-5, 5, size=2))
        got = eigenvalues_in(op, lo, hi)
        want = vals[(vals > lo) & (vals <= hi)]
        assert len(got) == len(want)
        if len(got):
            assert np.max(np.abs(got - want)) <= 1e-10


def test_eigenvalues_in_reports_multiplicity():
    op = TridiagonalOperator(np.array([1.0, 1.0, 3.0]), np.array([0.0, 0.0]))
    got = eigenvalues_in(op, 0.0, 2.0)
    assert len(got) == 2
    assert np.max(np.abs(got - 1.0)) <= 1e-12


def test_free_laplacian_eigenvalues():
    op = _free(100)
    got = eigenvalues_in(op, -2.5, 2.5)
    assert np.allclose(got, _free_eigs(100), atol=1e-12)


def test_window_guard():
    # no cap on the eigenvalues of a window: it holds at most L of them, so
    # the whole spectrum of a box comes back in one call
    op = _free(2000)
    got = eigenvalues_in(op, -3.0, 3.0)
    assert len(got) == 2000
    assert np.allclose(got, _free_eigs(2000), atol=1e-12)


def test_batched_matches_per_row():
    rng = np.random.default_rng(9)
    diag2d = rng.uniform(0.0, 1.0, size=(5, 8))
    offdiag = np.ones(7)
    rows, vals = batched_eigenvalues_in(diag2d, offdiag, -0.5, 1.5)
    for r in range(5):
        op = TridiagonalOperator(diag2d[r], offdiag)
        single = eigenvalues_in(op, -0.5, 1.5)
        batch = vals[rows == r]
        assert len(batch) == len(single)
        if len(batch):
            assert np.max(np.abs(batch - single)) <= 1e-9


def test_nearest_eigenvalue_distance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        op = random_operator(rng)
        vals = np.linalg.eigvalsh(op.to_dense())
        e = rng.uniform(-4, 4)
        assert nearest_eigenvalue_distance(op, e) == pytest.approx(
            np.min(np.abs(vals - e)), abs=1e-10
        )
        # the neighbours on either side, +-inf past the spectrum's ends
        below, above = es.nearest_eigenvalues(op, e)
        assert below == pytest.approx(vals[vals < e].max(initial=-np.inf), abs=1e-10)
        assert above == pytest.approx(vals[vals >= e].min(initial=np.inf), abs=1e-10)


def test_spectral_window_report():
    op = TridiagonalOperator(np.array([0.0, 1.0, 2.0]), np.zeros(2))
    vals = eigenvalues_in(op, -0.5, 1.5)
    assert vals.size == count_in_interval(op, -0.5, 1.5) == 2
    assert np.allclose(vals, [0.0, 1.0], atol=1e-12)
    for v, unit in zip(vals, np.eye(3)):
        assert np.allclose(eigenvector(op, float(v)).vector, unit, atol=1e-10)


def _one_level_bisection(diag, offdiag, targets, lo, hi, tol):
    """Reference: the bisection loop with one sweep per level."""
    targets = np.asarray(targets, dtype=np.int64)
    lo = np.full(targets.shape, lo, dtype=np.float64)
    hi = np.full(targets.shape, hi, dtype=np.float64)
    scale = float(np.max(np.abs([lo.ravel()[0], hi.ravel()[0]]))) if targets.size else 1.0
    tol_eff = max(tol, 4.0 * np.spacing(scale))
    width = float(hi.ravel()[0] - lo.ravel()[0]) if targets.size else 0.0
    iters = max(1, int(np.ceil(np.log2(max(width / tol_eff, 2.0)))) + 1)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        counts = es.sturm_counts(diag, offdiag, mid)
        above = counts >= targets
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
        if np.all(hi - lo <= np.maximum(tol, 4.0 * np.spacing(np.abs(mid)))):
            break
    return 0.5 * (lo + hi)


def _bisection_case(seed, n, size, two_d, shared_off):
    """diag, offdiag, targets and a bracket of the whole spectrum. Small
    integer diagonals with zero couplings give repeated eigenvalues."""
    rng = np.random.default_rng(seed)
    rows = (n,) if two_d else ()
    diag = np.where(rng.random(rows + (size,)) < 0.5,
                    rng.integers(-2, 3, rows + (size,)), rng.uniform(-2, 2, rows + (size,)))
    off_rows = rows if two_d and not shared_off else ()
    off = rng.choice([0.0, 0.0, 1.0, 0.3, -0.7], off_rows + (size - 1,))
    targets = rng.integers(1, size + 1, n)
    bound = float(np.max(np.abs(diag), initial=0.0)) + 2.0 * float(np.max(np.abs(off), initial=0.0)) + 1.0
    return diag, off, targets, -bound, bound


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(seed=1, n=20, size=9, two_d=False, shared_off=True, tol=0.0)
@example(seed=2, n=21, size=9, two_d=True, shared_off=False, tol=1e-10)
@example(seed=6, n=20, size=12, two_d=True, shared_off=False, tol=0.0)
@example(seed=7, n=20, size=12, two_d=True, shared_off=True, tol=1e-10)
@example(seed=8, n=21, size=12, two_d=True, shared_off=True, tol=0.0)
@example(seed=3, n=146, size=30, two_d=False, shared_off=True, tol=1e-10)
@example(seed=4, n=147, size=30, two_d=True, shared_off=True, tol=0.0)
@example(seed=5, n=300, size=5, two_d=True, shared_off=False, tol=0.0)
@example(seed=9, n=0, size=7, two_d=False, shared_off=True, tol=0.0)  # no targets
@example(seed=10, n=0, size=7, two_d=True, shared_off=False, tol=1e-10)  # no rows either
@example(seed=11, n=1, size=8, two_d=True, shared_off=True, tol=0.0)  # one row, 2-D
@example(seed=12, n=1, size=8, two_d=True, shared_off=False, tol=1e-10)
@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), size=st.integers(1, 30),
    two_d=st.booleans(), shared_off=st.booleans(), tol=st.sampled_from([0.0, 1e-10]),
)
def test_bisection_equals_one_level_loop(seed, n, size, two_d, shared_off, tol):
    diag, off, targets, lo, hi = _bisection_case(seed, n, size, two_d, shared_off)
    got = es._bisect_indices(diag, off, targets, lo, hi, tol)
    want = _one_level_bisection(diag, off, targets, lo, hi, tol)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    with mock.patch.object(_native, "_kernel", None):  # the numpy fallback
        assert es._bisect_indices(diag, off, targets, lo, hi, tol).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 20, 21, 146, 147])
def test_bisection_levels_per_sweep(n):
    """Without the kernel every level is one `sturm_counts` call; with it the
    whole loop runs in C and Python sweeps nothing."""
    diag, off, targets, lo, hi = _bisection_case(7, n, 40, False, True)
    with mock.patch.object(es, "sturm_counts", wraps=es.sturm_counts) as sweep:
        _one_level_bisection(diag, off, targets, lo, hi, 0.0)
        levels = sweep.call_count
        sweep.reset_mock()
        with mock.patch.object(_native, "_kernel", None):
            es._bisect_indices(diag, off, targets, lo, hi, 0.0)
        assert sweep.call_count == levels
        sweep.reset_mock()
        if _native.kernel() is not None:
            es._bisect_indices(diag, off, targets, lo, hi, 0.0)
            assert sweep.call_count == 0


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "no-kernel"])
def test_padded_copies_are_swept_as_lanes(compiled):
    """Draws holding 10 and 1 targets pad the second draw with 9 copies of
    its target, which are swept like any other lane: without the kernel each
    level is one `sturm_counts` call over all 20 (slot, row) lanes."""
    if compiled and _native.kernel() is None:
        pytest.skip("no compiled kernel")
    diag, off = _window_rows(3, [10, 1], True, 0.0)
    lo, hi = np.nextafter([-3.5, 3.5], np.inf)
    c_lo = es.sturm_counts(diag, off, lo)
    padded = c_lo + 1 + np.minimum(np.arange(10)[:, None], [9, 0])
    with mock.patch.object(es, "sturm_counts", wraps=es.sturm_counts) as sweep:
        want = _one_level_bisection(diag, off, padded, lo, hi, 0.0)
        levels = sweep.call_count
        sweep.reset_mock()
        with mock.patch.object(_native, "_kernel", _native.kernel() if compiled else None):
            got = es._bisect_indices(diag, off, padded, lo, hi, 0.0)
            draws, values = batched_eigenvalues_in(diag, off, -3.5, 3.5, 0.0)
    assert got.tobytes() == want.tobytes()
    assert draws.tolist() == [0] * 10 + [1]
    assert values.tobytes() == np.r_[got[:, 0], got[0, 1]].tobytes()
    assert np.unique(got[:, 1]).tolist() == [got[0, 1]]  # the copies' values are equal
    # the bisection's sweeps, then the extraction's one sweep over both window
    # edges and its own bisection's
    sweeps = [] if compiled else [(10, 2)] * levels
    assert [c.args[2].shape for c in sweep.call_args_list] == sweeps + [(2, 1)] + sweeps


def _gathered_extraction(diag2d, offdiag, lo, hi, tol, chunk=4096):
    """Reference: batched extraction on a per-target copy of each target's
    row, bisected in chunks of `chunk` targets within the batch's bracket."""
    lo_e, hi_e = np.nextafter([lo, hi], np.inf)
    c_lo = sturm_counts(diag2d, offdiag, lo_e)
    c_hi = sturm_counts(diag2d, offdiag, hi_e)
    per_draw = (c_hi - c_lo).astype(np.int64)
    if per_draw.any():
        lo_e, hi_e = es._bisection_bracket(diag2d, offdiag, lo_e, hi_e)
    draws = np.repeat(np.arange(diag2d.shape[0]), per_draw)
    targets = np.concatenate(
        [np.arange(a + 1, b + 1) for a, b in zip(c_lo, c_hi) if b > a]
        or [np.empty(0, dtype=np.int64)]
    )
    values = np.empty(draws.size)
    for start in range(0, draws.size, chunk):
        sel = slice(start, min(start + chunk, draws.size))
        dsel = diag2d[draws[sel]]
        osel = offdiag if offdiag.ndim == 1 else offdiag[draws[sel]]
        values[sel] = es._bisect_indices(dsel, osel, targets[sel], lo_e, hi_e, tol)
    return draws, values


def _window_rows(seed, counts, shared_off, center):
    """Rows whose window (center - 3.5, center + 3.5] holds exactly counts[i]
    eigenvalues.

    Inside entries lie within 1 of center and outside ones at least 6 away;
    with couplings of magnitude <= 1 the Gershgorin discs of the two groups
    are disjoint, so each group holds as many eigenvalues as it has entries.
    Small integers and zero couplings give repeated eigenvalues.
    """
    rng = np.random.default_rng(seed)
    size = max(counts) + int(rng.integers(1, 12))
    diag = np.empty((len(counts), size))
    for row, k in zip(diag, counts):
        inside = np.where(rng.random(k) < 0.5, rng.integers(-1, 2, k), rng.uniform(-1, 1, k))
        outside = rng.choice([-1.0, 1.0], size - k) * rng.uniform(6.0, 10.0, size - k)
        row[:] = center + rng.permutation(np.concatenate([inside, outside]))
    off_shape = (size - 1,) if shared_off else (len(counts), size - 1)
    off = rng.choice([0.0, 0.0, 1.0, 0.3, -0.7], off_shape) * rng.uniform(0.5, 1.0, off_shape)
    return diag, off


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(seed=1, counts=[20], shared_off=True, center=0.0, tol=0.0)
@example(seed=2, counts=[21], shared_off=False, center=3.6, tol=1e-10)
@example(seed=3, counts=[7, 0, 3, 10], shared_off=True, center=0.0, tol=1e-10)  # 20 targets, 30 lanes
@example(seed=4, counts=[0, 11, 10], shared_off=False, center=3.6, tol=0.0)  # 21 targets, 22 lanes
@example(seed=5, counts=[40, 40, 40, 26], shared_off=True, center=3.6, tol=0.0)  # 146 targets
@example(seed=6, counts=[40, 40, 40, 27], shared_off=False, center=0.0, tol=1e-10)  # 147 targets
@example(seed=7, counts=[21] * 6 + [20], shared_off=True, center=3.6, tol=0.0)  # 146 targets, 147 lanes
@example(seed=8, counts=[0, 0], shared_off=False, center=0.0, tol=0.0)
@given(
    seed=st.integers(0, 2**32 - 1), counts=st.lists(st.integers(0, 40), min_size=1, max_size=8),
    shared_off=st.booleans(), center=st.sampled_from([0.0, 3.6]), tol=st.sampled_from([0.0, 1e-10]),
)
def test_batched_extraction_equals_gathered_rows(seed, counts, shared_off, center, tol):
    # below 4096 targets the reference bisects every target in one call;
    # center 3.6 puts the window's ends in different binades
    diag, off = _window_rows(seed, counts, shared_off, center)
    lo, hi = center - 3.5, center + 3.5
    draws, values = batched_eigenvalues_in(diag, off, lo, hi, tol)
    want_draws, want_values = _gathered_extraction(diag, off, lo, hi, tol)
    assert np.bincount(draws, minlength=len(counts)).tolist() == counts
    assert draws.dtype == want_draws.dtype and np.array_equal(draws, want_draws)
    assert values.dtype == want_values.dtype and values.tobytes() == want_values.tobytes()
    with mock.patch.object(_native, "_kernel", None):  # the numpy fallback
        assert batched_eigenvalues_in(diag, off, lo, hi, tol)[1].tobytes() == values.tobytes()


def test_batched_extraction_memory_is_bounded():
    """One call holds at most a row subset of its input plus tile-sized
    buffers; a per-target gather of the rows holds ~4000 rows here."""
    rng = np.random.default_rng(0)
    diag = rng.random((200, 2000))
    off = np.ones(1999)
    allowance = 8 * es._TILE_BYTES
    tracemalloc.start()
    try:
        _, values = batched_eigenvalues_in(diag, off, 0.47, 0.53, tol=1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.size >= 15 * 200  # about 20 eigenvalues per draw
    assert peak < diag.nbytes + allowance


_SKEWED = TridiagonalOperator(np.array([0.5, -0.2, 0.1]), np.ones(2))


@pytest.mark.parametrize("lo, hi", [
    (-1e308, 0.0), (-1e308, 1e308), (0.0, 1e308), (-1e300, -1.0), (-2.5, 2.5),
])
@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "no-kernel"])
def test_extraction_windows_far_beyond_the_spectrum(lo, hi, compiled):
    """Bisection runs within a margin of the rows' Gershgorin interval, so a
    window end at +-1e308 neither sizes the stop test (which located -1.396
    at -1.1e292) nor overflows the bracket width."""
    dense = np.linalg.eigvalsh(_SKEWED.to_dense())
    want = dense[(dense > lo) & (dense <= hi)]
    with mock.patch.object(_native, "_kernel", _native.kernel() if compiled else None):
        got = eigenvalues_in(_SKEWED, lo, hi)
        draws, values = batched_eigenvalues_in(np.stack([_SKEWED.diag] * 2), _SKEWED.offdiag, lo, hi)
    assert got.shape == want.shape and np.max(np.abs(got - want), initial=0.0) <= 1e-12
    assert draws.tolist() == [0] * want.size + [1] * want.size
    assert np.max(np.abs(values - np.tile(want, 2)), initial=0.0) <= 1e-10


def test_windows_inside_the_spectrum_keep_their_bracket():
    """The rows' eigenvalues lie in [min diag - 2 max |offdiag|, max diag +
    2 max |offdiag|] = [-2.2, 2.5]; a window within 2.5 of it bisects from
    its own ends, a wider one from 2.5 beyond it."""
    lo, hi = np.nextafter([-4.7, 5.0], [np.inf, -np.inf])
    assert es._bisection_bracket(_SKEWED.diag, _SKEWED.offdiag, lo, hi) == (lo, hi)
    assert es._bisection_bracket(_SKEWED.diag, _SKEWED.offdiag, -1e308, 1e308) == (-4.7, 5.0)


def test_bracket_that_overflows_is_named():
    op = TridiagonalOperator(np.array([1e308, -1e308]), np.zeros(1))
    with pytest.raises(ValueError, match="^bisection bracket .* is not finite"):
        eigenvalues_in(op, -1e308, 1e308)
    with pytest.raises(ValueError, match="^bisection bracket .* is not finite"):
        batched_eigenvalues_in(op.diag[None], op.offdiag, -1e308, 1e308)


@pytest.mark.parametrize("diag, lo, hi", [(1e308, 0.9e308, 1.6e308), (-1.7e308, -1.79e308, -1e308)])
@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "no-kernel"])
def test_midpoints_whose_sum_overflows(diag, lo, hi, compiled):
    """A finite bracket whose ends sum past DBL_MAX bisects at 0.5 * lo +
    0.5 * hi, not at inf, down to the stop test's 4 ulp."""
    if compiled and _native.kernel() is None:
        pytest.skip("no compiled kernel")
    op = TridiagonalOperator(np.array([diag]), np.zeros(0))
    with mock.patch.object(_native, "_kernel", _native.kernel() if compiled else None):
        [got] = eigenvalues_in(op, lo, hi)
    assert abs(got - diag) <= 4.0 * np.spacing(abs(diag))


_HUGE_COUPLINGS = TridiagonalOperator(np.array([0.5, -0.2, 0.1]), np.array([1e200, 1e200]))
# 1.7e308 minus a shift just below -1e308 overflows, so the count falls from 1
# to 0 between the edges of the window (_BELOW_LO, _BELOW]
_SHIFT_OVERFLOW = TridiagonalOperator(np.array([-1e308, 1.7e308, -1.7e308]),
                                      np.array([-1e154, -1e-300]))
_BELOW = float(np.nextafter(-1e308, -np.inf))
_BELOW_LO = float(np.nextafter(_BELOW, -np.inf))


@pytest.mark.parametrize("call, name", [
    (lambda op: nearest_eigenvalue_distance(op, math.nan), "energy"),
    (lambda op: nearest_eigenvalue_distance(op, math.inf), "energy"),
    (lambda op: nearest_eigenvalue_distance(op, 0.5, tol=math.nan), "tol"),
    (lambda op: nearest_eigenvalue_distance(op, 0.5, tol=-1e-12), "tol"),
    (lambda op: eigenvalues_in(op, -math.inf, math.inf), "lo"),
    (lambda op: eigenvalues_in(op, 0.0, math.inf), "hi"),
    (lambda op: eigenvalues_in(op, math.nan, 1.0), "lo"),
    (lambda op: eigenvalues_in(op, 0.0, 1.0, tol=math.nan), "tol"),
    (lambda op: eigenvalues_in(op, 0.0, 1.0, tol=math.inf), "tol"),
    (lambda op: batched_eigenvalues_in(op.diag[None], op.offdiag, math.nan, 1.0), "lo"),
    (lambda op: batched_eigenvalues_in(op.diag[None], op.offdiag, 0.0, 1.0, tol=math.nan), "tol"),
    (lambda op: eigenvector(op, math.nan), "energy"),
    (lambda op: eigenvector(op, -math.inf), "energy"),
    pytest.param(lambda op: sturm_count(op, math.nan), "energy", id="sturm_count-nan"),
    pytest.param(lambda op: sturm_count(op, math.inf), "energy", id="sturm_count-inf"),
    pytest.param(lambda op: count_in_interval(op, math.nan, 1.0), "lo", id="count_in_interval-lo"),
    pytest.param(lambda op: count_in_interval(op, 0.0, math.nan), "hi", id="count_in_interval-hi"),
    pytest.param(lambda op: batched_eigenvalues_in(op.diag[None], op.offdiag, 1.0, -1.0),
                 "^need lo <= hi$", id="batched_eigenvalues_in-lo-above-hi"),
    pytest.param(lambda op: sturm_counts(np.zeros(0), np.zeros(0), 0.0),
                 "^diag needs at least one site", id="sturm_counts-no-site"),
    pytest.param(lambda op: batched_eigenvalues_in(op.diag, op.offdiag, -1.0, 1.0),
                 r"^diag2d must be 2-D \(batch, L\), got shape \(6,\)",
                 id="batched_eigenvalues_in-1d-diag2d"),
    # couplings whose squares overflow: the count at 1e201 read 1 instead of 3
    # and the window (-1, 1] around the middle eigenvalue 0.3 read empty
    pytest.param(lambda op: sturm_count(_HUGE_COUPLINGS, 1e201), "^offdiag entries must be",
                 id="sturm_count-coupling-overflow"),
    pytest.param(lambda op: eigenvalues_in(_HUGE_COUPLINGS, -1.0, 1.0),
                 "^offdiag entries must be", id="eigenvalues_in-coupling-overflow"),
    pytest.param(lambda op: sturm_counts(op.diag, [1.0, 1.0, -1.4e154, 1.0, 1.0], 0.0),
                 "^offdiag entries must be", id="sturm_counts-negative-coupling-overflow"),
    # the window's count read -1; the bracket of the eigenvalues above
    # -1e308 reaches 1.7e308, its width overflows, and the bisection's
    # iteration count was an OverflowError
    pytest.param(lambda op: count_in_interval(_SHIFT_OVERFLOW, _BELOW_LO, _BELOW),
                 r"^window \(-1\.0+4e\+308, -1\.0+2e\+308\]: the count falls",
                 id="count_in_interval-count-falls"),
    pytest.param(lambda op: nearest_eigenvalue_distance(_SHIFT_OVERFLOW, -1e308),
                 r"^energy -1e\+308: a bisection bracket .* is not finite",
                 id="nearest_eigenvalue_distance-bracket-overflow"),
])
def test_scalar_entry_points_name_bad_input(call, name):
    # `name` is the input a "must be finite" error names, or a whole pattern
    match = name if name.startswith("^") else f"^{name} must be finite"
    with pytest.raises(ValueError, match=match):
        call(_free(6))


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "no-kernel"])
@pytest.mark.parametrize("two_d", [False, True], ids=["one-row", "rows"])
def test_bisection_rejects_couplings_whose_squares_overflow(compiled, two_d):
    """The public entry points count the window before they bisect, so only
    a direct call meets the C bisection's overflow status."""
    if compiled and _native.kernel() is None:
        pytest.skip("no compiled kernel")
    diag, off = _HUGE_COUPLINGS.diag, _HUGE_COUPLINGS.offdiag
    if two_d:
        diag, off = np.stack([diag] * 4), np.stack([off] * 4)
    with mock.patch.object(_native, "_kernel", _native.kernel() if compiled else None):
        with pytest.raises(ValueError, match="^offdiag entries must be at most 1.341e"):
            es._bisect_indices(diag, off, np.array([1, 2, 3, 2]), -3e200, 3e200, 0.0)


# ---------------------------------------------------------------------------
# the tridiagonal solve of inverse iteration


def _banded(op, shift):
    ab = np.zeros((3, op.size))
    ab[0, 1:] = op.offdiag
    ab[1] = op.diag - shift
    ab[2, :-1] = op.offdiag
    return ab


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80),
    couplings=st.sampled_from(["uniform", "zero", "negative", "tiny"]),
    offset=st.floats(-1e-9, 1e-9),
)
def test_solve_shifted_equals_scipy_gtsv(seed, n, couplings, offset):
    # scipy's solve_banded((1, 1), ...) calls LAPACK dgtsv, which _solve_shifted ports
    rng = np.random.default_rng(seed)
    off = rng.uniform(-2.0, 2.0, n - 1)
    if couplings == "zero":
        off[rng.random(n - 1) < 0.5] = 0.0
    elif couplings == "negative":
        off = -np.abs(off)
    elif couplings == "tiny":
        off *= 10.0 ** -rng.integers(8, 300, n - 1).astype(float)
    op = TridiagonalOperator(rng.uniform(-3.0, 3.0, n), off)
    shift = float(np.linalg.eigvalsh(op.to_dense())[rng.integers(n)]) + offset
    rhs = rng.standard_normal(n)
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            want = scipy.linalg.solve_banded((1, 1), _banded(op, shift), rhs)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            es._solve_shifted(op, shift, rhs)
        return
    if n == 1 and op.diag[0] == shift:  # scipy divides through; the port raises
        with pytest.raises(np.linalg.LinAlgError):
            es._solve_shifted(op, shift, rhs)
        return
    assert es._solve_shifted(op, shift, rhs).tobytes() == want.tobytes()


@pytest.mark.parametrize("diag, off, shift", [
    ([1.5], [], 1.5),
    ([1.0, 2.0], [0.0], 1.0),
    ([1.0, 2.0], [0.0], 2.0),
    ([0.0, 1.0, 1.0], [0.0, 0.0], 1.0),
    ([0.0, 0.0, 0.0], [1.0, 1.0], 0.0),  # the free Laplacian on 3 sites at E = 0
])
def test_solve_shifted_raises_on_singular_system(diag, off, shift):
    """The error carries a null vector of op - shift, the limit of the solve
    as its zero pivot goes to 0, for every right-hand side."""
    op = TridiagonalOperator(np.array(diag), np.array(off))
    with pytest.raises(np.linalg.LinAlgError) as info:
        es._solve_shifted(op, shift, np.ones(op.size))
    null = info.value.null
    assert np.max(np.abs(null)) >= 1.0
    assert np.array_equal(op.apply(null), shift * null)


def test_solve_shifted_rejects_non_finite_shifted_diagonal():
    op = TridiagonalOperator(np.array([1e308, 0.0]), np.array([1.0]))
    for shift in (-1e308, math.nan):
        with pytest.raises(ValueError, match="not finite"):
            es._solve_shifted(op, shift, np.ones(2))


# ---------------------------------------------------------------------------
# spectral symmetry


def test_hopping_spectrum_is_symmetric():
    rng = np.random.default_rng(0)
    op = TridiagonalOperator(np.zeros(6), rng.uniform(1.0, 2.0, size=5))
    vals = eigenvalues_in(op, -5.0, 5.0)
    assert vals.size == 6 and np.max(np.abs(vals + vals[::-1])) <= 1e-12


# ---------------------------------------------------------------------------
# eigenvectors


def test_eigenvector_free_three_site():
    op = _free(3)
    pair = eigenvector(op, 0.0)
    assert abs(pair.value) <= 1e-12
    assert np.allclose(np.abs(pair.vector), [1.0, 0.0, 1.0] / np.sqrt(2.0), atol=1e-12)
    assert pair.vector[np.argmax(np.abs(pair.vector))] > 0
    assert pair.gap == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert pair.residual <= 1e-10
    assert not pair.flagged


def test_eigenvector_matches_dense():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 30:
        op = random_operator(rng, size=12)
        dense = op.to_dense()
        vals, vecs = np.linalg.eigh(dense)
        j = int(rng.integers(12))
        pair = eigenvector(op, vals[j])
        if pair.flagged:
            continue
        v = vecs[:, j]
        err = min(np.max(np.abs(pair.vector - v)), np.max(np.abs(pair.vector + v)))
        assert pair.value == pytest.approx(vals[j], abs=1e-9)
        assert err <= 1e-7
        resid = dense @ pair.vector - pair.value * pair.vector
        assert np.max(np.abs(resid)) <= 1e-10
        checked += 1


def test_eigenvector_canonical_sign():
    rng = np.random.default_rng(6)
    for _ in range(20):
        op = random_operator(rng, size=10)
        vals = np.linalg.eigvalsh(op.to_dense())
        pair = eigenvector(op, vals[3])
        if not pair.flagged:
            assert pair.vector[np.argmax(np.abs(pair.vector))] > 0


def test_eigenvector_degenerate_cluster():
    # a double eigenvalue flags the result; the vector is still a unit
    # vector of its eigenspace
    op = TridiagonalOperator(np.array([1.0, 1.0, 4.0]), np.zeros(2))
    pair = eigenvector(op, 1.0)
    assert pair.flagged
    assert pair.value == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(op.to_dense() @ pair.vector - pair.vector)) <= 1e-10
    assert pair.gap == pytest.approx(3.0, abs=1e-12)


def test_window_vectors_have_small_residuals():
    rng = np.random.default_rng(17)
    op = random_operator(rng, size=12)
    lo, hi = op.gershgorin()
    vals = eigenvalues_in(op, lo, hi)
    dense = op.to_dense()
    assert vals.size == 12
    for value in vals:
        vec = eigenvector(op, float(value)).vector
        resid = dense @ vec - value * vec
        assert np.max(np.abs(resid)) <= 1e-8


def test_eigenvector_at_a_singular_shift_keeps_the_shift():
    """0.0 is an exact eigenvalue with eigenvector e2. A singular solve used
    to retry at 0.0 + 1e-13 * norm bound, which pushed the other shifted
    diagonal entry past the largest double."""
    op = TridiagonalOperator(np.array([-1.7976931348623157e308, 0.0]), np.array([0.0]))
    with np.errstate(over="raise"):
        pair = eigenvector(op, 0.0)
    assert pair.value == 0.0 and np.array_equal(pair.vector, [0.0, 1.0])
    assert pair.residual == 0.0 and not pair.flagged


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "no-kernel"])
def test_bisection_to_dbl_max_keeps_a_finite_tolerance(compiled):
    """A bracket reaching -DBL_MAX takes 4 ulp from the gap below DBL_MAX
    (np.spacing(DBL_MAX) is inf), so the bisection runs to the eigenvalue
    rather than stopping after 2 levels."""
    if compiled and _native.kernel() is None:
        pytest.skip("no compiled kernel")
    big = 1.7976931348623157e308
    op = TridiagonalOperator(np.array([-big, 0.0]), np.array([0.0]))
    with mock.patch.object(_native, "_kernel", _native.kernel() if compiled else None):
        with np.errstate(over="raise"):
            value = es._nearest_index_value(op, 1, -big, -1e296, 0.0)
            pair = eigenvector(op, 0.0)
    assert abs(value + big) <= 4.0 * 2.0**971
    assert pair.gap == -value


def test_eigenvector_flags_unconverged_vector():
    # E midway between two eigenvalues: 8 inverse-iteration steps do not
    # converge, which must be reported rather than returned as a clean result
    op = TridiagonalOperator(4.0 * np.random.default_rng(1).random(60), np.ones(59))
    vals = np.linalg.eigvalsh(op.to_dense())
    pair = eigenvector(op, 0.5 * (vals[31] + vals[32]))
    assert pair.residual > 1e-10 * op.norm_bound()
    assert pair.gap > 1e-3  # an isolated eigenvalue: only the residual flags it
    assert pair.flagged
