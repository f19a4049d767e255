"""Property tests of the Sturm sweep: the C kernel (as dispatched, and each
of its bodies this host runs) and the site-major numpy sweep against each
other and against dense LAPACK counts, on operators built to stress the
pivot clamp. The other paths run with the kernel's handle patched to a
body, or to None for numpy."""

import platform
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from randspec import _native, sturm_counts
from randspec import eigensolve as es

_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# zeros of both signs, values at and below the clamp, subnormals, integers
# (repeated eigenvalues) and the extremes of the range the tests allow
_SPECIAL = np.array([0.0, -0.0, 1e-300, -1e-300, 1e-310, -1e-310, 5e-324,
                     1.0, -1.0, 2.0, 0.5, 1e300, -1e300])


def _adversarial(rng, shape, max_exp):
    """Entries mixing special values, small integers and 10^+-max_exp scales."""
    pick = rng.integers(3, size=shape)
    special = rng.choice(_SPECIAL, size=shape)
    special = np.where(np.abs(special) > 10.0 ** max_exp, 1.0, special)
    integer = rng.integers(-3, 4, size=shape).astype(float)
    scaled = rng.uniform(-1, 1, size=shape) * 10.0 ** rng.integers(-max_exp, max_exp + 1, size=shape)
    return np.choose(pick, [special, integer, scaled])


def _cpu_flags():
    """The CPU flags /proc/cpuinfo lists; empty where there is no such file."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.partition(":")[2].split())
    return set()


def _host_bodies():
    """The kernel bodies this host runs, by name: the scalar loop, and the
    AVX2 loop on an x86-64 CPU that lists avx2. Empty without the library."""
    names = ["scalar"]
    if platform.machine().lower() in ("x86_64", "amd64") and "avx2" in _cpu_flags():
        names.append("avx2")
    bodies = {name: _native.export(f"sturm_counts_{name}") for name in names}
    return {name: fn for name, fn in bodies.items() if fn is not None}


_BODIES = _host_bodies()


def _by_path(diag, offdiag, shifts):
    """Counts of one call by path: the dispatched C kernel, each body the
    host runs and the site-major numpy sweep. Without a C compiler the first
    is the numpy sweep too. Each path also counts the call's first lane
    alone, as a scalar shift on one row, and a batch of no lanes; these must
    give that lane's count and an empty batch."""
    diag, offdiag, shifts = (np.asarray(x, dtype=float) for x in (diag, offdiag, shifts))
    row = diag[(0,) * (diag.ndim - 1)], offdiag[(0,) * (offdiag.ndim - 1)]
    paths = {}
    for name, body in [("compiled", _native.kernel()), *_BODIES.items(), ("site_major", None)]:
        with mock.patch.object(_native, "_kernel", body):
            counts = paths[name] = sturm_counts(diag, offdiag, shifts)
            if counts.size:
                one = sturm_counts(*row, float(shifts.flat[0]))
                assert one.shape == () and one.dtype == np.int64 and one == counts.flat[0], name
            none = sturm_counts(diag, offdiag, np.empty((0,) + counts.shape))
            assert none.shape == (0,) + counts.shape and none.dtype == np.int64, name
    return paths


def _agreed(paths):
    """The counts every path gave; fails naming a path that differs."""
    counts = paths["site_major"]
    for name, got in paths.items():
        assert got.dtype == counts.dtype and got.shape == counts.shape, name
        assert np.array_equal(got, counts), name
    return counts


def _dense_counts(diag, off, shifts):
    """Dense LAPACK counts of one row, and where they can be trusted."""
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    eigs = np.linalg.eigvalsh(dense)
    # dense eigenvalues carry errors ~ eps * norm; compare where that cannot matter
    margin = 1e-8 * np.max(np.abs(eigs)) + 1e-280
    clear = np.min(np.abs(shifts[:, None] - eigs[None, :]), axis=1) > margin
    return np.sum(eigs[None, :] < shifts[:, None], axis=1), clear


@_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 24), zero_diag=st.booleans(),
       hopping=st.booleans())
def test_paths_match_dense_counts(seed, size, zero_diag, hopping):
    """Every C body == float lanes == site-major == dense, one row or two
    rows with couplings of their own (2-D offdiag)."""
    rng = np.random.default_rng(seed)
    rows = 2 if hopping else 1
    diag = np.zeros((rows, size)) if zero_diag else _adversarial(rng, (rows, size), 300)
    off = _adversarial(rng, (rows, size - 1), 150)
    eigs = np.linalg.eigvalsh(np.diag(diag[0]) + np.diag(off[0], 1) + np.diag(off[0], -1))
    mids = 0.5 * (eigs[:-1] + eigs[1:])
    shifts = np.concatenate([_adversarial(rng, 8, 300), mids, eigs, [0.0, -0.0]])
    if not hopping:
        diag, off = diag[0], off[0]
    compiled = _agreed(_by_path(diag, off, shifts[:, None] if hopping else shifts))
    for row in range(rows):
        got = compiled[:, row] if hopping else compiled
        expected, clear = _dense_counts(np.atleast_2d(diag)[row], np.atleast_2d(off)[row], shifts)
        assert np.array_equal(got[clear], expected[clear])


@_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 12),
    n_shifts=st.integers(1, 8),
    size=st.integers(1, 40),
    hopping=st.booleans(),
    tile_sites=st.integers(1, 6),
)
def test_paths_agree_across_lanes_and_tiles(seed, rows, n_shifts, size, hopping, tile_sites):
    """Lane counts 1..96 are whole and partial groups of the scalar body's 8
    interleaved lanes and of the AVX2 body's 16 (4 vectors of 4); tiles of
    1-6 sites split L."""
    rng = np.random.default_rng(seed)
    diag = _adversarial(rng, (rows, size), 300)
    off = _adversarial(rng, (rows, size - 1) if hopping else (size - 1,), 150)
    shifts = _adversarial(rng, (n_shifts, 1), 300)
    with mock.patch.object(es, "_TILE_BYTES", 8 * rows * n_shifts * tile_sites):
        counts = _agreed(_by_path(diag, off, shifts))
    assert counts.shape == (n_shifts, rows)


@pytest.mark.parametrize("lanes", [20, 21, 64])
def test_paths_agree_across_a_real_tile_boundary(lanes):
    """The shipped tile size, with L one tile of a 21-lane site-major call
    plus 100 sites; the zero-diagonal rows put a clamped pivot in every tile.
    21 lanes are 2 groups of 8 interleaved lanes and a partial one."""
    size = es._TILE_BYTES // (8 * 21) + 100
    rng = np.random.default_rng(lanes)
    diag = rng.uniform(-2, 2, (lanes, size))
    diag[::3] = 0.0
    off = np.ones(size - 1)
    _agreed(_by_path(diag, off, 0.0))


@_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 4), size=st.integers(1, 24),
       hopping=st.booleans())
def test_count_does_not_decrease_as_the_shift_grows(seed, rows, size, hopping):
    """The lemma `eigensolve._grid_counts` rests on (Kahan 1966; Demmel,
    Dhillon and Ren, ETNA 3, 1995), on every C body this host runs and on
    the numpy sweep: each row's count does not decrease as the shift grows,
    and -0.0 and 0.0 give one count. The shifts include every diagonal entry
    and its neighbours one ulp away (clamped pivots), +-0.0 and +-1e308;
    some couplings lie within a few ulp of sqrt(DBL_MAX), whose squares
    reach DBL_MAX. Entries stay within 1e300, so no diagonal entry minus a
    shift overflows (see the test below for what happens when one does)."""
    rng = np.random.default_rng(seed)
    diag = _adversarial(rng, (rows, size), 300)
    off = _adversarial(rng, (rows, size - 1) if hopping else (size - 1,), 150)
    near_limit = np.nextafter(es._MAX_COUPLING, 0.0) * (1.0 - 2.0**-52 * rng.integers(0, 4, off.shape))
    off = np.where(rng.random(off.shape) < 0.3, near_limit * rng.choice([-1.0, 1.0], off.shape), off)
    entries = diag.ravel()
    shifts = np.sort(np.concatenate([
        entries, np.nextafter(entries, np.inf), np.nextafter(entries, -np.inf),
        [0.0, -0.0, 1e308, -1e308, np.nextafter(1e308, 0.0), np.nextafter(-1e308, 0.0)],
        _adversarial(rng, 8, 300),
    ]))
    signed_zeros = np.array([-0.0, 0.0])[:, None]
    for name, counts in _by_path(diag, off, shifts[:, None]).items():
        assert np.all(np.diff(counts, axis=0) >= 0), name
    for name, counts in _by_path(diag, off, signed_zeros).items():
        assert np.array_equal(counts[0], counts[1]), name


def test_count_can_decrease_where_a_diagonal_minus_a_shift_overflows():
    """Outside the lemma. At the shift -1e308, 1.7e308 - s overflows to inf
    at site 2, where the first pivot is clamped to +1e-300 and b / d is inf
    too: the pivot is inf - inf = NaN, which poisons the rest of the sweep,
    and the count is 0, below the count 1 one ulp lower. `_grid_counts`
    sweeps such a grid whole, in one `sturm_counts` call and no level, so
    it still gives the counts of the sweep."""
    diag = np.array([[-1e308, 1.7e308, -1.7e308]])
    off = np.array([-1e154, -1e-300])
    below = np.nextafter(-1e308, -np.inf)
    for name, counts in _by_path(diag, off, np.array([[below], [-1e308]])).items():
        assert counts.ravel().tolist() == [1, 0], name
    grid = np.array([-1.5e308, below, -1e308, 0.0, 1e308])
    no_levels = mock.patch.object(es, "_row_counts", side_effect=AssertionError("a level ran"))
    for body in [_native.kernel(), *_BODIES.values(), None]:
        with mock.patch.object(_native, "_kernel", body), no_levels:
            assert np.array_equal(es._grid_counts(diag, off, grid), sturm_counts(diag, off, grid[:, None]))


@pytest.mark.parametrize(
    "diag, off, shift, expected",
    [
        # an exact zero pivot, of either sign, clamps to +tiny: not counted
        ([0.0, 1.0], [0.0], 0.0, 0),
        ([-0.0, 1.0], [0.0], 0.0, 0),
        ([0.0, 1.0], [0.0], -0.0, 0),
        ([1.0, 1.0], [1.0], 0.0, 0),  # second pivot 1 - 1/1 = 0 mid-sweep
        # a pivot in (-tiny, 0) clamps to -tiny: counted, and the next pivot
        # 0 - 1/(-tiny) = +1e300 is not (the count moves to this site)
        ([-1e-310, 0.0], [0.0], 0.0, 1),
        ([-1e-310], [], 0.0, 1),
        ([-1e-310, 0.0], [1.0], 0.0, 1),
        ([-1e-310, 0.0, -1.0], [1.0, 1.0], 0.0, 2),
        # NaN passes through the clamp and poisons the rest of the sweep
        ([1.0, np.nan, -5.0], [1.0, 1.0], 0.0, 0),
        # the clamped first pivot -tiny, not -5e-301, makes the next one
        # -1.5 + 1 = -0.5 rather than -1.5 + 2 = 0.5
        ([-5e-301, -1.5], [1e-150], 0.0, 2),
    ],
)
def test_pinned_pivot_clamp(diag, off, shift, expected):
    for name, counts in _by_path(np.array(diag), np.array(off), np.array([shift])).items():
        assert counts.tolist() == [expected], name


def test_offdiag_length_is_checked():
    with pytest.raises(ValueError, match="offdiag"):
        sturm_counts(np.zeros(4), np.ones(4), 0.0)


@pytest.mark.parametrize("shifts", [np.nan, [0.0, np.nan, 1.0], np.r_[np.zeros(40), np.nan]])
def test_nan_shift_is_rejected(shifts):
    # a NaN shift makes every pivot of its lane NaN, which counts as no
    # eigenvalue
    with pytest.raises(ValueError, match="^shifts must not be NaN"):
        sturm_counts(np.zeros(5), np.ones(4), shifts)
    for body in [*_BODIES.values(), None]:
        with mock.patch.object(_native, "_kernel", body):
            with pytest.raises(ValueError, match="^shifts must not be NaN"):
                sturm_counts(np.zeros(5), np.ones(4), shifts)


@pytest.mark.parametrize("n_shifts", [1, 6, 40])
@pytest.mark.parametrize("shared", [True, False], ids=["shared-couplings", "row-couplings"])
def test_coupling_whose_square_overflows_is_rejected(n_shifts, shared):
    # A coupling above sqrt(DBL_MAX) squares to inf, which made the counts
    # wrong (1 instead of 3 below 1e201 for couplings 1e200); the largest
    # coupling whose square is finite still counts.
    limit = es._MAX_COUPLING
    diag = np.tile([0.5, -0.2, 0.1], (3, 1))  # eigenvalues near -1.9e154, 0.3, 1.9e154
    good = np.array([limit, -limit])
    bad = np.array([limit, -np.nextafter(limit, np.inf)])
    if not shared:
        good, bad = np.tile(good, (3, 1)), np.stack([good, bad, good])
    shifts = np.linspace(-1e160, 1e160, n_shifts)[:, None]
    want = np.where(shifts < 0.0, 0, 3) + np.zeros((1, 3), dtype=np.int64)
    assert np.array_equal(_agreed(_by_path(diag, good, shifts)), want)
    for body in [*_BODIES.values(), None]:
        with mock.patch.object(_native, "_kernel", body):
            with pytest.raises(ValueError, match="^offdiag entries must be at most 1.341e"):
                sturm_counts(diag, bad, shifts)


def test_one_site_rows():
    """L = 1: no couplings, shared or per row; the count is a - s < 0."""
    diag = np.array([[-1.0], [0.0], [-0.0], [-1e-310], [2.0]])
    for off in (np.zeros(0), np.zeros((5, 0))):
        assert _agreed(_by_path(diag, off, 0.0)).tolist() == [1, 0, 0, 1, 0]


@pytest.mark.parametrize("lanes", [1, 3, 5, 7, 9, 13, 15, 16, 17, 33])
def test_partial_lane_groups(lanes):
    """Lane counts that are not a multiple of the scalar body's 8 lanes or
    of the AVX2 body's 16 (whose last group runs as 1, 2 or 4 vectors): each
    lane has its own count, so a count stored in another lane's slot shows.
    Shift k sits between eigenvalues k and k + 1 of the free Laplacian,
    shared by every lane or copied into a diagonal and coupling row per lane."""
    size = 40
    eigs = 2.0 * np.cos(np.pi * np.arange(size, 0, -1) / (size + 1))
    shifts = np.r_[eigs[0] - 1.0, 0.5 * (eigs[:-1] + eigs[1:])][:lanes]
    for diag, off in [(np.zeros(size), np.ones(size - 1)),
                      (np.zeros((lanes, size)), np.ones((lanes, size - 1)))]:
        for name, counts in _by_path(diag, off, shifts).items():
            assert counts.tolist() == list(range(lanes)), name


def test_nan_lane_beside_tiny_pivot_is_reswept():
    """One tile, one lane of NaN pivots and one with a zero pivot: the tile
    must still be swept again with the clamp. Unclamped, 0/0 makes lane 1 NaN
    from site 1 on and it counts 0; a minimum over the tile that propagates
    NaN would skip the re-sweep."""
    lanes = 16
    diag = np.tile([2.0, 3.0, 4.0], (lanes, 1))
    diag[0, 0] = np.nan
    diag[1] = [0.0, -1.0, -1.0]
    assert _agreed(_by_path(diag, np.zeros(2), 0.0)).tolist() == [0, 2] + [0] * (lanes - 2)


def test_every_pivot_negative_across_full_tiles():
    # above the spectrum every pivot is negative: a full tile's per-lane
    # count is its site count, which must not wrap in the tile's uint8 count
    size = 3 * 255 + 10
    assert _agreed(_by_path(np.zeros((21, size)), np.ones(size - 1), 3.0)).tolist() == [size] * 21


def test_every_pivot_negative_on_a_long_row():
    # 10^5 negative pivots: a count narrower than 32 bits would wrap
    size = 10**5
    counts = _agreed(_by_path(np.zeros(size), np.ones(size - 1), [3.0]))
    assert counts.dtype == np.int64 and counts.tolist() == [size]


def test_dispatch_picks_avx2_where_the_cpu_lists_it():
    """The library's sturm_counts runs the AVX2 body on an x86-64 CPU whose
    /proc/cpuinfo lists avx2, and the scalar body elsewhere."""
    if _native.kernel() is None:
        pytest.skip("no compiled kernel")
    assert _native.body() == ("avx2" if "avx2" in _BODIES else "scalar")
