"""Property tests of the Sturm sweep: both lane paths against each other and
against dense LAPACK counts, on operators built to stress the pivot clamp."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from randspec import eigensolve as es
from randspec import sturm_counts

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


def _by_path(diag, offdiag, shifts):
    """(automatic, float-lane, site-major) counts of one call."""
    auto = sturm_counts(diag, offdiag, shifts)
    with mock.patch.object(es, "_FLOAT_LANES", 1 << 30):
        floats = sturm_counts(diag, offdiag, shifts)
    with mock.patch.object(es, "_FLOAT_LANES", 0):
        site_major = sturm_counts(diag, offdiag, shifts)
    for counts in (floats, site_major):
        assert counts.dtype == auto.dtype and counts.shape == auto.shape
    return auto, floats, site_major


@_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 24), zero_diag=st.booleans())
def test_paths_match_dense_counts(seed, size, zero_diag):
    rng = np.random.default_rng(seed)
    diag = np.zeros(size) if zero_diag else _adversarial(rng, size, 300)
    off = _adversarial(rng, size - 1, 150)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    eigs = np.linalg.eigvalsh(dense)
    mids = 0.5 * (eigs[:-1] + eigs[1:])
    shifts = np.concatenate([_adversarial(rng, 8, 300), mids, eigs, [0.0, -0.0]])
    auto, floats, site_major = _by_path(diag, off, shifts)
    assert np.array_equal(floats, site_major)
    assert np.array_equal(auto, floats)
    # dense eigenvalues carry errors ~ eps * norm; compare where that cannot matter
    margin = 1e-8 * np.max(np.abs(eigs)) + 1e-280
    clear = np.min(np.abs(shifts[:, None] - eigs[None, :]), axis=1) > margin
    expected = np.sum(eigs[None, :] < shifts[:, None], axis=1)
    assert np.array_equal(auto[clear], expected[clear])


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
    """Lane counts 1..96 straddle the crossover; tiles of 1-6 sites split L."""
    rng = np.random.default_rng(seed)
    diag = _adversarial(rng, (rows, size), 300)
    off = _adversarial(rng, (rows, size - 1) if hopping else (size - 1,), 150)
    shifts = _adversarial(rng, (n_shifts, 1), 300)
    with mock.patch.object(es, "_TILE_BYTES", 8 * rows * n_shifts * tile_sites):
        auto, floats, site_major = _by_path(diag, off, shifts)
    assert auto.shape == (n_shifts, rows)
    assert np.array_equal(floats, site_major) and np.array_equal(auto, floats)


@pytest.mark.parametrize("lanes", [es._FLOAT_LANES, es._FLOAT_LANES + 1, 64])
def test_paths_agree_across_a_real_tile_boundary(lanes):
    """The shipped constants, with L one tile of the narrowest site-major call
    plus 100 sites; the zero-diagonal rows put a clamped pivot in every tile."""
    size = es._TILE_BYTES // (8 * (es._FLOAT_LANES + 1)) + 100
    rng = np.random.default_rng(lanes)
    diag = rng.uniform(-2, 2, (lanes, size))
    diag[::3] = 0.0
    off = np.ones(size - 1)
    auto, floats, site_major = _by_path(diag, off, 0.0)
    assert np.array_equal(floats, site_major) and np.array_equal(auto, floats)


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
    ],
)
def test_pinned_pivot_clamp(diag, off, shift, expected):
    for counts in _by_path(np.array(diag), np.array(off), np.array([shift])):
        assert counts.tolist() == [expected]


def test_offdiag_length_is_checked():
    with pytest.raises(ValueError, match="offdiag"):
        sturm_counts(np.zeros(4), np.ones(4), 0.0)
