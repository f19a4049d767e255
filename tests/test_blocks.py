"""Block partitioning, per-block RNG keying, draws, and worker invariance."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randspec import EnsembleSpec, FiniteProfile, PiecewiseLinearLaw, UniformLaw, _blocks, _native
from randspec.operators import KINDS, _one_row, draw_block, draw_width, make_draw, map_draws


def _square_block(b):
    # module-level so ProcessPoolExecutor can pickle it
    return b * b


def _row(x, r):
    """Row r of a block's diag or offdiag: the one row, where it is shared."""
    return x.reshape(-1) if _one_row(x) else x[r]


def _picked_rows(first, *draws):
    # module-level so ProcessPoolExecutor can pickle it: a few rows per stream
    rows = np.broadcast_shapes(*(x.shape[:-1] for x in draws[0]))[0]
    picks = sorted({0, 1, rows // 2, rows - 1})
    return first, rows, [[(r, _row(diag, r), _row(off, r)) for r in picks]
                         for diag, off in draws]


def test_block_partition_covers_total():
    for width in (1, 7, 100, 5000):
        bs = _blocks.block_size(width)
        assert bs >= 1
        for total in (1, max(1, bs - 1), bs, bs + 1, 3 * bs + 17):
            nb = _blocks.n_blocks(total, width)
            rows = [_blocks.block_rows(total, width, b) for b in range(nb)]
            assert sum(rows) == total
            assert all(r >= 1 for r in rows)
            assert _blocks.block_rows(total, width, nb) == 0
    for total in (0, -3):  # every Monte Carlo run takes one draw or more
        with pytest.raises(ValueError, match=f"samples = {total}: must be >= 1"):
            _blocks.n_blocks(total, 10)


def test_block_size_pure_and_monotone():
    assert _blocks.block_size(1) == _blocks.block_size(1)
    assert _blocks.block_size(10**9) == 1
    sizes = [_blocks.block_size(w) for w in (1, 10, 100, 1000, 10**6)]
    assert sizes == sorted(sizes, reverse=True)


def test_block_rng_reproducible_and_keyed():
    a = _blocks.block_rng(5, 3, stream=0).random(8)
    assert np.array_equal(a, _blocks.block_rng(5, 3, stream=0).random(8))
    for other in (
        _blocks.block_rng(5, 4, stream=0).random(8),
        _blocks.block_rng(5, 3, stream=1).random(8),
        _blocks.block_rng(6, 3, stream=0).random(8),
    ):
        assert not np.array_equal(a, other)


def test_block_rng_validation():
    with pytest.raises(ValueError):
        _blocks.block_rng(-1, 0)
    with pytest.raises(ValueError):
        _blocks.block_rng(0, 1 << 48)


def test_uniform_block_prefix_rows_identical():
    full = _blocks.uniform_block(11, 2, rows=9, width=5)
    part = _blocks.uniform_block(11, 2, rows=4, width=5)
    assert np.array_equal(full[:4], part)


def test_map_blocks_worker_invariance():
    serial = _blocks.map_blocks(_square_block, 7, workers=1)
    parallel = _blocks.map_blocks(_square_block, 7, workers=3)
    assert serial == parallel == [b * b for b in range(7)]
    assert _blocks.map_blocks(_square_block, 0, workers=3) == []


def _paths():
    """`_native._library` for each draw path this host runs: the loaded
    library when it exports philox_uniform, and None, which forces the
    numpy fallback."""
    if _native.export("philox_uniform") is None:
        return [None]
    return [_native._library, None]


_BITS48 = st.integers(0, (1 << 48) - 1)
_BOUNDS = st.one_of(
    st.just((0.0, 1.0)),
    st.floats(-1e3, 1e3).map(lambda x: (x, x)),
    st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)).map(sorted).map(tuple),
)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, (1 << 64) - 1), stream=st.integers(0, (1 << 16) - 1),
       block=_BITS48, rows=st.integers(0, 5), width=st.integers(1, 11), bounds=_BOUNDS)
@example(seed=0, stream=0, block=0, rows=1, width=1, bounds=(0.0, 1.0))
@example(seed=(1 << 48) - 1, stream=(1 << 16) - 1, block=(1 << 48) - 1, rows=3, width=7,
         bounds=(-2.5, -0.5))
@example(seed=7, stream=2, block=3, rows=1, width=6, bounds=(1.5, 1.5))
def test_uniform_block_bits_equal_numpy_philox(seed, stream, block, rows, width, bounds):
    """Every path gives lo + (hi - lo) * u for numpy's Philox uniforms u, bit
    for bit, on shapes whose size is no multiple of 4 as on others; (0, 1)
    are the defaults, which give u itself."""
    lo, hi = bounds
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, ((stream << 48) ^ block)], dtype=np.uint64)))
    u = rng.random((rows, width))
    want = u if bounds == (0.0, 1.0) else lo + (hi - lo) * u
    law = {} if bounds == (0.0, 1.0) else {"lo": lo, "hi": hi}
    for library in _paths():
        with mock.patch.object(_native, "_library", library):
            got = _blocks.uniform_block(seed, block, rows, width, stream, **law)
        assert got.shape == (rows, width) and got.tobytes() == want.tobytes()


_LAWS = {
    "uniform": lambda kind: UniformLaw(-0.5, 2.0) if kind in ("anderson", "alloy", "dimer_sign")
    else UniformLaw(1.25, 1.75),  # hopping and qgraph need positive laws
    "default": lambda kind: None,
    "piecewise": lambda kind: PiecewiseLinearLaw((1.0, 1.5, 2.0), (1.0, 2.0, 1.0)),
}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), law=st.sampled_from(sorted(_LAWS)),
       size=st.integers(1, 9), seed=st.integers(0, (1 << 64) - 1), block=_BITS48,
       stream=st.integers(0, 3), rows=st.integers(1, 5), data=st.data())
def test_make_draw_rows_equal_draw_block_rows(kind, law, size, seed, block, stream, rows, data):
    profile = FiniteProfile((0.25, 1.0, 0.5)) if kind == "alloy" else None
    spec = EnsembleSpec(kind, law=_LAWS[law](kind), profile=profile)
    row = data.draw(st.integers(0, rows - 1))
    index = block * _blocks.block_size(draw_width(spec, size)) + row
    for library in _paths():
        with mock.patch.object(_native, "_library", library):
            diag, off = draw_block(spec, size, seed, block, rows, stream)
            draw = make_draw(spec, size, seed, index, stream)
        assert draw.diag.tobytes() == _row(diag, row).tobytes()
        assert draw.offdiag.tobytes() == _row(off, row).tobytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["anderson", "hopping"])
def test_map_draws_gives_each_block_its_first_index_and_rows(kind, workers):
    """The block driver hands block b its first draw index b * B and, per
    stream, the draws whose row r is draw first + r of that stream."""
    spec, size, seed = EnsembleSpec(kind), 2000, 3
    assert _blocks.block_size(draw_width(spec, size)) == 524
    streams = (_blocks.STREAM_PRIMARY, _blocks.STREAM_SECONDARY)
    parts = map_draws(_picked_rows, spec, size, seed, 2 * 524 + 7, workers, streams)
    assert [(first, rows) for first, rows, _ in parts] == [(0, 524), (524, 524), (1048, 7)]
    for first, _, per_stream in parts:
        for stream, picked in zip(streams, per_stream):
            for r, diag, off in picked:
                draw = make_draw(spec, size, seed, first + r, stream)
                assert draw.diag.tobytes() == diag.tobytes()
                assert draw.offdiag.tobytes() == off.tobytes()
