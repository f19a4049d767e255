"""Deterministic block-structured Monte Carlo driver.

Random draws are organized into fixed-size blocks. The block size is a pure
function of the draw width, and block b is generated by a Philox stream keyed
by (seed, stream, b) alone, so

* draw i can be regenerated in isolation: generate block i // B and take row
  i % B (generation is row-major, so a prefix of a block is bit-identical to
  generating fewer rows);
* results are independent of how blocks are partitioned over workers, because
  workers always own whole blocks and per-block results are merged in block
  index order.

A block's uniforms are those of numpy's `Generator(Philox(key))` stream. The
C library's `philox_uniform` (see `_native`) computes them, with a uniform
law's affine map fused in, when it loads; numpy draws them otherwise, the
same bits either way.
"""

from __future__ import annotations

import os

import numpy as np

from . import _native

MASK64 = (1 << 64) - 1

# Streams separate independent sources of randomness within one experiment.
STREAM_PRIMARY = 0
STREAM_SECONDARY = 1
STREAM_IDS = 2
STREAM_LYAPUNOV = 5

_BLOCK_BYTES = 1 << 23  # target bytes of doubles generated per block
_BLOCK_CAP = 16384


def block_size(width: int) -> int:
    """Rows per generation block for draws of `width` doubles.

    Pure function of the width; part of the reproducibility contract.
    """
    rows = _BLOCK_BYTES // (8 * max(1, int(width)))
    return int(max(1, min(_BLOCK_CAP, rows)))


def _block_key(seed: int, block: int, stream: int) -> tuple[int, int]:
    """The two Philox key words of one block of one stream."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if not 0 <= block < (1 << 48):
        raise ValueError("block index out of range")
    return seed & MASK64, ((stream << 48) ^ block) & MASK64


def block_rng(seed: int, block: int, stream: int = 0) -> np.random.Generator:
    """Independently keyed generator for one block of one stream."""
    key = np.array(_block_key(seed, block, stream), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_block(
    seed: int, block: int, rows: int, width: int, stream: int = 0,
    *, lo: float = 0.0, hi: float = 1.0,
) -> np.ndarray:
    """(rows, width) array lo + (hi - lo) * u of the block's uniforms u in
    [0, 1): `block_rng(seed, block, stream).random((rows, width))`, mapped
    as `UniformLaw(lo, hi).transform` maps it, bit for bit. The defaults
    give u itself, since 0.0 + 1.0 * u == u."""
    lo, hi = float(lo), float(hi)
    draw = _native.export("philox_uniform")
    if draw is None:
        return lo + (hi - lo) * block_rng(seed, block, stream).random((rows, width))
    out = np.empty((rows, width))
    draw(*_block_key(seed, block, stream), lo, hi, out.ctypes.data, out.size)
    return out


def n_blocks(total: int, width: int) -> int:
    """Blocks of a run of `total` draws; every Monte Carlo run has one or more."""
    if not total >= 1:
        raise ValueError(f"samples = {total!r}: must be >= 1")
    return -(-total // block_size(width))


def block_rows(total: int, width: int, block: int) -> int:
    """Number of rows the given block contributes to a run of `total` draws."""
    bs = block_size(width)
    return max(0, min(bs, total - block * bs))


def map_blocks(fn, count: int, workers: int = 1) -> list:
    """[fn(0), ..., fn(count - 1)], optionally computed by worker processes.

    `fn` must be picklable (module-level function or functools.partial of
    one). The returned list order never depends on the worker count.
    """
    if count <= 0:
        return []
    if workers <= 1 or count == 1:
        return [fn(b) for b in range(count)]
    import concurrent.futures  # here, not at import: it loads logging, about 6 ms

    workers = min(workers, count, os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))
