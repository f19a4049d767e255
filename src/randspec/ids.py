"""Integrated density of states: estimation, unfolding, regularity probes.

N(E) is estimated as the ensemble mean of #{eigenvalues < E} / L on a fixed
energy grid, via Sturm counts only. The table interpolates monotonically
(piecewise linear), unfolds eigenvalues by xi = L (N(E) - N(E_0)), measures
local Holder-type moduli on shrinking windows, and writes a CSV table.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _blocks
from .eigensolve import _grid_counts
from .operators import EnsembleSpec, map_draws


class OutsideGridError(ValueError):
    """Energy outside the tabulated grid."""


@dataclass(frozen=True, eq=False)
class IdsTable:
    """Monotone piecewise-linear interpolant of the estimated IDS."""

    energies: np.ndarray
    values: np.ndarray
    stderr: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        s = np.asarray(self.stderr, dtype=np.float64)
        if e.ndim != 1 or e.size < 2 or v.shape != e.shape or s.shape != e.shape:
            raise ValueError("need matching 1-d arrays with >= 2 grid points")
        if not np.all(np.diff(e) > 0):
            raise ValueError("grid energies must be strictly increasing")
        if np.any(np.diff(v) < 0):
            raise ValueError("IDS values must be nondecreasing")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "stderr", s)

    def _check_inside(self, e):
        e = np.asarray(e, dtype=np.float64)
        if not np.all((e >= self.energies[0]) & (e <= self.energies[-1])):  # NaN fails both
            raise OutsideGridError(
                f"energy outside tabulated range "
                f"[{self.energies[0]:g}, {self.energies[-1]:g}]"
            )
        return e

    def evaluate(self, e):
        """N(E) by linear interpolation; errors outside the grid."""
        e = self._check_inside(e)
        return np.interp(e, self.energies, self.values)

    def inverse(self, y):
        """Smallest E with N(E) = y; flat segments map to their left edge.

        A scalar level gives a float; a 1-d array of levels gives an array of
        the same length, including length 1.
        """
        scalar = np.ndim(y) == 0
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        if not np.all((y >= self.values[0]) & (y <= self.values[-1])):  # NaN fails both
            raise OutsideGridError("level outside tabulated IDS range")
        # values[i - 1] < y <= values[i] for i >= 1, so no segment is flat;
        # i = 0 is y = values[0], whose smallest energy is the grid's first
        i = np.searchsorted(self.values, y, side="left")
        out = np.full(y.shape, self.energies[0])
        inner = i > 0
        i, y = i[inner], y[inner]
        v0, v1 = self.values[i - 1], self.values[i]
        e0, e1 = self.energies[i - 1], self.energies[i]
        out[inner] = e0 + (y - v0) / (v1 - v0) * (e1 - e0)
        return float(out[0]) if scalar else out

    def to_csv(self, path):
        """Three columns (energy, ids, stderr), 17 significant digits."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["energy", "ids", "stderr"])
            for e, v, s in zip(self.energies, self.values, self.stderr):
                writer.writerow([f"{e:.17g}", f"{v:.17g}", f"{s:.17g}"])


def _grid_moments(grid, first, draw):
    counts = _grid_counts(*draw, grid)  # (grid, rows)
    return counts.sum(axis=1), (counts * counts).sum(axis=1)


def estimate_ids(
    spec: EnsembleSpec,
    size: int,
    samples: int,
    grid,
    seed: int = 0,
    workers: int = 1,
    stream: int = _blocks.STREAM_PRIMARY,
) -> IdsTable:
    """Monte Carlo IDS table on the given energy grid.

    Requires size >= 100 (finite-size bias dominates below that) and
    samples >= 1. Deterministic for fixed (seed, grid): counts are integer
    sums merged in block order, so the result is independent of `workers`.

    Each block counts its rows with `eigensolve._grid_counts`, which sweeps
    only where a count can change: the Sturm count does not decrease as the
    energy grows, so a row whose counts at the two ends of a stretch of the
    grid agree has that count at every grid energy between, unswept. The
    counts, hence the table, are those of a sweep of every row at every
    grid energy.
    """
    if size < 100:
        raise ValueError("need size >= 100")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing with >= 2 points")
    parts = map_draws(partial(_grid_moments, grid), spec, size, seed, samples, workers, (stream,))
    sums = np.zeros(grid.size, dtype=np.int64)
    sqs = np.zeros(grid.size, dtype=np.int64)
    for s, q in parts:
        sums += s
        sqs += q
    mean_counts = sums / samples
    values = mean_counts / size
    if samples > 1:
        var = (sqs - samples * mean_counts**2) / (samples - 1)
        stderr = np.sqrt(np.maximum(var, 0.0)) / size / math.sqrt(samples)
    else:
        stderr = np.zeros(grid.size)
    return IdsTable(grid, values, stderr)


def unfold(energies, table: IdsTable, e0: float, size: int):
    """xi = size * N(E) - size * N(E_0), with N the table's interpolant;
    errors outside its grid. Where N(E) is within a factor 2 of N(E_0) the
    subtraction is exact, so spacings of xi are those of size * N(E)."""
    return size * table.evaluate(energies) - size * table.evaluate(e0)


def _holder_modulus(table: IdsTable, scale: float, eta: float) -> float:
    """Largest IDS increment over windows of width exp(-scale^eta).

    Evaluates sup_x N(x + w) - N(x) exactly for the piecewise-linear table
    (the supremum is attained at grid breakpoints or their w-shifts).
    Errors when the grid is coarser than the window.
    """
    if scale <= 0 or eta <= 0:
        raise ValueError("need scale > 0 and eta > 0")
    w = math.exp(-(scale**eta))
    e = table.energies
    max_step = float(np.max(np.diff(e)))
    if max_step > w:
        raise ValueError(f"window width {w:.3e} below grid resolution {max_step:.3e}")
    lo, hi = float(e[0]), float(e[-1])
    cand = np.concatenate([e, e - w])
    cand = cand[(cand >= lo) & (cand <= hi - w)]
    if cand.size == 0:
        raise ValueError("grid too narrow for the requested window")
    inc = table.evaluate(cand + w) - table.evaluate(cand)
    return float(np.max(inc))


def holder_exponent_fit(table: IdsTable, scales, eta: float):
    """Fit log R_eta(l) ~ c - h * l^eta over the given scales; returns
    (h, intercept, moduli). Positive h witnesses a stretched-exponential
    modulus of continuity."""
    scales = np.asarray(scales, dtype=np.float64)
    mods = np.array([_holder_modulus(table, float(s), eta) for s in scales])
    if np.any(mods <= 0):
        keep = mods > 0
        scales, mods = scales[keep], mods[keep]
    if scales.size < 2:
        raise ValueError("need >= 2 usable scales for the fit")
    x = scales**eta
    slope, intercept = np.polyfit(x, np.log(mods), 1)
    return float(-slope), float(intercept), mods

