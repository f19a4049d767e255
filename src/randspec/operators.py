"""Random tridiagonal operators on boxes {1..L} with Dirichlet restriction.

Ensembles covered:

* ``hopping``    H u(n) = a(n+1) u(n+1) + a(n) u(n-1), i.i.d. couplings;
* ``anderson``   H = Delta_a + V with a == 1 and i.i.d. diagonal V;
* ``alloy``      V(m) = sum_n d(n) omega_{n+m} with a single-site profile d
                 of radius r and i.i.d. omega living on the enlarged box
                 {1-r .. L+r};
* ``dimer_sign`` V(2i) = omega_i, V(2i+1) = -omega_i (sign-mirrored pairs);
* ``qgraph``     -Delta + diag(omega), the vertex reduction of a metric-graph
                 Laplacian with delta couplings omega >= 0.

The Dirichlet restriction to {1..L} keeps couplings a(2..L) and drops the
boundary couplings, so the box operator is the L x L tridiagonal matrix with
diagonal V(1..L) and off-diagonal a(2..L). Site indices in public APIs are
1-based throughout.

Draws are reproducible bit for bit from (seed, index) via a block-structured
counter RNG; see _blocks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _blocks

KINDS = ("hopping", "anderson", "alloy", "dimer_sign", "qgraph")


class DomainError(ValueError):
    """Raised when an energy lies outside a spectral family's domain."""


# ---------------------------------------------------------------------------
# single-site laws


def _check_width(lo, hi):
    """ValueError when the support [lo, hi] is wider than the largest float,
    where the inverse CDF scales by hi - lo = inf and draws inf and NaN."""
    if hi - lo == math.inf:
        raise ValueError(f"law support [{lo!r}, {hi!r}] is wider than the largest float")


@dataclass(frozen=True)
class UniformLaw:
    """Uniform law on [lo, hi]."""

    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("law endpoints must be finite")
        if self.hi < self.lo:
            raise ValueError("need lo <= hi")
        _check_width(self.lo, self.hi)

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def transform(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms on [0, 1) to law samples (inverse CDF)."""
        return self.lo + (self.hi - self.lo) * np.asarray(u, dtype=np.float64)


@dataclass(frozen=True)
class PiecewiseLinearLaw:
    """Law whose density is piecewise linear between knots.

    `weights` are (unnormalized) density values at the knots; the density
    interpolates linearly on each segment and is normalized internally.
    """

    knots: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if k.ndim != 1 or k.size < 2 or w.shape != k.shape:
            raise ValueError("need matching knot/weight arrays, >= 2 knots")
        _check_width(float(k[0]), float(k[-1]))
        if not np.all(np.diff(k) > 0):
            raise ValueError("knots must be strictly increasing")
        if np.any(w < 0) or not np.all(np.isfinite(w)) or not np.all(np.isfinite(k)):
            raise ValueError("weights must be finite and nonnegative")
        with np.errstate(over="ignore"):
            mass = float(np.sum((w[:-1] + w[1:]) / 2.0 * np.diff(k)))
        if mass <= 0:
            raise ValueError("density must have positive mass")
        if not math.isfinite(mass):
            raise ValueError(f"density mass is {mass!r}: the weights times the knot gaps "
                             "overflow the largest float")
        with np.errstate(over="ignore", invalid="ignore"):  # the terms of `transform`
            dens = w / mass
            slope = np.diff(dens) / np.diff(k)
            steep = ~np.isfinite(2.0 * slope) | (slope != 0.0) & ~np.isfinite(
                np.maximum(dens[:-1], dens[1:]) ** 2)
        if not np.all(np.isfinite(dens)):
            raise ValueError(f"normalized density is inf: the weights divided by the mass "
                             f"{mass!r} overflow the largest float")
        bad = np.flatnonzero(steep)
        if bad.size:
            lo, hi = float(k[bad[0]]), float(k[bad[0] + 1])
            raise ValueError(f"density on the knots [{lo!r}, {hi!r}] is too steep to sample: "
                             "twice its slope, or its square where it slopes, overflows")

    @classmethod
    def from_csv(cls, path) -> "PiecewiseLinearLaw":
        """Read (x, density) rows from a two-column CSV file; blank lines and
        lines starting with # are skipped. A short row, a field that is not
        a number or an unreadable line raises ValueError naming the line."""
        xs, ws = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                for row in reader:
                    if not row or row[0].lstrip().startswith("#"):
                        continue
                    where = f"{path}: line {reader.line_num}"
                    if len(row) < 2:
                        raise ValueError(f"{where} has one field; expected x,density")
                    try:
                        xs.append(float(row[0]))
                        ws.append(float(row[1]))
                    except ValueError:
                        raise ValueError(f"{where} holds a field that is not a number") from None
            except csv.Error as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        return cls(tuple(xs), tuple(ws))

    def _tables(self):
        k = np.asarray(self.knots, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        seg_mass = (w[:-1] + w[1:]) / 2.0 * np.diff(k)
        total = seg_mass.sum()
        dens = w / total
        cdf = np.concatenate([[0.0], np.cumsum(seg_mass / total)])
        cdf[-1] = 1.0
        return k, dens, cdf

    @property
    def support(self) -> tuple[float, float]:
        return (self.knots[0], self.knots[-1])

    def transform(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF sampling; exact on each linear segment."""
        u = np.asarray(u, dtype=np.float64)
        k, dens, cdf = self._tables()
        seg = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, len(k) - 2)
        q = u - cdf[seg]
        dx = np.diff(k)[seg]
        f0 = dens[seg]
        slope = (dens[seg + 1] - dens[seg]) / dx
        # solve (slope/2) t^2 + f0 t = q on each segment; f0 * f0 overflows
        # only on flat segments (__post_init__ refuses sloped ones where it
        # does), which read t_flat, not disc
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            disc = np.sqrt(np.maximum(f0 * f0 + 2.0 * slope * q, 0.0))
            t_lin = np.where(slope != 0.0, (disc - f0) / slope, 0.0)
            t_flat = np.where(f0 > 0.0, q / f0, 0.0)
        t = np.where(slope != 0.0, t_lin, t_flat)
        return k[seg] + np.clip(t, 0.0, dx)


# ---------------------------------------------------------------------------
# alloy single-site profiles


@dataclass(frozen=True)
class FiniteProfile:
    """Compactly supported profile d(n), values at offsets -r..r."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) % 2 != 1:
            raise ValueError("profile needs values at offsets -r..r (odd length)")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("profile values must be finite")

    @property
    def radius(self) -> int:
        return (len(self.values) - 1) // 2


# ---------------------------------------------------------------------------
# spectral families V_omega(E) = (V_omega - mu_E) / lambda_E


# Half-width of the band around each excluded energy (k pi)^2 that the
# interval-graph family and the graph eigenvalue scan leave out.
POLE_MARGIN = 1e-6 * math.pi**2


def _pole_band(k: int) -> tuple[float, float]:
    """Edges of the open band (lo, hi) excluded around (k pi)^2. The family
    rejects lo < E < hi and the graph scan ends its segments at lo and hi, so
    a segment end is always inside the family's domain."""
    pole = (k * math.pi) ** 2
    return pole - POLE_MARGIN, pole + POLE_MARGIN


@dataclass(frozen=True)
class IntervalGraphFamily:
    """Vertex reduction of the continuum Laplacian on unit-interval edges.

    lambda_E = -sqrt(E)/sin(sqrt(E)), mu_E = sqrt(E) cot(sqrt(E)), so that
    (omega - mu_E)/lambda_E = cos sqrt(E) - (sin sqrt(E)/sqrt(E)) omega.
    Domain: E > 0 away from the excluded set {(k pi)^2 : k >= 1} where
    sin sqrt(E) vanishes.
    """

    def _root(self, energy: float) -> float:
        energy = float(energy)
        if not energy > 0:
            raise DomainError("energy must be positive")
        s = math.sqrt(energy)
        k = max(1, round(s / math.pi))
        for kk in range(max(1, k - 1), k + 2):
            lo, hi = _pole_band(kk)
            if lo < energy < hi:
                raise DomainError(
                    "energy within excluded band around {(k pi)^2: k >= 1}"
                )
        return s

    def lambda_at(self, energy: float) -> float:
        s = self._root(energy)
        return -s / math.sin(s)

    def mu_at(self, energy: float) -> float:
        s = self._root(energy)
        return s * math.cos(s) / math.sin(s)


# ---------------------------------------------------------------------------
# the tridiagonal box operator


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Symmetric tridiagonal operator on {1..L}: diag V(1..L), offdiag a(2..L)."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.ascontiguousarray(self.diag, dtype=np.float64)
        a = np.ascontiguousarray(self.offdiag, dtype=np.float64)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("diagonal must be a nonempty vector")
        if a.shape != (d.size - 1,):
            raise ValueError("offdiag length must be size - 1")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(a))):
            raise ValueError("operator entries must be finite")
        d.flags.writeable = False
        a.flags.writeable = False
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", a)

    @property
    def size(self) -> int:
        return self.diag.size

    def gershgorin(self) -> tuple[float, float]:
        """Interval certainly containing the spectrum (Dirichlet box)."""
        r = np.zeros(self.size)
        absa = np.abs(self.offdiag)
        r[1:] += absa
        r[:-1] += absa
        return float(np.min(self.diag - r)), float(np.max(self.diag + r))

    def norm_bound(self) -> float:
        lo, hi = self.gershgorin()
        return max(abs(lo), abs(hi), np.finfo(float).tiny)

    def to_dense(self) -> np.ndarray:
        h = np.diag(self.diag)
        idx = np.arange(self.size - 1)
        h[idx, idx + 1] = self.offdiag
        h[idx + 1, idx] = self.offdiag
        return h

    def sub_box(self, i: int, j: int) -> "TridiagonalOperator":
        """Dirichlet restriction to sites {i..j}, 1-based inclusive."""
        if not 1 <= i <= j <= self.size:
            raise ValueError("need 1 <= i <= j <= L")
        return TridiagonalOperator(self.diag[i - 1 : j], self.offdiag[i - 1 : j - 1])

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        out = self.diag * v
        out[:-1] += self.offdiag * v[1:]
        out[1:] += self.offdiag * v[:-1]
        return out


# ---------------------------------------------------------------------------
# ensemble specification and draws


def _default_law(kind: str) -> UniformLaw:
    return UniformLaw(1.0, 2.0) if kind == "hopping" else UniformLaw(0.0, 1.0)


@dataclass(frozen=True)
class EnsembleSpec:
    """Which ensemble to draw from, plus its law and alloy profile."""

    kind: str
    law: UniformLaw | PiecewiseLinearLaw | None = None
    profile: FiniteProfile | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.law is None:
            object.__setattr__(self, "law", _default_law(self.kind))
        lo, hi = self.law.support
        if self.kind == "hopping" and not (1.0 <= lo and hi <= 2.0):
            raise ValueError("hopping law must have support within [1, 2]")
        if self.kind == "qgraph" and lo < 0.0:
            raise ValueError("qgraph coupling law must be supported on [0, inf)")
        if self.kind == "alloy":
            if not isinstance(self.profile, FiniteProfile):
                raise ValueError("alloy ensemble requires a FiniteProfile")
        elif self.profile is not None:
            raise ValueError("profile is only meaningful for the alloy ensemble")


def draw_width(spec: EnsembleSpec, size: int) -> int:
    """Number of scalar random variables behind one draw on {1..size}: the
    alloy reads omega on {1-r..size+r}, r the profile radius."""
    if size < 1:
        raise ValueError("need size >= 1")
    if spec.kind == "alloy":
        return size + 2 * spec.profile.radius
    if spec.kind == "dimer_sign":
        return size // 2 + 1
    return size


def coefficients(
    spec: EnsembleSpec, size: int, omega: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map law-transformed draws (batch, width) to (diag, offdiag) arrays.

    diag has shape (batch, size) and offdiag (size - 1,), except for the
    hopping ensemble: its zero diag is one row, (1, size), that every draw
    reads, and its offdiag is (batch, size - 1). Both are C-contiguous. For
    anderson and qgraph the returned diag is the fresh omega itself, not a
    copy (omega is made a C-contiguous float array first, which copies
    nothing when it is one); every other array is one of its own.
    """
    omega = np.ascontiguousarray(omega, dtype=np.float64)
    if omega.ndim != 2 or omega.shape[1] != draw_width(spec, size):
        raise ValueError("omega must have shape (batch, draw_width)")
    batch = omega.shape[0]
    if spec.kind == "hopping":
        return np.zeros((1, size)), omega[:, 1:].copy()
    if spec.kind == "anderson":
        return omega, np.ones(size - 1)
    if spec.kind == "qgraph":
        return omega, -np.ones(size - 1)
    if spec.kind == "dimer_sign":
        n = np.arange(1, size + 1)
        sign = np.where(n % 2 == 0, 1.0, -1.0)
        return sign * omega.take(n // 2, axis=1), np.ones(size - 1)
    # alloy: column j of omega is site j + 1 - r, so V(m) = sum_k values[k] omega(m + k - r)
    diag = np.zeros((batch, size))
    for k, d in enumerate(spec.profile.values):
        if d != 0.0:
            diag += d * omega[:, k : k + size]
    return diag, np.ones(size - 1)


def draw_block(
    spec: EnsembleSpec,
    size: int,
    seed: int,
    block: int,
    rows: int,
    stream: int = _blocks.STREAM_PRIMARY,
) -> tuple[np.ndarray, np.ndarray]:
    """(diag, offdiag) of one RNG block's first `rows` draws: the block's
    uniforms, mapped by the law, then by `coefficients`. A uniform law's map
    is drawn with the uniforms, the bits of its `transform`."""
    width = draw_width(spec, size)
    law = spec.law
    if isinstance(law, UniformLaw):
        omega = _blocks.uniform_block(seed, block, rows, width, stream, lo=law.lo, hi=law.hi)
    else:
        omega = law.transform(_blocks.uniform_block(seed, block, rows, width, stream))
    return coefficients(spec, size, omega)


def _reduce_block(fn, spec, size, seed, total, streams, block):
    width = draw_width(spec, size)
    rows = _blocks.block_rows(total, width, block)
    draws = [draw_block(spec, size, seed, block, rows, stream) for stream in streams]
    return fn(block * _blocks.block_size(width), *draws)


def map_draws(fn, spec, size, seed, total, workers, streams=(_blocks.STREAM_PRIMARY,)):
    """[fn(first, *draws)] over the blocks of the first `total` draws, in
    block order: `first` is the block's first draw index and `draws` holds
    one `draw_block` (diag, offdiag) pair per stream. `fn` must pickle (a
    module-level function or a partial of one) when workers > 1."""
    blocks = _blocks.n_blocks(total, draw_width(spec, size))
    job = partial(_reduce_block, fn, spec, size, seed, total, streams)
    return _blocks.map_blocks(job, blocks, workers)


def _one_row(x):
    """Whether coefficient array x is one row, (L,) or (1, ..., 1, L), that
    every draw reads. The (rows, 0) couplings of L = 1 are rows, not one."""
    return math.prod(x.shape[:-1]) == 1


def make_draw(
    spec: EnsembleSpec,
    size: int,
    seed: int,
    index: int,
    stream: int = _blocks.STREAM_PRIMARY,
) -> TridiagonalOperator:
    """Box operator of draw `index` of the run keyed by `seed`: row
    index % B of `draw_block`'s block index // B, B = block_size(draw_width),
    bit for bit the row the probes sweep."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    block, row = divmod(index, _blocks.block_size(draw_width(spec, size)))
    # copies, so that the operator does not keep the block's other rows alive
    return TridiagonalOperator(*((x if _one_row(x) else x[row]).reshape(-1).copy()
                                 for x in draw_block(spec, size, seed, block, row + 1, stream)))
