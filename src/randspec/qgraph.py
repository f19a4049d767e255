"""Vertex reduction of a chain metric graph with random delta couplings.

A chain of L unit-interval edges with delta couplings omega_v >= 0 at the
vertices has eigenvalue E (away from the excluded set {(k pi)^2}) exactly
when the reduced discrete operator

    R(E) = -Delta + V_omega(E),   V_omega(E)(n) = cos sqrt(E)
                                      - (sin sqrt(E)/sqrt(E)) omega_n

is singular. The dense vertex matrix satisfies
M(E) - A_omega = c(E) R(E) with c(E) = sqrt(E)/sin(sqrt(E)); the tests build
M(E) independently and cross-check the identity.

Graph eigenvalues in a window are found by scanning the negative-eigenvalue
count of R(E), bisecting each sign change, and certifying each root by the
secular value g(E) = eigenvalue of R(E) nearest zero.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import eigensolve
from .operators import DomainError, IntervalGraphFamily, TridiagonalOperator, _pole_band


@dataclass(frozen=True, eq=False)
class QGraphInstance:
    """One realization of the vertex couplings omega(1..L), omega >= 0."""

    omega: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.omega, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("omega must be a nonempty vector")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("couplings must be finite and nonnegative")
        w.flags.writeable = False
        object.__setattr__(self, "omega", w)

    @property
    def size(self) -> int:
        return self.omega.size


def reduced_operator(inst: QGraphInstance, energy: float) -> TridiagonalOperator:
    """R(E) = -Delta + V_omega(E) as a tridiagonal box operator."""
    fam = IntervalGraphFamily()
    lam = fam.lambda_at(energy)
    mu = fam.mu_at(energy)
    diag = (inst.omega - mu) / lam
    return TridiagonalOperator(diag, -np.ones(inst.size - 1))


def _secular_value(inst: QGraphInstance, energy: float) -> float:
    """g(E): the eigenvalue of R(E) nearest zero (signed)."""
    below, above = eigensolve.nearest_eigenvalues(reduced_operator(inst, energy), 0.0)
    return below if -below < above else above


def _potential_lipschitz(inst: QGraphInstance, energy_min: float) -> float:
    """Upper bound for sup_n |d V_omega(E)(n) / dE| on [energy_min, inf).

    |d cos sqrt(E)/dE| <= min(1/2, 1/(2 sqrt(E))) and the coupling term is
    bounded by max(omega) * min(1/6, (sqrt(E)+1)/(2 E^{3/2})).
    """
    if energy_min <= 0:
        raise ValueError("need energy_min > 0")
    s = math.sqrt(energy_min)
    d_cos = min(0.5, 1.0 / (2.0 * s))
    d_sinc = min(1.0 / 6.0, (s + 1.0) / (2.0 * energy_min * s))
    return d_cos + float(np.max(inst.omega)) * d_sinc


def _pole_free_segments(window):
    lo, hi = float(window[0]), float(window[1])
    if not 0.0 < lo < hi < math.inf:
        raise DomainError("window must satisfy 0 < lo < hi < inf")
    cuts = [(lo, hi)]
    for k in itertools.count(1):
        band_lo, band_hi = _pole_band(k)
        if band_lo >= hi:
            break
        nxt = []
        for a, b in cuts:
            if band_hi <= a or band_lo >= b:
                nxt.append((a, b))
                continue
            if a < band_lo:
                nxt.append((a, band_lo))
            if band_hi < b:
                nxt.append((band_hi, b))
        cuts = nxt
    return [(a, b) for a, b in cuts if b > a]


def graph_eigenvalues(inst: QGraphInstance, window, tol: float = 1e-10) -> np.ndarray:
    """Certified graph eigenvalues in the window, sorted.

    Scans the negative-count of R(E) on pole-free segments with a
    Lipschitz-safe exclusion test (a cell [x0, x1] with
    min(|g(x0)|, |g(x1)|) > lip * (x1 - x0) holds no root), splits cells
    with multiple sign changes, and bisects each single change to width tol.
    Tangential (non-crossing) near-roots below resolution are dropped with a
    warning. A root whose secular value |g(E)| exceeds the certification
    tolerance raises RuntimeError.
    """
    roots: list[float] = []
    for seg_lo, seg_hi in _pole_free_segments(window):
        lip = 1.25 * _potential_lipschitz(inst, seg_lo)
        cert_tol = 16.0 * max(1.0, lip) * max(tol, 1e-14)
        n_init = int(min(4096, max(8, math.ceil((seg_hi - seg_lo) * lip / 0.25))))
        xs = np.linspace(seg_lo, seg_hi, n_init + 1)

        counts: dict[float, int] = {}

        def n_neg(e):
            """#{negative eigenvalues of R(e)}, swept once per energy."""
            if e not in counts:
                counts[e] = eigensolve.sturm_count(reduced_operator(inst, e), 0.0)
            return counts[e]

        def certify(energy):
            resid = abs(_secular_value(inst, energy))
            if resid > cert_tol:
                raise RuntimeError(
                    f"root at E = {energy:.12g} failed certification "
                    f"(|g| = {resid:.3e} > {cert_tol:.3e})"
                )

        stack = [(float(xs[i]), float(xs[i + 1])) for i in range(n_init)]
        gvals: dict[float, float] = {}

        def g_at(e):
            if e not in gvals:
                gvals[e] = _secular_value(inst, e)
            return gvals[e]

        while stack:
            x0, x1 = stack.pop()
            c0, c1 = n_neg(x0), n_neg(x1)
            width = x1 - x0
            jump = c1 - c0
            if jump == 0 and min(abs(g_at(x0)), abs(g_at(x1))) > lip * width:
                continue
            if width <= tol:
                if jump == 0:
                    if abs(g_at(0.5 * (x0 + x1))) <= lip * tol:
                        warnings.warn(
                            "possible tangential root below resolution near "
                            f"E = {0.5 * (x0 + x1):.12g}; dropped",
                            stacklevel=2,
                        )
                    continue
                e_mid = 0.5 * (x0 + x1)
                certify(e_mid)
                roots += [e_mid] * abs(jump)
                continue
            if abs(jump) == 1:
                lo_b, hi_b = x0, x1
                while hi_b - lo_b > tol:
                    mid = 0.5 * (lo_b + hi_b)
                    if n_neg(mid) == c0:
                        lo_b = mid
                    else:
                        hi_b = mid
                e_root = 0.5 * (lo_b + hi_b)
                certify(e_root)
                roots.append(e_root)
            else:
                mid = 0.5 * (x0 + x1)
                stack.append((x0, mid))
                stack.append((mid, x1))
    return np.array(sorted(roots))

