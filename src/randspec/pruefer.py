"""Prufer coordinates, Wronskian identities, and eigenvalue gradients.

For a Dirichlet eigenvector u on {1..L} (with u(0) = u(L+1) = 0), the Prufer
coordinates of the state U(n) = (u(n), u(n-1)) for n = 1..L+1 are
r(n) = |U(n)| and phi(n) = atan2(u(n), u(n-1)) in [0, 2pi). Cross products of
two traces give exact sine differences:
r_u(n) r_v(n) sin(phi_u(n) - phi_v(n)) = u(n)v(n-1) - u(n-1)v(n).

The Wronskian W(n) = a(n)[u(n)v(n-1) - u(n-1)v(n)] of two eigenpairs obeys
W(n+1) = W(n) + (E_u - E_v) u(n) v(n), vanishes at both ends, and is bounded
by the energy split times the coupling factor M = max(max|a|, 1/min|a|).

Gradients: dE_j/dV(n) = phi_j(n)^2 (scaled by the spectral family's lambda),
dE_j/da(k) = 2 phi_j(k) phi_j(k-1), and the radial combination
a(k+1) dE/da(k+1) + a(k) dE/da(k) = 2 (E_j - V(k)) phi_j(k)^2.

Site indices and eigenvalue indices are 1-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import eigensolve
from .operators import EnsembleSpec, IntervalGraphFamily, TridiagonalOperator

RESIDUAL_TOL = 1e-8  # relative eigenpair certification threshold


@dataclass(frozen=True, eq=False)
class PrueferTrace:
    """Radial and angular coordinates of one eigenvector, n = 1..L+1."""

    energy: float
    radii: np.ndarray
    angles: np.ndarray
    vector: np.ndarray

    def sine_magnitudes(self) -> np.ndarray:
        """|sin phi(n)| = |u(n)| / r(n), exact (no trig round trip)."""
        pad_n = np.concatenate([self.vector, [0.0]])
        return np.abs(pad_n) / self.radii


def pruefer_trace(
    op: TridiagonalOperator, energy: float, vector: np.ndarray
) -> PrueferTrace:
    """Prufer coordinates of a residual-certified eigenpair.

    Requires ||H u - E u|| <= 1e-8 ||H|| ||u|| and that no two consecutive
    entries (u(n), u(n-1)) vanish together (true for genuine eigenvectors).
    """
    u = np.asarray(vector, dtype=np.float64)
    if u.shape != (op.size,):
        raise ValueError("vector length must match the operator size")
    norm_u = float(np.linalg.norm(u))
    if norm_u == 0.0:
        raise ValueError("zero vector")
    resid = float(np.linalg.norm(op.apply(u) - energy * u))
    if resid > RESIDUAL_TOL * op.norm_bound() * norm_u:
        raise ValueError(
            f"not an eigenpair: residual {resid:.3e} exceeds certification"
        )
    u_n = np.concatenate([u, [0.0]])
    u_prev = np.concatenate([[0.0], u])
    radii = np.hypot(u_n, u_prev)
    if np.any(radii == 0.0):
        raise ValueError("consecutive zero pair; Prufer angle undefined")
    angles = np.mod(np.arctan2(u_n, u_prev), 2.0 * math.pi)
    return PrueferTrace(float(energy), radii, angles, u)


def consecutive_sine_floor(trace: PrueferTrace) -> float:
    """min_n max(|sin phi(n)|, |sin phi(n+1)|): positive when no two
    consecutive Prufer sines vanish together."""
    s = trace.sine_magnitudes()
    return float(np.min(np.maximum(s[:-1], s[1:])))


# ---------------------------------------------------------------------------
# Wronskian of two eigenpairs


@dataclass(frozen=True, eq=False)
class WronskianResult:
    """W(1..L+1) plus the worst deviation from the telescoping recursion.

    `max_violation` checks W(n+1) - W(n) = (E_u - E_v) u(n) v(n); it is the
    detector for vectors that do not come from the same operator.
    `sine_product_max` is max_n |u(n)v(n-1) - u(n-1)v(n)| =
    max_n r_u r_v |sin(phi_u - phi_v)| and `sine_product_bound` its a priori
    bound M |E_u - E_v| ||u|| ||v||.
    """

    values: np.ndarray
    max_violation: float
    sine_product_max: float
    sine_product_bound: float
    coupling_factor: float


def wronskian_sequence(
    u: np.ndarray,
    v: np.ndarray,
    couplings: np.ndarray,
    energy_u: float,
    energy_v: float,
) -> WronskianResult:
    """Wronskian W(n) = a(n)[u(n)v(n-1) - u(n-1)v(n)] for n = 1..L+1.

    `couplings` holds a(2..L); the out-of-box a(1), a(L+1) multiply zeros and
    are taken as 1. W(1) = W(L+1) = 0 exactly for Dirichlet vectors.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    a = np.asarray(couplings, dtype=np.float64)
    size = u.size
    if v.shape != (size,) or a.shape != (size - 1,):
        raise ValueError("need len(v) == len(u) and len(couplings) == len(u) - 1")
    u_pad = np.concatenate([[0.0], u, [0.0]])  # u(0..L+1)
    v_pad = np.concatenate([[0.0], v, [0.0]])
    cross = u_pad[1:] * v_pad[:-1] - u_pad[:-1] * v_pad[1:]  # index n-1 holds n
    a_full = np.concatenate([[1.0], a, [1.0]])  # a(1..L+1)
    w = a_full * cross
    de = float(energy_u) - float(energy_v)
    resid = w[1:] - w[:-1] - de * u * v
    min_a = float(np.min(np.abs(a))) if a.size else 1.0
    max_a = float(np.max(np.abs(a))) if a.size else 1.0
    factor = max(1.0, max_a, 1.0 / min_a if min_a > 0 else math.inf)
    bound = factor * abs(de) * float(np.linalg.norm(u)) * float(np.linalg.norm(v))
    return WronskianResult(
        w,
        float(np.max(np.abs(resid))),
        float(np.max(np.abs(cross))),
        bound,
        factor,
    )


# ---------------------------------------------------------------------------
# split-box search for near-degenerate pairs


@dataclass(frozen=True)
class SplitResult:
    """Best admissible split (x_minus, x_plus) and its sub-box distances.

    d_left is the distance from the target energy to the spectrum of the
    restriction to {1..x_minus}; d_right to that of {x_plus..L}. `achieved`
    is max(d_left, d_right) and `meets_target` compares it to the requested
    threshold. Sites are 1-based.
    """

    x_minus: int
    x_plus: int
    d_left: float
    d_right: float
    achieved: float
    meets_target: bool
    window_count: int


def split_box_search(
    op: TridiagonalOperator,
    energy: float,
    epsilon: float,
    separation: int,
    delta_target: float,
) -> SplitResult:
    """Split {1..L} into sub-boxes both nearly resonant with `energy`.

    Requires at least two eigenvalues in (energy - epsilon, energy + epsilon].
    Minimizes max(d_left(x_minus), d_right(x_plus)) exactly over all pairs
    with x_plus - x_minus >= separation: the two distance arrays depend on
    one endpoint each, so a suffix-minimum sweep evaluates every admissible
    pair at O(L) eigensolves, each sub-box distance bisected to width
    1e-13 * op.norm_bound().
    """
    size = op.size
    if separation < 1 or separation >= size:
        raise ValueError("need 1 <= separation < L")
    n_win = eigensolve.count_in_interval(op, energy - epsilon, energy + epsilon)
    if n_win < 2:
        raise ValueError(
            f"window holds {n_win} eigenvalue(s); need >= 2 for a resonant split"
        )
    tol = 1e-13 * op.norm_bound()
    xs = np.arange(1, size - separation + 1)
    ys = np.arange(1 + separation, size + 1)
    d_left = np.array(
        [
            eigensolve.nearest_eigenvalue_distance(op.sub_box(1, int(x)), energy, tol)
            for x in xs
        ]
    )
    d_right = np.array(
        [
            eigensolve.nearest_eigenvalue_distance(op.sub_box(int(y), size), energy, tol)
            for y in ys
        ]
    )
    # suf_arg[i]: the first index of the minimum of d_right[i:], from one
    # right-to-left pass; x = xs[i] pairs with y >= x + separation = ys[i]
    suf_arg = np.empty(ys.size, dtype=np.int64)
    best = ys.size - 1
    for i in range(ys.size - 1, -1, -1):
        if d_right[i] <= d_right[best]:
            best = i
        suf_arg[i] = best
    cand = np.maximum(d_left, d_right[suf_arg])
    i_best = int(np.argmin(cand))
    x_minus = int(xs[i_best])
    y_index = int(suf_arg[i_best])
    x_plus = int(ys[y_index])
    dl = float(d_left[i_best])
    dr = float(d_right[y_index])
    achieved = max(dl, dr)
    return SplitResult(
        x_minus, x_plus, dl, dr, achieved, achieved <= delta_target, n_win
    )


# ---------------------------------------------------------------------------
# eigenvalue gradients (analytic vs finite difference)


@dataclass(frozen=True)
class GradientCheck:
    """Analytic derivative vs central finite difference for one direction."""

    analytic: float
    rel_err: float
    energy: float
    gap: float
    radial_residual: float


def _dense_pair(op: TridiagonalOperator, j: int):
    vals, vecs = np.linalg.eigh(op.to_dense())
    if not 1 <= j <= op.size:
        raise ValueError("eigenvalue index out of range (1-based)")
    gap = math.inf
    if j >= 2:
        gap = min(gap, vals[j - 1] - vals[j - 2])
    if j < op.size:
        gap = min(gap, vals[j] - vals[j - 1])
    return vals, vecs, float(gap)


def _perturbed_value(op: TridiagonalOperator, pert, t: float, j: int) -> float:
    what, site, scale = pert
    diag = op.diag.copy()
    off = op.offdiag.copy()
    if what == "diagonal":
        diag[site - 1] += scale * t
    else:
        off[site - 2] += scale * t
    return float(np.linalg.eigvalsh(TridiagonalOperator(diag, off).to_dense())[j - 1])


def _radial_residual(op, energy, phi, site):
    size = op.size
    left = 0.0
    if site >= 2:
        left += op.offdiag[site - 2] * 2.0 * phi[site - 1] * phi[site - 2]
    if site <= size - 1:
        left += op.offdiag[site - 1] * 2.0 * phi[site] * phi[site - 1]
    right = 2.0 * (energy - op.diag[site - 1]) * phi[site - 1] ** 2
    return abs(left - right)


def hellmann_feynman_check(
    spec: EnsembleSpec,
    op: TridiagonalOperator,
    j: int,
    perturbation: tuple[str, int],
) -> GradientCheck:
    """First-order eigenvalue response along one matrix direction.

    perturbation = ("diagonal", n): the physical variable omega_n moves the
    diagonal entry V(n) with slope lambda, so the analytic derivative is
    lambda * phi_j(n)^2. lambda is the interval-graph family's lambda at E_j
    for qgraph (DomainError where E_j <= 0 or at a pole) and 1 otherwise.
    perturbation = ("coupling", k): direction a(k), k in 2..L; analytic
    derivative 2 phi_j(k) phi_j(k-1). The radial combination
    a(k+1) dE/da(k+1) + a(k) dE/da(k) - 2 (E_j - V(k)) phi_j(k)^2 is reported
    as radial_residual at the perturbed site.

    The numeric side is a central difference of step 1e-5 max(1, ||H||),
    refined once by Richardson extrapolation when the first pass disagrees by
    more than 1e-4. Requires E_j simple: gap above 1e-9 ||H||.
    """
    what, site = perturbation
    if what not in ("diagonal", "coupling"):
        raise ValueError("perturbation must be ('diagonal', n) or ('coupling', k)")
    size = op.size
    if what == "diagonal" and not 1 <= site <= size:
        raise ValueError("diagonal site out of range")
    if what == "coupling" and not 2 <= site <= size:
        raise ValueError("coupling index out of range (a(2)..a(L))")
    scale = op.norm_bound()
    vals, vecs, gap = _dense_pair(op, j)
    if gap <= 1e-9 * scale:
        raise ValueError(f"eigenvalue {j} is near-degenerate (gap {gap:.3e})")
    energy = float(vals[j - 1])
    phi = vecs[:, j - 1]
    if what == "diagonal":
        lam = IntervalGraphFamily().lambda_at(energy) if spec.kind == "qgraph" else 1.0
        analytic = lam * phi[site - 1] ** 2
        pert = ("diagonal", site, lam)
    else:
        analytic = 2.0 * phi[site - 1] * phi[site - 2]
        pert = ("coupling", site, 1.0)
    radial = _radial_residual(op, energy, phi, site)
    step = 1e-5 * max(1.0, scale)
    d1 = (
        _perturbed_value(op, pert, step, j) - _perturbed_value(op, pert, -step, j)
    ) / (2.0 * step)
    denom = max(abs(analytic), abs(d1), 1e-300)
    rel = abs(analytic - d1) / denom
    if rel > 1e-4:
        d2 = (
            _perturbed_value(op, pert, step / 2.0, j)
            - _perturbed_value(op, pert, -step / 2.0, j)
        ) / step
        numeric = (4.0 * d2 - d1) / 3.0
        denom = max(abs(analytic), abs(numeric), 1e-300)
        rel = abs(analytic - numeric) / denom
    return GradientCheck(float(analytic), float(rel), energy, gap, float(radial))
