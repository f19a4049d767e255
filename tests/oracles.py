"""Closed forms the tests check the library against, built independently of it.

- `free_laplacian_ids`: the exact IDS of the free operator, for the IDS
  estimator (ACCEPT-02 and the unit tests).
- `c_factor` and `m_matrix`: the dense vertex matrix of the chain graph,
  for the reduction identity c(E) R(E) = M(E) - A_omega (ACCEPT-14).
- `free_graph_eigenvalues`: the analytic roots of the uncoupled chain, for
  the root scan.
"""

import math

import numpy as np

from randspec import IntervalGraphFamily, QGraphInstance


def free_laplacian_ids(e):
    """Exact IDS of the free operator (V = 0, a = 1): spectrum [-2, 2]."""
    x = np.clip(np.asarray(e, dtype=np.float64) / 2.0, -1.0, 1.0)
    return 1.0 - np.arccos(x) / math.pi


def c_factor(energy: float) -> float:
    """c(E) = sqrt(E)/sin(sqrt(E)) = -lambda_E, the vertex-reduction scale factor."""
    return -IntervalGraphFamily().lambda_at(energy)


def m_matrix(inst: QGraphInstance, energy: float) -> np.ndarray:
    """Dense M(E) - A_omega built from the closed form
    c(E) (-Delta + cos(sqrt E) I) - diag(omega); independent of
    reduced_operator, for cross-checking c(E) R(E) = M(E) - A_omega."""
    c = c_factor(energy)
    s = math.sqrt(float(energy))
    size = inst.size
    m = np.zeros((size, size))
    idx = np.arange(size - 1)
    m[idx, idx + 1] = -c
    m[idx + 1, idx] = -c
    m[np.arange(size), np.arange(size)] = c * math.cos(s) - inst.omega
    return m


def free_graph_eigenvalues(size: int, window) -> np.ndarray:
    """Analytic roots for omega = 0: cos sqrt(E) = 2 cos(k pi / (L+1)).

    Valid on windows inside (0, pi^2); each admissible k with
    |2 cos(k pi/(L+1))| < 1 contributes the single root arccos(...)^2.
    """
    lo, hi = float(window[0]), float(window[1])
    if not 0.0 < lo < hi <= math.pi**2:
        raise ValueError("analytic form implemented on (0, pi^2] windows only")
    out = []
    for k in range(1, size + 1):
        target = 2.0 * math.cos(k * math.pi / (size + 1))
        if abs(target) < 1.0:
            e = math.acos(target) ** 2
            if lo < e <= hi:
                out.append(e)
    return np.array(sorted(out))
