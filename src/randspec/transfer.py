"""Transfer matrices, trace classification, and Lyapunov exponents.

One-step matrices propagate eigenvector pairs (u(n+1), u(n)); the sign-mirror
ensemble has a closed-form two-step matrix per omega pair with determinant 1.
Trace classification follows the SL(2, R) trichotomy: |tr| > 2 hyperbolic,
|tr| = 2 parabolic, |tr| < 2 elliptic.

Lyapunov exponents are estimated with per-step renormalization over
independent replicas; the confidence interval comes from the replica spread
and the reported rate is log-growth per lattice step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _blocks
from .operators import EnsembleSpec

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def _one_step(potential: float, energy: float) -> np.ndarray:
    """Step for -u(n+1) - u(n-1) + V u(n) = E u(n): [[V - E, -1], [1, 0]]."""
    return np.array([[potential - energy, -1.0], [1.0, 0.0]])


def _dimer_two_step(omega: float, energy: float) -> np.ndarray:
    """Two-step matrix across one sign-mirrored pair (-omega then +omega).

    [[1 + omega^2 - E^2, omega - E], [omega + E, 1]]; det = 1 exactly.
    """
    w, e = float(omega), float(energy)
    return np.array([[1.0 + w * w - e * e, w - e], [w + e, 1.0]])


def _classify_trace(trace: float) -> str:
    t = abs(float(trace))
    if t > 2.0:
        return "hyperbolic"
    if t == 2.0:
        return "parabolic"
    return "elliptic"


@dataclass(frozen=True)
class EllipticityReport:
    """Traces and trace-classes of the marker matrices A, A^2, B, B^2, C_delta.

    A, B, C_delta are the sign-mirrored two-step matrices at omega = 0, 1,
    delta, here constructed numerically as negated products of one-step
    matrices. `max_formula_error` is the worst disagreement with the
    closed-form polynomials tr A = 2 - E^2, tr A^2 = (2 - E^2)^2 - 2,
    tr B = 3 - E^2, tr B^2 = (3 - E^2)^2 - 2, tr C_delta = 2 + delta^2 - E^2,
    including the entrywise gap between the products and the closed-form
    two-step matrices.
    """

    energy: float
    delta: float
    traces: dict
    max_formula_error: float
    classes: dict


def ellipticity_report(energy: float, delta: float = 0.5) -> EllipticityReport:
    e = float(energy)
    d = float(delta)
    if not 0.0 < d < 1.0:
        raise ValueError("need delta in (0, 1)")

    def pair(w):
        # -(T(+w) @ T(-w)): one step across -w then +w, negated so the
        # trace carries the 2 - E^2 sign convention.
        return -(_one_step(w, e) @ _one_step(-w, e))

    prods = {"A": pair(0.0), "B": pair(1.0), "C_delta": pair(d)}
    entry_err = max(
        float(np.max(np.abs(prods[k] - _dimer_two_step(w, e))))
        for k, w in (("A", 0.0), ("B", 1.0), ("C_delta", d))
    )
    a, b, c = prods["A"], prods["B"], prods["C_delta"]
    traces = {
        "A": float(np.trace(a)),
        "A2": float(np.trace(a @ a)),
        "B": float(np.trace(b)),
        "B2": float(np.trace(b @ b)),
        "C_delta": float(np.trace(c)),
    }
    formulas = {
        "A": 2.0 - e * e,
        "A2": (2.0 - e * e) ** 2 - 2.0,
        "B": 3.0 - e * e,
        "B2": (3.0 - e * e) ** 2 - 2.0,
        "C_delta": 2.0 + d * d - e * e,
    }
    err = max(abs(traces[k] - formulas[k]) for k in traces)
    classes = {k: _classify_trace(v) for k, v in traces.items()}
    return EllipticityReport(e, d, traces, max(err, entry_err), classes)


# ---------------------------------------------------------------------------
# Lyapunov exponents

# Uniform draws per chunk of the product: a chunk runs max(1, _CHUNK //
# samples) steps, so its arrays stay near this size at any step count.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class LyapunovEstimate:
    """Estimated log-growth rate per lattice step with replica-based CI."""

    gamma: float
    stderr: float
    ci99: tuple[float, float]
    steps: int
    samples: int
    seed: int


# Step-matrix entries m00, m01, m10, m11 from a block x of law samples,
# carry + k rows of them for k steps; each is a scalar or a (k, samples) array.


def _dimer_entries(w, e, profile):
    return 1.0 + w * w - e * e, w - e, w + e, 1.0


def _anderson_entries(v, e, profile):
    return v - e, -1.0, 1.0, 0.0


def _hopping_entries(a, e, profile):
    return e / a[1:], -a[:-1] / a[1:], 1.0, 0.0


def _alloy_entries(x, e, profile):
    # Step i sees rows i..i+width-1 and draws row i+width for the next step.
    # Each window is copied to a C-ordered (samples, width) block, so its
    # matmul is that of a (samples, width) buffer shifted once per step.
    windows = np.lib.stride_tricks.sliding_window_view(x[:-1], profile.size, axis=0)
    return _anderson_entries(np.ascontiguousarray(windows) @ profile, e, profile)


_STEP_TABLE = {
    "dimer_sign": _dimer_entries,
    "anderson": _anderson_entries,
    "hopping": _hopping_entries,
    "alloy": _alloy_entries,
}


def lyapunov(
    spec: EnsembleSpec,
    energy: float,
    steps: int = 10000,
    samples: int = 64,
    seed: int = 0,
) -> LyapunovEstimate:
    """Lyapunov exponent of the given ensemble at one energy.

    Supported kinds: dimer_sign (two-step matrices, 2 lattice sites per
    step), anderson, hopping, and alloy (one-step matrices). Uniforms are
    drawn a chunk of k steps at a time as rng.random((k, samples)), after
    the rows kept from the previous chunk: none for dimer_sign and anderson,
    one for hopping (a step reads two couplings), the profile's width for
    alloy. The first kept rows are drawn replica-major, as
    rng.random((samples, carry)).T. Replicas evolve independently with
    per-step renormalization; gamma is averaged per lattice site and the
    replica mean is merged with math.fsum. Requires steps >= 1000 and
    samples >= 2; a product that overflows raises ValueError.
    """
    e = float(energy)
    if not math.isfinite(e):
        raise ValueError(f"energy = {energy!r}: must be finite")
    if spec.kind not in _STEP_TABLE:
        raise NotImplementedError(f"lyapunov not implemented for kind {spec.kind!r}")
    entries = _STEP_TABLE[spec.kind]
    profile = None
    carry = 1 if spec.kind == "hopping" else 0
    if spec.kind == "alloy":
        profile = spec.profile.materialize(spec.margin)
        carry = profile.size
    if steps < 1000:
        raise ValueError("need steps >= 1000 for a stable estimate")
    if samples < 2:
        raise ValueError("need samples >= 2 for a spread-based CI")
    law = spec.law
    rng = _blocks.block_rng(seed, 0, stream=_blocks.STREAM_LYAPUNOV)
    u = rng.random((samples, carry)).T
    v = np.array([np.ones(samples), np.zeros(samples)])  # (u(n+1), u(n))
    acc = np.zeros(samples)
    chunk = max(1, _CHUNK // samples)
    for start in range(0, steps, chunk):
        k = min(chunk, steps - start)
        u = np.concatenate([u[len(u) - carry:], rng.random((k, samples))])
        m00, m01, m10, m11 = entries(law.transform(u), e, profile)
        # cols[i, c] is column c of step i's matrix: M v = c0 * v0 + c1 * v1
        cols = np.empty((k, 2, 2, samples))
        cols[:, 0, 0], cols[:, 0, 1], cols[:, 1, 0], cols[:, 1, 1] = m00, m10, m01, m11
        for col in cols:
            w = col[0] * v[0] + col[1] * v[1]
            nrm = np.hypot(w[0], w[1])
            if not nrm.all():
                raise ValueError("replica vanished; singular step matrix")
            acc += np.log(nrm)
            v = w / nrm
    if not np.isfinite(acc).all():  # a step's entries or the product overflowed
        raise ValueError(f"energy = {e!r}: the transfer-matrix product overflows")
    per = acc / (steps * (2 if spec.kind == "dimer_sign" else 1))
    gamma = math.fsum(per) / samples
    sd = float(np.std(per, ddof=1))
    se = sd / math.sqrt(samples)
    return LyapunovEstimate(
        gamma, se, (gamma - _Z99 * se, gamma + _Z99 * se), steps, samples, seed
    )
