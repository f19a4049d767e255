"""Transfer matrices, two-step ellipticity, and Lyapunov estimation."""

import math
import tracemalloc

import numpy as np
import pytest

from randspec import (
    EnsembleSpec,
    FiniteProfile,
    PiecewiseLinearLaw,
    UniformLaw,
    ellipticity_report,
    lyapunov,
    transfer,
)
from randspec.transfer import _classify_trace, _dimer_two_step, _one_step


# ---------------------------------------------------------------------------
# single steps


def test_one_step_entries_and_determinant():
    step = _one_step(0.3, 1.1)
    assert np.array_equal(step, [[0.3 - 1.1, -1.0], [1.0, 0.0]])
    assert np.linalg.det(step) == pytest.approx(1.0, rel=1e-14)


# ---------------------------------------------------------------------------
# two-step products


def test_dimer_two_step_is_negated_product():
    rng = np.random.default_rng(15)
    for _ in range(40):
        w = rng.uniform(-2, 2)
        e = rng.uniform(-3, 3)
        prod = -(_one_step(w, e) @ _one_step(-w, e))
        two = _dimer_two_step(w, e)
        assert np.max(np.abs(two - prod)) <= 1e-15
        assert abs(np.linalg.det(two) - 1.0) <= 1e-14


def test_classify_trace_trichotomy():
    assert _classify_trace(2.5) == "hyperbolic"
    assert _classify_trace(-2.5) == "hyperbolic"
    assert _classify_trace(2.0) == "parabolic"
    assert _classify_trace(-2.0) == "parabolic"
    assert _classify_trace(1.999) == "elliptic"
    assert _classify_trace(0.0) == "elliptic"


def test_ellipticity_report_formulas_and_classes():
    for e in (-2.5, -2.0, -1.5, -0.5, 0.0, 1.3):
        rep = ellipticity_report(e, delta=0.5)
        assert rep.max_formula_error <= 1e-12
        assert rep.traces["A"] == pytest.approx(2.0 - e * e, abs=1e-12)
        assert rep.traces["B"] == pytest.approx(3.0 - e * e, abs=1e-12)
        assert rep.traces["B2"] == pytest.approx((3.0 - e * e) ** 2 - 2.0, abs=1e-11)
        assert rep.traces["C_delta"] == pytest.approx(2.25 - e * e, abs=1e-12)
    # regime table for the two-step products
    assert ellipticity_report(-2.5).classes["A"] == "hyperbolic"
    deep = ellipticity_report(-2.0)
    assert deep.classes["A"] == "parabolic"
    assert deep.classes["B"] == "elliptic"
    assert deep.classes["B2"] == "elliptic"
    mid = ellipticity_report(-1.5)
    assert mid.classes["A"] == "elliptic"
    assert mid.classes["A2"] == "elliptic"
    assert mid.classes["B"] == "elliptic"
    zero = ellipticity_report(0.0)
    assert zero.classes["B"] == "hyperbolic"
    assert zero.classes["C_delta"] == "hyperbolic"
    with pytest.raises(ValueError):
        ellipticity_report(0.0, delta=0.0)
    with pytest.raises(ValueError):
        ellipticity_report(0.0, delta=1.0)


# ---------------------------------------------------------------------------
# Lyapunov exponents


def _constant_step(monkeypatch, kind, m00, m01, m10, m11):
    """Make every step of `kind` the same matrix [[m00, m01], [m10, m11]]."""
    monkeypatch.setitem(transfer._STEP_TABLE, kind, lambda x, e, profile: (m00, m01, m10, m11))


def test_lyapunov_constant_hyperbolic_product(monkeypatch):
    _constant_step(monkeypatch, "anderson", 2.5, -1.0, 1.0, 0.0)  # eigenvalues 2 and 1/2
    est = lyapunov(EnsembleSpec("anderson"), 0.0, steps=4000, samples=4)
    assert est.gamma == pytest.approx(math.log(2.0), abs=1e-2)
    assert est.stderr <= 1e-3
    assert est.steps == 4000 and est.samples == 4


def test_lyapunov_rotation_is_zero(monkeypatch):
    _constant_step(monkeypatch, "anderson", 0.0, -1.0, 1.0, 0.0)
    est = lyapunov(EnsembleSpec("anderson"), 0.0, steps=1000, samples=2)
    assert est.gamma == 0.0
    assert est.ci99 == (0.0, 0.0)


def test_lyapunov_validation(monkeypatch):
    spec = EnsembleSpec("anderson")
    with pytest.raises(ValueError):
        lyapunov(spec, 0.0, steps=999)
    with pytest.raises(ValueError):
        lyapunov(spec, 0.0, steps=1000, samples=1)
    _constant_step(monkeypatch, "anderson", 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="vanished"):
        lyapunov(spec, 0.0, steps=1000, samples=2)


def test_lyapunov_reproducible_and_seeded():
    spec = EnsembleSpec("anderson")
    a = lyapunov(spec, 0.0, steps=1000, samples=4, seed=3)
    b = lyapunov(spec, 0.0, steps=1000, samples=4, seed=3)
    c = lyapunov(spec, 0.0, steps=1000, samples=4, seed=4)
    assert a.gamma == b.gamma and a.stderr == b.stderr
    assert a.gamma != c.gamma


def test_lyapunov_anderson_weak_disorder():
    est = lyapunov(EnsembleSpec("anderson"), 0.0, steps=8000, samples=32, seed=1)
    assert 0.005 < est.gamma < 0.02
    assert est.ci99[0] > 0.0
    assert est.ci99[0] < est.gamma < est.ci99[1]


def test_lyapunov_dimer_counts_two_sites(monkeypatch):
    est = lyapunov(EnsembleSpec("dimer_sign"), -2.5, steps=2000, samples=8, seed=2)
    assert est.gamma > 0.0
    # a two-step matrix with eigenvalues 2 and 1/2 grows by log 2 per two sites
    _constant_step(monkeypatch, "dimer_sign", 2.5, -1.0, 1.0, 0.0)
    est = lyapunov(EnsembleSpec("dimer_sign"), 0.0, steps=4000, samples=4)
    assert est.gamma == pytest.approx(0.5 * math.log(2.0), abs=1e-2)


def test_lyapunov_hopping_runs():
    est = lyapunov(EnsembleSpec("hopping"), 3.8, steps=2000, samples=8, seed=5)
    assert math.isfinite(est.gamma)
    assert est.gamma > 0.0


def test_lyapunov_alloy_profiles():
    fin = EnsembleSpec(
        "alloy", profile=FiniteProfile((0.25, 1.0, 0.5)), margin=1
    )
    est = lyapunov(fin, 0.5, steps=1500, samples=4, seed=6)
    assert math.isfinite(est.gamma)


def test_lyapunov_qgraph_unsupported():
    with pytest.raises(NotImplementedError):
        lyapunov(EnsembleSpec("qgraph"), 4.0, steps=1500, samples=4)


@pytest.mark.parametrize("kind, law", [("anderson", UniformLaw(-1e308, 1e308)),
                                       ("dimer_sign", UniformLaw(0.0, 1e200))])
def test_lyapunov_names_an_overflowing_product(kind, law):
    # a step's entries or the renormalized product overflow: gamma would be NaN
    with pytest.raises(ValueError, match="energy = 0.0: the transfer-matrix product overflows"):
        lyapunov(EnsembleSpec(kind, law=law), 0.0, steps=1000, samples=2)


@pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
def test_lyapunov_rejects_non_finite_energy(energy):
    with pytest.raises(ValueError, match="energy"):
        lyapunov(EnsembleSpec("anderson"), energy, steps=1000, samples=2)


# Bits of (gamma, stderr, ci99) recorded from the step-by-step product that
# drew one row of uniforms per step; the chunked draws must keep every bit.
# Samples 64 run 1024 steps per chunk and samples 2 run 32768, so the cases
# cover products shorter than one chunk and ones ending mid-chunk, with the
# hopping and alloy draws carried across chunk boundaries.
_PW = PiecewiseLinearLaw((-1.0, 0.0, 2.0), (0.5, 2.0, 0.25))
_PW_HOP = PiecewiseLinearLaw((1.0, 1.25, 2.0), (2.0, 0.5, 1.0))
_ALLOY = dict(profile=FiniteProfile((0.25, 1.0, 0.5)), margin=1)
_ALLOY_WIDE = dict(profile=FiniteProfile((0.5, -0.25, 1.0, 0.75, 0.1)), margin=3)
_GOLDEN = {
    "anderson-uniform-1000x2": (
        (EnsembleSpec("anderson"), 0.3, 1000, 2, 1),
        ("0x1.81d4f68eebd5ap-7", "0x1.04cdee0a160dcp-10",
         "0x1.2ddbc21fcdb30p-7", "0x1.d5ce2afe09f84p-7"),
    ),
    "anderson-piecewise-2500x64": (
        (EnsembleSpec("anderson", law=_PW), -0.7, 2500, 64, 2),
        ("0x1.53e50d5b9fac0p-4", "0x1.89583b372f1e3p-11",
         "0x1.4bfaacc04cb76p-4", "0x1.5bcf6df6f2a0ap-4"),
    ),
    "dimer-uniform-1000x64": (
        (EnsembleSpec("dimer_sign"), -2.5, 1000, 64, 3),
        ("0x1.481fec61d2d07p-1", "0x1.9dc3f354439dfp-13",
         "0x1.47dd4fc192aebp-1", "0x1.4862890212f23p-1"),
    ),
    "dimer-piecewise-2500x2": (
        (EnsembleSpec("dimer_sign", law=_PW), 0.4, 2500, 2, 4),
        ("0x1.098887f04a618p-3", "0x1.c7e16667eb0bfp-10",
         "0x1.005bfd8f636c6p-3", "0x1.12b512513156ap-3"),
    ),
    "hopping-uniform-1000x64": (
        (EnsembleSpec("hopping"), 3.8, 1000, 64, 5),
        ("0x1.6cbb84555a63ep-1", "0x1.5b396d332295ep-10",
         "0x1.6afc5256ab7b3p-1", "0x1.6e7ab654094c9p-1"),
    ),
    "hopping-piecewise-2500x2": (
        (EnsembleSpec("hopping", law=_PW_HOP), 0.2, 2500, 2, 6),
        ("0x1.adcf097c60316p-6", "0x1.68adc648245f4p-9",
         "0x1.39ad8822f9e7bp-6", "0x1.10f8456ae33d8p-5"),
    ),
    "hopping-uniform-33000x2": (
        (EnsembleSpec("hopping"), 1.1, 33000, 2, 7),
        ("0x1.8157490d2920ep-6", "0x1.aa33d85a18800p-17",
         "0x1.80ce0ea73fe83p-6", "0x1.81e0837312599p-6"),
    ),
    "alloy-uniform-1000x2": (
        (EnsembleSpec("alloy", **_ALLOY), 0.5, 1000, 2, 8),
        ("0x1.0cde5f63e3ee2p-11", "0x1.b1d0d86b511a5p-10",
         "-0x1.eb80252bd2fc6p-9", "0x1.38f7aa6ee279bp-8"),
    ),
    "alloy-piecewise-2500x64": (
        (EnsembleSpec("alloy", law=_PW, **_ALLOY_WIDE), 1.2, 2500, 64, 9),
        ("0x1.57c6109f4a99ep-4", "0x1.71554b57c3487p-11",
         "0x1.505762efb8f10p-4", "0x1.5f34be4edc42cp-4"),
    ),
    "alloy-uniform-33000x2": (
        (EnsembleSpec("alloy", **_ALLOY_WIDE), -0.3, 33000, 2, 10),
        ("0x1.f2846beeecb2cp-6", "0x1.ecca1b8b664bfp-13",
         "0x1.e899bd0a014f5p-6", "0x1.fc6f1ad3d8163p-6"),
    ),
}


@pytest.mark.parametrize("name", list(_GOLDEN))
def test_lyapunov_golden_bits(name):
    (spec, energy, steps, samples, seed), want = _GOLDEN[name]
    est = lyapunov(spec, energy, steps=steps, samples=samples, seed=seed)
    got = (est.gamma.hex(), est.stderr.hex(), est.ci99[0].hex(), est.ci99[1].hex())
    assert got == want


@pytest.mark.parametrize("kind", ["hopping", "alloy"])
def test_lyapunov_memory_does_not_grow_with_steps(kind):
    spec = EnsembleSpec(kind, **(_ALLOY_WIDE if kind == "alloy" else {}))

    def peak(steps):
        tracemalloc.start()
        try:
            lyapunov(spec, 0.5, steps=steps, samples=64, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20000) <= 1.5 * peak(2000)
