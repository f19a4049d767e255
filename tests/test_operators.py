"""Ensemble construction: laws, profiles, coefficient maps, reproducibility."""

import math

import numpy as np
import pytest

from randspec import (
    AffineFamily,
    DomainError,
    EnsembleSpec,
    FiniteProfile,
    GeometricProfile,
    IdentityFamily,
    IntervalGraphFamily,
    PiecewiseLinearLaw,
    TridiagonalOperator,
    UniformLaw,
    assemble,
    coefficients,
    draw_width,
    make_draw,
    truncate_alloy,
)
from randspec import _blocks
from randspec.operators import omega_block


# ---------------------------------------------------------------------------
# laws


def test_uniform_law_transform_endpoints():
    law = UniformLaw(1.0, 2.0)
    out = law.transform(np.array([0.0, 0.5, 1.0]))
    assert np.array_equal(out, [1.0, 1.5, 2.0])
    assert law.support == (1.0, 2.0)
    assert law.density_bound == 1.0


def test_uniform_law_degenerate_point_mass():
    law = UniformLaw(0.5, 0.5)
    assert np.array_equal(law.transform(np.array([0.0, 0.3, 0.9])), [0.5] * 3)
    assert law.density_bound == math.inf


def test_uniform_law_validation():
    with pytest.raises(ValueError):
        UniformLaw(2.0, 1.0)
    with pytest.raises(ValueError):
        UniformLaw(0.0, math.inf)


def _piecewise_cdf(law, x):
    """Independent CDF of the normalized piecewise-linear density."""
    k = np.asarray(law.knots)
    w = np.asarray(law.weights, dtype=float)
    seg_mass = (w[:-1] + w[1:]) / 2.0 * np.diff(k)
    w = w / seg_mass.sum()
    acc = 0.0
    for i in range(len(k) - 1):
        if x <= k[i]:
            break
        t = min(x, k[i + 1]) - k[i]
        slope = (w[i + 1] - w[i]) / (k[i + 1] - k[i])
        acc += w[i] * t + 0.5 * slope * t * t
    return acc


def test_piecewise_linear_inverse_cdf_is_exact():
    law = PiecewiseLinearLaw(knots=(0.0, 0.5, 2.0), weights=(1.0, 3.0, 0.0))
    u = np.linspace(0.0, 1.0, 201)
    x = law.transform(u)
    back = np.array([_piecewise_cdf(law, xi) for xi in x])
    assert np.max(np.abs(back - u)) <= 1e-12
    lo, hi = law.support
    assert np.all(x >= lo) and np.all(x <= hi)
    assert np.all(np.diff(x) >= 0)


def test_piecewise_linear_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearLaw((0.0, 0.0, 1.0), (1.0, 1.0, 1.0))  # non-increasing
    with pytest.raises(ValueError):
        PiecewiseLinearLaw((0.0, 1.0), (1.0, -1.0))  # negative weight
    with pytest.raises(ValueError):
        PiecewiseLinearLaw((0.0, 1.0), (0.0, 0.0))  # zero mass


def test_piecewise_linear_csv_roundtrip(tmp_path):
    path = tmp_path / "law.csv"
    path.write_text("# density knots\n0.0,1.0\n0.5,3.0\n2.0,0.0\n")
    law = PiecewiseLinearLaw.from_csv(path)
    assert law.knots == (0.0, 0.5, 2.0)
    assert law.weights == (1.0, 3.0, 0.0)


# ---------------------------------------------------------------------------
# ensembles and coefficient maps


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec("unknown")
    with pytest.raises(ValueError):
        EnsembleSpec("hopping", law=UniformLaw(0.5, 2.0))  # support not in [1,2]
    with pytest.raises(ValueError):
        EnsembleSpec("qgraph", law=UniformLaw(-0.5, 1.0))  # negative couplings
    with pytest.raises(ValueError):
        EnsembleSpec("alloy")  # profile required
    with pytest.raises(ValueError):
        EnsembleSpec("alloy", profile=FiniteProfile((1.0,)), margin=0)
    with pytest.raises(ValueError):
        EnsembleSpec("anderson", profile=FiniteProfile((1.0,)))
    with pytest.raises(ValueError):
        # margin must cover the profile radius
        EnsembleSpec("alloy", profile=FiniteProfile((0.5, 1.0, 0.5)), margin=0)


def test_default_laws_and_families():
    assert EnsembleSpec("hopping").law == UniformLaw(1.0, 2.0)
    assert EnsembleSpec("anderson").law == UniformLaw(0.0, 1.0)
    assert isinstance(EnsembleSpec("anderson").family, IdentityFamily)
    assert isinstance(EnsembleSpec("qgraph").family, IntervalGraphFamily)


def test_draw_width_per_kind():
    assert draw_width(EnsembleSpec("anderson"), 10) == 10
    assert draw_width(EnsembleSpec("hopping"), 10) == 10
    assert draw_width(EnsembleSpec("dimer_sign"), 10) == 6
    assert draw_width(EnsembleSpec("dimer_sign"), 9) == 5
    alloy = EnsembleSpec("alloy", profile=FiniteProfile((1.0,)), margin=3)
    assert draw_width(alloy, 10) == 16


def test_coefficients_hopping():
    spec = EnsembleSpec("hopping")
    omega = np.array([[1.1, 1.2, 1.3, 1.4]])
    diag, off = coefficients(spec, 4, omega)
    assert np.array_equal(diag, np.zeros((1, 4)))
    assert np.array_equal(off, [[1.2, 1.3, 1.4]])  # a(2..L)


def test_coefficients_anderson_and_qgraph():
    omega = np.array([[0.3, 0.7, 0.1]])
    diag, off = coefficients(EnsembleSpec("anderson"), 3, omega)
    assert np.array_equal(diag, omega)
    assert np.array_equal(off, [1.0, 1.0])
    diag, off = coefficients(EnsembleSpec("qgraph"), 3, omega)
    assert np.array_equal(diag, omega)
    assert np.array_equal(off, [-1.0, -1.0])


def test_coefficients_dimer_sign_pattern():
    spec = EnsembleSpec("dimer_sign")
    w = np.array([[10.0, 20.0, 30.0, 40.0]])  # width = 6//2 + 1
    diag, off = coefficients(spec, 6, w)
    assert np.array_equal(diag, [[-10.0, 20.0, -20.0, 30.0, -30.0, 40.0]])
    assert np.array_equal(off, [1.0] * 5)
    # mirrored pairs V(2i) = -V(2i+1)
    assert np.array_equal(diag[0, 1], -diag[0, 2])
    assert np.array_equal(diag[0, 3], -diag[0, 4])


def test_coefficients_alloy_convolution():
    prof = FiniteProfile((0.5, 1.0, 0.25))
    spec = EnsembleSpec("alloy", profile=prof, margin=1)
    w = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])  # size 3 + 2 margin
    diag, off = coefficients(spec, 3, w)
    expected = [
        0.5 * 1.0 + 1.0 * 2.0 + 0.25 * 3.0,
        0.5 * 2.0 + 1.0 * 3.0 + 0.25 * 4.0,
        0.5 * 3.0 + 1.0 * 4.0 + 0.25 * 5.0,
    ]
    assert np.allclose(diag, [expected], atol=0.0)
    assert np.array_equal(off, [1.0, 1.0])


def test_alloy_delta_profile_equals_anderson():
    spec = EnsembleSpec("alloy", profile=FiniteProfile((1.0,)), margin=1)
    w = np.arange(1.0, 8.0)[None, :]  # size 5 + 2
    diag, _ = coefficients(spec, 5, w)
    assert np.array_equal(diag, w[:, 1:6])


def test_coefficients_shape_validation():
    with pytest.raises(ValueError):
        coefficients(EnsembleSpec("anderson"), 3, np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# profiles


def test_finite_profile_helpers():
    prof = FiniteProfile((0.1, 0.4, 1.0, 0.4, 0.1))
    assert prof.radius == 2
    assert np.array_equal(prof.materialize(3), [0, 0.1, 0.4, 1.0, 0.4, 0.1, 0])
    assert prof.truncate(1).values == (0.4, 1.0, 0.4)
    assert prof.tail_abs_sum(1) == pytest.approx(0.2)
    assert prof.tail_abs_sum(2) == 0.0
    assert prof.single_signed()
    assert not FiniteProfile((-0.5, 1.0, 0.0)).single_signed()
    with pytest.raises(ValueError):
        FiniteProfile((1.0, 2.0))  # even length


def test_geometric_profile_tail_exact():
    g = GeometricProfile(rate=0.7, amplitude=2.0)
    q = math.exp(-0.7)
    for cutoff in (0, 3, 10):
        brute = sum(
            2.0 * q ** abs(n)
            for n in range(-400, 401)
            if abs(n) > cutoff
        )
        assert g.tail_abs_sum(cutoff) == pytest.approx(brute, rel=1e-12)
    assert np.array_equal(g.truncate(3).values, g.materialize(3))
    with pytest.raises(ValueError):
        GeometricProfile(rate=0.0)


def test_truncate_alloy_geometric():
    spec = EnsembleSpec("alloy", profile=GeometricProfile(1.0, 1.5), margin=1)
    out = truncate_alloy(spec, 100)
    cutoff = math.ceil(3.0 * math.log(100))
    assert isinstance(out.profile, FiniteProfile)
    assert out.profile.radius == cutoff
    assert out.margin == cutoff
    assert np.array_equal(out.profile.values, spec.profile.materialize(cutoff))
    # dropped part of the potential is uniformly small
    assert 2.0 * spec.profile.tail_abs_sum(cutoff) < 1e-5


def test_truncate_alloy_compact_passthrough():
    prof = FiniteProfile((0.5, 1.0, 0.5))
    spec = EnsembleSpec("alloy", profile=prof, margin=1)
    assert truncate_alloy(spec, 50) is spec


# ---------------------------------------------------------------------------
# spectral families


def test_affine_family_potential():
    fam = AffineFamily(3.0, 5.0)
    assert fam.lambda_at(0.7) == 3.0  # the potential maps to (V - 5) / 3
    assert fam.mu_at(0.7) == 5.0
    with pytest.raises(ValueError):
        AffineFamily(0.0, 1.0)


def test_identity_family_is_energy_shift():
    fam = IdentityFamily()
    assert fam.lambda_at(2.5) == 1.0
    assert fam.mu_at(2.5) == 2.5


def test_interval_graph_family_values_and_domain():
    fam = IntervalGraphFamily()
    e = 2.0
    s = math.sqrt(e)
    assert fam.lambda_at(e) == pytest.approx(-s / math.sin(s), rel=1e-15)
    assert fam.mu_at(e) == pytest.approx(s / math.tan(s), rel=1e-15)
    # (omega - mu)/lambda == cos sqrt(E) - (sin sqrt(E)/sqrt(E)) omega
    for omega in (0.0, 0.3, 2.0):
        lhs = (omega - fam.mu_at(e)) / fam.lambda_at(e)
        rhs = math.cos(s) - math.sin(s) / s * omega
        assert lhs == pytest.approx(rhs, abs=1e-15)
    with pytest.raises(DomainError):
        fam.lambda_at(0.0)
    with pytest.raises(DomainError):
        fam.lambda_at(math.pi**2)
    with pytest.raises(DomainError):
        fam.lambda_at((2 * math.pi) ** 2 + 1e-9)


# ---------------------------------------------------------------------------
# draws


def test_make_draw_deterministic_and_distinct():
    spec = EnsembleSpec("anderson")
    a = make_draw(spec, 8, seed=3, index=5)
    b = make_draw(spec, 8, seed=3, index=5)
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.diag, b.diag)
    c = make_draw(spec, 8, seed=3, index=6)
    d = make_draw(spec, 8, seed=4, index=5)
    e = make_draw(spec, 8, seed=3, index=5, stream=_blocks.STREAM_SECONDARY)
    for other in (c, d, e):
        assert not np.array_equal(a.omega, other.omega)
    with pytest.raises(ValueError):
        make_draw(spec, 8, seed=3, index=-1)


def test_make_draw_matches_block_row():
    spec = EnsembleSpec("anderson")
    size = 8
    bs = _blocks.block_size(draw_width(spec, size))
    index = bs + 2  # row 2 of block 1
    draw = make_draw(spec, size, seed=9, index=index)
    block = omega_block(spec, size, seed=9, block=1)
    assert np.array_equal(draw.omega, block[2])


def test_assemble_and_size_guard():
    spec = EnsembleSpec("hopping")
    draw = make_draw(spec, 6, seed=0, index=0)
    op = assemble(spec, 6, draw)
    assert op.size == 6
    assert np.array_equal(op.diag, np.zeros(6))
    assert np.all((op.offdiag >= 1.0) & (op.offdiag <= 2.0))
    with pytest.raises(ValueError):
        assemble(spec, 7, draw)


# ---------------------------------------------------------------------------
# the tridiagonal operator


def test_tridiagonal_validation():
    with pytest.raises(ValueError):
        TridiagonalOperator(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        TridiagonalOperator(np.array([1.0, math.nan]), np.array([1.0]))
    with pytest.raises(ValueError):
        TridiagonalOperator(np.array([]), np.array([]))


def test_tridiagonal_dense_apply_subbox():
    rng = np.random.default_rng(7)
    op = TridiagonalOperator(rng.normal(size=8), rng.normal(size=7))
    dense = op.to_dense()
    assert np.array_equal(dense, dense.T)
    v = rng.normal(size=8)
    assert np.allclose(op.apply(v), dense @ v, atol=1e-14)
    sub = op.sub_box(3, 6)
    assert np.array_equal(sub.to_dense(), dense[2:6, 2:6])
    with pytest.raises(ValueError):
        op.sub_box(0, 5)
    lo, hi = op.gershgorin()
    vals = np.linalg.eigvalsh(dense)
    assert lo <= vals[0] and vals[-1] <= hi
    assert op.norm_bound() >= np.abs(vals).max()
