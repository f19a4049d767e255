"""Ensemble construction: laws, profiles, coefficient maps, reproducibility."""

import math
import re

import numpy as np
import pytest

from randspec import (
    DomainError,
    EnsembleSpec,
    FiniteProfile,
    IntervalGraphFamily,
    PiecewiseLinearLaw,
    TridiagonalOperator,
    UniformLaw,
    make_draw,
)
from randspec import _blocks
from randspec.operators import coefficients, draw_block, draw_width


# ---------------------------------------------------------------------------
# laws


def test_uniform_law_transform_endpoints():
    law = UniformLaw(1.0, 2.0)
    out = law.transform(np.array([0.0, 0.5, 1.0]))
    assert np.array_equal(out, [1.0, 1.5, 2.0])
    assert law.support == (1.0, 2.0)


def test_uniform_law_degenerate_point_mass():
    law = UniformLaw(0.5, 0.5)
    assert np.array_equal(law.transform(np.array([0.0, 0.3, 0.9])), [0.5] * 3)


def test_uniform_law_validation():
    with pytest.raises(ValueError):
        UniformLaw(2.0, 1.0)
    with pytest.raises(ValueError):
        UniformLaw(0.0, math.inf)
    # hi - lo overflows: the draws were [nan, inf] at u = 0 and 0.5
    with pytest.raises(ValueError, match=r"^law support \[-1e\+308, 1e\+308\] is wider"):
        UniformLaw(-1e308, 1e308)


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


@pytest.mark.filterwarnings("error")
def test_piecewise_linear_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearLaw((0.0, 0.0, 1.0), (1.0, 1.0, 1.0))  # non-increasing
    with pytest.raises(ValueError):
        PiecewiseLinearLaw((0.0, 1.0), (1.0, -1.0))  # negative weight
    with pytest.raises(ValueError):
        PiecewiseLinearLaw((0.0, 1.0), (0.0, 0.0))  # zero mass
    # knots[-1] - knots[0] overflows: every draw was -1e308
    with pytest.raises(ValueError, match=r"^law support \[-1e\+308, 1e\+308\] is wider"):
        PiecewiseLinearLaw((-1e308, 1e308), (1.0, 1.0))
    # the weights times the knot gaps overflow: every draw was 0, after two warnings
    with pytest.raises(ValueError, match=r"^density mass is inf: "):
        PiecewiseLinearLaw((0.0, 1e300), (1e300, 1e300))
    # the weights divided by the subnormal mass overflow: every draw was NaN
    with pytest.raises(ValueError, match=r"^normalized density is inf: .* mass 1e-320 "):
        PiecewiseLinearLaw((0.0, 1e-320), (1.0, 1.0))
    # the density slope 2 / 1e-310 overflows: the draw at u = 0 was NaN
    with pytest.raises(ValueError, match=r"^density on the knots \[0\.0, 1e-310\] is too steep"):
        PiecewiseLinearLaw((0.0, 1e-310, 1.0), (0.0, 1.0, 0.0))
    # the slope is finite, but the squared density 1.67e154 ** 2 is not: every draw was NaN
    with pytest.raises(ValueError, match=r"^density on the knots \[0\.0, 1\.2e-154\] is too steep"):
        PiecewiseLinearLaw((0.0, 1.2e-154), (1.0, 0.0))


def test_piecewise_linear_csv_roundtrip(tmp_path):
    path = tmp_path / "law.csv"
    path.write_text("# density knots\n0.0,1.0\n0.5,3.0\n2.0,0.0\n")
    law = PiecewiseLinearLaw.from_csv(path)
    assert law.knots == (0.0, 0.5, 2.0)
    assert law.weights == (1.0, 3.0, 0.0)


@pytest.mark.parametrize("text, message", [
    ("0.0,1.0\n1.0\n", "line 2 has one field"),
    ("# knots\n0.0,1.0\n1.0,dense\n", "line 3 holds a field that is not a number"),
    ("0.0,1.0\n1.0," + "1" * 200_000 + "\n", "line 2: field larger than field limit"),
])
def test_piecewise_linear_csv_names_bad_line(tmp_path, text, message):
    path = tmp_path / "law.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        PiecewiseLinearLaw.from_csv(path)


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
    with pytest.raises(ValueError, match="FiniteProfile"):
        EnsembleSpec("alloy", profile=(0.5, 1.0, 0.5))
    with pytest.raises(ValueError):
        EnsembleSpec("anderson", profile=FiniteProfile((1.0,)))
    with pytest.raises(TypeError):  # the draw margin is the profile radius
        EnsembleSpec("alloy", profile=FiniteProfile((0.5, 1.0, 0.5)), margin=1)


def test_default_laws():
    assert EnsembleSpec("hopping").law == UniformLaw(1.0, 2.0)
    assert EnsembleSpec("anderson").law == UniformLaw(0.0, 1.0)


def test_draw_width_per_kind():
    assert draw_width(EnsembleSpec("anderson"), 10) == 10
    assert draw_width(EnsembleSpec("hopping"), 10) == 10
    assert draw_width(EnsembleSpec("dimer_sign"), 10) == 6
    assert draw_width(EnsembleSpec("dimer_sign"), 9) == 5
    # the alloy reads omega on {1 - r..L + r}, r the profile radius
    alloy = EnsembleSpec("alloy", profile=FiniteProfile((0.0, 0.0, 0.5, 1.0, 0.5, 0.0, 0.0)))
    assert draw_width(alloy, 10) == 16
    single_site = EnsembleSpec("alloy", profile=FiniteProfile((1.0,)))
    assert draw_width(single_site, 10) == 10


def test_coefficients_hopping():
    """The zero diagonal is one row that every draw reads."""
    spec = EnsembleSpec("hopping")
    omega = np.array([[1.1, 1.2, 1.3, 1.4], [1.5, 1.6, 1.7, 1.8]])
    diag, off = coefficients(spec, 4, omega)
    assert np.array_equal(diag, np.zeros((1, 4)))
    assert np.array_equal(off, [[1.2, 1.3, 1.4], [1.6, 1.7, 1.8]])  # a(2..L)


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
    spec = EnsembleSpec("alloy", profile=prof)
    w = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])  # size 3 + 2 * radius
    diag, off = coefficients(spec, 3, w)
    expected = [
        0.5 * 1.0 + 1.0 * 2.0 + 0.25 * 3.0,
        0.5 * 2.0 + 1.0 * 3.0 + 0.25 * 4.0,
        0.5 * 3.0 + 1.0 * 4.0 + 0.25 * 5.0,
    ]
    assert np.allclose(diag, [expected], atol=0.0)
    assert np.array_equal(off, [1.0, 1.0])


def test_alloy_delta_profile_equals_anderson():
    spec = EnsembleSpec("alloy", profile=FiniteProfile((1.0,)))
    w = np.arange(1.0, 6.0)[None, :]  # radius 0: width = size
    diag, _ = coefficients(spec, 5, w)
    assert np.array_equal(diag, w)


@pytest.mark.parametrize("spec", [
    EnsembleSpec("hopping"), EnsembleSpec("anderson"), EnsembleSpec("qgraph"),
    EnsembleSpec("dimer_sign"), EnsembleSpec("alloy", profile=FiniteProfile((0.5, 1.0, 0.25))),
], ids=lambda spec: spec.kind)
def test_coefficients_are_c_contiguous(spec):
    """Every kind returns C-contiguous arrays: the compiled sweep copies a
    strided input of more than 4 KB on every call, as it did hopping's
    couplings while they were the view omega[:, 1:]. The anderson and qgraph
    diagonal is the fresh omega itself; every other array is one of its own."""
    omega = np.random.default_rng(0).random((3, draw_width(spec, 6)))
    diag, off = coefficients(spec, 6, omega)
    assert diag.flags.c_contiguous and off.flags.c_contiguous
    assert (diag is omega) == (spec.kind in ("anderson", "qgraph"))
    if diag is not omega:
        assert not np.shares_memory(diag, omega)
    assert not np.shares_memory(off, omega)


def test_coefficients_shape_validation():
    with pytest.raises(ValueError):
        coefficients(EnsembleSpec("anderson"), 3, np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# profiles


def test_finite_profile_helpers():
    prof = FiniteProfile((0.1, 0.4, 1.0, 0.4, 0.1))
    assert prof.radius == 2
    assert FiniteProfile((1.0,)).radius == 0
    with pytest.raises(ValueError):
        FiniteProfile((1.0, 2.0))  # even length


# ---------------------------------------------------------------------------
# spectral families


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
    assert np.array_equal(a.diag, b.diag)
    assert np.array_equal(a.offdiag, b.offdiag)
    c = make_draw(spec, 8, seed=3, index=6)
    d = make_draw(spec, 8, seed=4, index=5)
    e = make_draw(spec, 8, seed=3, index=5, stream=_blocks.STREAM_SECONDARY)
    for other in (c, d, e):
        assert not np.array_equal(a.diag, other.diag)
    with pytest.raises(ValueError):
        make_draw(spec, 8, seed=3, index=-1)


def test_make_draw_matches_block_row():
    spec = EnsembleSpec("anderson")
    size = 8
    bs = _blocks.block_size(draw_width(spec, size))
    index = bs + 2  # row 2 of block 1
    draw = make_draw(spec, size, seed=9, index=index)
    diag, _ = draw_block(spec, size, seed=9, block=1, rows=bs)
    assert np.array_equal(draw.diag, diag[2])


def test_make_draw_returns_the_operator():
    """Draw 5 is a later row of the block, whose diagonal is one shared
    zero row."""
    spec = EnsembleSpec("hopping")
    for index in (0, 5):
        op = make_draw(spec, 6, seed=0, index=index)
        assert isinstance(op, TridiagonalOperator) and op.size == 6
        assert np.array_equal(op.diag, np.zeros(6))
        assert np.all((op.offdiag >= 1.0) & (op.offdiag <= 2.0))
        assert not (op.diag.flags.writeable or op.offdiag.flags.writeable)


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
