"""Prufer coordinates, Wronskian telescoping, gradients, resonant splits."""

import math

import numpy as np
import pytest

from conftest import random_operator
from randspec import (
    AffineFamily,
    EnsembleSpec,
    TridiagonalOperator,
    assemble,
    consecutive_sine_floor,
    count_in_interval,
    dense_spectrum,
    hellmann_feynman_check,
    make_draw,
    nearest_eigenvalue_distance,
    pruefer_trace,
    split_box_search,
    wronskian_sequence,
)


def _eigenpairs(op):
    return dense_spectrum(op, vectors=True)


# ---------------------------------------------------------------------------
# traces


def test_trace_reconstruction_and_radii():
    rng = np.random.default_rng(2)
    for _ in range(25):
        op = random_operator(rng, size=10)
        vals, vecs = _eigenpairs(op)
        j = int(rng.integers(10))
        trace = pruefer_trace(op, vals[j], vecs[:, j])
        assert trace.radii.shape == (11,)
        assert trace.max_reconstruction_error() <= 1e-12
        # r(n)^2 = u(n)^2 + u(n-1)^2 double-counts every entry once
        assert np.sum(trace.radii**2) == pytest.approx(
            2.0 * np.sum(vecs[:, j] ** 2), rel=1e-12
        )
        assert np.all((trace.angles >= 0.0) & (trace.angles < 2.0 * math.pi))
        assert trace.max_radius_ratio() >= 1.0


def test_trace_rejects_bad_input():
    op = TridiagonalOperator(np.zeros(5), np.ones(4))
    vals, vecs = _eigenpairs(op)
    with pytest.raises(ValueError):
        pruefer_trace(op, vals[0] + 0.1, vecs[:, 0])  # fails certification
    with pytest.raises(ValueError):
        pruefer_trace(op, vals[0], vecs[:3, 0])  # wrong length
    with pytest.raises(ValueError):
        pruefer_trace(op, 0.0, np.zeros(5))


def test_sine_magnitudes_and_floor():
    rng = np.random.default_rng(8)
    op = random_operator(rng, size=12)
    vals, vecs = _eigenpairs(op)
    trace = pruefer_trace(op, vals[4], vecs[:, 4])
    s = trace.sine_magnitudes()
    pad = np.concatenate([vecs[:, 4], [0.0]])
    assert np.allclose(s, np.abs(pad) / trace.radii, atol=0.0)
    assert s[-1] == 0.0  # u(L+1) = 0
    assert consecutive_sine_floor(trace) > 0.0


# ---------------------------------------------------------------------------
# Wronskians


def test_wronskian_matches_brute_force():
    rng = np.random.default_rng(31)
    op = random_operator(rng, size=11)
    vals, vecs = _eigenpairs(op)
    u, v = vecs[:, 3], vecs[:, 7]
    res = wronskian_sequence(u, v, op.offdiag, vals[3], vals[7])
    a_full = np.concatenate([[1.0], op.offdiag, [1.0]])
    u_pad = np.concatenate([[0.0], u, [0.0]])
    v_pad = np.concatenate([[0.0], v, [0.0]])
    brute = [
        a_full[n] * (u_pad[n + 1] * v_pad[n] - u_pad[n] * v_pad[n + 1])
        for n in range(len(a_full))
    ]
    assert np.array_equal(res.values, brute)
    assert res.values[0] == 0.0 and res.values[-1] == 0.0


def test_wronskian_telescoping_violation_small():
    rng = np.random.default_rng(32)
    for _ in range(20):
        op = random_operator(rng, size=12)
        vals, vecs = _eigenpairs(op)
        i, j = rng.choice(12, size=2, replace=False)
        res = wronskian_sequence(
            vecs[:, i], vecs[:, j], op.offdiag, vals[i], vals[j]
        )
        scale = max(1.0, abs(vals[i] - vals[j])) * op.norm_bound()
        assert res.max_violation <= 1e-12 * scale


def test_wronskian_detects_mismatched_pairs():
    spec = EnsembleSpec("anderson")
    size = 12
    op_a = assemble(spec, size, make_draw(spec, size, seed=1, index=0))
    op_b = assemble(spec, size, make_draw(spec, size, seed=1, index=1))
    va, ua = _eigenpairs(op_a)
    vb, ub = _eigenpairs(op_b)
    res = wronskian_sequence(ua[:, 4], ub[:, 4], op_a.offdiag, va[4], vb[4])
    assert res.max_violation > 1e-6


def test_sine_product_identity_and_bound():
    rng = np.random.default_rng(33)
    for _ in range(15):
        op = random_operator(rng, size=10)
        vals, vecs = _eigenpairs(op)
        i, j = rng.choice(10, size=2, replace=False)
        u, v = vecs[:, i], vecs[:, j]
        tu = pruefer_trace(op, vals[i], u)
        tv = pruefer_trace(op, vals[j], v)
        res = wronskian_sequence(u, v, op.offdiag, vals[i], vals[j])
        # r_u r_v sin(phi_u - phi_v) is the raw cross term at every site
        prod = tu.radii * tv.radii * np.sin(tu.angles - tv.angles)
        assert np.max(np.abs(prod)) == pytest.approx(
            res.sine_product_max, abs=1e-13
        )
        assert np.max(np.abs(prod)) <= res.sine_product_bound + 1e-10
        a = op.offdiag
        factor = max(1.0, np.max(np.abs(a)), 1.0 / np.min(np.abs(a)))
        assert res.coupling_factor == pytest.approx(factor, rel=1e-15)


# ---------------------------------------------------------------------------
# eigenvalue gradients


def test_hellmann_feynman_anderson_all_directions():
    spec = EnsembleSpec("anderson")
    size = 10
    op = assemble(spec, size, make_draw(spec, size, seed=5, index=0))
    rng = np.random.default_rng(55)
    for j in range(1, size + 1):
        n = int(rng.integers(1, size + 1))
        k = int(rng.integers(2, size + 1))
        for pert in (("diagonal", n), ("coupling", k)):
            chk = hellmann_feynman_check(spec, op, j, pert)
            assert chk.rel_err <= 1e-6
            assert chk.radial_residual <= 1e-8
            assert chk.gap > 0


def test_hellmann_feynman_affine_slope():
    spec = EnsembleSpec("anderson", family=AffineFamily(3.0, 5.0))
    base = EnsembleSpec("anderson")
    size = 8
    op = assemble(base, size, make_draw(base, size, seed=6, index=0))
    scaled = hellmann_feynman_check(spec, op, 2, ("diagonal", 4))
    plain = hellmann_feynman_check(base, op, 2, ("diagonal", 4))
    assert scaled.analytic == pytest.approx(3.0 * plain.analytic, rel=1e-12)
    assert scaled.rel_err <= 1e-6


def test_hellmann_feynman_validation():
    spec = EnsembleSpec("anderson")
    op = TridiagonalOperator(np.array([1.0, 1.0, 3.0]), np.zeros(2))
    with pytest.raises(ValueError):
        hellmann_feynman_check(spec, op, 1, ("diagonal", 1))  # degenerate
    good = TridiagonalOperator(np.array([0.1, 0.9, 2.0]), np.ones(2))
    with pytest.raises(ValueError):
        hellmann_feynman_check(spec, good, 1, ("slope", 1))
    with pytest.raises(ValueError):
        hellmann_feynman_check(spec, good, 1, ("diagonal", 4))
    with pytest.raises(ValueError):
        hellmann_feynman_check(spec, good, 1, ("coupling", 1))


# ---------------------------------------------------------------------------
# resonant splits


def test_split_box_matches_brute_force():
    spec = EnsembleSpec("anderson")
    size = 18
    op = assemble(spec, size, make_draw(spec, size, seed=44, index=0))
    vals = dense_spectrum(op)
    energy = 0.5 * (vals[8] + vals[9])
    epsilon = abs(vals[9] - vals[8])  # window holds at least two eigenvalues
    separation = 4
    res = split_box_search(op, energy, epsilon, separation, delta_target=0.5)
    assert res.window_count == count_in_interval(
        op, energy - epsilon, energy + epsilon
    )
    assert res.x_plus - res.x_minus >= separation
    tol = 1e-13 * op.norm_bound()
    best = math.inf
    for x in range(1, size - separation + 1):
        dl = nearest_eigenvalue_distance(op.sub_box(1, x), energy, tol)
        for y in range(x + separation, size + 1):
            dr = nearest_eigenvalue_distance(op.sub_box(y, size), energy, tol)
            best = min(best, max(dl, dr))
    assert res.achieved == pytest.approx(best, rel=1e-12)
    assert res.d_left == pytest.approx(
        nearest_eigenvalue_distance(op.sub_box(1, res.x_minus), energy, tol),
        rel=1e-12,
    )
    assert res.meets_target == (res.achieved <= 0.5)


def test_split_box_validation():
    op = TridiagonalOperator(np.array([0.0, 5.0, 10.0]), np.zeros(2))
    with pytest.raises(ValueError):
        split_box_search(op, 0.0, 1.0, 1, 1e-4)  # one eigenvalue in window
    with pytest.raises(ValueError):
        split_box_search(op, 5.0, 20.0, 0, 1e-4)
    with pytest.raises(ValueError):
        split_box_search(op, 5.0, 20.0, 3, 1e-4)
