"""Vertex reduction of the chain metric graph and its root finder."""

import math

import numpy as np
import pytest

from randspec import (
    DomainError,
    IntervalGraphFamily,
    QGraphInstance,
    graph_eigenvalues,
    nearest_eigenvalue_distance,
    reduced_operator,
)
from randspec.qgraph import _potential_lipschitz, _secular_value

from oracles import c_factor, free_graph_eigenvalues, m_matrix


def _instance(rng, size):
    return QGraphInstance(rng.uniform(0.0, 1.0, size=size))


# ---------------------------------------------------------------------------
# the reduction identity


def test_reduction_identity_dense():
    rng = np.random.default_rng(21)
    for _ in range(50):
        size = int(rng.integers(2, 12))
        inst = _instance(rng, size)
        e = rng.uniform(0.2, 30.0)
        if min(abs(e - (k * math.pi) ** 2) for k in range(1, 3)) < 1e-3:
            continue
        lhs = c_factor(e) * reduced_operator(inst, e).to_dense()
        rhs = m_matrix(inst, e)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, abs(c_factor(e)))


def test_reduced_diagonal_closed_form():
    inst = QGraphInstance(np.array([0.0, 0.3, 1.7]))
    e = 2.0
    s = math.sqrt(e)
    op = reduced_operator(inst, e)
    want = math.cos(s) - math.sin(s) / s * inst.omega
    assert np.allclose(op.diag, want, atol=1e-15)
    assert np.array_equal(op.offdiag, [-1.0, -1.0])


def test_c_factor_value_and_poles():
    e = 2.0
    assert c_factor(e) == pytest.approx(math.sqrt(e) / math.sin(math.sqrt(e)))
    with pytest.raises(DomainError):
        c_factor(math.pi**2)
    with pytest.raises(DomainError):
        c_factor(-1.0)
    with pytest.raises(DomainError):
        c_factor((2 * math.pi) ** 2 + 1e-9)


def test_instance_validation():
    with pytest.raises(ValueError):
        QGraphInstance(np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        QGraphInstance(np.array([]))
    with pytest.raises(ValueError):
        QGraphInstance(np.array([math.inf]))


def test_m_matrix_symmetric():
    rng = np.random.default_rng(2)
    inst = _instance(rng, 6)
    m = m_matrix(inst, 3.7)
    assert np.array_equal(m, m.T)


# ---------------------------------------------------------------------------
# free roots


def test_free_roots_single_for_l5():
    roots = free_graph_eigenvalues(5, (0.05, 9.8))
    assert len(roots) == 1
    assert roots[0] == pytest.approx(math.pi**2 / 4.0, rel=1e-12)


def test_free_roots_match_scan():
    size = 12
    window = (0.05, 9.85)
    analytic = free_graph_eigenvalues(size, window)
    inst = QGraphInstance(np.zeros(size))
    scanned = graph_eigenvalues(inst, window, tol=1e-12)
    assert len(scanned) == len(analytic)
    assert np.max(np.abs(scanned - analytic)) <= 1e-8
    with pytest.raises(ValueError):
        free_graph_eigenvalues(5, (0.05, 9.9))  # beyond pi^2


# ---------------------------------------------------------------------------
# root scanning


def test_roots_are_certified_singular_points():
    rng = np.random.default_rng(9)
    inst = _instance(rng, 10)
    window = (0.5, 9.5)
    roots = graph_eigenvalues(inst, window, tol=1e-12)
    assert len(roots) > 0
    for r in roots:
        assert window[0] < r < window[1]
        op = reduced_operator(inst, r)
        assert nearest_eigenvalue_distance(op, 0.0) <= 1e-9
        assert abs(_secular_value(inst, r)) <= 1e-9
    assert np.all(np.diff(roots) >= 0)


def test_scan_sweeps_each_energy_once(monkeypatch):
    # a cell's ends and bisection midpoints share energies with the cells
    # around them; each is swept once and its count reused
    import randspec.eigensolve as eig

    swept, count = [], eig.sturm_count

    def sturm_count(op, shift):
        swept.append(op.diag.tobytes() + op.offdiag.tobytes())
        return count(op, shift)

    monkeypatch.setattr(eig, "sturm_count", sturm_count)
    rng = np.random.default_rng(10)
    for size, window in ((6, (3.0, 4.2)), (8, (0.4, 9.4))):
        roots = graph_eigenvalues(_instance(rng, size), window)
        assert len(roots) and len(swept) == len(set(swept))
        swept.clear()


def test_root_count_matches_negative_count_scan():
    # n_neg(R(E)) moves by one at each graph eigenvalue, up or down: it is not
    # monotone between poles (it can rise and then fall inside one pole-free
    # segment). The sum of |jumps| over a fine grid counts the crossings the
    # scanner must find. R(E) is continuous across the poles, so the grid
    # only skips the excluded bands. The last two windows contain (2 pi)^2
    # and (3 pi)^2, where pole +- POLE_MARGIN rounds to a float that an
    # absolute-distance band test would still count as inside the band.
    import randspec.eigensolve as eig

    rng = np.random.default_rng(10)
    wide = QGraphInstance(np.array([0.3, 0.1, 0.7, 0.2]))
    poles = (math.pi * np.arange(1, 5)) ** 2
    for inst, window, want in (
        (_instance(rng, 8), (0.4, 9.4), None),
        (wide, (5.0, 45.0), 2),
        (wide, (1.0, 100.0), 5),
    ):
        fine = np.linspace(window[0], window[1], 4001)
        fine = fine[np.min(np.abs(fine[:, None] - poles), axis=1) > 1e-4]
        counts = [eig.sturm_count(reduced_operator(inst, e), 0.0) for e in fine]
        jumps = int(np.sum(np.abs(np.diff(counts))))
        roots = graph_eigenvalues(inst, window)
        assert len(roots) == jumps
        assert want is None or jumps == want


def test_secular_value_signed_nearest_zero():
    rng = np.random.default_rng(11)
    inst = _instance(rng, 7)
    for e in (1.3, 4.0, 7.5):
        op = reduced_operator(inst, e)
        vals = np.linalg.eigvalsh(op.to_dense())
        want = vals[np.argmin(np.abs(vals))]
        assert _secular_value(inst, e) == pytest.approx(want, abs=1e-10)


def test_window_must_avoid_nonpositive_energies():
    inst = QGraphInstance(np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        graph_eigenvalues(inst, (-1.0, 5.0))
    with pytest.raises(DomainError):
        graph_eigenvalues(inst, (0.0, 5.0))
    with pytest.raises(DomainError):
        graph_eigenvalues(inst, (1.0, math.inf))  # infinitely many poles to cut


# ---------------------------------------------------------------------------
# Lipschitz control


def test_potential_lipschitz_dominates_numeric_slope():
    rng = np.random.default_rng(12)
    inst = _instance(rng, 6)
    e_min = 2.0
    lip = _potential_lipschitz(inst, e_min)
    es = np.linspace(e_min, e_min + 6.0, 2001)
    fam = IntervalGraphFamily()
    pots = np.array(
        [(inst.omega - fam.mu_at(e)) / fam.lambda_at(e) for e in es]
    )
    slopes = np.abs(np.diff(pots, axis=0)) / np.diff(es)[:, None]
    assert slopes.max() <= lip * (1.0 + 1e-6)
    with pytest.raises(ValueError):
        _potential_lipschitz(inst, 0.0)


def test_secular_bracket_bound():
    # |E* - E0| >= |g(E0)| / lip for the nearest graph eigenvalue E*
    rng = np.random.default_rng(13)
    inst = _instance(rng, 9)
    e0 = 4.0
    g0 = abs(_secular_value(inst, e0))
    lip = 1.25 * _potential_lipschitz(inst, 2.0)
    roots = graph_eigenvalues(inst, (2.0, 8.0))
    if len(roots):
        assert np.min(np.abs(roots - e0)) >= g0 / lip - 1e-9
