"""IDS tables: estimation, interpolation, unfolding, Holder moduli."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randspec import (
    EnsembleSpec,
    IdsTable,
    OutsideGridError,
    UniformLaw,
    estimate_ids,
    holder_exponent_fit,
    unfold,
)
from randspec.ids import _holder_modulus

from oracles import free_laplacian_ids


# ---------------------------------------------------------------------------
# the closed form


def test_free_laplacian_ids_endpoints():
    assert free_laplacian_ids(-2.0) == 0.0
    assert free_laplacian_ids(0.0) == pytest.approx(0.5, abs=1e-15)
    assert free_laplacian_ids(2.0) == 1.0
    assert free_laplacian_ids(-3.0) == 0.0  # clipped outside the band
    assert free_laplacian_ids(3.0) == 1.0
    e = np.linspace(-2, 2, 101)
    n = free_laplacian_ids(e)
    assert np.all(np.diff(n) > 0)


def test_estimated_ids_matches_free_closed_form():
    # degenerate law: every draw is the free operator
    spec = EnsembleSpec("anderson", law=UniformLaw(0.0, 0.0))
    size = 200
    grid = np.linspace(-2.2, 2.2, 200)
    table = estimate_ids(spec, size, samples=2, grid=grid, seed=0)
    err = np.max(np.abs(table.values - free_laplacian_ids(grid)))
    assert err <= 2.0 / size
    assert np.array_equal(table.stderr, np.zeros(grid.size))  # no variance


# ---------------------------------------------------------------------------
# the table


def test_table_validation():
    e = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        IdsTable(e[::-1], np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        IdsTable(e, np.array([0.0, 0.5, 0.4]), np.zeros(3))
    with pytest.raises(ValueError):
        IdsTable(e, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        IdsTable(np.array([0.0]), np.array([0.0]), np.array([0.0]))


def _toy_table():
    return IdsTable(
        np.array([0.0, 1.0, 2.0, 3.0]),
        np.array([0.0, 0.25, 0.25, 1.0]),
        np.zeros(4),
    )


def test_evaluate_and_inverse():
    t = _toy_table()
    assert t.evaluate(0.5) == pytest.approx(0.125, abs=1e-15)
    assert np.allclose(t.evaluate([1.0, 1.7, 3.0]), [0.25, 0.25, 1.0])
    assert t.inverse(0.0) == 0.0
    assert t.inverse(0.625) == pytest.approx(2.5, abs=1e-14)
    assert t.inverse(0.25) == 1.0  # flat segment maps to its left edge
    ys = np.array([0.1, 0.5, 1.0])
    back = t.evaluate(t.inverse(ys))
    assert np.allclose(back, ys, atol=1e-14)
    one = t.inverse(np.array([0.625]))  # array in, array out, even for one level
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert one[0] == pytest.approx(2.5, abs=1e-14)
    assert isinstance(t.inverse(0.625), float)
    with pytest.raises(OutsideGridError):
        t.evaluate(3.5)
    with pytest.raises(OutsideGridError):
        t.evaluate(-0.1)
    with pytest.raises(OutsideGridError):
        t.inverse(1.1)


@pytest.mark.filterwarnings("error")
def test_inverse_maps_plateau_levels_to_their_left_edge():
    """A level that a flat stretch of the table holds maps to the stretch's
    left edge, the first grid energy included, without a 0/0 warning."""
    t = IdsTable(np.arange(5.0), np.array([0.25, 0.25, 0.5, 0.5, 1.0]), np.zeros(5))
    assert t.inverse(np.array([0.25, 0.5, 0.75, 1.0])).tolist() == [0.0, 2.0, 3.5, 4.0]
    assert t.inverse(0.5) == 2.0


@pytest.mark.parametrize("x", [math.nan, [0.2, math.nan]])
def test_nan_is_outside_the_grid(x):
    t = _toy_table()
    with pytest.raises(OutsideGridError):
        t.evaluate(x)
    with pytest.raises(OutsideGridError):
        t.inverse(x)


def test_unfold_linear_and_grid_checked():
    t = IdsTable(
        np.array([0.0, 4.0]), np.array([0.0, 1.0]), np.zeros(2)
    )  # N(E) = E/4
    xi = unfold(np.array([1.0, 2.0]), t, 0.5, size=100)
    assert np.allclose(xi, [100 * (0.25 - 0.125), 100 * (0.5 - 0.125)])
    with pytest.raises(OutsideGridError):
        unfold(np.array([1.0, 4.5]), t, 0.5, size=100)
    with pytest.raises(OutsideGridError):
        unfold(np.array([1.0]), t, -0.5, size=100)


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(1)
    e = np.sort(rng.uniform(-2, 2, size=12))
    v = np.sort(rng.uniform(0, 1, size=12))
    s = rng.uniform(0, 0.01, size=12)
    t = IdsTable(e, v, s)
    path = tmp_path / "ids.csv"
    t.to_csv(path)
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(back[:, 0], t.energies)
    assert np.array_equal(back[:, 1], t.values)
    assert np.array_equal(back[:, 2], t.stderr)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _monotone_tables(draw):
    """IdsTables with any finite entries: subnormals, -0.0, extreme magnitudes."""
    n = draw(st.integers(2, 30))
    energies = sorted(draw(st.lists(_FINITE, min_size=n, max_size=n, unique=True)))
    values = sorted(draw(st.lists(_FINITE, min_size=n, max_size=n)))
    stderr = draw(st.lists(_FINITE, min_size=n, max_size=n))
    return IdsTable(np.array(energies), np.array(values), np.array(stderr))


@settings(max_examples=200, deadline=None)
@given(table=_monotone_tables())
def test_csv_roundtrip_is_bit_exact(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ids.csv"
        table.to_csv(path)
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    for k, name in enumerate(("energies", "values", "stderr")):
        assert back[:, k].tobytes() == getattr(table, name).tobytes()


# ---------------------------------------------------------------------------
# the estimator


def test_estimate_validation():
    spec = EnsembleSpec("anderson")
    grid = np.linspace(-1, 1, 5)
    with pytest.raises(ValueError):
        estimate_ids(spec, 99, 10, grid)
    with pytest.raises(ValueError):
        estimate_ids(spec, 100, 0, grid)
    with pytest.raises(ValueError):
        estimate_ids(spec, 100, 10, np.array([0.0]))
    with pytest.raises(ValueError):
        estimate_ids(spec, 100, 10, np.array([0.0, 0.0, 1.0]))


def test_estimate_worker_invariant():
    spec = EnsembleSpec("anderson")
    grid = np.linspace(-2.0, 3.0, 11)
    a = estimate_ids(spec, 100, 40, grid, seed=7, workers=1)
    b = estimate_ids(spec, 100, 40, grid, seed=7, workers=2)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.stderr, b.stderr)
    assert np.all(np.diff(a.values) >= 0)


def test_estimate_stderr_scales_with_samples():
    spec = EnsembleSpec("anderson")
    grid = np.linspace(-1.0, 2.0, 7)
    small = estimate_ids(spec, 100, 64, grid, seed=3)
    big = estimate_ids(spec, 100, 256, grid, seed=3)
    ratio = np.mean(big.stderr) / np.mean(small.stderr)
    assert 0.3 < ratio < 0.7  # ~1/2 from quadrupling the sample count


# ---------------------------------------------------------------------------
# Holder moduli


def _two_slope_table():
    e = np.linspace(0.0, 1.0, 201)
    v = np.where(e < 0.5, 0.2 * e, 1.8 * e - 0.8)
    return IdsTable(e, v, np.zeros_like(e))


def test_holder_modulus_exact_two_slopes():
    t = _two_slope_table()
    w = math.exp(-1.0)
    assert _holder_modulus(t, 1.0, 1.0) == pytest.approx(1.8 * w, rel=1e-12)


def test_holder_modulus_resolution_guard():
    t = _two_slope_table()  # grid step 0.005
    with pytest.raises(ValueError, match="below grid resolution"):
        _holder_modulus(t, 6.0, 1.0)  # window exp(-6) ~ 0.0025
    with pytest.raises(ValueError):
        _holder_modulus(t, -1.0, 1.0)
    with pytest.raises(ValueError):
        _holder_modulus(t, 1.0, 0.0)


def test_holder_fit_recovers_sqrt_exponent():
    e = np.linspace(0.0, 1.0, 2001)
    t = IdsTable(e, np.sqrt(e), np.zeros_like(e))
    h, intercept, mods = holder_exponent_fit(t, scales=(4.0, 9.0, 16.0), eta=0.5)
    # sup increment of sqrt over width-w windows is sqrt(w) = exp(-l^eta / 2)
    assert h == pytest.approx(0.5, abs=0.02)
    assert len(mods) == 3 and np.all(mods > 0)
    assert math.isfinite(intercept)
    with pytest.raises(ValueError):
        holder_exponent_fit(t, scales=(4.0,), eta=0.5)
