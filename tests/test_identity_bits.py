"""Golden bits of the deterministic identity checks.

The quantum-graph root scan, the split-box search, the Hellmann-Feynman check
and the dimer trace report feed ACCEPT-05, -13, -14 and -15 through fixed
operations, so a refactor of them must keep every bit. A change to a value
below is a change of results and needs its own justification.
"""

import numpy as np
import pytest

from randspec import (
    EnsembleSpec,
    QGraphInstance,
    TridiagonalOperator,
    eigenvalues_in,
    ellipticity_report,
    graph_eigenvalues,
    hellmann_feynman_check,
    split_box_search,
)


def _hex(values):
    return [float(x).hex() for x in values]


# ---------------------------------------------------------------------------
# quantum-graph roots on the api-small windows: couplings scaled to max 0.5,
# one graph eigenvalue per window


def test_graph_eigenvalues_golden_bits():
    rng = np.random.default_rng(2026)
    want = {
        (6, (3.0, 4.2)): (
            ["0x1.cf9141ffb8a22p-4", "0x1.9e74e6c2055cep-2", "0x1.2ea3826f448a1p-2",
             "0x1.dfedcb5cb2f71p-3", "0x1.cbbe3f3b6048ap-3", "0x1.0000000000000p-1"],
            ["0x1.c14415ec60002p+1"],
        ),
        (8, (2.6, 4.0)): (
            ["0x1.df4480da117ccp-2", "0x1.77a119f90f763p-4", "0x1.59a52a31be303p-2",
             "0x1.3be60c9493271p-3", "0x1.0000000000000p-1", "0x1.e70df31ee88dep-2",
             "0x1.50b077b016711p-2", "0x1.8e910c82ff677p-2"],
            ["0x1.6c6cb4bdfccccp+1"],
        ),
    }
    for (size, window), (omega_bits, root_bits) in want.items():
        omega = rng.random(size)
        omega = 0.5 * omega / omega.max()
        assert _hex(omega) == omega_bits
        assert _hex(graph_eigenvalues(QGraphInstance(omega), window)) == root_bits


# ---------------------------------------------------------------------------
# the first ACCEPT-15 double well


def test_split_box_search_golden_bits():
    rng = np.random.default_rng(20260815)
    size = 60
    depth = 5.0 + 2.5 * rng.random()
    p = int(rng.integers(12, 23))
    noise = 0.1 * rng.random(size // 2)
    v = np.concatenate([noise, noise[::-1]])
    v[p - 1] -= depth
    v[size - p] -= depth
    op = TridiagonalOperator(v, np.ones(size - 1))
    pair = eigenvalues_in(op, -depth - 3.0, -2.2)[:2]
    center = 0.5 * float(pair[0] + pair[1])
    assert center.hex() == "-0x1.a6033491cde38p+2"
    res = split_box_search(op, center, 1e-6, 6, 1e-4)
    assert (res.x_minus, res.x_plus, res.window_count, res.meets_target) == (27, 33, 2, True)
    assert _hex([res.d_left, res.d_right, res.achieved]) == [
        "0x1.cc58000000000p-36", "0x1.3600000000000p-42", "0x1.cc58000000000p-36"
    ]


# ---------------------------------------------------------------------------
# Hellmann-Feynman on one fixed operator: (analytic, rel_err, energy, gap,
# radial_residual)

_HF_OP = TridiagonalOperator(
    np.array([0.3, -0.7, 1.1, 0.2, -0.4, 0.9, -1.2, 0.5]),
    np.array([1.0, 0.8, 1.3, 0.6, 1.1, 0.9, 1.2]),
)
_HF_GOLDEN = {
    "anderson-diagonal": (
        ("anderson", 0.0, 3, ("diagonal", 4)),
        ["0x1.48e563bb981e9p-3", "0x1.4a9cafa3d0a8ep-36", "-0x1.28eba64baef99p+0",
         "0x1.dcbcf0ee11408p-2", "0x0.0p+0"],
    ),
    "anderson-coupling": (
        ("anderson", 0.0, 3, ("coupling", 5)),
        ["-0x1.19ecbe05e09d4p-1", "0x1.57deb04016d17p-31", "-0x1.28eba64baef99p+0",
         "0x1.dcbcf0ee11408p-2", "0x1.4000000000000p-50"],
    ),
    # shifted by +3 so that E_2 lies in (0, pi^2), where lambda exists
    "qgraph-diagonal": (
        ("qgraph", 3.0, 2, ("diagonal", 6)),
        ["-0x1.d392dcd772bb7p-10", "0x1.0c2a642c31b80p-27", "0x1.5fe51d78ccb68p+0",
         "0x1.dcbcf0ee11404p-2", "0x1.0000000000000p-58"],
    ),
}


@pytest.mark.parametrize("name", list(_HF_GOLDEN))
def test_hellmann_feynman_golden_bits(name):
    (kind, shift, j, pert), want = _HF_GOLDEN[name]
    op = TridiagonalOperator(_HF_OP.diag + shift, _HF_OP.offdiag)
    chk = hellmann_feynman_check(EnsembleSpec(kind), op, j, pert)
    assert _hex([chk.analytic, chk.rel_err, chk.energy, chk.gap, chk.radial_residual]) == want


# ---------------------------------------------------------------------------
# dimer traces at the ACCEPT-13 energies: every entry is a dyadic rational
# there, so the traces are exact and the formula error is 0


def test_ellipticity_report_golden_traces():
    keys = ("A", "A2", "B", "B2", "C_delta")
    want = {
        -2.5: (-4.25, 16.0625, -3.25, 8.5625, -4.0),
        -2.0: (-2.0, 2.0, -1.0, -1.0, -1.75),
        -1.5: (-0.25, -1.9375, 0.75, -1.4375, 0.0),
        -0.5: (1.75, 1.0625, 2.75, 5.5625, 2.0),
        0.0: (2.0, 2.0, 3.0, 7.0, 2.25),
    }
    for energy, traces in want.items():
        rep = ellipticity_report(energy)
        assert [rep.traces[k] for k in keys] == list(traces)
        assert rep.max_formula_error == 0.0
        assert rep.classes == {
            k: "hyperbolic" if abs(t) > 2.0 else "parabolic" if abs(t) == 2.0 else "elliptic"
            for k, t in zip(keys, traces)
        }
