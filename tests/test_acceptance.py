"""Acceptance suite: one test per headline claim, one printed line each.

Every test freezes its seeds and sample counts, computes the published
statistic, and reports a single PASS/FAIL line through record_criterion (see
conftest).  Tolerances are pinned; the Monte Carlo tests are deterministic
because every probe uses the counter-based block RNG.  The determinism test
(ACCEPT-16) runs the bundled suite at --scale 0.02 by default; set
RANDSPEC_ACCEPT_FULL=1 to rerun it at full sample counts.
"""

import math
import os

import numpy as np
import pytest

from randspec import (
    EnsembleSpec,
    QGraphInstance,
    TridiagonalOperator,
    UniformLaw,
    consecutive_sine_floor,
    decorrelation_probe,
    eigenvector,
    eigenvalues_in,
    ellipticity_report,
    estimate_ids,
    graph_eigenvalues,
    hellmann_feynman_check,
    holder_exponent_fit,
    joint_independence_probe,
    level_statistics_probe,
    lyapunov,
    make_draw,
    minami_probe,
    pruefer_trace,
    qgraph_minami_probe,
    reduced_operator,
    spacing_probe,
    split_box_search,
    sturm_counts,
    wegner_probe,
    wronskian_sequence,
)
from randspec import cli

from conftest import random_operator, record_criterion
from oracles import c_factor, free_laplacian_ids, m_matrix

# the slow tier: `pytest -m "not accept"` runs everything else in under a minute
pytestmark = pytest.mark.accept


def test_accept_01_eigensolver_oracle_equivalence():
    """Sturm counts match dense counts exactly; eigenvalues to 1e-10."""
    rng = np.random.default_rng(101)
    count_mismatch = 0
    worst_eig = 0.0
    for _ in range(1000):
        op = random_operator(rng, size_cap=12)
        dense = np.linalg.eigvalsh(op.to_dense())
        lo, hi = op.gershgorin()
        thresholds = rng.uniform(lo - 0.5, hi + 0.5, size=50)
        ours = sturm_counts(op.diag, op.offdiag, thresholds)
        oracle = np.searchsorted(dense, thresholds, side="left")
        count_mismatch += int(np.count_nonzero(ours != oracle))
        extracted = eigenvalues_in(op, lo - 1.0, hi + 1.0)
        worst_eig = max(worst_eig, float(np.max(np.abs(extracted - dense))))
    ok = count_mismatch == 0 and worst_eig <= 1e-10
    record_criterion(
        "ACCEPT-01",
        ok,
        f"1000 mixed ops x 50 thresholds: {count_mismatch} count mismatches, "
        f"max eigenvalue error {worst_eig:.2e} (<= 1e-10)",
    )


def test_accept_02_free_laplacian_ids():
    """Zero-potential IDS matches 1 - arccos(E/2)/pi within 2/L."""
    size = 1000
    spec = EnsembleSpec("anderson", law=UniformLaw(0.0, 0.0))
    grid = np.linspace(-2.2, 2.2, 200)
    table = estimate_ids(spec, size, 2, grid, seed=102)
    err = float(np.max(np.abs(table.values - free_laplacian_ids(grid))))
    ok = err <= 2.0 / size
    record_criterion(
        "ACCEPT-02",
        ok,
        f"free IDS on 200-point grid, L={size}: max error {err:.2e} "
        f"(<= {2.0 / size:.0e})",
    )


def test_accept_03_hopping_spectral_symmetry():
    """Hopping spectra pair as +/-E to 1e-10 and stay inside [-4, 4]."""
    spec = EnsembleSpec("hopping")
    size = 500
    worst_pair = 0.0
    worst_range = 0.0
    worst_oracle = 0.0
    for index in range(100):
        op = make_draw(spec, size, 103, index)
        vals = eigenvalues_in(op, -4.5, 4.5)
        oracle = np.linalg.eigvalsh(op.to_dense())
        worst_oracle = max(worst_oracle, float(np.max(np.abs(vals - oracle))))
        worst_pair = max(worst_pair, float(np.max(np.abs(vals + vals[::-1]))))
        worst_range = max(worst_range, float(np.max(np.abs(vals))))
    ok = worst_pair <= 1e-10 and worst_range <= 4.0 + 1e-10 and worst_oracle <= 1e-10
    record_criterion(
        "ACCEPT-03",
        ok,
        f"100 hopping draws, L={size}: max |E_k + E_(L+1-k)| {worst_pair:.2e}, "
        f"max |E| {worst_range:.12f}, max vs dense oracle {worst_oracle:.2e}",
    )


def test_accept_04_wronskian_identity():
    """Recursion residual <= 1e-10 and the sine-product bound pointwise."""
    spec = EnsembleSpec("hopping")
    size = 120
    rng = np.random.default_rng(104)
    worst_resid = 0.0
    worst_excess = -math.inf
    pairs = 0
    for index in range(10):
        op = make_draw(spec, size, 104, index)
        vals, vecs = np.linalg.eigh(op.to_dense())
        for _ in range(10):
            i, j = rng.choice(size, size=2, replace=False)
            res = wronskian_sequence(
                vecs[:, i], vecs[:, j], op.offdiag, float(vals[i]), float(vals[j])
            )
            worst_resid = max(worst_resid, res.max_violation)
            worst_excess = max(
                worst_excess, res.sine_product_max - res.sine_product_bound
            )
            pairs += 1
    ok = worst_resid <= 1e-10 and worst_excess <= 1e-10
    record_criterion(
        "ACCEPT-04",
        ok,
        f"{pairs} eigenpair pairs, L={size}: max recursion residual "
        f"{worst_resid:.2e}, max (|r_u r_v sin| - M|dE|) {worst_excess:.2e}",
    )


def test_accept_05_hellmann_feynman():
    """Analytic gradients vs central differences on all simple levels.

    Each level is probed along its best-conditioned directions (the site
    where |phi_j| peaks and the adjacent coupling), so the relative error
    compares against an O(1) derivative rather than finite-difference noise.
    """
    worst_rel = 0.0
    worst_radial = 0.0
    checked = 0
    for index in range(20):
        kind = "anderson" if index % 2 == 0 else "hopping"
        spec = EnsembleSpec(kind)
        op = make_draw(spec, 10, 105, index)
        vals, vecs = np.linalg.eigh(op.to_dense())
        gaps = np.diff(vals)
        for j in range(1, 11):
            inner = gaps[max(j - 2, 0): j]
            if inner.size and float(np.min(inner)) <= 1e-7:
                continue
            phi = vecs[:, j - 1]
            site = int(np.argmax(np.abs(phi))) + 1
            coup = int(np.argmax(np.abs(phi[1:] * phi[:-1]))) + 2
            for direction in (("diagonal", site), ("coupling", coup)):
                chk = hellmann_feynman_check(spec, op, j, direction)
                worst_rel = max(worst_rel, chk.rel_err)
                if chk.radial_residual is not None:
                    worst_radial = max(worst_radial, chk.radial_residual)
                checked += 1
    ok = worst_rel <= 1e-6 and worst_radial <= 1e-8
    record_criterion(
        "ACCEPT-05",
        ok,
        f"{checked} gradient checks on 20 draws: max rel_err {worst_rel:.2e} "
        f"(<= 1e-6), max radial residual {worst_radial:.2e} (<= 1e-8)",
    )


def test_accept_06_wegner_scaling():
    """Window occupancy scales linearly in the width (slope in [0.9, 1.1])."""
    rep = wegner_probe(
        EnsembleSpec("anderson"), 0.0, np.logspace(-4, -2, 5), 100, 100000, seed=106
    )
    slope = rep.estimate("slope").value
    ok = 0.9 <= slope <= 1.1
    record_criterion(
        "ACCEPT-06",
        ok,
        f"Anderson Wegner slope {slope:.4f} in [0.9, 1.1], "
        f"C_hat {rep.estimate('C_hat').value:.3f}",
    )


def test_accept_07_minami_scaling():
    """Pair counts scale quadratically; band-edge pairs even faster."""
    rep = minami_probe(
        EnsembleSpec("anderson"),
        0.0,
        (4e-4, 8e-4, 1.6e-3, 3.2e-3),
        1000,
        1000000,
        seed=107,
    )
    slope = rep.estimate("slope").value
    edge = minami_probe(
        EnsembleSpec("hopping"), 3.8, (0.2, 0.3, 0.4), 100, 1000000, seed=1071
    )
    edge_slope = edge.estimate("slope").value
    ok = 1.8 <= slope <= 2.2 and edge_slope >= 1.5
    record_criterion(
        "ACCEPT-07",
        ok,
        f"Anderson k=2 slope {slope:.4f} in [1.8, 2.2]; hopping edge slope "
        f"{edge_slope:.2f} >= 1.5",
    )


def test_accept_08_decorrelation_mirror_control():
    """At E' = -E the hopping window events coincide exactly."""
    rep = decorrelation_probe(
        EnsembleSpec("hopping"), 2.0, -2.0, 100, 100000, seed=108
    )
    mismatch = rep.estimate("event_mismatch").value
    p_first = rep.estimate("p_first").value
    p_second = rep.estimate("p_second").value
    p_joint = rep.estimate("p_joint").value
    ok = mismatch == 0.0 and p_first == p_second == p_joint
    record_criterion(
        "ACCEPT-08",
        ok,
        f"mirror events: mismatch {mismatch}, p_first = p_second = p_joint = "
        f"{p_joint:.5f} (exact event identity)",
    )


def test_accept_09_decorrelation_factorization():
    """Distinct energies: joint occupancy factorizes within [0.5, 2] at 3 sigma."""
    rep = decorrelation_probe(
        EnsembleSpec("anderson"),
        0.5,
        -0.9,
        64,
        1000000,
        seed=109,
        half_width=0.00025,
    )
    ratio = rep.estimate("ratio").value
    sigma = rep.estimate("excess_sigma").value
    ok = 0.5 <= ratio <= 2.0 and abs(sigma) <= 3.0
    record_criterion(
        "ACCEPT-09",
        ok,
        f"independence ratio {ratio:.3f} in [0.5, 2], excess {sigma:+.2f} sigma "
        f"(|.| <= 3)",
    )


def test_accept_10_poisson_local_statistics():
    """Unfolded window counts are Poisson (TV <= 0.03) and uncorrelated.

    The correlation pair uses width-0.5 windows: the residual finite-box
    correlation (rigidity at short range, common-mode density fluctuations
    at long range) scales with window width, while the null variance of
    corr_z does not.
    """
    intervals = ((-1.25, -0.75), (0.75, 1.25), (0.0, 1.0), (1.0, 2.0), (0.0, 2.0))
    rep, _ = level_statistics_probe(
        EnsembleSpec("anderson"), 0.0, 20000, 10000, seed=110, intervals=intervals
    )
    tvs = {
        f"{a:.6g},{b:.6g}": rep.estimate(f"tv_poisson[{a:.6g},{b:.6g}]").value
        for a, b in intervals
    }
    corr_z = rep.estimate("corr_z").value
    worst = max(tvs.values())
    ok = worst <= 0.03 and abs(corr_z) <= 3.0
    record_criterion(
        "ACCEPT-10",
        ok,
        f"L=20000, 1e4 draws: max TV to Poisson {worst:.4f} over 5 intervals "
        f"(<= 0.03), disjoint-count corr_z {corr_z:+.2f} (|.| <= 3)",
    )


def test_accept_11_two_energy_independence():
    """Joint count pmf at two energies factorizes (TV <= 0.05)."""
    rep = joint_independence_probe(
        EnsembleSpec("anderson"), 0.3, -0.8, 10000, 10000, seed=111
    )
    tv = rep.estimate("tv_joint").value
    ok = tv <= 0.05
    record_criterion(
        "ACCEPT-11",
        ok,
        f"joint pmf vs product of Poissons at (0.3, -0.8): TV {tv:.4f} (<= 0.05)",
    )


def test_accept_12_spacing_law():
    """Pooled unfolded spacings are exponential (KS <= 0.05, mean 1 +/- 3%)."""
    rep, _ = spacing_probe(
        EnsembleSpec("anderson"), 0.0, 10000, 150, seed=11, half_width=40.0
    )
    n = int(rep.estimate("n_spacings").value)
    ks = rep.estimate("ks_exponential").value
    mean = rep.estimate("mean_spacing").value
    ok = n >= 10000 and ks <= 0.05 and 0.97 <= mean <= 1.03
    record_criterion(
        "ACCEPT-12",
        ok,
        f"{n} spacings: KS to exp(-x) {ks:.4f} (<= 0.05), mean {mean:.4f} "
        f"(1 +/- 0.03)",
    )


def test_accept_13_dimer_traces_lyapunov_holder():
    """Trace identities, regime table, positive Lyapunov, positive Holder."""
    worst_trace = 0.0
    for energy in (-2.5, -2.0, -1.5, -0.5, 0.0):
        rep = ellipticity_report(energy)
        worst_trace = max(worst_trace, rep.max_formula_error)
    regimes = (
        ellipticity_report(-2.5).classes["A"] == "hyperbolic"
        and ellipticity_report(-2.0).classes["A"] == "parabolic"
        and ellipticity_report(-2.0).classes["B"] == "elliptic"
        and ellipticity_report(-1.5).classes["A"] == "elliptic"
        and ellipticity_report(-1.5).classes["A2"] == "elliptic"
        and ellipticity_report(-1.5).classes["B"] == "elliptic"
    )
    dimer = EnsembleSpec("dimer_sign")
    gammas = {}
    ci_floor = math.inf
    for energy in (-2.5, -1.5, -0.5, 0.0):
        est = lyapunov(dimer, energy, steps=20000, samples=64, seed=7)
        gammas[energy] = est.gamma
        ci_floor = min(ci_floor, est.ci99[0])
    table = estimate_ids(dimer, 200, 512, np.linspace(-3.3, 3.3, 441), seed=3)
    h, _, _ = holder_exponent_fit(table, (4, 9, 16), 0.5)
    ok = worst_trace <= 1e-12 and regimes and ci_floor > 0.0 and h > 0.0
    gamma_txt = ", ".join(f"{e}: {g:.4f}" for e, g in gammas.items())
    record_criterion(
        "ACCEPT-13",
        ok,
        f"trace identities to {worst_trace:.1e}; regime table reproduced; "
        f"gamma 99% CI floor {ci_floor:.4f} > 0 ({gamma_txt}); "
        f"Holder exponent {h:.3f} > 0",
    )


def test_accept_14_quantum_graph():
    """Scalar-factor identity, free secular roots, and qgraph pair scaling."""
    rng = np.random.default_rng(1014)
    poles = np.array([(k * math.pi) ** 2 for k in range(1, 4)])
    worst_spec = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 11))
        inst = QGraphInstance(3.0 * rng.random(size))
        energy = float(rng.uniform(0.2, 30.0))
        while float(np.min(np.abs(poles - energy))) < 0.1:
            energy = float(rng.uniform(0.2, 30.0))
        c = c_factor(energy)
        lhs = np.sort(c * np.linalg.eigvalsh(reduced_operator(inst, energy).to_dense()))
        rhs = np.linalg.eigvalsh(m_matrix(inst, energy))
        scale = max(1.0, float(np.max(np.abs(rhs))))
        worst_spec = max(worst_spec, float(np.max(np.abs(lhs - rhs))) / scale)

    free = QGraphInstance(np.zeros(12))
    roots = graph_eigenvalues(free, (0.05, 9.85), tol=1e-12)
    targets = np.sort(
        [
            math.acos(2.0 * math.cos(k * math.pi / 13.0)) ** 2
            for k in range(5, 9)
        ]
    )
    free_ok = len(roots) == len(targets)
    worst_root = (
        float(np.max(np.abs(roots - targets))) if free_ok else math.inf
    )

    rep = qgraph_minami_probe(
        UniformLaw(0.0, 3.0), 4.0, (1e-4, 2e-4, 4e-4, 8e-4), 2000, 200000, seed=114
    )
    slope = rep.estimate("slope_k2").value
    ok = worst_spec <= 1e-10 and free_ok and worst_root <= 1e-8 and 1.8 <= slope <= 2.2
    record_criterion(
        "ACCEPT-14",
        ok,
        f"scalar-factor identity rel err {worst_spec:.2e} on 1000 (omega, E); "
        f"free roots ({len(roots)}/4) max err {worst_root:.2e}; "
        f"k=2 slope {slope:.4f} in [1.8, 2.2]",
    )


def test_accept_15_split_box():
    """Near-degenerate double wells split into eps-clean sub-boxes."""
    rng = np.random.default_rng(20260815)
    size = 60
    worst_gap = 0.0
    worst_split = 0.0
    eps0 = math.inf
    all_ok = True
    for _ in range(20):
        depth = 5.0 + 2.5 * rng.random()
        p = int(rng.integers(12, 23))
        noise = 0.1 * rng.random(size // 2)
        v = np.concatenate([noise, noise[::-1]])
        v[p - 1] -= depth
        v[size - p] -= depth
        op = TridiagonalOperator(v, np.ones(size - 1))
        pair = eigenvalues_in(op, -depth - 3.0, -2.2)[:2]
        gap = float(pair[1] - pair[0])
        center = 0.5 * float(pair[0] + pair[1])
        res = split_box_search(op, center, 1e-6, 6, 1e-4)
        ground = eigenvector(op, float(pair[0]))
        trace = pruefer_trace(op, ground.value, ground.vector)
        eps0 = min(eps0, consecutive_sine_floor(trace))
        worst_gap = max(worst_gap, gap)
        worst_split = max(worst_split, res.achieved)
        all_ok = all_ok and res.meets_target and res.window_count >= 2
    ok = all_ok and worst_gap < 1e-8 and worst_split <= 1e-4
    record_criterion(
        "ACCEPT-15",
        ok,
        f"20 double wells, L={size}: worst gap {worst_gap:.2e} (< 1e-8), worst "
        f"split distance {worst_split:.2e} (<= 1e-4); empirical eps_0 {eps0:.3f} "
        f"reported, not asserted",
    )


def test_accept_16_determinism(tmp_path):
    """Entire bundled suite byte-identical across runs and worker counts."""
    scale = "1" if os.environ.get("RANDSPEC_ACCEPT_FULL") == "1" else "0.02"
    outs = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / tag
        code = cli.main(
            [
                "run",
                "paper-suite",
                "--scale",
                scale,
                "--workers",
                workers,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs.append(out)

    def stable(path):
        if path.suffix == ".json":
            lines = path.read_text().splitlines()
            return "\n".join(ln for ln in lines if "runtime_s" not in ln)
        return path.read_bytes()

    base = sorted(p.name for p in outs[0].iterdir())
    identical = True
    for other in outs[1:]:
        if sorted(p.name for p in other.iterdir()) != base:
            identical = False
            break
        for name in base:
            if stable(outs[0] / name) != stable(other / name):
                identical = False
                break
    ok = identical and len(base) > 0
    record_criterion(
        "ACCEPT-16",
        ok,
        f"paper-suite at scale {scale}: {len(base)} output files byte-identical "
        f"across two runs and workers {{1, 8}} (runtime field excluded)",
    )
