"""Workload inputs, generated from the benchmark seed alone.

Every workload is a closed loop with one client: the next `randspec run`
process (or the next round of library calls) starts only after the previous
one has exited. The seed chooses the master seed of the suite configs and
the random operators of the library calls; the shapes, sample counts and
call list are fixed, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0

# Sections copied from the bundled paper_suite.cfg, so a later edit of that
# file does not silently change the benchmark. Checks are dropped: at the
# reduced scale they are expected to fail.
SECTIONS = {
    "wegner_anderson": {
        "type": "wegner", "kind": "anderson", "size": "100", "energy": "0.0",
        "widths": "1e-4,3.16e-4,1e-3,3.16e-3,1e-2", "samples": "100000",
    },
    "minami_anderson": {
        "type": "minami", "kind": "anderson", "size": "1000", "energy": "0.0",
        "widths": "4e-4,8e-4,1.6e-3,3.2e-3", "samples": "1000000",
    },
    "minami_hopping_edge": {
        "type": "minami", "kind": "hopping", "size": "100", "energy": "3.8",
        "widths": "0.2,0.3,0.4", "samples": "1000000",
    },
    "decorrelation_mirror_control": {
        "type": "decorrelation", "kind": "hopping", "size": "100",
        "energy_a": "2.0", "energy_b": "-2.0", "samples": "100000",
    },
    "decorrelation_anderson": {
        "type": "decorrelation", "kind": "anderson", "size": "64",
        "energy_a": "0.5", "energy_b": "-0.9", "half_width": "0.00025",
        "samples": "1000000",
    },
    "decorrelation_disjoint": {
        "type": "decorrelation", "kind": "anderson", "size": "64",
        "energy_a": "0.5", "energy_b": "-0.9", "half_width": "0.002",
        "disjoint": "true", "samples": "1000000",
    },
    "qgraph_minami": {
        "type": "qgraph-minami", "law": "uniform:0,3", "size": "2000",
        "energy": "4.0", "widths": "1e-4,2e-4,4e-4,8e-4", "samples": "200000",
    },
    "levels_anderson": {
        "type": "level_statistics", "kind": "anderson", "size": "20000",
        "energy": "0.0", "intervals": "-1.25:-0.75,0.75:1.25,0:1,1:2,0:2",
        "samples": "10000",
    },
    "joint_anderson": {
        "type": "joint_independence", "kind": "anderson", "size": "10000",
        "energy_a": "0.3", "energy_b": "-0.8", "length_a": "1.0",
        "length_b": "1.0", "samples": "10000",
    },
    "spacing_anderson": {
        "type": "spacing", "kind": "anderson", "size": "10000", "energy": "0.0",
        "half_width": "40.0", "samples": "150",
    },
}

# name -> (sections, workers, --scale). suite-unfold runs at a quarter of the
# paper-suite smoke scale so that one run takes about 10 s instead of 18 s;
# the boxes keep their full length, so the sweeps keep their shape.
SUITES = {
    "suite-counts": (
        ("wegner_anderson", "minami_anderson", "minami_hopping_edge",
         "decorrelation_mirror_control", "decorrelation_anderson",
         "decorrelation_disjoint", "qgraph_minami"),
        2,
        0.02,
    ),
    "suite-unfold": (
        ("levels_anderson", "joint_anderson", "spacing_anderson"),
        1,
        0.005,
    ),
}


def master_seed(seed: int) -> int:
    """Master seed of the generated suite config (63 bits)."""
    state = np.random.SeedSequence([int(seed), 0x5EED]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


def suite_config(workload: str, seed: int) -> str:
    """INI text handed to `randspec run` for a suite workload."""
    sections, _, _ = SUITES[workload]
    lines = ["[experiment]", f"seed = {master_seed(seed)}", ""]
    for name in sections:
        lines.append(f"[probe:{name}]")
        lines.extend(f"{k} = {v}" for k, v in SECTIONS[name].items())
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# api-small: one process, no pool, one lane per sweep


def _double_well(rng, size):
    """Symmetric double well like ACCEPT-15's, scaled down to `size` sites."""
    depth, p = 6.25, size // 4 + 1
    noise = 0.1 * rng.random(size // 2)
    v = np.concatenate([noise, noise[::-1]])
    v[p - 1] -= depth
    v[size - p] -= depth
    return v, depth


def api_inputs(seed: int) -> list[dict]:
    """The fixed call list of api-small, with operators drawn from `seed`."""
    rng = np.random.default_rng([int(seed), 0xA71])
    calls = []
    for size in (10, 14, 18, 22, 26, 30):
        calls.append({
            "fn": "nearest_eigenvalue_distance",
            "diag": rng.random(size).tolist(),
            "offdiag": np.ones(size - 1).tolist(),
            "energy": float(rng.uniform(-1.5, 2.5)),
        })
    for size in (40, 48, 54, 60):
        lo = float(rng.uniform(-1.0, 1.0))
        calls.append({
            "fn": "eigenvalues_in",
            "diag": rng.random(size).tolist(),
            "offdiag": rng.uniform(1.0, 2.0, size - 1).tolist(),
            "lo": lo,
            "hi": lo + 1.0,
        })
    for size in (40, 48, 54, 60):
        # Like every caller in the repository, ask for the eigenvector of an
        # approximately known eigenvalue; inverse iteration started midway
        # between two eigenvalues does not converge within max_iter steps.
        diag = 4.0 * rng.random(size)
        h = np.diag(diag) + np.diag(np.ones(size - 1), 1) + np.diag(np.ones(size - 1), -1)
        eig = np.linalg.eigvalsh(h)[rng.integers(1, size - 1)]
        calls.append({
            "fn": "eigenvector",
            "diag": diag.tolist(),
            "offdiag": np.ones(size - 1).tolist(),
            "energy": float(eig + 1e-7 * rng.uniform(-1.0, 1.0)),
        })
    # The same well for every seed: the search's sweep count jumps by a third
    # with the sign of 1e-10-scale sub-box eigenvalue shifts, which would
    # make seeds differ in cost.
    diag, depth = _double_well(np.random.default_rng(20260815), 30)
    calls.append({
        "fn": "split_box_search",
        "diag": diag.tolist(),
        "offdiag": np.ones(29).tolist(),
        "pair_window": [-depth - 3.0, -2.2],
        "epsilon": 1e-6,
        "separation": 6,
        "delta_target": 1e-4,
    })
    # Couplings are scaled to max 0.5, which fixes the Lipschitz bound and so
    # the scan length; each window then holds exactly one graph eigenvalue.
    for size, window in ((6, [3.0, 4.2]), (8, [2.6, 4.0])):
        omega = rng.random(size)
        calls.append({
            "fn": "graph_eigenvalues",
            "omega": (0.5 * omega / omega.max()).tolist(),
            "window": window,
        })
    for energy in (-1.0, 0.7):
        calls.append({
            "fn": "lyapunov",
            "law": [-2.0, 2.0],
            "energy": energy,
            "steps": 1000,
            "samples": 16,
            "seed": int(rng.integers(0, 2**31)),
        })
    return calls


def run_api_call(call: dict):
    """Run one library call through the module attributes callers use.

    Returns a JSON-serializable result. The functions are looked up at call
    time so that wrappers installed on the module attributes apply.
    """
    from randspec import eigensolve, operators, pruefer, qgraph, transfer

    fn = call["fn"]
    if fn == "graph_eigenvalues":
        inst = qgraph.QGraphInstance(np.array(call["omega"]))
        return qgraph.graph_eigenvalues(inst, tuple(call["window"])).tolist()
    if fn == "lyapunov":
        spec = operators.EnsembleSpec(
            "anderson", law=operators.UniformLaw(*call["law"])
        )
        est = transfer.lyapunov(
            spec, call["energy"], steps=call["steps"], samples=call["samples"],
            seed=call["seed"],
        )
        return {"gamma": est.gamma, "stderr": est.stderr}
    op = operators.TridiagonalOperator(
        np.array(call["diag"]), np.array(call["offdiag"])
    )
    if fn == "nearest_eigenvalue_distance":
        return eigensolve.nearest_eigenvalue_distance(op, call["energy"])
    if fn == "eigenvalues_in":
        return eigensolve.eigenvalues_in(op, call["lo"], call["hi"]).tolist()
    if fn == "eigenvector":
        res = eigensolve.eigenvector(op, call["energy"])
        return {
            "value": res.value,
            "vector": res.vector.tolist(),
            "residual": res.residual,
            "flagged": bool(res.flagged),
        }
    if fn == "split_box_search":
        lo, hi = call["pair_window"]
        pair = eigensolve.eigenvalues_in(op, lo, hi)[:2]
        center = 0.5 * float(pair[0] + pair[1])
        res = pruefer.split_box_search(
            op, center, call["epsilon"], call["separation"], call["delta_target"]
        )
        return {
            "center": center,
            "x_minus": res.x_minus,
            "x_plus": res.x_plus,
            "d_left": res.d_left,
            "d_right": res.d_right,
            "achieved": res.achieved,
            "meets_target": bool(res.meets_target),
            "window_count": res.window_count,
        }
    raise ValueError(f"unknown api call {fn!r}")

