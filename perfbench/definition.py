"""What the benchmark measures: workloads, metrics, units and bounds.

`python3 perfbench/run.py --write-benchmark-json` writes BENCHMARK.json
from this module; a test keeps the committed file equal to it.
"""

from __future__ import annotations

RUN_SECONDS = 30

WORKLOADS = [
    {
        "name": "suite-counts",
        "why": "count-only paper-suite sections, L=64-2000, workers=2: the only "
        "workload with wide-lane Sturm sweeps, draw generation and the "
        "map_blocks pool together",
    },
    {
        "name": "suite-unfold",
        "why": "unfolded paper-suite sections, L=1e4-2e4, workers=1: IDS builds, "
        "bisection extraction and lane-starved sweeps; draw generation is "
        "under 1%",
    },
    {
        "name": "api-small",
        "why": "public library calls on boxes with L<=60 in one process: the same "
        "sweep at one lane per call, where numpy per-call overhead dominates",
    },
]

# (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_STURM = [
    (f"eigensolve.sturm_counts.{regime}.{field}", unit, better)
    for regime in ("single", "narrow", "wide")
    for field, unit, better in (
        ("calls", "count", "lower"),
        ("pivots", "count", "lower"),
        ("s", "s", "lower"),
        ("ns_per_pivot", "ns/pivot", "lower"),
    )
]

# (name, unit, better); layers are named after the program's modules
PER_LAYER = [
    ("blocks.uniform_block.s", "s", "lower"),
    ("blocks.uniform_block.mb_computed", "MB", "lower"),
    ("blocks.map_blocks.blocks", "count", "lower"),
    ("blocks.map_blocks.s", "s", "lower"),
    ("blocks.map_blocks.busy_s", "s", "lower"),
    ("blocks.map_blocks.idle_frac", "fraction", "lower"),
    ("operators.transform.s", "s", "lower"),
    ("operators.coefficients.s", "s", "lower"),
    *_STURM,
    ("eigensolve.batched_eigenvalues_in.eigs", "count", "higher"),
    ("eigensolve.batched_eigenvalues_in.s", "s", "lower"),
    ("eigensolve.batched_eigenvalues_in.ms_per_eig", "ms/eig", "lower"),
    ("eigensolve.batched_eigenvalues_in.pivots_per_eig", "pivots/eig", "lower"),
    ("eigensolve.batched_eigenvalues_in.alloc_peak_mb", "MB", "lower"),
    ("eigensolve.nearest_eigenvalue_distance.ms_per_call", "ms/call", "lower"),
    ("eigensolve.eigenvector.ms_per_call", "ms/call", "lower"),
    ("eigensolve.eigenvalues_in.ms_per_call", "ms/call", "lower"),
    ("ids.estimate_ids.calls", "count", "lower"),
    ("ids.estimate_ids.pivots", "count", "lower"),
    ("ids.estimate_ids.s", "s", "lower"),
    ("probes.self_s", "s", "lower"),
    ("cli.load_config.s", "s", "lower"),
    ("cli.report.s", "s", "lower"),
    ("cli.report.kb", "KB", "lower"),
    ("pruefer.split_box_search.ms_per_call", "ms/call", "lower"),
    ("qgraph.graph_eigenvalues.ms_per_call", "ms/call", "lower"),
    ("transfer.lyapunov.ms_per_call", "ms/call", "lower"),
    ("kernel.sturm_counts.short_batch.ns_per_pivot", "ns/pivot", "lower"),
    ("kernel.sturm_counts.long_x10.ns_per_pivot", "ns/pivot", "lower"),
    ("kernel.sturm_counts.long_x1.ns_per_pivot", "ns/pivot", "lower"),
    ("kernel.sturm_counts.scalar_L30.ns_per_pivot", "ns/pivot", "lower"),
    ("kernel.batched_eigenvalues_in.L10000.ms_per_eig", "ms/eig", "lower"),
    ("kernel.batched_eigenvalues_in.L10000.vs_stebz", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
