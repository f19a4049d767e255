"""Per-layer metrics and consistency checks computed from one run's spans.

A layer's self time is its span's duration minus the part of that interval
its child spans cover (the union, so parallel worker blocks count once).
Layers a workload never enters report 0.
"""

from __future__ import annotations

from collections import defaultdict

WIDE_LANES = 1024  # lanes per site step from which a sweep counts as wide


def regime(lanes: int) -> str:
    """Sweep regime by lanes per site step: single, narrow or wide."""
    if lanes <= 1:
        return "single"
    return "wide" if lanes >= WIDE_LANES else "narrow"


def _union(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans) -> dict:
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _union(children[s["id"]]) for s in spans
    }


def check_spans(spans, main_pid) -> list:
    """Problems with the span tree: open spans, orphans, children outside
    their parents, negative self time, worker spans not merged."""
    problems = []
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['name']} not closed")
            continue
        parent = s["parent"]
        if parent is None:
            continue
        p = by_id.get(parent)
        if p is None:
            problems.append(f"span {s['name']} has no parent {parent}")
        elif s["start"] < p["start"] or s["end"] > p["end"]:
            problems.append(f"span {s['name']} outside its parent {p['name']}")
    if problems:
        return problems
    for sid, t in self_times(spans).items():
        if t < -1e-9:
            problems.append(f"negative self time in {by_id[sid]['name']}")
    for s in spans:
        if s["name"] != "blocks.map_blocks":
            continue
        blocks = [c for c in spans if c["parent"] == s["id"]]
        if len(blocks) != s["attrs"]["blocks"]:
            problems.append(
                f"map_blocks ran {s['attrs']['blocks']} blocks, "
                f"{len(blocks)} block spans merged"
            )
        if s["attrs"]["lanes"] > 1 and not any(c["pid"] != main_pid for c in blocks):
            problems.append("pool ran but no worker spans were merged")
    return problems


def _ancestors(span, by_id):
    p = by_id.get(span["parent"])
    while p is not None:
        yield p
        p = by_id.get(p["parent"])


def layer_metrics(spans, report_bytes: int) -> dict:
    """Every per-layer metric of definition.PER_LAYER that spans give."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    dur = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(lambda: defaultdict(int))
    for s in spans:
        name = s["name"]
        dur[name] += s["end"] - s["start"]
        calls[name] += 1
        for k, v in s["attrs"].items():
            attrs[name][k] += v
    m = {}

    def per_call_ms(name):
        return 1e3 * dur[name] / calls[name] if calls[name] else 0.0

    m["blocks.uniform_block.s"] = dur["blocks.uniform_block"]
    m["blocks.uniform_block.mb_computed"] = attrs["blocks.uniform_block"]["bytes"] / 1e6
    m["blocks.map_blocks.blocks"] = attrs["blocks.map_blocks"]["blocks"]
    m["blocks.map_blocks.s"] = dur["blocks.map_blocks"]
    busy = dur["blocks.block"]
    capacity = sum(
        (s["end"] - s["start"]) * s["attrs"]["lanes"]
        for s in spans
        if s["name"] == "blocks.map_blocks"
    )
    m["blocks.map_blocks.busy_s"] = busy
    m["blocks.map_blocks.idle_frac"] = max(0.0, 1.0 - busy / capacity) if capacity else 0.0
    m["operators.transform.s"] = dur["operators.transform"]
    m["operators.coefficients.s"] = dur["operators.coefficients"]

    regimes = {r: [0, 0, 0.0] for r in ("single", "narrow", "wide")}
    batched_pivots = 0
    ids_pivots = 0
    for s in spans:
        if s["name"] != "eigensolve.sturm_counts":
            continue
        pivots = s["attrs"].get("pivots", 0)
        acc = regimes[regime(s["attrs"].get("lanes", 0))]
        acc[0] += 1
        acc[1] += pivots
        acc[2] += s["end"] - s["start"]
        names = {a["name"] for a in _ancestors(s, by_id)}
        if "eigensolve.batched_eigenvalues_in" in names:
            batched_pivots += pivots
        if "ids.estimate_ids" in names:
            ids_pivots += pivots
    for name, (n, pivots, secs) in regimes.items():
        base = f"eigensolve.sturm_counts.{name}."
        m[base + "calls"] = n
        m[base + "pivots"] = pivots
        m[base + "s"] = secs
        m[base + "ns_per_pivot"] = 1e9 * secs / pivots if pivots else 0.0

    b = "eigensolve.batched_eigenvalues_in"
    eigs = attrs[b]["eigs"]
    m[b + ".eigs"] = eigs
    m[b + ".s"] = dur[b]
    m[b + ".ms_per_eig"] = 1e3 * dur[b] / eigs if eigs else 0.0
    m[b + ".pivots_per_eig"] = batched_pivots / eigs if eigs else 0.0
    m[b + ".alloc_peak_mb"] = max(
        (s["attrs"].get("alloc_bytes", 0) for s in spans if s["name"] == b), default=0
    ) / 1e6
    for fn in ("nearest_eigenvalue_distance", "eigenvector", "eigenvalues_in"):
        m[f"eigensolve.{fn}.ms_per_call"] = per_call_ms(f"eigensolve.{fn}")
    m["ids.estimate_ids.calls"] = calls["ids.estimate_ids"]
    m["ids.estimate_ids.pivots"] = ids_pivots
    m["ids.estimate_ids.s"] = dur["ids.estimate_ids"]
    m["probes.self_s"] = sum(
        selfs[s["id"]] for s in spans if s["name"].startswith("probes.")
    )
    m["cli.load_config.s"] = dur["cli.load_config"]
    m["cli.report.s"] = dur["cli.report"]
    m["cli.report.kb"] = report_bytes / 1024.0
    for name in (
        "pruefer.split_box_search", "qgraph.graph_eigenvalues", "transfer.lyapunov"
    ):
        m[name + ".ms_per_call"] = per_call_ms(name)
    return m


def self_time_table(spans) -> list:
    """[(layer, self seconds)] sorted descending; sweeps split by regime."""
    selfs = self_times(spans)
    total = defaultdict(float)
    for s in spans:
        name = s["name"]
        if name == "eigensolve.sturm_counts":
            name = f"{name}.{regime(s['attrs'].get('lanes', 0))}"
        total[name] += selfs[s["id"]]
    return sorted(total.items(), key=lambda kv: -kv[1])
