"""Benchmark of randspec: paper-suite workloads and per-module layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite-counts --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced then traced
    python3 perfbench/run.py --write-benchmark-json    # regenerate BENCHMARK.json

A run is a closed loop with one client: it starts one measured process (a
`randspec run`, or a round of library calls), waits for it to exit, checks
its outputs, and starts the next until --seconds have passed.

* --trace 0 reports the end-to-end metrics as medians over the run's
  processes: wall_s (launch to exit), setup_s (launch to the first probe or
  call) and peak_rss_mb (largest RSS of the process or any of its children).
* --trace 1 spends the first half of the run untraced and the second half
  traced, and reports the per-layer metrics of the traced processes, the
  fixed-shape kernel table, and the tracing overhead (traced wall over
  untraced median).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The full result, with quartiles, the
self-time table and provenance, is written under .perfbench_work/results/.
"""

from __future__ import annotations

import os

# before numpy is imported, here and (through the environment) in children
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Every measured process must end this long after the run started, which
# leaves room for the kernel table inside the 180 s a run may take.
RUN_DEADLINE_S = 150
WORKLOAD_NAMES = ("suite-counts", "suite-unfold", "api-small")
# Launches per untraced run that stop at the first probe or call. They add
# set-up samples, so that setup_s is a median over enough processes even on
# suite-unfold, where only three full processes fit in a run.
SETUP_ONLY_LAUNCHES = 5

import definition  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=definition.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-benchmark-json", action="store_true")
    args = p.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# provenance


def _git_commit():
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes():
    """{"L1d": "48K", ...} for the first CPU, as the kernel reports them."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return out


def provenance(seed, argv):
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "cache_bytes": _cache_sizes(),
        "seed": seed,
        "argv": list(argv),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


# ---------------------------------------------------------------------------
# one measured process


def launch(job: dict, work: Path, timeout: float = RUN_DEADLINE_S) -> dict:
    """Run child.py on `job`; return wall, setup, peak RSS and its result.

    The process (and its pool workers, in the same session) is killed after
    `timeout` seconds.
    """
    job_path = work / f"{job['run_id']}.job.json"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(work / f"{job['run_id']}.log", "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(job_path)],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {}
    result_path = Path(job["result"])
    if proc.returncode == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
    first = result.get("first_probe")
    return {
        "ok": proc.returncode == 0 and bool(result),
        "wall_s": wall,
        "setup_s": first - t0 if first is not None else None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "result": result,
        "log": str(work / f"{job['run_id']}.log"),
    }


# ---------------------------------------------------------------------------
# workloads


class SuiteWorkload:
    """One `randspec run` of generated paper-suite sections per operation."""

    def __init__(self, name, seed, work):
        import workloads

        self.name = name
        self.seed = seed
        self.work = work
        self.sections, self.workers, self.scale = workloads.SUITES[name]
        self.master = workloads.master_seed(seed)
        self.config = work / "suite.cfg"
        self.config.write_text(workloads.suite_config(name, seed))
        self.first = None
        self.first_captures = None
        self.deep_bad = {}

    def job(self, run_id, trace, setup_only=False):
        return {
            "mode": "suite", "run_id": run_id, "trace": bool(trace),
            "setup_only": setup_only,
            "config": str(self.config), "workers": self.workers,
            "scale": self.scale, "out": str(self.work / run_id),
            "result": str(self.work / f"{run_id}.result.json"),
        }

    def check(self, rec, run_id):
        """(attempted, {section: problem}) for one process."""
        import checks

        out_dir = self.work / run_id
        outputs = checks.section_outputs(out_dir, self.sections)
        captures = rec["result"].get("captures")
        report_bytes = sum(f.stat().st_size for f in out_dir.glob("*") if f.is_file())
        rec["report_bytes"] = report_bytes
        shutil.rmtree(out_dir, ignore_errors=True)
        bad = {}
        if not rec["ok"]:
            bad = {s: f"process failed, see {rec['log']}" for s in self.sections}
            return len(self.sections), bad
        for sec, text in outputs.items():
            if text is None:
                bad[sec] = "report missing or probe raised"
        if self.first is None:
            self.first = outputs
            self.first_captures = captures
            self._deep_checks(outputs, captures)
        else:
            for sec, text in outputs.items():
                if sec not in bad and text != self.first[sec]:
                    bad[sec] = "output differs from the first run of this workload"
            if "spacing_anderson" in self.sections and captures != self.first_captures:
                bad.setdefault("spacing_anderson", "extracted eigenvalues differ between runs")
        for sec, problem in self.deep_bad.items():
            bad.setdefault(sec, problem)
        return len(self.sections), bad

    def _deep_checks(self, outputs, captures):
        import checks
        import workloads

        if self.seed == workloads.DEFAULT_SEED:
            for sec in checks.reference_mismatches(self.name, outputs):
                self.deep_bad[sec] = "count-valued estimates differ from reference.json"
        if "spacing_anderson" in self.sections and outputs["spacing_anderson"]:
            problems = checks.spacing_oracle(
                captures, self.master, "spacing_anderson", outputs["spacing_anderson"]
            )
            if problems:
                self.deep_bad["spacing_anderson"] = "; ".join(problems[:3])


class ApiWorkload:
    """One process running the fixed api-small call list per round."""

    def __init__(self, name, seed, work):
        import workloads

        self.name = name
        self.seed = seed
        self.work = work
        self.calls = workloads.api_inputs(seed)
        self.inputs = work / "api_inputs.json"
        self.inputs.write_text(json.dumps(self.calls))
        self.first = None
        self.verdicts = None

    def job(self, run_id, trace, setup_only=False):
        return {
            "mode": "api", "run_id": run_id, "trace": bool(trace),
            "setup_only": setup_only,
            "inputs": str(self.inputs),
            "result": str(self.work / f"{run_id}.result.json"),
        }

    def check(self, rec, run_id):
        import checks

        rec["report_bytes"] = 0
        n = len(self.calls)
        if not rec["ok"]:
            return n, {f"call {i}": f"process failed, see {rec['log']}" for i in range(n)}
        outcomes = rec["result"]["calls"]
        if self.first is None:
            self.first = outcomes
            self.verdicts = []
            for call, outcome in zip(self.calls, outcomes):
                if not outcome["ok"]:
                    self.verdicts.append(outcome["error"])
                    continue
                problems = checks.api_oracle(call, outcome["value"])
                self.verdicts.append("; ".join(problems) if problems else None)
        bad = {}
        for i, (call, outcome) in enumerate(zip(self.calls, outcomes)):
            key = f"call {i} {call['fn']}"
            if outcome != self.first[i]:
                bad[key] = "result differs from the first round"
            elif self.verdicts[i]:
                bad[key] = self.verdicts[i]
        return n, bad


def make_workload(name, seed, work):
    if name == "api-small":
        return ApiWorkload(name, seed, work)
    return SuiteWorkload(name, seed, work)


# ---------------------------------------------------------------------------
# one benchmark run


def _quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(name, seed, seconds, trace, argv):
    import layers

    work = WORK / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = make_workload(name, seed, work)
    records = []
    problems = []
    attempted = 0
    failed = 0
    setups = []
    if not trace:
        for i in range(SETUP_ONLY_LAUNCHES):
            rec = launch(wl.job(f"setup{i}", False, setup_only=True), work)
            if rec["setup_s"] is None:
                problems.append(f"setup{i}: no probe or call was reached, see {rec['log']}")
            else:
                setups.append(rec["setup_s"])
    start = time.perf_counter()
    phases = [(False, seconds / 2), (True, seconds)] if trace else [(False, seconds)]
    for traced, until in phases:
        first_of_phase = True
        while first_of_phase or time.perf_counter() - start < until:
            first_of_phase = False
            run_id = f"it{len(records):03d}{'t' if traced else 'u'}"
            timeout = max(5.0, RUN_DEADLINE_S - (time.perf_counter() - start))
            rec = launch(wl.job(run_id, traced), work, timeout)
            rec["traced"] = traced
            n, bad = wl.check(rec, run_id)
            attempted += n
            failed += len(bad)
            problems.extend(f"{run_id} {k}: {v}" for k, v in bad.items())
            if rec["ok"] and rec["setup_s"] is None:
                problems.append(f"{run_id}: no probe or call was reached")
            if traced and rec["ok"]:
                span_problems = layers.check_spans(
                    rec["result"]["spans"], rec["result"]["pid"]
                )
                problems.extend(f"{run_id} spans: {p}" for p in span_problems[:5])
            records.append(rec)

    untraced = [r for r in records if not r["traced"] and r["ok"]]
    traced_recs = [r for r in records if r["traced"] and r["ok"]]
    summary = {}
    for metric in ("wall_s", "setup_s", "peak_rss_mb"):
        vals = [r[metric] for r in untraced if r[metric] is not None]
        if metric == "setup_s":
            vals += setups
        if vals:
            q1, med, q3 = _quartiles(vals)
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "n": len(vals)}
    out = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "summary": summary,
        "runs": [
            {k: r[k] for k in ("traced", "ok", "wall_s", "setup_s", "peak_rss_mb")}
            for r in records
        ],
        "provenance": provenance(seed, argv),
    }
    units = {n: u for n, u, _, _ in definition.END_TO_END}
    units.update({n: u for n, u, _ in definition.PER_LAYER})
    metrics = {}
    if not trace:
        for metric, _, _, _ in definition.END_TO_END:
            if metric in summary:
                metrics[metric] = summary[metric]["median"]
    elif traced_recs and untraced:
        import kernels

        per_run = [
            layers.layer_metrics(r["result"]["spans"], r["report_bytes"])
            for r in traced_recs
        ]
        for key in per_run[0]:
            metrics[key] = statistics.median(m[key] for m in per_run)
        metrics.update(kernels.kernel_table(seed))
        traced_wall = statistics.median(r["wall_s"] for r in traced_recs)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead"] = traced_wall / statistics.median(
            r["wall_s"] for r in untraced
        )
        out["self_time_s"] = layers.self_time_table(traced_recs[0]["result"]["spans"])
        out["missing_entry_points"] = traced_recs[0]["result"]["missing"]
    expected = (
        [m[0] for m in definition.END_TO_END] if not trace
        else [m[0] for m in definition.PER_LAYER]
    )
    for key in expected:
        if key not in metrics:
            problems.append(f"metric {key} was not measured")
    out["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in expected if k in metrics}
    out["correct"] = failed == 0 and not problems and len(out["metrics"]) == len(expected)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(out, indent=2, sort_keys=True) + "\n"
    )
    if out["correct"]:
        shutil.rmtree(work, ignore_errors=True)  # kept for inspection otherwise
    return out


def print_human(out):
    print(f"== {out['workload']}  seed {out['seed']}  trace {out['trace']}")
    for metric, s in out["summary"].items():
        print(
            f"  {metric:<12} median {s['median']:.4f}  q1 {s['q1']:.4f}  "
            f"q3 {s['q3']:.4f}  n {s['n']}"
        )
    frac = out["failed"] / out["attempted"] if out["attempted"] else float("nan")
    print(f"  failed_frac  {out['failed']}/{out['attempted']} = {frac:.4g}")
    if out["trace"]:
        print("  per-layer metrics (median over traced processes):")
        for key, m in out["metrics"].items():
            print(f"    {key:<52} {m['value']:>14.6g} {m['unit']}")
        print("  self time by layer, first traced process (s):")
        for name, secs in out.get("self_time_s", [])[:12]:
            print(f"    {name:<52} {secs:>10.4f}")
        if out.get("missing_entry_points"):
            print(f"  entry points not found: {out['missing_entry_points']}")
    for p in out["problems"][:20]:
        print(f"  problem: {p}")
    print(f"  provenance: {json.dumps(out['provenance'], sort_keys=True)}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(definition.benchmark_json(), indent=2) + "\n"
        )
        return 0
    if not (SRC / "randspec" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'randspec'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the program under test, never an installed copy
    import workloads

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        workers = workloads.SUITES[name][1] if name in workloads.SUITES else 1
        if workers > nproc():
            print(
                f"error: {name} needs {workers} workers but only {nproc()} CPUs "
                "are available",
                file=sys.stderr,
            )
            return 2
    if args.workload != "all":
        out = run_workload(args.workload, args.seed, args.seconds, args.trace, argv)
        print_human(out)
        print(json.dumps({
            "correct": out["correct"],
            "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": out["metrics"],
        }))
        return 0
    all_correct = True
    for name in names:
        for trace in (0, 1):
            out = run_workload(name, args.seed, args.seconds, trace, argv)
            print_human(out)
            all_correct = all_correct and out["correct"]
    print(json.dumps({"correct": all_correct}))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
