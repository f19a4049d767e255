"""One measured process: a `randspec run` or one round of api-small calls.

Usage: python3 perfbench/child.py JOB.json

JOB.json names the mode (suite or api), its inputs, whether to trace, and
whether to stop at the first probe or call (a set-up-only launch).
The process writes its spans, captured eigenvalues, the time of its first
probe or call, and (api mode) the call results to the job's result path.
The parent measures wall time and peak RSS around the whole process.
"""

from __future__ import annotations

import json
import os
import sys
import time

import spans


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    spans.REC.run_id = job["run_id"]
    spans.REC.stop_at_first_probe = job["setup_only"]
    spans.install(job["trace"])
    result = {}
    if job["mode"] == "suite":
        from randspec import cli

        try:
            result["exit_code"] = cli.main(
                [
                    "run", job["config"],
                    "--workers", str(job["workers"]),
                    "--scale", repr(job["scale"]),
                    "--out", job["out"],
                ]
            )
        except spans.SetupDone:
            pass
    else:
        import workloads

        with open(job["inputs"]) as fh:
            calls = json.load(fh)
        outcomes = []
        spans.REC.first_probe = time.perf_counter()
        if job["setup_only"]:
            calls = []
        for call in calls:
            try:
                outcomes.append({"ok": True, "value": workloads.run_api_call(call)})
            except Exception as exc:  # a failed call is counted, not fatal
                outcomes.append({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
        result["calls"] = outcomes
    result.update(
        pid=os.getpid(),
        first_probe=spans.REC.first_probe,
        spans=spans.REC.spans,
        captures=spans.REC.captures,
        missing=spans.MISSING,
    )
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
