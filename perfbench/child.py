"""One repetition of one workload, in a fresh interpreter.

run.py starts this file once per repetition and reads the JSON record it
prints as its last line of stdout.  Modes:

- plain: no wrappers; gives wall_cal, peak_rss_mb and setup_s
- spans: every traced name wrapped; gives the per-layer times and counts
- memory: tracemalloc around the designs calls; gives their peaks

wall_s is the sum of the job's steps; wall_cal is the same in units of the
reference kernel (calibrate.py), whose runs stay out of both.  Only plain
repetitions run the kernel inside steps; the others run it between them.  setup_s runs from --spawn, the parent's CLOCK_MONOTONIC reading just
before it started this process, so interpreter start-up and imports count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("mode", choices=["plain", "spans", "memory"])
    ap.add_argument("--spawn", type=float, required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--work-root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--check-files", action="store_true")
    ap.add_argument("--damage")
    ap.add_argument("--spans-out")
    a = ap.parse_args()

    import calibrate
    import spans
    import workloads  # imports difam, numpy and sympy: part of set-up

    tracer = spans.Tracer() if a.mode == "spans" else spans.NullTracer()
    peaks = {f"designs.{name}_peak_mb": 0.0 for name in spans.PEAK_TARGETS}
    if a.mode == "spans":
        spans.install(tracer)
    elif a.mode == "memory":
        spans.install_peaks(peaks)
    work = workloads.WORKLOADS[a.workload]
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=a.work_root))
    try:
        with tracer.span("setup"):
            state = work.setup(a.seed, workdir)
        ready = time.monotonic()
        record = {"mode": a.mode, "setup_s": ready - a.spawn}
        if not a.setup_only:
            clock = calibrate.StepClock(sample=a.mode == "plain")
            ops = workloads.Ops(tracer, clock)
            try:
                work.job(state, ops, a.damage)
            except workloads.Aborted:
                pass
            wall = ops.step_s
            record.update(
                wall_s=wall,
                wall_cal=ops.step_cal,
                kernel_s=statistics.median(clock.kernel_s) if clock.kernel_s else None,
                cpu_s=ops.step_cpu_s,
                rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            )
            if a.check_files and work.check_files is not None:
                work.check_files(state, ops)
            record.update(
                attempted=ops.attempted,
                failures=ops.failures,
                files={
                    p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(workdir.iterdir())
                },
            )
            if a.mode == "spans":
                record["layers"] = spans.layer_metrics(tracer.spans, wall, ready, ops.counts)
                spans.write_spans(a.spans_out, a.run_id, tracer.spans, a.spawn)
            elif a.mode == "memory":
                record["peaks"] = peaks
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
