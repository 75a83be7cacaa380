"""difam benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; difam is imported from `src`.  Each
repetition of a workload runs in a fresh single-threaded child process
(perfbench/child.py), one at a time, and every verdict is checked against
its pin.  Repetitions start until --seconds have passed, with at least
MIN_REPS of them; set-up is measured at least MIN_SETUPS times.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over
untraced repetitions.  --trace 1 reports its per-layer metrics: it cycles
an untraced, a traced and a memory repetition (see child.py), and writes
the spans to perfbench/out/.  The last stdout line is the JSON result; the
exit code is 0 only when every operation matched its pin.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

MIN_REPS = 3
MIN_SETUPS = 5
RUN_LIMIT_S = 165.0  # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
LIMITS = (
    "no hardware counters are read",
    "the page cache is not dropped between runs",
    "peak_rss_mb is ru_maxrss: the high-water mark of the whole child, "
    "interpreter, numpy and sympy included",
    "*_peak_mb are tracemalloc peaks of one call; an anomaly scan's peak stops "
    "at its first closure",
    "the box is shared and has 2 cores: other tenants' load shows as noise",
    "wall_cal divides each step's wall time by a reference kernel timed around "
    "and during it (calibrate.py); large numpy steps track the kernel less "
    "closely than interpreted ones",
)


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and every metric's unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def run_child(workload: str, seed: int, mode: str, run_id: str, deadline: float,
              *, setup_only=False, check_files=False, damage=None, spans_out=None) -> dict:
    """One child process; its record, or {"error": ...} if it did not finish."""
    spawn = time.monotonic()
    cmd = [
        sys.executable, str(BENCH / "child.py"), workload, str(seed), mode,
        "--spawn", repr(spawn), "--run-id", run_id, "--work-root", str(OUT),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if check_files:
        cmd.append("--check-files")
    if damage:
        cmd += ["--damage", damage]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawn),
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"{run_id}: killed at the run's time limit"}
    if proc.returncode != 0:
        return {"mode": mode, "error": f"{run_id}: child exited {proc.returncode}"}
    record = json.loads(proc.stdout.splitlines()[-1])
    record["elapsed_s"] = time.monotonic() - spawn
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            min_reps=MIN_REPS, min_setups=MIN_SETUPS, damage=None):
    """Run repetitions, then set-up-only children; return both record lists."""
    start = time.monotonic()
    stop, deadline = start + seconds, start + RUN_LIMIT_S
    modes = ("plain", "spans", "memory") if trace else ("plain",)
    spans_out = OUT / f"{workload}-s{seed}-spans.jsonl" if trace else None
    if spans_out:
        spans_out.unlink(missing_ok=True)
    reps: list[dict] = []
    while True:
        if len(reps) >= max(min_reps, len(modes)):
            typical = median(r["elapsed_s"] for r in reps)
            if time.monotonic() + typical > stop:
                break
        mode = modes[len(reps) % len(modes)]
        rec = run_child(
            workload, seed, mode, f"{workload}-s{seed}-r{len(reps)}", deadline,
            check_files=not reps, damage=damage, spans_out=spans_out,
        )
        reps.append(rec)
        if "error" in rec:
            break
    setups: list[dict] = []
    plain_setups = sum(1 for r in reps if r["mode"] == "plain" and "setup_s" in r)
    while plain_setups + len(setups) < min_setups and time.monotonic() < deadline - 10:
        rec = run_child(workload, seed, "plain", f"{workload}-s{seed}-setup{len(setups)}",
                        deadline, setup_only=True)
        setups.append(rec)
        if "error" in rec:
            break
    return reps, setups


def summarize(reps: list[dict], setups: list[dict], trace: bool):
    """(metrics, attempted, failure messages) of one run."""
    failures = [r["error"] for r in reps + setups if "error" in r]
    attempted = len(failures) + sum(r.get("attempted", 0) for r in reps)
    done = [r for r in reps if "error" not in r]
    for r in done:
        failures += r["failures"]
    for r in done[1:]:  # the first repetition round-tripped its files
        attempted += 1
        if r["files"] != done[0]["files"]:
            failures.append(f"{r['mode']} repetition wrote other files than the first")

    def med(mode, key):
        values = [r[key] for r in done if r["mode"] == mode]
        return median(values) if values else None

    if not trace:
        metrics = {
            "wall_cal": med("plain", "wall_cal"),
            "peak_rss_mb": med("plain", "rss_mb"),
            "setup_s": median(
                r["setup_s"] for r in done + setups if r["mode"] == "plain" and "setup_s" in r
            ) if done else None,
        }
    else:
        metrics = {}
        for mode, key in (("spans", "layers"), ("memory", "peaks")):
            rows = [r[key] for r in done if r["mode"] == mode]
            for name in rows[0] if rows else ():
                metrics[name] = median(row[name] for row in rows)
        metrics["process.cpu_s"] = med("plain", "cpu_s")
        metrics["process.wall_s"] = med("plain", "wall_s")
        metrics["harness.kernel_s"] = med("plain", "kernel_s")
        # in seconds: plain repetitions sample the kernel inside steps and
        # traced ones do not, so their wall_cal do not compare
        traced, plain = med("spans", "wall_s"), med("plain", "wall_s")
        metrics["trace.overhead_s"] = None if traced is None or plain is None else traced - plain
    return metrics, attempted, failures


def git_commit(root: Path):
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "git_commit": git_commit(ROOT),
        "difam_import": "from src on PYTHONPATH; difam is not pip-installed",
        "child_env": {var: "1" for var in THREAD_VARS},
        "limits": list(LIMITS),
    }


def main() -> int:
    # SystemExit unwinds through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    spec = load_spec()
    ap = argparse.ArgumentParser(description="difam benchmark")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "difam" / "__init__.py").is_file():
        print(f"error: no difam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    trace = bool(args.trace)
    reps, setups = measure(args.workload, args.seed, args.seconds, trace)
    computed, attempted, failures = summarize(reps, setups, trace)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
        for m in wanted
        if computed.get(m["name"]) is not None
    }
    result = {
        "correct": not failures and len(metrics) == len(wanted),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"args": vars(args), "env": environment(), "reps": reps, "setups": setups,
         "failures": failures, "result": result}, indent=1))

    for failure in failures:
        print(f"FAILED {failure}")
    n = sum(1 for r in reps if r["mode"] == "plain" and "wall_s" in r)
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions ({n} untraced), "
          f"{len(setups)} extra set-ups; record in {record.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
